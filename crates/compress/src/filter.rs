//! PNG-style predictive scanline filters.
//!
//! Each image row is transformed by one of five predictors before
//! dictionary coding, exactly as in PNG: `None`, `Sub` (left), `Up`
//! (above), `Average`, and `Paeth`. The encoder picks a filter per row
//! with the standard minimum-sum-of-absolute-differences heuristic.
//!
//! Every loop here is shaped for autovectorization. Scoring is one
//! pass, `score_run`, over four equal-length slices — the bytes, and
//! their left, upper and upper-left neighbours — with a branch-free
//! Paeth and `u32` sums; a neighbour that does not exist (no previous
//! row, the first `bpp` bytes of a row) is a slice of zeros, which is
//! how PNG defines it, so the degenerate cases (`Paeth` is `Sub`
//! without a previous row and `Up` in the prologue, `Up` is `None`
//! without one) fall out of the arithmetic. The writing and
//! unfiltering passes are one flat loop per filter type with the
//! `i < bpp` prologue split out. Output is byte-for-byte that of the
//! per-byte formulation kept as
//! [`crate::reference::filter_apply`] / [`crate::reference::filter_unapply`].

use std::cell::Cell;

/// The five PNG filter types, by their PNG tag value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterType {
    /// No prediction.
    None = 0,
    /// Predict from the pixel to the left.
    Sub = 1,
    /// Predict from the pixel above.
    Up = 2,
    /// Predict from the average of left and above.
    Average = 3,
    /// Predict with the Paeth predictor.
    Paeth = 4,
}

impl FilterType {
    fn from_tag(tag: u8) -> Option<FilterType> {
        Some(match tag {
            0 => FilterType::None,
            1 => FilterType::Sub,
            2 => FilterType::Up,
            3 => FilterType::Average,
            4 => FilterType::Paeth,
            _ => return None,
        })
    }
}

/// The Paeth predictor (a = left, b = above, c = upper-left) in `u8`
/// arithmetic and selects, so a loop over it vectorizes at a lane per
/// byte. With `p = a + b − c` the three distances are
/// `|p − a| = |b − c|`, `|p − b| = |a − c|` and
/// `|p − c| = |(a − c) + (b − c)|`; the last is the sum of the first
/// two when a and b lie on the same side of c and their difference
/// otherwise. A sum that saturates is still no less than either term,
/// which is all the comparisons ask of it.
#[inline(always)]
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    // `u8::abs_diff` widens to `i32`, which would take the lanes with it.
    fn dist(x: u8, y: u8) -> u8 {
        x.max(y) - x.min(y)
    }
    let pa = dist(b, c);
    let pb = dist(a, c);
    let pc = if (a >= c) == (b >= c) { pa.saturating_add(pb) } else { dist(pa, pb) };
    let b_or_c = if pb <= pc { b } else { c };
    if (pa <= pb) & (pa <= pc) {
        a
    } else {
        b_or_c
    }
}

/// `⌊(a + b) / 2⌋` without leaving `u8`.
#[inline(always)]
fn average(a: u8, b: u8) -> u8 {
    (a & b) + ((a ^ b) >> 1)
}

/// Bytes scored per [`score_run`] call: few enough that the sums
/// (at most 128 a byte) fit `u32` with room to spare and that
/// [`ZEROS`] can stand in for any missing neighbour.
const SCORE_RUN: usize = 4096;

static ZEROS: [u8; SCORE_RUN] = [0; SCORE_RUN];

/// Bytes [`score_run`] scores per step: the residual magnitudes of a
/// step are made in `u8` lanes and only their sums widened.
const LANES: usize = 16;

/// Σ |residual as i8| of `x` under each filter, in tag order, given
/// its left (`a`), upper (`b`) and upper-left (`c`) neighbours.
fn score_run(x: &[u8], a: &[u8], b: &[u8], c: &[u8]) -> [u32; 5] {
    #[inline(always)]
    fn mags(x: u8, a: u8, b: u8, c: u8) -> [u8; 5] {
        [0, a, b, average(a, b), paeth(a, b, c)]
            .map(|pred| (x.wrapping_sub(pred) as i8).unsigned_abs())
    }
    let mut sums = [0u32; 5];
    let n = x.len() / LANES * LANES;
    for (((x, a), b), c) in x[..n]
        .chunks_exact(LANES)
        .zip(a[..n].chunks_exact(LANES))
        .zip(b[..n].chunks_exact(LANES))
        .zip(c[..n].chunks_exact(LANES))
    {
        let mut step = [[0u8; LANES]; 5];
        for (k, (((&x, &a), &b), &c)) in x.iter().zip(a).zip(b).zip(c).enumerate() {
            for (lanes, m) in step.iter_mut().zip(mags(x, a, b, c)) {
                lanes[k] = m;
            }
        }
        for (sum, lanes) in sums.iter_mut().zip(&step) {
            *sum += lanes.iter().map(|&m| m as u32).sum::<u32>();
        }
    }
    for (((&x, &a), &b), &c) in x[n..].iter().zip(&a[n..]).zip(&b[n..]).zip(&c[n..]) {
        for (sum, m) in sums.iter_mut().zip(mags(x, a, b, c)) {
            *sum += m as u32;
        }
    }
    sums
}

/// The tag whose filter leaves `row` with the smallest residual sum;
/// ties go to the lower tag. `prev` is the row above, or empty, and
/// `bpp` is at most the row's length.
fn pick_filter(row: &[u8], prev: &[u8], bpp: usize) -> u8 {
    let mut total = [0u64; 5];
    let mut at = 0;
    while at < row.len() {
        // A run stays on one side of the prologue's edge, so its left
        // neighbours are all zeros or all bytes of the row.
        let end = if at < bpp { bpp } else { row.len() }.min(at + SCORE_RUN);
        let zeros = &ZEROS[..end - at];
        let above = |from: usize| if prev.is_empty() { zeros } else { &prev[from..] };
        let (a, c) = if at < bpp { (zeros, zeros) } else { (&row[at - bpp..], above(at - bpp)) };
        for (t, s) in total.iter_mut().zip(score_run(&row[at..end], a, above(at), c)) {
            *t += s as u64;
        }
        at = end;
    }
    let mut best = 0;
    for (tag, &t) in total.iter().enumerate() {
        if t < total[best] {
            best = tag;
        }
    }
    best as u8
}

fn write_sub(row: &[u8], bpp: usize, dst: &mut [u8]) {
    dst[..bpp].copy_from_slice(&row[..bpp]);
    for ((d, &x), &a) in dst[bpp..].iter_mut().zip(row[bpp..].iter()).zip(row.iter()) {
        *d = x.wrapping_sub(a);
    }
}

fn write_up(row: &[u8], prev: &[u8], dst: &mut [u8]) {
    for ((d, &x), &b) in dst.iter_mut().zip(row.iter()).zip(prev.iter()) {
        *d = x.wrapping_sub(b);
    }
}

fn write_avg(row: &[u8], prev: &[u8], bpp: usize, dst: &mut [u8]) {
    if prev.is_empty() {
        dst[..bpp].copy_from_slice(&row[..bpp]);
        for ((d, &x), &a) in dst[bpp..].iter_mut().zip(row[bpp..].iter()).zip(row.iter()) {
            *d = x.wrapping_sub(a / 2);
        }
    } else {
        for ((d, &x), &b) in
            dst[..bpp].iter_mut().zip(row[..bpp].iter()).zip(prev[..bpp].iter())
        {
            *d = x.wrapping_sub(b / 2);
        }
        for (((d, &x), &b), &a) in dst[bpp..]
            .iter_mut()
            .zip(row[bpp..].iter())
            .zip(prev[bpp..].iter())
            .zip(row.iter())
        {
            *d = x.wrapping_sub(average(a, b));
        }
    }
}

fn write_paeth(row: &[u8], prev: &[u8], bpp: usize, dst: &mut [u8]) {
    for ((d, &x), &b) in dst[..bpp].iter_mut().zip(row[..bpp].iter()).zip(prev[..bpp].iter()) {
        *d = x.wrapping_sub(b);
    }
    for (((d, &x), &b), (&a, &c)) in dst[bpp..]
        .iter_mut()
        .zip(row[bpp..].iter())
        .zip(prev[bpp..].iter())
        .zip(row.iter().zip(prev.iter()))
    {
        *d = x.wrapping_sub(paeth(a, b, c));
    }
}

/// Applies per-row adaptive filtering. Output is, per row, one filter
/// tag byte followed by the filtered row. A trailing partial row (when
/// `data.len()` is not a multiple of `stride`) is filtered too.
pub fn apply(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / stride.max(1) + 1);
    apply_into(data, bpp, stride, &mut out);
    out
}

/// [`apply`] into a caller-owned buffer (cleared first) so repeated
/// filtering reuses the allocation.
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn apply_into(data: &[u8], bpp: usize, stride: usize, out: &mut Vec<u8>) {
    assert!(bpp > 0 && stride > 0, "bad geometry");
    out.clear();
    out.reserve(data.len() + data.len() / stride + 1);
    append_rows(data, bpp, stride, 0..data.len().div_ceil(stride), out);
}

/// Filters rows `rows` of `data` and appends them to `out`: the band
/// step of [`apply_into`], for a consumer that wants the filtered
/// stream in pieces. Appending consecutive bands from row 0 builds
/// exactly the [`apply`] output (each row's predictor reads only the
/// unfiltered row above it).
pub(crate) fn append_rows(
    data: &[u8],
    bpp: usize,
    stride: usize,
    rows: std::ops::Range<usize>,
    out: &mut Vec<u8>,
) {
    let start = rows.start * stride;
    let end = (rows.end * stride).min(data.len());
    let mut prev: &[u8] = &data[start.saturating_sub(stride)..start];
    for row in data[start..end].chunks(stride) {
        let p = if prev.len() == row.len() { prev } else { &[] };
        let b = bpp.min(row.len());
        let tag = pick_filter(row, p, b);
        out.push(tag);
        let start = out.len();
        out.resize(start + row.len(), 0);
        let dst = &mut out[start..];
        match FilterType::from_tag(tag).expect("tag in range") {
            FilterType::None => dst.copy_from_slice(row),
            FilterType::Sub => write_sub(row, b, dst),
            FilterType::Up if p.is_empty() => dst.copy_from_slice(row),
            FilterType::Up => write_up(row, p, dst),
            FilterType::Average => write_avg(row, p, b, dst),
            FilterType::Paeth if p.is_empty() => write_sub(row, b, dst),
            FilterType::Paeth => write_paeth(row, p, b, dst),
        }
        prev = row;
    }
}

/// `row[i] += row[i - bpp]` left to right: each byte reads one this
/// loop has already written, which a `Cell` view lets it do without
/// indexing.
fn unfilter_sub(row: &mut [u8], bpp: usize) {
    let row = Cell::from_mut(row).as_slice_of_cells();
    for (x, a) in row[bpp..].iter().zip(row.iter()) {
        x.set(x.get().wrapping_add(a.get()));
    }
}

fn unfilter_up(row: &mut [u8], prev: &[u8]) {
    for (x, &b) in row.iter_mut().zip(prev.iter()) {
        *x = x.wrapping_add(b);
    }
}

fn unfilter_avg(row: &mut [u8], prev: &[u8], bpp: usize) {
    let row = Cell::from_mut(row).as_slice_of_cells();
    if prev.is_empty() {
        for (x, a) in row[bpp..].iter().zip(row.iter()) {
            x.set(x.get().wrapping_add(a.get() / 2));
        }
    } else {
        for (x, &b) in row[..bpp].iter().zip(prev.iter()) {
            x.set(x.get().wrapping_add(b / 2));
        }
        for ((x, a), &b) in row[bpp..].iter().zip(row.iter()).zip(prev[bpp..].iter()) {
            x.set(x.get().wrapping_add(average(a.get(), b)));
        }
    }
}

/// `prev` is not empty: without a row above `Paeth` is `Sub`.
fn unfilter_paeth(row: &mut [u8], prev: &[u8], bpp: usize) {
    unfilter_up(&mut row[..bpp], prev);
    let row = Cell::from_mut(row).as_slice_of_cells();
    for ((x, a), (&b, &c)) in
        row[bpp..].iter().zip(row.iter()).zip(prev[bpp..].iter().zip(prev.iter()))
    {
        x.set(x.get().wrapping_add(paeth(a.get(), b, c)));
    }
}

/// Reverses [`apply`]. Returns `None` on malformed input.
pub fn unapply(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    let mut buf = data.to_vec();
    unapply_in_place(&mut buf, bpp, stride).then_some(buf)
}

/// [`unapply`] on a filtered stream the caller owns: the image takes
/// the stream's place in `buf` (it is shorter by a tag per row, and a
/// row's image never reaches past where its residuals were). Returns
/// `false` on malformed input, leaving `buf` unspecified.
pub fn unapply_in_place(buf: &mut Vec<u8>, bpp: usize, stride: usize) -> bool {
    if bpp == 0 || stride == 0 {
        return false;
    }
    // Rows are read at `src` and left, unfiltered, at `dst <= src`.
    let (mut src, mut dst, mut prev_len) = (0, 0, 0);
    while src < buf.len() {
        let Some(ftype) = FilterType::from_tag(buf[src]) else {
            return false;
        };
        let len = stride.min(buf.len() - src - 1);
        if len == 0 {
            return false;
        }
        buf.copy_within(src + 1..src + 1 + len, dst);
        let (done, rest) = buf.split_at_mut(dst);
        let row = &mut rest[..len];
        let prev = if prev_len == len { &done[dst - len..] } else { &[] };
        let b = bpp.min(len);
        match ftype {
            FilterType::None => {}
            FilterType::Up => unfilter_up(row, prev),
            FilterType::Average => unfilter_avg(row, prev, b),
            FilterType::Paeth if !prev.is_empty() => unfilter_paeth(row, prev, b),
            FilterType::Sub | FilterType::Paeth => unfilter_sub(row, b),
        }
        src += 1 + len;
        dst += len;
        prev_len = len;
    }
    buf.truncate(dst);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize, bpp: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(w * h * bpp);
        for y in 0..h {
            for x in 0..w {
                for c in 0..bpp {
                    v.push(((x * 3 + y * 7 + c * 11) % 256) as u8);
                }
            }
        }
        v
    }

    #[test]
    fn round_trip_gradient() {
        let data = gradient(17, 9, 3);
        let stride = 17 * 3;
        let f = apply(&data, 3, stride);
        assert_eq!(unapply(&f, 3, stride).unwrap(), data);
    }

    #[test]
    fn round_trip_all_bpps() {
        for bpp in [1usize, 2, 3, 4] {
            let data = gradient(8, 8, bpp);
            let stride = 8 * bpp;
            let f = apply(&data, bpp, stride);
            assert_eq!(unapply(&f, bpp, stride).unwrap(), data, "bpp={bpp}");
        }
    }

    #[test]
    fn round_trip_partial_last_row() {
        let mut data = gradient(10, 3, 3);
        data.truncate(data.len() - 7);
        let f = apply(&data, 3, 30);
        assert_eq!(unapply(&f, 3, 30).unwrap(), data);
    }

    #[test]
    fn round_trip_empty() {
        let f = apply(&[], 3, 30);
        assert_eq!(unapply(&f, 3, 30).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn gradient_filters_to_near_constant() {
        // A linear gradient becomes tiny residuals under Sub/Paeth,
        // which is the whole point of filtering before LZ coding.
        let data: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        let f = apply(&data, 1, 50);
        // A slope-1 gradient has residual 1 under the Sub filter, so the
        // filtered stream collapses to (almost) a single byte value —
        // which is what makes it trivially dictionary-codable.
        let ones = f.iter().filter(|&&b| b == 1).count();
        assert!(ones > data.len() * 3 / 4, "{ones} constant residuals");
    }

    #[test]
    fn bad_filter_tag_rejected() {
        assert_eq!(unapply(&[9, 1, 2, 3], 1, 3), None);
    }

    #[test]
    fn branch_free_paeth_is_the_png_predictor_on_every_input() {
        for v in 0..1u32 << 24 {
            let [a, b, c, _] = v.to_le_bytes();
            assert_eq!(paeth(a, b, c), crate::reference::paeth(a, b, c), "a={a} b={b} c={c}");
        }
    }

    #[test]
    fn paeth_predictor_reference_cases() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 20, 10), 20); // p = 20 -> picks b.
        assert_eq!(paeth(20, 10, 10), 20); // p = 20 -> picks a.
        assert_eq!(paeth(100, 100, 100), 100);
    }
}
