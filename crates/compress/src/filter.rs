//! PNG-style predictive scanline filters.
//!
//! Each image row is transformed by one of five predictors before
//! dictionary coding, exactly as in PNG: `None`, `Sub` (left), `Up`
//! (above), `Average`, and `Paeth`. The encoder picks a filter per row
//! with the standard minimum-sum-of-absolute-differences heuristic.
//!
//! The scoring and writing passes are structured for
//! autovectorization: each filter gets its own flat loop over the row
//! with the `i < bpp` prologue split out, so the inner loops carry no
//! per-byte branching or bounds checks. Two identities remove the
//! remaining special cases: with no previous row, `Paeth` degenerates
//! to `Sub` and `Up` to `None`; within the first `bpp` bytes of a row
//! that has one, `Paeth` degenerates to `Up`. Output is byte-for-byte
//! identical to the straightforward per-byte formulation (the test
//! suite keeps that formulation around and checks).

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

#[inline(always)]
fn paeth(a: u8, b: u8, c: u8) -> u8 {
    // a = left, b = above, c = upper-left.
    let p = a as i32 + b as i32 - c as i32;
    let pa = (p - a as i32).abs();
    let pb = (p - b as i32).abs();
    let pc = (p - c as i32).abs();
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

#[inline(always)]
fn abs_residual(x: u8, pred: u8) -> u64 {
    (x.wrapping_sub(pred) as i8).unsigned_abs() as u64
}

/// Σ |x| — the `None` score, and the `Up` score when there is no
/// previous row.
fn score_none(row: &[u8]) -> u64 {
    row.iter().map(|&x| (x as i8).unsigned_abs() as u64).sum()
}

/// `Sub` score; also the `Paeth` score when there is no previous row
/// (with a = left, b = c = 0, Paeth always picks a).
fn score_sub(row: &[u8], bpp: usize) -> u64 {
    let head: u64 = row[..bpp].iter().map(|&x| (x as i8).unsigned_abs() as u64).sum();
    let tail: u64 = row[bpp..]
        .iter()
        .zip(row.iter())
        .map(|(&x, &a)| abs_residual(x, a))
        .sum();
    head + tail
}

/// `Up` score (previous row present).
fn score_up(row: &[u8], prev: &[u8]) -> u64 {
    row.iter().zip(prev.iter()).map(|(&x, &b)| abs_residual(x, b)).sum()
}

/// `Average` score; `prev` may be empty (first row), where the
/// predictor degenerates to `a / 2` (and `0` in the prologue).
fn score_avg(row: &[u8], prev: &[u8], bpp: usize) -> u64 {
    if prev.is_empty() {
        let head: u64 = row[..bpp].iter().map(|&x| (x as i8).unsigned_abs() as u64).sum();
        let tail: u64 = row[bpp..]
            .iter()
            .zip(row.iter())
            .map(|(&x, &a)| abs_residual(x, a / 2))
            .sum();
        head + tail
    } else {
        let head: u64 = row[..bpp]
            .iter()
            .zip(prev[..bpp].iter())
            .map(|(&x, &b)| abs_residual(x, b / 2))
            .sum();
        let tail: u64 = row[bpp..]
            .iter()
            .zip(prev[bpp..].iter())
            .zip(row.iter())
            .map(|((&x, &b), &a)| abs_residual(x, ((a as u16 + b as u16) / 2) as u8))
            .sum();
        head + tail
    }
}

/// `Paeth` score (previous row present). In the prologue a = c = 0,
/// so the predictor is exactly b (`Up`).
fn score_paeth(row: &[u8], prev: &[u8], bpp: usize) -> u64 {
    let head: u64 = row[..bpp]
        .iter()
        .zip(prev[..bpp].iter())
        .map(|(&x, &b)| abs_residual(x, b))
        .sum();
    let tail: u64 = row[bpp..]
        .iter()
        .zip(prev[bpp..].iter())
        .zip(row.iter().zip(prev.iter()))
        .map(|((&x, &b), (&a, &c))| abs_residual(x, paeth(a, b, c)))
        .sum();
    head + tail
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
            *d = x.wrapping_sub(((a as u16 + b as u16) / 2) as u8);
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

fn unfilter_row(ftype: FilterType, row: &mut [u8], prev: &[u8], bpp: usize) {
    for i in 0..row.len() {
        let a = if i >= bpp { row[i - bpp] } else { 0 };
        let b = if prev.is_empty() { 0 } else { prev[i] };
        let c = if i >= bpp && !prev.is_empty() { prev[i - bpp] } else { 0 };
        let pred = match ftype {
            FilterType::None => 0,
            FilterType::Sub => a,
            FilterType::Up => b,
            FilterType::Average => ((a as u16 + b as u16) / 2) as u8,
            FilterType::Paeth => paeth(a, b, c),
        };
        row[i] = row[i].wrapping_add(pred);
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
        // Candidate scores in tag order; Up without a previous row
        // scores like None and Paeth like Sub (see the score fns), so
        // the strict-< first-minimum scan below reproduces the naive
        // [None, Sub, Up, Average, Paeth] tie-break exactly.
        let s_none = score_none(row);
        let s_sub = score_sub(row, b);
        let scores = [
            s_none,
            s_sub,
            if p.is_empty() { s_none } else { score_up(row, p) },
            score_avg(row, p, b),
            if p.is_empty() { s_sub } else { score_paeth(row, p, b) },
        ];
        let mut best = 0usize;
        for (i, &s) in scores.iter().enumerate() {
            if s < scores[best] {
                best = i;
            }
        }
        out.push(best as u8);
        let start = out.len();
        out.resize(start + row.len(), 0);
        let dst = &mut out[start..];
        match FilterType::from_tag(best as u8).expect("tag in range") {
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

/// Reverses [`apply`]. Returns `None` on malformed input.
pub fn unapply(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    if bpp == 0 || stride == 0 {
        return None;
    }
    let mut out: Vec<u8> = Vec::with_capacity(data.len());
    let mut i = 0;
    let mut prev_start: Option<(usize, usize)> = None; // (offset, len) in out.
    while i < data.len() {
        let ftype = FilterType::from_tag(data[i])?;
        i += 1;
        let row_len = stride.min(data.len() - i);
        if row_len == 0 {
            return None;
        }
        let row_start = out.len();
        out.extend_from_slice(&data[i..i + row_len]);
        i += row_len;
        // Split so we can view prev row while mutating this one.
        let (head, tail) = out.split_at_mut(row_start);
        let prev: &[u8] = match prev_start {
            Some((off, len)) if len == row_len => &head[off..off + len],
            _ => &[],
        };
        unfilter_row(ftype, &mut tail[..row_len], prev, bpp);
        prev_start = Some((row_start, row_len));
    }
    Some(out)
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

    /// The straightforward per-byte formulation the optimized passes
    /// must reproduce byte-for-byte.
    fn reference_filter_row(
        ftype: FilterType,
        row: &[u8],
        prev: &[u8],
        bpp: usize,
        out: &mut Vec<u8>,
    ) {
        for (i, &x) in row.iter().enumerate() {
            let a = if i >= bpp { row[i - bpp] } else { 0 };
            let b = if prev.is_empty() { 0 } else { prev[i] };
            let c = if i >= bpp && !prev.is_empty() { prev[i - bpp] } else { 0 };
            let pred = match ftype {
                FilterType::None => 0,
                FilterType::Sub => a,
                FilterType::Up => b,
                FilterType::Average => ((a as u16 + b as u16) / 2) as u8,
                FilterType::Paeth => paeth(a, b, c),
            };
            out.push(x.wrapping_sub(pred));
        }
    }

    fn reference_apply(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut prev: &[u8] = &[];
        let mut scratch = Vec::new();
        for row in data.chunks(stride) {
            let mut best = FilterType::None;
            let mut best_score = u64::MAX;
            for f in [
                FilterType::None,
                FilterType::Sub,
                FilterType::Up,
                FilterType::Average,
                FilterType::Paeth,
            ] {
                scratch.clear();
                let p = if prev.len() == row.len() { prev } else { &[] };
                reference_filter_row(f, row, p, bpp, &mut scratch);
                let score: u64 =
                    scratch.iter().map(|&b| (b as i8).unsigned_abs() as u64).sum();
                if score < best_score {
                    best_score = score;
                    best = f;
                }
            }
            out.push(best as u8);
            let p = if prev.len() == row.len() { prev } else { &[] };
            reference_filter_row(best, row, p, bpp, &mut out);
            prev = row;
        }
        out
    }

    #[test]
    fn optimized_apply_matches_reference_byte_for_byte() {
        let mut x = 0x2545F4914F6CDD1Du64;
        let mut rand = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..200 {
            let bpp = 1 + (rand() % 4) as usize;
            let w = 1 + (rand() % 37) as usize;
            let h = 1 + (rand() % 9) as usize;
            let stride = w * bpp;
            let mut data: Vec<u8> = (0..stride * h).map(|_| rand() as u8).collect();
            // Half the cases get smooth content so every filter type
            // actually wins somewhere; half stay noisy.
            if case % 2 == 0 {
                for (i, b) in data.iter_mut().enumerate() {
                    *b = ((i / bpp) % 251) as u8;
                }
            }
            // A third of the cases get a ragged trailing row.
            if case % 3 == 0 && data.len() > 3 {
                data.truncate(data.len() - 1 - (rand() as usize % (stride.min(data.len() - 1))));
            }
            assert_eq!(
                apply(&data, bpp, stride),
                reference_apply(&data, bpp, stride),
                "case={case} bpp={bpp} stride={stride} len={}",
                data.len()
            );
        }
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
    fn paeth_predictor_reference_cases() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 20, 10), 20); // p = 20 -> picks b.
        assert_eq!(paeth(20, 10, 10), 20); // p = 20 -> picks a.
        assert_eq!(paeth(100, 100, 100), 100);
    }
}
