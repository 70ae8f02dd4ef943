//! Image resampling, including a simplified Fant resampler.
//!
//! THINC's server-side screen scaling (§6, §7) uses "a simplified
//! version of Fant's resampling algorithm, which produces high quality,
//! anti-aliased results with very low overhead". Fant's algorithm
//! (IEEE CG&A 1986) is a separable, area-weighted streaming resampler;
//! the simplified form implemented here computes, for each destination
//! pixel, the exact coverage-weighted average of the source pixels its
//! footprint spans — first horizontally, then vertically. For integer
//! upscaling it degenerates to pixel replication with interpolation at
//! fractional boundaries; for downscaling it is a proper box filter, so
//! no source pixel is dropped (the property that makes the paper's PDA
//! screenshots readable where client-side nearest-neighbour is not).
//!
//! ## Fixed-point rounding contract
//!
//! The Fant kernel is pure integer arithmetic. For an `n → m` axis map,
//! output sample `i` covers the half-open source interval
//! `[i·n/m, (i+1)·n/m)`; all coverage weights are held in units of
//! `1/m` source samples, so every weight is an exact integer: output
//! `i` overlaps source `s` by `min((i+1)·n, (s+1)·m) − max(i·n, s·m)`
//! when that difference is positive. Each output's weights sum to
//! exactly `n`, and each source sample's weight across all outputs
//! sums to exactly `m` — full coverage with no dropped or
//! double-counted tail columns, by construction (see [`fant_spans`]
//! and the coverage proptests in `tests/degenerate.rs`).
//!
//! A destination pixel's value is the exact rational `num / den` with
//! `den = sw·sh` and `num = Σ_y w_y · Σ_x w_x · p(x,y)`, quantized
//! **round half up**: `q = ⌊(num + ⌊den/2⌋) / den⌋`. Integer addition
//! is associative, so any loop order, chunking, or vectorization of
//! the sums produces identical bytes — the hazard that motivated
//! retiring the old `f32`/`f64` kernel, where FP contraction and
//! reassociation could legally change results across targets and opt
//! levels once the loops vectorized.
//!
//! Documented range invariant (asserted at the kernel entry): source
//! dimensions satisfy `sw ≤ 2^24` and `sw·sh ≤ 2^48`, which keeps
//! horizontal numerators in `u32` (≤ 255·sw), vertical numerators in
//! `u64` (≤ 255·sw·sh), and the reciprocal quantizer exact.

use crate::framebuffer::Framebuffer;
use crate::geometry::Rect;
use crate::pixel::{Color, PixelFormat};

/// Resampling filters available to the scaling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleFilter {
    /// Nearest-neighbour point sampling — the cheap client-side scaler
    /// used by comparator systems (fast, aliased).
    Nearest,
    /// Simplified Fant area resampling — anti-aliased server-side
    /// scaling as in the THINC prototype.
    Fant,
}

/// Largest supported Fant source width (keeps `255·sw` in `u32`).
pub const MAX_FANT_SRC_DIM: usize = 1 << 24;
/// Largest supported Fant source area (keeps `255·sw·sh` in `u64` and
/// the reciprocal quantizer exact).
pub const MAX_FANT_SRC_AREA: u64 = 1 << 48;

/// Scales `src` to `dst_w`×`dst_h` using `filter`.
///
/// Returns an empty framebuffer when either destination dimension is 0.
pub fn scale_image(src: &Framebuffer, dst_w: u32, dst_h: u32, filter: ScaleFilter) -> Framebuffer {
    let mut dst = Framebuffer::new(dst_w, dst_h, src.format());
    if dst_w == 0 || dst_h == 0 || src.width() == 0 || src.height() == 0 {
        return dst;
    }
    match filter {
        ScaleFilter::Nearest => scale_nearest(src, &mut dst),
        ScaleFilter::Fant => scale_fant(src, &mut dst),
    }
    dst
}

/// Scales the sub-rectangle `r` of `src` and returns it as its own
/// buffer of `dst_w`×`dst_h` pixels.
///
/// Clipping semantics (documented invariant): `r` is first intersected
/// with the source bounds, and it is the **clipped** region that is
/// resampled to the full `dst_w`×`dst_h` output — the destination size
/// is never shrunk to match the clip. A region fully outside the
/// source therefore yields a `dst_w`×`dst_h` buffer of zero bytes
/// (the format's "black"), not an empty buffer. Callers that want
/// proportional output must clip before choosing the destination size.
pub fn scale_region(
    src: &Framebuffer,
    r: &Rect,
    dst_w: u32,
    dst_h: u32,
    filter: ScaleFilter,
) -> Framebuffer {
    let clip = r.intersection(&src.bounds());
    let mut cut = Framebuffer::new(clip.w, clip.h, src.format());
    cut.copy_from(src, &clip, 0, 0);
    scale_image(&cut, dst_w, dst_h, filter)
}

fn scale_nearest(src: &Framebuffer, dst: &mut Framebuffer) {
    let (sw, sh) = (src.width() as u64, src.height() as u64);
    let (dw, dh) = (dst.width() as u64, dst.height() as u64);
    let bpp = src.format().bytes_per_pixel();
    let s_stride = src.stride();
    let d_stride = dst.stride();
    // The horizontal source map is identical for every row: compute the
    // source byte offsets once, then blit pixel bytes row by row.
    let sx_off: Vec<usize> = (0..dw).map(|dx| (dx * sw / dw) as usize * bpp).collect();
    let dst_h = dst.height() as usize;
    let dst_data = dst.data_mut();
    for dy in 0..dst_h {
        let sy = (dy as u64 * sh / dh) as usize;
        let srow = &src.data()[sy * s_stride..(sy + 1) * s_stride];
        let drow = &mut dst_data[dy * d_stride..(dy + 1) * d_stride];
        for (d, &s_off) in drow.chunks_exact_mut(bpp).zip(sx_off.iter()) {
            d.copy_from_slice(&srow[s_off..s_off + bpp]);
        }
    }
}

/// Integer coverage span of one output sample, in units of `1/m`
/// source samples: `weights[k]` is the overlap between output `i` and
/// source `first + k`.
///
/// Exported for the coverage proptests: for `fant_spans(n, m)`, every
/// span's weights sum to exactly `n`, every weight is positive, and
/// each source index's total weight across all spans is exactly `m`.
#[derive(Debug, Clone)]
pub struct FantSpan {
    /// First contributing source sample index.
    pub first: usize,
    /// Overlap weights for `first..first + weights.len()`.
    pub weights: Vec<u64>,
}

/// Computes the exact integer coverage spans mapping `n` source
/// samples to `m` output samples (see the module-level rounding
/// contract). Returns an empty vector when either count is zero.
pub fn fant_spans(n: usize, m: usize) -> Vec<FantSpan> {
    if n == 0 || m == 0 {
        return Vec::new();
    }
    let flat = FlatSpans::compute(n, m);
    let mut out = Vec::with_capacity(m);
    let mut wi = 0usize;
    for i in 0..m {
        let len = flat.lens[i] as usize;
        out.push(FantSpan {
            first: flat.firsts[i] as usize,
            weights: flat.weights[wi..wi + len].iter().map(|&w| w as u64).collect(),
        });
        wi += len;
    }
    out
}

/// Shape of an axis map, used to pick branch-free fast paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    /// `n == m`: every output is one source with weight `n`.
    Identity,
    /// `n == k·m`: exact box downscale, `k` sources per output, all
    /// weights `m`.
    IntDown(usize),
    /// `m == k·n`: exact replication upscale, one source per output
    /// with weight `n`.
    IntUp(usize),
    /// Anything else: per-output variable-length weighted spans.
    General,
}

/// Flattened integer spans for one axis (`n` sources → `m` outputs).
struct FlatSpans {
    n: usize,
    m: usize,
    kind: SpanKind,
    firsts: Vec<u32>,
    lens: Vec<u32>,
    weights: Vec<u32>,
}

impl FlatSpans {
    fn compute(n: usize, m: usize) -> FlatSpans {
        debug_assert!(n > 0 && m > 0);
        let nn = n as u64;
        let mm = m as u64;
        let mut firsts = Vec::with_capacity(m);
        let mut lens = Vec::with_capacity(m);
        let mut weights = Vec::with_capacity(m + n);
        for i in 0..m as u64 {
            let lo = i * nn;
            let hi = lo + nn;
            let first = lo / mm;
            let last = hi.div_ceil(mm);
            firsts.push(first as u32);
            lens.push((last - first) as u32);
            for s in first..last {
                let s_lo = s * mm;
                let s_hi = s_lo + mm;
                // Both ends are strictly inside the window, so the
                // overlap is always positive (no zero weights).
                weights.push((hi.min(s_hi) - lo.max(s_lo)) as u32);
            }
        }
        let kind = if n == m {
            SpanKind::Identity
        } else if n.is_multiple_of(m) {
            SpanKind::IntDown(n / m)
        } else if m.is_multiple_of(n) {
            SpanKind::IntUp(m / n)
        } else {
            SpanKind::General
        };
        FlatSpans {
            n,
            m,
            kind,
            firsts,
            lens,
            weights,
        }
    }
}

/// Separable fixed-point area-weighted resampling (simplified Fant).
///
/// Planar: each channel is resampled as a flat `u32`/`u64` lane so the
/// inner loops are branch-free multiply-accumulates the compiler can
/// vectorize. Byte-exact with [`crate::reference::scale_fant`] under
/// the module-level rounding contract.
fn scale_fant(src: &Framebuffer, dst: &mut Framebuffer) {
    let sw = src.width() as usize;
    let sh = src.height() as usize;
    let dw = dst.width() as usize;
    let dh = dst.height() as usize;
    assert!(
        sw <= MAX_FANT_SRC_DIM && (sw as u64) * (sh as u64) <= MAX_FANT_SRC_AREA,
        "fant source {sw}x{sh} exceeds the fixed-point range invariant"
    );
    let fmt = src.format();
    let bpp = fmt.bytes_per_pixel();
    // Alpha-free formats decode to a constant a=255, which resamples to
    // exactly 255 (num = 255·den); skip the plane and write the
    // constant at encode time.
    let channels = if fmt == PixelFormat::Rgba8888 { 4 } else { 3 };
    let h_spans = FlatSpans::compute(sw, dw);
    let v_spans = FlatSpans::compute(sh, dh);

    // Horizontal pass: per-channel planes of u32 numerators (each is
    // Σ w·p over the span, so ≤ 255·sw — in range by the invariant).
    let plane_len = sh * dw;
    let mut mid = vec![0u32; channels * plane_len];
    let mut row = vec![0u32; channels * sw];
    let s_stride = src.stride();
    let sdata = src.data();
    for y in 0..sh {
        decode_row_planes(fmt, &sdata[y * s_stride..][..sw * bpp], &mut row, sw);
        for c in 0..channels {
            resample_row(
                &row[c * sw..][..sw],
                &mut mid[c * plane_len + y * dw..][..dw],
                &h_spans,
            );
        }
    }

    // Vertical pass, row-major: accumulate each output row across its
    // contributing mid rows (u64 numerators ≤ 255·sw·sh), quantize,
    // encode. Output-row-major keeps every inner loop a contiguous
    // axpy over `dw` lanes instead of a strided per-column gather.
    let den = (sw as u64) * (sh as u64);
    let div = FixedDiv::new(den);
    let d_stride = dst.stride();
    let dst_data = dst.data_mut();
    let mut acc = vec![0u64; channels * dw];
    let mut wi = 0usize;
    for i in 0..dh {
        let first = v_spans.firsts[i] as usize;
        let len = v_spans.lens[i] as usize;
        let ws = &v_spans.weights[wi..wi + len];
        wi += len;
        for c in 0..channels {
            accum_rows(
                &mut acc[c * dw..][..dw],
                &mid[c * plane_len..][..plane_len],
                dw,
                first,
                ws,
            );
        }
        encode_row(fmt, &mut dst_data[i * d_stride..][..dw * bpp], &acc, dw, &div);
    }
}

/// Decodes one packed pixel row into per-channel `u32` planes
/// (`planes[c·sw + x]`). Alpha is only materialized for `Rgba8888`.
fn decode_row_planes(fmt: PixelFormat, srow: &[u8], planes: &mut [u32], sw: usize) {
    match fmt {
        PixelFormat::Rgb888 => {
            let (px, _) = srow.as_chunks::<3>();
            let (r, rest) = planes.split_at_mut(sw);
            let (g, b) = rest.split_at_mut(sw);
            for (j, p) in px.iter().enumerate().take(sw) {
                r[j] = p[0] as u32;
                g[j] = p[1] as u32;
                b[j] = p[2] as u32;
            }
        }
        PixelFormat::Rgba8888 => {
            let (px, _) = srow.as_chunks::<4>();
            let (r, rest) = planes.split_at_mut(sw);
            let (g, rest) = rest.split_at_mut(sw);
            let (b, a) = rest.split_at_mut(sw);
            for (j, p) in px.iter().enumerate().take(sw) {
                r[j] = p[0] as u32;
                g[j] = p[1] as u32;
                b[j] = p[2] as u32;
                a[j] = p[3] as u32;
            }
        }
        _ => {
            let bpp = fmt.bytes_per_pixel();
            for (j, p) in srow.chunks_exact(bpp).enumerate().take(sw) {
                let c = fmt.decode(p);
                planes[j] = c.r as u32;
                planes[sw + j] = c.g as u32;
                planes[2 * sw + j] = c.b as u32;
            }
        }
    }
}

/// Horizontal resample of one channel plane row: `out[i] = Σ w·in[s]`
/// in units of `1/dw` (numerators, denominator `n`).
fn resample_row(input: &[u32], out: &mut [u32], sp: &FlatSpans) {
    let nw = sp.n as u32;
    let mw = sp.m as u32;
    match sp.kind {
        SpanKind::Identity => {
            for (o, &v) in out.iter_mut().zip(input) {
                *o = v * nw;
            }
        }
        SpanKind::IntDown(2) => {
            let (pairs, _) = input.as_chunks::<2>();
            for (o, p) in out.iter_mut().zip(pairs) {
                *o = (p[0] + p[1]) * mw;
            }
        }
        SpanKind::IntDown(k) => {
            for (o, chunk) in out.iter_mut().zip(input.chunks_exact(k)) {
                let mut a = 0u32;
                for &v in chunk {
                    a += v;
                }
                *o = a * mw;
            }
        }
        SpanKind::IntUp(k) => {
            for (os, &v) in out.chunks_exact_mut(k).zip(input) {
                os.fill(v * nw);
            }
        }
        SpanKind::General => {
            let mut wi = 0usize;
            for ((o, &first), &len) in out
                .iter_mut()
                .zip(&sp.firsts[..sp.m])
                .zip(&sp.lens[..sp.m])
            {
                let first = first as usize;
                let len = len as usize;
                let mut a = 0u32;
                for (&w, &v) in sp.weights[wi..wi + len].iter().zip(&input[first..first + len]) {
                    a += w * v;
                }
                *o = a;
                wi += len;
            }
        }
    }
}

/// Accumulates one vertical span over a mid plane into `acc`:
/// `acc[j] = Σ_t w_t · plane[(first+t)·dw + j]`.
fn accum_rows(acc: &mut [u64], plane: &[u32], dw: usize, first: usize, weights: &[u32]) {
    let (w0, rest) = weights.split_first().expect("span has no zero-length weights");
    row_mul(acc, &plane[first * dw..][..dw], *w0 as u64);
    for (t, &w) in rest.iter().enumerate() {
        row_mul_add(acc, &plane[(first + 1 + t) * dw..][..dw], w as u64);
    }
}

#[inline]
fn row_mul(acc: &mut [u64], row: &[u32], w: u64) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a = w * v as u64;
    }
}

#[inline]
fn row_mul_add(acc: &mut [u64], row: &[u32], w: u64) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += w * v as u64;
    }
}

/// Quantizes an accumulator row into one packed destination row.
fn encode_row(fmt: PixelFormat, drow: &mut [u8], acc: &[u64], dw: usize, div: &FixedDiv) {
    match fmt {
        PixelFormat::Rgb888 => {
            let (px, _) = drow.as_chunks_mut::<3>();
            for (j, p) in px.iter_mut().enumerate().take(dw) {
                *p = [div.q(acc[j]), div.q(acc[dw + j]), div.q(acc[2 * dw + j])];
            }
        }
        PixelFormat::Rgba8888 => {
            let (px, _) = drow.as_chunks_mut::<4>();
            for (j, p) in px.iter_mut().enumerate().take(dw) {
                *p = [
                    div.q(acc[j]),
                    div.q(acc[dw + j]),
                    div.q(acc[2 * dw + j]),
                    div.q(acc[3 * dw + j]),
                ];
            }
        }
        _ => {
            let bpp = fmt.bytes_per_pixel();
            for (j, p) in drow.chunks_exact_mut(bpp).enumerate().take(dw) {
                let c = Color::rgba(
                    div.q(acc[j]),
                    div.q(acc[dw + j]),
                    div.q(acc[2 * dw + j]),
                    255,
                );
                fmt.encode(c, p);
            }
        }
    }
}

/// Exact round-half-up divider by a fixed denominator, via reciprocal
/// multiplication: `q(num) == (num + den/2) / den` for every
/// `num ≤ 255·den`, provided `den ≤ 2^55`.
///
/// With `M = ⌊2^S/den⌋ + 1` the product adds an error term
/// `e ≤ x/2^S` to `x/den` (`x = num + den/2`), and `⌊x/den + e⌋`
/// equals `⌊x/den⌋` whenever `e < 1/den`, i.e. whenever
/// `x·den < 2^S`; `x < 256·den` and `den ≤ 2^55` give
/// `x·den < 2^118 < 2^S`. `x·M < 256·(2^S + den) < 2^128`, so the
/// `u128` product cannot overflow. Exhaustively spot-checked against
/// direct division in the unit tests below.
struct FixedDiv {
    den: u64,
    half: u64,
    m: u128,
}

const FIXED_DIV_SHIFT: u32 = 119;

impl FixedDiv {
    fn new(den: u64) -> FixedDiv {
        debug_assert!(den > 0 && den <= 1 << 55);
        FixedDiv {
            den,
            half: den / 2,
            m: ((1u128 << FIXED_DIV_SHIFT) / den as u128) + 1,
        }
    }

    #[inline]
    fn q(&self, num: u64) -> u8 {
        debug_assert!(num <= 255 * self.den);
        (((num + self.half) as u128 * self.m) >> FIXED_DIV_SHIFT) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::PixelFormat;

    fn flat(w: u32, h: u32, c: Color) -> Framebuffer {
        let mut f = Framebuffer::new(w, h, PixelFormat::Rgb888);
        f.fill_rect(&Rect::new(0, 0, w, h), c);
        f
    }

    #[test]
    fn flat_image_stays_flat_under_both_filters() {
        let src = flat(10, 10, Color::rgb(40, 90, 160));
        for filter in [ScaleFilter::Nearest, ScaleFilter::Fant] {
            let out = scale_image(&src, 3, 7, filter);
            for y in 0..7 {
                for x in 0..3 {
                    assert_eq!(out.get_pixel(x, y), Some(Color::rgb(40, 90, 160)));
                }
            }
        }
    }

    #[test]
    fn identity_scale_is_exact() {
        let mut src = Framebuffer::new(5, 5, PixelFormat::Rgb888);
        for y in 0..5 {
            for x in 0..5 {
                src.set_pixel(x, y, Color::rgb((x * 50) as u8, (y * 50) as u8, 7));
            }
        }
        let out = scale_image(&src, 5, 5, ScaleFilter::Fant);
        assert_eq!(out, src);
        let out2 = scale_image(&src, 5, 5, ScaleFilter::Nearest);
        assert_eq!(out2, src);
    }

    #[test]
    fn fant_downscale_averages_no_pixel_dropped() {
        // Half black, half white columns; 8 -> 2: both outputs are the
        // average of their own half, i.e. pure black and pure white.
        let mut src = Framebuffer::new(8, 1, PixelFormat::Rgb888);
        src.fill_rect(&Rect::new(4, 0, 4, 1), Color::WHITE);
        let out = scale_image(&src, 2, 1, ScaleFilter::Fant);
        assert_eq!(out.get_pixel(0, 0), Some(Color::BLACK));
        assert_eq!(out.get_pixel(1, 0), Some(Color::WHITE));
        // 8 -> 1: true global average, exactly 128 under round-half-up
        // ((4·255 + 4)/8 = 128).
        let one = scale_image(&src, 1, 1, ScaleFilter::Fant);
        assert_eq!(one.get_pixel(0, 0), Some(Color::rgb(128, 128, 128)));
    }

    #[test]
    fn fant_antialiases_thin_features_nearest_drops_them() {
        // A single white column among 7 black ones, downscaled 8 -> 2.
        let mut src = Framebuffer::new(8, 1, PixelFormat::Rgb888);
        src.fill_rect(&Rect::new(3, 0, 1, 1), Color::WHITE);
        let fant = scale_image(&src, 2, 1, ScaleFilter::Fant);
        // Fant keeps 1/4 of the white energy in the left output pixel.
        assert!(fant.get_pixel(0, 0).unwrap().r > 0);
        let nearest = scale_image(&src, 2, 1, ScaleFilter::Nearest);
        // Nearest samples source x=0 and x=4, both black: feature lost.
        assert_eq!(nearest.get_pixel(0, 0), Some(Color::BLACK));
        assert_eq!(nearest.get_pixel(1, 0), Some(Color::BLACK));
    }

    #[test]
    fn upscale_replicates_content() {
        let mut src = Framebuffer::new(2, 1, PixelFormat::Rgb888);
        src.set_pixel(1, 0, Color::WHITE);
        let out = scale_image(&src, 4, 1, ScaleFilter::Fant);
        assert_eq!(out.get_pixel(0, 0), Some(Color::BLACK));
        assert_eq!(out.get_pixel(3, 0), Some(Color::WHITE));
    }

    #[test]
    fn zero_sized_destination_is_empty() {
        let src = flat(4, 4, Color::WHITE);
        let out = scale_image(&src, 0, 3, ScaleFilter::Fant);
        assert_eq!(out.width(), 0);
        assert_eq!(out.data().len(), 0);
    }

    #[test]
    fn scale_region_extracts_and_scales() {
        let mut src = flat(8, 8, Color::BLACK);
        src.fill_rect(&Rect::new(4, 4, 4, 4), Color::WHITE);
        let out = scale_region(&src, &Rect::new(4, 4, 4, 4), 2, 2, ScaleFilter::Fant);
        assert_eq!(out.get_pixel(0, 0), Some(Color::WHITE));
        assert_eq!(out.get_pixel(1, 1), Some(Color::WHITE));
    }

    #[test]
    fn scale_region_clips_before_scaling() {
        // Region hangs off the right/bottom edge: only the in-bounds
        // part (white) is resampled, to the full requested output size.
        let mut src = flat(8, 8, Color::BLACK);
        src.fill_rect(&Rect::new(6, 6, 2, 2), Color::WHITE);
        let out = scale_region(&src, &Rect::new(6, 6, 4, 4), 3, 3, ScaleFilter::Fant);
        assert_eq!((out.width(), out.height()), (3, 3));
        for y in 0..3 {
            for x in 0..3 {
                assert_eq!(out.get_pixel(x, y), Some(Color::WHITE));
            }
        }
        // Fully out-of-bounds region: requested size, all zero bytes.
        let oob = scale_region(&src, &Rect::new(50, 50, 4, 4), 2, 2, ScaleFilter::Fant);
        assert_eq!((oob.width(), oob.height()), (2, 2));
        assert!(oob.data().iter().all(|&b| b == 0));
    }

    #[test]
    fn pda_ratio_downscale_shape() {
        // 1024x768 -> 320x240, the paper's PDA configuration.
        let src = flat(128, 96, Color::rgb(10, 20, 30));
        let out = scale_image(&src, 40, 30, ScaleFilter::Fant);
        assert_eq!((out.width(), out.height()), (40, 30));
        assert_eq!(out.get_pixel(20, 15), Some(Color::rgb(10, 20, 30)));
    }

    #[test]
    fn spans_cover_every_source_exactly() {
        for (n, m) in [(8, 2), (2, 4), (5, 5), (1365, 1024), (7, 3), (1, 9), (9, 1)] {
            let spans = fant_spans(n, m);
            assert_eq!(spans.len(), m);
            let mut per_source = vec![0u64; n];
            for sp in &spans {
                assert_eq!(sp.weights.iter().sum::<u64>(), n as u64, "{n}->{m}");
                for (k, &w) in sp.weights.iter().enumerate() {
                    assert!(w > 0, "zero weight at {n}->{m}");
                    per_source[sp.first + k] += w;
                }
            }
            assert!(per_source.iter().all(|&t| t == m as u64), "{n}->{m}");
        }
    }

    #[test]
    fn fixed_div_matches_direct_division() {
        let dens: &[u64] = &[
            1,
            2,
            3,
            7,
            255,
            256,
            640 * 480,
            1365 * 1024,
            (1 << 48) - 59,
            1 << 48,
            (1 << 55) - 1,
            1 << 55,
        ];
        for &den in dens {
            let div = FixedDiv::new(den);
            let check = |num: u64| {
                assert_eq!(div.q(num), ((num + den / 2) / den) as u8, "num={num} den={den}");
            };
            // Boundaries around every multiple-of-den tie point.
            for k in [0u64, 1, 2, 127, 254, 255] {
                let base = k * den;
                for delta in [0i64, 1, -1] {
                    let num = base.saturating_add_signed(delta);
                    if num <= 255 * den {
                        check(num);
                    }
                }
                if den / 2 > 0 && base + den / 2 <= 255 * den {
                    check(base + den / 2 - 1);
                    check(base + den / 2);
                }
            }
            // Deterministic pseudo-random sweep.
            let mut x = 0x9e3779b97f4a7c15u64 ^ den;
            for _ in 0..4000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                check(x % (255 * den + 1));
            }
        }
    }

    #[test]
    fn fant_rejects_out_of_range_sources() {
        // The range invariant is a hard assert, not silent corruption.
        let r = std::panic::catch_unwind(|| {
            let src = Framebuffer::new((MAX_FANT_SRC_DIM + 1) as u32, 1, PixelFormat::Rgb888);
            scale_image(&src, 4, 1, ScaleFilter::Fant)
        });
        assert!(r.is_err());
    }
}
