//! Degenerate-geometry sweep for the four rewritten kernels.
//!
//! The equivalence suite (`equivalence.rs`) covers random geometry in
//! a comfortable range; this file drives the edges where the fast
//! paths change shape — odd dimensions and their chroma tails,
//! zero-area rectangles, one-pixel strips, and extreme aspect-ratio
//! resampling — and checks byte-exactness against the references at
//! each one.

use proptest::prelude::*;
use thinc_raster::scale::fant_spans;
use thinc_raster::yuv::YuvFormat;
use thinc_raster::{reference, Color, Framebuffer, PixelFormat, Rect, ScaleFilter, YuvFrame};

const FORMATS: [PixelFormat; 4] = [
    PixelFormat::Indexed8,
    PixelFormat::Rgb565,
    PixelFormat::Rgb888,
    PixelFormat::Rgba8888,
];

/// A framebuffer filled with deterministic pseudo-random bytes.
fn noise_fb(w: u32, h: u32, format: PixelFormat, seed: u64) -> Framebuffer {
    let mut fb = Framebuffer::new(w, h, format);
    let len = w as usize * h as usize * format.bytes_per_pixel();
    let mut x = seed | 1;
    let bytes: Vec<u8> = (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect();
    fb.put_raw(&Rect::new(0, 0, w, h), &bytes);
    fb
}

/// YV12's round-up chroma geometry at odd dimensions: 1×1, odd×odd,
/// odd×even, and even×odd frames must all match the reference, which
/// averages only the pixels that exist in each 2×2 block.
#[test]
fn yuv_pack_odd_dimension_regressions() {
    for (w, h) in [(1, 1), (3, 3), (3, 4), (4, 3), (1, 4), (4, 1), (5, 5), (7, 2), (2, 7)] {
        for yfmt in [YuvFormat::Yv12, YuvFormat::Yuy2] {
            for (i, fmt) in FORMATS.iter().enumerate() {
                let src = noise_fb(w, h, *fmt, 0x51ED + (w * 31 + h) as u64 + i as u64);
                let r = Rect::new(0, 0, w, h);
                let fast = YuvFrame::from_rgb(&src, &r, yfmt);
                let naive = reference::yuv_from_rgb(&src, &r, yfmt);
                assert_eq!(
                    fast.data, naive.data,
                    "{yfmt:?} {w}x{h} {fmt:?} diverged from reference"
                );
            }
        }
    }
}

/// Zero-area packs must produce a zero-length (well, header-only)
/// frame and not touch the source at all.
#[test]
fn yuv_pack_zero_area_is_empty() {
    let src = noise_fb(8, 8, PixelFormat::Rgb888, 7);
    for r in [Rect::new(0, 0, 0, 5), Rect::new(0, 0, 5, 0), Rect::new(20, 20, 4, 4)] {
        let frame = YuvFrame::from_rgb(&src, &r, YuvFormat::Yv12);
        assert_eq!(frame.data, reference::yuv_from_rgb(&src, &r, YuvFormat::Yv12).data);
    }
}

/// Extreme aspect ratios through the Fant resampler: single-row and
/// single-column sources and destinations, including the paper's
/// 1365→1024 non-integer ratio, stay byte-exact.
#[test]
fn scale_fant_extreme_ratios() {
    let cases: [(u32, u32, u32, u32); 8] = [
        (1365, 1, 1024, 1),
        (1, 1365, 1, 1024),
        (2048, 1, 1, 1),
        (1, 1, 64, 64),
        (2, 2, 2048, 1),
        (2048, 2, 2, 2048),
        (640, 1, 7, 3),
        (3, 999, 999, 3),
    ];
    for (sw, sh, dw, dh) in cases {
        let src = noise_fb(sw, sh, PixelFormat::Rgb888, (sw * 7 + sh) as u64);
        let fast = thinc_raster::scale_image(&src, dw, dh, ScaleFilter::Fant);
        let naive = reference::scale_fant(&src, dw, dh);
        assert_eq!(
            fast.data(),
            naive.data(),
            "fant {sw}x{sh} -> {dw}x{dh} diverged from reference"
        );
    }
}

/// Zero-area destinations and sources produce empty buffers without
/// panicking, for both scale filters.
#[test]
fn scale_zero_area_edges() {
    let src = noise_fb(5, 5, PixelFormat::Rgba8888, 3);
    for (dw, dh) in [(0, 5), (5, 0), (0, 0)] {
        for filter in [ScaleFilter::Nearest, ScaleFilter::Fant] {
            let out = thinc_raster::scale_image(&src, dw, dh, filter);
            assert_eq!(out.width(), dw);
            assert_eq!(out.height(), dh);
            assert!(out.data().is_empty());
        }
    }
}

/// One-pixel strips through bitmap_rect (both the run path and, at
/// width ≥ 16 with a background, the byte-table path) match the
/// reference, as do zero-area rects.
#[test]
fn bitmap_rect_strips_and_zero_area() {
    let fg = Color::rgb(250, 10, 30);
    let cases: [(Rect, Option<Color>); 8] = [
        (Rect::new(0, 0, 48, 1), Some(Color::rgb(5, 6, 7))),
        (Rect::new(0, 0, 48, 1), None),
        (Rect::new(3, 2, 1, 40), Some(Color::rgb(9, 9, 9))),
        (Rect::new(-5, 0, 48, 1), Some(Color::BLACK)),
        (Rect::new(0, 0, 0, 8), Some(Color::BLACK)),
        (Rect::new(0, 0, 8, 0), None),
        (Rect::new(40, 40, 30, 30), Some(Color::WHITE)),
        (Rect::new(0, 0, 17, 2), Some(Color::rgb(1, 2, 3))),
    ];
    for (i, (r, bg)) in cases.iter().enumerate() {
        let row_bytes = (r.w as usize).div_ceil(8);
        let mut x = 0x9E3779B97F4A7C15u64 | 1;
        let bits: Vec<u8> = (0..row_bytes * r.h as usize)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        for fmt in FORMATS {
            let mut fast = noise_fb(48, 48, fmt, i as u64 + 1);
            let mut naive = fast.clone();
            fast.bitmap_rect(r, &bits, fg, *bg);
            reference::bitmap_rect(&mut naive, r, &bits, fg, *bg);
            assert_eq!(fast.data(), naive.data(), "case {i} {fmt:?} diverged");
        }
    }
}

/// Format conversion on degenerate buffers: 1×1, single-row, and
/// single-column images across every ordered format pair.
#[test]
fn convert_degenerate_buffers() {
    for (w, h) in [(1, 1), (64, 1), (1, 64), (2, 3)] {
        for from in FORMATS {
            for to in FORMATS {
                let src = noise_fb(w, h, from, (w + h) as u64);
                let fast = src.convert(to);
                let naive = reference::convert(&src, to);
                assert_eq!(
                    fast.data(),
                    naive.data(),
                    "convert {from:?}->{to:?} {w}x{h} diverged"
                );
            }
        }
    }
}

proptest! {
    /// Randomized span coverage: for any axis map n→m, every source
    /// pixel's weight is fully distributed (column sums equal m),
    /// every output's weights sum to n, and no zero weights appear —
    /// the invariant that fixes the right/bottom-edge coverage bug at
    /// non-integer ratios.
    #[test]
    fn fant_spans_distribute_all_weight(n in 1usize..3000, m in 1usize..3000) {
        let spans = fant_spans(n, m);
        prop_assert_eq!(spans.len(), m);
        let mut per_source = vec![0u64; n];
        for sp in &spans {
            let mut total = 0u64;
            for (k, &w) in sp.weights.iter().enumerate() {
                prop_assert!(w > 0, "zero weight in span");
                per_source[sp.first + k] += w;
                total += w;
            }
            prop_assert_eq!(total, n as u64, "output span does not sum to n");
        }
        for (s, &t) in per_source.iter().enumerate() {
            prop_assert_eq!(t, m as u64, "source {} weight not fully distributed", s);
        }
    }

    /// Strip-shaped proptest sweep: 1-pixel-tall and 1-pixel-wide
    /// sources through the Fant path at random destination sizes.
    #[test]
    fn scale_fant_strips_match_reference(len in 1u32..200, dlen in 1u32..200,
                                         vertical in any::<bool>(), seed in any::<u64>()) {
        let (sw, sh, dw, dh) = if vertical { (1, len, 1, dlen) } else { (len, 1, dlen, 1) };
        let src = noise_fb(sw, sh, PixelFormat::Rgba8888, seed);
        let fast = thinc_raster::scale_image(&src, dw, dh, ScaleFilter::Fant);
        let naive = reference::scale_fant(&src, dw, dh);
        prop_assert_eq!(fast.data(), naive.data());
    }
}
