//! Byte-exact equivalence of the optimized raster kernels against the
//! retained naive references in `thinc_raster::reference`.
//!
//! Every fast-path kernel (fill, tile, stipple, copy, convert, YUV
//! pack/unpack, nearest and Fant scaling) must produce *identical
//! bytes* to its pixel-at-a-time reference on random geometry, random
//! content, and every pixel format — this is what licenses the perf
//! rewrite to claim "same output, faster".

use proptest::prelude::*;
use thinc_raster::yuv::YuvFormat;
use thinc_raster::{reference, Color, Framebuffer, PixelFormat, Rect, ScaleFilter, YuvFrame};

const FORMATS: [PixelFormat; 4] = [
    PixelFormat::Indexed8,
    PixelFormat::Rgb565,
    PixelFormat::Rgb888,
    PixelFormat::Rgba8888,
];

fn arb_format() -> impl Strategy<Value = PixelFormat> {
    (0usize..4).prop_map(|i| FORMATS[i])
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (-20..60i32, -20..60i32, 0u32..40, 0u32..40).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

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

proptest! {
    #[test]
    fn fill_rect_matches_reference(r in arb_rect(), fmt in arb_format(),
                                   c in any::<(u8, u8, u8, u8)>(), seed in any::<u64>()) {
        let color = Color::rgba(c.0, c.1, c.2, c.3);
        let mut fast = noise_fb(48, 48, fmt, seed);
        let mut naive = fast.clone();
        fast.fill_rect(&r, color);
        reference::fill_rect(&mut naive, &r, color);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn tile_rect_matches_reference(r in arb_rect(), fmt in arb_format(),
                                   tw in 1u32..9, th in 1u32..9, seed in any::<u64>()) {
        let tile = noise_fb(tw, th, fmt, seed ^ 0xABCD);
        let mut fast = noise_fb(48, 48, fmt, seed);
        let mut naive = fast.clone();
        fast.tile_rect(&r, &tile);
        reference::tile_rect(&mut naive, &r, &tile);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn bitmap_rect_matches_reference(r in arb_rect(), fmt in arb_format(),
                                     fg in any::<(u8, u8, u8)>(),
                                     bg in any::<(bool, u8, u8, u8)>(),
                                     seed in any::<u64>()) {
        let fg = Color::rgb(fg.0, fg.1, fg.2);
        let bg = bg.0.then(|| Color::rgb(bg.1, bg.2, bg.3));
        let row_bytes = (r.w as usize).div_ceil(8);
        let mut x = seed | 1;
        let bits: Vec<u8> = (0..row_bytes * r.h as usize)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let mut fast = noise_fb(48, 48, fmt, seed);
        let mut naive = fast.clone();
        fast.bitmap_rect(&r, &bits, fg, bg);
        reference::bitmap_rect(&mut naive, &r, &bits, fg, bg);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn copy_rect_matches_reference(src in arb_rect(), fmt in arb_format(),
                                   dx in -30..30i32, dy in -30..30i32, seed in any::<u64>()) {
        let mut fast = noise_fb(48, 48, fmt, seed);
        let mut naive = fast.clone();
        fast.copy_rect(&src, src.x + dx, src.y + dy);
        reference::copy_rect(&mut naive, &src, src.x + dx, src.y + dy);
        prop_assert_eq!(fast.data(), naive.data());
    }

    /// Drawable to drawable against a pixel-at-a-time copy of every
    /// source pixel that exists to every landing point that exists: any
    /// source rectangle, any landing point, and widths that make the
    /// rows moved whole rows of both framebuffers (the one-copy case),
    /// of one, of neither.
    #[test]
    fn copy_from_matches_pixel_by_pixel(r in arb_rect(), fmt in arb_format(),
                                        sw in 1u32..50, dw in 1u32..50,
                                        dst in (-20..60i32, -20..60i32),
                                        same_width in any::<bool>(),
                                        whole_rows in any::<bool>(), seed in any::<u64>()) {
        let src = noise_fb(sw, 37, fmt, seed);
        let mut fast = noise_fb(if same_width { sw } else { dw }, 41, fmt, seed ^ 0x5EED);
        let (r, dst) = if whole_rows { (Rect::new(0, r.y, sw, r.h), (0, dst.1)) } else { (r, dst) };
        let bpp = fmt.bytes_per_pixel();
        let at = |fb: &Framebuffer, x: i32, y: i32| {
            fb.bounds().contains(&Rect::new(x, y, 1, 1)).then(|| (y as usize * fb.width() as usize + x as usize) * bpp)
        };
        let mut want = fast.data().to_vec();
        for (x, y) in (0..r.h as i32).flat_map(|y| (0..r.w as i32).map(move |x| (x, y))) {
            if let (Some(s), Some(t)) = (at(&src, r.x + x, r.y + y), at(&fast, dst.0 + x, dst.1 + y)) {
                want[t..t + bpp].copy_from_slice(&src.data()[s..s + bpp]);
            }
        }
        fast.copy_from(&src, &r, dst.0, dst.1);
        prop_assert_eq!(fast.data(), &want[..]);
    }

    #[test]
    fn convert_matches_reference(from in arb_format(), to in arb_format(),
                                 w in 1u32..24, h in 1u32..24, seed in any::<u64>()) {
        let src = noise_fb(w, h, from, seed);
        let fast = src.convert(to);
        let naive = reference::convert(&src, to);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn yuv_pack_matches_reference(r in arb_rect(), fmt in arb_format(),
                                  planar in any::<bool>(), seed in any::<u64>()) {
        let yfmt = if planar { YuvFormat::Yv12 } else { YuvFormat::Yuy2 };
        let src = noise_fb(48, 48, fmt, seed);
        let fast = YuvFrame::from_rgb(&src, &r, yfmt);
        let naive = reference::yuv_from_rgb(&src, &r, yfmt);
        prop_assert_eq!(fast.data, naive.data);
    }

    #[test]
    fn yuv_unpack_scaled_matches_reference(sw in 1u32..24, sh in 1u32..24,
                                           dw in 0u32..32, dh in 0u32..32,
                                           fmt in arb_format(),
                                           planar in any::<bool>(), seed in any::<u64>()) {
        let yfmt = if planar { YuvFormat::Yv12 } else { YuvFormat::Yuy2 };
        let rgb = noise_fb(sw, sh, PixelFormat::Rgb888, seed);
        let frame = YuvFrame::from_rgb(&rgb, &Rect::new(0, 0, sw, sh), yfmt);
        let fast = frame.to_rgb_scaled(dw, dh, fmt);
        let naive = reference::yuv_to_rgb_scaled(&frame, dw, dh, fmt);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn scale_nearest_matches_reference(sw in 1u32..24, sh in 1u32..24,
                                       dw in 1u32..32, dh in 1u32..32,
                                       fmt in arb_format(), seed in any::<u64>()) {
        let src = noise_fb(sw, sh, fmt, seed);
        let fast = thinc_raster::scale_image(&src, dw, dh, ScaleFilter::Nearest);
        let naive = reference::scale_nearest(&src, dw, dh);
        prop_assert_eq!(fast.data(), naive.data());
    }

    #[test]
    fn scale_fant_matches_reference(sw in 1u32..20, sh in 1u32..20,
                                    dw in 1u32..24, dh in 1u32..24,
                                    fmt in arb_format(), seed in any::<u64>()) {
        let src = noise_fb(sw, sh, fmt, seed);
        let fast = thinc_raster::scale_image(&src, dw, dh, ScaleFilter::Fant);
        let naive = reference::scale_fant(&src, dw, dh);
        prop_assert_eq!(fast.data(), naive.data());
    }
}

proptest! {
    // Two layouts × four formats × odd sizes × either scaling direction
    // × every way of missing the framebuffer: more cases than the default.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The blit against the path it replaced, kept as the reference:
    /// convert the whole of `dst` pixel by pixel into a framebuffer of
    /// its own, `get_raw` it out and `put_raw` it in (which clips).
    /// `dst` may be scaled either way, hang off any edge, sit at a
    /// negative origin or miss the framebuffer altogether; pixels
    /// outside it must come through untouched.
    #[test]
    fn yuv_blit_matches_reference(sw in 1u32..24, sh in 1u32..24,
                                  dst in (-40..40i32, -40..40i32, 0u32..64, 0u32..64),
                                  native in any::<bool>(),
                                  fmt in arb_format(),
                                  planar in any::<bool>(), seed in any::<u64>()) {
        let yfmt = if planar { YuvFormat::Yv12 } else { YuvFormat::Yuy2 };
        let rgb = noise_fb(sw, sh, PixelFormat::Rgb888, seed);
        let frame = YuvFrame::from_rgb(&rgb, &Rect::new(0, 0, sw, sh), yfmt);
        let dst = if native {
            Rect::new(dst.0, dst.1, sw, sh)
        } else {
            Rect::new(dst.0, dst.1, dst.2, dst.3)
        };
        let mut fast = noise_fb(32, 24, fmt, seed ^ 0x5EED);
        let mut naive = fast.clone();
        thinc_raster::yuv::blit(yfmt, sw, sh, &frame.data, &mut fast, &dst);
        let converted = reference::yuv_to_rgb_scaled(&frame, dst.w, dst.h, fmt);
        let (clip, raw) = converted.get_raw(&Rect::new(0, 0, dst.w, dst.h));
        if !clip.is_empty() {
            naive.put_raw(&Rect::new(dst.x, dst.y, clip.w, clip.h), &raw);
        }
        prop_assert_eq!(fast.data(), naive.data());
    }
}
