//! Porter–Duff alpha compositing.
//!
//! THINC commands carry a full alpha channel so that the protocol can
//! express graphics compositing operations (anti-aliased text and other
//! modern 2D desktop features, §3 of the paper). The server falls back
//! to these software implementations when the client lacks acceleration.

use crate::framebuffer::Framebuffer;
use crate::geometry::Rect;
use crate::pixel::Color;

/// The Porter–Duff binary compositing operators (Porter & Duff 1984).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompositeOp {
    /// Destination cleared to transparent.
    Clear,
    /// Source replaces destination.
    Src,
    /// Source over destination (the usual blending operator).
    Over,
    /// Source where destination is opaque.
    In,
    /// Source where destination is transparent.
    Out,
    /// Source atop destination.
    Atop,
    /// Exclusive regions of source and destination.
    Xor,
    /// Saturating addition of source and destination.
    Add,
}

impl CompositeOp {
    /// Composites source pixel `s` onto destination pixel `d`.
    ///
    /// Works in premultiplied space internally; inputs and outputs use
    /// straight alpha.
    ///
    /// # Rounding contract
    ///
    /// The premultiply step and the blend renormalization both divide
    /// by 255 with *truncation* (like the X Render fixed-point path),
    /// while `unpremultiply` rounds half-up. These choices are part
    /// of the wire format: composited pixels travel byte-for-byte in
    /// RAW updates, so changing either direction of rounding changes
    /// protocol bytes. The `apply_rounding_is_pinned` test pins the
    /// exact outputs. Two consequences worth knowing:
    ///
    /// * an opaque source is exact: `Over`/`Src` with `s.a == 255`
    ///   return `s` unchanged (factors are 255/0 and the divisions
    ///   cancel), so opaque blits lose nothing;
    /// * partial alpha may lose up to 1/255 per channel in the
    ///   premultiply→unpremultiply round-trip (see
    ///   `premultiply_round_trip_error_is_bounded`).
    pub fn apply(self, s: Color, d: Color) -> Color {
        let sp = premultiply(s);
        let dp = premultiply(d);
        let (fa, fb) = self.factors(sp.3, dp.3);
        let blend = |sc: u32, dc: u32| -> u32 {
            let v = sc * fa + dc * fb;
            // Factors are 0..=255 fixed point; renormalize.
            (v / 255).min(255)
        };
        let out = (
            blend(sp.0, dp.0),
            blend(sp.1, dp.1),
            blend(sp.2, dp.2),
            blend(sp.3, dp.3),
        );
        unpremultiply(out.0 as u8, out.1 as u8, out.2 as u8, out.3 as u8)
    }

    /// Per-operator blend factors `(Fa, Fb)` in 0..=255 fixed point,
    /// given source and destination alpha.
    fn factors(self, sa: u32, da: u32) -> (u32, u32) {
        match self {
            CompositeOp::Clear => (0, 0),
            CompositeOp::Src => (255, 0),
            CompositeOp::Over => (255, 255 - sa),
            CompositeOp::In => (da, 0),
            CompositeOp::Out => (255 - da, 0),
            CompositeOp::Atop => (da, 255 - sa),
            CompositeOp::Xor => (255 - da, 255 - sa),
            CompositeOp::Add => (255, 255),
        }
    }
}

fn premultiply(c: Color) -> (u32, u32, u32, u32) {
    let a = c.a as u32;
    (
        c.r as u32 * a / 255,
        c.g as u32 * a / 255,
        c.b as u32 * a / 255,
        a,
    )
}

fn unpremultiply(r: u8, g: u8, b: u8, a: u8) -> Color {
    if a == 0 {
        return Color::TRANSPARENT;
    }
    let un = |v: u8| -> u8 { ((v as u32 * 255 + a as u32 / 2) / a as u32).min(255) as u8 };
    Color::rgba(un(r), un(g), un(b), a)
}

/// Composites the rectangle `src_r` of `src` onto `dst` at
/// `(dst_x, dst_y)` using `op`, clipping to both buffers.
///
/// Clipping is resolved up front on both sides — `src_r` against the
/// source bounds, and the translated rectangle against the destination
/// bounds — so the row loop below touches only pixels that exist in
/// both buffers (the old per-pixel `Option` probing silently skipped
/// out-of-range pixels one at a time).
///
/// # Alpha on non-alpha destinations
///
/// Destination formats without an alpha channel
/// ([`PixelFormat::has_alpha`](crate::pixel::PixelFormat::has_alpha)
/// is false) decode as fully opaque and re-encode by dropping alpha.
/// Operators whose result alpha can be < 255 (`Clear`, `In`, `Out`,
/// `Xor`, and `Src`/`Atop` with translucent sources) therefore land as
/// their premultiplied color — e.g. `Clear` writes black, not
/// "transparent" — because [`Color::TRANSPARENT`] is `rgba(0,0,0,0)`
/// and the zero channels are what survives the encode. This mirrors
/// what a real 24-bit framebuffer does with composited output and is
/// pinned by `non_alpha_destination_flattens_to_black`.
pub fn composite_rect(
    dst: &mut Framebuffer,
    src: &Framebuffer,
    src_r: &Rect,
    dst_x: i32,
    dst_y: i32,
    op: CompositeOp,
) {
    let src_clip = src_r.intersection(&src.bounds());
    if src_clip.is_empty() {
        return;
    }
    // Translate the clipped source rect into destination space and
    // clip again; both clips together define the pixels actually
    // written.
    let tx = dst_x + (src_clip.x - src_r.x);
    let ty = dst_y + (src_clip.y - src_r.y);
    let dst_clip = Rect::new(tx, ty, src_clip.w, src_clip.h).intersection(&dst.bounds());
    if dst_clip.is_empty() {
        return;
    }
    // Source origin corresponding to the clipped destination origin.
    let sx0 = (src_clip.x + (dst_clip.x - tx)) as usize;
    let sy0 = (src_clip.y + (dst_clip.y - ty)) as usize;
    let (sfmt, dfmt) = (src.format(), dst.format());
    let (sbpp, dbpp) = (sfmt.bytes_per_pixel(), dfmt.bytes_per_pixel());
    let (sstride, dstride) = (src.stride(), dst.stride());
    let w = dst_clip.w as usize;
    for y in 0..dst_clip.h as usize {
        let soff = (sy0 + y) * sstride + sx0 * sbpp;
        let srow = &src.data()[soff..soff + w * sbpp];
        let doff = (dst_clip.y as usize + y) * dstride + dst_clip.x as usize * dbpp;
        let drow = &mut dst.data_mut()[doff..doff + w * dbpp];
        for (sp, dp) in srow.chunks_exact(sbpp).zip(drow.chunks_exact_mut(dbpp)) {
            let out = op.apply(sfmt.decode(sp), dfmt.decode(dp));
            dfmt.encode(out, dp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::PixelFormat;

    #[test]
    fn over_opaque_source_wins() {
        let s = Color::rgb(200, 10, 10);
        let d = Color::rgb(0, 200, 0);
        assert_eq!(CompositeOp::Over.apply(s, d), s);
    }

    #[test]
    fn over_transparent_source_keeps_dest() {
        let s = Color::TRANSPARENT;
        let d = Color::rgb(0, 200, 0);
        assert_eq!(CompositeOp::Over.apply(s, d), d);
    }

    #[test]
    fn over_half_alpha_blends() {
        let s = Color::rgba(255, 255, 255, 128);
        let d = Color::rgb(0, 0, 0);
        let out = CompositeOp::Over.apply(s, d);
        assert_eq!(out.a, 255);
        assert!((out.r as i32 - 128).abs() <= 2, "r = {}", out.r);
    }

    #[test]
    fn clear_produces_transparent() {
        let out = CompositeOp::Clear.apply(Color::WHITE, Color::WHITE);
        assert_eq!(out, Color::TRANSPARENT);
    }

    #[test]
    fn src_replaces() {
        let s = Color::rgba(1, 2, 3, 77);
        let out = CompositeOp::Src.apply(s, Color::WHITE);
        assert_eq!(out.a, 77);
    }

    #[test]
    fn in_masks_by_dest_alpha() {
        let s = Color::rgb(100, 100, 100);
        let out = CompositeOp::In.apply(s, Color::TRANSPARENT);
        assert_eq!(out, Color::TRANSPARENT);
        let out2 = CompositeOp::In.apply(s, Color::rgba(0, 0, 0, 255));
        assert_eq!(out2.a, 255);
    }

    #[test]
    fn xor_of_opaque_pair_is_transparent() {
        let out = CompositeOp::Xor.apply(Color::WHITE, Color::BLACK);
        assert_eq!(out.a, 0);
    }

    #[test]
    fn add_saturates() {
        let out = CompositeOp::Add.apply(Color::rgb(200, 200, 200), Color::rgb(200, 200, 200));
        assert_eq!(out, Color::WHITE);
    }

    #[test]
    fn atop_keeps_dest_alpha() {
        let s = Color::rgba(255, 0, 0, 255);
        let d = Color::rgba(0, 0, 255, 128);
        let out = CompositeOp::Atop.apply(s, d);
        assert_eq!(out.a, 128);
    }

    #[test]
    fn composite_rect_blends_region() {
        let mut dst = Framebuffer::new(4, 4, PixelFormat::Rgba8888);
        dst.fill_rect(&Rect::new(0, 0, 4, 4), Color::rgba(0, 0, 0, 255));
        let mut src = Framebuffer::new(2, 2, PixelFormat::Rgba8888);
        src.fill_rect(&Rect::new(0, 0, 2, 2), Color::rgba(255, 255, 255, 255));
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 2, 2), 1, 1, CompositeOp::Over);
        assert_eq!(dst.get_pixel(1, 1).unwrap().r, 255);
        assert_eq!(dst.get_pixel(0, 0).unwrap().r, 0);
        assert_eq!(dst.get_pixel(3, 3).unwrap().r, 0);
    }

    #[test]
    fn composite_rect_clips_out_of_bounds() {
        let mut dst = Framebuffer::new(2, 2, PixelFormat::Rgba8888);
        let src = Framebuffer::new(4, 4, PixelFormat::Rgba8888);
        // Must not panic even when mostly offscreen.
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 4, 4), -2, -2, CompositeOp::Over);
    }

    #[test]
    fn composite_rect_negative_offset_lands_on_right_pixels() {
        // Source is a 3x3 gradient; composite at (-1, -1) so only the
        // bottom-right 2x2 of the source lands in the destination.
        let mut src = Framebuffer::new(3, 3, PixelFormat::Rgba8888);
        for y in 0..3 {
            for x in 0..3 {
                src.set_pixel(x, y, Color::rgba((10 * (y * 3 + x) + 5) as u8, 0, 0, 255));
            }
        }
        let mut dst = Framebuffer::new(2, 2, PixelFormat::Rgba8888);
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 3, 3), -1, -1, CompositeOp::Src);
        // dst(0,0) receives src(1,1), dst(1,1) receives src(2,2).
        assert_eq!(dst.get_pixel(0, 0).unwrap().r, 45);
        assert_eq!(dst.get_pixel(1, 0).unwrap().r, 55);
        assert_eq!(dst.get_pixel(0, 1).unwrap().r, 75);
        assert_eq!(dst.get_pixel(1, 1).unwrap().r, 85);
    }

    #[test]
    fn composite_rect_src_rect_partially_outside_source() {
        // src_r hangs off the source's top-left; the surviving part
        // keeps its destination alignment (src pixel (0,0) must land
        // at dst (2,2) because src_r starts at (-2,-2)).
        let mut src = Framebuffer::new(2, 2, PixelFormat::Rgba8888);
        src.fill_rect(&Rect::new(0, 0, 2, 2), Color::rgba(99, 0, 0, 255));
        let mut dst = Framebuffer::new(5, 5, PixelFormat::Rgba8888);
        composite_rect(&mut dst, &src, &Rect::new(-2, -2, 4, 4), 0, 0, CompositeOp::Src);
        assert_eq!(dst.get_pixel(1, 1).unwrap().r, 0);
        assert_eq!(dst.get_pixel(2, 2).unwrap().r, 99);
        assert_eq!(dst.get_pixel(3, 3).unwrap().r, 99);
        assert_eq!(dst.get_pixel(4, 4).unwrap().r, 0);
    }

    #[test]
    fn apply_rounding_is_pinned() {
        // Pin the exact bytes of the truncate-then-round-half-up
        // pipeline documented on `apply`. These values travel on the
        // wire; a change here is a protocol change, not a cleanup.
        let s = Color::rgba(200, 100, 50, 128);
        let d = Color::rgba(40, 80, 120, 200);
        assert_eq!(CompositeOp::Over.apply(s, d), Color::rgba(129, 90, 80, 227));
        assert_eq!(CompositeOp::Atop.apply(s, d), Color::rgba(119, 89, 84, 200));
        assert_eq!(CompositeOp::Xor.apply(s, d), Color::rgba(74, 82, 104, 127));
        // Opaque source through Over is exact (no rounding at all).
        let opaque = Color::rgba(201, 102, 53, 255);
        assert_eq!(CompositeOp::Over.apply(opaque, d), opaque);
    }

    #[test]
    fn premultiply_round_trip_error_is_bounded() {
        // premultiply → unpremultiply must be identity at full alpha
        // and lose at most 1/255 per channel otherwise (for channels
        // that survive the quantization floor).
        for a in [255u8, 254, 200, 128, 64, 17, 3, 1] {
            for ch in [0u8, 1, 50, 127, 128, 200, 254, 255] {
                let c = Color::rgba(ch, ch, ch, a);
                let p = premultiply(c);
                let back = unpremultiply(p.0 as u8, p.1 as u8, p.2 as u8, p.3 as u8);
                assert_eq!(back.a, a);
                if a == 255 {
                    assert_eq!(back, c, "full alpha must round-trip exactly");
                } else {
                    // Quantization floor: ch*a/255 truncates to 0 when
                    // ch*a < 255; those channels legitimately come back 0.
                    if (ch as u32 * a as u32) >= 255 {
                        let err = (back.r as i32 - ch as i32).abs();
                        let step = (255 / a as i32).max(1);
                        assert!(err <= step, "a={a} ch={ch} err={err} step={step}");
                    }
                }
            }
        }
    }

    #[test]
    fn non_alpha_destination_flattens_to_black() {
        // On an Rgb888 destination, "transparent" results land as
        // their premultiplied color — black — as documented on
        // `composite_rect`.
        let mut dst = Framebuffer::new(2, 2, PixelFormat::Rgb888);
        dst.fill_rect(&Rect::new(0, 0, 2, 2), Color::rgb(200, 150, 100));
        let mut src = Framebuffer::new(2, 2, PixelFormat::Rgba8888);
        src.fill_rect(&Rect::new(0, 0, 2, 2), Color::rgba(255, 255, 255, 255));
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 2, 2), 0, 0, CompositeOp::Clear);
        assert_eq!(dst.get_pixel(0, 0).unwrap(), Color::rgb(0, 0, 0));
        // Xor of two opaque layers is transparent in RGBA terms; on a
        // 24-bit destination it flattens to black as well.
        dst.fill_rect(&Rect::new(0, 0, 2, 2), Color::rgb(200, 150, 100));
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 2, 2), 0, 0, CompositeOp::Xor);
        assert_eq!(dst.get_pixel(1, 1).unwrap(), Color::rgb(0, 0, 0));
        // An opaque Over on the same destination stays exact.
        composite_rect(&mut dst, &src, &Rect::new(0, 0, 2, 2), 0, 0, CompositeOp::Over);
        assert_eq!(dst.get_pixel(1, 1).unwrap(), Color::rgb(255, 255, 255));
    }
}
