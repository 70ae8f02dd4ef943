//! YUV pixel formats and colorspace conversion.
//!
//! THINC transmits video as YUV data (§4.2): the preferred MPEG pixel
//! format YV12 represents a true-color pixel in 12 bits by subsampling
//! chroma 2×2, and the client "hardware" performs colorspace conversion
//! and scaling. This module implements the formats, conversion in both
//! directions (BT.601 full-range), and frame geometry.

use crate::framebuffer::Framebuffer;
use crate::geometry::Rect;
use crate::pixel::{Color, PixelFormat};

/// Supported YUV storage layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum YuvFormat {
    /// Planar 4:2:0: full-resolution Y plane, then quarter-resolution V
    /// then U planes (the XVideo/MPEG favourite; 12 bits per pixel).
    Yv12,
    /// Packed 4:2:2: Y0 U Y1 V per pixel pair (16 bits per pixel).
    Yuy2,
}

impl YuvFormat {
    /// Size in bytes of one frame of `w`×`h` pixels.
    ///
    /// For [`YuvFormat::Yv12`], odd dimensions are rounded up for the
    /// chroma planes, as in the MPEG convention.
    pub const fn frame_size(self, w: u32, h: u32) -> usize {
        match self {
            YuvFormat::Yv12 => {
                let y = (w as usize) * (h as usize);
                let c = (w as usize).div_ceil(2) * (h as usize).div_ceil(2);
                y + 2 * c
            }
            YuvFormat::Yuy2 => {
                let pairs = (w as usize).div_ceil(2) * (h as usize);
                pairs * 4
            }
        }
    }

    /// Average bits per pixel of the format.
    pub const fn bits_per_pixel(self) -> u32 {
        match self {
            YuvFormat::Yv12 => 12,
            YuvFormat::Yuy2 => 16,
        }
    }
}

/// One video frame in a YUV format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YuvFrame {
    /// Storage layout.
    pub format: YuvFormat,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
    /// Raw plane data, laid out per `format`.
    pub data: Vec<u8>,
}

impl YuvFrame {
    /// Allocates a zeroed (green-black) frame.
    pub fn new(format: YuvFormat, width: u32, height: u32) -> Self {
        Self {
            format,
            width,
            height,
            data: vec![0; format.frame_size(width, height)],
        }
    }

    /// Wraps existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data` has the wrong length for the geometry.
    pub fn from_data(format: YuvFormat, width: u32, height: u32, data: Vec<u8>) -> Self {
        assert_eq!(
            data.len(),
            format.frame_size(width, height),
            "YUV frame size mismatch"
        );
        Self {
            format,
            width,
            height,
            data,
        }
    }

    /// Converts an RGB framebuffer region into a YUV frame.
    ///
    /// The pack is monomorphized per source pixel format (const-`BPP`
    /// rows, inlined decode) and fuses decode with the BT.601 math:
    /// each packed source row converts straight into its Y row and
    /// per-pixel U/V scratch in one branch-free lane loop, and YV12
    /// chroma is averaged row-pair at a time straight into the V/U
    /// planes — no per-pixel bounds checks, no block accumulator
    /// arrays, no per-pixel branches, no intermediate planar pass.
    /// Odd-dimension edges (last row/column of odd-sized
    /// frames) are handled by dedicated tails that average only the
    /// pixels that exist — 2 for an odd edge, 1 for the corner — never
    /// reading past the plane. Byte-exact with
    /// [`crate::reference::yuv_from_rgb`].
    pub fn from_rgb(src: &Framebuffer, r: &Rect, format: YuvFormat) -> Self {
        let clip = r.intersection(&src.bounds());
        let (w, h) = (clip.w as usize, clip.h as usize);
        let mut frame = YuvFrame::new(format, clip.w, clip.h);
        if w == 0 || h == 0 {
            return frame;
        }
        let fmt = src.format();
        let stride = src.stride();
        let base = clip.y as usize * stride + clip.x as usize * fmt.bytes_per_pixel();
        let data = src.data();
        match fmt {
            PixelFormat::Indexed8 => pack_frame::<1>(&mut frame, w, h, data, base, stride, |p| {
                PixelFormat::Indexed8.decode(p)
            }),
            PixelFormat::Rgb565 => pack_frame::<2>(&mut frame, w, h, data, base, stride, |p| {
                PixelFormat::Rgb565.decode(p)
            }),
            PixelFormat::Rgb888 => pack_frame::<3>(&mut frame, w, h, data, base, stride, |p| {
                Color::rgb(p[0], p[1], p[2])
            }),
            PixelFormat::Rgba8888 => pack_frame::<4>(&mut frame, w, h, data, base, stride, |p| {
                Color::rgba(p[0], p[1], p[2], p[3])
            }),
        }
        frame
    }

    /// Reads the YUV pixel at `(x, y)` (chroma upsampled by replication).
    #[inline]
    pub fn yuv_at(&self, x: u32, y: u32) -> (u8, u8, u8) {
        debug_assert!(x < self.width && y < self.height);
        match self.format {
            YuvFormat::Yv12 => {
                let w = self.width as usize;
                let cw = (self.width as usize).div_ceil(2);
                let ch = (self.height as usize).div_ceil(2);
                let y_len = w * self.height as usize;
                let c_len = cw * ch;
                let yy = self.data[y as usize * w + x as usize];
                let ci = (y as usize / 2) * cw + (x as usize / 2);
                let vv = self.data[y_len + ci];
                let uu = self.data[y_len + c_len + ci];
                (yy, uu, vv)
            }
            YuvFormat::Yuy2 => {
                let pairs_per_row = (self.width as usize).div_ceil(2);
                let off = (y as usize * pairs_per_row + x as usize / 2) * 4;
                let yy = if x.is_multiple_of(2) {
                    self.data[off]
                } else {
                    self.data[off + 2]
                };
                (yy, self.data[off + 1], self.data[off + 3])
            }
        }
    }

    /// Converts to RGB, scaling to `dst_w`×`dst_h` by nearest-neighbour
    /// sampling — modeling the client video hardware's combined
    /// colorspace-conversion-and-scaling stage. A new framebuffer and
    /// one [`blit`] over all of it.
    pub fn to_rgb_scaled(&self, dst_w: u32, dst_h: u32, format: PixelFormat) -> Framebuffer {
        let mut out = Framebuffer::new(dst_w, dst_h, format);
        let (w, h) = (self.width, self.height);
        blit(self.format, w, h, &self.data, &mut out, &Rect::new(0, 0, dst_w, dst_h));
        out
    }
}

/// Converts the `src_w`×`src_h` frame in `planes` to RGB and paints it
/// over `dst` in `fb`, scaled by nearest-neighbour sampling: the
/// overlay "hardware" of §4.2, and the window server's software twin
/// of it, writing straight into the framebuffer they draw on.
///
/// `dst` is clipped to the framebuffer before any work is done, so the
/// cost is bounded by the pixels that land on it and the scratch by one
/// source row, whatever `dst` claims (it may lie wholly or partly
/// outside, at a negative origin, and be far larger than the screen).
/// Monomorphized per destination pixel format. Each chroma sample's
/// three BT.601 terms are computed once and shared by the pixels it
/// covers; a scaled destination converts each *source* row it samples
/// once, expands it through a precomputed column map, and repeats an
/// output row by `copy_within` wherever consecutive destination rows
/// sample the same source row. Byte-exact with
/// [`crate::reference::yuv_to_rgb_scaled`] clipped through
/// `get_raw` / `put_raw`.
///
/// # Panics
///
/// Panics if `planes` has the wrong length for the geometry.
pub fn blit(
    format: YuvFormat,
    src_w: u32,
    src_h: u32,
    planes: &[u8],
    fb: &mut Framebuffer,
    dst: &Rect,
) {
    assert_eq!(
        planes.len(),
        format.frame_size(src_w, src_h),
        "YUV frame size mismatch"
    );
    let src = Planes {
        format,
        w: src_w as usize,
        h: src_h as usize,
        data: planes,
    };
    match fb.format() {
        PixelFormat::Indexed8 => blit_px(&src, fb, dst, encoder::<1>(PixelFormat::Indexed8)),
        PixelFormat::Rgb565 => blit_px(&src, fb, dst, encoder::<2>(PixelFormat::Rgb565)),
        PixelFormat::Rgb888 => blit_px(&src, fb, dst, encoder::<3>(PixelFormat::Rgb888)),
        PixelFormat::Rgba8888 => blit_px(&src, fb, dst, encoder::<4>(PixelFormat::Rgba8888)),
    }
}

/// `format`'s pixel encoder as a fixed-width array function; called
/// with a literal format, so the layout `match` folds away.
#[inline(always)]
fn encoder<const BPP: usize>(format: PixelFormat) -> impl Fn(Color) -> [u8; BPP] + Copy {
    move |c| {
        let mut px = [0; BPP];
        format.encode(c, &mut px);
        px
    }
}

/// The part of the span `origin .. origin + extent` that lies inside
/// `0 .. limit`: `(offset into the span, start, length)`, or `None`
/// when nothing does. Widened so no wire-supplied origin can overflow.
fn visible(origin: i32, extent: u32, limit: u32) -> Option<(usize, usize, usize)> {
    let lo = i64::from(origin).max(0);
    let hi = (i64::from(origin) + i64::from(extent)).min(i64::from(limit));
    (lo < hi).then(|| ((lo - i64::from(origin)) as usize, lo as usize, (hi - lo) as usize))
}

fn blit_px<const BPP: usize>(
    src: &Planes<'_>,
    fb: &mut Framebuffer,
    dst: &Rect,
    encode: impl Fn(Color) -> [u8; BPP] + Copy,
) {
    if src.w == 0 || src.h == 0 {
        return;
    }
    let (Some((dx0, x, w)), Some((dy0, y, h))) = (
        visible(dst.x, dst.w, fb.width()),
        visible(dst.y, dst.h, fb.height()),
    ) else {
        return;
    };
    // The source columns the visible destination columns sample.
    let sx = |dx: usize| (dx as u64 * src.w as u64 / u64::from(dst.w)) as usize;
    let (c0, c1) = (sx(dx0), sx(dx0 + w - 1) + 1);
    // At native width a source row converts straight into place;
    // otherwise into `row`, which `sx_map` then expands.
    let native_width = dst.w as usize == src.w;
    let (sx_map, mut row): (Vec<u32>, Vec<[u8; BPP]>) = if native_width {
        (Vec::new(), Vec::new())
    } else {
        let map = (dx0..dx0 + w).map(|dx| (sx(dx) - c0) as u32).collect();
        (map, vec![[0; BPP]; c1 - c0])
    };
    let stride = fb.stride();
    let data = fb.data_mut();
    let mut scratch = RowScratch::default();
    let mut prev_sy = usize::MAX;
    for j in 0..h {
        let sy = ((dy0 + j) as u64 * src.h as u64 / u64::from(dst.h)) as usize;
        let at = (y + j) * stride + x * BPP;
        if sy == prev_sy {
            data.copy_within(at - stride..at - stride + w * BPP, at);
            continue;
        }
        prev_sy = sy;
        let out = data[at..at + w * BPP].as_chunks_mut::<BPP>().0;
        if native_width {
            src.convert_row(sy, c0, out, &mut scratch, encode);
        } else {
            src.convert_row(sy, c0, &mut row, &mut scratch, encode);
            for (o, &s) in out.iter_mut().zip(&sx_map) {
                *o = row[s as usize];
            }
        }
    }
}

/// A borrowed frame: the bytes and how to find a row's samples in them.
struct Planes<'a> {
    format: YuvFormat,
    w: usize,
    h: usize,
    data: &'a [u8],
}

/// Per-row working set of the blit, reused from row to row: the three
/// chroma terms of each chroma sample in the converted span (`i16`
/// lanes beside the luma they are added to, one allocation laid out
/// `rv | guv | bu`), which YV12 chroma row they were computed for,
/// and YUY2's de-interleaved luma.
#[derive(Default)]
struct RowScratch {
    terms: Vec<i16>,
    chroma_row: Option<usize>,
    luma: Vec<u8>,
}

impl RowScratch {
    /// Fills the terms from `(u, v)` samples: the chroma half of
    /// [`yuv_to_rgb`], once per sample instead of once per pixel.
    fn set_terms(&mut self, uv: impl ExactSizeIterator<Item = (u8, u8)>) {
        let n = uv.len();
        self.terms.resize(3 * n, 0);
        let (rv, rest) = self.terms.split_at_mut(n);
        let (guv, bu) = rest.split_at_mut(n);
        for ((u, v), ((rv, guv), bu)) in uv.zip(rv.iter_mut().zip(guv).zip(bu)) {
            let (u, v) = (i32::from(u) - 128, i32::from(v) - 128);
            *rv = ((359 * v + 128) >> 8) as i16;
            *guv = ((88 * u + 183 * v + 128) >> 8) as i16;
            *bu = ((454 * u + 128) >> 8) as i16;
        }
    }

    /// The `(rv, guv, bu)` lanes, one entry per chroma sample.
    fn terms(&self) -> (&[i16], &[i16], &[i16]) {
        let (rv, rest) = self.terms.split_at(self.terms.len() / 3);
        let (guv, bu) = rest.split_at(rv.len());
        (rv, guv, bu)
    }
}

impl Planes<'_> {
    /// Converts columns `c0 .. c0 + out.len()` of source row `sy`.
    fn convert_row<const BPP: usize>(
        &self,
        sy: usize,
        c0: usize,
        out: &mut [[u8; BPP]],
        scratch: &mut RowScratch,
        encode: impl Fn(Color) -> [u8; BPP] + Copy,
    ) {
        let c1 = c0 + out.len();
        // Chroma samples covering the span: pixel `c` uses sample `c / 2`.
        let (k0, k1) = (c0 / 2, c1.div_ceil(2));
        match self.format {
            YuvFormat::Yv12 => {
                let cw = self.w.div_ceil(2);
                let (y_plane, chroma) = self.data.split_at(self.w * self.h);
                let (v_plane, u_plane) = chroma.split_at(cw * self.h.div_ceil(2));
                // Both luma rows of a 2×2 block share one set of terms
                // (the span is the same for every row of one blit).
                if scratch.chroma_row != Some(sy / 2) {
                    let at = sy / 2 * cw;
                    let (u, v) = (&u_plane[at + k0..at + k1], &v_plane[at + k0..at + k1]);
                    scratch.set_terms(u.iter().copied().zip(v.iter().copied()));
                    scratch.chroma_row = Some(sy / 2);
                }
                let luma = &y_plane[sy * self.w + c0..sy * self.w + c1];
                emit_row(luma, c0 % 2 == 1, scratch, out, encode);
            }
            YuvFormat::Yuy2 => {
                let pairs_per_row = self.w.div_ceil(2);
                let row = &self.data[sy * pairs_per_row * 4..][..pairs_per_row * 4];
                let pairs = &row.as_chunks::<4>().0[k0..k1];
                scratch.set_terms(pairs.iter().map(|p| (p[1], p[3])));
                scratch.luma.clear();
                scratch.luma.extend(pairs.iter().flat_map(|p| [p[0], p[2]]));
                let luma = &scratch.luma[c0 % 2..][..out.len()];
                emit_row(luma, c0 % 2 == 1, scratch, out, encode);
            }
        }
    }
}

/// The luma half of [`yuv_to_rgb`] over one row: each pixel adds its
/// luma to the terms of the chroma sample it shares with its pair,
/// clamps and encodes. `lead` says the row starts on the second pixel
/// of a pair (an odd clip edge); it may equally end on the first.
///
/// Three one-byte stores a pixel are what bounds this loop, not the
/// arithmetic, so aligned pixels go four at a time: 4 × `BPP` bytes
/// assembled in registers and stored as `BPP` whole words, for every
/// format alike.
#[inline]
fn emit_row<const BPP: usize>(
    luma: &[u8],
    lead: bool,
    terms: &RowScratch,
    out: &mut [[u8; BPP]],
    encode: impl Fn(Color) -> [u8; BPP] + Copy,
) {
    let px = |y: u8, rv: i16, guv: i16, bu: i16| {
        let y = i16::from(y);
        encode(Color::rgb(clamp_i16(y + rv), clamp_i16(y - guv), clamp_i16(y + bu)))
    };
    let (rv, guv, bu) = terms.terms();
    let head = usize::from(lead);
    let quads = (luma.len() - head) / 4;
    let body = head..head + 4 * quads;
    let (luma_quads, _) = luma[body.clone()].as_chunks::<4>();
    let (out_quads, _) = out[body.clone()].as_chunks_mut::<4>();
    let lanes = rv[head..].as_chunks::<2>().0.iter();
    let lanes = lanes.zip(guv[head..].as_chunks::<2>().0).zip(bu[head..].as_chunks::<2>().0);
    for ((o, y), ((rv, guv), bu)) in out_quads.iter_mut().zip(luma_quads).zip(lanes) {
        let quad = [
            px(y[0], rv[0], guv[0], bu[0]),
            px(y[1], rv[0], guv[0], bu[0]),
            px(y[2], rv[1], guv[1], bu[1]),
            px(y[3], rv[1], guv[1], bu[1]),
        ];
        let byte = |i: usize| u32::from(quad[i / BPP][i % BPP]);
        for (j, word) in o.as_flattened_mut().as_chunks_mut::<4>().0.iter_mut().enumerate() {
            let i = 4 * j;
            let packed = byte(i) | byte(i + 1) << 8 | byte(i + 2) << 16 | byte(i + 3) << 24;
            *word = packed.to_le_bytes();
        }
    }
    // The odd pixel before the first whole pair and whatever follows
    // the last whole quad.
    for i in (0..head).chain(body.end..luma.len()) {
        let k = (i + head) / 2;
        out[i] = px(luma[i], rv[k], guv[k], bu[k]);
    }
}

/// Returns source row `y` of the clip as const-width pixel chunks.
#[inline]
fn row_px<const BPP: usize>(
    src: &[u8],
    base: usize,
    stride: usize,
    y: usize,
    w: usize,
) -> &[[u8; BPP]] {
    let off = base + y * stride;
    src[off..off + w * BPP].as_chunks::<BPP>().0
}

/// Fused decode + BT.601 lane loop: converts one packed source row
/// straight into a Y row and per-pixel U/V rows, without an
/// intermediate planar pass (profiling showed the extra plane
/// write/read costing ~2× on this kernel). The arithmetic is
/// [`rgb_to_yuv`] verbatim, evaluated per pixel in flat `i32` lanes.
#[inline]
fn yuv_row_lanes<const BPP: usize>(
    px: &[[u8; BPP]],
    y: &mut [u8],
    u: &mut [u8],
    v: &mut [u8],
    decode: impl Fn(&[u8; BPP]) -> Color + Copy,
) {
    let n = px.len();
    let (y, u, v) = (&mut y[..n], &mut u[..n], &mut v[..n]);
    for (j, p) in px.iter().enumerate() {
        let c = decode(p);
        let (rr, gg, bb) = (c.r as i32, c.g as i32, c.b as i32);
        y[j] = clamp_u8((77 * rr + 150 * gg + 29 * bb + 128) >> 8);
        u[j] = clamp_u8(((-43 * rr - 85 * gg + 128 * bb + 128) >> 8) + 128);
        v[j] = clamp_u8(((128 * rr - 107 * gg - 21 * bb + 128) >> 8) + 128);
    }
}

/// 2×2 block average: `out[i] = (a[2i] + a[2i+1] + b[2i] + b[2i+1])/4`.
#[inline]
fn avg4_pairs(a: &[u8], b: &[u8], out: &mut [u8]) {
    let (ap, _) = a.as_chunks::<2>();
    let (bp, _) = b.as_chunks::<2>();
    for ((o, pa), pb) in out.iter_mut().zip(ap).zip(bp) {
        *o = ((pa[0] as u32 + pa[1] as u32 + pb[0] as u32 + pb[1] as u32) / 4) as u8;
    }
}

/// 1×2 pair average for the odd bottom row: `out[i] = (a[2i] + a[2i+1])/2`.
#[inline]
fn avg2_pairs(a: &[u8], out: &mut [u8]) {
    let (ap, _) = a.as_chunks::<2>();
    for (o, pa) in out.iter_mut().zip(ap) {
        *o = ((pa[0] as u32 + pa[1] as u32) / 2) as u8;
    }
}

fn pack_frame<const BPP: usize>(
    frame: &mut YuvFrame,
    w: usize,
    h: usize,
    src: &[u8],
    base: usize,
    stride: usize,
    decode: impl Fn(&[u8; BPP]) -> Color + Copy,
) {
    match frame.format {
        YuvFormat::Yv12 => pack_yv12::<BPP>(&mut frame.data, w, h, src, base, stride, decode),
        YuvFormat::Yuy2 => pack_yuy2::<BPP>(&mut frame.data, w, h, src, base, stride, decode),
    }
}

/// Packs a clip into YV12 planes (Y, then V, then U), averaging chroma
/// over 2×2 blocks; odd edges average the 2 (edge) or 1 (corner)
/// pixels actually present.
fn pack_yv12<const BPP: usize>(
    data: &mut [u8],
    w: usize,
    h: usize,
    src: &[u8],
    base: usize,
    stride: usize,
    decode: impl Fn(&[u8; BPP]) -> Color + Copy,
) {
    let cw = w.div_ceil(2);
    let ch = h.div_ceil(2);
    let y_len = w * h;
    let c_len = cw * ch;
    let (y_plane, c_planes) = data.split_at_mut(y_len);
    let (v_plane, u_plane) = c_planes.split_at_mut(c_len);
    let pairs = w / 2;
    // Per-pixel chroma scratch for the current row pair.
    let mut uv = vec![0u8; 4 * w];
    let (u0v0, u1v1) = uv.split_at_mut(2 * w);
    let (u0, v0) = u0v0.split_at_mut(w);
    let (u1, v1) = u1v1.split_at_mut(w);
    for cy in 0..ch {
        let yy = cy * 2;
        let urow = &mut u_plane[cy * cw..][..cw];
        let vrow = &mut v_plane[cy * cw..][..cw];
        if yy + 1 < h {
            let (yr0, yr1) = y_plane[yy * w..][..2 * w].split_at_mut(w);
            yuv_row_lanes(row_px::<BPP>(src, base, stride, yy, w), yr0, u0, v0, decode);
            yuv_row_lanes(row_px::<BPP>(src, base, stride, yy + 1, w), yr1, u1, v1, decode);
            avg4_pairs(u0, u1, &mut urow[..pairs]);
            avg4_pairs(v0, v1, &mut vrow[..pairs]);
            if w % 2 == 1 {
                // Odd right edge: only one column in the block.
                urow[pairs] = ((u0[w - 1] as u32 + u1[w - 1] as u32) / 2) as u8;
                vrow[pairs] = ((v0[w - 1] as u32 + v1[w - 1] as u32) / 2) as u8;
            }
        } else {
            // Odd bottom edge: only one row in the block.
            let yr0 = &mut y_plane[yy * w..][..w];
            yuv_row_lanes(row_px::<BPP>(src, base, stride, yy, w), yr0, u0, v0, decode);
            avg2_pairs(u0, &mut urow[..pairs]);
            avg2_pairs(v0, &mut vrow[..pairs]);
            if w % 2 == 1 {
                // Corner block: a single pixel, replicated as-is.
                urow[pairs] = u0[w - 1];
                vrow[pairs] = v0[w - 1];
            }
        }
    }
}

/// Packs a clip into packed YUY2 (`Y0 U Y1 V` per pixel pair); an odd
/// final column replicates its own pixel as both halves of the pair.
fn pack_yuy2<const BPP: usize>(
    data: &mut [u8],
    w: usize,
    h: usize,
    src: &[u8],
    base: usize,
    stride: usize,
    decode: impl Fn(&[u8; BPP]) -> Color + Copy,
) {
    let pairs_per_row = w.div_ceil(2);
    let full = w / 2;
    // Per-row Y/U/V scratch; the pair interleave reads from here.
    let mut scratch = vec![0u8; 3 * w];
    let (yrow, uvrest) = scratch.split_at_mut(w);
    let (u0, v0) = uvrest.split_at_mut(w);
    for y in 0..h {
        yuv_row_lanes(row_px::<BPP>(src, base, stride, y, w), yrow, u0, v0, decode);
        let orow = &mut data[y * pairs_per_row * 4..][..pairs_per_row * 4];
        let (op, _) = orow.as_chunks_mut::<4>();
        for i in 0..full {
            op[i] = [
                yrow[2 * i],
                ((u0[2 * i] as u32 + u0[2 * i + 1] as u32) / 2) as u8,
                yrow[2 * i + 1],
                ((v0[2 * i] as u32 + v0[2 * i + 1] as u32) / 2) as u8,
            ];
        }
        if w % 2 == 1 {
            // Odd final column: the pair is the same pixel twice.
            op[full] = [yrow[w - 1], u0[w - 1], yrow[w - 1], v0[w - 1]];
        }
    }
}

/// Full-range BT.601 RGB → YUV.
#[inline]
pub fn rgb_to_yuv(c: Color) -> (u8, u8, u8) {
    let r = c.r as i32;
    let g = c.g as i32;
    let b = c.b as i32;
    let y = (77 * r + 150 * g + 29 * b + 128) >> 8;
    let u = ((-43 * r - 85 * g + 128 * b + 128) >> 8) + 128;
    let v = ((128 * r - 107 * g - 21 * b + 128) >> 8) + 128;
    (clamp_u8(y), clamp_u8(u), clamp_u8(v))
}

/// Full-range BT.601 YUV → RGB.
#[inline]
pub fn yuv_to_rgb(y: u8, u: u8, v: u8) -> Color {
    let y = y as i32;
    let u = u as i32 - 128;
    let v = v as i32 - 128;
    let r = y + ((359 * v + 128) >> 8);
    let g = y - ((88 * u + 183 * v + 128) >> 8);
    let b = y + ((454 * u + 128) >> 8);
    Color::rgb(clamp_u8(r), clamp_u8(g), clamp_u8(b))
}

#[inline]
fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

#[inline]
fn clamp_i16(v: i16) -> u8 {
    v.clamp(0, 255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yv12_frame_size_matches_12bpp() {
        // 352x240 (the paper's clip geometry): 12 bits per pixel.
        assert_eq!(YuvFormat::Yv12.frame_size(352, 240), 352 * 240 * 3 / 2);
        assert_eq!(YuvFormat::Yv12.bits_per_pixel(), 12);
    }

    #[test]
    fn yv12_odd_dimensions_round_up() {
        assert_eq!(YuvFormat::Yv12.frame_size(3, 3), 9 + 2 * 4);
    }

    #[test]
    fn yuy2_frame_size() {
        assert_eq!(YuvFormat::Yuy2.frame_size(4, 2), 4 * 2 * 2);
        assert_eq!(YuvFormat::Yuy2.frame_size(3, 2), 2 * 2 * 4);
    }

    #[test]
    fn grey_round_trips_exactly() {
        for g in [0u8, 64, 128, 200, 255] {
            let (y, u, v) = rgb_to_yuv(Color::rgb(g, g, g));
            assert!((u as i32 - 128).abs() <= 1);
            assert!((v as i32 - 128).abs() <= 1);
            let back = yuv_to_rgb(y, u, v);
            assert!((back.r as i32 - g as i32).abs() <= 2, "{g}: {back:?}");
        }
    }

    #[test]
    fn primaries_round_trip_within_tolerance() {
        for c in [
            Color::rgb(255, 0, 0),
            Color::rgb(0, 255, 0),
            Color::rgb(0, 0, 255),
            Color::rgb(255, 255, 0),
            Color::rgb(123, 45, 210),
        ] {
            let (y, u, v) = rgb_to_yuv(c);
            let back = yuv_to_rgb(y, u, v);
            for (a, b) in [(c.r, back.r), (c.g, back.g), (c.b, back.b)] {
                assert!((a as i32 - b as i32).abs() <= 6, "{c:?} -> {back:?}");
            }
        }
    }

    #[test]
    fn rgb_to_yv12_and_back_flat_region() {
        let mut fb = Framebuffer::new(8, 8, PixelFormat::Rgb888);
        fb.fill_rect(&Rect::new(0, 0, 8, 8), Color::rgb(50, 100, 150));
        let frame = YuvFrame::from_rgb(&fb, &Rect::new(0, 0, 8, 8), YuvFormat::Yv12);
        let back = frame.to_rgb_scaled(8, 8, PixelFormat::Rgb888);
        let c = back.get_pixel(4, 4).unwrap();
        assert!((c.r as i32 - 50).abs() <= 6);
        assert!((c.g as i32 - 100).abs() <= 6);
        assert!((c.b as i32 - 150).abs() <= 6);
    }

    #[test]
    fn hardware_scaling_changes_geometry_not_data_size() {
        let frame = YuvFrame::new(YuvFormat::Yv12, 352, 240);
        // Scaling to fullscreen is free on the wire: same frame data.
        let small = frame.to_rgb_scaled(352, 240, PixelFormat::Rgb888);
        let large = frame.to_rgb_scaled(1024, 768, PixelFormat::Rgb888);
        assert_eq!(small.width(), 352);
        assert_eq!(large.width(), 1024);
        assert_eq!(frame.data.len(), YuvFormat::Yv12.frame_size(352, 240));
    }

    #[test]
    fn yuy2_round_trip_flat() {
        let mut fb = Framebuffer::new(4, 2, PixelFormat::Rgb888);
        fb.fill_rect(&Rect::new(0, 0, 4, 2), Color::rgb(200, 40, 90));
        let frame = YuvFrame::from_rgb(&fb, &Rect::new(0, 0, 4, 2), YuvFormat::Yuy2);
        let back = frame.to_rgb_scaled(4, 2, PixelFormat::Rgb888);
        let c = back.get_pixel(2, 1).unwrap();
        assert!((c.r as i32 - 200).abs() <= 6);
    }

    #[test]
    #[should_panic(expected = "YUV frame size mismatch")]
    fn from_data_validates_length() {
        let _ = YuvFrame::from_data(YuvFormat::Yv12, 4, 4, vec![0; 3]);
    }
}
