//! A software framebuffer with the raster operations a 2D display
//! driver accelerates: solid fill, pattern (tile) fill, stipple fill,
//! screen-to-screen copy, and raw pixel transfer.
//!
//! These are exactly the operations THINC's five protocol commands map
//! onto (Table 1 of the paper), so both the server-side drawables and
//! the client's local framebuffer are instances of this type.

use crate::geometry::Rect;
use crate::pixel::{Color, PixelFormat};

/// A rectangular grid of pixels in a single [`PixelFormat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    format: PixelFormat,
    data: Vec<u8>,
}

impl Framebuffer {
    /// Creates a framebuffer filled with zero bytes (black/transparent).
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        let len = width as usize * height as usize * format.bytes_per_pixel();
        Self {
            width,
            height,
            format,
            data: vec![0; len],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Pixel storage format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// The rectangle `(0, 0, width, height)`.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width, self.height)
    }

    /// Raw backing bytes, row-major, no padding.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Bytes per row.
    pub fn stride(&self) -> usize {
        self.width as usize * self.format.bytes_per_pixel()
    }

    /// Mutable raw backing bytes, for the in-crate row kernels.
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    #[inline]
    fn clip(&self, r: &Rect) -> Rect {
        r.intersection(&self.bounds())
    }

    #[inline]
    fn offset(&self, x: i32, y: i32) -> usize {
        debug_assert!(x >= 0 && y >= 0);
        debug_assert!((x as u32) < self.width && (y as u32) < self.height);
        y as usize * self.stride() + x as usize * self.format.bytes_per_pixel()
    }

    /// Reads the pixel at `(x, y)`, or `None` when out of bounds.
    #[inline]
    pub fn get_pixel(&self, x: i32, y: i32) -> Option<Color> {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return None;
        }
        let bpp = self.format.bytes_per_pixel();
        let off = self.offset(x, y);
        Some(self.format.decode(&self.data[off..off + bpp]))
    }

    /// Writes the pixel at `(x, y)`; out-of-bounds writes are ignored.
    #[inline]
    pub fn set_pixel(&mut self, x: i32, y: i32, c: Color) {
        if x < 0 || y < 0 || x >= self.width as i32 || y >= self.height as i32 {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        let off = self.offset(x, y);
        self.format.encode(c, &mut self.data[off..off + bpp]);
    }

    /// Solid-fills `r` (clipped to the framebuffer) with `c`.
    ///
    /// This is the semantic of the THINC `SFILL` command.
    pub fn fill_rect(&mut self, r: &Rect, c: Color) {
        let clip = self.clip(r);
        if clip.is_empty() {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        let mut px = [0u8; 4];
        self.format.encode(c, &mut px[..bpp]);
        let stride = self.stride();
        let row_len = clip.w as usize * bpp;
        let first = self.offset(clip.x, clip.y);
        if px[..bpp].iter().all(|&b| b == px[0]) {
            // Uniform byte pattern (black, white, grey in RGB formats,
            // anything in 1-byte formats): straight memset, one call for
            // full-width fills, one per row otherwise.
            if row_len == stride {
                self.data[first..first + row_len * clip.h as usize].fill(px[0]);
            } else {
                for r in 0..clip.h as usize {
                    let off = first + r * stride;
                    self.data[off..off + row_len].fill(px[0]);
                }
            }
            return;
        }
        // Splat the pixel across the first row by doubling, then copy
        // that row into each remaining row.
        {
            let row = &mut self.data[first..first + row_len];
            row[..bpp].copy_from_slice(&px[..bpp]);
            let mut filled = bpp;
            while filled < row_len {
                let n = filled.min(row_len - filled);
                row.copy_within(..n, filled);
                filled += n;
            }
        }
        for r in 1..clip.h as usize {
            let off = first + r * stride;
            let (done, rest) = self.data.split_at_mut(off);
            rest[..row_len].copy_from_slice(&done[first..first + row_len]);
        }
    }

    /// Tiles `r` with `tile`, phase-locked to the destination origin so
    /// that adjacent fills align seamlessly.
    ///
    /// This is the semantic of the THINC `PFILL` command. The tile must
    /// be in the same pixel format.
    ///
    /// # Panics
    ///
    /// Panics if the tile is empty or has a different pixel format.
    pub fn tile_rect(&mut self, r: &Rect, tile: &Framebuffer) {
        assert!(tile.width > 0 && tile.height > 0, "empty tile");
        assert_eq!(tile.format, self.format, "tile pixel format mismatch");
        let clip = self.clip(r);
        if clip.is_empty() {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        let row_len = clip.w as usize * bpp;
        let tile_row_len = tile.width as usize * bpp;
        // Every destination row with the same tile phase is identical, so
        // splat each needed tile row once — rotated to the destination's
        // x phase — then blit it with a straight row copy.
        let phase = clip.x.rem_euclid(tile.width as i32) as usize * bpp;
        let mut rows: Vec<Vec<u8>> = vec![Vec::new(); tile.height as usize];
        for i in 0..clip.h {
            let y = clip.y + i as i32;
            let ty = y.rem_euclid(tile.height as i32) as usize;
            if rows[ty].is_empty() {
                let trow = &tile.data[ty * tile_row_len..(ty + 1) * tile_row_len];
                let mut out = Vec::with_capacity(row_len + tile_row_len);
                out.extend_from_slice(&trow[phase..]);
                while out.len() < row_len {
                    let n = (row_len - out.len()).min(tile_row_len);
                    out.extend_from_slice(&trow[..n]);
                }
                out.truncate(row_len);
                rows[ty] = out;
            }
            let off = self.offset(clip.x, y);
            self.data[off..off + row_len].copy_from_slice(&rows[ty]);
        }
    }

    /// Fills `r` using `bits` as a stipple: 1 bits paint `fg`, 0 bits
    /// paint `bg` (or are skipped when `bg` is `None`, i.e. a
    /// transparent stipple).
    ///
    /// This is the semantic of the THINC `BITMAP` command. `bits` is
    /// row-major, one bit per pixel, each row padded to a whole byte,
    /// with bit 7 of each byte the leftmost pixel. The bitmap is
    /// anchored at the rectangle origin (not the screen origin).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is shorter than the rectangle requires.
    pub fn bitmap_rect(&mut self, r: &Rect, bits: &[u8], fg: Color, bg: Option<Color>) {
        let row_bytes = (r.w as usize).div_ceil(8);
        assert!(
            bits.len() >= row_bytes * r.h as usize,
            "stipple bitmap too short: {} < {}",
            bits.len(),
            row_bytes * r.h as usize
        );
        let clip = self.clip(r);
        if clip.is_empty() {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        let (fg_px, _) = self.format.encode_to_array(fg);
        let Some(bg) = bg else {
            match bpp {
                1 => self.stipple::<1>(r, &clip, bits, fg_px),
                2 => self.stipple::<2>(r, &clip, bits, fg_px),
                3 => self.stipple::<3>(r, &clip, bits, fg_px),
                _ => self.stipple::<4>(r, &clip, bits, fg_px),
            }
            return;
        };
        let (bg_px, _) = self.format.encode_to_array(bg);
        let x0 = (clip.x - r.x) as usize;
        let x_end = x0 + clip.w as usize;
        // Opaque glyph path: expand each possible bitmap byte to its
        // 8-pixel byte pattern once (256 × 8·bpp table), then every
        // interior bitmap byte becomes a single table blit — no
        // per-bit tests at all. Partial leading/trailing bytes fall
        // back to per-pixel writes. The run-based path below stays for
        // rects too small to amortize the table build.
        if clip.w >= 16 && clip.w as usize * clip.h as usize >= 1024 {
            let mut table = vec![0u8; 256 * 8 * bpp];
            for v in 0..256usize {
                let row = &mut table[v * 8 * bpp..][..8 * bpp];
                for bit in 0..8 {
                    let px = if v & (0x80 >> bit) != 0 {
                        &fg_px[..bpp]
                    } else {
                        &bg_px[..bpp]
                    };
                    row[bit * bpp..(bit + 1) * bpp].copy_from_slice(px);
                }
            }
            // Bitmap byte b covers bits [8b, 8b+8); full bytes are the
            // ones wholly inside [x0, x_end). clip.w >= 16 guarantees
            // at least one.
            let first_full = x0.div_ceil(8);
            let last_full = x_end / 8;
            debug_assert!(first_full < last_full);
            for y in clip.y..clip.bottom() {
                let by = (y - r.y) as usize;
                let brow = &bits[by * row_bytes..(by + 1) * row_bytes];
                let row_off = self.offset(clip.x, y);
                let row = &mut self.data[row_off..row_off + clip.w as usize * bpp];
                let mut put = |bx: usize| {
                    let on = brow[bx / 8] & (0x80 >> (bx % 8)) != 0;
                    let px = if on { &fg_px[..bpp] } else { &bg_px[..bpp] };
                    row[(bx - x0) * bpp..(bx - x0 + 1) * bpp].copy_from_slice(px);
                };
                for bx in x0..first_full * 8 {
                    put(bx);
                }
                for bx in last_full * 8..x_end {
                    put(bx);
                }
                for b in first_full..last_full {
                    let dst = (b * 8 - x0) * bpp;
                    row[dst..dst + 8 * bpp]
                        .copy_from_slice(&table[brow[b] as usize * 8 * bpp..][..8 * bpp]);
                }
            }
            return;
        }
        for y in clip.y..clip.bottom() {
            let by = (y - r.y) as usize;
            let brow = &bits[by * row_bytes..(by + 1) * row_bytes];
            let row_off = self.offset(clip.x, y);
            let row = &mut self.data[row_off..row_off + clip.w as usize * bpp];
            // Decode the bit row into maximal same-value runs and paint
            // each run as one span instead of per-pixel set_pixel calls.
            let mut bx = x0;
            while bx < x_end {
                let on = brow[bx / 8] & (0x80 >> (bx % 8)) != 0;
                let len = bit_run_len(brow, bx, x_end, on);
                let px = if on { &fg_px[..bpp] } else { &bg_px[..bpp] };
                fill_span(&mut row[(bx - x0) * bpp..(bx - x0 + len) * bpp], px);
                bx += len;
            }
        }
    }

    /// [`bitmap_rect`](Self::bitmap_rect) with a transparent stipple
    /// (every text glyph), `B` bytes per pixel: only set bits write.
    /// Each bitmap byte is masked to the clip at either end, skipped
    /// whole when that leaves it zero, and otherwise tested bit by bit
    /// — no run decoding, and a fixed-size store per pixel.
    fn stipple<const B: usize>(&mut self, r: &Rect, clip: &Rect, bits: &[u8], fg: [u8; 4]) {
        let fg: [u8; B] = std::array::from_fn(|i| fg[i]);
        let row_bytes = (r.w as usize).div_ceil(8);
        let x0 = (clip.x - r.x) as usize;
        let x_end = x0 + clip.w as usize;
        for y in clip.y..clip.bottom() {
            let brow = &bits[(y - r.y) as usize * row_bytes..][..row_bytes];
            let row_off = self.offset(clip.x, y);
            let (row, _) = self.data[row_off..row_off + clip.w as usize * B].as_chunks_mut::<B>();
            for b in x0 / 8..x_end.div_ceil(8) {
                let lead = x0.saturating_sub(b * 8);
                let keep = (x_end - b * 8).min(8);
                let byte = brow[b] & (0xFF >> lead) & (0xFF << (8 - keep));
                if byte == 0 {
                    continue;
                }
                for bit in 0..8 {
                    if byte & (0x80 >> bit) != 0 {
                        row[b * 8 + bit - x0] = fg;
                    }
                }
            }
        }
    }

    /// Copies the rectangle `src` to the position `(dst_x, dst_y)`
    /// within the same framebuffer, handling overlap like `memmove`.
    ///
    /// This is the semantic of the THINC `COPY` command (scrolling,
    /// opaque window movement). Source and destination are both clipped
    /// consistently: pixels whose source or destination fall outside
    /// the framebuffer are dropped.
    pub fn copy_rect(&mut self, src: &Rect, dst_x: i32, dst_y: i32) {
        let dx = dst_x - src.x;
        let dy = dst_y - src.y;
        // Clip the source so that both source and destination are in bounds.
        let mut s = self.clip(src);
        let dst = s.translated(dx, dy);
        let dst_clipped = self.clip(&dst);
        s = dst_clipped.translated(-dx, -dy);
        if s.is_empty() {
            return;
        }
        if dx == 0 && dy == 0 {
            return;
        }
        let bpp = self.format.bytes_per_pixel();
        let stride = self.stride();
        let row_len = s.w as usize * bpp;
        let s_first = s.y as usize * stride + s.x as usize * bpp;
        let d_first = (s.y + dy) as usize * stride + (s.x + dx) as usize * bpp;
        let h = s.h as usize;
        // `copy_within` is memmove, so each row copy is overlap-safe on
        // its own (covers the dy == 0 sideways scroll); across rows,
        // iterate bottom-up when moving down so a source row is never
        // clobbered before it is read. The direction branch is hoisted
        // out of the loop — no per-row test, no boxed iterator.
        if dy > 0 {
            for row in (0..h).rev() {
                let o = row * stride;
                self.data.copy_within(s_first + o..s_first + o + row_len, d_first + o);
            }
        } else {
            for row in 0..h {
                let o = row * stride;
                self.data.copy_within(s_first + o..s_first + o + row_len, d_first + o);
            }
        }
    }

    /// Copies into `d` (already clipped to this framebuffer) from `src`,
    /// where the pixel for `d`'s corner is at `s_off` and rows are
    /// `s_stride` apart: one copy when the rows moved are whole rows on
    /// both sides.
    fn copy_rows(&mut self, d: &Rect, src: &[u8], s_off: usize, s_stride: usize) {
        let row_len = d.w as usize * self.format.bytes_per_pixel();
        let (d_off, d_stride) = (self.offset(d.x, d.y), self.stride());
        let abut = row_len == s_stride && row_len == d_stride;
        let (rows, run) = if abut { (1, row_len * d.h as usize) } else { (d.h as usize, row_len) };
        for row in 0..rows {
            let (s, t) = (s_off + row * s_stride, d_off + row * d_stride);
            self.data[t..t + run].copy_from_slice(&src[s..s + run]);
        }
    }

    /// Copies `src_rect` of `src` (a framebuffer of the same format)
    /// to `(dst_x, dst_y)` here. The rectangle is clipped to `src`
    /// and what is left of it to this framebuffer, pixels keeping
    /// their offsets — what [`get_raw`](Self::get_raw) then
    /// [`put_raw`](Self::put_raw) do, without the buffer between them.
    pub fn copy_from(&mut self, src: &Framebuffer, src_rect: &Rect, dst_x: i32, dst_y: i32) {
        assert_eq!(src.format, self.format, "source pixel format mismatch");
        let (dx, dy) = (dst_x - src_rect.x, dst_y - src_rect.y);
        let d = self.clip(&src.clip(src_rect).translated(dx, dy));
        if !d.is_empty() {
            self.copy_rows(&d, &src.data, src.offset(d.x - dx, d.y - dy), src.stride());
        }
    }

    /// Writes raw pixel data (in this framebuffer's format, tightly
    /// packed rows of `r.w` pixels) into `r`, clipping to bounds.
    ///
    /// This is the semantic of the THINC `RAW` command.
    ///
    /// # Panics
    ///
    /// Panics if `pixels` is shorter than `r` requires.
    pub fn put_raw(&mut self, r: &Rect, pixels: &[u8]) {
        let bpp = self.format.bytes_per_pixel();
        let src_stride = r.w as usize * bpp;
        assert!(
            pixels.len() >= src_stride * r.h as usize,
            "raw pixel buffer too short"
        );
        let clip = self.clip(r);
        if !clip.is_empty() {
            let s_off = (clip.y - r.y) as usize * src_stride + (clip.x - r.x) as usize * bpp;
            self.copy_rows(&clip, pixels, s_off, src_stride);
        }
    }

    /// Reads the pixels of `r` (clipped) as tightly packed rows.
    ///
    /// Returns the clipped rectangle actually read together with the
    /// bytes; returns an empty rect and buffer if nothing is in bounds.
    pub fn get_raw(&self, r: &Rect) -> (Rect, Vec<u8>) {
        let clip = self.clip(r);
        if clip.is_empty() {
            return (Rect::default(), Vec::new());
        }
        let bpp = self.format.bytes_per_pixel();
        let row_len = clip.w as usize * bpp;
        let mut out = Vec::with_capacity(row_len * clip.h as usize);
        for y in clip.y..clip.bottom() {
            let off = self.offset(clip.x, y);
            out.extend_from_slice(&self.data[off..off + row_len]);
        }
        (clip, out)
    }

    /// Converts the full framebuffer to another pixel format.
    ///
    /// Every (source, destination) format pair is monomorphized to a
    /// loop over const-width pixel arrays (`as_chunks`), so the
    /// decode/encode matches constant-fold away and the bodies are
    /// straight lane arithmetic or fixed-size array stores the
    /// compiler can vectorize. `Indexed8` sources expand through a
    /// 256-entry table of fixed-size arrays (one whole-array store per
    /// pixel, no runtime-width `copy_from_slice`).
    pub fn convert(&self, format: PixelFormat) -> Framebuffer {
        if format == self.format {
            return self.clone();
        }
        let mut out = Framebuffer::new(self.width, self.height, format);
        use PixelFormat as PF;
        let src = &self.data;
        let dst = &mut out.data;
        match (self.format, format) {
            (PF::Rgb888, PF::Rgba8888) => {
                convert_px::<3, 4>(src, dst, |s, d| *d = [s[0], s[1], s[2], 255]);
            }
            (PF::Rgba8888, PF::Rgb888) => {
                convert_px::<4, 3>(src, dst, |s, d| *d = [s[0], s[1], s[2]]);
            }
            (PF::Indexed8, PF::Rgb565) => lut_expand::<2>(src, dst, format),
            (PF::Indexed8, PF::Rgb888) => lut_expand::<3>(src, dst, format),
            (PF::Indexed8, PF::Rgba8888) => lut_expand::<4>(src, dst, format),
            (PF::Rgb565, PF::Indexed8) => {
                convert_px::<2, 1>(src, dst, |s, d| PF::Indexed8.encode(PF::Rgb565.decode(s), d));
            }
            (PF::Rgb565, PF::Rgb888) => {
                convert_px::<2, 3>(src, dst, |s, d| PF::Rgb888.encode(PF::Rgb565.decode(s), d));
            }
            (PF::Rgb565, PF::Rgba8888) => {
                convert_px::<2, 4>(src, dst, |s, d| PF::Rgba8888.encode(PF::Rgb565.decode(s), d));
            }
            (PF::Rgb888, PF::Indexed8) => {
                convert_px::<3, 1>(src, dst, |s, d| PF::Indexed8.encode(PF::Rgb888.decode(s), d));
            }
            (PF::Rgb888, PF::Rgb565) => {
                convert_px::<3, 2>(src, dst, |s, d| PF::Rgb565.encode(PF::Rgb888.decode(s), d));
            }
            (PF::Rgba8888, PF::Indexed8) => {
                convert_px::<4, 1>(src, dst, |s, d| PF::Indexed8.encode(PF::Rgba8888.decode(s), d));
            }
            (PF::Rgba8888, PF::Rgb565) => {
                convert_px::<4, 2>(src, dst, |s, d| PF::Rgb565.encode(PF::Rgba8888.decode(s), d));
            }
            (PF::Indexed8, PF::Indexed8)
            | (PF::Rgb565, PF::Rgb565)
            | (PF::Rgb888, PF::Rgb888)
            | (PF::Rgba8888, PF::Rgba8888) => unreachable!("identity handled above"),
        }
        out
    }

    /// FNV-1a checksum over the pixel bytes, for cheap equality checks
    /// in tests and the headless client.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in &self.data {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Length of the run of bits equal to `on` starting at `start`
/// (exclusive end `end`), skipping whole `0x00`/`0xFF` bytes at a time.
#[inline]
fn bit_run_len(brow: &[u8], start: usize, end: usize, on: bool) -> usize {
    let skip = if on { 0xFFu8 } else { 0x00u8 };
    let mut bx = start;
    while bx < end {
        if bx.is_multiple_of(8) && bx + 8 <= end && brow[bx / 8] == skip {
            bx += 8;
            continue;
        }
        if (brow[bx / 8] & (0x80 >> (bx % 8)) != 0) != on {
            break;
        }
        bx += 1;
    }
    bx - start
}

/// Applies a fixed-width per-pixel recode over packed buffers. The
/// const widths make every load/store a whole-array access, so the
/// per-format closures compile to branch-free loop bodies.
#[inline]
fn convert_px<const S: usize, const D: usize>(
    src: &[u8],
    dst: &mut [u8],
    f: impl Fn(&[u8; S], &mut [u8; D]),
) {
    let (s, _) = src.as_chunks::<S>();
    let (d, _) = dst.as_chunks_mut::<D>();
    for (sp, dp) in s.iter().zip(d) {
        f(sp, dp);
    }
}

/// Expands `Indexed8` bytes through a palette table of fixed-size
/// pixel arrays: one indexed load and one whole-array store per pixel.
fn lut_expand<const D: usize>(src: &[u8], dst: &mut [u8], to: PixelFormat) {
    let mut lut = [[0u8; D]; 256];
    for (i, e) in lut.iter_mut().enumerate() {
        to.encode(PixelFormat::Indexed8.decode(&[i as u8]), e);
    }
    let (d, _) = dst.as_chunks_mut::<D>();
    for (&s, dp) in src.iter().zip(d) {
        *dp = lut[s as usize];
    }
}

/// Fills `span` with the repeating pixel `px` (1–4 bytes): memset when
/// the pixel is a uniform byte, doubling `copy_within` splat otherwise.
#[inline]
fn fill_span(span: &mut [u8], px: &[u8]) {
    if px.iter().all(|&b| b == px[0]) {
        span.fill(px[0]);
        return;
    }
    let n = span.len();
    span[..px.len()].copy_from_slice(px);
    let mut filled = px.len();
    while filled < n {
        let c = filled.min(n - filled);
        span.copy_within(..c, filled);
        filled += c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(w: u32, h: u32) -> Framebuffer {
        Framebuffer::new(w, h, PixelFormat::Rgb888)
    }

    #[test]
    fn new_is_black() {
        let f = fb(4, 4);
        assert_eq!(f.get_pixel(0, 0), Some(Color::BLACK));
        assert_eq!(f.data().len(), 4 * 4 * 3);
    }

    #[test]
    fn pixel_read_write_and_bounds() {
        let mut f = fb(4, 4);
        f.set_pixel(2, 3, Color::rgb(9, 8, 7));
        assert_eq!(f.get_pixel(2, 3), Some(Color::rgb(9, 8, 7)));
        assert_eq!(f.get_pixel(4, 0), None);
        assert_eq!(f.get_pixel(-1, 0), None);
        f.set_pixel(100, 100, Color::WHITE); // No panic, no effect.
    }

    #[test]
    fn fill_rect_clips() {
        let mut f = fb(4, 4);
        f.fill_rect(&Rect::new(2, 2, 10, 10), Color::WHITE);
        assert_eq!(f.get_pixel(3, 3), Some(Color::WHITE));
        assert_eq!(f.get_pixel(1, 1), Some(Color::BLACK));
    }

    #[test]
    fn fill_rect_exact_area() {
        let mut f = fb(8, 8);
        f.fill_rect(&Rect::new(1, 2, 3, 4), Color::rgb(10, 20, 30));
        let mut painted = 0;
        for y in 0..8 {
            for x in 0..8 {
                if f.get_pixel(x, y) == Some(Color::rgb(10, 20, 30)) {
                    painted += 1;
                }
            }
        }
        assert_eq!(painted, 12);
    }

    #[test]
    fn tile_rect_phase_locked() {
        let mut tile = fb(2, 2);
        tile.set_pixel(0, 0, Color::WHITE);
        // Checkerboard via 2x2 tile with one white pixel at (0,0).
        let mut f = fb(6, 6);
        f.tile_rect(&Rect::new(0, 0, 6, 6), &tile);
        assert_eq!(f.get_pixel(0, 0), Some(Color::WHITE));
        assert_eq!(f.get_pixel(2, 0), Some(Color::WHITE));
        assert_eq!(f.get_pixel(4, 4), Some(Color::WHITE));
        assert_eq!(f.get_pixel(1, 0), Some(Color::BLACK));
        // A second fill over a sub-rect must align with the first.
        let mut g = fb(6, 6);
        g.tile_rect(&Rect::new(0, 0, 3, 6), &tile);
        g.tile_rect(&Rect::new(3, 0, 3, 6), &tile);
        assert_eq!(f, g);
    }

    #[test]
    fn bitmap_rect_fg_bg() {
        let mut f = fb(8, 2);
        // One row: 0b10100000 pattern over 8 px, two rows.
        let bits = [0b1010_0000u8, 0b0101_0000u8];
        f.bitmap_rect(
            &Rect::new(0, 0, 8, 2),
            &bits,
            Color::WHITE,
            Some(Color::rgb(1, 1, 1)),
        );
        assert_eq!(f.get_pixel(0, 0), Some(Color::WHITE));
        assert_eq!(f.get_pixel(1, 0), Some(Color::rgb(1, 1, 1)));
        assert_eq!(f.get_pixel(2, 0), Some(Color::WHITE));
        assert_eq!(f.get_pixel(1, 1), Some(Color::WHITE));
        assert_eq!(f.get_pixel(0, 1), Some(Color::rgb(1, 1, 1)));
    }

    #[test]
    fn bitmap_rect_transparent_bg_preserves() {
        let mut f = fb(4, 1);
        f.fill_rect(&Rect::new(0, 0, 4, 1), Color::rgb(5, 5, 5));
        f.bitmap_rect(&Rect::new(0, 0, 4, 1), &[0b1000_0000], Color::WHITE, None);
        assert_eq!(f.get_pixel(0, 0), Some(Color::WHITE));
        assert_eq!(f.get_pixel(1, 0), Some(Color::rgb(5, 5, 5)));
    }

    #[test]
    fn bitmap_anchored_at_rect_origin() {
        let mut f = fb(8, 8);
        f.bitmap_rect(&Rect::new(3, 3, 2, 1), &[0b0100_0000], Color::WHITE, None);
        assert_eq!(f.get_pixel(4, 3), Some(Color::WHITE));
        assert_eq!(f.get_pixel(3, 3), Some(Color::BLACK));
    }

    #[test]
    fn copy_rect_disjoint() {
        let mut f = fb(8, 8);
        f.fill_rect(&Rect::new(0, 0, 2, 2), Color::WHITE);
        f.copy_rect(&Rect::new(0, 0, 2, 2), 4, 4);
        assert_eq!(f.get_pixel(4, 4), Some(Color::WHITE));
        assert_eq!(f.get_pixel(5, 5), Some(Color::WHITE));
        assert_eq!(f.get_pixel(0, 0), Some(Color::WHITE)); // Source kept.
    }

    #[test]
    fn copy_rect_overlapping_down_right() {
        let mut f = fb(6, 6);
        // Paint a gradient-ish pattern for overlap detection.
        for y in 0..6 {
            for x in 0..6 {
                f.set_pixel(x, y, Color::rgb(x as u8 * 10, y as u8 * 10, 0));
            }
        }
        let snapshot = f.clone();
        f.copy_rect(&Rect::new(0, 0, 4, 4), 2, 2);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(
                    f.get_pixel(x + 2, y + 2),
                    snapshot.get_pixel(x, y),
                    "at ({x},{y})"
                );
            }
        }
    }

    #[test]
    fn copy_rect_overlapping_up_left() {
        let mut f = fb(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                f.set_pixel(x, y, Color::rgb(x as u8 * 10, y as u8 * 10, 0));
            }
        }
        let snapshot = f.clone();
        f.copy_rect(&Rect::new(2, 2, 4, 4), 0, 0);
        for y in 0..4 {
            for x in 0..4 {
                assert_eq!(f.get_pixel(x, y), snapshot.get_pixel(x + 2, y + 2));
            }
        }
    }

    #[test]
    fn copy_rect_same_row_overlap() {
        let mut f = fb(8, 1);
        for x in 0..8 {
            f.set_pixel(x, 0, Color::rgb(x as u8, 0, 0));
        }
        f.copy_rect(&Rect::new(0, 0, 6, 1), 2, 0);
        for x in 0..6 {
            assert_eq!(f.get_pixel(x + 2, 0), Some(Color::rgb(x as u8, 0, 0)));
        }
    }

    #[test]
    fn copy_rect_one_pixel_scrolls_all_directions() {
        // Scrolling by a single pixel maximises source/destination
        // overlap — the case that breaks a copy loop with the wrong
        // row order. Check all four directions against a snapshot.
        for (dx, dy) in [(0i32, -1i32), (0, 1), (-1, 0), (1, 0)] {
            let mut f = fb(16, 16);
            for y in 0..16 {
                for x in 0..16 {
                    f.set_pixel(x, y, Color::rgb(x as u8 * 16, y as u8 * 16, 123));
                }
            }
            let snapshot = f.clone();
            let src = Rect::new(0, 0, 16, 16);
            f.copy_rect(&src, dx, dy);
            for y in 0..16i32 {
                for x in 0..16i32 {
                    let (sx, sy) = (x - dx, y - dy);
                    let want = if (0..16).contains(&sx) && (0..16).contains(&sy) {
                        snapshot.get_pixel(sx, sy)
                    } else {
                        // Outside the shifted region the pixel is
                        // untouched.
                        snapshot.get_pixel(x, y)
                    };
                    assert_eq!(f.get_pixel(x, y), want, "scroll ({dx},{dy}) at ({x},{y})");
                }
            }
        }
    }

    #[test]
    fn copy_rect_clips_offscreen_destination() {
        let mut f = fb(4, 4);
        f.fill_rect(&Rect::new(0, 0, 2, 2), Color::WHITE);
        f.copy_rect(&Rect::new(0, 0, 2, 2), 3, 3);
        assert_eq!(f.get_pixel(3, 3), Some(Color::WHITE));
        // The rest fell off the edge; nothing panicked.
    }

    #[test]
    fn put_and_get_raw_round_trip() {
        let mut f = fb(4, 4);
        let r = Rect::new(1, 1, 2, 2);
        let pixels: Vec<u8> = (0..12).collect();
        f.put_raw(&r, &pixels);
        let (clip, got) = f.get_raw(&r);
        assert_eq!(clip, r);
        assert_eq!(got, pixels);
    }

    #[test]
    fn put_raw_clips() {
        let mut f = fb(4, 4);
        let r = Rect::new(3, 3, 2, 2);
        let pixels = vec![7u8; 2 * 2 * 3];
        f.put_raw(&r, &pixels);
        assert_eq!(f.get_pixel(3, 3), Some(Color::rgb(7, 7, 7)));
    }

    #[test]
    fn get_raw_out_of_bounds_is_empty() {
        let f = fb(4, 4);
        let (clip, got) = f.get_raw(&Rect::new(10, 10, 2, 2));
        assert!(clip.is_empty());
        assert!(got.is_empty());
    }

    #[test]
    fn convert_depth_round_trip_888_to_8888() {
        let mut f = fb(3, 3);
        f.fill_rect(&Rect::new(0, 0, 3, 3), Color::rgb(10, 20, 30));
        let g = f.convert(PixelFormat::Rgba8888);
        assert_eq!(g.get_pixel(1, 1), Some(Color::rgb(10, 20, 30)));
        let back = g.convert(PixelFormat::Rgb888);
        assert_eq!(back, f);
    }

    #[test]
    fn checksum_changes_with_content() {
        let mut f = fb(4, 4);
        let c0 = f.checksum();
        f.set_pixel(0, 0, Color::rgb(0, 0, 1));
        assert_ne!(f.checksum(), c0);
    }
}
