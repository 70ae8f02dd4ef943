//! The "PNG-like" pipeline used for THINC `RAW` updates: PNG-style
//! predictive scanline filtering followed by LZSS dictionary coding.
//!
//! The paper's prototype uses libpng for this job (§7); the pipeline
//! here has the same structure (predict, then dictionary-code the
//! residuals) and therefore the same qualitative behaviour: synthetic
//! desktop content (fills, gradients, text) compresses very well,
//! photographic content moderately.

use crate::filter;
use crate::lzss;

/// Compresses image `data` with row geometry (`bpp` bytes per pixel,
/// `stride` bytes per row).
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
    let filtered = filter::apply(data, bpp, stride);
    lzss::compress(&filtered)
}

/// [`compress`] through caller-owned scratch buffers: the filtered
/// intermediate goes into `scratch.filtered`, the encoded stream into
/// `scratch.out` (returned as a slice), so encoding many commands with
/// one [`crate::Scratch`] reuses both once they have grown to the
/// working-set size. This is [`compress_bounded`] with no bound.
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress_with<'a>(
    data: &[u8],
    bpp: usize,
    stride: usize,
    scratch: &'a mut crate::Scratch,
) -> &'a [u8] {
    compress_bounded(data, bpp, stride, usize::MAX, scratch)
        .expect("an unbounded encode cannot pass its bound")
}

/// Filtered bytes handed to the dictionary coder at a time: enough
/// rows to keep its lookahead fed, few enough that the band is still
/// in cache when it is parsed and that a bail-out has filtered little
/// it did not parse.
const BAND_BYTES: usize = 16 * 1024;

/// [`compress_with`] that gives up once the encoded stream is longer
/// than `limit` bytes: `Some(stream)` exactly when the full encoding
/// is at most `limit` long, and then byte-identical to it.
///
/// Rows are filtered in bands just ahead of the dictionary coder, so
/// giving up costs only the input consumed up to that point in both
/// stages; [`crate::Scratch::consumed`] reports how much that was. A
/// caller that can only use an encoding shorter than some size (one
/// that beats the raw payload, one that fits a socket buffer) passes
/// that size and stops paying for the rest.
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn compress_bounded<'a>(
    data: &[u8],
    bpp: usize,
    stride: usize,
    limit: usize,
    scratch: &'a mut crate::Scratch,
) -> Option<&'a [u8]> {
    assert!(bpp > 0 && stride > 0, "bad geometry");
    let rows = data.len().div_ceil(stride);
    let band = (BAND_BYTES / (stride + 1)).max(1);
    scratch.filtered.clear();
    scratch.filtered.reserve(data.len() + rows);
    scratch.out.clear();
    let mut coder = lzss::Encoder::new();
    let mut row = 0;
    loop {
        let end = (row + band).min(rows);
        filter::append_rows(data, bpp, stride, row..end, &mut scratch.filtered);
        row = end;
        let last = row == rows;
        scratch.consumed = (row * stride).min(data.len());
        if !coder.feed(&scratch.filtered, last, limit, &mut scratch.out) {
            return None;
        }
        if last {
            return Some(&scratch.out);
        }
    }
}

/// Reverses [`compress`]; returns `None` on malformed input.
///
/// The output is as long as the stream says. Bytes from outside the
/// program go through [`decompress_into`], which knows how much to
/// expect.
pub fn decompress(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    let mut buf = lzss::decompress(data)?;
    filter::unapply_in_place(&mut buf, bpp, stride).then_some(buf)
}

/// [`decompress`] for a stream that should hold `expected_len` bytes
/// of image, through a caller-owned buffer: the decoded image is
/// returned as a slice into `scratch`, and decoding one image after
/// another with one [`crate::DecodeScratch`] allocates nothing once
/// it has grown to the largest.
///
/// Returns `None` on malformed input and the moment the stream asks
/// for more than `expected_len` bytes plus one filter tag per row —
/// before making them, so the buffer never grows past that. A stream
/// that holds less decodes to a shorter slice.
pub fn decompress_into<'a>(
    data: &[u8],
    bpp: usize,
    stride: usize,
    expected_len: usize,
    scratch: &'a mut crate::DecodeScratch,
) -> Option<&'a [u8]> {
    if stride == 0 {
        return None;
    }
    let limit = expected_len.checked_add(expected_len.div_ceil(stride))?;
    let buf = &mut scratch.buf;
    buf.clear();
    // Sized once: no stream makes more than 255 bytes per byte.
    buf.reserve_exact(limit.min(data.len().saturating_mul(255)));
    (lzss::decompress_into(data, limit, buf) && filter::unapply_in_place(buf, bpp, stride))
        .then_some(&buf[..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_desktop_like_content() {
        // Flat background + "window" + "text" speckles.
        let (w, h, bpp) = (64usize, 32usize, 3usize);
        let mut img = vec![200u8; w * h * bpp];
        for y in 4..20 {
            for x in 8..56 {
                let off = (y * w + x) * bpp;
                img[off] = 255;
                img[off + 1] = 255;
                img[off + 2] = 255;
            }
        }
        for i in (0..img.len()).step_by(97) {
            img[i] = 0;
        }
        let c = compress(&img, bpp, w * bpp);
        assert!(c.len() < img.len() / 4, "{} bytes", c.len());
        assert_eq!(decompress(&c, bpp, w * bpp).unwrap(), img);
    }

    #[test]
    fn round_trip_noise() {
        let mut x = 42u64;
        let img: Vec<u8> = (0..3000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&img, 3, 300);
        assert_eq!(decompress(&c, 3, 300).unwrap(), img);
    }

    #[test]
    fn gradient_beats_plain_lzss() {
        // Vertical gradient: rows differ by a constant, so Up-filtering
        // turns the image into near-zeros.
        let (w, h, bpp) = (100usize, 100usize, 3usize);
        let mut img = Vec::with_capacity(w * h * bpp);
        for y in 0..h {
            for _x in 0..w {
                img.extend_from_slice(&[(y % 256) as u8, (y * 2 % 256) as u8, 128]);
            }
        }
        let png = compress(&img, bpp, w * bpp);
        let plain = lzss::compress(&img);
        assert!(png.len() < plain.len(), "png {} vs lzss {}", png.len(), plain.len());
        assert_eq!(decompress(&png, bpp, w * bpp).unwrap(), img);
    }

    #[test]
    fn corrupt_stream_rejected_not_panicking() {
        let img = vec![1u8; 300];
        let mut c = compress(&img, 3, 30);
        // Mangle: any outcome but a panic is acceptable; usually None.
        if !c.is_empty() {
            let last = c.len() - 1;
            c[last] ^= 0xFF;
            c.truncate(c.len().saturating_sub(3));
        }
        let _ = decompress(&c, 3, 30);
    }
}
