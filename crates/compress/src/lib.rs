#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Compression and session encryption for THINC.
//!
//! The THINC prototype compresses `RAW` updates (and only `RAW`
//! updates) with PNG, and encrypts all traffic with RC4 (§7 of the
//! paper). This crate implements both from scratch:
//!
//! - [`rle`]: byte-wise run-length coding (the simple scheme used by
//!   the VNC-class baseline's "simple compression strategy"),
//! - [`lzss`]: an LZ77/LZSS dictionary coder,
//! - [`filter`]: PNG-style predictive scanline filters (None/Sub/Up/
//!   Average/Paeth) with per-row heuristic filter selection,
//! - [`pnglike`]: the composed pipeline (filter + LZSS), this
//!   reproduction's stand-in for libpng,
//! - [`rc4`]: the RC4 stream cipher (educational only — RC4 is broken;
//!   it is here because the paper measures its overhead).
//!
//! [`Codec`] gives the baselines a common interface plus an adaptive
//! selector, modeling the adaptive compression the paper attributes to
//! VNC and Sun Ray.

pub mod filter;
pub mod lzss;
pub mod pnglike;
pub mod rc4;
pub mod reference;
pub mod rle;

pub use rc4::Rc4;

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped
/// at `max`, compared a machine word at a time.
///
/// Overlapping ranges are fine (`data` is only read), which is what
/// turns self-overlapping RLE runs and LZSS matches into word scans.
#[inline]
pub(crate) fn eq_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let max = max.min(data.len() - a.max(b));
    let mut l = 0;
    while l + 8 <= max {
        let wa = u64::from_le_bytes(data[a + l..a + l + 8].try_into().unwrap());
        let wb = u64::from_le_bytes(data[b + l..b + l + 8].try_into().unwrap());
        let x = wa ^ wb;
        if x != 0 {
            // LE load: memory order == significance order, so the
            // first differing byte is the lowest set byte.
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// Reusable encode-side scratch buffers.
///
/// The flush path encodes one command after another; with a `Scratch`
/// per pipe the filter intermediate and the output stream are reused
/// across commands instead of being reallocated for each one.
#[derive(Debug, Default)]
pub struct Scratch {
    filtered: Vec<u8>,
    out: Vec<u8>,
    consumed: usize,
}

impl Scratch {
    /// Creates empty scratch buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Input bytes the last [`pnglike::compress_bounded`] read before
    /// it finished or gave up (whole rows, through the filter stage).
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Read access to the last encoded stream.
    pub fn encoded(&self) -> &[u8] {
        &self.out
    }
}

/// The reusable decode-side buffer of [`pnglike::decompress_into`]:
/// the dictionary decoder fills it with the filtered stream and the
/// unfilter pass turns that into the image where it lies.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    buf: Vec<u8>,
}

impl DecodeScratch {
    /// Creates an empty buffer (it grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the buffer holds allocated.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

/// A lossless byte codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Codec {
    /// No compression.
    None,
    /// Byte-wise run-length coding.
    Rle,
    /// Pixel-wise run-length coding (runs of whole pixels, as in
    /// VNC's RRE/hextile encodings).
    PixelRle {
        /// Bytes per pixel.
        bpp: usize,
    },
    /// LZSS dictionary coding.
    Lzss,
    /// PNG-style scanline filters + LZSS (needs row geometry).
    PngLike {
        /// Bytes per pixel of the image data.
        bpp: usize,
        /// Bytes per row of the image data.
        stride: usize,
    },
}

impl Codec {
    /// Compresses `data`. Output framing is self-describing per codec;
    /// use the same codec to decompress.
    pub fn compress(&self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Rle => rle::compress(data),
            Codec::PixelRle { bpp } => rle::compress_symbols(data, *bpp),
            Codec::Lzss => lzss::compress(data),
            Codec::PngLike { bpp, stride } => pnglike::compress(data, *bpp, *stride),
        }
    }

    /// Compresses `data` through caller-owned [`Scratch`] buffers and
    /// returns the encoded bytes as a slice into the scratch.
    ///
    /// Identical output to [`Codec::compress`], without the per-call
    /// allocation: every codec encodes straight into the reused
    /// buffers.
    pub fn compress_with<'a>(&self, data: &[u8], scratch: &'a mut Scratch) -> &'a [u8] {
        match self {
            Codec::None => {
                scratch.out.clear();
                scratch.out.extend_from_slice(data);
            }
            Codec::Rle => rle::compress_into(data, &mut scratch.out),
            Codec::PixelRle { bpp } => rle::compress_symbols_into(data, *bpp, &mut scratch.out),
            Codec::Lzss => lzss::compress_into(data, &mut scratch.out),
            Codec::PngLike { bpp, stride } => {
                pnglike::compress_with(data, *bpp, *stride, scratch);
            }
        }
        &scratch.out
    }

    /// Decompresses `data` produced by [`Codec::compress`].
    ///
    /// Returns `None` on malformed input.
    pub fn decompress(&self, data: &[u8]) -> Option<Vec<u8>> {
        match self {
            Codec::None => Some(data.to_vec()),
            Codec::Rle => rle::decompress(data),
            Codec::PixelRle { bpp } => rle::decompress_symbols(data, *bpp),
            Codec::Lzss => lzss::decompress(data),
            Codec::PngLike { bpp, stride } => pnglike::decompress(data, *bpp, *stride),
        }
    }

    /// A rough relative CPU cost factor for simulation purposes
    /// (cycles per input byte, order-of-magnitude).
    pub const fn cost_per_byte(&self) -> u64 {
        match self {
            Codec::None => 1,
            Codec::Rle => 4,
            Codec::PixelRle { .. } => 5,
            Codec::Lzss => 80,
            Codec::PngLike { .. } => 100,
        }
    }
}

/// Picks a codec by estimated link quality, modeling the adaptive
/// schemes the paper describes for VNC and Sun Ray: cheap coding on
/// fast links, aggressive (CPU-hungry) coding on slow ones.
///
/// `bandwidth_bps` is the available link bandwidth in bits per second.
pub fn adaptive_codec(bandwidth_bps: u64, bpp: usize, stride: usize) -> Codec {
    if bandwidth_bps >= 80_000_000 {
        Codec::PixelRle { bpp }
    } else if bandwidth_bps >= 20_000_000 {
        Codec::Lzss
    } else {
        Codec::PngLike { bpp, stride }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_image(len: usize) -> Vec<u8> {
        // Smooth gradient with a repeating texture: compressible but
        // not trivial.
        (0..len)
            .map(|i| ((i / 7) as u8).wrapping_add((i % 13) as u8))
            .collect()
    }

    #[test]
    fn all_codecs_round_trip() {
        let data = sample_image(4096);
        for codec in [
            Codec::None,
            Codec::Rle,
            Codec::Lzss,
            Codec::PngLike { bpp: 4, stride: 256 },
        ] {
            let c = codec.compress(&data);
            assert_eq!(codec.decompress(&c).as_deref(), Some(&data[..]), "{codec:?}");
        }
    }

    #[test]
    fn all_codecs_round_trip_empty() {
        for codec in [
            Codec::None,
            Codec::Rle,
            Codec::Lzss,
            Codec::PngLike { bpp: 3, stride: 30 },
        ] {
            let c = codec.compress(&[]);
            assert_eq!(codec.decompress(&c).as_deref(), Some(&[][..]), "{codec:?}");
        }
    }

    #[test]
    fn flat_data_compresses_well() {
        let data = vec![0xAAu8; 10_000];
        // LZSS matches cap at 18 bytes, so its flat-data ratio is ~5.9x;
        // RLE and the filtered pipeline collapse much further.
        for (codec, bound) in [
            (Codec::Rle, data.len() / 10),
            (Codec::Lzss, data.len() / 5),
            (Codec::PngLike { bpp: 3, stride: 300 }, data.len() / 10),
        ] {
            let c = codec.compress(&data);
            assert!(c.len() < bound, "{codec:?}: {} not < {}", c.len(), bound);
        }
    }

    #[test]
    fn adaptive_selects_by_bandwidth() {
        assert_eq!(adaptive_codec(100_000_000, 3, 300), Codec::PixelRle { bpp: 3 });
        assert_eq!(adaptive_codec(24_000_000, 3, 300), Codec::Lzss);
        assert_eq!(
            adaptive_codec(1_000_000, 3, 300),
            Codec::PngLike { bpp: 3, stride: 300 }
        );
    }

    #[test]
    fn cost_model_is_monotone_in_strength() {
        assert!(Codec::None.cost_per_byte() < Codec::Rle.cost_per_byte());
        assert!(Codec::Rle.cost_per_byte() < Codec::Lzss.cost_per_byte());
        assert!(
            Codec::Lzss.cost_per_byte() < Codec::PngLike { bpp: 3, stride: 1 }.cost_per_byte()
        );
    }
}
