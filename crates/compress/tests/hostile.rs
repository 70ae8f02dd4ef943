//! Untrusted streams: a compressed `RAW` arrives from the network, and
//! the LZSS length extension (each `0xFF` byte adds 255 and says
//! "continue") lets one input byte ask for 255 bytes of output. The
//! decoder a viewer calls, `pnglike::decompress_into`, is told how
//! much image to expect and must refuse a stream the moment it asks
//! for more — without having made it, without a panic, and without
//! its buffer growing past that bound.

use proptest::prelude::*;
use thinc_compress::{lzss, pnglike, DecodeScratch};

/// A stream of `2 + 3 + chain` bytes that asks for `18 + 255 * chain`
/// and more: one literal, then a match at distance 1 whose length
/// extension is `chain` bytes of `0xFF`.
fn bomb(chain: usize) -> Vec<u8> {
    let mut stream = vec![0b10, b'A', 0x0F, 0x00];
    stream.extend(std::iter::repeat_n(0xFF, chain));
    stream.push(0);
    stream
}

/// The bound `decompress_into` holds its buffer to.
fn bound(expected_len: usize, stride: usize) -> usize {
    expected_len + expected_len.div_ceil(stride)
}

#[test]
fn a_stream_declaring_far_more_than_the_image_is_refused_unexpanded() {
    // A 16x16 RGB rectangle; no stream of under 1 KB can declare more
    // than 255 bytes per byte, so this one asks for its ceiling.
    let (bpp, stride, expected) = (3, 48, 16 * 16 * 3);
    let small = bomb(990);
    assert!(small.len() < 1024);
    // The unbounded decoder does what the stream says: that is the
    // behaviour a viewer must not be exposed to.
    assert_eq!(lzss::decompress(&small).map(|out| out.len()), Some(1 + 18 + 255 * 990));
    let mut scratch = DecodeScratch::new();
    assert_eq!(pnglike::decompress_into(&small, bpp, stride, expected, &mut scratch), None);
    assert!(scratch.capacity() <= bound(expected, stride), "{} bytes held", scratch.capacity());

    // The same stream scaled up until it declares over 1 GiB, against
    // a full 1024x768 screen: refused on the bound, not on memory.
    let (stride, expected) = (1024 * 3, 1024 * 768 * 3);
    let big = bomb((1 << 30) / 255 + 1);
    let mut scratch = DecodeScratch::new();
    assert_eq!(pnglike::decompress_into(&big, bpp, stride, expected, &mut scratch), None);
    assert!(scratch.capacity() <= bound(expected, stride), "{} bytes held", scratch.capacity());
}

#[test]
fn a_tiny_stream_for_a_huge_rectangle_reserves_what_it_could_fill() {
    // The bound comes from wire-supplied geometry too: expecting 8 GiB
    // must not allocate 8 GiB for a stream that holds four bytes.
    let mut scratch = DecodeScratch::new();
    let stream = lzss::compress(&[2, 9, 9, 9]);
    let got = pnglike::decompress_into(&stream, 4, 1 << 16, 1 << 33, &mut scratch);
    assert_eq!(got, Some(&[9u8, 9, 9][..]));
    assert!(scratch.capacity() <= 255 * stream.len());
    assert_eq!(pnglike::decompress_into(&stream, 4, 1 << 16, usize::MAX, &mut scratch), None);
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_or_outgrow_the_bound(
        stream in prop::collection::vec(any::<u8>(), 0..600),
        chain in 0usize..300,
        bpp in 1usize..5,
        width in 1usize..64,
        rows in 0usize..40,
    ) {
        let stride = bpp * width;
        let expected = stride * rows;
        // As they come, and behind a prefix that makes every distance
        // valid and opens with a long declared length.
        let mut primed = bomb(chain);
        primed.extend_from_slice(&stream);
        for stream in [stream, primed] {
            let mut scratch = DecodeScratch::new();
            if let Some(pixels) = pnglike::decompress_into(&stream, bpp, stride, expected, &mut scratch) {
                prop_assert!(pixels.len() <= expected);
            }
            prop_assert!(scratch.capacity() <= bound(expected, stride));
        }
    }

    #[test]
    fn bit_flipped_valid_streams_never_panic_or_outgrow_the_bound(
        seed in any::<u64>(),
        bpp in 1usize..5,
        width in 1usize..64,
        rows in 1usize..40,
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..6),
    ) {
        let stride = bpp * width;
        let expected = stride * rows;
        // Half smooth, half noise: long matches beside literal groups.
        let mut x = seed | 1;
        let image: Vec<u8> = (0..expected)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if i < expected / 2 { (i / stride) as u8 } else { (x >> 33) as u8 }
            })
            .collect();
        let mut stream = pnglike::compress(&image, bpp, stride);
        let mut scratch = DecodeScratch::new();
        prop_assert_eq!(
            pnglike::decompress_into(&stream, bpp, stride, expected, &mut scratch),
            Some(&image[..])
        );
        for (at, bit) in flips {
            let at = at % stream.len();
            stream[at] ^= 1 << bit;
            if let Some(pixels) = pnglike::decompress_into(&stream, bpp, stride, expected, &mut scratch) {
                prop_assert!(pixels.len() <= expected);
            }
            prop_assert!(scratch.capacity() <= bound(expected, stride));
        }
    }
}
