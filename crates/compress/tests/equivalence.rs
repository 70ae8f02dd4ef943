//! Encoder equality: the word-scanning RLE/LZSS encoders must emit
//! **identical bytes** to the retained byte-at-a-time references in
//! `thinc_compress::reference` (not merely a stream that decodes to
//! the same input), the scratch-buffer API must match the allocating
//! API for every codec, and the bounded and incremental forms of the
//! RAW pipeline must be the one-shot encoders cut short or fed in
//! pieces — never a different stream.

use proptest::prelude::*;
use thinc_compress::{lzss, pnglike, reference, rle, Codec, Scratch};

/// Mixed content: random runs plus literal noise, the worst case for
/// a run scanner's boundary conditions.
fn runny_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(
        (any::<u8>(), 1usize..40, any::<bool>()),
        0..40,
    )
    .prop_map(|chunks| {
        let mut out = Vec::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        for (b, n, run) in chunks {
            if run {
                out.extend(std::iter::repeat_n(b, n));
            } else {
                for _ in 0..n {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    out.push((x >> 33) as u8);
                }
            }
        }
        out
    })
}

/// Image-sized mixed content: long enough to span several filter
/// bands and many times the LZSS lookahead, with runs (compressible)
/// beside noise (not).
fn image_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((any::<u8>(), 1usize..3000, any::<bool>()), 0..24).prop_map(|chunks| {
        let mut out = Vec::new();
        let mut x = 0xD1B54A32D192ED03u64;
        for (b, n, run) in chunks {
            for i in 0..n {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                // Even seeds make one flat run (matches of the maximum
                // length), odd ones a staircase of short runs.
                let step = if b % 2 == 0 { 0 } else { (i / 97) as u8 };
                out.push(if run { b.wrapping_add(step) } else { (x >> 33) as u8 });
            }
        }
        out
    })
}

proptest! {
    #[test]
    fn bounded_pnglike_is_the_unbounded_encode_or_nothing(
        data in image_bytes(),
        bpp in 1usize..5,
        width in 1usize..400,
        bound_permille in 0usize..1300,
    ) {
        let stride = bpp * width;
        let full = reference::pnglike_compress(&data, bpp, stride);
        // Around the true length most of the time, so both outcomes
        // and the exact boundary are hit.
        let bound = (full.len() * bound_permille / 1000).max(bound_permille % 7);
        let mut scratch = Scratch::new();
        for limit in [bound, full.len(), full.len().saturating_sub(1)] {
            let got = pnglike::compress_bounded(&data, bpp, stride, limit, &mut scratch)
                .map(<[u8]>::to_vec);
            let want = (full.len() <= limit).then(|| full.clone());
            prop_assert_eq!(got, want, "limit {} of {}", limit, full.len());
            prop_assert!(scratch.consumed() <= data.len());
        }
        // A give-up leaves the scratch usable: the unbounded call that
        // follows it is still the reference stream.
        prop_assert_eq!(pnglike::compress_with(&data, bpp, stride, &mut scratch), &full[..]);
        prop_assert_eq!(scratch.consumed(), data.len());
    }

    #[test]
    fn lzss_fed_any_prefix_schedule_is_the_one_shot_stream(
        data in image_bytes(),
        cuts in prop::collection::vec(0usize..1000, 0..12),
    ) {
        let want = reference::lzss_compress(&data);
        let mut ends: Vec<usize> = cuts.iter().map(|c| data.len() * c / 1000).collect();
        ends.sort_unstable();
        let mut coder = lzss::Encoder::new();
        let mut out = Vec::new();
        for end in ends {
            prop_assert!(coder.feed(&data[..end], false, usize::MAX, &mut out));
            prop_assert!(coder.consumed() <= end);
        }
        prop_assert!(coder.feed(&data, true, usize::MAX, &mut out));
        prop_assert_eq!(coder.consumed(), data.len());
        prop_assert_eq!(out, want);
    }

    #[test]
    fn rle_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(rle::compress(&data), reference::rle_compress(&data));
    }

    #[test]
    fn rle_encoder_matches_reference_random(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(rle::compress(&data), reference::rle_compress(&data));
    }

    #[test]
    fn symbol_rle_encoder_matches_reference(data in runny_bytes(), sym in 1usize..6) {
        prop_assert_eq!(
            rle::compress_symbols(&data, sym),
            reference::rle_compress_symbols(&data, sym)
        );
    }

    #[test]
    fn lzss_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(lzss::compress(&data), reference::lzss_compress(&data));
    }

    #[test]
    fn lzss_encoder_matches_reference_random(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert_eq!(lzss::compress(&data), reference::lzss_compress(&data));
    }

    #[test]
    fn pnglike_encoder_matches_reference(data in runny_bytes()) {
        prop_assert_eq!(
            pnglike::compress(&data, 3, 60),
            reference::pnglike_compress(&data, 3, 60)
        );
    }

    #[test]
    fn scratch_api_matches_allocating_api(data in prop::collection::vec(any::<u8>(), 0..1536)) {
        // One scratch reused across all codecs and inputs — exactly the
        // flush-path usage pattern.
        let mut scratch = Scratch::new();
        for codec in [
            Codec::None,
            Codec::Rle,
            Codec::PixelRle { bpp: 3 },
            Codec::Lzss,
            Codec::PngLike { bpp: 3, stride: 60 },
            Codec::Huffman,
            Codec::DeflateLike { bpp: 3, stride: 60 },
        ] {
            let alloc = codec.compress(&data);
            let scratched = codec.compress_with(&data, &mut scratch);
            prop_assert_eq!(&alloc[..], scratched, "{:?}", codec);
            // And the stream still round-trips.
            prop_assert_eq!(codec.decompress(&alloc).as_deref(), Some(&data[..]), "{:?}", codec);
        }
    }
}
