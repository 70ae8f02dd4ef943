//! Equality with the retained references in `thinc_compress::reference`,
//! the executable specification of every rewritten loop.
//!
//! Encoders (word-scanning RLE, quick-reject LZSS, lane-wise filter
//! scoring) must emit **identical bytes** to the byte-at-a-time
//! references, not merely a stream that decodes to the same input;
//! decoders (block-copy LZSS, per-type unfilter) must make identical
//! output and reach the same accept/reject verdict, on the streams the
//! encoders emit and on arbitrary and damaged ones. The scratch-buffer
//! APIs must match the allocating ones, and the bounded and
//! incremental forms of the RAW pipeline must be the one-shot encoders
//! cut short or fed in pieces — never a different stream.

use proptest::prelude::*;
use thinc_compress::{filter, lzss, pnglike, reference, rle, Codec, DecodeScratch, Scratch};

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

/// The longest match the LZSS encoder emits (`lzss::MAX_MATCH`).
const MAX_MATCH: usize = 3 + 15 + 255 * 3;

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect()
}

/// `w`×`h` pixels of `bpp` bytes in horizontal bands, one per content
/// class, so that each of the five filters is the best choice for
/// some row: all-zero rows (`None`), a horizontal ramp (`Sub`), a
/// noisy row repeated (`Up`), noise over a smooth base (`Average`
/// halves its variance), and a plane sloping both ways (`Paeth`
/// predicts it exactly).
fn banded_picture(w: usize, h: usize, bpp: usize, seed: u64) -> Vec<u8> {
    let grain = noise(w * h * bpp, seed);
    let mut out = Vec::with_capacity(w * h * bpp);
    for y in 0..h {
        for x in 0..w {
            for c in 0..bpp {
                let i = (y * w + x) * bpp + c;
                out.push(match y * 5 / h.max(1) {
                    0 => 0,
                    1 => (x * 3 + c * 40) as u8,
                    2 => grain[x * bpp + c],
                    3 => 100 + (x / 4 + y / 4) as u8 + grain[i] % 24,
                    _ => (x * 3 + y * 5 + c * 17) as u8,
                });
            }
        }
    }
    out
}

/// The filter tags of a filtered stream, one per row.
fn tags(filtered: &[u8], stride: usize) -> impl Iterator<Item = u8> + '_ {
    filtered.chunks(stride + 1).map(|row| row[0])
}

#[test]
fn filter_matches_reference_with_every_tag_winning_somewhere() {
    for bpp in 1..=4usize {
        let mut seen = [false; 5];
        for (w, h, ragged) in [(37, 40, 0), (64, 25, 11), (5, 50, 3), (129, 15, 1)] {
            let stride = w * bpp;
            let mut data = banded_picture(w, h, bpp, (w * h + bpp) as u64);
            data.truncate(data.len() - ragged.min(stride - 1));
            let filtered = filter::apply(&data, bpp, stride);
            assert_eq!(filtered, reference::filter_apply(&data, bpp, stride), "bpp {bpp} w {w}");
            assert_eq!(filter::unapply(&filtered, bpp, stride).as_deref(), Some(&data[..]));
            assert_eq!(reference::filter_unapply(&filtered, bpp, stride).as_deref(), Some(&data[..]));
            for tag in tags(&filtered, stride) {
                seen[tag as usize] = true;
            }
        }
        assert_eq!(seen, [true; 5], "bpp {bpp}: a filter never won");
    }
}

#[test]
fn lzss_decoder_matches_reference_on_overlapping_runs_and_longest_matches() {
    // A `dist`-byte pattern repeated: after the pattern's literals the
    // stream is matches at that distance that overlap their own
    // output. Lengths straddle the longest match so that some end
    // exactly on it, some one byte short and some one byte over.
    for dist in 1..=8usize {
        for len in [4, 17, 18, 19, 40, MAX_MATCH - 1, MAX_MATCH, MAX_MATCH + 1, 2 * MAX_MATCH + 5] {
            let data: Vec<u8> = (0..dist + len).map(|i| (i % dist) as u8 * 31 + 7).collect();
            let packed = lzss::compress(&data);
            assert_eq!(packed, reference::lzss_compress(&data), "dist {dist} len {len}");
            assert_eq!(lzss::decompress(&packed).as_deref(), Some(&data[..]), "dist {dist} len {len}");
            assert_eq!(reference::lzss_decompress(&packed).as_deref(), Some(&data[..]));
        }
    }
}

/// What a decoder bounded at `limit` must return for a stream the
/// reference decodes to `want`: the same bytes when they fit, and a
/// refusal when the stream is malformed or its output does not fit.
fn bounded(want: Option<Vec<u8>>, limit: usize) -> Option<Vec<u8>> {
    want.filter(|out| out.len() <= limit)
}

fn lzss_decode_bounded(data: &[u8], limit: usize, out: &mut Vec<u8>) -> Option<Vec<u8>> {
    let ok = lzss::decompress_into(data, limit, out);
    assert!(out.len() <= limit, "{} bytes past a bound of {limit}", out.len());
    ok.then(|| out.clone())
}

/// Flips the bits `flips` names (positions taken modulo the stream's
/// length) and cuts the stream at `keep` permille of its length.
fn damage(stream: &mut Vec<u8>, flips: &[(usize, u8)], keep: usize) {
    for &(at, bit) in flips {
        if !stream.is_empty() {
            let at = at % stream.len();
            stream[at] ^= 1 << (bit % 8);
        }
    }
    stream.truncate(stream.len() * keep / 1000);
}

/// A stream that parses as LZSS far more often than random bytes do:
/// eight literals, then flag groups over literals and matches at
/// distances those literals cover, with every length code and
/// extension chains of any length (a run of `0xFF` bytes included) —
/// and now and then a distance that reaches before the start of the
/// output.
fn token_soup() -> impl Strategy<Value = Vec<u8>> {
    let dist = prop_oneof![0u16..8, 0u16..8, 0u16..8, 0u16..8, 0u16..4096];
    let item = (any::<bool>(), any::<u8>(), dist, 0u8..16, 0usize..4, any::<u8>());
    prop::collection::vec(item, 0..120).prop_map(|items| {
        let mut out = vec![0, 1, 2, 3, 4, 5, 6, 7, 8];
        for group in items.chunks(8) {
            let flags = group.iter().enumerate().fold(0u8, |f, (bit, item)| f | (item.0 as u8) << bit);
            out.push(flags);
            for &(is_match, literal, dist, code, chain, last) in group {
                if !is_match {
                    out.push(literal);
                    continue;
                }
                let token: u16 = dist << 4 | code as u16;
                out.extend_from_slice(&token.to_le_bytes());
                if code == 15 {
                    out.extend(std::iter::repeat_n(0xFF, chain));
                    out.push(last.min(254));
                }
            }
        }
        out
    })
}

proptest! {
    #[test]
    fn filter_matches_reference_both_ways(
        seed in any::<u64>(),
        smooth in any::<bool>(),
        bpp in 1usize..5,
        width in 1usize..48,
        rows in 1usize..10,
        ragged in 0usize..200,
    ) {
        let stride = bpp * width;
        let mut data = if smooth {
            banded_picture(width, rows, bpp, seed)
        } else {
            noise(stride * rows, seed)
        };
        data.truncate(data.len() - ragged % stride);
        let filtered = filter::apply(&data, bpp, stride);
        prop_assert_eq!(&filtered, &reference::filter_apply(&data, bpp, stride));
        prop_assert_eq!(filter::unapply(&filtered, bpp, stride), Some(data));
        // Unfiltering is defined on any tagged rows, not only on ones
        // the encoder would choose: force every tag onto the residuals.
        let mut forced = filtered;
        for (row, tagged) in forced.chunks_mut(stride + 1).enumerate() {
            tagged[0] = ((seed as usize + row) % 5) as u8;
        }
        prop_assert_eq!(
            filter::unapply(&forced, bpp, stride),
            reference::filter_unapply(&forced, bpp, stride)
        );
    }

    #[test]
    fn lzss_decoder_matches_reference_on_encoder_streams(
        runny in runny_bytes(),
        image in image_bytes(),
        seed in any::<u64>(),
    ) {
        for data in [runny, image, noise(3000, seed)] {
            let packed = lzss::compress(&data);
            prop_assert_eq!(lzss::decompress(&packed).as_ref(), Some(&data));
            prop_assert_eq!(reference::lzss_decompress(&packed).as_ref(), Some(&data));
        }
    }

    #[test]
    fn lzss_decoder_reaches_the_reference_verdict_on_arbitrary_streams(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        soup in token_soup(),
        cut in 0usize..1001,
    ) {
        for stream in [garbage, soup] {
            let want = reference::lzss_decompress(&stream);
            prop_assert_eq!(lzss::decompress(&stream), want.clone());
            // Where the reference's output just fits, where it just
            // does not, and somewhere inside it.
            let len = want.as_ref().map_or(64, Vec::len);
            let mut out = vec![0xAA; 100];
            for limit in [len, len.saturating_sub(1), len * cut / 1000] {
                prop_assert_eq!(
                    lzss_decode_bounded(&stream, limit, &mut out),
                    bounded(want.clone(), limit),
                    "limit {} of {}", limit, len
                );
            }
        }
    }

    #[test]
    fn lzss_decoder_reaches_the_reference_verdict_on_damaged_streams(
        data in image_bytes(),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        keep in prop_oneof![Just(1000usize), 900usize..1000],
        cut in 0usize..1001,
    ) {
        let mut packed = lzss::compress(&data);
        damage(&mut packed, &flips, keep);
        let want = reference::lzss_decompress(&packed);
        let len = want.as_ref().map_or(data.len(), Vec::len);
        let mut out = vec![0xAA; 100];
        for limit in [len, len.saturating_sub(1), len * cut / 1000, usize::MAX] {
            prop_assert_eq!(
                lzss_decode_bounded(&packed, limit, &mut out),
                bounded(want.clone(), limit),
                "limit {} of {}", limit, len
            );
        }
    }

    #[test]
    fn pnglike_decode_into_a_dirty_scratch_is_the_allocating_decode(
        data in image_bytes(),
        bpp in 1usize..5,
        width in 1usize..400,
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..3),
    ) {
        let stride = bpp * width;
        let mut packed = pnglike::compress(&data, bpp, stride);
        prop_assert_eq!(&packed, &reference::pnglike_compress(&data, bpp, stride));
        // One scratch, left dirty by another image before each decode.
        let mut scratch = DecodeScratch::new();
        let other = pnglike::compress(&noise(5000, 7), 3, 90);
        for damaged in [false, true] {
            if damaged {
                damage(&mut packed, &flips, 1000);
            }
            let want = reference::pnglike_decompress(&packed, bpp, stride);
            prop_assert_eq!(pnglike::decompress(&packed, bpp, stride), want.clone());
            prop_assert!(pnglike::decompress_into(&other, 3, 90, 5000, &mut scratch).is_some());
            let got = pnglike::decompress_into(&packed, bpp, stride, data.len(), &mut scratch);
            // The filtered stream is the image plus a tag per row, so a
            // damaged stream that decodes to a different image of no
            // more rows than expected is accepted like the reference's.
            let rows = data.len().div_ceil(stride);
            let fits = |out: &Vec<u8>| out.len() + out.len().div_ceil(stride) <= data.len() + rows;
            prop_assert_eq!(got.map(<[u8]>::to_vec), want.filter(fits));
        }
    }

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
        ] {
            let alloc = codec.compress(&data);
            let scratched = codec.compress_with(&data, &mut scratch);
            prop_assert_eq!(&alloc[..], scratched, "{:?}", codec);
            // And the stream still round-trips.
            prop_assert_eq!(codec.decompress(&alloc).as_deref(), Some(&data[..]), "{:?}", codec);
        }
    }
}
