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

/// Flat content: twelve rows of `stride` bytes that repeat in pairs
/// and threes — zero rows, rows of one value, noisy rows — then a
/// `ragged`-byte last row that is a prefix of the row before it.
fn repeated_rows(stride: usize, bpp: usize, ragged: usize, seed: u64) -> Vec<u8> {
    let grain = noise(stride * 4, seed);
    let kinds = [
        vec![0; stride],
        vec![0; stride],
        vec![0xC3; stride],
        vec![0xC3; stride],
        vec![0xC3; stride],
        grain[..stride].to_vec(),
        grain[..stride].to_vec(),
        vec![0; stride],
        // Zero but for one pixel's last byte: not a zero row.
        (0..stride).map(|i| (i + 1 == bpp) as u8).collect(),
        (0..stride).map(|i| (i + 1 == bpp) as u8).collect(),
        grain[stride..2 * stride].to_vec(),
        grain[stride..2 * stride].to_vec(),
    ];
    let mut out = kinds.concat();
    out.extend_from_slice(&grain[stride..stride + ragged]);
    out
}

/// A row equal to the row above takes the shortcut: tag 0 when it is
/// all zeros (`None` ties `Up`'s zero score and wins at the lower tag),
/// tag 2 otherwise, zero residuals either way. The first row has no
/// row above, and a ragged last row — here the leading bytes of the
/// row above it — has none of its length: neither takes the shortcut,
/// and both still get the reference's choice.
#[test]
fn repeated_rows_are_filtered_as_the_reference_filters_them() {
    for bpp in 1..=4usize {
        for width in [1usize, 2, 7, 40] {
            let stride = bpp * width;
            for ragged in [0, 1, stride / 2, stride - 1].into_iter().filter(|&r| r < stride) {
                let data = repeated_rows(stride, bpp, ragged, (bpp * 100 + width) as u64);
                let filtered = filter::apply(&data, bpp, stride);
                let want = reference::filter_apply(&data, bpp, stride);
                assert_eq!(filtered, want, "bpp {bpp} width {width} ragged {ragged}");
                let got: Vec<u8> = tags(&filtered, stride).collect();
                for (row, tag) in [(1, 0), (3, 2), (4, 2), (6, 2), (9, 2), (11, 2)] {
                    assert_eq!(got[row], tag, "bpp {bpp} width {width}: row {row}");
                }
                assert_eq!(
                    pnglike::compress(&data, bpp, stride),
                    reference::pnglike_compress(&data, bpp, stride),
                    "bpp {bpp} width {width} ragged {ragged}"
                );
                assert_eq!(filter::unapply(&filtered, bpp, stride).as_deref(), Some(&data[..]));
            }
        }
    }
    // Row 0 of an image of equal rows has no row above: `Up` is `None`
    // there and loses the tie, so the repeated-row tag 2 never appears.
    for bpp in 1..=4usize {
        let stride = bpp * 9;
        let data = vec![0x71u8; stride * 5];
        let filtered = filter::apply(&data, bpp, stride);
        assert_eq!(filtered, reference::filter_apply(&data, bpp, stride), "bpp {bpp}");
        assert_ne!(filtered[0], 2, "bpp {bpp}: row 0 took the repeated-row tag");
        assert!(tags(&filtered, stride).skip(1).all(|tag| tag == 2), "bpp {bpp}");
    }
}

/// `lzss::compress`, and an encoder fed `data` in pieces of a few
/// sizes, each make the reference stream.
fn assert_lzss_is_reference(data: &[u8], what: &str) {
    let want = reference::lzss_compress(data);
    assert_eq!(lzss::compress(data), want, "{what}: one shot");
    for step in [1usize, 7, 64, 300] {
        let mut coder = lzss::Encoder::new();
        let mut out = Vec::new();
        for end in (0..data.len()).step_by(step) {
            assert!(coder.feed(&data[..end], false, usize::MAX, &mut out));
        }
        assert!(coder.feed(data, true, usize::MAX, &mut out));
        assert_eq!(out, want, "{what}: fed in {step}-byte pieces");
    }
}

/// The chain-depth boundary of the covered-run shortcut. A long run of
/// one byte `v` is covered by a match, then comes a tail; later, `k`
/// bytes of `v` and the same tail. The candidates for that second
/// block are the run's positions, last first, and the one `k − 3` deep
/// matches the `v`s and the tail: at `k = 34` it is the 32nd, the
/// deepest a walk reaches, through the 31st link of the run. The
/// shortcut keeps exactly those `CHAIN − 1` = 31 links; keeping
/// `CHAIN − 2` makes the walk stop one candidate short, and this test
/// fails (as do three of this file's proptests). Each case is checked
/// one-shot and fed in pieces.
#[test]
fn lzss_reaches_the_deepest_candidate_after_a_long_run() {
    for v in [0u8, 0xA5] {
        for k in 28..=38usize {
            for run in [40usize, 200, 900] {
                let tail = noise(16, 77);
                let mut data = noise(64, 5);
                data.extend(std::iter::repeat_n(v, run));
                data.extend_from_slice(&tail);
                data.extend(noise(40, 9));
                data.extend(std::iter::repeat_n(v, k));
                data.extend_from_slice(&tail);
                data.extend(noise(24, 11));
                assert_lzss_is_reference(&data, &format!("v {v:#x} k {k} run {run}"));
            }
        }
    }
}

/// The LZSS window (`lzss::WINDOW`): the farthest a match reaches.
const WINDOW: usize = 4096;

/// The span of the encoder's position tags (`u16`): positions this
/// far apart look alike to the test ahead of the chain walk.
const WRAP: usize = 1 << 16;

/// Noise past the 16-bit wrap with 24-byte blocks repeated at the
/// distances the window test must tell apart: one short of the
/// window (a match), the window itself and one past it (too far),
/// and the wrap and its neighbours (too far, though the low 16 bits
/// of the two positions are close or equal). Each repeat starts at a
/// different offset into the wrap so that some land just after it.
fn repeats_around_the_window_and_the_wrap() -> Vec<u8> {
    let mut data = noise(3 * WRAP + 2 * WINDOW, 31);
    let dists = [WINDOW - 1, WINDOW, WINDOW + 1, WRAP - 3, WRAP, WRAP + 3];
    for (n, &dist) in dists.iter().enumerate() {
        for base in [100 + 977 * n, WRAP - 40 + 13 * n, 2 * WRAP + 500 * n] {
            let block = data[base..base + 24].to_vec();
            data[base + dist..base + dist + 24].copy_from_slice(&block);
        }
    }
    data
}

/// [`repeats_around_the_window_and_the_wrap`] and its reference
/// stream, made once for the cases that cut it.
fn wrapped() -> &'static (Vec<u8>, Vec<u8>) {
    static WRAPPED: std::sync::OnceLock<(Vec<u8>, Vec<u8>)> = std::sync::OnceLock::new();
    WRAPPED.get_or_init(|| {
        let data = repeats_around_the_window_and_the_wrap();
        let want = reference::lzss_compress(&data);
        (data, want)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prefix schedules whose cuts fall near each multiple of 65 536,
    /// on the input whose repeats straddle them, make the one-shot
    /// stream.
    #[test]
    fn lzss_fed_across_the_16_bit_wrap_is_the_one_shot_stream(
        cuts in prop::collection::vec((1usize..4, 0usize..2 * MAX_MATCH), 1..8),
    ) {
        let (data, want) = wrapped();
        let mut ends: Vec<usize> = cuts
            .iter()
            .map(|&(wrap, off)| (wrap * WRAP + off - MAX_MATCH).min(data.len()))
            .collect();
        ends.sort_unstable();
        let mut coder = lzss::Encoder::new();
        let mut out = Vec::new();
        for end in ends {
            prop_assert!(coder.feed(&data[..end], false, usize::MAX, &mut out));
        }
        prop_assert!(coder.feed(data, true, usize::MAX, &mut out));
        prop_assert_eq!(&out, want);
    }
}

/// Repeats one window apart, give or take one, and one wrap apart,
/// give or take three, past position 65 536: only the first kind
/// matches, and the stream is the reference's one-shot and fed in
/// pieces, prefix cuts across the wrap included.
#[test]
fn lzss_tells_the_window_from_the_16_bit_wrap() {
    let data = repeats_around_the_window_and_the_wrap();
    assert_lzss_is_reference(&data, "repeats");
    let want = reference::lzss_compress(&data);
    for cuts in [
        vec![WRAP - 1, WRAP, WRAP + 1],
        vec![WRAP - MAX_MATCH, WRAP + 2, 2 * WRAP - 3, 2 * WRAP + WINDOW],
        vec![WINDOW, WRAP + WINDOW - 1, 3 * WRAP],
    ] {
        let mut coder = lzss::Encoder::new();
        let mut out = Vec::new();
        for end in cuts.iter().copied() {
            assert!(coder.feed(&data[..end], false, usize::MAX, &mut out));
        }
        assert!(coder.feed(&data, true, usize::MAX, &mut out));
        assert_eq!(out, want, "cuts {cuts:?}");
    }
}

/// Positions a match covers enter the window test as searched ones
/// do. A block `s` first appears at `x`, is matched at `y`, and a
/// piece of it comes back at `z`: the only candidate in the window is
/// inside the match at `y`, and `x` is more than a window before `z`.
/// The same for a single-byte run longer than the window: its first
/// three bytes are more than a window before the short run after it,
/// and only the covered run's last positions are near — at the
/// largest gaps, nearer than the first position of the match that
/// covers them. An encoder that forgets either kind of covered
/// position, or a run's last, when it asks whether anything near can
/// match skips those walks and loses the match.
#[test]
fn lzss_finds_matches_that_start_inside_an_earlier_match() {
    let (x, y, z) = (100, 3000, 4500);
    let mut data = noise(6000, 41);
    let block = data[x..x + 24].to_vec();
    data[y..y + 24].copy_from_slice(&block);
    data[z..z + 10].copy_from_slice(&block[5..15]);
    assert_lzss_is_reference(&data, "covered block");

    for v in [0u8, 0x5C] {
        for run in [WINDOW + 10, 2 * WINDOW, WRAP + 50] {
            for gap in [700, WINDOW - 300, WINDOW - 100, WINDOW - 10] {
                let mut data = noise(100, 43);
                data.extend(std::iter::repeat_n(v, run));
                data.extend(noise(gap, 47));
                data.extend(std::iter::repeat_n(v, 5));
                data.extend(noise(100, 53));
                assert_lzss_is_reference(&data, &format!("run of {run} {v:#x}, gap {gap}"));
            }
        }
    }
}

/// Encoders alive at once, fed in turns, and encoders made one after
/// another on one thread, each starting from tables an earlier encode
/// left behind: every stream is the reference's.
#[test]
fn lzss_encoders_side_by_side_and_in_turn_are_the_reference() {
    let mut photo = banded_picture(160, 90, 3, 71);
    photo.extend(noise(5000, 73));
    let inputs = [photo, repeats_around_the_window_and_the_wrap()];
    let want = inputs.each_ref().map(|d| reference::lzss_compress(d));
    let mut coders = [lzss::Encoder::new(), lzss::Encoder::new()];
    let mut outs = [Vec::new(), Vec::new()];
    let longest = inputs.iter().map(Vec::len).max().unwrap_or(0);
    for end in (0..longest).step_by(7001) {
        for (n, data) in inputs.iter().enumerate() {
            assert!(coders[n].feed(&data[..end.min(data.len())], false, usize::MAX, &mut outs[n]));
        }
    }
    for (n, data) in inputs.iter().enumerate() {
        assert!(coders[n].feed(data, true, usize::MAX, &mut outs[n]));
        assert_eq!(outs[n], want[n], "input {n} side by side");
    }
    drop(coders);
    for round in 0..3 {
        for (n, data) in inputs.iter().enumerate().rev() {
            assert_eq!(lzss::compress(data), want[n], "input {n} in turn, round {round}");
        }
    }
}

/// Where a bounded encode of `data` at `limit` gives up, read off the
/// reference stream: the input position at the end of the first item
/// after which the stream is longer than `limit`, and the whole input
/// if there is none. `Encoder::feed` checks its bound before each
/// item, so this is what its `consumed()` must say.
fn reference_give_up(data: &[u8], limit: usize) -> usize {
    let stream = reference::lzss_compress(data);
    let (mut at, mut pos) = (0, 0);
    while at < stream.len() {
        let flags = stream[at];
        at += 1;
        for bit in 0..8 {
            if at == stream.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                at += 1;
                pos += 1;
            } else {
                let code = stream[at] & 0xF;
                at += 2;
                let mut len = 3 + code as usize;
                if code == 15 {
                    loop {
                        let b = stream[at];
                        at += 1;
                        len += b as usize;
                        if b < 255 {
                            break;
                        }
                    }
                }
                pos += len;
            }
            if at > limit {
                return pos;
            }
        }
    }
    data.len()
}

/// A bounded encode gives up after exactly the input the reference
/// parse had consumed when its stream passed the bound, in one call
/// or fed in pieces: skipping walks that cannot match changes where
/// no encode stops.
#[test]
fn bounded_lzss_gives_up_where_the_reference_stream_passes_its_bound() {
    let mut photo = banded_picture(200, 120, 3, 61);
    photo.extend(noise(9000, 67));
    let inputs = [photo, repeats_around_the_window_and_the_wrap()];
    for data in &inputs {
        let full = reference::lzss_compress(data).len();
        for limit in [0, 1, 9, 100, 4096, full / 3, full - 1, full, full + 1] {
            let want = reference_give_up(data, limit);
            let mut coder = lzss::Encoder::new();
            let mut out = Vec::new();
            assert_eq!(coder.feed(data, true, limit, &mut out), full <= limit, "limit {limit}");
            assert_eq!(coder.consumed(), want, "limit {limit}, one call");
            let mut coder = lzss::Encoder::new();
            out.clear();
            let mut fits = true;
            for end in (0..data.len()).step_by(16 * 1024).chain([data.len()]) {
                fits = coder.feed(&data[..end], end == data.len(), limit, &mut out);
                if !fits {
                    break;
                }
            }
            assert_eq!(fits, full <= limit, "limit {limit}");
            assert_eq!(coder.consumed(), want, "limit {limit}, fed in bands");
        }
    }
}

/// The case the flush meets: a photograph too big for a 256 KB socket
/// buffer gives up under that bound early enough that the head cut to
/// fit the buffer is covered at its own, smaller cap; a larger cap, or
/// a head too short to hold the parse and its lookahead, is not.
#[test]
fn a_photo_give_up_covers_the_head_cut_to_its_bound() {
    let (w, h, bpp) = (920, 200, 3);
    let stride = w * bpp;
    let data = noise(w * h * bpp, 11);
    let bound = 256 * 1024 - 64;
    let mut scratch = Scratch::new();
    assert!(pnglike::compress_bounded(&data, bpp, stride, bound, &mut scratch).is_none());
    let gave_up = scratch.gave_up().expect("a give-up says where it stopped");
    let rows = bound / stride;
    assert!(gave_up.covers(rows, rows * stride - 1));
    assert!(!gave_up.covers(rows, bound + 1), "a larger cap");
    assert!(!gave_up.covers(rows / 2, rows * stride / 2), "a head the parse ran past");
    // A finished encode leaves no give-up behind.
    assert!(pnglike::compress_bounded(&data, bpp, stride, usize::MAX, &mut scratch).is_some());
    assert_eq!(scratch.gave_up(), None);
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
    fn a_head_the_give_up_covers_gives_up_too(
        data in image_bytes(),
        bpp in 1usize..5,
        width in 1usize..400,
        bound_permille in 0usize..1000,
        head_permille in 0usize..=1000,
        cap_permille in 0usize..=1000,
    ) {
        let stride = bpp * width;
        let full = reference::pnglike_compress(&data, bpp, stride);
        let bound = full.len() * bound_permille / 1000;
        let mut scratch = Scratch::new();
        let gave_up = pnglike::compress_bounded(&data, bpp, stride, bound, &mut scratch).is_none();
        prop_assert_eq!(gave_up, bound < full.len());
        prop_assume!(gave_up);
        let gave_up = scratch.gave_up().expect("a give-up says where it stopped");
        let rows = data.len() / stride * head_permille / 1000;
        let cap = bound * cap_permille / 1000;
        if gave_up.covers(rows, cap) {
            let head = &data[..rows * stride];
            prop_assert!(reference::pnglike_compress(head, bpp, stride).len() > cap);
            let got = pnglike::compress_bounded(head, bpp, stride, cap, &mut scratch);
            prop_assert_eq!(got, None, "{} rows at cap {}", rows, cap);
        }
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
