//! The byte-linear digests of the delivery path against what they
//! replaced or must never confuse: the sliced CRC-32 kernel against
//! the retained byte-serial reference, the compositional identity the
//! frame encoder leans on, and the in-process content identity against
//! a corpus of near-miss payloads.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;
use thinc_protocol::crc::{crc32_shift, crc32_update};
use thinc_protocol::hash::content_id;
use thinc_protocol::wire::MAX_FRAME_PAYLOAD;
use thinc_protocol::{reference, Bytes};

/// SplitMix64: cheap deterministic bytes for buffers too large to
/// draw element by element.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

proptest! {
    /// The kernel returns the reference's register for any data, any
    /// length that crosses many steps or none, any start alignment,
    /// any starting register, and any way of splitting the stream.
    #[test]
    fn crc_kernel_matches_the_reference_at_any_alignment_and_split(
        seed in any::<u64>(),
        len in 0usize..=70_000,
        align in 0usize..16,
        start in any::<u32>(),
        cuts in prop::collection::vec(any::<u32>(), 0..8),
    ) {
        let buf = Mix(seed).bytes(align + len);
        let data = &buf[align..];
        let want = reference::crc32_update(start, data);
        prop_assert_eq!(crc32_update(start, data), want);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (len + 1)).collect();
        cuts.sort_unstable();
        let (mut reg, mut from) = (start, 0);
        for cut in cuts.into_iter().chain([len]) {
            reg = crc32_update(reg, &data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(reg, want);
    }
}

proptest! {
    /// Shifting by `a` then by `b` is shifting by `a + b`, and every
    /// shift is the bit-serial reference's: lengths across all four
    /// byte windows, sums past the reduction modulo 2³² − 1.
    #[test]
    fn crc_shift_is_additive_and_the_reference_shift(
        start in any::<u32>(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let (a, b) = (a as usize, b as usize);
        let whole = crc32_shift(start, a + b);
        prop_assert_eq!(crc32_shift(crc32_shift(start, a), b), whole);
        prop_assert_eq!(whole, reference::crc32_shift(start, a + b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same over lengths up to a 300 KB photograph piece, where
    /// the kernel runs in lanes: a cut may land inside any lane, and
    /// a piece between two cuts may be short enough to run serially.
    #[test]
    fn crc_lanes_match_the_reference_at_any_length_and_split(
        seed in any::<u64>(),
        len in 0usize..=300_000,
        start in any::<u32>(),
        cuts in prop::collection::vec(any::<u32>(), 0..8),
    ) {
        let data = Mix(seed).bytes(len);
        let want = reference::crc32_update(start, &data);
        prop_assert_eq!(crc32_update(start, &data), want);
        let mut cuts: Vec<usize> = cuts.iter().map(|c| *c as usize % (len + 1)).collect();
        cuts.sort_unstable();
        let (mut reg, mut from) = (start, 0);
        for cut in cuts.into_iter().chain([len]) {
            reg = crc32_update(reg, &data[from..cut]);
            from = cut;
        }
        prop_assert_eq!(reg, want);
    }
}

/// `update(s, A‖B) == shift(update(s, A), |B|) ^ update(0, B)`.
fn composes(s: u32, a: &[u8], b: &[u8]) -> bool {
    let whole = crc32_update(crc32_update(s, a), b);
    whole == crc32_shift(crc32_update(s, a), b.len()) ^ crc32_update(0, b)
}

#[test]
fn crc_composition_holds_for_every_tail_length_to_4096() {
    let mut rng = Mix(13);
    for tail in 0..=4096usize {
        let s = rng.next() as u32;
        let head = (rng.next() % 64) as usize;
        let a = rng.bytes(head);
        let b = rng.bytes(tail);
        assert!(composes(s, &a, &b), "|A| {head} |B| {tail} s {s:#x}");
    }
    // The frame encoder's own shape: all-ones start, nine header
    // bytes, a short fixed part.
    let b = rng.bytes(4096);
    assert!(composes(!0, &rng.bytes(9 + 22), &b));
}

#[test]
fn crc_composition_holds_up_to_the_largest_frame() {
    let mut rng = Mix(64);
    let max = MAX_FRAME_PAYLOAD as usize;
    let big = rng.bytes(max);
    for tail in [
        4097,
        65_535,
        65_536,
        (1 << 20) + 1,
        (1 << 24) - 1,
        max - 1,
        max,
    ] {
        let s = rng.next() as u32;
        let a = rng.bytes(31);
        assert!(composes(s, &a, &big[max - tail..]), "|B| {tail}");
    }
}

/// One 4 KB tile of distinct words (a photo-like payload: no two
/// 8-byte words equal, so every swap below changes the contents).
fn tile() -> Vec<u8> {
    Mix(2005).bytes(4096)
}

#[test]
fn content_id_follows_contents_not_allocations() {
    let a = Bytes::from(tile());
    let b = Bytes::from(tile());
    let shared = a.clone();
    assert_eq!(a.content_id(), b.content_id());
    assert_eq!(a.content_id(), shared.content_id());
    assert_eq!(a.content_id(), content_id(&tile()));
    let mut other = tile();
    other[4095] ^= 1;
    assert_ne!(a.content_id(), Bytes::from(other).content_id());
}

#[test]
fn content_id_separates_every_single_bit_flip_of_a_tile() {
    let mut data = tile();
    let mut seen = HashSet::from([content_id(&data)]);
    for bit in 0..data.len() * 8 {
        data[bit / 8] ^= 1 << (bit % 8);
        assert!(seen.insert(content_id(&data)), "flip of bit {bit} collides");
        data[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(seen.len(), 4096 * 8 + 1);
}

#[test]
fn content_id_separates_swapped_words_within_and_across_lanes() {
    // Words i and j share an accumulator lane when i ≡ j (mod 4); the
    // first 16 words cover same-lane, cross-lane, same-stripe and
    // cross-stripe pairs. The tail (past the last whole stripe) gets
    // its own pairs.
    let base = tile();
    let mut seen = HashSet::from([content_id(&base)]);
    let mut swaps = 0;
    for len in [4096usize, 4096 - 8, 120] {
        let data = &base[..len];
        seen.insert(content_id(data));
        let words = len / 8;
        let mut probe: Vec<usize> = (0..16.min(words))
            .chain(words.saturating_sub(4)..words)
            .collect();
        probe.sort_unstable();
        probe.dedup();
        for (n, &i) in probe.iter().enumerate() {
            for &j in &probe[n + 1..] {
                let mut swapped = data.to_vec();
                for k in 0..8 {
                    swapped.swap(i * 8 + k, j * 8 + k);
                }
                assert!(
                    seen.insert(content_id(&swapped)),
                    "swapping words {i} and {j} of {len} bytes collides"
                );
                swaps += 1;
            }
        }
    }
    assert!(swaps > 400, "{swaps}");
}

#[test]
fn content_id_separates_zero_extensions_and_zero_payloads() {
    // A payload and its zero-padded versions differ only in length
    // and trailing zeros — the case a hash that forgets the length
    // gets wrong. The empty base makes these the all-zero payloads.
    for base_len in [0usize, 1, 7, 8, 31, 32, 33, 64] {
        let base = Mix(base_len as u64).bytes(base_len);
        let mut seen = HashSet::new();
        for total in base_len..=base_len + 96 {
            let mut data = base.clone();
            data.resize(total, 0);
            assert!(
                seen.insert(content_id(&data)),
                "base {base_len} zero-extended to {total} collides"
            );
        }
    }
    // Larger all-zero payloads (blank tiles of different geometry).
    let zeros = vec![0u8; 1 << 16];
    let mut seen = HashSet::new();
    for len in (0..=1 << 16).step_by(48) {
        assert!(
            seen.insert(content_id(&zeros[..len])),
            "{len} zero bytes collide"
        );
    }
}

#[test]
fn content_id_has_no_collision_over_a_generated_corpus() {
    // 60 000 sparse payloads (a counter at a moving offset in an
    // otherwise constant tile — the low-entropy neighbourhood real
    // screen content lives in) and 60 000 dense random ones of mixed
    // length.
    let mut by_id: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut rng = Mix(7);
    let mut admit = |payload: Vec<u8>| {
        if let Some(twin) = by_id.insert(content_id(&payload), payload.clone()) {
            assert_eq!(twin, payload, "two payloads, one id");
        }
        by_id.len()
    };
    let mut distinct = 0;
    for i in 0..60_000u32 {
        let mut sparse = vec![(i % 3) as u8; 160];
        let at = (i as usize * 7) % 156;
        sparse[at..at + 4].copy_from_slice(&i.to_le_bytes());
        admit(sparse);
        let len = 64 + (rng.next() % 192) as usize;
        distinct = admit(rng.bytes(len));
    }
    assert!(distinct >= 100_000, "{distinct}");
}
