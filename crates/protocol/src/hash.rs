//! Content hashing: the wire's FNV-1a 64 and the in-process
//! [`content_id`].
//!
//! The cache layer (protocol revision 3) identifies an encoded display
//! payload by a stable 64-bit content hash. Like the CRC-32 tables in
//! [`crate::crc`], the function is hand-rolled so the protocol crate
//! stays dependency-free and the hash is bit-identical on every
//! platform: FNV-1a with the standard 64-bit offset basis and prime.
//!
//! FNV-1a was chosen over a CRC for its 64-bit width (collision
//! probability ~2⁻⁶⁴ per pair, negligible at cache-store scale) and
//! over cryptographic hashes because the threat model is accidental
//! collision, not adversarial content: both ends of the connection are
//! the same trusted session, and a corrupted payload is caught by the
//! revision-2 frame CRC before it ever reaches the cache. See
//! `docs/CACHE.md` for the full collision stance.
//!
//! FNV-1a's value is *observable* — in `MSG_CACHE_REF`, resume-token
//! store digests, checkpoint tile digests, session ids, shard indices —
//! so it stays exactly what it is, one multiply per byte in a serial
//! chain. Where a hash never leaves the process (the payload plane's
//! and the encode memo's notion of "same content"), [`content_id`]
//! does the same job a word at a time.

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `data` in one shot.
///
/// ```
/// use thinc_protocol::hash::fnv64;
///
/// // Standard FNV-1a test vectors.
/// assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv64(data: &[u8]) -> u64 {
    fnv64_update(FNV64_OFFSET, data)
}

/// Streaming FNV-1a state update over `data` (seed with
/// [`FNV64_OFFSET`]; the state *is* the hash, no finalization step).
pub fn fnv64_update(mut state: u64, data: &[u8]) -> u64 {
    for &b in data {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV64_PRIME);
    }
    state
}

const XXP1: u64 = 0x9E37_79B1_85EB_CA87;
const XXP2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXP3: u64 = 0x1656_67B1_9E37_79F9;
const XXP4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXP5: u64 = 0x27D4_EB2F_1656_67C5;

fn xx_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(XXP2))
        .rotate_left(31)
        .wrapping_mul(XXP1)
}

fn xx_merge(hash: u64, lane: u64) -> u64 {
    (hash ^ xx_round(0, lane))
        .wrapping_mul(XXP1)
        .wrapping_add(XXP4)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// 64-bit identity of `data` for in-process tables: equal bytes give
/// equal ids on every platform, and distinct payloads collide with
/// probability ~2⁻⁶⁴.
///
/// This is the XXH64 construction with seed 0: four independent
/// accumulator lanes each absorb one little-endian `u64` of every
/// 32-byte stripe (so the multiplies of a stripe overlap instead of
/// chaining), the lanes are merged, the length is added, the tail is
/// folded in by words then bytes, and a three-step avalanche finishes.
/// It is **not** a wire or on-disk value — nothing outside this
/// process ever sees it, so it may change between builds; anything
/// that is stored or sent uses [`fnv64`].
///
/// ```
/// use thinc_protocol::hash::content_id;
///
/// // Published XXH64 (seed 0) vectors.
/// assert_eq!(content_id(b""), 0xEF46_DB37_51D8_E999);
/// assert_eq!(content_id(b"abc"), 0x44BC_2CF5_AD77_0999);
/// ```
pub fn content_id(data: &[u8]) -> u64 {
    let mut stripes = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        let mut lanes = [XXP1.wrapping_add(XXP2), XXP2, 0, XXP1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = xx_round(*lane, le_u64(word));
            }
        }
        let merged = lanes[0]
            .rotate_left(1)
            .wrapping_add(lanes[1].rotate_left(7))
            .wrapping_add(lanes[2].rotate_left(12))
            .wrapping_add(lanes[3].rotate_left(18));
        lanes.iter().fold(merged, |h, &lane| xx_merge(h, lane))
    } else {
        XXP5
    };
    hash = hash.wrapping_add(data.len() as u64);

    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = (hash ^ xx_round(0, le_u64(word)))
            .rotate_left(27)
            .wrapping_mul(XXP1)
            .wrapping_add(XXP4);
    }
    let mut rest = words.remainder();
    if rest.len() >= 4 {
        let half = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
        hash = (hash ^ u64::from(half).wrapping_mul(XXP1))
            .rotate_left(23)
            .wrapping_mul(XXP2)
            .wrapping_add(XXP3);
        rest = &rest[4..];
    }
    for &byte in rest {
        hash = (hash ^ u64::from(byte).wrapping_mul(XXP5))
            .rotate_left(11)
            .wrapping_mul(XXP1);
    }

    hash ^= hash >> 33;
    hash = hash.wrapping_mul(XXP2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(XXP3);
    hash ^ (hash >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64 test vectors (Noll's reference list).
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        for split in 0..data.len() {
            let state = fnv64_update(FNV64_OFFSET, &data[..split]);
            assert_eq!(fnv64_update(state, &data[split..]), fnv64(data));
        }
    }

    #[test]
    fn content_id_known_vectors() {
        // Published XXH64 seed-0 vectors: empty, byte tail, word tail,
        // and one input long enough to run the four-lane stripe loop.
        assert_eq!(content_id(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(content_id(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(content_id(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            content_id(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn distinct_payloads_distinct_hashes() {
        // Not a collision proof, just a sanity check that nearby
        // payloads (the common cache-store neighborhood) differ.
        let a: Vec<u8> = (0..1024u32).map(|i| (i % 251) as u8).collect();
        let mut b = a.clone();
        b[512] ^= 0x01;
        assert_ne!(fnv64(&a), fnv64(&b));
    }
}
