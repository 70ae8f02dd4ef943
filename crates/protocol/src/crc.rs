//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`), word-wide.
//!
//! The ubiquity choice for the revision-2 frame check and the
//! checkpoint seal: strong enough to catch the bit-flip damage the
//! fault layer injects, and hand-rolled so the crate stays
//! dependency-free and bit-identical on every platform. Two things
//! keep it cheap:
//!
//! - [`crc32_update`] is *slicing*: it consumes 16 input bytes per
//!   step through 16 compile-time tables, so the serial dependency is
//!   one XOR tree per step instead of one lookup per byte. From 512 bytes
//!   up it runs three such chains at once over three equal blocks and
//!   joins them with [`crc32_shift`]'s algebra, so the core is busy
//!   with three independent steps instead of waiting on one. The
//!   byte-at-a-time loop it replaced is retained as
//!   [`crate::reference::crc32_update`]; the two agree on every input
//!   and every streaming split (proptested, and timed by `perfgate`).
//! - [`crc32_shift`] advances a register over `len` zero bytes in at
//!   most one carry-less multiply per non-zero byte of `len`, plus one:
//!   the factor is a product of compile-time byte-window tables
//!   (`x^(8·b·256^k) mod P`). The bit-serial O(log `len`) version it
//!   replaced is retained as [`crate::reference::crc32_shift`]. The
//!   register update is linear
//!   over GF(2), so for any register `s` and bytes `A‖B`
//!   `update(s, A‖B) == shift(update(s, A), |B|) ^ update(0, B)` —
//!   which lets an encoder finish a frame's CRC from a checksum the
//!   payload's allocation already carries (see
//!   [`crate::payload::Bytes`]) without reading the payload again.
//!   Verification never composes: a reader runs the kernel over every
//!   byte it received.

const POLY: u32 = 0xEDB8_8320;

/// Input bytes consumed per kernel step (and the number of tables).
/// [`crc32_update`] spells out its four words, so this is not a knob.
const SLICE: usize = 16;
const _: () = assert!(SLICE == 16);

/// `TABLES[k][b]` is the register after byte `b` followed by `k` zero
/// bytes, from a zero register; `TABLES[0]` is the classic table.
static TABLES: [[u32; 256]; SLICE] = {
    let mut t = [[0u32; 256]; SLICE];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < SLICE {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// The contribution of one little-endian input word whose last byte
/// is followed by `after` more bytes of the step.
#[inline(always)]
fn word(w: u32, after: usize) -> u32 {
    TABLES[after + 3][(w & 0xFF) as usize]
        ^ TABLES[after + 2][((w >> 8) & 0xFF) as usize]
        ^ TABLES[after + 1][((w >> 16) & 0xFF) as usize]
        ^ TABLES[after][(w >> 24) as usize]
}

/// One kernel step: the register after the 16 bytes of `s`. The
/// register only enters the first word; the other three lookup groups
/// are independent of it and of each other.
#[inline(always)]
fn step(crc: u32, s: &[u8]) -> u32 {
    word(u32::from_le_bytes([s[0], s[1], s[2], s[3]]) ^ crc, 12)
        ^ word(u32::from_le_bytes([s[4], s[5], s[6], s[7]]), 8)
        ^ word(u32::from_le_bytes([s[8], s[9], s[10], s[11]]), 4)
        ^ word(u32::from_le_bytes([s[12], s[13], s[14], s[15]]), 0)
}

/// Inputs at least this long run in three lanes; below it the join's
/// two or three multiplies cost about what they save (lanes win by a
/// third at 512 bytes and by a twentieth at 256; `docs/PERFORMANCE.md`,
/// "Fan-out pays once").
const LANES_MIN: usize = 512;

/// Streaming CRC-32 register update over `data` (raw register: seed
/// with `!0`, finish by XORing with `!0`). Splitting `data` anywhere
/// and chaining the calls gives the same register.
pub fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    if data.len() < LANES_MIN {
        return serial(crc, data);
    }
    // Three equal blocks, each down its own dependency chain in the
    // same loop, joined by linearity (see `crc32_shift`).
    let n = data.len() / (3 * SLICE) * SLICE;
    let (a, rest) = data.split_at(n);
    let (b, rest) = rest.split_at(n);
    let (c, tail) = rest.split_at(n);
    let (mut ra, mut rb, mut rc) = (crc, 0, 0);
    let mut i = 0;
    while i < n {
        ra = step(ra, &a[i..i + SLICE]);
        rb = step(rb, &b[i..i + SLICE]);
        rc = step(rc, &c[i..i + SLICE]);
        i += SLICE;
    }
    let f = zeros_factor(n);
    serial(mul_mod_p(f, mul_mod_p(f, ra) ^ rb) ^ rc, tail)
}

/// [`crc32_update`] down one chain: short inputs and the lanes' tail.
fn serial(mut crc: u32, data: &[u8]) -> u32 {
    let mut rest = data;
    while let Some((s, tail)) = rest.split_first_chunk::<SLICE>() {
        crc = step(crc, s);
        rest = tail;
    }
    for &b in rest {
        crc = TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-32 (IEEE) of `data` in one shot.
///
/// ```
/// // The standard check value.
/// assert_eq!(thinc_protocol::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(!0, data) ^ !0
}

/// `a · b mod P` over GF(2), in the reflected representation (bit 31
/// is x⁰). Branchless: each of the 32 steps masks instead of testing a
/// bit, so the cost does not depend on the operands.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut i = 0;
    while i < 32 {
        product ^= b & 0u32.wrapping_sub((a >> (31 - i)) & 1);
        b = (b >> 1) ^ (POLY & 0u32.wrapping_sub(b & 1));
        i += 1;
    }
    product
}

/// x^(2^32) = x mod P: the order of x divides 2³² − 1, so a shift may
/// take its length modulo 2³² − 1 (see [`zeros_factor`]).
const _: () = {
    let mut x = 1u32 << 30; // x¹
    let mut k = 0;
    while k < 32 {
        x = mul_mod_p(x, x);
        k += 1;
    }
    assert!(x == 1 << 30);
};

/// Byte windows of a (reduced) length: a 32-bit length has four.
const WINDOWS: usize = 4;

/// `ZEROS[k][b]` is x^(8·b·256^k) mod P: the factor `b · 256^k` zero
/// bytes multiply a register by. `ZEROS[k][0]` is x⁰.
static ZEROS: [[u32; 256]; WINDOWS] = {
    let mut t = [[0u32; 256]; WINDOWS];
    // x^(8·256^k): x⁸ for the first window, each next window's the
    // previous window's to the 256th.
    let mut unit = 1u32 << 23; // x⁸
    let mut k = 0;
    while k < WINDOWS {
        t[k][0] = 1 << 31; // x⁰
        let mut b = 1;
        while b < 256 {
            t[k][b] = mul_mod_p(t[k][b - 1], unit);
            b += 1;
        }
        unit = mul_mod_p(t[k][255], unit);
        k += 1;
    }
    t
};

/// The register `crc` becomes after `len` zero bytes:
/// `crc32_update(crc, &[0; len])` without the bytes — `crc · x^(8·len)
/// mod P`, at most one multiply per non-zero byte of `len`.
pub fn crc32_shift(crc: u32, len: usize) -> u32 {
    mul_mod_p(zeros_factor(len), crc)
}

/// x^(8·`len`) mod P: the factor `len` zero bytes multiply a register
/// by, as the product of one table entry per byte window of `len`.
fn zeros_factor(len: usize) -> u32 {
    // x^(8·(2³²−1)) = 1, so only `len` modulo 2³² − 1 matters: a no-op
    // below it.
    let n = (len as u64 % 0xFFFF_FFFF) as u32;
    let mut factor = ZEROS[0][(n & 0xFF) as usize];
    let mut k = 1;
    while k < WINDOWS {
        let b = (n >> (8 * k)) & 0xFF;
        if b != 0 {
            factor = mul_mod_p(ZEROS[k][b as usize], factor);
        }
        k += 1;
    }
    factor
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    #[test]
    fn published_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn kernel_matches_the_reference_around_every_step_boundary() {
        // Every short length, then every length from one lane round
        // below the lane threshold to eight rounds above it: each side
        // of the threshold, and each tail length 0..48 around eight
        // multiples of 3·16.
        let round = 3 * SLICE;
        let short = 0..=4 * SLICE + 3;
        let lanes = LANES_MIN - round..=LANES_MIN + 8 * round;
        let data: Vec<u8> = (0..(SLICE + *lanes.end()) as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..SLICE {
            for len in short.clone().chain(lanes.clone()) {
                let piece = &data[start..start + len];
                for seed in [0, !0, 0x1234_5678] {
                    assert_eq!(
                        crc32_update(seed, piece),
                        reference::crc32_update(seed, piece),
                        "start {start} len {len} seed {seed:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn shift_is_the_zero_byte_update() {
        let zeros = vec![0u8; 5000];
        for seed in [0u32, 1, !0, 0xDEAD_BEEF] {
            for len in (0..200).chain([255, 256, 257, 4095, 4096, 4097, 5000]) {
                assert_eq!(
                    crc32_shift(seed, len),
                    reference::crc32_update(seed, &zeros[..len]),
                    "seed {seed:#x} len {len}"
                );
            }
        }
    }

    #[test]
    fn shift_matches_the_reference_at_every_byte_window_boundary() {
        // Every table entry on its own, each side of every window's
        // carry, the reduction modulo 2³² − 1 and the top of the
        // length range.
        let mut lens: Vec<usize> = (0..WINDOWS).flat_map(|k| (0..256).map(move |b| b << (8 * k))).collect();
        lens.extend([usize::MAX, usize::MAX - 1]);
        for k in 1..usize::BITS / 8 {
            let edge = 1usize << (8 * k);
            lens.extend([edge - 2, edge - 1, edge, edge + 1]);
        }
        lens.extend([0xFFFF_FFFE, 0x1_FFFF_FFFE, 0x1_FFFF_FFFF, 0x2_0000_0000]);
        for seed in [1u32 << 31, !0, 0x8BAD_F00D] {
            for &len in &lens {
                assert_eq!(
                    crc32_shift(seed, len),
                    reference::crc32_shift(seed, len),
                    "seed {seed:#x} len {len:#x}"
                );
            }
        }
    }
}
