//! Retained naive reference kernels.
//!
//! The byte-at-a-time CRC-32 loop every frame and checkpoint was
//! checked with before [`crate::crc`] went word-wide, and the
//! bit-serial zero-byte shift frames composed their CRC with before it
//! went table-driven, kept verbatim. The optimized kernels must return
//! the **same register for every input and every split of it**, so
//! the property tests assert `optimized == reference` directly and
//! `perfgate` times the update pair.
//! Nothing on a delivery path calls this module.

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Byte-serial CRC-32 register update ([`crate::crc::crc32_update`]
/// before slicing): one table lookup per input byte.
pub fn crc32_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// `a · b mod P` over GF(2), in the reflected representation (bit 31
/// is x⁰): one conditional XOR per bit of `a`.
const fn mul_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ 0xEDB8_8320 } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X_POW_2K[k]` is x^(2^k) mod P. The order of x divides 2³²−1, so
/// x^(2^32) = x and the table is indexed modulo 32.
static X_POW_2K: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x¹
    let mut k = 1;
    while k < 32 {
        t[k] = mul_mod_p(t[k - 1], t[k - 1]);
        k += 1;
    }
    t
};

/// Bit-serial zero-byte shift ([`crate::crc::crc32_shift`] before its
/// byte-window tables): `crc · x^(8·len) mod P`, one multiply per set
/// bit of `len`.
pub fn crc32_shift(crc: u32, len: usize) -> u32 {
    let mut factor = 1u32 << 31; // x⁰
    let mut n = len;
    let mut k = 3; // x^(8·len) = x^(len·2³)
    while n != 0 {
        if n & 1 != 0 {
            factor = mul_mod_p(X_POW_2K[k & 31], factor);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_p(factor, crc)
}
