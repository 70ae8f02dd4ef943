//! Retained naive reference kernels.
//!
//! The byte-at-a-time CRC-32 loop every frame and checkpoint was
//! checked with before [`crate::crc`] went word-wide, kept verbatim.
//! The optimized kernel must return the **same register for every
//! input and every split of it**, so the property tests assert
//! `optimized == reference` directly and `perfgate` times the pair.
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
