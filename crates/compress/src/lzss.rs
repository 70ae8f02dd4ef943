//! LZSS dictionary coding with a hash-chain match finder.
//!
//! Format: groups of 8 items prefixed by a flag byte (LSB first). Flag
//! bit 0 = literal byte; flag bit 1 = match, encoded as two bytes:
//! 12-bit distance (1..=4096) and a 4-bit length code. Length codes
//! 0..=14 mean length `code + MIN_MATCH`; code 15 is followed by
//! LZ4-style extension bytes (each adds its value; a 255 byte means
//! "continue"), so long runs compress to a handful of bytes. The
//! window is 4 KiB; this is the classic LZSS layout and is
//! deliberately simple — the paper only needs "off-the-shelf
//! compression"-class behaviour, not a state-of-the-art entropy coder.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
/// Longest match the encoder will emit (bounded to keep extension
/// byte chains short; 3 extension bytes at most).
const MAX_MATCH: usize = MIN_MATCH + 15 + 255 * 3;
const LEN_EXT: usize = 15;
const HASH_BITS: usize = 13;

fn hash(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(40503))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & ((1 << HASH_BITS) - 1)
}

/// Bytes past a position that a non-final [`Encoder::feed`] must hold
/// before it parses that position: the longest match it can emit there
/// plus the hash reads of that match's last covered positions.
const LOOKAHEAD: usize = MAX_MATCH + MIN_MATCH - 1;

/// Compresses `data` with LZSS.
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    compress_into(data, &mut out);
    out
}

/// Compresses `data` with LZSS into a caller-owned buffer (cleared
/// first) so repeated encodes reuse the allocation.
///
/// Output bytes are identical to [`crate::reference::lzss_compress`].
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    out.clear();
    let fits = Encoder::new().feed(data, true, usize::MAX, out);
    debug_assert!(fits, "an unbounded encode cannot pass its bound");
}

/// The LZSS encoder as a resumable parse over a growing input.
///
/// A producer that makes its input in pieces (the PNG-like pipeline
/// filters rows in bands) calls [`feed`](Self::feed) with every
/// longer prefix; each call parses only the positions whose match
/// cannot depend on bytes not yet present, so the stream is the
/// one-shot stream whatever the prefix schedule. An output bound lets
/// the caller stop paying as soon as the stream is known to be too
/// long to be of use.
///
/// Match candidates come from the hash-chain finder; candidate match
/// lengths are extended a machine word at a time (`eq_len`),
/// which is where the encoder spends most of its cycles.
#[derive(Debug)]
pub struct Encoder {
    /// `head[h]` = most recent position with hash `h`.
    head: Vec<usize>,
    /// `prev[i % WINDOW]` = the position before `i` on its hash chain.
    prev: Vec<usize>,
    /// Next input position to parse.
    pos: usize,
    flags_pos: usize,
    flag_bit: u8,
}

impl Default for Encoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Encoder {
    /// A fresh encoder at input position 0.
    pub fn new() -> Self {
        Self {
            head: vec![usize::MAX; 1 << HASH_BITS],
            prev: vec![usize::MAX; WINDOW],
            pos: 0,
            flags_pos: usize::MAX,
            flag_bit: 8,
        }
    }

    /// Input bytes parsed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    /// Parses as much of `data` as is decidable and appends the items
    /// to `out`. `data` is the whole input so far — every earlier call
    /// must have passed a prefix of it — and `last` says no more will
    /// follow, so the tail is parsed too. `out` must not be touched
    /// between calls (the open flag byte lives in it).
    ///
    /// Returns `false`, leaving the parse where it stopped, as soon as
    /// `out` is longer than `limit`: the finished stream can only be
    /// longer still.
    pub fn feed(&mut self, data: &[u8], last: bool, limit: usize, out: &mut Vec<u8>) -> bool {
        let stop = if last {
            data.len()
        } else {
            (data.len() + 1).saturating_sub(LOOKAHEAD)
        };
        let mut i = self.pos;
        while i < stop {
            if out.len() > limit {
                break;
            }
            let mut best_len = 0;
            let mut best_dist = 0;
            if i + MIN_MATCH <= data.len() {
                let mut cand = self.head[hash(data, i)];
                let mut chain = 0;
                while cand != usize::MAX && cand + WINDOW > i && chain < 32 {
                    if cand < i {
                        let max = MAX_MATCH.min(data.len() - i);
                        let l = crate::eq_len(data, cand, i, max);
                        if l > best_len {
                            best_len = l;
                            best_dist = i - cand;
                            if l == MAX_MATCH {
                                break;
                            }
                        }
                    }
                    cand = self.prev[cand % WINDOW];
                    chain += 1;
                }
            }
            if best_len >= MIN_MATCH {
                let mut extra = best_len - MIN_MATCH;
                let code = extra.min(LEN_EXT);
                let token = (((best_dist - 1) as u16) << 4) | (code as u16);
                self.open_item(true, out);
                out.extend_from_slice(&token.to_le_bytes());
                if code == LEN_EXT {
                    extra -= LEN_EXT;
                    loop {
                        let b = extra.min(255);
                        out.push(b as u8);
                        extra -= b;
                        if b < 255 {
                            break;
                        }
                    }
                }
            } else {
                best_len = 1;
                self.open_item(false, out);
                out.push(data[i]);
            }
            // Insert hash entries for every covered position.
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data, i);
                    self.prev[i % WINDOW] = self.head[h];
                    self.head[h] = i;
                }
                i += 1;
            }
        }
        self.pos = i;
        out.len() <= limit
    }

    /// Claims the next flag bit for an item, opening a new flag byte
    /// every eighth item.
    #[inline]
    fn open_item(&mut self, is_match: bool, out: &mut Vec<u8>) {
        if self.flag_bit == 8 {
            self.flags_pos = out.len();
            out.push(0);
            self.flag_bit = 0;
        }
        if is_match {
            out[self.flags_pos] |= 1 << self.flag_bit;
        }
        self.flag_bit += 1;
    }
}

/// Decompresses LZSS data; returns `None` on malformed input.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) != 0 {
                if i + 2 > data.len() {
                    return None;
                }
                let token = u16::from_le_bytes([data[i], data[i + 1]]);
                i += 2;
                let dist = ((token >> 4) as usize) + 1;
                let mut len = ((token & 0xF) as usize) + MIN_MATCH;
                if (token & 0xF) as usize == LEN_EXT {
                    loop {
                        let b = *data.get(i)?;
                        i += 1;
                        len += b as usize;
                        if b < 255 {
                            break;
                        }
                    }
                }
                if dist > out.len() {
                    return None;
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            } else {
                out.push(data[i]);
                i += 1;
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_text() {
        let data = b"the quick brown fox jumps over the lazy dog, the quick brown fox";
        let c = compress(data);
        assert!(c.len() < data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn round_trip_empty_and_tiny() {
        for d in [&b""[..], b"a", b"ab", b"abc"] {
            assert_eq!(decompress(&compress(d)).unwrap(), d);
        }
    }

    #[test]
    fn long_repetition_compresses_hard() {
        let data = b"abcd".repeat(1000);
        let c = compress(&data);
        assert!(c.len() < data.len() / 5, "{} bytes", c.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn overlapping_match_copy() {
        // "aaaa..." forces dist=1 matches that overlap their own output.
        let data = vec![b'a'; 500];
        let c = compress(&data);
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn window_boundary_matches() {
        // Repeat a block at exactly WINDOW distance.
        let block: Vec<u8> = (0..64).map(|i| (i * 37 % 251) as u8).collect();
        let mut data = block.clone();
        data.extend(std::iter::repeat(0u8).take(WINDOW - 64));
        data.extend_from_slice(&block);
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn incompressible_random_round_trips() {
        // LCG noise; should still round trip even if it expands.
        let mut x = 123456789u64;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn every_two_step_feed_of_a_long_run_is_the_one_shot_stream() {
        // Maximum-length matches end to end: the case where a parse
        // made too close to the end of a prefix would see a shorter
        // match than the one-shot encoder does.
        let mut data = vec![0u8; 2 * MAX_MATCH + 40];
        data[MAX_MATCH + 7] = 1;
        let want = compress(&data);
        for cut in 0..=data.len() {
            let mut coder = Encoder::new();
            let mut out = Vec::new();
            assert!(coder.feed(&data[..cut], false, usize::MAX, &mut out));
            assert!(coder.feed(&data, true, usize::MAX, &mut out));
            assert_eq!(out, want, "cut at {cut}");
        }
    }

    #[test]
    fn feed_stops_once_the_stream_passes_its_limit() {
        let data: Vec<u8> = (0..4000u32).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
        let full = compress(&data).len();
        let mut out = Vec::new();
        let mut coder = Encoder::new();
        assert!(!coder.feed(&data, true, full - 1, &mut out));
        assert!(coder.consumed() <= data.len());
        let mut coder = Encoder::new();
        out.clear();
        assert!(!coder.feed(&data, true, 100, &mut out));
        assert!(coder.consumed() < 200, "gave up after {} bytes", coder.consumed());
        let mut coder = Encoder::new();
        out.clear();
        assert!(coder.feed(&data, true, full, &mut out));
        assert_eq!(out.len(), full);
    }

    #[test]
    fn bad_distance_rejected() {
        // Flag says match, token points before start of output.
        let bad = [0x01u8, 0xFF, 0xFF];
        assert_eq!(decompress(&bad), None);
    }

    #[test]
    fn truncated_match_rejected() {
        let bad = [0x01u8, 0x00];
        assert_eq!(decompress(&bad), None);
    }
}
