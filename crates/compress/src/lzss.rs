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
/// "No position" in the match-finder tables.
const NIL: u32 = u32::MAX;

/// Hash of the `MIN_MATCH` bytes at the front of `at`.
#[inline(always)]
fn hash(at: &[u8]) -> usize {
    let h = (at[0] as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((at[1] as u32).wrapping_mul(40503))
        .wrapping_add(at[2] as u32);
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
/// Match candidates come from the hash-chain finder. A candidate is
/// measured (a machine word at a time, `eq_len`) only if it could
/// replace the best so far — it agrees with the cursor at the byte
/// just past the best length and on its first `MIN_MATCH` bytes — so
/// hash collisions and no-better repeats cost a few byte compares
/// instead of a scan. The parse is the reference's: the walk visits
/// the same candidates in the same order and keeps the first one of
/// the greatest length.
#[derive(Debug)]
pub struct Encoder {
    /// `head[h]` = most recent position with hash `h`.
    head: Box<[u32; 1 << HASH_BITS]>,
    /// `prev[i % WINDOW]` = the position before `i` on its hash chain.
    prev: Box<[u32; WINDOW]>,
    /// Next input position to parse.
    pos: usize,
    flags_pos: usize,
    flag_bit: u8,
}

/// A match-finder table of `N` empty entries, made on the heap.
fn table<const N: usize>() -> Box<[u32; N]> {
    vec![NIL; N].try_into().expect("a vec of N is an array of N")
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
            head: table(),
            prev: table(),
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
    ///
    /// # Panics
    ///
    /// Panics if `data` is 4 GiB or longer: the match finder keeps
    /// positions as `u32`.
    pub fn feed(&mut self, data: &[u8], last: bool, limit: usize, out: &mut Vec<u8>) -> bool {
        assert!(data.len() < NIL as usize, "input too long for the match finder");
        let stop = if last {
            data.len()
        } else {
            (data.len() + 1).saturating_sub(LOOKAHEAD)
        };
        // Positions below this have the MIN_MATCH bytes a hash reads.
        let hashable = data.len().saturating_sub(MIN_MATCH - 1);
        let (head, prev) = (&mut *self.head, &mut *self.prev);
        let (mut flags_pos, mut flag_bit) = (self.flags_pos, self.flag_bit);
        let mut i = self.pos;
        while i < stop {
            if out.len() > limit {
                break;
            }
            let mut best_len = 0;
            let mut best_dist = 0;
            if i < hashable {
                let h = hash(&data[i..]);
                let max = MAX_MATCH.min(data.len() - i);
                let mut cand = head[h];
                let mut chain = 0;
                // Chains only run backwards, so every candidate is
                // before `i`; one out of the window ends the walk.
                while cand != NIL && cand as usize + WINDOW > i && chain < 32 {
                    let c = cand as usize;
                    if data[c + best_len] == data[i + best_len]
                        && data[c..c + MIN_MATCH] == data[i..i + MIN_MATCH]
                    {
                        let l = crate::eq_len(data, c, i, max);
                        if l > best_len {
                            best_len = l;
                            best_dist = i - c;
                            // Nothing is longer than `max`, and the
                            // quick reject may not read past it.
                            if l == max {
                                break;
                            }
                        }
                    }
                    cand = prev[c % WINDOW];
                    chain += 1;
                }
                // The search hash is the insertion hash.
                prev[i % WINDOW] = head[h];
                head[h] = i as u32;
            }
            if flag_bit == 8 {
                flags_pos = out.len();
                out.push(0);
                flag_bit = 0;
            }
            if best_len >= MIN_MATCH {
                out[flags_pos] |= 1 << flag_bit;
                let mut extra = best_len - MIN_MATCH;
                let code = extra.min(LEN_EXT);
                let token = (((best_dist - 1) as u16) << 4) | (code as u16);
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
                out.push(data[i]);
            }
            flag_bit += 1;
            // Insert hash entries for the rest of the covered positions.
            let end = i + best_len;
            let covered = i + 1..end.min(hashable);
            if !covered.is_empty() {
                let bytes = &data[covered.start..covered.end + MIN_MATCH - 1];
                for (p, at) in covered.zip(bytes.windows(MIN_MATCH)) {
                    let h = hash(at);
                    prev[p % WINDOW] = head[h];
                    head[h] = p as u32;
                }
            }
            i = end;
        }
        self.pos = i;
        self.flags_pos = flags_pos;
        self.flag_bit = flag_bit;
        out.len() <= limit
    }
}

/// Matches up to this long are copied as one block of exactly this
/// size, a load and a store, and the surplus cut off again: a copy of
/// a length known only at run time costs more than the bytes.
const SHORT_MATCH: usize = 16;

/// Appends the `len` bytes that start `dist` back from the end of
/// `out`, which may run into the bytes being appended (`dist < len`).
/// `room` is how much longer `out` may get, and is at least `len`.
#[inline]
fn copy_match(out: &mut Vec<u8>, dist: usize, len: usize, room: usize) {
    let start = out.len() - dist;
    if len <= SHORT_MATCH && dist >= SHORT_MATCH && room >= SHORT_MATCH {
        let block: [u8; SHORT_MATCH] =
            out[start..start + SHORT_MATCH].try_into().expect("a slice of the array's length");
        out.extend_from_slice(&block);
        out.truncate(out.len() - (SHORT_MATCH - len));
        return;
    }
    // What is there repeats with period `dist`, so each block copied
    // from `start` doubles the span the next one may take.
    let mut span = dist;
    let mut left = len;
    while left > 0 {
        let n = span.min(left);
        out.extend_from_within(start..start + n);
        span += n;
        left -= n;
    }
}

/// Decompresses LZSS data; returns `None` on malformed input.
///
/// The output is as long as the stream says, which for a hostile one
/// is up to 255 bytes per input byte: a caller that knows how much to
/// expect should use [`decompress_into`].
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len() * 2);
    decompress_into(data, usize::MAX, &mut out).then_some(out)
}

/// [`decompress`] into a caller-owned buffer (cleared first) that is
/// never made longer than `limit` bytes: returns `false`, leaving
/// `out` unspecified, on malformed input and as soon as the stream
/// asks for more output than that. A caller that reserves
/// `limit.min(255 * data.len())` (no stream makes more than 255 bytes
/// per byte) sizes `out` once.
///
/// Accepts exactly the streams [`crate::reference::lzss_decompress`]
/// does (any length of extension chain included) and decodes them to
/// the same bytes.
pub fn decompress_into(data: &[u8], limit: usize, out: &mut Vec<u8>) -> bool {
    out.clear();
    let mut i = 0;
    while i < data.len() {
        let flags = data[i];
        i += 1;
        if flags == 0 {
            // Eight literals (fewer at the end of the stream).
            let n = (data.len() - i).min(8);
            if n > limit - out.len() {
                return false;
            }
            out.extend_from_slice(&data[i..i + n]);
            i += n;
            continue;
        }
        for bit in 0..8 {
            if i >= data.len() {
                break;
            }
            if flags & (1 << bit) == 0 {
                if out.len() == limit {
                    return false;
                }
                out.push(data[i]);
                i += 1;
                continue;
            }
            let Some(token) = data.get(i..i + 2) else {
                return false;
            };
            let token = u16::from_le_bytes([token[0], token[1]]);
            i += 2;
            let dist = (token >> 4) as usize + 1;
            let mut len = (token & 0xF) as usize + MIN_MATCH;
            if (token & 0xF) as usize == LEN_EXT {
                loop {
                    let Some(&b) = data.get(i) else {
                        return false;
                    };
                    i += 1;
                    len += b as usize;
                    if b < 255 {
                        break;
                    }
                }
            }
            let room = limit - out.len();
            if dist > out.len() || len > room {
                return false;
            }
            copy_match(out, dist, len, room);
        }
    }
    true
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
