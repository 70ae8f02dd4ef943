//! Retained naive references: the executable specification.
//!
//! Byte-at-a-time versions of the RLE and LZSS encoders, of the LZSS
//! decoder and of the scanline filter in both directions, kept
//! from before each was rewritten for throughput. The
//! optimized encoders are required to produce **identical output
//! bytes** (not merely a decodable stream) and the optimized decoders
//! identical output and the same accept/reject verdict, so the
//! property tests in `tests/equivalence.rs` assert
//! `optimized == reference` directly, and the `perfgate` harness times
//! the pairs for the committed speedup trajectory.

const WINDOW: usize = 4096;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = MIN_MATCH + 15 + 255 * 3;
const LEN_EXT: usize = 15;
const HASH_BITS: usize = 13;

/// Naive byte RLE encoder ([`crate::rle::compress`] before word-width
/// run scanning).
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let mut i = 0;
    while i < data.len() {
        // Measure the run starting at i, one byte at a time.
        let b = data[i];
        let mut run = 1;
        while i + run < data.len() && data[i + run] == b && run < 129 {
            run += 1;
        }
        if run >= 2 {
            out.push(0x80 + (run - 2) as u8);
            out.push(b);
            i += run;
        } else {
            let start = i;
            let mut lits = 0;
            while i < data.len() && lits < 128 {
                let b = data[i];
                let mut run = 1;
                while i + run < data.len() && data[i + run] == b && run < 3 {
                    run += 1;
                }
                if run >= 3 {
                    break;
                }
                i += 1;
                lits += 1;
            }
            out.push((lits - 1) as u8);
            out.extend_from_slice(&data[start..start + lits]);
        }
    }
    out
}

/// Naive symbol RLE encoder ([`crate::rle::compress_symbols`] before
/// the scanning rewrite).
///
/// # Panics
///
/// Panics if `sym` is zero.
pub fn rle_compress_symbols(data: &[u8], sym: usize) -> Vec<u8> {
    assert!(sym > 0, "symbol size must be positive");
    if sym == 1 {
        return rle_compress(data);
    }
    let mut out = Vec::with_capacity(data.len() / 4 + 8);
    let n = data.len() / sym;
    let mut i = 0;
    while i < n {
        let cur = &data[i * sym..(i + 1) * sym];
        let mut run = 1;
        while i + run < n && &data[(i + run) * sym..(i + run + 1) * sym] == cur && run < 129 {
            run += 1;
        }
        if run >= 2 {
            out.push(0x80 + (run - 2) as u8);
            out.extend_from_slice(cur);
            i += run;
        } else {
            let start = i;
            let mut lits = 0;
            while i < n && lits < 128 / sym.max(1) + 1 {
                if i + 1 < n && data[i * sym..(i + 1) * sym] == data[(i + 1) * sym..(i + 2) * sym]
                {
                    break;
                }
                i += 1;
                lits += 1;
            }
            out.push((lits - 1) as u8);
            out.extend_from_slice(&data[start * sym..(start + lits) * sym]);
        }
    }
    let tail = &data[n * sym..];
    if !tail.is_empty() {
        out.push((tail.len() - 1) as u8);
        out.extend_from_slice(tail);
    }
    out
}

fn hash(data: &[u8], i: usize) -> usize {
    let h = (data[i] as u32)
        .wrapping_mul(2654435761)
        .wrapping_add((data[i + 1] as u32).wrapping_mul(40503))
        .wrapping_add(data[i + 2] as u32);
    (h as usize) & ((1 << HASH_BITS) - 1)
}

/// Naive LZSS encoder ([`crate::lzss::compress`] with byte-at-a-time
/// match extension).
pub fn lzss_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; WINDOW];
    let mut i = 0;
    let mut flags_pos = usize::MAX;
    let mut flag_bit = 8;

    let mut push_item = |out: &mut Vec<u8>, is_match: bool, payload: &[u8]| {
        if flag_bit == 8 {
            flags_pos = out.len();
            out.push(0);
            flag_bit = 0;
        }
        if is_match {
            out[flags_pos] |= 1 << flag_bit;
        }
        flag_bit += 1;
        out.extend_from_slice(payload);
    };

    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let h = hash(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && cand + WINDOW > i && chain < 32 {
                if cand < i {
                    let max = MAX_MATCH.min(data.len() - i);
                    let mut l = 0;
                    while l < max && data[cand + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == MAX_MATCH {
                            break;
                        }
                    }
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let mut extra = best_len - MIN_MATCH;
            let code = extra.min(LEN_EXT);
            let token = (((best_dist - 1) as u16) << 4) | (code as u16);
            let mut payload = token.to_le_bytes().to_vec();
            if code == LEN_EXT {
                extra -= LEN_EXT;
                loop {
                    let b = extra.min(255);
                    payload.push(b as u8);
                    extra -= b;
                    if b < 255 {
                        break;
                    }
                }
            }
            push_item(&mut out, true, &payload);
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= data.len() {
                    let h = hash(data, i);
                    prev[i % WINDOW] = head[h];
                    head[h] = i;
                }
                i += 1;
            }
        } else {
            push_item(&mut out, false, &data[i..i + 1]);
            if i + MIN_MATCH <= data.len() {
                let h = hash(data, i);
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out
}

/// Naive LZSS decoder ([`crate::lzss::decompress`] with byte-at-a-time
/// match copies and no output bound).
pub fn lzss_decompress(data: &[u8]) -> Option<Vec<u8>> {
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

/// The Paeth predictor as PNG states it (a = left, b = above,
/// c = upper-left).
pub(crate) fn paeth(a: u8, b: u8, c: u8) -> u8 {
    let p = a as i32 + b as i32 - c as i32;
    let pa = (p - a as i32).abs();
    let pb = (p - b as i32).abs();
    let pc = (p - c as i32).abs();
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Byte `i` of a row's prediction under the filter with PNG tag
/// `tag`; `row` holds unfiltered bytes up to `i`, `prev` is the
/// unfiltered row above or empty.
fn predict(tag: u8, row: &[u8], prev: &[u8], bpp: usize, i: usize) -> u8 {
    let a = if i >= bpp { row[i - bpp] } else { 0 };
    let b = if prev.is_empty() { 0 } else { prev[i] };
    let c = if i >= bpp && !prev.is_empty() { prev[i - bpp] } else { 0 };
    match tag {
        0 => 0,
        1 => a,
        2 => b,
        3 => ((a as u16 + b as u16) / 2) as u8,
        _ => paeth(a, b, c),
    }
}

/// Naive adaptive scanline filter ([`crate::filter::apply`] one byte
/// and one filter at a time): every row is filtered five times into a
/// scratch row, scored, and the first filter of the least score kept.
///
/// # Panics
///
/// Panics if `bpp` or `stride` is zero.
pub fn filter_apply(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
    assert!(bpp > 0 && stride > 0, "bad geometry");
    let mut out = Vec::new();
    let mut prev: &[u8] = &[];
    let mut scratch = Vec::new();
    for row in data.chunks(stride) {
        let p = if prev.len() == row.len() { prev } else { &[] };
        let mut best = 0u8;
        let mut best_score = u64::MAX;
        for tag in 0..5u8 {
            scratch.clear();
            scratch.extend((0..row.len()).map(|i| row[i].wrapping_sub(predict(tag, row, p, bpp, i))));
            let score: u64 = scratch.iter().map(|&b| (b as i8).unsigned_abs() as u64).sum();
            if score < best_score {
                best_score = score;
                best = tag;
            }
        }
        out.push(best);
        out.extend((0..row.len()).map(|i| row[i].wrapping_sub(predict(best, row, p, bpp, i))));
        prev = row;
    }
    out
}

/// Naive unfilter ([`crate::filter::unapply`] with the filter type
/// matched per byte).
pub fn filter_unapply(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    if bpp == 0 || stride == 0 {
        return None;
    }
    let mut out: Vec<u8> = Vec::with_capacity(data.len());
    let mut i = 0;
    let mut prev_row: Option<(usize, usize)> = None; // (offset, len) in out.
    while i < data.len() {
        let tag = data[i];
        if tag > 4 {
            return None;
        }
        i += 1;
        let row_len = stride.min(data.len() - i);
        if row_len == 0 {
            return None;
        }
        let row_start = out.len();
        out.extend_from_slice(&data[i..i + row_len]);
        i += row_len;
        let (head, row) = out.split_at_mut(row_start);
        let prev: &[u8] = match prev_row {
            Some((off, len)) if len == row_len => &head[off..off + len],
            _ => &[],
        };
        for k in 0..row_len {
            row[k] = row[k].wrapping_add(predict(tag, row, prev, bpp, k));
        }
        prev_row = Some((row_start, row_len));
    }
    Some(out)
}

/// Naive PNG-like encoder (naive filter + naive LZSS), for end-to-end
/// encoder-equality checks.
pub fn pnglike_compress(data: &[u8], bpp: usize, stride: usize) -> Vec<u8> {
    lzss_compress(&filter_apply(data, bpp, stride))
}

/// Naive PNG-like decoder (naive LZSS decoder + naive unfilter).
pub fn pnglike_decompress(data: &[u8], bpp: usize, stride: usize) -> Option<Vec<u8>> {
    filter_unapply(&lzss_decompress(data)?, bpp, stride)
}
