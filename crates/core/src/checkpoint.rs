//! Crash-consistent session checkpointing (the failover layer).
//!
//! A checkpoint is a deterministic, self-validating serialization of
//! one [`SharedSession`](crate::session::SharedSession)'s full
//! delivery state: framebuffer tile digests, every client's pending
//! command queues (with their exact clipped visibility and scheduler
//! slots), refresh/overflow debt, degradation-ladder level, cache
//! ledger contents in LRU order, and sequence counters. A warm
//! standby that restores the checkpoint and receives redialing
//! clients converges byte-exact with a server that never crashed —
//! the delta between checkpoint-time and live screen content travels
//! as ordinary refresh debt, not a full-screen retransmit.
//!
//! ## Format
//!
//! ```text
//! [magic "THNC"][version u16 LE][payload_len u32 LE][crc32 u32 LE]
//! [payload: payload_len bytes]
//! ```
//!
//! The CRC32 (same polynomial as the wire's integrity frames) covers
//! the payload. [`open`] enforces the exact total length, so *any*
//! truncation, extension or bit flip of a valid checkpoint yields a
//! typed [`CheckpointError`] — never a panic, never a silently wrong
//! restore. The version field gates layout changes.
//!
//! The payload is the session's record, and each block of it is a
//! struct declared with [`thinc_protocol::record!`] beside the code
//! that fills and reads it: its fields are the layout, in the wire
//! codec's [`Field`] encodings, and encode and decode both walk them.
//! What cannot be a field's own rule — a check that reads another
//! field or the policy — is code beside the record, run on restore.
//! `docs/ROBUSTNESS.md` prints every record's fields.

use thinc_protocol::codec::{payload, BufMut, Field};
use thinc_protocol::hash::fnv64;
use thinc_protocol::message::Message;
use thinc_protocol::wire::{decode_message, encode_message};
use thinc_protocol::DecodeError;
use thinc_raster::{Framebuffer, Rect, Region};

/// Leading magic of every checkpoint image.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"THNC";

/// Layout version written by this build. Version 7 drops the
/// session's flush worker count (a session runs on one thread);
/// version 6 dropped the delivery policy's server-side-scaling flag
/// (every viewer is scaled to its viewport); version 5 dropped the
/// cache record's queue of miss answers. A keyed viewer's session key
/// is in its delivery record, and there is one image, the session's.
/// There is no decoder for older layouts: a standby runs its primary's
/// build.
pub const CHECKPOINT_VERSION: u16 = 7;

/// Header bytes before the payload: magic + version + length + CRC.
pub const CHECKPOINT_HEADER_LEN: usize = 4 + 2 + 4 + 4;

/// Why a checkpoint image could not be restored.
///
/// Every variant is a *typed* refusal: a corrupted, truncated or
/// stale checkpoint can never panic the server — the caller falls
/// back to a cold start (fresh session, full-screen refresh).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The image does not start with the `THNC` magic.
    BadMagic,
    /// The image was written by an unknown layout version.
    UnsupportedVersion(u16),
    /// The image is shorter (or longer) than its header promises.
    Truncated,
    /// The payload bytes do not match the header checksum.
    CrcMismatch,
    /// The payload passed its checksum but is not a state this build
    /// writes: a field that runs off the end of the payload, an
    /// impossible value (bad code byte, malformed embedded message,
    /// ...) or a check across fields that fails.
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "not a THINC checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::CrcMismatch => write!(f, "checkpoint payload checksum mismatch"),
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A field that does not decode. Every field of a record reports
/// [`DecodeError::Malformed`], a count or length past the payload's end
/// included.
impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Malformed(what) => CheckpointError::Malformed(what),
            _ => CheckpointError::Malformed("undecodable field"),
        }
    }
}

/// Seals `payload` into a versioned, CRC-guarded checkpoint image.
pub fn seal(payload: Vec<u8>) -> Vec<u8> {
    let mut out = Vec::with_capacity(CHECKPOINT_HEADER_LEN + payload.len());
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&thinc_protocol::wire::crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Validates a checkpoint image and returns its payload slice.
///
/// Enforces magic, version, *exact* total length and the payload
/// CRC, in that order — so every way an image can be damaged maps to
/// one deterministic [`CheckpointError`].
pub fn open(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < CHECKPOINT_HEADER_LEN {
        // Too short to even read the magic/header: if what's there
        // doesn't match the magic, say so (more useful than
        // "truncated" for a file that was never a checkpoint).
        if !bytes.starts_with(&CHECKPOINT_MAGIC[..bytes.len().min(4)]) {
            return Err(CheckpointError::BadMagic);
        }
        return Err(CheckpointError::Truncated);
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != CHECKPOINT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([bytes[6], bytes[7], bytes[8], bytes[9]]) as usize;
    if bytes.len() != CHECKPOINT_HEADER_LEN + len {
        return Err(CheckpointError::Truncated);
    }
    let crc = u32::from_le_bytes([bytes[10], bytes[11], bytes[12], bytes[13]]);
    let payload = &bytes[CHECKPOINT_HEADER_LEN..];
    if thinc_protocol::wire::crc32(payload) != crc {
        return Err(CheckpointError::CrcMismatch);
    }
    Ok(payload)
}

/// Tile edge (pixels) of the screen digest grid.
pub const DIGEST_TILE: u32 = 16;

/// Per-tile content digests of a framebuffer: the checkpoint's record
/// of *what the screen looked like* when it was taken. Comparing a
/// restored checkpoint's digests against the live screen yields the
/// exact region a warm-resumed client must be refreshed over — the
/// delta — instead of the whole screen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileDigests {
    /// Screen width the grid was computed over.
    pub width: u32,
    /// Screen height the grid was computed over.
    pub height: u32,
    /// Row-major FNV-1a 64 digests, one per tile of the grid
    /// (`ceil(width / DIGEST_TILE)` columns, `ceil(height /
    /// DIGEST_TILE)` rows, at least one of each).
    pub digests: Vec<u64>,
}

impl TileDigests {
    /// Digests every `DIGEST_TILE`-edge tile of `screen`.
    pub fn of(screen: &Framebuffer) -> Self {
        let (width, height) = (screen.width(), screen.height());
        let (cols, rows) = grid(width, height);
        let mut tiles = Self { width, height, digests: Vec::with_capacity((cols * rows) as usize) };
        for ty in 0..rows {
            for tx in 0..cols {
                let (_, data) = screen.get_raw(&tiles.tile(tx, ty));
                tiles.digests.push(fnv64(&data));
            }
        }
        tiles
    }

    /// The screen rectangle of the tile in column `tx`, row `ty`.
    fn tile(&self, tx: u32, ty: u32) -> Rect {
        let (x, y) = (tx * DIGEST_TILE, ty * DIGEST_TILE);
        Rect::new(x as i32, y as i32, DIGEST_TILE.min(self.width - x), DIGEST_TILE.min(self.height - y))
    }

    /// The session-space region whose tiles differ between `self`
    /// (the checkpoint-time screen) and `live` (the current screen).
    /// Mismatched geometry returns the whole live screen — the safe
    /// overapproximation.
    pub fn delta(&self, live: &TileDigests) -> Region {
        if self.width != live.width
            || self.height != live.height
            || self.digests.len() != live.digests.len()
        {
            return Region::from_rect(Rect::new(0, 0, live.width, live.height));
        }
        let (cols, _) = grid(self.width, self.height);
        let mut delta = Region::new();
        for (i, (then, now)) in (0..).zip(self.digests.iter().zip(&live.digests)) {
            if then != now {
                delta.union_rect(&self.tile(i % cols, i / cols));
            }
        }
        delta
    }
}

/// The digest grid's columns and rows over a `width` × `height` screen.
fn grid(width: u32, height: u32) -> (u32, u32) {
    (width.div_ceil(DIGEST_TILE).max(1), height.div_ceil(DIGEST_TILE).max(1))
}

/// The screen's width and height, the grid's columns and rows, then
/// the digests, row-major, with no count. A grid other than the one the
/// width and height make is malformed: its tiles would run past the
/// screen's edges.
impl Field for TileDigests {
    const MIN_LEN: u64 = 16;
    fn put(&self, out: &mut impl BufMut) {
        let (cols, rows) = grid(self.width, self.height);
        [self.width, self.height, cols, rows].put(out);
        u64::put_seq(&self.digests, out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let [width, height, cols, rows] = <[u32; 4]>::get(buf)?;
        if (cols, rows) != grid(width, height) {
            return Err(DecodeError::Malformed("tile grid"));
        }
        // Reads fail at the payload's end, so a grid larger than what
        // is left stops there: what it reserves is in proportion to
        // the digests that are present, never to the grid.
        let digests = u64::get_seq((u64::from(cols) * u64::from(rows)) as usize, buf)?;
        Ok(Self { width, height, digests })
    }
    fn wire_len(&self) -> u64 {
        16 + 8 * self.digests.len() as u64
    }
}

/// A protocol message inside a record: its revision-1 frame as a byte
/// payload, which the frame must fill exactly.
pub(crate) struct Framed(pub(crate) Message);

impl Field for Framed {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        encode_message(&self.0).put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let frame = payload(buf)?;
        match decode_message(frame) {
            Ok((msg, used)) if used == frame.len() => Ok(Self(msg)),
            Ok(_) => Err(DecodeError::Malformed("trailing bytes inside embedded message")),
            Err(_) => Err(DecodeError::Malformed("embedded message does not decode")),
        }
    }
    fn wire_len(&self) -> u64 {
        4 + self.0.wire_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::PixelFormat;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"display state".to_vec();
        let image = seal(payload.clone());
        assert_eq!(open(&image).unwrap(), &payload[..]);
    }

    #[test]
    fn every_corruption_is_a_typed_error() {
        let image = seal(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Truncation at every prefix length.
        for cut in 0..image.len() {
            assert!(open(&image[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Extension.
        let mut long = image.clone();
        long.push(0);
        assert_eq!(open(&long), Err(CheckpointError::Truncated));
        // Every single-bit flip.
        for byte in 0..image.len() {
            for bit in 0..8 {
                let mut bad = image.clone();
                bad[byte] ^= 1 << bit;
                assert!(open(&bad).is_err(), "flip {byte}.{bit} accepted");
            }
        }
        // Wrong magic and version map to their own variants.
        let mut bad = image.clone();
        bad[0] = b'X';
        assert_eq!(open(&bad), Err(CheckpointError::BadMagic));
        let mut bad = image.clone();
        bad[4] = 0xFE;
        match open(&bad) {
            Err(CheckpointError::UnsupportedVersion(_)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    /// `value` written, sized, read back and written again to the same
    /// bytes, with nothing left over; every cut of it is an error.
    fn round_trip<T: Field>(value: &T) {
        let bytes = thinc_protocol::codec::to_bytes(value);
        assert_eq!(value.wire_len(), bytes.len() as u64);
        assert!(bytes.len() as u64 >= T::MIN_LEN);
        let mut rest = &bytes[..];
        let back = T::get(&mut rest).expect("a written field reads back");
        assert!(rest.is_empty());
        assert_eq!(thinc_protocol::codec::to_bytes(&back), bytes);
        for cut in 0..bytes.len() {
            assert!(T::get(&mut &bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn every_record_field_round_trips() {
        use crate::degradation::{DegradationConfig, DegradationLevel};
        use crate::delivery::{Ladder, SessionKey};
        use crate::scheduler::QueueSlot;
        round_trip(&TileDigests::of(&Framebuffer::new(40, 20, PixelFormat::Rgb888)));
        round_trip(&Framed(Message::CursorMove { x: -3, y: 4 }));
        round_trip(&QueueSlot::Realtime);
        round_trip(&QueueSlot::Normal(2));
        round_trip(&SessionKey(vec![7; 256]));
        round_trip(&Ladder(None));
        for level in DegradationLevel::ALL {
            round_trip(&level);
            assert_eq!(thinc_protocol::codec::to_bytes(&level), [level.index() as u8]);
            round_trip(&Ladder(Some(level)));
        }
        round_trip(&DegradationConfig::default());
        // What the rows alone cannot say is refused on read.
        let short_key = thinc_protocol::codec::to_bytes(&vec![7u8; 0]);
        assert!(SessionKey::get(&mut &short_key[..]).is_err());
        let mut framed = thinc_protocol::codec::to_bytes(&Framed(Message::VideoEnd { id: 1 }));
        framed[0] += 1;
        framed.push(0);
        assert_eq!(
            Framed::get(&mut &framed[..]).err(),
            Some(DecodeError::Malformed("trailing bytes inside embedded message"))
        );
    }

    #[test]
    fn the_doc_prints_every_record() {
        // docs/ROBUSTNESS.md's "Layout version 7" block names each
        // record, then its fields in wire order; a continuation line
        // is indented.
        let doc = include_str!("../../../docs/ROBUSTNESS.md");
        let block = doc
            .split("**Layout version 7.**")
            .nth(1)
            .and_then(|rest| rest.split("```text\n").nth(1))
            .and_then(|rest| rest.split("```").next())
            .expect("the layout block");
        let mut printed: Vec<(String, Vec<String>)> = Vec::new();
        for line in block.lines() {
            let mut words = line.split_whitespace().map(str::to_owned);
            if !line.starts_with(' ') {
                printed.push((words.next().expect("a record's name"), Vec::new()));
            }
            printed.last_mut().expect("a record's first line").1.extend(words);
        }
        let declared: Vec<(String, Vec<String>)> = [
            ("SESSION", crate::session::SessionRecord::FIELDS),
            ("MEMBER", crate::session::MemberRecord::FIELDS),
            ("DEGRADATION", crate::degradation::DegradationConfig::FIELDS),
            ("CLIENT", crate::delivery::ClientRecord::FIELDS),
            ("BUFFER", crate::buffer::checkpoint::BufferRecord::FIELDS),
            ("ENTRY", crate::buffer::checkpoint::EntryRecord::FIELDS),
            ("LEDGER", crate::buffer::checkpoint::LedgerRecord::FIELDS),
            ("LEDGER_ENTRY", crate::buffer::checkpoint::LedgerEntry::FIELDS),
        ]
        .iter()
        .map(|(name, fields)| (name.to_string(), fields.iter().map(|f| f.to_string()).collect()))
        .collect();
        assert_eq!(printed, declared, "docs/ROBUSTNESS.md against the records");
    }

    #[test]
    fn tile_digests_localize_the_delta() {
        let mut fb = Framebuffer::new(64, 48, PixelFormat::Rgb888);
        let before = TileDigests::of(&fb);
        assert!(before.delta(&before).is_empty(), "same screen, no delta");
        fb.fill_rect(&Rect::new(20, 20, 4, 4), thinc_raster::Color::rgb(9, 9, 9));
        let after = TileDigests::of(&fb);
        let delta = before.delta(&after);
        assert!(!delta.is_empty());
        assert!(delta.contains_rect(&Rect::new(20, 20, 4, 4)));
        // The change touched one 16x16 tile; the delta must not grow
        // past the tiles it actually dirtied.
        assert!(delta.area() <= (2 * DIGEST_TILE * DIGEST_TILE) as u64);
        // Mismatched geometry overapproximates to the full screen.
        let small = TileDigests::of(&Framebuffer::new(32, 32, PixelFormat::Rgb888));
        assert_eq!(
            small.delta(&after).bounds(),
            Rect::new(0, 0, 64, 48)
        );
    }

}
