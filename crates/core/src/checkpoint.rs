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
//! restore. The payload is a flat little-endian stream with no
//! self-describing structure; the version field gates layout changes.
//!
//! Like the chaos engine's JSON codec, everything here is hand-rolled
//! and dependency-free.

use thinc_protocol::hash::fnv64;
use thinc_raster::{Framebuffer, PixelFormat, Rect, Region};

/// Leading magic of every checkpoint image.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"THNC";

/// Layout version written by this build.
pub const CHECKPOINT_VERSION: u16 = 2;

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
    /// The image is shorter (or longer) than its header promises, or
    /// a field ran off the end of the payload.
    Truncated,
    /// The payload bytes do not match the header checksum.
    CrcMismatch,
    /// The payload decoded structurally but carried an impossible
    /// value (bad enum tag, malformed embedded message, ...).
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

/// FNV-1a 64 digest over a sorted cache key set — the value a client
/// folds into its resume token (over its store) and the server
/// recomputes over its restored ledger. Equal digests mean the
/// eviction mirror survived the failover; anything else cold-starts.
pub fn cache_digest(sorted_keys: &[u64]) -> u64 {
    thinc_protocol::cache::store_digest(sorted_keys)
}

/// Wire byte for a pixel format inside a checkpoint.
pub(crate) fn format_to_u8(f: PixelFormat) -> u8 {
    match f {
        PixelFormat::Indexed8 => 0,
        PixelFormat::Rgb565 => 1,
        PixelFormat::Rgb888 => 2,
        PixelFormat::Rgba8888 => 3,
    }
}

/// Inverse of [`format_to_u8`]; anything else is malformed.
pub(crate) fn format_from_u8(b: u8) -> Result<PixelFormat, CheckpointError> {
    Ok(match b {
        0 => PixelFormat::Indexed8,
        1 => PixelFormat::Rgb565,
        2 => PixelFormat::Rgb888,
        3 => PixelFormat::Rgba8888,
        _ => return Err(CheckpointError::Malformed("pixel format")),
    })
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
    /// Grid columns (`ceil(width / DIGEST_TILE)`).
    pub cols: u32,
    /// Grid rows (`ceil(height / DIGEST_TILE)`).
    pub rows: u32,
    /// Row-major FNV-1a 64 digests, one per tile.
    pub digests: Vec<u64>,
}

impl TileDigests {
    /// Digests every `DIGEST_TILE`-edge tile of `screen`.
    pub fn of(screen: &Framebuffer) -> Self {
        let width = screen.width();
        let height = screen.height();
        let cols = width.div_ceil(DIGEST_TILE).max(1);
        let rows = height.div_ceil(DIGEST_TILE).max(1);
        let mut digests = Vec::with_capacity((cols * rows) as usize);
        for ty in 0..rows {
            for tx in 0..cols {
                let rect = Rect::new(
                    (tx * DIGEST_TILE) as i32,
                    (ty * DIGEST_TILE) as i32,
                    DIGEST_TILE.min(width - tx * DIGEST_TILE),
                    DIGEST_TILE.min(height - ty * DIGEST_TILE),
                );
                let (_, data) = screen.get_raw(&rect);
                digests.push(fnv64(&data));
            }
        }
        Self { width, height, cols, rows, digests }
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
        let mut delta = Region::new();
        for ty in 0..self.rows {
            for tx in 0..self.cols {
                let i = (ty * self.cols + tx) as usize;
                if self.digests[i] != live.digests[i] {
                    delta.union_rect(&Rect::new(
                        (tx * DIGEST_TILE) as i32,
                        (ty * DIGEST_TILE) as i32,
                        DIGEST_TILE.min(self.width - tx * DIGEST_TILE),
                        DIGEST_TILE.min(self.height - ty * DIGEST_TILE),
                    ));
                }
            }
        }
        delta
    }
}

/// Byte-stream writer for checkpoint payloads (little-endian, no
/// self-description — the layout *is* the schema).
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn into_inner(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    pub(crate) fn opt_str(&mut self, v: Option<&str>) {
        match v {
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
            None => self.bool(false),
        }
    }

    pub(crate) fn rect(&mut self, r: &Rect) {
        self.i32(r.x);
        self.i32(r.y);
        self.u32(r.w);
        self.u32(r.h);
    }

    pub(crate) fn region(&mut self, r: &Region) {
        // Written in *canonical* y-x banded form, which is a unique
        // function of the pixel set. A live region's internal banding
        // depends on the history of unions and subtractions that built
        // it, so serializing it verbatim would make
        // checkpoint(restore(c)) differ from c byte-for-byte even
        // though the state is identical — the failover-fidelity
        // invariant pins the canonical form instead.
        let rects = canonical_bands(r.rects());
        self.u32(rects.len() as u32);
        for rect in &rects {
            self.rect(rect);
        }
    }
}

/// The unique canonical y-x banding of a disjoint rectangle set:
/// bands split at every distinct y-edge, x-spans merged within each
/// band, vertically adjacent bands with identical x-spans coalesced.
/// Two regions covering the same pixels always produce the same list.
fn canonical_bands(rects: &[Rect]) -> Vec<Rect> {
    if rects.is_empty() {
        return Vec::new();
    }
    let mut ys: Vec<i32> = Vec::with_capacity(rects.len() * 2);
    for r in rects {
        ys.push(r.y);
        ys.push(r.bottom());
    }
    ys.sort_unstable();
    ys.dedup();
    // (y0, y1, merged x-intervals) per occupied band.
    type Band = (i32, i32, Vec<(i32, i32)>);
    let mut groups: Vec<Band> = Vec::new();
    for win in ys.windows(2) {
        let (y0, y1) = (win[0], win[1]);
        let mut xs: Vec<(i32, i32)> = rects
            .iter()
            .filter(|r| r.y < y1 && r.bottom() > y0)
            .map(|r| (r.x, r.right()))
            .collect();
        if xs.is_empty() {
            continue;
        }
        xs.sort_unstable();
        let mut merged: Vec<(i32, i32)> = Vec::new();
        for (a, b) in xs {
            match merged.last_mut() {
                Some(last) if a <= last.1 => last.1 = last.1.max(b),
                _ => merged.push((a, b)),
            }
        }
        match groups.last_mut() {
            Some(last) if last.1 == y0 && last.2 == merged => last.1 = y1,
            _ => groups.push((y0, y1, merged)),
        }
    }
    let mut out = Vec::new();
    for (y0, y1, xs) in groups {
        for (a, b) in xs {
            out.push(Rect::new(a, y0, (b - a) as u32, (y1 - y0) as u32));
        }
    }
    out
}

/// Byte-stream reader mirroring [`Writer`]; every read is
/// bounds-checked and fails with [`CheckpointError::Truncated`]
/// rather than panicking.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Whether every payload byte was consumed — restores check this
    /// so trailing garbage is detected even when the prefix parses.
    pub(crate) fn exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.data.len() - self.pos < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool tag")),
        }
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn i32(&mut self) -> Result<i32, CheckpointError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        Ok(if self.bool()? { Some(self.u64()?) } else { None })
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn str(&mut self) -> Result<String, CheckpointError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CheckpointError::Malformed("utf-8 string"))
    }

    pub(crate) fn opt_str(&mut self) -> Result<Option<String>, CheckpointError> {
        Ok(if self.bool()? { Some(self.str()?) } else { None })
    }

    pub(crate) fn rect(&mut self) -> Result<Rect, CheckpointError> {
        let x = self.i32()?;
        let y = self.i32()?;
        let w = self.u32()?;
        let h = self.u32()?;
        Ok(Rect::new(x, y, w, h))
    }

    pub(crate) fn region(&mut self) -> Result<Region, CheckpointError> {
        let n = self.u32()? as usize;
        // A region over a screen holds at most a few thousand bands;
        // cap the claimed count so a corrupted length can't balloon
        // the allocation before the (inevitable) Truncated error.
        if n > self.data.len() / 4 {
            return Err(CheckpointError::Truncated);
        }
        let mut region = Region::new();
        for _ in 0..n {
            let r = self.rect()?;
            region.union_rect(&r);
        }
        Ok(region)
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

    #[test]
    fn writer_reader_mirror() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.i32(-42);
        w.u64(u64::MAX - 1);
        w.f64(0.5);
        w.opt_u64(Some(99));
        w.opt_u64(None);
        w.str("owner");
        w.opt_str(Some("pw"));
        w.opt_str(None);
        w.rect(&Rect::new(-1, 2, 3, 4));
        let mut region = Region::new();
        region.union_rect(&Rect::new(0, 0, 10, 10));
        region.union_rect(&Rect::new(20, 20, 5, 5));
        w.region(&region);
        let buf = w.into_inner();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.i32().unwrap(), -42);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), 0.5);
        assert_eq!(r.opt_u64().unwrap(), Some(99));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "owner");
        assert_eq!(r.opt_str().unwrap(), Some("pw".into()));
        assert_eq!(r.opt_str().unwrap(), None);
        assert_eq!(r.rect().unwrap(), Rect::new(-1, 2, 3, 4));
        assert_eq!(r.region().unwrap(), region);
        assert!(r.exhausted());
        assert_eq!(r.u8(), Err(CheckpointError::Truncated));
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

    #[test]
    fn cache_digest_is_order_and_content_sensitive() {
        assert_eq!(cache_digest(&[]), cache_digest(&[]));
        assert_eq!(cache_digest(&[1, 2, 3]), cache_digest(&[1, 2, 3]));
        assert_ne!(cache_digest(&[1, 2, 3]), cache_digest(&[1, 2, 4]));
        assert_ne!(cache_digest(&[1, 2]), cache_digest(&[1, 2, 3]));
    }
}
