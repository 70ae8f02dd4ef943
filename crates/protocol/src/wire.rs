//! Binary wire encoding.
//!
//! Framing comes in two layouts; a third protocol revision reuses the
//! second layout and adds capability, all negotiated by the handshake:
//!
//! - **Revision 1 (legacy)**: `[type: u8][payload_len: u32 LE][payload]`
//!   — a 5-byte header. This is the framing of every capture made
//!   before the integrity layer existed, and the framing both ends
//!   use until the hello exchange announces something newer.
//! - **Revision 2 (integrity)**: `[type: u8][payload_len: u32 LE]`
//!   `[seq: u32 LE][crc32: u32 LE][payload]` — a 13-byte header. `seq`
//!   increases by one per frame (wrapping), `crc32` (IEEE, reflected)
//!   covers the whole frame except the CRC field itself, so damage to
//!   header *or* payload is detected. Handshake messages
//!   ([`Message::ServerHello`]/[`Message::ClientHello`]) always keep
//!   revision-1 framing regardless of the negotiated revision, so any
//!   reader can bootstrap and old captures still decode.
//! - **Revision 3 (cache)**: byte-identical framing to revision 2.
//!   What it adds is the content-addressed cache message pair
//!   ([`Message::CacheRef`] / [`Message::CacheMiss`], see
//!   [`crate::cache`]): a peer that negotiates revision ≥ 3 agrees to
//!   resolve cache references. A revision-2 peer never sees either
//!   message because the server only substitutes refs after the
//!   handshake lands on revision 3.
//!
//! Every body's layout is declared once, as a row of a `layout!` table
//! (the messages, the display commands and the input kinds): its tag
//! and its fields in wire order. Encode, decode, the frame length, the
//! known tags and the handshake class are all derived from the rows,
//! and each field type says once how it is written, read and sized.
//! The negotiation state machine and the message-type tables are
//! printed in `docs/PROTOCOL.md`.
//!
//! Multi-byte integers are little-endian. Rectangles are
//! `x: i32, y: i32, w: u32, h: u32`; colors are `r, g, b, a` bytes.
//! [`FrameEncoder`] stamps outgoing frames at the negotiated revision;
//! [`FrameReader`] incrementally splits a byte stream back into
//! messages (the client feeds it whatever the transport delivers),
//! verifying checksums and sequence continuity at revision 2.

use crate::codec::{BufMut, Field};
use crate::commands::{DisplayCommand, Tile};
pub use crate::crc::crc32;
use crate::crc::{crc32_shift, crc32_update};
use crate::message::{Message, ProtocolInput};
use crate::payload::Bytes;

/// Upper bound on a frame's declared payload length, in bytes.
///
/// No legitimate message comes close (the largest — a RAW update of a
/// full 24-bit 1920×1200 screen — is under 7 MiB), but a *corrupted*
/// length field can declare anything up to 4 GiB. Without this bound a
/// [`FrameReader`] would wait forever for the phantom payload,
/// buffering unbounded garbage; with it, an oversized declaration is a
/// hard [`DecodeError::FrameTooLarge`] the reader can resync past.
pub const MAX_FRAME_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Wire framing revision 1: the original 5-byte
/// `[type][payload_len]` header, no integrity fields.
pub const WIRE_REV_LEGACY: u16 = 1;

/// Wire framing revision 2: the extended 13-byte
/// `[type][payload_len][seq][crc32]` header with per-frame CRC32 and
/// sequence numbering.
pub const WIRE_REV_INTEGRITY: u16 = 2;

/// Protocol revision 3: revision-2 framing plus the content-addressed
/// cache capability ([`Message::CacheRef`] / [`Message::CacheMiss`]).
/// Purely additive over the revision-2 byte layout — a revision-3
/// stream with no cache traffic is indistinguishable from revision 2.
pub const WIRE_REV_CACHE: u16 = 3;

/// Size of the revision-1 frame header.
pub const LEGACY_HEADER_LEN: usize = 5;

/// Size of the revision-2 (integrity) frame header.
pub const INTEGRITY_HEADER_LEN: usize = 13;

/// A RAW payload at least this long contributes to its frame's CRC
/// through the register its allocation memoises ([`crc32_shift`] and
/// an XOR) instead of a pass over its bytes. Below it the pass is
/// cheaper than the shift's handful of GF(2) multiplies.
pub const CRC_COMPOSE_MIN: usize = 1024;

/// Why decoding failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not enough bytes for the declared frame.
    Truncated,
    /// Unknown message or command type byte.
    UnknownType(u8),
    /// Payload contents are inconsistent (bad lengths, bad enums).
    Malformed(&'static str),
    /// The header declares a payload larger than
    /// [`MAX_FRAME_PAYLOAD`] — a corrupted length field.
    FrameTooLarge(u32),
    /// A revision-2 frame's CRC32 does not match its contents: the
    /// frame was damaged in flight and must not be applied.
    ChecksumMismatch {
        /// CRC carried in the frame header.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::UnknownType(t) => write!(f, "unknown type byte {t:#x}"),
            DecodeError::Malformed(what) => write!(f, "malformed payload: {what}"),
            DecodeError::FrameTooLarge(len) => {
                write!(f, "declared payload of {len} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            DecodeError::ChecksumMismatch { stored, computed } => {
                write!(f, "frame CRC mismatch: header says {stored:#010x}, bytes hash to {computed:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A variant's payload: its bytes (empty without one) and the shared
/// allocation they are, if any (it memoises its CRC register and
/// content id).
type PayloadOf<'a> = (&'a [u8], Option<&'a Bytes>);

/// A field a row may mark `payload`: the bytes its frame ends in.
trait Payload {
    fn payload(&self) -> PayloadOf<'_>;
}

impl Payload for Bytes {
    fn payload(&self) -> PayloadOf<'_> {
        (self, Some(self))
    }
}

impl Payload for Vec<u8> {
    fn payload(&self) -> PayloadOf<'_> {
        (self, None)
    }
}

/// A tile's pixels are the last of its fields.
impl Payload for Tile {
    fn payload(&self) -> PayloadOf<'_> {
        (&self.pixels, None)
    }
}

/// [`Field::MIN_LEN`] of the field `_pick` selects from a variant. The
/// picker only names the field's type; it is never called.
const fn min_len<E, T: Field>(_pick: fn(&E) -> Option<&T>) -> u64 {
    T::MIN_LEN
}

/// The fewest bytes the body of `tag`'s row takes, from `rows`.
const fn min_body_len(rows: &[(u8, &str, u64)], tag: u8) -> u64 {
    let mut i = 0;
    while rows[i].0 != tag {
        i += 1;
    }
    rows[i].2
}

/// What a [`layout!`] table derives for its enum.
trait Layout: Sized {
    /// Every row's tag, the name of its constant and the fewest bytes
    /// its body takes (the sum of its fields' [`Field::MIN_LEN`]), in
    /// row order.
    const ROWS: &'static [(u8, &'static str, u64)];
    /// The variant's tag.
    fn tag(&self) -> u8;
    /// Appends the variant's fields in wire order.
    fn put_body(&self, out: &mut impl BufMut);
    /// Bytes [`put_body`](Self::put_body) appends.
    fn body_len(&self) -> u64;
    /// Reads the fields of the variant `tag` names.
    fn get_body(tag: u8, buf: &mut &[u8]) -> Result<Self, DecodeError>;
    /// Whether `tag` is a row of the table.
    fn known(tag: u8) -> bool;
    /// Whether `tag`'s row is a handshake message, which keeps
    /// revision-1 framing at every negotiated revision (it must be
    /// decodable before the revision is known).
    fn handshake(tag: u8) -> bool;
    /// The field the variant's row marks `payload`, which its body
    /// ends in (a nested table's, for a row that holds one).
    fn payload(&self) -> PayloadOf<'_>;
}

/// A nested table is a field: its tag byte, then the variant's body.
impl<T: Layout> Field for T {
    /// The tag; a body may be empty.
    const MIN_LEN: u64 = 1;
    fn put(&self, out: &mut impl BufMut) {
        self.tag().put(out);
        self.put_body(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let tag = u8::get(buf)?;
        Self::get_body(tag, buf)
    }
    fn wire_len(&self) -> u64 {
        1 + self.body_len()
    }
}

/// Declares an enum's wire layout, one row per variant: the tag
/// constant and its byte, the variant, and its fields in wire order (a
/// tuple variant holds one field, a nested table). A last field after
/// `; payload` is the variant's payload, the bytes its frame ends in. A
/// row that ends in `handshake` is one. Encode, decode, size, the
/// payload, the known tags and the handshake class are all derived
/// from the rows.
macro_rules! layout {
    ($ty:ident {
        $($tag:ident = $byte:literal => $variant:ident
            $({ $($field:ident),* $(; payload $payload:ident)? })? $(($inner:ident))?
            $($handshake:ident)?,)+
    }) => {
        $(const $tag: u8 = $byte;)+

        impl Layout for $ty {
            const ROWS: &'static [(u8, &'static str, u64)] = &[$(($tag, stringify!($tag), 0
                $($(+ layout!(@min $ty, $ty::$variant { $field, .. } => $field))*
                    $(+ layout!(@min $ty, $ty::$variant { $payload, .. } => $payload))?)?
                $(+ layout!(@min $ty, $ty::$variant($inner) => $inner))?
            )),+];

            fn tag(&self) -> u8 {
                match self {
                    $($ty::$variant { .. } => $tag,)+
                }
            }

            fn put_body(&self, out: &mut impl BufMut) {
                match self {
                    $($ty::$variant { $($($field,)* $($payload,)?)? $(0: $inner)? } => {
                        $($($field.put(out);)* $($payload.put(out);)?)?
                        $($inner.put(out);)?
                    })+
                }
            }

            fn body_len(&self) -> u64 {
                match self {
                    $($ty::$variant { $($($field,)* $($payload,)?)? $(0: $inner)? } => {
                        0 $($(+ Field::wire_len($field))* $(+ Field::wire_len($payload))?)?
                            $(+ Field::wire_len($inner))?
                    })+
                }
            }

            fn get_body(tag: u8, buf: &mut &[u8]) -> Result<Self, DecodeError> {
                match tag {
                    $($tag => {
                        $($(let $field = Field::get(buf)?;)* $(let $payload = Field::get(buf)?;)?)?
                        $(let $inner = Field::get(buf)?;)?
                        Ok($ty::$variant { $($($field,)* $($payload,)?)? $(0: $inner)? })
                    })+
                    other => Err(DecodeError::UnknownType(other)),
                }
            }

            fn known(tag: u8) -> bool {
                matches!(tag, $($tag)|+)
            }

            fn handshake(tag: u8) -> bool {
                match tag {
                    $($tag => layout!(@handshake $($handshake)?),)+
                    _ => false,
                }
            }

            fn payload(&self) -> PayloadOf<'_> {
                match self {
                    $($ty::$variant { $($($payload,)?)? $(0: $inner,)? .. } => {
                        layout!(@payload $($($payload)?)? $(nested $inner)?)
                    })+
                }
            }
        }
    };
    (@handshake) => { false };
    (@handshake handshake) => { true };
    (@min $ty:ident, $row:pat => $field:ident) => {
        min_len(|v: &$ty| match v { $row => Some($field), _ => None })
    };
    (@payload) => { (&[], None) };
    (@payload nested $inner:ident) => { Layout::payload($inner) };
    (@payload $payload:ident) => { Payload::payload($payload) };
}

// Message tags. 0x10–0x14 are display command bytes (a separate
// namespace inside the Display body); the next free message tag sits
// above them. The cache pair is revision 3; the warm-resume token is
// handshake-framed, so it needed no revision.
layout!(Message {
    MSG_SERVER_HELLO = 0x01 => ServerHello { version, width, height, depth } handshake,
    MSG_CLIENT_HELLO = 0x02 => ClientHello { version, viewport_width, viewport_height } handshake,
    MSG_DISPLAY = 0x03 => Display(cmd),
    MSG_VIDEO_INIT = 0x04 => VideoInit { id, format, src_width, src_height, dst },
    MSG_VIDEO_DATA = 0x05 => VideoData { id, seq, timestamp_us; payload data },
    MSG_VIDEO_MOVE = 0x06 => VideoMove { id, dst },
    MSG_VIDEO_END = 0x07 => VideoEnd { id },
    MSG_AUDIO = 0x08 => Audio { seq, timestamp_us; payload data },
    MSG_INPUT = 0x09 => Input(input),
    MSG_RESIZE = 0x0A => Resize { viewport_width, viewport_height },
    MSG_SET_VIEW = 0x0B => SetView { view },
    MSG_CURSOR_SHAPE = 0x0C => CursorShape { width, height, hot_x, hot_y; payload pixels },
    MSG_CURSOR_MOVE = 0x0D => CursorMove { x, y },
    MSG_PING = 0x0E => Ping { seq, timestamp_us },
    MSG_PONG = 0x0F => Pong { seq, timestamp_us },
    MSG_REFRESH_REQUEST = 0x16 => RefreshRequest { attempt },
    MSG_CACHE_REF = 0x17 => CacheRef { hash },
    MSG_CACHE_MISS = 0x18 => CacheMiss { hash },
    MSG_SESSION_RESUME = 0x19 =>
        SessionResume { session_id, client_id, last_seq, store_digest } handshake,
});

layout!(DisplayCommand {
    CMD_RAW = 0x10 => Raw { rect, encoding; payload data },
    CMD_COPY = 0x11 => Copy { src_rect, dst_x, dst_y },
    CMD_SFILL = 0x12 => Sfill { rect, color },
    CMD_PFILL = 0x13 => Pfill { rect; payload tile },
    CMD_BITMAP = 0x14 => Bitmap { rect, fg, bg; payload bits },
});

layout!(ProtocolInput {
    IN_POINTER_MOVE = 0x20 => PointerMove { x, y },
    IN_BUTTON_PRESS = 0x21 => ButtonPress { x, y, button },
    IN_BUTTON_RELEASE = 0x22 => ButtonRelease { x, y, button },
    IN_KEY_PRESS = 0x23 => KeyPress { key },
    IN_KEY_RELEASE = 0x24 => KeyRelease { key },
});

/// Wire bytes of a RAW command's revision-1 frame around its payload:
/// the command header, then the fixed fields and the payload's length
/// prefix — the least a RAW body can be, its row's fields being fixed
/// but for the payload.
pub const RAW_FRAME_OVERHEAD: u64 =
    crate::commands::COMMAND_HEADER_BYTES + min_body_len(DisplayCommand::ROWS, CMD_RAW);

/// The revision-1 frame length of a display command, the scheduler's
/// size key: header, command tag and body.
pub(crate) fn command_len(cmd: &DisplayCommand) -> u64 {
    LEGACY_HEADER_LEN as u64 + Field::wire_len(cmd)
}

/// An empty vector that `msg`'s frame fills exactly.
fn frame_buffer(msg: &Message, header_len: usize) -> Vec<u8> {
    Vec::with_capacity(header_len - LEGACY_HEADER_LEN + encoded_len(msg) as usize)
}

/// Encodes a message into a framed byte vector.
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut out = frame_buffer(msg, LEGACY_HEADER_LEN);
    encode_message_into(msg, &mut out);
    out
}

/// Encodes a message as a revision-1 frame into `out` (cleared first).
///
/// The allocation-free twin of [`encode_message`]: callers that
/// encode in a loop keep one buffer warm instead of allocating per
/// message. (To size a frame or key it, ask [`Message::wire_size`] and
/// [`Message::cache_key`]: neither builds it.)
pub fn encode_message_into(msg: &Message, out: &mut Vec<u8>) {
    frame_into(msg, LEGACY_HEADER_LEN, out);
}

/// Writes `msg`'s frame into `out` (cleared first) behind a
/// `header_len`-byte header whose tag and payload length are filled in
/// and whose other bytes are zero.
fn frame_into(msg: &Message, header_len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.resize(header_len, 0);
    msg.put_body(out);
    let len = (out.len() - header_len) as u32;
    out[0] = msg.tag();
    out[1..5].copy_from_slice(&len.to_le_bytes());
}

/// A display command's revision-1 frame split at its payload: the
/// FNV-1a 64 state over everything before the payload (header, fixed
/// fields, length prefix — hashed as they are produced, none of it
/// built), and the payload its row marks.
fn display_frame_head(cmd: &DisplayCommand) -> (u64, PayloadOf<'_>) {
    /// FNV state, and head bytes still to hash.
    struct Head(u64, usize);
    impl BufMut for Head {
        fn put_slice(&mut self, src: &[u8]) {
            let take = src.len().min(self.1);
            self.0 = crate::hash::fnv64_update(self.0, &src[..take]);
            self.1 -= take;
        }
    }
    let payload = cmd.payload();
    let mut head = Head(crate::hash::FNV64_OFFSET, cmd.wire_size() as usize - payload.0.len());
    MSG_DISPLAY.put(&mut head);
    (Field::wire_len(cmd) as u32).put(&mut head);
    cmd.put(&mut head);
    (head.0, payload)
}

/// FNV-1a 64 of a display command's revision-1 frame — the rev-3
/// cache key's hash, the *name* a `CacheRef` speaks — run over the
/// frame where it lies: the head as it is produced, then the payload
/// in place. No frame is built; the value is
/// `fnv64(&encode_message(&Message::Display(cmd)))`.
pub(crate) fn display_frame_fnv(cmd: &DisplayCommand) -> u64 {
    let (head, (payload, _)) = display_frame_head(cmd);
    crate::hash::fnv64_update(head, payload)
}

/// The in-process *identity* of a display command's revision-1 frame:
/// the head's FNV state (a few dozen bytes) and
/// [`content_id`](crate::hash::content_id) of the payload's bytes,
/// mixed. A pure function of the frame bytes, at `content_id`'s speed
/// instead of FNV's serial chain. A shared payload is read only once
/// per allocation: an owned [`Bytes`](crate::Bytes) lends the id it
/// memoises, which is `content_id` of its bytes, and a view — whose
/// memoised id is derived from its root, and would tell it from a
/// byte-equal copy — is read ([`Bytes::bytes_id`](crate::Bytes)).
/// Never a wire value.
pub(crate) fn display_frame_id(cmd: &DisplayCommand) -> u64 {
    let (head, (payload, shared)) = display_frame_head(cmd);
    let payload = match shared {
        Some(data) => data.bytes_id(),
        None => crate::hash::content_id(payload),
    };
    crate::hash::content_id([head, payload].map(u64::to_le_bytes).as_flattened())
}

/// The revision-1 encoded length of a message, by arithmetic: the
/// header and the sum of the body's field lengths. Nothing is encoded,
/// so sizing a frame costs the same whatever it carries
/// (`wire_size_is_the_encoded_length` holds it to [`encode_message`]
/// for every variant).
pub fn encoded_len(msg: &Message) -> u64 {
    LEGACY_HEADER_LEN as u64 + msg.body_len()
}

/// Encodes a message as a revision-2 integrity frame carrying `seq`:
/// `[tag][payload_len][seq][crc32][payload]`, where the CRC covers
/// everything except the CRC field itself.
pub fn encode_message_seq(msg: &Message, seq: u32) -> Vec<u8> {
    let mut out = frame_buffer(msg, INTEGRITY_HEADER_LEN);
    encode_message_seq_into(msg, seq, &mut out);
    out
}

/// Encodes a revision-2 integrity frame into `out` (cleared first),
/// the allocation-free twin of [`encode_message_seq`].
///
/// The CRC is the same value over the same bytes however it is
/// reached: a body ends in the payload its row marks, so for a shared
/// payload (a RAW's, video's or audio's) of [`CRC_COMPOSE_MIN`] bytes
/// or more the register is run over the header and the body's fixed
/// fields only, and the payload's share is composed in from the
/// register its allocation memoises — one pass per allocation instead
/// of one per viewer.
pub fn encode_message_seq_into(msg: &Message, seq: u32, out: &mut Vec<u8>) {
    frame_into(msg, INTEGRITY_HEADER_LEN, out);
    out[5..9].copy_from_slice(&seq.to_le_bytes());
    let crc = crc32_update(!0, &out[..9]);
    let body = &out[INTEGRITY_HEADER_LEN..];
    let crc = match msg.payload() {
        (_, Some(data)) if data.len() >= CRC_COMPOSE_MIN => {
            let (fixed, payload) = body.split_at(body.len() - data.len());
            debug_assert_eq!(payload, data.as_slice(), "the body ends in its payload");
            crc32_shift(crc32_update(crc, fixed), payload.len()) ^ data.crc_from_zero()
        }
        _ => crc32_update(crc, body),
    };
    let crc = crc ^ !0;
    out[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes one framed message from the front of `data`, returning the
/// message and the number of bytes consumed. This is the revision-1
/// (legacy) framing; revision-2 streams are split by a [`FrameReader`]
/// switched to [`WIRE_REV_INTEGRITY`].
pub fn decode_message(data: &[u8]) -> Result<(Message, usize), DecodeError> {
    if data.len() < LEGACY_HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let tag = data[0];
    // Validate the header *before* waiting for the declared payload:
    // a corrupted header must fail fast, not leave the reader stalled
    // on (or buffering toward) a phantom payload that never arrives.
    if !Message::known(tag) {
        return Err(DecodeError::UnknownType(tag));
    }
    let declared = u32::from_le_bytes([data[1], data[2], data[3], data[4]]);
    if declared > MAX_FRAME_PAYLOAD {
        return Err(DecodeError::FrameTooLarge(declared));
    }
    let len = declared as usize;
    if data.len() < LEGACY_HEADER_LEN + len {
        return Err(DecodeError::Truncated);
    }
    let msg = Message::get_body(tag, &mut &data[LEGACY_HEADER_LEN..LEGACY_HEADER_LEN + len])?;
    Ok((msg, LEGACY_HEADER_LEN + len))
}

/// Stamps outgoing frames at the negotiated wire revision.
///
/// Starts at [`WIRE_REV_LEGACY`]; [`negotiate`](Self::negotiate) with
/// the peer's announced protocol version upgrades it (never past this
/// crate's own [`crate::PROTOCOL_VERSION`]). At revision 2 every
/// non-handshake frame carries a monotonically increasing sequence
/// number and a CRC32; handshake frames always stay revision-1 so the
/// peer can decode them before negotiation completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameEncoder {
    revision: u16,
    next_seq: u32,
}

impl Default for FrameEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameEncoder {
    /// An encoder at the legacy revision (pre-negotiation).
    pub fn new() -> Self {
        Self {
            revision: WIRE_REV_LEGACY,
            next_seq: 0,
        }
    }

    /// An encoder pinned at `revision`.
    pub fn with_revision(revision: u16) -> Self {
        Self {
            revision: revision.max(WIRE_REV_LEGACY),
            next_seq: 0,
        }
    }

    /// Adopts the highest revision both sides speak: the minimum of
    /// the peer's announced version and this crate's own.
    pub fn negotiate(&mut self, peer_version: u16) {
        self.revision = peer_version.clamp(WIRE_REV_LEGACY, crate::PROTOCOL_VERSION);
    }

    /// The framing revision in force.
    pub fn revision(&self) -> u16 {
        self.revision
    }

    /// The sequence number the next integrity frame will carry.
    pub fn next_seq(&self) -> u32 {
        self.next_seq
    }

    /// Sets the sequence number the next integrity frame will carry.
    ///
    /// Used by the warm-resume path: a restored server adopts the
    /// continuation of the client's last-received sequence (from its
    /// resume token), so the first post-failover frame is neither a
    /// rollback (silently dropped as a duplicate) nor a gap (a
    /// spurious refresh request).
    pub fn set_next_seq(&mut self, seq: u32) {
        self.next_seq = seq;
    }

    /// Frames `msg` at the negotiated revision, consuming a sequence
    /// number for revision-2 frames.
    pub fn encode(&mut self, msg: &Message) -> Vec<u8> {
        if self.revision < WIRE_REV_INTEGRITY || Message::handshake(msg.tag()) {
            encode_message(msg)
        } else {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            encode_message_seq(msg, seq)
        }
    }
}

thinc_telemetry::counters! {
    /// Integrity-verification counters kept by a [`FrameReader`] at
    /// revision 2 (all zero at the legacy revision). A stream client
    /// folds what they gained `since` its last look into its
    /// `ResilienceMetrics`, by field name.
    pub struct IntegrityCounters {
        /// Frames rejected because their CRC32 did not match.
        crc_fail,
        /// Forward sequence discontinuities observed (each one means at
        /// least one frame was lost or skipped).
        seq_gap,
        /// Total frames the gaps account for (sum of gap widths).
        gap_frames,
        /// Frames dropped as duplicates or sequence rollbacks.
        seq_dup,
        /// Frames whose CRC verified clean.
        frames_verified,
    }
}

/// Incremental frame splitter: feed transport bytes in, take whole
/// messages out.
///
/// On damaged input [`next_message`](Self::next_message) returns the
/// typed [`DecodeError`]; the caller then invokes
/// [`resync`](Self::resync) to skip past the damage and keeps reading.
/// Nothing here panics on wire bytes, and buffered memory stays
/// bounded by [`MAX_FRAME_PAYLOAD`] plus one feed chunk as long as the
/// caller drains between feeds.
///
/// A frame is taken by moving a read cursor past it; the bytes behind
/// the cursor are dropped in one move at the next
/// [`feed`](Self::feed). (Dropping them frame by frame moved everything
/// buffered behind each frame: quadratic in the frames per chunk.)
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Where the unread bytes of `buf` start.
    start: usize,
    revision: u16,
    last_seq: Option<u32>,
    /// The sequence number this reader's history starts at: the first
    /// frame it accepted with no history. A frame from before it was
    /// never delivered by this reader.
    first_seq: Option<u32>,
    gap_latched: bool,
    counters: IntegrityCounters,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            revision: WIRE_REV_LEGACY,
            last_seq: None,
            first_seq: None,
            gap_latched: false,
            counters: IntegrityCounters::default(),
        }
    }
}

impl FrameReader {
    /// An empty reader at the legacy revision.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty reader pinned at `revision`.
    pub fn with_revision(revision: u16) -> Self {
        Self {
            revision: revision.max(WIRE_REV_LEGACY),
            ..Self::default()
        }
    }

    /// Switches the framing revision this reader expects.
    ///
    /// Revision changes never happen implicitly: the session layer
    /// calls this once negotiation completes (a `ServerHello`
    /// announcing protocol version ≥ 2). Switching resets the
    /// sequence-tracking state so the first frame at the new revision
    /// is accepted at any sequence number.
    pub fn set_revision(&mut self, revision: u16) {
        let revision = revision.max(WIRE_REV_LEGACY);
        if revision != self.revision {
            self.revision = revision;
            self.last_seq = None;
            self.first_seq = None;
        }
    }

    /// The framing revision this reader expects.
    pub fn revision(&self) -> u16 {
        self.revision
    }

    /// Integrity counters accumulated so far (all zero at the legacy
    /// revision).
    pub fn integrity(&self) -> IntegrityCounters {
        self.counters
    }

    /// The sequence number of the last integrity frame accepted, or
    /// `None` before any arrived (or at the legacy revision).
    ///
    /// This is what a client folds into its resume token: the restored
    /// server's encoder continues from here.
    pub fn last_seq(&self) -> Option<u32> {
        self.last_seq
    }

    /// Returns `true` once if a sequence discontinuity (gap) was
    /// detected since the last call, clearing the latch.
    ///
    /// A gap means frames were lost in transit even though framing
    /// stayed parseable; the session layer escalates it into a refresh
    /// request so screen state reconverges.
    pub fn take_seq_break(&mut self) -> bool {
        std::mem::take(&mut self.gap_latched)
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(data);
    }

    /// Extracts the next complete message, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed. At revision 2
    /// this also verifies the frame CRC (mismatch surfaces as
    /// [`DecodeError::ChecksumMismatch`] with nothing consumed, so the
    /// caller resyncs) and tracks the sequence counter: forward gaps
    /// are delivered but latch [`take_seq_break`](Self::take_seq_break);
    /// duplicates and rollbacks are dropped silently — except a frame
    /// from before the reader's history began, which it never
    /// delivered: that one is dropped as a gap, and latches.
    pub fn next_message(&mut self) -> Result<Option<Message>, DecodeError> {
        if self.revision >= WIRE_REV_INTEGRITY {
            return self.next_integrity();
        }
        match decode_message(&self.buf[self.start..]) {
            Ok((msg, consumed)) => {
                self.start += consumed;
                Ok(Some(msg))
            }
            Err(DecodeError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Revision-2 decode path: extended header, CRC check, sequence
    /// accounting. Handshake frames stay legacy-framed on the wire so
    /// they are special-cased before the extended header is assumed.
    fn next_integrity(&mut self) -> Result<Option<Message>, DecodeError> {
        loop {
            let buf = &self.buf[self.start..];
            if buf.is_empty() {
                return Ok(None);
            }
            let tag = buf[0];
            if !Message::known(tag) {
                return Err(DecodeError::UnknownType(tag));
            }
            if Message::handshake(tag) {
                // Handshake frames always use legacy framing.
                return match decode_message(buf) {
                    Ok((msg, consumed)) => {
                        self.start += consumed;
                        Ok(Some(msg))
                    }
                    Err(DecodeError::Truncated) => Ok(None),
                    Err(e) => Err(e),
                };
            }
            if buf.len() >= LEGACY_HEADER_LEN {
                let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]);
                if len > MAX_FRAME_PAYLOAD {
                    return Err(DecodeError::FrameTooLarge(len));
                }
            }
            if buf.len() < INTEGRITY_HEADER_LEN {
                return Ok(None);
            }
            let len = u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) as usize;
            let total = INTEGRITY_HEADER_LEN + len;
            if buf.len() < total {
                return Ok(None);
            }
            let seq = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
            let stored = u32::from_le_bytes([buf[9], buf[10], buf[11], buf[12]]);
            let mut crc = crc32_update(!0, &buf[..9]);
            crc = crc32_update(crc, &buf[INTEGRITY_HEADER_LEN..total]);
            let computed = crc ^ !0;
            if computed != stored {
                self.counters.crc_fail += 1;
                // Consume nothing: the caller's resync() pass decides
                // how much of the damaged prefix to discard.
                return Err(DecodeError::ChecksumMismatch { stored, computed });
            }
            self.counters.frames_verified += 1;
            if let Some(last) = self.last_seq {
                let expected = last.wrapping_add(1);
                let delta = seq.wrapping_sub(expected);
                if delta == 0 {
                    self.last_seq = Some(seq);
                } else if delta < u32::MAX / 2 {
                    // Forward gap: frames went missing, but this one is
                    // intact — deliver it and latch the break so the
                    // session layer requests a refresh.
                    self.counters.seq_gap += 1;
                    self.counters.gap_frames += u64::from(delta);
                    self.gap_latched = true;
                    self.last_seq = Some(seq);
                } else {
                    // Duplicate or rollback: already applied (or stale
                    // retransmit) — drop the frame silently. Unless it
                    // is from before this reader's history: a reordered
                    // frame it never delivered, too late to apply in
                    // order — lost, so counted and latched as a gap.
                    let first = self.first_seq.unwrap_or(seq);
                    if (1..=u32::MAX / 2).contains(&first.wrapping_sub(seq)) {
                        self.counters.seq_gap += 1;
                        self.counters.gap_frames += 1;
                        self.gap_latched = true;
                    } else {
                        self.counters.seq_dup += 1;
                    }
                    self.start += total;
                    continue;
                }
            } else {
                self.last_seq = Some(seq);
                self.first_seq = Some(seq);
            }
            let msg = Message::get_body(tag, &mut &buf[INTEGRITY_HEADER_LEN..total])?;
            self.start += total;
            return Ok(Some(msg));
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Skips past damage to the next plausible frame boundary,
    /// returning the number of bytes discarded.
    ///
    /// Call after [`next_message`](Self::next_message) errors. The
    /// byte at the head of the buffer is known-bad and always skipped;
    /// scanning then stops at the first byte that could start a frame
    /// (known type byte, sane declared length). The heuristic can land
    /// on a false boundary inside surviving payload — the next
    /// `next_message` error sends the caller back here, and each call
    /// discards at least one byte, so the loop always terminates. The
    /// client treats everything skipped as lost screen state and asks
    /// the server for a refresh.
    pub fn resync(&mut self) -> usize {
        let buf = &self.buf[self.start..];
        if buf.is_empty() {
            return 0;
        }
        let mut offset = 1;
        while offset < buf.len() && !plausible_frame_start(&buf[offset..]) {
            offset += 1;
        }
        self.start += offset;
        offset
    }
}

/// Whether `buf` could begin a valid frame: known message type byte
/// and, if the length field is visible, a sane declared length.
fn plausible_frame_start(buf: &[u8]) -> bool {
    if !Message::known(buf[0]) {
        return false;
    }
    if buf.len() < 5 {
        return true;
    }
    u32::from_le_bytes([buf[1], buf[2], buf[3], buf[4]]) <= MAX_FRAME_PAYLOAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::RawEncoding;
    use thinc_raster::{Color, Rect, YuvFormat};

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::ServerHello {
                version: 1,
                width: 1024,
                height: 768,
                depth: 24,
            },
            Message::ClientHello {
                version: 1,
                viewport_width: 320,
                viewport_height: 240,
            },
            Message::Display(DisplayCommand::Raw {
                rect: Rect::new(-3, 7, 5, 6),
                encoding: RawEncoding::PngLike,
                data: vec![1, 2, 3, 4, 5].into(),
            }),
            Message::Display(DisplayCommand::Copy {
                src_rect: Rect::new(0, 0, 100, 50),
                dst_x: 10,
                dst_y: -20,
            }),
            Message::Display(DisplayCommand::Sfill {
                rect: Rect::new(0, 0, 1024, 768),
                color: Color::rgba(1, 2, 3, 200),
            }),
            Message::Display(DisplayCommand::Pfill {
                rect: Rect::new(5, 5, 64, 64),
                tile: Tile {
                    width: 8,
                    height: 8,
                    pixels: vec![9; 8 * 8 * 3],
                },
            }),
            Message::Display(DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 16, 8),
                bits: vec![0xAA; 16],
                fg: Color::BLACK,
                bg: Some(Color::WHITE),
            }),
            Message::Display(DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 16, 8),
                bits: vec![0x55; 16],
                fg: Color::WHITE,
                bg: None,
            }),
            Message::VideoInit {
                id: 7,
                format: YuvFormat::Yv12,
                src_width: 352,
                src_height: 240,
                dst: Rect::new(0, 0, 1024, 768),
            },
            Message::VideoData {
                id: 7,
                seq: 42,
                timestamp_us: 1_750_000,
                data: vec![0x10; 100].into(),
            },
            Message::VideoMove {
                id: 7,
                dst: Rect::new(10, 10, 320, 240),
            },
            Message::VideoEnd { id: 7 },
            Message::Audio {
                seq: 3,
                timestamp_us: 999,
                data: vec![1; 64].into(),
            },
            Message::Input(ProtocolInput::PointerMove { x: -5, y: 900 }),
            Message::Input(ProtocolInput::ButtonPress { x: 1, y: 2, button: 3 }),
            Message::Input(ProtocolInput::ButtonRelease { x: 1, y: 2, button: 1 }),
            Message::Input(ProtocolInput::KeyPress { key: 0xFF0D }),
            Message::Input(ProtocolInput::KeyRelease { key: 65 }),
            Message::Resize {
                viewport_width: 640,
                viewport_height: 480,
            },
            Message::SetView {
                view: Rect::new(100, 50, 512, 384),
            },
            Message::CursorShape {
                width: 16,
                height: 16,
                hot_x: 1,
                hot_y: 2,
                pixels: vec![7; 16 * 16 * 4],
            },
            Message::CursorMove { x: 500, y: -3 },
            Message::Ping {
                seq: 9,
                timestamp_us: 123_456,
            },
            Message::Pong {
                seq: 9,
                timestamp_us: 123_456,
            },
            Message::RefreshRequest { attempt: 3 },
            Message::CacheRef {
                hash: 0x0123_4567_89AB_CDEF,
            },
            Message::CacheMiss {
                hash: 0xFEDC_BA98_7654_3210,
            },
            Message::SessionResume {
                session_id: 0x1122_3344_5566_7788,
                client_id: 5,
                last_seq: 0xDEAD_BEEF,
                store_digest: 0x8877_6655_4433_2211,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            let enc = encode_message(&msg);
            let (dec, used) = decode_message(&enc).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(dec, msg);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn wire_size_matches_encoding() {
        for msg in sample_messages() {
            assert_eq!(msg.wire_size(), encode_message(&msg).len() as u64);
        }
    }

    #[test]
    fn frames_fill_their_first_reservation() {
        // No growth and no slack: the buffer a frame comes back in is
        // the one it was given, sized by arithmetic to the byte.
        let big = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 64, 64),
            encoding: RawEncoding::None,
            data: vec![3; 64 * 64 * 3].into(),
        });
        for msg in sample_messages().iter().chain([&big]) {
            let legacy = encode_message(msg);
            assert_eq!(legacy.capacity(), legacy.len(), "{msg:?}");
            let framed = encode_message_seq(msg, 7);
            assert_eq!(framed.capacity(), framed.len(), "{msg:?}");
        }
    }

    #[test]
    fn truncated_av_payloads_are_typed_errors() {
        // A video or audio frame cut anywhere waits for more bytes,
        // and a complete frame whose inner length field promises more
        // than the frame holds is damage, refused before anything is
        // sized from it.
        for msg in sample_messages() {
            let (Message::VideoData { data, .. } | Message::Audio { data, .. }) = &msg else {
                continue;
            };
            let enc = encode_message(&msg);
            for cut in 0..enc.len() {
                assert_eq!(decode_message(&enc[..cut]), Err(DecodeError::Truncated), "{cut}");
            }
            let at = enc.len() - data.len() - 4;
            let mut lying = enc.clone();
            lying[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(decode_message(&lying), Err(DecodeError::Malformed(_))));
            // Cutting the frame short of its declared payload: the
            // outer length is honest, the inner one now overruns it.
            let mut short = enc[..enc.len() - 1].to_vec();
            let outer = (short.len() - LEGACY_HEADER_LEN) as u32;
            short[1..5].copy_from_slice(&outer.to_le_bytes());
            assert!(matches!(decode_message(&short), Err(DecodeError::Malformed(_))));
        }
    }

    #[test]
    fn a_complete_frame_too_short_for_its_layout_is_damage() {
        // A frame that is all here but whose body is shorter than its
        // layout can never decode: waiting for more bytes would wedge
        // the reader on it, so it is damage and the reader resyncs.
        let ping = Message::Ping {
            seq: 1,
            timestamp_us: 2,
        };
        let drain = |reader: &mut FrameReader| {
            let mut got = Vec::new();
            for _ in 0..100 {
                match reader.next_message() {
                    Ok(Some(msg)) => got.push(msg),
                    Ok(None) => break,
                    Err(_) => assert!(reader.resync() > 0),
                }
            }
            got
        };
        let mut legacy = FrameReader::new();
        legacy.feed(&[MSG_SERVER_HELLO, 3, 0, 0, 0, 9, 9, 9]);
        legacy.feed(&encode_message(&ping));
        assert!(matches!(legacy.next_message(), Err(DecodeError::Malformed(_))));
        let mut legacy = FrameReader::new();
        legacy.feed(&[MSG_SERVER_HELLO, 3, 0, 0, 0, 0xEE, 0xEE, 0xEE]);
        legacy.feed(&encode_message(&ping));
        assert_eq!(drain(&mut legacy), std::slice::from_ref(&ping));
        // A revision-3 frame whose tag was flipped to a handshake tag
        // reads as a legacy frame whose body is its seq and CRC.
        let mut enc = FrameEncoder::with_revision(WIRE_REV_CACHE);
        let mut flipped = enc.encode(&Message::CacheRef { hash: 0 });
        flipped[0] = MSG_SERVER_HELLO;
        let mut reader = FrameReader::with_revision(WIRE_REV_CACHE);
        reader.feed(&flipped);
        assert!(matches!(reader.next_message(), Err(DecodeError::Malformed(_))));
        reader.feed(&enc.encode(&ping));
        assert_eq!(drain(&mut reader), [ping]);
    }

    #[test]
    fn command_wire_size_close_to_encoded() {
        // DisplayCommand::wire_size is the scheduler's fast estimate;
        // it must match the encoded frame size exactly.
        for msg in sample_messages() {
            if let Message::Display(cmd) = &msg {
                assert_eq!(
                    cmd.wire_size(),
                    encode_message(&msg).len() as u64,
                    "{}",
                    cmd.name()
                );
            }
        }
    }

    #[test]
    fn raw_frame_overhead_is_a_raws_frame_around_its_payload() {
        for len in [0, 1, 4096] {
            let msg = Message::Display(DisplayCommand::Raw {
                rect: Rect::new(-3, 7, 5, 6),
                encoding: RawEncoding::PngLike,
                data: vec![7; len].into(),
            });
            assert_eq!(RAW_FRAME_OVERHEAD, encoded_len(&msg) - len as u64);
        }
    }

    #[test]
    fn each_payload_is_the_end_of_its_frame() {
        // The marked field is the frame's tail, and only a shared one
        // lends its allocation to the CRC composition.
        for msg in sample_messages() {
            let frame = encode_message(&msg);
            let (payload, shared) = msg.payload();
            assert!(frame.ends_with(payload), "{msg:?}");
            let composes = matches!(
                msg,
                Message::Display(DisplayCommand::Raw { .. }) | Message::VideoData { .. } | Message::Audio { .. }
            );
            assert_eq!(shared.is_some(), composes, "{msg:?}");
        }
    }

    #[test]
    fn truncated_frames_wait_for_more() {
        let enc = encode_message(&sample_messages()[2]);
        for cut in 0..enc.len() {
            assert_eq!(decode_message(&enc[..cut]), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let bad = [0xEEu8, 0, 0, 0, 0];
        assert_eq!(decode_message(&bad), Err(DecodeError::UnknownType(0xEE)));
    }

    #[test]
    fn frame_reader_reassembles_dribbled_stream() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(encode_message(m));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        // Feed one byte at a time.
        for b in stream {
            reader.feed(&[b]);
            while let Some(m) = reader.next_message().unwrap() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn frame_reader_surfaces_errors() {
        let mut reader = FrameReader::new();
        reader.feed(&[0xEE, 0, 0, 0, 0]);
        assert!(reader.next_message().is_err());
    }

    #[test]
    fn absurd_declared_length_is_rejected_immediately() {
        // Tag is valid but the length field claims ~4 GiB; waiting for
        // it (Truncated) would buffer unboundedly.
        let mut bad = vec![MSG_DISPLAY];
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_message(&bad), Err(DecodeError::FrameTooLarge(u32::MAX)));
        let mut reader = FrameReader::new();
        reader.feed(&bad);
        assert!(matches!(
            reader.next_message(),
            Err(DecodeError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn resync_skips_damage_and_recovers_following_messages() {
        let msgs = sample_messages();
        let mut stream = vec![0xEE, 0xFF, 0x00, 0x99]; // Leading garbage.
        for m in &msgs {
            stream.extend(encode_message(m));
        }
        let mut reader = FrameReader::new();
        reader.feed(&stream);
        let mut got = Vec::new();
        let mut skipped = 0;
        loop {
            match reader.next_message() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(_) => skipped += reader.resync(),
            }
        }
        assert!(skipped >= 4, "{skipped}");
        // Everything after the damage is recovered.
        assert_eq!(got, msgs);
    }

    #[test]
    fn resync_terminates_on_all_garbage() {
        let mut reader = FrameReader::new();
        reader.feed(&[0xEEu8; 4096]);
        let mut iterations = 0;
        while reader.pending_bytes() >= 5 {
            if reader.next_message().is_err() {
                assert!(reader.resync() > 0);
            }
            iterations += 1;
            assert!(iterations < 10_000, "resync loop failed to make progress");
        }
    }

    #[test]
    fn the_doc_prints_every_layout_row() {
        // Every tag row of docs/PROTOCOL.md's tables is a layout row
        // with the same tag and name, and every layout row is printed
        // there (a display command by its name after `CMD_`).
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let mut printed: Vec<(String, String)> = doc
            .lines()
            .filter(|line| line.starts_with("| `0x"))
            .map(|line| {
                let cell = |i| line.split('|').nth(i).unwrap_or_default().trim().trim_matches('`');
                (cell(1).to_owned(), cell(2).to_owned())
            })
            .collect();
        let tables = [Message::ROWS, DisplayCommand::ROWS, ProtocolInput::ROWS];
        let mut declared: Vec<(String, String)> = tables
            .concat()
            .into_iter()
            .map(|(tag, name, _)| (format!("0x{tag:02X}"), name.trim_start_matches("CMD_").to_owned()))
            .collect();
        printed.sort();
        declared.sort();
        assert_eq!(printed, declared, "docs/PROTOCOL.md §4 against the layout tables");
    }

    // ---- integrity framing (revision 2) ----

    fn non_handshake_samples() -> Vec<Message> {
        sample_messages()
            .into_iter()
            .filter(|m| !Message::handshake(m.tag()))
            .collect()
    }

    #[test]
    fn crc32_known_vector() {
        // The standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn integrity_round_trip_all_messages() {
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        for msg in &msgs {
            reader.feed(&enc.encode(msg));
        }
        let mut decoded = Vec::new();
        while let Some(msg) = reader.next_message().expect("clean stream decodes") {
            decoded.push(msg);
        }
        assert_eq!(decoded, msgs);
        let c = reader.integrity();
        assert_eq!(c.frames_verified, msgs.len() as u64);
        assert_eq!(c.crc_fail, 0);
        assert_eq!(c.seq_gap, 0);
        assert_eq!(c.seq_dup, 0);
        assert!(!reader.take_seq_break());
    }

    #[test]
    fn many_frames_in_one_chunk_decode_as_fed_one_at_a_time() {
        let samples = non_handshake_samples();
        let small: Vec<&Message> =
            samples.iter().filter(|m| encode_message(m).len() <= 64).collect();
        assert!(!small.is_empty());
        let msgs: Vec<Message> = (0..1000).map(|i| small[i % small.len()].clone()).collect();
        for revision in [WIRE_REV_LEGACY, WIRE_REV_INTEGRITY] {
            let mut enc = FrameEncoder::with_revision(revision);
            let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
            let drain = |reader: &mut FrameReader, out: &mut Vec<Message>| {
                while let Some(msg) = reader.next_message().expect("clean stream decodes") {
                    out.push(msg);
                }
            };
            let (mut one_chunk, mut by_frame) = (Vec::new(), Vec::new());
            let mut whole = FrameReader::with_revision(revision);
            whole.feed(&frames.concat());
            drain(&mut whole, &mut one_chunk);
            let mut single = FrameReader::with_revision(revision);
            for frame in &frames {
                single.feed(frame);
                drain(&mut single, &mut by_frame);
            }
            assert_eq!(one_chunk, msgs, "revision {revision}");
            assert_eq!(by_frame, msgs, "revision {revision}");
            assert_eq!(whole.integrity(), single.integrity());
            assert_eq!(whole.last_seq(), single.last_seq());
            assert_eq!((whole.pending_bytes(), single.pending_bytes()), (0, 0));
        }
    }

    #[test]
    fn integrity_round_trip_any_fragmentation() {
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let stream: Vec<u8> = msgs.iter().flat_map(|m| enc.encode(m)).collect();
        for chunk in [1usize, 2, 3, 7, 13] {
            let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
            let mut decoded = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.feed(piece);
                while let Some(msg) = reader.next_message().expect("clean stream decodes") {
                    decoded.push(msg);
                }
            }
            assert_eq!(decoded, msgs, "chunk size {chunk}");
        }
    }

    #[test]
    fn handshake_frames_stay_legacy_on_integrity_stream() {
        let hello = Message::ServerHello {
            version: crate::PROTOCOL_VERSION,
            width: 800,
            height: 600,
            depth: 24,
        };
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let bytes = enc.encode(&hello);
        // Handshake framing is byte-identical to the legacy encoding...
        assert_eq!(bytes, encode_message(&hello));
        // ...so a legacy reader decodes it (pre-negotiation bootstrap)...
        let mut legacy = FrameReader::new();
        legacy.feed(&bytes);
        assert_eq!(legacy.next_message().unwrap(), Some(hello.clone()));
        // ...and an integrity reader accepts it too.
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&bytes);
        assert_eq!(reader.next_message().unwrap(), Some(hello));
        assert_eq!(reader.integrity().frames_verified, 0);
    }

    #[test]
    fn session_resume_stays_legacy_on_integrity_stream() {
        // A resume token is a handshake message: a freshly-restored
        // server must decode it before any negotiation state exists,
        // so it never picks up integrity framing.
        let resume = Message::SessionResume {
            session_id: 42,
            client_id: 7,
            last_seq: 1000,
            store_digest: 0xABCD,
        };
        let mut enc = FrameEncoder::with_revision(WIRE_REV_CACHE);
        let bytes = enc.encode(&resume);
        assert_eq!(bytes, encode_message(&resume));
        assert_eq!(enc.next_seq(), 0, "handshake frames consume no seq");
        let mut legacy = FrameReader::new();
        legacy.feed(&bytes);
        assert_eq!(legacy.next_message().unwrap(), Some(resume.clone()));
        let mut reader = FrameReader::with_revision(WIRE_REV_CACHE);
        reader.feed(&bytes);
        assert_eq!(reader.next_message().unwrap(), Some(resume));
        assert_eq!(reader.integrity().frames_verified, 0);
    }

    #[test]
    fn encoder_seq_adoption_avoids_rollback_and_gap() {
        // A restored server adopting last_seq+1 produces a frame the
        // client's reader accepts as the exact next in sequence.
        let msg = Message::Ping {
            seq: 1,
            timestamp_us: 2,
        };
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&encode_message_seq(&msg, 41));
        assert!(reader.next_message().unwrap().is_some());
        assert_eq!(reader.last_seq(), Some(41));
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        enc.set_next_seq(reader.last_seq().unwrap().wrapping_add(1));
        reader.feed(&enc.encode(&msg));
        assert!(reader.next_message().unwrap().is_some());
        let c = reader.integrity();
        assert_eq!(c.seq_gap, 0);
        assert_eq!(c.seq_dup, 0);
        assert!(!reader.take_seq_break());
    }

    #[test]
    fn encoder_negotiation_clamps_to_supported_range() {
        let mut enc = FrameEncoder::new();
        assert_eq!(enc.revision(), WIRE_REV_LEGACY);
        enc.negotiate(0);
        assert_eq!(enc.revision(), WIRE_REV_LEGACY);
        enc.negotiate(u16::MAX);
        assert_eq!(enc.revision(), crate::PROTOCOL_VERSION);
        enc.negotiate(WIRE_REV_INTEGRITY);
        assert_eq!(enc.revision(), WIRE_REV_INTEGRITY);
    }

    #[test]
    fn cache_messages_are_compact_and_integrity_framed() {
        let msg = Message::CacheRef { hash: u64::MAX };
        // 5-byte header + 8-byte hash: a ref replaces a payload of any
        // size with 13 bytes.
        assert_eq!(encode_message(&msg).len(), LEGACY_HEADER_LEN + 8);
        // Revision 3 reuses revision-2 framing for every message.
        let mut enc = FrameEncoder::with_revision(WIRE_REV_CACHE);
        let framed = enc.encode(&msg);
        assert_eq!(framed.len(), INTEGRITY_HEADER_LEN + 8);
        let mut reader = FrameReader::with_revision(WIRE_REV_CACHE);
        reader.feed(&framed);
        assert_eq!(reader.next_message().unwrap(), Some(msg));
    }

    #[test]
    fn revision3_negotiation_and_fallback_to_older_peers() {
        // A rev-3 endpoint against a rev-3 peer lands on 3...
        let mut enc = FrameEncoder::new();
        enc.negotiate(WIRE_REV_CACHE);
        assert_eq!(enc.revision(), WIRE_REV_CACHE);
        // ...against a rev-2 peer on 2, and a rev-1 peer on 1, so the
        // cache capability is cleanly withheld from older clients.
        enc.negotiate(WIRE_REV_INTEGRITY);
        assert_eq!(enc.revision(), WIRE_REV_INTEGRITY);
        enc.negotiate(WIRE_REV_LEGACY);
        assert_eq!(enc.revision(), WIRE_REV_LEGACY);
    }

    #[test]
    fn corrupted_frame_reports_checksum_and_resync_recovers() {
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
        // Flip a payload byte in the first frame.
        let mut stream = Vec::new();
        let mut bad = frames[0].clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        stream.extend_from_slice(&bad);
        for f in &frames[1..] {
            stream.extend_from_slice(f);
        }
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&stream);
        let mut decoded = Vec::new();
        let mut guard = 0;
        loop {
            match reader.next_message() {
                Ok(Some(msg)) => decoded.push(msg),
                // Stream over: pending bytes mean a false boundary
                // declared a length past the end of input — skip it,
                // like the client's stalled-framing path does.
                Ok(None) => {
                    if reader.pending_bytes() == 0 || reader.resync() == 0 {
                        break;
                    }
                }
                Err(_) => {
                    assert!(reader.resync() > 0);
                }
            }
            guard += 1;
            assert!(guard < 10_000, "resync loop stalled");
        }
        // The damaged frame never decodes into a wrong message; the
        // survivors all come through intact.
        assert!(reader.integrity().crc_fail >= 1);
        for msg in &decoded {
            assert!(msgs.contains(msg), "decoded a message never sent: {msg:?}");
        }
        assert!(decoded.len() >= msgs.len() - 1);
    }

    #[test]
    fn sequence_gap_delivers_and_latches() {
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&frames[0]);
        // Drop frame 1 entirely; frame 2 arrives next.
        reader.feed(&frames[2]);
        assert_eq!(reader.next_message().unwrap(), Some(msgs[0].clone()));
        assert!(!reader.take_seq_break());
        assert_eq!(reader.next_message().unwrap(), Some(msgs[2].clone()));
        assert!(reader.take_seq_break(), "gap should latch");
        assert!(!reader.take_seq_break(), "latch clears after take");
        let c = reader.integrity();
        assert_eq!(c.seq_gap, 1);
        assert_eq!(c.gap_frames, 1);
    }

    #[test]
    fn duplicate_and_rollback_frames_are_dropped() {
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        // Deliver 0, 1, then 1 again (duplicate), then 0 (rollback),
        // then 2.
        for f in [&frames[0], &frames[1], &frames[1], &frames[0], &frames[2]] {
            reader.feed(f);
        }
        let mut decoded = Vec::new();
        while let Some(msg) = reader.next_message().expect("dups are silent") {
            decoded.push(msg);
        }
        assert_eq!(decoded, msgs[..3].to_vec());
        assert_eq!(reader.integrity().seq_dup, 2);
        assert!(!reader.take_seq_break(), "dups are not gaps");
    }

    #[test]
    fn a_frame_from_before_the_history_is_a_gap_not_a_dup() {
        // A reader with no history adopts whatever arrives first. When
        // reordering delivers frame 1 before frame 0, frame 0 was never
        // applied: dropping it silently would lose it unannounced.
        let msgs = non_handshake_samples();
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        for f in [&frames[1], &frames[0], &frames[1], &frames[2]] {
            reader.feed(f);
        }
        let mut decoded = Vec::new();
        while let Some(msg) = reader.next_message().expect("nothing is damaged") {
            decoded.push(msg);
        }
        assert_eq!(decoded, vec![msgs[1].clone(), msgs[2].clone()]);
        let c = reader.integrity();
        assert_eq!((c.seq_gap, c.gap_frames, c.seq_dup), (1, 1, 1));
        assert!(reader.take_seq_break(), "the lost frame latches a refresh");
    }

    #[test]
    fn sequence_wraps_without_false_gap() {
        let msg = Message::Ping {
            seq: 9,
            timestamp_us: 1,
        };
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&encode_message_seq(&msg, u32::MAX));
        reader.feed(&encode_message_seq(&msg, 0));
        assert!(reader.next_message().unwrap().is_some());
        assert!(reader.next_message().unwrap().is_some());
        assert_eq!(reader.integrity().seq_gap, 0);
        assert!(!reader.take_seq_break());
    }

    #[test]
    fn set_revision_resets_sequence_state() {
        let msg = Message::Ping {
            seq: 1,
            timestamp_us: 2,
        };
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&encode_message_seq(&msg, 7));
        assert!(reader.next_message().unwrap().is_some());
        // Simulate a reconnect: same revision object rebuilt.
        let counters = reader.integrity();
        let mut fresh = FrameReader::with_revision(reader.revision());
        fresh.feed(&encode_message_seq(&msg, 1_000_000));
        assert!(fresh.next_message().unwrap().is_some());
        assert_eq!(fresh.integrity().seq_gap, 0, "fresh reader accepts any seq");
        assert_eq!(counters.frames_verified, 1);
    }

    #[test]
    fn integrity_boundary_exact_limit_frame() {
        let payload_budget = MAX_FRAME_PAYLOAD as usize;
        // A Raw display command whose encoded payload hits the limit
        // exactly: header fields inside the payload take 27 bytes
        // (1 cmd + 16 rect + 1 encoding + 4 len + data... compute from
        // encode), so build then pad via data length arithmetic.
        let probe = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 1, 1),
            encoding: RawEncoding::PngLike,
            data: Vec::new().into(),
        });
        let overhead = encode_message(&probe).len() - LEGACY_HEADER_LEN;
        let data_len = payload_budget - overhead;
        let msg = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 1, 1),
            encoding: RawEncoding::PngLike,
            data: vec![0xA5; data_len].into(),
        });
        let bytes = encode_message_seq(&msg, 0);
        assert_eq!(bytes.len(), INTEGRITY_HEADER_LEN + payload_budget);
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&bytes);
        assert_eq!(reader.next_message().unwrap(), Some(msg));
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn integrity_boundary_over_limit_rejected_before_buffering() {
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        let mut header = vec![MSG_DISPLAY];
        header.extend_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        reader.feed(&header);
        assert!(matches!(
            reader.next_message(),
            Err(DecodeError::FrameTooLarge(n)) if n == MAX_FRAME_PAYLOAD + 1
        ));
    }

    #[test]
    fn integrity_boundary_truncated_header_mid_crc_waits() {
        let msg = Message::Ping {
            seq: 3,
            timestamp_us: 4,
        };
        let bytes = encode_message_seq(&msg, 5);
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        // 11 bytes: tag + len + seq + 2 of the 4 CRC bytes.
        reader.feed(&bytes[..11]);
        assert_eq!(reader.next_message().unwrap(), None, "mid-CRC header waits");
        assert_eq!(reader.integrity().crc_fail, 0);
        reader.feed(&bytes[11..]);
        assert_eq!(reader.next_message().unwrap(), Some(msg));
    }

    #[test]
    fn legacy_reader_unaffected_by_revision_constants() {
        // encode_message output is byte-identical to what a
        // FrameEncoder produces before negotiation.
        let msgs = sample_messages();
        let mut enc = FrameEncoder::new();
        for msg in &msgs {
            assert_eq!(enc.encode(msg), encode_message(msg));
        }
    }
}
