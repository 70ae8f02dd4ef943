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
//! The complete byte-layout reference, negotiation state machine, and
//! message-type table live in `docs/PROTOCOL.md`.
//!
//! Multi-byte integers are little-endian. Rectangles are
//! `x: i32, y: i32, w: u32, h: u32`; colors are `r, g, b, a` bytes.
//! [`FrameEncoder`] stamps outgoing frames at the negotiated revision;
//! [`FrameReader`] incrementally splits a byte stream back into
//! messages (the client feeds it whatever the transport delivers),
//! verifying checksums and sequence continuity at revision 2.

use bytes::{Buf, BufMut};
use thinc_raster::{Color, Rect, YuvFormat};

use crate::commands::{DisplayCommand, RawEncoding, Tile};
pub use crate::crc::crc32;
use crate::crc::{crc32_shift, crc32_update};
use crate::message::{Message, ProtocolInput};

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

// Message type bytes.
const MSG_SERVER_HELLO: u8 = 0x01;
const MSG_CLIENT_HELLO: u8 = 0x02;
const MSG_DISPLAY: u8 = 0x03;
const MSG_VIDEO_INIT: u8 = 0x04;
const MSG_VIDEO_DATA: u8 = 0x05;
const MSG_VIDEO_MOVE: u8 = 0x06;
const MSG_VIDEO_END: u8 = 0x07;
const MSG_AUDIO: u8 = 0x08;
const MSG_INPUT: u8 = 0x09;
const MSG_RESIZE: u8 = 0x0A;
const MSG_SET_VIEW: u8 = 0x0B;
const MSG_CURSOR_SHAPE: u8 = 0x0C;
const MSG_CURSOR_MOVE: u8 = 0x0D;
const MSG_PING: u8 = 0x0E;
const MSG_PONG: u8 = 0x0F;
// 0x10–0x14 are display command bytes (separate namespace inside the
// Display payload); the next free message tag sits above them.
const MSG_REFRESH_REQUEST: u8 = 0x16;
// Content-addressed cache messages (protocol revision 3).
const MSG_CACHE_REF: u8 = 0x17;
const MSG_CACHE_MISS: u8 = 0x18;
// Warm-resume handshake extension (failover redial). Handshake-framed
// — always revision-1 on the wire — so no protocol revision bump.
const MSG_SESSION_RESUME: u8 = 0x19;

// Display command type bytes.
const CMD_RAW: u8 = 0x10;
const CMD_COPY: u8 = 0x11;
const CMD_SFILL: u8 = 0x12;
const CMD_PFILL: u8 = 0x13;
const CMD_BITMAP: u8 = 0x14;

// Input type bytes.
const IN_POINTER_MOVE: u8 = 0x20;
const IN_BUTTON_PRESS: u8 = 0x21;
const IN_BUTTON_RELEASE: u8 = 0x22;
const IN_KEY_PRESS: u8 = 0x23;
const IN_KEY_RELEASE: u8 = 0x24;

fn put_rect(buf: &mut impl BufMut, r: &Rect) {
    buf.put_i32_le(r.x);
    buf.put_i32_le(r.y);
    buf.put_u32_le(r.w);
    buf.put_u32_le(r.h);
}

fn get_rect(buf: &mut &[u8]) -> Result<Rect, DecodeError> {
    if buf.remaining() < 16 {
        return Err(DecodeError::Truncated);
    }
    let x = buf.get_i32_le();
    let y = buf.get_i32_le();
    let w = buf.get_u32_le();
    let h = buf.get_u32_le();
    Ok(Rect::new(x, y, w, h))
}

fn put_color(buf: &mut impl BufMut, c: Color) {
    buf.put_u8(c.r);
    buf.put_u8(c.g);
    buf.put_u8(c.b);
    buf.put_u8(c.a);
}

fn get_color(buf: &mut &[u8]) -> Result<Color, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    Ok(Color::rgba(buf.get_u8(), buf.get_u8(), buf.get_u8(), buf.get_u8()))
}

fn put_bytes(buf: &mut impl BufMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn get_bytes(buf: &mut &[u8]) -> Result<Vec<u8>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    let out = buf[..len].to_vec();
    buf.advance(len);
    Ok(out)
}

fn encode_command(cmd: &DisplayCommand, buf: &mut impl BufMut) {
    match cmd {
        DisplayCommand::Raw { rect, encoding, data } => {
            buf.put_u8(CMD_RAW);
            put_rect(buf, rect);
            buf.put_u8(match encoding {
                RawEncoding::None => 0,
                RawEncoding::PngLike => 1,
            });
            put_bytes(buf, data);
        }
        DisplayCommand::Copy {
            src_rect,
            dst_x,
            dst_y,
        } => {
            buf.put_u8(CMD_COPY);
            put_rect(buf, src_rect);
            buf.put_i32_le(*dst_x);
            buf.put_i32_le(*dst_y);
        }
        DisplayCommand::Sfill { rect, color } => {
            buf.put_u8(CMD_SFILL);
            put_rect(buf, rect);
            put_color(buf, *color);
        }
        DisplayCommand::Pfill { rect, tile } => {
            buf.put_u8(CMD_PFILL);
            put_rect(buf, rect);
            buf.put_u32_le(tile.width);
            buf.put_u32_le(tile.height);
            put_bytes(buf, &tile.pixels);
        }
        DisplayCommand::Bitmap { rect, bits, fg, bg } => {
            buf.put_u8(CMD_BITMAP);
            put_rect(buf, rect);
            put_color(buf, *fg);
            match bg {
                Some(bg) => {
                    buf.put_u8(1);
                    put_color(buf, *bg);
                }
                None => buf.put_u8(0),
            }
            put_bytes(buf, bits);
        }
    }
}

fn decode_command(buf: &mut &[u8]) -> Result<DisplayCommand, DecodeError> {
    if buf.remaining() < 1 {
        return Err(DecodeError::Truncated);
    }
    let tag = buf.get_u8();
    match tag {
        CMD_RAW => {
            let rect = get_rect(buf)?;
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let encoding = match buf.get_u8() {
                0 => RawEncoding::None,
                1 => RawEncoding::PngLike,
                _ => return Err(DecodeError::Malformed("raw encoding")),
            };
            let data = get_bytes(buf)?;
            Ok(DisplayCommand::Raw {
                rect,
                encoding,
                data: data.into(),
            })
        }
        CMD_COPY => {
            let src_rect = get_rect(buf)?;
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let dst_x = buf.get_i32_le();
            let dst_y = buf.get_i32_le();
            Ok(DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            })
        }
        CMD_SFILL => {
            let rect = get_rect(buf)?;
            let color = get_color(buf)?;
            Ok(DisplayCommand::Sfill { rect, color })
        }
        CMD_PFILL => {
            let rect = get_rect(buf)?;
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let width = buf.get_u32_le();
            let height = buf.get_u32_le();
            let pixels = get_bytes(buf)?;
            Ok(DisplayCommand::Pfill {
                rect,
                tile: Tile {
                    width,
                    height,
                    pixels,
                },
            })
        }
        CMD_BITMAP => {
            let rect = get_rect(buf)?;
            let fg = get_color(buf)?;
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let bg = match buf.get_u8() {
                0 => None,
                1 => Some(get_color(buf)?),
                _ => return Err(DecodeError::Malformed("bitmap bg flag")),
            };
            let bits = get_bytes(buf)?;
            Ok(DisplayCommand::Bitmap { rect, bits, fg, bg })
        }
        other => Err(DecodeError::UnknownType(other)),
    }
}

fn yuv_tag(f: YuvFormat) -> u8 {
    match f {
        YuvFormat::Yv12 => 0,
        YuvFormat::Yuy2 => 1,
    }
}

fn yuv_from_tag(t: u8) -> Result<YuvFormat, DecodeError> {
    match t {
        0 => Ok(YuvFormat::Yv12),
        1 => Ok(YuvFormat::Yuy2),
        _ => Err(DecodeError::Malformed("yuv format")),
    }
}

/// Appends `msg`'s body bytes to `out` and returns its type tag.
///
/// This is the shared payload serializer behind both framings; the
/// caller reserves header space first and patches it afterwards, so
/// one reusable buffer serves every encode with zero per-call
/// allocations once warm.
fn encode_body(msg: &Message, payload: &mut Vec<u8>) -> u8 {
    match msg {
        Message::ServerHello {
            version,
            width,
            height,
            depth,
        } => {
            payload.put_u16_le(*version);
            payload.put_u32_le(*width);
            payload.put_u32_le(*height);
            payload.put_u8(*depth);
            MSG_SERVER_HELLO
        }
        Message::ClientHello {
            version,
            viewport_width,
            viewport_height,
        } => {
            payload.put_u16_le(*version);
            payload.put_u32_le(*viewport_width);
            payload.put_u32_le(*viewport_height);
            MSG_CLIENT_HELLO
        }
        Message::Display(cmd) => {
            encode_command(cmd, payload);
            MSG_DISPLAY
        }
        Message::VideoInit {
            id,
            format,
            src_width,
            src_height,
            dst,
        } => {
            payload.put_u32_le(*id);
            payload.put_u8(yuv_tag(*format));
            payload.put_u32_le(*src_width);
            payload.put_u32_le(*src_height);
            put_rect(payload, dst);
            MSG_VIDEO_INIT
        }
        Message::VideoData {
            id,
            seq,
            timestamp_us,
            data,
        } => {
            payload.put_u32_le(*id);
            payload.put_u32_le(*seq);
            payload.put_u64_le(*timestamp_us);
            put_bytes(payload, data);
            MSG_VIDEO_DATA
        }
        Message::VideoMove { id, dst } => {
            payload.put_u32_le(*id);
            put_rect(payload, dst);
            MSG_VIDEO_MOVE
        }
        Message::VideoEnd { id } => {
            payload.put_u32_le(*id);
            MSG_VIDEO_END
        }
        Message::Audio {
            seq,
            timestamp_us,
            data,
        } => {
            payload.put_u32_le(*seq);
            payload.put_u64_le(*timestamp_us);
            put_bytes(payload, data);
            MSG_AUDIO
        }
        Message::Input(input) => {
            match input {
                ProtocolInput::PointerMove { x, y } => {
                    payload.put_u8(IN_POINTER_MOVE);
                    payload.put_i32_le(*x);
                    payload.put_i32_le(*y);
                }
                ProtocolInput::ButtonPress { x, y, button } => {
                    payload.put_u8(IN_BUTTON_PRESS);
                    payload.put_i32_le(*x);
                    payload.put_i32_le(*y);
                    payload.put_u8(*button);
                }
                ProtocolInput::ButtonRelease { x, y, button } => {
                    payload.put_u8(IN_BUTTON_RELEASE);
                    payload.put_i32_le(*x);
                    payload.put_i32_le(*y);
                    payload.put_u8(*button);
                }
                ProtocolInput::KeyPress { key } => {
                    payload.put_u8(IN_KEY_PRESS);
                    payload.put_u32_le(*key);
                }
                ProtocolInput::KeyRelease { key } => {
                    payload.put_u8(IN_KEY_RELEASE);
                    payload.put_u32_le(*key);
                }
            }
            MSG_INPUT
        }
        Message::Resize {
            viewport_width,
            viewport_height,
        } => {
            payload.put_u32_le(*viewport_width);
            payload.put_u32_le(*viewport_height);
            MSG_RESIZE
        }
        Message::SetView { view } => {
            put_rect(payload, view);
            MSG_SET_VIEW
        }
        Message::CursorShape {
            width,
            height,
            hot_x,
            hot_y,
            pixels,
        } => {
            payload.put_u32_le(*width);
            payload.put_u32_le(*height);
            payload.put_i32_le(*hot_x);
            payload.put_i32_le(*hot_y);
            put_bytes(payload, pixels);
            MSG_CURSOR_SHAPE
        }
        Message::CursorMove { x, y } => {
            payload.put_i32_le(*x);
            payload.put_i32_le(*y);
            MSG_CURSOR_MOVE
        }
        Message::Ping { seq, timestamp_us } => {
            payload.put_u32_le(*seq);
            payload.put_u64_le(*timestamp_us);
            MSG_PING
        }
        Message::Pong { seq, timestamp_us } => {
            payload.put_u32_le(*seq);
            payload.put_u64_le(*timestamp_us);
            MSG_PONG
        }
        Message::RefreshRequest { attempt } => {
            payload.put_u32_le(*attempt);
            MSG_REFRESH_REQUEST
        }
        Message::CacheRef { hash } => {
            payload.put_u64_le(*hash);
            MSG_CACHE_REF
        }
        Message::CacheMiss { hash } => {
            payload.put_u64_le(*hash);
            MSG_CACHE_MISS
        }
        Message::SessionResume {
            session_id,
            client_id,
            last_seq,
            store_digest,
        } => {
            payload.put_u64_le(*session_id);
            payload.put_u32_le(*client_id);
            payload.put_u32_le(*last_seq);
            payload.put_u64_le(*store_digest);
            MSG_SESSION_RESUME
        }
    }
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
    out.clear();
    out.resize(LEGACY_HEADER_LEN, 0);
    let tag = encode_body(msg, out);
    let len = (out.len() - LEGACY_HEADER_LEN) as u32;
    out[0] = tag;
    out[1..5].copy_from_slice(&len.to_le_bytes());
}

/// A display command's revision-1 frame split at its payload: the
/// FNV-1a 64 state over everything before the payload (header, fixed
/// fields, length prefix — hashed as they are produced, none of it
/// built), and the payload, which is always the frame's last field.
fn display_frame_head(cmd: &DisplayCommand) -> (u64, &[u8]) {
    /// FNV state, and head bytes still to hash.
    struct Head(u64, usize);
    impl BufMut for Head {
        fn put_slice(&mut self, src: &[u8]) {
            let take = src.len().min(self.1);
            self.0 = crate::hash::fnv64_update(self.0, &src[..take]);
            self.1 -= take;
        }
    }
    let payload: &[u8] = match cmd {
        DisplayCommand::Raw { data, .. } => data,
        DisplayCommand::Pfill { tile, .. } => &tile.pixels,
        DisplayCommand::Bitmap { bits, .. } => bits,
        DisplayCommand::Copy { .. } | DisplayCommand::Sfill { .. } => &[],
    };
    let mut head = Head(crate::hash::FNV64_OFFSET, cmd.wire_size() as usize - payload.len());
    head.put_u8(MSG_DISPLAY);
    head.put_u32_le((cmd.wire_size() - LEGACY_HEADER_LEN as u64) as u32);
    encode_command(cmd, &mut head);
    (head.0, payload)
}

/// FNV-1a 64 of a display command's revision-1 frame — the rev-3
/// cache key's hash, the *name* a `CacheRef` speaks — run over the
/// frame where it lies: the head as it is produced, then the payload
/// in place. No frame is built; the value is
/// `fnv64(&encode_message(&Message::Display(cmd)))`.
pub(crate) fn display_frame_fnv(cmd: &DisplayCommand) -> u64 {
    let (head, payload) = display_frame_head(cmd);
    crate::hash::fnv64_update(head, payload)
}

/// The in-process *identity* of a display command's revision-1 frame:
/// the head's FNV state (a few dozen bytes) and
/// [`content_id`](crate::hash::content_id) of the payload's bytes,
/// mixed. A pure function of the frame bytes, at `content_id`'s speed
/// instead of FNV's serial chain. It reads the payload even where a
/// [`Bytes`](crate::Bytes) memoises an id: a view's memoised id is
/// derived from its root, and would tell a view from a byte-equal copy.
/// Never a wire value.
pub(crate) fn display_frame_id(cmd: &DisplayCommand) -> u64 {
    let (head, payload) = display_frame_head(cmd);
    let payload = crate::hash::content_id(payload);
    crate::hash::content_id([head, payload].map(u64::to_le_bytes).as_flattened())
}

/// The revision-1 encoded length of a message, by arithmetic: the
/// header, the body's fixed fields, and the one length-prefixed field
/// a body can end in. Nothing is encoded, so sizing a frame costs the
/// same whatever it carries (`wire_size_is_the_encoded_length` holds
/// it to [`encode_message`] for every variant).
pub fn encoded_len(msg: &Message) -> u64 {
    const RECT: u64 = crate::commands::RECT_BYTES;
    let prefixed = |data: &[u8]| 4 + data.len() as u64;
    let body = match msg {
        // Counts its own header, as the scheduler's size key must.
        Message::Display(cmd) => return cmd.wire_size(),
        Message::ServerHello { .. } => 11,
        Message::ClientHello { .. } => 10,
        Message::VideoInit { .. } => 13 + RECT,
        Message::VideoData { data, .. } => 16 + prefixed(data),
        Message::VideoMove { .. } => 4 + RECT,
        Message::VideoEnd { .. } | Message::RefreshRequest { .. } => 4,
        Message::Audio { data, .. } => 12 + prefixed(data),
        Message::Input(ProtocolInput::PointerMove { .. }) => 9,
        Message::Input(
            ProtocolInput::ButtonPress { .. } | ProtocolInput::ButtonRelease { .. },
        ) => 10,
        Message::Input(ProtocolInput::KeyPress { .. } | ProtocolInput::KeyRelease { .. }) => 5,
        Message::Resize { .. } | Message::CursorMove { .. } => 8,
        Message::SetView { .. } => RECT,
        Message::CursorShape { pixels, .. } => 16 + prefixed(pixels),
        Message::Ping { .. } | Message::Pong { .. } => 12,
        Message::CacheRef { .. } | Message::CacheMiss { .. } => 8,
        Message::SessionResume { .. } => 24,
    };
    LEGACY_HEADER_LEN as u64 + body
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
/// reached: a RAW, video or audio body ends in its shared payload, so
/// for payloads of [`CRC_COMPOSE_MIN`] bytes or more the register is
/// run over the header and the body's fixed fields only, and the
/// payload's share is composed in from the register its allocation
/// memoises — one pass per allocation instead of one per viewer.
pub fn encode_message_seq_into(msg: &Message, seq: u32, out: &mut Vec<u8>) {
    out.clear();
    out.resize(INTEGRITY_HEADER_LEN, 0);
    let tag = encode_body(msg, out);
    let len = (out.len() - INTEGRITY_HEADER_LEN) as u32;
    out[0] = tag;
    out[1..5].copy_from_slice(&len.to_le_bytes());
    out[5..9].copy_from_slice(&seq.to_le_bytes());
    let crc = crc32_update(!0, &out[..9]);
    let body = &out[INTEGRITY_HEADER_LEN..];
    let shared = match msg {
        Message::Display(DisplayCommand::Raw { data, .. })
        | Message::VideoData { data, .. }
        | Message::Audio { data, .. } => Some(data),
        _ => None,
    };
    let crc = match shared {
        Some(data) if data.len() >= CRC_COMPOSE_MIN => {
            let (fixed, payload) = body.split_at(body.len() - data.len());
            debug_assert_eq!(payload, data.as_slice(), "the body ends in its payload");
            crc32_shift(crc32_update(crc, fixed), payload.len()) ^ data.crc_from_zero()
        }
        _ => crc32_update(crc, body),
    };
    let crc = crc ^ !0;
    out[9..13].copy_from_slice(&crc.to_le_bytes());
}

/// Whether `msg` is a handshake message, which keeps revision-1
/// framing at every negotiated revision (it must be decodable before
/// the revision is known).
fn is_handshake(msg: &Message) -> bool {
    matches!(
        msg,
        Message::ServerHello { .. }
            | Message::ClientHello { .. }
            | Message::SessionResume { .. }
    )
}

/// Whether `tag` is a known top-level message type byte.
fn known_message_tag(tag: u8) -> bool {
    (MSG_SERVER_HELLO..=MSG_PONG).contains(&tag)
        || (MSG_REFRESH_REQUEST..=MSG_SESSION_RESUME).contains(&tag)
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
    if !known_message_tag(tag) {
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
    let msg = decode_payload(tag, &data[LEGACY_HEADER_LEN..LEGACY_HEADER_LEN + len])?;
    Ok((msg, LEGACY_HEADER_LEN + len))
}

/// Decodes a message body given its (already validated) type byte.
fn decode_payload(tag: u8, payload: &[u8]) -> Result<Message, DecodeError> {
    let mut buf = payload;
    let msg = match tag {
        MSG_SERVER_HELLO => {
            if buf.remaining() < 11 {
                return Err(DecodeError::Truncated);
            }
            Message::ServerHello {
                version: buf.get_u16_le(),
                width: buf.get_u32_le(),
                height: buf.get_u32_le(),
                depth: buf.get_u8(),
            }
        }
        MSG_CLIENT_HELLO => {
            if buf.remaining() < 10 {
                return Err(DecodeError::Truncated);
            }
            Message::ClientHello {
                version: buf.get_u16_le(),
                viewport_width: buf.get_u32_le(),
                viewport_height: buf.get_u32_le(),
            }
        }
        MSG_DISPLAY => Message::Display(decode_command(&mut buf)?),
        MSG_VIDEO_INIT => {
            if buf.remaining() < 13 {
                return Err(DecodeError::Truncated);
            }
            let id = buf.get_u32_le();
            let format = yuv_from_tag(buf.get_u8())?;
            let src_width = buf.get_u32_le();
            let src_height = buf.get_u32_le();
            let dst = get_rect(&mut buf)?;
            Message::VideoInit {
                id,
                format,
                src_width,
                src_height,
                dst,
            }
        }
        MSG_VIDEO_DATA => {
            if buf.remaining() < 16 {
                return Err(DecodeError::Truncated);
            }
            let id = buf.get_u32_le();
            let seq = buf.get_u32_le();
            let timestamp_us = buf.get_u64_le();
            let data = get_bytes(&mut buf)?.into();
            Message::VideoData {
                id,
                seq,
                timestamp_us,
                data,
            }
        }
        MSG_VIDEO_MOVE => {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let id = buf.get_u32_le();
            let dst = get_rect(&mut buf)?;
            Message::VideoMove { id, dst }
        }
        MSG_VIDEO_END => {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            Message::VideoEnd {
                id: buf.get_u32_le(),
            }
        }
        MSG_AUDIO => {
            if buf.remaining() < 12 {
                return Err(DecodeError::Truncated);
            }
            let seq = buf.get_u32_le();
            let timestamp_us = buf.get_u64_le();
            let data = get_bytes(&mut buf)?.into();
            Message::Audio {
                seq,
                timestamp_us,
                data,
            }
        }
        MSG_INPUT => {
            if buf.remaining() < 1 {
                return Err(DecodeError::Truncated);
            }
            let itag = buf.get_u8();
            let input = match itag {
                IN_POINTER_MOVE => {
                    if buf.remaining() < 8 {
                        return Err(DecodeError::Truncated);
                    }
                    ProtocolInput::PointerMove {
                        x: buf.get_i32_le(),
                        y: buf.get_i32_le(),
                    }
                }
                IN_BUTTON_PRESS | IN_BUTTON_RELEASE => {
                    if buf.remaining() < 9 {
                        return Err(DecodeError::Truncated);
                    }
                    let x = buf.get_i32_le();
                    let y = buf.get_i32_le();
                    let button = buf.get_u8();
                    if itag == IN_BUTTON_PRESS {
                        ProtocolInput::ButtonPress { x, y, button }
                    } else {
                        ProtocolInput::ButtonRelease { x, y, button }
                    }
                }
                IN_KEY_PRESS | IN_KEY_RELEASE => {
                    if buf.remaining() < 4 {
                        return Err(DecodeError::Truncated);
                    }
                    let key = buf.get_u32_le();
                    if itag == IN_KEY_PRESS {
                        ProtocolInput::KeyPress { key }
                    } else {
                        ProtocolInput::KeyRelease { key }
                    }
                }
                other => return Err(DecodeError::UnknownType(other)),
            };
            Message::Input(input)
        }
        MSG_RESIZE => {
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            Message::Resize {
                viewport_width: buf.get_u32_le(),
                viewport_height: buf.get_u32_le(),
            }
        }
        MSG_SET_VIEW => Message::SetView {
            view: get_rect(&mut buf)?,
        },
        MSG_CURSOR_SHAPE => {
            if buf.remaining() < 16 {
                return Err(DecodeError::Truncated);
            }
            let width = buf.get_u32_le();
            let height = buf.get_u32_le();
            let hot_x = buf.get_i32_le();
            let hot_y = buf.get_i32_le();
            let pixels = get_bytes(&mut buf)?;
            Message::CursorShape {
                width,
                height,
                hot_x,
                hot_y,
                pixels,
            }
        }
        MSG_CURSOR_MOVE => {
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            Message::CursorMove {
                x: buf.get_i32_le(),
                y: buf.get_i32_le(),
            }
        }
        MSG_PING | MSG_PONG => {
            if buf.remaining() < 12 {
                return Err(DecodeError::Truncated);
            }
            let seq = buf.get_u32_le();
            let timestamp_us = buf.get_u64_le();
            if tag == MSG_PING {
                Message::Ping { seq, timestamp_us }
            } else {
                Message::Pong { seq, timestamp_us }
            }
        }
        MSG_REFRESH_REQUEST => {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            Message::RefreshRequest {
                attempt: buf.get_u32_le(),
            }
        }
        MSG_CACHE_REF | MSG_CACHE_MISS => {
            if buf.remaining() < 8 {
                return Err(DecodeError::Truncated);
            }
            let hash = buf.get_u64_le();
            if tag == MSG_CACHE_REF {
                Message::CacheRef { hash }
            } else {
                Message::CacheMiss { hash }
            }
        }
        MSG_SESSION_RESUME => {
            if buf.remaining() < 24 {
                return Err(DecodeError::Truncated);
            }
            Message::SessionResume {
                session_id: buf.get_u64_le(),
                client_id: buf.get_u32_le(),
                last_seq: buf.get_u32_le(),
                store_digest: buf.get_u64_le(),
            }
        }
        other => return Err(DecodeError::UnknownType(other)),
    };
    Ok(msg)
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
        if self.revision < WIRE_REV_INTEGRITY || is_handshake(msg) {
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
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
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
        match decode_message(&self.buf) {
            Ok((msg, consumed)) => {
                self.buf.drain(..consumed);
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
            if self.buf.is_empty() {
                return Ok(None);
            }
            let tag = self.buf[0];
            if !known_message_tag(tag) {
                return Err(DecodeError::UnknownType(tag));
            }
            if tag == MSG_SERVER_HELLO || tag == MSG_CLIENT_HELLO || tag == MSG_SESSION_RESUME {
                // Handshake frames always use legacy framing.
                return match decode_message(&self.buf) {
                    Ok((msg, consumed)) => {
                        self.buf.drain(..consumed);
                        Ok(Some(msg))
                    }
                    Err(DecodeError::Truncated) => Ok(None),
                    Err(e) => Err(e),
                };
            }
            if self.buf.len() >= LEGACY_HEADER_LEN {
                let len = u32::from_le_bytes([self.buf[1], self.buf[2], self.buf[3], self.buf[4]]);
                if len > MAX_FRAME_PAYLOAD {
                    return Err(DecodeError::FrameTooLarge(len));
                }
            }
            if self.buf.len() < INTEGRITY_HEADER_LEN {
                return Ok(None);
            }
            let len = u32::from_le_bytes([self.buf[1], self.buf[2], self.buf[3], self.buf[4]])
                as usize;
            let total = INTEGRITY_HEADER_LEN + len;
            if self.buf.len() < total {
                return Ok(None);
            }
            let seq = u32::from_le_bytes([self.buf[5], self.buf[6], self.buf[7], self.buf[8]]);
            let stored = u32::from_le_bytes([self.buf[9], self.buf[10], self.buf[11], self.buf[12]]);
            let mut crc = crc32_update(!0, &self.buf[..9]);
            crc = crc32_update(crc, &self.buf[INTEGRITY_HEADER_LEN..total]);
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
                    self.buf.drain(..total);
                    continue;
                }
            } else {
                self.last_seq = Some(seq);
                self.first_seq = Some(seq);
            }
            let msg = decode_payload(tag, &self.buf[INTEGRITY_HEADER_LEN..total])?;
            self.buf.drain(..total);
            return Ok(Some(msg));
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
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
        if self.buf.is_empty() {
            return 0;
        }
        let mut offset = 1;
        while offset < self.buf.len() && !plausible_frame_start(&self.buf[offset..]) {
            offset += 1;
        }
        self.buf.drain(..offset);
        offset
    }
}

/// Whether `buf` could begin a valid frame: known message type byte
/// and, if the length field is visible, a sane declared length.
fn plausible_frame_start(buf: &[u8]) -> bool {
    let tag_ok = known_message_tag(buf[0]);
    if !tag_ok {
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
        // and a body whose inner length field promises more than the
        // frame holds is refused before anything is sized from it.
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
            assert_eq!(decode_message(&lying), Err(DecodeError::Truncated));
            // Cutting the frame short of its declared payload: the
            // outer length is honest, the inner one now overruns it.
            let mut short = enc[..enc.len() - 1].to_vec();
            let outer = (short.len() - LEGACY_HEADER_LEN) as u32;
            short[1..5].copy_from_slice(&outer.to_le_bytes());
            assert_eq!(decode_message(&short), Err(DecodeError::Truncated));
        }
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
    fn ping_pong_directionality() {
        assert!(Message::Ping {
            seq: 0,
            timestamp_us: 0
        }
        .is_downstream());
        assert!(!Message::Pong {
            seq: 0,
            timestamp_us: 0
        }
        .is_downstream());
    }

    // ---- integrity framing (revision 2) ----

    fn non_handshake_samples() -> Vec<Message> {
        sample_messages()
            .into_iter()
            .filter(|m| !is_handshake(m))
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
