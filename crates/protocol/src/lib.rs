#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The THINC remote display protocol.
//!
//! THINC encodes all display updates with five low-level commands
//! (Table 1 of the paper) that mirror the video-driver interface and
//! map directly onto client 2D hardware:
//!
//! | Command  | Description                                        |
//! |----------|----------------------------------------------------|
//! | `RAW`    | Display raw pixel data at a given location         |
//! | `COPY`   | Copy frame buffer area to specified coordinates    |
//! | `SFILL`  | Fill an area with a given pixel color value        |
//! | `PFILL`  | Tile an area with a given pixel pattern            |
//! | `BITMAP` | Fill a region using a bitmap image                 |
//!
//! All commands carry 24-bit color plus alpha. `RAW` is the only
//! command that may be compressed. Additional message types carry
//! video streams (YUV data for the client's hardware scaler), audio,
//! input events, and session control (handshake, viewport resize).
//!
//! - [`codec`]: the [`codec::Field`] trait every byte format is written
//!   in, and the [`record!`] macro that declares a struct's layout,
//! - [`commands`]: the display command objects and their wire sizes,
//! - [`message`]: the full protocol message set,
//! - [`wire`]: binary encoding/decoding with length-prefixed framing,
//! - [`payload`]: [`Bytes`], the shared immutable payload that
//!   memoises its own digests,
//! - [`crc`]: the word-wide CRC-32 kernel and its compositional shift,
//! - [`hash`]: the hand-rolled FNV-1a 64 content hash (wire-visible)
//!   and the word-at-a-time in-process `content_id`,
//! - [`mod@reference`]: retained byte-serial kernels the optimized ones
//!   are tested and timed against,
//! - [`cache`]: the content-addressed tile cache (revision 3) — the
//!   shared LRU, and the [`ContentStore`] over it that both the server
//!   ledger and the client store are, keyed by frame identity and
//!   naming entries only when a name leaves the process,
//! - [`telemetry`]: classification of messages for per-command
//!   metrics (`thinc-telemetry`).
//!
//! The wire-format reference is `docs/PROTOCOL.md`; the cache design
//! doc is `docs/CACHE.md`.

pub mod cache;
pub mod codec;
pub mod commands;
pub mod crc;
pub mod hash;
pub mod message;
pub mod payload;
pub mod reference;
pub mod telemetry;
pub mod wire;

pub use cache::{
    cache_id, store_digest, CacheLru, ContentStore, CACHE_MIN_PAYLOAD, DEFAULT_CACHE_BUDGET,
};
pub use commands::{DisplayCommand, RawEncoding, Tile};
pub use payload::Bytes;
pub use hash::fnv64;
pub use message::{Message, ProtocolInput};
pub use wire::{
    crc32, decode_message, encode_message, encode_message_seq, DecodeError, FrameEncoder,
    FrameReader, IntegrityCounters, WIRE_REV_CACHE, WIRE_REV_INTEGRITY, WIRE_REV_LEGACY,
};

/// Protocol version implemented by this crate.
///
/// Version 2 added the integrity wire framing: every non-handshake
/// frame carries a sequence number and CRC32 in an extended header
/// (see [`wire`]). Version 3 keeps that framing byte-for-byte and adds
/// the content-addressed cache capability (see [`cache`]): a server
/// may replace a display payload the client already holds with a
/// compact [`Message::CacheRef`], and the client may answer an
/// unresolved reference with [`Message::CacheMiss`]. Handshake frames
/// keep version-1 framing at every revision so negotiation itself
/// never depends on the outcome of negotiation.
pub const PROTOCOL_VERSION: u16 = 3;
