//! The full THINC protocol message set.
//!
//! Beyond the five display commands, the protocol carries video
//! stream control and data ("additional protocol messages are used to
//! manipulate video streams … initialization and tearing down of a
//! video stream, and manipulation of the stream's position and size",
//! §4.2), timestamped audio (§4.2), client input, and session control
//! including the client-reported screen size that drives server-side
//! scaling (§6).

use thinc_raster::{Rect, YuvFormat};

use crate::commands::DisplayCommand;
use crate::payload::Bytes;

/// Client input forwarded to the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolInput {
    /// Pointer moved.
    PointerMove {
        /// X in session coordinates.
        x: i32,
        /// Y in session coordinates.
        y: i32,
    },
    /// Button pressed.
    ButtonPress {
        /// X in session coordinates.
        x: i32,
        /// Y in session coordinates.
        y: i32,
        /// Button number.
        button: u8,
    },
    /// Button released.
    ButtonRelease {
        /// X in session coordinates.
        x: i32,
        /// Y in session coordinates.
        y: i32,
        /// Button number.
        button: u8,
    },
    /// Key pressed.
    KeyPress {
        /// Key symbol.
        key: u32,
    },
    /// Key released.
    KeyRelease {
        /// Key symbol.
        key: u32,
    },
}

/// A protocol message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Server greeting: session geometry and format depth.
    ServerHello {
        /// Protocol version.
        version: u16,
        /// Session framebuffer width.
        width: u32,
        /// Session framebuffer height.
        height: u32,
        /// Bits per pixel of the session format.
        depth: u8,
    },
    /// Client greeting: the client's viewport size. When smaller than
    /// the session, the server resizes updates to fit (§6).
    ClientHello {
        /// Protocol version.
        version: u16,
        /// Client viewport width.
        viewport_width: u32,
        /// Client viewport height.
        viewport_height: u32,
    },
    /// A display update command.
    Display(DisplayCommand),
    /// Open a video stream.
    VideoInit {
        /// Stream id.
        id: u32,
        /// YUV format of the stream.
        format: YuvFormat,
        /// Source (encoded) frame width.
        src_width: u32,
        /// Source (encoded) frame height.
        src_height: u32,
        /// On-screen destination rectangle (client hardware scales).
        dst: Rect,
    },
    /// One video frame of stream `id`.
    VideoData {
        /// Stream id.
        id: u32,
        /// Frame sequence number.
        seq: u32,
        /// Server timestamp, microseconds (A/V sync, §4.2).
        timestamp_us: u64,
        /// YUV payload in the stream's format, `Arc`-shared so viewers
        /// of one scale class queue references to one frame.
        data: Bytes,
    },
    /// Move/resize a video stream's destination.
    VideoMove {
        /// Stream id.
        id: u32,
        /// New destination rectangle.
        dst: Rect,
    },
    /// Tear down a video stream.
    VideoEnd {
        /// Stream id.
        id: u32,
    },
    /// Timestamped audio samples from the virtual audio driver.
    Audio {
        /// Sequence number.
        seq: u32,
        /// Server timestamp, microseconds.
        timestamp_us: u64,
        /// PCM payload, `Arc`-shared across viewers.
        data: Bytes,
    },
    /// Client input event.
    Input(ProtocolInput),
    /// Client viewport change (zoom, window resize).
    Resize {
        /// New viewport width.
        viewport_width: u32,
        /// New viewport height.
        viewport_height: u32,
    },
    /// Client zoom: map this session-space region onto the viewport
    /// (§6 — "the user can zoom in on particular sections of the
    /// display"; the server resizes subsequent updates accordingly
    /// and refreshes the region, since the client only has a
    /// small-size version of it).
    SetView {
        /// Viewed region in session coordinates.
        view: Rect,
    },
    /// Server-defined cursor image. The client composites it over its
    /// framebuffer locally (save-under), so cursor motion costs a few
    /// bytes instead of display updates.
    CursorShape {
        /// Cursor width in pixels.
        width: u32,
        /// Cursor height in pixels.
        height: u32,
        /// Hotspot x within the image.
        hot_x: i32,
        /// Hotspot y within the image.
        hot_y: i32,
        /// RGBA pixels (alpha = cursor mask), tightly packed.
        pixels: Vec<u8>,
    },
    /// Cursor position in session coordinates (server-driven: apps
    /// can warp the pointer).
    CursorMove {
        /// Hotspot x.
        x: i32,
        /// Hotspot y.
        y: i32,
    },
    /// Server → client liveness probe. Display traffic normally
    /// doubles as the heartbeat; the server pings only when a client
    /// has been silent long enough to be suspect.
    Ping {
        /// Probe sequence number.
        seq: u32,
        /// Server virtual-time timestamp, microseconds (echoed back,
        /// so a pong measures the round trip).
        timestamp_us: u64,
    },
    /// Client → server liveness reply, echoing the probe's fields.
    Pong {
        /// Echoed probe sequence number.
        seq: u32,
        /// Echoed server timestamp, microseconds.
        timestamp_us: u64,
    },
    /// Client → server request for a full resync: the client detected
    /// stream damage (or reconnected on a fresh transport) and needs
    /// the cursor, video announcements and a full-view refresh resent.
    /// Issued by the client's reconnect policy, with the attempt
    /// number for diagnostics.
    RefreshRequest {
        /// Reconnect-policy attempt number (1-based).
        attempt: u32,
    },
    /// Server → client reference to a cached display payload
    /// (protocol revision 3): "apply the display message whose encoded
    /// bytes hash to `hash`". Emitted only for payloads the server's
    /// ledger says this client holds; a client that cannot resolve it
    /// answers with [`Message::CacheMiss`]. See [`crate::cache`].
    CacheRef {
        /// FNV-1a 64 content hash of the referenced encoded message.
        hash: u64,
    },
    /// Client → server report that a [`Message::CacheRef`] did not
    /// resolve in the client's store. The server answers with the
    /// byte-exact original payload (and repairs its ledger view).
    CacheMiss {
        /// Echoed content hash of the unresolved reference.
        hash: u64,
    },
    /// Client → server warm-resume token, presented instead of a
    /// [`Message::ClientHello`] when redialing after a server crash or
    /// failover. It names the session and client the server should
    /// restore from its checkpoint, the last sequence number the
    /// client actually received (so the restored encoder continues the
    /// counter instead of rolling it back), and a digest of the
    /// client's cache store (so the server can verify its restored
    /// ledger still mirrors it). A server that cannot honor the token
    /// — unknown session, unknown client, digest mismatch — falls back
    /// to the cold reconnect path; it never panics on one.
    ///
    /// Like the hello pair, this is a handshake message: it keeps
    /// revision-1 framing at every negotiated revision so a
    /// freshly-restored server can decode it before any negotiation
    /// state exists.
    SessionResume {
        /// Deterministic id of the session being resumed.
        session_id: u64,
        /// The client id the server assigned before the crash.
        client_id: u32,
        /// Last integrity-frame sequence number the client received.
        last_seq: u32,
        /// FNV-1a 64 digest over the client store's sorted key set.
        store_digest: u64,
    },
}

impl Message {
    /// Approximate wire size of the encoded message in bytes.
    ///
    /// Exact for all variants (verified by the wire tests): header
    /// plus payload.
    pub fn wire_size(&self) -> u64 {
        crate::wire::encoded_len(self)
    }

    /// Whether this message flows server → client.
    pub fn is_downstream(&self) -> bool {
        !matches!(
            self,
            Message::ClientHello { .. }
                | Message::Input(_)
                | Message::Resize { .. }
                | Message::SetView { .. }
                | Message::Pong { .. }
                | Message::RefreshRequest { .. }
                | Message::CacheMiss { .. }
                | Message::SessionResume { .. }
        )
    }

    /// The content-cache key for this message — the *name* a
    /// `CacheRef` carries: FNV-1a 64 of its final revision-1 frame —
    /// or `None` if it is not cacheable: only a `RAW`, `PFILL` or
    /// `BITMAP` whose frame is at least
    /// [`CACHE_MIN_PAYLOAD`](crate::CACHE_MIN_PAYLOAD) bytes is.
    ///
    /// Nothing is encoded to find out: the size is arithmetic and the
    /// hash runs over the frame's fields and its payload where they
    /// lie, to `fnv64(&encode_message(self))`. A serial pass over the
    /// payload, so the cache computes it only when a name has to leave
    /// the process ([`crate::cache::ContentStore`]).
    pub fn cache_key(&self) -> Option<u64> {
        crate::cache::cacheable(self).map(crate::wire::display_frame_fnv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directionality() {
        assert!(Message::ServerHello {
            version: 1,
            width: 1024,
            height: 768,
            depth: 24
        }
        .is_downstream());
        assert!(!Message::Input(ProtocolInput::KeyPress { key: 13 }).is_downstream());
        assert!(!Message::Resize {
            viewport_width: 320,
            viewport_height: 240
        }
        .is_downstream());
        assert!(!Message::RefreshRequest { attempt: 1 }.is_downstream());
        assert!(Message::CacheRef { hash: 0xDEAD }.is_downstream());
        assert!(!Message::CacheMiss { hash: 0xDEAD }.is_downstream());
        assert!(!Message::SessionResume {
            session_id: 0xFEED,
            client_id: 3,
            last_seq: 99,
            store_digest: 0xBEEF
        }
        .is_downstream());
        assert!(Message::Audio {
            seq: 0,
            timestamp_us: 0,
            data: Bytes::default()
        }
        .is_downstream());
    }
}
