//! The single-client server: a session of one.
//!
//! [`ServerConfig`] describes a [`SharedSession`] with one viewer at
//! [`VIEWER`]: [`ServerConfig::session`] builds it, and translation,
//! delivery, the uplink rules, the cursor, the speaker, real-time
//! marking, the session cipher and the checkpoint image are the
//! session's. [`ThincServer`] wraps that session for the one harness
//! that still plugs a driver of its own into the window server; it
//! forwards what that harness calls and holds nothing else.

use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_raster::{Color, Framebuffer, PixelFormat, Rect, YuvFrame};

use crate::buffer::BufferStats;
use crate::delivery::{Delivery, DeliveryPolicy};
use crate::session::{ClientId, Heard, SharedSession};
use crate::translator::TranslatorStats;

/// Server configuration (the ablation switches map to the paper's
/// design choices).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Session framebuffer width.
    pub width: u32,
    /// Session framebuffer height.
    pub height: u32,
    /// Session pixel format (the paper runs 24-bit everywhere).
    pub format: PixelFormat,
    /// Track offscreen drawing (§4.1). Disable to reproduce the
    /// "ignore offscreen, send raw pixels" behaviour.
    pub offscreen_awareness: bool,
    /// RC4 session key (§7) of the viewer's connection: every frame
    /// its `encode_frame` produces leaves encrypted. `None` disables
    /// encryption.
    pub rc4_key: Option<Vec<u8>>,
    /// Byte bound on the per-client display buffer. When the backlog
    /// exceeds it the oldest non-realtime commands are evicted and
    /// their footprint is repaid later as a fresh-screen RAW refresh
    /// — graceful degradation instead of unbounded memory. `None`
    /// leaves the buffer unbounded (the seed behaviour).
    pub buffer_bound_bytes: Option<u64>,
    /// Cap on the audio/video/cursor FIFO depth. Over the cap the
    /// oldest video frames are dropped first, then audio; control
    /// messages (cursor, stream lifecycle, pings) are never dropped.
    pub av_bound: Option<usize>,
    /// Liveness policy: probe silent clients and declare them dead
    /// after the timeout. `None` disables liveness tracking.
    pub liveness: Option<crate::liveness::LivenessConfig>,
    /// Adaptive degradation policy: observe fault telemetry each
    /// flush epoch and walk the fidelity ladder (scale, A/V cap,
    /// buffer bound, eviction preference). `None` keeps full
    /// fidelity unconditionally (the seed behaviour).
    pub degradation: Option<crate::degradation::DegradationConfig>,
    /// Byte budget for the content-addressed cache ledger (protocol
    /// revision 3, see `docs/CACHE.md`). The ledger is on from the
    /// start and a client hello below revision 3 turns it off; `None`
    /// disables it even for revision-3 clients.
    pub cache_budget_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            width: 1024,
            height: 768,
            format: PixelFormat::Rgb888,
            offscreen_awareness: true,
            rc4_key: None,
            buffer_bound_bytes: None,
            av_bound: None,
            liveness: None,
            degradation: None,
            cache_budget_bytes: Some(thinc_protocol::DEFAULT_CACHE_BUDGET),
        }
    }
}

impl ServerConfig {
    /// The one-viewer session this configuration describes — the single
    /// way to build one. Its viewer is [`VIEWER`], joined at the whole
    /// session's viewport (attaching is the handshake) and keyed with
    /// [`rc4_key`](Self::rc4_key) when there is one.
    ///
    /// # Panics
    ///
    /// Panics if the key is empty or longer than 256 bytes.
    pub fn session(&self) -> SharedSession {
        let policy = DeliveryPolicy {
            session: (self.width, self.height),
            av_bound: self.av_bound,
            liveness: self.liveness,
            degradation: self.degradation,
        };
        let mut session = SharedSession::new(self.width, self.height, self.format, OWNER)
            .with_policy(policy, self.offscreen_awareness);
        if let Some(bound) = self.buffer_bound_bytes {
            session = session.with_buffer_bound(bound);
        }
        session.set_cache_budget(self.cache_budget_bytes);
        let viewer = session.join(OWNER.into(), self.width, self.height);
        if let (Some(key), Some(d)) = (&self.rc4_key, session.serving(viewer)) {
            d.set_key(key);
        }
        session
    }
}

/// Aggregated server statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Translation-layer counters.
    pub translator: TranslatorStats,
    /// Delivery counters.
    pub buffer: BufferStats,
}

/// The session owner a configured session's one viewer is attached as.
const OWNER: &str = "thinc";

/// The one viewer of a session built by [`ServerConfig::session`].
pub const VIEWER: ClientId = ClientId(0);

/// A configured session of one, driven as a [`VideoDriver`] of its own
/// (see the module documentation).
pub struct ThincServer {
    session: SharedSession,
}

impl ThincServer {
    /// Creates a server for `config` (see [`ServerConfig::session`]).
    pub fn new(config: ServerConfig) -> Self {
        Self { session: config.session() }
    }

    fn viewer(&self) -> &Delivery {
        self.session.viewer(VIEWER).expect("a server's viewer stays attached")
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            translator: self.session.translator_stats(),
            buffer: self.viewer().buffer().stats(),
        }
    }

    /// The greeting sent to a connecting client.
    pub fn hello(&self) -> Message {
        self.session.hello()
    }

    /// Frames `msg` for the wire (see [`Delivery::encode_frame`]).
    pub fn encode_frame(&mut self, msg: &Message) -> Vec<u8> {
        self.session.encode_frame(VIEWER, msg)
    }

    /// Advances the session clock (see [`SharedSession::set_time`]).
    pub fn set_time(&mut self, now: SimTime) {
        self.session.set_time(now);
    }

    /// Handles a message arriving from the client as far as that takes
    /// no screen: the one uplink match of [`SharedSession::handle_message`],
    /// without its answer from the screen. A refresh request goes
    /// unanswered, and what a resume token's verdict owes is settled by
    /// the next draw.
    pub fn handle_message(&mut self, msg: &Message) -> Heard {
        self.session.receive(VIEWER, msg)
    }

    /// The client's resilience accounting (see
    /// [`Delivery::resilience_metrics`]).
    pub fn resilience_metrics(&self) -> thinc_telemetry::ResilienceMetrics {
        self.viewer().resilience_metrics()
    }

    /// Whether the content-addressed cache is active for this client
    /// (a configured budget, and no hello below revision 3).
    pub fn cache_enabled(&self) -> bool {
        self.viewer().buffer().cache_enabled()
    }

    /// Opens the virtual audio device (see [`SharedSession::open_audio`]).
    pub fn open_audio(&mut self, sample_rate: u32, channels: u32) {
        self.session.open_audio(sample_rate, channels);
    }

    /// Writes PCM audio (see [`SharedSession::play_audio`]).
    pub fn play_audio(&mut self, pcm: &[u8]) {
        self.session.play_audio(pcm);
    }

    /// Pending A/V messages not yet flushed.
    pub fn av_backlog(&self) -> usize {
        self.viewer().av_backlog()
    }

    /// Commands waiting in the display buffer.
    pub fn display_backlog(&self) -> usize {
        self.session.backlog(VIEWER)
    }

    /// Flushes queued updates without blocking (see
    /// [`SharedSession::flush_client`]).
    pub fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        self.session.flush_client(VIEWER, now, pipe, trace)
    }
}

impl VideoDriver for ThincServer {
    fn create_pixmap(&mut self, store: &DrawableStore, id: DrawableId, w: u32, h: u32) {
        self.session.create_pixmap(store, id, w, h);
    }

    fn free_pixmap(&mut self, store: &DrawableStore, id: DrawableId) {
        self.session.free_pixmap(store, id);
    }

    fn solid_fill(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, color: Color) {
        self.session.solid_fill(store, target, rect, color);
    }

    fn pattern_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        tile: &Framebuffer,
    ) {
        self.session.pattern_fill(store, target, rect, tile);
    }

    fn stipple_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        bits: &[u8],
        fg: Color,
        bg: Option<Color>,
    ) {
        self.session.stipple_fill(store, target, rect, bits, fg, bg);
    }

    fn copy_area(
        &mut self,
        store: &DrawableStore,
        src: DrawableId,
        dst: DrawableId,
        src_rect: Rect,
        dst_x: i32,
        dst_y: i32,
    ) {
        self.session.copy_area(store, src, dst, src_rect, dst_x, dst_y);
    }

    fn put_image(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, data: &[u8]) {
        self.session.put_image(store, target, rect, data);
    }

    fn video_display(&mut self, store: &DrawableStore, frame: &YuvFrame, dst: Rect) {
        self.session.video_display(store, frame, dst);
    }

    fn composite(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        data: &[u8],
        op: thinc_raster::CompositeOp,
    ) {
        self.session.composite(store, target, rect, data, op);
    }
}

