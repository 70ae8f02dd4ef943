//! The THINC server façade: a session of one.
//!
//! [`ThincServer`] is the virtual display driver a single-client
//! harness plugs into the window server below the device abstraction
//! (implementing [`VideoDriver`]). It is a [`SharedSession`] with one
//! viewer at a fixed [`ClientId`]: translation, delivery, the uplink
//! rules, the cursor, real-time marking and the checkpoint record are
//! the session's. Around it the server keeps only what a single-client
//! server has: the virtual audio device, the RC4 session cipher, and
//! the latch a harness polls for a client's refresh request — the
//! server holds no screen to answer it with.

use thinc_compress::Rc4;
use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_display::input::InputEvent;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_raster::{Color, Framebuffer, PixelFormat, Rect, YuvFrame};

use crate::audio::VirtualAudioDriver;
use crate::buffer::BufferStats;
use crate::checkpoint::{open, seal, CheckpointError, Reader, Writer};
use crate::delivery::{Delivery, DeliveryPolicy};
use crate::session::{ClientId, Received, SharedSession};
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
    /// Resize updates server-side when the client viewport is smaller
    /// (§6). Disable to reproduce client-side-resize systems.
    pub server_side_scaling: bool,
    /// RC4 session key; `None` disables encryption.
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
            server_side_scaling: true,
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
    /// The one-viewer session this configuration describes.
    fn session(&self) -> SharedSession {
        let policy = DeliveryPolicy {
            session: (self.width, self.height),
            scaling: self.server_side_scaling,
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
        session.join(OWNER.into(), self.width, self.height);
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
    /// Video messages queued.
    pub video_messages: u64,
    /// Audio messages queued.
    pub audio_messages: u64,
}

/// The session owner a server's one viewer is attached as.
const OWNER: &str = "thinc";

/// The server's one viewer.
const VIEWER: ClientId = ClientId(0);

/// The THINC server.
pub struct ThincServer {
    session: SharedSession,
    audio: Option<VirtualAudioDriver>,
    audio_messages: u64,
    rc4_key: Option<Vec<u8>>,
    cipher: Option<Rc4>,
    /// A client [`Message::RefreshRequest`] arrived and awaits a
    /// [`resync`](Self::resync) from the harness (which owns the
    /// screen).
    resync_requested: bool,
}

impl ThincServer {
    /// Creates a server for `config`, its viewer joined at the whole
    /// session's viewport.
    pub fn new(config: ServerConfig) -> Self {
        Self::around(config.session(), config.rc4_key)
    }

    fn around(session: SharedSession, rc4_key: Option<Vec<u8>>) -> Self {
        Self {
            session,
            audio: None,
            audio_messages: 0,
            cipher: rc4_key.as_deref().map(Rc4::new),
            rc4_key,
            resync_requested: false,
        }
    }

    /// Everything held for the client: backlog, debt, ladder level,
    /// viewport and scale, framer, cache ledger, counters.
    pub fn viewer(&self) -> &Delivery {
        self.session.viewer(VIEWER).expect("a server's viewer stays attached")
    }

    fn viewer_mut(&mut self) -> &mut Delivery {
        self.session.serving(VIEWER).expect("a server's viewer stays attached")
    }

    /// Aggregated statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            translator: self.session.translator_stats(),
            buffer: self.viewer().buffer().stats(),
            video_messages: self.viewer().video_messages(),
            audio_messages: self.audio_messages,
        }
    }

    /// The greeting sent to a connecting client.
    pub fn hello(&self) -> Message {
        self.session.hello()
    }

    /// The identity a redialing client's resume token must name.
    pub fn session_id(&self) -> u64 {
        self.session.session_id()
    }

    /// Frames `msg` for the wire (see [`Delivery::encode_frame`]).
    pub fn encode_frame(&mut self, msg: &Message) -> Vec<u8> {
        self.session.encode_frame(VIEWER, msg)
    }

    /// Advances the server's virtual clock (stamps A/V data and the
    /// display buffer's enqueue-latency accounting).
    pub fn set_time(&mut self, now: SimTime) {
        self.session.set_time(now);
    }

    /// Scheduler telemetry from the display buffer.
    pub fn scheduler_metrics(&self) -> &thinc_telemetry::SchedulerMetrics {
        self.viewer().buffer().scheduler_metrics()
    }

    /// Combined per-command wire accounting: display messages from the
    /// buffer plus the audio/video/cursor path.
    pub fn protocol_metrics(&self) -> thinc_telemetry::ProtocolMetrics {
        self.viewer().protocol_metrics().clone()
    }

    /// Re-sends the current contents of the view as a (scaled) RAW
    /// update, e.g. to settle a zoom before the next draw: "the server
    /// updates are necessary when the display size increases, because
    /// the client has only a small-size version of the display" (§6).
    pub fn refresh_view(&mut self, screen: &Framebuffer) {
        self.viewer_mut().owe_refresh();
        self.session.repay_refreshes(screen);
    }

    /// Handles a message arriving from the client (see
    /// [`SharedSession::handle_message`]). Input events are returned as
    /// window-system events for forwarding. What needs the screen is
    /// left latched or owed for the harness, which owns it: a refresh
    /// request awaits [`take_resync_request`](Self::take_resync_request),
    /// and what a resume token's verdict owes is settled by the next
    /// draw or [`repay_overflow_debt`](Self::repay_overflow_debt).
    pub fn handle_message(&mut self, msg: &Message) -> Option<InputEvent> {
        match self.session.receive(VIEWER, msg) {
            Received::Done(input) => input,
            Received::Resync => {
                self.resync_requested = true;
                None
            }
            Received::Resumed => None,
        }
    }

    /// Settles what the client is owed against `screen` without
    /// requiring a draw: an owed full-view refresh, the tiles a warm
    /// resume left owed, and whatever overflow-eviction debt fits
    /// under the byte bound (the rest waits until the link drains).
    pub fn repay_overflow_debt(&mut self, screen: &Framebuffer) {
        self.session.repay_refreshes(screen);
    }

    /// Installs the session cursor image (see
    /// [`SharedSession::set_cursor`]).
    pub fn set_cursor(&mut self, width: u32, height: u32, hot_x: i32, hot_y: i32, pixels: Vec<u8>) {
        self.session.set_cursor(width, height, hot_x, hot_y, pixels);
    }

    /// Resynchronizes a (re)connecting client (see
    /// [`SharedSession::resync_client`]): the cursor shape, live video
    /// streams re-announced and a full-view refresh; nothing else needs
    /// to persist at the client ("the client only contains transient
    /// soft state", §2). Revives a client the liveness tracker had
    /// declared dead.
    pub fn resync(&mut self, screen: &Framebuffer) {
        self.resync_requested = false;
        self.session.resync_client(VIEWER, screen);
    }

    /// Evaluates client liveness at `now` (see
    /// [`Delivery::poll_liveness`]).
    pub fn poll_liveness(&mut self, now: SimTime) -> crate::liveness::LivenessVerdict {
        *self.session.clock() = now;
        self.session.poll_client_liveness(VIEWER, now)
    }

    /// Resilience accounting: liveness events, resyncs, stale-video
    /// drops, plus the display buffer's overflow evictions and
    /// content-cache counters.
    pub fn resilience_metrics(&self) -> thinc_telemetry::ResilienceMetrics {
        self.viewer().resilience_metrics()
    }

    /// Whether the content-addressed cache is active for this client
    /// (a configured budget, and no hello below revision 3).
    pub fn cache_enabled(&self) -> bool {
        self.viewer().buffer().cache_enabled()
    }

    /// Opens the virtual audio device.
    pub fn open_audio(&mut self, sample_rate: u32, channels: u32) {
        let now = *self.session.clock();
        self.audio = Some(VirtualAudioDriver::new(sample_rate, channels, now.as_micros()));
    }

    /// Applications write PCM audio; packets queue for delivery.
    pub fn play_audio(&mut self, pcm: &[u8]) {
        if let Some(drv) = self.audio.as_mut() {
            let msgs = drv.write(pcm);
            self.audio_messages += msgs.len() as u64;
            self.viewer_mut().queue_av(msgs);
        }
    }

    /// Closes the audio device, flushing buffered samples.
    pub fn close_audio(&mut self) {
        if let Some(m) = self.audio.take().and_then(|mut drv| drv.drain()) {
            self.audio_messages += 1;
            self.viewer_mut().queue_av([m]);
        }
    }

    /// Ends all video streams (session teardown).
    pub fn end_video(&mut self) {
        self.viewer_mut().end_video();
    }

    /// Pending A/V messages not yet flushed.
    pub fn av_backlog(&self) -> usize {
        self.viewer().av_backlog()
    }

    /// Commands waiting in the display buffer.
    pub fn display_backlog(&self) -> usize {
        self.viewer().buffer().len()
    }

    /// Consumes a latched client refresh request (see
    /// [`Message::RefreshRequest`]). The harness that owns the screen
    /// should answer `true` with a [`resync`](Self::resync).
    pub fn take_resync_request(&mut self) -> bool {
        std::mem::take(&mut self.resync_requested)
    }

    /// Flushes queued updates without blocking: A/V first (paced data
    /// with deadlines), then the SRSF display queues. Returns
    /// `(arrival, message)` pairs for the client side.
    pub fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        *self.session.clock() = now;
        self.session.flush_client(VIEWER, now, pipe, trace)
    }

    /// Encrypts bytes with the session cipher (identity when
    /// encryption is off). Encryption is size-preserving, so traces
    /// and scheduling are unaffected; this exists for end-to-end
    /// fidelity tests and CPU-cost accounting.
    pub fn encrypt(&mut self, data: &mut [u8]) {
        if let Some(c) = self.cipher.as_mut() {
            c.apply(data);
        }
    }

    /// Serializes this server into a crash-consistent checkpoint
    /// image (see `docs/ROBUSTNESS.md`): the session record of
    /// [`SharedSession::checkpoint`] — configuration, cursor shape,
    /// per-tile digests of `screen` and the client's [`Delivery`]
    /// record — followed by the session key and the refresh-request
    /// latch. Deliberately *not* captured: the audio device, and what
    /// the session record leaves out.
    pub fn checkpoint(&self, screen: &Framebuffer) -> Vec<u8> {
        let mut w = Writer::new();
        self.session.encode_checkpoint(&mut w, screen);
        w.bool(self.rc4_key.is_some());
        if let Some(key) = &self.rc4_key {
            w.bytes(key);
        }
        w.bool(self.resync_requested);
        seal(w.into_inner())
    }

    /// Rebuilds a server from a [`checkpoint`](Self::checkpoint)
    /// image. Every corruption — truncation, bit flips, stale format
    /// versions, trailing garbage, a roster that is not the one
    /// viewer — surfaces as a typed [`CheckpointError`]; a partial
    /// server is never constructed. The session cipher is recreated
    /// from the key, so the keystream restarts from position zero (the
    /// client re-keys on reconnect).
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = Reader::new(open(bytes)?);
        let session = SharedSession::decode_checkpoint(&mut r)?;
        if session.client_ids() != [VIEWER] {
            return Err(CheckpointError::Malformed("a server image holds one viewer"));
        }
        let rc4_key = if r.bool()? { Some(r.bytes()?.to_vec()) } else { None };
        let mut server = Self::around(session, rc4_key);
        server.resync_requested = r.bool()?;
        if !r.exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes after checkpoint"));
        }
        Ok(server)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::checkpointable_server;
    use crate::scaling::ScalePolicy;
    use thinc_display::request::DrawRequest;
    use thinc_display::server::WindowServer;
    use thinc_display::SCREEN;
    use thinc_net::link::NetworkConfig;
    use thinc_protocol::commands::DisplayCommand;
    use thinc_protocol::message::ProtocolInput;
    use thinc_protocol::PROTOCOL_VERSION;
    use thinc_raster::{YuvFormat, YuvFrame};

    /// A 64x64 server whose client applies messages as they are, with
    /// no content store to resolve references from.
    fn config() -> ServerConfig {
        ServerConfig {
            width: 64,
            height: 64,
            cache_budget_bytes: None,
            ..ServerConfig::default()
        }
    }

    fn system() -> WindowServer<ThincServer> {
        WindowServer::new(64, 64, PixelFormat::Rgb888, ThincServer::new(config()))
    }

    fn flush_all(ws: &mut WindowServer<ThincServer>) -> Vec<Message> {
        let mut link = NetworkConfig::lan_desktop().connect();
        let mut trace = PacketTrace::new();
        let mut now = SimTime::ZERO;
        let mut msgs = Vec::new();
        for _ in 0..100 {
            let batch = ws.driver_mut().flush(now, &mut link.down, &mut trace);
            msgs.extend(batch.into_iter().map(|(_, m)| m));
            if ws.driver().av_backlog() == 0 && ws.driver().display_backlog() == 0 {
                break;
            }
            now = link.down.tx_free_at();
        }
        msgs
    }

    #[test]
    fn fill_reaches_the_wire_as_sfill() {
        let mut ws = system();
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(1, 2, 3),
        });
        let msgs = flush_all(&mut ws);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Message::Display(DisplayCommand::Sfill { .. }))));
    }

    #[test]
    fn video_frame_reaches_the_wire() {
        let mut ws = system();
        let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
        ws.process(DrawRequest::VideoPut {
            frame,
            dst: Rect::new(0, 0, 64, 64),
        });
        let msgs = flush_all(&mut ws);
        assert!(msgs.iter().any(|m| matches!(m, Message::VideoInit { .. })));
        assert!(msgs.iter().any(|m| matches!(m, Message::VideoData { .. })));
    }

    #[test]
    fn audio_write_produces_messages() {
        let mut ws = system();
        ws.driver_mut().open_audio(44_100, 2);
        ws.driver_mut().play_audio(&vec![0u8; 8192]);
        ws.driver_mut().close_audio();
        let msgs = flush_all(&mut ws);
        assert!(msgs.iter().filter(|m| matches!(m, Message::Audio { .. })).count() >= 2);
    }

    #[test]
    fn client_hello_activates_scaling() {
        let mut ws = system();
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: 1,
            viewport_width: 32,
            viewport_height: 32,
        });
        assert!(!ws.driver().viewer().scale().is_identity());
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 64, 64),
            color: Color::WHITE,
        });
        let msgs = flush_all(&mut ws);
        let r = msgs
            .iter()
            .find_map(|m| match m {
                Message::Display(DisplayCommand::Sfill { rect, .. }) => Some(*rect),
                _ => None,
            })
            .unwrap();
        assert_eq!(r, Rect::new(0, 0, 32, 32));
    }

    #[test]
    fn input_marks_updates_realtime() {
        let mut ws = system();
        // Click at (10, 10), then draw feedback there and bulk far away.
        let ev = ws.driver_mut().handle_message(&Message::Input(ProtocolInput::ButtonPress {
            x: 10,
            y: 10,
            button: 1,
        }));
        assert!(matches!(ev, Some(InputEvent::ButtonPress(_))));
        // A small fill outside the 32-pixel input halo around (10, 10),
        // then larger feedback inside it.
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(50, 50, 8, 8),
            color: Color::WHITE,
        });
        ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(4, 4, 16, 16),
            data: crate::fixtures::noise(16 * 16 * 3, 3),
        });
        let msgs = flush_all(&mut ws);
        // The button feedback (realtime) is the first *display*
        // update delivered although it arrived second and is larger:
        // SRSF alone would send the fill first (cursor control
        // messages precede both in the priority FIFO).
        let first_display = msgs
            .iter()
            .find(|m| matches!(m, Message::Display(_)))
            .unwrap();
        assert!(matches!(
            first_display,
            Message::Display(DisplayCommand::Raw { .. })
        ));
    }

    #[test]
    fn offscreen_to_screen_keeps_semantics_end_to_end() {
        let mut ws = system();
        let thinc_raster::Rect { .. } = Rect::default();
        let res = ws.process(DrawRequest::CreatePixmap { width: 16, height: 16 });
        let pm = match res {
            thinc_display::request::RequestResult::Created(id) => id,
            other => panic!("{other:?}"),
        };
        ws.process(DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 16, 16),
            color: Color::rgb(4, 5, 6),
        });
        // Nothing sent while drawing stays offscreen.
        assert_eq!(ws.driver().display_backlog(), 0);
        ws.process(DrawRequest::CopyArea {
            src: pm,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 16, 16),
            dst_x: 8,
            dst_y: 8,
        });
        let msgs = flush_all(&mut ws);
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Message::Display(DisplayCommand::Sfill { .. }))));
        assert!(!msgs
            .iter()
            .any(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
    }

    #[test]
    fn composite_travels_as_raw_of_blended_result() {
        let mut ws = system();
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 64, 64),
            color: Color::rgb(0, 0, 0),
        });
        let data: Vec<u8> = vec![255u8, 0, 0, 128]
            .into_iter()
            .cycle()
            .take(8 * 8 * 4)
            .collect();
        ws.process(DrawRequest::Composite {
            target: SCREEN,
            rect: Rect::new(8, 8, 8, 8),
            data,
            op: thinc_raster::CompositeOp::Over,
        });
        let msgs = flush_all(&mut ws);
        // The blend result arrives as RAW; a client replay matches.
        assert!(msgs
            .iter()
            .any(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
        let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
        for m in &msgs {
            client.apply(m);
        }
        assert_eq!(
            client.framebuffer().get_pixel(12, 12),
            ws.screen().get_pixel(12, 12)
        );
    }

    #[test]
    fn encryption_round_trip() {
        let mut s = ThincServer::new(ServerConfig {
            rc4_key: Some(b"0123456789abcdef".to_vec()),
            ..ServerConfig::default()
        });
        let mut data = b"display update".to_vec();
        s.encrypt(&mut data);
        assert_ne!(&data, b"display update");
        // The client decrypts with its own keystream at the same
        // position.
        let mut c = Rc4::new(b"0123456789abcdef");
        c.apply(&mut data);
        assert_eq!(&data, b"display update");
    }

    #[test]
    fn liveness_pings_then_declares_dead_and_resync_revives() {
        use crate::liveness::{LivenessConfig, LivenessVerdict};
        use thinc_net::time::SimDuration;
        let mut ws = system();
        let cfg = ServerConfig {
            liveness: Some(LivenessConfig {
                timeout: SimDuration::from_secs_f64(10.0),
                ping_interval: SimDuration::from_secs_f64(2.0),
            }),
            ..config()
        };
        *ws.driver_mut() = ThincServer::new(cfg);
        let secs = |s: f64| SimTime((s * 1e6) as u64);
        // Silence past the ping interval queues a probe on the wire.
        assert!(matches!(
            ws.driver_mut().poll_liveness(secs(3.0)),
            LivenessVerdict::SendPing { .. }
        ));
        let msgs = flush_all(&mut ws);
        assert!(msgs.iter().any(|m| matches!(m, Message::Ping { .. })));
        // A pong (any client message) rescues it.
        ws.driver_mut().set_time(secs(4.0));
        ws.driver_mut().handle_message(&Message::Pong {
            seq: 0,
            timestamp_us: 3_000_000,
        });
        assert!(matches!(
            ws.driver_mut().poll_liveness(secs(5.0)),
            LivenessVerdict::Alive
        ));
        // Sustained silence declares it dead — once.
        assert!(matches!(
            ws.driver_mut().poll_liveness(secs(14.5)),
            LivenessVerdict::Dead
        ));
        assert!(ws.driver().viewer().is_dead());
        let m = ws.driver().resilience_metrics();
        assert_eq!(m.liveness_timeouts(), 1);
        assert!(m.pings_sent() >= 1);
        // Reconnect: resync revives the client.
        let screen = ws.screen().clone();
        ws.driver_mut().resync(&screen);
        assert!(!ws.driver().viewer().is_dead());
        assert_eq!(ws.driver().resilience_metrics().resyncs(), 1);
    }

    #[test]
    fn overflow_debt_is_repaid_as_raw_and_client_converges() {
        // A tiny byte bound forces evictions; the next draw repays
        // the debt with fresh-screen RAW and the client still
        // converges to the exact screen content.
        let thinc = ThincServer::new(ServerConfig {
            buffer_bound_bytes: Some(4 * 1024),
            ..config()
        });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        // Several large overlapping images blow through the bound.
        for i in 0..6 {
            ws.process(DrawRequest::PutImage {
                target: SCREEN,
                rect: Rect::new(i * 4, i * 4, 32, 32),
                data: vec![(i * 40) as u8; 32 * 32 * 3],
            });
        }
        let evicted = ws.driver().stats().buffer.overflow_evicted;
        assert!(evicted > 0, "bound should have forced evictions");
        assert_eq!(ws.driver().resilience_metrics().overflow_evictions(), evicted);
        // Drain, then repay any debt deferred while the bound was
        // full (repayment only pushes pieces that fit).
        let mut msgs = flush_all(&mut ws);
        for _ in 0..10 {
            if !ws.driver().viewer().has_debt() {
                break;
            }
            let screen = ws.screen().clone();
            ws.driver_mut().repay_overflow_debt(&screen);
            msgs.extend(flush_all(&mut ws));
        }
        assert!(!ws.driver().viewer().has_debt());
        let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
        for m in &msgs {
            client.apply(m);
        }
        assert_eq!(client.framebuffer().data(), ws.screen().data());
    }

    #[test]
    fn av_bound_drops_oldest_video_keeps_control() {
        let thinc = ThincServer::new(ServerConfig {
            av_bound: Some(4),
            ..config()
        });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        ws.driver_mut().set_cursor(8, 8, 0, 0, vec![0; 8 * 8 * 4]);
        let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
        for _ in 0..10 {
            ws.process(DrawRequest::VideoPut {
                frame: frame.clone(),
                dst: Rect::new(0, 0, 64, 64),
            });
        }
        assert!(ws.driver().av_backlog() <= 4);
        assert!(ws.driver().resilience_metrics().stale_video_dropped() > 0);
        // The cursor shape survived the pressure.
        let msgs = flush_all(&mut ws);
        assert!(msgs.iter().any(|m| matches!(m, Message::CursorShape { .. })));
    }

    #[test]
    fn resync_reannounces_live_video_streams() {
        let mut ws = system();
        let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
        ws.process(DrawRequest::VideoPut {
            frame,
            dst: Rect::new(0, 0, 64, 64),
        });
        let _ = flush_all(&mut ws);
        // Reconnect: a fresh client must learn the stream geometry.
        let screen = ws.screen().clone();
        ws.driver_mut().resync(&screen);
        let msgs = flush_all(&mut ws);
        assert!(msgs.iter().any(|m| matches!(m, Message::VideoInit { .. })));
    }

    #[test]
    fn refresh_request_latches_until_taken() {
        let mut s = ThincServer::new(ServerConfig::default());
        assert!(!s.take_resync_request());
        s.handle_message(&Message::RefreshRequest { attempt: 1 });
        assert!(s.take_resync_request());
        assert!(!s.take_resync_request(), "latch is consumed");
    }

    #[test]
    fn stale_pong_does_not_rescue_the_client() {
        use crate::liveness::{LivenessConfig, LivenessVerdict};
        use thinc_net::time::SimDuration;
        let cfg = ServerConfig {
            liveness: Some(LivenessConfig {
                timeout: SimDuration::from_secs_f64(10.0),
                ping_interval: SimDuration::from_secs_f64(2.0),
            }),
            ..ServerConfig::default()
        };
        let mut s = ThincServer::new(cfg);
        let secs = |t: f64| SimTime((t * 1e6) as u64);
        // Probe goes out with seq 0.
        assert!(matches!(
            s.poll_liveness(secs(3.0)),
            LivenessVerdict::SendPing { seq: 0 }
        ));
        // A pong answering some other (long-gone) probe surfaces from
        // the recovering link's queue: it must not count as fresh
        // traffic.
        s.set_time(secs(4.0));
        s.handle_message(&Message::Pong {
            seq: 7,
            timestamp_us: 0,
        });
        assert!(matches!(s.poll_liveness(secs(10.5)), LivenessVerdict::Dead));
        assert!(s.viewer().is_dead());
    }

    #[test]
    fn degradation_ladder_descends_under_faults_and_recovers() {
        use crate::degradation::{DegradationConfig, DegradationLevel};
        use thinc_net::fault::FaultPlan;
        use thinc_net::time::SimDuration;
        let thinc = ThincServer::new(ServerConfig {
            buffer_bound_bytes: Some(32 * 1024),
            av_bound: Some(8),
            degradation: Some(DegradationConfig {
                degrade_after: 1,
                promote_after: 1,
                ..DegradationConfig::default()
            }),
            ..config()
        });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        // Link collapses for the first second.
        let plan = FaultPlan::seeded(3)
            .with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
        let mut link = NetworkConfig::lan_desktop().with_faults(plan).connect();
        let mut trace = PacketTrace::new();
        let secs = |t: f64| SimTime((t * 1e6) as u64);
        // Each flush inside the window is a pressured epoch.
        for i in 0..3 {
            let _ = ws
                .driver_mut()
                .flush(secs(0.1 * (i + 1) as f64), &mut link.down, &mut trace);
        }
        assert_eq!(ws.driver().viewer().degradation_level(), DegradationLevel::Survival);
        assert!(!ws.driver().viewer().scale().is_identity(), "survival shrinks the scale");
        let m = ws.driver().resilience_metrics();
        assert_eq!(m.degrade_steps(), 3);
        assert_eq!(m.max_degradation_level(), 3);
        assert_eq!(m.degradation_level(), 3);
        // The window clears: each clear epoch climbs one rung.
        for i in 0..3 {
            let _ = ws
                .driver_mut()
                .flush(secs(1.5 + 0.1 * i as f64), &mut link.down, &mut trace);
        }
        assert_eq!(ws.driver().viewer().degradation_level(), DegradationLevel::Full);
        assert!(ws.driver().viewer().scale().is_identity());
        let m = ws.driver().resilience_metrics();
        assert_eq!(m.promote_steps(), 3);
        assert_eq!(m.degradation_level(), 0);
        // The promotion back to Full owes a refresh: the next draw
        // repays the low-fidelity period and the client converges
        // byte-exact.
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(10, 10, 8, 8),
            color: Color::rgb(9, 8, 7),
        });
        let msgs = flush_all(&mut ws);
        let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
        client.apply_all(&msgs);
        assert_eq!(client.framebuffer().data(), ws.screen().data());
    }

    #[test]
    fn overflow_repay_respects_active_scaling() {
        // Regression: repaying debt while server-side scaling is
        // active used to read the *viewport-space* debt rects straight
        // off the session-sized screen and then scale the result
        // again — repainting the wrong region with doubly-shrunk
        // content. The ledger is session-space now and each piece is
        // scaled exactly once, so a scaled client converges to the
        // same image as a one-shot scaled snapshot of the screen.
        let thinc = ThincServer::new(ServerConfig {
            buffer_bound_bytes: Some(1024),
            ..config()
        });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: 1,
            viewport_width: 32,
            viewport_height: 32,
        });
        assert!(!ws.driver().viewer().scale().is_identity());
        for i in 0..6 {
            ws.process(DrawRequest::PutImage {
                target: SCREEN,
                rect: Rect::new(i * 4, i * 4, 32, 32),
                data: vec![(i * 40) as u8; 32 * 32 * 3],
            });
        }
        assert!(ws.driver().stats().buffer.overflow_evicted > 0);
        let mut msgs = flush_all(&mut ws);
        for _ in 0..10 {
            if !ws.driver().viewer().has_debt() {
                break;
            }
            let screen = ws.screen().clone();
            ws.driver_mut().repay_overflow_debt(&screen);
            msgs.extend(flush_all(&mut ws));
        }
        assert!(!ws.driver().viewer().has_debt());
        // Every repaid RAW must target the viewport, not a
        // doubly-shrunk corner of it.
        let vp = Rect::new(0, 0, 32, 32);
        for m in &msgs {
            if let Message::Display(cmd) = m {
                let r = cmd.dest_rect();
                assert!(
                    vp.contains(&r),
                    "command outside the viewport: {r:?}"
                );
            }
        }
        let mut client = thinc_client::ThincClient::new(32, 32, PixelFormat::Rgb888);
        client.apply_all(&msgs);
        // Expected: the final screen, scaled once.
        let (clip, data) = ws.screen().get_raw(&Rect::new(0, 0, 64, 64));
        let full = DisplayCommand::Raw {
            rect: clip,
            encoding: thinc_protocol::commands::RawEncoding::None,
            data: data.into(),
        };
        let scaled = ScalePolicy::new(64, 64, 32, 32)
            .transform(&full, ws.screen())
            .expect("full-screen raw survives scaling");
        let mut expect = thinc_client::ThincClient::new(32, 32, PixelFormat::Rgb888);
        expect.apply(&Message::Display(scaled));
        assert_eq!(client.framebuffer().data(), expect.framebuffer().data());
    }

    #[test]
    fn older_peers_turn_the_cache_off_and_revision3_turns_it_back_on() {
        let hello = |version| Message::ClientHello {
            version,
            viewport_width: 1024,
            viewport_height: 768,
        };
        let mut s = ThincServer::new(ServerConfig::default());
        assert!(s.cache_enabled(), "attaching is the handshake");
        assert_eq!(s.viewer().encoder().revision(), PROTOCOL_VERSION);
        s.handle_message(&hello(2));
        assert!(!s.cache_enabled(), "a revision-2 peer cannot resolve refs");
        s.handle_message(&hello(PROTOCOL_VERSION));
        assert!(s.cache_enabled());
        // And the config switch disables it even for revision-3 peers.
        let mut s = ThincServer::new(ServerConfig {
            cache_budget_bytes: None,
            ..ServerConfig::default()
        });
        s.handle_message(&hello(PROTOCOL_VERSION));
        assert!(!s.cache_enabled());
    }

    #[test]
    fn repeated_content_travels_as_cache_refs_and_client_converges() {
        let thinc = ThincServer::new(ServerConfig { width: 64, height: 64, ..ServerConfig::default() });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: 64,
            viewport_height: 64,
        });
        assert!(ws.driver().cache_enabled());
        let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
        let hello = ws.driver().hello();
        let bytes = ws.driver_mut().encode_frame(&hello);
        sc.feed(&bytes);
        // The same tile drawn three times: the first flush ships the
        // payload, later rounds ship references the client resolves
        // from its store.
        let mut refs = 0u64;
        for _ in 0..3 {
            ws.process(DrawRequest::PutImage {
                target: SCREEN,
                rect: Rect::new(0, 0, 16, 16),
                data: vec![123u8; 16 * 16 * 3],
            });
            for m in flush_all(&mut ws) {
                if matches!(m, Message::CacheRef { .. }) {
                    refs += 1;
                }
                let bytes = ws.driver_mut().encode_frame(&m);
                sc.feed(&bytes);
            }
        }
        assert!(refs >= 2, "repeat rounds must travel as references");
        assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
        let m = ws.driver().resilience_metrics();
        assert_eq!(m.cache_hits(), refs);
        assert_eq!(sc.resilience_metrics().cache_hits(), refs);
        assert!(m.cache_bytes_saved() > 0);
    }

    #[test]
    fn unsatisfiable_cache_miss_escalates_to_refresh() {
        let mut s = ThincServer::new(ServerConfig::default());
        s.handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: 1024,
            viewport_height: 768,
        });
        // A miss for a hash the ledger never held (or evicted): the
        // client skipped an update, so a full-view refresh is owed.
        s.handle_message(&Message::CacheMiss { hash: 0xBAD_C0DE });
        assert!(s.viewer().refresh_owed(), "unsatisfiable miss owes a refresh");
        assert_eq!(s.resilience_metrics().cache_misses(), 1);
    }

    /// A 64x64 server behind a revision-3 handshake, its screen painted
    /// with 64 distinct rows and a stream client converged on it.
    fn scrollable(config: ServerConfig) -> (WindowServer<ThincServer>, thinc_client::StreamClient) {
        let thinc = ThincServer::new(ServerConfig {
            width: 64,
            height: 64,
            ..config
        });
        let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: 64,
            viewport_height: 64,
        });
        let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
        let hello = ws.driver().hello();
        let bytes = ws.driver_mut().encode_frame(&hello);
        sc.feed(&bytes);
        for y in 0..64 {
            ws.process(DrawRequest::FillRect {
                target: SCREEN,
                rect: Rect::new(0, y, 64, 1),
                color: Color::rgb(y as u8 * 3, 200 - y as u8, 17),
            });
        }
        drain_into(&mut ws, &mut sc);
        assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
        (ws, sc)
    }

    fn drain_into(ws: &mut WindowServer<ThincServer>, sc: &mut thinc_client::StreamClient) {
        for m in flush_all(ws) {
            let bytes = ws.driver_mut().encode_frame(&m);
            sc.feed(&bytes);
        }
    }

    /// An 8-row scroll whose source and destination overlap: applied
    /// on top of a snapshot that already shows it, it scrolls twice.
    fn scroll_up(ws: &mut WindowServer<ThincServer>) {
        ws.process(DrawRequest::CopyArea {
            src: SCREEN,
            dst: SCREEN,
            src_rect: Rect::new(0, 8, 64, 56),
            dst_x: 0,
            dst_y: 0,
        });
    }

    #[test]
    fn copy_after_owed_refresh_converges() {
        // Regression: the owed refresh is read from a screen that
        // already shows the round's COPY, so pushing the COPY behind
        // it left the client's row 0 holding screen row 16, not 8.
        let (mut ws, mut sc) = scrollable(ServerConfig::default());
        ws.driver_mut().handle_message(&Message::CacheMiss { hash: 0xBAD_C0DE });
        scroll_up(&mut ws);
        drain_into(&mut ws, &mut sc);
        assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    }

    #[test]
    fn copy_after_ladder_promotion_converges() {
        use crate::degradation::{DegradationConfig, DegradationLevel};
        use thinc_net::fault::FaultPlan;
        use thinc_net::time::SimDuration;
        let (mut ws, mut sc) = scrollable(ServerConfig {
            degradation: Some(DegradationConfig {
                degrade_after: 1,
                promote_after: 1,
                ..DegradationConfig::default()
            }),
            ..ServerConfig::default()
        });
        // A collapsed link walks the ladder down, a clear one back up;
        // nothing draws meanwhile, so the promotion's refresh is still
        // owed when the scroll arrives.
        let plan = FaultPlan::seeded(3).with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
        let mut link = NetworkConfig::lan_desktop().with_faults(plan).connect();
        let mut trace = PacketTrace::new();
        for t in [100_000, 200_000, 300_000, 1_500_000, 1_600_000, 1_700_000] {
            let sent = ws.driver_mut().flush(SimTime(t), &mut link.down, &mut trace);
            assert!(sent.is_empty());
        }
        assert_eq!(ws.driver().viewer().degradation_level(), DegradationLevel::Full);
        assert_eq!(ws.driver().resilience_metrics().promote_steps(), 3);
        scroll_up(&mut ws);
        drain_into(&mut ws, &mut sc);
        assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    }

    #[test]
    fn server_restore_re_checkpoints_byte_exact() {
        let ws = checkpointable_server();
        let c1 = ws.driver().checkpoint(ws.screen());
        let mut restored = ThincServer::restore(&c1).expect("valid image restores");
        let c2 = restored.checkpoint(ws.screen());
        assert_eq!(c1, c2, "checkpoint(restore(c)) must equal c");
        let (a, b) = (restored.viewer(), ws.driver().viewer());
        assert_eq!(a.encoder().revision(), b.encoder().revision());
        assert_eq!(a.buffer().len(), b.buffer().len());
        assert_eq!(a.av_backlog(), b.av_backlog());
        assert_eq!(a.viewport(), b.viewport());
        assert_eq!(a.scale().view, b.scale().view);
        assert!(restored.cache_enabled());
        // The framer continues the sequence stream exactly where the
        // crashed server left it: the same message frames to the same
        // bytes on both sides.
        let probe = Message::CursorMove { x: 3, y: 4 };
        let mut original = checkpointable_server();
        assert_eq!(
            restored.encode_frame(&probe),
            original.driver_mut().encode_frame(&probe),
        );
    }

    #[test]
    fn corrupt_server_checkpoints_are_typed_errors() {
        let ws = checkpointable_server();
        let image = ws.driver().checkpoint(ws.screen());
        for cut in 0..image.len().min(200) {
            assert!(ThincServer::restore(&image[..cut]).is_err());
        }
        for byte in (0..image.len()).step_by(41) {
            let mut bad = image.clone();
            bad[byte] ^= 0x08;
            assert!(ThincServer::restore(&bad).is_err(), "flip at {byte}");
        }
        let mut grown = image.clone();
        grown.push(0);
        assert!(ThincServer::restore(&grown).is_err(), "trailing garbage");
    }

    #[test]
    fn restored_server_converges_the_client() {
        // A client that saw everything up to the crash converges
        // byte-exact on the stream the restored server produces.
        let mut ws = checkpointable_server();
        let mut sc = thinc_client::StreamClient::new(48, 48, PixelFormat::Rgb888);
        // Replay the pre-crash traffic (fixture flushed one epoch
        // before checkpointing; reproduce it through a fresh fixture
        // so the client sees those bytes).
        // Instead: drive this fixture from scratch so every delivered
        // frame reaches the client.
        let hello = ws.driver().hello();
        let bytes = ws.driver_mut().encode_frame(&hello);
        sc.feed(&bytes);
        let mut link = NetworkConfig::lan_desktop().connect();
        let mut trace = PacketTrace::new();
        let mut now = SimTime(20_000);
        for _ in 0..50 {
            let batch = ws.driver_mut().flush(now, &mut link.down, &mut trace);
            for (_, m) in &batch {
                let bytes = ws.driver_mut().encode_frame(m);
                sc.feed(&bytes);
            }
            if ws.driver().display_backlog() == 0 && ws.driver().av_backlog() == 0 {
                break;
            }
            now = link.down.tx_free_at();
        }
        // Crash & failover mid-session: new content arrives only
        // after the standby took over.
        let image = ws.driver().checkpoint(ws.screen());
        *ws.driver_mut() = ThincServer::restore(&image).unwrap();
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 64, 16),
            color: Color::rgb(9, 200, 9),
        });
        for _ in 0..50 {
            let batch = ws.driver_mut().flush(now, &mut link.down, &mut trace);
            for (_, m) in &batch {
                let bytes = ws.driver_mut().encode_frame(m);
                sc.feed(&bytes);
            }
            if ws.driver().display_backlog() == 0 && ws.driver().av_backlog() == 0 {
                break;
            }
            now = link.down.tx_free_at();
        }
        assert_eq!(
            sc.resilience_metrics().seq_gaps(),
            0,
            "failover must not break the frame sequence"
        );
        // Expected image: the final screen scaled once onto the
        // 48x48 viewport.
        let (clip, data) = ws.screen().get_raw(&Rect::new(0, 0, 64, 64));
        let full = DisplayCommand::Raw {
            rect: clip,
            encoding: thinc_protocol::commands::RawEncoding::None,
            data: data.into(),
        };
        let scaled = ScalePolicy::new(64, 64, 48, 48)
            .transform(&full, ws.screen())
            .expect("full-screen raw survives scaling");
        let mut expect = thinc_client::ThincClient::new(48, 48, PixelFormat::Rgb888);
        expect.apply(&Message::Display(scaled));
        assert_eq!(sc.client().framebuffer().data(), expect.framebuffer().data());
    }

    #[test]
    fn warm_resume_after_failover_repaints_the_unshipped_draw() {
        // The primary draws after its last image and dies before it
        // flushes: the standby restored from that image owes the warm-
        // resumed client the tiles that changed since, or the draw is
        // lost for good.
        let (mut ws, mut sc) = scrollable(ServerConfig::default());
        let image = ws.driver().checkpoint(ws.screen());
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(8, 8, 20, 12),
            color: Color::rgb(250, 10, 10),
        });
        *ws.driver_mut() = ThincServer::restore(&image).unwrap();
        let session_id = ws.driver().session_id();
        for msg in sc.redial(session_id, 0) {
            ws.driver_mut().handle_message(&msg);
        }
        let screen = ws.screen().clone();
        ws.driver_mut().repay_overflow_debt(&screen);
        drain_into(&mut ws, &mut sc);
        assert_eq!(ws.driver().resilience_metrics().resumes(), 1, "resumed warm");
        assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    }

    #[test]
    fn hello_reports_session_geometry() {
        let s = ThincServer::new(ServerConfig::default());
        match s.hello() {
            Message::ServerHello { width, height, depth, .. } => {
                assert_eq!((width, height, depth), (1024, 768, 24));
            }
            other => panic!("{other:?}"),
        }
    }
}
