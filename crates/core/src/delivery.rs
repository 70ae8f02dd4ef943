//! The per-client delivery pipeline.
//!
//! THINC keeps all session state on the server ("the client only
//! contains transient soft state", §2), and screen sharing (§7) is
//! the same update path with more than one buffer behind it. A
//! [`Delivery`] is that path for one client: the command buffer, the
//! scale policy, the video streams, the audio/video/control queue,
//! liveness and the degradation ladder, its [`Phase`] — what the client
//! is still owed, a full-view refresh or narrower refresh debt, and
//! whether it can be served at all — and its end of the wire: the
//! outgoing framer and the steps of the uplink protocol (negotiation,
//! viewport changes, cache misses, heartbeats and the redial ladder),
//! together with the operations on them, each written once. What each
//! uplink message means is one match, in `SharedSession::receive`.
//! [`SharedSession`](crate::session::SharedSession) is the one holder:
//! it constructs, restores and checkpoints every `Delivery`, keeps a
//! roster of them and shares work between clients at the same scale;
//! a [`ServerConfig`](crate::server::ServerConfig) describes a session
//! of one.
//!
//! The decisions this pipeline makes where earlier copies disagreed
//! are tabulated in `docs/ROBUSTNESS.md` ("One façade").

use std::collections::VecDeque;

use thinc_compress::Rc4;
use thinc_net::fault::FaultStats;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::codec::{BufMut, Field};
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::Message;
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::{record, DecodeError, PROTOCOL_VERSION, WIRE_REV_CACHE, WIRE_REV_LEGACY};
use thinc_raster::{Framebuffer, Rect, Region};
use thinc_telemetry::{ProtocolMetrics, ResilienceMetrics};

use crate::buffer::checkpoint::BufferRecord;
use crate::buffer::ClientBuffer;
use crate::checkpoint::{CheckpointError, Framed};
use crate::degradation::{
    DegradationConfig, DegradationController, DegradationLevel, EpochSignals,
};
use crate::liveness::{LivenessConfig, LivenessTracker, LivenessVerdict};
use crate::plane::{FormStore, PlanRole, PlaneCounters};
use crate::scaling::ScalePolicy;
use crate::video::{VideoPayload, VideoScale, VideoStreamManager};

/// A video frame this much older than the flush that finds the pipe
/// blocked is dropped instead of sent: A/V data is only useful fresh
/// ("if updates are not buffered carefully … outdated content is sent
/// to the client").
const STALE_VIDEO_US: u64 = 200_000;

/// The policy every client of one session is delivered under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeliveryPolicy {
    /// Session framebuffer geometry.
    pub session: (u32, u32),
    /// Cap on the audio/video/control queue depth. Over the cap the
    /// oldest video frames are dropped first, then audio; control
    /// messages (cursor, stream lifecycle, pings) are never dropped.
    pub av_bound: Option<usize>,
    /// Probe silent clients and declare them dead after the timeout.
    pub liveness: Option<LivenessConfig>,
    /// Walk the fidelity ladder on fault telemetry.
    pub degradation: Option<DegradationConfig>,
}

impl DeliveryPolicy {
    /// Full fidelity, no liveness tracking, unbounded A/V queue.
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            session: (width, height),
            av_bound: None,
            liveness: None,
            degradation: None,
        }
    }
}

record! {
    /// A client's record: the framer (revision and next sequence
    /// number), the session key, the announced viewport and zoom view,
    /// what it is owed, its ladder level, the queued A/V, and the
    /// buffer's raw internal state.
    pub(crate) struct ClientRecord {
        revision: u32,
        next_seq: u32,
        key: Option<SessionKey>,
        viewport_w: u32,
        viewport_h: u32,
        view: Rect,
        /// The phase: whether the full view is owed, then the debt.
        owes_view: bool,
        debt: Region,
        ladder: Ladder,
        av: Vec<Framed>,
        buffer: BufferRecord,
    }
}

/// A keyed viewer's RC4 key: 1 to 256 bytes, what RC4 takes.
pub(crate) struct SessionKey(pub(crate) Vec<u8>);

impl Field for SessionKey {
    const MIN_LEN: u64 = 4;
    fn put(&self, out: &mut impl BufMut) {
        self.0.put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let key = Vec::get(buf)?;
        if !(1..=256).contains(&key.len()) {
            return Err(DecodeError::Malformed("session key length"));
        }
        Ok(Self(key))
    }
    fn wire_len(&self) -> u64 {
        self.0.wire_len()
    }
}

/// A viewer's ladder level: its byte, or 0xFF without a ladder.
pub(crate) struct Ladder(pub(crate) Option<DegradationLevel>);

impl Field for Ladder {
    const MIN_LEN: u64 = 1;
    fn put(&self, out: &mut impl BufMut) {
        match self.0 {
            Some(level) => level.put(out),
            None => 0xFFu8.put(out),
        }
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        if let Some((0xFF, rest)) = buf.split_first() {
            *buf = rest;
            return Ok(Self(None));
        }
        DegradationLevel::get(buf).map(|level| Self(Some(level)))
    }
}

/// One round of commands as one scale class receives it: each command
/// transformed for the class's [`ScalePolicy`] (`None` where it maps to
/// nothing visible) and, when asked for, the full-view refresh at that
/// scale. Clients at the same scale receive identical renditions, so a
/// session renders one per class and shares it (`Bytes` payloads make
/// the per-client clone an `Arc` bump, not a copy).
#[derive(Debug)]
pub(crate) struct Rendition {
    cmds: Vec<Option<DisplayCommand>>,
    refresh: Option<DisplayCommand>,
}

impl Rendition {
    /// Renders `cmds` for `policy`. `screen` already reflects them
    /// (the store is mutated before the driver call).
    pub(crate) fn render(
        policy: &ScalePolicy,
        cmds: &[DisplayCommand],
        screen: &Framebuffer,
        with_refresh: bool,
    ) -> Self {
        Self {
            cmds: cmds.iter().map(|c| policy.transform(c, screen)).collect(),
            refresh: with_refresh.then(|| policy.raw_from_screen(&policy.view, screen)).flatten(),
        }
    }
}

/// What the server owes one viewer, and whether it can be served at
/// all: the server half of the transition table (`docs/PROTOCOL.md`
/// §3). A full view owed supersedes every narrower debt, so no phase
/// holds both.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Served, and owed this session-space area: refresh debt narrower
    /// than the full view (overflow evictions, a warm resume's delta),
    /// repaid piece by piece as pieces fit under the byte bound. In
    /// step when it is empty.
    Owes(Region),
    /// Resumed warm on a restored session: owes its debt plus the tiles
    /// that changed on the screen since the image, which the next call
    /// with the screen in hand works out.
    OwesDelta(Region),
    /// Owes the full view: a fresh attach, a resync, a scale change, or
    /// an update the client is known to have skipped (a cache miss).
    /// Repaid by the next push, which has the screen in hand.
    OwesView,
    /// The client's flush panicked: the panic was contained, the client
    /// is isolated from all further work, and the session keeps serving
    /// everyone else. Its state is unspecified (the panic may have
    /// struck mid-mutation); the only way back is detach and re-attach.
    Quarantined,
}

/// Everything the server holds for one client, and the operations on
/// it.
#[derive(Debug)]
pub struct Delivery {
    policy: DeliveryPolicy,
    buffer: ClientBuffer,
    scale: ScalePolicy,
    video: VideoStreamManager,
    /// Audio/video/control messages awaiting flush (FIFO; flushed
    /// ahead of the display queues — A/V is paced real-time).
    av: VecDeque<Message>,
    liveness: Option<LivenessTracker>,
    /// Per-client: one viewer's link never moves another's level.
    degradation: Option<DegradationController>,
    /// The viewport the client announced; the degradation ladder
    /// shrinks the one actually targeted.
    viewport: (u32, u32),
    /// What the client is owed. The buffer records overflow debt in the
    /// coordinate space of the commands it holds (viewport space while
    /// scaling); it is unmapped into the phase's session-space debt
    /// when repaid.
    phase: Phase,
    /// Liveness events, resyncs, ladder steps, stale A/V drops. Buffer
    /// evictions and cache counters merge in at read time.
    resilience: ResilienceMetrics,
    /// Outgoing wire framer. Attaching is the handshake, made out of
    /// band at this build's revision; the client's hello renegotiates
    /// it (a version-1 peer keeps the whole stream legacy-framed).
    encoder: FrameEncoder,
    /// The connection's RC4 session cipher (§7), if it is keyed: the
    /// key, for the checkpoint record, and the keystream every frame
    /// leaves through. Boxed: the keystream state is 258 bytes, and
    /// most connections of a roster are not keyed.
    cipher: Option<Box<(Vec<u8>, Rc4)>>,
}

impl Delivery {
    /// A client at full fidelity whose viewport is the whole session,
    /// delivering through `buffer`.
    pub(crate) fn new(policy: DeliveryPolicy, buffer: ClientBuffer, now: SimTime) -> Self {
        let (w, h) = policy.session;
        Self {
            policy,
            buffer,
            scale: ScalePolicy::new(w, h, w, h),
            video: VideoStreamManager::new(),
            av: VecDeque::new(),
            liveness: policy.liveness.map(|c| LivenessTracker::new(c, now)),
            degradation: policy.degradation.map(DegradationController::new),
            viewport: (w, h),
            phase: Phase::Owes(Region::new()),
            resilience: ResilienceMetrics::new(),
            encoder: FrameEncoder::with_revision(PROTOCOL_VERSION),
            cipher: None,
        }
    }

    /// Keys the connection: every frame from now on leaves encrypted
    /// by an RC4 keystream started from `key` (1 to 256 bytes).
    pub(crate) fn set_key(&mut self, key: &[u8]) {
        self.cipher = Some(Box::new((key.to_vec(), Rc4::new(key))));
    }

    /// Frames `msg` for the wire at the negotiated revision, stamping
    /// revision-2 frames with a sequence number and CRC32, and
    /// encrypting them on a keyed connection (size-preserving, so
    /// traces and scheduling are unaffected). Whatever moves real bytes
    /// (rather than `Message` values) must encode through this so the
    /// client's integrity verification has something to verify.
    pub fn encode_frame(&mut self, msg: &Message) -> Vec<u8> {
        let mut frame = self.encoder.encode(msg);
        if let Some(cipher) = self.cipher.as_mut() {
            cipher.1.apply(&mut frame);
        }
        frame
    }

    /// The outgoing framer (negotiated revision, next sequence number).
    pub fn encoder(&self) -> &FrameEncoder {
        &self.encoder
    }

    /// The display command buffer (backlog, statistics, cache ledger).
    pub fn buffer(&self) -> &ClientBuffer {
        &self.buffer
    }

    /// Advances the clock that stamps buffered commands for
    /// enqueue-to-wire latency.
    pub fn set_time(&mut self, now: SimTime) {
        self.buffer.set_time(now);
    }

    /// The scale updates are currently transformed under.
    pub fn scale(&self) -> ScalePolicy {
        self.scale
    }

    /// The viewport the client announced.
    pub fn viewport(&self) -> (u32, u32) {
        self.viewport
    }

    /// What the client is owed, and whether it can be served.
    pub fn phase(&self) -> &Phase {
        &self.phase
    }

    /// Whether the client is owed a full-view refresh.
    pub fn refresh_owed(&self) -> bool {
        self.phase == Phase::OwesView
    }

    /// Whether the client's flush panicked (see [`Phase::Quarantined`]).
    pub(crate) fn quarantined(&self) -> bool {
        self.phase == Phase::Quarantined
    }

    /// Whether screen regions are still owed a refresh narrower than
    /// the full view, after overflow evictions or a warm resume.
    pub fn has_debt(&self) -> bool {
        let owed = matches!(&self.phase, Phase::Owes(debt) | Phase::OwesDelta(debt) if !debt.is_empty());
        self.buffer.has_overflow_debt() || owed
    }

    /// Audio/video/control messages not yet flushed.
    pub fn av_backlog(&self) -> usize {
        self.av.len()
    }

    /// The fidelity level the degradation ladder is at (`Full` when
    /// adaptation is not configured).
    pub fn degradation_level(&self) -> DegradationLevel {
        self.degradation
            .as_ref()
            .map_or(DegradationLevel::Full, |c| c.level())
    }

    /// Whether the liveness tracker has declared the client dead.
    pub fn is_dead(&self) -> bool {
        self.liveness.as_ref().is_some_and(|t| t.is_dead())
    }

    /// Per-command wire accounting: display messages plus the
    /// audio/video/control queue.
    pub fn protocol_metrics(&self) -> &ProtocolMetrics {
        self.buffer.protocol_metrics()
    }

    /// Resilience accounting with the buffer's overflow evictions and
    /// content-cache counters folded in.
    pub fn resilience_metrics(&self) -> ResilienceMetrics {
        let mut m = self.resilience;
        m.merge(&self.buffer.resilience_counts());
        m
    }

    /// The resilience counters, for events only the holder observes
    /// (a contained flush panic, a resume-token verdict).
    pub(crate) fn resilience_mut(&mut self) -> &mut ResilienceMetrics {
        &mut self.resilience
    }

    /// The viewport actually targeted: the announced viewport shrunk
    /// by the degradation ladder's scale divisor.
    fn effective_viewport(&self) -> (u32, u32) {
        let div = self.degradation_level().scale_divisor().max(1);
        ((self.viewport.0 / div).max(1), (self.viewport.1 / div).max(1))
    }

    /// Points the scale policy and video resampling at the effective
    /// viewport showing `view`. Returns whether the scale changed.
    fn aim(&mut self, view: Rect) -> bool {
        let (sw, sh) = self.policy.session;
        let (ew, eh) = self.effective_viewport();
        self.video.set_scale(ew, sw, eh, sh);
        let scale = ScalePolicy::new(sw, sh, ew, eh).with_view(view);
        std::mem::replace(&mut self.scale, scale) != scale
    }

    /// Re-aims the scale. Buffered commands target the outgoing
    /// coordinate space (scaling may even have rewritten their
    /// overwrite class, e.g. an opaque BITMAP resampled into RAW), so
    /// on a change they are dropped and the client is owed the full
    /// view at the new scale.
    pub(crate) fn rescale(&mut self, view: Rect) {
        if self.aim(view) {
            let _ = self.buffer.drop_pending_for_rescale();
            self.phase = Phase::OwesView;
        }
    }

    /// Applies a viewport the client announced (hello, window resize,
    /// device switch), showing the whole session.
    pub fn set_viewport(&mut self, w: u32, h: u32) {
        let (sw, sh) = self.policy.session;
        self.viewport = (w.clamp(1, sw.max(1)), h.clamp(1, sh.max(1)));
        self.rescale(Rect::new(0, 0, sw, sh));
    }

    /// Applies a viewport the client rebuilt its display at (a window
    /// resize onto a new surface, a device switch). The new display and
    /// content store start empty whether or not the scale changed, so
    /// buffered commands go, the ledger restarts empty with the store
    /// it mirrors, and the full view is owed. A ledger kept across the
    /// resize would send references the new store cannot resolve.
    pub(crate) fn restart_display(&mut self, w: u32, h: u32) {
        self.set_viewport(w, h);
        let _ = self.buffer.drop_pending_for_rescale();
        self.buffer.reset_cache();
        self.phase = Phase::OwesView;
    }

    /// Owes the client the full view, settled by the next push.
    pub fn owe_refresh(&mut self) {
        self.phase = Phase::OwesView;
    }

    /// Negotiates the framing a client's hello announces, and applies
    /// its viewport. The session adopts the highest framing both sides
    /// speak; a version-1 client keeps the whole stream legacy-framed,
    /// so old captures and old clients still decode. `cache_budget` is
    /// the content-cache budget a peer announcing revision ≥ 3 is
    /// granted; older peers cannot resolve references, so their hello
    /// turns the ledger off.
    pub(crate) fn negotiate(&mut self, version: u16, viewport: (u32, u32), cache_budget: Option<u64>) {
        self.encoder.negotiate(version);
        if self.encoder.revision() < WIRE_REV_CACHE {
            self.buffer.disable_cache();
        } else if let Some(budget) = cache_budget {
            self.buffer.enable_cache(budget);
        }
        self.set_viewport(viewport.0, viewport.1);
    }

    /// Answers a cache miss. The client skipped an update, and whatever
    /// ran after it (a COPY reading the missed rect) may have spread the
    /// gap, so the ledger forgets the entry and the full view is owed
    /// from the screen, which is never older than anything already
    /// sent.
    pub(crate) fn miss(&mut self, hash: u64) {
        self.buffer.forget_missed(hash);
        self.phase = Phase::OwesView;
    }

    /// Client traffic doubles as the heartbeat — except a pong, which
    /// proves liveness only when it answers the latest outstanding
    /// probe: a delayed one surfacing from a recovering link's queue
    /// says nothing about the connection now.
    pub(crate) fn heartbeat(&mut self, msg: &Message, now: SimTime) {
        match (self.liveness.as_mut(), msg) {
            (Some(t), Message::Pong { seq, .. }) => _ = t.note_pong(*seq, now),
            (Some(t), _) => t.note_activity(now),
            (None, _) => {}
        }
    }

    /// Isolates the client after its flush panicked.
    pub(crate) fn quarantine(&mut self) {
        self.phase = Phase::Quarantined;
    }

    /// Works out a warm resume's delta: `delta` is the session-space
    /// area that changed on the screen since the image. At identity
    /// scale it joins the debt; a scaled client resamples whole views,
    /// so any change owes it the full view (still far cheaper than a
    /// cold restart — no cache reset, no pending-state drop).
    pub(crate) fn owe_delta(&mut self, delta: &Region) {
        let Phase::OwesDelta(debt) = &mut self.phase else {
            return;
        };
        if self.scale.is_identity() || delta.is_empty() {
            debt.union(delta);
            self.phase = Phase::Owes(std::mem::take(debt));
        } else {
            self.phase = Phase::OwesView;
        }
    }

    /// Opens a push round for `cmds` and returns whether it begins
    /// with a full-view refresh.
    ///
    /// The screen a refresh is read from already reflects the round's
    /// commands. COPY is the one non-idempotent command: applied on
    /// top of a snapshot that already contains its effect it scrolls
    /// twice wherever source and destination overlap. A client owed
    /// the full view therefore never receives the round's COPYs (see
    /// [`push_rendition`](Self::push_rendition)), and a client with
    /// narrower debt cannot soundly take a COPY either — the debt
    /// repaint may cover only part of the copy's footprint — so its
    /// debt escalates to the full view first.
    pub(crate) fn begin_round(&mut self, cmds: &[DisplayCommand]) -> bool {
        if self.has_debt() && cmds.iter().any(is_copy) {
            self.phase = Phase::OwesView;
        }
        self.refresh_owed()
    }

    /// Queues a round from the [`Rendition`] of this client's scale
    /// (see [`begin_round`](Self::begin_round), which must have opened
    /// it): the owed full view first, then the commands — without the
    /// COPYs when the view was just repaid; idempotent repaints still
    /// flow, redundant over a snapshot but they keep the content cache
    /// warm — then whatever refresh debt fits. `screen` already
    /// reflects `cmds`; `realtime` marks commands (by session-space
    /// destination) that answer recent input.
    pub(crate) fn push_rendition(
        &mut self,
        cmds: &[DisplayCommand],
        rendition: &Rendition,
        screen: &Framebuffer,
        realtime: impl Fn(&Rect) -> bool,
    ) {
        let repaid = self.refresh_owed();
        if repaid {
            // The full view supersedes every narrower debt.
            self.phase = Phase::Owes(Region::new());
            let _ = self.buffer.take_overflow_debt();
            if let Some(refresh) = &rendition.refresh {
                self.buffer.push(refresh.clone(), false);
            }
        }
        for (cmd, scaled) in cmds.iter().zip(&rendition.cmds) {
            if repaid && is_copy(cmd) {
                continue;
            }
            if let Some(scaled) = scaled {
                self.buffer.push(scaled.clone(), realtime(&cmd.dest_rect()));
            }
        }
        self.repay_debt(screen);
    }

    /// Settles an owed full view and whatever refresh debt fits,
    /// without requiring a draw: a round of no commands.
    pub fn repay(&mut self, screen: &Framebuffer) {
        let owed = self.begin_round(&[]);
        let rendition = Rendition::render(&self.scale, &[], screen, owed);
        self.push_rendition(&[], &rendition, screen, |_| false);
    }

    /// Converts refresh debt into fresh-screen RAW updates. Evicted
    /// commands lose intermediate states, but the screen is
    /// authoritative: re-reading the debt region now yields the final
    /// content, so the client converges exactly. The buffer's debt is
    /// unmapped into the session-space ledger with the scale that
    /// produced it; each ledger piece is then read from the
    /// session-sized screen and scaled once. A piece bypasses the byte
    /// bound (`push_unbounded`, so repaying can never evict itself) but
    /// is only pushed when it fits under the bound or the buffer is
    /// empty; the rest stays in the ledger until the link drains.
    fn repay_debt(&mut self, screen: &Framebuffer) {
        let (Phase::Owes(debt) | Phase::OwesDelta(debt)) = &mut self.phase else {
            return;
        };
        if self.buffer.has_overflow_debt() {
            for rect in self.buffer.take_overflow_debt().rects() {
                debt.union_rect(&self.scale.unmap_rect(rect));
            }
        }
        if debt.is_empty() {
            return;
        }
        for rect in std::mem::take(debt).rects() {
            let Some(cmd) = self.scale.raw_from_screen(rect, screen) else {
                continue;
            };
            let pending = self.buffer.pending_bytes();
            let fits = self
                .buffer
                .effective_byte_bound()
                .is_none_or(|bound| pending == 0 || pending + cmd.wire_size() <= bound);
            if fits {
                self.buffer.push_unbounded(cmd, false);
            } else {
                debt.union_rect(rect);
            }
        }
    }

    /// Begins resynchronizing a (re)connecting client: the session's
    /// true state lives entirely on the server, so mobility is the live
    /// video streams re-announced plus the full view — nothing else
    /// needs to persist at the client. Stale pending commands and every
    /// narrower debt are dropped (the full view, owed until the next
    /// push or [`repay`](Self::repay), covers them), and a client the
    /// liveness tracker had declared dead is revived.
    pub(crate) fn begin_resync(&mut self, now: SimTime) {
        self.resilience.record_resync();
        if let Some(t) = self.liveness.as_mut() {
            t.reset(now);
        }
        self.av.extend(self.video.reannounce());
        let _ = self.buffer.drop_pending_for_rescale();
        self.phase = Phase::OwesView;
    }

    /// Resumes a redialing client warm (its token named the session and
    /// the client, and its content-store digest is the ledger's): the frame
    /// sequence continues right after the last frame the client proved
    /// it received, so its integrity verifier sees an unbroken stream,
    /// and its framebuffer and store are trusted as they are. On a
    /// restored session (`since_image`) the tiles changed since the
    /// image are owed on top of any debt, unless the full view is.
    pub(crate) fn resume(&mut self, last_seq: u32, since_image: bool) {
        self.resilience.record_resume();
        self.encoder.set_next_seq(last_seq.wrapping_add(1));
        if let (true, Phase::Owes(debt)) = (since_image, &mut self.phase) {
            self.phase = Phase::OwesDelta(std::mem::take(debt));
        }
    }

    /// Restarts a redialing client from nothing, the path a brand-new
    /// attach takes — so a stale or forged token can never do worse
    /// than a cold reconnect. `hello` goes out first on a restarted
    /// framer: a fresh `ServerHello` is how the client learns its token
    /// was refused, and it empties its content store on seeing one, so
    /// the ledger is cleared in the same breath (keeping the eviction
    /// mirror intact). Queued A/V predates the connection; the full
    /// view is owed.
    pub fn restart_cold(&mut self, hello: Message, now: SimTime) {
        self.resilience.record_cold_fallback();
        self.buffer.reset_cache();
        self.encoder = FrameEncoder::with_revision(self.encoder.revision());
        self.av.clear();
        self.av.push_back(hello);
        self.begin_resync(now);
    }

    /// Evaluates liveness at `now`: a silent client gets a
    /// [`Message::Ping`] queued (at most one per interval), and
    /// silence past the timeout declares it dead, latched until the
    /// next resync. `Alive` when liveness tracking
    /// is not configured.
    pub fn poll_liveness(&mut self, now: SimTime) -> LivenessVerdict {
        let Some(t) = self.liveness.as_mut() else {
            return LivenessVerdict::Alive;
        };
        let was_dead = t.is_dead();
        let verdict = t.poll(now);
        match verdict {
            LivenessVerdict::SendPing { seq } => {
                self.av.push_back(Message::Ping {
                    seq,
                    timestamp_us: now.as_micros(),
                });
                self.resilience.record_ping_sent();
            }
            LivenessVerdict::Dead if !was_dead => self.resilience.record_liveness_timeout(),
            _ => {}
        }
        verdict
    }

    /// Queues audio/video/control messages for the next flush.
    pub fn queue_av(&mut self, msgs: impl IntoIterator<Item = Message>) {
        self.av.extend(msgs);
        self.enforce_av_bound();
    }

    /// The scale this client's video is resampled to: what a session
    /// keys the payload it builds once per frame and class by.
    pub(crate) fn video_scale(&self) -> VideoScale {
        self.video.scale()
    }

    /// Runs one displayed video frame, resampled once per scale by the
    /// holder (see [`video_scale`](Self::video_scale)), through this
    /// client's stream manager and queues the result.
    pub(crate) fn display_video_payload(
        &mut self,
        payload: &VideoPayload,
        dst: Rect,
        timestamp_us: u64,
    ) {
        let msgs = self.video.display_payload(payload, dst, timestamp_us);
        self.queue_av(msgs);
    }

    /// Ends all video streams (session teardown).
    pub(crate) fn end_video(&mut self) {
        let msgs = self.video.end_all();
        self.queue_av(msgs);
    }

    /// Keeps the A/V queue under its configured depth, tightened by
    /// the degradation ladder (a struggling link gets a shallower
    /// queue so it carries fresher frames): oldest video frames go
    /// first (a late frame is worthless — the next one supersedes it),
    /// then oldest audio; control messages are small, required for
    /// correctness, and never dropped.
    fn enforce_av_bound(&mut self) {
        let Some(bound) = self.policy.av_bound else {
            return;
        };
        let bound = (bound / self.degradation_level().av_divisor().max(1)).max(1);
        while self.av.len() > bound {
            let victim = self
                .av
                .iter()
                .position(|m| matches!(m, Message::VideoData { .. }))
                .or_else(|| self.av.iter().position(|m| matches!(m, Message::Audio { .. })));
            let Some(idx) = victim else { break };
            self.av.remove(idx);
            self.resilience.record_stale_video_drop();
        }
    }

    /// Feeds one flush epoch of fault evidence to the degradation
    /// controller and applies any level change it decides on: the
    /// step is recorded, the buffer's bound and eviction preference
    /// follow the new level, and the scale is re-aimed (preserving a
    /// client's zoom). Every input is per-client — own buffer, own
    /// pipe, own controller.
    fn observe_degradation(&mut self, now: SimTime, pipe: &TcpPipe) {
        let Some(ctrl) = self.degradation.as_mut() else {
            return;
        };
        let fs = pipe.fault_stats();
        let signals = EpochSignals {
            pending_bytes: self.buffer.pending_bytes(),
            byte_bound: self.buffer.byte_bound(),
            overflow_evictions: self.buffer.stats().overflow_evicted,
            outage_defers: fs.outage_defers,
            collapsed_rounds: fs.collapsed_rounds,
            stale_av_drops: self.resilience.stale_video_dropped(),
            corrupt_events: fs.corrupt_events,
            segments_reordered: fs.segments_reordered,
            segments_duplicated: fs.segments_duplicated,
            link_impaired: pipe.fault_window_active(now),
        };
        let Some(t) = ctrl.observe(&signals) else {
            return;
        };
        self.resilience
            .record_degradation_step(t.to.index() as u64, t.is_demotion());
        self.buffer
            .set_degradation(t.to.bound_divisor(), t.to.raw_first_eviction());
        self.rescale(self.scale.view);
    }

    /// The first half of a flush: everything that may still change
    /// what is queued — the degradation ladder's verdict
    /// on the epoch (a step re-bounds the buffer and re-aims the
    /// scale) and the A/V bound. A session runs it before it asks the
    /// round's plans whether an earlier viewer was in the same state.
    /// A flush with something to send that finds the link down is a
    /// write the outage defers, counted on the pipe before the ladder
    /// reads it (the epoch is impaired either way).
    pub(crate) fn begin_flush(&mut self, now: SimTime, pipe: &mut TcpPipe) {
        if !self.av.is_empty() || !self.buffer.is_empty() {
            pipe.defer_write(now);
        }
        self.observe_degradation(now, pipe);
        self.enforce_av_bound();
    }

    /// The second half of a flush, without blocking: A/V first (paced
    /// data with deadlines), then the SRSF display queues in `role`
    /// (see [`ClientBuffer::flush_planned`]), against the session's
    /// form store. Returns `(arrival, message)` pairs for the client
    /// side.
    pub(crate) fn flush_begun(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        store: &mut FormStore,
        counters: &mut PlaneCounters,
        role: &PlanRole,
    ) -> Vec<(SimTime, Message)> {
        let mut out = Vec::new();
        while let Some(msg) = self.av.front() {
            let size = msg.wire_size();
            if pipe.would_block(now, size) {
                let stale = matches!(msg, Message::VideoData { timestamp_us, .. }
                    if now.as_micros() > timestamp_us + STALE_VIDEO_US);
                if !stale {
                    return out;
                }
                self.av.pop_front();
                self.resilience.record_stale_video_drop();
                continue;
            }
            let tag = match msg {
                Message::Audio { .. } => "audio",
                Message::CursorShape { .. } | Message::CursorMove { .. } => "cursor",
                Message::Ping { .. } | Message::Pong { .. } | Message::ServerHello { .. } => {
                    "control"
                }
                _ => "video",
            };
            let (_, arrival) = pipe.send(now, size);
            trace.record(now, arrival, size, Direction::Down, tag);
            let msg = self.av.pop_front().expect("front checked above");
            self.buffer.record_sent(&msg);
            out.push((arrival, msg));
        }
        let display = self.buffer.flush_planned(now, pipe, trace, store, counters, role);
        if out.is_empty() {
            // No A/V went out: the display batch is the output as it is.
            return display;
        }
        out.extend(display);
        out
    }

    /// This client's checkpoint record. Deliberately not captured
    /// (rebuilt fresh on restore): video stream internals (streams
    /// re-announce on resync), telemetry, and the liveness tracker with
    /// its probes — those are incarnation-local: the restored standby's
    /// fresh tracker issues its own pings, and a carried-over probe
    /// would draw a pong the standby's reset telemetry never accounted
    /// for (breaking pong ≤ ping conservation).
    pub(crate) fn record(&self) -> ClientRecord {
        let (owes_view, debt) = match &self.phase {
            Phase::Owes(debt) | Phase::OwesDelta(debt) => (false, debt.clone()),
            Phase::OwesView | Phase::Quarantined => (true, Region::new()),
        };
        ClientRecord {
            revision: u32::from(self.encoder.revision()),
            next_seq: self.encoder.next_seq(),
            key: self.cipher.as_ref().map(|cipher| SessionKey(cipher.0.clone())),
            viewport_w: self.viewport.0,
            viewport_h: self.viewport.1,
            view: self.scale.view,
            owes_view,
            debt,
            ladder: Ladder(self.degradation.as_ref().map(DegradationController::level)),
            av: self.av.iter().filter(|m| !matches!(m, Message::Ping { .. })).cloned().map(Framed).collect(),
            buffer: self.buffer.record(),
        }
    }

    /// Rebuilds a client from its [`record`](Self::record) under
    /// `policy`, with liveness restarted at `now` (a restored server
    /// must not inherit pre-crash silence), the ladder's hysteresis
    /// restarted clean at the recorded level, and the keystream
    /// restarted from the key (the client re-keys on reconnect).
    pub(crate) fn from_record(
        rec: ClientRecord,
        policy: DeliveryPolicy,
        now: SimTime,
    ) -> Result<Self, CheckpointError> {
        let revision = u16::try_from(rec.revision)
            .ok()
            .filter(|rev| (WIRE_REV_LEGACY..=PROTOCOL_VERSION).contains(rev))
            .ok_or(CheckpointError::Malformed("wire revision"))?;
        let degradation = match (policy.degradation, rec.ladder.0) {
            (Some(cfg), Some(level)) => Some(DegradationController::restore(cfg, level)),
            (None, None) => None,
            (Some(_), None) => return Err(CheckpointError::Malformed("missing degradation level")),
            (None, Some(_)) => return Err(CheckpointError::Malformed("orphan degradation level")),
        };
        let mut d = Self::new(policy, ClientBuffer::from_record(rec.buffer)?, now);
        let (sw, sh) = policy.session;
        d.viewport = (rec.viewport_w.clamp(1, sw.max(1)), rec.viewport_h.clamp(1, sh.max(1)));
        d.degradation = degradation;
        // The full view supersedes the debt an image holds beside it.
        d.phase = if rec.owes_view { Phase::OwesView } else { Phase::Owes(rec.debt) };
        d.av = rec.av.into_iter().map(|m| m.0).collect();
        d.encoder = FrameEncoder::with_revision(revision);
        d.encoder.set_next_seq(rec.next_seq);
        if let Some(SessionKey(key)) = rec.key {
            d.set_key(&key);
        }
        d.aim(rec.view);
        Ok(d)
    }
}

fn is_copy(cmd: &DisplayCommand) -> bool {
    matches!(cmd, DisplayCommand::Copy { .. })
}

/// Folds one link direction's injected-fault tallies into a resilience
/// group, by field name. The destructure is exhaustive on purpose: a
/// field added to [`FaultStats`] fails to compile here until it is
/// given a row.
pub fn fold_fault_stats(into: &mut ResilienceMetrics, stats: FaultStats) {
    let FaultStats {
        segments_lost,
        retransmits,
        corrupt_events,
        corrupted_bytes,
        outage_defers,
        collapsed_rounds,
        segments_reordered,
        segments_duplicated,
    } = stats;
    into.merge(&ResilienceMetrics {
        segments_lost,
        retransmits,
        corrupt_events,
        corrupted_bytes,
        outage_defers,
        collapsed_rounds,
        segments_reordered,
        segments_duplicated,
        ..ResilienceMetrics::default()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_row_is_folded() {
        let stats = FaultStats {
            segments_lost: 1,
            retransmits: 2,
            corrupt_events: 3,
            corrupted_bytes: 4,
            outage_defers: 5,
            collapsed_rounds: 6,
            segments_reordered: 7,
            segments_duplicated: 8,
        };
        let mut m = ResilienceMetrics::default();
        fold_fault_stats(&mut m, stats);
        assert_eq!(m.values().iter().sum::<u64>(), 36);
    }
}
