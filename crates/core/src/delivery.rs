//! The per-client delivery pipeline.
//!
//! THINC keeps all session state on the server ("the client only
//! contains transient soft state", §2), and screen sharing (§7) is
//! the same update path with more than one buffer behind it. A
//! [`Delivery`] is that path for one client: the command buffer, the
//! scale policy, the video streams, the audio/video/control queue,
//! liveness and the degradation ladder, what the client is still owed
//! — a full-view refresh, or narrower refresh debt — and its end of the
//! wire: the outgoing framer and the uplink protocol
//! ([`handle_message`](Delivery::handle_message): negotiation, viewport
//! changes, cache misses, heartbeats and the redial ladder), together
//! with the operations on them, each written once.
//! [`ThincServer`](crate::server::ThincServer) wraps exactly one
//! `Delivery`; [`SharedSession`](crate::session::SharedSession) keeps
//! a roster of them and shares work between clients at the same
//! scale. Neither façade carries delivery logic of its own, and a
//! `Delivery` does not know which of them holds it.
//!
//! The decisions this pipeline makes where the two earlier copies
//! disagreed are tabulated in `docs/ROBUSTNESS.md` ("One delivery
//! pipeline").

use std::collections::VecDeque;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::{encode_message, FrameEncoder};
use thinc_protocol::WIRE_REV_CACHE;
use thinc_raster::{Framebuffer, Rect, Region, YuvFrame};
use thinc_telemetry::{ProtocolMetrics, ResilienceMetrics};

use crate::buffer::{decode_checkpoint_message, ClientBuffer};
use crate::checkpoint::{cache_digest, CheckpointError, Reader, Writer};
use crate::degradation::{
    DegradationConfig, DegradationController, DegradationLevel, EpochSignals,
};
use crate::liveness::{LivenessConfig, LivenessTracker, LivenessVerdict};
use crate::plane::{PlanRole, PlaneCounters, WirePlane};
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
    /// Resize updates server-side for a smaller viewport (§6). When
    /// off, updates always travel in session coordinates and the
    /// client resizes them itself.
    pub scaling: bool,
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
            scaling: true,
            av_bound: None,
            liveness: None,
            degradation: None,
        }
    }

    /// Writes everything but the session geometry (which every image
    /// carries in its own header).
    pub(crate) fn encode(&self, w: &mut Writer) {
        w.bool(self.scaling);
        w.opt_u64(self.av_bound.map(|n| n as u64));
        w.bool(self.liveness.is_some());
        if let Some(cfg) = self.liveness {
            w.u64(cfg.timeout.0);
            w.u64(cfg.ping_interval.0);
        }
        w.bool(self.degradation.is_some());
        if let Some(cfg) = self.degradation {
            w.u32(cfg.degrade_after);
            w.u32(cfg.promote_after);
            w.f64(cfg.pressure_fraction);
            w.u8(cfg.max_level.index() as u8);
        }
    }

    /// Inverse of [`encode`](Self::encode) for a session of the given
    /// geometry.
    pub(crate) fn decode(r: &mut Reader<'_>, session: (u32, u32)) -> Result<Self, CheckpointError> {
        let scaling = r.bool()?;
        let av_bound = r.opt_u64()?.map(|n| n as usize);
        let liveness = if r.bool()? {
            Some(LivenessConfig {
                timeout: SimDuration(r.u64()?),
                ping_interval: SimDuration(r.u64()?),
            })
        } else {
            None
        };
        let degradation = if r.bool()? {
            Some(DegradationConfig {
                degrade_after: r.u32()?,
                promote_after: r.u32()?,
                pressure_fraction: r.f64()?,
                max_level: level_from_u8(r.u8()?)?,
            })
        } else {
            None
        };
        Ok(Self { session, scaling, av_bound, liveness, degradation })
    }
}

/// Decodes a degradation-ladder level from its checkpoint byte.
fn level_from_u8(b: u8) -> Result<DegradationLevel, CheckpointError> {
    DegradationLevel::ALL
        .get(b as usize)
        .copied()
        .ok_or(CheckpointError::Malformed("degradation level"))
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
            refresh: full_view(policy, screen, with_refresh),
        }
    }
}

/// The full-view refresh at `policy`'s scale, when `wanted`.
fn full_view(policy: &ScalePolicy, screen: &Framebuffer, wanted: bool) -> Option<DisplayCommand> {
    wanted.then(|| screen_raw(policy, &policy.view, screen)).flatten()
}

/// Reads `rect` (session space) off the authoritative screen as a RAW
/// update, scaled exactly once for `policy`.
fn screen_raw(policy: &ScalePolicy, rect: &Rect, screen: &Framebuffer) -> Option<DisplayCommand> {
    let (clip, data) = screen.get_raw(rect);
    if clip.is_empty() {
        return None;
    }
    let raw = DisplayCommand::Raw {
        rect: clip,
        encoding: RawEncoding::None,
        data: data.into(),
    };
    policy.transform(&raw, screen)
}

/// What [`Delivery::handle_message`] leaves to its holder: the steps
/// of the uplink protocol that need the screen or the session's
/// identity, neither of which a `Delivery` has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uplink {
    /// Nothing further: handled here, or not a message delivery acts on.
    Done,
    /// The client asked for the full view (its reconnect policy, or a
    /// redial that could present no token): answer with
    /// [`Delivery::resync`].
    Resync,
    /// A redial presented a resume token: match the identity it names,
    /// then answer with [`Delivery::resume`] or
    /// [`Delivery::restart_cold`].
    Resume {
        /// The session the token claims to resume.
        session_id: u64,
        /// The client id the dead incarnation assigned.
        client_id: u32,
        /// The last frame sequence number the client received.
        last_seq: u32,
        /// Digest of the client's content-store key set.
        store_digest: u64,
    },
}

/// Everything the server holds for one client, and the operations on
/// it.
#[derive(Debug)]
pub struct Delivery {
    policy: DeliveryPolicy,
    buffer: ClientBuffer,
    scale: ScalePolicy,
    video: VideoStreamManager,
    /// Video messages queued so far (stream lifecycle and data).
    video_messages: u64,
    /// Audio/video/control messages awaiting flush (FIFO; flushed
    /// ahead of the display queues — A/V is paced real-time).
    av: VecDeque<Message>,
    liveness: Option<LivenessTracker>,
    /// Per-client, so a parallel flush fan-out stays deterministic:
    /// each worker only touches its own controller.
    degradation: Option<DegradationController>,
    /// The viewport the client announced; the degradation ladder
    /// shrinks the one actually targeted.
    viewport: (u32, u32),
    /// The client is owed the full view: fresh attach, resync, a
    /// scale change, or an update it is known to have skipped. Repaid
    /// by the next push, which has the screen in hand.
    refresh_owed: bool,
    /// Session-space screen area owed a refresh narrower than the full
    /// view. The buffer records overflow debt in the coordinate space
    /// of the commands it holds (viewport space while scaling); it is
    /// unmapped into this ledger when taken, and repaid piece by piece
    /// as pieces fit under the byte bound.
    refresh_debt: Region,
    /// Liveness events, resyncs, ladder steps, stale A/V drops. Buffer
    /// evictions and cache counters merge in at read time.
    resilience: ResilienceMetrics,
    /// Outgoing wire framer. Starts legacy; the client's hello
    /// upgrades it to integrity framing (sequence + CRC32) when both
    /// sides speak protocol version ≥ 2.
    encoder: FrameEncoder,
}

impl Delivery {
    /// A client at full fidelity whose viewport is the whole session,
    /// delivering through `buffer`.
    pub fn new(policy: DeliveryPolicy, buffer: ClientBuffer, now: SimTime) -> Self {
        let (w, h) = policy.session;
        Self {
            policy,
            buffer,
            scale: ScalePolicy::new(w, h, w, h),
            video: VideoStreamManager::new(),
            video_messages: 0,
            av: VecDeque::new(),
            liveness: policy.liveness.map(|c| LivenessTracker::new(c, now)),
            degradation: policy.degradation.map(DegradationController::new),
            viewport: (w, h),
            refresh_owed: false,
            refresh_debt: Region::new(),
            resilience: ResilienceMetrics::new(),
            encoder: FrameEncoder::new(),
        }
    }

    /// Frames `msg` for the wire at the negotiated revision, stamping
    /// revision-2 frames with a sequence number and CRC32. Whatever
    /// moves real bytes (rather than `Message` values) must encode
    /// through this so the client's integrity verification has
    /// something to verify.
    pub fn encode_frame(&mut self, msg: &Message) -> Vec<u8> {
        self.encoder.encode(msg)
    }

    /// The outgoing framer (negotiated revision, next sequence number).
    pub fn encoder(&self) -> &FrameEncoder {
        &self.encoder
    }

    /// The outgoing framer, for a holder that restores it from an
    /// image or pins it to a revision agreed out of band.
    pub(crate) fn encoder_mut(&mut self) -> &mut FrameEncoder {
        &mut self.encoder
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

    /// Whether the client is owed a full-view refresh.
    pub fn refresh_owed(&self) -> bool {
        self.refresh_owed
    }

    /// Whether screen regions are still owed a refresh after overflow
    /// evictions or a warm resume.
    pub fn has_debt(&self) -> bool {
        self.buffer.has_overflow_debt() || !self.refresh_debt.is_empty()
    }

    /// Audio/video/control messages not yet flushed.
    pub fn av_backlog(&self) -> usize {
        self.av.len()
    }

    /// Video messages queued so far.
    pub fn video_messages(&self) -> u64 {
        self.video_messages
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
        if !self.policy.scaling {
            return false;
        }
        let (sw, sh) = self.policy.session;
        let (ew, eh) = self.effective_viewport();
        self.video.set_scale(ew, sw, eh, sh);
        let scale = ScalePolicy::new(sw, sh, ew, eh).with_view(view);
        std::mem::replace(&mut self.scale, scale) != scale
    }

    /// Re-aims the scale. Buffered commands — and queued cache-miss
    /// fallbacks — target the outgoing coordinate space (scaling may
    /// even have rewritten their overwrite class, e.g. an opaque
    /// BITMAP resampled into RAW), so on a change they are dropped and
    /// the client is owed the full view at the new scale.
    fn rescale(&mut self, view: Rect) {
        if self.aim(view) {
            let _ = self.buffer.drop_pending_for_rescale();
            self.refresh_owed = true;
        }
    }

    /// Applies a viewport the client announced (hello, window resize,
    /// device switch), showing the whole session.
    pub fn set_viewport(&mut self, w: u32, h: u32) {
        let (sw, sh) = self.policy.session;
        self.viewport = (w.clamp(1, sw.max(1)), h.clamp(1, sh.max(1)));
        self.rescale(Rect::new(0, 0, sw, sh));
    }

    /// Zooms: maps `view` (session space) onto the viewport (§6).
    pub fn set_view(&mut self, view: Rect) {
        self.rescale(view);
    }

    /// Owes the client the full view, settled by the next push.
    pub fn owe_refresh(&mut self) {
        self.refresh_owed = true;
    }

    /// Owes the client a refresh of `region` (session space).
    pub fn owe_region(&mut self, region: &Region) {
        self.refresh_debt.union(region);
    }

    /// Opens a push round for `cmds` and returns whether it begins
    /// with a full-view refresh.
    ///
    /// The screen a refresh is read from already reflects the round's
    /// commands. COPY is the one non-idempotent command: applied on
    /// top of a snapshot that already contains its effect it scrolls
    /// twice wherever source and destination overlap. A client owed
    /// the full view therefore never receives the round's COPYs (see
    /// [`push_round`](Self::push_round)), and a client with
    /// narrower debt cannot soundly take a COPY either — the debt
    /// repaint may cover only part of the copy's footprint — so its
    /// debt escalates to the full view first.
    pub(crate) fn begin_round(&mut self, cmds: &[DisplayCommand]) -> bool {
        if self.has_debt() && cmds.iter().any(is_copy) {
            self.refresh_owed = true;
        }
        self.refresh_owed
    }

    /// Queues a round already transformed for this client's scale (see
    /// [`begin_round`](Self::begin_round), which must have opened it):
    /// the owed full view first, then the commands — without the COPYs
    /// when the view was just repaid; idempotent repaints still flow,
    /// redundant over a snapshot but they keep the content cache warm —
    /// then whatever refresh debt fits. `scaled` yields `cmds` under
    /// this client's scale, in order; `realtime` marks commands (by
    /// session-space destination) that answer recent input.
    fn push_round(
        &mut self,
        cmds: &[DisplayCommand],
        scaled: impl IntoIterator<Item = Option<DisplayCommand>>,
        refresh: Option<&DisplayCommand>,
        screen: &Framebuffer,
        realtime: impl Fn(&Rect) -> bool,
    ) {
        let repaid = self.refresh_owed;
        if repaid {
            self.refresh_owed = false;
            // The full view supersedes every narrower debt.
            let _ = self.buffer.take_overflow_debt();
            self.refresh_debt = Region::new();
            if let Some(refresh) = refresh {
                self.buffer.push(refresh.clone(), false);
            }
        }
        for (cmd, scaled) in cmds.iter().zip(scaled) {
            if repaid && is_copy(cmd) {
                continue;
            }
            if let Some(scaled) = scaled {
                self.buffer.push(scaled, realtime(&cmd.dest_rect()));
            }
        }
        self.repay_debt(screen);
    }

    /// [`push`](Self::push) with the scaling already done: queues a
    /// round from the [`Rendition`] shared by this client's scale class.
    pub(crate) fn push_rendition(
        &mut self,
        cmds: &[DisplayCommand],
        rendition: &Rendition,
        screen: &Framebuffer,
    ) {
        let scaled = rendition.cmds.iter().cloned();
        self.push_round(cmds, scaled, rendition.refresh.as_ref(), screen, |_| false);
    }

    /// Pushes translated commands through scaling into the buffer,
    /// settling what the client is owed on the way. `screen` already
    /// reflects the commands.
    pub fn push(
        &mut self,
        cmds: &[DisplayCommand],
        screen: &Framebuffer,
        realtime: impl Fn(&Rect) -> bool,
    ) {
        let owed = self.begin_round(cmds);
        let scale = self.scale;
        let refresh = full_view(&scale, screen, owed);
        let scaled = cmds.iter().map(|c| scale.transform(c, screen));
        self.push_round(cmds, scaled, refresh.as_ref(), screen, realtime);
    }

    /// Settles an owed full view and whatever refresh debt fits,
    /// without requiring a draw.
    pub fn repay(&mut self, screen: &Framebuffer) {
        self.push(&[], screen, |_| false);
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
        if self.buffer.has_overflow_debt() {
            for rect in self.buffer.take_overflow_debt().rects() {
                let session_rect = self.scale.unmap_rect(rect);
                if !session_rect.is_empty() {
                    self.refresh_debt.union_rect(&session_rect);
                }
            }
        }
        if self.refresh_debt.is_empty() {
            return;
        }
        for rect in std::mem::take(&mut self.refresh_debt).rects() {
            let Some(cmd) = screen_raw(&self.scale, rect, screen) else {
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
                self.refresh_debt.union_rect(rect);
            }
        }
    }

    /// Resynchronizes a (re)connecting client: the session's true
    /// state lives entirely on the server, so mobility is the live
    /// video streams re-announced plus the full view — nothing else
    /// needs to persist at the client. Stale pending commands and
    /// every narrower debt are dropped (the full view covers them),
    /// and a client the liveness tracker had declared dead is revived.
    pub fn resync(&mut self, screen: &Framebuffer, now: SimTime) {
        self.begin_resync(now);
        self.repay(screen);
    }

    /// Everything of a [`resync`](Self::resync) but reading the
    /// screen: the full view stays owed until the next push or repay.
    fn begin_resync(&mut self, now: SimTime) {
        self.resilience.record_resync();
        if let Some(t) = self.liveness.as_mut() {
            t.reset(now);
        }
        let reinit = self.video.reannounce();
        self.video_messages += reinit.len() as u64;
        self.av.extend(reinit);
        let _ = self.buffer.drop_pending_for_rescale();
        self.refresh_owed = true;
    }

    /// Judges a redialing client's resume token (see
    /// [`Uplink::Resume`]; the holder has matched the identity it
    /// names). A content-store digest equal to the ledger's resumes
    /// warm (returns `true`): the frame sequence continues right after
    /// the last frame the client proved it received, so its integrity
    /// verifier sees an unbroken stream, and its framebuffer and store
    /// are trusted as they are — the holder owes it only what changed
    /// since. Any other digest [restarts cold](Self::restart_cold).
    pub fn resume(&mut self, last_seq: u32, store_digest: u64, hello: Message, now: SimTime) -> bool {
        if cache_digest(&self.buffer.cache_keys()) != store_digest {
            self.restart_cold(hello, now);
            return false;
        }
        self.resilience.record_resume();
        self.encoder.set_next_seq(last_seq.wrapping_add(1));
        true
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

    /// Handles a message arriving from the client, as far as that
    /// takes neither the screen nor the session's identity (see
    /// [`Uplink`] for the rest). `cache_budget` is the content-cache
    /// budget a peer announcing revision ≥ 3 is granted; older peers
    /// cannot resolve references, so a hello never enables the ledger
    /// for them.
    pub fn handle_message(&mut self, msg: &Message, now: SimTime, cache_budget: Option<u64>) -> Uplink {
        // Client traffic doubles as the heartbeat — except a pong,
        // which proves liveness only when it answers the latest
        // outstanding probe: a delayed one surfacing from a recovering
        // link's queue says nothing about the connection now.
        if let Some(t) = self.liveness.as_mut() {
            match msg {
                Message::Pong { seq, .. } => {
                    t.note_pong(*seq, now);
                }
                _ => t.note_activity(now),
            }
        }
        match *msg {
            Message::ClientHello {
                version,
                viewport_width,
                viewport_height,
            } => {
                // The session adopts the highest framing both sides
                // speak. A version-1 client keeps the whole stream
                // legacy-framed, so old captures and old clients still
                // decode.
                self.encoder.negotiate(version);
                if let Some(budget) = cache_budget.filter(|_| self.encoder.revision() >= WIRE_REV_CACHE) {
                    self.buffer.enable_cache(budget);
                }
                self.set_viewport(viewport_width, viewport_height);
            }
            Message::Resize {
                viewport_width,
                viewport_height,
            } => self.set_viewport(viewport_width, viewport_height),
            // Zoom: the client is owed full-detail content for the
            // newly magnified region, sent with the next push.
            Message::SetView { view } => self.set_view(view),
            // The ledger requeues the byte-exact payload; when eviction
            // raced the reference out of both sides the client skipped
            // an update, so it is owed the full view.
            Message::CacheMiss { hash } => {
                self.refresh_owed |= !self.buffer.satisfy_cache_miss(hash);
            }
            Message::RefreshRequest { .. } => return Uplink::Resync,
            Message::SessionResume {
                session_id,
                client_id,
                last_seq,
                store_digest,
            } => {
                return Uplink::Resume {
                    session_id,
                    client_id,
                    last_seq,
                    store_digest,
                }
            }
            _ => {}
        }
        Uplink::Done
    }

    /// Evaluates liveness at `now`: a silent client gets a
    /// [`Message::Ping`] queued (at most one per interval), and
    /// silence past the timeout declares it dead, latched until the
    /// next [`resync`](Self::resync). `Alive` when liveness tracking
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

    /// Runs one displayed video frame through this client's stream
    /// manager (which resamples for small viewports) and queues the
    /// result.
    pub fn display_video(&mut self, frame: &YuvFrame, dst: Rect, timestamp_us: u64) {
        let payload = VideoPayload::new(frame, self.video_scale());
        self.display_video_payload(&payload, dst, timestamp_us);
    }

    /// The scale this client's video is resampled to: what a session
    /// keys the payload it builds once per frame and class by.
    pub(crate) fn video_scale(&self) -> VideoScale {
        self.video.scale()
    }

    /// [`display_video`](Self::display_video) with the payload for
    /// this client's [`video_scale`](Self::video_scale) already made.
    pub(crate) fn display_video_payload(
        &mut self,
        payload: &VideoPayload,
        dst: Rect,
        timestamp_us: u64,
    ) {
        let msgs = self.video.display_payload(payload, dst, timestamp_us);
        self.video_messages += msgs.len() as u64;
        self.queue_av(msgs);
    }

    /// Ends all video streams (session teardown).
    pub fn end_video(&mut self) {
        let msgs = self.video.end_all();
        self.video_messages += msgs.len() as u64;
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
    /// pipe, own controller — so worker count cannot change the
    /// outcome.
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

    /// Flushes queued updates without blocking: A/V first (paced data
    /// with deadlines), then the SRSF display queues, optionally
    /// against a shared encode-once [`WirePlane`]. Returns
    /// `(arrival, message)` pairs for the client side.
    pub fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Vec<(SimTime, Message)> {
        self.begin_flush(now, pipe);
        self.flush_begun(now, pipe, trace, plane, counters, &PlanRole::Alone)
    }

    /// The first half of a [`flush`](Self::flush): everything that may
    /// still change what is queued — the degradation ladder's verdict
    /// on the epoch (a step re-bounds the buffer and re-aims the
    /// scale) and the A/V bound. A session runs it for every viewer
    /// before it asks the plane which of them are in the same state.
    pub(crate) fn begin_flush(&mut self, now: SimTime, pipe: &TcpPipe) {
        self.observe_degradation(now, pipe);
        self.enforce_av_bound();
    }

    /// The second half of a [`flush`](Self::flush), delivering the
    /// display queues in `role` (see
    /// [`ClientBuffer::flush_planned`]).
    pub(crate) fn flush_begun(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
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
        let display = self.buffer.flush_planned(now, pipe, trace, plane, counters, role);
        if out.is_empty() {
            // No A/V went out: the display batch is the output as it is.
            return display;
        }
        out.extend(display);
        out
    }

    /// Writes this client's record into a checkpoint image: the
    /// announced viewport and zoom view, what it is owed, its ladder
    /// level, the queued A/V, and the buffer's raw internal state.
    /// Deliberately not captured (rebuilt fresh on decode): video
    /// stream internals (streams re-announce on resync), telemetry,
    /// and the liveness tracker with its probes — those are
    /// incarnation-local: the restored standby's fresh tracker issues
    /// its own pings, and a carried-over probe would draw a pong the
    /// standby's reset telemetry never accounted for (breaking
    /// pong ≤ ping conservation).
    pub(crate) fn encode_checkpoint(&self, w: &mut Writer) {
        w.u32(self.viewport.0);
        w.u32(self.viewport.1);
        w.rect(&self.scale.view);
        w.bool(self.refresh_owed);
        w.region(&self.refresh_debt);
        w.u8(self.degradation.as_ref().map_or(0xFF, |c| c.level().index() as u8));
        let av: Vec<&Message> = self
            .av
            .iter()
            .filter(|m| !matches!(m, Message::Ping { .. }))
            .collect();
        w.u32(av.len() as u32);
        for msg in av {
            w.bytes(&encode_message(msg));
        }
        self.buffer.encode_checkpoint(w);
    }

    /// Rebuilds a client from its
    /// [`encode_checkpoint`](Self::encode_checkpoint) record under
    /// `policy`, with liveness restarted at `now` (a restored server
    /// must not inherit pre-crash silence) and the ladder's hysteresis
    /// restarted clean at the recorded level.
    pub(crate) fn decode_checkpoint(
        r: &mut Reader<'_>,
        policy: DeliveryPolicy,
        now: SimTime,
    ) -> Result<Self, CheckpointError> {
        let viewport = (r.u32()?, r.u32()?);
        let view = r.rect()?;
        let refresh_owed = r.bool()?;
        let refresh_debt = r.region()?;
        let degradation = match (policy.degradation, r.u8()?) {
            (Some(_), 0xFF) => return Err(CheckpointError::Malformed("missing degradation level")),
            (Some(cfg), b) => Some(DegradationController::restore(cfg, level_from_u8(b)?)),
            (None, 0xFF) => None,
            (None, _) => return Err(CheckpointError::Malformed("orphan degradation level")),
        };
        let mut av = VecDeque::new();
        for _ in 0..r.u32()? {
            av.push_back(decode_checkpoint_message(r.bytes()?)?);
        }
        let mut d = Self::new(policy, ClientBuffer::decode_checkpoint(r)?, now);
        let (sw, sh) = policy.session;
        d.viewport = (viewport.0.clamp(1, sw.max(1)), viewport.1.clamp(1, sh.max(1)));
        d.degradation = degradation;
        d.refresh_owed = refresh_owed;
        d.refresh_debt = refresh_debt;
        d.av = av;
        d.aim(view);
        Ok(d)
    }
}

fn is_copy(cmd: &DisplayCommand) -> bool {
    matches!(cmd, DisplayCommand::Copy { .. })
}
