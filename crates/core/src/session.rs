//! Session management: authentication and multi-client screen
//! sharing (§7).
//!
//! "Our authentication model requires the user to have a valid
//! account on the server system and to be the owner of the session
//! she is connecting to. To support multiple users collaborating in a
//! screen-sharing session, the authentication model is extended to
//! allow host users to specify a session password that is then used
//! by peers connecting to the shared session."
//!
//! [`SharedSession`] multiplexes one display over any number of
//! clients: operations are translated once, and the resulting
//! commands fan out to a per-client buffer with per-client viewport
//! scaling — so a PDA peer can watch a desktop host's session.
//!
//! Per-client work (command scaling, buffering, flush-time RAW
//! compression) is embarrassingly parallel: every client owns its
//! delivery state. [`SharedSession::with_workers`] fans that work out
//! over [`crate::parallel::for_each_mut`] scoped threads; results are
//! merged in client-id order, so output is bit-identical for every
//! worker count.

use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::Message;
use thinc_raster::{Color, Framebuffer, PixelFormat, Rect, Region, YuvFrame};

use crate::buffer::ClientBuffer;
use crate::checkpoint::{
    cache_digest, format_from_u8, format_to_u8, CheckpointError, Reader, ResumeOutcome,
    TileDigests, Writer,
};
use crate::degradation::{DegradationConfig, DegradationController, DegradationLevel, EpochSignals};
use crate::liveness::{LivenessConfig, LivenessTracker, LivenessVerdict};
use crate::plane::{PlaneCounters, WirePlane};
use crate::scaling::ScalePolicy;
use crate::translator::Translator;
use crate::video::VideoStreamManager;

/// Credentials presented by a connecting client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Credentials {
    /// The session owner, authenticated by the host system (the
    /// prototype uses PAM; here, an account registry).
    Owner {
        /// Account name.
        user: String,
    },
    /// A collaborating peer presenting the session password.
    Peer {
        /// Display name of the peer.
        user: String,
        /// The shared-session password.
        password: String,
    },
}

/// Why a connection was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthError {
    /// The claimed owner does not own this session.
    NotOwner,
    /// Peer connections are not enabled (no session password set).
    SharingDisabled,
    /// The session password did not match.
    BadPassword,
}

/// The session's authentication policy.
#[derive(Debug, Clone)]
pub struct SessionAuth {
    owner: String,
    session_password: Option<String>,
}

impl SessionAuth {
    /// A session owned by `owner`, with sharing disabled.
    pub fn new(owner: &str) -> Self {
        Self {
            owner: owner.to_string(),
            session_password: None,
        }
    }

    /// Enables screen sharing with the given session password.
    pub fn enable_sharing(&mut self, password: &str) {
        self.session_password = Some(password.to_string());
    }

    /// Disables peer connections.
    pub fn disable_sharing(&mut self) {
        self.session_password = None;
    }

    /// Validates credentials.
    pub fn authenticate(&self, creds: &Credentials) -> Result<(), AuthError> {
        match creds {
            Credentials::Owner { user } => {
                if user == &self.owner {
                    Ok(())
                } else {
                    Err(AuthError::NotOwner)
                }
            }
            Credentials::Peer { password, .. } => match &self.session_password {
                None => Err(AuthError::SharingDisabled),
                Some(expected) if expected == password => Ok(()),
                Some(_) => Err(AuthError::BadPassword),
            },
        }
    }
}

/// Identifier of an attached client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

/// Per-client timestamped message streams produced by a flush round,
/// in client-id order — the return shape of
/// [`SharedSession::flush_all`] and [`SharedSession::flush_subset`].
pub type FlushOutput = Vec<(ClientId, Vec<(SimTime, Message)>)>;

/// Per-client delivery state.
struct ClientState {
    user: String,
    buffer: ClientBuffer,
    scale: ScalePolicy,
    video: VideoStreamManager,
    /// Audio/video messages awaiting this client's next flush.
    pending_av: Vec<Message>,
    /// Liveness tracking for this client (when the session enables it).
    liveness: Option<LivenessTracker>,
    /// Session geometry (needed to rebuild the scale policy when the
    /// degradation ladder moves).
    session: (u32, u32),
    /// The viewport this client announced at attach.
    viewport: (u32, u32),
    /// Per-client adaptive degradation (when the session enables it).
    /// Per-client — not shared — so parallel flush fan-out stays
    /// deterministic: each worker only touches its own controller.
    degradation: Option<DegradationController>,
    /// This client owes a full-view refresh (fresh attach, explicit
    /// resync, or a degradation transition re-aimed its scale).
    /// Repaid by the next broadcast, which has the screen in hand.
    refresh_owed: bool,
    /// Per-client resilience accounting (pings, timeouts, resyncs,
    /// degradation steps) — per-client attribution for shared
    /// sessions, merged with buffer evictions at read time.
    resilience: thinc_telemetry::ResilienceMetrics,
    /// Set when this client's flush panicked under the parallel
    /// fan-out: the panic was contained, the client is isolated from
    /// all further broadcast/flush work, and the session keeps
    /// serving everyone else. A quarantined client's state is
    /// unspecified (the panic may have struck mid-mutation); the only
    /// way back is detach + re-attach.
    quarantined: bool,
    /// Test/chaos hook: the next flush of this client panics
    /// deliberately, exercising the quarantine path.
    poison_flush: bool,
}

impl ClientState {
    /// The viewport actually targeted: the announced viewport shrunk
    /// by the degradation ladder's scale divisor.
    fn effective_viewport(&self) -> (u32, u32) {
        let div = self
            .degradation
            .as_ref()
            .map(|c| c.level().scale_divisor())
            .unwrap_or(1)
            .max(1);
        ((self.viewport.0 / div).max(1), (self.viewport.1 / div).max(1))
    }

    /// Rebuilds scale and video resampling for the current effective
    /// viewport, preserving the zoom view. Pending commands target the
    /// outgoing coordinate space, so they are dropped and replaced by
    /// a full-view refresh on the next broadcast.
    fn rescale_for_degradation(&mut self) {
        let _ = self.buffer.drop_pending_for_rescale();
        let view = self.scale.view;
        let (ew, eh) = self.effective_viewport();
        self.scale =
            ScalePolicy::new(self.session.0, self.session.1, ew, eh).with_view(view);
        self.video.set_scale(ew, self.session.0, eh, self.session.1);
        self.refresh_owed = true;
    }

    /// Queues the owed full-view refresh, if any. Scaling runs on the
    /// current (post-transition) policy, so the client converges to
    /// the effective viewport's rendition of the screen.
    fn repay_refresh(&mut self, screen: &Framebuffer) {
        if !self.refresh_owed {
            return;
        }
        self.refresh_owed = false;
        let view = self.scale.view;
        let (clip, data) = screen.get_raw(&view);
        if clip.is_empty() {
            return;
        }
        let cmd = DisplayCommand::Raw {
            rect: clip,
            encoding: thinc_protocol::commands::RawEncoding::None,
            data: data.into(),
        };
        if self.scale.is_identity() {
            self.buffer.push(cmd, false);
        } else if let Some(scaled) = self.scale.transform(&cmd, screen) {
            self.buffer.push(scaled, false);
        }
    }

    /// Requeues screen content for regions the buffer evicted under
    /// its byte bound. Debt is recorded in the buffer's (viewport)
    /// coordinate space, so each rect is unmapped to session space
    /// before reading the screen and re-scaled exactly once on the
    /// way back in.
    fn repay_debt(&mut self, screen: &Framebuffer) {
        if !self.buffer.has_overflow_debt() {
            return;
        }
        let debt = self.buffer.take_overflow_debt();
        for rect in debt.rects() {
            let session_rect = if self.scale.is_identity() {
                *rect
            } else {
                self.scale.unmap_rect(rect)
            };
            if session_rect.is_empty() {
                continue;
            }
            let (clip, data) = screen.get_raw(&session_rect);
            if clip.is_empty() {
                continue;
            }
            let cmd = DisplayCommand::Raw {
                rect: clip,
                encoding: thinc_protocol::commands::RawEncoding::None,
                data: data.into(),
            };
            if self.scale.is_identity() {
                self.buffer.push_unbounded(cmd, false);
            } else if let Some(scaled) = self.scale.transform(&cmd, screen) {
                self.buffer.push_unbounded(scaled, false);
            }
        }
    }
}

/// One display session shared by any number of authenticated clients.
///
/// Implements [`VideoDriver`], so it attaches below a window server
/// exactly like [`crate::server::ThincServer`] — but fans every
/// translated command out to each client's buffer, scaled to that
/// client's viewport.
pub struct SharedSession {
    width: u32,
    height: u32,
    format: PixelFormat,
    auth: SessionAuth,
    translator: Translator,
    /// Attached clients in strictly ascending id (= attach) order: ids
    /// come from `next_client`, which only grows, and `restore` rejects
    /// an image that breaks the order. Iteration order is the
    /// deterministic merge order for parallel fan-out; lookups
    /// binary-search it.
    clients: Vec<(ClientId, ClientState)>,
    next_client: u32,
    now: SimTime,
    /// Liveness policy applied to every attached client.
    liveness: Option<LivenessConfig>,
    /// Degradation policy applied to every attached client.
    degradation: Option<DegradationConfig>,
    /// Byte bound applied to every client buffer attached from now on.
    buffer_bound: Option<u64>,
    /// Content-cache budget for every client attached from now on
    /// (`None` keeps the cache off — the pre-revision-3 behaviour).
    cache_budget: Option<u64>,
    /// Scoped-thread workers for per-client fan-out (1 = inline).
    workers: usize,
    /// Cumulative encode-once plane accounting across flush rounds.
    fanout: PlaneCounters,
    /// Stable identity carried by resume tokens: a digest of owner +
    /// geometry + format, so a redialing client can prove it is
    /// resuming *this* session and not a coincidentally-numbered one.
    session_id: u64,
    /// Per-tile screen digests captured when this session was
    /// checkpointed (`None` on a fresh session). Warm resume diffs
    /// these against the live screen to ship only the tiles that
    /// changed while the session was down.
    restored_tiles: Option<TileDigests>,
}

impl std::fmt::Debug for SharedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSession")
            .field("clients", &self.clients.len())
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl SharedSession {
    /// Creates a session of the given geometry owned by `owner`.
    pub fn new(width: u32, height: u32, format: PixelFormat, owner: &str) -> Self {
        Self {
            width,
            height,
            format,
            auth: SessionAuth::new(owner),
            translator: Translator::new(),
            clients: Vec::new(),
            next_client: 0,
            now: SimTime::ZERO,
            liveness: None,
            degradation: None,
            buffer_bound: None,
            cache_budget: None,
            workers: 1,
            fanout: PlaneCounters::default(),
            session_id: compute_session_id(owner, width, height, format),
            restored_tiles: None,
        }
    }

    /// Enables liveness tracking: every client attached from now on
    /// is probed when silent and declared dead past the timeout.
    pub fn with_liveness(mut self, config: LivenessConfig) -> Self {
        self.liveness = Some(config);
        self
    }

    /// Enables per-client adaptive degradation: every attached client
    /// gets its own hysteretic ladder controller, fed that client's
    /// link telemetry at flush time. Per-client controllers keep the
    /// parallel flush fan-out deterministic — a struggling PDA peer
    /// degrades without touching the desktop owner's fidelity.
    pub fn with_degradation(mut self, config: DegradationConfig) -> Self {
        self.degradation = Some(config);
        self
    }

    /// Bounds every per-client display buffer attached from now on
    /// (overflow evicts oldest non-realtime; the footprint is owed as
    /// a refresh).
    pub fn with_buffer_bound(mut self, bytes: u64) -> Self {
        self.buffer_bound = Some(bytes);
        self
    }

    /// Enables the content-addressed cache (protocol revision 3) for
    /// every client attached from now on: each client buffer keeps a
    /// per-client ledger with this byte budget and substitutes
    /// [`Message::CacheRef`] for payloads that client already holds.
    /// Only attach revision-3 clients when this is on — older peers
    /// cannot resolve references. Per-client state keeps the parallel
    /// fan-out deterministic.
    pub fn with_cache(mut self, budget: u64) -> Self {
        self.cache_budget = Some(budget);
        self
    }

    /// Fans per-client broadcast and flush work out over up to
    /// `workers` scoped threads. Output is identical for every worker
    /// count (see [`crate::parallel`]); the default is 1 (inline).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Where `id` sits in the id-ordered roster.
    fn roster_index(&self, id: ClientId) -> Option<usize> {
        self.clients.binary_search_by_key(&id, |(cid, _)| *cid).ok()
    }

    fn state(&self, id: ClientId) -> Option<&ClientState> {
        self.roster_index(id).map(|at| &self.clients[at].1)
    }

    fn state_mut(&mut self, id: ClientId) -> Option<&mut ClientState> {
        self.roster_index(id).map(|at| &mut self.clients[at].1)
    }

    /// The authentication policy (enable/disable sharing here).
    pub fn auth_mut(&mut self) -> &mut SessionAuth {
        &mut self.auth
    }

    /// Advances the virtual clock (stamps video frames).
    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Attaches a client with a viewport, after authentication.
    pub fn attach(
        &mut self,
        creds: &Credentials,
        viewport_w: u32,
        viewport_h: u32,
    ) -> Result<ClientId, AuthError> {
        self.auth.authenticate(creds)?;
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let user = match creds {
            Credentials::Owner { user } | Credentials::Peer { user, .. } => user.clone(),
        };
        let vw = viewport_w.clamp(1, self.width);
        let vh = viewport_h.clamp(1, self.height);
        let mut video = VideoStreamManager::new();
        video.set_scale(vw, self.width, vh, self.height);
        let mut buffer = ClientBuffer::new().with_raw_compression(self.format.bytes_per_pixel());
        if let Some(bound) = self.buffer_bound {
            buffer = buffer.with_byte_bound(bound);
        }
        if let Some(budget) = self.cache_budget {
            buffer.enable_cache(budget);
        }
        self.clients.push((
            id,
            ClientState {
                user,
                buffer,
                scale: ScalePolicy::new(self.width, self.height, vw, vh),
                video,
                pending_av: Vec::new(),
                liveness: self.liveness.map(|c| LivenessTracker::new(c, self.now)),
                session: (self.width, self.height),
                viewport: (vw, vh),
                degradation: self.degradation.map(DegradationController::new),
                // A fresh attach owes the full view: the client's
                // framebuffer starts empty.
                refresh_owed: true,
                resilience: thinc_telemetry::ResilienceMetrics::new(),
                quarantined: false,
                poison_flush: false,
            },
        ));
        Ok(id)
    }

    /// Records traffic from a client (input — anything but a pong
    /// proves the connection lives; pongs go through
    /// [`note_client_pong`](Self::note_client_pong) so stale ones
    /// can be rejected).
    pub fn note_client_activity(&mut self, id: ClientId, now: SimTime) {
        if let Some(t) = self.state_mut(id).and_then(|c| c.liveness.as_mut()) {
            t.note_activity(now);
        }
    }

    /// Records a pong from a client. Only a pong answering the
    /// latest outstanding probe counts as fresh traffic (returns
    /// `true`); a stale or unsolicited one is ignored.
    pub fn note_client_pong(&mut self, id: ClientId, seq: u32, now: SimTime) -> bool {
        self.state_mut(id)
            .and_then(|c| c.liveness.as_mut())
            .is_some_and(|t| t.note_pong(seq, now))
    }

    /// Evaluates a client's liveness at `now`: a silent client gets a
    /// ping queued on its A/V channel; silence past the timeout marks
    /// it dead (its resources become reclaimable via
    /// [`reap_dead`](Self::reap_dead)). Returns `Alive` for unknown
    /// clients or when liveness is disabled.
    pub fn poll_client_liveness(&mut self, id: ClientId, now: SimTime) -> LivenessVerdict {
        let Some(state) = self.state_mut(id) else {
            return LivenessVerdict::Alive;
        };
        if state.quarantined {
            // A quarantined client cannot be served; report it dead
            // without queueing probes its flush would never carry.
            return LivenessVerdict::Dead;
        }
        let Some(t) = state.liveness.as_mut() else {
            return LivenessVerdict::Alive;
        };
        let was_dead = t.is_dead();
        let verdict = t.poll(now);
        match verdict {
            LivenessVerdict::SendPing { seq } => {
                state.pending_av.push(Message::Ping {
                    seq,
                    timestamp_us: now.as_micros(),
                });
                state.resilience.record_ping_sent();
            }
            LivenessVerdict::Dead if !was_dead => {
                state.resilience.record_liveness_timeout();
            }
            _ => {}
        }
        verdict
    }

    /// Whether a client has been declared dead.
    pub fn client_dead(&self, id: ClientId) -> bool {
        self.state(id)
            .and_then(|c| c.liveness.as_ref())
            .is_some_and(|t| t.is_dead())
    }

    /// Detaches every dead client, freeing its buffers (a dead
    /// client's queues would otherwise accumulate updates forever).
    /// Returns the reaped ids; a reaped client reconnects by
    /// re-attaching and resyncing.
    pub fn reap_dead(&mut self) -> Vec<ClientId> {
        let dead: Vec<ClientId> = self
            .clients
            .iter()
            .filter(|(_, c)| c.liveness.as_ref().is_some_and(|t| t.is_dead()))
            .map(|(id, _)| *id)
            .collect();
        self.clients
            .retain(|(_, c)| !c.liveness.as_ref().is_some_and(|t| t.is_dead()));
        dead
    }

    /// Detaches a client.
    pub fn detach(&mut self, id: ClientId) {
        self.clients.retain(|(cid, _)| *cid != id);
    }

    /// Number of attached clients.
    pub fn client_count(&self) -> usize {
        self.clients.len()
    }

    /// The user name of an attached client.
    pub fn client_user(&self, id: ClientId) -> Option<&str> {
        self.state(id).map(|c| c.user.as_str())
    }

    /// Pending commands for a client.
    pub fn backlog(&self, id: ClientId) -> usize {
        self.state(id).map(|c| c.buffer.len()).unwrap_or(0)
    }

    /// Fans translated commands out to every client, scaled. Clients
    /// are independent, so the scaling/buffering runs on the session's
    /// worker pool; per-client push order is the command order either
    /// way.
    fn broadcast(&mut self, cmds: Vec<DisplayCommand>, screen: &Framebuffer) {
        // `screen` already reflects the commands being broadcast
        // (the store is mutated before the driver call). COPY is
        // the one non-idempotent command: applied on top of a
        // snapshot that already contains its effect it scrolls
        // twice wherever source and destination overlap. So a
        // client owed a refresh — whose snapshot covers the whole
        // view — must not receive this round's COPYs; and a
        // client with partial overflow debt cannot soundly take a
        // COPY either (the debt repaint may cover only part of
        // the copy's footprint), so its debt escalates to a full
        // refresh first. Idempotent repaints still flow: redundant
        // over a snapshot, but they keep the content cache warm.
        let has_copy = cmds
            .iter()
            .any(|c| matches!(c, DisplayCommand::Copy { .. }));
        // Serial pre-pass: settle the COPY/debt escalation, snapshot
        // refresh owage, and group clients into scale-equivalence
        // classes. Clients at the same scale policy receive identical
        // command streams, so each class is translated once below and
        // shared by reference (`Bytes` payloads make the per-client
        // clone an `Arc` bump, not a copy).
        let mut classes: Vec<BroadcastClass> = Vec::new();
        let mut class_of: Vec<usize> = Vec::with_capacity(self.clients.len());
        let mut repaid: Vec<bool> = Vec::with_capacity(self.clients.len());
        for (_, state) in self.clients.iter_mut() {
            if state.quarantined {
                class_of.push(usize::MAX);
                repaid.push(false);
                continue;
            }
            if has_copy && state.buffer.has_overflow_debt() {
                state.refresh_owed = true;
            }
            repaid.push(state.refresh_owed);
            let idx = match classes.iter().position(|c| c.policy == state.scale) {
                Some(i) => i,
                None => {
                    classes.push(BroadcastClass {
                        policy: state.scale,
                        transformed: Vec::new(),
                        refresh: None,
                        refresh_wanted: false,
                    });
                    classes.len() - 1
                }
            };
            classes[idx].refresh_wanted |= state.refresh_owed;
            class_of.push(idx);
        }
        // Translate each class once, in parallel across classes.
        let cmds = &cmds;
        crate::parallel::for_each_mut(&mut classes, self.workers, |_, class| {
            class.transformed = cmds
                .iter()
                .map(|c| {
                    if class.policy.is_identity() {
                        Some(c.clone())
                    } else {
                        class.policy.transform(c, screen)
                    }
                })
                .collect();
            if class.refresh_wanted {
                class.refresh = shared_refresh(&class.policy, screen);
            }
        });
        // Per-client fan-out: push the class's shared commands.
        let classes = &classes;
        let class_of = &class_of;
        let repaid = &repaid;
        crate::parallel::for_each_mut(&mut self.clients, self.workers, |i, (_, state)| {
            let ci = class_of[i];
            if ci == usize::MAX {
                return;
            }
            let class = &classes[ci];
            if state.refresh_owed {
                state.refresh_owed = false;
                if let Some(r) = &class.refresh {
                    state.buffer.push(r.clone(), false);
                }
            }
            state.repay_debt(screen);
            for (cmd, shared) in cmds.iter().zip(&class.transformed) {
                if repaid[i] && matches!(cmd, DisplayCommand::Copy { .. }) {
                    continue;
                }
                if let Some(sc) = shared {
                    state.buffer.push(sc.clone(), false);
                }
            }
        });
    }

    /// Settles every client's owed refreshes and eviction debt
    /// against the current screen without requiring a draw. Call this
    /// before flushing when the display is quiescent — a freshly
    /// attached or resynced client is owed the full view even if
    /// nothing paints.
    pub fn repay_refreshes(&mut self, screen: &Framebuffer) {
        // Same class sharing as `broadcast`: one refresh rendition per
        // scale policy, cloned (= `Arc`-bumped) per owing client.
        let mut classes: Vec<(ScalePolicy, Option<DisplayCommand>)> = Vec::new();
        let mut class_of: Vec<usize> = Vec::with_capacity(self.clients.len());
        for (_, state) in self.clients.iter() {
            if state.quarantined || !state.refresh_owed {
                class_of.push(usize::MAX);
                continue;
            }
            let idx = match classes.iter().position(|(p, _)| *p == state.scale) {
                Some(i) => i,
                None => {
                    classes.push((state.scale, None));
                    classes.len() - 1
                }
            };
            class_of.push(idx);
        }
        crate::parallel::for_each_mut(&mut classes, self.workers, |_, (policy, refresh)| {
            *refresh = shared_refresh(policy, screen);
        });
        let classes = &classes;
        let class_of = &class_of;
        crate::parallel::for_each_mut(&mut self.clients, self.workers, |i, (_, state)| {
            if state.quarantined {
                return;
            }
            if class_of[i] != usize::MAX {
                state.refresh_owed = false;
                if let Some(r) = &classes[class_of[i]].1 {
                    state.buffer.push(r.clone(), false);
                }
            }
            state.repay_debt(screen);
        });
    }

    /// Handles a client's explicit resync request: drops that
    /// client's (possibly stale) pending commands and owes it a
    /// full-view refresh, settled immediately against `screen`.
    pub fn resync_client(&mut self, id: ClientId, screen: &Framebuffer) {
        let Some(state) = self.state_mut(id) else {
            return;
        };
        if state.quarantined {
            return;
        }
        let _ = state.buffer.drop_pending_for_rescale();
        let _ = state.buffer.take_overflow_debt();
        state.refresh_owed = true;
        state.resilience.record_resync();
        state.repay_refresh(screen);
    }

    /// The degradation ladder level a client currently runs at
    /// ([`DegradationLevel::Full`] when degradation is disabled or
    /// the client is unknown).
    pub fn client_degradation_level(&self, id: ClientId) -> DegradationLevel {
        self.state(id)
            .and_then(|s| s.degradation.as_ref().map(|c| c.level()))
            .unwrap_or(DegradationLevel::Full)
    }

    /// A snapshot of one client's resilience counters (per-client
    /// attribution: pings, timeouts, resyncs, degradation steps),
    /// with that client's buffer evictions and content-cache counters
    /// folded in.
    pub fn client_resilience(&self, id: ClientId) -> Option<thinc_telemetry::ResilienceMetrics> {
        self.state(id).map(|s| {
            let mut m = s.resilience.clone();
            m.add_overflow_evictions(s.buffer.stats().overflow_evicted);
            let (hits, misses, evictions, saved) = s.buffer.cache_counts();
            m.add_cache_counts(hits, misses, evictions, saved);
            m
        })
    }

    /// Handles a [`Message::CacheMiss`] from a client: queues the
    /// byte-exact full payload from that client's ledger. Returns
    /// `false` when the entry was evicted on both sides — the client
    /// skipped an update, so the caller should follow with
    /// [`resync_client`](Self::resync_client) (the miss is recorded
    /// and the client is owed a full-view refresh on the next
    /// broadcast either way).
    pub fn client_cache_miss(&mut self, id: ClientId, hash: u64) -> bool {
        let Some(state) = self.state_mut(id) else {
            return false;
        };
        if state.quarantined {
            return false;
        }
        let satisfied = state.buffer.satisfy_cache_miss(hash);
        if !satisfied {
            state.refresh_owed = true;
        }
        satisfied
    }

    /// Flushes one client's buffer over its own connection.
    pub fn flush_client(
        &mut self,
        id: ClientId,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        let Some(state) = self.state_mut(id) else {
            return Vec::new();
        };
        if state.quarantined {
            return Vec::new();
        }
        flush_client_state(state, now, pipe, trace, None, &mut PlaneCounters::default())
    }

    /// Flushes **every** client's buffer, each over its own
    /// connection, fanning the per-client work (A/V pacing, SRSF
    /// scheduling, flush-time RAW compression) out over the session's
    /// worker pool.
    ///
    /// `links[i]` is the `(pipe, trace)` pair of the i-th attached
    /// client — the same order as attach/[`ClientId`] order. The
    /// result is merged back in that order, so the output is
    /// bit-identical for every worker count.
    ///
    /// # Panics
    ///
    /// Panics if `links.len()` differs from [`client_count`]
    /// (Self::client_count).
    pub fn flush_all(
        &mut self,
        now: SimTime,
        links: &mut [(TcpPipe, PacketTrace)],
    ) -> FlushOutput {
        assert_eq!(
            links.len(),
            self.clients.len(),
            "one (pipe, trace) link per attached client"
        );
        // One encode-once plane per round: identical payloads across
        // clients are compressed and framed a single time (see
        // [`crate::plane`]); output bytes are unchanged.
        let plane = WirePlane::new();
        let ids = self.client_ids();
        let (out, counters) = self.flush_subset_inner(now, &ids, links, Some(&plane));
        self.fanout.merge(&counters);
        out
    }

    /// Flushes the listed clients (a *shard* of the session), each
    /// over its own link, optionally against a shared encode-once
    /// [`WirePlane`] — the sharded manager passes one plane per epoch
    /// so equivalence classes amortize across shards, not just within
    /// one.
    ///
    /// `ids` must be sorted ascending and each must be attached;
    /// `links[i]` pairs with `ids[i]`. Returns the per-client message
    /// streams in id order plus this call's plane counters (also
    /// accumulated into [`fanout_counters`](Self::fanout_counters)).
    ///
    /// # Panics
    ///
    /// Panics if `links.len() != ids.len()` or an id is not attached.
    pub fn flush_subset(
        &mut self,
        now: SimTime,
        ids: &[ClientId],
        links: &mut [(TcpPipe, PacketTrace)],
        plane: Option<&WirePlane>,
    ) -> (FlushOutput, PlaneCounters) {
        let (out, counters) = self.flush_subset_inner(now, ids, links, plane);
        self.fanout.merge(&counters);
        (out, counters)
    }

    fn flush_subset_inner(
        &mut self,
        now: SimTime,
        ids: &[ClientId],
        links: &mut [(TcpPipe, PacketTrace)],
        plane: Option<&WirePlane>,
    ) -> (FlushOutput, PlaneCounters) {
        assert_eq!(links.len(), ids.len(), "one (pipe, trace) link per flushed client");
        let mut jobs: Vec<_> = self
            .clients
            .iter_mut()
            .filter(|(id, _)| ids.binary_search(id).is_ok())
            .zip(links.iter_mut())
            .map(|((id, state), link)| {
                (*id, state, link, Vec::new(), PlaneCounters::default())
            })
            .collect();
        assert_eq!(jobs.len(), ids.len(), "every flushed id must be attached");
        let caught = crate::parallel::try_for_each_mut(
            &mut jobs,
            self.workers,
            |_, (_, state, link, out, counters)| {
                if state.quarantined {
                    return;
                }
                *out = flush_client_state(state, now, &mut link.0, &mut link.1, plane, counters);
            },
        );
        // Panic containment: a client whose flush panicked is
        // quarantined — its partial output is discarded, the panic is
        // counted in its resilience metrics, and every other client's
        // output is delivered untouched.
        let mut total = PlaneCounters::default();
        for ((_, state, _, out, counters), panic_msg) in jobs.iter_mut().zip(&caught) {
            if panic_msg.is_some() {
                state.quarantined = true;
                state.resilience.record_panic_quarantined();
                out.clear();
            } else {
                total.merge(counters);
            }
        }
        (
            jobs.into_iter().map(|(id, _, _, out, _)| (id, out)).collect(),
            total,
        )
    }

    /// Cumulative encode-once plane counters over every flush round
    /// so far (shared sends, amortized bytes, actual encodes).
    pub fn fanout_counters(&self) -> PlaneCounters {
        self.fanout
    }

    /// Total wire bytes sent to a client so far (fairness metric for
    /// the fan-out gate).
    pub fn client_sent_bytes(&self, id: ClientId) -> u64 {
        self.state(id).map(|s| s.buffer.stats().sent_bytes).unwrap_or(0)
    }

    /// A client's enqueue-to-wire flush-latency histogram
    /// (microseconds of virtual time), for cross-client percentile
    /// merging.
    pub fn client_flush_latency(&self, id: ClientId) -> Option<&thinc_telemetry::Histogram> {
        self.state(id).map(|s| s.buffer.scheduler_metrics().flush_latency_us())
    }

    /// Applies a client's viewport change mid-session (window resize,
    /// device switch). Pending commands target the outgoing
    /// coordinate space, so they — and any queued cache-miss
    /// fallbacks — are dropped, and the client is owed a full-view
    /// refresh at the new scale (settled by the next broadcast or
    /// [`repay_refreshes`](Self::repay_refreshes)). Counted as a
    /// resync in the client's resilience metrics.
    pub fn resize_client(&mut self, id: ClientId, viewport_w: u32, viewport_h: u32) {
        let (sw, sh) = (self.width, self.height);
        let Some(state) = self.state_mut(id) else {
            return;
        };
        if state.quarantined {
            return;
        }
        state.viewport = (viewport_w.clamp(1, sw), viewport_h.clamp(1, sh));
        state.resilience.record_resync();
        state.rescale_for_degradation();
    }

    /// Changes the content-cache budget applied to clients attached
    /// from now on (already-attached clients keep their ledgers — the
    /// budget must stay in lockstep with each client's store for the
    /// eviction mirror to hold). `None` disables the cache for future
    /// attaches.
    pub fn set_cache_budget(&mut self, budget: Option<u64>) {
        self.cache_budget = budget;
    }

    /// The content-cache budget future attaches will receive.
    pub fn cache_budget(&self) -> Option<u64> {
        self.cache_budget
    }

    /// Attached client ids, in attach (= flush merge) order.
    pub fn client_ids(&self) -> Vec<ClientId> {
        self.clients.iter().map(|(id, _)| *id).collect()
    }

    /// Whether a client has been quarantined by flush panic
    /// containment.
    pub fn client_quarantined(&self, id: ClientId) -> bool {
        self.state(id).is_some_and(|s| s.quarantined)
    }

    /// Number of currently quarantined clients.
    pub fn quarantined_count(&self) -> usize {
        self.clients.iter().filter(|(_, s)| s.quarantined).count()
    }

    /// Test/chaos hook: arms a deliberate panic inside `id`'s next
    /// flush, on whatever worker thread the fan-out assigns it —
    /// exercising the quarantine path end to end.
    pub fn poison_next_flush(&mut self, id: ClientId) {
        if let Some(state) = self.state_mut(id) {
            state.poison_flush = true;
        }
    }

    /// Every key in a client's cache ledger, sorted ascending (empty
    /// when the cache is off or the client is unknown). For coherence
    /// checks against the client store.
    pub fn client_cache_keys(&self, id: ClientId) -> Vec<u64> {
        self.state(id).map(|s| s.buffer.cache_keys()).unwrap_or_default()
    }

    /// Pending buffered bytes for a client.
    pub fn client_pending_bytes(&self, id: ClientId) -> u64 {
        self.state(id).map(|s| s.buffer.pending_bytes()).unwrap_or(0)
    }

    /// The byte bound a client's buffer currently enforces.
    pub fn client_effective_byte_bound(&self, id: ClientId) -> Option<u64> {
        self.state(id).and_then(|s| s.buffer.effective_byte_bound())
    }

    /// Whether a client is owed a full-view refresh.
    pub fn client_refresh_owed(&self, id: ClientId) -> bool {
        self.state(id).is_some_and(|s| s.refresh_owed)
    }

    /// Whether a client's buffer carries unsettled overflow debt.
    pub fn client_has_overflow_debt(&self, id: ClientId) -> bool {
        self.state(id).is_some_and(|s| s.buffer.has_overflow_debt())
    }

    /// Cache-miss fallbacks queued for a client but not yet delivered.
    pub fn client_fallbacks_pending(&self, id: ClientId) -> usize {
        self.state(id).map(|s| s.buffer.fallbacks_pending()).unwrap_or(0)
    }

    /// The session's stable identity, as carried by resume tokens.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Serializes the full session — policy, every client's delivery
    /// state, and per-tile digests of `screen` — into a versioned,
    /// CRC-guarded checkpoint image ([`crate::checkpoint`]).
    ///
    /// Crash consistency comes from serializing raw internal state at
    /// a quiescent point (between flush epochs), never mid-mutation.
    /// Quarantined clients are skipped entirely: a quarantine means a
    /// panic may have struck mid-mutation, so their state is exactly
    /// what a checkpoint must not trust.
    ///
    /// Deliberately not captured (all reconstructed or reset at
    /// [`restore`](Self::restore)): the translator's pixmap queues
    /// (offscreen drawings replay into fresh queues), video stream
    /// internals (active streams are torn down across a failover and
    /// re-announced), liveness trackers (restarted from config — a
    /// restored server must not inherit pre-crash silence), telemetry
    /// counters, and the encode-once plane accounting.
    pub fn checkpoint(&self, screen: &Framebuffer) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.width);
        w.u32(self.height);
        w.u8(format_to_u8(self.format));
        w.u64(self.session_id);
        w.str(&self.auth.owner);
        w.opt_str(self.auth.session_password.as_deref());
        w.u32(self.next_client);
        w.u64(self.now.0);
        match self.liveness {
            Some(cfg) => {
                w.bool(true);
                w.u64(cfg.timeout.0);
                w.u64(cfg.ping_interval.0);
            }
            None => w.bool(false),
        }
        match self.degradation {
            Some(cfg) => {
                w.bool(true);
                w.u32(cfg.degrade_after);
                w.u32(cfg.promote_after);
                w.f64(cfg.pressure_fraction);
                w.u8(cfg.max_level.index() as u8);
            }
            None => w.bool(false),
        }
        w.opt_u64(self.buffer_bound);
        w.opt_u64(self.cache_budget);
        w.u32(self.workers as u32);
        let tiles = TileDigests::of(screen);
        w.u32(tiles.width);
        w.u32(tiles.height);
        w.u32(tiles.cols);
        w.u32(tiles.rows);
        for d in &tiles.digests {
            w.u64(*d);
        }
        let live: Vec<&(ClientId, ClientState)> = self
            .clients
            .iter()
            .filter(|(_, s)| !s.quarantined)
            .collect();
        w.u32(live.len() as u32);
        for (id, state) in live {
            w.u32(id.0);
            w.str(&state.user);
            w.u32(state.viewport.0);
            w.u32(state.viewport.1);
            w.rect(&state.scale.view);
            w.bool(state.refresh_owed);
            w.u8(match &state.degradation {
                Some(c) => c.level().index() as u8,
                None => 0xFF,
            });
            state.buffer.encode_checkpoint(&mut w);
            // Liveness probes are incarnation-local and never
            // checkpointed: the restored standby's fresh tracker
            // issues its own pings, and a carried-over probe would
            // draw a pong the standby's reset telemetry never
            // accounted for (breaking pong<=ping conservation).
            let av: Vec<&Message> = state
                .pending_av
                .iter()
                .filter(|m| !matches!(m, Message::Ping { .. }))
                .collect();
            w.u32(av.len() as u32);
            for msg in av {
                w.bytes(&thinc_protocol::wire::encode_message(msg));
            }
        }
        crate::checkpoint::seal(w.into_inner())
    }

    /// Rebuilds a session from a [`checkpoint`](Self::checkpoint)
    /// image. Every corruption — bad magic, foreign version, any
    /// truncation or bit flip, malformed interior structure, trailing
    /// garbage — yields a typed error; nothing panics, and a failed
    /// restore leaves no partial state behind (the caller keeps its
    /// cold path).
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let payload = crate::checkpoint::open(bytes)?;
        let mut r = Reader::new(payload);
        let width = r.u32()?;
        let height = r.u32()?;
        let format = format_from_u8(r.u8()?)?;
        let session_id = r.u64()?;
        let owner = r.str()?;
        let session_password = r.opt_str()?;
        let next_client = r.u32()?;
        let now = SimTime(r.u64()?);
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
        let buffer_bound = r.opt_u64()?;
        let cache_budget = r.opt_u64()?;
        let workers = (r.u32()? as usize).max(1);
        let tiles = {
            let (tw, th, cols, rows) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
            let n = u64::from(cols) * u64::from(rows);
            // Reads fail fast at the payload boundary, so a corrupt
            // count cannot balloon the allocation.
            let mut digests = Vec::new();
            for _ in 0..n {
                digests.push(r.u64()?);
            }
            TileDigests { width: tw, height: th, cols, rows, digests }
        };
        let n_clients = r.u32()?;
        let mut clients: Vec<(ClientId, ClientState)> = Vec::new();
        for _ in 0..n_clients {
            let id = ClientId(r.u32()?);
            // Lookups binary-search the roster, and the next attach
            // takes `next_client`: ids must ascend and stay below it.
            if clients.last().is_some_and(|(last, _)| *last >= id) || id.0 >= next_client {
                return Err(CheckpointError::Malformed("client ids not ascending"));
            }
            let user = r.str()?;
            let vw = r.u32()?.clamp(1, width);
            let vh = r.u32()?.clamp(1, height);
            let view = r.rect()?;
            let refresh_owed = r.bool()?;
            let level_byte = r.u8()?;
            let buffer = ClientBuffer::decode_checkpoint(&mut r)?;
            let controller = match (degradation, level_byte) {
                (Some(_), 0xFF) => {
                    return Err(CheckpointError::Malformed("missing degradation level"))
                }
                (Some(cfg), b) => Some(DegradationController::restore(cfg, level_from_u8(b)?)),
                (None, 0xFF) => None,
                (None, _) => {
                    return Err(CheckpointError::Malformed("orphan degradation level"))
                }
            };
            let div = controller
                .as_ref()
                .map(|c| c.level().scale_divisor())
                .unwrap_or(1)
                .max(1);
            let (ew, eh) = ((vw / div).max(1), (vh / div).max(1));
            let mut video = VideoStreamManager::new();
            video.set_scale(ew, width, eh, height);
            let n_av = r.u32()?;
            let mut pending_av = Vec::new();
            for _ in 0..n_av {
                pending_av.push(crate::buffer::decode_checkpoint_message(r.bytes()?)?);
            }
            clients.push((
                id,
                ClientState {
                    user,
                    buffer,
                    scale: ScalePolicy::new(width, height, ew, eh).with_view(view),
                    video,
                    pending_av,
                    liveness: liveness.map(|c| LivenessTracker::new(c, now)),
                    session: (width, height),
                    viewport: (vw, vh),
                    degradation: controller,
                    refresh_owed,
                    resilience: thinc_telemetry::ResilienceMetrics::new(),
                    quarantined: false,
                    poison_flush: false,
                },
            ));
        }
        if !r.exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes after checkpoint"));
        }
        Ok(Self {
            width,
            height,
            format,
            auth: SessionAuth { owner, session_password },
            translator: Translator::new(),
            clients,
            next_client,
            now,
            liveness,
            degradation,
            buffer_bound,
            cache_budget,
            workers,
            fanout: PlaneCounters::default(),
            session_id,
            restored_tiles: Some(tiles),
        })
    }

    /// Handles a redialing client's `MSG_SESSION_RESUME` token against
    /// the live screen.
    ///
    /// Warm resume (token matches: right session, known client, cache
    /// ledger digest equal to the client's store digest) ships only
    /// the delta between the checkpointed screen digests and `screen`
    /// — the client's framebuffer and content store are trusted
    /// as-is. Any mismatch falls back cold: pending state is dropped,
    /// both cache sides reset, and a full-view refresh is queued —
    /// the same path a brand-new attach takes, so a stale or
    /// corrupted token can never do worse than a cold reconnect.
    pub fn resume_client(
        &mut self,
        session_id: u64,
        id: ClientId,
        store_digest: u64,
        screen: &Framebuffer,
    ) -> ResumeOutcome {
        if session_id != self.session_id {
            // Wrong session entirely: nothing here belongs to this
            // client, so nothing is touched.
            return ResumeOutcome::Cold { reason: "unknown session" };
        }
        if self.state(id).is_none() {
            return ResumeOutcome::Cold { reason: "unknown client" };
        }
        if self.state(id).is_some_and(|s| s.quarantined) {
            // Quarantined state is unspecified (the panic may have
            // struck mid-mutation); it must not be revived or mutated.
            return ResumeOutcome::Cold { reason: "quarantined" };
        }
        let ledger_digest =
            cache_digest(&self.state(id).map(|s| s.buffer.cache_keys()).unwrap_or_default());
        if ledger_digest != store_digest {
            return self.cold_fallback(id, screen, "cache digest mismatch");
        }
        let delta = match &self.restored_tiles {
            Some(t) => t.delta(&TileDigests::of(screen)),
            None => Region::new(),
        };
        let delta_area = delta.area();
        let state = self.state_mut(id).expect("presence checked above");
        state.resilience.record_resume();
        if state.scale.is_identity() {
            // Debt lives in viewport coordinates; at identity scale
            // the session-space delta maps one-to-one, so only the
            // changed tiles are requeued.
            state.buffer.owe_refresh_region(&delta);
            state.repay_debt(screen);
        } else if !delta.is_empty() {
            // A scaled client resamples whole views; re-rendering the
            // full view is both simpler and still far cheaper than a
            // cold restart (no cache reset, no pending-state drop).
            state.refresh_owed = true;
            state.repay_refresh(screen);
        }
        ResumeOutcome::Warm { delta_area }
    }

    /// The cold half of [`resume_client`](Self::resume_client): drop
    /// everything mid-flight, clear the cache ledger (the redialing
    /// client clears its store in the same breath, keeping the
    /// eviction mirror intact), and queue a full-view refresh.
    fn cold_fallback(
        &mut self,
        id: ClientId,
        screen: &Framebuffer,
        reason: &'static str,
    ) -> ResumeOutcome {
        if let Some(state) = self.state_mut(id) {
            state.resilience.record_cold_fallback();
            let _ = state.buffer.drop_pending_for_rescale();
            let _ = state.buffer.take_overflow_debt();
            state.buffer.reset_cache();
            state.pending_av.clear();
            state.refresh_owed = true;
            state.repay_refresh(screen);
        }
        ResumeOutcome::Cold { reason }
    }
}

/// The session identity folded into resume tokens: owner plus
/// geometry, so two sessions only collide when they are genuinely
/// interchangeable from the client's perspective.
fn compute_session_id(owner: &str, width: u32, height: u32, format: PixelFormat) -> u64 {
    use thinc_protocol::hash::{fnv64, fnv64_update};
    let mut h = fnv64(owner.as_bytes());
    h = fnv64_update(h, &width.to_le_bytes());
    h = fnv64_update(h, &height.to_le_bytes());
    h = fnv64_update(h, &[format_to_u8(format)]);
    h
}

/// Decodes a degradation-ladder level from its checkpoint byte.
pub(crate) fn level_from_u8(b: u8) -> Result<DegradationLevel, CheckpointError> {
    DegradationLevel::ALL
        .get(b as usize)
        .copied()
        .ok_or(CheckpointError::Malformed("degradation level"))
}

/// The per-client flush body: A/V first (paced data), then the SRSF
/// display queues. A free function so the parallel fan-out can borrow
/// one client's state without holding the session.
fn flush_client_state(
    state: &mut ClientState,
    now: SimTime,
    pipe: &mut TcpPipe,
    trace: &mut PacketTrace,
    plane: Option<&WirePlane>,
    counters: &mut PlaneCounters,
) -> Vec<(SimTime, Message)> {
    if state.poison_flush {
        state.poison_flush = false;
        panic!("injected poison: client flush panicked");
    }
    observe_client_degradation(state, now, pipe);
    let mut out = Vec::new();
    let mut i = 0;
    while i < state.pending_av.len() {
        let size = thinc_protocol::wire::encoded_len(&state.pending_av[i]);
        if pipe.would_block(now, size) {
            break;
        }
        let msg = state.pending_av.remove(i);
        let (_, arrival) = pipe.send(now, size);
        trace.record(now, arrival, size, thinc_net::trace::Direction::Down, "video");
        out.push((arrival, msg));
        // `remove` shifted; keep index at 0 semantics.
        i = 0;
    }
    out.extend(state.buffer.flush_shared(now, pipe, trace, plane, counters));
    out
}

/// One scale-equivalence class of a broadcast round: the shared
/// translation of the round's commands and (when any member owes one)
/// the shared full-view refresh rendition.
struct BroadcastClass {
    policy: ScalePolicy,
    transformed: Vec<Option<DisplayCommand>>,
    refresh: Option<DisplayCommand>,
    refresh_wanted: bool,
}

/// Renders the full-view refresh a [`ScalePolicy`] class is owed —
/// the class-shared twin of [`ClientState::repay_refresh`], with the
/// identical output bytes.
fn shared_refresh(policy: &ScalePolicy, screen: &Framebuffer) -> Option<DisplayCommand> {
    let (clip, data) = screen.get_raw(&policy.view);
    if clip.is_empty() {
        return None;
    }
    let cmd = DisplayCommand::Raw {
        rect: clip,
        encoding: thinc_protocol::commands::RawEncoding::None,
        data: data.into(),
    };
    if policy.is_identity() {
        Some(cmd)
    } else {
        policy.transform(&cmd, screen)
    }
}

/// Feeds one flush epoch of this client's link telemetry to its
/// degradation controller and applies any resulting transition. Runs
/// inside the parallel fan-out: every input is per-client (own
/// buffer, own pipe, own controller), so worker count cannot change
/// the outcome.
fn observe_client_degradation(state: &mut ClientState, now: SimTime, pipe: &TcpPipe) {
    let transition = {
        let Some(ctrl) = state.degradation.as_mut() else {
            return;
        };
        let fs = pipe.fault_stats();
        let signals = EpochSignals {
            pending_bytes: state.buffer.pending_bytes(),
            byte_bound: state.buffer.byte_bound(),
            overflow_evictions: state.buffer.stats().overflow_evicted,
            outage_defers: fs.outage_defers,
            collapsed_rounds: fs.collapsed_rounds,
            stale_av_drops: 0,
            corrupt_events: fs.corrupt_events,
            segments_reordered: fs.segments_reordered,
            segments_duplicated: fs.segments_duplicated,
            link_impaired: pipe.fault_window_active(now),
        };
        ctrl.observe(&signals)
    };
    if let Some(t) = transition {
        state
            .resilience
            .record_degradation_step(t.to.index() as u64, t.is_demotion());
        state.rescale_for_degradation();
    }
}

impl VideoDriver for SharedSession {
    fn create_pixmap(&mut self, _store: &DrawableStore, id: DrawableId, w: u32, h: u32) {
        self.translator.create_pixmap(id, w, h);
    }

    fn free_pixmap(&mut self, _store: &DrawableStore, id: DrawableId) {
        self.translator.free_pixmap(id);
    }

    fn solid_fill(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, color: Color) {
        let cmds = self.translator.solid_fill(store, target, rect, color);
        self.broadcast(cmds, store.screen());
    }

    fn pattern_fill(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        tile: &Framebuffer,
    ) {
        let cmds = self.translator.pattern_fill(store, target, rect, tile);
        self.broadcast(cmds, store.screen());
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
        let cmds = self.translator.stipple_fill(store, target, rect, bits, fg, bg);
        self.broadcast(cmds, store.screen());
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
        let cmds = self
            .translator
            .copy_area(store, src, dst, src_rect, dst_x, dst_y);
        self.broadcast(cmds, store.screen());
    }

    fn put_image(&mut self, store: &DrawableStore, target: DrawableId, rect: Rect, data: &[u8]) {
        let cmds = self.translator.put_image(store, target, rect, data);
        self.broadcast(cmds, store.screen());
    }

    fn composite(
        &mut self,
        store: &DrawableStore,
        target: DrawableId,
        rect: Rect,
        _data: &[u8],
        _op: thinc_raster::CompositeOp,
    ) {
        let cmds = self.translator.composite(store, target, rect);
        self.broadcast(cmds, store.screen());
    }

    fn video_display(&mut self, _store: &DrawableStore, frame: &YuvFrame, dst: Rect) {
        let ts = self.now.as_micros();
        for (_, state) in self.clients.iter_mut() {
            if state.quarantined {
                continue;
            }
            // Video messages bypass the display buffer ordering and go
            // through each client's own stream manager (which also
            // resamples for small viewports).
            let msgs = state.video.display_frame(frame, dst, ts);
            for m in msgs {
                // Wrap as display-path content so flushing stays
                // single-channel per client: the buffer only carries
                // DisplayCommand, so A/V keeps a side-channel. For
                // the shared session we deliver video immediately at
                // flush time via the pending list below.
                state.pending_av.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_authenticates() {
        let auth = SessionAuth::new("ricardo");
        assert!(auth
            .authenticate(&Credentials::Owner {
                user: "ricardo".into()
            })
            .is_ok());
        assert_eq!(
            auth.authenticate(&Credentials::Owner { user: "mallory".into() }),
            Err(AuthError::NotOwner)
        );
    }

    #[test]
    fn silent_peer_is_pinged_then_reaped_while_active_owner_survives() {
        use thinc_net::time::SimDuration;
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host").with_liveness(
            LivenessConfig {
                timeout: SimDuration::from_secs_f64(10.0),
                ping_interval: SimDuration::from_secs_f64(2.0),
            },
        );
        s.auth_mut().enable_sharing("pw");
        let owner = s
            .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        let peer = s
            .attach(
                &Credentials::Peer {
                    user: "guest".into(),
                    password: "pw".into(),
                },
                32,
                32,
            )
            .unwrap();
        let secs = |x: f64| SimTime((x * 1e6) as u64);
        // The owner keeps talking; the peer goes silent.
        s.note_client_activity(owner, secs(3.0));
        assert!(matches!(
            s.poll_client_liveness(peer, secs(3.0)),
            LivenessVerdict::SendPing { .. }
        ));
        assert!(matches!(
            s.poll_client_liveness(owner, secs(4.0)),
            LivenessVerdict::Alive
        ));
        assert!(matches!(
            s.poll_client_liveness(peer, secs(11.0)),
            LivenessVerdict::Dead
        ));
        assert!(s.client_dead(peer));
        assert!(!s.client_dead(owner));
        assert_eq!(s.reap_dead(), vec![peer]);
        assert_eq!(s.client_count(), 1);
    }

    #[test]
    fn sharing_requires_password() {
        let mut auth = SessionAuth::new("host");
        let peer = Credentials::Peer {
            user: "guest".into(),
            password: "sosp2005".into(),
        };
        assert_eq!(auth.authenticate(&peer), Err(AuthError::SharingDisabled));
        auth.enable_sharing("sosp2005");
        assert!(auth.authenticate(&peer).is_ok());
        assert_eq!(
            auth.authenticate(&Credentials::Peer {
                user: "guest".into(),
                password: "wrong".into()
            }),
            Err(AuthError::BadPassword)
        );
        auth.disable_sharing();
        assert_eq!(auth.authenticate(&peer), Err(AuthError::SharingDisabled));
    }

    /// Per-client message streams, per-client final framebuffers, the
    /// screen bytes, and the session itself.
    type ScenarioOutcome = (Vec<Vec<Message>>, Vec<Vec<u8>>, Vec<u8>, SharedSession);

    /// Runs a two-client degradation scenario (owner on a clean link,
    /// peer behind a one-second collapse window) and returns the
    /// per-client message streams plus the final framebuffer of each
    /// client and the screen.
    fn run_degradation_scenario(workers: usize) -> ScenarioOutcome {
        use thinc_display::drawable::SCREEN;
        use thinc_net::fault::FaultPlan;
        use thinc_net::link::NetworkConfig;
        use thinc_net::time::SimDuration;
        use crate::degradation::DegradationConfig;

        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host")
            .with_degradation(DegradationConfig {
                degrade_after: 1,
                promote_after: 1,
                ..DegradationConfig::default()
            })
            .with_workers(workers);
        s.auth_mut().enable_sharing("pw");
        let owner = s
            .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        let peer = s
            .attach(
                &Credentials::Peer {
                    user: "guest".into(),
                    password: "pw".into(),
                },
                64,
                64,
            )
            .unwrap();

        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let clean = NetworkConfig::lan_desktop();
        let plan = FaultPlan::seeded(7).with_collapse(
            SimTime(0),
            SimDuration::from_secs(1),
            0.05,
        );
        let faulted = NetworkConfig::lan_desktop().with_faults(plan);
        let mut links = vec![
            (clean.connect().down, PacketTrace::new()),
            (faulted.connect().down, PacketTrace::new()),
        ];
        let secs = |t: f64| SimTime((t * 1e6) as u64);

        let mut streams = vec![Vec::new(), Vec::new()];
        let collect = |out: Vec<(ClientId, Vec<(SimTime, Message)>)>,
                           streams: &mut Vec<Vec<Message>>| {
            for (id, msgs) in out {
                let idx = if id == owner { 0 } else { 1 };
                streams[idx].extend(msgs.into_iter().map(|(_, m)| m));
            }
        };

        store
            .screen_mut()
            .fill_rect(&Rect::new(0, 0, 64, 64), Color::rgb(30, 90, 50));
        s.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 64), Color::rgb(30, 90, 50));
        // Three flush epochs inside the collapse window: the peer's
        // ladder walks to Survival while the owner stays at Full.
        for i in 0..3 {
            let out = s.flush_all(secs(0.1 * (i + 1) as f64), &mut links);
            collect(out, &mut streams);
        }
        assert_eq!(s.client_degradation_level(owner), DegradationLevel::Full);
        assert_eq!(s.client_degradation_level(peer), DegradationLevel::Survival);
        let m = s.client_resilience(peer).unwrap();
        assert_eq!(m.degrade_steps(), 3);
        assert_eq!(m.max_degradation_level(), 3);
        assert_eq!(s.client_resilience(owner).unwrap().degrade_steps(), 0);

        // The window clears: three clear epochs climb back to Full.
        for i in 0..3 {
            let out = s.flush_all(secs(1.5 + 0.1 * i as f64), &mut links);
            collect(out, &mut streams);
        }
        assert_eq!(s.client_degradation_level(peer), DegradationLevel::Full);
        assert_eq!(s.client_resilience(peer).unwrap().promote_steps(), 3);

        // A fresh draw triggers the owed full-view refresh; drain.
        store
            .screen_mut()
            .fill_rect(&Rect::new(8, 8, 16, 16), Color::rgb(200, 40, 40));
        s.solid_fill(&store, SCREEN, Rect::new(8, 8, 16, 16), Color::rgb(200, 40, 40));
        for i in 0..20 {
            let out = s.flush_all(secs(3.0 + 0.2 * i as f64), &mut links);
            collect(out, &mut streams);
            if (0..s.client_count() as u32).all(|c| s.backlog(ClientId(c)) == 0) {
                break;
            }
        }

        let mut fbs = Vec::new();
        for stream in &streams {
            let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
            for m in stream {
                client.apply(m);
            }
            fbs.push(client.framebuffer().data().to_vec());
        }
        let screen = store.screen().data().to_vec();
        (streams, fbs, screen, s)
    }

    #[test]
    fn faulted_peer_degrades_alone_and_recovers_byte_exact() {
        let (_, fbs, screen, _) = run_degradation_scenario(1);
        assert_eq!(fbs[0], screen, "owner never left full fidelity");
        assert_eq!(
            fbs[1], screen,
            "peer converges byte-exact after the refresh"
        );
    }

    #[test]
    fn worker_count_does_not_change_degradation_outcome() {
        let (a, fa, _, _) = run_degradation_scenario(1);
        let (b, fb, _, _) = run_degradation_scenario(4);
        assert_eq!(a, b, "message streams identical for any worker count");
        assert_eq!(fa, fb);
    }

    #[test]
    fn poisoned_flush_quarantines_only_that_client() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        crate::parallel::silence_panics(|| {
            for workers in [1, 4] {
                let mut s =
                    SharedSession::new(64, 64, PixelFormat::Rgb888, "host").with_workers(workers);
                s.auth_mut().enable_sharing("pw");
                let owner = s
                    .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
                    .unwrap();
                let peer = s
                    .attach(
                        &Credentials::Peer {
                            user: "guest".into(),
                            password: "pw".into(),
                        },
                        64,
                        64,
                    )
                    .unwrap();
                let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
                let mut links = vec![
                    (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
                    (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
                ];
                store
                    .screen_mut()
                    .fill_rect(&Rect::new(0, 0, 64, 64), Color::rgb(10, 20, 30));
                s.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 64), Color::rgb(10, 20, 30));
                s.poison_next_flush(peer);
                let mut stream = Vec::new();
                for i in 0..20u64 {
                    let out = s.flush_all(SimTime((i + 1) * 100_000), &mut links);
                    for (id, msgs) in out {
                        if id == owner {
                            stream.extend(msgs.into_iter().map(|(_, m)| m));
                        } else {
                            assert!(msgs.is_empty(), "quarantined client delivers nothing");
                        }
                    }
                    if s.backlog(owner) == 0 {
                        break;
                    }
                }
                assert!(s.client_quarantined(peer), "workers={workers}");
                assert!(!s.client_quarantined(owner));
                assert_eq!(s.quarantined_count(), 1);
                assert_eq!(s.client_resilience(peer).unwrap().panics_quarantined(), 1);
                assert_eq!(s.client_resilience(owner).unwrap().panics_quarantined(), 0);
                // The session kept serving: the healthy client
                // converges byte-exact.
                let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
                for m in &stream {
                    client.apply(m);
                }
                assert_eq!(client.framebuffer().data(), store.screen().data());
            }
        });
    }

    /// Runs a two-client cached session over clean links: the same
    /// tile is redrawn every round, so rounds after the first travel
    /// as cache references. Returns the per-client message streams,
    /// the per-client framebuffers after stream-layer resolution, and
    /// the screen bytes.
    fn run_cache_scenario(workers: usize) -> (Vec<Vec<Message>>, Vec<Vec<u8>>, Vec<u8>) {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host")
            .with_cache(thinc_protocol::DEFAULT_CACHE_BUDGET)
            .with_workers(workers);
        s.auth_mut().enable_sharing("pw");
        let owner = s
            .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        let _peer = s
            .attach(
                &Credentials::Peer {
                    user: "guest".into(),
                    password: "pw".into(),
                },
                64,
                64,
            )
            .unwrap();
        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let mut links = vec![
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        ];
        let secs = |t: f64| SimTime((t * 1e6) as u64);
        let mut streams = vec![Vec::new(), Vec::new()];
        let tile = vec![123u8; 16 * 16 * 3];
        for round in 0..3 {
            store
                .screen_mut()
                .put_raw(&Rect::new(0, 0, 16, 16), &tile);
            s.put_image(&store, SCREEN, Rect::new(0, 0, 16, 16), &tile);
            for epoch in 0..10 {
                let out = s.flush_all(secs(round as f64 + 0.05 * (epoch + 1) as f64), &mut links);
                for (id, msgs) in out {
                    let idx = if id == owner { 0 } else { 1 };
                    streams[idx].extend(msgs.into_iter().map(|(_, m)| m));
                }
                if (0..s.client_count() as u32).all(|c| s.backlog(ClientId(c)) == 0) {
                    break;
                }
            }
        }
        // Resolve each stream through the client's wire layer (which
        // owns the content store) and read back the framebuffers.
        let mut fbs = Vec::new();
        for stream in &streams {
            let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
            for m in stream {
                sc.feed(&thinc_protocol::wire::encode_message(m));
            }
            assert!(sc.take_cache_miss().is_none(), "no misses on clean links");
            fbs.push(sc.client().framebuffer().data().to_vec());
        }
        (streams, fbs, store.screen().data().to_vec())
    }

    #[test]
    fn cached_session_substitutes_refs_and_converges_byte_exact() {
        let (streams, fbs, screen) = run_cache_scenario(1);
        for (stream, fb) in streams.iter().zip(&fbs) {
            let refs = stream
                .iter()
                .filter(|m| matches!(m, Message::CacheRef { .. }))
                .count();
            assert!(refs >= 2, "repeat rounds must travel as references");
            assert_eq!(fb, &screen, "cached stream resolves byte-exact");
        }
    }

    #[test]
    fn worker_count_does_not_change_cached_streams() {
        let (a, fa, _) = run_cache_scenario(1);
        let (b, fb, _) = run_cache_scenario(4);
        assert_eq!(a, b, "cached streams identical for any worker count");
        assert_eq!(fa, fb);
    }

    #[test]
    fn client_cache_miss_requeues_the_exact_payload() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host")
            .with_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        let id = s
            .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        let store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let mut links = vec![(
            NetworkConfig::lan_desktop().connect().down,
            PacketTrace::new(),
        )];
        let secs = |t: f64| SimTime((t * 1e6) as u64);
        let tile = vec![9u8; 16 * 16 * 3];
        s.put_image(&store, SCREEN, Rect::new(0, 0, 16, 16), &tile);
        let mut sent = Vec::new();
        for epoch in 0..10 {
            let out = s.flush_all(secs(0.05 * (epoch + 1) as f64), &mut links);
            sent.extend(out.into_iter().flat_map(|(_, m)| m).map(|(_, m)| m));
            if s.backlog(id) == 0 {
                break;
            }
        }
        let cached = sent
            .iter()
            .find(|m| m.cache_key().is_some())
            .expect("a cacheable payload was sent");
        let hash = cached.cache_key().unwrap();
        // A miss for a held hash queues the byte-exact payload again.
        assert!(s.client_cache_miss(id, hash));
        let (pipe, trace) = &mut links[0];
        let out = s.flush_client(id, secs(2.0), pipe, trace);
        let resent = &out[0].1;
        assert_eq!(
            thinc_protocol::wire::encode_message(resent),
            thinc_protocol::wire::encode_message(cached),
            "fallback must be byte-exact"
        );
        // A miss for an unknown hash cannot be satisfied.
        assert!(!s.client_cache_miss(id, 0xDEAD_BEEF));
        let m = s.client_resilience(id).unwrap();
        assert_eq!(m.cache_misses(), 2);
    }

    // ---- checkpoint / restore / warm failover ----

    /// A fully-featured two-client session with some delivered traffic
    /// and some backlog, plus the drawable store driving it and the
    /// per-client messages its internal flush epochs already delivered
    /// (a client replaying the stream from scratch needs them too).
    fn checkpointable_session() -> (
        SharedSession,
        thinc_display::drawable::DrawableStore,
        Vec<Vec<Message>>,
    ) {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host")
            .with_liveness(LivenessConfig::default())
            .with_degradation(DegradationConfig::default())
            .with_buffer_bound(512 * 1024)
            .with_cache(thinc_protocol::DEFAULT_CACHE_BUDGET)
            .with_workers(2);
        s.auth_mut().enable_sharing("pw");
        s.attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        s.attach(
            &Credentials::Peer { user: "guest".into(), password: "pw".into() },
            32,
            32,
        )
        .unwrap();
        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        store
            .screen_mut()
            .fill_rect(&Rect::new(0, 0, 64, 64), Color::rgb(40, 80, 120));
        s.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 64), Color::rgb(40, 80, 120));
        let mut links = vec![
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        ];
        // A couple of flush epochs: populates ledgers and stats but
        // deliberately leaves backlog (mid-flight state).
        let mut delivered = vec![Vec::new(), Vec::new()];
        for i in 0..2u64 {
            for (j, (_, msgs)) in s
                .flush_all(SimTime((i + 1) * 10_000), &mut links)
                .into_iter()
                .enumerate()
            {
                delivered[j].extend(msgs.into_iter().map(|(_, m)| m));
            }
        }
        store
            .screen_mut()
            .fill_rect(&Rect::new(4, 4, 24, 24), Color::rgb(200, 10, 10));
        s.solid_fill(&store, SCREEN, Rect::new(4, 4, 24, 24), Color::rgb(200, 10, 10));
        (s, store, delivered)
    }

    #[test]
    fn restore_re_checkpoints_byte_exact() {
        let (s, store, _) = checkpointable_session();
        let c1 = s.checkpoint(store.screen());
        let restored = SharedSession::restore(&c1).expect("valid image restores");
        let c2 = restored.checkpoint(store.screen());
        assert_eq!(c1, c2, "checkpoint(restore(c)) must equal c");
        assert_eq!(restored.session_id(), s.session_id());
        assert_eq!(restored.client_ids(), s.client_ids());
        for id in s.client_ids() {
            assert_eq!(restored.client_pending_bytes(id), s.client_pending_bytes(id));
            assert_eq!(restored.client_cache_keys(id), s.client_cache_keys(id));
        }
    }

    #[test]
    fn queued_liveness_probes_are_not_checkpointed() {
        use thinc_net::link::NetworkConfig;

        let (mut s, store, _) = checkpointable_session();
        let owner = s.client_ids()[0];
        // Past the ping interval: polling queues a probe (and counts
        // it) on the live incarnation.
        let t = SimTime(6_000_000);
        s.set_time(t);
        assert!(matches!(
            s.poll_client_liveness(owner, t),
            LivenessVerdict::SendPing { .. }
        ));
        let image = s.checkpoint(store.screen());
        // The image still restores and re-checkpoints byte-exact with
        // the probe queued on the live side...
        let restored = SharedSession::restore(&image).expect("valid image restores");
        assert_eq!(restored.checkpoint(store.screen()), image);
        // ...and the standby never delivers the dead incarnation's
        // ping — its own fresh tracker issues (and counts) probes —
        // so pong<=ping conservation survives the takeover.
        let mut restored = restored;
        let mut links = vec![
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        ];
        for i in 0..20u64 {
            for (_, msgs) in restored.flush_all(SimTime(t.0 + (i + 1) * 10_000), &mut links) {
                for (_, m) in msgs {
                    assert!(
                        !matches!(m, Message::Ping { .. }),
                        "standby delivered a probe its telemetry never counted"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_session_checkpoints_are_typed_errors() {
        let (s, store, _) = checkpointable_session();
        let image = s.checkpoint(store.screen());
        for cut in 0..image.len().min(200) {
            assert!(SharedSession::restore(&image[..cut]).is_err());
        }
        // CRC catches every single-bit flip in the payload; header
        // flips land on magic/version/length checks instead. Either
        // way: typed error, no panic, no partial session.
        for byte in (0..image.len()).step_by(37) {
            let mut bad = image.clone();
            bad[byte] ^= 0x10;
            assert!(SharedSession::restore(&bad).is_err(), "flip at {byte}");
        }
    }

    #[test]
    fn warm_resume_ships_only_the_stale_tiles() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        let (mut s, mut store, mut delivered) = checkpointable_session();
        let mut links = vec![
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        ];
        // Drain fully so the pre-crash clients are converged.
        let owner = s.client_ids()[0];
        for i in 0..50u64 {
            for (j, (_, msgs)) in s
                .flush_all(SimTime(100_000 + i * 10_000), &mut links)
                .into_iter()
                .enumerate()
            {
                delivered[j].extend(msgs.into_iter().map(|(_, m)| m));
            }
            if (0..s.client_count() as u32).all(|c| s.backlog(ClientId(c)) == 0) {
                break;
            }
        }
        let digest_before = crate::checkpoint::cache_digest(&s.client_cache_keys(owner));
        let image = s.checkpoint(store.screen());

        // The "server" dies; drawing continues against the live store
        // (16 tile rows change) before the standby restores.
        store
            .screen_mut()
            .fill_rect(&Rect::new(0, 0, 64, 16), Color::rgb(9, 200, 9));
        let mut restored = SharedSession::restore(&image).unwrap();
        restored.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 16), Color::rgb(9, 200, 9));
        // The restored session does not yet know the redialed client
        // state is intact: the resume token proves it.
        let sid = restored.session_id();
        let warm = restored.resume_client(sid, owner, digest_before, store.screen());
        let ResumeOutcome::Warm { delta_area } = warm else {
            panic!("matching token must resume warm, got {warm:?}");
        };
        assert!(delta_area > 0, "screen changed while down");
        assert!(
            delta_area <= 64 * 16 + 64 * 32,
            "delta covers the changed band (plus the still-undelivered backlog), \
             not the whole screen: {delta_area}"
        );
        assert_eq!(
            restored.client_resilience(owner).unwrap().resumes(),
            1,
            "warm resume is counted"
        );

        // A stale token (store digest mismatch) falls back cold: cache
        // reset on the server side, full view owed, counted.
        let guest = restored.client_ids()[1];
        let cold = restored.resume_client(sid, guest, 0xBAD, store.screen());
        assert!(matches!(cold, ResumeOutcome::Cold { reason: "cache digest mismatch" }));
        assert!(restored.client_cache_keys(guest).is_empty(), "ledger reset");
        assert_eq!(restored.client_resilience(guest).unwrap().cold_fallbacks(), 1);
        // Unknown session / unknown client / quarantined: cold, no touch.
        assert!(matches!(
            restored.resume_client(sid ^ 1, owner, digest_before, store.screen()),
            ResumeOutcome::Cold { reason: "unknown session" }
        ));
        assert!(matches!(
            restored.resume_client(sid, ClientId(999), 0, store.screen()),
            ResumeOutcome::Cold { reason: "unknown client" }
        ));

        // Both clients converge byte-exact after the failover; the
        // warm client's bill is a fraction of the cold one's.
        let warm_before = restored.client_sent_bytes(owner);
        let cold_before = restored.client_sent_bytes(guest);
        let mut links = vec![
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
            (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        ];
        for i in 0..80u64 {
            for (j, (_, msgs)) in restored
                .flush_all(SimTime(10_000_000 + i * 10_000), &mut links)
                .into_iter()
                .enumerate()
            {
                delivered[j].extend(msgs.into_iter().map(|(_, m)| m));
            }
            if (0..restored.client_count() as u32)
                .all(|c| restored.backlog(ClientId(c)) == 0)
            {
                break;
            }
        }
        let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
        for m in &delivered[0] {
            sc.feed(&thinc_protocol::wire::encode_message(m));
        }
        assert_eq!(
            sc.client().framebuffer().data(),
            store.screen().data(),
            "warm-resumed client converges byte-exact"
        );
        let warm_bytes = restored.client_sent_bytes(owner) - warm_before;
        let cold_bytes = restored.client_sent_bytes(guest) - cold_before;
        assert!(
            warm_bytes < cold_bytes,
            "warm resume ({warm_bytes} B to a 64x64 viewport) must undercut \
             cold reconnect ({cold_bytes} B to a 32x32 viewport)"
        );
    }
}
