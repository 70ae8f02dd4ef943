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
//! commands fan out to each client's [`Delivery`] — the same
//! per-client pipeline a [`crate::server::ThincServer`] wraps one of —
//! with per-client viewport scaling, so a PDA peer can watch a desktop
//! host's session.
//!
//! Per-client work (command scaling, buffering, flush-time RAW
//! compression) is embarrassingly parallel: every client owns its
//! delivery state. [`SharedSession::with_workers`] fans that work out
//! over [`crate::parallel::for_each_mut`] scoped threads; results are
//! merged in client-id order, so output is bit-identical for every
//! worker count.

use std::collections::HashMap;

use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::Message;
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, Framebuffer, PixelFormat, Rect, Region, YuvFrame};

use crate::buffer::ClientBuffer;
use crate::checkpoint::{
    format_from_u8, format_to_u8, CheckpointError, Reader, TileDigests, Writer,
};
use crate::degradation::DegradationConfig;
use crate::delivery::{Delivery, DeliveryPolicy, Rendition, Uplink};
use crate::liveness::{LivenessConfig, LivenessVerdict};
use crate::parallel::{contain, try_for_each_mut};
use crate::plane::{PlanRole, PlaneCounters, WirePlane};
use crate::scaling::ScalePolicy;
use crate::translator::Translator;
use crate::video::{VideoPayload, VideoScale};

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

/// One attached client: its delivery pipeline plus what only a shared
/// session tracks about it.
struct Member {
    user: String,
    delivery: Delivery,
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

impl Member {
    /// The per-client flush body, borrowed one member at a time so the
    /// parallel fan-out need not hold the session. `begin_flush` has
    /// run, and `role` is what the plane made of the buffer it left.
    fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
        role: &PlanRole,
    ) -> Vec<(SimTime, Message)> {
        if self.quarantined {
            return Vec::new();
        }
        if self.poison_flush {
            self.poison_flush = false;
            panic!("injected poison: client flush panicked");
        }
        self.delivery.flush_begun(now, pipe, trace, plane, counters, role)
    }
}

/// One member's share of a flush round.
struct FlushJob<'a> {
    id: ClientId,
    member: &'a mut Member,
    link: &'a mut (TcpPipe, PacketTrace),
    /// The member's part in the plane's plan for its buffer state.
    role: PlanRole,
    /// Whether the flush goes to the worker pool (it clips, hashes and
    /// compresses) or runs inline (it is bookkeeping).
    heavy: bool,
    out: Vec<(SimTime, Message)>,
    counters: PlaneCounters,
    panicked: bool,
}

/// One display session shared by any number of authenticated clients.
///
/// Implements [`VideoDriver`], so it attaches below a window server
/// exactly like [`crate::server::ThincServer`] — but fans every
/// translated command out to each client's [`Delivery`], scaled to
/// that client's viewport.
pub struct SharedSession {
    format: PixelFormat,
    auth: SessionAuth,
    translator: Translator,
    /// Attached clients in strictly ascending id (= attach) order: ids
    /// come from `next_client`, which only grows, and `restore` rejects
    /// an image that breaks the order. Iteration order is the
    /// deterministic merge order for parallel fan-out; lookups
    /// binary-search it.
    clients: Vec<(ClientId, Member)>,
    next_client: u32,
    now: SimTime,
    /// Session geometry plus the liveness and degradation policy
    /// applied to every client attached from now on.
    policy: DeliveryPolicy,
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
            format,
            auth: SessionAuth::new(owner),
            translator: Translator::new(),
            clients: Vec::new(),
            next_client: 0,
            now: SimTime::ZERO,
            policy: DeliveryPolicy::new(width, height),
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
        self.policy.liveness = Some(config);
        self
    }

    /// Enables per-client adaptive degradation: every attached client
    /// gets its own hysteretic ladder controller, fed that client's
    /// link telemetry at flush time. Per-client controllers keep the
    /// parallel flush fan-out deterministic — a struggling PDA peer
    /// degrades without touching the desktop owner's fidelity.
    pub fn with_degradation(mut self, config: DegradationConfig) -> Self {
        self.policy.degradation = Some(config);
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

    /// Lets broadcast and flush use up to `workers` scoped threads —
    /// an upper bound, spent on per-class rendering and on the flushes
    /// of viewers that clip, hash and compress (plan leaders, and
    /// viewers diverged from their class); viewers in step with their
    /// class are bookkeeping and run inline whatever the bound (see
    /// [`crate::parallel`]). Output is identical for every worker
    /// count; the default is 1 (everything inline).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    fn member(&self, id: ClientId) -> Option<&Member> {
        let at = self.clients.binary_search_by_key(&id, |(cid, _)| *cid).ok()?;
        Some(&self.clients[at].1)
    }

    fn member_mut(&mut self, id: ClientId) -> Option<&mut Member> {
        let at = self.clients.binary_search_by_key(&id, |(cid, _)| *cid).ok()?;
        Some(&mut self.clients[at].1)
    }

    /// Everything held for one attached viewer: backlog, debt, ladder
    /// level, cache ledger, counters — whatever [`Delivery`] can report.
    pub fn viewer(&self, id: ClientId) -> Option<&Delivery> {
        self.member(id).map(|m| &m.delivery)
    }

    /// The delivery pipeline of an attached client that can still be
    /// served (quarantined state must not be revived or mutated).
    fn serving(&mut self, id: ClientId) -> Option<&mut Delivery> {
        self.member_mut(id)
            .filter(|m| !m.quarantined)
            .map(|m| &mut m.delivery)
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
        let mut buffer = ClientBuffer::new().with_raw_compression(self.format.bytes_per_pixel());
        if let Some(bound) = self.buffer_bound {
            buffer = buffer.with_byte_bound(bound);
        }
        if let Some(budget) = self.cache_budget {
            buffer.enable_cache(budget);
        }
        let mut delivery = Delivery::new(self.policy, buffer, self.now);
        *delivery.encoder_mut() = member_framer();
        delivery.set_viewport(viewport_w, viewport_h);
        // A fresh attach owes the full view: the client's framebuffer
        // starts empty.
        delivery.owe_refresh();
        self.clients.push((
            id,
            Member {
                user,
                delivery,
                quarantined: false,
                poison_flush: false,
            },
        ));
        Ok(id)
    }

    /// Evaluates a client's liveness at `now`: a silent client gets a
    /// ping queued on its A/V channel; silence past the timeout marks
    /// it dead (its resources become reclaimable via
    /// [`reap_dead`](Self::reap_dead)). Returns `Alive` for unknown
    /// clients or when liveness is disabled.
    pub fn poll_client_liveness(&mut self, id: ClientId, now: SimTime) -> LivenessVerdict {
        let Some(m) = self.member_mut(id) else {
            return LivenessVerdict::Alive;
        };
        if m.quarantined {
            // A quarantined client cannot be served; report it dead
            // without queueing probes its flush would never carry.
            return LivenessVerdict::Dead;
        }
        m.delivery.poll_liveness(now)
    }

    /// Whether a client has been declared dead.
    pub fn client_dead(&self, id: ClientId) -> bool {
        self.viewer(id).is_some_and(|d| d.is_dead())
    }

    /// Detaches every dead client, freeing its buffers (a dead
    /// client's queues would otherwise accumulate updates forever).
    /// Returns the reaped ids; a reaped client reconnects by
    /// re-attaching and resyncing.
    pub fn reap_dead(&mut self) -> Vec<ClientId> {
        let dead: Vec<ClientId> = self
            .clients
            .iter()
            .filter(|(_, m)| m.delivery.is_dead())
            .map(|(id, _)| *id)
            .collect();
        self.clients.retain(|(_, m)| !m.delivery.is_dead());
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
        self.member(id).map(|m| m.user.as_str())
    }

    /// Pending commands for a client.
    pub fn backlog(&self, id: ClientId) -> usize {
        self.viewer(id).map_or(0, |d| d.buffer().len())
    }

    /// Fans translated commands out to every client. Clients at the
    /// same scale policy receive identical command streams, so a
    /// serial pre-pass opens each client's round and groups clients
    /// into scale-equivalence classes, each class is rendered once,
    /// and the per-client pushes share the class's [`Rendition`] by
    /// reference. Per-client push order is the command order.
    ///
    /// The worker pool is used where there is work for it (see
    /// [`crate::parallel`]): rendering, when more than one class has
    /// any to do — a resample or an owed full view; an identity class
    /// clones handles — and pushing, when some client has refresh debt
    /// to read back off the screen. Queue pushes alone are a fraction
    /// of a microsecond each, less than the threads would cost.
    fn broadcast(&mut self, cmds: Vec<DisplayCommand>, screen: &Framebuffer) {
        struct Class {
            policy: ScalePolicy,
            refresh_wanted: bool,
            rendition: Option<Rendition>,
        }
        let mut classes: Vec<Class> = Vec::new();
        let mut class_of: Vec<usize> = Vec::with_capacity(self.clients.len());
        let mut debt = false;
        for (_, m) in self.clients.iter_mut() {
            if m.quarantined {
                class_of.push(usize::MAX);
                continue;
            }
            let owed = m.delivery.begin_round(&cmds);
            debt |= m.delivery.has_debt();
            let policy = m.delivery.scale();
            let idx = match classes.iter().position(|c| c.policy == policy) {
                Some(i) => i,
                None => {
                    classes.push(Class { policy, refresh_wanted: false, rendition: None });
                    classes.len() - 1
                }
            };
            classes[idx].refresh_wanted |= owed;
            class_of.push(idx);
        }
        let cmds = &cmds;
        let rendering = classes.iter().filter(|c| c.refresh_wanted || !c.policy.is_identity()).count();
        let workers = if rendering > 1 { self.workers } else { 1 };
        crate::parallel::for_each_mut(&mut classes, workers, |_, class| {
            class.rendition = Some(Rendition::render(
                &class.policy,
                cmds,
                screen,
                class.refresh_wanted,
            ));
        });
        let classes = &classes;
        let class_of = &class_of;
        let workers = if debt { self.workers } else { 1 };
        crate::parallel::for_each_mut(&mut self.clients, workers, |i, (_, m)| {
            let rendition = classes.get(class_of[i]).and_then(|c| c.rendition.as_ref());
            if let Some(rendition) = rendition {
                m.delivery.push_rendition(cmds, rendition, screen);
            }
        });
    }

    /// Settles every client's owed refreshes and eviction debt
    /// against the current screen without requiring a draw. Call this
    /// before flushing when the display is quiescent — a freshly
    /// attached or resynced client is owed the full view even if
    /// nothing paints.
    pub fn repay_refreshes(&mut self, screen: &Framebuffer) {
        self.broadcast(Vec::new(), screen);
    }

    /// Handles a client's explicit resync request (see
    /// [`Delivery::resync`]): drops that client's (possibly stale)
    /// pending commands and queues a full-view refresh from `screen`.
    pub fn resync_client(&mut self, id: ClientId, screen: &Framebuffer) {
        let now = self.now;
        if let Some(d) = self.serving(id) {
            d.resync(screen, now);
        }
    }

    /// Flushes one client's buffer over its own connection.
    pub fn flush_client(
        &mut self,
        id: ClientId,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        self.member_mut(id).map_or_else(Vec::new, |m| {
            if !m.quarantined {
                m.delivery.begin_flush(now, pipe);
            }
            m.flush(now, pipe, trace, None, &mut PlaneCounters::default(), &PlanRole::Alone)
        })
    }

    /// Flushes **every** client's buffer, each over its own
    /// connection. Clients whose buffers are in the same state flush
    /// once between them: the lowest id derives the round's parts and
    /// wire forms (on the session's worker pool, beside the other
    /// classes' leaders) and the rest follow its plan inline, each
    /// against its own pipe and cache ledger.
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
        // clients are compressed and framed a single time, identical
        // buffers flushed a single time (see [`crate::plane`]); output
        // bytes are unchanged.
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

    /// One flush round over the listed members, dispatched by weight.
    ///
    /// A serial pre-pass, in id order, lets every member's ladder and
    /// A/V bound have their say and then asks the plane — under one
    /// lock for the whole shard — which members start from the same
    /// buffer state: the first in each state leads its plan, the rest
    /// follow it. So the leader is the lowest id, and with it who
    /// pays the codec (`codec_input_bytes`) and who skips it, whatever
    /// the worker count. Leaders — and, when there is no plane, every
    /// member with display commands queued — then flush on the worker
    /// pool; followers, idle members and members with only audio or
    /// video queued (shared payloads sized by arithmetic: bookkeeping)
    /// flush inline afterwards, when every plan they could follow has
    /// been published. A panic in any of the three steps is contained
    /// to its member.
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
            .map(|((id, member), link)| FlushJob {
                id: *id,
                member,
                link,
                role: PlanRole::Alone,
                heavy: false,
                out: Vec::new(),
                counters: PlaneCounters::default(),
                panicked: false,
            })
            .collect();
        assert_eq!(jobs.len(), ids.len(), "every flushed id must be attached");
        {
            let mut plans = plane.map(WirePlane::plans);
            for job in jobs.iter_mut().filter(|job| !job.member.quarantined) {
                let delivery = &mut job.member.delivery;
                let begun = contain(|| {
                    delivery.begin_flush(now, &job.link.0);
                    let buffer = delivery.buffer();
                    match plans.as_mut() {
                        Some(plans) => plans.resolve(buffer, now),
                        None => PlanRole::Alone,
                    }
                });
                match begun {
                    Ok(role) => {
                        job.heavy = match role {
                            PlanRole::Lead(_) => true,
                            PlanRole::Follow(_) => false,
                            PlanRole::Alone => !delivery.buffer().is_empty(),
                        };
                        job.role = role;
                    }
                    Err(_) => job.panicked = true,
                }
            }
        }
        let flush = |job: &mut FlushJob<'_>| {
            let (pipe, trace) = &mut *job.link;
            job.out = job.member.flush(now, pipe, trace, plane, &mut job.counters, &job.role);
        };
        let mut heavy: Vec<_> = jobs.iter_mut().filter(|job| job.heavy).collect();
        let caught = try_for_each_mut(&mut heavy, self.workers, |_, job| flush(job));
        for (job, caught) in heavy.into_iter().zip(caught) {
            job.panicked = caught.is_some();
        }
        for job in jobs.iter_mut().filter(|job| !job.heavy && !job.panicked) {
            job.panicked = contain(|| flush(job)).is_err();
        }
        // Panic containment: a client whose flush panicked is
        // quarantined — its partial output is discarded, the panic is
        // counted in its resilience metrics, and every other client's
        // output is delivered untouched.
        let mut total = PlaneCounters::default();
        for job in &mut jobs {
            if job.panicked {
                job.member.quarantined = true;
                job.member.delivery.resilience_mut().record_panic_quarantined();
                job.out.clear();
            } else {
                total.merge(&job.counters);
            }
        }
        (jobs.into_iter().map(|job| (job.id, job.out)).collect(), total)
    }

    /// Cumulative encode-once plane counters over every flush round
    /// so far (shared sends, amortized bytes, actual encodes).
    pub fn fanout_counters(&self) -> PlaneCounters {
        self.fanout
    }

    /// Applies a client's viewport change mid-session (window resize,
    /// device switch). When the scale changes, pending commands — and
    /// any queued cache-miss fallbacks — target the outgoing
    /// coordinate space, so they are dropped; either way the device
    /// may be a new one with an empty framebuffer, so the client is
    /// owed a full-view refresh (settled by the next broadcast or
    /// [`repay_refreshes`](Self::repay_refreshes)). Counted as a
    /// resync in the client's resilience metrics.
    pub fn resize_client(&mut self, id: ClientId, viewport_w: u32, viewport_h: u32) {
        if let Some(d) = self.serving(id) {
            d.set_viewport(viewport_w, viewport_h);
            d.owe_refresh();
            d.resilience_mut().record_resync();
        }
    }

    /// Changes the content-cache budget applied to clients attached
    /// from now on (already-attached clients keep their ledgers — the
    /// budget must stay in lockstep with each client's store for the
    /// eviction mirror to hold). `None` disables the cache for future
    /// attaches.
    pub fn set_cache_budget(&mut self, budget: Option<u64>) {
        self.cache_budget = budget;
    }

    /// Attached client ids, in attach (= flush merge) order.
    pub fn client_ids(&self) -> Vec<ClientId> {
        self.clients.iter().map(|(id, _)| *id).collect()
    }

    /// Whether a client has been quarantined by flush panic
    /// containment.
    pub fn client_quarantined(&self, id: ClientId) -> bool {
        self.member(id).is_some_and(|m| m.quarantined)
    }

    /// Number of currently quarantined clients.
    pub fn quarantined_count(&self) -> usize {
        self.clients.iter().filter(|(_, m)| m.quarantined).count()
    }

    /// Test/chaos hook: arms a deliberate panic inside `id`'s next
    /// flush, on whatever worker thread the fan-out assigns it —
    /// exercising the quarantine path end to end.
    pub fn poison_next_flush(&mut self, id: ClientId) {
        if let Some(m) = self.member_mut(id) {
            m.poison_flush = true;
        }
    }

    /// The session's stable identity, as carried by resume tokens.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Serializes the full session — policy, every client's
    /// [`Delivery`] record, and per-tile digests of `screen` — into a
    /// versioned, CRC-guarded checkpoint image
    /// ([`crate::checkpoint`]).
    ///
    /// Crash consistency comes from serializing raw internal state at
    /// a quiescent point (between flush epochs), never mid-mutation.
    /// Quarantined clients are skipped entirely: a quarantine means a
    /// panic may have struck mid-mutation, so their state is exactly
    /// what a checkpoint must not trust.
    ///
    /// Deliberately not captured (all reconstructed or reset at
    /// [`restore`](Self::restore)): the translator's pixmap queues
    /// (offscreen drawings replay into fresh queues), the encode-once
    /// plane accounting, and what the delivery record itself leaves
    /// out (video stream internals, liveness trackers, telemetry).
    pub fn checkpoint(&self, screen: &Framebuffer) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.policy.session.0);
        w.u32(self.policy.session.1);
        w.u8(format_to_u8(self.format));
        w.u64(self.session_id);
        w.str(&self.auth.owner);
        w.opt_str(self.auth.session_password.as_deref());
        w.u32(self.next_client);
        w.u64(self.now.0);
        self.policy.encode(&mut w);
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
        let live = || self.clients.iter().filter(|(_, m)| !m.quarantined);
        w.u32(live().count() as u32);
        for (id, m) in live() {
            w.u32(id.0);
            w.str(&m.user);
            m.delivery.encode_checkpoint(&mut w);
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
        let policy = DeliveryPolicy::decode(&mut r, (width, height))?;
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
        let mut clients: Vec<(ClientId, Member)> = Vec::new();
        for _ in 0..n_clients {
            let id = ClientId(r.u32()?);
            // Lookups binary-search the roster, and the next attach
            // takes `next_client`: ids must ascend and stay below it.
            if clients.last().is_some_and(|(last, _)| *last >= id) || id.0 >= next_client {
                return Err(CheckpointError::Malformed("client ids not ascending"));
            }
            let user = r.str()?;
            let mut delivery = Delivery::decode_checkpoint(&mut r, policy, now)?;
            *delivery.encoder_mut() = member_framer();
            clients.push((
                id,
                Member {
                    user,
                    delivery,
                    quarantined: false,
                    poison_flush: false,
                },
            ));
        }
        if !r.exhausted() {
            return Err(CheckpointError::Malformed("trailing bytes after checkpoint"));
        }
        Ok(Self {
            format,
            auth: SessionAuth { owner, session_password },
            translator: Translator::new(),
            clients,
            next_client,
            now,
            policy,
            buffer_bound,
            cache_budget,
            workers,
            fanout: PlaneCounters::default(),
            session_id,
            restored_tiles: Some(tiles),
        })
    }

    /// The greeting sent to a connecting client.
    pub fn hello(&self) -> Message {
        Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: self.policy.session.0,
            height: self.policy.session.1,
            depth: self.format.depth() as u8,
        }
    }

    /// Frames `msg` for one client's wire (see
    /// [`Delivery::encode_frame`]). Empty for a client that is not
    /// attached or can no longer be served.
    pub fn encode_frame(&mut self, id: ClientId, msg: &Message) -> Vec<u8> {
        self.serving(id)
            .map_or_else(Vec::new, |d| d.encode_frame(msg))
    }

    /// Handles a message arriving from an attached client (see
    /// [`Delivery::handle_message`]; input is the window system's, not
    /// the session's), answering what needs the screen from `screen`: a
    /// refresh request with a [resync](Self::resync_client), a resume
    /// token with a warm or cold resume.
    pub fn handle_message(&mut self, id: ClientId, msg: &Message, screen: &Framebuffer) {
        let (now, budget) = (self.now, self.cache_budget);
        let Some(d) = self.serving(id) else {
            return;
        };
        match d.handle_message(msg, now, budget) {
            Uplink::Done => {}
            Uplink::Resync => d.resync(screen, now),
            Uplink::Resume {
                session_id,
                client_id,
                last_seq,
                store_digest,
            } => {
                let named = session_id == self.session_id && client_id == id.0;
                self.resume(id, named.then_some((last_seq, store_digest)), screen);
            }
        }
    }

    /// Answers a redialing client's resume token against the live
    /// screen; `token` is its `(last_seq, store_digest)` when it names
    /// this session and this client.
    ///
    /// Warm resume (token matches: right session, right client, cache
    /// ledger digest equal to the client's store digest) ships only
    /// the delta between the checkpointed screen digests and `screen`
    /// — the client's framebuffer and content store are trusted
    /// as-is. Anything else restarts the client cold
    /// ([`Delivery::restart_cold`]): the path a brand-new attach takes,
    /// so a stale or corrupted token can never do worse than a cold
    /// reconnect.
    fn resume(&mut self, id: ClientId, token: Option<(u32, u64)>, screen: &Framebuffer) {
        let (now, hello) = (self.now, self.hello());
        let delta = match &self.restored_tiles {
            Some(t) => t.delta(&TileDigests::of(screen)),
            None => Region::new(),
        };
        let Some(d) = self.serving(id) else {
            return;
        };
        let warm = match token {
            Some((last_seq, store_digest)) => d.resume(last_seq, store_digest, hello, now),
            None => {
                d.restart_cold(hello, now);
                false
            }
        };
        if warm && d.scale().is_identity() {
            // Only the changed tiles are requeued.
            d.owe_region(&delta);
        } else if warm && !delta.is_empty() {
            // A scaled client resamples whole views; re-rendering the
            // full view is both simpler and still far cheaper than a
            // cold restart (no cache reset, no pending-state drop).
            d.owe_refresh();
        }
        d.repay(screen);
    }
}

/// The framer of a freshly attached or restored member: attaching is
/// the handshake, made out of band at this build's revision (a
/// viewer's `ClientHello` renegotiates it).
fn member_framer() -> FrameEncoder {
    FrameEncoder::with_revision(PROTOCOL_VERSION)
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
        // Video bypasses the display buffer ordering: the frame is
        // resampled once per distinct viewport scale, and each
        // client's own stream manager queues a reference to its
        // scale's payload on its A/V queue.
        let ts = self.now.as_micros();
        let mut payloads: HashMap<VideoScale, VideoPayload> = HashMap::new();
        for (_, m) in self.clients.iter_mut().filter(|(_, m)| !m.quarantined) {
            let scale = m.delivery.video_scale();
            let payload = payloads.entry(scale).or_insert_with(|| VideoPayload::new(frame, scale));
            m.delivery.display_video_payload(payload, dst, ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degradation::DegradationLevel;
    use crate::fixtures::checkpointable_session;

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
        s.set_time(secs(3.0));
        s.handle_message(
            owner,
            &Message::CursorMove { x: 1, y: 1 },
            &Framebuffer::new(64, 64, PixelFormat::Rgb888),
        );
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
    }

    /// Every client's delivery statistics — among them who fed the
    /// codec (`codec_input_bytes`) and who was spared it.
    fn buffer_stats(s: &SharedSession) -> Vec<crate::buffer::BufferStats> {
        s.client_ids().iter().map(|&id| s.viewer(id).unwrap().buffer().stats()).collect()
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
        assert_eq!(s.viewer(owner).unwrap().degradation_level(), DegradationLevel::Full);
        assert_eq!(s.viewer(peer).unwrap().degradation_level(), DegradationLevel::Survival);
        let m = s.viewer(peer).unwrap().resilience_metrics();
        assert_eq!(m.degrade_steps(), 3);
        assert_eq!(m.max_degradation_level(), 3);
        assert_eq!(s.viewer(owner).unwrap().resilience_metrics().degrade_steps(), 0);

        // The window clears: three clear epochs climb back to Full.
        for i in 0..3 {
            let out = s.flush_all(secs(1.5 + 0.1 * i as f64), &mut links);
            collect(out, &mut streams);
        }
        assert_eq!(s.viewer(peer).unwrap().degradation_level(), DegradationLevel::Full);
        assert_eq!(s.viewer(peer).unwrap().resilience_metrics().promote_steps(), 3);

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
        let (a, fa, _, sa) = run_degradation_scenario(1);
        let (b, fb, _, sb) = run_degradation_scenario(4);
        assert_eq!(a, b, "message streams identical for any worker count");
        assert_eq!(fa, fb);
        assert_eq!(buffer_stats(&sa), buffer_stats(&sb), "who pays the codec is not a race");
    }

    #[test]
    fn ladder_tightens_the_bound_and_evicts_raw_first_on_the_shared_path() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::fault::FaultPlan;
        use thinc_net::link::NetworkConfig;
        use thinc_net::time::SimDuration;

        const BOUND: u64 = 12 * 1024;
        for workers in [1, 4] {
            let mut s = SharedSession::new(256, 256, PixelFormat::Rgb888, "host")
                .with_buffer_bound(BOUND)
                .with_degradation(DegradationConfig {
                    degrade_after: 1,
                    promote_after: 100,
                    max_level: DegradationLevel::Degraded,
                    ..DegradationConfig::default()
                })
                .with_workers(workers);
            let id = s
                .attach(&Credentials::Owner { user: "host".into() }, 256, 256)
                .unwrap();
            let mut store = DrawableStore::new(256, 256, PixelFormat::Rgb888);
            let plan =
                FaultPlan::seeded(7).with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
            let mut links = vec![(
                NetworkConfig::lan_desktop().with_faults(plan).connect().down,
                PacketTrace::new(),
            )];
            for t in [100_000, 200_000] {
                let _ = s.flush_all(SimTime(t), &mut links);
            }
            assert_eq!(s.viewer(id).unwrap().degradation_level(), DegradationLevel::Degraded);
            assert_eq!(s.viewer(id).unwrap().buffer().effective_byte_bound(), Some(BOUND / 2));

            // At a quarter of the session's size, a small fill and then
            // three 28x28 noise tiles of 2.3 KB each: the third overflows
            // the 6 KB bound. RAW-first eviction sheds the oldest tile and
            // keeps the fill; oldest-first would shed the fill and then
            // the tile.
            let fill = Rect::new(0, 0, 16, 16);
            store.screen_mut().fill_rect(&fill, Color::rgb(1, 2, 3));
            s.solid_fill(&store, SCREEN, fill, Color::rgb(1, 2, 3));
            for (i, (tx, ty)) in [(136, 0), (0, 136), (136, 136)].into_iter().enumerate() {
                let noise = crate::fixtures::noise(112 * 112 * 3, 7 + i as u32);
                let rect = Rect::new(tx, ty, 112, 112);
                store.screen_mut().put_raw(&rect, &noise);
                s.put_image(&store, SCREEN, rect, &noise);
            }
            assert!(s.viewer(id).unwrap().resilience_metrics().overflow_evictions() > 0);
            assert!(s.viewer(id).unwrap().buffer().pending_bytes() <= BOUND / 2);
            let mut clean = (NetworkConfig::lan_desktop().connect().down, PacketTrace::new());
            let sent = s.flush_client(id, SimTime(300_000), &mut clean.0, &mut clean.1);
            assert!(
                sent.iter()
                    .any(|(_, m)| matches!(m, Message::Display(DisplayCommand::Sfill { .. }))),
                "workers={workers}: the compact fill must outlive the RAW tiles"
            );
        }
    }

    #[test]
    fn stale_video_is_dropped_behind_a_blocked_pipe_and_the_rest_leaves_in_order() {
        use thinc_net::tcp::TcpParams;
        use thinc_raster::YuvFormat;

        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host")
            .with_liveness(LivenessConfig::default());
        let id = s
            .attach(&Credentials::Owner { user: "host".into() }, 64, 64)
            .unwrap();
        let store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let frame = YuvFrame::new(YuvFormat::Yv12, 32, 32);
        // Queue: VideoInit, VideoData@0, Ping, VideoData@6s.
        s.video_display(&store, &frame, Rect::new(0, 0, 32, 32));
        let t = SimTime(6_000_000);
        assert!(matches!(
            s.poll_client_liveness(id, t),
            LivenessVerdict::SendPing { .. }
        ));
        s.set_time(t);
        s.video_display(&store, &frame, Rect::new(0, 0, 32, 32));
        // A socket buffer that takes the control messages but never a
        // whole frame: the frame stamped six seconds ago is stale and
        // goes; the fresh one waits its turn, and nothing overtakes it.
        let mut pipe = TcpPipe::new(TcpParams {
            sndbuf_bytes: 512,
            ..TcpParams::default()
        });
        let mut trace = PacketTrace::new();
        let sent = s.flush_client(id, SimTime(t.0 + 1), &mut pipe, &mut trace);
        assert!(
            matches!(
                sent.iter().map(|(_, m)| m).collect::<Vec<_>>()[..],
                [Message::VideoInit { .. }, Message::Ping { .. }]
            ),
            "{sent:?}"
        );
        assert_eq!(s.viewer(id).unwrap().resilience_metrics().stale_video_dropped(), 1);
        // A roomier pipe lets the fresh frame out.
        let mut pipe = TcpPipe::new(TcpParams::default());
        let sent = s.flush_client(id, SimTime(t.0 + 2), &mut pipe, &mut trace);
        assert!(matches!(sent[0].1, Message::VideoData { timestamp_us: 6_000_000, .. }));
        // Every kind is traced under its own tag and counted.
        for tag in ["video", "control"] {
            assert!(trace.records().iter().any(|p| p.tag == tag), "no {tag} packet");
        }
        let wire = s.viewer(id).unwrap().protocol_metrics();
        assert_eq!(wire.count(thinc_telemetry::CommandKind::Video), 2);
    }

    #[test]
    fn viewers_at_one_scale_queue_one_video_payload() {
        use crate::video::VideoStreamManager;
        use thinc_net::tcp::TcpParams;
        use thinc_raster::YuvFormat;

        // Two full-size viewers and one at half size, two frames.
        let run = |workers: usize| {
            let mut s =
                SharedSession::new(64, 64, PixelFormat::Rgb888, "host").with_workers(workers);
            s.auth_mut().enable_sharing("pw");
            s.attach(&Credentials::Owner { user: "host".into() }, 64, 64).unwrap();
            for (user, side) in [("full", 64), ("half", 32)] {
                let peer = Credentials::Peer { user: user.into(), password: "pw".into() };
                s.attach(&peer, side, side).unwrap();
            }
            let store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
            for frame in frames() {
                s.video_display(&store, &frame, Rect::new(8, 8, 48, 48));
            }
            let mut links: Vec<_> = (0..3)
                .map(|_| (TcpPipe::new(TcpParams::default()), PacketTrace::new()))
                .collect();
            s.flush_all(SimTime(1), &mut links)
        };
        fn frames() -> [YuvFrame; 2] {
            [3u8, 5].map(|step| {
                let len = YuvFormat::Yv12.frame_size(32, 32);
                let planes = (0..len).map(|i| (i as u8).wrapping_mul(step)).collect();
                YuvFrame::from_data(YuvFormat::Yv12, 32, 32, planes)
            })
        }
        let out = run(1);
        let payloads = |viewer: usize| -> Vec<&thinc_protocol::Bytes> {
            let frames = out[viewer].1.iter().filter_map(|(_, m)| match m {
                Message::VideoData { data, .. } => Some(data),
                _ => None,
            });
            frames.collect()
        };
        let (owner, full, half) = (payloads(0), payloads(1), payloads(2));
        assert_eq!((owner.len(), full.len(), half.len()), (2, 2, 2));
        for i in 0..2 {
            assert!(owner[i].ptr_eq(full[i]), "one allocation per full-size frame");
            assert!(!owner[i].ptr_eq(half[i]) && half[i].len() < owner[i].len());
        }
        // Each viewer's stream is what a stream manager of its own,
        // resampling its own copy of every frame, would have sent.
        for (viewer, scaled) in [(0, false), (1, false), (2, true)] {
            let mut own = VideoStreamManager::new();
            if scaled {
                own.set_scale(32, 64, 32, 64);
            }
            let want: Vec<Message> = frames()
                .iter()
                .flat_map(|f| own.display_frame(f, Rect::new(8, 8, 48, 48), 0))
                .collect();
            let got: Vec<Message> = out[viewer].1.iter().map(|(_, m)| m.clone()).collect();
            assert_eq!(got, want, "viewer {viewer}");
        }
        for workers in [2, 4] {
            assert_eq!(run(workers), out, "workers={workers}");
        }
    }

    #[test]
    fn poisoned_flush_quarantines_only_that_client() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        // Three viewers of one class, so the lowest id leads the flush
        // plan the other two follow. Returns their streams and the
        // session.
        let run = |workers: usize, victim: Option<u32>| {
            let mut s =
                SharedSession::new(64, 64, PixelFormat::Rgb888, "host").with_workers(workers);
            s.auth_mut().enable_sharing("pw");
            s.attach(&Credentials::Owner { user: "host".into() }, 64, 64).unwrap();
            for user in ["guest", "other"] {
                let creds = Credentials::Peer { user: user.into(), password: "pw".into() };
                s.attach(&creds, 64, 64).unwrap();
            }
            let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
            let mut links: Vec<_> = (0..3)
                .map(|_| (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()))
                .collect();
            store
                .screen_mut()
                .fill_rect(&Rect::new(0, 0, 64, 64), Color::rgb(10, 20, 30));
            s.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 64), Color::rgb(10, 20, 30));
            let tile = crate::fixtures::noise(32 * 32 * 3, 5);
            store.screen_mut().put_raw(&Rect::new(8, 8, 32, 32), &tile);
            s.put_image(&store, SCREEN, Rect::new(8, 8, 32, 32), &tile);
            if let Some(victim) = victim {
                s.poison_next_flush(ClientId(victim));
            }
            let mut streams = vec![Vec::new(); 3];
            for i in 0..20u64 {
                for (id, msgs) in s.flush_all(SimTime((i + 1) * 100_000), &mut links) {
                    streams[id.0 as usize].extend(msgs.into_iter().map(|(_, m)| m));
                }
                if s.client_ids().iter().all(|&id| s.client_quarantined(id) || s.backlog(id) == 0) {
                    break;
                }
            }
            (streams, s, store.screen().data().to_vec())
        };
        crate::parallel::silence_panics(|| {
            for workers in [1, 4] {
                let (clean, _, _) = run(workers, None);
                // A follower of the class's plan, then its leader: a
                // leader that panics publishes nothing, and its
                // followers must flush what they would have anyway.
                for victim in [1, 0] {
                    let (streams, s, screen) = run(workers, Some(victim));
                    assert_eq!(s.quarantined_count(), 1);
                    for (i, stream) in streams.iter().enumerate() {
                        let id = ClientId(i as u32);
                        let panics = s.viewer(id).unwrap().resilience_metrics().panics_quarantined();
                        if id.0 == victim {
                            assert!(s.client_quarantined(id), "workers={workers}");
                            assert!(stream.is_empty(), "quarantined client delivers nothing");
                            assert_eq!(panics, 1);
                            continue;
                        }
                        assert!(!s.client_quarantined(id));
                        assert_eq!(panics, 0);
                        assert_eq!(stream, &clean[i], "workers={workers} victim={victim} viewer={i}");
                        // The session kept serving: the healthy
                        // clients converge byte-exact.
                        let mut client =
                            thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
                        for m in stream {
                            client.apply(m);
                        }
                        assert_eq!(client.framebuffer().data(), &screen[..]);
                    }
                }
            }
        });
    }

    /// Runs a two-client cached session over clean links: the same
    /// tile is redrawn every round, so rounds after the first travel
    /// as cache references. Returns the per-client message streams,
    /// the per-client framebuffers after stream-layer resolution, the
    /// screen bytes, and the session itself.
    fn run_cache_scenario(workers: usize) -> ScenarioOutcome {
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
        // 3 KB: enough for the codec to be owed.
        let tile = vec![123u8; 32 * 32 * 3];
        for round in 0..3 {
            store
                .screen_mut()
                .put_raw(&Rect::new(0, 0, 32, 32), &tile);
            s.put_image(&store, SCREEN, Rect::new(0, 0, 32, 32), &tile);
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
        (streams, fbs, store.screen().data().to_vec(), s)
    }

    #[test]
    fn cached_session_substitutes_refs_and_converges_byte_exact() {
        let (streams, fbs, screen, _) = run_cache_scenario(1);
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
        let (a, fa, _, sa) = run_cache_scenario(1);
        let (b, fb, _, sb) = run_cache_scenario(4);
        assert_eq!(a, b, "cached streams identical for any worker count");
        assert_eq!(fa, fb);
        // The lowest id pays for the tile's one encode, whichever
        // worker would have reached the plane slot first.
        let stats = buffer_stats(&sa);
        assert_eq!(stats, buffer_stats(&sb), "who pays the codec is not a race");
        assert!(stats[0].codec_input_bytes > 0 && stats[1].codec_input_bytes == 0, "{stats:?}");
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
        s.handle_message(id, &Message::CacheMiss { hash }, store.screen());
        assert!(!s.viewer(id).unwrap().refresh_owed());
        let (pipe, trace) = &mut links[0];
        let out = s.flush_client(id, secs(2.0), pipe, trace);
        let resent = &out[0].1;
        assert_eq!(
            thinc_protocol::wire::encode_message(resent),
            thinc_protocol::wire::encode_message(cached),
            "fallback must be byte-exact"
        );
        // A miss for an unknown hash cannot be satisfied: the client
        // skipped an update and is owed the full view.
        s.handle_message(id, &Message::CacheMiss { hash: 0xDEAD_BEEF }, store.screen());
        assert!(s.viewer(id).unwrap().refresh_owed());
        let m = s.viewer(id).unwrap().resilience_metrics();
        assert_eq!(m.cache_misses(), 2);
    }

    // ---- checkpoint / restore / warm failover ----

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
            assert_eq!(restored.viewer(id).unwrap().buffer().pending_bytes(), s.viewer(id).unwrap().buffer().pending_bytes());
            assert_eq!(restored.viewer(id).unwrap().buffer().cache_keys(), s.viewer(id).unwrap().buffer().cache_keys());
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
        let digest_before = crate::checkpoint::cache_digest(&s.viewer(owner).unwrap().buffer().cache_keys());
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
        let token = |session_id, client: ClientId, store_digest| Message::SessionResume {
            session_id,
            client_id: client.0,
            last_seq: 7,
            store_digest,
        };
        restored.handle_message(owner, &token(sid, owner, digest_before), store.screen());
        let warm = restored.viewer(owner).unwrap();
        assert_eq!(warm.resilience_metrics().resumes(), 1, "warm resume is counted");
        assert_eq!(warm.encoder().next_seq(), 8, "the stream continues after the token's frame");
        assert!(!warm.buffer().is_empty(), "screen changed while down");
        assert!(
            warm.buffer().pending_bytes() < 64 * 48 * 3,
            "the delta covers the changed band (plus the still-undelivered backlog), \
             not the whole screen"
        );

        // A stale token (store digest mismatch) falls back cold: cache
        // reset on the server side, hello first on a restarted framer,
        // full view owed, counted. So does one naming another session
        // or another client.
        let guest = restored.client_ids()[1];
        for (n, stale) in [token(sid, guest, 0xBAD), token(sid ^ 1, guest, 0), token(sid, owner, 0)]
            .iter()
            .enumerate()
        {
            restored.handle_message(guest, stale, store.screen());
            let cold = restored.viewer(guest).unwrap();
            assert!(cold.buffer().cache_keys().is_empty(), "ledger reset");
            assert_eq!(cold.resilience_metrics().cold_fallbacks(), n as u64 + 1);
            assert_eq!(cold.encoder().next_seq(), 0);
        }
        // A token from a client that is not attached touches nothing.
        restored.handle_message(ClientId(999), &token(sid, ClientId(999), 0), store.screen());
        assert_eq!(restored.viewer(owner).unwrap().resilience_metrics().cold_fallbacks(), 0);

        // Both clients converge byte-exact after the failover; the
        // warm client's bill is a fraction of the cold one's.
        let guest_seen = delivered[1].len();
        let warm_before = restored.viewer(owner).unwrap().buffer().stats().sent_bytes;
        let cold_before = restored.viewer(guest).unwrap().buffer().stats().sent_bytes;
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
        assert!(
            matches!(delivered[1][guest_seen], Message::ServerHello { .. }),
            "a refused token is answered hello first"
        );
        let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
        for m in &delivered[0] {
            sc.feed(&thinc_protocol::wire::encode_message(m));
        }
        assert_eq!(
            sc.client().framebuffer().data(),
            store.screen().data(),
            "warm-resumed client converges byte-exact"
        );
        let warm_bytes = restored.viewer(owner).unwrap().buffer().stats().sent_bytes - warm_before;
        let cold_bytes = restored.viewer(guest).unwrap().buffer().stats().sent_bytes - cold_before;
        assert!(
            warm_bytes < cold_bytes,
            "warm resume ({warm_bytes} B to a 64x64 viewport) must undercut \
             cold reconnect ({cold_bytes} B to a 32x32 viewport)"
        );
    }
}
