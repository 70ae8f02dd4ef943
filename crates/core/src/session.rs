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
//! commands fan out to each client's [`Delivery`] with per-client
//! viewport scaling, so a PDA peer can watch a desktop host's session.
//! It is the crate's one façade: the session's state — the translator,
//! the input that marks updates real-time, the cursor shape, the
//! speaker, the clock, the checkpoint writer and the uplink rules — is
//! written here once, and a single-client server is a session of one
//! viewer ([`ServerConfig::session`](crate::server::ServerConfig::session)).
//!
//! Per-client work (command scaling, buffering, flush-time RAW
//! compression) runs on the caller's thread, one client after another
//! in client-id order. The paper's server is one single-threaded X
//! server per display, and capacity comes from more sessions per core,
//! not threads inside one (`docs/PERFORMANCE.md`, "One thread per
//! session"). A panic in one client's flush is contained to that
//! client, which is quarantined.

use std::collections::HashMap;
use std::ops::Range;

use thinc_display::drawable::{DrawableId, DrawableStore};
use thinc_display::driver::VideoDriver;
use thinc_display::input::{InputEvent, InputTracker};
use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::codec::{to_bytes, Field};
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::{record, PROTOCOL_VERSION};
use thinc_raster::{Color, Framebuffer, PixelFormat, Point, Rect, YuvFrame};

use crate::audio::VirtualAudioDriver;
use crate::buffer::ClientBuffer;
use crate::checkpoint::{CheckpointError, Framed, TileDigests};
use crate::degradation::DegradationConfig;
use crate::delivery::{ClientRecord, Delivery, DeliveryPolicy, Phase, Rendition};
use crate::liveness::{LivenessConfig, LivenessVerdict};
use crate::plane::{FormStore, PlanRole, PlaneCounters, WirePlane};
use crate::scaling::ScalePolicy;
use crate::translator::{Translator, TranslatorStats};
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
/// [`SharedSession::flush_all`].
pub type FlushOutput = Vec<(ClientId, Vec<(SimTime, Message)>)>;

/// One attached client: its delivery pipeline plus what only a shared
/// session tracks about it.
struct Member {
    user: String,
    delivery: Delivery,
    /// Test/chaos hook: the next flush of this client panics
    /// deliberately, exercising the quarantine path.
    poison_flush: bool,
}

impl Member {
    fn new(user: String, delivery: Delivery) -> Self {
        Self { user, delivery, poison_flush: false }
    }

    /// One member's part in a flush round, borrowed one member at a
    /// time so the round need not hold the session: the first half of
    /// the flush, then the member's role in the round's `plans` (none
    /// in a round of one: nobody to share with), then the rest against
    /// the session's form store.
    fn flush(
        &mut self,
        now: SimTime,
        link: (&mut TcpPipe, &mut PacketTrace),
        plans: Option<&mut WirePlane>,
        store: &mut FormStore,
        counters: &mut PlaneCounters,
    ) -> Vec<(SimTime, Message)> {
        if self.delivery.quarantined() {
            return Vec::new();
        }
        let (pipe, trace) = link;
        self.delivery.begin_flush(now, pipe);
        let role = plans.map_or(PlanRole::Alone, |plans| plans.resolve(self.delivery.buffer(), now));
        if self.poison_flush {
            self.poison_flush = false;
            panic!("injected poison: client flush panicked");
        }
        self.delivery.flush_begun(now, pipe, trace, store, counters, &role)
    }
}

/// What an uplink message meant, as the one uplink match decided it (see
/// [`SharedSession::handle_message`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heard {
    /// Nothing for the caller: handled, not a message the session acts
    /// on, or from a viewer it does not serve.
    Handled,
    /// Input, as the window-system event to forward.
    Input(InputEvent),
    /// The viewer asked for the full view (its reconnect policy, or a
    /// redial that could present no token): a holder of the screen
    /// answers with a [resync](SharedSession::resync_client).
    Resync,
    /// A redial's token was judged, `warm` or cold; what it owes is
    /// repaid by the next call with the screen in hand.
    Resumed {
        /// The token named this session and this viewer, and its store
        /// mirrors the ledger.
        warm: bool,
    },
}

/// One display session shared by any number of authenticated clients.
///
/// Implements [`VideoDriver`], so it attaches below a window server
/// and fans every translated command out to each client's
/// [`Delivery`], scaled to that client's viewport.
pub struct SharedSession {
    format: PixelFormat,
    auth: SessionAuth,
    translator: Translator,
    /// Where the latest input from any viewer landed: commands drawn
    /// near it answer the user and go to the real-time queue (§5).
    input: InputTracker,
    /// Last installed cursor image, sent to every viewer on attach,
    /// resync and cold restart.
    cursor_shape: Option<Message>,
    /// The virtual audio device: one screen, one speaker. What it
    /// packetizes goes to every viewer attached at the time.
    audio: Option<VirtualAudioDriver>,
    /// Attached clients in strictly ascending id (= attach) order: ids
    /// come from `next_client`, which only grows, and `restore` rejects
    /// an image that breaks the order. Iteration order is the flush
    /// order; lookups binary-search it.
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
    /// What every viewer's flush found out about content, for every
    /// other's (see [`crate::plane`]): trimmed to `cache_budget` when a
    /// round ends, or without one to the product's default budget.
    forms: FormStore,
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
            .finish_non_exhaustive()
    }
}

record! {
    /// A session's checkpoint image: everything
    /// [`checkpoint`](SharedSession::checkpoint) captures, in wire order.
    pub(crate) struct SessionRecord {
        width: u32,
        height: u32,
        format: PixelFormat,
        session_id: u64,
        owner: String,
        password: Option<String>,
        next_client: u32,
        now: u64,
        av_bound: Option<u64>,
        /// The liveness timeout, then the ping interval.
        liveness: Option<[u64; 2]>,
        degradation: Option<DegradationConfig>,
        buffer_bound: Option<u64>,
        cache_budget: Option<u64>,
        offscreen: bool,
        cursor_shape: Option<Framed>,
        tiles: TileDigests,
        clients: Vec<MemberRecord>,
    }
}

record! {
    /// One viewer on the roster: its id and user, then its record.
    pub(crate) struct MemberRecord {
        id: u32,
        user: String,
        client: ClientRecord,
    }
}

impl SharedSession {
    /// Creates a session of the given geometry owned by `owner`.
    pub fn new(width: u32, height: u32, format: PixelFormat, owner: &str) -> Self {
        Self {
            format,
            auth: SessionAuth::new(owner),
            translator: Translator::new(),
            input: InputTracker::new(),
            cursor_shape: None,
            audio: None,
            clients: Vec::new(),
            next_client: 0,
            now: SimTime::ZERO,
            policy: DeliveryPolicy::new(width, height),
            buffer_bound: None,
            cache_budget: None,
            forms: FormStore::default(),
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
    /// link telemetry at flush time — a struggling PDA peer degrades
    /// without touching the desktop owner's fidelity.
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

    /// Returns the session unchanged; the argument is ignored. A
    /// session runs on its caller's thread. The method remains because
    /// the benchmark harness (`benchmark/src/fanout.rs`) calls it.
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Delivers every client attached from now on under `policy`, and
    /// translates with or without offscreen awareness — the knobs a
    /// [`ServerConfig`](crate::server::ServerConfig) carries beyond
    /// the public builders.
    pub(crate) fn with_policy(mut self, policy: DeliveryPolicy, offscreen_awareness: bool) -> Self {
        self.policy = policy;
        self.translator = Translator::with_offscreen_awareness(offscreen_awareness);
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
    pub(crate) fn serving(&mut self, id: ClientId) -> Option<&mut Delivery> {
        self.member_mut(id).map(|m| &mut m.delivery).filter(|d| !d.quarantined())
    }

    /// Translation-layer counters.
    pub fn translator_stats(&self) -> TranslatorStats {
        self.translator.stats()
    }

    /// The authentication policy (enable/disable sharing here).
    pub fn auth_mut(&mut self) -> &mut SessionAuth {
        &mut self.auth
    }

    /// Advances the virtual clock: it stamps video frames, and every
    /// viewer's buffer stamps the commands queued from now on, so
    /// enqueue-to-wire latency is measured from the draw.
    pub fn set_time(&mut self, now: SimTime) {
        self.now = now;
        for (_, m) in &mut self.clients {
            m.delivery.set_time(now);
        }
    }

    /// Attaches a client with a viewport, after authentication.
    pub fn attach(
        &mut self,
        creds: &Credentials,
        viewport_w: u32,
        viewport_h: u32,
    ) -> Result<ClientId, AuthError> {
        self.auth.authenticate(creds)?;
        let user = match creds {
            Credentials::Owner { user } | Credentials::Peer { user, .. } => user.clone(),
        };
        let id = self.join(user, viewport_w, viewport_h);
        // A fresh attach owes the full view: the client's framebuffer
        // starts empty.
        if let Some(d) = self.serving(id) {
            d.owe_refresh();
        }
        Ok(id)
    }

    /// Adds a client without authentication and without owing it the
    /// full view: attaching is the handshake (framer at this build's
    /// revision, the ledger on when the session is budgeted), the
    /// buffer clock starts at the session's, and the cursor shape is
    /// queued.
    pub(crate) fn join(&mut self, user: String, viewport_w: u32, viewport_h: u32) -> ClientId {
        let id = ClientId(self.next_client);
        self.next_client += 1;
        let mut buffer = ClientBuffer::new().with_raw_compression(self.format.bytes_per_pixel());
        if let Some(bound) = self.buffer_bound {
            buffer = buffer.with_byte_bound(bound);
        }
        if let Some(budget) = self.cache_budget {
            buffer.enable_cache(budget);
        }
        let mut delivery = Delivery::new(self.policy, buffer, self.now);
        delivery.set_time(self.now);
        delivery.set_viewport(viewport_w, viewport_h);
        delivery.queue_av(self.cursor_shape.clone());
        self.clients.push((id, Member::new(user, delivery)));
        id
    }

    /// Evaluates a client's liveness at `now`: a silent client gets a
    /// ping queued on its A/V channel; silence past the timeout marks
    /// it dead, until it reconnects or is [detached](Self::detach).
    /// Returns `Alive` for unknown clients or when liveness is
    /// disabled. The poll moves the session clock to `now`, and leaves
    /// the buffers' enqueue stamps alone: it is not a draw.
    pub fn poll_client_liveness(&mut self, id: ClientId, now: SimTime) -> LivenessVerdict {
        self.now = now;
        match self.member_mut(id).map(|m| &mut m.delivery) {
            None => LivenessVerdict::Alive,
            // A quarantined client cannot be served; report it dead
            // without queueing probes its flush would never carry.
            Some(d) if d.quarantined() => LivenessVerdict::Dead,
            Some(d) => d.poll_liveness(now),
        }
    }

    /// Whether a client has been declared dead.
    pub fn client_dead(&self, id: ClientId) -> bool {
        self.viewer(id).is_some_and(|d| d.is_dead())
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
    fn broadcast(&mut self, cmds: Vec<DisplayCommand>, screen: &Framebuffer) {
        struct Class {
            policy: ScalePolicy,
            refresh_wanted: bool,
            rendition: Option<Rendition>,
        }
        self.owe_restore_deltas(screen);
        // A roster of one is one class, rendered and pushed without the
        // class table: measured, the table's two allocations per draw
        // slowed a one-viewer server's flush on `winswitch` by ≈ 20 %
        // (docs/PERFORMANCE.md, "One façade").
        if let [(_, m)] = &mut self.clients[..] {
            if !m.delivery.quarantined() {
                let owed = m.delivery.begin_round(&cmds);
                let rendition = Rendition::render(&m.delivery.scale(), &cmds, screen, owed);
                let input = &self.input;
                m.delivery.push_rendition(&cmds, &rendition, screen, |dest| input.is_realtime(dest));
            }
            return;
        }
        let mut classes: Vec<Class> = Vec::new();
        let mut class_of: Vec<usize> = Vec::with_capacity(self.clients.len());
        for (_, m) in self.clients.iter_mut() {
            if m.delivery.quarantined() {
                class_of.push(usize::MAX);
                continue;
            }
            let owed = m.delivery.begin_round(&cmds);
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
        for class in &mut classes {
            class.rendition = Some(Rendition::render(&class.policy, &cmds, screen, class.refresh_wanted));
        }
        let input = &self.input;
        for ((_, m), &class) in self.clients.iter_mut().zip(&class_of) {
            if let Some(rendition) = classes.get(class).and_then(|c| c.rendition.as_ref()) {
                m.delivery.push_rendition(&cmds, rendition, screen, |dest| input.is_realtime(dest));
            }
        }
    }

    /// Works out the delta of every member that resumed warm since the
    /// last call (see [`Delivery::owe_delta`]): the tiles that changed
    /// on `screen` since the image this session was restored from.
    fn owe_restore_deltas(&mut self, screen: &Framebuffer) {
        let Some(tiles) = &self.restored_tiles else {
            return;
        };
        let mut delta = None;
        for (_, m) in &mut self.clients {
            if matches!(m.delivery.phase(), Phase::OwesDelta(_)) {
                let delta = delta.get_or_insert_with(|| tiles.delta(&TileDigests::of(screen)));
                m.delivery.owe_delta(delta);
            }
        }
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
    /// `Delivery::begin_resync`): the cursor shape again, then that
    /// client's (possibly stale) pending commands dropped and a
    /// full-view refresh queued from `screen`, stamped at the session
    /// clock — it is read off the screen now.
    pub fn resync_client(&mut self, id: ClientId, screen: &Framebuffer) {
        let (now, cursor) = (self.now, self.cursor_shape.clone());
        if let Some(d) = self.serving(id) {
            d.set_time(now);
            d.queue_av(cursor);
            d.begin_resync(now);
            d.repay(screen);
        }
    }

    /// Re-sends the current contents of a client's view as a (scaled)
    /// RAW update, e.g. to settle a zoom before the next draw: "the
    /// server updates are necessary when the display size increases,
    /// because the client has only a small-size version of the
    /// display" (§6).
    pub fn refresh_view(&mut self, id: ClientId, screen: &Framebuffer) {
        if let Some(d) = self.serving(id) {
            d.owe_refresh();
        }
        self.repay_refreshes(screen);
    }

    /// Installs the session cursor image and sends it to every viewer.
    /// Viewers composite it locally, so pointer motion costs a few
    /// bytes per event instead of display updates.
    pub fn set_cursor(&mut self, width: u32, height: u32, hot_x: i32, hot_y: i32, pixels: Vec<u8>) {
        let shape = Message::CursorShape { width, height, hot_x, hot_y, pixels };
        self.queue_av_all(std::slice::from_ref(&shape));
        self.cursor_shape = Some(shape);
    }

    /// Opens the virtual audio device, its clock starting at the
    /// session's.
    pub fn open_audio(&mut self, sample_rate: u32, channels: u32) {
        self.audio = Some(VirtualAudioDriver::new(sample_rate, channels, self.now.as_micros()));
    }

    /// Applications write PCM audio: every full packet queues for each
    /// viewer that can still be served (a viewer attached mid-stream
    /// hears what is packetized from then on).
    pub fn play_audio(&mut self, pcm: &[u8]) {
        if let Some(packets) = self.audio.as_mut().map(|drv| drv.write(pcm)) {
            self.queue_av_all(&packets);
        }
    }

    /// Closes the audio device, sending its buffered samples as a last
    /// short packet.
    pub fn close_audio(&mut self) {
        if let Some(last) = self.audio.take().and_then(|mut drv| drv.drain()) {
            self.queue_av_all(&[last]);
        }
    }

    /// Ends every viewer's video streams (session teardown).
    pub fn end_video(&mut self) {
        for (_, m) in self.clients.iter_mut().filter(|(_, m)| !m.delivery.quarantined()) {
            m.delivery.end_video();
        }
    }

    /// Queues `msgs` on the A/V queue of every viewer that can still be
    /// served.
    fn queue_av_all(&mut self, msgs: &[Message]) {
        for (_, m) in self.clients.iter_mut().filter(|(_, m)| !m.delivery.quarantined()) {
            m.delivery.queue_av(msgs.iter().cloned());
        }
    }

    /// Flushes one client's buffer over its own connection: a
    /// [round](Self::flush_all) of one, which shares no plan. Like every
    /// round it moves the session clock to `now` and leaves the
    /// buffers' enqueue stamps alone (it is not a draw), contains a
    /// panic to the client, which is quarantined, and adds its plane
    /// counters to [`fanout_counters`](Self::fanout_counters). An
    /// unknown client sends nothing.
    pub fn flush_client(
        &mut self,
        id: ClientId,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        let members = match self.clients.binary_search_by_key(&id, |(cid, _)| *cid) {
            Ok(at) => at..at + 1,
            Err(_) => 0..0,
        };
        self.round(now, members, [(pipe, trace)]).pop().map_or_else(Vec::new, |(_, msgs)| msgs)
    }

    /// Flushes **every** client's buffer, each over its own
    /// connection, as one round against the session's form store:
    /// identical payloads across clients are compressed and framed a
    /// single time, and clients whose buffers are in the same state
    /// flush once between them (see [`crate::plane`]).
    ///
    /// Members flush one after another in id order. Each first lets its
    /// ladder and A/V bound have their say, then asks the round's plans
    /// whether an earlier member started from the same buffer state: if
    /// so it follows that member's plan, if not it leads a plan of its
    /// own. So the leader is the lowest id in its state, and with it who
    /// pays the codec (`codec_input_bytes`) and who skips it, and a
    /// leader has published its plan before a follower reads it. The
    /// round moves the session clock to `now`; a panic is contained to
    /// its member, which is quarantined.
    ///
    /// `links[i]` is the `(pipe, trace)` pair of the i-th attached
    /// client — the same order as attach/[`ClientId`] order, and the
    /// order of the result. The round's plane counters accumulate into
    /// [`fanout_counters`](Self::fanout_counters).
    ///
    /// # Panics
    ///
    /// Panics if `links.len()` differs from
    /// [`client_count`](Self::client_count).
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
        self.round(now, 0..self.clients.len(), links.iter_mut().map(|(pipe, trace)| (pipe, trace)))
    }

    /// The flush round, written once for both doors: the `members` in
    /// id order, each over its link (resolving no plan in a round of
    /// one), and then the form store's end of round.
    fn round<'l>(
        &mut self,
        now: SimTime,
        members: Range<usize>,
        links: impl IntoIterator<Item = (&'l mut TcpPipe, &'l mut PacketTrace)>,
    ) -> FlushOutput {
        self.now = now;
        let mut plans = (members.len() > 1).then(WirePlane::default);
        let mut out = Vec::with_capacity(members.len());
        for ((id, m), link) in self.clients[members].iter_mut().zip(links) {
            let mut counters = PlaneCounters::default();
            let flushed = contain(|| m.flush(now, link, plans.as_mut(), &mut self.forms, &mut counters));
            // Panic containment: a client whose flush panicked is
            // quarantined — its partial output and counts are
            // discarded, the panic is counted in its resilience metrics,
            // and every other client's output is delivered untouched.
            let msgs = match flushed {
                Some(msgs) => {
                    self.fanout.merge(&counters);
                    msgs
                }
                None => {
                    m.delivery.quarantine();
                    m.delivery.resilience_mut().record_panic_quarantined();
                    Vec::new()
                }
            };
            out.push((*id, msgs));
        }
        self.forms.end_round(self.cache_budget);
        out
    }

    /// Cumulative encode-once plane counters over every flush round
    /// so far (shared sends, amortized bytes, actual encodes).
    pub fn fanout_counters(&self) -> PlaneCounters {
        self.fanout
    }

    /// Applies a client's viewport change mid-session (window resize,
    /// device switch). The device may be a new one with an empty
    /// framebuffer and content store, so — even at an unchanged scale —
    /// pending commands and the ledger go, and the client is owed a
    /// full-view refresh (settled by the next broadcast or
    /// [`repay_refreshes`](Self::repay_refreshes); see
    /// `Delivery::restart_display`). Counted as a resync in the
    /// client's resilience metrics.
    pub fn resize_client(&mut self, id: ClientId, viewport_w: u32, viewport_h: u32) {
        if let Some(d) = self.serving(id) {
            d.restart_display(viewport_w, viewport_h);
            d.resilience_mut().record_resync();
        }
    }

    /// Sets the content-cache budget (protocol revision 3) for every
    /// client attached from now on: each client buffer keeps a
    /// per-client ledger with this byte budget and substitutes
    /// [`Message::CacheRef`] for payloads that client already holds. A
    /// client whose hello announces an older revision cannot resolve
    /// references, and its ledger goes off. Already-attached clients
    /// keep their ledgers (the budget must stay in lockstep with each
    /// client's store for the eviction mirror to hold). `None` keeps
    /// the cache off for future attaches.
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
        self.viewer(id).is_some_and(Delivery::quarantined)
    }

    /// Number of currently quarantined clients.
    pub fn quarantined_count(&self) -> usize {
        self.clients.iter().filter(|(_, m)| m.delivery.quarantined()).count()
    }

    /// Test/chaos hook: arms a deliberate panic inside `id`'s next
    /// flush, exercising the quarantine path end to end.
    pub fn poison_next_flush(&mut self, id: ClientId) {
        if let Some(m) = self.member_mut(id) {
            m.poison_flush = true;
        }
    }

    /// The session's stable identity, as carried by resume tokens.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Serializes the full session — policy, cursor shape, every
    /// client's [`Delivery`] record, and per-tile digests of `screen` —
    /// into a versioned, CRC-guarded checkpoint image
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
    /// (offscreen drawings replay into fresh queues), the input halo,
    /// the audio device, the encode-once plane accounting, and what
    /// the delivery record itself leaves out (video stream internals,
    /// liveness trackers, telemetry).
    pub fn checkpoint(&self, screen: &Framebuffer) -> Vec<u8> {
        let live = self.clients.iter().filter(|(_, m)| !m.delivery.quarantined());
        let record = SessionRecord {
            width: self.policy.session.0,
            height: self.policy.session.1,
            format: self.format,
            session_id: self.session_id,
            owner: self.auth.owner.clone(),
            password: self.auth.session_password.clone(),
            next_client: self.next_client,
            now: self.now.0,
            av_bound: self.policy.av_bound.map(|n| n as u64),
            liveness: self.policy.liveness.map(|cfg| [cfg.timeout.0, cfg.ping_interval.0]),
            degradation: self.policy.degradation,
            buffer_bound: self.buffer_bound,
            cache_budget: self.cache_budget,
            offscreen: self.translator.offscreen_awareness(),
            cursor_shape: self.cursor_shape.clone().map(Framed),
            tiles: TileDigests::of(screen),
            clients: live
                .map(|(id, m)| MemberRecord { id: id.0, user: m.user.clone(), client: m.delivery.record() })
                .collect(),
        };
        crate::checkpoint::seal(to_bytes(&record))
    }

    /// Rebuilds a session from a [`checkpoint`](Self::checkpoint)
    /// image. Every corruption — bad magic, foreign version, any
    /// truncation or bit flip, malformed interior structure, trailing
    /// garbage — yields a typed error; nothing panics, and a failed
    /// restore leaves no partial state behind (the caller keeps its
    /// cold path).
    pub fn restore(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut payload = crate::checkpoint::open(bytes)?;
        let rec = SessionRecord::get(&mut payload)?;
        if !payload.is_empty() {
            return Err(CheckpointError::Malformed("trailing bytes after checkpoint"));
        }
        let policy = DeliveryPolicy {
            session: (rec.width, rec.height),
            av_bound: rec.av_bound.map(|n| n as usize),
            liveness: rec.liveness.map(|[timeout, ping_interval]| LivenessConfig {
                timeout: SimDuration(timeout),
                ping_interval: SimDuration(ping_interval),
            }),
            degradation: rec.degradation,
        };
        let now = SimTime(rec.now);
        let mut clients: Vec<(ClientId, Member)> = Vec::with_capacity(rec.clients.len());
        for member in rec.clients {
            let id = ClientId(member.id);
            // Lookups binary-search the roster, and the next attach
            // takes `next_client`: ids must ascend and stay below it.
            if clients.last().is_some_and(|(last, _)| *last >= id) || id.0 >= rec.next_client {
                return Err(CheckpointError::Malformed("client ids not ascending"));
            }
            let delivery = Delivery::from_record(member.client, policy, now)?;
            clients.push((id, Member::new(member.user, delivery)));
        }
        Ok(Self {
            format: rec.format,
            auth: SessionAuth { owner: rec.owner, session_password: rec.password },
            translator: Translator::with_offscreen_awareness(rec.offscreen),
            input: InputTracker::new(),
            cursor_shape: rec.cursor_shape.map(|shape| shape.0),
            audio: None,
            clients,
            next_client: rec.next_client,
            now,
            policy,
            buffer_bound: rec.buffer_bound,
            cache_budget: rec.cache_budget,
            forms: FormStore::default(),
            fanout: PlaneCounters::default(),
            session_id: rec.session_id,
            restored_tiles: Some(rec.tiles),
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

    /// Handles a message arriving from an attached client: `receive`,
    /// the one match that decides what it means (the server table of
    /// `docs/PROTOCOL.md` §3), then the answer to what needs the screen,
    /// from `screen` at once — a refresh request with a
    /// [resync](Self::resync_client), a resume token's verdict with what
    /// it owes.
    pub fn handle_message(&mut self, id: ClientId, msg: &Message, screen: &Framebuffer) -> Heard {
        let heard = self.receive(id, msg);
        match heard {
            Heard::Resync => self.resync_client(id, screen),
            Heard::Resumed { .. } => {
                self.owe_restore_deltas(screen);
                if let Some(d) = self.serving(id) {
                    d.repay(screen);
                }
            }
            Heard::Handled | Heard::Input(_) => {}
        }
        heard
    }

    /// What a message from viewer `id` means, and what it does —
    /// everything of the uplink protocol that needs no screen, one arm
    /// per row of the server half of the transition table
    /// (`docs/PROTOCOL.md` §3). A viewer the session does not serve (not
    /// attached, or quarantined) is not heard; from any other, traffic
    /// doubles as the heartbeat, a pong only when it answers the latest
    /// probe.
    ///
    /// - Input from any viewer moves the real-time region, and pointer
    ///   input echoes the cursor position to every viewer, so each
    ///   local overlay tracks the session pointer.
    /// - A resume token resumes warm when it names this session and this
    ///   viewer and its store digest equals the ledger's: the viewer's
    ///   framebuffer and content store are trusted as they are, and only
    ///   the tiles that changed since the image are owed. Anything else
    ///   restarts the viewer cold ([`Delivery::restart_cold`], then the
    ///   cursor shape): the path a brand-new attach takes, so a stale or
    ///   corrupted token can never do worse than a cold reconnect.
    pub(crate) fn receive(&mut self, id: ClientId, msg: &Message) -> Heard {
        let (now, budget, hello, cursor) =
            (self.now, self.cache_budget, self.hello(), self.cursor_shape.clone());
        let (session_id, restored) = (self.session_id, self.restored_tiles.is_some());
        let Some(d) = self.serving(id) else {
            return Heard::Handled;
        };
        d.heartbeat(msg, now);
        match *msg {
            Message::ClientHello { version, viewport_width, viewport_height } => {
                d.negotiate(version, (viewport_width, viewport_height), budget);
            }
            Message::Resize { viewport_width, viewport_height } => {
                d.set_viewport(viewport_width, viewport_height);
            }
            // Zoom (§6): `view` (session space) maps onto the viewport,
            // and the client is owed full-detail content for the newly
            // magnified region, sent with the next push.
            Message::SetView { view } => d.rescale(view),
            Message::CacheMiss { hash } => d.miss(hash),
            Message::RefreshRequest { .. } => return Heard::Resync,
            Message::SessionResume { session_id: sid, client_id, last_seq, store_digest }
                if sid == session_id && client_id == id.0 && thinc_protocol::store_digest(&d.buffer().cache_keys()) == store_digest =>
            {
                d.resume(last_seq, restored);
                return Heard::Resumed { warm: true };
            }
            Message::SessionResume { .. } => {
                d.restart_cold(hello, now);
                d.queue_av(cursor);
                return Heard::Resumed { warm: false };
            }
            Message::Input(input) => {
                let ev = input_event(input);
                self.input.observe(ev);
                if let InputEvent::PointerMove(p)
                | InputEvent::ButtonPress(p)
                | InputEvent::ButtonRelease(p) = ev
                {
                    for (_, m) in self.clients.iter_mut().filter(|(_, m)| !m.delivery.quarantined()) {
                        let (x, y) = m.delivery.scale().map_point(p.x, p.y);
                        m.delivery.queue_av([Message::CursorMove { x, y }]);
                    }
                }
                return Heard::Input(ev);
            }
            _ => {}
        }
        Heard::Handled
    }
}

/// The window-system event a viewer's input stands for.
fn input_event(input: ProtocolInput) -> InputEvent {
    match input {
        ProtocolInput::PointerMove { x, y } => InputEvent::PointerMove(Point::new(x, y)),
        ProtocolInput::ButtonPress { x, y, .. } => InputEvent::ButtonPress(Point::new(x, y)),
        ProtocolInput::ButtonRelease { x, y, .. } => InputEvent::ButtonRelease(Point::new(x, y)),
        ProtocolInput::KeyPress { key } | ProtocolInput::KeyRelease { key } => InputEvent::KeyPress(key),
    }
}

/// Runs `f`, containing a panic: `None` if it panicked. Whatever `f`
/// was mutating then is in an unspecified state, so the caller
/// quarantines the member it belongs to.
fn contain<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// The session identity folded into resume tokens: owner plus
/// geometry, so two sessions only collide when they are genuinely
/// interchangeable from the client's perspective.
fn compute_session_id(owner: &str, width: u32, height: u32, format: PixelFormat) -> u64 {
    let mut identity = owner.as_bytes().to_vec();
    width.put(&mut identity);
    height.put(&mut identity);
    format.put(&mut identity);
    thinc_protocol::hash::fnv64(&identity)
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
        for (_, m) in self.clients.iter_mut().filter(|(_, m)| !m.delivery.quarantined()) {
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

    /// Runs `f` with the default panic hook silenced, so deliberate
    /// contained panics don't spam stderr. Hook swaps are
    /// process-global, so a lock serializes the tests that use this.
    fn silence_panics<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::Mutex;
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(hook);
        r
    }

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
    fn silent_peer_is_pinged_then_declared_dead_while_active_owner_survives() {
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

    /// A session of `sides.len()` viewers sharing a 64x64 screen, the
    /// first the owner, each at its side's square viewport.
    fn viewers(sides: &[u32]) -> (SharedSession, Vec<ClientId>) {
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
        s.auth_mut().enable_sharing("pw");
        let ids = sides
            .iter()
            .enumerate()
            .map(|(i, &side)| {
                let creds = match i {
                    0 => Credentials::Owner { user: "host".into() },
                    _ => Credentials::Peer { user: format!("peer{i}"), password: "pw".into() },
                };
                s.attach(&creds, side, side).unwrap()
            })
            .collect();
        (s, ids)
    }

    /// Everything `id` can send now, over a roomy pipe.
    fn sent(s: &mut SharedSession, id: ClientId, now: SimTime) -> Vec<Message> {
        let mut pipe = TcpPipe::new(thinc_net::tcp::TcpParams::default());
        let out = s.flush_client(id, now, &mut pipe, &mut PacketTrace::new());
        out.into_iter().map(|(_, m)| m).collect()
    }

    #[test]
    fn audio_reaches_every_viewer_and_a_late_viewer_hears_what_follows() {
        use crate::audio::DEFAULT_PACKET_BYTES as PACKET;
        // The PCM bytes of every audio packet `id` is sent now.
        let heard = |s: &mut SharedSession, id| -> Vec<u8> {
            let msgs = sent(s, id, s.now);
            msgs.iter()
                .flat_map(|m| match m {
                    Message::Audio { data, .. } => data.to_vec(),
                    _ => Vec::new(),
                })
                .collect()
        };
        let (mut s, ids) = viewers(&[64, 32, 16]);
        s.open_audio(44_100, 2);
        s.play_audio(&vec![1; 2 * PACKET]);
        for &id in &ids {
            assert_eq!(heard(&mut s, id), vec![1; 2 * PACKET], "{id:?}");
        }
        let late = s
            .attach(&Credentials::Peer { user: "late".into(), password: "pw".into() }, 64, 64)
            .unwrap();
        s.play_audio(&vec![2; PACKET + 100]);
        s.close_audio();
        for id in ids.into_iter().chain([late]) {
            assert_eq!(heard(&mut s, id), vec![2; PACKET + 100], "{id:?}");
        }
    }

    #[test]
    fn a_viewers_flush_latency_is_measured_from_its_draw() {
        use thinc_display::drawable::SCREEN;
        // The owner attaches at t = 0 and the peer after the clock
        // moved to 1 s: both stamp the draw at 1 s, so a flush 1 ms
        // later reads 1 ms of queueing — not the time since zero.
        let (mut s, _) = viewers(&[64]);
        s.set_time(SimTime(1_000_000));
        s.auth_mut().enable_sharing("pw");
        s.attach(&Credentials::Peer { user: "late".into(), password: "pw".into() }, 64, 64)
            .unwrap();
        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let rect = Rect::new(8, 8, 16, 16);
        store.screen_mut().fill_rect(&rect, Color::rgb(1, 2, 3));
        s.solid_fill(&store, SCREEN, rect, Color::rgb(1, 2, 3));
        for id in s.client_ids() {
            assert!(!sent(&mut s, id, SimTime(1_001_000)).is_empty());
            let latency = s.viewer(id).unwrap().buffer().scheduler_metrics().flush_latency_us();
            assert_eq!(latency.max(), 1_000, "viewer {id:?}");
        }
    }

    #[test]
    fn a_hello_below_revision_3_turns_a_budgeted_ledger_off() {
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
        s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
        let id = s.attach(&Credentials::Owner { user: "host".into() }, 64, 64).unwrap();
        let cached = |s: &SharedSession| s.viewer(id).unwrap().buffer().cache_enabled();
        assert!(cached(&s), "attaching is the handshake");
        let screen = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        for (version, on) in [(2, false), (PROTOCOL_VERSION, true), (1, false)] {
            let hello = Message::ClientHello { version, viewport_width: 64, viewport_height: 64 };
            s.handle_message(id, &hello, &screen);
            assert_eq!(cached(&s), on, "a version-{version} hello");
            assert_eq!(s.viewer(id).unwrap().encoder().revision(), version);
        }
    }

    #[test]
    fn the_cursor_shape_reaches_every_viewer_again_on_resync() {
        let (mut s, ids) = viewers(&[64, 32]);
        let screen = Framebuffer::new(64, 64, PixelFormat::Rgb888);
        s.set_cursor(4, 4, 0, 0, vec![9; 4 * 4 * 4]);
        s.auth_mut().enable_sharing("pw");
        let late = s.attach(&Credentials::Peer { user: "late".into(), password: "pw".into() }, 48, 48);
        let ids = [&ids[..], &[late.unwrap()]].concat();
        let shapes = |msgs: &[Message]| msgs.iter().filter(|m| matches!(m, Message::CursorShape { .. })).count();
        for (round, t) in [(0, 1), (1, 2)] {
            if round == 1 {
                for &id in &ids {
                    s.resync_client(id, &screen);
                }
            }
            for &id in &ids {
                assert_eq!(shapes(&sent(&mut s, id, SimTime(t))), 1, "round {round}, viewer {id:?}");
            }
        }
    }

    #[test]
    fn input_from_one_viewer_marks_the_round_realtime_for_every_viewer() {
        use thinc_display::drawable::SCREEN;
        use thinc_protocol::message::ProtocolInput;
        let (mut s, ids) = viewers(&[64, 64]);
        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        s.repay_refreshes(store.screen());
        for &id in &ids {
            sent(&mut s, id, SimTime(1));
        }
        // The peer clicks at (10, 10). A small fill lands outside the
        // 32-pixel halo, then larger feedback inside it: SRSF alone
        // would send the fill first, the real-time queue sends the
        // feedback first.
        let click = Message::Input(ProtocolInput::ButtonPress { x: 10, y: 10, button: 1 });
        assert!(matches!(s.handle_message(ids[1], &click, store.screen()), Heard::Input(_)));
        let far = Rect::new(50, 50, 8, 8);
        store.screen_mut().fill_rect(&far, Color::WHITE);
        s.solid_fill(&store, SCREEN, far, Color::WHITE);
        let (feedback, data) = (Rect::new(4, 4, 16, 16), crate::fixtures::noise(16 * 16 * 3, 3));
        store.screen_mut().put_raw(&feedback, &data);
        s.put_image(&store, SCREEN, feedback, &data);
        for &id in &ids {
            let msgs = sent(&mut s, id, SimTime(2));
            assert!(matches!(msgs[0], Message::CursorMove { x: 10, y: 10 }), "{msgs:?}");
            let first = msgs.iter().find(|m| matches!(m, Message::Display(_)));
            assert!(
                matches!(first, Some(Message::Display(DisplayCommand::Raw { .. }))),
                "viewer {id:?}: {first:?}"
            );
        }
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
    fn run_degradation_scenario() -> ScenarioOutcome {
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
            });
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
        let (_, fbs, screen, _) = run_degradation_scenario();
        assert_eq!(fbs[0], screen, "owner never left full fidelity");
        assert_eq!(
            fbs[1], screen,
            "peer converges byte-exact after the refresh"
        );
    }

    #[test]
    fn ladder_tightens_the_bound_and_evicts_raw_first_on_the_shared_path() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::fault::FaultPlan;
        use thinc_net::link::NetworkConfig;
        use thinc_net::time::SimDuration;

        const BOUND: u64 = 12 * 1024;
        let mut s = SharedSession::new(256, 256, PixelFormat::Rgb888, "host")
            .with_buffer_bound(BOUND)
            .with_degradation(DegradationConfig {
                degrade_after: 1,
                promote_after: 100,
                max_level: DegradationLevel::Degraded,
                ..DegradationConfig::default()
            });
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
            "the compact fill must outlive the RAW tiles"
        );
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
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
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
        let out = s.flush_all(SimTime(1), &mut links);
        fn frames() -> [YuvFrame; 2] {
            [3u8, 5].map(|step| {
                let len = YuvFormat::Yv12.frame_size(32, 32);
                let planes = (0..len).map(|i| (i as u8).wrapping_mul(step)).collect();
                YuvFrame::from_data(YuvFormat::Yv12, 32, 32, planes)
            })
        }
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
    }

    #[test]
    fn poisoned_flush_quarantines_only_that_client() {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        // Three viewers of one class, so the lowest id leads the flush
        // plan the other two follow. Returns their streams and the
        // session.
        let run = |victim: Option<u32>| {
            let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
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
        silence_panics(|| {
            let (clean, _, _) = run(None);
            // A follower of the class's plan, then its leader: a
            // leader that panics publishes nothing, and its
            // followers must flush what they would have anyway.
            for victim in [1, 0] {
                let (streams, s, screen) = run(Some(victim));
                assert_eq!(s.quarantined_count(), 1);
                for (i, stream) in streams.iter().enumerate() {
                    let id = ClientId(i as u32);
                    let panics = s.viewer(id).unwrap().resilience_metrics().panics_quarantined();
                    if id.0 == victim {
                        assert!(s.client_quarantined(id));
                        assert!(stream.is_empty(), "quarantined client delivers nothing");
                        assert_eq!(panics, 1);
                        continue;
                    }
                    assert!(!s.client_quarantined(id));
                    assert_eq!(panics, 0);
                    assert_eq!(stream, &clean[i], "victim={victim} viewer={i}");
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
        });
    }

    #[test]
    fn a_lone_viewers_round_is_contained_and_counted() {
        use crate::server::{ServerConfig, VIEWER};
        use thinc_display::drawable::SCREEN;

        let mut s = ServerConfig { width: 64, height: 64, ..ServerConfig::default() }.session();
        s.poison_next_flush(VIEWER);
        let out = silence_panics(|| sent(&mut s, VIEWER, SimTime(1_000)));
        assert!(out.is_empty(), "a quarantined viewer delivers nothing");
        assert!(s.client_quarantined(VIEWER));
        assert_eq!(s.viewer(VIEWER).unwrap().resilience_metrics().panics_quarantined(), 1);
        // A round of one is a round: what its codec did reaches the
        // session's plane counters.
        let peer = s.join("peer".into(), 64, 64);
        let before = s.fanout_counters().encodes;
        let store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        s.put_image(&store, SCREEN, Rect::new(0, 0, 32, 32), &[0x5a; 32 * 32 * 3]);
        assert!(!sent(&mut s, peer, SimTime(2_000)).is_empty());
        assert!(s.fanout_counters().encodes > before, "the compressible RAW was encoded");
    }

    /// Runs a two-client cached session over clean links: the same
    /// tile is redrawn every round, so rounds after the first travel
    /// as cache references. Returns the per-client message streams,
    /// the per-client framebuffers after stream-layer resolution, the
    /// screen bytes, and the session itself.
    fn run_cache_scenario() -> ScenarioOutcome {
        use thinc_display::drawable::SCREEN;
        use thinc_net::link::NetworkConfig;

        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
        s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
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
            let mut viewer = crate::fixtures::Viewer::new(64, 64);
            viewer.deliver(stream);
            assert!(viewer.client.take_cache_miss().is_none(), "no misses on clean links");
            fbs.push(viewer.client.client().framebuffer().data().to_vec());
        }
        (streams, fbs, store.screen().data().to_vec(), s)
    }

    #[test]
    fn cached_session_substitutes_refs_and_converges_byte_exact() {
        let (streams, fbs, screen, s) = run_cache_scenario();
        for (stream, fb) in streams.iter().zip(&fbs) {
            let refs = stream
                .iter()
                .filter(|m| matches!(m, Message::CacheRef { .. }))
                .count();
            assert!(refs >= 2, "repeat rounds must travel as references");
            assert_eq!(fb, &screen, "cached stream resolves byte-exact");
        }
        // The lowest id leads the plan and pays for the tile's one
        // encode; the other viewer follows it.
        let stats = buffer_stats(&s);
        assert!(stats[0].codec_input_bytes > 0 && stats[1].codec_input_bytes == 0, "{stats:?}");
    }

    /// A 64x64 session with one cached viewer at a `viewport`-square
    /// window, after a 16x16 noise tile at (8, 8) reached it (at
    /// `sent_at` in the viewport): the session, its screen, the viewer
    /// and the tile's frame as it was sent.
    fn cached_tile(viewport: u32, sent_at: Rect) -> (SharedSession, DrawableStore, ClientId, Message) {
        use thinc_display::drawable::SCREEN;
        let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
        s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
        let id = s.attach(&Credentials::Owner { user: "host".into() }, viewport, viewport).unwrap();
        let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
        let tile = crate::fixtures::noise(16 * 16 * 3, 7);
        store.screen_mut().put_raw(&Rect::new(8, 8, 16, 16), &tile);
        s.put_image(&store, SCREEN, Rect::new(8, 8, 16, 16), &tile);
        let is_tile = |m: &Message| matches!(m, Message::Display(c) if c.dest_rect() == sent_at);
        let tile = sent(&mut s, id, SimTime::ZERO).into_iter().find(is_tile);
        (s, store, id, tile.expect("the tile was sent"))
    }

    #[test]
    fn a_held_miss_forgets_the_entry_and_owes_the_full_view() {
        // What ran after the reference (a COPY reading the tile's rect)
        // may have spread the gap beyond that rect, so a held name owes
        // the full view, as an unknown one does: at full size and at
        // half size, where the ledger's frame is the scaled tile.
        for (viewport, sent_at) in [(64, Rect::new(8, 8, 16, 16)), (32, Rect::new(4, 4, 8, 8))] {
            let (mut s, store, id, tile) = cached_tile(viewport, sent_at);
            let hash = tile.cache_key().unwrap();
            s.handle_message(id, &Message::CacheMiss { hash }, store.screen());
            let v = s.viewer(id).unwrap();
            assert!(v.refresh_owed(), "the view is owed, not the tile's rect");
            assert!(!v.buffer().cache_keys().contains(&hash), "the ledger forgot the tile");
            s.repay_refreshes(store.screen());
            let out = sent(&mut s, id, SimTime::ZERO);
            // The repaint is the whole viewport read from the screen,
            // and it ships in full: no reference to anything.
            let [Message::Display(cmd)] = &out[..] else { panic!("{out:?}") };
            assert_eq!(cmd.dest_rect(), Rect::new(0, 0, viewport, viewport));
            assert!(!s.viewer(id).unwrap().refresh_owed());
            // A name the ledger does not hold owes the full view too;
            // both misses are counted.
            s.handle_message(id, &Message::CacheMiss { hash: 0xDEAD_BEEF }, store.screen());
            let v = s.viewer(id).unwrap();
            assert!(v.refresh_owed());
            assert_eq!(v.resilience_metrics().cache_misses(), 2);
        }
    }

    #[test]
    fn a_miss_owed_before_a_rescale_is_repaid_at_the_new_scale() {
        // The view a miss owes is owed at whatever scale holds when it
        // is repaid: nothing of the outgoing coordinate space ships
        // after the resize.
        let (mut s, store, id, tile) = cached_tile(64, Rect::new(8, 8, 16, 16));
        let hash = tile.cache_key().unwrap();
        s.handle_message(id, &Message::CacheMiss { hash }, store.screen());
        let resize = Message::Resize { viewport_width: 32, viewport_height: 32 };
        s.handle_message(id, &resize, store.screen());
        s.repay_refreshes(store.screen());
        let out = sent(&mut s, id, SimTime::ZERO);
        let rects: Vec<Rect> = out
            .iter()
            .filter_map(|m| match m {
                Message::Display(cmd) => Some(cmd.dest_rect()),
                _ => None,
            })
            .collect();
        assert_eq!(rects, [Rect::new(0, 0, 32, 32)], "{out:?}");
        assert!(!s.viewer(id).unwrap().has_debt());
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
    fn a_forged_tile_grid_is_malformed() {
        // A 64×48 screen is a 4×3 grid. A grid of 12×1 holds as many
        // digests, but its tiles run past the screen's right edge and
        // miss rows 16 to 48: the warm delta would be computed over a
        // screen that is not this one.
        let s = SharedSession::new(64, 48, PixelFormat::Rgb888, "host");
        let image = s.checkpoint(&Framebuffer::new(64, 48, PixelFormat::Rgb888));
        let mut payload = crate::checkpoint::open(&image).unwrap().to_vec();
        let grid = [64u32, 48, 4, 3].map(u32::to_le_bytes).concat();
        let at = payload.windows(grid.len()).position(|w| w == grid).expect("the tile grid");
        for (cols, rows) in [(12u32, 1u32), (1, 12), (2, 6)] {
            payload[at + 8..at + 16].copy_from_slice(&[cols, rows].map(u32::to_le_bytes).concat());
            let forged = crate::checkpoint::seal(payload.clone());
            assert!(
                matches!(SharedSession::restore(&forged), Err(CheckpointError::Malformed(_))),
                "a {cols}×{rows} grid over 64×48 restored"
            );
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
        let digest_before = thinc_protocol::store_digest(&s.viewer(owner).unwrap().buffer().cache_keys());
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

#[cfg(test)]
#[path = "session_phases.rs"]
mod phases;
