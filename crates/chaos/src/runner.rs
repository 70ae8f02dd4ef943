//! The schedule executor: one [`Schedule`] in, one [`RunReport`] out.
//!
//! The runner owns the whole closed loop — an authoritative
//! [`SharedSession`] under the product's [`ShardedManager`], a
//! [`DrawableStore`] screen, and per-slot
//! [`StreamClient`]s each behind their own faultable [`TcpPipe`] —
//! and advances it in *virtual* time only. Nothing here reads a wall
//! clock or an ambient RNG: every random draw descends from the
//! schedule seed, so the same schedule produces the same byte
//! streams, the same telemetry and the same verdicts on every
//! machine and for every flush worker count.
//!
//! At each [`ChaosEvent::Quiesce`] the runner drains the system
//! (fault windows run out, pipes swap to clean plans, refresh debt
//! is repaid) and then evaluates the global invariant catalog in
//! [`crate::invariant`]. After the final quiesce it checks the
//! schedule's [`crate::expect`] block against what every slot
//! counted. Violations accumulate in the report; a run never aborts
//! early, so shrinking sees the same failure shape on every candidate.

use crate::event::{ChaosEvent, FaultKind, Schedule, Workload};
use crate::expect::{self, SlotCounters};
use crate::invariant::{self, RunReport, Violation};
use thinc_client::{ReconnectConfig, ReconnectPolicy, StreamClient, ThincClient};
use thinc_core::degradation::{DegradationConfig, DegradationLevel};
use thinc_core::liveness::LivenessConfig;
use thinc_core::scaling::ScalePolicy;
use thinc_core::session::{ClientId, Credentials, SharedSession};
use thinc_core::{Delivery, ShardedManager};
use thinc_display::drawable::DrawableStore;
use thinc_display::driver::VideoDriver;
use thinc_display::SCREEN;
use thinc_net::fault::{FaultPlan, FaultStats, SplitMix64};
use thinc_net::link::NetworkConfig;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_CACHE};
use thinc_raster::{Color, PixelFormat, Rect};
use thinc_telemetry::{BufferStats, ResilienceMetrics};

/// Pixel format every chaos session runs in.
const FORMAT: PixelFormat = PixelFormat::Rgb888;
/// Liveness timeout: silence longer than this declares a client dead.
const LIVENESS_TIMEOUT: SimDuration = SimDuration::from_secs(3);
/// Ping cadence, well under the timeout so probes always precede it.
const PING_INTERVAL: SimDuration = SimDuration::from_millis(500);
/// "Indefinite" outage length used to model a severed connection
/// (about 115 virtual days — no schedule runs anywhere near it).
const FOREVER: SimDuration = SimDuration(10_000_000_000_000);
/// Virtual time per settle pump. Kept far under the liveness timeout
/// so pings keep flowing while the quiesce drains.
const SETTLE_STEP: SimDuration = SimDuration::from_millis(100);
/// Virtual time per fault-window run-out pump.
const RUNOUT_STEP: SimDuration = SimDuration::from_millis(250);
/// Settle pumps a quiesce may spend before declaring stuck debt.
const MAX_SETTLE: usize = 400;
/// Hard cap on slots (the generator stays lower; hand-written
/// schedules beyond this see their attaches degrade to no-ops).
/// Sized for fan-out schedules that drive the session's flush with a
/// real population.
const MAX_SLOTS: usize = 64;

/// Installs (once per process) a panic hook that swallows only the
/// deliberately injected flush poison, so chaos runs exercising the
/// quarantine path do not spray scary-but-expected backtraces.
/// Every other panic is forwarded to the previous hook untouched.
fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| info.payload().downcast_ref::<String>().map(|s| s.as_str()))
                .unwrap_or("");
            if !msg.contains("injected poison") {
                prev(info);
            }
        }));
    });
}

/// Accumulated fault windows for one slot's current pipe epoch.
///
/// [`TcpPipe::set_fault_plan`] replaces the whole fault state, so
/// composing a new window with ones already armed means rebuilding
/// the full plan; this records everything armed since the last clean
/// swap. `Loss` is a flat rate (active until the next quiesce);
/// everything else is windowed.
#[derive(Debug, Default, Clone)]
struct PlanSpec {
    loss: f64,
    outages: Vec<(SimTime, SimDuration)>,
    collapses: Vec<(SimTime, SimDuration, f64)>,
    corruptions: Vec<(SimTime, SimDuration, f64)>,
    reorders: Vec<(SimTime, SimDuration, f64)>,
    dups: Vec<(SimTime, SimDuration, f64)>,
}

impl PlanSpec {
    fn is_clean(&self) -> bool {
        self.loss == 0.0
            && self.outages.is_empty()
            && self.collapses.is_empty()
            && self.corruptions.is_empty()
            && self.reorders.is_empty()
            && self.dups.is_empty()
    }

    /// Latest end among all armed windows (`SimTime(0)` when none).
    fn windows_end(&self) -> SimTime {
        let mut end = SimTime(0);
        for (s, l) in &self.outages {
            end = end.max(SimTime(s.0.saturating_add(l.0)));
        }
        for (s, l, _) in self
            .collapses
            .iter()
            .chain(&self.corruptions)
            .chain(&self.reorders)
            .chain(&self.dups)
        {
            end = end.max(SimTime(s.0.saturating_add(l.0)));
        }
        end
    }

    /// Rebuilds the full plan with a PRNG stream derived from the
    /// schedule seed, the slot and the plan epoch — deterministic,
    /// and distinct across slots and across successive swaps.
    fn build(&self, base_seed: u64, slot: usize, epoch: u64) -> FaultPlan {
        let derived = SplitMix64::new(
            base_seed
                ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ epoch.wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
        .next_u64();
        let mut plan = FaultPlan::seeded(derived);
        if self.loss > 0.0 {
            plan = plan.with_loss(self.loss);
        }
        for (s, l) in &self.outages {
            plan = plan.with_outage(*s, *l);
        }
        for (s, l, f) in &self.collapses {
            plan = plan.with_collapse(*s, *l, *f);
        }
        for (s, l, r) in &self.corruptions {
            plan = plan.with_corruption(*s, *l, *r);
        }
        for (s, l, r) in &self.reorders {
            plan = plan.with_reorder(*s, *l, *r);
        }
        for (s, l, r) in &self.dups {
            plan = plan.with_duplication(*s, *l, *r);
        }
        plan
    }
}

/// One chaos slot: a stable index onto a (possibly re-issued)
/// session client and its client-side stream state.
struct Slot {
    /// Current session client id (re-issued on hard reattach).
    id: ClientId,
    viewport: (u32, u32),
    /// The protocol revision the client speaks.
    version: u16,
    /// Cache budget negotiated with the server at attach time.
    budget: u64,
    connected: bool,
    disconnected_at: Option<SimTime>,
    stream: StreamClient,
    plan: PlanSpec,
    plan_epoch: u64,
    /// Everything counted by the slot's detached incarnations,
    /// replaced client streams and replaced pipe plans (a plan swap
    /// resets the pipe's counters), for the `expect` block.
    history: SlotCounters,
    /// The viewer's buffer rows as the standby restored them at the
    /// last takeover: `buffer.` rows count from there, as `server.`
    /// rows do.
    buffer_base: BufferStats,
    /// Whether the ledger/store eviction mirror can still be checked
    /// strictly (cleared by wire damage, cache misses and resizes).
    mirror_intact: bool,
    /// An outage/collapse window (or severed link) was armed since
    /// the last quiesce: a Dead verdict is starvation, not a bug.
    outage_excused: bool,
    /// This slot's flush was deliberately poisoned.
    poisoned: bool,
    /// Pongs routed upstream for the current client incarnation.
    pongs_routed: u64,
    /// Client cache hits already credited against a *previous* server
    /// incarnation. A failover resets the server's per-client
    /// counters, so hit-count conservation is checked per incarnation
    /// — hits above this baseline against refs the standby served.
    cache_hits_base: u64,
}

struct Runner {
    /// The session and every client's `(pipe, trace)` link.
    manager: ShardedManager,
    store: DrawableStore,
    slots: Vec<Slot>,
    now: SimTime,
    seed: u64,
    width: u32,
    height: u32,
    /// Cache budget clients attached from now on negotiate.
    budget_for_new: u64,
    attaches: usize,
    violations: Vec<Violation>,
    /// Latch so a persistent buffer overrun reports once, not per pump.
    buffer_bound_flagged: bool,
    quiesces: usize,
    /// The checkpoint image taken at the most recent quiesce — the
    /// state a warm standby holds when [`ChaosEvent::Failover`]
    /// fires. [`ChaosEvent::ServerCrash`] ignores it and snapshots at
    /// the crash instant instead.
    last_checkpoint: Option<Vec<u8>>,
}

/// Runs `schedule` to completion and reports every invariant
/// violation observed. Never panics on schedule content: dangling
/// slot references and out-of-range rectangles degrade to no-ops
/// (the removal-tolerance contract shrinking relies on).
pub fn run(schedule: &Schedule) -> RunReport {
    if schedule
        .events
        .iter()
        .any(|e| matches!(e, ChaosEvent::PoisonFlush { .. }))
    {
        silence_injected_panics();
    }
    let width = schedule.width.clamp(8, 512);
    let height = schedule.height.clamp(8, 512);
    let mut session = SharedSession::new(width, height, FORMAT, "host")
        .with_liveness(LivenessConfig {
            timeout: LIVENESS_TIMEOUT,
            ping_interval: PING_INTERVAL,
        })
        .with_degradation(DegradationConfig::default())
        .with_buffer_bound(schedule.buffer_bound.max(4 * 1024))
        .with_cache(schedule.cache_budget.max(4 * 1024))
        .with_workers(schedule.workers.max(1));
    session.auth_mut().enable_sharing("chaos");
    let mut r = Runner {
        manager: ShardedManager::new(session, 1),
        store: DrawableStore::new(width, height, FORMAT),
        slots: Vec::new(),
        now: SimTime(0),
        seed: schedule.seed,
        width,
        height,
        budget_for_new: schedule.cache_budget.max(4 * 1024),
        attaches: 0,
        violations: Vec::new(),
        buffer_bound_flagged: false,
        quiesces: 0,
        last_checkpoint: None,
    };
    let mut executed = 0usize;
    for ev in &schedule.events {
        r.exec(ev);
        executed += 1;
    }
    // The implicit final checkpoint: every run ends settled and
    // checked, whether or not the event list says so.
    if !matches!(schedule.events.last(), Some(ChaosEvent::Quiesce)) {
        r.quiesce();
    }
    let counters: Vec<SlotCounters> = (0..r.slots.len()).map(|si| r.counters(si)).collect();
    let plane = r.manager.session().fanout_counters();
    r.violations
        .extend(expect::check(&schedule.expect, &counters, &plane));
    RunReport {
        violations: r.violations,
        events_executed: executed,
        quiesces: r.quiesces,
        slots_attached: r.attaches,
        quarantined: r.manager.session().quarantined_count(),
    }
}

/// A clean LAN downlink with an empty trace: what every (re)connection
/// starts on.
fn fresh_link() -> (TcpPipe, PacketTrace) {
    (
        NetworkConfig::lan_desktop().connect().down,
        PacketTrace::new(),
    )
}

/// Whether the client has lost frames on this incarnation's wire —
/// skipped as damage, failed their CRC, fell in a sequence gap, or were
/// dropped undecoded by a reader reset. Each means inserts the ledger
/// committed and the store never saw, so the strict eviction mirror no
/// longer holds.
fn wire_damaged(stream: &StreamClient) -> bool {
    let m = stream.resilience_metrics();
    m.decode_errors() + m.crc_failures() + m.seq_gaps() + m.reset_discarded_bytes() > 0
}

impl Runner {
    fn violation(&mut self, invariant: &str, detail: String) {
        self.violations.push(Violation {
            invariant: invariant.to_string(),
            detail,
        });
    }

    /// What the session holds for one client.
    fn viewer(&self, id: ClientId) -> Option<&Delivery> {
        self.manager.session().viewer(id)
    }

    fn exec(&mut self, ev: &ChaosEvent) {
        match *ev {
            ChaosEvent::Attach {
                viewport_w,
                viewport_h,
                version,
            } => {
                self.attach(viewport_w, viewport_h, version.clamp(1, PROTOCOL_VERSION));
            }
            ChaosEvent::Disconnect { slot } => self.disconnect(slot),
            ChaosEvent::Reconnect { slot } => self.reconnect(slot),
            ChaosEvent::Resize {
                slot,
                viewport_w,
                viewport_h,
            } => self.resize(slot, viewport_w, viewport_h),
            ChaosEvent::Fault {
                slot,
                kind,
                offset_ms,
                len_ms,
                rate_pct,
            } => self.fault(slot, kind, offset_ms, len_ms, rate_pct),
            ChaosEvent::CacheBudget { bytes } => {
                let bytes = bytes.clamp(4 * 1024, 64 * 1024 * 1024);
                self.budget_for_new = bytes;
                self.manager.session_mut().set_cache_budget(Some(bytes));
            }
            ChaosEvent::Draw {
                workload,
                x,
                y,
                w,
                h,
                salt,
            } => self.draw(workload, x, y, w, h, salt),
            ChaosEvent::Flush { epochs, step_ms } => {
                let step = SimDuration::from_millis(u64::from(step_ms.clamp(1, 2_000)));
                for _ in 0..epochs.clamp(1, 64) {
                    self.pump(step);
                }
            }
            ChaosEvent::PoisonFlush { slot } => {
                if let Some(si) = self.live_slot(slot) {
                    let id = self.slots[si].id;
                    self.manager.session_mut().poison_next_flush(id);
                    self.slots[si].poisoned = true;
                }
            }
            ChaosEvent::SabotagePixel { slot } => {
                if let Some(si) = self.live_slot(slot) {
                    // Public-API equivalent of flipping one local
                    // pixel: paint a 1x1 fill the screen never saw.
                    let first = self.slots[si].stream.client().framebuffer().data()[0];
                    let color = if first > 127 {
                        Color::rgb(0, 0, 0)
                    } else {
                        Color::rgb(255, 255, 255)
                    };
                    self.slots[si].stream.client_mut().apply(&Message::Display(
                        DisplayCommand::Sfill {
                            rect: Rect::new(0, 0, 1, 1),
                            color,
                        },
                    ));
                }
            }
            ChaosEvent::ServerCrash => {
                // Crash-consistent takeover: the image is whatever
                // the server held at the instant it died.
                let image = self.manager.session().checkpoint(self.store.screen());
                self.take_over(image, true, "server_crash");
            }
            ChaosEvent::Failover => {
                // Warm-standby takeover from the last quiesce's
                // image — deliberately stale, so resume tokens can
                // be legitimately rejected. Before the first quiesce
                // it degrades to a crash-instant image.
                let (image, live) = match self.last_checkpoint.clone() {
                    Some(image) => (image, false),
                    None => (self.manager.session().checkpoint(self.store.screen()), true),
                };
                self.take_over(image, live, "failover");
            }
            ChaosEvent::Quiesce => self.quiesce(),
        }
    }

    /// Kills the live session and brings up a standby restored from
    /// `image`, then redials every slot. `image_is_live` says the
    /// image was taken at this very instant (a [`ChaosEvent::ServerCrash`]
    /// snapshot), meaning the restored cache ledgers match the client
    /// stores bit-for-bit including recency; a stale image (previous
    /// quiesce) keeps correctness but voids the strict eviction
    /// mirror.
    fn take_over(&mut self, image: Vec<u8>, image_is_live: bool, label: &str) {
        // The standby restores before the old incarnation is torn
        // down; an image that cannot restore is a fidelity violation
        // and the run degrades by keeping the live server (the
        // checkpoint layer's never-panic contract, observed here).
        let mut restored = match SharedSession::restore(&image) {
            Ok(s) => s,
            Err(e) => {
                self.violation(
                    invariant::FAILOVER,
                    format!("{label}: checkpoint image failed to restore: {e}"),
                );
                return;
            }
        };
        let old_session_id = self.manager.session().session_id();
        // Everything the dead server had already put on the wire
        // still lands; everything merely buffered dies with it (the
        // image carries the buffered state that survives).
        for si in 0..self.slots.len() {
            if self.slots[si].connected {
                self.deliver_held(si);
            }
        }
        restored.set_time(self.now);
        // Budget changes since the image are runner policy, not
        // session state: re-install so post-takeover attaches mirror
        // their client stores.
        restored.set_cache_budget(Some(self.budget_for_new));
        // Image clients no slot owns (detached after a stale image
        // was taken) are ghosts the standby drops — they will never
        // redial, and their buffers would otherwise accumulate
        // against links that do not exist.
        for id in restored.client_ids() {
            if !self.slots.iter().any(|s| s.id == id) {
                restored.detach(id);
            }
        }
        let roster = restored.client_ids();
        let standby = ShardedManager::new(restored, 1);
        let mut dead = std::mem::replace(&mut self.manager, standby);
        // The connections outlive the server that held their far end
        // (adopted in id order, as the manager wants them).
        for &id in &roster {
            let link = dead.detach(id).unwrap_or_else(fresh_link);
            self.manager.adopt_link(id, link);
        }
        for si in 0..self.slots.len() {
            // Poison armed on the old incarnation died with it, and a
            // quarantine it executed is dropped with the fresh
            // reattach below: the standby starts uncontaminated.
            self.slots[si].poisoned = false;
            if !roster.contains(&self.slots[si].id) {
                // Unknown to the image (quarantined at crash time, or
                // attached after a stale image was taken): the resume
                // token cannot match, so this client reattaches from
                // scratch with a fresh identity.
                self.hard_reattach(si);
                continue;
            }
            // Pongs in hand answered pings the dead server sent; the
            // standby's ping counter starts at zero, so routing them
            // (now, or on a severed slot's later soft reconnect) would
            // break conservation against a counter that never saw the
            // pings — and cache hits predate the standby the same way.
            let base = self.viewer(self.slots[si].id).map(|d| d.buffer().stats());
            let s = &mut self.slots[si];
            s.buffer_base = base.unwrap_or_default();
            let _ = s.stream.take_pong();
            s.pongs_routed = 0;
            s.cache_hits_base = s.stream.resilience_metrics().cache_hits();
            // A stale image's ledger recency lags the live store even
            // when the key sets still digest-match, so post-takeover
            // evictions may pick different victims: only a
            // crash-instant image keeps the strict mirror.
            if !image_is_live {
                s.mirror_intact = false;
            }
            if !s.connected {
                // Still severed. The standby's liveness tracker, like
                // every restored tracker, starts counting silence at
                // takeover.
                s.disconnected_at = Some(self.now);
                continue;
            }
            // A redial is a new connection (fault windows were armed
            // on the old one and died with it), opened the way the
            // protocol opens one: the hello re-announcing the
            // viewport, then the resume token — or, with half a frame
            // stranded in the reader, a plain request for the full
            // view, after which ledger and store may disagree.
            self.fresh_connection(si);
            let id = self.slots[si].id;
            let opening = self.slots[si].stream.redial(old_session_id, id.0);
            if !self.slots[si].stream.resume_pending() {
                self.slots[si].mirror_intact = false;
            }
            for msg in &opening {
                self.manager
                    .session_mut()
                    .handle_message(id, msg, self.store.screen());
            }
        }
    }

    /// Index of `slot` if it exists, is connected and is not
    /// quarantined — the precondition most slot events degrade on.
    fn live_slot(&self, slot: usize) -> Option<usize> {
        let s = self.slots.get(slot)?;
        (s.connected && !self.manager.session().client_quarantined(s.id)).then_some(slot)
    }

    /// A client for `id` at the given geometry that has seen the
    /// session's greeting (legacy-framed; it upgrades the reader to
    /// the revision both sides speak, exactly as a real connect would).
    fn fresh_stream(
        &mut self,
        id: ClientId,
        vw: u32,
        vh: u32,
        budget: u64,
        version: u16,
    ) -> StreamClient {
        // A peer older than the cache revision holds no store.
        let budget = if version < WIRE_REV_CACHE { 0 } else { budget };
        let mut stream = StreamClient::new(vw, vh, FORMAT)
            .with_cache_budget(budget)
            .with_reconnect_policy(ReconnectPolicy::new(ReconnectConfig {
                seed: self
                    .seed
                    .wrapping_add((self.attaches as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                ..ReconnectConfig::default()
            }));
        let session = self.manager.session_mut();
        let mut hello = session.hello();
        if let Message::ServerHello { version: v, .. } = &mut hello {
            *v = (*v).min(version);
        }
        stream.feed(&session.encode_frame(id, &hello));
        stream
    }

    fn attach(&mut self, viewport_w: u32, viewport_h: u32, version: u16) -> Option<usize> {
        if self.slots.len() >= MAX_SLOTS {
            return None;
        }
        let vw = viewport_w.clamp(1, self.width);
        let vh = viewport_h.clamp(1, self.height);
        let id = self.attach_client(vw, vh, version)?;
        let budget = self.budget_for_new;
        let stream = self.fresh_stream(id, vw, vh, budget, version);
        self.slots.push(Slot {
            id,
            viewport: (vw, vh),
            version,
            budget,
            connected: true,
            disconnected_at: None,
            stream,
            plan: PlanSpec::default(),
            plan_epoch: 0,
            history: SlotCounters::default(),
            buffer_base: BufferStats::default(),
            mirror_intact: true,
            outage_excused: false,
            poisoned: false,
            pongs_routed: 0,
            cache_hits_base: 0,
        });
        Some(self.slots.len() - 1)
    }

    /// Issues a session client on a fresh link: the first attach is
    /// the owner, every later one a password peer (sharing is enabled
    /// at start). A peer older than this build says so in its hello.
    fn attach_client(&mut self, vw: u32, vh: u32, version: u16) -> Option<ClientId> {
        let creds = if self.attaches == 0 {
            Credentials::Owner {
                user: "host".into(),
            }
        } else {
            Credentials::Peer {
                user: format!("c{}", self.attaches),
                password: "chaos".into(),
            }
        };
        self.manager.session_mut().set_time(self.now);
        let id = self.manager.attach(&creds, vw, vh, fresh_link()).ok()?;
        self.attaches += 1;
        if version != PROTOCOL_VERSION {
            let hello = Message::ClientHello {
                version,
                viewport_width: vw,
                viewport_height: vh,
            };
            self.manager
                .session_mut()
                .handle_message(id, &hello, self.store.screen());
        }
        Some(id)
    }

    /// Severs a slot: everything already disturbed onto the wire
    /// still lands, then the link goes down indefinitely, so the
    /// server keeps producing into a buffer that can only evict.
    fn disconnect(&mut self, slot: usize) {
        let Some(si) = self.live_slot(slot) else {
            return;
        };
        self.deliver_held(si);
        self.slots[si].plan.outages.push((self.now, FOREVER));
        self.rearm_plan(si);
        self.slots[si].connected = false;
        self.slots[si].disconnected_at = Some(self.now);
        self.slots[si].outage_excused = true;
    }

    /// Re-establishes a slot softly: fresh pipe, wire state dropped,
    /// display and cache store survive; the connection opens with the
    /// hello, then asks for the full view. A viewer the server has
    /// declared dead is revived in place by that opening (the resync
    /// it drives clears the verdict) — the path a user walking to
    /// another device takes, the new viewport announced by the hello.
    fn reconnect(&mut self, slot: usize) {
        let Some(id) = self.slots.get(slot).map(|s| s.id) else {
            return;
        };
        if self.manager.session().client_quarantined(id) {
            return; // quarantine is terminal by design
        }
        self.deliver_held(slot);
        self.fresh_connection(slot);
        self.slots[slot].connected = true;
        self.slots[slot].disconnected_at = None;
        // The windows armed on the old pipe died with it: a viewer
        // still dead at the next quiesce was not revived.
        self.slots[slot].outage_excused = false;
        let opening = self.slots[slot].stream.reopen();
        if wire_damaged(&self.slots[slot].stream) {
            self.slots[slot].mirror_intact = false;
        }
        let session = self.manager.session_mut();
        session.set_time(self.now);
        for msg in &opening {
            session.handle_message(id, msg, self.store.screen());
        }
    }

    /// Detaches a slot's session client and issues a brand-new one at
    /// the same viewport: fresh ledger, fresh store, fresh wire state
    /// — the mirror restarts intact. What the old incarnation counted
    /// stays in the slot's history.
    fn hard_reattach(&mut self, slot: usize) {
        self.slots[slot].history = self.counters(slot);
        self.manager.detach(self.slots[slot].id);
        let (vw, vh) = self.slots[slot].viewport;
        let version = self.slots[slot].version;
        let Some(id) = self.attach_client(vw, vh, version) else {
            return;
        };
        let budget = self.budget_for_new;
        let stream = self.fresh_stream(id, vw, vh, budget, version);
        let s = &mut self.slots[slot];
        s.id = id;
        s.budget = budget;
        s.connected = true;
        s.disconnected_at = None;
        s.stream = stream;
        s.plan = PlanSpec::default();
        s.plan_epoch += 1;
        s.buffer_base = BufferStats::default();
        s.mirror_intact = true;
        s.outage_excused = false;
        s.pongs_routed = 0;
        s.cache_hits_base = 0;
    }

    /// Mid-session viewport change: the server rescales and owes a
    /// full refresh; the client restarts its display and store at the
    /// new geometry (so the eviction mirror is no longer strict —
    /// misses recover it the slow, checked way).
    fn resize(&mut self, slot: usize, viewport_w: u32, viewport_h: u32) {
        let Some(si) = self.live_slot(slot) else {
            return;
        };
        let vw = viewport_w.clamp(1, self.width);
        let vh = viewport_h.clamp(1, self.height);
        let id = self.slots[si].id;
        self.manager.session_mut().resize_client(id, vw, vh);
        let (budget, version) = (self.slots[si].budget, self.slots[si].version);
        let stream = self.fresh_stream(id, vw, vh, budget, version);
        let s = &mut self.slots[si];
        s.viewport = (vw, vh);
        s.history.client.merge(s.stream.resilience_metrics());
        s.stream = stream;
        s.mirror_intact = false;
    }

    fn fault(&mut self, slot: usize, kind: FaultKind, offset_ms: u32, len_ms: u32, rate_pct: u8) {
        let Some(si) = self.live_slot(slot) else {
            return;
        };
        let start = self.now + SimDuration::from_millis(u64::from(offset_ms.min(60_000)));
        let len = SimDuration::from_millis(u64::from(len_ms.clamp(1, 60_000)));
        let rate = f64::from(rate_pct.clamp(1, 100)) / 100.0;
        {
            let spec = &mut self.slots[si].plan;
            match kind {
                FaultKind::Loss => spec.loss = rate.min(0.5),
                FaultKind::Outage => spec.outages.push((start, len)),
                FaultKind::Collapse => spec.collapses.push((start, len, rate)),
                FaultKind::Corruption => spec.corruptions.push((start, len, rate)),
                FaultKind::Reorder => spec.reorders.push((start, len, rate)),
                FaultKind::Duplicate => spec.dups.push((start, len, rate)),
            }
        }
        if matches!(kind, FaultKind::Outage | FaultKind::Collapse) {
            // Starved links can silence pings past the timeout; a
            // Dead verdict under these windows is expected physics.
            self.slots[si].outage_excused = true;
        }
        self.deliver_held(si);
        self.rearm_plan(si);
    }

    /// Feeds the client anything a reorder window still holds on its
    /// pipe, so a fault-state swap never silently drops bytes.
    fn deliver_held(&mut self, si: usize) {
        let slot = &mut self.slots[si];
        let held = self
            .manager
            .link_mut(slot.id)
            .and_then(|link| link.0.flush_disturbed());
        if let Some(tail) = held.filter(|_| slot.connected) {
            slot.stream.feed(&tail);
        }
    }

    /// Folds the pipe's fault counters into the slot before a swap
    /// resets them.
    fn fold_stats(&mut self, si: usize) {
        let slot = &mut self.slots[si];
        if let Some(link) = self.manager.link_mut(slot.id) {
            fold_link(&mut slot.history.link, link.0.fault_stats());
        }
    }

    /// Everything slot `si` has counted so far: its history plus the
    /// live incarnation's client, viewer, buffer and link.
    fn counters(&mut self, si: usize) -> SlotCounters {
        let s = &self.slots[si];
        let mut all = s.history;
        all.client.merge(s.stream.resilience_metrics());
        if let Some(d) = self.manager.session().viewer(s.id) {
            all.server.merge(&d.resilience_metrics());
            all.buffer.merge(&d.buffer().stats().since(&s.buffer_base));
        }
        if let Some(link) = self.manager.link_mut(s.id) {
            fold_link(&mut all.link, link.0.fault_stats());
        }
        all
    }

    /// Moves a slot onto a fresh, clean link.
    fn fresh_connection(&mut self, si: usize) {
        self.fold_stats(si);
        if let Some(link) = self.manager.link_mut(self.slots[si].id) {
            *link = fresh_link();
        }
        self.slots[si].plan = PlanSpec::default();
        self.slots[si].plan_epoch += 1;
    }

    /// Installs the slot's accumulated plan on its pipe.
    fn rearm_plan(&mut self, si: usize) {
        self.fold_stats(si);
        let slot = &mut self.slots[si];
        slot.plan_epoch += 1;
        let plan = slot.plan.build(self.seed, si, slot.plan_epoch);
        if let Some(link) = self.manager.link_mut(slot.id) {
            link.0.set_fault_plan(plan);
        }
    }

    fn draw(&mut self, workload: Workload, x: i32, y: i32, w: u32, h: u32, salt: u64) {
        let Some(rect) = clamp_rect(x, y, w, h, self.width, self.height) else {
            return;
        };
        let session = self.manager.session_mut();
        match workload {
            Workload::Solid => {
                let c = Color::rgb(salt as u8, (salt >> 8) as u8, (salt >> 16) as u8);
                self.store.screen_mut().fill_rect(&rect, c);
                session.solid_fill(&self.store, SCREEN, rect, c);
            }
            Workload::Noise => {
                let data = pattern_bytes(salt | 1, &rect);
                self.store.screen_mut().put_raw(&rect, &data);
                session.put_image(&self.store, SCREEN, rect, &data);
            }
            Workload::Tile => {
                // Content depends only on the palette index, so every
                // repeat is byte-identical and the cache sees hits.
                let data = pattern_bytes(0x7115_0000 | (salt % 4), &rect);
                self.store.screen_mut().put_raw(&rect, &data);
                session.put_image(&self.store, SCREEN, rect, &data);
            }
            Workload::Scroll => {
                let (clip, data) = self.store.screen().get_raw(&rect);
                if clip.is_empty() {
                    return;
                }
                let dx = (((salt % 17) as i32) - 8)
                    .clamp(-clip.x, self.width as i32 - clip.x - clip.w as i32);
                let dy = ((((salt >> 8) % 13) as i32) - 6)
                    .clamp(-clip.y, self.height as i32 - clip.y - clip.h as i32);
                let dst = Rect::new(clip.x + dx, clip.y + dy, clip.w, clip.h);
                self.store.screen_mut().put_raw(&dst, &data);
                session.copy_area(&self.store, SCREEN, SCREEN, clip, dst.x, dst.y);
            }
        }
    }

    /// One delivery round: advance virtual time, flush every client
    /// over its (possibly faulty) pipe, frame each message
    /// and carry the bytes through the disturbance model into each
    /// stream client, then hand the session whatever the clients send
    /// back (pongs, cache misses, refresh requests). Liveness is polled
    /// for every slot so probes queue and verdicts advance.
    fn pump(&mut self, step: SimDuration) {
        self.now += step;
        for (id, msgs) in self.manager.flush_epoch(self.now) {
            let Some(slot) = self.slots.iter_mut().find(|s| s.id == id && s.connected) else {
                continue;
            };
            let session = self.manager.session_mut();
            let frames: Vec<_> = msgs
                .iter()
                .map(|(arrival, msg)| (*arrival, session.encode_frame(id, msg)))
                .collect();
            let Some(link) = self.manager.link_mut(id) else {
                continue;
            };
            for seg in link.0.carry(frames) {
                slot.stream.feed(&seg);
            }
        }
        for slot in &mut self.slots {
            let session = self.manager.session_mut();
            let _ = session.poll_client_liveness(slot.id, self.now);
            if !slot.connected {
                continue;
            }
            for msg in slot.stream.take_uplink(self.now) {
                match msg {
                    Message::Pong { .. } => slot.pongs_routed += 1,
                    Message::CacheMiss { .. } => slot.mirror_intact = false,
                    _ => {}
                }
                session.handle_message(slot.id, &msg, self.store.screen());
            }
            if wire_damaged(&slot.stream) {
                slot.mirror_intact = false;
            }
        }
        self.check_buffer_bounds();
    }

    /// The always-on invariant, at *every* pump: buffered bytes stay
    /// within the bound. Refresh debt is repaid piecewise under it; the
    /// one thing that may exceed it is a single repaid piece pushed
    /// into an empty buffer, and the largest piece is one full frame.
    fn check_buffer_bounds(&mut self) {
        if self.buffer_bound_flagged {
            return;
        }
        let piece = u64::from(self.width) * u64::from(self.height) * 3 + 512;
        let over = self.slots.iter().enumerate().find_map(|(si, s)| {
            let buffer = self.viewer(s.id)?.buffer();
            let (bound, pending) = (buffer.effective_byte_bound()?, buffer.pending_bytes());
            (pending > bound.max(piece)).then_some((si, pending, bound))
        });
        if let Some((si, pending, bound)) = over {
            self.buffer_bound_flagged = true;
            self.violation(
                invariant::BUFFER_BOUND,
                format!(
                    "slot {si}: {pending} buffered bytes exceed bound {bound} (one {piece}-byte piece allowed) at t={}us",
                    self.now.0
                ),
            );
        }
    }

    /// Drains the system to a settled state and evaluates the whole
    /// invariant catalog.
    fn quiesce(&mut self) {
        self.quiesces += 1;
        // 1. Run out every armed fault window (disconnected slots'
        // indefinite outages excluded — those never end).
        let mut horizon = SimTime(0);
        for s in &self.slots {
            if s.connected {
                horizon = horizon.max(s.plan.windows_end());
            }
        }
        let target = horizon.max(self.now) + SimDuration::from_millis(50);
        while self.now < target {
            let remaining = SimDuration(target.0 - self.now.0);
            self.pump(remaining.min(RUNOUT_STEP));
        }
        // 2. Swap every connected slot to a clean plan.
        for si in 0..self.slots.len() {
            if self.slots[si].connected && !self.slots[si].plan.is_clean() {
                self.deliver_held(si);
                self.slots[si].plan = PlanSpec::default();
                self.rearm_plan(si);
            }
        }
        // 3. A connected slot starved dead by its own fault windows
        // is revived by a full reattach (the tracker's Dead verdict
        // latches by design). Unexcused death is a liveness bug.
        for si in 0..self.slots.len() {
            let id = self.slots[si].id;
            if self.slots[si].connected
                && !self.manager.session().client_quarantined(id)
                && self.manager.session().client_dead(id)
            {
                if !self.slots[si].outage_excused {
                    self.violation(
                        invariant::LIVENESS,
                        format!("slot {si}: connected client declared dead with no outage armed"),
                    );
                }
                self.hard_reattach(si);
            }
        }
        // 4. Settle: repay refresh debt and pump until every healthy
        // client has nothing owed, nothing queued and nothing stale.
        let mut settled = false;
        for _ in 0..MAX_SETTLE {
            let screen = self.store.screen().clone();
            self.manager.session_mut().repay_refreshes(&screen);
            self.pump(SETTLE_STEP);
            if self.is_settled() {
                settled = true;
                break;
            }
        }
        if !settled {
            let detail = self.debt_detail();
            self.violation(invariant::REFRESH_DEBT, detail);
        }
        // 5. Scaled viewports converge per-resync, not per-command:
        // incremental scaled fills can differ from the one-shot
        // scaled snapshot by edge rounding, so the contract (set by
        // the device-switch path) is byte-exactness *after a resync*.
        // Identity clients skip this and are held to raw incremental
        // exactness — which is why the sabotage hook targets them.
        let mut resynced = false;
        for s in &self.slots {
            if s.connected
                && !self.manager.session().client_quarantined(s.id)
                && s.viewport != (self.width, self.height)
            {
                self.manager
                    .session_mut()
                    .resync_client(s.id, self.store.screen());
                resynced = true;
            }
        }
        if resynced {
            for _ in 0..MAX_SETTLE {
                self.pump(SETTLE_STEP);
                if self.is_settled() {
                    break;
                }
            }
        }
        // 6. Evaluate the checkpoint invariants.
        self.check_liveness();
        self.check_convergence();
        self.check_cache_coherence();
        self.check_telemetry();
        self.check_quarantine();
        self.check_failover_fidelity();
        // 7. The drained system starts the next epoch unexcused.
        for s in &mut self.slots {
            s.outage_excused = false;
        }
    }

    /// What still keeps a connected, healthy slot from being settled
    /// (`None` when nothing does): something owed or queued on the
    /// server, a stale display, undecoded bytes in the reader — work
    /// in flight, or a wedged frame the stall watchdog has yet to
    /// clear — or a ladder below `Full` (a degraded client is served
    /// subsampled frames and cannot converge byte-exact; clean settle
    /// pumps are healthy epochs, so promotion is a matter of
    /// iterations).
    fn unsettled(&self, s: &Slot) -> Option<String> {
        if !s.connected || self.manager.session().client_quarantined(s.id) {
            return None;
        }
        let d = self.viewer(s.id)?;
        let (backlog, owed, debt) = (d.buffer().len(), d.refresh_owed(), d.has_debt());
        let (fb, level) = (d.buffer().fallbacks_pending(), d.degradation_level());
        let (stale, pending) = (s.stream.needs_refresh(), s.stream.pending_bytes());
        let busy = backlog != 0 || owed || debt || fb != 0 || stale || pending != 0;
        (busy || level != DegradationLevel::Full).then(|| {
            format!(
                "backlog={backlog} owed={owed} overflow={debt} fallbacks={fb} stale={stale} pending={pending} level={level:?}"
            )
        })
    }

    fn is_settled(&self) -> bool {
        self.slots.iter().all(|s| self.unsettled(s).is_none())
    }

    fn debt_detail(&self) -> String {
        let parts: Vec<String> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(si, s)| Some(format!("slot {si}: {}", self.unsettled(s)?)))
            .collect();
        format!(
            "debt still outstanding after {} settle pumps: {}",
            MAX_SETTLE,
            parts.join("; ")
        )
    }

    fn check_liveness(&mut self) {
        let mut found = Vec::new();
        for (si, s) in self.slots.iter().enumerate() {
            if self.manager.session().client_quarantined(s.id) {
                continue;
            }
            let dead = self.manager.session().client_dead(s.id);
            if s.connected && dead {
                found.push(format!(
                    "slot {si}: connected client still dead after quiesce settle"
                ));
            }
            if !s.connected {
                let long_gone = s
                    .disconnected_at
                    .map(|t| self.now.since(t) > LIVENESS_TIMEOUT)
                    .unwrap_or(false);
                if long_gone && !dead {
                    found.push(format!(
                        "slot {si}: disconnected past the timeout but not declared dead"
                    ));
                }
            }
        }
        for d in found {
            self.violation(invariant::LIVENESS, d);
        }
    }

    fn check_convergence(&mut self) {
        let mut found = Vec::new();
        for (si, s) in self.slots.iter().enumerate() {
            if !s.connected || self.manager.session().client_quarantined(s.id) {
                continue;
            }
            let fb = s.stream.client().framebuffer();
            let (vw, vh) = s.viewport;
            let expected = if (vw, vh) == (self.width, self.height) {
                self.store.screen().data().to_vec()
            } else {
                self.scaled_reference(vw, vh)
            };
            if fb.data() != expected.as_slice() {
                let diff = fb
                    .data()
                    .iter()
                    .zip(&expected)
                    .filter(|(a, b)| a != b)
                    .count();
                let m = s.stream.resilience_metrics();
                found.push(format!(
                    "slot {si}: framebuffer diverges from the screen in {diff} byte(s) ({}x{} viewport) \
                     [stale={} pending={} crc={} gaps={} decode_err={} resyncs={}]",
                    vw,
                    vh,
                    s.stream.needs_refresh(),
                    s.stream.pending_bytes(),
                    m.crc_failures(),
                    m.seq_gaps(),
                    m.decode_errors(),
                    m.stream_resyncs(),
                ));
            }
        }
        for d in found {
            self.violation(invariant::CONVERGENCE, d);
        }
    }

    /// What a scaled client must hold: the authoritative screen
    /// pushed through the slot's scale policy in one shot.
    fn scaled_reference(&self, vw: u32, vh: u32) -> Vec<u8> {
        let screen = self.store.screen();
        let (clip, data) = screen.get_raw(&Rect::new(0, 0, self.width, self.height));
        let snapshot = DisplayCommand::Raw {
            rect: clip,
            encoding: RawEncoding::None,
            data: data.into(),
        };
        let mut reference = ThincClient::new(vw, vh, FORMAT);
        if let Some(cmd) =
            ScalePolicy::new(self.width, self.height, vw, vh).transform(&snapshot, screen)
        {
            reference.apply(&Message::Display(cmd));
        }
        reference.framebuffer().data().to_vec()
    }

    fn check_cache_coherence(&mut self) {
        let mut found = Vec::new();
        for (si, s) in self.slots.iter().enumerate() {
            if !s.connected || self.manager.session().client_quarantined(s.id) {
                continue;
            }
            if s.mirror_intact {
                let ledger = self.viewer(s.id).map_or_else(Vec::new, |d| d.buffer().cache_keys());
                let store = s.stream.cache_store().keys();
                if ledger != store {
                    found.push(format!(
                        "slot {si}: ledger holds {} key(s), store {} — lockstep eviction broke on an undamaged wire",
                        ledger.len(),
                        store.len()
                    ));
                }
            }
            // Conservation holds even through damage: a client can
            // only resolve references the server actually sent. A
            // failover resets the server's counters, so the check is
            // per server incarnation — hits above the baseline
            // recorded at redial, against refs the standby served.
            let client_hits = s
                .stream
                .resilience_metrics()
                .cache_hits()
                .saturating_sub(s.cache_hits_base);
            let refs_served = self
                .viewer(s.id)
                .map_or(0, |d| d.resilience_metrics().cache_hits());
            if client_hits > refs_served {
                found.push(format!(
                    "slot {si}: client resolved {client_hits} cache refs but the server only sent {refs_served}"
                ));
            }
        }
        for d in found {
            self.violation(invariant::CACHE_COHERENCE, d);
        }
    }

    fn check_telemetry(&mut self) {
        let mut found = Vec::new();
        for (si, s) in self.slots.iter().enumerate() {
            let m = s.stream.resilience_metrics();
            if m.resyncs_triggered() > m.seq_gaps() {
                found.push(format!(
                    "slot {si}: {} gap-triggered resyncs but only {} sequence gaps",
                    m.resyncs_triggered(),
                    m.seq_gaps()
                ));
            }
            if m.stream_resyncs() != m.decode_errors() {
                found.push(format!(
                    "slot {si}: {} stream resyncs vs {} decode errors — each error must resync exactly once",
                    m.stream_resyncs(),
                    m.decode_errors()
                ));
            }
            if let Some(link) = self.manager.link_mut(s.id) {
                let st = link.0.fault_stats();
                let lost = s.history.link.segments_lost + st.segments_lost;
                let retx = s.history.link.retransmits + st.retransmits;
                if lost != retx {
                    found.push(format!(
                        "slot {si}: {lost} segments lost vs {retx} retransmits — loss accounting leaked"
                    ));
                }
            }
            let pings = self
                .viewer(s.id)
                .map_or(0, |d| d.resilience_metrics().pings_sent());
            if s.pongs_routed > pings {
                found.push(format!(
                    "slot {si}: routed {} pongs upstream but the server only sent {pings} pings",
                    s.pongs_routed
                ));
            }
        }
        for d in found {
            self.violation(invariant::TELEMETRY, d);
        }
    }

    /// Failover-fidelity at quiesce: the settled system's checkpoint
    /// image restores, and re-checkpointing the restored standby
    /// against the same screen reproduces the image byte-for-byte.
    /// The surviving image becomes the warm standby's state for the
    /// next [`ChaosEvent::Failover`].
    fn check_failover_fidelity(&mut self) {
        let image = self.manager.session().checkpoint(self.store.screen());
        match SharedSession::restore(&image) {
            Ok(restored) => {
                let again = restored.checkpoint(self.store.screen());
                if again != image {
                    self.violation(
                        invariant::FAILOVER,
                        format!(
                            "checkpoint does not round-trip: {}-byte image re-encodes to {} bytes (or differs in content)",
                            image.len(),
                            again.len()
                        ),
                    );
                }
            }
            Err(e) => {
                self.violation(
                    invariant::FAILOVER,
                    format!("settled session checkpoint failed to restore: {e}"),
                );
            }
        }
        self.last_checkpoint = Some(image);
    }

    fn check_quarantine(&mut self) {
        let mut found = Vec::new();
        let mut expected = 0usize;
        for (si, s) in self.slots.iter().enumerate() {
            let q = self.manager.session().client_quarantined(s.id);
            let panics = self
                .viewer(s.id)
                .map_or(0, |d| d.resilience_metrics().panics_quarantined());
            if s.poisoned {
                expected += 1;
                if !q {
                    found.push(format!(
                        "slot {si}: flush was poisoned but the client was never quarantined"
                    ));
                }
                if panics != 1 {
                    found.push(format!(
                        "slot {si}: quarantine recorded {panics} panic(s), expected exactly 1"
                    ));
                }
            } else {
                if q {
                    found.push(format!(
                        "slot {si}: quarantined without a poisoned flush — containment leaked"
                    ));
                }
                if panics != 0 {
                    found.push(format!(
                        "slot {si}: {panics} panic(s) recorded on a healthy client"
                    ));
                }
            }
        }
        let actual = self.manager.session().quarantined_count();
        if actual != expected {
            found.push(format!(
                "session reports {actual} quarantined client(s), schedule poisoned {expected}"
            ));
        }
        for d in found {
            self.violation(invariant::QUARANTINE, d);
        }
    }
}

/// Folds a pipe's injected-fault tallies into a resilience group, by
/// field name (`every_fault_row_is_folded` holds it to [`FaultStats`]).
fn fold_link(into: &mut ResilienceMetrics, s: FaultStats) {
    into.merge(&ResilienceMetrics {
        segments_lost: s.segments_lost,
        retransmits: s.retransmits,
        corrupt_events: s.corrupt_events,
        corrupted_bytes: s.corrupted_bytes,
        outage_defers: s.outage_defers,
        collapsed_rounds: s.collapsed_rounds,
        segments_reordered: s.segments_reordered,
        segments_duplicated: s.segments_duplicated,
        ..ResilienceMetrics::default()
    });
}

/// Clips an event rectangle into the screen; `None` when nothing of
/// it can land (events are removal-tolerant, not panicky).
fn clamp_rect(x: i32, y: i32, w: u32, h: u32, sw: u32, sh: u32) -> Option<Rect> {
    if sw == 0 || sh == 0 {
        return None;
    }
    let x = x.clamp(0, sw as i32 - 1);
    let y = y.clamp(0, sh as i32 - 1);
    let w = w.clamp(1, (sw as i32 - x) as u32);
    let h = h.clamp(1, (sh as i32 - y) as u32);
    Some(Rect::new(x, y, w, h))
}

/// Deterministic pixel payload for a rect: `seed` alone selects the
/// bytes, so equal (seed, size) pairs repeat byte-identically.
fn pattern_bytes(seed: u64, rect: &Rect) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed ^ 0x005E_ED0F_BEEF);
    (0..(rect.w as usize * rect.h as usize * 3))
        .map(|_| (rng.next_u64() >> 24) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_are_deterministic() {
        let s = crate::generate::generate(0xDECAF, 40);
        let a = run(&s);
        let b = run(&s);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.quiesces, b.quiesces);
        assert_eq!(a.slots_attached, b.slots_attached);
    }

    #[test]
    fn every_fault_row_is_folded() {
        // Exhaustive on purpose: a field added to `FaultStats` fails to
        // compile here until the fold is given its row.
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
        fold_link(&mut m, stats);
        assert_eq!(m.values().iter().sum::<u64>(), 36);
    }
}
