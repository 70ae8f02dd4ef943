#![cfg(test)]
//! The planned flush against the plain one.
//!
//! A viewer that follows a class-mate's [`FlushPlan`] takes its parts
//! and wire forms from the plan instead of deriving them. The property
//! here holds that to mean nothing: a buffer flushed as follower of
//! another's plan and a twin of it flushed with the plan withheld must
//! be indistinguishable afterwards — same messages at the same times,
//! same statistics in every row, same ledger, same leftover queue —
//! whatever the pipes and ledgers of leader and follower are.

use proptest::prelude::*;
use thinc_net::tcp::TcpParams;
use thinc_net::time::SimDuration;
use thinc_protocol::commands::Tile;
use thinc_raster::{Color, Rect, Region};

use super::fit_tests::payload;
use super::*;
use crate::plane::WirePlane;

/// Six 64x48 sites on a grid tighter than they are wide, so that
/// neighbours overlap: later drawing clips earlier, COPY sources get
/// protected, transparent commands pick up dependencies.
fn site(at: u8) -> Rect {
    Rect::new(i32::from(at % 3) * 40, i32::from(at / 3) * 30, 64, 48)
}

#[derive(Debug, Clone)]
enum Step {
    /// A RAW at a site: `(payload kind, seed, site)`; see `payload`.
    Raw(u8, u8, u8),
    /// A run of scan-line RAWs down a site, which the queue merges: the
    /// buffers end up holding equal payloads in allocations of their own.
    Scan(u8, u8, u8),
    Sfill(u8, u8),
    Pfill(u8),
    /// `(site, transparent)`.
    Bitmap(u8, bool),
    /// `(from site, to site)`.
    Copy(u8, u8),
    /// Flush after this many microseconds.
    Flush(u64),
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3, 0u8..3, 0u8..6).prop_map(|(k, s, at)| Step::Raw(k, s, at)),
            (0u8..3, 0u8..3, 0u8..6).prop_map(|(k, s, at)| Step::Raw(k, s, at)),
            (0u8..3, 0u8..3, 0u8..6).prop_map(|(k, s, at)| Step::Raw(k, s, at)),
            (0u8..3, 0u8..6, 2u8..12).prop_map(|(s, at, rows)| Step::Scan(s, at, rows)),
            (0u8..6, 0u8..4).prop_map(|(at, c)| Step::Sfill(at, c)),
            (0u8..6).prop_map(Step::Pfill),
            (0u8..6, any::<bool>()).prop_map(|(at, t)| Step::Bitmap(at, t)),
            (0u8..6, 0u8..6).prop_map(|(from, to)| Step::Copy(from, to)),
            (0u64..20_000).prop_map(Step::Flush),
            (0u64..20_000).prop_map(Step::Flush),
        ],
        4..28,
    )
}

fn commands(step: &Step) -> Vec<DisplayCommand> {
    match *step {
        Step::Raw(kind, seed, at) => {
            let r = site(at);
            vec![payload(kind, seed, r.x, r.y, r.w, r.h)]
        }
        Step::Scan(seed, at, rows) => {
            let r = site(at);
            (0..i32::from(rows)).map(|row| payload(2, seed, r.x, r.y + row, r.w, 1)).collect()
        }
        Step::Sfill(at, c) => vec![DisplayCommand::Sfill { rect: site(at), color: Color::rgb(c, 9, 9) }],
        Step::Pfill(at) => vec![DisplayCommand::Pfill {
            rect: site(at),
            tile: Tile { width: 2, height: 2, pixels: vec![at; 12] },
        }],
        Step::Bitmap(at, transparent) => vec![DisplayCommand::Bitmap {
            rect: site(at),
            bits: vec![0xA5; 8 * 48],
            fg: Color::BLACK,
            bg: (!transparent).then_some(Color::WHITE),
        }],
        Step::Copy(from, to) => {
            let to = site(to);
            vec![DisplayCommand::Copy { src_rect: site(from), dst_x: to.x, dst_y: to.y }]
        }
        Step::Flush(_) => Vec::new(),
    }
}

struct Rig {
    buf: ClientBuffer,
    pipe: TcpPipe,
    trace: PacketTrace,
    planes: PlaneCounters,
    sent: Vec<(SimTime, Message)>,
}

impl Rig {
    /// A buffer behind a pipe with `sndbuf` bytes of socket space that
    /// has already delivered one RAW to every site — `Step::Raw(kind,
    /// seed, _)` with `seen` = `kind * 3 + seed` — so that with a cache,
    /// ledgers differ between rigs built with different `seen` — and
    /// then `ahead` small fills more, so that its queue numbers
    /// everything after that much higher.
    fn new(sndbuf: u64, budget: Option<u64>, seen: u8, ahead: u8) -> Self {
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        if let Some(budget) = budget {
            buf.enable_cache(budget);
        }
        let roomy = TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() };
        let raws = (0..6).map(|at| {
            let r = site(at);
            payload(seen / 3, seen % 3, r.x, r.y, r.w, r.h)
        });
        let fills = (0..ahead).map(|_| DisplayCommand::Sfill { rect: site(0), color: Color::WHITE });
        for cmd in raws.chain(fills) {
            buf.push(cmd, false);
            buf.flush(SimTime::ZERO, &mut TcpPipe::new(roomy), &mut PacketTrace::new());
            assert!(buf.is_empty());
        }
        let pipe = TcpPipe::new(TcpParams {
            bandwidth_bps: 20_000_000,
            rtt: SimDuration::from_millis(2),
            sndbuf_bytes: sndbuf,
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        });
        Self {
            buf,
            pipe,
            trace: PacketTrace::new(),
            planes: PlaneCounters::default(),
            sent: Vec::new(),
        }
    }

    fn flush(&mut self, now: SimTime, store: &mut FormStore, role: &PlanRole) {
        let (pipe, trace) = (&mut self.pipe, &mut self.trace);
        let batch = self.buf.flush_planned(now, pipe, trace, store, &mut self.planes, role);
        self.sent.extend(batch);
    }

    fn observed(&self) -> Observed<'_> {
        let ledger = self
            .buf
            .cache
            .as_ref()
            .map(|c| c.ledger.iter_lru().map(|(key, size, _)| (key, size)).collect())
            .unwrap_or_default();
        Observed {
            sent: &self.sent,
            stats: self.buf.stats(),
            wire: self.buf.protocol_metrics(),
            latency: self.buf.scheduler_metrics(),
            planes: self.planes,
            ledger,
            cache_counts: self.buf.resilience_counts(),
            queued: self
                .buf
                .queue
                .entries()
                .iter()
                .map(|e| (e.seq, &e.cmd, e.class, &e.visible, e.tag))
                .collect(),
            next_seq: self.buf.queue.next_seq(),
            order: (&self.buf.realtime, &self.buf.queues),
        }
    }
}

/// Everything a flush leaves behind.
#[derive(Debug, PartialEq)]
struct Observed<'a> {
    sent: &'a [(SimTime, Message)],
    stats: BufferStats,
    wire: &'a ProtocolMetrics,
    latency: &'a SchedulerMetrics,
    planes: PlaneCounters,
    /// Ledger `(key, size)` from least to most recently used.
    ledger: Vec<(u64, u64)>,
    cache_counts: thinc_telemetry::ResilienceMetrics,
    queued: Vec<(u64, &'a DisplayCommand, OverwriteClass, &'a Region, Sched)>,
    next_seq: u64,
    order: (&'a VecDeque<u64>, &'a [VecDeque<u64>; NUM_QUEUES]),
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn planned_flush_is_the_reference_flush(
        script in steps(),
        lead_sndbuf in 0usize..5,
        other_sndbuf in 0usize..5,
        same_pipe in any::<bool>(),
        budget_pick in 0usize..3,
        lead_seen in 0u8..9,
        follow_seen in 0u8..9,
        follow_ahead in 0u8..3,
    ) {
        // Half the time the follower's pipe is the leader's.
        let follow_sndbuf = if same_pipe { lead_sndbuf } else { other_sndbuf };
        // From a pipe that misfits every RAW to one that never does.
        let sndbuf = |pick: usize| [2u64, 5, 11, 40, 256][pick] * 1024;
        // No cache, one that evicts, one that never does.
        let budget = [None, Some(24u64), Some(4096)][budget_pick].map(|kb| kb * 1024);
        // The leader and the follower of its plans, and their twins:
        // the same two buffers flushing with every plan withheld.
        let lead = |seen| Rig::new(sndbuf(lead_sndbuf), budget, seen, 0);
        let follow = |seen| Rig::new(sndbuf(follow_sndbuf), budget, seen, follow_ahead);
        let (mut leader, mut follower) = (lead(lead_seen), follow(follow_seen));
        let (mut plain_leader, mut plain_follower) = (lead(lead_seen), follow(follow_seen));
        // Each pair is a session of two with a form store of its own,
        // kept within the budget across rounds.
        let (mut planned_store, mut plain_store) = (FormStore::default(), FormStore::default());
        let mut now = SimTime(1_000);
        let mut followed = 0;
        let mut flushes = 0;
        let drain = std::iter::repeat_n(Step::Flush(15_000), 200);
        for step in script.iter().cloned().chain(drain) {
            let Step::Flush(after_us) = step else {
                for cmd in commands(&step) {
                    for rig in [&mut leader, &mut follower, &mut plain_leader, &mut plain_follower] {
                        rig.buf.set_time(now);
                        rig.buf.push(cmd.clone(), false);
                    }
                }
                continue;
            };
            now += SimDuration::from_micros(after_us);
            // One round's plans, as a session makes them; what the
            // follower's twin finds in its store is what the follower
            // is handed: the leader's forms.
            let mut plans = WirePlane::default();
            let role = plans.resolve(&leader.buf, now);
            prop_assert!(!matches!(role, PlanRole::Follow(_)));
            leader.flush(now, &mut planned_store, &role);
            let role = plans.resolve(&follower.buf, now);
            if flushes == 0 && !follower.buf.is_empty() {
                // Nothing has told the two apart yet.
                prop_assert!(matches!(role, PlanRole::Follow(_)));
            }
            followed += u32::from(matches!(role, PlanRole::Follow(_)));
            flushes += 1;
            follower.flush(now, &mut planned_store, &role);
            plain_leader.flush(now, &mut plain_store, &PlanRole::Alone);
            plain_follower.flush(now, &mut plain_store, &PlanRole::Alone);
            planned_store.end_round(budget);
            plain_store.end_round(budget);
            prop_assert_eq!(leader.observed(), plain_leader.observed());
            prop_assert_eq!(follower.observed(), plain_follower.observed());
        }
        prop_assert!(follower.buf.is_empty() && leader.buf.is_empty(), "script did not drain");
        // Equal pipes and ledgers never part: every round is followed.
        if lead_sndbuf == follow_sndbuf && (budget.is_none() || lead_seen == follow_seen) {
            let busy = plain_follower.sent.len();
            prop_assert!(followed > 0 || busy == 0, "in step throughout, never followed");
        }
    }
}

/// A buffer holding a tile of noise and two small fills.
fn three_queued(noise_seed: u8) -> ClientBuffer {
    numbered_from(0, noise_seed)
}

/// [`three_queued`] in a queue that has numbered `used` entries before.
fn numbered_from(used: u64, noise_seed: u8) -> ClientBuffer {
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    buf.queue = CommandQueue::from_parts(Vec::new(), used);
    buf.set_time(SimTime(500));
    buf.push(payload(1, noise_seed, 0, 0, 64, 48), false);
    buf.push(DisplayCommand::Sfill { rect: Rect::new(200, 0, 8, 8), color: Color::WHITE }, false);
    buf.push(DisplayCommand::Sfill { rect: Rect::new(300, 0, 8, 8), color: Color::BLACK }, false);
    buf
}

fn pair() -> (ClientBuffer, ClientBuffer) {
    (three_queued(1), three_queued(1))
}

#[test]
fn a_buffer_in_the_same_state_follows() {
    let (a, b) = pair();
    let mut plans = WirePlane::default();
    assert!(matches!(plans.resolve(&a, SimTime(900)), PlanRole::Lead(_)));
    assert!(matches!(plans.resolve(&b, SimTime(900)), PlanRole::Follow(_)));
    // So does one whose queue has numbered more entries in its time.
    assert!(matches!(plans.resolve(&numbered_from(7, 1), SimTime(900)), PlanRole::Follow(_)));
    // Nothing queued, nothing to share.
    assert!(matches!(plans.resolve(&ClientBuffer::new(), SimTime(900)), PlanRole::Alone));
}

#[test]
fn any_difference_in_the_state_matches_no_plan() {
    type Tweak = fn(&mut ClientBuffer);
    let tweaks: [(&str, Tweak); 4] = [
        ("visible", |b| {
            let e = b.queue.newest_mut().unwrap();
            e.visible = Region::from_rect(Rect::new(300, 0, 8, 4));
        }),
        ("enqueued", |b| b.queue.newest_mut().unwrap().tag.enqueued = SimTime(501)),
        ("deque order", |b| b.queues[0].swap(0, 1)),
        ("raw_compress_bpp", |b| b.raw_compress_bpp = Some(4)),
    ];
    for (what, tweak) in tweaks {
        let (a, mut b) = pair();
        tweak(&mut b);
        let mut plans = WirePlane::default();
        assert!(matches!(plans.resolve(&a, SimTime(900)), PlanRole::Lead(_)));
        assert!(matches!(plans.resolve(&b, SimTime(900)), PlanRole::Lead(_)), "{what}");
    }
    // The same buffer at another time, and another tile in its place.
    let (a, b) = pair();
    let mut plans = WirePlane::default();
    assert!(matches!(plans.resolve(&a, SimTime(900)), PlanRole::Lead(_)));
    assert!(matches!(plans.resolve(&b, SimTime(901)), PlanRole::Lead(_)), "now");
    assert!(matches!(plans.resolve(&three_queued(2), SimTime(900)), PlanRole::Lead(_)), "payload");
}

#[test]
fn a_leader_that_never_publishes_leaves_its_followers_to_flush_alone() {
    let (a, mut b) = pair();
    let (_, mut twin) = pair();
    let mut plans = WirePlane::default();
    let now = SimTime(900);
    let lead = plans.resolve(&a, now);
    assert!(matches!(lead, PlanRole::Lead(_)));
    // The leader panics before it publishes (its flush never runs).
    let role = plans.resolve(&b, now);
    assert!(matches!(role, PlanRole::Follow(_)));
    let params = TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() };
    let mut counters = PlaneCounters::default();
    let followed = b.flush_planned(
        now,
        &mut TcpPipe::new(params),
        &mut PacketTrace::new(),
        &mut FormStore::default(),
        &mut counters,
        &role,
    );
    let alone = twin.flush(now, &mut TcpPipe::new(params), &mut PacketTrace::new());
    assert_eq!(followed, alone);
    assert_eq!(followed.len(), 3);
}
