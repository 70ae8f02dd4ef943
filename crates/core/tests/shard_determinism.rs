//! Shard-determinism property suite: for any client set and workload,
//! the sharded manager produces bit-identical per-client wire streams
//! for every shard count and every worker count — including mid-run
//! attach and disconnect — and the encode-once plane produces the
//! same number of distinct wire forms no matter how the clients are
//! partitioned.
//!
//! The workspace is dependency-free, so this is a hand-rolled,
//! seeded property test: each seed generates a random client
//! population and drawing schedule, runs it under every
//! (shards, workers) combination, and compares the full streams.

use thinc_core::session::{ClientId, Credentials};
use thinc_core::{ShardedManager, SharedSession};
use thinc_display::drawable::DrawableStore;
use thinc_display::driver::VideoDriver;
use thinc_display::SCREEN;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_raster::{Color, PixelFormat, Rect, YuvFormat, YuvFrame};

const W: u32 = 160;
const H: u32 = 120;

/// Splitmix-style LCG; the only randomness source in the suite.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn noise(len: usize, seed: u64) -> Vec<u8> {
    let mut r = Rng(seed | 1);
    (0..len).map(|_| r.next() as u8).collect()
}

fn link(rng: &mut Rng) -> (TcpPipe, PacketTrace) {
    // A mix of LAN-ish and WAN-ish pipes, chosen deterministically
    // from the schedule stream so every configuration sees the same
    // link for the same client.
    let lan = rng.below(2) == 0;
    (
        TcpPipe::new(TcpParams {
            bandwidth_bps: if lan { 20_000_000 } else { 3_000_000 },
            rtt: SimDuration::from_millis(if lan { 2 } else { 40 }),
            sndbuf_bytes: 16 * 1024,
            ..TcpParams::default()
        }),
        PacketTrace::new(),
    )
}

fn viewport(rng: &mut Rng) -> (u32, u32) {
    // Two thirds identity (same screen), the rest scaled — so the
    // plane sees both the broadcast-identical class and per-policy
    // transformed classes.
    match rng.below(3) {
        0 => (W / 2, H / 2),
        _ => (W, H),
    }
}

fn attach_peer(m: &mut ShardedManager, n: &mut usize, rng: &mut Rng) -> ClientId {
    let (vw, vh) = viewport(rng);
    let l = link(rng);
    *n += 1;
    m.attach(
        &Credentials::Peer {
            user: format!("peer{n}"),
            password: "pw".into(),
        },
        vw,
        vh,
        l,
    )
    .expect("peer attach")
}

/// One random drawing step against the session.
fn draw(s: &mut SharedSession, store: &DrawableStore, rng: &mut Rng) {
    let x = rng.below((W - 64) as u64) as i32;
    let y = rng.below((H - 48) as u64) as i32;
    match rng.below(4) {
        0 => {
            // Large RAW: above both the compression floor and the
            // plane's minimum payload, so it exercises encode-once.
            let r = Rect::new(x, y, 64, 48);
            s.put_image(store, SCREEN, r, &noise(64 * 48 * 3, rng.next()));
        }
        1 => {
            let r = Rect::new(x, y, 32 + rng.below(32) as u32, 24);
            s.solid_fill(
                store,
                SCREEN,
                r,
                Color::rgb(rng.next() as u8, rng.next() as u8, rng.next() as u8),
            );
        }
        2 => {
            let r = Rect::new(x, y, 32, 16);
            s.stipple_fill(
                store,
                SCREEN,
                r,
                &noise(4 * 16, rng.next()),
                Color::BLACK,
                Some(Color::WHITE),
            );
        }
        _ => {
            s.copy_area(store, SCREEN, SCREEN, Rect::new(0, 0, 48, 32), x, y);
        }
    }
}

struct RunOutput {
    /// Per-client streams, ascending id, concatenated across epochs.
    streams: Vec<(ClientId, Vec<(SimTime, Message)>)>,
    /// Total distinct wire forms the plane produced (sum over shards).
    encodes: u64,
    /// Total plane-served sends (sum over shards).
    shared_sends: u64,
}

/// Drives one full scenario for `seed` under a given partitioning and
/// worker count. Everything that shapes the workload is derived from
/// `seed` alone, so two runs with different (shards, workers) see the
/// same clients, links, drawing schedule, and attach/detach times.
fn run(seed: u64, shards: usize, workers: usize) -> RunOutput {
    let mut rng = Rng(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1);
    let mut session = SharedSession::new(W, H, PixelFormat::Rgb888, "host").with_workers(workers);
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, shards);
    let mut peers = 0usize;
    m.attach(&Credentials::Owner { user: "host".into() }, W, H, link(&mut rng))
        .expect("owner attach");
    let initial = 6 + rng.below(6) as usize;
    for _ in 0..initial {
        attach_peer(&mut m, &mut peers, &mut rng);
    }
    let store = DrawableStore::new(W, H, PixelFormat::Rgb888);

    let mut out: Vec<(ClientId, Vec<(SimTime, Message)>)> = Vec::new();
    let collect = |epoch: Vec<(ClientId, Vec<(SimTime, Message)>)>,
                       out: &mut Vec<(ClientId, Vec<(SimTime, Message)>)>| {
        for (id, msgs) in epoch {
            match out.iter_mut().find(|(cid, _)| *cid == id) {
                Some((_, all)) => all.extend(msgs),
                None => out.push((id, msgs)),
            }
        }
    };

    let epochs = 14 + rng.below(6);
    let mut now = SimTime(1_000);
    for epoch in 0..epochs {
        for _ in 0..1 + rng.below(3) {
            draw(m.session_mut(), &store, &mut rng);
        }
        // A video frame every few epochs (drawn outside the schedule
        // stream, which it leaves as it was): one payload per scale
        // class queued by reference, and a viewer with nothing else
        // queued flushes it inline.
        if epoch % 4 == 2 {
            let planes = noise(YuvFormat::Yv12.frame_size(32, 24), seed ^ epoch);
            let frame = YuvFrame::from_data(YuvFormat::Yv12, 32, 24, planes);
            m.session_mut().video_display(&store, &frame, Rect::new(16, 16, 64, 48));
        }
        // Mid-run churn: a new viewer joins partway through, and an
        // established one disconnects a few epochs later.
        if epoch == 5 {
            attach_peer(&mut m, &mut peers, &mut rng);
        }
        if epoch == 9 {
            let ids = m.session().client_ids();
            let victim = ids[1 + rng.below((ids.len() - 1) as u64) as usize];
            assert!(m.detach(victim).is_some(), "victim attached");
        }
        collect(m.flush_epoch(now), &mut out);
        now = SimTime(now.0 + 6_000);
    }
    // Drain: no more drawing, flush until every surviving client's
    // backlog hits zero.
    for _ in 0..400 {
        if m.session()
            .client_ids()
            .iter()
            .all(|id| m.session().backlog(*id) == 0)
        {
            break;
        }
        collect(m.flush_epoch(now), &mut out);
        now = SimTime(now.0 + 6_000);
    }
    for id in m.session().client_ids() {
        assert_eq!(
            m.session().backlog(id),
            0,
            "seed={seed} shards={shards} workers={workers}: client {id:?} did not drain"
        );
    }
    out.sort_by_key(|(id, _)| *id);

    let (mut encodes, mut shared_sends) = (0, 0);
    for s in 0..m.shard_count() {
        encodes += m.shard_metrics(s).plane.encodes;
        shared_sends += m.shard_metrics(s).plane.shared_sends;
    }
    RunOutput { streams: out, encodes, shared_sends }
}

/// Core property: (shards, workers) never changes the bytes.
fn assert_invariant(seed: u64) {
    let reference = run(seed, 1, 1);
    let msgs: usize = reference.streams.iter().map(|(_, m)| m.len()).sum();
    assert!(
        msgs > 40,
        "seed={seed}: workload too small to be meaningful ({msgs} msgs)"
    );
    assert!(
        reference.shared_sends > 0,
        "seed={seed}: plane never engaged — workload has no shareable payloads"
    );
    for shards in [2usize, 8] {
        for workers in [1usize, 4] {
            let got = run(seed, shards, workers);
            assert_eq!(
                got.streams, reference.streams,
                "seed={seed}: streams diverge at shards={shards} workers={workers}"
            );
            assert_eq!(
                got.encodes, reference.encodes,
                "seed={seed}: plane encode count diverges at shards={shards} workers={workers}"
            );
            assert_eq!(
                got.shared_sends, reference.shared_sends,
                "seed={seed}: plane send count diverges at shards={shards} workers={workers}"
            );
        }
    }
    // And workers alone on the single-shard path.
    let got = run(seed, 1, 4);
    assert_eq!(got.streams, reference.streams, "seed={seed}: workers=4 single shard");
}

#[test]
fn random_populations_are_bit_identical_across_shard_and_worker_counts() {
    for seed in [3, 17, 92] {
        assert_invariant(seed);
    }
}

#[test]
fn churn_heavy_population_is_bit_identical() {
    // A seed chosen for a larger initial population (the `below(6)`
    // draw lands high), so the detach at epoch 9 removes a client
    // with real backlog.
    assert_invariant(0xFEED);
}

#[test]
fn plane_sharing_actually_amortizes_encodes() {
    // Sanity on the perf claim itself, not just determinism: with
    // identity viewports dominating, distinct wire forms must be far
    // fewer than plane-served sends.
    let r = run(42, 8, 4);
    assert!(
        r.encodes * 2 < r.shared_sends,
        "encodes={} not amortized over sends={}",
        r.encodes,
        r.shared_sends
    );
}
