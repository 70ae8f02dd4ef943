//! Session resilience under injected network faults: seeded loss,
//! payload corruption, and a mid-session link outage with a liveness
//! timeout and reconnect-with-resync. The invariants under test are
//! the ISSUE acceptance criteria: the client converges byte-exact
//! with zero panics, the bounded buffer never exceeds its bound, and
//! the telemetry shows nonzero fault / eviction / reconnect counts.
//!
//! The fault seed can be overridden (for CI matrices) with
//! `THINC_FAULT_SEED=<u64>`.

use thinc::bench::thinc_system::pump_wire;
use thinc::client::{ReconnectConfig, ReconnectPolicy, StreamClient};
use thinc::core::degradation::{DegradationConfig, DegradationLevel};
use thinc::core::liveness::{LivenessConfig, LivenessVerdict};
use thinc::core::scaling::ScalePolicy;
use thinc::core::server::{ServerConfig, ThincServer};
use thinc::core::session::{ClientId, Credentials, SharedSession};
use thinc::core::ShardedManager;
use thinc::display::drawable::DrawableStore;
use thinc::display::request::DrawRequest;
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::fault::FaultPlan;
use thinc::net::link::NetworkConfig;
use thinc::net::tcp::TcpPipe;
use thinc::net::time::{SimDuration, SimTime};
use thinc::net::trace::PacketTrace;
use thinc::protocol::commands::{DisplayCommand, RawEncoding};
use thinc::protocol::message::Message;
use thinc::raster::{Color, PixelFormat, Rect};

const W: u32 = 128;
const H: u32 = 96;
const BUFFER_BOUND: u64 = 96 * 1024;

fn fault_seed() -> u64 {
    std::env::var("THINC_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        width: W,
        height: H,
        buffer_bound_bytes: Some(BUFFER_BOUND),
        av_bound: Some(64),
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs_f64(5.0),
            ping_interval: SimDuration::from_secs_f64(1.0),
        }),
        ..ServerConfig::default()
    }
}

/// A single-client server whose peer speaks revision 1: legacy
/// framing, no content cache — the wire these scenarios were written
/// against (`integrity_framing_survives_reorder_duplication_and_corruption`
/// is their revision-3 counterpart). Without a hello the server frames
/// at this build's revision from the start: attaching is the handshake.
fn legacy_server(config: ServerConfig) -> WindowServer<ThincServer> {
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(config));
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: 1,
        viewport_width: W,
        viewport_height: H,
    });
    ws
}

/// Noise image that defeats the RAW compressor (so the buffer bound
/// actually gets exercised).
fn noise(rect: Rect, salt: u64) -> DrawRequest {
    let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data: Vec<u8> = (0..(rect.w as usize * rect.h as usize * 3))
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as u8
        })
        .collect();
    DrawRequest::PutImage {
        target: SCREEN,
        rect,
        data,
    }
}

/// A stream client whose reconnection is driven by a seeded
/// [`ReconnectPolicy`] instead of the test harness.
fn policy_client(w: u32, h: u32) -> StreamClient {
    StreamClient::new(w, h, PixelFormat::Rgb888).with_reconnect_policy(ReconnectPolicy::new(
        ReconnectConfig {
            seed: fault_seed(),
            ..ReconnectConfig::default()
        },
    ))
}

/// One delivery round of the single-client server over real wire
/// bytes ([`pump_wire`]: frames encoded at the negotiated revision,
/// the link's disturbance model in between, recovery closed-loop
/// through the client's reconnect policy), enforcing the backlog
/// invariant.
fn pump(
    ws: &mut WindowServer<ThincServer>,
    link: &mut thinc::net::link::DuplexLink,
    trace: &mut PacketTrace,
    client: &mut StreamClient,
    now: SimTime,
) {
    pump_wire(ws, link, trace, client, now);
    assert!(
        ws.driver().viewer().buffer().pending_bytes() <= BUFFER_BOUND,
        "display backlog exceeded the bound at t={now:?}"
    );
}

/// A clean LAN downlink with an empty trace.
fn lan_link() -> (TcpPipe, PacketTrace) {
    (NetworkConfig::lan_desktop().connect().down, PacketTrace::new())
}

/// One stream client per viewer in `ids`, each past the session's
/// greeting (which upgrades its reader to the session's revision).
fn viewers(m: &mut ShardedManager, ids: &[ClientId], budget: u64) -> Vec<StreamClient> {
    let hello = m.session().hello();
    ids.iter()
        .map(|&id| {
            let mut c = policy_client(W, H).with_cache_budget(budget);
            c.feed(&m.session_mut().encode_frame(id, &hello));
            c
        })
        .collect()
}

/// One delivery round of a shared session over real wire bytes: flush
/// the epoch, frame each viewer's messages, carry them through its
/// link's disturbance model into its stream client, then hand the
/// session whatever the clients send back. Returns the framed bytes
/// shipped to each of `ids`.
fn pump_session(
    m: &mut ShardedManager,
    store: &DrawableStore,
    ids: &[ClientId],
    streams: &mut [StreamClient],
    now: SimTime,
) -> Vec<u64> {
    let mut shipped = vec![0; ids.len()];
    for (id, msgs) in m.flush_epoch(now) {
        let idx = ids.iter().position(|x| *x == id).unwrap();
        let frames: Vec<_> = msgs
            .iter()
            .map(|(arrival, msg)| (*arrival, m.session_mut().encode_frame(id, msg)))
            .collect();
        shipped[idx] += frames.iter().map(|(_, f)| f.len() as u64).sum::<u64>();
        for seg in m.link_mut(id).expect("attached").0.carry(frames) {
            streams[idx].feed(&seg);
        }
    }
    for (idx, &id) in ids.iter().enumerate() {
        for msg in streams[idx].take_uplink(now) {
            m.session_mut().handle_message(id, &msg, store.screen());
        }
    }
    shipped
}

fn drain(
    ws: &mut WindowServer<ThincServer>,
    link: &mut thinc::net::link::DuplexLink,
    trace: &mut PacketTrace,
    client: &mut StreamClient,
    mut now: SimTime,
) -> SimTime {
    for _ in 0..100_000 {
        pump(ws, link, trace, client, now);
        if ws.driver().display_backlog() == 0 && ws.driver().av_backlog() == 0 {
            break;
        }
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(2));
    }
    now
}

#[test]
fn seeded_loss_converges_byte_exact_without_resync() {
    // 8% injected loss: TCP retransmits absorb it — the stream is
    // intact, just slower, and the client converges with no recovery
    // action at all.
    let seed = fault_seed();
    let net = NetworkConfig::wan_desktop()
        .with_faults(FaultPlan::seeded(seed).with_loss(0.08));
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut ws = legacy_server(server_config());
    let mut client = policy_client(W, H);

    let mut now = SimTime::ZERO;
    for i in 0..40u64 {
        let x = (i as i32 * 11) % (W as i32 - 56);
        let y = (i as i32 * 7) % (H as i32 - 56);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 56, 56), seed ^ i));
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now += SimDuration::from_millis(30);
    }
    drain(&mut ws, &mut link, &mut trace, &mut client, now);

    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "client must converge byte-exact under loss"
    );
    let faults = link.down.fault_stats();
    assert!(faults.segments_lost > 0, "the loss plan must have fired");
    assert_eq!(faults.retransmits, faults.segments_lost);
    assert_eq!(client.resilience_metrics().decode_errors(), 0);
    assert!(!client.needs_refresh());
}

#[test]
fn corruption_window_is_survived_and_resync_restores_the_screen() {
    // A corruption window damages wire bytes mid-session (a broken
    // middlebox). The client skips the damage with typed errors —
    // never a panic — latches that it wants a refresh, and its
    // reconnect policy closes the loop: refresh requests flow
    // upstream until a server resync restores byte-exact content.
    let seed = fault_seed().wrapping_add(1);
    let corrupt_from = SimTime(50_000);
    let net = NetworkConfig::wan_desktop().with_faults(
        FaultPlan::seeded(seed).with_corruption(
            corrupt_from,
            SimDuration::from_millis(150),
            0.02,
        ),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut ws = legacy_server(server_config());
    let mut client = policy_client(W, H);

    let mut now = SimTime::ZERO;
    for i in 0..10u64 {
        let x = (i as i32 * 13) % (W as i32 - 32);
        let y = (i as i32 * 9) % (H as i32 - 32);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 32, 32), seed ^ i));
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now += SimDuration::from_millis(25);
    }
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);

    let faults = link.down.fault_stats();
    assert!(faults.corrupt_events > 0, "corruption window must fire");
    let m = client.resilience_metrics().clone();
    assert!(m.decode_errors() > 0, "damage must surface as typed errors");
    assert!(m.stream_resyncs() > 0);
    assert!(m.skipped_bytes() > 0);

    // Recovery is policy-driven: the decode errors latched
    // `needs_refresh`, the client's backoff schedule issues refresh
    // requests through `pump`, and the server resyncs. Keep pumping
    // past the corruption window until the coverage-tracked latch
    // clears — the harness never calls `resync` itself.
    let mut now = now.max(corrupt_from + SimDuration::from_millis(200));
    for _ in 0..500 {
        if !client.needs_refresh() && ws.driver().display_backlog() == 0 {
            break;
        }
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert!(
        !client.needs_refresh(),
        "the reconnect policy must have driven a covering resync"
    );
    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "resync must restore byte-exact content"
    );
    assert!(ws.driver().resilience_metrics().resyncs() >= 1);
}

#[test]
fn integrity_framing_survives_reorder_duplication_and_corruption() {
    // The hostile-transport scenario the integrity layer exists for:
    // after a version-2 handshake upgrades the session to checksummed
    // sequenced framing, a window of simultaneous byte corruption,
    // segment reordering and segment duplication hits the downlink.
    // CRC failures surface as typed errors (never a wrong pixel
    // command), duplicates are absorbed silently, gaps escalate
    // through the refresh-request path, and the session converges
    // byte-exact — with every cause attributed in the telemetry.
    use thinc::protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};

    let seed = fault_seed().wrapping_add(7);
    // Staggered windows: corruption first, then reordering and
    // duplication on an un-corrupted stretch — so each cause leaves
    // its own attributable trace (a swap inside the corruption window
    // would just fail CRC before sequence accounting ever saw it).
    let corrupt_at = SimTime(40_000);
    let corrupt_len = SimDuration::from_millis(60);
    let shuffle_at = SimTime(150_000);
    let shuffle_len = SimDuration::from_millis(1_850);
    let window_end = SimTime(2_050_000);
    let net = NetworkConfig::wan_desktop().with_faults(
        FaultPlan::seeded(seed)
            .with_corruption(corrupt_at, corrupt_len, 0.02)
            .with_reorder(shuffle_at, shuffle_len, 0.3)
            .with_duplication(shuffle_at, shuffle_len, 0.3),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(server_config()));
    let mut client = policy_client(W, H);

    // Handshake: ServerHello downstream (always legacy-framed, so it
    // decodes pre-negotiation), ClientHello upstream. Both sides
    // adopt integrity framing.
    let hello = ws.driver().hello();
    let hello_bytes = ws.driver_mut().encode_frame(&hello);
    client.feed(&hello_bytes);
    assert!(client.wire_revision() >= WIRE_REV_INTEGRITY);
    assert_eq!(client.wire_revision(), PROTOCOL_VERSION);
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: W,
        viewport_height: H,
    });
    assert_eq!(ws.driver().viewer().encoder().revision(), PROTOCOL_VERSION);
    assert!(ws.driver().cache_enabled(), "revision 3 activates the cache");

    // Draw through the disturbance windows.
    let mut now = SimTime::ZERO;
    for i in 0..70u64 {
        let x = (i as i32 * 13) % (W as i32 - 32);
        let y = (i as i32 * 9) % (H as i32 - 32);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 32, 32), seed ^ i));
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now += SimDuration::from_millis(25);
    }
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);

    // Every disturbance class must actually have fired on the link…
    let faults = link.down.fault_stats();
    assert!(faults.corrupt_events > 0, "corruption window must fire");
    assert!(faults.segments_reordered > 0, "reorder window must fire");
    assert!(faults.segments_duplicated > 0, "duplication window must fire");
    // …and be attributed per cause in the client's accounting.
    let m = client.resilience_metrics().clone();
    assert!(m.crc_failures() > 0, "damage must surface as CRC failures");
    assert!(m.seq_gaps() > 0, "dropped/reordered frames must gap the sequence");
    assert!(m.seq_dups() > 0, "duplicates/rollbacks must be counted");
    assert!(m.resyncs_triggered() > 0, "gaps must escalate to recovery");

    // Recovery is policy-driven through `pump`, exactly like the
    // corruption-only scenario: keep pumping past the window until
    // the coverage-tracked refresh latch clears.
    let mut now = now.max(window_end + SimDuration::from_millis(50));
    for _ in 0..500 {
        if !client.needs_refresh() && ws.driver().display_backlog() == 0 {
            break;
        }
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert!(
        !client.needs_refresh(),
        "the refresh-request path must have driven a covering resync"
    );
    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "client must converge byte-exact through reorder+dup+corruption"
    );
    assert!(ws.driver().resilience_metrics().resyncs() >= 1);
}

#[test]
fn cached_session_matches_uncached_and_reconnect_repays_debt_from_cache() {
    // Protocol revision 3: two sessions over identically-faulted
    // links draw the same repeating desktop content; one negotiates
    // the content-addressed cache, the other is pinned uncached. The
    // cache must be invisible to content (byte-identical final
    // framebuffers) while measurably cutting wire bytes — and the
    // client's store must survive a reconnect so the resync's refresh
    // debt can be repaid out of cache.
    use thinc::protocol::PROTOCOL_VERSION;
    let seed = fault_seed().wrapping_add(8);

    type Run = (
        WindowServer<ThincServer>,
        thinc::net::link::DuplexLink,
        PacketTrace,
        StreamClient,
        SimTime,
    );
    let run = |cached: bool| -> Run {
        let net = NetworkConfig::wan_desktop().with_faults(
            FaultPlan::seeded(seed).with_corruption(
                SimTime(40_000),
                SimDuration::from_millis(80),
                0.02,
            ),
        );
        let mut link = net.connect();
        let mut trace = PacketTrace::new();
        let config = ServerConfig {
            cache_budget_bytes: cached.then_some(4 * 1024 * 1024),
            ..server_config()
        };
        let mut ws =
            WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(config));
        let mut client = policy_client(W, H);
        let hello = ws.driver().hello();
        let bytes = ws.driver_mut().encode_frame(&hello);
        client.feed(&bytes);
        ws.driver_mut().handle_message(&Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: W,
            viewport_height: H,
        });
        assert_eq!(ws.driver().cache_enabled(), cached);

        // Four fixed tiles redrawn every round: desktop content
        // repeats, which is what the cache monetizes.
        let mut now = SimTime::ZERO;
        for _round in 0..6u64 {
            for slot in 0..4u64 {
                let x = slot as i32 * 32;
                let y = (slot as i32 % 3) * 24;
                ws.driver_mut().set_time(now);
                ws.process(noise(Rect::new(x, y, 24, 24), seed ^ slot));
                pump(&mut ws, &mut link, &mut trace, &mut client, now);
                now += SimDuration::from_millis(20);
            }
            now = drain(&mut ws, &mut link, &mut trace, &mut client, now);
        }
        // Pump past the corruption window until any latched refresh
        // has been covered by a policy-driven resync.
        let mut now = now.max(SimTime(200_000));
        for _ in 0..500 {
            if !client.needs_refresh() && ws.driver().display_backlog() == 0 {
                break;
            }
            pump(&mut ws, &mut link, &mut trace, &mut client, now);
            now = link.down.tx_free_at().max(now + SimDuration::from_millis(50));
        }
        assert!(!client.needs_refresh());
        (ws, link, trace, client, now)
    };

    let (mut ws_c, mut link_c, mut trace_c, mut client_c, now_c) = run(true);
    let (ws_u, _, _, client_u, _) = run(false);

    // Both converge; the cache is invisible to content.
    assert_eq!(client_c.client().framebuffer().data(), ws_c.screen().data());
    assert_eq!(client_u.client().framebuffer().data(), ws_u.screen().data());
    assert_eq!(ws_c.screen().data(), ws_u.screen().data(), "identical draws");
    assert_eq!(
        client_c.client().framebuffer().data(),
        client_u.client().framebuffer().data(),
        "cached and uncached sessions must render byte-identically"
    );
    // ...while measurably saving wire bytes.
    let m_c = ws_c.driver().resilience_metrics();
    assert!(m_c.cache_hits() > 0, "repeated tiles must travel as refs");
    assert!(m_c.cache_bytes_saved() > 0);
    assert_eq!(ws_u.driver().resilience_metrics().cache_hits(), 0);
    assert!(
        ws_c.driver().stats().buffer.sent_bytes < ws_u.driver().stats().buffer.sent_bytes,
        "references must shrink the display byte stream"
    );
    // Refs caught inside the corruption window are counted at send
    // time but never resolve (the frame fails CRC and recovery
    // repaints) — so the client resolves at most what was sent.
    let resolved = client_c.resilience_metrics().cache_hits();
    assert!(resolved > 0, "surviving refs must resolve client-side");
    assert!(resolved <= m_c.cache_hits());

    // Reconnect: the client's store deliberately survives the redial,
    // so the resync can repay refresh debt out of cache.
    assert!(!client_c.cache_store().lru().is_empty());
    client_c.reconnect();
    let mut now = now_c + SimDuration::from_secs_f64(1.0);
    for _ in 0..500 {
        if !client_c.needs_refresh() && ws_c.driver().display_backlog() == 0 {
            break;
        }
        pump(&mut ws_c, &mut link_c, &mut trace_c, &mut client_c, now);
        now = link_c.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert!(!client_c.needs_refresh(), "the reconnect resync must cover");
    assert_eq!(
        client_c.client().framebuffer().data(),
        ws_c.screen().data(),
        "reconnect with a persisted cache must converge byte-exact"
    );
    assert!(!client_c.cache_store().lru().is_empty(), "the store survived the redial");
}

#[test]
fn outage_timeout_reconnect_resyncs_byte_exact_with_bounded_backlog() {
    // Mid-session the link goes dark for 8 s — past the 5 s liveness
    // timeout. Updates keep arriving at the server, the bounded
    // buffer degrades gracefully (evicts stale, stays under bound),
    // the client is declared dead, and a reconnect + resync converges
    // byte-exact on a fresh link.
    let seed = fault_seed().wrapping_add(2);
    let outage_at = SimTime(100_000);
    let net = NetworkConfig::wan_desktop().with_faults(
        FaultPlan::seeded(seed)
            .with_loss(0.01)
            .with_outage(outage_at, SimDuration::from_secs_f64(8.0)),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut ws = legacy_server(server_config());
    let mut client = policy_client(W, H);

    // Healthy start.
    let mut now = SimTime::ZERO;
    ws.driver_mut().set_time(now);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, W, H),
        color: Color::rgb(20, 40, 60),
    });
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);

    // The outage begins; the session keeps drawing heavily. The
    // server's flush can't deliver (writes blocked), the backlog
    // grows, and the byte bound evicts stale commands instead of
    // letting memory run away.
    let mut dead_at = None;
    let mut saw_outage = false;
    let mut i = 0u64;
    while now < outage_at + SimDuration::from_secs_f64(7.0) {
        saw_outage |= link.down.is_down(now);
        let x = (i as i32 * 17) % (W as i32 - 64);
        let y = (i as i32 * 11) % (H as i32 - 64);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 64, 64), seed ^ i));
        i += 1;
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        if let LivenessVerdict::Dead = ws.driver_mut().poll_liveness(now) {
            dead_at = Some(now);
            break;
        }
        now += SimDuration::from_millis(200);
    }
    assert!(
        dead_at.is_some(),
        "silence through the outage must trip the liveness timeout"
    );
    assert!(ws.driver().viewer().is_dead());
    let server_m = ws.driver().resilience_metrics();
    assert!(server_m.liveness_timeouts() >= 1);
    assert!(server_m.pings_sent() >= 1, "the server must have probed first");
    assert!(
        server_m.overflow_evictions() > 0,
        "the bounded buffer must have evicted under outage backlog"
    );
    assert!(saw_outage, "the outage window must have gated the link");

    // Reconnect: fresh link (no outage), fresh wire state on the
    // client. `reconnect()` latches `needs_refresh` — a fresh link is
    // presumed stale — and the reconnect policy turns that into
    // refresh requests; the resync itself is server-answered inside
    // `pump`, not hand-driven by the harness.
    let mut link2 = NetworkConfig::wan_desktop().connect();
    let mut trace2 = PacketTrace::new();
    client.reconnect();
    let mut now = dead_at.unwrap() + SimDuration::from_secs_f64(1.0);
    ws.driver_mut().set_time(now);
    for _ in 0..500 {
        if !client.needs_refresh() && ws.driver().display_backlog() == 0 {
            break;
        }
        pump(&mut ws, &mut link2, &mut trace2, &mut client, now);
        now = link2.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert!(!ws.driver().viewer().is_dead(), "the resync revives the client");
    assert!(
        !client.needs_refresh(),
        "the policy-driven resync must have covered the viewport"
    );
    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "reconnected client must converge byte-exact"
    );
    assert_eq!(client.resilience_metrics().reconnects(), 1);
    assert!(ws.driver().resilience_metrics().resyncs() >= 1);
}

#[test]
fn device_switch_mid_outage_converges_on_the_new_viewport() {
    // The client dies mid-outage and the user walks to a different
    // device: a second client with a *smaller* viewport announces
    // itself. The viewport change drops the stale full-size pending
    // commands (they target the wrong coordinate space), the new
    // client's reconnect policy drives the resync, and the session
    // converges byte-exact on the scaled rendition of the screen.
    let seed = fault_seed().wrapping_add(4);
    let outage_at = SimTime(100_000);
    let net = NetworkConfig::wan_desktop().with_faults(
        FaultPlan::seeded(seed).with_outage(outage_at, SimDuration::from_secs_f64(8.0)),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut ws = legacy_server(server_config());
    let mut client = policy_client(W, H);

    let mut now = SimTime::ZERO;
    ws.driver_mut().set_time(now);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, W, H),
        color: Color::rgb(60, 20, 80),
    });
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);

    // Draw through the outage until the first device is declared dead.
    let mut dead_at = None;
    let mut i = 0u64;
    while now < outage_at + SimDuration::from_secs_f64(7.0) {
        let x = (i as i32 * 19) % (W as i32 - 48);
        let y = (i as i32 * 13) % (H as i32 - 48);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 48, 48), seed ^ i));
        i += 1;
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        if let LivenessVerdict::Dead = ws.driver_mut().poll_liveness(now) {
            dead_at = Some(now);
            break;
        }
        now += SimDuration::from_millis(200);
    }
    assert!(dead_at.is_some(), "the first device must time out");

    // The new device: half-size viewport, fresh link, fresh client.
    let (vw, vh) = (W / 2, H / 2);
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: 1,
        viewport_width: vw,
        viewport_height: vh,
    });
    assert!(!ws.driver().viewer().scale().is_identity());
    let mut link2 = NetworkConfig::wan_desktop().connect();
    let mut trace2 = PacketTrace::new();
    let mut client2 = policy_client(vw, vh);
    client2.reconnect();
    let mut now = dead_at.unwrap() + SimDuration::from_secs_f64(1.0);
    ws.driver_mut().set_time(now);
    for _ in 0..500 {
        if !client2.needs_refresh()
            && ws.driver().display_backlog() == 0
            && !ws.driver().viewer().has_debt()
        {
            break;
        }
        pump(&mut ws, &mut link2, &mut trace2, &mut client2, now);
        if ws.driver().viewer().has_debt() {
            let screen = ws.screen().clone();
            ws.driver_mut().repay_overflow_debt(&screen);
        }
        now = link2.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert!(!client2.needs_refresh(), "the resync must cover the new viewport");

    // Byte-exact against a one-shot scaled snapshot of the screen:
    // every delivered command was scaled exactly once into the new
    // viewport, stale full-size commands never leaked through.
    let screen = ws.screen();
    let (clip, data) = screen.get_raw(&Rect::new(0, 0, W, H));
    let snapshot = DisplayCommand::Raw {
        rect: clip,
        encoding: RawEncoding::None,
        data: data.into(),
    };
    let scaled = ScalePolicy::new(W, H, vw, vh)
        .transform(&snapshot, screen)
        .expect("full-screen snapshot survives scaling");
    let mut reference = thinc::client::ThincClient::new(vw, vh, PixelFormat::Rgb888);
    reference.apply(&Message::Display(scaled));
    assert_eq!(
        client2.client().framebuffer().data(),
        reference.framebuffer().data(),
        "new device must hold exactly the scaled screen"
    );

    // Attribution: the second device's reconnect and the server-side
    // resync(s) are visible in the metrics.
    assert_eq!(client2.resilience_metrics().reconnects(), 1);
    let server_m = ws.driver().resilience_metrics();
    assert!(server_m.resyncs() >= 1);
    assert!(server_m.liveness_timeouts() >= 1);
    assert_eq!(client.resilience_metrics().reconnects(), 0);
}

#[test]
fn adaptive_degradation_rides_out_a_collapse_and_recovers_byte_exact() {
    // A lossy WAN collapses to 5% capacity for two seconds. With the
    // adaptive controller on, the session measurably degrades
    // (telemetry-visible ladder steps, server-side scaling) instead
    // of drowning, then climbs back to full fidelity and converges
    // byte-exact — the full refresh owed by the promotion and any
    // resync are driven by the client's reconnect policy through
    // `pump`, never by the harness.
    let seed = fault_seed().wrapping_add(5);
    let collapse_at = SimTime(100_000);
    let net = NetworkConfig::lossy_wan().with_faults(
        FaultPlan::seeded(seed)
            .with_loss(0.02)
            .with_collapse(collapse_at, SimDuration::from_secs(2), 0.05),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let config = ServerConfig {
        degradation: Some(DegradationConfig {
            degrade_after: 1,
            promote_after: 2,
            ..DegradationConfig::default()
        }),
        ..server_config()
    };
    let mut ws = legacy_server(config);
    let mut client = policy_client(W, H);

    let mut now = SimTime::ZERO;
    ws.driver_mut().set_time(now);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, W, H),
        color: Color::rgb(10, 70, 40),
    });
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);
    assert_eq!(ws.driver().viewer().degradation_level(), DegradationLevel::Full);

    // Keep drawing through the collapse window: the ladder steps down.
    let mut deepest = DegradationLevel::Full;
    let mut i = 0u64;
    while now < collapse_at + SimDuration::from_secs_f64(1.5) {
        let x = (i as i32 * 23) % (W as i32 - 40);
        let y = (i as i32 * 7) % (H as i32 - 40);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 40, 40), seed ^ i));
        i += 1;
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        deepest = deepest.max(ws.driver().viewer().degradation_level());
        now += SimDuration::from_millis(100);
    }
    assert!(
        deepest > DegradationLevel::Full,
        "the collapse must push the ladder below full fidelity"
    );
    let mid = ws.driver().resilience_metrics();
    assert!(mid.degrade_steps() > 0, "degradation must be telemetry-visible");
    assert!(mid.max_degradation_level() >= 1);

    // The window clears: quiet flush epochs climb back to Full, the
    // promotion owes a refresh, and the session converges byte-exact.
    now = now.max(collapse_at + SimDuration::from_secs(2) + SimDuration::from_millis(100));
    for _ in 0..1000 {
        ws.driver_mut().set_time(now);
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        if ws.driver().viewer().degradation_level() == DegradationLevel::Full
            && ws.driver().display_backlog() == 0
            && !ws.driver().viewer().has_debt()
            && !client.needs_refresh()
        {
            break;
        }
        if ws.driver().viewer().has_debt() {
            let screen = ws.screen().clone();
            ws.driver_mut().repay_overflow_debt(&screen);
        }
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(100));
    }
    assert_eq!(ws.driver().viewer().degradation_level(), DegradationLevel::Full);
    let m = ws.driver().resilience_metrics();
    assert!(m.promote_steps() > 0, "recovery must be telemetry-visible");
    assert_eq!(m.degradation_level(), 0);

    // One more paint flushes through the repaid refresh.
    ws.driver_mut().set_time(now);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(4, 4, 24, 24),
        color: Color::rgb(220, 180, 40),
    });
    now = drain(&mut ws, &mut link, &mut trace, &mut client, now);
    for _ in 0..200 {
        if !client.needs_refresh() && ws.driver().display_backlog() == 0 {
            break;
        }
        pump(&mut ws, &mut link, &mut trace, &mut client, now);
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }
    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "session must recover byte-exact after the collapse"
    );
}

#[test]
fn shared_session_degrades_only_the_faulted_peer() {
    // Multi-client attribution: a shared session with a healthy owner
    // and a peer behind a collapse degrades *only the peer* — and the
    // outcome is identical for any flush worker count (override with
    // `THINC_FLUSH_WORKERS` in CI).
    use thinc::display::driver::VideoDriver;

    let workers: usize = std::env::var("THINC_FLUSH_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let seed = fault_seed().wrapping_add(6);
    let mut s = SharedSession::new(W, H, PixelFormat::Rgb888, "host")
        .with_degradation(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        })
        .with_workers(workers);
    s.auth_mut().enable_sharing("pw");
    let owner = s
        .attach(&Credentials::Owner { user: "host".into() }, W, H)
        .unwrap();
    let peer = s
        .attach(
            &Credentials::Peer {
                user: "guest".into(),
                password: "pw".into(),
            },
            W,
            H,
        )
        .unwrap();

    let mut store = DrawableStore::new(W, H, PixelFormat::Rgb888);
    let plan = FaultPlan::seeded(seed).with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
    let mut links = vec![
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        (
            NetworkConfig::lan_desktop().with_faults(plan).connect().down,
            PacketTrace::new(),
        ),
    ];

    store
        .screen_mut()
        .fill_rect(&Rect::new(0, 0, W, H), Color::rgb(80, 40, 120));
    s.solid_fill(&store, SCREEN, Rect::new(0, 0, W, H), Color::rgb(80, 40, 120));

    let secs = |t: f64| SimTime((t * 1e6) as u64);
    let mut streams: Vec<Vec<Message>> = vec![Vec::new(), Vec::new()];
    let collect = |streams: &mut Vec<Vec<Message>>,
                       out: Vec<(ClientId, Vec<(SimTime, Message)>)>| {
        for (id, msgs) in out {
            let idx = usize::from(id != owner);
            streams[idx].extend(msgs.into_iter().map(|(_, m)| m));
        }
    };
    for i in 0..3 {
        let out = s.flush_all(secs(0.1 * (i + 1) as f64), &mut links);
        collect(&mut streams, out);
    }
    assert_eq!(s.viewer(owner).unwrap().degradation_level(), DegradationLevel::Full);
    assert!(s.viewer(peer).unwrap().degradation_level() > DegradationLevel::Full);
    assert!(s.viewer(peer).unwrap().resilience_metrics().degrade_steps() > 0);
    assert_eq!(s.viewer(owner).unwrap().resilience_metrics().degrade_steps(), 0);

    // Past the window: the peer climbs back and both converge
    // byte-exact once the owed refresh is settled.
    for i in 0..4 {
        let out = s.flush_all(secs(1.5 + 0.1 * i as f64), &mut links);
        collect(&mut streams, out);
    }
    assert_eq!(s.viewer(peer).unwrap().degradation_level(), DegradationLevel::Full);
    let screen = store.screen().clone();
    s.repay_refreshes(&screen);
    for i in 0..50 {
        let out = s.flush_all(secs(3.0 + 0.2 * i as f64), &mut links);
        collect(&mut streams, out);
        if s.backlog(owner) == 0 && s.backlog(peer) == 0 {
            break;
        }
    }
    for stream in &streams {
        let mut c = thinc::client::ThincClient::new(W, H, PixelFormat::Rgb888);
        for m in stream {
            c.apply(m);
        }
        assert_eq!(c.framebuffer().data(), store.screen().data());
    }
}

#[test]
fn cache_degradation_reconnect_matrix_converges_with_lockstep_eviction() {
    // The three features the chaos engine exercises together, pinned
    // as a deterministic matrix: a content cache under two byte
    // budgets (one tight enough to force evictions), a peer driven
    // down the degradation ladder by a bandwidth collapse, and a soft
    // reconnect-with-resync — across the CI worker-count matrix
    // (`THINC_FLUSH_WORKERS`). After settling, both clients must hold
    // the screen byte-exact AND each client's content store must
    // mirror the server's per-client ledger key-for-key: collapse is
    // delay-only, so not one frame is lost and the strict
    // insert/eviction lockstep holds end to end.
    use thinc::display::driver::VideoDriver;

    let workers: usize = std::env::var("THINC_FLUSH_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // 8 KiB cannot hold even the four-tile palette, so both stores
    // must evict in lockstep; 256 KiB holds everything. Both budgets
    // must converge identically.
    for &budget in &[8 * 1024u64, 256 * 1024] {
        let seed = fault_seed().wrapping_add(budget);
        let mut s = SharedSession::new(W, H, PixelFormat::Rgb888, "host")
            .with_degradation(DegradationConfig {
                degrade_after: 1,
                promote_after: 1,
                ..DegradationConfig::default()
            })
            .with_cache(budget)
            .with_workers(workers);
        s.auth_mut().enable_sharing("pw");
        let mut m = ShardedManager::new(s, 1);
        let collapse = FaultPlan::seeded(seed).with_collapse(
            SimTime((0.5 * 1e6) as u64),
            SimDuration::from_secs_f64(1.0),
            0.05,
        );
        let owner = m
            .attach(&Credentials::Owner { user: "host".into() }, W, H, lan_link())
            .unwrap();
        let peer = m
            .attach(
                &Credentials::Peer {
                    user: "guest".into(),
                    password: "pw".into(),
                },
                W,
                H,
                (
                    NetworkConfig::lan_desktop().with_faults(collapse).connect().down,
                    PacketTrace::new(),
                ),
            )
            .unwrap();
        let ids = [owner, peer];

        let mut store = DrawableStore::new(W, H, PixelFormat::Rgb888);
        let mut streams = viewers(&mut m, &ids, budget);

        // A small palette of repeating payloads, so the cache sees
        // byte-identical repeats (refs) as well as fresh inserts.
        let tile = |idx: u64| -> (Rect, Vec<u8>) {
            let rect = Rect::new(((idx % 4) * 32) as i32, 16, 32, 24);
            let mut x = (0x7115_0000u64 | (idx % 4)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let data: Vec<u8> = (0..(32 * 24 * 3))
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) as u8
                })
                .collect();
            (rect, data)
        };
        let draw_tile = |m: &mut ShardedManager, store: &mut DrawableStore, idx: u64| {
            let (rect, data) = tile(idx);
            store.screen_mut().put_raw(&rect, &data);
            m.session_mut().put_image(store, SCREEN, rect, &data);
        };
        let secs = |t: f64| SimTime((t * 1e6) as u64);

        // Phase 1: healthy traffic establishes cache state on both.
        for i in 0..4u64 {
            draw_tile(&mut m, &mut store, i);
            pump_session(&mut m, &store, &ids, &mut streams, secs(0.1 * (i + 1) as f64));
        }
        // Phase 2: traffic through the peer's collapse window drives
        // it down the ladder (repeats of the palette travel as refs).
        for i in 0..8u64 {
            draw_tile(&mut m, &mut store, i);
            pump_session(&mut m, &store, &ids, &mut streams, secs(0.55 + 0.1 * i as f64));
        }
        let resilience = |m: &ShardedManager, id| m.session().viewer(id).unwrap().resilience_metrics();
        assert!(
            resilience(&m, peer).degrade_steps() > 0,
            "budget {budget}: the collapse must degrade the peer"
        );
        assert_eq!(
            resilience(&m, owner).degrade_steps(),
            0,
            "budget {budget}: the healthy owner never degrades"
        );
        // Phase 3: drain past the window, then softly reconnect the
        // peer: fresh pipe, wire state dropped, display and content
        // store survive, server resyncs.
        for i in 0..10 {
            pump_session(&mut m, &store, &ids, &mut streams, secs(1.6 + 0.1 * i as f64));
        }
        *m.link_mut(peer).unwrap() = lan_link();
        streams[1].reconnect();
        m.session_mut().resync_client(peer, store.screen());
        // Phase 4: post-reconnect traffic, then settle to quiescence.
        for i in 0..4u64 {
            draw_tile(&mut m, &mut store, i + 2);
            pump_session(&mut m, &store, &ids, &mut streams, secs(2.7 + 0.1 * i as f64));
        }
        let screen = store.screen().clone();
        for i in 0..120 {
            m.session_mut().repay_refreshes(&screen);
            pump_session(&mut m, &store, &ids, &mut streams, secs(3.2 + 0.1 * i as f64));
            let settled = ids.iter().enumerate().all(|(idx, &id)| {
                m.session().backlog(id) == 0
                    && m.session().viewer(id).unwrap().degradation_level() == DegradationLevel::Full
                    && !streams[idx].needs_refresh()
                    && streams[idx].pending_bytes() == 0
            });
            if settled {
                break;
            }
        }

        for (idx, &id) in ids.iter().enumerate() {
            let who = if id == owner { "owner" } else { "peer" };
            assert_eq!(
                streams[idx].client().framebuffer().data(),
                store.screen().data(),
                "budget {budget}: {who} must converge byte-exact"
            );
            assert_eq!(
                streams[idx].resilience_metrics().cache_misses(),
                0,
                "budget {budget}: collapse is delay-only, no entry may go missing"
            );
            let ledger = m.session().viewer(id).unwrap().buffer().cache_keys();
            let held = streams[idx].cache_store().keys();
            assert!(
                !held.is_empty(),
                "budget {budget}: {who} must be holding cached payloads"
            );
            assert_eq!(
                ledger, held,
                "budget {budget}: {who} ledger/store eviction lockstep must hold"
            );
        }
        assert!(
            streams[1].resilience_metrics().reconnects() >= 1,
            "budget {budget}: the peer redialed"
        );
        if budget == 8 * 1024 {
            for (idx, &id) in ids.iter().enumerate() {
                let who = if id == owner { "owner" } else { "peer" };
                assert!(
                    streams[idx].resilience_metrics().cache_evictions() > 0,
                    "budget {budget}: {who} store must have evicted under the tight budget"
                );
            }
        }
    }
}

#[test]
fn sharded_fanout_rides_out_collapse_and_converges_byte_exact() {
    // The resilience scenario on the fan-out path: a 12-viewer
    // broadcast driven through the session manager, with one peer
    // behind a bandwidth collapse. The worker count comes from
    // `THINC_FLUSH_WORKERS` (the CI matrix sweeps it) — the verdicts
    // and the final bytes must be identical for every count. Only the faulted peer
    // degrades; past the window it recovers, every viewer converges
    // byte-exact, and the encode-once plane must have amortized real
    // work across the population.
    use thinc::display::driver::VideoDriver;

    let workers: usize = std::env::var("THINC_FLUSH_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    const CLIENTS: usize = 12;
    const FAULTED: usize = 5;
    let seed = fault_seed().wrapping_add(99);

    let mut session = SharedSession::new(W, H, PixelFormat::Rgb888, "host")
        .with_degradation(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        })
        .with_workers(workers);
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, 1);
    let link = |faulted: bool| -> (TcpPipe, PacketTrace) {
        let pipe = if faulted {
            let plan = FaultPlan::seeded(seed).with_collapse(
                SimTime(200_000),
                SimDuration::from_secs(1),
                0.05,
            );
            NetworkConfig::lan_desktop().with_faults(plan).connect().down
        } else {
            NetworkConfig::lan_desktop().connect().down
        };
        (pipe, PacketTrace::new())
    };
    let owner = m
        .attach(&Credentials::Owner { user: "host".into() }, W, H, link(false))
        .unwrap();
    let mut ids = vec![owner];
    for i in 1..CLIENTS {
        ids.push(
            m.attach(
                &Credentials::Peer {
                    user: format!("viewer{i}"),
                    password: "pw".into(),
                },
                W,
                H,
                link(i == FAULTED),
            )
            .unwrap(),
        );
    }

    let mut store = DrawableStore::new(W, H, PixelFormat::Rgb888);
    let mut streams = viewers(&mut m, &ids, thinc::protocol::DEFAULT_CACHE_BUDGET);
    let secs = |t: f64| SimTime((t * 1e6) as u64);
    // Broadcast traffic: noise bands every viewer receives. The first
    // few epochs are healthy; the rest travel through the faulted
    // peer's collapse window (0.2s..1.2s).
    for i in 0..10u64 {
        let rect = Rect::new(0, ((i * 10) % (H as u64 - 24)) as i32, W, 24);
        let req = noise(rect, seed.wrapping_add(i));
        if let DrawRequest::PutImage { rect, data, .. } = req {
            store.screen_mut().put_raw(&rect, &data);
            m.session_mut().put_image(&store, SCREEN, rect, &data);
        }
        pump_session(&mut m, &store, &ids, &mut streams, secs(0.1 * (i + 1) as f64));
    }
    let faulted_id = ids[FAULTED];
    assert!(
        m.session().viewer(faulted_id).unwrap().resilience_metrics().degrade_steps() > 0,
        "the collapse must degrade the faulted viewer"
    );
    for (i, &id) in ids.iter().enumerate() {
        if i != FAULTED {
            assert_eq!(
                m.session().viewer(id).unwrap().resilience_metrics().degrade_steps(),
                0,
                "viewer {i} is healthy and must not degrade"
            );
        }
    }
    // Past the window: settle to quiescence, repaying any refresh owed
    // by the degradation ladder.
    let screen = store.screen().clone();
    for i in 0..200 {
        m.session_mut().repay_refreshes(&screen);
        pump_session(&mut m, &store, &ids, &mut streams, secs(1.5 + 0.1 * i as f64));
        let settled = ids.iter().enumerate().all(|(idx, &id)| {
            m.session().backlog(id) == 0
                && m.session().viewer(id).unwrap().degradation_level() == DegradationLevel::Full
                && !m.session().viewer(id).unwrap().refresh_owed()
                && !streams[idx].needs_refresh()
                && streams[idx].pending_bytes() == 0
        });
        if settled {
            break;
        }
    }
    for (idx, _) in ids.iter().enumerate() {
        assert_eq!(
            streams[idx].client().framebuffer().data(),
            store.screen().data(),
            "viewer {idx} must converge byte-exact (workers={workers})"
        );
    }
    // The perf half of the contract: the plane amortized encodes
    // across the population — far fewer wire forms than plane sends.
    let plane = m.session().fanout_counters();
    let (sends, encodes) = (plane.shared_sends, plane.encodes);
    assert!(sends > 0, "the broadcast must engage the encode-once plane");
    assert!(
        encodes * 2 < sends,
        "encodes={encodes} not amortized over sends={sends}"
    );
}

#[test]
fn warm_resume_ships_fewer_bytes_than_cold_reconnect() {
    // The failover bandwidth contract, end to end over the real wire
    // framing: two converged viewers survive a server crash. One
    // redials with a valid resume token and is resumed warm — the
    // standby ships only the checkpoint-vs-live delta. The other
    // presents a stale token (digest mismatch) and falls back cold —
    // fresh hello, full-view retransmit. Both must converge byte-exact,
    // the warm bill must measurably undercut the cold one, and the
    // telemetry must count one warm resume and one cold fallback on
    // both ends of the wire.
    use thinc::display::driver::VideoDriver;

    let seed = fault_seed().wrapping_add(0xFA11);
    let mut session = SharedSession::new(W, H, PixelFormat::Rgb888, "host")
        .with_buffer_bound(BUFFER_BOUND)
        .with_cache(64 * 1024);
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, 1);
    let warm_id = m
        .attach(&Credentials::Owner { user: "host".into() }, W, H, lan_link())
        .unwrap();
    let cold_id = m
        .attach(
            &Credentials::Peer { user: "viewer".into(), password: "pw".into() },
            W,
            H,
            lan_link(),
        )
        .unwrap();
    let ids = [warm_id, cold_id];
    let mut store = DrawableStore::new(W, H, PixelFormat::Rgb888);
    let mut streams = viewers(&mut m, &ids, 64 * 1024);
    let secs = |t: f64| SimTime((t * 1e6) as u64);
    // Converge both viewers on real traffic before the crash.
    for i in 0..8u64 {
        let rect = Rect::new(0, ((i * 12) % (H as u64 - 24)) as i32, W, 24);
        if let DrawRequest::PutImage { rect, data, .. } = noise(rect, seed.wrapping_add(i)) {
            store.screen_mut().put_raw(&rect, &data);
            m.session_mut().put_image(&store, SCREEN, rect, &data);
        }
        for r in 0..50 {
            pump_session(&mut m, &store, &ids, &mut streams, secs(0.1 * (i + 1) as f64 + 0.001 * r as f64));
            if ids.iter().all(|&id| m.session().backlog(id) == 0) {
                break;
            }
        }
    }
    for (j, _) in ids.iter().enumerate() {
        assert_eq!(
            streams[j].client().framebuffer().data(),
            store.screen().data(),
            "viewer {j} must be converged before the crash"
        );
    }

    // Crash instant: the image is taken, the old incarnation dies.
    let image = m.session().checkpoint(store.screen());
    drop(m);

    // The desktop keeps moving while the standby spins up: one band
    // of the screen changes before anyone redials.
    let mut standby = ShardedManager::restore(&image).expect("image restores");
    standby.session_mut().set_time(secs(5.0));
    let damage = Rect::new(0, 0, W, 24);
    if let DrawRequest::PutImage { rect, data, .. } = noise(damage, seed.wrapping_add(77)) {
        store.screen_mut().put_raw(&rect, &data);
        standby.session_mut().put_image(&store, SCREEN, rect, &data);
    }
    // Both redial on fresh links. The first viewer's token matches:
    // the standby adopts its sequence stream and queues the delta.
    // The second's store digest no longer does (the client lost its
    // content store with the device): the standby falls back cold —
    // ledger reset, full view owed — and answers with a fresh hello
    // that settles the client's pending resume as a cold restart.
    let sid = standby.session().session_id();
    for (j, &id) in ids.iter().enumerate() {
        standby.adopt_link(id, lan_link());
        let mut opening = streams[j].redial(sid, id.0);
        assert!(streams[j].resume_pending(), "drained reader must allow a warm resume");
        if let (1, Message::SessionResume { store_digest, .. }) = (j, &mut opening[1]) {
            *store_digest ^= 0xDEAD;
        }
        for msg in &opening {
            standby.session_mut().handle_message(id, msg, store.screen());
        }
    }
    let queued = standby.session().viewer(warm_id).unwrap().buffer().pending_bytes();
    assert!(queued > 0, "the screen changed while the server was down");
    assert!(
        queued < (W * H * 3) as u64,
        "warm resume must not requeue the whole screen: {queued} B"
    );

    // Post-failover settle: both bills accumulate.
    let mut shipped = [0u64; 2];
    for r in 0..200u64 {
        let round = pump_session(&mut standby, &store, &ids, &mut streams, secs(5.1 + 0.01 * r as f64));
        shipped[0] += round[0];
        shipped[1] += round[1];
        if ids.iter().all(|&id| standby.session().backlog(id) == 0)
            && streams.iter().all(|s| s.pending_bytes() == 0)
        {
            break;
        }
    }
    for (j, _) in ids.iter().enumerate() {
        assert_eq!(
            streams[j].client().framebuffer().data(),
            store.screen().data(),
            "viewer {j} must converge byte-exact after the failover"
        );
    }
    // The bandwidth assertion: the warm bill covers one changed
    // band, the cold bill a full-screen retransmit.
    assert!(
        shipped[0] * 2 < shipped[1],
        "warm resume ({} B) must measurably undercut cold reconnect ({} B)",
        shipped[0],
        shipped[1]
    );
    // Telemetry, both ends of the wire: one warm resume honored,
    // one cold fallback taken — greppable nonzero in CI.
    assert_eq!(streams[0].resilience_metrics().resumes(), 1);
    assert_eq!(streams[0].resilience_metrics().cold_fallbacks(), 0);
    assert_eq!(streams[0].resilience_metrics().seq_gaps(), 0, "the stream continued unbroken");
    assert_eq!(streams[1].resilience_metrics().cold_fallbacks(), 1);
    let server_side = |id| standby.session().viewer(id).unwrap().resilience_metrics();
    assert_eq!(server_side(warm_id).resumes(), 1);
    assert_eq!(server_side(cold_id).cold_fallbacks(), 1);
}

#[test]
fn checkpoint_failover_converges_across_workers() {
    // Warm failover on the fan-out path, swept by the CI matrix: a
    // broadcast session crashes mid-traffic (undelivered backlog in
    // flight), the standby restores the image under
    // `THINC_FLUSH_WORKERS` workers, every viewer redials with a valid
    // resume token, and all of them are resumed warm — zero cold
    // fallbacks — converging byte-exact on the post-crash screen for
    // every worker count.
    use thinc::display::driver::VideoDriver;

    let workers: usize = std::env::var("THINC_FLUSH_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    const CLIENTS: usize = 6;
    let seed = fault_seed().wrapping_add(0x0FF1);

    let mut session = SharedSession::new(W, H, PixelFormat::Rgb888, "host")
        .with_buffer_bound(BUFFER_BOUND)
        .with_cache(64 * 1024)
        .with_workers(workers);
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, 1);
    let owner = m
        .attach(&Credentials::Owner { user: "host".into() }, W, H, lan_link())
        .unwrap();
    let mut ids = vec![owner];
    for i in 1..CLIENTS {
        ids.push(
            m.attach(
                &Credentials::Peer {
                    user: format!("viewer{i}"),
                    password: "pw".into(),
                },
                W,
                H,
                lan_link(),
            )
            .unwrap(),
        );
    }
    let mut store = DrawableStore::new(W, H, PixelFormat::Rgb888);
    let mut streams = viewers(&mut m, &ids, 64 * 1024);
    let secs = |t: f64| SimTime((t * 1e6) as u64);
    // Broadcast traffic, partially delivered: the last band is drawn
    // but never flushed, so the crash image carries live backlog.
    for i in 0..6u64 {
        let rect = Rect::new(0, ((i * 14) % (H as u64 - 20)) as i32, W, 20);
        if let DrawRequest::PutImage { rect, data, .. } = noise(rect, seed.wrapping_add(i)) {
            store.screen_mut().put_raw(&rect, &data);
            m.session_mut().put_image(&store, SCREEN, rect, &data);
        }
        if i < 5 {
            for r in 0..50 {
                pump_session(&mut m, &store, &ids, &mut streams, secs(0.1 * (i + 1) as f64 + 0.001 * r as f64));
                if ids.iter().all(|&id| m.session().backlog(id) == 0) {
                    break;
                }
            }
        }
    }
    assert!(
        ids.iter().any(|&id| m.session().backlog(id) > 0),
        "the crash must strike with backlog in flight"
    );

    // Crash instant: live image, old incarnation gone.
    let image = m.session().checkpoint(store.screen());
    drop(m);

    // The standby restores the image; the desktop moved while it spun
    // up.
    let mut m = ShardedManager::restore(&image).expect("crash image restores");
    m.session_mut().set_time(secs(3.0));
    let damage = Rect::new(0, (H - 20) as i32, W, 20);
    if let DrawRequest::PutImage { rect, data, .. } = noise(damage, seed.wrapping_add(99)) {
        store.screen_mut().put_raw(&rect, &data);
        m.session_mut().put_image(&store, SCREEN, rect, &data);
    }
    // Every viewer redials: fresh link adopted in id order, hello and
    // resume token handed to the session, sequence stream carried
    // forward.
    let sid = m.session().session_id();
    for (idx, &id) in ids.iter().enumerate() {
        m.adopt_link(id, lan_link());
        for msg in &streams[idx].redial(sid, id.0) {
            m.session_mut().handle_message(id, msg, store.screen());
        }
        assert!(streams[idx].resume_pending(), "drained reader must allow a warm resume");
    }
    // Settle: the standby replays the checkpointed backlog and the
    // resume deltas through the fan-out flush plane.
    for r in 0..200u64 {
        pump_session(&mut m, &store, &ids, &mut streams, secs(3.1 + 0.01 * r as f64));
        if ids.iter().all(|&id| m.session().backlog(id) == 0)
            && streams.iter().all(|s| s.pending_bytes() == 0)
        {
            break;
        }
    }
    for (idx, &id) in ids.iter().enumerate() {
        assert_eq!(
            streams[idx].client().framebuffer().data(),
            store.screen().data(),
            "viewer {idx} must converge byte-exact after failover \
             (workers={workers})"
        );
        let server_side = m.session().viewer(id).unwrap().resilience_metrics();
        assert_eq!(server_side.resumes(), 1, "viewer {idx}: warm resume counted");
        assert_eq!(server_side.cold_fallbacks(), 0, "viewer {idx}: no cold fallback");
        assert_eq!(streams[idx].resilience_metrics().resumes(), 1);
    }
}
