//! Checkpoint fixtures: one server and one session with every
//! subsystem lit up and state in flight. Shared by the unit tests in
//! `src/` (which include this file by path) and the golden-image test,
//! which pins the bytes these fixtures checkpoint to.
#![allow(dead_code)]

use thinc_core::server::{ServerConfig, ThincServer};
use thinc_core::session::{Credentials, SharedSession};
use thinc_core::{DegradationConfig, LivenessConfig};
use thinc_display::drawable::{DrawableStore, SCREEN};
use thinc_display::driver::VideoDriver;
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_net::link::NetworkConfig;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, PixelFormat, Rect};

/// `len` bytes of incompressible noise (a 32-bit LCG seeded by `salt`),
/// so a backlog cannot collapse to a few bytes under the RAW codec.
pub fn noise(len: usize, salt: u32) -> Vec<u8> {
    let mut x = salt | 1;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (x >> 24) as u8
        })
        .collect()
}

/// A server with every subsystem lit up and mid-flight state:
/// negotiated revision-3 framing (integrity + cache), a cursor, a
/// queued A/V backlog, partially flushed display traffic, and a
/// non-identity scale.
pub fn checkpointable_server() -> WindowServer<ThincServer> {
    let thinc = ThincServer::new(ServerConfig {
        width: 64,
        height: 64,
        rc4_key: Some(b"0123456789abcdef".to_vec()),
        buffer_bound_bytes: Some(512 * 1024),
        av_bound: Some(8),
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs_f64(10.0),
            ping_interval: SimDuration::from_secs_f64(2.0),
        }),
        degradation: Some(DegradationConfig::default()),
        ..ServerConfig::default()
    });
    let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, thinc);
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: 48,
        viewport_height: 48,
    });
    ws.driver_mut().set_cursor(8, 8, 1, 1, vec![7; 8 * 8 * 4]);
    ws.driver_mut().open_audio(44_100, 2);
    ws.driver_mut().play_audio(&vec![1u8; 4096]);
    for i in 0..3 {
        ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(i * 8, i * 8, 24, 24),
            data: noise(24 * 24 * 3, 0x2545_F491 + i as u32),
        });
    }
    // One constrained flush epoch against a narrow pipe: some
    // traffic goes out, the rest stays buffered (mid-flight
    // checkpoint state).
    let mut pipe = TcpPipe::new(thinc_net::tcp::TcpParams {
        bandwidth_bps: 256_000,
        sndbuf_bytes: 2 * 1024,
        ..thinc_net::tcp::TcpParams::default()
    });
    let mut trace = PacketTrace::new();
    let _ = ws.driver_mut().flush(SimTime(10_000), &mut pipe, &mut trace);
    assert!(
        ws.driver().display_backlog() > 0 || ws.driver().av_backlog() > 0,
        "checkpoint fixture should carry backlog"
    );
    ws
}

/// A fully-featured two-client session with some delivered traffic
/// and some backlog, plus the drawable store driving it and the
/// per-client messages its internal flush epochs already delivered
/// (a client replaying the stream from scratch needs them too).
pub fn checkpointable_session() -> (SharedSession, DrawableStore, Vec<Vec<Message>>) {
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
