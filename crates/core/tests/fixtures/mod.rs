//! Checkpoint fixtures: a configured session of one and a shared
//! session of two, each with every subsystem lit up and state in
//! flight. Shared by the unit tests in `src/` (which include this file
//! by path) and the golden-image test, which pins the bytes the shared
//! session checkpoints to.
#![allow(dead_code)]

use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, VIEWER};
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
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, PixelFormat, Rect};

/// A viewer that negotiated the current wire revision — so it keeps a
/// content store and resolves references — with the encoder framing
/// what it is shipped (in order: the frames carry sequence numbers).
pub struct Viewer {
    pub client: StreamClient,
    encoder: FrameEncoder,
}

impl Viewer {
    pub fn new(width: u32, height: u32) -> Viewer {
        let mut encoder = FrameEncoder::new();
        encoder.negotiate(PROTOCOL_VERSION);
        let mut client = StreamClient::new(width, height, PixelFormat::Rgb888);
        let hello = Message::ServerHello { version: PROTOCOL_VERSION, width, height, depth: 24 };
        client.feed(&encoder.encode(&hello));
        Viewer { client, encoder }
    }

    /// Frames and feeds `msgs`.
    pub fn deliver<'a>(&mut self, msgs: impl IntoIterator<Item = &'a Message>) {
        for m in msgs {
            self.client.feed(&self.encoder.encode(m));
        }
    }
}

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

/// The session key [`checkpointable_server`]'s viewer is keyed with.
pub const KEY: &[u8] = b"0123456789abcdef";

/// A configured session of one with every subsystem lit up and
/// mid-flight state: a keyed connection, negotiated revision-3 framing
/// (integrity + cache), a cursor, a queued A/V backlog, partially
/// flushed display traffic, and a non-identity scale.
pub fn checkpointable_server() -> WindowServer<SharedSession> {
    let config = ServerConfig {
        width: 64,
        height: 64,
        rc4_key: Some(KEY.to_vec()),
        buffer_bound_bytes: Some(512 * 1024),
        av_bound: Some(8),
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs_f64(10.0),
            ping_interval: SimDuration::from_secs_f64(2.0),
        }),
        degradation: Some(DegradationConfig::default()),
        ..ServerConfig::default()
    };
    let mut ws = WindowServer::new(64, 64, PixelFormat::Rgb888, config.session());
    let (session, screen) = ws.driver_and_screen();
    let hello = Message::ClientHello { version: PROTOCOL_VERSION, viewport_width: 48, viewport_height: 48 };
    session.handle_message(VIEWER, &hello, screen);
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
    let _ = ws.driver_mut().flush_client(VIEWER, SimTime(10_000), &mut pipe, &mut trace);
    let viewer = ws.driver().viewer(VIEWER).expect("attached");
    assert!(
        !viewer.buffer().is_empty() || viewer.av_backlog() > 0,
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
        .with_buffer_bound(512 * 1024);
    s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
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
