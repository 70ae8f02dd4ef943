//! One façade under generated traffic: a session of one viewer, as
//! `ServerConfig::session` builds it, takes every translated command kind
//! with overlapping scrolls and, at random points, every uplink message
//! the session acts on (a `ClientHello` at version 1, 2 or 3, `Resize`,
//! `SetView`, an answerable and an unanswerable `CacheMiss`, a current
//! and a stale `Pong`, `RefreshRequest`, warm, cold and tokenless
//! redials) over three viewports, an 8 KB bound (under one 9 KB frame,
//! so it evicts) or none, cache on and off, and a fat or a narrow pipe.
//! Every frame must decode clean, and a client showing the whole
//! session at full size must hold the screen byte for byte.

mod fixtures;

use fixtures::noise;
use proptest::prelude::*;
use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, VIEWER};
use thinc_core::{LivenessConfig, SharedSession};
use thinc_display::drawable::{DrawableId, SCREEN};
use thinc_display::request::{DrawRequest, RequestResult};
use thinc_display::server::WindowServer;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::message::Message;
use thinc_protocol::wire::encode_message;
use thinc_protocol::{DEFAULT_CACHE_BUDGET, PROTOCOL_VERSION};
use thinc_raster::{Color, PixelFormat, Rect};

const W: u32 = 64;
const H: u32 = 48;
const VIEWPORTS: [(u32, u32); 3] = [(W, H), (W / 2, H / 2), (37, 29)];
const BOUND: u64 = 8 * 1024;
const STEP_US: u64 = 20_000;

/// Pings every few flushes; never long enough silent to be dead.
const LIVENESS: LivenessConfig = LivenessConfig {
    timeout: SimDuration::from_secs(3_600),
    ping_interval: SimDuration::from_millis(50),
};

/// One generated step: `(kind, x, y, w, h, salt)`.
type Step = (u8, i32, i32, u32, u32, u32);

/// The draw request a step stands for (`None` for a flush step).
fn request(step: Step, tile: DrawableId) -> Option<DrawRequest> {
    let (kind, x, y, w, h, salt) = step;
    let rect = Rect::new(x, y, w, h);
    let color = Color::rgb(salt as u8, (salt >> 8) as u8, (salt >> 16) as u8);
    Some(match kind {
        0 => DrawRequest::FillRect { target: SCREEN, rect, color },
        1 => DrawRequest::TileRect { target: SCREEN, rect, tile },
        2 => DrawRequest::StippleRect {
            target: SCREEN,
            rect,
            bits: noise((w as usize).div_ceil(8) * h as usize, salt),
            fg: color,
            bg: (salt & 1 == 0).then_some(Color::rgb(250, 250, 250)),
        },
        3 => DrawRequest::PutImage { target: SCREEN, rect, data: noise((w * h * 3) as usize, salt) },
        // A scroll by a few pixels: source and destination overlap.
        4 => DrawRequest::CopyArea {
            src: SCREEN,
            dst: SCREEN,
            src_rect: rect,
            dst_x: x + (salt % 7) as i32 - 3,
            dst_y: y + (salt >> 3) as i32 % 9 - 4,
        },
        _ => return None,
    })
}

/// A run: the session and its screen, the client's pipe and clock, the
/// version it speaks, the stream client fed every frame, and the last
/// cacheable payload and ping the session sent.
struct Run {
    ws: WindowServer<SharedSession>,
    pipe: TcpPipe,
    now: SimTime,
    version: u16,
    client: StreamClient,
    sent_key: Option<u64>,
    last_ping: u32,
}

impl Run {
    /// A client at `(vw, vh)` that has seen the greeting. Below this
    /// build's version it stands for an old peer, whose own ceiling
    /// (not the server's announcement) fixes the revision it reads.
    fn connect(&mut self, (vw, vh): (u32, u32)) {
        self.client = StreamClient::new(vw, vh, PixelFormat::Rgb888);
        let hello = self.ws.driver().hello();
        let greeting = self.ws.driver_mut().encode_frame(VIEWER, &hello);
        let (version, width, height, depth) = (self.version, W, H, 24);
        let old = encode_message(&Message::ServerHello { version, width, height, depth });
        self.client.feed(if version == PROTOCOL_VERSION { &greeting } else { &old });
    }

    /// Advances the clock and polls liveness, so pings queue.
    fn tick(&mut self) {
        self.ws.driver_mut().set_time(self.now);
        self.ws.driver_mut().poll_client_liveness(VIEWER, self.now);
    }

    /// Hands the session a client message, which it answers with the
    /// screen, and settles whatever is still owed.
    fn send(&mut self, msg: &Message) {
        let (session, screen) = self.ws.driver_and_screen();
        session.handle_message(VIEWER, msg, screen);
        session.repay_refreshes(screen);
    }

    fn flush(&mut self) {
        self.now.0 += STEP_US;
        self.tick();
        let batch =
            self.ws.driver_mut().flush_client(VIEWER, self.now, &mut self.pipe, &mut PacketTrace::new());
        for (_, m) in &batch {
            let frame = self.ws.driver_mut().encode_frame(VIEWER, m);
            self.client.feed(&frame);
            self.sent_key = m.cache_key().or(self.sent_key);
            if let Message::Ping { seq, .. } = m {
                self.last_ping = *seq;
            }
        }
    }

    /// Sends the uplink event `kind` stands for. Returns whether the
    /// client still shows the whole session afterwards.
    fn uplink(&mut self, vp: &mut usize, kind: u8, salt: u32) -> bool {
        self.tick();
        let msgs = match kind {
            0 => {
                *vp = (*vp + 1 + salt as usize % 2) % VIEWPORTS.len();
                let (vw, vh) = VIEWPORTS[*vp];
                // A resized window starts over from an empty framebuffer.
                self.connect((vw, vh));
                vec![Message::Resize { viewport_width: vw, viewport_height: vh }]
            }
            1 => {
                let view = Rect::new((salt % 16) as i32, (salt % 12) as i32, 32, 24);
                self.send(&Message::SetView { view });
                return false;
            }
            2 => vec![Message::CacheMiss { hash: 0xBAD_C0DE }],
            3 => vec![Message::CacheMiss { hash: self.sent_key.unwrap_or(7) }],
            // Whatever the client owes: a current pong, if pinged.
            4 => self.client.take_uplink(self.now),
            5 => vec![Message::Pong { seq: self.last_ping.wrapping_add(100), timestamp_us: 0 }],
            6 => vec![Message::RefreshRequest { attempt: 1 }],
            // Redials. An old peer (see `connect`) cannot follow the
            // fresh hello a refused token is answered with, so only
            // this build's version presents one.
            7..=9 if self.version == PROTOCOL_VERSION => {
                if kind == 9 {
                    // Half a frame stranded in the reader: no token.
                    self.client.feed(&[0x01, 0xFF]);
                }
                let session_id = self.ws.driver().session_id();
                let mut msgs = self.client.redial(session_id, 0).to_vec();
                if let (8, Message::SessionResume { store_digest, .. }) = (kind, &mut msgs[1]) {
                    *store_digest ^= 0xDEAD;
                }
                msgs
            }
            _ => vec![Message::RefreshRequest { attempt: 2 }],
        };
        for m in &msgs {
            self.send(m);
        }
        true
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn one_viewer_session_decodes_clean_and_holds_the_screen(
        viewport in 0usize..3,
        version in 1u16..4,
        bounded in any::<bool>(),
        cache in any::<bool>(),
        narrow in any::<bool>(),
        steps in prop::collection::vec(
            (0u8..7, 0i32..56, 0i32..40, 4u32..40, 4u32..32, any::<u32>()),
            1..32,
        ),
        uplinks in prop::collection::vec((0usize..32, 0u8..10, any::<u32>()), 0..12),
    ) {
        let session = ServerConfig {
            width: W,
            height: H,
            buffer_bound_bytes: bounded.then_some(BOUND),
            cache_budget_bytes: cache.then_some(DEFAULT_CACHE_BUDGET),
            liveness: Some(LIVENESS),
            ..ServerConfig::default()
        }
        .session();
        let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, session);
        let RequestResult::Created(tile) = ws.process(DrawRequest::CreatePixmap { width: 4, height: 4 })
        else {
            panic!("pixmap");
        };
        ws.process(DrawRequest::PutImage { target: tile, rect: Rect::new(0, 0, 4, 4), data: noise(48, 99) });
        let params = TcpParams { bandwidth_bps: 2_000_000, sndbuf_bytes: 4 * 1024, ..TcpParams::default() };
        let pipe = TcpPipe::new(if narrow { params } else { TcpParams::default() });
        let client = StreamClient::new(1, 1, PixelFormat::Rgb888);
        let mut run = Run { ws, pipe, now: SimTime(0), version, client, sent_key: None, last_ping: 0 };
        let mut vp = viewport;
        run.connect(VIEWPORTS[vp]);
        let (vw, vh) = VIEWPORTS[vp];
        run.send(&Message::ClientHello { version, viewport_width: vw, viewport_height: vh });
        let (session, screen) = run.ws.driver_and_screen();
        session.refresh_view(VIEWER, screen);
        run.flush();
        let mut whole = true;
        for (i, step) in steps.iter().enumerate() {
            for &(_, kind, salt) in uplinks.iter().filter(|u| u.0 % steps.len() == i) {
                whole &= run.uplink(&mut vp, kind, salt);
            }
            match request(*step, tile) {
                Some(req) => drop(run.ws.process(req)),
                None => run.flush(),
            }
        }
        // Drain: repay what the bound deferred until nothing is owed.
        let owed = |ws: &WindowServer<SharedSession>| {
            let v = ws.driver().viewer(VIEWER).expect("attached");
            !v.buffer().is_empty() || v.has_debt()
        };
        for _ in 0..400 {
            let (session, screen) = run.ws.driver_and_screen();
            session.repay_refreshes(screen);
            run.flush();
            if !owed(&run.ws) {
                break;
            }
        }
        prop_assert!(!owed(&run.ws), "case did not drain");
        let m = run.client.resilience_metrics();
        prop_assert_eq!((m.decode_errors(), m.crc_failures(), m.seq_gaps()), (0, 0, 0));
        // Showing the whole session at full size, it holds the screen.
        if whole && vp == 0 {
            prop_assert!(
                run.client.client().framebuffer().data() == run.ws.screen().data(),
                "client diverged from the screen (version {version}, uplinks {uplinks:?})"
            );
        }
    }
}
