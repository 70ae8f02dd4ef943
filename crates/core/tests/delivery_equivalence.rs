//! A session of one is a server: the same draw *and uplink* sequence
//! through a `WindowServer<ThincServer>` and through a one-client
//! `WindowServer<SharedSession>` must put the identical bytes on the
//! wire at every flush — `encode_frame` output, sequence numbers and
//! CRCs included — and leave byte-equal client framebuffers.
//!
//! Both façades wrap the same per-client `Delivery`; this is the test
//! that keeps them from growing delivery or protocol logic of their
//! own again. The sequences mix every translated command kind with
//! overlapping scrolls and, at random points, every uplink message the
//! delivery acts on — a `ClientHello` at version 1, 2 or 3, `Resize`,
//! `SetView`, a `CacheMiss` the ledger can answer and one it cannot, a
//! current and a stale `Pong`, `RefreshRequest`, and a warm, a cold
//! and a tokenless redial — over identity / half / odd viewports, a
//! bounded and an unbounded buffer (8 KB: under one 9 KB frame of the
//! 64x48 test session, so it evicts), cache on and off, and a fat or a
//! narrow pipe (so flushes leave backlog behind).

mod fixtures;

use fixtures::noise;
use proptest::prelude::*;
use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_core::session::{ClientId, Credentials, SharedSession};
use thinc_core::LivenessConfig;
use thinc_display::drawable::SCREEN;
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

/// One generated step: `(kind, x, y, w, h, salt)`.
type Step = (u8, i32, i32, u32, u32, u32);
/// What one flush put on the wire.
type Batch = Vec<(SimTime, Message)>;

/// The draw request a step stands for (`None` for a flush step).
fn request(step: Step, tile: thinc_display::drawable::DrawableId) -> Option<DrawRequest> {
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
        3 => DrawRequest::PutImage {
            target: SCREEN,
            rect,
            data: noise((w * h * 3) as usize, salt),
        },
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

/// One generated uplink event: `(before step, kind, salt)`.
type Uplink = (usize, u8, u32);

/// One façade under test: draws, uplink messages, framing and a flush.
trait Harness {
    fn draw(&mut self, req: DrawRequest) -> RequestResult;
    /// Advances the façade's clock and polls liveness, so pings queue.
    fn tick(&mut self, now: SimTime);
    /// Handles a message from the client, serves what it left for the
    /// holder of the screen, and settles what it left owed.
    fn uplink(&mut self, msg: &Message);
    fn hello(&self) -> Message;
    fn frame(&mut self, msg: &Message) -> Vec<u8>;
    /// The session id a resume token must name to be believed.
    fn session_id(&self) -> u64;
    /// Gives the just-connected client the full view. A session owes
    /// it from the attach; a server's harness asks for it.
    fn start(&mut self);
    /// Settles owed refreshes and debt against the current screen.
    fn repay(&mut self);
    fn flush(&mut self, now: SimTime, pipe: &mut TcpPipe) -> Batch;
    fn backlog(&self) -> usize;
    fn screen(&self) -> Vec<u8>;
}

impl Harness for WindowServer<ThincServer> {
    fn draw(&mut self, req: DrawRequest) -> RequestResult {
        self.process(req)
    }
    fn tick(&mut self, now: SimTime) {
        self.driver_mut().set_time(now);
        self.driver_mut().poll_liveness(now);
    }
    fn uplink(&mut self, msg: &Message) {
        self.driver_mut().handle_message(msg);
        let screen = self.screen().clone();
        if self.driver_mut().take_resync_request() {
            self.driver_mut().resync(&screen);
        }
        self.driver_mut().repay_overflow_debt(&screen);
    }
    fn hello(&self) -> Message {
        self.driver().hello()
    }
    fn frame(&mut self, msg: &Message) -> Vec<u8> {
        self.driver_mut().encode_frame(msg)
    }
    fn session_id(&self) -> u64 {
        0
    }
    fn start(&mut self) {
        let screen = self.screen().clone();
        self.driver_mut().refresh_view(&screen);
    }
    fn repay(&mut self) {
        let screen = self.screen().clone();
        self.driver_mut().repay_overflow_debt(&screen);
    }
    fn flush(&mut self, now: SimTime, pipe: &mut TcpPipe) -> Batch {
        self.driver_mut().flush(now, pipe, &mut PacketTrace::new())
    }
    fn backlog(&self) -> usize {
        self.driver().display_backlog() + usize::from(self.driver().overflow_debt_outstanding())
    }
    fn screen(&self) -> Vec<u8> {
        WindowServer::screen(self).data().to_vec()
    }
}

const ID: ClientId = ClientId(0);

impl Harness for WindowServer<SharedSession> {
    fn draw(&mut self, req: DrawRequest) -> RequestResult {
        self.process(req)
    }
    fn tick(&mut self, now: SimTime) {
        self.driver_mut().set_time(now);
        self.driver_mut().poll_client_liveness(ID, now);
    }
    fn uplink(&mut self, msg: &Message) {
        let screen = self.screen().clone();
        self.driver_mut().handle_message(ID, msg, &screen);
        self.driver_mut().repay_refreshes(&screen);
    }
    fn hello(&self) -> Message {
        self.driver().hello()
    }
    fn frame(&mut self, msg: &Message) -> Vec<u8> {
        self.driver_mut().encode_frame(ID, msg)
    }
    fn session_id(&self) -> u64 {
        self.driver().session_id()
    }
    fn start(&mut self) {
        self.repay();
    }
    fn repay(&mut self) {
        let screen = self.screen().clone();
        self.driver_mut().repay_refreshes(&screen);
    }
    fn flush(&mut self, now: SimTime, pipe: &mut TcpPipe) -> Batch {
        self.driver_mut()
            .flush_client(ID, now, pipe, &mut PacketTrace::new())
    }
    fn backlog(&self) -> usize {
        let d = self.driver().viewer(ID).unwrap();
        d.buffer().len() + usize::from(d.has_debt())
    }
    fn screen(&self) -> Vec<u8> {
        WindowServer::screen(self).data().to_vec()
    }
}

/// Everything a case varies besides its steps and uplink events.
#[derive(Debug, Clone, Copy)]
struct Setup {
    viewport: usize,
    /// The protocol version the client's hello announces.
    version: u16,
    bound: Option<u64>,
    cache: bool,
    narrow: bool,
}

/// Pings every few flushes; never long enough silent to be dead.
const LIVENESS: LivenessConfig = LivenessConfig {
    timeout: SimDuration::from_secs(3_600),
    ping_interval: SimDuration::from_millis(50),
};

fn pipe(narrow: bool) -> TcpPipe {
    TcpPipe::new(if narrow {
        TcpParams {
            bandwidth_bps: 2_000_000,
            sndbuf_bytes: 4 * 1024,
            ..TcpParams::default()
        }
    } else {
        TcpParams::default()
    })
}

/// The client's side of a run: its pipe and clock, the stream client
/// fed by every flush, and what those flushes put on the wire — as
/// messages and as framed bytes.
struct Wire {
    pipe: TcpPipe,
    now: SimTime,
    version: u16,
    client: StreamClient,
    batches: Vec<Batch>,
    frames: Vec<Vec<u8>>,
    /// A cacheable payload the server sent, and the last ping's `seq`.
    sent_key: Option<u64>,
    last_ping: u32,
}

impl Wire {
    /// A client at `(vw, vh)` that has seen the greeting. Below this
    /// build's version it stands for an old peer, whose own ceiling
    /// (not the server's announcement) fixes the revision it reads.
    fn connect(&mut self, h: &mut dyn Harness, (vw, vh): (u32, u32)) {
        self.client = StreamClient::new(vw, vh, PixelFormat::Rgb888);
        let greeting = h.frame(&h.hello());
        if self.version == PROTOCOL_VERSION {
            self.client.feed(&greeting);
        } else {
            self.client.feed(&encode_message(&Message::ServerHello {
                version: self.version,
                width: W,
                height: H,
                depth: 24,
            }));
        }
        self.frames.push(greeting);
    }

    fn flush(&mut self, h: &mut dyn Harness) {
        self.now.0 += STEP_US;
        h.tick(self.now);
        let batch = h.flush(self.now, &mut self.pipe);
        for (_, m) in &batch {
            let frame = h.frame(m);
            self.client.feed(&frame);
            self.frames.push(frame);
            self.sent_key = m.cache_key().or(self.sent_key);
            if let Message::Ping { seq, .. } = m {
                self.last_ping = *seq;
            }
        }
        self.batches.push(batch);
    }

    /// Sends the uplink event `kind` stands for. Returns whether the
    /// client still shows the whole session afterwards.
    fn uplink(&mut self, h: &mut dyn Harness, vp: &mut usize, kind: u8, salt: u32) -> bool {
        h.tick(self.now);
        let sid = h.session_id();
        let msgs = match kind {
            0 => {
                *vp = (*vp + 1 + salt as usize % 2) % VIEWPORTS.len();
                let (vw, vh) = VIEWPORTS[*vp];
                // A resized window starts over from an empty framebuffer.
                self.connect(h, (vw, vh));
                vec![Message::Resize { viewport_width: vw, viewport_height: vh }]
            }
            1 => {
                let view = Rect::new((salt % 16) as i32, (salt % 12) as i32, 32, 24);
                h.uplink(&Message::SetView { view });
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
                let mut msgs = self.client.redial(sid, ID.0).to_vec();
                if let (8, Message::SessionResume { store_digest, .. }) = (kind, &mut msgs[1]) {
                    *store_digest ^= 0xDEAD;
                }
                msgs
            }
            _ => vec![Message::RefreshRequest { attempt: 2 }],
        };
        for m in &msgs {
            h.uplink(m);
        }
        true
    }
}

/// What a run put on the wire and left behind: per-flush messages,
/// framed bytes, the client's framebuffer (`None` once zoomed or
/// resized away from the whole session) and the screen.
type Outcome = (Vec<Batch>, Vec<Vec<u8>>, Vec<u8>, bool, Vec<u8>);

/// Drives one façade through the case.
fn run(h: &mut dyn Harness, setup: Setup, steps: &[Step], uplinks: &[Uplink]) -> Outcome {
    let tile = match h.draw(DrawRequest::CreatePixmap { width: 4, height: 4 }) {
        RequestResult::Created(id) => id,
        other => panic!("{other:?}"),
    };
    h.draw(DrawRequest::PutImage {
        target: tile,
        rect: Rect::new(0, 0, 4, 4),
        data: noise(4 * 4 * 3, 99),
    });
    let mut vp = setup.viewport;
    let mut wire = Wire {
        pipe: pipe(setup.narrow),
        now: SimTime(0),
        version: setup.version,
        client: StreamClient::new(1, 1, PixelFormat::Rgb888),
        batches: Vec::new(),
        frames: Vec::new(),
        sent_key: None,
        last_ping: 0,
    };
    wire.connect(h, VIEWPORTS[vp]);
    h.uplink(&Message::ClientHello {
        version: setup.version,
        viewport_width: VIEWPORTS[vp].0,
        viewport_height: VIEWPORTS[vp].1,
    });
    h.start();
    wire.flush(h);
    let mut whole = true;
    for (i, step) in steps.iter().enumerate() {
        for &(_, kind, salt) in uplinks.iter().filter(|u| u.0 % steps.len() == i) {
            whole &= wire.uplink(h, &mut vp, kind, salt);
        }
        match request(*step, tile) {
            Some(req) => {
                h.draw(req);
            }
            None => wire.flush(h),
        }
    }
    // Drain: repay what the bound deferred until nothing is owed.
    for _ in 0..400 {
        h.repay();
        wire.flush(h);
        if h.backlog() == 0 {
            break;
        }
    }
    assert_eq!(h.backlog(), 0, "case did not drain");
    let fb = wire.client.client().framebuffer().data().to_vec();
    (wire.batches, wire.frames, fb, whole && vp == 0, h.screen())
}

fn server(setup: Setup) -> WindowServer<ThincServer> {
    let thinc = ThincServer::new(ServerConfig {
        width: W,
        height: H,
        buffer_bound_bytes: setup.bound,
        cache_budget_bytes: setup.cache.then_some(DEFAULT_CACHE_BUDGET),
        liveness: Some(LIVENESS),
        ..ServerConfig::default()
    });
    WindowServer::new(W, H, PixelFormat::Rgb888, thinc)
}

fn session(setup: Setup) -> WindowServer<SharedSession> {
    let mut s = SharedSession::new(W, H, PixelFormat::Rgb888, "host").with_liveness(LIVENESS);
    if let Some(bound) = setup.bound {
        s = s.with_buffer_bound(bound);
    }
    // A cached session only takes peers that can resolve references.
    if setup.cache && setup.version == PROTOCOL_VERSION {
        s = s.with_cache(DEFAULT_CACHE_BUDGET);
    }
    let (vw, vh) = VIEWPORTS[setup.viewport];
    let id = s
        .attach(&Credentials::Owner { user: "host".into() }, vw, vh)
        .unwrap();
    assert_eq!(id, ID);
    WindowServer::new(W, H, PixelFormat::Rgb888, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn session_of_one_is_a_server(
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
        let setup = Setup {
            viewport,
            version,
            bound: bounded.then_some(BOUND),
            cache,
            narrow,
        };
        let (server_batches, server_frames, server_fb, whole, screen) =
            run(&mut server(setup), setup, &steps, &uplinks);
        let (session_batches, session_frames, session_fb, _, session_screen) =
            run(&mut session(setup), setup, &steps, &uplinks);
        prop_assert_eq!(&screen, &session_screen);
        prop_assert_eq!(server_batches.len(), session_batches.len());
        for (i, (a, b)) in server_batches.iter().zip(&session_batches).enumerate() {
            prop_assert_eq!(a, b, "flush {} differs ({:?} {:?})", i, setup, uplinks);
        }
        prop_assert!(server_frames == session_frames, "framed bytes differ ({setup:?} {uplinks:?})");
        prop_assert!(server_fb == session_fb, "client framebuffers differ ({setup:?})");
        // Showing the whole session at full size, the client does not
        // just agree with its twin: it holds the screen.
        if whole {
            prop_assert!(server_fb == screen, "client diverged from the screen ({setup:?} {uplinks:?})");
        }
    }
}
