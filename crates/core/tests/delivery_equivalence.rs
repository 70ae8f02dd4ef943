//! A session of one is a server: the same draw sequence through a
//! `WindowServer<ThincServer>` and through a one-client
//! `WindowServer<SharedSession>` must put the identical messages on the
//! wire at every flush and leave byte-equal client framebuffers.
//!
//! Both façades wrap the same per-client `Delivery`; this is the test
//! that keeps them from growing delivery logic of their own again. The
//! sequences mix every translated command kind with overlapping
//! scrolls, a viewport change and an unsatisfiable cache miss at random
//! points, over identity / half / odd viewports, a bounded and an
//! unbounded buffer (8 KB: under one 9 KB frame of the 64x48 test
//! session, so it evicts), cache on and off, and a fat or a narrow pipe
//! (so flushes leave backlog behind).

mod fixtures;

use fixtures::noise;
use proptest::prelude::*;
use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_core::session::{ClientId, Credentials, SharedSession};
use thinc_display::drawable::SCREEN;
use thinc_display::request::{DrawRequest, RequestResult};
use thinc_display::server::WindowServer;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::SimTime;
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

/// One façade under test: draws, control events and a flush, plus the
/// stream client fed by its flushes.
trait Harness {
    fn draw(&mut self, req: DrawRequest) -> RequestResult;
    fn resize(&mut self, vw: u32, vh: u32);
    fn cache_miss(&mut self, hash: u64);
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
    fn resize(&mut self, vw: u32, vh: u32) {
        self.driver_mut().handle_message(&Message::Resize {
            viewport_width: vw,
            viewport_height: vh,
        });
    }
    fn cache_miss(&mut self, hash: u64) {
        self.driver_mut().handle_message(&Message::CacheMiss { hash });
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
    fn resize(&mut self, vw: u32, vh: u32) {
        self.driver_mut().resize_client(ID, vw, vh);
    }
    fn cache_miss(&mut self, hash: u64) {
        self.driver_mut().client_cache_miss(ID, hash);
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
        self.driver().backlog(ID) + usize::from(self.driver().client_has_overflow_debt(ID))
    }
    fn screen(&self) -> Vec<u8> {
        WindowServer::screen(self).data().to_vec()
    }
}

/// Everything a case varies besides its steps.
#[derive(Debug, Clone, Copy)]
struct Setup {
    viewport: usize,
    bound: Option<u64>,
    cache: bool,
    narrow: bool,
    /// Step index before which the viewport changes, and to which of
    /// the two other viewports.
    resize_at: usize,
    resize_pick: usize,
    miss_at: usize,
}

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
/// fed by every flush, and the batches those flushes produced.
struct Wire {
    pipe: TcpPipe,
    now: SimTime,
    client: StreamClient,
    batches: Vec<Batch>,
}

impl Wire {
    fn flush(&mut self, h: &mut dyn Harness) {
        self.now.0 += STEP_US;
        let batch = h.flush(self.now, &mut self.pipe);
        for (_, m) in &batch {
            self.client.feed(&encode_message(m));
        }
        self.batches.push(batch);
    }
}

/// Drives one façade through the case; returns the per-flush message
/// batches, the client's final framebuffer and the screen.
fn run(h: &mut dyn Harness, setup: Setup, steps: &[Step]) -> (Vec<Batch>, Vec<u8>, Vec<u8>) {
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
        client: StreamClient::new(VIEWPORTS[vp].0, VIEWPORTS[vp].1, PixelFormat::Rgb888),
        batches: Vec::new(),
    };
    h.start();
    wire.flush(h);
    for (i, step) in steps.iter().enumerate() {
        if i == setup.resize_at {
            vp = (vp + 1 + setup.resize_pick) % VIEWPORTS.len();
            let (vw, vh) = VIEWPORTS[vp];
            h.resize(vw, vh);
            // A resized window starts over from an empty framebuffer.
            wire.client = StreamClient::new(vw, vh, PixelFormat::Rgb888);
        }
        if i == setup.miss_at {
            h.cache_miss(0xBAD_C0DE);
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
    (wire.batches, fb, h.screen())
}

fn server(setup: Setup) -> WindowServer<ThincServer> {
    let mut thinc = ThincServer::new(ServerConfig {
        width: W,
        height: H,
        buffer_bound_bytes: setup.bound,
        cache_budget_bytes: setup.cache.then_some(DEFAULT_CACHE_BUDGET),
        ..ServerConfig::default()
    });
    let (vw, vh) = VIEWPORTS[setup.viewport];
    thinc.handle_message(&Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: vw,
        viewport_height: vh,
    });
    WindowServer::new(W, H, PixelFormat::Rgb888, thinc)
}

fn session(setup: Setup) -> WindowServer<SharedSession> {
    let mut s = SharedSession::new(W, H, PixelFormat::Rgb888, "host");
    if let Some(bound) = setup.bound {
        s = s.with_buffer_bound(bound);
    }
    if setup.cache {
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
        bounded in any::<bool>(),
        cache in any::<bool>(),
        narrow in any::<bool>(),
        resize_at in 0usize..40,
        resize_pick in 0usize..2,
        miss_at in 0usize..40,
        steps in prop::collection::vec(
            (0u8..7, 0i32..56, 0i32..40, 4u32..40, 4u32..32, any::<u32>()),
            1..32,
        ),
    ) {
        let setup = Setup {
            viewport,
            bound: bounded.then_some(BOUND),
            cache,
            narrow,
            resize_at,
            resize_pick,
            miss_at,
        };
        let (server_batches, server_fb, screen) = run(&mut server(setup), setup, &steps);
        let (session_batches, session_fb, session_screen) = run(&mut session(setup), setup, &steps);
        prop_assert_eq!(&screen, &session_screen);
        prop_assert_eq!(server_batches.len(), session_batches.len());
        for (i, (a, b)) in server_batches.iter().zip(&session_batches).enumerate() {
            prop_assert_eq!(a, b, "flush {} differs ({:?})", i, setup);
        }
        prop_assert!(server_fb == session_fb, "client framebuffers differ ({setup:?})");
        // At full size the client does not just agree with its twin:
        // it holds the screen.
        let resized = resize_at < steps.len();
        let end = if resized { (viewport + 1 + resize_pick) % 3 } else { viewport };
        if end == 0 {
            prop_assert!(server_fb == screen, "client diverged from the screen ({setup:?})");
        }
    }
}
