//! Screen sharing integration: one session, several authenticated
//! clients (including a small-viewport peer), all converging to the
//! host's screen content.

use thinc::client::StreamClient;
use thinc::core::session::{ClientId, Credentials, SharedSession};
use thinc::display::request::DrawRequest;
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::{SimDuration, SimTime};
use thinc::net::trace::PacketTrace;
use thinc::raster::{Color, PixelFormat, Rect};

const W: u32 = 128;
const H: u32 = 96;

struct Peer {
    id: ClientId,
    client: StreamClient,
    link: thinc::net::link::DuplexLink,
    trace: PacketTrace,
}

impl Peer {
    /// A peer at the given viewport that has read the session's hello.
    fn connect(
        ws: &mut WindowServer<SharedSession>,
        id: ClientId,
        w: u32,
        h: u32,
        net: &NetworkConfig,
    ) -> Self {
        let mut client = StreamClient::new(w, h, PixelFormat::Rgb888);
        let hello = ws.driver().hello();
        client.feed(&ws.driver_mut().encode_frame(id, &hello));
        Peer {
            id,
            client,
            link: net.connect(),
            trace: PacketTrace::new(),
        }
    }
}

/// Flushes every peer, frames its batch and feeds the bytes to its
/// client, until nothing is left to send.
fn drain(ws: &mut WindowServer<SharedSession>, peers: &mut [Peer]) {
    let mut now = SimTime::ZERO;
    for _ in 0..10_000 {
        let mut pending = false;
        for p in peers.iter_mut() {
            let batch = ws
                .driver_mut()
                .flush_client(p.id, now, &mut p.link.down, &mut p.trace);
            for (_, msg) in batch {
                p.client.feed(&ws.driver_mut().encode_frame(p.id, &msg));
            }
            pending |= ws.driver().backlog(p.id) > 0;
        }
        if !pending {
            break;
        }
        now += SimDuration::from_millis(1);
    }
}

#[test]
fn two_full_size_clients_see_identical_content() {
    let session = SharedSession::new(W, H, PixelFormat::Rgb888, "host");
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, session);
    ws.driver_mut().auth_mut().enable_sharing("sosp2005");
    let host_id = ws
        .driver_mut()
        .attach(&Credentials::Owner { user: "host".into() }, W, H)
        .expect("owner attaches");
    let peer_id = ws
        .driver_mut()
        .attach(
            &Credentials::Peer {
                user: "guest".into(),
                password: "sosp2005".into(),
            },
            W,
            H,
        )
        .expect("peer attaches");
    assert_eq!(ws.driver().client_count(), 2);
    assert_eq!(ws.driver().client_user(peer_id), Some("guest"));

    let net = NetworkConfig::lan_desktop();
    let mut peers = vec![
        Peer::connect(&mut ws, host_id, W, H, &net),
        Peer::connect(&mut ws, peer_id, W, H, &net),
    ];

    // Draw: background + offscreen-composed window.
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, W, H),
        color: Color::rgb(20, 60, 100),
    });
    let pm = match ws.process(DrawRequest::CreatePixmap { width: 64, height: 48 }) {
        thinc::display::request::RequestResult::Created(id) => id,
        other => panic!("{other:?}"),
    };
    ws.process_all(vec![
        DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 64, 48),
            color: Color::WHITE,
        },
        DrawRequest::Text {
            target: pm,
            x: 4,
            y: 4,
            text: "shared".into(),
            fg: Color::BLACK,
        },
        DrawRequest::CopyArea {
            src: pm,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 64, 48),
            dst_x: 32,
            dst_y: 24,
        },
    ]);
    drain(&mut ws, &mut peers);

    // Both clients converged to the host screen, byte for byte.
    for p in &peers {
        assert_eq!(
            p.client.client().framebuffer().data(),
            ws.screen().data(),
            "client {:?} diverged",
            p.id
        );
    }
}

#[test]
fn small_viewport_peer_gets_scaled_updates() {
    let session = SharedSession::new(W, H, PixelFormat::Rgb888, "host");
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, session);
    ws.driver_mut().auth_mut().enable_sharing("pw");
    let full_id = ws
        .driver_mut()
        .attach(&Credentials::Owner { user: "host".into() }, W, H)
        .unwrap();
    let pda_id = ws
        .driver_mut()
        .attach(
            &Credentials::Peer {
                user: "pda".into(),
                password: "pw".into(),
            },
            W / 4,
            H / 4,
        )
        .unwrap();
    let net = NetworkConfig::pda_802_11g();
    let mut peers = vec![
        Peer::connect(&mut ws, full_id, W, H, &net),
        Peer::connect(&mut ws, pda_id, W / 4, H / 4, &net),
    ];
    // An incompressible image so byte counts reflect scaling.
    let mut x = 3u64;
    let data: Vec<u8> = (0..(W * H * 3) as usize)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as u8
        })
        .collect();
    ws.process(DrawRequest::PutImage {
        target: SCREEN,
        rect: Rect::new(0, 0, W, H),
        data,
    });
    drain(&mut ws, &mut peers);

    let full_bytes = peers[0].trace.total_bytes();
    let pda_bytes = peers[1].trace.total_bytes();
    assert!(
        pda_bytes * 4 < full_bytes,
        "scaled peer got {pda_bytes} vs full {full_bytes}"
    );
    // The PDA peer's framebuffer is a downscale of the host screen;
    // its fill color at the center should be close to the original.
    let c_full = ws.screen().get_pixel(W as i32 / 2, H as i32 / 2).unwrap();
    let c_pda = peers[1]
        .client
        .client()
        .framebuffer()
        .get_pixel(W as i32 / 8, H as i32 / 8)
        .unwrap();
    // Noise downscales to mid-grey-ish; just require it drew something
    // with plausible energy rather than staying black.
    assert!(c_pda.r as u32 + c_pda.g as u32 + c_pda.b as u32 > 60, "{c_pda:?} vs {c_full:?}");
}

#[test]
fn detach_stops_delivery() {
    let session = SharedSession::new(W, H, PixelFormat::Rgb888, "host");
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, session);
    let id = ws
        .driver_mut()
        .attach(&Credentials::Owner { user: "host".into() }, W, H)
        .unwrap();
    ws.driver_mut().detach(id);
    assert_eq!(ws.driver().client_count(), 0);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, 8, 8),
        color: Color::WHITE,
    });
    assert_eq!(ws.driver().backlog(id), 0);
}
