//! Mobility and cursor integration: the session's true state lives on
//! the server, so a user can drop the connection, walk to another
//! device and resynchronize — getting the identical desktop plus the
//! session cursor — exactly the §1/§2 thin-client promise.

use thinc::bench::thinc_system::pump_wire;
use thinc::client::StreamClient;
use thinc::core::server::{ServerConfig, ThincServer};
use thinc::display::request::DrawRequest;
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::{SimDuration, SimTime};
use thinc::net::trace::PacketTrace;
use thinc::protocol::message::{Message, ProtocolInput};
use thinc::raster::{Color, PixelFormat, Rect};

const W: u32 = 160;
const H: u32 = 120;

/// A device that has just connected: it has read the server's hello.
fn connect(ws: &mut WindowServer<ThincServer>) -> StreamClient {
    let mut device = StreamClient::new(W, H, PixelFormat::Rgb888);
    let hello = ws.driver().hello();
    device.feed(&ws.driver_mut().encode_frame(&hello));
    device
}

/// Flushes over the wire until nothing is left to send.
fn drain_to(
    ws: &mut WindowServer<ThincServer>,
    link: &mut thinc::net::link::DuplexLink,
    trace: &mut PacketTrace,
    client: &mut StreamClient,
) {
    let mut now = SimTime::ZERO;
    for _ in 0..10_000 {
        pump_wire(ws, link, trace, client, now);
        if ws.driver().display_backlog() == 0 && ws.driver().av_backlog() == 0 {
            break;
        }
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(1));
    }
}

fn cursor_pixels() -> Vec<u8> {
    let mut px = Vec::new();
    for y in 0..8 {
        for x in 0..8 {
            if x + y < 8 {
                px.extend_from_slice(&[0, 0, 0, 255]); // Arrow-ish.
            } else {
                px.extend_from_slice(&[0, 0, 0, 0]);
            }
        }
    }
    px
}

#[test]
fn reconnect_from_a_new_device_restores_the_session() {
    let config = ServerConfig {
        width: W,
        height: H,
        ..ServerConfig::default()
    };
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(config));
    ws.driver_mut().set_cursor(8, 8, 0, 0, cursor_pixels());

    // First device: receive a desktop, interact, then vanish.
    let net = NetworkConfig::lan_desktop();
    let mut link1 = net.connect();
    let mut trace1 = PacketTrace::new();
    let mut device1 = connect(&mut ws);
    ws.process_all(vec![
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, W, H),
            color: Color::rgb(30, 60, 90),
        },
        DrawRequest::Text {
            target: SCREEN,
            x: 10,
            y: 10,
            text: "persistent session".into(),
            fg: Color::WHITE,
        },
    ]);
    ws.driver_mut()
        .handle_message(&Message::Input(ProtocolInput::PointerMove { x: 50, y: 40 }));
    drain_to(&mut ws, &mut link1, &mut trace1, &mut device1);
    assert!(device1.client().cursor().visible());
    drop((device1, link1));

    // The session keeps evolving while nobody is connected.
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(20, 60, 60, 30),
        color: Color::rgb(200, 180, 20),
    });
    // Updates queued for the vanished device are flushed to nowhere
    // once a new device attaches; resync carries the truth instead.
    let mut link2 = NetworkConfig::wan_desktop().connect();
    let mut trace2 = PacketTrace::new();
    let mut device2 = connect(&mut ws);
    let screen = ws.screen().clone();
    ws.driver_mut().resync(&screen);
    drain_to(&mut ws, &mut link2, &mut trace2, &mut device2);

    // The new device has the exact current desktop...
    assert_eq!(
        device2.client().framebuffer().checksum(),
        ws.screen().checksum(),
        "reconnected device must see the identical session"
    );
    // ...including the cursor shape, live immediately after a move.
    ws.driver_mut()
        .handle_message(&Message::Input(ProtocolInput::PointerMove { x: 80, y: 80 }));
    drain_to(&mut ws, &mut link2, &mut trace2, &mut device2);
    let device2 = device2.client();
    assert!(device2.cursor().visible());
    assert_eq!(
        device2.cursor().position(),
        Some(thinc::raster::Point::new(80, 80))
    );
    // The presented image differs from the framebuffer only where the
    // cursor is.
    let shown = device2.presented();
    assert_ne!(shown.data(), device2.framebuffer().data());
    assert_eq!(shown.get_pixel(81, 80), Some(Color::BLACK));
}

#[test]
fn cursor_motion_costs_bytes_not_display_updates() {
    let config = ServerConfig {
        width: W,
        height: H,
        ..ServerConfig::default()
    };
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(config));
    ws.driver_mut().set_cursor(8, 8, 0, 0, cursor_pixels());
    let net = NetworkConfig::lan_desktop();
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let mut client = connect(&mut ws);
    drain_to(&mut ws, &mut link, &mut trace, &mut client);
    let before = trace.total_bytes();
    // 50 pointer moves.
    for i in 0..50 {
        ws.driver_mut()
            .handle_message(&Message::Input(ProtocolInput::PointerMove { x: i, y: i }));
    }
    drain_to(&mut ws, &mut link, &mut trace, &mut client);
    let per_move = (trace.total_bytes() - before) / 50;
    assert!(per_move < 32, "cursor move cost {per_move} bytes");
    // No display commands were generated by pointer motion.
    let stats = client.client().stats();
    assert_eq!(stats.raw + stats.sfill, 0);
}
