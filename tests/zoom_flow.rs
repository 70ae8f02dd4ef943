//! End-to-end zoom flow (§6): a PDA client views the desktop zoomed
//! out, zooms into a region (showing a temporary magnified preview
//! built from local pixels), the server remaps its view and refreshes
//! with full-detail content.

use thinc::bench::thinc_system::pump_wire;
use thinc::client::{StreamClient, ZoomController};
use thinc::core::server::{ServerConfig, ThincServer};
use thinc::display::request::DrawRequest;
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::{SimDuration, SimTime};
use thinc::net::trace::PacketTrace;
use thinc::protocol::message::Message;
use thinc::protocol::PROTOCOL_VERSION;
use thinc::raster::{Color, PixelFormat, Point, Rect};

const W: u32 = 512;
const H: u32 = 384;
const VW: u32 = 128;
const VH: u32 = 96;

/// Flushes over the wire until nothing is left to send.
fn drain(
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

#[test]
fn zoom_in_refresh_brings_full_detail() {
    let config = ServerConfig {
        width: W,
        height: H,
        ..ServerConfig::default()
    };
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, ThincServer::new(config));
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: VW,
        viewport_height: VH,
    });
    let mut client = StreamClient::new(VW, VH, PixelFormat::Rgb888);
    let hello = ws.driver().hello();
    client.feed(&ws.driver_mut().encode_frame(&hello));
    let mut link = NetworkConfig::pda_802_11g().connect();
    let mut trace = PacketTrace::new();
    let mut zoom = ZoomController::new(W, H, VW, VH);

    // Desktop content: distinct quadrant colors plus a fine feature
    // in the top-left quadrant that vanishes at zoomed-out scale.
    ws.process_all(vec![
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, W / 2, H / 2),
            color: Color::rgb(200, 0, 0),
        },
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(W as i32 / 2, 0, W / 2, H / 2),
            color: Color::rgb(0, 200, 0),
        },
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, H as i32 / 2, W, H / 2),
            color: Color::rgb(0, 0, 200),
        },
        // A 1-px-tall line: invisible at 4x downscale, visible zoomed.
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(20, 21, 200, 1),
            color: Color::WHITE,
        },
    ]);
    drain(&mut ws, &mut link, &mut trace, &mut client);

    // Zoomed out: quadrant colors visible; the fine line is blended
    // into the red quadrant.
    let zoomed_out_red = client.client().framebuffer().get_pixel(10, 10).unwrap();
    assert!(zoomed_out_red.r > 100, "{zoomed_out_red:?}");

    // Zoom into the top-left quadrant.
    let old_view = zoom.view();
    let set_view = zoom.zoom_in(Point::new(VW as i32 / 4, VH as i32 / 4), 2);
    // Temporary preview uses only local pixels.
    let preview = zoom.magnify_preview(client.client().framebuffer(), old_view);
    assert_eq!((preview.width(), preview.height()), (VW, VH));
    // Server receives the view change and refreshes.
    ws.driver_mut().handle_message(&set_view);
    assert_eq!(ws.driver().viewer().scale().view, zoom.view());
    let screen = ws.screen().clone();
    ws.driver_mut().refresh_view(&screen);
    drain(&mut ws, &mut link, &mut trace, &mut client);

    // After the refresh, the client sees the zoomed region at higher
    // detail: the fine white line now resolves.
    let view = zoom.view();
    let line_in_view_x = (20 - view.x) as i64 * VW as i64 / view.w as i64;
    let line_in_view_y = (21 - view.y) as i64 * VH as i64 / view.h as i64;
    let mut found_bright = false;
    for dy in -2..=2i64 {
        for dx in 0..40i64 {
            if let Some(c) = client
                .client()
                .framebuffer()
                .get_pixel((line_in_view_x + dx) as i32, (line_in_view_y + dy) as i32)
            {
                // Anti-aliased remnant of the white line over red.
                if c.g > 60 && c.b > 60 {
                    found_bright = true;
                }
            }
        }
    }
    assert!(found_bright, "zoomed refresh should resolve the fine line");

    // Drawing outside the view sends nothing.
    let bytes_before = trace.total_bytes();
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(W as i32 - 50, H as i32 - 50, 40, 40),
        color: Color::rgb(9, 9, 9),
    });
    drain(&mut ws, &mut link, &mut trace, &mut client);
    assert_eq!(
        trace.total_bytes(),
        bytes_before,
        "updates outside the zoomed view must not be transmitted"
    );

    // Zoom back out and refresh: full desktop again.
    let msg = zoom.zoom_out();
    ws.driver_mut().handle_message(&msg);
    let screen = ws.screen().clone();
    ws.driver_mut().refresh_view(&screen);
    drain(&mut ws, &mut link, &mut trace, &mut client);
    let bottom = client
        .client()
        .framebuffer()
        .get_pixel(VW as i32 / 2, VH as i32 - 5)
        .unwrap();
    assert!(bottom.b > 100, "bottom half should be blue again: {bottom:?}");
}
