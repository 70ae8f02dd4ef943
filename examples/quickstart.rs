//! Quickstart: a complete THINC session in one file.
//!
//! Builds a window server with the THINC virtual display driver — a
//! session of one viewer — attached, draws a small desktop scene
//! (including offscreen composition, the pattern THINC's translation
//! layer exists for), flushes the resulting protocol commands over a
//! simulated LAN — exercising the *full* wire path: framing, the
//! viewer's RC4 encryption, decryption, frame reassembly and integrity
//! checks — and verifies that the client's framebuffer is
//! byte-identical to the server's screen.
//!
//! Run with: `cargo run --example quickstart`

use thinc::client::StreamClient;
use thinc::compress::Rc4;
use thinc::core::server::{ServerConfig, VIEWER};
use thinc::display::request::DrawRequest;
use thinc::display::server::WindowServer;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::SimTime;
use thinc::net::trace::PacketTrace;
use thinc::raster::{Color, PixelFormat, Rect};

fn main() {
    const KEY: &[u8] = b"quickstart-session-key!!";
    let (width, height) = (320, 240);

    // 1. Server: window server + THINC virtual display driver, a
    //    session whose one viewer's connection is RC4-keyed.
    let config = ServerConfig {
        width,
        height,
        rc4_key: Some(KEY.to_vec()),
        ..ServerConfig::default()
    };
    let mut ws = WindowServer::new(width, height, PixelFormat::Rgb888, config.session());
    println!("server: {:?}", ws.driver().hello());

    // 2. An application draws: desktop background, a window composed
    //    offscreen (as every modern toolkit does), then copied on.
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, width, height),
        color: Color::rgb(0, 90, 140),
    });
    let pm = match ws.process(DrawRequest::CreatePixmap { width: 200, height: 120 }) {
        thinc::display::request::RequestResult::Created(id) => id,
        other => panic!("pixmap creation failed: {other:?}"),
    };
    ws.process_all(vec![
        DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 200, 120),
            color: Color::rgb(238, 238, 230),
        },
        DrawRequest::FillRect {
            target: pm,
            rect: Rect::new(0, 0, 200, 16),
            color: Color::rgb(60, 60, 90),
        },
        DrawRequest::Text {
            target: pm,
            x: 6,
            y: 4,
            text: "thinc quickstart".into(),
            fg: Color::WHITE,
        },
        DrawRequest::Text {
            target: pm,
            x: 10,
            y: 30,
            text: "hello remote desktop".into(),
            fg: Color::BLACK,
        },
        DrawRequest::CopyArea {
            src: pm,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 200, 120),
            dst_x: 40,
            dst_y: 50,
        },
    ]);

    // 3. Flush over a simulated 100 Mbps LAN: the session frames and
    //    encrypts, the client decrypts, reassembles, verifies, applies.
    //    The greeting goes first.
    let mut link = NetworkConfig::lan_desktop().connect();
    let mut trace = PacketTrace::new();
    let mut client_rc4 = Rc4::new(KEY);
    let mut client = StreamClient::new(width, height, PixelFormat::Rgb888);
    let mut now = SimTime::ZERO;
    let mut wire_bytes = 0usize;
    let mut batch = vec![(now, ws.driver().hello())];
    loop {
        for (_arrival, msg) in batch {
            let mut bytes = ws.driver_mut().encode_frame(VIEWER, &msg);
            wire_bytes += bytes.len();
            client_rc4.apply(&mut bytes);
            client.feed(&bytes);
        }
        let viewer = ws.driver().viewer(VIEWER).expect("attached");
        if viewer.buffer().is_empty() && viewer.av_backlog() == 0 {
            break;
        }
        batch = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
        now = link.down.tx_free_at();
    }

    // 4. Verify: the client saw exactly what the server drew.
    assert_eq!(
        client.client().framebuffer().data(),
        ws.screen().data(),
        "client framebuffer must equal server screen"
    );
    let stats = ws.driver().translator_stats();
    println!(
        "translated commands: sfill={} bitmap={} copy={} raw={} (raw fallback bytes: {})",
        stats.sfill,
        stats.bitmap,
        stats.copy,
        stats.raw,
        stats.raw_fallback_bytes,
    );
    println!("client executed: {:?}", client.client().stats());
    println!("encrypted wire bytes: {wire_bytes}");
    println!("quickstart OK: client framebuffer is byte-identical to the server screen");
}
