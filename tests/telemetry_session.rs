//! Session-level telemetry integration: a scripted web-browsing
//! session through the full THINC pipeline must light up a counter
//! for every display command type the protocol can emit, and the
//! client's decode counts must agree with what the server sent.
//!
//! The browsing workload alone exercises RAW (images), SFILL
//! (solid backgrounds) and BITMAP (glyphs); the script adds a
//! pattern fill (PFILL) and an onscreen scroll (COPY) so all five
//! display commands of §4.1 appear in one session.

use thinc::baselines::traits::RemoteDisplay;
use thinc::bench::thinc_system::ThincSystem;
use thinc::bench::webbench::run_web;
use thinc::display::drawable::DrawableId;
use thinc::display::request::DrawRequest;
use thinc::display::SCREEN;
use thinc::net::link::NetworkConfig;
use thinc::net::time::SimTime;
use thinc::raster::{Color, Rect};
use thinc::telemetry::CommandKind;
use thinc::workloads::web::WebWorkload;

#[test]
fn scripted_web_session_counts_every_display_command() {
    let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 1024, 768);

    // Scripted prologue (before the workload so the pixmap id is
    // predictable): an 8x8 checker tiled across a region, then an
    // onscreen scroll.
    let tile = DrawableId(1);
    let reqs = vec![
        DrawRequest::CreatePixmap {
            width: 8,
            height: 8,
        },
        DrawRequest::FillRect {
            target: tile,
            rect: Rect::new(0, 0, 8, 8),
            color: Color::rgb(200, 200, 200),
        },
        DrawRequest::FillRect {
            target: tile,
            rect: Rect::new(0, 0, 4, 4),
            color: Color::rgb(40, 40, 40),
        },
        DrawRequest::TileRect {
            target: SCREEN,
            rect: Rect::new(0, 0, 256, 256),
            tile,
        },
        DrawRequest::CopyArea {
            src: SCREEN,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 128, 128),
            dst_x: 300,
            dst_y: 300,
        },
    ];
    sys.process(SimTime::ZERO, reqs);
    sys.drain(SimTime::ZERO);

    // A few pages of the standard browsing workload.
    run_web(&mut sys, &WebWorkload::standard(), 6);

    let t = sys.session_telemetry();
    let snap = t.snapshot();

    // Every §4.1 display command type was sent at least once.
    for (kind, decoded) in [
        (CommandKind::Raw, t.client.raw),
        (CommandKind::Copy, t.client.copy),
        (CommandKind::Sfill, t.client.sfill),
        (CommandKind::Pfill, t.client.pfill),
        (CommandKind::Bitmap, t.client.bitmap),
    ] {
        assert!(
            t.protocol.count(kind) > 0,
            "server never sent {}",
            kind.name()
        );
        assert!(decoded > 0, "client never decoded {}", kind.name());
        // Nothing was lost in flight: the client decoded exactly as
        // many messages of each kind as the server put on the wire.
        assert_eq!(
            decoded,
            t.protocol.count(kind),
            "sent/decoded mismatch for {}",
            kind.name()
        );
    }

    // Wire accounting is self-consistent.
    assert_eq!(
        snap.total_messages,
        snap.commands.iter().map(|r| r.count).sum::<u64>()
    );
    assert_eq!(
        snap.total_bytes,
        snap.commands.iter().map(|r| r.bytes).sum::<u64>()
    );
    let share: f64 = snap.commands.iter().map(|r| r.share).sum();
    assert!((share - 1.0).abs() < 1e-9, "shares sum to {share}");

    // The translator observed the same command mix it emitted.
    assert!(t.translator.pfill > 0);

    // Flush latency was measured for the display path, and the
    // timeline captured link samples for the JSONL export.
    assert!(snap.flushed > 0);
    assert!(!t.timeline.is_empty());
    let jsonl = t.export_jsonl();
    assert!(jsonl.lines().count() == t.timeline.len());
    assert!(jsonl.lines().all(|l| l.starts_with("{\"t_us\":")));

    // Clicks during the workload closed request-to-screen samples.
    assert!(snap.frames > 0);
    assert_eq!(t.client.errors, 0);

    // And the session still verifies: client framebuffer == screen.
    assert!(sys.verified());
}
