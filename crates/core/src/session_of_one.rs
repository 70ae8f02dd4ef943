//! A session of one: the single-client server's behaviour, driven
//! through the [`SharedSession`] that [`ServerConfig::session`] builds
//! and its viewer at [`VIEWER`] — drawing, the wire, the uplink,
//! liveness, the byte bound, the A/V bound, the degradation ladder, the
//! content cache, the session cipher and failover.
#![cfg(test)]

use thinc_compress::Rc4;
use thinc_display::input::InputEvent;
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_display::SCREEN;
use thinc_net::link::NetworkConfig;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, Framebuffer, PixelFormat, Rect, YuvFormat, YuvFrame};

use crate::checkpoint::{seal, CheckpointError, CHECKPOINT_HEADER_LEN};
use crate::delivery::Delivery;
use crate::fixtures::{checkpointable_server, KEY};
use crate::scaling::ScalePolicy;
use crate::server::{ServerConfig, VIEWER};
use crate::session::{Heard, SharedSession};

/// A 64x64 session whose client applies messages as they are, with no
/// content store to resolve references from.
fn config() -> ServerConfig {
    ServerConfig {
        width: 64,
        height: 64,
        cache_budget_bytes: None,
        ..ServerConfig::default()
    }
}

fn system_with(config: ServerConfig) -> WindowServer<SharedSession> {
    WindowServer::new(config.width, config.height, config.format, config.session())
}

fn system() -> WindowServer<SharedSession> {
    system_with(config())
}

fn viewer(ws: &WindowServer<SharedSession>) -> &Delivery {
    ws.driver().viewer(VIEWER).expect("the viewer stays attached")
}

/// Hands the session a client message, with the screen to answer it.
fn send(ws: &mut WindowServer<SharedSession>, msg: &Message) -> Heard {
    let (session, screen) = ws.driver_and_screen();
    session.handle_message(VIEWER, msg, screen)
}

/// Settles what the viewer is owed against the screen, without a draw.
fn repay(ws: &mut WindowServer<SharedSession>) {
    let (session, screen) = ws.driver_and_screen();
    session.repay_refreshes(screen);
}

fn drained(ws: &WindowServer<SharedSession>) -> bool {
    viewer(ws).buffer().is_empty() && viewer(ws).av_backlog() == 0
}

fn flush_all(ws: &mut WindowServer<SharedSession>) -> Vec<Message> {
    let mut link = NetworkConfig::lan_desktop().connect();
    let mut trace = PacketTrace::new();
    let mut now = SimTime::ZERO;
    let mut msgs = Vec::new();
    for _ in 0..100 {
        let batch = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
        msgs.extend(batch.into_iter().map(|(_, m)| m));
        if drained(ws) {
            break;
        }
        now = link.down.tx_free_at();
    }
    msgs
}

#[test]
fn fill_reaches_the_wire_as_sfill() {
    let mut ws = system();
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, 32, 32),
        color: Color::rgb(1, 2, 3),
    });
    let msgs = flush_all(&mut ws);
    assert!(msgs
        .iter()
        .any(|m| matches!(m, Message::Display(DisplayCommand::Sfill { .. }))));
}

#[test]
fn video_frame_reaches_the_wire() {
    let mut ws = system();
    let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
    ws.process(DrawRequest::VideoPut {
        frame,
        dst: Rect::new(0, 0, 64, 64),
    });
    let msgs = flush_all(&mut ws);
    assert!(msgs.iter().any(|m| matches!(m, Message::VideoInit { .. })));
    assert!(msgs.iter().any(|m| matches!(m, Message::VideoData { .. })));
}

#[test]
fn audio_write_produces_messages() {
    let mut ws = system();
    ws.driver_mut().open_audio(44_100, 2);
    ws.driver_mut().play_audio(&vec![0u8; 8192]);
    ws.driver_mut().close_audio();
    let msgs = flush_all(&mut ws);
    assert!(msgs.iter().filter(|m| matches!(m, Message::Audio { .. })).count() >= 2);
}

#[test]
fn client_hello_activates_scaling() {
    let mut ws = system();
    send(
        &mut ws,
        &Message::ClientHello {
            version: 1,
            viewport_width: 32,
            viewport_height: 32,
        },
    );
    assert!(!viewer(&ws).scale().is_identity());
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, 64, 64),
        color: Color::WHITE,
    });
    let msgs = flush_all(&mut ws);
    let r = msgs
        .iter()
        .find_map(|m| match m {
            Message::Display(DisplayCommand::Sfill { rect, .. }) => Some(*rect),
            _ => None,
        })
        .unwrap();
    assert_eq!(r, Rect::new(0, 0, 32, 32));
}

#[test]
fn input_marks_updates_realtime() {
    let mut ws = system();
    // Click at (10, 10), then draw feedback there and bulk far away.
    let ev = send(
        &mut ws,
        &Message::Input(ProtocolInput::ButtonPress {
            x: 10,
            y: 10,
            button: 1,
        }),
    );
    assert!(matches!(ev, Heard::Input(InputEvent::ButtonPress(_))));
    // A small fill outside the 32-pixel input halo around (10, 10),
    // then larger feedback inside it.
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(50, 50, 8, 8),
        color: Color::WHITE,
    });
    ws.process(DrawRequest::PutImage {
        target: SCREEN,
        rect: Rect::new(4, 4, 16, 16),
        data: crate::fixtures::noise(16 * 16 * 3, 3),
    });
    let msgs = flush_all(&mut ws);
    // The button feedback (realtime) is the first *display*
    // update delivered although it arrived second and is larger:
    // SRSF alone would send the fill first (cursor control
    // messages precede both in the priority FIFO).
    let first_display = msgs
        .iter()
        .find(|m| matches!(m, Message::Display(_)))
        .unwrap();
    assert!(matches!(
        first_display,
        Message::Display(DisplayCommand::Raw { .. })
    ));
}

#[test]
fn offscreen_to_screen_keeps_semantics_end_to_end() {
    let mut ws = system();
    let res = ws.process(DrawRequest::CreatePixmap { width: 16, height: 16 });
    let pm = match res {
        thinc_display::request::RequestResult::Created(id) => id,
        other => panic!("{other:?}"),
    };
    ws.process(DrawRequest::FillRect {
        target: pm,
        rect: Rect::new(0, 0, 16, 16),
        color: Color::rgb(4, 5, 6),
    });
    // Nothing sent while drawing stays offscreen.
    assert_eq!(ws.driver().backlog(VIEWER), 0);
    ws.process(DrawRequest::CopyArea {
        src: pm,
        dst: SCREEN,
        src_rect: Rect::new(0, 0, 16, 16),
        dst_x: 8,
        dst_y: 8,
    });
    let msgs = flush_all(&mut ws);
    assert!(msgs
        .iter()
        .any(|m| matches!(m, Message::Display(DisplayCommand::Sfill { .. }))));
    assert!(!msgs
        .iter()
        .any(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
}

#[test]
fn composite_travels_as_raw_of_blended_result() {
    let mut ws = system();
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, 64, 64),
        color: Color::rgb(0, 0, 0),
    });
    let data: Vec<u8> = vec![255u8, 0, 0, 128]
        .into_iter()
        .cycle()
        .take(8 * 8 * 4)
        .collect();
    ws.process(DrawRequest::Composite {
        target: SCREEN,
        rect: Rect::new(8, 8, 8, 8),
        data,
        op: thinc_raster::CompositeOp::Over,
    });
    let msgs = flush_all(&mut ws);
    // The blend result arrives as RAW; a client replay matches.
    assert!(msgs
        .iter()
        .any(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
    let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
    for m in &msgs {
        client.apply(m);
    }
    assert_eq!(
        client.framebuffer().get_pixel(12, 12),
        ws.screen().get_pixel(12, 12)
    );
}

#[test]
fn encryption_round_trip() {
    // A keyed viewer's frames are its unkeyed twin's, encrypted; the
    // client decrypts with its own keystream at the same position,
    // frame after frame.
    let mut keyed = ServerConfig { rc4_key: Some(KEY.to_vec()), ..ServerConfig::default() }.session();
    let mut plain = ServerConfig::default().session();
    let mut client = Rc4::new(KEY);
    for msg in [Message::CursorMove { x: 3, y: 4 }, Message::CursorMove { x: 3, y: 4 }] {
        let clear = plain.encode_frame(VIEWER, &msg);
        let mut frame = keyed.encode_frame(VIEWER, &msg);
        assert_ne!(frame, clear);
        client.apply(&mut frame);
        assert_eq!(frame, clear);
    }
}

#[test]
fn a_keyed_viewers_key_survives_checkpoint_and_restore() {
    // The key travels in the viewer's record: the standby's image is
    // the primary's, and it frames at the primary's revision and
    // sequence, encrypted by a keystream restarted from the key (the
    // client re-keys on reconnect).
    let ws = checkpointable_server();
    let image = ws.driver().checkpoint(ws.screen());
    let mut restored = SharedSession::restore(&image).expect("valid image restores");
    assert!(restored.checkpoint(ws.screen()) == image, "restore -> checkpoint changed the image");
    let encoder = restored.viewer(VIEWER).unwrap().encoder();
    let mut clear = FrameEncoder::with_revision(encoder.revision());
    clear.set_next_seq(encoder.next_seq());
    let probe = Message::CursorMove { x: 3, y: 4 };
    let mut frame = restored.encode_frame(VIEWER, &probe);
    Rc4::new(KEY).apply(&mut frame);
    assert_eq!(frame, clear.encode(&probe));
    // A damaged keyed image is a typed error, never a partial session.
    for cut in 0..image.len() {
        assert!(SharedSession::restore(&image[..cut]).is_err(), "prefix {cut}");
    }
    for byte in (0..image.len()).step_by(41) {
        let mut bad = image.clone();
        bad[byte] ^= 0x08;
        assert!(SharedSession::restore(&bad).is_err(), "flip at {byte}");
    }
    // So is a key RC4 cannot take, under a valid checksum.
    let at = image.windows(KEY.len()).position(|w| w == KEY).expect("the key is in the image");
    for len in [0u32, 257] {
        let mut payload = image[CHECKPOINT_HEADER_LEN..].to_vec();
        let field = at - 4 - CHECKPOINT_HEADER_LEN;
        payload[field..field + 4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            SharedSession::restore(&seal(payload)).err(),
            Some(CheckpointError::Malformed("session key length"))
        );
    }
}

#[test]
fn liveness_pings_then_declares_dead_and_resync_revives() {
    use crate::liveness::{LivenessConfig, LivenessVerdict};
    use thinc_net::time::SimDuration;
    let mut ws = system_with(ServerConfig {
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs_f64(10.0),
            ping_interval: SimDuration::from_secs_f64(2.0),
        }),
        ..config()
    });
    let secs = |s: f64| SimTime((s * 1e6) as u64);
    // Silence past the ping interval queues a probe on the wire.
    assert!(matches!(
        ws.driver_mut().poll_client_liveness(VIEWER, secs(3.0)),
        LivenessVerdict::SendPing { .. }
    ));
    let msgs = flush_all(&mut ws);
    assert!(msgs.iter().any(|m| matches!(m, Message::Ping { .. })));
    // A pong (any client message) rescues it.
    ws.driver_mut().set_time(secs(4.0));
    send(&mut ws, &Message::Pong { seq: 0, timestamp_us: 3_000_000 });
    assert!(matches!(
        ws.driver_mut().poll_client_liveness(VIEWER, secs(5.0)),
        LivenessVerdict::Alive
    ));
    // Sustained silence declares it dead — once.
    assert!(matches!(
        ws.driver_mut().poll_client_liveness(VIEWER, secs(14.5)),
        LivenessVerdict::Dead
    ));
    assert!(viewer(&ws).is_dead());
    let m = viewer(&ws).resilience_metrics();
    assert_eq!(m.liveness_timeouts(), 1);
    assert!(m.pings_sent() >= 1);
    // Reconnect: resync revives the client.
    let (session, screen) = ws.driver_and_screen();
    session.resync_client(VIEWER, screen);
    assert!(!viewer(&ws).is_dead());
    assert_eq!(viewer(&ws).resilience_metrics().resyncs(), 1);
}

#[test]
fn overflow_debt_is_repaid_as_raw_and_client_converges() {
    // A tiny byte bound forces evictions; the next draw repays
    // the debt with fresh-screen RAW and the client still
    // converges to the exact screen content.
    let mut ws = system_with(ServerConfig {
        buffer_bound_bytes: Some(4 * 1024),
        ..config()
    });
    // Several large overlapping images blow through the bound.
    for i in 0..6 {
        ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(i * 4, i * 4, 32, 32),
            data: vec![(i * 40) as u8; 32 * 32 * 3],
        });
    }
    let evicted = viewer(&ws).buffer().stats().overflow_evicted;
    assert!(evicted > 0, "bound should have forced evictions");
    assert_eq!(viewer(&ws).resilience_metrics().overflow_evictions(), evicted);
    // Drain, then repay any debt deferred while the bound was
    // full (repayment only pushes pieces that fit).
    let mut msgs = flush_all(&mut ws);
    for _ in 0..10 {
        if !viewer(&ws).has_debt() {
            break;
        }
        repay(&mut ws);
        msgs.extend(flush_all(&mut ws));
    }
    assert!(!viewer(&ws).has_debt());
    let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
    for m in &msgs {
        client.apply(m);
    }
    assert_eq!(client.framebuffer().data(), ws.screen().data());
}

#[test]
fn av_bound_drops_oldest_video_keeps_control() {
    let mut ws = system_with(ServerConfig {
        av_bound: Some(4),
        ..config()
    });
    ws.driver_mut().set_cursor(8, 8, 0, 0, vec![0; 8 * 8 * 4]);
    let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
    for _ in 0..10 {
        ws.process(DrawRequest::VideoPut {
            frame: frame.clone(),
            dst: Rect::new(0, 0, 64, 64),
        });
    }
    assert!(viewer(&ws).av_backlog() <= 4);
    assert!(viewer(&ws).resilience_metrics().stale_video_dropped() > 0);
    // The cursor shape survived the pressure.
    let msgs = flush_all(&mut ws);
    assert!(msgs.iter().any(|m| matches!(m, Message::CursorShape { .. })));
}

#[test]
fn resync_reannounces_live_video_streams() {
    let mut ws = system();
    let frame = YuvFrame::new(YuvFormat::Yv12, 16, 16);
    ws.process(DrawRequest::VideoPut {
        frame,
        dst: Rect::new(0, 0, 64, 64),
    });
    let _ = flush_all(&mut ws);
    // Reconnect: a fresh client must learn the stream geometry.
    let (session, screen) = ws.driver_and_screen();
    session.resync_client(VIEWER, screen);
    let msgs = flush_all(&mut ws);
    assert!(msgs.iter().any(|m| matches!(m, Message::VideoInit { .. })));
}

#[test]
fn stale_pong_does_not_rescue_the_client() {
    use crate::liveness::{LivenessConfig, LivenessVerdict};
    use thinc_net::time::SimDuration;
    let cfg = ServerConfig {
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs_f64(10.0),
            ping_interval: SimDuration::from_secs_f64(2.0),
        }),
        ..ServerConfig::default()
    };
    let mut s = cfg.session();
    let screen = Framebuffer::new(cfg.width, cfg.height, cfg.format);
    let secs = |t: f64| SimTime((t * 1e6) as u64);
    // Probe goes out with seq 0.
    assert!(matches!(
        s.poll_client_liveness(VIEWER, secs(3.0)),
        LivenessVerdict::SendPing { seq: 0 }
    ));
    // A pong answering some other (long-gone) probe surfaces from
    // the recovering link's queue: it must not count as fresh
    // traffic.
    s.set_time(secs(4.0));
    s.handle_message(VIEWER, &Message::Pong { seq: 7, timestamp_us: 0 }, &screen);
    assert!(matches!(
        s.poll_client_liveness(VIEWER, secs(10.5)),
        LivenessVerdict::Dead
    ));
    assert!(s.client_dead(VIEWER));
}

#[test]
fn degradation_ladder_descends_under_faults_and_recovers() {
    use crate::degradation::{DegradationConfig, DegradationLevel};
    use thinc_net::fault::FaultPlan;
    use thinc_net::time::SimDuration;
    let mut ws = system_with(ServerConfig {
        buffer_bound_bytes: Some(32 * 1024),
        av_bound: Some(8),
        degradation: Some(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        }),
        ..config()
    });
    // Link collapses for the first second.
    let plan = FaultPlan::seeded(3)
        .with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
    let mut link = NetworkConfig::lan_desktop().with_faults(plan).connect();
    let mut trace = PacketTrace::new();
    let secs = |t: f64| SimTime((t * 1e6) as u64);
    // Each flush inside the window is a pressured epoch.
    for i in 0..3 {
        let now = secs(0.1 * (i + 1) as f64);
        let _ = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
    }
    assert_eq!(viewer(&ws).degradation_level(), DegradationLevel::Survival);
    assert!(!viewer(&ws).scale().is_identity(), "survival shrinks the scale");
    let m = viewer(&ws).resilience_metrics();
    assert_eq!(m.degrade_steps(), 3);
    assert_eq!(m.max_degradation_level(), 3);
    assert_eq!(m.degradation_level(), 3);
    // The window clears: each clear epoch climbs one rung.
    for i in 0..3 {
        let now = secs(1.5 + 0.1 * i as f64);
        let _ = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
    }
    assert_eq!(viewer(&ws).degradation_level(), DegradationLevel::Full);
    assert!(viewer(&ws).scale().is_identity());
    let m = viewer(&ws).resilience_metrics();
    assert_eq!(m.promote_steps(), 3);
    assert_eq!(m.degradation_level(), 0);
    // The promotion back to Full owes a refresh: the next draw
    // repays the low-fidelity period and the client converges
    // byte-exact.
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(10, 10, 8, 8),
        color: Color::rgb(9, 8, 7),
    });
    let msgs = flush_all(&mut ws);
    let mut client = thinc_client::ThincClient::new(64, 64, PixelFormat::Rgb888);
    client.apply_all(&msgs);
    assert_eq!(client.framebuffer().data(), ws.screen().data());
}

#[test]
fn overflow_repay_respects_active_scaling() {
    // Regression: repaying debt while server-side scaling is
    // active used to read the *viewport-space* debt rects straight
    // off the session-sized screen and then scale the result
    // again — repainting the wrong region with doubly-shrunk
    // content. The ledger is session-space now and each piece is
    // scaled exactly once, so a scaled client converges to the
    // same image as a one-shot scaled snapshot of the screen.
    let mut ws = system_with(ServerConfig {
        buffer_bound_bytes: Some(1024),
        ..config()
    });
    send(
        &mut ws,
        &Message::ClientHello {
            version: 1,
            viewport_width: 32,
            viewport_height: 32,
        },
    );
    assert!(!viewer(&ws).scale().is_identity());
    for i in 0..6 {
        ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(i * 4, i * 4, 32, 32),
            data: vec![(i * 40) as u8; 32 * 32 * 3],
        });
    }
    assert!(viewer(&ws).buffer().stats().overflow_evicted > 0);
    let mut msgs = flush_all(&mut ws);
    for _ in 0..10 {
        if !viewer(&ws).has_debt() {
            break;
        }
        repay(&mut ws);
        msgs.extend(flush_all(&mut ws));
    }
    assert!(!viewer(&ws).has_debt());
    // Every repaid RAW must target the viewport, not a
    // doubly-shrunk corner of it.
    let vp = Rect::new(0, 0, 32, 32);
    for m in &msgs {
        if let Message::Display(cmd) = m {
            let r = cmd.dest_rect();
            assert!(
                vp.contains(&r),
                "command outside the viewport: {r:?}"
            );
        }
    }
    let mut client = thinc_client::ThincClient::new(32, 32, PixelFormat::Rgb888);
    client.apply_all(&msgs);
    // Expected: the final screen, scaled once.
    let (clip, data) = ws.screen().get_raw(&Rect::new(0, 0, 64, 64));
    let full = DisplayCommand::Raw {
        rect: clip,
        encoding: thinc_protocol::commands::RawEncoding::None,
        data: data.into(),
    };
    let scaled = ScalePolicy::new(64, 64, 32, 32)
        .transform(&full, ws.screen())
        .expect("full-screen raw survives scaling");
    let mut expect = thinc_client::ThincClient::new(32, 32, PixelFormat::Rgb888);
    expect.apply(&Message::Display(scaled));
    assert_eq!(client.framebuffer().data(), expect.framebuffer().data());
}

#[test]
fn older_peers_turn_the_cache_off_and_revision3_turns_it_back_on() {
    let hello = |version| Message::ClientHello {
        version,
        viewport_width: 1024,
        viewport_height: 768,
    };
    let cache_enabled = |s: &SharedSession| s.viewer(VIEWER).unwrap().buffer().cache_enabled();
    let screen = Framebuffer::new(1024, 768, PixelFormat::Rgb888);
    let mut s = ServerConfig::default().session();
    assert!(cache_enabled(&s), "attaching is the handshake");
    assert_eq!(s.viewer(VIEWER).unwrap().encoder().revision(), PROTOCOL_VERSION);
    s.handle_message(VIEWER, &hello(2), &screen);
    assert!(!cache_enabled(&s), "a revision-2 peer cannot resolve refs");
    s.handle_message(VIEWER, &hello(PROTOCOL_VERSION), &screen);
    assert!(cache_enabled(&s));
    // And the config switch disables it even for revision-3 peers.
    let mut s = ServerConfig {
        cache_budget_bytes: None,
        ..ServerConfig::default()
    }
    .session();
    s.handle_message(VIEWER, &hello(PROTOCOL_VERSION), &screen);
    assert!(!cache_enabled(&s));
}

#[test]
fn repeated_content_travels_as_cache_refs_and_client_converges() {
    let mut ws = system_with(ServerConfig { width: 64, height: 64, ..ServerConfig::default() });
    send(
        &mut ws,
        &Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: 64,
            viewport_height: 64,
        },
    );
    assert!(viewer(&ws).buffer().cache_enabled());
    let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
    let hello = ws.driver().hello();
    sc.feed(&ws.driver_mut().encode_frame(VIEWER, &hello));
    // The same tile drawn three times: the first flush ships the
    // payload, later rounds ship references the client resolves
    // from its store.
    let mut refs = 0u64;
    for _ in 0..3 {
        ws.process(DrawRequest::PutImage {
            target: SCREEN,
            rect: Rect::new(0, 0, 16, 16),
            data: vec![123u8; 16 * 16 * 3],
        });
        for m in flush_all(&mut ws) {
            if matches!(m, Message::CacheRef { .. }) {
                refs += 1;
            }
            sc.feed(&ws.driver_mut().encode_frame(VIEWER, &m));
        }
    }
    assert!(refs >= 2, "repeat rounds must travel as references");
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    let m = viewer(&ws).resilience_metrics();
    assert_eq!(m.cache_hits(), refs);
    assert_eq!(sc.resilience_metrics().cache_hits(), refs);
    assert!(m.cache_bytes_saved() > 0);
}

#[test]
fn unsatisfiable_cache_miss_escalates_to_refresh() {
    let mut s = ServerConfig::default().session();
    let screen = Framebuffer::new(1024, 768, PixelFormat::Rgb888);
    let hello = Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: 1024,
        viewport_height: 768,
    };
    s.handle_message(VIEWER, &hello, &screen);
    // A miss for a hash the ledger never held (or evicted): the
    // client skipped an update, so a full-view refresh is owed.
    s.handle_message(VIEWER, &Message::CacheMiss { hash: 0xBAD_C0DE }, &screen);
    let v = s.viewer(VIEWER).unwrap();
    assert!(v.refresh_owed(), "unsatisfiable miss owes a refresh");
    assert_eq!(v.resilience_metrics().cache_misses(), 1);
}

/// Tile T's rect in [`evicted_tile`]'s session.
const T_RECT: Rect = Rect::new(8, 8, 16, 16);

fn put_noise(ws: &mut WindowServer<SharedSession>, rect: Rect, seed: u32) {
    let data = crate::fixtures::noise(16 * 16 * 3, seed);
    ws.process(DrawRequest::PutImage { target: SCREEN, rect, data });
}

/// A 64x64 revision-3 session whose stream client has seen noise tile
/// T at [`T_RECT`] and then evicted it: its store holds one tile (a
/// 1000-byte budget), the ledger both. A client store smaller than the
/// ledger stands in for a lost insert.
fn evicted_tile() -> (WindowServer<SharedSession>, thinc_client::StreamClient) {
    let mut ws = system_with(ServerConfig { width: 64, height: 64, ..ServerConfig::default() });
    let hello =
        Message::ClientHello { version: PROTOCOL_VERSION, viewport_width: 64, viewport_height: 64 };
    send(&mut ws, &hello);
    let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888).with_cache_budget(1000);
    let server_hello = ws.driver().hello();
    sc.feed(&ws.driver_mut().encode_frame(VIEWER, &server_hello));
    put_noise(&mut ws, T_RECT, 1);
    put_noise(&mut ws, Rect::new(40, 40, 16, 16), 2);
    drain_into(&mut ws, &mut sc);
    assert_eq!(sc.cache_store().lru().len(), 1, "the client store holds one tile");
    (ws, sc)
}

/// Draws T again, which ships as a reference the client cannot
/// resolve, and returns what the client sends back: the miss.
fn reference_t(ws: &mut WindowServer<SharedSession>, sc: &mut thinc_client::StreamClient) -> Vec<Message> {
    put_noise(ws, T_RECT, 1);
    let refs = flush_all(ws);
    assert!(matches!(refs[..], [Message::CacheRef { .. }]), "{refs:?}");
    for m in &refs {
        sc.feed(&ws.driver_mut().encode_frame(VIEWER, m));
    }
    let uplink = sc.take_uplink(SimTime::ZERO);
    assert!(matches!(uplink[..], [Message::CacheMiss { .. }]), "{uplink:?}");
    uplink
}

/// Hands the session the client's `uplink`, then repays and drains.
fn answer(ws: &mut WindowServer<SharedSession>, sc: &mut thinc_client::StreamClient, uplink: &[Message]) {
    for m in uplink {
        send(ws, m);
    }
    repay(ws);
    drain_into(ws, sc);
}

#[test]
fn a_miss_that_lands_after_a_newer_command_repaints_the_screen() {
    // The miss reaches the server only after a fill over T's rect has
    // shipped; answering it must not paint T over the fill.
    let (mut ws, mut sc) = evicted_tile();
    let uplink = reference_t(&mut ws, &mut sc);
    ws.process(DrawRequest::FillRect { target: SCREEN, rect: T_RECT, color: Color::rgb(0, 90, 180) });
    drain_into(&mut ws, &mut sc);
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    answer(&mut ws, &mut sc, &uplink);
    assert!(sc.client().framebuffer().data() == ws.screen().data(), "the miss repainted T over the fill");
}

#[test]
fn a_missed_tile_is_repainted_from_the_screen() {
    // The client's T_RECT shows a fill when the reference to T misses:
    // only the answer to the miss can bring T back.
    let (mut ws, mut sc) = evicted_tile();
    ws.process(DrawRequest::FillRect { target: SCREEN, rect: T_RECT, color: Color::rgb(0, 90, 180) });
    drain_into(&mut ws, &mut sc);
    let uplink = reference_t(&mut ws, &mut sc);
    assert!(sc.client().framebuffer().data() != ws.screen().data(), "the client missed T");
    answer(&mut ws, &mut sc, &uplink);
    assert!(sc.client().framebuffer().data() == ws.screen().data(), "the miss was not repaid");
}

/// A 64x64 session behind a revision-3 handshake, its screen painted
/// with 64 distinct rows and a stream client converged on it.
fn scrollable(config: ServerConfig) -> (WindowServer<SharedSession>, thinc_client::StreamClient) {
    let mut ws = system_with(ServerConfig {
        width: 64,
        height: 64,
        ..config
    });
    send(
        &mut ws,
        &Message::ClientHello {
            version: PROTOCOL_VERSION,
            viewport_width: 64,
            viewport_height: 64,
        },
    );
    let mut sc = thinc_client::StreamClient::new(64, 64, PixelFormat::Rgb888);
    let hello = ws.driver().hello();
    sc.feed(&ws.driver_mut().encode_frame(VIEWER, &hello));
    for y in 0..64 {
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, y, 64, 1),
            color: Color::rgb(y as u8 * 3, 200 - y as u8, 17),
        });
    }
    drain_into(&mut ws, &mut sc);
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
    (ws, sc)
}

fn drain_into(ws: &mut WindowServer<SharedSession>, sc: &mut thinc_client::StreamClient) {
    for m in flush_all(ws) {
        sc.feed(&ws.driver_mut().encode_frame(VIEWER, &m));
    }
}

/// An 8-row scroll whose source and destination overlap: applied
/// on top of a snapshot that already shows it, it scrolls twice.
fn scroll_up(ws: &mut WindowServer<SharedSession>) {
    ws.process(DrawRequest::CopyArea {
        src: SCREEN,
        dst: SCREEN,
        src_rect: Rect::new(0, 8, 64, 56),
        dst_x: 0,
        dst_y: 0,
    });
}

#[test]
fn copy_after_owed_refresh_converges() {
    // Regression: the owed refresh is read from a screen that
    // already shows the round's COPY, so pushing the COPY behind
    // it left the client's row 0 holding screen row 16, not 8.
    let (mut ws, mut sc) = scrollable(ServerConfig::default());
    send(&mut ws, &Message::CacheMiss { hash: 0xBAD_C0DE });
    scroll_up(&mut ws);
    drain_into(&mut ws, &mut sc);
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
}

#[test]
fn copy_after_ladder_promotion_converges() {
    use crate::degradation::{DegradationConfig, DegradationLevel};
    use thinc_net::fault::FaultPlan;
    use thinc_net::time::SimDuration;
    let (mut ws, mut sc) = scrollable(ServerConfig {
        degradation: Some(DegradationConfig {
            degrade_after: 1,
            promote_after: 1,
            ..DegradationConfig::default()
        }),
        ..ServerConfig::default()
    });
    // A collapsed link walks the ladder down, a clear one back up;
    // nothing draws meanwhile, so the promotion's refresh is still
    // owed when the scroll arrives.
    let plan = FaultPlan::seeded(3).with_collapse(SimTime(0), SimDuration::from_secs(1), 0.05);
    let mut link = NetworkConfig::lan_desktop().with_faults(plan).connect();
    let mut trace = PacketTrace::new();
    for t in [100_000, 200_000, 300_000, 1_500_000, 1_600_000, 1_700_000] {
        let sent = ws.driver_mut().flush_client(VIEWER, SimTime(t), &mut link.down, &mut trace);
        assert!(sent.is_empty());
    }
    assert_eq!(viewer(&ws).degradation_level(), DegradationLevel::Full);
    assert_eq!(viewer(&ws).resilience_metrics().promote_steps(), 3);
    scroll_up(&mut ws);
    drain_into(&mut ws, &mut sc);
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
}

#[test]
fn restored_server_converges_the_client() {
    // A client that saw everything up to the crash converges
    // byte-exact on the stream the restored standby produces. The
    // fixture's connection is keyed: the client decrypts every
    // frame, and re-keys with the standby, whose keystream restarts.
    let mut ws = checkpointable_server();
    let mut sc = thinc_client::StreamClient::new(48, 48, PixelFormat::Rgb888);
    let mut rc4 = Rc4::new(KEY);
    let mut deliver = |ws: &mut WindowServer<SharedSession>, rc4: &mut Rc4, m: &Message| {
        let mut bytes = ws.driver_mut().encode_frame(VIEWER, m);
        rc4.apply(&mut bytes);
        sc.feed(&bytes);
    };
    let hello = ws.driver().hello();
    deliver(&mut ws, &mut rc4, &hello);
    let mut link = NetworkConfig::lan_desktop().connect();
    let mut trace = PacketTrace::new();
    let mut now = SimTime(20_000);
    for _ in 0..50 {
        let batch = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
        for (_, m) in &batch {
            deliver(&mut ws, &mut rc4, m);
        }
        if drained(&ws) {
            break;
        }
        now = link.down.tx_free_at();
    }
    // Crash & failover mid-session: new content arrives only
    // after the standby took over.
    let image = ws.driver().checkpoint(ws.screen());
    *ws.driver_mut() = SharedSession::restore(&image).unwrap();
    let mut rc4 = Rc4::new(KEY);
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(0, 0, 64, 16),
        color: Color::rgb(9, 200, 9),
    });
    for _ in 0..50 {
        let batch = ws.driver_mut().flush_client(VIEWER, now, &mut link.down, &mut trace);
        for (_, m) in &batch {
            deliver(&mut ws, &mut rc4, m);
        }
        if drained(&ws) {
            break;
        }
        now = link.down.tx_free_at();
    }
    assert_eq!(
        sc.resilience_metrics().seq_gaps(),
        0,
        "failover must not break the frame sequence"
    );
    // Expected image: the final screen scaled once onto the
    // 48x48 viewport.
    let (clip, data) = ws.screen().get_raw(&Rect::new(0, 0, 64, 64));
    let full = DisplayCommand::Raw {
        rect: clip,
        encoding: thinc_protocol::commands::RawEncoding::None,
        data: data.into(),
    };
    let scaled = ScalePolicy::new(64, 64, 48, 48)
        .transform(&full, ws.screen())
        .expect("full-screen raw survives scaling");
    let mut expect = thinc_client::ThincClient::new(48, 48, PixelFormat::Rgb888);
    expect.apply(&Message::Display(scaled));
    assert_eq!(sc.client().framebuffer().data(), expect.framebuffer().data());
}

#[test]
fn warm_resume_after_failover_repaints_the_unshipped_draw() {
    // The primary draws after its last image and dies before it
    // flushes: the standby restored from that image owes the warm-
    // resumed client the tiles that changed since, or the draw is
    // lost for good. Answering the resume token settles them.
    let (mut ws, mut sc) = scrollable(ServerConfig::default());
    let image = ws.driver().checkpoint(ws.screen());
    ws.process(DrawRequest::FillRect {
        target: SCREEN,
        rect: Rect::new(8, 8, 20, 12),
        color: Color::rgb(250, 10, 10),
    });
    *ws.driver_mut() = SharedSession::restore(&image).unwrap();
    let session_id = ws.driver().session_id();
    for msg in sc.redial(session_id, 0) {
        send(&mut ws, &msg);
    }
    drain_into(&mut ws, &mut sc);
    assert_eq!(viewer(&ws).resilience_metrics().resumes(), 1, "resumed warm");
    assert_eq!(sc.client().framebuffer().data(), ws.screen().data());
}

#[test]
fn hello_reports_session_geometry() {
    let s = ServerConfig::default().session();
    match s.hello() {
        Message::ServerHello { width, height, depth, .. } => {
            assert_eq!((width, height, depth), (1024, 768, 24));
        }
        other => panic!("{other:?}"),
    }
}
