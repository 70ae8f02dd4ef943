//! Golden wire captures: old-peer interop pinned by artifact.
//!
//! `golden/wire_rev{1,2,3}.cap` and `golden/wire_rev3_resume.cap` hold
//! what a server put on the wire — `encode_frame` output, byte for byte
//! — for one scripted session per protocol revision (every display
//! command kind, cursor, audio, video, a liveness probe, and at
//! revision 3 cache references), the last one continuing across a
//! crash, a restore and a warm resume. Every build must still decode
//! each capture through `StreamClient` to the framebuffer digest
//! recorded with it: a change that stops an old stream from decoding
//! fails here, whatever the negotiation unit tests say. The captures
//! pin the *decoder*; a later encoder is free to produce other bytes.
//!
//! A capture is a sequence of chunks, `[kind u8][len u32 LE][bytes]`:
//! the server's framed hello, bytes it sent downstream, the points
//! where the client redials, and last the FNV-1a 64 digest of the
//! client's framebuffer. After an intended format change, run the one
//! writer:
//! `cargo test -p thinc-core --test wire_golden -- --ignored regenerate_golden`.

mod fixtures;

use std::path::PathBuf;

use fixtures::noise;
use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_core::LivenessConfig;
use thinc_display::drawable::SCREEN;
use thinc_display::request::{DrawRequest, RequestResult};
use thinc_display::server::WindowServer;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::hash::fnv64;
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::{decode_message, encode_message};
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, PixelFormat, Rect, YuvFormat, YuvFrame};

const W: u32 = 64;
const H: u32 = 48;

const HELLO: u8 = 0;
const DOWN: u8 = 1;
const REDIAL: u8 = 2;
const DIGEST: u8 = 3;

/// `(file, revision, crosses a crash and a warm resume)`.
const CAPTURES: [(&str, u16, bool); 4] = [
    ("wire_rev1.cap", 1, false),
    ("wire_rev2.cap", 2, false),
    ("wire_rev3.cap", 3, false),
    ("wire_rev3_resume.cap", 3, true),
];

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

fn chunk(out: &mut Vec<u8>, kind: u8, bytes: &[u8]) {
    out.push(kind);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// A client that speaks up to `rev`, past the server's greeting. This
/// build's `StreamClient` speaks `PROTOCOL_VERSION`; an older peer is
/// one whose own ceiling, not the server's announcement, fixes the
/// revision it reads — so it sees the greeting clamped to `rev`.
fn connect(rev: u16, hello_frame: &[u8]) -> StreamClient {
    let Ok((Message::ServerHello { version, width, height, depth }, _)) =
        decode_message(hello_frame)
    else {
        panic!("a capture opens with the server's hello");
    };
    assert!(version >= rev, "the server speaks at least revision {rev}");
    let mut client = StreamClient::new(width, height, PixelFormat::Rgb888);
    client.feed(&encode_message(&Message::ServerHello {
        version: version.min(rev),
        width,
        height,
        depth,
    }));
    client
}

/// One flush-until-drained: every message framed, recorded and fed to
/// the client, whose replies go back up.
fn drain(
    ws: &mut WindowServer<ThincServer>,
    pipe: &mut TcpPipe,
    now: &mut SimTime,
    client: &mut StreamClient,
    cap: &mut Vec<u8>,
) {
    for _ in 0..200 {
        now.0 += 10_000;
        ws.driver_mut().set_time(*now);
        for (_, msg) in ws.driver_mut().flush(*now, pipe, &mut PacketTrace::new()) {
            let frame = ws.driver_mut().encode_frame(&msg);
            client.feed(&frame);
            chunk(cap, DOWN, &frame);
        }
        for msg in client.take_uplink(*now) {
            ws.driver_mut().handle_message(&msg);
        }
        if ws.driver().display_backlog() == 0 && ws.driver().av_backlog() == 0 {
            return;
        }
    }
    panic!("the scripted session did not drain");
}

/// Runs the scripted session at `rev` and returns its capture.
fn capture(rev: u16, resume: bool) -> Vec<u8> {
    let thinc = ThincServer::new(ServerConfig {
        width: W,
        height: H,
        liveness: Some(LivenessConfig {
            timeout: SimDuration::from_secs(60),
            ping_interval: SimDuration::from_millis(15),
        }),
        ..ServerConfig::default()
    });
    let mut ws = WindowServer::new(W, H, PixelFormat::Rgb888, thinc);
    let mut cap = Vec::new();
    let hello = ws.driver().hello();
    let hello_frame = ws.driver_mut().encode_frame(&hello);
    chunk(&mut cap, HELLO, &hello_frame);
    let mut client = connect(rev, &hello_frame);
    ws.driver_mut().handle_message(&Message::ClientHello {
        version: rev,
        viewport_width: W,
        viewport_height: H,
    });
    let mut pipe = TcpPipe::new(TcpParams::default());
    let mut now = SimTime(0);

    // Every display command kind, a repeat for the cache, and the
    // audio/video/cursor/control path.
    let RequestResult::Created(tile) = ws.process(DrawRequest::CreatePixmap { width: 4, height: 4 })
    else {
        panic!("pixmap");
    };
    ws.process(DrawRequest::PutImage {
        target: tile,
        rect: Rect::new(0, 0, 4, 4),
        data: noise(4 * 4 * 3, 5),
    });
    ws.driver_mut().set_cursor(4, 4, 1, 1, noise(4 * 4 * 4, 6));
    ws.driver_mut().open_audio(8_000, 1);
    let photo = |salt| DrawRequest::PutImage {
        target: SCREEN,
        rect: Rect::new(8, 6, 24, 16),
        data: noise(24 * 16 * 3, salt),
    };
    let script = [
        DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(0, 0, W, H),
            color: Color::rgb(20, 60, 100),
        },
        DrawRequest::TileRect { target: SCREEN, rect: Rect::new(32, 0, 32, 24), tile },
        DrawRequest::StippleRect {
            target: SCREEN,
            rect: Rect::new(0, 30, 40, 12),
            bits: noise(5 * 12, 7),
            fg: Color::rgb(250, 240, 10),
            bg: Some(Color::rgb(5, 5, 5)),
        },
        photo(11),
        DrawRequest::CopyArea {
            src: SCREEN,
            dst: SCREEN,
            src_rect: Rect::new(0, 0, 40, 30),
            dst_x: 12,
            dst_y: 9,
        },
        photo(12),
        photo(11),
        DrawRequest::VideoPut {
            frame: YuvFrame::new(YuvFormat::Yv12, 16, 12),
            dst: Rect::new(40, 28, 16, 12),
        },
    ];
    for (i, req) in script.into_iter().enumerate() {
        ws.process(req);
        ws.driver_mut().play_audio(&noise(400, i as u32));
        ws.driver_mut().handle_message(&Message::Input(ProtocolInput::PointerMove {
            x: 3 * i as i32,
            y: 2 * i as i32,
        }));
        drain(&mut ws, &mut pipe, &mut now, &mut client, &mut cap);
        now.0 += 20_000;
        ws.driver_mut().poll_liveness(now);
    }
    ws.driver_mut().close_audio();
    ws.driver_mut().end_video();
    drain(&mut ws, &mut pipe, &mut now, &mut client, &mut cap);

    if resume {
        // The server dies; a standby restores its image; the client
        // redials with its token and the session carries on.
        let image = ws.driver().checkpoint();
        *ws.driver_mut() = ThincServer::restore(&image).expect("the image restores");
        chunk(&mut cap, REDIAL, &[]);
        for msg in client.redial(0, 0) {
            ws.driver_mut().handle_message(&msg);
        }
        ws.process(photo(12));
        ws.process(DrawRequest::FillRect {
            target: SCREEN,
            rect: Rect::new(50, 2, 10, 10),
            color: Color::rgb(200, 30, 30),
        });
        drain(&mut ws, &mut pipe, &mut now, &mut client, &mut cap);
        assert_eq!(client.resilience_metrics().resumes(), 1, "the script resumes warm");
    }
    assert!(
        client.client().framebuffer().data() == ws.screen().data(),
        "the scripted session converges"
    );
    chunk(&mut cap, DIGEST, &fnv64(client.client().framebuffer().data()).to_le_bytes());
    cap
}

/// Decodes a capture the way a revision-`rev` peer would have, and
/// holds the result to what the capture recorded.
fn replay(name: &str, cap: &[u8], rev: u16, resume: bool) {
    let (mut client, mut digest, mut at) = (None::<StreamClient>, None, 0);
    while at < cap.len() {
        let len = u32::from_le_bytes(cap[at + 1..at + 5].try_into().unwrap()) as usize;
        let bytes = &cap[at + 5..at + 5 + len];
        match (cap[at], client.as_mut()) {
            (HELLO, None) => client = Some(connect(rev, bytes)),
            (DOWN, Some(c)) => {
                c.feed(bytes);
            }
            (REDIAL, Some(c)) => {
                let opening = c.redial(0, 0);
                assert!(matches!(opening[1], Message::SessionResume { .. }), "{name}");
            }
            (DIGEST, Some(_)) => digest = Some(u64::from_le_bytes(bytes.try_into().unwrap())),
            (kind, _) => panic!("{name}: chunk kind {kind} out of place at {at}"),
        }
        at += 5 + len;
    }
    let client = client.unwrap_or_else(|| panic!("{name}: empty capture"));
    assert_eq!(client.wire_revision(), rev, "{name}");
    let m = client.resilience_metrics();
    assert_eq!(
        (m.decode_errors(), m.crc_failures(), m.seq_gaps(), m.cache_misses()),
        (0, 0, 0, 0),
        "{name}: a clean capture decodes clean"
    );
    assert_eq!(m.resumes(), u64::from(resume), "{name}");
    assert_eq!(m.cache_hits() > 0, rev == PROTOCOL_VERSION, "{name}: only revision 3 ships references");
    assert_eq!(client.pending_bytes(), 0, "{name}: the capture ends on a frame boundary");
    assert_eq!(
        Some(fnv64(client.client().framebuffer().data())),
        digest,
        "{name}: the framebuffer no longer matches the one recorded"
    );
}

#[test]
fn every_capture_still_decodes_to_its_recorded_framebuffer() {
    for (name, rev, resume) in CAPTURES {
        let path = golden(name);
        let cap = std::fs::read(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        replay(name, &cap, rev, resume);
    }
}

#[test]
fn this_builds_own_stream_passes_the_same_check() {
    // Keeps the script alive between regenerations: what this build
    // would write is held to what the checked-in captures are.
    for (name, rev, resume) in CAPTURES {
        replay(name, &capture(rev, resume), rev, resume);
    }
}

#[test]
#[ignore = "the only writer of tests/golden/*.cap"]
fn regenerate_golden() {
    for (name, rev, resume) in CAPTURES {
        std::fs::write(golden(name), capture(rev, resume)).unwrap();
    }
}
