//! Known-answer vectors: the revision-1 frame and the revision-2 frame
//! (sequence number and CRC) of every message kind, every display
//! command (`BITMAP` with and without a background) and every input
//! kind, checked in as hex in `tests/golden/known_answers.txt`. The
//! codec must reproduce them byte for byte; they were captured from the
//! hand-written encoder the layout table replaced.
//!
//! After an *intended* wire change, regenerate with
//! `cargo test -p thinc-protocol --test known_answers -- --ignored regenerate_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use thinc_protocol::wire::{encode_message, encode_message_seq};
use thinc_protocol::{DisplayCommand, Message, ProtocolInput, RawEncoding, Tile};
use thinc_raster::{Color, Rect, YuvFormat};

/// The sequence number row `i`'s revision-2 frame carries.
fn seq(i: usize) -> u32 {
    0x0102_0300 + i as u32
}

/// Bytes no two offsets of which agree on a short period.
fn pattern(n: usize, salt: u8) -> Vec<u8> {
    (0..n).map(|i| (i * 7 + i / 251) as u8 ^ salt).collect()
}

fn vectors() -> Vec<(&'static str, Message)> {
    let r = |x, y, w, h| Rect::new(x, y, w, h);
    vec![
        (
            "server_hello",
            Message::ServerHello {
                version: 3,
                width: 1024,
                height: 768,
                depth: 24,
            },
        ),
        (
            "client_hello",
            Message::ClientHello {
                version: 2,
                viewport_width: 320,
                viewport_height: 240,
            },
        ),
        (
            "raw",
            Message::Display(DisplayCommand::Raw {
                rect: r(-3, 7, 5, 6),
                encoding: RawEncoding::PngLike,
                data: pattern(5, 0x11).into(),
            }),
        ),
        // Long enough that the revision-2 CRC is composed from the
        // payload's memoised register.
        (
            "raw_composed",
            Message::Display(DisplayCommand::Raw {
                rect: r(0, 0, 20, 20),
                encoding: RawEncoding::None,
                data: pattern(1200, 0x22).into(),
            }),
        ),
        (
            "copy",
            Message::Display(DisplayCommand::Copy {
                src_rect: r(0, 0, 100, 50),
                dst_x: 10,
                dst_y: -20,
            }),
        ),
        (
            "sfill",
            Message::Display(DisplayCommand::Sfill {
                rect: r(0, 0, 1024, 768),
                color: Color::rgba(1, 2, 3, 200),
            }),
        ),
        (
            "pfill",
            Message::Display(DisplayCommand::Pfill {
                rect: r(5, 5, 64, 64),
                tile: Tile {
                    width: 2,
                    height: 3,
                    pixels: pattern(18, 0x33),
                },
            }),
        ),
        (
            "bitmap_bg",
            Message::Display(DisplayCommand::Bitmap {
                rect: r(0, 0, 16, 8),
                bits: pattern(16, 0x44),
                fg: Color::rgba(9, 8, 7, 255),
                bg: Some(Color::rgba(250, 251, 252, 253)),
            }),
        ),
        (
            "bitmap_no_bg",
            Message::Display(DisplayCommand::Bitmap {
                rect: r(1, 2, 16, 8),
                bits: pattern(16, 0x55),
                fg: Color::WHITE,
                bg: None,
            }),
        ),
        (
            "video_init_yv12",
            Message::VideoInit {
                id: 7,
                format: YuvFormat::Yv12,
                src_width: 352,
                src_height: 240,
                dst: r(0, 0, 1024, 768),
            },
        ),
        (
            "video_init_yuy2",
            Message::VideoInit {
                id: 8,
                format: YuvFormat::Yuy2,
                src_width: 176,
                src_height: 120,
                dst: r(-1, -2, 3, 4),
            },
        ),
        (
            "video_data",
            Message::VideoData {
                id: 7,
                seq: 42,
                timestamp_us: 1_750_000,
                data: pattern(100, 0x66).into(),
            },
        ),
        (
            "video_data_composed",
            Message::VideoData {
                id: 7,
                seq: 43,
                timestamp_us: 1_783_333,
                data: pattern(1100, 0x77).into(),
            },
        ),
        (
            "video_move",
            Message::VideoMove {
                id: 7,
                dst: r(10, 10, 320, 240),
            },
        ),
        ("video_end", Message::VideoEnd { id: 7 }),
        (
            "audio",
            Message::Audio {
                seq: 3,
                timestamp_us: 999,
                data: pattern(64, 0x88).into(),
            },
        ),
        (
            "audio_composed",
            Message::Audio {
                seq: 4,
                timestamp_us: 1999,
                data: pattern(1024, 0x99).into(),
            },
        ),
        (
            "pointer_move",
            Message::Input(ProtocolInput::PointerMove { x: -5, y: 900 }),
        ),
        (
            "button_press",
            Message::Input(ProtocolInput::ButtonPress {
                x: 1,
                y: 2,
                button: 3,
            }),
        ),
        (
            "button_release",
            Message::Input(ProtocolInput::ButtonRelease {
                x: 1,
                y: 2,
                button: 1,
            }),
        ),
        (
            "key_press",
            Message::Input(ProtocolInput::KeyPress { key: 0xFF0D }),
        ),
        (
            "key_release",
            Message::Input(ProtocolInput::KeyRelease { key: 65 }),
        ),
        (
            "resize",
            Message::Resize {
                viewport_width: 640,
                viewport_height: 480,
            },
        ),
        (
            "set_view",
            Message::SetView {
                view: r(100, 50, 512, 384),
            },
        ),
        (
            "cursor_shape",
            Message::CursorShape {
                width: 2,
                height: 2,
                hot_x: 1,
                hot_y: -1,
                pixels: pattern(16, 0xAA),
            },
        ),
        ("cursor_move", Message::CursorMove { x: 500, y: -3 }),
        (
            "ping",
            Message::Ping {
                seq: 9,
                timestamp_us: 123_456,
            },
        ),
        (
            "pong",
            Message::Pong {
                seq: 9,
                timestamp_us: 123_457,
            },
        ),
        ("refresh_request", Message::RefreshRequest { attempt: 3 }),
        (
            "cache_ref",
            Message::CacheRef {
                hash: 0x0123_4567_89AB_CDEF,
            },
        ),
        (
            "cache_miss",
            Message::CacheMiss {
                hash: 0xFEDC_BA98_7654_3210,
            },
        ),
        (
            "session_resume",
            Message::SessionResume {
                session_id: 0x1122_3344_5566_7788,
                client_id: 5,
                last_seq: 0xDEAD_BEEF,
                store_digest: 0x8877_6655_4433_2211,
            },
        ),
    ]
}

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/known_answers.txt")
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

/// The file's text: one line per vector, `name rev1-hex rev2-hex`.
fn render() -> String {
    let mut out =
        String::from("# name, revision-1 frame, revision-2 frame (seq 0x01020300 + row)\n");
    for (i, (name, msg)) in vectors().iter().enumerate() {
        let rev2 = encode_message_seq(msg, seq(i));
        writeln!(out, "{name} {} {}", hex(&encode_message(msg)), hex(&rev2)).unwrap();
    }
    out
}

#[test]
fn the_codec_reproduces_every_known_answer() {
    let text = std::fs::read_to_string(golden()).expect("known_answers.txt");
    let rows: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    let vectors = vectors();
    assert_eq!(rows.len(), vectors.len(), "one row per vector");
    for (i, ((name, msg), row)) in vectors.iter().zip(rows).enumerate() {
        let [want_name, rev1, rev2] = row.split(' ').collect::<Vec<_>>()[..] else {
            panic!("row {i}: {row}");
        };
        assert_eq!(*name, want_name, "row {i}");
        assert_eq!(hex(&encode_message(msg)), rev1, "{name}: revision-1 bytes");
        assert_eq!(hex(&encode_message_seq(msg, seq(i))), rev2, "{name}: revision-2 bytes");
    }
}

#[test]
#[ignore]
fn regenerate_golden() {
    std::fs::create_dir_all(golden().parent().unwrap()).unwrap();
    std::fs::write(golden(), render()).unwrap();
}
