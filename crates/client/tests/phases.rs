//! The client half of the phase table, walked cell by cell.
//!
//! A real [`StreamClient`] is driven into each of its six phases — a
//! [`Link`] (opening, resuming, streaming) beside a display that is
//! current or stale — and handed each message kind and each link event
//! from there. What it does (the phase it lands in, and what it counted
//! or owes on the way) must be the cell `docs/PROTOCOL.md` §3 prints, so
//! the table and the code cannot drift apart.

use thinc_client::stream::Link;
use thinc_client::StreamClient;
use thinc_net::time::{SimDuration, SimTime};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::PROTOCOL_VERSION;
use thinc_raster::{Color, PixelFormat, Rect};

const PHASES: [&str; 6] = [
    "opening/current",
    "opening/stale",
    "resuming/current",
    "resuming/stale",
    "streaming/current",
    "streaming/stale",
];

const EVENTS: [&str; 13] = [
    "the hello in force",
    "another hello",
    "full-view fill",
    "half-view fill",
    "COPY",
    "held CacheRef",
    "unheld CacheRef",
    "fill after a lost frame",
    "line noise",
    "stall timeout",
    "reconnect",
    "resume",
    "redial",
];

const NOISE: [u8; 8] = [0xEE, 0xFF, 0x13, 0x37, 0xEE, 0xFF, 0x13, 0x37];

fn hello(version: u16) -> Message {
    Message::ServerHello { version, width: 32, height: 32, depth: 24 }
}

fn fill(height: u32) -> Message {
    Message::Display(DisplayCommand::Sfill {
        rect: Rect::new(0, 0, 32, height),
        color: Color::rgb(9, 8, 7),
    })
}

/// A cacheable payload: the entry the store holds past the opening.
fn tile() -> Message {
    Message::Display(DisplayCommand::Raw {
        rect: Rect::new(0, 0, 8, 8),
        encoding: RawEncoding::None,
        data: vec![5; 8 * 8 * 3].into(),
    })
}

fn phase(c: &StreamClient) -> String {
    let link = match c.link() {
        Link::Opening => "opening",
        Link::Resuming => "resuming",
        Link::Streaming => "streaming",
    };
    format!("{link}/{}", if c.needs_refresh() { "stale" } else { "current" })
}

/// A client in `name`, and the encoder framing its stream. Past a fresh
/// stream, the client negotiated this build's revision and holds
/// [`tile`] in its store.
fn into(name: &str) -> (StreamClient, FrameEncoder) {
    let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
    let mut enc = FrameEncoder::new();
    if name != "opening/current" {
        enc.negotiate(PROTOCOL_VERSION);
        c.feed(&enc.encode(&hello(PROTOCOL_VERSION)));
        c.feed(&enc.encode(&tile()));
        match name {
            "opening/stale" => c.reconnect(),
            "resuming/stale" => {
                c.feed(&NOISE);
                assert!(c.resume());
            }
            "resuming/current" => assert!(c.resume()),
            "streaming/stale" => _ = c.feed(&NOISE),
            _ => {}
        }
    }
    assert_eq!(phase(&c), name);
    (c, enc)
}

/// The counters a cell's effects are read from.
fn counters(c: &StreamClient) -> [u64; 6] {
    let m = c.resilience_metrics();
    [m.decode_errors(), m.resyncs_triggered(), m.cache_hits(), m.resumes(), m.cold_fallbacks(), m.reconnects()]
}

/// What `event` does to a client in phase `from`: the phase it lands
/// in, then its effects.
fn cell(from: &str, event: &str) -> String {
    let (mut c, mut enc) = into(from);
    let (before, rev, held) = (counters(&c), c.wire_revision(), c.cache_store().lru().len());
    let mut feed = |c: &mut StreamClient, msg: &Message| c.feed(&enc.encode(msg));
    let mut applied = 0;
    let mut sends = None;
    match event {
        "the hello in force" => applied = feed(&mut c, &hello(PROTOCOL_VERSION)),
        "another hello" => applied = feed(&mut c, &hello(0)),
        "full-view fill" => applied = feed(&mut c, &fill(32)),
        "half-view fill" => applied = feed(&mut c, &fill(16)),
        "COPY" => {
            let copy = DisplayCommand::Copy { src_rect: Rect::new(0, 0, 16, 16), dst_x: 8, dst_y: 8 };
            applied = feed(&mut c, &Message::Display(copy));
        }
        "held CacheRef" => {
            let hash = tile().cache_key().expect("the tile is cacheable");
            applied = feed(&mut c, &Message::CacheRef { hash });
        }
        "unheld CacheRef" => applied = feed(&mut c, &Message::CacheRef { hash: 0xDEAD }),
        "fill after a lost frame" => {
            let _lost = enc.encode(&fill(32));
            applied = c.feed(&enc.encode(&fill(16)));
        }
        "line noise" => applied = c.feed(&NOISE),
        "stall timeout" => {
            let frame = enc.encode(&fill(32));
            c.feed(&frame[..4]);
            let t0 = SimTime(1_000_000);
            c.poll_reconnect(t0);
            c.poll_reconnect(t0 + SimDuration::from_millis(2_000));
        }
        "reconnect" => c.reconnect(),
        "resume" => _ = c.resume(),
        "redial" => sends = Some(c.redial(1, 0)[1].clone()),
        other => panic!("no event {other}"),
    }
    let after = counters(&c);
    let moved = |i: usize| after[i] > before[i];
    let mut effects = Vec::new();
    if applied > 0 {
        effects.push("applied".to_string());
    }
    if c.wire_revision() != rev {
        effects.push(format!("rev {}", c.wire_revision()));
    }
    for (i, name) in ["damage", "gap", "hit"].into_iter().enumerate() {
        if moved(i) {
            effects.push(name.to_string());
        }
    }
    if c.take_cache_miss().is_some() {
        effects.push("miss".to_string());
    }
    for (i, name) in [(3, "warm"), (4, "cold")] {
        if moved(i) {
            effects.push(name.to_string());
        }
    }
    if held > 0 && c.cache_store().lru().is_empty() {
        effects.push("store dropped".to_string());
    }
    if moved(5) {
        effects.push("reconnect".to_string());
    }
    match sends {
        Some(Message::SessionResume { .. }) => effects.push("sends token".to_string()),
        Some(Message::RefreshRequest { .. }) => effects.push("sends request".to_string()),
        Some(other) => panic!("a redial sent {other:?}"),
        None => {}
    }
    let to = phase(&c);
    if effects.is_empty() {
        to
    } else {
        format!("{to}: {}", effects.join(", "))
    }
}

/// The table under `<!-- phases:NAME -->` in `docs/PROTOCOL.md`: the
/// phases its header names, and each row's event and cells.
fn doc_table(name: &str) -> (Vec<String>, Vec<(String, Vec<String>)>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(path).expect("docs/PROTOCOL.md");
    let marker = format!("<!-- phases:{name} -->");
    let at = doc.find(&marker).unwrap_or_else(|| panic!("no {marker} in docs/PROTOCOL.md"));
    let cells = |line: &str| -> Vec<String> {
        line.trim().trim_matches('|').split('|').map(|c| c.trim().trim_matches('`').to_string()).collect()
    };
    let mut rows = doc[at + marker.len()..].lines().skip_while(|l| l.trim().is_empty());
    let header = cells(rows.next().expect("a header row"));
    let body = rows
        .skip(1)
        .take_while(|l| l.trim_start().starts_with('|'))
        .map(|l| {
            let mut c = cells(l);
            (c.remove(0), c)
        })
        .collect();
    (header[1..].to_vec(), body)
}

#[test]
fn every_cell_of_the_client_table_is_what_the_client_does() {
    let walked: Vec<(String, Vec<String>)> = EVENTS
        .iter()
        .map(|&e| (e.to_string(), PHASES.iter().map(|&p| cell(p, e)).collect()))
        .collect();
    let mut table = format!("| event | {} |\n|{}\n", PHASES.join(" | "), "---|".repeat(PHASES.len() + 1));
    for (event, cells) in &walked {
        table += &format!("| {event} | {} |\n", cells.join(" | "));
    }
    let (phases, rows) = doc_table("client");
    assert_eq!(phases, PHASES, "the documented phases are the walked ones\n{table}");
    assert_eq!(rows, walked, "docs/PROTOCOL.md §3 should read:\n{table}");
}
