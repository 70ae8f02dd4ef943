//! The server half of the phase table, walked cell by cell.
//!
//! A viewer of a real [`SharedSession`], restored from an image so that
//! a warm resume owes the delta since it, is driven into each [`Phase`]
//! and handed each uplink message (through
//! [`receive`](SharedSession::receive), the one match) and each session
//! event from there. What it does — the phase the viewer lands in, what
//! the session answered and what the viewer's next flush carries — must
//! be the cell `docs/PROTOCOL.md` §3 prints, so the table and the code
//! cannot drift apart.
#![cfg(test)]

use thinc_display::drawable::{DrawableStore, SCREEN};
use thinc_display::driver::VideoDriver;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::{store_digest, PROTOCOL_VERSION};
use thinc_raster::{Color, PixelFormat, Rect};

use super::{ClientId, Credentials, Heard, SharedSession};
use crate::delivery::Phase;

const PHASES: [&str; 5] = ["in step", "owes debt", "owes delta", "owes view", "quarantined"];

const EVENTS: [&str; 15] = [
    "ClientHello",
    "Resize",
    "Resize to the same viewport",
    "SetView",
    "CacheMiss",
    "RefreshRequest",
    "SessionResume",
    "SessionResume, stale store",
    "SessionResume, other session",
    "Input",
    "Pong",
    "resize_client to the same viewport",
    "draw with a COPY",
    "repay",
    "flush panic",
];

const VIEWER: ClientId = ClientId(0);
const NOW: SimTime = SimTime(1_000_000);
const FULL: Rect = Rect { x: 0, y: 0, w: 64, h: 64 };

/// Everything the viewer's flush carries now, over a roomy pipe.
fn sent(s: &mut SharedSession) -> Vec<Message> {
    let mut pipe = TcpPipe::new(TcpParams::default());
    let out = s.flush_client(VIEWER, NOW, &mut pipe, &mut PacketTrace::new());
    out.into_iter().map(|(_, m)| m).collect()
}

/// A one-viewer session in step with its screen (a white square in a
/// blue field), checkpointed: its image, and the screen it was taken of.
fn image() -> (Vec<u8>, DrawableStore) {
    let mut s = SharedSession::new(64, 64, PixelFormat::Rgb888, "host");
    s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
    s.attach(&Credentials::Owner { user: "host".into() }, 64, 64).unwrap();
    let mut store = DrawableStore::new(64, 64, PixelFormat::Rgb888);
    for (rect, color) in [(FULL, Color::rgb(40, 80, 120)), (Rect::new(0, 0, 16, 16), Color::WHITE)] {
        store.screen_mut().fill_rect(&rect, color);
        s.solid_fill(&store, SCREEN, rect, color);
    }
    sent(&mut s);
    (s.checkpoint(store.screen()), store)
}

/// The token a redial presents when its store mirrors the ledger.
fn token(s: &SharedSession) -> Message {
    let keys = s.viewer(VIEWER).unwrap().buffer().cache_keys();
    Message::SessionResume {
        session_id: s.session_id(),
        client_id: VIEWER.0,
        last_seq: 7,
        store_digest: store_digest(&keys),
    }
}

fn phase(s: &SharedSession) -> &'static str {
    match s.viewer(VIEWER).unwrap().phase() {
        Phase::Owes(debt) if debt.is_empty() => "in step",
        Phase::Owes(_) => "owes debt",
        Phase::OwesDelta(_) => "owes delta",
        Phase::OwesView => "owes view",
        Phase::Quarantined => "quarantined",
    }
}

fn flush_panic(s: &mut SharedSession) {
    s.poison_next_flush(VIEWER);
    s.flush_all(NOW, &mut [(TcpPipe::new(TcpParams::default()), PacketTrace::new())]);
}

/// The restored session with its viewer in `name`, and its screen.
fn into(name: &str) -> (SharedSession, DrawableStore) {
    let (bytes, mut store) = image();
    let mut s = SharedSession::restore(&bytes).expect("the image restores");
    s.set_time(NOW);
    sent(&mut s);
    match name {
        "owes view" => _ = s.receive(VIEWER, &Message::CacheMiss { hash: 1 }),
        "owes delta" => _ = s.receive(VIEWER, &token(&s)),
        "owes debt" => {
            s.receive(VIEWER, &token(&s));
            store.screen_mut().fill_rect(&Rect::new(0, 0, 8, 8), Color::BLACK);
            s.owe_restore_deltas(store.screen());
        }
        "quarantined" => flush_panic(&mut s),
        _ => {}
    }
    assert_eq!(phase(&s), name);
    (s, store)
}

/// What `event` does to a viewer in phase `from`: the phase it lands
/// in, then what the session answered and what its flush carries.
fn cell(from: &str, event: &str) -> String {
    let (mut s, mut store) = into(from);
    let hear = |s: &mut SharedSession, msg: Message| Some(s.receive(VIEWER, &msg));
    let heard = match event {
        "ClientHello" => {
            let hello = Message::ClientHello { version: PROTOCOL_VERSION, viewport_width: 64, viewport_height: 64 };
            hear(&mut s, hello)
        }
        "Resize" => hear(&mut s, Message::Resize { viewport_width: 32, viewport_height: 32 }),
        "Resize to the same viewport" => {
            hear(&mut s, Message::Resize { viewport_width: 64, viewport_height: 64 })
        }
        "SetView" => hear(&mut s, Message::SetView { view: Rect::new(0, 0, 32, 32) }),
        "CacheMiss" => hear(&mut s, Message::CacheMiss { hash: 1 }),
        "RefreshRequest" => hear(&mut s, Message::RefreshRequest { attempt: 1 }),
        "SessionResume" => {
            let token = token(&s);
            hear(&mut s, token)
        }
        "SessionResume, stale store" => {
            let Message::SessionResume { session_id, client_id, last_seq, .. } = token(&s) else {
                unreachable!()
            };
            hear(&mut s, Message::SessionResume { session_id, client_id, last_seq, store_digest: 1 })
        }
        "SessionResume, other session" => {
            let Message::SessionResume { session_id, client_id, last_seq, store_digest } = token(&s)
            else {
                unreachable!()
            };
            let session_id = session_id ^ 1;
            hear(&mut s, Message::SessionResume { session_id, client_id, last_seq, store_digest })
        }
        "Input" => hear(&mut s, Message::Input(ProtocolInput::PointerMove { x: 10, y: 10 })),
        "Pong" => hear(&mut s, Message::Pong { seq: 0, timestamp_us: 0 }),
        "resize_client to the same viewport" => {
            s.resize_client(VIEWER, 64, 64);
            None
        }
        "draw with a COPY" => {
            let src = Rect::new(0, 0, 16, 16);
            store.screen_mut().copy_rect(&src, 8, 8);
            s.copy_area(&store, SCREEN, SCREEN, src, 8, 8);
            None
        }
        "repay" => {
            s.repay_refreshes(store.screen());
            None
        }
        "flush panic" => {
            flush_panic(&mut s);
            None
        }
        other => panic!("no event {other}"),
    };
    let mut effects: Vec<&str> = match heard {
        None | Some(Heard::Handled) => vec![],
        Some(Heard::Input(_)) => vec!["input"],
        Some(Heard::Resync) => vec!["resync"],
        Some(Heard::Resumed { warm: true }) => vec!["warm"],
        Some(Heard::Resumed { warm: false }) => vec!["cold"],
    };
    let to = phase(&s);
    for msg in sent(&mut s) {
        let carried = match msg {
            Message::ServerHello { .. } => "sends hello",
            Message::CursorMove { .. } => "sends cursor",
            Message::Display(DisplayCommand::Raw { rect, .. }) if rect == FULL => "sends view",
            Message::Display(DisplayCommand::Raw { .. }) => "sends debt",
            Message::Display(DisplayCommand::Copy { .. }) => "sends COPY",
            other => panic!("an unexpected {other:?}"),
        };
        if !effects.contains(&carried) {
            effects.push(carried);
        }
    }
    if effects.is_empty() {
        to.to_string()
    } else {
        format!("{to}: {}", effects.join(", "))
    }
}

/// The table under `<!-- phases:server -->` in `docs/PROTOCOL.md`: the
/// phases its header names, and each row's event and cells.
fn doc_table() -> (Vec<String>, Vec<(String, Vec<String>)>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/PROTOCOL.md");
    let doc = std::fs::read_to_string(path).expect("docs/PROTOCOL.md");
    let marker = "<!-- phases:server -->";
    let at = doc.find(marker).unwrap_or_else(|| panic!("no {marker} in docs/PROTOCOL.md"));
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
fn every_cell_of_the_server_table_is_what_the_session_does() {
    let walked: Vec<(String, Vec<String>)> = EVENTS
        .iter()
        .map(|&e| (e.to_string(), PHASES.iter().map(|&p| cell(p, e)).collect()))
        .collect();
    let mut table = format!("| event | {} |\n|{}\n", PHASES.join(" | "), "---|".repeat(PHASES.len() + 1));
    for (event, cells) in &walked {
        table += &format!("| {event} | {} |\n", cells.join(" | "));
    }
    let (phases, rows) = doc_table();
    assert_eq!(phases, PHASES, "the documented phases are the walked ones\n{table}");
    assert_eq!(rows, walked, "docs/PROTOCOL.md §3 should read:\n{table}");
}
