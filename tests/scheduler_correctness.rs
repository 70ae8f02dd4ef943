//! Property-based verification of the §5 correctness argument: the
//! SRSF scheduler may reorder commands, evict stale ones, clip
//! partially-overwritten ones and split large ones — but the client's
//! final framebuffer must always equal the result of executing the
//! original command stream in order. Both ends are the real viewer: a
//! `StreamClient` fed framed bytes, so every command reaches the
//! display through the same phase match a live connection's does.

use proptest::prelude::*;
use thinc::client::StreamClient;
use thinc::core::buffer::ClientBuffer;
use thinc::core::queue::CommandQueue;
use thinc::core::server::VIEWER;
use thinc::core::{ServerConfig, SharedSession};
use thinc::net::tcp::{TcpParams, TcpPipe};
use thinc::net::time::{SimDuration, SimTime};
use thinc::net::trace::PacketTrace;
use thinc::protocol::commands::{DisplayCommand, RawEncoding, Tile};
use thinc::protocol::message::Message;
use thinc::raster::{Color, Framebuffer, PixelFormat, Rect};

const W: u32 = 48;
const H: u32 = 48;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0..W as i32, 0..H as i32, 1..=W / 2, 1..=H / 2).prop_map(|(x, y, w, h)| Rect::new(x, y, w, h))
}

fn arb_color() -> impl Strategy<Value = Color> {
    (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(r, g, b)| Color::rgb(r, g, b))
}

fn arb_sfill() -> impl Strategy<Value = DisplayCommand> {
    (arb_rect(), arb_color()).prop_map(|(rect, color)| DisplayCommand::Sfill { rect, color })
}

fn arb_raw() -> impl Strategy<Value = DisplayCommand> {
    (arb_rect(), any::<u64>()).prop_map(|(rect, seed)| {
        let len = (rect.w * rect.h * 3) as usize;
        let mut x = seed | 1;
        let data = (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        DisplayCommand::Raw {
            rect,
            encoding: RawEncoding::None,
            data,
        }
    })
}

fn arb_bitmap() -> impl Strategy<Value = DisplayCommand> {
    (arb_rect(), arb_color(), any::<u64>(), any::<bool>()).prop_map(|(rect, fg, seed, opaque)| {
        let row_bytes = (rect.w as usize).div_ceil(8);
        let mut x = seed | 1;
        let bits = (0..row_bytes * rect.h as usize)
            .map(|_| {
                x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                (x >> 33) as u8
            })
            .collect();
        DisplayCommand::Bitmap {
            rect,
            bits,
            fg,
            bg: opaque.then_some(Color::WHITE),
        }
    })
}

fn arb_pfill() -> impl Strategy<Value = DisplayCommand> {
    (arb_rect(), arb_color()).prop_map(|(rect, c)| {
        let tile_px: Vec<u8> = vec![c.r, c.g, c.b, c.b, c.r, c.g, c.g, c.b, c.r, c.r, c.r, c.b];
        DisplayCommand::Pfill {
            rect,
            tile: Tile {
                width: 2,
                height: 2,
                pixels: tile_px,
            },
        }
    })
}

fn arb_command() -> impl Strategy<Value = DisplayCommand> {
    prop_oneof![
        arb_sfill(),
        arb_raw(),
        arb_bitmap(),
        arb_pfill(),
        (arb_rect(), 0..W as i32, 0..H as i32).prop_map(|(src_rect, dst_x, dst_y)| {
            DisplayCommand::Copy {
                src_rect,
                dst_x,
                dst_y,
            }
        }),
    ]
}

/// A COPY-free drawing step: one command of the four other kinds, or
/// one of the two runs the §4 merge exists for — per-scan-line RAWs
/// and solid fills that tile a rectangle.
fn arb_copy_free_step() -> impl Strategy<Value = Vec<DisplayCommand>> {
    prop_oneof![
        arb_sfill().prop_map(|c| vec![c]),
        arb_raw().prop_map(|c| vec![c]),
        arb_bitmap().prop_map(|c| vec![c]),
        arb_pfill().prop_map(|c| vec![c]),
        (arb_rect(), 2..6u32, any::<u8>()).prop_map(|(r, rows, v)| {
            (0..rows)
                .map(|i| DisplayCommand::Raw {
                    rect: Rect::new(r.x, r.y + i as i32, r.w, 1),
                    encoding: RawEncoding::None,
                    data: (0..r.w * 3).map(|b| v.wrapping_add((b + i) as u8)).collect(),
                })
                .collect()
        }),
        (arb_rect(), arb_color(), 1..8u32).prop_map(|(r, color, cut)| {
            let top = cut.min(r.h);
            [Rect::new(r.x, r.y, r.w, top), Rect::new(r.x, r.y + top as i32, r.w, r.h - top)]
                .into_iter()
                .filter(|rect| !rect.is_empty())
                .map(|rect| DisplayCommand::Sfill { rect, color })
                .collect()
        }),
    ]
}

/// A viewer of a one-viewer session at this build's revision, and
/// that session, which frames what the viewer is shipped.
struct Viewer {
    stream: StreamClient,
    session: SharedSession,
}

impl Viewer {
    fn new() -> Viewer {
        let mut session = ServerConfig { width: W, height: H, ..ServerConfig::default() }.session();
        let mut stream = StreamClient::new(W, H, PixelFormat::Rgb888);
        let hello = session.hello();
        stream.feed(&session.encode_frame(VIEWER, &hello));
        Viewer { stream, session }
    }

    fn show(&mut self, msg: &Message) {
        let frame = self.session.encode_frame(VIEWER, msg);
        assert_eq!(self.stream.feed(&frame), 1, "{msg:?} was not applied");
    }

    /// The viewer's framebuffer, once everything it was shipped is
    /// applied cleanly.
    fn screen(&self) -> Framebuffer {
        assert!(!self.stream.needs_refresh(), "the viewer went stale");
        assert_eq!(self.stream.pending_bytes(), 0, "bytes left undecoded");
        let mut fb = Framebuffer::new(W, H, PixelFormat::Rgb888);
        fb.put_raw(&Rect::new(0, 0, W, H), self.stream.client().framebuffer().data());
        fb
    }
}

/// Executes commands directly, in order (the reference semantics).
fn replay_in_order(cmds: &[DisplayCommand]) -> Framebuffer {
    let mut viewer = Viewer::new();
    for c in cmds {
        viewer.show(&Message::Display(c.clone()));
    }
    viewer.screen()
}

/// Pushes commands through the scheduler/buffer and replays the
/// (reordered, clipped, split, possibly compressed) output.
fn replay_through_buffer(
    cmds: &[DisplayCommand],
    realtime_mask: &[bool],
    compress: bool,
    tight_pipe: bool,
) -> Framebuffer {
    let mut buf = if compress {
        ClientBuffer::new().with_raw_compression(3)
    } else {
        ClientBuffer::new()
    };
    for (i, c) in cmds.iter().enumerate() {
        buf.push(c.clone(), realtime_mask.get(i).copied().unwrap_or(false));
    }
    let params = if tight_pipe {
        TcpParams {
            bandwidth_bps: 1_000_000,
            rtt: SimDuration::from_millis(20),
            rwnd_bytes: 16 * 1024,
            sndbuf_bytes: 2 * 1024,
            ..TcpParams::default()
        }
    } else {
        TcpParams {
            bandwidth_bps: 100_000_000,
            rtt: SimDuration::from_micros(200),
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        }
    };
    let mut pipe = TcpPipe::new(params);
    let mut trace = PacketTrace::new();
    let mut viewer = Viewer::new();
    let mut now = SimTime::ZERO;
    for _ in 0..1_000_000 {
        let batch = buf.flush(now, &mut pipe, &mut trace);
        for (_, msg) in batch {
            viewer.show(&msg);
        }
        if buf.is_empty() {
            break;
        }
        now = pipe.tx_free_at().max(now + SimDuration::from_millis(1));
    }
    assert!(buf.is_empty(), "buffer failed to drain");
    assert_eq!(viewer.stream.client().stats().errors, 0, "client rejected a command");
    viewer.screen()
}

/// Everything an unbounded FIFO buffer delivers for `cmds`, in wire
/// order, over a pipe wide enough that nothing is ever split.
fn fifo_buffer_output(cmds: &[DisplayCommand]) -> Vec<DisplayCommand> {
    let mut buf = ClientBuffer::new().with_fifo_scheduling();
    for c in cmds {
        buf.push(c.clone(), false);
    }
    let mut pipe = TcpPipe::new(TcpParams {
        rwnd_bytes: 4 << 20,
        sndbuf_bytes: 4 << 20,
        ..TcpParams::default()
    });
    let mut trace = PacketTrace::new();
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    while !buf.is_empty() {
        for (_, msg) in buf.flush(now, &mut pipe, &mut trace) {
            match msg {
                Message::Display(c) => out.push(c),
                other => panic!("a bare buffer only ships display commands, got {other:?}"),
            }
        }
        now = pipe.tx_free_at().max(now + SimDuration::from_millis(1));
    }
    assert_eq!(buf.stats().splits, 0, "the pipe was meant to be wide enough");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A FIFO buffer is exactly its queue: the §4 algebra is written
    /// once, so the same COPY-free stream through a bare
    /// `CommandQueue` and through a `ClientBuffer` that only adds
    /// arrival-order delivery yields the same commands — and both
    /// paint what in-order replay paints.
    #[test]
    fn fifo_buffer_is_exactly_its_queue(
        steps in prop::collection::vec(arb_copy_free_step(), 1..16),
    ) {
        let cmds: Vec<DisplayCommand> = steps.into_iter().flatten().collect();
        let mut q = CommandQueue::new();
        for c in &cmds {
            q.push(c.clone());
        }
        let queued: Vec<DisplayCommand> =
            q.drain().iter().flat_map(|e| e.materialize()).collect();
        let buffered = fifo_buffer_output(&cmds);
        let reference = replay_in_order(&cmds).checksum();
        prop_assert_eq!(replay_in_order(&queued).checksum(), reference);
        prop_assert_eq!(replay_in_order(&buffered).checksum(), reference);
        prop_assert_eq!(queued, buffered);
    }

    #[test]
    fn reordered_delivery_preserves_final_state(
        cmds in prop::collection::vec(arb_command(), 1..24),
        rt in prop::collection::vec(any::<bool>(), 24),
    ) {
        let reference = replay_in_order(&cmds);
        let scheduled = replay_through_buffer(&cmds, &rt, false, false);
        prop_assert_eq!(reference.checksum(), scheduled.checksum());
    }

    #[test]
    fn compression_and_splitting_preserve_final_state(
        cmds in prop::collection::vec(arb_command(), 1..16),
    ) {
        let reference = replay_in_order(&cmds);
        let scheduled = replay_through_buffer(&cmds, &[], true, true);
        prop_assert_eq!(reference.checksum(), scheduled.checksum());
    }
}

#[test]
fn known_hard_case_copy_over_partial() {
    // COPY (transparent) depends on a RAW that a later fill partially
    // overwrites; ordering must be COPY-safe.
    let cmds = vec![
        DisplayCommand::Raw {
            rect: Rect::new(0, 0, 20, 20),
            encoding: RawEncoding::None,
            data: (0..20 * 20 * 3).map(|i| (i % 255) as u8).collect(),
        },
        DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 10, 10),
            dst_x: 30,
            dst_y: 30,
        },
        DisplayCommand::Sfill {
            rect: Rect::new(5, 5, 10, 10),
            color: Color::rgb(9, 9, 9),
        },
    ];
    let reference = replay_in_order(&cmds);
    let scheduled = replay_through_buffer(&cmds, &[], false, false);
    assert_eq!(reference.checksum(), scheduled.checksum());
}

#[test]
fn known_hard_case_transparent_chain() {
    // Transparent bitmap over a RAW, over another transparent bitmap.
    let bits = vec![0b1010_1010u8; 10];
    let cmds = vec![
        DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 10),
            encoding: RawEncoding::None,
            data: (0..8 * 10 * 3).map(|i| (i * 7 % 256) as u8).collect(),
        },
        DisplayCommand::Bitmap {
            rect: Rect::new(0, 0, 8, 10),
            bits: bits.clone(),
            fg: Color::rgb(200, 0, 0),
            bg: None,
        },
        DisplayCommand::Bitmap {
            rect: Rect::new(4, 4, 8, 10),
            bits,
            fg: Color::rgb(0, 200, 0),
            bg: None,
        },
    ];
    let reference = replay_in_order(&cmds);
    let scheduled = replay_through_buffer(&cmds, &[], false, false);
    assert_eq!(reference.checksum(), scheduled.checksum());
}
