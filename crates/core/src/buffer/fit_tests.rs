#![cfg(test)]
//! The fit-first flush against its retained reference.
//!
//! `ClientBuffer::reference_prepare_wire` is the compress-everything
//! `prepare_wire` this crate shipped before flush learned to decide
//! fit, split and cache hit from sizes and content identity. The
//! property here drives the same command stream through a reference
//! buffer, a fit-first buffer, and a fit-first buffer whose memo is
//! emptied at random points, and requires all three to be
//! indistinguishable from outside: same messages at the same times,
//! same ledger in the same LRU order, same statistics.

use proptest::prelude::*;
use thinc_net::tcp::TcpParams;
use thinc_net::time::SimDuration;
use thinc_protocol::wire::encode_message;
use thinc_raster::Rect;
use thinc_telemetry::ResilienceMetrics;

use super::*;

/// A RAW at `(x, y)` whose payload is picked by `kind`: 0 flat (tiny
/// when compressed), 1 noise (incompressible), 2 half noise over half
/// flat (compresses to about half — fits some pipes, not others).
pub(super) fn payload(kind: u8, seed: u8, x: i32, y: i32, w: u32, h: u32) -> DisplayCommand {
    let n = (w * h * 3) as usize;
    let mut state = 0x9E37_79B9u32 ^ (u32::from(seed) << 8 | u32::from(kind));
    let mut noise = move || {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 24) as u8
    };
    let data: Vec<u8> = (0..n)
        .map(|i| match kind {
            0 => seed,
            1 => noise(),
            _ if i < n / 2 => noise(),
            _ => seed,
        })
        .collect();
    DisplayCommand::Raw { rect: Rect::new(x, y, w, h), encoding: RawEncoding::None, data: data.into() }
}

#[derive(Debug, Clone)]
enum Step {
    /// Push a RAW: `(kind, seed, slot, shape)`. Few seeds, slots and
    /// shapes, so content repeats — at the same place (memo and cache
    /// hits) and at other places (same bytes, different identity).
    Push(u8, u8, u8, u8),
    /// Flush after this many microseconds.
    Flush(u64),
    /// Empty the memo (third buffer only).
    Forget,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0u8..3, 0u8..3, 0u8..3, 0u8..4).prop_map(|(k, s, p, g)| Step::Push(k, s, p, g)),
            (0u8..3, 0u8..3, 0u8..3, 0u8..4).prop_map(|(k, s, p, g)| Step::Push(k, s, p, g)),
            (0u64..30_000).prop_map(Step::Flush),
            (0u64..30_000).prop_map(Step::Flush),
            Just(Step::Forget),
        ],
        4..36,
    )
}

/// Disjoint slots, so pushes do not evict one another and every one
/// of them reaches the wire.
fn place(slot: u8, shape: u8) -> (i32, i32, u32, u32) {
    let (w, h) = [(24, 16), (64, 40), (96, 90), (120, 160)][shape as usize];
    (i32::from(slot) * 128, i32::from(shape) * 200, w, h)
}

pub(super) struct Rig {
    pub(super) buf: ClientBuffer,
    pipe: TcpPipe,
    trace: PacketTrace,
    planes: PlaneCounters,
    sent: Vec<(SimTime, Vec<u8>)>,
}

impl Rig {
    pub(super) fn new(sndbuf: u64, budget: Option<u64>, reference: bool) -> Self {
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        buf.reference_prepare = reference;
        if let Some(budget) = budget {
            buf.enable_cache(budget);
        }
        let pipe = TcpPipe::new(TcpParams {
            bandwidth_bps: 20_000_000,
            rtt: SimDuration::from_millis(2),
            sndbuf_bytes: sndbuf,
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        });
        Self { buf, pipe, trace: PacketTrace::new(), planes: PlaneCounters::default(), sent: Vec::new() }
    }

    pub(super) fn flush(&mut self, now: SimTime, with_plane: bool) {
        // One plane per round, as `SharedSession::flush_all` makes it.
        let plane = with_plane.then(WirePlane::new);
        let batch =
            self.buf.flush_shared(now, &mut self.pipe, &mut self.trace, plane.as_ref(), &mut self.planes);
        self.sent.extend(batch.into_iter().map(|(at, msg)| (at, encode_message(&msg))));
    }

    pub(super) fn observed(&self) -> Observed<'_> {
        let ledger = self
            .buf
            .cache
            .as_ref()
            .map(|c| c.ledger.iter_lru().map(|(key, size, _)| (key, size)).collect())
            .unwrap_or_default();
        Observed {
            sent: &self.sent,
            ledger,
            // Codec work is what the fit-first path is allowed to differ in.
            stats: BufferStats { codec_input_bytes: 0, codec_skipped_bytes: 0, ..self.buf.stats() },
            resilience_counts: self.buf.resilience_counts(),
            plane_sends: (self.planes.shared_sends, self.planes.shared_bytes),
            pending: self.buf.len(),
        }
    }
}

/// Everything observable from outside a buffer.
#[derive(Debug, PartialEq)]
pub(super) struct Observed<'a> {
    /// Every message sent, encoded, with its arrival time.
    sent: &'a [(SimTime, Vec<u8>)],
    /// Ledger `(key, size)` from least to most recently used.
    ledger: Vec<(u64, u64)>,
    stats: BufferStats,
    resilience_counts: ResilienceMetrics,
    /// Plane `(shared_sends, shared_bytes)`; `encodes` may be lower
    /// than the reference's, which produces forms nothing ships.
    plane_sends: (u64, u64),
    pending: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fit_first_flush_is_the_reference_flush(
        script in steps(),
        sndbuf_pick in 0usize..4,
        budget_pick in 0usize..4,
        with_plane in any::<bool>(),
    ) {
        let sndbuf_kb = [4u64, 12, 40, 256][sndbuf_pick];
        // No cache, one that evicts at once, one that evicts, one that never does.
        let budget = [None, Some(6u64), Some(30), Some(4096)][budget_pick].map(|kb| kb * 1024);
        let mut reference = Rig::new(sndbuf_kb * 1024, budget, true);
        let mut subject = Rig::new(sndbuf_kb * 1024, budget, false);
        let mut forgetful = Rig::new(sndbuf_kb * 1024, budget, false);
        let mut now = SimTime::ZERO;
        let drain = std::iter::repeat_n(Step::Flush(25_000), 400);
        for step in script.iter().cloned().chain(drain) {
            match step {
                Step::Push(kind, seed, slot, shape) => {
                    let (x, y, w, h) = place(slot, shape);
                    for rig in [&mut reference, &mut subject, &mut forgetful] {
                        rig.buf.push(payload(kind, seed, x, y, w, h), false);
                    }
                }
                Step::Flush(after_us) => {
                    now += SimDuration::from_micros(after_us);
                    for rig in [&mut reference, &mut subject, &mut forgetful] {
                        rig.flush(now, with_plane);
                    }
                    prop_assert_eq!(subject.observed(), reference.observed());
                    prop_assert_eq!(forgetful.observed(), reference.observed());
                }
                Step::Forget => forgetful.buf.memo.clear(),
            }
        }
        prop_assert!(reference.buf.is_empty(), "script did not drain");
        // The work the reference does is the ceiling, never the floor.
        let fed = |rig: &Rig| rig.buf.stats().codec_input_bytes;
        prop_assert!(fed(&subject) <= fed(&forgetful));
        prop_assert_eq!(fed(&reference), 0, "the reference path is not instrumented");
    }
}

/// LCG noise: filter + LZSS cannot shrink it.
fn photo(w: u32, h: u32) -> DisplayCommand {
    payload(1, 7, 0, 0, w, h)
}

/// Flushes into a pipe that never paces (the benchmark's: wall time
/// is compute, the 256 KB socket buffer is still there) until the
/// buffer is empty.
fn drain_fat(buf: &mut ClientBuffer) -> Vec<Message> {
    let mut pipe = TcpPipe::new(TcpParams {
        bandwidth_bps: 100_000_000_000,
        rtt: SimDuration::from_micros(10),
        rwnd_bytes: 1 << 30,
        ..TcpParams::default()
    });
    let mut trace = PacketTrace::new();
    let mut now = SimTime::ZERO;
    let mut msgs = Vec::new();
    for _ in 0..1000 {
        msgs.extend(buf.flush(now, &mut pipe, &mut trace).into_iter().map(|(_, m)| m));
        if buf.is_empty() {
            return msgs;
        }
        now += SimDuration::from_millis(1);
    }
    panic!("buffer did not drain");
}

#[test]
fn a_photo_bigger_than_the_socket_buffer_is_not_compressed_over_and_over() {
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
    let payload_bytes = 920 * 621 * 3u64;

    buf.push(photo(920, 621), false);
    let cold = drain_fat(&mut buf);
    assert!(buf.stats().splits >= 6, "1.7 MB over 256 KB is split, {:?}", buf.stats());
    assert!(cold.iter().all(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
    let fed = buf.stats().codec_input_bytes;
    // Compress-everything fed the codec 4.7x the payload here: the
    // whole, then each head, then each ever-shorter tail.
    assert!(
        fed * 10 <= payload_bytes * 25,
        "codec read {fed} bytes for a {payload_bytes}-byte payload ({:.2}x)",
        fed as f64 / payload_bytes as f64
    );

    // A warm revisit: every piece is in the ledger, and the memo says
    // so without the codec reading a byte.
    buf.push(photo(920, 621), false);
    let warm = drain_fat(&mut buf);
    assert_eq!(warm.len(), cold.len());
    assert!(warm.iter().all(|m| matches!(m, Message::CacheRef { .. })), "{warm:?}");
    assert_eq!(buf.stats().codec_input_bytes, fed, "a warm revisit fed the codec");
    assert!(buf.stats().codec_skipped_bytes >= payload_bytes);
}

#[test]
fn nothing_is_remembered_until_a_raw_is_compressed() {
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
    buf.push(payload(1, 1, 0, 0, 16, 16), false); // 768 B: under the compress floor.
    buf.push(
        DisplayCommand::Sfill { rect: Rect::new(0, 100, 10, 10), color: thinc_raster::Color::WHITE },
        false,
    );
    drain_fat(&mut buf);
    assert_eq!(buf.memo.len(), (0, 0));
    assert_eq!(buf.stats().codec_input_bytes, 0);
    buf.push(payload(1, 1, 0, 200, 32, 32), false); // 3 KB of noise.
    drain_fat(&mut buf);
    assert_eq!(buf.memo.len(), (1, 1), "its final form, and that it does not compress");
}

#[test]
fn the_memo_is_not_part_of_a_checkpoint() {
    let mut buf = ClientBuffer::new().with_raw_compression(3).with_byte_bound(8 << 20);
    buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
    buf.push(photo(400, 300), false); // 360 KB: split once.
    buf.push(payload(2, 3, 0, 400, 96, 90), false);
    drain_fat(&mut buf);
    buf.push(photo(400, 300), false); // Left pending for the image.
    let (encoded, exceeds) = buf.memo.len();
    assert!(encoded > 0 && exceeds > 0, "test wants a populated memo");

    let image = |buf: &ClientBuffer| {
        let mut w = crate::checkpoint::Writer::new();
        buf.encode_checkpoint(&mut w);
        w.into_inner()
    };
    let populated = image(&buf);
    buf.memo.clear();
    assert_eq!(image(&buf), populated, "image bytes depend on the memo");

    let mut r = crate::checkpoint::Reader::new(&populated);
    let mut restored = ClientBuffer::decode_checkpoint(&mut r).unwrap();
    assert!(r.exhausted());
    assert_eq!(restored.memo.len(), (0, 0));
    assert_eq!(image(&restored), populated, "checkpoint -> restore -> re-checkpoint");
    // And the restored buffer, memo empty, delivers what the live one
    // (memo warm) does.
    let enc = |msgs: Vec<Message>| msgs.iter().map(encode_message).collect::<Vec<_>>();
    assert_eq!(enc(drain_fat(&mut restored)), enc(drain_fat(&mut buf)));
}

#[test]
fn what_one_viewer_finds_out_the_plane_tells_the_next() {
    // Two viewers of one screen, one round: the first pays for the
    // give-up on the whole image and for the head's form; the second
    // finds both in the plane slot and its codec reads nothing.
    let plane = WirePlane::new();
    let mut counters = PlaneCounters::default();
    let mut round = |buf: &mut ClientBuffer| {
        let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
        buf.push(photo(400, 300), false); // 360 KB over a 256 KB socket buffer.
        let sent = buf.flush_shared(
            SimTime::ZERO,
            &mut pipe,
            &mut PacketTrace::new(),
            Some(&plane),
            &mut counters,
        );
        sent.iter().map(|(_, m)| encode_message(m)).collect::<Vec<_>>()
    };
    let mut first = ClientBuffer::new().with_raw_compression(3);
    let mut second = ClientBuffer::new().with_raw_compression(3);
    assert_eq!(round(&mut first), round(&mut second));
    assert_eq!(first.stats().splits, 1);
    assert!(first.stats().codec_input_bytes > 0);
    assert_eq!(second.stats().codec_input_bytes, 0);
    // Only the head was produced; the whole never had a form.
    assert_eq!((counters.encodes, counters.shared_sends), (1, 2));
}
