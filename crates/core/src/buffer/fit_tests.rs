#![cfg(test)]
//! The fit-first flush against its retained reference.
//!
//! `ClientBuffer::reference_prepare_wire` is the compress-everything
//! `prepare_wire` this crate shipped before flush learned to decide
//! fit, split and cache hit from sizes and content identity. The
//! property here drives the same command stream through a reference
//! buffer, a fit-first buffer, and a fit-first buffer whose form store
//! is emptied at random points, and requires all three to be
//! indistinguishable from outside: same messages at the same times,
//! same ledger in the same LRU order, same statistics.

use proptest::prelude::*;
use thinc_net::tcp::TcpParams;
use thinc_net::time::SimDuration;
use thinc_protocol::codec::{to_bytes, Field};
use thinc_protocol::wire::encode_message;
use thinc_raster::Rect;
use thinc_telemetry::ResilienceMetrics;

use super::checkpoint::BufferRecord;
use super::*;
use crate::plane::WireForm;

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
    /// shapes, so content repeats — at the same place (store and cache
    /// hits) and at other places (same bytes, different identity).
    Push(u8, u8, u8, u8),
    /// Flush after this many microseconds.
    Flush(u64),
    /// Empty the form store (third buffer only).
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
    /// The form store of the session the buffer is a viewer of, alone.
    pub(super) store: FormStore,
    /// The session's cache budget: what the store keeps past a round.
    keep: Option<u64>,
    pipe: TcpPipe,
    trace: PacketTrace,
    planes: PlaneCounters,
    sent: Vec<(SimTime, Vec<u8>)>,
}

impl Rig {
    /// A viewer of a session budgeted at `budget`, with a ledger of that
    /// budget when `ledger` (a revision-3 viewer) and none otherwise.
    pub(super) fn new(sndbuf: u64, budget: Option<u64>, ledger: bool, reference: bool) -> Self {
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        buf.reference_prepare = reference;
        if let (Some(budget), true) = (budget, ledger) {
            buf.enable_cache(budget);
        }
        let pipe = TcpPipe::new(TcpParams {
            bandwidth_bps: 20_000_000,
            rtt: SimDuration::from_millis(2),
            sndbuf_bytes: sndbuf,
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        });
        Self {
            buf,
            store: FormStore::default(),
            keep: budget,
            pipe,
            trace: PacketTrace::new(),
            planes: PlaneCounters::default(),
            sent: Vec::new(),
        }
    }

    /// One round, as `SharedSession::flush_client` runs it.
    pub(super) fn flush(&mut self, now: SimTime) {
        let batch = self.buf.flush_planned(
            now,
            &mut self.pipe,
            &mut self.trace,
            &mut self.store,
            &mut self.planes,
            &PlanRole::Alone,
        );
        self.store.end_round(self.keep);
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

/// Drives `script`, then a drain, through a reference buffer, a
/// fit-first one and a fit-first one whose store forgets, and requires
/// all three to look the same after every flush. Returns the statistics
/// of the fit-first buffer and of the forgetful one.
fn replay(
    script: &[Step],
    sndbuf_kb: u64,
    budget: Option<u64>,
    ledger: bool,
) -> (BufferStats, BufferStats) {
    let rig = |reference| Rig::new(sndbuf_kb * 1024, budget, ledger, reference);
    let (mut reference, mut subject, mut forgetful) = (rig(true), rig(false), rig(false));
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
                    rig.flush(now);
                }
                prop_assert_eq!(subject.observed(), reference.observed());
                prop_assert_eq!(forgetful.observed(), reference.observed());
            }
            Step::Forget => forgetful.store.clear(),
        }
    }
    prop_assert!(reference.buf.is_empty(), "script did not drain");
    // The work the reference does is the ceiling, never the floor.
    let fed = |rig: &Rig| rig.buf.stats().codec_input_bytes;
    prop_assert!(fed(&subject) <= fed(&forgetful));
    prop_assert_eq!(fed(&reference), 0, "the reference path is not instrumented");
    (subject.buf.stats(), forgetful.buf.stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fit_first_flush_is_the_reference_flush(
        script in steps(),
        sndbuf_pick in 0usize..4,
        budget_pick in 0usize..4,
        ledger in any::<bool>(),
    ) {
        let sndbuf_kb = [4u64, 12, 40, 256][sndbuf_pick];
        // No cache, one that evicts at once, one that evicts, one that never does.
        let budget = [None, Some(6u64), Some(30), Some(4096)][budget_pick].map(|kb| kb * 1024);
        replay(&script, sndbuf_kb, budget, ledger);
    }
}

/// The other side of a known give-up: through a 4 KB socket buffer,
/// the encode of a noise image gives up about 3.6 KB into its
/// filtered rows, past the last byte the coder can decide in the head
/// cut to fit the buffer (11 rows, 3 971 filtered bytes, less the
/// coder's lookahead of 785). The give-up does not cover the head, so
/// every head is compressed for itself, and the flush is still the
/// reference's.
#[test]
fn fit_first_flush_is_the_reference_flush_where_the_head_is_still_attempted() {
    let script = [Step::Push(1, 5, 0, 3), Step::Flush(0)];
    for budget in [None, Some(4096 * 1024)] {
        let (stats, _) = replay(&script, 4, budget, false);
        assert!(stats.splits >= 10, "{stats:?}");
        assert_eq!(stats.codec_skipped_bytes, 0, "a head was taken for given up: {stats:?}");
    }
}

/// LCG noise: filter + LZSS cannot shrink it.
fn photo(w: u32, h: u32) -> DisplayCommand {
    payload(1, 7, 0, 0, w, h)
}

/// One round of a session of one budgeted at `budget`: the buffer's
/// flush, then the round's end.
fn round(
    buf: &mut ClientBuffer,
    now: SimTime,
    pipe: &mut TcpPipe,
    store: &mut FormStore,
    budget: Option<u64>,
) -> Vec<(SimTime, Message)> {
    let (mut trace, mut counters) = (PacketTrace::new(), PlaneCounters::default());
    let sent = buf.flush_planned(now, pipe, &mut trace, store, &mut counters, &PlanRole::Alone);
    store.end_round(budget);
    sent
}

/// Flushes into a pipe that never paces (the benchmark's: wall time
/// is compute, the 256 KB socket buffer is still there) until the
/// buffer is empty, in rounds of a session with the product's default
/// cache budget.
fn drain_fat(buf: &mut ClientBuffer, store: &mut FormStore) -> Vec<Message> {
    let mut pipe = TcpPipe::new(TcpParams {
        bandwidth_bps: 100_000_000_000,
        rtt: SimDuration::from_micros(10),
        rwnd_bytes: 1 << 30,
        ..TcpParams::default()
    });
    let mut now = SimTime::ZERO;
    let mut msgs = Vec::new();
    for _ in 0..1000 {
        let sent = round(buf, now, &mut pipe, store, Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
        msgs.extend(sent.into_iter().map(|(_, m)| m));
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
    let mut store = FormStore::default();
    let payload_bytes = 920 * 621 * 3u64;

    buf.push(photo(920, 621), false);
    let cold = drain_fat(&mut buf, &mut store);
    assert!(buf.stats().splits >= 6, "1.7 MB over 256 KB is split, {:?}", buf.stats());
    assert!(cold.iter().all(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. }))));
    let fed = buf.stats().codec_input_bytes;
    // Compress-everything fed the codec 4.7x the payload here: the
    // whole, then each head, then each ever-shorter tail. Fit first
    // reads the whole and each remainder only until its stream passes
    // the socket buffer, and the head then cut from it is known to give
    // up from that parse, so no row is read twice: under 1x.
    assert!(
        fed <= payload_bytes,
        "codec read {fed} bytes for a {payload_bytes}-byte payload ({:.2}x)",
        fed as f64 / payload_bytes as f64
    );

    assert!(buf.stats().codec_skipped_bytes > 0, "no head was known to give up");
    // A warm revisit: every piece is in the ledger, and the store says
    // so without the codec reading a byte.
    buf.push(photo(920, 621), false);
    let warm = drain_fat(&mut buf, &mut store);
    assert_eq!(warm.len(), cold.len());
    assert!(warm.iter().all(|m| matches!(m, Message::CacheRef { .. })), "{warm:?}");
    assert_eq!(buf.stats().codec_input_bytes, fed, "a warm revisit fed the codec");
    assert!(buf.stats().codec_skipped_bytes >= payload_bytes);
}

#[test]
fn nothing_is_kept_until_a_raw_is_compressed() {
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
    let mut store = FormStore::default();
    buf.push(payload(1, 1, 0, 0, 16, 16), false); // 768 B: under the compress floor.
    buf.push(
        DisplayCommand::Sfill { rect: Rect::new(0, 100, 10, 10), color: thinc_raster::Color::WHITE },
        false,
    );
    drain_fat(&mut buf, &mut store);
    assert_eq!(store.len(), 0, "a form no encode was owed outlived its round");
    assert_eq!(buf.stats().codec_input_bytes, 0);
    buf.push(payload(1, 1, 0, 200, 32, 32), false); // 3 KB of noise.
    drain_fat(&mut buf, &mut store);
    assert_eq!(store.len(), 1, "its final form, and that it does not compress");
    assert_eq!(store.packed_held(), (0, 0));
}

#[test]
fn a_restored_buffer_with_an_empty_store_delivers_what_a_warm_one_does() {
    let mut buf = ClientBuffer::new().with_raw_compression(3).with_byte_bound(8 << 20);
    buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
    let mut store = FormStore::default();
    buf.push(photo(400, 300), false); // 360 KB: split once.
    buf.push(payload(2, 3, 0, 400, 96, 90), false);
    drain_fat(&mut buf, &mut store);
    buf.push(photo(400, 300), false); // Left pending for the image.
    assert!(store.len() > 0 && store.packed_held().0 > 0, "test wants a populated store");

    let image = to_bytes(&buf.record());
    let mut rest = &image[..];
    let mut restored = ClientBuffer::from_record(BufferRecord::get(&mut rest).unwrap()).unwrap();
    assert!(rest.is_empty());
    let enc = |msgs: Vec<Message>| msgs.iter().map(encode_message).collect::<Vec<_>>();
    let cold = enc(drain_fat(&mut restored, &mut FormStore::default()));
    assert_eq!(cold, enc(drain_fat(&mut buf, &mut store)));
}

#[test]
fn what_one_viewer_finds_out_the_store_tells_the_next() {
    // Two viewers of one screen, one round: the first pays for the
    // give-up on the whole image and for the head's form; the second
    // finds both in the store and its codec reads nothing.
    let mut store = FormStore::default();
    let mut counters = PlaneCounters::default();
    let mut round = |buf: &mut ClientBuffer| {
        let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
        buf.push(photo(400, 300), false); // 360 KB over a 256 KB socket buffer.
        let sent = buf.flush_planned(
            SimTime::ZERO,
            &mut pipe,
            &mut PacketTrace::new(),
            &mut store,
            &mut counters,
            &PlanRole::Alone,
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

#[test]
fn what_one_round_learns_a_viewer_without_a_ledger_takes_in_the_next() {
    use crate::session::SharedSession;
    use thinc_display::drawable::{DrawableStore, SCREEN};
    use thinc_display::driver::VideoDriver;
    use thinc_raster::{Framebuffer, PixelFormat};
    // A budgeted session of two: the first viewer speaks revision 3,
    // the second revision 2, so it has no ledger.
    let mut s = SharedSession::new(128, 128, PixelFormat::Rgb888, "host");
    s.set_cache_budget(Some(thinc_protocol::DEFAULT_CACHE_BUDGET));
    let (first, second) = (s.join("a".into(), 128, 128), s.join("b".into(), 128, 128));
    let hello = Message::ClientHello { version: 2, viewport_width: 128, viewport_height: 128 };
    s.handle_message(second, &hello, &Framebuffer::new(128, 128, PixelFormat::Rgb888));
    assert!(!s.viewer(second).unwrap().buffer().cache_enabled());
    // A graphic that compresses to about half.
    let DisplayCommand::Raw { rect, data, .. } = payload(2, 4, 0, 0, 96, 90) else { unreachable!() };
    let mut screen = DrawableStore::new(128, 128, PixelFormat::Rgb888);
    screen.screen_mut().put_raw(&rect, &data);
    s.put_image(&screen, SCREEN, rect, &data);
    // Each viewer flushes in a round of its own: the first, then the
    // second a millisecond later.
    let mut flush = |id, at| {
        let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
        let sent = s.flush_client(id, SimTime(at), &mut pipe, &mut PacketTrace::new());
        let display = sent.into_iter().filter(|(_, m)| matches!(m, Message::Display(_)));
        display.map(|(_, m)| m).collect::<Vec<_>>()
    };
    let (taught, taken) = (flush(first, 0), flush(second, 1_000));
    let packed = |m: &Message| {
        matches!(m, Message::Display(DisplayCommand::Raw { encoding: RawEncoding::PngLike, .. }))
    };
    assert!(taught.len() == 1 && packed(&taught[0]), "{taught:?}");
    assert_eq!(taken, taught);
    let fed = |id| s.viewer(id).unwrap().buffer().stats().codec_input_bytes;
    assert!(fed(first) > 0);
    assert_eq!(fed(second), 0, "the second viewer encoded what the first round learnt");
}

#[test]
fn a_session_without_a_budget_encodes_a_returning_tile_once() {
    use crate::session::SharedSession;
    use thinc_display::drawable::{DrawableStore, SCREEN};
    use thinc_display::driver::VideoDriver;
    use thinc_raster::PixelFormat;
    // No cache budget, so no viewer has a ledger; the third viewer is
    // scaled to half.
    let mut s = SharedSession::new(128, 128, PixelFormat::Rgb888, "host");
    let ids = [s.join("a".into(), 128, 128), s.join("b".into(), 128, 128), s.join("c".into(), 64, 64)];
    let mut links: Vec<_> = ids
        .iter()
        .map(|_| (TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() }), PacketTrace::new()))
        .collect();
    let mut screen = DrawableStore::new(128, 128, PixelFormat::Rgb888);
    // A graphic that compresses to about half, another in its place,
    // then the first again: one round each.
    let mut fed = Vec::new();
    for (round, seed) in [4u8, 5, 4].into_iter().enumerate() {
        let DisplayCommand::Raw { rect, data, .. } = payload(2, seed, 0, 0, 96, 90) else { unreachable!() };
        screen.screen_mut().put_raw(&rect, &data);
        s.put_image(&screen, SCREEN, rect, &data);
        let sent = s.flush_all(SimTime(round as u64 * 100_000), &mut links);
        assert!(sent.iter().all(|(_, msgs)| !msgs.is_empty()), "round {round} left a viewer out");
        fed.push(ids.iter().map(|&id| s.viewer(id).unwrap().buffer().stats().codec_input_bytes).sum::<u64>());
    }
    assert!(fed[1] > fed[0], "the second graphic was not encoded: {fed:?}");
    assert_eq!(fed[2], fed[1], "the returning graphic went through the codec again");
}

#[test]
fn a_payload_colliding_with_this_rounds_pin_takes_the_per_viewer_path() {
    let graphic = payload(2, 4, 0, 0, 96, 90);
    let (key, _) = crate::plane::plane_key(&graphic).unwrap();
    // Other bytes got to the graphic's identity first this round, with
    // a form of their own.
    let mut store = FormStore::default();
    let other = thinc_protocol::Bytes::from(vec![1u8; 96 * 90 * 3]);
    let bogus = WireForm { msg: Message::CacheRef { hash: 9 }, size: 14, id: None };
    store.pinned(key, &other).unwrap().learn_form(&bogus, true);
    let flush = |store: &mut FormStore| {
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        buf.push(graphic.clone(), false);
        let mut counters = PlaneCounters::default();
        let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
        let mut trace = PacketTrace::new();
        let sent = buf.flush_planned(SimTime::ZERO, &mut pipe, &mut trace, store, &mut counters, &PlanRole::Alone);
        (sent.into_iter().map(|(_, m)| encode_message(&m)).collect::<Vec<_>>(), buf.stats(), counters)
    };
    let (alone, _, _) = flush(&mut FormStore::default());
    let (sent, stats, counters) = flush(&mut store);
    assert_eq!(sent, alone, "the colliding form was served");
    assert!(stats.codec_input_bytes > 0, "the graphic was not encoded for itself");
    assert_eq!((counters.encodes, counters.shared_sends), (0, 0), "the store stood behind it");
}

#[test]
fn once_the_round_ends_the_store_pins_no_payload() {
    // A viewer without a ledger (a ledger keeps what it sent) in a
    // budgeted session: a graphic that compresses, noise that does not,
    // a RAW under the compress floor, and a photo the socket buffer
    // cuts into views.
    let drawn = [
        photo(400, 300),
        payload(2, 4, 0, 400, 96, 90),
        payload(1, 1, 0, 500, 32, 32),
        payload(1, 2, 0, 600, 16, 16),
    ];
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    let mut store = FormStore::default();
    for cmd in &drawn {
        buf.push(cmd.clone(), false);
    }
    drain_fat(&mut buf, &mut store);
    assert!(store.len() >= 3 && store.packed_held().0 == 1, "test wants a populated store");
    for cmd in drawn {
        let DisplayCommand::Raw { data, .. } = cmd else { unreachable!() };
        let at = data.as_ptr();
        let owned = data.into_vec();
        assert_eq!(owned.as_ptr(), at, "a drawn payload is still shared");
    }
}

/// Drains `buf` into `pipe` from `now` until it is empty, in rounds of
/// a session budgeted at `budget`, returning the encoded messages.
fn drain_into(
    buf: &mut ClientBuffer,
    store: &mut FormStore,
    budget: Option<u64>,
    pipe: &mut TcpPipe,
    now: &mut SimTime,
) -> Vec<Vec<u8>> {
    let mut sent = Vec::new();
    for _ in 0..1000 {
        let batch = round(buf, *now, pipe, store, budget);
        sent.extend(batch.iter().map(|(_, m)| encode_message(m)));
        *now += SimDuration::from_millis(5);
        if buf.is_empty() {
            return sent;
        }
    }
    panic!("buffer did not drain");
}

#[test]
fn content_the_ledger_evicted_ships_again_without_the_codec() {
    let budget = 30 * 1024;
    let mut buf = ClientBuffer::new().with_raw_compression(3);
    buf.enable_cache(budget);
    let mut store = FormStore::default();
    let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
    let mut now = SimTime::ZERO;
    let graphic = || payload(2, 4, 0, 400, 96, 90); // 25.9 KB, compresses to about half.
    buf.push(graphic(), false);
    let first = drain_into(&mut buf, &mut store, Some(budget), &mut pipe, &mut now);
    assert_eq!(first.len(), 1);
    // Noise at other places pushes the graphic out of the ledger.
    for slot in 0..5 {
        buf.push(payload(1, slot as u8, slot * 128, 200, 64, 40), false);
        drain_into(&mut buf, &mut store, Some(budget), &mut pipe, &mut now);
    }
    let evicted = buf.resilience_counts().cache_evictions;
    assert!(evicted > 0, "test wants the graphic's entry evicted");
    let fed = buf.stats().codec_input_bytes;

    buf.push(graphic(), false);
    let again = drain_into(&mut buf, &mut store, Some(budget), &mut pipe, &mut now);
    assert_eq!(again, first, "not the same full form");
    assert_eq!(buf.stats().codec_input_bytes, fed, "the codec read the graphic again");
    assert_eq!(buf.resilience_counts().cache_hits, 0);
}

/// A kept compressed form longer than the pipe has room for and than
/// anything the ledger holds is a give-up, and the command is split
/// as the reference splits it: the graphic ships whole into an empty
/// 40 KB pipe, noise evicts it from the ledger and fills the pipe, and
/// the graphic comes back into the 9 KB left. The forgetful store
/// forgets just before, so its codec reads the graphic again and the
/// subject's does not.
#[test]
fn a_kept_form_too_long_for_the_pipe_splits_as_the_reference_splits() {
    let graphic = Step::Push(2, 4, 0, 2);
    let mut script = vec![graphic.clone(), Step::Flush(0), Step::Flush(30_000)];
    script.extend((0..4).map(|slot| Step::Push(1, slot, slot, 1)));
    script.extend([Step::Forget, graphic, Step::Flush(20_000)]);
    for ledger in [false, true] {
        let (kept, forgot) = replay(&script, 40, Some(30 * 1024), ledger);
        assert!(kept.splits >= 1, "{kept:?}");
        assert!(kept.codec_input_bytes < forgot.codec_input_bytes, "{kept:?} against {forgot:?}");
    }
}

#[test]
fn the_store_stays_within_the_session_budget_after_each_round() {
    // A budgeted session whose viewer has a ledger, and a session
    // without a budget, whose store keeps what the product's default
    // budget holds: graphics each compressing to about half, more of
    // them than the budget holds.
    let cases = [(Some(30 * 1024), 96, 90, 256), (None, 256, 256, 100)];
    for (budget, w, h, graphics) in cases {
        let bound = budget.unwrap_or(thinc_protocol::DEFAULT_CACHE_BUDGET);
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        if let Some(budget) = budget {
            buf.enable_cache(budget);
        }
        let mut store = FormStore::default();
        let mut pipe = TcpPipe::new(TcpParams { rwnd_bytes: 1 << 30, ..TcpParams::default() });
        let mut now = SimTime::ZERO;
        let mut most = 0;
        for seed in 0..graphics {
            buf.push(payload(2, seed as u8, 0, 0, w, h), false);
            drain_into(&mut buf, &mut store, budget, &mut pipe, &mut now);
            let (forms, bytes) = store.packed_held();
            assert!(bytes <= bound, "{forms} forms keep {bytes} B over a {bound} B budget");
            most = most.max(forms);
        }
        assert!(most >= 2, "test wants several forms kept at once");
        assert!(store.packed_held().0 < graphics, "test wants forms trimmed");
        if budget.is_none() {
            continue;
        }
        // Distinct noise, 1.5 KB at five places: more contents than
        // entries are kept.
        for n in 0..1100u32 {
            buf.push(payload(1, n as u8, (n / 256 % 5) as i32 * 128, 300, 32, 16), false);
            drain_into(&mut buf, &mut store, budget, &mut pipe, &mut now);
            assert!(store.len() <= 1024, "{} entries kept", store.len());
        }
    }
}
