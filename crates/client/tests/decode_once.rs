//! A cache hit on a compressed `RAW` repaints pixels the client kept
//! from an earlier hit instead of decoding the payload again. These
//! tests hold that shortcut to the decode it skips: a stream client fed
//! references ends exactly where a plain client applying the resolved
//! messages ends, and the kept pixels never outgrow their bound.

use thinc_client::stream::DECODED_PIXELS_BUDGET;
use thinc_client::{StreamClient, ThincClient};
use thinc_protocol::cache::{cache_id, CacheLru};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::FrameEncoder;
use thinc_protocol::WIRE_REV_CACHE;
use thinc_raster::{PixelFormat, Rect};

const W: u32 = 1024;
const H: u32 = 768;
const BPP: usize = 3;

/// Flat graphic content: horizontal bands whose colours and heights
/// come from `salt`, each opening with one textured row that the rows
/// under it repeat. Compresses to a few KB.
fn flat(w: u32, h: u32, salt: u64) -> Vec<u8> {
    let row_bytes = w as usize * BPP;
    let mut img = Vec::with_capacity(row_bytes * h as usize);
    let mut row = vec![0u8; row_bytes];
    for y in 0..h as u64 {
        let band_h = 8 + (salt.rotate_left(y as u32 / 8) % 40);
        if y % band_h == 0 {
            let seed = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ y;
            for (i, b) in row.iter_mut().enumerate() {
                *b = (seed >> (i % 7 * 8)) as u8 ^ (i / 96) as u8;
            }
        }
        img.extend_from_slice(&row);
    }
    img
}

/// A compressed `RAW` of `pixels` at `rect`.
fn packed(rect: Rect, pixels: &[u8]) -> Message {
    let data = thinc_compress::pnglike::compress(pixels, BPP, rect.w as usize * BPP);
    Message::Display(DisplayCommand::Raw {
        rect,
        encoding: RawEncoding::PngLike,
        data: data.into(),
    })
}

/// A viewer at the cache revision fed through a server-side ledger
/// model, beside a plain client that applies every resolved message.
struct Pair {
    stream: StreamClient,
    plain: ThincClient,
    enc: FrameEncoder,
    /// The server's ledger: a name it holds is sent as a reference.
    ledger: CacheLru<()>,
}

impl Pair {
    fn new(budget: u64) -> Self {
        let mut stream = StreamClient::new(W, H, PixelFormat::Rgb888).with_cache_budget(budget);
        let mut enc = FrameEncoder::new();
        enc.negotiate(WIRE_REV_CACHE);
        let hello = Message::ServerHello {
            version: WIRE_REV_CACHE,
            width: W,
            height: H,
            depth: 24,
        };
        stream.feed(&enc.encode(&hello));
        let mut plain = ThincClient::new(W, H, PixelFormat::Rgb888);
        plain.apply(&hello);
        Pair {
            stream,
            plain,
            enc,
            ledger: CacheLru::new(budget),
        }
    }

    /// Shows `msg` as a session would: a reference when the ledger
    /// holds it, the full payload otherwise. Returns whether it was a
    /// reference.
    fn show(&mut self, msg: &Message) -> bool {
        let name = msg.cache_key().expect("a cacheable payload");
        let hit = self.ledger.touch(name);
        if !hit {
            self.ledger.insert(name, msg.wire_size(), ());
        }
        let wire = if hit {
            Message::CacheRef { hash: name }
        } else {
            msg.clone()
        };
        assert_eq!(self.stream.feed(&self.enc.encode(&wire)), 1);
        self.plain.apply(msg);
        hit
    }

    fn assert_same(&self, at: &str) {
        let (s, p) = (self.stream.client(), &self.plain);
        assert_eq!(s.stats(), p.stats(), "{at}: stats");
        assert_eq!(
            s.hardware().cycles(),
            p.hardware().cycles(),
            "{at}: hardware"
        );
        assert!(
            s.framebuffer().data() == p.framebuffer().data(),
            "{at}: framebuffer"
        );
    }

    fn kept(&self, msg: &Message) -> bool {
        self.stream
            .decoded_pixels()
            .contains(cache_id(msg).unwrap())
    }
}

#[test]
fn a_hit_repaints_what_a_decode_paints() {
    let full = Rect::new(0, 0, W, H);
    // Four full-screen graphics at one rectangle: 9.4 MB decoded, more
    // than the pixel table holds.
    let screens: Vec<Message> = (1..=4)
        .map(|salt| packed(full, &flat(W, H, salt)))
        .collect();
    // A RAW cut in two at flush: each band is compressed on its own.
    let whole = flat(W, 200, 77);
    let cut = 120 * W as usize * BPP;
    let top = packed(Rect::new(0, 300, W, 120), &whole[..cut]);
    let bottom = packed(Rect::new(0, 420, W, 80), &whole[cut..]);
    // A stored entry whose payload does not decode.
    let bad = Message::Display(DisplayCommand::Raw {
        rect: Rect::new(8, 8, 32, 32),
        encoding: RawEncoding::PngLike,
        data: vec![0xFF; 96].into(),
    });
    // Uncompressed fillers that push everything out of the store.
    let fillers: Vec<Message> = (0..5u32)
        .map(|i| {
            let data: Vec<u8> = (0..W * 300 * 3)
                .map(|b| (b.wrapping_mul(2_654_435_761) >> (i + 8)) as u8)
                .collect();
            Message::Display(DisplayCommand::Raw {
                rect: Rect::new(0, 0, W, 300),
                encoding: RawEncoding::None,
                data: data.into(),
            })
        })
        .collect();

    let mut pair = Pair::new(thinc_protocol::DEFAULT_CACHE_BUDGET);
    let errors = |pair: &Pair| pair.stream.client().stats().errors;

    // Each graphic is sent, then hit twice: the first hit decodes and
    // keeps the pixels, the second repaints them.
    for s in &screens {
        assert!(!pair.show(s));
        assert!(pair.show(s) && pair.show(s));
        pair.assert_same("first visits");
    }
    // The fourth graphic pushed the first out of the pixel table, not
    // out of the store: its hit decodes again and keeps it again.
    assert!(screens[1..].iter().all(|s| pair.kept(s)) && !pair.kept(&screens[0]));
    assert!(pair.stream.decoded_pixels().evictions() >= 1);
    assert!(pair.show(&screens[0]) && pair.kept(&screens[0]));
    assert!(pair.show(&screens[0]));
    pair.assert_same("hit after the pixel table evicted it");

    // Both bands of the split RAW, hit in turn, under one another.
    for band in [&top, &bottom, &top, &bottom, &bottom, &top] {
        pair.show(band);
    }
    assert!(pair.kept(&top) && pair.kept(&bottom));
    pair.assert_same("split RAW");

    // A bad entry counts its error on insert and on every hit, and is
    // never kept.
    for visit in 1..=3 {
        pair.show(&bad);
        assert_eq!(errors(&pair), visit);
        assert!(!pair.kept(&bad));
    }
    pair.assert_same("bad entry");

    // The store evicts everything; the pixels of the last graphic hit
    // outlive the entry. A reference the store cannot resolve is a
    // miss whatever pixels remain.
    for f in &fillers {
        assert!(!pair.show(f));
    }
    let again = &screens[0];
    let name = again.cache_key().unwrap();
    let id = cache_id(again).unwrap();
    assert!(!pair.stream.cache_store().lru().contains(id) && pair.kept(again));
    let before = pair.stream.client().stats();
    assert_eq!(
        pair.stream
            .feed(&pair.enc.encode(&Message::CacheRef { hash: name })),
        0
    );
    assert_eq!(
        pair.stream.take_cache_miss(),
        Some(Message::CacheMiss { hash: name })
    );
    assert_eq!(
        pair.stream.client().stats(),
        before,
        "a miss paints nothing"
    );
    // The server answers with the same bytes, which re-enter the store
    // under the same identity; the next hit repaints the kept pixels.
    assert!(!pair.show(again));
    assert!(pair.show(again) && pair.kept(again));
    pair.assert_same("store eviction and re-insertion");

    // A cold fallback drops the kept pixels with the store.
    assert!(pair.stream.resume());
    let hello = Message::ServerHello {
        version: WIRE_REV_CACHE,
        width: W,
        height: H,
        depth: 24,
    };
    pair.stream.feed(&pair.enc.encode(&hello));
    assert!(pair.stream.cache_store().lru().is_empty());
    assert!(pair.stream.decoded_pixels().is_empty());
}

#[test]
fn kept_pixels_never_outgrow_their_bound() {
    // Hostile for the table: every frame is a different full-screen
    // graphic a few KB on the wire, sent and referenced at once, so
    // each would keep 2.4 MB of pixels.
    let full = Rect::new(0, 0, W, H);
    let mut pair = Pair::new(thinc_protocol::DEFAULT_CACHE_BUDGET);
    let screen = W as u64 * H as u64 * BPP as u64;
    let mut kept = 0;
    for salt in 0..12 {
        let msg = packed(full, &flat(W, H, 1000 + salt));
        assert!(
            msg.wire_size() < screen / 50,
            "{} bytes on the wire",
            msg.wire_size()
        );
        assert!(!pair.show(&msg));
        assert!(pair.show(&msg));
        kept += screen;
        let held = pair.stream.decoded_pixels().used_bytes();
        assert!(
            held <= DECODED_PIXELS_BUDGET,
            "{held} bytes kept after frame {salt}"
        );
    }
    assert!(
        kept > 3 * DECODED_PIXELS_BUDGET,
        "the bound was reached again and again"
    );
    assert_eq!(
        pair.stream.decoded_pixels().len() as u64,
        DECODED_PIXELS_BUDGET / screen
    );
    pair.assert_same("hostile stream");
}
