//! Replay timers: after a traced pass the harness feeds the bytes that
//! pass actually shipped to each layer's public function on its own
//! and times that. This is how costs buried inside one product call
//! (the codec inside `flush`, CRC inside `encode_frame`, raster inside
//! `feed`) are taken from outside.

use std::hint::black_box;
use std::time::Instant;

use thinc_client::ThincClient;
use thinc_compress::{Codec, Scratch};
use thinc_protocol::wire::{self, FrameReader};
use thinc_protocol::{
    CacheLru, DisplayCommand, Message, RawEncoding, DEFAULT_CACHE_BUDGET, PROTOCOL_VERSION,
};
use thinc_raster::PixelFormat;

use crate::metrics::Values;

pub const FORMAT: PixelFormat = PixelFormat::Rgb888;
const BPP: usize = 3;

/// `client.apply.*` buckets.
pub const RAW: usize = 0;
pub const COPY: usize = 1;
pub const SFILL: usize = 2;
pub const PFILL: usize = 3;
pub const BITMAP: usize = 4;
pub const VIDEO: usize = 5;
pub const OTHER: usize = 6;

#[derive(Default, Clone)]
pub struct Totals {
    pub crc_ns: u64,
    pub decode_ns: u64,
    /// `Codec::compress_with` on every RAW payload the server shipped.
    pub enc_ns: u64,
    /// `Codec::decompress` on every compressed RAW the viewer applied
    /// (shipped or resolved from its store).
    pub dec_ns: u64,
    /// Uncompressed bytes handed to the encoder / bytes it shipped.
    pub raw_bytes: u64,
    pub packed_bytes: u64,
    pub apply_ns: [u64; 7],
    pub frames: u64,
    pub bytes: u64,
    /// Bytes of frames carrying a RAW display command.
    pub raw_frame_bytes: u64,
}

/// A second viewer, fed after the run with the frames the real one
/// received: a frame reader, a mirror of the content store (so cache
/// references resolve exactly as they did live) and a scratch client.
pub struct Shadow {
    reader: FrameReader,
    store: CacheLru<Message>,
    client: ThincClient,
    scratch: Scratch,
    pub totals: Totals,
}

impl Shadow {
    pub fn new(width: u32, height: u32) -> Self {
        Self {
            reader: FrameReader::with_revision(PROTOCOL_VERSION),
            store: CacheLru::new(DEFAULT_CACHE_BUDGET),
            client: ThincClient::new(width, height, FORMAT),
            scratch: Scratch::new(),
            totals: Totals::default(),
        }
    }

    /// Untimed: a frame shipped before the recorded pass. Brings the
    /// store and the scratch client to the state the live viewer had.
    pub fn prime(&mut self, frame: &[u8]) {
        self.feed(frame, false);
    }

    /// Timed: a frame shipped in the recorded pass.
    pub fn replay(&mut self, frame: &[u8]) {
        self.feed(frame, true);
    }

    fn feed(&mut self, frame: &[u8], timed: bool) {
        if timed {
            let t = Instant::now();
            black_box(wire::crc32(black_box(frame)));
            self.totals.crc_ns += t.elapsed().as_nanos() as u64;
            self.totals.frames += 1;
            self.totals.bytes += frame.len() as u64;
        }
        let t = Instant::now();
        self.reader.feed(frame);
        let decoded = self.reader.next_message();
        if timed {
            self.totals.decode_ns += t.elapsed().as_nanos() as u64;
        }
        let Ok(Some(msg)) = decoded else {
            return;
        };
        // Resolve a reference the way `StreamClient::feed` does.
        let (msg, from_store) = match msg {
            Message::CacheRef { hash } => match self.store.get(hash) {
                Some(m) => (m.clone(), true),
                None => return,
            },
            other => (other, false),
        };
        if timed {
            self.time_codec(&msg, from_store, frame.len() as u64);
        }
        let bucket = match &msg {
            Message::Display(DisplayCommand::Raw { .. }) => RAW,
            Message::Display(DisplayCommand::Copy { .. }) => COPY,
            Message::Display(DisplayCommand::Sfill { .. }) => SFILL,
            Message::Display(DisplayCommand::Pfill { .. }) => PFILL,
            Message::Display(DisplayCommand::Bitmap { .. }) => BITMAP,
            Message::VideoData { .. } => VIDEO,
            _ => OTHER,
        };
        let t = Instant::now();
        self.client.apply(&msg);
        if timed {
            self.totals.apply_ns[bucket] += t.elapsed().as_nanos() as u64;
        }
        if !from_store {
            if let Some(key) = msg.cache_key() {
                self.store.insert(key, msg.wire_size(), msg);
            }
        }
    }

    fn time_codec(&mut self, msg: &Message, from_store: bool, frame_len: u64) {
        let Message::Display(DisplayCommand::Raw {
            rect,
            encoding,
            data,
        }) = msg
        else {
            return;
        };
        if !from_store {
            self.totals.raw_frame_bytes += frame_len;
        }
        let codec = Codec::PngLike {
            bpp: BPP,
            stride: rect.w as usize * BPP,
        };
        let pixels = match encoding {
            RawEncoding::PngLike => {
                let t = Instant::now();
                let pixels = codec.decompress(black_box(data));
                self.totals.dec_ns += t.elapsed().as_nanos() as u64;
                match pixels {
                    Some(p) => p,
                    None => return,
                }
            }
            // The server tries the codec on every RAW of 1 KB or more
            // and ships the pixels as they are when it does not help.
            RawEncoding::None if data.len() >= 1024 => data.to_vec(),
            RawEncoding::None => return,
        };
        if from_store {
            return;
        }
        let t = Instant::now();
        black_box(codec.compress_with(black_box(&pixels), &mut self.scratch));
        self.totals.enc_ns += t.elapsed().as_nanos() as u64;
        self.totals.raw_bytes += pixels.len() as u64;
        self.totals.packed_bytes += data.len() as u64;
    }
}

/// The `client.apply.*` metrics from a shadow's per-command totals.
pub fn insert_apply_buckets(layers: &mut Values, apply_ns: &[u64; 7], updates: f64) {
    for (name, bucket) in [
        ("client.apply.raw_us", RAW),
        ("client.apply.copy_us", COPY),
        ("client.apply.sfill_us", SFILL),
        ("client.apply.pfill_us", PFILL),
        ("client.apply.bitmap_us", BITMAP),
        ("client.apply.video_us", VIDEO),
    ] {
        layers.insert(name, apply_ns[bucket] as f64 / 1e3 / updates);
    }
}
