//! Property tests of the wire codec: arbitrary messages round-trip,
//! arbitrary byte garbage never panics the decoder, and the frame
//! reader reassembles arbitrary fragmentations.

use proptest::prelude::*;
use thinc_protocol::cache::{cache_id, CacheLru};
use thinc_protocol::commands::{DisplayCommand, RawEncoding, Tile};
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::{
    decode_message, encode_message, DecodeError, FrameEncoder, FrameReader, CRC_COMPOSE_MIN,
    INTEGRITY_HEADER_LEN, LEGACY_HEADER_LEN,
};
use thinc_protocol::{
    fnv64, reference, Bytes, CACHE_MIN_PAYLOAD, DEFAULT_CACHE_BUDGET, WIRE_REV_CACHE, WIRE_REV_INTEGRITY,
};
use thinc_raster::{Color, Rect, YuvFormat};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (any::<i16>(), any::<i16>(), 0u32..2048, 0u32..2048)
        .prop_map(|(x, y, w, h)| Rect::new(x as i32, y as i32, w, h))
}

fn arb_color() -> impl Strategy<Value = Color> {
    any::<u32>().prop_map(Color::from_argb_u32)
}

fn arb_command() -> impl Strategy<Value = DisplayCommand> {
    prop_oneof![
        (arb_rect(), any::<bool>(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(rect, png, data)| DisplayCommand::Raw {
                rect,
                encoding: if png { RawEncoding::PngLike } else { RawEncoding::None },
                data: data.into(),
            }
        ),
        (arb_rect(), any::<i16>(), any::<i16>()).prop_map(|(src_rect, x, y)| {
            DisplayCommand::Copy {
                src_rect,
                dst_x: x as i32,
                dst_y: y as i32,
            }
        }),
        (arb_rect(), arb_color()).prop_map(|(rect, color)| DisplayCommand::Sfill { rect, color }),
        (arb_rect(), 1u32..32, 1u32..32, prop::collection::vec(any::<u8>(), 0..128)).prop_map(
            |(rect, w, h, pixels)| DisplayCommand::Pfill {
                rect,
                tile: Tile {
                    width: w,
                    height: h,
                    pixels,
                },
            }
        ),
        (
            arb_rect(),
            prop::collection::vec(any::<u8>(), 0..128),
            arb_color(),
            prop::option::of(arb_color())
        )
            .prop_map(|(rect, bits, fg, bg)| DisplayCommand::Bitmap { rect, bits, fg, bg }),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u16>(), any::<u32>(), any::<u32>(), any::<u8>()).prop_map(
            |(version, width, height, depth)| Message::ServerHello {
                version,
                width,
                height,
                depth,
            }
        ),
        arb_command().prop_map(Message::Display),
        (any::<u32>(), any::<bool>(), any::<u32>(), any::<u32>(), arb_rect()).prop_map(
            |(id, f, w, h, dst)| Message::VideoInit {
                id,
                format: if f { YuvFormat::Yv12 } else { YuvFormat::Yuy2 },
                src_width: w,
                src_height: h,
                dst,
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(id, seq, timestamp_us, data)| Message::VideoData {
                id,
                seq,
                timestamp_us,
                data: data.into(),
            }),
        (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(seq, timestamp_us, data)| Message::Audio {
                seq,
                timestamp_us,
                data: data.into(),
            }
        ),
        (any::<i16>(), any::<i16>(), any::<u8>()).prop_map(|(x, y, button)| Message::Input(
            ProtocolInput::ButtonPress {
                x: x as i32,
                y: y as i32,
                button,
            }
        )),
        (any::<u32>(), any::<u32>()).prop_map(|(w, h)| Message::Resize {
            viewport_width: w,
            viewport_height: h,
        }),
    ]
}

/// Every [`Message`] variant: [`arb_message`]'s, plus the ones it
/// leaves out.
fn arb_any_message() -> impl Strategy<Value = Message> {
    let point = || (any::<i16>(), any::<i16>()).prop_map(|(x, y)| (x as i32, y as i32));
    prop_oneof![
        arb_message(),
        (any::<u16>(), any::<u32>(), any::<u32>()).prop_map(|(version, w, h)| {
            Message::ClientHello {
                version,
                viewport_width: w,
                viewport_height: h,
            }
        }),
        (any::<u32>(), arb_rect()).prop_map(|(id, dst)| Message::VideoMove { id, dst }),
        any::<u32>().prop_map(|id| Message::VideoEnd { id }),
        point().prop_map(|(x, y)| Message::Input(ProtocolInput::PointerMove { x, y })),
        (point(), any::<u8>()).prop_map(|((x, y), button)| {
            Message::Input(ProtocolInput::ButtonRelease { x, y, button })
        }),
        any::<u32>().prop_map(|key| Message::Input(ProtocolInput::KeyPress { key })),
        any::<u32>().prop_map(|key| Message::Input(ProtocolInput::KeyRelease { key })),
        arb_rect().prop_map(|view| Message::SetView { view }),
        (1u32..32, 1u32..32, point(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(width, height, (hot_x, hot_y), pixels)| Message::CursorShape {
                width,
                height,
                hot_x,
                hot_y,
                pixels,
            }
        ),
        point().prop_map(|(x, y)| Message::CursorMove { x, y }),
        (any::<u32>(), any::<u64>(), any::<bool>()).prop_map(|(seq, timestamp_us, ping)| {
            if ping {
                Message::Ping { seq, timestamp_us }
            } else {
                Message::Pong { seq, timestamp_us }
            }
        }),
        any::<u32>().prop_map(|attempt| Message::RefreshRequest { attempt }),
        (any::<u64>(), any::<bool>()).prop_map(|(hash, miss)| {
            if miss {
                Message::CacheMiss { hash }
            } else {
                Message::CacheRef { hash }
            }
        }),
        (any::<u64>(), any::<u32>(), any::<u32>(), any::<u64>()).prop_map(
            |(session_id, client_id, last_seq, store_digest)| Message::SessionResume {
                session_id,
                client_id,
                last_seq,
                store_digest,
            }
        ),
    ]
}

/// Messages that travel on a negotiated (revision-2) stream: the
/// handshake itself is excluded because it is always legacy-framed
/// and carries no sequence number.
fn arb_stream_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        arb_command().prop_map(Message::Display),
        (any::<u32>(), any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..256))
            .prop_map(|(id, seq, timestamp_us, data)| Message::VideoData {
                id,
                seq,
                timestamp_us,
                data: data.into(),
            }),
        (any::<u32>(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..256)).prop_map(
            |(seq, timestamp_us, data)| Message::Audio {
                seq,
                timestamp_us,
                data: data.into(),
            }
        ),
        (any::<i16>(), any::<i16>(), any::<u8>()).prop_map(|(x, y, button)| Message::Input(
            ProtocolInput::ButtonPress {
                x: x as i32,
                y: y as i32,
                button,
            }
        )),
        (any::<u32>(), any::<u32>()).prop_map(|(w, h)| Message::Resize {
            viewport_width: w,
            viewport_height: h,
        }),
    ]
}

/// What the server cache engine does at flush time: a cacheable
/// payload the ledger already holds goes out as a 13-byte ref (and is
/// bumped to most-recently-used); anything else ships in full and, if
/// cacheable, enters the ledger.
fn server_emit(ledger: &mut CacheLru<Message>, msg: &Message) -> Message {
    match msg.cache_key() {
        Some(key) if ledger.contains(key) => {
            ledger.touch(key);
            Message::CacheRef { hash: key }
        }
        Some(key) => {
            ledger.insert(key, msg.wire_size(), msg.clone());
            msg.clone()
        }
        None => msg.clone(),
    }
}

/// What the client store does on receive: a ref resolves (and bumps)
/// locally or returns `None` (a miss); a full payload is applied and,
/// if cacheable, enters the store.
fn client_resolve(store: &mut CacheLru<Message>, msg: Message) -> Option<Message> {
    match msg {
        Message::CacheRef { hash } => store.get(hash).cloned(),
        other => {
            if let Some(key) = other.cache_key() {
                store.insert(key, other.wire_size(), other.clone());
            }
            Some(other)
        }
    }
}

proptest! {
    #[test]
    fn messages_round_trip(msg in arb_message()) {
        let enc = encode_message(&msg);
        let (dec, used) = decode_message(&enc).expect("round trip");
        prop_assert_eq!(dec, msg);
        prop_assert_eq!(used, enc.len());
    }

    #[test]
    fn decoder_never_panics_on_garbage(garbage in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_message(&garbage);
    }

    #[test]
    fn frame_reader_handles_any_fragmentation(
        msgs in prop::collection::vec(arb_message(), 1..8),
        cuts in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(encode_message(m));
        }
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut_iter = cuts.iter().cycle();
        while pos < stream.len() {
            let take = (*cut_iter.next().unwrap()).min(stream.len() - pos);
            reader.feed(&stream[pos..pos + take]);
            pos += take;
            while let Some(m) = reader.next_message().expect("valid stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
    }

    /// `wire_size` is arithmetic; the encoder is what it must agree
    /// with, in both framings: a handshake message keeps the legacy
    /// header at every revision, everything else grows by the
    /// sequence number and the checksum.
    #[test]
    fn wire_size_is_the_encoded_length(
        msg in prop_oneof![arb_any_message(), arb_shared_payload()],
        seq in any::<u32>(),
    ) {
        let legacy = encode_message(&msg).len();
        prop_assert_eq!(msg.wire_size(), legacy as u64);
        let handshake = matches!(
            msg,
            Message::ServerHello { .. } | Message::ClientHello { .. } | Message::SessionResume { .. }
        );
        let grown = if handshake { 0 } else { INTEGRITY_HEADER_LEN - LEGACY_HEADER_LEN };
        for revision in [WIRE_REV_INTEGRITY, WIRE_REV_CACHE] {
            let mut enc = FrameEncoder::with_revision(revision);
            enc.set_next_seq(seq);
            prop_assert_eq!(enc.encode(&msg).len(), legacy + grown);
        }
    }

    /// Bit-flipped valid streams: the decoder returns typed errors,
    /// never panics, and the reader's resync loop always drains the
    /// damage with bounded buffering.
    #[test]
    fn bit_flipped_streams_never_panic_and_stay_bounded(
        msgs in prop::collection::vec(arb_message(), 1..8),
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..32),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(encode_message(m));
        }
        for (pos, bit) in &flips {
            let idx = (*pos as usize) % stream.len();
            stream[idx] ^= 1 << bit;
        }
        let bound = stream.len();
        let mut reader = FrameReader::new();
        reader.feed(&stream);
        let mut decoded = 0usize;
        let mut progress_guard = 0usize;
        loop {
            match reader.next_message() {
                Ok(Some(_)) => decoded += 1,
                Ok(None) => break,
                Err(_) => {
                    prop_assert!(reader.resync() > 0, "resync must make progress");
                }
            }
            // The reader only ever holds what was fed.
            prop_assert!(reader.pending_bytes() <= bound);
            progress_guard += 1;
            prop_assert!(progress_guard <= bound + msgs.len() + 1, "no forward progress");
        }
        prop_assert!(decoded <= msgs.len());
    }

    /// Truncated valid streams: every prefix either decodes a prefix
    /// of the messages or waits for more bytes — never a panic.
    #[test]
    fn truncated_streams_never_panic(
        msgs in prop::collection::vec(arb_message(), 1..6),
        cut_seed in any::<u32>(),
    ) {
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(encode_message(m));
        }
        let cut = (cut_seed as usize) % (stream.len() + 1);
        let mut reader = FrameReader::new();
        reader.feed(&stream[..cut]);
        let mut got = Vec::new();
        loop {
            match reader.next_message() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(_) => { reader.resync(); }
            }
        }
        // Whole messages before the cut all survive.
        prop_assert!(got.len() <= msgs.len());
        for (g, m) in got.iter().zip(msgs.iter()) {
            prop_assert_eq!(g, m);
        }
    }

    /// Clean integrity streams are equivalent to legacy streams:
    /// arbitrary messages framed at revision 2 and fed through any
    /// fragmentation decode to exactly the same message sequence,
    /// with zero integrity counters raised.
    #[test]
    fn integrity_streams_round_trip_any_fragmentation(
        msgs in prop::collection::vec(arb_message(), 1..8),
        cuts in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(enc.encode(m));
        }
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut_iter = cuts.iter().cycle();
        while pos < stream.len() {
            let take = (*cut_iter.next().unwrap()).min(stream.len() - pos);
            reader.feed(&stream[pos..pos + take]);
            pos += take;
            while let Some(m) = reader.next_message().expect("clean integrity stream") {
                got.push(m);
            }
        }
        prop_assert_eq!(got, msgs);
        let c = reader.integrity();
        prop_assert_eq!(c.crc_fail, 0);
        prop_assert_eq!(c.seq_gap, 0);
        prop_assert_eq!(c.seq_dup, 0);
        prop_assert!(!reader.take_seq_break());
    }

    /// Bit-flipped integrity streams: damage surfaces as typed
    /// errors that resync drains — and every message that *is*
    /// delivered on a checksummed frame is byte-identical to one the
    /// encoder actually sent. A flip can forge a legacy-framed
    /// handshake (those carry no CRC by design), but it can never
    /// forge a pixel command.
    #[test]
    fn integrity_bit_flips_never_forge_a_command(
        msgs in prop::collection::vec(arb_stream_message(), 1..8),
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..32),
    ) {
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend(enc.encode(m));
        }
        let clean = stream.clone();
        for (pos, bit) in &flips {
            let idx = (*pos as usize) % stream.len();
            stream[idx] ^= 1 << bit;
        }
        let bound = stream.len();
        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&stream);
        let mut got = Vec::new();
        let mut progress_guard = 0usize;
        loop {
            match reader.next_message() {
                Ok(Some(m)) => got.push(m),
                Ok(None) => break,
                Err(_) => {
                    prop_assert!(reader.resync() > 0, "resync must make progress");
                }
            }
            prop_assert!(reader.pending_bytes() <= bound);
            progress_guard += 1;
            prop_assert!(progress_guard <= bound + msgs.len() + 1, "no forward progress");
        }
        for m in &got {
            if matches!(m, Message::ServerHello { .. } | Message::ClientHello { .. }) {
                continue; // legacy-framed: a flip may forge one, it carries no CRC
            }
            prop_assert!(
                msgs.contains(m),
                "a checksummed frame delivered a message the encoder never sent"
            );
        }
        // If no frame actually changed, the stream must decode clean.
        if stream == clean {
            prop_assert_eq!(got, msgs);
            prop_assert_eq!(reader.integrity().crc_fail, 0);
        }
    }

    /// Whole-frame reordering and duplication: the reader's sequence
    /// accounting is exactly the documented model — in-order frames
    /// deliver, forward jumps deliver and count a gap, rollbacks drop
    /// and count a duplicate, except that a frame from before the first
    /// one accepted drops and counts a gap — and never emits a message
    /// that was not encoded.
    #[test]
    fn integrity_reorder_duplication_matches_sequence_model(
        msgs in prop::collection::vec(arb_stream_message(), 2..8),
        picks in prop::collection::vec(any::<u16>(), 1..16),
    ) {
        // Frame each message individually so frames can be shuffled.
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        let frames: Vec<Vec<u8>> = msgs.iter().map(|m| enc.encode(m)).collect();
        // Deliver frames in an arbitrary with-replacement order: some
        // frames repeat (duplicates), some never arrive (gaps).
        let order: Vec<usize> = picks.iter().map(|&p| p as usize % frames.len()).collect();

        // The documented sequence model, run on the same order.
        let mut history: Option<(u32, u32)> = None; // (first, last)
        let mut expect = Vec::new();
        let (mut exp_gap, mut exp_dup) = (0u64, 0u64);
        for &i in &order {
            let seq = i as u32;
            match history {
                None => {
                    expect.push(msgs[i].clone());
                    history = Some((seq, seq));
                }
                Some((first, last)) if seq > last => {
                    if seq != last + 1 {
                        exp_gap += 1;
                    }
                    expect.push(msgs[i].clone());
                    history = Some((first, seq));
                }
                Some((first, _)) if seq < first => exp_gap += 1,
                Some(_) => exp_dup += 1,
            }
        }

        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        for &i in &order {
            reader.feed(&frames[i]);
        }
        let mut got = Vec::new();
        while let Some(m) = reader.next_message().expect("undamaged frames") {
            got.push(m);
        }
        prop_assert_eq!(got, expect);
        let c = reader.integrity();
        prop_assert_eq!(c.crc_fail, 0, "undamaged frames never fail CRC");
        prop_assert_eq!(c.seq_gap, exp_gap);
        prop_assert_eq!(c.seq_dup, exp_dup);
        prop_assert_eq!(reader.take_seq_break(), exp_gap > 0);
    }

    /// Revision-3 content cache, modeled exactly as the server engine
    /// and client store behave: repeated payloads travel as refs, and
    /// the resolved stream is byte-identical to the uncached stream
    /// under any fragmentation. A second connection over the *same*
    /// retained ledger/store (reconnect with a persisted cache) must
    /// resolve every ref without a single miss.
    #[test]
    fn cache_ref_streams_decode_byte_exact_any_fragmentation(
        pool in prop::collection::vec(arb_command().prop_map(Message::Display), 1..6),
        picks in prop::collection::vec(any::<u8>(), 1..24),
        cuts in prop::collection::vec(1usize..64, 1..32),
    ) {
        let mut ledger: CacheLru<Message> = CacheLru::new(DEFAULT_CACHE_BUDGET);
        let mut store: CacheLru<Message> = CacheLru::new(DEFAULT_CACHE_BUDGET);

        for connection in 0..2 {
            let mut enc = FrameEncoder::with_revision(WIRE_REV_CACHE);
            let mut stream = Vec::new();
            let mut sent = Vec::new();
            let mut refs = 0usize;
            for &p in &picks {
                let msg = pool[p as usize % pool.len()].clone();
                let wire = server_emit(&mut ledger, &msg);
                if matches!(wire, Message::CacheRef { .. }) {
                    refs += 1;
                }
                stream.extend(enc.encode(&wire));
                sent.push(msg);
            }
            if connection == 1 {
                // Every cacheable payload is already in the retained
                // ledger, so the second pass is all refs.
                let cacheable = sent.iter().filter(|m| m.cache_key().is_some()).count();
                prop_assert_eq!(refs, cacheable, "warm ledger emits only refs");
            }

            let mut reader = FrameReader::with_revision(WIRE_REV_CACHE);
            let mut got = Vec::new();
            let mut pos = 0;
            let mut cut_iter = cuts.iter().cycle();
            while pos < stream.len() {
                let take = (*cut_iter.next().unwrap()).min(stream.len() - pos);
                reader.feed(&stream[pos..pos + take]);
                pos += take;
                while let Some(m) = reader.next_message().expect("clean rev-3 stream") {
                    let resolved = client_resolve(&mut store, m);
                    prop_assert!(resolved.is_some(), "a ref must point at held content");
                    got.push(resolved.unwrap());
                }
            }
            prop_assert_eq!(got.len(), sent.len());
            for (g, s) in got.iter().zip(sent.iter()) {
                prop_assert_eq!(encode_message(g), encode_message(s), "byte-exact");
            }
        }
    }

    /// Under a tiny budget that forces constant eviction, the
    /// server-side ledger and client-side store evict in lockstep:
    /// the server only emits a ref for a key it holds, so the client
    /// must hold it too — eviction never leaves a dangling ref.
    #[test]
    fn lockstep_eviction_never_dangles_a_ref(
        pool in prop::collection::vec(arb_command().prop_map(Message::Display), 2..8),
        picks in prop::collection::vec(any::<u8>(), 1..64),
        budget in 256u64..4096,
    ) {
        let mut ledger: CacheLru<Message> = CacheLru::new(budget);
        let mut store: CacheLru<Message> = CacheLru::new(budget);
        for &p in &picks {
            let msg = pool[p as usize % pool.len()].clone();
            let wire = server_emit(&mut ledger, &msg);
            let resolved = client_resolve(&mut store, wire);
            prop_assert!(resolved.is_some(), "mirrored LRUs never dangle");
            prop_assert_eq!(
                encode_message(&resolved.unwrap()),
                encode_message(&msg)
            );
            prop_assert_eq!(ledger.used_bytes(), store.used_bytes());
            prop_assert_eq!(ledger.evictions(), store.evictions());
            prop_assert_eq!(ledger.len(), store.len());
        }
    }

    /// Forced misses (a client that lost stored entries) converge
    /// without replaying an old frame: the ledger forgets the entry a
    /// miss names, the server repaints from its screen — modelled as
    /// the same content occurring again — and that occurrence ships in
    /// full, re-seeding both ends. Ledger and store hold the same keys,
    /// bytes and entry count after every step.
    #[test]
    fn forced_miss_forgets_and_the_next_occurrence_ships_in_full(
        pool in prop::collection::vec(arb_command().prop_map(Message::Display), 1..6),
        picks in prop::collection::vec(any::<u8>(), 1..32),
        drops in prop::collection::vec(any::<bool>(), 1..32),
    ) {
        let mut ledger: CacheLru<Message> = CacheLru::new(DEFAULT_CACHE_BUDGET);
        let mut store: CacheLru<Message> = CacheLru::new(DEFAULT_CACHE_BUDGET);
        let mut drop_iter = drops.iter().cycle();
        for &p in &picks {
            let msg = pool[p as usize % pool.len()].clone();
            let mut wire = server_emit(&mut ledger, &msg);
            if let Message::CacheRef { hash } = wire {
                if *drop_iter.next().unwrap() {
                    // The client lost the entry, so the ref misses;
                    // MSG_CACHE_MISS makes the ledger forget it too.
                    store.remove(hash);
                    prop_assert!(client_resolve(&mut store, wire.clone()).is_none());
                    prop_assert!(ledger.remove(hash).is_some(), "ledger holds every ref it emitted");
                    wire = server_emit(&mut ledger, &msg);
                    prop_assert!(!matches!(wire, Message::CacheRef { .. }), "the repaint ships in full");
                }
            }
            let delivered = client_resolve(&mut store, wire).expect("held or full payload");
            prop_assert_eq!(encode_message(&delivered), encode_message(&msg));
            prop_assert_eq!(ledger.keys(), store.keys());
            prop_assert_eq!(ledger.used_bytes(), store.used_bytes());
            prop_assert_eq!(ledger.len(), store.len());
        }
    }

    /// The cacheability gate is exactly: pixel-bearing display command
    /// (RAW / PFILL / BITMAP) whose final encoding meets the size
    /// floor — and the key is the FNV-1a of those final bytes. The
    /// in-process identity exists exactly when the key does.
    #[test]
    fn cache_key_gates_on_kind_and_floor(msg in arb_message()) {
        let enc = encode_message(&msg);
        let candidate = matches!(
            &msg,
            Message::Display(
                DisplayCommand::Raw { .. }
                    | DisplayCommand::Pfill { .. }
                    | DisplayCommand::Bitmap { .. }
            )
        );
        let key = (candidate && enc.len() >= CACHE_MIN_PAYLOAD).then(|| fnv64(&enc));
        prop_assert_eq!(msg.cache_key(), key);
        prop_assert_eq!(cache_id(&msg).is_some(), key.is_some());
    }

    /// Pure random bytes through the full feed/decode/resync loop:
    /// no panics, memory bounded by the input.
    #[test]
    fn random_bytes_drain_without_panic(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        let bound = garbage.len();
        let mut reader = FrameReader::new();
        reader.feed(&garbage);
        let mut progress_guard = 0usize;
        loop {
            match reader.next_message() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    prop_assert!(reader.resync() > 0);
                }
            }
            prop_assert!(reader.pending_bytes() <= bound);
            progress_guard += 1;
            prop_assert!(progress_guard <= bound + 1, "no forward progress");
        }
    }
}

/// RAW, video and audio messages with payloads on both sides of
/// [`CRC_COMPOSE_MIN`], the floor above which the encoder composes the
/// frame CRC from the register the payload's allocation memoises.
fn arb_shared_payload() -> impl Strategy<Value = Message> {
    (
        arb_rect(),
        0u8..4,
        any::<u32>(),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), CRC_COMPOSE_MIN - 8..CRC_COMPOSE_MIN * 5),
    )
        .prop_map(|(rect, kind, seq, timestamp_us, data)| match kind {
            0 | 1 => Message::Display(DisplayCommand::Raw {
                rect,
                encoding: if kind == 1 { RawEncoding::PngLike } else { RawEncoding::None },
                data: data.into(),
            }),
            2 => Message::VideoData {
                id: rect.w,
                seq,
                timestamp_us,
                data: data.into(),
            },
            _ => Message::Audio {
                seq,
                timestamp_us,
                data: data.into(),
            },
        })
}

/// A revision-2 frame built the obvious way: header fields, the
/// byte-serial reference CRC over header and body, the body as the
/// legacy encoder lays it out.
fn straight_line_frame(msg: &Message, seq: u32) -> Vec<u8> {
    let legacy = encode_message(msg);
    let body = &legacy[LEGACY_HEADER_LEN..];
    let mut frame = vec![legacy[0]];
    frame.extend((body.len() as u32).to_le_bytes());
    frame.extend(seq.to_le_bytes());
    let crc = reference::crc32_update(reference::crc32_update(!0, &frame), body) ^ !0;
    frame.extend(crc.to_le_bytes());
    frame.extend(body);
    frame
}

proptest! {
    /// A view of a larger allocation ([`Bytes::slice`]), reached
    /// directly or through a view of a view, is an owned buffer with
    /// the same bytes to everything that can see bytes: equality,
    /// `Hash`, `Debug`, `into_vec`, the encoded frame, its arithmetic
    /// size, the streamed rev-3 key (the FNV of the encoded frame) and
    /// the integrity frame, whose CRC is composed from the register the
    /// *view* memoises. Only the in-process identity differs, and that
    /// follows root contents and range, not allocations.
    #[test]
    fn a_sliced_payload_is_an_owned_one_to_everything_but_its_identity(
        rect in arb_rect(),
        root in prop::collection::vec(any::<u8>(), 1..CRC_COMPOSE_MIN * 4),
        cut in any::<(u16, u16, u16, u16)>(),
        seq in any::<u32>(),
    ) {
        let within = |pick: u16, lo: usize, hi: usize| lo + pick as usize % (hi - lo + 1);
        let (a, b) = (within(cut.0, 0, root.len()), within(cut.1, 0, root.len()));
        let (start, end) = (a.min(b), a.max(b));
        let (lo, hi) = (within(cut.2, 0, start), within(cut.3, end, root.len()));
        let owned = Bytes::from(root[start..end].to_vec());
        let root = Bytes::from(root);
        let view = root.slice(start..end);
        let nested = root.slice(lo..hi).slice(start - lo..end - lo);
        prop_assert!(nested.ptr_eq(&view), "a view of a view is a view of the root");
        prop_assert_eq!(nested.content_id(), view.content_id());
        let twin = Bytes::from(root.to_vec()).slice(start..end);
        // (An empty view may sit where another allocation starts.)
        prop_assert!(!twin.ptr_eq(&view) || twin.is_empty());
        prop_assert_eq!(twin.content_id(), view.content_id(), "equal roots, equal cut");

        prop_assert_eq!(&view, &owned);
        prop_assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        prop_assert!(std::collections::HashSet::from([owned.clone()]).contains(&view));
        prop_assert_eq!(view.clone().into_vec(), owned.to_vec());

        let raw = |data: &Bytes| Message::Display(DisplayCommand::Raw {
            rect,
            encoding: RawEncoding::None,
            data: data.clone(),
        });
        let (sliced, plain) = (raw(&view), raw(&owned));
        let enc = encode_message(&plain);
        prop_assert_eq!(&encode_message(&sliced), &enc);
        prop_assert_eq!(sliced.wire_size(), enc.len() as u64);
        prop_assert_eq!(sliced.cache_key(), (enc.len() >= CACHE_MIN_PAYLOAD).then(|| fnv64(&enc)));
        prop_assert_eq!(cache_id(&sliced), cache_id(&plain), "a view and its copy are one frame");
        let mut framer = FrameEncoder::with_revision(WIRE_REV_CACHE);
        framer.set_next_seq(seq);
        prop_assert_eq!(framer.encode(&sliced), straight_line_frame(&plain, seq), "memo cold");
        prop_assert_eq!(framer.encode(&sliced), straight_line_frame(&plain, seq.wrapping_add(1)));
    }

    /// However the encoder reaches a frame's CRC — a pass over the
    /// body, or composed from a payload memo that is cold, warm, or
    /// was warmed by another encoder at another sequence number — the
    /// frame is byte-equal to the straight-line encode; and the reader
    /// checks received bytes, never a memo.
    #[test]
    fn integrity_frames_equal_a_straight_line_encode_whatever_the_memo_holds(
        msg in prop_oneof![arb_message(), arb_shared_payload()],
        seq_a in any::<u32>(),
        seq_b in any::<u32>(),
        flip_at in any::<u32>(),
        flip_bit in 0u8..8,
    ) {
        // Handshake messages keep legacy framing and take no number.
        let handshake = matches!(msg, Message::ServerHello { .. });
        let want = |seq: u32| {
            if handshake { encode_message(&msg) } else { straight_line_frame(&msg, seq) }
        };
        let mut a = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        a.set_next_seq(seq_a);
        let cold = a.encode(&msg);
        prop_assert_eq!(&cold, &want(seq_a));
        prop_assert_eq!(a.encode(&msg), want(seq_a.wrapping_add(1)), "memo warm");
        let shared = msg.clone();
        let mut b = FrameEncoder::with_revision(WIRE_REV_CACHE);
        b.set_next_seq(seq_b);
        prop_assert_eq!(b.encode(&shared), want(seq_b), "memo shared across encoders");

        let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
        reader.feed(&cold);
        prop_assert_eq!(reader.next_message(), Ok(Some(msg.clone())));
        if !handshake {
            let mut damaged = cold.clone();
            let body = damaged.len() - INTEGRITY_HEADER_LEN;
            damaged[INTEGRITY_HEADER_LEN + flip_at as usize % body] ^= 1 << flip_bit;
            let mut reader = FrameReader::with_revision(WIRE_REV_INTEGRITY);
            reader.feed(&damaged);
            prop_assert!(
                matches!(reader.next_message(), Err(DecodeError::ChecksumMismatch { .. })),
                "a flipped body byte got past the reader"
            );
            prop_assert_eq!(reader.integrity().crc_fail, 1);
        }
    }
}
