//! The socket pipeline: `WindowServer<ThincServer>` → `flush` →
//! `encode_frame` → `TcpTransport` over 127.0.0.1 → `StreamClient`,
//! one server thread and one viewer thread, closed loop with one
//! update in flight, fenced by the protocol's own Ping/Pong.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use thinc_client::StreamClient;
use thinc_core::{ServerConfig, ThincServer};
use thinc_display::{NullDriver, WindowServer};
use thinc_net::transport::{TcpTransport, Transport, TransportError};
use thinc_net::{PacketTrace, SimDuration, SimTime, TcpPipe};
use thinc_protocol::wire::{encode_message, FrameReader, INTEGRITY_HEADER_LEN, LEGACY_HEADER_LEN};
use thinc_protocol::{DisplayCommand, Message, CACHE_MIN_PAYLOAD, PROTOCOL_VERSION};

use crate::inputs::{SocketInputs, Update, HEIGHT, WIDTH};
use crate::metrics::Values;
use crate::replay::{insert_apply_buckets, Shadow, FORMAT};
use crate::rig::{anomalies, bench_pipe, Keep, Pass, Rig, Traced};
use crate::stats::{count_allocs, mb_per_s, median, ratio};
use crate::trace::{summarize, Clock, Recorder, Span, ROOT};

/// What a fence asks of the viewer, carried in `Ping::timestamp_us`
/// (the client echoes the field untouched).
const CMD_UPDATE: u64 = 0;
const CMD_SNAPSHOT: u64 = 1;
const CMD_TRACE_ON: u64 = 2;
const CMD_TRACE_OFF: u64 = 3;

const FENCE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the viewer thread reports for each fence it applies.
struct FenceRecord {
    seq: u32,
    applied_ns: u64,
    /// Time inside `StreamClient::feed` since the last fence.
    feed_ns: u64,
    /// A decode, integrity or cache anomaly since the last fence, or
    /// the refresh latch is set.
    anomaly: bool,
    snapshot: Option<Vec<u8>>,
}

/// The viewer thread: receive, feed, answer fences. Spans carry the
/// sequence number of the fence that will close the update.
fn viewer(mut net: TcpTransport, clock: Clock, records: Sender<FenceRecord>) -> Vec<Span> {
    let hello = Message::ClientHello {
        version: PROTOCOL_VERSION,
        viewport_width: WIDTH,
        viewport_height: HEIGHT,
    };
    if net.send_all(&encode_message(&hello)).is_err() {
        return Vec::new();
    }
    let mut stream = StreamClient::new(WIDTH, HEIGHT, FORMAT);
    let mut rec = Recorder::new(clock);
    let mut buf = vec![0u8; 64 * 1024];
    let (mut update, mut feed_ns, mut seen) = (0u32, 0u64, 0u64);
    loop {
        let r0 = rec.t();
        let n = match net.try_recv(&mut buf) {
            Ok(0) => {
                std::thread::yield_now();
                continue;
            }
            Ok(n) => n,
            Err(_) => break,
        };
        let f0 = clock.ns();
        stream.feed(&buf[..n]);
        let f1 = clock.ns();
        feed_ns += f1 - f0;
        if rec.on {
            rec.spans.push(Span {
                name: "net.recv",
                start: r0,
                end: f0,
                update,
            });
            rec.spans.push(Span {
                name: "client.feed",
                start: f0,
                end: f1,
                update,
            });
        }
        while let Some(miss) = stream.take_cache_miss() {
            let _ = net.send_all(&encode_message(&miss));
        }
        let Some(pong) = stream.take_pong() else {
            continue;
        };
        let Message::Pong {
            seq,
            timestamp_us: cmd,
        } = pong
        else {
            continue;
        };
        let now_seen = anomalies(&stream);
        let record = FenceRecord {
            seq,
            applied_ns: f1,
            feed_ns,
            anomaly: now_seen != seen || stream.needs_refresh(),
            snapshot: (cmd == CMD_SNAPSHOT).then(|| stream.client().framebuffer().data().to_vec()),
        };
        (seen, feed_ns, update) = (now_seen, 0, seq.wrapping_add(1));
        match cmd {
            CMD_TRACE_ON => rec.on = true,
            CMD_TRACE_OFF => rec.on = false,
            _ => {}
        }
        // The record is queued before the pong leaves, so the server
        // finds it as soon as it has seen the pong.
        if records.send(record).is_err() || net.send_all(&encode_message(&pong)).is_err() {
            break;
        }
    }
    rec.spans
}

/// The server's transport with counters, and for the self-test one
/// byte flipped on its way to the wire.
struct Tap {
    inner: TcpTransport,
    sent: u64,
    send_calls: u64,
    would_block: u64,
    flip_at: Option<u64>,
}

impl Transport for Tap {
    fn try_send(&mut self, data: &[u8]) -> Result<usize, TransportError> {
        self.send_calls += 1;
        let n = match self.flip_at {
            Some(at) if (self.sent..self.sent + data.len() as u64).contains(&at) => {
                let mut damaged = data.to_vec();
                damaged[(at - self.sent) as usize] ^= 0x40;
                let n = self.inner.try_send(&damaged)?;
                if self.sent + n as u64 > at {
                    self.flip_at = None;
                }
                n
            }
            _ => self.inner.try_send(data)?,
        };
        if n == 0 {
            self.would_block += 1;
        }
        self.sent += n as u64;
        Ok(n)
    }

    fn try_recv(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        self.inner.try_recv(buf)
    }
}

/// Product and harness counters, read before and after the recorded pass.
#[derive(Clone, Copy)]
struct Counters {
    requests: u64,
    commands: u64,
    raw_fallback_bytes: u64,
    offscreen_queued: u64,
    messages: u64,
    merged: u64,
    evicted: u64,
    cache_refs: u64,
    cache_evictions: u64,
    cache_saved: u64,
    send_calls: u64,
    would_block: u64,
    flush_calls: u64,
    cache_inserts: u64,
}

pub struct SocketRig {
    ws: WindowServer<ThincServer>,
    net: Tap,
    pipe: TcpPipe,
    packets: PacketTrace,
    now: SimTime,
    up: FrameReader,
    seq: u32,
    clock: Clock,
    rec: Recorder,
    records: Receiver<FenceRecord>,
    viewer: Option<JoinHandle<Vec<Span>>>,
    inputs: SocketInputs,
    /// A fence timed out or the socket failed: the stream is wedged
    /// and every remaining update counts as failed.
    dead: bool,
    pass: Pass,
    flush_calls: u64,
    cache_inserts: u64,
    keep: Keep,
    primed: Vec<Vec<u8>>,
    recorded: Vec<Vec<u8>>,
    record_next: bool,
    /// Counters before and after the recorded pass.
    recorded_counters: Option<(Counters, Counters)>,
    idle_rtt_us: f64,
    /// The simulated display hardware on its own: a window server with
    /// no THINC driver, fed each traced pass's requests right after it.
    bare: Option<WindowServer<NullDriver>>,
    bare_ns: u64,
}

impl SocketRig {
    /// Session, handshake, prologue and one warm-up pass. `shadow`
    /// keeps state-bearing frames from the first byte on (traced runs).
    pub fn setup(inputs: SocketInputs, clock: Clock, shadow: bool) -> Self {
        let (listener, addr) =
            TcpTransport::listen("127.0.0.1:0".parse().expect("literal address"))
                .expect("bind a loopback listener");
        let (tx, records) = channel();
        let viewer = std::thread::spawn(move || {
            let net = TcpTransport::connect(addr).expect("connect to the server thread");
            viewer(net, clock, tx)
        });
        let inner = TcpTransport::accept(&listener).expect("accept the viewer");
        let ws = WindowServer::new(
            WIDTH,
            HEIGHT,
            FORMAT,
            ThincServer::new(ServerConfig::default()),
        );
        let mut rig = Self {
            ws,
            net: Tap {
                inner,
                sent: 0,
                send_calls: 0,
                would_block: 0,
                flip_at: None,
            },
            pipe: bench_pipe(),
            packets: PacketTrace::new(),
            now: SimTime::ZERO,
            up: FrameReader::new(),
            seq: 0,
            clock,
            rec: Recorder::new(clock),
            records,
            viewer: Some(viewer),
            inputs,
            dead: false,
            pass: Pass::default(),
            flush_calls: 0,
            cache_inserts: 0,
            keep: if shadow { Keep::State } else { Keep::Off },
            primed: Vec::new(),
            recorded: Vec::new(),
            record_next: false,
            recorded_counters: None,
            idle_rtt_us: 0.0,
            bare: shadow.then(|| WindowServer::new(WIDTH, HEIGHT, FORMAT, NullDriver)),
            bare_ns: 0,
        };
        if let Some(bare) = &mut rig.bare {
            bare.process_all(rig.inputs.prologue.clone());
        }
        rig.handshake();
        if rig.inputs.audio {
            rig.ws.driver_mut().open_audio(44_100, 2);
        }
        let prologue = rig.inputs.prologue.clone();
        rig.ws.process_all(prologue);
        rig.drain(0);
        rig.fence(CMD_UPDATE);
        rig.pass();
        rig
    }

    fn handshake(&mut self) {
        let deadline = Instant::now() + FENCE_TIMEOUT;
        let mut buf = [0u8; 256];
        let hello = loop {
            if let Ok(Some(msg)) = self.up.next_message() {
                break msg;
            }
            match self.net.try_recv(&mut buf) {
                Ok(0) if Instant::now() < deadline => std::thread::yield_now(),
                Ok(n) if n > 0 => self.up.feed(&buf[..n]),
                _ => panic!("no ClientHello from the viewer thread"),
            }
        };
        self.ws.driver_mut().handle_message(&hello);
        assert!(
            self.ws.driver().cache_enabled(),
            "handshake must land on revision 3 with the cache on"
        );
        let greeting = self.ws.driver().hello();
        let frame = self.ws.driver_mut().encode_frame(&greeting);
        self.net.send_all(&frame).expect("send ServerHello");
    }

    /// Arms the self-test's damage: flips one bit `offset` bytes past
    /// what has been sent so far.
    pub fn flip_byte_after(&mut self, offset: u64) {
        self.net.flip_at = Some(self.net.sent + offset);
    }

    /// Flushes until the server holds nothing, framing and sending
    /// every message.
    fn drain(&mut self, update: u32) {
        for _ in 0..100_000 {
            let f0 = self.rec.t();
            let batch = self
                .ws
                .driver_mut()
                .flush(self.now, &mut self.pipe, &mut self.packets);
            self.rec.span("core.flush", f0, update);
            self.flush_calls += 1;
            for (_, msg) in batch {
                let e0 = self.rec.t();
                let frame = self.ws.driver_mut().encode_frame(&msg);
                let s0 = self.rec.span("protocol.encode", e0, update);
                if self.net.send_all(&frame).is_err() {
                    self.dead = true;
                    return;
                }
                self.rec.span("net.send", s0, update);
                self.account(&msg, frame);
            }
            // The simulated link's packet log is of no use here.
            self.packets.clear();
            let driver = self.ws.driver();
            if driver.display_backlog() == 0 && driver.av_backlog() == 0 {
                return;
            }
            self.now = (self.now + SimDuration::from_micros(1)).max(self.pipe.tx_free_at());
        }
        panic!("the server's backlog did not drain");
    }

    fn account(&mut self, msg: &Message, frame: Vec<u8>) {
        self.pass.ship(&frame);
        let cacheable = matches!(
            msg,
            Message::Display(
                DisplayCommand::Raw { .. }
                    | DisplayCommand::Pfill { .. }
                    | DisplayCommand::Bitmap { .. }
            )
        );
        // `cache::cache_key` eligibility, judged on the revision-1 size.
        if cacheable
            && frame
                .len()
                .saturating_sub(INTEGRITY_HEADER_LEN - LEGACY_HEADER_LEN)
                >= CACHE_MIN_PAYLOAD
        {
            self.cache_inserts += 1;
        }
        let bulk = matches!(msg, Message::VideoData { .. } | Message::Audio { .. });
        match self.keep {
            Keep::All => self.recorded.push(frame),
            Keep::State if !bulk => self.primed.push(frame),
            _ => {}
        }
    }

    /// Sends a Ping fence and waits for its Pong; returns the viewer's
    /// record for it. `None` marks the stream dead.
    fn fence(&mut self, cmd: u64) -> Option<FenceRecord> {
        if self.dead {
            return None;
        }
        let seq = self.seq;
        self.seq += 1;
        let frame = self.ws.driver_mut().encode_frame(&Message::Ping {
            seq,
            timestamp_us: cmd,
        });
        let deadline = Instant::now() + FENCE_TIMEOUT;
        let mut buf = [0u8; 256];
        let mut answered = self.net.send_all(&frame).is_ok();
        let mut waiting = answered;
        while waiting {
            match self.net.try_recv(&mut buf) {
                Ok(0) if Instant::now() < deadline => std::thread::yield_now(),
                Ok(n) if n > 0 => {
                    self.up.feed(&buf[..n]);
                    while let Ok(Some(msg)) = self.up.next_message() {
                        if matches!(msg, Message::Pong { seq: s, .. } if s == seq) {
                            waiting = false;
                        }
                        self.ws.driver_mut().handle_message(&msg);
                    }
                }
                _ => (answered, waiting) = (false, false),
            }
        }
        let record = self
            .records
            .recv_timeout(Duration::from_millis(100))
            .ok()
            .filter(|r| answered && r.seq == seq);
        self.dead = record.is_none();
        record
    }

    fn update(&mut self, u: Update) {
        self.pass.updates += 1;
        if self.dead {
            self.pass.failed += 1;
            return;
        }
        self.now += SimDuration::from_millis(1);
        self.ws.driver_mut().set_time(self.now);
        let id = self.seq;
        let t0 = self.clock.ns();
        black_box(self.ws.process_all(u.reqs));
        if !u.pcm.is_empty() {
            self.ws.driver_mut().play_audio(&u.pcm);
        }
        self.rec.span("display.process", t0, id);
        self.drain(id);
        self.pass.server_ns += self.clock.ns() - t0;
        match self.fence(CMD_UPDATE) {
            Some(r) => {
                self.pass.failed += r.anomaly as u64;
                self.pass.client_ns += r.feed_ns;
                self.pass.latency_ns.push(r.applied_ns.saturating_sub(t0));
                if self.rec.on {
                    self.rec.spans.push(Span {
                        name: ROOT,
                        start: t0,
                        end: r.applied_ns,
                        update: id,
                    });
                }
            }
            None => self.pass.failed += 1,
        }
    }

    fn counters(&self) -> Counters {
        let s = self.ws.driver().stats();
        let r = self.ws.driver().resilience_metrics();
        Counters {
            requests: self.ws.stats().requests,
            commands: s.translator.raw
                + s.translator.copy
                + s.translator.sfill
                + s.translator.pfill
                + s.translator.bitmap,
            raw_fallback_bytes: s.translator.raw_fallback_bytes,
            offscreen_queued: s.translator.offscreen_queued,
            messages: s.buffer.sent_messages,
            merged: s.buffer.merged,
            evicted: s.buffer.evicted,
            cache_refs: r.cache_hits(),
            cache_evictions: r.cache_evictions(),
            cache_saved: r.cache_bytes_saved(),
            send_calls: self.net.send_calls,
            would_block: self.net.would_block,
            flush_calls: self.flush_calls,
            cache_inserts: self.cache_inserts,
        }
    }

    /// Median idle Ping→Pong round trip over the loopback socket.
    fn measure_idle_rtt(&mut self) {
        let rtts: Vec<f64> = (0..200)
            .filter_map(|_| {
                let t = Instant::now();
                self.fence(CMD_UPDATE)
                    .map(|_| t.elapsed().as_nanos() as f64 / 1e3)
            })
            .collect();
        self.idle_rtt_us = median(&rtts);
    }
}

impl Rig for SocketRig {
    fn pass(&mut self) -> Pass {
        let updates = self.inputs.updates.clone();
        let before = std::mem::take(&mut self.record_next).then(|| self.counters());
        if before.is_some() {
            self.keep = Keep::All;
        }
        self.pass = Pass::start();
        count_allocs(self.rec.on);
        let w0 = self.clock.ns();
        for u in updates {
            self.update(u);
        }
        self.pass.wall_ns = self.clock.ns() - w0;
        count_allocs(false);
        if let Some(bare) = self.bare.as_mut().filter(|_| self.rec.on) {
            // Next to the pass it is subtracted from, so both see the
            // same machine state.
            for u in self.inputs.updates.clone() {
                let t = Instant::now();
                black_box(bare.process_all(u.reqs));
                self.bare_ns += t.elapsed().as_nanos() as u64;
            }
        }
        if let Some(before) = before {
            self.keep = Keep::Off;
            self.recorded_counters = Some((before, self.counters()));
        }
        // Untimed: the viewer's framebuffer must equal the server's
        // screen byte for byte, or the whole pass failed.
        let exact = self
            .fence(CMD_SNAPSHOT)
            .and_then(|r| r.snapshot)
            .is_some_and(|fb| fb == self.ws.screen().data());
        if !exact {
            self.pass.failed = self.pass.updates;
        }
        std::mem::take(&mut self.pass)
    }

    fn set_trace(&mut self, on: bool) {
        if on && self.idle_rtt_us == 0.0 {
            self.measure_idle_rtt();
        }
        self.fence(if on { CMD_TRACE_ON } else { CMD_TRACE_OFF });
        self.rec.on = on;
    }

    fn record_next_pass(&mut self) {
        self.record_next = true;
    }

    fn finish(self: Box<Self>, traced_updates: u64) -> Traced {
        let SocketRig {
            net,
            viewer,
            rec,
            inputs,
            primed,
            recorded,
            recorded_counters,
            idle_rtt_us,
            bare_ns,
            ..
        } = *self;
        // Closing the socket ends the viewer's loop.
        drop(net);
        let mut spans = rec.spans;
        if let Some(handle) = viewer {
            spans.extend(handle.join().expect("viewer thread panicked"));
        }
        let mut layers = Values::new();
        let Some((before, after)) = recorded_counters else {
            return Traced { spans, layers };
        };
        let delta = |field: fn(&Counters) -> u64| field(&after) - field(&before);
        let mut shadow = Shadow::new(WIDTH, HEIGHT);
        primed.iter().for_each(|f| shadow.prime(f));
        recorded.iter().for_each(|f| shadow.replay(f));
        let t = shadow.totals;

        let sum = summarize(&spans);
        let n = traced_updates.max(1) as f64;
        let r = inputs.updates.len().max(1) as f64;
        let span_us = |name: &str| sum.by_name.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
        let us = |ns: u64| ns as f64 / 1e3 / r;
        let kb = |bytes: u64| bytes as f64 / 1024.0 / r;
        let per = |count: u64| count as f64 / r;

        let process_us = span_us("display.process");
        let flush_us = span_us("core.flush");
        let feed_us = span_us("client.feed");
        let apply_us = us(t.apply_ns.iter().sum());
        layers.insert("display.process_us", process_us);
        let raster_us = bare_ns as f64 / 1e3 / n;
        layers.insert("display.raster_us", raster_us);
        layers.insert("display.requests", per(delta(|c| c.requests)));
        layers.insert("core.translator.enqueue_us", process_us - raster_us);
        layers.insert("core.translator.commands", per(delta(|c| c.commands)));
        layers.insert(
            "core.translator.raw_fallback_kb",
            kb(delta(|c| c.raw_fallback_bytes)),
        );
        layers.insert(
            "core.translator.offscreen_queued",
            per(delta(|c| c.offscreen_queued)),
        );
        layers.insert("core.buffer.flush_us", flush_us);
        layers.insert("core.buffer.sched_us", flush_us - us(t.enc_ns));
        layers.insert("core.buffer.flush_calls", per(delta(|c| c.flush_calls)));
        layers.insert("core.buffer.messages", per(delta(|c| c.messages)));
        layers.insert("core.buffer.merged", per(delta(|c| c.merged)));
        layers.insert("core.buffer.evicted", per(delta(|c| c.evicted)));
        layers.insert("compress.encode_us", us(t.enc_ns));
        layers.insert("compress.encode_mb_s", mb_per_s(t.raw_bytes, t.enc_ns));
        layers.insert("compress.decode_us", us(t.dec_ns));
        layers.insert("compress.raw_kb", kb(t.raw_bytes));
        layers.insert("compress.ratio", ratio(t.packed_bytes, t.raw_bytes));
        layers.insert("protocol.wire.encode_us", span_us("protocol.encode"));
        layers.insert("protocol.wire.crc_us", us(t.crc_ns));
        layers.insert("protocol.wire.decode_us", us(t.decode_ns));
        layers.insert("protocol.wire.frames", per(t.frames));
        layers.insert("protocol.wire.raw_share", ratio(t.raw_frame_bytes, t.bytes));
        layers.insert("protocol.cache.refs", per(delta(|c| c.cache_refs)));
        layers.insert("protocol.cache.inserts", per(delta(|c| c.cache_inserts)));
        layers.insert(
            "protocol.cache.evictions",
            per(delta(|c| c.cache_evictions)),
        );
        layers.insert(
            "protocol.cache.hit_ratio",
            ratio(
                delta(|c| c.cache_refs),
                delta(|c| c.cache_refs) + delta(|c| c.cache_inserts),
            ),
        );
        layers.insert("protocol.cache.saved_kb", kb(delta(|c| c.cache_saved)));
        layers.insert("net.send_us", span_us("net.send"));
        layers.insert("net.recv_us", span_us("net.recv"));
        layers.insert("net.send_calls", per(delta(|c| c.send_calls)));
        layers.insert("net.would_block", per(delta(|c| c.would_block)));
        layers.insert("net.fence_rtt_us", idle_rtt_us);
        layers.insert("client.feed_us", feed_us);
        layers.insert("client.stream_us", feed_us - apply_us);
        layers.insert("client.apply_us", apply_us);
        insert_apply_buckets(&mut layers, &t.apply_ns, r);
        Traced { spans, layers }
    }
}
