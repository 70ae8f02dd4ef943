//! The fan-out pipeline, in-process and without sockets: one shared
//! 1024x768 session under a `ShardedManager`, 256 viewers (every 4th a
//! 320x240 scaled one), each viewer's stream framed by its own
//! `FrameEncoder`, two of them (one per class) real `StreamClient`s.

use std::hint::black_box;
use std::time::Instant;

use thinc_client::{StreamClient, ThincClient};
use thinc_core::session::ClientId;
use thinc_core::{Credentials, ScalePolicy, ShardedManager, SharedSession};
use thinc_display::{DrawableStore, VideoDriver, SCREEN};
use thinc_net::{PacketTrace, SimDuration, SimTime};
use thinc_protocol::wire::{encode_message, FrameEncoder};
use thinc_protocol::{DisplayCommand, Message, RawEncoding, PROTOCOL_VERSION};
use thinc_raster::Rect;

use crate::inputs::{Epoch, HEIGHT, WIDTH};
use crate::metrics::Values;
use crate::replay::{insert_apply_buckets, Shadow, Totals, FORMAT};
use crate::rig::{anomalies, bench_pipe, Keep, Pass, Rig, Traced};
use crate::stats::{count_allocs, mb_per_s, median, ratio};
use crate::trace::{summarize, Clock, Recorder, Span, ROOT};

pub const VIEWERS: usize = 256;
const SHARDS: usize = 2;
const SCALED: (u32, u32) = (320, 240);
/// Viewer 0 is full size, viewer 3 is scaled; both are real clients.
const PROBES: [usize; 2] = [0, 3];

fn viewport(viewer: usize) -> (u32, u32) {
    if viewer % 4 == 3 {
        SCALED
    } else {
        (WIDTH, HEIGHT)
    }
}

/// Worker threads for the session's flush pool.
fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

struct Probe {
    viewer: usize,
    stream: StreamClient,
    primed: Vec<Vec<u8>>,
    recorded: Vec<Vec<u8>>,
}

pub struct FanoutRig {
    manager: ShardedManager,
    store: DrawableStore,
    ids: Vec<ClientId>,
    encoders: Vec<FrameEncoder>,
    probes: Vec<Probe>,
    now: SimTime,
    clock: Clock,
    rec: Recorder,
    epochs: Vec<Epoch>,
    update: u32,
    pass: Pass,
    /// Time the probes spent in `feed` during the current update.
    feed_ns: u64,
    frames: u64,
    /// Roster scans made with spans on.
    scans: u64,
    /// Which of the probes' frames are kept for the replay.
    keep: Keep,
    record_next: bool,
    recorded_frames: u64,
    /// Plane counters before and after the recorded pass.
    recorded_plane: Option<(thinc_core::PlaneCounters, thinc_core::PlaneCounters)>,
    attach_us: f64,
}

impl FanoutRig {
    /// Session, 256 attaches, the initial refresh and one warm-up pass.
    pub fn setup(epochs: Vec<Epoch>, clock: Clock, shadow: bool) -> Self {
        let mut session = SharedSession::new(WIDTH, HEIGHT, FORMAT, "host").with_workers(workers());
        session.auth_mut().enable_sharing("pw");
        let mut manager = ShardedManager::new(session, SHARDS);
        let t = Instant::now();
        for v in 0..VIEWERS {
            let creds = if v == 0 {
                Credentials::Owner {
                    user: "host".into(),
                }
            } else {
                Credentials::Peer {
                    user: format!("v{v}"),
                    password: "pw".into(),
                }
            };
            let (w, h) = viewport(v);
            manager
                .attach(&creds, w, h, (bench_pipe(), PacketTrace::new()))
                .expect("attach a viewer");
        }
        let attach_us = t.elapsed().as_nanos() as f64 / 1e3 / VIEWERS as f64;
        let ids = manager.session().client_ids();
        assert!(
            ids.iter().enumerate().all(|(i, id)| id.0 as usize == i),
            "client ids are dense"
        );
        let hello = encode_message(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: WIDTH,
            height: HEIGHT,
            depth: 24,
        });
        let probes = PROBES
            .iter()
            .map(|&viewer| {
                let (w, h) = viewport(viewer);
                let mut stream = StreamClient::new(w, h, FORMAT);
                stream.feed(&hello);
                Probe {
                    viewer,
                    stream,
                    primed: Vec::new(),
                    recorded: Vec::new(),
                }
            })
            .collect();
        let mut rig = Self {
            manager,
            store: DrawableStore::new(WIDTH, HEIGHT, FORMAT),
            ids,
            encoders: (0..VIEWERS)
                .map(|_| FrameEncoder::with_revision(PROTOCOL_VERSION))
                .collect(),
            probes,
            now: SimTime::ZERO,
            clock,
            rec: Recorder::new(clock),
            epochs,
            update: 0,
            pass: Pass::default(),
            feed_ns: 0,
            frames: 0,
            scans: 0,
            keep: if shadow { Keep::State } else { Keep::Off },
            record_next: false,
            recorded_frames: 0,
            recorded_plane: None,
            attach_us,
        };
        // Every fresh attach is owed the full view.
        rig.manager
            .session_mut()
            .repay_refreshes(rig.store.screen());
        rig.deliver();
        rig.pass();
        rig
    }

    /// Flush epochs until no viewer has anything pending; every
    /// viewer's messages are framed, the probes' frames are fed.
    fn deliver(&mut self) {
        let id = self.update;
        for _ in 0..100_000 {
            self.now += SimDuration::from_millis(1);
            let f0 = self.rec.t();
            let out = self.manager.flush_epoch(self.now);
            self.rec.span("core.shard.flush_epoch", f0, id);
            for (client, msgs) in out {
                let viewer = client.0 as usize;
                let probe = self.probes.iter_mut().find(|p| p.viewer == viewer);
                let e0 = self.rec.t();
                let mut frames = Vec::with_capacity(msgs.len());
                for (_, msg) in &msgs {
                    let frame = self.encoders[viewer].encode(msg);
                    self.pass.ship(&frame);
                    frames.push(frame);
                }
                self.frames += frames.len() as u64;
                self.rec.span("protocol.encode", e0, id);
                let Some(probe) = probe else {
                    black_box(&frames);
                    continue;
                };
                let c0 = self.clock.ns();
                for frame in &frames {
                    probe.stream.feed(frame);
                }
                let c1 = self.clock.ns();
                self.feed_ns += c1 - c0;
                if self.rec.on {
                    self.rec.spans.push(Span {
                        name: "client.feed",
                        start: c0,
                        end: c1,
                        update: id,
                    });
                }
                match self.keep {
                    Keep::All => probe.recorded.extend(frames),
                    Keep::State => probe.primed.extend(frames),
                    Keep::Off => {}
                }
            }
            for &client in &self.ids {
                if let Some((_, packets)) = self.manager.link_mut(client) {
                    packets.clear();
                }
            }
            let s0 = self.rec.t();
            let session = self.manager.session();
            let drained = self.ids.iter().all(|&c| session.backlog(c) == 0);
            self.rec.span("core.session.lookup", s0, id);
            self.scans += self.rec.on as u64;
            if drained {
                return;
            }
        }
        panic!("the session's backlog did not drain");
    }

    fn epoch(&mut self, index: usize) {
        self.update += 1;
        let id = self.update;
        self.feed_ns = 0;
        let seen: Vec<u64> = self.probes.iter().map(|p| anomalies(&p.stream)).collect();
        let t0 = self.clock.ns();
        // Each operation is rasterized into the screen (the simulated
        // display hardware), then handed to the session's driver.
        let e = &self.epochs[index];
        let session = self.manager.session_mut();
        let mut t = self.rec.t();
        self.store.screen_mut().put_raw(&e.tile_rect, &e.tile);
        t = self.rec.span("display.raster", t, id);
        session.put_image(&self.store, SCREEN, e.tile_rect, &e.tile);
        t = self.rec.span("core.session.draw", t, id);
        self.store
            .screen_mut()
            .fill_rect(&e.fill_rect, e.fill_color);
        t = self.rec.span("display.raster", t, id);
        session.solid_fill(&self.store, SCREEN, e.fill_rect, e.fill_color);
        t = self.rec.span("core.session.draw", t, id);
        if let Some((src, x, y)) = e.copy {
            self.store.screen_mut().copy_rect(&src, x, y);
            t = self.rec.span("display.raster", t, id);
            session.copy_area(&self.store, SCREEN, SCREEN, src, x, y);
            self.rec.span("core.session.draw", t, id);
        }
        self.deliver();
        let t1 = self.clock.ns();
        self.pass.updates += 1;
        self.pass.latency_ns.push(t1 - t0);
        self.pass.server_ns += t1 - t0 - self.feed_ns;
        self.pass.client_ns += self.feed_ns / self.probes.len() as u64;
        if self.rec.on {
            self.rec.spans.push(Span {
                name: ROOT,
                start: t0,
                end: t1,
                update: id,
            });
        }
        let damaged = self
            .probes
            .iter()
            .zip(seen)
            .any(|(p, before)| anomalies(&p.stream) != before || p.stream.needs_refresh());
        self.pass.failed += damaged as u64;
    }

    /// Untimed, at the end of a pass: the full-size probe must equal
    /// the screen byte for byte; the scaled probe is resynced and must
    /// equal the screen pushed through its scale policy in one shot
    /// (the contract the chaos runner holds scaled viewers to).
    fn probes_exact(&mut self) -> bool {
        let scaled = ClientId(PROBES[1] as u32);
        self.manager
            .session_mut()
            .resync_client(scaled, self.store.screen());
        let (pass, on) = (
            std::mem::take(&mut self.pass),
            std::mem::replace(&mut self.rec.on, false),
        );
        self.deliver();
        (self.pass, self.rec.on) = (pass, on);
        let screen = self.store.screen();
        let mut reference = ThincClient::new(SCALED.0, SCALED.1, FORMAT);
        if let Some(cmd) = ScalePolicy::new(WIDTH, HEIGHT, SCALED.0, SCALED.1)
            .transform(&full_screen_raw(screen), screen)
        {
            reference.apply(&Message::Display(cmd));
        }
        self.probes[0].stream.client().framebuffer().data() == screen.data()
            && self.probes[1].stream.client().framebuffer().data() == reference.framebuffer().data()
    }
}

fn full_screen_raw(screen: &thinc_raster::Framebuffer) -> DisplayCommand {
    let (rect, data) = screen.get_raw(&Rect::new(0, 0, WIDTH, HEIGHT));
    DisplayCommand::Raw {
        rect,
        encoding: RawEncoding::None,
        data: data.into(),
    }
}

impl Rig for FanoutRig {
    fn pass(&mut self) -> Pass {
        let recording = std::mem::take(&mut self.record_next);
        if recording {
            self.keep = Keep::All;
        }
        let plane_before = self.manager.session().fanout_counters();
        let frames_before = self.frames;
        self.pass = Pass::start();
        count_allocs(self.rec.on);
        let w0 = self.clock.ns();
        for index in 0..self.epochs.len() {
            self.epoch(index);
        }
        self.pass.wall_ns = self.clock.ns() - w0;
        count_allocs(false);
        if recording {
            self.keep = Keep::Off;
            self.recorded_frames = self.frames - frames_before;
            self.recorded_plane = Some((plane_before, self.manager.session().fanout_counters()));
        }
        if !self.probes_exact() {
            self.pass.failed = self.pass.updates;
        }
        std::mem::take(&mut self.pass)
    }

    fn set_trace(&mut self, on: bool) {
        self.rec.on = on;
    }

    fn record_next_pass(&mut self) {
        self.record_next = true;
    }

    fn finish(self: Box<Self>, traced_updates: u64) -> Traced {
        let rig = *self;
        let spans = rig.rec.spans;
        let mut layers = Values::new();
        let Some((plane_before, plane_after)) = rig.recorded_plane else {
            return Traced { spans, layers };
        };
        // One shadow viewer per class: [full size, scaled].
        let totals: Vec<Totals> = rig
            .probes
            .iter()
            .map(|p| {
                let (w, h) = viewport(p.viewer);
                let mut shadow = Shadow::new(w, h);
                p.primed.iter().for_each(|f| shadow.prime(f));
                p.recorded.iter().for_each(|f| shadow.replay(f));
                shadow.totals
            })
            .collect();
        let class_size = |viewer: usize| {
            (0..VIEWERS)
                .filter(|&v| viewport(v) == viewport(viewer))
                .count() as u64
        };
        let sizes: Vec<u64> = rig.probes.iter().map(|p| class_size(p.viewer)).collect();
        // A cost every viewer of a class pays: probe's cost x class size.
        let all_viewers = |f: fn(&Totals) -> u64| {
            totals
                .iter()
                .zip(&sizes)
                .map(|(t, n)| f(t) * n)
                .sum::<u64>()
        };
        // A cost paid once per class (the plane encodes once).
        let per_class = |f: fn(&Totals) -> u64| totals.iter().map(f).sum::<u64>();
        // A cost one viewer pays: mean of the probes.
        let per_probe = |f: fn(&Totals) -> u64| per_class(f) / totals.len() as u64;

        let session = rig.manager.session();
        let screen = rig.store.screen();
        let t = Instant::now();
        let image = session.checkpoint(screen);
        let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        black_box(SharedSession::restore(&image).expect("restore the checkpoint just taken"));
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        let policy = ScalePolicy::new(WIDTH, HEIGHT, SCALED.0, SCALED.1);
        let full = full_screen_raw(screen);
        let refresh_us: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                black_box(policy.transform(&full, screen));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();

        let sum = summarize(&spans);
        let n = traced_updates.max(1) as f64;
        let r = rig.epochs.len().max(1) as f64;
        let span_ns = |name: &str| sum.by_name.get(name).copied().unwrap_or(0) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / r;
        let flush_epoch_us = span_ns("core.shard.flush_epoch") / 1e3 / n;
        let feed_us = span_ns("client.feed") / 1e3 / n / totals.len() as f64;
        let apply_ns: [u64; 7] = std::array::from_fn(|b| {
            totals.iter().map(|t| t.apply_ns[b]).sum::<u64>() / totals.len() as u64
        });
        let apply_us = us(apply_ns.iter().sum());
        let (enc_ns, raw_bytes) = (per_class(|t| t.enc_ns), per_class(|t| t.raw_bytes));
        let plane = thinc_core::PlaneCounters {
            shared_sends: plane_after.shared_sends - plane_before.shared_sends,
            shared_bytes: plane_after.shared_bytes - plane_before.shared_bytes,
            encodes: plane_after.encodes - plane_before.encodes,
            encoded_bytes: plane_after.encoded_bytes - plane_before.encoded_bytes,
        };
        layers.insert("display.raster_us", span_ns("display.raster") / 1e3 / n);
        layers.insert(
            "display.requests",
            rig.epochs
                .iter()
                .map(|e| 2 + e.copy.is_some() as usize)
                .sum::<usize>() as f64
                / r,
        );
        layers.insert("compress.encode_us", us(enc_ns));
        layers.insert("compress.encode_mb_s", mb_per_s(raw_bytes, enc_ns));
        layers.insert("compress.decode_us", us(per_probe(|t| t.dec_ns)));
        layers.insert("compress.raw_kb", raw_bytes as f64 / 1024.0 / r);
        layers.insert(
            "compress.ratio",
            ratio(per_class(|t| t.packed_bytes), raw_bytes),
        );
        layers.insert(
            "protocol.wire.encode_us",
            span_ns("protocol.encode") / 1e3 / n,
        );
        layers.insert("protocol.wire.crc_us", us(all_viewers(|t| t.crc_ns)));
        layers.insert("protocol.wire.decode_us", us(per_probe(|t| t.decode_ns)));
        layers.insert("protocol.wire.frames", rig.recorded_frames as f64 / r);
        layers.insert(
            "protocol.wire.raw_share",
            ratio(all_viewers(|t| t.raw_frame_bytes), all_viewers(|t| t.bytes)),
        );
        layers.insert("client.feed_us", feed_us);
        layers.insert("client.stream_us", feed_us - apply_us);
        layers.insert("client.apply_us", apply_us);
        insert_apply_buckets(&mut layers, &apply_ns, r);
        layers.insert(
            "core.session.draw_us",
            span_ns("core.session.draw") / 1e3 / n,
        );
        layers.insert(
            "core.session.lookup_ns",
            span_ns("core.session.lookup") / (rig.scans.max(1) * VIEWERS as u64) as f64,
        );
        layers.insert("core.session.attach_us", rig.attach_us);
        layers.insert("core.session.checkpoint_ms", checkpoint_ms);
        layers.insert("core.session.restore_ms", restore_ms);
        layers.insert("core.shard.flush_epoch_us", flush_epoch_us);
        layers.insert(
            "core.shard.flush_us_per_viewer",
            flush_epoch_us / VIEWERS as f64,
        );
        layers.insert("core.plane.hit_ratio", plane.hit_ratio());
        layers.insert("core.plane.encodes", plane.encodes as f64 / r);
        layers.insert(
            "core.plane.amortized_kb",
            plane.bytes_amortized() as f64 / 1024.0 / r,
        );
        layers.insert("core.scaling.refresh_us", median(&refresh_us));
        Traced { spans, layers }
    }
}
