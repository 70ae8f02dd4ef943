//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is
//! generated from these tables (`run.sh --manifest`), so the names,
//! units and bounds the driver reads are the ones the binary prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "web",
        why: "54 web pages at 1024x768: every layer works, RAW compression dominates image pages, text pages are pure semantic commands",
    },
    Workload {
        name: "video",
        why: "352x240 YV12 clip plus audio: byte-heavy, bypasses translate/queue/codec, so framing+CRC, the socket and client YUV conversion set the cost",
    },
    Workload {
        name: "desktop",
        why: "typing and scrolling a text document: smallest messages, per-message overhead and the loopback floor dominate, nothing is compressed",
    },
    Workload {
        name: "winswitch",
        why: "revisiting 8 hot windows with every 4th switch a cold one: reads of the content cache beside inserts and evictions against its 4 MiB budget",
    },
    Workload {
        name: "fanout",
        why: "one shared 1024x768 session delivered to 256 viewers (every 4th scaled): session, shard, plane and per-viewer framing do the work, the codec little",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every end-to-end metric is better when lower. A bound is at least
/// three times the widest spread (quartile distance over median) seen
/// over ten seeds on any workload, where a bound of at most 0.25 allows
/// that; README.md has the measured spreads behind each.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "update_mean_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "update_p90_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "server_ms_per_update",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "client_ms_per_update",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_kb_per_update",
        unit: "KB",
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: "higher",
    }
}

/// Per update unless the name says otherwise.
pub const PER_LAYER: [Layer; 59] = [
    lower("display.process_us", "us"),
    lower("display.raster_us", "us"),
    lower("display.requests", "count"),
    lower("core.translator.enqueue_us", "us"),
    lower("core.translator.commands", "count"),
    lower("core.translator.raw_fallback_kb", "KB"),
    higher("core.translator.offscreen_queued", "count"),
    lower("core.buffer.flush_us", "us"),
    lower("core.buffer.sched_us", "us"),
    lower("core.buffer.flush_calls", "count"),
    lower("core.buffer.messages", "count"),
    higher("core.buffer.merged", "count"),
    higher("core.buffer.evicted", "count"),
    lower("compress.encode_us", "us"),
    higher("compress.encode_mb_s", "MB/s"),
    lower("compress.decode_us", "us"),
    lower("compress.raw_kb", "KB"),
    lower("compress.ratio", "ratio"),
    lower("protocol.wire.encode_us", "us"),
    lower("protocol.wire.crc_us", "us"),
    lower("protocol.wire.decode_us", "us"),
    lower("protocol.wire.frames", "count"),
    lower("protocol.wire.raw_share", "ratio"),
    higher("protocol.cache.refs", "count"),
    lower("protocol.cache.inserts", "count"),
    lower("protocol.cache.evictions", "count"),
    higher("protocol.cache.hit_ratio", "ratio"),
    higher("protocol.cache.saved_kb", "KB"),
    lower("net.send_us", "us"),
    lower("net.recv_us", "us"),
    lower("net.send_calls", "count"),
    lower("net.would_block", "count"),
    lower("net.fence_rtt_us", "us"),
    lower("client.feed_us", "us"),
    lower("client.stream_us", "us"),
    lower("client.apply_us", "us"),
    lower("client.apply.raw_us", "us"),
    lower("client.apply.copy_us", "us"),
    lower("client.apply.sfill_us", "us"),
    lower("client.apply.pfill_us", "us"),
    lower("client.apply.bitmap_us", "us"),
    lower("client.apply.video_us", "us"),
    lower("core.session.draw_us", "us"),
    lower("core.session.lookup_ns", "ns"),
    lower("core.session.attach_us", "us"),
    lower("core.session.checkpoint_ms", "ms"),
    lower("core.session.restore_ms", "ms"),
    lower("core.shard.flush_epoch_us", "us"),
    lower("core.shard.flush_us_per_viewer", "us"),
    higher("core.plane.hit_ratio", "ratio"),
    lower("core.plane.encodes", "count"),
    higher("core.plane.amortized_kb", "KB"),
    lower("core.scaling.refresh_us", "us"),
    lower("alloc.count_per_update", "count"),
    lower("alloc.kb_per_update", "KB"),
    lower("bench.trace_overhead_pct", "%"),
    lower("bench.unattributed_pct", "%"),
    lower("bench.update_p50_ms", "ms"),
    lower("bench.update_p99_ms", "ms"),
];

/// Measured values by metric name. A per-layer metric a workload does
/// not exercise is simply absent (printed `n/a`, reported as 0).
pub type Values = BTreeMap<&'static str, f64>;

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 10;

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}
