//! Regenerates the tables and figures of the THINC paper (§8).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p thinc-bench --bin figures -- --all
//! cargo run --release -p thinc-bench --bin figures -- --fig 2 [--pages N] [--clip-ms M]
//! cargo run --release -p thinc-bench --bin figures -- --fig telemetry --jsonl trace.jsonl
//! ```
//!
//! Absolute numbers come from a simulation, not the authors' 2005
//! testbed; the *shape* of each figure (who wins, by what factor,
//! where the crossovers are) is the reproduction target. See
//! `EXPERIMENTS.md`.

use thinc_baselines::{GoToMyPc, LocalPc, Nx, RdpClass, RemoteDisplay, SunRay, Vnc, XSystem};
use thinc_bench::avbench::{run_av, AvResult};
use thinc_bench::report::{kb, mb, pct, secs, table};
use thinc_bench::sites::remote_sites;
use thinc_bench::thinc_system::ThincSystem;
use thinc_bench::webbench::{run_web, WebResult};
use thinc_chaos::expect::SlotCounters;
use thinc_chaos::invariant::RunReport;
use thinc_chaos::{run, schedule_from_json, ChaosEvent, Schedule};
use thinc_net::link::NetworkConfig;
use thinc_raster::Rect;
use thinc_telemetry::{BufferStats, PlaneCounters, ResilienceMetrics};
use thinc_workloads::video::{AudioTrack, VideoClip};
use thinc_workloads::web::WebWorkload;

const W: u32 = 1024;
const H: u32 = 768;
const PDA_W: u32 = 320;
const PDA_H: u32 = 240;

struct Options {
    pages: usize,
    clip_ms: u64,
}

fn desktop_systems(net: &NetworkConfig) -> Vec<Box<dyn RemoteDisplay>> {
    vec![
        Box::new(LocalPc::new(W, H)),
        Box::new(ThincSystem::new(net, W, H)),
        Box::new(SunRay::new(net, W, H)),
        Box::new(Vnc::new(net, W, H)),
        Box::new(XSystem::new(net, W, H)),
        Box::new(Nx::new(net, W, H)),
        Box::new(RdpClass::rdp(net, W, H)),
        Box::new(RdpClass::ica(net, W, H)),
        Box::new(GoToMyPc::new(net, W, H)),
    ]
}

fn pda_web_systems(net: &NetworkConfig) -> Vec<Box<dyn RemoteDisplay>> {
    vec![
        Box::new(ThincSystem::with_viewport(net, W, H, PDA_W, PDA_H)),
        Box::new(Vnc::with_viewport(net, W, H, Some((PDA_W, PDA_H)))),
        Box::new(RdpClass::rdp(net, W, H).with_viewport(PDA_W, PDA_H)),
        Box::new(RdpClass::ica(net, W, H).with_viewport(PDA_W, PDA_H)),
        // GoToMyPC's smallest supported client display is 640x480.
        Box::new(GoToMyPc::with_viewport(net, W, H, Some((640, 480)))),
    ]
}

/// Figure 5/6 report 802.11g PDA results only for ICA, RDP, GoToMyPC
/// and THINC (VNC's clipping is meaningless for video, §8.3).
fn pda_av_systems(net: &NetworkConfig) -> Vec<Box<dyn RemoteDisplay>> {
    vec![
        Box::new(ThincSystem::with_viewport(net, W, H, PDA_W, PDA_H)),
        Box::new(RdpClass::rdp(net, W, H).with_viewport(PDA_W, PDA_H)),
        Box::new(RdpClass::ica(net, W, H).with_viewport(PDA_W, PDA_H)),
        Box::new(GoToMyPc::with_viewport(net, W, H, Some((640, 480)))),
    ]
}

fn web_config(
    label: &str,
    systems: Vec<Box<dyn RemoteDisplay>>,
    opts: &Options,
) -> Vec<(String, WebResult)> {
    let wl = WebWorkload::standard();
    systems
        .into_iter()
        .map(|mut sys| {
            eprintln!("  [{label}] web: {}", sys.name());
            let res = run_web(sys.as_mut(), &wl, opts.pages);
            (format!("{} ({label})", res.system), res)
        })
        .collect()
}

fn av_config(
    label: &str,
    systems: Vec<Box<dyn RemoteDisplay>>,
    opts: &Options,
) -> Vec<(String, AvResult)> {
    let clip = VideoClip::short(opts.clip_ms);
    let audio = AudioTrack {
        duration_ms: opts.clip_ms,
        ..AudioTrack::benchmark()
    };
    let dst = Rect::new(0, 0, W, H);
    systems
        .into_iter()
        .map(|mut sys| {
            eprintln!("  [{label}] a/v: {}", sys.name());
            let res = run_av(sys.as_mut(), &clip, Some(&audio), dst);
            (format!("{} ({label})", res.system), res)
        })
        .collect()
}

fn fig2_and_3(opts: &Options) -> (String, String) {
    let mut all: Vec<(String, WebResult)> = Vec::new();
    all.extend(web_config("LAN", desktop_systems(&NetworkConfig::lan_desktop()), opts));
    all.extend(web_config("WAN", desktop_systems(&NetworkConfig::wan_desktop()), opts));
    all.extend(web_config("PDA", pda_web_systems(&NetworkConfig::pda_802_11g()), opts));
    let lat_rows: Vec<Vec<String>> = all
        .iter()
        .map(|(name, r)| {
            vec![
                name.clone(),
                secs(r.avg_latency_s),
                r.avg_latency_with_client_s
                    .map(secs)
                    .unwrap_or_else(|| "n/a".into()),
            ]
        })
        .collect();
    let fig2 = table(
        "Figure 2: Web Benchmark — Average Page Latency",
        &["System (config)", "Latency", "w/ client processing"],
        &lat_rows,
    );
    let data_rows: Vec<Vec<String>> = all
        .iter()
        .map(|(name, r)| vec![name.clone(), kb(r.avg_page_kb)])
        .collect();
    let fig3 = table(
        "Figure 3: Web Benchmark — Average Page Data Transferred",
        &["System (config)", "Data/page"],
        &data_rows,
    );
    (fig2, fig3)
}

fn fig4(opts: &Options) -> String {
    let wl = WebWorkload::standard();
    let mut rows = Vec::new();
    // LAN testbed reference first.
    let mut lan = ThincSystem::new(&NetworkConfig::lan_desktop(), W, H);
    eprintln!("  [sites] web: LAN reference");
    let lan_res = run_web(&mut lan, &wl, opts.pages);
    rows.push(vec![
        "LAN".into(),
        "(testbed)".into(),
        "0.2 ms".into(),
        secs(lan_res.avg_latency_s),
    ]);
    for site in remote_sites() {
        eprintln!("  [sites] web: {}", site.name);
        let mut sys = ThincSystem::new(&site.network(), W, H);
        let res = run_web(&mut sys, &wl, opts.pages);
        rows.push(vec![
            site.name.into(),
            site.location.into(),
            format!("{:.0} ms", site.rtt().as_secs_f64() * 1000.0),
            secs(res.avg_latency_s),
        ]);
    }
    table(
        "Figure 4: Web Benchmark — THINC Average Page Latency Using Remote Sites",
        &["Site", "Location", "RTT", "Latency"],
        &rows,
    )
}

fn fig5_and_6(opts: &Options) -> (String, String) {
    let mut all: Vec<(String, AvResult)> = Vec::new();
    all.extend(av_config("LAN", desktop_systems(&NetworkConfig::lan_desktop()), opts));
    all.extend(av_config("WAN", desktop_systems(&NetworkConfig::wan_desktop()), opts));
    all.extend(av_config("PDA", pda_av_systems(&NetworkConfig::pda_802_11g()), opts));
    let q_rows: Vec<Vec<String>> = all
        .iter()
        .map(|(name, r)| {
            vec![
                name.clone(),
                pct(r.quality),
                format!("{}/{}", r.frames.0, r.frames.0 + r.frames.1),
                if r.audio { "yes".into() } else { "video-only".into() },
            ]
        })
        .collect();
    let fig5 = table(
        "Figure 5: A/V Benchmark — A/V Quality",
        &["System (config)", "Quality", "Frames", "Audio"],
        &q_rows,
    );
    let d_rows: Vec<Vec<String>> = all
        .iter()
        .map(|(name, r)| vec![name.clone(), mb(r.data_mb)])
        .collect();
    let fig6 = table(
        "Figure 6: A/V Benchmark — Total Data Transferred",
        &["System (config)", "Data"],
        &d_rows,
    );
    (fig5, fig6)
}

fn fig7(opts: &Options) -> String {
    let clip = VideoClip::short(opts.clip_ms);
    let audio = AudioTrack {
        duration_ms: opts.clip_ms,
        ..AudioTrack::benchmark()
    };
    let dst = Rect::new(0, 0, W, H);
    let mut rows = Vec::new();
    for site in remote_sites() {
        eprintln!("  [sites] a/v: {}", site.name);
        let mut sys = ThincSystem::new(&site.network(), W, H);
        let res = run_av(&mut sys, &clip, Some(&audio), dst);
        rows.push(vec![
            site.name.into(),
            site.location.into(),
            pct(res.quality),
            format!("{:.0}%", site.relative_bandwidth() * 100.0),
        ]);
    }
    table(
        "Figure 7: A/V Benchmark — THINC A/V Quality Using Remote Sites",
        &["Site", "Location", "A/V Quality", "Rel. bandwidth"],
        &rows,
    )
}

/// Formats one session's per-command breakdown, sourced entirely
/// from `thinc-telemetry`: counts straight off the groups, derived
/// figures from the snapshot.
fn breakdown_table(title: &str, t: &thinc_telemetry::SessionTelemetry) -> String {
    let snap = t.snapshot();
    let mut rows: Vec<Vec<String>> = snap
        .commands
        .iter()
        .map(|r| {
            vec![
                r.kind.name().to_string(),
                r.count.to_string(),
                kb(r.bytes as f64 / 1024.0),
                pct(r.share),
            ]
        })
        .collect();
    rows.push(vec![
        "total".into(),
        snap.total_messages.to_string(),
        kb(snap.total_bytes as f64 / 1024.0),
        pct(1.0),
    ]);
    let mut out = table(title, &["Command", "Count", "Wire bytes", "Share"], &rows);
    let b = &t.buffer;
    out.push_str(&format!(
        "  scheduler: {} merged, {} evicted, {} split, flush p50 {} us / p99 {} us\n",
        b.merged,
        b.evicted + b.overflow_evicted,
        b.splits,
        snap.flush_latency_p50_us,
        snap.flush_latency_p99_us,
    ));
    out.push_str(&format!(
        "  codec: {} RAW bytes read by the encoder, {} resolved without it\n",
        b.codec_input_bytes, b.codec_skipped_bytes,
    ));
    let tr = &t.translator;
    out.push_str(&format!(
        "  translator: {} raw fallbacks ({} bytes), {} offscreen-queued, {} queues executed\n",
        tr.raw_fallbacks, tr.raw_fallback_bytes, tr.offscreen_queued, tr.queue_executions,
    ));
    out.push_str(&format!(
        "  net: peak cwnd {} bytes, peak utilization {}, {} bytes sent\n",
        snap.cwnd_bytes_max,
        pct(snap.utilization_max),
        t.net.bytes_sent(),
    ));
    out.push_str(&format!(
        "  client: {} decode errors, {} frame samples, frame p99 {} us\n",
        t.client.errors, snap.frames, snap.frame_latency_p99_us,
    ));
    let r = &t.resilience;
    out.push_str(&format!(
        "  resilience: {} segments lost / {} retransmits, {} corrupt events ({} bytes), \
         {} outage defers\n",
        r.segments_lost, r.retransmits, r.corrupt_events, r.corrupted_bytes, r.outage_defers,
    ));
    out.push_str(&format!(
        "  integrity: {} crc_fail, {} seq_gap, {} seq_dup, {} resyncs_triggered; \
         {} segments reordered, {} duplicated\n",
        r.crc_failures,
        r.seq_gaps,
        r.seq_dups,
        r.resyncs_triggered,
        r.segments_reordered,
        r.segments_duplicated,
    ));
    out.push_str(&format!(
        "  cache: {} hits, {} misses, {} evictions, {} bytes saved\n",
        r.cache_hits, r.cache_misses, r.cache_evictions, r.cache_bytes_saved,
    ));
    out.push_str(&format!(
        "  degradation: {} overflow evictions, {} stale video dropped; \
         {} pings, {} timeouts, {} reconnects, {} resyncs\n",
        r.overflow_evictions,
        r.stale_video_dropped,
        r.pings_sent,
        r.liveness_timeouts,
        r.reconnects,
        r.resyncs,
    ));
    out.push_str(&format!(
        "  failover: {} warm resumes, {} cold fallbacks\n",
        r.resumes, r.cold_fallbacks,
    ));
    out
}

/// A checked-in chaos schedule the report replays: its file name and
/// its text, embedded so that an edit to the file moves the report.
type Replayed = (&'static str, &'static str);

/// Corruption, then reorder and duplication, on one revision-3 wire:
/// the whole recovery ladder (CRC failure, sequence gap, resync).
const INTEGRITY: Replayed = (
    "integrity-reorder-dup.json",
    include_str!("../../../chaos/schedules/integrity-reorder-dup.json"),
);
/// A server crash: one viewer resumes warm, the other falls back cold.
const FAILOVER: Replayed = (
    "warm-vs-cold-cached.json",
    include_str!("../../../chaos/schedules/warm-vs-cold-cached.json"),
);
/// A 64-client broadcast through the encode-once plane.
const FANOUT: Replayed = (
    "fanout-64.json",
    include_str!("../../../chaos/schedules/fanout-64.json"),
);

/// Replays a checked-in schedule through the chaos runner. Exits
/// nonzero unless the run reaches the outcome the file records, its
/// `expect` block included.
fn replay((name, json): Replayed) -> (Schedule, RunReport) {
    let schedule = schedule_from_json(json).unwrap_or_else(|e| {
        eprintln!("{name}: {e}");
        std::process::exit(1)
    });
    let report = run(&schedule);
    if !report.matches(schedule.expect_violation.as_deref()) {
        eprintln!("{name}: {}", report.summary());
        std::process::exit(1);
    }
    (schedule, report)
}

/// Every nonzero counter of a replay under the `prefix.row` name a
/// schedule's `expect` block reads it by: each of `slots`, then the
/// session's plane.
fn counter_table(title: &str, slots: &[SlotCounters], plane: &PlaneCounters) -> String {
    fn push(rows: &mut Vec<Vec<String>>, place: &str, prefix: &str, names: &[&str], values: &[u64]) {
        for (name, v) in names.iter().zip(values).filter(|(_, v)| **v != 0) {
            rows.push(vec![place.to_string(), format!("{prefix}.{name}"), v.to_string()]);
        }
    }
    let mut rows = Vec::new();
    for (i, s) in slots.iter().enumerate() {
        let place = format!("slot {i}");
        push(&mut rows, &place, "client", &ResilienceMetrics::NAMES, &s.client.values());
        push(&mut rows, &place, "server", &ResilienceMetrics::NAMES, &s.server.values());
        push(&mut rows, &place, "buffer", &BufferStats::NAMES, &s.buffer.values());
        push(&mut rows, &place, "link", &ResilienceMetrics::NAMES, &s.link.values());
    }
    push(&mut rows, "session", "plane", &PlaneCounters::NAMES, &plane.values());
    table(title, &["Where", "Counter", "Value"], &rows)
}

/// Per-command protocol breakdowns of a web, a video and a lossy-web
/// session, from the end-to-end telemetry layer (`docs/TELEMETRY.md`),
/// then the counters of two replayed schedules: the hostile-WAN
/// recovery ladder and a server failover.
fn telemetry_report(opts: &Options, jsonl: Option<&str>) -> String {
    let mut out = String::new();

    eprintln!("  [telemetry] web session");
    let wl = WebWorkload::standard();
    let mut web = ThincSystem::new(&NetworkConfig::wan_desktop(), W, H);
    run_web(&mut web, &wl, opts.pages);
    let web_t = web.session_telemetry();
    out.push_str(&breakdown_table(
        "Telemetry: Web Session — Protocol Breakdown (WAN)",
        &web_t,
    ));

    eprintln!("  [telemetry] video session");
    let clip = VideoClip::short(opts.clip_ms);
    let audio = AudioTrack {
        duration_ms: opts.clip_ms,
        ..AudioTrack::benchmark()
    };
    let mut av = ThincSystem::new(&NetworkConfig::lan_desktop(), W, H);
    run_av(&mut av, &clip, Some(&audio), Rect::new(0, 0, W, H));
    let av_t = av.session_telemetry();
    out.push_str(&breakdown_table(
        "Telemetry: Video Session — Protocol Breakdown (LAN)",
        &av_t,
    ));

    eprintln!("  [telemetry] web session over a lossy WAN");
    let mut lossy = ThincSystem::new(&NetworkConfig::lossy_wan(), W, H);
    run_web(&mut lossy, &wl, opts.pages);
    let lossy_t = lossy.session_telemetry();
    out.push_str(&breakdown_table(
        "Telemetry: Web Session — Protocol Breakdown (lossy WAN, 1% injected loss)",
        &lossy_t,
    ));

    for (replayed, title) in [
        (INTEGRITY, "Wire-Integrity Session (hostile WAN, corruption + reorder + duplication)"),
        (FAILOVER, "Failover Session (server crash, one warm resume + one cold fallback)"),
    ] {
        eprintln!("  [telemetry] replaying {}", replayed.0);
        let (_, report) = replay(replayed);
        out.push_str(&counter_table(
            &format!("Telemetry: {title} — {}", replayed.0),
            &report.slots,
            &report.plane,
        ));
    }

    if let Some(path) = jsonl {
        let data = web_t.export_jsonl();
        match std::fs::write(path, &data) {
            Ok(()) => eprintln!(
                "  [telemetry] wrote {} timeline events to {path}",
                web_t.timeline.len()
            ),
            Err(e) => eprintln!("  [telemetry] failed to write {path}: {e}"),
        }
    }
    out
}

fn table2() -> String {
    let rows: Vec<Vec<String>> = remote_sites()
        .into_iter()
        .map(|s| {
            vec![
                s.name.into(),
                if s.planetlab { "yes" } else { "no" }.into(),
                s.location.into(),
                format!("{} miles", s.miles),
                format!("{:.0} ms", s.rtt().as_secs_f64() * 1000.0),
                format!("{} KB", s.rwnd_bytes() / 1024),
            ]
        })
        .collect();
    table(
        "Table 2: Remote Sites for WAN Experiments (modeled parameters)",
        &["Name", "PlanetLab", "Location", "Distance", "RTT", "TCP window"],
        &rows,
    )
}

/// Broadcast fan-out telemetry: `fanout-64.json` replayed, reported as
/// the session's plane. The interesting figure is the hit ratio — the
/// fraction of plane-served sends whose wire form some other client
/// had already paid for. (The 1k-client version is the perfgate
/// fan-out macro.)
fn fanout_report() -> String {
    let (schedule, report) = replay(FANOUT);
    // Fairness over the slots no event singles out: identical demand,
    // so identical delivery is the target.
    let named: Vec<usize> = schedule
        .events
        .iter()
        .filter_map(|e| match *e {
            ChaosEvent::Fault { slot, .. }
            | ChaosEvent::Disconnect { slot }
            | ChaosEvent::Reconnect { slot }
            | ChaosEvent::Resize { slot, .. } => Some(slot),
            _ => None,
        })
        .collect();
    let sent: Vec<u64> = report
        .slots
        .iter()
        .enumerate()
        .filter(|(i, _)| !named.contains(i))
        .map(|(_, s)| s.buffer.sent_bytes)
        .collect();
    let fairness = match (sent.iter().min(), sent.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 1.0,
    };
    let plane = &report.plane;
    let title = format!(
        "Fan-out: encode-once telemetry ({} clients) — {}",
        report.slots.len(),
        FANOUT.0,
    );
    format!(
        "{}\naggregate: hit ratio {}, {} encode output amortized, \
         fairness {:.4} (min/max bytes, the {} slots no event names)\n",
        counter_table(&title, &[], plane),
        pct(plane.hit_ratio()),
        mb(plane.bytes_amortized() as f64 / (1024.0 * 1024.0)),
        fairness,
        sent.len(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut figs: Vec<String> = Vec::new();
    let mut opts = Options {
        pages: 54,
        clip_ms: 34_750,
    };
    let mut jsonl: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => figs.extend(
                ["2", "3", "4", "5", "6", "7", "t2", "fanout", "telemetry"].map(String::from),
            ),
            "--fig" => {
                i += 1;
                figs.push(args.get(i).cloned().unwrap_or_default());
            }
            "--pages" => {
                i += 1;
                opts.pages = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(54);
            }
            "--clip-ms" => {
                i += 1;
                opts.clip_ms = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(34_750);
            }
            "--jsonl" => {
                i += 1;
                jsonl = args.get(i).cloned();
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: figures --all | --fig <2|3|4|5|6|7|t2|fanout|telemetry> \
                     [--pages N] [--clip-ms M] [--jsonl PATH]"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if figs.is_empty() {
        figs.extend(
            ["2", "3", "4", "5", "6", "7", "t2", "fanout", "telemetry"].map(String::from),
        );
    }
    figs.dedup();
    let wants = |f: &str| figs.iter().any(|g| g == f);
    if wants("t2") {
        println!("{}", table2());
    }
    if wants("2") || wants("3") {
        let (f2, f3) = fig2_and_3(&opts);
        if wants("2") {
            println!("{f2}");
        }
        if wants("3") {
            println!("{f3}");
        }
    }
    if wants("4") {
        println!("{}", fig4(&opts));
    }
    if wants("5") || wants("6") {
        let (f5, f6) = fig5_and_6(&opts);
        if wants("5") {
            println!("{f5}");
        }
        if wants("6") {
            println!("{f6}");
        }
    }
    if wants("7") {
        println!("{}", fig7(&opts));
    }
    if wants("fanout") {
        println!("{}", fanout_report());
    }
    if wants("telemetry") {
        println!("{}", telemetry_report(&opts, jsonl.as_deref()));
    }
}
