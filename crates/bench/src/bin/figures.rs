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
use thinc_core::session::Credentials;
use thinc_core::{ShardedManager, SharedSession};
use thinc_display::drawable::DrawableStore;
use thinc_display::driver::VideoDriver;
use thinc_display::SCREEN;
use thinc_net::link::NetworkConfig;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_raster::{Color, PixelFormat, Rect};
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

/// A byte-level hostile-WAN mini-session. The sessions above frame
/// every message too, but their links never damage a byte, so their
/// integrity counters are zero; this one drives the same delivery
/// function (`pump_wire`) while seeded corruption, reorder and
/// duplication windows disturb the downlink —
/// exercising the full recovery ladder (CRC failure → resync →
/// refresh request) and reporting nonzero per-cause counters.
fn integrity_telemetry() -> thinc_telemetry::SessionTelemetry {
    use thinc_client::{ReconnectConfig, ReconnectPolicy, StreamClient};
    use thinc_core::server::{ServerConfig, VIEWER};
    use thinc_display::request::DrawRequest;
    use thinc_display::server::WindowServer;
    use thinc_display::SCREEN;
    use thinc_net::fault::FaultPlan;
    use thinc_bench::thinc_system::pump_wire;
    use thinc_net::time::{SimDuration, SimTime};
    use thinc_net::trace::PacketTrace;
    use thinc_protocol::message::Message;
    use thinc_raster::PixelFormat;

    const SW: u32 = 128;
    const SH: u32 = 96;
    let seed = 0xC0FFEE_u64.wrapping_add(7);

    fn noise(rect: Rect, salt: u64) -> DrawRequest {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data: Vec<u8> = (0..(rect.w as usize * rect.h as usize * 3))
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        DrawRequest::PutImage {
            target: SCREEN,
            rect,
            data,
        }
    }

    // Same disturbance shape as the end-to-end resilience suite:
    // corruption first, then reorder + duplication on a clean
    // stretch, so each counter gets its own attributable cause.
    let net = NetworkConfig::wan_desktop().with_faults(
        FaultPlan::seeded(seed)
            .with_corruption(SimTime(40_000), SimDuration::from_millis(60), 0.02)
            .with_reorder(SimTime(150_000), SimDuration::from_millis(1_850), 0.3)
            .with_duplication(SimTime(150_000), SimDuration::from_millis(1_850), 0.3),
    );
    let mut link = net.connect();
    let mut trace = PacketTrace::new();
    let config = ServerConfig { width: SW, height: SH, ..ServerConfig::default() };
    let mut ws = WindowServer::new(SW, SH, PixelFormat::Rgb888, config.session());
    let mut client = StreamClient::new(SW, SH, PixelFormat::Rgb888).with_reconnect_policy(
        ReconnectPolicy::new(ReconnectConfig {
            seed,
            ..ReconnectConfig::default()
        }),
    );

    // Handshake upgrades both sides to checksummed sequenced framing.
    let (session, screen) = ws.driver_and_screen();
    let hello = session.hello();
    client.feed(&session.encode_frame(VIEWER, &hello));
    let hello = Message::ClientHello {
        version: thinc_protocol::PROTOCOL_VERSION,
        viewport_width: SW,
        viewport_height: SH,
    };
    session.handle_message(VIEWER, &hello, screen);

    // A fixed rotation of tiles: each slot repeats its exact content
    // every round, so the revision-3 cache sees repeated payloads and
    // substitutes refs. Full payloads corrupted inside the fault
    // window leave the server's ledger ahead of the client's store —
    // later refs for those slots surface as cache misses, exercising
    // the miss leg of the recovery ladder: the ledger forgets the
    // entry and the tile's rect is repainted from the screen.
    let mut now = SimTime::ZERO;
    for i in 0..70u64 {
        let slot = i % 6;
        let x = (slot as i32 * 15) % (SW as i32 - 32);
        let y = (slot as i32 * 11) % (SH as i32 - 32);
        ws.driver_mut().set_time(now);
        ws.process(noise(Rect::new(x, y, 32, 32), seed ^ slot));
        pump_wire(&mut ws, &mut link, &mut trace, &mut client, now);
        now += SimDuration::from_millis(25);
    }
    // Drain the backlog, then let the policy-driven refresh ladder
    // converge past the disturbance windows.
    now = now.max(SimTime(2_050_000) + SimDuration::from_millis(50));
    for _ in 0..500 {
        if !client.needs_refresh() && ws.driver().backlog(VIEWER) == 0 {
            break;
        }
        pump_wire(&mut ws, &mut link, &mut trace, &mut client, now);
        now = link.down.tx_free_at().max(now + SimDuration::from_millis(50));
    }

    let mut t = thinc_bench::thinc_system::server_telemetry(ws.driver(), &link);
    t.resilience.merge(client.resilience_metrics());
    t
}

/// A checkpoint/failover mini-session: two converged viewers survive
/// a server crash. One redials with a matching resume token (warm —
/// only the checkpoint-vs-live delta ships), the other presents a
/// stale store digest (cold fallback — full retransmit). The merged
/// telemetry reports one nonzero `resumes` and one nonzero
/// `cold_fallbacks`, so the failover counters are lines of the
/// report golden (`tests/report_golden.rs`).
fn failover_telemetry() -> thinc_telemetry::SessionTelemetry {
    use thinc_client::StreamClient;
    use thinc_core::session::{Credentials, SharedSession};
    use thinc_display::drawable::DrawableStore;
    use thinc_display::driver::VideoDriver;
    use thinc_display::SCREEN;
    use thinc_net::time::SimTime;
    use thinc_net::trace::PacketTrace;
    use thinc_protocol::message::Message;
    use thinc_raster::PixelFormat;

    const SW: u32 = 96;
    const SH: u32 = 64;
    let seed = 0xFA11_u64;

    let mut session = SharedSession::new(SW, SH, PixelFormat::Rgb888, "host").with_cache(32 * 1024);
    session.auth_mut().enable_sharing("pw");
    let warm_id = session
        .attach(&Credentials::Owner { user: "host".into() }, SW, SH)
        .expect("owner attaches");
    let cold_id = session
        .attach(
            &Credentials::Peer { user: "viewer".into(), password: "pw".into() },
            SW,
            SH,
        )
        .expect("peer attaches");
    let ids = [warm_id, cold_id];
    let mut store = DrawableStore::new(SW, SH, PixelFormat::Rgb888);
    let hello = session.hello();
    let mut streams: Vec<StreamClient> = ids
        .iter()
        .map(|&id| {
            let mut c =
                StreamClient::new(SW, SH, PixelFormat::Rgb888).with_cache_budget(32 * 1024);
            c.feed(&session.encode_frame(id, &hello));
            c
        })
        .collect();
    let mut links = vec![
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
    ];
    let pump = |session: &mut SharedSession,
                store: &DrawableStore,
                streams: &mut Vec<StreamClient>,
                links: &mut Vec<_>,
                now: SimTime| {
        for (j, (id, msgs)) in session.flush_all(now, links).into_iter().enumerate() {
            for (_, msg) in msgs {
                streams[j].feed(&session.encode_frame(id, &msg));
            }
            for msg in streams[j].take_uplink(now) {
                session.handle_message(id, &msg, store.screen());
            }
        }
    };
    // Converge both viewers, take the crash image, keep drawing while
    // the standby spins up.
    let mut x = seed | 1;
    let band: Vec<u8> = (0..(SW as usize) * 16 * 3)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (x >> 33) as u8
        })
        .collect();
    store.screen_mut().put_raw(&Rect::new(0, 16, SW, 16), &band);
    session.put_image(&store, SCREEN, Rect::new(0, 16, SW, 16), &band);
    for r in 0..50u64 {
        pump(&mut session, &store, &mut streams, &mut links, SimTime(10_000 + r * 5_000));
        if ids.iter().all(|&id| session.backlog(id) == 0) {
            break;
        }
    }
    let image = session.checkpoint(store.screen());
    drop(session);
    store.screen_mut().put_raw(&Rect::new(0, 40, SW, 16), &band);
    let mut standby = SharedSession::restore(&image).expect("crash image restores");
    standby.set_time(SimTime(1_000_000));
    standby.put_image(&store, SCREEN, Rect::new(0, 40, SW, 16), &band);
    let sid = standby.session_id();
    // Both redial with their tokens; the second's store digest is
    // stale, so the standby restarts it cold.
    for (j, &id) in ids.iter().enumerate() {
        let mut opening = streams[j].redial(sid, id.0);
        if let (1, Message::SessionResume { store_digest, .. }) = (j, &mut opening[1]) {
            *store_digest ^= 0xDEAD;
        }
        for msg in &opening {
            standby.handle_message(id, msg, store.screen());
        }
    }
    let mut links = vec![
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
    ];
    for r in 0..100u64 {
        pump(&mut standby, &store, &mut streams, &mut links, SimTime(1_100_000 + r * 5_000));
        if ids.iter().all(|&id| standby.backlog(id) == 0)
            && streams.iter().all(|s| s.pending_bytes() == 0)
        {
            break;
        }
    }
    for (j, _) in ids.iter().enumerate() {
        assert_eq!(
            streams[j].client().framebuffer().data(),
            store.screen().data(),
            "viewer {j} converges after failover"
        );
    }
    let mut t = thinc_telemetry::SessionTelemetry::new(thinc_core::scheduler::NUM_QUEUES);
    for &id in &ids {
        t.resilience
            .merge(&standby.viewer(id).expect("attached").resilience_metrics());
    }
    for s in &streams {
        t.resilience.merge(s.resilience_metrics());
    }
    t
}

/// Per-command protocol breakdown for a web and a video session,
/// from the end-to-end telemetry layer (`docs/TELEMETRY.md`).
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

    eprintln!("  [telemetry] byte-level wire-integrity session over a hostile WAN");
    let integrity_t = integrity_telemetry();
    out.push_str(&breakdown_table(
        "Telemetry: Wire-Integrity Session — Recovery Breakdown (hostile WAN, \
         corruption + reorder + duplication)",
        &integrity_t,
    ));

    eprintln!("  [telemetry] checkpoint failover session (warm resume + cold fallback)");
    let failover_t = failover_telemetry();
    out.push_str(&breakdown_table(
        "Telemetry: Failover Session — Resume Breakdown (server crash, \
         one warm resume + one cold fallback)",
        &failover_t,
    ));

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

/// Broadcast fan-out telemetry: 96 viewers of one desktop through
/// the session manager, reported as the session's plane aggregate.
/// Small enough to run with the other figures (the 1k-client version
/// is the perfgate fan-out macro); the interesting figure is the hit
/// ratio — the fraction of plane-served sends whose wire form some
/// other client had already paid for.
fn fanout_report() -> String {
    const FW: u32 = 320;
    const FH: u32 = 240;
    const CLIENTS: usize = 96;
    const WORKERS: usize = 4;
    let link = |lan: bool| {
        (
            TcpPipe::new(TcpParams {
                bandwidth_bps: if lan { 20_000_000 } else { 3_000_000 },
                rtt: SimDuration::from_millis(if lan { 2 } else { 40 }),
                sndbuf_bytes: 32 * 1024,
                ..TcpParams::default()
            }),
            PacketTrace::new(),
        )
    };
    let mut session =
        SharedSession::new(FW, FH, PixelFormat::Rgb888, "host").with_workers(WORKERS);
    session.auth_mut().enable_sharing("pw");
    let mut m = ShardedManager::new(session, 1);
    m.attach(&Credentials::Owner { user: "host".into() }, FW, FH, link(true))
        .expect("owner attach");
    for i in 1..CLIENTS {
        // Three of four viewers are same-screen (one encode-once
        // equivalence class); the rest view scaled-down, adding
        // per-policy classes. A third sit on WAN-ish links.
        let (vw, vh) = if i % 4 == 3 { (FW / 2, FH / 2) } else { (FW, FH) };
        m.attach(
            &Credentials::Peer { user: format!("viewer{i}"), password: "pw".into() },
            vw,
            vh,
            link(i % 3 != 2),
        )
        .expect("peer attach");
    }
    let store = DrawableStore::new(FW, FH, PixelFormat::Rgb888);
    let mut now = SimTime(1_000);
    for epoch in 0u64..16 {
        // A moving video-ish band plus periodic UI fills: the
        // broadcast workload the plane is built for.
        let y = ((epoch * 30) % (FH as u64 - 60)) as i32;
        let band: Vec<u8> = (0..(FW as usize) * 48 * 3)
            .map(|i| (i as u64 ^ (epoch.wrapping_mul(131))) as u8)
            .collect();
        m.session_mut()
            .put_image(&store, SCREEN, Rect::new(0, y, FW, 48), &band);
        if epoch % 3 == 0 {
            m.session_mut().solid_fill(
                &store,
                SCREEN,
                Rect::new(8, 8, 96, 24),
                Color::rgb(epoch as u8, 64, 128),
            );
        }
        m.flush_epoch(now);
        now = SimTime(now.0 + 8_000);
    }
    // Drain so the numbers cover completed deliveries.
    for _ in 0..200 {
        if m.session()
            .client_ids()
            .iter()
            .all(|id| m.session().backlog(*id) == 0)
        {
            break;
        }
        m.flush_epoch(now);
        now = SimTime(now.0 + 8_000);
    }

    let plane = m.session().fanout_counters();
    // Fairness over the same-screen LAN cohort: identical demand, so
    // identical delivery is the target.
    let cohort: Vec<u64> = m
        .session()
        .client_ids()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| *i > 0 && i % 4 != 3 && i % 3 != 2)
        .map(|(_, id)| m.session().viewer(id).unwrap().buffer().stats().sent_bytes)
        .collect();
    let fairness = match (cohort.iter().min(), cohort.iter().max()) {
        (Some(&lo), Some(&hi)) if hi > 0 => lo as f64 / hi as f64,
        _ => 1.0,
    };
    format!(
        "\n== Fan-out: encode-once telemetry ({CLIENTS} clients, {WORKERS} workers) ==\n\
         \naggregate: hit ratio {}, {} encode output amortized, \
         fairness {:.4} (min/max bytes, same-screen LAN cohort)\n",
        pct(plane.hit_ratio()),
        mb(plane.bytes_amortized() as f64 / (1024.0 * 1024.0)),
        fairness,
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
