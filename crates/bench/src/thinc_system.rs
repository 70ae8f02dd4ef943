//! THINC under the benchmark harness.
//!
//! Unlike the baseline *models*, this adapter drives the actual THINC
//! implementation end to end: the window server rasterizes requests
//! and mirrors them to the real [`ThincServer`] driver; the server
//! translates, schedules and flushes over the simulated connection;
//! and a real [`HeadlessClient`] executes every message — so the
//! benchmark also continuously verifies that the client framebuffer
//! matches the server screen.

use thinc_baselines::framework::{raster_cost, server_time, CLIENT_HZ};
use thinc_baselines::traits::{AvStats, RemoteDisplay};
use thinc_client::{HeadlessClient, StreamClient};
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_net::fault::FaultStats;
use thinc_net::link::{DuplexLink, NetworkConfig};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::encode_message;
use thinc_raster::{Point, Rect, YuvFrame};
use thinc_telemetry::{ResilienceMetrics, SessionTelemetry, Timeline};

/// Flush period of the server's delivery loop.
const FLUSH_PERIOD: SimDuration = SimDuration(2_000);

/// Minimum virtual-time gap between timeline samples of the same
/// metric (bounds the JSONL export to ~100 samples per second of
/// session time).
const TIMELINE_GAP: SimDuration = SimDuration(10_000);

/// Folds one link direction's injected-fault tallies into a resilience
/// group, by field name. The destructure is exhaustive on purpose: a
/// field added to [`FaultStats`] fails to compile here until it is
/// given a row.
pub fn fold_fault_stats(into: &mut ResilienceMetrics, stats: FaultStats) {
    let FaultStats {
        segments_lost,
        retransmits,
        corrupt_events,
        corrupted_bytes,
        outage_defers,
        collapsed_rounds,
        segments_reordered,
        segments_duplicated,
    } = stats;
    into.merge(&ResilienceMetrics {
        segments_lost,
        retransmits,
        corrupt_events,
        corrupted_bytes,
        outage_defers,
        collapsed_rounds,
        segments_reordered,
        segments_duplicated,
        ..ResilienceMetrics::default()
    });
}

/// The server's half of a session's telemetry — the groups its driver
/// owns plus what the faulted `link` did to it. Harnesses add the
/// client's groups and their own samples.
pub fn server_telemetry(driver: &ThincServer, link: &DuplexLink) -> SessionTelemetry {
    let mut t = SessionTelemetry::new(thinc_core::scheduler::NUM_QUEUES);
    let stats = driver.stats();
    t.protocol = driver.protocol_metrics();
    t.buffer = stats.buffer;
    t.scheduler = driver.scheduler_metrics().clone();
    t.translator = stats.translator;
    t.resilience = driver.resilience_metrics();
    for pipe in [&link.down, &link.up] {
        fold_fault_stats(&mut t.resilience, pipe.fault_stats());
    }
    t
}

/// One delivery round over real wire bytes: flush the server over the
/// (possibly faulty) downlink, frame every message at the negotiated
/// revision, carry the bytes through the link's disturbance model —
/// which may corrupt, reorder or duplicate them — into the stream
/// client, and hand the server whatever the client sends back (pongs,
/// cache misses, its reconnect policy's refresh requests). Recovery is
/// closed-loop: the server answers a latched refresh request with a
/// full resync; the harness never resyncs by hand.
pub fn pump_wire(
    ws: &mut WindowServer<ThincServer>,
    link: &mut DuplexLink,
    trace: &mut PacketTrace,
    client: &mut StreamClient,
    now: SimTime,
) {
    let batch = ws.driver_mut().flush(now, &mut link.down, trace);
    let frames: Vec<_> = batch
        .iter()
        .map(|(arrival, msg)| (*arrival, ws.driver_mut().encode_frame(msg)))
        .collect();
    for seg in link.down.carry(frames) {
        client.feed(&seg);
    }
    for msg in client.take_uplink(now) {
        ws.driver_mut().handle_message(&msg);
    }
    if ws.driver_mut().take_resync_request() {
        let screen = ws.screen().clone();
        ws.driver_mut().set_time(now);
        ws.driver_mut().resync(&screen);
    }
}

/// The real THINC pipeline behind the harness interface.
pub struct ThincSystem {
    ws: WindowServer<ThincServer>,
    link: DuplexLink,
    trace: PacketTrace,
    client: HeadlessClient,
    last_arrival: Option<SimTime>,
    frames_sent: u32,
    frames_delivered: u32,
    audio_bytes: u64,
    timeline: Timeline,
    net_metrics: thinc_telemetry::NetMetrics,
}

impl ThincSystem {
    /// THINC over `net` at the given session geometry.
    pub fn new(net: &NetworkConfig, width: u32, height: u32) -> Self {
        Self::with_config(
            net,
            ServerConfig {
                width,
                height,
                ..ServerConfig::default()
            },
            (width, height),
        )
    }

    /// THINC with a small client viewport (server-side scaling).
    pub fn with_viewport(net: &NetworkConfig, width: u32, height: u32, vw: u32, vh: u32) -> Self {
        Self::with_config(
            net,
            ServerConfig {
                width,
                height,
                ..ServerConfig::default()
            },
            (vw, vh),
        )
    }

    /// THINC with a custom configuration (ablations).
    pub fn with_config(net: &NetworkConfig, config: ServerConfig, viewport: (u32, u32)) -> Self {
        let (w, h, fmt) = (config.width, config.height, config.format);
        let mut server = ThincServer::new(config);
        server.handle_message(&Message::ClientHello {
            version: thinc_protocol::PROTOCOL_VERSION,
            viewport_width: viewport.0,
            viewport_height: viewport.1,
        });
        Self {
            ws: WindowServer::new(w, h, fmt, server),
            link: net.connect(),
            trace: PacketTrace::new(),
            client: HeadlessClient::new(viewport.0, viewport.1, fmt),
            last_arrival: None,
            frames_sent: 0,
            frames_delivered: 0,
            audio_bytes: 0,
            timeline: Timeline::new(),
            net_metrics: thinc_telemetry::NetMetrics::new(),
        }
    }

    /// This session's telemetry, assembled from the groups each
    /// component owns: the server's ([`server_telemetry`]), the
    /// downlink samples, the client's counters and frame latency, and
    /// the sampled timeline.
    pub fn session_telemetry(&self) -> SessionTelemetry {
        let mut t = server_telemetry(self.ws.driver(), &self.link);
        t.net = self.net_metrics.clone();
        t.client = self.client.stats();
        t.frame_latency_us = self.client.frame_latency_us().clone();
        t.timeline = self.timeline.clone();
        t
    }

    /// The server-side screen (ground truth).
    pub fn server_screen(&self) -> &thinc_raster::Framebuffer {
        self.ws.screen()
    }

    /// The client (for verification).
    pub fn client(&self) -> &HeadlessClient {
        &self.client
    }

    /// The THINC server's statistics.
    pub fn server_stats(&self) -> thinc_core::server::ServerStats {
        self.ws.driver().stats()
    }

    /// Whether the client framebuffer matches the server screen
    /// byte for byte (only meaningful at full viewport with all
    /// pending updates drained).
    pub fn verified(&self) -> bool {
        self.client.client().framebuffer().data() == self.ws.screen().data()
    }

    fn flush_once(&mut self, now: SimTime) {
        let batch = self.ws.driver_mut().flush(now, &mut self.link.down, &mut self.trace);
        for (arrival, msg) in batch {
            if matches!(msg, Message::VideoData { .. }) {
                self.frames_delivered += 1;
            }
            if let Message::Audio { ref data, .. } = msg {
                self.audio_bytes += data.len() as u64;
            }
            self.client.receive(arrival, &msg);
            self.last_arrival = Some(self.last_arrival.map_or(arrival, |a| a.max(arrival)));
        }
        self.sample_net(now);
    }

    /// Samples the downlink transport into the net gauges and the
    /// throttled session timeline.
    fn sample_net(&mut self, now: SimTime) {
        let cwnd = self.link.down.cwnd_bytes() as f64;
        let util = self.link.down.utilization(now);
        let sent = self.link.down.bytes_sent();
        let delta = sent.saturating_sub(self.net_metrics.bytes_sent());
        self.net_metrics.add_bytes(delta);
        self.net_metrics.sample(cwnd, util);
        self.timeline
            .record_sampled(now.0, "net.cwnd_bytes", cwnd, TIMELINE_GAP.0);
        self.timeline
            .record_sampled(now.0, "net.utilization", util, TIMELINE_GAP.0);
        let driver = self.ws.driver();
        self.timeline.record_sampled(
            now.0,
            "server.display_backlog",
            driver.display_backlog() as f64,
            TIMELINE_GAP.0,
        );
        self.timeline.record_sampled(
            now.0,
            "server.av_backlog",
            driver.av_backlog() as f64,
            TIMELINE_GAP.0,
        );
    }
}

impl RemoteDisplay for ThincSystem {
    fn name(&self) -> String {
        "THINC".into()
    }

    fn click(&mut self, now: SimTime, pos: Point) -> SimTime {
        let msg = Message::Input(ProtocolInput::ButtonPress {
            x: pos.x,
            y: pos.y,
            button: 1,
        });
        let size = encode_message(&msg).len() as u64;
        let (_, arrival) = self.link.up.send(now, size);
        self.trace.record(now, arrival, size, Direction::Up, "input");
        self.client.mark_frame_request(now);
        if let Some(ev) = self.ws.driver_mut().handle_message(&msg) {
            self.ws.handle_input(ev);
        }
        arrival
    }

    fn process(&mut self, now: SimTime, reqs: Vec<DrawRequest>) -> SimDuration {
        let cpu = server_time(raster_cost(&reqs));
        self.ws.driver_mut().set_time(now);
        self.ws.process_all(reqs);
        self.flush_once(now + cpu);
        cpu
    }

    fn pump(&mut self, now: SimTime) {
        self.flush_once(now);
    }

    fn drain(&mut self, from: SimTime) -> SimTime {
        let mut now = from;
        for _ in 0..1_000_000 {
            if self.ws.driver().av_backlog() == 0 && self.ws.driver().display_backlog() == 0 {
                break;
            }
            self.flush_once(now);
            now = self.link.down.tx_free_at().max(now + FLUSH_PERIOD);
        }
        self.last_arrival.unwrap_or(from).max(from)
    }

    fn last_client_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }

    fn trace(&self) -> &PacketTrace {
        &self.trace
    }

    fn video_frame(&mut self, now: SimTime, frame: &YuvFrame, dst: Rect) {
        self.ws.driver_mut().set_time(now);
        self.ws.process(DrawRequest::VideoPut {
            frame: frame.clone(),
            dst,
        });
        self.frames_sent += 1;
        self.flush_once(now);
    }

    fn audio(&mut self, now: SimTime, pcm: &[u8]) {
        self.ws.driver_mut().set_time(now);
        if self.ws.driver().av_backlog() == 0 && self.audio_bytes == 0 && pcm.is_empty() {
            return;
        }
        // Lazily open the device on first use.
        if self.ws.driver_mut().stats().audio_messages == 0 && self.audio_bytes == 0 {
            self.ws.driver_mut().open_audio(44_100, 2);
        }
        self.ws.driver_mut().play_audio(pcm);
        self.flush_once(now);
    }

    fn av_stats(&self) -> AvStats {
        AvStats {
            frames_delivered: self.frames_delivered,
            frames_dropped: self.frames_sent.saturating_sub(self.frames_delivered),
            audio_bytes: self.audio_bytes,
        }
    }

    fn client_processing_secs(&self) -> Option<f64> {
        Some(self.client.client().hardware().seconds_at(CLIENT_HZ))
    }

    fn supports_small_screen(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_raster::Color;

    #[test]
    fn end_to_end_fill_reaches_client() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 64, 64);
        sys.process(
            SimTime::ZERO,
            vec![DrawRequest::FillRect {
                target: thinc_display::SCREEN,
                rect: Rect::new(0, 0, 32, 32),
                color: Color::rgb(10, 20, 30),
            }],
        );
        sys.drain(SimTime::ZERO);
        assert_eq!(
            sys.client().client().framebuffer().get_pixel(16, 16),
            Some(Color::rgb(10, 20, 30))
        );
        assert!(sys.verified());
    }

    #[test]
    fn end_to_end_offscreen_page_compose() {
        let mut sys = ThincSystem::new(&NetworkConfig::wan_desktop(), 128, 128);
        // Page composed offscreen, then copied onscreen.
        let reqs = vec![
            DrawRequest::CreatePixmap {
                width: 128,
                height: 128,
            },
            DrawRequest::FillRect {
                target: thinc_display::drawable::DrawableId(1),
                rect: Rect::new(0, 0, 128, 128),
                color: Color::WHITE,
            },
            // Short enough to stay inside the 128-px pixmap: text
            // that overhangs the pixmap is covered by RAW fallback.
            DrawRequest::Text {
                target: thinc_display::drawable::DrawableId(1),
                x: 8,
                y: 8,
                text: "hello thinc".into(),
                fg: Color::BLACK,
            },
            DrawRequest::CopyArea {
                src: thinc_display::drawable::DrawableId(1),
                dst: thinc_display::SCREEN,
                src_rect: Rect::new(0, 0, 128, 128),
                dst_x: 0,
                dst_y: 0,
            },
        ];
        sys.process(SimTime::ZERO, reqs);
        sys.drain(SimTime::ZERO);
        assert!(sys.verified(), "client framebuffer != server screen");
        // Offscreen awareness: no RAW fallback needed for this page.
        assert_eq!(sys.server_stats().translator.raw_fallback_bytes, 0);
    }

    #[test]
    fn video_frames_counted() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 128, 128);
        let frame = YuvFrame::new(thinc_raster::YuvFormat::Yv12, 32, 32);
        for i in 0..5 {
            sys.video_frame(SimTime(i * 41_667), &frame, Rect::new(0, 0, 128, 128));
        }
        sys.drain(SimTime(300_000));
        let s = sys.av_stats();
        assert_eq!(s.frames_delivered, 5);
        assert_eq!(s.frames_dropped, 0);
    }

    #[test]
    fn viewport_scaling_shrinks_traffic() {
        // Incompressible noise so the comparison measures scaling,
        // not the RAW compressor.
        let mut x = 5u64;
        let img: Vec<u8> = (0..128usize * 128 * 3)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                (x >> 33) as u8
            })
            .collect();
        let reqs = || {
            vec![DrawRequest::PutImage {
                target: thinc_display::SCREEN,
                rect: Rect::new(0, 0, 128, 128),
                data: img.clone(),
            }]
        };
        let mut full = ThincSystem::new(&NetworkConfig::lan_desktop(), 128, 128);
        full.process(SimTime::ZERO, reqs());
        full.drain(SimTime::ZERO);
        let mut pda = ThincSystem::with_viewport(&NetworkConfig::lan_desktop(), 128, 128, 40, 40);
        pda.process(SimTime::ZERO, reqs());
        pda.drain(SimTime::ZERO);
        assert!(
            pda.trace().bytes(Direction::Down) * 2 < full.trace().bytes(Direction::Down),
            "pda {} vs full {}",
            pda.trace().bytes(Direction::Down),
            full.trace().bytes(Direction::Down)
        );
    }
}
