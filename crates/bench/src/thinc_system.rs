//! THINC under the benchmark harness.
//!
//! Unlike the baseline *models*, this adapter drives the actual THINC
//! implementation end to end: the window server rasterizes requests
//! and mirrors them to the real driver, a session of one viewer
//! ([`ServerConfig::session`]); the session translates, schedules and
//! flushes over the simulated connection;
//! every flushed message is framed and checksummed, carried as bytes
//! and decoded by a real [`StreamClient`] — the instrumented headless
//! client of §8.1 — whose uplink goes back to the server. So the
//! benchmark also continuously verifies that the client framebuffer
//! matches the server screen.

use thinc_baselines::framework::{raster_cost, server_time, CLIENT_HZ};
use thinc_baselines::traits::{AvStats, RemoteDisplay};
use thinc_client::StreamClient;
use thinc_core::server::{ServerConfig, VIEWER};
use thinc_core::{fold_fault_stats, Heard, SharedSession};
use thinc_display::request::DrawRequest;
use thinc_display::server::WindowServer;
use thinc_net::link::{DuplexLink, NetworkConfig};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::message::{Message, ProtocolInput};
use thinc_protocol::wire::encode_message;
use thinc_raster::{Point, Rect, YuvFrame};
use thinc_telemetry::{Histogram, SessionTelemetry, Timeline};

/// Flush period of the server's delivery loop.
const FLUSH_PERIOD: SimDuration = SimDuration(2_000);

/// Minimum virtual-time gap between timeline samples of the same
/// metric (bounds the JSONL export to ~100 samples per second of
/// session time).
const TIMELINE_GAP: SimDuration = SimDuration(10_000);

/// One delivery round over real wire bytes: flush the server over the
/// (possibly faulty) downlink, frame every message at the negotiated
/// revision, carry the bytes through the link's disturbance model —
/// which may corrupt, reorder or duplicate them — into the stream
/// client, and hand the server whatever the client sends back (pongs,
/// cache misses, its reconnect policy's refresh requests). Recovery is
/// closed-loop: the session answers a refresh request with a full
/// resync from the screen; the harness never resyncs by hand. Returns
/// the flushed `(arrival, message)` pairs, in arrival order.
pub fn pump_wire(
    ws: &mut WindowServer<SharedSession>,
    link: &mut DuplexLink,
    trace: &mut PacketTrace,
    client: &mut StreamClient,
    now: SimTime,
) -> Vec<(SimTime, Message)> {
    let (session, screen) = ws.driver_and_screen();
    let batch = session.flush_client(VIEWER, now, &mut link.down, trace);
    let frames: Vec<_> = batch
        .iter()
        .map(|(arrival, msg)| (*arrival, session.encode_frame(VIEWER, msg)))
        .collect();
    for seg in link.down.carry(frames) {
        client.feed(&seg);
    }
    for msg in client.take_uplink(now) {
        session.handle_message(VIEWER, &msg, screen);
    }
    batch
}

/// Whether the session's one viewer has nothing left to send.
pub fn drained(session: &SharedSession) -> bool {
    let viewer = session.viewer(VIEWER).expect("the viewer stays attached");
    viewer.buffer().is_empty() && viewer.av_backlog() == 0
}

/// The real THINC pipeline behind the harness interface.
pub struct ThincSystem {
    ws: WindowServer<SharedSession>,
    link: DuplexLink,
    trace: PacketTrace,
    client: StreamClient,
    last_arrival: Option<SimTime>,
    /// When the in-flight frame update was requested (a click); the
    /// next display update to arrive closes the latency sample.
    frame_requested: Option<SimTime>,
    /// Request-to-screen latency of the clicked updates (µs of virtual
    /// time).
    frame_latency_us: Histogram,
    audio_open: bool,
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
        let fmt = config.format;
        let mut ws = WindowServer::new(config.width, config.height, fmt, config.session());
        let (session, screen) = ws.driver_and_screen();
        let hello = Message::ClientHello {
            version: thinc_protocol::PROTOCOL_VERSION,
            viewport_width: viewport.0,
            viewport_height: viewport.1,
        };
        session.handle_message(VIEWER, &hello, screen);
        let mut client = StreamClient::new(viewport.0, viewport.1, fmt);
        // The hello travels legacy-framed and moves the reader to the
        // negotiated revision.
        let hello = session.hello();
        client.feed(&session.encode_frame(VIEWER, &hello));
        Self {
            ws,
            link: net.connect(),
            trace: PacketTrace::new(),
            client,
            last_arrival: None,
            frame_requested: None,
            frame_latency_us: Histogram::latency_us(),
            audio_open: false,
            frames_sent: 0,
            frames_delivered: 0,
            audio_bytes: 0,
            timeline: Timeline::new(),
            net_metrics: thinc_telemetry::NetMetrics::new(),
        }
    }

    /// This session's telemetry, assembled from the groups each
    /// component owns: the session's and its viewer's, what the faulted
    /// link did to it, the downlink samples, the client's counters and
    /// frame latency, and the sampled timeline.
    pub fn session_telemetry(&self) -> SessionTelemetry {
        let mut t = SessionTelemetry::new(thinc_core::scheduler::NUM_QUEUES);
        let session = self.ws.driver();
        let viewer = session.viewer(VIEWER).expect("the viewer stays attached");
        t.protocol = viewer.protocol_metrics().clone();
        t.buffer = viewer.buffer().stats();
        t.scheduler = viewer.buffer().scheduler_metrics().clone();
        t.translator = session.translator_stats();
        t.resilience = viewer.resilience_metrics();
        for pipe in [&self.link.down, &self.link.up] {
            fold_fault_stats(&mut t.resilience, pipe.fault_stats());
        }
        t.net = self.net_metrics.clone();
        t.client = self.client.client().stats();
        t.frame_latency_us = self.frame_latency_us.clone();
        t.timeline = self.timeline.clone();
        t
    }

    /// The server-side screen (ground truth).
    pub fn server_screen(&self) -> &thinc_raster::Framebuffer {
        self.ws.screen()
    }

    /// The client (for verification).
    pub fn client(&self) -> &StreamClient {
        &self.client
    }

    /// Whether the client decoded everything it was sent, is not
    /// latched stale, and its framebuffer matches the server screen
    /// byte for byte (only meaningful at full viewport with all
    /// pending updates drained).
    pub fn verified(&self) -> bool {
        self.client.pending_bytes() == 0
            && !self.client.needs_refresh()
            && self.client.client().framebuffer().data() == self.ws.screen().data()
    }

    fn flush_once(&mut self, now: SimTime) {
        let batch = pump_wire(
            &mut self.ws,
            &mut self.link,
            &mut self.trace,
            &mut self.client,
            now,
        );
        for (arrival, msg) in batch {
            match msg {
                Message::VideoData { .. } => self.frames_delivered += 1,
                Message::Audio { ref data, .. } => self.audio_bytes += data.len() as u64,
                Message::Display(_) | Message::CacheRef { .. } => {
                    if let Some(t0) = self.frame_requested.take() {
                        self.frame_latency_us.record(arrival.0.saturating_sub(t0.0));
                    }
                }
                _ => {}
            }
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
        let session = self.ws.driver();
        self.timeline.record_sampled(
            now.0,
            "server.display_backlog",
            session.backlog(VIEWER) as f64,
            TIMELINE_GAP.0,
        );
        let av = session.viewer(VIEWER).map_or(0, |v| v.av_backlog());
        self.timeline
            .record_sampled(now.0, "server.av_backlog", av as f64, TIMELINE_GAP.0);
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
        self.frame_requested = Some(now);
        let (session, screen) = self.ws.driver_and_screen();
        if let Heard::Input(ev) = session.handle_message(VIEWER, &msg, screen) {
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
            if drained(self.ws.driver()) {
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
        // Open the device once, on the first write that carries
        // samples: its clock starts there.
        if !self.audio_open {
            if pcm.is_empty() {
                return;
            }
            self.ws.driver_mut().open_audio(44_100, 2);
            self.audio_open = true;
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
        assert_eq!(sys.session_telemetry().translator.raw_fallback_bytes, 0);
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
    fn every_frame_decodes_and_every_message_is_applied() {
        use crate::avbench::run_av;
        use crate::webbench::run_web;
        use thinc_workloads::video::{AudioTrack, VideoClip};
        use thinc_workloads::web::WebWorkload;
        let lan = NetworkConfig::lan_desktop();
        let mut web = ThincSystem::new(&lan, 256, 192);
        run_web(&mut web, &WebWorkload::new(256, 192, 2005), 2);
        let mut av = ThincSystem::new(&lan, 352, 240);
        let audio = AudioTrack {
            duration_ms: 1_000,
            ..AudioTrack::benchmark()
        };
        let clip = VideoClip::short(1_000);
        run_av(&mut av, &clip, Some(&audio), Rect::new(0, 0, 352, 240));
        for sys in [&web, &av] {
            let m = sys.client().resilience_metrics();
            assert_eq!(
                (m.decode_errors(), m.crc_failures(), m.seq_gaps()),
                (0, 0, 0)
            );
            assert_eq!(sys.client().pending_bytes(), 0);
            // Everything the server put on the wire, plus its hello.
            let sent = sys.session_telemetry().protocol.total_messages();
            assert_eq!(sys.client().client().stats().messages, sent + 1);
            assert!(sys.verified());
        }
        assert!(av.av_stats().audio_bytes > 0);
    }

    #[test]
    fn a_click_is_closed_by_the_first_display_arrival() {
        let mut sys = ThincSystem::new(&NetworkConfig::wan_desktop(), 64, 64);
        let click = SimTime(1_000);
        sys.click(click, Point::new(4, 4));
        let fill = |color| {
            vec![DrawRequest::FillRect {
                target: thinc_display::SCREEN,
                rect: Rect::new(0, 0, 64, 64),
                color,
            }]
        };
        sys.process(SimTime(50_000), fill(Color::WHITE));
        let first = sys.last_client_arrival().expect("the fill arrived");
        sys.process(SimTime(90_000), fill(Color::BLACK));
        assert!(sys.last_client_arrival() > Some(first));
        let latency = sys.session_telemetry().frame_latency_us;
        assert_eq!(latency.count(), 1);
        assert_eq!(latency.max(), (first - click).as_micros());
    }

    #[test]
    fn audio_written_in_chunks_under_a_packet_is_shipped() {
        let mut sys = ThincSystem::new(&NetworkConfig::lan_desktop(), 64, 64);
        let first = SimTime(5_000);
        for i in 0..10 {
            sys.audio(first + SimDuration::from_millis(i), &[7; 1_000]);
        }
        sys.drain(SimTime(100_000));
        assert!(sys.av_stats().audio_bytes >= 8_192, "{:?}", sys.av_stats());
        // The device clock started at the first write.
        let ts = sys.client().client().audio_timestamps();
        assert_eq!(ts.first(), Some(&first.as_micros()));
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
