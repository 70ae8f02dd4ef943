//! Per-subsystem metric groups and the whole-session aggregator.
//!
//! Each instrumented component *owns* its groups (the server's command
//! buffer a [`BufferStats`] and a [`SchedulerMetrics`], the translator
//! a [`TranslatorStats`], the client a [`ClientStats`], …) and updates
//! them inline on the hot path, one increment per event. A harness
//! assembles copies of all groups into a [`SessionTelemetry`]. The
//! counter groups are `Copy` tables of `u64`s and are read as they
//! are; [`SessionTelemetry::snapshot`] adds the figures that have to
//! be *derived* — quantiles, maxima, byte shares — as the plain-data
//! [`TelemetrySnapshot`].

use crate::command::CommandKind;
use crate::metrics::{Gauge, Histogram};
use crate::resilience::ResilienceMetrics;
use crate::timeline::Timeline;

/// Default bucket layout for wire-size histograms: 16 B to 512 KiB in
/// doubling buckets (plus the implicit overflow bucket).
fn size_histogram() -> Histogram {
    Histogram::exponential(16, 2, 16)
}

/// Per-command-type wire accounting: message counts and encoded
/// bytes, recorded where messages are committed to the wire.
///
/// ```
/// use thinc_telemetry::{CommandKind, ProtocolMetrics};
///
/// let mut m = ProtocolMetrics::new();
/// m.record(CommandKind::Sfill, 26);
/// m.record(CommandKind::Raw, 4096);
/// assert_eq!(m.count(CommandKind::Sfill), 1);
/// assert_eq!(m.total_bytes(), 4122);
/// let raw = m.rows().into_iter().find(|r| r.kind == CommandKind::Raw).unwrap();
/// assert!(raw.share > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolMetrics {
    counts: [u64; CommandKind::COUNT],
    bytes: [u64; CommandKind::COUNT],
    sizes: [Histogram; CommandKind::COUNT],
}

impl Default for ProtocolMetrics {
    fn default() -> Self {
        Self {
            counts: [0; CommandKind::COUNT],
            bytes: [0; CommandKind::COUNT],
            sizes: std::array::from_fn(|_| size_histogram()),
        }
    }
}

impl ProtocolMetrics {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `kind` occupying `wire_bytes` encoded
    /// bytes.
    pub fn record(&mut self, kind: CommandKind, wire_bytes: u64) {
        self.counts[kind.index()] += 1;
        self.bytes[kind.index()] += wire_bytes;
        self.sizes[kind.index()].record(wire_bytes);
    }

    /// The per-message wire-size histogram of `kind` (use
    /// [`Histogram::quantile`] for p50/p99 message sizes).
    pub fn size_histogram(&self, kind: CommandKind) -> &Histogram {
        &self.sizes[kind.index()]
    }

    /// Messages recorded for `kind`.
    pub fn count(&self, kind: CommandKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Encoded bytes recorded for `kind`.
    pub fn bytes(&self, kind: CommandKind) -> u64 {
        self.bytes[kind.index()]
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total encoded bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Adds another accounting into this one (used to combine the
    /// display path's records with the audio/video path's).
    pub fn merge(&mut self, other: &ProtocolMetrics) {
        for k in CommandKind::ALL {
            self.counts[k.index()] += other.count(k);
            self.bytes[k.index()] += other.bytes(k);
            self.sizes[k.index()].merge_from(&other.sizes[k.index()]);
        }
    }

    /// Per-kind breakdown rows (only kinds with traffic), with each
    /// row's share of total bytes.
    pub fn rows(&self) -> Vec<CommandRow> {
        let total = self.total_bytes().max(1) as f64;
        CommandKind::ALL
            .iter()
            .filter(|k| self.count(**k) > 0)
            .map(|&kind| CommandRow {
                kind,
                count: self.count(kind),
                bytes: self.bytes(kind),
                share: self.bytes(kind) as f64 / total,
            })
            .collect()
    }
}

/// One row of the per-command protocol breakdown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommandRow {
    /// Command/message type.
    pub kind: CommandKind,
    /// Messages sent.
    pub count: u64,
    /// Encoded wire bytes sent.
    pub bytes: u64,
    /// Fraction of total wire bytes (0–1).
    pub share: f64,
}

crate::counters! {
    /// Delivery counters of one per-client command buffer. The first
    /// seven rows are the buffer's checkpoint record, in this order.
    pub struct BufferStats {
        /// Commands pushed into the buffer.
        pushed,
        /// Commands evicted before ever being sent because a later
        /// command overwrote them.
        evicted,
        /// Commands merged into predecessors.
        merged,
        /// Protocol messages actually sent.
        sent_messages,
        /// Wire bytes actually sent.
        sent_bytes,
        /// Times a large command was split to avoid blocking.
        splits,
        /// Commands evicted to keep the buffer under its byte bound
        /// (their footprint becomes refresh debt).
        overflow_evicted,
        /// RAW payload bytes the compressor read at flush time, whether
        /// or not the encoding was used. Against the RAW bytes that
        /// shipped, this is the codec's wasted work.
        codec_input_bytes,
        /// RAW payload bytes whose wire form was settled without running
        /// the compressor (a remembered outcome, or a form another
        /// client already produced).
        codec_skipped_bytes,
    }
}

/// SRSF scheduler instrumentation that is not a count: per-band queue
/// depth and enqueue-to-wire flush latency. (Merges, evictions, splits
/// and codec work are rows of [`BufferStats`].)
///
/// ```
/// use thinc_telemetry::SchedulerMetrics;
///
/// let mut m = SchedulerMetrics::new(10);
/// m.sample_depth(3, 7, 2); // band 3 holds 7 commands, realtime holds 2
/// m.record_flush_latency_us(250);
/// assert_eq!(m.band_depth(3).max(), 7.0);
/// assert_eq!(m.flush_latency_us().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerMetrics {
    band_depth: Vec<Gauge>,
    realtime_depth: Gauge,
    flush_latency_us: Histogram,
}

impl SchedulerMetrics {
    /// Metrics for a scheduler with `num_bands` size-ordered queues.
    pub fn new(num_bands: usize) -> Self {
        Self {
            band_depth: vec![Gauge::new(); num_bands],
            realtime_depth: Gauge::new(),
            flush_latency_us: Histogram::latency_us(),
        }
    }

    /// Samples the depth of one size band and of the realtime queue.
    pub fn sample_depth(&mut self, band: usize, depth: usize, realtime_depth: usize) {
        if let Some(g) = self.band_depth.get_mut(band) {
            g.set(depth as f64);
        }
        self.realtime_depth.set(realtime_depth as f64);
    }

    /// Samples the realtime queue's depth alone (no size band
    /// involved).
    pub fn sample_realtime_depth(&mut self, depth: usize) {
        self.realtime_depth.set(depth as f64);
    }

    /// Records one command's enqueue-to-wire latency in microseconds
    /// of virtual time.
    pub fn record_flush_latency_us(&mut self, us: u64) {
        self.flush_latency_us.record(us);
    }

    /// Depth gauge of one size band.
    ///
    /// # Panics
    /// Panics if `band` is out of range.
    pub fn band_depth(&self, band: usize) -> &Gauge {
        &self.band_depth[band]
    }

    /// Number of size bands.
    pub fn num_bands(&self) -> usize {
        self.band_depth.len()
    }

    /// Depth gauge of the realtime (input-feedback) queue.
    pub fn realtime_depth(&self) -> &Gauge {
        &self.realtime_depth
    }

    /// Enqueue-to-wire latency histogram (µs of virtual time).
    pub fn flush_latency_us(&self) -> &Histogram {
        &self.flush_latency_us
    }
}

impl Default for SchedulerMetrics {
    fn default() -> Self {
        Self::new(10)
    }
}

crate::counters! {
    /// Translation-layer counters: device operations translated into
    /// each protocol command versus falling back to `RAW` pixels.
    pub struct TranslatorStats {
        /// `RAW` commands produced for the screen.
        raw,
        /// `COPY` commands produced.
        copy,
        /// `SFILL` commands produced.
        sfill,
        /// `PFILL` commands produced.
        pfill,
        /// `BITMAP` commands produced.
        bitmap,
        /// Times the translator fell back to raw pixel data.
        raw_fallbacks,
        /// Bytes of RAW pixel data produced by fallback paths.
        raw_fallback_bytes,
        /// Operations queued offscreen instead of sent.
        offscreen_queued,
        /// Offscreen queue executions (pixmap → screen copies).
        queue_executions,
    }
}

/// Network-path instrumentation sampled alongside the packet trace:
/// congestion-window size and link utilization.
///
/// ```
/// use thinc_telemetry::NetMetrics;
///
/// let mut m = NetMetrics::new();
/// m.sample(14_600.0, 0.35);
/// m.add_bytes(1500);
/// assert_eq!(m.cwnd_bytes().get(), 14_600.0);
/// assert_eq!(m.bytes_sent(), 1500);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NetMetrics {
    cwnd_bytes: Gauge,
    utilization: Gauge,
    bytes_sent: u64,
}

impl NetMetrics {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the TCP congestion window (bytes) and downlink
    /// utilization (0–1).
    pub fn sample(&mut self, cwnd_bytes: f64, utilization: f64) {
        self.cwnd_bytes.set(cwnd_bytes);
        self.utilization.set(utilization);
    }

    /// Adds sent payload bytes.
    pub fn add_bytes(&mut self, n: u64) {
        self.bytes_sent += n;
    }

    /// Congestion-window gauge (bytes).
    pub fn cwnd_bytes(&self) -> &Gauge {
        &self.cwnd_bytes
    }

    /// Link-utilization gauge (fraction of serialization capacity
    /// used since session start).
    pub fn utilization(&self) -> &Gauge {
        &self.utilization
    }

    /// Total payload bytes sent downlink.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

crate::counters! {
    /// Client execution counters.
    pub struct ClientStats {
        /// Messages applied.
        messages,
        /// `RAW` commands executed.
        raw,
        /// `COPY` commands executed.
        copy,
        /// `SFILL` commands executed.
        sfill,
        /// `PFILL` commands executed.
        pfill,
        /// `BITMAP` commands executed.
        bitmap,
        /// Video frames displayed.
        video_frames,
        /// Audio bytes received.
        audio_bytes,
        /// Messages rejected as malformed or failing to execute.
        errors,
    }
}

/// A whole session's telemetry: the groups of every instrumented
/// subsystem plus the sampled [`Timeline`].
///
/// Components own and update their groups live; a harness copies them
/// into this aggregator (see `ThincSystem::session_telemetry` in
/// `thinc-bench`), reads counts straight off the groups, renders the
/// derived figures from [`SessionTelemetry::snapshot`] and exports the
/// timeline with [`SessionTelemetry::export_jsonl`].
///
/// ```
/// use thinc_telemetry::{CommandKind, SessionTelemetry};
///
/// let mut s = SessionTelemetry::new(10);
/// s.protocol.record(CommandKind::Sfill, 26);
/// s.buffer.merged += 1;
/// s.timeline.record(2_000, "net.cwnd_bytes", 4096.0);
/// let snap = s.snapshot();
/// assert_eq!(snap.commands.len(), 1);
/// assert_eq!(snap.total_bytes, 26);
/// assert_eq!(s.buffer.merged(), 1);
/// assert!(s.export_jsonl().contains("cwnd"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTelemetry {
    /// Per-command wire accounting.
    pub protocol: ProtocolMetrics,
    /// Command-buffer delivery counters.
    pub buffer: BufferStats,
    /// Scheduler queue depths and flush latency.
    pub scheduler: SchedulerMetrics,
    /// Translation-layer counters.
    pub translator: TranslatorStats,
    /// Network-path gauges.
    pub net: NetMetrics,
    /// Client execution counters.
    pub client: ClientStats,
    /// Client request-to-screen latency (µs of virtual time).
    pub frame_latency_us: Histogram,
    /// Fault and resilience counters.
    pub resilience: ResilienceMetrics,
    /// Sampled metric timeline.
    pub timeline: Timeline,
}

impl SessionTelemetry {
    /// An empty session for a scheduler with `num_bands` size queues.
    pub fn new(num_bands: usize) -> Self {
        Self {
            protocol: ProtocolMetrics::new(),
            buffer: BufferStats::default(),
            scheduler: SchedulerMetrics::new(num_bands),
            translator: TranslatorStats::default(),
            net: NetMetrics::new(),
            client: ClientStats::default(),
            frame_latency_us: Histogram::latency_us(),
            resilience: ResilienceMetrics::new(),
            timeline: Timeline::new(),
        }
    }

    /// The figures a report has to derive from the live groups:
    /// per-command byte shares, queue-depth maxima, latency quantiles.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let flush = self.scheduler.flush_latency_us();
        TelemetrySnapshot {
            commands: self.protocol.rows(),
            total_messages: self.protocol.total_messages(),
            total_bytes: self.protocol.total_bytes(),
            band_depth_max: (0..self.scheduler.num_bands())
                .map(|b| self.scheduler.band_depth(b).max() as u64)
                .collect(),
            realtime_depth_max: self.scheduler.realtime_depth().max() as u64,
            flush_latency_mean_us: flush.mean(),
            flush_latency_p50_us: flush.quantile(0.5),
            flush_latency_p99_us: flush.quantile(0.99),
            flushed: flush.count(),
            cwnd_bytes_max: self.net.cwnd_bytes().max() as u64,
            utilization_max: self.net.utilization().max(),
            frame_latency_mean_us: self.frame_latency_us.mean(),
            frame_latency_p99_us: self.frame_latency_us.quantile(0.99),
            frames: self.frame_latency_us.count(),
        }
    }

    /// Exports the timeline as JSON Lines (see `docs/TELEMETRY.md`
    /// for the schema).
    pub fn export_jsonl(&self) -> String {
        self.timeline.to_jsonl()
    }
}

/// The derived figures of a session: what a report cannot read
/// straight off a counter group.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-command breakdown (kinds with traffic only).
    pub commands: Vec<CommandRow>,
    /// Total messages across all kinds.
    pub total_messages: u64,
    /// Total encoded wire bytes across all kinds.
    pub total_bytes: u64,
    /// High-water queue depth per size band.
    pub band_depth_max: Vec<u64>,
    /// High-water depth of the realtime queue.
    pub realtime_depth_max: u64,
    /// Mean enqueue-to-wire latency (µs).
    pub flush_latency_mean_us: f64,
    /// Median enqueue-to-wire latency (µs, bucket resolution).
    pub flush_latency_p50_us: u64,
    /// 99th-percentile enqueue-to-wire latency (µs, bucket
    /// resolution).
    pub flush_latency_p99_us: u64,
    /// Commands whose flush latency was recorded.
    pub flushed: u64,
    /// Largest sampled congestion window (bytes).
    pub cwnd_bytes_max: u64,
    /// Largest sampled link utilization (0–1).
    pub utilization_max: f64,
    /// Mean request-to-screen latency (µs).
    pub frame_latency_mean_us: f64,
    /// 99th-percentile request-to-screen latency (µs, bucket
    /// resolution).
    pub frame_latency_p99_us: u64,
    /// Updates whose request-to-screen latency was recorded.
    pub frames: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_rows_share_sums_to_one() {
        let mut m = ProtocolMetrics::new();
        m.record(CommandKind::Raw, 750);
        m.record(CommandKind::Copy, 150);
        m.record(CommandKind::Sfill, 100);
        let rows = m.rows();
        assert_eq!(rows.len(), 3);
        let total_share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9);
        assert_eq!(m.total_messages(), 3);
    }

    #[test]
    fn protocol_merge_adds_both_sides() {
        let mut display = ProtocolMetrics::new();
        display.record(CommandKind::Raw, 100);
        let mut av = ProtocolMetrics::new();
        av.record(CommandKind::Video, 900);
        display.merge(&av);
        assert_eq!(display.total_bytes(), 1000);
        assert_eq!(display.count(CommandKind::Video), 1);
        assert_eq!(display.size_histogram(CommandKind::Video).count(), 1);
    }

    #[test]
    fn protocol_size_histogram_tracks_quantiles() {
        let mut m = ProtocolMetrics::new();
        for _ in 0..99 {
            m.record(CommandKind::Sfill, 26);
        }
        m.record(CommandKind::Sfill, 4000);
        let h = m.size_histogram(CommandKind::Sfill);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 32); // Bucket bound covering 26 B.
        assert_eq!(h.quantile(1.0), 4096);
        assert_eq!(m.size_histogram(CommandKind::Raw).count(), 0);
    }

    #[test]
    fn scheduler_depth_sampling_ignores_out_of_range_band() {
        let mut m = SchedulerMetrics::new(2);
        m.sample_depth(5, 100, 1); // Out-of-range band: realtime still sampled.
        assert_eq!(m.realtime_depth().max(), 1.0);
        assert_eq!(m.band_depth(0).max(), 0.0);
    }

    #[test]
    fn snapshot_derives_maxima_and_quantiles() {
        let mut s = SessionTelemetry::new(4);
        s.protocol.record(CommandKind::Bitmap, 64);
        s.scheduler.sample_depth(1, 6, 0);
        s.scheduler.record_flush_latency_us(300);
        s.net.sample(4096.0, 0.5);
        s.net.sample(1024.0, 0.25);
        s.frame_latency_us.record(900);
        let snap = s.snapshot();
        assert_eq!(snap.commands[0].kind, CommandKind::Bitmap);
        assert_eq!(snap.band_depth_max[1], 6);
        assert_eq!((snap.flushed, snap.flush_latency_p50_us), (1, 400));
        assert_eq!((snap.cwnd_bytes_max, snap.utilization_max), (4096, 0.5));
        assert_eq!((snap.frames, snap.frame_latency_p99_us), (1, 1600));
    }
}
