//! Per-subsystem metric groups and the whole-session aggregator.
//!
//! Each instrumented component *owns* its group (the server's command
//! buffer owns a [`SchedulerMetrics`], the translator a
//! [`TranslatorMetrics`], …) and updates it inline on the hot path.
//! A harness assembles clones of all groups into a
//! [`SessionTelemetry`], whose [`SessionTelemetry::snapshot`] yields
//! the plain-data [`TelemetrySnapshot`] that reports are built from.

use crate::command::CommandKind;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::resilience::{ResilienceMetrics, ResilienceSnapshot};
use crate::timeline::Timeline;

/// Default bucket layout for latency histograms: 100 µs to ~1.6 s in
/// doubling buckets (plus the implicit overflow bucket).
fn latency_histogram() -> Histogram {
    Histogram::exponential(100, 2, 15)
}

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
    counts: [Counter; CommandKind::COUNT],
    bytes: [Counter; CommandKind::COUNT],
    sizes: [Histogram; CommandKind::COUNT],
}

impl Default for ProtocolMetrics {
    fn default() -> Self {
        Self {
            counts: Default::default(),
            bytes: Default::default(),
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
        self.counts[kind.index()].inc();
        self.bytes[kind.index()].add(wire_bytes);
        self.sizes[kind.index()].record(wire_bytes);
    }

    /// The per-message wire-size histogram of `kind` (use
    /// [`Histogram::quantile`] for p50/p99 message sizes).
    pub fn size_histogram(&self, kind: CommandKind) -> &Histogram {
        &self.sizes[kind.index()]
    }

    /// Messages recorded for `kind`.
    pub fn count(&self, kind: CommandKind) -> u64 {
        self.counts[kind.index()].get()
    }

    /// Encoded bytes recorded for `kind`.
    pub fn bytes(&self, kind: CommandKind) -> u64 {
        self.bytes[kind.index()].get()
    }

    /// Total messages across all kinds.
    pub fn total_messages(&self) -> u64 {
        self.counts.iter().map(Counter::get).sum()
    }

    /// Total encoded bytes across all kinds.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(Counter::get).sum()
    }

    /// Adds another accounting into this one (used to combine the
    /// display path's records with the audio/video path's).
    pub fn merge(&mut self, other: &ProtocolMetrics) {
        for k in CommandKind::ALL {
            self.counts[k.index()].add(other.count(k));
            self.bytes[k.index()].add(other.bytes(k));
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

/// SRSF scheduler and command-buffer instrumentation: per-band queue
/// depth, merge/eviction counts, enqueue-to-wire flush latency, and
/// how much RAW payload the flush path fed to the codec versus
/// resolved without it.
///
/// ```
/// use thinc_telemetry::SchedulerMetrics;
///
/// let mut m = SchedulerMetrics::new(10);
/// m.record_merge();
/// m.record_eviction();
/// m.sample_depth(3, 7, 2); // band 3 holds 7 commands, realtime holds 2
/// m.record_flush_latency_us(250);
/// m.record_codec_input(4096); // the encoder read 4 KiB of a RAW payload
/// m.record_codec_skipped(65536); // a 64 KiB payload needed no encode
/// assert_eq!(m.merges(), 1);
/// assert_eq!(m.codec_input_bytes(), 4096);
/// assert_eq!(m.codec_skipped_bytes(), 65536);
/// assert_eq!(m.band_depth(3).max(), 7.0);
/// assert_eq!(m.flush_latency_us().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerMetrics {
    band_depth: Vec<Gauge>,
    realtime_depth: Gauge,
    merges: Counter,
    evictions: Counter,
    splits: Counter,
    flush_latency_us: Histogram,
    codec_input_bytes: Counter,
    codec_skipped_bytes: Counter,
}

impl SchedulerMetrics {
    /// Metrics for a scheduler with `num_bands` size-ordered queues.
    pub fn new(num_bands: usize) -> Self {
        Self {
            band_depth: vec![Gauge::new(); num_bands],
            realtime_depth: Gauge::new(),
            merges: Counter::new(),
            evictions: Counter::new(),
            splits: Counter::new(),
            flush_latency_us: latency_histogram(),
            codec_input_bytes: Counter::new(),
            codec_skipped_bytes: Counter::new(),
        }
    }

    /// Records that two buffered commands were merged into one.
    pub fn record_merge(&mut self) {
        self.merges.inc();
    }

    /// Records that an overwritten command was evicted unsent.
    pub fn record_eviction(&mut self) {
        self.evictions.inc();
    }

    /// Records that a large command was split to fit socket space.
    pub fn record_split(&mut self) {
        self.splits.inc();
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

    /// Records `bytes` of RAW payload read by the compressor at flush
    /// time, whether or not the encoding was used.
    pub fn record_codec_input(&mut self, bytes: u64) {
        self.codec_input_bytes.add(bytes);
    }

    /// Records a RAW payload of `bytes` whose wire form was settled
    /// without running the compressor (a remembered outcome, or a form
    /// another client already produced).
    pub fn record_codec_skipped(&mut self, bytes: u64) {
        self.codec_skipped_bytes.add(bytes);
    }

    /// Commands merged into predecessors.
    pub fn merges(&self) -> u64 {
        self.merges.get()
    }

    /// Commands evicted before sending.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Commands split for non-blocking delivery.
    pub fn splits(&self) -> u64 {
        self.splits.get()
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

    /// RAW payload bytes the compressor read at flush time. Against
    /// the RAW bytes that shipped, this is the codec's wasted work.
    pub fn codec_input_bytes(&self) -> u64 {
        self.codec_input_bytes.get()
    }

    /// RAW payload bytes whose wire form needed no compressor run.
    pub fn codec_skipped_bytes(&self) -> u64 {
        self.codec_skipped_bytes.get()
    }
}

impl Default for SchedulerMetrics {
    fn default() -> Self {
        Self::new(10)
    }
}

/// Translation-layer instrumentation: device operations translated
/// into each protocol command versus falling back to `RAW` pixels.
///
/// ```
/// use thinc_telemetry::{CommandKind, TranslatorMetrics};
///
/// let mut m = TranslatorMetrics::new();
/// m.record_translated(CommandKind::Copy);
/// m.record_raw_fallback(1200);
/// assert_eq!(m.translated(CommandKind::Copy), 1);
/// assert_eq!(m.raw_fallback_bytes(), 1200);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TranslatorMetrics {
    translated: [Counter; CommandKind::COUNT],
    raw_fallbacks: Counter,
    raw_fallback_bytes: Counter,
    offscreen_queued: Counter,
    queue_executions: Counter,
}

impl TranslatorMetrics {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a device operation translated one-to-one into `kind`.
    pub fn record_translated(&mut self, kind: CommandKind) {
        self.translated[kind.index()].inc();
    }

    /// Records a fallback to raw pixels covering `bytes` of data.
    pub fn record_raw_fallback(&mut self, bytes: u64) {
        self.raw_fallbacks.inc();
        self.raw_fallback_bytes.add(bytes);
    }

    /// Records a command routed to an offscreen (pixmap) queue.
    pub fn record_offscreen_queued(&mut self) {
        self.offscreen_queued.inc();
    }

    /// Records an offscreen queue executed because its pixmap was
    /// copied onscreen.
    pub fn record_queue_execution(&mut self) {
        self.queue_executions.inc();
    }

    /// Operations translated into `kind`.
    pub fn translated(&self, kind: CommandKind) -> u64 {
        self.translated[kind.index()].get()
    }

    /// Total operations translated into protocol commands.
    pub fn total_translated(&self) -> u64 {
        self.translated.iter().map(Counter::get).sum()
    }

    /// Times the translator fell back to raw pixel data.
    pub fn raw_fallbacks(&self) -> u64 {
        self.raw_fallbacks.get()
    }

    /// Raw pixel bytes produced by fallbacks.
    pub fn raw_fallback_bytes(&self) -> u64 {
        self.raw_fallback_bytes.get()
    }

    /// Commands queued against offscreen pixmaps.
    pub fn offscreen_queued(&self) -> u64 {
        self.offscreen_queued.get()
    }

    /// Offscreen queues executed onscreen.
    pub fn queue_executions(&self) -> u64 {
        self.queue_executions.get()
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
    bytes_sent: Counter,
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
        self.bytes_sent.add(n);
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
        self.bytes_sent.get()
    }
}

/// Client-side instrumentation: per-kind decode counts and
/// request-to-screen frame-update latency.
///
/// ```
/// use thinc_telemetry::{ClientMetrics, CommandKind};
///
/// let mut m = ClientMetrics::new();
/// m.record_decoded(CommandKind::Bitmap);
/// m.record_frame_latency_us(850);
/// assert_eq!(m.decoded(CommandKind::Bitmap), 1);
/// assert_eq!(m.frame_latency_us().count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ClientMetrics {
    decoded: [Counter; CommandKind::COUNT],
    decode_errors: Counter,
    frame_latency_us: Histogram,
}

impl ClientMetrics {
    /// Empty accounting.
    pub fn new() -> Self {
        Self {
            decoded: Default::default(),
            decode_errors: Counter::new(),
            frame_latency_us: latency_histogram(),
        }
    }

    /// Records one decoded-and-executed message of `kind`.
    pub fn record_decoded(&mut self, kind: CommandKind) {
        self.decoded[kind.index()].inc();
    }

    /// Records a message the client failed to execute.
    pub fn record_decode_error(&mut self) {
        self.decode_errors.inc();
    }

    /// Records one update's request-to-screen latency in microseconds
    /// of virtual time.
    pub fn record_frame_latency_us(&mut self, us: u64) {
        self.frame_latency_us.record(us);
    }

    /// Messages of `kind` decoded and executed.
    pub fn decoded(&self, kind: CommandKind) -> u64 {
        self.decoded[kind.index()].get()
    }

    /// Total messages decoded across kinds.
    pub fn total_decoded(&self) -> u64 {
        self.decoded.iter().map(Counter::get).sum()
    }

    /// Messages that failed to execute.
    pub fn decode_errors(&self) -> u64 {
        self.decode_errors.get()
    }

    /// Request-to-screen latency histogram (µs of virtual time).
    pub fn frame_latency_us(&self) -> &Histogram {
        &self.frame_latency_us
    }
}

impl Default for ClientMetrics {
    fn default() -> Self {
        Self::new()
    }
}

/// A whole session's telemetry: one group per instrumented subsystem
/// plus the sampled [`Timeline`].
///
/// Components own and update their groups live; a harness clones them
/// into this aggregator (see `ThincSystem::session_telemetry` in
/// `thinc-bench`) and renders reports from [`SessionTelemetry::snapshot`]
/// or exports the timeline with [`SessionTelemetry::export_jsonl`].
///
/// ```
/// use thinc_telemetry::{CommandKind, SessionTelemetry};
///
/// let mut s = SessionTelemetry::new(10);
/// s.protocol.record(CommandKind::Sfill, 26);
/// s.timeline.record(2_000, "net.cwnd_bytes", 4096.0);
/// let snap = s.snapshot();
/// assert_eq!(snap.commands.len(), 1);
/// assert_eq!(snap.total_bytes, 26);
/// assert!(s.export_jsonl().contains("cwnd"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionTelemetry {
    /// Per-command wire accounting.
    pub protocol: ProtocolMetrics,
    /// Scheduler / command-buffer metrics.
    pub scheduler: SchedulerMetrics,
    /// Translation-layer metrics.
    pub translator: TranslatorMetrics,
    /// Network-path gauges.
    pub net: NetMetrics,
    /// Client-side metrics.
    pub client: ClientMetrics,
    /// Fault and resilience counters.
    pub resilience: ResilienceMetrics,
    /// Sampled metric timeline.
    pub timeline: Timeline,
}

impl SessionTelemetry {
    /// An empty session for a scheduler with `num_bands` size queues.
    pub fn new(num_bands: usize) -> Self {
        Self {
            scheduler: SchedulerMetrics::new(num_bands),
            ..Self::default()
        }
    }

    /// A plain-data snapshot of every group, ready for reporting.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            commands: self.protocol.rows(),
            total_messages: self.protocol.total_messages(),
            total_bytes: self.protocol.total_bytes(),
            scheduler: SchedulerSnapshot {
                band_depth_max: (0..self.scheduler.num_bands())
                    .map(|b| self.scheduler.band_depth(b).max() as u64)
                    .collect(),
                realtime_depth_max: self.scheduler.realtime_depth().max() as u64,
                merges: self.scheduler.merges(),
                evictions: self.scheduler.evictions(),
                splits: self.scheduler.splits(),
                flush_latency_mean_us: self.scheduler.flush_latency_us().mean(),
                flush_latency_p50_us: self.scheduler.flush_latency_us().quantile(0.5),
                flush_latency_p99_us: self.scheduler.flush_latency_us().quantile(0.99),
                flushed: self.scheduler.flush_latency_us().count(),
                codec_input_bytes: self.scheduler.codec_input_bytes(),
                codec_skipped_bytes: self.scheduler.codec_skipped_bytes(),
            },
            translator: TranslatorSnapshot {
                translated: CommandKind::ALL
                    .iter()
                    .filter(|k| self.translator.translated(**k) > 0)
                    .map(|&k| (k, self.translator.translated(k)))
                    .collect(),
                raw_fallbacks: self.translator.raw_fallbacks(),
                raw_fallback_bytes: self.translator.raw_fallback_bytes(),
                offscreen_queued: self.translator.offscreen_queued(),
                queue_executions: self.translator.queue_executions(),
            },
            net: NetSnapshot {
                cwnd_bytes: self.net.cwnd_bytes().get() as u64,
                cwnd_bytes_max: self.net.cwnd_bytes().max() as u64,
                utilization: self.net.utilization().get(),
                utilization_max: self.net.utilization().max(),
                bytes_sent: self.net.bytes_sent(),
            },
            client: ClientSnapshot {
                decoded: CommandKind::ALL
                    .iter()
                    .filter(|k| self.client.decoded(**k) > 0)
                    .map(|&k| (k, self.client.decoded(k)))
                    .collect(),
                decode_errors: self.client.decode_errors(),
                frame_latency_mean_us: self.client.frame_latency_us().mean(),
                frame_latency_p99_us: self.client.frame_latency_us().quantile(0.99),
                frames: self.client.frame_latency_us().count(),
            },
            resilience: self.resilience.snapshot(),
        }
    }

    /// Exports the timeline as JSON Lines (see `docs/TELEMETRY.md`
    /// for the schema).
    pub fn export_jsonl(&self) -> String {
        self.timeline.to_jsonl()
    }
}

/// Plain-data snapshot of a session (everything a report needs,
/// no live metric types).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Per-command breakdown (kinds with traffic only).
    pub commands: Vec<CommandRow>,
    /// Total messages across all kinds.
    pub total_messages: u64,
    /// Total encoded wire bytes across all kinds.
    pub total_bytes: u64,
    /// Scheduler summary.
    pub scheduler: SchedulerSnapshot,
    /// Translator summary.
    pub translator: TranslatorSnapshot,
    /// Network summary.
    pub net: NetSnapshot,
    /// Client summary.
    pub client: ClientSnapshot,
    /// Fault and resilience summary.
    pub resilience: ResilienceSnapshot,
}

/// Scheduler/buffer summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSnapshot {
    /// High-water queue depth per size band.
    pub band_depth_max: Vec<u64>,
    /// High-water depth of the realtime queue.
    pub realtime_depth_max: u64,
    /// Commands merged into predecessors.
    pub merges: u64,
    /// Commands evicted before sending.
    pub evictions: u64,
    /// Commands split for non-blocking delivery.
    pub splits: u64,
    /// Mean enqueue-to-wire latency (µs).
    pub flush_latency_mean_us: f64,
    /// Median enqueue-to-wire latency (µs, bucket resolution).
    pub flush_latency_p50_us: u64,
    /// 99th-percentile enqueue-to-wire latency (µs, bucket
    /// resolution).
    pub flush_latency_p99_us: u64,
    /// Commands whose flush latency was recorded.
    pub flushed: u64,
    /// RAW payload bytes the compressor read at flush time.
    pub codec_input_bytes: u64,
    /// RAW payload bytes whose wire form needed no compressor run.
    pub codec_skipped_bytes: u64,
}

/// Translator summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslatorSnapshot {
    /// Operations translated per command kind (nonzero kinds only).
    pub translated: Vec<(CommandKind, u64)>,
    /// Times the translator fell back to raw pixels.
    pub raw_fallbacks: u64,
    /// Raw pixel bytes produced by fallbacks.
    pub raw_fallback_bytes: u64,
    /// Commands queued against offscreen pixmaps.
    pub offscreen_queued: u64,
    /// Offscreen queues executed onscreen.
    pub queue_executions: u64,
}

/// Network summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetSnapshot {
    /// Last sampled congestion window (bytes).
    pub cwnd_bytes: u64,
    /// Largest sampled congestion window (bytes).
    pub cwnd_bytes_max: u64,
    /// Last sampled link utilization (0–1).
    pub utilization: f64,
    /// Largest sampled link utilization (0–1).
    pub utilization_max: f64,
    /// Total payload bytes sent downlink.
    pub bytes_sent: u64,
}

/// Client summary inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ClientSnapshot {
    /// Messages decoded per command kind (nonzero kinds only).
    pub decoded: Vec<(CommandKind, u64)>,
    /// Messages that failed to execute.
    pub decode_errors: u64,
    /// Mean request-to-screen latency (µs).
    pub frame_latency_mean_us: f64,
    /// 99th-percentile request-to-screen latency (µs, bucket
    /// resolution).
    pub frame_latency_p99_us: u64,
    /// Updates whose latency was recorded.
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
    fn snapshot_mirrors_live_groups() {
        let mut s = SessionTelemetry::new(4);
        s.protocol.record(CommandKind::Bitmap, 64);
        s.scheduler.record_merge();
        s.scheduler.sample_depth(1, 6, 0);
        s.scheduler.record_flush_latency_us(300);
        s.scheduler.record_codec_input(2048);
        s.scheduler.record_codec_skipped(512);
        s.translator.record_translated(CommandKind::Bitmap);
        s.translator.record_raw_fallback(512);
        s.net.sample(4096.0, 0.5);
        s.net.add_bytes(64);
        s.client.record_decoded(CommandKind::Bitmap);
        s.client.record_frame_latency_us(900);
        let snap = s.snapshot();
        assert_eq!(snap.commands[0].kind, CommandKind::Bitmap);
        assert_eq!(snap.scheduler.merges, 1);
        assert_eq!(snap.scheduler.band_depth_max[1], 6);
        assert_eq!(snap.scheduler.flushed, 1);
        assert_eq!(snap.scheduler.codec_input_bytes, 2048);
        assert_eq!(snap.scheduler.codec_skipped_bytes, 512);
        assert_eq!(snap.translator.raw_fallback_bytes, 512);
        assert_eq!(snap.net.cwnd_bytes, 4096);
        assert_eq!(snap.client.decoded, vec![(CommandKind::Bitmap, 1)]);
        assert_eq!(snap.client.frames, 1);
    }
}
