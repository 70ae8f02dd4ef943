//! Encode-once plane accounting and per-shard telemetry for the
//! broadcast fan-out.
//!
//! The sharded session manager partitions clients into deterministic
//! shards and flushes each shard per epoch against a shared
//! encode-once payload plane. Every flush tallies its plane traffic in
//! a [`PlaneCounters`]; each shard folds those into its
//! [`ShardMetrics`], which the figures/perfgate layer merges for
//! aggregate views (fairness spread, shared-payload hit ratio,
//! per-shard flush wall time).

use crate::metrics::{Gauge, Histogram};

crate::counters! {
    /// Deterministic accounting for the encode-once plane, accumulated
    /// per client during a flush and merged in client order afterwards.
    pub struct PlaneCounters {
        /// Messages sent whose wire form came from the plane.
        shared_sends,
        /// Sum of those messages' full-form sizes (before any per-client
        /// cache-ref substitution) — what every client *would* have
        /// encoded on its own.
        shared_bytes,
        /// Wire forms actually produced (one per equivalence class that
        /// reached the wire); independent of shard and worker counts.
        encodes,
        /// Bytes of wire forms actually produced.
        encoded_bytes,
    }
}

impl PlaneCounters {
    /// Fraction of plane-served sends that reused an already-produced
    /// wire form (0 when nothing went through the plane).
    pub fn hit_ratio(&self) -> f64 {
        if self.shared_sends == 0 {
            return 0.0;
        }
        (self.shared_sends - self.encodes.min(self.shared_sends)) as f64
            / self.shared_sends as f64
    }

    /// Encode output bytes the plane saved clients from producing
    /// themselves.
    pub fn bytes_amortized(&self) -> u64 {
        self.shared_bytes.saturating_sub(self.encoded_bytes)
    }
}

/// Metrics for one shard of a fan-out session.
#[derive(Debug, Clone)]
pub struct ShardMetrics {
    /// Plane traffic attributed to this shard, summed over its epochs.
    pub plane: PlaneCounters,
    /// Flush epochs this shard has run.
    pub epochs: u64,
    /// Clients currently assigned to this shard.
    clients: Gauge,
    /// Wall-clock microseconds per shard flush (report-only — wall
    /// time is not deterministic; the gated latency metrics come from
    /// the virtual-time scheduler histograms).
    flush_wall_us: Histogram,
}

impl ShardMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            plane: PlaneCounters::default(),
            epochs: 0,
            clients: Gauge::new(),
            flush_wall_us: Histogram::exponential(8, 2, 24),
        }
    }

    /// Records one flush epoch taking `wall_us` microseconds of wall
    /// time, with the plane traffic attributed to this shard.
    pub fn record_epoch(&mut self, wall_us: u64, plane: &PlaneCounters) {
        self.epochs += 1;
        self.flush_wall_us.record(wall_us);
        self.plane.merge(plane);
    }

    /// Updates the client-count gauge.
    pub fn set_clients(&mut self, n: usize) {
        self.clients.set(n as f64);
    }

    /// Clients currently assigned to this shard.
    pub fn clients(&self) -> u64 {
        self.clients.get() as u64
    }

    /// Wall-time histogram of shard flushes (µs).
    pub fn flush_wall_us(&self) -> &Histogram {
        &self.flush_wall_us
    }
}

impl Default for ShardMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_accumulate() {
        let mut m = ShardMetrics::new();
        m.set_clients(128);
        let first = PlaneCounters { shared_sends: 10, shared_bytes: 1000, encodes: 2, encoded_bytes: 200 };
        let second = PlaneCounters { shared_sends: 10, shared_bytes: 1000, ..PlaneCounters::default() };
        m.record_epoch(250, &first);
        m.record_epoch(150, &second);
        assert_eq!(m.epochs, 2);
        assert_eq!(m.clients(), 128);
        assert_eq!(m.plane.shared_sends, 20);
        assert_eq!(m.plane.encodes, 2);
        assert!((m.plane.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(m.plane.bytes_amortized(), 1800);
        assert_eq!(m.flush_wall_us().count(), 2);
    }

    #[test]
    fn zero_sends_is_zero_ratio() {
        let m = PlaneCounters::default();
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.bytes_amortized(), 0);
    }
}
