//! Fault and resilience instrumentation.
//!
//! Everything the degraded-network story produces — injected faults
//! observed at the transport, graceful-degradation evictions in the
//! per-client buffers, liveness timeouts, and reconnect/resync
//! events — is counted here, in one group, so a single copy of it
//! answers "what did the network do to this session and how did the
//! system cope".
//!
//! Ownership follows the same rule as every other group: the
//! component that observes the event counts it, once. Rows with a
//! recorder are events a `Delivery` or a stream client records as they
//! happen (timeouts, resyncs, resumes). Rows without one arrive by
//! `merge` from the component that tallies them — the link's
//! `FaultStats`, the command buffer's overflow evictions and cache
//! ledger, the frame reader's integrity verdicts — each handed over by
//! field name, and a harness merges the pieces into the session
//! aggregate.

crate::counters! {
    /// Fault-injection and resilience counters for one session.
    ///
    /// ```
    /// use thinc_telemetry::ResilienceMetrics;
    ///
    /// let mut m = ResilienceMetrics::new();
    /// m.record_reconnect();
    /// m.record_stream_resync(40);
    /// m.record_cache_hit(4000);
    /// assert_eq!(m.reconnects(), 1);
    /// assert_eq!(m.skipped_bytes, 40);
    /// assert_eq!(m.cache_bytes_saved(), 4000);
    /// ```
    pub struct ResilienceMetrics {
        /// Transport segments lost to injected loss.
        segments_lost,
        /// Retransmission rounds triggered by a loss.
        retransmits,
        /// Corruption events (sends that damaged at least one byte).
        corrupt_events,
        /// Payload bytes damaged by corruption.
        corrupted_bytes,
        /// Sends deferred (or stalled mid-transfer) by an outage window.
        outage_defers,
        /// Congestion rounds the link served at collapsed rate.
        collapsed_rounds,
        /// Segments delivered out of order by the transport.
        segments_reordered,
        /// Segments delivered more than once by the transport.
        segments_duplicated,
        /// Buffered commands evicted to keep a per-client buffer under
        /// its byte bound.
        overflow_evictions,
        /// Stale video frames dropped under backpressure.
        stale_video_dropped => record_stale_video_drop,
        /// Clients declared dead by the liveness tracker.
        liveness_timeouts => record_liveness_timeout,
        /// Heartbeat pings sent to probe an idle peer.
        pings_sent => record_ping_sent,
        /// Clients reconnecting to the session.
        reconnects => record_reconnect,
        /// Full resynchronizations (screen refresh + cursor + video
        /// stream re-establishment).
        resyncs => record_resync,
        /// Wire decode errors the receiver survived.
        decode_errors => record_decode_error,
        /// Times the receiver scanned past damage to a new frame
        /// boundary.
        stream_resyncs,
        /// Bytes skipped while scanning past damage.
        skipped_bytes,
        /// Undecoded bytes dropped by a reader reset (reconnect, stall
        /// recovery): whatever frames they held never arrived.
        reset_discarded_bytes => record_reset_discard(n),
        /// Frames rejected because their CRC32 failed verification
        /// (integrity framing, protocol revision 2).
        crc_failures,
        /// Forward sequence-number gaps (frames lost in transit while
        /// framing stayed parseable).
        seq_gaps,
        /// Frames dropped as duplicates or sequence rollbacks.
        seq_dups,
        /// Integrity failures escalated into a recovery action (refresh
        /// request / full resync) rather than absorbed silently.
        resyncs_triggered => record_resync_triggered,
        /// Cache-reference hits: full payloads replaced by a compact
        /// reference (protocol revision 3).
        cache_hits,
        /// Cache references that failed to resolve (each costs a
        /// full-payload fallback round trip).
        cache_misses => record_cache_miss,
        /// Entries evicted from a cache ledger or store to stay within
        /// its byte budget.
        cache_evictions => record_cache_evictions(n),
        /// Wire bytes saved by reference substitution.
        cache_bytes_saved,
        /// Per-client panics caught by the parallel flush and turned
        /// into a quarantine instead of a session teardown.
        panics_quarantined => record_panic_quarantined,
        /// Warm resumes: a redialing client's resume token honored
        /// against a restored checkpoint, so only the
        /// checkpoint-to-live delta travels.
        resumes => record_resume,
        /// Resume attempts that could not be honored (stale or corrupt
        /// token/checkpoint, unknown client, digest mismatch) and fell
        /// back to the cold reconnect path.
        cold_fallbacks => record_cold_fallback,
        /// Fidelity reductions performed by the degradation controller.
        degrade_steps,
        /// Fidelity restorations performed by the degradation controller.
        promote_steps,
        /// Current degradation-ladder level (0 = full fidelity): a
        /// state, not a count, so merged views keep the deeper side.
        degradation_level: max,
        /// Deepest degradation-ladder level reached.
        max_degradation_level: max,
    }
}

impl ResilienceMetrics {
    /// Empty accounting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the receiver scanning past damage to a new frame
    /// boundary, skipping `bytes`.
    pub fn record_stream_resync(&mut self, bytes: u64) {
        self.stream_resyncs += 1;
        self.skipped_bytes += bytes;
    }

    /// Records a cache-reference hit saving `bytes_saved` wire bytes.
    pub fn record_cache_hit(&mut self, bytes_saved: u64) {
        self.cache_hits += 1;
        self.cache_bytes_saved += bytes_saved;
    }

    /// Records a degradation-ladder step and the level it landed on
    /// (`level` is the ladder index, 0 = full fidelity). Demotions
    /// and promotions count separately.
    pub fn record_degradation_step(&mut self, level: u64, demotion: bool) {
        if demotion {
            self.degrade_steps += 1;
        } else {
            self.promote_steps += 1;
        }
        self.degradation_level = level;
        self.max_degradation_level = self.max_degradation_level.max(level);
    }

    /// All injected-fault events combined (loss + corruption +
    /// outage stalls).
    pub fn total_faults(&self) -> u64 {
        self.segments_lost + self.corrupt_events + self.outage_defers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_recorders_move_both_rows() {
        let mut m = ResilienceMetrics::new();
        m.record_stream_resync(40);
        m.record_cache_hit(4000);
        m.record_cache_hit(2000);
        m.record_cache_evictions(3);
        assert_eq!((m.stream_resyncs, m.skipped_bytes), (1, 40));
        assert_eq!((m.cache_hits, m.cache_bytes_saved), (2, 6000));
        assert_eq!(m.cache_evictions(), 3);
        m.segments_lost = 2;
        m.corrupt_events = 1;
        m.outage_defers = 1;
        assert_eq!(m.total_faults(), 4);
    }

    #[test]
    fn degradation_steps_track_levels() {
        let mut m = ResilienceMetrics::new();
        m.record_degradation_step(1, true);
        m.record_degradation_step(2, true);
        m.record_degradation_step(1, false);
        assert_eq!(m.degrade_steps(), 2);
        assert_eq!(m.promote_steps(), 1);
        assert_eq!(m.degradation_level(), 1);
        assert_eq!(m.max_degradation_level(), 2);
    }

    #[test]
    fn merged_views_keep_the_deeper_level() {
        let mut a = ResilienceMetrics::new();
        a.record_degradation_step(1, true);
        let mut b = ResilienceMetrics::new();
        b.record_degradation_step(3, true);
        b.record_degradation_step(2, false);
        a.merge(&b);
        assert_eq!(a.degrade_steps(), 2);
        assert_eq!(a.degradation_level(), 2);
        assert_eq!(a.max_degradation_level(), 3);
    }
}
