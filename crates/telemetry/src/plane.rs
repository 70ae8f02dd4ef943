//! Encode-once accounting for the broadcast fan-out.
//!
//! A shared session flushes all its viewers against one content-keyed
//! form store, round after round. Every viewer's flush tallies the
//! traffic the store stands behind in a [`PlaneCounters`]; the session
//! merges them in client order and accumulates them across rounds,
//! which the figures and perfgate layers read for the aggregate views
//! (shared-payload hit ratio, encode output amortized).

crate::counters! {
    /// Deterministic encode-once accounting, accumulated per client
    /// during a flush and merged in client order afterwards.
    pub struct PlaneCounters {
        /// Messages sent whose wire form came from the store.
        shared_sends,
        /// Sum of those messages' full-form sizes (before any per-client
        /// cache-ref substitution) — what every client *would* have
        /// encoded on its own.
        shared_bytes,
        /// Wire forms actually produced (one per equivalence class the
        /// store did not already know).
        encodes,
        /// Bytes of wire forms actually produced.
        encoded_bytes,
    }
}

impl PlaneCounters {
    /// Fraction of store-served sends that reused an already-produced
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_accumulate() {
        let mut m = PlaneCounters::default();
        let served = PlaneCounters { shared_sends: 10, shared_bytes: 1000, ..PlaneCounters::default() };
        m.merge(&PlaneCounters { encodes: 2, encoded_bytes: 200, ..served });
        m.merge(&served);
        assert_eq!(m.shared_sends, 20);
        assert_eq!(m.encodes, 2);
        assert!((m.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(m.bytes_amortized(), 1800);
    }

    #[test]
    fn zero_sends_is_zero_ratio() {
        let m = PlaneCounters::default();
        assert_eq!(m.hit_ratio(), 0.0);
        assert_eq!(m.bytes_amortized(), 0);
    }
}
