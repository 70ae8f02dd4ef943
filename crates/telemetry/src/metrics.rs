//! The two metric primitives that are not counts: [`Gauge`] and
//! [`Histogram`]. (A count is a `u64` row of a
//! [`counters!`](crate::counters) table.)
//!
//! Both are plain in-memory values — no atomics, no clocks, no
//! global registry. Instrumented components own their metrics and
//! expose them by reference; aggregation happens by cloning into a
//! [`crate::SessionTelemetry`].

/// A point-in-time measurement that also remembers its high-water
/// mark.
///
/// ```
/// use thinc_telemetry::Gauge;
///
/// let mut depth = Gauge::new();
/// depth.set(3.0);
/// depth.set(9.0);
/// depth.set(2.0);
/// assert_eq!(depth.get(), 2.0);
/// assert_eq!(depth.max(), 9.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauge {
    value: f64,
    max: f64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current value.
    pub fn set(&mut self, value: f64) {
        self.value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// The most recently recorded value.
    pub fn get(&self) -> f64 {
        self.value
    }

    /// The largest value ever recorded.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A fixed-bucket histogram over `u64` samples (typically
/// microseconds of latency or bytes).
///
/// Buckets are defined by ascending *inclusive upper bounds*; one
/// implicit overflow bucket catches everything beyond the last bound.
/// Exact `count`, `sum` (saturating at `u64::MAX`) and `max` are
/// tracked alongside, so the mean is exact and only quantiles are
/// bucket-resolution approximations.
///
/// ```
/// use thinc_telemetry::Histogram;
///
/// let mut lat = Histogram::with_bounds(&[10, 100, 1000]);
/// lat.record(0);     // first bucket (<= 10)
/// lat.record(100);   // second bucket (inclusive upper bound)
/// lat.record(5000);  // overflow bucket
/// assert_eq!(lat.count(), 3);
/// assert_eq!(lat.bucket_counts(), &[1, 1, 0, 1]);
/// assert_eq!(lat.max(), 5000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with the given ascending inclusive upper bounds.
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly ascending.
    pub fn with_bounds(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// A histogram with `len` exponentially growing buckets:
    /// `first, first*factor, first*factor², …`.
    ///
    /// ```
    /// use thinc_telemetry::Histogram;
    ///
    /// let h = Histogram::exponential(100, 2, 4);
    /// assert_eq!(h.bounds(), &[100, 200, 400, 800]);
    /// ```
    ///
    /// # Panics
    /// Panics if `first` is zero, `factor < 2`, or `len` is zero.
    pub fn exponential(first: u64, factor: u64, len: usize) -> Self {
        assert!(first > 0 && factor >= 2 && len > 0, "degenerate layout");
        let mut bounds = Vec::with_capacity(len);
        let mut b = first;
        for _ in 0..len {
            bounds.push(b);
            b = b.saturating_mul(factor);
        }
        Self::with_bounds(&bounds)
    }

    /// The layout every latency histogram in the stack uses: 100 µs to
    /// ~1.6 s in doubling buckets (plus the implicit overflow bucket).
    pub fn latency_us() -> Self {
        Self::exponential(100, 2, 15)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean of recorded samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The configured inclusive upper bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket sample counts; the final entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples that exceeded the last bound.
    pub fn overflow(&self) -> u64 {
        *self.counts.last().expect("counts never empty")
    }

    /// Adds every sample of `other` into this histogram.
    ///
    /// Used to combine per-path accountings (e.g. display and A/V
    /// wire-size histograms) into one.
    ///
    /// # Panics
    /// Panics if the two histograms have different bucket layouts.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "mismatched histogram layouts");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Bucket-resolution quantile: the upper bound of the first
    /// bucket at which the cumulative count reaches `q * count`.
    /// Samples in the overflow bucket report the exact observed
    /// maximum. Returns zero when empty.
    ///
    /// ```
    /// use thinc_telemetry::Histogram;
    ///
    /// let mut h = Histogram::with_bounds(&[10, 100]);
    /// for _ in 0..99 { h.record(5); }
    /// h.record(50);
    /// assert_eq!(h.quantile(0.5), 10);
    /// assert_eq!(h.quantile(1.0), 100);
    /// ```
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_high_water_mark() {
        let mut g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(5.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
        assert_eq!(g.max(), 5.5);
    }

    #[test]
    fn histogram_zero_lands_in_first_bucket() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.record(0);
        assert_eq!(h.bucket_counts(), &[1, 0, 0]);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 10);
    }

    #[test]
    fn histogram_upper_bounds_are_inclusive() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.record(10);
        h.record(11);
        h.record(100);
        assert_eq!(h.bucket_counts(), &[1, 2, 0]);
    }

    #[test]
    fn histogram_max_value_and_overflow_bucket() {
        let mut h = Histogram::with_bounds(&[10, 100]);
        h.record(101);
        h.record(u64::MAX);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.max(), u64::MAX);
        // Overflow quantiles report the observed maximum, not a bound.
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = Histogram::with_bounds(&[1000]);
        h.record(1);
        h.record(2);
        h.record(6);
        assert_eq!(h.mean(), 3.0);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn exponential_layout_saturates_instead_of_overflowing() {
        let h = Histogram::exponential(1 << 62, 2, 3);
        assert_eq!(h.bounds(), &[1 << 62, 1 << 63, u64::MAX]);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::with_bounds(&[10, 20, 30]);
        for v in [5, 15, 15, 25] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.25), 10);
        assert_eq!(h.quantile(0.5), 20);
        assert_eq!(h.quantile(0.75), 20);
        assert_eq!(h.quantile(1.0), 30);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_bounds_rejected() {
        Histogram::with_bounds(&[10, 10]);
    }

    #[test]
    fn merge_from_combines_everything() {
        let mut a = Histogram::with_bounds(&[10, 100]);
        a.record(5);
        a.record(50);
        let mut b = Histogram::with_bounds(&[10, 100]);
        b.record(500);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 555);
        assert_eq!(a.max(), 500);
        assert_eq!(a.bucket_counts(), &[1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn merge_from_rejects_different_layouts() {
        let mut a = Histogram::with_bounds(&[10]);
        a.merge_from(&Histogram::with_bounds(&[20]));
    }
}
