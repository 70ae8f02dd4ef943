//! A flow-level TCP model.
//!
//! The experiments in the paper are dominated by three transport
//! effects: serialization delay (bytes over a finite-bandwidth link),
//! propagation delay (RTT), and window limiting (throughput can never
//! exceed `window / RTT` — the effect that caps the Korea PlanetLab
//! site at its 256 KB receive window). This model reproduces all three
//! plus slow start, at *flow* granularity: a transfer is advanced one
//! congestion-window round at a time rather than per segment, which is
//! orders of magnitude faster to simulate and accurate to within a
//! round trip — far finer than the page-latency differences measured.
//!
//! The model is one-directional; see [`crate::link::DuplexLink`] for a
//! bidirectional connection.

use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::time::{SimDuration, SimTime};

/// Parameters of a one-directional TCP flow over a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Round-trip time of the path.
    pub rtt: SimDuration,
    /// Receive window in bytes (the `rwnd` clamp; the paper tunes this
    /// to 1 MB in the WAN testbed and is stuck with 256 KB on
    /// PlanetLab).
    pub rwnd_bytes: u64,
    /// Maximum segment size in bytes.
    pub mss: u64,
    /// Initial congestion window in segments (RFC 2581-era default).
    pub initial_cwnd_segments: u64,
    /// Sender socket-buffer size in bytes; governs when a non-blocking
    /// sender would observe `EWOULDBLOCK`.
    pub sndbuf_bytes: u64,
}

impl Default for TcpParams {
    fn default() -> Self {
        Self {
            bandwidth_bps: 100_000_000,
            rtt: SimDuration::from_micros(200),
            rwnd_bytes: 64 * 1024,
            mss: 1448,
            initial_cwnd_segments: 4,
            sndbuf_bytes: 256 * 1024,
        }
    }
}

/// One direction of a TCP connection.
///
/// The pipe carries opaque byte counts; message boundaries and traces
/// are layered above. State (congestion window, transmit horizon)
/// persists across transfers, modeling a long-lived session — which
/// matters: by mid-benchmark the window is fully open.
#[derive(Debug, Clone)]
pub struct TcpPipe {
    params: TcpParams,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Virtual time at which the sender's outgoing queue drains.
    tx_free: SimTime,
    /// Total payload bytes accepted for transmission.
    bytes_sent: u64,
    /// Injected faults, if any (see [`crate::fault`]).
    fault: Option<FaultState>,
}

impl TcpPipe {
    /// Creates a fresh pipe (slow start restarts).
    pub fn new(params: TcpParams) -> Self {
        let cwnd = (params.initial_cwnd_segments * params.mss) as f64;
        Self {
            params,
            cwnd,
            tx_free: SimTime::ZERO,
            bytes_sent: 0,
            fault: None,
        }
    }

    /// Creates a pipe executing `plan` (see [`crate::fault`]).
    pub fn with_faults(params: TcpParams, plan: FaultPlan) -> Self {
        let mut pipe = Self::new(params);
        pipe.set_fault_plan(plan);
        pipe
    }

    /// Installs (or replaces) the fault plan on this pipe. The plan's
    /// PRNG restarts from its seed; counters restart from zero.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Injected-fault counters so far (all zero when no plan is
    /// installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.as_ref().map(|f| f.stats()).unwrap_or_default()
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// Whether an outage window has the link down at `now`.
    pub fn is_down(&self, now: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_down(now))
    }

    /// Whether any scheduled fault window is live at `now`: the link
    /// is down, serving at a collapsed rate, or corrupting bytes.
    /// Degradation controllers observe this to react *during* an
    /// episode instead of waiting for the damage counters to move.
    pub fn fault_window_active(&self, now: SimTime) -> bool {
        self.fault.as_ref().is_some_and(|f| {
            let plan = f.plan();
            plan.is_down(now)
                || plan.rate_factor(now) < 1.0
                || plan.corruption_rate(now) > 0.0
                || plan.reorder_rate(now) > 0.0
                || plan.duplication_rate(now) > 0.0
        })
    }

    /// Damages `data` in place per the corruption window active at
    /// `now`, returning the number of bytes hit (zero with no plan or
    /// outside every window). TCP itself never delivers corrupt
    /// payload; this models damage *around* the transport — broken
    /// middleboxes, proxies, drivers — and is applied by the harness
    /// to the encoded byte stream it carries.
    pub fn corrupt(&mut self, now: SimTime, data: &mut [u8]) -> usize {
        match self.fault.as_mut() {
            Some(f) => f.corrupt(now, data),
            None => 0,
        }
    }

    /// Applies every byte-stream disturbance active at `now`
    /// (corruption, reordering, duplication) to one outgoing segment,
    /// returning the segments to deliver in order. With no plan
    /// installed the segment passes through untouched. See
    /// [`FaultState::disturb`](crate::fault::FaultState::disturb).
    pub fn disturb(&mut self, now: SimTime, seg: Vec<u8>) -> Vec<Vec<u8>> {
        match self.fault.as_mut() {
            Some(f) => f.disturb(now, seg),
            None => vec![seg],
        }
    }

    /// Releases a segment held back by a reorder window, if any. Call
    /// at end of stream so reordering never silently drops bytes.
    pub fn flush_disturbed(&mut self) -> Option<Vec<u8>> {
        self.fault.as_mut().and_then(|f| f.flush_disturbed())
    }

    /// Carries one flush round's `(arrival, frame)` pairs across the
    /// byte-stream disturbance model, returning the segments to feed
    /// the client in order. An idle round instead releases whatever a
    /// reorder window still holds, so a quiet link never strands
    /// bytes; while traffic flows the hold carries across rounds —
    /// that is what makes the reordering real rather than a same-batch
    /// shuffle.
    pub fn carry(&mut self, frames: impl IntoIterator<Item = (SimTime, Vec<u8>)>) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut idle = true;
        for (arrival, frame) in frames {
            idle = false;
            out.extend(self.disturb(arrival, frame));
        }
        if idle {
            out.extend(self.flush_disturbed());
        }
        out
    }

    /// The flow parameters.
    pub fn params(&self) -> &TcpParams {
        &self.params
    }

    /// Total payload bytes accepted so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    /// Fraction of the link's serialization capacity consumed by this
    /// flow between the epoch and `now` (0–1). Zero before any time
    /// has passed. This is the downlink-utilization figure exported by
    /// session telemetry.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let serialization_s = self.bytes_sent as f64 * 8.0 / self.params.bandwidth_bps as f64;
        (serialization_s / elapsed).clamp(0.0, 1.0)
    }

    /// Steady-state throughput cap in bytes per second:
    /// `min(bandwidth, rwnd / RTT)`.
    pub fn throughput_cap_bps(&self) -> u64 {
        let bw = self.params.bandwidth_bps;
        let rtt_s = self.params.rtt.as_secs_f64().max(1e-9);
        let wnd_bps = (self.params.rwnd_bytes as f64 * 8.0 / rtt_s) as u64;
        bw.min(wnd_bps)
    }

    /// Link bandwidth in bytes per second.
    fn bw_bytes_per_sec(&self) -> f64 {
        self.params.bandwidth_bps as f64 / 8.0
    }

    /// Effective sending rate given the current window, bytes/second.
    fn rate(&self) -> f64 {
        let rtt_s = self.params.rtt.as_secs_f64().max(1e-9);
        let w = self.cwnd.min(self.params.rwnd_bytes as f64);
        self.bw_bytes_per_sec().min(w / rtt_s)
    }

    /// Sends `len` payload bytes at (no earlier than) `now`.
    ///
    /// Returns `(departure_complete, arrival_complete)`: the time the
    /// last byte leaves the sender and the time it reaches the
    /// receiver. A zero-length send models a bare signalling packet:
    /// it still takes half an RTT to arrive.
    pub fn send(&mut self, now: SimTime, len: u64) -> (SimTime, SimTime) {
        let mut start = now.max(self.tx_free);
        // An outage window defers the start of the transfer.
        if let Some(f) = self.fault.as_mut() {
            start = f.defer_past_outage(start);
        }
        let mut t = start;
        let mut remaining = len as f64;
        let rtt_s = self.params.rtt.as_secs_f64().max(1e-9);
        // Advance one congestion round at a time.
        while remaining > 0.0 {
            // An outage starting mid-transfer stalls the flow until
            // the link comes back.
            if let Some(f) = self.fault.as_mut() {
                t = f.defer_past_outage(t);
            }
            let mut rate = self.rate();
            // A bandwidth collapse serves this round at reduced rate.
            if let Some(f) = self.fault.as_mut() {
                rate *= f.rate_factor_at(t);
            }
            let rate = rate.max(1.0);
            // Bytes this round: one window's worth (or everything left).
            let per_round = rate * rtt_s;
            let chunk = remaining.min(per_round.max(1.0));
            let dt = chunk / rate;
            t += SimDuration::from_secs_f64(dt);
            remaining -= chunk;
            let lost = self.fault.as_mut().is_some_and(|f| f.draw_loss());
            if lost {
                // Flow-level loss response: the retransmission costs
                // one extra round trip and the congestion window
                // halves (multiplicative decrease, floor one MSS).
                t += self.params.rtt;
                self.cwnd = (self.cwnd / 2.0).max(self.params.mss as f64);
            } else {
                // Slow start: double per round, clamped by rwnd.
                self.cwnd = (self.cwnd * 2.0).min(self.params.rwnd_bytes as f64);
            }
        }
        self.tx_free = t;
        self.bytes_sent += len;
        let arrival = t + self.params.rtt.div(2);
        (t, arrival)
    }

    /// Bytes the sender could hand to the socket right now without
    /// blocking, given the socket-buffer size. Zero means a write
    /// would return `EWOULDBLOCK`.
    pub fn writable_bytes(&self, now: SimTime) -> u64 {
        if self.is_down(now) {
            return 0;
        }
        if self.tx_free <= now {
            return self.params.sndbuf_bytes;
        }
        let backlog_s = (self.tx_free - now).as_secs_f64();
        let backlog_bytes = (backlog_s * self.rate()) as u64;
        self.params.sndbuf_bytes.saturating_sub(backlog_bytes)
    }

    /// Counts a write held back at `now` because an outage window has
    /// the link down (one [`FaultStats::outage_defers`] per call);
    /// returns whether it was.
    pub fn defer_write(&mut self, now: SimTime) -> bool {
        self.fault.as_mut().is_some_and(|f| f.defer_past_outage(now) != now)
    }

    /// Whether a write of `len` bytes at `now` would block.
    pub fn would_block(&self, now: SimTime, len: u64) -> bool {
        self.writable_bytes(now) < len
    }

    /// Time at which the sender's queue is drained.
    pub fn tx_free_at(&self) -> SimTime {
        self.tx_free
    }

    /// Resets the flow (new connection: slow start restarts, queue
    /// drains instantly). Used between benchmark phases. The fault
    /// plan — a property of the *path*, not the connection — stays
    /// installed, PRNG state and counters included, so a reconnect
    /// over the same bad link keeps drawing from the same sequence.
    pub fn reset(&mut self) {
        self.cwnd = (self.params.initial_cwnd_segments * self.params.mss) as f64;
        self.tx_free = SimTime::ZERO;
        self.bytes_sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lan() -> TcpParams {
        TcpParams {
            bandwidth_bps: 100_000_000,
            rtt: SimDuration::from_micros(200),
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        }
    }

    fn wan() -> TcpParams {
        TcpParams {
            bandwidth_bps: 100_000_000,
            rtt: SimDuration::from_millis(66),
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        }
    }

    #[test]
    fn zero_length_send_takes_half_rtt() {
        let mut p = TcpPipe::new(wan());
        let (_, arrival) = p.send(SimTime::ZERO, 0);
        assert_eq!(arrival.as_micros(), 33_000);
    }

    #[test]
    fn small_send_on_lan_is_fast() {
        let mut p = TcpPipe::new(lan());
        let (_, arrival) = p.send(SimTime::ZERO, 1000);
        // ~80us serialization + 100us propagation.
        assert!(arrival.as_micros() < 1_000, "{arrival}");
    }

    #[test]
    fn bulk_transfer_approaches_link_rate_on_lan() {
        let mut p = TcpPipe::new(lan());
        let bytes = 10_000_000u64; // 10 MB.
        let (_, arrival) = p.send(SimTime::ZERO, bytes);
        let secs = arrival.as_secs_f64();
        let ideal = bytes as f64 * 8.0 / 100e6;
        assert!(secs >= ideal, "faster than the link: {secs} < {ideal}");
        assert!(secs < ideal * 1.3, "too slow: {secs} vs {ideal}");
    }

    #[test]
    fn window_caps_wan_throughput() {
        // 256 KB window over 66 ms RTT caps at ~31.8 Mbps even though
        // the link is 100 Mbps — the Korea PlanetLab effect.
        let params = TcpParams {
            rwnd_bytes: 256 * 1024,
            ..wan()
        };
        let mut p = TcpPipe::new(params);
        assert!(p.throughput_cap_bps() < 35_000_000);
        let bytes = 20_000_000u64;
        let (_, arrival) = p.send(SimTime::ZERO, bytes);
        let achieved_bps = bytes as f64 * 8.0 / arrival.as_secs_f64();
        assert!(achieved_bps < 35e6, "{achieved_bps}");
        // A 1 MB window lifts the cap.
        let mut p2 = TcpPipe::new(wan());
        let (_, a2) = p2.send(SimTime::ZERO, bytes);
        assert!(a2 < arrival);
    }

    #[test]
    fn slow_start_penalizes_short_wan_transfers() {
        let mut p = TcpPipe::new(wan());
        // 100 KB with initial window 4*1448: needs several RTT rounds.
        let (_, arrival) = p.send(SimTime::ZERO, 100_000);
        assert!(
            arrival.as_micros() > 3 * 66_000,
            "expected multiple rounds, got {arrival}"
        );
        // A second transfer on the warm connection is much faster.
        let start = arrival;
        let (_, second) = p.send(start, 100_000);
        assert!((second - start).as_micros() < 2 * (arrival - SimTime::ZERO).as_micros() / 3);
    }

    #[test]
    fn back_to_back_sends_queue_fifo() {
        let mut p = TcpPipe::new(lan());
        let (_, a1) = p.send(SimTime::ZERO, 500_000);
        let (_, a2) = p.send(SimTime::ZERO, 500_000);
        assert!(a2 > a1);
    }

    #[test]
    fn would_block_when_backlogged() {
        let params = TcpParams {
            sndbuf_bytes: 64 * 1024,
            ..wan()
        };
        let mut p = TcpPipe::new(params);
        assert!(!p.would_block(SimTime::ZERO, 1024));
        // Queue several MB: the socket buffer fills.
        p.send(SimTime::ZERO, 8_000_000);
        assert!(p.would_block(SimTime::ZERO, 64 * 1024));
        // After the queue drains it becomes writable again.
        let later = p.tx_free_at();
        assert!(!p.would_block(later, 1024));
    }

    #[test]
    fn reset_restores_slow_start() {
        let mut p = TcpPipe::new(wan());
        p.send(SimTime::ZERO, 5_000_000);
        let warm = p.cwnd_bytes();
        p.reset();
        assert!(p.cwnd_bytes() < warm);
        assert_eq!(p.bytes_sent(), 0);
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut p = TcpPipe::new(lan());
        assert_eq!(p.utilization(SimTime::ZERO), 0.0);
        // 1.25 MB at 100 Mbps serializes in exactly 0.1 s.
        p.send(SimTime::ZERO, 1_250_000);
        let half_loaded = p.utilization(SimTime(200_000));
        assert!((half_loaded - 0.5).abs() < 1e-9, "{half_loaded}");
        // Never reports beyond 1 even right at the busy horizon.
        assert!(p.utilization(SimTime(1)) <= 1.0);
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut p = TcpPipe::new(wan());
            let mut t = SimTime::ZERO;
            let mut out = Vec::new();
            for i in 0..50 {
                let (_, a) = p.send(t, 10_000 + i * 13);
                out.push(a.as_micros());
                t = a;
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn loss_slows_transfer_and_counts() {
        let clean = {
            let mut p = TcpPipe::new(wan());
            p.send(SimTime::ZERO, 5_000_000).1
        };
        let mut p = TcpPipe::with_faults(wan(), FaultPlan::seeded(42).with_loss(0.05));
        let lossy = p.send(SimTime::ZERO, 5_000_000).1;
        assert!(lossy > clean, "loss must cost time: {lossy} vs {clean}");
        let stats = p.fault_stats();
        assert!(stats.segments_lost > 0);
        assert_eq!(stats.segments_lost, stats.retransmits);
    }

    #[test]
    fn outage_defers_send_and_blocks_writes() {
        let plan =
            FaultPlan::seeded(1).with_outage(SimTime(1_000_000), SimDuration::from_millis(500));
        let mut p = TcpPipe::with_faults(lan(), plan);
        // Writes inside the window observe EWOULDBLOCK.
        assert_eq!(p.writable_bytes(SimTime(1_200_000)), 0);
        assert!(p.would_block(SimTime(1_200_000), 1));
        // A send issued mid-outage starts only once the link is back.
        let (departure, _) = p.send(SimTime(1_200_000), 1000);
        assert!(departure >= SimTime(1_500_000), "{departure}");
        assert_eq!(p.fault_stats().outage_defers, 1);
        // A writer that finds the link down counts its held-back write.
        assert!(p.defer_write(SimTime(1_200_000)));
        assert!(!p.defer_write(SimTime(2_000_000)));
        assert_eq!(p.fault_stats().outage_defers, 2);
    }

    #[test]
    fn collapse_window_reduces_rate() {
        let plan = FaultPlan::seeded(2).with_collapse(
            SimTime::ZERO,
            SimDuration::from_secs_f64(60.0),
            0.1,
        );
        let clean = {
            let mut p = TcpPipe::new(lan());
            p.send(SimTime::ZERO, 2_000_000).1
        };
        let mut p = TcpPipe::with_faults(lan(), plan);
        let collapsed = p.send(SimTime::ZERO, 2_000_000).1;
        assert!(
            collapsed.as_micros() > 5 * clean.as_micros(),
            "{collapsed} vs {clean}"
        );
        assert!(p.fault_stats().collapsed_rounds > 0);
    }

    #[test]
    fn faulty_pipe_is_deterministic() {
        let run = || {
            let plan = FaultPlan::seeded(7)
                .with_loss(0.03)
                .with_outage(SimTime(500_000), SimDuration::from_millis(100))
                .with_corruption(SimTime::ZERO, SimDuration::from_secs_f64(10.0), 0.01);
            let mut p = TcpPipe::with_faults(wan(), plan);
            let mut t = SimTime::ZERO;
            let mut out = Vec::new();
            for i in 0..30 {
                let (_, a) = p.send(t, 20_000 + i * 17);
                let mut payload = vec![0u8; 64];
                p.corrupt(t, &mut payload);
                out.push((a.as_micros(), payload));
                t = a;
            }
            (out, p.fault_stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn no_plan_means_no_behavior_change() {
        let mut clean = TcpPipe::new(wan());
        let mut noop = TcpPipe::with_faults(wan(), FaultPlan::seeded(9));
        for i in 0..20 {
            let a = clean.send(SimTime::ZERO, 10_000 + i * 7);
            let b = noop.send(SimTime::ZERO, 10_000 + i * 7);
            assert_eq!(a, b);
        }
        assert_eq!(noop.fault_stats(), FaultStats::default());
    }
}
