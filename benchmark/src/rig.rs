//! What the two pipelines (sockets, in-process fan-out) have in common:
//! the result of one pass and the interface the run loop drives.

use thinc_client::StreamClient;
use thinc_net::{NetworkConfig, SimDuration, TcpPipe};
use thinc_protocol::hash::{fnv64_update, FNV64_OFFSET};
use thinc_protocol::wire::INTEGRITY_HEADER_LEN;

use crate::metrics::Values;
use crate::trace::Span;

/// The fat simulated pipe `flush` schedules against: it never paces,
/// so wall time measures compute.
pub fn bench_pipe() -> TcpPipe {
    NetworkConfig::custom(
        "bench",
        100_000_000_000,
        SimDuration::from_micros(10),
        1 << 30,
    )
    .connect()
    .down
}

/// Everything a viewer counts when its stream is not clean. An update
/// during which this moves has failed.
pub fn anomalies(s: &StreamClient) -> u64 {
    let m = s.resilience_metrics();
    m.decode_errors()
        + m.crc_failures()
        + m.seq_gaps()
        + m.seq_dups()
        + m.cache_misses()
        + s.client().stats().errors
}

/// Which shipped frames are kept for the replay's shadow viewer.
pub enum Keep {
    Off,
    /// Everything that shapes viewer state (all but bulk A/V data):
    /// what the shadow needs to start the recorded pass where the
    /// live viewer did.
    State,
    /// The recorded pass: every frame.
    All,
}

/// One pass over a workload's update sequence.
#[derive(Default)]
pub struct Pass {
    pub updates: u64,
    pub failed: u64,
    pub wall_ns: u64,
    /// Update-to-pixel latency of each update.
    pub latency_ns: Vec<u64>,
    /// Server-side busy time, summed over the pass.
    pub server_ns: u64,
    /// Time inside `StreamClient::feed`, summed (per probe on fan-out).
    pub client_ns: u64,
    /// Downlink bytes handed to the transport, fences excluded.
    pub wire_bytes: u64,
    /// FNV-1a 64 over every frame's 13-byte header (type, length,
    /// sequence, CRC-32 of the frame), in order.
    pub wire_digest: u64,
}

impl Pass {
    /// A pass about to start.
    pub fn start() -> Self {
        Pass {
            wire_digest: FNV64_OFFSET,
            ..Pass::default()
        }
    }

    /// Accounts one frame handed to the transport.
    pub fn ship(&mut self, frame: &[u8]) {
        self.wire_bytes += frame.len() as u64;
        let header = &frame[..INTEGRITY_HEADER_LEN.min(frame.len())];
        self.wire_digest = fnv64_update(self.wire_digest, header);
    }

    pub fn mean_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6 / self.updates.max(1) as f64
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// What a traced run leaves behind.
pub struct Traced {
    pub spans: Vec<Span>,
    /// Per-layer metrics, already per update.
    pub layers: Values,
}

/// A pipeline, set up and warmed, ready to run passes.
pub trait Rig {
    /// One pass over the workload's updates (a fresh copy of the
    /// generated inputs, made before the clock starts).
    fn pass(&mut self) -> Pass;

    /// Span recording on or off, on every thread of the rig.
    fn set_trace(&mut self, on: bool);

    /// The next pass is the recorded one: its frames and counter
    /// deltas feed the replay timers and the exact per-layer counts.
    fn record_next_pass(&mut self);

    /// Stops the rig's threads and, after a traced run, replays the
    /// recorded pass. `traced_updates` is the number of updates that
    /// ran with spans on.
    fn finish(self: Box<Self>, traced_updates: u64) -> Traced;
}
