#![forbid(unsafe_code)]
//! `thinc-telemetry`: dependency-free instrumentation for the THINC
//! stack.
//!
//! Every layer of the simulated THINC system — protocol encoding,
//! the SRSF scheduler in the server's command buffer, the translation
//! layer, the network model, and the client — records into the three
//! kinds of metric defined here:
//!
//! * counts — `u64` rows of a [`counters!`] table, which declares a
//!   group once and generates everything that must know a metric's
//!   name (field, getter, recorder, `NAMES`/`values`, `merge`,
//!   `since`),
//! * [`Gauge`] — point-in-time values with a high-water mark,
//! * [`Histogram`] — fixed-bucket distributions (latency, sizes).
//!
//! Grouped per subsystem ([`ProtocolMetrics`], [`BufferStats`] and
//! [`SchedulerMetrics`], [`TranslatorStats`], [`NetMetrics`],
//! [`ClientStats`], [`ResilienceMetrics`] and [`PlaneCounters`]) and
//! aggregated per session ([`SessionTelemetry`]), they feed the
//! per-command figures in
//! `thinc-bench` and the JSONL session-trace export
//! ([`Timeline::to_jsonl`]).
//!
//! # Design constraints
//!
//! * **Zero dependencies.** This crate sits below every other crate
//!   in the workspace, so it depends on nothing — not even other
//!   THINC crates.
//! * **No clocks.** All timestamps are `u64` microseconds of
//!   *virtual* time, supplied by the caller from the simulation's
//!   `SimTime`. Telemetry never reads wall-clock time, keeping every
//!   export deterministic.
//! * **No atomics or locks.** Metrics are plain values owned by the
//!   component they instrument, and every per-client group belongs to
//!   that client's `Delivery`: a session flushes its clients one after
//!   another on one thread, and views across clients are merged
//!   afterwards, in client order.
//! * **One increment per event.** An event is counted once, in the
//!   group of the component that observes it. Plain mirrors kept by
//!   crates that cannot depend on this one (`thinc-net`'s
//!   `FaultStats`) are folded in by field name, never positionally.
//!
//! # Example
//!
//! ```
//! use thinc_telemetry::{CommandKind, SessionTelemetry};
//!
//! let mut session = SessionTelemetry::new(10);
//! // A server would record each encoded message as it hits the wire:
//! session.protocol.record(CommandKind::Copy, 30);
//! session.protocol.record(CommandKind::Raw, 2048);
//! session.scheduler.record_flush_latency_us(410);
//!
//! let snap = session.snapshot();
//! assert_eq!(snap.total_messages, 2);
//! assert_eq!(snap.commands.len(), 2);
//! assert!(snap.commands.iter().any(|r| r.kind == CommandKind::Raw));
//! ```

#![warn(missing_docs)]

mod command;
mod counters;
mod metrics;
mod resilience;
mod plane;
mod session;
mod timeline;

pub use command::CommandKind;
pub use metrics::{Gauge, Histogram};
pub use plane::PlaneCounters;
pub use resilience::ResilienceMetrics;
pub use session::{
    BufferStats, ClientStats, CommandRow, NetMetrics, ProtocolMetrics, SchedulerMetrics,
    SessionTelemetry, TelemetrySnapshot, TranslatorStats,
};
pub use timeline::{Timeline, TimelineEvent};
