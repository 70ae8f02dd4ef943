#![forbid(unsafe_code)]
//! Deterministic chaos simulation for the THINC virtual display
//! stack.
//!
//! This crate turns a single `u64` seed into a randomized — but
//! perfectly reproducible — multi-client torture run over a
//! [`SharedSession`](thinc_core::session::SharedSession): clients
//! attach, draw traffic flows, links lose and corrupt and reorder
//! bytes, connections sever and redial, viewports resize, budgets
//! shift, the server itself crashes and fails over to a warm standby
//! restored from a checkpoint image. At every quiesce point the
//! engine drains the system and checks a catalog of **global
//! invariants** (framebuffer convergence, cache-mirror coherence,
//! debt drainage, buffer bounds, liveness consistency, telemetry
//! conservation, panic containment, checkpoint/failover fidelity —
//! see [`invariant`]).
//!
//! A schedule may also carry an [`expect`] block: counters the
//! catalog does not check ("the healthy owner never degrades"), read
//! by their `counters!` row names. The checked-in schedules under
//! `crates/chaos/schedules/` are the repository's resilience
//! scenarios.
//!
//! When an invariant breaks, the failing [`event::Schedule`] is
//! minimized by delta-debugging ([`shrink()`]) into a handful of
//! events and serialized ([`json`]) as a replayable artifact: the
//! `chaos` binary's `replay` subcommand re-executes it bit-exactly
//! anywhere.
//!
//! Everything runs in virtual time with seeded PRNGs only — no wall
//! clock, no ambient randomness — so a schedule is a complete,
//! portable description of an experiment.

#![warn(missing_docs)]

pub mod event;
pub mod expect;
pub mod generate;
pub mod invariant;
pub mod json;
pub mod runner;
pub mod shrink;

pub use event::{ChaosEvent, FaultKind, Schedule, Workload};
pub use generate::generate;
pub use invariant::{RunReport, Violation};
pub use json::{schedule_from_json, schedule_to_json};
pub use runner::run;
pub use shrink::shrink;
