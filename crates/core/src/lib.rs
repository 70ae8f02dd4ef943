#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The THINC server: the primary contribution of the paper.
//!
//! THINC virtualizes the display at the device-driver interface. This
//! crate implements everything between that interface and the wire:
//!
//! - [`queue`]: protocol command objects with complete / partial /
//!   transparent overwrite semantics, and the command queue that
//!   evicts or clips overwritten commands and merges adjacent ones
//!   (§4) — the one implementation of that algebra, used by the
//!   translator's pixmap queues and by the per-client buffer,
//! - [`translator`]: the translation layer — a [`VideoDriver`]
//!   implementation that maps device-level operations one-to-one onto
//!   protocol commands, with offscreen drawing awareness (per-pixmap
//!   command queues, queue copies mirroring pixmap copies, queue
//!   execution when offscreen data goes onscreen, §4.1),
//! - [`scheduler`]: the multi-queue Shortest-Remaining-Size-First
//!   update scheduler with a real-time queue and transparent-command
//!   dependency placement (§5),
//! - [`buffer`]: the per-client command buffer — a command queue
//!   plus what §5 adds: scheduler slots, the byte bound, non-blocking
//!   flush with command splitting, and wire preparation,
//! - [`scaling`]: server-side screen scaling with per-command resize
//!   policy (§6),
//! - [`video`]: video stream objects and YUV delivery (§4.2),
//! - [`audio`]: the virtual audio driver (§4.2, §7),
//! - [`delivery`]: the per-client delivery pipeline — one
//!   [`delivery::Delivery`] holds everything the server keeps for a
//!   client (buffer, scale, video streams, A/V queue, liveness,
//!   degradation ladder, refresh debt, frame encoder) and the
//!   operations on it, each written once (§2: "the client only
//!   contains transient soft state"),
//! - [`session`]: authentication and multi-client screen sharing
//!   (§7) — the one façade: translator, real-time input region,
//!   cursor, speaker, clock, resume-token rules and checkpoint writer
//!   around a roster of `Delivery` values,
//! - [`shard`]: [`ShardedManager`], a session plus its viewers' links,
//!   flushed together once per epoch, one viewer after another on the
//!   caller's thread,
//! - [`server`]: [`ServerConfig`], the paper's design switches, whose
//!   [`ServerConfig::session`] is the one way to build a session of one
//!   viewer (its connection RC4-keyed when configured, §7), and
//!   [`ThincServer`], that session driven as a driver of its own.
//!
//! The hot path is instrumented with `thinc-telemetry`, each event
//! counted once by its owner: the command buffer owns its delivery
//! counters ([`buffer::BufferStats`]: pushes, merges, evictions,
//! splits, bytes sent, codec work), the scheduler metrics (queue
//! depths, enqueue-to-wire latency) and the per-command wire
//! accounting; the translator owns [`translator::TranslatorStats`].
//! [`delivery::Delivery::protocol_metrics`] covers the display and
//! audio/video paths in one per-command breakdown. See
//! `docs/TELEMETRY.md`.
//!
//! [`VideoDriver`]: thinc_display::driver::VideoDriver

#[cfg(test)]
extern crate self as thinc_core;
#[cfg(test)]
#[path = "../tests/fixtures/mod.rs"]
mod fixtures;
#[cfg(test)]
mod session_of_one;

pub mod audio;
pub mod buffer;
pub mod checkpoint;
pub mod degradation;
pub mod delivery;
pub mod liveness;
pub mod plane;
pub mod queue;
pub mod scaling;
pub mod scheduler;
pub mod server;
pub mod session;
pub mod shard;
pub mod translator;
pub mod video;

pub use buffer::ClientBuffer;
pub use checkpoint::{CheckpointError, TileDigests};
pub use degradation::{
    DegradationConfig, DegradationController, DegradationLevel, EpochSignals,
};
pub use delivery::{fold_fault_stats, Delivery, DeliveryPolicy, Phase};
pub use liveness::{LivenessConfig, LivenessTracker, LivenessVerdict};
pub use plane::PlaneCounters;
pub use queue::{classify, CommandQueue, OverwriteClass};
pub use scaling::ScalePolicy;
pub use server::{ServerConfig, ThincServer};
pub use session::{Credentials, Heard, SessionAuth, SharedSession};
pub use shard::ShardedManager;
pub use translator::Translator;
