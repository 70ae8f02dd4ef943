#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! THINC: a virtual display architecture for thin-client computing.
//!
//! This is the umbrella crate of the workspace; it re-exports every
//! subsystem so that examples and integration tests can use a single
//! dependency. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
pub use thinc_baselines as baselines;
pub use thinc_bench as bench;
pub use thinc_client as client;
pub use thinc_compress as compress;
pub use thinc_core as core;
pub use thinc_display as display;
pub use thinc_net as net;
pub use thinc_protocol as protocol;
pub use thinc_raster as raster;
pub use thinc_telemetry as telemetry;
pub use thinc_workloads as workloads;
