#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! The benchmark harness: regenerates every table and figure of the
//! THINC paper's evaluation (§8).
//!
//! - [`thinc_system`]: adapts the real THINC server+client pipeline to
//!   the harness's [`RemoteDisplay`] interface,
//! - [`sites`]: the remote sites of Table 2 with distance-derived
//!   network parameters (including the Korea PlanetLab site's 256 KB
//!   TCP-window clamp),
//! - [`webbench`]: the web page-load benchmark (Figures 2, 3, 4),
//! - [`avbench`]: the audio/video playback benchmark (Figures 5, 6, 7),
//! - [`report`]: plain-text table rendering for the figure binaries.
//!
//! Run `cargo run -p thinc-bench --bin figures -- --all` to regenerate
//! everything; see `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! [`RemoteDisplay`]: thinc_baselines::RemoteDisplay

pub mod avbench;
pub mod report;
pub mod sites;
pub mod thinc_system;
pub mod webbench;

pub use sites::{remote_sites, RemoteSite};
pub use thinc_system::ThincSystem;
