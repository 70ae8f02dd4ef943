#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! THINC clients.
//!
//! The THINC client is a simple input/output device: it keeps a local
//! framebuffer, executes the five protocol commands (all of which map
//! directly onto commodity 2D hardware), hands YUV video data to the
//! "hardware" overlay for colorspace conversion and scaling, and
//! plays timestamped audio. The paper implemented several clients
//! (X, Java, Windows, PDA) plus an instrumented headless client used
//! for the PlanetLab experiments; this crate provides:
//!
//! - [`hardware`]: the client hardware model (acceleration
//!   capabilities and per-operation cost accounting, used for the
//!   client-processing-time measurements of §8.2),
//! - [`client`]: the full client ([`ThincClient`]) with a real
//!   framebuffer — byte-comparable against the server's screen,
//! - [`headless`]: the instrumented headless client that processes
//!   all display and audio data without a display, recording the
//!   statistics slow-motion benchmarking needs,
//! - [`stream`]: the wire-facing layer ([`StreamClient`]) that feeds
//!   raw connection bytes through the frame reader with decode-error
//!   recovery (skip damage, request a server resync, count it),
//! - [`reconnect`]: the client-driven reconnection policy
//!   ([`ReconnectPolicy`]) that turns a stale display into
//!   refresh requests on a seeded-jitter exponential backoff.

pub mod client;
pub mod cursor;
pub mod hardware;
pub mod headless;
pub mod reconnect;
pub mod stream;
pub mod zoom;

pub use client::ThincClient;
pub use hardware::{ClientHardware, HardwareCaps};
pub use headless::HeadlessClient;
pub use reconnect::{ReconnectConfig, ReconnectPolicy};
pub use stream::StreamClient;
pub use zoom::ZoomController;
