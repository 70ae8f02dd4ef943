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
//! - [`hardware`]: the client hardware model (per-operation cost
//!   accounting on a commodity accelerated card, used for the
//!   client-processing-time measurements of §8.2),
//! - [`client`]: the full client ([`ThincClient`]) with a real
//!   framebuffer — byte-comparable against the server's screen,
//! - [`stream`]: the wire-facing layer ([`StreamClient`]) that feeds
//!   raw connection bytes through the frame reader with decode-error
//!   recovery (skip damage, request a server resync, count it). It is
//!   also the instrumented headless client: the benchmark harness
//!   feeds it every frame and reads its counters,
//! - [`reconnect`]: the client-driven reconnection policy
//!   ([`ReconnectPolicy`]) that turns a stale display into
//!   refresh requests on a seeded-jitter exponential backoff.

pub mod client;
pub mod cursor;
pub mod hardware;
pub mod reconnect;
pub mod stream;
pub mod zoom;

pub use client::ThincClient;
pub use hardware::ClientHardware;
pub use reconnect::{ReconnectConfig, ReconnectPolicy};
pub use stream::StreamClient;
pub use zoom::ZoomController;
