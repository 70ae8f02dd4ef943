#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Behavioural models of the thin-client systems THINC is evaluated
//! against (§8): X, NX, VNC, Sun Ray, the ICA/RDP class, the
//! GoToMyPC class, and a local PC. Each model is built over the same
//! substrates as THINC itself — the same window-system operation
//! stream, the same simulated network, the same measurement hooks —
//! and differs only in the *architectural* choices the paper
//! attributes each system's performance to:
//!
//! | System  | Intercept       | Primitives        | Delivery |
//! |---------|-----------------|-------------------|----------|
//! | X       | app requests    | high-level        | push + sync round trips |
//! | NX      | app requests    | high-level + compression | push, round-trip suppression |
//! | VNC     | framebuffer     | compressed pixels | client pull |
//! | Sun Ray | custom X server | low-level, inferred from pixels | push |
//! | ICA/RDP | display commands| rich 2D commands  | push |
//! | GoToMyPC| framebuffer     | 8-bit compressed pixels, relay-routed | client pull |
//!
//! The [`RemoteDisplay`] trait is the uniform harness interface; the
//! benchmark drives every system (and THINC, via an adapter in the
//! bench crate) through it.

pub mod framework;
pub mod local;
pub mod rdp;
pub mod scraper;
pub mod sunray;
pub mod traits;
pub mod xsystem;
pub mod xwire;

pub use local::LocalPc;
pub use rdp::{RdpClass, ResizeModel};
pub use scraper::{GoToMyPc, Vnc};
pub use sunray::SunRay;
pub use traits::{AvStats, RemoteDisplay};
pub use xsystem::{Nx, XSystem};
