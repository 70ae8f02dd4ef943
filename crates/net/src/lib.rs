#![warn(missing_docs)]
#![forbid(unsafe_code)]
//! Network substrate for the THINC experiments.
//!
//! The paper evaluates thin clients on a physical testbed (switched
//! FastEthernet + a NISTNet network emulator) and on PlanetLab nodes
//! around the world. This crate replaces that hardware with a
//! deterministic virtual-time simulation:
//!
//! - [`time`]: virtual clock types ([`SimTime`], [`SimDuration`]),
//! - [`tcp`]: a flow-level TCP model (slow start, congestion window,
//!   receive-window clamp, serialization delay, propagation delay) —
//!   the effects that drive the paper's WAN results, including the
//!   Korea site's 256 KB-window throughput cap,
//! - [`fault`]: deterministic fault injection — seeded segment loss,
//!   byte-corruption windows, scheduled outages, and bandwidth
//!   collapses, declared per link as a [`FaultPlan`],
//! - [`link`]: duplex links, network configurations for the paper's
//!   three environments (LAN Desktop, WAN Desktop, 802.11g PDA) and
//!   relay routing (the GoToMyPC intermediate-server topology),
//! - [`trace`]: packet traces and slow-motion-benchmarking
//!   measurement (the reproduction's "Ethereal packet monitor"),
//! - [`transport`]: *real* byte transports (TCP sockets, in-memory
//!   channels) with non-blocking semantics, so the same protocol
//!   stack also runs live between threads or processes.
//!
//! Everything is deterministic: the same workload over the same
//! configuration produces byte- and microsecond-identical results.

pub mod fault;
pub mod link;
pub mod tcp;
pub mod time;
pub mod trace;
pub mod transport;

pub use fault::{FaultPlan, FaultState, FaultStats};
pub use link::{DuplexLink, NetworkConfig};
pub use tcp::{TcpParams, TcpPipe};
pub use time::{SimDuration, SimTime};
pub use trace::{Direction, PacketTrace};
