//! # vip-noc — the 2D-torus vault interconnect
//!
//! VIP's 32 vaults are connected by a 2D torus (8×4) of bidirectional
//! 64-bit links; with the 1.25 GHz clock each link carries 10 GB/s per
//! direction, and each router+link hop costs 3 cycles (§III-C, §V-A).
//! This crate models that network at flit granularity:
//!
//! * **dimension-order routing** (X then Y) with shortest-way wrap-around;
//! * **per-link serialization and contention** — a packet of `n` flits
//!   (8 bytes per flit plus a one-flit header) occupies each link it
//!   crosses for `n` cycles, and contending packets queue;
//! * **injection/ejection port contention** at every router;
//! * aggregate statistics (packets, flits, hop counts, latencies, link
//!   utilization).
//!
//! The payload type is generic: the system simulator instantiates
//! [`Torus`] with its memory-traffic message type, and tests can use
//! plain strings.
//!
//! ```
//! use vip_noc::{Torus, TorusConfig};
//!
//! let mut net: Torus<&str> = Torus::new(TorusConfig::vip());
//! net.inject(0, 31, 32, "hello").unwrap();
//! while !net.is_idle() {
//!     net.tick();
//! }
//! let (node, pkt) = net.pop_delivered().expect("delivered");
//! assert_eq!(node, 31);
//! assert_eq!(pkt.payload, "hello");
//! ```

mod routing;
mod stats;
mod torus;

pub use routing::Direction;
pub use stats::{NocStats, NocWork};
pub use torus::{InjectError, Packet, Torus, TorusConfig};

/// One clock cycle of the shared 1.25 GHz clock.
pub type Cycle = u64;
