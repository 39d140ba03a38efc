//! # p3-net — fluid flow-level network simulator
//!
//! Models the cluster fabric the paper's experiments run on: every machine
//! has a full-duplex NIC (independent transmit/receive ports of equal
//! bandwidth), transfers are fluid flows sharing ports under **max-min
//! fairness within a priority class** and **strict priority across classes**
//! (the fluid analogue of P3's priority-tagged packet scheduling), and
//! machine 0's utilization trace reproduces the paper's `bwm-ng` NIC
//! sampling.
//!
//! The fabric is driven externally — the cluster simulator starts flows,
//! asks for [`Network::next_event_time`], and [`Network::poll`]s completions
//! — so the whole simulation stays single-threaded and deterministic.
//!
//! # Examples
//!
//! ```
//! use p3_des::{SimDuration, SimTime};
//! use p3_net::{Bandwidth, MachineId, Network, NetworkConfig, Priority};
//!
//! let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(10.0))
//!     .with_latency(SimDuration::ZERO);
//! let mut net = Network::new(cfg);
//!
//! // An urgent slice and a bulk slice leave machine 0 together; the urgent
//! // one gets the whole port first.
//! net.start_flow(SimTime::ZERO, MachineId(0), MachineId(1), 250_000, Priority(0), 1);
//! net.start_flow(SimTime::ZERO, MachineId(0), MachineId(2), 250_000, Priority(9), 2);
//! let first = net.next_event_time().unwrap();
//! let done = net.poll(first);
//! assert_eq!(done[0].tag, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::indexing_slicing)]

mod allocator;
mod multilink;
mod network;
mod packet;
mod trace;
mod types;

pub use allocator::{allocate_rates_on_graph, AllocWork, FlowSpec, GraphAllocation};
pub use multilink::{LinkGraph, LinkId};
pub use network::{CompletedFlow, LinkUsage, NetStats, Network, NetworkConfig};
pub use packet::{packet_simulate, PacketMessage, DEFAULT_MTU};
pub use trace::PortTrace;
pub use types::{Bandwidth, FlowId, MachineId, Priority};
