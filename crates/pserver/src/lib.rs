//! # p3-pserver — parameter-server substrate
//!
//! A from-scratch reimplementation of the pieces of MXNet KVStore / ps-lite
//! that the paper builds on (§4.1):
//!
//! * [`ShardPlan`] — placement of parameter arrays onto server shards,
//!   including KVStore's split-large/randomize-small heuristic;
//! * [`KvServer`] — the aggregation state machine: wait for all workers'
//!   pushes, average, apply the optimizer, bump the version, serve pulls
//!   (the real training harness in `p3-train` runs on it);
//! * [`wire_bytes`] — the size on the wire (header + f32 payload) of every
//!   simulated transfer;
//! * [`OptimizerKind`] — server-side SGD / momentum update rules, shared
//!   with the real training harness in `p3-train`.
//!
//! The P3 strategy itself (slicing, priorities) lives in `p3-core` and
//! builds on the shard plan and wire sizes.
//!
//! # Examples
//!
//! ```
//! use p3_pserver::{Key, KvServer, OptimizerKind, WorkerId};
//!
//! let mut server = KvServer::new(2, OptimizerKind::Sgd { lr: 0.1 });
//! server.init(Key(0), vec![0.0; 4]);
//! server.push(WorkerId(0), Key(0), &[1.0, 1.0, 1.0, 1.0]);
//! server.push(WorkerId(1), Key(0), &[3.0, 3.0, 3.0, 3.0]);
//! // mean grad = 2.0, lr = 0.1 → params = −0.2
//! assert_eq!(server.pull(Key(0)).0[0], -0.2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod optim;
mod protocol;
mod reliability;
mod server;
mod sharding;
mod types;

pub use optim::{Optimizer, OptimizerKind};
pub use protocol::{wire_bytes, HEADER_BYTES};
pub use reliability::{RetryDecision, RetryPolicy};
pub use server::{KvServer, PushOutcome};
pub use sharding::{ShardPlan, ShardSlice, KVSTORE_SPLIT_THRESHOLD};
pub use types::{Key, ServerId, WorkerId};
