//! # p3-core — Priority-based Parameter Propagation
//!
//! The paper's contribution (Jayarajan et al., MLSys 2019), as three
//! composable pieces:
//!
//! 1. **Parameter slicing** ([`p3_plan`]): split every layer into slices of
//!    at most 50,000 parameters and place them round-robin across server
//!    shards, so the push → aggregate/update → pull pipeline stays busy
//!    even when one layer holds 71.5% of the model (VGG-19's fc6).
//! 2. **Priority queues** ([`PrioQueue`]): the producer–consumer structure
//!    at the worker egress and the server ingress/egress; a single consumer
//!    transmits exactly one message at a time, always the most urgent.
//!    `PrioQueue` is p3-des's `OrderedQueue` keyed by priority, the ordered
//!    queue the event calendar is built on.
//! 3. **Priority assignment** ([`SyncStrategy::priorities`]): a slice's
//!    urgency is *when the next forward pass consumes it* — layer 0 first —
//!    not when backprop produced it.
//!
//! [`SyncStrategy`] packages these into declarative configurations for the
//! baseline (MXNet KVStore), slicing-only, full P3, TensorFlow-style and
//! Poseidon-WFBP variants, plus the ablations, all executed by the cluster
//! simulator in `p3-cluster`.
//!
//! # Examples
//!
//! ```
//! use p3_core::{PrioQueue, SyncStrategy};
//! use p3_models::ModelSpec;
//!
//! // Build P3's plan for VGG-19 on four servers.
//! let strat = SyncStrategy::p3();
//! let model = ModelSpec::vgg19();
//! let plan = strat.plan(&model, 4, 0);
//! assert!(plan.slices().iter().all(|s| s.params <= 50_000));
//!
//! // Backprop enqueues final-layer slices first, but the first layer wins.
//! let mut q = PrioQueue::new();
//! q.push(37, "fc8.slice0");
//! q.push(0, "conv1.slice0");
//! assert_eq!(q.pop(), Some((0, "conv1.slice0")));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
mod slicing;
mod strategy;

pub use queue::PrioQueue;
pub use slicing::{p3_plan, DEFAULT_SLICE_PARAMS};
pub use strategy::{
    Egress, PriorityMode, PullTiming, ResponseMode, ServerProcessing, Slicing, SyncStrategy,
};
