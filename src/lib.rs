//! # p3 — Priority-based Parameter Propagation, reproduced in Rust
//!
//! A full reproduction of *"Priority-based Parameter Propagation for
//! Distributed DNN Training"* (Jayarajan et al., MLSys 2019): the P3
//! synchronization mechanism, the MXNet-KVStore-style parameter-server
//! substrate it modifies, a deterministic cluster simulator standing in
//! for the paper's GPU testbed, and a real data-parallel training engine
//! for the accuracy experiments.
//!
//! This facade crate re-exports every workspace crate under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `p3-des` | simulated time, event calendar, deterministic RNG |
//! | [`net`] | `p3-net` | fluid flow network, strict-priority max-min sharing |
//! | [`topo`] | `p3-topo` | racks, oversubscribed cores, placement policies |
//! | [`models`] | `p3-models` | ResNet-50 / VGG-19 / InceptionV3 / Sockeye zoo |
//! | [`pserver`] | `p3-pserver` | sharding, wire sizes, KV aggregation |
//! | [`core`] | `p3-core` | **the contribution**: slicing, priorities, strategies |
//! | [`cluster`] | `p3-cluster` | end-to-end training-cluster simulation |
//! | [`trace`] | `p3-trace` | typed event traces, Perfetto export, trace files |
//! | [`audit`] | `p3-audit` | offline invariant auditor for exported traces |
//! | [`tensor`] | `p3-tensor` | matrix ops, exact-backprop MLP, datasets |
//! | [`compress`] | `p3-compress` | DGC, QSGD, TernGrad, 1-bit SGD baselines |
//! | [`train`] | `p3-train` | real synchronous / DGC / ASGD training |
//! | [`allreduce`] | `p3-allreduce` | ring / halving–doubling allreduce step schedules |
//! | [`prof`] | `p3-prof` | simulator self-profiling and perf-regression reports |
//!
//! # Quick start
//!
//! ```no_run
//! use p3::cluster::{ClusterConfig, ClusterSim};
//! use p3::core::SyncStrategy;
//! use p3::models::ModelSpec;
//! use p3::net::Bandwidth;
//!
//! // VGG-19 on 4 machines at 15 Gbps, baseline vs P3 (paper Fig. 7c).
//! let run = |s: SyncStrategy| {
//!     ClusterSim::new(ClusterConfig::new(
//!         ModelSpec::vgg19(), s, 4, Bandwidth::from_gbps(15.0),
//!     ))
//!     .run()
//! };
//! let baseline = run(SyncStrategy::baseline());
//! let p3 = run(SyncStrategy::p3());
//! println!("P3 speedup: {:.2}x", p3.speedup_over(&baseline));
//! ```

#![warn(missing_docs)]

pub use p3_allreduce as allreduce;
pub use p3_audit as audit;
pub use p3_cluster as cluster;
pub use p3_compress as compress;
pub use p3_core as core;
pub use p3_des as des;
pub use p3_models as models;
pub use p3_net as net;
pub use p3_prof as prof;
pub use p3_pserver as pserver;
pub use p3_tensor as tensor;
pub use p3_topo as topo;
pub use p3_trace as trace;
pub use p3_train as train;
