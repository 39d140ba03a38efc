//! # p3-cluster — the data-parallel training cluster simulator
//!
//! Executes a [`SyncStrategy`](p3_core::SyncStrategy) end to end: every
//! machine hosts a worker (computing forward/backward passes with
//! calibrated per-block durations) and a colocated parameter-server shard
//! (aggregating, updating, responding), exchanging gradient and parameter
//! messages over the fluid network of `p3-net`. Throughput, iteration
//! times, and `bwm-ng`-style NIC utilization traces come out the other
//! side — the quantities plotted in Figures 7–10 and 12–14 of the paper.
//!
//! Every run goes through one driver, [`ClusterSim::run_until`], which
//! pauses at an iteration boundary; a [`ClusterSim::snapshot`] taken there
//! checkpoints the run. [`run_indexed`] fans independent runs out over
//! threads, returning them in index order.
//!
//! The analytic [`gantt`] module additionally reproduces the unit-time
//! schedules of Figures 4 and 6.
//!
//! # Examples
//!
//! ```no_run
//! use p3_cluster::{ClusterConfig, ClusterSim};
//! use p3_core::SyncStrategy;
//! use p3_models::ModelSpec;
//! use p3_net::Bandwidth;
//!
//! // VGG-19 on four machines at 15 Gbps: baseline vs P3.
//! let mk = |s: SyncStrategy| {
//!     ClusterConfig::new(ModelSpec::vgg19(), s, 4, Bandwidth::from_gbps(15.0))
//! };
//! let base = ClusterSim::new(mk(SyncStrategy::baseline())).run();
//! let p3 = ClusterSim::new(mk(SyncStrategy::p3())).run();
//! println!("P3 speedup: {:.2}x", p3.speedup_over(&base));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bound;
mod config;
mod egress;
mod engine;
mod faults;
pub mod gantt;
mod sweep;
mod timeline;

pub use config::{
    BackendKind, ClusterConfig, FaultStats, LinkUtilization, MessageStats, RunError, RunResult,
    UtilizationTrace, WireCompression,
};
pub use engine::{ClusterSim, MAX_MACHINES};
pub use faults::{FaultPlan, LinkDegradation, StragglerEpisode, WorkerCrash};
pub use p3_des::snap::{SnapshotError, SNAP_MAGIC, SNAP_VERSION};
pub use sweep::run_indexed;
pub use timeline::{ascii_timeline, timeline_schedule};
