//! # p3-ledger — the layered performance ledger
//!
//! A benchmark harness for the P3 simulator. It calls each layer's public
//! entry points and times those calls from outside; nothing is
//! instrumented inside the simulator beyond the engine's own opt-in
//! profiler. Each workload runs in its own process, single-threaded, as
//! a closed loop of reps, timed on the thread's CPU clock. See
//! `README.md` for the workloads, metrics and the comparison recipe.

#![warn(missing_docs)]

pub mod clock;
pub mod diff;
pub mod json;
pub mod layers;
pub mod measure;
pub mod observe;
pub mod report;
pub mod spec;
pub mod stats;
