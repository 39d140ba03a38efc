//! Self-profiling of the simulator — wall-clock observability *of the
//! engine itself*, as opposed to the simulated cluster (that is
//! `p3-trace`'s job).
//!
//! The heart of the crate is [`SimProfiler`]: a bag of scoped wall-clock
//! timers and monotonic counters that the cluster engine threads through
//! its hot paths when profiling is enabled. The engine holds it as an
//! `Option` — the same idiom as its trace handle — so an unprofiled run
//! pays one untaken branch per hook and nothing else.
//!
//! Wall-clock time is banned workspace-wide (`clippy.toml` disallows
//! `Instant::now`) because it is the canonical determinism hazard. This
//! crate is the single scoped exemption in the simulation: `Instant::now`
//! lives *here*, under a reasoned `#[expect]`, the engine only moves
//! opaque [`SpanToken`]s around, and no wall-clock value ever feeds back
//! into simulation state. The non-intrusiveness invariant
//! is pinned by test: a profiled run's event digest is bit-identical to an
//! unprofiled run's.
//!
//! On top of the profiler sit the serialized artifacts:
//!
//! * [`ProfileReport`] — one run's timers/counters/throughput, written by
//!   `p3 simulate --profile-out` as versioned JSON.
//! * [`BenchReport`] — a sweep of engine benchmark points (worker count ×
//!   backend), written by `p3 bench` as `BENCH_simulate.json`.
//! * [`compare_reports`] — the regression differ behind `p3 compare`,
//!   which holds deterministic fields (event counts, digests) to exact
//!   equality and wall-clock throughput to a tolerance band.
//!
//! Every versioned report names its members once in a walk over a
//! [`Doc`], which both prints and parses it, so a member the writer emits
//! and the reader rejects cannot exist.

mod bench;
mod compare;
mod doc;
mod report;

pub use bench::{BenchPoint, BenchReport, BENCH_FORMAT_VERSION};
pub use compare::{compare_reports, compare_reports_subset, Comparison};
pub use doc::{Doc, ReportError};
pub use report::{CounterEntry, ProfileReport, TimerEntry, PROFILE_FORMAT_VERSION};

use std::collections::BTreeMap;
use std::time::Instant;

/// An in-progress scoped measurement: the wall-clock instant a span began.
///
/// Opaque on purpose — holders can only hand it back to
/// [`SimProfiler::record`], never read the clock, so simulation crates
/// that move tokens around cannot leak wall time into simulation state.
#[derive(Debug)]
pub struct SpanToken(Instant);

/// Accumulated wall time of one timer key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimerStat {
    /// Number of recorded spans.
    pub calls: u64,
    /// Total wall time across all spans, in nanoseconds.
    pub nanos: u128,
}

/// Scoped wall-clock timers plus monotonic counters for one simulation
/// run.
///
/// Keys are `&'static str` so the hot-path hooks allocate nothing; the
/// maps are `BTreeMap` so reports serialize in a deterministic order.
#[derive(Debug)]
pub struct SimProfiler {
    started: Instant,
    timers: BTreeMap<&'static str, TimerStat>,
    counters: BTreeMap<&'static str, u64>,
}

impl Default for SimProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl SimProfiler {
    /// A fresh profiler; the run's total wall clock starts now.
    #[expect(
        clippy::disallowed_methods,
        reason = "constructor stores the start instant; the profiled-vs-unprofiled bit-identity test pins that it never feeds simulation state"
    )]
    pub fn new() -> Self {
        SimProfiler {
            started: Instant::now(),
            timers: BTreeMap::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Opens a scoped span. Pair with [`SimProfiler::record`].
    #[expect(
        clippy::disallowed_methods,
        reason = "span token is consumed by record() into wall-time totals only, never into simulated state"
    )]
    #[inline]
    pub fn begin(&self) -> SpanToken {
        SpanToken(Instant::now())
    }

    /// Closes a span opened by [`SimProfiler::begin`], charging its wall
    /// time to `key`.
    #[inline]
    pub fn record(&mut self, key: &'static str, span: SpanToken) {
        let nanos = span.0.elapsed().as_nanos();
        let t = self.timers.entry(key).or_default();
        t.calls += 1;
        t.nanos += nanos;
    }

    /// Adds `n` to the monotonic counter `key`.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Overwrites the counter `key` (for values computed once at the end
    /// of a run, e.g. heap-op totals read off the event calendar).
    #[inline]
    pub fn set(&mut self, key: &'static str, v: u64) {
        self.counters.insert(key, v);
    }

    /// Wall time elapsed since the profiler was created.
    pub fn wall_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Raw timer stats, keyed and ordered deterministically.
    pub fn timers(&self) -> &BTreeMap<&'static str, TimerStat> {
        &self.timers
    }

    /// Raw counters, keyed and ordered deterministically.
    pub fn counters(&self) -> &BTreeMap<&'static str, u64> {
        &self.counters
    }

    /// Freezes this profiler into a versioned [`ProfileReport`].
    ///
    /// `events` is the number of simulator events the run dispatched and
    /// `sim_seconds` how far the simulated clock advanced; together with
    /// the profiler's own wall clock they yield the derived throughput
    /// figures (events/sec and the sim-time/wall-time ratio).
    pub fn report(&self, events: u64, sim_seconds: f64) -> ProfileReport {
        let wall = self.wall_seconds();
        ProfileReport {
            version: PROFILE_FORMAT_VERSION,
            wall_seconds: wall,
            sim_seconds,
            events,
            events_per_sec: if wall > 0.0 {
                events as f64 / wall
            } else {
                0.0
            },
            sim_rate: if wall > 0.0 { sim_seconds / wall } else { 0.0 },
            timers: self
                .timers
                .iter()
                .map(|(k, t)| TimerEntry {
                    key: k.to_string(),
                    calls: t.calls,
                    seconds: t.nanos as f64 * 1e-9,
                })
                .collect(),
            counters: self
                .counters
                .iter()
                .map(|(k, v)| CounterEntry {
                    key: k.to_string(),
                    value: *v,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_calls_and_time() {
        let mut p = SimProfiler::new();
        for _ in 0..3 {
            let t = p.begin();
            p.record("dispatch/Compute", t);
        }
        let stat = p.timers()["dispatch/Compute"];
        assert_eq!(stat.calls, 3);
    }

    #[test]
    fn counters_add_and_set() {
        let mut p = SimProfiler::new();
        p.add("net/reallocations", 2);
        p.add("net/reallocations", 3);
        p.set("heap/pushes", 99);
        assert_eq!(p.counters()["net/reallocations"], 5);
        assert_eq!(p.counters()["heap/pushes"], 99);
    }

    #[test]
    fn report_derives_throughput_deterministically() {
        let mut p = SimProfiler::new();
        p.add("c", 1);
        let r = p.report(1000, 2.0);
        assert_eq!(r.version, PROFILE_FORMAT_VERSION);
        assert_eq!(r.events, 1000);
        assert!(r.wall_seconds >= 0.0);
        assert!(r.events_per_sec >= 0.0);
        assert_eq!(r.counters.len(), 1);
        assert_eq!(r.counters[0].key, "c");
    }
}
