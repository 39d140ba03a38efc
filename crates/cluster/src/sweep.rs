//! Parameter sweeps shared by the figure-regeneration benches, the
//! examples and the integration tests: one strategies × points loop over a
//! caller-supplied configuration builder, and the deterministic fan-out
//! behind `p3 sweep --jobs` and the `p3 figures` runner.

use crate::config::ClusterConfig;
use crate::engine::ClusterSim;
use p3_core::SyncStrategy;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One point of a sweep: the x-value and the aggregate throughput of each
/// strategy at that point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Sweep variable (Gbps, cluster size, slice parameters, …).
    pub x: f64,
    /// `(strategy name, aggregate samples/sec)` in input order.
    pub series: Vec<(String, f64)>,
}

/// Measured aggregate throughput of one configuration (samples/sec).
///
/// Returns `NaN` if the configuration fails to run (invalid setup or a
/// wedged simulation) so a sweep over many points survives one bad one;
/// plotting layers skip NaN points.
pub fn throughput_of(cfg: ClusterConfig) -> f64 {
    ClusterSim::new(cfg)
        .try_run()
        .map_or(f64::NAN, |r| r.throughput)
}

/// Runs `make_cfg(x, strategy)` for every point and strategy and collects
/// the throughputs (Figures 7, 10 and 12 are all this loop). Each series
/// is named by the built configuration's strategy, so a builder that
/// rewrites the strategy per point (Fig. 12's slice size) labels it.
pub fn sweep(
    xs: &[f64],
    strategies: &[SyncStrategy],
    make_cfg: impl Fn(f64, &SyncStrategy) -> ClusterConfig,
) -> Vec<SweepPoint> {
    xs.iter()
        .map(|&x| SweepPoint {
            x,
            series: strategies
                .iter()
                .map(|s| {
                    let cfg = make_cfg(x, s);
                    let name = cfg.strategy.name().to_string();
                    (name, throughput_of(cfg))
                })
                .collect(),
        })
        .collect()
}

/// Runs `f(0..n)` across `jobs` worker threads (clamped to `1..=n`) and
/// returns the results **in job-index order**, never completion order.
/// Each simulated run is deterministic, so the merged output is
/// byte-identical however many threads raced to produce it. With
/// `jobs <= 1` the jobs run inline on the caller's thread — the reference
/// behaviour the parallel path is pinned against.
///
/// # Panics
///
/// Propagates a panic from `f` (the scope join panics), and panics if the
/// results mutex was poisoned by such a panic.
#[expect(
    clippy::panic,
    reason = "every job index in 0..n is claimed and filled before the scope joins"
)]
pub fn run_indexed<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let jobs = jobs.clamp(1, n);
    if jobs == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let out = f(i);
                match slots.lock() {
                    Ok(mut s) => s[i] = Some(out),
                    Err(_) => return, // a sibling panicked; the scope re-raises
                }
            });
        }
    });
    let slots = slots.into_inner().unwrap_or_else(|e| e.into_inner());
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;
    use p3_topo::{Placement, Topology};

    #[test]
    fn sweep_points_carry_all_strategies() {
        let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
        let pts = sweep(&[20.0], &strategies, |g, s| {
            ClusterConfig::new(ModelSpec::resnet50(), s.clone(), 2, Bandwidth::from_gbps(g))
                .with_iters(1, 2)
                .with_seed(7)
        });
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].series.len(), 2);
        assert_eq!(pts[0].series[0].0, "Baseline");
        assert!(pts[0].series.iter().all(|(_, t)| *t > 0.0));

        // A builder that rewrites the strategy names the series after it.
        let sliced = sweep(&[5e4], &[SyncStrategy::p3()], |sz, _| {
            let s = SyncStrategy::p3_with_slice_params(sz as u64);
            ClusterConfig::new(ModelSpec::resnet50(), s, 2, Bandwidth::from_gbps(20.0))
                .with_iters(1, 1)
        });
        assert_eq!(sliced[0].series[0].0, "P3-50k");
    }

    #[test]
    fn oversubscription_sweep_degrades_monotonically() {
        let pts = sweep(&[1.0, 4.0], &[SyncStrategy::p3()], |f, s| {
            ClusterConfig::new(
                ModelSpec::resnet50(),
                s.clone(),
                4,
                Bandwidth::from_gbps(8.0),
            )
            .with_iters(1, 2)
            .with_seed(42)
            .with_topology(Topology::new(2, 2, f))
            .with_placement(Placement::Spread)
        });
        assert_eq!(pts.len(), 2);
        let t = |i: usize| pts[i].series[0].1;
        assert!(t(0) > 0.0 && t(1) > 0.0);
        assert!(
            t(1) <= t(0),
            "more oversubscription sped things up: {} vs {}",
            t(1),
            t(0)
        );
    }

    #[test]
    fn results_come_back_in_index_order() {
        let serial = run_indexed(1, 64, |i| i * i);
        let parallel = run_indexed(8, 64, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial[10], 100);
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        assert!(run_indexed(4, 0, |i| i).is_empty());
        assert_eq!(run_indexed(100, 2, |i| i), vec![0, 1]);
    }
}
