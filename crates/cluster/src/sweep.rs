//! Parameter sweeps shared by the figure-regeneration benches, the
//! examples and the integration tests: one strategies × points loop over a
//! caller-supplied configuration builder.

use crate::config::ClusterConfig;
use crate::engine::ClusterSim;
use p3_core::SyncStrategy;

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
}
