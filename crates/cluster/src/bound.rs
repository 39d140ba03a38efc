//! Analytic lower bound on iteration time — the yardstick the scheduling
//! literature that followed P3 (ByteScheduler's Ω-bound, in particular)
//! measures against.
//!
//! No parameter-server schedule can beat the larger of (a) the compute
//! critical path and (b) the per-NIC volume bound: every machine must move
//! the remote share of the gradients out and the remote share of the
//! updated parameters in, at most at effective line rate and with perfect
//! overlap. The measured-vs-bound ratio quantifies how much headroom a
//! strategy leaves on the table.

use crate::config::ClusterConfig;
use p3_des::SimDuration;

/// The analytic bound and its components.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationBound {
    /// Compute-only iteration time (forward + backward).
    pub compute: SimDuration,
    /// Time to transmit each machine's unavoidable outbound volume.
    pub tx: SimDuration,
    /// Time to receive each machine's unavoidable inbound volume.
    pub rx: SimDuration,
}

impl IterationBound {
    /// The binding constraint: no schedule can complete an iteration
    /// faster.
    pub fn limit(&self) -> SimDuration {
        self.compute.max(self.tx).max(self.rx)
    }

    /// The throughput this bound allows for the whole cluster
    /// (samples/sec), `machines` workers each computing `batch` samples
    /// an iteration.
    pub fn throughput_limit(&self, batch: usize, machines: usize) -> f64 {
        (batch * machines) as f64 / self.limit().as_secs_f64()
    }
}

/// Computes the bound for a configuration.
///
/// With worker `i` and server shard `i` colocated, machine `i` must send
/// its gradients to the `(N−1)/N` remote shards **and** broadcast its
/// shard's updated parameters to the `N−1` remote workers — in total
/// `2·S·(N−1)/N` bytes out (and, symmetrically, in) per iteration, where
/// `S` is the model's gradient volume.
///
/// # Panics
///
/// Panics if the configuration is degenerate.
pub fn iteration_bound(cfg: &ClusterConfig) -> IterationBound {
    assert!(cfg.machines > 0, "no machines");
    let compute = cfg.model.iteration_time();
    let n = cfg.machines as f64;
    let volume = cfg.model.total_bytes() as f64 * 2.0 * (n - 1.0) / n;
    let rate = cfg.bandwidth.bytes_per_sec() * cfg.net_efficiency;
    let dir = SimDuration::from_secs_f64(volume / rate);
    IterationBound {
        compute,
        tx: dir,
        rx: dir,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, ClusterSim};
    use p3_core::SyncStrategy;
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;

    fn cfg(gbps: f64) -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(gbps),
        )
        .with_iters(1, 3)
    }

    #[test]
    fn compute_binds_at_high_bandwidth() {
        let b = iteration_bound(&cfg(100.0));
        assert_eq!(b.limit(), b.compute);
    }

    #[test]
    fn network_binds_at_low_bandwidth() {
        let b = iteration_bound(&cfg(0.5));
        assert_eq!(b.limit(), b.tx);
        assert!(b.tx > b.compute);
    }

    #[test]
    fn no_strategy_beats_the_bound() {
        for gbps in [1.0, 4.0, 20.0] {
            let c = cfg(gbps);
            let bound = iteration_bound(&c);
            let allowed = bound.throughput_limit(c.model.default_batch(), c.machines);
            for strategy in [SyncStrategy::baseline(), SyncStrategy::p3()] {
                let mut c = c.clone();
                c.strategy = strategy;
                let name = c.strategy.name().to_string();
                let r = ClusterSim::new(c).run();
                assert!(
                    r.throughput <= allowed * 1.02,
                    "{name} at {gbps} Gbps: {} exceeds bound {allowed}",
                    r.throughput
                );
            }
        }
    }

    #[test]
    fn p3_approaches_the_bound_where_baseline_does_not() {
        // At the crossover point, P3 should realize most of the achievable
        // throughput while the baseline leaves headroom.
        let c = cfg(4.0);
        let allowed = iteration_bound(&c).throughput_limit(c.model.default_batch(), c.machines);
        let p3 = ClusterSim::new(c.clone()).run().throughput / allowed;
        let mut cb = c;
        cb.strategy = SyncStrategy::baseline();
        let base = ClusterSim::new(cb).run().throughput / allowed;
        assert!(p3 > 0.85, "P3 realizes {p3:.2} of the bound");
        assert!(p3 > base, "P3 {p3:.2} vs baseline {base:.2}");
    }

    #[test]
    fn bound_volume_formula() {
        // 4 machines: each NIC must move 2·S·3/4 bytes per direction.
        let c = cfg(1.0);
        let b = iteration_bound(&c);
        let s = c.model.total_bytes() as f64;
        let expect = 2.0 * s * 0.75 / (1e9 / 8.0 * c.net_efficiency);
        assert!((b.tx.as_secs_f64() - expect).abs() < 1e-9);
    }
}
