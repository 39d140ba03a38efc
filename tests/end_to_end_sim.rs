//! Cross-crate integration: strategies from `p3-core`, models from
//! `p3-models`, executed by `p3-cluster` over `p3-net`. The paper's claims
//! themselves are rows of `p3_bench::CLAIMS`, checked by `paper_claims.rs`.

use p3::cluster::{ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;

#[test]
fn simulation_is_deterministic() {
    let mk = || {
        ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(4.0),
        )
        .with_iters(1, 3)
        .with_seed(99)
    };
    let a = ClusterSim::new(mk()).run();
    let b = ClusterSim::new(mk()).run();
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.events, b.events);
}

#[test]
fn more_machines_scale_aggregate_throughput() {
    // Fig. 10: doubling the cluster must increase aggregate throughput.
    let m = ModelSpec::resnet50();
    let at = |machines: usize| {
        let bw = Bandwidth::from_gbps(10.0);
        let cfg = ClusterConfig::new(m.clone(), SyncStrategy::p3(), machines, bw)
            .with_iters(1, 3)
            .with_seed(5);
        ClusterSim::new(cfg)
            .try_run()
            .expect("runs clean")
            .throughput
    };
    let (t4, t8) = (at(4), at(8));
    assert!(t8 > t4 * 1.5, "scaling 4->8 machines: {t4:.1} -> {t8:.1}");
}
