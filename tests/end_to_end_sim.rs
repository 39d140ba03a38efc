//! Cross-crate integration: strategies from `p3-core`, models from
//! `p3-models`, executed by `p3-cluster` over `p3-net` — asserting the
//! paper's qualitative claims hold end to end.
//!
//! Iteration counts are small so the suite stays fast in debug builds; the
//! full-scale numbers live in the bench binaries.

use p3::cluster::{throughput_of, ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;

fn tp(model: &ModelSpec, s: SyncStrategy, gbps: f64) -> f64 {
    throughput_of(
        ClusterConfig::new(model.clone(), s, 4, Bandwidth::from_gbps(gbps))
            .with_iters(1, 4)
            .with_seed(11),
    )
}

#[test]
fn p3_beats_baseline_on_constrained_resnet() {
    // Fig. 7a: at 4 Gbps the baseline has left the linear regime, P3 has
    // not.
    let m = ModelSpec::resnet50();
    let base = tp(&m, SyncStrategy::baseline(), 4.0);
    let p3 = tp(&m, SyncStrategy::p3(), 4.0);
    assert!(
        p3 > base * 1.10,
        "P3 should clearly win at 4 Gbps: baseline {base:.1}, P3 {p3:.1}"
    );
}

#[test]
fn strategies_tie_at_high_bandwidth_on_resnet() {
    // Fig. 7a: with ample bandwidth every strategy is compute-bound.
    let m = ModelSpec::resnet50();
    let base = tp(&m, SyncStrategy::baseline(), 25.0);
    let p3 = tp(&m, SyncStrategy::p3(), 25.0);
    assert!(
        (p3 / base - 1.0).abs() < 0.05,
        "compute-bound regime should tie: baseline {base:.1}, P3 {p3:.1}"
    );
}

#[test]
fn slicing_matters_for_vgg_but_not_resnet() {
    // §5.3: VGG's single huge layer benefits from slicing alone; ResNet's
    // already-fine layers do not.
    let vgg = ModelSpec::vgg19();
    let v_base = tp(&vgg, SyncStrategy::baseline(), 20.0);
    let v_slice = tp(&vgg, SyncStrategy::slicing_only(), 20.0);
    assert!(
        v_slice > v_base * 1.15,
        "VGG slicing-only should win big: {v_base:.1} vs {v_slice:.1}"
    );

    let resnet = ModelSpec::resnet50();
    let r_base = tp(&resnet, SyncStrategy::baseline(), 8.0);
    let r_slice = tp(&resnet, SyncStrategy::slicing_only(), 8.0);
    let vgg_gain = v_slice / v_base;
    let resnet_gain = r_slice / r_base;
    assert!(
        vgg_gain > resnet_gain,
        "slicing should matter more for VGG ({vgg_gain:.2}x) than ResNet ({resnet_gain:.2}x)"
    );
}

#[test]
fn p3_speedup_shrinks_when_bandwidth_is_ample_for_sockeye() {
    let m = ModelSpec::sockeye();
    let tight = tp(&m, SyncStrategy::p3(), 4.0) / tp(&m, SyncStrategy::baseline(), 4.0);
    let ample = tp(&m, SyncStrategy::p3(), 30.0) / tp(&m, SyncStrategy::baseline(), 30.0);
    assert!(
        tight > ample,
        "P3's edge should be larger under constraint: {tight:.2}x vs {ample:.2}x"
    );
}

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
fn consumption_order_priorities_beat_generation_order() {
    // The ablation at the heart of the paper: same slicing, same transport,
    // only the priority order differs.
    let m = ModelSpec::resnet50();
    let consumption = tp(&m, SyncStrategy::p3(), 3.0);
    let generation = tp(&m, SyncStrategy::p3_generation_order(), 3.0);
    assert!(
        consumption >= generation,
        "consumption order {consumption:.1} vs generation order {generation:.1}"
    );
}

#[test]
fn more_machines_scale_aggregate_throughput() {
    // Fig. 10: doubling the cluster must increase aggregate throughput.
    let m = ModelSpec::resnet50();
    let at = |machines: usize| {
        let bw = Bandwidth::from_gbps(10.0);
        throughput_of(
            ClusterConfig::new(m.clone(), SyncStrategy::p3(), machines, bw)
                .with_iters(1, 3)
                .with_seed(5),
        )
    };
    let (t4, t8) = (at(4), at(8));
    assert!(t8 > t4 * 1.5, "scaling 4->8 machines: {t4:.1} -> {t8:.1}");
}
