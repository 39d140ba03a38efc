//! Smoke tests that every figure pipeline produces plausible data at toy
//! scale — the full-resolution numbers live in `crates/bench/src/bin`.

use p3::cluster::gantt::{
    figure6_layerwise, figure6_sliced, schedule_sync, schedule_tandem, PipelineSpec, SyncOrder,
};
use p3::cluster::{sweep, ClusterConfig};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;

#[test]
fn fig4_delay_halves() {
    let a = schedule_sync(&PipelineSpec::figure4(), SyncOrder::Fifo);
    let b = schedule_sync(&PipelineSpec::figure4(), SyncOrder::PriorityPreemptive);
    assert_eq!(a.iteration_gap, 4.0);
    assert_eq!(b.iteration_gap, 2.0);
}

#[test]
fn fig5_shapes_match_paper_description() {
    // VGG: one array dominates; Sockeye: heaviest block first; ResNet:
    // many modest arrays.
    let vgg = ModelSpec::vgg19();
    let frac = vgg.heaviest_array().expect("params").params as f64 / vgg.total_params() as f64;
    assert!(frac > 0.7);
    assert_eq!(ModelSpec::sockeye().heaviest_block_index(), Some(0));
    assert!(ModelSpec::resnet50().num_arrays() > 150);
}

#[test]
fn fig6_slicing_saves() {
    let a = schedule_tandem(&figure6_layerwise());
    let b = schedule_tandem(&figure6_sliced());
    assert!(b.makespan < a.makespan);
}

#[test]
fn fig7_sweep_produces_monotone_ish_curves() {
    let pts = sweep(&[2.0, 20.0], &[SyncStrategy::p3()], |g, s| {
        ClusterConfig::new(ModelSpec::resnet50(), s.clone(), 2, Bandwidth::from_gbps(g))
            .with_iters(1, 2)
            .with_seed(3)
    });
    assert!(
        pts[1].series[0].1 > pts[0].series[0].1,
        "more bandwidth, more throughput"
    );
}

#[test]
fn fig12_extreme_slice_sizes_are_suboptimal() {
    let pts = sweep(&[1e3, 5e4, 2e6], &[SyncStrategy::p3()], |sz, _| {
        let s = SyncStrategy::p3_with_slice_params(sz as u64);
        ClusterConfig::new(ModelSpec::resnet50(), s, 4, Bandwidth::from_gbps(4.0))
            .with_iters(1, 3)
            .with_seed(3)
    });
    assert_eq!(
        pts[1].series[0].0, "P3-50k",
        "series named by the built strategy"
    );
    let tiny = pts[0].series[0].1;
    let mid = pts[1].series[0].1;
    assert!(mid >= tiny, "50k ({mid:.1}) should beat 1k ({tiny:.1})");
}
