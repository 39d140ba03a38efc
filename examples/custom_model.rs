//! Scenario: you built your own architecture and want to know (a) whether
//! it needs P3 and (b) what slice size to use — exercising the public
//! `ModelSpec` construction API and the Fig. 12 sweep on a user model.
//!
//! The model here is a deliberately skewed "wide-head" classifier: a few
//! cheap convolutions feeding a giant embedding-style dense layer, like
//! the recommendation models the paper's introduction motivates.
//!
//! Run with: `cargo run --release --example custom_model`

use p3::cluster::{ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;

fn build_wide_head() -> ModelSpec {
    let blocks = vec![
        ComputeBlock::new(
            "conv1",
            BlockKind::Conv,
            2 * 3 * 3 * 3 * 64 * 112 * 112,
            vec![ParamArray::new("conv1.weight", 3 * 3 * 3 * 64)],
        ),
        ComputeBlock::new(
            "conv2",
            BlockKind::Conv,
            2 * 3 * 3 * 64 * 128 * 56 * 56,
            vec![ParamArray::new("conv2.weight", 3 * 3 * 64 * 128)],
        ),
        ComputeBlock::new(
            "wide_head",
            BlockKind::Dense,
            2 * 128 * 60_000_u64,
            vec![
                ParamArray::new("wide_head.weight", 128 * 60_000),
                ParamArray::new("wide_head.bias", 60_000),
            ],
        ),
    ];
    ModelSpec::from_blocks("WideHead", SampleUnit::Images, blocks, 90.0, 64, 0.0)
}

fn main() {
    let model = build_wide_head();
    println!(
        "{}: {:.1}M params, heaviest array = {:.1}% of model\n",
        model.name(),
        model.total_params() as f64 / 1e6,
        100.0 * model.heaviest_array().expect("params").params as f64 / model.total_params() as f64
    );

    let bw = Bandwidth::from_gbps(10.0);
    let cfg = |s: SyncStrategy| {
        ClusterConfig::new(model.clone(), s, 4, bw)
            .with_iters(2, 6)
            .with_seed(3)
    };
    let tp = |s| {
        ClusterSim::new(cfg(s))
            .try_run()
            .map_or(f64::NAN, |r| r.throughput)
    };
    let base = tp(SyncStrategy::baseline());
    let p3 = tp(SyncStrategy::p3());
    println!(
        "at {bw}: baseline {base:.0} img/s, P3 {p3:.0} img/s ({:+.0}%)\n",
        (p3 / base - 1.0) * 100.0
    );

    println!("slice-size sweep (Fig. 12 methodology):");
    for sz in [5_000, 20_000, 50_000, 200_000, 1_000_000] {
        let t = tp(SyncStrategy::p3_with_slice_params(sz));
        println!("  {sz:>9} params/slice: {t:7.1} img/s");
    }
}
