//! Extension: P3's principles applied to collective aggregation — testing
//! the paper's §2/§6 claim that slicing + priority generalize beyond the
//! parameter server.
//!
//! Compares, per model and bandwidth: the PS baseline, PS-P3, layer-wise
//! FIFO ring-allreduce (Horovod-without-fusion), and sliced+priority
//! ring-allreduce ("P3-AR"), plus a collective slice-size sweep showing
//! that collectives want far coarser slices (fusion-buffer economics).
//! Every allreduce run is the cluster engine's ring backend.

use p3_allreduce::DEFAULT_COLLECTIVE_SLICE;
use p3_cluster::{throughput_of, BackendKind, ClusterConfig};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

/// Aggregate throughput of one ring-allreduce run on 4 machines.
fn ring(model: &ModelSpec, strategy: SyncStrategy, bw: Bandwidth, iters: (u64, u64)) -> f64 {
    throughput_of(
        ClusterConfig::new(model.clone(), strategy, 4, bw)
            .with_iters(iters.0, iters.1)
            .with_seed(17)
            .with_backend(BackendKind::Ring),
    )
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };

    for (model, gbps_list) in [
        (ModelSpec::resnet50(), vec![2.0, 4.0, 8.0]),
        (ModelSpec::vgg19(), vec![5.0, 10.0, 20.0]),
    ] {
        p3_bench::print_header(
            "extension-allreduce",
            &format!("model: {}  machines: 4", model.name()),
        );
        println!("# x = gbps, series = PS-Baseline, PS-P3, AR-layerwise-FIFO, AR-sliced-priority");
        for &g in &gbps_list {
            let bw = Bandwidth::from_gbps(g);
            let ps = |s: SyncStrategy| {
                throughput_of(
                    ClusterConfig::new(model.clone(), s, 4, bw)
                        .with_iters(warmup, measure)
                        .with_seed(42),
                )
            };
            let ps_base = ps(SyncStrategy::baseline());
            let ps_p3 = ps(SyncStrategy::p3());
            let ar_fifo = ring(&model, SyncStrategy::poseidon_wfbp(), bw, (warmup, measure));
            let ar_p3 = ring(
                &model,
                SyncStrategy::p3_with_slice_params(DEFAULT_COLLECTIVE_SLICE),
                bw,
                (warmup, measure),
            );
            println!("{g:10.1} {ps_base:10.2} {ps_p3:10.2} {ar_fifo:10.2} {ar_p3:10.2}");
        }
    }

    // Collective slice-size sweep: where does allreduce fusion pay off?
    p3_bench::print_header(
        "extension-allreduce-slices",
        "VGG-19, 4 machines, 10 Gbps ring allreduce",
    );
    println!("# x = slice_params, series = AR-sliced-priority throughput");
    for slice in [
        50_000u64, 200_000, 500_000, 2_000_000, 8_000_000, 50_000_000,
    ] {
        let t = ring(
            &ModelSpec::vgg19(),
            SyncStrategy::p3_with_slice_params(slice),
            Bandwidth::from_gbps(10.0),
            (warmup, measure),
        );
        println!("{slice:10} {t:10.2}");
    }
    println!(
        "# collectives want coarser slices than the PS's 50k: each ring pays 2(N-1) step costs"
    );
}
