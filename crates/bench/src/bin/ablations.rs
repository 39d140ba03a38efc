//! Ablations of P3's design choices (DESIGN.md §5) — not a paper figure,
//! but the decomposition the paper's §4 argues for:
//!
//! 1. slicing without priorities vs priorities without slicing vs both;
//! 2. priority *order*: consumption (P3) vs generation (FIFO-like) vs
//!    random;
//! 3. immediate broadcast vs KVStore's notify-then-pull;
//! 4. slice-size extremes (see `fig12_slice_size` for the full sweep).

use p3_cluster::{throughput_of, ClusterConfig};
use p3_core::{PriorityMode, Slicing, SyncStrategy};
use p3_models::ModelSpec;
use p3_net::Bandwidth;

/// P3's transport and priorities, but KVStore's layer-wise keys — the
/// "priority without slicing" arm of the decomposition.
fn priority_without_slicing() -> SyncStrategy {
    let mut s = SyncStrategy::p3();
    s.slicing = Slicing::KvstoreLayerwise {
        split_threshold: 1_000_000,
    };
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };
    let run = |model: &ModelSpec, s: &SyncStrategy, gbps: f64| {
        throughput_of(
            ClusterConfig::new(model.clone(), s.clone(), 4, Bandwidth::from_gbps(gbps))
                .with_iters(warmup, measure)
                .with_seed(42),
        )
    };

    for (model, gbps) in [(ModelSpec::resnet50(), 4.0), (ModelSpec::vgg19(), 15.0)] {
        p3_bench::print_header(
            "ablation",
            &format!(
                "model: {}  machines: 4  bandwidth: {gbps} Gbps",
                model.name()
            ),
        );
        let base = run(&model, &SyncStrategy::baseline(), gbps);
        let rows: Vec<(&str, SyncStrategy)> = vec![
            ("baseline (KVStore)", SyncStrategy::baseline()),
            ("slicing only", SyncStrategy::slicing_only()),
            ("priority, no slicing", priority_without_slicing()),
            ("P3 (slicing + priority)", SyncStrategy::p3()),
            ("P3, generation order", SyncStrategy::p3_generation_order()),
            ("P3, random order", SyncStrategy::p3_random_order(9)),
            ("P3, notify-then-pull", SyncStrategy::p3_notify_pull()),
        ];
        for (label, strat) in rows {
            let t = run(&model, &strat, gbps);
            println!(
                "{label:>26}: {t:8.1}  ({:+6.1}% vs baseline)",
                (t / base - 1.0) * 100.0
            );
        }
        // Sanity relations printed for EXPERIMENTS.md.
        let p3 = run(&model, &SyncStrategy::p3(), gbps);
        let gen = run(&model, &SyncStrategy::p3_generation_order(), gbps);
        println!(
            "# consumption-order gain over generation-order: {:+.1}%",
            (p3 / gen - 1.0) * 100.0
        );
        println!();
    }

    // Priority-mode micro-comparison at very tight bandwidth, ResNet-50.
    p3_bench::print_header("ablation-priority-modes", "ResNet-50, 4 machines, 2 Gbps");
    let model = ModelSpec::resnet50();
    for (label, mode) in [
        ("consumption", PriorityMode::Consumption),
        ("generation", PriorityMode::Generation),
        ("uniform", PriorityMode::Uniform),
        ("random", PriorityMode::Random { seed: 4 }),
    ] {
        let mut s = SyncStrategy::p3();
        s.priority_mode = mode;
        let t = run(&model, &s, 2.0);
        println!("{label:>12}: {t:8.1} images/sec");
    }
}
