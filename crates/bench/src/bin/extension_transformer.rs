//! Extension: does P3 transfer to the Transformer (Vaswani et al. 2017)?
//!
//! The Transformer is Sockeye's successor: an even heavier shared
//! embedding at the *start* of the forward pass (the worst case for
//! generation-order synchronization) over uniform attention/FF blocks.
//! The paper predates widespread Transformer adoption by months; this
//! extension runs its exact methodology on the new architecture.

use p3_cluster::bound::iteration_bound;
use p3_cluster::{sweep, ClusterConfig, ClusterSim};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };
    let model = ModelSpec::transformer();
    p3_bench::print_header(
        "extension-transformer",
        &format!(
            "model: {}  {:.1}M params, heaviest array = shared embedding ({:.1}%)",
            model.name(),
            model.total_params() as f64 / 1e6,
            100.0 * model.heaviest_array().expect("params").params as f64
                / model.total_params() as f64
        ),
    );
    let strategies = SyncStrategy::fig7_series();
    let gbps = [2.0, 4.0, 8.0, 15.0, 30.0];
    let pts = sweep(&gbps, &strategies, |g, s| {
        ClusterConfig::new(model.clone(), s.clone(), 4, Bandwidth::from_gbps(g))
            .with_iters(warmup, measure)
            .with_seed(42)
    });
    p3_bench::print_sweep("bandwidth_gbps", &pts);

    // Fraction of the analytic bound each strategy realizes at 4 Gbps.
    let cfg = ClusterConfig::new(
        model.clone(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(4.0),
    )
    .with_iters(warmup, measure);
    let allowed = iteration_bound(&cfg).throughput_limit(cfg.batch_per_worker, cfg.machines);
    for strategy in strategies {
        let mut c = cfg.clone();
        c.strategy = strategy;
        let name = c.strategy.name().to_string();
        let r = ClusterSim::new(c).run();
        println!(
            "# {name} at 4 Gbps: {:.1} sent/s = {:.0}% of the analytic bound (stall {:.2})",
            r.throughput,
            100.0 * r.throughput / allowed,
            r.mean_stall_fraction
        );
    }
}
