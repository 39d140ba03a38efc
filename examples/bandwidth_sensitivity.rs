//! Scenario: you are deciding whether your shared cluster's network can
//! sustain data-parallel training of a given model — the paper's central
//! question. This example sweeps NIC bandwidth for two models with very
//! different parameter skews and reports where each synchronization
//! strategy stops scaling linearly.
//!
//! Run with: `cargo run --release --example bandwidth_sensitivity`

use p3::cluster::{sweep, ClusterConfig};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;

fn main() {
    let strategies = SyncStrategy::fig7_series();
    for (model, gbps) in [
        (ModelSpec::resnet50(), vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0]),
        (ModelSpec::sockeye(), vec![2.0, 4.0, 8.0, 15.0, 30.0]),
    ] {
        println!(
            "== {} ({} per sec), 4 machines ==",
            model.name(),
            model.unit()
        );
        let points = sweep(&gbps, &strategies, |g, s| {
            ClusterConfig::new(model.clone(), s.clone(), 4, Bandwidth::from_gbps(g))
                .with_iters(2, 6)
                .with_seed(7)
        });
        let plateau = points.last().expect("nonempty").series[2].1;
        for p in &points {
            print!("{:5.1} Gbps:", p.x);
            for (name, t) in &p.series {
                print!("  {name} {t:7.1}");
            }
            println!();
        }
        // "Linear scaling" = within 5% of the unconstrained plateau.
        for (i, name) in ["Baseline", "Slicing", "P3"].iter().enumerate() {
            let floor = points
                .iter()
                .filter(|p| p.series[i].1 >= plateau * 0.95)
                .map(|p| p.x)
                .fold(f64::INFINITY, f64::min);
            println!("  {name}: holds linear scaling down to ~{floor} Gbps");
        }
        println!();
    }
}
