//! Scenario: you are deciding whether your shared cluster's network can
//! sustain data-parallel training of a given model — the paper's central
//! question. This example sweeps NIC bandwidth for two models with very
//! different parameter skews and reports where each synchronization
//! strategy stops scaling linearly.
//!
//! Run with: `cargo run --release --example bandwidth_sensitivity`

use p3::cluster::{ClusterConfig, ClusterSim};
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
        // (Gbps, throughput of each strategy), one row per bandwidth.
        let rows: Vec<(f64, Vec<f64>)> = gbps
            .iter()
            .map(|&g| {
                let tps = strategies.iter().map(|s| {
                    let cfg =
                        ClusterConfig::new(model.clone(), s.clone(), 4, Bandwidth::from_gbps(g))
                            .with_iters(2, 6)
                            .with_seed(7);
                    ClusterSim::new(cfg)
                        .try_run()
                        .map_or(f64::NAN, |r| r.throughput)
                });
                (g, tps.collect())
            })
            .collect();
        let plateau = rows.last().expect("nonempty").1[2];
        for (g, tps) in &rows {
            print!("{g:5.1} Gbps:");
            for (s, t) in strategies.iter().zip(tps) {
                print!("  {} {t:7.1}", s.name());
            }
            println!();
        }
        // "Linear scaling" = within 5% of the unconstrained plateau.
        for (i, name) in ["Baseline", "Slicing", "P3"].iter().enumerate() {
            let floor = rows
                .iter()
                .filter(|(_, tps)| tps[i] >= plateau * 0.95)
                .map(|(g, _)| *g)
                .fold(f64::INFINITY, f64::min);
            println!("  {name}: holds linear scaling down to ~{floor} Gbps");
        }
        println!();
    }
}
