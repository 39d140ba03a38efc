//! Scenario: your VGG-19 training job moved from a flat testbed onto a
//! production cluster whose racks share an oversubscribed core. How much
//! oversubscription can the job absorb before priority scheduling stops
//! paying for itself? This example sweeps the oversubscription factor on a
//! two-rack cluster and reports the crossover point — the first factor at
//! which P3's advantage over the baseline drops below 5%.
//!
//! Run with: `cargo run --release --example oversubscription`

use p3::cluster::{ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;
use p3::topo::Topology;

fn main() {
    let model = ModelSpec::vgg19();
    let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
    let oversubs = [1.0, 2.0, 4.0, 8.0, 16.0];
    let (racks, rack_size) = (2, 4);

    println!(
        "== {} on {racks} racks x {rack_size} machines, 15 Gbps NICs ==",
        model.name()
    );
    let tp = |f: f64, s: &SyncStrategy| {
        let cfg = ClusterConfig::new(
            model.clone(),
            s.clone(),
            racks * rack_size,
            Bandwidth::from_gbps(15.0),
        )
        .with_iters(2, 6)
        .with_seed(7)
        .with_topology(Topology::new(racks, rack_size, f));
        ClusterSim::new(cfg)
            .try_run()
            .map_or(f64::NAN, |r| r.throughput)
    };
    let mut crossover = None;
    for f in oversubs {
        let (base, p3) = (tp(f, &strategies[0]), tp(f, &strategies[1]));
        let edge = (p3 / base - 1.0) * 100.0;
        println!("{f:5.0}:1 oversub:  Baseline {base:7.1}  P3 {p3:7.1}  ({edge:+5.1}% edge)");
        if crossover.is_none() && edge < 5.0 {
            crossover = Some(f);
        }
    }
    match crossover {
        Some(f) => println!(
            "\nP3's edge drops below 5% at ~{f}:1 — past that the shared core, \
             not scheduling order, is the bottleneck."
        ),
        None => println!("\nP3 keeps a >5% edge across the whole sweep."),
    }
}
