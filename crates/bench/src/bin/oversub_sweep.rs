//! Oversubscription sweep: throughput of Baseline vs P3 on a two-rack
//! cluster as the core fabric shrinks from full bisection (1:1) to 8:1.
//!
//! Each model runs at its Fig. 7 crossover bandwidth (where the NIC just
//! binds on the flat fabric), so the sweep isolates what the *core* takes
//! away: the flat reference point reproduces the Fig. 10 story at that
//! bandwidth, oversub=1 matches it up to rack-hop sharing, and P3's edge
//! fades monotonically as the shared uplinks take over as the bottleneck
//! that no scheduling order can hide.

use p3_cluster::{sweep, ClusterConfig};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;
use p3_topo::{Placement, Topology};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };
    let (racks, rack_size) = (2usize, 4usize);
    // x = 0 is the flat-fabric reference: what the same 8 machines do
    // with no core bottleneck at all.
    let oversubs = [0.0, 1.0, 2.0, 4.0, 8.0];
    let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];

    for (tag, model, gbps) in [
        ("oversub-a", ModelSpec::resnet50(), 4.0),
        ("oversub-b", ModelSpec::vgg19(), 15.0),
    ] {
        let bandwidth = Bandwidth::from_gbps(gbps);
        p3_bench::print_header(
            tag,
            &format!(
                "model: {}  racks: {racks}x{rack_size}  bandwidth: {gbps} Gbps  unit: {}/sec",
                model.name(),
                model.unit()
            ),
        );
        let pts = sweep(&oversubs, &strategies, |f, s| {
            let cfg = ClusterConfig::new(model.clone(), s.clone(), racks * rack_size, bandwidth)
                .with_iters(warmup, measure)
                .with_seed(42);
            if f == 0.0 {
                return cfg;
            }
            cfg.with_topology(Topology::new(racks, rack_size, f))
                .with_placement(Placement::Spread)
        });
        p3_bench::print_sweep("oversub (0 = flat fabric)", &pts);
        for p in &pts {
            let label = if p.x == 0.0 {
                format!("{} flat", model.name())
            } else {
                format!("{} @{}:1 oversub", model.name(), p.x)
            };
            println!(
                "# {}",
                p3_bench::speedup_line(&label, p.series[0].1, p.series[1].1)
            );
        }
    }
    println!("# expectation: throughput falls monotonically with oversub; P3's edge fades monotonically as the core takes over");
}
