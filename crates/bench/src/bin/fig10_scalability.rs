//! Figure 10: throughput scaling with cluster size (2–16 machines) on a
//! 10 Gbps network, Baseline vs P3, plus the §5.5 headline numbers.

use p3_cluster::{sweep, ClusterConfig};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };
    let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
    let sizes = [2.0, 4.0, 8.0, 16.0];

    for (tag, model) in [
        ("10a", ModelSpec::resnet50()),
        ("10b", ModelSpec::vgg19()),
        ("10c", ModelSpec::sockeye()),
    ] {
        p3_bench::print_header(
            tag,
            &format!(
                "model: {}  bandwidth: 10 Gbps  unit: {}/sec",
                model.name(),
                model.unit()
            ),
        );
        let pts = sweep(&sizes, &strategies, |n, s| {
            ClusterConfig::new(
                model.clone(),
                s.clone(),
                n as usize,
                Bandwidth::from_gbps(10.0),
            )
            .with_iters(warmup, measure)
            .with_seed(42)
        });
        p3_bench::print_sweep("machines", &pts);
        for p in &pts {
            println!(
                "# {}",
                p3_bench::speedup_line(
                    &format!("{} @{} machines", model.name(), p.x),
                    p.series[0].1,
                    p.series[1].1
                )
            );
        }
    }
    println!("# paper: ResNet ~parity at 10G; VGG up to +61% (8 machines); Sockeye up to +18% (8 machines)");
}
