//! Figure 7: training throughput vs NIC bandwidth on a 4-machine cluster,
//! for Baseline / Slicing-only / P3 across all four models, plus the §5.3
//! headline speedups.

use p3_cluster::{sweep, ClusterConfig};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 4) } else { (3, 10) };
    let strategies = SyncStrategy::fig7_series();

    let cases: Vec<(&str, ModelSpec, Vec<f64>)> = vec![
        (
            "7a",
            ModelSpec::resnet50(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
        ),
        (
            "7b",
            ModelSpec::inception_v3(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0],
        ),
        (
            "7c",
            ModelSpec::vgg19(),
            vec![2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
        ),
        (
            "7d",
            ModelSpec::sockeye(),
            vec![2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0],
        ),
    ];

    let mut claims = Vec::new();
    for (tag, model, gbps) in cases {
        p3_bench::print_header(
            tag,
            &format!(
                "model: {}  machines: 4  unit: {}/sec",
                model.name(),
                model.unit()
            ),
        );
        let pts = sweep(&gbps, &strategies, |g, s| {
            ClusterConfig::new(model.clone(), s.clone(), 4, Bandwidth::from_gbps(g))
                .with_iters(warmup, measure)
                .with_seed(42)
        });
        p3_bench::print_sweep("bandwidth_gbps", &pts);

        // Headline claims of §5.3: peak P3-vs-baseline speedup over the sweep.
        let mut best = (0.0f64, 0.0f64, 0.0f64); // (gbps, base, p3)
        for p in &pts {
            let base = p.series[0].1;
            let p3 = p.series[2].1;
            if p3 / base > best.2 / best.1.max(1e-9) {
                best = (p.x, base, p3);
            }
        }
        claims.push(format!(
            "# {}: max P3 speedup {:+.1}% at {} Gbps  (paper: ResNet +25-26%, Inception +18%, VGG +66%, Sockeye +38%)",
            model.name(),
            (best.2 / best.1 - 1.0) * 100.0,
            best.0
        ));
        // Slicing-only contribution at the top bandwidth (paper: VGG +49% at 30G).
        let top = pts.last().expect("nonempty");
        claims.push(p3_bench::speedup_line(
            &format!("{} slicing-only @{}G", model.name(), top.x),
            top.series[0].1,
            top.series[1].1,
        ));
    }
    println!("# ---- summary (5.3) ----");
    for c in claims {
        println!("{c}");
    }
}
