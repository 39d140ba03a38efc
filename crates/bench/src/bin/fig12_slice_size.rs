//! Figure 12: P3 throughput vs parameter-slice size (1k – 1M parameters),
//! peaking around the paper's 50k optimum.

use p3_cluster::{sweep, ClusterConfig};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (1, 3) } else { (2, 8) };
    let sizes: &[f64] = if quick {
        &[2e3, 5e4, 1e6]
    } else {
        &[1e3, 2e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6]
    };

    for (tag, model, gbps) in [
        ("12a", ModelSpec::resnet50(), 4.0),
        ("12b", ModelSpec::vgg19(), 15.0),
        ("12c", ModelSpec::sockeye(), 4.0),
    ] {
        p3_bench::print_header(
            tag,
            &format!(
                "model: {}  machines: 4  bandwidth: {gbps} Gbps",
                model.name()
            ),
        );
        let pts = sweep(sizes, &[SyncStrategy::p3()], |sz, _| {
            let s = SyncStrategy::p3_with_slice_params(sz as u64);
            ClusterConfig::new(model.clone(), s, 4, Bandwidth::from_gbps(gbps))
                .with_iters(warmup, measure)
                .with_seed(42)
        });
        println!(
            "# x = slice_params, series = P3 throughput ({}/sec)",
            model.unit()
        );
        for p in &pts {
            println!("{:10.0} {:10.2}", p.x, p.series[0].1);
        }
        let best = pts
            .iter()
            .max_by(|a, b| a.series[0].1.partial_cmp(&b.series[0].1).expect("finite"))
            .expect("nonempty");
        println!("# best slice size: {:.0} params (paper: 50,000)", best.x);
    }
}
