//! End-to-end simulation benches: one short cluster run per figure family,
//! so regressions in simulator performance (the cost of regenerating the
//! paper) are caught. Criterion measures wall time of a fixed simulated
//! workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p3_cluster::gantt::{schedule_sync, PipelineSpec, SyncOrder};
use p3_cluster::{ClusterConfig, ClusterSim};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn short_run(model: ModelSpec, strategy: SyncStrategy, gbps: f64, machines: usize) -> f64 {
    let cfg =
        ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps)).with_iters(1, 2);
    ClusterSim::new(cfg).run().throughput
}

fn bench_fig7_points(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_single_point");
    g.sample_size(10);
    for (name, model, gbps) in [
        ("resnet50_4g", ModelSpec::resnet50(), 4.0),
        ("vgg19_15g", ModelSpec::vgg19(), 15.0),
        ("sockeye_4g", ModelSpec::sockeye(), 4.0),
    ] {
        for strat in [SyncStrategy::baseline(), SyncStrategy::p3()] {
            g.bench_with_input(
                BenchmarkId::new(name, strat.name()),
                &(model.clone(), strat),
                |b, (m, s)| b.iter(|| short_run(m.clone(), s.clone(), gbps, 4)),
            );
        }
    }
    g.finish();
}

fn bench_fig10_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_scaling_point");
    g.sample_size(10);
    g.bench_function("resnet50_8_machines_10g", |b| {
        b.iter(|| short_run(ModelSpec::resnet50(), SyncStrategy::p3(), 10.0, 8))
    });
    g.finish();
}

fn bench_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("snapshot");
    g.sample_size(10);
    let mk = || {
        ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(10.0),
        )
        .with_iters(1, 2)
    };
    // Capture one mid-run snapshot (first iteration boundary), then bench
    // the codec round-trip and the state digest on that fixed state.
    let mut paused = ClusterSim::new(mk());
    paused.run_until(1).expect("benchmark run");
    let bytes = paused.snapshot();
    let mut sim = ClusterSim::restore(mk(), &bytes).expect("restore captured snapshot");
    g.bench_function("encode_resnet50_4m_mid_run", |b| b.iter(|| sim.snapshot()));
    g.bench_function("state_hash_resnet50_4m_mid_run", |b| {
        b.iter(|| sim.state_hash())
    });
    g.bench_function("restore_resnet50_4m_mid_run", |b| {
        b.iter(|| ClusterSim::restore(mk(), &bytes).expect("restore"))
    });
    g.finish();
}

fn bench_gantt(c: &mut Criterion) {
    c.bench_function("fig4_schedule_pair", |b| {
        let spec = PipelineSpec::figure4();
        b.iter(|| {
            let a = schedule_sync(&spec, SyncOrder::Fifo);
            let p = schedule_sync(&spec, SyncOrder::PriorityPreemptive);
            (a.makespan, p.makespan)
        })
    });
}

criterion_group!(
    benches,
    bench_fig7_points,
    bench_fig10_point,
    bench_snapshot,
    bench_gantt
);
criterion_main!(benches);
