//! Micro-benchmarks of the hot paths underlying every experiment: the
//! priority queue, the max-min rate allocator, parameter slicing, server
//! aggregation, the wire codec, DGC top-k selection and MLP backprop.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use p3_compress::Dgc;
use p3_core::{p3_plan, PrioQueue, SyncStrategy};
use p3_des::SplitMix64;
use p3_models::ModelSpec;
use p3_net::{
    allocate_rates_in_class_order, allocate_rates_on_graph, AllocBuffers, AllocWork, FlowSpec,
    LinkGraph, Priority,
};
use p3_pserver::{Key, KvServer, Message, OptimizerKind, WorkerId};
use p3_tensor::{Matrix, Mlp};

fn bench_prio_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("prio_queue");
    for n in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            let mut rng = SplitMix64::new(1);
            b.iter(|| {
                let mut q = PrioQueue::new();
                for i in 0..n {
                    q.push((rng.next_u64() % 64) as u32, i);
                }
                let mut acc = 0usize;
                while let Some(v) = q.pop() {
                    acc = acc.wrapping_add(v);
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_allocator(c: &mut Criterion) {
    let mut g = c.benchmark_group("rate_allocator");
    // (machines, flows, priority classes) on the flat fabric: two small
    // mixes, and the shape of the PS/P3 run on 16 machines at its peak.
    for (machines, n, classes) in [(4usize, 12usize, 4u64), (16, 48, 4), (16, 512, 161)] {
        let mut rng = SplitMix64::new(7);
        let mut flows: Vec<FlowSpec> = Vec::with_capacity(n);
        while flows.len() < n {
            let f = FlowSpec {
                src: rng.next_below(machines as u64) as usize,
                dst: rng.next_below(machines as u64) as usize,
                priority: Priority(rng.next_below(classes) as u32),
            };
            // Loopback transfers never reach the allocator.
            if f.src != f.dst {
                flows.push(f);
            }
        }
        let graph = LinkGraph::new(&vec![1.25e9; machines]);
        let shape = format!("{machines}m_{n}f_{classes}c");
        g.bench_with_input(
            BenchmarkId::new("strict_priority_max_min", &shape),
            &flows,
            |b, flows| {
                b.iter(|| {
                    let mut work = AllocWork::default();
                    allocate_rates_on_graph(flows, &graph, graph.caps(), 1.2e8, &mut work)
                })
            },
        );
        // The same fill as the fabric calls it in steady state: flows kept
        // in class order and buffers reused, so no call sorts or allocates.
        if n == 512 {
            let mut ordered: Vec<(usize, FlowSpec)> = flows.iter().copied().enumerate().collect();
            ordered.sort_by_key(|(_, f)| f.priority);
            let mut buf = AllocBuffers::default();
            g.bench_function(format!("class_order_reused_buffers/{shape}"), |b| {
                b.iter(|| {
                    let mut work = AllocWork::default();
                    allocate_rates_in_class_order(
                        &mut ordered,
                        &graph,
                        graph.caps(),
                        1.2e8,
                        &mut buf,
                        &mut work,
                    );
                    work
                })
            });
        }
    }
    g.finish();
}

fn bench_slicing(c: &mut Criterion) {
    let vgg = ModelSpec::vgg19();
    let arrays: Vec<u64> = vgg.param_arrays().map(|a| a.params).collect();
    c.bench_function("slicing/vgg19_p3_plan_50k", |b| {
        b.iter(|| p3_plan(&arrays, 4, 50_000))
    });
    c.bench_function("slicing/vgg19_priorities", |b| {
        let strat = SyncStrategy::p3();
        let plan = strat.plan(&vgg, 4, 0);
        b.iter(|| strat.priorities(&plan))
    });
}

fn bench_server(c: &mut Criterion) {
    c.bench_function("kvserver/round_50k_params_4_workers", |b| {
        b.iter_batched(
            || {
                let mut s = KvServer::new(4, OptimizerKind::Sgd { lr: 0.1 });
                s.init(Key(0), vec![0.1; 50_000]);
                (s, vec![0.01f32; 50_000])
            },
            |(mut s, g)| {
                for w in 0..4 {
                    s.push(WorkerId(w), Key(0), &g);
                }
                s
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_codec(c: &mut Criterion) {
    let msg = Message::Push {
        key: Key(42),
        worker: WorkerId(1),
        priority: 3,
        values: vec![0.5; 50_000],
    };
    c.bench_function("codec/encode_decode_50k", |b| {
        b.iter(|| {
            let mut buf = bytes::BytesMut::with_capacity(msg.wire_size());
            msg.encode(&mut buf);
            Message::decode(&mut buf.freeze()).expect("roundtrip")
        })
    });
}

fn bench_dgc(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let grad: Vec<f32> = (0..1_000_000).map(|_| rng.normal() as f32).collect();
    c.bench_function("dgc/top_k_1m_params", |b| {
        b.iter_batched(
            || Dgc::new(1_000_000, 0.9, 0.999, 0),
            |mut d| d.step(&grad),
            BatchSize::LargeInput,
        )
    });
}

fn bench_mlp(c: &mut Criterion) {
    let mut rng = SplitMix64::new(5);
    let mlp = Mlp::new(&[32, 64, 32, 10], &mut rng);
    let x = Matrix::randn(64, 32, 1.0, &mut rng);
    let y: Vec<usize> = (0..64).map(|i| i % 10).collect();
    c.bench_function("mlp/loss_and_grads_batch64", |b| {
        b.iter(|| mlp.loss_and_grads(&x, &y))
    });
}

criterion_group!(
    benches,
    bench_prio_queue,
    bench_allocator,
    bench_slicing,
    bench_server,
    bench_codec,
    bench_dgc,
    bench_mlp
);
criterion_main!(benches);
