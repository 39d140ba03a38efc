//! One function per figure, ablation and extension, in EXPERIMENTS.md order.
//! Quick keeps the operating points the quick claims read and little else.

use crate::{speedup_line, Figure, FigureDef, Lab, Scale, SweepPoint};
use p3_allreduce::DEFAULT_COLLECTIVE_SLICE;
use p3_cluster::bound::iteration_bound;
use p3_cluster::gantt::{ascii_gantt, figure6_layerwise, figure6_sliced, PipelineSpec, SyncOrder};
use p3_cluster::gantt::{schedule_sync, schedule_tandem, Schedule};
use p3_cluster::{BackendKind, ClusterConfig, FaultPlan, LinkDegradation, StragglerEpisode};
use p3_cluster::{UtilizationTrace, WireCompression, WorkerCrash};
use p3_core::{PriorityMode, Slicing, SyncStrategy};
use p3_des::{SimDuration, SimTime};
use p3_models::ModelSpec;
use p3_net::Bandwidth;
use p3_pserver::RetryPolicy;
use p3_topo::Topology;
use p3_train::{accuracy_band, SyncMode, TrainConfig, TrainRun};

const fn fig(id: &'static str, build: fn(Scale, &mut Lab, &mut Figure)) -> FigureDef {
    FigureDef { id, build }
}

/// Every figure, in the order `p3 figures` prints them.
pub static FIGURES: &[FigureDef] = &[
    fig("fig4", fig4),
    fig("fig5", fig5),
    fig("fig6", fig6),
    fig("fig7", fig7),
    fig("fig8_9", fig8_9),
    fig("fig10", fig10),
    fig("fig11", fig11),
    fig("fig12", fig12),
    fig("fig13_14", fig13_14),
    fig("fig15", fig15),
    fig("ablations", ablations),
    fig("allreduce", allreduce),
    fig("dgc_p3", dgc_p3),
    fig("transformer", transformer),
    fig("robustness", robustness),
    fig("oversub", oversub),
];

/// `machines` running `m` under `s` at `gbps` for `iters` = (warm-up,
/// measured) iterations, default seed.
fn cfg(
    m: &ModelSpec,
    s: SyncStrategy,
    machines: usize,
    gbps: f64,
    iters: (u64, u64),
) -> ClusterConfig {
    let bw = Bandwidth::from_gbps(gbps);
    ClusterConfig::new(m.clone(), s, machines, bw).with_iters(iters.0, iters.1)
}

/// Series `i` at `x`, `NaN` when the sweep has no such x.
fn at(points: &[SweepPoint], x: f64, i: usize) -> f64 {
    points
        .iter()
        .find(|p| p.x == x)
        .map_or(f64::NAN, |p| p.series[i].1)
}

/// Series `a` over series `b` at `x`.
fn ratio(points: &[SweepPoint], x: f64, a: usize, b: usize) -> f64 {
    at(points, x, a) / at(points, x, b)
}

/// The largest series-`a`-over-series-`b` ratio across the sweep.
fn peak(points: &[SweepPoint], a: usize, b: usize) -> f64 {
    let ratios = points.iter().map(|p| p.series[a].1 / p.series[b].1);
    ratios.fold(f64::NAN, f64::max)
}

/// Appends an analytic schedule as an ASCII Gantt chart.
fn gantt(f: &mut Figure, s: &Schedule) {
    ascii_gantt(s, 1.0).lines().for_each(|l| f.line(l));
}

/// Figure 4: FIFO vs priority synchronization of the paper's 3-layer
/// example (unit fwd/bwd, 2-unit sync, one shared link).
fn fig4(_: Scale, _: &mut Lab, f: &mut Figure) {
    let mut gaps = Vec::new();
    for (tag, title, order) in [
        ("4a", "aggressive (FIFO) synchronization", SyncOrder::Fifo),
        (
            "4b",
            "priority-based synchronization (P3)",
            SyncOrder::PriorityPreemptive,
        ),
    ] {
        f.header(tag, title);
        let s = schedule_sync(&PipelineSpec::figure4(), order);
        gantt(f, &s);
        let (gap, makespan) = (s.iteration_gap, s.makespan);
        f.line(format_args!(
            "# inter-iteration delay: {gap} units, makespan: {makespan}"
        ));
        gaps.push(gap);
    }
    let (a, b) = (gaps[0], gaps[1]);
    f.line(format_args!(
        "# paper claim: priority halves the delay — {a} -> {b} ({}x)",
        a / b
    ));
    f.metric("fifo_gap", a);
    f.metric("p3_gap", b);
}

/// Figure 5: parameters per array in forward order (InceptionV3 added).
fn fig5(_: Scale, _: &mut Lab, f: &mut Figure) {
    let models = [
        ModelSpec::resnet50(),
        ModelSpec::vgg19(),
        ModelSpec::sockeye(),
        ModelSpec::inception_v3(),
    ];
    for (tag, model) in ["5a", "5b", "5c", "5x"].into_iter().zip(models) {
        let (name, total, n) = (
            model.name(),
            model.total_params() as f64,
            model.num_arrays(),
        );
        f.header(
            tag,
            &format!(
                "model: {name}  total: {:.2}M params over {n} arrays",
                total / 1e6
            ),
        );
        f.line("# x = array_index, series = params_millions");
        for (i, a) in model.param_arrays().enumerate() {
            f.line(format_args!(
                "{:6} {:12.6}   # {}",
                i + 1,
                a.params as f64 / 1e6,
                a.name
            ));
        }
        let Some(top) = model.heaviest_array() else {
            continue;
        };
        let (params, share) = (top.params as f64, 100.0 * top.params as f64 / total);
        f.line(format_args!(
            "# heaviest array: {} = {:.2}M ({share:.1}% of model)",
            top.name,
            params / 1e6
        ));
        match tag {
            "5a" => f.metric("resnet_arrays", n as f64),
            "5b" => f.metric("vgg_heaviest_share", params / total),
            "5c" => f.metric(
                "sockeye_heaviest_block",
                model.heaviest_block_index().map_or(f64::NAN, |i| i as f64),
            ),
            _ => {}
        }
    }
}

/// Figure 6: layer-level vs fine-grained slices through the send → update
/// → receive tandem pipeline (heavy middle layer).
fn fig6(_: Scale, _: &mut Lab, f: &mut Figure) {
    let mut makespans = Vec::new();
    for (tag, title, spec) in [
        ("6a", "layer-level granularity", figure6_layerwise()),
        (
            "6b",
            "fine granularity (heavy layer sliced in 3)",
            figure6_sliced(),
        ),
    ] {
        f.header(tag, title);
        let s = schedule_tandem(&spec);
        gantt(f, &s);
        f.line(format_args!("# makespan: {} units", s.makespan));
        makespans.push(s.makespan);
    }
    let saving = 1.0 - makespans[1] / makespans[0];
    let pct = saving * 100.0;
    f.line(format_args!(
        "# paper claim: slicing reduces communication cost ~30% — measured {pct:.1}%"
    ));
    f.metric("layer_makespan", makespans[0]);
    f.metric("saving", saving);
}

/// Figure 7: throughput vs NIC bandwidth on 4 machines, Baseline /
/// Slicing / P3 for all four models, plus the §5.3 headline speedups.
fn fig7(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 4), (3, 10));
    let low: &[f64] = &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0];
    let cases = scale.pick(
        vec![
            ("7a", ModelSpec::resnet50(), &[4.0, 8.0, 25.0][..]),
            ("7c", ModelSpec::vgg19(), &[20.0]),
            ("7d", ModelSpec::sockeye(), &[4.0, 30.0]),
        ],
        vec![
            ("7a", ModelSpec::resnet50(), low),
            ("7b", ModelSpec::inception_v3(), low),
            (
                "7c",
                ModelSpec::vgg19(),
                &[2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
            ),
            (
                "7d",
                ModelSpec::sockeye(),
                &[2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0, 30.0],
            ),
        ],
    );
    let (base, slicing, p3) = (0, 1, 2);
    let mut claims = Vec::new();
    let mut order = f64::INFINITY;
    for (tag, model, gbps) in cases {
        f.header(
            tag,
            &format!(
                "model: {}  machines: 4  unit: {}/sec",
                model.name(),
                model.unit()
            ),
        );
        let strategies = SyncStrategy::fig7_series();
        let pts = lab.sweep(gbps, &strategies, |g, s| {
            cfg(&model, s.clone(), 4, g, iters).with_seed(42)
        });
        f.sweep("bandwidth_gbps", &pts);
        // Headline claims of §5.3: peak P3-vs-baseline speedup over the sweep.
        let mut best = (0.0f64, 0.0f64, 0.0f64); // (gbps, base, p3)
        for p in &pts {
            let [b, s, ours] = [base, slicing, p3].map(|i| p.series[i].1);
            if ours / b > best.2 / best.1.max(1e-9) {
                best = (p.x, b, ours);
            }
            order = order.min(ours / s).min(s / b);
        }
        claims.push(format!(
            "# {}: max P3 speedup {:+.1}% at {} Gbps  (paper: ResNet +25-26%, Inception +18%, VGG +66%, Sockeye +38%)",
            model.name(),
            (best.2 / best.1 - 1.0) * 100.0,
            best.0
        ));
        // Slicing-only contribution at the top bandwidth (paper: VGG +49% at 30G).
        let Some(top) = pts.last() else { continue };
        let [top_base, top_slicing, top_p3] = [base, slicing, p3].map(|i| top.series[i].1);
        let label = format!("{} slicing-only @{}G", model.name(), top.x);
        claims.push(speedup_line(&label, top_base, top_slicing));
        match tag {
            "7a" => {
                f.metric("resnet_4g", ratio(&pts, 4.0, p3, base));
                f.metric("resnet_top", top_p3 / top_base);
                f.metric("resnet_rise", top_p3 / at(&pts, 4.0, p3));
                f.metric("resnet_slicing_8g", ratio(&pts, 8.0, slicing, base));
                let knee = pts.iter().find(|p| p.series[base].1 >= 0.99 * top_base);
                f.metric("resnet_knee", knee.map_or(f64::NAN, |p| p.x));
            }
            "7b" => f.metric("inception_peak", peak(&pts, p3, base)),
            "7c" => {
                f.metric("vgg_slicing_20g", ratio(&pts, 20.0, slicing, base));
                f.metric("vgg_slicing_30g", ratio(&pts, 30.0, slicing, base));
                f.metric("vgg_peak", peak(&pts, p3, base));
            }
            _ => {
                f.metric(
                    "sockeye_shrink",
                    ratio(&pts, 4.0, p3, base) / ratio(&pts, 30.0, p3, base),
                );
                f.metric("sockeye_peak", peak(&pts, p3, base));
            }
        }
    }
    f.line("# ---- summary (5.3) ----");
    claims.iter().for_each(|c| f.line(c));
    f.metric("order", order);
}

/// Appends the first `max` 10 ms bins of machine 0's NIC trace; returns
/// the outbound idle fraction (bins under 5% of `gbps`) and the overlap
/// Σ min(tx,rx) / Σ max(tx,rx): the paper's "inbound and outbound traffics
/// are not overlapped", quantified.
fn trace(f: &mut Figure, t: Option<&UtilizationTrace>, max: usize, gbps: f64) -> (f64, f64) {
    let Some(t) = t else {
        return (f64::NAN, f64::NAN);
    };
    let (tx, rx) = (&t.tx_gbps, &t.rx_gbps);
    let n = tx.len().min(rx.len()).min(max);
    let rows: Vec<(f64, Vec<f64>)> = (0..n).map(|b| (b as f64, vec![tx[b], rx[b]])).collect();
    f.columns(
        "time_10ms",
        &["outbound_gbps", "inbound_gbps"],
        &rows,
        (3, 3),
    );
    let idle = tx.iter().take(n).filter(|&&g| g < gbps * 0.05).count() as f64 / n as f64;
    let (num, den) = (0..n).fold((0.0, 0.0), |(a, b), i| {
        (a + tx[i].min(rx[i]), b + tx[i].max(rx[i]))
    });
    (idle, if den > 0.0 { num / den } else { 0.0 })
}

/// Figures 8 and 9: NIC utilization of Baseline (bursty, one direction at
/// a time) vs P3 (smooth, both directions), machine 0.
fn fig8_9(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let mut cases = vec![
        ("ResNet-50 at 4Gbps", ModelSpec::resnet50(), 4.0),
        ("VGG-19 at 15Gbps", ModelSpec::vgg19(), 15.0),
        ("Sockeye at 4Gbps", ModelSpec::sockeye(), 4.0),
    ];
    cases.truncate(scale.pick(1, 3));
    let mut shape = Vec::new(); // (idle fraction, overlap) per trace, baselines first
    for (fig, strategy) in [("8", SyncStrategy::baseline()), ("9", SyncStrategy::p3())] {
        for ((name, model, gbps), sub) in cases.iter().zip(['a', 'b', 'c']) {
            f.header(
                &format!("{fig}{sub}"),
                &format!("{name}  strategy: {}", strategy.name()),
            );
            let c = cfg(model, strategy.clone(), 4, *gbps, (1, 3)).with_nic_trace();
            let r = lab.run(c).ok();
            let (idle, overlap) = trace(f, r.as_ref().and_then(|r| r.trace.as_ref()), 400, *gbps);
            f.line(format_args!(
                "# outbound idle fraction (<5% of nominal): {idle:.2}"
            ));
            f.line(format_args!(
                "# bidirectional overlap coefficient: {overlap:.2}"
            ));
            shape.push((idle, overlap));
        }
    }
    let (base, p3) = shape.split_at(cases.len());
    let idle_drop: Vec<f64> = base.iter().zip(p3).map(|(b, p)| b.0 - p.0).collect();
    let overlap_gain: Vec<f64> = base.iter().zip(p3).map(|(b, p)| p.1 - b.1).collect();
    f.metric("resnet_idle_drop", idle_drop[0]);
    f.metric("resnet_overlap_gain", overlap_gain[0]);
    f.metric(
        "idle_drop",
        idle_drop.into_iter().fold(f64::INFINITY, f64::min),
    );
    f.metric(
        "overlap_gain",
        overlap_gain.into_iter().fold(f64::INFINITY, f64::min),
    );
}

/// Figure 10: throughput vs cluster size (2–16 machines) at 10 Gbps,
/// Baseline vs P3, plus the §5.5 headline numbers.
fn fig10(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    let sizes = scale.pick(&[2.0, 4.0][..], &[2.0, 4.0, 8.0, 16.0]);
    let mut models = vec![
        ("10a", ModelSpec::resnet50()),
        ("10b", ModelSpec::vgg19()),
        ("10c", ModelSpec::sockeye()),
    ];
    models.truncate(scale.pick(1, 3));
    for (tag, model) in models {
        f.header(
            tag,
            &format!(
                "model: {}  bandwidth: 10 Gbps  unit: {}/sec",
                model.name(),
                model.unit()
            ),
        );
        let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
        let pts = lab.sweep(sizes, &strategies, |n, s| {
            cfg(&model, s.clone(), n as usize, 10.0, iters).with_seed(42)
        });
        f.sweep("machines", &pts);
        for p in &pts {
            let label = format!("{} @{} machines", model.name(), p.x);
            f.line(format_args!(
                "# {}",
                speedup_line(&label, p.series[0].1, p.series[1].1)
            ));
        }
        match tag {
            "10a" => {
                let off = pts
                    .iter()
                    .filter(|p| p.x <= 8.0)
                    .map(|p| (p.series[1].1 / p.series[0].1 - 1.0).abs());
                f.metric("resnet_off_parity", off.fold(0.0, f64::max));
            }
            "10b" => f.metric(
                "vgg_gain_4_8",
                ratio(&pts, 4.0, 1, 0).min(ratio(&pts, 8.0, 1, 0)),
            ),
            _ => f.metric("sockeye_8", ratio(&pts, 8.0, 1, 0)),
        }
    }
    f.line("# paper: ResNet ~parity at 10G; VGG up to +61% (8 machines); Sockeye up to +18% (8 machines)");
}

/// Figure 11: validation accuracy of P3 (≡ exact synchronous SGD) vs Deep
/// Gradient Compression over five hyper-parameter settings, as the min/max
/// band per epoch. An MLP on a synthetic task stands in for
/// ResNet-110/CIFAR-10 (DESIGN.md §2): the comparison is between the
/// algorithms.
fn fig11(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    // DGC at 99%, not the paper's 99.9% (DESIGN.md §2): on a ~3.5k-parameter
    // MLP, 99.9% would send ~4 coordinates per step, a regime DGC was never
    // designed for; 99% keeps its intended top-1%-per-layer operating point.
    let dgc = SyncMode::Dgc {
        final_sparsity: 0.99,
        warmup_epochs: 4,
    };
    // Five hyper-parameter settings (lr, momentum, seed), as in §5.6.
    let settings = [
        (0.10, 0.90, 1),
        (0.07, 0.90, 2),
        (0.13, 0.85, 3),
        (0.10, 0.95, 4),
        (0.08, 0.90, 5),
    ];
    let mut runs = Vec::new();
    for mode in [SyncMode::FullSync, dgc] {
        for (lr, momentum, seed) in settings {
            let mut c = TrainConfig::new(scale.pick(12, 40));
            (c.hidden, c.lr, c.momentum, c.seed) = (vec![48, 24], lr, momentum, seed);
            runs.push(lab.train(c, mode));
        }
    }
    let (p3_runs, dgc_runs) = runs.split_at(settings.len());
    f.header(
        "11",
        "P3 vs DGC validation-accuracy band, 5 hyper-parameter settings",
    );
    f.line("# x = epoch, series = p3_min, p3_max, dgc_min, dgc_max");
    for ((e, p3lo, p3hi), (_, dgclo, dgchi)) in
        accuracy_band(p3_runs).iter().zip(&accuracy_band(dgc_runs))
    {
        f.line(format_args!(
            "{e:6} {p3lo:10.4} {p3hi:10.4} {dgclo:10.4} {dgchi:10.4}"
        ));
    }
    let mean =
        |runs: &[TrainRun]| runs.iter().map(|r| r.final_accuracy).sum::<f64>() / runs.len() as f64;
    let (p3, dgc) = (mean(p3_runs), mean(dgc_runs));
    let drop_pp = (p3 - dgc) * 100.0;
    f.line(format_args!(
        "# mean final accuracy: P3 {p3:.4}, DGC {dgc:.4} (drop {drop_pp:.2} pp; paper reports ~0.4 pp)"
    ));
    f.metric("drop_pp", drop_pp);
}

/// Figure 12: P3 throughput vs slice size (1k – 1M parameters); the paper
/// finds the optimum near 50k.
fn fig12(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    let sizes = scale.pick(
        &[1e3, 5e4][..],
        &[1e3, 2e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6],
    );
    let mut cases = vec![
        ("12a", ModelSpec::resnet50(), 4.0),
        ("12b", ModelSpec::vgg19(), 15.0),
        ("12c", ModelSpec::sockeye(), 4.0),
    ];
    cases.truncate(scale.pick(1, 3));
    for (tag, model, gbps) in cases {
        f.header(
            tag,
            &format!(
                "model: {}  machines: 4  bandwidth: {gbps} Gbps",
                model.name()
            ),
        );
        let pts = lab.sweep(sizes, &[SyncStrategy::p3()], |sz, _| {
            cfg(
                &model,
                SyncStrategy::p3_with_slice_params(sz as u64),
                4,
                gbps,
                iters,
            )
            .with_seed(42)
        });
        let rows: Vec<(f64, Vec<f64>)> = pts.iter().map(|p| (p.x, vec![p.series[0].1])).collect();
        let legend = format!("P3 throughput ({}/sec)", model.unit());
        f.columns("slice_params", &[legend.as_str()], &rows, (0, 2));
        let Some(best) = pts
            .iter()
            .max_by(|a, b| a.series[0].1.total_cmp(&b.series[0].1))
        else {
            continue;
        };
        f.line(format_args!(
            "# best slice size: {:.0} params (paper: 50,000)",
            best.x
        ));
        match tag {
            "12a" => {
                f.metric("resnet_knee", best.x);
                f.metric("resnet_50k_over_1k", at(&pts, 5e4, 0) / at(&pts, 1e3, 0));
                f.metric("resnet_peak_over_1m", best.series[0].1 / at(&pts, 1e6, 0));
            }
            "12b" => f.metric("vgg_knee", best.x),
            _ => f.metric("sockeye_knee", best.x),
        }
    }
}

/// Figures 13 and 14 (Appendix B.1): the same bursty under-utilization in
/// TensorFlow-style deferred pulls and Poseidon's layer-granular WFBP.
fn fig13_14(_: Scale, lab: &mut Lab, f: &mut Figure) {
    for (tag, name, metric, model, strategy, gbps) in [
        (
            "13",
            "ResNet-50 on TensorFlow-style at 4Gbps",
            "tf_idle",
            ModelSpec::resnet50(),
            SyncStrategy::tf_style(),
            4.0,
        ),
        (
            "14",
            "InceptionV3 on Poseidon-WFBP at 1Gbps",
            "poseidon_idle",
            ModelSpec::inception_v3(),
            SyncStrategy::poseidon_wfbp(),
            1.0,
        ),
    ] {
        f.header(tag, name);
        let c = cfg(&model, strategy, 4, gbps, (1, 3)).with_nic_trace();
        let r = lab.run(c).ok();
        let (idle, _) = trace(f, r.as_ref().and_then(|r| r.trace.as_ref()), 500, gbps);
        f.line(format_args!(
            "# outbound idle fraction: {idle:.2} — bursty under-utilization as in the paper"
        ));
        f.metric(metric, idle);
    }
}

/// Figure 15 (Appendix B.2): ASGD vs P3, validation accuracy against wall
/// time. Synchronous iterations pay the simulated synchronization cost at
/// the paper's operating point (ResNet-110, 4 machines, 1 Gbps); ASGD
/// iterations pay only the compute, and converge worse on stale gradients.
fn fig15(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let model = ModelSpec::resnet110();
    let sim = lab.run(cfg(&model, SyncStrategy::p3(), 4, 1.0, (1, 4)));
    let t_sync = sim.map_or(f64::NAN, |r| r.mean_iteration.as_secs_f64());
    let t_compute = model.default_batch() as f64 / model.reference_throughput();
    f.line(format_args!(
        "# per-iteration: P3 {t_sync:.4}s (simulated), ASGD {t_compute:.4}s (no barrier)"
    ));
    let mut c = TrainConfig::new(scale.pick(12, 40));
    (c.hidden, c.lr) = (vec![48, 24], 0.1);
    let p3 = lab.train(c.clone(), SyncMode::FullSync);
    // ASGD is sensitive to the learning rate under staleness; give it the
    // benefit of a tuned grid and keep its best run.
    let staleness = c.workers - 1;
    let grid = [0.05f32, 0.025, 0.0125].map(|lr| {
        lab.train(
            TrainConfig { lr, ..c.clone() },
            SyncMode::Async { staleness },
        )
    });
    let Some(asgd) = grid
        .into_iter()
        .max_by(|a, b| a.final_accuracy.total_cmp(&b.final_accuracy))
    else {
        return;
    };
    f.header("15", "ASGD vs P3: validation accuracy vs time (minutes)");
    f.line("# x = time_min, series = p3_accuracy | x = time_min, series = asgd_accuracy");
    let minutes = |run: &TrainRun, epoch: u32, t_iter: f64| {
        (epoch + 1) as f64 * run.iterations_per_epoch as f64 * t_iter / 60.0
    };
    for (label, run, t_iter) in [("P3  ", &p3, t_sync), ("ASGD", &asgd, t_compute)] {
        for r in &run.records {
            f.line(format_args!(
                "{label} {:10.3} {:8.4}",
                minutes(run, r.epoch, t_iter),
                r.val_accuracy
            ));
        }
    }
    let (p3_acc, asgd_acc) = (p3.final_accuracy, asgd.final_accuracy);
    f.line(format_args!(
        "# final accuracy: P3 {p3_acc:.3}, ASGD {asgd_acc:.3} (paper: 93% vs 88%)"
    ));
    f.metric("final_gap_pp", (p3_acc - asgd_acc) * 100.0);
    let target = 0.8 * p3_acc.max(asgd_acc);
    let reach =
        |run: &TrainRun, t_iter: f64| run.epochs_to_reach(target).map(|e| minutes(run, e, t_iter));
    if let (Some(tp), Some(ta)) = (reach(&p3, t_sync), reach(&asgd, t_compute)) {
        let pct = target * 100.0;
        f.line(format_args!(
            "# time to {pct:.0}% accuracy: P3 {tp:.2} min, ASGD {ta:.2} min ({:.1}x)",
            ta / tp
        ));
        f.metric("time_to_target", ta / tp);
    }
}

/// Ablations of P3's design choices (DESIGN.md §5): slicing and priority
/// alone and together, the priority order, immediate broadcast vs
/// notify-then-pull, and priority modes at very tight bandwidth.
fn ablations(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 4), (2, 8));
    let mut tp = |model: &ModelSpec, s, gbps| lab.tp(cfg(model, s, 4, gbps, iters).with_seed(42));
    // P3's transport and priorities on KVStore's layer-wise keys.
    let mut priority_only = SyncStrategy::p3();
    priority_only.slicing = Slicing::KvstoreLayerwise;
    let variants = [
        ("baseline (KVStore)", SyncStrategy::baseline()),
        ("slicing only", SyncStrategy::slicing_only()),
        ("priority, no slicing", priority_only),
        ("P3 (slicing + priority)", SyncStrategy::p3()),
        ("P3, generation order", SyncStrategy::p3_generation_order()),
        ("P3, random order", SyncStrategy::p3_random_order(9)),
        ("P3, notify-then-pull", SyncStrategy::p3_notify_pull()),
    ];
    let cases = scale.pick(
        vec![(ModelSpec::resnet50(), 3.0)],
        vec![(ModelSpec::resnet50(), 4.0), (ModelSpec::vgg19(), 15.0)],
    );
    let variants = &variants[..scale.pick(5, variants.len())];
    for (model, gbps) in cases {
        f.header(
            "ablation",
            &format!(
                "model: {}  machines: 4  bandwidth: {gbps} Gbps",
                model.name()
            ),
        );
        let t: Vec<f64> = variants
            .iter()
            .map(|(_, s)| tp(&model, s.clone(), gbps))
            .collect();
        for ((label, _), v) in variants.iter().zip(&t) {
            f.line(format_args!(
                "{label:>26}: {v:8.1}  ({:+6.1}% vs baseline)",
                (v / t[0] - 1.0) * 100.0
            ));
        }
        let (slicing, priority, p3, gen) = (t[1], t[2], t[3], t[4]);
        f.line(format_args!(
            "# consumption-order gain over generation-order: {:+.1}%",
            (p3 / gen - 1.0) * 100.0
        ));
        f.line("");
        if model.name() == "VGG-19" {
            f.metric("vgg_slicing_over_priority", slicing / priority);
        } else {
            f.metric("resnet_consumption_over_generation", p3 / gen);
            f.metric("resnet_priority_over_slicing", priority / slicing);
        }
    }
    if scale == Scale::Quick {
        return;
    }
    f.header("ablation-priority-modes", "ResNet-50, 4 machines, 2 Gbps");
    for (label, mode) in [
        ("consumption", PriorityMode::Consumption),
        ("generation", PriorityMode::Generation),
        ("uniform", PriorityMode::Uniform),
        ("random", PriorityMode::Random { seed: 4 }),
    ] {
        let mut s = SyncStrategy::p3();
        s.priority_mode = mode;
        f.line(format_args!(
            "{label:>12}: {:8.1} images/sec",
            tp(&ModelSpec::resnet50(), s, 2.0)
        ));
    }
}

/// Extension: slicing + priority on collective aggregation (the paper's
/// §2/§6 claim), on the engine's ring backend: PS Baseline, PS-P3,
/// layer-wise FIFO ring (Horovod without fusion) and sliced-priority ring,
/// plus a collective slice-size sweep (fusion-buffer economics).
fn allreduce(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    let ring = |m: &ModelSpec, s, gbps| {
        cfg(m, s, 4, gbps, iters)
            .with_seed(17)
            .with_backend(BackendKind::Ring)
    };
    let cases = scale.pick(
        vec![(ModelSpec::resnet50(), vec![4.0])],
        vec![
            (ModelSpec::resnet50(), vec![2.0, 4.0, 8.0]),
            (ModelSpec::vgg19(), vec![5.0, 10.0, 20.0]),
        ],
    );
    for (model, gbps) in cases {
        f.header(
            "extension-allreduce",
            &format!("model: {}  machines: 4", model.name()),
        );
        let mut rows = Vec::new();
        for g in gbps {
            let p3_ar = SyncStrategy::p3_with_slice_params(DEFAULT_COLLECTIVE_SLICE);
            let [ps_base, ps_p3, ar_fifo, ar_p3] = [
                cfg(&model, SyncStrategy::baseline(), 4, g, iters).with_seed(42),
                cfg(&model, SyncStrategy::p3(), 4, g, iters).with_seed(42),
                ring(&model, SyncStrategy::poseidon_wfbp(), g),
                ring(&model, p3_ar, g),
            ]
            .map(|c| lab.tp(c));
            rows.push((g, vec![ps_base, ps_p3, ar_fifo, ar_p3]));
            if (model.name(), g) == ("ResNet-50", 4.0) || (model.name(), g) == ("VGG-19", 10.0) {
                f.metric(
                    if g == 4.0 {
                        "resnet_ar_gain_4g"
                    } else {
                        "vgg_ar_gain_10g"
                    },
                    ar_p3 / ar_fifo,
                );
            }
        }
        f.columns(
            "gbps",
            &[
                "PS-Baseline",
                "PS-P3",
                "AR-layerwise-FIFO",
                "AR-sliced-priority",
            ],
            &rows,
            (1, 2),
        );
    }
    f.header(
        "extension-allreduce-slices",
        "VGG-19, 4 machines, 10 Gbps ring allreduce",
    );
    let slices = scale.pick(&[2e6, 8e6][..], &[5e4, 2e5, 5e5, 2e6, 8e6, 5e7]);
    let pts = lab.sweep(slices, &[SyncStrategy::p3()], |n, _| {
        ring(
            &ModelSpec::vgg19(),
            SyncStrategy::p3_with_slice_params(n as u64),
            10.0,
        )
    });
    let rows: Vec<(f64, Vec<f64>)> = pts.iter().map(|p| (p.x, vec![p.series[0].1])).collect();
    f.columns(
        "slice_params",
        &["AR-sliced-priority throughput"],
        &rows,
        (0, 2),
    );
    f.line("# collectives want coarser slices than the PS's 50k: each ring pays 2(N-1) step costs");
    f.metric("vgg_ar_2m_over_50k", at(&pts, 2e6, 0) / at(&pts, 5e4, 0));
    f.metric("vgg_ar_50m_over_2m", at(&pts, 5e7, 0) / at(&pts, 2e6, 0));
}

/// Extension: compression × scheduling, the paper's §6 claim that P3 "can
/// be used on top of compression mechanisms". DGC's sparsified traffic is
/// modelled as payload shrink (its accuracy cost is Figure 11's).
fn dgc_p3(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    // (model, Gbps, sparsity): the headline 99.9% case, plus a milder 95%
    // under a much tighter link, where compressed traffic still binds.
    let cases = [
        (ModelSpec::vgg19(), 2.0, 0.999),
        (ModelSpec::resnet50(), 1.0, 0.999),
        (ModelSpec::resnet50(), 0.2, 0.95),
    ];
    for (model, gbps, sparsity) in &cases[scale.pick(2, 0)..] {
        let name = model.name();
        f.header(
            "extension-dgc-p3",
            &format!(
                "model: {name}  machines: 4  bandwidth: {gbps} Gbps  DGC sparsity: {sparsity}"
            ),
        );
        let dgc = Some(WireCompression::dgc(*sparsity, 4));
        let mut t = Vec::new();
        for (label, s, wire_compression) in [
            ("baseline", SyncStrategy::baseline(), None),
            ("P3", SyncStrategy::p3(), None),
            ("baseline + DGC", SyncStrategy::baseline(), dgc),
            ("P3 + DGC", SyncStrategy::p3(), dgc),
        ] {
            match lab.run(ClusterConfig {
                wire_compression,
                ..cfg(model, s, 4, *gbps, iters)
            }) {
                Ok(r) => {
                    let (tp, unit, stall) = (r.throughput, r.unit, r.mean_stall_fraction);
                    f.line(format_args!(
                        "{label:>16}: {tp:8.1} {unit}/sec  (stall fraction {stall:.2})"
                    ));
                    t.push(tp);
                }
                Err(e) => {
                    f.line(format_args!("{label:>16}: failed: {e}"));
                    t.push(f64::NAN);
                }
            }
        }
        let (base, dgc_only, combo) = (t[0], t[2], t[3]);
        f.line(format_args!(
            "# P3+DGC: {:+.0}% over baseline, {:+.1}% over DGC alone",
            (combo / base - 1.0) * 100.0,
            (combo / dgc_only - 1.0) * 100.0
        ));
        f.line("");
        if *sparsity < 0.99 {
            f.metric("p3_over_dgc_tight", combo / dgc_only);
        } else if name == "VGG-19" {
            f.metric("vgg_dgc_over_baseline", dgc_only / base);
        }
    }
    f.line("# NOTE: compression trades accuracy (Figure 11); P3 alone does not.");
}

/// Extension: the paper's methodology on the Transformer, Sockeye's
/// successor, whose heavy shared embedding sits at the *start* of the
/// forward pass (the worst case for generation-order synchronization).
fn transformer(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    let model = ModelSpec::transformer();
    let (total, top) = (
        model.total_params() as f64,
        model.heaviest_array().map_or(f64::NAN, |a| a.params as f64),
    );
    let (name, m, pct) = (model.name(), total / 1e6, 100.0 * top / total);
    f.header(
        "extension-transformer",
        &format!("model: {name}  {m:.1}M params, heaviest array = shared embedding ({pct:.1}%)"),
    );
    let gbps = scale.pick(&[4.0, 8.0][..], &[2.0, 4.0, 8.0, 15.0, 30.0]);
    let strategies = SyncStrategy::fig7_series();
    let pts = lab.sweep(gbps, &strategies, |g, s| {
        cfg(&model, s.clone(), 4, g, iters).with_seed(42)
    });
    f.sweep("bandwidth_gbps", &pts);
    f.metric("p3_over_baseline_8g", ratio(&pts, 8.0, 2, 0));
    // Fraction of the analytic bound each strategy realizes at 4 Gbps.
    let c = cfg(&model, SyncStrategy::p3(), 4, 4.0, iters);
    let allowed = iteration_bound(&c).throughput_limit(c.model.default_batch(), c.machines);
    let mut shares = Vec::new();
    for strategy in strategies {
        let name = strategy.name().to_string();
        let Ok(r) = lab.run(ClusterConfig {
            strategy,
            ..c.clone()
        }) else {
            continue;
        };
        let (tp, stall) = (r.throughput, r.mean_stall_fraction);
        let pct = 100.0 * tp / allowed;
        f.line(format_args!("# {name} at 4 Gbps: {tp:.1} sent/s = {pct:.0}% of the analytic bound (stall {stall:.2})"));
        shares.push(tp / allowed);
    }
    if let [base, .., p3] = shares[..] {
        f.metric("p3_bound_share_4g", p3);
        f.metric("p3_minus_baseline_bound_share", p3 - base);
    }
}

/// Robustness: Baseline / Slicing / P3 on ResNet-50 under injected faults
/// (a compute straggler, a degraded link, a lossy network, a worker crash):
/// throughput, iteration-time tails and the reliability layer's counters.
fn robustness(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let (forever, model) = (SimDuration::from_secs(1_000), ModelSpec::resnet50());
    let mut plans = vec![FaultPlan::none(); 5];
    plans[1].stragglers.push(StragglerEpisode {
        worker: 1,
        start: SimTime::ZERO,
        duration: forever,
        slowdown: 2.5,
    });
    let degraded = LinkDegradation {
        machine: 0,
        start: SimTime::ZERO,
        duration: forever,
        capacity_factor: 0.25,
    };
    plans[2].link_degradations.push(degraded);
    plans[3].loss_probability = 0.03;
    plans[4].crashes.push(WorkerCrash {
        worker: 2,
        at: SimTime::from_millis(500),
        rejoin_after: None,
    });
    let scenarios = [
        ("clean", "clean_p3_gain"),
        ("straggler (w1 at 2.5x)", "straggler_spread"),
        ("degraded link (m0 at 25%)", "degraded_p3_gain"),
        ("lossy network (3% drop)", "lossy_p3_gain"),
        ("worker crash (w2, no restart)", "crash_p3_gain"),
    ];
    f.header(
        "robustness",
        &format!(
            "model: {}  machines: 4  bandwidth: 5 Gbps  unit: {}/sec",
            model.name(),
            model.unit()
        ),
    );
    f.line("scenario                       strategy       thruput       p50       p99    retx   lost   degr");
    for ((name, metric), plan) in scenarios.into_iter().zip(plans) {
        let mut t = Vec::new();
        for s in SyncStrategy::fig7_series() {
            let strategy = s.name().to_string();
            let mut c = cfg(&model, s, 4, 5.0, scale.pick((1, 3), (2, 8)))
                .with_seed(7)
                .with_faults(plan.clone())
                .with_retry(RetryPolicy::new(SimDuration::from_millis(20)));
            // Evict a silent worker after 200 ms so survivors keep training.
            c.liveness_timeout = SimDuration::from_millis(200);
            match lab.run(c) {
                Ok(r) => {
                    let (tp, p50, p99) = (
                        r.throughput,
                        r.p50_iteration.to_string(),
                        r.p99_iteration.to_string(),
                    );
                    let (retx, lost, degr) = (
                        r.faults.retransmits,
                        r.faults.messages_lost,
                        r.faults.degraded_rounds,
                    );
                    f.line(format_args!("{name:<30} {strategy:<12} {tp:>9.1} {p50:>9} {p99:>9} {retx:>7} {lost:>6} {degr:>6}"));
                    t.push(tp);
                }
                Err(e) => {
                    f.line(format_args!("{name:<30} {strategy:<12} failed: {e}"));
                    t.push(f64::NAN);
                }
            }
        }
        f.line("");
        let spread = t.iter().fold(0.0f64, |m, &v| m.max(v))
            / t.iter().fold(f64::INFINITY, |m, &v| m.min(v));
        f.metric(
            metric,
            if metric == "straggler_spread" {
                spread
            } else {
                t[2] / t[0]
            },
        );
    }
    f.line(
        "Reading the table: a compute straggler hurts every strategy equally —\n\
         the sync barrier is unforgiving and no communication schedule hides\n\
         slow math. Under message loss P3 keeps its clean-network lead: drops\n\
         cost retransmits, not correctness. A crashed worker is evicted after\n\
         the liveness timeout and rounds complete degraded with the survivors'\n\
         gradients — at full speed, under every strategy. The one place P3\n\
         falls behind is a severely degraded link: at a quarter of an already\n\
         modest NIC, its many small slices pay the per-message overhead that\n\
         Figure 12 of the paper charges for fine slicing.",
    );
}

/// Oversubscription: Baseline vs P3 on two racks of four as the core
/// shrinks from full bisection (1:1) to 8:1, each model at its Fig. 7
/// crossover bandwidth (DESIGN.md §9). x = 0 is the flat fabric.
fn oversub(scale: Scale, lab: &mut Lab, f: &mut Figure) {
    let iters = scale.pick((1, 3), (2, 8));
    let oversubs = scale.pick(&[0.0, 8.0][..], &[0.0, 1.0, 2.0, 4.0, 8.0]);
    let mut cases = vec![
        ("oversub-a", ModelSpec::resnet50(), 4.0),
        ("oversub-b", ModelSpec::vgg19(), 15.0),
    ];
    cases.truncate(scale.pick(1, 2));
    let mut fade = f64::NEG_INFINITY;
    for (tag, model, gbps) in cases {
        let (name, unit) = (model.name(), model.unit());
        f.header(
            tag,
            &format!("model: {name}  racks: 2x4  bandwidth: {gbps} Gbps  unit: {unit}/sec"),
        );
        let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
        let pts = lab.sweep(oversubs, &strategies, |x, s| {
            let c = cfg(&model, s.clone(), 8, gbps, iters).with_seed(42);
            if x == 0.0 {
                return c;
            }
            c.with_topology(Topology::new(2, 4, x))
        });
        f.sweep("oversub (0 = flat fabric)", &pts);
        for p in &pts {
            let label = if p.x == 0.0 {
                format!("{name} flat")
            } else {
                format!("{name} @{}:1 oversub", p.x)
            };
            f.line(format_args!(
                "# {}",
                speedup_line(&label, p.series[0].1, p.series[1].1)
            ));
        }
        fade = fade.max(ratio(&pts, 8.0, 1, 0) / ratio(&pts, 0.0, 1, 0));
        if tag == "oversub-a" {
            f.metric("resnet_flat_gain", ratio(&pts, 0.0, 1, 0));
        }
    }
    f.metric("edge_fade", fade);
    f.line("# expectation: throughput falls monotonically with oversub; P3's edge fades monotonically as the core takes over");
}
