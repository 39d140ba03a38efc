//! # p3-bench — the paper's figures as data
//!
//! Every figure, ablation and extension that EXPERIMENTS.md reports is one
//! function in [`FIGURES`]: it builds its configurations for a [`Scale`],
//! prints its series in gnuplot-style columns (lines starting with `#` are
//! metadata) and records named metrics. [`CLAIMS`] checks those metrics
//! against the paper: each row names a figure, a metric, the paper's value
//! and the band the measurement must fall in. [`run`] is
//! `p3 figures [--quick] [--only <figure>]`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod claims;
mod figures;

pub use claims::{Claim, Holds, CLAIMS};
pub use figures::FIGURES;

use p3_cluster::{ClusterConfig, ClusterSim, RunError, RunResult};
use p3_core::SyncStrategy;
use p3_tensor::{spirals, Dataset};
use p3_train::{train, SyncMode, TrainConfig, TrainRun};
use std::fmt::{self, Write as _};

/// How much work each figure does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The smallest configurations that still show the quick claims; the
    /// tier-1 test and CI run these.
    Quick,
    /// The configurations behind `results/figures.txt`.
    Full,
}

impl Scale {
    /// `quick` at [`Scale::Quick`], `full` at [`Scale::Full`].
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

#[derive(Debug)]
enum Job {
    Sim(Box<ClusterConfig>),
    Train(TrainConfig, SyncMode),
}

#[derive(Debug)]
enum Outcome {
    Sim(Box<Result<RunResult, RunError>>),
    Train(TrainRun),
}

impl Job {
    fn execute(&self, data: &Dataset) -> Outcome {
        match self {
            Job::Sim(cfg) => Outcome::Sim(Box::new(ClusterSim::new((**cfg).clone()).try_run())),
            Job::Train(cfg, mode) => Outcome::Train(train(data, cfg, *mode)),
        }
    }
}

/// The runs a figure asks for. [`run`] calls every figure twice: the first
/// call only records the runs it asks for (each answers as failed), then
/// all recorded runs execute on one thread pool, and the second call gets
/// their results in the same order. A figure must therefore ask for the
/// same runs whatever their results; the second call checks that it does.
#[derive(Debug, Default)]
pub struct Lab {
    jobs: Vec<(String, Job)>,
    /// `Some` on the second call: the results, taken in order.
    outcomes: Option<Vec<Option<Outcome>>>,
    next: usize,
    /// The first failed simulation, which fails every claim of the figure.
    error: Option<String>,
}

impl Lab {
    fn take(&mut self, job: Job) -> Option<Outcome> {
        let key = format!("{job:?}");
        let Some(outcomes) = &mut self.outcomes else {
            self.jobs.push((key, job));
            return None;
        };
        let i = self.next;
        self.next += 1;
        assert!(
            self.jobs.get(i).is_some_and(|(k, _)| *k == key),
            "a figure asked for different runs the second time"
        );
        outcomes[i].take()
    }

    /// One cluster simulation: its result, or why `ClusterSim::try_run`
    /// refused it.
    pub fn run(&mut self, cfg: ClusterConfig) -> Result<RunResult, RunError> {
        match self.take(Job::Sim(Box::new(cfg))) {
            Some(Outcome::Sim(r)) => {
                if let Err(e) = &*r {
                    self.error.get_or_insert_with(|| e.to_string());
                }
                *r
            }
            _ => Err(RunError::InvalidConfig("not run yet".into())),
        }
    }

    /// Aggregate throughput, `NaN` for a failed run, so a sweep over many
    /// points survives one bad one.
    pub fn tp(&mut self, cfg: ClusterConfig) -> f64 {
        self.run(cfg).map_or(f64::NAN, |r| r.throughput)
    }

    /// `make(x, strategy)` for every point and strategy (Figures 7, 10 and
    /// 12 are all this loop). Each series is named by the built
    /// configuration's strategy, so a builder that rewrites the strategy per
    /// point (Fig. 12's slice size) labels it.
    pub fn sweep(
        &mut self,
        xs: &[f64],
        strategies: &[SyncStrategy],
        make: impl Fn(f64, &SyncStrategy) -> ClusterConfig,
    ) -> Vec<SweepPoint> {
        let mut point = |x| {
            let series = strategies.iter().map(|s| {
                let cfg = make(x, s);
                (cfg.strategy.name().to_string(), self.tp(cfg))
            });
            SweepPoint {
                x,
                series: series.collect(),
            }
        };
        xs.iter().map(|&x| point(x)).collect()
    }

    /// One training run on the shared spirals task (DESIGN.md §2); an
    /// async `mode` trains with that staleness.
    pub fn train(&mut self, cfg: TrainConfig, mode: SyncMode) -> TrainRun {
        match self.take(Job::Train(cfg, mode)) {
            Some(Outcome::Train(t)) => t,
            _ => TrainRun {
                mode_name: String::new(),
                records: Vec::new(),
                final_accuracy: f64::NAN,
                iterations_per_epoch: 0,
            },
        }
    }
}

/// One figure: its id (`p3 figures --only <id>`) and its function.
#[derive(Debug, Clone, Copy)]
pub struct FigureDef {
    /// Figure id, e.g. `fig7`.
    pub id: &'static str,
    /// Asks `Lab` for the figure's runs at a scale and prints them.
    pub build: fn(Scale, &mut Lab, &mut Figure),
}

/// One point of a sweep: the x-value and the aggregate throughput of each
/// strategy at that point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Sweep variable (Gbps, cluster size, slice parameters, …).
    pub x: f64,
    /// `(strategy name, aggregate samples/sec)` in input order.
    pub series: Vec<(String, f64)>,
}

/// A figure's output: gnuplot-style text plus named metrics for the
/// claims table. Its methods are the one print helper every figure uses.
#[derive(Debug, Default)]
pub struct Figure {
    text: String,
    metrics: Vec<(&'static str, f64)>,
}

impl Figure {
    /// Appends one line.
    pub fn line(&mut self, line: impl fmt::Display) {
        let _ = writeln!(self.text, "{line}");
    }

    /// Appends a figure header.
    pub fn header(&mut self, figure: &str, detail: &str) {
        self.line(format_args!("# figure: {figure}  {detail}"));
    }

    /// Appends a sweep as columns (`x` to 0.1, values to 0.01) under a
    /// series legend.
    pub fn sweep(&mut self, x_label: &str, points: &[SweepPoint]) {
        let Some(first) = points.first() else {
            return self.line("# (no data)");
        };
        let names: Vec<&str> = first.series.iter().map(|(n, _)| n.as_str()).collect();
        let rows: Vec<(f64, Vec<f64>)> = points
            .iter()
            .map(|p| (p.x, p.series.iter().map(|s| s.1).collect()))
            .collect();
        self.columns(x_label, &names, &rows, (1, 2));
    }

    /// Appends `x` and one column per label, to `precision.0` and
    /// `precision.1` decimals, under a series legend.
    pub fn columns(
        &mut self,
        x_label: &str,
        labels: &[&str],
        rows: &[(f64, Vec<f64>)],
        precision: (usize, usize),
    ) {
        let (px, py) = precision;
        self.line(format_args!(
            "# x = {x_label}, series = {}",
            labels.join(", ")
        ));
        for (x, ys) in rows {
            let mut row = format!("{x:10.px$}");
            for y in ys {
                let _ = write!(row, " {y:10.py$}");
            }
            self.line(row);
        }
    }

    /// Records a named metric for the claims table.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Formats a speedup comparison line.
pub(crate) fn speedup_line(name: &str, base: f64, ours: f64) -> String {
    format!(
        "{name}: baseline {base:.1} -> {ours:.1}  ({:+.1}%)",
        (ours / base - 1.0) * 100.0
    )
}

/// The output of [`run`].
#[derive(Debug)]
pub struct Report {
    /// Every figure's text, then the claims table.
    pub text: String,
    /// The claims table alone (markdown).
    pub table: String,
    /// Rows outside their band; zero means every claim held.
    pub misses: usize,
}

/// Runs `figures` at `scale`, their simulations and training runs on
/// `available_parallelism` threads, prints them in order and checks every
/// row of `claims` that names one of them. The output does not depend on
/// the number of cores.
pub fn run(figures: &[FigureDef], claims: &[Claim], scale: Scale) -> Report {
    let labs: Vec<Lab> = figures
        .iter()
        .map(|fig| {
            let mut lab = Lab::default();
            (fig.build)(scale, &mut lab, &mut Figure::default());
            lab
        })
        .collect();
    let jobs: Vec<&Job> = labs
        .iter()
        .flat_map(|l| l.jobs.iter().map(|(_, j)| j))
        .collect();
    let data = spirals(3, 6, 3000, 900, 77);
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut outcomes =
        p3_cluster::run_indexed(threads, jobs.len(), |i| jobs[i].execute(&data)).into_iter();
    let mut text = String::new();
    let mut figs = Vec::new();
    for (def, mut lab) in figures.iter().zip(labs) {
        lab.outcomes = Some(outcomes.by_ref().take(lab.jobs.len()).map(Some).collect());
        let mut fig = Figure::default();
        (def.build)(scale, &mut lab, &mut fig);
        assert_eq!(lab.next, lab.jobs.len(), "{} asked for fewer runs", def.id);
        let _ = writeln!(text, "# ==== {} ====", def.id);
        text.push_str(&fig.text);
        figs.push((def.id, fig.metrics, lab.error));
    }
    let mut table = String::from(
        "| id | claim | paper | measured | band | status |\n|---|---|---|---|---|---|\n",
    );
    let mut misses = 0;
    for claim in claims {
        let Some((_, metrics, error)) = figs.iter().find(|(id, ..)| *id == claim.figure) else {
            continue;
        };
        let value = metrics.iter().find(|m| m.0 == claim.metric).map(|m| m.1);
        let (measured, status) = claim.check(scale, value, error.as_deref());
        misses += usize::from(status.starts_with("MISS"));
        let (id, band) = (claim.id, claim.band_text());
        let _ = writeln!(
            table,
            "| {id} | {} | {} | {measured} | {band} | {status} |",
            claim.claim, claim.paper
        );
    }
    let _ = writeln!(text, "# ==== claims ({misses} outside their band) ====");
    text.push_str(&table);
    Report {
        text,
        table,
        misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_cluster::{FaultPlan, WorkerCrash};
    use p3_des::SimTime;
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;
    use p3_topo::Topology;

    /// Makes `build`'s runs the way [`run`] does, a recording call and then
    /// a call that reads the results, and returns the second call's value.
    fn two_pass<T>(build: impl Fn(&mut Lab) -> T) -> T {
        let mut lab = Lab::default();
        build(&mut lab);
        let data = spirals(2, 2, 1, 1, 0);
        let outcomes = lab.jobs.iter().map(|(_, j)| Some(j.execute(&data)));
        lab.outcomes = Some(outcomes.collect());
        build(&mut lab)
    }

    #[test]
    fn sweep_points_carry_all_strategies() {
        let strategies = [SyncStrategy::baseline(), SyncStrategy::p3()];
        let pts = two_pass(|lab| {
            lab.sweep(&[20.0], &strategies, |g, s| {
                ClusterConfig::new(ModelSpec::resnet50(), s.clone(), 2, Bandwidth::from_gbps(g))
                    .with_iters(1, 2)
                    .with_seed(7)
            })
        });
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].series.len(), 2);
        assert_eq!(pts[0].series[0].0, "Baseline");
        assert!(pts[0].series.iter().all(|(_, t)| *t > 0.0));

        // A builder that rewrites the strategy names the series after it.
        let sliced = two_pass(|lab| {
            lab.sweep(&[5e4], &[SyncStrategy::p3()], |sz, _| {
                let s = SyncStrategy::p3_with_slice_params(sz as u64);
                ClusterConfig::new(ModelSpec::resnet50(), s, 2, Bandwidth::from_gbps(20.0))
                    .with_iters(1, 1)
            })
        });
        assert_eq!(sliced[0].series[0].0, "P3-50k");
    }

    #[test]
    fn oversubscription_sweep_degrades_monotonically() {
        let pts = two_pass(|lab| {
            lab.sweep(&[1.0, 4.0], &[SyncStrategy::p3()], |f, s| {
                ClusterConfig::new(
                    ModelSpec::resnet50(),
                    s.clone(),
                    4,
                    Bandwidth::from_gbps(8.0),
                )
                .with_iters(1, 2)
                .with_seed(42)
                .with_topology(Topology::new(2, 2, f))
            })
        });
        assert_eq!(pts.len(), 2);
        let t = |i: usize| pts[i].series[0].1;
        assert!(t(0) > 0.0 && t(1) > 0.0);
        assert!(
            t(1) <= t(0),
            "more oversubscription sped things up: {} vs {}",
            t(1),
            t(0)
        );
    }

    #[test]
    fn speedup_formatting() {
        let line = speedup_line("VGG-19@15G", 40.0, 60.0);
        assert!(line.contains("+50.0%"), "{line}");
    }

    fn claim(figure: &'static str, metric: &'static str, band: (f64, f64)) -> Claim {
        Claim {
            id: "test-row",
            figure,
            metric,
            claim: "a test claim",
            paper: "-",
            band,
            holds: Holds::Quick,
            deviation: false,
        }
    }

    /// A figure whose one run `ClusterSim::try_run` rejects: a crash of a
    /// worker the 2-machine cluster does not have.
    fn rejected(_: Scale, lab: &mut Lab, f: &mut Figure) {
        let crash = WorkerCrash {
            worker: 9,
            at: SimTime::ZERO,
            rejoin_after: None,
        };
        let faults = FaultPlan {
            crashes: vec![crash],
            ..FaultPlan::none()
        };
        let cfg = ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            2,
            Bandwidth::from_gbps(10.0),
        );
        f.metric("tp", lab.tp(cfg.with_faults(faults)));
    }

    #[test]
    fn a_rejected_run_is_a_miss_that_names_its_error() {
        let figs = [FigureDef {
            id: "rejected",
            build: rejected,
        }];
        // An open band: a NaN compared as `!(x < lo)` would pass it.
        let open = claim("rejected", "tp", (f64::NEG_INFINITY, f64::INFINITY));
        let report = run(&figs, &[open], Scale::Quick);
        assert_eq!(report.misses, 1, "{}", report.table);
        let row = report.table.lines().last().expect("one row");
        assert!(row.contains("| NaN |"), "{row}");
        assert!(row.contains("MISS: invalid configuration"), "{row}");
    }

    #[test]
    fn a_row_outside_its_band_is_a_miss() {
        let fig4 = &FIGURES[..1];
        assert_eq!(fig4[0].id, "fig4");
        let misses = |c: Claim| run(fig4, &[c], Scale::Quick).misses;
        assert_eq!(misses(claim("fig4", "fifo_gap", (4.0, 4.0))), 0);
        assert_eq!(misses(claim("fig4", "fifo_gap", (5.0, 6.0))), 1);
        assert_eq!(misses(claim("fig4", "no_such_metric", (0.0, 1.0))), 1);
    }

    #[test]
    fn figure_ids_are_unique_and_every_claim_names_a_figure() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.id != f.id), "{}", f.id);
        }
        for c in CLAIMS {
            assert!(FIGURES.iter().any(|f| f.id == c.figure), "{}", c.id);
            assert!(c.band.0 <= c.band.1, "{}", c.id);
            assert!(!c.claim.contains('|') && !c.paper.contains('|'), "{}", c.id);
        }
    }
}
