//! Command implementations. Each returns its output as a `String` so tests
//! can assert on it; `main` prints.

use crate::args::{ArgError, Args};
use core::fmt;
use p3_cluster::{
    BackendKind, ClusterConfig, ClusterSim, FaultPlan, LinkDegradation, StragglerEpisode,
    WorkerCrash, MAX_MACHINES,
};
use p3_core::SyncStrategy;
use p3_des::{SimDuration, SimTime};
use p3_models::ModelSpec;
use p3_net::Bandwidth;
use p3_tensor::{gaussian_blobs, spirals};
use p3_topo::{Placement, Topology};
use p3_trace::{export_trace_json, import_trace_json, MetricsRegistry};
use p3_train::{SyncMode, TrainConfig};
use std::fmt::Write as _;

/// CLI failure: argument errors or unknown names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Argument parsing/validation failed.
    Args(ArgError),
    /// Unknown command word.
    UnknownCommand(String),
    /// Unknown model/strategy/mode name.
    UnknownName {
        /// What kind of name (model, strategy, …).
        kind: &'static str,
        /// The offending value.
        value: String,
        /// Valid choices.
        choices: &'static str,
    },
    /// The simulation rejected the configuration or wedged.
    Sim(String),
    /// Writing an output file (trace/metrics export) failed.
    Io(String),
    /// A trace audit found invariant violations; the string is the full
    /// report.
    Audit(String),
    /// `p3 compare` found performance or determinism regressions; the
    /// string is the full comparison report.
    Regression(String),
    /// `p3 figures` measured a claim outside its band; the string is the
    /// claims table.
    Claims(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `p3 help`)")
            }
            CliError::UnknownName {
                kind,
                value,
                choices,
            } => {
                write!(f, "unknown {kind} `{value}` (choices: {choices})")
            }
            CliError::Sim(why) => write!(f, "{why}"),
            CliError::Io(why) => write!(f, "{why}"),
            CliError::Audit(report) => write!(f, "{report}"),
            CliError::Regression(report) => write!(f, "{report}"),
            CliError::Claims(table) => write!(f, "claims outside their band:\n{table}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

const MODEL_CHOICES: &str =
    "resnet50, inception_v3, vgg19, sockeye, resnet110, alexnet, transformer";

fn model_by_name(name: &str) -> Result<ModelSpec, CliError> {
    match name {
        "resnet50" => Ok(ModelSpec::resnet50()),
        "inception_v3" | "inception" => Ok(ModelSpec::inception_v3()),
        "vgg19" | "vgg" => Ok(ModelSpec::vgg19()),
        "sockeye" => Ok(ModelSpec::sockeye()),
        "resnet110" => Ok(ModelSpec::resnet110()),
        "alexnet" => Ok(ModelSpec::alexnet()),
        "transformer" => Ok(ModelSpec::transformer()),
        other => Err(CliError::UnknownName {
            kind: "model",
            value: other.to_string(),
            choices: MODEL_CHOICES,
        }),
    }
}

const STRATEGY_CHOICES: &str =
    "baseline, slicing, p3, tf, poseidon, p3-generation, p3-random, p3-notify-pull";

fn strategy_by_name(name: &str) -> Result<SyncStrategy, CliError> {
    match name {
        "baseline" => Ok(SyncStrategy::baseline()),
        "slicing" => Ok(SyncStrategy::slicing_only()),
        "p3" => Ok(SyncStrategy::p3()),
        "tf" => Ok(SyncStrategy::tf_style()),
        "poseidon" => Ok(SyncStrategy::poseidon_wfbp()),
        "p3-generation" => Ok(SyncStrategy::p3_generation_order()),
        "p3-random" => Ok(SyncStrategy::p3_random_order(7)),
        "p3-notify-pull" => Ok(SyncStrategy::p3_notify_pull()),
        other => Err(CliError::UnknownName {
            kind: "strategy",
            value: other.to_string(),
            choices: STRATEGY_CHOICES,
        }),
    }
}

/// One comma-separated item of a fault flag, in the format `format`
/// (`W:START:DUR:SLOWDOWN`). Each field is read by what it holds, and a bad
/// one is an error that names it.
struct FaultItem<'a> {
    flag: &'static str,
    item: &'a str,
    format: &'static str,
}

impl FaultItem<'_> {
    /// The item's colon-separated fields.
    fn fields(&self) -> Vec<&str> {
        self.item.split(':').map(str::trim).collect()
    }

    /// The error for an item that does not match the format.
    fn malformed(&self) -> CliError {
        bad_value(self.flag, self.item, self.format)
    }

    /// The error for field `name`, which must be `what`.
    fn bad(&self, name: &str, what: &str) -> CliError {
        let expected = format!("{} with {name} {what}", self.format);
        bad_value(self.flag, self.item, &expected)
    }

    /// Field `name`: a worker or machine index.
    fn index(&self, name: &str, field: &str) -> Result<usize, CliError> {
        field
            .parse()
            .map_err(|_| self.bad(name, "a non-negative integer"))
    }

    /// Field `name`: a number of seconds the simulated clock can hold.
    fn secs(&self, name: &str, field: &str) -> Result<SimDuration, CliError> {
        match field.parse::<f64>() {
            // As `SimDuration::from_secs_f64` converts it.
            Ok(secs) if secs >= 0.0 && secs * 1e9 <= u64::MAX as f64 => {
                Ok(SimDuration::from_secs_f64(secs))
            }
            _ => Err(self.bad(
                name,
                "finite, non-negative seconds within the simulated clock",
            )),
        }
    }

    /// Field `name`: a finite number.
    fn number(&self, name: &str, field: &str) -> Result<f64, CliError> {
        match field.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(self.bad(name, "a finite number")),
        }
    }
}

pub(crate) fn bad_value(flag: &'static str, value: &str, expected: &str) -> CliError {
    CliError::Args(ArgError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected: expected.to_string(),
    })
}

/// What a cluster size must be: the engine's membership masks hold
/// [`MAX_MACHINES`] workers.
pub(crate) fn machines_expected() -> String {
    format!("positive integer up to {MAX_MACHINES}")
}

/// Builds a [`FaultPlan`] from the fault-injection flags shared by
/// `simulate` and `sweep`:
///
/// * `--loss P` — per-message drop probability in `[0, 1)`;
/// * `--straggler W:START:DUR:SLOWDOWN` — worker W computes SLOWDOWN×
///   slower from START for DUR seconds (comma-separated list);
/// * `--degrade M:START:DUR:FACTOR` — machine M's NIC runs at FACTOR of
///   nominal capacity (comma-separated list);
/// * `--crash W:AT[:REJOIN]` — worker W's process dies at AT seconds,
///   restarting after REJOIN seconds if given (comma-separated list).
fn parse_fault_plan(args: &Args) -> Result<FaultPlan, CliError> {
    let mut plan = FaultPlan::none();
    plan.loss_probability = args.get_or("loss", 0.0, "probability in [0, 1)")?;
    let items = |flag: &'static str, format: &'static str| {
        let items = args.get(flag).map(|spec| spec.split(','));
        let item = move |item| FaultItem { flag, item, format };
        items.into_iter().flatten().map(item)
    };
    for f in items("straggler", "W:START:DUR:SLOWDOWN") {
        let [w, start, dur, slowdown] = f.fields()[..] else {
            return Err(f.malformed());
        };
        plan.stragglers.push(StragglerEpisode {
            worker: f.index("W", w)?,
            start: SimTime::ZERO + f.secs("START", start)?,
            duration: f.secs("DUR", dur)?,
            slowdown: f.number("SLOWDOWN", slowdown)?,
        });
    }
    for f in items("degrade", "M:START:DUR:FACTOR") {
        let [m, start, dur, factor] = f.fields()[..] else {
            return Err(f.malformed());
        };
        plan.link_degradations.push(LinkDegradation {
            machine: f.index("M", m)?,
            start: SimTime::ZERO + f.secs("START", start)?,
            duration: f.secs("DUR", dur)?,
            capacity_factor: f.number("FACTOR", factor)?,
        });
    }
    for f in items("crash", "W:AT[:REJOIN]") {
        let (w, at, rejoin) = match f.fields()[..] {
            [w, at] => (w, at, None),
            [w, at, rejoin] => (w, at, Some(rejoin)),
            _ => return Err(f.malformed()),
        };
        plan.crashes.push(WorkerCrash {
            worker: f.index("W", w)?,
            at: SimTime::ZERO + f.secs("AT", at)?,
            rejoin_after: rejoin.map(|r| f.secs("REJOIN", r)).transpose()?,
        });
    }
    Ok(plan)
}

/// Parses the topology/placement flags shared by `simulate` and `sweep`:
/// `--topology racks=R,size=S,oversub=F` and
/// `--placement spread|packed|rack-local`. A placement is part of its
/// topology, so `--placement` alone is refused.
fn parse_topology_flags(args: &Args) -> Result<Option<Topology>, CliError> {
    let topology = match args.get("topology") {
        None => None,
        Some(spec) => Some(
            Topology::parse_spec(spec, MAX_MACHINES)
                .map_err(|why| CliError::Sim(format!("--topology: {why}")))?,
        ),
    };
    let Some(name) = args.get("placement") else {
        return Ok(topology);
    };
    let placement = Placement::parse(name).map_err(|_| CliError::UnknownName {
        kind: "placement",
        value: name.to_string(),
        choices: "spread, packed, rack-local",
    })?;
    match topology {
        Some(t) => Ok(Some(t.with_placement(placement))),
        None => Err(bad_value(
            "placement",
            name,
            "a --topology to place shards in",
        )),
    }
}

/// Cluster size: derived from the topology when one is given, otherwise
/// from `--machines` (defaulting to `default`). An explicit `--machines`
/// that is zero, above [`MAX_MACHINES`] or contradicts the topology is an
/// error.
fn resolve_machines(
    args: &Args,
    topology: Option<&Topology>,
    default: usize,
) -> Result<usize, CliError> {
    let explicit: Option<usize> = match args.get("machines") {
        None => None,
        Some(v) => match args.get_or("machines", default, "positive integer")? {
            m @ 1..=MAX_MACHINES => Some(m),
            _ => return Err(bad_value("machines", v, &machines_expected())),
        },
    };
    match (topology, explicit) {
        (Some(t), Some(m)) if m != t.machines() => Err(CliError::Sim(format!(
            "--machines {m} conflicts with the topology ({}: {} machines)",
            t.describe(),
            t.machines()
        ))),
        (Some(t), _) => Ok(t.machines()),
        (None, m) => Ok(m.unwrap_or(default)),
    }
}

/// Checks one `--gbps` value (scalar or list element): the network models
/// only positive, finite bandwidth.
fn positive_gbps(g: f64) -> Result<f64, CliError> {
    if g.is_finite() && g > 0.0 {
        Ok(g)
    } else {
        Err(bad_value("gbps", &g.to_string(), "positive, finite Gbps"))
    }
}

/// Executes a parsed command line and returns its printable output.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, unknown names or malformed
/// flags.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    // Only `audit` (the trace file) and `compare` (the two reports) take
    // positionals.
    if !matches!(args.command(), "audit" | "compare") {
        args.reject_positionals()?;
    }
    match args.command() {
        "help" | "-h" | "--help" => {
            args.reject_unknown()?;
            Ok(help())
        }
        "models" => {
            args.reject_unknown()?;
            Ok(models_table())
        }
        "plan" => plan(args),
        "simulate" => simulate(args),
        "timeline" => timeline(args),
        "sweep" => sweep(args),
        "train" => train(args),
        "audit" => audit(args),
        "bench" => crate::perf::bench(args),
        "compare" => crate::perf::compare(args),
        "figures" => figures(args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn help() -> String {
    "p3 — Priority-based Parameter Propagation (MLSys 2019) reproduction

USAGE: p3 <command> [--flag value]...

COMMANDS:
  models      List the model zoo with parameter statistics
  plan        Shard-plan statistics        --model M [--strategy S] [--servers N]
  simulate    One training-cluster run     --model M [--strategy S] [--machines N]
                                           [--gbps G] [--iters N] [fault flags]
                                           [--backend ps|ring|halving-doubling]
                                           [--slice-params N]
                                           [--trace-out F] [--metrics-out F]
                                           [topology flags] [iteration flags]
                                           [snapshot flags]
  timeline    ASCII Gantt of a traced run  --model M [--strategy S] [--machines N]
                                           [--gbps G] [--iters N]
                                           [--width W]  chart columns, 1 to 4096
  sweep       Bandwidth sweep              --model M [--gbps 1,2,4] [--machines N]
                                           [fault flags] [topology flags]
                                           [iteration flags] [--out F] [--resume]
                                           [--jobs N]  parallel rows, deterministic order
  train       Real data-parallel training  [--mode full|dgc|qsgd|terngrad|onebit|asgd]
                                           [--dataset spirals|blobs] [--epochs N]
                                           [--workers N] [--lr R]
  audit       Check a trace file against   p3 audit FILE
              the invariant catalog        (FILE from `p3 simulate --trace-out`)
  bench       Benchmark the engine across  [--quick] [--machines A,B,...]
              worker counts and backends   [--out FILE]  (writes BENCH_simulate.json)
  compare     Diff two bench reports       p3 compare BASELINE CANDIDATE
              and fail on regressions      [--tolerance T]  (default 0.1)
                                           [--subset]  skip baseline rungs the
                                           candidate does not cover
  figures     Paper figures, then the      [--quick]  quick-scale claims only
              claims table; exits 1 if     [--only F]  one figure: fig4 fig5 fig6
              a claim leaves its band        fig7 fig8_9 fig10 fig11 fig12 fig13_14
                                             fig15 ablations allreduce dgc_p3
                                             transformer robustness oversub
  help        This text

FAULT FLAGS (simulate, sweep):
  --loss P                        drop each message with probability P
  --straggler W:START:DUR:SLOW    worker W computes SLOW x slower (seconds)
  --degrade M:START:DUR:FACTOR    machine M NIC at FACTOR of capacity
  --crash W:AT[:REJOIN]           worker W dies at AT s, restarts after REJOIN s

TOPOLOGY FLAGS (simulate, sweep):
  --topology racks=R,size=S,oversub=F   rack/core fabric instead of the flat fan-out
                                        (omit --machines; it is R*S)
  --placement spread|packed|rack-local  server placement policy on the topology
                                        (needs --topology)

ITERATION FLAGS (simulate, sweep):
  --warmup N                      untimed warm-up iterations (simulate: 2, sweep: 1)
  --measure N                     timed iterations (simulate: --iters, sweep: 5)
  --seed N                        simulation seed (sweep default: 42)

TRACE FLAGS (simulate):
  --trace-out FILE                write the event trace as JSON: Perfetto-loadable
                                  and auditable with `p3 audit FILE`
  --metrics-out FILE              write the derived metrics registry as JSON
  --audit                         replay the run's trace through the invariant
                                  catalog (DESIGN.md §10); violations fail the run
  --profile-out FILE              profile the engine itself (timers per event
                                  type, allocator work counters, events/sec) and
                                  write the report as versioned JSON; profiling
                                  never perturbs results (DESIGN.md §13)

SNAPSHOT FLAGS (simulate):
  --snapshot-every N              snapshot every N completed iterations (with
                                  --snapshot-out; the latest snapshot wins)
  --snapshot-out FILE             where to write snapshots (implies every 1)
  --resume-from FILE              restore FILE and run it to completion; the
                                  resumed trace and final event hash are
                                  bit-identical to the uninterrupted run's
  --hash-every N                  emit a rolling state-hash trace event every N
                                  simulator events (divergence bisection)

SWEEP RESUME (sweep):
  --out FILE                      stream each completed row to FILE
  --resume                        reuse rows already present in --out FILE
"
    .to_string()
}

fn figures(args: &Args) -> Result<String, CliError> {
    let scale = if args.switch("quick") {
        p3_bench::Scale::Quick
    } else {
        p3_bench::Scale::Full
    };
    let only = args.get("only");
    args.reject_unknown()?;
    let all = p3_bench::FIGURES;
    let figures = match only {
        None => all,
        Some(id) => match all.iter().position(|f| f.id == id) {
            Some(i) => &all[i..=i],
            None => return Err(bad_value("only", id, "a figure id listed by `p3 help`")),
        },
    };
    let report = p3_bench::run(figures, p3_bench::CLAIMS, scale);
    if report.misses == 0 {
        Ok(report.text)
    } else {
        Err(CliError::Claims(report.table))
    }
}

fn models_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>8} {:>14} {:>10}",
        "model", "params(M)", "arrays", "heaviest(%)", "unit"
    );
    for m in [
        ModelSpec::resnet50(),
        ModelSpec::inception_v3(),
        ModelSpec::vgg19(),
        ModelSpec::sockeye(),
        ModelSpec::resnet110(),
        ModelSpec::alexnet(),
        ModelSpec::transformer(),
    ] {
        let Some(h) = m.heaviest_array() else {
            continue; // zoo models all have parameters
        };
        let heaviest = h.params as f64 / m.total_params() as f64 * 100.0;
        let _ = writeln!(
            out,
            "{:<14} {:>10.2} {:>8} {:>13.1}% {:>10}",
            m.name(),
            m.total_params() as f64 / 1e6,
            m.num_arrays(),
            heaviest,
            m.unit().to_string(),
        );
    }
    out
}

fn plan(args: &Args) -> Result<String, CliError> {
    let model = model_by_name(args.require("model")?)?;
    let strategy = strategy_by_name(args.get("strategy").unwrap_or("p3"))?;
    let servers: usize = args.get_or("servers", 4, "integer")?;
    if !(1..=MAX_MACHINES).contains(&servers) {
        return Err(bad_value(
            "servers",
            &servers.to_string(),
            &machines_expected(),
        ));
    }
    args.reject_unknown()?;
    let plan = strategy.plan(&model, servers, 0);
    let loads = plan.server_loads();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under {} on {servers} servers:",
        model.name(),
        strategy.name()
    );
    let _ = writeln!(out, "  keys:          {}", plan.num_keys());
    let _ = writeln!(out, "  total params:  {}", plan.total_params());
    let empty = || CliError::Sim(format!("{} produced an empty shard plan", model.name()));
    let max = *loads.iter().max().ok_or_else(empty)? as f64;
    let min = *loads.iter().min().ok_or_else(empty)? as f64;
    let _ = writeln!(
        out,
        "  server loads:  {loads:?}  (imbalance {:.3}x)",
        max / min.max(1.0)
    );
    let biggest = plan
        .slices()
        .iter()
        .map(|s| s.params)
        .max()
        .ok_or_else(empty)?;
    let _ = writeln!(out, "  largest slice: {biggest} params");
    Ok(out)
}

/// Smallest `p3 simulate --slice-params`: Fig. 12's smallest slice. Finer
/// slices only multiply the keys every endpoint tracks.
const MIN_SLICE_PARAMS: u64 = 1_000;

#[expect(
    clippy::disallowed_methods,
    reason = "the wall time is printed for the user and never reaches the simulation"
)]
fn simulate(args: &Args) -> Result<String, CliError> {
    let model = model_by_name(args.require("model")?)?;
    let mut strategy = strategy_by_name(args.get("strategy").unwrap_or("p3"))?;
    // Collectives want far coarser slices than the PS optimum (the
    // fusion-buffer economics of EXPERIMENTS.md's slice-size sweep), so
    // the granularity is overridable per run.
    if let Some(n) = args.get("slice-params") {
        let expected = format!("parameter count of at least {MIN_SLICE_PARAMS}");
        let n: u64 = n
            .parse()
            .ok()
            .filter(|&n| n >= MIN_SLICE_PARAMS)
            .ok_or_else(|| bad_value("slice-params", n, &expected))?;
        strategy.slicing = p3_core::Slicing::MaxParams(n);
    }
    let topology = parse_topology_flags(args)?;
    let machines = resolve_machines(args, topology.as_ref(), 4)?;
    let gbps = positive_gbps(args.get_or("gbps", 10.0, "number")?)?;
    let iters: u64 = args.get_or("iters", 8, "integer")?;
    let warmup: u64 = args.get_or("warmup", 2, "integer")?;
    let measure: u64 = args.get_or("measure", iters, "integer")?;
    let seed: u64 = args.get_or("seed", 0x9e3779b9, "integer")?;
    if measure == 0 {
        return Err(bad_value("measure", "0", "positive integer"));
    }
    let name = args.get("backend").unwrap_or("ps");
    let backend = BackendKind::from_name(name)
        .ok_or_else(|| bad_value("backend", name, "ps|ring|halving-doubling"))?;
    let plan = parse_fault_plan(args)?;
    let faulty = !plan.is_empty();
    let trace_out = args.get("trace-out").map(str::to_string);
    let metrics_out = args.get("metrics-out").map(str::to_string);
    let profile_out = args.get("profile-out").map(str::to_string);
    let audited = args.switch("audit");
    let hash_every: u64 = args.get_or("hash-every", 0, "integer")?;
    let snapshot_every: u64 = args.get_or("snapshot-every", 0, "integer")?;
    let snapshot_out = args.get("snapshot-out").map(str::to_string);
    let resume_from = args.get("resume-from").map(str::to_string);
    args.reject_unknown()?;
    if snapshot_every > 0 && snapshot_out.is_none() {
        return Err(CliError::Args(ArgError::MissingFlag("snapshot-out")));
    }
    // `--snapshot-out` alone snapshots every completed iteration.
    let snapshot_every = if snapshot_out.is_some() && snapshot_every == 0 {
        1
    } else {
        snapshot_every
    };
    if resume_from.is_some() && (snapshot_out.is_some() || audited) {
        return Err(CliError::Sim(
            "--resume-from cannot be combined with --snapshot-out or --audit \
             (a resumed trace is a suffix of the full run; audit the full trace instead)"
                .into(),
        ));
    }
    let mut cfg = ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps))
        .with_iters(warmup, measure)
        .with_seed(seed)
        .with_faults(plan)
        .with_backend(backend);
    if let Some(t) = topology {
        cfg = cfg.with_topology(t);
    }
    if audited || trace_out.is_some() || metrics_out.is_some() {
        cfg = cfg.with_slice_trace();
    }
    if hash_every > 0 {
        cfg = cfg.with_state_hash_every(hash_every);
    }
    let meta = cfg.trace_meta();
    let sim_err = |e: p3_cluster::RunError| CliError::Sim(e.to_string());
    // Wall-clock measurement lives in the CLI, outside the deterministic
    // core; the engine-side profiler is enabled only with --profile-out.
    let run_started = std::time::Instant::now();
    let mut sim = match &resume_from {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            ClusterSim::restore(cfg, &bytes)
                .map_err(|e| sim_err(p3_cluster::RunError::Snapshot(e)))?
        }
        None => ClusterSim::new(cfg),
    };
    if profile_out.is_some() {
        sim = sim.with_profiling();
    }
    // Pause at each multiple of --snapshot-every the slowest worker
    // reaches and overwrite the file there; the latest snapshot wins.
    let mut snapshot_at: Option<u64> = None;
    if let Some(path) = &snapshot_out {
        let mut next_at = snapshot_every;
        loop {
            let floor = sim.run_until(next_at).map_err(sim_err)?;
            if floor < next_at {
                break; // the run ended before this boundary
            }
            std::fs::write(path, sim.snapshot())
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            snapshot_at = Some(floor);
            // Skip past multiples crossed in one jump so every snapshot
            // reflects a distinct progress floor.
            next_at = (floor / snapshot_every + 1) * snapshot_every;
        }
    }
    let (r, log) = sim.try_run_traced().map_err(sim_err)?;
    let run_wall = run_started.elapsed().as_secs_f64();
    // Audit before the profile, trace or metrics file is written.
    if let Some(log) = log.as_ref().filter(|_| audited) {
        let report = p3_audit::check_with(log, &p3_audit::AuditOptions::from_meta(&meta));
        if !report.is_clean() {
            return Err(CliError::Audit(report.to_string()));
        }
    }
    let mut out = format!(
        "throughput: {:.1} {}/sec  |  mean iteration: {}  |  stall fraction: {:.2}\n",
        r.throughput, r.unit, r.mean_iteration, r.mean_stall_fraction
    );
    let _ = writeln!(
        out,
        "iteration p50: {}  |  p99: {}",
        r.p50_iteration, r.p99_iteration
    );
    let _ = writeln!(
        out,
        "engine: {} events ({:.0} events/sec)  |  peak in-flight flows: {}",
        r.events,
        if run_wall > 0.0 {
            r.events as f64 / run_wall
        } else {
            0.0
        },
        r.peak_in_flight_flows
    );
    let _ = writeln!(out, "event hash: {:#018x}", r.event_hash);
    if let Some(path) = &profile_out {
        let profile = r
            .profile
            .as_ref()
            .ok_or_else(|| CliError::Sim("profiled run produced no profile report".into()))?;
        std::fs::write(path, profile.to_json())
            .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        let _ = writeln!(out, "profile written: {path}");
    }
    if let Some(path) = &resume_from {
        let _ = writeln!(out, "resumed from: {path}");
    }
    if let Some(path) = &snapshot_out {
        match snapshot_at {
            Some(iter) => {
                let _ = writeln!(out, "snapshot written: {path} (iteration {iter})");
            }
            None => {
                let _ = writeln!(
                    out,
                    "no snapshot taken: run finished before iteration {snapshot_every}"
                );
            }
        }
    }
    let stalls: Vec<String> = r
        .stalled_per_worker
        .iter()
        .map(|d| format!("{d}"))
        .collect();
    let _ = writeln!(out, "stall per worker: [{}]", stalls.join(", "));
    if !r.links.is_empty() {
        let _ = writeln!(out, "link utilization:");
        for l in &r.links {
            let _ = writeln!(
                out,
                "  {:<12} {:>5.1}% busy  {:>9.1} MB{}",
                l.name,
                l.busy_fraction * 100.0,
                l.bytes / 1e6,
                if l.transit { "  (core)" } else { "" }
            );
        }
    }
    if backend.is_collective() {
        let _ = writeln!(
            out,
            "backend: {}  |  collective chunks: {}",
            backend.name(),
            r.messages.collective_chunks
        );
    }
    if audited {
        let _ = writeln!(out, "audit: clean (invariant catalog, DESIGN.md §10)");
    }
    if let Some(log) = &log {
        if let Some(path) = &trace_out {
            std::fs::write(path, export_trace_json(log, &meta))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let _ = writeln!(out, "chrome trace written: {path}");
        }
        if let Some(path) = &metrics_out {
            let mut reg = MetricsRegistry::from_trace(log);
            for l in &r.links {
                reg.record_link_busy(&l.name, l.busy_fraction);
            }
            std::fs::write(path, reg.to_json())
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let _ = writeln!(out, "metrics written: {path}");
        }
    }
    if faulty {
        let _ = writeln!(
            out,
            "faults: {} lost, {} retransmits, {} gave up, {} degraded rounds, \
             {} flows cancelled, {} collectives aborted",
            r.faults.messages_lost,
            r.faults.retransmits,
            r.faults.gave_up,
            r.faults.degraded_rounds,
            r.faults.flows_cancelled,
            r.faults.collectives_aborted
        );
    }
    Ok(out)
}

/// Widest `p3 timeline --width`: the chart holds a row of this many
/// columns per lane.
const MAX_TIMELINE_WIDTH: usize = 4096;

/// Most worker iterations `p3 timeline` renders, summed over machines:
/// `--iters` times `--machines` stays at or under this. The traced run
/// holds every event of the window, about 3.5 MB per worker iteration
/// for VGG-19: 128 iterations of it on two machines peak under 1 GB.
const MAX_TIMELINE_WORKER_ITERS: u64 = 256;

/// Runs a short traced simulation and renders the first `--iters`
/// iterations as an ASCII Gantt chart (rows: per-worker compute/stall,
/// per-machine tx/rx, per-server aggregation).
fn timeline(args: &Args) -> Result<String, CliError> {
    let model = model_by_name(args.require("model")?)?;
    let strategy = strategy_by_name(args.get("strategy").unwrap_or("p3"))?;
    let machines = resolve_machines(args, None, 2)?;
    let gbps = positive_gbps(args.get_or("gbps", 10.0, "number")?)?;
    let iters: u64 = args.get_or("iters", 1, "integer")?;
    let width: usize = args.get_or("width", 72, "integer")?;
    if !(1..=MAX_TIMELINE_WIDTH).contains(&width) {
        let expected = format!("integer from 1 to {MAX_TIMELINE_WIDTH}");
        return Err(bad_value("width", &width.to_string(), &expected));
    }
    let most = MAX_TIMELINE_WORKER_ITERS / machines as u64;
    if iters > most {
        let expected = format!("integer up to {most} on {machines} machines");
        return Err(bad_value("iters", &iters.to_string(), &expected));
    }
    // Run one iteration past the rendered window so every span inside the
    // window has its end event on record (open spans are dropped).
    let run_iters = iters.max(1) + 1;
    args.reject_unknown()?;
    let cfg = ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps))
        .with_iters(0, run_iters)
        .with_slice_trace();
    let (_, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .map_err(|e| CliError::Sim(e.to_string()))?;
    let log = log.ok_or_else(|| CliError::Sim("traced run produced no event log".into()))?;
    Ok(p3_cluster::ascii_timeline(&log, machines, iters, width))
}

/// Replays an exported trace file through the invariant catalog
/// (`p3-audit`). Accepts the spliced JSON written by
/// `p3 simulate --trace-out`; configuration-gated checks use the embedded
/// metadata. Violations exit non-zero with the full report.
fn audit(args: &Args) -> Result<String, CliError> {
    let file = args.get("file");
    args.reject_unknown()?;
    let path = match args.positionals() {
        [p] => p.as_str(),
        [] => file.ok_or(ArgError::MissingFlag("file"))?,
        [_, extra, ..] => {
            return Err(CliError::Args(ArgError::UnexpectedPositional(
                extra.clone(),
            )))
        }
    };
    let doc = std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
    let (log, meta) = import_trace_json(&doc).map_err(|why| {
        CliError::Io(format!(
            "{path}: {why} (expected a trace written by `p3 simulate --trace-out`)"
        ))
    })?;
    let opts = p3_audit::AuditOptions::from_meta(&meta);
    let report = p3_audit::check_with(&log, &opts);
    if report.is_clean() {
        Ok(format!("{path}: {report}\n"))
    } else {
        Err(CliError::Audit(format!("{path}: {report}")))
    }
}

fn sweep(args: &Args) -> Result<String, CliError> {
    let model = model_by_name(args.require("model")?)?;
    let topology = parse_topology_flags(args)?;
    let machines = resolve_machines(args, topology.as_ref(), 4)?;
    let gbps: Vec<f64> = args
        .get_f64_list("gbps", &[1.0, 2.0, 4.0, 8.0, 16.0])?
        .into_iter()
        .map(positive_gbps)
        .collect::<Result<_, _>>()?;
    // A row is keyed by its printed bandwidth (the `--out` file's first
    // column), so two bandwidths that print alike would share one row.
    let key = |g: f64| format!("{g:.1}");
    for (i, &g) in gbps.iter().enumerate() {
        if let Some(&twin) = gbps[..i].iter().find(|&&h| key(h) == key(g)) {
            return Err(bad_value(
                "gbps",
                &format!("{twin},{g}"),
                "bandwidths that differ at one decimal place (sweep rows are keyed by \
                 their printed Gbps)",
            ));
        }
    }
    let warmup: u64 = args.get_or("warmup", 1, "integer")?;
    let measure: u64 = args.get_or("measure", 5, "integer")?;
    let seed: u64 = args.get_or("seed", 42, "integer")?;
    if measure == 0 {
        return Err(bad_value("measure", "0", "positive integer"));
    }
    let strategies = SyncStrategy::fig7_series();
    let plan = parse_fault_plan(args)?;
    let jobs: usize = args.get_or("jobs", 1, "integer")?;
    let out_path = args.get("out").map(str::to_string);
    let resume = args.switch("resume");
    if resume && out_path.is_none() {
        return Err(CliError::Args(ArgError::MissingFlag("out")));
    }
    args.reject_unknown()?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8}  {:>10}  {:>10}  {:>10}  {:>6}",
        "Gbps", "Baseline", "Slicing", "P3", "Peak"
    );
    // One rendered row: per-strategy throughput plus the row's peak
    // in-flight flow count (the max across its strategies — deterministic,
    // so rows stay reusable under --resume). A configuration that wedges
    // prints as NaN rather than aborting the sweep.
    let row_line = |g: f64| -> String {
        let mut peak = 0u64;
        let t: Vec<f64> = strategies
            .iter()
            .map(|s| {
                let mut cfg =
                    ClusterConfig::new(model.clone(), s.clone(), machines, Bandwidth::from_gbps(g))
                        .with_iters(warmup, measure)
                        .with_seed(seed)
                        .with_faults(plan.clone());
                if let Some(t) = &topology {
                    cfg = cfg.with_topology(t.clone());
                }
                match ClusterSim::new(cfg).try_run() {
                    Ok(r) => {
                        peak = peak.max(r.peak_in_flight_flows);
                        r.throughput
                    }
                    Err(_) => f64::NAN,
                }
            })
            .collect();
        format!(
            "{:>8.1}  {:>10.1}  {:>10.1}  {:>10.1}  {:>6}",
            g, t[0], t[1], t[2], peak
        )
    };
    if let Some(path) = &out_path {
        // Resumable sweep: each completed row is streamed to the results
        // file, and `--resume` reuses rows already present instead of
        // recomputing them — an interrupted sweep loses at most one cell.
        let mut done: Vec<(String, String)> = Vec::new();
        if resume {
            match std::fs::read_to_string(path) {
                Ok(doc) => {
                    for line in doc.lines().filter(|l| !l.trim().is_empty()) {
                        if let Some(key) = line.split_whitespace().next() {
                            done.push((key.to_string(), line.to_string()));
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(CliError::Io(format!("{path}: {e}"))),
            }
        }
        // Rows not already in the file are computed on the thread pool and
        // merged back in bandwidth order, so the streamed file is
        // byte-identical whatever --jobs is.
        let missing: Vec<f64> = gbps
            .iter()
            .copied()
            .filter(|&g| !done.iter().any(|(k, _)| *k == key(g)))
            .collect();
        let computed = p3_cluster::run_indexed(jobs, missing.len(), |i| row_line(missing[i]));
        let mut fresh: Vec<(String, String)> =
            missing.iter().map(|&g| key(g)).zip(computed).collect();
        let mut reused = 0usize;
        for &g in &gbps {
            let row = key(g);
            let line = match done.iter().find(|(k, _)| *k == row) {
                Some((_, line)) => {
                    reused += 1;
                    line.clone()
                }
                None => {
                    let idx = fresh
                        .iter()
                        .position(|(k, _)| *k == row)
                        .ok_or_else(|| CliError::Sim(format!("sweep row {row} went missing")))?;
                    let (_, line) = fresh.remove(idx);
                    done.push((row, line.clone()));
                    let doc: String = done.iter().map(|(_, l)| format!("{l}\n")).collect();
                    std::fs::write(path, doc).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                    line
                }
            };
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "results file: {path}");
        if reused > 0 {
            let _ = writeln!(out, "resumed: {reused} row(s) reused");
        }
        return Ok(out);
    }
    for line in p3_cluster::run_indexed(jobs, gbps.len(), |i| row_line(gbps[i])) {
        let _ = writeln!(out, "{line}");
    }
    Ok(out)
}

/// Training rows of both `p3 train` datasets: every worker's data shard
/// needs at least one, so this bounds `--workers`.
const TRAIN_ROWS: usize = 2400;

fn train(args: &Args) -> Result<String, CliError> {
    let epochs: u32 = args.get_or("epochs", 15, "integer")?;
    let mut cfg = TrainConfig::new(epochs);
    cfg.workers = args.get_or("workers", 4, "integer")?;
    cfg.lr = args.get_or("lr", 0.1f32, "number")?;
    cfg.hidden = vec![48, 24];
    if epochs == 0 {
        return Err(bad_value("epochs", "0", "positive integer"));
    }
    if !(1..=TRAIN_ROWS).contains(&cfg.workers) {
        let expected = format!("positive integer up to {TRAIN_ROWS}, the training rows");
        return Err(bad_value("workers", &cfg.workers.to_string(), &expected));
    }
    if !(cfg.lr > 0.0 && cfg.lr.is_finite()) {
        return Err(bad_value(
            "lr",
            &cfg.lr.to_string(),
            "positive, finite learning rate",
        ));
    }
    let mode = args.get("mode").unwrap_or("full");
    let dataset = args.get("dataset").unwrap_or("spirals");
    args.reject_unknown()?;
    let data = match dataset {
        "spirals" => spirals(3, 6, TRAIN_ROWS, 600, 21),
        "blobs" => gaussian_blobs(4, 10, TRAIN_ROWS, 600, 1.2, 21),
        other => {
            return Err(CliError::UnknownName {
                kind: "dataset",
                value: other.to_string(),
                choices: "spirals, blobs",
            })
        }
    };
    let mode = match mode {
        "full" | "p3" => SyncMode::FullSync,
        "dgc" => SyncMode::Dgc {
            final_sparsity: 0.99,
            warmup_epochs: 4,
        },
        "qsgd" => SyncMode::Qsgd { levels: 4 },
        "terngrad" => SyncMode::TernGrad,
        "onebit" => SyncMode::OneBit,
        "asgd" => SyncMode::Async {
            staleness: cfg.workers - 1,
        },
        other => {
            return Err(CliError::UnknownName {
                kind: "mode",
                value: other.to_string(),
                choices: "full, dgc, qsgd, terngrad, onebit, asgd",
            })
        }
    };
    let run = p3_train::train(&data, &cfg, mode);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mode: {}  epochs: {epochs}  workers: {}",
        run.mode_name, cfg.workers
    );
    for r in &run.records {
        let _ = writeln!(
            out,
            "  epoch {:>3}: loss {:.4}  val accuracy {:.4}",
            r.epoch, r.train_loss, r.val_accuracy
        );
    }
    let _ = writeln!(out, "final accuracy: {:.4}", run.final_accuracy);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        dispatch(&args)
    }

    #[test]
    fn help_lists_commands() {
        let h = run("help").unwrap();
        for cmd in ["models", "plan", "simulate", "sweep", "train", "figures"] {
            assert!(h.contains(cmd), "help missing {cmd}");
        }
        for f in p3_bench::FIGURES {
            assert!(h.contains(f.id), "help missing figure {}", f.id);
        }
    }

    #[test]
    fn figures_runs_one_figure_and_rejects_unknown_ids() {
        let out = run("figures --quick --only fig4").unwrap();
        assert!(out.starts_with("# ==== fig4 ===="), "{out}");
        assert!(
            out.contains("| fig4-p3 |") && !out.contains("| fig5-"),
            "{out}"
        );
        let err = run("figures --only fig99").unwrap_err();
        assert!(err.to_string().contains("fig99"), "{err}");
    }

    #[test]
    fn models_table_has_all_models() {
        let t = run("models").unwrap();
        for m in ["ResNet-50", "VGG-19", "Sockeye", "Transformer"] {
            assert!(t.contains(m), "missing {m}");
        }
        assert!(t.contains("71.5%"), "VGG heaviest share missing:\n{t}");
    }

    #[test]
    fn plan_reports_keys() {
        let out = run("plan --model vgg19 --strategy p3 --servers 4").unwrap();
        assert!(out.contains("keys:"));
        assert!(out.contains("143667240"));
    }

    #[test]
    fn simulate_runs_small() {
        let out = run("simulate --model resnet50 --strategy p3 --machines 2 --gbps 20 --iters 2")
            .unwrap();
        assert!(out.contains("throughput:"), "{out}");
    }

    #[test]
    fn train_runs_small() {
        let out = run("train --mode full --epochs 2 --workers 2").unwrap();
        assert!(out.contains("final accuracy:"), "{out}");
    }

    #[test]
    fn unknown_command_and_names_error() {
        assert!(matches!(
            run("frobnicate"),
            Err(CliError::UnknownCommand(_))
        ));
        assert!(matches!(
            run("plan --model resnet9000"),
            Err(CliError::UnknownName { kind: "model", .. })
        ));
        assert!(matches!(
            run("simulate --model vgg19 --strategy warp"),
            Err(CliError::UnknownName {
                kind: "strategy",
                ..
            })
        ));
        let msg = run("plan").unwrap_err().to_string();
        assert!(msg.contains("--model"), "{msg}");
    }

    #[test]
    fn simulate_with_ring_backend_audits_clean() {
        let out = run(
            "simulate --model resnet50 --machines 2 --gbps 20 --iters 2 \
             --backend ring --slice-params 2000000 --audit",
        )
        .unwrap();
        assert!(out.contains("backend: ring"), "{out}");
        assert!(out.contains("collective chunks:"), "{out}");
        assert!(out.contains("audit: clean"), "{out}");
    }

    #[test]
    fn simulate_rejects_bad_slice_params() {
        assert!(matches!(
            run("simulate --model resnet50 --slice-params 0"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn simulate_rejects_bad_backend() {
        assert!(matches!(
            run("simulate --model resnet50 --backend gossip"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // Halving–doubling needs a power-of-two cluster: the simulator's
        // validation error surfaces, not a panic.
        assert!(matches!(
            run("simulate --model resnet50 --machines 3 --backend halving-doubling"),
            Err(CliError::Sim(_))
        ));
    }

    #[test]
    fn simulate_with_faults_reports_counters() {
        let out = run(
            "simulate --model resnet50 --machines 2 --gbps 20 --iters 2 \
             --loss 0.02 --straggler 1:0:100:2.5",
        )
        .unwrap();
        assert!(out.contains("throughput:"), "{out}");
        assert!(out.contains("p99:"), "{out}");
        assert!(out.contains("faults:"), "{out}");
    }

    /// Asserts that `simulate` refuses the fault flags `flags` with an
    /// argument error naming the field `field`.
    fn assert_field_refused(flags: &str, field: &str) {
        match run(&format!("simulate --model resnet50 --machines 2 {flags}")) {
            Err(CliError::Args(ArgError::BadValue { expected, .. })) => {
                assert!(
                    expected.contains(&format!(" with {field} ")),
                    "{flags}: {expected}"
                );
            }
            other => panic!("{flags}: {other:?}"),
        }
    }

    /// Asserts that `simulate` refuses the fault plan of `flags` as one
    /// that runs past the end of simulated time.
    fn assert_plan_refused(flags: &str) {
        let err = run(&format!("simulate --model resnet50 --machines 2 {flags}"));
        let refused = matches!(err, Err(CliError::Sim(ref why)) if why.contains("past the clock"));
        assert!(refused, "{flags}: {err:?}");
    }

    #[test]
    fn negative_or_non_finite_fault_times_are_refused() {
        assert_field_refused("--straggler 0:-1:1:2", "START");
        assert_field_refused("--straggler 0:0:nan:2", "DUR");
        assert_field_refused("--crash 1:0.05:-3", "REJOIN");
        assert_field_refused("--crash 1:inf", "AT");
    }

    #[test]
    fn fault_times_past_the_clock_are_refused() {
        assert_field_refused("--degrade 0:0.01:1e300:0.5", "DUR");
        assert_plan_refused("--straggler 0:1.8e10:1e10:2");
        assert_plan_refused("--degrade 0:1.8e10:1e10:0.5");
        assert_plan_refused("--crash 1:1.8e10:1e10");
    }

    #[test]
    fn slowdowns_that_overflow_a_compute_block_are_refused() {
        assert_field_refused("--straggler 0:0:1:inf", "SLOWDOWN");
        assert_field_refused("--degrade 0:0:1:nan", "FACTOR");
        assert_plan_refused("--straggler 0:0:1:1e300");
    }

    #[test]
    fn fault_indices_that_are_not_machine_indices_are_refused() {
        assert_field_refused("--straggler 1.5:0:1:2", "W");
        assert_field_refused("--crash -1:0.5", "W");
        assert_field_refused("--degrade -1:0:1:0.5", "M");
    }

    #[test]
    fn bad_fault_specs_error() {
        assert!(matches!(
            run("simulate --model resnet50 --straggler nope"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            run("simulate --model resnet50 --crash 0:1:2:3"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // Structurally valid but semantically invalid: surfaces the
        // simulator's validation error instead of panicking.
        assert!(matches!(
            run("simulate --model resnet50 --machines 2 --loss 2.0"),
            Err(CliError::Sim(_))
        ));
    }

    #[test]
    fn simulate_reports_per_worker_stall() {
        let out = run("simulate --model resnet50 --strategy p3 --machines 2 --gbps 20 --iters 2")
            .unwrap();
        assert!(out.contains("stall per worker: ["), "{out}");
    }

    #[test]
    fn simulate_writes_trace_and_metrics_files() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("p3_cli_trace_{}.json", std::process::id()));
        let metrics = dir.join(format!("p3_cli_metrics_{}.json", std::process::id()));
        let line = format!(
            "simulate --model resnet50 --machines 2 --gbps 20 --iters 2 \
             --trace-out {} --metrics-out {}",
            trace.display(),
            metrics.display()
        );
        let out = run(&line).unwrap();
        assert!(out.contains("chrome trace written:"), "{out}");
        assert!(out.contains("metrics written:"), "{out}");

        let doc = std::fs::read_to_string(&trace).unwrap();
        let spans = p3_trace::validate_chrome_trace(&doc).expect("schema-valid trace");
        assert!(!spans.is_empty(), "trace has no complete spans");

        let mdoc = std::fs::read_to_string(&metrics).unwrap();
        assert!(mdoc.contains("\"counters\""), "{mdoc}");
        assert!(mdoc.contains("enqueue_push"), "{mdoc}");

        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn timeline_renders_a_gantt() {
        let out = run("timeline --model resnet50 --machines 2 --gbps 20 --iters 1").unwrap();
        assert!(out.contains("w0 compute"), "{out}");
        assert!(out.contains('#'), "{out}");
    }

    /// Out-of-range cluster sizes and bandwidths are argument errors — not
    /// engine panics, and not a zero-bandwidth run reported as deadlocked.
    fn assert_rejects_out_of_range(command: &str) {
        for bad in [
            "--machines 0",
            "--machines 129",
            "--machines 1000000000000",
            "--gbps -1",
            "--gbps 0",
            "--gbps inf",
        ] {
            let line = format!("{command} --model resnet50 {bad}");
            assert!(
                matches!(run(&line), Err(CliError::Args(ArgError::BadValue { .. }))),
                "{line}"
            );
        }
    }

    #[test]
    fn simulate_rejects_out_of_range_machines_and_gbps() {
        assert_rejects_out_of_range("simulate");
        assert_rejects_oversized_topology("simulate");
    }

    /// A topology with more machines than the engine simulates is refused
    /// before anything is sized per machine.
    fn assert_rejects_oversized_topology(command: &str) {
        for spec in ["racks=2,size=65", "racks=1000000,size=1000000"] {
            let line = format!("{command} --model resnet50 --topology {spec}");
            let err = run(&line).unwrap_err();
            assert!(err.to_string().contains("machines"), "{line}: {err}");
        }
    }

    #[test]
    fn sweep_rejects_bandwidths_that_share_a_row() {
        let path = std::env::temp_dir().join(format!("p3-sweep-twins-{}.txt", std::process::id()));
        let out = path.display().to_string();
        for cmd in [
            format!("sweep --model resnet50 --machines 2 --gbps 1,1.04 --measure 1 --out {out}"),
            "sweep --model resnet50 --machines 2 --gbps 2,1,2 --measure 1".to_string(),
        ] {
            let err = run(&cmd).unwrap_err();
            assert!(
                matches!(err, CliError::Args(ArgError::BadValue { .. })),
                "{cmd}: {err}"
            );
            let msg = err.to_string();
            assert!(msg.contains("1,1.04") || msg.contains("2,2"), "{msg}");
        }
        assert!(
            !path.exists(),
            "a rejected sweep must not write its --out file"
        );
    }

    #[test]
    fn sweep_rejects_out_of_range_machines_and_gbps() {
        assert_rejects_out_of_range("sweep");
        assert_rejects_oversized_topology("sweep");
        assert!(matches!(
            run("sweep --model resnet50 --gbps 4,-2"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn timeline_rejects_out_of_range_machines_and_gbps() {
        assert_rejects_out_of_range("timeline");
    }

    #[test]
    fn timeline_rejects_zero_width() {
        for bad in [
            "--width 0",
            "--width 4097",
            "--width 1000000000000000",
            "--iters 18446744073709551615",
            "--iters 129",
        ] {
            let line = format!("timeline --model resnet50 --machines 2 {bad}");
            assert!(
                matches!(run(&line), Err(CliError::Args(ArgError::BadValue { .. }))),
                "{line}"
            );
        }
    }

    /// Inputs that sized an allocation past memory, or left a worker
    /// without data, are refused before anything runs, naming their flag.
    #[test]
    fn oversized_inputs_are_refused_naming_their_flag() {
        for (line, named) in [
            ("plan --model resnet50 --servers 100000000000", "servers"),
            ("plan --model resnet50 --servers 129", "servers"),
            ("train --workers 2401 --epochs 1", "workers"),
            ("train --workers 1000000000 --epochs 1", "workers"),
            (
                "simulate --model resnet50 --machines 2 --slice-params 1 --iters 1",
                "slice-params",
            ),
            (
                "simulate --model resnet50 --machines 2 --slice-params 999 --iters 1",
                "slice-params",
            ),
            (
                "timeline --model resnet50 --machines 2 --iters 1000000000",
                "iters",
            ),
            ("timeline --model vgg19 --machines 128 --iters 3", "iters"),
        ] {
            match run(line) {
                Err(CliError::Args(ArgError::BadValue { flag, .. })) => {
                    assert_eq!(flag, named, "{line}");
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    /// A placement puts shards relative to racks, so it needs a topology.
    #[test]
    fn placement_without_a_topology_is_refused() {
        for command in ["simulate", "sweep"] {
            let line = format!("{command} --model resnet50 --machines 2 --placement rack-local");
            match run(&line) {
                Err(CliError::Args(ArgError::BadValue { flag, .. })) => {
                    assert_eq!(flag, "placement", "{line}");
                }
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn simulate_with_topology_reports_link_utilization() {
        let out = run("simulate --model resnet50 --gbps 20 --iters 2 \
             --topology racks=2,size=2,oversub=4")
        .unwrap();
        assert!(out.contains("link utilization:"), "{out}");
        assert!(out.contains("m0.tx"), "{out}");
        assert!(out.contains("(core)"), "{out}");
    }

    #[test]
    fn simulate_without_topology_has_no_link_section() {
        let out = run("simulate --model resnet50 --machines 2 --gbps 20 --iters 2").unwrap();
        assert!(!out.contains("link utilization:"), "{out}");
    }

    #[test]
    fn topology_machine_conflict_and_bad_specs_error() {
        let msg = run("simulate --model resnet50 --machines 8 --topology racks=2,size=2")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("conflicts with the topology"), "{msg}");
        assert!(matches!(
            run("simulate --model resnet50 --topology racks=two"),
            Err(CliError::Sim(_))
        ));
        assert!(matches!(
            run("simulate --model resnet50 --topology racks=2,size=2 --placement sideways"),
            Err(CliError::UnknownName {
                kind: "placement",
                ..
            })
        ));
    }

    #[test]
    fn simulate_accepts_iteration_flags() {
        let out = run("simulate --model resnet50 --machines 2 --gbps 20 \
             --warmup 0 --measure 2 --seed 7")
        .unwrap();
        assert!(out.contains("throughput:"), "{out}");
        assert!(matches!(
            run("simulate --model resnet50 --machines 2 --measure 0"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn sweep_over_topology_is_deterministic() {
        let line = "sweep --model resnet50 --gbps 16 \
                    --topology racks=2,size=2,oversub=4 --measure 2 --seed 9";
        let a = run(line).unwrap();
        let b = run(line).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("Baseline"), "{a}");
    }

    #[test]
    fn sweep_accepts_iteration_flags() {
        let out =
            run("sweep --model resnet50 --machines 2 --gbps 16 --measure 1 --seed 3").unwrap();
        assert!(out.contains("16.0"), "{out}");
        assert!(matches!(
            run("sweep --model resnet50 --machines 2 --measure 0"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn help_lists_topology_flags() {
        let h = run("help").unwrap();
        for flag in [
            "--topology",
            "--placement",
            "--warmup",
            "--measure",
            "--seed",
        ] {
            assert!(h.contains(flag), "help missing {flag}");
        }
    }

    /// Pulls the `event hash: 0x…` line out of a simulate report.
    fn event_hash_line(out: &str) -> &str {
        out.lines()
            .find(|l| l.starts_with("event hash:"))
            .expect("simulate reports its event hash")
    }

    #[test]
    fn snapshot_then_resume_matches_full_run_digest() {
        let dir = std::env::temp_dir();
        // 2 warmup + 4 measured = 6 iterations. Every 1, the latest
        // snapshot is the final boundary; every 4, boundary 8 lies past the
        // end, so the file keeps the iteration-4 snapshot.
        let base = "simulate --model resnet50 --machines 2 --gbps 20 --iters 4";
        let full = run(base).unwrap();
        for (every, latest) in [(1, 6), (4, 4)] {
            let snap = dir.join(format!("p3_cli_snap{every}_{}.bin", std::process::id()));
            let snapped = run(&format!(
                "{base} --snapshot-every {every} --snapshot-out {}",
                snap.display()
            ))
            .unwrap();
            assert!(
                snapped.contains(&format!("(iteration {latest})")),
                "{snapped}"
            );
            assert_eq!(event_hash_line(&full), event_hash_line(&snapped));
            let resumed = run(&format!("{base} --resume-from {}", snap.display())).unwrap();
            assert!(resumed.contains("resumed from:"), "{resumed}");
            // The rolling hash survives the snapshot, so the resumed run's
            // final digest equals the uninterrupted run's.
            assert_eq!(event_hash_line(&full), event_hash_line(&resumed));
            let _ = std::fs::remove_file(&snap);
        }
    }

    #[test]
    fn resume_from_corrupt_file_is_a_structured_error() {
        let dir = std::env::temp_dir();
        let snap = dir.join(format!("p3_cli_badsnap_{}.bin", std::process::id()));
        std::fs::write(&snap, b"this is not a snapshot").unwrap();
        let msg = run(&format!(
            "simulate --model resnet50 --machines 2 --resume-from {}",
            snap.display()
        ))
        .unwrap_err()
        .to_string();
        assert!(msg.contains("snapshot"), "{msg}");
        let _ = std::fs::remove_file(&snap);
    }

    #[test]
    fn snapshot_flag_validation_errors() {
        assert!(matches!(
            run("simulate --model resnet50 --snapshot-every 2"),
            Err(CliError::Args(ArgError::MissingFlag("snapshot-out")))
        ));
        let msg = run("simulate --model resnet50 --resume-from x.bin --audit")
            .unwrap_err()
            .to_string();
        assert!(msg.contains("--resume-from"), "{msg}");
    }

    #[test]
    fn ring_backend_with_crash_completes_and_audits_clean() {
        // Before the degraded-group reform this configuration was rejected
        // at validation; now the collective reforms over the survivors.
        let out = run(
            "simulate --model resnet50 --machines 2 --gbps 20 --iters 3 \
             --backend ring --slice-params 2000000 --crash 1:0.2:0.3 --audit",
        )
        .unwrap();
        assert!(out.contains("backend: ring"), "{out}");
        assert!(out.contains("collectives aborted"), "{out}");
        assert!(out.contains("audit: clean"), "{out}");
    }

    #[test]
    fn sweep_out_streams_rows_and_resume_reuses_them() {
        let dir = std::env::temp_dir();
        let res = dir.join(format!("p3_cli_sweep_{}.txt", std::process::id()));
        let line = format!(
            "sweep --model resnet50 --machines 2 --gbps 8,16 --measure 1 --seed 3 --out {}",
            res.display()
        );
        let fresh = run(&line).unwrap();
        assert!(fresh.contains("results file:"), "{fresh}");
        let doc = std::fs::read_to_string(&res).unwrap();
        assert_eq!(doc.lines().count(), 2, "{doc}");
        let resumed = run(&format!("{line} --resume")).unwrap();
        assert!(resumed.contains("resumed: 2 row(s) reused"), "{resumed}");
        // Reused rows render identically to freshly computed ones.
        for l in doc.lines() {
            assert!(fresh.contains(l), "{fresh}");
            assert!(resumed.contains(l), "{resumed}");
        }
        let _ = std::fs::remove_file(&res);
    }

    #[test]
    fn sweep_resume_requires_out() {
        assert!(matches!(
            run("sweep --model resnet50 --resume"),
            Err(CliError::Args(ArgError::MissingFlag("out")))
        ));
    }

    #[test]
    fn metrics_file_carries_link_gauges_under_topology() {
        let dir = std::env::temp_dir();
        let metrics = dir.join(format!("p3_cli_topo_metrics_{}.json", std::process::id()));
        let line = format!(
            "simulate --model resnet50 --gbps 20 --iters 2 \
             --topology racks=2,size=2,oversub=4 --metrics-out {}",
            metrics.display()
        );
        let out = run(&line).unwrap();
        assert!(out.contains("metrics written:"), "{out}");
        let mdoc = std::fs::read_to_string(&metrics).unwrap();
        assert!(mdoc.contains("link_busy_rack0.up"), "{mdoc}");
        let _ = std::fs::remove_file(&metrics);
    }

    /// Asserts that `line` fails naming `flag` as unknown, before running
    /// anything.
    fn assert_unknown_flag(line: &str, flag: &str) {
        let err = run(line).unwrap_err();
        assert_eq!(
            err,
            CliError::Args(ArgError::UnknownFlag(flag.into())),
            "{line}"
        );
        assert!(
            err.to_string().contains(&format!("unknown flag --{flag}")),
            "{err}"
        );
    }

    #[test]
    fn help_rejects_unknown_flags() {
        assert_unknown_flag("help --verbose", "verbose");
    }

    #[test]
    fn models_rejects_unknown_flags() {
        assert_unknown_flag("models --all", "all");
    }

    #[test]
    fn plan_rejects_unknown_flags() {
        assert_unknown_flag("plan --model vgg19 --sevrers 2", "sevrers");
    }

    #[test]
    fn simulate_rejects_unknown_flags_before_writing() {
        let trace = std::env::temp_dir().join(format!("p3_cli_gpbs_{}.json", std::process::id()));
        assert_unknown_flag(
            &format!(
                "simulate --model resnet50 --machines 2 --iters 1 --gpbs 25 --trace-out {}",
                trace.display()
            ),
            "gpbs",
        );
        assert!(!trace.exists(), "a rejected run must not write its trace");
    }

    #[test]
    fn timeline_rejects_unknown_flags() {
        assert_unknown_flag("timeline --model resnet50 --machines 2 --widht 40", "widht");
    }

    #[test]
    fn sweep_rejects_unknown_flags_before_writing() {
        let path =
            std::env::temp_dir().join(format!("p3_cli_sweep_typo_{}.txt", std::process::id()));
        assert_unknown_flag(
            &format!(
                "sweep --model resnet50 --machines 2 --gbps 16 --measure 1 --job 2 --out {}",
                path.display()
            ),
            "job",
        );
        assert!(
            !path.exists(),
            "a rejected sweep must not write its --out file"
        );
    }

    #[test]
    fn train_rejects_unknown_flags() {
        assert_unknown_flag("train --epochs 1 --wrokers 2", "wrokers");
    }

    #[test]
    fn audit_rejects_unknown_flags() {
        assert_unknown_flag("audit run.json --strict", "strict");
    }

    #[test]
    fn figures_rejects_unknown_flags() {
        assert_unknown_flag("figures --quick --onyl fig4", "onyl");
    }

    #[test]
    fn plan_rejects_zero_servers() {
        assert!(matches!(
            run("plan --model vgg19 --servers 0"),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    fn assert_train_rejects(bad: &str, flag: &str) {
        let err = run(&format!("train --epochs 1 --workers 2 {bad}")).unwrap_err();
        assert!(
            matches!(err, CliError::Args(ArgError::BadValue { flag: ref f, .. }) if f == flag),
            "{bad}: {err}"
        );
    }

    #[test]
    fn train_rejects_zero_workers() {
        assert_train_rejects("--workers 0", "workers");
    }

    #[test]
    fn train_rejects_zero_epochs() {
        assert_train_rejects("--epochs 0", "epochs");
    }

    #[test]
    fn train_rejects_zero_lr() {
        assert_train_rejects("--lr 0", "lr");
    }

    #[test]
    fn train_rejects_nan_lr() {
        assert_train_rejects("--lr nan", "lr");
    }

    #[test]
    fn simulate_rejects_an_overflowing_warmup() {
        let err = run("simulate --model resnet50 --machines 2 --iters 1 \
             --warmup 18446744073709551615")
        .unwrap_err();
        assert!(
            matches!(err, CliError::Sim(ref why) if why.contains("overflows")),
            "{err}"
        );
    }

    #[test]
    fn sweep_output_does_not_depend_on_jobs() {
        let path =
            std::env::temp_dir().join(format!("p3_cli_sweep_jobs_{}.txt", std::process::id()));
        let line = format!(
            "sweep --model resnet50 --machines 2 --gbps 1,2,4 --measure 1 --out {}",
            path.display()
        );
        let mut runs = Vec::new();
        for jobs in [3, 1] {
            let _ = std::fs::remove_file(&path);
            let out = run(&format!("{line} --jobs {jobs}")).unwrap();
            runs.push((out, std::fs::read_to_string(&path).unwrap()));
        }
        let _ = std::fs::remove_file(&path);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0].1.lines().count(), 3, "{}", runs[0].1);
    }
}
