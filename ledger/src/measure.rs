//! The closed loop that produces the end-to-end metrics: reps of a
//! workload run back to back, each starting when the previous one ends,
//! until the time budget is spent. Every run is checked; failures are
//! counted against attempts instead of aborting the loop. Measurements
//! are CPU seconds of this thread, and the end-to-end metrics put them on
//! the reference host's speed (see [`crate::clock`]); only the budget is
//! wall-clock.

use crate::clock::{CpuTimer, SpeedProbe};
use crate::observe;
use crate::report::Value;
use crate::spec::{fold_digest, Pin, Workload, END_TO_END};
use crate::stats::{highest_tail_percentile, iqr_frac, median, percentile};
use p3_cluster::{ClusterConfig, ClusterSim};
use std::hint::black_box;
use std::time::Instant;

/// Set-up-only constructions of each run's configuration, made right
/// after the run. They give `setup_s` many samples spread over the whole
/// invocation, so its median does not hang on the host's state at one
/// instant.
pub const SETUP_SAMPLES: usize = 16;

/// Speed probe passes after each rep.
pub const PROBE_SAMPLES: usize = 4;

/// Reps an invocation measures at least, whatever the budget.
pub const MIN_REPS: usize = 3;

/// Attempted and failed operations. A failure is printed to stderr and
/// counted; the benchmark keeps measuring.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`; returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("p3-ledger: failed: {}", what());
        }
        ok
    }

    /// Counts one operation, failed if `result` is an error; returns the
    /// value on success.
    pub fn ok<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// The generated inputs of one workload invocation.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Runs of one rep, in order.
    pub configs: Vec<ClusterConfig>,
    /// Whether each run goes through the audit/export/import pipeline.
    pub observed: bool,
    /// Untraced configuration the traced pass records and replays.
    pub observe_base: ClusterConfig,
    /// Expected rep result, when the inputs are the pinned ones.
    pub pin: Option<Pin>,
}

impl Inputs {
    /// The inputs of `workload` at `seed` and `machines`. The pin applies
    /// only at the nominal size and the default seed.
    pub fn new(workload: &Workload, seed: u64, machines: usize) -> Inputs {
        Inputs {
            configs: workload.configs_at(seed, machines),
            observed: workload.observed(),
            observe_base: workload.observe_base_at(seed, machines),
            pin: (seed == crate::spec::DEFAULT_SEED && machines == workload.machines)
                .then_some(workload.pin),
        }
    }
}

/// One rep of the closed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// CPU seconds of the rep's runs: set-up, simulation and, for an
    /// observed workload, the observation pipeline.
    pub cpu_s: f64,
    /// CPU seconds in `ClusterSim::new` plus the run itself, summed over
    /// the rep's runs (the rep without the observation pipeline).
    pub sim_s: f64,
    /// CPU seconds in `ClusterSim::new`, summed over the rep's runs.
    pub setup_s: f64,
    /// Engine events, summed over the rep's runs.
    pub events: u64,
}

/// What the closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Every rep, in order.
    pub reps: Vec<Rep>,
    /// CPU seconds per run, per rep.
    pub run_s: Vec<Vec<f64>>,
    /// Set-up samples, each one rep's worth of `ClusterSim::new` calls:
    /// every rep's own, and [`SETUP_SAMPLES`] set-up-only rounds per rep.
    pub setup_s: Vec<f64>,
    /// How much slower than the reference host this one ran, from
    /// [`PROBE_SAMPLES`] probe passes after each rep.
    pub slowdown: f64,
}

/// CPU seconds of one `ClusterSim::new` of `cfg`; the drop is not timed.
fn setup_once(cfg: &ClusterConfig) -> f64 {
    let cfg = cfg.clone();
    let t = CpuTimer::start();
    let sim = black_box(ClusterSim::new(cfg));
    let s = t.elapsed_s();
    drop(sim);
    s
}

/// Runs the closed loop for `seconds` of wall time (at least `min_reps`
/// reps).
pub fn run_loop(inputs: &Inputs, seconds: f64, min_reps: usize, tally: &mut Tally) -> Measured {
    // Warm the allocator: freeing one 16 MiB block raises glibc's dynamic
    // mmap and trim thresholds, so later passes reuse resident pages
    // instead of faulting them in again. Without it most of `setup_s`
    // was page faults (3-5x the warm value) and varied between processes.
    drop(black_box(vec![0u8; 16 << 20]));
    let mut out = Measured::default();
    let mut probe = SpeedProbe::default();
    let mut expected = inputs.pin;
    let start = Instant::now();
    loop {
        let rep_start = Instant::now();
        let mut rep = Rep::default();
        let mut rounds = [0.0; SETUP_SAMPLES];
        let mut run_s = Vec::with_capacity(inputs.configs.len());
        let mut hashes = Vec::with_capacity(inputs.configs.len());
        for cfg in &inputs.configs {
            let meta = inputs.observed.then(|| cfg.trace_meta());
            let owned = cfg.clone();
            let t = CpuTimer::start();
            let sim = ClusterSim::new(owned);
            let setup = t.elapsed_s();
            let result = sim.try_run_traced();
            let sim_s = t.elapsed_s();
            if let Some((r, log)) = tally.ok("run error", result) {
                if let Some(meta) = &meta {
                    observe::pipeline(log, meta, false, tally);
                }
                rep.events += r.events;
                hashes.push(r.event_hash);
            }
            let run = t.elapsed_s();
            rep.setup_s += setup;
            rep.sim_s += sim_s;
            rep.cpu_s += run;
            run_s.push(run);
            for round in &mut rounds {
                *round += setup_once(cfg);
            }
        }
        let got = Pin {
            events: rep.events,
            digest: fold_digest(&hashes),
        };
        let complete = hashes.len() == inputs.configs.len();
        let want = *expected.get_or_insert(got);
        tally.check(complete && got == want, || {
            format!(
                "rep {} digest {} events / {:#018x}, expected {} / {:#018x}",
                out.reps.len(),
                got.events,
                got.digest,
                want.events,
                want.digest
            )
        });
        out.setup_s.push(rep.setup_s);
        out.setup_s.extend(rounds);
        out.run_s.push(run_s);
        out.reps.push(rep);
        probe.sample(PROBE_SAMPLES);
        out.slowdown = probe.slowdown();
        let rep_wall = rep_start.elapsed().as_secs_f64();
        if out.reps.len() >= min_reps && start.elapsed().as_secs_f64() + rep_wall > seconds {
            return out;
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Measured {
    /// Median CPU seconds of the rep's simulations (no pipeline).
    pub fn sim_s_median(&self) -> f64 {
        median(&self.reps.iter().map(|r| r.sim_s).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    fn pooled_run_s(&self) -> Vec<f64> {
        self.run_s.iter().flatten().copied().collect()
    }

    /// The run-time tail: the highest percentile with at least ten runs
    /// beyond it, its value in seconds at the reference speed, and the run
    /// count. `None` below 20 runs, where no tail is measured.
    pub fn run_tail(&self) -> Option<(u32, f64, usize)> {
        let pooled = self.pooled_run_s();
        let p = highest_tail_percentile(pooled.len())?;
        Some((p, percentile(&pooled, p)? / self.slowdown, pooled.len()))
    }

    /// The end-to-end metrics, in [`END_TO_END`] order. Times are CPU
    /// seconds divided by the invocation's slowdown.
    pub fn end_to_end(&self) -> Vec<Value> {
        let k = self.slowdown;
        let reps: Vec<f64> = self.reps.iter().map(|r| r.cpu_s / k).collect();
        let rates: Vec<f64> = self
            .reps
            .iter()
            .zip(&reps)
            .map(|(r, s)| r.events as f64 / s)
            .collect();
        let pooled: Vec<f64> = self.pooled_run_s().iter().map(|s| s / k).collect();
        let setup: Vec<f64> = self.setup_s.iter().map(|s| s / k).collect();
        // The run-time median is taken over every run of the invocation;
        // its spread is that of the per-rep medians, which is noise rather
        // than the mix of run configurations.
        let per_rep: Vec<f64> = self.run_s.iter().filter_map(|r| median(r)).collect();
        let sampled = |xs: &[f64]| (median(xs).unwrap_or(0.0), xs.len(), iqr_frac(xs));
        END_TO_END
            .iter()
            .map(|m| {
                let (value, n, spread) = match m.name {
                    "rep_s" => sampled(&reps),
                    "events_per_s" => sampled(&rates),
                    "run_s.p50" => (
                        median(&pooled).unwrap_or(0.0),
                        pooled.len(),
                        iqr_frac(&per_rep),
                    ),
                    "setup_s" => sampled(&setup),
                    "peak_rss_mb" => (peak_rss_mb(), 1, 0.0),
                    other => unreachable!("end-to-end metric {other} has no measurement"),
                };
                Value::of(m, value, n, spread)
            })
            .collect()
    }
}
