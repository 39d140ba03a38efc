//! Evaluating one (cell, candidate) pair: the screening run that scores
//! every candidate, the warm-start refinement that confirms frontier
//! members without re-simulating their warmup, and the audit replay that
//! `--audit` runs over recommended configs.

use crate::space::{Candidate, Cell};
use p3_cluster::{ClusterConfig, ClusterSim, RunError, RunResult};
use p3_des::quantile;
use p3_net::Bandwidth;
use p3_trace::{TraceEvent, TraceLog};

/// Iteration-count knobs shared by every run the tuner launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalParams {
    /// Warmup iterations excluded from measurement — also the snapshot
    /// point the refinement stage warm-starts from.
    pub warmup: u64,
    /// Measured iterations of a screening run (short: every grid and
    /// genetic candidate pays this).
    pub screen_measure: u64,
    /// Measured iterations of a refinement run (longer: only Pareto
    /// frontier members pay this).
    pub measure: u64,
}

impl Default for EvalParams {
    fn default() -> Self {
        EvalParams {
            warmup: 2,
            screen_measure: 3,
            measure: 10,
        }
    }
}

/// The three objectives the Pareto frontier is computed over. Lower is
/// better on every axis.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Objectives {
    /// Mean measured iteration time, seconds.
    pub iter_secs: f64,
    /// Total bytes that crossed the wire during the screening run
    /// (warmup included — identical across candidates of a cell, so
    /// comparable).
    pub wire_bytes: u64,
    /// p99 of per-worker total stall time, seconds.
    pub stall_p99_secs: f64,
}

impl Objectives {
    /// Pareto dominance: at least as good on every axis, strictly better
    /// on at least one.
    pub fn dominates(&self, other: &Objectives) -> bool {
        let no_worse = self.iter_secs <= other.iter_secs
            && self.wire_bytes <= other.wire_bytes
            && self.stall_p99_secs <= other.stall_p99_secs;
        let better = self.iter_secs < other.iter_secs
            || self.wire_bytes < other.wire_bytes
            || self.stall_p99_secs < other.stall_p99_secs;
        no_worse && better
    }
}

/// One scored candidate within a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// The (normalized) candidate.
    pub candidate: Candidate,
    /// `Ok` with the measured objectives, or `Err` with the engine's
    /// rejection/failure reason (infeasible in this cell).
    pub outcome: Result<Objectives, String>,
    /// Whether the objectives come from a refinement run rather than the
    /// short screening run.
    pub refined: bool,
    /// Simulator events the run(s) dispatched — the deterministic search
    /// cost this candidate contributed.
    pub events: u64,
    /// Rolling event hash of the scoring run, a determinism breadcrumb.
    pub event_hash: u64,
}

impl Evaluation {
    /// The measured objectives, if the candidate was feasible.
    pub fn objectives(&self) -> Option<&Objectives> {
        self.outcome.as_ref().ok()
    }
}

/// Builds the screening configuration for a candidate in a cell. The
/// refinement stage restores snapshots against this exact configuration
/// (the snapshot codec fingerprints it), so **every** knob must be set
/// the same way here and nowhere else.
pub fn screening_config(
    cell: &Cell,
    cand: &Candidate,
    params: &EvalParams,
    seed: u64,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        cell.model.clone(),
        cand.strategy(),
        cell.machines,
        Bandwidth::from_gbps(cell.gbps),
    )
    .with_iters(params.warmup, params.screen_measure)
    .with_slice_trace()
    .with_seed(seed)
    .with_backend(cand.backend)
    .with_collective_channels(cand.channels)
    .with_faults(cell.fault.plan(cell.machines));
    if let Some(t) = &cell.topology {
        cfg = cfg.with_topology(t.clone()).with_placement(cand.placement);
    }
    cfg
}

/// What a screening run leaves behind: the scored evaluation plus the
/// warmup-boundary snapshot the refinement stage can warm-start from.
#[derive(Debug)]
pub struct Screened {
    /// The scored candidate.
    pub evaluation: Evaluation,
    /// Snapshot at the warmup boundary (absent when the run was
    /// infeasible or finished before the warmup floor was crossed).
    pub snapshot: Option<Vec<u8>>,
}

/// Runs the short screening simulation for one candidate and scores it.
/// Infeasible configurations (engine validation rejections, deadlocks,
/// event-cap blowups) are recorded in the evaluation, not propagated.
pub fn screen(cell: &Cell, cand: &Candidate, params: &EvalParams, seed: u64) -> Screened {
    let mut sim = ClusterSim::new(screening_config(cell, cand, params, seed));
    // Pause at the warmup boundary for the refinement stage's snapshot
    // (none when there is no warmup or the floor never reached it).
    let ran = sim.run_until(params.warmup).and_then(|floor| {
        let snapshot = (params.warmup > 0 && floor >= params.warmup).then(|| sim.snapshot());
        let (result, log) = sim.try_run_traced()?;
        Ok((result, log, snapshot))
    });
    match ran {
        Ok((result, log, snapshot)) => Screened {
            evaluation: Evaluation {
                candidate: cand.clone(),
                outcome: Ok(objectives_of(&result, log.as_ref())),
                refined: false,
                events: result.events,
                event_hash: result.event_hash,
            },
            snapshot,
        },
        Err(e) => Screened {
            evaluation: Evaluation {
                candidate: cand.clone(),
                outcome: Err(run_error_reason(&e)),
                refined: false,
                events: 0,
                event_hash: 0,
            },
            snapshot: None,
        },
    }
}

/// How a refinement run was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefinePath {
    /// Restored the screening run's warmup snapshot and extended the
    /// measurement window — skipped re-simulating the warmup prefix.
    WarmStart,
    /// No usable snapshot (or restore failed): simulated from scratch.
    /// Bit-identical to the warm-start path, just slower.
    Fresh,
}

/// Re-scores a (feasible) screening evaluation over the longer
/// `params.measure` window, warm-starting from `snapshot` when possible.
/// Only `iter_secs` and `stall_p99_secs` are re-measured; `wire_bytes`
/// keeps the screening value (every candidate paid the identical warmup,
/// so screening wire totals stay comparable — and a resumed run's trace
/// covers only the suffix).
pub fn refine(
    cell: &Cell,
    eval: &Evaluation,
    params: &EvalParams,
    seed: u64,
    snapshot: Option<&[u8]>,
) -> (Evaluation, RefinePath) {
    let Some(screen_obj) = eval.objectives().copied() else {
        return (eval.clone(), RefinePath::Fresh);
    };
    let cfg = screening_config(cell, &eval.candidate, params, seed);
    let (run, path) = match snapshot.and_then(|bytes| warm_run(cfg.clone(), bytes, params)) {
        Some(run) => (run, RefinePath::WarmStart),
        None => {
            let fresh = cfg.with_iters(params.warmup, params.measure);
            match ClusterSim::new(fresh).try_run_traced() {
                Ok((result, _log)) => (result, RefinePath::Fresh),
                Err(e) => {
                    // Screening succeeded but the longer run failed
                    // (e.g. event cap): surface it as infeasible.
                    let failed = Evaluation {
                        outcome: Err(run_error_reason(&e)),
                        refined: true,
                        ..eval.clone()
                    };
                    return (failed, RefinePath::Fresh);
                }
            }
        }
    };
    let refined = Evaluation {
        candidate: eval.candidate.clone(),
        outcome: Ok(Objectives {
            iter_secs: run.mean_iteration.as_secs_f64(),
            wire_bytes: screen_obj.wire_bytes,
            stall_p99_secs: stall_p99(&run),
        }),
        refined: true,
        events: run.events,
        event_hash: run.event_hash,
    };
    (refined, path)
}

/// Replays a candidate as a full fresh run with the inline audit enabled.
///
/// # Errors
///
/// The audit report (or any other run failure) as a string.
pub fn audit_replay(
    cell: &Cell,
    cand: &Candidate,
    params: &EvalParams,
    seed: u64,
) -> Result<(), String> {
    let cfg = screening_config(cell, cand, params, seed)
        .with_iters(params.warmup, params.measure)
        .with_audit();
    ClusterSim::new(cfg)
        .try_run_traced()
        .map(|_| ())
        .map_err(|e| run_error_reason(&e))
}

fn warm_run(cfg: ClusterConfig, bytes: &[u8], params: &EvalParams) -> Option<RunResult> {
    let mut sim = ClusterSim::restore(cfg, bytes).ok()?;
    sim.extend_measurement(params.measure).ok()?;
    sim.try_run_traced().ok().map(|(result, _log)| result)
}

fn objectives_of(result: &RunResult, log: Option<&TraceLog>) -> Objectives {
    let wire_bytes = log
        .map(|l| {
            l.events()
                .iter()
                .map(|t| match t.event {
                    TraceEvent::WireEnd { bytes, .. } => bytes,
                    _ => 0,
                })
                .sum()
        })
        .unwrap_or(0);
    Objectives {
        iter_secs: result.mean_iteration.as_secs_f64(),
        wire_bytes,
        stall_p99_secs: stall_p99(result),
    }
}

fn stall_p99(result: &RunResult) -> f64 {
    let stalls: Vec<f64> = result
        .stalled_per_worker
        .iter()
        .map(|d| d.as_secs_f64())
        .collect();
    quantile(&stalls, 0.99).unwrap_or(0.0)
}

fn run_error_reason(e: &RunError) -> String {
    format!("{e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FaultClass, PriorityPolicy};
    use p3_cluster::BackendKind;
    use p3_models::ModelSpec;
    use p3_topo::Placement;

    fn tiny_cell() -> Cell {
        Cell {
            model: ModelSpec::alexnet(),
            machines: 3,
            gbps: 10.0,
            topology: None,
            fault: FaultClass::None,
        }
    }

    fn cand(backend: BackendKind) -> Candidate {
        Candidate {
            slice: 2_000_000,
            policy: PriorityPolicy::Consumption,
            backend,
            channels: 4,
            placement: Placement::Spread,
        }
    }

    #[test]
    fn screening_scores_and_snapshots() {
        let params = EvalParams {
            warmup: 1,
            screen_measure: 2,
            measure: 4,
        };
        let s = screen(&tiny_cell(), &cand(BackendKind::Ps), &params, 42);
        let obj = s.evaluation.objectives().expect("feasible");
        assert!(obj.iter_secs > 0.0);
        assert!(obj.wire_bytes > 0);
        assert!(s.snapshot.is_some(), "warmup snapshot captured");
    }

    #[test]
    fn warm_refinement_matches_fresh_run_exactly() {
        let params = EvalParams {
            warmup: 1,
            screen_measure: 2,
            measure: 5,
        };
        let cell = tiny_cell();
        let c = cand(BackendKind::Ps);
        let s = screen(&cell, &c, &params, 42);
        let snap = s.snapshot.as_deref().expect("snapshot");
        let (warm, path) = refine(&cell, &s.evaluation, &params, 42, Some(snap));
        assert_eq!(path, RefinePath::WarmStart);
        let (fresh, fresh_path) = refine(&cell, &s.evaluation, &params, 42, None);
        assert_eq!(fresh_path, RefinePath::Fresh);
        // The warm-start claim, pinned: sharing the warmup prefix changes
        // nothing — same result bits, same rolling event hash.
        assert_eq!(warm, fresh);
    }

    #[test]
    fn infeasible_configs_are_recorded_not_fatal() {
        let mut cell = tiny_cell();
        cell.machines = 3; // halving-doubling needs a power of two
        let s = screen(&cell, &cand(BackendKind::HalvingDoubling), &params(), 42);
        assert!(s.evaluation.outcome.is_err());
        assert!(s.snapshot.is_none());
    }

    fn params() -> EvalParams {
        EvalParams {
            warmup: 1,
            screen_measure: 2,
            measure: 4,
        }
    }

    #[test]
    fn audit_replay_is_clean_for_a_sane_config() {
        assert_eq!(
            audit_replay(&tiny_cell(), &cand(BackendKind::Ps), &params(), 42),
            Ok(())
        );
    }
}
