//! The versioned `TuneReport`: the search's byte-stable JSON artifact
//! and the human-readable recommended-config table.
//!
//! One member list, a walk over a [`p3_prof::Doc`], both writes and
//! reads it, so malformed input surfaces as structured [`ReportError`]s,
//! never a panic. The report deliberately contains **no wall-clock
//! values** — search cost appears as deterministic counters — because
//! byte-identity across repeated runs and across `--jobs` values is the
//! contract tests pin.

use crate::eval::Objectives;
use crate::search::{SearchCost, TuneOutcome, TuneSettings};
use p3_prof::{Doc, Layout, ReportError};

/// Version stamp of the [`TuneReport`] JSON schema.
pub const TUNE_FORMAT_VERSION: u64 = 1;

/// Discriminator value of the `"format"` member of a tune document.
const TUNE_FORMAT: &str = "p3-tune";

/// One frontier (or recommended) configuration in a cell's report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigEntry {
    /// Candidate key (`backend=...,slice=...,...`).
    pub candidate: String,
    /// Slice size.
    pub slice: u64,
    /// Priority policy name.
    pub policy: String,
    /// Backend name.
    pub backend: String,
    /// Collective channels.
    pub channels: u64,
    /// Placement name.
    pub placement: String,
    /// Measured objectives.
    pub objectives: Objectives,
    /// Whether the numbers come from a refinement run.
    pub refined: bool,
    /// Simulator events the scoring run dispatched.
    pub events: u64,
    /// Rolling event hash of the scoring run.
    pub event_hash: u64,
}

/// One cell in the report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellReport {
    /// Cell display name.
    pub name: String,
    /// Machines in the cell.
    pub machines: u64,
    /// Per-machine bandwidth, Gbit/s.
    pub gbps: f64,
    /// Fault class name.
    pub fault: String,
    /// Candidates evaluated.
    pub evaluated: u64,
    /// Of those, how many the engine rejected or failed.
    pub infeasible: u64,
    /// The Pareto frontier, fastest first.
    pub frontier: Vec<ConfigEntry>,
    /// The recommended configuration (the frontier head), if any
    /// candidate was feasible.
    pub recommended: Option<ConfigEntry>,
}

/// The whole tuning artifact written by `p3 tune --out`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneReport {
    /// Schema version ([`TUNE_FORMAT_VERSION`]).
    pub version: u64,
    /// Master seed of the search.
    pub seed: u64,
    /// Warmup iterations per run.
    pub warmup: u64,
    /// Measured iterations of screening runs.
    pub screen_measure: u64,
    /// Measured iterations of refinement runs.
    pub measure: u64,
    /// Genetic generations.
    pub generations: u64,
    /// Genetic population per cell.
    pub population: u64,
    /// Deterministic search-cost counters.
    pub cost: SearchCost,
    /// Per-cell results.
    pub cells: Vec<CellReport>,
}

impl TuneReport {
    /// Assembles the report from a finished search. (`jobs` is absent on
    /// purpose: the report must not depend on the thread count.)
    pub fn from_outcome(outcome: &TuneOutcome, settings: &TuneSettings) -> TuneReport {
        let cells = outcome
            .cells
            .iter()
            .map(|o| {
                let entry = |ei: usize| {
                    let e = &o.evaluations[ei];
                    let obj = e.objectives().copied().unwrap_or_default();
                    ConfigEntry {
                        candidate: e.candidate.key(),
                        slice: e.candidate.slice,
                        policy: e.candidate.policy.name().to_string(),
                        backend: e.candidate.backend.name().to_string(),
                        channels: e.candidate.channels as u64,
                        placement: e.candidate.placement.name().to_string(),
                        objectives: obj,
                        refined: e.refined,
                        events: e.events,
                        event_hash: e.event_hash,
                    }
                };
                CellReport {
                    name: o.cell.name(),
                    machines: o.cell.machines as u64,
                    gbps: o.cell.gbps,
                    fault: o.cell.fault.name().to_string(),
                    evaluated: o.evaluations.len() as u64,
                    infeasible: o.evaluations.iter().filter(|e| e.outcome.is_err()).count() as u64,
                    frontier: o.frontier.iter().map(|&ei| entry(ei)).collect(),
                    recommended: o.recommended.map(entry),
                }
            })
            .collect();
        TuneReport {
            version: TUNE_FORMAT_VERSION,
            seed: settings.seed,
            warmup: settings.params.warmup,
            screen_measure: settings.params.screen_measure,
            measure: settings.params.measure,
            generations: settings.generations,
            population: settings.population as u64,
            cost: outcome.cost,
            cells,
        }
    }

    /// The report's one member list, run by both `to_json` and
    /// `from_json`.
    fn walk(d: &mut Doc<'_>, r: &mut TuneReport) -> Result<(), ReportError> {
        d.header(TUNE_FORMAT, TUNE_FORMAT_VERSION, &mut r.version)?;
        d.u64("seed", &mut r.seed)?;
        d.u64("warmup", &mut r.warmup)?;
        d.u64("screen_measure", &mut r.screen_measure)?;
        d.u64("measure", &mut r.measure)?;
        d.u64("generations", &mut r.generations)?;
        d.u64("population", &mut r.population)?;
        d.obj("cost", Layout::Pretty, &mut r.cost, |d, c| {
            d.u64("screening_runs", &mut c.screening_runs)?;
            d.u64("refinement_runs", &mut c.refinement_runs)?;
            d.u64("warm_restores", &mut c.warm_restores)?;
            d.u64("warm_fallbacks", &mut c.warm_fallbacks)?;
            d.u64("cache_hits", &mut c.cache_hits)?;
            d.u64("infeasible", &mut c.infeasible)?;
            d.u64("sim_events", &mut c.sim_events)
        })?;
        d.list("cells", Layout::Pretty, &mut r.cells, |d, c| {
            d.str("name", &mut c.name)?;
            d.u64("machines", &mut c.machines)?;
            d.f64("gbps", &mut c.gbps)?;
            d.str("fault", &mut c.fault)?;
            d.u64("evaluated", &mut c.evaluated)?;
            d.u64("infeasible", &mut c.infeasible)?;
            d.list(
                "frontier",
                Layout::Inline,
                &mut c.frontier,
                ConfigEntry::walk,
            )?;
            d.opt(
                "recommended",
                Layout::Inline,
                &mut c.recommended,
                ConfigEntry::walk,
            )
        })
    }

    /// Serializes the report as pretty-printed JSON. Deterministic: equal
    /// reports produce equal bytes.
    pub fn to_json(&self) -> String {
        Doc::write(self, Self::walk)
    }

    /// Parses a report back from JSON. Never panics: every malformed
    /// input maps to a [`ReportError`].
    ///
    /// # Errors
    ///
    /// Any [`ReportError`]: not JSON, wrong schema, future version.
    pub fn from_json(text: &str) -> Result<TuneReport, ReportError> {
        Doc::read(text, Self::walk)
    }

    /// The human-readable recommended-config table `p3 tune` prints.
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>16} {:>10} {:>12} {:>3} {:>10} {:>10} {:>10} {:>10}\n",
            "Cell",
            "Backend",
            "Slice",
            "Policy",
            "Ch",
            "Place",
            "Iter(ms)",
            "Wire(MB)",
            "p99 stall"
        ));
        for c in &self.cells {
            match &c.recommended {
                Some(e) => out.push_str(&format!(
                    "{:<42} {:>16} {:>10} {:>12} {:>3} {:>10} {:>10.2} {:>10.1} {:>9.2}ms\n",
                    c.name,
                    e.backend,
                    e.slice,
                    e.policy,
                    e.channels,
                    e.placement,
                    e.objectives.iter_secs * 1e3,
                    e.objectives.wire_bytes as f64 / 1e6,
                    e.objectives.stall_p99_secs * 1e3,
                )),
                None => out.push_str(&format!("{:<42} {:>16}\n", c.name, "(no feasible config)")),
            }
        }
        out
    }
}

impl ConfigEntry {
    fn walk(d: &mut Doc<'_>, e: &mut ConfigEntry) -> Result<(), ReportError> {
        d.str("candidate", &mut e.candidate)?;
        d.u64("slice", &mut e.slice)?;
        d.str("policy", &mut e.policy)?;
        d.str("backend", &mut e.backend)?;
        d.u64("channels", &mut e.channels)?;
        d.str("placement", &mut e.placement)?;
        d.f64("iter_secs", &mut e.objectives.iter_secs)?;
        d.u64("wire_bytes", &mut e.objectives.wire_bytes)?;
        d.f64("stall_p99_secs", &mut e.objectives.stall_p99_secs)?;
        d.bool("refined", &mut e.refined)?;
        d.u64("events", &mut e.events)?;
        d.hex("event_hash", &mut e.event_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TuneReport {
        let entry = ConfigEntry {
            candidate: "backend=ps,slice=50000,policy=consumption,channels=4,placement=spread"
                .into(),
            slice: 50_000,
            policy: "consumption".into(),
            backend: "ps".into(),
            channels: 4,
            placement: "spread".into(),
            objectives: Objectives {
                iter_secs: 0.125,
                wire_bytes: 123_456_789,
                stall_p99_secs: 0.015,
            },
            refined: true,
            events: 42_000,
            event_hash: 0xDEAD_BEEF_1234_5678,
        };
        TuneReport {
            version: TUNE_FORMAT_VERSION,
            seed: 42,
            warmup: 2,
            screen_measure: 3,
            measure: 10,
            generations: 2,
            population: 8,
            cost: SearchCost {
                screening_runs: 24,
                refinement_runs: 3,
                warm_restores: 2,
                warm_fallbacks: 1,
                cache_hits: 5,
                infeasible: 1,
                sim_events: 1_000_000,
            },
            cells: vec![CellReport {
                name: "resnet50/m4/10gbps/flat/none".into(),
                machines: 4,
                gbps: 10.0,
                fault: "none".into(),
                evaluated: 24,
                infeasible: 1,
                frontier: vec![entry.clone()],
                recommended: Some(entry),
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let back = TuneReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn empty_frontier_round_trips() {
        let mut r = sample();
        r.cells[0].frontier.clear();
        r.cells[0].recommended = None;
        assert_eq!(TuneReport::from_json(&r.to_json()).expect("round trip"), r);
    }

    #[test]
    fn garbage_is_a_json_error() {
        assert!(matches!(
            TuneReport::from_json("nope"),
            Err(ReportError::Json(_))
        ));
    }

    #[test]
    fn wrong_format_is_a_schema_error() {
        assert!(matches!(
            TuneReport::from_json(r#"{"format": "p3-profile", "version": 1}"#),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn future_version_is_a_version_error() {
        assert!(matches!(
            TuneReport::from_json(r#"{"format": "p3-tune", "version": 99}"#),
            Err(ReportError::Version { found: 99, .. })
        ));
    }

    #[test]
    fn table_lists_recommended_configs() {
        let t = sample().table();
        assert!(t.contains("resnet50/m4/10gbps/flat/none"), "{t}");
        assert!(t.contains("50000"), "{t}");
    }
}
