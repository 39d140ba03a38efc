//! `p3-ledger diff BASE.json CAND.json`: applies each end-to-end
//! metric's bound to every (metric, workload) row and names, for each
//! regressed workload, the per-layer metric that moved most.

use crate::report::{Outcome, Value};
use crate::spec::{Better, END_TO_END};
use std::fmt;

/// How a row compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the baseline by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse than the baseline by more than the bound, or a metric or
    /// workload went missing, or failures rose.
    Regressed,
    /// Either side's run-to-run spread is wider than the bound, so the
    /// difference cannot be told from noise.
    Unresolved,
}

/// One compared (metric, workload) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the workload is missing there).
    pub base: Option<f64>,
    /// Candidate value (`None` when missing there).
    pub cand: Option<f64>,
    /// Relative change, positive meaning worse.
    pub worse_by: f64,
    /// Classification.
    pub verdict: Verdict,
}

/// Compares one metric against its bound. `worse_by` is the relative
/// change in the metric's bad direction.
pub fn classify(better: Better, bound: f64, base: &Value, cand: &Value) -> (f64, Verdict) {
    let delta = match better {
        Better::Lower => cand.value - base.value,
        Better::Higher => base.value - cand.value,
    };
    let worse_by = if base.value == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / base.value.abs()
    };
    let verdict = if base.spread.max(cand.spread) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse_by, verdict)
}

/// The full comparison of two report files.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Every row, workload by workload.
    pub rows: Vec<Row>,
    /// For each regressed workload, the per-layer metric with the
    /// largest relative change and that change (`None` when the reports
    /// carry no per-layer table).
    pub culprits: Vec<(String, Option<(String, f64)>)>,
}

impl Diff {
    /// True when no row regressed.
    pub fn is_pass(&self) -> bool {
        self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }
}

/// The per-layer metric whose value moved most, relative to the base.
fn largest_layer_change(base: &Outcome, cand: &Outcome) -> Option<(String, f64)> {
    base.per_layer
        .iter()
        .filter_map(|b| {
            let c = cand.per_layer.iter().find(|c| c.name == b.name)?;
            (b.value != 0.0).then(|| (b.name.clone(), (c.value - b.value) / b.value.abs()))
        })
        .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
}

/// Compares every workload of `base` with the same workload in `cand`.
pub fn diff(base: &[Outcome], cand: &[Outcome]) -> Diff {
    let mut out = Diff::default();
    for b in base {
        let Some(c) = cand.iter().find(|c| c.workload == b.workload) else {
            out.rows.push(Row {
                workload: b.workload.clone(),
                metric: "(workload)".into(),
                base: None,
                cand: None,
                worse_by: 0.0,
                verdict: Verdict::Regressed,
            });
            continue;
        };
        let mut regressed = false;
        for m in END_TO_END {
            let Some(bv) = b.value(m.name) else { continue };
            let (worse_by, verdict) = match c.value(m.name) {
                Some(cv) => classify(m.better, m.bound.unwrap_or(0.0), bv, cv),
                None => (0.0, Verdict::Regressed),
            };
            regressed |= verdict == Verdict::Regressed;
            out.rows.push(Row {
                workload: b.workload.clone(),
                metric: m.name.into(),
                base: Some(bv.value),
                cand: c.value(m.name).map(|v| v.value),
                worse_by,
                verdict,
            });
        }
        // Any rise in the failure rate is a regression.
        let (fb, fc) = (b.failure_rate(), c.failure_rate());
        let verdict = if fc > fb {
            Verdict::Regressed
        } else if fc < fb {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        };
        regressed |= verdict == Verdict::Regressed;
        out.rows.push(Row {
            workload: b.workload.clone(),
            metric: "failure_rate".into(),
            base: Some(fb),
            cand: Some(fc),
            worse_by: fc - fb,
            verdict,
        });
        if regressed {
            out.culprits
                .push((b.workload.clone(), largest_layer_change(b, c)));
        }
    }
    out
}

impl fmt::Display for Diff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let show = |x: Option<f64>| x.map_or("-".to_string(), |v| format!("{v:.6}"));
        writeln!(
            f,
            "{:<18} {:<14} {:>16} {:>16} {:>9}  verdict",
            "workload", "metric", "base", "cand", "worse_by"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<18} {:<14} {:>16} {:>16} {:>+9.3}  {:?}",
                r.workload,
                r.metric,
                show(r.base),
                show(r.cand),
                r.worse_by,
                r.verdict
            )?;
        }
        for (w, culprit) in &self.culprits {
            match culprit {
                Some((m, change)) => writeln!(
                    f,
                    "{w} regressed; largest per-layer change: {m} ({change:+.3})"
                )?,
                None => writeln!(f, "{w} regressed; no per-layer table (run with --trace)")?,
            }
        }
        write!(f, "{}", if self.is_pass() { "PASS" } else { "FAIL" })
    }
}
