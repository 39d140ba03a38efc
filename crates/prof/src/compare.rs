//! The regression differ behind `p3 compare`: diff two [`BenchReport`]s
//! and classify every difference as a regression, an improvement, or
//! determinism drift.

use crate::bench::{BenchPoint, BenchReport};
use std::collections::BTreeMap;

/// Outcome of diffing a candidate bench report against a baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comparison {
    /// Number of points present in both reports.
    pub checked: usize,
    /// Failures: a nonempty list means the candidate regressed. Each
    /// entry is a human-readable, self-contained sentence.
    pub regressions: Vec<String>,
    /// Non-failing observations (improvements, new points).
    pub notes: Vec<String>,
}

impl Comparison {
    /// True when no regression was found.
    pub fn is_pass(&self) -> bool {
        self.regressions.is_empty()
    }
}

impl std::fmt::Display for Comparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "compared {} point(s)", self.checked)?;
        for n in &self.notes {
            writeln!(f, "  note: {n}")?;
        }
        for r in &self.regressions {
            writeln!(f, "  REGRESSION: {r}")?;
        }
        if self.is_pass() {
            writeln!(f, "PASS")?;
        } else {
            writeln!(f, "FAIL: {} regression(s)", self.regressions.len())?;
        }
        Ok(())
    }
}

/// Diffs `candidate` against `baseline`.
///
/// Points are matched by `(backend, machines)`. Deterministic fields
/// (`events`, `event_hash`, `peak_in_flight`, `throughput`,
/// `sim_seconds`) must match exactly — any drift there means the engine
/// changed behaviour, which no tolerance can excuse. Wall-clock
/// throughput (`events_per_sec`) may sink to `(1 - tolerance)` of the
/// baseline before it counts as a regression; `tolerance` is a fraction
/// in `[0, 1)`, e.g. `0.2` allows a 20% slowdown.
///
/// A baseline point missing from the candidate is a regression (coverage
/// shrank); a candidate point absent from the baseline is only a note.
///
/// # Panics
///
/// Panics if `tolerance` is not finite: a NaN band would pass every
/// wall-clock regression.
pub fn compare_reports(
    baseline: &BenchReport,
    candidate: &BenchReport,
    tolerance: f64,
) -> Comparison {
    assert!(tolerance.is_finite(), "non-finite tolerance {tolerance}");
    let tolerance = tolerance.clamp(0.0, 0.999_999);
    let by_key: BTreeMap<(String, u64), &BenchPoint> =
        candidate.points.iter().map(|p| (p.key(), p)).collect();
    let mut cmp = Comparison {
        checked: 0,
        regressions: Vec::new(),
        notes: Vec::new(),
    };
    for base in &baseline.points {
        let label = format!("{} @ {} machines", base.backend, base.machines);
        let Some(cand) = by_key.get(&base.key()) else {
            cmp.regressions.push(format!(
                "{label}: present in baseline, missing from candidate"
            ));
            continue;
        };
        cmp.checked += 1;
        let mut drift = |what: &str, a: String, b: String| {
            cmp.regressions.push(format!(
                "{label}: deterministic {what} drifted: baseline {a}, candidate {b}"
            ));
        };
        if cand.events != base.events {
            drift(
                "event count",
                base.events.to_string(),
                cand.events.to_string(),
            );
        }
        if cand.event_hash != base.event_hash {
            drift(
                "event hash",
                format!("{:#018x}", base.event_hash),
                format!("{:#018x}", cand.event_hash),
            );
        }
        if cand.peak_in_flight != base.peak_in_flight {
            drift(
                "peak in-flight flows",
                base.peak_in_flight.to_string(),
                cand.peak_in_flight.to_string(),
            );
        }
        if cand.sim_seconds != base.sim_seconds {
            drift(
                "sim duration",
                base.sim_seconds.to_string(),
                cand.sim_seconds.to_string(),
            );
        }
        if cand.throughput != base.throughput {
            drift(
                "throughput",
                base.throughput.to_string(),
                cand.throughput.to_string(),
            );
        }
        let floor = base.events_per_sec * (1.0 - tolerance);
        if cand.events_per_sec < floor {
            cmp.regressions.push(format!(
                "{label}: events/sec fell below tolerance: baseline {:.0}, candidate {:.0} \
                 (floor {:.0} at tolerance {tolerance})",
                base.events_per_sec, cand.events_per_sec, floor
            ));
        } else if cand.events_per_sec > base.events_per_sec * (1.0 + tolerance) {
            cmp.notes.push(format!(
                "{label}: events/sec improved: baseline {:.0}, candidate {:.0}",
                base.events_per_sec, cand.events_per_sec
            ));
        }
    }
    let baseline_keys: BTreeMap<(String, u64), ()> =
        baseline.points.iter().map(|p| (p.key(), ())).collect();
    for p in &candidate.points {
        if !baseline_keys.contains_key(&p.key()) {
            cmp.notes.push(format!(
                "{} @ {} machines: new point, not in baseline",
                p.backend, p.machines
            ));
        }
    }
    cmp
}

/// Like [`compare_reports`], but only checks baseline points whose
/// `(backend, machines)` key also appears in the candidate; the rest are
/// recorded as notes instead of missing-coverage regressions.
///
/// This is the mode for quick CI gates: the checked-in baseline carries
/// the full machine ladder, while a `p3 bench --quick` candidate only
/// re-measures the cheap rungs. Shrinking coverage is deliberate there,
/// so it must not read as a regression — everything the candidate *does*
/// cover is still held to the full exact-match + tolerance contract.
///
/// # Panics
///
/// Panics if `tolerance` is not finite, as [`compare_reports`] does.
pub fn compare_reports_subset(
    baseline: &BenchReport,
    candidate: &BenchReport,
    tolerance: f64,
) -> Comparison {
    let candidate_keys: BTreeMap<(String, u64), ()> =
        candidate.points.iter().map(|p| (p.key(), ())).collect();
    let mut skipped = Vec::new();
    let subset = BenchReport {
        version: baseline.version,
        points: baseline
            .points
            .iter()
            .filter(|p| {
                let keep = candidate_keys.contains_key(&p.key());
                if !keep {
                    skipped.push(format!(
                        "{} @ {} machines: baseline point skipped (not in candidate subset)",
                        p.backend, p.machines
                    ));
                }
                keep
            })
            .cloned()
            .collect(),
    };
    let mut cmp = compare_reports(&subset, candidate, tolerance);
    cmp.notes.extend(skipped);
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::BENCH_FORMAT_VERSION;

    fn point(backend: &str, machines: u64) -> BenchPoint {
        BenchPoint {
            backend: backend.to_string(),
            machines,
            events: 1000 * machines,
            event_hash: 0xdead_beef_0000_0000 | machines,
            sim_seconds: 1.5,
            peak_in_flight: 3 * machines,
            throughput: 100.0 * machines as f64,
            wall_seconds: 0.25,
            events_per_sec: 4000.0 * machines as f64,
        }
    }

    fn report(points: Vec<BenchPoint>) -> BenchReport {
        BenchReport {
            version: BENCH_FORMAT_VERSION,
            points,
        }
    }

    #[test]
    fn identical_reports_pass() {
        let a = report(vec![point("ps", 16), point("ring", 32)]);
        let cmp = compare_reports(&a, &a.clone(), 0.1);
        assert!(cmp.is_pass(), "{cmp}");
        assert_eq!(cmp.checked, 2);
    }

    #[test]
    fn slowdown_within_tolerance_passes() {
        let a = report(vec![point("ps", 16)]);
        let mut b = a.clone();
        b.points[0].events_per_sec *= 0.85;
        assert!(compare_reports(&a, &b, 0.2).is_pass());
    }

    #[test]
    fn slowdown_beyond_tolerance_fails() {
        let a = report(vec![point("ps", 16)]);
        let mut b = a.clone();
        b.points[0].events_per_sec *= 0.5;
        let cmp = compare_reports(&a, &b, 0.2);
        assert!(!cmp.is_pass());
        assert!(cmp.regressions[0].contains("events/sec"), "{cmp}");
    }

    #[test]
    fn determinism_drift_fails_regardless_of_tolerance() {
        let a = report(vec![point("ps", 16)]);
        let mut b = a.clone();
        b.points[0].event_hash ^= 1;
        let cmp = compare_reports(&a, &b, 0.999);
        assert!(!cmp.is_pass());
        assert!(cmp.regressions[0].contains("event hash"), "{cmp}");
    }

    #[test]
    fn missing_point_fails_new_point_notes() {
        let a = report(vec![point("ps", 16), point("ps", 32)]);
        let b = report(vec![point("ps", 16), point("ring", 16)]);
        let cmp = compare_reports(&a, &b, 0.1);
        assert_eq!(cmp.regressions.len(), 1);
        assert!(cmp.regressions[0].contains("missing"), "{cmp}");
        assert!(cmp.notes.iter().any(|n| n.contains("new point")), "{cmp}");
    }

    #[test]
    fn subset_mode_skips_uncovered_baseline_points_without_failing() {
        let a = report(vec![point("ps", 16), point("ps", 32), point("ps", 64)]);
        let b = report(vec![point("ps", 16), point("ps", 32)]);
        let cmp = compare_reports_subset(&a, &b, 0.1);
        assert!(cmp.is_pass(), "{cmp}");
        assert_eq!(cmp.checked, 2);
        assert!(cmp.notes.iter().any(|n| n.contains("skipped")), "{cmp}");
        // Covered points are still held to the exact-match contract.
        let mut c = b.clone();
        c.points[0].event_hash ^= 1;
        assert!(!compare_reports_subset(&a, &c, 0.1).is_pass());
    }

    #[test]
    #[should_panic(expected = "non-finite tolerance")]
    fn a_nan_tolerance_is_refused() {
        // A NaN band used to pass this halving of events/sec.
        let a = report(vec![point("ps", 16)]);
        let mut b = a.clone();
        b.points[0].events_per_sec *= 0.5;
        compare_reports_subset(&a, &b, f64::NAN);
    }

    #[test]
    fn speedup_is_a_note_not_a_failure() {
        let a = report(vec![point("ps", 16)]);
        let mut b = a.clone();
        b.points[0].events_per_sec *= 3.0;
        let cmp = compare_reports(&a, &b, 0.2);
        assert!(cmp.is_pass());
        assert!(cmp.notes.iter().any(|n| n.contains("improved")), "{cmp}");
    }
}
