//! The [`BenchReport`]: one `p3 bench` sweep of the engine across worker
//! counts and backends, serialized as `BENCH_simulate.json`.
//!
//! A point mixes two kinds of measurement. `events`, `event_hash`,
//! `sim_seconds`, `peak_in_flight` and `throughput` are *deterministic* —
//! any two builds of the same code produce identical values, so the
//! regression differ holds them to exact equality. `wall_seconds` and
//! `events_per_sec` are wall-clock and machine-dependent, so the differ
//! only holds them to a tolerance band.

use crate::doc::{Doc, ReportError};

/// Version stamp of the [`BenchReport`] JSON schema.
pub const BENCH_FORMAT_VERSION: u64 = 1;

/// Discriminator value of the `"format"` member of a bench document.
const BENCH_FORMAT: &str = "p3-bench";

/// One measured configuration of the bench sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchPoint {
    /// Backend name (`ps`, `ring`, `halving-doubling`).
    pub backend: String,
    /// Cluster size (one worker per machine).
    pub machines: u64,
    /// Simulator events the run dispatched (deterministic).
    pub events: u64,
    /// Rolling event digest of the run (deterministic).
    pub event_hash: u64,
    /// Simulated seconds the run covered (deterministic).
    pub sim_seconds: f64,
    /// Peak concurrently active network flows (deterministic).
    pub peak_in_flight: u64,
    /// Aggregate training throughput in samples/sec (deterministic).
    pub throughput: f64,
    /// Wall time the run took, unprofiled, in seconds (machine-dependent).
    pub wall_seconds: f64,
    /// Engine throughput in events/sec (machine-dependent).
    pub events_per_sec: f64,
}

impl BenchPoint {
    /// The identity of this point within a sweep.
    pub fn key(&self) -> (String, u64) {
        (self.backend.clone(), self.machines)
    }
}

/// A full bench sweep, ready to serialize or diff.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_FORMAT_VERSION`]).
    pub version: u64,
    /// Measured points, in sweep order.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// The report's one member list, run by both `to_json` and
    /// `from_json`.
    fn walk(d: &mut Doc<'_>, r: &mut BenchReport) -> Result<(), ReportError> {
        d.header(BENCH_FORMAT, BENCH_FORMAT_VERSION, &mut r.version)?;
        d.list("points", &mut r.points, |d, p| {
            d.str("backend", &mut p.backend)?;
            d.u64("machines", &mut p.machines)?;
            d.u64("events", &mut p.events)?;
            d.hex("event_hash", &mut p.event_hash)?;
            d.f64("sim_seconds", &mut p.sim_seconds)?;
            d.u64("peak_in_flight", &mut p.peak_in_flight)?;
            d.f64("throughput", &mut p.throughput)?;
            d.f64("wall_seconds", &mut p.wall_seconds)?;
            d.f64("events_per_sec", &mut p.events_per_sec)
        })
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Doc::write(self, Self::walk)
    }

    /// Parses a report back from JSON. Never panics: every malformed
    /// input maps to a [`ReportError`], and so does a point whose
    /// `(backend, machines)` key appears twice, since the differ matches
    /// points by that key.
    pub fn from_json(text: &str) -> Result<BenchReport, ReportError> {
        let report = Doc::read(text, Self::walk)?;
        for (i, p) in report.points.iter().enumerate() {
            if report.points[..i].iter().any(|q| q.key() == p.key()) {
                return Err(ReportError::Schema(format!(
                    "point ({}, {}) appears more than once",
                    p.backend, p.machines
                )));
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn point(backend: &str, machines: u64) -> BenchPoint {
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

    #[test]
    fn json_round_trips() {
        let r = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![point("ps", 16), point("ring", 32)],
        };
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn empty_report_round_trips() {
        let r = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: Vec::new(),
        };
        assert_eq!(BenchReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn profile_document_is_a_schema_error() {
        let doc = r#"{"format": "p3-profile", "version": 1, "points": []}"#;
        assert!(matches!(
            BenchReport::from_json(doc),
            Err(ReportError::Schema(ref s)) if s.contains("format")
        ));
    }

    #[test]
    fn bad_hash_is_a_schema_error() {
        let doc = r#"{"format": "p3-bench", "version": 1, "points": [
            {"backend": "ps", "machines": 4, "events": 1, "event_hash": "xyz",
             "sim_seconds": 1, "peak_in_flight": 1, "throughput": 1,
             "wall_seconds": 1, "events_per_sec": 1}]}"#;
        assert!(matches!(
            BenchReport::from_json(doc),
            Err(ReportError::Schema(ref s)) if s.contains("event_hash")
        ));
    }

    #[test]
    fn repeated_point_is_a_schema_error() {
        let mut drifted = point("ps", 16);
        drifted.events = 1;
        let r = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![point("ring", 16), drifted, point("ps", 16)],
        };
        let err = BenchReport::from_json(&r.to_json()).unwrap_err();
        assert!(
            matches!(err, ReportError::Schema(ref s) if s.contains("(ps, 16)")),
            "{err}"
        );
    }

    #[test]
    fn negative_machines_is_a_schema_error() {
        let doc = r#"{"format": "p3-bench", "version": 1, "points": [
            {"backend": "ps", "machines": -4}]}"#;
        assert!(matches!(
            BenchReport::from_json(doc),
            Err(ReportError::Schema(_))
        ));
    }
}
