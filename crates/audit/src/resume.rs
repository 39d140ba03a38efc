//! Resume-equivalence: a resumed run's trace must be a bit-identical
//! suffix of the uninterrupted run's trace.
//!
//! The simulator guarantees that restoring a snapshot and resuming
//! replays the exact event sequence the uninterrupted run would have
//! processed from that point on. This checker pins the guarantee from the
//! outside: given the full run's trace and a resumed run's trace, every
//! resumed event must match — at the same simulated time, with the same
//! payload — the tail of the full trace. The first mismatch names both
//! events, which localizes the divergence to the exact state the snapshot
//! failed to capture.

use crate::report::{AuditReport, Invariant, Violation};
use p3_trace::TraceLog;

/// How many mismatching positions to report before summarizing.
const MAX_MISMATCHES: usize = 10;

/// Checks that `resumed`'s events are exactly the last `resumed.len()`
/// events of `full`. Returns a clean report when they are.
pub fn check_resume_equivalence(full: &TraceLog, resumed: &TraceLog) -> AuditReport {
    let mut violations = Vec::new();
    let mut suppressed = 0usize;
    let full_events = full.events();
    let resumed_events = resumed.events();

    if resumed_events.len() > full_events.len() {
        violations.push(Violation {
            invariant: Invariant::ResumeEquivalence,
            index: None,
            at_nanos: 0,
            message: format!(
                "resumed run recorded {} events but the full run only {} — the resumed trace \
                 cannot be a suffix",
                resumed_events.len(),
                full_events.len()
            ),
        });
    } else {
        let offset = full_events.len() - resumed_events.len();
        for (i, (expected, got)) in full_events[offset..].iter().zip(resumed_events).enumerate() {
            if expected == got {
                continue;
            }
            if violations.len() >= MAX_MISMATCHES {
                suppressed += 1;
                continue;
            }
            violations.push(Violation {
                invariant: Invariant::ResumeEquivalence,
                index: Some(offset + i),
                at_nanos: got.at.as_nanos(),
                message: format!(
                    "resumed event #{i} is {:?} @ {} but the full run recorded {:?} @ {}",
                    got.event, got.at, expected.event, expected.at
                ),
            });
        }
    }

    AuditReport {
        events: resumed_events.len(),
        violations,
        suppressed,
        skipped: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_des::SimTime;
    use p3_trace::TraceEvent;

    fn log_of(hashes: &[(u64, u64)]) -> TraceLog {
        let mut log = TraceLog::new();
        for &(at, hash) in hashes {
            log.record(
                SimTime::from_nanos(at),
                TraceEvent::StateHash { events: at, hash },
            );
        }
        log
    }

    #[test]
    fn identical_suffix_is_clean() {
        let full = log_of(&[(1, 10), (2, 20), (3, 30)]);
        let resumed = log_of(&[(2, 20), (3, 30)]);
        assert!(check_resume_equivalence(&full, &resumed).is_clean());
    }

    #[test]
    fn empty_resumed_trace_is_clean() {
        let full = log_of(&[(1, 10)]);
        let resumed = log_of(&[]);
        assert!(check_resume_equivalence(&full, &resumed).is_clean());
    }

    #[test]
    fn diverging_payload_is_flagged_at_its_index() {
        let full = log_of(&[(1, 10), (2, 20), (3, 30)]);
        let resumed = log_of(&[(2, 99), (3, 30)]);
        let report = check_resume_equivalence(&full, &resumed);
        assert!(!report.is_clean());
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].index, Some(1));
        assert_eq!(
            report.violated_invariants(),
            vec!["resume-equivalence"],
            "{report}"
        );
    }

    #[test]
    fn longer_resumed_trace_is_flagged() {
        let full = log_of(&[(1, 10)]);
        let resumed = log_of(&[(1, 10), (2, 20)]);
        let report = check_resume_equivalence(&full, &resumed);
        assert!(!report.is_clean());
        assert!(
            report.to_string().contains("cannot be a suffix"),
            "{report}"
        );
    }
}
