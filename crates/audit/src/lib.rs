//! # p3-audit — offline trace invariant auditor
//!
//! Replays a recorded simulation trace ([`p3_trace::TraceLog`]) against the
//! formal invariant catalog from DESIGN.md §10: monotone event clocks,
//! causal slice lifecycle ordering, per-flow byte conservation, NIC
//! capacity feasibility, strict-priority egress (no inversions), bounded
//! in-flight windows, and exact worker stall accounting.
//!
//! The auditor is a pure function of the event log plus optional run
//! metadata — it performs no I/O and draws no randomness, so it can run
//! on the log a traced simulation returns (`p3 simulate --audit` calls
//! [`check_with`] on it), over an exported trace file
//! (`p3 audit run.json`), or inside property tests.
//!
//! Checks that need configuration facts the caller cannot supply (egress
//! discipline, machine count, port capacity) are skipped with an
//! explanatory note rather than guessed at: the auditor never reports a
//! violation the real system could have legally produced.
//!
//! The auditor pairs span starts and ends with its own state machines
//! rather than `p3_trace::TraceLog::paired`: that walk silently drops an
//! end without a start and lets a second start replace the first, and
//! those are exactly the mismatches the auditor must report.
//!
//! # Examples
//!
//! ```
//! use p3_des::SimTime;
//! use p3_trace::{TraceEvent, TraceLog};
//!
//! let mut log = TraceLog::new();
//! log.record(
//!     SimTime::from_micros(7),
//!     TraceEvent::WireEnd { msg_id: 0, src: 0, dst: 1, bytes: 512, bottleneck: None },
//! );
//! // Delivery of a message that was never enqueued: causally impossible.
//! let report = p3_audit::check(&log);
//! assert!(!report.is_clean());
//! assert_eq!(report.violated_invariants(), vec!["causal-order"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod check;
mod report;
mod resume;

pub use check::{check, check_with, AuditOptions};
pub use report::{AuditReport, Invariant, Violation};
pub use resume::check_resume_equivalence;
