//! The one start/end pairing of the trace's spans.
//!
//! Four kinds of span open with one event and close with another: a
//! compute segment, a stall, a wire transfer and a server aggregation.
//! The Chrome export, `p3 timeline` and the metrics registry all read
//! their spans from [`TraceLog::paired`], so the rule that matches an end
//! to its start lives here alone. The auditor (`p3-audit`) keeps its own
//! state machines, because it must report the mismatches this walk drops.

use crate::event::{FaultKind, TraceEvent};
use crate::sink::{TimedEvent, TraceLog};
use p3_des::SimTime;
use std::collections::BTreeMap;

/// Streaming walk over a [`TraceLog`] that pairs span ends with their
/// starts; see [`TraceLog::paired`].
#[derive(Debug)]
pub struct Paired<'a> {
    events: std::slice::Iter<'a, TimedEvent>,
    /// `(worker, block, phase)` of open compute segments.
    compute: BTreeMap<(usize, usize, u8), SimTime>,
    /// `(worker, block)` of open stalls.
    stall: BTreeMap<(usize, usize), SimTime>,
    /// `msg_id` of open transfers.
    wire: BTreeMap<u64, SimTime>,
    /// `(server, key, round, worker)` of open aggregations.
    agg: BTreeMap<(usize, usize, u64, usize), SimTime>,
}

impl TraceLog {
    /// Walks the log in recording order, yielding each event with the
    /// start time of the span it closes: `None` for an event that closes
    /// nothing, or whose start was never recorded.
    ///
    /// Spans are keyed as follows: a compute segment by `(worker, block,
    /// phase)`, a stall by `(worker, block)`, a transfer by `msg_id` and an
    /// aggregation by `(server, key, round, worker)`. A second start under
    /// an open key replaces the first, so a retransmitted message's span
    /// covers its last transmission. A transfer closes with its `WireEnd`,
    /// or with the `FlowCancelled` fault of a crash that killed it
    /// mid-flight. Starts still open at the end of the log are dropped.
    pub fn paired(&self) -> Paired<'_> {
        Paired {
            events: self.events().iter(),
            compute: BTreeMap::new(),
            stall: BTreeMap::new(),
            wire: BTreeMap::new(),
            agg: BTreeMap::new(),
        }
    }
}

impl Iterator for Paired<'_> {
    type Item = (TimedEvent, Option<SimTime>);

    fn next(&mut self) -> Option<Self::Item> {
        let te = *self.events.next()?;
        let at = te.at;
        let opened = match te.event {
            TraceEvent::ComputeStart {
                worker,
                phase,
                block,
            } => {
                self.compute.insert((worker, block, phase as u8), at);
                None
            }
            TraceEvent::ComputeEnd {
                worker,
                phase,
                block,
            } => self.compute.remove(&(worker, block, phase as u8)),
            TraceEvent::StallStart { worker, block } => {
                self.stall.insert((worker, block), at);
                None
            }
            TraceEvent::StallEnd { worker, block } => self.stall.remove(&(worker, block)),
            TraceEvent::WireStart { msg_id, .. } => {
                self.wire.insert(msg_id, at);
                None
            }
            TraceEvent::WireEnd { msg_id, .. }
            | TraceEvent::Fault {
                kind: FaultKind::FlowCancelled,
                msg_id: Some(msg_id),
                ..
            } => self.wire.remove(&msg_id),
            TraceEvent::AggStart {
                server,
                key,
                round,
                worker,
            } => {
                self.agg.insert((server, key, round, worker), at);
                None
            }
            TraceEvent::AggEnd {
                server,
                key,
                round,
                worker,
            } => self.agg.remove(&(server, key, round, worker)),
            _ => None,
        };
        Some((te, opened))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ComputePhase;

    fn wire_start(msg_id: u64) -> TraceEvent {
        TraceEvent::WireStart {
            msg_id,
            src: 0,
            dst: 1,
            bytes: 8,
            priority: 0,
        }
    }

    fn wire_end(msg_id: u64) -> TraceEvent {
        TraceEvent::WireEnd {
            msg_id,
            src: 0,
            dst: 1,
            bytes: 8,
            bottleneck: None,
        }
    }

    fn opened(log: &TraceLog) -> Vec<Option<u64>> {
        log.paired()
            .map(|(_, opened)| opened.map(SimTime::as_nanos))
            .collect()
    }

    #[test]
    fn ends_report_their_starts_and_unmatched_ends_report_none() {
        let mut log = TraceLog::new();
        let fwd = |worker| TraceEvent::ComputeStart {
            worker,
            phase: ComputePhase::Forward,
            block: 0,
        };
        log.record(SimTime::from_nanos(1), fwd(0));
        log.record(SimTime::from_nanos(2), fwd(1));
        // Same worker and block, other phase: a different span.
        log.record(
            SimTime::from_nanos(3),
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: ComputePhase::Backward,
                block: 0,
            },
        );
        log.record(
            SimTime::from_nanos(4),
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: ComputePhase::Forward,
                block: 0,
            },
        );
        log.record(SimTime::from_nanos(5), wire_end(7));
        assert_eq!(opened(&log), [None, None, None, Some(1), None]);
    }

    #[test]
    fn the_last_wire_start_wins_and_a_cancel_closes_the_span() {
        let mut log = TraceLog::new();
        log.record(SimTime::from_nanos(1), wire_start(3));
        log.record(SimTime::from_nanos(2), wire_start(3));
        log.record(SimTime::from_nanos(5), wire_end(3));
        log.record(SimTime::from_nanos(6), wire_end(3));
        log.record(SimTime::from_nanos(7), wire_start(4));
        let cancel = TraceEvent::Fault {
            kind: FaultKind::FlowCancelled,
            machine: 0,
            msg_id: Some(4),
        };
        log.record(SimTime::from_nanos(8), cancel);
        log.record(SimTime::from_nanos(9), wire_end(4));
        let loss = TraceEvent::Fault {
            kind: FaultKind::Loss,
            machine: 0,
            msg_id: Some(4),
        };
        log.record(SimTime::from_nanos(9), wire_start(4));
        log.record(SimTime::from_nanos(10), loss);
        assert_eq!(
            opened(&log),
            [None, None, Some(2), None, None, Some(7), None, None, None]
        );
    }
}
