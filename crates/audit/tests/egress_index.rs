//! The auditor keeps each egress queue indexed twice, by message and by
//! priority. These traces drive the three ways an entry changes or leaves
//! other than at its wire start: a re-enqueue at a changed priority, a
//! crash and a collective abort. Each is followed by an enqueue whose
//! reported depth holds only if the queue kept exactly its live entries,
//! and by a low-urgency start that a stale priority entry would flag as
//! an inversion. Every report equals the one the unindexed queue gave.

use p3_audit::{check_with, AuditOptions};
use p3_des::SimTime;
use p3_trace::{EndpointRole, FaultKind, MsgClass, TraceEvent, TraceLog};

fn report(events: &[(u64, TraceEvent)]) -> String {
    let mut log = TraceLog::new();
    for &(t, e) in events {
        log.record(SimTime::from_nanos(t), e);
    }
    let opts = AuditOptions {
        machines: Some(2),
        single_consumer: Some(true),
        window: Some(4),
        port_bytes_per_sec: None,
        collective: None,
    };
    check_with(&log, &opts).to_string()
}

/// Worker 0's gradient for key `id` and its enqueue of msg `id`.
fn enqueue(id: u64, class: MsgClass, priority: u32, depth: usize) -> [(u64, TraceEvent); 2] {
    [
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: id as usize,
                round: 0,
                priority,
            },
        ),
        (
            0,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: EndpointRole::Worker,
                msg_id: id,
                class,
                key: id as usize,
                round: 0,
                priority,
                queue_depth: depth,
            },
        ),
    ]
}

fn start(id: u64, priority: u32) -> (u64, TraceEvent) {
    (
        0,
        TraceEvent::WireStart {
            msg_id: id,
            src: 0,
            dst: 1,
            bytes: 1_000,
            priority,
        },
    )
}

fn end(id: u64) -> (u64, TraceEvent) {
    (
        0,
        TraceEvent::WireEnd {
            msg_id: id,
            src: 0,
            dst: 1,
            bytes: 1_000,
            bottleneck: None,
        },
    )
}

fn fault(kind: FaultKind, msg_id: Option<u64>) -> (u64, TraceEvent) {
    (
        0,
        TraceEvent::Fault {
            kind,
            machine: 0,
            msg_id,
        },
    )
}

const NOTES: &str = "\n  note: capacity-feasibility: no uniform port capacity in the trace \
                     metadata (topology fabrics carry per-link limits the flat check cannot \
                     express)";

#[test]
fn reenqueue_at_a_changed_priority_replaces_the_queued_entry() {
    let mut evs = Vec::new();
    evs.extend(enqueue(0, MsgClass::Push, 5, 1));
    // Enqueued again at priority 1 while still queued: flagged twice, and
    // queued at 1, once, until it starts (at its original priority, 5).
    evs.extend(enqueue(0, MsgClass::Push, 1, 1));
    evs.push(start(0, 5));
    evs.extend(enqueue(1, MsgClass::Push, 9, 1));
    evs.push(start(1, 9));
    evs.extend([end(0), end(1)]);
    assert_eq!(
        report(&evs),
        "audit: FAILED — 2 violation(s) in 10 events (invariants: causal-order)\n  \
         [causal-order] event #3 @ 0ns: msg 0 re-enqueued while Queued (no retransmit \
         decided)\n  \
         [causal-order] event #3 @ 0ns: msg 0 retransmitted from a different endpoint or \
         priority"
            .to_string()
            + NOTES
    );
}

#[test]
fn crash_empties_the_queue() {
    let mut evs = Vec::new();
    evs.extend(enqueue(0, MsgClass::Push, 3, 1));
    evs.extend(enqueue(1, MsgClass::Push, 1, 2));
    evs.extend(enqueue(2, MsgClass::Push, 2, 3));
    evs.extend([
        fault(FaultKind::Crash, None),
        fault(FaultKind::Rejoin, None),
    ]);
    evs.extend(enqueue(3, MsgClass::Push, 9, 1));
    evs.push(start(3, 9));
    assert_eq!(report(&evs), "audit: clean — 11 events".to_string() + NOTES);
}

#[test]
fn collective_abort_dequeues_its_chunks() {
    let mut evs = Vec::new();
    evs.extend(enqueue(0, MsgClass::ReduceScatter, 1, 1));
    evs.extend(enqueue(1, MsgClass::ReduceScatter, 2, 2));
    evs.push(fault(FaultKind::CollectiveAbort, None));
    evs.extend(enqueue(2, MsgClass::Push, 9, 1));
    evs.push(start(2, 9));
    assert_eq!(report(&evs), "audit: clean — 8 events".to_string() + NOTES);
}
