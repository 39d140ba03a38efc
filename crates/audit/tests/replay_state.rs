//! Replay state that outlives one event, on traces no simulator run
//! produces: a push delivered twice can be claimed twice, one claim at a
//! time, and a completed round forgets which workers it aggregated.
//! Each report was read before the replay moved to dense tables.

use p3_audit::{check_with, AuditOptions};
use p3_des::SimTime;
use p3_trace::{EndpointRole, MsgClass, TraceEvent, TraceLog};

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

/// Worker `w`'s push of key 0, round 0, as msg `id` to server 0.
fn push(w: usize, id: u64) -> [(u64, TraceEvent); 4] {
    [
        (
            0,
            TraceEvent::GradReady {
                worker: w,
                key: 0,
                round: 0,
                priority: 0,
            },
        ),
        (
            0,
            TraceEvent::EgressEnqueue {
                machine: w,
                role: EndpointRole::Worker,
                msg_id: id,
                class: MsgClass::Push,
                key: 0,
                round: 0,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (
            0,
            TraceEvent::WireStart {
                msg_id: id,
                src: w,
                dst: 0,
                bytes: 100,
                priority: 0,
            },
        ),
        (
            0,
            TraceEvent::WireEnd {
                msg_id: id,
                src: w,
                dst: 0,
                bytes: 100,
                bottleneck: None,
            },
        ),
    ]
}

/// Server 0 aggregates worker `w`'s push of key 0, round `round`.
fn aggregate(w: usize, round: u64) -> [(u64, TraceEvent); 2] {
    let (server, key) = (0, 0);
    [
        (
            0,
            TraceEvent::AggStart {
                server,
                key,
                round,
                worker: w,
            },
        ),
        (
            0,
            TraceEvent::AggEnd {
                server,
                key,
                round,
                worker: w,
            },
        ),
    ]
}

fn complete(version: u64) -> (u64, TraceEvent) {
    (
        0,
        TraceEvent::RoundComplete {
            server: 0,
            key: 0,
            version,
            degraded: false,
        },
    )
}

const NOTE: &str = "\n  note: capacity-feasibility: no uniform port capacity in the trace \
                    metadata (topology fabrics carry per-link limits the flat check cannot \
                    express)";

#[test]
fn a_push_delivered_twice_is_claimed_once_per_aggregation() {
    let mut evs = Vec::new();
    evs.extend(push(1, 7));
    // The second delivery is flagged, but it is claimable all the same.
    evs.push(push(1, 7)[3]);
    evs.extend(aggregate(1, 0));
    evs.extend(aggregate(1, 0));
    evs.extend(aggregate(1, 0));
    assert_eq!(
        report(&evs),
        "audit: FAILED — 2 violation(s) in 11 events (invariants: causal-order)\n  \
         [causal-order] event #4 @ 0ns: msg 7 delivered while Delivered\n  \
         [causal-order] event #9 @ 0ns: server 0 aggregates k0 r0 from w1 but no matching push \
         was delivered"
            .to_string()
            + NOTE
    );
}

#[test]
fn a_completed_round_forgets_its_members() {
    let mut evs = Vec::new();
    evs.extend(push(0, 1));
    evs.extend(push(1, 2));
    evs.extend(aggregate(0, 0));
    evs.extend(aggregate(1, 0));
    evs.push(complete(1));
    // Round 0 again, from worker 1 only: its completion counts one
    // worker, not the two the first completion already counted.
    evs.extend(push(1, 3));
    evs.extend(aggregate(1, 0));
    evs.push(complete(1));
    assert_eq!(
        report(&evs),
        "audit: FAILED — 3 violation(s) in 20 events (invariants: causal-order, \
         byte-conservation)\n  \
         [causal-order] event #17 @ 0ns: server 0 aggregates k0 at round 0 while the key is at \
         version 1\n  \
         [causal-order] event #19 @ 0ns: server 0 completes k0 at version 1 after version 1 — \
         versions must advance by exactly one\n  \
         [byte-conservation] event #19 @ 0ns: server 0 completes k0 v1 with full membership but \
         only 1/2 workers' pushes were aggregated"
            .to_string()
            + NOTE
    );
}
