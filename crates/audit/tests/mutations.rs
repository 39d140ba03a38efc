//! Negative tests: hand-built valid traces, each mutated to break exactly
//! one invariant, asserting the auditor flags that invariant and no other.
//!
//! This is the auditor's own audit — if a mutation slips through, the
//! checker is not actually enforcing what it claims. The census at the
//! end asks for one mutation per catalog invariant, so a new `Invariant`
//! without a case that flags it fails here.

use p3_audit::{check_resume_equivalence, check_with, AuditOptions, Invariant};
use p3_des::SimTime;
use p3_trace::{ComputePhase, EndpointRole, MsgClass, TraceEvent, TraceLog};
use std::collections::BTreeSet;

fn build(events: &[(u64, TraceEvent)]) -> TraceLog {
    let mut log = TraceLog::new();
    for &(t, e) in events {
        log.record(SimTime::from_nanos(t), e);
    }
    log
}

fn opts(machines: usize, window: usize) -> AuditOptions {
    AuditOptions {
        machines: Some(machines),
        single_consumer: Some(true),
        window: Some(window),
        port_bytes_per_sec: Some(2e11),
        collective: None,
    }
}

/// A complete, legal round: two workers compute, push key 0 to server 0,
/// the server aggregates both and answers, both workers consume v1.
fn base_round() -> Vec<(u64, TraceEvent)> {
    use ComputePhase::{Backward, Forward};
    use EndpointRole::{Server, Worker};
    vec![
        (
            0,
            TraceEvent::ComputeStart {
                worker: 0,
                phase: Forward,
                block: 0,
            },
        ),
        (
            0,
            TraceEvent::ComputeStart {
                worker: 1,
                phase: Forward,
                block: 0,
            },
        ),
        (
            10_000,
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: Forward,
                block: 0,
            },
        ),
        (
            10_000,
            TraceEvent::ComputeStart {
                worker: 0,
                phase: Backward,
                block: 0,
            },
        ),
        (
            10_000,
            TraceEvent::ComputeEnd {
                worker: 1,
                phase: Forward,
                block: 0,
            },
        ),
        (
            10_000,
            TraceEvent::ComputeStart {
                worker: 1,
                phase: Backward,
                block: 0,
            },
        ),
        (
            20_000,
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: Backward,
                block: 0,
            },
        ),
        (
            20_000,
            TraceEvent::GradReady {
                worker: 0,
                key: 0,
                round: 0,
                priority: 0,
            },
        ),
        (
            20_000,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Worker,
                msg_id: 0,
                class: MsgClass::Push,
                key: 0,
                round: 0,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (
            20_000,
            TraceEvent::WireStart {
                msg_id: 0,
                src: 0,
                dst: 0,
                bytes: 1_000_000,
                priority: 0,
            },
        ),
        (20_000, TraceEvent::IterationEnd { worker: 0, iter: 1 }),
        (
            21_000,
            TraceEvent::WireEnd {
                msg_id: 0,
                src: 0,
                dst: 0,
                bytes: 1_000_000,
                bottleneck: None,
            },
        ),
        (
            21_000,
            TraceEvent::AggStart {
                server: 0,
                key: 0,
                round: 0,
                worker: 0,
            },
        ),
        (
            22_000,
            TraceEvent::ComputeEnd {
                worker: 1,
                phase: Backward,
                block: 0,
            },
        ),
        (
            22_000,
            TraceEvent::GradReady {
                worker: 1,
                key: 0,
                round: 0,
                priority: 0,
            },
        ),
        (
            22_000,
            TraceEvent::EgressEnqueue {
                machine: 1,
                role: Worker,
                msg_id: 1,
                class: MsgClass::Push,
                key: 0,
                round: 0,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (
            22_000,
            TraceEvent::WireStart {
                msg_id: 1,
                src: 1,
                dst: 0,
                bytes: 1_000_000,
                priority: 0,
            },
        ),
        (22_000, TraceEvent::IterationEnd { worker: 1, iter: 1 }),
        (
            25_000,
            TraceEvent::AggEnd {
                server: 0,
                key: 0,
                round: 0,
                worker: 0,
            },
        ),
        (
            30_000,
            TraceEvent::WireEnd {
                msg_id: 1,
                src: 1,
                dst: 0,
                bytes: 1_000_000,
                bottleneck: None,
            },
        ),
        (
            30_000,
            TraceEvent::AggStart {
                server: 0,
                key: 0,
                round: 0,
                worker: 1,
            },
        ),
        (
            34_000,
            TraceEvent::AggEnd {
                server: 0,
                key: 0,
                round: 0,
                worker: 1,
            },
        ),
        (
            34_000,
            TraceEvent::RoundComplete {
                server: 0,
                key: 0,
                version: 1,
                degraded: false,
            },
        ),
        (
            34_000,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Server,
                msg_id: 2,
                class: MsgClass::Response,
                key: 0,
                round: 1,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (
            34_000,
            TraceEvent::WireStart {
                msg_id: 2,
                src: 0,
                dst: 0,
                bytes: 2_000_000,
                priority: 0,
            },
        ),
        (
            34_000,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Server,
                msg_id: 3,
                class: MsgClass::Response,
                key: 0,
                round: 1,
                priority: 0,
                queue_depth: 1,
            },
        ),
        (
            35_000,
            TraceEvent::WireEnd {
                msg_id: 2,
                src: 0,
                dst: 0,
                bytes: 2_000_000,
                bottleneck: None,
            },
        ),
        (
            35_000,
            TraceEvent::WireStart {
                msg_id: 3,
                src: 0,
                dst: 1,
                bytes: 2_000_000,
                priority: 0,
            },
        ),
        (
            46_000,
            TraceEvent::WireEnd {
                msg_id: 3,
                src: 0,
                dst: 1,
                bytes: 2_000_000,
                bottleneck: None,
            },
        ),
        (
            46_000,
            TraceEvent::SliceConsumed {
                worker: 0,
                key: 0,
                round: 1,
            },
        ),
        (
            46_000,
            TraceEvent::SliceConsumed {
                worker: 1,
                key: 0,
                round: 1,
            },
        ),
    ]
}

fn assert_only(log: &TraceLog, o: &AuditOptions, invariant: &str) {
    let report = check_with(log, o);
    assert!(
        !report.is_clean(),
        "mutation for {invariant} was not caught"
    );
    assert_eq!(
        report.violated_invariants(),
        vec![invariant],
        "expected only {invariant}, got:\n{report}"
    );
}

#[test]
fn base_round_is_clean() {
    let report = check_with(&build(&base_round()), &opts(2, 2));
    assert!(report.is_clean(), "valid trace flagged:\n{report}");
    assert_eq!(report.events, base_round().len());
}

#[test]
fn base_round_without_metadata_is_clean_with_notes() {
    let report = p3_audit::check(&build(&base_round()));
    assert!(report.is_clean(), "valid trace flagged:\n{report}");
    assert!(!report.skipped.is_empty(), "gated checks should be noted");
}

#[test]
fn clock_regression_is_monotone_violation() {
    let mut evs = base_round();
    // The first WireEnd recorded at 19µs after the 20µs events around it.
    let idx = evs
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::WireEnd { msg_id: 0, .. }))
        .unwrap();
    evs[idx].0 = 19_000;
    // Keep the paired AggStart legal relative to the new delivery time.
    assert_only(&build(&evs), &opts(2, 2), "monotone-clock");
}

#[test]
fn swapped_wire_events_are_causal_violation() {
    let mut evs = base_round();
    let start = evs
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::WireStart { msg_id: 1, .. }))
        .unwrap();
    let end = evs
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::WireEnd { msg_id: 1, .. }))
        .unwrap();
    // Deliver msg 1 before it ever started transmitting.
    let (t_start, t_end) = (evs[start].0, evs[end].0);
    evs.swap(start, end);
    evs[start].0 = t_start;
    evs[end].0 = t_end;
    assert_only(&build(&evs), &opts(2, 2), "causal-order");
}

#[test]
fn inflated_byte_count_is_conservation_violation() {
    let mut evs = base_round();
    for (_, e) in &mut evs {
        if let TraceEvent::WireEnd {
            msg_id: 1, bytes, ..
        } = e
        {
            *bytes += 500_000;
        }
    }
    assert_only(&build(&evs), &opts(2, 2), "byte-conservation");
}

#[test]
fn missing_aggregation_is_conservation_violation() {
    // Drop worker 1's aggregation but still complete the round at full
    // membership: the server claims a gradient it never folded in.
    let evs: Vec<_> = base_round()
        .into_iter()
        .filter(|(_, e)| {
            !matches!(
                e,
                TraceEvent::AggStart { worker: 1, .. } | TraceEvent::AggEnd { worker: 1, .. }
            )
        })
        .collect();
    assert_only(&build(&evs), &opts(2, 2), "byte-conservation");
}

#[test]
fn stretched_iteration_is_stall_accounting_violation() {
    let mut evs = base_round();
    // Worker 0's iteration boundary drifts 1µs past its accounted time.
    let idx = evs
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::IterationEnd { worker: 0, .. }))
        .unwrap();
    evs[idx].0 = 21_000;
    assert_only(&build(&evs), &opts(2, 2), "stall-accounting");
}

/// A worker with three ready gradients for distinct keys, draining its
/// queue one message at a time in priority order.
fn priority_drain(order: &[u64]) -> Vec<(u64, TraceEvent)> {
    use EndpointRole::Worker;
    // msg 0 -> key 0 priority 5, msg 1 -> key 1 priority 1, msg 2 -> key 2
    // priority 3. Strict priority drains 1, 2, 0.
    let prio = [5u32, 1, 3];
    let mut evs = vec![
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 0,
                round: 0,
                priority: 5,
            },
        ),
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 1,
                round: 0,
                priority: 1,
            },
        ),
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 2,
                round: 0,
                priority: 3,
            },
        ),
    ];
    for id in 0..3u64 {
        evs.push((
            0,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Worker,
                msg_id: id,
                class: MsgClass::Push,
                key: id as usize,
                round: 0,
                priority: prio[id as usize],
                queue_depth: id as usize + 1,
            },
        ));
    }
    let mut t = 1_000;
    for &id in order {
        evs.push((
            t,
            TraceEvent::WireStart {
                msg_id: id,
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                priority: prio[id as usize],
            },
        ));
        evs.push((
            t + 8_000,
            TraceEvent::WireEnd {
                msg_id: id,
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                bottleneck: None,
            },
        ));
        t += 10_000;
    }
    evs
}

#[test]
fn priority_order_drain_is_clean() {
    let report = check_with(&build(&priority_drain(&[1, 2, 0])), &opts(2, 1));
    assert!(
        report.is_clean(),
        "strict-priority drain flagged:\n{report}"
    );
}

#[test]
fn reordered_drain_is_priority_inversion() {
    // Least-urgent message 0 jumps the queue ahead of messages 1 and 2.
    assert_only(
        &build(&priority_drain(&[0, 1, 2])),
        &opts(2, 1),
        "priority-inversion",
    );
}

#[test]
fn window_overrun_is_inflight_violation() {
    use EndpointRole::Worker;
    // Three equal-priority pushes all on the wire at once under window 2.
    let mut evs = vec![
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 0,
                round: 0,
                priority: 0,
            },
        ),
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 1,
                round: 0,
                priority: 0,
            },
        ),
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: 2,
                round: 0,
                priority: 0,
            },
        ),
    ];
    for id in 0..3u64 {
        evs.push((
            0,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Worker,
                msg_id: id,
                class: MsgClass::Push,
                key: id as usize,
                round: 0,
                priority: 0,
                queue_depth: id as usize + 1,
            },
        ));
    }
    for id in 0..3u64 {
        evs.push((
            1_000,
            TraceEvent::WireStart {
                msg_id: id,
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                priority: 0,
            },
        ));
    }
    for id in 0..3u64 {
        evs.push((
            40_000 + id,
            TraceEvent::WireEnd {
                msg_id: id,
                src: 0,
                dst: 1,
                bytes: 1_000_000,
                bottleneck: None,
            },
        ));
    }
    assert_only(&build(&evs), &opts(2, 2), "in-flight-window");
}

#[test]
fn overcommitted_port_is_capacity_violation() {
    use EndpointRole::Worker;
    // Four 1MB transfers leave machine 0's port in the same 8µs window:
    // 4MB / 8µs = 5e11 B/s against a 2e11 B/s port. Each flow alone fits.
    let mut evs = Vec::new();
    for id in 0..4u64 {
        evs.push((
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: id as usize,
                round: 0,
                priority: 0,
            },
        ));
        evs.push((
            0,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: Worker,
                msg_id: id,
                class: MsgClass::Push,
                key: id as usize,
                round: 0,
                priority: 0,
                queue_depth: id as usize + 1,
            },
        ));
    }
    for id in 0..4u64 {
        evs.push((
            1_000,
            TraceEvent::WireStart {
                msg_id: id,
                src: 0,
                dst: 1 + id as usize,
                bytes: 1_000_000,
                priority: 0,
            },
        ));
    }
    for id in 0..4u64 {
        evs.push((
            9_000,
            TraceEvent::WireEnd {
                msg_id: id,
                src: 0,
                dst: 1 + id as usize,
                bytes: 1_000_000,
                bottleneck: None,
            },
        ));
    }
    let o = AuditOptions {
        machines: Some(5),
        single_consumer: Some(true),
        window: Some(5),
        port_bytes_per_sec: Some(2e11),
        collective: None,
    };
    assert_only(&build(&evs), &o, "capacity-feasibility");
    // The same schedule on a fat enough port is clean.
    let fat = AuditOptions {
        port_bytes_per_sec: Some(6e11),
        ..o
    };
    assert!(check_with(&build(&evs), &fat).is_clean());
}

#[test]
fn phantom_aggregation_is_causal_violation() {
    // An AggStart for a worker whose push never arrived.
    let mut evs = base_round();
    for (_, e) in &mut evs {
        if let TraceEvent::AggStart { worker, .. } = e {
            if *worker == 1 {
                *worker = 0; // claims worker 0's push twice
            }
        }
        if let TraceEvent::AggEnd { worker, .. } = e {
            if *worker == 1 {
                *worker = 0;
            }
        }
    }
    // Double-claiming w0 leaves w1's gradient out of the full-membership
    // round as well, so both the claim and the membership check fire.
    let report = check_with(&build(&evs), &opts(2, 2));
    assert!(!report.is_clean());
    assert!(
        report.violated_invariants().contains(&"causal-order"),
        "{report}"
    );
}

#[test]
fn skipped_version_is_causal_violation() {
    let mut evs = base_round();
    for (_, e) in &mut evs {
        if let TraceEvent::RoundComplete { version, .. } = e {
            *version = 2; // versions must advance by exactly one
        }
    }
    // Downstream responses/consumes reference v1 which now never existed;
    // the version jump itself must be among the causal findings.
    let report = check_with(&build(&evs), &opts(2, 2));
    assert!(!report.is_clean());
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("advance by exactly one")),
        "{report}"
    );
}

#[test]
fn premature_consume_is_causal_violation() {
    // Worker 1 consumes version 1 before its response is delivered.
    let mut evs = base_round();
    let end = evs
        .iter()
        .position(|(_, e)| matches!(e, TraceEvent::WireEnd { msg_id: 3, .. }))
        .unwrap();
    evs.insert(
        end,
        (
            40_000,
            TraceEvent::SliceConsumed {
                worker: 1,
                key: 0,
                round: 1,
            },
        ),
    );
    assert_only(&build(&evs), &opts(2, 2), "causal-order");
}

#[test]
fn queue_depth_lie_is_causal_violation() {
    let mut evs = base_round();
    for (_, e) in &mut evs {
        if let TraceEvent::EgressEnqueue {
            msg_id: 1,
            queue_depth,
            ..
        } = e
        {
            *queue_depth = 7;
        }
    }
    assert_only(&build(&evs), &opts(2, 2), "causal-order");
}

/// Wire start and end of one `bytes`-sized transfer.
fn transfer(
    id: u64,
    src: usize,
    dst: usize,
    t0: u64,
    t1: u64,
    bytes: u64,
) -> [(u64, TraceEvent); 2] {
    [
        (
            t0,
            TraceEvent::WireStart {
                msg_id: id,
                src,
                dst,
                bytes,
                priority: 0,
            },
        ),
        (
            t1,
            TraceEvent::WireEnd {
                msg_id: id,
                src,
                dst,
                bytes,
                bottleneck: None,
            },
        ),
    ]
}

/// Ready gradient and enqueue of worker 0's push `id` at priority `prio`.
fn ready_push(id: u64, prio: u32, depth: usize) -> [(u64, TraceEvent); 2] {
    [
        (
            0,
            TraceEvent::GradReady {
                worker: 0,
                key: id as usize,
                round: 0,
                priority: prio,
            },
        ),
        (
            0,
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: EndpointRole::Worker,
                msg_id: id,
                class: MsgClass::Push,
                key: id as usize,
                round: 0,
                priority: prio,
                queue_depth: depth,
            },
        ),
    ]
}

fn with_base_round(f: impl Fn(&mut Vec<(u64, TraceEvent)>)) -> TraceLog {
    let mut evs = base_round();
    f(&mut evs);
    build(&evs)
}

#[expect(
    clippy::unwrap_used,
    reason = "a mutation names an event the base round holds"
)]
fn position(evs: &[(u64, TraceEvent)], f: impl Fn(&TraceEvent) -> bool) -> usize {
    evs.iter().position(|(_, e)| f(e)).unwrap()
}

/// One rebuilt mutation: its name, trace, audit options and pinned
/// report lines.
type Case = (
    &'static str,
    TraceLog,
    AuditOptions,
    &'static [&'static str],
);

/// Every mutation above, rebuilt, with its full report text: the
/// violations in discovery order, the suppressed count and the skipped
/// notes.
fn pinned_cases() -> Vec<Case> {
    let capacity_opts = AuditOptions {
        machines: Some(5),
        single_consumer: Some(true),
        window: Some(5),
        port_bytes_per_sec: Some(2e11),
        collective: None,
    };
    let overcommitted = {
        let mut evs: Vec<_> = (0..4)
            .flat_map(|id| ready_push(id, 0, id as usize + 1))
            .collect();
        for id in 0..4u64 {
            evs.extend(transfer(id, 0, 1 + id as usize, 1_000, 9_000, 1_000_000));
        }
        let (starts, ends): (Vec<_>, Vec<_>) =
            evs.drain(8..).enumerate().partition(|(j, _)| j % 2 == 0);
        evs.extend(starts.into_iter().chain(ends).map(|(_, e)| e));
        build(&evs)
    };
    let window_overrun = {
        let mut evs: Vec<_> = (0..3)
            .flat_map(|id| ready_push(id, 0, id as usize + 1))
            .collect();
        let wire: Vec<_> = (0..3u64)
            .map(|id| transfer(id, 0, 1, 1_000, 40_000 + id, 1_000_000))
            .collect();
        evs.extend(wire.iter().map(|w| w[0]));
        evs.extend(wire.iter().map(|w| w[1]));
        build(&evs)
    };
    vec![
        (
            "base round",
            build(&base_round()),
            opts(2, 2),
            &[
                "audit: clean — 31 events",
            ],
        ),
        (
            "base round without metadata",
            build(&base_round()),
            AuditOptions::default(),
            &[
                "audit: clean — 31 events",
                "  note: capacity-feasibility: no uniform port capacity in the trace metadata (topology fabrics carry per-link limits the flat check cannot express)",
                "  note: priority-inversion / in-flight-window: egress discipline unknown (no metadata)",
                "  note: per-round aggregation accounting: machine count unknown (no metadata)",
            ],
        ),
        (
            "clock regression",
            with_base_round(|evs| {
                let idx = position(evs, |e| matches!(e, TraceEvent::WireEnd { msg_id: 0, .. }));
                evs[idx].0 = 19_000;
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: monotone-clock)",
                "  [monotone-clock] event #11 @ 19000ns: recorded at 19000ns after an event at 20000ns — the DES clock ran backwards",
            ],
        ),
        (
            "swapped wire events",
            with_base_round(|evs| {
                let start = position(evs, |e| {
                    matches!(e, TraceEvent::WireStart { msg_id: 1, .. })
                });
                let end = position(evs, |e| matches!(e, TraceEvent::WireEnd { msg_id: 1, .. }));
                let (t_start, t_end) = (evs[start].0, evs[end].0);
                evs.swap(start, end);
                evs[start].0 = t_start;
                evs[end].0 = t_end;
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 3 violation(s) in 31 events (invariants: causal-order)",
                "  [causal-order] event #16 @ 22000ns: msg 1 delivered while Queued",
                "  [causal-order] event #19 @ 30000ns: msg 1 starts transmitting while Delivered",
                "  [causal-order] event #20 @ 30000ns: server 0 aggregates k0 r0 from w1 but no matching push was delivered",
            ],
        ),
        (
            "inflated byte count",
            with_base_round(|evs| {
                for (_, e) in evs {
                    if let TraceEvent::WireEnd {
                        msg_id: 1, bytes, ..
                    } = e
                    {
                        *bytes += 500_000;
                    }
                }
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: byte-conservation)",
                "  [byte-conservation] event #19 @ 30000ns: msg 1 delivered as 1500000 bytes to m0 but started as Some(1000000) bytes to mSome(0)",
            ],
        ),
        (
            "missing aggregation",
            with_base_round(|evs| {
                evs.retain(|(_, e)| {
                    !matches!(
                        e,
                        TraceEvent::AggStart { worker: 1, .. }
                            | TraceEvent::AggEnd { worker: 1, .. }
                    )
                })
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 29 events (invariants: byte-conservation)",
                "  [byte-conservation] event #20 @ 34000ns: server 0 completes k0 v1 with full membership but only 1/2 workers' pushes were aggregated",
            ],
        ),
        (
            "stretched iteration",
            with_base_round(|evs| {
                let idx = position(evs, |e| {
                    matches!(e, TraceEvent::IterationEnd { worker: 0, .. })
                });
                evs[idx].0 = 21_000;
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: stall-accounting)",
                "  [stall-accounting] event #10 @ 21000ns: worker 0: iteration span 21000ns != compute 20000ns + stall 0ns (unaccounted 1000ns)",
            ],
        ),
        (
            "priority order drain",
            build(&priority_drain(&[1, 2, 0])),
            opts(2, 1),
            &[
                "audit: clean — 12 events",
            ],
        ),
        (
            "reordered drain",
            build(&priority_drain(&[0, 1, 2])),
            opts(2, 1),
            &[
                "audit: FAILED — 1 violation(s) in 12 events (invariants: priority-inversion)",
                "  [priority-inversion] event #6 @ 1000ns: msg 0 (priority 5) starts while more urgent msg 1 (priority 1) waits in the same queue",
            ],
        ),
        ("window overrun", window_overrun, opts(2, 2), &[
                "audit: FAILED — 1 violation(s) in 12 events (invariants: in-flight-window)",
                "  [in-flight-window] event #8 @ 1000ns: endpoint m0/0 has 3 messages in flight (window 2)",
            ]),
        (
            "overcommitted port",
            overcommitted.clone(),
            capacity_opts.clone(),
            &[
                "audit: FAILED — 1 violation(s) in 16 events (invariants: capacity-feasibility)",
                "  [capacity-feasibility] port m0 (tx): 2000000 bytes delivered in a 0.008ms window — exceeds capacity 200000000000 bytes/sec",
            ],
        ),
        (
            "overcommitted port on a fat port",
            overcommitted,
            AuditOptions {
                port_bytes_per_sec: Some(6e11),
                ..capacity_opts
            },
            &[
                "audit: clean — 16 events",
            ],
        ),
        (
            "phantom aggregation",
            with_base_round(|evs| {
                for (_, e) in evs {
                    if let TraceEvent::AggStart { worker, .. } | TraceEvent::AggEnd { worker, .. } =
                        e
                    {
                        if *worker == 1 {
                            *worker = 0;
                        }
                    }
                }
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 2 violation(s) in 31 events (invariants: causal-order, byte-conservation)",
                "  [causal-order] event #20 @ 30000ns: server 0 aggregates k0 r0 from w0 but no matching push was delivered",
                "  [byte-conservation] event #22 @ 34000ns: server 0 completes k0 v1 with full membership but only 1/2 workers' pushes were aggregated",
            ],
        ),
        (
            "skipped version",
            with_base_round(|evs| {
                for (_, e) in evs {
                    if let TraceEvent::RoundComplete { version, .. } = e {
                        *version = 2;
                    }
                }
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 2 violation(s) in 31 events (invariants: causal-order, byte-conservation)",
                "  [causal-order] event #22 @ 34000ns: server 0 completes k0 at version 2 after version 0 — versions must advance by exactly one",
                "  [byte-conservation] event #22 @ 34000ns: server 0 completes k0 v2 with full membership but only 0/2 workers' pushes were aggregated",
            ],
        ),
        (
            "premature consume",
            with_base_round(|evs| {
                let end = position(evs, |e| matches!(e, TraceEvent::WireEnd { msg_id: 3, .. }));
                evs.insert(
                    end,
                    (
                        40_000,
                        TraceEvent::SliceConsumed {
                            worker: 1,
                            key: 0,
                            round: 1,
                        },
                    ),
                );
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 32 events (invariants: causal-order)",
                "  [causal-order] event #28 @ 40000ns: worker 1 consumes k0 at round 1 while holding version 0",
            ],
        ),
        (
            "queue depth lie",
            with_base_round(|evs| {
                for (_, e) in evs {
                    if let TraceEvent::EgressEnqueue {
                        msg_id: 1,
                        queue_depth,
                        ..
                    } = e
                    {
                        *queue_depth = 7;
                    }
                }
            }),
            opts(2, 2),
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: causal-order)",
                "  [causal-order] event #15 @ 22000ns: endpoint m1/worker reports queue depth 7 but 1 messages are queued",
            ],
        ),
    ]
}

/// A checker rewrite must reproduce each pinned report byte for byte.
#[test]
fn mutation_reports_are_pinned() {
    let mut diffs = Vec::new();
    for (name, log, o, want) in &pinned_cases() {
        let got = check_with(log, o).to_string();
        if got != want.join("\n") {
            diffs.push(format!("{name}:\n{got:?}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "pinned reports differ:\n{}",
        diffs.join("\n")
    );
}

/// Thousands of pushes queued on one worker, drained in strict priority
/// order except for one message that jumps 60 places ahead: exactly one
/// inversion. It names the lowest-id message more urgent than the jumper
/// (msg 86 at priority 51), not the most urgent one (a priority-50 msg).
#[test]
fn deep_queue_inversion_is_pinned() {
    const N: u64 = 3_000;
    let prio = |id: u64| (id * 37 % 101) as u32;
    let mut evs = Vec::new();
    for id in 0..N {
        evs.extend(ready_push(id, prio(id), id as usize + 1));
    }
    let mut order: Vec<u64> = (0..N).collect();
    order.sort_by_key(|&id| (prio(id), id));
    let jumper = order.remove(1_560);
    order.insert(1_500, jumper);
    for (step, &id) in order.iter().enumerate() {
        let t0 = 1_000 + 2_000 * step as u64;
        let [(ts, mut start), end] = transfer(id, 0, 1, t0, t0 + 1_000, 100);
        if let TraceEvent::WireStart { priority, .. } = &mut start {
            *priority = prio(id);
        }
        evs.push((ts, start));
        evs.push(end);
    }
    let report = check_with(&build(&evs), &opts(2, 1));
    assert_eq!(
        report.to_string(),
        [
            "audit: FAILED — 1 violation(s) in 12000 events (invariants: priority-inversion)",
            "  [priority-inversion] event #9000 @ 3001000ns: msg 1672 (priority 52) starts while \
             more urgent msg 86 (priority 51) waits in the same queue",
        ]
        .join("\n")
    );
}

/// One busy period of 2,400 overlapping pushes on machine 0's port, each
/// far under capacity except msg 1001, which over-commits only the window
/// it spans itself. Every window anchored earlier is long enough to
/// absorb it. The old scan strided its anchors at this size and skipped
/// msg 1001's start, reporting the trace clean.
#[test]
fn overcommitment_at_any_anchor_of_a_long_busy_period_is_caught() {
    let mut evs = Vec::new();
    for id in 0..2_400u64 {
        let t0 = 1_000 * id;
        let bytes = if id == 1_001 { 4_000 } else { 100 };
        let [(_, ready), (_, enqueue)] = ready_push(id, 0, 1);
        evs.extend([(t0, ready), (t0, enqueue)]);
        evs.extend(transfer(id, 0, 1, t0, t0 + 1_500, bytes));
    }
    evs.sort_by_key(|&(t, _)| t);
    let o = AuditOptions {
        port_bytes_per_sec: Some(1e9),
        ..opts(2, 2)
    };
    let report = check_with(&build(&evs), &o);
    assert_eq!(
        report.to_string(),
        [
            "audit: FAILED — 2 violation(s) in 9600 events (invariants: capacity-feasibility)",
            "  [capacity-feasibility] port m0 (tx): 4000 bytes delivered in a 0.002ms window — \
             exceeds capacity 1000000000 bytes/sec",
            "  [capacity-feasibility] port m1 (rx): 4000 bytes delivered in a 0.002ms window — \
             exceeds capacity 1000000000 bytes/sec",
        ]
        .join("\n")
    );
}

/// The census: each catalog invariant has a mutation that flags it and
/// nothing else. Together with one diverging resume (that checker
/// compares two traces instead of replaying one), the cases flag exactly
/// `Invariant::ALL`.
#[test]
fn every_invariant_is_flagged_by_a_mutation_of_its_own() {
    let census = [
        ("clock regression", Invariant::MonotoneClock),
        ("swapped wire events", Invariant::CausalOrder),
        ("inflated byte count", Invariant::ByteConservation),
        ("overcommitted port", Invariant::CapacityFeasibility),
        ("reordered drain", Invariant::PriorityInversion),
        ("window overrun", Invariant::InFlightWindow),
        ("stretched iteration", Invariant::StallAccounting),
    ];
    let cases = pinned_cases();
    let mut reports = Vec::new();
    for (name, own) in census {
        let (_, log, o, _) = cases
            .iter()
            .find(|c| c.0 == name)
            .unwrap_or_else(|| panic!("no pinned case `{name}`"));
        reports.push((name, own, check_with(log, o)));
    }
    let full = build(&base_round());
    let mut tail = base_round().split_off(20);
    tail[0].0 += 1;
    let diverged = check_resume_equivalence(&full, &build(&tail));
    reports.push(("diverging resume", Invariant::ResumeEquivalence, diverged));

    let mut flagged = BTreeSet::new();
    for (name, own, report) in &reports {
        let got: BTreeSet<Invariant> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(
            got,
            BTreeSet::from([*own]),
            "`{name}` must flag {own} alone:\n{report}"
        );
        flagged.insert(*own);
    }
    let unflagged: Vec<Invariant> = Invariant::ALL
        .into_iter()
        .filter(|i| !flagged.contains(i))
        .collect();
    assert!(unflagged.is_empty(), "no mutation flags {unflagged:?}");
    assert_eq!(flagged, BTreeSet::from(Invariant::ALL));
}
