//! No refusal of the state invariant fires on a state the engine reaches:
//! it holds after every event of the engine's determinism and fault
//! matrix. The refusals a restore cannot reach, because it derives the
//! fields they compare, fire on a live engine that breaks them.

use super::super::fixtures::{base, corrupted_refusal, degraded_racked, matrix};
use super::super::types::{MsgKind, EVENT_CAP};
use super::super::ClusterSim;
use super::EACH_EVENT;
use crate::config::{BackendKind, ClusterConfig, RunError};
use crate::egress::EgressUnit;
use p3_des::snap::SnapshotError;
use p3_des::SimDuration;
use p3_net::FlowId;

/// Runs `cfg` to its end, checking the state invariant after every
/// event; returns the events it processed.
fn run_checked(cfg: ClusterConfig) -> Result<u64, RunError> {
    EACH_EVENT.with(|on| on.set(true));
    let run = ClusterSim::new(cfg).try_run();
    EACH_EVENT.with(|on| on.set(false));
    run.map(|r| r.events)
}

#[test]
fn the_state_invariant_holds_after_every_event() {
    for (label, cfg) in matrix() {
        match run_checked(cfg) {
            Ok(events) => assert!(events > 100, "{label}: {events} events"),
            Err(e) => panic!("{label}: {e}"),
        }
    }
}

/// A paused `degraded_racked` run with `corrupt` applied, and why the
/// state invariant refuses it, if it does.
fn live_refusal(corrupt: impl FnOnce(&mut ClusterSim)) -> Option<String> {
    let mut sim = ClusterSim::new(degraded_racked());
    sim.run_until(1).ok()?;
    assert_eq!(sim.check_state(), Ok(()));
    corrupt(&mut sim);
    match sim.check_state() {
        Err(SnapshotError::Corrupt(why)) => Some(why),
        _ => None,
    }
}

/// A restore derives each message's flow and priority, a PS message's
/// size and the pushes a round expects, so only a live engine can
/// contradict them.
#[test]
fn derived_facts_a_live_engine_contradicts_are_refused() {
    let why = live_refusal(|sim| {
        let queued = sim.msgs.iter().find(|(_, c)| c.flow.is_none());
        let id = queued.expect("the fixture needs a queued message").0;
        sim.msgs.get_mut(id).unwrap().flow = Some(FlowId(u64::MAX));
    });
    let what = "message names a flow the fabric does not hold";
    assert_eq!(why.as_deref(), Some(what));
    let why = live_refusal(|sim| sim.expected_pushes -= 1);
    let what = "expected pushes differ from the live membership";
    assert_eq!(why.as_deref(), Some(what));
    let why = live_refusal(|sim| {
        let id = sim.msgs.iter().next().expect("a live message").0;
        sim.msgs.get_mut(id).unwrap().priority.0 += 1;
    });
    assert_eq!(why.as_deref(), Some("message priority not its key's"));
    let why = live_refusal(|sim| sim.msgs.get_mut(a_push(sim)).unwrap().bytes += 1);
    assert_eq!(why.as_deref(), Some("message size not its kind's"));
}

/// The id of the first live push.
fn a_push(sim: &ClusterSim) -> u64 {
    let push = sim
        .msgs
        .iter()
        .find(|(_, c)| matches!(c.kind, MsgKind::Push { .. }));
    push.expect("the fixture needs a push").0
}

/// State a snapshot carries that the engine cannot run on from: a wake
/// the engine waits on that nothing will deliver, a gate that holds a
/// sender past one message's cost, a push that meets a server not
/// expecting it, and an event count the run has already ended at.
#[test]
fn state_the_run_cannot_continue_from_is_refused() {
    type Corrupt = fn(&mut ClusterSim);
    let cases: [(&str, Corrupt); 5] = [
        ("network wake not pending", |sim| {
            sim.next_wake = Some(sim.queue.now() + SimDuration::from_secs(3600));
        }),
        (
            "admission gate past one message's cost from the clock",
            |sim| {
                let later = sim.queue.now() + SimDuration::from_secs(1);
                let EgressUnit::Single { next_admit, .. } = &mut sim.workers[0].egress else {
                    panic!("P3 sends from a single-consumer unit");
                };
                *next_admit = later;
            },
        ),
        ("push not addressed to its key's server", |sim| {
            let ctx = sim.msgs.get_mut(a_push(sim)).unwrap();
            ctx.dst = (ctx.dst + 1) % 4;
        }),
        ("push from a round its server has not reached", |sim| {
            let ctx = sim.msgs.get_mut(a_push(sim)).unwrap();
            let MsgKind::Push { round, .. } = &mut ctx.kind else {
                panic!("a_push names a push");
            };
            *round = u64::MAX;
        }),
        ("event count at the cap", |sim| sim.events = EVENT_CAP),
    ];
    for (what, corrupt) in cases {
        let why = corrupted_refusal(degraded_racked, corrupt);
        assert_eq!(why.as_deref(), Some(what));
    }
}

/// A collective chunk's size travels in the stream: one smaller than the
/// header every chunk carries (a zero-byte transfer the fabric refuses to
/// start), or larger than its slice on the wire, is refused.
#[test]
fn collective_chunks_the_size_of_no_slice_are_refused() {
    type Corrupt = fn(&mut ClusterSim);
    let cases: [(&str, Corrupt); 2] = [
        ("message smaller than its header", |sim| {
            let id = sim.msgs.iter().next().expect("a chunk in flight").0;
            sim.msgs.get_mut(id).unwrap().bytes = 0;
        }),
        ("message larger than its slice on the wire", |sim| {
            let id = sim.msgs.iter().next().expect("a chunk in flight").0;
            sim.msgs.get_mut(id).unwrap().bytes = u64::MAX / 2;
        }),
    ];
    for (what, corrupt) in cases {
        let why = corrupted_refusal(|| base(BackendKind::Ring, 7), corrupt);
        assert_eq!(why.as_deref(), Some(what));
    }
}
