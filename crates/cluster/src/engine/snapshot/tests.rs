//! Per-variant pins of the event layout (the rolling hash, the round
//! trip, and the reader's index checks), and substitution sweeps over
//! the engine's own fields: whatever a reader accepts must resume and
//! run to its end without panicking.

use super::super::msg_table::MsgTable;
use super::super::types::{
    sender_role_of, Ev, MsgCtx, MsgKind, Phase, ProcItem, Role, ServerState,
};
use super::super::ClusterSim;
use super::fold_event;
use super::walk::{egress, ev, messages, server, Bounds};
use crate::config::{BackendKind, ClusterConfig, RunError};
use crate::egress::{EgressUnit, OutMsg};
use crate::faults::{FaultPlan, LinkDegradation};
use p3_core::SyncStrategy;
use p3_des::snap::{fnv64_fold, SnapReader, SnapWriter, SnapshotError};
use p3_des::{SimDuration, SimTime};
use p3_models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3_net::{Bandwidth, FlowId, MachineId, Priority};
use p3_topo::Topology;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every event variant with the words its layout holds: the tag,
/// then each field.
fn every_event() -> [(Ev, &'static [u64]); 15] {
    [
        (Ev::StartWorker { worker: 3 }, &[0, 3]),
        (
            Ev::Compute {
                worker: 1,
                phase: Phase::Fwd(7),
                inc: 2,
            },
            &[1, 1, 0, 7, 2],
        ),
        (
            Ev::Compute {
                worker: 1,
                phase: Phase::Bwd(7),
                inc: 2,
            },
            &[1, 1, 1, 7, 2],
        ),
        (
            Ev::EgressReady {
                machine: 2,
                role: Role::Server,
                dst: MachineId(5),
                inc: 1,
            },
            &[2, 2, 1, 5, 1],
        ),
        (
            Ev::AdmitKick {
                machine: 4,
                role: Role::Worker,
            },
            &[3, 4, 0],
        ),
        (Ev::ProcDone { server: 9 }, &[4, 9]),
        (Ev::NetWake, &[5]),
        (Ev::StragglerStart { idx: 1 }, &[6, 1]),
        (Ev::StragglerEnd { idx: 2 }, &[7, 2]),
        (Ev::LinkDegradeStart { idx: 3 }, &[8, 3]),
        (Ev::LinkDegradeEnd { idx: 4 }, &[9, 4]),
        (Ev::Crash { idx: 5 }, &[10, 5]),
        (Ev::Rejoin { worker: 6 }, &[11, 6]),
        (
            Ev::RetryTimer {
                msg_id: 77,
                attempt: 3,
            },
            &[12, 77, 3],
        ),
        (Ev::LivenessTimeout { worker: 8 }, &[13, 8]),
    ]
}

/// Pins the rolling hash of every event variant: the time, then the
/// layout, one `u64` word per field.
#[test]
fn fold_event_folds_tag_then_fields_word_by_word() {
    for (ev, words) in every_event() {
        let t = SimTime::from_nanos(1_234);
        let expected = words
            .iter()
            .fold(fnv64_fold(42, 1_234), |h, &w| fnv64_fold(h, w));
        assert_eq!(fold_event(42, t, &ev), expected, "{ev:?}");
    }
}

#[test]
fn every_event_round_trips_and_rejects_out_of_range_indices() {
    let wide = Bounds {
        machines: 16,
        blocks: 16,
        num_keys: 16,
        stragglers: 16,
        degradations: 16,
        crashes: 16,
    };
    let narrow = Bounds {
        machines: 1,
        blocks: 1,
        num_keys: 1,
        stragglers: 1,
        degradations: 1,
        crashes: 1,
    };
    for (mut e, words) in every_event() {
        let mut w = SnapWriter::new(0);
        ev(&mut w, &mut e, &Bounds::UNCHECKED).unwrap();
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        let mut back = Ev::NetWake;
        ev(&mut r, &mut back, &wide).unwrap();
        r.expect_end().unwrap();
        assert_eq!(format!("{back:?}"), format!("{e:?}"));
        // Every index-carrying variant leads with an index of at least
        // 1, which a one-element bound must reject.
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        let narrowed = ev(&mut r, &mut back, &narrow);
        let indexed = words.len() > 1 && !matches!(e, Ev::RetryTimer { .. });
        assert_eq!(narrowed.is_err(), indexed, "{e:?}");
    }
}

// ---------------------------------------------------------------------
// Substitution sweeps.

/// A three-block model small enough to resume thousands of times.
fn tiny_model() -> ModelSpec {
    let block = |name, kind, flops, arrays| ComputeBlock::new(name, kind, flops, arrays);
    let blocks = vec![
        block(
            "conv1",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv1.weight", 40_000)],
        ),
        block(
            "conv2",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv2.weight", 120_000)],
        ),
        block(
            "head",
            BlockKind::Dense,
            10_000_000,
            vec![
                ParamArray::new("head.weight", 900_000),
                ParamArray::new("head.bias", 3_000),
            ],
        ),
    ];
    ModelSpec::from_blocks("TinyDet", SampleUnit::Images, blocks, 800.0, 32, 0.0)
}

/// P3 on a 2x2 racked fabric with machine 1's port at half capacity
/// across the first iteration boundary, as `tests/snapshot_resume.rs`'s
/// `degraded_racked`.
fn degraded_racked() -> ClusterConfig {
    let faults = FaultPlan {
        link_degradations: vec![LinkDegradation {
            machine: 1,
            start: SimTime::from_millis(20),
            duration: SimDuration::from_millis(80),
            capacity_factor: 0.5,
        }],
        ..FaultPlan::none()
    };
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(3)
    .with_backend(BackendKind::Ps)
    .with_slice_trace()
    .with_topology(Topology::new(2, 2, 2.0))
    .with_trace(SimDuration::from_millis(10))
    .with_faults(faults)
}

/// Restores `bytes` under `degraded_racked` and runs the result to its
/// end within `steps` more
/// events. `None` when the reader refuses the bytes; otherwise why the
/// run failed to finish, if it did.
fn resume_within(bytes: &[u8], steps: u64) -> Option<Result<(), String>> {
    let mut sim = ClusterSim::restore(degraded_racked(), bytes).ok()?;
    let target = sim.cfg.warmup_iters + sim.cfg.measure_iters;
    let cap = sim.events + steps;
    let run = catch_unwind(AssertUnwindSafe(move || {
        sim.drive(target, cap)?;
        sim.try_run_traced().map(|_| ())
    }));
    Some(match run {
        Ok(Ok(()) | Err(RunError::Deadlock { .. })) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".into()),
    })
}

/// Substitutes NaN and -1.0 words at every byte offset of `range` in
/// `bytes`; each restore the reader accepts must resume to its end.
/// Returns how many it accepted, and the failures.
fn sweep(bytes: &[u8], range: std::ops::Range<usize>, steps: u64) -> (usize, Vec<String>) {
    let (mut accepted, mut failures) = (0, Vec::new());
    for off in range {
        for word in [f64::NAN, -1.0] {
            let mut b = bytes.to_vec();
            let n = (b.len() - off).min(8);
            b[off..off + n].copy_from_slice(&word.to_bits().to_le_bytes()[..n]);
            let Some(finished) = resume_within(&b, steps) else {
                continue;
            };
            accepted += 1;
            if let Err(why) = finished {
                failures.push(format!("offset {off}, {word}: {why}"));
            }
        }
    }
    (accepted, failures)
}

/// `degraded_racked` paused at its first iteration boundary.
fn racked_at_boundary() -> Result<ClusterSim, RunError> {
    let mut sim = ClusterSim::new(degraded_racked());
    sim.run_until(1)?;
    Ok(sim)
}

/// Why the reader refuses `bytes` as corrupt, if it does.
fn refusal(bytes: &[u8]) -> Option<String> {
    match ClusterSim::restore(degraded_racked(), bytes) {
        Err(SnapshotError::Corrupt(why)) => Some(why),
        _ => None,
    }
}

/// Ring all-reduce on the same model, without faults, as
/// `tests/snapshot_resume.rs`'s `base(BackendKind::Ring, 7)`.
fn ring() -> ClusterConfig {
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(7)
    .with_backend(BackendKind::Ring)
    .with_slice_trace()
}

/// Pauses `cfg` at its first iteration boundary, lets `corrupt` change
/// the live engine, and says why a restore of its snapshot is refused
/// as corrupt, if it is.
fn corrupted_refusal(
    cfg: fn() -> ClusterConfig,
    corrupt: impl FnOnce(&mut ClusterSim),
) -> Option<String> {
    let mut sim = ClusterSim::new(cfg());
    sim.run_until(1).ok()?;
    corrupt(&mut sim);
    match ClusterSim::restore(cfg(), &sim.snapshot()) {
        Err(SnapshotError::Corrupt(why)) => Some(why),
        _ => None,
    }
}

/// The egress unit that sends message `ctx`, and the entry it queues.
fn sender_egress(sim: &mut ClusterSim, id: u64, ctx: MsgCtx) -> (&mut EgressUnit, OutMsg) {
    let unit = sim.egress_mut(ctx.src, sender_role_of(ctx.kind));
    let msg = OutMsg {
        dst: MachineId(ctx.dst),
        bytes: ctx.bytes,
        priority: ctx.priority,
        msg_id: id,
    };
    (unit, msg)
}

/// The length of the first message's entry, id and context, in the
/// message section.
fn first_entry_len(sim: &ClusterSim) -> Option<usize> {
    let (id, ctx) = sim.msgs.iter().next()?;
    let mut one = ClusterSim::new(degraded_racked());
    one.msgs
        .insert(id, MsgCtx { flow: None, ..*ctx })
        .then_some(())?;
    let header = SnapWriter::new(0).finish().len();
    let mut w = SnapWriter::new(0);
    messages(&mut w, &mut one, &Bounds::UNCHECKED).ok()?;
    // Less the two counts: one message, no flows.
    Some(w.finish().len() - header - 16)
}

/// The snapshot at `degraded_racked`'s first iteration boundary, the
/// span of its message and flow sections, and the events the clean
/// resume takes to finish.
fn racked_fixture() -> Option<(Vec<u8>, std::ops::Range<usize>, u64)> {
    let mut sim = racked_at_boundary().ok()?;
    let bytes = sim.snapshot();
    let range = section_in(&bytes, &mut sim, |w, sim| {
        messages(w, sim, &Bounds::UNCHECKED).map(drop)
    })?;
    let before = sim.events;
    let sim = ClusterSim::restore(degraded_racked(), &bytes).ok()?;
    let events = sim.try_run().ok()?.events - before;
    Some((bytes, range, events))
}

/// Where the section `walk` writes from `sim` sits in `bytes`, a
/// snapshot of `sim`.
fn section_in(
    bytes: &[u8],
    sim: &mut ClusterSim,
    walk: impl FnOnce(&mut SnapWriter, &mut ClusterSim) -> Result<(), SnapshotError>,
) -> Option<std::ops::Range<usize>> {
    let header = SnapWriter::new(0).finish().len();
    let mut w = SnapWriter::new(0);
    walk(&mut w, sim).ok()?;
    let section = w.finish().split_off(header);
    let start = bytes
        .windows(section.len())
        .position(|w| w == section.as_slice())?;
    Some(start..start + section.len())
}

/// The message and flow sections hold ids and cross-references a
/// delivery trusts. Whatever the reader accepts there must resume and
/// run to its end (or a structured deadlock) without panicking and
/// within four times the clean resume's events.
#[test]
fn substituted_message_words_are_refused_or_resume_to_the_end() {
    let (bytes, range, clean) = racked_fixture().expect("fixture run failed");
    let (accepted, failures) = sweep(&bytes, range.clone(), 4 * clean);
    assert!(
        failures.is_empty(),
        "{} of {accepted} accepted substitutions in bytes {range:?} failed:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert!(accepted > 0, "the sweep accepted nothing");
}

/// A worker's compute multipliers: a jitter outside the clamp
/// `resample_jitter` applies, or a slowdown that is not finite and
/// positive, would panic the first compute it scales.
#[test]
fn impossible_compute_multipliers_are_refused() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let bytes = sim.snapshot();
    let (jitter, slowdown) = (sim.workers[0].jitter, sim.workers[0].slowdown);
    for (field, value) in [("jitter", jitter), ("slowdown", slowdown)] {
        // Each worker writes the two fields next to each other, worker 0
        // first, so the first such pair in the stream is worker 0's.
        let pair: Vec<u8> = [jitter, slowdown]
            .iter()
            .flat_map(|f| f.to_le_bytes())
            .collect();
        let at = bytes
            .windows(16)
            .position(|w| w == pair.as_slice())
            .expect("worker 0's pair");
        let at = if field == "jitter" { at } else { at + 8 };
        assert_eq!(bytes[at..at + 8], value.to_le_bytes());
        for bad in [f64::NAN, -1.0] {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            match ClusterSim::restore(degraded_racked(), &b).map(|_| ()) {
                Err(SnapshotError::Corrupt(why)) => assert!(why.contains(field), "{why}"),
                other => panic!("{field} = {bad} was not refused: {other:?}"),
            }
        }
    }
}

/// A flow's rate: the fabric allocates rates that are finite and at
/// least 0, and a NaN, negative or infinite one would corrupt every
/// drain time it enters.
#[test]
fn impossible_flow_rates_are_refused() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let bytes = sim.snapshot();
    let now = sim.queue.now();
    let fabric = section_in(&bytes, &mut sim, |w, sim| sim.net.walk(w, now));
    let start = fabric.expect("the fabric section").start;
    // The flow count, then the first flow: id, source, destination,
    // priority (4 bytes), tag, size, remaining bytes, rate.
    let count = u64::from_le_bytes(bytes[start..start + 8].try_into().unwrap());
    assert!(count > 0, "the fixture needs a flow in flight");
    let at = start + 8 + 3 * 8 + 4 + 3 * 8;
    let rate = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    assert!(rate.is_finite() && rate >= 0.0, "rate {rate} at byte {at}");
    for bad in [f64::NAN, -1.0, f64::INFINITY] {
        let mut b = bytes.clone();
        b[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        let why = refusal(&b);
        let named = why.as_deref().is_some_and(|w| w.contains("rate"));
        assert!(named, "rate {bad} was not refused by name: {why:?}");
    }
}

/// Each message in the fabric names one flow the fabric holds, tagged
/// with its id, and no two flows name one message; live ids sit below
/// the id counter within a span the table indexes. A restore refuses
/// every other link, so no delivery meets an unknown message.
#[test]
fn flow_links_that_are_not_one_to_one_are_refused() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let in_fabric = sim.msgs.flows(|_| true);
    assert!(in_fabric.len() >= 2, "the fixture needs two flows");
    let ((fa, a, _), (fb, b, _)) = (in_fabric[0], in_fabric[1]);
    let queued = sim.msgs.iter().find(|(_, c)| c.flow.is_none());
    let queued = queued.expect("the fixture needs a queued message").0;
    let bytes = sim.snapshot();
    assert!(ClusterSim::restore(degraded_racked(), &bytes).is_ok());

    // Two flows that name one message: the flow section closes the
    // message sections as `(count, [flow id, message id]…)`, so point its
    // second entry at the first entry's message.
    let (fixture, sections, _) = racked_fixture().expect("fixture run failed");
    assert_eq!(fixture, bytes);
    let at = sections.end - (8 + 16 * in_fabric.len());
    let mut twice = bytes.clone();
    twice.copy_within(at + 16..at + 24, at + 32);
    assert_eq!(
        refusal(&twice).as_deref(),
        Some("two flows name one message")
    );

    type Corrupt = fn(&mut ClusterSim, [u64; 3], [FlowId; 2]);
    let cases: [(&str, Corrupt); 5] = [
        (
            "fabric flow tag is not its message's id",
            |sim, [a, b, _], [fa, fb]| {
                sim.msgs.get_mut(a).unwrap().flow = Some(fb);
                sim.msgs.get_mut(b).unwrap().flow = Some(fa);
            },
        ),
        (
            "message names a flow the fabric does not hold",
            |sim, [.., q], _| {
                sim.msgs.get_mut(q).unwrap().flow = Some(FlowId(u64::MAX));
            },
        ),
        ("flow unknown to the engine", |sim, [a, ..], _| {
            sim.msgs.get_mut(a).unwrap().flow = None;
        }),
        ("message id counter behind live ids", |sim, _, _| {
            sim.next_msg_id = sim.msgs.iter().last().unwrap().0;
        }),
        (
            "message ids span more than the table indexes",
            |sim, _, _| {
                sim.next_msg_id = sim.msgs.iter().next().unwrap().0 + MsgTable::MAX_SPAN + 1;
            },
        ),
    ];
    for (what, corrupt) in cases {
        let mut sim = racked_at_boundary().expect("fixture run failed");
        corrupt(&mut sim, [a, b, queued], [fa, fb]);
        let why = refusal(&sim.snapshot()).unwrap_or_default();
        assert!(why.contains(what), "{what}: refused with {why:?}");
    }
}

/// A message waiting in an egress queue must be a live one, of a kind
/// the configuration sends, on its own sender's queue, out of the
/// fabric, and queued once;
/// otherwise its delivery would meet state it cannot handle.
#[test]
fn queued_messages_the_engine_cannot_deliver_are_refused() {
    type Corrupt = fn(&mut ClusterSim, u64);
    let cases: [(&str, Corrupt); 6] = [
        ("queued message unknown to the engine", |sim, q| {
            sim.msgs.remove(q);
        }),
        ("queued message also in the fabric", |sim, _| {
            let (_, id, ctx) = sim.msgs.flows(|_| true)[0];
            let (unit, msg) = sender_egress(sim, id, ctx);
            unit.enqueue(msg);
        }),
        ("message queued twice", |sim, q| {
            let ctx = *sim.msgs.get(q).unwrap();
            let (unit, msg) = sender_egress(sim, q, ctx);
            unit.enqueue(msg);
        }),
        ("message kind foreign to the backend", |sim, q| {
            let kind = MsgKind::ReduceScatter {
                key: 0,
                round: 0,
                step: 0,
            };
            sim.msgs.get_mut(q).unwrap().kind = kind;
        }),
        (
            "rack aggregation message without rack-local placement",
            |sim, q| {
                let ctx = sim.msgs.get_mut(q).unwrap();
                ctx.kind = MsgKind::RackPush { key: 0, round: 0 };
            },
        ),
        ("queued message on another sender's egress", |sim, q| {
            let ctx = sim.msgs.get_mut(q).unwrap();
            ctx.src = (ctx.src + 1) % 4;
        }),
    ];
    for (what, corrupt) in cases {
        let mut sim = racked_at_boundary().expect("fixture run failed");
        let queued = sim.msgs.iter().find(|(_, c)| c.flow.is_none());
        let queued = queued.expect("the fixture needs a queued message").0;
        corrupt(&mut sim, queued);
        assert_eq!(refusal(&sim.snapshot()).as_deref(), Some(what));
    }
}

/// Each context's in-flight byte is derived from the flows: set only on
/// messages in the fabric, and only when the fault plan can lose them.
/// `degraded_racked` cannot, so a set byte contradicts the flows.
#[test]
fn an_in_flight_byte_that_contradicts_the_flows_is_refused() {
    let sim = racked_at_boundary().expect("fixture run failed");
    let (bytes, sections, _) = racked_fixture().expect("fixture run failed");
    // The first message's entry ends with its flag.
    let entry = first_entry_len(&sim).expect("a live message");
    let flag = sections.start + 8 + entry - 1;
    assert_eq!(bytes[flag], 0);
    let mut set = bytes.clone();
    set[flag] = 1;
    assert_eq!(
        refusal(&set).as_deref(),
        Some("message in-flight flag contradicts its flow")
    );
}

/// Ids ascend strictly and end at `u64::MAX`: ids at the top of the
/// range are refused, never wrapped into the table's window.
#[test]
fn message_ids_at_the_top_of_the_range_are_refused() {
    let sim = racked_at_boundary().expect("fixture run failed");
    let (bytes, sections, _) = racked_fixture().expect("fixture run failed");
    let first = sections.start + 8;
    let second = first + first_entry_len(&sim).expect("a live message");
    for ids in [[u64::MAX, u64::MAX], [u64::MAX, 3]] {
        let mut b = bytes.clone();
        b[first..first + 8].copy_from_slice(&ids[0].to_le_bytes());
        b[second..second + 8].copy_from_slice(&ids[1].to_le_bytes());
        assert_eq!(
            refusal(&b).as_deref(),
            Some("message ids not ascending"),
            "{ids:?}"
        );
    }
}

/// Engine state beyond the messages' own fields: every egress unit's
/// in-flight count matches the messages it has in the fabric, a server
/// processes only rounds it has reached, a completion is pending exactly
/// for the item a server holds, and rounds complete at as many pushes as
/// there are live members.
#[test]
fn state_a_delivery_would_trip_over_is_refused() {
    type Corrupt = fn(&mut ClusterSim);
    let membership = "expected pushes differ from the live membership";
    let cases: [(&str, Corrupt); 5] = [
        (
            "egress in-flight count disagrees with its messages",
            |sim| {
                let EgressUnit::Single { in_flight, .. } = &mut sim.workers[0].egress else {
                    panic!("P3 sends from a single-consumer unit");
                };
                *in_flight += 1;
            },
        ),
        (
            "processing item from a round its server has not reached",
            |sim| {
                let item = ProcItem {
                    key: 0,
                    round: u64::MAX,
                    worker: 0,
                    members: 1,
                };
                sim.servers[0].proc_queue.push(0, item);
            },
        ),
        (
            "server completion events disagree with its item in flight",
            |sim| {
                let server = idle_server(sim);
                let done = Ev::ProcDone { server };
                sim.queue.schedule_in(SimDuration::from_nanos(1), done);
            },
        ),
        (membership, |sim| sim.expected_pushes = 0),
        (membership, |sim| sim.expected_pushes += 1),
    ];
    for (what, corrupt) in cases {
        let why = corrupted_refusal(degraded_racked, corrupt);
        assert_eq!(why.as_deref(), Some(what));
    }
}

/// A server holding no item.
fn idle_server(sim: &ClusterSim) -> usize {
    let idle = sim.servers.iter().position(|ss| ss.current.is_none());
    idle.expect("the fixture needs an idle server")
}

/// One server's section of the snapshot.
fn server_section(ss: &mut ServerState) -> Vec<u8> {
    let header = SnapWriter::new(0).finish().len();
    let mut w = SnapWriter::new(0);
    let written = server(&mut w, ss, &Bounds::UNCHECKED);
    assert!(written.is_ok(), "only a reader fails");
    w.finish().split_off(header)
}

/// A server's busy byte repeats whether it holds an item. Set on an
/// idle server, it would restore a unit that waits forever for a
/// completion nothing scheduled, so it is refused.
#[test]
fn a_busy_byte_on_an_idle_server_is_refused() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let bytes = sim.snapshot();
    let s = idle_server(&sim);
    let ss = &mut sim.servers[s];
    // The idle section and the same server holding an item first differ
    // at the busy byte.
    let idle = server_section(ss);
    ss.current = Some(ProcItem {
        key: 0,
        round: 0,
        worker: 0,
        members: 1,
    });
    let busy = server_section(ss);
    let flag = idle.iter().zip(&busy).position(|(a, b)| a != b);
    let start = bytes.windows(idle.len()).position(|w| w == idle.as_slice());
    let at = start.expect("the section in the snapshot") + flag.expect("sections differ");
    assert_eq!(bytes[at], 0);
    let mut set = bytes.clone();
    set[at] = 1;
    assert_eq!(
        refusal(&set).as_deref(),
        Some("processing flag contradicts the item in flight")
    );
}

/// An endpoint's egress discipline and window are the configuration's:
/// a snapshot edited to another window restores into a state the live
/// engine never reaches, so it is refused.
#[test]
fn an_egress_window_the_configuration_did_not_choose_is_refused() {
    let why = corrupted_refusal(degraded_racked, |sim| {
        let EgressUnit::Single { window, .. } = &mut sim.workers[0].egress else {
            panic!("P3 sends from a single-consumer unit");
        };
        *window = 1;
    });
    assert_eq!(
        why.as_deref(),
        Some("egress window differs from the configuration's")
    );
    let why = corrupted_refusal(degraded_racked, |sim| {
        sim.workers[0].egress = EgressUnit::per_dest(sim.cfg.machines);
    });
    assert_eq!(
        why.as_deref(),
        Some("egress discipline differs from the configuration's")
    );
}

/// Under a collective backend, every message is a chunk of the active
/// step, and no more of them are live than the step still awaits.
#[test]
fn collective_chunks_outside_the_active_step_are_refused() {
    let mut sim = ClusterSim::new(ring());
    sim.run_until(1).expect("fixture run failed");
    let active = sim.collective.as_ref().and_then(|st| st.active);
    assert!(active.is_some(), "the fixture needs a collective in flight");
    assert!(sim.msgs.len() > 0, "the fixture needs a chunk in flight");
    assert!(ClusterSim::restore(ring(), &sim.snapshot()).is_ok());

    type Corrupt = fn(&mut ClusterSim);
    let cases: [(&str, Corrupt); 3] = [
        ("message kind foreign to the backend", |sim| {
            let id = sim.msgs.iter().next().unwrap().0;
            let kind = MsgKind::Push { key: 0, round: 0 };
            sim.msgs.get_mut(id).unwrap().kind = kind;
        }),
        ("collective chunk outside the active step", |sim| {
            let id = sim.msgs.iter().next().unwrap().0;
            match &mut sim.msgs.get_mut(id).unwrap().kind {
                MsgKind::ReduceScatter { step, .. } | MsgKind::AllGather { step, .. } => {
                    *step += 1;
                }
                kind => panic!("{kind:?} under the ring backend"),
            }
        }),
        (
            "more collective chunks than the active step awaits",
            |sim| {
                let chunks = sim.msgs.len();
                let st = sim.collective.as_mut().unwrap();
                st.active.as_mut().unwrap().outstanding = chunks - 1;
            },
        ),
    ];
    for (what, corrupt) in cases {
        assert_eq!(corrupted_refusal(ring, corrupt).as_deref(), Some(what));
    }
}

/// A per-destination unit keeps each queued message in its own
/// destination's lane; the lane it is read from must be that lane.
#[test]
fn a_message_in_another_destinations_lane_is_refused() {
    let b = Bounds {
        machines: 4,
        ..Bounds::UNCHECKED
    };
    for (lane, refused) in [(2, false), (1, true)] {
        let mut unit = EgressUnit::per_dest(4);
        let EgressUnit::PerDest { queues, .. } = &mut unit else {
            unreachable!("built per destination");
        };
        queues[lane].push_back(OutMsg {
            dst: MachineId(2),
            bytes: 100,
            priority: Priority(0),
            msg_id: 0,
        });
        let mut w = SnapWriter::new(0);
        egress(&mut w, &mut unit, &Bounds::UNCHECKED).expect("only a reader fails");
        let bytes = w.finish();
        let (mut r, _) = SnapReader::new(&bytes).unwrap();
        let mut back = EgressUnit::per_dest(4);
        match egress(&mut r, &mut back, &b) {
            Err(SnapshotError::Corrupt(why)) if refused => {
                assert_eq!(why, "message in another destination's lane");
            }
            Ok(()) if !refused => assert_eq!(back.backlog(), 1),
            other => panic!("lane {lane}: {other:?}"),
        }
    }
}
