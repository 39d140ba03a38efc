//! Per-variant pins of the event layout (the rolling hash, the round
//! trip, and the reader's index checks), a substitution sweep over the
//! snapshot (whatever a reader accepts must resume and run to its end
//! without panicking), and one refusal test per state the stream can
//! carry that the engine cannot run from.

use super::super::fixtures::{base, baseline, corrupted_refusal, degraded_racked};
use super::super::msg_table::MsgTable;
use super::super::types::{
    sender_role_of, Ev, MsgCtx, MsgKind, Phase, ProcItem, Role, WorkerState,
};
use super::super::ClusterSim;
use super::fold_event;
use super::walk::{ev, messages, worker, Bounds};
use crate::config::{BackendKind, ClusterConfig, RunError};
use crate::egress::{EgressUnit, OutMsg};
use p3_des::snap::{fnv64_fold, SnapReader, SnapWriter, SnapshotError, SNAP_VERSION};
use p3_des::{SimDuration, SimTime};
use p3_net::MachineId;
use p3_pserver::Key;
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

/// Ring all-reduce on the same model, without faults.
fn ring() -> ClusterConfig {
    base(BackendKind::Ring, 7)
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
    one.msgs.insert(id, *ctx).then_some(())?;
    let header = SnapWriter::new(0).finish().len();
    let mut w = SnapWriter::new(0);
    messages(&mut w, &mut one, &Bounds::UNCHECKED).ok()?;
    // Less the count: one message.
    Some(w.finish().len() - header - 8)
}

/// The snapshot at `degraded_racked`'s first iteration boundary, the
/// span of its message section, and the events the clean resume takes
/// to finish.
fn racked_fixture() -> Option<(Vec<u8>, std::ops::Range<usize>, u64)> {
    let mut sim = racked_at_boundary().ok()?;
    let bytes = sim.snapshot();
    let range = section_in(&bytes, &mut sim, |w, sim| {
        messages(w, sim, &Bounds::UNCHECKED)
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

/// Whatever the reader accepts must resume and run to its end (or a
/// structured deadlock) without panicking and within four times the
/// clean resume's events. A release build sweeps every byte of the
/// snapshot (CI's `golden-digest` job runs it); a debug build sweeps the
/// message section, which holds the ids and cross-references a delivery
/// trusts.
#[test]
fn substituted_words_are_refused_or_resume_to_the_end() {
    let (bytes, messages, clean) = racked_fixture().expect("fixture run failed");
    let range = if cfg!(debug_assertions) {
        messages
    } else {
        0..bytes.len()
    };
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

/// The fabric section of `bytes`, a snapshot of `sim`, and the offset of
/// each flow record in it. A record is the flow's id, source,
/// destination, priority (4 bytes), tag, size and remaining bytes.
fn flow_records(bytes: &[u8], sim: &mut ClusterSim) -> Vec<usize> {
    let now = sim.queue.now();
    let fabric = section_in(bytes, sim, |w, sim| sim.net.walk(w, now));
    let start = fabric.expect("the fabric section").start;
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let flows = word(start) as usize;
    (0..flows).map(|i| start + 8 + 52 * i).collect()
}

/// Restore links each message to the fabric transfer its tag names, so
/// the fabric's ids and tags must make that link one-to-one: a tag that
/// names no live message, two transfers that tag one message, or two
/// that share an id are refused.
#[test]
fn fabric_tags_that_do_not_link_one_to_one_are_refused() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let bytes = sim.snapshot();
    assert!(ClusterSim::restore(degraded_racked(), &bytes).is_ok());
    let records = flow_records(&bytes, &mut sim);
    let [first, second, ..] = records[..] else {
        panic!("the fixture needs two flows");
    };
    let (id, tag) = (0, 3 * 8 + 4);
    let cases = [
        (
            second + tag,
            first + tag,
            "fabric flow's message linked to another flow",
        ),
        (second + id, first + id, "two fabric flows share an id"),
    ];
    for (to, from, what) in cases {
        let mut b = bytes.clone();
        b.copy_within(from..from + 8, to);
        assert_eq!(refusal(&b).as_deref(), Some(what));
    }
    let mut b = bytes.clone();
    b[first + tag..first + tag + 8].copy_from_slice(&sim.next_msg_id.to_le_bytes());
    let why = refusal(&b);
    assert_eq!(
        why.as_deref(),
        Some("fabric flow tagged with no live message")
    );
}

/// Live ids sit below the id counter, within a span the table indexes.
#[test]
fn message_ids_the_counter_does_not_cover_are_refused() {
    type Corrupt = fn(&mut ClusterSim);
    let cases: [(&str, Corrupt); 2] = [
        ("message id counter behind live ids", |sim| {
            sim.next_msg_id = sim.msgs.iter().last().unwrap().0;
        }),
        ("message ids span more than the table indexes", |sim| {
            sim.next_msg_id = sim.msgs.iter().next().unwrap().0 + MsgTable::MAX_SPAN + 1;
        }),
    ];
    for (what, corrupt) in cases {
        assert_eq!(
            corrupted_refusal(degraded_racked, corrupt).as_deref(),
            Some(what)
        );
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

/// Ids ascend strictly and end below `u64::MAX`: ids at the top of the
/// range are refused, never wrapped into the table's window.
#[test]
fn message_ids_at_the_top_of_the_range_are_refused() {
    let sim = racked_at_boundary().expect("fixture run failed");
    let (bytes, sections, _) = racked_fixture().expect("fixture run failed");
    let first = sections.start + 8;
    let second = first + first_entry_len(&sim).expect("a live message");
    let counter = sections.start - 8;
    let top = u64::MAX - 1;
    let cases = [
        ([top, top], "message ids not ascending"),
        ([top, 3], "message ids span more than the table indexes"),
        ([u64::MAX, top], "message id counter behind live ids"),
    ];
    for (ids, what) in cases {
        let mut b = bytes.clone();
        b[counter..counter + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        b[first..first + 8].copy_from_slice(&ids[0].to_le_bytes());
        b[second..second + 8].copy_from_slice(&ids[1].to_le_bytes());
        assert_eq!(refusal(&b).as_deref(), Some(what), "{ids:?}");
    }
}

/// Engine state beyond the messages' own fields: a single consumer frees
/// its slot at delivery, so no lane release may be pending for it; a
/// server processes only rounds it has reached; and a completion is
/// pending exactly for the item a server holds.
#[test]
fn state_a_delivery_would_trip_over_is_refused() {
    type Corrupt = fn(&mut ClusterSim);
    let cases: [(&str, Corrupt); 3] = [
        (
            "egress in-flight count disagrees with its messages",
            |sim| {
                let ready = Ev::EgressReady {
                    machine: 0,
                    role: Role::Server,
                    dst: MachineId(1),
                    inc: 0,
                };
                sim.queue.schedule_in(SimDuration::from_nanos(1), ready);
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
    ];
    for (what, corrupt) in cases {
        let why = corrupted_refusal(degraded_racked, corrupt);
        assert_eq!(why.as_deref(), Some(what));
    }
}

/// A lane of a per-destination unit carries one message at a time: a
/// second pending release of the live incarnation, on a lane that already
/// has its message in the fabric or a release pending, is refused.
#[test]
fn a_lane_loaded_twice_is_refused() {
    let why = corrupted_refusal(baseline, |sim| {
        let (_, _, ctx) = sim.msgs.flows(|_| true)[0];
        let role = sender_role_of(ctx.kind);
        let inc = match role {
            Role::Worker => sim.workers[ctx.src].incarnation,
            Role::Server => 0,
        };
        let ready = Ev::EgressReady {
            machine: ctx.src,
            role,
            dst: MachineId(ctx.dst),
            inc,
        };
        sim.queue.schedule_in(SimDuration::from_nanos(1), ready);
    });
    let what = "egress in-flight count disagrees with its messages";
    assert_eq!(why.as_deref(), Some(what));
}

/// A server holding no item.
fn idle_server(sim: &ClusterSim) -> usize {
    let idle = sim.servers.iter().position(|ss| ss.current.is_none());
    idle.expect("the fixture needs an idle server")
}

/// `degraded_racked`'s snapshot at its first iteration boundary with
/// worker 0's section replaced by the one `edit` makes of it, given the
/// clock.
fn worker_edited(edit: impl FnOnce(&mut WorkerState, SimTime)) -> Vec<u8> {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let bytes = sim.snapshot();
    let now = sim.queue.now();
    let (ws, msgs) = (&mut sim.workers[0], &sim.msgs);
    let section = |ws: &mut WorkerState| {
        let header = SnapWriter::new(0).finish().len();
        let mut w = SnapWriter::new(0);
        worker(&mut w, ws, msgs, &Bounds::UNCHECKED).expect("only a reader fails");
        w.finish().split_off(header)
    };
    let before = section(ws);
    edit(ws, now);
    let after = section(ws);
    let at = bytes
        .windows(before.len())
        .position(|w| w == before.as_slice());
    let at = at.expect("worker 0's section in the snapshot");
    [&bytes[..at], &after, &bytes[at + before.len()..]].concat()
}

/// Refused as corrupt for `what`. A restore that accepts the bytes runs
/// to its end before the test fails: a state the result assembly or the
/// clock arithmetic cannot handle panics there.
fn assert_refused(bytes: &[u8], what: &str) {
    match ClusterSim::restore(degraded_racked(), bytes) {
        Err(SnapshotError::Corrupt(why)) => assert_eq!(why, what),
        Err(e) => panic!("refused as {e}, not for {what:?}"),
        Ok(sim) => panic!("accepted, and ran to {:?}", sim.try_run().map(|r| r.events)),
    }
}

/// An iteration that started after the clock ends with a negative
/// duration.
#[test]
fn an_iteration_started_after_the_clock_is_refused() {
    let bytes = worker_edited(|ws, now| ws.iter_started = now + SimDuration::from_secs(1));
    assert_refused(&bytes, "worker instant after the clock");
}

/// A stall that began after the clock ends with a negative duration.
#[test]
fn a_stall_begun_after_the_clock_is_refused() {
    let bytes = worker_edited(|ws, now| {
        ws.stall = Some((0, now + SimDuration::from_secs(1)));
    });
    assert_refused(&bytes, "worker instant after the clock");
}

/// A worker past warmup has opened its measurement window; one that
/// has not never opens it, and the result assembly finds it missing.
#[test]
fn a_worker_past_warmup_without_a_measurement_start_is_refused() {
    let bytes = worker_edited(|ws, _| {
        assert!(ws.completed >= 1, "worker 0 finished its warmup");
        ws.measure_start = None;
    });
    assert_refused(&bytes, "worker past warmup without a measurement start");
}

/// A worker at its target has closed its measurement window; one that
/// has not never closes it, and the result assembly finds it missing.
#[test]
fn a_worker_at_its_target_without_a_measurement_end_is_refused() {
    let bytes = worker_edited(|ws, _| {
        assert!(ws.measure_end.is_none());
        ws.completed = 3;
    });
    assert_refused(&bytes, "worker past its target without a measurement end");
}

/// A measurement window closes after it opens, and an iteration lasts a
/// finite, non-negative time; the result assembly divides by the one and
/// sorts the other.
#[test]
fn impossible_measurements_are_refused() {
    let bytes = worker_edited(|ws, now| {
        ws.measure_start = Some(now);
        ws.measure_end = Some(now - SimDuration::from_nanos(1));
    });
    assert_refused(&bytes, "measurement window ends before it starts");
    for bad in [f64::NAN, -1.0] {
        let bytes = worker_edited(|ws, _| ws.measured_iters.push(bad));
        assert_refused(&bytes, "measured iteration not finite and non-negative");
    }
}

/// A snapshot of an older format is refused by its version, whatever
/// its body holds.
#[test]
fn a_v3_snapshot_is_refused_by_version() {
    let mut sim = racked_at_boundary().expect("fixture run failed");
    let mut bytes = sim.snapshot();
    bytes[8..12].copy_from_slice(&3u32.to_le_bytes());
    let err = ClusterSim::restore(degraded_racked(), &bytes).map(|_| ());
    let expected = SnapshotError::UnsupportedVersion {
        found: 3,
        expected: SNAP_VERSION,
    };
    assert_eq!(err, Err(expected));
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
/// destination's lane; a lane holding another destination's message
/// would start that message and free the wrong lane at its release.
#[test]
fn a_message_in_another_destinations_lane_is_refused() {
    let why = corrupted_refusal(baseline, |sim| {
        let home = sim.plan.slice(Key(0)).server.0;
        let src = (home + 1) % 4;
        let round = sim.servers[home].version[0];
        sim.send_ps(MsgKind::Push { key: 0, round }, src, home);
        let EgressUnit::PerDest { queues, .. } = &mut sim.workers[src].egress else {
            unreachable!("the baseline sends per destination");
        };
        let msg = queues[home].pop_back().expect("the push just queued");
        queues[src].push_back(msg);
    });
    assert_eq!(
        why.as_deref(),
        Some("message in another destination's lane")
    );
}
