//! Per-variant pins of the event layout: the rolling hash, the
//! round trip, and the reader's index checks.

use super::super::types::{Ev, Phase, Role};
use super::fold_event;
use super::walk::{ev, Bounds};
use p3_des::snap::{fnv64_fold, SnapReader, SnapWriter};
use p3_des::SimTime;
use p3_net::MachineId;

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
