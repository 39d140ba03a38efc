//! Tests of the state the [`Network`] keeps between reallocations: the
//! class index, the scaled link capacities and the remembered next event,
//! including across snapshot and restore.

use super::walk::tests::{racked, restore};
use super::*;
use crate::types::Bandwidth;

/// Checks the class index against the flows: a permutation of the flow
/// slots in canonical order (priority, source, destination), each entry
/// carrying its flow's spec, with the specs and fingerprint an index built
/// afresh from the flows would have.
pub(super) fn assert_class_index(n: &Network) {
    let entries = n.by_class.entries();
    for &(slot, spec) in entries {
        let flow = n.flows.get(slot).map(ActiveFlow::spec);
        assert_eq!(flow, Some(spec), "stale entry for slot {slot}");
    }
    let mut slots: Vec<usize> = entries.iter().map(|&(slot, _)| slot).collect();
    slots.sort_unstable();
    assert!(
        slots.into_iter().eq(0..n.flows.len()),
        "not a permutation of the slots"
    );
    assert!(
        entries.is_sorted_by_key(|(_, f)| (f.priority, f.src, f.dst)),
        "class index not in canonical order: {entries:?}"
    );
    let fresh = memo::ClassIndex::build(n.flows.iter().map(ActiveFlow::spec));
    let specs = |e: &[(usize, FlowSpec)]| e.iter().map(|&(_, f)| f).collect::<Vec<_>>();
    assert_eq!(specs(entries), specs(fresh.entries()));
    let drift = "fingerprint drifted from the flow set";
    assert_eq!(n.by_class.fingerprint(), fresh.fingerprint(), "{drift}");
}

/// A delivery as `(instant, tag, bottleneck)`.
type Delivery = (SimTime, u64, Option<usize>);

/// Polls `n` until idle: every delivery and every `next_event_time`
/// answer on the way.
fn drain(n: &mut Network) -> (Vec<Delivery>, Vec<SimTime>) {
    let (mut done, mut times) = (Vec::new(), Vec::new());
    while let Some(t) = n.next_event_time() {
        times.push(t);
        done.extend(n.poll(t).into_iter().map(|c| (t, c.tag, c.bottleneck)));
        assert_class_index(n);
    }
    (done, times)
}

#[test]
fn restore_rebuilds_capacities_and_class_index() {
    let cfg = racked();
    // (src, dst, bytes, priority): five classes, several flows per class.
    let script = [
        (0, 2, 3_000_000, 0),
        (0, 1, 2_000_000, 1),
        (1, 3, 1_000_000, 2),
        (2, 0, 4_000_000, 1),
        (3, 1, 2_000_000, 3),
        (1, 0, 500_000, 0),
        (0, 3, 1_000_000, 3),
        (2, 1, 3_000_000, 2),
        (3, 0, 1_000_000, 4),
        (1, 2, 2_000_000, 4),
        (3, 2, 800_000, 2),
        (0, 2, 2_500_000, 4),
    ];
    let mut a = Network::new(cfg.clone());
    for (i, &(src, dst, bytes, p)) in script.iter().enumerate() {
        let at = SimTime::from_micros(100 * i as u64);
        a.poll(at);
        if i == 4 {
            // Machine 0's NIC degrades to 40% transmit, 70% receive.
            a.set_port_scale(at, MachineId(0), 0.4, 0.7);
        }
        let (src, dst) = (MachineId(src), MachineId(dst));
        a.start_flow(at, src, dst, bytes, Priority(p), i as u64);
        assert_class_index(&a);
    }
    // Let several flows drain, then cancel one still in flight.
    let mut drained = 0;
    while drained < 3 {
        let t = a.next_event_time().expect("flows in flight");
        drained += a.poll(t).len();
        assert_class_index(&a);
    }
    let t = a.next_event_time().expect("flows in flight");
    let victim = a.flows.first().expect("flows in flight").id;
    assert!(a.cancel_flow(t, victim));
    assert_class_index(&a);
    let classes = a
        .by_class
        .entries()
        .chunk_by(|(_, x), (_, y)| x.priority == y.priority);
    assert!(classes.count() >= 3, "fewer than three classes in flight");

    let mut b = Network::new(cfg);
    assert_eq!(b.next_event_time(), None, "a fresh fabric is idle");
    restore(&mut b, &mut a, t);
    assert_class_index(&b);
    let (want, want_times) = drain(&mut a);
    let (got, got_times) = drain(&mut b);
    assert!(!want.is_empty());
    assert_eq!(got, want, "restored fabric delivered differently");
    assert_eq!(got_times, want_times, "next_event_time sequence differs");
    assert_eq!(b.stats(), a.stats());
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `next_event_time`'s remembered answer always equals a fresh
        /// scan, whatever mix of starts (loopback included), polls at
        /// arbitrary instants, rescales and cancellations came before.
        #[test]
        fn next_event_memo_matches_a_fresh_scan(
            ops in prop::collection::vec((0u8..4, 0usize..4, 0usize..4, 1u64..2_000_000, 0u64..400), 1..40),
            gbps in 1.0f64..20.0,
        ) {
            let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(gbps))
                .with_latency(SimDuration::from_micros(5));
            let mut n = Network::new(cfg);
            let mut now = SimTime::ZERO;
            let mut ids = Vec::new();
            for (op, a, b, bytes, step_us) in ops {
                // Half the steps stay at the same instant.
                now += SimDuration::from_micros(step_us.saturating_sub(200));
                match op {
                    0 => ids.push(n.start_flow(now, MachineId(a), MachineId(b), bytes, Priority((bytes % 3) as u32), bytes)),
                    1 => {
                        n.poll(now);
                    }
                    2 => n.set_port_scale(now, MachineId(a), 0.25 * (b + 1) as f64, 1.0),
                    _ => {
                        if let Some(&id) = ids.get(bytes as usize % ids.len().max(1)) {
                            n.cancel_flow(now, id);
                        }
                    }
                }
                prop_assert_eq!(n.next_event_time(), n.scan_next_event());
            }
        }
    }
}
