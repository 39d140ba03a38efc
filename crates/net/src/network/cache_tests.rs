//! Tests of the state the [`Network`] keeps between reallocations: the
//! class index, the scaled link capacities, the remembered next event and
//! the rates it leaves stale until they are read, including across
//! snapshot and restore.

use super::walk::tests::{racked, restore};
use super::*;
use crate::types::Bandwidth;

/// Checks the class index against the flows: a permutation of the flow
/// slots in canonical order (priority, source, destination), each entry
/// carrying its flow's spec, with the class bounds, source runs, link
/// counts and fingerprint an index built afresh from the flows would have.
pub(super) fn assert_class_index(n: &Network) {
    let entries = n.by_class.entries();
    for &(slot, spec) in &entries {
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
    let fresh = ClassIndex::build(n.flows.iter().map(ActiveFlow::spec), &n.graph);
    let drift = "class index drifted from the flow set";
    assert_eq!(n.by_class.layout(), fresh.layout(), "{drift}");
}

/// [`Network::scan_next_event`] as first written: every draining flow's
/// instant converted on its own, then the earliest taken.
fn scan_per_flow(n: &Network) -> Option<SimTime> {
    let mut best: Option<SimTime> = None;
    for (&remaining, &rate) in n.remaining.iter().zip(&n.rates) {
        if rate > 0.0 {
            let secs = remaining / rate;
            let ns = (secs * 1e9).ceil().max(0.0).min(u64::MAX as f64) as u64;
            let t = n.last_update.saturating_add(SimDuration::from_nanos(ns));
            best = Some(best.map_or(t, |b: SimTime| b.min(t)));
        }
    }
    for d in &n.delivering {
        best = Some(best.map_or(d.at, |b: SimTime| b.min(d.at)));
    }
    best
}

/// A flow as the per-flow passes below see it: `(id, remaining, rate)`.
type Record = (FlowId, f64, f64);

/// [`Network::advance`]'s progress step as first written, one flow at a
/// time over whole records.
fn advance_per_flow(flows: &mut [Record], dt: f64) {
    for (_, remaining, rate) in flows {
        if *rate > 0.0 {
            *remaining = (*remaining - *rate * dt).max(0.0);
        }
    }
}

/// [`Network::poll`]'s drain as first written: each flow tested in turn
/// and a drained one swap-removed. Returns the drained flows in order.
fn drain_per_flow(flows: &mut Vec<Record>) -> Vec<FlowId> {
    let mut drained = Vec::new();
    let mut i = 0;
    while let Some(&(id, remaining, rate)) = flows.get(i) {
        // Sub-nanosecond residue from ceil-rounding counts as drained.
        let eps = rate * 1e-9 + 1e-9;
        if remaining <= eps {
            flows.swap_remove(i);
            drained.push(id);
        } else {
            i += 1;
        }
    }
    drained
}

/// The fabric's flows as records, in slot order.
fn records(n: &Network) -> Vec<Record> {
    let cols = n.remaining.iter().zip(&n.rates);
    let flows = n.flows.iter().zip(cols);
    flows.map(|(f, (&r, &q))| (f.id, r, q)).collect()
}

/// A record's bits, for exact comparison.
fn bits(flows: &[Record]) -> Vec<(FlowId, u64, u64)> {
    let bits = |&(id, r, q): &Record| (id, r.to_bits(), q.to_bits());
    flows.iter().map(bits).collect()
}

/// An empty fabric has no next event, and a flow whose drain time
/// overflows to infinity drains at the last instant.
#[test]
fn scan_of_an_empty_fabric_and_of_an_infinite_drain_time() {
    let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(8.0)).with_latency(SimDuration::ZERO);
    let mut n = Network::new(cfg);
    assert_eq!((n.scan_next_event(), scan_per_flow(&n)), (None, None));
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000,
        Priority(0),
        0,
    );
    n.next_event_time();
    let (Some(remaining), Some(rate)) = (n.remaining.first(), n.rates.first_mut()) else {
        panic!("the flow is in flight");
    };
    *rate = f64::MIN_POSITIVE;
    assert!((remaining / *rate).is_infinite());
    let end = Some(SimTime::MAX);
    assert_eq!((n.scan_next_event(), scan_per_flow(&n)), (end, end));
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
    let entries = a.by_class.entries();
    let classes = entries.chunk_by(|(_, x), (_, y)| x.priority == y.priority);
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

/// One scripted change: `(kind, machine, machine, priority, x)` is a start,
/// a cancel or a port rescale.
type Change = (u8, usize, usize, u32, u64);

fn change(n: &mut Network, now: SimTime, (kind, a, b, p, x): Change) {
    match kind {
        0 | 1 => {
            let bytes = 50_000 * (1 + x % 8);
            n.start_flow(now, MachineId(a), MachineId(b), bytes, Priority(p), x);
        }
        2 => {
            let id = n.flow_ids().nth(x as usize % 4).map(|(id, _, _)| id);
            n.cancel_flow(now, id.unwrap_or(FlowId(u64::MAX)));
        }
        _ => n.set_port_scale(now, MachineId(a), 0.25 * (1 + b) as f64, 1.0),
    }
}

#[test]
fn a_poll_drains_with_the_rates_of_its_own_instant() {
    // At 16 Gbps a one-byte flow is inside a nanosecond's drain residue
    // the moment it starts, so a poll at that instant drains it, as it
    // would had the start been allocated at once.
    let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(16.0)).with_latency(SimDuration::ZERO);
    let (mut lazy, mut eager) = (Network::new(cfg.clone()), Network::new(cfg));
    for n in [&mut lazy, &mut eager] {
        n.start_flow(SimTime::ZERO, MachineId(0), MachineId(1), 1, Priority(0), 7);
    }
    eager.next_event_time();
    let done = eager.poll(SimTime::ZERO);
    assert_eq!(done.len(), 1, "the flow did not drain at once");
    assert_eq!(lazy.poll(SimTime::ZERO), done);
}

/// Asserts that two fabrics run through the same script hold the same
/// flows, bit for bit: order, remaining bytes, rates and bottlenecks.
fn assert_same_flows(lazy: &Network, eager: &Network) {
    let bottlenecks = |n: &Network| n.bottleneck.clone();
    let (want, want_at) = (bits(&records(eager)), bottlenecks(eager));
    let (got, got_at) = (bits(&records(lazy)), bottlenecks(lazy));
    assert_eq!(got, want, "rates read lazily differ from eager ones");
    assert_eq!(got_at, want_at, "bottlenecks read lazily differ");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Rates allocated only when read equal rates allocated after
        /// every operation. Each instant applies several starts, cancels
        /// and rescales, then mostly queries; the eager fabric also queries
        /// after each operation. After every query both fabrics agree bit
        /// for bit on every flow and on `next_event_time`, and polls, with
        /// or without a query first, deliver the same transfers. The lazy
        /// fabric never allocates more often.
        #[test]
        fn lazy_rates_match_rates_allocated_after_every_change(
            instants in prop::collection::vec(
                (prop::collection::vec((0u8..4, 0usize..4, 0usize..4, 0u32..3, 0u64..64), 0..6), 0u8..4, 0u64..3),
                1..25,
            ),
            fabric in 0u8..4,
        ) {
            let cfg = if fabric < 2 {
                NetworkConfig::new(4, Bandwidth::from_gbps(8.0))
                    .with_latency(SimDuration::from_micros(5))
            } else {
                racked()
            };
            let cfg = if fabric % 2 == 1 { cfg.with_flow_cap(0.3e9) } else { cfg };
            let (mut lazy, mut eager) = (Network::new(cfg.clone()), Network::new(cfg));
            let mut now = SimTime::ZERO;
            for (changes, query, step_us) in instants {
                for c in changes {
                    change(&mut lazy, now, c);
                    change(&mut eager, now, c);
                    eager.next_event_time();
                }
                // Without a query, the poll below reads stale rates.
                let next = if query > 0 {
                    let next = lazy.next_event_time();
                    prop_assert_eq!(next, eager.next_event_time());
                    assert_same_flows(&lazy, &eager);
                    next
                } else {
                    None
                };
                // Step to the fabric's next event, or a few µs on.
                now = match next {
                    Some(t) if step_us == 0 => t,
                    _ => now + SimDuration::from_micros(step_us * 40),
                };
                prop_assert_eq!(lazy.poll(now), eager.poll(now));
                eager.next_event_time();
            }
            prop_assert_eq!(lazy.next_event_time(), eager.next_event_time());
            assert_same_flows(&lazy, &eager);
            prop_assert!(lazy.stats().reallocations <= eager.stats().reallocations);
            prop_assert_eq!(lazy.stats().peak_in_flight, eager.stats().peak_in_flight);
        }

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
                prop_assert_eq!(n.next_event_time(), scan_per_flow(&n));
            }
        }

        /// The single-conversion scan equals the per-flow scan on flows
        /// placed directly: zero rates, quotients from 0 through a few
        /// nanoseconds to past `u64::MAX` ns (infinite ones included), a
        /// clock near the end of time where the add saturates, and pending
        /// deliveries, any of them possibly absent.
        #[test]
        fn scan_matches_the_per_flow_scan(
            flows in prop::collection::vec((0u8..4, 0.0f64..1.0, 0u8..4, 0.0f64..1.0), 0..10),
            late in any::<bool>(),
            last in 0u64..4_000_000,
            deliveries in prop::collection::vec(any::<u64>(), 0..3),
        ) {
            let mut n = Network::new(NetworkConfig::new(4, Bandwidth::from_gbps(8.0)));
            n.last_update = SimTime::from_nanos(if late { u64::MAX - last } else { last });
            for (i, (bytes, x, speed, y)) in flows.into_iter().enumerate() {
                let remaining = [0.0, x * 1e-3, x * 1e7, x * 1e30][bytes as usize];
                let rate = [0.0, y * f64::MIN_POSITIVE, y * 1e10, 1e300][speed as usize];
                n.flows.push(ActiveFlow {
                    id: FlowId(i as u64),
                    src: 0,
                    dst: 1,
                    priority: Priority(0),
                    tag: 0,
                    bytes: 1,
                });
                n.remaining.push(remaining);
                n.rates.push(rate);
                n.bottleneck.push(NO_LINK);
            }
            for (i, at) in deliveries.into_iter().enumerate() {
                let flow = CompletedFlow {
                    id: FlowId(100 + i as u64),
                    src: MachineId(0),
                    dst: MachineId(1),
                    tag: 0,
                    bytes: 1,
                    bottleneck: None,
                };
                n.delivering.push(Delivering { at: SimTime::from_nanos(at), flow });
            }
            prop_assert_eq!(n.scan_next_event(), scan_per_flow(&n));
        }

        /// The column passes equal the per-flow passes over whole records,
        /// bit for bit: progress over `dt` from 1 ns to seconds, port
        /// traces, the drain test and the swap-removes it makes, and the
        /// next-event scan. Rates are 0, tiny or large, and bytes left are
        /// 0 (−0.0 too, which a restore accepts), inside the drain epsilon
        /// or far outside it. Cancels first leave the slots in an order of
        /// earlier swap-removes.
        #[test]
        fn column_passes_match_the_per_flow_passes(
            flows in prop::collection::vec((0usize..4, 1usize..4, 0u8..5, 0.0f64..1.0, 0u8..6, 0.0f64..1.0), 0..24),
            cancels in prop::collection::vec(0usize..24, 0..6),
            dt_ns in (0u32..10, 1u64..10).prop_map(|(e, m)| m * 10u64.pow(e)),
            last in 0u64..4_000_000,
        ) {
            let bin = SimDuration::from_millis(1);
            let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(8.0))
                .with_latency(SimDuration::from_micros(5))
                .with_trace(bin);
            let mut n = Network::new(cfg);
            n.last_update = SimTime::from_nanos(last);
            let now = n.last_update + SimDuration::from_nanos(dt_ns);
            let dt = (now - n.last_update).as_secs_f64();
            for (i, (src, hop, speed, y, left, x)) in flows.into_iter().enumerate() {
                let rate = [0.0, y * 1e-300, 1e-6 + y, y * 1e10, 1e300][usize::from(speed)];
                let eps = rate * 1e-9 + 1e-9;
                let remaining =
                    [0.0, -0.0, x * eps, eps, eps * (1.0 + x), x * 1e9][usize::from(left)];
                let spec = FlowSpec { src, dst: (src + hop) % 4, priority: Priority(i as u32 % 3) };
                n.by_class.push(spec, &n.graph);
                n.flows.push(ActiveFlow {
                    id: FlowId(i as u64),
                    src: spec.src,
                    dst: spec.dst,
                    priority: spec.priority,
                    tag: i as u64,
                    bytes: 1,
                });
                n.remaining.push(remaining);
                n.rates.push(rate);
                n.bottleneck.push(NO_LINK);
            }
            for k in cancels {
                if let Some(id) = n.flows.get(k).map(|f| f.id) {
                    n.cancel_flow(n.last_update, id);
                }
            }
            assert_class_index(&n);
            // The passes run on the rates as placed, not reallocated ones.
            n.dirty = false;
            // The reference fabric: whole records and per-flow traces.
            let mut want = records(&n);
            let mut traces: Vec<PortTrace> = (0..8).map(|_| PortTrace::new(bin)).collect();
            for (f, &(_, _, rate)) in n.flows.iter().zip(&want) {
                if rate > 0.0 {
                    traces[f.src].add_rate(n.last_update, now, rate);
                    traces[4 + f.dst].add_rate(n.last_update, now, rate);
                }
            }
            advance_per_flow(&mut want, dt);
            n.advance(now);
            prop_assert_eq!(bits(&records(&n)), bits(&want));
            let drained = drain_per_flow(&mut want);

            n.poll(now);
            prop_assert_eq!(bits(&records(&n)), bits(&want));
            let delivering: Vec<FlowId> = n.delivering.iter().map(|d| d.flow.id).collect();
            prop_assert_eq!(delivering, drained);
            assert_class_index(&n);
            let to_bits = |t: &PortTrace| {
                t.bytes_per_bin().iter().map(|b| b.to_bits()).collect::<Vec<_>>()
            };
            let (tx, rx) = (n.tx_traces.iter(), n.rx_traces.iter());
            for (got, want) in tx.chain(rx).zip(&traces) {
                prop_assert_eq!(to_bits(got), to_bits(want));
            }
            // The scan reads the columns the poll left (rates stay as
            // placed: a drain only marks them stale).
            prop_assert_eq!(n.scan_next_event(), scan_per_flow(&n));
        }
    }
}
