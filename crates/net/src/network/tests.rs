//! Unit and property tests for the [`Network`] facade: flow lifecycle on
//! the flat fabric, the flat-versus-topology reporting switch, and the
//! deterministic work counters.

use super::walk::tests::restore;
use super::*;
use crate::types::Bandwidth;

fn net(machines: usize, gbps: f64) -> Network {
    let cfg =
        NetworkConfig::new(machines, Bandwidth::from_gbps(gbps)).with_latency(SimDuration::ZERO);
    Network::new(cfg)
}

/// Machine indices are kept in 32 bits, so a larger cluster is refused
/// before anything is sized per machine.
#[test]
#[should_panic(expected = "more than a fabric indexes")]
fn a_cluster_past_32_bit_machine_indices_is_refused() {
    Network::new(NetworkConfig::new(
        MAX_MACHINES + 1,
        Bandwidth::from_gbps(1.0),
    ));
}

#[test]
fn isolated_flow_takes_size_over_bandwidth() {
    let mut n = net(2, 8.0); // 1 GB/s
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        2_000_000,
        Priority(0),
        0,
    );
    assert_eq!(n.next_event_time(), Some(SimTime::from_millis(2)));
    let done = n.poll(SimTime::from_millis(2));
    assert_eq!(done.len(), 1);
    assert!(n.is_idle());
}

#[test]
fn latency_delays_delivery_without_consuming_bandwidth() {
    let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(8.0))
        .with_latency(SimDuration::from_micros(100));
    let mut n = Network::new(cfg);
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        0,
    );
    // Drains at 1 ms, delivers at 1.1 ms.
    assert_eq!(n.next_event_time(), Some(SimTime::from_millis(1)));
    assert!(n.poll(SimTime::from_millis(1)).is_empty());
    assert_eq!(n.next_event_time(), Some(SimTime::from_micros(1100)));
    assert_eq!(n.poll(SimTime::from_micros(1100)).len(), 1);
}

#[test]
fn two_flows_share_then_speed_up() {
    let mut n = net(3, 8.0); // 1 GB/s per port
                             // Both flows leave machine 0: share its tx at 0.5 GB/s each.
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        1,
    );
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(2),
        500_000,
        Priority(0),
        2,
    );
    // Flow 2 drains at 1 ms; flow 1 then has 0.5 MB left at full rate.
    let t1 = n.next_event_time().unwrap();
    assert_eq!(t1, SimTime::from_millis(1));
    let done = n.poll(t1);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tag, 2);
    let t2 = n.next_event_time().unwrap();
    assert_eq!(t2, SimTime::from_micros(1500));
    let done = n.poll(t2);
    assert_eq!(done[0].tag, 1);
}

#[test]
fn priority_flow_preempts_bulk() {
    let mut n = net(2, 8.0);
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(5),
        10,
    );
    // At 0.5 ms, an urgent flow arrives; bulk flow freezes.
    let mid = SimTime::from_micros(500);
    assert!(n.poll(mid).is_empty());
    n.start_flow(mid, MachineId(0), MachineId(1), 1_000_000, Priority(0), 20);
    // Urgent drains at 1.5 ms.
    let t = n.next_event_time().unwrap();
    assert_eq!(t, SimTime::from_micros(1500));
    let done = n.poll(t);
    assert_eq!(done[0].tag, 20);
    // Bulk resumes: 0.5 MB left, drains at 2.0 ms.
    let t = n.next_event_time().unwrap();
    assert_eq!(t, SimTime::from_millis(2));
    assert_eq!(n.poll(t)[0].tag, 10);
}

#[test]
fn loopback_skips_the_nic() {
    let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(1.0))
        .with_latency(SimDuration::ZERO)
        .with_trace(SimDuration::from_millis(10));
    let mut n = Network::new(cfg);
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(0),
        50_000_000,
        Priority(0),
        0,
    );
    // 50 MB at 50 GB/s = 1 ms, even though the NIC is only 1 Gbps.
    let t = n.next_event_time().unwrap();
    assert_eq!(t, SimTime::from_millis(1));
    assert_eq!(n.poll(t).len(), 1);
    assert_eq!(n.tx_trace().unwrap().total_bytes(), 0.0);
}

#[test]
fn trace_records_both_ports_of_machine_zero() {
    let cfg = NetworkConfig::new(3, Bandwidth::from_gbps(8.0))
        .with_latency(SimDuration::ZERO)
        .with_trace(SimDuration::from_millis(1));
    let mut n = Network::new(cfg);
    for (src, dst, bytes) in [(0, 1, 3_000_000), (1, 0, 2_000_000), (1, 2, 5_000_000)] {
        let (src, dst) = (MachineId(src), MachineId(dst));
        n.start_flow(SimTime::ZERO, src, dst, bytes, Priority(0), 0);
    }
    while let Some(t) = n.next_event_time() {
        n.poll(t);
    }
    // Machine 1's flow to machine 2 touches neither of machine 0's ports.
    let tx = n.tx_trace().unwrap().total_bytes();
    let rx = n.rx_trace().unwrap().total_bytes();
    assert!((tx - 3_000_000.0).abs() < 1.0);
    assert!((rx - 2_000_000.0).abs() < 1.0);
}

#[test]
fn incast_completion_time_reflects_sharing() {
    let mut n = net(4, 8.0); // 1 GB/s
                             // Three senders push 1 MB each into machine 0's rx.
    for s in 1..4 {
        n.start_flow(
            SimTime::ZERO,
            MachineId(s),
            MachineId(0),
            1_000_000,
            Priority(0),
            s as u64,
        );
    }
    // Fair share: 1/3 GB/s each; all complete at 3 ms.
    let t = n.next_event_time().unwrap();
    assert!((t.as_secs_f64() - 0.003).abs() < 1e-9);
    assert_eq!(n.poll(t).len(), 3);
}

#[test]
#[should_panic(expected = "zero-byte")]
fn zero_bytes_rejected() {
    let mut n = net(2, 1.0);
    n.start_flow(SimTime::ZERO, MachineId(0), MachineId(1), 0, Priority(0), 0);
}

#[test]
fn poll_is_idempotent_at_same_instant() {
    let mut n = net(2, 8.0);
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        0,
    );
    let t = n.next_event_time().unwrap();
    assert_eq!(n.poll(t).len(), 1);
    assert!(n.poll(t).is_empty());
    assert_eq!(n.next_event_time(), None);
}

#[test]
fn degraded_port_slows_and_recovers() {
    let mut n = net(2, 8.0); // 1 GB/s
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        2_000_000,
        Priority(0),
        0,
    );
    // At 1 ms (1 MB in), the sender's uplink degrades to a quarter.
    let mid = SimTime::from_millis(1);
    assert!(n.poll(mid).is_empty());
    n.set_port_scale(mid, MachineId(0), 0.25, 1.0);
    // Remaining 1 MB at 0.25 GB/s = 4 ms more.
    assert_eq!(n.next_event_time(), Some(SimTime::from_millis(5)));
    // Recovery at 3 ms: 0.5 MB left at full rate = 0.5 ms more.
    let later = SimTime::from_millis(3);
    assert!(n.poll(later).is_empty());
    n.set_port_scale(later, MachineId(0), 1.0, 1.0);
    assert_eq!(n.next_event_time(), Some(SimTime::from_micros(3500)));
    assert_eq!(n.poll(SimTime::from_micros(3500)).len(), 1);
}

#[test]
fn rx_degradation_binds_incast() {
    let mut n = net(3, 8.0);
    n.set_port_scale(SimTime::ZERO, MachineId(0), 1.0, 0.5);
    for s in 1..3 {
        n.start_flow(
            SimTime::ZERO,
            MachineId(s),
            MachineId(0),
            1_000_000,
            Priority(0),
            s as u64,
        );
    }
    // 2 MB through a 0.5 GB/s rx port: both finish at 4 ms.
    let t = n.next_event_time().unwrap();
    assert!((t.as_secs_f64() - 0.004).abs() < 1e-9, "{t}");
    assert_eq!(n.poll(t).len(), 2);
}

#[test]
fn cancelled_flow_frees_bandwidth_and_never_delivers() {
    let mut n = net(2, 8.0);
    let victim = n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        1,
    );
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        2,
    );
    // Sharing: 0.5 GB/s each. Cancel the victim at 1 ms.
    let mid = SimTime::from_millis(1);
    assert!(n.poll(mid).is_empty());
    assert!(n.cancel_flow(mid, victim));
    assert!(
        !n.cancel_flow(mid, victim),
        "double cancel must report false"
    );
    // Survivor has 0.5 MB left at full rate: done at 1.5 ms.
    let t = n.next_event_time().unwrap();
    assert_eq!(t, SimTime::from_micros(1500));
    let done = n.poll(t);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].tag, 2);
    assert!(n.is_idle());
}

#[test]
fn cancel_in_delivery_stage_suppresses_delivery() {
    let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(8.0))
        .with_latency(SimDuration::from_micros(500));
    let mut n = Network::new(cfg);
    let id = n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        9,
    );
    // Drained at 1 ms, delivery due 1.5 ms; cancel in between.
    assert!(n.poll(SimTime::from_millis(1)).is_empty());
    assert!(n.cancel_flow(SimTime::from_micros(1200), id));
    assert!(n.is_idle());
    assert_eq!(n.next_event_time(), None);
}

#[test]
fn flow_ids_are_unique_and_monotone() {
    let mut n = net(2, 8.0);
    let a = n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        10,
        Priority(0),
        0,
    );
    let b = n.start_flow(
        SimTime::ZERO,
        MachineId(1),
        MachineId(0),
        10,
        Priority(0),
        0,
    );
    assert!(b > a);
}

// ---------------------------------------------------------------------
// Flat fabric versus an explicit endpoint-only topology.

/// Runs a fixed mix of flows (shared ports, four priority classes, a
/// loopback, a mid-run port degradation) to completion and returns every
/// delivery with its instant, plus the drained fabric.
fn run_script(cfg: NetworkConfig) -> (Vec<(SimTime, CompletedFlow)>, Network) {
    let script = [
        (0, 1, 2_000_000, 3),
        (0, 2, 1_000_000, 1),
        (2, 1, 3_000_000, 3),
        (1, 0, 500_000, 0),
        (3, 3, 400_000, 0),
        (3, 1, 1_500_000, 2),
    ];
    let mut n = Network::new(cfg);
    let mut done = Vec::new();
    for (i, &(src, dst, bytes, p)) in script.iter().enumerate() {
        let at = SimTime::from_micros(150 * i as u64);
        done.extend(n.poll(at).into_iter().map(|c| (at, c)));
        if i == 3 {
            n.set_port_scale(at, MachineId(1), 1.0, 0.5);
        }
        n.start_flow(
            at,
            MachineId(src),
            MachineId(dst),
            bytes,
            Priority(p),
            i as u64,
        );
    }
    while let Some(t) = n.next_event_time() {
        done.extend(n.poll(t).into_iter().map(|c| (t, c)));
    }
    (done, n)
}

#[test]
fn flat_fabric_matches_an_endpoint_only_topology_and_reports_no_links() {
    let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(8.0)).with_efficiency(0.8);
    let graph = LinkGraph::new(&[Bandwidth::from_gbps(8.0).bytes_per_sec(); 4]);
    let (flat, flat_net) = run_script(cfg.clone());
    let (topo, topo_net) = run_script(cfg.with_link_graph(graph));

    let timeline = |run: &[(SimTime, CompletedFlow)]| -> Vec<(SimTime, u64)> {
        run.iter().map(|(t, c)| (*t, c.tag)).collect()
    };
    assert_eq!(flat.len(), 6);
    assert_eq!(timeline(&flat), timeline(&topo), "same instants, same tags");

    assert!(flat.iter().all(|(_, c)| c.bottleneck.is_none()));
    assert!(flat_net.link_usage().is_empty());

    assert_eq!(topo_net.link_usage().len(), 8, "4 tx + 4 rx ports");
    for (_, c) in &topo {
        if c.src == c.dst {
            assert_eq!(c.bottleneck, None, "loopback never touches a port");
        } else {
            let l = c.bottleneck.expect("every NIC flow froze on a port");
            assert!(l < 8, "flow {} reports link {l}, not a port", c.tag);
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic work counters.

#[test]
fn stats_track_peak_and_allocator_work() {
    let mut n = net(3, 8.0);
    assert_eq!(n.stats(), NetStats::default(), "idle fabric has zero stats");
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(1),
        1_000_000,
        Priority(0),
        1,
    );
    n.start_flow(
        SimTime::ZERO,
        MachineId(0),
        MachineId(2),
        1_000_000,
        Priority(0),
        2,
    );
    assert_eq!(
        n.stats().reallocations,
        0,
        "an admission only marks rates stale"
    );
    // The first query allocates once, for both flows of the instant.
    n.next_event_time();
    let s = n.stats();
    assert_eq!(s.peak_in_flight, 2);
    assert_eq!(
        s.reallocations, 1,
        "one reallocation per instant's admissions"
    );
    assert_eq!(s.flows_touched, 2);
    assert!(s.waterfill_rounds >= 1, "{s:?}");
    assert!(s.ports_touched >= s.waterfill_rounds, "{s:?}");
    // Draining the fabric reallocates again but never raises the peak.
    while let Some(t) = n.next_event_time() {
        n.poll(t);
    }
    let s = n.stats();
    assert!(n.is_idle());
    assert_eq!(s.peak_in_flight, 2);
    assert!(s.reallocations >= 2, "{s:?}");
}

#[test]
fn loopback_does_not_count_toward_peak() {
    let mut n = net(2, 8.0);
    n.start_flow(
        SimTime::ZERO,
        MachineId(1),
        MachineId(1),
        1_000_000,
        Priority(0),
        0,
    );
    assert_eq!(n.stats().peak_in_flight, 0, "loopback never holds a NIC");
    assert_eq!(n.stats().reallocations, 0);
}

#[test]
fn stats_survive_snapshot_restore() {
    let mut a = net(3, 8.0);
    for s in 1..3 {
        a.start_flow(
            SimTime::ZERO,
            MachineId(s),
            MachineId(0),
            2_000_000,
            Priority(0),
            s as u64,
        );
    }
    // Snapshot mid-run, restore onto a fresh fabric, drain both.
    let mid = a.next_event_time().unwrap();
    a.poll(mid);
    let mut b = net(3, 8.0);
    restore(&mut b, &mut a, mid);
    assert_eq!(b.stats(), a.stats(), "counters must ride the snapshot");
    while let Some(t) = a.next_event_time() {
        a.poll(t);
    }
    while let Some(t) = b.next_event_time() {
        b.poll(t);
    }
    assert_eq!(
        a.stats(),
        b.stats(),
        "resumed fabric must report the totals of the uninterrupted run"
    );
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever the message mix, every byte handed to the fabric is
        /// eventually delivered, exactly once.
        #[test]
        fn conservation_of_messages(
            sizes in prop::collection::vec(1u64..5_000_000, 1..20),
            prios in prop::collection::vec(0u32..4, 20),
            gbps in 1.0f64..40.0,
        ) {
            let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(gbps))
                .with_latency(SimDuration::from_micros(5));
            let mut n = Network::new(cfg);
            for (i, &s) in sizes.iter().enumerate() {
                let src = MachineId(i % 4);
                let dst = MachineId((i + 1 + i / 4) % 4);
                n.start_flow(SimTime::ZERO, src, dst, s, Priority(prios[i]), i as u64);
            }
            let mut seen = vec![false; sizes.len()];
            let mut guard = 0;
            while let Some(t) = n.next_event_time() {
                guard += 1;
                prop_assert!(guard < 10_000, "simulation did not converge");
                for c in n.poll(t) {
                    let i = c.tag as usize;
                    prop_assert!(!seen[i], "flow {i} delivered twice");
                    prop_assert_eq!(c.bytes, sizes[i]);
                    seen[i] = true;
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "undelivered flows: {:?}", seen);
            prop_assert!(n.is_idle());
        }

        /// A single flow's completion time is exactly size/bandwidth
        /// (+latency), independent of size and speed.
        #[test]
        fn isolated_flow_timing(bytes in 1u64..100_000_000, gbps in 0.5f64..100.0) {
            let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(gbps))
                .with_latency(SimDuration::ZERO);
            let mut n = Network::new(cfg);
            n.start_flow(SimTime::ZERO, MachineId(0), MachineId(1), bytes, Priority(0), 0);
            let t = n.next_event_time().unwrap();
            let expect = bytes as f64 / (gbps * 1e9 / 8.0);
            prop_assert!((t.as_secs_f64() - expect).abs() < 2e-9 + expect * 1e-9);
            prop_assert_eq!(n.poll(t).len(), 1);
        }

        /// Under arbitrary mid-run cancellations, every flow is either
        /// delivered exactly once or cancelled exactly once — never both,
        /// never neither, and the fabric always drains.
        #[test]
        fn conservation_under_cancellation(
            sizes in prop::collection::vec(1u64..3_000_000, 2..16),
            cancel_mask in prop::collection::vec(any::<bool>(), 16),
            gbps in 1.0f64..20.0,
        ) {
            let cfg = NetworkConfig::new(4, Bandwidth::from_gbps(gbps))
                .with_latency(SimDuration::from_micros(5));
            let mut n = Network::new(cfg);
            let mut ids = Vec::new();
            for (i, &s) in sizes.iter().enumerate() {
                let src = MachineId(i % 4);
                let dst = MachineId((i + 1 + i / 4) % 4);
                ids.push(n.start_flow(SimTime::ZERO, src, dst, s, Priority((i % 3) as u32), i as u64));
                cache_tests::assert_class_index(&n);
            }
            // Cancel the masked flows at the first network event instant.
            let mid = n.next_event_time().unwrap();
            let mut cancelled = vec![false; sizes.len()];
            let early = n.poll(mid);
            cache_tests::assert_class_index(&n);
            let mut delivered = vec![false; sizes.len()];
            for c in &early {
                delivered[c.tag as usize] = true;
            }
            for (i, &id) in ids.iter().enumerate() {
                if cancel_mask[i] && !delivered[i] {
                    cancelled[i] = n.cancel_flow(mid, id);
                    prop_assert!(cancelled[i], "live flow {i} failed to cancel");
                    cache_tests::assert_class_index(&n);
                }
            }
            let mut guard = 0;
            while let Some(t) = n.next_event_time() {
                guard += 1;
                prop_assert!(guard < 10_000, "network did not drain");
                for c in n.poll(t) {
                    let i = c.tag as usize;
                    prop_assert!(!delivered[i], "flow {i} delivered twice");
                    prop_assert!(!cancelled[i], "cancelled flow {i} was delivered");
                    delivered[i] = true;
                }
                cache_tests::assert_class_index(&n);
            }
            for i in 0..sizes.len() {
                prop_assert!(delivered[i] ^ cancelled[i], "flow {i}: delivered={} cancelled={}", delivered[i], cancelled[i]);
            }
            prop_assert!(n.is_idle());
        }

        /// Aggregate goodput through one port never exceeds its capacity.
        #[test]
        fn port_capacity_never_exceeded(
            sizes in prop::collection::vec(1_000u64..2_000_000, 2..12),
        ) {
            let gbps = 10.0;
            let cfg = NetworkConfig::new(3, Bandwidth::from_gbps(gbps))
                .with_latency(SimDuration::ZERO)
                .with_trace(SimDuration::from_micros(100));
            let mut n = Network::new(cfg);
            // Everything funnels into machine 0's rx.
            for (i, &s) in sizes.iter().enumerate() {
                n.start_flow(SimTime::ZERO, MachineId(1 + i % 2), MachineId(0), s, Priority(0), i as u64);
            }
            let mut guard = 0;
            while let Some(t) = n.next_event_time() {
                n.poll(t);
                guard += 1;
                prop_assert!(guard < 1000);
            }
            let cap_bytes_per_bin = gbps * 1e9 / 8.0 * 100e-6;
            for &b in n.rx_trace().unwrap().bytes_per_bin() {
                prop_assert!(b <= cap_bytes_per_bin * (1.0 + 1e-6));
            }
        }
    }
}
