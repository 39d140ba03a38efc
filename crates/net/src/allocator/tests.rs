//! Unit and property tests for [`allocate_rates_on_graph`] and
//! [`allocate_rates_in_class_order`]: max-min and strict-priority
//! behaviour on endpoint-only and racked graphs, the per-flow cap, the
//! work counters, bit-identity with the flat two-port oracle and with the
//! round loop as first written, and independence from the order of flows
//! within a class.

use super::oracle::{flat_rates, graph_rates};
use super::*;

fn flow(src: usize, dst: usize, p: u32) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        priority: Priority(p),
    }
}

fn on_graph(flows: &[FlowSpec], g: &LinkGraph, flow_cap: f64) -> GraphAllocation {
    allocate_rates_on_graph(flows, g, g.caps(), flow_cap, &mut AllocWork::default())
}

/// Allocation on the endpoint-only graph with the given port capacities.
fn on_ports(flows: &[FlowSpec], tx: &[f64], rx: &[f64], flow_cap: f64) -> GraphAllocation {
    on_graph(flows, &LinkGraph::with_ports(tx, rx), flow_cap)
}

/// Uncapped rates on an endpoint-only graph whose ports all have `cap`.
fn uniform(flows: &[FlowSpec], machines: usize, cap: f64) -> Vec<f64> {
    on_ports(
        flows,
        &vec![cap; machines],
        &vec![cap; machines],
        f64::INFINITY,
    )
    .rates
}

/// Two racks of two machines each behind per-rack up/down links of
/// `core` bytes/sec; NICs at `nic` bytes/sec.
fn two_racks(nic: f64, core: f64) -> LinkGraph {
    let mut g = LinkGraph::new(&[nic; 4]);
    let up0 = g.add_link("rack0.up", core);
    let down0 = g.add_link("rack0.down", core);
    let up1 = g.add_link("rack1.up", core);
    let down1 = g.add_link("rack1.down", core);
    for src in 0..4usize {
        for dst in 0..4usize {
            if src / 2 == dst / 2 {
                continue;
            }
            let via = if src / 2 == 0 {
                [up0, down1]
            } else {
                [up1, down0]
            };
            g.set_transit(src, dst, &via);
        }
    }
    g
}

#[test]
fn empty_input_allocates_nothing_and_does_no_work() {
    let g = LinkGraph::new(&[10.0, 10.0]);
    let mut work = AllocWork::default();
    let a = allocate_rates_on_graph(&[], &g, g.caps(), 1.0, &mut work);
    assert!(a.rates.is_empty() && a.bottleneck.is_empty());
    assert_eq!(work, AllocWork::default());
}

#[test]
fn single_flow_gets_min_of_its_ports() {
    let a = on_ports(
        &[flow(0, 1, 0)],
        &[100.0, 40.0],
        &[70.0, 30.0],
        f64::INFINITY,
    );
    assert_eq!(a.rates, vec![30.0]);
    assert_eq!(a.bottleneck, vec![Some(LinkId(3))], "limited by dst rx");
}

#[test]
fn fan_out_shares_tx() {
    let flows: Vec<FlowSpec> = (1..=4).map(|d| flow(0, d, 2)).collect();
    for r in uniform(&flows, 5, 100.0) {
        assert!((r - 25.0).abs() < 1e-6);
    }
}

#[test]
fn incast_shares_rx() {
    let flows: Vec<FlowSpec> = (1..=4).map(|s| flow(s, 0, 2)).collect();
    for r in uniform(&flows, 5, 100.0) {
        assert!((r - 25.0).abs() < 1e-6);
    }
}

#[test]
fn max_min_redistributes_leftover() {
    // Flow A: 0->1 (shares tx of 0 with B). Flow B: 0->2 but dst 2 has a
    // tiny rx. B freezes at 10, A picks up the leftover 90.
    let flows = [flow(0, 1, 1), flow(0, 2, 1)];
    let tx = [100.0, 100.0, 100.0];
    let rx = [100.0, 100.0, 10.0];
    let a = on_ports(&flows, &tx, &rx, f64::INFINITY);
    assert!((a.rates[1] - 10.0).abs() < 1e-6, "B limited by rx: {a:?}");
    assert!((a.rates[0] - 90.0).abs() < 1e-6, "A takes leftover: {a:?}");
}

#[test]
fn strict_priority_starves_bulk() {
    let rates = uniform(&[flow(0, 1, 0), flow(0, 1, 9)], 2, 100.0);
    assert!((rates[0] - 100.0).abs() < 1e-6);
    assert!(rates[1].abs() < 1e-6);
}

#[test]
fn lower_class_uses_ports_urgent_class_does_not() {
    // Urgent flow 0->1 saturates 0.tx; bulk flow 2->3 is unaffected.
    let rates = uniform(&[flow(0, 1, 0), flow(2, 3, 7)], 4, 100.0);
    assert!((rates[0] - 100.0).abs() < 1e-6);
    assert!((rates[1] - 100.0).abs() < 1e-6);
}

#[test]
fn bidirectional_flows_do_not_contend() {
    // tx and rx are independent: full-duplex.
    let rates = uniform(&[flow(0, 1, 1), flow(1, 0, 1)], 2, 100.0);
    assert!((rates[0] - 100.0).abs() < 1e-6);
    assert!((rates[1] - 100.0).abs() < 1e-6);
}

#[test]
fn zero_capacity_yields_zero_rates() {
    assert_eq!(uniform(&[flow(0, 1, 1)], 2, 0.0), vec![0.0]);
}

#[test]
#[should_panic(expected = "unknown machine")]
fn out_of_range_machine_panics() {
    uniform(&[flow(0, 5, 0)], 2, 1.0);
}

#[test]
#[should_panic(expected = "loopback")]
fn loopback_flow_rejected() {
    uniform(&[flow(1, 1, 0)], 2, 10.0);
}

#[test]
fn flow_cap_limits_isolated_flow_and_reports_no_link() {
    let a = on_ports(&[flow(0, 1, 0)], &[100.0; 2], &[100.0; 2], 30.0);
    assert_eq!(a.rates, vec![30.0]);
    assert_eq!(a.bottleneck, vec![None], "the cap, not a link, binds");
}

#[test]
fn capped_flows_release_capacity_to_others() {
    // Two flows share 0.tx; with a cap of 30, each takes 30 and the rest
    // of the port goes unused (no third flow to absorb it).
    let flows = [flow(0, 1, 0), flow(0, 2, 0)];
    let caps = [100.0; 3];
    assert_eq!(on_ports(&flows, &caps, &caps, 30.0).rates, vec![30.0, 30.0]);
    // With a cap of 80 the port (100) binds instead: 50/50.
    assert_eq!(on_ports(&flows, &caps, &caps, 80.0).rates, vec![50.0, 50.0]);
}

#[test]
fn three_class_cascade() {
    // Class 0 takes 60 (its rx limit), class 1 takes the remaining 40 of
    // 0.tx, class 2 gets nothing from 0.tx.
    let flows = [flow(0, 1, 0), flow(0, 2, 1), flow(0, 3, 2)];
    let tx = [100.0, 100.0, 100.0, 100.0];
    let rx = [100.0, 60.0, 100.0, 100.0];
    let rates = on_ports(&flows, &tx, &rx, f64::INFINITY).rates;
    assert!((rates[0] - 60.0).abs() < 1e-6);
    assert!((rates[1] - 40.0).abs() < 1e-6);
    assert!(rates[2].abs() < 1e-6);
}

#[test]
fn work_counters_count_rounds_and_links() {
    let flows = [flow(0, 1, 0), flow(0, 2, 1)];
    let caps = [100.0; 3];
    let g = LinkGraph::with_ports(&caps, &caps);
    let mut work = AllocWork::default();
    allocate_rates_on_graph(&flows, &g, g.caps(), 30.0, &mut work);
    // Two priority classes: at least one round each, and every round
    // touches one flow's two ports.
    assert!(work.rounds >= 2, "{work:?}");
    assert_eq!(work.port_touches, 2 * work.rounds, "{work:?}");
    // Transit hops count as touched links too.
    let g = two_racks(100.0, 50.0);
    let mut work = AllocWork::default();
    allocate_rates_on_graph(&[flow(0, 3, 0)], &g, g.caps(), f64::INFINITY, &mut work);
    assert_eq!(work.port_touches, 4 * work.rounds, "{work:?}");
}

#[test]
fn intra_rack_flow_ignores_the_core() {
    let g = two_racks(100.0, 1.0); // core nearly dead
    let a = on_graph(&[flow(0, 1, 0)], &g, f64::INFINITY);
    assert!((a.rates[0] - 100.0).abs() < 1e-6, "{:?}", a.rates);
}

#[test]
fn cross_rack_flow_bound_by_uplink() {
    let g = two_racks(100.0, 40.0);
    let a = on_graph(&[flow(0, 2, 0)], &g, f64::INFINITY);
    assert!((a.rates[0] - 40.0).abs() < 1e-6, "{:?}", a.rates);
    let l = a.bottleneck[0].expect("bottlenecked");
    assert!(
        g.is_transit(l),
        "bottleneck should be a core link, got {}",
        g.link_name(l)
    );
}

#[test]
fn oversubscribed_core_shared_max_min() {
    // Both rack-0 machines send cross-rack: they share the uplink.
    let g = two_racks(100.0, 50.0);
    let a = on_graph(&[flow(0, 2, 0), flow(1, 3, 0)], &g, f64::INFINITY);
    assert!((a.rates[0] - 25.0).abs() < 1e-6, "{:?}", a.rates);
    assert!((a.rates[1] - 25.0).abs() < 1e-6, "{:?}", a.rates);
    assert_eq!(g.link_name(a.bottleneck[0].unwrap()), "rack0.up");
}

#[test]
fn urgent_class_owns_the_uplink_first() {
    let g = two_racks(100.0, 60.0);
    let a = on_graph(&[flow(0, 2, 0), flow(1, 3, 9)], &g, f64::INFINITY);
    assert!(
        (a.rates[0] - 60.0).abs() < 1e-6,
        "urgent takes the core: {:?}",
        a.rates
    );
    assert!(
        a.rates[1].abs() < 1e-6,
        "bulk starved on the core: {:?}",
        a.rates
    );
}

#[test]
fn endpoint_only_graph_matches_the_flat_oracle_exactly() {
    let tx = [100.0, 70.0, 90.0];
    let rx = [80.0, 100.0, 30.0];
    let flows = [
        flow(0, 1, 0),
        flow(0, 2, 1),
        flow(1, 2, 1),
        flow(2, 0, 0),
        flow(1, 0, 2),
    ];
    let a = on_ports(&flows, &tx, &rx, 55.0);
    let b = flat_rates(&flows, &tx, &rx, 55.0, &mut AllocWork::default());
    assert_eq!(
        a.rates, b,
        "endpoint-only graph must be bit-identical to flat"
    );
}

mod capacity;

#[cfg(test)]
mod properties {
    use super::capacity::{assert_capacities_respected, assert_every_flow_hits_a_saturated_link};
    use super::*;
    use proptest::prelude::*;

    /// Up to 24 flows among `machines` machines, no loopback.
    fn arb_flows(machines: usize) -> impl Strategy<Value = Vec<FlowSpec>> {
        prop::collection::vec(
            (0..machines, 0..machines, 0u32..4).prop_map(move |(src, dst, p)| FlowSpec {
                src,
                dst: if dst == src {
                    (dst + 1) % machines
                } else {
                    dst
                },
                priority: Priority(p),
            }),
            0..24,
        )
    }

    /// Up to 300 flows among 16 machines in up to 12 classes, three in
    /// four of them sent to machine 0 or 1. The first class to fill those
    /// two rx ports leaves every later class that crosses them blocked,
    /// so most classes start with a round that raises by 0.
    fn arb_skewed_flows() -> impl Strategy<Value = Vec<FlowSpec>> {
        prop::collection::vec(
            (0..16usize, 0..16usize, 0u32..4, 0u32..12).prop_map(|(src, dst, hot, p)| {
                let dst = if hot > 0 { dst % 2 } else { dst };
                FlowSpec {
                    src,
                    dst: if dst == src { (dst + 1) % 16 } else { dst },
                    priority: Priority(p),
                }
            }),
            1..301,
        )
    }

    /// Flows in the regime most P3 fills are in: one urgent flow (class 0
    /// or 1) out of each of six machines, which saturates most tx ports
    /// before the later classes, then up to 39 bulk specs in classes 2 to
    /// 7, each sent one to three times.
    fn arb_blocked_flows() -> impl Strategy<Value = Vec<FlowSpec>> {
        let urgent = prop::collection::vec(0..6usize, 6);
        let bulk = prop::collection::vec((0..6usize, 0..6usize, 2u32..8, 1usize..4), 1..40);
        (urgent, bulk).prop_map(|(urgent, bulk)| {
            let apart = |src: usize, dst: usize| if dst == src { (dst + 1) % 6 } else { dst };
            let mut flows: Vec<FlowSpec> = (0..6)
                .zip(urgent)
                .map(|(src, dst)| flow(src, apart(src, dst), (src % 2) as u32))
                .collect();
            for (src, dst, p, copies) in bulk {
                flows.extend((0..copies).map(|_| flow(src, apart(src, dst), p)));
            }
            flows
        })
    }

    /// `racks` racks of `size` machines, uplink/downlink = size*nic/oversub.
    pub(super) fn racked(racks: usize, size: usize, nic: f64, oversub: f64) -> LinkGraph {
        let machines = racks * size;
        let mut g = LinkGraph::new(&vec![nic; machines]);
        let core = size as f64 * nic / oversub;
        let ups: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.up"), core))
            .collect();
        let downs: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.down"), core))
            .collect();
        for src in 0..machines {
            for dst in 0..machines {
                if src != dst && src / size != dst / size {
                    g.set_transit(src, dst, &[ups[src / size], downs[dst / size]]);
                }
            }
        }
        g
    }

    /// Six machines dealt into `racks` racks (`m % racks`), flat when
    /// `racks == 1`. Each rack has an uplink and a downlink, and a cross-rack
    /// route between machines of equal parity also crosses a shared core
    /// link. Capacities are drawn from `caps` in link order (ports first).
    fn uneven_racks(racks: usize, caps: &[f64]) -> LinkGraph {
        let cap = |l: usize| caps[l % caps.len()];
        let tx: Vec<f64> = (0..6).map(cap).collect();
        let rx: Vec<f64> = (6..12).map(cap).collect();
        let mut g = LinkGraph::with_ports(&tx, &rx);
        if racks == 1 {
            return g;
        }
        let ups: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.up"), cap(g.num_links())))
            .collect();
        let downs: Vec<LinkId> = (0..racks)
            .map(|r| g.add_link(&format!("rack{r}.down"), cap(g.num_links())))
            .collect();
        let core = g.add_link("core", cap(g.num_links()));
        for src in 0..6 {
            for dst in 0..6 {
                let (a, b) = (src % racks, dst % racks);
                if src == dst || a == b {
                    continue;
                }
                if (src + dst) % 2 == 0 {
                    g.set_transit(src, dst, &[ups[a], core, downs[b]]);
                } else {
                    g.set_transit(src, dst, &[ups[a], downs[b]]);
                }
            }
        }
        g
    }

    /// The same six machines as a flat switch and as three racks of two
    /// behind an `oversub`-oversubscribed core.
    fn fabrics(nic: f64, oversub: f64) -> [LinkGraph; 2] {
        [LinkGraph::new(&[nic; 6]), racked(3, 2, nic, oversub)]
    }

    /// Every flow as `(slot, spec)` in class order, each class shuffled by
    /// `keys` (one key per slot).
    fn class_order(flows: &[FlowSpec], keys: &[u32]) -> Vec<(usize, FlowSpec)> {
        let mut classes: Vec<(usize, FlowSpec)> = flows.iter().copied().enumerate().collect();
        classes.sort_by_key(|&(slot, f)| (f.priority, keys[slot]));
        classes
    }

    /// [`allocate_rates_in_class_order`] in `buf` over an index of the
    /// flows of `classes`, pushed in the order listed, so an index slot is
    /// a position in `classes`. Returns each flow's rate and bottleneck by
    /// its slot in `classes`.
    fn fill_in_order(
        classes: &[(usize, FlowSpec)],
        g: &LinkGraph,
        caps: &[f64],
        flow_cap: f64,
        buf: &mut AllocBuffers,
        work: &mut AllocWork,
    ) -> GraphAllocation {
        let index = ClassIndex::build(classes.iter().map(|&(_, f)| f), g);
        let (mut rates, mut bottleneck) = (vec![-1.0; classes.len()], vec![0; classes.len()]);
        let cols = RateColumns {
            rates: &mut rates,
            bottleneck: &mut bottleneck,
            floor: 0.0,
        };
        allocate_rates_in_class_order(&index, g, caps, flow_cap, buf, cols, work);
        let mut out = GraphAllocation {
            rates: vec![0.0; classes.len()],
            bottleneck: vec![None; classes.len()],
        };
        for (k, &(slot, _)) in classes.iter().enumerate() {
            out.rates[slot] = rates[k];
            out.bottleneck[slot] = link(bottleneck[k]);
        }
        out
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        /// An endpoint-only graph reproduces the flat oracle's rates and
        /// work counters bit for bit.
        #[test]
        fn endpoint_only_graph_matches_flat_oracle(flows in arb_flows(5), cap in 1.0f64..1e10) {
            let caps = vec![cap; 5];
            let mut graph_work = AllocWork::default();
            let mut flat_work = AllocWork::default();
            let g = LinkGraph::with_ports(&caps, &caps);
            let graph = allocate_rates_on_graph(&flows, &g, g.caps(), f64::INFINITY, &mut graph_work);
            let flat = flat_rates(&flows, &caps, &caps, f64::INFINITY, &mut flat_work);
            for (i, (a, b)) in graph.rates.iter().zip(&flat).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "flow {i}: not bit-identical: {} vs {}", a, b);
            }
            prop_assert_eq!(graph_work, flat_work);
        }

        /// The class-ordered entry, on any order within each class and
        /// in buffers reused across calls, reproduces the flat oracle's
        /// rates and work counters bit for bit, capped or not.
        #[test]
        fn class_order_matches_flat_oracle(
            flows in arb_flows(5),
            keys in prop::collection::vec(any::<u32>(), 24),
            cap in 1.0f64..1e10,
            frac in 0.05f64..1.5,
        ) {
            let caps = vec![cap; 5];
            let g = LinkGraph::with_ports(&caps, &caps);
            let mut buf = AllocBuffers::default();
            for flow_cap in [f64::INFINITY, cap * frac] {
                let classes = class_order(&flows, &keys);
                let mut work = AllocWork::default();
                let got = fill_in_order(&classes, &g, g.caps(), flow_cap, &mut buf, &mut work);
                let mut flat_work = AllocWork::default();
                let flat = flat_rates(&flows, &caps, &caps, flow_cap, &mut flat_work);
                prop_assert!(same_bits(&got.rates, &flat), "{:?} vs {:?}", got.rates, flat);
                prop_assert_eq!(work, flat_work);
            }
        }

        /// Permuting flows within a class changes no rate bit, no
        /// bottleneck and no work count, on flat and racked graphs with
        /// transit hops, capped or not: the class-ordered entry matches
        /// the sorting wrapper for two shuffles of every class.
        #[test]
        fn order_within_a_class_changes_nothing(
            flows in arb_flows(6),
            keys in prop::collection::vec(any::<u32>(), 24),
            oversub in 1.0f64..8.0,
            frac in 0.05f64..1.5,
        ) {
            let mut buf = AllocBuffers::default();
            for g in fabrics(100.0, oversub) {
                for flow_cap in [f64::INFINITY, 100.0 * frac] {
                    let mut want_work = AllocWork::default();
                    let want = allocate_rates_on_graph(&flows, &g, g.caps(), flow_cap, &mut want_work);
                    let reversed: Vec<u32> = keys.iter().map(|k| u32::MAX - k).collect();
                    for shuffle in [&keys, &reversed] {
                        let classes = class_order(&flows, shuffle);
                        let mut work = AllocWork::default();
                        let got = fill_in_order(&classes, &g, g.caps(), flow_cap, &mut buf, &mut work);
                        prop_assert!(same_bits(&got.rates, &want.rates),
                            "{:?} vs {:?}", got.rates, want.rates);
                        prop_assert_eq!(got.bottleneck, want.bottleneck.clone());
                        prop_assert_eq!(work, want_work);
                    }
                }
            }
        }

        /// The round loop reproduces the loop as first written, bit for
        /// bit and count for count, in reused buffers: flat and racked
        /// graphs with routes of two and three transit hops, uneven
        /// capacities with one link at zero or just either side of the
        /// residual floor, up to four priority classes, the per-flow cap on
        /// and off.
        #[test]
        fn round_loop_matches_the_reference_fill(
            flows in arb_flows(6),
            racks in 1usize..5,
            caps in prop::collection::vec(1.0f64..1e10, 1..24),
            tiny in 0usize..32,
            tiny_cap in prop_oneof![Just(0.0), Just(4e-7), Just(3e-6)],
            flow_cap in 1e6f64..1e10,
        ) {
            let g = uneven_racks(racks, &caps);
            let mut caps = g.caps().to_vec();
            if let Some(c) = caps.get_mut(tiny) {
                *c = tiny_cap;
            }
            let mut buf = AllocBuffers::default();
            for flow_cap in [f64::INFINITY, flow_cap] {
                let classes = class_order(&flows, &[0; 24]);
                let mut work = AllocWork::default();
                let got = fill_in_order(&classes, &g, &caps, flow_cap, &mut buf, &mut work);
                let mut want_work = AllocWork::default();
                let want = graph_rates(&classes, &g, &caps, flow_cap, &mut want_work);
                prop_assert!(same_bits(&got.rates, &want.rates),
                    "{:?} vs {:?}", got.rates, want.rates);
                prop_assert_eq!(got.bottleneck, want.bottleneck);
                prop_assert_eq!(work, want_work);
            }
        }

        /// The round loop reproduces the loop as first written at the
        /// scale of a 16-machine parameter server: 32 ports of uneven
        /// capacity, one of them at zero or just either side of the
        /// residual floor, up to 300 flows in up to 12 classes that mostly
        /// start blocked, the per-flow cap on and off, buffers reused.
        #[test]
        fn round_loop_matches_the_reference_fill_at_workload_scale(
            flows in arb_skewed_flows(),
            caps in prop::collection::vec(1e8f64..1e10, 32),
            tiny in 0usize..40,
            tiny_cap in prop_oneof![Just(0.0), Just(4e-7), Just(3e-6)],
            flow_cap in 1e6f64..1e9,
        ) {
            let g = LinkGraph::with_ports(&caps[..16], &caps[16..]);
            let mut caps = caps;
            if let Some(c) = caps.get_mut(tiny) {
                *c = tiny_cap;
            }
            let classes = class_order(&flows, &[0; 300]);
            let mut buf = AllocBuffers::default();
            for flow_cap in [f64::INFINITY, flow_cap] {
                let mut work = AllocWork::default();
                let got = fill_in_order(&classes, &g, &caps, flow_cap, &mut buf, &mut work);
                let mut want_work = AllocWork::default();
                let want = graph_rates(&classes, &g, &caps, flow_cap, &mut want_work);
                prop_assert!(same_bits(&got.rates, &want.rates),
                    "{:?} vs {:?}", got.rates, want.rates);
                prop_assert_eq!(got.bottleneck, want.bottleneck);
                prop_assert_eq!(work, want_work);
            }
        }

        /// Same, with a per-flow cap in play.
        #[test]
        fn endpoint_only_graph_matches_flat_oracle_capped(
            flows in arb_flows(5),
            cap in 1.0f64..1e10,
            frac in 0.05f64..1.5,
        ) {
            let caps = vec![cap; 5];
            let flow_cap = cap * frac;
            let graph = on_ports(&flows, &caps, &caps, flow_cap);
            let flat = flat_rates(&flows, &caps, &caps, flow_cap, &mut AllocWork::default());
            for (a, b) in graph.rates.iter().zip(&flat) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "not bit-identical: {} vs {}", a, b);
            }
        }

        /// No port or transit link is ever loaded beyond its capacity.
        #[test]
        fn link_capacities_respected(
            flows in arb_flows(6),
            nic in 1.0f64..1e10,
            oversub in 1.0f64..8.0,
        ) {
            for g in fabrics(nic, oversub) {
                let a = on_graph(&flows, &g, f64::INFINITY);
                assert_capacities_respected(&flows, &g, g.caps(), &a, 1e-6);
            }
        }

        /// Max-min optimality, uncapped: every flow crosses a saturated
        /// link.
        #[test]
        fn every_flow_hits_a_saturated_link(flows in arb_flows(6), oversub in 1.0f64..8.0) {
            for g in fabrics(100.0, oversub) {
                let a = on_graph(&flows, &g, f64::INFINITY);
                assert_every_flow_hits_a_saturated_link(&flows, &g, g.caps(), &a, f64::INFINITY, 1e-6);
            }
        }

        /// Rates of the most urgent class are identical whether or not any
        /// other traffic exists.
        #[test]
        fn urgent_class_blind_to_bulk(flows in arb_flows(6)) {
            for g in fabrics(77.0, 4.0) {
                let all = on_graph(&flows, &g, f64::INFINITY);
                let urgent: Vec<FlowSpec> =
                    flows.iter().copied().filter(|f| f.priority == Priority(0)).collect();
                let alone = on_graph(&urgent, &g, f64::INFINITY);
                let mut k = 0;
                for (f, r) in flows.iter().zip(&all.rates) {
                    if f.priority == Priority(0) {
                        prop_assert!((r - alone.rates[k]).abs() < 1e-6,
                            "urgent flow rate changed: {} vs {}", r, alone.rates[k]);
                        k += 1;
                    }
                }
            }
        }

        /// The compare-select link passes equal `f64::min`/`f64::max`
        /// folds over the same values, bit for bit: unused lanes
        /// (`count = 0`, with `res = 0` among them, whose quotient is NaN
        /// before the select), residuals of ∞, 0, NaN, `FLOOR` and either
        /// side of it, and lengths that leave a tail after the lanes.
        #[test]
        fn link_passes_match_min_and_max_folds(
            links in prop::collection::vec((0u8..8, 0.0f64..1.0, 0u32..3), 0..19),
        ) {
            let level = |kind: u8, x: f64| match kind {
                0 => 0.0,
                1 => f64::INFINITY,
                2 => f64::NAN,
                3 => FLOOR,
                4 => FLOOR * (1.0 - x * 0.5),
                5 => FLOOR * (1.0 + x),
                6 => x,
                _ => x * 1e10,
            };
            let res: Vec<f64> = links.iter().map(|&(kind, x, _)| level(kind, x)).collect();
            let count: Vec<u32> = links.iter().map(|&(_, _, c)| c).collect();

            let pairs = res.iter().zip(&count);
            let quotient = |(&r, &c): (&f64, &u32)| {
                if c > 0 { r / f64::from(c) } else { f64::INFINITY }
            };
            let least = pairs.clone().map(quotient).fold(f64::INFINITY, f64::min);
            let touched = pairs.filter(|&(_, &c)| c > 0).count() as u64;
            let (got, got_touched) = least_share(&res, &count);
            prop_assert_eq!((got.to_bits(), got_touched), (least.to_bits(), touched));

            let mut want = res.clone();
            let scale = want.iter_mut().fold(1.0, |s: f64, r| {
                *r = if *r < FLOOR { 0.0 } else { *r };
                s.max(*r)
            });
            let mut got = res;
            let got_scale = clamp(&mut got);
            prop_assert_eq!(got_scale.to_bits(), scale.to_bits());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn identical_flows_get_equal_rates(n in 1usize..10, cap in 1.0f64..1e9) {
            let flows: Vec<FlowSpec> = (0..n).map(|_| flow(0, 1, 1)).collect();
            let rates = uniform(&flows, 2, cap);
            for r in &rates {
                prop_assert!((r - rates[0]).abs() < 1e-6 * cap);
            }
        }
    }

    /// The fill reproduces the loop as first written where most classes
    /// start blocked: flat and racked graphs with routes of two and three
    /// transit hops, most sources saturated by an urgent class, duplicate
    /// specs, one link at zero or just either side of the residual floor,
    /// the per-flow cap on and off. Some case must exercise a class whose
    /// first round raises by 0, and one where a whole source is blocked at
    /// its tx port. Both show in the reference's result: only a first
    /// round that raises by 0 freezes a flow at rate 0 on a link, and the
    /// tx port is first on every route.
    #[test]
    fn blocked_classes_match_the_reference_fill() {
        let name = concat!(module_path!(), "::blocked_classes_match_the_reference_fill");
        let (mut blocked, mut blocked_at_tx) = (0, 0);
        for case in 0..proptest::cases().max(64) {
            let mut rng = proptest::TestRng::for_case(name, case);
            let flows = arb_blocked_flows().generate(&mut rng);
            let racks = (1usize..5).generate(&mut rng);
            let caps = prop::collection::vec(1e6f64..1e10, 1..24).generate(&mut rng);
            let tiny = (0usize..32).generate(&mut rng);
            let tiny_cap = prop_oneof![Just(0.0), Just(4e-7), Just(3e-6)].generate(&mut rng);
            let flow_cap = (1e6f64..1e10).generate(&mut rng);
            let g = uneven_racks(racks, &caps);
            let mut caps = g.caps().to_vec();
            if let Some(c) = caps.get_mut(tiny) {
                *c = tiny_cap;
            }
            let classes = class_order(&flows, &vec![0; flows.len()]);
            for flow_cap in [f64::INFINITY, flow_cap] {
                let mut work = AllocWork::default();
                let got = allocate_rates_on_graph(&flows, &g, &caps, flow_cap, &mut work);
                let mut want_work = AllocWork::default();
                let want = graph_rates(&classes, &g, &caps, flow_cap, &mut want_work);
                assert!(
                    same_bits(&got.rates, &want.rates),
                    "case {case}: {:?} vs {:?}",
                    got.rates,
                    want.rates
                );
                assert_eq!(got.bottleneck, want.bottleneck, "case {case}");
                assert_eq!(work, want_work, "case {case}");
                for ((f, r), b) in flows.iter().zip(&want.rates).zip(&want.bottleneck) {
                    if let (0, Some(l)) = (r.to_bits(), b) {
                        blocked += 1;
                        blocked_at_tx += usize::from(l.0 == f.src);
                    }
                }
            }
        }
        assert!(
            blocked > 0 && blocked_at_tx > 0,
            "{blocked} blocked, {blocked_at_tx} at tx"
        );
    }
}
