//! The capacity and saturation checks of the property tests, and the same
//! checks on fills at the scale of the engine's ladder.

use super::properties::racked;
use super::*;
use p3_des::SplitMix64;

/// Load each link carries under `rates`.
fn loads(flows: &[FlowSpec], g: &LinkGraph, rates: &[f64]) -> Vec<f64> {
    let mut load = vec![0.0; g.num_links()];
    for (f, r) in flows.iter().zip(rates) {
        for l in g.path(f.src, f.dst) {
            load[l.0] += r;
        }
    }
    load
}

/// Every rate is finite and non-negative, and no link carries more
/// than `(1 + tol)` times its capacity in `caps`.
pub(super) fn assert_capacities_respected(
    flows: &[FlowSpec],
    g: &LinkGraph,
    caps: &[f64],
    a: &GraphAllocation,
    tol: f64,
) {
    assert!(a.rates.iter().all(|&r| r.is_finite() && r >= 0.0));
    let load = loads(flows, g, &a.rates);
    for (l, (&used, &cap)) in load.iter().zip(caps).enumerate() {
        assert!(
            used <= cap * (1.0 + tol),
            "link {} over capacity: {} > {}",
            g.link_name(LinkId(l)),
            used,
            cap
        );
    }
}

/// Max-min optimality (work conservation): every flow below
/// `flow_cap` crosses a link loaded to within `tol` of its capacity in
/// `caps`, otherwise its rate could rise; and a reported bottleneck is
/// such a link on the flow's own route.
pub(super) fn assert_every_flow_hits_a_saturated_link(
    flows: &[FlowSpec],
    g: &LinkGraph,
    caps: &[f64],
    a: &GraphAllocation,
    flow_cap: f64,
    tol: f64,
) {
    let load = loads(flows, g, &a.rates);
    let saturated = |l: LinkId| load[l.0] >= caps[l.0] * (1.0 - tol);
    for (i, f) in flows.iter().enumerate() {
        let path = g.path(f.src, f.dst);
        assert!(
            a.rates[i] >= flow_cap * (1.0 - tol) || path.iter().any(|&l| saturated(l)),
            "flow {i} ({f:?}) has slack on every link of its path"
        );
        if let Some(l) = a.bottleneck[i] {
            assert!(
                path.contains(&l) && saturated(l),
                "flow {i}: bottleneck {} not a saturated link of its path",
                g.link_name(l)
            );
        }
    }
}

/// The two checks above at the scale of the engine's ladder, where
/// `EPS` and `FLOOR` meet the largest sums: 64 and 128 machines, flat
/// and in racks of 8 behind a 2:1 core, a few thousand flows in up to
/// 300 classes with half of them sent to eight hot receivers, one link
/// in ten scaled to a random fraction and one port in fifty to 1e-7 of
/// its capacity, the per-flow cap off and on. Seeded, so every run
/// fills the same 16 problems.
#[test]
fn fills_at_ladder_scale_respect_capacities_and_saturate_every_flow() {
    const NIC: f64 = 1.25e9;
    let mut rng = SplitMix64::new(0x5ca1e);
    for machines in [64usize, 128] {
        for g in [
            LinkGraph::new(&vec![NIC; machines]),
            racked(machines / 8, 8, NIC, 2.0),
        ] {
            for _ in 0..2 {
                let n = 2000 + rng.next_below(2001) as usize;
                let classes = 1 + rng.next_below(300) as u32;
                let below = |rng: &mut SplitMix64, m: usize| rng.next_below(m as u64) as usize;
                let flows: Vec<FlowSpec> = (0..n)
                    .map(|_| {
                        let src = below(&mut rng, machines);
                        let dst = if rng.next_below(2) == 0 {
                            below(&mut rng, 8)
                        } else {
                            below(&mut rng, machines)
                        };
                        let dst = if dst == src {
                            (dst + 1) % machines
                        } else {
                            dst
                        };
                        flow(src, dst, rng.next_below(u64::from(classes)) as u32)
                    })
                    .collect();
                let mut caps = g.caps().to_vec();
                for (l, c) in caps.iter_mut().enumerate() {
                    if rng.next_below(10) == 0 {
                        *c *= rng.next_f64();
                    }
                    if l < 2 * machines && rng.next_below(50) == 0 {
                        *c *= 1e-7;
                    }
                }
                for flow_cap in [f64::INFINITY, 1.2e8] {
                    let a = allocate_rates_on_graph(
                        &flows,
                        &g,
                        &caps,
                        flow_cap,
                        &mut AllocWork::default(),
                    );
                    assert_capacities_respected(&flows, &g, &caps, &a, 1e-12);
                    assert_every_flow_hits_a_saturated_link(&flows, &g, &caps, &a, flow_cap, 1e-12);
                }
            }
        }
    }
}
