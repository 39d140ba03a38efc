//! Strict-priority max-min fair rate allocation over a [`LinkGraph`].
//!
//! Every machine NIC is modelled as two independent ports (transmit and
//! receive) with fixed capacity; a topology may add transit links
//! (switch uplinks and downlinks) that some routes cross. A flow from
//! machine `a` to machine `b` consumes every link on its route at the same
//! rate. Within a priority class, rates are max-min fair (progressive
//! filling / water filling); across classes, a more urgent class is
//! allocated first and less urgent classes share only the leftover
//! capacity — the fluid-model equivalent of strict priority queueing,
//! which is how P3's priority-tagged packets are serviced.
//!
//! [`allocate_rates_on_graph`] is the one allocator: the flat
//! single-switch fabric is the endpoint-only graph. The test-only
//! `oracle` module keeps the original two-port water-fill as a reference,
//! and property tests pin the two bit-identical on endpoint-only graphs.

use crate::multilink::{LinkGraph, LinkId};
use crate::types::Priority;

#[cfg(test)]
mod tests;

/// Work performed by one allocator invocation: how many water-fill raise
/// rounds ran and how many flow/link slots they examined. Counting is
/// pure integer arithmetic bolted alongside the float math — the rate
/// arithmetic itself is untouched — so the counters are as deterministic
/// as the rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocWork {
    /// Water-fill raise rounds executed.
    pub rounds: u64,
    /// Flow slots examined, summed over rounds.
    pub flow_touches: u64,
    /// Links (ports and transit links) carrying at least one active flow,
    /// summed over rounds.
    pub port_touches: u64,
}

/// One flow's routing and urgency, as seen by the allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Index of the transmitting machine.
    pub src: usize,
    /// Index of the receiving machine.
    pub dst: usize,
    /// Strict-priority class.
    pub priority: Priority,
}

/// Result of [`allocate_rates_on_graph`]: per-flow rates and the link at
/// which each flow froze.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphAllocation {
    /// Rate of each flow in bytes/sec, parallel to the input.
    pub rates: Vec<f64>,
    /// The saturated link that froze each flow, or `None` when the flow
    /// was limited by the per-flow cap (or never froze on a link).
    pub bottleneck: Vec<Option<LinkId>>,
}

/// Computes strict-priority max-min fair rates over a [`LinkGraph`]:
/// progressive filling over every link on each flow's route, more urgent
/// classes first, less urgent classes restricted to the leftovers.
///
/// `caps` is the working capacity of each link (typically
/// [`LinkGraph::scaled_caps`]). `flow_cap` caps every individual flow in
/// bytes/sec — the single-stream goodput ceiling imposed by a CPU-bound
/// endpoint stack (ps-lite serializes each connection on one core; PHub,
/// Luo et al. 2018, measured a few Gbps per stream); capacity a capped
/// flow leaves unused is redistributed max-min. Pass `f64::INFINITY` for
/// no cap. The allocator's effort (water-fill rounds, flow and link
/// touches) is added to `work`, the simulator's self-profiling counters.
///
/// Loopback flows (`src == dst`) must not be submitted — they have no
/// path in the graph.
///
/// # Panics
///
/// Panics if a flow references an unknown machine or a loopback pair, if
/// `caps.len()` differs from the graph's link count, or if `flow_cap` is
/// not positive.
///
/// # Examples
///
/// ```
/// use p3_net::{allocate_rates_on_graph, AllocWork, FlowSpec, LinkGraph, Priority};
///
/// // Two equal-priority flows out of machine 0 share its tx port.
/// let flows = [
///     FlowSpec { src: 0, dst: 1, priority: Priority(1) },
///     FlowSpec { src: 0, dst: 2, priority: Priority(1) },
/// ];
/// let g = LinkGraph::new(&[100.0, 100.0, 100.0]);
/// let mut work = AllocWork::default();
/// let alloc = allocate_rates_on_graph(&flows, &g, g.caps(), f64::INFINITY, &mut work);
/// assert_eq!(alloc.rates, vec![50.0, 50.0]);
/// assert_eq!(alloc.bottleneck, vec![Some(g.tx_link(0)); 2]);
/// ```
pub fn allocate_rates_on_graph(
    flows: &[FlowSpec],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
    work: &mut AllocWork,
) -> GraphAllocation {
    assert_eq!(
        caps.len(),
        graph.num_links(),
        "capacity table does not match the graph"
    );
    assert!(flow_cap > 0.0, "non-positive flow cap");
    let machines = graph.machines();
    for f in flows {
        assert!(
            f.src < machines && f.dst < machines,
            "flow {f:?} references unknown machine"
        );
        assert!(
            f.src != f.dst,
            "loopback flow {f:?} has no path in the graph"
        );
    }

    let mut fill = WaterFill {
        flows,
        graph,
        flow_cap,
        res: caps.to_vec(),
        count: vec![0; caps.len()],
        rates: vec![0.0; flows.len()],
        bottleneck: vec![None; flows.len()],
        work,
    };
    // Bucket flows by class, most urgent first. The sort is stable, so
    // each class keeps its members in input order.
    let mut order: Vec<usize> = (0..flows.len()).collect();
    order.sort_by_key(|&i| flows[i].priority);
    for members in order.chunk_by_mut(|&a, &b| flows[a].priority == flows[b].priority) {
        fill.class(members);
    }
    GraphAllocation {
        rates: fill.rates,
        bottleneck: fill.bottleneck,
    }
}

/// Inputs and running state of one allocation.
struct WaterFill<'a> {
    flows: &'a [FlowSpec],
    graph: &'a LinkGraph,
    flow_cap: f64,
    /// Residual capacity per link after serving more urgent flows.
    res: Vec<f64>,
    /// Scratch: active flows per link in the current round.
    count: Vec<u32>,
    rates: Vec<f64>,
    bottleneck: Vec<Option<LinkId>>,
    work: &'a mut AllocWork,
}

impl<'a> WaterFill<'a> {
    /// Progressive filling of one priority class over the residual link
    /// capacities. On return the members' rates and bottlenecks are set and
    /// the residuals are reduced by the allocation. `members` is reused as
    /// the working set: the flows still rising stay at its front, in input
    /// order, so its contents are unspecified afterwards.
    fn class(&mut self, members: &mut [usize]) {
        const EPS: f64 = 1e-9;
        /// Residual capacity below this (bytes/sec — one byte per ~12
        /// days) is numerical noise left over from freezing a saturated
        /// link; treat it as zero so no flow is ever assigned an absurdly
        /// small positive rate.
        const FLOOR: f64 = 1e-6;
        let WaterFill {
            flows,
            graph,
            flow_cap,
            res,
            count,
            rates,
            bottleneck,
            work,
        } = self;
        let (flows, graph, flow_cap) = (*flows, *graph, *flow_cap);
        let machines = graph.machines();
        // Transit hops of a flow's route; tx and rx come from the flow.
        let routed = graph.has_transit();
        let hops = |f: &FlowSpec| -> &'a [LinkId] {
            if routed {
                graph.transit(f.src, f.dst)
            } else {
                &[]
            }
        };

        // The flows still rising are `members[..n]`.
        let mut n = members.len();
        while n > 0 {
            let active = &members[..n];
            for r in res.iter_mut() {
                if *r < FLOOR {
                    *r = 0.0;
                }
            }
            // Count active flows per link.
            count.fill(0);
            for &i in active {
                let f = &flows[i];
                count[f.src] += 1;
                count[machines + f.dst] += 1;
                for l in hops(f) {
                    count[l.0] += 1;
                }
            }
            work.rounds += 1;
            work.flow_touches += active.len() as u64;
            work.port_touches += count.iter().filter(|&&c| c > 0).count() as u64;

            // The common rate increment is limited by the tightest link, or
            // by the first flow to reach the per-flow ceiling.
            let mut delta = f64::INFINITY;
            for (&r, &c) in res.iter().zip(count.iter()) {
                if c > 0 {
                    delta = delta.min(r / c as f64);
                }
            }
            for &i in active {
                delta = delta.min(flow_cap - rates[i]);
            }
            debug_assert!(delta.is_finite(), "active flows but no limiting link");
            let delta = delta.max(0.0);

            // Raise every active flow by delta and charge its whole route.
            for &i in active {
                let f = &flows[i];
                rates[i] += delta;
                res[f.src] -= delta;
                for l in hops(f) {
                    res[l.0] -= delta;
                }
                res[machines + f.dst] -= delta;
            }
            for r in res.iter_mut() {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }

            // Freeze flows crossing any saturated link, recording the first
            // one on the route (tx, transit hops, rx) as the bottleneck, and
            // move the rest to the front in order. Capacity scale for the
            // epsilon test: the largest residual in use.
            let scale = res.iter().fold(1.0f64, |a, &b| a.max(b)).max(delta);
            let thr = (EPS * scale).max(FLOOR);
            let mut kept = 0;
            for k in 0..n {
                let i = members[k];
                if rates[i] >= flow_cap * (1.0 - EPS) {
                    // Frozen by the per-flow cap, not by a link.
                    continue;
                }
                let f = &flows[i];
                let mut route = std::iter::once(LinkId(f.src))
                    .chain(hops(f).iter().copied())
                    .chain(std::iter::once(LinkId(machines + f.dst)));
                match route.find(|l| res[l.0] <= thr) {
                    Some(l) => bottleneck[i] = Some(l),
                    None => {
                        members[kept] = i;
                        kept += 1;
                    }
                }
            }
            // Progress guarantee: if nothing froze, every remaining link has
            // zero residual growth possible (e.g. zero-capacity links) —
            // terminate.
            if kept == n {
                break;
            }
            n = kept;
        }
    }
}

/// The original flat water-fill over two ports per machine, kept as the
/// reference the graph allocator is pinned bit-identical against.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{AllocWork, FlowSpec};
    use crate::types::Priority;

    /// Strict-priority max-min rates with machine `i`'s ports at
    /// `tx_cap[i]` / `rx_cap[i]` bytes/sec and every flow capped at
    /// `flow_cap`. Loopback flows consume both of the machine's ports.
    pub(crate) fn flat_rates(
        flows: &[FlowSpec],
        tx_cap: &[f64],
        rx_cap: &[f64],
        flow_cap: f64,
        work: &mut AllocWork,
    ) -> Vec<f64> {
        let mut rates = vec![0.0; flows.len()];
        let mut res_tx: Vec<f64> = tx_cap.to_vec();
        let mut res_rx: Vec<f64> = rx_cap.to_vec();
        let mut classes: Vec<Priority> = flows.iter().map(|f| f.priority).collect();
        classes.sort_unstable();
        classes.dedup();
        for class in classes {
            let members: Vec<usize> = (0..flows.len())
                .filter(|&i| flows[i].priority == class)
                .collect();
            water_fill(
                flows,
                &members,
                &mut res_tx,
                &mut res_rx,
                &mut rates,
                flow_cap,
                work,
            );
        }
        rates
    }

    fn water_fill(
        flows: &[FlowSpec],
        members: &[usize],
        res_tx: &mut [f64],
        res_rx: &mut [f64],
        rates: &mut [f64],
        flow_cap: f64,
        work: &mut AllocWork,
    ) {
        const EPS: f64 = 1e-9;
        const FLOOR: f64 = 1e-6;
        let machines = res_tx.len();
        let mut active: Vec<usize> = members.to_vec();
        while !active.is_empty() {
            for m in 0..machines {
                if res_tx[m] < FLOOR {
                    res_tx[m] = 0.0;
                }
                if res_rx[m] < FLOOR {
                    res_rx[m] = 0.0;
                }
            }
            let mut tx_count = vec![0u32; machines];
            let mut rx_count = vec![0u32; machines];
            for &i in &active {
                tx_count[flows[i].src] += 1;
                rx_count[flows[i].dst] += 1;
            }
            work.rounds += 1;
            work.flow_touches += active.len() as u64;
            work.port_touches += tx_count.iter().filter(|&&c| c > 0).count() as u64
                + rx_count.iter().filter(|&&c| c > 0).count() as u64;

            let mut delta = f64::INFINITY;
            for m in 0..machines {
                if tx_count[m] > 0 {
                    delta = delta.min(res_tx[m] / tx_count[m] as f64);
                }
                if rx_count[m] > 0 {
                    delta = delta.min(res_rx[m] / rx_count[m] as f64);
                }
            }
            for &i in &active {
                delta = delta.min(flow_cap - rates[i]);
            }
            let delta = delta.max(0.0);

            for &i in &active {
                rates[i] += delta;
                res_tx[flows[i].src] -= delta;
                res_rx[flows[i].dst] -= delta;
            }
            for m in 0..machines {
                if res_tx[m] < 0.0 {
                    res_tx[m] = 0.0;
                }
                if res_rx[m] < 0.0 {
                    res_rx[m] = 0.0;
                }
            }

            let scale = res_tx
                .iter()
                .chain(res_rx.iter())
                .fold(1.0f64, |a, &b| a.max(b))
                .max(delta);
            let before = active.len();
            active.retain(|&i| {
                rates[i] < flow_cap * (1.0 - EPS)
                    && res_tx[flows[i].src] > (EPS * scale).max(FLOOR)
                    && res_rx[flows[i].dst] > (EPS * scale).max(FLOOR)
            });
            if active.len() == before {
                break;
            }
        }
    }
}
