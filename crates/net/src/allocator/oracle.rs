//! Reference allocators the graph water-fill is pinned bit-identical
//! against: the original flat water-fill over two ports per machine, and
//! the graph water-fill's round loop as first written.

use super::{link, AllocWork, FlowSpec, GraphAllocation, WaterFill, EPS, FLOOR, NO_LINK};
use crate::multilink::LinkGraph;
use crate::types::Priority;

/// [`super::allocate_rates_in_class_order`]'s result on fresh buffers,
/// filled by the round loop as first written: each route walked
/// through `on_route` closures and the freeze test through the chained
/// [`LinkGraph::route`] iterator, one pass over the links per step.
pub(crate) fn graph_rates(
    classes: &[(usize, FlowSpec)],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
    work: &mut AllocWork,
) -> GraphAllocation {
    let mut res = caps.to_vec();
    let mut count = vec![0; caps.len()];
    let mut rates = vec![0.0; classes.len()];
    let mut bottleneck = vec![NO_LINK; classes.len()];
    let mut fill = WaterFill {
        graph,
        flow_cap,
        floor: 0.0,
        res: &mut res,
        count: &mut count,
        rates: &mut rates,
        bottleneck: &mut bottleneck,
        scale: 1.0,
        work,
    };
    for class in classes.chunk_by(|(_, a), (_, b)| a.priority == b.priority) {
        fill.reference_class(&mut class.to_vec());
    }
    let bottleneck = bottleneck.into_iter().map(link).collect();
    GraphAllocation { rates, bottleneck }
}

impl WaterFill<'_> {
    /// [`WaterFill::class`] as first written.
    fn reference_class(&mut self, members: &mut [(usize, FlowSpec)]) {
        let graph = self.graph;
        let mut level = 0.0f64;
        let mut n = members.len();
        while n > 0 {
            for (r, c) in self.res.iter_mut().zip(self.count.iter_mut()) {
                if *r < FLOOR {
                    *r = 0.0;
                }
                *c = 0;
            }
            for (_, f) in members.iter().take(n) {
                on_route(self.count, graph, f, |c| *c += 1);
            }
            self.work.rounds += 1;
            self.work.port_touches += self.count.iter().filter(|&&c| c > 0).count() as u64;

            let mut delta = f64::INFINITY;
            for (&r, &c) in self.res.iter().zip(self.count.iter()) {
                if c > 0 {
                    delta = delta.min(r / c as f64);
                }
            }
            delta = delta.min(self.flow_cap - level);
            let delta = delta.max(0.0);

            level += delta;
            for (_, f) in members.iter().take(n) {
                on_route(self.res, graph, f, |r| *r -= delta);
            }
            for r in self.res.iter_mut() {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }

            if level >= self.flow_cap * (1.0 - EPS) {
                self.freeze_unbound(&members[..n], level);
                return;
            }
            let scale = self.res.iter().fold(1.0f64, |a, &b| a.max(b)).max(delta);
            let thr = (EPS * scale).max(FLOOR);
            let mut kept = 0;
            for k in 0..n {
                let (slot, f) = members[k];
                let res = &*self.res;
                let hit = graph
                    .route(f.src, f.dst)
                    .find(|l| res.get(l.0).is_some_and(|&r| r <= thr));
                match hit {
                    Some(l) => self.freeze(slot as u32, level, l.0 as u32),
                    None => {
                        members.swap(kept, k);
                        kept += 1;
                    }
                }
            }
            if kept == n {
                self.freeze_unbound(&members[..n], level);
                return;
            }
            n = kept;
        }
    }
}

impl WaterFill<'_> {
    /// Freezes flows that no link bounds at `rate`.
    fn freeze_unbound(&mut self, flows: &[(usize, FlowSpec)], rate: f64) {
        for &(slot, _) in flows {
            self.freeze(slot as u32, rate, NO_LINK);
        }
    }
}

/// Applies `op` to the entry of `links` for every link on `f`'s route:
/// tx port, transit hops, rx port.
fn on_route<T>(links: &mut [T], graph: &LinkGraph, f: &FlowSpec, mut op: impl FnMut(&mut T)) {
    let mut apply = |l: usize| {
        if let Some(x) = links.get_mut(l) {
            op(x);
        }
    };
    apply(f.src);
    if graph.has_transit() {
        for l in graph.transit(f.src, f.dst) {
            apply(l.0);
        }
    }
    apply(graph.machines() + f.dst);
}

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
