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
//! [`allocate_rates_in_class_order`] is the one water-fill. Its caller
//! passes the flows already grouped by class and owns the working memory
//! ([`AllocBuffers`]), so a caller that keeps its flows in class order —
//! the [`crate::Network`] — neither sorts nor allocates per call. The
//! fill only reads the caller's flows, so their order is the caller's.
//! [`allocate_rates_on_graph`] is the one-shot form: it stable-sorts the
//! flows by class and runs the same fill. The flat single-switch fabric is
//! the endpoint-only graph. The test-only `oracle` module keeps two
//! references: the original two-port water-fill, which property tests pin
//! bit-identical to the fill on endpoint-only graphs, and the fill's round
//! loop as first written, pinned on flat and racked graphs alike.

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

/// Working memory and results of [`allocate_rates_in_class_order`]. The
/// caller owns it and passes the same value to every call, so once its
/// vectors have grown to the largest flow set a call allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct AllocBuffers {
    /// Residual capacity per link after serving more urgent flows.
    res: Vec<f64>,
    /// Rising flows per link in the class being filled; all zero between
    /// classes.
    count: Vec<u32>,
    /// Rate of each flow, by slot.
    rates: Vec<f64>,
    /// The link that froze each flow, by slot.
    bottleneck: Vec<Option<LinkId>>,
    /// The class being filled; the flows still rising stay at its front.
    rising: Vec<(usize, FlowSpec)>,
}

impl AllocBuffers {
    /// Each flow's rate in bytes/sec under the last allocation, indexed by
    /// its slot.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The saturated link that froze each flow under the last allocation,
    /// indexed by its slot: `None` when the per-flow cap bound the flow
    /// (or it never froze on a link).
    pub fn bottleneck(&self) -> &[Option<LinkId>] {
        &self.bottleneck
    }

    /// Loads a stored allocation of `len` flows, as the fill would have
    /// left it: `outs` gives each slot's rate and bottleneck.
    pub(crate) fn load(
        &mut self,
        len: usize,
        outs: impl Iterator<Item = (usize, f64, Option<LinkId>)>,
    ) {
        self.rates.clear();
        self.rates.resize(len, 0.0);
        self.bottleneck.clear();
        self.bottleneck.resize(len, None);
        for (slot, rate, at) in outs {
            if let (Some(r), Some(b)) = (self.rates.get_mut(slot), self.bottleneck.get_mut(slot)) {
                *r = rate;
                *b = at;
            }
        }
    }
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
/// This is [`allocate_rates_in_class_order`] behind a stable sort by
/// priority, with fresh buffers.
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
    let mut classes: Vec<(usize, FlowSpec)> = flows.iter().copied().enumerate().collect();
    classes.sort_by_key(|(_, f)| f.priority);
    let mut buf = AllocBuffers::default();
    allocate_rates_in_class_order(&classes, graph, caps, flow_cap, &mut buf, work);
    GraphAllocation {
        rates: buf.rates,
        bottleneck: buf.bottleneck,
    }
}

/// The water-fill of [`allocate_rates_on_graph`], for flows the caller
/// keeps grouped by class, in caller-owned buffers.
///
/// `classes` lists every flow as `(slot, spec)`, or as any entry that
/// converts to one (the fabric passes its class index's packed entries),
/// grouped by priority with the most urgent class first; the slots are a
/// permutation of `0..classes.len()`. The order within a class changes no
/// result bit and no work count: every rising flow of a class takes the
/// same increment each round, and each link is charged once per flow
/// crossing it in any order. The fill copies each class into
/// [`AllocBuffers`] and works on the copy, so `classes` is only read. Each flow's rate and bottleneck
/// land at its slot in [`AllocBuffers::rates`] and
/// [`AllocBuffers::bottleneck`].
/// `caps`, `flow_cap` and `work` are as for [`allocate_rates_on_graph`].
///
/// # Panics
///
/// Panics if `classes` is not grouped by priority, most urgent first, if
/// a slot is out of range, if a flow references an unknown machine or a
/// loopback pair, if `caps.len()` differs from the graph's link count, or
/// if `flow_cap` is not positive.
///
/// # Examples
///
/// ```
/// use p3_net::{
///     allocate_rates_in_class_order, AllocBuffers, AllocWork, FlowSpec, LinkGraph, Priority,
/// };
///
/// // An urgent flow (slot 1) takes machine 0's tx port before the bulk
/// // flow (slot 0) gets the rest.
/// let urgent = FlowSpec { src: 0, dst: 2, priority: Priority(0) };
/// let bulk = FlowSpec { src: 0, dst: 1, priority: Priority(5) };
/// let g = LinkGraph::with_ports(&[100.0, 100.0, 100.0], &[100.0, 100.0, 30.0]);
/// let mut buf = AllocBuffers::default();
/// let mut work = AllocWork::default();
/// let classes = [(1, urgent), (0, bulk)];
/// allocate_rates_in_class_order(&classes, &g, g.caps(), f64::INFINITY, &mut buf, &mut work);
/// assert_eq!(buf.rates(), &[70.0, 30.0]);
/// assert_eq!(buf.bottleneck(), &[Some(g.tx_link(0)), Some(g.rx_link(2))]);
/// ```
pub fn allocate_rates_in_class_order<E: Copy + Into<(usize, FlowSpec)>>(
    classes: &[E],
    graph: &LinkGraph,
    caps: &[f64],
    flow_cap: f64,
    buf: &mut AllocBuffers,
    work: &mut AllocWork,
) {
    assert_eq!(
        caps.len(),
        graph.num_links(),
        "capacity table does not match the graph"
    );
    assert!(flow_cap > 0.0, "non-positive flow cap");
    let machines = graph.machines();

    let AllocBuffers {
        res,
        count,
        rates,
        bottleneck,
        rising,
    } = buf;
    res.clear();
    res.extend_from_slice(caps);
    let scale = clamp(res);
    count.clear();
    count.resize(caps.len(), 0);
    rates.clear();
    rates.resize(classes.len(), 0.0);
    bottleneck.clear();
    bottleneck.resize(classes.len(), None);
    let mut fill = WaterFill {
        graph,
        flow_cap,
        res,
        count,
        rates,
        bottleneck,
        scale,
        work,
    };
    // One pass over the input: each entry is checked as it is copied into
    // its class, and a class is filled once the next one begins.
    rising.clear();
    let mut class = None;
    for &e in classes {
        let (slot, f) = e.into();
        assert!(slot < classes.len(), "slot {slot} out of range");
        assert!(
            f.src < machines && f.dst < machines,
            "flow {f:?} references unknown machine"
        );
        assert!(
            f.src != f.dst,
            "loopback flow {f:?} has no path in the graph"
        );
        let priority = Some(f.priority);
        if priority != class {
            assert!(
                class < priority,
                "flows not grouped by priority, most urgent first"
            );
            fill.class(rising);
            rising.clear();
            class = priority;
        }
        rising.push((slot, f));
    }
    fill.class(rising);
}

/// Relative tolerance of the freeze test: a link is saturated once its
/// residual is within this share of the largest residual in use.
const EPS: f64 = 1e-9;
/// Residual capacity below this (bytes/sec — one byte per ~12 days) is
/// numerical noise left over from freezing a saturated link; treat it as
/// zero so no flow is ever assigned an absurdly small positive rate.
const FLOOR: f64 = 1e-6;

/// One allocation's inputs and running state, borrowed from the caller's
/// [`AllocBuffers`].
struct WaterFill<'a> {
    graph: &'a LinkGraph,
    flow_cap: f64,
    res: &'a mut [f64],
    count: &'a mut [u32],
    rates: &'a mut [f64],
    bottleneck: &'a mut [Option<LinkId>],
    /// The freeze test's capacity scale: the largest residual, at least 1,
    /// as of the last pass that clamped the residuals.
    scale: f64,
    work: &'a mut AllocWork,
}

impl WaterFill<'_> {
    /// Progressive filling of one priority class over the residual link
    /// capacities. On return the members' rates and bottlenecks are set and
    /// the residuals are reduced by the allocation. `members` is a working
    /// copy of the class: the flows still rising stay at its front, in
    /// order.
    ///
    /// Every rising member holds the same rate, the class's level: all
    /// start at zero and each round raises them by the same `delta`. So the
    /// per-flow cap test and the rate raise are one comparison and one
    /// addition per round, and a member's rate is written when it freezes.
    ///
    /// The per-flow passes index each route directly: tx port, transit
    /// hops (only when the graph has them), rx port. The class's links are
    /// counted once, on entry, and a flow's route leaves the count when it
    /// freezes, so the counts always equal a recount of the rising flows.
    /// Each round takes the `delta` minimum and the touched-link count in
    /// one pass over the links ([`least_share`]). A round that raises the
    /// class charges the rising routes, then clamps residuals below
    /// `FLOOR` to zero and takes the largest as the freeze test's scale
    /// ([`clamp`]). A round whose `delta` is 0 (a first round blocked on
    /// an empty link) changes no residual, so it skips both passes and
    /// keeps the last clamp's scale. The residuals are clamped when loaded
    /// too, so every round starts on clamped residuals.
    #[expect(
        clippy::indexing_slicing,
        reason = "n <= members.len(); flow endpoints are asserted below the machine count, and every route link is below caps.len(), the length of res and count"
    )]
    fn class(&mut self, members: &mut [(usize, FlowSpec)]) {
        let graph = self.graph;
        let transit = graph.has_transit();
        let rx = graph.machines();
        for (_, f) in members.iter() {
            self.count[f.src] += 1;
            if transit {
                for l in graph.transit(f.src, f.dst) {
                    self.count[l.0] += 1;
                }
            }
            self.count[rx + f.dst] += 1;
        }
        let mut level = 0.0f64;
        // The flows still rising are `members[..n]`.
        let mut n = members.len();
        while n > 0 {
            // The common rate increment is limited by the tightest link, or
            // by the class reaching the per-flow ceiling.
            let (delta, touched) = least_share(self.res, self.count);
            self.work.rounds += 1;
            self.work.flow_touches += n as u64;
            self.work.port_touches += touched;
            let delta = delta.min(self.flow_cap - level);
            debug_assert!(delta.is_finite(), "active flows but no limiting link");
            let delta = delta.max(0.0);

            if delta != 0.0 {
                // Raise the class by delta and charge every active route.
                level += delta;
                let res = &mut *self.res;
                for (_, f) in &members[..n] {
                    res[f.src] -= delta;
                    if transit {
                        for l in graph.transit(f.src, f.dst) {
                            res[l.0] -= delta;
                        }
                    }
                    res[rx + f.dst] -= delta;
                }
                self.scale = clamp(res);
            }

            if level >= self.flow_cap * (1.0 - EPS) {
                // The whole class froze at the per-flow cap, not on a link.
                self.freeze_all(&members[..n], level);
                return;
            }
            // Freeze flows crossing any saturated link, recording the first
            // one on the route (tx, transit hops, rx) as the bottleneck and
            // taking the route out of the link counts, and move the rest to
            // the front in order.
            let thr = (EPS * self.scale.max(delta)).max(FLOOR);
            let mut kept = 0;
            for k in 0..n {
                let (slot, f) = members[k];
                let res = &*self.res;
                let (tx_full, rx_full) = (res[f.src] <= thr, res[rx + f.dst] <= thr);
                let hop = if transit {
                    graph.transit(f.src, f.dst).iter().find(|l| res[l.0] <= thr)
                } else {
                    None
                };
                if tx_full || hop.is_some() || rx_full {
                    let at = match hop {
                        _ if tx_full => LinkId(f.src),
                        Some(&l) => l,
                        None => LinkId(rx + f.dst),
                    };
                    self.freeze(slot, level, Some(at));
                    self.count[f.src] -= 1;
                    if transit {
                        for l in graph.transit(f.src, f.dst) {
                            self.count[l.0] -= 1;
                        }
                    }
                    self.count[rx + f.dst] -= 1;
                } else {
                    members[kept] = (slot, f);
                    kept += 1;
                }
            }
            // Progress guarantee: if nothing froze, every remaining link has
            // zero residual growth possible (e.g. zero-capacity links) —
            // terminate.
            if kept == n {
                self.freeze_all(&members[..n], level);
                return;
            }
            n = kept;
        }
    }

    /// Sets a frozen flow's rate and bottleneck.
    fn freeze(&mut self, slot: usize, rate: f64, at: Option<LinkId>) {
        if let (Some(r), Some(b)) = (self.rates.get_mut(slot), self.bottleneck.get_mut(slot)) {
            *r = rate;
            *b = at;
        }
    }

    /// Freezes flows that no link bounds at `rate`, ending their class:
    /// the link counts return to zero for the next one.
    fn freeze_all(&mut self, flows: &[(usize, FlowSpec)], rate: f64) {
        for &(slot, _) in flows {
            self.freeze(slot, rate, None);
        }
        self.count.fill(0);
    }
}

/// Lanes of the branch-free link passes. Min and max over values that are
/// never −0.0 are exact and independent of order (a NaN is passed over in
/// any order), so splitting a pass into lanes changes no result bit.
const LANES: usize = 4;

/// The least share `res[l] / count[l]` over the links some rising flow
/// crosses (infinite when none does), and how many links that is.
fn least_share(res: &[f64], count: &[u32]) -> (f64, u64) {
    let share = |r: f64, c: u32| {
        let q = r / f64::from(c);
        (if c > 0 { q } else { f64::INFINITY }, u64::from(c > 0))
    };
    let (res_lanes, res_tail) = res.as_chunks::<LANES>();
    let (count_lanes, count_tail) = count.as_chunks::<LANES>();
    let mut least = [f64::INFINITY; LANES];
    let mut touched = [0u64; LANES];
    for (r, c) in res_lanes.iter().zip(count_lanes) {
        for (((m, t), &r), &c) in least.iter_mut().zip(&mut touched).zip(r).zip(c) {
            let (q, used) = share(r, c);
            *m = m.min(q);
            *t += used;
        }
    }
    let mut least = least.into_iter().fold(f64::INFINITY, f64::min);
    let mut touched = touched.into_iter().sum();
    for (&r, &c) in res_tail.iter().zip(count_tail) {
        let (q, used) = share(r, c);
        least = least.min(q);
        touched += used;
    }
    (least, touched)
}

/// Clamps every residual below `FLOOR` (overdrawn ones included) to 0 and
/// returns the freeze test's scale: the largest residual, at least 1.
fn clamp(res: &mut [f64]) -> f64 {
    let floor = |r: &mut f64| {
        *r = if *r < FLOOR { 0.0 } else { *r };
        *r
    };
    let (lanes, tail) = res.as_chunks_mut::<LANES>();
    let mut scale = [1.0f64; LANES];
    for r in lanes {
        for (s, r) in scale.iter_mut().zip(r) {
            *s = s.max(floor(r));
        }
    }
    let scale = scale.into_iter().fold(1.0, f64::max);
    tail.iter_mut().fold(scale, |s, r| s.max(floor(r)))
}

/// Reference allocators the graph water-fill is pinned bit-identical
/// against: the original flat water-fill over two ports per machine, and
/// the graph water-fill's round loop as first written.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{AllocWork, FlowSpec, GraphAllocation, WaterFill, EPS, FLOOR};
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
        let mut bottleneck = vec![None; classes.len()];
        let mut fill = WaterFill {
            graph,
            flow_cap,
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
                self.work.flow_touches += n as u64;
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
                    self.freeze_all(&members[..n], level);
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
                        Some(l) => self.freeze(slot, level, Some(l)),
                        None => {
                            members.swap(kept, k);
                            kept += 1;
                        }
                    }
                }
                if kept == n {
                    self.freeze_all(&members[..n], level);
                    return;
                }
                n = kept;
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
