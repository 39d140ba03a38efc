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
//! [`allocate_rates_in_class_order`] is the one water-fill. It reads its
//! flows from a [`ClassIndex`] as the index stores them (grouped by
//! class, each class with its source runs and link counts), and its caller
//! owns the working memory ([`AllocBuffers`]), so a caller that keeps an
//! index of its flows — the [`crate::Network`] — neither sorts, counts nor
//! allocates per call. [`allocate_rates_on_graph`] is the one-shot form:
//! it indexes the flows and runs the same fill. The flat single-switch
//! fabric is the endpoint-only graph. The test-only `oracle` module keeps
//! two references: the original two-port water-fill, which property tests
//! pin bit-identical to the fill on endpoint-only graphs, and the fill's
//! round loop as first written, pinned on flat and racked graphs alike.

use crate::multilink::{LinkGraph, LinkId};
use crate::types::Priority;
pub(crate) use index::{ClassIndex, ClassView, Member, MAX_MACHINES};

mod index;
#[cfg(test)]
mod tests;

/// Work performed by one allocator invocation: how many water-fill raise
/// rounds ran and how many links they examined. Counting is pure integer
/// arithmetic bolted alongside the float math — the rate arithmetic itself
/// is untouched — so the counters are as deterministic as the rates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocWork {
    /// Water-fill raise rounds executed.
    pub rounds: u64,
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
pub(crate) struct AllocBuffers {
    /// Residual capacity per link after serving more urgent flows.
    res: Vec<f64>,
    /// Rising flows per link in the class being filled; all zero between
    /// classes.
    count: Vec<u32>,
    /// Rate of each flow, by slot.
    rates: Vec<f64>,
    /// The link that froze each flow, by slot, or [`NO_LINK`].
    bottleneck: Vec<u32>,
    /// The class being filled; the flows still rising stay at its front.
    rising: Vec<Member>,
}

impl AllocBuffers {
    /// Each flow's rate in bytes/sec under the last allocation, indexed by
    /// its slot.
    pub(crate) fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The saturated link that froze each flow under the last allocation,
    /// indexed by its slot: [`NO_LINK`] when the per-flow cap bound the
    /// flow (or it never froze on a link). [`link`] reads one.
    pub(crate) fn bottlenecks(&self) -> &[u32] {
        &self.bottleneck
    }

    /// Loads a stored allocation of `len` flows, as the fill would have
    /// left it: `outs` gives each slot's rate and bottleneck.
    pub(crate) fn load(&mut self, len: usize, outs: impl Iterator<Item = (usize, f64, u32)>) {
        self.rates.clear();
        self.rates.resize(len, 0.0);
        self.bottleneck.clear();
        self.bottleneck.resize(len, NO_LINK);
        for (slot, rate, at) in outs {
            if let (Some(r), Some(b)) = (self.rates.get_mut(slot), self.bottleneck.get_mut(slot)) {
                *r = rate;
                *b = at;
            }
        }
    }
}

/// A bottleneck of [`AllocBuffers::bottlenecks`] for a flow no link froze.
pub(crate) const NO_LINK: u32 = u32::MAX;

/// The link a bottleneck of [`AllocBuffers::bottlenecks`] names.
pub(crate) fn link(at: u32) -> Option<LinkId> {
    (at != NO_LINK).then_some(LinkId(at as usize))
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
/// This is the simulator's one water-fill, `allocate_rates_in_class_order`,
/// over a fresh class index of the flows, with fresh buffers.
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
    let index = ClassIndex::build(flows.iter().copied(), graph);
    let mut buf = AllocBuffers::default();
    allocate_rates_in_class_order(&index, graph, caps, flow_cap, &mut buf, work);
    GraphAllocation {
        bottleneck: buf.bottleneck.iter().map(|&at| link(at)).collect(),
        rates: buf.rates,
    }
}

/// The water-fill of [`allocate_rates_on_graph`], over flows the caller
/// keeps in a [`ClassIndex`] built over `graph`, in caller-owned buffers.
///
/// The fill reads the index as stored: class by class, most urgent first,
/// each class's members, source runs and link counts. The order within a
/// class changes no result bit and no work count: every rising flow of a
/// class takes the same increment each round, and each link is charged
/// once per flow crossing it in any order. Each flow's rate and bottleneck
/// land at its slot in [`AllocBuffers::rates`] and
/// [`AllocBuffers::bottlenecks`]. `caps`, `flow_cap` and `work` are as for
/// [`allocate_rates_on_graph`]; the index has already checked every flow
/// against the graph.
///
/// # Panics
///
/// Panics if `caps.len()` differs from the graph's link count or the
/// index's, if a link index would not fit a bottleneck's 32 bits, or if
/// `flow_cap` is not positive.
pub(crate) fn allocate_rates_in_class_order(
    index: &ClassIndex,
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
    assert_eq!(index.links(), caps.len(), "class index of another graph");
    assert!(caps.len() < NO_LINK as usize, "too many links to name");
    assert!(flow_cap > 0.0, "non-positive flow cap");

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
    rates.resize(index.len(), 0.0);
    bottleneck.clear();
    bottleneck.resize(index.len(), NO_LINK);
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
    for class in index.classes() {
        fill.class(&class, rising);
    }
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
    bottleneck: &'a mut [u32],
    /// The freeze test's capacity scale: the largest residual, at least 1,
    /// as of the last pass that clamped the residuals.
    scale: f64,
    work: &'a mut AllocWork,
}

impl WaterFill<'_> {
    /// Progressive filling of one priority class over the residual link
    /// capacities. On return the members' rates and bottlenecks are set and
    /// the residuals are reduced by the allocation. `members` is working
    /// memory for the class's flows still rising, which stay at its front,
    /// in order.
    ///
    /// Every rising member holds the same rate, the class's level: all
    /// start at zero and each round raises them by the same `delta`. So the
    /// per-flow cap test and the rate raise are one comparison and one
    /// addition per round, and a member's rate is written when it freezes.
    ///
    /// The per-flow passes index each route directly: tx port, transit
    /// hops (only when the graph has them), rx port. The first round reads
    /// the class's stored link counts; a flow's route leaves the working
    /// counts when it freezes, so they always equal a recount of the
    /// rising flows. Each round takes the `delta` minimum and the
    /// touched-link count in one pass over the links ([`least_share`]). A
    /// round that raises the class charges the rising routes, then clamps
    /// residuals below `FLOOR` to zero and takes the largest as the freeze
    /// test's scale ([`clamp`]). The residuals are clamped when loaded too,
    /// so every round starts on clamped residuals: each is 0 or at least
    /// `FLOOR`.
    ///
    /// So the first round raises by 0 exactly when some member crosses a
    /// link whose residual is 0. That round changes no residual and no
    /// scale; it only freezes, at rate 0, every member crossing a link at
    /// or under the freeze threshold. The fill runs it as a filter at entry
    /// ([`WaterFill::enter_blocked`]), and otherwise copies the class and
    /// its counts in as they are.
    fn class(&mut self, class: &ClassView<'_>, members: &mut Vec<Member>) {
        members.clear();
        let delta = round_delta(self.res, class.counts, 0.0, self.flow_cap, self.work);
        let first = if delta == 0.0 {
            // Blocked on an empty link: the first round only freezes.
            let rising = if self.graph.has_transit() {
                self.enter_blocked::<true>(class, members)
            } else {
                self.enter_blocked::<false>(class, members)
            };
            if !rising {
                return;
            }
            None
        } else {
            members.extend_from_slice(class.members);
            self.count.copy_from_slice(class.counts);
            Some(delta)
        };
        if self.graph.has_transit() {
            self.rounds::<true>(members, first);
        } else {
            self.rounds::<false>(members, first);
        }
    }

    /// The rounds of a class from level 0, over its rising `members` and
    /// their link counts; `first` is the first round's delta when
    /// [`WaterFill::class`] took it already. `TRANSIT` is whether the graph
    /// routes some pair through transit links: the loops over a route's
    /// hops are compiled out of flat fabrics.
    #[expect(
        clippy::indexing_slicing,
        reason = "n <= members.len(); indexed flows name machines of the graph, and every route link is below caps.len(), the length of res and count"
    )]
    fn rounds<const TRANSIT: bool>(&mut self, members: &mut [Member], mut first: Option<f64>) {
        let graph = self.graph;
        let transit = TRANSIT;
        let rx = graph.machines();
        let mut level = 0.0f64;
        // The flows still rising are `members[..n]`.
        let mut n = members.len();
        while n > 0 {
            let delta = match first.take() {
                Some(delta) => delta,
                None => round_delta(self.res, self.count, level, self.flow_cap, self.work),
            };
            if delta != 0.0 {
                // Raise the class by delta and charge every active route.
                level += delta;
                let res = &mut *self.res;
                for m in &members[..n] {
                    let (src, dst) = (m.src(), m.dst());
                    res[src] -= delta;
                    if transit {
                        for l in graph.transit(src, dst) {
                            res[l.0] -= delta;
                        }
                    }
                    res[rx + dst] -= delta;
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
                let m = members[k];
                let (src, dst) = (m.src(), m.dst());
                let res = &*self.res;
                let (tx_full, rx_full) = (res[src] <= thr, res[rx + dst] <= thr);
                let hop = if transit {
                    graph.transit(src, dst).iter().find(|l| res[l.0] <= thr)
                } else {
                    None
                };
                if tx_full || hop.is_some() || rx_full {
                    let at = match hop {
                        _ if tx_full => LinkId(src),
                        Some(&l) => l,
                        None => LinkId(rx + dst),
                    };
                    self.freeze(m.slot, level, at.0 as u32);
                    self.count[src] -= 1;
                    if transit {
                        for l in graph.transit(src, dst) {
                            self.count[l.0] -= 1;
                        }
                    }
                    self.count[rx + dst] -= 1;
                } else {
                    members[kept] = m;
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

    /// The first round of a class that raises by 0: freezes at rate 0
    /// every member crossing a link at or under the freeze threshold, on
    /// the first such link of its route, and leaves the rest in `members`
    /// with their routes in the link counts. The round leaves the
    /// residuals and the scale as they were, so the threshold is the
    /// scale's. The tx port leads every route, so a source whose tx port
    /// is saturated freezes whole, as one run. Returns whether the class
    /// still has rising members.
    ///
    /// Rates need no write: the fill starts every rate at 0. A member
    /// that goes on rising is given a bottleneck too, so that keeping it
    /// takes no branch: its own is written when it freezes.
    #[expect(
        clippy::indexing_slicing,
        reason = "kept counts members already read, so it stays below members.len(); indexed flows name machines of the graph, and every route link is below caps.len(), the length of res and count"
    )]
    fn enter_blocked<const TRANSIT: bool>(
        &mut self,
        class: &ClassView<'_>,
        members: &mut Vec<Member>,
    ) -> bool {
        let graph = self.graph;
        let transit = TRANSIT;
        let rx = graph.machines();
        let thr = (EPS * self.scale).max(FLOOR);
        members.extend_from_slice(class.members);
        let mut kept = 0;
        for (src, run) in class.sources() {
            if self.res[src] <= thr {
                for m in run {
                    self.freeze_at(m.slot, LinkId(src));
                }
                continue;
            }
            let first = kept;
            for &m in run {
                let dst = m.dst();
                let res = &*self.res;
                let hop = if transit {
                    graph.transit(src, dst).iter().find(|l| res[l.0] <= thr)
                } else {
                    None
                };
                let blocked = hop.is_some() || res[rx + dst] <= thr;
                self.freeze_at(m.slot, hop.copied().unwrap_or(LinkId(rx + dst)));
                let rising = u32::from(!blocked);
                if transit {
                    for l in graph.transit(src, dst) {
                        self.count[l.0] += rising;
                    }
                }
                self.count[rx + dst] += rising;
                members[kept] = m;
                kept += rising as usize;
            }
            self.count[src] += (kept - first) as u32;
        }
        members.truncate(kept);
        if kept == class.members.len() {
            // Nothing froze: no link can grow (see `class`).
            self.freeze_all(members, 0.0);
            return false;
        }
        kept > 0
    }

    /// Sets a frozen flow's rate and bottleneck ([`NO_LINK`] for none).
    fn freeze(&mut self, slot: u32, rate: f64, at: u32) {
        let slot = slot as usize;
        if let (Some(r), Some(b)) = (self.rates.get_mut(slot), self.bottleneck.get_mut(slot)) {
            *r = rate;
            *b = at;
        }
    }

    /// Sets the bottleneck of a flow frozen at rate 0, which its rate
    /// already is.
    fn freeze_at(&mut self, slot: u32, at: LinkId) {
        if let Some(b) = self.bottleneck.get_mut(slot as usize) {
            *b = at.0 as u32;
        }
    }

    /// Freezes flows that no link bounds at `rate`, ending their class:
    /// the link counts return to zero for the next one.
    fn freeze_all(&mut self, flows: &[Member], rate: f64) {
        for m in flows {
            self.freeze(m.slot, rate, NO_LINK);
        }
        self.count.fill(0);
    }
}

/// The share every rising flow of a class at `level` gains this round,
/// given how many of them cross each link (`counts`): limited by the
/// tightest link, or by the class reaching the per-flow ceiling `cap`.
/// Counts the round in `work`.
fn round_delta(res: &[f64], counts: &[u32], level: f64, cap: f64, work: &mut AllocWork) -> f64 {
    let (delta, touched) = least_share(res, counts);
    work.rounds += 1;
    work.port_touches += touched;
    let delta = delta.min(cap - level);
    debug_assert!(delta.is_finite(), "active flows but no limiting link");
    delta.max(0.0)
}

/// Lanes of the branch-free link passes. Min and max over values that are
/// never −0.0 are exact and independent of order, so splitting a pass into
/// lanes changes no result bit. Each is a compare-select ([`less`],
/// [`greater`]) whose accumulator starts at a number and takes only a
/// candidate that compares, so a NaN candidate is passed over exactly as
/// `f64::min` and `f64::max` pass over it, without their NaN guards.
const LANES: usize = 4;

/// `a.min(b)` for an accumulator `b` that is never NaN.
fn less(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

/// `a.max(b)` for an accumulator `b` that is never NaN.
fn greater(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

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
            *m = less(q, *m);
            *t += used;
        }
    }
    let mut least = least.into_iter().fold(f64::INFINITY, |m, q| less(q, m));
    let mut touched = touched.into_iter().sum();
    for (&r, &c) in res_tail.iter().zip(count_tail) {
        let (q, used) = share(r, c);
        least = less(q, least);
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
            *s = greater(floor(r), *s);
        }
    }
    let scale = scale.into_iter().fold(1.0, |s, r| greater(r, s));
    tail.iter_mut().fold(scale, |s, r| greater(floor(r), s))
}

/// Reference allocators the graph water-fill is pinned bit-identical
/// against.
#[cfg(test)]
pub(crate) mod oracle;
