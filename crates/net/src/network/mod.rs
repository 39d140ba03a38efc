//! The fluid network: flow lifecycle, exact completion events, utilization
//! traces.
//!
//! `config` holds the static cluster description, `multihop` the
//! per-link accounting of configured topologies, `memo` the memo of
//! allocations, and `walk` the fabric's snapshot section
//! ([`Network::walk`]). This file keeps the [`Network`] facade — flow
//! lifecycle, rate recomputation, and the deterministic work counters
//! ([`NetStats`]).
//!
//! Every fabric allocates rates with
//! `allocate_rates_in_class_order` over a [`LinkGraph`]: the
//! configured topology, or else the endpoint-only graph of the flat single
//! switch, built from `bandwidth`. Whether a topology was configured
//! decides only what the fabric reports: per-link usage and each flow's
//! bottleneck link exist for topologies alone.
//!
//! A flow start, drain, cancel or rescale only marks the rates stale. They
//! are reallocated when next read: by `next_event_time`, by `poll`, before
//! time advances, and before a snapshot walk. The allocation depends only
//! on the flow set and the capacities, so a burst of changes at one instant
//! costs one water-fill, with the rates an eager fill of each change would
//! end on. The fabric keeps what the water-fill needs between calls: a
//! class index of its flows in canonical order with each class's bounds
//! and link counts (no per-call sort or count), the allocator's buffers
//! (no per-call allocation), and the scaled link capacities (recomputed
//! only when a port factor changes). Each flow's bytes left, rate and
//! bottleneck live in dense columns, slot-parallel to the flows: the fill
//! writes the last two in place, and the per-event passes (progress, the
//! drain test, the next-event scan) stream 16 bytes a flow. It also keeps
//! a bounded memo of allocations keyed by the exact flow set, so a set it
//! has already allocated under the same capacities is replayed, bit for
//! bit and with the same work counts, instead of filled again.
//! `next_event_time` remembers its answer until the fabric next changes.

#[cfg(test)]
mod cache_tests;
mod config;
mod memo;
mod multihop;
#[cfg(test)]
mod tests;
mod walk;

pub use config::NetworkConfig;

use crate::allocator::{
    allocate_rates_in_class_order, link, AllocBuffers, AllocWork, ClassIndex, FlowSpec,
    RateColumns, MAX_MACHINES, NO_LINK,
};
use crate::multilink::LinkGraph;
use crate::trace::PortTrace;
use crate::types::{FlowId, MachineId, Priority};
use memo::Memo;
use p3_des::{SimDuration, SimTime};

/// A finished transfer, handed back by [`Network::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompletedFlow {
    /// Handle returned by [`Network::start_flow`].
    pub id: FlowId,
    /// Transmitting machine.
    pub src: MachineId,
    /// Receiving machine.
    pub dst: MachineId,
    /// Caller-supplied correlation tag.
    pub tag: u64,
    /// Message size in bytes.
    pub bytes: u64,
    /// The saturated link that bounded the flow's rate under its final
    /// allocation (a [`crate::LinkId`] index). `None` for loopback
    /// transfers, on the flat single-switch fabric, or when the per-flow
    /// cap (not a link) was the binding constraint.
    pub bottleneck: Option<usize>,
}

#[derive(Debug, Clone, Default)]
struct ActiveFlow {
    id: FlowId,
    src: usize,
    dst: usize,
    priority: Priority,
    tag: u64,
    bytes: u64,
}

impl ActiveFlow {
    fn spec(&self) -> FlowSpec {
        FlowSpec {
            src: self.src,
            dst: self.dst,
            priority: self.priority,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct Delivering {
    at: SimTime,
    flow: CompletedFlow,
}

/// Whether a flow with `remaining` bytes left at `rate` has drained:
/// sub-nanosecond residue from ceil-rounding counts as drained.
fn drained(remaining: f64, rate: f64) -> bool {
    remaining <= rate * 1e-9 + 1e-9
}

/// Deterministic work counters of a fabric: how much flow and allocator
/// machinery a run exercised. Every field is pure integer accounting
/// driven by the simulation's own (deterministic) event sequence — no
/// wall clock, no sampling — so two runs of the same configuration report
/// identical stats, and a snapshot/resume pair reports the same totals as
/// the uninterrupted run. The float arithmetic of the fluid model is
/// untouched by the counting (pinned by the allocator bit-identity
/// property tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Rate recomputations: one per read of the rates after the flow set
    /// or port capacities changed, so changes between two reads share one.
    pub reallocations: u64,
    /// Active flows summed over all reallocations — the allocator's input
    /// volume.
    pub flows_touched: u64,
    /// Water-fill raise rounds summed over all reallocations.
    pub waterfill_rounds: u64,
    /// Links carrying at least one active flow, summed over all water-fill
    /// rounds. On the flat fabric the links are the machines' tx and rx
    /// ports; a topology adds its transit links.
    pub ports_touched: u64,
    /// Peak number of concurrently active NIC flows (loopback excluded).
    pub peak_in_flight: u64,
}

/// The simulated cluster fabric.
///
/// `Network` is driven by its owner (the cluster simulator): the owner calls
/// [`Network::start_flow`] to begin transfers, [`Network::next_event_time`]
/// to learn when the fabric next changes state, and [`Network::poll`] to
/// advance the fluid model to the current instant and collect completed
/// transfers.
///
/// # Examples
///
/// ```
/// use p3_des::{SimDuration, SimTime};
/// use p3_net::{Bandwidth, MachineId, Network, NetworkConfig, Priority};
///
/// let cfg = NetworkConfig::new(2, Bandwidth::from_gbps(8.0))
///     .with_latency(SimDuration::ZERO);
/// let mut net = Network::new(cfg);
/// // 1 MB at 1 GB/s takes 1 ms.
/// net.start_flow(SimTime::ZERO, MachineId(0), MachineId(1), 1_000_000, Priority(0), 7);
/// let done_at = net.next_event_time().unwrap();
/// assert_eq!(done_at, SimTime::from_millis(1));
/// let done = net.poll(done_at);
/// assert_eq!(done.len(), 1);
/// assert_eq!(done[0].tag, 7);
/// ```
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    /// The graph rates are allocated over: the configured topology, or
    /// the endpoint-only graph of the flat fabric.
    graph: LinkGraph,
    /// Working capacity of each link: the graph's capacities scaled by
    /// protocol efficiency and the port factors. Recomputed only when a
    /// factor changes.
    caps: Vec<f64>,
    /// In-flight flows. Their order is observable — per-link usage and the
    /// utilization traces accumulate floats in it, and snapshots serialize
    /// it — so it changes only by `push` and `swap_remove`.
    flows: Vec<ActiveFlow>,
    /// Bytes each flow has left to send, by slot: parallel to `flows`.
    remaining: Vec<f64>,
    /// Each flow's rate in bytes/sec (0 under [`Network::rate_floor`]) and
    /// the link that froze it (`NO_LINK` for none) under the current
    /// allocation, by slot: parallel to `flows`.
    rates: Vec<f64>,
    bottleneck: Vec<u32>,
    /// Class index: every flow's slot in `flows` and its endpoints, in
    /// canonical order, with each class's bounds and link counts and the
    /// flow multiset's fingerprint. This is the allocator's input, so no
    /// reallocation sorts or counts.
    by_class: ClassIndex,
    /// The allocator's scratch memory, reused by every fill.
    alloc: AllocBuffers,
    /// Allocations already made, keyed by flow set; never serialized.
    memo: Memo,
    /// `next_event_time`'s last answer, or `None` once the fabric has
    /// changed since: time advanced, rates were reallocated, or a delivery
    /// was queued, delivered or cancelled.
    next_event: Option<Option<SimTime>>,
    delivering: Vec<Delivering>,
    last_update: SimTime,
    next_flow_id: u64,
    tx_traces: Vec<PortTrace>,
    rx_traces: Vec<PortTrace>,
    dirty: bool, // rates stale (flows or capacities changed since last allocation)
    /// Per-machine transmit capacity factor in `(0, 1]` (fault injection:
    /// a degraded NIC or congested uplink).
    tx_scale: Vec<f64>,
    /// Per-machine receive capacity factor in `(0, 1]`.
    rx_scale: Vec<f64>,
    /// Per-link busy time in seconds (configured topology only; indexed by
    /// `LinkId`). A link is busy while any flow crossing it has a
    /// positive rate.
    link_busy: Vec<f64>,
    /// Per-link bytes carried (configured topology only).
    link_bytes: Vec<f64>,
    /// Deterministic work counters (see [`NetStats`]).
    stats: NetStats,
}

/// Observed usage of one link over a run, from [`Network::link_usage`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUsage {
    /// Link name from the graph (`m3.tx`, `rack1.up`, …).
    pub name: String,
    /// Nominal capacity in bytes/sec.
    pub capacity: f64,
    /// Seconds during which at least one flow crossed the link.
    pub busy_secs: f64,
    /// Total bytes carried.
    pub bytes: f64,
    /// True for switch uplinks/downlinks, false for machine ports.
    pub transit: bool,
}

impl Network {
    /// Builds an idle fabric from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.machines` is zero or above `u32::MAX`: the fabric
    /// keeps machine indices in 32 bits.
    pub fn new(cfg: NetworkConfig) -> Self {
        assert!(cfg.machines > 0, "a cluster needs at least one machine");
        assert!(
            cfg.machines <= MAX_MACHINES,
            "{} machines, more than a fabric indexes",
            cfg.machines
        );
        let (tx_traces, rx_traces) = match cfg.trace_bin {
            Some(bin) => (
                (0..cfg.machines).map(|_| PortTrace::new(bin)).collect(),
                (0..cfg.machines).map(|_| PortTrace::new(bin)).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        let machines = cfg.machines;
        let (graph, num_links) = match &cfg.link_graph {
            Some(g) => {
                assert_eq!(g.machines(), machines, "link graph machine count mismatch");
                (g.clone(), g.num_links())
            }
            None => (
                LinkGraph::new(&vec![cfg.bandwidth.bytes_per_sec(); machines]),
                0,
            ),
        };
        let tx_scale = vec![1.0; machines];
        let rx_scale = vec![1.0; machines];
        Network {
            caps: graph.scaled_caps(cfg.efficiency, &tx_scale, &rx_scale),
            by_class: ClassIndex::new(&graph),
            cfg,
            graph,
            flows: Vec::new(),
            remaining: Vec::new(),
            rates: Vec::new(),
            bottleneck: Vec::new(),
            alloc: AllocBuffers::default(),
            memo: Memo::default(),
            next_event: None,
            delivering: Vec::new(),
            last_update: SimTime::ZERO,
            next_flow_id: 0,
            tx_traces,
            rx_traces,
            dirty: false,
            tx_scale,
            rx_scale,
            link_busy: vec![0.0; num_links],
            link_bytes: vec![0.0; num_links],
            stats: NetStats::default(),
        }
    }

    /// Deterministic work counters accumulated so far (see [`NetStats`]).
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// True when no transfer is in flight or awaiting delivery.
    pub fn is_idle(&self) -> bool {
        self.flows.is_empty() && self.delivering.is_empty()
    }

    /// Begins a transfer of `bytes` from `src` to `dst` with the given
    /// priority class and caller tag, starting at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the network's last update, if either machine
    /// is out of range, or if `bytes` is zero.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: MachineId,
        dst: MachineId,
        bytes: u64,
        priority: Priority,
        tag: u64,
    ) -> FlowId {
        assert!(src.0 < self.cfg.machines, "unknown src {src}");
        assert!(dst.0 < self.cfg.machines, "unknown dst {dst}");
        assert!(bytes > 0, "zero-byte transfer");
        self.advance(now);
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        if src == dst {
            // Loopback: never touches the NIC; fixed-rate private channel.
            let secs = bytes as f64 / self.cfg.loopback.bytes_per_sec();
            let at = now + self.cfg.latency + SimDuration::from_secs_f64(secs);
            self.next_event = None;
            self.delivering.push(Delivering {
                at,
                flow: CompletedFlow {
                    id,
                    src,
                    dst,
                    tag,
                    bytes,
                    bottleneck: None,
                },
            });
            return id;
        }

        let flow = ActiveFlow {
            id,
            src: src.0,
            dst: dst.0,
            priority,
            tag,
            bytes,
        };
        self.by_class.push(flow.spec(), &self.graph);
        self.flows.push(flow);
        self.remaining.push(bytes as f64);
        self.rates.push(0.0);
        self.bottleneck.push(NO_LINK);
        // Flows only ever join here, so sampling at the push is exact.
        self.stats.peak_in_flight = self.stats.peak_in_flight.max(self.flows.len() as u64);
        self.dirty = true;
        id
    }

    /// The earliest future instant at which the fabric changes state (a flow
    /// drains or a drained message is delivered), or `None` when idle.
    /// Reallocates first if the rates are stale.
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.reallocate();
        if let Some(known) = self.next_event {
            return known;
        }
        let best = self.scan_next_event();
        self.next_event = Some(best);
        best
    }

    /// [`Network::next_event_time`] computed afresh from every flow and
    /// pending delivery.
    ///
    /// A flow drains `remaining / rate` seconds after `last_update`, and
    /// [`Network::drain_instant`] never decreases as that quotient grows,
    /// so the earliest drain is the conversion of the smallest quotient:
    /// one conversion per scan, not one per flow. A flow at rate 0 is
    /// skipped before it is divided.
    fn scan_next_event(&self) -> Option<SimTime> {
        let mut draining = false;
        let mut secs = f64::INFINITY;
        for (&r, &q) in self.remaining.iter().zip(&self.rates) {
            if q > 0.0 {
                draining = true;
                secs = secs.min(r / q);
            }
        }
        let mut best = draining.then(|| self.drain_instant(secs));
        for d in &self.delivering {
            best = Some(best.map_or(d.at, |b: SimTime| b.min(d.at)));
        }
        best
    }

    /// The instant `secs` seconds after `last_update`, rounded up to the
    /// nanosecond and saturating at the end of time.
    fn drain_instant(&self, secs: f64) -> SimTime {
        let ns = (secs * 1e9).ceil().max(0.0).min(u64::MAX as f64) as u64;
        self.last_update.saturating_add(SimDuration::from_nanos(ns))
    }

    /// Advances the fluid model to `now` and returns every transfer whose
    /// last byte has been delivered (drain time + latency ≤ `now`), in
    /// delivery order.
    #[expect(
        clippy::indexing_slicing,
        reason = "i is below the length of the vector it indexes, checked by each loop condition (the columns are as long as the flows), and end never exceeds the deliveries' length"
    )]
    pub fn poll(&mut self, now: SimTime) -> Vec<CompletedFlow> {
        self.advance(now);
        // The drain test reads rates, so a change at this very instant
        // (which `advance` skips) must be allocated first.
        self.reallocate();

        // Flows that drained move to the latency (delivery) stage.
        let mut changed = false;
        let latency = self.cfg.latency;
        let topology = self.cfg.link_graph.is_some();
        let mut i = 0;
        while i < self.flows.len() {
            if drained(self.remaining[i], self.rates[i]) {
                // Bottlenecks are reported only for a configured topology.
                let at = link(self.bottleneck[i]).filter(|_| topology);
                let f = self.remove_slot(i);
                self.delivering.push(Delivering {
                    at: now + latency,
                    flow: CompletedFlow {
                        id: f.id,
                        src: MachineId(f.src),
                        dst: MachineId(f.dst),
                        tag: f.tag,
                        bytes: f.bytes,
                        bottleneck: at.map(|l| l.0),
                    },
                });
                changed = true;
            } else {
                i += 1;
            }
        }
        if changed {
            self.dirty = true;
        }

        // Deliveries due now move behind `end`, each swapped with the last
        // pending one: the pending deliveries keep the order a
        // `swap_remove` per due delivery would leave, which snapshots
        // record.
        let mut end = self.delivering.len();
        let mut i = 0;
        while i < end {
            if self.delivering[i].at <= now {
                end -= 1;
                self.delivering.swap(i, end);
            } else {
                i += 1;
            }
        }
        if end == self.delivering.len() {
            return Vec::new();
        }
        self.next_event = None;
        let due = &mut self.delivering[end..];
        due.sort_unstable_by_key(|d| (d.at, d.flow.id));
        // At least four slots, so most polls ask the allocator for one
        // block size and get back the block the last poll freed. Exact
        // sizes scatter small blocks of several sizes over the heap: on a
        // traced VGG-19 run they raised peak RSS by 7%.
        let mut done = Vec::with_capacity(due.len().max(4));
        done.extend(due.iter().map(|d| d.flow));
        self.delivering.truncate(end);
        done
    }

    /// Rescales one machine's NIC capacity mid-run (fault injection: link
    /// degradation). Factors apply multiplicatively to the configured
    /// per-direction bandwidth; `1.0` restores full capacity. In-flight
    /// flows are re-allocated from `now` onward — bytes already transferred
    /// are unaffected.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range, a factor is outside `(0, 1]`,
    /// or `now` precedes the network's last update.
    #[expect(
        clippy::indexing_slicing,
        reason = "machine is asserted below machines, and the scale tables hold one entry per machine"
    )]
    pub fn set_port_scale(&mut self, now: SimTime, machine: MachineId, tx: f64, rx: f64) {
        assert!(machine.0 < self.cfg.machines, "unknown machine {machine}");
        assert!(tx > 0.0 && tx <= 1.0, "tx scale {tx} outside (0, 1]");
        assert!(rx > 0.0 && rx <= 1.0, "rx scale {rx} outside (0, 1]");
        self.advance(now);
        self.tx_scale[machine.0] = tx;
        self.rx_scale[machine.0] = rx;
        self.rescale();
        self.dirty = true;
    }

    /// Aborts an in-flight transfer (fault injection: the sending process
    /// died, or the message was dropped). The flow's port share is
    /// redistributed from `now` onward and its delivery never happens.
    /// Returns `false` when the flow is unknown or already delivered.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the network's last update.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> bool {
        self.advance(now);
        if let Some(i) = self.flows.iter().position(|f| f.id == id) {
            self.remove_slot(i);
            self.dirty = true;
            return true;
        }
        if let Some(i) = self.delivering.iter().position(|d| d.flow.id == id) {
            self.delivering.swap_remove(i);
            self.next_event = None;
            return true;
        }
        false
    }

    /// Removes the flow at `slot` from the flows, the columns and the
    /// class index, moving the last flow into its slot, and returns it.
    fn remove_slot(&mut self, slot: usize) -> ActiveFlow {
        self.remaining.swap_remove(slot);
        self.rates.swap_remove(slot);
        self.bottleneck.swap_remove(slot);
        self.by_class.swap_remove(slot, &self.graph);
        self.flows.swap_remove(slot)
    }

    /// Per-machine transmit utilization trace, if tracing was enabled.
    pub fn tx_trace(&self, machine: MachineId) -> Option<&PortTrace> {
        self.tx_traces.get(machine.0)
    }

    /// Per-machine receive utilization trace, if tracing was enabled.
    pub fn rx_trace(&self, machine: MachineId) -> Option<&PortTrace> {
        self.rx_traces.get(machine.0)
    }

    /// Observed per-link usage so far (busy time and bytes carried, one
    /// entry per [`LinkId`](crate::LinkId)). Empty on the flat single-switch fabric.
    /// Busy time accrues up to the last `poll`/`start_flow` instant.
    pub fn link_usage(&self) -> Vec<LinkUsage> {
        multihop::usage(self)
    }

    /// Integrates flow progress from `last_update` to `now`, under rates
    /// reallocated first if they are stale.
    #[expect(
        clippy::indexing_slicing,
        reason = "traces, when enabled, exist for every machine, and flow endpoints are machines"
    )]
    fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "network clock went backwards: {now} < {}",
            self.last_update
        );
        if now == self.last_update {
            return;
        }
        self.reallocate();
        self.next_event = None;
        let dt = (now - self.last_update).as_secs_f64();
        multihop::account_advance(self, dt);
        // For a running flow this is `(r - q * dt).max(0.0)`: the
        // difference of finite values is never NaN, and never −0.0 for
        // `r >= 0`. A flow at rate 0 keeps its bytes.
        for (r, &q) in self.remaining.iter_mut().zip(&self.rates) {
            let n = *r - q * dt;
            let n = if n > 0.0 { n } else { 0.0 };
            *r = if q > 0.0 { n } else { *r };
        }
        if !self.tx_traces.is_empty() {
            // In slot order, as the bins accumulate floats.
            for (f, &q) in self.flows.iter().zip(&self.rates) {
                if q > 0.0 {
                    self.tx_traces[f.src].add_rate(self.last_update, now, q);
                    self.rx_traces[f.dst].add_rate(self.last_update, now, q);
                }
            }
        }
        self.last_update = now;
    }

    /// The rate under which an allocation counts as 0: allocator noise, at
    /// which a "running" flow would never finish.
    fn rate_floor(&self) -> f64 {
        let cap = self.cfg.bandwidth.bytes_per_sec() * self.cfg.efficiency;
        (cap * 1e-12).max(1e-6)
    }

    /// Recomputes the working link capacities from the port factors, and
    /// retires every allocation the memo holds for the old ones.
    fn rescale(&mut self) {
        self.caps = self
            .graph
            .scaled_caps(self.cfg.efficiency, &self.tx_scale, &self.rx_scale);
        self.memo.rescale();
    }

    /// Recomputes the strict-priority max-min rates over the fabric's
    /// graph, with link capacities scaled by protocol efficiency and any
    /// fault-injected port degradation, if they are stale. A flow set the
    /// memo holds is replayed from it, work counts included.
    fn reallocate(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.next_event = None;
        self.stats.reallocations += 1;
        self.stats.flows_touched += self.flows.len() as u64;
        let replay = self
            .memo
            .replay(&self.by_class, &mut self.rates, &mut self.bottleneck);
        let work = replay.unwrap_or_else(|| {
            let work = self.fill();
            self.memo
                .offer(&self.by_class, &self.rates, &self.bottleneck, work);
            work
        });
        self.stats.waterfill_rounds += work.rounds;
        self.stats.ports_touched += work.port_touches;
    }

    /// Water-fills the rate and bottleneck columns afresh from the flows
    /// and the working capacities, and returns the fill's work.
    fn fill(&mut self) -> AllocWork {
        let mut work = AllocWork::default();
        let out = RateColumns {
            floor: self.rate_floor(),
            rates: &mut self.rates,
            bottleneck: &mut self.bottleneck,
        };
        allocate_rates_in_class_order(
            &self.by_class,
            &self.graph,
            &self.caps,
            self.cfg.flow_cap,
            &mut self.alloc,
            out,
            &mut work,
        );
        work
    }
}
