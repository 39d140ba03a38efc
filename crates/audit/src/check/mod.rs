//! The replay checker: one forward pass over the event log driving a small
//! model of every entity the simulator traces, flagging any transition the
//! real system could not have produced.
//!
//! The checker families live one per module: [`messages`] (egress queues,
//! wire transfers, retransmit state machines), [`compute`] (worker
//! compute/stall accounting), [`aggregation`] (server processing units and
//! round versions), [`faults`] (crash/rejoin/loss/abort transitions), and
//! [`capacity`] (Hall-style port-feasibility windows). This module owns
//! the shared replay state ([`Checker`]), the event dispatch, and the
//! report assembly.
//!
//! One pre-pass ([`intern`]) numbers the machines, keys and messages the
//! events name, and the (machine, key) cells they touch, densely and in
//! id order. Every piece of replay state then lives in a flat vector
//! indexed by slot, so an event costs a few array reads. Each egress
//! queue is a depth counter and a lazily pruned min-heap, so the
//! inversion check at a wire start reads the most urgent entry. After
//! the pass, one O(k log k) sweep per busy period checks every capacity
//! window.

mod aggregation;
mod capacity;
mod compute;
mod faults;
mod intern;
mod messages;

use crate::report::{AuditReport, Invariant, Violation};
use aggregation::PushLists;
use capacity::Attempt;
use compute::WorkerState;
use intern::Layout;
use messages::{Msg, MsgInfo, MsgState, Queues};
use p3_trace::{EndpointRole, MsgClass, TraceEvent, TraceLog, TraceMeta};
use std::collections::BTreeMap;

/// Violations reported per invariant before the rest are counted as
/// suppressed: enough to diagnose, bounded on pathological traces.
const MAX_PER_INVARIANT: usize = 20;

/// What the auditor may assume about the run beyond the events themselves.
///
/// Every field is optional; `None` skips the checks that need it (the
/// report's `skipped` notes say so). Build one from exported metadata with
/// [`AuditOptions::from_meta`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditOptions {
    /// Number of machines (workers == server shards) in the run.
    pub machines: Option<usize>,
    /// Whether endpoints use single-consumer strict-priority egress
    /// (`true`, P3) or per-destination FIFO lanes (`false`, baseline).
    pub single_consumer: Option<bool>,
    /// In-flight window per single-consumer endpoint.
    pub window: Option<usize>,
    /// Effective per-direction NIC capacity in bytes/sec on a uniform
    /// fabric.
    pub port_bytes_per_sec: Option<f64>,
    /// Whether aggregation ran over a collective backend (ring /
    /// halving–doubling). Collective rejoins adopt the completed versions
    /// in place — no resync messages cross the wire — so the version
    /// model syncs the rejoiner from the allgather high-water marks.
    pub collective: Option<bool>,
}

impl AuditOptions {
    /// Adopts whatever an exported trace's metadata pins down.
    pub fn from_meta(meta: &TraceMeta) -> AuditOptions {
        AuditOptions {
            machines: (meta.machines > 0).then_some(meta.machines),
            single_consumer: meta.single_consumer,
            window: meta.window,
            port_bytes_per_sec: meta.port_bytes_per_sec,
            collective: meta.collective,
        }
    }
}

/// Audits a trace using only what the event stream itself implies
/// (configuration-dependent checks are skipped). See [`check_with`].
pub fn check(log: &TraceLog) -> AuditReport {
    check_with(log, &AuditOptions::default())
}

/// Audits a trace against the full invariant catalog
/// ([`Invariant`](crate::Invariant)), enabling the configuration-dependent
/// checks `opts` provides facts for.
pub fn check_with(log: &TraceLog, opts: &AuditOptions) -> AuditReport {
    let mut c = Checker::new(opts.clone(), Layout::new(log.events()));
    for (i, e) in log.events().iter().enumerate() {
        c.step(i, e.at.as_nanos(), &e.event);
    }
    c.finish(log.len())
}

/// Violation bookkeeping, split out so handlers can report while holding
/// mutable borrows of the replay state.
#[derive(Debug, Default)]
pub(crate) struct Reporter {
    violations: Vec<Violation>,
    per_invariant: [usize; Invariant::ALL.len()],
    suppressed: usize,
}

impl Reporter {
    pub(crate) fn violate(
        &mut self,
        inv: Invariant,
        index: Option<usize>,
        at: u64,
        message: String,
    ) {
        let n = &mut self.per_invariant[inv as usize];
        *n += 1;
        if *n > MAX_PER_INVARIANT {
            self.suppressed += 1;
            return;
        }
        self.violations.push(Violation {
            invariant: inv,
            index,
            at_nanos: at,
            message,
        });
    }
}

/// The replay state. Per-machine tables are indexed by machine slot,
/// per-endpoint ones by `2 · machine slot + role`, per-message ones by
/// message slot and per-cell ones by (machine, key) cell.
pub(crate) struct Checker {
    opts: AuditOptions,
    rep: Reporter,
    ids: Layout,

    prev_t: u64,
    /// Per message: its replay state.
    msgs: Vec<MsgInfo>,
    queues: Queues,
    /// Per endpoint: messages in flight.
    inflight: Vec<usize>,
    /// Per busy FIFO lane (endpoint, destination slot): its message.
    lane_busy: BTreeMap<(u32, u32), u64>,
    attempts: Vec<Attempt>,
    /// Per `ids.grad` entry: the gradient is ready.
    ready: Vec<bool>,
    /// Per `ids.pushes` entry: delivered pushes not yet claimed.
    pushes: PushLists,
    /// Per `ids.agg` entry: the worker's push is aggregated into a round
    /// not yet complete.
    members: Vec<bool>,
    /// Per cell (worker, key): the version the worker holds.
    received: Vec<u64>,
    /// Per cell (server, key): the latest completed version.
    versions: Vec<u64>,
    /// Per key: the highest allgather version delivered.
    allgather_high: Vec<u64>,
    /// Per machine.
    crashed: Vec<bool>,
    /// Per machine: the server's aggregation in progress.
    open_agg: Vec<Option<(usize, u64, usize)>>,
    rack_seen: bool,
    /// Per machine.
    workers: Vec<WorkerState>,
}

pub(crate) const ROLE_WORKER: u8 = 0;
pub(crate) const ROLE_SERVER: u8 = 1;

fn role_code(r: EndpointRole) -> u8 {
    match r {
        EndpointRole::Worker => ROLE_WORKER,
        EndpointRole::Server => ROLE_SERVER,
    }
}

fn is_push_class(c: MsgClass) -> bool {
    matches!(c, MsgClass::Push | MsgClass::CombinedPush)
}

impl Checker {
    fn new(opts: AuditOptions, ids: Layout) -> Checker {
        let (machines, keys, msgs) = (ids.machines.len(), ids.keys.len(), ids.msgs.len());
        let cells = ids.cells.len();
        Checker {
            opts,
            rep: Reporter::default(),
            prev_t: 0,
            msgs: vec![MsgInfo::UNSEEN; msgs],
            queues: Queues::new(2 * machines, msgs),
            inflight: vec![0; 2 * machines],
            lane_busy: BTreeMap::new(),
            attempts: Vec::new(),
            ready: vec![false; ids.grad.len()],
            pushes: PushLists::new(ids.pushes.len()),
            members: vec![false; ids.agg.len()],
            received: vec![0; cells],
            versions: vec![0; cells],
            allgather_high: vec![0; keys],
            crashed: vec![false; machines],
            open_agg: vec![None; machines],
            rack_seen: false,
            workers: vec![WorkerState::FRESH; machines],
            ids,
        }
    }

    fn worker(&mut self, w: usize) -> Option<&mut WorkerState> {
        let m = self.ids.machines.slot(w as u64)?;
        Some(&mut self.workers[m])
    }

    /// The message `id` as the replay addresses it. The pre-pass
    /// numbered every message id the log names.
    fn msg(&self, id: u64) -> Option<Msg> {
        Some(Msg {
            id,
            slot: self.ids.msgs.slot(id)?,
        })
    }

    /// Replays one event.
    fn step(&mut self, i: usize, t: u64, ev: &TraceEvent) {
        if t < self.prev_t {
            self.rep.violate(
                Invariant::MonotoneClock,
                Some(i),
                t,
                format!(
                    "recorded at {t}ns after an event at {}ns — the DES clock ran backwards",
                    self.prev_t
                ),
            );
        }
        self.prev_t = self.prev_t.max(t);

        match *ev {
            TraceEvent::ComputeStart {
                worker,
                phase,
                block,
            } => self.on_compute_start(i, t, worker, phase as u8, block),
            TraceEvent::ComputeEnd {
                worker,
                phase,
                block,
            } => self.on_compute_end(i, t, worker, phase as u8, block),
            TraceEvent::StallStart { worker, block } => self.on_stall_start(i, t, worker, block),
            TraceEvent::StallEnd { worker, block } => self.on_stall_end(i, t, worker, block),
            TraceEvent::IterationEnd { worker, .. } => self.on_iteration_end(i, t, worker),
            TraceEvent::GradReady {
                worker, key, round, ..
            } => {
                let entry = self
                    .ids
                    .cell_of(worker, key)
                    .and_then(|c| self.ids.grad.find(c, round));
                if let Some(e) = entry {
                    self.ready[e] = true;
                }
            }
            TraceEvent::EgressEnqueue {
                machine,
                role,
                msg_id,
                class,
                key,
                round,
                priority,
                queue_depth,
            } => {
                if let Some(m) = self.msg(msg_id) {
                    let role = role_code(role);
                    self.on_enqueue(
                        i,
                        t,
                        machine,
                        role,
                        m,
                        class,
                        key,
                        round,
                        priority,
                        queue_depth,
                    );
                }
            }
            TraceEvent::WireStart {
                msg_id,
                src,
                dst,
                bytes,
                priority,
            } => {
                if let Some(m) = self.msg(msg_id) {
                    self.on_wire_start(i, t, m, src, dst, bytes, priority);
                }
            }
            TraceEvent::WireEnd {
                msg_id,
                src,
                dst,
                bytes,
                ..
            } => {
                if let Some(m) = self.msg(msg_id) {
                    self.on_wire_end(i, t, m, src, dst, bytes);
                }
            }
            TraceEvent::AggStart {
                server,
                key,
                round,
                worker,
            } => {
                self.on_agg_start(i, t, server, key, round, worker);
            }
            TraceEvent::AggEnd {
                server,
                key,
                round,
                worker,
            } => {
                self.on_agg_end(i, t, server, key, round, worker);
            }
            TraceEvent::RoundComplete {
                server,
                key,
                version,
                degraded,
            } => {
                self.on_round_complete(i, t, server, key, version, degraded);
            }
            TraceEvent::SliceConsumed { worker, key, round } => {
                self.on_slice_consumed(i, t, worker, key, round);
            }
            TraceEvent::Fault {
                kind,
                machine,
                msg_id,
            } => {
                let msg = msg_id.and_then(|id| self.msg(id));
                self.on_fault(i, t, kind, machine, msg);
            }
            // A state-hash row is a pure digest of the run so far; it
            // drives no entity model (resume-equivalence compares them
            // across runs instead).
            TraceEvent::StateHash { .. } => {}
        }
    }

    fn conservation_enabled(&self) -> bool {
        self.opts.machines.is_some() && !self.rack_seen
    }

    fn finish(mut self, events: usize) -> AuditReport {
        let mut skipped = Vec::new();
        match self.opts.port_bytes_per_sec {
            Some(cap) if cap > 0.0 => self.check_capacity(cap),
            _ => skipped.push(
                "capacity-feasibility: no uniform port capacity in the trace metadata \
                 (topology fabrics carry per-link limits the flat check cannot express)"
                    .to_string(),
            ),
        }
        if self.opts.single_consumer.is_none() {
            skipped.push(
                "priority-inversion / in-flight-window: egress discipline unknown (no metadata)"
                    .to_string(),
            );
        }
        if !self.conservation_enabled() {
            skipped.push(if self.rack_seen {
                "per-round aggregation accounting: rack-local aggregation combines workers"
                    .to_string()
            } else {
                "per-round aggregation accounting: machine count unknown (no metadata)".to_string()
            });
        }
        AuditReport {
            events,
            violations: self.rep.violations,
            suppressed: self.rep.suppressed,
            skipped,
        }
    }
}
