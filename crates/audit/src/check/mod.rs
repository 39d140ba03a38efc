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
//! The pass is near-linear in the log's length. One sort before it
//! numbers the message ids densely, in id order, so per-message state
//! lives in flat tables indexed by slot. Each egress queue is
//! indexed by priority as well as by slot, so the inversion check at a
//! wire start reads the most urgent entry in O(log n). After the pass,
//! one O(k log k) sweep per busy period checks every capacity window.

mod aggregation;
mod capacity;
mod compute;
mod faults;
mod messages;

use crate::report::{AuditReport, Invariant, Violation};
use capacity::Attempt;
use compute::WorkerState;
use messages::{EgressQueue, Msg, MsgInfo, MsgState};
use p3_trace::{EndpointRole, MsgClass, TimedEvent, TraceEvent, TraceLog, TraceMeta};
use std::collections::{BTreeMap, BTreeSet};

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
    let (ids, slots) = intern_msg_ids(log.events());
    let mut c = Checker::new(opts.clone(), ids);
    let mut slots = slots.into_iter();
    for (i, e) in log.events().iter().enumerate() {
        let msg = msg_id(&e.event).and_then(|id| slots.next().map(|slot| Msg { id, slot }));
        c.step(i, e.at.as_nanos(), &e.event, msg);
    }
    c.finish(log.len())
}

/// The message an event concerns, if any.
fn msg_id(ev: &TraceEvent) -> Option<u64> {
    match *ev {
        TraceEvent::EgressEnqueue { msg_id, .. }
        | TraceEvent::WireStart { msg_id, .. }
        | TraceEvent::WireEnd { msg_id, .. } => Some(msg_id),
        TraceEvent::Fault { msg_id, .. } => msg_id,
        TraceEvent::ComputeStart { .. }
        | TraceEvent::ComputeEnd { .. }
        | TraceEvent::StallStart { .. }
        | TraceEvent::StallEnd { .. }
        | TraceEvent::IterationEnd { .. }
        | TraceEvent::GradReady { .. }
        | TraceEvent::AggStart { .. }
        | TraceEvent::AggEnd { .. }
        | TraceEvent::RoundComplete { .. }
        | TraceEvent::SliceConsumed { .. }
        | TraceEvent::StateHash { .. } => None,
    }
}

/// Numbers the distinct message ids of a log densely, in id order, so
/// the replay keeps per-message state in flat tables whose size depends
/// only on the log's length. Returns each slot's id and the slot of
/// every message-carrying event, in log order.
fn intern_msg_ids(events: &[TimedEvent]) -> (Vec<u64>, Vec<usize>) {
    let mut keyed: Vec<(u64, usize)> = events
        .iter()
        .filter_map(|e| msg_id(&e.event))
        .enumerate()
        .map(|(n, id)| (id, n))
        .collect();
    // Ties on an id may land in any order: all of them get its slot.
    keyed.sort_unstable_by_key(|&(id, _)| id);
    let mut ids: Vec<u64> = Vec::new();
    let mut slots = vec![0; keyed.len()];
    for (id, n) in keyed {
        if ids.last() != Some(&id) {
            ids.push(id);
        }
        slots[n] = ids.len() - 1;
    }
    (ids, slots)
}

/// Violation bookkeeping, split out so handlers can report while holding
/// mutable borrows of the replay state.
#[derive(Debug, Default)]
pub(crate) struct Reporter {
    violations: Vec<Violation>,
    per_invariant: BTreeMap<Invariant, usize>,
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
        let n = self.per_invariant.entry(inv).or_insert(0);
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

pub(crate) struct Checker {
    opts: AuditOptions,
    rep: Reporter,

    prev_t: u64,
    /// Per message slot: its trace id.
    msg_ids: Vec<u64>,
    /// Per message slot: its replay state, once first enqueued.
    msgs: Vec<Option<MsgInfo>>,
    queued: BTreeMap<(usize, u8), EgressQueue>,
    inflight: BTreeMap<(usize, u8), usize>,
    lane_busy: BTreeMap<(usize, u8, usize), u64>,
    attempts: Vec<Attempt>,
    grad_ready: BTreeSet<(usize, usize, u64)>,
    /// Slots of delivered pushes not yet claimed by an aggregation.
    delivered_pushes: BTreeMap<(usize, usize, u64, usize), Vec<usize>>,
    received: BTreeMap<(usize, usize), u64>,
    allgather_high: BTreeMap<usize, u64>,
    crashed: BTreeSet<usize>,
    versions: BTreeMap<(usize, usize), u64>,
    open_agg: BTreeMap<usize, (usize, u64, usize)>,
    agg_members: BTreeMap<(usize, usize, u64), BTreeSet<usize>>,
    rack_seen: bool,
    workers: BTreeMap<usize, WorkerState>,
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
    fn new(opts: AuditOptions, msg_ids: Vec<u64>) -> Checker {
        Checker {
            opts,
            rep: Reporter::default(),
            prev_t: 0,
            msgs: vec![None; msg_ids.len()],
            msg_ids,
            queued: BTreeMap::new(),
            inflight: BTreeMap::new(),
            lane_busy: BTreeMap::new(),
            attempts: Vec::new(),
            grad_ready: BTreeSet::new(),
            delivered_pushes: BTreeMap::new(),
            received: BTreeMap::new(),
            allgather_high: BTreeMap::new(),
            crashed: BTreeSet::new(),
            versions: BTreeMap::new(),
            open_agg: BTreeMap::new(),
            agg_members: BTreeMap::new(),
            rack_seen: false,
            workers: BTreeMap::new(),
        }
    }

    fn worker(&mut self, w: usize) -> &mut WorkerState {
        self.workers.entry(w).or_insert_with(|| WorkerState {
            window_valid: true,
            ..WorkerState::default()
        })
    }

    /// Replays one event; `msg` is the message it concerns, if any.
    fn step(&mut self, i: usize, t: u64, ev: &TraceEvent, msg: Option<Msg>) {
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
                self.grad_ready.insert((worker, key, round));
            }
            // Every message-carrying event has its `msg` (see `check_with`).
            TraceEvent::EgressEnqueue {
                machine,
                role,
                class,
                key,
                round,
                priority,
                queue_depth,
                ..
            } => {
                if let Some(m) = msg {
                    let endpoint = (machine, role_code(role));
                    self.on_enqueue(i, t, endpoint, m, class, key, round, priority, queue_depth);
                }
            }
            TraceEvent::WireStart {
                src,
                dst,
                bytes,
                priority,
                ..
            } => {
                if let Some(m) = msg {
                    self.on_wire_start(i, t, m, src, dst, bytes, priority);
                }
            }
            TraceEvent::WireEnd {
                src, dst, bytes, ..
            } => {
                if let Some(m) = msg {
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
            TraceEvent::Fault { kind, machine, .. } => self.on_fault(i, t, kind, machine, msg),
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
