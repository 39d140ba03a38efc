//! Message-lifecycle checkers: egress enqueue/dequeue accounting, wire
//! transfers, byte conservation between attempts, priority inversions,
//! and in-flight windows.

use super::{is_push_class, Checker, ROLE_WORKER};
use crate::report::Invariant;
use p3_trace::MsgClass;
use std::collections::{BTreeMap, BTreeSet};

/// A message as the replay addresses it: its trace id, for reports, and
/// its dense slot in the replay's per-message tables. Slots are numbered
/// in id order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    pub(crate) id: u64,
    pub(crate) slot: usize,
}

/// One endpoint's egress queue: the queued messages' slots, each with
/// the priority it was enqueued at, indexed by slot and by priority.
#[derive(Debug, Default)]
pub(crate) struct EgressQueue {
    by_slot: BTreeMap<usize, u32>,
    by_priority: BTreeSet<(u32, usize)>,
}

impl EgressQueue {
    /// Queues `slot` at `priority`, replacing any earlier entry for it.
    fn insert(&mut self, slot: usize, priority: u32) {
        if let Some(old) = self.by_slot.insert(slot, priority) {
            self.by_priority.remove(&(old, slot));
        }
        self.by_priority.insert((priority, slot));
    }

    pub(crate) fn remove(&mut self, slot: usize) {
        if let Some(p) = self.by_slot.remove(&slot) {
            self.by_priority.remove(&(p, slot));
        }
    }

    fn len(&self) -> usize {
        self.by_slot.len()
    }

    /// Empties the queue, returning the slots it held.
    pub(crate) fn take(&mut self) -> impl Iterator<Item = usize> {
        self.by_priority.clear();
        std::mem::take(&mut self.by_slot).into_keys()
    }

    /// The lowest-slot queued message strictly more urgent than
    /// `priority`, with its priority. The common no-inversion answer
    /// costs one look at the most urgent entry.
    fn more_urgent(&self, priority: u32) -> Option<(usize, u32)> {
        if self.by_priority.first()?.0 >= priority {
            return None;
        }
        self.by_priority
            .range(..(priority, 0))
            .map(|&(p, slot)| (slot, p))
            .min()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgState {
    /// Enqueued on an egress queue, not yet transmitting.
    Queued,
    /// Occupying the fabric.
    InFlight,
    /// Last byte delivered (and, for pushes, claimable by an aggregation).
    Delivered,
    /// Died in the fabric; retry timer pending.
    Lost,
    /// Retransmit decided; the re-enqueue is due.
    RetryPending,
    /// Abandoned, cancelled, or destroyed by a crash.
    Dead,
}

#[derive(Debug, Clone)]
pub(crate) struct MsgInfo {
    pub(crate) endpoint: (usize, u8),
    pub(crate) class: MsgClass,
    pub(crate) key: usize,
    pub(crate) round: u64,
    pub(crate) priority: u32,
    pub(crate) bytes: Option<u64>,
    pub(crate) dst: Option<usize>,
    pub(crate) state: MsgState,
    pub(crate) open_start: Option<u64>,
}

impl Checker {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_enqueue(
        &mut self,
        i: usize,
        t: u64,
        endpoint: (usize, u8),
        msg: Msg,
        class: MsgClass,
        key: usize,
        round: u64,
        priority: u32,
        queue_depth: usize,
    ) {
        if matches!(class, MsgClass::RackPush | MsgClass::CombinedPush) && !self.rack_seen {
            // Rack-local aggregation folds several workers into one wire
            // message; per-worker aggregation accounting no longer applies.
            self.rack_seen = true;
            self.agg_members.clear();
        }
        if endpoint.1 == ROLE_WORKER
            && matches!(
                class,
                MsgClass::Push | MsgClass::RackPush | MsgClass::ReduceScatter
            )
            && !self.grad_ready.contains(&(endpoint.0, key, round))
        {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "worker {} enqueues a push for k{key} r{round} before its gradient is ready",
                    endpoint.0
                ),
            );
        }
        let msg_id = msg.id;
        match self.msgs.get_mut(msg.slot) {
            None => {}
            Some(entry @ None) => {
                *entry = Some(MsgInfo {
                    endpoint,
                    class,
                    key,
                    round,
                    priority,
                    bytes: None,
                    dst: None,
                    state: MsgState::Queued,
                    open_start: None,
                });
            }
            Some(Some(info)) => {
                if info.state != MsgState::RetryPending {
                    let state = info.state;
                    self.rep.violate(
                        Invariant::CausalOrder,
                        Some(i),
                        t,
                        format!("msg {msg_id} re-enqueued while {state:?} (no retransmit decided)"),
                    );
                }
                if info.endpoint != endpoint || info.priority != priority {
                    self.rep.violate(
                        Invariant::CausalOrder,
                        Some(i),
                        t,
                        format!("msg {msg_id} retransmitted from a different endpoint or priority"),
                    );
                }
                info.state = MsgState::Queued;
            }
        }
        let q = self.queued.entry(endpoint).or_default();
        q.insert(msg.slot, priority);
        let depth = q.len();
        if depth != queue_depth {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "endpoint m{}/{} reports queue depth {queue_depth} but {depth} messages are \
                     queued",
                    endpoint.0,
                    if endpoint.1 == ROLE_WORKER {
                        "worker"
                    } else {
                        "server"
                    }
                ),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_wire_start(
        &mut self,
        i: usize,
        t: u64,
        msg: Msg,
        src: usize,
        dst: usize,
        bytes: u64,
        priority: u32,
    ) {
        let msg_id = msg.id;
        let Some(info) = self.msgs.get_mut(msg.slot).and_then(Option::as_mut) else {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} starts transmitting without ever being enqueued"),
            );
            return;
        };
        if info.state != MsgState::Queued {
            let state = info.state;
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} starts transmitting while {state:?}"),
            );
        }
        if info.endpoint.0 != src {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "msg {msg_id} transmits from machine {src} but was enqueued on machine {}",
                    info.endpoint.0
                ),
            );
        }
        if info.priority != priority {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "msg {msg_id} transmits at priority {priority} but was enqueued at {}",
                    info.priority
                ),
            );
        }
        match info.bytes {
            None => info.bytes = Some(bytes),
            Some(b) if b != bytes => {
                self.rep.violate(
                    Invariant::ByteConservation,
                    Some(i),
                    t,
                    format!("msg {msg_id} changed size between attempts: {b} -> {bytes} bytes"),
                );
            }
            _ => {}
        }
        if let Some(d) = info.dst {
            if d != dst {
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!("msg {msg_id} changed destination between attempts: {d} -> {dst}"),
                );
            }
        }
        info.dst = Some(dst);
        info.state = MsgState::InFlight;
        info.open_start = Some(t);
        let endpoint = info.endpoint;
        let msg_prio = priority;

        if let Some(q) = self.queued.get_mut(&endpoint) {
            q.remove(msg.slot);
        }
        if self.opts.single_consumer == Some(true) {
            let inversion = self
                .queued
                .get(&endpoint)
                .and_then(|q| q.more_urgent(msg_prio));
            if let Some((qslot, qp)) = inversion {
                let qid = self.msg_ids[qslot];
                self.rep.violate(
                    Invariant::PriorityInversion,
                    Some(i),
                    t,
                    format!(
                        "msg {msg_id} (priority {msg_prio}) starts while more urgent msg {qid} \
                         (priority {qp}) waits in the same queue"
                    ),
                );
            }
        }

        let n = self.inflight.entry(endpoint).or_insert(0);
        *n += 1;
        let n = *n;
        match self.opts.single_consumer {
            Some(true) => {
                if let Some(w) = self.opts.window {
                    if n > w {
                        self.rep.violate(
                            Invariant::InFlightWindow,
                            Some(i),
                            t,
                            format!(
                                "endpoint m{}/{} has {n} messages in flight (window {w})",
                                endpoint.0, endpoint.1
                            ),
                        );
                    }
                }
            }
            Some(false) => {
                let lane = (endpoint.0, endpoint.1, dst);
                if let Some(&other) = self.lane_busy.get(&lane) {
                    self.rep.violate(
                        Invariant::InFlightWindow,
                        Some(i),
                        t,
                        format!(
                            "msg {msg_id} starts on FIFO lane m{}->m{dst} while msg {other} is \
                             still in flight",
                            endpoint.0
                        ),
                    );
                }
                self.lane_busy.insert(lane, msg_id);
            }
            None => {}
        }
    }

    pub(super) fn on_wire_end(
        &mut self,
        i: usize,
        t: u64,
        msg: Msg,
        src: usize,
        dst: usize,
        bytes: u64,
    ) {
        let msg_id = msg.id;
        let Some(info) = self.msgs.get_mut(msg.slot).and_then(Option::as_mut) else {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} delivered without ever being enqueued"),
            );
            return;
        };
        if info.state != MsgState::InFlight {
            let state = info.state;
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} delivered while {state:?}"),
            );
        }
        if info.bytes.is_some_and(|b| b != bytes) || info.dst.is_some_and(|d| d != dst) {
            self.rep.violate(
                Invariant::ByteConservation,
                Some(i),
                t,
                format!(
                    "msg {msg_id} delivered as {bytes} bytes to m{dst} but started as {:?} bytes \
                     to m{:?}",
                    info.bytes, info.dst
                ),
            );
        }
        info.state = MsgState::Delivered;
        let endpoint = info.endpoint;
        let class = info.class;
        let key = info.key;
        let round = info.round;
        if let Some(t0) = info.open_start.take() {
            if src != dst {
                self.attempts.push(super::Attempt {
                    src,
                    dst,
                    start: t0,
                    end: t,
                    bytes,
                });
            }
        }
        if let Some(n) = self.inflight.get_mut(&endpoint) {
            *n = n.saturating_sub(1);
        }
        self.lane_busy.remove(&(endpoint.0, endpoint.1, dst));

        if is_push_class(class) {
            // `worker` on the matching AggStart is the pushing machine
            // (the rack aggregator, for combined pushes).
            self.delivered_pushes
                .entry((dst, key, round, src))
                .or_default()
                .push(msg.slot);
        }
        // Allgather chunks are the collective backends' parameter
        // deliveries: like a PS response, they advance the receiving
        // worker's slice version (the chunk's `round` is the
        // post-collective version).
        if matches!(class, MsgClass::Response | MsgClass::AllGather) && !self.crashed.contains(&dst)
        {
            let have = self.received.entry((dst, key)).or_insert(0);
            *have = (*have).max(round);
        }
        if class == MsgClass::AllGather {
            // Per-key high-water mark, crashed receivers included: a
            // collective rejoin later adopts these versions in place.
            let high = self.allgather_high.entry(key).or_insert(0);
            *high = (*high).max(round);
        }
    }

    pub(super) fn msg_transition(
        &mut self,
        i: usize,
        t: u64,
        msg: Option<Msg>,
        from: MsgState,
        to: MsgState,
        what: &str,
    ) {
        let Some(Msg { id, slot }) = msg else { return };
        match self.msgs.get_mut(slot).and_then(Option::as_mut) {
            Some(info) => {
                if info.state != from {
                    let state = info.state;
                    self.rep.violate(
                        Invariant::CausalOrder,
                        Some(i),
                        t,
                        format!("msg {id} {what} while {state:?} (expected {from:?})"),
                    );
                }
                info.state = to;
            }
            None => {
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!("msg {id} {what} but was never enqueued"),
                );
            }
        }
    }
}
