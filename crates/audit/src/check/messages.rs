//! Message-lifecycle checkers: egress enqueue/dequeue accounting, wire
//! transfers, byte conservation between attempts, priority inversions,
//! and in-flight windows.

use super::intern::NONE;
use super::{is_push_class, Checker, ROLE_WORKER};
use crate::report::Invariant;
use p3_trace::MsgClass;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

/// A message as the replay addresses it: its trace id, for reports, and
/// its dense slot in the replay's per-message tables. Slots are numbered
/// in id order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Msg {
    pub(crate) id: u64,
    pub(crate) slot: usize,
}

/// Every endpoint's egress queue. Each queued message is recorded under
/// its slot, with the endpoint and the priority it was queued at. Each
/// endpoint keeps its depth and a min-heap of `(priority, slot)` entries,
/// packed into one `u64` each, that may be stale: an entry counts only
/// while its slot is still queued there at that priority.
#[derive(Debug)]
pub(crate) struct Queues {
    /// Per endpoint: queued messages.
    depth: Vec<usize>,
    /// Per endpoint: a lazily pruned min-heap over the queued messages.
    heap: Vec<BinaryHeap<Reverse<u64>>>,
    /// Per message slot: the endpoint it is queued at (`NONE` if none)
    /// and its priority there.
    at: Vec<(u32, u32)>,
    /// Further endpoints a message is queued at, by (slot, endpoint).
    /// Only a corrupt log queues one message twice at once.
    more: BTreeMap<(u32, u32), u32>,
}

impl Queues {
    pub(crate) fn new(endpoints: usize, msgs: usize) -> Queues {
        Queues {
            depth: vec![0; endpoints],
            heap: vec![BinaryHeap::new(); endpoints],
            at: vec![(NONE, 0); msgs],
            more: BTreeMap::new(),
        }
    }

    /// A heap entry: ordered by priority, then by slot.
    fn entry(priority: u32, slot: u32) -> Reverse<u64> {
        Reverse(u64::from(priority) << 32 | u64::from(slot))
    }

    /// The priority and slot of a heap entry.
    fn unpack(Reverse(e): Reverse<u64>) -> (u32, u32) {
        ((e >> 32) as u32, e as u32)
    }

    /// Whether a heap entry of `ep` is live.
    fn live(&self, ep: u32, e: Reverse<u64>) -> bool {
        let (p, s) = Queues::unpack(e);
        self.priority(ep, s) == Some(p)
    }

    /// The priority `slot` is queued at on endpoint `ep`, if queued there.
    fn priority(&self, ep: u32, slot: u32) -> Option<u32> {
        match self.at[slot as usize] {
            (e, p) if e == ep => Some(p),
            _ if self.more.is_empty() => None,
            _ => self.more.get(&(slot, ep)).copied(),
        }
    }

    /// Queues `slot` on `ep` at `priority`, replacing any earlier entry
    /// for it there. Returns the endpoint's new depth.
    fn insert(&mut self, ep: u32, slot: u32, priority: u32) -> usize {
        let at = &mut self.at[slot as usize];
        if at.0 == ep {
            at.1 = priority;
        } else if let Some(p) = self.more.get_mut(&(slot, ep)) {
            *p = priority;
        } else {
            if at.0 == NONE {
                *at = (ep, priority);
            } else {
                self.more.insert((slot, ep), priority);
            }
            self.depth[ep as usize] += 1;
        }
        let e = ep as usize;
        self.heap[e].push(Queues::entry(priority, slot));
        if self.heap[e].len() > 2 * self.depth[e] + 32 {
            self.prune(ep);
        }
        self.depth[e]
    }

    /// Drops every stale entry of `ep`'s heap.
    fn prune(&mut self, ep: u32) {
        let mut entries = std::mem::take(&mut self.heap[ep as usize]).into_vec();
        entries.retain(|&e| self.live(ep, e));
        entries.sort_unstable();
        entries.dedup();
        self.heap[ep as usize] = BinaryHeap::from(entries);
    }

    pub(crate) fn remove(&mut self, ep: u32, slot: u32) {
        let at = &mut self.at[slot as usize];
        let removed = if at.0 == ep {
            at.0 = NONE;
            true
        } else {
            !self.more.is_empty() && self.more.remove(&(slot, ep)).is_some()
        };
        if removed {
            self.depth[ep as usize] -= 1;
        }
    }

    /// Empties `ep`'s queue, returning the slots it held.
    pub(crate) fn take(&mut self, ep: u32) -> Vec<u32> {
        let mut slots = Vec::new();
        for e in std::mem::take(&mut self.heap[ep as usize]) {
            if self.live(ep, e) {
                let (_, s) = Queues::unpack(e);
                self.remove(ep, s);
                slots.push(s);
            }
        }
        slots
    }

    /// The lowest-slot message queued on `ep` strictly more urgent than
    /// `priority`, with its priority. The common no-inversion answer
    /// costs a look at the heap's top, once its stale entries are gone.
    fn more_urgent(&mut self, ep: u32, priority: u32) -> Option<(usize, u32)> {
        let e = ep as usize;
        while let Some(&top) = self.heap[e].peek() {
            if self.live(ep, top) {
                break;
            }
            self.heap[e].pop();
        }
        if Queues::unpack(*self.heap[e].peek()?).0 >= priority {
            return None;
        }
        self.heap[e]
            .iter()
            .filter(|&&e| Queues::unpack(e).0 < priority && self.live(ep, e))
            .map(|&e| {
                let (p, s) = Queues::unpack(e);
                (s as usize, p)
            })
            .min()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MsgState {
    /// Not enqueued yet.
    Unseen,
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

/// One message's replay state, fixed at its first enqueue apart from
/// its state and its wire attempts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgInfo {
    pub(crate) round: u64,
    bytes: u64,
    /// Enqueuing endpoint: `2 · machine slot + role`.
    pub(crate) endpoint: u32,
    /// Key slot.
    pub(crate) key: u32,
    /// Destination machine slot of the latest start (`NONE` before one).
    pub(crate) dst: u32,
    pub(crate) priority: u32,
    /// Index of its wire attempt started and not yet delivered or
    /// cancelled (`NONE` when there is none).
    pub(crate) open: u32,
    pub(crate) class: MsgClass,
    pub(crate) state: MsgState,
    has_bytes: bool,
}

impl MsgInfo {
    pub(crate) const UNSEEN: MsgInfo = MsgInfo {
        round: 0,
        bytes: 0,
        endpoint: NONE,
        key: NONE,
        dst: NONE,
        priority: 0,
        class: MsgClass::Push,
        open: NONE,
        state: MsgState::Unseen,
        has_bytes: false,
    };

    fn bytes(&self) -> Option<u64> {
        self.has_bytes.then_some(self.bytes)
    }

    pub(crate) fn dst(&self) -> Option<usize> {
        (self.dst != NONE).then_some(self.dst as usize)
    }
}

impl Checker {
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_enqueue(
        &mut self,
        i: usize,
        t: u64,
        machine: usize,
        role: u8,
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
            self.members.fill(false);
        }
        if role == ROLE_WORKER
            && matches!(
                class,
                MsgClass::Push | MsgClass::RackPush | MsgClass::ReduceScatter
            )
            && !self.grad_ready(machine, key, round)
        {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "worker {machine} enqueues a push for k{key} r{round} before its gradient is \
                     ready"
                ),
            );
        }
        let (Some(m), Some(k)) = (
            self.ids.machines.slot(machine as u64),
            self.ids.keys.slot(key as u64),
        ) else {
            return;
        };
        let endpoint = 2 * m as u32 + u32::from(role);
        let msg_id = msg.id;
        let info = &mut self.msgs[msg.slot];
        if info.state == MsgState::Unseen {
            *info = MsgInfo {
                round,
                endpoint,
                key: k as u32,
                priority,
                class,
                state: MsgState::Queued,
                ..MsgInfo::UNSEEN
            };
        } else {
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
        let depth = self.queues.insert(endpoint, msg.slot as u32, priority);
        if depth != queue_depth {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "endpoint m{machine}/{} reports queue depth {queue_depth} but {depth} \
                     messages are queued",
                    if role == ROLE_WORKER {
                        "worker"
                    } else {
                        "server"
                    }
                ),
            );
        }
    }

    /// Whether worker `machine`'s gradient for (`key`, `round`) is ready.
    fn grad_ready(&self, machine: usize, key: usize, round: u64) -> bool {
        self.ids
            .cell_of(machine, key)
            .and_then(|c| self.ids.grad.find(c, round))
            .is_some_and(|e| self.ready[e])
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
        let info = &mut self.msgs[msg.slot];
        if info.state == MsgState::Unseen {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} starts transmitting without ever being enqueued"),
            );
            return;
        }
        if info.state != MsgState::Queued {
            let state = info.state;
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} starts transmitting while {state:?}"),
            );
        }
        let machine = self.ids.machines.id(info.endpoint as usize / 2) as usize;
        if machine != src {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "msg {msg_id} transmits from machine {src} but was enqueued on machine \
                     {machine}"
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
        match info.bytes() {
            None => {
                info.bytes = bytes;
                info.has_bytes = true;
            }
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
        if let Some(d) = info.dst() {
            let d = self.ids.machines.id(d);
            if d != dst as u64 {
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!("msg {msg_id} changed destination between attempts: {d} -> {dst}"),
                );
            }
        }
        let dst_slot = self
            .ids
            .machines
            .slot(dst as u64)
            .map_or(NONE, |s| s as u32);
        info.dst = dst_slot;
        info.state = MsgState::InFlight;
        // Attempts are recorded in start order; the capacity sweep keeps
        // the ones a delivery completes.
        info.open = self.attempts.len() as u32;
        self.attempts.push(super::Attempt {
            start: t,
            end: 0,
            bytes: 0,
            delivered: super::Attempt::UNDELIVERED,
            src: NONE,
            dst: NONE,
        });
        let endpoint = info.endpoint;
        let msg_prio = priority;

        self.queues.remove(endpoint, msg.slot as u32);
        if self.opts.single_consumer == Some(true) {
            if let Some((qslot, qp)) = self.queues.more_urgent(endpoint, msg_prio) {
                let qid = self.ids.msgs.id(qslot);
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

        let n = &mut self.inflight[endpoint as usize];
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
                                "endpoint m{machine}/{} has {n} messages in flight (window {w})",
                                endpoint % 2
                            ),
                        );
                    }
                }
            }
            Some(false) => {
                if let Some(other) = self.lane_busy.insert((endpoint, dst_slot), msg_id) {
                    self.rep.violate(
                        Invariant::InFlightWindow,
                        Some(i),
                        t,
                        format!(
                            "msg {msg_id} starts on FIFO lane m{machine}->m{dst} while msg \
                             {other} is still in flight"
                        ),
                    );
                }
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
        let info = &mut self.msgs[msg.slot];
        if info.state == MsgState::Unseen {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} delivered without ever being enqueued"),
            );
            return;
        }
        if info.state != MsgState::InFlight {
            let state = info.state;
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {msg_id} delivered while {state:?}"),
            );
        }
        let started_to = info.dst().map(|d| self.ids.machines.id(d) as usize);
        if info.bytes().is_some_and(|b| b != bytes) || started_to.is_some_and(|d| d != dst) {
            self.rep.violate(
                Invariant::ByteConservation,
                Some(i),
                t,
                format!(
                    "msg {msg_id} delivered as {bytes} bytes to m{dst} but started as {:?} bytes \
                     to m{:?}",
                    info.bytes(),
                    started_to
                ),
            );
        }
        info.state = MsgState::Delivered;
        let open = std::mem::replace(&mut info.open, NONE);
        let info = *info;
        let (Some(s), Some(d)) = (
            self.ids.machines.slot(src as u64),
            self.ids.machines.slot(dst as u64),
        ) else {
            return;
        };
        if let (Some(a), true) = (self.attempts.get_mut(open as usize), src != dst) {
            a.end = t;
            a.bytes = bytes;
            a.delivered = i as u64;
            a.src = s as u32;
            a.dst = d as u32;
        }
        let n = &mut self.inflight[info.endpoint as usize];
        *n = n.saturating_sub(1);
        if !self.lane_busy.is_empty() {
            self.lane_busy.remove(&(info.endpoint, d as u32));
        }

        let cell = self.ids.cell(d, info.key as usize);
        if is_push_class(info.class) {
            // `worker` on the matching AggStart is the pushing machine
            // (the rack aggregator, for combined pushes).
            let entry = cell.and_then(|c| self.ids.pushes.find(c, (info.round, s as u32)));
            if let Some(e) = entry {
                self.pushes.append(e, msg.slot as u32);
            }
        }
        // Allgather chunks are the collective backends' parameter
        // deliveries: like a PS response, they advance the receiving
        // worker's slice version (the chunk's `round` is the
        // post-collective version).
        if matches!(info.class, MsgClass::Response | MsgClass::AllGather) && !self.crashed[d] {
            if let Some(c) = cell {
                let have = &mut self.received[c];
                *have = (*have).max(info.round);
            }
        }
        if info.class == MsgClass::AllGather {
            // Per-key high-water mark, crashed receivers included: a
            // collective rejoin later adopts these versions in place.
            let high = &mut self.allgather_high[info.key as usize];
            *high = (*high).max(info.round);
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
        let info = &mut self.msgs[slot];
        if info.state == MsgState::Unseen {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("msg {id} {what} but was never enqueued"),
            );
            return;
        }
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
}
