//! Endpoint transmit scheduling.
//!
//! The fluid network (`p3-net`) decides how concurrent flows share ports;
//! *which* messages are in flight at all is an endpoint decision, and it is
//! where the baseline and P3 differ:
//!
//! * **Per-destination FIFO** — baseline frameworks hold one TCP connection
//!   per peer; messages to one peer serialize, connections to different
//!   peers transmit concurrently.
//! * **Single consumer** — P3's worker/server consumer thread drains one
//!   priority queue with blocking sends: at most one message in flight per
//!   endpoint, always the most urgent ([§4.2]).
//!
//! [§4.2]: https://arxiv.org/abs/1905.03960

use p3_core::PrioQueue;
use p3_net::{MachineId, Priority};
use std::collections::VecDeque;

/// One message awaiting transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutMsg {
    /// Destination machine.
    pub dst: MachineId,
    /// Wire size in bytes.
    pub bytes: u64,
    /// Network priority class (lower = more urgent).
    pub priority: Priority,
    /// Opaque message id correlating with the owner's bookkeeping.
    pub msg_id: u64,
}

/// Transmit scheduler for one endpoint (a worker's or server's sender side).
#[derive(Debug)]
pub enum EgressUnit {
    /// A single consumer draining one priority queue. Admission is strictly
    /// priority-ordered, but up to `window` messages may be in flight at
    /// once: a blocking `send()` returns when the kernel buffers the
    /// message, so the wire carries a small pipeline of already-admitted
    /// messages (one per server connection in practice).
    Single {
        /// Pending messages across all destinations.
        queue: PrioQueue<OutMsg>,
        /// Messages currently in flight.
        in_flight: usize,
        /// Maximum messages in flight.
        window: usize,
    },
    /// One FIFO lane per destination machine, independently busy.
    PerDest {
        /// Pending messages per destination machine index.
        queues: Vec<VecDeque<OutMsg>>,
        /// Per-destination in-flight marker.
        busy: Vec<bool>,
    },
}

impl EgressUnit {
    /// Creates a single-consumer (P3-style) unit with an in-flight window
    /// of `window` messages (typically the number of server connections).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn single(window: usize) -> EgressUnit {
        assert!(window > 0, "zero send window");
        EgressUnit::Single {
            queue: PrioQueue::new(),
            in_flight: 0,
            window,
        }
    }

    /// Creates a per-destination FIFO (baseline-style) unit for a cluster of
    /// `machines` machines.
    pub fn per_dest(machines: usize) -> EgressUnit {
        EgressUnit::PerDest {
            queues: (0..machines).map(|_| VecDeque::new()).collect(),
            busy: vec![false; machines],
        }
    }

    /// Enqueues a message for transmission.
    pub fn enqueue(&mut self, msg: OutMsg) {
        match self {
            EgressUnit::Single { queue, .. } => queue.push(msg.priority.0, msg),
            EgressUnit::PerDest { queues, .. } => queues[msg.dst.0].push_back(msg),
        }
    }

    /// Admits the single most urgent message if the in-flight window has
    /// room (single-consumer units only; the consumer thread admits one
    /// message per serialization slot).
    ///
    /// # Panics
    ///
    /// Panics on a per-destination unit — its admission is per lane via
    /// [`EgressUnit::start_ready`].
    #[expect(
        clippy::panic,
        reason = "per-destination units admit per lane through start_ready; the engine calls start_one on single-consumer units only"
    )]
    pub fn start_one(&mut self) -> Option<OutMsg> {
        match self {
            EgressUnit::Single {
                queue,
                in_flight,
                window,
            } => {
                if *in_flight < *window {
                    let m = queue.pop();
                    if m.is_some() {
                        *in_flight += 1;
                    }
                    m
                } else {
                    None
                }
            }
            EgressUnit::PerDest { .. } => {
                panic!("start_one on a per-destination unit")
            }
        }
    }

    /// Returns every message that may start transmitting right now, marking
    /// the corresponding lanes busy. For a single-consumer unit this is at
    /// most one message; for per-destination lanes, one per idle non-empty
    /// lane.
    pub fn start_ready(&mut self) -> Vec<OutMsg> {
        match self {
            EgressUnit::Single { .. } => self.start_one().into_iter().collect(),
            EgressUnit::PerDest { queues, busy } => {
                let mut out = Vec::new();
                for (d, q) in queues.iter_mut().enumerate() {
                    if !busy[d] {
                        if let Some(m) = q.pop_front() {
                            busy[d] = true;
                            out.push(m);
                        }
                    }
                }
                out
            }
        }
    }

    /// Marks a lane free again after the in-flight message to `dst`
    /// completed (or after the post-send per-message overhead elapsed).
    ///
    /// # Panics
    ///
    /// Panics if the lane was not busy — a completion without a send is a
    /// simulator logic error.
    pub fn complete(&mut self, dst: MachineId) {
        match self {
            EgressUnit::Single { in_flight, .. } => {
                assert!(*in_flight > 0, "single consumer completed while idle");
                *in_flight -= 1;
            }
            EgressUnit::PerDest { busy, .. } => {
                assert!(busy[dst.0], "lane to {dst} completed while idle");
                busy[dst.0] = false;
            }
        }
    }

    /// Number of messages currently in flight (admitted but not yet
    /// completed).
    pub fn in_flight(&self) -> usize {
        match self {
            EgressUnit::Single { in_flight, .. } => *in_flight,
            EgressUnit::PerDest { busy, .. } => busy.iter().filter(|b| **b).count(),
        }
    }

    /// Number of queued (not yet in-flight) messages.
    pub fn backlog(&self) -> usize {
        match self {
            EgressUnit::Single { queue, .. } => queue.len(),
            EgressUnit::PerDest { queues, .. } => queues.iter().map(VecDeque::len).sum(),
        }
    }

    /// Drops queued (not yet in-flight) messages for which `keep` returns
    /// false, preserving the relative order of the survivors. In-flight
    /// messages are untouched — they complete (or are cancelled) through
    /// the normal flow lifecycle.
    pub fn retain(&mut self, mut keep: impl FnMut(&OutMsg) -> bool) {
        match self {
            EgressUnit::Single { queue, .. } => queue.retain(&mut keep),
            EgressUnit::PerDest { queues, .. } => {
                for q in queues {
                    q.retain(&mut keep);
                }
            }
        }
    }

    /// True if nothing is queued and nothing is in flight.
    pub fn is_idle(&self) -> bool {
        match self {
            EgressUnit::Single {
                queue, in_flight, ..
            } => queue.is_empty() && *in_flight == 0,
            EgressUnit::PerDest { queues, busy } => {
                queues.iter().all(VecDeque::is_empty) && busy.iter().all(|b| !*b)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(dst: usize, prio: u32, id: u64) -> OutMsg {
        OutMsg {
            dst: MachineId(dst),
            bytes: 100,
            priority: Priority(prio),
            msg_id: id,
        }
    }

    #[test]
    fn single_sends_one_at_a_time_by_priority() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(1, 5, 1));
        e.enqueue(msg(2, 0, 2));
        let first = e.start_ready();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].msg_id, 2); // most urgent wins
        assert!(e.start_ready().is_empty()); // busy
        e.complete(MachineId(2));
        assert_eq!(e.start_ready()[0].msg_id, 1);
    }

    #[test]
    fn single_window_admits_one_at_a_time_in_priority_order() {
        let mut e = EgressUnit::single(2);
        e.enqueue(msg(1, 5, 1));
        e.enqueue(msg(2, 0, 2));
        e.enqueue(msg(3, 3, 3));
        assert_eq!(e.start_one().unwrap().msg_id, 2); // most urgent first
        assert_eq!(e.start_one().unwrap().msg_id, 3);
        assert!(e.start_one().is_none()); // window full
        e.complete(MachineId(2));
        assert_eq!(e.start_one().unwrap().msg_id, 1);
    }

    #[test]
    fn single_preemption_in_queue() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(1, 3, 10));
        e.enqueue(msg(1, 3, 11));
        let _ = e.start_ready(); // 10 in flight
        e.enqueue(msg(1, 0, 12)); // urgent arrives mid-flight
        e.complete(MachineId(1));
        assert_eq!(e.start_ready()[0].msg_id, 12); // jumps ahead of 11
    }

    #[test]
    fn per_dest_lanes_are_concurrent() {
        let mut e = EgressUnit::per_dest(3);
        e.enqueue(msg(1, 0, 1));
        e.enqueue(msg(2, 0, 2));
        e.enqueue(msg(1, 0, 3));
        let started = e.start_ready();
        assert_eq!(started.len(), 2); // one per lane
        assert!(e.start_ready().is_empty());
        e.complete(MachineId(1));
        let next = e.start_ready();
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].msg_id, 3); // FIFO within the lane
    }

    #[test]
    fn per_dest_ignores_priority() {
        let mut e = EgressUnit::per_dest(2);
        e.enqueue(msg(1, 9, 1));
        e.enqueue(msg(1, 0, 2));
        assert_eq!(e.start_ready()[0].msg_id, 1); // arrival order, not prio
    }

    #[test]
    fn backlog_and_idle() {
        let mut e = EgressUnit::single(1);
        assert!(e.is_idle());
        e.enqueue(msg(0, 0, 1));
        e.enqueue(msg(0, 0, 2));
        assert_eq!(e.backlog(), 2);
        let _ = e.start_ready();
        assert_eq!(e.backlog(), 1);
        assert!(!e.is_idle());
        e.complete(MachineId(0));
        let _ = e.start_ready();
        e.complete(MachineId(0));
        assert!(e.is_idle());
    }

    #[test]
    #[should_panic(expected = "completed while idle")]
    fn spurious_completion_panics() {
        EgressUnit::single(1).complete(MachineId(0));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    fn msg(dst: usize, prio: u32, id: u64) -> OutMsg {
        OutMsg {
            dst: MachineId(dst),
            bytes: 100,
            priority: Priority(prio),
            msg_id: id,
        }
    }

    proptest! {
        /// Under any interleaving of enqueue / admit / complete, a
        /// single-consumer unit never lets `in_flight` exceed its window.
        #[test]
        fn single_window_never_exceeded(
            window in 1usize..4,
            ops in prop::collection::vec(0u8..3, 1..80),
        ) {
            let mut e = EgressUnit::single(window);
            let mut next_id = 0u64;
            let mut inflight: Vec<MachineId> = Vec::new();
            for op in ops {
                match op {
                    0 => {
                        e.enqueue(msg((next_id % 3) as usize, (next_id % 5) as u32, next_id));
                        next_id += 1;
                    }
                    1 => {
                        if let Some(m) = e.start_one() {
                            inflight.push(m.dst);
                        }
                    }
                    _ => {
                        if let Some(d) = inflight.pop() {
                            e.complete(d);
                        }
                    }
                }
                prop_assert!(e.in_flight() <= window, "in_flight {} > window {}", e.in_flight(), window);
                prop_assert_eq!(e.in_flight(), inflight.len());
            }
        }

        /// A single-consumer unit drains strictly by priority class, FIFO
        /// within a class (ids are assigned in enqueue order).
        #[test]
        fn drain_order_is_priority_then_fifo(
            prios in prop::collection::vec(0u32..4, 1..40),
        ) {
            let mut e = EgressUnit::single(1);
            for (i, &p) in prios.iter().enumerate() {
                e.enqueue(msg(0, p, i as u64));
            }
            let mut drained = Vec::new();
            while let Some(m) = e.start_one() {
                drained.push((m.priority.0, m.msg_id));
                e.complete(m.dst);
            }
            prop_assert_eq!(drained.len(), prios.len());
            for w in drained.windows(2) {
                prop_assert!(
                    w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                    "out of order: {:?} then {:?}", w[0], w[1]
                );
            }
        }
    }
}
