//! Endpoint transmit scheduling.
//!
//! The fluid network (`p3-net`) decides how concurrent flows share ports;
//! *which* messages are in flight at all is an endpoint decision, and it is
//! where the baseline and P3 differ:
//!
//! * **Per-destination FIFO** — baseline frameworks hold one TCP connection
//!   per peer; messages to one peer serialize, connections to different
//!   peers transmit concurrently. A lane takes its next message
//!   `msg_overhead` after the previous one left the fabric.
//! * **Single consumer** — P3's worker/server consumer thread drains one
//!   priority queue, always the most urgent message first ([§4.2]). It
//!   admits at most one message per `msg_overhead` and keeps up to a
//!   window of admitted messages in flight; the cluster sets the window
//!   to the machine count (`ClusterConfig::egress_window`).
//!
//! The unit makes both decisions the engine asks of an endpoint: what may
//! start at an instant, and when to try again ([`EgressUnit::admit`]);
//! and when a sent message's lane frees ([`EgressUnit::release`]).
//!
//! [§4.2]: https://arxiv.org/abs/1905.03960

use p3_core::PrioQueue;
use p3_des::{SimDuration, SimTime};
use p3_net::{MachineId, Priority};
use std::collections::VecDeque;

/// One message awaiting transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct OutMsg {
    /// Destination machine.
    pub(crate) dst: MachineId,
    /// Wire size in bytes.
    pub(crate) bytes: u64,
    /// Network priority class (lower = more urgent).
    pub(crate) priority: Priority,
    /// Opaque message id correlating with the owner's bookkeeping.
    pub(crate) msg_id: u64,
}

/// Transmit scheduler for one endpoint (a worker's or server's sender side).
#[derive(Debug)]
pub(crate) enum EgressUnit {
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
        /// Earliest instant the consumer may admit its next message: the
        /// previous admission plus the per-message cost.
        next_admit: SimTime,
        /// The instant of the `AdmitKick` this unit asked for and that
        /// has not fired yet.
        kick_at: Option<SimTime>,
    },
    /// One FIFO lane per destination machine, independently busy.
    PerDest {
        /// Pending messages per destination machine index.
        queues: Vec<VecDeque<OutMsg>>,
        /// Per-destination in-flight marker.
        busy: Vec<bool>,
    },
}

/// One step of a kick ([`EgressUnit::admit`]).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Admit {
    /// This message starts now.
    Start(OutMsg),
    /// The kick started everything it may; kick again at this instant,
    /// if given.
    Done(Option<SimTime>),
}

impl EgressUnit {
    /// Creates a single-consumer (P3-style) unit with an in-flight window
    /// of `window` messages.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn single(window: usize) -> EgressUnit {
        assert!(window > 0, "zero send window");
        EgressUnit::Single {
            queue: PrioQueue::new(),
            in_flight: 0,
            window,
            next_admit: SimTime::ZERO,
            kick_at: None,
        }
    }

    /// Creates a per-destination FIFO (baseline-style) unit for a cluster of
    /// `machines` machines.
    pub(crate) fn per_dest(machines: usize) -> EgressUnit {
        EgressUnit::PerDest {
            queues: (0..machines).map(|_| VecDeque::new()).collect(),
            busy: vec![false; machines],
        }
    }

    /// Enqueues a message for transmission.
    pub(crate) fn enqueue(&mut self, msg: OutMsg) {
        match self {
            EgressUnit::Single { queue, .. } => queue.push(msg.priority.0, msg),
            EgressUnit::PerDest { queues, .. } => queues[msg.dst.0].push_back(msg),
        }
    }

    /// One step of a kick at `now`: the next message that may start, or
    /// the end of the kick with the instant to kick again.
    ///
    /// `pass` is the kick's cursor over the unit's senders; a kick starts
    /// it at 0 and steps until [`Admit::Done`]. Each sender starts at most
    /// one message per kick:
    ///
    /// * per-destination lanes are one sender each and start whenever idle
    ///   (each connection has its own sender thread in MXNet); they never
    ///   ask for another kick, their [`EgressUnit::release`] does;
    /// * a single consumer is one sender that serializes per-message work
    ///   on one thread: it admits a message only if `overhead` has passed
    ///   since its previous admission and its window has room — the
    ///   serialization and syscall cost behind Figure 12's small-slice
    ///   falloff. A kick that finds it gated asks to be kicked when the
    ///   gate opens, queued messages or not; one that admits asks for the
    ///   next gate only while messages wait. It never asks twice for an
    ///   instant no earlier than the kick already pending.
    pub(crate) fn admit(&mut self, now: SimTime, overhead: SimDuration, pass: &mut usize) -> Admit {
        match self {
            EgressUnit::Single {
                queue,
                in_flight,
                window,
                next_admit,
                kick_at,
            } => {
                let admitted = *pass > 0;
                if !admitted && now >= *next_admit && *in_flight < *window {
                    if let Some((_, m)) = queue.pop() {
                        *in_flight += 1;
                        *next_admit = now + overhead;
                        *pass = 1;
                        return Admit::Start(m);
                    }
                }
                let again = if admitted {
                    !queue.is_empty()
                } else {
                    now < *next_admit
                };
                let at = *next_admit;
                if again && kick_at.is_none_or(|t| at < t) {
                    *kick_at = Some(at);
                    return Admit::Done(Some(at));
                }
                Admit::Done(None)
            }
            EgressUnit::PerDest { queues, busy } => {
                for d in *pass..queues.len() {
                    if !busy[d] {
                        if let Some(m) = queues[d].pop_front() {
                            busy[d] = true;
                            *pass = d + 1;
                            return Admit::Start(m);
                        }
                    }
                }
                Admit::Done(None)
            }
        }
    }

    /// An `AdmitKick` fired at `now`; it is no longer pending if it is the
    /// one this unit asked for.
    pub(crate) fn kicked(&mut self, now: SimTime) {
        if let EgressUnit::Single { kick_at, .. } = self {
            if *kick_at == Some(now) {
                *kick_at = None;
            }
        }
    }

    /// A message this unit sent to `dst` left the fabric at `now`. A
    /// single consumer paid the per-message cost at admission, so its
    /// window slot frees at once and this returns `None`. A
    /// per-destination lane pays `overhead` before its next send: this
    /// returns the instant it frees, when the engine calls
    /// [`EgressUnit::complete`].
    pub(crate) fn release(
        &mut self,
        dst: MachineId,
        now: SimTime,
        overhead: SimDuration,
    ) -> Option<SimTime> {
        match self {
            EgressUnit::Single { .. } => {
                self.complete(dst);
                None
            }
            EgressUnit::PerDest { .. } => Some(now + overhead),
        }
    }

    /// Marks a lane free again after the in-flight message to `dst`
    /// completed (or after the post-send per-message overhead elapsed).
    ///
    /// # Panics
    ///
    /// Panics if the lane was not busy — a completion without a send is a
    /// simulator logic error.
    pub(crate) fn complete(&mut self, dst: MachineId) {
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

    /// Number of queued (not yet in-flight) messages.
    pub(crate) fn backlog(&self) -> usize {
        match self {
            EgressUnit::Single { queue, .. } => queue.len(),
            EgressUnit::PerDest { queues, .. } => queues.iter().map(VecDeque::len).sum(),
        }
    }

    /// Drops queued (not yet in-flight) messages for which `keep` returns
    /// false, preserving the relative order of the survivors. In-flight
    /// messages are untouched — they complete (or are cancelled) through
    /// the normal flow lifecycle.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&OutMsg) -> bool) {
        match self {
            EgressUnit::Single { queue, .. } => queue.retain(&mut keep),
            EgressUnit::PerDest { queues, .. } => {
                for q in queues {
                    q.retain(&mut keep);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn msg(dst: usize, prio: u32, id: u64) -> OutMsg {
        OutMsg {
            dst: MachineId(dst),
            bytes: 100,
            priority: Priority(prio),
            msg_id: id,
        }
    }

    /// The per-message cost the tests charge.
    pub(super) const OVERHEAD: SimDuration = SimDuration::from_micros(10);

    /// The ids one kick at `now_us` starts, and the instant it asks to be
    /// kicked again.
    pub(super) fn kick(
        e: &mut EgressUnit,
        now_us: u64,
        overhead: SimDuration,
    ) -> (Vec<u64>, Option<SimTime>) {
        let now = SimTime::from_micros(now_us);
        let (mut pass, mut started) = (0, Vec::new());
        loop {
            match e.admit(now, overhead, &mut pass) {
                Admit::Start(m) => started.push(m.msg_id),
                Admit::Done(again) => return (started, again),
            }
        }
    }

    fn at(us: u64) -> Option<SimTime> {
        Some(SimTime::from_micros(us))
    }

    #[test]
    fn single_sends_one_at_a_time_by_priority() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(1, 5, 1));
        e.enqueue(msg(2, 0, 2));
        // Most urgent wins; one still waits, so the next gate is asked for.
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![2], at(10)));
        e.kicked(SimTime::from_micros(10));
        assert_eq!(kick(&mut e, 10, OVERHEAD), (vec![], None)); // window full
        e.complete(MachineId(2));
        assert_eq!(kick(&mut e, 10, OVERHEAD), (vec![1], None));
    }

    #[test]
    fn single_window_admits_one_per_overhead_in_priority_order() {
        let mut e = EgressUnit::single(2);
        e.enqueue(msg(1, 5, 1));
        e.enqueue(msg(2, 0, 2));
        e.enqueue(msg(3, 3, 3));
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![2], at(10)));
        // Gated; the kick at 10 is already pending.
        assert_eq!(kick(&mut e, 5, OVERHEAD), (vec![], None));
        e.kicked(SimTime::from_micros(10));
        assert_eq!(kick(&mut e, 10, OVERHEAD), (vec![3], at(20)));
        e.kicked(SimTime::from_micros(20));
        assert_eq!(kick(&mut e, 20, OVERHEAD), (vec![], None)); // window full
        e.complete(MachineId(2));
        assert_eq!(kick(&mut e, 20, OVERHEAD), (vec![1], None));
    }

    #[test]
    fn a_gated_kick_asks_for_the_gate_with_nothing_queued() {
        let mut e = EgressUnit::single(2);
        e.enqueue(msg(1, 0, 1));
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![1], None));
        assert_eq!(kick(&mut e, 4, OVERHEAD), (vec![], at(10)));
        assert_eq!(kick(&mut e, 6, OVERHEAD), (vec![], None)); // pending
                                                               // A kick that fired for another instant leaves the pending one.
        e.kicked(SimTime::from_micros(8));
        assert_eq!(kick(&mut e, 8, OVERHEAD), (vec![], None));
        e.kicked(SimTime::from_micros(10));
        assert_eq!(kick(&mut e, 10, OVERHEAD), (vec![], None)); // gate open
    }

    #[test]
    fn single_preemption_in_queue() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(1, 3, 10));
        e.enqueue(msg(1, 3, 11));
        assert_eq!(kick(&mut e, 0, OVERHEAD).0, [10]);
        e.enqueue(msg(1, 0, 12)); // urgent arrives mid-flight
        e.complete(MachineId(1));
        assert_eq!(kick(&mut e, 10, OVERHEAD).0, [12]); // jumps ahead of 11
    }

    #[test]
    fn a_single_consumer_slot_frees_at_delivery() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(1, 0, 1));
        e.enqueue(msg(1, 0, 2));
        assert_eq!(kick(&mut e, 0, OVERHEAD).0, [1]);
        let now = SimTime::from_micros(50);
        assert_eq!(e.release(MachineId(1), now, OVERHEAD), None);
        assert_eq!(kick(&mut e, 50, OVERHEAD).0, [2]);
    }

    #[test]
    fn per_dest_lanes_are_concurrent() {
        let mut e = EgressUnit::per_dest(3);
        e.enqueue(msg(1, 0, 1));
        e.enqueue(msg(2, 0, 2));
        e.enqueue(msg(1, 0, 3));
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![1, 2], None)); // one per lane
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![], None));
        e.complete(MachineId(1));
        assert_eq!(kick(&mut e, 0, OVERHEAD), (vec![3], None)); // FIFO in the lane
    }

    #[test]
    fn per_dest_ignores_priority() {
        let mut e = EgressUnit::per_dest(2);
        e.enqueue(msg(1, 9, 1));
        e.enqueue(msg(1, 0, 2));
        assert_eq!(kick(&mut e, 0, OVERHEAD).0, [1]); // arrival order, not prio
    }

    #[test]
    fn a_per_destination_lane_frees_after_the_overhead() {
        let mut e = EgressUnit::per_dest(2);
        e.enqueue(msg(1, 0, 1));
        e.enqueue(msg(1, 0, 2));
        assert_eq!(kick(&mut e, 0, OVERHEAD).0, [1]);
        let now = SimTime::from_micros(50);
        assert_eq!(e.release(MachineId(1), now, OVERHEAD), at(60));
        assert!(kick(&mut e, 50, OVERHEAD).0.is_empty()); // still busy
        e.complete(MachineId(1));
        assert_eq!(kick(&mut e, 60, OVERHEAD).0, [2]);
    }

    #[test]
    fn backlog_counts_queued_messages() {
        let mut e = EgressUnit::single(1);
        e.enqueue(msg(0, 0, 1));
        e.enqueue(msg(0, 0, 2));
        assert_eq!(e.backlog(), 2);
        let _ = kick(&mut e, 0, OVERHEAD);
        assert_eq!(e.backlog(), 1);
    }

    #[test]
    #[should_panic(expected = "completed while idle")]
    fn spurious_completion_panics() {
        EgressUnit::single(1).complete(MachineId(0));
    }
}

#[cfg(test)]
mod properties {
    use super::tests::{kick, msg};
    use super::*;
    use proptest::prelude::*;

    fn in_flight(e: &EgressUnit) -> usize {
        match e {
            EgressUnit::Single { in_flight, .. } => *in_flight,
            EgressUnit::PerDest { busy, .. } => busy.iter().filter(|b| **b).count(),
        }
    }

    proptest! {
        /// Under any interleaving of enqueue / kick / complete, a
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
                        let (started, _) = kick(&mut e, 0, SimDuration::ZERO);
                        prop_assert!(started.len() <= 1, "one kick admitted {started:?}");
                        let dst = started.iter().map(|&id| MachineId((id % 3) as usize));
                        inflight.extend(dst);
                    }
                    _ => {
                        if let Some(d) = inflight.pop() {
                            e.complete(d);
                        }
                    }
                }
                prop_assert!(in_flight(&e) <= window, "in_flight {} > window {}", in_flight(&e), window);
                prop_assert_eq!(in_flight(&e), inflight.len());
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
            while let [id] = kick(&mut e, 0, SimDuration::ZERO).0[..] {
                drained.push((prios[id as usize], id));
                e.complete(MachineId(0));
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
