//! Transport layer: the engine's adapter onto the fluid [`Network`].
//! Owns message registration, the endpoints' egress units (which decide
//! admission and lane release), flow start and delivery, loss draws,
//! retry timers, and trace recording of the enqueue→wire lifecycle.
//!
//! Delivery is protocol-agnostic: once the sender is freed and the loss
//! draw survives, the payload is handed to the configured backend
//! ([`ClusterSim::backend_delivered`]) for protocol handling.
//!
//! [`Network`]: p3_net::Network

use super::types::{class_of, sender_role_of, Ev, MsgCtx, MsgKind, Role};
use super::ClusterSim;
use crate::egress::{Admit, EgressUnit, OutMsg};
use p3_net::{MachineId, Priority};
use p3_pserver::{wire_bytes, Key, RetryDecision, HEADER_BYTES};
use p3_trace::{EndpointRole, FaultKind, TraceEvent};

impl ClusterSim {
    // ------------------------------------------------------------------
    // Tracing.

    /// Records one event at the current simulated time. With tracing off
    /// this is a single branch; recording draws no randomness and
    /// schedules nothing, preserving determinism either way.
    #[inline]
    pub(crate) fn trace(&mut self, event: TraceEvent) {
        if let Some(log) = &mut self.trace_log {
            log.record(self.queue.now(), event);
        }
    }

    /// Records one fault event.
    pub(crate) fn trace_fault(&mut self, kind: FaultKind, machine: usize, msg_id: Option<u64>) {
        self.trace(TraceEvent::Fault {
            kind,
            machine,
            msg_id,
        });
    }

    // ------------------------------------------------------------------
    // Sending.

    /// A parameter-server message's wire size, which its kind fixes: its
    /// key's gradient (push kinds) or parameters (a response), each after
    /// any compression at its direction's ratio, or a bare header (notify,
    /// pull request). `None` for a collective chunk, sized by its launch.
    pub(crate) fn ps_size(&self, kind: MsgKind) -> Option<u64> {
        let c = self.cfg.wire_compression.as_ref();
        let ratio = match kind {
            MsgKind::Push { .. } | MsgKind::RackPush { .. } | MsgKind::CombinedPush { .. } => {
                c.map(|c| c.push_ratio)
            }
            MsgKind::Response { .. } => c.map(|c| c.response_ratio),
            MsgKind::Notify { .. } | MsgKind::PullReq { .. } => return Some(HEADER_BYTES as u64),
            MsgKind::ReduceScatter { .. } | MsgKind::AllGather { .. } => return None,
        };
        let params = self.plan.slice(Key(class_of(kind).1 as u64)).params;
        Some(match ratio {
            Some(r) => HEADER_BYTES as u64 + ((4 * params) as f64 / r).ceil() as u64,
            None => wire_bytes(params),
        })
    }

    /// Sends a PS message at its kind's size ([`ClusterSim::ps_size`]).
    #[expect(clippy::expect_used, reason = "the PS protocol sends its kinds only")]
    pub(crate) fn send_ps(&mut self, kind: MsgKind, src: usize, dst: usize) {
        let bytes = self.ps_size(kind).expect("a PS kind");
        self.send(kind, src, dst, bytes);
    }

    /// Sends one message: registers it and queues it on its sender's
    /// egress. The kind fixes everything else. The sender's endpoint is
    /// [`sender_role_of`] the kind, and the wire priority is the P3
    /// priority of the kind's slice key ([`class_of`]).
    #[inline]
    pub(crate) fn send(&mut self, kind: MsgKind, src: usize, dst: usize, bytes: u64) {
        let (_, key, _) = class_of(kind);
        let ctx = MsgCtx {
            kind,
            src,
            dst,
            bytes,
            priority: Priority(self.prio[key]),
            attempt: 0,
            flow: None,
        };
        let msg_id = self.register_msg(ctx);
        self.enqueue(msg_id, &ctx);
    }

    fn register_msg(&mut self, ctx: MsgCtx) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        let fresh = self.msgs.insert(id, ctx);
        debug_assert!(fresh, "message ids issued out of order");
        id
    }

    /// Queues message `msg_id` on its sender's egress, recording the
    /// enqueue (with the post-enqueue queue depth, the kind's class, key
    /// and round, and the priority) when tracing.
    #[inline]
    fn enqueue(&mut self, msg_id: u64, ctx: &MsgCtx) {
        let role = sender_role_of(ctx.kind);
        let msg = OutMsg {
            dst: MachineId(ctx.dst),
            bytes: ctx.bytes,
            priority: ctx.priority,
            msg_id,
        };
        self.egress_mut(ctx.src, role).enqueue(msg);
        if self.trace_log.is_some() {
            let queue_depth = self.egress_mut(ctx.src, role).backlog();
            let (class, key, round) = class_of(ctx.kind);
            let role = match role {
                Role::Worker => EndpointRole::Worker,
                Role::Server => EndpointRole::Server,
            };
            self.trace(TraceEvent::EgressEnqueue {
                machine: ctx.src,
                role,
                msg_id,
                class,
                key,
                round,
                priority: ctx.priority.0,
                queue_depth,
            });
        }
    }

    /// Puts an admitted message on the wire: starts its flow (timed as
    /// `net/start_flow`), records the `WireStart`, notes the flow on the
    /// message and, when the fault plan can lose messages, arms its retry
    /// timer (fault-free runs never schedule retry events).
    fn start_wire(&mut self, machine: usize, m: OutMsg) {
        let OutMsg {
            dst,
            bytes,
            priority,
            msg_id,
        } = m;
        let now = self.queue.now();
        let span = self.prof_begin();
        let flow = self
            .net
            .start_flow(now, MachineId(machine), dst, bytes, priority, msg_id);
        self.prof_end("net/start_flow", span);
        self.trace(TraceEvent::WireStart {
            msg_id,
            src: machine,
            dst: dst.0,
            bytes,
            priority: priority.0,
        });
        let Some(ctx) = self.msgs.get_mut(msg_id) else {
            return;
        };
        ctx.flow = Some(flow);
        if !self.cfg.faults.needs_reliability() {
            return;
        }
        let attempt = ctx.attempt;
        let timeout = self.cfg.retry.timeout_for(attempt);
        self.queue
            .schedule_at(now + timeout, Ev::RetryTimer { msg_id, attempt });
    }

    // ------------------------------------------------------------------
    // Egress admission.

    /// The egress unit of machine `machine`'s worker or server endpoint.
    pub(crate) fn egress_mut(&mut self, machine: usize, role: Role) -> &mut EgressUnit {
        match role {
            Role::Worker => &mut self.workers[machine].egress,
            Role::Server => &mut self.servers[machine].egress,
        }
    }

    /// Starts every transmission the endpoint's egress unit admits now,
    /// and schedules the `AdmitKick` it asks for ([`EgressUnit::admit`]).
    pub(crate) fn kick_egress(&mut self, machine: usize, role: Role) {
        if role == Role::Worker && self.workers[machine].crashed {
            return; // a dead process transmits nothing
        }
        let (now, overhead) = (self.queue.now(), self.cfg.msg_overhead);
        let mut pass = 0;
        let again = loop {
            let unit = self.egress_mut(machine, role);
            match unit.admit(now, overhead, &mut pass) {
                Admit::Start(m) => self.start_wire(machine, m),
                Admit::Done(again) => break again,
            }
        };
        if let Some(at) = again {
            self.queue.schedule_at(at, Ev::AdmitKick { machine, role });
        }
        self.schedule_net_wake();
    }

    /// Notes that the fabric changed, so its next event may have moved.
    ///
    /// A collective backend defers the query: the run loop flushes it once
    /// per simulated instant, so a burst of chunk sends pays for one
    /// allocation. The PS backend queries at once. Deferring there is not
    /// exact: two kicks at one instant can each schedule a wake, or an
    /// early wake can be overtaken by a later start, and either moves the
    /// event stream.
    pub(crate) fn schedule_net_wake(&mut self) {
        self.wake_pending = true;
        if self.collective.is_none() {
            self.flush_net_wake();
        }
    }

    /// Schedules a `NetWake` at the fabric's next event unless an earlier
    /// one is already pending. The query allocates stale rates, so it is
    /// timed as `net/poll`.
    pub(crate) fn flush_net_wake(&mut self) {
        self.wake_pending = false;
        let span = self.prof_begin();
        let next = self.net.next_event_time();
        self.prof_end("net/poll", span);
        if let Some(t) = next {
            if self.next_wake.is_none_or(|w| t < w) {
                self.queue.schedule_at(t, Ev::NetWake);
                self.next_wake = Some(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Delivery.

    /// A message's flow left the fabric: free its sender, draw its loss,
    /// and hand a survivor to the backend.
    #[expect(
        clippy::expect_used,
        reason = "a message's context lives until its flow is delivered"
    )]
    pub(crate) fn on_delivered(&mut self, msg_id: u64) {
        let ctx = self
            .msgs
            .get_mut(msg_id)
            .expect("delivery for unknown message");
        ctx.flow = None;
        let ctx = *ctx;
        let now = self.queue.now();

        // Free the sender: its NIC finished transmitting whether or not the
        // message survives the network or finds its receiver alive. Its
        // egress unit says when the lane frees ([`EgressUnit::release`]).
        let (role, dst) = (sender_role_of(ctx.kind), MachineId(ctx.dst));
        let overhead = self.cfg.msg_overhead;
        match self.egress_mut(ctx.src, role).release(dst, now, overhead) {
            None => self.kick_egress(ctx.src, role),
            Some(at) => {
                let machine = ctx.src;
                let inc = match role {
                    Role::Worker => self.workers[machine].incarnation,
                    Role::Server => 0,
                };
                let ready = Ev::EgressReady {
                    machine,
                    role,
                    dst,
                    inc,
                };
                self.queue.schedule_at(at, ready);
            }
        }

        // Lossy network: the message died in the fabric. Keep its context
        // (out of the fabric now) so the retry timer retransmits it.
        // Loopback traffic never touches the fabric and cannot be lost.
        if self.cfg.faults.loss_probability > 0.0
            && ctx.src != ctx.dst
            && self.loss_rng.next_f64() < self.cfg.faults.loss_probability
        {
            self.faults.messages_lost += 1;
            self.trace_fault(FaultKind::Loss, ctx.src, Some(msg_id));
            return;
        }
        self.msgs.remove(msg_id);

        // Deliveries to a crashed worker vanish at the dead endpoint. (The
        // colocated server shard stays alive, so server-bound messages
        // always land.)
        let worker_bound = matches!(
            ctx.kind,
            MsgKind::Response { .. }
                | MsgKind::Notify { .. }
                | MsgKind::ReduceScatter { .. }
                | MsgKind::AllGather { .. }
        );
        if worker_bound && self.workers[ctx.dst].crashed {
            return;
        }

        let span = self.prof_begin();
        self.backend_delivered(ctx);
        self.prof_end("backend/delivered", span);
    }

    // ------------------------------------------------------------------
    // Retransmission.

    pub(crate) fn on_retry_timer(&mut self, msg_id: u64, attempt: u32) {
        let now = self.queue.now();
        let Some(&ctx) = self.msgs.get(msg_id) else {
            return; // delivered or discarded in the meantime
        };
        if ctx.attempt != attempt {
            return; // an older attempt's timer; a newer one is armed
        }
        if ctx.flow.is_some() {
            // Still transiting a slow network: spurious timeout, wait more.
            let timeout = self.cfg.retry.timeout_for(attempt);
            self.queue
                .schedule_at(now + timeout, Ev::RetryTimer { msg_id, attempt });
            return;
        }
        // The message was lost. The policy decides: retransmit, or abandon
        // it once the retry budget is spent. Either way the decision is
        // mirrored into the trace so aggregate fault counters can be
        // cross-checked against per-event counts.
        let sender = ctx.src;
        let decision = self.cfg.retry.decide(attempt);
        self.trace_fault(decision.fault_kind(), sender, Some(msg_id));
        match decision {
            RetryDecision::GiveUp => {
                self.msgs.remove(msg_id);
                self.faults.gave_up += 1;
            }
            RetryDecision::Retransmit { .. } => {
                if let Some(retried) = self.msgs.get_mut(msg_id) {
                    retried.attempt += 1;
                }
                self.faults.retransmits += 1;
                // Re-entering the egress queue at the original priority
                // keeps the single consumer's strict priority order intact.
                self.enqueue(msg_id, &ctx);
                self.kick_egress(ctx.src, sender_role_of(ctx.kind));
            }
        }
    }
}
