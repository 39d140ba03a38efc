//! Membership layer: worker-process crashes, restarts, and liveness-based
//! eviction. A crash destroys the process's queued and in-flight messages
//! and rolls its restart point back; an eviction shrinks the aggregation
//! membership so rounds complete degraded with the survivors.

use super::types::{sender_role_of, Ev, MsgKind, Role};
use super::ClusterSim;
use p3_trace::{FaultKind, TraceEvent};

impl ClusterSim {
    pub(crate) fn on_crash(&mut self, idx: usize) {
        let c = self.cfg.faults.crashes[idx];
        let now = self.queue.now();
        let w = c.worker;

        // Cancel the dead process's in-network transmissions and reclaim
        // their bandwidth.
        let doomed = self
            .msgs
            .flows(|ctx| ctx.src == w && sender_role_of(ctx.kind) == Role::Worker);
        self.trace_fault(FaultKind::Crash, w, None);
        for (flow, mid, _) in doomed {
            let cancelled = self.net.cancel_flow(now, flow);
            debug_assert!(cancelled, "registered flow unknown to the network");
            self.faults.flows_cancelled += 1;
            self.trace_fault(FaultKind::FlowCancelled, w, Some(mid));
        }

        // Discard every worker-originated message (queued or formerly in
        // flight) and roll the restart point back to the oldest round whose
        // push was destroyed — on rejoin that iteration is redone, and
        // servers deduplicate the replayed keys they already counted.
        let mut resume = self.workers[w].completed;
        self.msgs.retain(|_, ctx| {
            if ctx.src == w && sender_role_of(ctx.kind) == Role::Worker {
                if let MsgKind::Push { round, .. } = ctx.kind {
                    resume = resume.min(round);
                }
                false
            } else {
                true
            }
        });

        // The egress unit dies with the process: the fresh one has nothing
        // queued or in flight, and no admission gate or pending kick.
        let fresh = self.cfg.endpoint_egress();
        let stall_ended = {
            let ws = &mut self.workers[w];
            ws.crashed = true;
            ws.incarnation += 1;
            ws.resume_iter = resume;
            let stalled = ws.stall.take().map(|(blk, since)| {
                ws.stalled_total += now - since;
                blk
            });
            ws.egress = fresh;
            stalled
        };
        if let Some(b) = stall_ended {
            self.trace(TraceEvent::StallEnd {
                worker: w,
                block: b,
            });
        }

        match c.rejoin_after {
            None => self.workers[w].permanently_dead = true,
            Some(after) => self
                .queue
                .schedule_at(now + after, Ev::Rejoin { worker: w }),
        }
        self.queue.schedule_at(
            now + self.cfg.liveness_timeout,
            Ev::LivenessTimeout { worker: w },
        );
        self.schedule_net_wake();
        // The worker's own messages are gone; let the backend reform any
        // group state (a collective aborts and relaunches over survivors).
        self.backend_worker_crashed(w);
    }

    pub(crate) fn on_rejoin(&mut self, worker: usize) {
        let now = self.queue.now();
        self.trace_fault(FaultKind::Rejoin, worker, None);
        if self.dead_members[worker] {
            // Re-admit to the membership; rounds require its pushes again.
            self.dead_members[worker] = false;
            self.expected_pushes += 1;
        }
        let w = &mut self.workers[worker];
        let resume = w.resume_iter;
        w.crashed = false;
        w.completed = resume;
        w.stall = None;
        w.iter_started = now;
        if !w.started {
            w.started = true;
            if self.cfg.warmup_iters == 0 && w.measure_start.is_none() {
                w.measure_start = Some(now);
            }
        }
        self.resample_jitter(worker);
        self.backend_worker_rejoined(worker);
        self.kick_egress(worker, Role::Worker);
        self.try_start_fwd(worker, 0);
    }

    pub(crate) fn on_liveness_timeout(&mut self, worker: usize) {
        if !self.workers[worker].crashed || self.dead_members[worker] {
            return; // rejoined in time, or already evicted
        }
        self.dead_members[worker] = true;
        self.expected_pushes -= 1;
        self.trace_fault(FaultKind::Eviction, worker, None);
        // Graceful degradation: complete every round now satisfiable by the
        // survivors alone. (The server averages over the gradients it has —
        // the effective batch shrinks, convergence is unaffected in
        // expectation.)
        for s in 0..self.servers.len() {
            let keys: Vec<usize> = (0..self.plan.num_keys())
                .filter(|&k| {
                    let mask = self.servers[s].received[k];
                    mask != 0 && mask.count_ones() >= self.expected_pushes
                })
                .collect();
            let any = !keys.is_empty();
            for k in keys {
                self.complete_round(s, k);
            }
            if any {
                self.kick_egress(s, Role::Server);
            }
        }
    }
}
