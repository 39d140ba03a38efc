//! The communication-backend hooks: how ready gradients leave a worker
//! and how updated parameters come back (DESIGN.md §11).
//!
//! The engine calls five hooks, each a `match` on [`BackendKind`] — two
//! backends do not justify dynamic dispatch inside the hot loop. Each
//! hook's doc states what a backend must do. The PS protocol below
//! realizes the paper's sharded push→aggregate→pull under the configured
//! [`SyncStrategy`](p3_core::SyncStrategy); [`collective`] realizes ring
//! and halving–doubling allreduce on the same engine.

use super::collective;
use super::types::{MsgCtx, MsgKind, Role};
use super::ClusterSim;
use crate::config::BackendKind;
use p3_core::{PullTiming, ResponseMode};
use p3_trace::TraceEvent;

impl ClusterSim {
    /// One block's gradients became ready on one worker at the end of its
    /// backward pass.
    ///
    /// The contract every backend keeps: after `backend_grads_ready(w,
    /// block, r)` has fired on every live worker, the backend must
    /// eventually advance `received_version[k]` past `r` for every key `k`
    /// of the block on every live worker and call
    /// [`ClusterSim::recheck_waiting`] — that is what un-stalls the next
    /// forward pass. Everything else (what travels, where, in what order)
    /// is the backend's business.
    pub(crate) fn backend_grads_ready(&mut self, worker: usize, block: usize, round: u64) {
        match self.cfg.backend {
            BackendKind::Ps => ps_grads_ready(self, worker, block, round),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                collective::grads_ready(self, worker, block, round)
            }
        }
    }

    /// The transport delivered one of the backend's messages: the sender
    /// was already freed and the loss draw survived.
    pub(crate) fn backend_delivered(&mut self, ctx: MsgCtx) {
        match self.cfg.backend {
            BackendKind::Ps => ps_delivered(self, ctx),
            BackendKind::Ring | BackendKind::HalvingDoubling => collective::delivered(self, ctx),
        }
    }

    /// A worker crossed an iteration boundary: the hook for deferred-pull
    /// protocols. Collective parameters arrive via allgather completion,
    /// never by pulling.
    pub(crate) fn backend_iteration_started(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => ps_iteration_started(self, worker),
            BackendKind::Ring | BackendKind::HalvingDoubling => {}
        }
    }

    /// A worker process crashed. Called at the end of the membership
    /// layer's crash handling (the worker's own egress and in-network
    /// flows are already gone); the backend reforms whatever group state
    /// referenced the dead rank. PS servers need nothing beyond that
    /// teardown: they keep aggregating, and rounds complete degraded via
    /// the liveness timeout.
    pub(crate) fn backend_worker_crashed(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => {}
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                collective::worker_crashed(self, worker)
            }
        }
    }

    /// A crashed worker restarted. The backend re-syncs the rejoiner's
    /// parameter state: a PS worker re-pulls every key; a collective
    /// worker adopts the completed versions and joins future barriers.
    pub(crate) fn backend_worker_rejoined(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => ps_worker_rejoined(self, worker),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                collective::worker_rejoined(self, worker)
            }
        }
    }
}

fn ps_grads_ready(sim: &mut ClusterSim, worker: usize, block: usize, round: u64) {
    let keys: Vec<usize> = sim.keys_of_block[block].clone();
    for k in keys {
        let slice = sim.plan.slice(p3_pserver::Key(k as u64));
        let server = slice.server.0;
        let bytes = sim.wire_size(slice.params, |c| c.push_ratio);
        sim.trace(TraceEvent::GradReady {
            worker,
            key: k,
            round,
            priority: sim.prio[k],
        });
        let (dst, kind) = match sim.rack_push_target(worker, server) {
            Some(agg) => (agg, MsgKind::RackPush { key: k, round }),
            None => (server, MsgKind::Push { key: k, round }),
        };
        sim.send(kind, worker, dst, bytes);
    }
    sim.kick_egress(worker, Role::Worker);
}

#[expect(
    clippy::unreachable,
    reason = "the PS backend never sends collective chunks"
)]
fn ps_delivered(sim: &mut ClusterSim, ctx: MsgCtx) {
    match ctx.kind {
        MsgKind::Push { key, round } => {
            sim.stats.pushes += 1;
            sim.enqueue_proc(ctx.dst, key, round, ctx.src, 1u128 << ctx.src);
        }
        MsgKind::RackPush { key, round } => {
            sim.stats.rack_pushes += 1;
            sim.on_rack_push(ctx.dst, key, round, ctx.src);
        }
        MsgKind::CombinedPush {
            key,
            round,
            members,
        } => {
            sim.stats.combined_pushes += 1;
            sim.enqueue_proc(ctx.dst, key, round, ctx.src, members);
        }
        MsgKind::PullReq { key, round } => {
            sim.stats.pull_requests += 1;
            let server = ctx.dst;
            if sim.servers[server].version[key] >= round {
                sim.send_response(server, key, ctx.src);
                sim.kick_egress(server, Role::Server);
            } else {
                sim.servers[server].pending_pulls[key].push(ctx.src);
            }
        }
        MsgKind::Response { key, version } => {
            sim.stats.responses += 1;
            let w = &mut sim.workers[ctx.dst];
            if version > w.received_version[key] {
                w.received_version[key] = version;
            }
            // A response can carry a version whose notify the worker never
            // heard only after a crash: the notify reached the dead process
            // and vanished, and the rejoin's re-sync pull brought the
            // version back. It stands in for that notify, so the rest of
            // the layer is still pulled. (Otherwise every pull follows its
            // notify, and a response carries no newer version.)
            let unheard = version > w.notified_version[key];
            let s = &sim.cfg.strategy;
            let notified = s.response == ResponseMode::NotifyThenPull;
            if unheard && notified && s.pull_timing == PullTiming::Eager {
                sim.on_notify(ctx.dst, key, version);
            }
            sim.recheck_waiting(ctx.dst);
        }
        MsgKind::Notify { key, version } => {
            sim.stats.notifies += 1;
            sim.on_notify(ctx.dst, key, version);
        }
        MsgKind::ReduceScatter { .. } | MsgKind::AllGather { .. } => {
            unreachable!("collective chunk delivered under the PS backend")
        }
    }
}

fn ps_iteration_started(sim: &mut ClusterSim, worker: usize) {
    // TensorFlow-style: the next graph execution issues recv ops for
    // every parameter now.
    if sim.cfg.strategy.pull_timing == PullTiming::NextIterationStart {
        let round = sim.workers[worker].completed;
        for k in 0..sim.plan.num_keys() {
            if sim.workers[worker].received_version[k] < round {
                sim.send_pull_request(worker, k, round);
            }
        }
        sim.kick_egress(worker, Role::Worker);
    }
}

fn ps_worker_rejoined(sim: &mut ClusterSim, worker: usize) {
    // Re-sync: the restarted process pulls the current state of every
    // key (servers answer immediately with their latest version, or
    // defer until the resumed round completes).
    let resume = sim.workers[worker].resume_iter;
    for k in 0..sim.plan.num_keys() {
        sim.send_pull_request(worker, k, resume);
    }
}
