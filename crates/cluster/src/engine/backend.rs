//! The communication-backend seam: how ready gradients leave a worker and
//! how updated parameters come back.
//!
//! [`CommBackend`] is the contract (DESIGN.md §11). Implementations hook
//! three engine events:
//!
//! 1. **`grads_ready`** — a worker finished one block's backward pass; its
//!    slices' gradients exist and must eventually be aggregated.
//! 2. **`delivered`** — the transport delivered one of the backend's
//!    messages (the sender was already freed and the loss draw survived).
//! 3. **`iteration_started`** — a worker crossed an iteration boundary
//!    (the hook for deferred-pull protocols).
//!
//! The contract: after `grads_ready(w, block, r)` has fired on every live
//! worker, the backend must eventually advance `received_version[k]` past
//! `r` for every key `k` of the block on every live worker and call
//! [`ClusterSim::recheck_waiting`] — that is what un-stalls the next
//! forward pass. Everything else (what travels, where, in what order) is
//! the backend's business. [`PsBackend`] realizes the paper's sharded
//! push→aggregate→pull; [`CollectiveBackend`](super::collective) realizes
//! ring and halving–doubling allreduce on the same engine.
//!
//! Dispatch is static (a `match` on [`BackendKind`]) — two backends do not
//! justify dynamic dispatch inside the hot loop.

use super::collective::CollectiveBackend;
use super::types::{MsgCtx, MsgKind, Role};
use super::ClusterSim;
use crate::config::BackendKind;
use crate::egress::OutMsg;
use p3_core::PullTiming;
use p3_net::{MachineId, Priority};
use p3_trace::{MsgClass, TraceEvent};

/// One gradient-aggregation mechanism hosted on the engine. Methods are
/// associated functions over the whole sim (not `&self`) because a backend
/// is pure protocol: all state lives in [`ClusterSim`].
pub(crate) trait CommBackend {
    /// One block's gradients became ready on one worker at the end of its
    /// backward pass.
    fn grads_ready(sim: &mut ClusterSim, worker: usize, block: usize, round: u64);

    /// One of this backend's messages was delivered by the transport.
    fn delivered(sim: &mut ClusterSim, ctx: MsgCtx);

    /// A worker crossed an iteration boundary (deferred-pull hook).
    fn iteration_started(sim: &mut ClusterSim, worker: usize);

    /// A worker process crashed. Called at the end of the membership
    /// layer's crash handling (the worker's own egress and in-network
    /// flows are already gone); the backend reforms whatever group state
    /// referenced the dead rank.
    fn worker_crashed(sim: &mut ClusterSim, worker: usize);

    /// A crashed worker restarted. The backend re-syncs the rejoiner's
    /// parameter state (a PS worker re-pulls every key; a collective
    /// worker adopts the completed versions and joins future barriers).
    fn worker_rejoined(sim: &mut ClusterSim, worker: usize);
}

/// The paper's protocol: sharded parameter server with push → aggregate →
/// pull under the configured [`SyncStrategy`](p3_core::SyncStrategy).
pub(crate) struct PsBackend;

impl CommBackend for PsBackend {
    fn grads_ready(sim: &mut ClusterSim, worker: usize, block: usize, round: u64) {
        let keys: Vec<usize> = sim.keys_of_block[block].clone();
        for k in keys {
            let slice = sim.plan.slice(p3_pserver::Key(k as u64));
            let server = slice.server.0;
            let bytes = sim.push_wire(slice.params);
            let priority = Priority(sim.prio[k]);
            sim.trace(TraceEvent::GradReady {
                worker,
                key: k,
                round,
                priority: priority.0,
            });
            let (dst, kind, class) = match sim.rack_push_target(worker, server) {
                Some(agg) => (agg, MsgKind::RackPush { key: k, round }, MsgClass::RackPush),
                None => (server, MsgKind::Push { key: k, round }, MsgClass::Push),
            };
            let msg = OutMsg {
                dst: MachineId(dst),
                bytes,
                priority,
                msg_id: sim.register_msg(kind, worker, dst, bytes, priority),
            };
            sim.enqueue_traced(worker, Role::Worker, msg, class, k, round);
        }
        sim.kick_egress(worker, Role::Worker);
    }

    #[expect(
        clippy::unreachable,
        reason = "the PS backend never sends collective chunks"
    )]
    fn delivered(sim: &mut ClusterSim, ctx: MsgCtx) {
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

    fn iteration_started(sim: &mut ClusterSim, worker: usize) {
        // TensorFlow-style: the next graph execution issues recv ops for
        // every parameter now.
        if sim.cfg.strategy.pull_timing == PullTiming::NextIterationStart {
            let round = sim.workers[worker].iter;
            for k in 0..sim.plan.num_keys() {
                if sim.workers[worker].received_version[k] < round {
                    sim.send_pull_request(worker, k, round);
                }
            }
            sim.kick_egress(worker, Role::Worker);
        }
    }

    fn worker_crashed(_sim: &mut ClusterSim, _worker: usize) {
        // Nothing beyond the membership layer's generic teardown: servers
        // keep aggregating, rounds complete degraded via the liveness
        // timeout.
    }

    fn worker_rejoined(sim: &mut ClusterSim, worker: usize) {
        // Re-sync: the restarted process pulls the current state of every
        // key (servers answer immediately with their latest version, or
        // defer until the resumed round completes).
        let resume = sim.workers[worker].resume_iter;
        for k in 0..sim.plan.num_keys() {
            sim.send_pull_request(worker, k, resume);
        }
    }
}

impl ClusterSim {
    pub(crate) fn backend_grads_ready(&mut self, worker: usize, block: usize, round: u64) {
        match self.cfg.backend {
            BackendKind::Ps => PsBackend::grads_ready(self, worker, block, round),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                CollectiveBackend::grads_ready(self, worker, block, round)
            }
        }
    }

    pub(crate) fn backend_delivered(&mut self, ctx: MsgCtx) {
        match self.cfg.backend {
            BackendKind::Ps => PsBackend::delivered(self, ctx),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                CollectiveBackend::delivered(self, ctx)
            }
        }
    }

    pub(crate) fn backend_iteration_started(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => PsBackend::iteration_started(self, worker),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                CollectiveBackend::iteration_started(self, worker)
            }
        }
    }

    pub(crate) fn backend_worker_crashed(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => PsBackend::worker_crashed(self, worker),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                CollectiveBackend::worker_crashed(self, worker)
            }
        }
    }

    pub(crate) fn backend_worker_rejoined(&mut self, worker: usize) {
        match self.cfg.backend {
            BackendKind::Ps => PsBackend::worker_rejoined(self, worker),
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                CollectiveBackend::worker_rejoined(self, worker)
            }
        }
    }
}
