//! Collective communication backend: the workspace's only allreduce
//! simulator. It replays `p3-allreduce`'s ring and halving–doubling
//! schedules on the cluster engine, so allreduce runs get the fluid
//! network, topology contention, fault injection, tracing, and the audit
//! for free. The closed-form reference is `crate::bound`'s Ω-bound: its
//! per-NIC volume `2·S·(N−1)/N` is exactly the busiest-link bytes of both
//! schedules.
//!
//! Semantics:
//!
//! - A slice's collective launches once **every live** worker has finished
//!   the backward pass of the slice's block (an allreduce is inherently a
//!   barrier per tensor). The participant set is frozen into a membership
//!   mask when the barrier fires.
//! - Ready slices wait in a priority queue; **one collective is in flight
//!   at a time** (Horovod-style coordinator serialization), so priority
//!   decides who goes next — P3's scheduling generalized to collectives.
//! - Each schedule step's chunks travel through the worker endpoints'
//!   single-lane egress and the fluid network like any other message:
//!   they pay `msg_overhead` at admission, contend for links, can be lost
//!   and retransmitted, and appear in the trace as `ReduceScatter` /
//!   `AllGather` chunks.
//! - When the last allgather chunk lands, every live worker's
//!   `received_version` for the slice advances and stalled forward passes
//!   are rechecked — the same contract the PS backend satisfies with its
//!   `Response` broadcast.
//!
//! Stragglers and degraded links work unchanged. Message loss works, but
//! a chunk that exhausts its retry budget (`GiveUp`) wedges the collective
//! and surfaces as a structured `Deadlock` — configure a generous retry
//! budget with loss.
//!
//! **Crash tolerance (degraded-group reform).** A worker crash mid-run no
//! longer wedges the schedule: the in-flight collective (if the crashed
//! rank participates) is aborted — its queued chunks are purged, its
//! in-network chunks cancelled, and a `CollectiveAbort` fault recorded —
//! and the slice is requeued to relaunch from step 0 over the surviving
//! group. Barriers and queued launches drop the dead rank's bit from
//! their membership masks, a halving–doubling group whose survivor count
//! is not a power of two falls back to the ring schedule for that launch,
//! and a rejoining worker syncs to the completed versions and joins
//! future barriers only (its in-progress round was already aggregated
//! degraded without it).

use super::types::{MsgCtx, MsgKind, Role};
use super::ClusterSim;
use p3_allreduce::{CollectiveSchedule, ScheduleKind};
use p3_core::PrioQueue;
use p3_net::MachineId;
use p3_pserver::HEADER_BYTES;
use p3_trace::{FaultKind, TraceEvent};

/// The one collective currently occupying the network.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveCollective {
    pub(crate) key: usize,
    pub(crate) round: u64,
    pub(crate) step: usize,
    /// Chunks of the current step not yet delivered.
    pub(crate) outstanding: usize,
    /// Participating workers, frozen at launch (one bit per machine).
    pub(crate) members: u128,
}

/// All collective-backend state, hung off the sim as
/// `Option<Box<CollectiveState>>` (`None` under the PS backend, so PS runs
/// carry no dead weight). The backend's hooks take the state out of the
/// sim while they run, so that it and the rest of the sim are mutated side
/// by side; the box makes that take and the put-back move one pointer.
/// While the state is out, the engine queries the fabric's next event at
/// each change instead of deferring the query to the instant's end
/// ([`ClusterSim::defers_net_wake`]).
#[derive(Debug)]
pub(crate) struct CollectiveState {
    /// Requested algorithm (a launch may fall back to ring when the
    /// surviving group size does not satisfy it).
    pub(crate) kind: ScheduleKind,
    /// Per-block mask of workers whose backward pass for that block has
    /// finished in round `block_round[block]`.
    pub(crate) block_ready: Vec<u128>,
    /// The round each block's readiness mask belongs to. A replayed
    /// backward from an older round (a rejoined worker redoing work that
    /// was already aggregated degraded) is discarded; a newer round
    /// supersedes the mask.
    pub(crate) block_round: Vec<u64>,
    /// Slices whose gradients are ready cluster-wide, keyed by network
    /// priority: the next collective to launch is the most urgent one.
    /// Each entry carries the membership mask frozen when its barrier
    /// fired (crashes strip bits from queued entries too).
    pub(crate) pending: PrioQueue<(usize, u64, u128)>,
    pub(crate) active: Option<ActiveCollective>,
    /// Per-key highest version completed by a collective; a rejoining
    /// worker syncs its `received_version` to this.
    pub(crate) completed_version: Vec<u64>,
}

impl CollectiveState {
    pub(crate) fn new(schedule: CollectiveSchedule, blocks: usize, num_keys: usize) -> Self {
        CollectiveState {
            kind: schedule.kind(),
            block_ready: vec![0; blocks],
            block_round: vec![0; blocks],
            pending: PrioQueue::new(),
            active: None,
            completed_version: vec![0; num_keys],
        }
    }
}

/// The schedule actually used for a launch over `count` survivors:
/// halving–doubling needs a power of two, so a degraded group that lost
/// it falls back to the (any-size) ring.
pub(crate) fn effective_kind(kind: ScheduleKind, count: usize) -> ScheduleKind {
    if kind == ScheduleKind::HalvingDoubling && !count.is_power_of_two() {
        ScheduleKind::Ring
    } else {
        kind
    }
}

/// The machines participating in `members`, ascending — the dense rank →
/// machine map for a (possibly degraded) launch.
fn group_machines(members: u128) -> Vec<usize> {
    (0..u128::BITS as usize)
        .filter(|&m| members & (1u128 << m) != 0)
        .collect()
}

/// [`ClusterSim::backend_grads_ready`]: the worker joins the block's
/// barrier for `round`; the last live one queues the block's slices for
/// their collectives.
pub(super) fn grads_ready(sim: &mut ClusterSim, worker: usize, block: usize, round: u64) {
    let mut st = take_state(sim);
    if let Some(log) = &mut sim.trace_log {
        let now = sim.queue.now();
        for &k in &sim.keys_of_block[block] {
            let priority = sim.prio[k];
            log.record(
                now,
                TraceEvent::GradReady {
                    worker,
                    key: k,
                    round,
                    priority,
                },
            );
        }
    }
    if round < st.block_round[block] {
        // A rejoined worker replaying a round that was already
        // aggregated degraded without it; nothing to contribute.
        sim.collective = Some(st);
        return;
    }
    if round > st.block_round[block] {
        // First worker to reach a new round supersedes the mask (any
        // leftover bits belong to contributions already consumed).
        st.block_round[block] = round;
        st.block_ready[block] = 0;
    }
    st.block_ready[block] |= 1u128 << worker;
    check_barrier(sim, &mut st, block);
    sim.collective = Some(st);
}

/// [`ClusterSim::backend_delivered`]: one chunk of the active step landed.
pub(super) fn delivered(sim: &mut ClusterSim, ctx: MsgCtx) {
    let mut st = take_state(sim);
    on_chunk_delivered(sim, &mut st, ctx);
    sim.collective = Some(st);
}

/// [`ClusterSim::backend_worker_crashed`]: the group drops the dead rank,
/// aborting the active collective if it takes part.
pub(super) fn worker_crashed(sim: &mut ClusterSim, worker: usize) {
    let mut st = take_state(sim);
    on_member_lost(sim, &mut st, worker);
    sim.collective = Some(st);
}

/// [`ClusterSim::backend_worker_rejoined`].
pub(super) fn worker_rejoined(sim: &mut ClusterSim, worker: usize) {
    let mut st = take_state(sim);
    // Re-sync: the restarted process adopts the collectively-agreed
    // parameters (every completed version), then participates in
    // future barriers only — its in-progress round was aggregated
    // degraded without it.
    for (k, &v) in st.completed_version.iter().enumerate() {
        let rv = &mut sim.workers[worker].received_version[k];
        if v > *rv {
            *rv = v;
        }
    }
    // A fully-crashed group may have parked pending launches; now that
    // a rank is back the queue can drain again.
    if st.active.is_none() {
        start_next(sim, &mut st);
    }
    sim.collective = Some(st);
}

/// The backend's state, taken out of `sim` while a handler runs; the
/// handler puts it back. Until it does, every fabric change the handler
/// makes (a step's chunk sends, an abort's cancels) queries the fabric's
/// next event at once, as under the PS backend
/// ([`ClusterSim::defers_net_wake`]).
#[expect(
    clippy::unreachable,
    reason = "the collective backend is installed only together with its state"
)]
fn take_state(sim: &mut ClusterSim) -> Box<CollectiveState> {
    let Some(st) = sim.collective.take() else {
        unreachable!("collective backend without collective state")
    };
    st
}

/// Mask of workers currently able to participate in a barrier.
fn live_mask(sim: &ClusterSim) -> u128 {
    sim.workers
        .iter()
        .enumerate()
        .filter(|(_, w)| !w.crashed)
        .fold(0u128, |m, (i, _)| m | (1u128 << i))
}

/// Fires `block`'s barrier if every live worker has contributed,
/// freezing the live set as the launch membership.
fn check_barrier(sim: &mut ClusterSim, st: &mut CollectiveState, block: usize) {
    let live = live_mask(sim);
    if live == 0 || st.block_ready[block] & live != live {
        return;
    }
    st.block_ready[block] = 0;
    let round = st.block_round[block];
    for &k in &sim.keys_of_block[block] {
        st.pending.push(sim.prio[k], (k, round, live));
    }
    if st.active.is_none() {
        start_next(sim, st);
    }
}

#[expect(
    clippy::unreachable,
    reason = "a collective backend sends only chunks, and a chunk is in flight only while its collective is active"
)]
fn on_chunk_delivered(sim: &mut ClusterSim, st: &mut CollectiveState, ctx: MsgCtx) {
    let chunk_step = match ctx.kind {
        MsgKind::ReduceScatter { step, .. } | MsgKind::AllGather { step, .. } => step,
        other => unreachable!("{other:?} delivered under a collective backend"),
    };
    sim.stats.collective_chunks += 1;
    let Some(mut a) = st.active else {
        unreachable!("chunk delivered with no active collective")
    };
    assert_eq!(
        chunk_step, a.step,
        "chunk from step {chunk_step} delivered while step {} is active",
        a.step
    );
    a.outstanding -= 1;
    if a.outstanding > 0 {
        st.active = Some(a);
        return;
    }
    a.step += 1;
    // (The degenerate single-member collective arrives here with
    // `step == 1 > steps() == 0` and completes immediately.)
    let schedule = group_schedule(st.kind, a.members);
    if a.step < schedule.steps() {
        a.outstanding = launch_step(sim, st, &a, a.step);
        st.active = Some(a);
        return;
    }
    st.active = None;
    complete(sim, st, a.key, a.round);
}

/// The transfer schedule for a launch over `members`.
#[expect(
    clippy::unreachable,
    reason = "effective_kind falls back to ring where halving-doubling needs a power of two, and ring accepts every group size"
)]
fn group_schedule(kind: ScheduleKind, members: u128) -> CollectiveSchedule {
    let count = members.count_ones() as usize;
    match CollectiveSchedule::new(effective_kind(kind, count), count) {
        Ok(s) => s,
        Err(why) => unreachable!("schedule over {count} survivors rejected: {why}"),
    }
}

/// Launches the most urgent pending collective, if any. Entries whose
/// membership crashed away entirely complete immediately (their
/// gradients died with the processes; the version still advances so
/// rejoining workers do not wedge on it).
fn start_next(sim: &mut ClusterSim, st: &mut CollectiveState) {
    debug_assert!(st.active.is_none(), "collective already in flight");
    while let Some((_, (key, round, members))) = st.pending.pop() {
        if members == 0 {
            complete(sim, st, key, round);
            if st.active.is_some() {
                // `complete` chained into `start_next` and launched.
                return;
            }
            continue;
        }
        let schedule = group_schedule(st.kind, members);
        let a = ActiveCollective {
            key,
            round,
            step: 0,
            outstanding: 0,
            members,
        };
        let outstanding = if schedule.steps() == 0 {
            launch_degenerate(sim, &a)
        } else {
            launch_step(sim, st, &a, 0)
        };
        st.active = Some(ActiveCollective { outstanding, ..a });
        return;
    }
}

/// Single-member group: an allreduce with yourself moves no gradients,
/// but one loopback allgather chunk still flows so the trace and the
/// delivery path stay uniform with real groups.
fn launch_degenerate(sim: &mut ClusterSim, a: &ActiveCollective) -> usize {
    let machine = group_machines(a.members)[0];
    let kind = MsgKind::AllGather {
        key: a.key,
        version: a.round + 1,
        step: 0,
    };
    sim.send(kind, machine, machine, HEADER_BYTES as u64);
    sim.kick_egress(machine, Role::Worker);
    1
}

/// NCCL-style channels: the concurrent flows of one schedule transfer.
const CHANNELS: u64 = 4;

/// Enqueues every chunk of one schedule step on its sender's egress
/// and returns the number of chunks in flight. Each schedule transfer
/// is split into [`CHANNELS`] concurrent flows (NCCL-style channels) so
/// one peer-to-peer stream is not pinned to the single-flow goodput
/// ceiling (`ClusterConfig::flow_cap`). Schedule ranks are mapped onto
/// the (possibly degraded) member machines in ascending order.
fn launch_step(
    sim: &mut ClusterSim,
    st: &CollectiveState,
    a: &ActiveCollective,
    step: usize,
) -> usize {
    let schedule = group_schedule(st.kind, a.members);
    let machines = group_machines(a.members);
    let key = a.key;
    let round = a.round;
    let payload = 4 * sim.plan.slice(p3_pserver::Key(key as u64)).params;
    let transfers = schedule.transfers(step, payload);
    let allgather = schedule.is_allgather(step);
    let mut chunks = 0;
    for t in &transfers {
        let (src, dst) = (machines[t.src], machines[t.dst]);
        let kind = if allgather {
            let version = round + 1;
            MsgKind::AllGather { key, version, step }
        } else {
            MsgKind::ReduceScatter { key, round, step }
        };
        // Near-even split; the last channel takes the remainder.
        let per = t.bytes / CHANNELS;
        for c in 0..CHANNELS {
            let slab = if c == CHANNELS - 1 {
                t.bytes - per * (CHANNELS - 1)
            } else {
                per
            };
            sim.send(kind, src, dst, slab + HEADER_BYTES as u64);
            chunks += 1;
        }
    }
    for t in &transfers {
        sim.kick_egress(machines[t.src], Role::Worker);
    }
    chunks
}

/// The last allgather chunk landed: every live worker now holds the
/// aggregated parameters for this slice — the collective equivalent of
/// the PS backend's response broadcast.
fn complete(sim: &mut ClusterSim, st: &mut CollectiveState, key: usize, round: u64) {
    let version = round + 1;
    if version > st.completed_version[key] {
        st.completed_version[key] = version;
    }
    for w in 0..sim.cfg.machines {
        if sim.workers[w].crashed {
            continue;
        }
        let rv = &mut sim.workers[w].received_version[key];
        if version > *rv {
            *rv = version;
        }
    }
    for w in 0..sim.cfg.machines {
        if !sim.workers[w].crashed {
            sim.recheck_waiting(w);
        }
    }
    start_next(sim, st);
}

/// A participant crashed: reform the collective machinery around the
/// survivors. The active collective (if the dead rank is in it) is
/// aborted — queued chunks purged, in-network chunks cancelled — and
/// requeued to restart from step 0 over the surviving group; barrier
/// masks and queued launches lose the dead rank's bit; newly
/// satisfiable barriers fire.
fn on_member_lost(sim: &mut ClusterSim, st: &mut CollectiveState, worker: usize) {
    let bit = 1u128 << worker;

    if let Some(a) = st.active {
        if a.members & bit != 0 {
            abort_active(sim, st, worker);
        }
    }

    // Strip the dead rank from queued launches and barrier masks.
    st.pending = st
        .pending
        .sorted()
        .into_iter()
        .map(|(p, (k, r, m))| (p, (k, r, m & !bit)))
        .collect();
    for mask in &mut st.block_ready {
        *mask &= !bit;
    }

    // The group shrank: barriers that were waiting only on the dead
    // rank are now satisfied.
    for block in 0..st.block_ready.len() {
        if st.block_ready[block] != 0 {
            check_barrier(sim, st, block);
        }
    }
    if st.active.is_none() {
        start_next(sim, st);
    }
}

/// Tears down the in-flight collective: every queued chunk is purged
/// from its sender's egress, every in-network chunk flow is cancelled
/// (freeing its sender's consumer slot), all chunk contexts are
/// dropped so armed retry timers lapse, and the slice is requeued over
/// the surviving members.
#[expect(
    clippy::unreachable,
    reason = "on_member_lost aborts only an active collective"
)]
fn abort_active(sim: &mut ClusterSim, st: &mut CollectiveState, crashed: usize) {
    let Some(a) = st.active.take() else {
        unreachable!("abort without an active collective")
    };
    let now = sim.queue.now();
    let bit = 1u128 << crashed;

    let is_chunk = |kind: MsgKind| {
        matches!(
            kind,
            MsgKind::ReduceScatter { .. } | MsgKind::AllGather { .. }
        )
    };

    // Purge chunks still queued on live senders' egress units. (The
    // crashed worker's egress was already replaced wholesale by the
    // membership layer.)
    let queued: Vec<u64> = sim
        .msgs
        .iter()
        .filter(|(_, ctx)| is_chunk(ctx.kind) && ctx.flow.is_none())
        .map(|(id, _)| id)
        .collect();
    for &id in &queued {
        for w in sim.workers.iter_mut() {
            w.egress.retain(|m| m.msg_id != id);
        }
        sim.msgs.remove(id);
    }

    // Cancel chunks already in the network and free their senders'
    // consumer slots.
    for (flow, mid, ctx) in sim.msgs.flows(|c| is_chunk(c.kind)) {
        let cancelled = sim.net.cancel_flow(now, flow);
        debug_assert!(cancelled, "registered flow unknown to the network");
        sim.faults.flows_cancelled += 1;
        sim.msgs.remove(mid);
        sim.trace_fault(FaultKind::FlowCancelled, ctx.src, Some(mid));
        if ctx.src != crashed {
            sim.workers[ctx.src].egress.complete(MachineId(ctx.dst));
        }
    }

    sim.faults.collectives_aborted += 1;
    sim.trace_fault(FaultKind::CollectiveAbort, crashed, None);
    sim.schedule_net_wake();

    // Requeue over the survivors; `on_member_lost` relaunches once the
    // masks are consistent.
    st.pending
        .push(sim.prio[a.key], (a.key, a.round, a.members & !bit));
}
