//! The snapshot format: one walk over the engine's dynamic state that
//! names every field once, in stream order. Driven by a [`Coder`], the
//! same walk writes a live engine out, reads bytes back into a fresh one,
//! or (for events) folds the rolling hash. Field order here is the format;
//! any reordering is a (version-bumped) format change.
//!
//! A reader walks the fresh engine [`ClusterSim::new`] built from the
//! snapshot's configuration, so every vector whose length the
//! configuration fixes already has that length, and the stream must
//! repeat it. Containers the engine rebuilds rather than fills (the event
//! calendar, priority queues) are walked as a plain list and rebuilt on
//! the read side only. The network walks its own fields
//! ([`p3_net::Network::walk`]); this walk only places its section. Every
//! index and cross-reference the engine would later trust is checked
//! while reading, and the invariants that span sections once the stream
//! is read ([`invariants`]), so hostile or truncated input surfaces as
//! [`SnapshotError`], never a panic.

use super::super::collective::{ActiveCollective, CollectiveState};
use super::super::msg_table::MsgTable;
use super::super::types::{Ev, MsgCtx, MsgKind, Phase, ProcItem, Role, ServerState, WorkerState};
use super::super::ClusterSim;
use super::invariants;
use crate::egress::{EgressUnit, OutMsg};
use p3_core::PrioQueue;
use p3_des::snap::{fixed, opt, opt_time, seq, time, Coder, SnapshotError};
use p3_des::{EventQueue, SimDuration, SimTime, SplitMix64};
use p3_net::{FlowId, MachineId, Priority};
use std::collections::BTreeMap;

type Res = Result<(), SnapshotError>;

/// Index bounds a read snapshot must respect — anything the engine will
/// later use as an array index.
pub(super) struct Bounds {
    pub(super) machines: usize,
    pub(super) blocks: usize,
    pub(super) num_keys: usize,
    pub(super) stragglers: usize,
    pub(super) degradations: usize,
    pub(super) crashes: usize,
}

impl Bounds {
    /// For coders that check nothing (writing, folding).
    pub(super) const UNCHECKED: Bounds = Bounds {
        machines: 0,
        blocks: 0,
        num_keys: 0,
        stragglers: 0,
        degradations: 0,
        crashes: 0,
    };

    fn of(sim: &ClusterSim) -> Bounds {
        Bounds {
            machines: sim.cfg.machines,
            blocks: sim.cfg.model.blocks().len(),
            num_keys: sim.plan.num_keys(),
            stragglers: sim.cfg.faults.stragglers.len(),
            degradations: sim.cfg.faults.link_degradations.len(),
            crashes: sim.cfg.faults.crashes.len(),
        }
    }
}

/// Walks the complete dynamic state of a simulation, header excluded.
pub(super) fn walk<C: Coder>(sim: &mut ClusterSim, c: &mut C) -> Res {
    let b = Bounds::of(sim);
    let mut now = sim.queue.now();
    time(c, &mut now)?;
    let mut pending = sim.queue.pending_sorted();
    let blank = (SimTime::ZERO, Ev::NetWake);
    seq(c, &mut pending, blank, |c, (t, e)| {
        time(c, t)?;
        c.check(*t >= now, "pending event scheduled before the clock")?;
        ev(c, e, &b)
    })?;
    if C::READING {
        sim.queue = EventQueue::from_pending(now, pending);
    }

    for ws in &mut sim.workers {
        worker(c, ws, &b)?;
    }
    for ss in &mut sim.servers {
        server(c, ss, &b)?;
    }
    sim.net.walk(c, now)?;

    let read = messages(c, sim, &b)?;

    c.u64(&mut sim.next_msg_id)?;
    if C::READING {
        fill_table(c, sim, read)?;
    }
    opt_time(c, &mut sim.next_wake)?;
    // Every single consumer's admission gate, then its pending kick, per
    // machine as [worker, server]. Per-destination lanes have neither:
    // they write `ZERO` and `None`, and a reader refuses anything else.
    let endpoints = (0..b.machines).flat_map(|m| [(m, Role::Worker), (m, Role::Server)]);
    for (m, r) in endpoints.clone() {
        let mut absent = SimTime::ZERO;
        let gate = match sim.egress_mut(m, r) {
            EgressUnit::Single { next_admit, .. } => next_admit,
            EgressUnit::PerDest { .. } => &mut absent,
        };
        time(c, gate)?;
        let what = "admission gate on per-destination lanes";
        c.check(absent == SimTime::ZERO, what)?;
    }
    for (m, r) in endpoints {
        let mut absent = None;
        let kick = match sim.egress_mut(m, r) {
            EgressUnit::Single { kick_at, .. } => kick_at,
            EgressUnit::PerDest { .. } => &mut absent,
        };
        opt_time(c, kick)?;
        c.check(absent.is_none(), "admission kick on per-destination lanes")?;
    }
    c.u64(&mut sim.events)?;

    let st = &mut sim.stats;
    c.u64(&mut st.pushes)?;
    c.u64(&mut st.responses)?;
    c.u64(&mut st.notifies)?;
    c.u64(&mut st.pull_requests)?;
    c.u64(&mut st.rack_pushes)?;
    c.u64(&mut st.combined_pushes)?;
    c.u64(&mut st.collective_chunks)?;

    rng(c, &mut sim.loss_rng)?;
    for dead in &mut sim.dead_members {
        c.bool(dead)?;
    }
    c.u32(&mut sim.expected_pushes)?;
    let members = sim.dead_members.iter().filter(|&&dead| !dead).count();
    let what = "expected pushes differ from the live membership";
    c.check(sim.expected_pushes as usize == members, what)?;

    let f = &mut sim.faults;
    c.u64(&mut f.messages_lost)?;
    c.u64(&mut f.retransmits)?;
    c.u64(&mut f.gave_up)?;
    c.u64(&mut f.stale_pushes_dropped)?;
    c.u64(&mut f.duplicate_pushes_dropped)?;
    c.u64(&mut f.degraded_rounds)?;
    c.u64(&mut f.flows_cancelled)?;
    c.u64(&mut f.collectives_aborted)?;

    let (agg, dup) = (&mut sim.rack_agg, "duplicate rack-aggregation entry");
    map(
        c,
        agg,
        ((0, 0, 0), 0),
        dup,
        |c, (machine, key, round), mask| {
            c.idx(machine, b.machines, "rack aggregator out of range")?;
            c.idx(key, b.num_keys, "rack-aggregation key out of range")?;
            c.u64(round)?;
            c.u128(mask)
        },
    )?;

    let mut has_collective = sim.collective.is_some();
    c.bool(&mut has_collective)?;
    c.check(
        has_collective == sim.collective.is_some(),
        "collective state presence contradicts the backend",
    )?;
    if let Some(st) = sim.collective.as_mut() {
        collective(c, st, &b)?;
    }
    c.u64(&mut sim.hash)?;
    if C::READING {
        invariants::check_messages(sim).map_err(|what| SnapshotError::Corrupt(what.into()))?;
    }
    Ok(())
}

/// The message table, in two sections: the messages as `(count, [id,
/// context]…)` in ascending id order, then the messages in the fabric as
/// `(count, [flow id, message id]…)` in ascending flow id order ([`flows`]).
/// A context's in-flight flag is derived, not stored: it is set on the
/// messages in the fabric when the fault plan can lose messages. A
/// reader refuses ids that do not ascend and a flag that contradicts the
/// flows, and returns the messages it read, flows linked, for
/// [`fill_table`]; a writer returns nothing.
pub(super) fn messages<C: Coder>(
    c: &mut C,
    sim: &mut ClusterSim,
    b: &Bounds,
) -> Result<Vec<(u64, MsgCtx)>, SnapshotError> {
    let reliable = sim.cfg.faults.needs_reliability();
    let n = c.len(sim.msgs.len())?;
    let (mut read, mut flagged) = (Vec::new(), Vec::new());
    if C::READING {
        for _ in 0..n {
            let (mut id, mut ctx, mut in_flight) = (0, BLANK_CTX, false);
            c.u64(&mut id)?;
            msg_ctx(c, &mut ctx, &mut in_flight, b)?;
            let ascends = read.last().is_none_or(|&(prev, _)| id > prev);
            c.check(ascends, "message ids not ascending")?;
            read.push((id, ctx));
            if in_flight {
                flagged.push(id);
            }
        }
    } else {
        for (id, ctx) in sim.msgs.iter() {
            let mut in_flight = reliable && ctx.flow.is_some();
            c.u64(&mut { id })?;
            msg_ctx(c, &mut { *ctx }, &mut in_flight, b)?;
        }
    }
    flows(c, sim, &mut read)?;
    if C::READING {
        let derived = read
            .iter()
            .filter(|(_, ctx)| reliable && ctx.flow.is_some());
        let agree = flagged.into_iter().eq(derived.map(|&(id, _)| id));
        c.check(agree, "message in-flight flag contradicts its flow")?;
    }
    Ok(read)
}

/// Builds the table from the messages [`messages`] read, once the id
/// counter is known: every live id must sit below it, within a span the
/// table indexes, so no id's value sizes the window.
fn fill_table<C: Coder>(c: &mut C, sim: &mut ClusterSim, read: Vec<(u64, MsgCtx)>) -> Res {
    let next = sim.next_msg_id;
    if let (Some(&(oldest, _)), Some(&(newest, _))) = (read.first(), read.last()) {
        c.check(next > newest, "message id counter behind live ids")?;
        let what = "message ids span more than the table indexes";
        c.check(next - oldest <= MsgTable::MAX_SPAN, what)?;
    }
    sim.msgs = MsgTable::default();
    for (id, ctx) in read {
        c.check(sim.msgs.insert(id, ctx), "message ids not ascending")?;
    }
    Ok(())
}

/// The messages in the fabric as their `(count, [flow id, message
/// id]…)` list in ascending flow id order. A reader links each flow to
/// its message in `read` (ascending ids) and refuses any link that is
/// not one-to-one with the fabric's own flows and their tags.
fn flows<C: Coder>(c: &mut C, sim: &mut ClusterSim, read: &mut [(u64, MsgCtx)]) -> Res {
    let mut flows: Vec<(FlowId, u64)> = sim
        .msgs
        .flows(|_| true)
        .iter()
        .map(|&(f, id, _)| (f, id))
        .collect();
    seq(c, &mut flows, (FlowId(0), 0), |c, (flow, mid)| {
        c.u64(&mut flow.0)?;
        c.u64(mid)
    })?;
    if !C::READING {
        return Ok(());
    }
    for (i, &(flow, mid)) in flows.iter().enumerate() {
        c.check(i == 0 || flows[i - 1].0 < flow, "flow ids not ascending")?;
        let Ok(at) = read.binary_search_by_key(&mid, |&(id, _)| id) else {
            return c.check(false, "flow references unknown message");
        };
        let ctx = &mut read[at].1;
        c.check(ctx.flow.is_none(), "two flows name one message")?;
        ctx.flow = Some(flow);
    }
    // Every transfer the fabric holds must be one of those flows, tagged
    // with its message's id, and the fabric must hold each of them once.
    let mut held = vec![false; flows.len()];
    for (id, tag, delivering) in sim.net.flow_ids() {
        let Ok(i) = flows.binary_search_by_key(&id, |&(f, _)| f) else {
            let what = if delivering {
                "delivering flow unknown to the engine"
            } else {
                "network flow unknown to the engine"
            };
            return c.check(false, what);
        };
        c.check(flows[i].1 == tag, "fabric flow tag is not its message's id")?;
        c.check(
            !std::mem::replace(&mut held[i], true),
            "two fabric flows share an id",
        )?;
    }
    c.check(
        held.iter().all(|&h| h),
        "message names a flow the fabric does not hold",
    )
}

/// One scheduled event. Indices are checked against `b` when reading.
pub(super) fn ev<C: Coder>(c: &mut C, e: &mut Ev, b: &Bounds) -> Res {
    variant(c, e, "event", |t| {
        Some(match t {
            0 => Ev::StartWorker { worker: 0 },
            1 => Ev::Compute {
                worker: 0,
                phase: Phase::Fwd(0),
                inc: 0,
            },
            2 => Ev::EgressReady {
                machine: 0,
                role: Role::Worker,
                dst: MachineId(0),
                inc: 0,
            },
            3 => Ev::AdmitKick {
                machine: 0,
                role: Role::Worker,
            },
            4 => Ev::ProcDone { server: 0 },
            5 => Ev::NetWake,
            6 => Ev::StragglerStart { idx: 0 },
            7 => Ev::StragglerEnd { idx: 0 },
            8 => Ev::LinkDegradeStart { idx: 0 },
            9 => Ev::LinkDegradeEnd { idx: 0 },
            10 => Ev::Crash { idx: 0 },
            11 => Ev::Rejoin { worker: 0 },
            12 => Ev::RetryTimer {
                msg_id: 0,
                attempt: 0,
            },
            13 => Ev::LivenessTimeout { worker: 0 },
            _ => return None,
        })
    })?;
    const WORKER: &str = "event worker out of range";
    const MACHINE: &str = "event machine out of range";
    const STRAGGLER: &str = "straggler index out of range";
    const DEGRADATION: &str = "degradation index out of range";
    // The tag, then the one index most variants carry.
    let mut tagged_idx = |tag, v: &mut usize, bound, what| {
        c.tag(tag)?;
        c.idx(v, bound, what)
    };
    match e {
        Ev::StartWorker { worker } => tagged_idx(0, worker, b.machines, WORKER),
        Ev::Compute { worker, phase, inc } => {
            c.tag(1)?;
            c.idx(worker, b.machines, WORKER)?;
            compute_phase(c, phase, b)?;
            c.u32(inc)
        }
        Ev::EgressReady {
            machine,
            role: r,
            dst,
            inc,
        } => {
            c.tag(2)?;
            c.idx(machine, b.machines, MACHINE)?;
            role(c, r)?;
            c.idx(&mut dst.0, b.machines, "event destination out of range")?;
            c.u32(inc)
        }
        Ev::AdmitKick { machine, role: r } => {
            c.tag(3)?;
            c.idx(machine, b.machines, MACHINE)?;
            role(c, r)
        }
        Ev::ProcDone { server } => tagged_idx(4, server, b.machines, "event server out of range"),
        Ev::NetWake => c.tag(5),
        Ev::StragglerStart { idx } => tagged_idx(6, idx, b.stragglers, STRAGGLER),
        Ev::StragglerEnd { idx } => tagged_idx(7, idx, b.stragglers, STRAGGLER),
        Ev::LinkDegradeStart { idx } => tagged_idx(8, idx, b.degradations, DEGRADATION),
        Ev::LinkDegradeEnd { idx } => tagged_idx(9, idx, b.degradations, DEGRADATION),
        Ev::Crash { idx } => tagged_idx(10, idx, b.crashes, "crash index out of range"),
        Ev::Rejoin { worker } => tagged_idx(11, worker, b.machines, WORKER),
        Ev::RetryTimer { msg_id, attempt } => {
            c.tag(12)?;
            c.u64(msg_id)?;
            c.u32(attempt)
        }
        Ev::LivenessTimeout { worker } => tagged_idx(13, worker, b.machines, WORKER),
    }
}

fn compute_phase<C: Coder>(c: &mut C, p: &mut Phase, b: &Bounds) -> Res {
    variant(c, p, "phase", |t| match t {
        0 => Some(Phase::Fwd(0)),
        1 => Some(Phase::Bwd(0)),
        _ => None,
    })?;
    let (tag, block) = match p {
        Phase::Fwd(block) => (0, block),
        Phase::Bwd(block) => (1, block),
    };
    c.tag(tag)?;
    c.idx(block, b.blocks, "event block out of range")
}

fn role<C: Coder>(c: &mut C, r: &mut Role) -> Res {
    variant(c, r, "role", |t| match t {
        0 => Some(Role::Worker),
        1 => Some(Role::Server),
        _ => None,
    })?;
    c.tag(match r {
        Role::Worker => 0,
        Role::Server => 1,
    })
}

fn worker<C: Coder>(c: &mut C, ws: &mut WorkerState, b: &Bounds) -> Res {
    c.u64(&mut ws.iter)?;
    c.u64(&mut ws.completed)?;
    let what = "worker version vector length";
    fixed(c, &mut ws.received_version, what, C::u64)?;
    fixed(c, &mut ws.notified_version, what, C::u64)?;
    opt(c, &mut ws.waiting_block, 0, |c, blk| {
        c.idx(blk, b.blocks, "waiting block out of range")
    })?;
    opt_time(c, &mut ws.stalled_since)?;
    let mut stalled = ws.stalled_total.as_nanos();
    c.u64(&mut stalled)?;
    ws.stalled_total = SimDuration::from_nanos(stalled);
    c.bool(&mut ws.started)?;
    opt_time(c, &mut ws.measure_start)?;
    opt_time(c, &mut ws.measure_end)?;
    c.f64(&mut ws.jitter)?;
    // The clamp `resample_jitter` applies.
    c.check(
        (0.5..=2.0).contains(&ws.jitter),
        "worker jitter outside [0.5, 2]",
    )?;
    c.f64(&mut ws.slowdown)?;
    let ok = ws.slowdown.is_finite() && ws.slowdown > 0.0;
    c.check(ok, "worker slowdown not finite and positive")?;
    c.bool(&mut ws.crashed)?;
    c.bool(&mut ws.permanently_dead)?;
    c.u32(&mut ws.incarnation)?;
    c.u64(&mut ws.resume_iter)?;
    time(c, &mut ws.iter_started)?;
    seq(c, &mut ws.measured_iters, 0.0, C::f64)?;
    egress(c, &mut ws.egress, b)?;
    rng(c, &mut ws.rng)
}

pub(super) fn server<C: Coder>(c: &mut C, ss: &mut ServerState, b: &Bounds) -> Res {
    prio_queue(c, &mut ss.proc_queue, BLANK_ITEM, |c, (prio, item)| {
        c.u32(prio)?;
        proc_item(c, item, b)
    })?;
    // The unit is busy exactly while an item is in flight. The byte
    // repeats `current`'s presence, and a reader refuses a contradiction.
    let mut busy = ss.current.is_some();
    c.bool(&mut busy)?;
    fixed(c, &mut ss.received, "server mask vector length", C::u128)?;
    fixed(c, &mut ss.version, "server version vector length", C::u64)?;
    let (pullers, what) = (b.machines, "pending puller out of range");
    fixed(
        c,
        &mut ss.pending_pulls,
        "pending-pull vector length",
        |c, pulls| seq(c, pulls, 0, |c, w| c.idx(w, pullers, what)),
    )?;
    opt(c, &mut ss.current, BLANK_ITEM, |c, it| proc_item(c, it, b))?;
    let what = "processing flag contradicts the item in flight";
    c.check(busy == ss.current.is_some(), what)?;
    egress(c, &mut ss.egress, b)
}

const BLANK_ITEM: ProcItem = ProcItem {
    key: 0,
    round: 0,
    worker: 0,
    members: 0,
};

fn proc_item<C: Coder>(c: &mut C, item: &mut ProcItem, b: &Bounds) -> Res {
    let what = "processing-item key out of range";
    c.idx(&mut item.key, b.num_keys, what)?;
    c.u64(&mut item.round)?;
    let what = "processing-item worker out of range";
    c.idx(&mut item.worker, b.machines, what)?;
    c.u128(&mut item.members)
}

/// One egress unit. A reader walks the unit [`ClusterSim::new`] built
/// from the configuration and refuses any other discipline or window;
/// queued messages are checked against `b`.
pub(super) fn egress<C: Coder>(c: &mut C, e: &mut EgressUnit, b: &Bounds) -> Res {
    let tag = match e {
        EgressUnit::Single { .. } => 0,
        EgressUnit::PerDest { .. } => 1,
    };
    let mut found = tag;
    c.u8(&mut found)?;
    let what = "egress discipline differs from the configuration's";
    c.check(found == tag, what)?;
    match e {
        EgressUnit::Single {
            queue,
            in_flight,
            window,
            ..
        } => {
            let (mut w, what) = (*window, "egress window differs from the configuration's");
            c.usize(&mut w)?;
            c.check(w == *window, what)?;
            c.usize(in_flight)?;
            // The queue's priority is the message's own.
            prio_queue(c, queue, BLANK_MSG, |c, (prio, msg)| {
                out_msg(c, msg, b)?;
                *prio = msg.priority.0;
                Ok(())
            })
        }
        EgressUnit::PerDest { queues, busy } => {
            let mut d = 0;
            fixed(c, queues, "per-destination lane count", |c, lane| {
                let mut msgs = Vec::from(std::mem::take(lane));
                seq(c, &mut msgs, BLANK_MSG, |c, msg| {
                    out_msg(c, msg, b)?;
                    c.check(msg.dst.0 == d, "message in another destination's lane")
                })?;
                d += 1;
                *lane = msgs.into();
                Ok(())
            })?;
            fixed(c, busy, "per-destination busy count", C::bool)
        }
    }
}

const BLANK_MSG: OutMsg = OutMsg {
    dst: MachineId(0),
    bytes: 0,
    priority: Priority(0),
    msg_id: 0,
};

fn out_msg<C: Coder>(c: &mut C, msg: &mut OutMsg, b: &Bounds) -> Res {
    let what = "egress destination out of range";
    c.idx(&mut msg.dst.0, b.machines, what)?;
    c.u64(&mut msg.bytes)?;
    c.u32(&mut msg.priority.0)?;
    c.u64(&mut msg.msg_id)
}

const BLANK_CTX: MsgCtx = MsgCtx {
    kind: MsgKind::Push { key: 0, round: 0 },
    src: 0,
    dst: 0,
    bytes: 0,
    priority: Priority(0),
    attempt: 0,
    flow: None,
};

fn msg_ctx<C: Coder>(c: &mut C, ctx: &mut MsgCtx, in_flight: &mut bool, b: &Bounds) -> Res {
    msg_kind(c, &mut ctx.kind, b)?;
    c.idx(&mut ctx.src, b.machines, "message source out of range")?;
    c.idx(&mut ctx.dst, b.machines, "message destination out of range")?;
    c.u64(&mut ctx.bytes)?;
    c.u32(&mut ctx.priority.0)?;
    c.u32(&mut ctx.attempt)?;
    c.bool(in_flight)
}

fn msg_kind<C: Coder>(c: &mut C, k: &mut MsgKind, b: &Bounds) -> Res {
    variant(c, k, "message-kind", |t| {
        let (key, n, step) = (0, 0, 0);
        Some(match t {
            0 => MsgKind::Push { key, round: n },
            1 => MsgKind::Response { key, version: n },
            2 => MsgKind::Notify { key, version: n },
            3 => MsgKind::PullReq { key, round: n },
            4 => MsgKind::RackPush { key, round: n },
            5 => MsgKind::CombinedPush {
                key,
                round: n,
                members: 0,
            },
            6 => MsgKind::ReduceScatter {
                key,
                round: n,
                step,
            },
            7 => MsgKind::AllGather {
                key,
                version: n,
                step,
            },
            _ => return None,
        })
    })?;
    // Every kind leads with its key and a round or version.
    let (tag, key, n) = match k {
        MsgKind::Push { key, round } => (0, key, round),
        MsgKind::Response { key, version } => (1, key, version),
        MsgKind::Notify { key, version } => (2, key, version),
        MsgKind::PullReq { key, round } => (3, key, round),
        MsgKind::RackPush { key, round } => (4, key, round),
        MsgKind::CombinedPush { key, round, .. } => (5, key, round),
        MsgKind::ReduceScatter { key, round, .. } => (6, key, round),
        MsgKind::AllGather { key, version, .. } => (7, key, version),
    };
    c.tag(tag)?;
    c.idx(key, b.num_keys, "message key out of range")?;
    c.u64(n)?;
    match k {
        MsgKind::CombinedPush { members, .. } => c.u128(members),
        MsgKind::ReduceScatter { step, .. } | MsgKind::AllGather { step, .. } => c.usize(step),
        _ => Ok(()),
    }
}

fn collective<C: Coder>(c: &mut C, st: &mut CollectiveState, b: &Bounds) -> Res {
    let what = "block-barrier vector length";
    fixed(c, &mut st.block_ready, what, C::u128)?;
    fixed(c, &mut st.block_round, "block-round vector length", C::u64)?;
    prio_queue(c, &mut st.pending, (0, 0, 0), |c, (prio, entry)| {
        c.u32(prio)?;
        c.idx(
            &mut entry.0,
            b.num_keys,
            "pending collective key out of range",
        )?;
        c.u64(&mut entry.1)?;
        c.u128(&mut entry.2)
    })?;
    let blank = ActiveCollective {
        key: 0,
        round: 0,
        step: 0,
        outstanding: 0,
        members: 0,
    };
    opt(c, &mut st.active, blank, |c, a| {
        c.idx(&mut a.key, b.num_keys, "active collective key out of range")?;
        c.u64(&mut a.round)?;
        let steps = 2 * b.machines.max(2);
        c.idx(&mut a.step, steps, "collective step out of range")?;
        c.usize(&mut a.outstanding)?;
        c.u128(&mut a.members)
    })?;
    let what = "collective version vector length";
    fixed(c, &mut st.completed_version, what, C::u64)
}

// ---------------------------------------------------------------------
// Shapes: how each kind of container is laid out.

/// Reader side of an enum: reads the tag and replaces `v` with the blank
/// variant `blank` maps it to, which the walk then fills. Writers emit
/// the tag from inside the variant's arm ([`Coder::tag`]).
fn variant<C: Coder, T>(
    c: &mut C,
    v: &mut T,
    what: &str,
    blank: impl FnOnce(u8) -> Option<T>,
) -> Res {
    if C::READING {
        let mut t = 0;
        c.u8(&mut t)?;
        *v = blank(t).ok_or_else(|| SnapshotError::Corrupt(format!("bad {what} tag {t}")))?;
    }
    Ok(())
}

/// A priority queue as its `(priority, value)` list in pop order. A
/// reader re-pushes the list in order, which reproduces the pop sequence.
fn prio_queue<C: Coder, T: Clone>(
    c: &mut C,
    q: &mut PrioQueue<T>,
    blank: T,
    each: impl FnMut(&mut C, &mut (u32, T)) -> Res,
) -> Res {
    let mut items = q.sorted();
    seq(c, &mut items, (0, blank), each)?;
    if C::READING {
        *q = items.into_iter().collect();
    }
    Ok(())
}

/// A map as its entry list in key order; a reader rejects repeated keys.
fn map<C: Coder, K: Ord + Copy, V: Clone>(
    c: &mut C,
    m: &mut BTreeMap<K, V>,
    blank: (K, V),
    dup: &str,
    mut each: impl FnMut(&mut C, &mut K, &mut V) -> Res,
) -> Res {
    let n = c.len(m.len())?;
    if C::READING {
        m.clear();
        for _ in 0..n {
            let (mut k, mut v) = blank.clone();
            each(c, &mut k, &mut v)?;
            c.check(m.insert(k, v).is_none(), dup)?;
        }
        return Ok(());
    }
    m.iter_mut().try_for_each(|(&k, v)| each(c, &mut { k }, v))
}

/// An RNG stream as its state word.
fn rng<C: Coder>(c: &mut C, r: &mut SplitMix64) -> Res {
    let mut state = r.state();
    c.u64(&mut state)?;
    if C::READING {
        *r = SplitMix64::new(state);
    }
    Ok(())
}
