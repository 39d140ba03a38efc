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
//! ([`p3_net::Network::walk`]); this walk only places its section.
//!
//! The stream holds each fact once. What other stored state or the
//! configuration determines is not walked: restore derives it
//! ([`super::restore`]) and checks every cross-reference once, in
//! [`ClusterSim::check_state`]. This walk checks only what one field
//! can: ranges and indices, so hostile or truncated input surfaces as
//! [`SnapshotError`], never a panic.

use super::super::collective::{ActiveCollective, CollectiveState};
use super::super::msg_table::MsgTable;
use super::super::types::{
    class_of, Ev, MsgCtx, MsgKind, Phase, ProcItem, Role, ServerState, WorkerState, EVENT_CAP,
};
use super::super::worker::JITTER;
use super::super::ClusterSim;
use crate::egress::{EgressUnit, OutMsg};
use p3_core::PrioQueue;
use p3_des::snap::{fixed, opt, opt_time, seq, time, Coder, SnapshotError};
use p3_des::{EventQueue, SimDuration, SimTime, SplitMix64};
use p3_net::{MachineId, Priority};
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
    c.u64(&mut sim.next_msg_id)?;
    messages(c, sim, &b)?;

    for ws in &mut sim.workers {
        worker(c, ws, &sim.msgs, &b)?;
    }
    for ss in &mut sim.servers {
        server(c, ss, &sim.msgs, &b)?;
    }
    sim.net.walk(c, now)?;
    opt_time(c, &mut sim.next_wake)?;
    c.u64(&mut sim.events)?;
    c.check(sim.events < EVENT_CAP, "event count at the cap")?;

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

    // The backend fixes whether there is collective state.
    if let Some(st) = sim.collective.as_mut() {
        collective(c, st, &b)?;
    }
    c.u64(&mut sim.hash)
}

/// The message table as `(count, [id, context]…)` in ascending id order.
/// A context's priority is its key's, which a reader looks up, and a
/// PS message's size is its kind's ([`ClusterSim::ps_size`]); its flow is
/// not stored either: restore links it from the fabric's tags. The id
/// counter comes just before, so a reader refuses an id it does not
/// cover, or covers from further back than the table indexes: no id's
/// value sizes the table's window.
pub(super) fn messages<C: Coder>(c: &mut C, sim: &mut ClusterSim, b: &Bounds) -> Res {
    let n = c.len(sim.msgs.len())?;
    if !C::READING {
        return sim.msgs.iter().try_for_each(|(id, ctx)| {
            c.u64(&mut { id })?;
            msg_ctx(c, &mut { *ctx }, b, sim)
        });
    }
    let next = sim.next_msg_id;
    for _ in 0..n {
        let (mut id, mut ctx) = (0, BLANK_CTX);
        c.u64(&mut id)?;
        c.check(id < next, "message id counter behind live ids")?;
        let what = "message ids span more than the table indexes";
        c.check(next - id <= MsgTable::MAX_SPAN, what)?;
        msg_ctx(c, &mut ctx, b, sim)?;
        ctx.priority = Priority(sim.prio[class_of(ctx.kind).1]);
        c.check(sim.msgs.insert(id, ctx), "message ids not ascending")?;
    }
    Ok(())
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

pub(super) fn worker<C: Coder>(
    c: &mut C,
    ws: &mut WorkerState,
    msgs: &MsgTable,
    b: &Bounds,
) -> Res {
    c.u64(&mut ws.completed)?;
    let what = "worker version vector length";
    fixed(c, &mut ws.received_version, what, C::u64)?;
    fixed(c, &mut ws.notified_version, what, C::u64)?;
    opt(c, &mut ws.stall, (0, SimTime::ZERO), |c, (blk, since)| {
        c.idx(blk, b.blocks, "waiting block out of range")?;
        time(c, since)
    })?;
    let mut stalled = ws.stalled_total.as_nanos();
    c.u64(&mut stalled)?;
    ws.stalled_total = SimDuration::from_nanos(stalled);
    c.bool(&mut ws.started)?;
    opt_time(c, &mut ws.measure_start)?;
    opt_time(c, &mut ws.measure_end)?;
    c.f64(&mut ws.jitter)?;
    // The clamp `resample_jitter` applies.
    c.check(
        (JITTER.0..=JITTER.1).contains(&ws.jitter),
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
    seq(c, &mut ws.measured_iters, 0.0, |c, secs| {
        c.f64(secs)?;
        let ok = secs.is_finite() && *secs >= 0.0;
        c.check(ok, "measured iteration not finite and non-negative")
    })?;
    egress(c, &mut ws.egress, msgs)?;
    rng(c, &mut ws.rng)
}

fn server<C: Coder>(c: &mut C, ss: &mut ServerState, msgs: &MsgTable, b: &Bounds) -> Res {
    let blank = ProcItem::default();
    prio_queue(c, &mut ss.proc_queue, blank, |c, (prio, item)| {
        c.u32(prio)?;
        proc_item(c, item, b)
    })?;
    fixed(c, &mut ss.received, "server mask vector length", C::u128)?;
    fixed(c, &mut ss.version, "server version vector length", C::u64)?;
    let (pullers, what) = (b.machines, "pending puller out of range");
    fixed(
        c,
        &mut ss.pending_pulls,
        "pending-pull vector length",
        |c, pulls| seq(c, pulls, 0, |c, w| c.idx(w, pullers, what)),
    )?;
    opt(c, &mut ss.current, blank, |c, it| proc_item(c, it, b))?;
    egress(c, &mut ss.egress, msgs)
}

fn proc_item<C: Coder>(c: &mut C, item: &mut ProcItem, b: &Bounds) -> Res {
    let what = "processing-item key out of range";
    c.idx(&mut item.key, b.num_keys, what)?;
    c.u64(&mut item.round)?;
    let what = "processing-item worker out of range";
    c.idx(&mut item.worker, b.machines, what)?;
    c.u128(&mut item.members)
}

/// One egress unit. Its discipline and window are the configuration's,
/// so the stream holds neither: a reader walks the unit
/// [`ClusterSim::new`] built. Neither a single consumer's in-flight count
/// nor a lane's busy flag is stored either; restore derives both from
/// the messages in the fabric. A queued message is its id: a reader
/// copies the rest from its context in `msgs`.
pub(super) fn egress<C: Coder>(c: &mut C, e: &mut EgressUnit, msgs: &MsgTable) -> Res {
    match e {
        EgressUnit::Single {
            queue,
            next_admit,
            kick_at,
            ..
        } => {
            // The queue's priority is the message's own.
            prio_queue(c, queue, OutMsg::default(), |c, (prio, msg)| {
                queued(c, msg, msgs)?;
                *prio = msg.priority.0;
                Ok(())
            })?;
            time(c, next_admit)?;
            opt_time(c, kick_at)
        }
        EgressUnit::PerDest { queues, .. } => {
            fixed(c, queues, "per-destination lane count", |c, lane| {
                let mut entries = Vec::from(std::mem::take(lane));
                seq(c, &mut entries, OutMsg::default(), |c, m| {
                    queued(c, m, msgs)
                })?;
                *lane = entries.into();
                Ok(())
            })
        }
    }
}

/// A queued message as its id. A reader copies its destination, size and
/// priority from the context `msgs` holds for it, and leaves a message
/// unknown there blank for [`ClusterSim::check_state`] to refuse.
fn queued<C: Coder>(c: &mut C, msg: &mut OutMsg, msgs: &MsgTable) -> Res {
    c.u64(&mut msg.msg_id)?;
    if C::READING {
        if let Some(ctx) = msgs.get(msg.msg_id) {
            msg.dst = MachineId(ctx.dst);
            msg.bytes = ctx.bytes;
            msg.priority = ctx.priority;
        }
    }
    Ok(())
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

/// One message's context. Only a collective chunk's size travels; a
/// reader sets any other to its kind's ([`ClusterSim::ps_size`]).
fn msg_ctx<C: Coder>(c: &mut C, ctx: &mut MsgCtx, b: &Bounds, sim: &ClusterSim) -> Res {
    msg_kind(c, &mut ctx.kind, b)?;
    c.idx(&mut ctx.src, b.machines, "message source out of range")?;
    c.idx(&mut ctx.dst, b.machines, "message destination out of range")?;
    match sim.ps_size(ctx.kind) {
        Some(bytes) => ctx.bytes = bytes,
        None => c.u64(&mut ctx.bytes)?,
    }
    c.u32(&mut ctx.attempt)
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
