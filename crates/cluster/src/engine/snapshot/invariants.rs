//! What a restore checks once the whole stream is read: the cross-field
//! invariants the live engine keeps between its messages, its egress
//! units, its servers and the collective, which no single field's range
//! check can see.

use super::super::types::{sender_role_of, Ev, MsgKind, Role};
use super::super::ClusterSim;
use crate::egress::EgressUnit;
use p3_pserver::Key;
use p3_topo::Placement;
use std::collections::BTreeMap;

/// Cross-field invariants the live engine keeps for its messages,
/// checked once the whole stream is read. Each message must fit the
/// backend and the aggregation state it will meet on delivery, and each
/// queued or in-fabric message must be accounted for by exactly one
/// sender's egress, or its delivery would panic.
pub(super) fn check_messages(sim: &ClusterSim) -> Result<(), &'static str> {
    let home = |key: usize| sim.plan.slice(Key(key as u64)).server.0;
    let version = |key: usize| sim.servers[home(key)].version[key];
    let active = sim.collective.as_ref().and_then(|st| st.active);
    let rack_local = sim.cfg.topology.is_some() && sim.cfg.placement == Placement::RackLocal;
    // In-fabric messages and pending lane releases per (sender, role, dst).
    let mut busy: BTreeMap<(usize, Role, usize), (usize, usize)> = BTreeMap::new();
    let mut chunks = 0;
    for (_, ctx) in sim.msgs.iter() {
        let chunk = matches!(
            ctx.kind,
            MsgKind::ReduceScatter { .. } | MsgKind::AllGather { .. }
        );
        if chunk != sim.collective.is_some() {
            return Err("message kind foreign to the backend");
        }
        let rack = matches!(
            ctx.kind,
            MsgKind::RackPush { .. } | MsgKind::CombinedPush { .. }
        );
        if rack && !rack_local {
            return Err("rack aggregation message without rack-local placement");
        }
        match ctx.kind {
            MsgKind::Push { key, round } | MsgKind::CombinedPush { key, round, .. } => {
                if ctx.dst != home(key) {
                    return Err("push not addressed to its key's server");
                }
                if round > version(key) {
                    return Err("push from a round its server has not reached");
                }
            }
            MsgKind::RackPush { key, round } if round > version(key) => {
                return Err("push from a round its server has not reached");
            }
            MsgKind::ReduceScatter { step, .. } | MsgKind::AllGather { step, .. } => {
                if active.is_none_or(|a| a.step != step) {
                    return Err("collective chunk outside the active step");
                }
                chunks += 1;
            }
            _ => {}
        }
        if ctx.flow.is_some() {
            let role = sender_role_of(ctx.kind);
            busy.entry((ctx.src, role, ctx.dst)).or_default().0 += 1;
        }
    }
    if active.is_some_and(|a| chunks > a.outstanding) {
        return Err("more collective chunks than the active step awaits");
    }
    for (s, ss) in sim.servers.iter().enumerate() {
        let items = ss.proc_queue.sorted().into_iter().map(|(_, it)| it);
        for it in items.chain(ss.current) {
            if home(it.key) != s || it.round > ss.version[it.key] {
                return Err("processing item from a round its server has not reached");
            }
        }
    }
    let mut proc_done = vec![0usize; sim.servers.len()];
    for (_, ev) in sim.queue.pending_sorted() {
        match ev {
            Ev::EgressReady {
                machine,
                role,
                dst,
                inc,
            } if role == Role::Server || sim.workers[machine].incarnation == inc => {
                busy.entry((machine, role, dst.0)).or_default().1 += 1;
            }
            Ev::ProcDone { server } => proc_done[server] += 1,
            _ => {}
        }
    }
    // A processing unit finishes what it holds exactly once: one pending
    // `ProcDone` while an item is in flight, none while it is idle.
    for (ss, &done) in sim.servers.iter().zip(&proc_done) {
        if done != usize::from(ss.current.is_some()) {
            return Err("server completion events disagree with its item in flight");
        }
    }
    let workers = sim.workers.iter().map(|w| (Role::Worker, &w.egress));
    let servers = sim.servers.iter().map(|s| (Role::Server, &s.egress));
    let machines = sim.cfg.machines;
    let mut queued = Vec::new();
    for (machine, (role, unit)) in workers.enumerate().chain(servers.enumerate()) {
        let lane = |d: usize| busy.get(&(machine, role, d)).copied().unwrap_or_default();
        let accounted = match unit {
            EgressUnit::Single {
                queue, in_flight, ..
            } => {
                let lanes: Vec<(usize, usize)> = (0..machines).map(lane).collect();
                queued.extend(queue.sorted().into_iter().map(|(_, m)| (machine, role, m)));
                lanes.iter().map(|l| l.0).sum::<usize>() == *in_flight
                    && lanes.iter().all(|l| l.1 == 0)
            }
            EgressUnit::PerDest { queues, busy } => {
                queued.extend(queues.iter().flatten().map(|&m| (machine, role, m)));
                (0..machines).all(|d| {
                    let (fabric, ready) = lane(d);
                    fabric + ready == usize::from(busy[d])
                })
            }
        };
        if !accounted {
            return Err("egress in-flight count disagrees with its messages");
        }
    }
    let mut ids = Vec::with_capacity(queued.len());
    for (machine, role, m) in queued {
        let Some(ctx) = sim.msgs.get(m.msg_id) else {
            return Err("queued message unknown to the engine");
        };
        if ctx.flow.is_some() {
            return Err("queued message also in the fabric");
        }
        if ctx.src != machine || sender_role_of(ctx.kind) != role || ctx.dst != m.dst.0 {
            return Err("queued message on another sender's egress");
        }
        ids.push(m.msg_id);
    }
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err("message queued twice");
    }
    Ok(())
}
