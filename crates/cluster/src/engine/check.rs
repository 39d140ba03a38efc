//! The engine's one state invariant: every cross-reference between its
//! sections that no single field's range check can see. The live engine
//! keeps it after every event. A restore derives what a snapshot leaves
//! out and then refuses any state that breaks it, because the engine
//! would panic or wedge on that state later.

use super::types::{class_of, sender_role_of, Ev, MsgKind, Role};
use super::ClusterSim;
#[cfg(test)]
use crate::config::RunError;
use crate::egress::EgressUnit;
use p3_des::snap::SnapshotError;
use p3_des::SimTime;
use p3_pserver::{wire_bytes, Key, HEADER_BYTES};
use std::collections::BTreeMap;

/// What each egress lane accounts for, by `(sender, role, destination)`:
/// its messages in the fabric, and its pending lane releases
/// (`EgressReady` of the live incarnation).
pub(super) type Loads = BTreeMap<(usize, Role, usize), (usize, usize)>;

impl ClusterSim {
    /// Checks the state invariant, naming the first broken part as
    /// [`SnapshotError::Corrupt`].
    pub(crate) fn check_state(&self) -> Result<(), SnapshotError> {
        let pending = self.queue.pending_sorted();
        self.check_workers()
            .and_then(|()| self.check_versions())
            .and_then(|()| self.check_fabric(&pending))
            .and_then(|()| self.check_messages(&pending))
            .and_then(|()| self.check_egress(&self.lane_loads(&pending)))
            .map_err(|what| SnapshotError::Corrupt(what.into()))
    }

    /// Each endpoint's lane loads, from the messages in the fabric and
    /// the `pending` events.
    pub(super) fn lane_loads(&self, pending: &[(SimTime, Ev)]) -> Loads {
        let mut loads = Loads::new();
        for (_, ctx) in self.msgs.iter().filter(|(_, ctx)| ctx.flow.is_some()) {
            let lane = (ctx.src, sender_role_of(ctx.kind), ctx.dst);
            loads.entry(lane).or_default().0 += 1;
        }
        for &(_, ev) in pending {
            if let Ev::EgressReady {
                machine,
                role,
                dst,
                inc,
            } = ev
            {
                if role == Role::Server || self.workers[machine].incarnation == inc {
                    loads.entry((machine, role, dst.0)).or_default().1 += 1;
                }
            }
        }
        loads
    }

    /// A worker's instants lie at or before the clock, and its
    /// measurement window opens past warmup and closes by the target, as
    /// the result assembly expects of every surviving worker.
    fn check_workers(&self) -> Result<(), &'static str> {
        let now = self.queue.now();
        let warmup = self.cfg.warmup_iters;
        let target = warmup.saturating_add(self.cfg.measure_iters);
        let late = |t: Option<SimTime>| t.is_some_and(|t| t > now);
        for w in &self.workers {
            let (start, end) = (w.measure_start, w.measure_end);
            let stalled = w.stall.map(|(_, since)| since);
            if w.iter_started > now || late(stalled) || late(start) || late(end) {
                return Err("worker instant after the clock");
            }
            if w.started && w.completed >= warmup && start.is_none() {
                return Err("worker past warmup without a measurement start");
            }
            if w.completed >= target && end.is_none() {
                return Err("worker past its target without a measurement end");
            }
            if end.is_some_and(|e| start.is_none_or(|s| e < s)) {
                return Err("measurement window ends before it starts");
            }
        }
        if self.expected_pushes as usize != self.dead_members.iter().filter(|&&d| !d).count() {
            return Err("expected pushes differ from the live membership");
        }
        Ok(())
    }

    /// A PS worker learns a key's version, by response or by notify, only
    /// from that key's server, so no live worker holds or has been notified
    /// of a version its server has not completed. Under a collective
    /// backend only a completed collective and a rejoin raise a worker's
    /// version, and both raise the backend's completed version at least as
    /// far, so no live worker holds a version past it.
    fn check_versions(&self) -> Result<(), &'static str> {
        if let Some(st) = &self.collective {
            let done = &st.completed_version;
            let mut live = self.workers.iter().filter(|w| !w.crashed);
            if live.any(|w| w.received_version.iter().zip(done).any(|(v, d)| v > d)) {
                return Err("worker holds a version its collective has not completed");
            }
            return Ok(());
        }
        let completed = |key: usize| {
            let server = self.plan.slice(Key(key as u64)).server.0;
            self.servers[server].version[key]
        };
        let ahead = |versions: &[u64]| versions.iter().enumerate().any(|(k, &v)| v > completed(k));
        for w in self.workers.iter().filter(|w| !w.crashed) {
            if ahead(&w.received_version) {
                return Err("worker holds a version its server has not completed");
            }
            if ahead(&w.notified_version) {
                return Err("worker notified of a version its server has not completed");
            }
        }
        Ok(())
    }

    /// The fabric's transfers and the messages in it are one-to-one: each
    /// transfer, by its unique id, is the flow of the message its tag
    /// names, and no other message names a flow. The fabric's next event
    /// is reached through the wake the engine believes pending, so that
    /// wake must be pending.
    fn check_fabric(&self, pending: &[(SimTime, Ev)]) -> Result<(), &'static str> {
        let mut held = Vec::new();
        for (flow, tag, _) in self.net.flow_ids() {
            let Some(ctx) = self.msgs.get(tag) else {
                return Err("fabric flow tagged with no live message");
            };
            if ctx.flow != Some(flow) {
                return Err("fabric flow's message linked to another flow");
            }
            held.push(flow);
        }
        held.sort_unstable();
        if held.windows(2).any(|w| w[0] == w[1]) {
            return Err("two fabric flows share an id");
        }
        let linked = self.msgs.iter().filter(|(_, ctx)| ctx.flow.is_some());
        if linked.count() != held.len() {
            return Err("message names a flow the fabric does not hold");
        }
        let woken = |w| {
            pending
                .iter()
                .any(|&(t, ev)| t == w && matches!(ev, Ev::NetWake))
        };
        if self.next_wake.is_some_and(|w| !woken(w)) {
            return Err("network wake not pending");
        }
        Ok(())
    }

    /// Each message fits the backend and the aggregation state it will
    /// meet on delivery, has its key's priority and a size its slice sends
    /// (a PS message its kind's, a collective chunk at least a header and
    /// at most its slice's uncompressed wire size), and each server
    /// finishes what it holds once.
    fn check_messages(&self, pending: &[(SimTime, Ev)]) -> Result<(), &'static str> {
        let home = |key: usize| self.plan.slice(Key(key as u64)).server.0;
        let version = |key: usize| self.servers[home(key)].version[key];
        let active = self.collective.as_ref().and_then(|st| st.active);
        let rack_local = self.cfg.rack_local();
        let mut chunks = 0;
        for (_, ctx) in self.msgs.iter() {
            // Only a collective chunk has no PS size.
            let size = self.ps_size(ctx.kind);
            if size.is_none() != self.collective.is_some() {
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
            let key = class_of(ctx.kind).1;
            match size {
                Some(size) if ctx.bytes != size => return Err("message size not its kind's"),
                None if ctx.bytes < HEADER_BYTES as u64 => {
                    return Err("message smaller than its header");
                }
                None if ctx.bytes > wire_bytes(self.plan.slice(Key(key as u64)).params) => {
                    return Err("message larger than its slice on the wire");
                }
                _ => {}
            }
            if ctx.priority.0 != self.prio[key] {
                return Err("message priority not its key's");
            }
        }
        if active.is_some_and(|a| chunks > a.outstanding) {
            return Err("more collective chunks than the active step awaits");
        }
        for (s, ss) in self.servers.iter().enumerate() {
            let items = ss.proc_queue.sorted().into_iter().map(|(_, it)| it);
            for it in items.chain(ss.current) {
                if home(it.key) != s || it.round > ss.version[it.key] {
                    return Err("processing item from a round its server has not reached");
                }
            }
        }
        // A processing unit finishes what it holds exactly once: one
        // pending `ProcDone` while an item is in flight, none while idle.
        let mut proc_done = vec![0usize; self.servers.len()];
        for &(_, ev) in pending {
            if let Ev::ProcDone { server } = ev {
                proc_done[server] += 1;
            }
        }
        for (ss, &done) in self.servers.iter().zip(&proc_done) {
            if done != usize::from(ss.current.is_some()) {
                return Err("server completion events disagree with its item in flight");
            }
        }
        Ok(())
    }

    /// Each egress unit's in-flight count (single consumer, which frees
    /// its slot at delivery) or busy lanes (per destination, at most one
    /// message each) match its `loads`, and every queued message is live,
    /// out of the fabric, on its own sender's egress in its destination's
    /// lane, and queued once. A single consumer's admission gate and
    /// pending kick lie within one message's cost of the clock.
    fn check_egress(&self, loads: &Loads) -> Result<(), &'static str> {
        let workers = self.workers.iter().map(|w| (Role::Worker, &w.egress));
        let servers = self.servers.iter().map(|s| (Role::Server, &s.egress));
        let (machines, now) = (self.cfg.machines, self.queue.now());
        let mut queued = Vec::new();
        for (machine, (role, unit)) in workers.enumerate().chain(servers.enumerate()) {
            let lane = |d: usize| loads.get(&(machine, role, d)).copied().unwrap_or_default();
            let accounted = match unit {
                EgressUnit::Single {
                    queue,
                    in_flight,
                    next_admit,
                    kick_at,
                    ..
                } => {
                    // The gate opens one message's cost after an admission.
                    let gate = now + self.cfg.msg_overhead;
                    if *next_admit > gate || kick_at.is_some_and(|t| t > gate) {
                        return Err("admission gate past one message's cost from the clock");
                    }
                    queued.extend(queue.sorted().into_iter().map(|(_, m)| (machine, role, m)));
                    let (fabric, ready) = (0..machines)
                        .map(lane)
                        .fold((0, 0), |(f, r), (lf, lr)| (f + lf, r + lr));
                    fabric == *in_flight && ready == 0
                }
                EgressUnit::PerDest { queues, busy } => {
                    for (d, lane) in queues.iter().enumerate() {
                        if lane.iter().any(|m| m.dst.0 != d) {
                            return Err("message in another destination's lane");
                        }
                        queued.extend(lane.iter().map(|&m| (machine, role, m)));
                    }
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
            let Some(ctx) = self.msgs.get(m.msg_id) else {
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
}

#[cfg(test)]
thread_local! {
    /// Whether this thread's runs check the state invariant after every
    /// event.
    pub(super) static EACH_EVENT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The processed-event count at which this thread's runs pause, as
    /// `run_until` pauses at a boundary: mid-iteration, and possibly
    /// mid-instant.
    pub(super) static PAUSE_AT: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// The test build's step after every event: checks the state invariant
/// when this thread asked for it ([`EACH_EVENT`]), and says whether the
/// run pauses here ([`PAUSE_AT`]).
#[cfg(test)]
pub(super) fn each_event(sim: &ClusterSim) -> Result<bool, RunError> {
    let pause = sim.events == PAUSE_AT.with(std::cell::Cell::get);
    if !EACH_EVENT.with(std::cell::Cell::get) {
        return Ok(pause);
    }
    let Err(SnapshotError::Corrupt(why)) = sim.check_state() else {
        return Ok(pause);
    };
    let why = format!("{why}, after event {}", sim.events);
    Err(RunError::Snapshot(SnapshotError::Corrupt(why)))
}

#[cfg(test)]
mod tests;
