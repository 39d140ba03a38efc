//! Whole-engine snapshot, restore, and the per-event rolling hash.
//!
//! [`snapshot`] serializes every piece of *dynamic* engine state — the
//! clock, pending events, endpoint queues, in-flight messages and network
//! flows, RNG streams, counters — through the versioned [`p3_des::snap`]
//! codec. Static state (the shard plan, priorities, block timings, link
//! graph) is deliberately excluded: it is a pure function of the
//! [`ClusterConfig`] and is rebuilt by [`ClusterSim::new`] on restore. A
//! fingerprint of the configuration's `Debug` form travels in the header
//! so a snapshot cannot be restored under a different configuration.
//!
//! [`restore`] is the inverse. The stream holds each fact once, so
//! restore first derives what it leaves out (the walk fills each queued
//! entry from its message and each message's priority from its key,
//! [`derive`] the rest), then checks the whole state once with
//! [`ClusterSim::check_state`]. It never panics on malformed input: the
//! walk checks every length and index the engine would later index with,
//! `check_state` every cross-reference, and violations surface as
//! [`SnapshotError::Corrupt`].
//!
//! [`fold_event`] is the cheap rolling digest: an allocation-free FNV-1a
//! fold over each `(time, event)` pair the run loop processes. Equal
//! configurations produce equal fold sequences, so two runs that diverge
//! do so at the exact event where their hashes first differ.
//!
//! All three run the one field walk in [`walk`], with a different
//! [`Coder`](p3_des::snap::Coder) each.
//!
//! [`ClusterSim::new`]: super::ClusterSim::new
//! [`ClusterConfig`]: crate::config::ClusterConfig

mod walk;

use super::types::{Ev, Role};
use super::ClusterSim;
use crate::config::ClusterConfig;
use crate::egress::EgressUnit;
use p3_des::snap::{fnv64, fnv64_fold, FnvFold, SnapReader, SnapWriter, SnapshotError};
use p3_des::SimTime;
use walk::Bounds;

/// Digest of the configuration a snapshot belongs to. The `Debug` form
/// covers every field (the struct derives it exhaustively), so any
/// configuration change — model, strategy, faults, seed — changes the
/// fingerprint and [`restore`] refuses the stale snapshot.
fn config_fingerprint(cfg: &ClusterConfig) -> u64 {
    fnv64(format!("{cfg:?}").as_bytes())
}

/// Serializes the complete dynamic state of a simulation.
pub(super) fn snapshot(sim: &mut ClusterSim) -> Vec<u8> {
    let mut w = SnapWriter::new(config_fingerprint(&sim.cfg));
    let written = walk::walk(sim, &mut w);
    debug_assert!(written.is_ok(), "only a reader fails");
    w.finish()
}

/// Rebuilds a mid-run simulation from snapshot bytes. Never panics on
/// malformed input: structural violations return [`SnapshotError`].
pub(super) fn restore(cfg: ClusterConfig, bytes: &[u8]) -> Result<ClusterSim, SnapshotError> {
    let expected = config_fingerprint(&cfg);
    let (mut r, found) = SnapReader::new(bytes)?;
    if found != expected {
        return Err(SnapshotError::ConfigMismatch);
    }
    let mut sim = ClusterSim::new(cfg);
    if sim.config_error.is_some() {
        // The fingerprint matched a configuration the engine itself
        // rejects — the original run could never have snapshotted it.
        return Err(SnapshotError::ConfigMismatch);
    }
    walk::walk(&mut sim, &mut r)?;
    r.expect_end()?;
    derive(&mut sim);
    sim.check_state()?;
    Ok(sim)
}

/// Sets the facts a snapshot leaves out because other state fixes them.
/// Each message in the fabric is the message its transfer's tag names. A
/// single consumer's in-flight count is its messages in the fabric, and a
/// lane is busy while it has one there or a pending release of the live
/// incarnation. A round expects a push from every live member.
/// [`ClusterSim::check_state`] then refuses whatever these contradict.
fn derive(sim: &mut ClusterSim) {
    for (flow, tag, _) in sim.net.flow_ids() {
        if let Some(ctx) = sim.msgs.get_mut(tag) {
            ctx.flow = Some(flow);
        }
    }
    let live = sim.dead_members.iter().filter(|&&dead| !dead).count();
    sim.expected_pushes = live as u32;
    let loads = sim.lane_loads(&sim.queue.pending_sorted());
    for m in 0..sim.cfg.machines {
        for role in [Role::Worker, Role::Server] {
            match sim.egress_mut(m, role) {
                EgressUnit::Single { in_flight, .. } => {
                    let lanes = loads.range((m, role, 0)..=(m, role, usize::MAX));
                    *in_flight = lanes.map(|(_, &(fabric, _))| fabric).sum();
                }
                EgressUnit::PerDest { busy, .. } => {
                    for (d, busy) in busy.iter_mut().enumerate() {
                        *busy = loads.contains_key(&(m, role, d));
                    }
                }
            }
        }
    }
}

/// Folds one processed `(time, event)` pair into the rolling run digest:
/// the time, then the event exactly as a snapshot lays it out, one `u64`
/// word per field. Allocation-free: called once per event in the hot loop.
pub(super) fn fold_event(h: u64, t: SimTime, ev: &Ev) -> u64 {
    let mut fold = FnvFold(fnv64_fold(h, t.as_nanos()));
    let folded = walk::ev(&mut fold, &mut { *ev }, &Bounds::UNCHECKED);
    debug_assert!(folded.is_ok(), "only a reader fails");
    fold.0
}

#[cfg(test)]
#[allow(
    clippy::unreachable,
    reason = "tests destructure the variants they build"
)]
pub(super) mod tests;
