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
//! [`restore`] is the inverse. It never panics on malformed input: every
//! length, index, and cross-reference that the engine would later trust
//! (and index with) is validated, and violations surface as
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

mod invariants;
mod walk;

use super::types::Ev;
use super::ClusterSim;
use crate::config::ClusterConfig;
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
    sim.config_error = None;
    Ok(sim)
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
mod tests;
