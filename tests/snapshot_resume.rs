//! Snapshot/resume robustness: a run interrupted at an iteration
//! boundary and resumed from its snapshot must be bit-identical to the
//! uninterrupted run — same result, same rolling event hash, and a trace
//! that is an exact suffix of the full trace — across the parameter-server
//! and collective backends, with and without faults. The snapshot bytes
//! themselves are pinned by digest in `results/pins.txt`.
//! Malformed snapshot bytes must surface as structured [`SnapshotError`]s,
//! never panics.

mod common;

use common::pins::{check, snapshots};
use common::{base, baseline, baseline_crash_rejoin, crash_plan, degraded_racked, lossy};
use p3::audit::{check_resume_equivalence, check_with, AuditOptions};
use p3::cluster::{BackendKind, ClusterConfig, ClusterSim, SnapshotError};
use p3::trace::{FaultKind, TraceEvent};

/// Runs `mk()` uninterrupted; runs it again paused at the first iteration
/// boundary, snapshotted there, finished, and audited; then restores that
/// snapshot under a fresh config and finishes it too. Asserts
/// all three agree: pausing perturbs nothing (the paused run passes the
/// audit and is bit-identical to the plain one), the resumed run
/// reproduces the full result (rolling event hash included), and the
/// resumed trace is an exact suffix of the full trace.
fn assert_snapshot_resume_bit_identical(label: &str, mk: impl Fn() -> ClusterConfig) {
    let (full, full_log) = ClusterSim::new(mk())
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{label}: full run failed: {e}"));
    let full_log = full_log.expect("slice tracing was enabled");

    let mut paused = ClusterSim::new(mk());
    let iter = paused
        .run_until(1)
        .unwrap_or_else(|e| panic!("{label}: run to the first boundary failed: {e}"));
    assert!(iter >= 1, "{label}: paused below the first boundary");
    let bytes = paused.snapshot();
    let (finished, paused_log) = paused
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{label}: paused run failed: {e}"));
    let paused_log = paused_log.expect("slice tracing was enabled");
    let report = check_with(&paused_log, &AuditOptions::from_meta(&mk().trace_meta()));
    assert!(
        report.is_clean(),
        "{label}: paused run failed its audit:\n{report}"
    );
    assert_eq!(full, finished, "{label}: pausing perturbed the run");
    assert_eq!(
        full.event_hash, finished.event_hash,
        "{label}: pausing moved the rolling event hash"
    );

    let (resumed, resumed_log) = ClusterSim::restore(mk(), &bytes)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"))
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{label}: resumed run failed: {e}"));
    let resumed_log = resumed_log.expect("slice tracing was enabled");
    assert_eq!(
        full, resumed,
        "{label}: resumed run diverged from the uninterrupted run"
    );
    assert_eq!(
        full.event_hash, resumed.event_hash,
        "{label}: rolling event hash diverged"
    );
    let report = check_resume_equivalence(&full_log, &resumed_log);
    assert!(
        report.is_clean(),
        "{label}: resumed trace is not a suffix of the full trace:\n{report}"
    );
}

// ---------------------------------------------------------------------
// Resume equivalence per backend, clean and faulty.

#[test]
fn ps_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("ps", || base(BackendKind::Ps, 7));
}

#[test]
fn ring_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("ring", || base(BackendKind::Ring, 7));
}

#[test]
fn halving_doubling_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("halving-doubling", || {
        base(BackendKind::HalvingDoubling, 11)
    });
}

#[test]
fn baseline_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("baseline", || baseline(7));
}

#[test]
fn baseline_crash_rejoin_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("baseline-crash", baseline_crash_rejoin);
}

#[test]
fn ps_crash_rejoin_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("ps-crash", || {
        base(BackendKind::Ps, 7).with_faults(crash_plan(1, 40, 30))
    });
}

#[test]
fn ring_crash_rejoin_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("ring-crash", || {
        base(BackendKind::Ring, 7).with_faults(crash_plan(2, 40, 30))
    });
}

/// A crash after the snapshot boundary: the restored engine cancels the
/// crashed worker's in-network flows (and, under ring, the aborted
/// collective's), so the resumed run replays a cancellation driven by
/// the restored message table. Returns how many flows the crash cancelled
/// at its instant. The resumed run's event hash, which the cancellation
/// order moves, is pinned as a `resume/` row of `results/pins.txt`.
fn crash_after_the_snapshot(label: &str, cfg: impl Fn() -> ClusterConfig) -> usize {
    assert_snapshot_resume_bit_identical(label, &cfg);
    let mut sim = ClusterSim::new(cfg());
    sim.run_until(1).expect("run to the first boundary failed");
    let bytes = sim.snapshot();
    let (_, log) = ClusterSim::restore(cfg(), &bytes)
        .expect("restore failed")
        .try_run_traced()
        .expect("resumed run failed");
    let mut crashed_at = None;
    let mut cancelled = 0;
    for e in log.expect("slice tracing was enabled").events() {
        match e.event {
            TraceEvent::Fault {
                kind: FaultKind::Crash,
                ..
            } => crashed_at = Some(e.at),
            TraceEvent::Fault {
                kind: FaultKind::FlowCancelled,
                ..
            } if crashed_at == Some(e.at) => {
                cancelled += 1;
            }
            _ => {}
        }
    }
    assert!(
        crashed_at.is_some(),
        "{label}: the crash fell before the snapshot"
    );
    cancelled
}

#[test]
fn ps_crash_after_the_snapshot_cancels_in_flow_order() {
    let cancelled = crash_after_the_snapshot("ps-crash-late", || {
        base(BackendKind::Ps, 7).with_faults(crash_plan(1, 70, 30))
    });
    assert!(cancelled >= 3, "the crash cancelled {cancelled} flows");
}

#[test]
fn ring_crash_after_the_snapshot_aborts_in_flow_order() {
    let cancelled = crash_after_the_snapshot("ring-crash-late", || {
        base(BackendKind::Ring, 7).with_faults(crash_plan(2, 50, 30))
    });
    assert!(cancelled >= 3, "the crash cancelled {cancelled} flows");
}

#[test]
fn lossy_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("lossy", lossy);
}

#[test]
fn degraded_racked_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("degraded-racked", degraded_racked);
}

/// The snapshot format is the byte stream: the digest and length of each
/// configuration's snapshot at its first iteration boundary are the
/// `snapshot/` rows of `results/pins.txt`.
#[test]
fn snapshot_bytes_match_the_golden_digests() {
    check(snapshots());
}

// ---------------------------------------------------------------------
// Malformed snapshots are structured errors, never panics.

/// The configuration `mk()` builds and its snapshot at the first
/// iteration boundary.
fn fixture_of(mk: impl Fn() -> ClusterConfig) -> (ClusterConfig, Vec<u8>) {
    let mut sim = ClusterSim::new(mk());
    sim.run_until(1).expect("fixture run failed");
    (mk(), sim.snapshot())
}

fn snapshot_fixture() -> (ClusterConfig, Vec<u8>) {
    fixture_of(|| base(BackendKind::Ps, 7))
}

#[test]
fn valid_snapshot_restores_cleanly() {
    let (cfg, bytes) = snapshot_fixture();
    assert!(ClusterSim::restore(cfg, &bytes).is_ok());
}

#[test]
fn bad_magic_is_rejected() {
    let (cfg, mut bytes) = snapshot_fixture();
    bytes[0] ^= 0xff;
    assert_eq!(
        ClusterSim::restore(cfg, &bytes).map(|_| ()).unwrap_err(),
        SnapshotError::BadMagic
    );
}

#[test]
fn wrong_version_is_rejected_with_both_versions_named() {
    let (cfg, mut bytes) = snapshot_fixture();
    bytes[8] = 99; // low byte of the little-endian format version (v1)
    match ClusterSim::restore(cfg, &bytes).map(|_| ()).unwrap_err() {
        SnapshotError::UnsupportedVersion { found, expected } => {
            assert_eq!(found, 99);
            assert_eq!(expected, p3::cluster::SNAP_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncated_snapshot_is_rejected() {
    let (cfg, bytes) = snapshot_fixture();
    let cut = &bytes[..bytes.len() - 5];
    assert_eq!(
        ClusterSim::restore(cfg, cut).map(|_| ()).unwrap_err(),
        SnapshotError::Truncated
    );
}

#[test]
fn every_truncation_point_errors_instead_of_panicking() {
    // Sweep prefixes of the byte stream (strided to stay fast): every cut
    // must produce a structured error — truncation can never panic or,
    // worse, restore successfully.
    let (_, bytes) = snapshot_fixture();
    let mut cut = 0;
    while cut < bytes.len() {
        let err = ClusterSim::restore(base(BackendKind::Ps, 7), &bytes[..cut]).map(|_| ());
        assert!(err.is_err(), "truncation at {cut}/{} restored", bytes.len());
        cut += 97;
    }
}

#[test]
fn every_flipped_byte_errors_or_restores_instead_of_panicking() {
    // Invert each byte in turn: every offset must yield `Ok` (a payload
    // byte whose new value is still valid) or a structured error, never a
    // panic. A panic inside `restore` fails the test on the spot. The flat
    // fixture's fabric has no link accounting, bins or scaled ports; the
    // degraded racked one carries all three, and flow bottlenecks.
    for (cfg, mut bytes) in [snapshot_fixture(), fixture_of(degraded_racked)] {
        for i in 0..bytes.len() {
            bytes[i] ^= 0xff;
            let _ = ClusterSim::restore(cfg.clone(), &bytes);
            bytes[i] ^= 0xff;
        }
    }
}

#[test]
fn trailing_garbage_is_corrupt() {
    let (cfg, mut bytes) = snapshot_fixture();
    bytes.push(0);
    match ClusterSim::restore(cfg, &bytes).map(|_| ()).unwrap_err() {
        SnapshotError::Corrupt(why) => assert!(why.contains("trailing"), "{why}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn snapshot_from_a_different_config_is_a_mismatch() {
    let (_, bytes) = snapshot_fixture(); // taken under seed 7
    assert_eq!(
        ClusterSim::restore(base(BackendKind::Ps, 8), &bytes)
            .map(|_| ())
            .unwrap_err(),
        SnapshotError::ConfigMismatch
    );
}

#[test]
fn snapshot_from_a_different_backend_is_a_mismatch() {
    let (_, bytes) = snapshot_fixture(); // taken under the PS backend
    assert_eq!(
        ClusterSim::restore(base(BackendKind::Ring, 7), &bytes)
            .map(|_| ())
            .unwrap_err(),
        SnapshotError::ConfigMismatch
    );
}

// ---------------------------------------------------------------------
// Divergence bisection via the rolling state-hash stream.

#[test]
fn state_hash_stream_bisects_divergence_to_the_first_differing_event() {
    // Two configurations that agree until a fault fires: the clean run
    // and the same run with a mid-flight crash. Their per-event hash
    // streams must share a non-empty common prefix (the pre-fault events)
    // and then diverge — the first differing row IS the divergence point,
    // no re-running or manual diffing required.
    let hashes = |cfg: ClusterConfig| -> Vec<(u64, u64)> {
        let (_, log) = ClusterSim::new(cfg.with_state_hash_every(1))
            .try_run_traced()
            .expect("run failed");
        log.expect("tracing enabled")
            .events()
            .iter()
            .filter_map(|te| match te.event {
                TraceEvent::StateHash { events, hash } => Some((events, hash)),
                _ => None,
            })
            .collect()
    };
    let clean = hashes(base(BackendKind::Ps, 7));
    let crashed = hashes(base(BackendKind::Ps, 7).with_faults(crash_plan(1, 40, 30)));
    let first = clean
        .iter()
        .zip(&crashed)
        .position(|(a, b)| a != b)
        .expect("a crash must eventually diverge the event stream");
    assert!(
        first > 0,
        "runs share no common prefix — bisection degenerates"
    );
    assert_eq!(
        clean[..first],
        crashed[..first],
        "prefix before the divergence point must be identical"
    );
    // Both streams index hash rows by event count, so the row where they
    // split names the exact event to inspect.
    assert_eq!(clean[first].0, crashed[first].0);
}

#[test]
fn identical_configs_have_identical_hash_streams() {
    let run = || {
        let (r, _) = ClusterSim::new(base(BackendKind::Ring, 7))
            .try_run_traced()
            .expect("run failed");
        r.event_hash
    };
    assert_eq!(run(), run());
}
