//! Snapshot/resume robustness: a run interrupted at an iteration
//! boundary and resumed from its snapshot must be bit-identical to the
//! uninterrupted run — same result, same rolling event hash, and a trace
//! that is an exact suffix of the full trace — across the parameter-server
//! and collective backends, with and without faults. The snapshot bytes
//! themselves are pinned by digest. Malformed snapshot bytes must surface
//! as structured [`SnapshotError`]s, never panics.

use p3::audit::check_resume_equivalence;
use p3::cluster::{
    BackendKind, ClusterConfig, ClusterSim, FaultPlan, LinkDegradation, SnapshotError, WorkerCrash,
};
use p3::core::SyncStrategy;
use p3::des::{SimDuration, SimTime};
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;
use p3::topo::Topology;
use p3::trace::{FaultKind, TraceEvent};

/// Same small skewed model as `tests/determinism.rs`: fast in debug
/// builds, still exercises slicing, priorities, and multi-block overlap.
fn tiny_model() -> ModelSpec {
    let blocks = vec![
        ComputeBlock::new(
            "conv1",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv1.weight", 40_000)],
        ),
        ComputeBlock::new(
            "conv2",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv2.weight", 120_000)],
        ),
        ComputeBlock::new(
            "head",
            BlockKind::Dense,
            10_000_000,
            vec![
                ParamArray::new("head.weight", 900_000),
                ParamArray::new("head.bias", 3_000),
            ],
        ),
    ];
    ModelSpec::from_blocks("TinyDet", SampleUnit::Images, blocks, 800.0, 32, 0.0)
}

fn base(backend: BackendKind, seed: u64) -> ClusterConfig {
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(seed)
    .with_backend(backend)
    .with_slice_trace()
}

fn crash_plan(worker: usize, at_ms: u64, rejoin_ms: u64) -> FaultPlan {
    FaultPlan {
        crashes: vec![WorkerCrash {
            worker,
            at: SimTime::from_millis(at_ms),
            rejoin_after: Some(SimDuration::from_millis(rejoin_ms)),
        }],
        ..FaultPlan::none()
    }
}

/// Runs `mk()` uninterrupted; runs it again paused at the first iteration
/// boundary, snapshotted there, and finished under the inline audit; then
/// restores that snapshot under a fresh config and finishes it too. Asserts
/// all three agree: pausing perturbs nothing (the paused run passes the
/// audit and is bit-identical to the plain one), the resumed run
/// reproduces the full result (rolling event hash included), and the
/// resumed trace is an exact suffix of the full trace.
fn assert_snapshot_resume_bit_identical(label: &str, mk: impl Fn() -> ClusterConfig) {
    let (full, full_log) = ClusterSim::new(mk())
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{label}: full run failed: {e}"));
    let full_log = full_log.expect("slice tracing was enabled");

    let audited = || mk().with_audit();
    let mut paused = ClusterSim::new(audited());
    let iter = paused
        .run_until(1)
        .unwrap_or_else(|e| panic!("{label}: run to the first boundary failed: {e}"));
    assert!(iter >= 1, "{label}: paused below the first boundary");
    let bytes = paused.snapshot();
    let (finished, _) = paused
        .try_run_traced()
        .unwrap_or_else(|e| panic!("{label}: paused run failed or failed its audit: {e}"));
    assert_eq!(full, finished, "{label}: pausing perturbed the run");
    assert_eq!(
        full.event_hash, finished.event_hash,
        "{label}: pausing moved the rolling event hash"
    );

    let (resumed, resumed_log) = ClusterSim::restore(audited(), &bytes)
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

/// The baseline strategy: per-destination lanes, whose sends release
/// their lane through a pending `EgressReady` rather than at delivery.
fn baseline(seed: u64) -> ClusterConfig {
    ClusterConfig {
        strategy: SyncStrategy::baseline(),
        ..base(BackendKind::Ps, seed)
    }
}

/// Baseline with a crash and rejoin of worker 1 just after it finished
/// its first iteration, under a 2 ms per-message cost: the snapshot at
/// the first boundary carries `EgressReady` lane releases of the crashed
/// worker's dead incarnation, which a restore must keep and then ignore.
fn baseline_crash_rejoin() -> ClusterConfig {
    let faults = FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_micros(41_500),
            rejoin_after: Some(SimDuration::from_millis(30)),
        }],
        ..FaultPlan::none()
    };
    ClusterConfig {
        msg_overhead: SimDuration::from_millis(2),
        ..baseline(7).with_faults(faults)
    }
}

/// Message loss: armed retry timers and in-flight message contexts at
/// the snapshot boundary.
fn lossy() -> ClusterConfig {
    let faults = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    base(BackendKind::Ps, 13).with_faults(faults)
}

/// A racked fabric with utilization bins and a port degradation that
/// spans the first iteration boundary (about 45 ms): the snapshot carries
/// non-empty link accounting, tx/rx bins, and scaled port capacities.
fn degraded_racked() -> ClusterConfig {
    let faults = FaultPlan {
        link_degradations: vec![LinkDegradation {
            machine: 1,
            start: SimTime::from_millis(20),
            duration: SimDuration::from_millis(80),
            capacity_factor: 0.5,
        }],
        ..FaultPlan::none()
    };
    base(BackendKind::Ps, 3)
        .with_topology(Topology::new(2, 2, 2.0))
        .with_trace(SimDuration::from_millis(10))
        .with_faults(faults)
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
/// at its instant, and the event hash.
fn crash_after_the_snapshot(label: &str, cfg: impl Fn() -> ClusterConfig) -> (usize, u64) {
    assert_snapshot_resume_bit_identical(label, &cfg);
    let mut sim = ClusterSim::new(cfg());
    sim.run_until(1).expect("run to the first boundary failed");
    let bytes = sim.snapshot();
    let (r, log) = ClusterSim::restore(cfg(), &bytes)
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
    (cancelled, r.event_hash)
}

#[test]
fn ps_crash_after_the_snapshot_cancels_in_flow_order() {
    let (cancelled, hash) = crash_after_the_snapshot("ps-crash-late", || {
        base(BackendKind::Ps, 7).with_faults(crash_plan(1, 70, 30))
    });
    assert!(cancelled >= 3, "the crash cancelled {cancelled} flows");
    assert_eq!(
        hash, 0x5d4c_7bad_2888_cee9,
        "cancellation order moved the run"
    );
}

#[test]
fn ring_crash_after_the_snapshot_aborts_in_flow_order() {
    let (cancelled, hash) = crash_after_the_snapshot("ring-crash-late", || {
        base(BackendKind::Ring, 7).with_faults(crash_plan(2, 50, 30))
    });
    assert!(cancelled >= 3, "the crash cancelled {cancelled} flows");
    assert_eq!(
        hash, 0xe282_dc0d_2b15_5237,
        "cancellation order moved the run"
    );
}

#[test]
fn lossy_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("lossy", lossy);
}

#[test]
fn degraded_racked_snapshot_resume_is_bit_identical() {
    assert_snapshot_resume_bit_identical("degraded-racked", degraded_racked);
}

// ---------------------------------------------------------------------
// Snapshot bytes pinned: the format is the byte stream, so any change to
// field order, width, or content moves one of these digests.

/// FNV-1a over a byte stream (independent of the crate's own copy).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest and length of the snapshot taken at the first iteration
/// boundary of `cfg`.
fn snapshot_digest(cfg: ClusterConfig) -> (u64, usize) {
    let mut sim = ClusterSim::new(cfg);
    sim.run_until(1).expect("run to the first boundary failed");
    let bytes = sim.snapshot();
    (fnv1a(&bytes), bytes.len())
}

#[test]
fn snapshot_bytes_match_the_golden_digests() {
    let cases: [(&str, ClusterConfig, u64, usize); 9] = [
        ("ps", base(BackendKind::Ps, 7), 0x9ffb_2136_76d4_c64f, 9905),
        (
            "ring",
            base(BackendKind::Ring, 7),
            0x6144_a3ed_7185_96da,
            7295,
        ),
        (
            "halving-doubling",
            base(BackendKind::HalvingDoubling, 11),
            0x2932_ee6a_bbfa_fc7b,
            7591,
        ),
        (
            "ps-crash",
            base(BackendKind::Ps, 7).with_faults(crash_plan(1, 40, 30)),
            0xff6b_dcf0_ac61_a4f4,
            8085,
        ),
        (
            "ring-crash",
            base(BackendKind::Ring, 7).with_faults(crash_plan(2, 40, 30)),
            0x27e9_b5eb_0a55_b4aa,
            11295,
        ),
        ("lossy", lossy(), 0x7880_df55_360e_784a, 12267),
        (
            "degraded-racked",
            degraded_racked(),
            0x300a_f3eb_44f1_be0e,
            10467,
        ),
        ("baseline", baseline(7), 0x6b90_f0e6_a158_1bc9, 3040),
        (
            "baseline-crash",
            baseline_crash_rejoin(),
            0x2785_68bf_659a_8e16,
            3996,
        ),
    ];
    for (label, cfg, digest, len) in cases {
        assert_eq!(
            snapshot_digest(cfg),
            (digest, len),
            "{label}: snapshot bytes moved"
        );
    }
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
