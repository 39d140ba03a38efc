//! Configurations the engine's unit tests share: a tiny model on four
//! machines, clean and under the faults a snapshot must carry, and the
//! matrix of them; and how a test asks why a restore refuses an engine
//! it corrupted.

use super::ClusterSim;
use crate::config::{BackendKind, ClusterConfig};
use crate::faults::{FaultPlan, LinkDegradation, WorkerCrash};
use p3_core::SyncStrategy;
use p3_des::snap::SnapshotError;
use p3_des::{SimDuration, SimTime};
use p3_models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3_net::Bandwidth;
use p3_topo::Topology;

/// A three-block model small enough to resume thousands of times.
fn tiny_model() -> ModelSpec {
    let block = |name, kind, flops, arrays| ComputeBlock::new(name, kind, flops, arrays);
    let blocks = vec![
        block(
            "conv1",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv1.weight", 40_000)],
        ),
        block(
            "conv2",
            BlockKind::Conv,
            40_000_000,
            vec![ParamArray::new("conv2.weight", 120_000)],
        ),
        block(
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

/// P3 on four machines of the tiny model, as `tests/snapshot_resume.rs`'s
/// `base`.
pub(super) fn base(backend: BackendKind, seed: u64) -> ClusterConfig {
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

/// The baseline strategy (per-destination lanes) on the same cluster.
pub(super) fn baseline() -> ClusterConfig {
    ClusterConfig {
        strategy: SyncStrategy::baseline(),
        ..base(BackendKind::Ps, 7)
    }
}

/// Worker `worker` crashes at `at_ms` and rejoins `rejoin_ms` later.
pub(super) fn crash_plan(worker: usize, at_ms: u64, rejoin_ms: u64) -> FaultPlan {
    FaultPlan {
        crashes: vec![WorkerCrash {
            worker,
            at: SimTime::from_millis(at_ms),
            rejoin_after: Some(SimDuration::from_millis(rejoin_ms)),
        }],
        ..FaultPlan::none()
    }
}

/// P3 on a 2x2 racked fabric with machine 1's port at half capacity
/// across the first iteration boundary, as `tests/snapshot_resume.rs`'s
/// `degraded_racked`.
pub(super) fn degraded_racked() -> ClusterConfig {
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

/// The engine's determinism and fault matrix: PS P3, the baseline, loss,
/// PS, ring and baseline crash/rejoin, halving-doubling and the degraded
/// racked fabric.
pub(super) fn matrix() -> Vec<(&'static str, ClusterConfig)> {
    let lossy = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    let ps = base(BackendKind::Ps, 7);
    let baseline_crash = ClusterConfig {
        msg_overhead: SimDuration::from_millis(2),
        ..baseline().with_faults(crash_plan(1, 41, 30))
    };
    vec![
        ("ps", ps.clone()),
        ("baseline", baseline()),
        ("lossy", base(BackendKind::Ps, 13).with_faults(lossy)),
        ("ps-crash", ps.with_faults(crash_plan(1, 40, 30))),
        (
            "ring-crash",
            base(BackendKind::Ring, 7).with_faults(crash_plan(2, 40, 30)),
        ),
        ("baseline-crash", baseline_crash),
        ("halving-doubling", base(BackendKind::HalvingDoubling, 11)),
        ("degraded-racked", degraded_racked()),
    ]
}

/// Pauses `cfg` at its first iteration boundary, lets `corrupt` change
/// the live engine, and says why a restore of its snapshot is refused
/// as corrupt, if it is.
pub(super) fn corrupted_refusal(
    cfg: fn() -> ClusterConfig,
    corrupt: impl FnOnce(&mut ClusterSim),
) -> Option<String> {
    let mut sim = ClusterSim::new(cfg());
    sim.run_until(1).ok()?;
    corrupt(&mut sim);
    match ClusterSim::restore(cfg(), &sim.snapshot()) {
        Err(SnapshotError::Corrupt(why)) => Some(why),
        _ => None,
    }
}
