//! The tiny-model configurations that `tests/snapshot_resume.rs` resumes
//! and `tests/pins.rs` pins, defined once so the two cannot drift apart,
//! and the measured side of `results/pins.txt` in [`pins`]. Each test
//! binary that includes this module uses only part of it.
#![allow(dead_code)]

pub mod pins;

use p3::cluster::{BackendKind, ClusterConfig, FaultPlan, LinkDegradation, WorkerCrash};
use p3::core::SyncStrategy;
use p3::des::{SimDuration, SimTime};
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;
use p3::topo::Topology;

/// Same small skewed model as `tests/determinism.rs`: fast in debug
/// builds, still exercises slicing, priorities, and multi-block overlap.
pub fn tiny_model() -> ModelSpec {
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

/// P3 on four machines at 5 Gbps, one warm-up and two measured
/// iterations, slice-traced.
pub fn base(backend: BackendKind, seed: u64) -> ClusterConfig {
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

/// Worker `worker` crashes at `at_ms` and rejoins `rejoin_ms` later.
pub fn crash_plan(worker: usize, at_ms: u64, rejoin_ms: u64) -> FaultPlan {
    FaultPlan {
        crashes: vec![WorkerCrash {
            worker,
            at: SimTime::from_millis(at_ms),
            rejoin_after: Some(SimDuration::from_millis(rejoin_ms)),
        }],
        ..FaultPlan::none()
    }
}

/// The baseline strategy: per-destination lanes, whose sends release
/// their lane through a pending `EgressReady` rather than at delivery.
pub fn baseline(seed: u64) -> ClusterConfig {
    ClusterConfig {
        strategy: SyncStrategy::baseline(),
        ..base(BackendKind::Ps, seed)
    }
}

/// Baseline with a crash and rejoin of worker 1 just after it finished
/// its first iteration, under a 2 ms per-message cost: the snapshot at
/// the first boundary carries `EgressReady` lane releases of the crashed
/// worker's dead incarnation, which a restore must keep and then ignore.
pub fn baseline_crash_rejoin() -> ClusterConfig {
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
pub fn lossy() -> ClusterConfig {
    let faults = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    base(BackendKind::Ps, 13).with_faults(faults)
}

/// A racked fabric with utilization bins and a port degradation that
/// spans the first iteration boundary (about 45 ms): the snapshot carries
/// non-empty link accounting, tx/rx bins, and scaled port capacities.
pub fn degraded_racked() -> ClusterConfig {
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
        .with_nic_trace()
        .with_faults(faults)
}
