//! Run-twice determinism: identical configurations must produce
//! bit-identical results AND byte-identical exported traces, across flat,
//! faulty, and topology-aware clusters.
//!
//! This is the behavioural counterpart of `clippy.toml`'s ban on unordered
//! collections: any HashMap iteration order leaking into scheduling
//! decisions shows up here as a digest mismatch.

use p3::cluster::{ClusterConfig, ClusterSim, FaultPlan};
use p3::core::SyncStrategy;
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;
use p3::topo::{Placement, Topology};
use p3::trace::export_trace_json;

/// A small skewed model so the suite stays fast in debug builds while
/// still exercising slicing, priorities and multi-block pipelines.
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

/// FNV-1a over the exported trace document: small to report, and any
/// event reorder, retime or refield changes it.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the config twice and asserts throughput bits, event counts and the
/// full exported trace agree.
fn assert_deterministic(label: &str, mk: impl Fn() -> ClusterConfig) {
    let digest = || {
        let cfg = mk().with_slice_trace();
        let meta = cfg.trace_meta();
        let (result, log) = ClusterSim::new(cfg)
            .try_run_traced()
            .unwrap_or_else(|e| panic!("{label}: run failed: {e}"));
        let log = log.expect("slice tracing was enabled");
        let doc = export_trace_json(&log, &meta);
        (
            result.throughput.to_bits(),
            result.events,
            log.len(),
            fnv(&doc),
        )
    };
    let a = digest();
    let b = digest();
    assert_eq!(
        a, b,
        "{label}: reruns diverged (throughput bits, sim events, trace events, trace digest)"
    );
}

#[test]
fn flat_cluster_is_run_twice_deterministic() {
    assert_deterministic("flat", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(7)
    });
}

#[test]
fn baseline_strategy_is_run_twice_deterministic() {
    assert_deterministic("baseline", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::baseline(),
            3,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(0, 2)
        .with_seed(21)
    });
}

#[test]
fn lossy_cluster_is_run_twice_deterministic() {
    assert_deterministic("lossy", || {
        let mut faults = FaultPlan::none();
        faults.loss_probability = 0.05;
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            3,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(13)
        .with_faults(faults)
    });
}

#[test]
fn topology_cluster_is_run_twice_deterministic() {
    assert_deterministic("topology", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(3)
        .with_topology(Topology::new(2, 2, 2.0))
    });
}

#[test]
fn rack_local_placement_is_run_twice_deterministic() {
    assert_deterministic("rack-local", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(5)
        .with_topology(Topology::new(2, 2, 2.0).with_placement(Placement::RackLocal))
    });
}

#[test]
fn ring_backend_is_run_twice_deterministic() {
    use p3::cluster::BackendKind;
    assert_deterministic("ring", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(7)
        .with_backend(BackendKind::Ring)
    });
}

#[test]
fn halving_doubling_backend_is_run_twice_deterministic() {
    use p3::cluster::BackendKind;
    assert_deterministic("halving-doubling", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(11)
        .with_backend(BackendKind::HalvingDoubling)
    });
}

/// A mid-run crash with a later rejoin, exercising the fault machinery
/// (and, under collective backends, abort-and-reform of the in-flight
/// collective) inside the run-twice digest net.
fn crash_rejoin_plan() -> FaultPlan {
    use p3::cluster::WorkerCrash;
    use p3::des::{SimDuration, SimTime};
    FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(40),
            rejoin_after: Some(SimDuration::from_millis(30)),
        }],
        ..FaultPlan::none()
    }
}

#[test]
fn ps_crash_rejoin_is_run_twice_deterministic() {
    assert_deterministic("ps-crash", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(7)
        .with_faults(crash_rejoin_plan())
    });
}

#[test]
fn ring_crash_rejoin_is_run_twice_deterministic() {
    use p3::cluster::BackendKind;
    assert_deterministic("ring-crash", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(7)
        .with_backend(BackendKind::Ring)
        .with_faults(crash_rejoin_plan())
    });
}

#[test]
fn halving_doubling_crash_rejoin_is_run_twice_deterministic() {
    use p3::cluster::BackendKind;
    assert_deterministic("halving-doubling-crash", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(11)
        .with_backend(BackendKind::HalvingDoubling)
        .with_faults(crash_rejoin_plan())
    });
}

#[test]
fn ring_backend_on_topology_is_run_twice_deterministic() {
    use p3::cluster::BackendKind;
    assert_deterministic("ring-topology", || {
        ClusterConfig::new(
            tiny_model(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(5.0),
        )
        .with_iters(1, 2)
        .with_seed(19)
        .with_backend(BackendKind::Ring)
        .with_topology(Topology::new(2, 2, 2.0))
    });
}
