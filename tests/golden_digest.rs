//! Golden-digest pins for the exported trace, and for the fabric's
//! deterministic work counters over whole runs.
//!
//! The engine decomposition (DESIGN.md §11) promised that splitting
//! `ClusterSim` into layers would be behaviour-preserving: the PS path
//! must produce **bit-identical traces** to the pre-refactor monolith.
//! This test pins that promise to a constant captured from the
//! pre-refactor build. If it ever fails, the engine changed observable
//! scheduling behaviour — either revert, or (for an intentional protocol
//! change) regenerate the constant and call the change out in the PR.

use p3::cluster::{ascii_timeline, BackendKind, ClusterConfig, ClusterSim, FaultPlan, WorkerCrash};
use p3::core::SyncStrategy;
use p3::des::{SimDuration, SimTime};
use p3::models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3::net::Bandwidth;
use p3::topo::{Placement, Topology};
use p3::trace::{export_trace_json, FaultKind, MetricsRegistry, MsgClass, TimedEvent, TraceEvent};

/// Digest of the exported trace for [`golden_config`], captured from the
/// pre-refactor monolithic `sim.rs` (commit 6ef229d lineage), re-pinned
/// when the export metadata gained the `collective` field (the event
/// stream, throughput bits, and event count are unchanged from the
/// original capture — only the embedded `p3Meta` header grew).
const GOLDEN_TRACE_FNV: u64 = 0x425b_a9d2_bb57_3d7a;
/// Throughput bits for the same run.
const GOLDEN_THROUGHPUT_BITS: u64 = 0x40a3_86b6_3905_ca76;
/// Simulator events processed for the same run.
const GOLDEN_EVENTS: u64 = 1639;

/// Same skewed three-block model as `tests/determinism.rs`: fast to run
/// in debug builds, still exercises slicing, priorities, and stalls.
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

fn golden_config() -> ClusterConfig {
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(7)
    .with_slice_trace()
}

fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn ps_trace_digest_matches_pre_refactor_golden() {
    let cfg = golden_config();
    let meta = cfg.trace_meta();
    let (result, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("golden config must run clean");
    let log = log.expect("slice tracing was enabled");
    let doc = export_trace_json(&log, &meta);
    let digest = fnv(&doc);
    assert_eq!(
        (digest, result.throughput.to_bits(), result.events),
        (GOLDEN_TRACE_FNV, GOLDEN_THROUGHPUT_BITS, GOLDEN_EVENTS),
        "PS-path trace diverged from the pre-refactor golden digest \
         (got fnv={digest:#018x} throughput_bits={:#018x} events={})",
        result.throughput.to_bits(),
        result.events,
    );
}

/// Digest of `MetricsRegistry::from_trace(..).to_json()` for
/// [`golden_config`]'s trace: pins the stage-latency, gauge and counter
/// derivation byte for byte.
const GOLDEN_METRICS_FNV: u64 = 0xe824_d93e_09ab_1f3d;
/// Digest of the first iteration of [`golden_config`]'s trace rendered by
/// `ascii_timeline` at 72 columns: pins the timeline's span pairing and
/// iteration cutoff.
const GOLDEN_TIMELINE_FNV: u64 = 0xe88f_8a50_02c4_54d2;

#[test]
fn metrics_and_timeline_digests_match_golden() {
    let (_, log) = ClusterSim::new(golden_config())
        .try_run_traced()
        .expect("golden config must run clean");
    let log = log.expect("slice tracing was enabled");
    let metrics = fnv(&MetricsRegistry::from_trace(&log).to_json());
    let timeline = fnv(&ascii_timeline(&log, 4, 1, 72));
    assert_eq!(
        (metrics, timeline),
        (GOLDEN_METRICS_FNV, GOLDEN_TIMELINE_FNV),
        "trace consumers moved (got metrics fnv={metrics:#018x} timeline fnv={timeline:#018x})",
    );
}

/// Digest and length of the exported trace for [`ring_fault_config`].
/// Pins the export bytes themselves (row layout, number formatting,
/// `null` fields) on a log with `Fault`, `WireEnd { bottleneck: None }`
/// and `StateHash` rows, so a rewrite of the exporter cannot move a byte.
const GOLDEN_RING_FAULT_FNV: u64 = 0xb181_968e_b89a_3e8e;
/// Byte length of the same export.
const GOLDEN_RING_FAULT_LEN: usize = 1_199_506;

/// A ring all-reduce run on a lossy flat fabric with a mid-run crash and
/// rejoin, hashing its state every 200 events.
fn ring_fault_config() -> ClusterConfig {
    let faults = FaultPlan {
        loss_probability: 0.02,
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(40),
            rejoin_after: Some(SimDuration::from_millis(30)),
        }],
        ..FaultPlan::none()
    };
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(9)
    .with_backend(BackendKind::Ring)
    .with_faults(faults)
    .with_state_hash_every(200)
}

#[test]
fn ring_fault_trace_export_bytes_match_golden() {
    let cfg = ring_fault_config();
    let meta = cfg.trace_meta();
    let (_, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("ring fault config must run clean");
    let log = log.expect("slice tracing was enabled");
    let has = |f: fn(&TraceEvent) -> bool| log.events().iter().any(|e| f(&e.event));
    assert!(has(|e| matches!(e, TraceEvent::Fault { .. })));
    assert!(has(|e| matches!(
        e,
        TraceEvent::WireEnd {
            bottleneck: None,
            ..
        }
    )));
    assert!(has(|e| matches!(e, TraceEvent::StateHash { .. })));
    let doc = export_trace_json(&log, &meta);
    assert_eq!(
        (fnv(&doc), doc.len()),
        (GOLDEN_RING_FAULT_FNV, GOLDEN_RING_FAULT_LEN),
        "ring fault trace export bytes moved (got fnv={:#018x} len={})",
        fnv(&doc),
        doc.len(),
    );
}

/// Digest and length of the exported trace for [`racked_config`]. Pins
/// what the flat fabrics above never write: Chrome `args.bottleneck` and
/// `WireEnd` rows with `Some` bottleneck link, on timestamps past 1 s.
const GOLDEN_RACKED_FNV: u64 = 0x9d50_e163_4690_12ee;
/// Byte length of the same export.
const GOLDEN_RACKED_LEN: usize = 975_222;

/// P3 on 2 racks of 2 machines behind a 4:1 oversubscribed core, run long
/// enough that simulated time passes 1 s.
fn racked_config() -> ClusterConfig {
    ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 9)
    .with_seed(11)
    .with_topology(Topology::new(2, 2, 4.0))
    .with_slice_trace()
}

#[test]
fn racked_trace_export_bytes_match_golden() {
    let cfg = racked_config();
    let meta = cfg.trace_meta();
    let (_, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("racked config must run clean");
    let log = log.expect("slice tracing was enabled");
    assert!(log.events().iter().any(|e| matches!(
        e.event,
        TraceEvent::WireEnd {
            bottleneck: Some(_),
            ..
        }
    )));
    let last = log.events().last().expect("a traced run records events");
    assert!(last.at > SimTime::from_secs(1), "ends at {:?}", last.at);
    let doc = export_trace_json(&log, &meta);
    assert_eq!(
        (fnv(&doc), doc.len()),
        (GOLDEN_RACKED_FNV, GOLDEN_RACKED_LEN),
        "racked trace export bytes moved (got fnv={:#018x} len={})",
        fnv(&doc),
        doc.len(),
    );
}

/// The fabric's work counters over a whole run, in `NetStats` field
/// order: reallocations, flows touched, water-fill rounds, links touched,
/// peak in-flight flows.
fn net_stats(cfg: ClusterConfig) -> [u64; 5] {
    let r = ClusterSim::new(cfg).with_profiling().run();
    let p = r.profile.expect("profiling was enabled");
    [
        "net/reallocations",
        "net/flows_touched",
        "net/waterfill_rounds",
        "net/ports_touched",
        "net/peak_in_flight",
    ]
    .map(|key| p.counter(key).unwrap_or_else(|| panic!("no counter {key}")))
}

/// [`net_stats`] of a Figure 7-shaped run: VGG-19 under P3 on 4 machines
/// at 8 Gbps, one warm-up and one measured iteration, seed 42.
const GOLDEN_FIG7_NET_STATS: [u64; 5] = [49_070, 1_518_023, 283_662, 1_396_079, 32];
/// [`net_stats`] of [`racked_config`].
const GOLDEN_RACKED_NET_STATS: [u64; 5] = [2_489, 48_837, 8_943, 59_344, 32];

#[test]
fn fabric_work_counts_match_golden() {
    let fig7 = ClusterConfig::new(
        ModelSpec::vgg19(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(8.0),
    )
    .with_iters(1, 1)
    .with_seed(42);
    assert_eq!(
        [net_stats(fig7), net_stats(racked_config())],
        [GOLDEN_FIG7_NET_STATS, GOLDEN_RACKED_NET_STATS],
        "fabric work counts moved",
    );
}

/// Event hash and export digest of a traced run, after checking that the
/// run reached the send sites it pins.
fn send_site_pin(cfg: ClusterConfig, reached: fn(&[TimedEvent]) -> bool) -> (u64, u64) {
    let meta = cfg.trace_meta();
    let (result, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("send-site config must run clean");
    let log = log.expect("slice tracing was enabled");
    assert!(
        reached(log.events()),
        "the run never reached its send sites"
    );
    (result.event_hash, fnv(&export_trace_json(&log, &meta)))
}

/// A traced tiny-model run at 5 Gbps, 1+2 iterations.
fn send_site_config(strategy: SyncStrategy, machines: usize) -> ClusterConfig {
    ClusterConfig::new(tiny_model(), strategy, machines, Bandwidth::from_gbps(5.0))
        .with_iters(1, 2)
        .with_seed(13)
        .with_slice_trace()
}

/// True if some endpoint queued a message of `class`.
fn enqueued(rows: &[TimedEvent], class: MsgClass) -> bool {
    rows.iter()
        .any(|r| matches!(r.event, TraceEvent::EgressEnqueue { class: c, .. } if c == class))
}

fn assert_pin(pin: (u64, u64), golden: (u64, u64)) {
    assert_eq!(pin, golden, "got ({:#018x}, {:#018x})", pin.0, pin.1);
}

/// Baseline: the server's `Notify` fan-out and the eager `PullReq` it
/// triggers.
#[test]
fn baseline_notify_and_eager_pull_match_golden() {
    let cfg = send_site_config(SyncStrategy::baseline(), 4);
    let pin = send_site_pin(cfg, |rows| {
        enqueued(rows, MsgClass::Notify) && enqueued(rows, MsgClass::PullRequest)
    });
    assert_pin(pin, (0x7e25_de0c_62c9_1336, 0x9d1f_e092_8d52_6ae5));
}

/// TensorFlow-style: every pull leaves at the next iteration's start, and
/// a pull for an unfinished round waits in the server's `pending_pulls`
/// until the round completes and answers it.
#[test]
fn tf_deferred_pulls_match_golden() {
    let cfg = send_site_config(SyncStrategy::tf_style(), 4);
    let pin = send_site_pin(cfg, |rows| {
        enqueued(rows, MsgClass::PullRequest)
            && rows.windows(2).any(|w| match (&w[0].event, &w[1].event) {
                (
                    TraceEvent::RoundComplete { key, version, .. },
                    TraceEvent::EgressEnqueue {
                        class: MsgClass::Response,
                        key: k,
                        round,
                        ..
                    },
                ) => key == k && version == round,
                _ => false,
            })
    });
    assert_pin(pin, (0x6bb2_a8c6_d567_c97e, 0x01e3_8c70_3229_5328));
}

/// P3 slices and priorities on the notify-then-pull response path.
#[test]
fn p3_notify_pull_matches_golden() {
    let cfg = send_site_config(SyncStrategy::p3_notify_pull(), 4);
    let pin = send_site_pin(cfg, |rows| {
        enqueued(rows, MsgClass::Notify) && enqueued(rows, MsgClass::PullRequest)
    });
    assert_pin(pin, (0x1566_bf55_6a86_9527, 0x9752_f40a_2152_9a50));
}

/// Rack-local placement on 2 racks of 2: members push to their rack's
/// aggregator, which forwards one combined push across the core.
#[test]
fn rack_local_pushes_match_golden() {
    let cfg = send_site_config(SyncStrategy::p3(), 4)
        .with_topology(Topology::new(2, 2, 4.0))
        .with_placement(Placement::RackLocal);
    let pin = send_site_pin(cfg, |rows| {
        enqueued(rows, MsgClass::RackPush) && enqueued(rows, MsgClass::CombinedPush)
    });
    assert_pin(pin, (0xd46d_dcc4_ec44_36e7, 0x6aea_3b1f_b33b_eadf));
}

/// P3 on a lossy flat fabric: lost PS messages re-enter their sender's
/// egress on the retry timer.
#[test]
fn lossy_ps_retransmits_match_golden() {
    let cfg = send_site_config(SyncStrategy::p3(), 4).with_faults(FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    });
    let pin = send_site_pin(cfg, |rows| {
        rows.iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::Fault {
                    kind: FaultKind::Retransmit,
                    ..
                }
            )
        })
    });
    assert_pin(pin, (0xdd2e_66aa_54f4_1dd9, 0xf9d5_3639_5d5b_f823));
}

/// A one-machine ring: each collective is a single loopback allgather
/// chunk from machine 0 to itself.
#[test]
fn one_machine_ring_loopback_matches_golden() {
    let cfg = send_site_config(SyncStrategy::p3(), 1).with_backend(BackendKind::Ring);
    let pin = send_site_pin(cfg, |rows| {
        rows.iter()
            .any(|r| matches!(r.event, TraceEvent::WireStart { src: 0, dst: 0, .. }))
    });
    assert_pin(pin, (0x4774_35a3_0cc6_2814, 0xa262_e375_bfc7_aa3d));
}
