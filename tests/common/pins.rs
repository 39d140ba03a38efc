//! The measured side of `results/pins.txt`: one function per group of
//! rows, each running its configuration and returning `name value` rows
//! as the file writes them. `tests/pins.rs` measures every group against
//! the whole table; `tests/golden_digest.rs` and `tests/snapshot_resume.rs`
//! check single groups with [`check`].

use super::{
    base, baseline, baseline_crash_rejoin, crash_plan, degraded_racked, lossy, tiny_model,
};
use p3::cluster::{
    ascii_timeline, BackendKind, ClusterConfig, ClusterSim, FaultPlan, RunResult, WorkerCrash,
};
use p3::core::{Slicing, SyncStrategy};
use p3::des::{SimDuration, SimTime};
use p3::models::ModelSpec;
use p3::net::Bandwidth;
use p3::topo::{Placement, Topology};
use p3::trace::{export_trace_json, FaultKind, MetricsRegistry, MsgClass, TimedEvent, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const PINS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/pins.txt");

/// One pin: its name and its value as its source prints it.
pub type Row = (String, String);
/// `prefix/name value` rows.
fn rows<const N: usize>(prefix: &str, pins: [(&str, String); N]) -> Vec<Row> {
    pins.into_iter()
        .map(|(name, value)| (format!("{prefix}/{name}"), value))
        .collect()
}

/// A hash or digest as the CLI prints an event hash.
fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

/// FNV-1a over a byte stream (independent of the crate's own copy).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fabric's work counters over a whole run, in `NetStats` field
/// order: reallocations, flows touched, water-fill rounds, links touched,
/// peak in-flight flows.
const NET_COUNTERS: [&str; 5] = [
    "net/reallocations",
    "net/flows_touched",
    "net/waterfill_rounds",
    "net/ports_touched",
    "net/peak_in_flight",
];

/// The profile counters `keys` of a profiled run, as `prefix/key` rows.
fn counters(prefix: &str, r: &RunResult, keys: &[&str]) -> Vec<Row> {
    let p = r.profile.as_ref().expect("profiling was enabled");
    keys.iter()
        .map(|key| {
            let value = p.counter(key).unwrap_or_else(|| panic!("no counter {key}"));
            (format!("{prefix}/{key}"), value.to_string())
        })
        .collect()
}

/// P3 on the tiny model's PS path: the export digest, throughput bits and
/// event count were captured from the engine before it was split into
/// layers (DESIGN.md §11), so the split is a refactor. The metrics and
/// the first iteration's 72-column timeline pin the trace consumers.
pub fn tiny_ps() -> Vec<Row> {
    let cfg = base(BackendKind::Ps, 7);
    let meta = cfg.trace_meta();
    let (r, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("the tiny PS run must run clean");
    let log = log.expect("slice tracing was enabled");
    rows(
        "tiny-ps",
        [
            (
                "export_fnv",
                hex(fnv(export_trace_json(&log, &meta).as_bytes())),
            ),
            ("throughput_bits", hex(r.throughput.to_bits())),
            ("events", r.events.to_string()),
            (
                "metrics_fnv",
                hex(fnv(MetricsRegistry::from_trace(&log).to_json().as_bytes())),
            ),
            (
                "timeline_fnv",
                hex(fnv(ascii_timeline(&log, 4, 1, 72).as_bytes())),
            ),
        ],
    )
}

/// The export bytes of a ring all-reduce run on a lossy flat fabric with
/// a mid-run crash and rejoin, hashing its state every 200 events: row
/// layout, number formatting and `null` fields on a log with `Fault`,
/// `WireEnd { bottleneck: None }` and `StateHash` rows.
pub fn tiny_ring_fault() -> Vec<Row> {
    let faults = FaultPlan {
        loss_probability: 0.02,
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(40),
            rejoin_after: Some(SimDuration::from_millis(30)),
        }],
        ..FaultPlan::none()
    };
    let cfg = ClusterConfig::new(
        tiny_model(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(5.0),
    )
    .with_iters(1, 2)
    .with_seed(9)
    .with_backend(BackendKind::Ring)
    .with_faults(faults)
    .with_state_hash_every(200);
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
    rows(
        "tiny-ring-fault",
        [
            ("export_fnv", hex(fnv(doc.as_bytes()))),
            ("export_len", doc.len().to_string()),
        ],
    )
}

/// P3 on 2 racks of 2 machines behind a 4:1 oversubscribed core, run long
/// enough that simulated time passes 1 s: its export holds what the flat
/// fabrics never write, Chrome `args.bottleneck` and `WireEnd` rows with
/// `Some` bottleneck link. Also the fabric's work counters of the run.
pub fn tiny_racked() -> Vec<Row> {
    let cfg = base(BackendKind::Ps, 11)
        .with_iters(1, 9)
        .with_topology(Topology::new(2, 2, 4.0));
    let meta = cfg.trace_meta();
    let (r, log) = ClusterSim::new(cfg)
        .with_profiling()
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
    let mut pins = rows(
        "tiny-racked",
        [
            ("export_fnv", hex(fnv(doc.as_bytes()))),
            ("export_len", doc.len().to_string()),
        ],
    );
    pins.extend(counters("tiny-racked", &r, &NET_COUNTERS));
    pins
}

/// The fabric's work counters of a Figure 7-shaped run: VGG-19 under P3
/// on 4 machines at 8 Gbps, one warm-up and one measured iteration.
pub fn fig7_vgg19() -> Vec<Row> {
    let cfg = ClusterConfig::new(
        ModelSpec::vgg19(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(8.0),
    )
    .with_iters(1, 1)
    .with_seed(42);
    counters(
        "fig7-vgg19",
        &ClusterSim::new(cfg).with_profiling().run(),
        &NET_COUNTERS,
    )
}

/// True if some endpoint queued a message of `class`.
fn enqueued(rows: &[TimedEvent], class: MsgClass) -> bool {
    rows.iter()
        .any(|r| matches!(r.event, TraceEvent::EgressEnqueue { class: c, .. } if c == class))
}

/// The event hash and export digest of a traced tiny-model run at 5 Gbps,
/// 1+2 iterations, after checking that it reached the send sites it pins.
fn send_site(name: &str, cfg: ClusterConfig, reached: fn(&[TimedEvent]) -> bool) -> Vec<Row> {
    let meta = cfg.trace_meta();
    let (result, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("send-site config must run clean");
    let log = log.expect("slice tracing was enabled");
    assert!(
        reached(log.events()),
        "{name}: the run never reached its send sites"
    );
    rows(
        &format!("send-site/{name}"),
        [
            ("event_hash", hex(result.event_hash)),
            (
                "export_fnv",
                hex(fnv(export_trace_json(&log, &meta).as_bytes())),
            ),
        ],
    )
}

/// A traced tiny-model run at 5 Gbps, 1+2 iterations.
fn site_config(strategy: SyncStrategy, machines: usize) -> ClusterConfig {
    ClusterConfig::new(tiny_model(), strategy, machines, Bandwidth::from_gbps(5.0))
        .with_iters(1, 2)
        .with_seed(13)
        .with_slice_trace()
}

/// Baseline: the server's `Notify` fan-out and the eager `PullReq` it
/// triggers.
pub fn baseline_site() -> Vec<Row> {
    send_site(
        "baseline",
        site_config(SyncStrategy::baseline(), 4),
        |rows| enqueued(rows, MsgClass::Notify) && enqueued(rows, MsgClass::PullRequest),
    )
}

/// TensorFlow-style: every pull leaves at the next iteration's start,
/// and a pull for an unfinished round waits in the server's
/// `pending_pulls` until the round completes and answers it.
pub fn tf_site() -> Vec<Row> {
    send_site("tf", site_config(SyncStrategy::tf_style(), 4), |rows| {
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
    })
}

/// P3 slices and priorities on the notify-then-pull response path.
pub fn p3_notify_pull_site() -> Vec<Row> {
    let cfg = site_config(SyncStrategy::p3_notify_pull(), 4);
    send_site("p3-notify-pull", cfg, |rows| {
        enqueued(rows, MsgClass::Notify) && enqueued(rows, MsgClass::PullRequest)
    })
}

/// Rack-local placement on 2 racks of 2: members push to their rack's
/// aggregator, which forwards one combined push across the core.
pub fn rack_local_site() -> Vec<Row> {
    let cfg = site_config(SyncStrategy::p3(), 4)
        .with_topology(Topology::new(2, 2, 4.0).with_placement(Placement::RackLocal));
    send_site("rack-local", cfg, |rows| {
        enqueued(rows, MsgClass::RackPush) && enqueued(rows, MsgClass::CombinedPush)
    })
}

/// P3 on a lossy flat fabric: lost PS messages re-enter their sender's
/// egress on the retry timer.
pub fn lossy_ps_site() -> Vec<Row> {
    let lossy = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    let cfg = site_config(SyncStrategy::p3(), 4).with_faults(lossy);
    send_site("lossy-ps", cfg, |rows| {
        rows.iter().any(|r| {
            matches!(
                r.event,
                TraceEvent::Fault {
                    kind: FaultKind::Retransmit,
                    ..
                }
            )
        })
    })
}

/// A one-machine ring: each collective is a single loopback allgather
/// chunk from machine 0 to itself.
pub fn ring_1_site() -> Vec<Row> {
    let cfg = site_config(SyncStrategy::p3(), 1).with_backend(BackendKind::Ring);
    send_site("ring-1", cfg, |rows| {
        rows.iter()
            .any(|r| matches!(r.event, TraceEvent::WireStart { src: 0, dst: 0, .. }))
    })
}

/// Each send site of the engine's one send path, reached by a run.
pub fn send_sites() -> Vec<Row> {
    [
        baseline_site,
        tf_site,
        p3_notify_pull_site,
        rack_local_site,
        lossy_ps_site,
        ring_1_site,
    ]
    .into_iter()
    .flat_map(|site| site())
    .collect()
}

/// Digest and length of the snapshot each of `tests/snapshot_resume.rs`'s
/// configurations takes at its first iteration boundary. The format is
/// the byte stream, so any change to field order, width or content moves
/// one of these.
pub fn snapshots() -> Vec<Row> {
    let cases = [
        ("ps", base(BackendKind::Ps, 7)),
        ("ring", base(BackendKind::Ring, 7)),
        ("halving-doubling", base(BackendKind::HalvingDoubling, 11)),
        (
            "ps-crash",
            base(BackendKind::Ps, 7).with_faults(crash_plan(1, 40, 30)),
        ),
        (
            "ring-crash",
            base(BackendKind::Ring, 7).with_faults(crash_plan(2, 40, 30)),
        ),
        ("lossy", lossy()),
        ("degraded-racked", degraded_racked()),
        ("baseline", baseline(7)),
        ("baseline-crash", baseline_crash_rejoin()),
    ];
    let mut pins = Vec::new();
    for (label, cfg) in cases {
        let mut sim = ClusterSim::new(cfg);
        sim.run_until(1).expect("run to the first boundary failed");
        let bytes = sim.snapshot();
        pins.extend(rows(
            &format!("snapshot/{label}"),
            [("fnv", hex(fnv(&bytes))), ("len", bytes.len().to_string())],
        ));
    }
    pins
}

/// The event hash of a run resumed from its first boundary's snapshot,
/// where a crash after the boundary cancels flows in the order of the
/// restored message table (`tests/snapshot_resume.rs`'s
/// `*_crash_after_the_snapshot_*` tests).
pub fn resumed_crashes() -> Vec<Row> {
    let cases = [
        (
            "ps-crash-late",
            base(BackendKind::Ps, 7).with_faults(crash_plan(1, 70, 30)),
        ),
        (
            "ring-crash-late",
            base(BackendKind::Ring, 7).with_faults(crash_plan(2, 50, 30)),
        ),
    ];
    let mut pins = Vec::new();
    for (label, cfg) in cases {
        let mut sim = ClusterSim::new(cfg.clone());
        sim.run_until(1).expect("run to the first boundary failed");
        let r = ClusterSim::restore(cfg, &sim.snapshot())
            .expect("restore failed")
            .run();
        pins.extend(rows(
            &format!("resume/{label}"),
            [("event_hash", hex(r.event_hash))],
        ));
    }
    pins
}

/// Halving-doubling on 2 racks of 2 behind a 4:1 oversubscribed core,
/// one measured iteration. A collective handler queries the fabric's next
/// event at each change (`ClusterSim::defers_net_wake`). Deferring those
/// queries to the instant's end moves this run's events, and no event
/// count or hash of the flat-fabric runs pinned here.
pub fn hd_racked() -> Vec<Row> {
    let cfg = base(BackendKind::HalvingDoubling, 3)
        .with_iters(0, 1)
        .with_topology(Topology::new(2, 2, 4.0));
    let r = ClusterSim::new(cfg).run();
    rows(
        "hd-racked",
        [
            ("event_hash", hex(r.event_hash)),
            ("events", r.events.to_string()),
        ],
    )
}

/// The calendar's and the fabric's work counters of a ResNet-50 run at
/// seed 42 and 10 Gbps, as `p3 simulate … --profile-out` reports them.
const SMOKE_COUNTERS: [&str; 7] = [
    "net/reallocations",
    "net/waterfill_rounds",
    "net/ports_touched",
    "net/flows_touched",
    "net/peak_in_flight",
    "heap/scheduled_total",
    "heap/high_water",
];

/// ResNet-50 under P3 on `machines` at 10 Gbps, seed 42.
fn resnet50(machines: usize) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        machines,
        Bandwidth::from_gbps(10.0),
    )
    .with_seed(42)
}

/// A profiled run's event hash and [`SMOKE_COUNTERS`], as `smoke/name`
/// rows.
fn smoke(name: &str, cfg: ClusterConfig) -> (RunResult, Vec<Row>) {
    let r = ClusterSim::new(cfg).with_profiling().run();
    let prefix = format!("smoke/{name}");
    let mut pins = rows(&prefix, [("event_hash", hex(r.event_hash))]);
    pins.extend(counters(&prefix, &r, &SMOKE_COUNTERS));
    (r, pins)
}

/// PS on 16 machines, one warm-up and one measured iteration.
pub fn ps_16() -> Vec<Row> {
    smoke("ps-16", resnet50(16).with_iters(1, 1)).1
}

/// 4 racks of 4 behind a 2:1 core. These routes cross transit hops,
/// which PS-16's never do.
pub fn racked_16() -> Vec<Row> {
    let cfg = resnet50(16)
        .with_iters(1, 1)
        .with_topology(Topology::new(4, 4, 2.0));
    smoke("racked-16", cfg).1
}

/// Halving-doubling on 16 machines with 2M-parameter slices, one warm-up
/// and two measured iterations. No ledger workload runs this backend, so
/// only this pins its fabric work.
pub fn hd_16() -> Vec<Row> {
    let mut cfg = resnet50(16)
        .with_iters(1, 2)
        .with_backend(BackendKind::HalvingDoubling);
    cfg.strategy.slicing = Slicing::MaxParams(2_000_000);
    let (r, mut pins) = smoke("hd-16", cfg);
    pins.push(("smoke/hd-16/events".into(), r.events.to_string()));
    pins
}

/// Only the rows of `rows` whose names contain one of `parts`.
pub fn only(rows: Vec<Row>, parts: &[&str]) -> Vec<Row> {
    rows.into_iter()
        .filter(|(name, _)| parts.iter().any(|p| name.contains(p)))
        .collect()
}

/// Fails, naming each moved row as `name: pinned → measured`, unless
/// every row of `measured` equals its row in `results/pins.txt`.
/// `cargo test --release --test pins` writes the whole measured table and
/// prints the `cp` that re-pins.
pub fn check(measured: Vec<Row>) {
    assert!(!measured.is_empty(), "no rows measured");
    let text = std::fs::read_to_string(PINS).expect("results/pins.txt is readable");
    let pinned: BTreeMap<&str, &str> = text
        .lines()
        .map(|line| line.split_once(' ').unwrap_or((line, "")))
        .collect();
    let mut moved = String::new();
    for (name, value) in &measured {
        let was = pinned.get(name.as_str()).copied();
        if was != Some(value.as_str()) {
            let was = was.unwrap_or("(not pinned)");
            let _ = writeln!(moved, "  {name}: {was} → {value}");
        }
    }
    assert!(
        moved.is_empty(),
        "results/pins.txt differs from the measured pins:\n{moved}\
         Run `cargo test --release --test pins` for the measured table and \
         the `cp` that re-pins."
    );
}
