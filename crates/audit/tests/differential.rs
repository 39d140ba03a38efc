//! Differential pins: six traced simulator runs, each mutated one event
//! at a time (drop, duplicate, swap with the next event, alter one
//! field), audited, and the report text of every mutation folded into one
//! digest per run. The digests were read before the replay moved to dense
//! tables, so any change to a verdict or to a report's wording on these
//! traces shows up here.
//!
//! The mutations are drawn from a fixed seed. Some alter an id to a value
//! near `u64::MAX`, so both interning paths (direct index and sort) run.
//! No mutation touches a timestamp, a byte count or a version by more
//! than one: those feed subtractions and sums, and the pins must read the
//! same in debug and release builds.

use p3_audit::{check_with, AuditOptions};
use p3_cluster::{BackendKind, ClusterConfig, ClusterSim, FaultPlan, WorkerCrash};
use p3_core::SyncStrategy;
use p3_des::{SimDuration, SimTime};
use p3_models::{BlockKind, ComputeBlock, ModelSpec, ParamArray, SampleUnit};
use p3_net::Bandwidth;
use p3_topo::{Placement, Topology};
use p3_trace::{TimedEvent, TraceEvent, TraceLog};

/// Mutations per run.
const MUTATIONS: usize = 34;

/// A small model with a large head, so P3 slices it into several keys.
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
    ModelSpec::from_blocks("TinyDiff", SampleUnit::Images, blocks, 800.0, 32, 0.0)
}

fn config(strategy: SyncStrategy, seed: u64) -> ClusterConfig {
    ClusterConfig::new(tiny_model(), strategy, 4, Bandwidth::from_gbps(5.0))
        .with_iters(1, 2)
        .with_seed(seed)
}

fn crash_rejoin() -> FaultPlan {
    FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(40),
            rejoin_after: Some(SimDuration::from_millis(30)),
        }],
        ..FaultPlan::none()
    }
}

fn runs() -> Vec<(&'static str, ClusterConfig)> {
    let lossy = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    vec![
        ("ps-p3", config(SyncStrategy::p3(), 1)),
        ("baseline", config(SyncStrategy::baseline(), 2)),
        ("lossy", config(SyncStrategy::p3(), 3).with_faults(lossy)),
        (
            "crash-rejoin",
            config(SyncStrategy::p3(), 4).with_faults(crash_rejoin()),
        ),
        (
            "ring",
            config(SyncStrategy::p3(), 5).with_backend(BackendKind::Ring),
        ),
        (
            "racked",
            config(SyncStrategy::p3(), 6)
                .with_topology(Topology::new(2, 2, 2.0).with_placement(Placement::RackLocal)),
        ),
    ]
}

/// SplitMix64: a fixed, dependency-free stream of draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An id moved by one either way, to another id the log names, or to a
/// value near the top of its range.
fn alter_id(v: u64, other: u64, how: usize, max: u64) -> u64 {
    match how {
        0 => v.wrapping_add(1) & max,
        1 => v.wrapping_sub(1) & max,
        2 => other,
        _ => max - (v & 7),
    }
}

fn alter_machine(v: usize, rng: &mut Rng) -> usize {
    let how = rng.below(4);
    let other = rng.below(4) as u64;
    alter_id(v as u64, other, how, usize::MAX as u64) as usize
}

fn alter_key(v: usize, rng: &mut Rng) -> usize {
    let how = rng.below(4);
    let other = rng.below(8) as u64;
    alter_id(v as u64, other, how, usize::MAX as u64) as usize
}

fn alter_msg(v: u64, ids: &[u64], rng: &mut Rng) -> u64 {
    let how = rng.below(4);
    let other = ids[rng.below(ids.len())];
    alter_id(v, other, how, u64::MAX)
}

/// A small change to a counter that feeds no arithmetic of its own.
fn nudge(v: u64, rng: &mut Rng) -> u64 {
    if rng.below(2) == 0 {
        v + 1
    } else {
        v.saturating_sub(1)
    }
}

/// Alters one field of `ev`, chosen by `rng`.
fn alter(ev: TraceEvent, ids: &[u64], rng: &mut Rng) -> TraceEvent {
    use TraceEvent as E;
    let field = rng.below(4);
    match ev {
        E::ComputeStart {
            worker,
            phase,
            block,
        } => match field {
            0 | 1 => E::ComputeStart {
                worker: alter_machine(worker, rng),
                phase,
                block,
            },
            _ => E::ComputeStart {
                worker,
                phase,
                block: block + 1,
            },
        },
        E::ComputeEnd {
            worker,
            phase,
            block,
        } => match field {
            0 | 1 => E::ComputeEnd {
                worker: alter_machine(worker, rng),
                phase,
                block,
            },
            _ => E::ComputeEnd {
                worker,
                phase,
                block: block + 1,
            },
        },
        E::StallStart { worker, block } => E::StallStart {
            worker: alter_machine(worker, rng),
            block,
        },
        E::StallEnd { worker, block } => E::StallEnd {
            worker,
            block: block + 1,
        },
        E::IterationEnd { worker, iter } => E::IterationEnd {
            worker: alter_machine(worker, rng),
            iter,
        },
        E::GradReady {
            worker,
            key,
            round,
            priority,
        } => match field {
            0 => E::GradReady {
                worker: alter_machine(worker, rng),
                key,
                round,
                priority,
            },
            1 => E::GradReady {
                worker,
                key: alter_key(key, rng),
                round,
                priority,
            },
            _ => E::GradReady {
                worker,
                key,
                round: nudge(round, rng),
                priority,
            },
        },
        E::EgressEnqueue {
            machine,
            role,
            msg_id,
            class,
            key,
            round,
            priority,
            queue_depth,
        } => {
            let mut e = (machine, msg_id, key, round, priority, queue_depth);
            match rng.below(6) {
                0 => e.0 = alter_machine(machine, rng),
                1 => e.1 = alter_msg(msg_id, ids, rng),
                2 => e.2 = alter_key(key, rng),
                3 => e.3 = nudge(round, rng),
                4 => e.4 = nudge(u64::from(priority), rng) as u32,
                _ => e.5 = nudge(queue_depth as u64, rng) as usize,
            }
            E::EgressEnqueue {
                machine: e.0,
                role,
                msg_id: e.1,
                class,
                key: e.2,
                round: e.3,
                priority: e.4,
                queue_depth: e.5,
            }
        }
        E::WireStart {
            msg_id,
            src,
            dst,
            bytes,
            priority,
        } => {
            let mut e = (msg_id, src, dst, bytes, priority);
            match rng.below(5) {
                0 => e.0 = alter_msg(msg_id, ids, rng),
                1 => e.1 = alter_machine(src, rng),
                2 => e.2 = alter_machine(dst, rng),
                3 => e.3 = nudge(bytes, rng),
                _ => e.4 = nudge(u64::from(priority), rng) as u32,
            }
            E::WireStart {
                msg_id: e.0,
                src: e.1,
                dst: e.2,
                bytes: e.3,
                priority: e.4,
            }
        }
        E::WireEnd {
            msg_id,
            src,
            dst,
            bytes,
            bottleneck,
        } => {
            let mut e = (msg_id, src, dst, bytes);
            match field {
                0 => e.0 = alter_msg(msg_id, ids, rng),
                1 => e.1 = alter_machine(src, rng),
                2 => e.2 = alter_machine(dst, rng),
                _ => e.3 = nudge(bytes, rng),
            }
            E::WireEnd {
                msg_id: e.0,
                src: e.1,
                dst: e.2,
                bytes: e.3,
                bottleneck,
            }
        }
        E::AggStart {
            server,
            key,
            round,
            worker,
        } => {
            let mut e = (server, key, round, worker);
            match field {
                0 => e.0 = alter_machine(server, rng),
                1 => e.1 = alter_key(key, rng),
                2 => e.2 = nudge(round, rng),
                _ => e.3 = alter_machine(worker, rng),
            }
            E::AggStart {
                server: e.0,
                key: e.1,
                round: e.2,
                worker: e.3,
            }
        }
        E::AggEnd {
            server,
            key,
            round,
            worker,
        } => {
            let mut e = (server, key, round, worker);
            match field {
                0 => e.0 = alter_machine(server, rng),
                1 => e.1 = alter_key(key, rng),
                2 => e.2 = nudge(round, rng),
                _ => e.3 = alter_machine(worker, rng),
            }
            E::AggEnd {
                server: e.0,
                key: e.1,
                round: e.2,
                worker: e.3,
            }
        }
        E::RoundComplete {
            server,
            key,
            version,
            degraded,
        } => {
            let mut e = (server, key, version, degraded);
            match field {
                0 => e.0 = alter_machine(server, rng),
                1 => e.1 = alter_key(key, rng),
                2 => e.2 = nudge(version, rng),
                _ => e.3 = !degraded,
            }
            E::RoundComplete {
                server: e.0,
                key: e.1,
                version: e.2,
                degraded: e.3,
            }
        }
        E::SliceConsumed { worker, key, round } => {
            let mut e = (worker, key, round);
            match field {
                0 => e.0 = alter_machine(worker, rng),
                1 => e.1 = alter_key(key, rng),
                _ => e.2 = nudge(round, rng),
            }
            E::SliceConsumed {
                worker: e.0,
                key: e.1,
                round: e.2,
            }
        }
        E::Fault {
            kind,
            machine,
            msg_id,
        } => match (field, msg_id) {
            (0 | 1, Some(id)) => E::Fault {
                kind,
                machine,
                msg_id: Some(alter_msg(id, ids, rng)),
            },
            _ => E::Fault {
                kind,
                machine: alter_machine(machine, rng),
                msg_id,
            },
        },
        E::StateHash { events, hash } => E::StateHash {
            events,
            hash: hash ^ 1,
        },
    }
}

fn msg_ids(events: &[TimedEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::EgressEnqueue { msg_id, .. }
            | TraceEvent::WireStart { msg_id, .. }
            | TraceEvent::WireEnd { msg_id, .. } => Some(msg_id),
            _ => None,
        })
        .collect()
}

/// The run's trace with one event dropped, duplicated, swapped with its
/// successor or altered.
fn mutate(events: &[TimedEvent], ids: &[u64], rng: &mut Rng) -> Vec<TimedEvent> {
    let mut out = events.to_vec();
    let i = rng.below(out.len());
    match rng.below(4) {
        0 => {
            out.remove(i);
        }
        1 => out.insert(i, out[i]),
        2 if i + 1 < out.len() => out.swap(i, i + 1),
        _ => out[i].event = alter(out[i].event, ids, rng),
    }
    out
}

fn log_of(events: &[TimedEvent]) -> TraceLog {
    let mut log = TraceLog::new();
    for e in events {
        log.record(e.at, e.event);
    }
    log
}

/// FNV-1a, fed the report texts in order.
fn fnv(h: u64, s: &str) -> u64 {
    s.bytes().chain(std::iter::once(0)).fold(h, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The run's digest over its own report and every mutation's, and how
/// many mutated traces failed the audit.
#[expect(
    clippy::expect_used,
    reason = "the pinned runs complete with tracing on"
)]
fn digest(cfg: ClusterConfig, seed: u64) -> (usize, u64, usize) {
    let cfg = cfg.with_slice_trace();
    let opts = AuditOptions::from_meta(&cfg.trace_meta());
    let (_, log) = ClusterSim::new(cfg)
        .try_run_traced()
        .expect("run completes");
    let events = log.expect("slice tracing is on").events().to_vec();
    let ids = msg_ids(&events);
    let base = check_with(&log_of(&events), &opts);
    assert!(base.is_clean(), "{base}");
    let mut h = fnv(0xcbf2_9ce4_8422_2325, &base.to_string());
    let mut rng = Rng(seed);
    let mut failed = 0;
    for _ in 0..MUTATIONS {
        let report = check_with(&log_of(&mutate(&events, &ids, &mut rng)), &opts);
        failed += usize::from(!report.is_clean());
        h = fnv(h, &report.to_string());
    }
    (events.len(), h, failed)
}

/// Per run: events in the unmutated trace, the report digest and the
/// number of mutations the audit rejects.
const PINS: [(&str, usize, u64, usize); 6] = [
    ("ps-p3", 2739, 0xba9ac1a9f8b037d7, 27),
    ("baseline", 812, 0x0b0522bad874f4a6, 28),
    ("lossy", 2897, 0x5e0526b71e3eec56, 26),
    ("crash-rejoin", 2997, 0xbf3122744419c861, 25),
    ("ring", 16528, 0x3b5aa779deee36bd, 22),
    ("racked", 2794, 0x0213ea1de5dc7cb6, 32),
];

#[test]
fn mutated_simulator_traces_keep_their_pinned_reports() {
    let got: Vec<(&str, usize, u64, usize)> = runs()
        .into_iter()
        .enumerate()
        .map(|(n, (name, cfg))| {
            let (events, h, failed) = digest(cfg, 0x5eed + n as u64);
            (name, events, h, failed)
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, events, h, failed)| {
            format!("    (\"{name}\", {events}, {h:#018x}, {failed}),\n")
        })
        .collect();
    assert_eq!(
        got, PINS,
        "pinned reports differ; this tree reads:\n{table}"
    );
}
