//! The trace read and write path, timed from outside: audit the live
//! log, export it to Chrome JSON, import it again and re-audit; and the
//! open-loop replay of a run's wire traffic through a fresh fabric.

use crate::clock::CpuTimer;
use crate::measure::Tally;
use p3_audit::{check_with, AuditOptions};
use p3_cluster::ClusterConfig;
use p3_des::SimTime;
use p3_net::{MachineId, Network, NetworkConfig, Priority};
use p3_trace::{export_trace_json, import_trace_json, TraceEvent, TraceLog, TraceMeta};
use std::collections::BTreeMap;
use std::time::Instant;

/// One `WireStart` of a recorded run.
#[derive(Debug, Clone, Copy)]
struct Start {
    at: SimTime,
    src: usize,
    dst: usize,
    bytes: u64,
    priority: u32,
    tag: u64,
}

/// A run's wire traffic: every flow start, and when each message's last
/// byte arrived.
#[derive(Debug, Clone, Default)]
pub struct Wire {
    starts: Vec<Start>,
    ends: BTreeMap<u64, SimTime>,
}

impl Wire {
    fn from_log(log: &TraceLog) -> Wire {
        let mut wire = Wire::default();
        for e in log.events() {
            match e.event {
                TraceEvent::WireStart {
                    msg_id,
                    src,
                    dst,
                    bytes,
                    priority,
                } => wire.starts.push(Start {
                    at: e.at,
                    src,
                    dst,
                    bytes,
                    priority,
                    tag: msg_id,
                }),
                TraceEvent::WireEnd { msg_id, .. } => {
                    wire.ends.insert(msg_id, e.at);
                }
                _ => {}
            }
        }
        wire.starts.sort_by_key(|s| s.at);
        wire
    }
}

/// CPU costs of one pass through the read/write path.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Trace events the run recorded.
    pub events: usize,
    /// CPU seconds auditing the live log.
    pub audit_s: f64,
    /// CPU seconds exporting to Chrome JSON.
    pub export_s: f64,
    /// Size of the export in bytes.
    pub export_bytes: usize,
    /// CPU seconds importing the export.
    pub import_s: f64,
    /// The run's wire traffic, when asked for.
    pub wire: Option<Wire>,
}

/// Audits `log`, exports, imports and re-audits it. Counts the live
/// audit, the import (its event count must match) and the re-audit as
/// operations. Each large intermediate is dropped as soon as the next
/// stage no longer needs it.
pub fn pipeline(
    log: Option<TraceLog>,
    meta: &TraceMeta,
    keep_wire: bool,
    tally: &mut Tally,
) -> Observed {
    let mut out = Observed::default();
    let Some(log) = log else {
        tally.check(false, || "observed run recorded no trace".into());
        return out;
    };
    out.events = log.len();
    let t = CpuTimer::start();
    let live = check_with(&log, &AuditOptions::from_meta(meta));
    out.audit_s = t.elapsed_s();
    tally.check(live.is_clean(), || format!("live audit: {live}"));
    out.wire = keep_wire.then(|| Wire::from_log(&log));
    let t = CpuTimer::start();
    let doc = export_trace_json(&log, meta);
    out.export_s = t.elapsed_s();
    out.export_bytes = doc.len();
    drop(log);
    let t = CpuTimer::start();
    let imported = import_trace_json(&doc);
    out.import_s = t.elapsed_s();
    drop(doc);
    match imported {
        Ok((back, back_meta)) => {
            let n = back.len();
            let same = tally.check(n == out.events, || {
                format!("import read {n} events, the live log has {}", out.events)
            });
            if same {
                let re = check_with(&back, &AuditOptions::from_meta(&back_meta));
                tally.check(re.is_clean(), || format!("imported audit: {re}"));
            }
        }
        Err(e) => {
            tally.check(false, || format!("import: {e}"));
        }
    }
    out
}

/// Total host time and call count of one fabric entry point. Timed on
/// the wall clock: a read of the CPU clock costs more than most of these
/// calls.
#[derive(Debug, Clone, Copy, Default)]
struct Calls {
    n: u64,
    nanos: u128,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.nanos += t.elapsed().as_nanos();
        self.n += 1;
        out
    }

    fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.nanos as f64 / self.n as f64
        }
    }
}

/// What replaying a run's wire traffic measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Flows started.
    pub flows: u64,
    /// Rate reallocations of the replay fabric.
    pub reallocations: u64,
    /// Mean host ns per `start_flow`.
    pub start_flow_ns: f64,
    /// Mean host ns per `poll`.
    pub poll_ns: f64,
    /// Mean host ns per `next_event_time`.
    pub next_event_time_ns: f64,
    /// Largest |replay delivery − recorded `WireEnd`|, simulated µs.
    pub max_skew_us: f64,
}

/// Replays `wire` open-loop through a fresh flat fabric built from
/// `cfg`: each flow starts at its recorded instant whatever the replay's
/// own completions did. Counts one operation, failed when a flow is left
/// undelivered.
pub fn replay(cfg: &ClusterConfig, wire: &Wire, tally: &mut Tally) -> Replay {
    let mut net = Network::new(
        NetworkConfig::new(cfg.machines, cfg.bandwidth)
            .with_latency(cfg.latency)
            .with_efficiency(cfg.net_efficiency)
            .with_flow_cap(cfg.flow_cap),
    );
    let (mut start, mut poll, mut next) = (Calls::default(), Calls::default(), Calls::default());
    let mut delivered = 0u64;
    let mut max_skew = 0.0f64;
    // Polls every fabric change due by `until` (all of them for `None`).
    // A poll that delivers nothing and leaves the next change where it was
    // would repeat forever; the replay stops there and reports the flows
    // it could not deliver.
    let mut settle = |net: &mut Network, until: Option<SimTime>| {
        let mut last = None;
        while let Some(t) = next.time(|| net.next_event_time()) {
            if until.is_some_and(|u| t > u) {
                break;
            }
            let done = poll.time(|| net.poll(t));
            if done.is_empty() && last == Some(t) {
                break;
            }
            last = Some(t);
            for f in done {
                delivered += 1;
                if let Some(&end) = wire.ends.get(&f.tag) {
                    let skew_ns = t.as_nanos().abs_diff(end.as_nanos());
                    max_skew = max_skew.max(skew_ns as f64 / 1e3);
                }
            }
        }
    };
    for s in &wire.starts {
        settle(&mut net, Some(s.at));
        start.time(|| {
            net.start_flow(
                s.at,
                MachineId(s.src),
                MachineId(s.dst),
                s.bytes,
                Priority(s.priority),
                s.tag,
            )
        });
    }
    settle(&mut net, None);
    let flows = wire.starts.len() as u64;
    tally.check(delivered == flows, || {
        format!("replay delivered {delivered} of {flows} flows")
    });
    Replay {
        flows,
        reallocations: net.stats().reallocations,
        start_flow_ns: start.mean_ns(),
        poll_ns: poll.mean_ns(),
        next_event_time_ns: next.mean_ns(),
        max_skew_us: max_skew,
    }
}
