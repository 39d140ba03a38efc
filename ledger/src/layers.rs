//! The traced pass behind the per-layer table. One extra rep runs with
//! the engine profiler on; the calendar, the planner, the trace path and
//! the fabric are then timed from outside through their public entry
//! points. Nothing here feeds the end-to-end metrics.

use crate::clock::{thread_cpu_s, CpuTimer};
use crate::measure::{Inputs, Measured, Tally};
use crate::observe::{pipeline, replay};
use crate::report::Value;
use crate::spec::PER_LAYER;
use crate::stats::{iqr_frac, median};
use p3_cluster::ClusterSim;
use p3_des::{EventQueue, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of the planner timing; the median is reported.
const PLAN_PASSES: usize = 5;

/// Upper bound on calendar replay pairs, so a huge workload cannot stall
/// the traced pass.
const MAX_DES_OPS: u64 = 20_000_000;

/// Timers and counters of a rep's profiles, summed over its runs
/// (high-water counters take the maximum).
#[derive(Debug, Default)]
struct Profile {
    timers: BTreeMap<String, (u64, f64)>,
    counters: BTreeMap<String, u64>,
    events: u64,
}

impl Profile {
    fn add(&mut self, r: &p3_cluster::RunResult) {
        self.events += r.events;
        let Some(p) = &r.profile else { return };
        for t in &p.timers {
            let e = self.timers.entry(t.key.clone()).or_default();
            e.0 += t.calls;
            e.1 += t.seconds;
        }
        for c in &p.counters {
            let e = self.counters.entry(c.key.clone()).or_default();
            if c.key.ends_with("peak_in_flight") || c.key.ends_with("high_water") {
                *e = (*e).max(c.value);
            } else {
                *e += c.value;
            }
        }
    }

    fn calls(&self, key: &str) -> f64 {
        self.timers.get(key).map_or(0.0, |t| t.0 as f64)
    }

    fn secs(&self, key: &str) -> f64 {
        self.timers.get(key).map_or(0.0, |t| t.1)
    }

    fn count(&self, key: &str) -> f64 {
        self.counters.get(key).copied().unwrap_or(0) as f64
    }

    /// Seconds inside every per-event dispatch span.
    fn dispatch_s(&self) -> f64 {
        self.timers
            .iter()
            .filter(|(k, _)| k.starts_with("dispatch/"))
            .map(|(_, t)| t.1)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median over 9 batches of `pair`'s cost in ns, over `n` calls each.
fn pair_cost_ns(n: u32, pair: impl Fn()) -> f64 {
    let samples: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                pair();
            }
            t.elapsed().as_nanos() as f64 / f64::from(n)
        })
        .collect();
    median(&samples).unwrap_or(0.0)
}

/// Host ns of one `Instant::now` pair: the cost every engine profiler
/// span and every timed fabric call of the net replay adds to what it
/// measures.
pub fn instant_pair_ns() -> f64 {
    pair_cost_ns(100_000, || {
        black_box(Instant::now().elapsed());
    })
}

/// Host ns of one pair of thread CPU clock reads: the cost every
/// benchmark timing, each `setup_s` sample among them, adds to what it
/// measures.
pub fn cpu_pair_ns() -> f64 {
    pair_cost_ns(10_000, || {
        black_box(thread_cpu_s() - thread_cpu_s());
    })
}

/// CPU ns per schedule/pop pair on an [`EventQueue`] holding `depth`
/// pending events, over `ops` pairs. Payloads are 24 bytes and times
/// spread over a millisecond, like the engine's calendar.
pub fn des_ns_per_op(ops: u64, depth: u64) -> f64 {
    let ops = ops.clamp(1, MAX_DES_OPS);
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut jitter = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        SimDuration::from_nanos(x % 1_000_000)
    };
    let mut q = EventQueue::new();
    for i in 0..depth.max(1) {
        q.schedule_at(SimTime::ZERO + jitter(), [i, 0, 0]);
    }
    let t = CpuTimer::start();
    for _ in 0..ops {
        let (at, ev) = q.pop().expect("the replay calendar never drains");
        q.schedule_at(at + jitter(), black_box(ev));
    }
    t.elapsed_s() * 1e9 / ops as f64
}

/// Runs the traced pass and returns the per-layer metrics in
/// [`PER_LAYER`] order. `untraced` is the closed loop's measurement of
/// the same inputs, the base of `prof.overhead_frac`.
pub fn traced_pass(inputs: &Inputs, untraced: &Measured, tally: &mut Tally) -> Vec<Value> {
    // One profiled rep. Its wall time is the base of the profiler's own
    // (wall-clock) spans; its CPU time compares with the untraced reps.
    let mut prof = Profile::default();
    let (mut wall, mut cpu) = (0.0, 0.0);
    for cfg in &inputs.configs {
        let cfg = cfg.clone();
        let t = Instant::now();
        let c = CpuTimer::start();
        let result = ClusterSim::new(cfg).with_profiling().try_run();
        cpu += c.elapsed_s();
        wall += t.elapsed().as_secs_f64();
        if let Some(r) = tally.ok("profiled run error", result) {
            prof.add(&r);
        }
    }

    // The planner, timed through the strategy's own entry points.
    let mut keys = 0usize;
    let plan_s: Vec<f64> = (0..PLAN_PASSES)
        .map(|_| {
            keys = 0;
            let t = CpuTimer::start();
            for cfg in &inputs.configs {
                let plan = cfg.strategy.plan(&cfg.model, cfg.machines, cfg.seed);
                keys += black_box(cfg.strategy.priorities(&plan)).len();
            }
            t.elapsed_s()
        })
        .collect();

    // The calendar, replayed at the run's own depth and op count.
    let des_ops = prof.count("heap/scheduled_total");
    let des_ns = des_ns_per_op(des_ops as u64, prof.count("heap/high_water") as u64);
    let des_est_s = des_ns * des_ops * 1e-9;

    // The trace path: one untraced and one traced run of the observed
    // configuration, then audit, export, import and the fabric replay.
    let base = &inputs.observe_base;
    let t = CpuTimer::start();
    let plain = ClusterSim::new(base.clone()).try_run();
    let plain_s = t.elapsed_s();
    tally.ok("untraced observed run", plain);
    let traced_cfg = base.clone().with_slice_trace();
    let t = CpuTimer::start();
    let traced = ClusterSim::new(traced_cfg.clone()).try_run_traced();
    let traced_s = t.elapsed_s();
    let log = tally
        .ok("traced observed run", traced)
        .and_then(|(_, log)| log);
    let obs = pipeline(log, &traced_cfg.trace_meta(), true, tally);
    let rep = replay(base, &obs.wire.unwrap_or_default(), tally);

    let net_s = prof.secs("net/start_flow") + prof.secs("net/poll");
    let flows_touched = prof.count("net/flows_touched");
    let self_s = prof.dispatch_s() - net_s;
    let untraced_s = untraced.sim_s_median();
    let values: BTreeMap<&str, f64> = [
        ("net.reallocations", prof.count("net/reallocations")),
        ("net.flows_touched", flows_touched),
        ("net.waterfill_rounds", prof.count("net/waterfill_rounds")),
        ("net.ports_touched", prof.count("net/ports_touched")),
        ("net.peak_in_flight", prof.count("net/peak_in_flight")),
        ("net.start_flow.calls", prof.calls("net/start_flow")),
        ("net.start_flow.s", prof.secs("net/start_flow")),
        ("net.poll.calls", prof.calls("net/poll")),
        ("net.poll.s", prof.secs("net/poll")),
        ("net.share", ratio(net_s, wall)),
        ("net.ns_per_flow_touched", ratio(net_s * 1e9, flows_touched)),
        ("des.ops", des_ops),
        ("des.high_water", prof.count("heap/high_water")),
        ("des.ns_per_op", des_ns),
        ("des.est_s", des_est_s),
        ("cluster.events", prof.events as f64),
        ("cluster.self_s", self_s),
        (
            "cluster.ns_per_event",
            ratio(self_s * 1e9, prof.events as f64),
        ),
        ("cluster.admit_kick.s", prof.secs("dispatch/AdmitKick")),
        ("cluster.net_wake.s", prof.secs("dispatch/NetWake")),
        (
            "cluster.backend_delivered.s",
            prof.secs("backend/delivered"),
        ),
        ("core.plan_s", median(&plan_s).unwrap_or(0.0)),
        ("core.keys", keys as f64),
        ("trace.events", obs.events as f64),
        (
            "trace.record_overhead_frac",
            ratio(traced_s - plain_s, plain_s),
        ),
        ("trace.export_s", obs.export_s),
        ("trace.export_mb", obs.export_bytes as f64 / 1e6),
        ("trace.import_s", obs.import_s),
        ("audit.s", obs.audit_s),
        (
            "audit.ns_per_event",
            ratio(obs.audit_s * 1e9, obs.events as f64),
        ),
        ("net.replay.flows", rep.flows as f64),
        ("net.replay.reallocations", rep.reallocations as f64),
        ("net.replay.start_flow.ns", rep.start_flow_ns),
        ("net.replay.poll.ns", rep.poll_ns),
        ("net.replay.next_event_time.ns", rep.next_event_time_ns),
        ("net.replay.max_skew_us", rep.max_skew_us),
        ("prof.overhead_frac", ratio(cpu - untraced_s, untraced_s)),
        (
            "unattributed_frac",
            ratio(wall - net_s - self_s - des_est_s, wall),
        ),
        ("timer.pair_ns", instant_pair_ns()),
        ("timer.cpu_pair_ns", cpu_pair_ns()),
        ("host.slowdown", untraced.slowdown),
    ]
    .into_iter()
    .collect();
    PER_LAYER
        .iter()
        .map(|m| {
            let value = *values
                .get(m.name)
                .unwrap_or_else(|| unreachable!("per-layer metric {} has no measurement", m.name));
            let (n, spread) = if m.name == "core.plan_s" {
                (plan_s.len(), iqr_frac(&plan_s))
            } else {
                (1, 0.0)
            };
            Value::of(m, value, n, spread)
        })
        .collect()
}
