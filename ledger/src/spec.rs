//! The ledger's fixed tables: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root mirrors these tables; a drift test keeps them equal.

use p3_cluster::{BackendKind, ClusterConfig};
use p3_core::{Slicing, SyncStrategy};
use p3_models::ModelSpec;
use p3_net::Bandwidth;

/// Seed used when none is given; the pinned digests hold at this seed.
pub const DEFAULT_SEED: u64 = 42;

/// Seconds one invocation measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 25;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, counts of work).
    Lower,
    /// Larger values are better (rates).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the ledger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, unique across both tables.
    pub name: &'static str,
    /// Unit as printed and written to JSON.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

/// End-to-end metrics, measured on untraced runs and reported as medians
/// over the reps of one invocation. Times are CPU seconds of the
/// benchmark thread (see [`crate::clock`]). The time bounds are the
/// widest the format allows, because a shared host can slow even CPU
/// time for minutes at a stretch.
pub const END_TO_END: &[Metric] = &[
    e2e("rep_s", "s", Better::Lower, 0.25),
    e2e("events_per_s", "1/s", Better::Higher, 0.25),
    e2e("run_s.p50", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Per-layer metrics, produced by the separate traced pass (`--trace`).
pub const PER_LAYER: &[Metric] = &[
    layer("net.reallocations", "count"),
    layer("net.flows_touched", "count"),
    layer("net.waterfill_rounds", "count"),
    layer("net.ports_touched", "count"),
    layer("net.peak_in_flight", "count"),
    layer("net.start_flow.calls", "count"),
    layer("net.start_flow.s", "s"),
    layer("net.poll.calls", "count"),
    layer("net.poll.s", "s"),
    layer("net.share", "fraction"),
    layer("net.ns_per_flow_touched", "ns"),
    layer("des.ops", "count"),
    layer("des.high_water", "count"),
    layer("des.ns_per_op", "ns"),
    layer("des.est_s", "s"),
    layer("cluster.events", "count"),
    layer("cluster.self_s", "s"),
    layer("cluster.ns_per_event", "ns"),
    layer("cluster.admit_kick.s", "s"),
    layer("cluster.net_wake.s", "s"),
    layer("cluster.backend_delivered.s", "s"),
    layer("core.plan_s", "s"),
    layer("core.keys", "count"),
    layer("trace.events", "count"),
    layer("trace.record_overhead_frac", "fraction"),
    layer("trace.export_s", "s"),
    layer("trace.export_mb", "MB"),
    layer("trace.import_s", "s"),
    layer("audit.s", "s"),
    layer("audit.ns_per_event", "ns"),
    layer("net.replay.flows", "count"),
    layer("net.replay.reallocations", "count"),
    layer("net.replay.start_flow.ns", "ns"),
    layer("net.replay.poll.ns", "ns"),
    layer("net.replay.next_event_time.ns", "ns"),
    layer("net.replay.max_skew_us", "sim_us"),
    layer("prof.overhead_frac", "fraction"),
    layer("unattributed_frac", "fraction"),
    layer("timer.pair_ns", "ns"),
    layer("timer.cpu_pair_ns", "ns"),
    layer("host.slowdown", "ratio"),
];

/// Pinned result of one rep at [`DEFAULT_SEED`]: total engine events and
/// the rep digest (the run's event hash for a single-run workload, the
/// [`fold_digest`] of every run's hash otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    /// Engine events summed over the rep's runs.
    pub events: u64,
    /// Rep digest.
    pub digest: u64,
}

/// The run configurations a workload is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// PS backend, full P3, ResNet-50 at 10 Gbps, warmup 1 / measure 1.
    PsP3,
    /// Ring backend, P3 with 2M-parameter slices, ResNet-50 at 10 Gbps,
    /// warmup 1 / measure 2.
    Ring,
    /// {ResNet-50, VGG-19, Sockeye} × {baseline, slicing-only, P3} ×
    /// {1, 2, 4, 8, 15, 25} Gbps, warmup 1 / measure 1.
    Fig7Sweep,
    /// PS, P3, VGG-19 at 15 Gbps with slice tracing, warmup 1 / measure 1;
    /// every run is audited, exported, imported and audited again.
    ObservedVgg19,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the ledger (one line).
    pub why: &'static str,
    /// What one rep runs.
    pub shape: Shape,
    /// Machines at the workload's nominal size.
    pub machines: usize,
    /// Pinned rep result at [`DEFAULT_SEED`].
    pub pin: Pin,
}

/// The four workloads, in run order.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ps-p3-16",
        why: "allocator-bound: PS with P3 slices, 512 peak flows; net poll and start_flow take most host time",
        shape: Shape::PsP3,
        machines: 16,
        pin: Pin {
            events: 149_677,
            digest: 0x8eae_9883_4dab_eb85,
        },
    },
    Workload {
        name: "ring-16",
        why: "event-rate-bound: ring all-reduce with 5x the events and 64 peak flows; calendar and dispatch costs dominate",
        shape: Shape::Ring,
        machines: 16,
        pin: Pin {
            events: 855_348,
            digest: 0xa538_ce00_0875_66db,
        },
    },
    Workload {
        name: "fig7-sweep",
        why: "Figure 7 regeneration: 54 short runs on 4 machines where set-up and per-run fixed costs count",
        shape: Shape::Fig7Sweep,
        machines: 4,
        pin: Pin {
            events: 2_240_534,
            digest: 0x33cd_fcd9_a12a_a1c8,
        },
    },
    Workload {
        name: "observed-vgg19-8",
        why: "trace write path and read path: slice tracing, live audit, Chrome JSON export, import and re-audit",
        shape: Shape::ObservedVgg19,
        machines: 8,
        pin: Pin {
            events: 264_402,
            digest: 0xfbff_627f_1c3e_96e5,
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Bandwidths of the Figure 7 sweep, in Gbps.
const FIG7_GBPS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 15.0, 25.0];

impl Workload {
    /// Every run also records the slice trace and replays it through the
    /// audit, export and import path.
    pub fn observed(&self) -> bool {
        self.shape == Shape::ObservedVgg19
    }

    /// The run configurations of one rep on `machines` machines (the
    /// workload's nominal size is [`Workload::machines`]).
    pub fn configs_at(&self, seed: u64, machines: usize) -> Vec<ClusterConfig> {
        let cfg = |model: ModelSpec, strategy: SyncStrategy, gbps: f64| {
            ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps))
                .with_seed(seed)
        };
        match self.shape {
            Shape::PsP3 => {
                vec![cfg(ModelSpec::resnet50(), SyncStrategy::p3(), 10.0).with_iters(1, 1)]
            }
            Shape::Ring => {
                // Collectives want coarse slices; 2M parameters is the
                // slice-size sweep's collective plateau.
                let mut strategy = SyncStrategy::p3();
                strategy.slicing = Slicing::MaxParams(2_000_000);
                vec![cfg(ModelSpec::resnet50(), strategy, 10.0)
                    .with_iters(1, 2)
                    .with_backend(BackendKind::Ring)]
            }
            Shape::Fig7Sweep => {
                let mut out = Vec::new();
                for model in [
                    ModelSpec::resnet50(),
                    ModelSpec::vgg19(),
                    ModelSpec::sockeye(),
                ] {
                    for strategy in [
                        SyncStrategy::baseline(),
                        SyncStrategy::slicing_only(),
                        SyncStrategy::p3(),
                    ] {
                        for gbps in FIG7_GBPS {
                            out.push(cfg(model.clone(), strategy.clone(), gbps).with_iters(1, 1));
                        }
                    }
                }
                out
            }
            Shape::ObservedVgg19 => vec![self.observe_base_at(seed, machines).with_slice_trace()],
        }
    }

    /// The untraced configuration the traced pass records, exports and
    /// replays: the observed workload's own run, otherwise the first run
    /// cut to one measured iteration (so its trace stays small).
    pub fn observe_base_at(&self, seed: u64, machines: usize) -> ClusterConfig {
        match self.shape {
            Shape::ObservedVgg19 => ClusterConfig::new(
                ModelSpec::vgg19(),
                SyncStrategy::p3(),
                machines,
                Bandwidth::from_gbps(15.0),
            )
            .with_seed(seed)
            .with_iters(1, 1),
            _ => self
                .configs_at(seed, machines)
                .swap_remove(0)
                .with_iters(0, 1),
        }
    }
}

/// Folds run hashes, in run order, into one rep digest (FNV-1a over the
/// hashes' little-endian bytes). A single run's digest is its own hash.
pub fn fold_digest(hashes: &[u64]) -> u64 {
    if let [only] = hashes {
        return *only;
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in hashes.iter().flat_map(|x| x.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
