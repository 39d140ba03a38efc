//! Experiment configuration and results.

use crate::egress::EgressUnit;
use crate::faults::FaultPlan;
use p3_core::{Egress, SyncStrategy};
use p3_des::snap::SnapshotError;
use p3_des::{SimDuration, SimTime};
use p3_models::{ModelSpec, SampleUnit};
use p3_net::Bandwidth;
use p3_pserver::RetryPolicy;
use p3_topo::{Placement, Topology};

/// Full description of one simulated training run.
///
/// Defaults mirror the paper's testbed: one worker and one colocated server
/// shard per machine, 50 µs message latency, warm-up before measurement
/// (§5.1 averages throughput over steady-state iterations). Each worker
/// computes the model's [`ModelSpec::default_batch`] per iteration at the
/// model's calibrated speed ([`ModelSpec::block_times`]).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines; machine `i` hosts worker `i` and server shard
    /// `i`.
    pub machines: usize,
    /// Per-direction NIC bandwidth of every machine.
    pub bandwidth: Bandwidth,
    /// The model being trained.
    pub model: ModelSpec,
    /// Synchronization strategy under test.
    pub strategy: SyncStrategy,
    /// Iterations discarded before measurement starts.
    pub warmup_iters: u64,
    /// Iterations measured.
    pub measure_iters: u64,
    /// Seed for sharding randomness, compute jitter and worker stagger.
    pub seed: u64,
    /// Endpoint per-message cost (serialization, ps-lite bookkeeping)
    /// charged between consecutive sends of one lane.
    pub msg_overhead: SimDuration,
    /// One-way network latency per message.
    pub latency: SimDuration,
    /// Record machine 0's NIC utilization in 10 ms bins, as the paper
    /// samples `bwm-ng` ([`RunResult::trace`]).
    pub nic_trace: bool,
    /// Record the full slice-lifecycle event trace (`p3-trace`): compute
    /// and stall spans, egress enqueues, wire transfers, server
    /// aggregation, round completions and fault events. Off by default;
    /// recording draws no randomness and schedules nothing, so results are
    /// bit-identical either way.
    pub slice_trace: bool,
    /// Fraction of nominal NIC bandwidth usable as goodput (tc shaping,
    /// TCP incast, ps-lite serialization — calibrated to the paper's
    /// crossover bandwidths, DESIGN.md §6).
    pub net_efficiency: f64,
    /// Single-flow goodput ceiling in bytes/sec: ps-lite serializes each
    /// connection on one core (PHub, Luo et al. 2018). Penalizes the huge
    /// layer-granular messages of the baseline; sliced strategies spread
    /// across connections.
    pub flow_cap: f64,
    /// Optional gradient compression on the wire (§6: compression is
    /// orthogonal to P3 and combinable with it). Shrinks payloads; the
    /// accuracy cost of compression is measured separately by `p3-train`.
    pub wire_compression: Option<WireCompression>,
    /// Injected faults. The default empty plan adds zero overhead and
    /// leaves results bit-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Timeout/retransmit policy, armed only when the fault plan can lose
    /// messages ([`FaultPlan::needs_reliability`]).
    pub retry: RetryPolicy,
    /// How long servers wait for a silent worker before dropping it from
    /// the membership and completing rounds with the survivors.
    pub liveness_timeout: SimDuration,
    /// Optional rack-level topology, with its PS-shard placement. `None`
    /// (the default) is the paper's flat single-switch fabric; `Some`
    /// routes traffic over the compiled link graph (machine ports +
    /// oversubscribed rack uplinks) and must agree with `machines` on the
    /// cluster size. A single-rack topology is simulated
    /// result-identically to the flat fabric.
    pub topology: Option<Topology>,
    /// Which communication backend aggregates gradients: the parameter
    /// server (the paper's setting) or a collective allreduce hosted on
    /// the same engine, network, and fault machinery.
    pub backend: BackendKind,
    /// Emit a [`p3_trace::TraceEvent::StateHash`] trace event every this
    /// many simulator events (requires `slice_trace`). `0` (the default)
    /// disables emission; the rolling hash itself is always maintained and
    /// reported as [`RunResult::event_hash`].
    pub hash_every: u64,
}

/// The gradient-aggregation mechanism of a run.
///
/// All backends share the worker compute engine, the fluid network, the
/// fault machinery, and the trace/audit pipeline; they differ only in how
/// ready gradients travel and how updated parameters come back (the
/// backend hooks, DESIGN.md §11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Sharded parameter server: push → aggregate → pull, under the
    /// configured [`SyncStrategy`](p3_core::SyncStrategy).
    #[default]
    Ps,
    /// Ring allreduce: each slice's gradients circulate in `2(N−1)`
    /// neighbour-to-neighbour chunk steps, one collective in flight at a
    /// time (Horovod-style serialization), scheduled by slice priority.
    Ring,
    /// Recursive halving–doubling allreduce: `2·log₂N` pairwise exchange
    /// steps; requires a power-of-two machine count.
    HalvingDoubling,
}

impl BackendKind {
    /// Stable lower-case name, as accepted by `p3 simulate --backend`.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ps => "ps",
            BackendKind::Ring => "ring",
            BackendKind::HalvingDoubling => "halving-doubling",
        }
    }

    /// The backend whose [`BackendKind::name`] is `name`, if any.
    pub fn from_name(name: &str) -> Option<BackendKind> {
        [
            BackendKind::Ps,
            BackendKind::Ring,
            BackendKind::HalvingDoubling,
        ]
        .into_iter()
        .find(|b| b.name() == name)
    }

    /// True for the collective (non-parameter-server) backends.
    pub fn is_collective(self) -> bool {
        self != BackendKind::Ps
    }
}

/// Payload shrink factors of a lossy compression scheme, as seen by the
/// network (e.g. DGC at 99.9% sparsity pushes ~500× less; the returned
/// update is the union of the workers' selections, so it compresses less).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCompression {
    /// Dense bytes / transmitted bytes for worker→server gradients.
    pub push_ratio: f64,
    /// Dense bytes / transmitted bytes for server→worker updates.
    pub response_ratio: f64,
}

impl WireCompression {
    /// DGC at the given sparsity on a `workers`-machine cluster: pushes
    /// carry index+value pairs for the kept fraction; responses carry the
    /// union across workers (up to `workers×` the kept fraction).
    ///
    /// # Panics
    ///
    /// Panics if sparsity is outside `(0, 1)` or `workers == 0`.
    pub fn dgc(sparsity: f64, workers: usize) -> WireCompression {
        assert!(sparsity > 0.0 && sparsity < 1.0, "bad sparsity {sparsity}");
        assert!(workers > 0, "no workers");
        let kept = 1.0 - sparsity;
        // Index+value doubles per-entry bytes.
        let push_ratio = 1.0 / (kept * 2.0);
        let response_ratio = 1.0 / ((kept * workers as f64).min(1.0) * 2.0);
        WireCompression {
            push_ratio,
            response_ratio,
        }
    }
}

impl ClusterConfig {
    /// A run with the paper's defaults.
    pub fn new(
        model: ModelSpec,
        strategy: SyncStrategy,
        machines: usize,
        bandwidth: Bandwidth,
    ) -> Self {
        ClusterConfig {
            machines,
            bandwidth,
            model,
            strategy,
            warmup_iters: 3,
            measure_iters: 12,
            seed: 0x9e3779b9,
            msg_overhead: SimDuration::from_micros(100),
            latency: SimDuration::from_micros(50),
            nic_trace: false,
            slice_trace: false,
            net_efficiency: 0.25,
            flow_cap: 120e6,
            wire_compression: None,
            faults: FaultPlan::none(),
            retry: RetryPolicy::default(),
            backend: BackendKind::Ps,
            liveness_timeout: SimDuration::from_secs(5),
            topology: None,
            hash_every: 0,
        }
    }

    /// Routes traffic over a rack-level topology instead of the flat
    /// switch. The topology's machine count must equal `machines`
    /// (validated when the run starts).
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables machine 0's NIC utilization trace (see
    /// [`ClusterConfig::nic_trace`]).
    pub fn with_nic_trace(mut self) -> Self {
        self.nic_trace = true;
        self
    }

    /// Overrides warm-up and measured iteration counts.
    pub fn with_iters(mut self, warmup: u64, measure: u64) -> Self {
        assert!(measure > 0, "must measure at least one iteration");
        self.warmup_iters = warmup;
        self.measure_iters = measure;
        self
    }

    /// Enables the slice-lifecycle event trace (see
    /// [`ClusterConfig::slice_trace`]).
    pub fn with_slice_trace(mut self) -> Self {
        self.slice_trace = true;
        self
    }

    /// Whether cross-rack pushes aggregate per rack first: a topology
    /// with [`Placement::RackLocal`].
    pub(crate) fn rack_local(&self) -> bool {
        let placement = self.topology.as_ref().map(Topology::placement);
        placement == Some(Placement::RackLocal)
    }

    /// The send window of every endpoint's single-consumer egress, or
    /// `None` when each endpoint keeps per-destination FIFO lanes.
    /// Collective backends step every worker through strictly ordered
    /// chunk sends, so their egress is always single-lane whatever the
    /// strategy says; the PS backend follows the strategy.
    pub(crate) fn egress_window(&self) -> Option<usize> {
        let single =
            self.backend.is_collective() || matches!(self.strategy.egress, Egress::SingleConsumer);
        single.then_some(self.machines)
    }

    /// A fresh egress unit for one worker or server endpoint, as
    /// [`ClusterConfig::egress_window`] decides.
    pub(crate) fn endpoint_egress(&self) -> EgressUnit {
        match self.egress_window() {
            Some(window) => EgressUnit::single(window),
            None => EgressUnit::per_dest(self.machines),
        }
    }

    /// The audit-relevant facts of this configuration, for embedding in an
    /// exported trace (`p3_trace::export_trace_json`) so `p3 audit` can run
    /// the configuration-gated checks offline.
    pub fn trace_meta(&self) -> p3_trace::TraceMeta {
        let window = self.egress_window();
        p3_trace::TraceMeta {
            machines: self.machines,
            single_consumer: Some(window.is_some()),
            // Per-destination lanes have no window; the meta records the
            // machine count for them.
            window: Some(window.unwrap_or(self.machines)),
            // Uniform per-port capacity only exists on the flat fabric;
            // topology runs bound flows per link, which the flat check
            // cannot express.
            port_bytes_per_sec: self
                .topology
                .is_none()
                .then(|| self.bandwidth.bytes_per_sec() * self.net_efficiency),
            strategy: Some(self.strategy.name().to_string()),
            model: Some(self.model.name().to_string()),
            collective: Some(self.backend.is_collective()),
        }
    }

    /// Installs a fault-injection plan (validated when the run starts).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the timeout/retransmit policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Selects the gradient-aggregation backend (validated when the run
    /// starts: halving–doubling needs a power-of-two cluster, and the
    /// collective backends reject crash plans and wire compression).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Emits a rolling state-hash trace event every `every` simulator
    /// events (and enables the slice trace, which carries them). Two runs
    /// of the same configuration record identical hash streams; comparing
    /// streams of two diverging configurations bisects the divergence to
    /// the first differing event.
    pub fn with_state_hash_every(mut self, every: u64) -> Self {
        self.hash_every = every;
        self.slice_trace = true;
        self
    }
}

/// A per-machine NIC utilization trace pair, in Gbps per bin.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTrace {
    /// Bin width.
    pub bin: SimDuration,
    /// Outbound (transmit) Gbps per bin.
    pub tx_gbps: Vec<f64>,
    /// Inbound (receive) Gbps per bin.
    pub rx_gbps: Vec<f64>,
}

/// Delivered-message counts over a whole run, by protocol type — the
/// protocol-conformance ledger (every strategy has an exactly predictable
/// message budget, which the test suite pins).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Worker→server gradient pushes delivered.
    pub pushes: u64,
    /// Server→worker parameter responses delivered.
    pub responses: u64,
    /// Server→worker update notifications delivered (baseline only).
    pub notifies: u64,
    /// Worker→server pull requests delivered.
    pub pull_requests: u64,
    /// Worker→rack-aggregator partial pushes delivered (rack-local
    /// placement only).
    pub rack_pushes: u64,
    /// Rack-aggregator→server combined pushes delivered (rack-local
    /// placement only).
    pub combined_pushes: u64,
    /// Worker→worker collective chunks delivered (reduce-scatter plus
    /// allgather; ring and halving–doubling backends only).
    pub collective_chunks: u64,
}

/// Counters of everything the fault-injection and reliability machinery
/// did during a run. All-zero for an empty [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages dropped by the lossy network.
    pub messages_lost: u64,
    /// Retransmissions sent after a retry timeout.
    pub retransmits: u64,
    /// Messages abandoned after exhausting the retry budget.
    pub gave_up: u64,
    /// Gradient pushes discarded because their round had already completed
    /// (re-sent by a rejoining worker, or raced a degraded completion).
    pub stale_pushes_dropped: u64,
    /// Gradient pushes discarded because the same worker already
    /// contributed to that round (duplicates from a crash/rejoin replay).
    pub duplicate_pushes_dropped: u64,
    /// Key-rounds completed without a gradient from every configured
    /// worker (graceful degradation after a liveness timeout).
    pub degraded_rounds: u64,
    /// In-flight transmissions cancelled by worker crashes.
    pub flows_cancelled: u64,
    /// Collectives aborted mid-flight by a membership change and
    /// relaunched over the surviving group (ring / halving–doubling
    /// backends only).
    pub collectives_aborted: u64,
}

/// Traffic carried by one link of a compiled topology over a whole run.
///
/// Only populated when the run had a [`Topology`]; the flat fabric reports
/// an empty list.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkUtilization {
    /// Link name from the compiled graph (`m3.tx`, `rack1.up`, …).
    pub name: String,
    /// Fraction of the run during which at least one flow crossed the
    /// link.
    pub busy_fraction: f64,
    /// Total bytes carried.
    pub bytes: f64,
    /// True for shared fabric links (rack uplinks/downlinks) as opposed to
    /// per-machine NIC ports.
    pub transit: bool,
}

/// Why a simulated run could not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The event queue drained before every worker reached its iteration
    /// target; `progress` is each worker's completed-iteration count.
    Deadlock {
        /// Iterations completed per worker when the queue drained.
        progress: Vec<u64>,
    },
    /// The run processed more events than the safety cap — a wedged or
    /// pathologically slow configuration.
    EventCapExceeded {
        /// The cap that was hit.
        cap: u64,
    },
    /// The configuration is self-contradictory (e.g. a fault plan naming a
    /// machine that does not exist).
    InvalidConfig(String),
    /// A snapshot file could not be decoded (truncated, corrupt, wrong
    /// version, or taken under a different configuration).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock { progress } => {
                write!(
                    f,
                    "simulation deadlocked: no events left, progress {progress:?}"
                )
            }
            RunError::EventCapExceeded { cap } => {
                write!(f, "event cap {cap} exceeded — wedged simulation")
            }
            RunError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            RunError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Aggregate cluster throughput in samples/sec (the paper's y-axis).
    pub throughput: f64,
    /// Unit of `throughput` (images or sentences per second).
    pub unit: SampleUnit,
    /// Mean measured iteration duration across workers.
    pub mean_iteration: SimDuration,
    /// Median measured iteration duration, pooled across workers.
    pub p50_iteration: SimDuration,
    /// 99th-percentile measured iteration duration, pooled across workers
    /// (the tail that stragglers and faults stretch).
    pub p99_iteration: SimDuration,
    /// Mean fraction of wall time workers spent stalled waiting for
    /// parameters (the paper's "Delay" made measurable).
    pub mean_stall_fraction: f64,
    /// Total time each worker spent stalled waiting for parameters, over
    /// the whole run (warm-up included), indexed by machine.
    pub stalled_per_worker: Vec<SimDuration>,
    /// Simulated instant at which the last worker finished measuring.
    pub finished_at: SimTime,
    /// Total simulator events processed (diagnostics).
    pub events: u64,
    /// Most flows ever simultaneously in the network — a deterministic
    /// measure of how much concurrent traffic the run drove (and of the
    /// allocator work each reallocation performed). Snapshot-carried, so a
    /// resumed run reports the same peak.
    pub peak_in_flight_flows: u64,
    /// Rolling state hash folded over every processed `(time, event)`
    /// pair. Two runs of the same configuration finish with equal hashes;
    /// it is the cheap digest for run-twice and resume-equivalence
    /// comparisons.
    pub event_hash: u64,
    /// Delivered-message counts by protocol type.
    pub messages: MessageStats,
    /// Fault-injection and reliability counters (all zero without faults).
    pub faults: FaultStats,
    /// Machine-0 NIC trace, when tracing was enabled.
    pub trace: Option<UtilizationTrace>,
    /// Per-link traffic totals of the compiled topology (empty on the flat
    /// fabric).
    pub links: Vec<LinkUtilization>,
    /// Engine self-profile (wall-clock timers, work counters, events/sec),
    /// present only when the run was started via
    /// [`ClusterSim::with_profiling`](crate::ClusterSim::with_profiling).
    /// Wall-clock readings vary run to run; every determinism-sensitive
    /// field of this struct is independent of whether profiling was on.
    pub profile: Option<p3_prof::ProfileReport>,
}

impl RunResult {
    /// Speedup of this run's throughput over a baseline run.
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        self.throughput / baseline.throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for backend in [
            BackendKind::Ps,
            BackendKind::Ring,
            BackendKind::HalvingDoubling,
        ] {
            // Exhaustive: a new variant must be added to this list.
            match backend {
                BackendKind::Ps | BackendKind::Ring | BackendKind::HalvingDoubling => {}
            }
            assert_eq!(BackendKind::from_name(backend.name()), Some(backend));
        }
        assert_eq!(BackendKind::from_name("gossip"), None);
        assert_eq!(BackendKind::from_name("Ring"), None);
    }

    #[test]
    fn defaults_follow_the_paper() {
        let cfg = ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(10.0),
        );
        assert_eq!(cfg.machines, 4);
        assert!(cfg.warmup_iters > 0);
    }

    #[test]
    #[should_panic(expected = "must measure at least one iteration")]
    fn zero_measure_rejected() {
        // Warm-up alone does not make a run: there would be nothing to
        // report.
        ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            2,
            Bandwidth::from_gbps(1.0),
        )
        .with_iters(2, 0);
    }

    #[test]
    fn speedup_ratio() {
        let mk = |t: f64| RunResult {
            throughput: t,
            unit: SampleUnit::Images,
            mean_iteration: SimDuration::from_secs(1),
            p50_iteration: SimDuration::from_secs(1),
            p99_iteration: SimDuration::from_secs(1),
            mean_stall_fraction: 0.1,
            stalled_per_worker: vec![SimDuration::from_millis(100); 4],
            finished_at: SimTime::from_secs(10),
            events: 0,
            peak_in_flight_flows: 0,
            event_hash: 0,
            messages: MessageStats::default(),
            faults: FaultStats::default(),
            trace: None,
            links: Vec::new(),
            profile: None,
        };
        assert!((mk(150.0).speedup_over(&mk(100.0)) - 1.5).abs() < 1e-12);
    }
}
