//! The layered event-driven cluster engine: workers computing
//! forward/backward passes, a pluggable communication backend moving
//! gradients and parameters, all traffic flowing through the fluid network.
//!
//! The engine is split into composable layers (DESIGN.md §11):
//!
//! - [`worker`] — the compute engine: forward/backward scheduling, stall
//!   accounting, iteration bookkeeping, jitter.
//! - [`transport`] — the network adapter: the endpoints' egress units
//!   (which decide admission and lane release, [`crate::egress`]), flow
//!   start/delivery, loss draws, retry timers, trace recording.
//! - [`server`] — the parameter-server engine: shard processing queues,
//!   aggregation, round completion, response fan-out, rack aggregation.
//! - [`membership`] — crash/rejoin/eviction handling.
//! - [`backend`] — the backend hooks, each a `match` on
//!   [`BackendKind`]: how ready gradients travel and how parameters come
//!   back. The PS backend implements the paper's push→aggregate→pull; the
//!   collective backend ([`collective`]) replays `p3-allreduce`'s ring and
//!   halving–doubling schedules on the same engine.
//!
//! An optional [`FaultPlan`](crate::FaultPlan) injects stragglers, degraded
//! links, message loss, and worker crashes. Loss and crashes arm a
//! timeout/retransmit layer ([`RetryPolicy`](p3_pserver::RetryPolicy)); a
//! worker silent past the liveness timeout is dropped from the membership
//! and rounds complete with the survivors' gradients (graceful
//! degradation). The empty plan schedules no fault events and draws no
//! extra randomness, so fault-free results stay bit-identical.

mod backend;
mod check;
mod collective;
mod membership;
mod msg_table;
mod results;
mod server;
mod snapshot;
mod transport;
mod types;
mod worker;

#[cfg(test)]
mod fault_tests;
#[cfg(test)]
mod fixtures;
#[cfg(test)]
mod tests;

use crate::config::{BackendKind, ClusterConfig, FaultStats, MessageStats, RunError, RunResult};
use collective::CollectiveState;
use msg_table::MsgTable;
use p3_allreduce::{CollectiveSchedule, ScheduleKind};
use p3_core::PrioQueue;
use p3_des::snap::SnapshotError;
use p3_des::{EventQueue, SimDuration, SimTime, SplitMix64};
use p3_models::BlockTiming;
use p3_net::{MachineId, Network, NetworkConfig};
use p3_prof::{SimProfiler, SpanToken};
use p3_pserver::ShardPlan;
use p3_trace::{TraceEvent, TraceLog};
use std::collections::BTreeMap;
pub use types::MAX_MACHINES;
use types::{trace_phase, Ev, Phase, Role, ServerState, WorkerState, EVENT_CAP};

/// One fully configured simulation, ready to [`ClusterSim::run`].
///
/// Every run goes through one driver, [`ClusterSim::run_until`], which
/// pauses at an iteration boundary. [`ClusterSim::try_run_traced`] drives
/// it to the end; taking a [`ClusterSim::snapshot`] whenever it pauses
/// is how runs are checkpointed, and [`ClusterSim::restore`] continues one.
///
/// # Examples
///
/// ```
/// use p3_cluster::{ClusterConfig, ClusterSim};
/// use p3_core::SyncStrategy;
/// use p3_models::ModelSpec;
/// use p3_net::Bandwidth;
///
/// let cfg = ClusterConfig::new(
///     ModelSpec::resnet50(),
///     SyncStrategy::p3(),
///     4,
///     Bandwidth::from_gbps(10.0),
/// ).with_iters(1, 2);
/// let result = ClusterSim::new(cfg).run();
/// assert!(result.throughput > 0.0);
/// ```
#[derive(Debug)]
pub struct ClusterSim {
    cfg: ClusterConfig,
    queue: EventQueue<Ev>,
    net: Network,
    workers: Vec<WorkerState>,
    servers: Vec<ServerState>,
    plan: ShardPlan,
    prio: Vec<u32>,
    /// Forward/backward durations per compute block for a full batch.
    block_times: Vec<BlockTiming>,
    /// Key indices per compute block, in block order.
    keys_of_block: Vec<Vec<usize>>,
    /// Every live message, by id; a message in the fabric also carries
    /// its flow.
    msgs: MsgTable,
    next_msg_id: u64,
    next_wake: Option<SimTime>,
    /// The fabric changed since its next event was last asked for (see
    /// [`ClusterSim::schedule_net_wake`]). Never snapshotted: a restored
    /// engine starts with it set.
    wake_pending: bool,
    events: u64,
    stats: MessageStats,
    /// Dedicated RNG stream for message-loss draws, independent of the
    /// placement/jitter streams so enabling loss perturbs nothing else.
    loss_rng: SplitMix64,
    /// Workers evicted from the aggregation membership after a liveness
    /// timeout; servers neither expect their pushes nor send to them.
    dead_members: Vec<bool>,
    /// Pushes required to complete a round (live membership size).
    expected_pushes: u32,
    faults: FaultStats,
    /// The slice-lifecycle trace, present only when
    /// [`ClusterConfig::slice_trace`] is set. The engine is its one
    /// writer, wire starts and deliveries included. Recording draws no
    /// randomness and schedules nothing, so results are bit-identical with
    /// it on or off.
    trace_log: Option<TraceLog>,
    /// Partial-sum state of rack-local aggregation: (aggregator machine,
    /// key, round) → mask of rack members whose gradient has arrived.
    rack_agg: BTreeMap<(usize, usize, u64), u128>,
    /// Collective-backend state (ring / halving–doubling schedules and the
    /// one-at-a-time active collective); `None` under the PS backend.
    /// Boxed, because each backend handler takes it out and puts it back.
    collective: Option<Box<CollectiveState>>,
    /// Rolling FNV-1a hash folded over every processed `(time, event)`
    /// pair — the per-event digest that localizes a divergence between two
    /// runs to the exact event (see [`p3_trace::TraceEvent::StateHash`]).
    hash: u64,
    /// A configuration contradiction detected during construction,
    /// surfaced as [`RunError::InvalidConfig`] when the run starts
    /// (construction itself is infallible).
    config_error: Option<String>,
    /// Engine self-profiler, present only with
    /// [`ClusterSim::with_profiling`]. Never snapshotted and never read by
    /// simulation logic: it only accumulates wall-clock spans and copies of
    /// already-deterministic counters, so a profiled run's event stream is
    /// bit-identical to an unprofiled one (pinned by test).
    prof: Option<SimProfiler>,
    /// Whether the run has been validated and seeded — by the first
    /// [`ClusterSim::run_until`], or already in the original run when
    /// this engine came from [`ClusterSim::restore`].
    started: bool,
}

/// Bin width of machine 0's NIC utilization trace
/// ([`ClusterConfig::nic_trace`]): the paper samples `bwm-ng` at 10 ms.
const NIC_TRACE_BIN: SimDuration = SimDuration::from_millis(10);

impl ClusterSim {
    /// Builds the simulation state for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero machines).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.machines > 0, "at least one machine required");
        let mut config_error = None;
        let mut plan = cfg.strategy.plan(&cfg.model, cfg.machines, cfg.seed);
        let active_topo = match &cfg.topology {
            Some(t) if t.machines() != cfg.machines => {
                config_error = Some(format!(
                    "topology covers {} machines but the cluster has {}",
                    t.machines(),
                    cfg.machines
                ));
                None
            }
            other => other.as_ref(),
        };
        if let Some(topo) = active_topo {
            plan.map_servers(|s| topo.place_server(s));
        }
        let prio = cfg.strategy.priorities(&plan);
        let block_times = cfg.model.block_times();

        // Map arrays to compute blocks, then keys to blocks.
        let mut block_of_array = Vec::new();
        for (b, blk) in cfg.model.blocks().iter().enumerate() {
            for _ in &blk.arrays {
                block_of_array.push(b);
            }
        }
        let mut keys_of_block: Vec<Vec<usize>> = vec![Vec::new(); cfg.model.blocks().len()];
        for (k, s) in plan.slices().iter().enumerate() {
            keys_of_block[block_of_array[s.array]].push(k);
        }

        let net_cfg = {
            let mut c = NetworkConfig::new(cfg.machines, cfg.bandwidth)
                .with_latency(cfg.latency)
                .with_efficiency(cfg.net_efficiency)
                .with_flow_cap(cfg.flow_cap);
            if cfg.nic_trace {
                c = c.with_trace(NIC_TRACE_BIN);
            }
            if let Some(topo) = active_topo {
                c = c.with_link_graph(topo.compile(cfg.bandwidth));
            }
            c
        };

        let num_keys = plan.num_keys();
        let collective = match cfg.backend {
            BackendKind::Ps => None,
            BackendKind::Ring | BackendKind::HalvingDoubling => {
                let kind = if cfg.backend == BackendKind::Ring {
                    ScheduleKind::Ring
                } else {
                    ScheduleKind::HalvingDoubling
                };
                match CollectiveSchedule::new(kind, cfg.machines) {
                    Ok(schedule) => Some(Box::new(CollectiveState::new(
                        schedule,
                        cfg.model.blocks().len(),
                        num_keys,
                    ))),
                    Err(why) => {
                        config_error.get_or_insert(why);
                        None
                    }
                }
            }
        };
        let mut rng = SplitMix64::new(cfg.seed ^ 0xC0FF_EE00);
        let workers = (0..cfg.machines)
            .map(|_| WorkerState {
                completed: 0,
                received_version: vec![0; num_keys],
                notified_version: vec![0; num_keys],
                stall: None,
                stalled_total: SimDuration::ZERO,
                started: false,
                measure_start: None,
                measure_end: None,
                jitter: 1.0,
                slowdown: 1.0,
                crashed: false,
                permanently_dead: false,
                incarnation: 0,
                resume_iter: 0,
                iter_started: SimTime::ZERO,
                measured_iters: Vec::new(),
                egress: cfg.endpoint_egress(),
                rng: rng.fork(),
            })
            .collect();
        let servers = (0..cfg.machines)
            .map(|_| ServerState {
                proc_queue: PrioQueue::new(),
                received: vec![0; num_keys],
                version: vec![0; num_keys],
                pending_pulls: vec![Vec::new(); num_keys],
                current: None,
                egress: cfg.endpoint_egress(),
            })
            .collect();

        ClusterSim {
            queue: EventQueue::new(),
            net: Network::new(net_cfg),
            workers,
            servers,
            plan,
            prio,
            block_times,
            keys_of_block,
            msgs: MsgTable::default(),
            next_msg_id: 0,
            next_wake: None,
            wake_pending: false,
            events: 0,
            stats: MessageStats::default(),
            loss_rng: SplitMix64::new(cfg.seed ^ 0x10_55_10_55),
            dead_members: vec![false; cfg.machines],
            expected_pushes: cfg.machines as u32,
            faults: FaultStats::default(),
            trace_log: cfg.slice_trace.then(TraceLog::new),
            rack_agg: BTreeMap::new(),
            collective,
            hash: 0,
            config_error,
            prof: None,
            started: false,
            cfg,
        }
    }

    /// Enables engine self-profiling: scoped wall-clock timers around the
    /// hot paths (per-event-type dispatch, network polling, flow starts,
    /// backend delivery) plus the network's deterministic work counters,
    /// frozen into [`RunResult::profile`] when the run finishes.
    ///
    /// Profiling is observation-only — it draws no randomness, schedules
    /// nothing, and feeds no wall-clock value back into simulation state —
    /// so results stay bit-identical with it on or off.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.prof = Some(SimProfiler::new());
        self
    }

    /// Opens a profiler span, or `None` when profiling is off (one untaken
    /// branch — the unprofiled hot path stays clean).
    #[inline]
    pub(crate) fn prof_begin(&self) -> Option<SpanToken> {
        self.prof.as_ref().map(|p| p.begin())
    }

    /// Closes a span opened by [`ClusterSim::prof_begin`].
    #[inline]
    pub(crate) fn prof_end(&mut self, key: &'static str, span: Option<SpanToken>) {
        if let (Some(p), Some(s)) = (&mut self.prof, span) {
            p.record(key, s);
        }
    }

    /// Runs to completion and reports measured throughput.
    ///
    /// # Panics
    ///
    /// Panics on any [`RunError`]: an invalid fault plan, a deadlocked
    /// simulation, or an exceeded event cap. Sweeps over possibly-bad
    /// configurations should prefer [`ClusterSim::try_run`].
    #[expect(
        clippy::panic,
        reason = "run is the documented panicking form of try_run"
    )]
    pub fn run(self) -> RunResult {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs to completion, returning a structured error instead of
    /// panicking when the configuration is invalid or the run wedges.
    pub fn try_run(self) -> Result<RunResult, RunError> {
        self.try_run_traced().map(|(result, _)| result)
    }

    /// Runs to completion, returning the measured result together with the
    /// recorded slice-lifecycle trace (present when
    /// [`ClusterConfig::slice_trace`] is set).
    ///
    /// On an engine from [`ClusterSim::restore`] this continues the run
    /// without re-validating or re-seeding it — that happened in the
    /// original run and lives in the snapshot's event queue. The returned
    /// trace then covers only the resumed portion (a bit-identical suffix
    /// of the uninterrupted run's trace).
    pub fn try_run_traced(mut self) -> Result<(RunResult, Option<TraceLog>), RunError> {
        // Run to the end first: validation refuses an iteration count
        // whose warmup + measure sum overflows.
        self.run_until(u64::MAX)?;
        let target = self.cfg.warmup_iters + self.cfg.measure_iters;
        let log = self.trace_log.take();
        Ok((self.finish(target), log))
    }

    /// Processes events until no live worker has completed fewer than
    /// `iteration` iterations (capped at the run's warmup + measure
    /// target), then pauses and returns the slowest live worker's
    /// completed count. The first call on a fresh engine validates the
    /// configuration and seeds the event queue.
    ///
    /// Pausing perturbs nothing: finishing with
    /// [`ClusterSim::try_run_traced`] gives the uninterrupted result, and
    /// a [`ClusterSim::snapshot`] taken here restores and finishes
    /// bit-identically. This is how runs are checkpointed (`p3 simulate
    /// --snapshot-every`).
    ///
    /// # Errors
    ///
    /// Any [`RunError`]: an invalid configuration, a deadlock, or an
    /// exceeded event cap.
    pub fn run_until(&mut self, iteration: u64) -> Result<u64, RunError> {
        self.drive(iteration, EVENT_CAP)
    }

    /// [`ClusterSim::run_until`] with the processed-event cap `cap`.
    fn drive(&mut self, iteration: u64, cap: u64) -> Result<u64, RunError> {
        if !self.started {
            self.validate()?;
            self.begin();
            self.started = true;
        }
        // The rolling hash folds each `(time, event)` pair *before*
        // dispatch, so a `StateHash` trace row at event `n` commits to the
        // first `n` events processed.
        let bound = iteration.min(self.cfg.warmup_iters + self.cfg.measure_iters);
        while self
            .workers
            .iter()
            .any(|w| !w.permanently_dead && w.completed < bound)
        {
            let Some((t, ev)) = self.queue.pop() else {
                return Err(RunError::Deadlock {
                    progress: self.workers.iter().map(|w| w.completed).collect(),
                });
            };
            self.events += 1;
            if self.events >= cap {
                return Err(RunError::EventCapExceeded { cap });
            }
            self.hash = snapshot::fold_event(self.hash, t, &ev);
            let span = self.prof_begin();
            let key = ev.dispatch_key();
            self.dispatch(ev);
            self.prof_end(key, span);
            // The last event of an instant flushes the deferred wake query.
            if self.wake_pending && self.queue.peek_time().is_none_or(|next| next > t) {
                self.flush_net_wake();
            }
            if self.cfg.hash_every > 0 && self.events.is_multiple_of(self.cfg.hash_every) {
                self.trace(TraceEvent::StateHash {
                    events: self.events,
                    hash: self.hash,
                });
            }
            #[cfg(test)]
            if check::each_event(self)? {
                break;
            }
        }
        Ok(self
            .workers
            .iter()
            .filter(|w| !w.permanently_dead)
            .map(|w| w.completed)
            .min()
            .unwrap_or(0))
    }

    /// Reconstructs a mid-run simulation from [`ClusterSim::snapshot`]
    /// bytes, ready for [`ClusterSim::try_run_traced`] to continue. The
    /// configuration must be the one the snapshot was taken under
    /// (checked via a fingerprint in the header).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: truncated/corrupt bytes, wrong magic or
    /// format version, or a configuration mismatch.
    pub fn restore(cfg: ClusterConfig, bytes: &[u8]) -> Result<ClusterSim, SnapshotError> {
        let mut sim = snapshot::restore(cfg, bytes)?;
        sim.started = true;
        // The snapshot may have been taken mid-instant with the wake query
        // still deferred. Flushing again when it was not is a no-op: a
        // flush leaves a wake at or before the fabric's next event, and
        // nothing moves that event without deferring another query.
        sim.wake_pending = true;
        Ok(sim)
    }

    /// Serializes the complete dynamic engine state (clock, pending
    /// events, network flows, endpoint queues, RNG streams, counters) into
    /// a versioned byte stream. The one field walk in
    /// `engine/snapshot/walk.rs` is the format. Takes
    /// `&mut self` because the one field walk that writes a snapshot also
    /// reads one back. Writing leaves the run as it was: the fabric
    /// allocates any stale rates first, which only its work counters see.
    pub fn snapshot(&mut self) -> Vec<u8> {
        snapshot::snapshot(self)
    }

    /// Rolling per-event hash folded so far (also reported as
    /// [`RunResult::event_hash`] when the run finishes).
    pub fn event_hash(&self) -> u64 {
        self.hash
    }

    /// Static configuration checks, run before the first event.
    fn validate(&self) -> Result<(), RunError> {
        if self.cfg.machines > MAX_MACHINES {
            return Err(RunError::InvalidConfig(format!(
                "{} machines exceeds the {MAX_MACHINES}-machine membership mask",
                self.cfg.machines
            )));
        }
        if let Some(why) = &self.config_error {
            return Err(RunError::InvalidConfig(why.clone()));
        }
        if self
            .cfg
            .warmup_iters
            .checked_add(self.cfg.measure_iters)
            .is_none()
        {
            return Err(RunError::InvalidConfig(format!(
                "{} warmup + {} measured iterations overflows the iteration counter",
                self.cfg.warmup_iters, self.cfg.measure_iters
            )));
        }
        self.cfg
            .faults
            .validate(self.cfg.machines)
            .map_err(RunError::InvalidConfig)?;
        // A block a straggler starts, at the slowest block's time, the
        // largest jitter and the slowdown, ends within the simulated clock.
        let slowest = self.block_times.iter().map(|b| b.fwd.max(b.bwd)).max();
        let slowest = slowest.unwrap_or_default().as_nanos() as f64;
        for s in &self.cfg.faults.stragglers {
            let left = u64::MAX - (s.start + s.duration).as_nanos();
            if slowest * (worker::JITTER.1 * s.slowdown) >= left as f64 {
                let why = format!(
                    "straggler slowdown {:e} runs a block past the clock",
                    s.slowdown
                );
                return Err(RunError::InvalidConfig(why));
            }
        }
        if self.cfg.rack_local()
            && (self.cfg.faults.loss_probability > 0.0 || !self.cfg.faults.crashes.is_empty())
        {
            return Err(RunError::InvalidConfig(
                "rack-local aggregation does not support message loss or worker crashes".into(),
            ));
        }
        if self.cfg.backend.is_collective() && self.cfg.wire_compression.is_some() {
            return Err(RunError::InvalidConfig(
                "wire compression is not yet modelled for collective backends".into(),
            ));
        }
        Ok(())
    }

    /// Seeds the event queue: staggered worker starts and the fault plan.
    fn begin(&mut self) {
        // Staggered worker starts model real cluster skew: each worker
        // starts at a random offset below `START_STAGGER_NS` (2 ms).
        const START_STAGGER_NS: f64 = 2e6;
        let mut rng = SplitMix64::new(self.cfg.seed ^ 0x051A_66E2);
        for w in 0..self.cfg.machines {
            let off = SimTime::from_nanos((rng.next_f64() * START_STAGGER_NS) as u64);
            self.queue.schedule_at(off, Ev::StartWorker { worker: w });
        }
        self.schedule_fault_plan();
    }

    /// Schedules every episode of the fault plan. An empty plan schedules
    /// nothing at all — fault-free runs pay zero overhead.
    fn schedule_fault_plan(&mut self) {
        for (i, s) in self.cfg.faults.stragglers.iter().enumerate() {
            self.queue
                .schedule_at(s.start, Ev::StragglerStart { idx: i });
            self.queue
                .schedule_at(s.start + s.duration, Ev::StragglerEnd { idx: i });
        }
        for (i, d) in self.cfg.faults.link_degradations.iter().enumerate() {
            self.queue
                .schedule_at(d.start, Ev::LinkDegradeStart { idx: i });
            self.queue
                .schedule_at(d.start + d.duration, Ev::LinkDegradeEnd { idx: i });
        }
        for (i, c) in self.cfg.faults.crashes.iter().enumerate() {
            self.queue.schedule_at(c.at, Ev::Crash { idx: i });
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev {
            Ev::StartWorker { worker } => {
                let now = self.queue.now();
                if self.workers[worker].crashed {
                    // Crashed before ever starting; Rejoin boots it.
                    return;
                }
                let w = &mut self.workers[worker];
                w.started = true;
                w.iter_started = now;
                if self.cfg.warmup_iters == 0 {
                    w.measure_start = Some(now);
                }
                self.resample_jitter(worker);
                self.try_start_fwd(worker, 0);
            }
            Ev::Compute { worker, phase, inc } => {
                if self.workers[worker].incarnation != inc {
                    return; // echo of a crashed incarnation
                }
                let (tp, block) = trace_phase(phase);
                self.trace(TraceEvent::ComputeEnd {
                    worker,
                    phase: tp,
                    block,
                });
                match phase {
                    Phase::Fwd(b) => self.on_fwd_done(worker, b),
                    Phase::Bwd(b) => self.on_bwd_done(worker, b),
                }
            }
            Ev::EgressReady {
                machine,
                role,
                dst,
                inc,
            } => {
                if role == Role::Worker && self.workers[machine].incarnation != inc {
                    return; // the egress unit this completion refers to is gone
                }
                self.egress_mut(machine, role).complete(dst);
                self.kick_egress(machine, role);
            }
            Ev::AdmitKick { machine, role } => {
                let now = self.queue.now();
                self.egress_mut(machine, role).kicked(now);
                self.kick_egress(machine, role);
            }
            Ev::ProcDone { server } => self.on_proc_done(server),
            Ev::NetWake => {
                let now = self.queue.now();
                if self.next_wake == Some(now) {
                    self.next_wake = None;
                }
                let span = self.prof_begin();
                let done = self.net.poll(now);
                self.prof_end("net/poll", span);
                // Every delivery is traced before any is handled.
                if let Some(log) = &mut self.trace_log {
                    for f in &done {
                        let event = TraceEvent::WireEnd {
                            msg_id: f.tag,
                            src: f.src.0,
                            dst: f.dst.0,
                            bytes: f.bytes,
                            bottleneck: f.bottleneck,
                        };
                        log.record(now, event);
                    }
                }
                for flow in done {
                    self.on_delivered(flow.tag);
                }
                self.schedule_net_wake();
            }
            Ev::StragglerStart { idx } => {
                let s = self.cfg.faults.stragglers[idx];
                self.workers[s.worker].slowdown = s.slowdown;
            }
            Ev::StragglerEnd { idx } => {
                let s = self.cfg.faults.stragglers[idx];
                self.workers[s.worker].slowdown = 1.0;
            }
            Ev::LinkDegradeStart { idx } => {
                let d = self.cfg.faults.link_degradations[idx];
                let now = self.queue.now();
                self.net.set_port_scale(
                    now,
                    MachineId(d.machine),
                    d.capacity_factor,
                    d.capacity_factor,
                );
                self.schedule_net_wake();
            }
            Ev::LinkDegradeEnd { idx } => {
                let d = self.cfg.faults.link_degradations[idx];
                let now = self.queue.now();
                self.net.set_port_scale(now, MachineId(d.machine), 1.0, 1.0);
                self.schedule_net_wake();
            }
            Ev::Crash { idx } => self.on_crash(idx),
            Ev::Rejoin { worker } => self.on_rejoin(worker),
            Ev::RetryTimer { msg_id, attempt } => self.on_retry_timer(msg_id, attempt),
            Ev::LivenessTimeout { worker } => self.on_liveness_timeout(worker),
        }
    }
}
