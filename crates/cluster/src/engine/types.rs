//! Shared vocabulary of the layered engine: event and message enums,
//! per-endpoint state, and the small helper functions that map them onto
//! the trace vocabulary.
//!
//! Everything here is `pub(crate)` plumbing between the engine layers
//! (worker compute, transport, server, membership, comm backends); nothing
//! is public API.

use crate::egress::EgressUnit;
use p3_core::PrioQueue;
use p3_des::{SimDuration, SimTime, SplitMix64};
use p3_net::{FlowId, MachineId, Priority};
use p3_trace::{ComputePhase, MsgClass};

/// Hard cap on processed events — a run that exceeds it is wedged.
pub(crate) const EVENT_CAP: u64 = 500_000_000;

/// The most machines a run can have: round-membership masks are `u128`
/// bitsets, one bit per worker.
pub const MAX_MACHINES: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    Fwd(usize),
    Bwd(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Role {
    Worker,
    Server,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    StartWorker {
        worker: usize,
    },
    /// `inc` is the worker's incarnation at scheduling time; events from a
    /// pre-crash incarnation are stale and ignored.
    Compute {
        worker: usize,
        phase: Phase,
        inc: u32,
    },
    EgressReady {
        machine: usize,
        role: Role,
        dst: MachineId,
        inc: u32,
    },
    /// A single-consumer egress may admit its next message (the consumer
    /// thread finished serializing the previous one).
    AdmitKick {
        machine: usize,
        role: Role,
    },
    ProcDone {
        server: usize,
    },
    NetWake,
    /// A scheduled straggler episode begins/ends on its worker.
    StragglerStart {
        idx: usize,
    },
    StragglerEnd {
        idx: usize,
    },
    /// A scheduled link degradation begins/ends on its machine.
    LinkDegradeStart {
        idx: usize,
    },
    LinkDegradeEnd {
        idx: usize,
    },
    /// A scheduled worker-process crash / restart.
    Crash {
        idx: usize,
    },
    Rejoin {
        worker: usize,
    },
    /// Retry timeout for one transmission attempt of one message.
    RetryTimer {
        msg_id: u64,
        attempt: u32,
    },
    /// The membership grace period for a crashed worker expired.
    LivenessTimeout {
        worker: usize,
    },
}

impl Ev {
    /// The profiler's dispatch-timer key for this event variant. Static
    /// strings so the hot-loop hook allocates nothing.
    pub(crate) fn dispatch_key(&self) -> &'static str {
        match self {
            Ev::StartWorker { .. } => "dispatch/StartWorker",
            Ev::Compute { .. } => "dispatch/Compute",
            Ev::EgressReady { .. } => "dispatch/EgressReady",
            Ev::AdmitKick { .. } => "dispatch/AdmitKick",
            Ev::ProcDone { .. } => "dispatch/ProcDone",
            Ev::NetWake => "dispatch/NetWake",
            Ev::StragglerStart { .. } => "dispatch/StragglerStart",
            Ev::StragglerEnd { .. } => "dispatch/StragglerEnd",
            Ev::LinkDegradeStart { .. } => "dispatch/LinkDegradeStart",
            Ev::LinkDegradeEnd { .. } => "dispatch/LinkDegradeEnd",
            Ev::Crash { .. } => "dispatch/Crash",
            Ev::Rejoin { .. } => "dispatch/Rejoin",
            Ev::RetryTimer { .. } => "dispatch/RetryTimer",
            Ev::LivenessTimeout { .. } => "dispatch/LivenessTimeout",
        }
    }
}

/// What an in-flight message is, resolved when its flow is delivered.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MsgKind {
    /// Worker → server gradients for one key of one round.
    Push { key: usize, round: u64 },
    /// Server → worker updated parameters.
    Response { key: usize, version: u64 },
    /// Server → worker update notification (baseline only).
    Notify { key: usize, version: u64 },
    /// Worker → server parameter request; answered once `version[key] >=
    /// round`.
    PullReq { key: usize, round: u64 },
    /// Worker → rack-aggregator partial gradient (rack-local placement):
    /// one rack member's contribution, combined in-rack before crossing
    /// the core.
    RackPush { key: usize, round: u64 },
    /// Rack-aggregator → home server combined gradient covering the
    /// workers in `members` (a bitmask). Sums have the same wire size as
    /// one push — that is the PHub-style core-bandwidth saving.
    CombinedPush {
        key: usize,
        round: u64,
        members: u128,
    },
    /// Worker → worker partial-gradient chunk of one collective step
    /// (reduce-scatter phase; ring and halving–doubling backends only).
    ReduceScatter { key: usize, round: u64, step: usize },
    /// Worker → worker aggregated-parameter chunk of one collective step
    /// (allgather phase). Carries the post-collective version, like a
    /// parameter-server `Response`.
    AllGather {
        key: usize,
        version: u64,
        step: usize,
    },
}

/// The endpoint that sends a message kind: the worker process (whose
/// messages die when it crashes) or the colocated server shard.
pub(crate) fn sender_role_of(kind: MsgKind) -> Role {
    match kind {
        MsgKind::Push { .. }
        | MsgKind::PullReq { .. }
        | MsgKind::RackPush { .. }
        | MsgKind::ReduceScatter { .. }
        | MsgKind::AllGather { .. } => Role::Worker,
        MsgKind::Response { .. } | MsgKind::Notify { .. } | MsgKind::CombinedPush { .. } => {
            Role::Server
        }
    }
}

/// Trace vocabulary for a message kind: protocol class, slice key, and
/// round (or version, for server→worker messages and allgather chunks).
pub(crate) fn class_of(kind: MsgKind) -> (MsgClass, usize, u64) {
    match kind {
        MsgKind::Push { key, round } => (MsgClass::Push, key, round),
        MsgKind::Response { key, version } => (MsgClass::Response, key, version),
        MsgKind::Notify { key, version } => (MsgClass::Notify, key, version),
        MsgKind::PullReq { key, round } => (MsgClass::PullRequest, key, round),
        MsgKind::RackPush { key, round } => (MsgClass::RackPush, key, round),
        MsgKind::CombinedPush { key, round, .. } => (MsgClass::CombinedPush, key, round),
        MsgKind::ReduceScatter { key, round, .. } => (MsgClass::ReduceScatter, key, round),
        MsgKind::AllGather { key, version, .. } => (MsgClass::AllGather, key, version),
    }
}

/// Trace vocabulary for a compute phase.
pub(crate) fn trace_phase(phase: Phase) -> (ComputePhase, usize) {
    match phase {
        Phase::Fwd(b) => (ComputePhase::Forward, b),
        Phase::Bwd(b) => (ComputePhase::Backward, b),
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct MsgCtx {
    pub(crate) kind: MsgKind,
    pub(crate) src: usize,
    pub(crate) dst: usize,
    /// Wire size, kept for retransmission.
    pub(crate) bytes: u64,
    /// Network priority, kept so retransmissions re-enter the egress queue
    /// at their original urgency.
    pub(crate) priority: Priority,
    /// Transmission attempts so far (0 = first send).
    pub(crate) attempt: u32,
    /// The message's flow while it is in the fabric. Its completion names
    /// the message back through the flow's tag, which is the message id;
    /// a retry timer that finds none knows the message was lost.
    pub(crate) flow: Option<FlowId>,
}

#[derive(Debug)]
pub(crate) struct WorkerState {
    /// Iterations completed; also the round of the iteration in progress.
    pub(crate) completed: u64,
    pub(crate) received_version: Vec<u64>,
    pub(crate) notified_version: Vec<u64>,
    /// The forward block the worker waits on for parameters, and the
    /// instant it stalled, while it is stalled.
    pub(crate) stall: Option<(usize, SimTime)>,
    /// Accumulated stall time.
    pub(crate) stalled_total: SimDuration,
    pub(crate) started: bool,
    pub(crate) measure_start: Option<SimTime>,
    pub(crate) measure_end: Option<SimTime>,
    pub(crate) jitter: f64,
    /// Compute-time multiplier from an active straggler episode (1.0 when
    /// healthy).
    pub(crate) slowdown: f64,
    /// True while the worker process is down.
    pub(crate) crashed: bool,
    /// True if the process will never restart.
    pub(crate) permanently_dead: bool,
    /// Bumped at every crash; events carrying an older incarnation are
    /// stale echoes of the dead process and are dropped.
    pub(crate) incarnation: u32,
    /// Iteration to restart from after a rejoin: the oldest round whose
    /// push the crash destroyed (re-pushes of already-counted keys are
    /// deduplicated server-side).
    pub(crate) resume_iter: u64,
    /// Start instant of the iteration in progress.
    pub(crate) iter_started: SimTime,
    /// Durations (seconds) of iterations completed inside the measurement
    /// window, for tail quantiles.
    pub(crate) measured_iters: Vec<f64>,
    pub(crate) egress: EgressUnit,
    pub(crate) rng: SplitMix64,
}

#[derive(Debug)]
pub(crate) struct ServerState {
    /// Pending received gradient messages awaiting processing.
    pub(crate) proc_queue: PrioQueue<ProcItem>,
    /// Per-key bitmask of workers whose push was counted this round
    /// (indexed by key; bit per worker). A mask instead of a counter so a
    /// rejoining worker's replayed pushes deduplicate.
    pub(crate) received: Vec<u128>,
    /// Per-key completed rounds (indexed by key).
    pub(crate) version: Vec<u64>,
    /// Workers whose deferred pulls await each key's next version.
    pub(crate) pending_pulls: Vec<Vec<usize>>,
    /// The message currently occupying the processing unit; the unit is
    /// busy exactly while this is `Some`, with one `ProcDone` pending.
    pub(crate) current: Option<ProcItem>,
    pub(crate) egress: EgressUnit,
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProcItem {
    pub(crate) key: usize,
    pub(crate) round: u64,
    /// Representative sender, for tracing (the pushing worker, or the
    /// aggregator machine of a combined push).
    pub(crate) worker: usize,
    /// Workers whose gradients this message carries: a single bit for a
    /// direct push, a whole rack's mask for a combined push.
    pub(crate) members: u128,
}
