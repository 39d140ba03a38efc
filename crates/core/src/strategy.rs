//! Synchronization strategies: the baseline, P3 itself, the framework
//! variants the paper measures against (TensorFlow-style, Poseidon WFBP),
//! and ablations of P3's design choices.
//!
//! A strategy is pure configuration — five orthogonal knobs — executed by
//! the cluster simulator in `p3-cluster`. Keeping strategies declarative
//! makes the ablations in the paper (slicing without priority, priority
//! without immediate broadcast, …) one-liners, and guarantees every
//! strategy drives the identical server/network machinery.

use crate::slicing::{p3_plan, DEFAULT_SLICE_PARAMS};
use p3_des::SplitMix64;
use p3_models::ModelSpec;
use p3_pserver::{ShardPlan, KVSTORE_SPLIT_THRESHOLD};

/// How parameter arrays map to store keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slicing {
    /// MXNet KVStore: split arrays of [`KVSTORE_SPLIT_THRESHOLD`] or more
    /// parameters into one part per server, place small arrays randomly
    /// (§4.1).
    KvstoreLayerwise,
    /// Strictly one key per array, never split (Poseidon's layer-granular
    /// wait-free backprop).
    LayerwiseNoSplit,
    /// P3: bounded-size slices placed round-robin (§4.2).
    MaxParams(
        /// Maximum parameters per slice.
        u64,
    ),
}

/// How a worker's outbound traffic is scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Egress {
    /// One FIFO connection per server; connections transmit concurrently
    /// (baseline frameworks over TCP).
    PerServerFifo,
    /// P3Worker: a single consumer thread drains one priority queue with
    /// blocking sends, most urgent message first. A send returns once the
    /// message is buffered, so the cluster simulator admits one message
    /// per per-message cost and keeps up to one per machine in flight.
    SingleConsumer,
}

/// How a server orders gradient processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerProcessing {
    /// Arrival order.
    Fifo,
    /// P3Server: a priority queue keyed by the header priority.
    Priority,
}

/// How updated parameters return to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseMode {
    /// KVStore: notify all workers, each issues a pull request, server
    /// answers (two extra half-round-trips, and MXNet only pulls once all
    /// parts of a layer updated).
    NotifyThenPull,
    /// P3: broadcast the updated slice to every worker immediately (§4.2).
    ImmediateBroadcast,
}

/// When workers issue pulls for updated parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullTiming {
    /// As soon as the update notification arrives (MXNet).
    Eager,
    /// Not before the next iteration's graph execution starts (TensorFlow's
    /// per-iteration graph boundary, §2 and Fig. 13).
    NextIterationStart,
}

/// How slice priorities are assigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorityMode {
    /// P3: priority = forward-pass consumption order; the first layer is
    /// the most urgent.
    Consumption,
    /// Generation order: the last layer (whose gradients appear first) is
    /// the most urgent — what plain FIFO achieves; used as an ablation.
    Generation,
    /// All slices equal; FIFO tie-breaking decides (slicing-only variant).
    Uniform,
    /// Random per-array priorities (ablation).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

/// A complete synchronization strategy.
///
/// # Examples
///
/// ```
/// use p3_core::SyncStrategy;
/// use p3_models::ModelSpec;
///
/// let p3 = SyncStrategy::p3();
/// let model = ModelSpec::vgg19();
/// let plan = p3.plan(&model, 4, 0);
/// let prios = p3.priorities(&plan);
/// // The first array's slices are the most urgent.
/// assert_eq!(prios[0], 0);
/// // Slices inherit the priority of their parent array.
/// let fc6_slices = plan.slices_of_array(32);
/// assert!(fc6_slices.iter().all(|&i| prios[i] == prios[fc6_slices[0]]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyncStrategy {
    name: String,
    /// Key granularity and placement.
    pub slicing: Slicing,
    /// Worker egress discipline.
    pub egress: Egress,
    /// Server gradient-processing order.
    pub server_processing: ServerProcessing,
    /// Parameter return path.
    pub response: ResponseMode,
    /// Pull timing.
    pub pull_timing: PullTiming,
    /// Priority assignment.
    pub priority_mode: PriorityMode,
}

impl SyncStrategy {
    /// MXNet KVStore, the paper's baseline: layer-wise keys (split only by
    /// the 10⁶-parameter heuristic), parallel FIFO connections, FIFO server,
    /// notify-then-pull.
    pub fn baseline() -> SyncStrategy {
        SyncStrategy {
            name: "Baseline".into(),
            slicing: Slicing::KvstoreLayerwise,
            egress: Egress::PerServerFifo,
            server_processing: ServerProcessing::Fifo,
            response: ResponseMode::NotifyThenPull,
            pull_timing: PullTiming::Eager,
            priority_mode: PriorityMode::Uniform,
        }
    }

    /// P3's slicing optimization alone (the "Slicing" series of Fig. 7):
    /// 50k-parameter slices with P3's transport machinery but no
    /// priorities — transmission order is generation order.
    pub fn slicing_only() -> SyncStrategy {
        SyncStrategy {
            name: "Slicing".into(),
            slicing: Slicing::MaxParams(DEFAULT_SLICE_PARAMS),
            egress: Egress::SingleConsumer,
            server_processing: ServerProcessing::Fifo,
            response: ResponseMode::ImmediateBroadcast,
            pull_timing: PullTiming::Eager,
            priority_mode: PriorityMode::Uniform,
        }
    }

    /// Full P3 (§4.2): 50k slices, single-consumer priority egress,
    /// priority processing at the server, immediate broadcast.
    pub fn p3() -> SyncStrategy {
        SyncStrategy {
            name: "P3".into(),
            slicing: Slicing::MaxParams(DEFAULT_SLICE_PARAMS),
            egress: Egress::SingleConsumer,
            server_processing: ServerProcessing::Priority,
            response: ResponseMode::ImmediateBroadcast,
            pull_timing: PullTiming::Eager,
            priority_mode: PriorityMode::Consumption,
        }
    }

    /// P3 with a non-default slice size (the Fig. 12 sweep).
    pub fn p3_with_slice_params(max_slice: u64) -> SyncStrategy {
        let mut s = SyncStrategy::p3();
        s.name = format!("P3-{}k", max_slice / 1000);
        s.slicing = Slicing::MaxParams(max_slice);
        s
    }

    /// TensorFlow-style synchronization (§2, Fig. 13): like the baseline
    /// but pulls wait for the next iteration's graph execution, so inbound
    /// and outbound transfers never overlap.
    pub fn tf_style() -> SyncStrategy {
        SyncStrategy {
            name: "TensorFlow-style".into(),
            slicing: Slicing::KvstoreLayerwise,
            egress: Egress::PerServerFifo,
            server_processing: ServerProcessing::Fifo,
            response: ResponseMode::NotifyThenPull,
            pull_timing: PullTiming::NextIterationStart,
            priority_mode: PriorityMode::Uniform,
        }
    }

    /// Poseidon's wait-free backpropagation (Zhang et al. 2017, Fig. 14):
    /// strictly layer-granular keys synchronized as soon as their gradients
    /// appear; no slicing, no priorities.
    pub fn poseidon_wfbp() -> SyncStrategy {
        SyncStrategy {
            name: "Poseidon-WFBP".into(),
            slicing: Slicing::LayerwiseNoSplit,
            egress: Egress::PerServerFifo,
            server_processing: ServerProcessing::Fifo,
            response: ResponseMode::NotifyThenPull,
            pull_timing: PullTiming::Eager,
            priority_mode: PriorityMode::Uniform,
        }
    }

    /// Ablation: P3 with priorities in *generation* order (what a plain
    /// FIFO would do) — isolates the value of consumption-order priorities.
    pub fn p3_generation_order() -> SyncStrategy {
        let mut s = SyncStrategy::p3();
        s.name = "P3-generation-order".into();
        s.priority_mode = PriorityMode::Generation;
        s
    }

    /// Ablation: P3 with random priorities.
    pub fn p3_random_order(seed: u64) -> SyncStrategy {
        let mut s = SyncStrategy::p3();
        s.name = "P3-random-order".into();
        s.priority_mode = PriorityMode::Random { seed };
        s
    }

    /// Ablation: P3 without the immediate-broadcast change (keeps KVStore's
    /// notify-then-pull response path).
    pub fn p3_notify_pull() -> SyncStrategy {
        let mut s = SyncStrategy::p3();
        s.name = "P3-notify-pull".into();
        s.response = ResponseMode::NotifyThenPull;
        s
    }

    /// Display name used in experiment tables.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds this strategy's shard plan for `model` on `servers` shards.
    /// `seed` feeds KVStore's random small-array placement.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn plan(&self, model: &ModelSpec, servers: usize, seed: u64) -> ShardPlan {
        let arrays: Vec<u64> = model.param_arrays().map(|a| a.params).collect();
        match self.slicing {
            Slicing::KvstoreLayerwise => {
                ShardPlan::kvstore(&arrays, servers, KVSTORE_SPLIT_THRESHOLD, seed)
            }
            Slicing::LayerwiseNoSplit => ShardPlan::kvstore(&arrays, servers, u64::MAX, seed),
            Slicing::MaxParams(max) => p3_plan(&arrays, servers, max),
        }
    }

    /// Per-key priorities for a plan built by this strategy (lower = more
    /// urgent). Slices inherit their parent array's priority.
    pub fn priorities(&self, plan: &ShardPlan) -> Vec<u32> {
        let num_arrays = plan.num_arrays();
        let array_prio: Vec<u32> = match self.priority_mode {
            PriorityMode::Consumption => (0..num_arrays as u32).collect(),
            PriorityMode::Generation => (0..num_arrays as u32).rev().collect(),
            PriorityMode::Uniform => vec![0; num_arrays],
            PriorityMode::Random { seed } => {
                let mut order: Vec<u32> = (0..num_arrays as u32).collect();
                let mut rng = SplitMix64::new(seed);
                // Fisher–Yates.
                for i in (1..order.len()).rev() {
                    let j = rng.next_below(i as u64 + 1) as usize;
                    order.swap(i, j);
                }
                order
            }
        };
        plan.slices().iter().map(|s| array_prio[s.array]).collect()
    }

    /// All strategies compared in Figure 7, in plot order.
    pub fn fig7_series() -> Vec<SyncStrategy> {
        vec![
            SyncStrategy::baseline(),
            SyncStrategy::slicing_only(),
            SyncStrategy::p3(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper_description() {
        let b = SyncStrategy::baseline();
        assert_eq!(b.name(), "Baseline");
        assert_eq!(b.slicing, Slicing::KvstoreLayerwise);
        assert_eq!(b.response, ResponseMode::NotifyThenPull);
    }

    #[test]
    fn p3_matches_paper_description() {
        let p = SyncStrategy::p3();
        assert_eq!(p.slicing, Slicing::MaxParams(50_000));
        assert_eq!(p.egress, Egress::SingleConsumer);
        assert_eq!(p.server_processing, ServerProcessing::Priority);
        assert_eq!(p.response, ResponseMode::ImmediateBroadcast);
        assert_eq!(p.priority_mode, PriorityMode::Consumption);
    }

    #[test]
    fn consumption_priorities_ascend_with_depth() {
        let model = ModelSpec::resnet50();
        let strat = SyncStrategy::p3();
        let plan = strat.plan(&model, 4, 0);
        let prios = strat.priorities(&plan);
        // First array most urgent, last array least urgent.
        let first = plan.slices_of_array(0)[0];
        let last_array = plan.num_arrays() - 1;
        let last = plan.slices_of_array(last_array)[0];
        assert_eq!(prios[first], 0);
        assert_eq!(prios[last], last_array as u32);
    }

    #[test]
    fn generation_order_reverses() {
        let model = ModelSpec::vgg19();
        let strat = SyncStrategy::p3_generation_order();
        let plan = strat.plan(&model, 2, 0);
        let prios = strat.priorities(&plan);
        let first = plan.slices_of_array(0)[0];
        assert_eq!(prios[first], (plan.num_arrays() - 1) as u32);
    }

    #[test]
    fn uniform_is_all_zero() {
        let model = ModelSpec::sockeye();
        let strat = SyncStrategy::slicing_only();
        let plan = strat.plan(&model, 4, 0);
        assert!(strat.priorities(&plan).iter().all(|&p| p == 0));
    }

    #[test]
    fn random_is_a_permutation_and_deterministic() {
        let model = ModelSpec::sockeye();
        let strat = SyncStrategy::p3_random_order(9);
        let plan = strat.plan(&model, 4, 0);
        let p1 = strat.priorities(&plan);
        let p2 = strat.priorities(&plan);
        assert_eq!(p1, p2);
        // Distinct arrays' priorities form a permutation of 0..n.
        let mut per_array: Vec<u32> = (0..plan.num_arrays())
            .map(|a| p1[plan.slices_of_array(a)[0]])
            .collect();
        per_array.sort_unstable();
        assert_eq!(per_array, (0..plan.num_arrays() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn poseidon_never_splits() {
        let model = ModelSpec::vgg19();
        let plan = SyncStrategy::poseidon_wfbp().plan(&model, 4, 0);
        assert_eq!(plan.num_keys(), model.num_arrays());
    }

    #[test]
    fn baseline_splits_only_large_arrays() {
        let model = ModelSpec::vgg19();
        let plan = SyncStrategy::baseline().plan(&model, 4, 0);
        // VGG-19 has 5 arrays above 1M params (conv weights ≥ 1.18M ×3? —
        // fc6.w, fc7.w, fc8.w(4.1M), conv weights 2.36M ×...). At minimum,
        // more keys than arrays but far fewer than P3's plan.
        assert!(plan.num_keys() > model.num_arrays());
        let p3_keys = SyncStrategy::p3().plan(&model, 4, 0).num_keys();
        assert!(plan.num_keys() < p3_keys / 10);
    }

    #[test]
    fn fig7_series_names() {
        let series = SyncStrategy::fig7_series();
        let names: Vec<&str> = series.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["Baseline", "Slicing", "P3"]);
    }

    #[test]
    fn slice_size_variant() {
        let s = SyncStrategy::p3_with_slice_params(10_000);
        assert_eq!(s.slicing, Slicing::MaxParams(10_000));
        assert_eq!(s.name(), "P3-10k");
    }
}
