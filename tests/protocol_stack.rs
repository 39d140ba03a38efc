//! Integration of the protocol pieces: a P3 shard plan's slices aggregate
//! in the KV servers and reconstruct the exact synchronous update.

use p3::core::{p3_plan, SyncStrategy};
use p3::des::SplitMix64;
use p3::models::ModelSpec;
use p3::pserver::{KvServer, OptimizerKind, PushOutcome, ShardPlan, ShardSlice, WorkerId};
use std::ops::Range;

#[test]
fn sliced_pushes_update_the_server() {
    // Two arrays sliced at 3 params for visibility.
    let plan = p3_plan(&[7, 4], 2, 3);
    assert_eq!(plan.num_keys(), 5); // 7 -> (3,2,2); 4 -> (2,2)
    let workers = 2;
    let mut server = KvServer::new(workers, OptimizerKind::Sgd { lr: 1.0 });
    for s in plan.slices() {
        server.init(s.key, vec![0.0; s.params as usize]);
    }

    // Each worker pushes gradient = worker index + 1 for every slice.
    for w in 0..workers {
        for s in plan.slices() {
            let values = vec![(w + 1) as f32; s.params as usize];
            let outcome = server.push(WorkerId(w), s.key, &values);
            if w == workers - 1 {
                assert_eq!(outcome, PushOutcome::Updated { version: 1 });
            }
        }
    }

    // Mean gradient = 1.5, lr = 1: params = -1.5 everywhere.
    for s in plan.slices() {
        let (vals, version) = server.pull(s.key);
        assert_eq!(version, 1);
        assert!(vals.iter().all(|&v| v == -1.5));
    }
}

/// The slices of `array` in part order, each with its range in the array.
fn parts(plan: &ShardPlan, array: usize) -> impl Iterator<Item = (ShardSlice, Range<usize>)> + '_ {
    let mut off = 0;
    plan.slices_of_array(array).iter().map(move |&si| {
        let s = plan.slices()[si];
        let range = off..off + s.params as usize;
        off = range.end;
        (s, range)
    })
}

/// One `KvServer` per shard of `plan`: whole-array pushes are routed slice
/// by slice to the slices' servers, and pulls reassemble the array.
struct Shards {
    plan: ShardPlan,
    servers: Vec<KvServer>,
}

impl Shards {
    fn new(plan: ShardPlan, workers: usize, opt: OptimizerKind, init: &[Vec<f32>]) -> Shards {
        let mut servers: Vec<KvServer> = (0..plan.servers())
            .map(|_| KvServer::new(workers, opt))
            .collect();
        for (array, values) in init.iter().enumerate() {
            for (s, range) in parts(&plan, array) {
                servers[s.server.0].init(s.key, values[range].to_vec());
            }
        }
        Shards { plan, servers }
    }

    /// Pushes one worker's gradient for a whole array; returns how many of
    /// its slices completed their round.
    fn push_array(&mut self, worker: WorkerId, array: usize, grad: &[f32]) -> usize {
        let mut updated = 0;
        for (s, range) in parts(&self.plan, array) {
            let outcome = self.servers[s.server.0].push(worker, s.key, &grad[range]);
            if let PushOutcome::Updated { .. } = outcome {
                updated += 1;
            }
        }
        updated
    }

    fn pull_array(&self, array: usize) -> Vec<f32> {
        parts(&self.plan, array)
            .flat_map(|(s, _)| self.servers[s.server.0].pull(s.key).0.to_vec())
            .collect()
    }

    /// The round every slice of the array has completed.
    fn array_version(&self, array: usize) -> u64 {
        parts(&self.plan, array)
            .map(|(s, _)| self.servers[s.server.0].version(s.key))
            .min()
            .unwrap_or(0)
    }
}

/// P3's central invariant: slicing does not change the math. Aggregation
/// and the optimizer are element-wise, so arrays synchronized as 10-param
/// slices over 4 shards end bit-identical to whole arrays on one server.
#[test]
fn sliced_training_is_bit_identical_to_unsliced() {
    let lens = [97u64, 256, 13];
    let workers = 3;
    let opt = OptimizerKind::Momentum {
        lr: 0.05,
        momentum: 0.9,
        weight_decay: 1e-4,
    };

    let mut rng = SplitMix64::new(3);
    let init: Vec<Vec<f32>> = lens
        .iter()
        .map(|&l| (0..l).map(|_| rng.normal() as f32).collect())
        .collect();
    let mut whole = Shards::new(p3_plan(&lens, 1, u64::MAX >> 1), workers, opt, &init);
    let mut sliced = Shards::new(p3_plan(&lens, 4, 10), workers, opt, &init);
    assert_eq!(whole.plan.num_keys(), lens.len());
    assert_eq!(sliced.plan.num_keys(), 10 + 26 + 2);

    for _round in 0..5 {
        for w in 0..workers {
            for (array, &l) in lens.iter().enumerate() {
                let grad: Vec<f32> = (0..l).map(|_| rng.normal() as f32).collect();
                whole.push_array(WorkerId(w), array, &grad);
                sliced.push_array(WorkerId(w), array, &grad);
            }
        }
    }
    for array in 0..lens.len() {
        let a = whole.pull_array(array);
        let b = sliced.pull_array(array);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits(), "array {array} diverged");
        }
    }
}

#[test]
fn array_version_advances_when_every_slice_completes() {
    let init = [vec![0.0; 20]];
    let mut kv = Shards::new(
        p3_plan(&[20], 2, 8),
        2,
        OptimizerKind::Sgd { lr: 0.1 },
        &init,
    );
    assert_eq!(kv.array_version(0), 0);
    kv.push_array(WorkerId(0), 0, &[1.0; 20]);
    assert_eq!(kv.array_version(0), 0); // waiting for worker 1
    let updated = kv.push_array(WorkerId(1), 0, &[1.0; 20]);
    assert_eq!(updated, 3); // 20 params at ≤8 → 3 slices
    assert_eq!(kv.array_version(0), 1);
}

#[test]
fn pull_reassembles_slice_boundaries_correctly() {
    let init: Vec<f32> = (0..10).map(|i| i as f32).collect();
    let plan = p3_plan(&[10], 3, 4);
    let mut kv = Shards::new(
        plan,
        1,
        OptimizerKind::Sgd { lr: 1.0 },
        std::slice::from_ref(&init),
    );
    assert_eq!(kv.pull_array(0), init);
    // Gradient equal to the values themselves zeroes the array.
    kv.push_array(WorkerId(0), 0, &init);
    assert!(kv.pull_array(0).iter().all(|&v| v == 0.0));
}

#[test]
fn strategy_plans_cover_every_model_parameter() {
    for model in ModelSpec::paper_models() {
        for strategy in [
            SyncStrategy::baseline(),
            SyncStrategy::slicing_only(),
            SyncStrategy::p3(),
            SyncStrategy::poseidon_wfbp(),
        ] {
            let plan = strategy.plan(&model, 4, 1);
            assert_eq!(
                plan.total_params(),
                model.total_params(),
                "{} under {}",
                model.name(),
                strategy.name()
            );
            let prios = strategy.priorities(&plan);
            assert_eq!(prios.len(), plan.num_keys());
        }
    }
}

#[test]
fn p3_slice_priorities_follow_forward_order() {
    let model = ModelSpec::vgg19();
    let strategy = SyncStrategy::p3();
    let plan = strategy.plan(&model, 4, 0);
    let prios = strategy.priorities(&plan);
    // Walking keys in forward order, array priority is nondecreasing.
    let mut last = 0;
    for s in plan.slices() {
        let p = prios[s.key.0 as usize];
        assert!(p >= last || s.part > 0, "priority regressed at {}", s.key);
        last = p;
    }
}
