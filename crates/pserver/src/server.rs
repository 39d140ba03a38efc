//! The key-value server: gradient aggregation and parameter updates.
//!
//! Semantics follow MXNet's KVServer (§4.1): for every key the server waits
//! for a gradient push from **every** worker, averages them, applies the
//! optimizer, bumps the key's version, and serves pulls of the updated
//! values. The state machine is independent of any transport: `p3-train`
//! drives it with real in-process gradients. The cluster simulator does
//! not use it. Its engine keeps its own per-server state (push masks,
//! versions, a processing queue) in `p3-cluster`'s `engine/server.rs`,
//! which times the same protocol without computing any values.

use crate::optim::{Optimizer, OptimizerKind};
use crate::types::{Key, WorkerId};
use std::collections::BTreeMap;

/// Result of accepting one gradient push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Gradient recorded; the server is still waiting for more workers.
    Accumulated {
        /// How many workers have pushed this key so far this round.
        received: usize,
        /// How many pushes are required in total.
        required: usize,
    },
    /// This push completed the round: parameters were updated.
    Updated {
        /// The key's new version (rounds completed).
        version: u64,
    },
}

#[derive(Debug)]
struct Entry {
    params: Vec<f32>,
    agg: Vec<f32>,
    received: Vec<bool>,
    n_received: usize,
    version: u64,
    opt: Optimizer,
}

/// One parameter-server shard holding the keys assigned to it.
///
/// # Examples
///
/// ```
/// use p3_pserver::{Key, KvServer, OptimizerKind, PushOutcome, WorkerId};
///
/// let mut s = KvServer::new(2, OptimizerKind::Sgd { lr: 0.5 });
/// s.init(Key(0), vec![1.0, 1.0]);
/// s.push(WorkerId(0), Key(0), &[1.0, 0.0]);
/// let out = s.push(WorkerId(1), Key(0), &[0.0, 1.0]);
/// assert_eq!(out, PushOutcome::Updated { version: 1 });
/// // Mean gradient is [0.5, 0.5]; lr 0.5 moves params to [0.75, 0.75].
/// assert_eq!(s.pull(Key(0)).0, &[0.75, 0.75]);
/// ```
#[derive(Debug)]
pub struct KvServer {
    entries: BTreeMap<Key, Entry>,
    num_workers: usize,
    optimizer: OptimizerKind,
}

impl KvServer {
    /// Creates a shard expecting pushes from `num_workers` workers per
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`.
    pub fn new(num_workers: usize, optimizer: OptimizerKind) -> Self {
        assert!(num_workers > 0, "a cluster needs at least one worker");
        KvServer {
            entries: BTreeMap::new(),
            num_workers,
            optimizer,
        }
    }

    /// Registers a key with its initial parameter values.
    ///
    /// # Panics
    ///
    /// Panics if the key is already initialized or `initial` is empty.
    pub fn init(&mut self, key: Key, initial: Vec<f32>) {
        assert!(!initial.is_empty(), "key {key} initialized empty");
        let len = initial.len();
        let prev = self.entries.insert(
            key,
            Entry {
                params: initial,
                agg: vec![0.0; len],
                received: vec![false; self.num_workers],
                n_received: 0,
                version: 0,
                opt: self.optimizer.build(len),
            },
        );
        assert!(prev.is_none(), "key {key} initialized twice");
    }

    /// Accepts a gradient push from `worker` for `key`. When the last
    /// missing worker pushes, the mean gradient is applied by the optimizer
    /// and the key's version increments.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown, the gradient length mismatches, the
    /// worker id is out of range, or the worker pushes the same key twice
    /// in one round (a protocol violation in synchronous SGD).
    #[expect(clippy::panic, reason = "an unknown key is a documented panic")]
    pub fn push(&mut self, worker: WorkerId, key: Key, grad: &[f32]) -> PushOutcome {
        let nw = self.num_workers;
        let e = self
            .entries
            .get_mut(&key)
            .unwrap_or_else(|| panic!("unknown key {key}"));
        assert_eq!(
            e.params.len(),
            grad.len(),
            "gradient length mismatch for {key}"
        );
        assert!(worker.0 < nw, "worker {worker} out of range");
        assert!(
            !e.received[worker.0],
            "{worker} pushed {key} twice in one round"
        );
        e.received[worker.0] = true;
        e.n_received += 1;
        for (a, &g) in e.agg.iter_mut().zip(grad) {
            *a += g;
        }
        if e.n_received == nw {
            // Average, update, reset the round.
            let inv = 1.0 / nw as f32;
            for a in &mut e.agg {
                *a *= inv;
            }
            let agg = std::mem::take(&mut e.agg);
            e.opt.step(&mut e.params, &agg);
            e.agg = agg;
            e.agg.iter_mut().for_each(|a| *a = 0.0);
            e.received.iter_mut().for_each(|r| *r = false);
            e.n_received = 0;
            e.version += 1;
            PushOutcome::Updated { version: e.version }
        } else {
            PushOutcome::Accumulated {
                received: e.n_received,
                required: nw,
            }
        }
    }

    /// Current parameter values and version of a key.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    #[expect(clippy::panic, reason = "an unknown key is a documented panic")]
    pub fn pull(&self, key: Key) -> (&[f32], u64) {
        let e = self
            .entries
            .get(&key)
            .unwrap_or_else(|| panic!("unknown key {key}"));
        (&e.params, e.version)
    }

    /// Version (completed update rounds) of a key.
    ///
    /// # Panics
    ///
    /// Panics if the key is unknown.
    pub fn version(&self, key: Key) -> u64 {
        self.entries[&key].version
    }

    /// Number of keys hosted by this shard.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the shard hosts no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over hosted keys in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = Key> + '_ {
        self.entries.keys().copied()
    }

    /// Applies a new learning rate to every hosted key (step-decay
    /// schedules), preserving momentum state.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive and finite.
    pub fn set_learning_rate(&mut self, lr: f32) {
        for e in self.entries.values_mut() {
            e.opt.set_lr(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(workers: usize) -> KvServer {
        KvServer::new(workers, OptimizerKind::Sgd { lr: 1.0 })
    }

    #[test]
    fn aggregation_is_mean_of_workers() {
        let mut s = server(4);
        s.init(Key(0), vec![0.0]);
        for w in 0..3 {
            let out = s.push(WorkerId(w), Key(0), &[4.0]);
            assert_eq!(
                out,
                PushOutcome::Accumulated {
                    received: w + 1,
                    required: 4
                }
            );
        }
        assert_eq!(
            s.push(WorkerId(3), Key(0), &[4.0]),
            PushOutcome::Updated { version: 1 }
        );
        assert_eq!(s.pull(Key(0)).0, &[-4.0]); // w -= lr * mean(4) = -4
    }

    #[test]
    fn rounds_are_independent() {
        let mut s = server(2);
        s.init(Key(0), vec![0.0]);
        s.push(WorkerId(0), Key(0), &[2.0]);
        s.push(WorkerId(1), Key(0), &[0.0]);
        assert_eq!(s.version(Key(0)), 1);
        // Second round: aggregation buffer was reset.
        s.push(WorkerId(0), Key(0), &[0.0]);
        s.push(WorkerId(1), Key(0), &[2.0]);
        let (p, v) = s.pull(Key(0));
        assert_eq!(v, 2);
        assert_eq!(p, &[-2.0]); // −1 each round
    }

    #[test]
    fn keys_update_independently() {
        let mut s = server(2);
        s.init(Key(0), vec![0.0]);
        s.init(Key(1), vec![0.0]);
        s.push(WorkerId(0), Key(0), &[1.0]);
        s.push(WorkerId(0), Key(1), &[1.0]);
        s.push(WorkerId(1), Key(1), &[1.0]);
        assert_eq!(s.version(Key(0)), 0);
        assert_eq!(s.version(Key(1)), 1);
    }

    #[test]
    #[should_panic(expected = "twice in one round")]
    fn double_push_rejected() {
        let mut s = server(2);
        s.init(Key(0), vec![0.0]);
        s.push(WorkerId(0), Key(0), &[1.0]);
        s.push(WorkerId(0), Key(0), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn push_unknown_key_rejected() {
        server(1).push(WorkerId(0), Key(9), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "initialized twice")]
    fn double_init_rejected() {
        let mut s = server(1);
        s.init(Key(0), vec![0.0]);
        s.init(Key(0), vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let mut s = server(1);
        s.init(Key(0), vec![0.0, 0.0]);
        s.push(WorkerId(0), Key(0), &[1.0]);
    }

    #[test]
    fn single_worker_updates_immediately() {
        let mut s = server(1);
        s.init(Key(0), vec![1.0]);
        assert_eq!(
            s.push(WorkerId(0), Key(0), &[1.0]),
            PushOutcome::Updated { version: 1 }
        );
        assert_eq!(s.pull(Key(0)).0, &[0.0]);
    }

    #[test]
    fn learning_rate_decay_applies_to_all_keys() {
        let mut s = KvServer::new(1, OptimizerKind::Sgd { lr: 1.0 });
        s.init(Key(0), vec![0.0]);
        s.init(Key(1), vec![0.0]);
        s.push(WorkerId(0), Key(0), &[1.0]);
        s.set_learning_rate(0.5);
        s.push(WorkerId(0), Key(0), &[1.0]);
        s.push(WorkerId(0), Key(1), &[1.0]);
        assert_eq!(s.pull(Key(0)).0, &[-1.5]);
        assert_eq!(s.pull(Key(1)).0, &[-0.5]);
    }

    #[test]
    fn momentum_server_matches_sequential_sgd() {
        // A PS with one worker and momentum must equal local momentum SGD.
        let kind = OptimizerKind::Momentum {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        };
        let mut s = KvServer::new(1, kind);
        s.init(Key(0), vec![1.0]);
        let mut local = kind.build(1);
        let mut w = vec![1.0f32];
        for g in [0.5f32, -0.25, 0.1] {
            s.push(WorkerId(0), Key(0), &[g]);
            local.step(&mut w, &[g]);
        }
        assert!((s.pull(Key(0)).0[0] - w[0]).abs() < 1e-7);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Synchronous PS training with W workers equals sequential SGD on
        /// the mean gradient — the invariant that makes P3 "not affect model
        /// convergence".
        #[test]
        fn ps_equals_sequential_on_mean(
            grads in prop::collection::vec(
                prop::collection::vec(-1.0f32..1.0, 4), 1..20),
            workers in 1usize..6,
        ) {
            let mut s = KvServer::new(workers, OptimizerKind::Sgd { lr: 0.05 });
            s.init(Key(0), vec![0.5; 4]);
            let mut w_ref = vec![0.5f32; 4];
            for g in &grads {
                // Each worker perturbs the base gradient deterministically.
                let mut mean = vec![0.0f32; 4];
                for wk in 0..workers {
                    let gw: Vec<f32> = g.iter().map(|x| x * (1.0 + wk as f32)).collect();
                    for (m, v) in mean.iter_mut().zip(&gw) {
                        *m += v / workers as f32;
                    }
                    s.push(WorkerId(wk), Key(0), &gw);
                }
                for (w, m) in w_ref.iter_mut().zip(&mean) {
                    *w -= 0.05 * m;
                }
            }
            let (p, v) = s.pull(Key(0));
            prop_assert_eq!(v, grads.len() as u64);
            for (a, b) in p.iter().zip(&w_ref) {
                prop_assert!((a - b).abs() < 1e-4, "{} vs {}", a, b);
            }
        }
    }
}
