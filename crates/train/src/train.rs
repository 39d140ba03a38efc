//! The training loop over the real parameter server.
//!
//! One MLP holds the current parameters, and every worker holds a shard of
//! the training data. Each round the workers compute exact gradients of
//! their minibatches against those parameters, optionally compress them,
//! and push them to a [`KvServer`], which averages and applies the
//! optimizer — precisely the protocol the cluster simulator times, here
//! executed with real numbers so Figure 11's accuracy comparison is an
//! actual measurement.
//!
//! ASGD (the paper's Appendix B.2) is the same loop. Its server updates on
//! every push, and each gradient reaches it `staleness` worker steps after
//! it was computed, so it lands on parameters that many updates newer: the
//! canonical delayed-gradient model of a fully pipelined, barrier-free
//! cluster.

use crate::config::{EpochRecord, SyncMode, TrainConfig, TrainRun};
use p3_compress::{Dgc, GradDrop, OneBitSgd, Qsgd, TernGrad};
use p3_des::SplitMix64;
use p3_pserver::{Key, KvServer, OptimizerKind, PushOutcome, WorkerId};
use p3_tensor::{gather, BatchSchedule, Dataset, Matrix, Mlp};
use std::collections::VecDeque;

/// L2 weight decay of the server's momentum optimizer.
const WEIGHT_DECAY: f32 = 1e-4;

/// Per-worker, per-array gradient transformation (compression).
enum Transform {
    Identity,
    Dgc(Vec<Dgc>),
    Drop(Vec<GradDrop>),
    Qsgd(Qsgd),
    Tern(TernGrad),
    OneBit(Vec<OneBitSgd>),
}

impl Transform {
    fn new(mode: SyncMode, array_lens: &[usize], seed: u64) -> Transform {
        match mode {
            SyncMode::FullSync | SyncMode::Async { .. } => Transform::Identity,
            SyncMode::Dgc {
                final_sparsity,
                warmup_epochs,
            } => Transform::Dgc(
                array_lens
                    .iter()
                    .map(|&l| Dgc::new(l, 0.9, final_sparsity, warmup_epochs))
                    .collect(),
            ),
            SyncMode::GradDrop { ratio } => Transform::Drop(
                array_lens
                    .iter()
                    .map(|&l| GradDrop::new(l, ratio))
                    .collect(),
            ),
            SyncMode::Qsgd { levels } => Transform::Qsgd(Qsgd::new(levels, seed)),
            SyncMode::TernGrad => Transform::Tern(TernGrad::new(seed)),
            SyncMode::OneBit => {
                Transform::OneBit(array_lens.iter().map(|&l| OneBitSgd::new(l)).collect())
            }
        }
    }

    fn set_epoch(&mut self, epoch: u32) {
        if let Transform::Dgc(states) = self {
            for s in states {
                s.set_epoch(epoch);
            }
        }
    }

    fn apply(&mut self, array: usize, grad: &[f32]) -> Vec<f32> {
        match self {
            Transform::Identity => grad.to_vec(),
            Transform::Dgc(states) => states[array].step(grad).to_dense(),
            Transform::Drop(states) => states[array].step(grad).to_dense(),
            Transform::Qsgd(q) => q.quantize(grad),
            Transform::Tern(t) => t.quantize(grad),
            Transform::OneBit(states) => states[array].quantize(grad),
        }
    }
}

/// Runs data-parallel training of an MLP on `data` under the given
/// gradient treatment, returning per-epoch validation accuracy.
///
/// All modes share identical initialization, data order and server
/// optimizer for a given config, so accuracy differences are attributable
/// to the gradient treatment alone.
///
/// # Panics
///
/// Panics if the config is degenerate.
///
/// # Examples
///
/// ```
/// use p3_tensor::gaussian_blobs;
/// use p3_train::{train, SyncMode, TrainConfig};
///
/// let data = gaussian_blobs(3, 8, 480, 120, 0.8, 5);
/// let mut cfg = TrainConfig::new(3);
/// cfg.hidden = vec![16];
/// let run = train(&data, &cfg, SyncMode::FullSync);
/// assert_eq!(run.records.len(), 3);
/// assert!(run.final_accuracy > 0.5);
/// // ASGD updates once per worker step, each with a 3-step-old gradient.
/// let stale = train(&data, &cfg, SyncMode::Async { staleness: 3 });
/// assert_eq!(stale.iterations_per_epoch, 4 * run.iterations_per_epoch);
/// ```
pub fn train(data: &Dataset, cfg: &TrainConfig, mode: SyncMode) -> TrainRun {
    cfg.validate();

    // Architecture: input → hidden… → classes.
    let mut sizes = vec![data.dim()];
    sizes.extend_from_slice(&cfg.hidden);
    sizes.push(data.classes);
    let mut model = Mlp::new(&sizes, &mut SplitMix64::new(cfg.seed));
    let init_arrays = model.export_arrays();
    let array_lens: Vec<usize> = init_arrays.iter().map(Vec::len).collect();

    // Server: DGC applies worker-side momentum correction, so its server
    // runs plain SGD; everything else uses server momentum (MXNet default).
    // A synchronous server averages one push per worker; ASGD's updates on
    // every push, which arrives `delay` worker steps after it was computed.
    let server_opt = match mode {
        SyncMode::Dgc { .. } => OptimizerKind::Sgd { lr: cfg.lr },
        _ => OptimizerKind::Momentum {
            lr: cfg.lr,
            momentum: cfg.momentum,
            weight_decay: WEIGHT_DECAY,
        },
    };
    let (pushers, delay) = match mode {
        SyncMode::Async { staleness } => (1, staleness),
        _ => (cfg.workers, 0),
    };
    let mut server = KvServer::new(pushers, server_opt);
    for (k, a) in init_arrays.into_iter().enumerate() {
        server.init(Key(k as u64), a);
    }

    // Workers: shard, schedule, transform.
    struct Worker {
        x: Matrix,
        y: Vec<usize>,
        schedule: BatchSchedule,
        transform: Transform,
    }
    let mut workers: Vec<Worker> = (0..cfg.workers)
        .map(|w| {
            let (x, y) = data.shard(w, cfg.workers);
            let schedule =
                BatchSchedule::new(y.len(), cfg.batch_per_worker, cfg.seed ^ (w as u64 + 1));
            Worker {
                x,
                y,
                schedule,
                transform: Transform::new(mode, &array_lens, cfg.seed ^ (0xABCD + w as u64)),
            }
        })
        .collect();

    let rounds_per_epoch = workers
        .iter()
        .map(|w| w.schedule.batches_per_epoch())
        .min()
        .expect("workers");
    // Gradients computed but not yet pushed. The queue persists across
    // epochs, as in a real ASGD cluster.
    let mut unpushed: VecDeque<(WorkerId, Vec<Vec<f32>>)> = VecDeque::new();
    let mut records = Vec::with_capacity(cfg.epochs as usize);

    for epoch in 0..cfg.epochs {
        for w in &mut workers {
            w.transform.set_epoch(epoch);
        }
        if let Some(decay) = cfg.lr_decay {
            server.set_learning_rate(decay.lr_at(cfg.lr, epoch));
        }
        let mut loss_sum = 0.0f64;
        let mut loss_n = 0u64;
        for round in 0..rounds_per_epoch {
            for (wid, w) in workers.iter_mut().enumerate() {
                // Local batch → exact grads against the current
                // parameters → transform → queue.
                let batch_idx = &w.schedule.epoch(epoch as u64)[round];
                let (bx, by) = gather(&w.x, &w.y, batch_idx);
                let (loss, grads) = model.loss_and_grads(&bx, &by);
                loss_sum += loss as f64;
                loss_n += 1;
                let sent = Mlp::grads_to_arrays(&grads)
                    .iter()
                    .enumerate()
                    .map(|(k, g)| w.transform.apply(k, g))
                    .collect();
                // ASGD's one-slot server takes every push as slot 0.
                unpushed.push_back((WorkerId(wid % pushers), sent));
                if unpushed.len() <= delay {
                    continue;
                }
                // Push the gradient now due; pull once it completes an
                // update (the synchronous barrier, or every ASGD push).
                let (from, due) = unpushed.pop_front().expect("nonempty");
                let mut updated = false;
                for (k, g) in due.iter().enumerate() {
                    let outcome = server.push(from, Key(k as u64), g);
                    updated |= matches!(outcome, PushOutcome::Updated { .. });
                }
                if updated {
                    let fresh: Vec<Vec<f32>> = (0..array_lens.len())
                        .map(|k| server.pull(Key(k as u64)).0.to_vec())
                        .collect();
                    model.import_arrays(&fresh);
                }
            }
        }
        let val_accuracy = model.accuracy(&data.val_x, &data.val_y);
        records.push(EpochRecord {
            epoch,
            train_loss: loss_sum / loss_n.max(1) as f64,
            val_accuracy,
        });
    }

    let final_accuracy = records.last().expect("at least one epoch").val_accuracy;
    TrainRun {
        mode_name: mode.name().to_string(),
        records,
        final_accuracy,
        iterations_per_epoch: rounds_per_epoch * cfg.workers / pushers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_tensor::gaussian_blobs;

    fn quick_cfg(epochs: u32) -> TrainConfig {
        let mut cfg = TrainConfig::new(epochs);
        cfg.hidden = vec![24];
        cfg.batch_per_worker = 16;
        cfg
    }

    #[test]
    fn full_sync_learns_blobs() {
        let data = gaussian_blobs(4, 8, 800, 200, 0.9, 3);
        let run = train(&data, &quick_cfg(8), SyncMode::FullSync);
        assert!(run.final_accuracy > 0.9, "accuracy {}", run.final_accuracy);
        // Loss decreases over training.
        assert!(run.records.last().unwrap().train_loss < run.records[0].train_loss);
    }

    #[test]
    fn full_sync_is_deterministic() {
        let data = gaussian_blobs(3, 6, 300, 60, 1.0, 9);
        let a = train(&data, &quick_cfg(2), SyncMode::FullSync);
        let b = train(&data, &quick_cfg(2), SyncMode::FullSync);
        assert_eq!(a, b);
    }

    #[test]
    fn full_sync_matches_single_worker_large_batch() {
        // K workers with batch B ≡ one worker with batch K·B when shards
        // and shuffling align — here we check the weaker, guaranteed
        // property: the PS average equals the mean of worker gradients,
        // i.e. training with 1 worker and the same total data converges to
        // similar accuracy.
        let data = gaussian_blobs(3, 6, 600, 150, 0.8, 4);
        let multi = train(&data, &quick_cfg(6), SyncMode::FullSync);
        let mut solo_cfg = quick_cfg(6);
        solo_cfg.workers = 1;
        solo_cfg.batch_per_worker = 64;
        let solo = train(&data, &solo_cfg, SyncMode::FullSync);
        assert!((multi.final_accuracy - solo.final_accuracy).abs() < 0.1);
    }

    #[test]
    fn dgc_trains_but_full_sync_is_at_least_as_good() {
        let data = gaussian_blobs(4, 10, 1200, 300, 1.1, 8);
        let cfg = quick_cfg(10);
        let full = train(&data, &cfg, SyncMode::FullSync);
        let dgc = train(
            &data,
            &cfg,
            SyncMode::Dgc {
                final_sparsity: 0.999,
                warmup_epochs: 4,
            },
        );
        assert!(
            dgc.final_accuracy > 0.5,
            "DGC failed to train: {}",
            dgc.final_accuracy
        );
        assert!(
            full.final_accuracy >= dgc.final_accuracy - 0.02,
            "full sync {} should not lose to DGC {}",
            full.final_accuracy,
            dgc.final_accuracy
        );
    }

    #[test]
    fn quantizers_train() {
        let data = gaussian_blobs(3, 6, 600, 150, 0.8, 2);
        let cfg = quick_cfg(6);
        for mode in [
            SyncMode::Qsgd { levels: 4 },
            SyncMode::TernGrad,
            SyncMode::OneBit,
        ] {
            let run = train(&data, &cfg, mode);
            assert!(
                run.final_accuracy > 0.7,
                "{} failed: {}",
                mode.name(),
                run.final_accuracy
            );
        }
    }

    #[test]
    fn asgd_trains_at_all() {
        let data = gaussian_blobs(3, 6, 600, 150, 0.8, 6);
        let run = train(&data, &quick_cfg(6), SyncMode::Async { staleness: 3 });
        assert!(
            run.final_accuracy > 0.6,
            "ASGD collapsed: {}",
            run.final_accuracy
        );
    }

    #[test]
    fn asgd_is_deterministic() {
        let data = gaussian_blobs(2, 4, 200, 40, 1.0, 2);
        let mode = SyncMode::Async { staleness: 3 };
        assert_eq!(
            train(&data, &quick_cfg(2), mode),
            train(&data, &quick_cfg(2), mode)
        );
    }

    #[test]
    fn staleness_zero_tracks_sequential_sgd() {
        // With no staleness every gradient is pushed as soon as it is
        // computed: plain sequential minibatch SGD; accuracy should be
        // solid.
        let data = gaussian_blobs(3, 6, 600, 150, 0.8, 10);
        let run = train(&data, &quick_cfg(5), SyncMode::Async { staleness: 0 });
        assert!(
            run.final_accuracy > 0.85,
            "no-staleness ASGD: {}",
            run.final_accuracy
        );
    }

    #[test]
    fn sync_beats_stale_async_on_hard_task() {
        // The paper's Appendix B: P3 (synchronous) reaches higher accuracy
        // than ASGD with realistic staleness.
        let data = gaussian_blobs(5, 12, 1500, 400, 1.35, 13);
        let mut c = quick_cfg(10);
        c.lr = 0.1; // staleness damage grows with lr
        let sync = train(&data, &c, SyncMode::FullSync);
        let async_run = train(&data, &c, SyncMode::Async { staleness: 3 });
        assert!(
            sync.final_accuracy >= async_run.final_accuracy,
            "sync {} vs async {}",
            sync.final_accuracy,
            async_run.final_accuracy
        );
    }
}
