//! Training-run configuration and result records.

/// How workers exchange gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncMode {
    /// Synchronous SGD with full gradients — the convergence behaviour of
    /// both the baseline and P3 (P3 never alters the math, §5.6).
    FullSync,
    /// Deep Gradient Compression (Lin et al. 2018).
    Dgc {
        /// Final sparsity after warm-up (paper uses 0.999).
        final_sparsity: f64,
        /// Warm-up epochs of ramped sparsity.
        warmup_epochs: u32,
    },
    /// Threshold gradient dropping (Aji & Heafield 2017).
    GradDrop {
        /// Keep one in `ratio` coordinates.
        ratio: f64,
    },
    /// QSGD stochastic quantization (Alistarh et al. 2017).
    Qsgd {
        /// Quantization levels.
        levels: u32,
    },
    /// TernGrad three-level quantization (Wen et al. 2017).
    TernGrad,
    /// 1-bit SGD with error feedback (Seide et al. 2014).
    OneBit,
    /// Asynchronous SGD: no barrier; each gradient is applied with the
    /// given staleness (in update steps).
    Async {
        /// Updates applied between a gradient's read and its write
        /// (`workers − 1` models a fully pipelined ASGD cluster).
        staleness: usize,
    },
}

impl SyncMode {
    /// Display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SyncMode::FullSync => "P3/FullSync",
            SyncMode::Dgc { .. } => "DGC",
            SyncMode::GradDrop { .. } => "GradDrop",
            SyncMode::Qsgd { .. } => "QSGD",
            SyncMode::TernGrad => "TernGrad",
            SyncMode::OneBit => "1bitSGD",
            SyncMode::Async { .. } => "ASGD",
        }
    }
}

/// Step learning-rate decay: divide the learning rate by `factor` every
/// `every` epochs (the schedule the paper's CIFAR experiments use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LrDecay {
    /// Epoch interval between decays.
    pub every: u32,
    /// Division factor (> 1).
    pub factor: f32,
}

impl LrDecay {
    /// Learning rate in force at `epoch` given the base rate.
    ///
    /// # Panics
    ///
    /// Panics if `every == 0` or `factor <= 1`.
    pub fn lr_at(&self, base: f32, epoch: u32) -> f32 {
        assert!(self.every > 0, "zero decay interval");
        assert!(self.factor > 1.0, "decay factor must exceed 1");
        base / self.factor.powi((epoch / self.every) as i32)
    }
}

/// Hyper-parameters of one data-parallel training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of data-parallel workers.
    pub workers: usize,
    /// Per-worker minibatch size.
    pub batch_per_worker: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum (server-side for full sync; worker-side correction for
    /// DGC).
    pub momentum: f32,
    /// Training epochs.
    pub epochs: u32,
    /// Hidden-layer sizes of the MLP classifier.
    pub hidden: Vec<usize>,
    /// Master seed: controls initialization, shuffling and quantization
    /// randomness. One seed ⇒ bit-identical run.
    pub seed: u64,
    /// Optional step learning-rate decay.
    pub lr_decay: Option<LrDecay>,
}

impl TrainConfig {
    /// The defaults used by the Figure 11 reproduction: 4 workers (the
    /// paper's cluster), momentum SGD.
    pub fn new(epochs: u32) -> TrainConfig {
        TrainConfig {
            workers: 4,
            batch_per_worker: 32,
            lr: 0.08,
            momentum: 0.9,
            epochs,
            hidden: vec![64, 32],
            seed: 1,
            lr_decay: None,
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.workers > 0, "zero workers");
        assert!(self.batch_per_worker > 0, "zero batch");
        assert!(self.lr > 0.0 && self.lr.is_finite(), "bad lr");
        assert!((0.0..1.0).contains(&self.momentum), "bad momentum");
        assert!(self.epochs > 0, "zero epochs");
    }
}

/// Per-epoch measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: u32,
    /// Mean training loss over the epoch.
    pub train_loss: f64,
    /// Validation accuracy after the epoch.
    pub val_accuracy: f64,
}

/// A completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainRun {
    /// Mode that produced this run.
    pub mode_name: String,
    /// Per-epoch records.
    pub records: Vec<EpochRecord>,
    /// Validation accuracy after the final epoch.
    pub final_accuracy: f64,
    /// Optimizer update rounds per epoch (for wall-clock mapping).
    pub iterations_per_epoch: usize,
}

impl TrainRun {
    /// Best validation accuracy across epochs.
    pub fn best_accuracy(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.val_accuracy)
            .fold(0.0, f64::max)
    }

    /// First epoch reaching `target` validation accuracy, if any.
    pub fn epochs_to_reach(&self, target: f64) -> Option<u32> {
        self.records
            .iter()
            .find(|r| r.val_accuracy >= target)
            .map(|r| r.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_decay_schedule() {
        let d = LrDecay {
            every: 10,
            factor: 10.0,
        };
        assert_eq!(d.lr_at(0.1, 0), 0.1);
        assert_eq!(d.lr_at(0.1, 9), 0.1);
        assert!((d.lr_at(0.1, 10) - 0.01).abs() < 1e-9);
        assert!((d.lr_at(0.1, 25) - 0.001).abs() < 1e-9);
    }

    #[test]
    fn names() {
        assert_eq!(SyncMode::FullSync.name(), "P3/FullSync");
        assert_eq!(
            SyncMode::Dgc {
                final_sparsity: 0.999,
                warmup_epochs: 4
            }
            .name(),
            "DGC"
        );
        assert_eq!(SyncMode::Async { staleness: 3 }.name(), "ASGD");
    }

    #[test]
    fn run_helpers() {
        let run = TrainRun {
            mode_name: "x".into(),
            records: vec![
                EpochRecord {
                    epoch: 0,
                    train_loss: 1.0,
                    val_accuracy: 0.5,
                },
                EpochRecord {
                    epoch: 1,
                    train_loss: 0.5,
                    val_accuracy: 0.9,
                },
                EpochRecord {
                    epoch: 2,
                    train_loss: 0.4,
                    val_accuracy: 0.85,
                },
            ],
            final_accuracy: 0.85,
            iterations_per_epoch: 10,
        };
        assert_eq!(run.best_accuracy(), 0.9);
        assert_eq!(run.epochs_to_reach(0.8), Some(1));
        assert_eq!(run.epochs_to_reach(0.95), None);
    }

    #[test]
    #[should_panic(expected = "zero workers")]
    fn degenerate_config_rejected() {
        let mut cfg = TrainConfig::new(1);
        cfg.workers = 0;
        cfg.validate();
    }
}
