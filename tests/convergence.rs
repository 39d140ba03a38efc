//! Cross-crate integration of the accuracy stack: `p3-tensor` gradients
//! through `p3-pserver` aggregation under `p3-train` orchestration, with
//! `p3-compress` baselines.

use p3::des::snap::{fnv64, fnv64_fold};
use p3::tensor::gaussian_blobs;
use p3::train::{train, LrDecay, SyncMode, TrainConfig, TrainRun};

fn cfg(epochs: u32) -> TrainConfig {
    let mut c = TrainConfig::new(epochs);
    c.hidden = vec![16];
    c.batch_per_worker = 16;
    c
}

#[test]
fn full_sync_hits_high_accuracy() {
    let data = gaussian_blobs(3, 6, 480, 120, 0.8, 3);
    let run = train(&data, &cfg(6), SyncMode::FullSync);
    assert!(run.final_accuracy > 0.9, "accuracy {}", run.final_accuracy);
}

#[test]
fn p3_equivalence_worker_count_changes_nothing_fundamental() {
    // P3's guarantee is "full gradients, synchronous" — with identical
    // total batch and data order, 2 and 4 workers give close results.
    let data = gaussian_blobs(3, 6, 480, 120, 0.8, 3);
    let mut c2 = cfg(5);
    c2.workers = 2;
    c2.batch_per_worker = 32;
    let mut c4 = cfg(5);
    c4.workers = 4;
    c4.batch_per_worker = 16;
    let r2 = train(&data, &c2, SyncMode::FullSync);
    let r4 = train(&data, &c4, SyncMode::FullSync);
    assert!(
        (r2.final_accuracy - r4.final_accuracy).abs() < 0.15,
        "{} vs {}",
        r2.final_accuracy,
        r4.final_accuracy
    );
}

#[test]
fn exact_sync_at_least_matches_compressed() {
    let data = gaussian_blobs(4, 8, 640, 160, 1.0, 9);
    let c = cfg(6);
    let full = train(&data, &c, SyncMode::FullSync);
    for mode in [
        SyncMode::Dgc {
            final_sparsity: 0.99,
            warmup_epochs: 2,
        },
        SyncMode::GradDrop { ratio: 50.0 },
    ] {
        let run = train(&data, &c, mode);
        assert!(
            full.final_accuracy >= run.final_accuracy - 0.05,
            "{}: full {} vs {}",
            run.mode_name,
            full.final_accuracy,
            run.final_accuracy
        );
    }
}

#[test]
fn asgd_with_staleness_never_beats_sync_meaningfully() {
    let data = gaussian_blobs(4, 8, 640, 160, 1.1, 4);
    let c = cfg(6);
    let sync = train(&data, &c, SyncMode::FullSync);
    let asgd = train(&data, &c, SyncMode::Async { staleness: 3 });
    assert!(
        sync.final_accuracy >= asgd.final_accuracy - 0.03,
        "sync {} vs asgd {}",
        sync.final_accuracy,
        asgd.final_accuracy
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let data = gaussian_blobs(2, 4, 160, 40, 1.0, 8);
    let a = train(
        &data,
        &cfg(2),
        SyncMode::Dgc {
            final_sparsity: 0.95,
            warmup_epochs: 1,
        },
    );
    let b = train(
        &data,
        &cfg(2),
        SyncMode::Dgc {
            final_sparsity: 0.95,
            warmup_epochs: 1,
        },
    );
    assert_eq!(a, b);
}

/// Folds every field of a run that the figures read into one word.
fn digest(run: &TrainRun) -> u64 {
    let mut h = fnv64(run.mode_name.as_bytes());
    for r in &run.records {
        h = fnv64_fold(h, u64::from(r.epoch));
        h = fnv64_fold(h, r.train_loss.to_bits());
        h = fnv64_fold(h, r.val_accuracy.to_bits());
    }
    h = fnv64_fold(h, run.final_accuracy.to_bits());
    fnv64_fold(h, run.iterations_per_epoch as u64)
}

#[test]
fn every_mode_reproduces_its_pinned_digest() {
    // Differential pins: each value was read before the synchronous and
    // asynchronous loops were merged, so any arithmetic change in the
    // training loop moves one of them.
    let data = gaussian_blobs(3, 6, 480, 120, 0.9, 11);
    let mut c = cfg(4);
    c.lr_decay = Some(LrDecay {
        every: 2,
        factor: 4.0,
    });
    let pins = [
        (SyncMode::FullSync, 0x1f54819ec8ad1f6d),
        (
            SyncMode::Dgc {
                final_sparsity: 0.99,
                warmup_epochs: 2,
            },
            0xed609bd0ce1d50a2,
        ),
        (SyncMode::GradDrop { ratio: 50.0 }, 0xd87c75167cb9c6d8),
        (SyncMode::Qsgd { levels: 4 }, 0x5f538c6d4884dccb),
        (SyncMode::TernGrad, 0x2c81dd50b34d2e79),
        (SyncMode::OneBit, 0xa4a187ab8c59a4e3),
        (SyncMode::Async { staleness: 0 }, 0x36e70365e45df0f3),
        (SyncMode::Async { staleness: 3 }, 0xefeceb6be2a0d8fe),
    ];
    for (mode, want) in pins {
        let got = digest(&train(&data, &c, mode));
        assert_eq!(got, want, "{mode:?} moved (got {got:#018x})");
    }
}

#[test]
fn asgd_without_staleness_on_one_worker_is_synchronous_sgd() {
    let data = gaussian_blobs(3, 6, 480, 120, 0.9, 12);
    let mut c = cfg(3);
    c.workers = 1;
    let sync = train(&data, &c, SyncMode::FullSync);
    let asgd = train(&data, &c, SyncMode::Async { staleness: 0 });
    assert_eq!(asgd.records, sync.records);
    assert_eq!(asgd.iterations_per_epoch, sync.iterations_per_epoch);
}
