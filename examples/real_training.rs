//! Scenario: the accuracy side of the paper — run *real* data-parallel
//! training (actual gradients, actual parameter server) and compare exact
//! synchronous SGD (what P3 transmits) against lossy alternatives.
//!
//! Run with: `cargo run --release --example real_training`

use p3::tensor::spirals;
use p3::train::{train, SyncMode, TrainConfig};

fn main() {
    let data = spirals(3, 6, 2400, 600, 21);
    let mut cfg = TrainConfig::new(25);
    cfg.hidden = vec![48, 24];
    cfg.lr = 0.1;
    println!(
        "3-class spirals, 4 workers x batch {}, {} epochs\n",
        cfg.batch_per_worker, cfg.epochs
    );

    let modes = [
        SyncMode::FullSync,
        SyncMode::Dgc {
            final_sparsity: 0.99,
            warmup_epochs: 4,
        },
        SyncMode::Qsgd { levels: 4 },
        SyncMode::TernGrad,
        SyncMode::OneBit,
        SyncMode::Async { staleness: 3 },
    ];
    for mode in modes {
        let mut cfg = cfg.clone();
        if let SyncMode::Async { .. } = mode {
            cfg.lr = 0.0125; // tuned down: stale gradients diverge at sync lr
        }
        let run = train(&data, &cfg, mode);
        println!(
            "{:>12}: final accuracy {:.3}  (best {:.3}, epochs to 0.8: {:?})",
            run.mode_name,
            run.final_accuracy,
            run.best_accuracy(),
            run.epochs_to_reach(0.8)
        );
    }
    println!("\nP3 always transmits full gradients: its accuracy IS the FullSync row.");
}
