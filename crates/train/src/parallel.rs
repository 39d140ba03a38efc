//! The accuracy band of Figure 11: P3 and DGC train under **five
//! hyper-parameter settings**, and the figure plots the band between the
//! worst and best validation accuracy per epoch.

use crate::config::TrainRun;

/// The per-epoch min/max band across runs — the shaded region of
/// Figure 11.
///
/// # Panics
///
/// Panics if `runs` is empty or epochs are ragged.
pub fn accuracy_band(runs: &[TrainRun]) -> Vec<(u32, f64, f64)> {
    assert!(!runs.is_empty(), "no runs");
    let epochs = runs[0].records.len();
    for r in runs {
        assert_eq!(r.records.len(), epochs, "ragged epoch counts");
    }
    (0..epochs)
        .map(|e| {
            let accs: Vec<f64> = runs.iter().map(|r| r.records[e].val_accuracy).collect();
            let min = accs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = accs.iter().copied().fold(0.0, f64::max);
            (runs[0].records[e].epoch, min, max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_tensor::gaussian_blobs;

    #[test]
    fn band_covers_all_runs() {
        let data = gaussian_blobs(2, 4, 200, 50, 1.0, 1);
        let runs: Vec<TrainRun> = (0..3)
            .map(|seed| {
                let mut cfg = crate::TrainConfig::new(3);
                cfg.hidden = vec![8];
                cfg.seed = seed;
                crate::train(&data, &cfg, crate::SyncMode::FullSync)
            })
            .collect();
        let band = accuracy_band(&runs);
        assert_eq!(band.len(), 3);
        for (e, lo, hi) in band {
            assert!(lo <= hi);
            for r in &runs {
                let a = r.records[e as usize].val_accuracy;
                assert!(a >= lo - 1e-12 && a <= hi + 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "no runs")]
    fn empty_band_rejected() {
        accuracy_band(&[]);
    }
}
