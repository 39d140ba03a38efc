//! Mapping model structure to simulated compute time.
//!
//! Absolute GPU speed is a *calibration* input (see DESIGN.md §6): each
//! [`crate::ModelSpec`] carries the compute-bound per-worker throughput
//! measured on the paper's testbed (one Nvidia Quadro P4000), and this
//! module distributes the implied iteration time across compute blocks
//! proportionally to their FLOPs. The *shape* of the timeline — which
//! layers are cheap, which are expensive, forward vs backward ratio —
//! comes from structure; only the total is calibrated.

use crate::layer::ModelSpec;
use p3_des::SimDuration;

/// Backward-pass cost relative to the forward pass (the usual 1 fwd :
/// 2 bwd split).
const BWD_RATIO: f64 = 2.0;

/// Forward and backward duration of one compute block for a whole
/// minibatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTiming {
    /// Forward-pass duration.
    pub fwd: SimDuration,
    /// Backward-pass duration.
    pub bwd: SimDuration,
}

impl ModelSpec {
    /// Compute-bound wall time of one iteration over the model's
    /// [`ModelSpec::default_batch`] on the calibration device.
    pub fn iteration_time(&self) -> SimDuration {
        let secs = self.default_batch() as f64 / self.reference_throughput();
        SimDuration::from_secs_f64(secs)
    }

    /// Per-block forward/backward durations of one iteration, in forward
    /// order. Zero-FLOP blocks are given one FLOP so every block takes
    /// nonzero time (every real kernel launch does).
    ///
    /// # Examples
    ///
    /// ```
    /// use p3_models::ModelSpec;
    ///
    /// let model = ModelSpec::resnet50();
    /// let t = model.block_times();
    /// // Total iteration time matches the calibrated throughput.
    /// let total: f64 = t.iter().map(|b| (b.fwd + b.bwd).as_secs_f64()).sum();
    /// let implied = model.default_batch() as f64 / total;
    /// assert!((implied - model.reference_throughput()).abs() / implied < 1e-6);
    /// ```
    pub fn block_times(&self) -> Vec<BlockTiming> {
        let iter = self.iteration_time().as_secs_f64();
        let fwd_total = iter / (1.0 + BWD_RATIO);
        let bwd_total = iter - fwd_total;
        let weights: Vec<f64> = self
            .blocks()
            .iter()
            .map(|b| (b.fwd_flops.max(1)) as f64)
            .collect();
        let sum: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| {
                let frac = w / sum;
                BlockTiming {
                    fwd: SimDuration::from_secs_f64(fwd_total * frac),
                    bwd: SimDuration::from_secs_f64(bwd_total * frac),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_time_follows_calibration() {
        let m = ModelSpec::vgg19();
        let t = m.iteration_time();
        assert!((t.as_secs_f64() - 32.0 / 15.0).abs() < 1e-9); // 32 / 15 samples/s
    }

    #[test]
    fn block_times_sum_to_iteration() {
        let m = ModelSpec::inception_v3();
        let times = m.block_times();
        assert_eq!(times.len(), m.blocks().len());
        let total: f64 = times.iter().map(|b| (b.fwd + b.bwd).as_secs_f64()).sum();
        let expect = m.iteration_time().as_secs_f64();
        assert!((total - expect).abs() < 1e-4 * expect);
    }

    #[test]
    fn bwd_is_twice_fwd() {
        let times = ModelSpec::resnet50().block_times();
        for t in &times {
            let r = t.bwd.as_secs_f64() / t.fwd.as_secs_f64().max(1e-18);
            assert!((r - 2.0).abs() < 0.01, "ratio {r}");
        }
    }

    #[test]
    fn heavier_blocks_get_more_time() {
        let m = ModelSpec::vgg19();
        let times = m.block_times();
        // fc6 (huge GEMM) must take more time than the tiny first conv's
        // bias... i.e., find block index of fc6 and conv1.
        let fc6 = m.blocks().iter().position(|b| b.name == "fc6").unwrap();
        let conv1 = m.blocks().iter().position(|b| b.name == "conv1").unwrap();
        assert!(times[fc6].fwd > times[conv1].fwd);
    }

    #[test]
    fn every_block_takes_nonzero_time() {
        for m in ModelSpec::paper_models() {
            for t in m.block_times() {
                assert!(!t.fwd.is_zero());
                assert!(!t.bwd.is_zero());
            }
        }
    }
}
