//! Mapping model structure to simulated compute time.
//!
//! Absolute GPU speed is a *calibration* input (see DESIGN.md §6): each
//! [`crate::ModelSpec`] carries the compute-bound per-worker throughput
//! measured on the paper's testbed, and this module distributes the implied
//! iteration time across compute blocks proportionally to their FLOPs. The
//! *shape* of the timeline — which layers are cheap, which are expensive,
//! forward vs backward ratio — comes from structure; only the total is
//! calibrated.

use crate::layer::ModelSpec;
use p3_des::SimDuration;

/// A device's speed relative to the calibration baseline (the paper's
/// Nvidia Quadro P4000), plus the forward/backward cost split.
///
/// # Examples
///
/// ```
/// use p3_models::{ComputeProfile, ModelSpec};
///
/// let model = ModelSpec::resnet50();
/// let prof = ComputeProfile::p4000();
/// let t = prof.block_times(&model, model.default_batch());
/// // Total iteration time matches the calibrated throughput.
/// let total: f64 = t.iter().map(|b| (b.fwd + b.bwd).as_secs_f64()).sum();
/// let implied = model.default_batch() as f64 / total;
/// assert!((implied - model.reference_throughput()).abs() / implied < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ComputeProfile {
    speed: f64,
    bwd_ratio: f64,
}

/// Forward and backward duration of one compute block for a whole
/// minibatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTiming {
    /// Forward-pass duration.
    pub fwd: SimDuration,
    /// Backward-pass duration.
    pub bwd: SimDuration,
}

impl ComputeProfile {
    /// The calibration baseline: one Nvidia Quadro P4000, backward pass
    /// costing twice the forward pass (the usual 1 fwd : 2 bwd split).
    pub fn p4000() -> Self {
        ComputeProfile {
            speed: 1.0,
            bwd_ratio: 2.0,
        }
    }

    /// A device `speed`× faster than the P4000 baseline.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not positive.
    pub fn scaled(speed: f64) -> Self {
        assert!(
            speed > 0.0 && speed.is_finite(),
            "invalid device speed {speed}"
        );
        ComputeProfile {
            speed,
            bwd_ratio: 2.0,
        }
    }

    /// Iteration wall time for a whole minibatch when compute-bound.
    pub fn iteration_time(&self, model: &ModelSpec, batch: usize) -> SimDuration {
        assert!(batch > 0, "zero batch size");
        let secs = batch as f64 / (model.reference_throughput() * self.speed);
        SimDuration::from_secs_f64(secs)
    }

    /// Per-block forward/backward durations for a minibatch, in forward
    /// order. Zero-FLOP blocks are given one FLOP so every block takes
    /// nonzero time (every real kernel launch does).
    pub fn block_times(&self, model: &ModelSpec, batch: usize) -> Vec<BlockTiming> {
        let iter = self.iteration_time(model, batch).as_secs_f64();
        let fwd_total = iter / (1.0 + self.bwd_ratio);
        let bwd_total = iter - fwd_total;
        let weights: Vec<f64> = model
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

impl Default for ComputeProfile {
    fn default() -> Self {
        ComputeProfile::p4000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_time_follows_calibration() {
        let m = ModelSpec::vgg19();
        let t = ComputeProfile::p4000().iteration_time(&m, 30);
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9); // 30 / 15 samples/s
    }

    #[test]
    fn faster_device_scales_linearly() {
        let m = ModelSpec::resnet50();
        let base = ComputeProfile::p4000().iteration_time(&m, 32).as_secs_f64();
        let fast = ComputeProfile::scaled(2.0)
            .iteration_time(&m, 32)
            .as_secs_f64();
        assert!((base / fast - 2.0).abs() < 1e-9);
    }

    #[test]
    fn block_times_sum_to_iteration() {
        let m = ModelSpec::inception_v3();
        let prof = ComputeProfile::p4000();
        let times = prof.block_times(&m, 32);
        assert_eq!(times.len(), m.blocks().len());
        let total: f64 = times.iter().map(|b| (b.fwd + b.bwd).as_secs_f64()).sum();
        let expect = prof.iteration_time(&m, 32).as_secs_f64();
        assert!((total - expect).abs() < 1e-4 * expect);
    }

    #[test]
    fn bwd_is_twice_fwd_by_default() {
        let m = ModelSpec::resnet50();
        let times = ComputeProfile::p4000().block_times(&m, 32);
        for t in &times {
            let r = t.bwd.as_secs_f64() / t.fwd.as_secs_f64().max(1e-18);
            assert!((r - 2.0).abs() < 0.01, "ratio {r}");
        }
    }

    #[test]
    fn heavier_blocks_get_more_time() {
        let m = ModelSpec::vgg19();
        let times = ComputeProfile::p4000().block_times(&m, 32);
        // fc6 (huge GEMM) must take more time than the tiny first conv's
        // bias... i.e., find block index of fc6 and conv1.
        let fc6 = m.blocks().iter().position(|b| b.name == "fc6").unwrap();
        let conv1 = m.blocks().iter().position(|b| b.name == "conv1").unwrap();
        assert!(times[fc6].fwd > times[conv1].fwd);
    }

    #[test]
    fn every_block_takes_nonzero_time() {
        for m in ModelSpec::paper_models() {
            for t in ComputeProfile::p4000().block_times(&m, m.default_batch()) {
                assert!(!t.fwd.is_zero());
                assert!(!t.bwd.is_zero());
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid device speed")]
    fn zero_speed_rejected() {
        ComputeProfile::scaled(0.0);
    }
}
