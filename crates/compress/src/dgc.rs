//! Deep Gradient Compression (Lin et al., ICLR 2018) — the compression
//! baseline of the paper's §5.6 / Figure 11.
//!
//! DGC transmits only the top-k gradient coordinates by magnitude and
//! accumulates the rest locally, with two corrections that make extreme
//! sparsity (99.9%) trainable:
//!
//! * **momentum correction** — accumulate the *velocity* rather than the
//!   raw gradient, so delayed coordinates still carry momentum when they
//!   finally transmit;
//! * **momentum factor masking** — zero the velocity of transmitted
//!   coordinates, preventing stale momentum from double-counting.
//!
//! A warm-up schedule ramps sparsity (75% → 93.75% → 98.4375% → 99.6% →
//! 99.9%) over the first epochs, exactly as the original paper prescribes.

use crate::sparse::SparseGrad;

/// Per-tensor DGC state.
///
/// # Examples
///
/// ```
/// use p3_compress::Dgc;
///
/// let mut dgc = Dgc::new(1000, 0.9, 0.999, 4);
/// dgc.set_epoch(10); // past warm-up: full 99.9% sparsity
/// let grad = vec![0.01f32; 1000];
/// let sparse = dgc.step(&grad);
/// assert_eq!(sparse.nnz(), 1); // ceil(0.001 * 1000)
/// ```
#[derive(Debug, Clone)]
pub struct Dgc {
    momentum: f32,
    final_sparsity: f64,
    warmup_epochs: u32,
    epoch: u32,
    /// Velocity accumulator (momentum correction).
    u: Vec<f32>,
    /// Local gradient accumulator.
    v: Vec<f32>,
}

impl Dgc {
    /// Creates DGC state for a tensor of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`, momentum outside `[0, 1)`, or sparsity outside
    /// `(0, 1)`.
    pub fn new(len: usize, momentum: f32, final_sparsity: f64, warmup_epochs: u32) -> Dgc {
        assert!(len > 0, "empty tensor");
        assert!(
            (0.0..1.0).contains(&momentum),
            "momentum {momentum} outside [0, 1)"
        );
        assert!(
            final_sparsity > 0.0 && final_sparsity < 1.0,
            "sparsity {final_sparsity} outside (0, 1)"
        );
        Dgc {
            momentum,
            final_sparsity,
            warmup_epochs,
            epoch: 0,
            u: vec![0.0; len],
            v: vec![0.0; len],
        }
    }

    /// Advances the warm-up schedule.
    pub fn set_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }

    /// Sparsity in force for the current epoch: the original paper's
    /// exponential ramp 75%, 93.75%, 98.4375%, 99.6% … capped at the final
    /// sparsity after warm-up.
    pub fn current_sparsity(&self) -> f64 {
        if self.warmup_epochs == 0 || self.epoch >= self.warmup_epochs {
            return self.final_sparsity;
        }
        // Keep ratio shrinks 4x per warm-up epoch starting from 25%.
        let keep = 0.25 * 0.25f64.powi(self.epoch as i32);
        (1.0 - keep).min(self.final_sparsity)
    }

    /// Processes one local gradient: updates velocity and accumulation,
    /// selects the top-k by |accumulated velocity|, zeroes their state
    /// (factor masking) and returns them for transmission.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the construction length.
    pub fn step(&mut self, grad: &[f32]) -> SparseGrad {
        assert_eq!(grad.len(), self.u.len(), "gradient length mismatch");
        let n = grad.len();
        // Momentum correction: u ← m·u + g; v ← v + u.
        for ((u, v), &g) in self.u.iter_mut().zip(&mut self.v).zip(grad) {
            *u = self.momentum * *u + g;
            *v += *u;
        }

        // The 1e-9 guard keeps e.g. (1 − 0.999)·1000 from ceiling to 2.
        let keep = (((1.0 - self.current_sparsity()) * n as f64) - 1e-9)
            .ceil()
            .max(1.0) as usize;
        let sparse = SparseGrad::drain_top_k(&mut self.v, keep.min(n));
        // Momentum factor masking.
        for &i in &sparse.indices {
            self.u[i as usize] = 0.0;
        }
        sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_des::SplitMix64;

    #[test]
    fn top_k_selection() {
        let mut dgc = Dgc::new(10, 0.0, 0.8, 0); // keep 20% = 2 entries
        let grad = vec![0.1, -5.0, 0.2, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let s = dgc.step(&grad);
        assert_eq!(s.nnz(), 2);
        let dense = s.to_dense();
        assert_eq!(dense[1], -5.0);
        assert_eq!(dense[3], 3.0);
    }

    #[test]
    fn residuals_accumulate_and_eventually_send() {
        let mut dgc = Dgc::new(4, 0.0, 0.75, 0); // keep 1 per step
                                                 // A small persistent gradient on index 2 must eventually win.
        let grad = vec![1.0, 0.0, 0.3, 0.0];
        let mut sent2 = 0.0f32;
        for _ in 0..10 {
            let s = dgc.step(&grad);
            sent2 += s.to_dense()[2];
        }
        assert!(sent2 > 0.0, "small coordinate never transmitted");
    }

    #[test]
    fn no_information_lost_without_momentum() {
        // With momentum 0, total transmitted mass per coordinate equals the
        // total gradient mass (residual carries the rest).
        let mut rng = SplitMix64::new(4);
        let mut dgc = Dgc::new(50, 0.0, 0.9, 0);
        let mut total_grad = [0.0f32; 50];
        let mut total_sent = [0.0f32; 50];
        for _ in 0..100 {
            let g: Vec<f32> = (0..50).map(|_| rng.normal() as f32).collect();
            for (t, &x) in total_grad.iter_mut().zip(&g) {
                *t += x;
            }
            let s = dgc.step(&g);
            for (t, x) in total_sent.iter_mut().zip(s.to_dense()) {
                *t += x;
            }
        }
        // sent + residual == total.
        for i in 0..50 {
            let residual = total_grad[i] - total_sent[i];
            let _ = residual; // compared in aggregate below
        }
        let sent_mass: f64 = total_sent.iter().map(|x| *x as f64).sum();
        let grad_mass: f64 = total_grad.iter().map(|x| *x as f64).sum();
        let residual: f64 = dgc.v.iter().map(|x| *x as f64).sum();
        assert!(
            (grad_mass - sent_mass - residual).abs() < 1e-2,
            "mass not conserved: {grad_mass} vs {sent_mass} + {residual}"
        );
    }

    #[test]
    fn warmup_schedule_ramps() {
        let mut dgc = Dgc::new(100, 0.9, 0.999, 4);
        dgc.set_epoch(0);
        assert!((dgc.current_sparsity() - 0.75).abs() < 1e-12);
        dgc.set_epoch(1);
        assert!((dgc.current_sparsity() - 0.9375).abs() < 1e-12);
        dgc.set_epoch(2);
        assert!((dgc.current_sparsity() - 0.984375).abs() < 1e-12);
        dgc.set_epoch(4);
        assert_eq!(dgc.current_sparsity(), 0.999);
        dgc.set_epoch(40);
        assert_eq!(dgc.current_sparsity(), 0.999);
    }

    #[test]
    fn masking_zeroes_transmitted_state() {
        let mut dgc = Dgc::new(4, 0.9, 0.75, 0);
        let s = dgc.step(&[10.0, 0.0, 0.0, 0.0]);
        assert_eq!(s.to_dense()[0], 10.0);
        assert_eq!(dgc.u[0], 0.0);
        assert_eq!(dgc.v[0], 0.0);
    }

    #[test]
    fn always_sends_at_least_one() {
        let mut dgc = Dgc::new(1000, 0.9, 0.9999, 0);
        let s = dgc.step(&vec![1e-8; 1000]);
        assert_eq!(s.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        Dgc::new(4, 0.9, 0.9, 0).step(&[1.0]);
    }
}
