//! Gradient dropping (Aji & Heafield 2017): synchronize only coordinates
//! whose residual-corrected magnitude exceeds a threshold chosen for a
//! fixed compression ratio, accumulating the rest locally.

use crate::sparse::SparseGrad;

/// Per-tensor gradient-dropping state.
///
/// # Examples
///
/// ```
/// use p3_compress::GradDrop;
///
/// let mut gd = GradDrop::new(100, 50.0); // keep ~1 in 50
/// let grad: Vec<f32> = (0..100).map(|i| i as f32 / 100.0).collect();
/// let s = gd.step(&grad);
/// assert_eq!(s.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct GradDrop {
    ratio: f64,
    residual: Vec<f32>,
}

impl GradDrop {
    /// Creates state for a tensor of length `len` keeping roughly one in
    /// `ratio` coordinates per step.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` or `ratio < 1`.
    pub fn new(len: usize, ratio: f64) -> GradDrop {
        assert!(len > 0, "empty tensor");
        assert!(ratio >= 1.0, "compression ratio {ratio} below 1");
        GradDrop {
            ratio,
            residual: vec![0.0; len],
        }
    }

    /// Processes one gradient: adds it to the residual, transmits the
    /// top `len/ratio` coordinates and keeps the rest accumulated.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the construction length.
    pub fn step(&mut self, grad: &[f32]) -> SparseGrad {
        assert_eq!(grad.len(), self.residual.len(), "gradient length mismatch");
        let n = grad.len();
        for (r, &g) in self.residual.iter_mut().zip(grad) {
            *r += g;
        }
        let keep = (((n as f64 / self.ratio) - 1e-9).ceil() as usize).clamp(1, n);
        SparseGrad::drain_top_k(&mut self.residual, keep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_des::SplitMix64;

    #[test]
    fn keeps_the_largest() {
        let mut gd = GradDrop::new(5, 5.0);
        let s = gd.step(&[0.1, -9.0, 0.2, 0.3, 0.4]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense()[1], -9.0);
    }

    #[test]
    fn residual_plus_sent_conserves_mass() {
        let mut rng = SplitMix64::new(7);
        let mut gd = GradDrop::new(64, 16.0);
        let mut total = vec![0.0f32; 64];
        let mut sent = vec![0.0f32; 64];
        for _ in 0..50 {
            let g: Vec<f32> = (0..64).map(|_| rng.normal() as f32).collect();
            for (t, &x) in total.iter_mut().zip(&g) {
                *t += x;
            }
            let s = gd.step(&g);
            for (a, b) in sent.iter_mut().zip(s.to_dense()) {
                *a += b;
            }
        }
        for i in 0..64 {
            let recon = sent[i] + gd.residual[i];
            assert!((recon - total[i]).abs() < 1e-3, "coordinate {i} leaked");
        }
    }

    #[test]
    fn ratio_one_sends_everything() {
        let mut gd = GradDrop::new(8, 1.0);
        let g = vec![1.0f32; 8];
        let s = gd.step(&g);
        assert_eq!(s.nnz(), 8);
        assert!(gd.residual.iter().all(|&r| r == 0.0));
    }

    #[test]
    #[should_panic(expected = "below 1")]
    fn sub_unit_ratio_rejected() {
        GradDrop::new(4, 0.5);
    }
}
