//! Quantization-based compression baselines from the paper's related work:
//! QSGD (Alistarh et al. 2017), TernGrad (Wen et al. 2017) and 1-bit SGD
//! (Seide et al. 2014).

use p3_des::SplitMix64;

/// QSGD stochastic quantizer with `levels` quantization levels.
///
/// Each value becomes `‖g‖₂ · sign(g_i) · ξ_i / s` where `ξ_i` rounds
/// `|g_i|·s/‖g‖₂` up or down stochastically — an **unbiased** estimator of
/// the gradient.
///
/// # Examples
///
/// ```
/// use p3_compress::Qsgd;
///
/// let mut q = Qsgd::new(4, 7);
/// let g = vec![0.5, -0.25, 0.1];
/// let out = q.quantize(&g);
/// assert_eq!(out.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Qsgd {
    levels: u32,
    rng: SplitMix64,
}

impl Qsgd {
    /// Creates a quantizer with `levels` levels (e.g. 4 ≈ 2-bit QSGD).
    ///
    /// # Panics
    ///
    /// Panics if `levels == 0`.
    pub fn new(levels: u32, seed: u64) -> Qsgd {
        assert!(levels > 0, "zero quantization levels");
        Qsgd {
            levels,
            rng: SplitMix64::new(seed),
        }
    }

    /// Quantizes a gradient (dense output, values on the quantization
    /// grid).
    pub fn quantize(&mut self, grad: &[f32]) -> Vec<f32> {
        let norm = grad.iter().map(|x| (x * x) as f64).sum::<f64>().sqrt() as f32;
        if norm == 0.0 {
            return vec![0.0; grad.len()];
        }
        let s = self.levels as f32;
        grad.iter()
            .map(|&g| {
                let level = g.abs() / norm * s;
                let floor = level.floor();
                let frac = level - floor;
                let xi = if (self.rng.next_f64() as f32) < frac {
                    floor + 1.0
                } else {
                    floor
                };
                norm * g.signum() * xi / s
            })
            .collect()
    }
}

/// TernGrad: values quantized to `{-s, 0, +s}` with `s = max|g|`,
/// keeping the estimator unbiased via Bernoulli sampling.
#[derive(Debug, Clone)]
pub struct TernGrad {
    rng: SplitMix64,
}

impl TernGrad {
    /// Creates a ternarizer.
    pub fn new(seed: u64) -> TernGrad {
        TernGrad {
            rng: SplitMix64::new(seed),
        }
    }

    /// Ternarizes a gradient.
    pub fn quantize(&mut self, grad: &[f32]) -> Vec<f32> {
        let st = grad.iter().fold(0.0f32, |a, &g| a.max(g.abs()));
        if st == 0.0 {
            return vec![0.0; grad.len()];
        }
        grad.iter()
            .map(|&g| {
                let p = (g.abs() / st) as f64;
                if self.rng.next_f64() < p {
                    st * g.signum()
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// 1-bit SGD with error feedback: transmit only the sign of
/// (gradient + residual), scaled by the mean magnitude of the positive and
/// negative parts; the quantization error feeds back into the next step.
#[derive(Debug, Clone)]
pub struct OneBitSgd {
    residual: Vec<f32>,
}

impl OneBitSgd {
    /// Creates 1-bit state for a tensor of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> OneBitSgd {
        assert!(len > 0, "empty tensor");
        OneBitSgd {
            residual: vec![0.0; len],
        }
    }

    /// Quantizes one gradient, updating the residual.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len()` differs from the construction length.
    pub fn quantize(&mut self, grad: &[f32]) -> Vec<f32> {
        assert_eq!(grad.len(), self.residual.len(), "gradient length mismatch");
        let corrected: Vec<f32> = grad
            .iter()
            .zip(&self.residual)
            .map(|(g, r)| g + r)
            .collect();
        // Per-tensor reconstruction scales: mean magnitude of each sign.
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u32, 0.0f64, 0u32);
        for &c in &corrected {
            if c >= 0.0 {
                pos_sum += c as f64;
                pos_n += 1;
            } else {
                neg_sum += c as f64;
                neg_n += 1;
            }
        }
        let pos_scale = if pos_n > 0 {
            (pos_sum / pos_n as f64) as f32
        } else {
            0.0
        };
        let neg_scale = if neg_n > 0 {
            (neg_sum / neg_n as f64) as f32
        } else {
            0.0
        };
        let mut out = Vec::with_capacity(corrected.len());
        for (c, r) in corrected.iter().zip(&mut self.residual) {
            let q = if *c >= 0.0 { pos_scale } else { neg_scale };
            out.push(q);
            *r = c - q; // error feedback
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_abs_err(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs() as f64)
            .sum::<f64>()
            / a.len() as f64
    }

    #[test]
    fn qsgd_is_unbiased() {
        let mut q = Qsgd::new(4, 1);
        let g = vec![0.7f32, -0.3, 0.1, 0.05, -0.9];
        let trials = 20_000;
        let mut mean = vec![0.0f64; g.len()];
        for _ in 0..trials {
            for (m, v) in mean.iter_mut().zip(q.quantize(&g)) {
                *m += v as f64 / trials as f64;
            }
        }
        for (m, &x) in mean.iter().zip(&g) {
            assert!((m - x as f64).abs() < 0.01, "biased: {m} vs {x}");
        }
    }

    #[test]
    fn qsgd_zero_is_fixed_point() {
        let mut q = Qsgd::new(8, 0);
        assert_eq!(q.quantize(&[0.0, 0.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn qsgd_values_live_on_grid() {
        let mut q = Qsgd::new(4, 9);
        let g = vec![0.3f32, -0.8, 0.05];
        let norm = g.iter().map(|x| x * x).sum::<f32>().sqrt();
        for v in q.quantize(&g) {
            let level = v.abs() / norm * 4.0;
            assert!((level - level.round()).abs() < 1e-5, "off grid: {v}");
        }
    }

    #[test]
    fn terngrad_is_unbiased_and_ternary() {
        let mut t = TernGrad::new(2);
        let g = vec![0.5f32, -1.0, 0.25, 0.0];
        let trials = 20_000;
        let mut mean = vec![0.0f64; g.len()];
        for _ in 0..trials {
            let out = t.quantize(&g);
            for (i, v) in out.iter().enumerate() {
                assert!(
                    *v == 0.0 || (v.abs() - 1.0).abs() < 1e-6,
                    "not ternary: {v}"
                );
                mean[i] += *v as f64 / trials as f64;
            }
        }
        for (m, &x) in mean.iter().zip(&g) {
            assert!((m - x as f64).abs() < 0.02, "biased: {m} vs {x}");
        }
    }

    #[test]
    fn one_bit_error_feedback_converges_on_constant_gradient() {
        // Repeatedly quantizing a constant gradient: the *cumulative*
        // transmitted signal approaches the cumulative true signal.
        let g = vec![0.3f32, -0.7, 0.1, 0.9];
        let mut ob = OneBitSgd::new(4);
        let mut sent = vec![0.0f32; 4];
        let steps = 200;
        for _ in 0..steps {
            for (s, v) in sent.iter_mut().zip(ob.quantize(&g)) {
                *s += v;
            }
        }
        let target: Vec<f32> = g.iter().map(|x| x * steps as f32).collect();
        let err = mean_abs_err(&sent, &target);
        // Residual is bounded, so per-step cumulative drift vanishes.
        let per_step = err / steps as f64;
        assert!(per_step < 0.02, "cumulative drift {err}");
    }

    #[test]
    fn one_bit_output_is_two_valued() {
        let mut ob = OneBitSgd::new(5);
        let out = ob.quantize(&[1.0, 2.0, -1.0, -3.0, 0.5]);
        let mut distinct: Vec<f32> = out.clone();
        distinct.sort_by(|a, b| a.partial_cmp(b).unwrap());
        distinct.dedup();
        assert!(distinct.len() <= 2, "more than two levels: {distinct:?}");
    }
}
