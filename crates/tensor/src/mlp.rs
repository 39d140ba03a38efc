//! A multi-layer perceptron with exact backpropagation, structured as the
//! parameter server sees it: each dense layer contributes a weight array
//! and a bias array, in forward order.

use crate::matrix::Matrix;
use p3_des::SplitMix64;

/// One dense layer: weights `input_dim × output_dim`, bias `output_dim`.
#[derive(Debug, Clone, PartialEq)]
struct DenseLayer {
    w: Matrix,
    b: Vec<f32>,
}

/// Gradients for one dense layer, same shapes as the layer.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseGrad {
    /// Weight gradient.
    pub w: Matrix,
    /// Bias gradient.
    pub b: Vec<f32>,
}

/// An MLP classifier: dense layers with ReLU between them and a softmax
/// cross-entropy head.
///
/// # Examples
///
/// ```
/// use p3_des::SplitMix64;
/// use p3_tensor::{Matrix, Mlp};
///
/// let mut rng = SplitMix64::new(7);
/// let mut mlp = Mlp::new(&[4, 16, 3], &mut rng);
/// let x = Matrix::randn(8, 4, 1.0, &mut rng);
/// let y = vec![0usize, 1, 2, 0, 1, 2, 0, 1];
/// let (loss, grads) = mlp.loss_and_grads(&x, &y);
/// assert!(loss > 0.0);
/// assert_eq!(grads.len(), 2);
/// mlp.apply_sgd(&grads, 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes (`[input, hidden…,
    /// classes]`), He-initialized.
    ///
    /// # Panics
    ///
    /// Panics with fewer than two sizes or any zero size.
    pub fn new(sizes: &[usize], rng: &mut SplitMix64) -> Mlp {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|&s| s > 0), "zero-sized layer");
        let layers = sizes
            .windows(2)
            .map(|w| {
                let std = (2.0 / w[0] as f32).sqrt();
                DenseLayer {
                    w: Matrix::randn(w[0], w[1], std, rng),
                    b: vec![0.0; w[1]],
                }
            })
            .collect();
        Mlp { layers }
    }

    /// Class logits for a batch (`rows = samples`).
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = x.clone();
        for (i, l) in self.layers.iter().enumerate() {
            let mut z = a.matmul(&l.w);
            z.add_bias(&l.b);
            a = if i + 1 < self.layers.len() {
                z.relu()
            } else {
                z
            };
        }
        a
    }

    /// Mean cross-entropy loss and exact gradients for a labelled batch.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len() != x.rows()` or any label is out of range.
    pub fn loss_and_grads(&self, x: &Matrix, labels: &[usize]) -> (f32, Vec<DenseGrad>) {
        let n = x.rows();
        assert_eq!(labels.len(), n, "labels/batch mismatch");
        let classes = self.layers.last().expect("nonempty").b.len();
        assert!(labels.iter().all(|&y| y < classes), "label out of range");

        // Forward pass, caching pre-activations and activations.
        let mut acts: Vec<Matrix> = vec![x.clone()];
        let mut pres: Vec<Matrix> = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            let mut z = acts.last().expect("nonempty").matmul(&l.w);
            z.add_bias(&l.b);
            pres.push(z.clone());
            let a = if i + 1 < self.layers.len() {
                z.relu()
            } else {
                z
            };
            acts.push(a);
        }

        // Softmax cross-entropy.
        let probs = acts.last().expect("nonempty").softmax();
        let mut loss = 0.0;
        for (r, &y) in labels.iter().enumerate() {
            loss -= probs.get(r, y).max(1e-12).ln();
        }
        loss /= n as f32;

        // dL/dlogits = (probs - onehot) / n.
        let mut delta = probs;
        for (r, &y) in labels.iter().enumerate() {
            *delta.get_mut(r, y) -= 1.0;
        }
        delta.scale(1.0 / n as f32);

        // Backward pass.
        let mut grads: Vec<DenseGrad> = Vec::with_capacity(self.layers.len());
        for i in (0..self.layers.len()).rev() {
            let input = &acts[i];
            let gw = input.t_matmul(&delta);
            let gb = delta.col_sums();
            if i > 0 {
                // Propagate through the previous ReLU.
                delta = delta
                    .matmul_t(&self.layers[i].w)
                    .relu_backward(&pres[i - 1]);
            }
            grads.push(DenseGrad { w: gw, b: gb });
        }
        grads.reverse();
        (loss, grads)
    }

    /// Applies plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `grads` shapes do not match the model.
    pub fn apply_sgd(&mut self, grads: &[DenseGrad], lr: f32) {
        assert_eq!(grads.len(), self.layers.len(), "gradient count mismatch");
        for (l, g) in self.layers.iter_mut().zip(grads) {
            assert_eq!(l.w.rows(), g.w.rows(), "weight shape mismatch");
            for (w, gw) in l.w.as_mut_slice().iter_mut().zip(g.w.as_slice()) {
                *w -= lr * gw;
            }
            for (b, gb) in l.b.iter_mut().zip(&g.b) {
                *b -= lr * gb;
            }
        }
    }

    /// Predicted class per row.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        let logits = self.forward(x);
        (0..logits.rows())
            .map(|r| {
                logits
                    .row(r)
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .expect("nonempty row")
            })
            .collect()
    }

    /// Classification accuracy on a labelled set.
    pub fn accuracy(&self, x: &Matrix, labels: &[usize]) -> f64 {
        let preds = self.predict(x);
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        correct as f64 / labels.len() as f64
    }

    /// Serializes parameters as parameter-server arrays: for each layer,
    /// the flattened weight then the bias, in forward order — the exact
    /// key layout `p3-train` registers with the `KvServer`.
    pub fn export_arrays(&self) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(self.layers.len() * 2);
        for l in &self.layers {
            out.push(l.w.as_slice().to_vec());
            out.push(l.b.clone());
        }
        out
    }

    /// Loads parameters from the array layout of
    /// [`Mlp::export_arrays`].
    ///
    /// # Panics
    ///
    /// Panics if shapes mismatch.
    pub fn import_arrays(&mut self, arrays: &[Vec<f32>]) {
        assert_eq!(arrays.len(), self.layers.len() * 2, "array count mismatch");
        for (i, l) in self.layers.iter_mut().enumerate() {
            let w = &arrays[2 * i];
            let b = &arrays[2 * i + 1];
            assert_eq!(w.len(), l.w.as_slice().len(), "weight size mismatch");
            assert_eq!(b.len(), l.b.len(), "bias size mismatch");
            l.w.as_mut_slice().copy_from_slice(w);
            l.b.copy_from_slice(b);
        }
    }

    /// Gradients in the same array layout as [`Mlp::export_arrays`].
    pub fn grads_to_arrays(grads: &[DenseGrad]) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(grads.len() * 2);
        for g in grads {
            out.push(g.w.as_slice().to_vec());
            out.push(g.b.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_batch(
        rng: &mut SplitMix64,
        n: usize,
        dim: usize,
        classes: usize,
    ) -> (Matrix, Vec<usize>) {
        let x = Matrix::randn(n, dim, 1.0, rng);
        let y = (0..n).map(|i| i % classes).collect();
        (x, y)
    }

    #[test]
    fn initial_loss_is_log_classes() {
        let mut rng = SplitMix64::new(1);
        let mlp = Mlp::new(&[5, 8, 4], &mut rng);
        let (x, y) = toy_batch(&mut rng, 64, 5, 4);
        let (loss, _) = mlp.loss_and_grads(&x, &y);
        // Untrained predictions: loss within a He-init constant of ln(4).
        assert!((loss - (4.0f32).ln()).abs() < 0.8, "loss {loss}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SplitMix64::new(5);
        let mut mlp = Mlp::new(&[3, 6, 3], &mut rng);
        let (x, y) = toy_batch(&mut rng, 10, 3, 3);
        let (_, grads) = mlp.loss_and_grads(&x, &y);
        let eps = 1e-3f32;
        // Check a sample of weight coordinates in both layers.
        #[allow(clippy::needless_range_loop)]
        for layer in 0..2 {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 1)] {
                let orig = mlp.layers[layer].w.get(r, c);
                *mlp.layers[layer].w.get_mut(r, c) = orig + eps;
                let (lp, _) = mlp.loss_and_grads(&x, &y);
                *mlp.layers[layer].w.get_mut(r, c) = orig - eps;
                let (lm, _) = mlp.loss_and_grads(&x, &y);
                *mlp.layers[layer].w.get_mut(r, c) = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[layer].w.get(r, c);
                assert!(
                    (numeric - analytic).abs() < 2e-3,
                    "layer {layer} w[{r},{c}]: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
        // And a bias coordinate.
        let orig = mlp.layers[0].b[1];
        mlp.layers[0].b[1] = orig + eps;
        let (lp, _) = mlp.loss_and_grads(&x, &y);
        mlp.layers[0].b[1] = orig - eps;
        let (lm, _) = mlp.loss_and_grads(&x, &y);
        mlp.layers[0].b[1] = orig;
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - grads[0].b[1]).abs() < 2e-3);
    }

    #[test]
    fn sgd_reduces_loss_on_fixed_batch() {
        let mut rng = SplitMix64::new(2);
        // Memorize 32 random points (labels independent of inputs): pure
        // capacity test of the optimizer and gradients.
        let mut mlp = Mlp::new(&[4, 48, 3], &mut rng);
        let (x, y) = toy_batch(&mut rng, 32, 4, 3);
        let (initial, _) = mlp.loss_and_grads(&x, &y);
        for _ in 0..600 {
            let (_, grads) = mlp.loss_and_grads(&x, &y);
            mlp.apply_sgd(&grads, 0.5);
        }
        let (final_loss, _) = mlp.loss_and_grads(&x, &y);
        assert!(
            final_loss < initial * 0.25,
            "loss barely moved: {initial} -> {final_loss}"
        );
        assert!(mlp.accuracy(&x, &y) > 0.85);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut rng = SplitMix64::new(11);
        let mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let arrays = mlp.export_arrays();
        assert_eq!(arrays.len(), 4); // 2 layers × (w, b)
        let mut other = Mlp::new(&[3, 5, 2], &mut rng);
        assert_ne!(other, mlp);
        other.import_arrays(&arrays);
        assert_eq!(other, mlp);
    }

    #[test]
    fn param_count() {
        let mut rng = SplitMix64::new(0);
        let mlp = Mlp::new(&[10, 20, 5], &mut rng);
        let params: usize = mlp.export_arrays().iter().map(Vec::len).sum();
        assert_eq!(params, 10 * 20 + 20 + 20 * 5 + 5);
    }

    #[test]
    fn predict_shapes() {
        let mut rng = SplitMix64::new(3);
        let mlp = Mlp::new(&[4, 8, 3], &mut rng);
        let x = Matrix::randn(6, 4, 1.0, &mut rng);
        let p = mlp.predict(&x);
        assert_eq!(p.len(), 6);
        assert!(p.iter().all(|&c| c < 3));
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn bad_label_rejected() {
        let mut rng = SplitMix64::new(3);
        let mlp = Mlp::new(&[2, 2], &mut rng);
        let x = Matrix::zeros(1, 2);
        mlp.loss_and_grads(&x, &[5]);
    }
}
