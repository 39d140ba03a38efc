//! A minimal dense f32 matrix — just enough linear algebra for exact
//! backpropagation through small classifiers.
//!
//! The accuracy experiments (Fig. 11, Fig. 15) compare *algorithms*
//! (synchronous SGD vs lossy compression vs stale asynchrony), so what
//! matters is exact, reproducible math, not BLAS throughput.

use p3_des::SplitMix64;
use std::fmt;

/// A row-major `rows × cols` matrix of `f32`.
///
/// # Examples
///
/// ```
/// use p3_tensor::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// A matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A matrix with entries drawn from `N(0, std²)`.
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut SplitMix64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for v in &mut m.data {
            *v = rng.normal() as f32 * std;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(rows: &[&[f32]]) -> Matrix {
        assert!(!rows.is_empty() && !rows[0].is_empty(), "empty matrix");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        assert!(rows > 0 && cols > 0, "degenerate matrix {rows}x{cols}");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }

    /// One row as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The flat row-major data, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            for i in 0..self.cols {
                let a = self.get(k, i);
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            for j in 0..other.rows {
                let mut acc = 0.0;
                for (a, b) in self.row(i).iter().zip(other.row(j)) {
                    acc += a * b;
                }
                *out.get_mut(i, j) = acc;
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                *out.get_mut(j, i) = self.get(i, j);
            }
        }
        out
    }

    /// Adds a bias row-vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub fn add_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            for (v, b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Element-wise ReLU.
    pub fn relu(&self) -> Matrix {
        let mut out = self.clone();
        for v in &mut out.data {
            *v = v.max(0.0);
        }
        out
    }

    /// Element-wise product with the ReLU mask of `pre` (backprop through
    /// ReLU): `out[i] = self[i] * (pre[i] > 0)`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn relu_backward(&self, pre: &Matrix) -> Matrix {
        assert_eq!(
            (self.rows, self.cols),
            (pre.rows, pre.cols),
            "shape mismatch"
        );
        let mut out = self.clone();
        for (v, &p) in out.data.iter_mut().zip(&pre.data) {
            if p <= 0.0 {
                *v = 0.0;
            }
        }
        out
    }

    /// Row-wise softmax.
    pub fn softmax(&self) -> Matrix {
        let mut out = self.clone();
        for r in 0..self.rows {
            let row = &mut out.data[r * self.cols..(r + 1) * self.cols];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        out
    }

    /// Column sums (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        sums
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_variants_agree() {
        let mut rng = SplitMix64::new(3);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let c = Matrix::randn(6, 3, 1.0, &mut rng);
        // aᵀ·b via t_matmul equals explicit transpose.
        let direct = a.t_matmul(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
        // a·cᵀ via matmul_t equals explicit transpose.
        let direct = a.matmul_t(&c);
        let explicit = a.matmul(&c.transpose());
        for (x, y) in direct.as_slice().iter().zip(explicit.as_slice()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = SplitMix64::new(9);
        let a = Matrix::randn(5, 7, 3.0, &mut rng);
        let s = a.softmax();
        for r in 0..5 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(r).iter().all(|&p| p > 0.0));
        }
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = Matrix::from_rows(&[&[1000.0, 1001.0, 999.0]]);
        let s = a.softmax();
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        let b = Matrix::from_rows(&[&[0.0, 1.0, -1.0]]);
        for (x, y) in s.as_slice().iter().zip(b.softmax().as_slice()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn relu_and_backward_mask() {
        let pre = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        let act = pre.relu();
        assert_eq!(act, Matrix::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
        let grad = Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        let masked = grad.relu_backward(&pre);
        assert_eq!(masked, Matrix::from_rows(&[&[0.0, 5.0], &[0.0, 0.0]]));
    }

    #[test]
    fn bias_and_col_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_bias(&[1.0, -2.0]);
        assert_eq!(a.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn bad_matmul_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = SplitMix64::new(42);
        let mut r2 = SplitMix64::new(42);
        assert_eq!(
            Matrix::randn(4, 4, 0.5, &mut r1),
            Matrix::randn(4, 4, 0.5, &mut r2)
        );
    }
}
