//! Sparse gradient representation shared by the compression schemes.

/// A sparse view of a gradient tensor: the entries a compressor chose to
/// transmit.
///
/// # Examples
///
/// ```
/// use p3_compress::SparseGrad;
///
/// let s = SparseGrad::new(5, vec![1, 3], vec![0.5, -0.25]);
/// assert_eq!(s.to_dense(), vec![0.0, 0.5, 0.0, -0.25, 0.0]);
/// assert_eq!(s.nnz(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGrad {
    len: usize,
    pub(crate) indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseGrad {
    /// Creates a sparse gradient over a dense tensor of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `indices` and `values` lengths differ, or any index is out
    /// of range or duplicated.
    pub fn new(len: usize, indices: Vec<u32>, values: Vec<f32>) -> SparseGrad {
        assert_eq!(indices.len(), values.len(), "indices/values mismatch");
        let mut seen = vec![false; len];
        for &i in &indices {
            assert!((i as usize) < len, "index {i} out of range {len}");
            assert!(!seen[i as usize], "duplicate index {i}");
            seen[i as usize] = true;
        }
        SparseGrad {
            len,
            indices,
            values,
        }
    }

    /// Dense tensor length.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are transmitted.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Number of transmitted entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Transmitted values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Drains the top-`keep` entries of a local accumulator: the nonzero
    /// entries whose magnitude is at least the `keep`-th largest, at most
    /// `keep` of them, lowest indices first. Each drained entry is zeroed
    /// in `acc` and returned for transmission; the rest stay accumulated.
    /// DGC and gradient dropping differ only in how they choose `keep`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= keep <= acc.len()`.
    #[expect(clippy::expect_used, reason = "gradient magnitudes are finite")]
    pub(crate) fn drain_top_k(acc: &mut [f32], keep: usize) -> SparseGrad {
        let n = acc.len();
        assert!((1..=n).contains(&keep), "keep {keep} outside 1..={n}");
        // Threshold = k-th largest |acc|; select_nth keeps it O(n).
        let mut mags: Vec<f32> = acc.iter().map(|x| x.abs()).collect();
        let idx = n - keep;
        mags.select_nth_unstable_by(idx, |a, b| a.partial_cmp(b).expect("finite"));
        let kth = mags[idx];

        let mut indices = Vec::with_capacity(keep);
        let mut values = Vec::with_capacity(keep);
        for (i, a) in acc.iter_mut().enumerate() {
            if a.abs() >= kth && indices.len() < keep && *a != 0.0 {
                indices.push(i as u32);
                values.push(*a);
                *a = 0.0;
            }
        }
        SparseGrad::new(n, indices, values)
    }

    /// Expands to a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.len];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_roundtrip() {
        let s = SparseGrad::new(4, vec![0, 3], vec![1.0, 2.0]);
        assert_eq!(s.to_dense(), vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn drain_skips_zeros() {
        let mut acc = vec![0.0, 0.0, 1.0];
        let s = SparseGrad::drain_top_k(&mut acc, 3);
        assert_eq!(s.indices, vec![2]);
        assert_eq!(acc, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn duplicates_rejected() {
        SparseGrad::new(4, vec![1, 1], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        SparseGrad::new(2, vec![5], vec![1.0]);
    }
}
