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
    indices: Vec<u32>,
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
