//! Lightweight descriptive statistics used by the experiment harnesses.

/// Running count, mean, minimum and maximum over a stream of `f64`
/// samples.
///
/// # Examples
///
/// ```
/// use p3_des::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!((s.min(), s.max()), (2.0, 9.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN — a NaN sample silently poisons every statistic.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "cannot record NaN");
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample, or +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample, or −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A fixed-layout histogram with exponentially growing bucket bounds, plus
/// the full [`Summary`] statistics of everything recorded.
///
/// Buckets are `[0, b0), [b0, b1), …` with `b(i+1) = b(i) * growth`, and one
/// implicit overflow bucket for samples at or above the last bound. The
/// layout is fixed at construction so histograms from different runs of the
/// same configuration are directly comparable bucket-by-bucket.
///
/// # Examples
///
/// ```
/// use p3_des::Histogram;
///
/// // 4 buckets: [0,1e-6), [1e-6,1e-5), [1e-5,1e-4), [1e-4,1e-3), overflow.
/// let mut h = Histogram::exponential(1e-6, 10.0, 4);
/// h.record(5e-6);
/// h.record(2.0);
/// assert_eq!(h.counts()[1], 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.summary().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    overflow: u64,
    summary: Summary,
}

impl Histogram {
    /// Creates a histogram whose `buckets` upper bounds start at `first`
    /// and grow by `growth` per bucket.
    ///
    /// # Panics
    ///
    /// Panics if `first` is not positive, `growth` is not greater than 1,
    /// or `buckets` is zero.
    pub fn exponential(first: f64, growth: f64, buckets: usize) -> Self {
        assert!(
            first > 0.0 && first.is_finite(),
            "first bound must be positive"
        );
        assert!(growth > 1.0 && growth.is_finite(), "growth must exceed 1");
        assert!(buckets > 0, "need at least one bucket");
        let mut bounds = Vec::with_capacity(buckets);
        let mut b = first;
        for _ in 0..buckets {
            bounds.push(b);
            b *= growth;
        }
        Histogram {
            counts: vec![0; buckets],
            bounds,
            overflow: 0,
            summary: Summary::new(),
        }
    }

    /// Records one sample into its bucket and the running summary.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or negative — histogram samples are
    /// durations/depths, which are non-negative by construction.
    #[expect(
        clippy::indexing_slicing,
        reason = "position returns an index into bounds, and counts is parallel to bounds"
    )]
    pub fn record(&mut self, x: f64) {
        assert!(x >= 0.0, "histogram samples must be non-negative, got {x}");
        self.summary.record(x);
        match self.bounds.iter().position(|&b| x < b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
    }

    /// Upper bounds of the buckets (exclusive).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket sample counts, parallel to [`Histogram::bounds`].
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples at or above the last bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Summary statistics over every recorded sample.
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// Total number of samples recorded.
    pub fn count(&self) -> u64 {
        self.summary.count()
    }
}

/// The `q`-th quantile (0 ≤ q ≤ 1) of a slice using linear interpolation,
/// matching NumPy's default.
///
/// Returns `None` on an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
///
/// # Examples
///
/// ```
/// use p3_des::quantile;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
#[expect(
    clippy::expect_used,
    clippy::indexing_slicing,
    reason = "NaN input is a documented panic; lo <= hi <= len - 1 for q in [0, 1]"
)]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn running_mean_matches_naive() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 100.0).collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let naive_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - naive_mean).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Summary::new().record(f64::NAN);
    }

    #[test]
    fn quantile_edges_and_interpolation() {
        let xs = [10.0, 20.0, 30.0];
        assert_eq!(quantile(&xs, 0.0), Some(10.0));
        assert_eq!(quantile(&xs, 0.5), Some(20.0));
        assert_eq!(quantile(&xs, 1.0), Some(30.0));
        assert_eq!(quantile(&xs, 0.25), Some(15.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::exponential(1.0, 2.0, 3); // bounds 1, 2, 4
        assert_eq!(h.bounds(), &[1.0, 2.0, 4.0]);
        for x in [0.0, 0.5, 1.0, 1.9, 3.0, 4.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.counts(), &[2, 2, 1]);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.count(), 7);
        assert_eq!(h.summary().max(), 100.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn histogram_rejects_negative() {
        Histogram::exponential(1.0, 2.0, 2).record(-0.5);
    }
}
