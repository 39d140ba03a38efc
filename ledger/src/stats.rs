//! Order statistics over timing samples: median, nearest-rank
//! percentiles, the highest percentile that still has ten samples beyond
//! it, and the interquartile spread used to decide whether a difference
//! is resolved.

/// Samples that must lie beyond a tail percentile before it is reported
/// as a measured tail rather than an extrapolation.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count), or
/// `None` for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(p: u32, n: usize) -> usize {
    ((u64::from(p) * n as u64).div_ceil(100) as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (1..=100), or `None` for no samples.
pub fn percentile(values: &[f64], p: u32) -> Option<f64> {
    let v = sorted(values);
    (!v.is_empty()).then(|| v[rank(p, v.len()) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(p: u32, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile among 50, 55, …, 95, 99 with at least
/// [`MIN_BEYOND`] samples beyond it in `n` samples; `None` when even the
/// median has fewer (n < 20).
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (50..=95)
        .step_by(5)
        .chain([99])
        .filter(|&p| beyond(p, n) >= MIN_BEYOND)
        .max()
}

/// First and third quartiles by the exclusive method (the default of
/// Python's `statistics.quantiles(values, n=4)`); `None` below two
/// samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Negative when the clamp moved j up: extrapolation, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median: the spread a
/// difference must exceed to count as resolved. Zero below two samples
/// or for a zero median.
pub fn iqr_frac(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}
