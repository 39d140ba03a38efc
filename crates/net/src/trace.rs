//! NIC utilization tracing, the simulator's equivalent of the paper's
//! `bwm-ng` 10 ms interface sampling (Figures 8, 9, 13, 14).

use p3_des::{SimDuration, SimTime};

/// Accumulates bytes moved through one directed port into fixed-width time
/// bins.
///
/// # Examples
///
/// ```
/// use p3_des::{SimDuration, SimTime};
/// use p3_net::PortTrace;
///
/// let mut t = PortTrace::new(SimDuration::from_millis(10));
/// // 1000 bytes/s for the first 25 ms.
/// t.add_rate(SimTime::ZERO, SimTime::from_millis(25), 1000.0);
/// let bins = t.bytes_per_bin();
/// assert_eq!(bins.len(), 3);
/// assert!((bins[0] - 10.0).abs() < 1e-9);
/// assert!((bins[2] - 5.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PortTrace {
    bin: SimDuration,
    /// Bytes per bin; the network's snapshot walk reads and writes it.
    pub(crate) bytes: Vec<f64>,
}

impl PortTrace {
    /// Creates a trace with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin` is zero.
    pub fn new(bin: SimDuration) -> Self {
        assert!(!bin.is_zero(), "trace bin width must be positive");
        PortTrace {
            bin,
            bytes: Vec::new(),
        }
    }

    /// Records a constant transfer rate (bytes/sec) over `[from, to)`,
    /// splitting the volume across bins proportionally.
    ///
    /// # Panics
    ///
    /// Panics if `to < from` or the rate is negative/non-finite.
    #[expect(
        clippy::indexing_slicing,
        reason = "bytes is resized to cover idx just before the write"
    )]
    pub fn add_rate(&mut self, from: SimTime, to: SimTime, bytes_per_sec: f64) {
        assert!(to >= from, "time interval reversed: {from}..{to}");
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec >= 0.0,
            "invalid rate {bytes_per_sec}"
        );
        if bytes_per_sec == 0.0 || to == from {
            return;
        }
        let bin_ns = self.bin.as_nanos();
        let mut cursor = from.as_nanos();
        let end = to.as_nanos();
        while cursor < end {
            let idx = (cursor / bin_ns) as usize;
            let bin_end = (cursor / bin_ns + 1) * bin_ns;
            let seg_end = bin_end.min(end);
            let seg_secs = (seg_end - cursor) as f64 / 1e9;
            if self.bytes.len() <= idx {
                self.bytes.resize(idx + 1, 0.0);
            }
            self.bytes[idx] += bytes_per_sec * seg_secs;
            cursor = seg_end;
        }
    }

    /// Bytes accumulated in each bin, from simulation start.
    pub fn bytes_per_bin(&self) -> &[f64] {
        &self.bytes
    }

    /// Average throughput per bin in gigabits per second — the series the
    /// paper plots.
    pub fn gbps_series(&self) -> Vec<f64> {
        let bin_secs = self.bin.as_secs_f64();
        self.bytes
            .iter()
            .map(|b| b * 8.0 / 1e9 / bin_secs)
            .collect()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> f64 {
        self.bytes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn volume_is_conserved_across_bins() {
        let mut t = PortTrace::new(SimDuration::from_millis(10));
        t.add_rate(ms(3), ms(47), 1e6);
        let expected = 1e6 * 0.044;
        assert!((t.total_bytes() - expected).abs() < 1e-6);
    }

    #[test]
    fn rate_splits_proportionally() {
        let mut t = PortTrace::new(SimDuration::from_millis(10));
        t.add_rate(ms(5), ms(15), 2000.0); // 5ms in bin0, 5ms in bin1
        let bins = t.bytes_per_bin();
        assert!((bins[0] - 10.0).abs() < 1e-9);
        assert!((bins[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gbps_series_matches_rate() {
        let mut t = PortTrace::new(SimDuration::from_millis(10));
        // 1.25e8 bytes/sec == 1 Gbps, sustained for 3 full bins.
        t.add_rate(ms(0), ms(30), 1.25e8);
        for g in t.gbps_series() {
            assert!((g - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_rate_and_empty_interval_are_noops() {
        let mut t = PortTrace::new(SimDuration::from_millis(10));
        t.add_rate(ms(0), ms(100), 0.0);
        t.add_rate(ms(5), ms(5), 1e9);
        assert_eq!(t.total_bytes(), 0.0);
        assert!(t.bytes_per_bin().is_empty());
    }

    #[test]
    #[should_panic(expected = "reversed")]
    fn reversed_interval_panics() {
        let mut t = PortTrace::new(SimDuration::from_millis(1));
        t.add_rate(ms(5), ms(4), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bin_panics() {
        PortTrace::new(SimDuration::ZERO);
    }
}
