//! Identifier and unit newtypes for the network model.

use core::fmt;

/// Index of a machine in the cluster (worker and, when colocated, its
/// parameter-server shard share one machine and therefore one NIC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub usize);

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Opaque handle to an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Transmission urgency class. **Lower value = more urgent**, mirroring the
/// paper's convention that the layer processed first in the forward pass
/// (layer index 0) has the highest priority.
///
/// Flows in a more urgent class receive strictly all the bandwidth they can
/// use before any less urgent class is served.
///
/// # Examples
///
/// ```
/// use p3_net::Priority;
///
/// assert!(Priority(0) < Priority(3)); // 0 is served first
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Priority(pub u32);

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "prio{}", self.0)
    }
}

/// Link bandwidth, stored as bits per second (the unit network gear is
/// specified in).
///
/// # Examples
///
/// ```
/// use p3_net::Bandwidth;
///
/// let bw = Bandwidth::from_gbps(10.0);
/// assert_eq!(bw.bytes_per_sec(), 1.25e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Creates a bandwidth from bits per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is negative or non-finite.
    pub fn from_bps(bps: f64) -> Self {
        assert!(bps.is_finite() && bps >= 0.0, "invalid bandwidth {bps} bps");
        Bandwidth(bps)
    }

    /// Creates a bandwidth from gigabits per second.
    pub fn from_gbps(gbps: f64) -> Self {
        Bandwidth::from_bps(gbps * 1e9)
    }

    /// This bandwidth in bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.0 / 8.0
    }

    /// This bandwidth in gigabits per second.
    #[inline]
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}Gbps", self.gbps())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ordering() {
        assert!(Priority(1) < Priority(2));
    }

    #[test]
    fn bandwidth_units() {
        let bw = Bandwidth::from_bps(800e6);
        assert!((bw.gbps() - 0.8).abs() < 1e-12);
        assert_eq!(bw.bytes_per_sec(), 1e8);
    }

    #[test]
    #[should_panic(expected = "invalid bandwidth")]
    fn bandwidth_rejects_negative() {
        Bandwidth::from_bps(-1.0);
    }

    #[test]
    fn display_forms() {
        assert_eq!(MachineId(3).to_string(), "m3");
        assert_eq!(FlowId(9).to_string(), "flow9");
        assert_eq!(Priority(2).to_string(), "prio2");
        assert_eq!(Bandwidth::from_gbps(4.0).to_string(), "4.000Gbps");
    }
}
