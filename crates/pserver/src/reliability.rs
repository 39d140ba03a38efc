//! Timeout/retransmit policy for the push/pull protocol.
//!
//! The baseline protocol assumes a perfect transport: every message sent is
//! eventually delivered. Under injected faults (lossy links, worker
//! crashes) that assumption breaks, so the cluster simulator arms a retry
//! timer per in-flight message. [`RetryPolicy`] is the pure policy half of
//! that mechanism: given an attempt number it answers "how long do we wait
//! before retransmitting?", with exponential backoff and a bounded retry
//! budget. Keeping it here — beside the wire protocol it protects — lets
//! both the simulator and any future real transport share one policy.

use p3_des::SimDuration;
use p3_trace::FaultKind;

/// What the retry machinery does with a timed-out message.
///
/// Produced by [`RetryPolicy::decide`]; the simulator acts on the decision
/// and traces it as the fault [`RetryDecision::fault_kind`] names, so the
/// trace mirrors exactly what happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Send the message again and arm a timer with this timeout.
    Retransmit {
        /// Timeout for the retransmitted attempt.
        timeout: SimDuration,
    },
    /// The retry budget is spent; abandon the message.
    GiveUp,
}

impl RetryDecision {
    /// The trace fault this decision records as: `Retransmit` or `GiveUp`.
    pub fn fault_kind(&self) -> FaultKind {
        match self {
            RetryDecision::Retransmit { .. } => FaultKind::Retransmit,
            RetryDecision::GiveUp => FaultKind::GiveUp,
        }
    }
}

/// Factor by which each retransmission's timeout grows over the last.
const BACKOFF: f64 = 2.0;

/// Retransmissions of one message before the sender gives up: with
/// [`BACKOFF`], enough that a message survives p=0.5 loss with
/// probability 1 − 2⁻¹⁷.
const MAX_RETRIES: u32 = 16;

/// Exponential-backoff retransmission policy for unacknowledged messages.
///
/// Attempt `n` (0-based) times out after `base_timeout * 2^n`, saturating
/// at [`RetryPolicy::MAX_TIMEOUT`]. After 16 retransmissions the sender
/// gives up on the message.
///
/// # Examples
///
/// ```
/// use p3_des::SimDuration;
/// use p3_pserver::RetryPolicy;
///
/// let p = RetryPolicy::new(SimDuration::from_millis(10));
/// assert_eq!(p.timeout_for(0), SimDuration::from_millis(10));
/// assert_eq!(p.timeout_for(2), SimDuration::from_millis(40));
/// assert!(p.exhausted(16));
/// assert!(!p.exhausted(15));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Timeout before the first retransmission.
    pub base_timeout: SimDuration,
}

impl RetryPolicy {
    /// Ceiling on any single timeout: 60 simulated seconds.
    pub const MAX_TIMEOUT: SimDuration = SimDuration::from_secs(60);

    /// Creates a policy.
    ///
    /// # Panics
    ///
    /// Panics if `base_timeout` is zero.
    pub fn new(base_timeout: SimDuration) -> Self {
        assert!(base_timeout.as_nanos() > 0, "base timeout must be positive");
        RetryPolicy { base_timeout }
    }

    /// Timeout armed for the given 0-based attempt:
    /// `base_timeout * 2^attempt`, capped at [`Self::MAX_TIMEOUT`].
    pub fn timeout_for(&self, attempt: u32) -> SimDuration {
        let cap = Self::MAX_TIMEOUT.as_nanos() as f64;
        let scaled = self.base_timeout.as_nanos() as f64 * BACKOFF.powi(attempt as i32);
        SimDuration::from_nanos(scaled.min(cap) as u64)
    }

    /// True once `attempt` exceeds the retry budget: the message is
    /// abandoned rather than retransmitted again.
    pub fn exhausted(&self, attempt: u32) -> bool {
        attempt >= MAX_RETRIES
    }

    /// The policy's verdict when attempt `attempt` (0-based) times out:
    /// retransmit with the next attempt's timeout, or give up once the
    /// budget is spent. Equivalent to [`RetryPolicy::exhausted`] +
    /// [`RetryPolicy::timeout_for`], packaged so callers cannot pair the
    /// wrong timeout with the wrong attempt.
    pub fn decide(&self, attempt: u32) -> RetryDecision {
        if self.exhausted(attempt) {
            RetryDecision::GiveUp
        } else {
            RetryDecision::Retransmit {
                timeout: self.timeout_for(attempt + 1),
            }
        }
    }
}

impl Default for RetryPolicy {
    /// A 50 ms base timeout.
    fn default() -> Self {
        RetryPolicy::new(SimDuration::from_millis(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles() {
        let p = RetryPolicy::new(SimDuration::from_millis(5));
        assert_eq!(p.timeout_for(0), SimDuration::from_millis(5));
        assert_eq!(p.timeout_for(1), SimDuration::from_millis(10));
        assert_eq!(p.timeout_for(3), SimDuration::from_millis(40));
    }

    #[test]
    fn timeout_saturates_at_cap() {
        let p = RetryPolicy::new(SimDuration::from_secs(1));
        assert_eq!(p.timeout_for(30), RetryPolicy::MAX_TIMEOUT);
    }

    #[test]
    fn exhaustion_boundary() {
        let p = RetryPolicy::new(SimDuration::from_millis(1));
        assert!(!p.exhausted(0));
        assert!(!p.exhausted(15));
        assert!(p.exhausted(16));
        assert!(p.exhausted(100));
    }

    #[test]
    fn decide_matches_exhausted_and_timeout() {
        let p = RetryPolicy::new(SimDuration::from_millis(10));
        assert_eq!(
            p.decide(0),
            RetryDecision::Retransmit {
                timeout: SimDuration::from_millis(20)
            }
        );
        assert_eq!(
            p.decide(1),
            RetryDecision::Retransmit {
                timeout: SimDuration::from_millis(40)
            }
        );
        assert_eq!(p.decide(16), RetryDecision::GiveUp);
    }

    #[test]
    fn decisions_name_their_fault_kind() {
        let p = RetryPolicy::new(SimDuration::from_millis(1));
        assert_eq!(p.decide(15).fault_kind(), FaultKind::Retransmit);
        assert_eq!(p.decide(16).fault_kind(), FaultKind::GiveUp);
    }

    #[test]
    #[should_panic(expected = "base timeout must be positive")]
    fn zero_base_rejected() {
        RetryPolicy::new(SimDuration::from_nanos(0));
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Timeouts never decrease with the attempt number and never exceed
        /// the cap — the invariants that make retransmission converge
        /// instead of hammering a congested link.
        #[test]
        fn timeouts_monotone_and_bounded(base_ms in 1u64..5_000) {
            let p = RetryPolicy::new(SimDuration::from_millis(base_ms));
            let mut last = SimDuration::from_nanos(0);
            for a in 0..MAX_RETRIES + 2 {
                let t = p.timeout_for(a);
                prop_assert!(t >= last, "timeout shrank at attempt {}", a);
                prop_assert!(t <= RetryPolicy::MAX_TIMEOUT);
                last = t;
            }
        }
    }
}
