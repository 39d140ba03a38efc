//! Deterministic fault injection: straggler episodes, degraded links,
//! message loss, and worker crashes.
//!
//! A [`FaultPlan`] is a *schedule*, not a random process: every episode has
//! explicit simulated start times, so the same seed and plan replay the
//! exact same run (the reproducibility property the test suite pins). The
//! only randomness is per-message loss, drawn from a dedicated RNG stream
//! seeded from the run seed — independent of the sharding/jitter streams,
//! so enabling loss never perturbs placement or compute timing.
//!
//! An empty plan is free: the simulator schedules no fault events, draws no
//! extra random numbers, and produces a bit-identical [`RunResult`] to a
//! build without the subsystem.
//!
//! [`RunResult`]: crate::RunResult

use p3_des::{SimDuration, SimTime};

/// One worker computing slower than its peers for a bounded interval —
/// thermal throttling, a noisy neighbour, a background daemon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerEpisode {
    /// Affected worker (machine index).
    pub worker: usize,
    /// When the slowdown begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Compute-time multiplier while active (`2.0` = half speed). Must be
    /// `>= 1`. Applies to blocks *scheduled* during the episode; a block
    /// already executing finishes at its original speed.
    pub slowdown: f64,
}

/// One machine's NIC running below nominal capacity for a bounded
/// interval — a flapping link, ECMP imbalance, an overloaded ToR port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Affected machine (both its transmit and receive directions).
    pub machine: usize,
    /// When the degradation begins.
    pub start: SimTime,
    /// How long it lasts.
    pub duration: SimDuration,
    /// Fraction of nominal port capacity available while active, in
    /// `(0, 1]`. Flows in flight are rescaled mid-transfer.
    pub capacity_factor: f64,
}

/// One worker process dying, optionally restarting later. The colocated
/// server shard survives (process-level failure, not machine loss), so no
/// parameter state is lost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerCrash {
    /// Affected worker (machine index).
    pub worker: usize,
    /// Instant the process dies: in-flight transmissions are cancelled and
    /// queued sends discarded.
    pub at: SimTime,
    /// Delay until the process restarts and re-syncs, or `None` for a
    /// permanent failure.
    pub rejoin_after: Option<SimDuration>,
}

/// A reproducible schedule of faults for one simulated run.
///
/// # Examples
///
/// ```
/// use p3_cluster::{FaultPlan, StragglerEpisode};
/// use p3_des::{SimDuration, SimTime};
///
/// let mut plan = FaultPlan::none();
/// assert!(plan.is_empty());
/// plan.stragglers.push(StragglerEpisode {
///     worker: 1,
///     start: SimTime::from_secs(2),
///     duration: SimDuration::from_secs(3),
///     slowdown: 4.0,
/// });
/// assert!(plan.validate(4).is_ok());
/// assert!(plan.validate(1).is_err()); // worker 1 does not exist
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Compute slowdown episodes.
    pub stragglers: Vec<StragglerEpisode>,
    /// Port capacity degradation episodes.
    pub link_degradations: Vec<LinkDegradation>,
    /// Probability that any one non-loopback message is dropped in the
    /// network, in `[0, 1)`. Non-zero loss arms the timeout/retransmit
    /// machinery ([`RetryPolicy`](p3_pserver::RetryPolicy)).
    pub loss_probability: f64,
    /// Worker process crashes (at most one per worker).
    pub crashes: Vec<WorkerCrash>,
}

impl FaultPlan {
    /// The empty plan: no faults, zero simulation overhead.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.stragglers.is_empty()
            && self.link_degradations.is_empty()
            && self.loss_probability == 0.0
            && self.crashes.is_empty()
    }

    /// True if messages can fail to arrive, requiring per-message retry
    /// timers (loss or crashes; stragglers and slow links only delay).
    pub fn needs_reliability(&self) -> bool {
        self.loss_probability > 0.0 || !self.crashes.is_empty()
    }

    /// Checks the plan against a cluster of `machines` machines.
    ///
    /// Rejects out-of-range machine indices, non-positive durations, spans
    /// that end past the simulated clock, slowdowns that are not finite or
    /// below 1, capacity factors outside `(0, 1]`, loss outside `[0, 1)`,
    /// more than one crash per worker, overlapping episodes on one
    /// worker/machine, and plans that permanently kill every worker.
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        for s in &self.stragglers {
            if s.worker >= machines {
                return Err(format!("straggler worker {} out of range", s.worker));
            }
            if !(s.slowdown.is_finite() && s.slowdown >= 1.0) {
                return Err(format!(
                    "straggler slowdown {} must be finite and >= 1",
                    s.slowdown
                ));
            }
        }
        check_spans(
            self.stragglers
                .iter()
                .map(|s| (s.worker, s.start, s.duration)),
            "straggler episodes",
        )?;
        for d in &self.link_degradations {
            if d.machine >= machines {
                return Err(format!("degraded machine {} out of range", d.machine));
            }
            if !(d.capacity_factor > 0.0 && d.capacity_factor <= 1.0) {
                return Err(format!(
                    "capacity factor {} must be in (0, 1]",
                    d.capacity_factor
                ));
            }
        }
        check_spans(
            self.link_degradations
                .iter()
                .map(|d| (d.machine, d.start, d.duration)),
            "link degradations",
        )?;
        if !(0.0..1.0).contains(&self.loss_probability) {
            return Err(format!(
                "loss probability {} must be in [0, 1)",
                self.loss_probability
            ));
        }
        let mut crashed = vec![false; machines];
        let mut survivors = machines;
        for c in &self.crashes {
            if c.worker >= machines {
                return Err(format!("crashed worker {} out of range", c.worker));
            }
            if crashed[c.worker] {
                return Err(format!("worker {} crashes more than once", c.worker));
            }
            let past = |r: SimDuration| c.at.as_nanos().checked_add(r.as_nanos()).is_none();
            if c.rejoin_after.is_some_and(past) {
                return Err(format!("worker {} rejoins past the clock", c.worker));
            }
            crashed[c.worker] = true;
            if c.rejoin_after.is_none() {
                survivors -= 1;
            }
        }
        if survivors == 0 {
            return Err("every worker crashes permanently; nothing can finish".into());
        }
        Ok(())
    }
}

/// Rejects `(index, start, duration)` intervals that are empty or end
/// past the clock, and overlapping ones on one target.
fn check_spans(
    episodes: impl Iterator<Item = (usize, SimTime, SimDuration)>,
    what: &str,
) -> Result<(), String> {
    let mut spans = Vec::new();
    for (i, s, d) in episodes {
        if d.is_zero() {
            return Err(format!("{what} on index {i} have zero duration"));
        }
        let past = || format!("{what} on index {i} end past the clock");
        let end = s.as_nanos().checked_add(d.as_nanos()).ok_or_else(past)?;
        spans.push((i, s, SimTime::from_nanos(end)));
    }
    spans.sort_by_key(|&(i, s, _)| (i, s));
    for w in spans.windows(2) {
        let (i0, _, end0) = w[0];
        let (i1, start1, _) = w[1];
        if i0 == i1 && start1 < end0 {
            return Err(format!("overlapping {what} on index {i0}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straggler(worker: usize, start_s: u64, dur_s: u64) -> StragglerEpisode {
        StragglerEpisode {
            worker,
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(dur_s),
            slowdown: 2.0,
        }
    }

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.needs_reliability());
        assert!(p.validate(1).is_ok());
    }

    #[test]
    fn loss_alone_needs_reliability() {
        let p = FaultPlan {
            loss_probability: 0.01,
            ..FaultPlan::none()
        };
        assert!(!p.is_empty());
        assert!(p.needs_reliability());
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn stragglers_do_not_need_reliability() {
        let p = FaultPlan {
            stragglers: vec![straggler(0, 1, 1)],
            ..FaultPlan::none()
        };
        assert!(!p.needs_reliability());
    }

    #[test]
    fn out_of_range_indices_rejected() {
        let p = FaultPlan {
            stragglers: vec![straggler(5, 0, 1)],
            ..FaultPlan::none()
        };
        assert!(p.validate(4).is_err());
        let p = FaultPlan {
            crashes: vec![WorkerCrash {
                worker: 9,
                at: SimTime::from_secs(1),
                rejoin_after: None,
            }],
            ..FaultPlan::none()
        };
        assert!(p.validate(4).is_err());
    }

    #[test]
    fn overlapping_stragglers_rejected() {
        let p = FaultPlan {
            stragglers: vec![straggler(2, 0, 5), straggler(2, 3, 5)],
            ..FaultPlan::none()
        };
        assert!(p.validate(4).is_err());
        // Same intervals on different workers are fine.
        let p = FaultPlan {
            stragglers: vec![straggler(1, 0, 5), straggler(2, 0, 5)],
            ..FaultPlan::none()
        };
        assert!(p.validate(4).is_ok());
    }

    #[test]
    fn bad_scalars_rejected() {
        let mut s = straggler(0, 0, 1);
        s.slowdown = 0.5;
        let p = FaultPlan {
            stragglers: vec![s],
            ..FaultPlan::none()
        };
        assert!(p.validate(1).is_err());
        let p = FaultPlan {
            loss_probability: 1.0,
            ..FaultPlan::none()
        };
        assert!(p.validate(1).is_err());
        let p = FaultPlan {
            link_degradations: vec![LinkDegradation {
                machine: 0,
                start: SimTime::ZERO,
                duration: SimDuration::from_secs(1),
                capacity_factor: 0.0,
            }],
            ..FaultPlan::none()
        };
        assert!(p.validate(1).is_err());
    }

    #[test]
    fn slowdowns_that_are_not_finite_are_rejected() {
        for slowdown in [f64::INFINITY, f64::NAN] {
            let mut s = straggler(0, 0, 1);
            s.slowdown = slowdown;
            let p = FaultPlan {
                stragglers: vec![s],
                ..FaultPlan::none()
            };
            let why = p.validate(1).unwrap_err();
            assert!(why.contains("must be finite"), "{why}");
        }
    }

    #[test]
    fn spans_that_end_past_the_clock_are_rejected() {
        let (late, long) = (
            SimTime::from_nanos(u64::MAX - 5),
            SimDuration::from_nanos(6),
        );
        let mut s = straggler(0, 0, 1);
        (s.start, s.duration) = (late, long);
        let p = FaultPlan {
            stragglers: vec![s],
            ..FaultPlan::none()
        };
        let past = |what: &str| Err(format!("{what} on index 0 end past the clock"));
        assert_eq!(p.validate(1), past("straggler episodes"));
        let p = FaultPlan {
            link_degradations: vec![LinkDegradation {
                machine: 0,
                start: late,
                duration: long,
                capacity_factor: 0.5,
            }],
            ..FaultPlan::none()
        };
        assert_eq!(p.validate(1), past("link degradations"));
        let p = FaultPlan {
            crashes: vec![WorkerCrash {
                worker: 0,
                at: late,
                rejoin_after: Some(long),
            }],
            ..FaultPlan::none()
        };
        assert_eq!(p.validate(1), Err("worker 0 rejoins past the clock".into()));
        // Ending at the last instant is fine.
        let p = FaultPlan {
            crashes: vec![WorkerCrash {
                worker: 0,
                at: late,
                rejoin_after: Some(SimDuration::from_nanos(5)),
            }],
            ..FaultPlan::none()
        };
        assert!(p.validate(1).is_ok());
    }

    #[test]
    fn total_permanent_loss_rejected() {
        let crash = |w: usize| WorkerCrash {
            worker: w,
            at: SimTime::from_secs(1),
            rejoin_after: None,
        };
        let p = FaultPlan {
            crashes: vec![crash(0), crash(1)],
            ..FaultPlan::none()
        };
        assert!(p.validate(2).is_err());
        let p = FaultPlan {
            crashes: vec![crash(0)],
            ..FaultPlan::none()
        };
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn double_crash_rejected() {
        let crash = WorkerCrash {
            worker: 0,
            at: SimTime::from_secs(1),
            rejoin_after: Some(SimDuration::from_secs(1)),
        };
        let p = FaultPlan {
            crashes: vec![crash, crash],
            ..FaultPlan::none()
        };
        assert!(p.validate(2).is_err());
    }
}
