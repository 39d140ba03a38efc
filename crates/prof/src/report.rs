//! The per-run [`ProfileReport`]: versioned JSON written by
//! `p3 simulate --profile-out`, parsed back for tests and tooling. One
//! member list ([`crate::Doc`]) both writes and reads it.

use crate::doc::{Doc, ReportError};

/// Version stamp of the [`ProfileReport`] JSON schema.
pub const PROFILE_FORMAT_VERSION: u64 = 1;

/// Discriminator value of the `"format"` member of a profile document.
const PROFILE_FORMAT: &str = "p3-profile";

/// One scoped timer in a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimerEntry {
    /// Timer key, e.g. `dispatch/Compute` or `net/poll`.
    pub key: String,
    /// Number of recorded spans.
    pub calls: u64,
    /// Total wall time across all spans, in seconds.
    pub seconds: f64,
}

/// One monotonic counter in a report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterEntry {
    /// Counter key, e.g. `net/reallocations`.
    pub key: String,
    /// Final value.
    pub value: u64,
}

/// Everything one profiled run measured about the simulator itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Schema version ([`PROFILE_FORMAT_VERSION`]).
    pub version: u64,
    /// Wall time the run took, in seconds.
    pub wall_seconds: f64,
    /// How far the simulated clock advanced, in seconds.
    pub sim_seconds: f64,
    /// Simulator events dispatched.
    pub events: u64,
    /// `events / wall_seconds` — the engine's own throughput.
    pub events_per_sec: f64,
    /// `sim_seconds / wall_seconds` — how much faster than real time the
    /// simulation ran.
    pub sim_rate: f64,
    /// Scoped timers, sorted by key.
    pub timers: Vec<TimerEntry>,
    /// Monotonic counters, sorted by key.
    pub counters: Vec<CounterEntry>,
}

impl ProfileReport {
    /// The report's one member list, run by both `to_json` and
    /// `from_json`.
    fn walk(d: &mut Doc<'_>, r: &mut ProfileReport) -> Result<(), ReportError> {
        d.header(PROFILE_FORMAT, PROFILE_FORMAT_VERSION, &mut r.version)?;
        d.f64("wall_seconds", &mut r.wall_seconds)?;
        d.f64("sim_seconds", &mut r.sim_seconds)?;
        d.u64("events", &mut r.events)?;
        d.f64("events_per_sec", &mut r.events_per_sec)?;
        d.f64("sim_rate", &mut r.sim_rate)?;
        d.list("timers", &mut r.timers, |d, t| {
            d.str("key", &mut t.key)?;
            d.u64("calls", &mut t.calls)?;
            d.f64("seconds", &mut t.seconds)
        })?;
        d.list("counters", &mut r.counters, |d, c| {
            d.str("key", &mut c.key)?;
            d.u64("value", &mut c.value)
        })
    }

    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        Doc::write(self, Self::walk)
    }

    /// Parses a report back from JSON. Never panics: every malformed
    /// input maps to a [`ReportError`].
    pub fn from_json(text: &str) -> Result<ProfileReport, ReportError> {
        Doc::read(text, Self::walk)
    }

    /// The value of counter `key`, if present.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.key == key).map(|c| c.value)
    }

    /// The timer entry for `key`, if present.
    pub fn timer(&self, key: &str) -> Option<&TimerEntry> {
        self.timers.iter().find(|t| t.key == key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ProfileReport {
        ProfileReport {
            version: PROFILE_FORMAT_VERSION,
            wall_seconds: 0.125,
            sim_seconds: 3.5,
            events: 4096,
            events_per_sec: 32768.0,
            sim_rate: 28.0,
            timers: vec![TimerEntry {
                key: "dispatch/Compute".into(),
                calls: 128,
                seconds: 0.0625,
            }],
            counters: vec![CounterEntry {
                key: "net/reallocations".into(),
                value: 77,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let back = ProfileReport::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn empty_report_round_trips() {
        let r = ProfileReport {
            timers: Vec::new(),
            counters: Vec::new(),
            ..sample()
        };
        assert_eq!(ProfileReport::from_json(&r.to_json()).unwrap(), r);
    }

    #[test]
    fn garbage_is_a_json_error() {
        assert!(matches!(
            ProfileReport::from_json("not json at all"),
            Err(ReportError::Json(_))
        ));
    }

    #[test]
    fn wrong_format_is_a_schema_error() {
        let doc = r#"{"format": "p3-bench", "version": 1}"#;
        assert!(matches!(
            ProfileReport::from_json(doc),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn future_version_is_a_version_error() {
        let doc = r#"{"format": "p3-profile", "version": 99, "timers": [], "counters": []}"#;
        assert_eq!(
            ProfileReport::from_json(doc),
            Err(ReportError::Version {
                found: 99,
                expected: PROFILE_FORMAT_VERSION
            })
        );
    }

    #[test]
    fn missing_member_is_a_schema_error() {
        let doc = r#"{"format": "p3-profile", "version": 1, "timers": [], "counters": []}"#;
        let err = ProfileReport::from_json(doc).unwrap_err();
        assert!(
            matches!(err, ReportError::Schema(ref s) if s.contains("wall_seconds")),
            "{err}"
        );
    }

    #[test]
    fn lookup_helpers() {
        let r = sample();
        assert_eq!(r.counter("net/reallocations"), Some(77));
        assert_eq!(r.counter("absent"), None);
        assert_eq!(r.timer("dispatch/Compute").unwrap().calls, 128);
    }
}
