//! Pins the exact bytes of the two versioned JSON reports.
//!
//! `p3 compare` gates on the checked-in `BENCH_simulate.json`, and
//! downstream tooling reads profile reports. A writer change that moves a
//! single byte of these documents fails here, whatever the code behind
//! `to_json` looks like.

use p3::prof::{
    BenchReport, CounterEntry, ProfileReport, TimerEntry, BENCH_FORMAT_VERSION,
    PROFILE_FORMAT_VERSION,
};

fn profile() -> ProfileReport {
    ProfileReport {
        version: PROFILE_FORMAT_VERSION,
        wall_seconds: 0.125,
        sim_seconds: 3.5,
        events: 4096,
        events_per_sec: 32768.0,
        sim_rate: 28.000000000000004,
        timers: vec![
            TimerEntry {
                key: "dispatch/Compute".into(),
                calls: 128,
                seconds: 0.0625,
            },
            TimerEntry {
                key: "net/\"poll\"\t\\".into(),
                calls: 0,
                seconds: 1e-9,
            },
        ],
        counters: vec![
            CounterEntry {
                key: "heap/pushes".into(),
                value: u64::MAX,
            },
            CounterEntry {
                key: "net/reallocations".into(),
                value: 77,
            },
        ],
    }
}

const PROFILE: &str = r#"{
  "format": "p3-profile",
  "version": 1,
  "wall_seconds": 0.125,
  "sim_seconds": 3.5,
  "events": 4096,
  "events_per_sec": 32768,
  "sim_rate": 28.000000000000004,
  "timers": [
    {"key": "dispatch/Compute", "calls": 128, "seconds": 0.0625},
    {"key": "net/\"poll\"\t\\", "calls": 0, "seconds": 0.000000001}
  ],
  "counters": [
    {"key": "heap/pushes", "value": 18446744073709551615},
    {"key": "net/reallocations", "value": 77}
  ]
}
"#;

const EMPTY_PROFILE: &str = r#"{
  "format": "p3-profile",
  "version": 1,
  "wall_seconds": 0.125,
  "sim_seconds": 3.5,
  "events": 4096,
  "events_per_sec": 32768,
  "sim_rate": 28.000000000000004,
  "timers": [],
  "counters": []
}
"#;

const EMPTY_BENCH: &str = r#"{
  "format": "p3-bench",
  "version": 1,
  "points": []
}
"#;

#[test]
fn profile_report_bytes_are_pinned() {
    let r = profile();
    assert_eq!(r.to_json(), PROFILE);
    assert_eq!(ProfileReport::from_json(PROFILE).expect("parses"), r);
    let empty = ProfileReport {
        timers: Vec::new(),
        counters: Vec::new(),
        ..r
    };
    assert_eq!(empty.to_json(), EMPTY_PROFILE);
    assert_eq!(
        ProfileReport::from_json(EMPTY_PROFILE).expect("parses"),
        empty
    );
}

#[test]
fn bench_report_bytes_are_pinned() {
    let empty = BenchReport {
        version: BENCH_FORMAT_VERSION,
        points: Vec::new(),
    };
    assert_eq!(empty.to_json(), EMPTY_BENCH);
    let text = include_str!("../BENCH_simulate.json");
    let back = BenchReport::from_json(text).expect("BENCH_simulate.json parses");
    assert_eq!(back.points.len(), 11);
    assert_eq!(back.to_json(), text);
}
