//! Pins the exact bytes of the three versioned JSON reports.
//!
//! `p3 compare` gates on the checked-in `BENCH_simulate.json`, CI greps
//! the tune report for `"frontier": []` and `"recommended": null`, and
//! downstream tooling reads profile reports. A writer change that moves a
//! single byte of these documents fails here, whatever the code behind
//! `to_json` looks like.

use p3::prof::{
    BenchReport, CounterEntry, ProfileReport, TimerEntry, BENCH_FORMAT_VERSION,
    PROFILE_FORMAT_VERSION,
};
use p3::tune::{CellReport, ConfigEntry, Objectives, SearchCost, TuneReport, TUNE_FORMAT_VERSION};

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

fn entry(slice: u64, hash: u64) -> ConfigEntry {
    ConfigEntry {
        candidate: format!(
            "backend=ps,slice={slice},policy=consumption,channels=1,placement=spread"
        ),
        slice,
        policy: "consumption".into(),
        backend: "ps".into(),
        channels: 1,
        placement: "spread".into(),
        objectives: Objectives {
            iter_secs: 0.1875,
            wire_bytes: 123_456_789,
            stall_p99_secs: 0.015,
        },
        refined: slice == 50_000,
        events: 42_000,
        event_hash: hash,
    }
}

fn tune() -> TuneReport {
    TuneReport {
        version: TUNE_FORMAT_VERSION,
        seed: 42,
        warmup: 1,
        screen_measure: 1,
        measure: 2,
        generations: 1,
        population: 4,
        cost: SearchCost {
            screening_runs: 24,
            refinement_runs: 3,
            warm_restores: 2,
            warm_fallbacks: 1,
            cache_hits: 5,
            infeasible: 1,
            sim_events: 1_000_000,
        },
        cells: vec![
            CellReport {
                name: "resnet50/m2/10gbps/flat/none".into(),
                machines: 2,
                gbps: 10.0,
                fault: "none".into(),
                evaluated: 12,
                infeasible: 0,
                frontier: vec![entry(50_000, 0xDEAD_BEEF_1234_5678), entry(4_000, 7)],
                recommended: Some(entry(50_000, 0xDEAD_BEEF_1234_5678)),
            },
            CellReport {
                name: "vgg19/m2/\"2.5gbps\"/flat/loss".into(),
                machines: 2,
                gbps: 2.5,
                fault: "loss".into(),
                evaluated: 12,
                infeasible: 12,
                frontier: Vec::new(),
                recommended: None,
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

const TUNE: &str = r#"{
  "format": "p3-tune",
  "version": 1,
  "seed": 42,
  "warmup": 1,
  "screen_measure": 1,
  "measure": 2,
  "generations": 1,
  "population": 4,
  "cost": {
    "screening_runs": 24,
    "refinement_runs": 3,
    "warm_restores": 2,
    "warm_fallbacks": 1,
    "cache_hits": 5,
    "infeasible": 1,
    "sim_events": 1000000
  },
  "cells": [
    {
      "name": "resnet50/m2/10gbps/flat/none",
      "machines": 2,
      "gbps": 10,
      "fault": "none",
      "evaluated": 12,
      "infeasible": 0,
      "frontier": [
        {"candidate": "backend=ps,slice=50000,policy=consumption,channels=1,placement=spread", "slice": 50000, "policy": "consumption", "backend": "ps", "channels": 1, "placement": "spread", "iter_secs": 0.1875, "wire_bytes": 123456789, "stall_p99_secs": 0.015, "refined": true, "events": 42000, "event_hash": "0xdeadbeef12345678"},
        {"candidate": "backend=ps,slice=4000,policy=consumption,channels=1,placement=spread", "slice": 4000, "policy": "consumption", "backend": "ps", "channels": 1, "placement": "spread", "iter_secs": 0.1875, "wire_bytes": 123456789, "stall_p99_secs": 0.015, "refined": false, "events": 42000, "event_hash": "0x0000000000000007"}
      ],
      "recommended": {"candidate": "backend=ps,slice=50000,policy=consumption,channels=1,placement=spread", "slice": 50000, "policy": "consumption", "backend": "ps", "channels": 1, "placement": "spread", "iter_secs": 0.1875, "wire_bytes": 123456789, "stall_p99_secs": 0.015, "refined": true, "events": 42000, "event_hash": "0xdeadbeef12345678"}
    },
    {
      "name": "vgg19/m2/\"2.5gbps\"/flat/loss",
      "machines": 2,
      "gbps": 2.5,
      "fault": "loss",
      "evaluated": 12,
      "infeasible": 12,
      "frontier": [],
      "recommended": null
    }
  ]
}
"#;

const EMPTY_TUNE_TAIL: &str = r#"  "cells": []
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
fn tune_report_bytes_are_pinned() {
    let r = tune();
    assert_eq!(r.to_json(), TUNE);
    assert_eq!(TuneReport::from_json(TUNE).expect("parses"), r);
    let empty = TuneReport {
        cells: Vec::new(),
        ..r
    };
    let text = empty.to_json();
    assert!(text.ends_with(EMPTY_TUNE_TAIL), "{text}");
    assert_eq!(TuneReport::from_json(&text).expect("parses"), empty);
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
    assert_eq!(back.points.len(), 9);
    assert_eq!(back.to_json(), text);
}
