//! Engine performance commands: `p3 bench` (measure a sweep of engine
//! configurations into a [`BenchReport`]) and `p3 compare` (diff two
//! reports and fail on regressions).
//!
//! Wall-clock measurement is legal here — the CLI is not a simulation
//! crate — but only ever *reads* the engine: every simulated quantity in a
//! bench point (events, digest, peak in-flight flows, throughput) is
//! deterministic, which is what lets `p3 compare` hold those fields to
//! exact equality across machines while wall-clock throughput gets a
//! tolerance band.

use crate::args::Args;
use crate::commands::{bad_value, machines_expected, CliError};
use p3_allreduce::DEFAULT_COLLECTIVE_SLICE;
use p3_cluster::{BackendKind, ClusterConfig, ClusterSim, MAX_MACHINES};
use p3_core::SyncStrategy;
use p3_models::ModelSpec;
use p3_net::Bandwidth;
use p3_prof::{
    compare_reports, compare_reports_subset, BenchPoint, BenchReport, BENCH_FORMAT_VERSION,
};
use std::fmt::Write as _;

/// Default output path of `p3 bench` — the checked-in baseline that
/// `p3 compare` gates CI against.
const BENCH_OUT: &str = "BENCH_simulate.json";

/// Cluster sizes of the full ladder, per backend. All powers of two so
/// every backend (halving–doubling included) accepts every rung. The
/// collectives go to 128 machines. The PS backend stops at 64: its
/// per-reallocation water-fill is quadratic in concurrent flows (the
/// ROADMAP's window and class items), which puts a 128-machine PS run
/// north of 40 minutes. The trajectory below 64 already records the
/// blow-up a fix must flatten.
fn full_ladder(backend: BackendKind) -> &'static [usize] {
    if backend.is_collective() {
        &[16, 32, 64, 128]
    } else {
        &[16, 32, 64]
    }
}

/// The `--quick` ladder: small enough for a CI smoke job.
const QUICK_LADDER: &[usize] = &[16, 32];

/// One benchmark run: a fixed, seed-pinned configuration so the
/// deterministic fields of the resulting point are reproducible on any
/// machine. The run is timed unprofiled, so events/sec is the engine's
/// own speed. Returns `None` when the configuration fails to run.
#[expect(
    clippy::disallowed_methods,
    reason = "the wall time is the measured quantity of a bench point and never reaches the simulation"
)]
fn bench_point(backend: BackendKind, machines: usize) -> Option<BenchPoint> {
    // Collectives want coarse slices (the PS optimum drowns them in
    // per-chunk overhead).
    let mut strategy = SyncStrategy::p3();
    if backend.is_collective() {
        strategy.slicing = p3_core::Slicing::MaxParams(DEFAULT_COLLECTIVE_SLICE);
    }
    let cfg = ClusterConfig::new(
        ModelSpec::resnet50(),
        strategy,
        machines,
        Bandwidth::from_gbps(10.0),
    )
    .with_iters(1, 2)
    .with_seed(42)
    .with_backend(backend);
    let started = std::time::Instant::now();
    let r = ClusterSim::new(cfg).try_run().ok()?;
    let wall = started.elapsed().as_secs_f64();
    Some(BenchPoint {
        backend: backend.name().to_string(),
        machines: machines as u64,
        events: r.events,
        event_hash: r.event_hash,
        sim_seconds: r.finished_at.as_secs_f64(),
        peak_in_flight: r.peak_in_flight_flows,
        throughput: r.throughput,
        wall_seconds: wall,
        events_per_sec: if wall > 0.0 {
            r.events as f64 / wall
        } else {
            0.0
        },
    })
}

/// `p3 bench [--quick] [--machines A,B,...] [--out FILE]` — sweeps worker
/// count per backend, writes the measured [`BenchReport`] JSON, and prints
/// the table.
pub(crate) fn bench(args: &Args) -> Result<String, CliError> {
    let quick = args.switch("quick");
    let out_path = args.get("out").unwrap_or(BENCH_OUT).to_string();
    // `None`: each backend's full ladder.
    let ladder: Option<Vec<usize>> = match args.get("machines") {
        Some(spec) => Some(
            spec.split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<usize>()
                        .ok()
                        .filter(|n| (1..=MAX_MACHINES).contains(n))
                        .ok_or_else(|| {
                            let each = machines_expected();
                            bad_value("machines", spec, &format!("comma-separated, each a {each}"))
                        })
                })
                .collect::<Result<_, _>>()?,
        ),
        None if quick => Some(QUICK_LADDER.to_vec()),
        None => None,
    };
    // Points are keyed by (backend, machines), so a repeated rung would
    // write a report that no reader accepts.
    let given = ladder.as_deref().unwrap_or_default();
    for (i, &m) in given.iter().enumerate() {
        if given[..i].contains(&m) {
            return Err(bad_value(
                "machines",
                &m.to_string(),
                "each cluster size at most once",
            ));
        }
    }
    args.reject_unknown()?;
    let backends = [
        BackendKind::Ps,
        BackendKind::Ring,
        BackendKind::HalvingDoubling,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>10} {:>6} {:>9} {:>12}",
        "backend", "machines", "events", "peak", "wall(s)", "events/sec"
    );
    let mut points = Vec::new();
    for &backend in &backends {
        for &machines in ladder.as_deref().unwrap_or(full_ladder(backend)) {
            let Some(p) = bench_point(backend, machines) else {
                return Err(CliError::Sim(format!(
                    "bench point {} @ {machines} machines failed to run",
                    backend.name()
                )));
            };
            let _ = writeln!(
                out,
                "{:<18} {:>8} {:>10} {:>6} {:>9.2} {:>12.0}",
                p.backend, p.machines, p.events, p.peak_in_flight, p.wall_seconds, p.events_per_sec
            );
            points.push(p);
        }
    }
    let report = BenchReport {
        version: BENCH_FORMAT_VERSION,
        points,
    };
    std::fs::write(&out_path, report.to_json())
        .map_err(|e| CliError::Io(format!("{out_path}: {e}")))?;
    let _ = writeln!(out, "bench report written: {out_path}");
    Ok(out)
}

/// `p3 compare BASELINE CANDIDATE [--tolerance T] [--subset]` — diffs two
/// bench reports. Deterministic fields must match exactly; wall-clock
/// events/sec may sink to `(1 - T)` of the baseline. Any regression is an
/// error, so the process exits nonzero and CI fails. With `--subset`,
/// baseline points the candidate does not cover are skipped instead of
/// counting as lost coverage — the mode for diffing a `--quick` candidate
/// against the full checked-in ladder.
pub(crate) fn compare(args: &Args) -> Result<String, CliError> {
    let (base_path, cand_path) = match args.positionals() {
        [a, b] => (a.as_str(), b.as_str()),
        _ => {
            return Err(CliError::Sim(
                "compare takes exactly two files: p3 compare BASELINE CANDIDATE".into(),
            ))
        }
    };
    let tolerance: f64 = args.get_or("tolerance", 0.1, "fraction in [0, 1)")?;
    if !(0.0..1.0).contains(&tolerance) {
        return Err(bad_value(
            "tolerance",
            &tolerance.to_string(),
            "fraction in [0, 1)",
        ));
    }
    let subset = args.switch("subset");
    args.reject_unknown()?;
    let read = |path: &str| -> Result<BenchReport, CliError> {
        let doc =
            std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        BenchReport::from_json(&doc).map_err(|e| CliError::Io(format!("{path}: {e}")))
    };
    let baseline = read(base_path)?;
    let candidate = read(cand_path)?;
    let cmp = if subset {
        compare_reports_subset(&baseline, &candidate, tolerance)
    } else {
        compare_reports(&baseline, &candidate, tolerance)
    };
    let rendered = format!("baseline {base_path} vs candidate {cand_path}\n{cmp}");
    if cmp.is_pass() {
        Ok(rendered)
    } else {
        Err(CliError::Regression(rendered))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ArgError;
    use crate::commands::dispatch;

    fn run(line: &str) -> Result<String, CliError> {
        let args =
            Args::parse(line.split_whitespace().map(String::from)).map_err(CliError::Args)?;
        dispatch(&args)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("p3_cli_perf_{}_{name}", std::process::id()))
    }

    fn sample_report(events_per_sec: f64, hash: u64) -> String {
        let p = BenchPoint {
            backend: "ps".into(),
            machines: 4,
            events: 1000,
            event_hash: hash,
            sim_seconds: 1.5,
            peak_in_flight: 12,
            throughput: 640.0,
            wall_seconds: 0.5,
            events_per_sec,
        };
        BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![p],
        }
        .to_json()
    }

    #[test]
    fn compare_within_tolerance_passes() {
        let a = tmp("base_ok.json");
        let b = tmp("cand_ok.json");
        std::fs::write(&a, sample_report(2000.0, 7)).unwrap();
        std::fs::write(&b, sample_report(1900.0, 7)).unwrap();
        let out = run(&format!(
            "compare {} {} --tolerance 0.2",
            a.display(),
            b.display()
        ))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn compare_beyond_tolerance_is_a_regression_error() {
        let a = tmp("base_slow.json");
        let b = tmp("cand_slow.json");
        std::fs::write(&a, sample_report(2000.0, 7)).unwrap();
        std::fs::write(&b, sample_report(500.0, 7)).unwrap();
        let err = run(&format!(
            "compare {} {} --tolerance 0.2",
            a.display(),
            b.display()
        ))
        .unwrap_err();
        assert!(matches!(err, CliError::Regression(_)), "{err}");
        assert!(err.to_string().contains("events/sec"), "{err}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn compare_flags_determinism_drift_at_any_tolerance() {
        let a = tmp("base_drift.json");
        let b = tmp("cand_drift.json");
        std::fs::write(&a, sample_report(2000.0, 7)).unwrap();
        std::fs::write(&b, sample_report(2000.0, 8)).unwrap();
        let err = run(&format!(
            "compare {} {} --tolerance 0.99",
            a.display(),
            b.display()
        ))
        .unwrap_err();
        assert!(err.to_string().contains("event hash"), "{err}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn compare_malformed_inputs_are_structured_errors() {
        let garbage = tmp("garbage.json");
        std::fs::write(&garbage, "not json at all").unwrap();
        let profile = tmp("wrong_schema.json");
        std::fs::write(
            &profile,
            r#"{"format": "p3-profile", "version": 1, "timers": [], "counters": []}"#,
        )
        .unwrap();
        let good = tmp("good.json");
        std::fs::write(&good, sample_report(2000.0, 7)).unwrap();
        let msg = run(&format!("compare {} {}", garbage.display(), good.display()))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("not valid JSON"), "{msg}");
        let msg = run(&format!("compare {} {}", profile.display(), good.display()))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("schema mismatch"), "{msg}");
        let msg = run(&format!("compare {} missing_file.json", good.display()))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("missing_file.json"), "{msg}");
        for f in [&garbage, &profile, &good] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn bench_writes_a_parseable_report_and_compares_clean_against_itself() {
        let out_file = tmp("bench.json");
        let out = run(&format!("bench --machines 2 --out {}", out_file.display())).unwrap();
        assert!(out.contains("bench report written:"), "{out}");
        let doc = std::fs::read_to_string(&out_file).unwrap();
        let report = BenchReport::from_json(&doc).unwrap();
        // One rung × three backends, every field populated.
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert_eq!(p.machines, 2);
            assert!(p.events > 0 && p.event_hash != 0 && p.peak_in_flight > 0);
            assert!(p.throughput > 0.0 && p.sim_seconds > 0.0);
        }
        // A report always passes against itself — the CI gate's base case.
        let cmp = run(&format!(
            "compare {} {}",
            out_file.display(),
            out_file.display()
        ))
        .unwrap();
        assert!(cmp.contains("PASS"), "{cmp}");
        let _ = std::fs::remove_file(&out_file);
    }

    #[test]
    fn bench_rejects_bad_machine_lists() {
        assert!(run("bench --machines 0").is_err());
        assert!(run("bench --machines 2,x").is_err());
        assert!(run("bench --machines 16,1000000000000").is_err());
        assert!(run("bench --machines 129").is_err());
        // Rejected before any point runs, so no report is written.
        let out_file = tmp("repeated.json");
        let line = format!("bench --machines 2,4,2 --out {}", out_file.display());
        let err = run(&line).unwrap_err().to_string();
        assert!(
            err.contains("--machines 2: expected each cluster size at most once"),
            "{err}"
        );
        assert!(!out_file.exists());
    }

    #[test]
    fn compare_refuses_a_candidate_with_a_repeated_point() {
        let base = tmp("base_dup.json");
        let cand = tmp("cand_dup.json");
        std::fs::write(&base, sample_report(2000.0, 7)).unwrap();
        // The drifted copy comes first, so a reader that kept the last
        // duplicate would see only the clean point.
        let clean: BenchReport = BenchReport::from_json(&sample_report(2000.0, 7)).unwrap();
        let mut drifted = clean.points[0].clone();
        drifted.events = 1;
        drifted.event_hash = 8;
        let dup = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![drifted, clean.points[0].clone()],
        };
        std::fs::write(&cand, dup.to_json()).unwrap();
        let err = run(&format!("compare {} {}", base.display(), cand.display()))
            .unwrap_err()
            .to_string();
        assert!(err.contains("(ps, 4) appears more than once"), "{err}");
        for f in [&base, &cand] {
            let _ = std::fs::remove_file(f);
        }
    }

    #[test]
    fn simulate_profile_out_writes_report_without_perturbing_the_digest() {
        let profile_file = tmp("profile.json");
        let base = "simulate --model resnet50 --machines 2 --gbps 20 --iters 2";
        let plain = run(base).unwrap();
        let profiled = run(&format!("{base} --profile-out {}", profile_file.display())).unwrap();
        assert!(profiled.contains("profile written:"), "{profiled}");
        // Same digest with profiling on or off — the non-intrusiveness
        // invariant, end to end through the CLI.
        let hash_line = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("event hash:"))
                .expect("simulate reports its event hash")
                .to_string()
        };
        assert_eq!(hash_line(&plain), hash_line(&profiled));
        assert!(plain.contains("peak in-flight flows:"), "{plain}");
        let doc = std::fs::read_to_string(&profile_file).unwrap();
        let report = p3_prof::ProfileReport::from_json(&doc).unwrap();
        assert!(report.timer("dispatch/NetWake").is_some());
        assert!(report.timer("net/poll").is_some());
        assert!(report.counter("net/reallocations").unwrap_or(0) > 0);
        let _ = std::fs::remove_file(&profile_file);
    }

    #[test]
    fn compare_subset_tolerates_quick_ladders() {
        // Baseline covers two rungs, candidate (a --quick run) only one.
        let p = |machines: u64| BenchPoint {
            backend: "ps".into(),
            machines,
            events: 1000 * machines,
            event_hash: 7 + machines,
            sim_seconds: 1.5,
            peak_in_flight: 12,
            throughput: 640.0,
            wall_seconds: 0.5,
            events_per_sec: 2000.0,
        };
        let full = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![p(4), p(8)],
        };
        let quick = BenchReport {
            version: BENCH_FORMAT_VERSION,
            points: vec![p(4)],
        };
        let a = tmp("subset_base.json");
        let b = tmp("subset_cand.json");
        std::fs::write(&a, full.to_json()).unwrap();
        std::fs::write(&b, quick.to_json()).unwrap();
        let line = format!("compare {} {}", a.display(), b.display());
        let err = run(&line).unwrap_err();
        assert!(err.to_string().contains("missing from candidate"), "{err}");
        let out = run(&format!("{line} --subset")).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("skipped"), "{out}");
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
    }

    #[test]
    fn compare_arity_and_tolerance_validation() {
        assert!(run("compare one.json").is_err());
        assert!(run("compare a.json b.json c.json").is_err());
        let err = run("compare a.json b.json --tolerance 1.5").unwrap_err();
        assert!(err.to_string().contains("tolerance"), "{err}");
    }

    #[test]
    fn bench_rejects_unknown_flags_before_writing() {
        let out_file = tmp("typo.json");
        let err = run(&format!(
            "bench --machines 2 --qiuck --out {}",
            out_file.display()
        ))
        .unwrap_err();
        assert_eq!(err, CliError::Args(ArgError::UnknownFlag("qiuck".into())));
        assert!(!out_file.exists());
    }

    #[test]
    fn compare_rejects_unknown_flags() {
        let err = run("compare a.json b.json --tolerence 0.2").unwrap_err();
        assert_eq!(
            err,
            CliError::Args(ArgError::UnknownFlag("tolerence".into()))
        );
    }
}
