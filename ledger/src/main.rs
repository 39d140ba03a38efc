//! `p3-ledger` command line: run the benchmark, one workload or all, or
//! diff two report files.

use p3_ledger::diff::diff;
use p3_ledger::layers::traced_pass;
use p3_ledger::measure::{run_loop, Inputs, Tally, MIN_REPS};
use p3_ledger::report::{self, Outcome};
use p3_ledger::spec::{workload, Workload, DEFAULT_SEED, RUN_SECONDS, WORKLOADS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  p3-ledger [--seed S] [--seconds N] [--trace] [--json FILE]
      every workload, each in a fresh child process, one after another
  p3-ledger --workload NAME [--seed S] [--seconds N] [--trace 0|1] [--json FILE]
      one workload in this process; the last stdout line is the result object
  p3-ledger diff BASE.json CAND.json
      classify every (metric, workload) row against the bounds; exit 1 on a regression";

#[derive(Debug)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    json: Option<String>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        json: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = number(value()?)?,
            "--json" => o.json = Some(value()?),
            // `--trace` alone, or with an explicit 0 or 1.
            "--trace" => {
                let explicit = it.next_if(|v| *v == "0" || *v == "1");
                o.trace = explicit.is_none_or(|v| v == "1");
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

/// Measures one workload in this process.
fn run_one(w: &Workload, o: &Opts) -> Result<ExitCode, String> {
    let inputs = Inputs::new(w, o.seed, w.machines);
    let mut tally = Tally::default();
    let measured = run_loop(&inputs, o.seconds as f64, MIN_REPS, &mut tally);
    let mut outcome = Outcome {
        workload: w.name.to_string(),
        seed: o.seed,
        reps: measured.reps.len(),
        end_to_end: measured.end_to_end(),
        ..Outcome::default()
    };
    if o.trace {
        outcome.per_layer = traced_pass(&inputs, &measured, &mut tally);
    }
    outcome.attempted = tally.attempted;
    outcome.failed = tally.failed;
    print!("{}", outcome.table());
    println!(
        "  host slowdown {:.4} (end-to-end times are CPU seconds divided by it)",
        measured.slowdown
    );
    match measured.run_tail() {
        Some((p, secs, n)) => println!("  run_s tail: p{p} = {secs:.6} s over {n} runs"),
        None => println!("  run_s tail: none (a tail needs 20 runs, 10 beyond it)"),
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report::to_json(std::slice::from_ref(&outcome)))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", outcome.result_line(o.trace));
    Ok(if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measures every workload, each in a fresh child process of this
/// binary, one at a time; merges their reports when `--json` is given.
fn run_all(o: &Opts) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut outcomes = Vec::new();
    let mut all_ok = true;
    for w in WORKLOADS {
        let part = o.json.as_ref().map(|p| format!("{p}.{}.part", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }]);
        if let Some(p) = &part {
            cmd.args(["--json", p]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("starting {}: {e}", w.name))?;
        all_ok &= status.success();
        if let Some(p) = &part {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            outcomes.extend(report::from_json(&text).map_err(|e| format!("{p}: {e}"))?);
            std::fs::remove_file(p).map_err(|e| format!("{p}: {e}"))?;
        }
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report::to_json(&outcomes)).map_err(|e| format!("{path}: {e}"))?;
        println!("ledger report written: {path}");
    }
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_diff(base: &str, cand: &str) -> Result<ExitCode, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| report::from_json(&t).map_err(|e| format!("{path}: {e}")))
    };
    let d = diff(&read(base)?, &read(cand)?);
    println!("baseline {base} vs candidate {cand}\n{d}");
    Ok(if d.is_pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("diff") => match &args[1..] {
            [base, cand] => run_diff(base, cand),
            _ => Err("diff takes exactly two report files".into()),
        },
        Some("-h" | "--help" | "help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse(&args).and_then(|o| match &o.workload {
            Some(name) => match workload(name) {
                Some(w) => run_one(w, &o),
                None => Err(format!("unknown workload {name:?}")),
            },
            None => run_all(&o),
        }),
    };
    result.unwrap_or_else(|e| {
        eprintln!("p3-ledger: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
