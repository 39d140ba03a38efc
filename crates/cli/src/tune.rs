//! The `p3 tune` subcommand: deterministic parallel configuration search
//! over (model × bandwidth × fault-class) cells. Thin argument/output
//! shell around `p3-tune`'s search driver.

use crate::args::Args;
use crate::commands::{
    bad_value, gbps_list, model_by_name, parse_topology_flags, resolve_machines, CliError,
};
use p3_models::ModelSpec;
use p3_tune::{
    tune, verify_recommended, Cell, EvalParams, FaultClass, SearchSpace, TuneReport, TuneSettings,
};
use std::fmt::Write as _;

pub(crate) fn tune_cmd(args: &Args) -> Result<String, CliError> {
    let models: Vec<ModelSpec> = args
        .get("models")
        .unwrap_or("resnet50")
        .split(',')
        .map(|m| model_by_name(m.trim()))
        .collect::<Result<_, _>>()?;
    if args.get("placement").is_some() {
        return Err(bad_value(
            "placement",
            args.get("placement").unwrap_or(""),
            "no --placement flag: tune searches placement, list values in --grid placement=...",
        ));
    }
    let (topology, _placement) = parse_topology_flags(args)?;
    let machines = resolve_machines(args, topology.as_ref(), 4)?;
    let gbps = gbps_list(args, &[10.0])?;
    let faults: Vec<FaultClass> = args
        .get("faults")
        .unwrap_or("none")
        .split(',')
        .map(|f| {
            FaultClass::parse(f.trim()).map_err(|_| CliError::UnknownName {
                kind: "fault class",
                value: f.trim().to_string(),
                choices: "none, loss, straggler, crash",
            })
        })
        .collect::<Result<_, _>>()?;
    let space = match args.get("grid") {
        None => SearchSpace::default_space(),
        Some(spec) => SearchSpace::parse(spec).map_err(CliError::Sim)?,
    };
    let params = EvalParams {
        warmup: args.get_or("warmup", 2, "integer")?,
        screen_measure: args.get_or("screen-measure", 3, "integer")?,
        measure: args.get_or("measure", 10, "integer")?,
    };
    let settings = TuneSettings {
        space,
        params,
        generations: args.get_or("genetic-generations", 0, "integer")?,
        population: args.get_or("population", 8, "integer")?,
        seed: args.get_or("seed", 42, "integer")?,
        jobs: args.get_or("jobs", 1, "integer")?,
    };
    let mut cells = Vec::new();
    for model in &models {
        for &g in &gbps {
            for &fault in &faults {
                cells.push(Cell {
                    model: model.clone(),
                    machines,
                    gbps: g,
                    topology: topology.clone(),
                    fault,
                });
            }
        }
    }
    let outcome = tune(&cells, &settings).map_err(|e| CliError::Sim(e.to_string()))?;
    let report = TuneReport::from_outcome(&outcome, &settings);

    let mut out = String::new();
    out.push_str(&report.table());
    for c in &report.cells {
        let _ = writeln!(
            out,
            "cell {}: evaluated {} candidate(s) ({} infeasible), frontier {}",
            c.name,
            c.evaluated,
            c.infeasible,
            c.frontier.len()
        );
    }
    let cost = &report.cost;
    let _ = writeln!(
        out,
        "search cost: {} screening + {} refinement runs ({} warm-started, {} fresh), \
         {} cache hit(s), {} sim events",
        cost.screening_runs,
        cost.refinement_runs,
        cost.warm_restores,
        cost.warm_fallbacks,
        cost.cache_hits,
        cost.sim_events
    );
    // Wall-clock lives only on stdout; the report file stays byte-stable.
    let stage = |key: &str| -> f64 {
        outcome
            .profile
            .timer(match key {
                "screen" => "tune/screen",
                "genetic" => "tune/genetic",
                _ => "tune/refine",
            })
            .map_or(0.0, |t| t.seconds)
    };
    let _ = writeln!(
        out,
        "wall time: {:.2}s (screen {:.2}s, genetic {:.2}s, refine {:.2}s)",
        outcome.profile.wall_seconds,
        stage("screen"),
        stage("genetic"),
        stage("refine"),
    );
    if args.switch("audit") {
        let audited =
            verify_recommended(&outcome, &settings).map_err(|e| CliError::Audit(e.to_string()))?;
        let _ = writeln!(
            out,
            "audit: {audited} recommended config(s) re-simulate audit-clean"
        );
    }
    if let Some(path) = args.get("out") {
        std::fs::write(path, report.to_json()).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
        let _ = writeln!(out, "report file: {path}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use crate::args::{ArgError, Args};
    use crate::commands::{dispatch, CliError};

    fn run(line: &str) -> Result<String, crate::commands::CliError> {
        let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let args = Args::parse(tokens).expect("parse");
        dispatch(&args)
    }

    const TINY: &str = "tune --models alexnet --gbps 10 --machines 3 \
                        --grid slice=1000000,4000000;policy=consumption;backend=ps \
                        --warmup 1 --screen-measure 2 --measure 3 --seed 7";

    #[test]
    fn tune_prints_table_and_cost() {
        let out = run(TINY).expect("tune runs");
        assert!(out.contains("AlexNet/m3/10gbps/flat/none"), "{out}");
        assert!(out.contains("search cost:"), "{out}");
        assert!(out.contains("frontier"), "{out}");
    }

    #[test]
    fn tune_output_is_jobs_invariant_and_repeatable() {
        let strip_wall = |s: String| -> String {
            s.lines()
                .filter(|l| !l.starts_with("wall time:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let a = strip_wall(run(&format!("{TINY} --jobs 1")).expect("jobs 1"));
        let b = strip_wall(run(&format!("{TINY} --jobs 4")).expect("jobs 4"));
        let c = strip_wall(run(&format!("{TINY} --jobs 4")).expect("jobs 4 again"));
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn tune_audit_verifies_recommended() {
        let out = run(&format!("{TINY} --audit")).expect("tune with audit");
        assert!(out.contains("re-simulate audit-clean"), "{out}");
    }

    #[test]
    fn tune_rejects_placement_flag() {
        assert!(run("tune --models alexnet --placement packed").is_err());
    }

    #[test]
    fn tune_rejects_out_of_range_machines_and_gbps() {
        for bad in ["--machines 0", "--gbps -1", "--gbps 10,0"] {
            let line = format!("tune --models alexnet {bad}");
            assert!(
                matches!(run(&line), Err(CliError::Args(ArgError::BadValue { .. }))),
                "{line}"
            );
        }
    }

    #[test]
    fn tune_rejects_unknown_fault_class() {
        assert!(run("tune --models alexnet --faults meteor").is_err());
    }
}
