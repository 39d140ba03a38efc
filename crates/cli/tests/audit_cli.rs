//! End-to-end coverage for `p3 audit`: clean traces pass, each mutated
//! fixture fails naming exactly the invariant it breaks, and the
//! `--audit` simulate flag runs the checker inline.

use std::path::{Path, PathBuf};

use p3_cli::{dispatch, Args, CliError};

#[expect(clippy::expect_used, reason = "test command lines are well formed")]
fn run(line: &str) -> Result<String, CliError> {
    let args = Args::parse(line.split_whitespace().map(String::from)).expect("parse");
    dispatch(&args)
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/audit")
        .join(name)
}

fn audit_fixture(name: &str) -> Result<String, CliError> {
    run(&format!("audit {}", fixture(name).display()))
}

#[test]
fn clean_fixture_audits_clean() {
    let out = audit_fixture("clean_round.json").expect("clean trace must audit clean");
    assert!(out.contains("audit: clean"), "{out}");
}

#[test]
fn mutated_fixtures_name_their_invariant() {
    // One checked-in trace per invariant in the catalog; `p3 audit` must
    // reject each one and say which invariant broke.
    let cases = [
        ("monotone_clock.json", "monotone-clock"),
        ("causal_order.json", "causal-order"),
        ("byte_conservation.json", "byte-conservation"),
        ("capacity_feasibility.json", "capacity-feasibility"),
        ("priority_inversion.json", "priority-inversion"),
        ("in_flight_window.json", "in-flight-window"),
        ("stall_accounting.json", "stall-accounting"),
    ];
    for (file, invariant) in cases {
        match audit_fixture(file) {
            Err(CliError::Audit(report)) => assert!(
                report.contains(invariant),
                "{file}: report does not name {invariant}:\n{report}"
            ),
            other => panic!("{file}: expected an audit failure, got {other:?}"),
        }
    }
}

#[test]
fn audit_accepts_file_flag_form() {
    let out = run(&format!(
        "audit --file {}",
        fixture("clean_round.json").display()
    ))
    .unwrap();
    assert!(out.contains("audit: clean"), "{out}");
}

#[test]
fn audit_rejects_missing_and_non_trace_files() {
    let err = run("audit /nonexistent/trace.json").unwrap_err();
    assert!(matches!(err, CliError::Io(_)), "{err:?}");

    let garbage = std::env::temp_dir().join(format!("p3-garbage-{}.json", std::process::id()));
    std::fs::write(&garbage, "{\"traceEvents\": []}").unwrap();
    let err = run(&format!("audit {}", garbage.display())).unwrap_err();
    let _ = std::fs::remove_file(&garbage);
    let msg = err.to_string();
    assert!(msg.contains("p3 simulate --trace-out"), "{msg}");
}

#[test]
fn simulated_trace_round_trips_through_audit() {
    let trace = std::env::temp_dir().join(format!("p3-audit-e2e-{}.json", std::process::id()));
    run(&format!(
        "simulate --model resnet50 --strategy p3 --machines 2 --gbps 20 --iters 2 \
         --trace-out {}",
        trace.display()
    ))
    .expect("simulate");
    let out = run(&format!("audit {}", trace.display()));
    let _ = std::fs::remove_file(&trace);
    let out = out.expect("simulator trace must satisfy the invariant catalog");
    assert!(out.contains("audit: clean"), "{out}");
}

#[test]
fn simulate_audit_flag_checks_inline() {
    let out = run(
        "simulate --model resnet50 --strategy p3 --machines 2 --gbps 20 --iters 2 \
                   --audit",
    )
    .expect("audited run");
    assert!(out.contains("audit: clean"), "{out}");
}

#[test]
fn fixture_reports_are_pinned() {
    // The full report text of every checked-in fixture: violations in
    // discovery order, suppressed count and skipped notes.
    let cases: [(&str, &[&str]); 8] = [
        (
            "clean_round.json",
            &[
                "audit: clean — 31 events",
            ],
        ),
        (
            "monotone_clock.json",
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: monotone-clock)",
                "  [monotone-clock] event #11 @ 19000ns: recorded at 19000ns after an event at 20000ns — the DES clock ran backwards",
            ],
        ),
        (
            "causal_order.json",
            &[
                "audit: FAILED — 3 violation(s) in 31 events (invariants: causal-order)",
                "  [causal-order] event #16 @ 22000ns: msg 1 delivered while Queued",
                "  [causal-order] event #19 @ 30000ns: msg 1 starts transmitting while Delivered",
                "  [causal-order] event #20 @ 30000ns: server 0 aggregates k0 r0 from w1 but no matching push was delivered",
            ],
        ),
        (
            "byte_conservation.json",
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: byte-conservation)",
                "  [byte-conservation] event #19 @ 30000ns: msg 1 delivered as 1500000 bytes to m0 but started as Some(1000000) bytes to mSome(0)",
            ],
        ),
        (
            "capacity_feasibility.json",
            &[
                "audit: FAILED — 1 violation(s) in 16 events (invariants: capacity-feasibility)",
                "  [capacity-feasibility] port m0 (tx): 2000000 bytes delivered in a 0.008ms window — exceeds capacity 200000000000 bytes/sec",
            ],
        ),
        (
            "priority_inversion.json",
            &[
                "audit: FAILED — 1 violation(s) in 12 events (invariants: priority-inversion)",
                "  [priority-inversion] event #6 @ 1000ns: msg 0 (priority 5) starts while more urgent msg 1 (priority 1) waits in the same queue",
            ],
        ),
        (
            "in_flight_window.json",
            &[
                "audit: FAILED — 1 violation(s) in 12 events (invariants: in-flight-window)",
                "  [in-flight-window] event #8 @ 1000ns: endpoint m0/0 has 3 messages in flight (window 2)",
            ],
        ),
        (
            "stall_accounting.json",
            &[
                "audit: FAILED — 1 violation(s) in 31 events (invariants: stall-accounting)",
                "  [stall-accounting] event #10 @ 21000ns: worker 0: iteration span 21000ns != compute 20000ns + stall 0ns (unaccounted 1000ns)",
            ],
        ),
    ];
    let mut diffs = Vec::new();
    for (file, want) in cases {
        let doc = std::fs::read_to_string(fixture(file)).expect("fixture");
        let (log, meta) = p3_trace::import_trace_json(&doc).expect("fixture imports");
        let got = p3_audit::check_with(&log, &p3_audit::AuditOptions::from_meta(&meta)).to_string();
        if got != want.join("\n") {
            diffs.push(format!("{file}:\n{got:?}"));
        }
    }
    assert!(
        diffs.is_empty(),
        "pinned reports differ:\n{}",
        diffs.join("\n")
    );
}
