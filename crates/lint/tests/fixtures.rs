//! Mutation-style negative tests: each `fixtures/bad_*.rs` file contains a
//! determinism hazard the lint claims to catch; if the scanner regresses,
//! these fail. `allowed_ok.rs` proves justified markers and test-only code
//! are exempt, and the workspace self-lint pins the repo itself clean.
//!
//! `fixtures/ws/` is a two-crate mini-workspace whose hazards are all
//! *indirect* (cross-crate wrappers, re-exported aliases): the token
//! scanner provably misses every one of them, and the taint pass catches
//! every one. `fixtures/ws_budget/` trips the unwrap, panic and index
//! ratchets. A final self-consistency test iterates the complete rule
//! catalog and demands a tripping fixture for each rule.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use p3_lint::{
    lint_source, lint_source_for_crate, lint_workspace, lint_workspace_with, report, schema, taint,
    CrateAllow, Finding, WorkspaceOptions, FILE_LENGTH_RULE, FLOAT_ACCUM_RULE, MAX_FILE_LINES,
    RULES,
};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn ws_options(crates: &[&str]) -> WorkspaceOptions {
    WorkspaceOptions {
        sim_crates: crates.iter().map(|s| s.to_string()).collect(),
        budget_crates: crates.iter().map(|s| s.to_string()).collect(),
        repo_checks: false,
    }
}

fn lint_fixture(name: &str) -> Vec<Finding> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let source =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    lint_source(&path, &source)
}

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn hashmap_fixture_trips_unordered() {
    let f = lint_fixture("bad_hashmap.rs");
    assert!(!f.is_empty());
    assert!(
        rules(&f).iter().all(|r| *r == "unordered"),
        "unexpected rules: {f:?}"
    );
    // Both the HashMap and the HashSet lines are reported.
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert!(lines.contains(&2) && lines.contains(&3), "{lines:?}");
}

#[test]
fn instant_fixture_trips_wall_clock() {
    let f = lint_fixture("bad_instant.rs");
    assert!(rules(&f).contains(&"wall-clock"), "{f:?}");
    assert!(
        f.iter()
            .any(|x| x.rule == "wall-clock" && x.message.contains("Instant::now")),
        "{f:?}"
    );
    assert!(
        f.iter()
            .any(|x| x.rule == "wall-clock" && x.message.contains("SystemTime")),
        "{f:?}"
    );
}

#[test]
fn thread_rng_fixture_trips_ambient_rng() {
    let f = lint_fixture("bad_thread_rng.rs");
    assert!(rules(&f).contains(&"ambient-rng"), "{f:?}");
    assert!(
        f.iter().any(|x| x.message.contains("thread_rng"))
            && f.iter().any(|x| x.message.contains("rand::random")),
        "{f:?}"
    );
}

#[test]
fn float_accum_fixture_trips_heuristic() {
    let f = lint_fixture("bad_float_accum.rs");
    let hits: Vec<&Finding> = f
        .iter()
        .filter(|x| x.rule == "float-accum-unordered")
        .collect();
    // Both the `.sum()` and the `.fold()` statements are caught.
    assert_eq!(hits.len(), 2, "{f:?}");
}

#[test]
fn justified_allow_and_test_code_are_exempt() {
    let f = lint_fixture("allowed_ok.rs");
    assert!(f.is_empty(), "expected clean, got {f:?}");
}

#[test]
fn allow_marker_without_reason_is_a_finding() {
    let f = lint_fixture("allow_no_reason.rs");
    assert!(rules(&f).contains(&"allow-marker"), "{f:?}");
}

#[test]
fn findings_render_with_file_line_and_rule() {
    let f = lint_fixture("bad_hashmap.rs");
    let rendered = f[0].to_string();
    assert!(rendered.contains("bad_hashmap.rs:2"), "{rendered}");
    assert!(rendered.contains("[unordered]"), "{rendered}");
}

/// The real `p3-lint.toml` exempts `wall-clock` for `p3-prof` and for
/// no other crate: `Instant::now` must still be rejected in the engine
/// crates (`p3-cluster`, `p3-net`, `p3-des`, …) after the crate-scoped
/// allowlist is applied.
#[test]
fn wall_clock_stays_banned_outside_prof() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let toml = std::fs::read_to_string(root.join("p3-lint.toml")).expect("p3-lint.toml");
    let allow = CrateAllow::parse(&toml).expect("crate-allow section");

    assert!(allow.allows("prof", "wall-clock"));
    for krate in ["cluster", "net", "des"] {
        assert!(
            !allow.allows(krate, "wall-clock"),
            "wall-clock must not be exempted for p3-{krate}"
        );
    }

    let src = "fn f() {\n    let t = Instant::now();\n}\n";
    for krate in ["cluster", "net", "des"] {
        let f = lint_source_for_crate(krate, Path::new("hot.rs"), src, &allow);
        assert!(
            f.iter().any(|x| x.rule == "wall-clock"),
            "p3-{krate} should reject Instant::now: {f:?}"
        );
    }
    let f = lint_source_for_crate("prof", Path::new("hot.rs"), src, &allow);
    assert!(
        f.is_empty(),
        "p3-prof is exempt from wall-clock only: {f:?}"
    );
}

#[test]
fn env_fixture_trips_ambient_env() {
    let f = lint_fixture("bad_env.rs");
    let hits: Vec<&Finding> = f.iter().filter(|x| x.rule == "ambient-env").collect();
    // `env::var`, `env::vars` and `env::var_os` — one finding each, no
    // double-reporting of the shared `env::var` prefix.
    assert_eq!(hits.len(), 3, "{f:?}");
    assert_eq!(f.len(), 3, "{f:?}");
}

#[test]
fn workspace_self_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let report = lint_workspace(root).expect("lint_workspace");
    assert!(report.is_clean(), "{report}");
    assert!(
        report.files > 40,
        "suspiciously few files: {}",
        report.files
    );
}

/// Satellite: allow-marker scoping. A marker covers its own line and the
/// next line — nothing else — and only a real comment counts as a marker.
#[test]
fn allow_marker_scopes_to_marked_line_only() {
    // Two findings; the marker silences only the one it annotates.
    let src = "\
// p3-lint: allow(unordered): key order never observed
use std::collections::HashMap;

fn f() -> HashMap<u32, u32> { HashMap::new() }
";
    let f = lint_source(Path::new("t.rs"), src);
    let lines: Vec<usize> = f.iter().map(|x| x.line).collect();
    assert_eq!(lines, vec![4, 4], "{f:?}");

    // Marker text inside a string literal (what the v1 scanner treated as
    // a live marker) is inert: the finding on the next line survives.
    let src = "\
fn doc() -> &'static str { \"p3-lint: allow(unordered): nope\" }
fn f() -> std::collections::HashMap<u32, u32> { Default::default() }
";
    let f = lint_source(Path::new("t.rs"), src);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].line, 2);
}

/// Satellite: the taint mini-workspace. Every hazard in `sim1` is
/// indirect; the token scanner reports nothing there while the taint pass
/// reports all five kinds — and the sanitized call stays clean.
#[test]
fn taint_ws_catches_what_the_token_scanner_misses() {
    let root = fixture_root("ws");
    let sim1 = root.join("crates/sim1/src/lib.rs");
    let source = std::fs::read_to_string(&sim1).expect("sim1 source");

    // The pre-v2 scanner view: token rules alone see a clean file.
    assert!(
        lint_source(&sim1, &source).is_empty(),
        "token scanner should miss every indirect hazard"
    );

    let report = lint_workspace_with(&root, &ws_options(&["helper", "sim1"])).expect("ws lint");
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    let expected: BTreeSet<&str> = [
        "taint-wall-clock",
        "taint-ambient-rng",
        "taint-ambient-env",
        "taint-unordered",
        "taint-float-order",
    ]
    .into();
    assert_eq!(rules, expected, "{:#?}", report.findings);
    assert!(
        report
            .findings
            .iter()
            .all(|f| f.file.ends_with("crates/sim1/src/lib.rs")),
        "taint reports at the frontier in sim1: {:#?}",
        report.findings
    );
    // An empty baseline means all five findings are regressions.
    assert!(!report.is_clean());

    // The sanitized `blessed_epoch` call carries no finding.
    let epoch_line = source
        .lines()
        .position(|l| l.contains("blessed_epoch"))
        .expect("epoch call")
        + 1;
    assert!(
        report.findings.iter().all(|f| f.line != epoch_line),
        "sanitizer must keep line {epoch_line} clean: {:#?}",
        report.findings
    );
}

/// Satellite: the budget mini-workspace trips all three ratchets.
#[test]
fn budget_ws_trips_unwrap_panic_and_index_ratchets() {
    let report =
        lint_workspace_with(&fixture_root("ws_budget"), &ws_options(&["hot"])).expect("ws lint");
    let over: BTreeSet<&str> = report.over_budget.iter().map(|b| b.kind).collect();
    let expected: BTreeSet<&str> = ["unwrap/expect", "panic-macro", "index"].into();
    assert_eq!(over, expected, "{:#?}", report.over_budget);
    assert!(!report.is_clean());
}

/// Satellite: `p3 lint --json` must be byte-deterministic — two fresh
/// workspace runs serialize to identical bytes.
#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = fixture_root("ws");
    let opts = ws_options(&["helper", "sim1"]);
    let a = report::report_json(&lint_workspace_with(&root, &opts).expect("run 1"));
    let b = report::report_json(&lint_workspace_with(&root, &opts).expect("run 2"));
    assert_eq!(a, b);
    assert!(a.contains("\"format\": \"p3-lint\""), "{a}");
    assert!(a.contains("taint-wall-clock"), "{a}");
}

/// Satellite: self-consistency — every rule in the complete catalog has at
/// least one fixture (file, mini-workspace or inline source) that trips
/// it. Adding a rule without a tripping fixture fails here.
#[test]
fn every_rule_in_the_catalog_has_a_tripping_fixture() {
    let mut catalog: Vec<String> = RULES.iter().map(|r| r.name.to_string()).collect();
    catalog.push(FLOAT_ACCUM_RULE.into());
    catalog.push(FILE_LENGTH_RULE.into());
    catalog.push("allow-marker".into());
    for (t, _) in taint::TAINT_RULES {
        catalog.push(t.into());
    }
    catalog.push(schema::SCHEMA_RULE.into());

    let mut tripped: BTreeSet<String> = BTreeSet::new();
    // Token-rule fixture files.
    for name in [
        "bad_hashmap.rs",
        "bad_instant.rs",
        "bad_thread_rng.rs",
        "bad_env.rs",
        "bad_float_accum.rs",
        "allow_no_reason.rs",
    ] {
        tripped.extend(lint_fixture(name).into_iter().map(|f| f.rule));
    }
    // File length (inline: a checked-in 800-line fixture would be noise).
    let long = "fn a() {}\n".repeat(MAX_FILE_LINES + 1);
    tripped.extend(
        lint_source(Path::new("long.rs"), &long)
            .into_iter()
            .map(|f| f.rule),
    );
    // Taint rules via the mini-workspace.
    let ws = lint_workspace_with(&fixture_root("ws"), &ws_options(&["helper", "sim1"]))
        .expect("ws lint");
    tripped.extend(ws.findings.into_iter().map(|f| f.rule));
    // Schema drift: an exporter stamps a version no importer validates.
    let unvalidated = r#"fn export(out: &mut String) { out.push_str("\"p3TraceVersion\": 1"); }"#;
    tripped.extend(
        schema::check_trace_export(Path::new("s.rs"), &p3_lint::strip(unvalidated))
            .into_iter()
            .map(|f| f.rule),
    );

    for rule in &catalog {
        assert!(
            tripped.contains(rule),
            "rule `{rule}` has no fixture that trips it (tripped: {tripped:?})"
        );
    }
}

/// Bugfix: a non-ASCII char literal (`'é'`, `'日'`) used to lex as a
/// lifetime, leaving its bytes as one-byte tokens whose slices split the
/// char, and the workspace lint panicked building its call graph.
#[test]
fn non_ascii_char_literals_lint_clean() {
    let root = fixture_root("ws_unicode");
    let report = lint_workspace_with(&root, &ws_options(&["glyphs"])).expect("ws lint");
    assert!(report.is_clean(), "{report:#?}");
    let path = root.join("crates/glyphs/src/lib.rs");
    let source = std::fs::read_to_string(&path).expect("fixture");
    assert_eq!(lint_source(&path, &source), Vec::new());
}
