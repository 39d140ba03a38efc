//! One `diff` classification per outcome, plus the regression report's
//! culprit and failure-rate rows.

use p3_ledger::diff::{classify, diff, Verdict};
use p3_ledger::report::{from_json, to_json, Outcome, Value};
use p3_ledger::spec::{Better, END_TO_END, PER_LAYER};

fn value(name: &str, value: f64, spread: f64) -> Value {
    let m = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .expect("a ledger metric");
    Value::of(m, value, 5, spread)
}

#[test]
fn each_outcome_has_a_case() {
    let base = value("rep_s", 10.0, 0.02);
    let cases = [
        (value("rep_s", 8.0, 0.02), Verdict::Improved),
        (value("rep_s", 10.5, 0.02), Verdict::Unchanged),
        (value("rep_s", 12.0, 0.02), Verdict::Regressed),
        (value("rep_s", 12.0, 0.30), Verdict::Unresolved),
    ];
    for (cand, want) in cases {
        assert_eq!(
            classify(Better::Lower, 0.15, &base, &cand).1,
            want,
            "{cand:?}"
        );
    }
}

#[test]
fn higher_is_better_metrics_regress_downwards() {
    let base = value("events_per_s", 1000.0, 0.0);
    let (worse_by, verdict) = classify(
        Better::Higher,
        0.15,
        &base,
        &value("events_per_s", 800.0, 0.0),
    );
    assert!((worse_by - 0.2).abs() < 1e-12);
    assert_eq!(verdict, Verdict::Regressed);
    let (_, verdict) = classify(
        Better::Higher,
        0.15,
        &base,
        &value("events_per_s", 1200.0, 0.0),
    );
    assert_eq!(verdict, Verdict::Improved);
}

fn outcome(rep_s: f64, poll_s: f64, failed: u64) -> Outcome {
    Outcome {
        workload: "ps-p3-16".into(),
        seed: 42,
        reps: 5,
        attempted: 10,
        failed,
        end_to_end: vec![value("rep_s", rep_s, 0.01), value("setup_s", 0.001, 0.05)],
        per_layer: vec![
            value("net.poll.s", poll_s, 0.0),
            value("des.ns_per_op", 50.0, 0.0),
        ],
    }
}

#[test]
fn a_regressed_workload_names_its_largest_layer_change() {
    let d = diff(&[outcome(4.0, 1.0, 0)], &[outcome(6.0, 1.9, 0)]);
    assert!(!d.is_pass());
    let rep = d
        .rows
        .iter()
        .find(|r| r.metric == "rep_s")
        .expect("rep_s row");
    assert_eq!(rep.verdict, Verdict::Regressed);
    assert_eq!(d.culprits.len(), 1);
    let (workload, culprit) = &d.culprits[0];
    assert_eq!(workload, "ps-p3-16");
    let (name, change) = culprit.clone().expect("per-layer tables on both sides");
    assert_eq!(name, "net.poll.s");
    assert!((change - 0.9).abs() < 1e-12);
    assert!(d.to_string().ends_with("FAIL"));
}

#[test]
fn any_rise_in_failures_is_a_regression() {
    let d = diff(&[outcome(4.0, 1.0, 0)], &[outcome(4.0, 1.0, 1)]);
    let row = d
        .rows
        .iter()
        .find(|r| r.metric == "failure_rate")
        .expect("failure row");
    assert_eq!(row.verdict, Verdict::Regressed);
    assert!(!d.is_pass());
}

#[test]
fn an_identical_report_passes_and_survives_a_json_round_trip() {
    let reports = vec![outcome(4.0, 1.0, 0)];
    let back = from_json(&to_json(&reports)).expect("own report parses");
    assert_eq!(back, reports);
    let d = diff(&reports, &back);
    assert!(d.is_pass());
    assert!(d.culprits.is_empty());
    assert!(d.rows.iter().all(|r| r.verdict == Verdict::Unchanged));
}

#[test]
fn a_missing_workload_is_lost_coverage() {
    let d = diff(&[outcome(4.0, 1.0, 0)], &[]);
    assert!(!d.is_pass());
}
