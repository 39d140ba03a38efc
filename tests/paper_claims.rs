//! The paper's claims, checked: every quick row of `p3_bench::CLAIMS` at
//! quick scale, plus the check that EXPERIMENTS.md carries the full-scale
//! claims table of `results/figures.txt`. Each named test below guards the
//! rows that took over one earlier hand-written claim test.

use p3_bench::{run, Holds, Report, Scale, CLAIMS, FIGURES};
use std::sync::OnceLock;

/// The figures behind the quick rows, run once for every test here.
fn quick() -> &'static Report {
    static REPORT: OnceLock<Report> = OnceLock::new();
    REPORT.get_or_init(|| {
        let quick_row = |id: &str| {
            CLAIMS
                .iter()
                .any(|c| c.holds == Holds::Quick && c.figure == id)
        };
        let figures: Vec<_> = FIGURES
            .iter()
            .filter(|f| quick_row(f.id))
            .copied()
            .collect();
        run(&figures, CLAIMS, Scale::Quick)
    })
}

/// Asserts that each named row was checked and held.
fn holds(ids: &[&str]) {
    let table = &quick().table;
    for id in ids {
        let row = table
            .lines()
            .find(|l| l.starts_with(&format!("| {id} |")))
            .unwrap_or_else(|| panic!("no claim row {id}:\n{table}"));
        assert!(row.ends_with("| ok |"), "{row}");
    }
}

#[test]
fn every_quick_claim_holds() {
    let report = quick();
    assert_eq!(report.misses, 0, "{}", report.table);
}

#[test]
fn fig4_delay_halves() {
    holds(&["fig4-fifo", "fig4-p3"]);
}

#[test]
fn fig5_shapes_match_paper_description() {
    holds(&["fig5-vgg", "fig5-sockeye", "fig5-resnet"]);
}

#[test]
fn fig6_slicing_saves() {
    holds(&["fig6-layer", "fig6-saving"]);
}

#[test]
fn fig7_sweep_produces_monotone_ish_curves() {
    holds(&["fig7-resnet-rise", "fig7-order"]);
}

#[test]
fn fig12_extreme_slice_sizes_are_suboptimal() {
    holds(&["fig12-resnet-1k"]);
}

#[test]
fn p3_beats_baseline_on_constrained_resnet() {
    holds(&["fig7-resnet-4g"]);
}

#[test]
fn strategies_tie_at_high_bandwidth_on_resnet() {
    holds(&["fig7-resnet-tie"]);
}

#[test]
fn slicing_matters_for_vgg_but_not_resnet() {
    holds(&["fig7-vgg-slicing-20g", "fig7-resnet-slicing"]);
}

#[test]
fn p3_speedup_shrinks_when_bandwidth_is_ample_for_sockeye() {
    holds(&["fig7-sockeye-shrink"]);
}

#[test]
fn consumption_order_priorities_beat_generation_order() {
    holds(&["abl-consumption"]);
}

#[test]
fn experiments_md_carries_the_full_scale_claims_table() {
    let root = env!("CARGO_MANIFEST_DIR");
    let read = |f: &str| std::fs::read_to_string(format!("{root}/{f}")).expect("readable");
    let results = read("results/figures.txt");
    let table = &results[results.find("| id |").expect("a claims table")..];
    let experiments = read("EXPERIMENTS.md");
    let block = experiments
        .split_once("<!-- claims:begin -->\n")
        .and_then(|(_, rest)| rest.split_once("<!-- claims:end -->"))
        .map(|(block, _)| block)
        .expect("EXPERIMENTS.md has a claims block");
    assert_eq!(
        block, table,
        "regenerate with `p3 figures` and copy its table"
    );
}
