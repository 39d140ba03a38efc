//! Every engine pin in one table. `results/pins.txt` holds one `name
//! value` line per pin, sorted by name, each value written the way its
//! source prints it: hex for hashes and digests, decimal for counts. The
//! one test below measures every row the engine produces (the groups in
//! `tests/common/pins.rs`), renders the table and compares it with the
//! file. The `ci/` rows are read by CI's ring-128 and ledger steps
//! instead, so they pass through unmeasured.
//!
//! A change that moves a pin fails here with each moved row and the `cp`
//! that re-pins; the measured table is written to `$CARGO_TARGET_TMPDIR`
//! (DESIGN.md §13, "Pins"). Every pin is exact equality.

mod common;

use common::pins::{
    fig7_vgg19, hd_16, hd_racked, ps_16, racked_16, resumed_crashes, send_sites, snapshots,
    tiny_ps, tiny_racked, tiny_ring_fault, Row, PINS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

const CI_YML: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.github/workflows/ci.yml");
const MEASURED: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/pins.txt");

/// Rows whose runs take about 15 s each unoptimised on a 2-vCPU host,
/// against under a second optimised. A debug build copies them through
/// from the file; the release test run (CI's `cargo test --workspace
/// --release`) measures them.
const RELEASE_ONLY: [&str; 2] = ["smoke/ps-16/", "smoke/racked-16/"];

/// Every measured row, from one scoped thread per group.
fn measure() -> Vec<Row> {
    let mut groups: Vec<fn() -> Vec<Row>> = vec![
        tiny_ps,
        tiny_ring_fault,
        tiny_racked,
        fig7_vgg19,
        send_sites,
        snapshots,
        resumed_crashes,
        hd_16,
        hd_racked,
    ];
    if !cfg!(debug_assertions) {
        groups.extend([ps_16 as fn() -> Vec<Row>, racked_16]);
    }
    std::thread::scope(|s| {
        let running: Vec<_> = groups.into_iter().map(|g| s.spawn(g)).collect();
        running
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// True if `name` is a whole token of `text`, not just part of a longer
/// name.
fn mentions(text: &str, name: &str) -> bool {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || "/-._".contains(c)))
        .any(|token| token == name)
}

#[test]
fn every_pin_matches_results_pins_txt() {
    let text = std::fs::read_to_string(PINS).expect("results/pins.txt is readable");
    let ci = std::fs::read_to_string(CI_YML).expect("ci.yml is readable");
    let pinned: Vec<(&str, &str)> = text
        .lines()
        .map(|line| line.split_once(' ').unwrap_or((line, "")))
        .collect();
    let mut problems = Vec::new();
    for w in pinned.windows(2) {
        if w[0].0 >= w[1].0 {
            problems.push(format!("{}: duplicate or out of order", w[1].0));
        }
    }
    let carried = |name: &str| {
        name.starts_with("ci/")
            || (cfg!(debug_assertions) && RELEASE_ONLY.iter().any(|p| name.starts_with(p)))
    };
    let mut measured: BTreeMap<String, String> = measure().into_iter().collect();
    for &(name, value) in &pinned {
        if name.starts_with("ci/") && !mentions(&ci, name) {
            problems.push(format!(
                "{name}: ci.yml never names it; name it there or drop the row"
            ));
        }
        if carried(name) {
            measured.insert(name.into(), value.into());
        }
    }
    let mut rendered = String::new();
    for (name, value) in &measured {
        let _ = writeln!(rendered, "{name} {value}");
    }
    if rendered == text && problems.is_empty() {
        return;
    }
    let pinned: BTreeMap<&str, &str> = pinned.into_iter().collect();
    let names: BTreeSet<&str> = pinned
        .keys()
        .copied()
        .chain(measured.keys().map(String::as_str))
        .collect();
    let mut moved = String::new();
    for name in names {
        let was = pinned.get(name).copied();
        let now = measured.get(name).map(String::as_str);
        if was != now {
            let was = was.unwrap_or("(not pinned)");
            let now = now.unwrap_or("(orphan: nothing measures it)");
            let _ = writeln!(moved, "  {name}: {was} → {now}");
        }
    }
    for p in &problems {
        let _ = writeln!(moved, "  {p}");
    }
    std::fs::write(MEASURED, &rendered).expect("the measured table is writable");
    panic!(
        "results/pins.txt differs from the measured pins:\n{moved}\
         The measured table is in {MEASURED}. To re-pin, explain each moved \
         row in CHANGES.md and run:\n  cp {MEASURED} {PINS}"
    );
}
