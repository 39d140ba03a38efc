//! `BENCHMARK.json` at the repository root must describe exactly the
//! binary's own tables, within the limits the file format allows.

use p3_ledger::json::{parse, Json};
use p3_ledger::spec::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeSet;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is at most 64 KiB");
    parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the array {key:?}"))
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::str)
        .unwrap_or_else(|| panic!("{item:?} lacks the string {key:?}"))
}

fn keys(item: &Json) -> Vec<&str> {
    item.obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn assert_metrics_match(section: &[Json], table: &[Metric], with_bound: bool) {
    assert_eq!(section.len(), table.len(), "metric count");
    for (item, m) in section.iter().zip(table) {
        let want_keys: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(item), want_keys, "{}", m.name);
        assert_eq!(text(item, "name"), m.name);
        assert_eq!(text(item, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(item, "better"), m.better.name(), "{}", m.name);
        if with_bound {
            assert_eq!(item.get("bound").and_then(Json::num), m.bound, "{}", m.name);
        }
    }
}

#[test]
fn workloads_match_the_table() {
    let doc = benchmark();
    let section = list(&doc, "workloads");
    assert_eq!(section.len(), WORKLOADS.len());
    for (item, w) in section.iter().zip(WORKLOADS) {
        assert_eq!(keys(item), ["name", "why"]);
        assert_eq!(text(item, "name"), w.name);
        assert_eq!(text(item, "why"), w.why, "{}", w.name);
    }
}

#[test]
fn end_to_end_metrics_match_the_table() {
    assert_metrics_match(list(&benchmark(), "end_to_end"), END_TO_END, true);
}

#[test]
fn per_layer_metrics_match_the_table() {
    assert_metrics_match(list(&benchmark(), "per_layer"), PER_LAYER, false);
}

#[test]
fn command_paths_and_budget_match_the_binary() {
    let doc = benchmark();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::num),
        Some(RUN_SECONDS as f64)
    );
    let paths: Vec<&str> = list(&doc, "paths").iter().filter_map(Json::str).collect();
    assert_eq!(paths, ["ledger"]);
    let command: Vec<&str> = list(&doc, "command").iter().filter_map(Json::str).collect();
    assert!(command.len() <= 32);
    assert!(command.contains(&"ledger/Cargo.toml"), "{command:?}");
}

#[test]
fn names_units_and_bounds_stay_within_the_format() {
    let name_ok = |s: &str| {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
        assert!(
            m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{}",
            m.unit
        );
    }
    let bounds: Vec<f64> = END_TO_END.iter().filter_map(|m| m.bound).collect();
    assert_eq!(bounds.len(), END_TO_END.len());
    assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is reported");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(bounds.iter().all(|&b| b <= setup.bound.unwrap_or(0.0)));
}
