//! No source file of a simulation crate grows past 800 lines (code,
//! comments and tests alike). Past that size a module is where god-loops
//! grow: split it instead, as `crates/cluster/src/engine/` is split.

use std::path::{Path, PathBuf};

const MAX_FILE_LINES: usize = 800;

/// The crates that can influence a simulated result.
const SIM_CRATES: [&str; 12] = [
    "des",
    "core",
    "net",
    "cluster",
    "trace",
    "topo",
    "pserver",
    "allreduce",
    "models",
    "compress",
    "audit",
    "prof",
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn simulation_sources_stay_within_the_line_cap() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for name in SIM_CRATES {
        rust_files(&crates.join(name).join("src"), &mut files);
    }
    assert!(files.len() > SIM_CRATES.len(), "{files:?}");
    let long: Vec<String> = files
        .iter()
        .map(|f| (f, std::fs::read_to_string(f).unwrap().lines().count()))
        .filter(|&(_, n)| n > MAX_FILE_LINES)
        .map(|(f, n)| format!("{}: {n} lines", f.display()))
        .collect();
    assert!(long.is_empty(), "over {MAX_FILE_LINES} lines: {long:#?}");
}
