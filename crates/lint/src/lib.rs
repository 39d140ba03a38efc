//! # p3-lint — workspace determinism lint
//!
//! The simulator's contract is bit-identical results for a given seed, on
//! every platform, on every run. The classic ways Rust code silently
//! breaks that contract are all *legal* code, so the compiler won't help:
//!
//! * `std::collections::HashMap`/`HashSet` — `RandomState` seeds the hash
//!   per process, so iteration order differs between runs. Any result or
//!   trace derived from iterating one is nondeterministic. Use `BTreeMap`/
//!   `BTreeSet`, or justify with `// p3-lint: allow(unordered): why`.
//! * `Instant::now` / `SystemTime` — wall clocks leak host timing into
//!   simulated results. The DES clock is the only time source.
//! * `thread_rng` / `rand::random` — ambient OS-seeded randomness; all
//!   randomness must come from the run's seeded generators.
//! * `env::var` — ambient process state; configuration enters through
//!   explicit, recorded inputs, never the environment.
//! * float accumulation over unordered iterators — `.values()` into
//!   `.sum()`/`.fold()` makes the rounding order (hence the result) depend
//!   on iteration order.
//!
//! The lint runs as **multiple passes over one shared stripped view** of
//! each source file ([`lexer`]):
//!
//! 1. **Token rules** — the banned-pattern catalog above, matched
//!    identifier-delimited in non-test code ([`lint_source`]).
//! 2. **Determinism taint** ([`taint`]) — an item/call-graph extractor
//!    ([`callgraph`]) resolves `use` aliases, `pub use` re-exports and
//!    cross-crate calls; impurity seeded at banned APIs propagates to
//!    every transitive caller and is reported where a clean sim-crate
//!    function first reaches a chain the token rules cannot see (a
//!    helper in an exempt crate, a re-exported alias). Reviewed-safe
//!    functions are named in `[taint-sanitizer]` with a mandatory reason.
//! 3. **Panic paths** ([`panics`]) — per-crate ratchets over
//!    `panic!`-family macros (`[panic-budget]`) and, for hot-path crates,
//!    slice indexing (`[index-budget]`), extending the existing
//!    `.unwrap()`/`.expect(` budget (`[unwrap-budget]`).
//! 4. **Schema drift** ([`schema`]) — the trace export's
//!    `p3TraceVersion` stamp must be validated on import, and the
//!    snapshot header constants checked on both the write and the verify
//!    path. (Members cannot drift: the trace rows, the snapshot body and
//!    the JSON reports are each one walk that both writes and reads.)
//!
//! Findings are compared against the ratcheted `[findings-baseline]`
//! section of `p3-lint.toml`: a per-rule count may only go down, so new
//! debt fails CI while known debt is paid off incrementally. `p3 lint
//! --json` emits the whole report as deterministic JSON ([`report`]) that
//! CI byte-compares across two runs.
//!
//! A crate whose purpose is to violate one rule can exempt exactly that
//! rule via the `[crate-allow]` section of `p3-lint.toml` ([`CrateAllow`]):
//! `p3-prof` is the profiling crate, so `Instant::now` is legal there and
//! nowhere else in the simulation — but taint still tracks what flows
//! *out* of it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod callgraph;
pub mod lexer;
pub mod panics;
pub mod report;
pub mod schema;
pub mod taint;

pub use lexer::{strip, Stripped};

use lexer::{delimited, line_of};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates the determinism rules apply to: everything that can influence a
/// simulated result. The CLI, offline tooling and vendored dependencies
/// are exempt (they run outside the simulation). A crate may carve out a
/// *specific* rule via the `[crate-allow]` section of `p3-lint.toml`
/// (see [`CrateAllow`]) — e.g. `p3-prof` measures wall time by design, so
/// it allows `wall-clock` while every other rule still applies to it.
pub const SIM_CRATES: [&str; 13] = [
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
    "tune",
];

/// Crates whose unwrap and panic budgets are ratcheted (the sim crates
/// plus the CLI, whose panics are user-facing crashes).
pub const BUDGET_CRATES: [&str; 14] = [
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
    "tune",
    "cli",
];

/// One banned-pattern rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// Rule name, as used in `allow(...)` markers.
    pub name: &'static str,
    /// Identifier-delimited patterns that trigger the rule.
    pub patterns: &'static [&'static str],
    /// Short justification shown with each finding.
    pub why: &'static str,
}

/// The banned-pattern catalog.
pub const RULES: [Rule; 4] = [
    Rule {
        name: "unordered",
        patterns: &["HashMap", "HashSet"],
        why: "iteration order is seeded per process; use BTreeMap/BTreeSet",
    },
    Rule {
        name: "wall-clock",
        patterns: &["Instant::now", "SystemTime"],
        why: "host time leaks into simulated results; use the DES clock",
    },
    Rule {
        name: "ambient-rng",
        patterns: &["thread_rng", "rand::random"],
        why: "OS-seeded randomness; use the run's seeded generators",
    },
    Rule {
        name: "ambient-env",
        patterns: &["env::var", "env::vars", "env::var_os"],
        why: "process environment leaks host state into simulated results; \
              take configuration as explicit recorded inputs",
    },
];

/// Rule name for the float-accumulation heuristic (it needs statement
/// context, so it is not a plain pattern rule).
pub const FLOAT_ACCUM_RULE: &str = "float-accum-unordered";

/// Rule name for the file-length limit (file-scoped, so it is not a plain
/// pattern rule: one `p3-lint: allow(file-length): reason` marker anywhere
/// in the file silences it).
pub const FILE_LENGTH_RULE: &str = "file-length";

/// Maximum physical lines (code, comments and tests alike) per source
/// file before [`FILE_LENGTH_RULE`] fires. Files past this size are where
/// god-loops grow; split the module instead (the engine decomposition in
/// `crates/cluster/src/engine/` is the pattern).
pub const MAX_FILE_LINES: usize = 800;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// File the finding is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule that fired (or `unwrap-budget` / `allow-marker`).
    pub rule: String,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Lints one file's source text. `path` is used only for reporting.
pub fn lint_source(path: &Path, source: &str) -> Vec<Finding> {
    lint_stripped(path, source, &strip(source))
}

/// Like [`lint_source`], but over an already-stripped view (the workspace
/// walk strips each file once and shares the view across passes).
pub fn lint_stripped(path: &Path, source: &str, stripped: &Stripped) -> Vec<Finding> {
    let mut findings = Vec::new();
    for &line in &stripped.bad_markers {
        findings.push(Finding {
            file: path.to_path_buf(),
            line,
            rule: "allow-marker".into(),
            message: "malformed p3-lint marker: use `p3-lint: allow(rule): reason` \
                      with a non-empty reason"
                .into(),
        });
    }
    for rule in RULES {
        for pat in rule.patterns {
            for (pos, _) in stripped.code.match_indices(pat) {
                if !delimited(&stripped.code, pos, pat) {
                    continue;
                }
                let line = line_of(&stripped.code, pos);
                if stripped.allowed(line, rule.name) {
                    continue;
                }
                findings.push(Finding {
                    file: path.to_path_buf(),
                    line,
                    rule: rule.name.into(),
                    message: format!("`{pat}`: {}", rule.why),
                });
            }
        }
    }
    for pos in float_accum_sites(stripped) {
        let line = line_of(&stripped.code, pos);
        if stripped.allowed(line, FLOAT_ACCUM_RULE) {
            continue;
        }
        findings.push(Finding {
            file: path.to_path_buf(),
            line,
            rule: FLOAT_ACCUM_RULE.into(),
            message: "float reduction over `.values()`: rounding order depends on \
                      iteration order"
                .into(),
        });
    }
    if let Some(f) = file_length_finding(path, source, stripped) {
        findings.push(f);
    }
    findings.sort_by_key(|f| f.line);
    findings
}

/// Flags files longer than [`MAX_FILE_LINES`] physical lines. The finding
/// anchors at the first line past the limit; an
/// `allow(file-length)` marker anywhere in the file silences it.
fn file_length_finding(path: &Path, source: &str, stripped: &Stripped) -> Option<Finding> {
    let lines = source.lines().count();
    if lines <= MAX_FILE_LINES {
        return None;
    }
    if stripped.allows.values().any(|r| r == FILE_LENGTH_RULE) {
        return None;
    }
    Some(Finding {
        file: path.to_path_buf(),
        line: MAX_FILE_LINES + 1,
        rule: FILE_LENGTH_RULE.into(),
        message: format!(
            "{lines} lines exceed the {MAX_FILE_LINES}-line limit: split the module \
             (crates/cluster/src/engine/ is the pattern) or justify with \
             `p3-lint: allow(file-length): reason`"
        ),
    })
}

/// Byte positions of order-dependent float accumulations: a single
/// statement that iterates `.values()` and reduces with `.sum(` or
/// `.fold(`. With unordered maps already banned this mostly guards
/// allow-listed ones. Shared with the taint pass, which seeds
/// `taint-float-order` from the same sites.
pub(crate) fn float_accum_sites(stripped: &Stripped) -> Vec<usize> {
    let mut sites = Vec::new();
    for stmt in stripped.code.split(';') {
        if !stmt.contains(".values()") {
            continue;
        }
        if !(stmt.contains(".sum(") || stmt.contains(".fold(")) {
            continue;
        }
        let offset = stmt.as_ptr() as usize - stripped.code.as_ptr() as usize;
        sites.push(offset + stmt.find(".values()").unwrap_or(0));
    }
    sites
}

/// Counts `.unwrap()` / `.expect(` calls in non-test code.
pub fn count_unwraps(source: &str) -> usize {
    count_unwraps_stripped(&strip(source))
}

fn count_unwraps_stripped(stripped: &Stripped) -> usize {
    stripped.code.matches(".unwrap()").count() + stripped.code.matches(".expect(").count()
}

/// A ratcheted per-crate (or per-rule) count: name → maximum allowed.
/// Used for the `[unwrap-budget]`, `[panic-budget]`, `[index-budget]` and
/// `[findings-baseline]` sections of `p3-lint.toml` — each only ever goes
/// down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget(pub BTreeMap<String, usize>);

impl Budget {
    /// Parses the `[unwrap-budget]` section of `p3-lint.toml`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<Budget, String> {
        Budget::parse_section(text, "unwrap-budget")
    }

    /// Parses one `[section]` of `name = N` lines (comments and blank
    /// lines ignored; a missing section parses as empty).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse_section(text: &str, section: &str) -> Result<Budget, String> {
        let mut map = BTreeMap::new();
        for_each_entry(text, section, "name = N", |line, name, value| {
            let n: usize = value
                .parse()
                .map_err(|_| format!("p3-lint.toml:{line}: `{value}` is not a count"))?;
            map.insert(name.trim_matches('"').to_string(), n);
            Ok(())
        })?;
        Ok(Budget(map))
    }
}

/// Calls `entry(line, name, value)` for each `name = value` line of the
/// `[section]` of `p3-lint.toml` in `text`, with both sides trimmed and
/// `line` 1-based. `#` comments and blank lines are skipped; a missing
/// section has no entries.
///
/// # Errors
///
/// A message naming the first line without `=` and the `shape` its
/// section expects, or the first error `entry` returns.
fn for_each_entry(
    text: &str,
    section: &str,
    shape: &str,
    mut entry: impl FnMut(usize, &str, &str) -> Result<(), String>,
) -> Result<(), String> {
    let header = format!("[{section}]");
    let mut in_section = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_section = line == header;
            continue;
        }
        if !in_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            return Err(format!("p3-lint.toml:{}: expected `{shape}`", i + 1));
        };
        entry(i + 1, name.trim(), value.trim())?;
    }
    Ok(())
}

/// Crate-scoped rule exemptions: crate name (short, without the `p3-`
/// prefix) → rule names that do not apply to that crate.
///
/// This is the *blanket* escape hatch, distinct from the per-line
/// `allow(rule)` marker: a crate whose very purpose violates one rule
/// (e.g. `p3-prof` exists to read the wall clock) declares that rule here
/// once, and every other rule still applies to it line by line. Entries
/// live in the `[crate-allow]` section of `p3-lint.toml` so exemptions
/// are reviewed in one place rather than scattered through sources.
/// Exempting a rule does **not** stop the taint pass from tracking what
/// flows out of the crate — see [`taint`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrateAllow(pub BTreeMap<String, Vec<String>>);

impl CrateAllow {
    /// Parses the `[crate-allow]` section of `p3-lint.toml`: lines of
    /// `name = ["rule", ...]` (comments and blank lines ignored; a
    /// missing section means no exemptions).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first malformed line.
    pub fn parse(text: &str) -> Result<CrateAllow, String> {
        let mut map = BTreeMap::new();
        for_each_entry(
            text,
            "crate-allow",
            "name = [\"rule\", ...]",
            |line, name, value| {
                let Some(list) = value.strip_prefix('[').and_then(|v| v.strip_suffix(']')) else {
                    return Err(format!(
                        "p3-lint.toml:{line}: `{value}` is not a [\"rule\", ...] list"
                    ));
                };
                let mut rules = Vec::new();
                for item in list.split(',') {
                    let item = item.trim();
                    if item.is_empty() {
                        continue;
                    }
                    let Some(rule) = item.strip_prefix('"').and_then(|r| r.strip_suffix('"'))
                    else {
                        return Err(format!(
                            "p3-lint.toml:{line}: `{item}` is not a quoted rule name"
                        ));
                    };
                    rules.push(rule.to_string());
                }
                map.insert(name.to_string(), rules);
                Ok(())
            },
        )?;
        Ok(CrateAllow(map))
    }

    /// True when `rule` is exempted for `krate`.
    pub fn allows(&self, krate: &str, rule: &str) -> bool {
        self.0
            .get(krate)
            .is_some_and(|rules| rules.iter().any(|r| r == rule))
    }
}

/// Parses the `[taint-sanitizer]` section of `p3-lint.toml`: lines of
/// `"crate::Type::fn" = "reason"`. A sanitizer is a function *reviewed* to
/// not leak its impurity into simulated state; the taint pass neither
/// seeds nor propagates through it. The reason is mandatory — an
/// unexplained sanitizer is how laundering starts.
///
/// # Errors
///
/// Returns a message naming the first malformed line (missing quotes or
/// an empty reason).
pub fn parse_sanitizers(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let shape = "\"crate::Type::fn\" = \"reason\"";
    for_each_entry(text, "taint-sanitizer", shape, |line, key, value| {
        let unquote = |s: &str| {
            s.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .map(str::to_string)
        };
        let (Some(key), Some(reason)) = (unquote(key), unquote(value)) else {
            return Err(format!(
                "p3-lint.toml:{line}: sanitizer entries are `{shape}`"
            ));
        };
        if reason.trim().is_empty() {
            return Err(format!(
                "p3-lint.toml:{line}: sanitizer `{key}` needs a non-empty reason"
            ));
        }
        map.insert(key, reason);
        Ok(())
    })?;
    Ok(map)
}

/// Lints one file's source text as part of crate `krate`: same as
/// [`lint_source`], minus the findings whose rule the crate exempts via
/// `[crate-allow]`.
pub fn lint_source_for_crate(
    krate: &str,
    path: &Path,
    source: &str,
    allow: &CrateAllow,
) -> Vec<Finding> {
    lint_source(path, source)
        .into_iter()
        .filter(|f| !allow.allows(krate, &f.rule))
        .collect()
}

/// One ratcheted count checked against its budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetLine {
    /// Short crate name.
    pub krate: String,
    /// What was counted: `unwrap/expect`, `panic-macro` or `index`.
    pub kind: &'static str,
    /// Sites counted in non-test code.
    pub used: usize,
    /// Maximum allowed by `p3-lint.toml`.
    pub budget: usize,
}

/// Result of linting a whole workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Findings across all passes, sorted and deduplicated.
    pub findings: Vec<Finding>,
    /// Budgets exceeded (unwrap, panic or index).
    pub over_budget: Vec<BudgetLine>,
    /// Budgets with slack (the recorded count can be ratcheted down).
    pub slack: Vec<BudgetLine>,
    /// Findings per rule.
    pub counts: BTreeMap<String, usize>,
    /// The `[findings-baseline]` section the counts were checked against.
    pub baseline: BTreeMap<String, usize>,
    /// Rules whose count exceeds the baseline: `(rule, count, baseline)`.
    pub regressions: Vec<(String, usize, usize)>,
    /// Files checked.
    pub files: usize,
}

impl WorkspaceReport {
    /// True when nothing blocks: no budget exceeded and no rule past its
    /// baseline. (Baselined findings are known debt, not a failure.)
    pub fn is_clean(&self) -> bool {
        self.over_budget.is_empty() && self.regressions.is_empty()
    }

    /// Baseline entries whose recorded count exceeds the live count:
    /// `(rule, count, baseline)` — ratchet these down in `p3-lint.toml`.
    pub fn baseline_slack(&self) -> Vec<(String, usize, usize)> {
        self.baseline
            .iter()
            .filter_map(|(rule, &b)| {
                let n = self.counts.get(rule).copied().unwrap_or(0);
                (n < b).then(|| (rule.clone(), n, b))
            })
            .collect()
    }
}

impl fmt::Display for WorkspaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            writeln!(f, "{finding}")?;
        }
        for (rule, count, base) in &self.regressions {
            writeln!(
                f,
                "rule {rule}: {count} finding(s) exceed the baseline of {base} \
                 ([findings-baseline] ratchets down only — fix the new findings)"
            )?;
        }
        for b in &self.over_budget {
            writeln!(
                f,
                "crate {}: {} {} sites exceed the budget of {} \
                 (p3-lint.toml ratchets down only — propagate errors instead)",
                b.krate, b.used, b.kind, b.budget
            )?;
        }
        for b in &self.slack {
            writeln!(
                f,
                "note: crate {} uses {} of {} budgeted {} sites — lower it in p3-lint.toml",
                b.krate, b.used, b.budget, b.kind
            )?;
        }
        for (rule, count, base) in self.baseline_slack() {
            writeln!(
                f,
                "note: rule {rule} has {count} finding(s) against a baseline of {base} — \
                 lower it in p3-lint.toml"
            )?;
        }
        if self.is_clean() {
            writeln!(f, "p3-lint: clean — {} files checked", self.files)?;
        } else {
            writeln!(
                f,
                "p3-lint: FAILED — {} finding(s), {} baseline regression(s), {} budget(s) exceeded",
                self.findings.len(),
                self.regressions.len(),
                self.over_budget.len()
            )?;
        }
        Ok(())
    }
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            rust_files(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Which crates [`lint_workspace_with`] checks, and whether the
/// repo-specific schema-drift pass runs. [`Default`] matches this
/// workspace; fixture tests substitute their own mini-workspaces.
#[derive(Debug, Clone)]
pub struct WorkspaceOptions {
    /// Crates the pattern rules and the taint pass cover.
    pub sim_crates: Vec<String>,
    /// Crates whose unwrap and panic budgets are enforced.
    pub budget_crates: Vec<String>,
    /// Run the schema-drift pass (it names specific files of this
    /// repository).
    pub repo_checks: bool,
}

impl Default for WorkspaceOptions {
    fn default() -> Self {
        WorkspaceOptions {
            sim_crates: SIM_CRATES.iter().map(|s| s.to_string()).collect(),
            budget_crates: BUDGET_CRATES.iter().map(|s| s.to_string()).collect(),
            repo_checks: true,
        }
    }
}

/// Lints the workspace rooted at `root` (the directory holding
/// `Cargo.toml` and `crates/`) with the default [`WorkspaceOptions`]:
/// every pass, all [`SIM_CRATES`] and [`BUDGET_CRATES`], budgets and
/// baseline from `<root>/p3-lint.toml`.
///
/// # Errors
///
/// Returns a message when the config file is missing or malformed, a
/// budgeted crate has no budget entry, or a schema-checked file is gone.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    lint_workspace_with(root, &WorkspaceOptions::default())
}

/// [`lint_workspace`] with explicit [`WorkspaceOptions`].
///
/// # Errors
///
/// See [`lint_workspace`].
pub fn lint_workspace_with(
    root: &Path,
    opts: &WorkspaceOptions,
) -> Result<WorkspaceReport, String> {
    let toml_path = root.join("p3-lint.toml");
    let toml_text =
        std::fs::read_to_string(&toml_path).map_err(|e| format!("{}: {e}", toml_path.display()))?;
    let unwrap_budget = Budget::parse_section(&toml_text, "unwrap-budget")?;
    let panic_budget = Budget::parse_section(&toml_text, "panic-budget")?;
    let index_budget = Budget::parse_section(&toml_text, "index-budget")?;
    let baseline = Budget::parse_section(&toml_text, "findings-baseline")?;
    let crate_allow = CrateAllow::parse(&toml_text)?;
    let sanitizers = parse_sanitizers(&toml_text)?;

    // ── Collect and strip every sim-crate source exactly once. ──
    let mut files: Vec<callgraph::SourceFile> = Vec::new();
    let mut sources: Vec<String> = Vec::new();
    for name in &opts.sim_crates {
        let src = root.join("crates").join(name).join("src");
        let mut paths = Vec::new();
        rust_files(&src, &mut paths);
        if paths.is_empty() {
            return Err(format!("no Rust sources under {}", src.display()));
        }
        for p in paths {
            let source =
                std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_path_buf();
            files.push(callgraph::SourceFile {
                krate: name.clone(),
                path: rel,
                stripped: strip(&source),
            });
            sources.push(source);
        }
    }

    let mut report = WorkspaceReport {
        files: files.len(),
        baseline: baseline.0.clone(),
        ..Default::default()
    };

    // ── Pass 1: token rules. ──
    for (sf, source) in files.iter().zip(&sources) {
        report.findings.extend(
            lint_stripped(&sf.path, source, &sf.stripped)
                .into_iter()
                .filter(|f| !crate_allow.allows(&sf.krate, &f.rule)),
        );
    }

    // ── Pass 2: call-graph taint. ──
    let graph = callgraph::build(&files);
    let tcfg = taint::TaintConfig {
        sim_crates: &opts.sim_crates,
        crate_allow: &crate_allow,
        sanitizers: &sanitizers,
    };
    report
        .findings
        .extend(taint::analyze(&graph, &files, &tcfg));

    // ── Pass 3: budgets (unwrap + panic for all budget crates, index for
    //    crates opted in via [index-budget]). ──
    let mut stripped_by_crate: BTreeMap<&str, Vec<&Stripped>> = BTreeMap::new();
    for sf in &files {
        stripped_by_crate
            .entry(sf.krate.as_str())
            .or_default()
            .push(&sf.stripped);
    }
    let count_crate = |name: &str, counter: &dyn Fn(&Stripped) -> usize| -> Result<usize, String> {
        if let Some(list) = stripped_by_crate.get(name) {
            return Ok(list.iter().map(|s| counter(s)).sum());
        }
        let src = root.join("crates").join(name).join("src");
        let mut paths = Vec::new();
        rust_files(&src, &mut paths);
        let mut n = 0;
        for p in &paths {
            let source = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            n += counter(&strip(&source));
        }
        Ok(n)
    };
    for name in &opts.budget_crates {
        let unwraps = count_crate(name, &count_unwraps_stripped)?;
        match unwrap_budget.0.get(name) {
            None => {
                return Err(format!(
                    "p3-lint.toml has no unwrap budget for crate `{name}` — add `{name} = \
                     {unwraps}`"
                ))
            }
            Some(&b) => track_budget(&mut report, name, "unwrap/expect", unwraps, b),
        }
        let n_panics = count_crate(name, &panics::count_panics)?;
        match panic_budget.0.get(name) {
            None => {
                return Err(format!(
                    "p3-lint.toml has no panic budget for crate `{name}` — add `{name} = \
                     {n_panics}` to [panic-budget]"
                ))
            }
            Some(&b) => track_budget(&mut report, name, "panic-macro", n_panics, b),
        }
    }
    for (name, &b) in &index_budget.0 {
        let n = count_crate(name, &panics::count_index_sites)?;
        track_budget(&mut report, name, "index", n, b);
    }

    // ── Pass 4: schema drift (repo-specific). ──
    if opts.repo_checks {
        let find = |rel: &str| {
            files
                .iter()
                .find(|f| f.path == Path::new(rel))
                .ok_or_else(|| format!("schema-drift: expected file `{rel}` is missing"))
        };
        let export = find("crates/trace/src/export.rs")?;
        report
            .findings
            .extend(schema::check_trace_export(&export.path, &export.stripped));
        let snap = find("crates/des/src/snap.rs")?;
        report.findings.extend(schema::check_snap_header(
            &snap.path,
            &snap.stripped,
            &["SNAP_MAGIC", "SNAP_VERSION"],
        ));
    }

    report.findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    report.findings.dedup();
    for f in &report.findings {
        *report.counts.entry(f.rule.clone()).or_insert(0) += 1;
    }
    for (rule, &n) in &report.counts {
        let base = report.baseline.get(rule).copied().unwrap_or(0);
        if n > base {
            report.regressions.push((rule.clone(), n, base));
        }
    }
    Ok(report)
}

fn track_budget(
    report: &mut WorkspaceReport,
    name: &str,
    kind: &'static str,
    used: usize,
    budget: usize,
) {
    let line = BudgetLine {
        krate: name.into(),
        kind,
        used,
        budget,
    };
    if used > budget {
        report.over_budget.push(line);
    } else if used < budget {
        report.slack.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(src: &str) -> Vec<Finding> {
        lint_source(Path::new("test.rs"), src)
    }

    #[test]
    fn flags_hashmap_outside_tests() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        let f = lint_str(src);
        assert_eq!(f.len(), 3, "{f:?}");
        assert!(f.iter().all(|x| x.rule == "unordered"));
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn ignores_tests_comments_and_strings() {
        let src = r##"
// HashMap in a comment
fn f() { let s = "HashMap"; let _ = s; }
#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn t() { let _ = HashMap::<u32, u32>::new(); }
}
"##;
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn allow_marker_needs_reason() {
        let with_reason = "// p3-lint: allow(unordered): key order never observed\nuse std::collections::HashMap;\n";
        assert!(lint_str(with_reason).is_empty());
        let no_reason = "// p3-lint: allow(unordered)\nuse std::collections::HashMap;\n";
        let f = lint_str(no_reason);
        assert!(f.iter().any(|x| x.rule == "allow-marker"), "{f:?}");
        assert!(f.iter().any(|x| x.rule == "unordered"), "{f:?}");
    }

    #[test]
    fn flags_wall_clock_rng_and_env() {
        let f = lint_str("fn f() { let t = Instant::now(); }\n");
        assert!(f.iter().any(|x| x.rule == "wall-clock"), "{f:?}");
        let f = lint_str("fn f() { let r = thread_rng(); }\n");
        assert!(f.iter().any(|x| x.rule == "ambient-rng"), "{f:?}");
        let f = lint_str("fn f() { let v = std::env::var(\"SEED\"); }\n");
        assert!(f.iter().any(|x| x.rule == "ambient-env"), "{f:?}");
        // `env::vars` must not double-report as `env::var`.
        let f = lint_str("fn f() { for _ in std::env::vars() {} }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "ambient-env");
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(lint_str("struct MyHashMapLike;\n").is_empty());
        assert!(lint_str("fn spawn_thread_rngs() {}\n").is_empty());
    }

    #[test]
    fn flags_overlong_files() {
        let long = "fn a() {}\n".repeat(MAX_FILE_LINES + 1);
        let f = lint_str(&long);
        assert!(f.iter().any(|x| x.rule == FILE_LENGTH_RULE), "{f:?}");
        assert_eq!(f[0].line, MAX_FILE_LINES + 1);
        let at_limit = "fn a() {}\n".repeat(MAX_FILE_LINES);
        assert!(lint_str(&at_limit).is_empty());
        let allowed = format!("// p3-lint: allow(file-length): split tracked elsewhere\n{long}");
        assert!(lint_str(&allowed).is_empty());
    }

    #[test]
    fn flags_float_accum_over_values() {
        let src = "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n";
        let f = lint_str(src);
        assert!(f.iter().any(|x| x.rule == FLOAT_ACCUM_RULE), "{f:?}");
        let allowed = "// p3-lint: allow(float-accum-unordered): BTreeMap order is fixed\nfn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum() }\n";
        assert!(lint_str(allowed).is_empty());
    }

    #[test]
    fn counts_unwraps_outside_tests_only() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect("set") }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); }
}
"#;
        assert_eq!(count_unwraps(src), 2);
    }

    #[test]
    fn budget_parses() {
        let b = Budget::parse("# ratchet\n[unwrap-budget]\ncluster = 3 # why\ncli = 10\n").unwrap();
        assert_eq!(b.0.get("cluster"), Some(&3));
        assert_eq!(b.0.get("cli"), Some(&10));
        assert!(Budget::parse("[unwrap-budget]\ncluster three\n").is_err());
    }

    #[test]
    fn budget_sections_are_independent() {
        let text = "[unwrap-budget]\ncluster = 3\n[panic-budget]\ncluster = 14\n\
                    [findings-baseline]\n\"schema-drift\" = 1\n";
        assert_eq!(
            Budget::parse_section(text, "panic-budget")
                .unwrap()
                .0
                .get("cluster"),
            Some(&14)
        );
        assert_eq!(
            Budget::parse_section(text, "findings-baseline")
                .unwrap()
                .0
                .get("schema-drift"),
            Some(&1)
        );
        // A missing section is an empty budget, not an error.
        assert!(Budget::parse_section(text, "index-budget")
            .unwrap()
            .0
            .is_empty());
    }

    #[test]
    fn sanitizers_require_quotes_and_reasons() {
        let ok = "[taint-sanitizer]\n\"prof::SimProfiler::new\" = \"reviewed\"\n";
        let m = parse_sanitizers(ok).unwrap();
        assert_eq!(
            m.get("prof::SimProfiler::new").map(String::as_str),
            Some("reviewed")
        );
        assert!(parse_sanitizers("[taint-sanitizer]\nprof::x = \"r\"\n").is_err());
        assert!(parse_sanitizers("[taint-sanitizer]\n\"prof::x\" = \"\"\n").is_err());
        assert!(parse_sanitizers("[unwrap-budget]\ncli = 0\n")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn crate_allow_parses_lists() {
        let text = "[unwrap-budget]\nprof = 0\n[crate-allow]\nprof = [\"wall-clock\"] # why\n";
        let a = CrateAllow::parse(text).unwrap();
        assert!(a.allows("prof", "wall-clock"));
        assert!(!a.allows("prof", "unordered"));
        assert!(!a.allows("cluster", "wall-clock"));
        assert!(CrateAllow::parse("[crate-allow]\nprof = wall-clock\n").is_err());
        assert!(CrateAllow::parse("[crate-allow]\nprof = [wall-clock]\n").is_err());
        // A file with no section at all means no exemptions.
        assert_eq!(
            CrateAllow::parse("[unwrap-budget]\ncli = 0\n").unwrap(),
            CrateAllow::default()
        );
    }

    #[test]
    fn crate_allow_filters_only_the_listed_rule() {
        let allow = CrateAllow::parse("[crate-allow]\nprof = [\"wall-clock\"]\n").unwrap();
        let src = "fn f() { let t = Instant::now(); let m = HashMap::<u32, u32>::new(); }\n";
        let prof = lint_source_for_crate("prof", Path::new("t.rs"), src, &allow);
        assert!(prof.iter().all(|f| f.rule != "wall-clock"), "{prof:?}");
        assert!(prof.iter().any(|f| f.rule == "unordered"), "{prof:?}");
        let cluster = lint_source_for_crate("cluster", Path::new("t.rs"), src, &allow);
        assert!(
            cluster.iter().any(|f| f.rule == "wall-clock"),
            "{cluster:?}"
        );
    }

    #[test]
    fn raw_strings_and_chars_are_stripped() {
        let src = "fn f() { let s = r#\"HashMap\"#; let c = 'H'; let _ = (s, c); }\n";
        assert!(lint_str(src).is_empty(), "{:?}", lint_str(src));
    }

    #[test]
    fn report_clean_tracks_budgets_and_baseline() {
        let mut r = WorkspaceReport::default();
        assert!(r.is_clean());
        r.regressions.push(("schema-drift".into(), 1, 0));
        assert!(!r.is_clean());
        r.regressions.clear();
        r.over_budget.push(BudgetLine {
            krate: "cli".into(),
            kind: "panic-macro",
            used: 2,
            budget: 0,
        });
        assert!(!r.is_clean());
    }

    #[test]
    fn config_errors_name_the_line_and_the_expected_shape() {
        let cases = [
            (
                Budget::parse("[unwrap-budget]\n\ncluster three\n").unwrap_err(),
                "p3-lint.toml:3: expected `name = N`",
            ),
            (
                Budget::parse("[unwrap-budget]\ncluster = x # why\n").unwrap_err(),
                "p3-lint.toml:2: `x` is not a count",
            ),
            (
                CrateAllow::parse("[crate-allow]\nprof\n").unwrap_err(),
                "p3-lint.toml:2: expected `name = [\"rule\", ...]`",
            ),
            (
                CrateAllow::parse("[crate-allow]\nprof = wall\n").unwrap_err(),
                "p3-lint.toml:2: `wall` is not a [\"rule\", ...] list",
            ),
            (
                CrateAllow::parse("[crate-allow]\nprof = [wall]\n").unwrap_err(),
                "p3-lint.toml:2: `wall` is not a quoted rule name",
            ),
            (
                parse_sanitizers("[taint-sanitizer]\nx\n").unwrap_err(),
                "p3-lint.toml:2: expected `\"crate::Type::fn\" = \"reason\"`",
            ),
            (
                parse_sanitizers("[taint-sanitizer]\nx = \"r\"\n").unwrap_err(),
                "p3-lint.toml:2: sanitizer entries are `\"crate::Type::fn\" = \"reason\"`",
            ),
            (
                parse_sanitizers("[taint-sanitizer]\n\"x\" = \" \"\n").unwrap_err(),
                "p3-lint.toml:2: sanitizer `x` needs a non-empty reason",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
    }
}
