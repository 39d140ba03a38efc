//! Schema-drift lint: statically cross-checks the repo's versioned wire
//! formats against their parsers.
//!
//! Every serialized artifact in the workspace is hand-rolled (the policy
//! is offline and dependency-free), which means a writer can grow a field
//! or bump a version without the compiler noticing that no reader accepts
//! it. This pass extracts, per format:
//!
//! * **JSON reports** (`p3-profile`, `p3-bench`, `p3-tune`) — the member
//!   names a writer emits (`\"name\":` escapes inside its string
//!   literals) vs the accept-set of its reader (string arguments of the
//!   `get`/`get_u64`/… helpers, plus `format`/`version` implied by
//!   `parse_checked`), and that the reader validates the format's version
//!   constant.
//! * **Trace export** — that the importer validates the
//!   `p3TraceVersion` stamp the exporter writes. The rows need no
//!   pairing check: one walk both writes and reads them.
//! * **Snapshot codec** — `SNAP_MAGIC`/`SNAP_VERSION` referenced on both
//!   the write and the verify path. The body needs no pairing check: one
//!   walk both writes and reads it, so an unreadable field cannot be
//!   written.
//!
//! All extraction runs on the stripped views, so tests and doc examples
//! cannot satisfy (or trip) a check.

use crate::lexer::{delimited, line_of, string_literals, tokenize, Stripped};
use crate::Finding;
use std::collections::BTreeMap;
use std::path::Path;

/// Rule name for every schema-drift finding.
pub const SCHEMA_RULE: &str = "schema-drift";

fn finding(path: &Path, line: usize, message: String) -> Finding {
    Finding {
        file: path.to_path_buf(),
        line,
        rule: SCHEMA_RULE.into(),
        message,
    }
}

/// JSON member names a writer emits: `\"name\":` escapes inside non-test
/// string literals, mapped to the literal's line.
fn writer_members(stripped: &Stripped) -> BTreeMap<String, usize> {
    let mut members = BTreeMap::new();
    for (pos, lit) in string_literals(&stripped.text) {
        let b = lit.as_bytes();
        let mut i = 0;
        while i + 1 < b.len() {
            if b[i] == b'\\' && b[i + 1] == b'"' {
                let start = i + 2;
                let mut j = start;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                if j > start
                    && j + 2 < b.len()
                    && b[j] == b'\\'
                    && b[j + 1] == b'"'
                    && b[j + 2] == b':'
                {
                    members
                        .entry(String::from_utf8_lossy(&b[start..j]).into_owned())
                        .or_insert_with(|| line_of(&stripped.text, pos));
                    i = j + 3;
                    continue;
                }
            }
            i += 1;
        }
    }
    members
}

const GETTERS: [&str; 6] = [
    "get",
    "get_u64",
    "get_f64",
    "get_str",
    "get_array",
    "get_bool",
];

/// JSON member names a reader accepts: pure-identifier string arguments of
/// the `get` helper family, plus `format`/`version` when `parse_checked`
/// is called.
fn reader_members(stripped: &Stripped) -> BTreeMap<String, usize> {
    let text = &stripped.text;
    let b = text.as_bytes();
    let mut members = BTreeMap::new();
    for getter in GETTERS {
        for (pos, _) in text.match_indices(getter) {
            if !delimited(text, pos, getter) {
                continue;
            }
            let mut i = pos + getter.len();
            while i < b.len() && b[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= b.len() || b[i] != b'(' {
                continue;
            }
            // Scan the argument span for its first string literal.
            let mut depth = 0i32;
            let limit = (i + 300).min(b.len());
            while i < limit {
                match b[i] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    b'"' => {
                        let start = i + 1;
                        let mut j = start;
                        while j < b.len() && b[j] != b'"' {
                            if b[j] == b'\\' {
                                j += 1;
                            }
                            j += 1;
                        }
                        let name = &text[start..j.min(text.len())];
                        if !name.is_empty()
                            && name.bytes().all(|c| c.is_ascii_alphanumeric() || c == b'_')
                        {
                            members
                                .entry(name.to_string())
                                .or_insert_with(|| line_of(text, pos));
                        }
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        }
    }
    for (pos, _) in text.match_indices("parse_checked") {
        if delimited(text, pos, "parse_checked") {
            let line = line_of(text, pos);
            members.entry("format".into()).or_insert(line);
            members.entry("version".into()).or_insert(line);
        }
    }
    members
}

/// Cross-checks one single-file JSON format (writer and reader live in the
/// same module, as all three report formats do).
pub fn check_json_format(path: &Path, stripped: &Stripped, version_const: &str) -> Vec<Finding> {
    let writers = writer_members(stripped);
    let readers = reader_members(stripped);
    let mut findings = Vec::new();
    for (m, &line) in &writers {
        if !readers.contains_key(m) {
            findings.push(finding(
                path,
                line,
                format!("writer emits member `\"{m}\"` that no reader accepts"),
            ));
        }
    }
    for (m, &line) in &readers {
        if !writers.contains_key(m) {
            findings.push(finding(
                path,
                line,
                format!("reader requires member `\"{m}\"` the writer never emits"),
            ));
        }
    }
    // The reader must pin the version constant, not a literal.
    let text = &stripped.text;
    let validated = text.match_indices("parse_checked").any(|(pos, _)| {
        let window = &text[pos..(pos + 200).min(text.len())];
        window.contains(version_const)
    });
    if !validated {
        findings.push(finding(
            path,
            1,
            format!("no `parse_checked(…, {version_const})` call: the reader does not validate the format version"),
        ));
    }
    findings
}

/// Cross-checks the typed trace export: the `p3TraceVersion` stamp vs
/// importer validation. Row tags need no check: one walk both writes
/// and reads them.
pub fn check_trace_export(path: &Path, stripped: &Stripped) -> Vec<Finding> {
    // The writer emits the escaped member; a reader must look it up by
    // (plain) name and compare it to the constant.
    let lits = string_literals(&stripped.text);
    let stamped = lits
        .iter()
        .any(|(_, s)| s.contains("\\\"p3TraceVersion\\\""));
    let validated = lits.iter().any(|(_, s)| s == "p3TraceVersion");
    if !stamped || validated {
        return Vec::new();
    }
    vec![finding(
        path,
        1,
        "the exporter stamps `p3TraceVersion` but the importer never validates it".into(),
    )]
}

/// Requires each header constant (e.g. `SNAP_MAGIC`, `SNAP_VERSION`) to be
/// referenced at least twice outside its definition — once on the write
/// path and once on the verify path.
pub fn check_snap_header(path: &Path, stripped: &Stripped, consts: &[&str]) -> Vec<Finding> {
    let code = &stripped.code;
    let toks = tokenize(code);
    let mut findings = Vec::new();
    for c in consts {
        let mut uses = 0usize;
        let mut defined = false;
        for i in 0..toks.len() {
            if !toks[i].ident || toks[i].text(code) != *c {
                continue;
            }
            let is_def = i > 0 && toks[i - 1].ident && toks[i - 1].text(code) == "const";
            if is_def {
                defined = true;
            } else {
                uses += 1;
            }
        }
        if !defined {
            findings.push(finding(
                path,
                1,
                format!("header constant `{c}` is not defined here"),
            ));
        } else if uses < 2 {
            findings.push(finding(
                path,
                1,
                format!(
                    "header constant `{c}` is referenced by {uses} site(s); the writer and the \
                     reader must both check it"
                ),
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    #[test]
    fn writer_reader_drift_is_reported_both_ways() {
        let src = r#"
fn to_json(v: u64) -> String { format!("{{\"alpha\": {v}, \"beta\": 2}}") }
fn from_json(root: &V) -> u64 { get_u64(root, "alpha").unwrap_or(0) + get_u64(root, "gamma").unwrap_or(0) }
"#;
        let f = check_json_format(Path::new("t.rs"), &strip(src), "FORMAT_VERSION");
        assert!(
            f.iter()
                .any(|x| x.message.contains("`\"beta\"`") && x.message.contains("writer")),
            "{f:?}"
        );
        assert!(
            f.iter()
                .any(|x| x.message.contains("`\"gamma\"`") && x.message.contains("reader")),
            "{f:?}"
        );
        assert!(
            f.iter().any(|x| x.message.contains("FORMAT_VERSION")),
            "{f:?}"
        );
    }

    #[test]
    fn matched_format_with_checked_version_is_clean() {
        let src = r#"
fn to_json(v: u64) -> String { format!("{{\"format\": \"x\", \"version\": 1, \"alpha\": {v}}}") }
fn from_json(text: &str) -> u64 {
    let root = parse_checked(text, FORMAT, FORMAT_VERSION).unwrap();
    get_u64(&root, "alpha").unwrap_or(0)
}
"#;
        let f = check_json_format(Path::new("t.rs"), &strip(src), "FORMAT_VERSION");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unvalidated_version_stamp_is_reported() {
        let src = r#"
fn export(out: &mut String) { out.push_str("\"p3TraceVersion\": 1"); }
fn decode_row(tag: &str) -> u32 { match tag { "cs" => 1, _ => 0 } }
fn encode(t: u64) -> String { format!("[{t},\"cs\",1]") }
"#;
        let f = check_trace_export(Path::new("t.rs"), &strip(src));
        assert!(
            f.iter().any(|x| x.message.contains("p3TraceVersion")),
            "{f:?}"
        );
    }

    #[test]
    fn snap_header_must_be_written_and_verified() {
        let good = r#"
const MAGIC: [u8; 4] = *b"SNAP";
fn write(out: &mut Vec<u8>) { out.extend_from_slice(&MAGIC); }
fn read(b: &[u8]) -> bool { b.starts_with(&MAGIC) }
"#;
        assert!(check_snap_header(Path::new("t.rs"), &strip(good), &["MAGIC"]).is_empty());
        let bad = r#"
const MAGIC: [u8; 4] = *b"SNAP";
fn write(out: &mut Vec<u8>) { out.extend_from_slice(&MAGIC); }
fn read(_b: &[u8]) -> bool { true }
"#;
        let f = check_snap_header(Path::new("t.rs"), &strip(bad), &["MAGIC"]);
        assert!(f.iter().any(|x| x.message.contains("MAGIC")), "{f:?}");
    }
}
