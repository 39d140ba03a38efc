//! Schema-drift lint: the version and header checks no walk guarantees.
//!
//! The trace rows, the snapshot body and the three JSON reports each have
//! one walk that both writes and reads them, so their members cannot
//! drift apart. What a walk cannot see is whether a reader checks the
//! stamp that says which layout it holds. This pass checks, per format:
//!
//! * **Trace export** — that the importer validates the
//!   `p3TraceVersion` stamp the exporter writes.
//! * **Snapshot codec** — `SNAP_MAGIC`/`SNAP_VERSION` referenced on both
//!   the write and the verify path.
//!
//! All extraction runs on the stripped views, so tests and doc examples
//! cannot satisfy (or trip) a check.

use crate::lexer::{string_literals, tokenize, Stripped};
use crate::Finding;
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
