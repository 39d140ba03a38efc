//! Versioned JSON findings report.
//!
//! `p3 lint --json` emits the workspace report as a small hand-rolled JSON
//! document (the same no-dependency discipline as every other exporter in
//! the workspace). The output is **byte-deterministic**: findings are sorted,
//! per-rule counts live in ordered maps, and nothing timestamps the run —
//! CI runs the lint twice and byte-compares the two reports.

use crate::{BudgetLine, WorkspaceReport};
use std::fmt::Write as _;

/// `format` member of the report document.
pub const REPORT_FORMAT: &str = "p3-lint";
/// `version` member of the report document. Bump on any schema change.
pub const REPORT_FORMAT_VERSION: u64 = 1;

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn budget_lines(out: &mut String, lines: &[BudgetLine]) {
    for (i, b) in lines.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "      {{\"crate\": \"{}\", \"kind\": \"{}\", \"used\": {}, \"budget\": {}}}",
            escape(&b.krate),
            escape(b.kind),
            b.used,
            b.budget
        );
    }
}

/// Renders the report as deterministic JSON (trailing newline included).
pub fn report_json(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"format\": \"{REPORT_FORMAT}\",");
    let _ = writeln!(out, "  \"version\": {REPORT_FORMAT_VERSION},");
    let _ = writeln!(out, "  \"files\": {},", report.files);
    let _ = writeln!(out, "  \"clean\": {},", report.is_clean());

    out.push_str("  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        let _ = write!(
            out,
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            escape(&f.file.display().to_string()),
            f.line,
            escape(&f.rule),
            escape(&f.message)
        );
    }
    out.push_str(if report.findings.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"counts\": {");
    for (i, (rule, n)) in report.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    \"{}\": {n}", escape(rule));
    }
    out.push_str(if report.counts.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    out.push_str("  \"regressions\": [");
    for (i, (rule, count, baseline)) in report.regressions.iter().enumerate() {
        out.push_str(if i > 0 { ",\n    " } else { "\n    " });
        let _ = write!(
            out,
            "{{\"rule\": \"{}\", \"count\": {count}, \"baseline\": {baseline}}}",
            escape(rule)
        );
    }
    out.push_str(if report.regressions.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    out.push_str("  \"budgets\": {\n    \"over\": [");
    if !report.over_budget.is_empty() {
        out.push('\n');
        budget_lines(&mut out, &report.over_budget);
        out.push_str("\n    ");
    }
    out.push_str("],\n    \"slack\": [");
    if !report.slack.is_empty() {
        out.push('\n');
        budget_lines(&mut out, &report.slack);
        out.push_str("\n    ");
    }
    out.push_str("]\n  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;
    use std::path::PathBuf;

    fn sample() -> WorkspaceReport {
        let mut r = WorkspaceReport {
            files: 2,
            ..Default::default()
        };
        r.findings.push(Finding {
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 3,
            rule: "unordered".into(),
            message: "`HashMap`: \"why\"".into(),
        });
        r.counts.insert("unordered".into(), 1);
        r.regressions.push(("unordered".into(), 1, 0));
        r.over_budget.push(BudgetLine {
            krate: "x".into(),
            kind: "panic",
            used: 3,
            budget: 1,
        });
        r
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let r = sample();
        let a = report_json(&r);
        let b = report_json(&r);
        assert_eq!(a, b);
        assert!(a.contains("\"format\": \"p3-lint\""), "{a}");
        assert!(a.contains("\\\"why\\\""), "{a}");
        assert!(a.contains("\"clean\": false"), "{a}");
        assert!(a.contains("\"baseline\": 0"), "{a}");
        assert!(a.contains("\"kind\": \"panic\""), "{a}");
    }

    #[test]
    fn empty_report_is_clean_and_well_formed() {
        let r = WorkspaceReport::default();
        let j = report_json(&r);
        assert!(j.contains("\"clean\": true"), "{j}");
        assert!(j.contains("\"findings\": [],"), "{j}");
        assert!(j.contains("\"counts\": {},"), "{j}");
    }
}
