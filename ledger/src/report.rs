//! One workload's measured outcome, its printed table, the one-line
//! result object, and the `--json` report file that `diff` reads back.

use crate::json::{self, write_num, write_str, Json};
use crate::spec::Metric;
use std::fmt::Write as _;

/// Report file format tag and version.
pub const FORMAT: &str = "p3-ledger";
/// Bump when the report file layout changes.
pub const VERSION: u64 = 1;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name (see [`crate::spec`]).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Reported value (a median for sampled metrics).
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
    /// Interquartile spread of the samples as a share of their median
    /// (0 for a single sample or a count).
    pub spread: f64,
}

impl Value {
    /// A value of a table metric.
    pub fn of(metric: &Metric, value: f64, n: usize, spread: f64) -> Value {
        Value {
            name: metric.name.to_string(),
            unit: metric.unit.to_string(),
            value,
            n,
            spread,
        }
    }
}

/// Everything one invocation measured for one workload.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Outcome {
    /// Workload name.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Closed-loop reps measured.
    pub reps: usize,
    /// Operations attempted (runs, digest checks, audits, imports,
    /// replays).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics from the untraced reps.
    pub end_to_end: Vec<Value>,
    /// Per-layer metrics from the traced pass (empty without `--trace`).
    pub per_layer: Vec<Value>,
}

impl Outcome {
    /// Failed operations over attempted ones.
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Looks up a metric in either table.
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|v| v.name == name)
    }

    /// The human-readable table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} · seed {} · {} reps ==",
            self.workload, self.seed, self.reps
        );
        for (title, values) in [
            ("end-to-end (untraced, median over reps)", &self.end_to_end),
            ("per-layer (traced pass)", &self.per_layer),
        ] {
            if values.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{title}");
            let _ = writeln!(
                out,
                "  {:<32} {:>16} {:<9} {:>5} {:>7}",
                "metric", "value", "unit", "n", "spread"
            );
            for v in values {
                let _ = writeln!(
                    out,
                    "  {:<32} {:>16.6} {:<9} {:>5} {:>7.3}",
                    v.name, v.value, v.unit, v.n, v.spread
                );
            }
        }
        let _ = writeln!(
            out,
            "  failure_rate {:.4} ({} failed of {} attempted)",
            self.failure_rate(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The one-line result object: end-to-end metrics, or per-layer
    /// metrics when `per_layer` is set.
    pub fn result_line(&self, per_layer: bool) -> String {
        let values = if per_layer {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write_str(&mut out, &v.name);
            out.push_str(": {\"value\": ");
            write_num(&mut out, v.value);
            out.push_str(", \"unit\": ");
            write_str(&mut out, &v.unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"workload\": ");
        write_str(out, &self.workload);
        let _ = write!(
            out,
            ", \"seed\": {}, \"reps\": {}, \"attempted\": {}, \"failed\": {}",
            self.seed, self.reps, self.attempted, self.failed
        );
        for (key, values) in [
            ("end_to_end", &self.end_to_end),
            ("per_layer", &self.per_layer),
        ] {
            let _ = write!(out, ", \"{key}\": [");
            for (i, v) in values.iter().enumerate() {
                out.push_str(if i > 0 { ",\n    " } else { "\n    " });
                out.push_str("{\"name\": ");
                write_str(out, &v.name);
                out.push_str(", \"unit\": ");
                write_str(out, &v.unit);
                out.push_str(", \"value\": ");
                write_num(out, v.value);
                let _ = write!(out, ", \"n\": {}, \"spread\": ", v.n);
                write_num(out, v.spread);
                out.push('}');
            }
            out.push(']');
        }
        out.push('}');
    }

    fn from_json(v: &Json) -> Result<Outcome, String> {
        let field = |k: &str| v.get(k).ok_or_else(|| format!("outcome lacks \"{k}\""));
        let count = |k: &str| -> Result<u64, String> {
            field(k)?
                .num()
                .map(|x| x as u64)
                .ok_or_else(|| format!("\"{k}\" is not a number"))
        };
        let values = |k: &str| -> Result<Vec<Value>, String> {
            let items = field(k)?
                .arr()
                .ok_or_else(|| format!("\"{k}\" is not an array"))?;
            items
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(Json::str).map(str::to_string);
                    let x = |f: &str| m.get(f).and_then(Json::num);
                    let value = || {
                        Some(Value {
                            name: s("name")?,
                            unit: s("unit")?,
                            value: x("value")?,
                            n: x("n")? as usize,
                            spread: x("spread")?,
                        })
                    };
                    value().ok_or_else(|| format!("malformed metric in \"{k}\""))
                })
                .collect()
        };
        Ok(Outcome {
            workload: field("workload")?
                .str()
                .ok_or("\"workload\" is not a string")?
                .to_string(),
            seed: count("seed")?,
            reps: count("reps")? as usize,
            attempted: count("attempted")?,
            failed: count("failed")?,
            end_to_end: values("end_to_end")?,
            per_layer: values("per_layer")?,
        })
    }
}

/// Serializes outcomes as a versioned report file.
pub fn to_json(outcomes: &[Outcome]) -> String {
    let mut out =
        format!("{{\"format\": \"{FORMAT}\", \"version\": {VERSION}, \"workloads\": [\n  ");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n  ");
        }
        o.write_json(&mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// Reads a report file written by [`to_json`].
pub fn from_json(text: &str) -> Result<Vec<Outcome>, String> {
    let doc = json::parse(text)?;
    if doc.get("format").and_then(Json::str) != Some(FORMAT) {
        return Err(format!("not a {FORMAT} report"));
    }
    let version = doc.get("version").and_then(Json::num);
    if version != Some(VERSION as f64) {
        return Err(format!(
            "report version {version:?}, this ledger reads {VERSION}"
        ));
    }
    doc.get("workloads")
        .and_then(Json::arr)
        .ok_or("report lacks \"workloads\"")?
        .iter()
        .map(Outcome::from_json)
        .collect()
}
