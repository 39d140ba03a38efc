//! # p3-bench — figure regeneration harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus shared
//! formatting helpers so every binary emits the same machine-readable
//! series format:
//!
//! ```text
//! # figure: 7a  model: ResNet-50  machines: 4
//! # x = bandwidth_gbps, series = Baseline, Slicing, P3
//! 1.0   15.2   23.7   24.7
//! 2.0   38.8   44.2   49.4
//! ```
//!
//! Lines starting with `#` are metadata; data rows are whitespace-separated
//! `x` followed by one column per series — directly gnuplot-compatible,
//! like the plots in the paper.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use p3_cluster::SweepPoint;

/// Prints a figure header.
pub fn print_header(figure: &str, detail: &str) {
    println!("# figure: {figure}  {detail}");
}

/// Prints a sweep as gnuplot-style columns with a series legend.
pub fn print_sweep(x_label: &str, points: &[SweepPoint]) {
    if points.is_empty() {
        println!("# (no data)");
        return;
    }
    let names: Vec<&str> = points[0].series.iter().map(|(n, _)| n.as_str()).collect();
    println!("# x = {x_label}, series = {}", names.join(", "));
    for p in points {
        print!("{:10.1}", p.x);
        for (_, v) in &p.series {
            print!(" {v:10.2}");
        }
        println!();
    }
}

/// Prints a multi-column series (e.g. a utilization trace).
pub fn print_series(x_label: &str, labels: &[&str], rows: &[(f64, Vec<f64>)]) {
    println!("# x = {x_label}, series = {}", labels.join(", "));
    for (x, ys) in rows {
        print!("{x:10.3}");
        for y in ys {
            print!(" {y:10.3}");
        }
        println!();
    }
}

/// Formats a speedup comparison line.
pub fn speedup_line(name: &str, base: f64, ours: f64) -> String {
    format!(
        "{name}: baseline {base:.1} -> {ours:.1}  ({:+.1}%)",
        (ours / base - 1.0) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        let line = speedup_line("VGG-19@15G", 40.0, 60.0);
        assert!(line.contains("+50.0%"), "{line}");
    }
}
