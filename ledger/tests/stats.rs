//! Order-statistic helpers behind every reported median, tail and spread.

use p3_ledger::stats::{beyond, highest_tail_percentile, iqr_frac, median, percentile, quartiles};

#[test]
fn median_of_odd_even_and_empty_samples() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[7.5]), Some(7.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn percentiles_use_the_nearest_rank() {
    let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
    assert_eq!(percentile(&v, 1), Some(1.0));
    assert_eq!(percentile(&v, 50), Some(5.0));
    assert_eq!(percentile(&v, 80), Some(8.0));
    assert_eq!(percentile(&v, 81), Some(9.0));
    assert_eq!(percentile(&v, 100), Some(10.0));
    assert_eq!(percentile(&[], 50), None);
}

#[test]
fn tail_percentile_keeps_ten_samples_beyond_it() {
    // The Figure 7 sweep's 54 runs: p80 leaves exactly ten beyond.
    assert_eq!(beyond(80, 54), 10);
    assert_eq!(beyond(85, 54), 8);
    assert_eq!(highest_tail_percentile(54), Some(80));
    assert_eq!(highest_tail_percentile(20), Some(50));
    assert_eq!(highest_tail_percentile(19), None);
    assert_eq!(highest_tail_percentile(1000), Some(99));
    assert_eq!(beyond(50, 0), 0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // Reference values from `statistics.quantiles(data, n=4)`.
    let cases: &[(&[f64], (f64, f64))] = &[
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 8.25),
        ),
        (&[1.0, 2.0, 3.0], (1.0, 3.0)),
        (&[1.0, 2.0], (0.75, 2.25)),
        (&[3.5, 1.25, 9.0, 4.0, 2.0], (1.625, 6.5)),
    ];
    for &(data, want) in cases {
        assert_eq!(quartiles(data), Some(want), "{data:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn iqr_spread_is_relative_to_the_median() {
    let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
    assert!((iqr_frac(&v) - 5.5 / 5.5).abs() < 1e-12);
    assert_eq!(iqr_frac(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    assert_eq!(iqr_frac(&[3.0]), 0.0);
    assert_eq!(iqr_frac(&[0.0, 0.0]), 0.0);
}
