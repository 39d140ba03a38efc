//! Golden-digest pins for the exported trace, for the fabric's
//! deterministic work counters over whole runs, and for each send site of
//! the engine's one send path, one test per pinned behaviour.
//!
//! The values live in `results/pins.txt`; each test measures its rows
//! (`tests/common/pins.rs`) and checks them against the file.
//! `tests/pins.rs` measures the whole table and prints the `cp` that
//! re-pins it (DESIGN.md §13, "Pins"). If one of these fails, the engine
//! changed observable behaviour: either revert, or re-pin and call the
//! change out in CHANGES.md.

mod common;

use common::pins::{
    baseline_site, check, fig7_vgg19, lossy_ps_site, only, p3_notify_pull_site, rack_local_site,
    ring_1_site, tf_site, tiny_ps, tiny_racked, tiny_ring_fault,
};

/// The engine decomposition (DESIGN.md §11) promised that splitting
/// `ClusterSim` into layers would be behaviour-preserving: the tiny PS
/// run's export digest, throughput bits and event count were captured
/// from the pre-refactor monolith.
#[test]
fn ps_trace_digest_matches_pre_refactor_golden() {
    check(only(
        tiny_ps(),
        &["/export_fnv", "/throughput_bits", "/events"],
    ));
}

/// The metrics registry and the 72-column first-iteration timeline of the
/// same run: stage latencies, gauges, counters, span pairing and the
/// iteration cutoff, byte for byte.
#[test]
fn metrics_and_timeline_digests_match_golden() {
    check(only(tiny_ps(), &["/metrics_fnv", "/timeline_fnv"]));
}

/// Export bytes of a lossy ring run with a crash and rejoin: row layout,
/// number formatting and `null` fields on `Fault`, `WireEnd { bottleneck:
/// None }` and `StateHash` rows.
#[test]
fn ring_fault_trace_export_bytes_match_golden() {
    check(tiny_ring_fault());
}

/// Export bytes of a racked run past 1 s: Chrome `args.bottleneck` and
/// `WireEnd` rows with `Some` bottleneck link.
#[test]
fn racked_trace_export_bytes_match_golden() {
    check(only(tiny_racked(), &["/export_fnv", "/export_len"]));
}

/// The fabric's work counters of a Figure 7-shaped VGG-19 run and of the
/// racked run above.
#[test]
fn fabric_work_counts_match_golden() {
    let mut rows = fig7_vgg19();
    rows.extend(only(tiny_racked(), &["/net/"]));
    check(rows);
}

#[test]
fn baseline_notify_and_eager_pull_match_golden() {
    check(baseline_site());
}

#[test]
fn tf_deferred_pulls_match_golden() {
    check(tf_site());
}

#[test]
fn p3_notify_pull_matches_golden() {
    check(p3_notify_pull_site());
}

#[test]
fn rack_local_pushes_match_golden() {
    check(rack_local_site());
}

#[test]
fn lossy_ps_retransmits_match_golden() {
    check(lossy_ps_site());
}

#[test]
fn one_machine_ring_loopback_matches_golden() {
    check(ring_1_site());
}
