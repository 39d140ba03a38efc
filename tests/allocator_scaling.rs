//! Scaling guard for the fabric's water-fill under parameter-server
//! traffic: how the allocator's work per reallocation grows with the
//! number of machines.
//!
//! A P3 run of ResNet-50 on the PS backend, at 2, 4 and 8 machines, one
//! measured iteration each. The fabric's deterministic work counters give,
//! per reallocation, the water-fill rounds, the flows in the allocator's
//! input and the links carrying flows summed over rounds. Each doubling of
//! the cluster multiplies each of them by `2^e`; this test pins every
//! exponent `e` inside a band, so a change that makes the allocator's work
//! grow a power of N faster fails here instead of in a 64-machine
//! `p3 bench` run.
//!
//! The counts are exact, so the exponents are too (seed 42):
//!
//! | per reallocation | 2 → 4 | 4 → 8 | band        |
//! |------------------|-------|-------|-------------|
//! | rounds           | 1.84  | 1.12  | 0.8 ..= 2.0 |
//! | flows            | 2.29  | 2.07  | 1.8 ..= 2.5 |
//! | links touched    | 2.47  | 1.84  | 1.5 ..= 2.6 |
//!
//! Flows grow as N² because every server broadcasts to every worker; the
//! rounds grow about linearly with the priority classes present. An
//! accidental O(N³) puts the flow or link exponent near 3.

use p3::cluster::{BackendKind, ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;

/// `(rounds, flows, links touched)` per reallocation of a PS run on
/// `machines` machines.
fn work_per_reallocation(machines: usize) -> [f64; 3] {
    let cfg = ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        machines,
        Bandwidth::from_gbps(10.0),
    )
    .with_iters(0, 1)
    .with_seed(42)
    .with_backend(BackendKind::Ps);
    let r = ClusterSim::new(cfg).with_profiling().run();
    let p = r.profile.expect("profiling was enabled");
    let count = |key: &str| p.counter(key).unwrap_or_else(|| panic!("no {key}")) as f64;
    let calls = count("net/reallocations");
    assert!(calls > 0.0, "{machines} machines: no reallocation");
    [
        "net/waterfill_rounds",
        "net/flows_touched",
        "net/ports_touched",
    ]
    .map(|k| count(k) / calls)
}

#[test]
fn ps_waterfill_work_per_reallocation_grows_within_its_exponents() {
    let names = ["rounds", "flows", "links touched"];
    let bands = [(0.8, 2.0), (1.8, 2.5), (1.5, 2.6)];
    let work: Vec<[f64; 3]> = [2, 4, 8].map(work_per_reallocation).to_vec();
    for (step, pair) in work.windows(2).enumerate() {
        let machines = 2 << step;
        for (k, (lo, hi)) in bands.into_iter().enumerate() {
            let e = (pair[1][k] / pair[0][k]).log2();
            assert!(
                (lo..=hi).contains(&e),
                "{} per reallocation grows as 2^{e:.2} from {machines} to {} machines, \
                 outside 2^{lo}..=2^{hi}: {:.2} -> {:.2}",
                names[k],
                2 * machines,
                pair[0][k],
                pair[1][k],
            );
        }
    }
}
