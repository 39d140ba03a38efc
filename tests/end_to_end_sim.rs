//! Cross-crate integration: strategies from `p3-core`, models from
//! `p3-models`, executed by `p3-cluster` over `p3-net`. The paper's claims
//! themselves are rows of `p3_bench::CLAIMS`, checked by `paper_claims.rs`.

use p3::cluster::{BackendKind, ClusterConfig, ClusterSim};
use p3::core::{Slicing, SyncStrategy};
use p3::des::SplitMix64;
use p3::models::ModelSpec;
use p3::net::Bandwidth;
use p3::topo::Topology;
use std::panic::AssertUnwindSafe;

#[test]
fn simulation_is_deterministic() {
    let mk = || {
        ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(4.0),
        )
        .with_iters(1, 3)
        .with_seed(99)
    };
    let a = ClusterSim::new(mk()).run();
    let b = ClusterSim::new(mk()).run();
    assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
    assert_eq!(a.events, b.events);
}

#[test]
fn more_machines_scale_aggregate_throughput() {
    // Fig. 10: doubling the cluster must increase aggregate throughput.
    let m = ModelSpec::resnet50();
    let at = |machines: usize| {
        let bw = Bandwidth::from_gbps(10.0);
        let cfg = ClusterConfig::new(m.clone(), SyncStrategy::p3(), machines, bw)
            .with_iters(1, 3)
            .with_seed(5);
        ClusterSim::new(cfg)
            .try_run()
            .expect("runs clean")
            .throughput
    };
    let (t4, t8) = (at(4), at(8));
    assert!(t8 > t4 * 1.5, "scaling 4->8 machines: {t4:.1} -> {t8:.1}");
}

/// A seeded sample of the robustness grid: the four small models, six
/// strategies, slices from 2^11 to 2^62 parameters, 1e-4 to 1e5 Gbps, 1
/// to 8 machines, three backends, flat or racked, one iteration each. A
/// run either finishes or returns a structured `RunError` (a refusal of
/// the configuration included); a panic fails the test and names its
/// configuration. At least half the sample must finish, so the grid
/// cannot pass by refusing everything.
#[test]
fn sampled_config_grid_runs_or_errors_without_panicking() {
    let models = [
        ModelSpec::resnet110,
        ModelSpec::alexnet,
        ModelSpec::sockeye,
        ModelSpec::resnet50,
    ];
    let strategies = [
        SyncStrategy::baseline,
        SyncStrategy::slicing_only,
        SyncStrategy::p3,
        SyncStrategy::tf_style,
        SyncStrategy::poseidon_wfbp,
        SyncStrategy::p3_notify_pull,
    ];
    let backends = [
        BackendKind::Ps,
        BackendKind::Ring,
        BackendKind::HalvingDoubling,
    ];
    let mut rng = SplitMix64::new(0x6772_6964);
    let mut pick = |n: usize| rng.next_below(n as u64) as usize;
    let mut finished = 0;
    for _ in 0..48 {
        let model = models[pick(models.len())]();
        let mut strategy = strategies[pick(strategies.len())]();
        let slice = 1u64 << (11 + pick(52));
        strategy.slicing = Slicing::MaxParams(slice);
        let gbps = 10f64.powf(-4.0 + 9.0 * pick(1001) as f64 / 1000.0);
        let machines = 1 + pick(8);
        let backend = backends[pick(backends.len())];
        let racked = pick(2) == 1;
        let seed = pick(1 << 16) as u64;
        let label = format!(
            "{} {} slice {slice} at {gbps:e} Gbps on {machines} machines, \
             {backend:?}, racked {racked}, seed {seed}",
            model.name(),
            strategy.name(),
        );
        let mut cfg = ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps))
            .with_iters(0, 1)
            .with_seed(seed)
            .with_backend(backend);
        if racked {
            let racks = if machines % 2 == 0 { 2 } else { 1 };
            cfg = cfg.with_topology(Topology::new(racks, machines / racks, 2.0));
        }
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| ClusterSim::new(cfg).try_run()));
        match run {
            Ok(Ok(_)) => finished += 1,
            Ok(Err(e)) => println!("{label}: {e}"),
            Err(_) => panic!("{label}: panicked"),
        }
    }
    assert!(finished >= 24, "only {finished} of 48 runs finished");
}
