//! The engine's collective backends against the closed-form Ω-bound, and
//! the §2/§6 claim that slicing and priority generalize to allreduce.
//!
//! `p3_cluster::bound::iteration_bound` charges each NIC `2·S·(N−1)/N`
//! bytes per direction per iteration — exactly the busiest-link volume of
//! both ring and halving–doubling allreduce. At zero step latency it is
//! therefore the closed-form cost of a perfectly overlapped collective, and
//! the engine's throughput must sit just under it: close enough that the
//! schedules waste little, never above beyond the bound's jitter allowance.
//! EXPERIMENTS.md ("Engine allreduce vs the Ω-bound") records the measured
//! ratios.

use p3::allreduce::DEFAULT_COLLECTIVE_SLICE;
use p3::cluster::bound::iteration_bound;
use p3::cluster::{BackendKind, ClusterConfig, ClusterSim};
use p3::core::{Slicing, SyncStrategy};
use p3::models::ModelSpec;
use p3::net::Bandwidth;

const BACKENDS: [BackendKind; 2] = [BackendKind::Ring, BackendKind::HalvingDoubling];

fn config(
    model: ModelSpec,
    strategy: SyncStrategy,
    machines: usize,
    gbps: f64,
    backend: BackendKind,
) -> ClusterConfig {
    ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(gbps))
        .with_iters(1, 3)
        .with_seed(17)
        .with_backend(backend)
}

fn throughput(cfg: ClusterConfig) -> f64 {
    ClusterSim::new(cfg).run().throughput
}

fn sliced_p3() -> SyncStrategy {
    SyncStrategy::p3_with_slice_params(DEFAULT_COLLECTIVE_SLICE)
}

#[test]
fn engine_allreduce_tracks_the_omega_bound_on_flat_topology() {
    // VGG-19 on four machines: 2 Gbps is deep in the communication-bound
    // regime, 15 Gbps is compute-bound with full overlap. Measured ratios
    // span 0.965–0.998; 1.02 is the bound's own jitter allowance.
    for backend in BACKENDS {
        for gbps in [2.0, 4.0, 8.0, 15.0] {
            let cfg = config(ModelSpec::vgg19(), sliced_p3(), 4, gbps, backend).with_iters(2, 8);
            let allowed =
                iteration_bound(&cfg).throughput_limit(cfg.model.default_batch(), cfg.machines);
            let got = throughput(cfg);
            let ratio = got / allowed;
            assert!(
                (0.93..=1.02).contains(&ratio),
                "{} at {gbps} Gbps: {got:.1} vs Ω-bound {allowed:.1} samples/s \
                 (ratio {ratio:.3}) left the band [0.93, 1.02]",
                backend.name()
            );
        }
    }
}

#[test]
fn consumption_priority_beats_uniform_at_fixed_slicing() {
    for backend in BACKENDS {
        let mut uniform = SyncStrategy::slicing_only();
        uniform.slicing = Slicing::MaxParams(DEFAULT_COLLECTIVE_SLICE);
        let with = throughput(config(ModelSpec::resnet50(), sliced_p3(), 4, 3.0, backend));
        let without = throughput(config(ModelSpec::resnet50(), uniform, 4, 3.0, backend));
        assert!(
            with > without,
            "{}: consumption priority {with:.1} vs uniform {without:.1}",
            backend.name()
        );
    }
}

#[test]
fn sliced_priority_beats_layerwise_fifo_when_constrained() {
    // Layer-wise keys with uniform priority are FIFO in generation order:
    // Horovod without tensor fusion.
    let vgg_ring = |s| throughput(config(ModelSpec::vgg19(), s, 4, 10.0, BackendKind::Ring));
    let p3 = vgg_ring(sliced_p3());
    let fifo = vgg_ring(SyncStrategy::poseidon_wfbp());
    assert!(
        p3 > fifo,
        "sliced+priority {p3:.1} vs layer-wise FIFO {fifo:.1}"
    );
}

#[test]
fn ample_bandwidth_reaches_the_compute_plateau() {
    let plateau = 4.0 * ModelSpec::resnet50().reference_throughput();
    for backend in BACKENDS {
        let got = throughput(config(
            ModelSpec::resnet50(),
            sliced_p3(),
            4,
            100.0,
            backend,
        ));
        assert!(
            (got - plateau).abs() / plateau < 0.02,
            "{}: {got:.1} vs plateau {plateau:.1}",
            backend.name()
        );
    }
}

#[test]
fn doubling_machines_scales_aggregate_throughput() {
    for backend in BACKENDS {
        let t4 = throughput(config(ModelSpec::resnet50(), sliced_p3(), 4, 10.0, backend));
        let t8 = throughput(config(ModelSpec::resnet50(), sliced_p3(), 8, 10.0, backend));
        assert!(
            t8 >= 1.4 * t4,
            "{}: 8 machines {t8:.1} vs 4 machines {t4:.1}",
            backend.name()
        );
    }
}
