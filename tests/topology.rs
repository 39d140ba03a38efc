//! Topology-aware networking end to end through the `p3` facade: the
//! degenerate single-rack fabric reproduces the flat simulator exactly,
//! and an oversubscribed core changes results the way DESIGN.md §9 says
//! it should.

use p3::cluster::{ClusterConfig, ClusterSim};
use p3::core::SyncStrategy;
use p3::models::ModelSpec;
use p3::net::Bandwidth;
use p3::topo::{Placement, Topology};

fn base_cfg() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(10.0),
    )
    .with_iters(1, 2)
    .with_seed(7)
}

#[test]
fn single_rack_topology_reproduces_the_flat_simulator() {
    let flat = ClusterSim::new(base_cfg()).run();
    let mut topo = ClusterSim::new(base_cfg().with_topology(Topology::new(1, 4, 1.0))).run();
    // Only the link-utilization report distinguishes the runs: the flat
    // fabric has no link graph to report on.
    assert!(!topo.links.is_empty());
    assert!(flat.links.is_empty());
    topo.links.clear();
    assert_eq!(flat, topo);
}

#[test]
fn oversubscribed_core_costs_throughput_and_placement_is_accepted() {
    let full = ClusterSim::new(base_cfg().with_topology(Topology::new(2, 2, 1.0))).run();
    let squeezed = ClusterSim::new(
        base_cfg().with_topology(Topology::new(2, 2, 8.0).with_placement(Placement::RackLocal)),
    )
    .run();
    assert!(
        squeezed.throughput < full.throughput,
        "8:1 core did not slow training: {} vs {}",
        squeezed.throughput,
        full.throughput
    );
    // Rack-local aggregation actually engaged: combined pushes crossed
    // the core on behalf of whole racks.
    assert!(squeezed.messages.combined_pushes > 0);
    // Transit links exist and report sane utilization.
    let core: Vec<_> = squeezed.links.iter().filter(|l| l.transit).collect();
    assert_eq!(core.len(), 4); // up + down per rack
    for l in core {
        assert!((0.0..=1.0).contains(&l.busy_fraction), "{l:?}");
        assert!(l.bytes > 0.0, "{l:?}");
    }
}
