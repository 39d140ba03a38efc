//! Static description of the cluster fabric and its builder methods.

use crate::multilink::LinkGraph;
use crate::types::Bandwidth;
use p3_des::SimDuration;

/// Static description of the cluster fabric.
///
/// Every machine has a full-duplex NIC: independent transmit and receive
/// ports of `bandwidth` each, matching the testbed in the paper (NICs
/// rate-limited per direction with `tc qdisc`). Transfers where source and
/// destination are the same machine (worker pushing to its colocated server
/// shard) go over loopback: they never touch the NIC and run at
/// a fixed 400 Gbps.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of machines in the cluster.
    pub machines: usize,
    /// Per-direction NIC bandwidth of each machine.
    pub bandwidth: Bandwidth,
    /// One-way propagation + protocol-stack latency added to every message.
    pub latency: SimDuration,
    /// If set, record machine 0's transmit and receive utilization with
    /// this bin width (the paper samples one machine at 10 ms).
    pub trace_bin: Option<SimDuration>,
    /// Per-flow goodput ceiling in bytes/sec (single-stream CPU bound of
    /// the endpoint stack); `f64::INFINITY` disables it.
    pub flow_cap: f64,
    /// Fraction of nominal bandwidth usable as goodput (protocol
    /// efficiency). Real deployments sit well below line rate: `tc tbf`
    /// shaping with shallow bursts, TCP incast losses, and ps-lite's
    /// single-threaded serialization all tax the nominal figure (the
    /// paper's own crossover bandwidths imply roughly 25% effective
    /// utilization — see DESIGN.md §6). Defaults to 1.0 (ideal fabric).
    pub efficiency: f64,
    /// Optional multi-hop fabric. Rates always come from
    /// `allocate_rates_in_class_order`; this field only chooses the
    /// graph. When set, flows are routed over its fixed paths and its
    /// per-machine port capacities bound the ports, so `bandwidth` only
    /// anchors the rate-noise floor; the fabric also reports per-link
    /// usage and each flow's bottleneck link. `None` (the default) is the
    /// flat single switch: the endpoint-only graph with every port at
    /// `bandwidth`, and no link report.
    pub link_graph: Option<LinkGraph>,
}

impl NetworkConfig {
    /// A cluster of `machines` nodes with the given NIC bandwidth and
    /// defaults mirroring the paper's testbed: 50 µs message latency.
    pub fn new(machines: usize, bandwidth: Bandwidth) -> Self {
        NetworkConfig {
            machines,
            bandwidth,
            latency: SimDuration::from_micros(50),
            trace_bin: None,
            flow_cap: f64::INFINITY,
            efficiency: 1.0,
            link_graph: None,
        }
    }

    /// Routes all traffic over a multi-hop link graph instead of the flat
    /// single-switch fabric. The graph's protocol efficiency and fault
    /// scaling are applied on top of its nominal capacities at every
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the graph's machine count differs from `machines`.
    pub fn with_link_graph(mut self, graph: LinkGraph) -> Self {
        assert_eq!(
            graph.machines(),
            self.machines,
            "link graph machine count does not match the cluster"
        );
        self.link_graph = Some(graph);
        self
    }

    /// Caps every flow's rate at `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    pub fn with_flow_cap(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "non-positive flow cap");
        self.flow_cap = bytes_per_sec;
        self
    }

    /// Overrides the protocol-efficiency factor.
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn with_efficiency(mut self, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency {efficiency} outside (0, 1]"
        );
        self.efficiency = efficiency;
        self
    }

    /// Enables machine 0's utilization trace with the given bin width.
    pub fn with_trace(mut self, bin: SimDuration) -> Self {
        self.trace_bin = Some(bin);
        self
    }

    /// Overrides the per-message latency.
    pub fn with_latency(mut self, latency: SimDuration) -> Self {
        self.latency = latency;
        self
    }
}
