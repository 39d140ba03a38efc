//! The fabric as a link graph: capacitated links plus one fixed route per
//! machine pair.
//!
//! Every [`crate::Network`] allocates rates over a [`LinkGraph`]. Without a
//! configured topology the graph is endpoint-only — one tx and one rx port
//! per machine, no transit links — which is the paper's single
//! non-blocking switch. Production clusters are not flat: racks hang off
//! top-of-rack switches whose core uplinks are oversubscribed (Parameter
//! Hub, Luo et al., SoCC 2018, measures PS traffic dying exactly there), so
//! a graph may also carry transit links that some routes cross.
//! [`crate::allocate_rates_on_graph`] water-fills over every link on each
//! flow's route.

/// Index of one unidirectional link in a [`LinkGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// A capacitated link graph with a fixed route per machine pair.
///
/// Links `0..machines` are the per-machine transmit ports, links
/// `machines..2*machines` the receive ports; transit links (switch
/// uplinks/downlinks) are appended with [`LinkGraph::add_link`]. Every
/// path starts at the source's tx port and ends at the destination's rx
/// port; [`LinkGraph::set_transit`] inserts the transit hops in between.
///
/// # Examples
///
/// ```
/// use p3_net::{allocate_rates_on_graph, AllocWork, FlowSpec, LinkGraph, Priority};
///
/// // Two machines behind a shared 50 B/s uplink.
/// let mut g = LinkGraph::new(&[100.0, 100.0, 100.0]);
/// let up = g.add_link("up", 50.0);
/// g.set_transit(0, 2, &[up]);
/// g.set_transit(1, 2, &[up]);
/// let flows = [
///     FlowSpec { src: 0, dst: 2, priority: Priority(1) },
///     FlowSpec { src: 1, dst: 2, priority: Priority(1) },
/// ];
/// let caps = g.caps().to_vec();
/// let alloc =
///     allocate_rates_on_graph(&flows, &g, &caps, f64::INFINITY, &mut AllocWork::default());
/// assert_eq!(alloc.rates, vec![25.0, 25.0]); // uplink, not the NICs, binds
/// assert_eq!(alloc.bottleneck, vec![Some(up), Some(up)]);
/// ```
#[derive(Debug, Clone)]
pub struct LinkGraph {
    machines: usize,
    caps: Vec<f64>,
    /// Names of the transit links, in [`LinkId`] order. Port names are
    /// derived when asked for.
    transit_names: Vec<String>,
    /// Row-major `src * machines + dst`: the transit hops between the two
    /// endpoint ports. Left empty until the first
    /// [`LinkGraph::set_transit`], so an endpoint-only graph allocates no
    /// route table.
    transit: Vec<Vec<LinkId>>,
}

impl LinkGraph {
    /// A graph of `nic.len()` machines whose tx and rx ports both have the
    /// given per-machine capacity (bytes/sec), with direct two-hop paths
    /// `[tx(src), rx(dst)]` for every pair — the degenerate single-switch
    /// fabric.
    ///
    /// # Panics
    ///
    /// Panics if `nic` is empty or any capacity is negative or non-finite.
    pub fn new(nic: &[f64]) -> Self {
        Self::with_ports(nic, nic)
    }

    /// Like [`LinkGraph::new`] but with distinct transmit and receive port
    /// capacities.
    ///
    /// # Panics
    ///
    /// Panics if the tables are empty, differ in length, or contain a
    /// negative or non-finite capacity.
    pub fn with_ports(tx: &[f64], rx: &[f64]) -> Self {
        assert!(!tx.is_empty(), "a link graph needs at least one machine");
        assert_eq!(tx.len(), rx.len(), "tx/rx capacity tables differ in length");
        for (dir, table) in [("tx", tx), ("rx", rx)] {
            for (m, &c) in table.iter().enumerate() {
                assert!(
                    c >= 0.0 && c.is_finite(),
                    "bad {dir} capacity {c} on machine {m}"
                );
            }
        }
        LinkGraph {
            machines: tx.len(),
            caps: [tx, rx].concat(),
            transit_names: Vec::new(),
            transit: Vec::new(),
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Number of links (ports plus transit links).
    pub fn num_links(&self) -> usize {
        self.caps.len()
    }

    /// The transmit-port link of machine `m`.
    pub fn tx_link(&self, m: usize) -> LinkId {
        assert!(m < self.machines, "unknown machine {m}");
        LinkId(m)
    }

    /// The receive-port link of machine `m`.
    pub fn rx_link(&self, m: usize) -> LinkId {
        assert!(m < self.machines, "unknown machine {m}");
        LinkId(self.machines + m)
    }

    /// True when `link` is a transit link (not an endpoint port).
    pub fn is_transit(&self, link: LinkId) -> bool {
        link.0 >= 2 * self.machines
    }

    /// True when some machine pair is routed through transit links.
    pub(crate) fn has_transit(&self) -> bool {
        !self.transit.is_empty()
    }

    /// Human-readable name of a link: `m3.tx`, `m3.rx`, or the name given
    /// to [`LinkGraph::add_link`].
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "an out-of-range link is a documented panic"
    )]
    pub fn link_name(&self, link: LinkId) -> String {
        let m = self.machines;
        match link.0 {
            l if l < m => format!("m{l}.tx"),
            l if l < 2 * m => format!("m{}.rx", l - m),
            l => self.transit_names[l - 2 * m].clone(),
        }
    }

    /// Nominal capacity of a link in bytes/sec.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[expect(
        clippy::indexing_slicing,
        reason = "an out-of-range link is a documented panic"
    )]
    pub fn link_cap(&self, link: LinkId) -> f64 {
        self.caps[link.0]
    }

    /// All nominal link capacities, indexed by [`LinkId`].
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Adds a transit link (switch uplink, core hop, …) and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is negative or non-finite.
    pub fn add_link(&mut self, name: &str, cap: f64) -> LinkId {
        assert!(cap >= 0.0 && cap.is_finite(), "bad link capacity {cap}");
        self.transit_names.push(name.to_string());
        self.caps.push(cap);
        LinkId(self.caps.len() - 1)
    }

    /// Routes `src -> dst` through the given transit links: the full path
    /// becomes `[tx(src), via…, rx(dst)]`. A path must not repeat a link.
    ///
    /// # Panics
    ///
    /// Panics if a machine or link is out of range, `src == dst`, or `via`
    /// contains a duplicate or an endpoint port.
    #[expect(
        clippy::indexing_slicing,
        reason = "k indexes via, and src and dst are asserted below machines"
    )]
    pub fn set_transit(&mut self, src: usize, dst: usize, via: &[LinkId]) {
        assert!(
            src < self.machines && dst < self.machines,
            "unknown machine pair {src}->{dst}"
        );
        assert!(src != dst, "no route needed from a machine to itself");
        for (k, &l) in via.iter().enumerate() {
            assert!(l.0 < self.caps.len(), "unknown link {l}");
            assert!(
                self.is_transit(l),
                "path interior must be transit links, got port {l}"
            );
            assert!(
                !via[..k].contains(&l),
                "duplicate link {l} on path {src}->{dst}"
            );
        }
        if self.transit.is_empty() {
            self.transit = vec![Vec::new(); self.machines * self.machines];
        }
        self.transit[src * self.machines + dst] = via.to_vec();
    }

    /// The transit hops of the route `src -> dst`, endpoint ports excluded
    /// (empty for a direct route).
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub(crate) fn transit(&self, src: usize, dst: usize) -> &[LinkId] {
        assert!(
            src < self.machines && dst < self.machines,
            "unknown machine pair {src}->{dst}"
        );
        self.transit
            .get(src * self.machines + dst)
            .map_or(&[], Vec::as_slice)
    }

    /// The fixed route for `src -> dst`, endpoint ports included.
    ///
    /// # Panics
    ///
    /// Panics if either machine is out of range.
    pub fn path(&self, src: usize, dst: usize) -> Vec<LinkId> {
        let via = self.transit(src, dst);
        let mut path = Vec::with_capacity(via.len() + 2);
        path.push(LinkId(src));
        path.extend_from_slice(via);
        path.push(LinkId(self.machines + dst));
        path
    }

    /// The links of `src -> dst`'s route in [`LinkGraph::path`] order,
    /// without allocating. The route table is consulted only when the
    /// graph has one, so on an endpoint-only graph the caller must have
    /// checked both machines.
    pub(crate) fn route(&self, src: usize, dst: usize) -> impl Iterator<Item = LinkId> + '_ {
        let via = if self.has_transit() {
            self.transit(src, dst)
        } else {
            &[]
        };
        std::iter::once(LinkId(src))
            .chain(via.iter().copied())
            .chain(std::iter::once(LinkId(self.machines + dst)))
    }

    /// Link capacities scaled by a protocol-efficiency factor and by
    /// per-machine port factors (fault injection): the tx port of machine
    /// `m` is scaled by `tx_scale[m]`, its rx port by `rx_scale[m]`,
    /// transit links by `efficiency` alone.
    ///
    /// # Panics
    ///
    /// Panics if a scale table's length differs from the machine count.
    #[expect(
        clippy::indexing_slicing,
        reason = "the scale tables are asserted to hold one entry per machine, and caps starts with every tx then every rx port"
    )]
    pub fn scaled_caps(&self, efficiency: f64, tx_scale: &[f64], rx_scale: &[f64]) -> Vec<f64> {
        assert_eq!(tx_scale.len(), self.machines, "tx scale table length");
        assert_eq!(rx_scale.len(), self.machines, "rx scale table length");
        let mut caps: Vec<f64> = self.caps.iter().map(|c| c * efficiency).collect();
        for m in 0..self.machines {
            caps[m] *= tx_scale[m];
            caps[self.machines + m] *= rx_scale[m];
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_only_graph_has_direct_paths_and_no_route_table() {
        let g = LinkGraph::with_ports(&[10.0, 20.0], &[30.0, 40.0]);
        assert!(!g.has_transit());
        assert_eq!(g.caps(), &[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(g.path(0, 1), vec![g.tx_link(0), g.rx_link(1)]);
        assert!(g.transit(1, 0).is_empty());
        assert_eq!(g.link_name(g.tx_link(1)), "m1.tx");
        assert_eq!(g.link_name(g.rx_link(0)), "m0.rx");
    }

    #[test]
    fn transit_hops_sit_between_the_ports() {
        let mut g = LinkGraph::new(&[10.0; 3]);
        let up = g.add_link("up", 5.0);
        let down = g.add_link("down", 5.0);
        g.set_transit(0, 2, &[up, down]);
        assert!(g.has_transit());
        assert_eq!(g.path(0, 2), vec![LinkId(0), up, down, LinkId(5)]);
        assert_eq!(g.transit(0, 2), &[up, down]);
        assert!(g.transit(2, 0).is_empty(), "other pairs stay direct");
        assert_eq!(g.link_name(down), "down");
        assert!(g.is_transit(up) && !g.is_transit(g.rx_link(2)));
    }

    #[test]
    #[should_panic(expected = "transit")]
    fn endpoint_port_rejected_as_transit_hop() {
        let mut g = LinkGraph::new(&[10.0, 10.0, 10.0]);
        let port = g.rx_link(2);
        g.set_transit(0, 1, &[port]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn repeated_transit_hop_rejected() {
        let mut g = LinkGraph::new(&[10.0, 10.0]);
        let up = g.add_link("up", 1.0);
        g.set_transit(0, 1, &[up, up]);
    }
}
