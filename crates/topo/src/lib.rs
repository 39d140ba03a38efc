//! # p3-topo — cluster topology model
//!
//! The paper's testbed (and every simulation in `p3-cluster` so far) is a
//! single flat switch: each machine's NIC ports are the only capacity
//! constraints. Production parameter-server traffic dies somewhere else —
//! at the oversubscribed rack uplinks (Parameter Hub, Luo et al., SoCC
//! 2018). This crate models that: a [`Topology`] groups machines into
//! racks behind top-of-rack switches whose core uplinks carry only
//! `1/oversub` of the rack's aggregate NIC capacity, and
//! [`Topology::compile`] lowers it to the [`p3_net::LinkGraph`] the
//! multi-constraint allocator water-fills over.
//!
//! [`Placement`] captures the second production lever — *where* workers
//! and PS shards sit relative to the rack structure (Park et al. 2019) —
//! as policies the cluster simulator applies to its shard plan. A
//! placement is part of its topology ([`Topology::with_placement`]):
//! without racks there is nothing to place shards relative to.
//!
//! # Examples
//!
//! ```
//! use p3_net::Bandwidth;
//! use p3_topo::Topology;
//!
//! // 4 racks × 4 machines behind a 4:1-oversubscribed core.
//! let topo = Topology::new(4, 4, 4.0);
//! assert_eq!(topo.machines(), 16);
//! assert_eq!(topo.rack_of(5), 1);
//! let g = topo.compile(Bandwidth::from_gbps(10.0));
//! // Cross-rack paths take four hops: src tx, rack up, rack down, dst rx.
//! assert_eq!(g.path(0, 15).len(), 4);
//! // Uplink capacity = 4 NICs / 4 oversub = one NIC's worth.
//! let up = g.path(0, 15)[1];
//! assert_eq!(g.link_cap(up), Bandwidth::from_gbps(10.0).bytes_per_sec());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use p3_net::{Bandwidth, LinkGraph, LinkId};

/// A cluster of machines grouped into racks behind an oversubscribed core.
///
/// Machines are numbered rack-major: rack `r` holds machines
/// `r*rack_size .. (r+1)*rack_size`. Every machine has a full-duplex NIC
/// (a default speed supplied at [`Topology::compile`] time, overridable
/// per machine); every rack has one uplink and one downlink to the core,
/// each of capacity `sum(rack NIC speeds) / oversub`. Intra-rack traffic
/// switches locally at the ToR and only crosses the endpoint ports;
/// cross-rack traffic additionally crosses the source rack's uplink and
/// the destination rack's downlink — the fixed path per machine pair that
/// [`Topology::compile`] installs in the [`LinkGraph`]. Where PS shards
/// sit relative to the racks is the topology's [`Placement`].
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    racks: usize,
    rack_size: usize,
    oversub: f64,
    /// Per-machine NIC speed overrides (heterogeneous clusters); `None`
    /// entries use the default NIC speed given to `compile`.
    nic_overrides: Vec<Option<Bandwidth>>,
    placement: Placement,
}

impl Topology {
    /// `racks` racks of `rack_size` machines each behind a core
    /// oversubscribed by `oversub` (1.0 = full bisection bandwidth), with
    /// shards spread ([`Placement::Spread`]).
    ///
    /// # Panics
    ///
    /// Panics if `racks` or `rack_size` is zero, or if `oversub` is not
    /// finite and ≥ 1.
    pub fn new(racks: usize, rack_size: usize, oversub: f64) -> Self {
        assert!(racks > 0, "a topology needs at least one rack");
        assert!(rack_size > 0, "a rack needs at least one machine");
        assert!(
            oversub.is_finite() && oversub >= 1.0,
            "oversubscription factor {oversub} must be finite and >= 1"
        );
        Topology {
            racks,
            rack_size,
            oversub,
            nic_overrides: vec![None; racks * rack_size],
            placement: Placement::Spread,
        }
    }

    /// Places the PS shards by `placement` instead of spreading them.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Where the PS shards sit relative to the racks.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// Maps a flat-plan home server to its home under this topology's
    /// placement: identity for spread and rack-local, modulo into rack 0
    /// for packed.
    ///
    /// # Panics
    ///
    /// Panics if `server` is out of range.
    pub fn place_server(&self, server: usize) -> usize {
        assert!(server < self.machines(), "unknown server {server}");
        match self.placement {
            Placement::Spread | Placement::RackLocal => server,
            Placement::Packed => server % self.rack_size,
        }
    }

    /// Overrides one machine's NIC speed (both directions) — heterogeneous
    /// clusters mixing, say, 10 and 25 Gbps nodes.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn with_nic(mut self, machine: usize, nic: Bandwidth) -> Self {
        assert!(machine < self.machines(), "unknown machine {machine}");
        self.nic_overrides[machine] = Some(nic);
        self
    }

    /// Parses the CLI spec `racks=R,size=S,oversub=F` (fields in any
    /// order; `oversub` optional, defaulting to 1), refusing a topology of
    /// more than `max_machines` machines before sizing anything for it.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field on malformed input, or
    /// the machine count when it exceeds `max_machines`.
    ///
    /// # Examples
    ///
    /// ```
    /// use p3_topo::Topology;
    /// let t = Topology::parse_spec("racks=2,size=4,oversub=8", 128).unwrap();
    /// assert_eq!((t.racks(), t.rack_size(), t.oversub()), (2, 4, 8.0));
    /// assert!(Topology::parse_spec("racks=0,size=4", 128).is_err());
    /// assert!(Topology::parse_spec("racks=2,size=4", 7).is_err());
    /// ```
    pub fn parse_spec(spec: &str, max_machines: usize) -> Result<Topology, String> {
        let mut racks: Option<usize> = None;
        let mut size: Option<usize> = None;
        let mut oversub = 1.0f64;
        for field in spec.split(',') {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("topology field '{field}' is not key=value"))?;
            match key.trim() {
                "racks" => {
                    racks = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad racks '{value}'"))?,
                    );
                }
                "size" => {
                    size = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad size '{value}'"))?,
                    );
                }
                "oversub" => {
                    oversub = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad oversub '{value}'"))?;
                }
                other => return Err(format!("unknown topology field '{other}'")),
            }
        }
        let racks = racks.ok_or("topology spec missing racks=R")?;
        let size = size.ok_or("topology spec missing size=S")?;
        if racks == 0 || size == 0 {
            return Err("racks and size must be positive".into());
        }
        if racks.checked_mul(size).is_none_or(|m| m > max_machines) {
            return Err(format!(
                "{racks} racks of {size} machines exceed {max_machines} machines"
            ));
        }
        if !(oversub.is_finite() && oversub >= 1.0) {
            return Err(format!("oversub {oversub} must be finite and >= 1"));
        }
        Ok(Topology::new(racks, size, oversub))
    }

    /// Number of racks.
    pub fn racks(&self) -> usize {
        self.racks
    }

    /// Machines per rack.
    pub fn rack_size(&self) -> usize {
        self.rack_size
    }

    /// Core oversubscription factor.
    pub fn oversub(&self) -> f64 {
        self.oversub
    }

    /// Total machine count (`racks * rack_size`).
    pub fn machines(&self) -> usize {
        self.racks * self.rack_size
    }

    /// The rack holding `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn rack_of(&self, machine: usize) -> usize {
        assert!(machine < self.machines(), "unknown machine {machine}");
        machine / self.rack_size
    }

    /// The machines of rack `r`, in index order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn rack_members(&self, r: usize) -> std::ops::Range<usize> {
        assert!(r < self.racks, "unknown rack {r}");
        r * self.rack_size..(r + 1) * self.rack_size
    }

    /// The designated rack-local aggregator machine of rack `r` (its
    /// lowest machine index), used by the PHub-style placement policy.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn aggregator_of(&self, r: usize) -> usize {
        self.rack_members(r).start
    }

    /// The NIC speed of one machine given the cluster default.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn nic_of(&self, machine: usize, default_nic: Bandwidth) -> Bandwidth {
        assert!(machine < self.machines(), "unknown machine {machine}");
        self.nic_overrides[machine].unwrap_or(default_nic)
    }

    /// Lowers the topology to the link graph the allocator runs on:
    /// per-machine tx/rx ports at NIC speed, one uplink + one downlink
    /// per rack at `sum(rack NICs) / oversub` (named `rack{r}.up` /
    /// `rack{r}.down`), and the fixed path per machine pair. Single-rack
    /// topologies produce an endpoint-only graph — the graph the flat
    /// fabric allocates over.
    pub fn compile(&self, default_nic: Bandwidth) -> LinkGraph {
        let nics: Vec<f64> = (0..self.machines())
            .map(|m| self.nic_of(m, default_nic).bytes_per_sec())
            .collect();
        let mut g = LinkGraph::new(&nics);
        if self.racks == 1 {
            return g;
        }
        let mut ups: Vec<LinkId> = Vec::with_capacity(self.racks);
        let mut downs: Vec<LinkId> = Vec::with_capacity(self.racks);
        for r in 0..self.racks {
            let rack_sum: f64 = self.rack_members(r).map(|m| nics[m]).sum();
            let core = rack_sum / self.oversub;
            ups.push(g.add_link(&format!("rack{r}.up"), core));
            downs.push(g.add_link(&format!("rack{r}.down"), core));
        }
        for src in 0..self.machines() {
            for dst in 0..self.machines() {
                if src == dst {
                    continue;
                }
                let (rs, rd) = (self.rack_of(src), self.rack_of(dst));
                if rs != rd {
                    g.set_transit(src, dst, &[ups[rs], downs[rd]]);
                }
            }
        }
        g
    }

    /// One-line human description, e.g. `2 racks x 8 @ 4:1 oversub`.
    pub fn describe(&self) -> String {
        format!(
            "{} racks x {} @ {}:1 oversub",
            self.racks, self.rack_size, self.oversub
        )
    }
}

/// Where workers and parameter-server shards sit relative to the racks.
///
/// Every machine always hosts a worker and a colocated PS shard process
/// (the paper's setup); placement decides which shard *keys* land where.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Shards spread across all machines — the flat default; key `k`'s
    /// home server is wherever the MXNet-KVStore heuristic put it.
    #[default]
    Spread,
    /// All shards packed into rack 0's machines (a dedicated PS rack):
    /// every remote worker's push and pull crosses the core.
    Packed,
    /// Shards spread as in [`Placement::Spread`], plus PHub-style
    /// rack-local aggregation: cross-rack gradient pushes are first
    /// combined at a per-rack aggregator machine and forwarded as one
    /// message per rack, cutting core push traffic by the rack size.
    RackLocal,
}

impl Placement {
    /// Parses a CLI name: `spread`, `packed`, or `rack-local`.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names on unknown input.
    pub fn parse(name: &str) -> Result<Placement, String> {
        match name {
            "spread" => Ok(Placement::Spread),
            "packed" => Ok(Placement::Packed),
            "rack-local" => Ok(Placement::RackLocal),
            other => Err(format!(
                "unknown placement '{other}' (expected spread, packed, or rack-local)"
            )),
        }
    }

    /// The CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            Placement::Spread => "spread",
            Placement::Packed => "packed",
            Placement::RackLocal => "rack-local",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_numbering_is_rack_major() {
        let t = Topology::new(3, 4, 2.0);
        assert_eq!(t.machines(), 12);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.rack_of(11), 2);
        assert_eq!(t.rack_members(1), 4..8);
        assert_eq!(t.aggregator_of(2), 8);
    }

    #[test]
    fn single_rack_compiles_to_endpoint_only_graph() {
        let t = Topology::new(1, 4, 1.0);
        let g = t.compile(Bandwidth::from_gbps(10.0));
        assert_eq!(g.num_links(), 8, "4 tx + 4 rx ports, no transit links");
        for src in 0..4 {
            for dst in 0..4 {
                if src != dst {
                    assert_eq!(g.path(src, dst).len(), 2);
                }
            }
        }
    }

    #[test]
    fn cross_rack_paths_take_up_and_down_links() {
        let t = Topology::new(2, 2, 4.0);
        let g = t.compile(Bandwidth::from_gbps(8.0));
        let nic = Bandwidth::from_gbps(8.0).bytes_per_sec();
        // Intra-rack: 2 hops. Cross-rack: 4 hops through up/down.
        assert_eq!(g.path(0, 1).len(), 2);
        let p = g.path(0, 3);
        assert_eq!(p.len(), 4);
        assert_eq!(g.link_name(p[1]), "rack0.up");
        assert_eq!(g.link_name(p[2]), "rack1.down");
        // Uplink = 2 NICs / 4 = half a NIC.
        assert!((g.link_cap(p[1]) - nic / 2.0).abs() < 1e-6);
        // Reverse direction uses the other rack's uplink.
        let q = g.path(3, 0);
        assert_eq!(g.link_name(q[1]), "rack1.up");
        assert_eq!(g.link_name(q[2]), "rack0.down");
    }

    #[test]
    fn heterogeneous_nics_change_ports_and_core() {
        let fast = Bandwidth::from_gbps(25.0);
        let slow = Bandwidth::from_gbps(10.0);
        let t = Topology::new(2, 2, 1.0).with_nic(0, fast);
        let g = t.compile(slow);
        assert!((g.link_cap(g.tx_link(0)) - fast.bytes_per_sec()).abs() < 1e-6);
        assert!((g.link_cap(g.rx_link(1)) - slow.bytes_per_sec()).abs() < 1e-6);
        // Rack 0's core links carry (25 + 10) Gbps worth at oversub 1.
        let up = g.path(0, 2)[1];
        assert!((g.link_cap(up) - (fast.bytes_per_sec() + slow.bytes_per_sec())).abs() < 1e-6);
    }

    #[test]
    fn spec_parsing_round_trips_and_rejects_garbage() {
        let parse = |spec| Topology::parse_spec(spec, 24);
        let t = parse("size=8, racks=3").unwrap();
        assert_eq!((t.racks(), t.rack_size(), t.oversub()), (3, 8, 1.0));
        assert!(parse("racks=2").is_err());
        assert!(parse("racks=2,size=4,oversub=0.5").is_err());
        assert!(parse("racks=2,size=4,bogus=1").is_err());
        assert!(parse("racks=two,size=4").is_err());
        assert!(parse("racks=5,size=5").is_err());
        let huge = format!("racks={},size=2", usize::MAX);
        assert!(parse(&huge).is_err(), "an overflowing product is refused");
    }

    #[test]
    fn placement_parsing_and_packing() {
        assert_eq!(Placement::parse("packed").unwrap(), Placement::Packed);
        assert_eq!(Placement::parse("rack-local").unwrap().name(), "rack-local");
        assert!(Placement::parse("corner").is_err());
        let t = |placement| Topology::new(3, 4, 2.0).with_placement(placement);
        assert_eq!(Topology::new(3, 4, 2.0).placement(), Placement::Spread);
        // Packed folds every server into rack 0 (machines 0..4).
        for s in 0..12 {
            let p = t(Placement::Packed).place_server(s);
            assert!(p < 4, "server {s} packed to {p}");
            assert_eq!(t(Placement::Spread).place_server(s), s);
            assert_eq!(t(Placement::RackLocal).place_server(s), s);
        }
    }

    #[test]
    #[should_panic(expected = "must be finite and >= 1")]
    fn undersubscription_rejected() {
        Topology::new(2, 2, 0.5);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Compiled graphs are structurally sound for any shape: path
        /// endpoints are the right ports, transit hops are shared within
        /// a rack pair, and core capacity follows the oversub rule.
        #[test]
        fn compiled_graph_is_consistent(
            racks in 1usize..5,
            size in 1usize..5,
            oversub in 1.0f64..16.0,
            gbps in 1.0f64..100.0,
        ) {
            let t = Topology::new(racks, size, oversub);
            let nic = Bandwidth::from_gbps(gbps);
            let g = t.compile(nic);
            let expect_links = 2 * t.machines() + if racks > 1 { 2 * racks } else { 0 };
            prop_assert_eq!(g.num_links(), expect_links);
            for src in 0..t.machines() {
                for dst in 0..t.machines() {
                    if src == dst { continue; }
                    let p = g.path(src, dst);
                    prop_assert_eq!(p[0], g.tx_link(src));
                    prop_assert_eq!(*p.last().unwrap(), g.rx_link(dst));
                    if t.rack_of(src) == t.rack_of(dst) {
                        prop_assert_eq!(p.len(), 2);
                    } else {
                        prop_assert_eq!(p.len(), 4);
                        let core = size as f64 * nic.bytes_per_sec() / oversub;
                        prop_assert!((g.link_cap(p[1]) - core).abs() < core * 1e-12);
                        prop_assert!((g.link_cap(p[2]) - core).abs() < core * 1e-12);
                    }
                }
            }
        }
    }
}
