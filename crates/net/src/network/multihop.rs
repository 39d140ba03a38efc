//! Per-link accounting for configured topologies.
//!
//! Active when the configuration carries a [`LinkGraph`]: the fabric
//! tracks per-link busy time and bytes carried for
//! [`Network::link_usage`]. The flat fabric reports no links, so both
//! functions do nothing without a configured graph.

use super::{LinkUsage, Network};
use crate::multilink::LinkId;

/// Accrues per-link occupancy (busy seconds and bytes carried) for the
/// elapsed interval `dt`, under the rates in force over that interval.
/// Called from `Network::advance` before flow progress is integrated.
#[expect(
    clippy::indexing_slicing,
    reason = "route links, rate_sum and the per-link totals all span the configured graph"
)]
pub(super) fn account_advance(net: &mut Network, dt: f64) {
    let Some(g) = &net.cfg.link_graph else {
        return;
    };
    let mut rate_sum = vec![0.0; g.num_links()];
    for (f, &rate) in net.flows.iter().zip(&net.rates) {
        if rate > 0.0 {
            for l in g.route(f.src, f.dst) {
                rate_sum[l.0] += rate;
            }
        }
    }
    for (l, &r) in rate_sum.iter().enumerate() {
        if r > 0.0 {
            net.link_busy[l] += dt;
            net.link_bytes[l] += r * dt;
        }
    }
}

/// Builds the per-link usage report for [`Network::link_usage`]. Empty on
/// the flat single-switch fabric.
#[expect(
    clippy::indexing_slicing,
    reason = "the per-link totals span the configured graph"
)]
pub(super) fn usage(net: &Network) -> Vec<LinkUsage> {
    let Some(g) = &net.cfg.link_graph else {
        return Vec::new();
    };
    (0..g.num_links())
        .map(|l| LinkUsage {
            name: g.link_name(LinkId(l)),
            capacity: g.link_cap(LinkId(l)),
            busy_secs: net.link_busy[l],
            bytes: net.link_bytes[l],
            transit: g.is_transit(LinkId(l)),
        })
        .collect()
}
