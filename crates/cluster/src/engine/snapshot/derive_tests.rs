//! What a restore derives instead of reading equals the live engine's,
//! bit for bit, on states a run reaches: at every iteration boundary and
//! at pauses mid-iteration (and mid-instant). The derived facts checked
//! here are each fabric flow's rate and bottleneck, which a restore
//! water-fills afresh, and each message's size, which a restore sets from
//! its kind for the parameter-server kinds. The PS sizes are also checked
//! against the protocol's own formula, computed here apart from the
//! engine, so a size function that swapped the push and response
//! compression ratios would fail on the compressed run.

use super::super::check::PAUSE_AT;
use super::super::fixtures::{base, matrix};
use super::super::types::{class_of, MsgKind};
use super::super::ClusterSim;
use crate::config::{BackendKind, ClusterConfig, WireCompression};
use p3_pserver::Key;

/// Pauses checked mid-run, spread evenly over the run's events.
const MID: u64 = 40;

/// A PS message's size as the protocol defines it: a 32-byte header,
/// plus, for a gradient or parameter payload, 4 bytes a parameter over
/// the compression ratio of its direction, rounded up.
fn protocol_size(sim: &ClusterSim, kind: MsgKind) -> Option<u64> {
    let params = sim.plan.slice(Key(class_of(kind).1 as u64)).params as f64;
    let c = sim.cfg.wire_compression.as_ref();
    let payload = |ratio: Option<f64>| 32 + (4.0 * params / ratio.unwrap_or(1.0)).ceil() as u64;
    match kind {
        MsgKind::Push { .. } | MsgKind::RackPush { .. } | MsgKind::CombinedPush { .. } => {
            Some(payload(c.map(|c| c.push_ratio)))
        }
        MsgKind::Response { .. } => Some(payload(c.map(|c| c.response_ratio))),
        MsgKind::Notify { .. } | MsgKind::PullReq { .. } => Some(32),
        MsgKind::ReduceScatter { .. } | MsgKind::AllGather { .. } => None,
    }
}

/// Snapshots `sim`, restores the bytes under `cfg`, and asserts that the
/// restored fabric's rates and bottlenecks and every message's size are
/// the live engine's, bit for bit, and each PS size the protocol's. Adds
/// the flows, pushes, responses and collective chunks seen to `seen`.
fn assert_derived(label: &str, sim: &mut ClusterSim, cfg: &ClusterConfig, seen: &mut [usize; 4]) {
    let at = sim.events;
    let back = ClusterSim::restore(cfg.clone(), &sim.snapshot())
        .unwrap_or_else(|e| panic!("{label}, event {at}: restore refused: {e}"));
    let rates = |s: &ClusterSim| {
        let rates = s.net.flow_rates();
        rates
            .map(|(id, q, l)| (id, q.to_bits(), l))
            .collect::<Vec<_>>()
    };
    let sizes = |s: &ClusterSim| {
        s.msgs
            .iter()
            .map(|(id, m)| (id, m.bytes))
            .collect::<Vec<_>>()
    };
    let live = rates(sim);
    assert_eq!(rates(&back), live, "{label}, event {at}: rates");
    assert_eq!(sizes(&back), sizes(sim), "{label}, event {at}: sizes");
    seen[0] += live.len();
    for (id, ctx) in sim.msgs.iter() {
        let want = protocol_size(sim, ctx.kind);
        let what = format!("{label}, event {at}: message {id} {:?}", ctx.kind);
        assert!(want.is_none_or(|want| ctx.bytes == want), "{what}");
        seen[match ctx.kind {
            MsgKind::Notify { .. } | MsgKind::PullReq { .. } => continue,
            MsgKind::Response { .. } => 2,
            _ if want.is_none() => 3,
            _ => 1,
        }] += 1;
    }
}

#[test]
fn restored_rates_bottlenecks_and_sizes_match_the_live_engine() {
    // DGC on the wire compresses pushes and responses by different ratios.
    let compressed = ClusterConfig {
        wire_compression: Some(WireCompression::dgc(0.99, 4)),
        ..base(BackendKind::Ps, 7)
    };
    for (label, cfg) in matrix().into_iter().chain([("compressed", compressed)]) {
        let mut seen = [0; 4];
        let target = cfg.warmup_iters + cfg.measure_iters;
        let mut sim = ClusterSim::new(cfg.clone());
        for k in 1..=target {
            sim.run_until(k).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_derived(label, &mut sim, &cfg, &mut seen);
        }
        let (events, mut sim) = (sim.events, ClusterSim::new(cfg.clone()));
        for i in 1..=MID {
            let stop = events * i / (MID + 1);
            PAUSE_AT.with(|p| p.set(stop));
            sim.run_until(target)
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(sim.events, stop, "{label}: no pause at event {stop}");
            assert_derived(label, &mut sim, &cfg, &mut seen);
        }
        PAUSE_AT.with(|p| p.set(u64::MAX));
        let [flows, pushes, responses, chunks] = seen;
        let kinds = if cfg.backend.is_collective() {
            chunks > 0 && pushes + responses == 0
        } else {
            pushes > 0 && responses > 0 && chunks == 0
        };
        assert!(
            flows > 0 && kinds,
            "{label}: too little in flight: {seen:?}"
        );
    }
}
