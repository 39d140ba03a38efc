//! A metrics registry derived from a trace.
//!
//! Counters, gauges and histograms keyed by name, built on
//! [`p3_des::Summary`] / [`p3_des::Histogram`]. [`MetricsRegistry::from_trace`]
//! derives the registry from a recorded [`TraceLog`], computing the
//! per-stage latency breakdown of the push→aggregate→pull pipeline the
//! way Parameter Hub's analysis does; the owner of the run adds link
//! occupancy with [`MetricsRegistry::record_link_busy`].

use crate::event::{ComputePhase, MsgClass, TraceEvent};
use crate::json::{escape, format_number};
use crate::sink::{TimedEvent, TraceLog};
use p3_des::{Histogram, SimTime, Summary};
use std::collections::BTreeMap;

/// Bucket layout used for all stage-latency histograms: 1 µs to ~1000 s in
/// decades, in seconds.
fn stage_histogram() -> Histogram {
    Histogram::exponential(1e-6, 10.0, 9)
}

/// Named counters, gauges (sampled values) and histograms for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Summary>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named counter, creating it at zero.
    fn inc_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records one observation of the named gauge.
    fn observe_gauge(&mut self, name: &str, value: f64) {
        self.gauges
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records one sample into the named stage histogram.
    fn observe_histogram(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(stage_histogram)
            .record(value);
    }

    /// The named counter's value, or 0 if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge's summary, if any observation was recorded.
    pub fn gauge(&self, name: &str) -> Option<&Summary> {
        self.gauges.get(name)
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Records the busy fraction of one fabric link as the gauge
    /// `link_busy_<name>`. Busy fractions come from the network's per-link
    /// occupancy accounting (topology runs), not from the trace itself —
    /// the trace only carries each flow's bottleneck link — so the owner
    /// of the run feeds them in alongside [`MetricsRegistry::from_trace`].
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or not finite.
    pub fn record_link_busy(&mut self, link: &str, fraction: f64) {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "busy fraction {fraction} outside [0, 1]"
        );
        self.observe_gauge(&format!("link_busy_{link}"), fraction);
    }

    /// Derives the full registry from a recorded trace.
    ///
    /// Computed series:
    /// - counters `enqueue_push` / `enqueue_pull` / `enqueue_notify` /
    ///   `enqueue_pullreq`, `wire_messages`, `wire_bytes_tx_m<M>` /
    ///   `wire_bytes_rx_m<M>` (per-machine port traffic),
    ///   `wire_bottleneck_l<L>` (deliveries whose rate was bound by link
    ///   `L` — topology runs only), `fault_<kind>`, `rounds_completed`,
    ///   `rounds_degraded`, `iterations`, `slices_consumed`
    /// - gauges `egress_depth_p<P>` (queue depth at each enqueue, per
    ///   priority class) and `inflight_msgs` (sampled at every wire
    ///   start/end, and at a crash's cancel of a transfer in flight)
    /// - stage histograms in seconds: `stage_queue_wait`
    ///   (egress-enqueue → wire start), `stage_wire` (wire start → end),
    ///   `stage_agg_wait` (push delivered → aggregation start), `stage_agg`
    ///   (aggregation), `stage_pull` (update enqueued → delivered to
    ///   worker), `stall` (worker stall intervals), `compute_fwd` /
    ///   `compute_bwd` (compute segments)
    pub fn from_trace(log: &TraceLog) -> Self {
        let mut m = MetricsRegistry::new();
        // Correlation state, all keyed by ids already in the events.
        let mut enqueue_at: BTreeMap<u64, (SimTime, MsgClass)> = BTreeMap::new();
        let mut push_delivered_at: BTreeMap<(usize, usize, u64), SimTime> = BTreeMap::new();
        let mut push_identity: BTreeMap<u64, (usize, usize, u64)> = BTreeMap::new();
        let mut in_flight: i64 = 0;

        for (TimedEvent { at, event }, opened) in log.paired() {
            let span_secs = opened.map(|t0| at.saturating_duration_since(t0).as_secs_f64());
            match event {
                TraceEvent::EgressEnqueue {
                    msg_id,
                    class,
                    priority,
                    queue_depth,
                    machine,
                    key,
                    round,
                    ..
                } => {
                    m.inc_counter(&format!("enqueue_{}", class.label()), 1);
                    m.observe_gauge(&format!("egress_depth_p{priority}"), queue_depth as f64);
                    enqueue_at.insert(msg_id, (at, class));
                    if class == MsgClass::Push {
                        push_identity.insert(msg_id, (machine, key, round));
                    }
                }
                TraceEvent::WireStart { msg_id, .. } => {
                    in_flight += 1;
                    m.observe_gauge("inflight_msgs", in_flight as f64);
                    if let Some(&(t0, _)) = enqueue_at.get(&msg_id) {
                        m.observe_histogram("stage_queue_wait", (at - t0).as_secs_f64());
                    }
                }
                TraceEvent::WireEnd {
                    msg_id,
                    src,
                    dst,
                    bytes,
                    bottleneck,
                } => {
                    in_flight -= 1;
                    m.observe_gauge("inflight_msgs", in_flight.max(0) as f64);
                    m.inc_counter("wire_messages", 1);
                    m.inc_counter(&format!("wire_bytes_tx_m{src}"), bytes);
                    m.inc_counter(&format!("wire_bytes_rx_m{dst}"), bytes);
                    if let Some(l) = bottleneck {
                        m.inc_counter(&format!("wire_bottleneck_l{l}"), 1);
                    }
                    if let Some(secs) = span_secs {
                        m.observe_histogram("stage_wire", secs);
                    }
                    match enqueue_at.get(&msg_id) {
                        Some(&(_, MsgClass::Push)) => {
                            if let Some(&id) = push_identity.get(&msg_id) {
                                push_delivered_at.insert(id, at);
                            }
                        }
                        Some(&(t0, MsgClass::Response)) => {
                            m.observe_histogram("stage_pull", (at - t0).as_secs_f64());
                        }
                        _ => {}
                    }
                }
                TraceEvent::AggStart {
                    key, round, worker, ..
                } => {
                    if let Some(&t0) = push_delivered_at.get(&(worker, key, round)) {
                        m.observe_histogram(
                            "stage_agg_wait",
                            at.saturating_duration_since(t0).as_secs_f64(),
                        );
                    }
                }
                TraceEvent::AggEnd { .. } => {
                    if let Some(secs) = span_secs {
                        m.observe_histogram("stage_agg", secs);
                    }
                }
                TraceEvent::RoundComplete { degraded, .. } => {
                    m.inc_counter("rounds_completed", 1);
                    if degraded {
                        m.inc_counter("rounds_degraded", 1);
                    }
                }
                TraceEvent::ComputeEnd { phase, .. } => {
                    if let Some(secs) = span_secs {
                        let name = match phase {
                            ComputePhase::Forward => "compute_fwd",
                            ComputePhase::Backward => "compute_bwd",
                        };
                        m.observe_histogram(name, secs);
                    }
                }
                TraceEvent::StallEnd { .. } => {
                    if let Some(secs) = span_secs {
                        m.observe_histogram("stall", secs);
                    }
                }
                TraceEvent::IterationEnd { .. } => m.inc_counter("iterations", 1),
                TraceEvent::SliceConsumed { .. } => m.inc_counter("slices_consumed", 1),
                TraceEvent::Fault { kind, .. } => {
                    m.inc_counter(&format!("fault_{}", kind.label()), 1);
                    // Only a cancel closes a transfer without a `WireEnd`.
                    if opened.is_some() {
                        in_flight -= 1;
                        m.observe_gauge("inflight_msgs", in_flight.max(0) as f64);
                    }
                }
                TraceEvent::ComputeStart { .. }
                | TraceEvent::StallStart { .. }
                | TraceEvent::GradReady { .. }
                | TraceEvent::StateHash { .. } => {}
            }
        }
        m
    }

    /// Serializes the registry as a JSON document:
    /// `{"counters":{…},"gauges":{…},"histograms":{…}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {v}", escape(name)));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (name, s) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
                escape(name),
                s.count(),
                format_number(s.mean()),
                format_number(if s.count() == 0 { 0.0 } else { s.min() }),
                format_number(if s.count() == 0 { 0.0 } else { s.max() }),
            ));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let bounds: Vec<String> = h.bounds().iter().map(|&b| format_number(b)).collect();
            let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
            let s = h.summary();
            out.push_str(&format!(
                "\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"overflow\": {}, \"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}}}",
                escape(name),
                bounds.join(", "),
                counts.join(", "),
                h.overflow(),
                h.count(),
                format_number(s.mean()),
                format_number(if s.count() == 0 { 0.0 } else { s.min() }),
                format_number(if s.count() == 0 { 0.0 } else { s.max() }),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EndpointRole, FaultKind, TraceEvent};

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn stage_latencies_from_a_minimal_chain() {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: EndpointRole::Worker,
                msg_id: 7,
                class: MsgClass::Push,
                key: 2,
                round: 0,
                priority: 5,
                queue_depth: 3,
            },
        );
        log.record(
            t(10),
            TraceEvent::WireStart {
                msg_id: 7,
                src: 0,
                dst: 1,
                bytes: 100,
                priority: 5,
            },
        );
        log.record(
            t(30),
            TraceEvent::WireEnd {
                msg_id: 7,
                src: 0,
                dst: 1,
                bytes: 100,
                bottleneck: Some(5),
            },
        );
        log.record(
            t(40),
            TraceEvent::AggStart {
                server: 1,
                key: 2,
                round: 0,
                worker: 0,
            },
        );
        log.record(
            t(55),
            TraceEvent::AggEnd {
                server: 1,
                key: 2,
                round: 0,
                worker: 0,
            },
        );
        log.record(
            t(55),
            TraceEvent::RoundComplete {
                server: 1,
                key: 2,
                version: 1,
                degraded: false,
            },
        );
        log.record(
            t(55),
            TraceEvent::Fault {
                kind: FaultKind::Loss,
                machine: 0,
                msg_id: None,
            },
        );

        let m = MetricsRegistry::from_trace(&log);
        assert_eq!(m.counter("enqueue_push"), 1);
        assert_eq!(m.counter("wire_messages"), 1);
        assert_eq!(m.counter("wire_bytes_tx_m0"), 100);
        assert_eq!(m.counter("wire_bytes_rx_m1"), 100);
        assert_eq!(m.counter("wire_bottleneck_l5"), 1);
        assert_eq!(m.counter("rounds_completed"), 1);
        assert_eq!(m.counter("fault_loss"), 1);
        let depth = m.gauge("egress_depth_p5").unwrap();
        assert_eq!(depth.max(), 3.0);
        let qw = m.histogram("stage_queue_wait").unwrap();
        assert!((qw.summary().mean() - 10e-6).abs() < 1e-12);
        let wire = m.histogram("stage_wire").unwrap();
        assert!((wire.summary().mean() - 20e-6).abs() < 1e-12);
        let aw = m.histogram("stage_agg_wait").unwrap();
        assert!((aw.summary().mean() - 10e-6).abs() < 1e-12);
        let agg = m.histogram("stage_agg").unwrap();
        assert!((agg.summary().mean() - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn a_cancelled_transfer_leaves_the_in_flight_gauge() {
        let mut log = TraceLog::new();
        let start = |msg_id| TraceEvent::WireStart {
            msg_id,
            src: 0,
            dst: 1,
            bytes: 8,
            priority: 0,
        };
        log.record(t(0), start(1));
        log.record(
            t(5),
            TraceEvent::Fault {
                kind: FaultKind::FlowCancelled,
                machine: 0,
                msg_id: Some(1),
            },
        );
        log.record(t(6), start(2));
        log.record(
            t(9),
            TraceEvent::WireEnd {
                msg_id: 2,
                src: 0,
                dst: 1,
                bytes: 8,
                bottleneck: None,
            },
        );
        let m = MetricsRegistry::from_trace(&log);
        let gauge = m.gauge("inflight_msgs").expect("sampled");
        assert_eq!((gauge.count(), gauge.max()), (4, 1.0));
        assert_eq!(m.counter("fault_flow-cancelled"), 1);
        assert_eq!(m.histogram("stage_wire").map(Histogram::count), Some(1));
    }

    #[test]
    fn to_json_is_parseable() {
        let mut m = MetricsRegistry::new();
        m.inc_counter("a", 2);
        m.observe_gauge("g", 1.5);
        m.observe_histogram("h", 0.01);
        let doc = m.to_json();
        let v = crate::json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("counters").unwrap().get("a").unwrap().as_number(),
            Some(2.0)
        );
        assert_eq!(
            v.get("gauges")
                .unwrap()
                .get("g")
                .unwrap()
                .get("mean")
                .unwrap()
                .as_number(),
            Some(1.5)
        );
        assert!(
            v.get("histograms")
                .unwrap()
                .get("h")
                .unwrap()
                .get("bounds")
                .unwrap()
                .as_array()
                .unwrap()
                .len()
                >= 4
        );
    }

    #[test]
    fn link_busy_gauge_round_trips() {
        let mut m = MetricsRegistry::new();
        m.record_link_busy("rack0.up", 0.75);
        m.record_link_busy("rack0.up", 0.25);
        let g = m.gauge("link_busy_rack0.up").expect("gauge recorded");
        assert_eq!(g.count(), 2);
        assert!((g.mean() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn link_busy_gauge_rejects_bad_fraction() {
        MetricsRegistry::new().record_link_busy("x", 1.5);
    }

    #[test]
    fn empty_registry_serializes_cleanly() {
        let doc = MetricsRegistry::new().to_json();
        let v = crate::json::parse(&doc).expect("valid JSON");
        assert!(v.get("counters").unwrap().as_object().unwrap().is_empty());
    }
}
