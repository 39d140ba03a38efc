//! End-of-run result assembly: freezing a finished [`ClusterSim`] into a
//! [`RunResult`] — measured throughput, iteration quantiles, stall
//! accounting, utilization traces, link totals, and (when profiling is
//! on) the frozen [`p3_prof::ProfileReport`].

use super::ClusterSim;
use crate::config::{LinkUtilization, RunResult, UtilizationTrace};
use p3_des::{quantile, SimDuration, SimTime};

impl ClusterSim {
    /// Consumes the finished engine and computes the measured result.
    /// `target` is the iteration count every surviving worker reached.
    #[expect(
        clippy::expect_used,
        reason = "a finished run has measured every surviving worker, and the fabric traces machine 0 whenever nic_trace is set"
    )]
    pub(super) fn finish(mut self, target: u64) -> RunResult {
        // Freeze the profile first: copy the network's deterministic work
        // counters and the calendar's heap statistics in, then derive the
        // wall-clock throughput figures.
        let net_stats = self.net.stats();
        let profile = self.prof.take().map(|mut p| {
            p.set("net/reallocations", net_stats.reallocations);
            p.set("net/flows_touched", net_stats.flows_touched);
            p.set("net/waterfill_rounds", net_stats.waterfill_rounds);
            p.set("net/ports_touched", net_stats.ports_touched);
            p.set("net/peak_in_flight", net_stats.peak_in_flight);
            p.set("heap/scheduled_total", self.queue.scheduled_total());
            p.set("heap/high_water", self.queue.high_water() as u64);
            p.report(self.events, self.queue.now().as_secs_f64())
        });
        let batch = self.cfg.model.default_batch() as f64;
        let measure_iters = self.cfg.measure_iters as f64;
        let mut total = 0.0;
        let mut iter_sum = 0.0;
        let mut stall_sum = 0.0;
        let mut finished_at = SimTime::ZERO;
        let mut survivors = 0.0;
        let mut pooled: Vec<f64> = Vec::new();
        for w in &self.workers {
            pooled.extend_from_slice(&w.measured_iters);
            if w.permanently_dead {
                continue; // its partial iterations still count in the tail
            }
            let start = w.measure_start.expect("worker never started measuring");
            let end = w.measure_end.expect("worker never finished measuring");
            assert!(w.completed >= target);
            let secs = (end - start).as_secs_f64();
            total += measure_iters * batch / secs;
            iter_sum += secs / measure_iters;
            stall_sum += w.stalled_total.as_secs_f64() / end.as_secs_f64();
            finished_at = finished_at.max(end);
            survivors += 1.0;
        }
        let p50 = quantile(&pooled, 0.50).map_or(SimDuration::ZERO, SimDuration::from_secs_f64);
        let p99 = quantile(&pooled, 0.99).map_or(SimDuration::ZERO, SimDuration::from_secs_f64);
        let trace = self.cfg.nic_trace.then(|| UtilizationTrace {
            bin: super::NIC_TRACE_BIN,
            tx_gbps: self.net.tx_trace().expect("trace enabled").gbps_series(),
            rx_gbps: self.net.rx_trace().expect("trace enabled").gbps_series(),
        });
        let stalled_per_worker = self.workers.iter().map(|w| w.stalled_total).collect();
        // Per-link totals of the compiled topology (empty on the flat
        // fabric). Busy fractions are relative to when the run ended.
        let end_secs = self.queue.now().as_secs_f64();
        let links = self
            .net
            .link_usage()
            .into_iter()
            .map(|l| LinkUtilization {
                name: l.name,
                busy_fraction: if end_secs > 0.0 {
                    l.busy_secs / end_secs
                } else {
                    0.0
                },
                bytes: l.bytes,
                transit: l.transit,
            })
            .collect();
        RunResult {
            throughput: total,
            unit: self.cfg.model.unit(),
            mean_iteration: SimDuration::from_secs_f64(iter_sum / survivors),
            p50_iteration: p50,
            p99_iteration: p99,
            mean_stall_fraction: stall_sum / survivors,
            stalled_per_worker,
            finished_at,
            events: self.events,
            peak_in_flight_flows: net_stats.peak_in_flight,
            messages: self.stats,
            faults: self.faults,
            trace,
            links,
            event_hash: self.hash,
            profile,
        }
    }
}
