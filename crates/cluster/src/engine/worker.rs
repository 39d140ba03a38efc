//! Worker compute engine: forward/backward pass scheduling, parameter
//! readiness and stall accounting, iteration bookkeeping, and compute
//! jitter. Hands finished gradients to the communication backend and is
//! woken by it when parameters arrive ([`ClusterSim::recheck_waiting`]).

use super::types::{trace_phase, Ev, Phase};
use super::ClusterSim;
use p3_des::SimDuration;
use p3_trace::TraceEvent;

impl ClusterSim {
    /// Combined compute-time multiplier: calibrated jitter times any active
    /// straggler slowdown.
    fn compute_scale(&self, worker: usize) -> f64 {
        self.workers[worker].jitter * self.workers[worker].slowdown
    }

    fn schedule_compute(&mut self, worker: usize, dur: SimDuration, phase: Phase) {
        let (tp, block) = trace_phase(phase);
        self.trace(TraceEvent::ComputeStart {
            worker,
            phase: tp,
            block,
        });
        let inc = self.workers[worker].incarnation;
        self.queue
            .schedule_in(dur, Ev::Compute { worker, phase, inc });
    }

    fn fwd_ready(&self, worker: usize, block: usize) -> bool {
        let need = self.workers[worker].completed;
        self.keys_of_block[block]
            .iter()
            .all(|&k| self.workers[worker].received_version[k] >= need)
    }

    pub(crate) fn try_start_fwd(&mut self, worker: usize, block: usize) {
        let now = self.queue.now();
        if self.fwd_ready(worker, block) {
            let w = &mut self.workers[worker];
            if let Some((_, since)) = w.stall.take() {
                w.stalled_total += now - since;
                self.trace(TraceEvent::StallEnd { worker, block });
            }
            if self.trace_log.is_some() {
                let round = self.workers[worker].completed;
                for k in self.keys_of_block[block].clone() {
                    self.trace(TraceEvent::SliceConsumed {
                        worker,
                        key: k,
                        round,
                    });
                }
            }
            let dur = self.block_times[block]
                .fwd
                .mul_f64(self.compute_scale(worker));
            self.schedule_compute(worker, dur, Phase::Fwd(block));
        } else {
            let newly_stalled = {
                let w = &mut self.workers[worker];
                let since = w.stall.map_or(now, |(_, since)| since);
                w.stall.replace((block, since)).is_none()
            };
            if newly_stalled {
                self.trace(TraceEvent::StallStart { worker, block });
            }
        }
    }

    pub(crate) fn on_fwd_done(&mut self, worker: usize, block: usize) {
        let last = self.block_times.len() - 1;
        if block < last {
            self.try_start_fwd(worker, block + 1);
        } else {
            let dur = self.block_times[last]
                .bwd
                .mul_f64(self.compute_scale(worker));
            self.schedule_compute(worker, dur, Phase::Bwd(last));
        }
    }

    pub(crate) fn on_bwd_done(&mut self, worker: usize, block: usize) {
        // Gradients for every array of this block are now ready: hand their
        // slices to the communication backend (PS pushes, or a collective's
        // pending queue).
        let round = self.workers[worker].completed;
        self.backend_grads_ready(worker, block, round);

        if block > 0 {
            let dur = self.block_times[block - 1]
                .bwd
                .mul_f64(self.compute_scale(worker));
            self.schedule_compute(worker, dur, Phase::Bwd(block - 1));
        } else {
            self.on_iteration_complete(worker);
        }
    }

    fn on_iteration_complete(&mut self, worker: usize) {
        let now = self.queue.now();
        let warmup = self.cfg.warmup_iters;
        let target = warmup + self.cfg.measure_iters;
        let w = &mut self.workers[worker];
        w.completed += 1;
        let dur = (now - w.iter_started).as_secs_f64();
        w.iter_started = now;
        if w.completed > warmup && w.completed <= target {
            w.measured_iters.push(dur);
        }
        if w.completed == warmup && w.measure_start.is_none() {
            w.measure_start = Some(now);
        }
        if w.completed == target && w.measure_end.is_none() {
            w.measure_end = Some(now);
        }
        let completed = w.completed;
        self.trace(TraceEvent::IterationEnd {
            worker,
            iter: completed,
        });
        self.resample_jitter(worker);
        self.backend_iteration_started(worker);
        self.try_start_fwd(worker, 0);
    }

    pub(crate) fn resample_jitter(&mut self, worker: usize) {
        let frac = self.cfg.model.iteration_jitter();
        let w = &mut self.workers[worker];
        w.jitter = if frac > 0.0 {
            (1.0 + w.rng.normal() * frac).clamp(0.5, 2.0)
        } else {
            1.0
        };
    }

    pub(crate) fn recheck_waiting(&mut self, worker: usize) {
        if let Some((b, _)) = self.workers[worker].stall {
            if self.fwd_ready(worker, b) {
                self.try_start_fwd(worker, b);
            }
        }
    }
}
