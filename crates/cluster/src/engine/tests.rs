//! Engine behaviour tests: strategy coverage, stall accounting, and exact
//! message budgets. (Fault, trace, and topology tests live in
//! `fault_tests`.)

use super::ClusterSim;
use crate::config::{BackendKind, ClusterConfig};
use crate::faults::{FaultPlan, StragglerEpisode};
use p3_core::SyncStrategy;
use p3_des::{SimDuration, SimTime};
use p3_models::ModelSpec;
use p3_net::Bandwidth;

fn cfg(strategy: SyncStrategy, gbps: f64) -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::resnet50(),
        strategy,
        4,
        Bandwidth::from_gbps(gbps),
    )
    .with_iters(1, 2)
    .with_seed(7)
}

#[test]
fn every_strategy_terminates_and_reports() {
    for strategy in [
        SyncStrategy::baseline(),
        SyncStrategy::slicing_only(),
        SyncStrategy::p3(),
        SyncStrategy::tf_style(),
        SyncStrategy::poseidon_wfbp(),
        SyncStrategy::p3_generation_order(),
        SyncStrategy::p3_random_order(3),
        SyncStrategy::p3_notify_pull(),
    ] {
        let name = strategy.name().to_string();
        let r = ClusterSim::new(cfg(strategy, 8.0)).run();
        assert!(r.throughput > 0.0, "{name} produced no throughput");
        assert!(r.events > 0);
        assert!(!r.mean_iteration.is_zero());
    }
}

#[test]
fn single_machine_cluster_works() {
    // Degenerate deployment: worker and its only server share one
    // machine; all traffic is loopback.
    let c = ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        1,
        Bandwidth::from_gbps(1.0),
    )
    .with_iters(1, 2);
    let r = ClusterSim::new(c).run();
    // Loopback never binds: throughput equals the compute plateau.
    let plateau = ModelSpec::resnet50().reference_throughput();
    assert!(
        (r.throughput - plateau).abs() / plateau < 0.05,
        "got {}",
        r.throughput
    );
}

#[test]
fn starved_network_still_completes() {
    // 50 Mbps: brutally communication-bound but must terminate.
    let r = ClusterSim::new(cfg(SyncStrategy::p3(), 0.05)).run();
    assert!(r.throughput > 0.0);
    assert!(
        r.throughput < 20.0,
        "50 Mbps cannot be compute-bound: {}",
        r.throughput
    );
}

#[test]
fn tf_style_is_no_faster_than_eager_baseline() {
    // Deferring pulls to the next iteration start removes overlap.
    let tf = ClusterSim::new(cfg(SyncStrategy::tf_style(), 3.0)).run();
    let eager = ClusterSim::new(cfg(SyncStrategy::baseline(), 3.0)).run();
    assert!(
        tf.throughput <= eager.throughput * 1.02,
        "tf {} vs eager {}",
        tf.throughput,
        eager.throughput
    );
}

#[test]
fn immediate_broadcast_helps_p3() {
    // Ablation §5: removing the notify+pull round trip is part of P3's
    // win.
    let with = ClusterSim::new(cfg(SyncStrategy::p3(), 3.0)).run();
    let without = ClusterSim::new(cfg(SyncStrategy::p3_notify_pull(), 3.0)).run();
    assert!(
        with.throughput >= without.throughput * 0.98,
        "broadcast {} vs notify-pull {}",
        with.throughput,
        without.throughput
    );
}

#[test]
fn sockeye_jitter_produces_unequal_iterations() {
    let c = ClusterConfig::new(
        ModelSpec::sockeye(),
        SyncStrategy::p3(),
        2,
        Bandwidth::from_gbps(20.0),
    )
    .with_iters(1, 6);
    let r = ClusterSim::new(c).run();
    // With ±12% compute jitter and a sync barrier, the mean iteration
    // must exceed the jitter-free compute time (max of workers).
    let jitter_free =
        ModelSpec::sockeye().default_batch() as f64 / ModelSpec::sockeye().reference_throughput();
    assert!(
        r.mean_iteration.as_secs_f64() > jitter_free * 1.005,
        "barrier should amplify stragglers: {} vs {}",
        r.mean_iteration.as_secs_f64(),
        jitter_free
    );
}

#[test]
fn traces_cover_the_whole_run() {
    let c = cfg(SyncStrategy::p3(), 4.0).with_trace(SimDuration::from_millis(10));
    let r = ClusterSim::new(c).run();
    let t = r.trace.expect("tracing enabled");
    assert!(!t.tx_gbps.is_empty());
    assert!(!t.rx_gbps.is_empty());
    // Something was actually transmitted and received.
    assert!(t.tx_gbps.iter().sum::<f64>() > 0.0);
    assert!(t.rx_gbps.iter().sum::<f64>() > 0.0);
    // And never above the nominal NIC rate.
    assert!(t.tx_gbps.iter().all(|&g| g <= 4.0 + 1e-9));
}

#[test]
fn seeds_change_details_not_regime() {
    let a = ClusterSim::new(cfg(SyncStrategy::p3(), 4.0).with_seed(1)).run();
    let b = ClusterSim::new(cfg(SyncStrategy::p3(), 4.0).with_seed(2)).run();
    // KVStore's random placement and stagger differ, but throughput
    // stays in the same regime.
    assert!((a.throughput / b.throughput - 1.0).abs() < 0.15);
}

#[test]
fn inception_runs_under_all_fig7_strategies() {
    for strategy in SyncStrategy::fig7_series() {
        let c = ClusterConfig::new(
            ModelSpec::inception_v3(),
            strategy,
            4,
            Bandwidth::from_gbps(4.0),
        )
        .with_iters(1, 2);
        assert!(ClusterSim::new(c).run().throughput > 0.0);
    }
}

#[test]
fn tail_quantiles_are_ordered() {
    let r = ClusterSim::new(cfg(SyncStrategy::p3(), 4.0)).run();
    assert!(!r.p50_iteration.is_zero());
    assert!(r.p50_iteration <= r.p99_iteration);
}

#[test]
fn profiling_is_bit_identical_to_an_unprofiled_run() {
    // The tentpole invariant of the profiler: turning it on must not
    // perturb the simulation. The rolling event hash commits to every
    // (time, event) pair processed, so equal hashes mean the two runs
    // dispatched the exact same event stream.
    let plain = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0)).run();
    let profiled = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0))
        .with_profiling()
        .run();
    assert_eq!(plain.event_hash, profiled.event_hash);
    assert_eq!(plain.events, profiled.events);
    assert_eq!(plain.throughput.to_bits(), profiled.throughput.to_bits());
    assert_eq!(plain.peak_in_flight_flows, profiled.peak_in_flight_flows);
    assert!(plain.profile.is_none());
    assert!(profiled.profile.is_some());
}

#[test]
fn profile_reports_dispatch_timers_and_work_counters() {
    let r = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0))
        .with_profiling()
        .run();
    let p = r.profile.expect("profiling was enabled");
    assert_eq!(p.events, r.events);
    assert!(p.wall_seconds > 0.0);
    let timer_keys: Vec<&str> = p.timers.iter().map(|t| t.key.as_str()).collect();
    assert!(timer_keys.contains(&"dispatch/NetWake"));
    assert!(timer_keys.contains(&"dispatch/Compute"));
    assert!(timer_keys.contains(&"net/poll"));
    assert!(timer_keys.contains(&"net/start_flow"));
    assert!(timer_keys.contains(&"backend/delivered"));
    // Every dispatched event lands in exactly one dispatch/* timer.
    let dispatched: u64 = p
        .timers
        .iter()
        .filter(|t| t.key.starts_with("dispatch/"))
        .map(|t| t.calls)
        .sum();
    assert_eq!(dispatched, r.events);
    let counter = |key: &str| {
        p.counters
            .iter()
            .find(|c| c.key == key)
            .unwrap_or_else(|| panic!("missing counter {key}"))
            .value
    };
    assert!(counter("net/reallocations") > 0);
    assert!(counter("net/waterfill_rounds") > 0);
    assert_eq!(counter("net/peak_in_flight"), r.peak_in_flight_flows);
    assert!(counter("heap/scheduled_total") >= r.events);
    assert!(counter("heap/high_water") > 0);
}

#[test]
fn run_until_past_the_end_stops_there_and_perturbs_nothing() {
    // The CLI's snapshot loop asks for a boundary past the run's end, then
    // finishes the run: that last pause must be invisible.
    let plain = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0)).run();
    let mut sim = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0));
    assert_eq!(sim.run_until(100).unwrap(), 3, "warmup 1 + measure 2");
    assert_eq!(sim.run_until(100).unwrap(), 3, "a finished run stays put");
    let (paused, _) = sim.try_run_traced().unwrap();
    assert_eq!(plain, paused);
    assert_eq!(plain.event_hash, paused.event_hash);
}

#[test]
fn overflowing_iteration_counts_are_an_invalid_config() {
    // warmup + measure wraps, so no worker could ever open its window.
    let over = cfg(SyncStrategy::p3(), 8.0).with_iters(u64::MAX, 1);
    let err = ClusterSim::new(over).try_run().unwrap_err();
    assert!(
        matches!(err, crate::RunError::InvalidConfig(ref why) if why.contains("overflows")),
        "{err}"
    );
}

#[test]
fn a_slowdown_that_runs_a_block_past_the_clock_is_an_invalid_config() {
    // Finite and at least 1, but the slowest block, at the largest jitter,
    // would last past the end of simulated time: `mul_f64` panics there.
    for slowdown in [1e300, 1e20] {
        let faults = FaultPlan {
            stragglers: vec![StragglerEpisode {
                worker: 0,
                start: SimTime::ZERO,
                duration: SimDuration::from_secs(1),
                slowdown,
            }],
            ..FaultPlan::none()
        };
        let slow = cfg(SyncStrategy::p3(), 8.0).with_faults(faults);
        let err = ClusterSim::new(slow).try_run().unwrap_err();
        let refused = matches!(err, crate::RunError::InvalidConfig(ref why) if why.contains("past the clock"));
        assert!(refused, "slowdown {slowdown}: {err}");
    }
}

#[test]
fn a_wake_flush_with_nothing_deferred_schedules_nothing() {
    // A restored engine flushes once without knowing whether the snapshot
    // left a wake query deferred; that is exact only if a flush with
    // nothing deferred is a no-op.
    for backend in [
        BackendKind::Ps,
        BackendKind::Ring,
        BackendKind::HalvingDoubling,
    ] {
        let mut sim = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0).with_backend(backend));
        for boundary in 1..3 {
            sim.run_until(boundary).unwrap();
            assert!(
                !sim.wake_pending,
                "{backend:?}: a pause at an instant's end left a query"
            );
            let before = (sim.queue.scheduled_total(), sim.next_wake, sim.net.stats());
            sim.flush_net_wake();
            let after = (sim.queue.scheduled_total(), sim.next_wake, sim.net.stats());
            assert_eq!(before, after, "{backend:?}: the flush scheduled a wake");
        }
    }
}

#[test]
fn peak_in_flight_is_deterministic_and_nonzero() {
    let a = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0)).run();
    let b = ClusterSim::new(cfg(SyncStrategy::p3(), 8.0)).run();
    assert!(a.peak_in_flight_flows > 0);
    assert_eq!(a.peak_in_flight_flows, b.peak_in_flight_flows);
}

mod stall_tests {
    use super::super::ClusterSim;
    use crate::config::ClusterConfig;
    use crate::faults::{FaultPlan, StragglerEpisode};
    use p3_core::SyncStrategy;
    use p3_des::{SimDuration, SimTime};
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;

    #[test]
    fn p3_stalls_less_than_baseline_when_constrained() {
        let run = |s: SyncStrategy| {
            ClusterSim::new(
                ClusterConfig::new(ModelSpec::resnet50(), s, 4, Bandwidth::from_gbps(3.0))
                    .with_iters(1, 3),
            )
            .run()
        };
        let base = run(SyncStrategy::baseline());
        let p3 = run(SyncStrategy::p3());
        assert!(
            p3.mean_stall_fraction < base.mean_stall_fraction,
            "P3 stall {:.3} vs baseline {:.3}",
            p3.mean_stall_fraction,
            base.mean_stall_fraction
        );
    }

    #[test]
    fn compute_bound_runs_barely_stall() {
        let r = ClusterSim::new(
            ClusterConfig::new(
                ModelSpec::resnet50(),
                SyncStrategy::p3(),
                4,
                Bandwidth::from_gbps(50.0),
            )
            .with_iters(1, 3),
        )
        .run();
        assert!(
            r.mean_stall_fraction < 0.05,
            "stall {:.3}",
            r.mean_stall_fraction
        );
    }

    #[test]
    fn per_worker_stall_nonzero_under_straggler() {
        let plan = FaultPlan {
            stragglers: vec![StragglerEpisode {
                worker: 1,
                start: SimTime::ZERO,
                duration: SimDuration::from_secs(1_000),
                slowdown: 3.0,
            }],
            ..FaultPlan::none()
        };
        let r = ClusterSim::new(
            ClusterConfig::new(
                ModelSpec::resnet50(),
                SyncStrategy::p3(),
                4,
                Bandwidth::from_gbps(8.0),
            )
            .with_iters(1, 3)
            .with_seed(7)
            .with_faults(plan),
        )
        .run();
        assert_eq!(r.stalled_per_worker.len(), 4);
        // The healthy workers wait at the synchronization barrier for the
        // 3×-slow straggler's gradients.
        let healthy_stall = r
            .stalled_per_worker
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != 1)
            .map(|(_, &d)| d)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert!(!healthy_stall.is_zero(), "nobody waited for the straggler");
    }

    #[test]
    fn per_worker_stall_near_zero_when_compute_bound() {
        let r = ClusterSim::new(
            ClusterConfig::new(
                ModelSpec::resnet50(),
                SyncStrategy::p3(),
                4,
                Bandwidth::from_gbps(50.0),
            )
            .with_iters(1, 3),
        )
        .run();
        assert_eq!(r.stalled_per_worker.len(), 4);
        let total = r.finished_at.as_secs_f64();
        for (i, d) in r.stalled_per_worker.iter().enumerate() {
            let frac = d.as_secs_f64() / total;
            assert!(frac < 0.05, "worker {i} stalled {frac:.3} of the run");
        }
    }
}

mod message_accounting_tests {
    use super::super::ClusterSim;
    use crate::config::{ClusterConfig, MessageStats};
    use p3_core::SyncStrategy;
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;

    /// Runs `iters` total iterations and returns (stats, keys, machines).
    fn run_counted(strategy: SyncStrategy, iters: u64) -> (MessageStats, u64, u64) {
        let model = ModelSpec::resnet50();
        let machines = 3usize;
        let keys = strategy.plan(&model, machines, 0x9e3779b9).num_keys() as u64;
        let cfg = ClusterConfig::new(model, strategy, machines, Bandwidth::from_gbps(50.0))
            .with_iters(0, iters);
        let r = ClusterSim::new(cfg).run();
        (r.messages, keys, machines as u64)
    }

    #[test]
    fn p3_message_budget_is_exact() {
        // ImmediateBroadcast: per round, every key is pushed by every
        // worker and broadcast back to every worker; nothing else.
        let (m, keys, w) = run_counted(SyncStrategy::p3(), 3);
        let rounds = 3;
        // The run halts the instant the last worker finishes its backward
        // pass; the final round's tail messages may still be in flight.
        let full = keys * w * rounds;
        assert!(
            m.pushes <= full && m.pushes >= full - keys * w,
            "pushes {}",
            m.pushes
        );
        assert_eq!(m.notifies, 0);
        assert_eq!(m.pull_requests, 0);
        // Responses: the final round's broadcasts may still be in flight
        // when the run stops, so allow the tail to be missing.
        let full = keys * w * rounds;
        assert!(
            m.responses <= full && m.responses >= full - keys * w,
            "responses {} vs expected ~{}",
            m.responses,
            full
        );
    }

    #[test]
    fn baseline_message_budget_is_exact() {
        // NotifyThenPull: per round and key, W pushes, W notifies, W pull
        // requests, W responses.
        let (m, keys, w) = run_counted(SyncStrategy::baseline(), 3);
        let rounds = 3;
        let full = keys * w * rounds;
        assert!(
            m.pushes <= full && m.pushes >= full - keys * w,
            "pushes {}",
            m.pushes
        );
        assert!(m.notifies <= full && m.notifies >= full - keys * w);
        assert!(m.pull_requests <= m.notifies);
        assert!(m.responses <= m.pull_requests);
        // All but the in-flight tail must complete for training to advance:
        // round r+1 pushes require round r responses.
        assert!(m.responses >= keys * w * (rounds - 1));
    }

    #[test]
    fn tf_style_pulls_everything_every_iteration() {
        let (m, keys, w) = run_counted(SyncStrategy::tf_style(), 2);
        // No notifies in the TF model; pulls are issued per key per
        // iteration boundary.
        assert_eq!(m.notifies, 0);
        assert!(m.pull_requests >= keys * w, "pulls {}", m.pull_requests);
    }
}
