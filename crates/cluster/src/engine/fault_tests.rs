//! Fault-injection, tracing, and topology tests for the engine, plus the
//! replayability property suite.

use super::ClusterSim;
use crate::config::{ClusterConfig, FaultStats, RunError};
use crate::faults::{FaultPlan, LinkDegradation, StragglerEpisode, WorkerCrash};
use p3_core::SyncStrategy;
use p3_des::{SimDuration, SimTime};
use p3_models::ModelSpec;
use p3_net::Bandwidth;
use p3_pserver::RetryPolicy;

fn base_cfg() -> ClusterConfig {
    ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::p3(),
        4,
        Bandwidth::from_gbps(8.0),
    )
    .with_iters(1, 3)
    .with_seed(7)
}

#[test]
fn empty_plan_is_bit_identical_to_no_plan() {
    // The pay-for-what-you-use guarantee: installing an empty plan must
    // not shift a single event or random draw.
    let clean = ClusterSim::new(base_cfg()).run();
    let with_plan = ClusterSim::new(base_cfg().with_faults(FaultPlan::none())).run();
    assert_eq!(clean, with_plan);
    assert_eq!(clean.events, with_plan.events);
    assert_eq!(clean.faults, FaultStats::default());
}

#[test]
fn straggler_stretches_the_tail() {
    let plan = FaultPlan {
        stragglers: vec![StragglerEpisode {
            worker: 1,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1_000),
            slowdown: 3.0,
        }],
        ..FaultPlan::none()
    };
    let clean = ClusterSim::new(base_cfg()).run();
    let slow = ClusterSim::new(base_cfg().with_faults(plan)).run();
    assert!(
        slow.throughput < clean.throughput,
        "straggler did not hurt: {} vs {}",
        slow.throughput,
        clean.throughput
    );
    assert!(
        slow.p99_iteration > clean.p99_iteration,
        "straggler did not stretch p99: {:?} vs {:?}",
        slow.p99_iteration,
        clean.p99_iteration
    );
}

#[test]
fn degraded_link_slows_the_run() {
    let plan = FaultPlan {
        link_degradations: vec![LinkDegradation {
            machine: 0,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1_000),
            capacity_factor: 0.1,
        }],
        ..FaultPlan::none()
    };
    let clean = ClusterSim::new(base_cfg()).run();
    let degraded = ClusterSim::new(base_cfg().with_faults(plan)).run();
    assert!(
        degraded.throughput < clean.throughput * 0.95,
        "10% link capacity barely hurt: {} vs {}",
        degraded.throughput,
        clean.throughput
    );
}

#[test]
fn lossy_network_retransmits_and_completes() {
    let plan = FaultPlan {
        loss_probability: 0.05,
        ..FaultPlan::none()
    };
    let cfg = base_cfg()
        .with_faults(plan)
        .with_retry(RetryPolicy::new(SimDuration::from_millis(20)));
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0);
    assert!(r.faults.messages_lost > 0, "5% loss lost nothing");
    assert!(r.faults.retransmits > 0, "losses were never retransmitted");
    assert_eq!(r.faults.gave_up, 0, "p=0.05^17 give-up should not occur");
}

#[test]
fn permanent_crash_degrades_and_survivors_finish() {
    let mut cfg = base_cfg().with_faults(FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 2,
            at: SimTime::from_millis(400),
            rejoin_after: None,
        }],
        ..FaultPlan::none()
    });
    cfg.liveness_timeout = SimDuration::from_millis(100);
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0, "survivors failed to finish");
    assert!(
        r.faults.degraded_rounds > 0,
        "no round completed without the dead worker"
    );
}

#[test]
fn crash_with_rejoin_completes_all_workers() {
    let mut cfg = base_cfg().with_faults(FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(400),
            rejoin_after: Some(SimDuration::from_millis(300)),
        }],
        ..FaultPlan::none()
    });
    // Generous liveness: membership never shrinks; peers simply wait.
    cfg.liveness_timeout = SimDuration::from_secs(30);
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0);
    assert_eq!(
        r.faults.degraded_rounds, 0,
        "membership should not have shrunk"
    );
    // The rejoin re-synced state via pull requests — a message class P3
    // never uses in healthy runs, so any count proves the restart path
    // executed.
    assert!(
        r.messages.pull_requests > 0,
        "rejoin resync must pull state"
    );
}

#[test]
fn crash_then_rejoin_after_eviction_catches_up() {
    let mut cfg = base_cfg().with_faults(FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 3,
            at: SimTime::from_millis(400),
            rejoin_after: Some(SimDuration::from_millis(500)),
        }],
        ..FaultPlan::none()
    });
    // Tight liveness: the worker is evicted, rounds degrade, then it
    // rejoins and must re-sync and still reach its iteration target.
    cfg.liveness_timeout = SimDuration::from_millis(50);
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0);
    assert!(r.faults.degraded_rounds > 0);
}

#[test]
fn collective_crash_aborts_in_flight_collective_and_completes() {
    use crate::config::BackendKind;
    use p3_trace::{FaultKind, TraceEvent};

    let mut cfg = base_cfg()
        .with_backend(BackendKind::Ring)
        .with_faults(FaultPlan {
            crashes: vec![WorkerCrash {
                worker: 2,
                at: SimTime::from_millis(900),
                rejoin_after: Some(SimDuration::from_millis(200)),
            }],
            ..FaultPlan::none()
        })
        .with_slice_trace();
    cfg.liveness_timeout = SimDuration::from_secs(30);
    let (r, log) = ClusterSim::new(cfg).try_run_traced().unwrap();
    let log = log.expect("tracing enabled");
    assert!(r.throughput > 0.0, "survivors failed to finish");
    assert!(
        r.faults.collectives_aborted >= 1,
        "a crash at 900ms should land mid-collective"
    );
    // The counter is a faithful journal of the abort machinery: every
    // abort left exactly one CollectiveAbort fault event in the trace.
    let aborts = log
        .events()
        .iter()
        .filter(|te| {
            matches!(
                te.event,
                TraceEvent::Fault {
                    kind: FaultKind::CollectiveAbort,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(r.faults.collectives_aborted, aborts);
    // The abort cancelled the dead worker's in-network chunks.
    assert!(r.faults.flows_cancelled > 0, "abort cancelled no flows");
}

#[test]
fn halving_doubling_permanent_crash_reforms_over_survivors() {
    use crate::config::BackendKind;

    let mut cfg = base_cfg()
        .with_backend(BackendKind::HalvingDoubling)
        .with_faults(FaultPlan {
            crashes: vec![WorkerCrash {
                worker: 3,
                at: SimTime::from_millis(900),
                rejoin_after: None,
            }],
            ..FaultPlan::none()
        });
    cfg.liveness_timeout = SimDuration::from_millis(100);
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0, "survivors failed to finish");
    assert!(
        r.faults.collectives_aborted >= 1,
        "the in-flight collective should have aborted"
    );
}

#[test]
fn invalid_plan_is_a_structured_error() {
    let cfg = base_cfg().with_faults(FaultPlan {
        stragglers: vec![StragglerEpisode {
            worker: 99,
            start: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            slowdown: 2.0,
        }],
        ..FaultPlan::none()
    });
    match ClusterSim::new(cfg).try_run() {
        Err(RunError::InvalidConfig(why)) => assert!(why.contains("out of range")),
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn faults_work_under_baseline_strategy_too() {
    // The per-destination egress and notify/pull protocol take the same
    // fault paths.
    let mut cfg = ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::baseline(),
        4,
        Bandwidth::from_gbps(8.0),
    )
    .with_iters(1, 3)
    .with_seed(7)
    .with_faults(FaultPlan {
        loss_probability: 0.02,
        crashes: vec![WorkerCrash {
            worker: 0,
            at: SimTime::from_millis(400),
            rejoin_after: Some(SimDuration::from_millis(200)),
        }],
        ..FaultPlan::none()
    });
    cfg.liveness_timeout = SimDuration::from_secs(30);
    cfg.retry = RetryPolicy::new(SimDuration::from_millis(20));
    let r = ClusterSim::new(cfg).run();
    assert!(r.throughput > 0.0);
    assert!(r.faults.messages_lost > 0);
}

#[test]
fn baseline_rejoin_pulls_layers_whose_notify_died_with_it() {
    // Worker 1 crashes while a round is in flight. Part of a layer
    // completed before the crash, so that part's notify reached the dead
    // process and vanished; the rejoin's re-sync pull brings that part
    // back. The rest of the layer notifies after the re-push, and the
    // worker must then pull it rather than wait for the notify it lost.
    let cfg = ClusterConfig::new(
        ModelSpec::resnet50(),
        SyncStrategy::baseline(),
        4,
        Bandwidth::from_gbps(10.0),
    )
    .with_iters(2, 2)
    .with_seed(0x9e37_79b9)
    .with_faults(FaultPlan {
        crashes: vec![WorkerCrash {
            worker: 1,
            at: SimTime::from_millis(500),
            rejoin_after: Some(SimDuration::from_millis(200)),
        }],
        ..FaultPlan::none()
    });
    let r = ClusterSim::new(cfg)
        .try_run()
        .expect("every worker finishes");
    assert!(r.throughput > 0.0);
    assert_eq!(r.faults.degraded_rounds, 0, "the worker rejoined in time");
}

mod trace_tests {
    use super::super::ClusterSim;
    use crate::config::ClusterConfig;
    use crate::faults::FaultPlan;
    use crate::timeline::ascii_timeline;
    use p3_core::SyncStrategy;
    use p3_des::{SimDuration, SimTime};
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;
    use p3_pserver::RetryPolicy;
    use p3_trace::{chrome_trace_json, validate_chrome_trace};

    /// Two workers training VGG-19 (the paper's flagship model) for two
    /// iterations — small enough for tests, long enough that every round-1
    /// push → aggregate → pull chain must complete (iteration 2's forward
    /// passes consume round-1 parameters).
    fn vgg_cfg() -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::vgg19(),
            SyncStrategy::p3(),
            2,
            Bandwidth::from_gbps(10.0),
        )
        .with_iters(0, 2)
        .with_seed(7)
    }

    #[test]
    fn tracing_is_bit_identical_to_untraced() {
        // The zero-overhead guarantee: recording draws no randomness and
        // schedules nothing, so enabling the trace must not shift a single
        // event.
        let plain = ClusterSim::new(vgg_cfg()).run();
        let (traced, log) = ClusterSim::new(vgg_cfg().with_slice_trace())
            .try_run_traced()
            .unwrap();
        assert_eq!(plain, traced);
        assert!(!log.expect("tracing enabled").is_empty());
    }

    #[test]
    fn untraced_runs_return_no_log() {
        let (_, log) = ClusterSim::new(vgg_cfg()).try_run_traced().unwrap();
        assert!(log.is_none());
    }

    #[test]
    fn chrome_export_contains_full_slice_chains() {
        let cfg = vgg_cfg().with_slice_trace();
        let machines = cfg.machines;
        let keys = cfg.strategy.plan(&cfg.model, machines, cfg.seed).num_keys();
        let (_, log) = ClusterSim::new(cfg).try_run_traced().unwrap();
        let doc = chrome_trace_json(&log.expect("tracing enabled"), machines);
        let spans = validate_chrome_trace(&doc).expect("schema-valid Chrome trace");
        // Every slice shows at least one complete push → aggregate → pull
        // chain from the first iteration.
        for k in 0..keys {
            for name in [
                format!("push k{k}"),
                format!("agg k{k}"),
                format!("pull k{k}"),
            ] {
                assert!(
                    spans.iter().any(|s| s.name == name),
                    "no complete '{name}' span among {} spans",
                    spans.len()
                );
            }
        }
    }

    #[test]
    fn timeline_renders_nonempty_gantt() {
        let (_, log) = ClusterSim::new(vgg_cfg().with_slice_trace())
            .try_run_traced()
            .unwrap();
        let art = ascii_timeline(&log.expect("tracing enabled"), 2, 1, 60);
        assert_ne!(art, "(empty trace)\n");
        assert!(art.contains("w0 compute"));
        assert!(art.contains('#'));
    }

    #[test]
    fn fault_stats_match_traced_fault_events() {
        use crate::faults::WorkerCrash;
        use p3_trace::{FaultKind, TraceEvent};

        let mut cfg = ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(8.0),
        )
        .with_iters(1, 3)
        .with_seed(7)
        .with_faults(FaultPlan {
            loss_probability: 0.05,
            crashes: vec![WorkerCrash {
                worker: 2,
                at: SimTime::from_millis(400),
                rejoin_after: Some(SimDuration::from_millis(200)),
            }],
            ..FaultPlan::none()
        })
        .with_retry(RetryPolicy::new(SimDuration::from_millis(20)))
        .with_slice_trace();
        cfg.liveness_timeout = SimDuration::from_secs(30);
        let (r, log) = ClusterSim::new(cfg).try_run_traced().unwrap();
        let log = log.expect("tracing enabled");
        let count = |kind: FaultKind| {
            log.events()
                .iter()
                .filter(|te| matches!(te.event, TraceEvent::Fault { kind: k, .. } if k == kind))
                .count() as u64
        };
        // Every aggregate counter equals its per-event count — the trace
        // is a faithful journal of the fault machinery.
        assert!(r.faults.messages_lost > 0, "5% loss lost nothing");
        assert_eq!(r.faults.messages_lost, count(FaultKind::Loss));
        assert_eq!(r.faults.retransmits, count(FaultKind::Retransmit));
        assert_eq!(r.faults.gave_up, count(FaultKind::GiveUp));
        assert_eq!(r.faults.stale_pushes_dropped, count(FaultKind::StalePush));
        assert_eq!(
            r.faults.duplicate_pushes_dropped,
            count(FaultKind::DuplicatePush)
        );
        assert_eq!(r.faults.degraded_rounds, count(FaultKind::DegradedRound));
        assert_eq!(r.faults.flows_cancelled, count(FaultKind::FlowCancelled));
        assert_eq!(count(FaultKind::Crash), 1);
        assert_eq!(count(FaultKind::Rejoin), 1);
    }
}

mod topology_tests {
    use super::super::ClusterSim;
    use crate::config::{ClusterConfig, RunError, RunResult};
    use p3_core::SyncStrategy;
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;
    use p3_topo::{Placement, Topology};

    fn base(strategy: SyncStrategy) -> ClusterConfig {
        ClusterConfig::new(
            ModelSpec::resnet50(),
            strategy,
            4,
            Bandwidth::from_gbps(8.0),
        )
        .with_iters(1, 2)
        .with_seed(7)
    }

    #[test]
    fn single_rack_topology_is_result_identical_to_flat() {
        // The degenerate case: one rack, oversub 1, which compiles to the
        // same endpoint-only graph the flat fabric allocates over, so even
        // a traced run must not shift a single event — only the link
        // report (absent on the flat fabric) may differ.
        let flat = ClusterSim::new(base(SyncStrategy::p3()).with_slice_trace()).run();
        let mut topo = ClusterSim::new(
            base(SyncStrategy::p3())
                .with_slice_trace()
                .with_topology(Topology::new(1, 4, 1.0)),
        )
        .run();
        assert!(
            !topo.links.is_empty(),
            "topology runs must report link usage"
        );
        topo.links.clear();
        assert_eq!(flat, topo);
    }

    #[test]
    fn degenerate_equivalence_holds_for_baseline_strategy_too() {
        let flat = ClusterSim::new(base(SyncStrategy::baseline())).run();
        let mut topo =
            ClusterSim::new(base(SyncStrategy::baseline()).with_topology(Topology::new(1, 4, 1.0)))
                .run();
        topo.links.clear();
        assert_eq!(flat, topo);
    }

    #[test]
    fn oversubscribed_core_slows_training() {
        let flat = ClusterSim::new(base(SyncStrategy::p3())).run();
        let topo =
            ClusterSim::new(base(SyncStrategy::p3()).with_topology(Topology::new(2, 2, 8.0))).run();
        assert!(
            topo.throughput < flat.throughput,
            "8:1 oversubscription did not hurt: {} vs {}",
            topo.throughput,
            flat.throughput
        );
    }

    #[test]
    fn topology_runs_are_deterministic() {
        let run = || {
            ClusterSim::new(base(SyncStrategy::p3()).with_topology(Topology::new(2, 2, 4.0))).run()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn machine_count_mismatch_is_invalid_config() {
        let cfg = base(SyncStrategy::p3()).with_topology(Topology::new(2, 4, 2.0));
        match ClusterSim::new(cfg).try_run() {
            Err(RunError::InvalidConfig(why)) => {
                assert!(why.contains("8 machines"), "unexpected message: {why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn link_report_covers_ports_and_uplinks() {
        let r =
            ClusterSim::new(base(SyncStrategy::p3()).with_topology(Topology::new(2, 2, 4.0))).run();
        // 4 tx + 4 rx ports, 2 uplinks, 2 downlinks.
        assert_eq!(r.links.len(), 12);
        assert_eq!(r.links.iter().filter(|l| l.transit).count(), 4);
        for l in &r.links {
            assert!(
                (0.0..=1.0).contains(&l.busy_fraction),
                "{} busy {}",
                l.name,
                l.busy_fraction
            );
        }
        // The oversubscribed core actually carried traffic.
        let core_bytes: f64 = r.links.iter().filter(|l| l.transit).map(|l| l.bytes).sum();
        assert!(core_bytes > 0.0, "no cross-rack traffic recorded");
    }

    #[test]
    fn packed_placement_concentrates_servers_in_rack_zero() {
        // With every shard packed into rack 0, rack-1 machines originate
        // pushes only (their server shards hold no keys and send no
        // responses), so their tx ports carry clearly less than rack-0's,
        // which add the full response fan-out on top of their pushes.
        let r = ClusterSim::new(
            base(SyncStrategy::p3())
                .with_topology(Topology::new(2, 2, 4.0).with_placement(Placement::Packed)),
        )
        .run();
        let tx = |m: usize| {
            let name = format!("m{m}.tx");
            r.links
                .iter()
                .find(|l| l.name == name)
                .expect("port reported")
                .bytes
        };
        assert!(
            tx(0) > tx(2) * 1.2 && tx(1) > tx(3) * 1.2,
            "PS-rack ports not busier: tx {:?}",
            [tx(0), tx(1), tx(2), tx(3)]
        );
    }

    #[test]
    fn rack_local_aggregation_reduces_core_traffic() {
        let run = |placement: Placement| {
            ClusterSim::new(
                ClusterConfig::new(
                    ModelSpec::resnet50(),
                    SyncStrategy::p3(),
                    8,
                    Bandwidth::from_gbps(8.0),
                )
                .with_iters(1, 2)
                .with_seed(7)
                .with_topology(Topology::new(2, 4, 4.0).with_placement(placement)),
            )
            .run()
        };
        let spread = run(Placement::Spread);
        let local = run(Placement::RackLocal);
        assert!(local.messages.rack_pushes > 0, "no rack pushes happened");
        assert!(
            local.messages.combined_pushes > 0,
            "no combined pushes happened"
        );
        assert_eq!(spread.messages.rack_pushes, 0);
        let core = |r: &RunResult| {
            r.links
                .iter()
                .filter(|l| l.transit)
                .map(|l| l.bytes)
                .sum::<f64>()
        };
        // 4 workers per remote rack collapse into 1 combined push per key:
        // the core carries strictly less push traffic.
        assert!(
            core(&local) < core(&spread),
            "rack-local {} vs spread {} core bytes",
            core(&local),
            core(&spread)
        );
        assert!(local.throughput > 0.0);
    }

    #[test]
    fn rack_local_with_loss_is_rejected() {
        use crate::faults::FaultPlan;
        let cfg = base(SyncStrategy::p3())
            .with_topology(Topology::new(2, 2, 2.0).with_placement(Placement::RackLocal))
            .with_faults(FaultPlan {
                loss_probability: 0.01,
                ..FaultPlan::none()
            });
        match ClusterSim::new(cfg).try_run() {
            Err(RunError::InvalidConfig(why)) => {
                assert!(why.contains("rack-local"), "unexpected message: {why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_nics_throttle_the_slow_machine() {
        // Machine 3 gets a 10× slower NIC; its port should be the busiest.
        let topo = Topology::new(2, 2, 1.0).with_nic(3, Bandwidth::from_gbps(0.8));
        let r = ClusterSim::new(base(SyncStrategy::p3()).with_topology(topo)).run();
        let busy = |name: &str| {
            r.links
                .iter()
                .find(|l| l.name == name)
                .expect("port reported")
                .busy_fraction
        };
        assert!(
            busy("m3.tx") > busy("m0.tx"),
            "slow NIC not saturated: m3 {} vs m0 {}",
            busy("m3.tx"),
            busy("m0.tx")
        );
    }
}

mod fault_properties {
    use super::super::ClusterSim;
    use crate::config::{ClusterConfig, RunResult};
    use crate::faults::{FaultPlan, StragglerEpisode, WorkerCrash};
    use p3_core::SyncStrategy;
    use p3_des::{SimDuration, SimTime};
    use p3_models::ModelSpec;
    use p3_net::Bandwidth;
    use p3_pserver::RetryPolicy;
    use proptest::prelude::*;

    fn run_with(seed: u64, loss_bp: u32, straggle: bool, crash: bool) -> RunResult {
        let mut plan = FaultPlan::none();
        plan.loss_probability = loss_bp as f64 / 10_000.0;
        if straggle {
            plan.stragglers.push(StragglerEpisode {
                worker: 1,
                start: SimTime::from_millis(100),
                duration: SimDuration::from_secs(2),
                slowdown: 2.5,
            });
        }
        if crash {
            plan.crashes.push(WorkerCrash {
                worker: 2,
                at: SimTime::from_millis(300),
                rejoin_after: Some(SimDuration::from_millis(200)),
            });
        }
        let mut cfg = ClusterConfig::new(
            ModelSpec::resnet50(),
            SyncStrategy::p3(),
            4,
            Bandwidth::from_gbps(10.0),
        )
        .with_iters(1, 2)
        .with_seed(seed)
        .with_faults(plan);
        cfg.liveness_timeout = SimDuration::from_secs(30);
        cfg.retry = RetryPolicy::new(SimDuration::from_millis(20));
        ClusterSim::new(cfg).run()
    }

    proptest! {
        /// Same seed + same fault plan ⇒ bit-identical results. The entire
        /// fault subsystem is replayable.
        #[test]
        fn same_seed_same_plan_is_deterministic(
            seed in 0u64..1_000,
            loss_sel in 0u32..3,
            straggle_sel in 0u32..2,
            crash_sel in 0u32..2,
        ) {
            let loss_bp = [0u32, 100, 500][loss_sel as usize];
            let (straggle, crash) = (straggle_sel == 1, crash_sel == 1);
            let a = run_with(seed, loss_bp, straggle, crash);
            let b = run_with(seed, loss_bp, straggle, crash);
            prop_assert_eq!(a, b);
        }
    }
}
