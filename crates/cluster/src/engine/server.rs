//! Parameter-server engine: shard processing queues, gradient aggregation,
//! round completion and response fan-out, deferred pulls, notify
//! propagation, and rack-local partial aggregation. Only the PS backend
//! drives this layer; collective backends leave every shard idle.

use super::types::{Ev, MsgKind, ProcItem, Role};
use super::ClusterSim;
use p3_core::{PullTiming, ResponseMode, ServerProcessing};
use p3_des::SimDuration;
use p3_trace::{FaultKind, TraceEvent};

/// Fixed server cost to process one received gradient message.
const PROC_FIXED: SimDuration = SimDuration::from_micros(10);
/// Server aggregation cost per parameter per received gradient message.
const AGG_NS_PER_PARAM: f64 = 2.0;
/// Server optimizer cost per parameter, paid when a round completes.
const UPD_NS_PER_PARAM: f64 = 3.0;

impl ClusterSim {
    // ------------------------------------------------------------------
    // Worker-side PS protocol helpers.

    pub(crate) fn send_pull_request(&mut self, worker: usize, key: usize, round: u64) {
        let server = self.plan.slice(p3_pserver::Key(key as u64)).server.0;
        self.send_ps(MsgKind::PullReq { key, round }, worker, server);
    }

    pub(crate) fn on_notify(&mut self, worker: usize, key: usize, version: u64) {
        {
            let w = &mut self.workers[worker];
            if version > w.notified_version[key] {
                w.notified_version[key] = version;
            }
        }
        // MXNet pulls a layer only once every one of its parts has
        // notified (§4.2 explains why P3 removes this).
        let array = self.plan.slice(p3_pserver::Key(key as u64)).array;
        let keys = self.plan.slices_of_array(array).to_vec();
        let all_notified = keys
            .iter()
            .all(|&k| self.workers[worker].notified_version[k] >= version);
        if all_notified && self.cfg.strategy.pull_timing == PullTiming::Eager {
            for &k in &keys {
                if self.workers[worker].received_version[k] < version
                    && self.workers[worker].notified_version[k] >= version
                {
                    self.send_pull_request(worker, k, version);
                }
            }
            self.kick_egress(worker, Role::Worker);
        }
    }

    // ------------------------------------------------------------------
    // Rack-local aggregation.

    /// The rack aggregator a worker's push detours through under
    /// rack-local placement: set only when the key's home server is in a
    /// different rack, so the rack's combined gradient crosses the core
    /// once instead of once per member. Pushes within the home rack (and
    /// everything outside rack-local placement) go direct.
    pub(crate) fn rack_push_target(&self, worker: usize, server: usize) -> Option<usize> {
        let topo = self.cfg.topology.as_ref()?;
        if !self.cfg.rack_local() || topo.machines() != self.cfg.machines {
            return None;
        }
        let rack = topo.rack_of(worker);
        (topo.rack_of(server) != rack).then(|| topo.aggregator_of(rack))
    }

    /// One rack member's partial gradient arrived at its rack aggregator.
    /// Combining is treated as free (it overlaps the remaining members'
    /// transfers); once the whole rack has contributed, the combined
    /// gradient is forwarded to the key's home server through the
    /// aggregator machine's server-role egress.
    #[expect(
        clippy::expect_used,
        reason = "rack pushes are sent only on a configured topology"
    )]
    pub(crate) fn on_rack_push(&mut self, agg: usize, key: usize, round: u64, from: usize) {
        let topo = self
            .cfg
            .topology
            .as_ref()
            .expect("rack push without a topology");
        let rack = topo.rack_of(agg);
        let full: u128 = topo.rack_members(rack).fold(0, |m, w| m | (1u128 << w));
        let members = {
            let entry = self.rack_agg.entry((agg, key, round)).or_insert(0);
            *entry |= 1u128 << from;
            *entry
        };
        if members != full {
            return;
        }
        self.rack_agg.remove(&(agg, key, round));
        let server = self.plan.slice(p3_pserver::Key(key as u64)).server.0;
        let kind = MsgKind::CombinedPush {
            key,
            round,
            members,
        };
        self.send_ps(kind, agg, server);
        self.kick_egress(agg, Role::Server);
    }

    // ------------------------------------------------------------------
    // Server processing.

    /// Queues a received gradient message (direct or combined) on a
    /// server's processing unit at the strategy's processing priority.
    pub(crate) fn enqueue_proc(
        &mut self,
        server: usize,
        key: usize,
        round: u64,
        from: usize,
        members: u128,
    ) {
        let prio = match self.cfg.strategy.server_processing {
            ServerProcessing::Priority => self.prio[key],
            ServerProcessing::Fifo => 0,
        };
        self.servers[server].proc_queue.push(
            prio,
            ProcItem {
                key,
                round,
                worker: from,
                members,
            },
        );
        self.kick_proc(server);
    }

    pub(crate) fn kick_proc(&mut self, server: usize) {
        if self.servers[server].current.is_some() {
            return;
        }
        loop {
            let Some((_, item)) = self.servers[server].proc_queue.pop() else {
                return;
            };
            let version = self.servers[server].version[item.key];
            if item.round < version {
                // The round completed without this push (degraded
                // completion, or a rejoined worker replaying old work).
                self.faults.stale_pushes_dropped += 1;
                self.trace_fault(FaultKind::StalePush, server, None);
                continue;
            }
            assert_eq!(
                version, item.round,
                "push for round {} processed while key {} is at version {}",
                item.round, item.key, version
            );
            if self.servers[server].received[item.key] & item.members != 0 {
                self.faults.duplicate_pushes_dropped += 1;
                self.trace_fault(FaultKind::DuplicatePush, server, None);
                continue;
            }
            let params = self.plan.slice(p3_pserver::Key(item.key as u64)).params;
            let completing = (self.servers[server].received[item.key] | item.members).count_ones()
                >= self.expected_pushes;
            let mut nanos = PROC_FIXED.as_nanos() as f64 + AGG_NS_PER_PARAM * params as f64;
            if completing {
                nanos += UPD_NS_PER_PARAM * params as f64;
            }
            self.servers[server].current = Some(item);
            self.trace(TraceEvent::AggStart {
                server,
                key: item.key,
                round: item.round,
                worker: item.worker,
            });
            self.queue.schedule_in(
                SimDuration::from_nanos(nanos as u64),
                Ev::ProcDone { server },
            );
            return;
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "ProcDone is scheduled only when an item starts processing"
    )]
    pub(crate) fn on_proc_done(&mut self, server: usize) {
        let item = self.servers[server]
            .current
            .take()
            .expect("ProcDone without an item in flight");
        self.trace(TraceEvent::AggEnd {
            server,
            key: item.key,
            round: item.round,
            worker: item.worker,
        });
        // Re-validate: the round may have completed (degraded) while this
        // push was in the processing unit.
        if item.round < self.servers[server].version[item.key] {
            self.faults.stale_pushes_dropped += 1;
            self.trace_fault(FaultKind::StalePush, server, None);
        } else if self.servers[server].received[item.key] & item.members != 0 {
            self.faults.duplicate_pushes_dropped += 1;
            self.trace_fault(FaultKind::DuplicatePush, server, None);
        } else {
            self.servers[server].received[item.key] |= item.members;
            if self.servers[server].received[item.key].count_ones() >= self.expected_pushes {
                self.complete_round(server, item.key);
                self.kick_egress(server, Role::Server);
            }
        }
        self.kick_proc(server);
    }

    /// Finishes one key's aggregation round: bumps the version and sends
    /// the update out (broadcast or notify, per strategy), skipping evicted
    /// workers. Called from normal processing and from degraded completion
    /// after a membership change.
    pub(crate) fn complete_round(&mut self, server: usize, key: usize) {
        let mask = self.servers[server].received[key];
        let degraded = (mask.count_ones() as usize) < self.cfg.machines;
        if degraded {
            self.faults.degraded_rounds += 1;
            self.trace_fault(FaultKind::DegradedRound, server, None);
        }
        self.servers[server].received[key] = 0;
        self.servers[server].version[key] += 1;
        let version = self.servers[server].version[key];
        self.trace(TraceEvent::RoundComplete {
            server,
            key,
            version,
            degraded,
        });
        let response = MsgKind::Response { key, version };
        match self.cfg.strategy.response {
            ResponseMode::ImmediateBroadcast => {
                for w in 0..self.cfg.machines {
                    if !self.dead_members[w] {
                        self.send_ps(response, server, w);
                    }
                }
            }
            ResponseMode::NotifyThenPull => {
                if self.cfg.strategy.pull_timing == PullTiming::Eager {
                    for w in 0..self.cfg.machines {
                        if !self.dead_members[w] {
                            self.send_ps(MsgKind::Notify { key, version }, server, w);
                        }
                    }
                }
                // Deferred (TF-style) pulls waiting on this version:
                let waiting = std::mem::take(&mut self.servers[server].pending_pulls[key]);
                for w in waiting {
                    if !self.dead_members[w] {
                        self.send_ps(response, server, w);
                    }
                }
            }
        }
    }

    pub(crate) fn send_response(&mut self, server: usize, key: usize, worker: usize) {
        let version = self.servers[server].version[key];
        self.send_ps(MsgKind::Response { key, version }, server, worker);
    }
}
