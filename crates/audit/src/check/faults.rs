//! Fault-transition checkers: loss/retransmit/give-up state machines,
//! flow cancellation, crash/rejoin teardown, and collective aborts.

use super::{is_push_class, Checker, Msg, MsgState, ROLE_WORKER};
use crate::report::Invariant;
use p3_trace::{FaultKind, MsgClass};

impl Checker {
    pub(super) fn on_fault(
        &mut self,
        i: usize,
        t: u64,
        kind: FaultKind,
        machine: usize,
        msg: Option<Msg>,
    ) {
        match kind {
            FaultKind::Loss => {
                self.msg_transition(i, t, msg, MsgState::Delivered, MsgState::Lost, "lost");
                if let Some(Msg { slot, .. }) = msg {
                    if let Some(Some(info)) = self.msgs.get(slot) {
                        if is_push_class(info.class) {
                            if let (Some(dst), key, round) = (info.dst, info.key, info.round) {
                                if let Some(slots) = self.delivered_pushes.get_mut(&(
                                    dst,
                                    key,
                                    round,
                                    info.endpoint.0,
                                )) {
                                    slots.retain(|&x| x != slot);
                                }
                            }
                        }
                    }
                }
            }
            FaultKind::Retransmit => {
                self.msg_transition(
                    i,
                    t,
                    msg,
                    MsgState::Lost,
                    MsgState::RetryPending,
                    "retransmitted",
                );
            }
            FaultKind::GiveUp => {
                self.msg_transition(i, t, msg, MsgState::Lost, MsgState::Dead, "abandoned");
            }
            FaultKind::FlowCancelled => {
                if let Some(Msg { id, slot }) = msg {
                    if let Some(Some(info)) = self.msgs.get_mut(slot) {
                        if info.state != MsgState::InFlight {
                            let state = info.state;
                            self.rep.violate(
                                Invariant::CausalOrder,
                                Some(i),
                                t,
                                format!("msg {id} cancelled while {state:?} (not in flight)"),
                            );
                        }
                        info.state = MsgState::Dead;
                        info.open_start = None;
                        let endpoint = info.endpoint;
                        let dst = info.dst;
                        if let Some(n) = self.inflight.get_mut(&endpoint) {
                            *n = n.saturating_sub(1);
                        }
                        if let Some(d) = dst {
                            self.lane_busy.remove(&(endpoint.0, endpoint.1, d));
                        }
                    }
                }
            }
            FaultKind::Crash => {
                self.crashed.insert(machine);
                // The dead process's queued (and retry-pending) messages
                // are destroyed with it; in-flight ones are cancelled by
                // the FlowCancelled events that follow.
                let endpoint = (machine, ROLE_WORKER);
                if let Some(q) = self.queued.get_mut(&endpoint) {
                    for slot in q.take() {
                        if let Some(Some(info)) = self.msgs.get_mut(slot) {
                            info.state = MsgState::Dead;
                        }
                    }
                }
                for info in self.msgs.iter_mut().flatten() {
                    if info.endpoint == endpoint
                        && matches!(info.state, MsgState::Lost | MsgState::RetryPending)
                    {
                        info.state = MsgState::Dead;
                    }
                }
                let st = self.worker(machine);
                st.open_compute = None;
                st.window_valid = false;
                st.window_start = None;
                st.compute_ns = 0;
                st.stall_ns = 0;
                // An open stall is closed by the StallEnd the crash emits.
            }
            FaultKind::Rejoin => {
                self.crashed.remove(&machine);
                // Collective rejoin resyncs in place (no pull/response
                // messages cross the wire): the restarted process adopts
                // every collectively-completed version. The consume check
                // models this with the allgather high-water marks — see
                // `on_slice_consumed` — which also covers versions the
                // group completes after the rejoin while the rank is still
                // excluded from a reformed survivor group.
                let st = self.worker(machine);
                st.window_valid = false;
                st.window_start = None;
            }
            FaultKind::CollectiveAbort => {
                // The in-flight collective was torn down: every surviving
                // chunk that was not individually cancelled (queued on a
                // live sender's egress, or lost/awaiting retransmit) is
                // silently purged by the engine, so the replay must retire
                // it too — and forget it in the per-endpoint queue model,
                // or the next enqueue's reported depth would mismatch.
                // Only one collective is in flight at a time, so every
                // live chunk message belongs to the aborted one.
                for (slot, entry) in self.msgs.iter_mut().enumerate() {
                    let Some(info) = entry else { continue };
                    if !matches!(info.class, MsgClass::ReduceScatter | MsgClass::AllGather) {
                        continue;
                    }
                    match info.state {
                        MsgState::Queued => {
                            if let Some(q) = self.queued.get_mut(&info.endpoint) {
                                q.remove(slot);
                            }
                        }
                        MsgState::Lost | MsgState::RetryPending => {}
                        MsgState::InFlight | MsgState::Delivered | MsgState::Dead => continue,
                    }
                    info.state = MsgState::Dead;
                }
            }
            FaultKind::Eviction
            | FaultKind::DegradedRound
            | FaultKind::StalePush
            | FaultKind::DuplicatePush => {}
        }
    }
}
