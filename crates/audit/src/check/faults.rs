//! Fault-transition checkers: loss/retransmit/give-up state machines,
//! flow cancellation, crash/rejoin teardown, and collective aborts.

use super::intern::NONE;
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
                    let info = self.msgs[slot];
                    if is_push_class(info.class) {
                        if let Some(dst) = info.dst() {
                            let sender = info.endpoint / 2;
                            let entry = self
                                .ids
                                .cell(dst, info.key as usize)
                                .and_then(|c| self.ids.pushes.find(c, (info.round, sender)));
                            if let Some(e) = entry {
                                self.pushes.unlink(e, true, |s| s as usize == slot);
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
                    let info = &mut self.msgs[slot];
                    if info.state != MsgState::Unseen {
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
                        info.open = NONE;
                        let endpoint = info.endpoint;
                        let dst = info.dst;
                        let n = &mut self.inflight[endpoint as usize];
                        *n = n.saturating_sub(1);
                        if dst != NONE && !self.lane_busy.is_empty() {
                            self.lane_busy.remove(&(endpoint, dst));
                        }
                    }
                }
            }
            FaultKind::Crash => {
                let Some(m) = self.ids.machines.slot(machine as u64) else {
                    return;
                };
                self.crashed[m] = true;
                // The dead process's queued (and retry-pending) messages
                // are destroyed with it; in-flight ones are cancelled by
                // the FlowCancelled events that follow.
                let endpoint = 2 * m as u32 + u32::from(ROLE_WORKER);
                for slot in self.queues.take(endpoint) {
                    self.msgs[slot as usize].state = MsgState::Dead;
                }
                for info in &mut self.msgs {
                    if info.endpoint == endpoint
                        && matches!(info.state, MsgState::Lost | MsgState::RetryPending)
                    {
                        info.state = MsgState::Dead;
                    }
                }
                let st = &mut self.workers[m];
                st.open_compute = None;
                st.window_valid = false;
                st.window_start = None;
                st.compute_ns = 0;
                st.stall_ns = 0;
                // An open stall is closed by the StallEnd the crash emits.
            }
            FaultKind::Rejoin => {
                let Some(m) = self.ids.machines.slot(machine as u64) else {
                    return;
                };
                self.crashed[m] = false;
                // Collective rejoin resyncs in place (no pull/response
                // messages cross the wire): the restarted process adopts
                // every collectively-completed version. The consume check
                // models this with the allgather high-water marks — see
                // `on_slice_consumed` — which also covers versions the
                // group completes after the rejoin while the rank is still
                // excluded from a reformed survivor group.
                let st = &mut self.workers[m];
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
                for (slot, info) in self.msgs.iter_mut().enumerate() {
                    if !matches!(info.class, MsgClass::ReduceScatter | MsgClass::AllGather) {
                        continue;
                    }
                    match info.state {
                        MsgState::Queued => self.queues.remove(info.endpoint, slot as u32),
                        MsgState::Lost | MsgState::RetryPending => {}
                        MsgState::Unseen
                        | MsgState::InFlight
                        | MsgState::Delivered
                        | MsgState::Dead => continue,
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
