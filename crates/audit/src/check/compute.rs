//! Worker-side checkers: serial compute/stall segments and exact
//! iteration-window time accounting.

use super::Checker;
use crate::report::Invariant;

#[derive(Debug, Clone)]
pub(crate) struct WorkerState {
    pub(crate) open_compute: Option<(u64, u8, usize)>,
    pub(crate) open_stall: Option<(u64, usize)>,
    pub(crate) window_start: Option<u64>,
    pub(crate) window_valid: bool,
    pub(crate) compute_ns: u64,
    pub(crate) stall_ns: u64,
}

impl WorkerState {
    /// A worker before its first event: its first window is checked.
    pub(crate) const FRESH: WorkerState = WorkerState {
        open_compute: None,
        open_stall: None,
        window_start: None,
        window_valid: true,
        compute_ns: 0,
        stall_ns: 0,
    };
}

impl Checker {
    pub(super) fn on_compute_start(
        &mut self,
        i: usize,
        t: u64,
        worker: usize,
        ph: u8,
        block: usize,
    ) {
        let Some(st) = self.worker(worker) else {
            return;
        };
        if st.window_start.is_none() {
            st.window_start = Some(t);
        }
        let busy = st.open_compute.is_some() || st.open_stall.is_some();
        st.open_compute = Some((t, ph, block));
        if busy {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("worker {worker} starts compute while already busy"),
            );
        }
    }

    pub(super) fn on_compute_end(&mut self, i: usize, t: u64, worker: usize, ph: u8, block: usize) {
        let Some(st) = self.worker(worker) else {
            return;
        };
        match st.open_compute.take() {
            Some((t0, p0, b0)) if p0 == ph && b0 == block => {
                // Wraps as a release build always has: only a corrupt log ends
                // a segment before it starts.
                st.compute_ns = st.compute_ns.wrapping_add(t.wrapping_sub(t0));
            }
            other => {
                st.open_compute = None;
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!(
                        "worker {worker} ends compute segment {ph}/{block} but {other:?} was open"
                    ),
                );
            }
        }
    }

    pub(super) fn on_stall_start(&mut self, i: usize, t: u64, worker: usize, block: usize) {
        let Some(st) = self.worker(worker) else {
            return;
        };
        if st.window_start.is_none() {
            st.window_start = Some(t);
        }
        let busy = st.open_compute.is_some() || st.open_stall.is_some();
        st.open_stall = Some((t, block));
        if busy {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!("worker {worker} stalls while already busy"),
            );
        }
    }

    pub(super) fn on_stall_end(&mut self, i: usize, t: u64, worker: usize, block: usize) {
        let Some(st) = self.worker(worker) else {
            return;
        };
        match st.open_stall.take() {
            Some((t0, b0)) if b0 == block => {
                st.stall_ns = st.stall_ns.wrapping_add(t.wrapping_sub(t0));
            }
            other => {
                st.open_stall = None;
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!("worker {worker} ends a stall on block {block} but {other:?} was open"),
                );
            }
        }
    }

    pub(super) fn on_iteration_end(&mut self, i: usize, t: u64, worker: usize) {
        let Some(st) = self.worker(worker) else {
            return;
        };
        let mut mismatch = None;
        if st.window_valid {
            if let Some(t0) = st.window_start {
                let span = t.saturating_sub(t0);
                let accounted = st.compute_ns.wrapping_add(st.stall_ns);
                if accounted != span {
                    mismatch = Some((span, st.compute_ns, st.stall_ns));
                }
            }
        }
        st.window_valid = true;
        st.window_start = Some(t);
        st.compute_ns = 0;
        st.stall_ns = 0;
        if let Some((span, compute, stall)) = mismatch {
            self.rep.violate(
                Invariant::StallAccounting,
                Some(i),
                t,
                format!(
                    "worker {worker}: iteration span {span}ns != compute {compute}ns + stall \
                     {stall}ns (unaccounted {}ns)",
                    span as i128 - compute.wrapping_add(stall) as i128
                ),
            );
        }
    }
}
