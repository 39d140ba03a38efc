//! The recording: a [`TraceLog`] of timestamped [`TraceEvent`]s.
//!
//! The simulation engine is the one writer. It holds an
//! `Option<TraceLog>` and pays a single branch per potential event when
//! tracing is off. Recording never draws randomness, never schedules
//! events, and never observes anything the simulation logic depends on, so
//! tracing cannot perturb a deterministic run.

use crate::event::TraceEvent;
use p3_des::SimTime;

/// One recorded event with its simulated timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedEvent {
    /// When the event happened on the simulated clock.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// An in-memory recording of a run: every event in the order it was
/// recorded (which, because the engine records at the current clock, is
/// nondecreasing in time).
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    events: Vec<TimedEvent>,
}

impl TraceLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        TraceLog { events: Vec::new() }
    }

    /// An empty log with room for up to `events` events, where the
    /// allocator grants it (no room otherwise).
    pub(crate) fn with_room(events: usize) -> Self {
        let mut log = TraceLog::new();
        let _ = log.events.try_reserve_exact(events);
        log
    }

    /// Records one event at simulated time `at`.
    #[inline]
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        self.events.push(TimedEvent { at, event });
    }

    /// All recorded events, in recording order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}
