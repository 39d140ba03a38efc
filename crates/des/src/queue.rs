//! The event calendar: a deterministic time-ordered priority queue.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled occurrence of an event of type `E`.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    /// Monotone tie-breaker: events scheduled earlier (by call order) at the
    /// same instant fire first, which makes the simulation fully
    /// deterministic regardless of heap internals.
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A discrete-event calendar holding events of type `E`.
///
/// Events pop in nondecreasing time order; events at the same instant pop in
/// the order they were scheduled (FIFO), so a simulation driven by this queue
/// is deterministic.
///
/// The calendar also tracks the current simulation clock: [`EventQueue::pop`]
/// advances the clock to the popped event's timestamp, and
/// [`EventQueue::schedule_in`]/[`EventQueue::schedule_at`] refuse to schedule
/// into the past.
///
/// # Examples
///
/// ```
/// use p3_des::{EventQueue, SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(SimDuration::from_millis(2), "late");
/// q.schedule_in(SimDuration::from_millis(1), "early");
/// q.schedule_in(SimDuration::from_millis(1), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty calendar with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            high_water: 0,
        }
    }

    /// The largest number of events that were ever pending at once — a
    /// cheap load signal for observability without walking the calendar.
    #[inline]
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total number of events ever scheduled on this calendar.
    #[inline]
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// The current simulation clock: the timestamp of the most recently
    /// popped event (or zero before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock — an event in the past
    /// indicates a logic error in the model.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at}, now={}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The instant of the next event, without popping it or moving the
    /// clock; `None` when the calendar is empty.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "event calendar went backwards");
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Drops all pending events without moving the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E: Clone> EventQueue<E> {
    /// All pending events in pop order (`(time, seq)` ascending), without
    /// disturbing the calendar. This is the serialization view for
    /// snapshots: re-scheduling the returned events in order onto a fresh
    /// calendar (see [`EventQueue::from_pending`]) reproduces the exact pop
    /// sequence, because fresh sequence numbers assigned in pop order
    /// preserve the FIFO tie-break and any later event gets a larger
    /// sequence number in both calendars.
    pub fn pending_sorted(&self) -> Vec<(SimTime, E)> {
        let mut pending: Vec<&Scheduled<E>> = self.heap.iter().collect();
        pending.sort_by_key(|s| (s.time, s.seq));
        pending
            .into_iter()
            .map(|s| (s.time, s.event.clone()))
            .collect()
    }
}

impl<E> EventQueue<E> {
    /// Rebuilds a calendar from a snapshot: the clock is set to `now` and
    /// `pending` (in pop order, as produced by
    /// [`EventQueue::pending_sorted`]) is re-scheduled with fresh sequence
    /// numbers. The restored calendar pops the same `(time, event)`
    /// sequence as the original.
    ///
    /// # Panics
    ///
    /// Panics if any pending event is earlier than `now`.
    pub fn from_pending(now: SimTime, pending: Vec<(SimTime, E)>) -> Self {
        let mut q = EventQueue::new();
        q.now = now;
        for (at, event) in pending {
            q.schedule_at(at, event);
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 1);
        q.schedule_at(SimTime::from_secs(2), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_secs(7), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_the_next_pop_without_taking_it() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_secs(4), "b");
        q.schedule_at(SimTime::from_secs(2), "a");
        q.schedule_at(SimTime::from_secs(2), "a2");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        assert_eq!(
            (q.len(), q.now()),
            (3, SimTime::ZERO),
            "peeking moved the calendar"
        );
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "a")));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(4)));
        q.pop();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(5), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(4), ());
    }

    #[test]
    fn schedule_in_is_relative_to_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), "a");
        q.pop();
        q.schedule_in(SimDuration::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), "b")));
    }

    #[test]
    fn events_scheduled_at_the_clock_fire_after_earlier_same_instant_ones() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(1), "first");
        q.pop();
        q.schedule_at(q.now(), "second");
        q.schedule_at(q.now(), "third");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "second")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "third")));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(q.now(), 1);
        q.schedule_at(q.now(), 2);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn high_water_and_scheduled_total_track_load() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_water(), 0);
        q.schedule_at(q.now(), 1);
        q.schedule_at(q.now(), 2);
        q.schedule_at(q.now(), 3);
        q.pop();
        q.pop();
        q.schedule_at(q.now(), 4);
        assert_eq!(q.high_water(), 3);
        assert_eq!(q.scheduled_total(), 4);
    }
}
