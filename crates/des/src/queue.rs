//! Deterministic ordered queues: [`OrderedQueue`], drained least key first
//! and FIFO among equal keys, and the event calendar [`EventQueue`], which
//! is an [`OrderedQueue`] keyed by time.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A queued value with its key and push sequence number.
#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    /// Monotone tie-breaker: among equal keys the value pushed first pops
    /// first, whatever the heap's internal layout, which keeps every user
    /// of the queue deterministic.
    seq: u64,
    value: V,
}

impl<K: Ord, V> PartialEq for Entry<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<K: Ord, V> Eq for Entry<K, V> {}

impl<K: Ord, V> PartialOrd for Entry<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<K: Ord, V> Ord for Entry<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the least (key, seq) pops
        // first.
        (&other.key, other.seq).cmp(&(&self.key, self.seq))
    }
}

/// A priority queue that pops the least key first and, among equal keys,
/// the value pushed first (FIFO).
///
/// This is the workspace's one deterministic ordering: the event calendar
/// ([`EventQueue`]) keys it by time, and P3's slice queues key it by
/// priority. Its snapshot view is [`OrderedQueue::sorted`], the contents in
/// pop order; collecting that list into a fresh queue (`FromIterator`)
/// rebuilds one that pops the same sequence, now and after any later
/// pushes, because fresh sequence numbers assigned in pop order keep every
/// FIFO tie-break.
///
/// # Examples
///
/// ```
/// use p3_des::OrderedQueue;
///
/// let mut q = OrderedQueue::new();
/// q.push(2, "b");
/// q.push(1, "a");
/// q.push(2, "b-second");
/// let mut restored: OrderedQueue<_, _> = q.sorted().into_iter().collect();
/// for q in [&mut q, &mut restored] {
///     assert_eq!(q.pop(), Some((1, "a")));
///     assert_eq!(q.pop(), Some((2, "b")));
///     assert_eq!(q.pop(), Some((2, "b-second")));
///     assert_eq!(q.pop(), None);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct OrderedQueue<K, V> {
    heap: BinaryHeap<Entry<K, V>>,
    pushed: u64,
}

impl<K: Ord, V> Default for OrderedQueue<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord, V> OrderedQueue<K, V> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        OrderedQueue {
            heap: BinaryHeap::new(),
            pushed: 0,
        }
    }

    /// Enqueues `value` under `key`, behind every queued value with an
    /// equal key.
    pub fn push(&mut self, key: K, value: V) {
        let seq = self.pushed;
        self.pushed += 1;
        self.heap.push(Entry { key, seq, value });
    }

    /// Removes and returns the value with the least key (FIFO among
    /// equals), with its key.
    pub fn pop(&mut self) -> Option<(K, V)> {
        self.heap.pop().map(|e| (e.key, e.value))
    }

    /// The key [`OrderedQueue::pop`] would return next.
    #[inline]
    pub fn peek_key(&self) -> Option<&K> {
        self.heap.peek().map(|e| &e.key)
    }

    /// Number of queued values.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of values ever pushed onto this queue.
    #[inline]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Keeps only the values for which `keep` returns true; the survivors
    /// keep their relative pop order.
    pub fn retain(&mut self, mut keep: impl FnMut(&V) -> bool) {
        self.heap.retain(|e| keep(&e.value));
    }
}

impl<K: Ord + Clone, V: Clone> OrderedQueue<K, V> {
    /// Every queued `(key, value)` in pop order, without disturbing the
    /// queue: the snapshot view, which `FromIterator` rebuilds from.
    pub fn sorted(&self) -> Vec<(K, V)> {
        // Ascending in the heap's inverted order is descending pop order.
        let entries = self.heap.clone().into_sorted_vec();
        entries
            .into_iter()
            .rev()
            .map(|e| (e.key, e.value))
            .collect()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for OrderedQueue<K, V> {
    /// Pushes the pairs in iteration order.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut q = OrderedQueue::new();
        for (key, value) in iter {
            q.push(key, value);
        }
        q
    }
}

/// A discrete-event calendar holding events of type `E`: an
/// [`OrderedQueue`] keyed by time, plus the simulation clock.
///
/// Events pop in nondecreasing time order; events at the same instant pop in
/// the order they were scheduled (FIFO), so a simulation driven by this queue
/// is deterministic.
///
/// [`EventQueue::pop`] advances the clock to the popped event's timestamp,
/// and [`EventQueue::schedule_in`]/[`EventQueue::schedule_at`] refuse to
/// schedule into the past.
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
    queue: OrderedQueue<SimTime, E>,
    now: SimTime,
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
            queue: OrderedQueue::new(),
            now: SimTime::ZERO,
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
        self.queue.pushed()
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
        self.queue.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
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
        self.queue.push(at, event);
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The instant of the next event, without popping it or moving the
    /// clock; `None` when the calendar is empty.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_key().copied()
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.queue.pop()?;
        debug_assert!(at >= self.now, "event calendar went backwards");
        self.now = at;
        Some((at, event))
    }
}

impl<E: Clone> EventQueue<E> {
    /// All pending events in pop order, without disturbing the calendar:
    /// the serialization view for snapshots, which
    /// [`EventQueue::from_pending`] rebuilds from (see
    /// [`OrderedQueue::sorted`]).
    pub fn pending_sorted(&self) -> Vec<(SimTime, E)> {
        self.queue.sorted()
    }
}

impl<E> EventQueue<E> {
    /// Rebuilds a calendar from a snapshot: the clock is set to `now` and
    /// `pending` (in pop order, as produced by
    /// [`EventQueue::pending_sorted`]) is re-scheduled in order. The
    /// restored calendar pops the same `(time, event)` sequence as the
    /// original.
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
    fn len_counts_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(q.now(), 1);
        q.schedule_at(q.now(), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn ordered_queue_peeks_retains_and_counts_pushes() {
        let mut q: OrderedQueue<u32, char> = [(2, 'c'), (1, 'a'), (1, 'b')].into_iter().collect();
        assert_eq!((q.peek_key(), q.len(), q.pushed()), (Some(&1), 3, 3));
        q.retain(|&v| v != 'a');
        assert_eq!(q.sorted(), vec![(1, 'b'), (2, 'c')]);
        assert_eq!(q.pop(), Some((1, 'b')));
        assert_eq!(q.pop(), Some((2, 'c')));
        assert_eq!((q.pop(), q.peek_key(), q.pushed()), (None, None, 3));
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

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Debug;

    /// Runs `ops` on a queue, rebuilding a second queue from the first's
    /// `sorted()` view after `split` ops, then runs the rest on both and
    /// checks that both pop the identical `(key, value)` sequence. An op
    /// `(kind, k)` pushes the next value under key `k` (kinds 0–2), pops
    /// (kind 3) or drops the values congruent to `k` mod 4 (kind 4).
    fn rebuilt_queue_pops_like_the_original<K: Ord + Clone + Debug>(
        ops: &[(u8, u32)],
        split: usize,
        key: impl Fn(u32) -> K,
    ) {
        let step = |q: &mut OrderedQueue<K, usize>, i: usize, (kind, k): (u8, u32)| match kind {
            0..=2 => {
                q.push(key(k), i);
                None
            }
            3 => Some(q.pop()),
            _ => {
                q.retain(|&v| v % 4 != k as usize);
                None
            }
        };
        let split = split.min(ops.len());
        let mut original = OrderedQueue::new();
        for (i, &op) in ops.iter().enumerate().take(split) {
            step(&mut original, i, op);
        }
        let mut rebuilt: OrderedQueue<K, usize> = original.sorted().into_iter().collect();
        prop_assert_eq!(rebuilt.sorted(), original.sorted());
        for (i, &op) in ops.iter().enumerate().skip(split) {
            prop_assert_eq!(step(&mut rebuilt, i, op), step(&mut original, i, op));
        }
        let drain =
            |q: &mut OrderedQueue<K, usize>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        prop_assert_eq!(drain(&mut rebuilt), drain(&mut original));
    }

    proptest! {
        /// The snapshot contract with time keys: a calendar rebuilt from
        /// its pop-order view pops what the original pops, also after
        /// later pushes that tie with restored entries.
        #[test]
        fn rebuilt_time_queue_pops_identically(
            ops in prop::collection::vec((0u8..5, 0u32..4), 0..120),
            split in 0usize..120,
        ) {
            rebuilt_queue_pops_like_the_original(&ops, split, |k| SimTime::from_nanos(u64::from(k)));
        }

        /// The same contract with the `u32` priority keys of P3's queues.
        #[test]
        fn rebuilt_priority_queue_pops_identically(
            ops in prop::collection::vec((0u8..5, 0u32..4), 0..120),
            split in 0usize..120,
        ) {
            rebuilt_queue_pops_like_the_original(&ops, split, |k| k);
        }
    }
}
