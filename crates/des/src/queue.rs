//! Deterministic ordered queues: [`OrderedQueue`], drained least key first
//! and FIFO among equal keys, and the event calendar [`EventQueue`], which
//! pops what an [`OrderedQueue`] keyed by time would pop but keeps rising
//! schedules in FIFO runs beside an [`OrderedQueue`] spill.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

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
/// This is the workspace's one deterministic ordering: P3's slice queues
/// key it by priority, the packet oracle's ports by packet key, and the
/// event calendar ([`EventQueue`]) keys its spill by time and schedule
/// sequence, for the schedules its FIFO runs cannot take. Its snapshot
/// view is [`OrderedQueue::sorted`], the contents in pop order;
/// collecting that list into a fresh queue (`FromIterator`) rebuilds one
/// that pops the same sequence, now and after any later pushes, because
/// fresh sequence numbers assigned in pop order keep every FIFO
/// tie-break.
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

/// FIFO runs the calendar keeps beside its spill heap. The engine's
/// schedules interleave a few rising streams, and this many runs take
/// 94–100% of the schedules on each of the ledger's workloads.
const RUNS: usize = 4;

/// A schedule's place in pop order: its instant in the high 64 bits and
/// its schedule sequence number in the low 64, so one integer compare
/// orders two schedules by time, then FIFO.
type Rank = u128;

/// The next rank of an empty calendar, above every schedule's rank:
/// sequence numbers stay below `u64::MAX`.
const EMPTY: Rank = Rank::MAX;

/// The rank of the `seq`-th schedule, due at `at`.
#[inline]
fn rank_of(at: SimTime, seq: u64) -> Rank {
    (Rank::from(at.as_nanos()) << 64) | Rank::from(seq)
}

/// The instant of a schedule of rank `rank`.
#[inline]
fn time_of(rank: Rank) -> SimTime {
    SimTime::from_nanos((rank >> 64) as u64)
}

/// A scheduled event with its rank.
#[derive(Debug, Clone)]
struct Timed<E> {
    rank: Rank,
    event: E,
}

/// A run of schedules in nondecreasing time order, so in pop order.
#[derive(Debug, Clone)]
struct Run<E> {
    /// The instant of the last schedule that joined the run; a later
    /// schedule joins only at or after it. Reset when the run empties, so
    /// an empty run takes the next schedule whatever its instant.
    tail: SimTime,
    events: VecDeque<Timed<E>>,
}

/// A discrete-event calendar holding events of type `E`, plus the
/// simulation clock.
///
/// Events pop in nondecreasing time order; events at the same instant pop in
/// the order they were scheduled (FIFO), so a simulation driven by this queue
/// is deterministic. The pop sequence is exactly that of an
/// [`OrderedQueue`] keyed by time.
///
/// A schedule joins the first of a few FIFO runs whose last instant is not
/// later than its own; only a schedule that fits no run goes to a spill
/// heap, an [`OrderedQueue`] keyed by `(time, sequence)` packed into one
/// `u128`. Each run is in `(time, sequence)` order, so a pop takes the
/// least of the run heads and the spill's top. The calendar keeps the
/// position of that least head, so [`EventQueue::peek_time`] reads it
/// without a scan, and each pop scans the few heads once to find the next.
/// The engine's schedules form a few rising streams, so most of them skip
/// the heap, and the scan's branches follow a pattern the processor
/// learns. Schedules at random instants also mostly join runs, but there
/// the scan's branches are unpredictable, and a hold loop with uniform
/// random delays runs slower than on a plain heap.
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
    runs: [Run<E>; RUNS],
    /// Schedules that fit no run, keyed by rank.
    spill: OrderedQueue<Rank, E>,
    /// The least rank among the run heads and the spill's top ([`EMPTY`]
    /// when nothing is pending), and its source: the run's index, or
    /// `RUNS` for the spill. What the next pop takes.
    next: Rank,
    next_src: usize,
    len: usize,
    scheduled: u64,
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
            runs: std::array::from_fn(|_| Run {
                tail: SimTime::ZERO,
                events: VecDeque::new(),
            }),
            spill: OrderedQueue::new(),
            next: EMPTY,
            next_src: RUNS,
            len: 0,
            scheduled: 0,
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
        self.scheduled
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
        self.len
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        let rank = rank_of(at, self.scheduled);
        self.scheduled += 1;
        let fit = self
            .runs
            .iter_mut()
            .enumerate()
            .find(|(_, run)| run.tail <= at);
        let src = match fit {
            Some((src, run)) => {
                run.tail = at;
                run.events.push_back(Timed { rank, event });
                src
            }
            None => {
                self.spill.push(rank, event);
                RUNS
            }
        };
        // A schedule that joins a non-empty run ranks behind that run's
        // head, so only a new head can become the next pop.
        if rank < self.next {
            self.next = rank;
            self.next_src = src;
        }
        self.len += 1;
        self.high_water = self.high_water.max(self.len);
    }

    /// Schedules `event` to fire `delay` after the current clock.
    pub fn schedule_in(&mut self, delay: crate::SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The instant of the next event, without popping it or moving the
    /// clock; `None` when the calendar is empty.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then_some(time_of(self.next))
    }

    /// Removes and returns the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let (rank, event) = match self.runs.get_mut(self.next_src) {
            Some(run) => {
                let Timed { rank, event } = run.events.pop_front()?;
                if run.events.is_empty() {
                    run.tail = SimTime::ZERO;
                }
                (rank, event)
            }
            None => self.spill.pop()?,
        };
        let at = time_of(rank);
        self.len -= 1;
        // The next pop: the least of the run heads and the spill's top.
        (self.next, self.next_src) = (EMPTY, RUNS);
        for (src, run) in self.runs.iter().enumerate() {
            if let Some(head) = run.events.front().filter(|head| head.rank < self.next) {
                (self.next, self.next_src) = (head.rank, src);
            }
        }
        if let Some(&top) = self.spill.peek_key().filter(|&&top| top < self.next) {
            (self.next, self.next_src) = (top, RUNS);
        }
        debug_assert!(at >= self.now, "event calendar went backwards");
        self.now = at;
        Some((at, event))
    }
}

impl<E: Clone> EventQueue<E> {
    /// All pending events in pop order, without disturbing the calendar:
    /// the serialization view for snapshots, which
    /// [`EventQueue::from_pending`] rebuilds from. It merges the runs and
    /// the spill, so it is the same list an [`OrderedQueue`] calendar
    /// would give (see [`OrderedQueue::sorted`]).
    pub fn pending_sorted(&self) -> Vec<(SimTime, E)> {
        let mut pending = self.spill.sorted();
        for run in &self.runs {
            pending.extend(run.events.iter().map(|t| (t.rank, t.event.clone())));
        }
        pending.sort_unstable_by_key(|&(rank, _)| rank);
        pending
            .into_iter()
            .map(|(rank, event)| (time_of(rank), event))
            .collect()
    }
}

impl<E> EventQueue<E> {
    /// Rebuilds a calendar from a snapshot: the clock is set to `now` and
    /// `pending` (in pop order, as produced by
    /// [`EventQueue::pending_sorted`]) is re-scheduled in order, so it all
    /// joins the first run. The restored calendar pops the same
    /// `(time, event)` sequence as the original.
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

    /// The calendar as first written: an [`OrderedQueue`] keyed by time,
    /// with the clock and the load counters beside it. The oracle for the
    /// run-merging [`EventQueue`].
    struct Reference {
        queue: OrderedQueue<SimTime, usize>,
        now: SimTime,
        high_water: usize,
    }

    impl Reference {
        fn schedule_at(&mut self, at: SimTime, value: usize) {
            self.queue.push(at, value);
            self.high_water = self.high_water.max(self.queue.len());
        }

        fn pop(&mut self) -> Option<(SimTime, usize)> {
            let (at, value) = self.queue.pop()?;
            self.now = at;
            Some((at, value))
        }

        fn from_pending(now: SimTime, pending: Vec<(SimTime, usize)>) -> Self {
            let mut r = Reference {
                queue: OrderedQueue::new(),
                now,
                high_water: 0,
            };
            for (at, value) in pending {
                r.schedule_at(at, value);
            }
            r
        }
    }

    /// Runs `ops` on the calendar and on the [`Reference`], checking after
    /// each op that both agree on the clock, `len`, `high_water` and
    /// `scheduled_total`, and at the end that both drain alike. An op
    /// `(kind, k, stream)`:
    /// - kinds 0–3 schedule at the clock plus `k` (0 in half of them), so
    ///   many events share an instant;
    /// - kinds 4–7 extend rising stream `stream` by `k`; the seven streams
    ///   outnumber the runs;
    /// - kinds 8–9 extend a strictly falling stream, restarted above the
    ///   clock whenever it would reach it; such schedules fit no run once
    ///   the runs hold later instants;
    /// - kind 13 peeks, 14 round-trips both queues through their
    ///   snapshot views, and every other kind pops.
    fn calendar_matches_the_reference(ops: &[(u8, u64, usize)]) {
        let mut cal = EventQueue::new();
        let mut reference = Reference::from_pending(SimTime::ZERO, Vec::new());
        let mut rising = [0u64; 7];
        let mut falling = 0u64;
        for (i, &(kind, k, stream)) in ops.iter().enumerate() {
            let now = reference.now.as_nanos();
            let at = match kind {
                0..=3 => Some(now + if kind < 2 { 0 } else { k }),
                4..=7 => {
                    let t = &mut rising[stream % rising.len()];
                    *t = (*t).max(now) + k;
                    Some(*t)
                }
                8..=9 => {
                    if falling <= now + k + 1 {
                        falling = now + 300;
                    }
                    falling -= k + 1;
                    Some(falling)
                }
                _ => None,
            };
            match (kind, at) {
                (_, Some(at)) => {
                    cal.schedule_at(SimTime::from_nanos(at), i);
                    reference.schedule_at(SimTime::from_nanos(at), i);
                }
                (13, _) => {
                    prop_assert_eq!(cal.peek_time(), reference.queue.peek_key().copied());
                }
                (14, _) => {
                    let pending = cal.pending_sorted();
                    prop_assert_eq!(&pending, &reference.queue.sorted());
                    cal = EventQueue::from_pending(cal.now(), pending.clone());
                    reference = Reference::from_pending(reference.now, pending);
                }
                _ => prop_assert_eq!(cal.pop(), reference.pop()),
            }
            prop_assert_eq!(
                (cal.now(), cal.len(), cal.is_empty()),
                (
                    reference.now,
                    reference.queue.len(),
                    reference.queue.is_empty()
                )
            );
            prop_assert_eq!(
                (cal.high_water(), cal.scheduled_total()),
                (reference.high_water, reference.queue.pushed())
            );
        }
        prop_assert_eq!(cal.pending_sorted(), reference.queue.sorted());
        while let Some(popped) = reference.pop() {
            prop_assert_eq!(cal.peek_time(), Some(popped.0));
            prop_assert_eq!(cal.pop(), Some(popped));
        }
        prop_assert_eq!((cal.pop(), cal.peek_time()), (None, None));
    }

    proptest! {
        /// The run-merging calendar pops exactly what an ordered queue
        /// keyed by time pops, FIFO ties included, under interleaved
        /// schedules, pops, peeks and snapshot round trips. One pop in
        /// five lets the calendar grow deep; one in two keeps it shallow,
        /// so runs empty and refill often.
        #[test]
        fn calendar_pops_like_an_ordered_queue(
            deep in prop::collection::vec((0u8..15, 0u64..4, 0usize..7), 0..600),
            shallow in prop::collection::vec((0u8..24, 0u64..4, 0usize..7), 0..600),
        ) {
            calendar_matches_the_reference(&deep);
            calendar_matches_the_reference(&shallow);
        }

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
