//! The producer–consumer priority queue at the heart of P3 (§4.2).
//!
//! P3Worker's producer pushes all slices of a layer at once; a single
//! consumer repeatedly polls the **highest-priority** slice and transmits it
//! with a blocking send. The same structure sits in front of the P3Server's
//! processing loop. Lower numeric priority = more urgent (layer 0 first),
//! and FIFO order breaks ties so equal-priority slices of one layer keep
//! their part order.

/// A strict priority queue with FIFO tie-breaking: p3-des's
/// [`OrderedQueue`](p3_des::OrderedQueue) keyed by priority, the same
/// structure the event calendar keys by time. `pop` returns the priority
/// with the value.
///
/// # Examples
///
/// ```
/// use p3_core::PrioQueue;
///
/// let mut q = PrioQueue::new();
/// q.push(3, "layer3.slice0"); // backprop finishes the last layer first…
/// q.push(3, "layer3.slice1");
/// q.push(0, "layer1.slice0"); // …but layer 1 preempts it in the queue.
/// assert_eq!(q.pop(), Some((0, "layer1.slice0")));
/// assert_eq!(q.pop(), Some((3, "layer3.slice0")));
/// assert_eq!(q.pop(), Some((3, "layer3.slice1")));
/// ```
pub type PrioQueue<T> = p3_des::OrderedQueue<u32, T>;

#[cfg(test)]
mod tests {
    use super::*;

    /// Pops the values, dropping their priorities.
    fn drain<T>(q: &mut PrioQueue<T>) -> Vec<T> {
        std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect()
    }

    #[test]
    fn pops_by_priority() {
        let mut q = PrioQueue::new();
        q.push(5, "e");
        q.push(1, "b");
        q.push(0, "a");
        q.push(3, "c");
        assert_eq!(drain(&mut q), vec!["a", "b", "c", "e"]);
    }

    #[test]
    fn fifo_within_priority() {
        let mut q = PrioQueue::new();
        for i in 0..50 {
            q.push(7, i);
        }
        assert_eq!(drain(&mut q), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn preemption_mid_stream() {
        // The paper's scenario: layer 3's slices are queued, then layer 1
        // finishes backprop; its slices jump the queue.
        let mut q = PrioQueue::new();
        q.push(3, "l3.s0");
        q.push(3, "l3.s1");
        assert_eq!(q.pop(), Some((3, "l3.s0"))); // one slice already sent
        q.push(1, "l1.s0");
        q.push(1, "l1.s1");
        assert_eq!(drain(&mut q), vec!["l1.s0", "l1.s1", "l3.s1"]);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping yields a sequence sorted by (priority, insertion order).
        #[test]
        fn pop_order_is_stable_sort(items in prop::collection::vec(0u32..6, 0..100)) {
            let mut q = PrioQueue::new();
            for (i, &p) in items.iter().enumerate() {
                q.push(p, i);
            }
            let mut expected: Vec<(u32, usize)> =
                items.iter().copied().enumerate().map(|(i, p)| (p, i)).collect();
            expected.sort_by_key(|&(p, i)| (p, i));
            let got: Vec<(u32, usize)> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(got, expected);
        }

        /// Interleaved push/pop never violates the priority invariant: a
        /// popped element is at least as urgent as everything remaining.
        #[test]
        fn interleaved_invariant(ops in prop::collection::vec((any::<bool>(), 0u32..6), 1..200)) {
            let mut q = PrioQueue::new();
            for (i, &(push, p)) in ops.iter().enumerate() {
                if push || q.is_empty() {
                    q.push(p, i);
                } else {
                    let (popped, _) = q.pop().unwrap();
                    if let Some(&next) = q.peek_key() {
                        prop_assert!(popped <= next);
                    }
                }
            }
        }
    }
}
