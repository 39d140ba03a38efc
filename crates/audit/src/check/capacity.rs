//! Port-capacity feasibility: Hall-style windows over every busy period
//! of every NIC port, in both directions.
//!
//! A window `[a, e]` over-commits a port when the attempts lying wholly
//! inside it carry more than `cap · (e − a)` bytes, beyond the tolerance.
//! The tightest windows start at an attempt's start and end at an
//! attempt's end, so a busy period of `k` attempts has `O(k²)` candidate
//! windows. One sweep checks all of them in `O(k log k)`: anchors `a` in
//! descending start order, each adding its attempts to a range-add /
//! max tree over the sorted end times. For each end `e > a` the tree
//! holds `S(e) − c·e`, the anchor's bytes ending by `e` less the capacity
//! up to `e`, so its root is the anchor's worst window. Only the anchors
//! it flags are rescanned window by window, to name the violation
//! exactly.

use super::Checker;
use crate::report::Invariant;

/// Relative tolerance on capacity windows, covering the fluid allocator's
/// floating-point drains.
const CAPACITY_REL_TOL: f64 = 1e-6;
/// Absolute byte slack per capacity window.
const CAPACITY_ABS_SLACK: f64 = 2048.0;

/// One wire transfer, recorded at its start and completed at its
/// delivery, kept for the offline capacity scan. Machines are named by
/// slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    pub(crate) start: u64,
    pub(crate) end: u64,
    pub(crate) bytes: u64,
    /// Index of the event that delivered it; `UNDELIVERED` until then,
    /// and for ever if it is cancelled or restarted.
    pub(crate) delivered: u64,
    pub(crate) src: u32,
    pub(crate) dst: u32,
}

impl Attempt {
    pub(crate) const UNDELIVERED: u64 = u64::MAX;
}

/// An attempt as one of its ports sees it.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u64,
    end: u64,
    bytes: u64,
}

impl Checker {
    /// Hall-style feasibility: for any window `[a, b]`, flows fully inside
    /// it cannot deliver more than `cap * (b - a)` bytes through one port.
    /// Delivery spans include the propagation latency, which only loosens
    /// the bound, so a violation is a genuine over-commitment.
    pub(super) fn check_capacity(&mut self, cap: f64) {
        let attempts = std::mem::take(&mut self.attempts);
        let machines = self.ids.machines.len();
        for (port, (a, sum, end)) in overcommitted(cap, attempts, machines) {
            let (machine, dir) = if port < machines {
                (port, "tx")
            } else {
                (port - machines, "rx")
            };
            let machine = self.ids.machines.id(machine);
            self.rep.violate(
                Invariant::CapacityFeasibility,
                None,
                a,
                format!(
                    "port m{machine} ({dir}): {sum} bytes delivered in a {:.3}ms window — \
                     exceeds capacity {cap:.0} bytes/sec",
                    (end - a) as f64 / 1e6,
                ),
            );
        }
    }
}

/// The earliest over-committed window of each port that has one, as
/// `(port, (anchor, bytes, end))`. Ports are numbered tx first, then
/// rx, each in machine-slot order. One violation per port is enough to
/// act on.
fn overcommitted(
    cap: f64,
    mut attempts: Vec<Attempt>,
    machines: usize,
) -> Vec<(usize, (u64, u64, u64))> {
    // One sort puts every port's attempts in `(start, end)` order, ties in
    // delivery order; a counting sort then files each attempt under its
    // tx and its rx port, keeping that order. Attempts are recorded in
    // start order, and the run-merging stable sort finds what is already
    // in order.
    attempts.retain(|a| a.delivered != Attempt::UNDELIVERED);
    attempts.sort_by_key(|a| (a.start, a.end, a.delivered));
    let mut start = vec![0usize; 2 * machines + 1];
    for a in &attempts {
        start[a.src as usize + 1] += 1;
        start[machines + a.dst as usize + 1] += 1;
    }
    for p in 0..2 * machines {
        start[p + 1] += start[p];
    }
    let mut by_port = vec![Span::default(); 2 * attempts.len()];
    let mut next = start.clone();
    for a in &attempts {
        let span = Span {
            start: a.start,
            end: a.end,
            bytes: a.bytes,
        };
        for port in [a.src as usize, machines + a.dst as usize] {
            by_port[next[port]] = span;
            next[port] += 1;
        }
    }
    (0..2 * machines)
        .filter_map(|port| {
            let list = &by_port[start[port]..start[port + 1]];
            Some((
                port,
                busy_periods(list).find_map(|p| first_violation(cap, p))?,
            ))
        })
        .collect()
}

/// Splits a port's attempts, sorted by `(start, end)`, into maximal busy
/// periods: runs in which each attempt starts before every earlier one
/// has ended. No window that crosses a gap can be tighter than one
/// inside a period.
fn busy_periods(list: &[Span]) -> impl Iterator<Item = &[Span]> {
    let mut rest = list;
    std::iter::from_fn(move || {
        let mut max_end = rest.first()?.end;
        let len = rest
            .iter()
            .skip(1)
            .position(|a| {
                let gap = a.start >= max_end;
                max_end = max_end.max(a.end);
                gap
            })
            .map_or(rest.len(), |n| n + 1);
        let (period, tail) = rest.split_at(len);
        rest = tail;
        Some(period)
    })
}

/// Whether `sum` bytes over `span_ns` exceed `cap` beyond the tolerance.
fn exceeds(cap: f64, sum: u64, span_ns: u64) -> bool {
    sum as f64 > cap * (span_ns as f64 / 1e9) * (1.0 + CAPACITY_REL_TOL) + CAPACITY_ABS_SLACK
}

/// The earliest over-committed window of one busy period (sorted by
/// `(start, end)`), as `(anchor, bytes, end)`: the smallest violating
/// anchor, and within it the first attempt in `(end, start)` order at
/// which the running sum exceeds the bound.
fn first_violation(cap: f64, period: &[Span]) -> Option<(u64, u64, u64)> {
    let anchors = flagged_anchors(cap, period);
    if anchors.is_empty() {
        return None;
    }
    let mut by_end: Vec<&Span> = period.iter().collect();
    by_end.sort_by_key(|a| (a.end, a.start));
    anchors.into_iter().find_map(|a| {
        let mut sum = 0u64;
        by_end
            .iter()
            .filter(|iv| iv.start >= a && iv.end > a)
            .find_map(|iv| {
                sum += iv.bytes;
                exceeds(cap, sum, iv.end - a).then_some((a, sum, iv.end))
            })
    })
}

/// Ascending starts of the anchors whose windows may over-commit the
/// port: a superset of the violating ones, by a margin far above the
/// sweep's rounding, so [`first_violation`] confirms each exactly.
///
/// With `c` the tolerated capacity in bytes/ns, a window `[a, e]` holding
/// `S_a(e)` bytes violates iff `S_a(e) − c·(e − a) > slack`, that is iff
/// `S_a(e) − c·e > slack − c·a`. The tree holds `S_a(e) − c·e` for each
/// end `e > a`, so its max is the anchor's worst window. Times are taken
/// relative to the period's first start to keep the floats small.
fn flagged_anchors(cap: f64, period: &[Span]) -> Vec<u64> {
    let Some(t0) = period.first().map(|a| a.start) else {
        return Vec::new();
    };
    let c = cap * (1.0 + CAPACITY_REL_TOL) / 1e9;
    let mut ends: Vec<u64> = period.iter().map(|a| a.end).collect();
    ends.sort_unstable();
    ends.dedup();
    // A corrupt log may hold an attempt that ends before it starts, even
    // before `t0`; such an end is never after an anchor.
    let span = ends.last().map_or(0, |&e| e.saturating_sub(t0));
    let total: u128 = period.iter().map(|a| u128::from(a.bytes)).sum();
    let margin = 1.0 + 1e-9 * (total as f64 + c * span as f64);
    let mut tree = SuffixMax::new(ends.len());

    // An attempt lies in the windows `(a, e]` of the anchors `a` with
    // `a <= start` and `a < end`: it joins the sweep at the first anchor
    // at or below `min(start, end - 1)`. That is its own start unless it
    // ends there or earlier.
    let mut leaf = 0;
    let mut joining: Vec<(u64, usize, u64)> = period
        .iter()
        .filter_map(|iv| {
            let last_anchor = iv.start.min(iv.end.checked_sub(1)?);
            leaf = rank_near(&ends, iv.end, leaf);
            Some((last_anchor, leaf, iv.bytes))
        })
        .collect();
    joining.sort_unstable_by_key(|&(last_anchor, ..)| last_anchor);

    let mut flagged = Vec::new();
    // Ends at `ends[after..]` lie after the current anchor.
    let mut after = ends.len();
    for (i, iv) in period.iter().enumerate().rev() {
        let a = iv.start;
        if period.get(i + 1).is_some_and(|next| next.start == a) {
            continue;
        }
        while let Some(&(_, leaf, bytes)) = joining.last().filter(|j| j.0 >= a) {
            tree.add_from(leaf, bytes);
            joining.pop();
        }
        while after > 0 && ends[after - 1] > a {
            after -= 1;
            tree.set(after, -c * (ends[after] - t0) as f64);
        }
        if tree.max() > CAPACITY_ABS_SLACK - c * (a - t0) as f64 - margin {
            flagged.push(a);
        }
    }
    flagged.reverse();
    flagged
}

/// `ends.partition_point(|&e| e < x)`, bracketed by doubling steps out
/// from `hint`: in start order, consecutive attempts' ends lie close
/// together in `ends`.
fn rank_near(ends: &[u64], x: u64, hint: usize) -> usize {
    let (mut lo, mut hi, mut step) = (0, ends.len(), 1);
    if ends.get(hint).is_some_and(|&e| e < x) {
        lo = hint + 1;
        while let Some(&e) = ends.get(hint + step) {
            if e >= x {
                hi = hint + step;
                break;
            }
            lo = hint + step + 1;
            step *= 2;
        }
    } else {
        let h = hint.min(ends.len());
        hi = h;
        while step <= h {
            if ends[h - step] < x {
                lo = h - step + 1;
                break;
            }
            hi = h - step;
            step *= 2;
        }
    }
    lo + ends[lo..hi].partition_point(|&e| e < x)
}

/// Suffix-add / max over an array of leaves that start at −∞ and are set
/// once each: a segment tree whose byte additions stay in tags at the
/// covering nodes, so a value rounds once per level, never once per add.
/// Every update walks one leaf-to-root path; the max is read at the root.
struct SuffixMax {
    size: usize,
    /// Per node: the max over its children's values, its own tag excluded
    /// (at a leaf, the leaf's base value), and the bytes added to its
    /// whole subtree. Sums of byte counts are exact below 2⁵³ bytes and
    /// cannot overflow.
    node: Vec<Node>,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    below: f64,
    tag: f64,
}

impl Node {
    fn value(self) -> f64 {
        self.below + self.tag
    }
}

impl SuffixMax {
    fn new(leaves: usize) -> SuffixMax {
        let size = leaves.next_power_of_two();
        let empty = Node {
            below: f64::NEG_INFINITY,
            tag: 0.0,
        };
        SuffixMax {
            size,
            node: vec![empty; 2 * size],
        }
    }

    /// Sets leaf `i`'s base value; bytes already added over it still count.
    /// The walk up stops at the first ancestor whose max it leaves alone.
    fn set(&mut self, i: usize, base: f64) {
        let mut n = self.size + i;
        self.node[n].below = base;
        // Each level's value stays in a register; only siblings are read.
        let mut value = self.node[n].value();
        while n > 1 {
            let below = value.max(self.node[n ^ 1].value());
            n /= 2;
            if below == self.node[n].below {
                break;
            }
            self.node[n].below = below;
            value = self.node[n].value();
        }
    }

    /// Adds `bytes` to every leaf at or after `from`: the leaf, and the
    /// right sibling of each left child on its path to the root.
    fn add_from(&mut self, from: usize, bytes: u64) {
        if from >= self.size {
            return;
        }
        let mut n = from + self.size;
        let bytes = bytes as f64;
        self.node[n].tag += bytes;
        let mut value = self.node[n].value();
        while n > 1 {
            if n.is_multiple_of(2) {
                self.node[n + 1].tag += bytes;
            }
            let below = value.max(self.node[n ^ 1].value());
            n /= 2;
            self.node[n].below = below;
            value = self.node[n].value();
        }
    }

    /// Max over all leaves (−∞ while none is set).
    fn max(&self) -> f64 {
        self.node[1].value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The quadratic scan the sweep replaced, at stride 1: every anchor in
    /// `(start, end)` order, every end in `(end, start)` order, the first
    /// violating window of each port reported.
    fn oracle(cap: f64, attempts: &[Attempt]) -> Vec<(u64, String)> {
        let mut out = Vec::new();
        let mut tx: BTreeMap<u32, Vec<Attempt>> = BTreeMap::new();
        let mut rx: BTreeMap<u32, Vec<Attempt>> = BTreeMap::new();
        for &a in attempts {
            tx.entry(a.src).or_default().push(a);
            rx.entry(a.dst).or_default().push(a);
        }
        for (port, mut list, dir) in tx
            .into_iter()
            .map(|(p, l)| (p, l, "tx"))
            .chain(rx.into_iter().map(|(p, l)| (p, l, "rx")))
        {
            list.sort_by_key(|a| (a.start, a.end));
            let mut period: Vec<Attempt> = Vec::new();
            let mut max_end = 0u64;
            let sentinel = Attempt {
                src: 0,
                dst: 0,
                start: u64::MAX,
                end: u64::MAX,
                bytes: 0,
                delivered: 0,
            };
            for a in list.into_iter().chain(std::iter::once(sentinel)) {
                if a.start >= max_end && !period.is_empty() {
                    if let Some(v) = oracle_period(cap, port, dir, &period) {
                        out.push(v);
                        break;
                    }
                    period.clear();
                }
                if a.start != u64::MAX {
                    max_end = max_end.max(a.end);
                    period.push(a);
                }
            }
        }
        out
    }

    fn oracle_period(cap: f64, port: u32, dir: &str, period: &[Attempt]) -> Option<(u64, String)> {
        let mut by_end: Vec<&Attempt> = period.iter().collect();
        by_end.sort_by_key(|a| (a.end, a.start));
        for anchor in period {
            let a = anchor.start;
            let mut sum = 0u64;
            for iv in &by_end {
                if iv.start < a || iv.end <= a {
                    continue;
                }
                sum += iv.bytes;
                let span_secs = (iv.end - a) as f64 / 1e9;
                if sum as f64 > cap * span_secs * (1.0 + CAPACITY_REL_TOL) + CAPACITY_ABS_SLACK {
                    let message = format!(
                        "port m{port} ({dir}): {sum} bytes delivered in a {:.3}ms window — \
                         exceeds capacity {:.0} bytes/sec",
                        (iv.end - a) as f64 / 1e6,
                        cap
                    );
                    return Some((a, message));
                }
            }
        }
        None
    }

    /// The sweep's report on machines 0, 1 and 2, each its own slot.
    fn sweep(cap: f64, attempts: &[Attempt]) -> Vec<(u64, String)> {
        overcommitted(cap, attempts.to_vec(), 3)
            .into_iter()
            .map(|(port, (a, sum, end))| {
                let (machine, dir) = if port < 3 {
                    (port, "tx")
                } else {
                    (port - 3, "rx")
                };
                let message = format!(
                    "port m{machine} ({dir}): {sum} bytes delivered in a {:.3}ms window — \
                     exceeds capacity {cap:.0} bytes/sec",
                    (end - a) as f64 / 1e6,
                );
                (a, message)
            })
            .collect()
    }

    /// Bytes the window bound allows over `span_ns`, rounded down.
    fn bound(cap: f64, span_ns: u64) -> u64 {
        (cap * (span_ns as f64 / 1e9) * (1.0 + CAPACITY_REL_TOL) + CAPACITY_ABS_SLACK) as u64
    }

    /// Attempts on a coarse grid of `unit` ns, so starts and ends tie and
    /// intervals nest, touch and stand apart. Byte counts are small, a
    /// few bytes either side of the attempt's own bound, about half of
    /// it (two such attempts straddle a shared window's bound), or far
    /// over it.
    fn attempts(
        n: std::ops::Range<usize>,
        slots: u64,
        unit: u64,
    ) -> impl Strategy<Value = Vec<Attempt>> {
        prop::collection::vec((0u32..3, 1u32..3, 0..slots, 0u64..14, 0u8..4, 0u64..5), n).prop_map(
            move |raw| {
                raw.into_iter()
                    .enumerate()
                    .map(|(n, (src, shift, slot, len, kind, jitter))| {
                        // Lengths 12 and 13 make an attempt that ends one or
                        // two units before it starts, as only a corrupt log
                        // can hold.
                        let (start, end) = if len < 12 {
                            (slot * unit, (slot + len) * unit)
                        } else {
                            ((slot + len - 11) * unit, slot * unit)
                        };
                        let own = bound(1e9, end.abs_diff(start));
                        let bytes = match kind {
                            0 => jitter * 300,
                            1 => own - 2 + jitter,
                            2 => own / 2 - 2 + jitter,
                            _ => 3 * own,
                        };
                        // Delivered in list order.
                        Attempt {
                            src,
                            dst: (src + shift) % 3,
                            start,
                            end,
                            bytes,
                            delivered: n as u64,
                        }
                    })
                    .collect()
            },
        )
    }

    proptest! {
        #[test]
        fn sweep_matches_the_quadratic_scan(
            list in attempts(0..40, 40, 1_000),
            cap in prop_oneof![Just(1e9), 0.5e9f64..3e9],
        ) {
            prop_assert_eq!(sweep(cap, &list), oracle(cap, &list));
        }

        #[test]
        fn sweep_matches_on_long_busy_periods(
            list in attempts(100..300, 400, 700),
            cap in 0.8e9f64..2e9,
        ) {
            prop_assert_eq!(sweep(cap, &list), oracle(cap, &list));
        }
    }

    #[test]
    fn zero_length_attempt_counts_only_for_earlier_anchors() {
        let at = |start, end, bytes| Attempt {
            src: 0,
            dst: 1,
            start,
            end,
            bytes,
            delivered: start,
        };
        // 3000 bytes ending at their own start fit no window anchored
        // there, but with the attempt before them they overfill [0, 1000].
        let list = [at(0, 1_000, 100), at(500, 500, 3_000)];
        assert!(sweep(1e9, &list[1..]).is_empty());
        assert_eq!(sweep(1e9, &list), oracle(1e9, &list));
        assert_eq!(sweep(1e9, &list).len(), 2, "{:?}", sweep(1e9, &list));
        // Beside a real over-commitment at the same anchor, inside a busy
        // period that began long before, they add nothing to its window.
        let list = [
            at(0, 10_500, 100),
            at(10_000, 10_000, 3_000),
            at(10_000, 11_000, 4_000),
        ];
        assert_eq!(sweep(1e9, &list), oracle(1e9, &list));
        assert!(
            sweep(1e9, &list)[0].1.contains(": 4000 bytes"),
            "{:?}",
            sweep(1e9, &list)
        );
    }

    proptest! {
        #[test]
        fn rank_near_matches_a_plain_search(
            raw in prop::collection::vec(0u64..50, 0..40),
            x in 0u64..55,
            hint in 0usize..45,
        ) {
            let mut ends = raw;
            ends.sort_unstable();
            ends.dedup();
            prop_assert_eq!(rank_near(&ends, x, hint), ends.partition_point(|&e| e < x));
        }

        #[test]
        fn suffix_max_matches_a_plain_array(
            n in 1usize..40,
            ops in prop::collection::vec((0usize..45, (-1e6f64..1e6).prop_map(f64::round), 0u8..3), 0..80),
        ) {
            let mut tree = SuffixMax::new(n);
            let mut base = vec![f64::NEG_INFINITY; n];
            let mut added = vec![0u64; n];
            for (i, v, op) in ops {
                match op {
                    0 if i < n => {
                        tree.set(i, v);
                        base[i] = v;
                    }
                    1 => {
                        let bytes = v.abs() as u64;
                        tree.add_from(i, bytes);
                        added.iter_mut().skip(i).for_each(|a| *a += bytes);
                    }
                    _ => {}
                }
                let want = base
                    .iter()
                    .zip(&added)
                    .map(|(&b, &a)| b + a as f64)
                    .fold(f64::NEG_INFINITY, f64::max);
                prop_assert_eq!(tree.max(), want);
            }
        }
    }
}
