//! The fabric's memo of allocations.
//!
//! [`Memo`] remembers what the water-fill returned for a flow set under
//! one capacity epoch: each flow's rate and bottleneck in the class
//! index's canonical order, and the call's [`AllocWork`]. Training repeats
//! the same transfers every iteration, so a fabric keeps meeting flow sets
//! it has already allocated; a replay writes the stored result into the
//! fabric's columns instead of filling them again. A replay is exact: the
//! fill's result for a flow depends only on the multiset and the
//! capacities (order within a class changes no bit), a match of the
//! index's fingerprint is confirmed spec by spec against the stored set
//! before use, and [`Memo::rescale`] starts a new epoch whenever the
//! capacities change.
//!
//! The memo is bounded and lazy. Its direct-mapped table has [`SLOTS`]
//! entries, and their specs and results share a bump arena of [`ARENA`]
//! flows that is emptied, with the table, when full. A set is stored on
//! its second sighting, found through a table of [`SEEN`] recent
//! fingerprints, so flow sets that never recur cost no copy. Nothing is
//! allocated before the first allocation, and a snapshot never carries
//! the memo: a restored fabric starts with an empty one.

use crate::allocator::{AllocWork, ClassIndex, Member};
use crate::types::Priority;

/// Entries in the memo's direct-mapped table.
const SLOTS: usize = 1024;
/// Flows the memo's arena holds across all stored sets.
const ARENA: usize = 16384;
/// Recent fingerprints remembered for second-sighting admission.
const SEEN: usize = 2048;
/// The largest flow set the memo stores. Sets this large seldom recur:
/// they are the parameter server's broadcast fan-out.
const MAX_SET: usize = 256;

/// A flow's spec as one arena word: the priority in the high half,
/// source and destination in the low. `None` when a machine index needs
/// more than 16 bits; a set holding such a flow is not stored.
fn pack(priority: Priority, m: &Member) -> Option<u64> {
    let (src, dst) = (u16::try_from(m.src()).ok()?, u16::try_from(m.dst()).ok()?);
    Some(u64::from(priority.0) << 32 | u64::from(src) << 16 | u64::from(dst))
}

/// True when `specs` holds the packed spec of every flow of `index`, in
/// canonical order.
fn same_set(specs: &[u64], index: &ClassIndex) -> bool {
    let mut specs = specs;
    for class in index.classes() {
        let Some((these, rest)) = specs.split_at_checked(class.members.len()) else {
            return false;
        };
        let pri = class.priority;
        if !these
            .iter()
            .zip(class.members)
            .all(|(&k, m)| pack(pri, m) == Some(k))
        {
            return false;
        }
        specs = rest;
    }
    specs.is_empty()
}

/// A stored flow set: where its specs and results sit in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    epoch: u64,
    start: u32,
    len: u32,
    work: AllocWork,
}

/// Allocations the fabric has made, keyed by their exact flow set.
#[derive(Debug, Default)]
pub(super) struct Memo {
    /// Bumped by every capacity change; an entry counts only in its own.
    epoch: u64,
    /// The direct-mapped table: [`SLOTS`] entries once the first set is
    /// stored.
    table: Vec<Option<Entry>>,
    /// Hashes of recently allocated sets: [`SEEN`] once the first
    /// allocation is offered.
    seen: Vec<u64>,
    /// The arena: stored sets' packed keys, in index order, back to back.
    specs: Vec<u64>,
    /// The arena: each stored flow's rate, parallel to `specs`.
    rates: Vec<f64>,
    /// The arena: each stored flow's bottleneck, as the fill writes it.
    links: Vec<u32>,
}

impl Memo {
    /// Starts a new capacity epoch: no entry stored before it is used
    /// again.
    pub(super) fn rescale(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// The index's fingerprint combined with the epoch.
    fn hash(&self, index: &ClassIndex) -> u64 {
        index.fingerprint() ^ self.epoch.wrapping_mul(0xD6E8_FEB8_6659_FD93)
    }

    /// Writes the stored allocation of `index`'s flow set under the
    /// current epoch into the columns `rates` and `bottleneck`, by slot, as
    /// the fill would have left them, and returns the fill's work. `None`,
    /// with the columns untouched, unless every spec matches.
    pub(super) fn replay(
        &self,
        index: &ClassIndex,
        rates: &mut [f64],
        bottleneck: &mut [u32],
    ) -> Option<AllocWork> {
        let hash = self.hash(index);
        let e = self.table.get(hash as usize % SLOTS)?.as_ref()?;
        let len = index.len();
        if e.hash != hash || e.epoch != self.epoch || e.len as usize != len {
            return None;
        }
        let range = e.start as usize..e.start as usize + len;
        let specs = self.specs.get(range.clone())?;
        if !same_set(specs, index) {
            return None;
        }
        let stored = self.rates.get(range.clone())?.iter();
        let stored = stored.zip(self.links.get(range)?);
        for (m, (&r, &l)) in index.members().iter().zip(stored) {
            let slot = m.slot as usize;
            if let (Some(rate), Some(at)) = (rates.get_mut(slot), bottleneck.get_mut(slot)) {
                (*rate, *at) = (r, l);
            }
        }
        Some(e.work)
    }

    /// Offers the allocation just computed for `index`'s flow set into the
    /// columns `rates` and `bottleneck`. The set is stored if its hash was
    /// offered before and it fits; otherwise its hash is remembered.
    pub(super) fn offer(
        &mut self,
        index: &ClassIndex,
        rates: &[f64],
        bottleneck: &[u32],
        work: AllocWork,
    ) {
        let hash = self.hash(index);
        let len = index.len();
        if len > MAX_SET {
            return;
        }
        if self.seen.is_empty() {
            self.seen = vec![0; SEEN];
        }
        let Some(seen) = self.seen.get_mut((hash >> 32) as usize % SEEN) else {
            return;
        };
        if *seen != hash {
            *seen = hash;
            return;
        }
        if self.table.is_empty() {
            self.table = vec![None; SLOTS];
            self.specs.reserve_exact(ARENA);
            self.rates.reserve_exact(ARENA);
            self.links.reserve_exact(ARENA);
        }
        if self.specs.len() + len > ARENA {
            self.specs.clear();
            self.rates.clear();
            self.links.clear();
            self.table.fill(None);
        }
        let start = self.specs.len();
        for class in index.classes() {
            for m in class.members {
                let slot = m.slot as usize;
                let out = (rates.get(slot), bottleneck.get(slot));
                let (Some(spec), (Some(&rate), Some(&link))) = (pack(class.priority, m), out)
                else {
                    self.specs.truncate(start);
                    self.rates.truncate(start);
                    self.links.truncate(start);
                    return;
                };
                self.specs.push(spec);
                self.rates.push(rate);
                self.links.push(link);
            }
        }
        let epoch = self.epoch;
        if let Some(e) = self.table.get_mut(hash as usize % SLOTS) {
            *e = Some(Entry {
                hash,
                epoch,
                start: start as u32,
                len: len as u32,
                work,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::walk::tests::{racked, restore};
    use super::super::{ActiveFlow, NetStats, Network, NetworkConfig};
    use super::*;
    use crate::allocator::{
        allocate_rates_in_class_order, allocate_rates_on_graph, link, AllocBuffers, FlowSpec,
        RateColumns, NO_LINK,
    };
    use crate::multilink::LinkGraph;
    use crate::types::{Bandwidth, FlowId, MachineId, Priority};
    use p3_des::{SimDuration, SimTime};

    fn flow(src: usize, dst: usize, p: u32) -> FlowSpec {
        FlowSpec {
            src,
            dst,
            priority: Priority(p),
        }
    }

    /// A flat fabric of four 100-byte/s machines.
    fn four() -> LinkGraph {
        LinkGraph::new(&[100.0; 4])
    }

    /// Indexes `flows` over [`four`].
    fn index(flows: impl Iterator<Item = FlowSpec>) -> ClassIndex {
        ClassIndex::build(flows, &four())
    }

    /// A rate column and a bottleneck column.
    type Columns = (Vec<f64>, Vec<u32>);

    /// Fills `index`'s flow set on [`four`], as a fabric would before
    /// offering it: its columns and the fill's work.
    fn fill(index: &ClassIndex) -> (Columns, AllocWork) {
        let g = four();
        let (mut rates, mut bottleneck) = (vec![0.0; index.len()], vec![NO_LINK; index.len()]);
        let out = RateColumns {
            rates: &mut rates,
            bottleneck: &mut bottleneck,
            floor: 0.0,
        };
        let mut work = AllocWork::default();
        let buf = &mut AllocBuffers::default();
        allocate_rates_in_class_order(index, &g, g.caps(), f64::INFINITY, buf, out, &mut work);
        ((rates, bottleneck), work)
    }

    /// Fills `index` and offers the result twice, so the memo stores it.
    fn store(memo: &mut Memo, index: &ClassIndex) -> Columns {
        let ((rates, bottleneck), work) = fill(index);
        memo.offer(index, &rates, &bottleneck, work);
        memo.offer(index, &rates, &bottleneck, work);
        (rates, bottleneck)
    }

    /// What `memo` replays for `index`: rates and bottlenecks by slot.
    fn replay(memo: &Memo, index: &ClassIndex) -> Option<Columns> {
        let (mut rates, mut bottleneck) = (vec![0.0; index.len()], vec![NO_LINK; index.len()]);
        memo.replay(index, &mut rates, &mut bottleneck)?;
        Some((rates, bottleneck))
    }

    /// True when `memo` holds `index`'s flow set.
    fn holds(memo: &Memo, index: &ClassIndex) -> bool {
        replay(memo, index).is_some()
    }

    #[test]
    fn sets_that_share_a_slot_never_share_a_result() {
        let a = index([flow(0, 1, 0), flow(2, 1, 0)].into_iter());
        let mut memo = Memo::default();
        let want = store(&mut memo, &a);
        assert_eq!(replay(&memo, &a), Some(want.clone()));

        // The same fingerprint on a different set of the same size: only
        // the spec-by-spec check tells them apart.
        let mut forged = index([flow(0, 1, 0), flow(3, 1, 0)].into_iter());
        forged.forge_fingerprint(a.fingerprint());
        assert_eq!(replay(&memo, &forged), None);

        // A set whose hash lands in the same slot replaces `a` there.
        let slot = |i: &ClassIndex| memo.hash(i) as usize % SLOTS;
        let rival = (0..100 * SLOTS as u32)
            .map(|p| index([flow(1, 2, p), flow(3, 0, p)].into_iter()))
            .find(|i| slot(i) == slot(&a) && i.fingerprint() != a.fingerprint())
            .expect("some set shares a's slot");
        let rival_want = store(&mut memo, &rival);
        assert_eq!(replay(&memo, &a), None, "a's entry was replaced");
        assert_eq!(replay(&memo, &rival), Some(rival_want));
    }

    #[test]
    fn rescale_retires_stored_entries() {
        let a = index([flow(0, 1, 0), flow(0, 2, 1)].into_iter());
        let mut memo = Memo::default();
        store(&mut memo, &a);
        assert!(holds(&memo, &a));
        memo.rescale();
        assert!(!holds(&memo, &a), "an entry outlived its capacities");
        store(&mut memo, &a);
        assert!(holds(&memo, &a), "the new epoch stores afresh");
    }

    #[test]
    fn a_set_is_stored_on_its_second_sighting_until_the_arena_fills() {
        let mut memo = Memo::default();
        let a = index([flow(0, 1, 0)].into_iter());
        let ((rates, bottleneck), work) = fill(&a);
        memo.offer(&a, &rates, &bottleneck, work);
        assert!(!holds(&memo, &a) && memo.table.is_empty());
        memo.offer(&a, &rates, &bottleneck, work);
        assert!(holds(&memo, &a));
        // Next to `a`, the arena takes `fit` sets of the largest size; the
        // next one empties it first, so only that set is left.
        let big = |p: u32| index((0..MAX_SET).map(|i| flow(i % 4, (i + 1) % 4, p)));
        let fit = (ARENA - 1) / MAX_SET;
        for p in 0..fit as u32 {
            store(&mut memo, &big(p));
        }
        assert_eq!(memo.specs.len(), 1 + fit * MAX_SET);
        store(&mut memo, &big(fit as u32));
        assert_eq!(memo.specs.len(), MAX_SET);
        assert!(!holds(&memo, &a), "a flush kept an entry");
        assert!((0..fit as u32).all(|p| !holds(&memo, &big(p))));
        assert!(holds(&memo, &big(fit as u32)));
        // A set past the size bound is never stored.
        let huge = index((0..MAX_SET + 1).map(|i| flow(i % 4, (i + 1) % 4, 0)));
        store(&mut memo, &huge);
        assert!(!holds(&memo, &huge));
    }

    /// Checks every live flow's rate and bottleneck against a fresh fill of
    /// the live flow set, with no memo, and returns that fill's work.
    fn fresh_fill(n: &Network) -> AllocWork {
        let specs: Vec<FlowSpec> = n.flows.iter().map(ActiveFlow::spec).collect();
        let mut work = AllocWork::default();
        let want = allocate_rates_on_graph(&specs, &n.graph, &n.caps, n.cfg.flow_cap, &mut work);
        let len = n.flows.len();
        assert_eq!((n.rates.len(), n.bottleneck.len()), (len, len), "columns");
        let floor = n.rate_floor();
        let want = want.rates.iter().zip(&want.bottleneck);
        let live = n.flows.iter().zip(n.rates.iter().zip(&n.bottleneck));
        for ((f, (&rate, &at)), (&r, &b)) in live.zip(want) {
            let r = if r < floor { 0.0 } else { r };
            assert_eq!(rate.to_bits(), r.to_bits(), "flow {:?} rate", f.id);
            assert_eq!(link(at), b, "flow {:?}", f.id);
        }
        work
    }

    /// A scripted operation: `(kind, machine, machine, priority, x)`.
    type Op = (u8, usize, usize, u32, u64);

    /// Applies one scripted operation at `now`: a start, a poll at the next
    /// event (which drains), a cancel, a port rescale or a plain poll.
    fn apply(n: &mut Network, now: &mut SimTime, op: Op) {
        let (kind, a, b, p, x) = op;
        *now += SimDuration::from_micros(x % 3);
        match kind {
            0 | 1 => {
                let bytes = 100_000 * (1 + x % 4);
                n.start_flow(*now, MachineId(a), MachineId(b), bytes, Priority(p), x);
            }
            2 => {
                *now = n.next_event_time().unwrap_or(*now).max(*now);
                n.poll(*now);
            }
            3 => {
                let id = n.flow_ids().nth(x as usize % 4).map(|(id, _, _)| id);
                n.cancel_flow(*now, id.unwrap_or(FlowId(u64::MAX)));
            }
            4 => n.set_port_scale(*now, MachineId(a), 0.25 * (1 + b) as f64, 1.0),
            _ => {
                n.poll(*now);
            }
        }
    }

    /// Runs `ops` on a fabric built from `cfg`, restoring it onto a fresh
    /// fabric before op `restore_at`, and checks every flow's rate and
    /// bottleneck and the fabric's [`NetStats`] against a fill with no
    /// memo after every op and the query that allocates it. Returns how
    /// many reallocations the memo could have replayed: those whose set it
    /// held afterwards.
    fn check_against_fresh_fills(cfg: NetworkConfig, ops: &[Op], restore_at: usize) -> usize {
        let mut n = Network::new(cfg.clone());
        let mut now = SimTime::ZERO;
        let mut want = NetStats::default();
        let mut stored = 0;
        for (i, &op) in ops.iter().enumerate() {
            if i == restore_at {
                let mut fresh = Network::new(cfg.clone());
                restore(&mut fresh, &mut n, now);
                assert!(fresh.memo.table.is_empty(), "a restore carried the memo");
                n = fresh;
            }
            let before = n.stats().reallocations;
            apply(&mut n, &mut now, op);
            // Rates are allocated when read.
            n.next_event_time();
            let work = fresh_fill(&n);
            if n.stats().reallocations != before {
                want.reallocations += 1;
                want.flows_touched += n.flows.len() as u64;
                want.waterfill_rounds += work.rounds;
                want.ports_touched += work.port_touches;
                stored += usize::from(holds(&n.memo, &n.by_class));
            }
            want.peak_in_flight = want.peak_in_flight.max(n.flows.len() as u64);
            assert_eq!(n.stats(), want, "after op {i}: {op:?}");
        }
        stored
    }

    /// `ops` followed by polls that drain the fabric, `rounds` times over,
    /// so that later rounds meet earlier rounds' flow sets.
    fn in_rounds(ops: &[Op], rounds: usize) -> Vec<Op> {
        let drain = [(2, 0, 0, 0, 0); 24];
        let round = ops.iter().chain(&drain).copied();
        round
            .clone()
            .cycle()
            .take(rounds * (ops.len() + drain.len()))
            .collect()
    }

    /// Four flat machines at 8 Gbps.
    fn flat() -> NetworkConfig {
        NetworkConfig::new(4, Bandwidth::from_gbps(8.0)).with_latency(SimDuration::from_micros(5))
    }

    #[test]
    fn recurring_sets_are_replayed() {
        // Three transfers started together and drained, three times over:
        // every round meets the first round's flow sets again.
        let starts = [(0, 0, 1, 0, 0), (0, 2, 1, 1, 1), (1, 0, 3, 0, 2)];
        let ops = in_rounds(&starts, 3);
        let stored = check_against_fresh_fills(flat(), &ops, usize::MAX);
        assert!(stored > 0, "no set was stored");

        // Poison the stored rates after two rounds: the third round's
        // first set comes from the memo.
        let mut n = Network::new(flat());
        let mut now = SimTime::ZERO;
        for &op in &in_rounds(&starts, 2) {
            apply(&mut n, &mut now, op);
        }
        assert!(n.is_idle());
        n.memo.rates.fill(1.5e6);
        apply(&mut n, &mut now, starts[0]);
        n.next_event_time();
        assert_eq!(n.rates, [1.5e6], "the set was filled, not replayed");
    }

    #[test]
    fn a_fabric_allocates_no_memo_until_it_stores_a_set() {
        let n = Network::new(racked());
        assert!(n.memo.table.is_empty() && n.memo.seen.is_empty());
        assert_eq!(n.memo.specs.capacity(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever the mix of starts, draining polls, cancels, port
            /// rescales and a snapshot/restore partway through, on a flat
            /// or racked fabric, with or without a per-flow cap, every
            /// flow's rate and bottleneck and the fabric's work counters
            /// equal those of a fill with no memo. The script runs three
            /// times, draining in between, so later rounds replay.
            #[test]
            fn replays_match_a_fill_without_memo(
                ops in prop::collection::vec((0u8..6, 0usize..4, 0usize..4, 0u32..2, 0u64..64), 1..30),
                fabric in 0u8..4,
                restore_at in 0usize..160,
            ) {
                let cfg = if fabric < 2 { flat() } else { racked() };
                // A per-flow cap below a NIC's share leaves some flows
                // bound by no link.
                let cfg = if fabric % 2 == 1 { cfg.with_flow_cap(0.3e9) } else { cfg };
                check_against_fresh_fills(cfg, &in_rounds(&ops, 3), restore_at);
            }
        }
    }
}
