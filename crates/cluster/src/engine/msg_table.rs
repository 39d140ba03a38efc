//! The engine's message table: the context of every live message, keyed
//! by message id, with O(1) register, lookup and remove.
//!
//! Ids are issued in increasing order and most messages die young, so the
//! live ids sit in a window `[oldest live id, newest id]`. The window maps
//! each id to a 4-byte slab slot (or [`VACANT`]); the slab holds the
//! contexts in fixed-size chunks, so growing it never copies a context
//! and freed slots are reused. Memory follows the live message count plus
//! four bytes per id of the window's span.
//!
//! Iteration is in ascending id order, and [`MsgTable::flows`] lists the
//! messages in the fabric in ascending [`FlowId`] order, which are the
//! orders the engine's cancellation paths and the snapshot walk rely on.

use super::types::MsgCtx;
use p3_net::FlowId;
use std::collections::VecDeque;

/// Window entry of an id no live message holds.
const VACANT: u32 = u32::MAX;

/// Contexts per slab chunk, as a power of two.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Every live message's context, indexed by id.
#[derive(Debug, Default)]
pub(crate) struct MsgTable {
    /// Id of the window's first entry; always a live id unless the
    /// window is empty.
    base: u64,
    /// Slab slot of each id in `[base, base + window.len())`.
    window: VecDeque<u32>,
    /// Live contexts, `CHUNK` to a chunk. A chunk is allocated at full
    /// capacity and never grows, so a context never moves.
    chunks: Vec<Vec<MsgCtx>>,
    /// Slots freed by removals, reused last-in first-out.
    free: Vec<u32>,
    live: usize,
}

impl MsgTable {
    /// Widest id span a restored table accepts: the window costs four
    /// bytes per id of it, so a corrupt id must not size it.
    pub(crate) const MAX_SPAN: u64 = 1 << 24;

    /// Number of live messages.
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Registers `ctx` under `id`. Returns false, inserting nothing,
    /// unless `id` is above every id the window covers.
    pub(crate) fn insert(&mut self, id: u64, ctx: MsgCtx) -> bool {
        if self.window.is_empty() {
            self.base = id;
        }
        let end = self.base.checked_add(self.window.len() as u64);
        let Some(gap) = end.and_then(|end| id.checked_sub(end)) else {
            return false;
        };
        let slot = self.alloc(ctx);
        self.window.extend((0..gap).map(|_| VACANT));
        self.window.push_back(slot);
        self.live += 1;
        true
    }

    /// The context of live message `id`.
    pub(crate) fn get(&self, id: u64) -> Option<&MsgCtx> {
        self.slot_of(id).map(|s| self.ctx(s))
    }

    /// The context of live message `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut MsgCtx> {
        let s = self.slot_of(id)?;
        Some(self.ctx_mut(s))
    }

    /// Removes live message `id`, returning its context.
    pub(crate) fn remove(&mut self, id: u64) -> Option<MsgCtx> {
        let off = self.offset(id)?;
        let s = std::mem::replace(self.window.get_mut(off)?, VACANT);
        if s == VACANT {
            return None;
        }
        self.release(s);
        self.trim();
        Some(*self.ctx(s))
    }

    /// Live messages in ascending id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &MsgCtx)> + '_ {
        let base = self.base;
        self.window
            .iter()
            .enumerate()
            .filter(|(_, &s)| s != VACANT)
            .map(move |(i, &s)| (base + i as u64, self.ctx(s)))
    }

    /// Keeps only the messages for which `keep` returns true, visiting
    /// them in ascending id order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(u64, &MsgCtx) -> bool) {
        for i in 0..self.window.len() {
            let s = self.window[i];
            if s != VACANT && !keep(self.base + i as u64, self.ctx(s)) {
                self.window[i] = VACANT;
                self.release(s);
            }
        }
        self.trim();
    }

    /// The messages in the fabric that `pick` selects, as `(flow, id,
    /// context)` in ascending flow id order.
    pub(crate) fn flows(&self, pick: impl Fn(&MsgCtx) -> bool) -> Vec<(FlowId, u64, MsgCtx)> {
        let mut v: Vec<_> = self
            .iter()
            .filter(|(_, ctx)| pick(ctx))
            .filter_map(|(id, ctx)| ctx.flow.map(|f| (f, id, *ctx)))
            .collect();
        v.sort_unstable_by_key(|&(f, ..)| f);
        v
    }

    fn offset(&self, id: u64) -> Option<usize> {
        usize::try_from(id.checked_sub(self.base)?).ok()
    }

    fn slot_of(&self, id: u64) -> Option<u32> {
        let s = *self.window.get(self.offset(id)?)?;
        (s != VACANT).then_some(s)
    }

    fn ctx(&self, s: u32) -> &MsgCtx {
        &self.chunks[(s >> CHUNK_BITS) as usize][s as usize & (CHUNK - 1)]
    }

    fn ctx_mut(&mut self, s: u32) -> &mut MsgCtx {
        &mut self.chunks[(s >> CHUNK_BITS) as usize][s as usize & (CHUNK - 1)]
    }

    fn alloc(&mut self, ctx: MsgCtx) -> u32 {
        if let Some(s) = self.free.pop() {
            *self.ctx_mut(s) = ctx;
            return s;
        }
        if self.chunks.last().is_none_or(|c| c.len() == CHUNK) {
            self.chunks.push(Vec::with_capacity(CHUNK));
        }
        let n = self.chunks.len() - 1;
        let chunk = &mut self.chunks[n];
        chunk.push(ctx);
        ((n << CHUNK_BITS) | (chunk.len() - 1)) as u32
    }

    fn release(&mut self, s: u32) {
        self.free.push(s);
        self.live -= 1;
    }

    /// Drops vacant ids off the window's front, so `base` is live again.
    /// `base` wraps only past id `u64::MAX`, which the window ends with,
    /// so it wraps only as the window empties and `insert` resets it.
    fn trim(&mut self) {
        while self.window.front() == Some(&VACANT) {
            self.window.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::types::MsgKind;
    use super::*;
    use p3_net::Priority;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ctx(key: usize, flow: Option<u64>) -> MsgCtx {
        MsgCtx {
            kind: MsgKind::Push { key, round: 0 },
            src: key % 4,
            dst: 0,
            bytes: 100,
            priority: Priority(key as u32),
            attempt: 0,
            flow: flow.map(FlowId),
        }
    }

    #[test]
    fn ids_must_ascend_and_the_window_trims_from_the_front() {
        let mut t = MsgTable::default();
        assert!(t.insert(5, ctx(0, None)));
        assert!(t.insert(6, ctx(1, None)));
        assert!(!t.insert(6, ctx(2, None)), "repeated id");
        assert!(!t.insert(3, ctx(2, None)), "id below the window");
        assert!(t.insert(9, ctx(3, None)), "a gap is fine");
        assert_eq!(t.window.len(), 5);
        assert!(t.remove(6).is_some());
        assert_eq!(
            (t.base, t.window.len()),
            (5, 5),
            "middle removal keeps the span"
        );
        assert!(t.remove(5).is_some());
        assert_eq!(
            (t.base, t.window.len()),
            (9, 1),
            "front removal trims to the next live id"
        );
        assert!(t.remove(9).is_some());
        assert!(t.window.is_empty());
        assert!(
            t.insert(2, ctx(4, None)),
            "an empty table restarts anywhere"
        );
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn nothing_follows_the_last_id() {
        let mut t = MsgTable::default();
        assert!(t.insert(u64::MAX, ctx(0, None)));
        assert!(!t.insert(u64::MAX, ctx(1, None)), "repeated id");
        assert!(!t.insert(3, ctx(2, None)), "no id is above u64::MAX");
        assert_eq!(t.iter().map(|(id, _)| id).collect::<Vec<_>>(), [u64::MAX]);
        assert!(t.remove(u64::MAX).is_some());
        assert!(t.insert(3, ctx(3, None)));
    }

    #[test]
    fn slots_are_reused_and_chunks_never_grow() {
        let mut t = MsgTable::default();
        for id in 0..(2 * CHUNK as u64 + 1) {
            assert!(t.insert(id, ctx(id as usize, None)));
        }
        assert_eq!(t.chunks.len(), 3);
        assert!(t.chunks.iter().all(|c| c.capacity() == CHUNK));
        let s = t.slot_of(7).unwrap();
        t.remove(7);
        assert!(t.insert(5_000, ctx(7, None)));
        assert_eq!(t.slot_of(5_000), Some(s), "the freed slot is reused");
        assert_eq!(t.chunks.len(), 3);
    }

    /// One step of a random message lifecycle, mirroring what the engine
    /// does to its table.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `register_msg`: the next id.
        Register,
        /// The `n`-th live message (mod the live count) enters the fabric.
        Start(usize),
        /// Delivered: the message leaves the table.
        Deliver(usize),
        /// Lost in the fabric: it stays, out of the fabric, for a retry.
        Lose(usize),
        /// Cancelled by a crash: every message whose key is `k` mod 4.
        Purge(usize),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..5, 0usize..64).prop_map(|(tag, n)| match tag {
            0 => Op::Register,
            1 => Op::Start(n),
            2 => Op::Deliver(n),
            3 => Op::Lose(n),
            _ => Op::Purge(n),
        })
    }

    fn nth_id(reference: &BTreeMap<u64, MsgCtx>, n: usize) -> Option<u64> {
        let len = reference.len();
        (len > 0).then(|| *reference.keys().nth(n % len).unwrap())
    }

    proptest! {
        /// The table agrees with a `BTreeMap` under any interleaving of
        /// register, deliver, cancel, lose-and-retransmit and crash
        /// purges: same lookups, same ascending-id iteration, same
        /// in-fabric list in flow id order, and a window that starts at
        /// the oldest live id and never outgrows the ids issued.
        #[test]
        fn table_matches_a_btreemap_reference(ops in prop::collection::vec(op(), 1..300)) {
            let mut t = MsgTable::default();
            let mut reference: BTreeMap<u64, MsgCtx> = BTreeMap::new();
            let (mut next_id, mut next_flow) = (0u64, 0u64);
            for op in ops {
                match op {
                    Op::Register => {
                        let c = ctx(next_id as usize, None);
                        prop_assert!(t.insert(next_id, c));
                        reference.insert(next_id, c);
                        next_id += 1;
                    }
                    Op::Start(n) | Op::Lose(n) => {
                        let Some(id) = nth_id(&reference, n) else { continue };
                        let flow = match op {
                            Op::Start(_) => {
                                next_flow += 1;
                                Some(FlowId(next_flow - 1))
                            }
                            _ => None,
                        };
                        reference.get_mut(&id).unwrap().flow = flow;
                        t.get_mut(id).unwrap().flow = flow;
                    }
                    Op::Deliver(n) => {
                        let Some(id) = nth_id(&reference, n) else { continue };
                        let gone = t.remove(id).map(|c| c.priority);
                        prop_assert_eq!(gone, reference.remove(&id).map(|c| c.priority));
                        prop_assert!(t.remove(id).is_none());
                    }
                    Op::Purge(k) => {
                        reference.retain(|_, c| c.src != k % 4);
                        let mut seen = Vec::new();
                        t.retain(|id, c| {
                            seen.push(id);
                            c.src != k % 4
                        });
                        prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "retain order");
                    }
                }
                prop_assert_eq!(t.len(), reference.len());
                let ids: Vec<u64> = t.iter().map(|(id, _)| id).collect();
                let want: Vec<u64> = reference.keys().copied().collect();
                prop_assert_eq!(&ids, &want);
                for id in 0..next_id + 2 {
                    let got = t.get(id).map(|c| (c.priority, c.flow));
                    prop_assert_eq!(got, reference.get(&id).map(|c| (c.priority, c.flow)));
                }
                let mut flows: Vec<(FlowId, u64)> = reference
                    .iter()
                    .filter_map(|(&id, c)| c.flow.map(|f| (f, id)))
                    .collect();
                flows.sort_unstable();
                let got: Vec<(FlowId, u64)> = t.flows(|_| true).iter().map(|&(f, id, _)| (f, id)).collect();
                prop_assert_eq!(got, flows);
                match reference.keys().next() {
                    Some(&oldest) => prop_assert_eq!(t.base, oldest),
                    None => prop_assert!(t.window.is_empty()),
                }
                prop_assert!(t.base + t.window.len() as u64 <= next_id);
                let slots = t.chunks.iter().map(Vec::len).sum::<usize>();
                prop_assert_eq!(slots, t.len() + t.free.len(), "every slot is live or free");
            }
        }
    }
}
