//! The class index: a flow set kept in the shape the water-fill reads.
//!
//! [`ClassIndex`] lists every flow as a [`Member`] (its slot, source and
//! destination) in canonical order: by priority, most urgent first, then
//! by source, then by destination. Two indexes of the same multiset of
//! flows hold the same sequence of specs, in whatever order the flows
//! arrived. Next to the members it keeps, for every class present, the
//! class's bounds in the member list and its per-link flow counts,
//! transit hops included: how many of the class's routes cross each link.
//!
//! The counts also say where each source's members start. Within a class
//! they are contiguous, ordered by source, and a source's tx port is on
//! its routes alone, so the tx port's count is the length of the
//! source's run ([`ClassView::sources`]).
//!
//! The index also keeps an order-free fingerprint of the multiset (a
//! wrapping sum of one 64-bit mix per flow). Every [`ClassIndex::push`]
//! and [`ClassIndex::swap_remove`] updates all of these, so the fill never
//! decodes, sorts or recounts its input. Slots follow the owner's flow
//! list: a push takes the next slot, and a removal renumbers the last
//! flow into the freed slot, as `Vec::swap_remove` moves it. A push
//! checks its flow against the graph, so every indexed flow names two
//! distinct machines of it.

use super::FlowSpec;
use crate::multilink::LinkGraph;
use crate::types::Priority;
use p3_des::SplitMix64;

/// The most machines an index can address: machine indices are kept in
/// 32 bits.
pub(crate) const MAX_MACHINES: usize = u32::MAX as usize;

/// Bits of a machine index in a flow's fingerprint key.
const MACHINE_BITS: u32 = 48;

/// One indexed flow: its slot in the owner's flow list, its source and
/// its destination. Its priority is its class's.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    pub(crate) slot: u32,
    src: u32,
    dst: u32,
}

impl Member {
    fn new(slot: u32, src: u32, dst: u32) -> Self {
        Member { slot, src, dst }
    }

    /// The order of members within a class, by source then destination,
    /// as one integer: a search compares it without a branch.
    fn key(self) -> u64 {
        u64::from(self.src) << 32 | u64::from(self.dst)
    }

    /// The transmitting machine.
    pub(crate) fn src(self) -> usize {
        self.src as usize
    }

    /// The receiving machine.
    pub(crate) fn dst(self) -> usize {
        self.dst as usize
    }
}

/// One class present in the index.
#[derive(Debug, Clone, Copy)]
struct Class {
    priority: Priority,
    /// Where the class's members end; they start where the previous
    /// class's end.
    end: u32,
    /// The class's row of link counts in [`ClassIndex::counts`].
    row: u32,
}

/// The flows of a fabric in canonical order, grouped by class, with each
/// class's link counts and the multiset's fingerprint.
#[derive(Debug)]
pub(crate) struct ClassIndex {
    members: Vec<Member>,
    classes: Vec<Class>,
    /// Rows of `links` counts each; a class owns one.
    counts: Vec<u32>,
    /// Rows no class owns. Their counts are all zero.
    free: Vec<u32>,
    /// Links of the graph the index counts routes on.
    links: usize,
    fingerprint: u64,
}

/// One class as the fill reads it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClassView<'a> {
    pub(crate) priority: Priority,
    /// The class's members in canonical order.
    pub(crate) members: &'a [Member],
    /// How many of the members cross each link.
    pub(crate) counts: &'a [u32],
}

impl<'a> ClassView<'a> {
    /// Each source of the class with its members, in source order: a
    /// source's run is as long as its tx port's count.
    pub(crate) fn sources(&self) -> impl Iterator<Item = (usize, &'a [Member])> + 'a {
        let (mut rest, counts) = (self.members, self.counts);
        std::iter::from_fn(move || {
            let src = rest.first()?.src();
            let len = counts.get(src).map_or(0, |&n| n as usize);
            let (run, tail) = rest.split_at(len.clamp(1, rest.len()));
            rest = tail;
            Some((src, run))
        })
    }
}

impl ClassIndex {
    /// An empty index of flows routed over `graph`.
    pub(crate) fn new(graph: &LinkGraph) -> Self {
        ClassIndex {
            members: Vec::new(),
            classes: Vec::new(),
            counts: Vec::new(),
            free: Vec::new(),
            links: graph.num_links(),
            fingerprint: 0,
        }
    }

    /// Indexes `flows` in slot order.
    ///
    /// # Panics
    ///
    /// As [`ClassIndex::push`].
    pub(crate) fn build(flows: impl Iterator<Item = FlowSpec>, graph: &LinkGraph) -> Self {
        let mut index = ClassIndex::new(graph);
        for f in flows {
            index.push(f, graph);
        }
        index
    }

    /// Number of indexed flows.
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// Links of the graph the index was built over.
    pub(crate) fn links(&self) -> usize {
        self.links
    }

    /// Every flow in canonical order.
    pub(crate) fn members(&self) -> &[Member] {
        &self.members
    }

    /// The order-free fingerprint of the indexed flow multiset.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Every class present, most urgent first.
    pub(crate) fn classes(&self) -> impl Iterator<Item = ClassView<'_>> {
        let mut start = 0;
        self.classes.iter().map(move |c| {
            let end = c.end as usize;
            let row = c.row as usize * self.links;
            let view = ClassView {
                priority: c.priority,
                members: self.members.get(start..end).unwrap_or_default(),
                counts: self.counts.get(row..row + self.links).unwrap_or_default(),
            };
            start = end;
            view
        })
    }

    /// Adds `spec` at the next slot, after every indexed flow whose spec
    /// is not greater.
    ///
    /// # Panics
    ///
    /// Panics if the flow references a machine outside `graph`, or is a
    /// loopback pair, or if the index is full (`u32::MAX` flows) or was
    /// built over a graph with another link count.
    #[expect(
        clippy::indexing_slicing,
        reason = "c indexes classes (a found or inserted class), and the class's row lies within counts"
    )]
    #[inline]
    pub(crate) fn push(&mut self, spec: FlowSpec, graph: &LinkGraph) {
        let machines = graph.machines().min(MAX_MACHINES);
        assert!(
            spec.src < machines && spec.dst < machines,
            "flow {spec:?} references unknown machine"
        );
        assert!(
            spec.src != spec.dst,
            "loopback flow {spec:?} has no path in the graph"
        );
        assert!(self.members.len() < u32::MAX as usize, "class index full");
        assert_eq!(
            self.links,
            graph.num_links(),
            "class index of another graph"
        );
        let (src, dst) = (spec.src as u32, spec.dst as u32);
        let slot = self.members.len() as u32;

        // The class, added empty if absent. Classes tile the members, so
        // each starts where the one before it ends.
        let c = match self
            .classes
            .binary_search_by_key(&spec.priority, |k| k.priority)
        {
            Ok(c) => c,
            Err(c) => self.add_class(c, spec.priority),
        };
        let lo = c.checked_sub(1).map_or(0, |p| self.classes[p].end);
        let class = &self.members[lo as usize..self.classes[c].end as usize];
        let new = Member::new(slot, src, dst);
        // Flows often start in canonical order: then the new member goes
        // last, with no search.
        let at = lo as usize
            + match class.last() {
                Some(m) if m.key() > new.key() => class.partition_point(|m| m.key() <= new.key()),
                _ => class.len(),
            };
        self.members.insert(at, new);
        for k in &mut self.classes[c..] {
            k.end += 1;
        }
        let row = self.classes[c].row as usize * self.links;
        on_route(
            &mut self.counts[row..row + self.links],
            graph,
            src,
            dst,
            |n| {
                *n += 1;
            },
        );
        self.fingerprint = self.fingerprint.wrapping_add(mix(spec.priority, src, dst));
    }

    /// Removes the flow at `slot` and renumbers the last slot's flow into
    /// it, as `Vec::swap_remove(slot)` on the owner's flow list moves it.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not an indexed slot.
    #[expect(
        clippy::indexing_slicing,
        reason = "at is the removed member's position, so a class holds it, and the class's row lies within counts"
    )]
    #[inline]
    pub(crate) fn swap_remove(&mut self, slot: usize, graph: &LinkGraph) {
        let last = self.members.len().checked_sub(1);
        assert!(last.is_some_and(|l| slot <= l), "slot {slot} not indexed");
        let (slot, last) = (slot as u32, last.unwrap_or_default() as u32);
        let mut at = None;
        let mut renumbered = last == slot;
        for (i, m) in self.members.iter_mut().enumerate() {
            if m.slot == slot {
                at = Some(i);
            } else if m.slot == last {
                m.slot = slot;
                renumbered = true;
            } else {
                continue;
            }
            if at.is_some() && renumbered {
                break;
            }
        }
        let Some(at) = at else { return };
        let gone = self.members.remove(at);
        let c = self.classes.partition_point(|k| k.end as usize <= at);
        for k in &mut self.classes[c..] {
            k.end -= 1;
        }
        // Classes tile the members, so each starts where the one before
        // it ends.
        let class_lo = c.checked_sub(1).map_or(0, |p| self.classes[p].end);
        let class = self.classes[c];
        let row = class.row as usize * self.links;
        let (src, dst) = (gone.src() as u32, gone.dst() as u32);
        on_route(
            &mut self.counts[row..row + self.links],
            graph,
            src,
            dst,
            |n| {
                *n -= 1;
            },
        );
        if class.end == class_lo {
            self.drop_class(c);
        }
        self.fingerprint = self.fingerprint.wrapping_sub(mix(class.priority, src, dst));
    }

    /// Inserts an empty class of `priority` at `c`, where the classes
    /// before it end, with a row of zero counts. Returns `c`.
    #[cold]
    fn add_class(&mut self, c: usize, priority: Priority) -> usize {
        let end = c
            .checked_sub(1)
            .and_then(|p| self.classes.get(p))
            .map_or(0, |k| k.end);
        let row = self.free.pop().unwrap_or_else(|| {
            let row = self.counts.len() / self.links.max(1);
            self.counts.resize(self.counts.len() + self.links, 0);
            row as u32
        });
        self.classes.insert(c, Class { priority, end, row });
        c
    }

    /// Removes the empty class at `c`; its row of counts, all zero now,
    /// is kept for the next new class.
    #[cold]
    fn drop_class(&mut self, c: usize) {
        let class = self.classes.remove(c);
        self.free.push(class.row);
    }
}

/// Applies `op` to the count of every link on the route `src -> dst`: tx
/// port, transit hops, rx port.
#[expect(
    clippy::indexing_slicing,
    reason = "src and dst are checked machines of the graph the row counts, and transit hops are its links"
)]
#[inline]
fn on_route(row: &mut [u32], graph: &LinkGraph, src: u32, dst: u32, op: impl Fn(&mut u32)) {
    let (src, dst) = (src as usize, dst as usize);
    op(&mut row[src]);
    if graph.has_transit() {
        for l in graph.transit(src, dst) {
            op(&mut row[l.0]);
        }
    }
    op(&mut row[graph.machines() + dst]);
}

/// One flow's term in the fingerprint: SplitMix64's first output seeded
/// with its spec packed as priority, source and destination, folded to 64
/// bits.
fn mix(priority: Priority, src: u32, dst: u32) -> u64 {
    let key = u128::from(priority.0) << (2 * MACHINE_BITS)
        | u128::from(src) << MACHINE_BITS
        | u128::from(dst);
    SplitMix64::new((key >> 64) as u64 ^ key as u64).next_u64()
}

#[cfg(test)]
mod tests;
