//! The replay's dense addressing. Before the replay, a pre-pass numbers
//! the machines, keys and messages the events name, and the
//! (machine, key) cells they touch, so that every piece of replay state
//! lives in a flat vector indexed by slot.
//!
//! Slots are numbered in id order. An id kind whose ids are exactly
//! `0..n`, as every simulator trace's are, uses each id as its own slot;
//! a direct table of the ids below a bound proportional to the log's
//! length finds that out. Any other kind is sorted and looked up by
//! binary search. Either way the tables are sized by the log's length,
//! never by an id's value.

use p3_trace::{MsgClass, TimedEvent, TraceEvent};

/// No slot: an empty list link, a message's missing destination.
pub(crate) const NONE: u32 = u32::MAX;

/// Dense slots for the distinct ids of one kind, numbered in id order.
#[derive(Debug)]
pub(crate) enum Interner {
    /// The ids are exactly `0..n`; each id is its own slot.
    Identity(usize),
    /// Any other ids, sorted and distinct: an id's slot is its rank.
    Sorted(Vec<u64>),
}

impl Interner {
    /// The slot of `id`, if the log names it.
    #[inline]
    pub(crate) fn slot(&self, id: u64) -> Option<usize> {
        match self {
            Interner::Identity(n) => (id < *n as u64).then_some(id as usize),
            Interner::Sorted(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// The id of a slot.
    pub(crate) fn id(&self, slot: usize) -> u64 {
        match self {
            Interner::Identity(_) => slot as u64,
            Interner::Sorted(ids) => ids[slot],
        }
    }

    /// Number of distinct ids.
    pub(crate) fn len(&self) -> usize {
        match self {
            Interner::Identity(n) => *n,
            Interner::Sorted(ids) => ids.len(),
        }
    }

    /// Interns a list of ids, in any order and with repeats.
    fn of(ids: &[u64]) -> Interner {
        let mut b = Builder::new(ids.len());
        ids.iter().for_each(|&id| b.add(id));
        b.finish()
    }
}

/// One id kind's table, filled in one walk over its occurrences.
#[derive(Debug)]
struct Builder {
    /// Ids below this are marked in `seen`.
    bound: u64,
    /// Per id below the bound: whether the log names it.
    seen: Vec<bool>,
    /// The ids at or above the bound.
    sparse: Vec<u64>,
}

impl Builder {
    /// A builder whose table never grows past about twice `len`.
    fn new(len: usize) -> Builder {
        Builder {
            bound: 2 * len as u64 + 64,
            seen: Vec::new(),
            sparse: Vec::new(),
        }
    }

    fn add(&mut self, id: u64) {
        if id < self.bound {
            let i = id as usize;
            if i >= self.seen.len() {
                self.seen.resize(i + 1, false);
            }
            self.seen[i] = true;
        } else {
            self.sparse.push(id);
        }
    }

    fn finish(self) -> Interner {
        let Builder {
            seen, mut sparse, ..
        } = self;
        if sparse.is_empty() && seen.iter().all(|&s| s) {
            return Interner::Identity(seen.len());
        }
        let named = seen.iter().enumerate().filter(|&(_, &s)| s);
        sparse.extend(named.map(|(id, _)| id as u64));
        sparse.sort_unstable();
        sparse.dedup();
        Interner::Sorted(sparse)
    }
}

/// The id kinds an event names.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Machine = 0,
    Key = 1,
    Msg = 2,
}

/// Calls `f` with every id `ev` names: at most three of one kind.
fn each_id(ev: &TraceEvent, mut f: impl FnMut(Kind, u64)) {
    use Kind::{Key, Machine, Msg};
    let m = |id: usize| id as u64;
    match *ev {
        TraceEvent::ComputeStart { worker, .. }
        | TraceEvent::ComputeEnd { worker, .. }
        | TraceEvent::StallStart { worker, .. }
        | TraceEvent::StallEnd { worker, .. }
        | TraceEvent::IterationEnd { worker, .. } => f(Machine, m(worker)),
        TraceEvent::GradReady { worker, key, .. }
        | TraceEvent::SliceConsumed { worker, key, .. } => {
            f(Machine, m(worker));
            f(Key, m(key));
        }
        TraceEvent::EgressEnqueue {
            machine,
            msg_id,
            key,
            ..
        } => {
            f(Machine, m(machine));
            f(Msg, msg_id);
            f(Key, m(key));
        }
        TraceEvent::WireStart {
            msg_id, src, dst, ..
        }
        | TraceEvent::WireEnd {
            msg_id, src, dst, ..
        } => {
            f(Msg, msg_id);
            f(Machine, m(src));
            f(Machine, m(dst));
        }
        TraceEvent::AggStart {
            server,
            key,
            worker,
            ..
        }
        | TraceEvent::AggEnd {
            server,
            key,
            worker,
            ..
        } => {
            f(Machine, m(server));
            f(Key, m(key));
            f(Machine, m(worker));
        }
        TraceEvent::RoundComplete { server, key, .. } => {
            f(Machine, m(server));
            f(Key, m(key));
        }
        TraceEvent::Fault {
            machine, msg_id, ..
        } => {
            f(Machine, m(machine));
            if let Some(id) = msg_id {
                f(Msg, id);
            }
        }
        TraceEvent::StateHash { .. } => {}
    }
}

/// Per cell, the sorted distinct sub-keys the log will ever address
/// under it, laid out contiguously: the cell's entries are
/// `start[cell]..start[cell + 1]`. The replay keeps one flag or list
/// per entry, found by a binary search within the cell's few entries.
#[derive(Debug)]
pub(crate) struct CellIndex<K> {
    start: Vec<u32>,
    keys: Vec<K>,
}

impl<K: Ord + Copy + Default> CellIndex<K> {
    /// Files each (cell, key) pair under its cell with a counting sort,
    /// then sorts and deduplicates each cell's few keys in place.
    fn new(cells: usize, pairs: &[(u32, K)]) -> CellIndex<K> {
        let mut start = vec![0u32; cells + 1];
        for &(cell, _) in pairs {
            start[cell as usize + 1] += 1;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
        }
        let mut keys = vec![K::default(); pairs.len()];
        let mut next = start.clone();
        for &(cell, key) in pairs {
            let n = &mut next[cell as usize];
            keys[*n as usize] = key;
            *n += 1;
        }
        let mut kept = 0;
        for c in 0..cells {
            let (lo, hi) = (start[c] as usize, start[c + 1] as usize);
            keys[lo..hi].sort_unstable();
            start[c] = kept as u32;
            for i in lo..hi {
                if kept == start[c] as usize || keys[kept - 1] != keys[i] {
                    keys[kept] = keys[i];
                    kept += 1;
                }
            }
        }
        start[cells] = kept as u32;
        keys.truncate(kept);
        CellIndex { start, keys }
    }

    /// Number of entries over all cells.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// The first entry of `cell` and its sorted keys.
    pub(crate) fn entries(&self, cell: usize) -> (usize, &[K]) {
        let lo = self.start[cell] as usize;
        (lo, &self.keys[lo..self.start[cell + 1] as usize])
    }

    /// The entry of `key` under `cell`, if the log ever addresses it.
    #[inline]
    pub(crate) fn find(&self, cell: usize, key: K) -> Option<usize> {
        let (lo, keys) = self.entries(cell);
        keys.binary_search(&key).ok().map(|i| lo + i)
    }
}

/// Everything the pre-pass numbers.
#[derive(Debug)]
pub(crate) struct Layout {
    pub(crate) machines: Interner,
    pub(crate) keys: Interner,
    pub(crate) msgs: Interner,
    /// (machine, key) cells, as `machine slot · keys + key slot`.
    pub(crate) cells: Interner,
    /// Per cell (worker, key): the rounds a gradient becomes ready for.
    pub(crate) grad: CellIndex<u64>,
    /// Per cell (server, key): the (round, worker slot) aggregations
    /// that finish.
    pub(crate) agg: CellIndex<(u64, u32)>,
    /// Per cell (receiver, key): the (round, sender slot) of delivered
    /// pushes.
    pub(crate) pushes: CellIndex<(u64, u32)>,
}

impl Layout {
    /// Two walks over the log: the id tables, then the cells and their
    /// sub-keys.
    pub(crate) fn new(events: &[TimedEvent]) -> Layout {
        let mut builders = [(); 3].map(|()| Builder::new(events.len()));
        for e in events {
            each_id(&e.event, |kind, id| builders[kind as usize].add(id));
        }
        let [machines, keys, msgs] = builders.map(Builder::finish);
        let mut layout = Layout {
            machines,
            keys,
            msgs,
            cells: Interner::Identity(0),
            grad: CellIndex::new(0, &[]),
            agg: CellIndex::new(0, &[]),
            pushes: CellIndex::new(0, &[]),
        };
        layout.number_cells(events);
        layout
    }

    /// The cell of (machine `m`, key `k`), both by slot.
    #[inline]
    pub(crate) fn cell(&self, m: usize, k: usize) -> Option<usize> {
        self.cells
            .slot(m as u64 * self.keys.len() as u64 + k as u64)
    }

    /// The cell of (machine, key), both by id.
    #[inline]
    pub(crate) fn cell_of(&self, machine: usize, key: usize) -> Option<usize> {
        let m = self.machines.slot(machine as u64)?;
        self.cell(m, self.keys.slot(key as u64)?)
    }

    /// Numbers the cells and their sub-keys. When the full
    /// (machine × key) grid is no larger than the log, every pair is a
    /// cell; otherwise the pairs the replay writes to are interned like
    /// any other id, and a read of any other pair finds no state.
    fn number_cells(&mut self, events: &[TimedEvent]) {
        let k = self.keys.len() as u64;
        let grid = (self.machines.len() as u64).saturating_mul(k);
        let dense = grid <= 2 * events.len() as u64 + 4096;
        let machine = |id: usize| self.machines.slot(id as u64).map(|s| s as u32);
        let cell = |m: usize, key: usize| -> Option<u64> {
            Some(u64::from(machine(m)?) * k + self.keys.slot(key as u64)? as u64)
        };
        // The class, key slot and round of each message's first enqueue.
        let mut first: Vec<Option<(MsgClass, u64, u64)>> = vec![None; self.msgs.len()];
        let mut written = Vec::new();
        let mut grad = Vec::new();
        let mut agg = Vec::new();
        let mut pushes = Vec::new();
        for e in events {
            match e.event {
                TraceEvent::GradReady {
                    worker, key, round, ..
                } => grad.extend(cell(worker, key).map(|c| (c, round))),
                TraceEvent::EgressEnqueue {
                    msg_id,
                    class,
                    key,
                    round,
                    ..
                } => {
                    let f = self.msgs.slot(msg_id).map(|s| &mut first[s]);
                    if let (Some(f @ None), Some(key)) = (f, self.keys.slot(key as u64)) {
                        *f = Some((class, key as u64, round));
                    }
                }
                TraceEvent::WireEnd {
                    msg_id, src, dst, ..
                } => {
                    let info = self.msgs.slot(msg_id).and_then(|s| first[s]);
                    if let (Some((class, key, round)), Some(d)) = (info, machine(dst)) {
                        let c = u64::from(d) * k + key;
                        if !dense {
                            written.push(c);
                        }
                        if let (true, Some(s)) = (super::is_push_class(class), machine(src)) {
                            pushes.push((c, (round, s)));
                        }
                    }
                }
                TraceEvent::AggEnd {
                    server,
                    key,
                    round,
                    worker,
                } => {
                    if let (Some(c), Some(w)) = (cell(server, key), machine(worker)) {
                        agg.push((c, (round, w)));
                    }
                }
                TraceEvent::RoundComplete { server, key, .. } if !dense => {
                    written.extend(cell(server, key));
                }
                _ => {}
            }
        }
        self.cells = if dense {
            Interner::Identity(grid as usize)
        } else {
            written.extend(grad.iter().map(|p| p.0));
            written.extend(agg.iter().map(|p| p.0));
            written.extend(pushes.iter().map(|p| p.0));
            Interner::of(&written)
        };
        self.grad = self.by_cell(grad);
        self.agg = self.by_cell(agg);
        self.pushes = self.by_cell(pushes);
    }

    /// Files each (cell value, sub-key) pair under its cell's slot. Every
    /// pair's cell is a cell: the grid holds them all, and otherwise they
    /// were interned from these same pairs.
    fn by_cell<K: Ord + Copy + Default>(&self, pairs: Vec<(u64, K)>) -> CellIndex<K> {
        let pairs: Vec<(u32, K)> = pairs
            .into_iter()
            .filter_map(|(c, key)| Some((self.cells.slot(c)? as u32, key)))
            .collect();
        CellIndex::new(self.cells.len(), &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every id's slot, and each slot's id, in id order.
    fn round_trips(interner: &Interner, ids: &[u64]) -> bool {
        let mut distinct = ids.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        interner.len() == distinct.len()
            && distinct
                .iter()
                .enumerate()
                .all(|(slot, &id)| interner.slot(id) == Some(slot) && interner.id(slot) == id)
    }

    #[test]
    fn each_id_layout_numbers_slots_in_id_order() {
        let dense: &[u64] = &[3, 0, 1, 2, 1, 0];
        let gappy: &[u64] = &[9, 4, 4, 30];
        let sparse: &[u64] = &[u64::MAX, 5, 1 << 40, 5];
        for ids in [dense, gappy, sparse] {
            let interner = Interner::of(ids);
            assert!(round_trips(&interner, ids), "{ids:?}: {interner:?}");
            assert_eq!(interner.slot(7), None, "{ids:?}");
        }
        assert!(matches!(Interner::of(dense), Interner::Identity(4)));
        assert!(matches!(Interner::of(gappy), Interner::Sorted(_)));
        assert!(matches!(Interner::of(sparse), Interner::Sorted(_)));
    }

    #[test]
    fn cell_index_files_sorted_distinct_keys_per_cell() {
        let pairs = [(2, 9u64), (0, 5), (2, 1), (2, 9), (0, 5), (0, 3)];
        let index = CellIndex::new(4, &pairs);
        assert_eq!(index.entries(0), (0, &[3, 5][..]));
        assert_eq!(index.entries(1), (2, &[][..]));
        assert_eq!(index.entries(2), (2, &[1, 9][..]));
        assert_eq!(index.entries(3), (4, &[][..]));
        assert_eq!(index.len(), 4);
        assert_eq!(index.find(2, 9), Some(3));
        assert_eq!(index.find(1, 9), None);
    }
}
