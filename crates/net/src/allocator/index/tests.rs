//! Tests of the class index: canonical order, fingerprint, and the class
//! bounds, source runs and link counts an index kept up by pushes and
//! removals shares with one built afresh.

use super::*;
use crate::multilink::LinkId;

/// One class as laid out in an index: its priority, its members' sources
/// and destinations, its source runs as `(source, length)`, and its link
/// counts.
type ClassLayout = (Priority, Vec<(usize, usize)>, Vec<(usize, usize)>, Vec<u32>);

impl ClassIndex {
    /// Every flow as `(slot, spec)` in canonical order.
    pub(crate) fn entries(&self) -> Vec<(usize, FlowSpec)> {
        let spec = |priority, m: &Member| FlowSpec {
            src: m.src(),
            dst: m.dst(),
            priority,
        };
        self.classes()
            .flat_map(|c| {
                c.members
                    .iter()
                    .map(move |m| (m.slot as usize, spec(c.priority, m)))
            })
            .collect()
    }

    /// Every class's layout, and the fingerprint: all of the index but
    /// the slots and the placement of count rows. Checks on the way that
    /// the rows no class owns are all zero.
    pub(crate) fn layout(&self) -> (Vec<ClassLayout>, u64) {
        for &row in &self.free {
            let row = row as usize * self.links;
            assert!(
                self.counts[row..row + self.links].iter().all(|&n| n == 0),
                "a free row holds counts"
            );
        }
        let classes = self.classes().map(|c| {
            let members = c.members.iter().map(|m| (m.src(), m.dst())).collect();
            let runs = c.sources().map(|(src, run)| (src, run.len())).collect();
            (c.priority, members, runs, c.counts.to_vec())
        });
        (classes.collect(), self.fingerprint)
    }

    /// Overwrites the fingerprint, to forge a collision.
    pub(crate) fn forge_fingerprint(&mut self, fingerprint: u64) {
        self.fingerprint = fingerprint;
    }
}

fn flow(src: usize, dst: usize, p: u32) -> FlowSpec {
    FlowSpec {
        src,
        dst,
        priority: Priority(p),
    }
}

/// Six machines in three racks of two, each cross-rack route over the
/// source rack's uplink and the destination rack's downlink, and routes
/// between machines of equal parity over a core link too.
fn racked() -> LinkGraph {
    let mut g = LinkGraph::new(&[1.0; 6]);
    let ups: Vec<LinkId> = (0..3).map(|r| g.add_link(&format!("up{r}"), 1.0)).collect();
    let downs: Vec<LinkId> = (0..3)
        .map(|r| g.add_link(&format!("down{r}"), 1.0))
        .collect();
    let core = g.add_link("core", 1.0);
    for src in 0..6 {
        for dst in 0..6 {
            let (a, b) = (src / 2, dst / 2);
            if a == b {
                continue;
            }
            if (src + dst) % 2 == 0 {
                g.set_transit(src, dst, &[ups[a], core, downs[b]]);
            } else {
                g.set_transit(src, dst, &[ups[a], downs[b]]);
            }
        }
    }
    g
}

#[test]
fn index_order_and_fingerprint_ignore_arrival_order() {
    let g = LinkGraph::new(&[1.0; 4]);
    let specs = [flow(2, 1, 1), flow(0, 3, 0), flow(1, 0, 1), flow(0, 3, 0)];
    let a = ClassIndex::build(specs.iter().copied(), &g);
    let b = ClassIndex::build(specs.iter().rev().copied(), &g);
    let order = |i: &ClassIndex| i.entries().iter().map(|&(_, f)| f).collect::<Vec<_>>();
    let want = vec![flow(0, 3, 0), flow(0, 3, 0), flow(1, 0, 1), flow(2, 1, 1)];
    assert_eq!(order(&a), want);
    assert_eq!(order(&b), want);
    assert_eq!(a.layout(), b.layout());
    // Dropping slot 1 moves slot 3 into it; the fingerprint follows.
    let mut a = a;
    a.swap_remove(1, &g);
    let rebuilt = ClassIndex::build([specs[0], specs[3], specs[2]].into_iter(), &g);
    assert_eq!(a.layout(), rebuilt.layout());
    assert!(a
        .entries()
        .iter()
        .any(|&(slot, f)| slot == 1 && f == specs[3]));
    // The class of priority 0 and its count row are gone with its flows.
    a.swap_remove(1, &g);
    assert_eq!(a.classes().count(), 1);
    assert_eq!(a.free.len(), 1);
}

#[test]
#[should_panic(expected = "loopback")]
fn a_loopback_flow_is_refused() {
    ClassIndex::new(&LinkGraph::new(&[1.0; 2])).push(flow(1, 1, 0), &LinkGraph::new(&[1.0; 2]));
}

#[test]
#[should_panic(expected = "unknown machine")]
fn a_flow_off_the_graph_is_refused() {
    let g = LinkGraph::new(&[1.0; 2]);
    ClassIndex::new(&g).push(flow(0, 2, 0), &g);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// After any sequence of pushes, `swap_remove`-style removals
        /// and snapshot rebuilds (duplicate specs, the last slot removed,
        /// machine indices past 16 bits on a flat graph, routes of two and
        /// three transit hops on a racked one), the incrementally kept
        /// index holds the class bounds, source runs, link counts, specs,
        /// slots and fingerprint of one built afresh from the live flows.
        /// Equal specs may sit in any slot order.
        #[test]
        fn incremental_index_equals_a_rebuilt_one(
            ops in prop::collection::vec((0u8..5, 0usize..6, 0usize..6, 0u32..3, any::<usize>()), 1..60),
            wide in any::<bool>(),
        ) {
            let (g, machines) = if wide {
                (LinkGraph::new(&[1.0; 0x1_0001]), [0, 1, 2, 0xffff, 0x1_0000, 3])
            } else {
                (racked(), [0, 1, 2, 3, 4, 5])
            };
            let at = |i: usize| machines.get(i).copied().unwrap_or(0);
            let mut flows: Vec<FlowSpec> = Vec::new();
            let mut index = ClassIndex::new(&g);
            for (kind, a, b, p, x) in ops {
                if kind == 4 {
                    // A snapshot restore rebuilds the index.
                    index = ClassIndex::build(flows.iter().copied(), &g);
                } else if kind < 2 || flows.is_empty() {
                    let b = if a == b { (b + 1) % 6 } else { b };
                    let f = flow(at(a), at(b), p);
                    index.push(f, &g);
                    flows.push(f);
                } else {
                    // Every fifth removal takes the last slot.
                    let slot = if x % 5 == 0 { flows.len() - 1 } else { x % flows.len() };
                    flows.swap_remove(slot);
                    index.swap_remove(slot, &g);
                }
                let rebuilt = ClassIndex::build(flows.iter().copied(), &g);
                prop_assert_eq!(index.layout(), rebuilt.layout());
                let sorted = |i: &ClassIndex| {
                    let mut e = i.entries();
                    e.sort_unstable_by_key(|&(slot, f)| (f.priority, f.src, f.dst, slot));
                    e
                };
                prop_assert_eq!(sorted(&index), sorted(&rebuilt));
                prop_assert!(index.entries().iter().all(|&(slot, f)| flows.get(slot) == Some(&f)));
            }
        }
    }
}
