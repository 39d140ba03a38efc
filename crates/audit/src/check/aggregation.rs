//! Server-side checkers: the serial processing unit, push claiming,
//! version advancement, full-membership conservation, and slice
//! consumption ordering.

use super::intern::NONE;
use super::{Checker, MsgState};
use crate::report::Invariant;

/// Per delivered-push entry (receiver, key, round, sender), the slots of
/// the pushes delivered there and not yet claimed, oldest first. The
/// lists share one arena of `(slot, next)` links.
#[derive(Debug)]
pub(crate) struct PushLists {
    /// Per entry: first and last link (`NONE` when empty).
    ends: Vec<(u32, u32)>,
    links: Vec<(u32, u32)>,
}

impl PushLists {
    pub(crate) fn new(entries: usize) -> PushLists {
        PushLists {
            ends: vec![(NONE, NONE); entries],
            links: Vec::new(),
        }
    }

    pub(crate) fn append(&mut self, entry: usize, slot: u32) {
        let link = self.links.len() as u32;
        self.links.push((slot, NONE));
        let (head, tail) = &mut self.ends[entry];
        if *tail == NONE {
            *head = link;
        } else {
            self.links[*tail as usize].1 = link;
        }
        *tail = link;
    }

    /// Unlinks the first slot of `entry` that `pick` accepts, or every
    /// such slot when `all`. Returns whether one was unlinked.
    pub(crate) fn unlink(&mut self, entry: usize, all: bool, pick: impl Fn(u32) -> bool) -> bool {
        let mut found = false;
        let (mut prev, mut at) = (NONE, self.ends[entry].0);
        while at != NONE {
            let (slot, next) = self.links[at as usize];
            if pick(slot) {
                found = true;
                if prev == NONE {
                    self.ends[entry].0 = next;
                } else {
                    self.links[prev as usize].1 = next;
                }
                if next == NONE {
                    self.ends[entry].1 = prev;
                }
                if !all {
                    break;
                }
            } else {
                prev = at;
            }
            at = next;
        }
        found
    }
}

impl Checker {
    pub(super) fn on_agg_start(
        &mut self,
        i: usize,
        t: u64,
        server: usize,
        key: usize,
        round: u64,
        worker: usize,
    ) {
        let Some(s) = self.ids.machines.slot(server as u64) else {
            return;
        };
        if let Some((k, r, w)) = self.open_agg[s] {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "server {server} starts aggregating k{key} r{round} while still processing \
                     k{k} r{r} from w{w} — the processing unit is serial"
                ),
            );
        }
        let cell = self.ids.cell_of(server, key);
        let version = cell.map_or(0, |c| self.versions[c]);
        if round != version {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "server {server} aggregates k{key} at round {round} while the key is at \
                     version {version}"
                ),
            );
        }
        let entry = cell
            .zip(self.ids.machines.slot(worker as u64))
            .and_then(|(c, w)| self.ids.pushes.find(c, (round, w as u32)));
        let msgs = &self.msgs;
        let claimed = entry.is_some_and(|e| {
            self.pushes.unlink(e, false, |slot| {
                msgs[slot as usize].state == MsgState::Delivered
            })
        });
        if !claimed {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "server {server} aggregates k{key} r{round} from w{worker} but no matching \
                     push was delivered"
                ),
            );
        }
        self.open_agg[s] = Some((key, round, worker));
    }

    pub(super) fn on_agg_end(
        &mut self,
        i: usize,
        t: u64,
        server: usize,
        key: usize,
        round: u64,
        worker: usize,
    ) {
        let Some(s) = self.ids.machines.slot(server as u64) else {
            return;
        };
        match self.open_agg[s].take() {
            Some((k, r, w)) if (k, r, w) == (key, round, worker) => {
                if self.conservation_enabled() {
                    let entry = self.ids.cell_of(server, key).and_then(|c| {
                        let w = self.ids.machines.slot(worker as u64)?;
                        self.ids.agg.find(c, (round, w as u32))
                    });
                    if let Some(e) = entry {
                        self.members[e] = true;
                    }
                }
            }
            other => {
                self.rep.violate(
                    Invariant::CausalOrder,
                    Some(i),
                    t,
                    format!(
                        "server {server} finishes aggregating k{key} r{round} from w{worker} but \
                         its processing unit held {other:?}"
                    ),
                );
            }
        }
    }

    pub(super) fn on_round_complete(
        &mut self,
        i: usize,
        t: u64,
        server: usize,
        key: usize,
        version: u64,
        degraded: bool,
    ) {
        let Some(cell) = self.ids.cell_of(server, key) else {
            return;
        };
        let prev = self.versions[cell];
        // Wraps as a release build always has; only a corrupt log gets
        // near `u64::MAX`.
        if version != prev.wrapping_add(1) {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "server {server} completes k{key} at version {version} after version {prev} \
                     — versions must advance by exactly one"
                ),
            );
        }
        self.versions[cell] = version;
        // The aggregations of the completed round leave the table.
        let done = version.saturating_sub(1);
        let (lo, entries) = self.ids.agg.entries(cell);
        let first = entries.partition_point(|&(r, _)| r < done);
        let last = entries.partition_point(|&(r, _)| r <= done);
        let members = &mut self.members[lo + first..lo + last];
        let unique = members.iter().filter(|&&m| m).count();
        members.fill(false);
        if !degraded && self.conservation_enabled() {
            let machines = self.opts.machines.unwrap_or(0);
            if unique != machines {
                self.rep.violate(
                    Invariant::ByteConservation,
                    Some(i),
                    t,
                    format!(
                        "server {server} completes k{key} v{version} with full membership but \
                         only {unique}/{machines} workers' pushes were aggregated"
                    ),
                );
            }
        }
    }

    pub(super) fn on_slice_consumed(
        &mut self,
        i: usize,
        t: u64,
        worker: usize,
        key: usize,
        round: u64,
    ) {
        let mut have = self
            .ids
            .cell_of(worker, key)
            .map_or(0, |c| self.received[c]);
        if self.opts.collective == Some(true) {
            // Collective completion syncs every live member in place — no
            // per-machine delivery crosses the wire for a worker that was
            // excluded from a reformed survivor group (e.g. a rank that
            // rejoined while the group ran degraded). Per-machine delivery
            // tracking therefore under-approximates held versions; bound
            // the check by the key's allgather high-water mark instead.
            // This is deliberately loose — the final AllGather chunk of a
            // collective always precedes any consume of its result, so the
            // mark never runs ahead of a legal consume.
            let high = self
                .ids
                .keys
                .slot(key as u64)
                .map_or(0, |k| self.allgather_high[k]);
            have = have.max(high);
        }
        if have < round {
            self.rep.violate(
                Invariant::CausalOrder,
                Some(i),
                t,
                format!(
                    "worker {worker} consumes k{key} at round {round} while holding version {have}"
                ),
            );
        }
    }
}
