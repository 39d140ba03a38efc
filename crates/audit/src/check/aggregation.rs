//! Server-side checkers: the serial processing unit, push claiming,
//! version advancement, full-membership conservation, and slice
//! consumption ordering.

use super::{Checker, MsgState};
use crate::report::Invariant;

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
        if let Some(&(k, r, w)) = self.open_agg.get(&server) {
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
        let version = self.versions.get(&(server, key)).copied().unwrap_or(0);
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
        let push = (server, key, round, worker);
        let mut claimed = false;
        if let Some(slots) = self.delivered_pushes.get_mut(&push) {
            let pos = slots.iter().position(|&slot| {
                matches!(self.msgs.get(slot), Some(Some(m)) if m.state == MsgState::Delivered)
            });
            if let Some(p) = pos {
                slots.remove(p);
                claimed = true;
            }
            // Drop spent entries: the map holds only unclaimed pushes.
            if slots.is_empty() {
                self.delivered_pushes.remove(&push);
            }
        }
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
        self.open_agg.insert(server, (key, round, worker));
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
        match self.open_agg.remove(&server) {
            Some((k, r, w)) if (k, r, w) == (key, round, worker) => {
                if self.conservation_enabled() {
                    self.agg_members
                        .entry((server, key, round))
                        .or_default()
                        .insert(worker);
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
        let prev = self.versions.get(&(server, key)).copied().unwrap_or(0);
        if version != prev + 1 {
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
        self.versions.insert((server, key), version);
        let members = self
            .agg_members
            .remove(&(server, key, version.saturating_sub(1)));
        if !degraded && self.conservation_enabled() {
            let machines = self.opts.machines.unwrap_or(0);
            let unique = members.map(|m| m.len()).unwrap_or(0);
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
        let mut have = self.received.get(&(worker, key)).copied().unwrap_or(0);
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
            let high = self.allgather_high.get(&key).copied().unwrap_or(0);
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
