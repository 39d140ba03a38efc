//! The fabric's section of a snapshot: one walk over [`Network`]'s
//! dynamic state that names every field once, in stream order. Static
//! configuration (bandwidths, link graph, latency) is not walked; a
//! reader walks a fresh fabric built from the same [`NetworkConfig`], so
//! per-machine and per-link vectors already have their lengths. Nor are
//! the flows' rates and bottlenecks, which a reader water-fills afresh.
//!
//! [`NetworkConfig`]: super::NetworkConfig

use super::memo::Memo;
use super::{ActiveFlow, Delivering, Network};
use crate::allocator::{link, ClassIndex, NO_LINK};
use crate::multilink::LinkId;
use crate::types::FlowId;
use p3_des::snap::{fixed, opt, seq, time, Coder, SnapshotError};
use p3_des::SimTime;

impl Network {
    /// Walks the fabric's dynamic state with `c`: a
    /// [`SnapWriter`](p3_des::snap::SnapWriter) writes it out, a
    /// [`SnapReader`](p3_des::snap::SnapReader) overwrites this fabric
    /// with it. Flows, traces and counters travel verbatim; a reader fills
    /// the rates and bottlenecks afresh, bypassing the memo and counting
    /// nothing in [`NetStats`](super::NetStats). A fabric read back on a
    /// fresh `Network` with the same configuration resumes the fluid model
    /// bit-identically.
    ///
    /// `now` is the owner's clock. A reader refuses states the live
    /// fabric cannot reach and that would panic or stall it later: an
    /// index out of range, a loopback flow, a `last_update` after `now`,
    /// a port scale outside `(0, 1]`, or a flow's `remaining` outside
    /// `[0, bytes]`.
    ///
    /// Each flow is one record, its bytes left in place after its size.
    ///
    /// # Errors
    ///
    /// Only a reader fails: [`SnapshotError::Truncated`] when the stream
    /// ends early, [`SnapshotError::Corrupt`] when a check fails.
    pub fn walk<C: Coder>(&mut self, c: &mut C, now: SimTime) -> Result<(), SnapshotError> {
        // Stale rates are allocated before they are written.
        self.reallocate();
        let machines = self.cfg.machines;
        if C::READING {
            self.remaining.clear();
        }
        let mut slot = 0;
        #[expect(
            clippy::indexing_slicing,
            reason = "a reader pushes a slot's entry before it reads it, and a writer's column is as long as its flows"
        )]
        let flow = |c: &mut C, f: &mut ActiveFlow| {
            if C::READING {
                self.remaining.push(0.0);
            }
            let left = &mut self.remaining[slot];
            slot += 1;
            c.u64(&mut f.id.0)?;
            c.idx(&mut f.src, machines, "flow source out of range")?;
            c.idx(&mut f.dst, machines, "flow destination out of range")?;
            c.check(f.src != f.dst, "loopback flow in the fabric")?;
            c.u32(&mut f.priority.0)?;
            c.u64(&mut f.tag)?;
            c.u64(&mut f.bytes)?;
            c.f64(left)?;
            let within = (0.0..=f.bytes as f64).contains(left);
            c.check(within, "flow remaining bytes outside [0, bytes]")
        };
        seq(c, &mut self.flows, ActiveFlow::default(), flow)?;
        seq(c, &mut self.delivering, Delivering::default(), |c, d| {
            time(c, &mut d.at)?;
            let f = &mut d.flow;
            c.u64(&mut f.id.0)?;
            c.idx(&mut f.src.0, machines, "delivering source out of range")?;
            let what = "delivering destination out of range";
            c.idx(&mut f.dst.0, machines, what)?;
            c.u64(&mut f.tag)?;
            c.u64(&mut f.bytes)?;
            opt(c, &mut f.bottleneck, 0, C::usize)
        })?;
        time(c, &mut self.last_update)?;
        c.check(self.last_update <= now, "network clock after the engine's")?;
        c.u64(&mut self.next_flow_id)?;
        for scale in [&mut self.tx_scale, &mut self.rx_scale] {
            fixed(c, scale, "port scale vector length", |c, s| {
                c.f64(s)?;
                c.check(*s > 0.0 && *s <= 1.0, "port scale outside (0, 1]")
            })?;
        }
        let what = "link accounting vector length";
        fixed(c, &mut self.link_busy, what, C::f64)?;
        fixed(c, &mut self.link_bytes, what, C::f64)?;
        for traces in [&mut self.tx_traces, &mut self.rx_traces] {
            fixed(c, traces, "trace bin vector count", |c, t| {
                seq(c, &mut t.bytes, 0.0, C::f64)
            })?;
        }
        let s = &mut self.stats;
        c.u64(&mut s.reallocations)?;
        c.u64(&mut s.flows_touched)?;
        c.u64(&mut s.waterfill_rounds)?;
        c.u64(&mut s.ports_touched)?;
        c.u64(&mut s.peak_in_flight)?;
        if C::READING {
            // Rebuild what the fabric derives from the flows and the port
            // factors, rates included: the writer allocated before writing,
            // so they are the fill's. The memo starts empty.
            let flows = self.flows.iter().map(ActiveFlow::spec);
            self.by_class = ClassIndex::build(flows, &self.graph);
            self.memo = Memo::default();
            self.rescale();
            self.rates = vec![0.0; self.flows.len()];
            self.bottleneck = vec![NO_LINK; self.flows.len()];
            self.fill();
            self.next_event = None;
            self.dirty = false;
        }
        Ok(())
    }

    /// Each flow in flight as `(id, rate, bottleneck)` under the last
    /// allocation, in slot order, with its bottleneck on any fabric.
    pub fn flow_rates(&self) -> impl Iterator<Item = (FlowId, f64, Option<LinkId>)> + '_ {
        let cols = self.rates.iter().zip(&self.bottleneck);
        (self.flows.iter().zip(cols)).map(|(f, (&q, &at))| (f.id, q, link(at)))
    }

    /// Every transfer the fabric holds, as `(id, tag, delivering)`: the
    /// flows in flight, then the drained ones awaiting delivery.
    pub fn flow_ids(&self) -> impl Iterator<Item = (FlowId, u64, bool)> + '_ {
        let in_flight = self.flows.iter().map(|f| (f.id, f.tag, false));
        in_flight.chain(
            self.delivering
                .iter()
                .map(|d| (d.flow.id, d.flow.tag, true)),
        )
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::multilink::LinkGraph;
    use crate::types::{Bandwidth, MachineId, Priority};
    use crate::NetworkConfig;
    use p3_des::snap::{SnapReader, SnapWriter};
    use p3_des::SimDuration;

    fn write(net: &mut Network, now: SimTime) -> Vec<u8> {
        let mut w = SnapWriter::new(0);
        net.walk(&mut w, now).expect("only a reader fails");
        w.finish()
    }

    fn read(net: &mut Network, bytes: &[u8], now: SimTime) -> Result<(), SnapshotError> {
        let (mut r, _) = SnapReader::new(bytes)?;
        net.walk(&mut r, now)?;
        r.expect_end()
    }

    /// Walks `from` out at `now` and reads it back onto `to`.
    pub(in super::super) fn restore(to: &mut Network, from: &mut Network, now: SimTime) {
        read(to, &write(from, now), now).expect("a written fabric reads back");
    }

    /// Two racks of two machines at 8 Gbps; the cross-rack core links carry
    /// less than two NICs' worth.
    pub(in super::super) fn racked() -> NetworkConfig {
        let nic = Bandwidth::from_gbps(8.0).bytes_per_sec();
        let mut graph = LinkGraph::new(&[nic; 4]);
        let core: Vec<LinkId> = ["rack0.up", "rack1.up", "rack0.down", "rack1.down"]
            .map(|name| graph.add_link(name, 0.75 * nic))
            .to_vec();
        for src in 0..4 {
            for dst in 0..4 {
                if src / 2 != dst / 2 {
                    graph.set_transit(src, dst, &[core[src / 2], core[2 + dst / 2]]);
                }
            }
        }
        NetworkConfig::new(4, Bandwidth::from_gbps(8.0))
            .with_latency(SimDuration::from_micros(20))
            .with_link_graph(graph)
    }

    /// A racked, traced fabric mid-run: a degraded port, flows in four
    /// classes (some held at rate 0), and transfers awaiting delivery.
    fn degraded_racked() -> (Network, SimTime) {
        let mut n = Network::new(racked().with_trace(SimDuration::from_micros(250)));
        let script = [
            (0, 2, 3_000_000, 0),
            (0, 1, 2_000_000, 1),
            (1, 3, 1_000_000, 2),
            (2, 0, 4_000_000, 1),
            (3, 1, 2_000_000, 0),
            (1, 0, 500_000, 3),
        ];
        for (i, &(src, dst, bytes, p)) in script.iter().enumerate() {
            let at = SimTime::from_micros(200 * i as u64);
            n.poll(at);
            if i == 2 {
                n.set_port_scale(at, MachineId(0), 0.5, 0.8);
            }
            n.start_flow(
                at,
                MachineId(src),
                MachineId(dst),
                bytes,
                Priority(p),
                i as u64,
            );
        }
        let now = n.next_event_time().expect("flows in flight");
        n.poll(now);
        n.start_flow(now, MachineId(2), MachineId(2), 1_000_000, Priority(0), 99);
        assert!(n.rates.contains(&0.0), "no flow held at rate 0");
        assert!(
            n.delivering.len() >= 2,
            "too few transfers awaiting delivery"
        );
        (n, now)
    }

    /// Substitutes a NaN or −1.0 word at every byte offset of a written
    /// fabric. Each read must fail or yield a fabric that polls at `now`
    /// and then drains to idle within a step bound without panicking. The
    /// one exception is a port scale that is tiny but inside `(0, 1]`: it
    /// leaves a link whose working capacity is positive but under the
    /// rate floor, and flows held at rate 0 behind it, as it would a live
    /// fabric with that factor.
    #[test]
    fn substituted_words_are_refused_or_drain_to_idle() {
        let (mut a, now) = degraded_racked();
        let bytes = write(&mut a, now);
        let horizon = now + SimDuration::from_secs(3600);
        let mut accepted = 0;
        for word in [f64::NAN, -1.0] {
            for i in 0..=bytes.len() - 8 {
                let mut b = bytes.clone();
                b[i..i + 8].copy_from_slice(&word.to_le_bytes());
                let mut n = Network::new(a.cfg.clone());
                if read(&mut n, &b, now).is_err() {
                    continue;
                }
                accepted += 1;
                n.poll(now);
                let mut steps = 0;
                while let Some(t) = n.next_event_time() {
                    assert!(steps < 1000, "{word} at byte {i}: no end of events");
                    // Flows moving that far ahead would fill years of bins.
                    let far = t > horizon && !n.flows.is_empty();
                    assert!(!far, "{word} at byte {i}: flows run until {t}");
                    n.poll(t);
                    steps += 1;
                }
                let floor = n.rate_floor();
                let starved = |(f, &rate): (&ActiveFlow, &f64)| {
                    let mut route = n.graph.route(f.src, f.dst);
                    rate == 0.0 && route.any(|l| (0.0..floor).contains(&n.caps[l.0]))
                };
                let held = n.flows.iter().zip(&n.rates).all(starved);
                assert!(held, "{word} at byte {i}: flows left undrained");
            }
        }
        assert!(accepted > 0, "every substitution was refused");
    }
}
