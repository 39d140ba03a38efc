//! A packet-granularity reference simulator for cross-validating the fluid
//! model.
//!
//! Fluid max-min sharing is an idealization; this module implements the
//! same fabric at MTU granularity with completely different machinery —
//! per-port strict-priority packet queues, store-and-forward through the
//! sender's tx port then the receiver's rx port — and the test suite
//! checks that both models agree on completion times within a small
//! tolerance on scenarios where the theoretical answer is known. Agreement
//! between two independent implementations is the strongest correctness
//! evidence a simulator can offer.

use crate::types::{Bandwidth, MachineId, Priority};
use p3_des::{EventQueue, OrderedQueue, SimDuration, SimTime};

/// Default MTU: 9000-byte jumbo frames, as on the paper's testbed-class
/// networks.
pub const DEFAULT_MTU: u64 = 9_000;

/// A packet's place in a port queue: priority, then its index within its
/// message, then its global packetization order. Ordering on the packet
/// index interleaves concurrent messages packet-by-packet — the
/// packet-granular analogue of fair queueing, matching the fluid model's
/// max-min sharing.
type PacketKey = (u32, u64, u64);

#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    key: PacketKey,
    msg: usize,
    bytes: u64,
    last: bool,
}

#[derive(Debug, Default)]
struct Port {
    queue: OrderedQueue<PacketKey, QueuedPacket>,
    busy: bool,
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Release {
        msg: usize,
    },
    TxDone {
        machine: usize,
        packet: QueuedPacket,
    },
    RxDone {
        machine: usize,
        packet: QueuedPacket,
    },
}

/// One message to transfer in a packet-level scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMessage {
    /// Source machine.
    pub src: MachineId,
    /// Destination machine.
    pub dst: MachineId,
    /// Payload bytes.
    pub bytes: u64,
    /// Priority class (lower = more urgent).
    pub priority: Priority,
    /// Release time.
    pub at: SimTime,
}

/// Runs a packet-level simulation of the given messages over a cluster of
/// `machines` full-duplex NICs and returns each message's delivery time
/// (parallel to `messages`).
///
/// Packets of one message traverse src.tx then dst.rx in order; ports
/// serve strict-priority, FIFO within class. Completion is when the last
/// packet clears the receiver port.
///
/// # Panics
///
/// Panics on degenerate inputs (no machines, zero-byte messages, machine
/// out of range).
///
/// # Examples
///
/// ```
/// use p3_des::SimTime;
/// use p3_net::{packet_simulate, Bandwidth, MachineId, PacketMessage, Priority};
///
/// let msgs = [PacketMessage {
///     src: MachineId(0),
///     dst: MachineId(1),
///     bytes: 90_000,
///     priority: Priority(0),
///     at: SimTime::ZERO,
/// }];
/// let done = packet_simulate(&msgs, 2, Bandwidth::from_gbps(0.72), 9_000);
/// // 10 packets of 9 kB at 90 kB/ms: ~1 ms + one packet of rx pipeline.
/// assert!((done[0].as_secs_f64() - 0.0011).abs() < 1e-6);
/// ```
#[expect(
    clippy::indexing_slicing,
    reason = "message endpoints are asserted below machines, and events carry indices into messages"
)]
pub fn packet_simulate(
    messages: &[PacketMessage],
    machines: usize,
    bandwidth: Bandwidth,
    mtu: u64,
) -> Vec<SimTime> {
    assert!(machines > 0, "no machines");
    assert!(mtu > 0, "zero MTU");
    for m in messages {
        assert!(
            m.src.0 < machines && m.dst.0 < machines,
            "machine out of range"
        );
        assert!(m.bytes > 0, "zero-byte message");
    }
    let rate = bandwidth.bytes_per_sec();
    assert!(rate > 0.0, "zero bandwidth");
    let t_of = |bytes: u64| SimDuration::from_secs_f64(bytes as f64 / rate);

    let mut tx: Vec<Port> = (0..machines).map(|_| Port::default()).collect();
    let mut rx: Vec<Port> = (0..machines).map(|_| Port::default()).collect();
    let mut done = vec![SimTime::MAX; messages.len()];
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let mut seq = 0u64;

    // Helper to start a port if idle.
    fn kick(
        port: &mut Port,
        machine: usize,
        is_tx: bool,
        rate_of: &impl Fn(u64) -> SimDuration,
        queue: &mut EventQueue<Ev>,
    ) {
        if port.busy {
            return;
        }
        if let Some((_, p)) = port.queue.pop() {
            port.busy = true;
            let ev = if is_tx {
                Ev::TxDone { machine, packet: p }
            } else {
                Ev::RxDone { machine, packet: p }
            };
            queue.schedule_in(rate_of(p.bytes), ev);
        }
    }

    // Seed: one release event per message; packetization happens at the
    // release instant so the calendar clock is always correct.
    for (i, m) in messages.iter().enumerate() {
        queue.schedule_at(m.at, Ev::Release { msg: i });
    }

    while let Some((_, ev)) = queue.pop() {
        match ev {
            Ev::Release { msg } => {
                let m = &messages[msg];
                let mut remaining = m.bytes;
                let mut pkt_idx = 0u64;
                while remaining > 0 {
                    let sz = remaining.min(mtu);
                    remaining -= sz;
                    let key = (m.priority.0, pkt_idx, seq);
                    tx[m.src.0].queue.push(
                        key,
                        QueuedPacket {
                            key,
                            msg,
                            bytes: sz,
                            last: remaining == 0,
                        },
                    );
                    pkt_idx += 1;
                    seq += 1;
                }
                kick(&mut tx[m.src.0], m.src.0, true, &t_of, &mut queue);
            }
            Ev::TxDone { machine, packet } => {
                tx[machine].busy = false;
                // Hand the packet to the receiver's rx port.
                let dst = messages[packet.msg].dst.0;
                rx[dst].queue.push(packet.key, packet);
                kick(&mut rx[dst], dst, false, &t_of, &mut queue);
                kick(&mut tx[machine], machine, true, &t_of, &mut queue);
            }
            Ev::RxDone { machine, packet } => {
                rx[machine].busy = false;
                if packet.last {
                    done[packet.msg] = queue.now();
                }
                kick(&mut rx[machine], machine, false, &t_of, &mut queue);
            }
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Network, NetworkConfig};

    fn msg(src: usize, dst: usize, bytes: u64, prio: u32) -> PacketMessage {
        PacketMessage {
            src: MachineId(src),
            dst: MachineId(dst),
            bytes,
            priority: Priority(prio),
            at: SimTime::ZERO,
        }
    }

    /// Fluid completion times for the same scenario.
    fn fluid(messages: &[PacketMessage], machines: usize, bw: Bandwidth) -> Vec<SimTime> {
        let cfg = NetworkConfig::new(machines, bw).with_latency(SimDuration::ZERO);
        let mut net = Network::new(cfg);
        for (i, m) in messages.iter().enumerate() {
            net.start_flow(m.at, m.src, m.dst, m.bytes, m.priority, i as u64);
        }
        let mut done = vec![SimTime::MAX; messages.len()];
        while let Some(t) = net.next_event_time() {
            for c in net.poll(t) {
                done[c.tag as usize] = t;
            }
        }
        done
    }

    #[test]
    fn single_message_matches_fluid_within_one_packet() {
        let bw = Bandwidth::from_gbps(1.0);
        let msgs = [msg(0, 1, 1_000_000, 0)];
        let p = packet_simulate(&msgs, 2, bw, DEFAULT_MTU);
        let f = fluid(&msgs, 2, bw);
        // Store-and-forward adds exactly one packet of pipeline fill.
        let one_packet = DEFAULT_MTU as f64 / bw.bytes_per_sec();
        let diff = p[0].as_secs_f64() - f[0].as_secs_f64();
        assert!(
            (diff - one_packet).abs() < one_packet * 0.01,
            "diff {diff} vs packet time {one_packet}"
        );
    }

    #[test]
    fn equal_flows_finish_together_in_both_models() {
        // Two same-size flows out of one machine: fluid shares 50/50; the
        // packet model interleaves packets — both finish at ~2×.
        let bw = Bandwidth::from_gbps(1.0);
        let msgs = [msg(0, 1, 900_000, 0), msg(0, 2, 900_000, 0)];
        let p = packet_simulate(&msgs, 3, bw, DEFAULT_MTU);
        let f = fluid(&msgs, 3, bw);
        for i in 0..2 {
            let rel = (p[i].as_secs_f64() - f[i].as_secs_f64()).abs() / f[i].as_secs_f64();
            assert!(rel < 0.02, "message {i}: packet {} vs fluid {}", p[i], f[i]);
        }
    }

    #[test]
    fn strict_priority_agrees_with_fluid() {
        // Urgent + bulk from the same sender: urgent takes the port first
        // in both models.
        let bw = Bandwidth::from_gbps(1.0);
        let msgs = [msg(0, 1, 450_000, 5), msg(0, 2, 450_000, 0)];
        let p = packet_simulate(&msgs, 3, bw, DEFAULT_MTU);
        let f = fluid(&msgs, 3, bw);
        // Urgent message: ~450kB at 125MB/s = 3.6ms in both (the packet
        // model adds up to two packets of store-and-forward pipeline).
        let rel = (p[1].as_secs_f64() - f[1].as_secs_f64()).abs() / f[1].as_secs_f64();
        assert!(rel < 0.05, "urgent: packet {} vs fluid {}", p[1], f[1]);
        assert!(p[1] < p[0], "urgent finishes first");
        // Bulk finishes after both have fully crossed: ~7.2ms both.
        let rel = (p[0].as_secs_f64() - f[0].as_secs_f64()).abs() / f[0].as_secs_f64();
        assert!(rel < 0.02, "bulk: packet {} vs fluid {}", p[0], f[0]);
    }

    #[test]
    fn incast_aggregate_matches_fluid() {
        // Three senders into one receiver: rx at capacity; all finish ~3×
        // a solo transfer in both models.
        let bw = Bandwidth::from_gbps(2.0);
        let msgs = [
            msg(1, 0, 500_000, 0),
            msg(2, 0, 500_000, 0),
            msg(3, 0, 500_000, 0),
        ];
        let p = packet_simulate(&msgs, 4, bw, DEFAULT_MTU);
        let f = fluid(&msgs, 4, bw);
        let p_max = p.iter().max().expect("nonempty").as_secs_f64();
        let f_max = f.iter().max().expect("nonempty").as_secs_f64();
        assert!(
            ((p_max - f_max) / f_max).abs() < 0.02,
            "incast: packet {p_max} vs fluid {f_max}"
        );
    }

    #[test]
    fn staggered_release_is_respected() {
        let bw = Bandwidth::from_gbps(1.0);
        let late = PacketMessage {
            src: MachineId(0),
            dst: MachineId(1),
            bytes: 9_000,
            priority: Priority(0),
            at: SimTime::from_millis(5),
        };
        let done = packet_simulate(&[late], 2, bw, DEFAULT_MTU);
        assert!(done[0] >= SimTime::from_millis(5));
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        packet_simulate(
            &[msg(0, 1, 0, 0)],
            2,
            Bandwidth::from_gbps(1.0),
            DEFAULT_MTU,
        );
    }
}
