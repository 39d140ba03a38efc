//! ASCII timeline rendering of a recorded slice-lifecycle trace.
//!
//! Converts a [`TraceLog`] from an instrumented run into the Gantt
//! vocabulary of [`crate::gantt`] — one labelled row per machine resource
//! (compute, stall, tx, rx, agg), segment times in simulated seconds — and
//! renders it with the same fixed-width [`ascii_gantt`] used for the
//! paper's Figure 4/6 regenerations. This is the terminal-friendly
//! counterpart of the Perfetto export in `p3-trace`.

use crate::gantt::{ascii_gantt, Lane, Schedule, Segment};
use p3_des::SimTime;
use p3_trace::{TimedEvent, TraceEvent, TraceLog};

/// Builds a Gantt [`Schedule`] from a recorded trace, cut off at the
/// instant every one of the `machines` workers has completed `iterations`
/// iterations (the whole log when `iterations` is zero or never reached).
///
/// Rows: `w{m} compute` and `w{m} stall` on the compute lane, `m{m} tx` /
/// `m{m} rx` for wire transfers, and `s{m} agg` for server aggregation.
/// On topology runs, transfers whose rate was bound by a transit link
/// (link id ≥ `2 * machines`, i.e. a switch uplink/downlink rather than
/// an endpoint port) additionally appear on a `link l{id}` row, making
/// core congestion visible as its own lane. Spans still open at the
/// cutoff are dropped.
#[expect(
    clippy::expect_used,
    reason = "segment times are finite trace timestamps"
)]
pub fn timeline_schedule(log: &TraceLog, machines: usize, iterations: u64) -> Schedule {
    let mut cutoff: Option<SimTime> = None;
    if iterations > 0 {
        let mut done = vec![0u64; machines];
        for te in log.events() {
            if let TraceEvent::IterationEnd { worker, .. } = te.event {
                if worker < machines {
                    done[worker] += 1;
                    if done.iter().all(|&d| d >= iterations) {
                        cutoff = Some(te.at);
                        break;
                    }
                }
            }
        }
    }

    let mut segments: Vec<Segment> = Vec::new();
    let mut push = |label: String, lane: Lane, s: SimTime, e: SimTime| {
        segments.push(Segment {
            label,
            lane,
            start: s.as_secs_f64(),
            end: e.as_secs_f64().max(s.as_secs_f64()),
        });
    };

    for (TimedEvent { at, event }, opened) in log.paired() {
        if cutoff.is_some_and(|c| at > c) {
            break;
        }
        let Some(t0) = opened else {
            continue;
        };
        match event {
            TraceEvent::ComputeEnd { worker, .. } => {
                push(format!("w{worker} compute"), Lane::Compute, t0, at);
            }
            TraceEvent::StallEnd { worker, .. } => {
                push(format!("w{worker} stall"), Lane::Compute, t0, at);
            }
            TraceEvent::WireEnd {
                src,
                dst,
                bottleneck,
                ..
            } => {
                push(format!("m{src} tx"), Lane::Send, t0, at);
                push(format!("m{dst} rx"), Lane::Receive, t0, at);
                // Transit (core) bottlenecks get their own lane; port
                // bottlenecks are already visible on the tx/rx rows.
                if let Some(l) = bottleneck {
                    if l >= 2 * machines {
                        push(format!("link l{l}"), Lane::Send, t0, at);
                    }
                }
            }
            TraceEvent::AggEnd { server, .. } => {
                push(format!("s{server} agg"), Lane::Update, t0, at);
            }
            // A cancelled transfer never reached its receiver: no bar.
            _ => {}
        }
    }

    segments.sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite times"));
    let makespan = segments.iter().map(|s| s.end).fold(0.0, f64::max);
    Schedule {
        segments,
        iteration_gap: 0.0,
        makespan,
    }
}

/// Renders the first `iterations` iterations of a recorded trace as a
/// fixed-width ASCII Gantt chart, `width` columns wide. Returns a marker
/// line when the trace contains no completed spans.
///
/// # Panics
///
/// Panics if `width` is zero.
pub fn ascii_timeline(log: &TraceLog, machines: usize, iterations: u64, width: usize) -> String {
    assert!(width > 0, "zero timeline width");
    let sched = timeline_schedule(log, machines, iterations);
    if sched.segments.is_empty() || sched.makespan <= 0.0 {
        return String::from("(empty trace)\n");
    }
    ascii_gantt(&sched, sched.makespan / width as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use p3_trace::ComputePhase;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            TraceEvent::ComputeStart {
                worker: 0,
                phase: ComputePhase::Forward,
                block: 0,
            },
        );
        log.record(
            t(10),
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: ComputePhase::Forward,
                block: 0,
            },
        );
        log.record(
            t(10),
            TraceEvent::WireStart {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                priority: 0,
            },
        );
        log.record(
            t(20),
            TraceEvent::WireEnd {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                bottleneck: None,
            },
        );
        log.record(
            t(20),
            TraceEvent::AggStart {
                server: 1,
                key: 0,
                round: 0,
                worker: 0,
            },
        );
        log.record(
            t(25),
            TraceEvent::AggEnd {
                server: 1,
                key: 0,
                round: 0,
                worker: 0,
            },
        );
        log.record(t(25), TraceEvent::IterationEnd { worker: 0, iter: 1 });
        log.record(t(25), TraceEvent::IterationEnd { worker: 1, iter: 1 });
        // Past the 1-iteration cutoff:
        log.record(
            t(30),
            TraceEvent::ComputeStart {
                worker: 0,
                phase: ComputePhase::Forward,
                block: 0,
            },
        );
        log.record(
            t(40),
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: ComputePhase::Forward,
                block: 0,
            },
        );
        log
    }

    #[test]
    fn schedule_covers_all_lanes() {
        let s = timeline_schedule(&sample_log(), 2, 0);
        let labels: Vec<&str> = s.segments.iter().map(|x| x.label.as_str()).collect();
        assert!(labels.contains(&"w0 compute"));
        assert!(labels.contains(&"m0 tx"));
        assert!(labels.contains(&"m1 rx"));
        assert!(labels.contains(&"s1 agg"));
        assert!((s.makespan - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn iteration_cutoff_truncates_the_schedule() {
        let s = timeline_schedule(&sample_log(), 2, 1);
        // The second compute span (30..40 µs) is past the cutoff at 25 µs.
        assert!((s.makespan - 25e-6).abs() < 1e-12);
        assert_eq!(
            s.segments
                .iter()
                .filter(|x| x.label == "w0 compute")
                .count(),
            1
        );
    }

    #[test]
    fn transit_bottlenecks_get_their_own_lane() {
        let mut log = TraceLog::new();
        // Two machines → link ids 0..4 are ports; id 4 is the first transit
        // link. A port-bottlenecked transfer must not grow a link row.
        log.record(
            t(0),
            TraceEvent::WireStart {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                priority: 0,
            },
        );
        log.record(
            t(10),
            TraceEvent::WireEnd {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                bottleneck: Some(4),
            },
        );
        log.record(
            t(10),
            TraceEvent::WireStart {
                msg_id: 2,
                src: 1,
                dst: 0,
                bytes: 64,
                priority: 0,
            },
        );
        log.record(
            t(20),
            TraceEvent::WireEnd {
                msg_id: 2,
                src: 1,
                dst: 0,
                bytes: 64,
                bottleneck: Some(1),
            },
        );
        let s = timeline_schedule(&log, 2, 0);
        let labels: Vec<&str> = s.segments.iter().map(|x| x.label.as_str()).collect();
        assert!(labels.contains(&"link l4"), "{labels:?}");
        assert!(
            !labels.iter().any(|l| l.starts_with("link l1")),
            "{labels:?}"
        );
    }

    #[test]
    fn ascii_timeline_renders_rows_and_bars() {
        let art = ascii_timeline(&sample_log(), 2, 0, 40);
        assert!(art.contains("w0 compute"));
        assert!(art.contains("s1 agg"));
        assert!(art.contains('#'));
    }

    #[test]
    fn empty_log_renders_a_marker() {
        assert_eq!(
            ascii_timeline(&TraceLog::new(), 2, 0, 40),
            "(empty trace)\n"
        );
    }
}
