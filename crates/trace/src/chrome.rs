//! Chrome trace-event JSON export, loadable in Perfetto / `chrome://tracing`.
//!
//! Layout: one *process* per machine and one *thread* per lane — `0`
//! compute, `1` tx, `2` rx, `3` server — so a loaded trace reads like the
//! paper's timeline figures: compute segments and stalls on the compute
//! lane, each transfer as a span on the sender's tx lane and the receiver's
//! rx lane, aggregation on the server lane, with instants for round
//! updates, slice consumption and faults.
//!
//! Only the subset of the trace-event format that Perfetto needs is
//! emitted: `X` (complete) spans with `ts`/`dur` in microseconds, `i`
//! (instant) events, and `M` metadata records naming processes and
//! threads.

use crate::event::{ComputePhase, MsgClass, TraceEvent};
use crate::json::{parse, push_number, JsonValue};
use crate::sink::{TimedEvent, TraceLog};
use p3_des::SimTime;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// Lane (thread) ids within each machine's process.
const LANE_COMPUTE: u32 = 0;
/// Transmit lane.
const LANE_TX: u32 = 1;
/// Receive lane.
const LANE_RX: u32 = 2;
/// Server (aggregation) lane.
const LANE_SERVER: u32 = 3;

fn us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1_000.0
}

/// Appends trace-event objects to one buffer, `,\n`-separated. Names are
/// labels and integers, which need no JSON escaping.
struct Events<'o> {
    out: &'o mut String,
    first: bool,
}

impl Events<'_> {
    /// Starts the next event object, up to and including its name.
    fn open(&mut self, name: fmt::Arguments<'_>) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        let _ = write!(self.out, "{{\"name\": \"{name}\"");
    }

    fn span(
        &mut self,
        name: fmt::Arguments<'_>,
        pid: usize,
        tid: u32,
        (start, end): (SimTime, SimTime),
        bottleneck: Option<usize>,
    ) {
        self.open(name);
        let _ = write!(
            self.out,
            ", \"ph\": \"X\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "
        );
        push_number(self.out, us(start));
        self.out.push_str(", \"dur\": ");
        push_number(self.out, us(end).max(us(start)) - us(start));
        if let Some(link) = bottleneck {
            let _ = write!(self.out, ", \"args\": {{\"bottleneck\": {link}}}");
        }
        self.out.push('}');
    }

    fn instant(&mut self, name: fmt::Arguments<'_>, pid: usize, tid: u32, at: SimTime) {
        self.open(name);
        let _ = write!(
            self.out,
            ", \"ph\": \"i\", \"s\": \"t\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": "
        );
        push_number(self.out, us(at));
        self.out.push('}');
    }

    fn metadata(&mut self, kind: &str, pid: usize, tid: Option<u32>, name: &str) {
        self.open(format_args!("{kind}"));
        let _ = write!(self.out, ", \"ph\": \"M\", \"pid\": {pid}");
        if let Some(tid) = tid {
            let _ = write!(self.out, ", \"tid\": {tid}");
        }
        let _ = write!(self.out, ", \"args\": {{\"name\": \"{name}\"}}}}");
    }
}

/// Renders a recorded trace as a Chrome trace-event JSON document for
/// `machines` machines.
///
/// Spans whose end was never recorded (cut off by the end of the run) are
/// dropped; a retransmitted message's wire span reflects its last
/// transmission.
pub fn chrome_trace_json(log: &TraceLog, machines: usize) -> String {
    let mut out = String::with_capacity(64 * log.len());
    write_chrome_events(&mut out, log, machines);
    out.push_str("}\n");
    out
}

/// Appends the Chrome document up to, not including, its closing brace,
/// so the typed export can add members to the same object.
pub(crate) fn write_chrome_events(out: &mut String, log: &TraceLog, machines: usize) {
    out.push_str("{\"traceEvents\": [\n");
    let mut ev = Events { out, first: true };
    for m in 0..machines {
        ev.metadata("process_name", m, None, &format!("machine {m}"));
        ev.metadata("thread_name", m, Some(LANE_COMPUTE), "compute");
        ev.metadata("thread_name", m, Some(LANE_TX), "tx");
        ev.metadata("thread_name", m, Some(LANE_RX), "rx");
        ev.metadata("thread_name", m, Some(LANE_SERVER), "server");
    }

    // msg_id → (class, key) learned at enqueue; wire spans are named
    // after the protocol class even when the enqueue predates the capture.
    let mut msg_name: BTreeMap<u64, (MsgClass, usize)> = BTreeMap::new();

    for (TimedEvent { at, event }, opened) in log.paired() {
        match (event, opened) {
            (
                TraceEvent::ComputeEnd {
                    worker,
                    phase,
                    block,
                },
                Some(t0),
            ) => {
                let dir = match phase {
                    ComputePhase::Forward => "fwd",
                    ComputePhase::Backward => "bwd",
                };
                let name = format_args!("{dir} b{block}");
                ev.span(name, worker, LANE_COMPUTE, (t0, at), None);
            }
            (TraceEvent::StallEnd { worker, block }, Some(t0)) => {
                let name = format_args!("stall b{block}");
                ev.span(name, worker, LANE_COMPUTE, (t0, at), None);
            }
            (
                TraceEvent::EgressEnqueue {
                    msg_id, class, key, ..
                },
                _,
            ) => {
                msg_name.insert(msg_id, (class, key));
            }
            (
                TraceEvent::WireEnd {
                    msg_id,
                    src,
                    dst,
                    bottleneck,
                    ..
                },
                Some(t0),
            ) => {
                let label = msg_name.get(&msg_id);
                for (pid, tid) in [(src, LANE_TX), (dst, LANE_RX)] {
                    match label {
                        Some((class, key)) => {
                            let name = format_args!("{} k{key}", class.label());
                            ev.span(name, pid, tid, (t0, at), bottleneck);
                        }
                        None => {
                            let name = format_args!("msg {msg_id}");
                            ev.span(name, pid, tid, (t0, at), bottleneck);
                        }
                    }
                }
            }
            (TraceEvent::AggEnd { server, key, .. }, Some(t0)) => {
                let name = format_args!("agg k{key}");
                ev.span(name, server, LANE_SERVER, (t0, at), None);
            }
            (
                TraceEvent::RoundComplete {
                    server,
                    key,
                    version,
                    degraded,
                },
                _,
            ) => {
                let note = if degraded { " (degraded)" } else { "" };
                let name = format_args!("update k{key} v{version}{note}");
                ev.instant(name, server, LANE_SERVER, at);
            }
            (TraceEvent::SliceConsumed { worker, key, .. }, _) => {
                ev.instant(format_args!("consume k{key}"), worker, LANE_COMPUTE, at);
            }
            (TraceEvent::GradReady { worker, key, .. }, _) => {
                ev.instant(format_args!("grad k{key}"), worker, LANE_COMPUTE, at);
            }
            (TraceEvent::IterationEnd { worker, iter }, _) => {
                ev.instant(format_args!("iteration {iter}"), worker, LANE_COMPUTE, at);
            }
            (
                TraceEvent::Fault {
                    kind,
                    machine,
                    msg_id,
                },
                _,
            ) => match msg_id {
                Some(id) => {
                    let name = format_args!("fault {} msg{id}", kind.label());
                    ev.instant(name, machine, LANE_COMPUTE, at);
                }
                None => {
                    let name = format_args!("fault {}", kind.label());
                    ev.instant(name, machine, LANE_COMPUTE, at);
                }
            },
            // Span starts draw nothing until their end; an end whose start
            // is not on record is dropped. The hash stream is engine
            // bookkeeping for digest comparison, not for the Perfetto view.
            _ => {}
        }
    }
    out.push_str("\n]");
}

/// One validated `X` (complete) span from a Chrome trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeSpan {
    /// Span name.
    pub name: String,
    /// Process (machine) id.
    pub pid: usize,
    /// Thread (lane) id.
    pub tid: u32,
    /// Start, microseconds.
    pub ts: f64,
    /// Duration, microseconds.
    pub dur: f64,
    /// `args.bottleneck` (the saturated link id of a wire span on a
    /// topology run), when present.
    pub bottleneck: Option<usize>,
}

/// Parses and schema-checks a Chrome trace-event document, returning its
/// complete (`X`) spans.
///
/// Checks: the document is an object with a `traceEvents` array; every
/// entry is an object with a string `ph`; `X` entries carry a string
/// `name` and numeric `pid`/`tid`/`ts`/`dur` with `dur >= 0`; `i` entries
/// carry `name`, `pid`, `tid`, `ts`. An `X` entry may carry an `args`
/// object; when it holds a `bottleneck` it must be a non-negative number
/// (the link id), surfaced on the returned span.
pub fn validate_chrome_trace(doc: &str) -> Result<Vec<ChromeSpan>, String> {
    let v = parse(doc).map_err(|e| e.to_string())?;
    let events = v
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing traceEvents array")?;
    let mut spans = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let obj = ev
            .as_object()
            .ok_or(format!("event {i} is not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or(format!("event {i} missing ph"))?;
        let num = |key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(JsonValue::as_number)
                .ok_or(format!("{ph} event {i} missing numeric {key}"))
        };
        let name = || -> Result<String, String> {
            obj.get("name")
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("{ph} event {i} missing name"))
        };
        match ph {
            "X" => {
                let dur = num("dur")?;
                if dur < 0.0 {
                    return Err(format!("event {i} has negative dur"));
                }
                let mut bottleneck = None;
                if let Some(args) = obj.get("args") {
                    let args = args
                        .as_object()
                        .ok_or(format!("event {i} args is not an object"))?;
                    if let Some(b) = args.get("bottleneck") {
                        let b = b
                            .as_number()
                            .filter(|b| *b >= 0.0)
                            .ok_or(format!("event {i} bottleneck is not a link id"))?;
                        bottleneck = Some(b as usize);
                    }
                }
                spans.push(ChromeSpan {
                    name: name()?,
                    pid: num("pid")? as usize,
                    tid: num("tid")? as u32,
                    ts: num("ts")?,
                    dur,
                    bottleneck,
                });
            }
            "i" => {
                name()?;
                num("pid")?;
                num("tid")?;
                num("ts")?;
            }
            "M" => {
                name()?;
            }
            other => return Err(format!("event {i} has unsupported phase '{other}'")),
        }
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EndpointRole;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            TraceEvent::ComputeStart {
                worker: 0,
                phase: ComputePhase::Backward,
                block: 1,
            },
        );
        log.record(
            t(5),
            TraceEvent::ComputeEnd {
                worker: 0,
                phase: ComputePhase::Backward,
                block: 1,
            },
        );
        log.record(
            t(5),
            TraceEvent::EgressEnqueue {
                machine: 0,
                role: EndpointRole::Worker,
                msg_id: 1,
                class: MsgClass::Push,
                key: 4,
                round: 0,
                priority: 2,
                queue_depth: 0,
            },
        );
        log.record(
            t(5),
            TraceEvent::WireStart {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                priority: 2,
            },
        );
        log.record(
            t(9),
            TraceEvent::WireEnd {
                msg_id: 1,
                src: 0,
                dst: 1,
                bytes: 64,
                bottleneck: Some(2),
            },
        );
        log.record(
            t(9),
            TraceEvent::AggStart {
                server: 1,
                key: 4,
                round: 0,
                worker: 0,
            },
        );
        log.record(
            t(12),
            TraceEvent::AggEnd {
                server: 1,
                key: 4,
                round: 0,
                worker: 0,
            },
        );
        log.record(
            t(12),
            TraceEvent::RoundComplete {
                server: 1,
                key: 4,
                version: 1,
                degraded: false,
            },
        );
        log
    }

    #[test]
    fn export_validates_and_contains_expected_spans() {
        let doc = chrome_trace_json(&sample_log(), 2);
        let spans = validate_chrome_trace(&doc).expect("schema-valid");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"bwd b1"));
        assert!(names.contains(&"push k4"));
        assert!(names.contains(&"agg k4"));
        // The wire span appears on both the sender tx lane and receiver rx
        // lane.
        let wire: Vec<&ChromeSpan> = spans.iter().filter(|s| s.name == "push k4").collect();
        assert_eq!(wire.len(), 2);
        assert!(wire.iter().any(|s| s.pid == 0 && s.tid == 1));
        assert!(wire.iter().any(|s| s.pid == 1 && s.tid == 2));
        assert!((wire[0].dur - 4.0).abs() < 1e-9);
        // The bottleneck link id survives the export → validate round trip
        // on wire spans and stays absent elsewhere.
        assert!(wire.iter().all(|s| s.bottleneck == Some(2)));
        let bwd = spans
            .iter()
            .find(|s| s.name == "bwd b1")
            .expect("compute span");
        assert_eq!(bwd.bottleneck, None);
    }

    #[test]
    fn unfinished_spans_are_dropped() {
        let mut log = TraceLog::new();
        log.record(
            t(0),
            TraceEvent::WireStart {
                msg_id: 9,
                src: 0,
                dst: 1,
                bytes: 1,
                priority: 0,
            },
        );
        let doc = chrome_trace_json(&log, 2);
        let spans = validate_chrome_trace(&doc).expect("schema-valid");
        assert!(spans.is_empty());
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"ph": "X"}]}"#).is_err());
        assert!(validate_chrome_trace(
            r#"{"traceEvents": [{"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0, "dur": -1}]}"#
        )
        .is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": []}"#)
            .unwrap()
            .is_empty());
        // args, when present, must be an object with a numeric non-negative
        // bottleneck.
        assert!(validate_chrome_trace(
            r#"{"traceEvents": [{"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0, "dur": 1, "args": 3}]}"#
        )
        .is_err());
        assert!(validate_chrome_trace(
            r#"{"traceEvents": [{"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0, "dur": 1, "args": {"bottleneck": -4}}]}"#
        )
        .is_err());
        let ok = validate_chrome_trace(
            r#"{"traceEvents": [{"ph": "X", "name": "a", "pid": 0, "tid": 0, "ts": 0, "dur": 1, "args": {"bottleneck": 9}}]}"#,
        )
        .unwrap();
        assert_eq!(ok[0].bottleneck, Some(9));
    }
}
