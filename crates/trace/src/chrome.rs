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
use crate::json::{parse, push_digits, push_number, push_uint, JsonValue};
use crate::sink::{TimedEvent, TraceLog};
use p3_des::SimTime;
use std::collections::BTreeMap;

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

/// Appends `ns` nanoseconds in microseconds, as the bytes
/// `push_number(ns as f64 / 1e3)` writes: the exact decimal, with the
/// fractional digits' trailing zeros dropped. Below 2⁵⁰ ns the quotient
/// is under 2⁴¹, where an `f64` step is under 0.001, so that decimal is
/// the shortest that round-trips. At or above it, the float is written.
fn push_micros(out: &mut String, ns: u64) {
    if ns >= 1 << 50 {
        return push_number(out, ns as f64 / 1_000.0);
    }
    let (whole, frac) = (ns / 1_000, ns % 1_000);
    push_uint(out, whole);
    if frac != 0 {
        out.push('.');
        push_digits(out, frac, 3);
        // A non-zero digit stops this before the point.
        while out.ends_with('0') {
            out.pop();
        }
    }
}

/// A span's duration in microseconds, rendered into `buf`. It stays the
/// difference of the two floats: its shortest form is not a decimal of
/// the nanosecond difference.
fn render_dur(buf: &mut String, start: SimTime, end: SimTime) -> &str {
    buf.clear();
    push_number(buf, us(end).max(us(start)) - us(start));
    buf
}

/// One piece of an event name. Names are labels and integers, which
/// need no JSON escaping.
#[derive(Clone, Copy)]
enum Piece<'a> {
    Text(&'a str),
    Int(u64),
}

use Piece::{Int, Text};

/// `msg_id` → `(class, key)`, learned at enqueue. The engine numbers
/// messages upward from 0, so ids index a vector, which grows to at most
/// two slots per name plus [`MsgNames::SLACK`]. An id past that (only a
/// hand-made log has one) goes to a map. Once the vector covers an id,
/// every later name of it goes to its slot, so a filled slot is the
/// latest name and only an empty one defers to the map.
#[derive(Default)]
struct MsgNames {
    dense: Vec<Option<(MsgClass, usize)>>,
    sparse: BTreeMap<u64, (MsgClass, usize)>,
    names: usize,
}

impl MsgNames {
    const SLACK: usize = 1 << 10;

    /// Names `id`, replacing an earlier name.
    fn insert(&mut self, id: u64, name: (MsgClass, usize)) {
        self.names += 1;
        match usize::try_from(id) {
            Ok(i) if i < self.dense.len() => self.dense[i] = Some(name),
            Ok(i) if i < 2 * self.names + Self::SLACK => {
                self.dense.resize(i, None);
                self.dense.push(Some(name));
            }
            _ => {
                self.sparse.insert(id, name);
            }
        }
    }

    fn get(&self, id: u64) -> Option<(MsgClass, usize)> {
        let dense = usize::try_from(id).ok().and_then(|i| self.dense.get(i));
        dense
            .copied()
            .flatten()
            .or_else(|| self.sparse.get(&id).copied())
    }
}

/// Appends trace-event objects to one buffer, `,\n`-separated.
struct Events<'o> {
    out: &'o mut String,
    first: bool,
}

impl Events<'_> {
    /// Starts the next event object, up to and including its name.
    fn open(&mut self, name: &[Piece<'_>]) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        self.out.push_str("{\"name\": \"");
        self.pieces(name);
        self.out.push('"');
    }

    fn pieces(&mut self, pieces: &[Piece<'_>]) {
        for piece in pieces {
            match *piece {
                Text(text) => self.out.push_str(text),
                Int(n) => push_uint(self.out, n),
            }
        }
    }

    /// Appends `head` (the phase, up to the `pid` key), the pid, then the
    /// tid if given.
    fn place(&mut self, head: &str, pid: usize, tid: Option<u32>) {
        self.out.push_str(head);
        push_uint(self.out, pid as u64);
        if let Some(tid) = tid {
            self.out.push_str(", \"tid\": ");
            push_uint(self.out, tid.into());
        }
    }

    /// A complete span from `start`, lasting `dur` (see [`render_dur`]).
    fn span(
        &mut self,
        name: &[Piece<'_>],
        pid: usize,
        tid: u32,
        start: SimTime,
        dur: &str,
        bottleneck: Option<usize>,
    ) {
        self.open(name);
        self.place(", \"ph\": \"X\", \"pid\": ", pid, Some(tid));
        self.out.push_str(", \"ts\": ");
        push_micros(self.out, start.as_nanos());
        self.out.push_str(", \"dur\": ");
        self.out.push_str(dur);
        if let Some(link) = bottleneck {
            self.out.push_str(", \"args\": {\"bottleneck\": ");
            push_uint(self.out, link as u64);
            self.out.push('}');
        }
        self.out.push('}');
    }

    fn instant(&mut self, name: &[Piece<'_>], pid: usize, tid: u32, at: SimTime) {
        self.open(name);
        self.place(", \"ph\": \"i\", \"s\": \"t\", \"pid\": ", pid, Some(tid));
        self.out.push_str(", \"ts\": ");
        push_micros(self.out, at.as_nanos());
        self.out.push('}');
    }

    fn metadata(&mut self, kind: &str, pid: usize, tid: Option<u32>, name: &[Piece<'_>]) {
        self.open(&[Text(kind)]);
        self.place(", \"ph\": \"M\", \"pid\": ", pid, tid);
        self.out.push_str(", \"args\": {\"name\": \"");
        self.pieces(name);
        self.out.push_str("\"}}");
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
        ev.metadata("process_name", m, None, &[Text("machine "), Int(m as u64)]);
        for (tid, lane) in [
            (LANE_COMPUTE, "compute"),
            (LANE_TX, "tx"),
            (LANE_RX, "rx"),
            (LANE_SERVER, "server"),
        ] {
            ev.metadata("thread_name", m, Some(tid), &[Text(lane)]);
        }
    }

    // Wire spans are named after the protocol class even when the
    // enqueue predates the capture.
    let mut msg_name = MsgNames::default();
    let mut dur_buf = String::new();

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
                    ComputePhase::Forward => "fwd b",
                    ComputePhase::Backward => "bwd b",
                };
                let name = [Text(dir), Int(block as u64)];
                let dur = render_dur(&mut dur_buf, t0, at);
                ev.span(&name, worker, LANE_COMPUTE, t0, dur, None);
            }
            (TraceEvent::StallEnd { worker, block }, Some(t0)) => {
                let name = [Text("stall b"), Int(block as u64)];
                let dur = render_dur(&mut dur_buf, t0, at);
                ev.span(&name, worker, LANE_COMPUTE, t0, dur, None);
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
                let name: &[Piece] = match msg_name.get(msg_id) {
                    Some((class, key)) => &[Text(class.label()), Text(" k"), Int(key as u64)],
                    None => &[Text("msg "), Int(msg_id)],
                };
                let dur = render_dur(&mut dur_buf, t0, at);
                for (pid, tid) in [(src, LANE_TX), (dst, LANE_RX)] {
                    ev.span(name, pid, tid, t0, dur, bottleneck);
                }
            }
            (TraceEvent::AggEnd { server, key, .. }, Some(t0)) => {
                let name = [Text("agg k"), Int(key as u64)];
                let dur = render_dur(&mut dur_buf, t0, at);
                ev.span(&name, server, LANE_SERVER, t0, dur, None);
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
                let name = [
                    Text("update k"),
                    Int(key as u64),
                    Text(" v"),
                    Int(version),
                    Text(note),
                ];
                ev.instant(&name, server, LANE_SERVER, at);
            }
            (TraceEvent::SliceConsumed { worker, key, .. }, _) => {
                let name = [Text("consume k"), Int(key as u64)];
                ev.instant(&name, worker, LANE_COMPUTE, at);
            }
            (TraceEvent::GradReady { worker, key, .. }, _) => {
                let name = [Text("grad k"), Int(key as u64)];
                ev.instant(&name, worker, LANE_COMPUTE, at);
            }
            (TraceEvent::IterationEnd { worker, iter }, _) => {
                let name = [Text("iteration "), Int(iter)];
                ev.instant(&name, worker, LANE_COMPUTE, at);
            }
            (
                TraceEvent::Fault {
                    kind,
                    machine,
                    msg_id,
                },
                _,
            ) => {
                let name: &[Piece] = match msg_id {
                    Some(id) => &[Text("fault "), Text(kind.label()), Text(" msg"), Int(id)],
                    None => &[Text("fault "), Text(kind.label())],
                };
                ev.instant(name, machine, LANE_COMPUTE, at);
            }
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

    fn micros(ns: u64) -> String {
        let mut out = String::new();
        push_micros(&mut out, ns);
        out
    }

    /// What `ts` was before the exact-decimal writer.
    fn float_micros(ns: u64) -> String {
        let mut out = String::new();
        push_number(&mut out, us(SimTime::from_nanos(ns)));
        out
    }

    #[test]
    fn timestamps_are_exact_decimals_of_the_nanoseconds() {
        for (ns, want) in [
            (0, "0"),
            (999, "0.999"),
            (1_000, "1"),
            (1_001, "1.001"),
            (1_010, "1.01"),
            (1_100, "1.1"),
            ((1 << 50) - 1, "1125899906842.623"),
            (1 << 50, "1125899906842.624"),
        ] {
            assert_eq!(micros(ns), want, "{ns} ns");
            assert_eq!(micros(ns), float_micros(ns), "{ns} ns");
        }
    }

    proptest::proptest! {
        /// The exact-decimal `ts` writes the bytes the float one wrote:
        /// at any magnitude, on multiples of 10, 100 and 1000 (trailing
        /// zeros dropped), and around the 2⁵⁰ ns fallback.
        #[test]
        fn timestamps_match_the_float_timestamps(raw in proptest::any::<u64>()) {
            for ns in [
                raw >> (raw % 64),
                (raw >> 12) * 10,
                (raw >> 12) * 100,
                (raw >> 12) * 1_000,
                (1 << 50) - 4_096 + raw % 8_192,
                raw >> 11,
            ] {
                proptest::prop_assert_eq!(micros(ns), float_micros(ns), "{} ns", ns);
            }
        }
    }

    fn enqueue(msg_id: u64, class: MsgClass, key: usize) -> TraceEvent {
        TraceEvent::EgressEnqueue {
            machine: 0,
            role: EndpointRole::Worker,
            msg_id,
            class,
            key,
            round: 0,
            priority: 0,
            queue_depth: 0,
        }
    }

    fn transfer(log: &mut TraceLog, at: u64, msg_id: u64) {
        let (src, dst, bytes) = (0, 1, 8);
        let priority = 0;
        log.record(
            t(at),
            TraceEvent::WireStart {
                msg_id,
                src,
                dst,
                bytes,
                priority,
            },
        );
        let bottleneck = None;
        log.record(
            t(at + 1),
            TraceEvent::WireEnd {
                msg_id,
                src,
                dst,
                bytes,
                bottleneck,
            },
        );
    }

    #[test]
    fn wire_spans_take_the_latest_name_of_any_msg_id() {
        let mut log = TraceLog::new();
        // 1100 and 2⁴⁰ are named while far past every other id. Naming
        // 0..600 and 1200 then stretches the vector over 700 and 1100; 5
        // is renamed, 700 never named.
        log.record(t(0), enqueue(1100, MsgClass::Push, 1));
        log.record(t(0), enqueue(1 << 40, MsgClass::Push, 2));
        for id in 0..600 {
            log.record(t(0), enqueue(id, MsgClass::Push, 3));
        }
        log.record(t(0), enqueue(1200, MsgClass::Push, 4));
        log.record(t(0), enqueue(5, MsgClass::Push, 5));
        for id in [1100, 1 << 40, 0, 5, 700] {
            transfer(&mut log, 1, id);
        }
        log.record(t(3), enqueue(1100, MsgClass::Response, 6));
        transfer(&mut log, 4, 1100);
        let spans = validate_chrome_trace(&chrome_trace_json(&log, 2)).expect("schema-valid");
        let names: Vec<&str> = spans.iter().step_by(2).map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["push k1", "push k2", "push k3", "push k5", "msg 700", "pull k6"]
        );
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
