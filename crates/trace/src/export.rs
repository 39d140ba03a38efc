//! Lossless typed-event trace files.
//!
//! [`chrome_trace_json`](crate::chrome_trace_json) is deliberately lossy:
//! it renders spans for humans and drops whatever Perfetto cannot show
//! (exact priorities, queue depths, unfinished transfers). The offline
//! auditor (`p3-audit`) needs the opposite — every [`TraceEvent`] exactly
//! as recorded, plus enough run metadata to evaluate capacity and
//! scheduling invariants.
//!
//! [`export_trace_json`] therefore writes one JSON document carrying both
//! views side by side:
//!
//! ```json
//! {
//!   "traceEvents": [ ... ],          // Chrome/Perfetto spans (lossy)
//!   "p3TraceVersion": 1,
//!   "p3Meta": { "machines": 4, ... },
//!   "p3Events": [ [t, "ws", ...], ... ]  // every event, lossless
//! }
//! ```
//!
//! The Chrome trace-event format ignores unknown top-level keys, so the
//! file still loads in Perfetto unchanged, and
//! [`validate_chrome_trace`](crate::validate_chrome_trace) keeps working.
//! [`import_trace_json`] round-trips the `p3Events` array back into a
//! [`TraceLog`].
//!
//! Events are encoded as compact JSON arrays `[nanos, tag, fields…]`; the
//! tag is a two-letter code per variant. All integers fit in an `f64`
//! mantissa at simulation scale (2⁵³ ns ≈ 104 days).
//!
//! One walk, [`walk_row`], names each row's fields once, in order: the
//! writer appends them to the export buffer, the reader reads them
//! straight from the document bytes. Tags and enum codes have one table
//! each, used both ways. The import builds no JSON tree: it decodes
//! `p3Events` row by row and passes over `traceEvents` with a skip that
//! checks the same grammar as a full parse.

use crate::chrome::write_chrome_events;
use crate::event::{ComputePhase, EndpointRole, FaultKind, MsgClass, TraceEvent};
use crate::json::{self, push_number, push_uint, JsonError, JsonValue, Parser};
use crate::sink::TraceLog;
use p3_des::SimTime;
use std::borrow::Cow;
use std::fmt::Write as _;

/// Format version written as `p3TraceVersion`.
pub const TRACE_FORMAT_VERSION: u64 = 1;

/// Run metadata embedded in an exported trace so an offline auditor can
/// evaluate invariants that depend on configuration, not just on the event
/// stream (egress discipline, in-flight window, NIC capacity).
///
/// Every field except `machines` is optional: `None` means "unknown", and
/// the auditor skips the checks that would need it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceMeta {
    /// Number of machines in the run.
    pub machines: usize,
    /// `Some(true)` if every endpoint drains one strict-priority queue
    /// through a single consumer (P3-style); `Some(false)` for
    /// per-destination FIFO lanes (baseline); `None` if unknown.
    pub single_consumer: Option<bool>,
    /// Maximum messages one single-consumer endpoint may have in flight.
    pub window: Option<usize>,
    /// Effective per-direction NIC goodput in bytes/sec (nominal bandwidth
    /// × efficiency), when every machine's port is identical (flat
    /// fabric). `None` on heterogeneous/topology fabrics, where per-port
    /// capacity cannot be summarized by one number.
    pub port_bytes_per_sec: Option<f64>,
    /// Strategy display name, for report headers.
    pub strategy: Option<String>,
    /// Model display name, for report headers.
    pub model: Option<String>,
    /// `Some(true)` when aggregation runs over a collective backend
    /// (ring / halving–doubling) rather than parameter servers; `None` if
    /// unknown. Collective rejoins sync worker versions in place instead
    /// of over the wire, which the auditor must model.
    pub collective: Option<bool>,
}

fn write_meta(out: &mut String, meta: &TraceMeta) {
    let opt = |v: Option<bool>| v.map_or("null", |b| if b { "true" } else { "false" });
    let _ = write!(
        out,
        "{{\"machines\":{},\"singleConsumer\":{},\"window\":",
        meta.machines,
        opt(meta.single_consumer)
    );
    let _ = match meta.window {
        Some(w) => write!(out, "{w}"),
        None => write!(out, "null"),
    };
    out.push_str(",\"portBytesPerSec\":");
    match meta.port_bytes_per_sec {
        Some(c) => push_number(out, c),
        None => out.push_str("null"),
    }
    for (key, text) in [("strategy", &meta.strategy), ("model", &meta.model)] {
        if let Some(text) = text {
            let _ = write!(out, ",\"{key}\":\"{}\"", json::escape(text));
        }
    }
    let _ = write!(out, ",\"collective\":{}}}", opt(meta.collective));
}

/// `n` as a row integer: non-negative, integral and below 2⁵³, where a
/// JSON number stops being exact.
fn uint(n: f64, what: &str) -> Result<u64, String> {
    // Below 2⁵³ the cast round-trips exactly when `n` is integral.
    if !(0.0..9.007_199_254_740_992e15).contains(&n) || (n as u64) as f64 != n {
        return Err(format!("{what} is not a u64 ({n})"));
    }
    Ok(n as u64)
}

/// An enum's wire codes: its variants in code order, and the name an
/// unknown code is reported under.
type Codes<T> = (&'static str, &'static [T]);

const PHASES: Codes<ComputePhase> = ("phase", &[ComputePhase::Forward, ComputePhase::Backward]);

const ROLES: Codes<EndpointRole> = ("role", &[EndpointRole::Worker, EndpointRole::Server]);

#[rustfmt::skip]
const CLASSES: Codes<MsgClass> = ("class", {
    use MsgClass::*;
    &[Push, Response, Notify, PullRequest, RackPush, CombinedPush, ReduceScatter, AllGather]
});

#[rustfmt::skip]
const FAULTS: Codes<FaultKind> = ("fault", {
    use FaultKind::*;
    &[
        Loss, Retransmit, GiveUp, Crash, Rejoin, Eviction, DegradedRound, StalePush,
        DuplicatePush, FlowCancelled, CollectiveAbort,
    ]
});

/// Every row tag, with a blank of its variant for a reader to fill, in
/// [`tag_index`] order.
#[rustfmt::skip]
const TAGS: [(&str, TraceEvent); 15] = {
    use TraceEvent::*;
    const FWD: ComputePhase = ComputePhase::Forward;
    [
        ("cs", ComputeStart { worker: 0, phase: FWD, block: 0 }),
        ("ce", ComputeEnd { worker: 0, phase: FWD, block: 0 }),
        ("ss", StallStart { worker: 0, block: 0 }),
        ("se", StallEnd { worker: 0, block: 0 }),
        ("it", IterationEnd { worker: 0, iter: 0 }),
        ("gr", GradReady { worker: 0, key: 0, round: 0, priority: 0 }),
        ("eq", EgressEnqueue {
            machine: 0, role: EndpointRole::Worker, msg_id: 0, class: MsgClass::Push,
            key: 0, round: 0, priority: 0, queue_depth: 0,
        }),
        ("ws", WireStart { msg_id: 0, src: 0, dst: 0, bytes: 0, priority: 0 }),
        ("we", WireEnd { msg_id: 0, src: 0, dst: 0, bytes: 0, bottleneck: None }),
        ("as", AggStart { server: 0, key: 0, round: 0, worker: 0 }),
        ("ae", AggEnd { server: 0, key: 0, round: 0, worker: 0 }),
        ("rc", RoundComplete { server: 0, key: 0, version: 0, degraded: false }),
        ("sc", SliceConsumed { worker: 0, key: 0, round: 0 }),
        ("ft", Fault { kind: FaultKind::Loss, machine: 0, msg_id: None }),
        ("sh", StateHash { events: 0, hash: 0 }),
    ]
};

/// The position of `ev`'s variant in [`TAGS`].
fn tag_index(ev: &TraceEvent) -> usize {
    use TraceEvent::*;
    match ev {
        ComputeStart { .. } => 0,
        ComputeEnd { .. } => 1,
        StallStart { .. } => 2,
        StallEnd { .. } => 3,
        IterationEnd { .. } => 4,
        GradReady { .. } => 5,
        EgressEnqueue { .. } => 6,
        WireStart { .. } => 7,
        WireEnd { .. } => 8,
        AggStart { .. } => 9,
        AggEnd { .. } => 10,
        RoundComplete { .. } => 11,
        SliceConsumed { .. } => 12,
        Fault { .. } => 13,
        StateHash { .. } => 14,
    }
}

type Res = Result<(), String>;

/// One direction of the row format. Every primitive takes its field by
/// `&mut`: a writer appends it, a reader overwrites it. Only a reader
/// fails; its messages leave naming the row to the importer.
trait RowCoder {
    /// An integer as a JSON number; a reader applies [`uint`].
    fn uint(&mut self, v: &mut u64, what: &str) -> Res;
    /// `null` or an integer.
    fn opt_uint(&mut self, v: &mut Option<u64>, what: &str) -> Res;
    /// A full 64-bit value, wider than an `f64` mantissa, as a hex string.
    fn hex(&mut self, v: &mut u64, what: &str) -> Res;
    /// The row's variant as its [`TAGS`] entry; a reader replaces `ev`
    /// with that entry's blank.
    fn tag(&mut self, ev: &mut TraceEvent) -> Res;

    fn idx(&mut self, v: &mut usize, what: &str) -> Res {
        let mut w = *v as u64;
        self.uint(&mut w, what)?;
        *v = w as usize;
        Ok(())
    }

    fn u32(&mut self, v: &mut u32, what: &str) -> Res {
        let mut w = u64::from(*v);
        self.uint(&mut w, what)?;
        *v = w as u32;
        Ok(())
    }

    /// A bool as `0`/`1`; a reader takes any non-zero integer as true.
    fn flag(&mut self, v: &mut bool, what: &str) -> Res {
        let mut w = u64::from(*v);
        self.uint(&mut w, what)?;
        *v = w != 0;
        Ok(())
    }

    /// An enum as its index in `codes`.
    fn code<T: Copy + PartialEq>(&mut self, v: &mut T, what: &str, codes: Codes<T>) -> Res {
        let (name, table) = codes;
        debug_assert!(table.contains(v), "the {name} code table misses a variant");
        let mut w = table.iter().position(|t| t == v).map_or(0, |i| i as u64);
        self.uint(&mut w, what)?;
        *v = *table
            .get(w as usize)
            .ok_or_else(|| format!("unknown {name} code {w}"))?;
        Ok(())
    }
}

/// The `p3Events` row format: the timestamp, the tag, then the variant's
/// fields, in row order. The one place that order is written down, laid
/// out as a table: one variant pattern a line, one field a line.
#[rustfmt::skip]
fn walk_row<C: RowCoder>(c: &mut C, at: &mut u64, ev: &mut TraceEvent) -> Res {
    use TraceEvent::*;
    c.uint(at, "timestamp")?;
    c.tag(ev)?;
    match ev {
        ComputeStart { worker, phase, block } | ComputeEnd { worker, phase, block } => {
            c.idx(worker, "worker")?;
            c.code(phase, "phase", PHASES)?;
            c.idx(block, "block")
        }
        StallStart { worker, block } | StallEnd { worker, block } => {
            c.idx(worker, "worker")?;
            c.idx(block, "block")
        }
        IterationEnd { worker, iter } => {
            c.idx(worker, "worker")?;
            c.uint(iter, "iter")
        }
        GradReady { worker, key, round, priority } => {
            c.idx(worker, "worker")?;
            c.idx(key, "key")?;
            c.uint(round, "round")?;
            c.u32(priority, "priority")
        }
        EgressEnqueue { machine, role, msg_id, class, key, round, priority, queue_depth } => {
            c.idx(machine, "machine")?;
            c.code(role, "role", ROLES)?;
            c.uint(msg_id, "msg_id")?;
            c.code(class, "class", CLASSES)?;
            c.idx(key, "key")?;
            c.uint(round, "round")?;
            c.u32(priority, "priority")?;
            c.idx(queue_depth, "queue_depth")
        }
        WireStart { msg_id, src, dst, bytes, priority } => {
            c.uint(msg_id, "msg_id")?;
            c.idx(src, "src")?;
            c.idx(dst, "dst")?;
            c.uint(bytes, "bytes")?;
            c.u32(priority, "priority")
        }
        WireEnd { msg_id, src, dst, bytes, bottleneck } => {
            c.uint(msg_id, "msg_id")?;
            c.idx(src, "src")?;
            c.idx(dst, "dst")?;
            c.uint(bytes, "bytes")?;
            let mut link = bottleneck.map(|l| l as u64);
            c.opt_uint(&mut link, "bottleneck")?;
            *bottleneck = link.map(|l| l as usize);
            Ok(())
        }
        AggStart { server, key, round, worker } | AggEnd { server, key, round, worker } => {
            c.idx(server, "server")?;
            c.idx(key, "key")?;
            c.uint(round, "round")?;
            c.idx(worker, "worker")
        }
        RoundComplete { server, key, version, degraded } => {
            c.idx(server, "server")?;
            c.idx(key, "key")?;
            c.uint(version, "version")?;
            c.flag(degraded, "degraded")
        }
        SliceConsumed { worker, key, round } => {
            c.idx(worker, "worker")?;
            c.idx(key, "key")?;
            c.uint(round, "round")
        }
        Fault { kind, machine, msg_id } => {
            c.code(kind, "kind", FAULTS)?;
            c.idx(machine, "machine")?;
            c.opt_uint(msg_id, "msg_id")
        }
        StateHash { events, hash } => {
            c.uint(events, "events")?;
            c.hex(hash, "hash")
        }
    }
}

/// Appends one row to the export buffer.
struct RowWriter<'o> {
    out: &'o mut String,
    fields: usize,
}

impl RowWriter<'_> {
    /// Opens the next field: the row's `[`, or the `,` before it.
    fn field(&mut self) -> &mut String {
        self.out.push(if self.fields == 0 { '[' } else { ',' });
        self.fields += 1;
        self.out
    }
}

impl RowCoder for RowWriter<'_> {
    fn uint(&mut self, v: &mut u64, _: &str) -> Res {
        push_uint(self.field(), *v);
        Ok(())
    }

    fn opt_uint(&mut self, v: &mut Option<u64>, _: &str) -> Res {
        match *v {
            Some(n) => push_uint(self.field(), n),
            None => self.field().push_str("null"),
        }
        Ok(())
    }

    fn hex(&mut self, v: &mut u64, _: &str) -> Res {
        let _ = write!(self.field(), "\"{v:016x}\"");
        Ok(())
    }

    fn tag(&mut self, ev: &mut TraceEvent) -> Res {
        let out = self.field();
        out.push('"');
        out.push_str(TAGS[tag_index(ev)].0);
        out.push('"');
        Ok(())
    }
}

/// Reads one row straight from the document bytes. A missing delimiter
/// is left unnamed: [`read_row`] names it.
struct RowReader<'p, 'a> {
    p: &'p mut Parser<'a>,
    fields: usize,
    tagged: bool,
}

impl RowReader<'_, '_> {
    /// Steps past `delim` (the row's `[` or `]`, a field's `,`) and the
    /// whitespace around it.
    fn step(&mut self, delim: u8) -> Res {
        self.p.skip_ws();
        if self.p.peek() != Some(delim) {
            return Err(String::new());
        }
        self.p.pos += 1;
        self.p.skip_ws();
        Ok(())
    }

    /// Steps to the next field, past the row's `[` or the `,` before it.
    fn field(&mut self) -> Res {
        let delim = if self.fields == 0 { b'[' } else { b',' };
        self.fields += 1;
        self.step(delim)
    }

    fn number(&mut self, what: &str) -> Result<u64, String> {
        if let Some(n) = self.p.plain_uint() {
            return Ok(n);
        }
        match self.p.peek() {
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                uint(self.p.number().map_err(|e| e.to_string())?, what)
            }
            _ => Err(format!("{what} is not a number")),
        }
    }

    fn string(&mut self, what: &str) -> Result<Cow<'_, str>, String> {
        if self.p.peek() != Some(b'"') {
            return Err(format!("{what} is not a string"));
        }
        self.p.string().map_err(|e| e.to_string())
    }
}

impl RowCoder for RowReader<'_, '_> {
    fn uint(&mut self, v: &mut u64, what: &str) -> Res {
        self.field()?;
        *v = self.number(what)?;
        Ok(())
    }

    fn opt_uint(&mut self, v: &mut Option<u64>, what: &str) -> Res {
        self.field()?;
        *v = if self.p.peek() == Some(b'n') {
            self.p.literal("null").map_err(|e| e.to_string())?;
            None
        } else {
            Some(self.number(what)?)
        };
        Ok(())
    }

    fn hex(&mut self, v: &mut u64, what: &str) -> Res {
        self.field()?;
        let text = self.string(what)?;
        *v = u64::from_str_radix(&text, 16).map_err(|_| format!("{what} {text:?} is not hex"))?;
        Ok(())
    }

    fn tag(&mut self, ev: &mut TraceEvent) -> Res {
        self.field()?;
        let tag = self.string("tag")?;
        let found = <[u8; 2]>::try_from(tag.as_bytes()).ok().and_then(tag_blank);
        *ev = found.ok_or_else(|| format!("unknown tag {tag:?}"))?;
        self.tagged = true;
        Ok(())
    }
}

/// The blank of the variant tagged `pair`. Every tag is two bytes, so
/// they compare as one pair, not as strings.
fn tag_blank(pair: [u8; 2]) -> Option<TraceEvent> {
    let (_, blank) = TAGS
        .iter()
        .find(|(t, _)| matches!(t.as_bytes(), &[a, b] if [a, b] == pair))?;
    Some(*blank)
}

/// Reads one row in the shape the export writes (no whitespace, integers
/// of 1 to 15 plain digits, hex digits with no escapes) straight from
/// the bytes. Any other shape fails without naming a fault; every row
/// it reads, [`RowReader`] reads as the same event.
struct PlainRow<'a> {
    b: &'a [u8],
    i: usize,
    fields: usize,
}

impl PlainRow<'_> {
    fn byte(&mut self, want: u8) -> Res {
        if self.b.get(self.i) != Some(&want) {
            return Err(String::new());
        }
        self.i += 1;
        Ok(())
    }

    /// Steps past the next field's delimiter: the row's `[` or a `,`.
    fn field(&mut self) -> Res {
        let delim = if self.fields == 0 { b'[' } else { b',' };
        self.fields += 1;
        self.byte(delim)
    }

    /// Up to 15 digits, right before the next `,` or `]`.
    fn digits(&mut self) -> Result<u64, String> {
        let start = self.i;
        let mut n = 0u64;
        while let Some(d) = self.b.get(self.i).filter(|d| d.is_ascii_digit()) {
            n = n * 10 + u64::from(d - b'0');
            self.i += 1;
            if self.i - start > 15 {
                return Err(String::new());
            }
        }
        match self.b.get(self.i) {
            Some(b',' | b']') if self.i > start => Ok(n),
            _ => Err(String::new()),
        }
    }
}

impl RowCoder for PlainRow<'_> {
    fn uint(&mut self, v: &mut u64, _: &str) -> Res {
        self.field()?;
        *v = self.digits()?;
        Ok(())
    }

    fn opt_uint(&mut self, v: &mut Option<u64>, _: &str) -> Res {
        self.field()?;
        *v = if self.b.get(self.i..).is_some_and(|b| b.starts_with(b"null")) {
            self.i += 4;
            None
        } else {
            Some(self.digits()?)
        };
        Ok(())
    }

    fn hex(&mut self, v: &mut u64, _: &str) -> Res {
        self.field()?;
        self.byte(b'"')?;
        let start = self.i;
        while self.b.get(self.i).is_some_and(u8::is_ascii_hexdigit) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| String::new())?;
        *v = u64::from_str_radix(text, 16).map_err(|_| String::new())?;
        self.byte(b'"')
    }

    fn tag(&mut self, ev: &mut TraceEvent) -> Res {
        self.field()?;
        match self.b.get(self.i..self.i + 4) {
            Some(&[b'"', a, b, b'"']) => {
                *ev = tag_blank([a, b]).ok_or_else(String::new)?;
                self.i += 4;
                Ok(())
            }
            _ => Err(String::new()),
        }
    }
}

/// Reads row `i` of `p3Events`; the outer error is a JSON syntax error.
/// A row that fails is re-read as plain JSON to rank its faults as a
/// whole-row decoder would: syntax, too short, timestamp or tag, field
/// count, then the field.
fn read_row(p: &mut Parser, i: usize) -> Result<Result<(SimTime, TraceEvent), String>, JsonError> {
    let start = p.pos;
    if p.peek() != Some(b'[') {
        p.skip_value()?;
        return Ok(Err(format!("p3Events[{i}] is not an array")));
    }
    let (mut at, mut ev) = (0, TAGS[0].1);
    let mut plain = PlainRow {
        b: p.ahead(),
        i: 0,
        fields: 0,
    };
    if walk_row(&mut plain, &mut at, &mut ev)
        .and_then(|()| plain.byte(b']'))
        .is_ok()
    {
        p.pos += plain.i;
        p.skip_ws();
        return Ok(Ok((SimTime::from_nanos(at), ev)));
    }
    let mut r = RowReader {
        p,
        fields: 0,
        tagged: false,
    };
    let (mut at, mut ev) = (0, TAGS[0].1);
    let fault = match walk_row(&mut r, &mut at, &mut ev).and_then(|()| r.step(b']')) {
        Ok(()) => return Ok(Ok((SimTime::from_nanos(at), ev))),
        Err(fault) => fault,
    };
    let tagged = r.tagged;
    p.pos = start;
    let mut got = 0;
    p.elements(|p| {
        got += 1;
        p.skip_value()
    })?;
    // The field count of the row's variant: write a blank one.
    let mut need = RowWriter {
        out: &mut String::new(),
        fields: 0,
    };
    let _ = walk_row(&mut need, &mut 0, &mut ev);
    let why = if got < 2 {
        "row too short".to_string()
    } else if tagged && got != need.fields {
        format!("expected {} fields, got {got}", need.fields)
    } else {
        fault
    };
    Ok(Err(format!("p3Events[{i}]: {why}")))
}

/// Decodes a `p3Events` array row by row. Rows after the first bad one
/// are only checked as JSON.
fn read_events(p: &mut Parser) -> Result<Result<TraceLog, String>, JsonError> {
    if p.peek() != Some(b'[') {
        p.skip_value()?;
        return Ok(Err("p3Events is not an array".into()));
    }
    // Room for a row per `[` left in the document, rounded up to the
    // capacity growth by doubling would end at: the same allocation, and
    // so the same resident footprint, without copying every row about
    // twice on the way there.
    let rows = p.ahead().iter().filter(|&&c| c == b'[').count();
    let rows = rows.checked_next_power_of_two().unwrap_or(0);
    let mut log = Ok(TraceLog::with_room(rows));
    let mut i = 0;
    p.elements(|p| {
        match &mut log {
            Ok(rows) => match read_row(p, i)? {
                Ok((at, ev)) => rows.record(at, ev),
                Err(e) => log = Err(e),
            },
            Err(_) => p.skip_value()?,
        }
        i += 1;
        Ok(())
    })?;
    Ok(log)
}

/// Exports a trace as one JSON document carrying both the lossy Chrome
/// spans (`traceEvents`, for Perfetto) and the lossless typed events plus
/// run metadata (`p3Events`/`p3Meta`, for `p3 audit`).
///
/// # Examples
///
/// ```
/// use p3_des::SimTime;
/// use p3_trace::{export_trace_json, import_trace_json, TraceEvent, TraceLog, TraceMeta};
///
/// let mut log = TraceLog::new();
/// log.record(
///     SimTime::from_micros(1),
///     TraceEvent::WireStart { msg_id: 0, src: 0, dst: 1, bytes: 64, priority: 2 },
/// );
/// let meta = TraceMeta { machines: 2, ..TraceMeta::default() };
/// let doc = export_trace_json(&log, &meta);
/// let (log, parsed) = import_trace_json(&doc).unwrap();
/// assert_eq!(log.len(), 1);
/// assert_eq!(parsed.machines, 2);
/// ```
pub fn export_trace_json(log: &TraceLog, meta: &TraceMeta) -> String {
    // About 100 bytes an event: two thirds Chrome spans, one third rows.
    let mut out = String::with_capacity(100 * log.len() + 256);
    write_chrome_events(&mut out, log, meta.machines);
    let _ = write!(
        out,
        ",\n\"p3TraceVersion\": {TRACE_FORMAT_VERSION},\n\"p3Meta\": "
    );
    write_meta(&mut out, meta);
    out.push_str(",\n\"p3Events\": [\n");
    for (n, e) in log.events().iter().enumerate() {
        if n > 0 {
            out.push_str(",\n");
        }
        let (mut at, mut ev) = (e.at.as_nanos(), e.event);
        let mut w = RowWriter {
            out: &mut out,
            fields: 0,
        };
        // Writing cannot fail: only a reader reports errors.
        let _ = walk_row(&mut w, &mut at, &mut ev);
        out.push(']');
    }
    out.push_str("\n]}\n");
    out
}

fn meta_from_json(v: &JsonValue) -> Result<TraceMeta, String> {
    let flag = |key| v.get(key).and_then(JsonValue::as_bool);
    let text = |key| v.get(key).and_then(JsonValue::as_str).map(str::to_string);
    let machines = v
        .get("machines")
        .and_then(JsonValue::as_number)
        .ok_or("p3Meta.machines missing or not a number")?;
    let window = match v.get("window").and_then(JsonValue::as_number) {
        Some(w) => Some(uint(w, "p3Meta.window")? as usize),
        None => None,
    };
    Ok(TraceMeta {
        machines: uint(machines, "p3Meta.machines")? as usize,
        single_consumer: flag("singleConsumer"),
        window,
        port_bytes_per_sec: v.get("portBytesPerSec").and_then(JsonValue::as_number),
        strategy: text("strategy"),
        model: text("model"),
        collective: flag("collective"),
    })
}

/// Parses a document written by [`export_trace_json`] back into the typed
/// event log and its metadata.
///
/// Fails with a description when the document is not JSON, lacks the
/// `p3Events` array (e.g. a plain Chrome trace), or contains a malformed
/// row. Of several faults, a JSON syntax error is reported first.
pub fn import_trace_json(doc: &str) -> Result<(TraceLog, TraceMeta), String> {
    let mut p = Parser::new(doc);
    let (mut version, mut meta, mut events) = (None, None, None);
    p.skip_ws();
    let scanned = if p.peek() == Some(b'{') {
        // A repeated member keeps its last value, as in a parsed tree.
        p.members(|p, key| {
            match &*key {
                "p3TraceVersion" => version = Some(p.value()?),
                "p3Meta" => meta = Some(p.value()?),
                "p3Events" => events = Some(read_events(p)?),
                _ => p.skip_value()?,
            }
            Ok(())
        })
    } else {
        p.skip_value()
    };
    scanned
        .and_then(|()| p.finish())
        .map_err(|e| e.to_string())?;
    if let Some(version) = version {
        let n = version
            .as_number()
            .ok_or("p3TraceVersion is not a number")?;
        let version = uint(n, "p3TraceVersion")?;
        if version != TRACE_FORMAT_VERSION {
            return Err(format!(
                "p3TraceVersion {version} is not the supported version {TRACE_FORMAT_VERSION} \
                 (re-export with a matching build)"
            ));
        }
    }
    let log =
        events.ok_or("no p3Events array: not a p3 typed trace (re-export with a current build)")?;
    let meta = match meta {
        Some(m) => meta_from_json(&m)?,
        None => TraceMeta::default(),
    };
    Ok((log?, meta))
}

#[cfg(test)]
mod tests;
