//! # p3-trace — end-to-end simulation tracing
//!
//! Observability layer for the P3 reproduction: a typed event vocabulary
//! covering the full slice lifecycle (gradient generated → egress-enqueued →
//! wire → server aggregate → update → pull → consumed by the next forward),
//! the [`TraceLog`] a run records into, one walk that pairs span starts
//! with their ends ([`TraceLog::paired`]), a metrics registry with
//! per-stage latency breakdowns, and exporters to Chrome trace-event JSON
//! (Perfetto) plus helpers for ASCII timelines.
//!
//! The crate deliberately depends only on the DES kernel and names
//! simulator entities by plain indices, so the layers above it speak one
//! vocabulary without dependency cycles.
//!
//! ## Zero-overhead guarantee
//!
//! The cluster engine is the one writer: it holds an `Option<TraceLog>`
//! and records every event itself, wire starts and deliveries included.
//! With tracing off the cost is a single branch per potential event;
//! recording draws no randomness and schedules nothing, so a traced run
//! and an untraced run of the same seed produce bit-identical results —
//! pinned by test in `p3-cluster`.
//!
//! # Examples
//!
//! ```
//! use p3_des::SimTime;
//! use p3_trace::{chrome_trace_json, validate_chrome_trace, TraceEvent, TraceLog};
//!
//! let mut log = TraceLog::new();
//! log.record(
//!     SimTime::from_micros(3),
//!     TraceEvent::WireStart { msg_id: 0, src: 0, dst: 1, bytes: 512, priority: 1 },
//! );
//! log.record(
//!     SimTime::from_micros(7),
//!     TraceEvent::WireEnd { msg_id: 0, src: 0, dst: 1, bytes: 512, bottleneck: None },
//! );
//! let doc = chrome_trace_json(&log, 2);
//! assert_eq!(validate_chrome_trace(&doc).unwrap().len(), 2); // tx + rx lanes
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod event;
mod export;
pub mod json;
mod metrics;
mod paired;
mod sink;

pub use chrome::{chrome_trace_json, validate_chrome_trace, ChromeSpan};
pub use event::{ComputePhase, EndpointRole, FaultKind, MsgClass, TraceEvent};
pub use export::{export_trace_json, import_trace_json, TraceMeta, TRACE_FORMAT_VERSION};
pub use metrics::MetricsRegistry;
pub use paired::Paired;
pub use sink::{TimedEvent, TraceLog};
