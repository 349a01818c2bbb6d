//! # ril-trace — hierarchical span tracing and metrics
//!
//! The paper's entire evaluation is a claim about *where time goes*
//! (SAT-attack runtime exploding with RIL-Block count/size), so the suite
//! needs instrumentation that can attribute a two-hour table cell to CNF
//! encoding vs. DIP search vs. key confirmation — not just report its
//! wall clock. This crate provides that layer (DESIGN.md §9):
//!
//! - **Spans** ([`span()`], [`Span`], [`Tracer`]): hierarchical timed
//!   regions following the taxonomy `experiment → cell → attack →
//!   iteration → solve`, tagged with a [`Phase`] so post-processing can
//!   bucket time into encode / solve / verify.
//! - **Context propagation**: a thread-local stack carries the active
//!   tracer and span, so deep layers (`ril_sat::Solver::solve_with_assumptions`)
//!   open child spans with a free-function call and zero API plumbing.
//!   Worker threads join an existing trace with [`Tracer::install`] —
//!   this is how `ril-bench` keeps parallel sweep cells attributable.
//! - **Metrics** ([`metrics::Metrics`]): named monotonic counters and
//!   log₂-bucketed timing histograms behind atomics (one short
//!   read-lock per touch, no allocation on the hot path).
//! - **The span log** ([`export`], [`stream`]): one JSONL stream of
//!   `begin`/`end` span records, instant `note`/`error` records
//!   ([`Tracer::note`]) and a final `metrics` record. This crate both
//!   writes it and reads it back: [`check_spans_jsonl`] validates it,
//!   [`breakdown`] attributes exclusive time per phase, and
//!   [`chrome_trace_json`] renders it for Perfetto / `chrome://tracing`.
//! - **JSON** ([`json`]): the suite's one JSON escaper and reader.
//!
//! Everything is a no-op when no tracer is installed on the current
//! thread (one thread-local read), and a [`Tracer::disabled`] tracer
//! installs nothing.
//!
//! ```
//! use ril_trace::{span, Phase, SpanId, Tracer};
//!
//! let tracer = Tracer::new();
//! let root = tracer.open_root("experiment", Phase::Experiment);
//! {
//!     let _ctx = tracer.install(root); // current thread joins the trace
//!     let mut sp = span("solve", Phase::Solve);
//!     sp.record_u64("conflicts", 42);
//! } // span closed, context popped
//! tracer.close(root);
//! let stats = ril_trace::check_spans_jsonl(&tracer.spans_jsonl()).unwrap();
//! assert_eq!(stats.spans.len(), 2);
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stream;

pub use metrics::{Histogram, HistogramSnapshot, Metrics, MetricsScope, MetricsSnapshot};
pub use span::{
    counter, current, span, timing, ContextGuard, FieldValue, NoteKind, Phase, Span, SpanId, Tracer,
};
pub use stream::{
    breakdown, check_spans_jsonl, chrome_trace_json, CellBreakdown, NoteRec, PhaseTotals, SpanRec,
    SpanStats,
};
