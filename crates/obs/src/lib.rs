#![warn(missing_docs)]

//! # bf4-obs — unified tracing & metrics for the bf4 pipeline
//!
//! Every layer of the reproduction (frontend, IR, SMT, engine, shim)
//! reports what it does through this crate, so that a single run can be
//! profiled end to end instead of each crate keeping its own incompatible
//! counters:
//!
//! * [`span`]/[`Span`] — RAII span-scoped timers with parent/child nesting
//!   per thread. Closed spans flow through a cheap per-thread buffer into
//!   a global registry ([`take_spans`] drains it);
//! * [`counter_add`]/[`gauge_set`]/[`hist_record`] — typed counters,
//!   gauges and latency histograms, snapshotted by [`snapshot`];
//! * [`Histogram`] — the shared log2-bucketed latency histogram (promoted
//!   from `bf4-engine`), used both here and by the engine/shim roll-ups;
//! * [`event`] and friends — leveled diagnostics on stderr, filtered by
//!   the `BF4_LOG` environment variable (silent by default, so default
//!   stderr output is byte-stable);
//! * [`trace`] — the machine-readable JSONL schema: render, parse,
//!   validate;
//! * [`profile`] — human renderings: a flame-style breakdown of a span
//!   forest and a per-program/per-stage time table for BENCH files;
//! * [`fault`] — deterministic seeded fault injection: named fault sites
//!   throughout the pipeline fire per a replayable schedule
//!   (`BF4_FAULTS`), and every injected fault is itself traced;
//! * [`expose`] — Prometheus text-exposition rendering (and the matching
//!   parser/lint) of a metrics snapshot, served by `bf4d`;
//! * [`durable`] — the one durable record log every on-disk store sits
//!   on: FNV-1a sealed lines, per-line salvage, an append that heals a
//!   torn tail, and atomic replace with a directory fsync;
//! * [`tsdb`] — the persistent per-request time-series (`tsdb.bf4t`):
//!   sealed append-only records with per-line salvage and size-capped
//!   ring compaction;
//! * [`slo`] — declarative service-level objectives evaluated over a
//!   sliding window of that series;
//! * [`ctx_tag`] — ambient per-thread context tags (request IDs) that
//!   attach to every span opened under the guard.
//!
//! ## Overhead contract
//!
//! Tracing and metrics are **disabled by default**. A span site while
//! disabled costs one relaxed atomic load and returns an inert guard —
//! no clock read, no allocation. When enabled, a span costs two
//! [`std::time::Instant`] reads plus one buffered record; the pipeline
//! only opens spans around work in the microsecond-and-up range
//! (solver queries, CFG passes, scheduler jobs), keeping whole-corpus
//! overhead under the 5% budget documented in DESIGN.md §9.

pub mod durable;
pub mod event;
pub mod expose;
pub mod fault;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod span;
pub mod trace;
pub mod tsdb;

pub use event::{debug, error, event, info, log_enabled, set_log_filter, warn, Level};
pub use fault::{FaultPlan, SiteStats, Trigger};
pub use hist::Histogram;
pub use metrics::{
    counter_add, gauge_set, hist_record, metrics_enabled, reset_metrics, set_metrics, snapshot,
    HistSummary, MetricsSnapshot,
};
pub use profile::{render_flame, stage_table};
pub use slo::{SloKind, SloSpec, Violation};
pub use span::{
    ctx_tag, current_thread_id, enabled, reset_spans, set_enabled, span, take_spans, CtxGuard,
    Span, SpanRecord,
};
pub use trace::{parse_line, render_jsonl, validate_line, TraceSpan};
