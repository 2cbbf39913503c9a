//! Observability substrate for the EVOp reproduction.
//!
//! The paper's evaluation reasons about *causal timelines* — a user's
//! request travelling portal → REST router → Resource Broker → cloud
//! instance boot → model run → hydrograph push (§IV-C/§IV-D) — and about
//! aggregate behaviour (placements, cloudbursts, migrations, billing).
//! This crate provides both views without perturbing the simulation:
//!
//! * [`metrics`] — a process-wide registry of counters, gauges and
//!   histograms keyed by name + label pairs, built on the
//!   [`evop_sim::stats`] estimators, with a deterministic JSON snapshot;
//! * [`trace`] — a span-based tracer stamped with **virtual**
//!   [`SimTime`](evop_sim::SimTime) (never wall clock), recording
//!   parent/child spans, events and attributes into a bounded
//!   flight-recorder ring buffer. Span and trace ids are sequential, so
//!   two runs with the same seed produce byte-identical exports;
//! * [`timeline`] — renders one trace as an ASCII tree or a JSON
//!   document, for `report trace` and the examples.
//!
//! On top of that substrate sits the *health plane* (PR 4):
//!
//! * [`histo`] — deterministic log-bucketed streaming histograms
//!   (mergeable, fixed bucket ladder, byte-stable snapshots);
//! * [`slo`] — declarative [`SloSpec`]s judged by a multi-window
//!   burn-rate [`AlertEngine`] ticking on virtual time;
//! * [`export`] — Prometheus text-format and OTLP-like JSON exporters
//!   over registry snapshots and finished spans;
//! * [`analyze`] — trace analytics: critical-path extraction and
//!   per-operation latency breakdowns feeding the histograms.
//!
//! Above the health plane sits the *telemetry-at-scale plane* (PR 9):
//!
//! * [`tsdb`] — a deterministic embedded time-series store: registry
//!   ingests become multi-resolution rollups (raw → minute → hour) with
//!   bounded retention and a cardinality governor that collapses
//!   over-budget label-sets into per-family overflow aggregates;
//! * [`sample`] — tail-based trace sampling over the flight recorder:
//!   errored, SLO-burning and slow traces are always retained, healthy
//!   traffic deterministically one-in-N, under a span budget.
//!
//! And beside it the *perf-observability plane* (PR 6), the one part of
//! this crate that deliberately reads the wall clock:
//!
//! * [`profile`] — a low-overhead scoped profiler ([`ProfGuard`] spans
//!   nesting into a call tree) with per-operation self/total time, JSON
//!   and folded-stack flamegraph export. Its output is never part of a
//!   golden virtual-time document.
//!
//! Handles ([`MetricsRegistry`], [`Tracer`]) are cheap clones sharing one
//! store, so the broker, the cloud simulator and the REST router can all
//! report into the same collector.
//!
//! # Examples
//!
//! ```
//! use evop_obs::{MetricsRegistry, Tracer};
//! use evop_sim::SimTime;
//!
//! let tracer = Tracer::new();
//! tracer.set_now(SimTime::from_secs(10));
//! let root = tracer.start_trace("request");
//! let child = tracer.start_span("model-run", &root.context());
//! tracer.set_now(SimTime::from_secs(55));
//! child.finish();
//! root.finish();
//! assert_eq!(tracer.finished().len(), 2);
//!
//! let metrics = MetricsRegistry::new();
//! metrics.inc_counter("requests_total", &[("route", "/catchments")]);
//! assert_eq!(metrics.counter("requests_total", &[("route", "/catchments")]), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod export;
pub mod histo;
pub mod metrics;
pub mod profile;
pub mod sample;
pub mod slo;
pub mod timeline;
pub mod trace;
pub mod tsdb;

pub use analyze::{CriticalPath, OperationBreakdown, TraceAnalysis};
pub use export::{otlp_json, otlp_rollup_json, prometheus_rollup_text, prometheus_text};
pub use histo::StreamingHistogram;
pub use metrics::{MetricsRegistry, SeriesKey};
pub use profile::{ProfGuard, ProfileReport, Profiler};
pub use sample::{
    burn_windows, RetainReason, RetainedTrace, RetentionCounters, SamplePolicy, TailSampler,
};
pub use slo::{
    AlertEngine, AlertKind, AlertRecord, AlertSeverity, BurnRateWindow, Selector, SloObjective,
    SloSpec,
};
pub use timeline::TimelineReport;
pub use trace::{Span, SpanEvent, SpanId, SpanRecord, TraceContext, TraceId, Tracer};
pub use tsdb::{Resolution, RetentionPolicy, RollupPoint, SeriesKind, Tsdb, TsdbConfig};
