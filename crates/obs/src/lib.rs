//! Process-wide observability for the three-roles serving stack.
//!
//! The paper's computational claims are *performance* claims — compilation
//! cost amortized over many tractable queries — so every layer of the
//! stack (compiler, engine, kernels, server) needs cheap, always-on
//! instrumentation to make those trade-offs measurable instead of argued.
//! This crate is the shared substrate: std-only, no dependencies, safe to
//! call from the hottest loops.
//!
//! Three pieces:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`]) registered in a
//!   process-global registry by dotted name (`compiler.decisions`,
//!   `engine.latency.wmc_us`). Registration hands out leaked `&'static`
//!   handles, so a hot path cached behind [`counter!`]/[`histogram!`] pays
//!   one relaxed atomic op per event. [`snapshot`] produces a
//!   [`MetricsDump`] — a sorted, serializable view rendered as a human
//!   table ([`MetricsDump::render_table`]) or Prometheus text exposition
//!   ([`MetricsDump::render_prometheus`]).
//! - **Spans** ([`span`]): scoped wall-clock timers dispatched to a
//!   pluggable [`Subscriber`]. The default subscriber is *off* — a
//!   disabled span never calls `Instant::now` — so instrumented code has
//!   no observable cost until someone turns on the [`RingRecorder`]
//!   (tests) or [`StderrJsonExporter`] (the `serve --obs-log` flag).
//! - **[`LatencySummary`]**: the workspace's single nearest-rank
//!   percentile summary, over raw samples or a histogram snapshot.
//! - **Request traces** ([`trace_span`], [`TraceContext`]): hierarchical
//!   per-request spans with parent links, recorded into per-thread
//!   lock-free rings (the flight recorder) and reassembled after the
//!   fact with [`collect_trace`] — the forensics layer behind the
//!   slow-query log, the `Trace` wire frame, and `three-roles trace`.

mod metrics;
mod span;
mod summary;
mod trace;

pub use metrics::{
    counter, counter_with_help, gauge, gauge_with_help, histogram, histogram_with_help, snapshot,
    Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, MetricsDump, HISTOGRAM_BUCKETS,
};
pub use span::{
    record_span, set_subscriber, span, subscriber_enabled, RingRecorder, Span, SpanRecord,
    StderrJsonExporter, Subscriber,
};
pub use summary::LatencySummary;
pub use trace::{
    chrome_trace_json, collect_trace, current_trace, force_tracing, maybe_sample, record_root_span,
    record_span_under, record_trace_at, register_trace_metrics, set_trace_sampling, trace_sampling,
    trace_span, tracing_active, tree_json, tree_string, with_current_trace, ForcedTracing,
    TraceContext, TraceSpan, TraceSpanData, TRACE_COUNTERS, TRACE_HISTOGRAMS, TRACE_RING_SLOTS,
};
