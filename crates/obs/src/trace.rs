//! Request-scoped hierarchical tracing with a lock-free flight recorder.
//!
//! Where [`crate::span`] answers "how long do `engine.compile` calls take
//! in aggregate", this module answers "where did *this* request's time
//! go": every sampled request carries a [`TraceContext`] (a 64-bit trace
//! id, the id of the currently open span, and a sampled flag) from the
//! wire through the reactor, the executor queue, the kernel sweep, and
//! back out, and every instrumented scope records a span *with a parent
//! link* so the request can be reassembled into a tree after the fact.
//!
//! Design constraints, in order:
//!
//! - **Disabled cost is one relaxed atomic load.** [`trace_span`] checks
//!   the process-global sampler's `active` flag before touching
//!   thread-locals or the clock; with sampling off and no forced trace in
//!   flight, instrumented hot paths pay nothing else.
//! - **No allocation on the hot path.** Completed spans go into a
//!   fixed-capacity per-thread ring of atomic words (the **flight
//!   recorder**). A writer claims a slot with one thread-local
//!   `fetch_add`, stamps a seqlock word, and stores seven payload words;
//!   the ring never locks and never grows. Collection
//!   ([`collect_trace`]) is the rare path — it scans every thread's ring
//!   under a registry lock and copies out the spans of one trace id.
//! - **Crossing threads is explicit.** The current context lives in a
//!   thread-local; [`with_current_trace`] installs it around offloaded
//!   work (executor jobs, sweep-pool tasks, build threads) so deeper
//!   layers need no API changes to participate.
//!
//! Sampling is probabilistic ([`set_trace_sampling`], the server's
//! `--trace-sample` flag) with a force override ([`force_tracing`]) used
//! by the `Request::Trace` wire frame and the `three-roles trace` CLI.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Slots in each thread's span ring. A request's tree is typically well
/// under two dozen spans, so this holds dozens of in-flight traces per
/// thread before overwriting; an overwrite bumps `trace.spans_dropped`.
pub const TRACE_RING_SLOTS: usize = 2048;

/// Words per ring slot: seqlock, trace id, span id, parent id, name
/// pointer, name length, start, duration.
const SLOT_WORDS: usize = 8;

/// The identity a sampled request carries through the stack: which trace
/// it belongs to and which span is currently open (the parent of any span
/// started while it is installed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifies the request's whole tree; never zero for a live trace.
    pub trace_id: u64,
    /// The currently open span — new child spans parent onto it.
    pub span_id: u64,
    /// Whether spans should be recorded for this context. Unsampled
    /// contexts exist so the flag can travel the wire explicitly.
    pub sampled: bool,
}

impl TraceContext {
    /// A fresh context rooted at a new trace id. The root span itself is
    /// recorded by whoever owns the request boundary (see
    /// [`record_root_span`]).
    pub fn generate(sampled: bool) -> TraceContext {
        TraceContext {
            trace_id: next_id(),
            span_id: next_id(),
            sampled,
        }
    }

    /// A context joining an existing trace (e.g. one arriving over the
    /// wire): same trace id, fresh root span id for this process's
    /// subtree.
    pub fn adopt(trace_id: u64) -> TraceContext {
        TraceContext {
            trace_id: if trace_id == 0 { next_id() } else { trace_id },
            span_id: next_id(),
            sampled: true,
        }
    }
}

// ------------------------------------------------------------- id supply

/// SplitMix64 finalizer — cheap, well-mixed, and deterministic per
/// process run (ids only need uniqueness, not unpredictability).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn id_state() -> &'static AtomicU64 {
    static STATE: OnceLock<AtomicU64> = OnceLock::new();
    STATE.get_or_init(|| {
        // Seed from wall time so two processes sharing a log stream do
        // not collide on trace ids run after run.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        AtomicU64::new(seed)
    })
}

/// A fresh non-zero 64-bit id (zero is the "no parent" sentinel).
fn next_id() -> u64 {
    loop {
        let id = mix(id_state().fetch_add(1, Ordering::Relaxed));
        if id != 0 {
            return id;
        }
    }
}

// ------------------------------------------------------- sampling control

/// Sampling and activation state: the probability [`Sampler::maybe_sample`]
/// samples with, the live forced-trace guards, and the one-load `active`
/// gate derived from both.
///
/// One process-global instance backs the free functions
/// ([`set_trace_sampling`], [`maybe_sample`], [`force_tracing`],
/// [`trace_span`], ...). Code that must not see — or disturb — that
/// shared state, such as a test asserting exact activation, builds its own
/// instance.
pub(crate) struct Sampler {
    /// `f64::to_bits` of the sampling probability in `[0, 1]`.
    rate_bits: AtomicU64,
    /// Live forced-trace guards (wire `Trace` frames, the trace CLI).
    forced: AtomicUsize,
    /// The one-load fast-path gate: true iff rate > 0 or forced > 0.
    active: AtomicBool,
    /// Monotonic counter feeding the sampling decision.
    seq: AtomicU64,
}

/// The instance behind the free functions.
static SAMPLER: Sampler = Sampler::new();

impl Sampler {
    /// An inactive sampler: rate zero, nothing forced.
    pub(crate) const fn new() -> Sampler {
        Sampler {
            rate_bits: AtomicU64::new(0),
            forced: AtomicUsize::new(0),
            active: AtomicBool::new(false),
            seq: AtomicU64::new(0),
        }
    }

    fn recompute_active(&self) {
        let forced = self.forced.load(Ordering::Relaxed) > 0;
        self.active
            .store(self.rate() > 0.0 || forced, Ordering::Release);
    }

    /// Sets the probability (clamped to `[0, 1]`; non-finite means zero)
    /// that [`Sampler::maybe_sample`] returns a sampled context. Zero
    /// disables sampling; forced traces still record.
    pub(crate) fn set_rate(&self, rate: f64) {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.rate_bits.store(rate.to_bits(), Ordering::Relaxed);
        // Pin the epoch before the first span can need it.
        let _ = epoch();
        self.recompute_active();
    }

    /// The configured sampling probability.
    pub(crate) fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// Whether recording can happen (sampling enabled or a forced trace in
    /// flight) — the one relaxed load the hot path makes.
    #[inline]
    pub(crate) fn active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Rolls the sampling dice: `Some(sampled context)` for roughly the
    /// configured fraction of calls, `None` otherwise.
    pub(crate) fn maybe_sample(&self) -> Option<TraceContext> {
        let rate = self.rate();
        if rate <= 0.0 {
            return None;
        }
        let x = mix(self.seq.fetch_add(1, Ordering::Relaxed));
        // Map the mixed counter to [0, 1); rate = 1.0 samples everything.
        if (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < rate {
            crate::counter!("trace.requests_sampled").inc();
            Some(TraceContext::generate(true))
        } else {
            None
        }
    }

    /// Forces recording on until the returned guard drops, regardless of
    /// the sampling rate.
    pub(crate) fn force(&self) -> ForcedTracing<'_> {
        self.forced.fetch_add(1, Ordering::Relaxed);
        let _ = epoch();
        self.recompute_active();
        crate::counter!("trace.requests_sampled").inc();
        ForcedTracing(self)
    }

    /// Opens a span under the thread's current context, gated on this
    /// sampler: inert (no clock read, nothing recorded) unless it is
    /// active *and* a sampled context is installed.
    #[inline]
    pub(crate) fn span(&self, name: &'static str) -> TraceSpan {
        if !self.active() {
            return TraceSpan { state: None };
        }
        trace_span_slow(name)
    }
}

/// Sets the process-wide probability (clamped to `[0, 1]`; non-finite
/// means zero) that [`maybe_sample`] returns a sampled context — the
/// server's `--trace-sample` flag. Zero disables sampling; forced traces
/// still record.
pub fn set_trace_sampling(rate: f64) {
    SAMPLER.set_rate(rate);
}

/// The process-wide sampling probability.
pub fn trace_sampling() -> f64 {
    SAMPLER.rate()
}

/// Whether any recording can happen right now (sampling enabled or a
/// forced trace in flight) — the same one-load check the hot path makes.
pub fn tracing_active() -> bool {
    SAMPLER.active()
}

/// Rolls the process-wide sampling dice: `Some(sampled context)` for
/// roughly [`set_trace_sampling`]'s fraction of calls, `None` otherwise.
pub fn maybe_sample() -> Option<TraceContext> {
    SAMPLER.maybe_sample()
}

/// Keeps recording enabled on its sampler while alive, regardless of the
/// sampling rate — one guard per forced (explicitly requested) trace.
#[must_use = "tracing is forced only while the guard lives"]
pub struct ForcedTracing<'a>(&'a Sampler);

/// Forces process-wide recording on until the returned guard drops. Used
/// by the wire `Trace` frame and the `three-roles trace` CLI so a single
/// request can be traced with sampling at zero.
pub fn force_tracing() -> ForcedTracing<'static> {
    SAMPLER.force()
}

impl Drop for ForcedTracing<'_> {
    fn drop(&mut self) {
        self.0.forced.fetch_sub(1, Ordering::Relaxed);
        self.0.recompute_active();
    }
}

// -------------------------------------------------------- current context

thread_local! {
    /// `(trace_id, open_span_id)` of the installed sampled context;
    /// trace_id 0 means none. Only sampled contexts are installed.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The context currently installed on this thread, if any.
pub fn current_trace() -> Option<TraceContext> {
    let (trace_id, span_id) = CURRENT.with(Cell::get);
    (trace_id != 0).then_some(TraceContext {
        trace_id,
        span_id,
        sampled: true,
    })
}

/// Runs `f` with `ctx` installed as this thread's current context (a
/// `None` or unsampled context installs nothing), restoring the previous
/// context afterwards — including on panic. This is the hand-off used at
/// every thread boundary: executor workers around a job, sweep-pool
/// workers around a task, build threads around a compile.
pub fn with_current_trace<R>(ctx: Option<TraceContext>, f: impl FnOnce() -> R) -> R {
    struct Restore((u64, u64));
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }
    let _restore = match ctx {
        Some(ctx) if ctx.sampled && ctx.trace_id != 0 => {
            let prev = CURRENT.with(|c| c.replace((ctx.trace_id, ctx.span_id)));
            Some(Restore(prev))
        }
        _ => None,
    };
    f()
}

// --------------------------------------------------------- the recorder

/// All `start_us` values are offsets from this process-wide instant,
/// pinned the first time tracing is enabled (before any span can start).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn instant_us(t: Instant) -> u64 {
    t.checked_duration_since(epoch())
        .unwrap_or_default()
        .as_micros() as u64
}

/// One thread's fixed slab of span slots. Written only by its owner
/// thread; read by collectors under the registry lock. Every word is an
/// atomic so a torn racy read is impossible by construction — the
/// per-slot seqlock word only decides whether a read is *discarded*.
struct ThreadRing {
    head: AtomicUsize,
    words: Box<[AtomicU64]>,
}

impl ThreadRing {
    fn new() -> ThreadRing {
        let mut words = Vec::with_capacity(TRACE_RING_SLOTS * SLOT_WORDS);
        words.resize_with(TRACE_RING_SLOTS * SLOT_WORDS, || AtomicU64::new(0));
        ThreadRing {
            head: AtomicUsize::new(0),
            words: words.into_boxed_slice(),
        }
    }

    fn record(
        &self,
        trace_id: u64,
        span_id: u64,
        parent_id: u64,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
    ) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.words[(idx % TRACE_RING_SLOTS) * SLOT_WORDS..][..SLOT_WORDS];
        let seq = slot[0].load(Ordering::Relaxed);
        // Odd = write in progress; collectors discard the slot.
        slot[0].store(seq.wrapping_add(1), Ordering::Release);
        slot[1].store(trace_id, Ordering::Relaxed);
        slot[2].store(span_id, Ordering::Relaxed);
        slot[3].store(parent_id, Ordering::Relaxed);
        slot[4].store(name.as_ptr() as u64, Ordering::Relaxed);
        slot[5].store(name.len() as u64, Ordering::Relaxed);
        slot[6].store(start_us, Ordering::Relaxed);
        slot[7].store(dur_us, Ordering::Release);
        slot[0].store(seq.wrapping_add(2), Ordering::Release);
        crate::counter!("trace.spans_recorded").inc();
        if idx >= TRACE_RING_SLOTS {
            crate::counter!("trace.spans_dropped").inc();
        }
    }

    /// Seqlock read of one slot; `None` if empty or mid-write.
    fn read_slot(&self, slot_idx: usize) -> Option<RawSpan> {
        let slot = &self.words[slot_idx * SLOT_WORDS..][..SLOT_WORDS];
        let s1 = slot[0].load(Ordering::Acquire);
        if s1 == 0 || s1 % 2 == 1 {
            return None;
        }
        let raw = RawSpan {
            trace_id: slot[1].load(Ordering::Relaxed),
            span_id: slot[2].load(Ordering::Relaxed),
            parent_id: slot[3].load(Ordering::Relaxed),
            name_ptr: slot[4].load(Ordering::Relaxed),
            name_len: slot[5].load(Ordering::Relaxed),
            start_us: slot[6].load(Ordering::Relaxed),
            dur_us: slot[7].load(Ordering::Acquire),
        };
        let s2 = slot[0].load(Ordering::Acquire);
        (s1 == s2).then_some(raw)
    }
}

#[derive(Clone, Copy)]
struct RawSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name_ptr: u64,
    name_len: u64,
    start_us: u64,
    dur_us: u64,
}

impl RawSpan {
    fn name(&self) -> String {
        // The two words were split from a `&'static str` by `record`, so
        // reassembling them is sound; a stale-but-consistent slot still
        // points at static memory.
        unsafe {
            let bytes =
                std::slice::from_raw_parts(self.name_ptr as *const u8, self.name_len as usize);
            String::from_utf8_lossy(bytes).into_owned()
        }
    }
}

fn ring_registry() -> &'static Mutex<Vec<Arc<ThreadRing>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<ThreadRing>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: Arc<ThreadRing> = {
        let ring = Arc::new(ThreadRing::new());
        let mut registry = ring_registry().lock().unwrap_or_else(|p| p.into_inner());
        registry.push(Arc::clone(&ring));
        ring
    };
}

fn record_raw(
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    dur: Duration,
) {
    RING.with(|ring| {
        ring.record(
            trace_id,
            span_id,
            parent_id,
            name,
            instant_us(start),
            dur.as_micros() as u64,
        )
    });
}

// ------------------------------------------------------------ span guards

/// A live trace span; records itself into the flight recorder on drop
/// and re-opens its parent as the thread's current span.
#[must_use = "a trace span measures the scope it is bound to"]
pub struct TraceSpan {
    /// `(trace_id, span_id, parent_id, name, start)`; `None` when inert.
    state: Option<(u64, u64, u64, &'static str, Instant)>,
}

impl TraceSpan {
    /// The span's id, for callers that record children explicitly.
    /// Zero when the span is inert (tracing disabled or unsampled).
    pub fn id(&self) -> u64 {
        self.state.map_or(0, |(_, id, _, _, _)| id)
    }
}

/// Opens a span under the thread's current context. Inert (no clock
/// read, nothing recorded) unless tracing is active *and* a sampled
/// context is installed — the fast path is one relaxed atomic load.
#[inline]
pub fn trace_span(name: &'static str) -> TraceSpan {
    SAMPLER.span(name)
}

#[cold]
fn trace_span_slow(name: &'static str) -> TraceSpan {
    let (trace_id, parent_id) = CURRENT.with(Cell::get);
    if trace_id == 0 {
        return TraceSpan { state: None };
    }
    let span_id = next_id();
    CURRENT.with(|c| c.set((trace_id, span_id)));
    TraceSpan {
        state: Some((trace_id, span_id, parent_id, name, Instant::now())),
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some((trace_id, span_id, parent_id, name, start)) = self.state.take() {
            CURRENT.with(|c| c.set((trace_id, parent_id)));
            record_raw(trace_id, span_id, parent_id, name, start, start.elapsed());
        }
    }
}

/// Records an already-measured leaf span under the thread's current
/// context (for call sites that hold a start instant from before the
/// context existed, like registry hit/compile timings). One atomic load
/// when tracing is inactive.
#[inline]
pub fn record_trace_at(name: &'static str, start: Instant, dur: Duration) {
    if !SAMPLER.active() {
        return;
    }
    let (trace_id, parent_id) = CURRENT.with(Cell::get);
    if trace_id == 0 {
        return;
    }
    record_raw(trace_id, next_id(), parent_id, name, start, dur);
}

/// Records a leaf span as a direct child of `ctx`'s open span, without
/// touching the thread-local context — for retroactive spans recorded on
/// a thread the context was never installed on (reactor drain, executor
/// queue wait).
pub fn record_span_under(ctx: TraceContext, name: &'static str, start: Instant, dur: Duration) {
    if !ctx.sampled || ctx.trace_id == 0 {
        return;
    }
    record_raw(ctx.trace_id, next_id(), ctx.span_id, name, start, dur);
}

/// Records `ctx`'s own span — the root of this process's subtree — with
/// an explicit parent (`0` for a locally rooted trace, the caller's span
/// id for one that arrived over the wire).
pub fn record_root_span(
    ctx: TraceContext,
    parent_id: u64,
    name: &'static str,
    start: Instant,
    dur: Duration,
) {
    if !ctx.sampled || ctx.trace_id == 0 {
        return;
    }
    record_raw(ctx.trace_id, ctx.span_id, parent_id, name, start, dur);
}

// ------------------------------------------------------------- collection

/// One collected span, name owned so it can travel the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpanData {
    /// This span's id.
    pub span_id: u64,
    /// The id of the enclosing span; zero for a root.
    pub parent_id: u64,
    /// The instrumented site's name (e.g. `kernel.sweep.avx2`).
    pub name: String,
    /// Start, microseconds from the process trace epoch (server-relative
    /// for wire-collected spans; only differences are meaningful).
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
}

/// Scans every thread's ring and returns the spans of `trace_id`,
/// ordered by start time (stable on ties). This is the rare, slow path —
/// it runs once per *collected* trace (a forced trace completing, a slow
/// query being logged), never per span.
pub fn collect_trace(trace_id: u64) -> Vec<TraceSpanData> {
    let begin = Instant::now();
    let rings: Vec<Arc<ThreadRing>> = {
        let registry = ring_registry().lock().unwrap_or_else(|p| p.into_inner());
        registry.clone()
    };
    let mut spans = Vec::new();
    for ring in rings {
        for slot_idx in 0..TRACE_RING_SLOTS {
            let Some(raw) = ring.read_slot(slot_idx) else {
                continue;
            };
            if raw.trace_id != trace_id {
                continue;
            }
            spans.push(TraceSpanData {
                span_id: raw.span_id,
                parent_id: raw.parent_id,
                name: raw.name(),
                start_us: raw.start_us,
                dur_us: raw.dur_us,
            });
        }
    }
    spans.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(a.span_id.cmp(&b.span_id)));
    spans.dedup_by(|a, b| a.span_id == b.span_id);
    crate::histogram!("trace.collect_us").record(begin.elapsed());
    spans
}

// -------------------------------------------------------------- rendering

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Indices of `spans` whose parent is absent from the set (tree roots),
/// plus a parent → children index. Orphans — spans whose parent was
/// overwritten in the ring — surface as extra roots rather than
/// disappearing.
fn index_tree(spans: &[TraceSpanData]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match spans
            .iter()
            .position(|p| p.span_id == s.parent_id && p.span_id != s.span_id)
        {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    (roots, children)
}

/// Renders a collected trace as an indented tree, one span per line:
///
/// ```text
/// server.request                      1042 us
///   reactor.drain                       13 us
///   engine.queue_wait                   27 us
/// ```
pub fn tree_string(spans: &[TraceSpanData]) -> String {
    fn walk(
        out: &mut String,
        spans: &[TraceSpanData],
        children: &[Vec<usize>],
        idx: usize,
        depth: usize,
    ) {
        let s = &spans[idx];
        let indent = "  ".repeat(depth);
        let label = format!("{indent}{}", s.name);
        out.push_str(&format!("{label:<44} {:>10} us\n", s.dur_us));
        for &c in &children[idx] {
            walk(out, spans, children, c, depth + 1);
        }
    }
    let (roots, children) = index_tree(spans);
    let mut out = String::new();
    for r in roots {
        walk(&mut out, spans, &children, r, 0);
    }
    out
}

/// Renders a collected trace as nested JSON — the slow-query log's
/// payload: `{"name":…,"start_us":…,"dur_us":…,"children":[…]}` per
/// span, roots gathered in a top-level array.
pub fn tree_json(spans: &[TraceSpanData]) -> String {
    fn walk(out: &mut String, spans: &[TraceSpanData], children: &[Vec<usize>], idx: usize) {
        let s = &spans[idx];
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"span_id\":{},\"start_us\":{},\"dur_us\":{},\"children\":[",
            json_escape(&s.name),
            s.span_id,
            s.start_us,
            s.dur_us
        ));
        for (n, &c) in children[idx].iter().enumerate() {
            if n > 0 {
                out.push(',');
            }
            walk(out, spans, children, c);
        }
        out.push_str("]}");
    }
    let (roots, children) = index_tree(spans);
    let mut out = String::from("[");
    for (n, r) in roots.into_iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        walk(&mut out, spans, &children, r);
    }
    out.push(']');
    out
}

/// Renders a collected trace in Chrome `trace_event` format (complete
/// events, `ph: "X"`), loadable in `about:tracing` or Perfetto.
pub fn chrome_trace_json(trace_id: u64, spans: &[TraceSpanData]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (n, s) in spans.iter().enumerate() {
        if n > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"trl\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"trace_id\":\"{:016x}\",\"span_id\":{},\"parent_id\":{}}}}}",
            json_escape(&s.name),
            s.start_us,
            s.dur_us.max(1),
            trace_id,
            s.span_id,
            s.parent_id
        ));
    }
    out.push_str("]}");
    out
}

// ---------------------------------------------------------------- metrics

/// Counters the tracing layer bumps, pre-registered at engine
/// construction so their Prometheus rows exist before the first sampled
/// request (the `minimize.*` convention).
pub const TRACE_COUNTERS: [&str; 3] = [
    "trace.spans_recorded",
    "trace.spans_dropped",
    "trace.requests_sampled",
];

/// Histograms the tracing layer records, pre-registered likewise.
pub const TRACE_HISTOGRAMS: [&str; 1] = ["trace.collect_us"];

/// Registers every `trace.*` metric zero-valued with its help text.
/// Idempotent: registration returns the existing handle on re-entry.
pub fn register_trace_metrics() {
    crate::counter_with_help(
        "trace.spans_recorded",
        "Spans written into the per-thread flight-recorder rings.",
    );
    crate::counter_with_help(
        "trace.spans_dropped",
        "Ring-slot overwrites: an old span was evicted to record a new one.",
    );
    crate::counter_with_help(
        "trace.requests_sampled",
        "Requests that carried a sampled or forced trace context.",
    );
    crate::histogram_with_help(
        "trace.collect_us",
        "Wall time to scan all rings and assemble one trace's span set.",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process-global sampler is shared with every sibling test (they
    // hold forced guards on it), so exact activation is asserted on a
    // sampler of this test's own.
    #[test]
    fn sampling_controls_recording() {
        let sampler = Sampler::new();
        assert!(!sampler.active());
        assert!(sampler.maybe_sample().is_none(), "rate starts at zero");
        // Inactive sampler: spans are inert even with a context installed.
        let ctx = TraceContext::generate(true);
        with_current_trace(Some(ctx), || {
            assert_eq!(sampler.span("test.inert").id(), 0);
        });
        assert!(collect_trace(ctx.trace_id).is_empty());

        sampler.set_rate(2.0); // clamped to 1.0
        assert_eq!(sampler.rate(), 1.0);
        assert!(sampler.active());
        let sampled = sampler.maybe_sample().expect("rate 1.0 samples everything");
        assert!(sampled.sampled);
        sampler.set_rate(f64::NAN);
        assert_eq!(sampler.rate(), 0.0);
        assert!(!sampler.active());
        assert!(sampler.maybe_sample().is_none());
        // Forced guards re-activate recording independently of the rate,
        // and only while they live.
        let guard = sampler.force();
        assert!(sampler.active());
        with_current_trace(Some(ctx), || {
            assert_ne!(sampler.span("test.forced").id(), 0);
        });
        drop(guard);
        assert!(!sampler.active());
        assert_eq!(collect_trace(ctx.trace_id).len(), 1);
    }

    #[test]
    fn spans_nest_and_collect_with_parent_links() {
        let _forced = force_tracing();
        let ctx = TraceContext::generate(true);
        let begin = Instant::now();
        with_current_trace(Some(ctx), || {
            let outer = trace_span("test.outer");
            let outer_id = outer.id();
            assert_ne!(outer_id, 0);
            {
                let inner = trace_span("test.inner");
                assert_ne!(inner.id(), outer_id);
            }
            // After the inner span drops, new spans parent onto outer.
            let sibling = trace_span("test.sibling");
            drop(sibling);
            drop(outer);
        });
        record_root_span(ctx, 0, "test.root", begin, begin.elapsed());

        let spans = collect_trace(ctx.trace_id);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(spans.len(), 4);
        let root = by_name("test.root");
        let outer = by_name("test.outer");
        assert_eq!(root.span_id, ctx.span_id);
        assert_eq!(root.parent_id, 0);
        assert_eq!(outer.parent_id, root.span_id);
        assert_eq!(by_name("test.inner").parent_id, outer.span_id);
        assert_eq!(by_name("test.sibling").parent_id, outer.span_id);

        let tree = tree_string(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("test.root"));
        assert!(lines[1].starts_with("  test.outer"));
        assert!(lines[2].starts_with("    test.inner"));
        assert!(lines[3].starts_with("    test.sibling"));
    }

    #[test]
    fn contexts_cross_threads_explicitly() {
        let _forced = force_tracing();
        let ctx = TraceContext::generate(true);
        let worker_ctx = ctx;
        std::thread::spawn(move || {
            with_current_trace(Some(worker_ctx), || {
                drop(trace_span("test.on_worker"));
            });
            // Without installation the same thread records nothing.
            drop(trace_span("test.uninstalled"));
        })
        .join()
        .unwrap();
        let spans = collect_trace(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "test.on_worker");
        assert_eq!(spans[0].parent_id, ctx.span_id);
    }

    #[test]
    fn explicit_records_attach_under_the_given_context() {
        let _forced = force_tracing();
        let ctx = TraceContext::generate(true);
        let t = Instant::now();
        record_span_under(ctx, "test.under", t, Duration::from_micros(5));
        // Unsampled contexts record nothing.
        let quiet = TraceContext {
            sampled: false,
            ..TraceContext::generate(false)
        };
        record_span_under(quiet, "test.quiet", t, Duration::from_micros(5));
        let spans = collect_trace(ctx.trace_id);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].parent_id, ctx.span_id);
        assert!(collect_trace(quiet.trace_id).is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_without_unbounded_growth() {
        let _forced = force_tracing();
        let ctx = TraceContext::generate(true);
        with_current_trace(Some(ctx), || {
            for _ in 0..(TRACE_RING_SLOTS + 64) {
                drop(trace_span("test.flood"));
            }
        });
        let spans = collect_trace(ctx.trace_id);
        assert!(!spans.is_empty());
        assert!(spans.len() <= TRACE_RING_SLOTS);
    }

    #[test]
    fn renderers_emit_wellformed_output() {
        let spans = vec![
            TraceSpanData {
                span_id: 1,
                parent_id: 0,
                name: "root \"q\"".into(),
                start_us: 0,
                dur_us: 100,
            },
            TraceSpanData {
                span_id: 2,
                parent_id: 1,
                name: "child".into(),
                start_us: 10,
                dur_us: 40,
            },
        ];
        let json = tree_json(&spans);
        assert!(json.starts_with('['));
        assert!(json.contains("\"name\":\"root \\\"q\\\"\""));
        assert!(json.contains("\"children\":[{\"name\":\"child\""));
        let chrome = chrome_trace_json(0xabc, &spans);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"parent_id\":1"));
        // An orphan (parent overwritten) becomes a root, not a loss.
        let orphan = vec![TraceSpanData {
            span_id: 9,
            parent_id: 7,
            name: "orphan".into(),
            start_us: 5,
            dur_us: 1,
        }];
        assert!(tree_string(&orphan).starts_with("orphan"));
    }
}
