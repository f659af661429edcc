//! Measurement primitives: a pausable phase clock, latency samples with
//! the ten-beyond percentile rule, the attempted/failed tally, and the
//! in-memory span recorder of traced runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Wall time of the measured phase, excluding the intervals in which the
/// generator checks answers (oracles run outside every timed phase).
pub struct Clock {
    running_since: Option<Instant>,
    active: Duration,
}

impl Clock {
    /// A clock that has not started; [`Clock::resume`] starts it.
    pub fn stopped() -> Self {
        Clock {
            running_since: None,
            active: Duration::ZERO,
        }
    }

    /// Stops accumulating (idempotent).
    pub fn pause(&mut self) {
        if let Some(t) = self.running_since.take() {
            self.active += t.elapsed();
        }
    }

    /// Resumes accumulating (idempotent).
    pub fn resume(&mut self) {
        if self.running_since.is_none() {
            self.running_since = Some(Instant::now());
        }
    }

    /// Accumulated active time.
    pub fn active(&self) -> Duration {
        self.active + self.running_since.map_or(Duration::ZERO, |t| t.elapsed())
    }
}

/// A set of measurements (any unit) with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one measurement.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Measurements so far.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The nearest-rank `q` percentile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.0.len();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        if n - rank < MIN_BEYOND {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted[rank - 1])
    }

    /// The median of however many samples there are (for per-layer
    /// diagnostics and repeated set-ups, where the count is printed beside
    /// it); `None` when empty.
    pub fn median(&self) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Some(if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        })
    }

    /// The `q` quantile, interpolated linearly between the two nearest
    /// order statistics; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
    }

    /// The samples in the order taken.
    pub fn values(&self) -> &[f64] {
        &self.0
    }
}

/// Seconds of measured (clock) time per window.
pub const WINDOW_S: f64 = 2.0;

/// Which quartile of a run's per-window values the run reports. Other
/// tenants of a shared host only ever slow a window down, so the quarter
/// of the run in which the host interfered least is the steadiest estimate
/// of the program's own speed: times take the lower quartile and rates the
/// upper one, and a slow spell moves the result only once it covers three
/// quarters of the run.
pub const QUIET: f64 = 0.25;

/// Measured-phase samples grouped into windows of clock time. The run's
/// statistics are quiet quartiles over windows (see [`QUIET`]), so seconds
/// in which the host runs slow move a few windows rather than the whole
/// run.
#[derive(Debug, Default)]
pub struct Windows {
    latency: Vec<Samples>,
    queries: Vec<u64>,
    /// Every latency sample of the phase.
    pub all: Samples,
}

impl Windows {
    /// Records a request that completed `at` into the phase's clock time.
    pub fn record(&mut self, at: Duration, latency_us: f64, queries: usize) {
        let w = (at.as_secs_f64() / WINDOW_S) as usize;
        if self.latency.len() <= w {
            self.latency.resize_with(w + 1, Samples::default);
            self.queries.resize(w + 1, 0);
        }
        self.latency[w].push(latency_us);
        self.queries[w] += queries as u64;
        self.all.push(latency_us);
    }

    /// Queries per second: the upper quartile of the window rates (see
    /// [`QUIET`]), for a phase of `active` clock time; a last window
    /// shorter than half a window is left out.
    pub fn qps(&self, active: Duration) -> Option<f64> {
        self.rates(active).quantile(1.0 - QUIET)
    }

    /// Each window's query rate (the series [`Windows::qps`] takes the
    /// median of).
    pub fn rates(&self, active: Duration) -> Samples {
        let mut rates = Samples::default();
        for (i, &q) in self.queries.iter().enumerate() {
            let len = (active.as_secs_f64() - i as f64 * WINDOW_S).min(WINDOW_S);
            if len >= WINDOW_S / 2.0 {
                rates.push(q as f64 / len);
            }
        }
        rates
    }

    /// The lower quartile (see [`QUIET`]) over groups of consecutive
    /// windows of each group's `q` percentile; a group is as few windows as
    /// hold ten samples beyond the percentile (leftover windows join the
    /// last group).
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.group_percentiles(q).quantile(QUIET)
    }

    /// The per-group percentiles [`Windows::percentile`] takes the lower
    /// quartile of.
    pub fn group_percentiles(&self, q: f64) -> Samples {
        let mut groups: Vec<Samples> = Vec::new();
        let mut open = Samples::default();
        for w in &self.latency {
            for &x in w.values() {
                open.push(x);
            }
            if open.percentile(q).is_some() {
                groups.push(std::mem::take(&mut open));
            }
        }
        if let Some(last) = groups.last_mut() {
            for &x in open.values() {
                last.push(x);
            }
        }
        let mut values = Samples::default();
        for g in &groups {
            if let Some(v) = g.percentile(q) {
                values.push(v);
            }
        }
        values
    }
}

/// Requests attempted and failed. A wrong answer, a typed error, an
/// overload and a timeout all count as failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests whose outcome was not a correct answer.
    pub failed: u64,
    /// The first few failure reasons, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Counts one request with its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason);
            }
        }
    }

    /// Marks an already counted request as failed: an oracle that runs
    /// after the measured phase disagreed with it.
    pub fn fail_after_the_fact(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }
}

/// One recorded span: a named interval around a call into the program,
/// parent-linked within the request that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Station name (`layer.operation`).
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

/// Spans kept in memory for the traced run, written out when it ends, plus
/// the per-station value series the per-layer metrics are read from.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Per-station values (durations in the station's unit, or counts).
    pub stations: BTreeMap<&'static str, Samples>,
}

/// Spans of at most this many requests are written to the trace file; the
/// station statistics use every request.
const MAX_WRITTEN_REQUESTS: u64 = 2_000;

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stations: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Records a span and returns its index, for children to point at.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        };
        if request < MAX_WRITTEN_REQUESTS {
            self.spans.push(span);
        }
        self.spans.len().saturating_sub(1)
    }

    /// Opens a span that [`Tracer::close`] ends; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = Instant::now();
        self.span(name, now, now, parent, request)
    }

    /// Ends a span opened by [`Tracer::open`] now.
    pub fn close(&mut self, index: usize, request: u64) {
        let end = Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64;
        if request < MAX_WRITTEN_REQUESTS {
            if let Some(s) = self.spans.get_mut(index) {
                s.end_ns = end;
            }
        }
    }

    /// Times `f` as a span and returns its result and duration in µs.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(name, start, end, parent, request);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Adds one value to a station's series.
    pub fn station(&mut self, name: &'static str, value: f64) {
        self.stations.entry(name).or_default().push(value);
    }

    /// The spans as a JSON array (one object per span).
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push(']');
        out
    }
}

/// Returns the memory a torn-down set-up freed to the operating system.
/// The allocator keeps freed pages of each thread arena resident, and which
/// arenas the next set-up's new threads land in depends on timing; without
/// this, the peak resident set of a run of several set-ups swings by a
/// fifth with the host's load.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free memory of the C allocator's
    // arenas to the kernel; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators: nothing to release.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_memory() {}

/// The process's peak resident set size (the kernel's high-water mark,
/// `VmHWM`) in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (two 64-bit
    // words each) followed by fourteen `long` fields, `ru_maxrss` first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value laid out like the C
    // `struct rusage` of this target, and `getrusage` writes only within
    // it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.maxrss_kib as f64 / 1024.0
}

/// Unsupported platforms report no peak.
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mib() -> f64 {
    f64::NAN
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_beyond() {
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.5), Some(49.0));
        assert_eq!(s.percentile(0.9), Some(89.0));
        assert_eq!(s.percentile(0.99), None);
        for i in 100..1000 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.99), Some(989.0));
    }

    #[test]
    fn windows_take_quiet_quartiles_over_time() {
        let mut w = Windows::default();
        // Four 2 s windows; the host is slow in the first two.
        for i in 0..160 {
            let at = Duration::from_secs_f64(i as f64 * 0.05);
            let (latency, queries) = if i < 80 { (100.0, 1) } else { (10.0, 2) };
            w.record(at, latency, queries);
        }
        assert_eq!(w.qps(Duration::from_secs(8)), Some(40.0));
        assert_eq!(w.percentile(0.5), Some(10.0));
        assert_eq!(w.percentile(0.99), None);
        let mut s = Samples::default();
        for x in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(x);
        }
        assert_eq!(s.quantile(QUIET), Some(2.0));
        assert_eq!(s.quantile(1.0 - QUIET), Some(4.0));
        assert_eq!(s.quantile(0.1), Some(1.4));
    }

    #[test]
    fn tally_counts_failures() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("wrong".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
    }
}
