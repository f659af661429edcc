//! The metric catalogue (the names, units and directions `BENCHMARK.json`
//! declares), the run header, and the one-line JSON result.

use std::collections::BTreeMap;

/// Whether a larger value is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("qps", "1/s", Higher, 0.25),
    e2e("p50_us", "us", Lower, 0.25),
    e2e("p99_us", "us", Lower, 0.25),
    e2e("cold_p50_ms", "ms", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.2),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// does not reach reports 0 (see the benchmark's README).
pub const PER_LAYER: &[MetricSpec] = &[
    layer("compiler.compile_ms", "ms", Lower),
    layer("compiler.decisions", "count", Lower),
    layer("compiler.cache_hit_ratio", "ratio", Higher),
    layer("compiler.nodes", "count", Lower),
    layer("nnf.prepare_ms", "ms", Lower),
    layer("nnf.tape_nodes", "count", Lower),
    layer("nnf.kernel.sweep_us", "us", Lower),
    layer("nnf.kernel.mar_ns", "ns", Lower),
    layer("nnf.kernel.pr_ns", "ns", Lower),
    layer("nnf.kernel.mpe_ns", "ns", Lower),
    layer("nnf.pool.layered_us", "us", Lower),
    layer("nnf.pool.lane_us", "us", Lower),
    layer("nnf.pool.layered_vs_lane", "ratio", Higher),
    layer("engine.executor.residual_us", "us", Lower),
    layer("engine.executor.queries_per_batch", "count", Higher),
    layer("engine.registry.hit_ratio", "ratio", Higher),
    layer("engine.registry.evictions_per_kreq", "count", Lower),
    layer("engine.registry.lookup_us", "us", Lower),
    layer("engine.registry.retained_nodes", "count", Lower),
    layer("server.protocol.encode_us", "us", Lower),
    layer("server.protocol.decode_us", "us", Lower),
    layer("server.protocol.bytes_per_query", "bytes", Lower),
    layer("server.residual_us", "us", Lower),
    layer("server.overloaded", "count", Lower),
    layer("roles.psdd_us", "us", Lower),
    layer("roles.space_us", "us", Lower),
    layer("roles.classifier_us", "us", Lower),
    layer("trace.overhead", "ratio", Lower),
];

/// Looks a metric up in either catalogue.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values by name; every name must be in the catalogue.
    pub values: BTreeMap<&'static str, f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Whether every checked answer was correct.
    pub correct: bool,
}

impl Report {
    /// An empty report carrying a run's attempted/failed counts; it is
    /// correct only if something was attempted and nothing failed.
    pub fn from_tally(tally: &crate::measure::Tally) -> Self {
        Report {
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0 && tally.attempted > 0,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric; panics on a name outside the catalogue, which is a
    /// bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec(name).is_some(), "metric {name} is not declared");
        self.values.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `catalogue`.
    pub fn json_line(&self, catalogue: &[MetricSpec]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            let v = self
                .values
                .get(m.name)
                .ok_or_else(|| format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite ({v})", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(*v),
                m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A float as JSON with all its digits (Rust's shortest round-trip form).
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The commit of the checkout at `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn commit_of(root: &std::path::Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&MetricSpec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(all[i + 1..].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound.unwrap() <= 0.25));
    }

    #[test]
    fn json_line_requires_every_metric() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            ..Report::default()
        };
        r.set("qps", 10.0);
        assert!(r.json_line(END_TO_END).is_err());
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        let line = r.json_line(END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }
}
