//! The workspace's one nearest-rank latency summary, shared by the
//! eval/net/roles benches and by histogram snapshot rendering, so the
//! benches and the metrics layer keep no parallel copies.

use crate::metrics::HistogramSnapshot;

/// Mean, tail percentiles, and max over a set of per-query service times,
/// in microseconds. Percentiles are nearest-rank, so every reported value
/// is an actual observed latency.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Mean latency.
    pub mean_us: f64,
    /// Median (50th percentile).
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarizes latency samples in microseconds (sorts in place).
    /// An empty sample set summarizes to all zeros.
    pub fn from_us(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let nearest_rank = |q: f64| {
            let rank = (q * samples.len() as f64).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        LatencySummary {
            mean_us: samples.iter().sum::<f64>() / samples.len() as f64,
            p50_us: nearest_rank(0.50),
            p95_us: nearest_rank(0.95),
            p99_us: nearest_rank(0.99),
            max_us: samples[samples.len() - 1],
        }
    }

    /// Summarizes a histogram snapshot. Percentiles come from the bucket
    /// edges ([`HistogramSnapshot::quantile_us`]), so they are
    /// conservative to one power of two; `max_us` is the top non-empty
    /// bucket's edge.
    pub fn from_histogram(snapshot: &HistogramSnapshot) -> Self {
        LatencySummary {
            mean_us: snapshot.mean_us(),
            p50_us: snapshot.p50_us(),
            p95_us: snapshot.p95_us(),
            p99_us: snapshot.p99_us(),
            max_us: snapshot.quantile_us(1.0),
        }
    }

    /// The summary as an inline JSON object fragment.
    pub fn to_json_fragment(&self) -> String {
        format!(
            "{{ \"mean_us\": {:.2}, \"p50_us\": {:.2}, \"p95_us\": {:.2}, \"p99_us\": {:.2}, \"max_us\": {:.2} }}",
            self.mean_us, self.p50_us, self.p95_us, self.p99_us, self.max_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    #[test]
    fn latency_summary_percentiles_are_nearest_rank() {
        let mut us: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let l = LatencySummary::from_us(&mut us);
        assert_eq!(l.p50_us, 50.0);
        assert_eq!(l.p95_us, 95.0);
        assert_eq!(l.p99_us, 99.0);
        assert_eq!(l.max_us, 100.0);
        assert!((l.mean_us - 50.5).abs() < 1e-12);
        assert_eq!(LatencySummary::from_us(&mut []).max_us, 0.0);
        let mut one = [7.0];
        let l = LatencySummary::from_us(&mut one);
        assert_eq!((l.p50_us, l.p99_us, l.max_us), (7.0, 7.0, 7.0));
    }

    #[test]
    fn summary_from_histogram_is_ordered_and_conservative() {
        let h = Histogram::new();
        for us in [3u64, 5, 9, 17, 900] {
            h.record_us(us);
        }
        let l = LatencySummary::from_histogram(&h.snapshot());
        assert!(l.p50_us <= l.p95_us && l.p95_us <= l.p99_us && l.p99_us <= l.max_us);
        // Conservative: the true max (900) is at or below the estimate.
        assert!(l.max_us >= 900.0);
        assert!((l.mean_us - 186.8).abs() < 1e-9);
    }
}
