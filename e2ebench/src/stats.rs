//! Sample summaries and the metric sink a run fills.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Length of the windows a run's latencies are split into.
pub const WINDOW: Duration = Duration::from_secs(10);

/// Window starts from `start` up to `end`, [`WINDOW`] apart.
pub fn windows(start: Instant, end: Instant) -> Vec<Instant> {
    let mut starts = vec![start];
    while let Some(&last) = starts.last() {
        let next = last + WINDOW;
        if next >= end {
            break;
        }
        starts.push(next);
    }
    starts
}

/// A sample that stands for a failed request: it counts as over any
/// latency limit.
pub const FAILED: f64 = f64::MAX;

/// The `q`-quantile (nearest rank) of `samples`, or 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units, plus the sample count behind each
/// percentile and the per-op-type attempt and failure counts.
#[derive(Debug, Default)]
pub struct Metrics {
    pub values: BTreeMap<String, (f64, &'static str)>,
    pub samples: BTreeMap<String, usize>,
    /// p10, p25, p50, p75, p90, p95, p99 and max of each latency, so a
    /// many-moded distribution shows in the run record.
    pub shapes: BTreeMap<String, Vec<f64>>,
    pub ops: BTreeMap<&'static str, OpCount>,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).map_or(0.0, |(v, _)| *v)
    }

    /// The median and the tail percentile `tail` (a whole number of
    /// hundredths) as `<base>_p50_<unit>` and `<base>_p<tail>_<unit>`.
    /// Each percentile is taken within each window of `samples`
    /// (timestamped) that starts at one of `starts`, and reported as the
    /// median over the windows, so one noisy stretch of a run moves it by
    /// at most one window's worth. The sample count and window count are
    /// recorded beside them.
    pub fn percentiles(
        &mut self,
        base: &str,
        unit: &'static str,
        tail: u32,
        samples: &[(Instant, f64)],
        starts: &[Instant],
    ) {
        let mut windows: Vec<Vec<f64>> = vec![Vec::new(); starts.len().max(1)];
        for &(t, v) in samples {
            let w = starts.partition_point(|&s| s <= t).saturating_sub(1);
            windows[w].push(v);
        }
        windows.retain(|w| !w.is_empty());
        for pct in [50, tail] {
            let q = f64::from(pct) / 100.0;
            let name = format!("{base}_p{pct}_{unit}");
            let per_window: Vec<f64> = windows.iter().map(|w| quantile(w, q)).collect();
            self.set(name.clone(), median(&per_window), unit);
            self.samples.insert(name.clone(), samples.len());
            self.samples
                .insert(format!("{name}.windows"), windows.len());
        }
        let all: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        let shape = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]
            .iter()
            .map(|&q| quantile(&all, q))
            .collect();
        self.shapes.insert(format!("{base}_{unit}"), shape);
    }

    pub fn count_ops(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        let c = self.ops.entry(kind).or_default();
        c.attempted += attempted;
        c.failed += failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, FAILED], 0.99), FAILED);
    }

    #[test]
    fn windowed_percentiles_are_the_median_over_windows() {
        let t0 = Instant::now();
        let starts = windows(t0, t0 + WINDOW * 3);
        assert_eq!(starts.len(), 3);
        let mut samples = Vec::new();
        for (w, slow) in [(0u32, 1.0), (1, 100.0), (2, 3.0)] {
            for i in 0..10 {
                let t = t0 + WINDOW * w + Duration::from_millis(i);
                samples.push((t, if i == 9 { slow } else { 1.0 }));
            }
        }
        let mut m = Metrics::default();
        m.percentiles("x", "ms", 99, &samples, &starts);
        assert_eq!(
            m.get("x_p99_ms"),
            3.0,
            "one slow window moves it by one window"
        );
        assert_eq!(m.get("x_p50_ms"), 1.0);
        assert_eq!(m.samples["x_p99_ms"], 30);
        assert_eq!(m.samples["x_p99_ms.windows"], 3);
    }
}
