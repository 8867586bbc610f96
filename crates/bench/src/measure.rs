//! Throughput measurement: how the paper's Gbps numbers are produced.
//!
//! Each experiment point runs the engine's counting scan (the paper: "all
//! algorithms count the number of matches") over the trace `runs` times after
//! one warm-up pass, and reports the mean and sample standard deviation of
//! the per-run throughput in Gbit/s, exactly the metric on the paper's
//! y-axes.

use mpm_patterns::stats::RunningStats;
use mpm_patterns::Matcher;
use std::hint::black_box;
use std::time::Instant;

/// One measured point.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Mean throughput in Gbit/s.
    pub gbps_mean: f64,
    /// Sample standard deviation of the throughput.
    pub gbps_std: f64,
    /// What the last run returned: for a scan, the matches it counted
    /// (sanity check: identical across engines on the same workload).
    pub matches: u64,
    /// Number of measured runs.
    pub runs: usize,
}

/// Measures the counting throughput of `engine` over `input`.
pub fn measure_throughput(engine: &dyn Matcher, input: &[u8], runs: usize) -> Measurement {
    measure_closure(input.len(), runs, || engine.count(input))
}

/// Measures an arbitrary closure processing `bytes` bytes per call (used
/// directly for the filtering-only experiments, where the measured unit is
/// not a full `Matcher` scan). One warm-up call touches the tables and the
/// input first.
pub fn measure_closure<F: FnMut() -> u64>(bytes: usize, runs: usize, mut body: F) -> Measurement {
    assert!(runs > 0, "need at least one run");
    let mut last = body();
    let mut stats = RunningStats::new();
    for _ in 0..runs {
        let start = Instant::now();
        last = black_box(body());
        stats.push(gbps(bytes, start.elapsed().as_secs_f64()));
    }
    Measurement {
        gbps_mean: stats.mean(),
        gbps_std: stats.stddev(),
        matches: last,
        runs,
    }
}

/// Converts `(bytes, seconds)` to Gbit/s.
pub fn gbps(bytes: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return f64::INFINITY;
    }
    (bytes as f64 * 8.0) / seconds / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpm_patterns::{NaiveMatcher, PatternSet};

    #[test]
    fn gbps_conversion() {
        // 1 GB in 1 s = 8 Gbps.
        assert!((gbps(1_000_000_000, 1.0) - 8.0).abs() < 1e-9);
        assert!(gbps(100, 0.0).is_infinite());
    }

    #[test]
    fn measurement_reports_match_count_and_positive_throughput() {
        let set = PatternSet::from_literals(&["ab"]);
        let matcher = NaiveMatcher::new(&set);
        let input = b"ababab".repeat(2_000);
        let m = measure_throughput(&matcher, &input, 3);
        assert_eq!(m.runs, 3);
        assert!(m.gbps_mean > 0.0);
        assert_eq!(m.matches, matcher.count(&input));
    }

    #[test]
    fn closure_measurement_runs_body() {
        let mut calls = 0u64;
        let m = measure_closure(1_000, 2, || {
            calls += 1;
            calls
        });
        // warm-up + 2 measured runs
        assert_eq!(calls, 3);
        assert!(m.gbps_mean > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn zero_runs_rejected() {
        let set = PatternSet::from_literals(&["x"]);
        let matcher = NaiveMatcher::new(&set);
        let _ = measure_throughput(&matcher, b"xx", 0);
    }
}
