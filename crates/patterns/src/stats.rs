//! Small statistics helpers for the experiment harness and the pipeline:
//! a running mean/stddev and a log-linear latency histogram.

use serde::{Deserialize, Serialize};

/// Simple online mean/stddev accumulator (Welford), used by the benchmark
/// harness to report mean ± stddev over repeated runs as the paper does.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the observations (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (0 with fewer than two observations).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }
}

/// Sub-bucket resolution of [`LatencyHistogram`]: each power-of-two octave
/// is split into `2^SUB_BITS` linear sub-buckets, bounding the relative
/// quantization error at `2^-SUB_BITS` (~3.2%).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Octaves covered: values up to `2^(OCTAVES + SUB_BITS)` nanoseconds land
/// in their own bucket; anything larger saturates into the last one. 58
/// octaves cover the full `u64` nanosecond range.
const OCTAVES: usize = 64 - SUB_BITS as usize;
const BUCKETS: usize = OCTAVES * SUB;

/// HDR-style log-linear histogram of per-packet latencies in nanoseconds.
///
/// Values below `2 * 2^SUB_BITS` (= 64 ns) are recorded exactly; above
/// that, each power-of-two octave is split into 32 linear sub-buckets, so
/// any reported percentile is within ~3.2% of the true value. Recording is
/// a shift, a mask and one counter increment — cheap enough for the
/// per-packet hot path — and two histograms recorded on different worker
/// threads [`merge`](LatencyHistogram::merge) into one by adding counters,
/// which is how the sharded pipeline aggregates per-worker latency into a
/// global p50/p99/p999 without cross-thread synchronization during the run.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket `nanos` falls into.
    fn bucket_of(nanos: u64) -> usize {
        if nanos < (2 * SUB) as u64 {
            // The first two octaves are exact: bucket == value.
            nanos as usize
        } else {
            // The top set bit picks the octave; the SUB_BITS below it pick
            // the linear sub-bucket. mantissa is in [SUB, 2*SUB).
            let shift = (63 - nanos.leading_zeros()) - SUB_BITS;
            let mantissa = (nanos >> shift) as usize;
            ((shift as usize) * SUB + mantissa).min(BUCKETS - 1)
        }
    }

    /// Upper edge (inclusive) of bucket `i` — the conservative value
    /// percentile queries report.
    fn bucket_upper(i: usize) -> u64 {
        if i < 2 * SUB {
            i as u64
        } else {
            // Inverse of bucket_of: i = shift*SUB + mantissa with mantissa
            // in [SUB, 2*SUB), so shift = i/SUB - 1.
            let shift = (i / SUB - 1) as u32;
            let mantissa = (i % SUB + SUB) as u64;
            // Everything in the bucket is <= ((mantissa+1) << shift) - 1.
            ((mantissa + 1) << shift) - 1
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, nanos: u64) {
        self.buckets[Self::bucket_of(nanos)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(nanos);
        self.max = self.max.max(nanos);
    }

    /// Adds every observation of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded observation (exact, not bucketed). 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded observations in nanoseconds. 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The latency at quantile `q` in `[0, 1]` — the smallest bucket upper
    /// edge such that at least `q * count` observations are at or below it
    /// (within the ~3.2% bucket resolution). 0 if the histogram is empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Condenses the histogram into the fixed summary quantiles.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50_ns: self.percentile(0.50),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
            max_ns: self.max,
            mean_ns: self.mean(),
        }
    }
}

/// Fixed-quantile condensation of a [`LatencyHistogram`], ready for JSON
/// reporting. Summaries of different histograms cannot be merged (quantiles
/// don't add) — merge the histograms, then summarize.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: u64,
    /// Median latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile latency in nanoseconds.
    pub p999_ns: u64,
    /// Largest observed latency in nanoseconds (exact).
    pub max_ns: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_histogram_is_exact_below_64ns() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.max(), 63);
        // Every value below 2*SUB lives in its own bucket, so quantiles are
        // exact: the q-quantile of {0..63} is ceil(q*64)-1.
        for (q, expect) in [(0.5, 31), (0.25, 15), (1.0, 63)] {
            assert_eq!(h.percentile(q), expect, "q={q}");
        }
    }

    #[test]
    fn latency_histogram_error_is_bounded() {
        // Across the log-bucketed range, the reported percentile must be
        // >= the true value and within the 2^-SUB_BITS sub-bucket bound.
        for exp in [7u32, 10, 13, 17, 20, 24, 30] {
            let v = (1u64 << exp) + (1 << (exp - 2)) + 3;
            let mut h = LatencyHistogram::new();
            h.record(v);
            // A far-off outlier keeps the exact-max clamp away from v's
            // bucket, so the median reports v's bucket upper edge.
            h.record(u64::MAX / 2);
            let got = h.percentile(0.5);
            assert!(got >= v, "reported {got} < recorded {v}");
            assert!(
                (got - v) as f64 <= v as f64 / 32.0 + 1.0,
                "error too large: recorded {v}, reported {got}"
            );
            assert_eq!(h.count(), 2);
        }
    }

    #[test]
    fn latency_histogram_merge_equals_recording_into_one() {
        let values: Vec<u64> = (0..2000u64).map(|i| i * i % 77_777 + 1).collect();
        let mut whole = LatencyHistogram::new();
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert_eq!(left.max(), whole.max());
        assert_eq!(left.mean(), whole.mean());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(left.percentile(q), whole.percentile(q), "q={q}");
        }
    }

    #[test]
    fn latency_percentiles_are_monotone_and_summary_agrees() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 13 % 500_000);
        }
        let mut last = 0;
        for q in [0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let p = h.percentile(q);
            assert!(p >= last, "percentiles must be monotone in q");
            last = p;
        }
        let s = h.summary();
        assert_eq!(s.count, h.count());
        assert_eq!(s.p50_ns, h.percentile(0.5));
        assert_eq!(s.p99_ns, h.percentile(0.99));
        assert_eq!(s.p999_ns, h.percentile(0.999));
        assert_eq!(s.max_ns, h.max());
        assert!(s.p50_ns <= s.p99_ns && s.p99_ns <= s.p999_ns && s.p999_ns <= s.max_ns);
        let empty = LatencyHistogram::new();
        assert_eq!(empty.percentile(0.99), 0);
        assert_eq!(empty.summary(), LatencySummary::default());
    }

    #[test]
    fn running_stats_mean_and_stddev() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.stddev() - 2.138089935299395).abs() < 1e-9);
        let empty = RunningStats::new();
        assert_eq!(empty.stddev(), 0.0);
    }
}
