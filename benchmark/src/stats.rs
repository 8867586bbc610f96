//! Order statistics over small samples of measurements.

/// Sorts a sample in place (measurements are never NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are not NaN"));
}

/// The `p`-quantile (`0 <= p <= 1`) of a **sorted**, non-empty sample, with
/// the interpolation of Python's `statistics.quantiles(method="exclusive")`
/// — the one the acceptance procedure in `README.md` uses.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let rank = p * (n as f64 + 1.0);
    let below = (rank.floor() as usize).clamp(1, n);
    let above = (below + 1).min(n);
    let weight = (rank - below as f64).clamp(0.0, 1.0);
    sorted[below - 1] + weight * (sorted[above - 1] - sorted[below - 1])
}

/// First quartile, median and third quartile of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Quartiles of an unsorted, non-empty sample.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        Quartiles {
            q1: quantile_sorted(&sorted, 0.25),
            median: quantile_sorted(&sorted, 0.5),
            q3: quantile_sorted(&sorted, 0.75),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&values);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        assert_eq!(quantile_sorted(&[7.0], 0.75), 7.0);
    }
}
