//! Order statistics of repeated measurements.

use serde::{Deserialize, Serialize};

/// Five-number summary plus sample count — what every repeated timing is
/// reported as, beside the raw values.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

/// The `i`-th of `n − 1` cut points of sorted `data` by the exclusive method
/// — what Python's `statistics.quantiles(data, n=n)` returns, so a spread
/// computed here is the spread the acceptance procedure computes.
fn cut_point(sorted: &[f64], i: usize, n: usize) -> f64 {
    let m = sorted.len();
    let j = (i * (m + 1) / n).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * n) as f64;
    (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
}

impl Summary {
    /// Summarise `values`; `None` when empty or not all finite. One value
    /// is its own quartiles.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
        let (q1, median, q3) = if sorted.len() == 1 {
            (min, min, min)
        } else {
            (
                cut_point(&sorted, 1, 4),
                cut_point(&sorted, 2, 4),
                cut_point(&sorted, 3, 4),
            )
        };
        Some(Summary {
            n: sorted.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// Inter-quartile range as a share of the median (0 for a zero median).
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
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_inputs() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert!((s.spread() - 1.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
