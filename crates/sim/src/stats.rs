//! Online statistics and sample summaries.
//!
//! The paper reports, for each workload/algorithm pair, the *average* and
//! *standard deviation* of job wait times (Figure 2), and claims low
//! matchmaking cost in overlay hops. These types collect exactly those
//! metrics: [`OnlineStats`] for single-pass mean/variance (Welford's
//! algorithm) and [`SampleSet`] when percentiles of the full distribution are
//! also needed.

use serde::{Deserialize, Serialize};

/// Single-pass mean / variance / min / max accumulator (Welford).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merge another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A full sample set: retains every observation for percentile queries.
///
/// Memory is O(n), 8 bytes a sample. The benchmark workloads record
/// 1.5–2 × 10⁵ samples per set and a run keeps several sets; at 10⁷ jobs
/// that is hundreds of megabytes, which only a bounded sketch avoids.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SampleSet {
    samples: Vec<f64>,
    #[serde(skip)]
    sorted: bool,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty sample set with room for `n` observations before it
    /// reallocates.
    pub fn with_capacity(n: usize) -> Self {
        SampleSet {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Add one observation. A `-0.0` is stored as `+0.0`, so samples that
    /// compare equal are bit-equal and no order statistic depends on how
    /// ties were ordered.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "non-finite observation {x}");
        self.samples.push(x + 0.0);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True iff no observations recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Population standard deviation (0 if fewer than 2 observations).
    pub fn std_dev(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self.samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.samples.len() as f64)
            .sqrt()
    }

    /// The `p`-th percentile (0 ≤ p ≤ 100): the sample at 0-based rank
    /// `round(p/100 · (n−1))` in ascending order; `None` if empty. Sorts
    /// the samples on the first call after a push.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        Some(self.samples[rank(p, self.samples.len())])
    }

    /// Put the samples in ascending order (a no-op when they already are).
    pub fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.max(x),
            })
        })
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, x| {
            Some(match acc {
                None => x,
                Some(m) => m.min(x),
            })
        })
    }

    /// Borrow the raw samples (unspecified order).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Collapse into an [`OnlineStats`] summary.
    pub fn to_online(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &x in &self.samples {
            s.push(x);
        }
        s
    }

    /// Append all samples from `other`.
    pub fn merge(&mut self, other: &SampleSet) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }

    /// Collapse into a serializable [`SampleSummary`] with tail percentiles.
    ///
    /// The percentiles follow [`SampleSet::percentile`]'s rank rule, but an
    /// unsorted set is not sorted: p99 is selected, then p95 among the
    /// samples below p99's rank, then p50 among those below p95's, and the
    /// samples are left in the order selection put them.
    pub fn summary(&mut self) -> SampleSummary {
        let mean = self.mean();
        let std_dev = self.std_dev();
        let [p50, p95, p99] = self.select_percentiles([50.0, 95.0, 99.0]);
        SampleSummary {
            count: self.len() as u64,
            mean,
            std_dev,
            min: self.min().unwrap_or(0.0),
            p50,
            p95,
            p99,
            max: self.max().unwrap_or(0.0),
        }
    }

    /// The percentiles `ps` (ascending), each `0.0` when empty: read off a
    /// sorted set, selected from the top one down on an unsorted one.
    fn select_percentiles(&mut self, ps: [f64; 3]) -> [f64; 3] {
        let n = self.samples.len();
        let mut out = [0.0; 3];
        if n == 0 {
            return out;
        }
        // No sample from `bound` on is smaller than one below it, so a rank
        // under `bound` is found among the first `bound` samples.
        let mut bound = n;
        for (i, &p) in ps.iter().enumerate().rev() {
            let r = rank(p, n);
            if !self.sorted && r < bound {
                self.samples[..bound].select_nth_unstable_by(r, f64::total_cmp);
                bound = r;
            }
            out[i] = self.samples[r];
        }
        out
    }
}

/// 0-based rank of the `p`-th percentile in `n > 0` ascending samples.
fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * (n - 1) as f64).round() as usize;
    r.min(n - 1)
}

/// A compact distribution summary: the paper's mean/std plus the tail
/// percentiles that mean/std hide (p50/p95/p99). Zeroes when empty.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Median: the sample at rank `round(0.5 · (n−1))`, as
    /// [`SampleSet::percentile`] ranks.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observation.
    pub max: f64,
}

/// Jain's fairness index of a load vector: `(Σx)² / (n·Σx²)`.
///
/// 1.0 means perfectly even load; `1/n` means one node holds everything.
/// Used for the load-balancing claims around the improved CAN algorithm.
pub fn jains_fairness(loads: &[f64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let sum: f64 = loads.iter().sum();
    let sum_sq: f64 = loads.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (loads.len() as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..33] {
            left.push(x);
        }
        for &x in &xs[33..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&OnlineStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut b = OnlineStats::new();
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert!((b.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        let med = s.median().unwrap();
        assert!((50.0..=51.0).contains(&med));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn sample_set_matches_online() {
        let mut ss = SampleSet::new();
        for i in 0..50 {
            ss.push((i * i) as f64);
        }
        let os = ss.to_online();
        assert!((ss.mean() - os.mean()).abs() < 1e-9);
        assert!((ss.std_dev() - os.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn pushes_after_percentile_are_included() {
        let mut s = SampleSet::new();
        s.push(1.0);
        assert_eq!(s.median(), Some(1.0));
        s.push(100.0);
        s.push(101.0);
        assert_eq!(s.percentile(100.0), Some(101.0));
    }

    #[test]
    fn summary_matches_percentiles() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 100);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 100.0);
        assert_eq!(sum.p50, s.percentile(50.0).unwrap());
        assert_eq!(sum.p95, s.percentile(95.0).unwrap());
        assert_eq!(sum.p99, s.percentile(99.0).unwrap());
        assert!(sum.p50 <= sum.p95 && sum.p95 <= sum.p99 && sum.p99 <= sum.max);
        assert_eq!(SampleSet::new().summary(), SampleSummary::default());
    }

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let mut s = SampleSet::new();
        s.push(-0.0);
        s.push(0.0);
        assert!(s.samples().iter().all(|x| x.to_bits() == 0.0f64.to_bits()));
        assert_eq!(s.summary().p50.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn fairness_index() {
        assert!((jains_fairness(&[1.0, 1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        let skewed = jains_fairness(&[4.0, 0.0, 0.0, 0.0]);
        assert!((skewed - 0.25).abs() < 1e-12);
        assert_eq!(jains_fairness(&[]), 1.0);
        assert_eq!(jains_fairness(&[0.0, 0.0]), 1.0);
    }
}
