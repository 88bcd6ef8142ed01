//! Property tests for the simulation kernel.

use dgrid_sim::stats::{OnlineStats, SampleSet};
use dgrid_sim::{EventQueue, SimTime};
use proptest::prelude::*;

proptest! {
    /// The queue is a stable priority queue: pops come out sorted by time,
    /// and equal-time events preserve insertion order.
    #[test]
    fn queue_pops_sorted_and_stable(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (seq, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, seq));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((at, (t, seq))) = q.pop() {
            popped += 1;
            prop_assert_eq!(at, SimTime::from_millis(t));
            if let Some((lt, lseq)) = last {
                prop_assert!(t >= lt, "time order");
                if t == lt {
                    prop_assert!(seq > lseq, "FIFO among equal timestamps");
                }
            }
            last = Some((t, seq));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Welford matches the two-pass computation for arbitrary inputs, and
    /// any split-merge equals the sequential accumulation.
    #[test]
    fn online_stats_match_two_pass(
        xs in proptest::collection::vec(-1e6f64..1e6, 1..300),
        split in any::<usize>(),
    ) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let scale = var.max(1.0);
        prop_assert!((s.mean() - mean).abs() / mean.abs().max(1.0) < 1e-9);
        prop_assert!((s.variance() - var).abs() / scale < 1e-6);

        let cut = split % xs.len();
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..cut] {
            a.push(x);
        }
        for &x in &xs[cut..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), s.count());
        prop_assert!((a.mean() - s.mean()).abs() / s.mean().abs().max(1.0) < 1e-9);
        prop_assert!((a.variance() - s.variance()).abs() / scale < 1e-6);
    }

    /// SampleSet percentiles are actual samples and monotone in p.
    #[test]
    fn percentiles_are_samples_and_monotone(
        xs in proptest::collection::vec(0.0f64..1e9, 1..200),
    ) {
        let mut s = SampleSet::new();
        for &x in &xs {
            s.push(x);
        }
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = s.percentile(p).unwrap();
            prop_assert!(xs.contains(&v), "percentile must be an observed sample");
            prop_assert!(v >= prev, "monotone in p");
            prev = v;
        }
        prop_assert_eq!(s.percentile(100.0), s.max());
        prop_assert_eq!(s.percentile(0.0), s.min());
    }

    /// `summary` and `percentile` on a set already sorted, one not yet
    /// sorted, and one sorted and then pushed to again answer bit for bit
    /// what a stable `partial_cmp` sort ranks, and keep every sample.
    #[test]
    fn summary_and_percentiles_match_a_stable_sort(
        xs in tie_heavy_samples(),
        split in any::<usize>(),
        mode in 0u8..3,
    ) {
        let mut s = SampleSet::new();
        let cut = split % (xs.len() + 1);
        match mode {
            0 => {
                xs.iter().for_each(|&x| s.push(x));
                s.sort();
            }
            1 => xs.iter().for_each(|&x| s.push(x)),
            _ => {
                xs[..cut].iter().for_each(|&x| s.push(x));
                s.sort();
                xs[cut..].iter().for_each(|&x| s.push(x));
            }
        }
        let sorted = stable_sorted(&xs);
        let at = |p: f64| sorted[((p / 100.0) * (sorted.len() - 1) as f64).round() as usize].to_bits();
        let sum = s.summary();
        prop_assert_eq!(sum.p50.to_bits(), at(50.0));
        prop_assert_eq!(sum.p95.to_bits(), at(95.0));
        prop_assert_eq!(sum.p99.to_bits(), at(99.0));
        prop_assert_eq!(sum.min.to_bits(), at(0.0));
        prop_assert_eq!(sum.max.to_bits(), at(100.0));
        for p in [0.0, 1.0, 25.0, 50.0, 95.0, 99.0, 99.9, 100.0] {
            prop_assert_eq!(s.percentile(p).map(f64::to_bits), Some(at(p)));
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(s.samples()), bits(&sorted));
    }
}

/// Non-negative samples, heavy in zeros and repeated values.
fn tie_heavy_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            Just(0.0),
            (0u32..8).prop_map(|k| f64::from(k) * 0.5),
            0.0f64..1e6,
        ],
        1..300,
    )
}

/// `xs` in ascending order by the stable `partial_cmp` sort percentiles
/// were once read from.
fn stable_sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    sorted
}
