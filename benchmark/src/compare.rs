//! `compare A.json B.json`: is B worse than A, by the rule the benchmark
//! fixed before either was measured?

use crate::bench::{Measured, ResultFile};
use crate::metrics::Better;

/// Verdict on one workload × end-to-end metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The median did not move past the bound, and both spreads are inside it.
    Ok,
    /// The median moved past the bound in the worse direction.
    Worse,
    /// The median stayed inside the bound, but a side's inter-quartile range
    /// is wider than the bound, so "unchanged" cannot be told from "moved".
    Unresolved,
    /// An exact (simulated) value is bit-identical.
    Same,
    /// An exact (simulated) value differs: behaviour changed, not speed.
    Changed,
}

impl Verdict {
    /// Table spelling.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
            Verdict::Changed => "CHANGED",
        }
    }

    /// Whether this verdict fails a comparison.
    pub fn fails(self) -> bool {
        matches!(
            self,
            Verdict::Worse | Verdict::Unresolved | Verdict::Changed
        )
    }
}

/// How much worse `b` is than `a`, as a share of `a`'s median (negative when
/// better).
pub fn worsening(a: &Measured, b: &Measured) -> f64 {
    let (ma, mb) = (a.summary.median, b.summary.median);
    match a.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    }
}

/// Judge one metric. `same_seed` says the two files ran the same inputs, so
/// exact metrics are compared to the bit; across seeds they fall back to
/// the bound like any other.
pub fn judge(a: &Measured, b: &Measured, same_seed: bool) -> Verdict {
    if a.exact && same_seed {
        return if a.summary.median.to_bits() == b.summary.median.to_bits() {
            Verdict::Same
        } else {
            Verdict::Changed
        };
    }
    if worsening(a, b) > a.bound {
        Verdict::Worse
    } else if a.summary.spread() > a.bound || b.summary.spread() > a.bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// One table row.
pub struct Row {
    /// The row, formatted.
    pub text: String,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare every workload × end-to-end metric present in both files, plus
/// the exact per-seed results when the seeds match.
pub fn compare(a: &ResultFile, b: &ResultFile) -> Vec<Row> {
    let mut rows = Vec::new();
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.workload == wa.workload) else {
            continue;
        };
        let same_inputs = wa.seed == wb.seed && wa.scale_div == wb.scale_div;
        for (name, ma) in &wa.end_to_end {
            let Some(mb) = wb.end_to_end.get(name) else {
                continue;
            };
            let verdict = judge(ma, mb, same_inputs);
            let (sa, sb) = (&ma.summary, &mb.summary);
            rows.push(Row {
                text: format!(
                    "{:<18} {:<16} {:>12.5} [{:.5} {:.5}] {:>12.5} [{:.5} {:.5}] {:<9} {:>+7.2}% (bound {:.0}%, {}) {}",
                    wa.workload,
                    name,
                    sa.median,
                    sa.q1,
                    sa.q3,
                    sb.median,
                    sb.q1,
                    sb.q3,
                    ma.unit,
                    100.0 * worsening(ma, mb),
                    100.0 * ma.bound,
                    ma.better.label(),
                    verdict.label(),
                ),
                verdict,
            });
        }
        if same_inputs {
            // Only the exact values that moved get a row.
            for (name, va) in &wa.exact {
                let vb = wb.exact.get(name);
                if vb != Some(va) {
                    let became = vb.map_or("missing".to_string(), u64::to_string);
                    rows.push(Row {
                        text: format!(
                            "{:<18} {:<16} exact value {va} became {became} {}",
                            wa.workload,
                            name,
                            Verdict::Changed.label()
                        ),
                        verdict: Verdict::Changed,
                    });
                }
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn m(values: &[f64], better: Better, bound: f64, exact: bool) -> Measured {
        Measured {
            unit: "s".into(),
            better,
            bound,
            exact,
            values: values.to_vec(),
            summary: Summary::of(values).unwrap(),
        }
    }

    #[test]
    fn worse_only_past_the_bound() {
        let a = m(&[1.00, 1.00, 1.01, 0.99, 1.00], Better::Lower, 0.05, false);
        let inside = m(&[1.04, 1.04, 1.05, 1.03, 1.04], Better::Lower, 0.05, false);
        let past = m(&[1.06, 1.06, 1.07, 1.05, 1.06], Better::Lower, 0.05, false);
        let faster = m(&[0.50, 0.50, 0.51, 0.49, 0.50], Better::Lower, 0.05, false);
        assert_eq!(judge(&a, &inside, true), Verdict::Ok);
        assert_eq!(judge(&a, &past, true), Verdict::Worse);
        assert_eq!(judge(&a, &faster, true), Verdict::Ok);
    }

    #[test]
    fn direction_is_respected() {
        let a = m(
            &[100.0, 100.0, 101.0, 99.0, 100.0],
            Better::Higher,
            0.05,
            false,
        );
        let slower = m(&[90.0, 90.0, 91.0, 89.0, 90.0], Better::Higher, 0.05, false);
        let faster = m(
            &[120.0, 120.0, 121.0, 119.0, 120.0],
            Better::Higher,
            0.05,
            false,
        );
        assert_eq!(judge(&a, &slower, true), Verdict::Worse);
        assert_eq!(judge(&a, &faster, true), Verdict::Ok);
        assert!(worsening(&a, &slower) > 0.09 && worsening(&a, &faster) < -0.19);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = m(&[1.00, 1.00, 1.01, 0.99, 1.00], Better::Lower, 0.05, false);
        // Same median, but an inter-quartile range of 20 % of it.
        let noisy = m(&[0.85, 0.90, 1.00, 1.10, 1.15], Better::Lower, 0.05, false);
        assert_eq!(judge(&a, &noisy, true), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &a, true), Verdict::Unresolved);
        // A move past the bound is still called worse, however noisy.
        let noisy_and_slow = m(&[1.35, 1.40, 1.50, 1.60, 1.65], Better::Lower, 0.05, false);
        assert_eq!(judge(&a, &noisy_and_slow, true), Verdict::Worse);
    }

    #[test]
    fn exact_metrics_compare_to_the_bit_on_one_seed() {
        let a = m(&[30.5, 30.5, 30.5], Better::Lower, 0.25, true);
        let same = m(&[30.5, 30.5, 30.5], Better::Lower, 0.25, true);
        let moved = m(&[30.500000001; 3], Better::Lower, 0.25, true);
        assert_eq!(judge(&a, &same, true), Verdict::Same);
        assert_eq!(judge(&a, &moved, true), Verdict::Changed);
        // Across seeds the bound applies instead.
        assert_eq!(judge(&a, &moved, false), Verdict::Ok);
    }
}
