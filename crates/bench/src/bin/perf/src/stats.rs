//! Order statistics and the parent-versus-change comparison rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so the spreads this tool prints are the
//! ones an outside checker computes from the same runs.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (latency, set-up time, memory).
    Lower,
    /// Larger values are better (throughput, attainment).
    Higher,
}

impl Better {
    /// Parses the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Self::Lower),
            "higher" => Some(Self::Higher),
            _ => None,
        }
    }

    /// Whether `a` reads strictly better than `b`.
    pub fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            Self::Lower => a < b,
            Self::Higher => a > b,
        }
    }
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` exactly as `statistics.quantiles(values, n=4)`
/// computes them. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median (0 for a zero
/// median, where a relative spread means nothing).
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of raw samples, reordering
/// them in place. Every reported value is one that was measured.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(samples: &mut [u32], p: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// How one metric moved between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and its median
    /// beats the parent's by more than the parent's own spread.
    Improved,
    /// No improvement, and no worsening beyond the bound.
    Unchanged,
    /// The change's median is worse than the parent's by more than the
    /// bound (or, without a bound, the parent wins as an improvement
    /// would).
    Worse,
    /// The run-to-run spread is wider than the bound, so "unchanged"
    /// cannot be claimed.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Self::Improved => "improved",
            Self::Unchanged => "unchanged",
            Self::Worse => "worse",
            Self::Unresolved => "unresolved",
        }
    }
}

/// Summary of one side of a comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Self {
        let (q1, _, q3) = quartiles(values);
        Self {
            q1,
            median: median(values),
            q3,
        }
    }
}

/// One row of `perf compare`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent runs.
    pub parent: Side,
    /// Change runs.
    pub change: Side,
    /// Share of run pairs the change won (ties count for neither side).
    pub win_fraction: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares parent and change runs of one metric.
///
/// Runs pair up by position. `bound` is the share of the parent's
/// median by which the metric may worsen; `None` (per-layer metrics)
/// judges worsening by the mirror of the improvement rule. An `exact`
/// metric is deterministic: any difference at all is a change, so it
/// is unchanged only when every pair of runs is identical.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
    exact: bool,
) -> Comparison {
    let p = Side::of(parent);
    let c = Side::of(change);
    let pairs = parent.len().min(change.len()).max(1);
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(pv, cv)| better.is_better(**cv, **pv))
        .count();
    let losses = parent
        .iter()
        .zip(change)
        .filter(|(pv, cv)| better.is_better(**pv, **cv))
        .count();
    let win_fraction = wins as f64 / pairs as f64;
    let verdict = if exact {
        // Paired runs share a seed, so any difference is a change.
        if parent.iter().zip(change).all(|(a, b)| a == b) {
            Verdict::Unchanged
        } else if losses == 0 {
            Verdict::Improved
        } else {
            Verdict::Worse
        }
    } else {
        let parent_spread = p.q3 - p.q1;
        let gap = (c.median - p.median).abs();
        if wins * 10 >= pairs * 9 && better.is_better(c.median, p.median) && gap > parent_spread {
            Verdict::Improved
        } else {
            match bound {
                Some(bound) => {
                    let scale = p.median.abs();
                    let worse_share = if scale == 0.0 || !better.is_better(p.median, c.median) {
                        0.0
                    } else {
                        gap / scale
                    };
                    let spread = relative_iqr(parent).max(relative_iqr(change));
                    let all_better = match better {
                        Better::Lower => max(change) < min(parent),
                        Better::Higher => min(change) > max(parent),
                    };
                    if spread > bound && !all_better {
                        Verdict::Unresolved
                    } else if worse_share > bound {
                        Verdict::Worse
                    } else {
                        Verdict::Unchanged
                    }
                }
                None => {
                    if losses * 10 >= pairs * 9
                        && better.is_better(p.median, c.median)
                        && gap > parent_spread
                    {
                        Verdict::Worse
                    } else {
                        Verdict::Unchanged
                    }
                }
            }
        }
    };
    Comparison {
        parent: p,
        change: c,
        win_fraction,
        verdict,
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn relative_iqr_is_a_share_of_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_iqr(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = vec![42];
        assert_eq!(percentile(&mut one, 99.9), 42);
    }

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn nine_of_ten_wins_beyond_the_spread_is_an_improvement() {
        let parent = runs(100.0, 0.1);
        let mut change = runs(90.0, 0.1);
        // One pair lost: still nine tenths.
        change[0] = 101.0;
        let row = compare(&parent, &change, Better::Lower, Some(0.1), false);
        assert_eq!(row.win_fraction, 0.9);
        assert_eq!(row.verdict, Verdict::Improved);
        // Two pairs lost: not an improvement any more, and within bound.
        change[1] = 101.0;
        let row = compare(&parent, &change, Better::Lower, Some(0.1), false);
        assert_eq!(row.win_fraction, 0.8);
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn a_win_inside_the_parent_spread_is_not_an_improvement() {
        // Parent quartiles span ~8 units; a 1-unit median gain that wins
        // every pair is still inside that spread.
        let parent = runs(100.0, 2.0);
        let change: Vec<f64> = parent.iter().map(|v| v - 1.0).collect();
        let row = compare(&parent, &change, Better::Lower, Some(0.25), false);
        assert_eq!(row.win_fraction, 1.0);
        assert_eq!(row.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worsening_beyond_the_bound_is_worse() {
        let parent = runs(100.0, 0.1);
        let change = runs(120.0, 0.1);
        let row = compare(&parent, &change, Better::Lower, Some(0.1), false);
        assert_eq!(row.verdict, Verdict::Worse);
        let within = runs(105.0, 0.1);
        let row = compare(&parent, &within, Better::Lower, Some(0.1), false);
        assert_eq!(row.verdict, Verdict::Unchanged);
        // Higher-is-better mirrors it.
        let row = compare(&change, &parent, Better::Higher, Some(0.1), false);
        assert_eq!(row.verdict, Verdict::Worse);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let parent = vec![
            50.0, 100.0, 150.0, 80.0, 120.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().rev().copied().collect();
        let row = compare(&parent, &change, Better::Lower, Some(0.1), false);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let fast: Vec<f64> = parent.iter().map(|v| v / 10.0).collect();
        let row = compare(&parent, &fast, Better::Lower, Some(0.1), false);
        assert_ne!(row.verdict, Verdict::Unresolved);
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let same = vec![0.5; 10];
        assert_eq!(
            compare(&same, &same, Better::Higher, Some(0.01), true).verdict,
            Verdict::Unchanged
        );
        let mut moved = same.clone();
        moved[3] = 0.5 + 1e-12;
        assert_eq!(
            compare(&same, &moved, Better::Higher, Some(0.01), true).verdict,
            Verdict::Improved
        );
        moved[3] = 0.5 - 1e-12;
        assert_eq!(
            compare(&same, &moved, Better::Higher, Some(0.01), true).verdict,
            Verdict::Worse
        );
    }

    #[test]
    fn unbounded_metrics_use_the_mirrored_rule() {
        let parent = runs(100.0, 0.1);
        let slower = runs(130.0, 0.1);
        assert_eq!(
            compare(&parent, &slower, Better::Lower, None, false).verdict,
            Verdict::Worse
        );
        let noisy = vec![
            90.0, 140.0, 95.0, 135.0, 99.0, 131.0, 92.0, 133.0, 98.0, 138.0,
        ];
        assert_eq!(
            compare(&parent, &noisy, Better::Lower, None, false).verdict,
            Verdict::Unchanged
        );
    }
}
