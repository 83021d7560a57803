//! Popularity and request-cost samplers.
//!
//! App popularity follows a Zipf law over registration rank and the
//! per-request cost follows a bounded Pareto — the standard empirical
//! shape of web-service traffic (a few hot endpoints, a heavy but
//! bounded tail of expensive requests). Both are pure inverse-CDF
//! transforms of one uniform, so stream positions never depend on the
//! sampled values.

use powermed_units::rng::SplitMix;

/// Normalized Zipf popularity weights for `n` ranks with exponent `s`:
/// `w_k ∝ 1 / k^s`, `Σ w_k = 1`. Rank 1 (index 0) is the most popular.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "need at least one rank");
    assert!(s >= 0.0, "Zipf exponent must be non-negative");
    let raw: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Samples ranks from a Zipf popularity law via a cumulative table.
#[derive(Debug, Clone)]
pub struct ZipfRanks {
    cumulative: Vec<f64>,
}

impl ZipfRanks {
    /// Builds the sampler for `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let cumulative = zipf_weights(n, s)
            .into_iter()
            .map(|w| {
                acc += w;
                acc
            })
            .collect();
        Self { cumulative }
    }

    /// Draws a 0-based rank (0 = most popular).
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.next_f64();
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// A bounded (truncated) Pareto distribution on `[xm, cap]` with tail
/// index `alpha`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    xm: f64,
    alpha: f64,
    cap: f64,
}

impl BoundedPareto {
    /// Creates the distribution. `cap` bounds the tail so one freak
    /// request cannot dominate a whole simulated day.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < xm < cap` and `alpha > 1` (the mean must
    /// exist even untruncated, so load calibration is stable).
    pub fn new(xm: f64, alpha: f64, cap: f64) -> Self {
        assert!(xm > 0.0 && cap > xm, "need 0 < xm < cap");
        assert!(alpha > 1.0, "tail index must exceed 1");
        Self { xm, alpha, cap }
    }

    /// Inverse CDF at `u ∈ [0, 1)`.
    pub fn quantile(&self, u: f64) -> f64 {
        let ratio_pow = (self.xm / self.cap).powf(self.alpha);
        self.xm / (1.0 - u * (1.0 - ratio_pow)).powf(1.0 / self.alpha)
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SplitMix) -> f64 {
        self.quantile(rng.next_f64())
    }

    /// The exact mean of the truncated distribution (used to calibrate
    /// mean request cost to a target offered load).
    pub fn mean(&self) -> f64 {
        let a = self.alpha;
        let trunc = 1.0 - (self.xm / self.cap).powf(a);
        self.xm.powf(a) / trunc * a / (a - 1.0) * (self.xm.powf(1.0 - a) - self.cap.powf(1.0 - a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Least-squares slope of `y` against `x`.
    fn slope(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len() as f64;
        let mx = x.iter().sum::<f64>() / n;
        let my = y.iter().sum::<f64>() / n;
        let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
        let var: f64 = x.iter().map(|a| (a - mx) * (a - mx)).sum();
        cov / var
    }

    /// Satellite check: the empirical rank-frequency curve of the Zipf
    /// sampler has log-log slope ≈ -s at a fixed seed.
    #[test]
    fn zipf_rank_frequency_slope() {
        let s = 1.1;
        let n_ranks = 50;
        let sampler = ZipfRanks::new(n_ranks, s);
        let mut rng = SplitMix::channel(0x51AF, 11);
        let mut counts = vec![0u64; n_ranks];
        for _ in 0..200_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        // Fit over the well-populated head (top 20 ranks).
        let xs: Vec<f64> = (1..=20).map(|k| (k as f64).ln()).collect();
        let ys: Vec<f64> = counts[..20].iter().map(|&c| (c as f64).ln()).collect();
        let fitted = slope(&xs, &ys);
        assert!(
            (fitted + s).abs() < 0.05,
            "fitted slope {fitted}, expected {}",
            -s
        );
    }

    /// Satellite check: the Hill estimator over the sample tail
    /// recovers the configured Pareto index at a fixed seed.
    #[test]
    fn pareto_tail_index() {
        let alpha = 1.5;
        // A cap far above xm keeps truncation bias below the tolerance.
        let dist = BoundedPareto::new(1.0, alpha, 1e6);
        let mut rng = SplitMix::channel(0x7A1E, 13);
        let mut samples: Vec<f64> = (0..100_000).map(|_| dist.sample(&mut rng)).collect();
        samples.sort_by(|a, b| b.partial_cmp(a).expect("samples are finite"));
        let k = 2_000; // tail fraction for the Hill estimator
        let x_k = samples[k];
        let hill: f64 = samples[..k].iter().map(|&x| (x / x_k).ln()).sum::<f64>() / k as f64;
        let estimated = 1.0 / hill;
        assert!(
            (estimated - alpha).abs() < 0.1,
            "Hill estimate {estimated}, expected {alpha}"
        );
    }

    #[test]
    fn bounded_pareto_mean_matches_samples() {
        let dist = BoundedPareto::new(1.0, 1.5, 50.0);
        let mut rng = SplitMix::channel(0xCAFE, 17);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| dist.sample(&mut rng)).sum();
        let sample_mean = total / n as f64;
        let exact = dist.mean();
        assert!(
            (sample_mean - exact).abs() / exact < 0.02,
            "sample mean {sample_mean} vs exact {exact}"
        );
    }

    #[test]
    fn samples_respect_bounds() {
        let dist = BoundedPareto::new(2.0, 1.3, 40.0);
        let mut rng = SplitMix::channel(1, 2);
        for _ in 0..10_000 {
            let x = dist.sample(&mut rng);
            assert!((2.0..=40.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn zipf_weights_normalized_and_monotone() {
        let w = zipf_weights(16, 0.9);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] >= p[1]));
    }
}
