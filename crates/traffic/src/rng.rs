//! Seeded random streams for the traffic generator.
//!
//! Every stochastic channel in the subsystem (one per application
//! stream, one for burst placement) draws from its own splitmix64
//! stream derived from the scenario seed with a channel tag — the same
//! derivation pattern the fault and adversary injectors use — so two
//! runs with the same seed produce bit-identical arrival traces and
//! adding one app never perturbs another app's draw sequence.

use powermed_units::hash::{splitmix64, SPLITMIX_GAMMA};

/// A splitmix64-backed stream with the sampling primitives the
/// generator needs: uniforms, exponentials, normals and Poisson counts.
#[derive(Debug, Clone)]
pub struct TrafficRng {
    state: u64,
}

impl TrafficRng {
    /// Derives the stream for channel `tag` of scenario `seed`.
    pub fn new(seed: u64, tag: u64) -> Self {
        Self {
            state: seed ^ tag.wrapping_mul(SPLITMIX_GAMMA),
        }
    }

    /// Next raw 64-bit output (splitmix64 step).
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform sample in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `(0, 1]` — safe as a `ln` argument.
    fn unit_open(&mut self) -> f64 {
        1.0 - self.next_f64()
    }

    /// Exponential sample with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit_open().ln()
    }

    /// Standard normal sample (Box–Muller, two uniforms per draw so the
    /// stream position stays deterministic).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit_open();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Poisson count with mean `lambda`.
    ///
    /// Uses Knuth's product method for small means and a rounded normal
    /// approximation (error `O(1/sqrt(lambda))`, negligible at the
    /// crossover) for large ones, keeping the per-call draw count small
    /// for any arrival rate.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda < 30.0 {
            let limit = (-lambda).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.next_f64();
            }
            count
        } else {
            let sample = lambda + lambda.sqrt() * self.normal();
            sample.round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TrafficRng::new(7, 1);
        let mut b = TrafficRng::new(7, 1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_tags_diverge() {
        let mut a = TrafficRng::new(7, 1);
        let mut b = TrafficRng::new(7, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        for &lambda in &[0.5, 4.0, 20.0, 200.0] {
            let mut rng = TrafficRng::new(0xBEEF, 3);
            let n = 4000;
            let total: u64 = (0..n).map(|_| rng.poisson(lambda)).sum();
            let mean = total as f64 / n as f64;
            // Standard error is sqrt(lambda / n); allow five sigmas.
            let tol = 5.0 * (lambda / n as f64).sqrt();
            assert!(
                (mean - lambda).abs() < tol,
                "lambda {lambda}: sample mean {mean} out of tolerance {tol}"
            );
        }
    }

    #[test]
    fn exponential_mean_tracks_parameter() {
        let mut rng = TrafficRng::new(0xABCD, 5);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp(3.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }
}
