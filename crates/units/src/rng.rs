//! The seeded stream every random draw in the workspace comes from.
//!
//! A [`SplitMix`] is splitmix64 over one 64-bit state. The fault,
//! adversary and control-plane injectors seed one per channel with
//! [`SplitMix::new`]`(seed ^ tag)`; the traffic generator spreads the
//! tag first with [`SplitMix::channel`]. The mappings onto ranges,
//! slices and distributions fix every committed golden, so they must
//! not change.

use crate::hash::{splitmix64, SPLITMIX_GAMMA};

/// A seeded splitmix64 stream with the draws the workspace needs.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// The stream whose state starts at `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The stream for channel `tag` of scenario `seed`, the tag spread
    /// by the splitmix gamma. Tag 0 is [`SplitMix::new`]`(seed)`.
    pub fn channel(seed: u64, tag: u64) -> Self {
        Self::new(seed ^ tag.wrapping_mul(SPLITMIX_GAMMA))
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// A uniform draw in `[0, 1)` (53 mantissa bits).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A draw in `[0, n)`: the next output modulo `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniform draw from `lo` up to `hi`: `lo + next_f64() · (hi − lo)`,
    /// for half-open and inclusive ranges alike.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "inverted range {lo}..{hi}");
        lo + self.next_f64() * (hi - lo)
    }

    /// Shuffles `items` in place (Fisher–Yates from the back).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// One element of `items`, or `None` (drawing nothing) when empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        (!items.is_empty()).then(|| &items[self.below(items.len() as u64) as usize])
    }

    /// `amount` distinct elements of `items` (all of them when `amount`
    /// exceeds the length), in draw order: a partial Fisher–Yates over
    /// the indices.
    pub fn choose_multiple<'a, T>(&mut self, items: &'a [T], amount: usize) -> Vec<&'a T> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        let take = amount.min(items.len());
        for i in 0..take {
            let j = i + self.below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx[..take].iter().map(|&i| &items[i]).collect()
    }

    /// A standard normal draw (Box–Muller; two uniforms per draw, so the
    /// stream position stays deterministic).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0, 1], safe for `ln`
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// An exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// A Poisson count with mean `lambda`.
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
        let mut a = SplitMix::channel(7, 1);
        let mut b = SplitMix::channel(7, 1);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_tags_diverge() {
        let mut a = SplitMix::channel(7, 1);
        let mut b = SplitMix::channel(7, 2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn poisson_mean_tracks_lambda() {
        for &lambda in &[0.5, 4.0, 20.0, 200.0] {
            let mut rng = SplitMix::channel(0xBEEF, 3);
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
        let mut rng = SplitMix::channel(0xABCD, 5);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exp(3.0)).sum();
        let mean = total / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_is_roughly_standard() {
        let mut rng = SplitMix::new(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
