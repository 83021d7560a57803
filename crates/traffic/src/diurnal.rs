//! The deterministic rate envelope: a diurnal curve plus seeded
//! flash-crowd bursts.
//!
//! The diurnal curve is a mean-one multiplier built from the first two
//! harmonics of the day, so its integral over one full period is
//! *exactly* the period — offered load averages to the configured level
//! no matter how the amplitudes are chosen (the diurnal-integral test
//! pins this). Flash crowds are impulses with exponential decay whose
//! onset times come from a dedicated seeded stream; they only ever add
//! load, which is what makes them useful for provoking SLO misses.

use powermed_units::rng::SplitMix;
use powermed_units::Seconds;

/// Mean-one diurnal rate multiplier with a midday peak.
///
/// `m(t) = 1 + a1 * sin(2π t/T - π/2) + a2 * sin(4π t/T)`
///
/// The phase offset puts the trough at `t = 0` (night) and the peak
/// near midday; the second harmonic skews the peak toward the
/// afternoon, as real request traces do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    period_s: f64,
    a1: f64,
    a2: f64,
}

impl DiurnalCurve {
    /// Creates a curve with the given period and harmonic amplitudes.
    ///
    /// # Panics
    ///
    /// Panics unless `|a1| + |a2| < 1` (the multiplier must stay
    /// positive) or if the period is non-positive.
    pub fn new(period: Seconds, a1: f64, a2: f64) -> Self {
        assert!(period.value() > 0.0, "period must be positive");
        assert!(
            a1.abs() + a2.abs() < 1.0,
            "harmonic amplitudes must keep the multiplier positive"
        );
        Self {
            period_s: period.value(),
            a1,
            a2,
        }
    }

    /// The rate multiplier at time `t` (periodic, always positive).
    pub fn multiplier(&self, t: Seconds) -> f64 {
        let x = std::f64::consts::TAU * t.value() / self.period_s;
        1.0 + self.a1 * (x - std::f64::consts::FRAC_PI_2).sin() + self.a2 * (2.0 * x).sin()
    }

    /// The configured period.
    pub fn period(&self) -> Seconds {
        Seconds::new(self.period_s)
    }
}

/// Seeded flash-crowd bursts: sudden rate spikes with exponential decay.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashCrowds {
    /// Sorted onset times within the period.
    onsets: Vec<f64>,
    /// Peak rate multiplier at an onset (1.0 = no burst).
    magnitude: f64,
    /// Exponential decay constant of each burst.
    decay_s: f64,
}

impl FlashCrowds {
    /// Draws `count` burst onsets uniformly over `period` from the
    /// given stream.
    pub fn new(
        rng: &mut SplitMix,
        count: u32,
        period: Seconds,
        magnitude: f64,
        decay: Seconds,
    ) -> Self {
        assert!(magnitude >= 1.0, "burst magnitude must be at least 1");
        assert!(decay.value() > 0.0, "burst decay must be positive");
        let mut onsets: Vec<f64> = (0..count)
            .map(|_| rng.next_f64() * period.value())
            .collect();
        onsets.sort_by(|a, b| a.partial_cmp(b).expect("onsets are finite"));
        Self {
            onsets,
            magnitude,
            decay_s: decay.value(),
        }
    }

    /// The burst multiplier at time `t` (1.0 when no burst is active).
    pub fn multiplier(&self, t: Seconds) -> f64 {
        let t = t.value();
        let mut m = 1.0;
        for &onset in &self.onsets {
            if onset > t {
                break;
            }
            m += (self.magnitude - 1.0) * (-(t - onset) / self.decay_s).exp();
        }
        m
    }

    /// Burst onset times (sorted), for tests and scenario reporting.
    pub fn onsets(&self) -> &[f64] {
        &self.onsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite check: the diurnal curve integrates to its period
    /// (mean multiplier exactly one) at representative amplitudes.
    #[test]
    fn diurnal_integral_is_mean_one() {
        for &(a1, a2) in &[(0.0, 0.0), (0.45, 0.0), (0.35, 0.2), (0.6, 0.25)] {
            let period = Seconds::new(86.4);
            let curve = DiurnalCurve::new(period, a1, a2);
            let steps = 100_000;
            let dt = period.value() / steps as f64;
            let integral: f64 = (0..steps)
                .map(|i| curve.multiplier(Seconds::new((i as f64 + 0.5) * dt)) * dt)
                .sum();
            let err = (integral / period.value() - 1.0).abs();
            assert!(err < 1e-6, "amplitudes ({a1}, {a2}): mean error {err}");
        }
    }

    #[test]
    fn diurnal_stays_positive_and_peaks_midday() {
        let period = Seconds::new(86.4);
        let curve = DiurnalCurve::new(period, 0.6, 0.25);
        let mut min = f64::MAX;
        let mut argmax = 0.0;
        let mut max = f64::MIN;
        for i in 0..10_000 {
            let t = period.value() * i as f64 / 10_000.0;
            let m = curve.multiplier(Seconds::new(t));
            min = min.min(m);
            if m > max {
                max = m;
                argmax = t / period.value();
            }
        }
        assert!(min > 0.0, "multiplier dipped to {min}");
        assert!(
            (0.4..0.8).contains(&argmax),
            "peak at {argmax} of the period, expected mid-day"
        );
    }

    #[test]
    fn flash_crowds_only_add_load_and_decay() {
        let mut rng = SplitMix::channel(42, 0xF1A5);
        let period = Seconds::new(86.4);
        let bursts = FlashCrowds::new(&mut rng, 3, period, 6.0, Seconds::new(2.0));
        assert_eq!(bursts.onsets().len(), 3);
        let onset = bursts.onsets()[0];
        assert!(
            bursts.multiplier(Seconds::new(onset - 1e-3)) < bursts.multiplier(Seconds::new(onset))
        );
        let at_peak = bursts.multiplier(Seconds::new(onset));
        let later = bursts.multiplier(Seconds::new(onset + 1.0));
        assert!(at_peak > later && later >= 1.0);
        for i in 0..1000 {
            let t = Seconds::new(period.value() * i as f64 / 1000.0);
            assert!(bursts.multiplier(t) >= 1.0);
        }
    }
}
