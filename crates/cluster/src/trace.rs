//! Cluster power-demand traces and peak-shave cap schedules.
//!
//! The paper replays caps derived from a published connection-intensive
//! service trace (Chen et al., NSDI'08). That trace is not available
//! here, so we synthesize a diurnal demand curve with the same character
//! — a pronounced peak, a deep overnight trough, and short-term noise —
//! and derive the cap series by clipping it at `(1 − shave) · peak`
//! (Fig. 12a).

use powermed_units::rng::SplitMix;
use powermed_units::{Ratio, Seconds, Watts};

/// Peak demand attributed to one loaded shared server, including supply
/// overheads (PSU losses, fans) on top of the ~105 W IT draw.
const SERVER_PEAK_W: f64 = 115.0;

/// A time series of cluster-level power values (demand or caps).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPowerTrace {
    samples: Vec<(Seconds, Watts)>,
}

impl ClusterPowerTrace {
    /// Builds a trace from explicit samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or timestamps are not strictly
    /// increasing.
    pub fn from_samples(samples: Vec<(Seconds, Watts)>) -> Self {
        assert!(!samples.is_empty(), "trace needs at least one sample");
        for w in samples.windows(2) {
            assert!(w[0].0 < w[1].0, "timestamps must be increasing");
        }
        Self { samples }
    }

    /// Synthesizes a diurnal demand trace for a cluster of `servers`
    /// servers over `duration` (one compressed "day"), deterministic in
    /// `seed`.
    ///
    /// The shape mirrors published service traces: a mid-day peak at
    /// full cluster draw, an overnight trough near 75% of it, plus ±2%
    /// noise. (The trough stays above the fleet's idle+uncore floor —
    /// a cap equal to off-peak demand must still be enforceable.)
    pub fn synthetic_diurnal(servers: usize, duration: Seconds, seed: u64) -> Self {
        assert!(servers > 0 && duration.value() > 0.0);
        let peak = SERVER_PEAK_W * servers as f64;
        let mut rng = SplitMix::new(seed);
        let n = 96; // 15-minute granularity over the compressed day
        let mut samples = Vec::with_capacity(n);
        for i in 0..n {
            let t = duration * (i as f64 / n as f64);
            let phase = i as f64 / n as f64 * std::f64::consts::TAU;
            // Peak mid-day (phase π), trough at the ends.
            let diurnal = 0.875 - 0.125 * phase.cos();
            let noise = 1.0 + rng.uniform(-0.02, 0.02);
            samples.push((t, Watts::new(peak * diurnal * noise)));
        }
        Self { samples }
    }

    /// The peak value of the trace.
    pub fn peak(&self) -> Watts {
        self.samples
            .iter()
            .map(|(_, w)| *w)
            .fold(Watts::ZERO, Watts::max)
    }

    /// The cap schedule that shaves `shave` of this trace's peak: the
    /// demand clipped at `(1 − shave) · peak` (Fig. 12a).
    ///
    /// # Panics
    ///
    /// Panics if `shave` is not within `[0, 1)`.
    pub fn peak_shaved(&self, shave: Ratio) -> Self {
        assert!(
            (0.0..1.0).contains(&shave.value()),
            "shave fraction in [0, 1)"
        );
        let ceiling = self.peak() * shave.complement();
        let samples = self
            .samples
            .iter()
            .map(|(t, w)| (*t, w.min(ceiling)))
            .collect();
        Self { samples }
    }

    /// Raises every sample to at least `floor` — the workable minimum of
    /// the fleet (caps below aggregate `P_idle + P_cm` cannot be
    /// enforced by power management at all; the paper's replayed caps
    /// likewise stay within the servers' controllable range).
    pub fn clamped_below(&self, floor: Watts) -> Self {
        Self {
            samples: self
                .samples
                .iter()
                .map(|(t, w)| (*t, w.max(floor)))
                .collect(),
        }
    }

    /// The value in force at time `t` (step function; clamps to the
    /// first/last sample outside the range).
    pub fn at(&self, t: Seconds) -> Watts {
        let mut current = self.samples[0].1;
        for (ts, w) in &self.samples {
            if *ts <= t {
                current = *w;
            } else {
                break;
            }
        }
        current
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(Seconds, Watts)] {
        &self.samples
    }

    /// Total duration covered (time of the last sample).
    pub fn duration(&self) -> Seconds {
        self.samples.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> ClusterPowerTrace {
        ClusterPowerTrace::synthetic_diurnal(10, Seconds::new(960.0), 1)
    }

    #[test]
    fn diurnal_shape() {
        let t = trace();
        assert_eq!(t.samples().len(), 96);
        let peak = t.peak().value();
        assert!((1050.0..1220.0).contains(&peak), "peak {peak}");
        // Trough near 75% of peak.
        let trough = t
            .samples()
            .iter()
            .map(|(_, w)| w.value())
            .fold(f64::INFINITY, f64::min);
        assert!(
            (0.70..0.82).contains(&(trough / peak)),
            "trough/peak {}",
            trough / peak
        );
    }

    #[test]
    fn shave_clips_at_ceiling() {
        let t = trace();
        let shaved = t.peak_shaved(Ratio::new(0.15));
        let ceiling = t.peak().value() * 0.85;
        for (_, w) in shaved.samples() {
            assert!(w.value() <= ceiling + 1e-9);
        }
        // Off-peak samples are untouched.
        let untouched = t
            .samples()
            .iter()
            .zip(shaved.samples())
            .filter(|((_, a), (_, b))| a == b)
            .count();
        assert!(untouched > 20, "only the peak is clipped");
    }

    #[test]
    fn step_lookup() {
        let t = ClusterPowerTrace::from_samples(vec![
            (Seconds::new(0.0), Watts::new(100.0)),
            (Seconds::new(10.0), Watts::new(80.0)),
        ]);
        assert_eq!(t.at(Seconds::new(-5.0)), Watts::new(100.0));
        assert_eq!(t.at(Seconds::new(5.0)), Watts::new(100.0));
        assert_eq!(t.at(Seconds::new(10.0)), Watts::new(80.0));
        assert_eq!(t.at(Seconds::new(50.0)), Watts::new(80.0));
        assert_eq!(t.duration(), Seconds::new(10.0));
    }

    #[test]
    fn clamp_raises_low_samples() {
        let t = trace().peak_shaved(Ratio::new(0.45));
        let clamped = t.clamped_below(Watts::new(780.0));
        assert!(clamped
            .samples()
            .iter()
            .all(|(_, w)| w.value() >= 780.0 - 1e-9));
        // Samples above the floor are untouched.
        for ((_, a), (_, b)) in t.samples().iter().zip(clamped.samples()) {
            if a.value() >= 780.0 {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ClusterPowerTrace::synthetic_diurnal(10, Seconds::new(100.0), 5);
        let b = ClusterPowerTrace::synthetic_diurnal(10, Seconds::new(100.0), 5);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "increasing")]
    fn unsorted_samples_rejected() {
        let _ = ClusterPowerTrace::from_samples(vec![
            (Seconds::new(5.0), Watts::new(1.0)),
            (Seconds::new(1.0), Watts::new(1.0)),
        ]);
    }

    #[test]
    fn zero_duration_single_sample_trace() {
        // One sample at t = 0 is a degenerate but legal trace: duration
        // is zero, lookups return that sample everywhere, and the
        // transforms keep it a single sample.
        let t = ClusterPowerTrace::from_samples(vec![(Seconds::ZERO, Watts::new(500.0))]);
        assert_eq!(t.duration(), Seconds::ZERO);
        assert_eq!(t.at(Seconds::ZERO), Watts::new(500.0));
        assert_eq!(t.at(Seconds::new(1e6)), Watts::new(500.0));
        assert_eq!(t.peak(), Watts::new(500.0));
        let shaved = t.peak_shaved(Ratio::new(0.30));
        assert_eq!(shaved.samples().len(), 1);
        assert_eq!(shaved.at(Seconds::ZERO), Watts::new(350.0));
        assert_eq!(
            shaved.clamped_below(Watts::new(400.0)).at(Seconds::ZERO),
            Watts::new(400.0)
        );
    }

    #[test]
    fn shave_ratio_zero_is_identity() {
        let t = trace();
        let shaved = t.peak_shaved(Ratio::new(0.0));
        // Clipping at 100% of the peak changes nothing.
        assert_eq!(t, shaved);
    }

    #[test]
    #[should_panic(expected = "shave fraction in [0, 1)")]
    fn shave_ratio_one_is_rejected() {
        // Shaving the whole peak would leave a 0 W cap: unenforceable,
        // and excluded by the documented [0, 1) domain.
        let _ = trace().peak_shaved(Ratio::new(1.0));
    }

    #[test]
    fn clamp_interacts_with_the_per_server_floor() {
        // 10 servers × 50 W idle floor: a stringent shave can dip the
        // cap below what power management can enforce; the clamp holds
        // the schedule at the fleet floor while leaving the rest alone.
        let servers = 10usize;
        let fleet_floor = Watts::new(50.0 * servers as f64);
        let t = ClusterPowerTrace::from_samples(vec![
            (Seconds::new(0.0), Watts::new(450.0)),  // below the floor
            (Seconds::new(10.0), Watts::new(500.0)), // exactly the floor
            (Seconds::new(20.0), Watts::new(900.0)), // above the floor
        ]);
        let clamped = t.clamped_below(fleet_floor);
        assert_eq!(clamped.at(Seconds::new(0.0)), fleet_floor);
        assert_eq!(clamped.at(Seconds::new(10.0)), fleet_floor);
        assert_eq!(clamped.at(Seconds::new(20.0)), Watts::new(900.0));
        // An equal split of the clamped schedule never assigns a server
        // less than its own 50 W floor.
        for (_, w) in clamped.samples() {
            assert!(*w / servers as f64 >= Watts::new(50.0));
        }
    }
}
