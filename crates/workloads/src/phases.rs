//! Application phase behaviour (event E4 dynamics).
//!
//! Real applications shift between compute-heavy and memory-heavy phases
//! (X264's motion estimation vs entropy coding, kmeans' assignment vs
//! update steps). The paper's Accountant re-calibrates utility curves
//! when an app's power drifts from its allocation (event E4); this module
//! provides the drifting behaviour that triggers it.

use powermed_units::Seconds;

/// One phase: intensity multipliers applied to the profile's nominal
/// compute and memory cost per op, for a duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Multiplier on instructions per op (> 0).
    pub compute_scale: f64,
    /// Multiplier on bytes per op (>= 0).
    pub memory_scale: f64,
    /// How long the phase lasts.
    pub duration: Seconds,
}

impl Phase {
    /// The nominal phase: no change in intensity.
    pub fn nominal(duration: Seconds) -> Self {
        Self {
            compute_scale: 1.0,
            memory_scale: 1.0,
            duration,
        }
    }
}

/// A cyclic sequence of phases.
///
/// The track repeats: after the last phase the first begins again. A
/// track must contain at least one phase with positive duration.
///
/// ```
/// use powermed_units::Seconds;
/// use powermed_workloads::phases::{Phase, PhaseTrack};
///
/// let track = PhaseTrack::new(vec![
///     Phase { compute_scale: 1.0, memory_scale: 0.2, duration: Seconds::new(10.0) },
///     Phase { compute_scale: 0.5, memory_scale: 2.0, duration: Seconds::new(5.0) },
/// ]);
/// assert_eq!(track.phase_at(Seconds::new(12.0)).memory_scale, 2.0);
/// assert_eq!(track.phase_at(Seconds::new(16.0)).memory_scale, 0.2); // wrapped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseTrack {
    phases: Vec<Phase>,
    cycle: Seconds,
}

impl PhaseTrack {
    /// Creates a track from a non-empty phase list.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or its total duration is not positive.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "phase track needs at least one phase");
        let cycle: Seconds = phases.iter().map(|p| p.duration).sum();
        assert!(cycle.value() > 0.0, "phase cycle must have positive length");
        Self { phases, cycle }
    }

    /// The phases in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// The phase active at `elapsed` (wrapping around the cycle).
    pub fn phase_at(&self, elapsed: Seconds) -> Phase {
        let mut t = elapsed.value().rem_euclid(self.cycle.value());
        for phase in &self.phases {
            if t < phase.duration.value() {
                return *phase;
            }
            t -= phase.duration.value();
        }
        // Floating-point edge: land on the final phase.
        *self.phases.last().expect("non-empty by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn track() -> PhaseTrack {
        PhaseTrack::new(vec![
            Phase {
                compute_scale: 1.0,
                memory_scale: 0.5,
                duration: Seconds::new(10.0),
            },
            Phase {
                compute_scale: 2.0,
                memory_scale: 1.5,
                duration: Seconds::new(5.0),
            },
        ])
    }

    #[test]
    fn phase_lookup_within_cycle() {
        let t = track();
        let [first, second] = [t.phases()[0], t.phases()[1]];
        assert_eq!(t.phase_at(Seconds::new(0.0)), first);
        assert_eq!(t.phase_at(Seconds::new(9.99)), first);
        assert_eq!(t.phase_at(Seconds::new(10.0)), second);
        assert_eq!(t.phase_at(Seconds::new(14.9)), second);
    }

    #[test]
    fn phase_lookup_wraps() {
        let t = track();
        assert_eq!(t.phase_at(Seconds::new(15.0)), t.phases()[0]);
        assert_eq!(t.phase_at(Seconds::new(25.0)), t.phases()[1]);
        assert_eq!(t.phase_at(Seconds::new(30.0)), t.phases()[0]);
    }

    #[test]
    fn negative_time_wraps_like_modulo() {
        let t = track();
        // rem_euclid(-1, 15) = 14 -> second phase.
        assert_eq!(t.phase_at(Seconds::new(-1.0)), t.phases()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_track_panics() {
        let _ = PhaseTrack::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_length_cycle_panics() {
        let _ = PhaseTrack::new(vec![Phase::nominal(Seconds::ZERO)]);
    }

    #[test]
    fn nominal_phase_is_identity() {
        let p = Phase::nominal(Seconds::new(1.0));
        assert_eq!(p.compute_scale, 1.0);
        assert_eq!(p.memory_scale, 1.0);
    }
}
