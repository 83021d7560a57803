//! Per-core dynamic voltage and frequency scaling (DVFS).
//!
//! The platform exposes a discrete frequency ladder (the paper's server
//! supports 1.2–2.0 GHz in 9 steps of 100 MHz). Policies address frequency
//! by [`DvfsState`] (an index into the ladder), which keeps the set of
//! settable frequencies closed under the policies' search.

use powermed_units::Gigahertz;

use crate::error::ServerError;

/// An index into a [`FrequencyLadder`]: `DvfsState(0)` is the slowest
/// state, `DvfsState(steps - 1)` the fastest.
///
/// ```
/// use powermed_server::dvfs::{DvfsState, FrequencyLadder};
/// use powermed_units::Gigahertz;
///
/// let ladder = FrequencyLadder::paper_default();
/// assert_eq!(ladder.frequency(DvfsState::new(0)), Gigahertz::new(1.2));
/// assert_eq!(ladder.frequency(ladder.top_state()), Gigahertz::new(2.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DvfsState(usize);

impl DvfsState {
    /// Creates a DVFS state with the given ladder index.
    pub const fn new(index: usize) -> Self {
        Self(index)
    }

    /// The ladder index of this state.
    pub const fn index(self) -> usize {
        self.0
    }

    /// The next-faster state within a ladder of `steps` states, if any.
    #[cfg(test)]
    pub fn step_up(self, steps: usize) -> Option<Self> {
        if self.0 + 1 < steps {
            Some(Self(self.0 + 1))
        } else {
            None
        }
    }
}

impl core::fmt::Display for DvfsState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The discrete set of frequencies every core can be set to.
///
/// Frequencies are evenly spaced between `min` and `max` inclusive.
#[derive(Debug, Clone, PartialEq)]
pub struct FrequencyLadder {
    min: Gigahertz,
    max: Gigahertz,
    steps: usize,
}

impl FrequencyLadder {
    /// Creates a ladder of `steps` evenly spaced frequencies in
    /// `[min, max]`.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::FrequencyOutOfRange`] when `min > max`, the
    /// bounds are non-positive, or `steps < 2`.
    pub fn new(min: Gigahertz, max: Gigahertz, steps: usize) -> Result<Self, ServerError> {
        if min.value() <= 0.0 || max.value() <= 0.0 || min > max || steps < 2 {
            return Err(ServerError::FrequencyOutOfRange {
                requested_ghz: min.value(),
                min_ghz: min.value(),
                max_ghz: max.value(),
            });
        }
        Ok(Self { min, max, steps })
    }

    /// The paper's ladder: 1.2–2.0 GHz in 9 steps (100 MHz apart).
    pub fn paper_default() -> Self {
        Self::new(Gigahertz::new(1.2), Gigahertz::new(2.0), 9).expect("static ladder is valid")
    }

    /// Number of states on the ladder.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Slowest settable frequency (`f_min`).
    pub fn min_frequency(&self) -> Gigahertz {
        self.min
    }

    /// Fastest settable frequency (`f_max`).
    pub fn max_frequency(&self) -> Gigahertz {
        self.max
    }

    /// The slowest state.
    pub fn bottom_state(&self) -> DvfsState {
        DvfsState::new(0)
    }

    /// The fastest state.
    pub fn top_state(&self) -> DvfsState {
        DvfsState::new(self.steps - 1)
    }

    /// The frequency of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is beyond the ladder (a programming error —
    /// states should only be produced by this ladder).
    pub fn frequency(&self, state: DvfsState) -> Gigahertz {
        assert!(
            state.index() < self.steps,
            "DVFS state {state} beyond {}-step ladder",
            self.steps
        );
        let span = self.max - self.min;
        self.min + span * (state.index() as f64 / (self.steps - 1) as f64)
    }

    /// Iterates over all states from slowest to fastest.
    pub fn states(&self) -> impl DoubleEndedIterator<Item = DvfsState> + ExactSizeIterator {
        (0..self.steps).map(DvfsState::new)
    }
}

impl Default for FrequencyLadder {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ladder_has_100mhz_steps() {
        let ladder = FrequencyLadder::paper_default();
        assert_eq!(ladder.steps(), 9);
        let freqs: Vec<f64> = ladder
            .states()
            .map(|s| ladder.frequency(s).value())
            .collect();
        for (i, f) in freqs.iter().enumerate() {
            let expected = 1.2 + 0.1 * i as f64;
            assert!((f - expected).abs() < 1e-9, "state {i}: {f} != {expected}");
        }
    }

    #[test]
    fn invalid_ladders_rejected() {
        assert!(FrequencyLadder::new(Gigahertz::new(2.0), Gigahertz::new(1.2), 9).is_err());
        assert!(FrequencyLadder::new(Gigahertz::new(0.0), Gigahertz::new(1.2), 9).is_err());
        assert!(FrequencyLadder::new(Gigahertz::new(1.2), Gigahertz::new(2.0), 1).is_err());
    }

    #[test]
    fn step_navigation() {
        let ladder = FrequencyLadder::paper_default();
        assert_eq!(
            ladder.bottom_state().step_up(ladder.steps()),
            Some(DvfsState::new(1))
        );
        assert_eq!(ladder.top_state().step_up(ladder.steps()), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(DvfsState::new(3).to_string(), "P3");
    }
}
