//! The simulation clock.

use powermed_units::Seconds;

/// A monotonically advancing simulation clock.
///
/// ```
/// use powermed_sim::clock::SimClock;
/// use powermed_units::Seconds;
///
/// let mut clock = SimClock::new();
/// clock.advance(Seconds::from_millis(100.0));
/// assert_eq!(clock.now(), Seconds::new(0.1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimClock {
    now: Seconds,
    steps: u64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.now
    }

    /// Number of steps taken.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances the clock by `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite — a zero or backwards
    /// step is always a driver bug.
    pub fn advance(&mut self, dt: Seconds) {
        assert!(
            dt.value() > 0.0 && dt.is_finite(),
            "clock steps must be positive and finite, got {dt}"
        );
        self.now += dt;
        self.steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_counts() {
        let mut c = SimClock::new();
        assert_eq!(c.now(), Seconds::ZERO);
        c.advance(Seconds::new(0.1));
        c.advance(Seconds::new(0.4));
        assert_eq!(c.now(), Seconds::new(0.5));
        assert_eq!(c.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_step_panics() {
        SimClock::new().advance(Seconds::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn negative_step_panics() {
        SimClock::new().advance(Seconds::new(-1.0));
    }
}
