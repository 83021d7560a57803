//! Durations and timestamps on the simulation clock.

use crate::Ratio;

quantity!(
    /// A duration (or timestamp) in seconds.
    ///
    /// The simulation engine uses `Seconds` both for the global clock and
    /// for durations such as duty-cycle ON/OFF periods.
    ///
    /// ```
    /// use powermed_units::Seconds;
    /// let step = Seconds::from_millis(100.0);
    /// assert_eq!(step.value(), 0.1);
    /// ```
    Seconds,
    "s"
);

impl Seconds {
    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self::new(ms / 1e3)
    }

    /// Returns the duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.value() * 1e3
    }
}

impl core::ops::Mul<Ratio> for Seconds {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Ratio) -> Seconds {
        Seconds::new(self.value() * rhs.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_convert_both_ways() {
        assert_eq!(Seconds::from_millis(250.0), Seconds::new(0.25));
        assert_eq!(Seconds::new(1.5).as_millis(), 1500.0);
    }

    #[test]
    fn scaled_by_ratio() {
        // 60% of a 10 s duty cycle is OFF.
        assert_eq!(Seconds::new(10.0) * Ratio::new(0.6), Seconds::new(6.0));
    }
}
