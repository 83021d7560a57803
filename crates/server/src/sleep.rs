//! Socket sleep states (package C-states).
//!
//! The paper's temporal-coordination schemes (R3b, R4) put whole sockets
//! into the PC6 deep-sleep state during OFF periods, which removes the
//! chip-maintenance power `P_cm` while keeping `P_idle` (the server itself
//! stays on). Wake-up latencies are in the hundreds of microseconds
//! (Schöne et al. \[47\]), so duty-cycling at second granularity costs
//! essentially nothing in transition overhead — but we model it anyway so
//! that pathological high-frequency cycling would be penalized.

use powermed_units::Seconds;

/// Transition-latency model for socket sleep states.
#[derive(Debug, Clone, PartialEq)]
pub struct SleepLatency {
    /// Time to enter PC6 once the last core halts.
    pub enter: Seconds,
    /// Time from wake signal until cores can retire instructions.
    pub exit: Seconds,
}

impl SleepLatency {
    /// Latencies measured on Sandy-Bridge-class Xeons: entering PC6 takes
    /// tens of microseconds, exiting on the order of 100 µs.
    pub fn xeon_pc6() -> Self {
        Self {
            enter: Seconds::from_micros(40.0),
            exit: Seconds::from_micros(120.0),
        }
    }

    /// Total time lost to one full sleep/wake round trip.
    pub fn round_trip(&self) -> Seconds {
        self.enter + self.exit
    }

    /// Fraction of useful time lost when duty-cycling with the given ON
    /// period: `round_trip / on_period`, clamped to 1.
    #[cfg(test)]
    pub fn cycling_overhead(&self, on_period: Seconds) -> f64 {
        if on_period.value() <= 0.0 {
            return 1.0;
        }
        (self.round_trip() / on_period).min(1.0)
    }
}

impl Default for SleepLatency {
    fn default() -> Self {
        Self::xeon_pc6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_scale_duty_cycling_is_cheap() {
        let lat = SleepLatency::xeon_pc6();
        // ON periods of 4 s (the paper's Fig. 5 scale): < 0.01% overhead.
        assert!(lat.cycling_overhead(Seconds::new(4.0)) < 1e-4);
    }

    #[test]
    fn microsecond_cycling_is_penalized() {
        let lat = SleepLatency::xeon_pc6();
        assert!(lat.cycling_overhead(Seconds::from_micros(200.0)) > 0.5);
        assert_eq!(lat.cycling_overhead(Seconds::ZERO), 1.0);
    }
}
