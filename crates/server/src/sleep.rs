//! Socket sleep states (package C-states).
//!
//! The paper's temporal-coordination schemes (R3b, R4) put whole sockets
//! into the PC6 deep-sleep state during OFF periods, which removes the
//! chip-maintenance power `P_cm` while keeping `P_idle` (the server itself
//! stays on). Wake-up latencies are in the hundreds of microseconds
//! (Schöne et al. \[47\]), so duty-cycling at second granularity costs
//! essentially nothing in transition overhead, and no schedule is charged
//! for it.

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
}

impl Default for SleepLatency {
    fn default() -> Self {
        Self::xeon_pc6()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The module's premise: one sleep/wake round trip per ON period of
    /// 4 s (the paper's Fig. 5 scale) loses under 0.01% of the time.
    #[test]
    fn second_scale_duty_cycling_is_cheap() {
        let lat = SleepLatency::xeon_pc6();
        assert!((lat.enter + lat.exit) / Seconds::new(4.0) < 1e-4);
    }
}
