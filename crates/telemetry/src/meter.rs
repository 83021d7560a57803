//! Server power metering and cap-compliance accounting.

use powermed_units::{Joules, Seconds, Watts};

/// How well a run respected its power cap, as reported by the meter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CapCompliance {
    /// Time spent above the cap.
    pub violation_time: Seconds,
    /// Total observed time.
    pub total_time: Seconds,
    /// Worst overshoot observed.
    pub worst_overshoot: Watts,
    /// Energy drawn above the cap (the "overdraft" the PDU would see).
    pub overshoot_energy: Joules,
}

impl CapCompliance {
    /// Fraction of time spent above the cap (0 when nothing observed).
    pub fn violation_fraction(&self) -> f64 {
        if self.total_time.value() <= 0.0 {
            0.0
        } else {
            self.violation_time / self.total_time
        }
    }
}

/// Accumulates power samples over a run: average/peak draw, total energy,
/// and compliance against a (possibly time-varying) cap.
///
/// ```
/// use powermed_telemetry::meter::PowerMeter;
/// use powermed_units::{Seconds, Watts};
///
/// let mut meter = PowerMeter::new();
/// meter.sample(Watts::new(90.0), Some(Watts::new(100.0)), Seconds::new(1.0));
/// meter.sample(Watts::new(110.0), Some(Watts::new(100.0)), Seconds::new(1.0));
/// assert_eq!(meter.average(), Some(Watts::new(100.0)));
/// assert_eq!(meter.compliance().violation_fraction(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerMeter {
    energy: Joules,
    time: Seconds,
    peak: Watts,
    compliance: CapCompliance,
    samples: usize,
}

impl PowerMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `power` sustained for `dt`, checked against `cap` if one
    /// was in force. Non-positive `dt` is ignored.
    pub fn sample(&mut self, power: Watts, cap: Option<Watts>, dt: Seconds) {
        if dt.value() <= 0.0 {
            return;
        }
        self.energy += power * dt;
        self.time += dt;
        self.peak = self.peak.max(power);
        self.samples += 1;
        self.compliance.total_time += dt;
        if let Some(cap) = cap {
            if power.violates_cap(cap) {
                let over = power - cap;
                self.compliance.violation_time += dt;
                self.compliance.worst_overshoot = self.compliance.worst_overshoot.max(over);
                self.compliance.overshoot_energy += over * dt;
            }
        }
    }

    /// Total energy observed.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// Total observation time.
    pub fn time(&self) -> Seconds {
        self.time
    }

    /// Number of samples taken.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Time-weighted average power, or `None` before any sample.
    pub fn average(&self) -> Option<Watts> {
        if self.time.value() <= 0.0 {
            None
        } else {
            Some(self.energy / self.time)
        }
    }

    /// Highest instantaneous draw observed.
    pub fn peak(&self) -> Watts {
        self.peak
    }

    /// Cap-compliance summary.
    pub fn compliance(&self) -> CapCompliance {
        self.compliance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_are_time_weighted() {
        let mut m = PowerMeter::new();
        m.sample(Watts::new(100.0), None, Seconds::new(3.0));
        m.sample(Watts::new(60.0), None, Seconds::new(1.0));
        assert_eq!(m.average(), Some(Watts::new(90.0)));
        assert_eq!(m.peak(), Watts::new(100.0));
        assert_eq!(m.energy(), Joules::new(360.0));
        assert_eq!(m.samples(), 2);
    }

    #[test]
    fn empty_meter_has_no_average() {
        let m = PowerMeter::new();
        assert_eq!(m.average(), None);
        assert_eq!(m.compliance().violation_fraction(), 0.0);
    }

    #[test]
    fn compliance_tracks_violations() {
        let mut m = PowerMeter::new();
        let cap = Some(Watts::new(80.0));
        m.sample(Watts::new(70.0), cap, Seconds::new(2.0));
        m.sample(Watts::new(95.0), cap, Seconds::new(1.0));
        m.sample(Watts::new(85.0), cap, Seconds::new(1.0));
        let c = m.compliance();
        assert_eq!(c.violation_time, Seconds::new(2.0));
        assert_eq!(c.worst_overshoot, Watts::new(15.0));
        assert_eq!(c.overshoot_energy, Joules::new(20.0));
        assert_eq!(c.violation_fraction(), 0.5);
    }

    #[test]
    fn zero_dt_ignored() {
        let mut m = PowerMeter::new();
        m.sample(Watts::new(100.0), Some(Watts::new(1.0)), Seconds::ZERO);
        assert_eq!(m.samples(), 0);
        assert_eq!(m.average(), None);
    }

    #[test]
    fn uncapped_samples_never_violate() {
        let mut m = PowerMeter::new();
        m.sample(Watts::new(1000.0), None, Seconds::new(1.0));
        assert_eq!(m.compliance().violation_time, Seconds::ZERO);
    }

    #[test]
    fn boundary_sample_at_cap_plus_tolerance_is_compliant() {
        use powermed_units::CAP_TOLERANCE;
        let cap = Watts::new(80.0);
        let mut m = PowerMeter::new();
        // Exactly cap + tolerance: the shared constant makes the meter
        // agree with the simulator's per-step flag — not a violation.
        m.sample(cap + CAP_TOLERANCE, Some(cap), Seconds::new(1.0));
        assert_eq!(m.compliance().violation_time, Seconds::ZERO);
        // One ulp-ish further is a violation.
        m.sample(Watts::new(80.0 + 2e-9), Some(cap), Seconds::new(1.0));
        assert_eq!(m.compliance().violation_time, Seconds::new(1.0));
    }
}
