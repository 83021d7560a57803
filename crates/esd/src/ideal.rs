//! Degenerate storage devices: a lossless ideal ESD (upper-bound
//! ablations) and the absence of storage (baselines).

use powermed_units::{Joules, Ratio, Seconds, Watts};

use crate::storage::{EnergyStorage, StorageStats};

/// A lossless, rate-unlimited-ish energy store. Useful as the upper bound
/// in ablations of Requirement R4: how much of the Lead-Acid benefit is
/// lost to its efficiency and rate limits?
#[derive(Debug, Clone, PartialEq)]
pub struct IdealEsd {
    capacity: Joules,
    stored: Joules,
    power_limit: Watts,
    stats: StorageStats,
}

impl IdealEsd {
    /// Creates an ideal store with the given capacity and a symmetric
    /// bus-power limit.
    ///
    /// # Panics
    ///
    /// Panics if either argument is non-positive.
    pub fn new(capacity: Joules, power_limit: Watts) -> Self {
        assert!(capacity.value() > 0.0 && power_limit.value() > 0.0);
        Self {
            capacity,
            stored: Joules::ZERO,
            power_limit,
            stats: StorageStats::default(),
        }
    }

    /// Sets the initial state of charge.
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn with_soc(mut self, soc: f64) -> Self {
        let soc = Ratio::fraction(soc).expect("soc in [0,1]");
        self.stored = self.capacity * soc;
        self
    }
}

impl EnergyStorage for IdealEsd {
    fn capacity(&self) -> Joules {
        self.capacity
    }

    fn stored(&self) -> Joules {
        self.stored
    }

    fn round_trip_efficiency(&self) -> Ratio {
        Ratio::ONE
    }

    fn max_charge_power(&self) -> Watts {
        self.power_limit
    }

    fn max_discharge_power(&self) -> Watts {
        self.power_limit
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 {
            return Watts::ZERO;
        }
        let requested = power.max_zero().min(self.power_limit);
        let headroom_rate = (self.capacity - self.stored) / dt;
        let drawn = requested.min(headroom_rate);
        self.stored += drawn * dt;
        self.stats.charged += drawn * dt;
        self.stats.equivalent_cycles =
            (self.stats.charged + self.stats.discharged) / (self.capacity * 2.0);
        drawn
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 {
            return Watts::ZERO;
        }
        let requested = power.max_zero().min(self.power_limit);
        let available_rate = self.stored / dt;
        let delivered = requested.min(available_rate);
        self.stored -= delivered * dt;
        self.stats.discharged += delivered * dt;
        self.stats.equivalent_cycles =
            (self.stats.charged + self.stats.discharged) / (self.capacity * 2.0);
        delivered
    }

    fn tick(&mut self, dt: Seconds) {
        self.stats.age += dt;
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

/// The absence of an energy storage device. Every operation is a no-op;
/// policies treat a server with `NoEsd` exactly like one with a fully
/// depleted, uncharging battery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NoEsd;

impl EnergyStorage for NoEsd {
    fn capacity(&self) -> Joules {
        Joules::ZERO
    }

    fn stored(&self) -> Joules {
        Joules::ZERO
    }

    fn round_trip_efficiency(&self) -> Ratio {
        Ratio::ZERO
    }

    fn max_charge_power(&self) -> Watts {
        Watts::ZERO
    }

    fn max_discharge_power(&self) -> Watts {
        Watts::ZERO
    }

    fn charge(&mut self, _power: Watts, _dt: Seconds) -> Watts {
        Watts::ZERO
    }

    fn discharge(&mut self, _power: Watts, _dt: Seconds) -> Watts {
        Watts::ZERO
    }

    fn tick(&mut self, _dt: Seconds) {}

    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_is_lossless() {
        let mut e = IdealEsd::new(Joules::new(100.0), Watts::new(50.0));
        let drawn = e.charge(Watts::new(20.0), Seconds::new(2.0));
        assert_eq!(drawn, Watts::new(20.0));
        assert_eq!(e.stored(), Joules::new(40.0));
        let out = e.discharge(Watts::new(40.0), Seconds::new(1.0));
        assert_eq!(out, Watts::new(40.0));
        assert_eq!(e.stored(), Joules::ZERO);
    }

    #[test]
    fn ideal_clamps_at_capacity_and_store() {
        let mut e = IdealEsd::new(Joules::new(100.0), Watts::new(500.0));
        // Charging 500 W for 1 s can bank at most 100 J.
        let drawn = e.charge(Watts::new(500.0), Seconds::new(1.0));
        assert_eq!(drawn, Watts::new(100.0));
        assert_eq!(e.stored(), e.capacity());
        assert_eq!(e.charge(Watts::new(1.0), Seconds::new(1.0)), Watts::ZERO);
        // Discharging 500 W for 1 s can deliver at most 100 J.
        let out = e.discharge(Watts::new(500.0), Seconds::new(1.0));
        assert_eq!(out, Watts::new(100.0));
        assert!(!e.usable());
    }

    #[test]
    fn ideal_with_soc() {
        let e = IdealEsd::new(Joules::new(200.0), Watts::new(10.0)).with_soc(0.5);
        assert_eq!(e.stored(), Joules::new(100.0));
        assert_eq!(e.soc(), Ratio::new(0.5));
    }

    #[test]
    fn no_esd_is_inert() {
        let mut n = NoEsd;
        assert_eq!(n.charge(Watts::new(100.0), Seconds::new(10.0)), Watts::ZERO);
        assert_eq!(
            n.discharge(Watts::new(100.0), Seconds::new(10.0)),
            Watts::ZERO
        );
        assert_eq!(n.capacity(), Joules::ZERO);
        assert_eq!(n.soc(), Ratio::ZERO);
        assert!(!n.usable());
        n.tick(Seconds::new(5.0));
        assert_eq!(n.stats().age, Seconds::ZERO);
    }

    #[test]
    fn cycle_counting_on_ideal() {
        let mut e = IdealEsd::new(Joules::new(100.0), Watts::new(100.0));
        e.charge(Watts::new(100.0), Seconds::new(1.0));
        e.discharge(Watts::new(100.0), Seconds::new(1.0));
        assert!((e.stats().equivalent_cycles - 1.0).abs() < 1e-9);
    }
}
