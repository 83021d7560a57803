//! A Lead-Acid UPS battery model.
//!
//! Lead-Acid is what the paper's server carries (Sec. IV), and its
//! characteristics shape the evaluation: a ~75% round-trip efficiency is
//! what turns Eq. 5 into the observed 60–40 OFF-ON duty cycle at the
//! 80 W cap, and its cycle/shelf-life economics justify using it only
//! under stringent caps (Sec. IV-D).
//!
//! Model features:
//!
//! * conversion losses split evenly (√η each way) between charge and
//!   discharge;
//! * a Peukert-style derating: discharging near the rated power wastes
//!   additional store;
//! * self-discharge (shelf loss) over time;
//! * throughput-based equivalent-cycle counting and age tracking for
//!   lifetime arguments.

use powermed_units::{Joules, Ratio, Seconds, Watts};

use crate::storage::{EnergyStorage, StorageStats};

/// A Lead-Acid battery attached to the server's power bus.
#[derive(Debug, Clone, PartialEq)]
pub struct LeadAcidBattery {
    capacity: Joules,
    stored: Joules,
    round_trip: Ratio,
    max_charge: Watts,
    max_discharge: Watts,
    /// Peukert-style extra-loss coefficient at rated discharge power.
    peukert_loss: f64,
    /// Fraction of capacity lost to self-discharge per month.
    self_discharge_per_month: f64,
    stats: StorageStats,
}

const SECONDS_PER_MONTH: f64 = 30.0 * 24.0 * 3600.0;

impl LeadAcidBattery {
    /// Creates a battery with explicit parameters, initially empty.
    ///
    /// # Panics
    ///
    /// Panics if capacity or power limits are non-positive, or `round_trip`
    /// is outside `(0, 1]`.
    pub fn new(
        capacity: Joules,
        round_trip: Ratio,
        max_charge: Watts,
        max_discharge: Watts,
    ) -> Self {
        assert!(capacity.value() > 0.0, "capacity must be positive");
        assert!(
            round_trip.value() > 0.0 && round_trip.value() <= 1.0,
            "round-trip efficiency in (0, 1]"
        );
        assert!(max_charge.value() > 0.0 && max_discharge.value() > 0.0);
        Self {
            capacity,
            stored: Joules::ZERO,
            round_trip,
            max_charge,
            max_discharge,
            peukert_loss: 0.10,
            self_discharge_per_month: 0.05,
            stats: StorageStats::default(),
        }
    }

    /// The paper's server UPS: a small Lead-Acid unit
    /// (50 Wh usable, η = 0.75, 50 W charge / 100 W discharge).
    pub fn server_ups() -> Self {
        Self::new(
            Joules::new(50.0 * 3600.0),
            Ratio::new(0.75),
            Watts::new(50.0),
            Watts::new(100.0),
        )
    }

    /// Sets the initial state of charge (fraction of capacity).
    ///
    /// # Panics
    ///
    /// Panics if `soc` is outside `[0, 1]`.
    pub fn with_soc(mut self, soc: f64) -> Self {
        let soc = Ratio::fraction(soc).expect("soc in [0,1]");
        self.stored = self.capacity * soc;
        self
    }

    /// Overrides the Peukert extra-loss coefficient (0 disables).
    #[cfg(test)]
    pub fn with_peukert_loss(mut self, k: f64) -> Self {
        assert!((0.0..1.0).contains(&k));
        self.peukert_loss = k;
        self
    }

    fn eta_half(&self) -> f64 {
        self.round_trip.value().sqrt()
    }
}

impl EnergyStorage for LeadAcidBattery {
    fn capacity(&self) -> Joules {
        self.capacity
    }

    fn stored(&self) -> Joules {
        self.stored
    }

    fn round_trip_efficiency(&self) -> Ratio {
        self.round_trip
    }

    fn max_charge_power(&self) -> Watts {
        self.max_charge
    }

    fn max_discharge_power(&self) -> Watts {
        self.max_discharge
    }

    fn charge(&mut self, power: Watts, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 {
            return Watts::ZERO;
        }
        let requested = power.max_zero().min(self.max_charge);
        if requested.is_zero() {
            return Watts::ZERO;
        }
        // Bus energy drawn, store energy gained after charge losses.
        let headroom = self.capacity - self.stored;
        let eta_c = self.eta_half();
        // Cap bus draw so the store does not overflow.
        let max_bus = headroom / Seconds::new(dt.value() * eta_c);
        let drawn = requested.min(max_bus);
        let gained = drawn * dt * Ratio::new(eta_c);
        self.stored = (self.stored + gained).min(self.capacity);
        self.stats.charged += drawn * dt;
        self.update_cycles();
        drawn
    }

    fn discharge(&mut self, power: Watts, dt: Seconds) -> Watts {
        if dt.value() <= 0.0 {
            return Watts::ZERO;
        }
        let requested = power.max_zero().min(self.max_discharge);
        if requested.is_zero() || self.stored.value() <= 0.0 {
            return Watts::ZERO;
        }
        let eta_d = self.eta_half();
        // Peukert-style derating: delivering near rated power costs more
        // store per bus joule.
        let rate_frac = requested / self.max_discharge;
        let derate = 1.0 + self.peukert_loss * rate_frac * rate_frac;
        // Store drain per second for `requested` of bus power:
        let drain_rate = Watts::new(requested.value() / eta_d * derate);
        let full_drain = drain_rate * dt;
        let delivered = if full_drain <= self.stored {
            self.stored -= full_drain;
            requested
        } else {
            // Store runs dry mid-step: deliver the pro-rated power.
            let frac = self.stored / full_drain;
            self.stored = Joules::ZERO;
            requested * frac
        };
        self.stats.discharged += delivered * dt;
        self.update_cycles();
        delivered
    }

    fn tick(&mut self, dt: Seconds) {
        self.stats.age += dt;
        let loss_frac = self.self_discharge_per_month * dt.value() / SECONDS_PER_MONTH;
        self.stored = (self.stored - self.capacity * loss_frac).max_zero();
    }

    fn stats(&self) -> StorageStats {
        self.stats
    }
}

impl LeadAcidBattery {
    fn update_cycles(&mut self) {
        let throughput = self.stats.charged + self.stats.discharged;
        self.stats.equivalent_cycles = throughput / (self.capacity * 2.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> LeadAcidBattery {
        LeadAcidBattery::new(
            Joules::new(1000.0),
            Ratio::new(0.75),
            Watts::new(50.0),
            Watts::new(100.0),
        )
    }

    #[test]
    fn charge_respects_rate_and_capacity() {
        let mut b = small();
        let drawn = b.charge(Watts::new(500.0), Seconds::new(1.0));
        assert_eq!(drawn, Watts::new(50.0), "clamped to max charge power");
        // Fill it completely: at 50 W bus and sqrt(0.75) efficiency,
        // store gains ~43.3 J/s; 1000 J needs ~23.1 s.
        for _ in 0..300 {
            b.charge(Watts::new(50.0), Seconds::new(0.1));
        }
        assert!(b.stored() <= b.capacity());
        assert!(b.soc().value() > 0.99);
        assert_eq!(
            b.charge(Watts::new(50.0), Seconds::new(1.0)),
            Watts::ZERO,
            "full battery refuses charge"
        );
    }

    #[test]
    fn discharge_respects_store() {
        let mut b = small().with_soc(1.0);
        let got = b.discharge(Watts::new(40.0), Seconds::new(1.0));
        assert_eq!(got, Watts::new(40.0));
        assert!(
            b.stored() < Joules::new(1000.0) - Joules::new(40.0),
            "losses drain extra"
        );
        // Drain it dry.
        let mut total = Joules::ZERO;
        for _ in 0..1000 {
            let p = b.discharge(Watts::new(100.0), Seconds::new(0.1));
            total += p * Seconds::new(0.1);
        }
        assert!(b.stored().value() < 1e-9);
        // Round trip: delivered energy below store * sqrt(eta).
        assert!(total < Joules::new(1000.0) * Ratio::new(0.9));
        assert!(!b.usable());
    }

    #[test]
    fn round_trip_efficiency_matches_eta() {
        let mut b = small().with_peukert_loss(0.0);
        // Push 1000 J of bus energy in (within capacity after losses).
        let mut in_e = Joules::ZERO;
        for _ in 0..200 {
            let p = b.charge(Watts::new(50.0), Seconds::new(0.1));
            in_e += p * Seconds::new(0.1);
        }
        // Pull everything back out.
        let mut out_e = Joules::ZERO;
        for _ in 0..2000 {
            let p = b.discharge(Watts::new(50.0), Seconds::new(0.1));
            out_e += p * Seconds::new(0.1);
        }
        let eta = out_e / in_e;
        assert!((eta - 0.75).abs() < 0.02, "measured round trip {eta}");
    }

    #[test]
    fn peukert_derating_wastes_store_at_high_power() {
        let mut gentle = small().with_soc(1.0);
        let mut harsh = small().with_soc(1.0);
        // Same bus energy out: 100 J.
        for _ in 0..100 {
            gentle.discharge(Watts::new(10.0), Seconds::new(0.1));
        }
        for _ in 0..10 {
            harsh.discharge(Watts::new(100.0), Seconds::new(0.1));
        }
        assert!(
            harsh.stored() < gentle.stored(),
            "rated-power discharge drains more store for the same delivery"
        );
    }

    #[test]
    fn self_discharge_over_a_month() {
        let mut b = small().with_soc(1.0);
        b.tick(Seconds::new(SECONDS_PER_MONTH));
        let soc = b.soc().value();
        assert!((soc - 0.95).abs() < 1e-6, "soc after a month was {soc}");
        assert_eq!(b.stats().age, Seconds::new(SECONDS_PER_MONTH));
    }

    #[test]
    fn cycle_counting() {
        let mut b = small().with_peukert_loss(0.0);
        for _ in 0..400 {
            b.charge(Watts::new(50.0), Seconds::new(0.1));
        }
        for _ in 0..2000 {
            b.discharge(Watts::new(50.0), Seconds::new(0.1));
        }
        let c = b.stats().equivalent_cycles;
        assert!(c > 0.5 && c < 2.0, "equivalent cycles {c}");
    }

    #[test]
    fn negative_and_zero_requests_are_noops() {
        let mut b = small().with_soc(0.5);
        assert_eq!(b.charge(Watts::new(-5.0), Seconds::new(1.0)), Watts::ZERO);
        assert_eq!(
            b.discharge(Watts::new(-5.0), Seconds::new(1.0)),
            Watts::ZERO
        );
        assert_eq!(b.charge(Watts::new(5.0), Seconds::ZERO), Watts::ZERO);
        assert_eq!(b.discharge(Watts::new(5.0), Seconds::ZERO), Watts::ZERO);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = LeadAcidBattery::new(
            Joules::ZERO,
            Ratio::new(0.75),
            Watts::new(1.0),
            Watts::new(1.0),
        );
    }

    proptest! {
        /// Energy conservation: over any random charge/discharge
        /// trajectory, delivered ≤ absorbed (empty initial store) and the
        /// store never exceeds capacity or goes negative.
        #[test]
        fn prop_energy_conservation(ops in proptest::collection::vec((0u8..2, 0.0f64..120.0, 0.01f64..2.0), 1..60)) {
            let mut b = small();
            let mut absorbed = Joules::ZERO;
            let mut delivered = Joules::ZERO;
            for (kind, power, dt) in ops {
                let p = Watts::new(power);
                let dt = Seconds::new(dt);
                match kind {
                    0 => absorbed += b.charge(p, dt) * dt,
                    _ => delivered += b.discharge(p, dt) * dt,
                }
                prop_assert!(b.stored() >= Joules::ZERO);
                prop_assert!(b.stored() <= b.capacity() + Joules::new(1e-9));
            }
            prop_assert!(delivered <= absorbed + Joules::new(1e-6));
        }

        /// Round trip never exceeds the rated efficiency.
        #[test]
        fn prop_round_trip_bounded(charge_steps in 1usize..200, discharge_power in 1.0f64..100.0) {
            let mut b = small();
            let mut in_e = Joules::ZERO;
            for _ in 0..charge_steps {
                in_e += b.charge(Watts::new(50.0), Seconds::new(0.1)) * Seconds::new(0.1);
            }
            let mut out_e = Joules::ZERO;
            for _ in 0..10_000 {
                let p = b.discharge(Watts::new(discharge_power), Seconds::new(0.1));
                if p.is_zero() { break; }
                out_e += p * Seconds::new(0.1);
            }
            if in_e.value() > 0.0 {
                prop_assert!(out_e / in_e <= 0.7501);
            }
        }
    }
}
