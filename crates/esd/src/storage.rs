//! The [`EnergyStorage`] trait: what a power-management policy may assume
//! about any storage device.

use powermed_units::{Joules, Ratio, Seconds, Watts};

/// Lifetime accounting for a storage device.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StorageStats {
    /// Total energy ever pushed into the device (bus side).
    pub charged: Joules,
    /// Total energy ever delivered by the device (bus side).
    pub discharged: Joules,
    /// Equivalent full cycles: total throughput over twice the capacity.
    pub equivalent_cycles: f64,
    /// Device age.
    pub age: Seconds,
}

/// A server-local energy storage device as seen by the coordinator.
///
/// Conventions:
///
/// * All powers are **bus-side**: `charge` returns the power the device
///   pulls from the server's budget; `discharge` returns the power it
///   adds to the budget. Conversion losses happen inside the device.
/// * Implementations must never create energy: over any trajectory,
///   total energy delivered ≤ total energy absorbed + initial store.
/// * [`EnergyStorage::tick`] advances device-internal time (self
///   discharge, ageing) and must be called once per simulation step.
pub trait EnergyStorage: core::fmt::Debug + Send {
    /// Usable capacity.
    fn capacity(&self) -> Joules;

    /// Energy currently banked (internal store).
    fn stored(&self) -> Joules;

    /// Round-trip efficiency `η` (bus→store→bus).
    fn round_trip_efficiency(&self) -> Ratio;

    /// Rated bus-side charge power (independent of state of charge; a
    /// full device simply absorbs nothing when asked).
    fn max_charge_power(&self) -> Watts;

    /// Rated bus-side discharge power (independent of state of charge;
    /// an empty device simply delivers nothing when asked).
    fn max_discharge_power(&self) -> Watts;

    /// Requests to charge at `power` for `dt`. Returns the bus-side power
    /// actually drawn (≤ `power`, limited by charge rate and remaining
    /// capacity). Negative `power` is treated as zero.
    fn charge(&mut self, power: Watts, dt: Seconds) -> Watts;

    /// Requests `power` of bus-side supply for `dt`. Returns the power
    /// actually delivered (≤ `power`, limited by discharge rate and
    /// store). Negative `power` is treated as zero.
    fn discharge(&mut self, power: Watts, dt: Seconds) -> Watts;

    /// Advances internal time by `dt` (self-discharge, ageing).
    fn tick(&mut self, dt: Seconds);

    /// Lifetime statistics.
    fn stats(&self) -> StorageStats;

    /// State of charge as a fraction of capacity.
    fn soc(&self) -> Ratio {
        if self.capacity().is_zero() {
            Ratio::ZERO
        } else {
            Ratio::new(self.stored() / self.capacity())
        }
    }

    /// Whether the device can currently contribute any discharge power.
    fn usable(&self) -> bool {
        self.stored().value() > 0.0 && self.max_discharge_power().value() > 0.0
    }

    /// How long the device could sustain `power` of bus-side delivery
    /// from its current store (ignoring rate limits), or `None` if
    /// `power` is non-positive.
    fn sustain_duration(&self, power: Watts) -> Option<Seconds> {
        if power.value() <= 0.0 {
            return None;
        }
        // Store-side drain exceeds bus-side delivery by the discharge
        // loss; approximate with sqrt(η) on the discharge half.
        let eta_d = self.round_trip_efficiency().value().max(0.0).sqrt();
        if eta_d <= 0.0 {
            return Some(Seconds::ZERO);
        }
        Some(self.stored() / Watts::new(power.value() / eta_d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-test implementation to exercise the provided methods.
    #[derive(Debug)]
    struct Bucket {
        cap: Joules,
        store: Joules,
    }

    impl EnergyStorage for Bucket {
        fn capacity(&self) -> Joules {
            self.cap
        }
        fn stored(&self) -> Joules {
            self.store
        }
        fn round_trip_efficiency(&self) -> Ratio {
            Ratio::ONE
        }
        fn max_charge_power(&self) -> Watts {
            Watts::new(100.0)
        }
        fn max_discharge_power(&self) -> Watts {
            Watts::new(100.0)
        }
        fn charge(&mut self, power: Watts, dt: Seconds) -> Watts {
            let p = power.max_zero().min(self.max_charge_power());
            self.store = (self.store + p * dt).min(self.cap);
            p
        }
        fn discharge(&mut self, power: Watts, dt: Seconds) -> Watts {
            let p = power.max_zero().min(self.max_discharge_power());
            let available = self.store / dt;
            let p = p.min(available);
            self.store -= p * dt;
            p
        }
        fn tick(&mut self, _dt: Seconds) {}
        fn stats(&self) -> StorageStats {
            StorageStats::default()
        }
    }

    #[test]
    fn soc_tracks_store() {
        let b = Bucket {
            cap: Joules::new(100.0),
            store: Joules::new(25.0),
        };
        assert_eq!(b.soc(), Ratio::new(0.25));
        let empty = Bucket {
            cap: Joules::ZERO,
            store: Joules::ZERO,
        };
        assert_eq!(empty.soc(), Ratio::ZERO);
    }

    #[test]
    fn usable_requires_store() {
        let mut b = Bucket {
            cap: Joules::new(100.0),
            store: Joules::ZERO,
        };
        assert!(!b.usable());
        b.charge(Watts::new(10.0), Seconds::new(1.0));
        assert!(b.usable());
    }

    #[test]
    fn sustain_duration_ideal() {
        let b = Bucket {
            cap: Joules::new(100.0),
            store: Joules::new(100.0),
        };
        // Perfect efficiency: 100 J sustains 20 W for 5 s.
        assert_eq!(
            b.sustain_duration(Watts::new(20.0)),
            Some(Seconds::new(5.0))
        );
        assert_eq!(b.sustain_duration(Watts::ZERO), None);
        assert_eq!(b.sustain_duration(Watts::new(-5.0)), None);
    }

    #[test]
    fn trait_is_object_safe() {
        let b = Bucket {
            cap: Joules::new(1.0),
            store: Joules::ZERO,
        };
        let obj: Box<dyn EnergyStorage> = Box::new(b);
        assert_eq!(obj.capacity(), Joules::new(1.0));
    }
}
