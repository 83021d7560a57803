//! Emulated Intel RAPL (Running Average Power Limit) domains.
//!
//! RAPL exposes, per package and per DRAM channel, (a) an energy meter and
//! (b) a power limit that the hardware enforces autonomously. The paper
//! uses the *DRAM* domain as an allocation knob (`m`), and the *package*
//! domain as the state-of-the-art baseline (`Util-Unaware` allocates power
//! with package RAPL, which throttles core frequency uniformly with no
//! knowledge of application utilities).
//!
//! This module reproduces both behaviours:
//!
//! * [`EnergyMeter`] — monotone energy counters sampled like MSR reads;
//! * [`PackageDomain::enforce`] — the hardware's uniform-DVFS response to
//!   a package limit;
//! * [`DramDomain`] — limit ↔ bandwidth clamping for the memory knob.

use powermed_units::{BytesPerSec, Joules, Seconds, Watts};

use crate::dvfs::DvfsState;
use crate::power::DramPowerModel;
use crate::spec::ServerSpec;

/// A monotone energy accumulator, the analogue of a RAPL
/// `MSR_*_ENERGY_STATUS` register.
///
/// ```
/// use powermed_server::rapl::EnergyMeter;
/// use powermed_units::{Seconds, Watts};
///
/// let mut meter = EnergyMeter::new();
/// meter.accumulate(Watts::new(50.0), Seconds::new(2.0));
/// assert_eq!(meter.total().value(), 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    total: Joules,
}

impl EnergyMeter {
    /// A meter reading zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `power` sustained for `dt` to the meter.
    pub fn accumulate(&mut self, power: Watts, dt: Seconds) {
        self.total += power * dt;
    }

    /// Total energy since construction.
    pub fn total(&self) -> Joules {
        self.total
    }

    /// Average power between two meter snapshots taken `dt` apart.
    ///
    /// Returns `None` when `dt` is non-positive (no window elapsed).
    #[cfg(test)]
    pub fn average_power(before: Self, after: Self, dt: Seconds) -> Option<Watts> {
        if dt.value() <= 0.0 {
            return None;
        }
        Some((after.total - before.total) / dt)
    }
}

/// The package RAPL domain: a power limit enforced by uniformly scaling
/// the frequency of every active core in the package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageDomain {
    limit: Option<Watts>,
    meter: EnergyMeter,
}

impl Default for PackageDomain {
    fn default() -> Self {
        Self::new()
    }
}

impl PackageDomain {
    /// A package domain with no limit programmed.
    pub fn new() -> Self {
        Self {
            limit: None,
            meter: EnergyMeter::new(),
        }
    }

    /// Programs (or clears) the package power limit.
    pub fn set_limit(&mut self, limit: Option<Watts>) {
        self.limit = limit;
    }

    /// The currently programmed limit.
    pub fn limit(&self) -> Option<Watts> {
        self.limit
    }

    /// The package energy meter.
    pub fn meter(&self) -> EnergyMeter {
        self.meter
    }

    /// Accumulates consumed energy (called by the server each step).
    pub fn record(&mut self, power: Watts, dt: Seconds) {
        self.meter.accumulate(power, dt);
    }

    /// The hardware's enforcement response: the highest DVFS state at
    /// which `active_cores` fully busy cores stay within the programmed
    /// limit. With no limit programmed, returns the top state.
    ///
    /// Returns `None` when even the bottom state exceeds the limit —
    /// package RAPL cannot gate cores, so the caller (the OS) must shed
    /// cores or suspend work, exactly the situation that forces the
    /// paper's temporal coordination.
    pub fn enforce(&self, spec: &ServerSpec, active_cores: usize) -> Option<DvfsState> {
        let limit = match self.limit {
            None => return Some(spec.ladder().top_state()),
            Some(l) => l,
        };
        spec.ladder().states().rev().find(|&s| {
            let f = spec.ladder().frequency(s);
            let p = spec.core_power().active_power(f) * active_cores as f64;
            p <= limit + Watts::new(1e-9)
        })
    }
}

/// The DRAM RAPL domain for one DIMM: an explicit power limit in watts
/// (the paper's `m` knob) that caps achievable memory bandwidth.
#[derive(Debug, Clone, PartialEq)]
pub struct DramDomain {
    model: DramPowerModel,
    limit: Watts,
    meter: EnergyMeter,
}

impl DramDomain {
    /// Creates a domain with the limit initially at the model's peak
    /// power (unconstrained).
    pub fn new(model: DramPowerModel) -> Self {
        let limit = model.peak_power();
        Self {
            model,
            limit,
            meter: EnergyMeter::new(),
        }
    }

    /// The underlying power/bandwidth model.
    pub fn model(&self) -> &DramPowerModel {
        &self.model
    }

    /// Programs the power limit (`m`), clamped to the model's physical
    /// window.
    pub fn set_limit(&mut self, limit: Watts) {
        self.limit = limit.clamp(self.model.background_power(), self.model.peak_power());
    }

    /// The programmed limit.
    pub fn limit(&self) -> Watts {
        self.limit
    }

    /// Bandwidth available under the current limit.
    #[cfg(test)]
    pub fn available_bandwidth(&self) -> BytesPerSec {
        self.model.bandwidth_at_limit(self.limit)
    }

    /// Serves a bandwidth demand: returns `(granted bandwidth, power
    /// drawn)` after clamping to the limit.
    pub fn serve(&mut self, demand: BytesPerSec, dt: Seconds) -> (BytesPerSec, Watts) {
        let limit = self.limit;
        self.serve_at_limit(demand, limit, dt)
    }

    /// Serves a bandwidth demand against an *effective* limit instead
    /// of the programmed one — the escape hatch a non-compliant
    /// application uses to run its DIMM hotter than the acked `m`
    /// knob. The effective limit is still clamped to the model's
    /// physical window.
    pub fn serve_at_limit(
        &mut self,
        demand: BytesPerSec,
        limit: Watts,
        dt: Seconds,
    ) -> (BytesPerSec, Watts) {
        let limit = limit.clamp(self.model.background_power(), self.model.peak_power());
        let granted = demand.min(self.model.bandwidth_at_limit(limit));
        let power = self.model.power_at_bandwidth(granted);
        self.meter.accumulate(power, dt);
        (granted, power)
    }

    /// The DRAM energy meter.
    pub fn meter(&self) -> EnergyMeter {
        self.meter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    #[test]
    fn meter_accumulates_and_averages() {
        let mut m = EnergyMeter::new();
        let before = m;
        m.accumulate(Watts::new(30.0), Seconds::new(2.0));
        m.accumulate(Watts::new(10.0), Seconds::new(2.0));
        assert_eq!(m.total(), Joules::new(80.0));
        let avg = EnergyMeter::average_power(before, m, Seconds::new(4.0)).unwrap();
        assert_eq!(avg, Watts::new(20.0));
        assert_eq!(EnergyMeter::average_power(before, m, Seconds::ZERO), None);
    }

    #[test]
    fn package_unlimited_runs_at_top() {
        let dom = PackageDomain::new();
        assert_eq!(dom.enforce(&spec(), 6), Some(spec().ladder().top_state()));
    }

    #[test]
    fn package_limit_throttles_uniformly() {
        let spec = spec();
        let mut dom = PackageDomain::new();
        // 6 cores at 2.0 GHz draw ~20 W; a 12 W limit must drop frequency.
        dom.set_limit(Some(Watts::new(12.0)));
        let s = dom.enforce(&spec, 6).unwrap();
        assert!(s < spec.ladder().top_state());
        let p = spec.core_power().active_power(spec.ladder().frequency(s)) * 6.0;
        assert!(p <= Watts::new(12.0));
        // And it picks the *highest* state satisfying the limit.
        if let Some(up) = s.step_up(spec.ladder().steps()) {
            let p_up = spec.core_power().active_power(spec.ladder().frequency(up)) * 6.0;
            assert!(p_up > Watts::new(12.0));
        }
    }

    #[test]
    fn package_limit_infeasible_returns_none() {
        let spec = spec();
        let mut dom = PackageDomain::new();
        dom.set_limit(Some(Watts::new(1.0)));
        assert_eq!(dom.enforce(&spec, 6), None);
    }

    #[test]
    fn dram_limit_clamps_bandwidth_and_power() {
        let mut dom = DramDomain::new(DramPowerModel::ddr3_dimm());
        dom.set_limit(Watts::new(6.0));
        assert_eq!(dom.limit(), Watts::new(6.0));
        let demand = BytesPerSec::from_gib_per_sec(12.8);
        let (granted, power) = dom.serve(demand, Seconds::new(1.0));
        assert!(granted < demand);
        assert!((power - Watts::new(6.0)).abs() < Watts::new(1e-9));
        assert_eq!(dom.meter().total(), power * Seconds::new(1.0));
    }

    #[test]
    fn dram_limit_clamped_to_physical_window() {
        let mut dom = DramDomain::new(DramPowerModel::ddr3_dimm());
        dom.set_limit(Watts::new(100.0));
        assert_eq!(dom.limit(), Watts::new(10.0));
        dom.set_limit(Watts::new(0.0));
        assert_eq!(dom.limit(), Watts::new(2.0));
    }

    #[test]
    fn dram_underdemand_draws_less_than_limit() {
        let mut dom = DramDomain::new(DramPowerModel::ddr3_dimm());
        dom.set_limit(Watts::new(10.0));
        let demand = BytesPerSec::from_gib_per_sec(1.0);
        let (granted, power) = dom.serve(demand, Seconds::new(1.0));
        assert_eq!(granted, demand);
        assert!(power < Watts::new(10.0));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The DRAM domain never grants more bandwidth than its limit
        /// permits, and the power it reports never exceeds the limit.
        #[test]
        fn prop_dram_clamping(limit in 0.0f64..15.0, demand_gib in 0.0f64..20.0) {
            let mut dom = DramDomain::new(DramPowerModel::ddr3_dimm());
            dom.set_limit(Watts::new(limit));
            let demand = BytesPerSec::from_gib_per_sec(demand_gib);
            let (granted, power) = dom.serve(demand, Seconds::new(0.1));
            prop_assert!(granted <= demand + BytesPerSec::new(1e-6));
            prop_assert!(granted <= dom.available_bandwidth() + BytesPerSec::new(1e-6));
            prop_assert!(power <= dom.limit() + Watts::new(1e-9));
            prop_assert!(power >= dom.model().background_power() - Watts::new(1e-9));
        }

        /// Package enforcement always returns the highest ladder state
        /// within the limit, and the state below it (if any) also fits.
        #[test]
        fn prop_package_enforcement_maximal(limit in 2.0f64..30.0, cores in 1usize..12) {
            let spec = ServerSpec::xeon_e5_2620();
            let mut dom = PackageDomain::new();
            dom.set_limit(Some(Watts::new(limit)));
            if let Some(state) = dom.enforce(&spec, cores) {
                let p = spec.core_power().active_power(spec.ladder().frequency(state))
                    * cores as f64;
                prop_assert!(p <= Watts::new(limit) + Watts::new(1e-6));
                if let Some(up) = state.step_up(spec.ladder().steps()) {
                    let p_up = spec.core_power().active_power(spec.ladder().frequency(up))
                        * cores as f64;
                    prop_assert!(p_up > Watts::new(limit));
                }
            } else {
                // Even the bottom state exceeds the limit.
                let bottom = spec.core_power().active_power(spec.ladder().min_frequency())
                    * cores as f64;
                prop_assert!(bottom > Watts::new(limit));
            }
        }

        /// Energy meters are monotone under any accumulation sequence.
        #[test]
        fn prop_meter_monotone(samples in proptest::collection::vec((0.0f64..200.0, 0.001f64..2.0), 1..30)) {
            let mut meter = EnergyMeter::new();
            let mut prev = Joules::ZERO;
            for (p, dt) in samples {
                meter.accumulate(Watts::new(p), Seconds::new(dt));
                prop_assert!(meter.total() >= prev);
                prev = meter.total();
            }
        }
    }
}
