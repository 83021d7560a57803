//! Analytic power models for cores and DRAM.
//!
//! Two observations from the paper drive the model shapes:
//!
//! 1. **Core power is super-linear in frequency** (`P ∝ f³` term from the
//!    classic `C·V²·f` law with voltage scaling), so shedding frequency is
//!    cheap at the top of the ladder and expensive at the bottom. This
//!    yields the diminishing-returns utility curves of Fig. 2.
//! 2. **DRAM power buys bandwidth** through the RAPL memory limit, so a
//!    memory-bound application gains more from a watt of DRAM budget than
//!    from a watt of core budget (Fig. 3 / Fig. 9d).

use powermed_units::{BytesPerSec, Gigahertz, Ratio, Watts};

/// Per-core dynamic power model: `P(f) = base + lin·f + cube·f³` for an
/// active core at frequency `f` (in GHz), scaled by utilization.
///
/// A power-gated core draws zero (its private caches are flushed and
/// gated, as in the paper's core-consolidation knob).
///
/// ```
/// use powermed_server::power::CorePowerModel;
/// use powermed_units::Gigahertz;
///
/// let model = CorePowerModel::xeon_e5_2620();
/// let slow = model.active_power(Gigahertz::new(1.2));
/// let fast = model.active_power(Gigahertz::new(2.0));
/// assert!(fast > slow * 1.5, "frequency scaling is super-linear");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CorePowerModel {
    /// Static per-core overhead while the core is un-gated (W).
    base: Watts,
    /// Linear coefficient (W per GHz): clock-tree and short-circuit power.
    lin_w_per_ghz: f64,
    /// Cubic coefficient (W per GHz³): switching power under DVFS.
    cube_w_per_ghz3: f64,
    /// Fraction of `active_power` still drawn when the core stalls on
    /// memory (pipeline idling but not clock-gated).
    stall_fraction: Ratio,
}

impl CorePowerModel {
    /// Creates a model from raw coefficients.
    pub fn new(
        base: Watts,
        lin_w_per_ghz: f64,
        cube_w_per_ghz3: f64,
        stall_fraction: Ratio,
    ) -> Self {
        Self {
            base,
            lin_w_per_ghz,
            cube_w_per_ghz3,
            stall_fraction,
        }
    }

    /// Coefficients calibrated for the paper's Xeon E5-2620 so that six
    /// cores at 2 GHz plus local-DIMM traffic draw the ~20 W dynamic power
    /// of the Sec. II-A running example, and all twelve cores plus both
    /// DIMMs peak at Table I's 60 W.
    pub fn xeon_e5_2620() -> Self {
        // Calibrated to the paper's own platform observations:
        //
        // * six cores at the 1.2 GHz floor draw ~10 W of dynamic power
        //   (Sec. IV-B: "each [application] needs a minimum of 10 W"):
        //   6 · P(1.2) ≈ 8.2 W cores + ~2 W DRAM background ≈ 10 W;
        // * a six-core application at 2.0 GHz draws ~20 W dynamic
        //   (Sec. II-A): 6 · P(2.0) ≈ 16.8 W cores + DRAM traffic.
        //
        // P(f) = 0.05 + 0.95·f + 0.105·f³: P(1.2) ≈ 1.37, P(2.0) ≈ 2.79.
        // The law is dominated by its linear term: in this frequency
        // window voltage barely scales, so performance is close to
        // *linear* in core power — the regime the paper's Fig. 2 utility
        // curves show (a 20% dynamic power cut costing ~20% performance
        // for compute-bound codes).
        Self {
            base: Watts::new(0.05),
            lin_w_per_ghz: 0.95,
            cube_w_per_ghz3: 0.105,
            stall_fraction: Ratio::new(0.40),
        }
    }

    /// Power of one fully busy core at `freq`.
    pub fn active_power(&self, freq: Gigahertz) -> Watts {
        let f = freq.value();
        self.base + Watts::new(self.lin_w_per_ghz * f + self.cube_w_per_ghz3 * f * f * f)
    }

    /// Power of one core at `freq` that is busy for `busy` fraction of the
    /// time and stalled (waiting on memory) for the rest.
    ///
    /// `busy` outside `[0, 1]` is clamped.
    pub fn power_at_utilization(&self, freq: Gigahertz, busy: Ratio) -> Watts {
        let busy = Ratio::new(busy.value().clamp(0.0, 1.0));
        let p = self.active_power(freq);
        p * busy + p * self.stall_fraction * busy.complement()
    }

    /// Fraction of active power drawn while stalled.
    pub fn stall_fraction(&self) -> Ratio {
        self.stall_fraction
    }
}

impl Default for CorePowerModel {
    fn default() -> Self {
        Self::xeon_e5_2620()
    }
}

/// Per-DIMM DRAM power/bandwidth model under a RAPL memory power limit.
///
/// A DIMM draws a background power (refresh, PLL) plus traffic-dependent
/// activate/precharge/IO power linear in achieved bandwidth. The RAPL
/// limit `m` caps total DIMM power, so it also caps achievable bandwidth:
///
/// `bw_cap(m) = bw_peak · (m - P_bg) / (P_peak - P_bg)`, clamped to
/// `[0, bw_peak]`.
///
/// ```
/// use powermed_server::power::DramPowerModel;
/// use powermed_units::Watts;
///
/// let dram = DramPowerModel::ddr3_dimm();
/// let full = dram.bandwidth_at_limit(Watts::new(10.0));
/// let capped = dram.bandwidth_at_limit(Watts::new(3.0));
/// assert!(capped.value() < full.value() / 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DramPowerModel {
    /// Background (traffic-independent) power while the DIMM is online.
    background: Watts,
    /// Power at peak bandwidth.
    peak_power: Watts,
    /// Peak deliverable bandwidth per DIMM.
    peak_bandwidth: BytesPerSec,
}

impl DramPowerModel {
    /// Creates a model from raw parameters.
    ///
    /// # Panics
    ///
    /// Panics if `peak_power <= background` or `peak_bandwidth` is
    /// non-positive — such a DIMM could never serve traffic.
    pub fn new(background: Watts, peak_power: Watts, peak_bandwidth: BytesPerSec) -> Self {
        assert!(
            peak_power > background && peak_bandwidth.value() > 0.0,
            "DRAM model requires peak_power > background and positive bandwidth"
        );
        Self {
            background,
            peak_power,
            peak_bandwidth,
        }
    }

    /// An 8 GB DDR3 DIMM as on the paper's platform: 2 W background,
    /// 10 W at a 12.8 GB/s peak (one channel of DDR3-1600).
    pub fn ddr3_dimm() -> Self {
        Self::new(
            Watts::new(2.0),
            Watts::new(10.0),
            BytesPerSec::from_gib_per_sec(12.8),
        )
    }

    /// Background power (drawn whenever the DIMM is online).
    pub fn background_power(&self) -> Watts {
        self.background
    }

    /// Power at peak bandwidth.
    pub fn peak_power(&self) -> Watts {
        self.peak_power
    }

    /// Peak bandwidth with an unconstrained power limit.
    pub fn peak_bandwidth(&self) -> BytesPerSec {
        self.peak_bandwidth
    }

    /// The maximum bandwidth sustainable under RAPL limit `limit`.
    pub fn bandwidth_at_limit(&self, limit: Watts) -> BytesPerSec {
        let span = self.peak_power - self.background;
        let frac = ((limit - self.background) / span).clamp(0.0, 1.0);
        self.peak_bandwidth * frac
    }

    /// The power actually drawn when serving `bandwidth` of traffic
    /// (independent of the limit; callers should first clamp traffic via
    /// [`Self::bandwidth_at_limit`]).
    pub fn power_at_bandwidth(&self, bandwidth: BytesPerSec) -> Watts {
        let frac = (bandwidth / self.peak_bandwidth).clamp(0.0, 1.0);
        self.background + (self.peak_power - self.background) * frac
    }

    /// The minimum RAPL limit that still permits `bandwidth` of traffic.
    #[cfg(test)]
    pub fn limit_for_bandwidth(&self, bandwidth: BytesPerSec) -> Watts {
        self.power_at_bandwidth(bandwidth)
    }
}

impl Default for DramPowerModel {
    fn default() -> Self {
        Self::ddr3_dimm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_power_is_monotone_in_frequency() {
        let model = CorePowerModel::xeon_e5_2620();
        let mut prev = Watts::ZERO;
        for step in 0..9 {
            let f = Gigahertz::new(1.2 + 0.1 * step as f64);
            let p = model.active_power(f);
            assert!(p > prev, "power must rise with frequency");
            prev = p;
        }
    }

    #[test]
    fn core_power_calibration() {
        let model = CorePowerModel::xeon_e5_2620();
        let p = model.active_power(Gigahertz::new(2.0)).value();
        // 6 cores at 2 GHz ≈ 17 W (Sec. II-A's ~20 W app with DRAM).
        assert!((p - 2.79).abs() < 0.05, "per-core peak was {p}");
        let floor = model.active_power(Gigahertz::new(1.2)).value();
        // 6 cores at 1.2 GHz ≈ 8.2 W (+ DRAM ≈ the paper's 10 W floor).
        assert!((floor - 1.37).abs() < 0.05, "per-core floor was {floor}");
    }

    #[test]
    fn super_linear_scaling_means_marginal_watts_cheaper_at_top() {
        let model = CorePowerModel::xeon_e5_2620();
        // Power saved dropping 2.0 -> 1.9 exceeds that from 1.3 -> 1.2.
        let top_drop =
            model.active_power(Gigahertz::new(2.0)) - model.active_power(Gigahertz::new(1.9));
        let bottom_drop =
            model.active_power(Gigahertz::new(1.3)) - model.active_power(Gigahertz::new(1.2));
        assert!(top_drop > bottom_drop);
    }

    #[test]
    fn utilization_scales_between_stall_and_active() {
        let model = CorePowerModel::xeon_e5_2620();
        let f = Gigahertz::new(2.0);
        let active = model.active_power(f);
        let stalled = model.power_at_utilization(f, Ratio::new(0.0));
        let busy = model.power_at_utilization(f, Ratio::new(1.0));
        assert_eq!(busy, active);
        assert!((stalled / active - model.stall_fraction().value()).abs() < 1e-9);
        let half = model.power_at_utilization(f, Ratio::new(0.5));
        assert!(half > stalled && half < busy);
        // Out-of-range utilization clamps.
        assert_eq!(model.power_at_utilization(f, Ratio::new(2.0)), busy);
        assert_eq!(model.power_at_utilization(f, Ratio::new(-1.0)), stalled);
    }

    #[test]
    fn dram_bandwidth_limit_mapping() {
        let dram = DramPowerModel::ddr3_dimm();
        assert_eq!(
            dram.bandwidth_at_limit(Watts::new(10.0)),
            dram.peak_bandwidth()
        );
        assert_eq!(dram.bandwidth_at_limit(Watts::new(2.0)), BytesPerSec::ZERO);
        // Limits below background clamp to zero, above peak to peak.
        assert_eq!(dram.bandwidth_at_limit(Watts::new(1.0)), BytesPerSec::ZERO);
        assert_eq!(
            dram.bandwidth_at_limit(Watts::new(50.0)),
            dram.peak_bandwidth()
        );
    }

    #[test]
    fn dram_power_bandwidth_roundtrip() {
        let dram = DramPowerModel::ddr3_dimm();
        for m in [3.0, 5.0, 7.5, 10.0] {
            let limit = Watts::new(m);
            let bw = dram.bandwidth_at_limit(limit);
            let p = dram.power_at_bandwidth(bw);
            assert!(
                (p - limit).abs() < Watts::new(1e-9),
                "power at limit-capped bandwidth equals the limit"
            );
            assert!((dram.limit_for_bandwidth(bw) - limit).abs() < Watts::new(1e-9));
        }
    }

    #[test]
    #[should_panic(expected = "DRAM model requires")]
    fn invalid_dram_model_panics() {
        let _ = DramPowerModel::new(
            Watts::new(5.0),
            Watts::new(4.0),
            BytesPerSec::from_gib_per_sec(1.0),
        );
    }
}
