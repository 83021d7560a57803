//! The `Coordinator`: spatial and temporal coordination of application
//! power draw (Requirements R3 and R4).
//!
//! Given the `PowerAllocator`'s apportionment, the coordinator decides
//! *how* the allocations are realized:
//!
//! * **Space (R3a)** — every app received a feasible budget: all run
//!   simultaneously at their chosen knobs. Preferred, since application
//!   state stays warm in private caches.
//! * **Alternate duty-cycling (R3b)** — the budget cannot host everyone:
//!   applications take turns, each using the whole dynamic budget during
//!   its ON slot (the others are suspended and their sockets deep-sleep).
//! * **ESD-backed consolidated duty-cycling (R4)** — with storage, *all*
//!   apps go OFF together (banking `P_cap − P_idle` of headroom) and then
//!   ON together above the cap, amortizing the non-convex `P_cm` across
//!   them. The OFF:ON ratio is the paper's Eq. 5:
//!
//!   ```text
//!   (δ2 − δ1) / (δ3 − δ2) = (P_idle + P_cm + Σ P_X − P_cap)
//!                           ───────────────────────────────
//!                                  η · (P_cap − P_idle)
//!   ```

use std::collections::BTreeMap;

use powermed_server::ServerSpec;
use powermed_units::{Ratio, Seconds, Watts};

use crate::allocator::{Allocation, PowerAllocator};
use crate::measurement::AppMeasurement;

/// Storage parameters the coordinator needs (a snapshot of the device).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EsdParams {
    /// Round-trip efficiency `η`.
    pub efficiency: Ratio,
    /// Maximum bus-side discharge power.
    pub max_discharge: Watts,
    /// Maximum bus-side charge power.
    pub max_charge: Watts,
}

/// One ON slot of an alternate duty cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSlot {
    /// The application running during this slot.
    pub app: String,
    /// The grid index of its knob setting while ON.
    pub setting: usize,
    /// Slot length.
    pub duration: Seconds,
}

impl TimeSlot {
    /// Equal slots, one per `(app, setting)`, filling one `cycle`.
    pub(crate) fn fair(cycle: Seconds, runnable: Vec<(String, usize)>) -> Vec<TimeSlot> {
        let duration = cycle / runnable.len() as f64;
        runnable
            .into_iter()
            .map(|(app, setting)| TimeSlot {
                app,
                setting,
                duration,
            })
            .collect()
    }
}

/// How the current allocation is realized over the next cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum Schedule {
    /// All applications run simultaneously at their settings (R3a).
    Space {
        /// Per-app grid index to actuate.
        settings: BTreeMap<String, usize>,
    },
    /// Applications alternate through the slots, one ON at a time (R3b).
    Alternate {
        /// The slots, executed cyclically in order.
        slots: Vec<TimeSlot>,
    },
    /// Latency-critical applications pinned always-on at their SLO
    /// settings while batch applications alternate through the slots in
    /// the leftover budget (the SLO-aware extension of R3b).
    Hybrid {
        /// Always-on applications and their grid settings.
        pinned: BTreeMap<String, usize>,
        /// Batch slots, executed cyclically (may be empty when no batch
        /// app fits the leftover budget).
        slots: Vec<TimeSlot>,
    },
    /// Consolidated OFF/ON cycling against the ESD (R4).
    EsdCycle {
        /// OFF (charging, all suspended) period per cycle.
        off: Seconds,
        /// ON (all running, discharging) period per cycle.
        on: Seconds,
        /// Per-app grid index during ON.
        settings: BTreeMap<String, usize>,
        /// Bus power to bank with during OFF.
        charge: Watts,
        /// Bus power drawn from the ESD during ON.
        discharge: Watts,
    },
    /// The cap cannot host any application by any means.
    Infeasible,
}

impl Schedule {
    /// The length of one full cycle of this schedule (zero for `Space`,
    /// which has no cycling).
    #[cfg(test)]
    pub fn cycle_length(&self) -> Seconds {
        match self {
            Self::Space { .. } | Self::Infeasible => Seconds::ZERO,
            Self::Alternate { slots } | Self::Hybrid { slots, .. } => {
                slots.iter().map(|s| s.duration).sum()
            }
            Self::EsdCycle { off, on, .. } => *off + *on,
        }
    }

    /// Every `(app, grid setting, always_on)` entry the schedule
    /// actuates: the always-on settings in name order, then the
    /// duty-cycle slots in cycle order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&str, usize, bool)> {
        let (fixed, slots): (Option<&BTreeMap<String, usize>>, &[TimeSlot]) = match self {
            Self::Space { settings } | Self::EsdCycle { settings, .. } => (Some(settings), &[]),
            Self::Alternate { slots } => (None, slots),
            Self::Hybrid { pinned, slots } => (Some(pinned), slots),
            Self::Infeasible => (None, &[]),
        };
        let fixed = fixed
            .into_iter()
            .flatten()
            .map(|(app, &i)| (app.as_str(), i, true));
        fixed.chain(slots.iter().map(|s| (s.app.as_str(), s.setting, false)))
    }

    /// The steady-state normalized throughput this schedule is expected
    /// to deliver, averaged over `apps` (each normalized to its own
    /// uncapped performance) — the model-predicted value of the paper's
    /// Eq. 1 objective divided by the number of applications.
    ///
    /// Used by cluster-level apportionment to compare candidate caps
    /// without simulating each one.
    pub fn expected_mean_normalized(&self, apps: &[(&str, &AppMeasurement)]) -> f64 {
        if apps.is_empty() {
            return 0.0;
        }
        let n = apps.len() as f64;
        let norm = |name: &str, idx: usize| -> f64 {
            apps.iter()
                .find(|(a, _)| *a == name)
                .map(|(_, m)| m.perf(idx) / m.nocap_perf().max(1e-12))
                .unwrap_or(0.0)
        };
        match self {
            Self::Space { settings } => settings.iter().map(|(a, i)| norm(a, *i)).sum::<f64>() / n,
            Self::Alternate { slots } => {
                let cycle: Seconds = slots.iter().map(|s| s.duration).sum();
                if cycle.value() <= 0.0 {
                    return 0.0;
                }
                slots
                    .iter()
                    .map(|s| norm(&s.app, s.setting) * (s.duration / cycle))
                    .sum::<f64>()
                    / n
            }
            Self::Hybrid { pinned, slots } => {
                let always: f64 = pinned.iter().map(|(a, i)| norm(a, *i)).sum();
                let cycle: Seconds = slots.iter().map(|s| s.duration).sum();
                let rotating: f64 = if cycle.value() > 0.0 {
                    slots
                        .iter()
                        .map(|s| norm(&s.app, s.setting) * (s.duration / cycle))
                        .sum()
                } else {
                    0.0
                };
                (always + rotating) / n
            }
            Self::EsdCycle {
                off, on, settings, ..
            } => {
                let cycle = *off + *on;
                if cycle.value() <= 0.0 {
                    return 0.0;
                }
                let on_frac = *on / cycle;
                settings.iter().map(|(a, i)| norm(a, *i)).sum::<f64>() / n * on_frac
            }
            Self::Infeasible => 0.0,
        }
    }
}

/// Decides the coordination mode and constructs the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Coordinator {
    /// Nominal cycle period for temporal schedules.
    cycle: Seconds,
    /// Idle power of the platform.
    p_idle: Watts,
    /// Chip-maintenance power of the platform.
    p_cm: Watts,
    /// The platform's cores, the joint capacity of simultaneous
    /// (ESD-cycle) operation.
    cores: usize,
}

impl Coordinator {
    /// Creates a coordinator for the platform `spec` (its idle and
    /// chip-maintenance powers and its total cores).
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is not positive.
    pub fn new(spec: &ServerSpec, cycle: Seconds) -> Self {
        assert!(cycle.value() > 0.0, "cycle period must be positive");
        Self {
            cycle,
            p_idle: spec.idle_power(),
            p_cm: spec.chip_maintenance_power(),
            cores: spec.topology().total_cores(),
        }
    }

    /// The nominal cycle period of temporal schedules.
    pub(crate) fn cycle(&self) -> Seconds {
        self.cycle
    }

    /// The paper's Eq. 5 OFF:ON ratio. Returns `None` when the ON period
    /// needs no battery supplement (ratio ≤ 0 → no OFF period needed) or
    /// when charging is impossible (`charge ≤ 0`).
    ///
    /// `charge` is the power actually banked during OFF — the cap
    /// headroom `P_cap − P_idle` *after* clamping to the device's
    /// maximum charge rate. Using the unclamped headroom here would
    /// undersize the OFF period whenever the device charges slower
    /// than the headroom allows, so the cycle would drain the battery:
    /// energy banked per cycle (`η · charge · t_off`) must cover energy
    /// drawn (`deficit · t_on`).
    pub fn duty_cycle_ratio(
        &self,
        sum_px: Watts,
        p_cap: Watts,
        charge: Watts,
        efficiency: Ratio,
    ) -> Option<f64> {
        let deficit = self.p_idle + self.p_cm + sum_px - p_cap;
        if deficit.value() <= 0.0 {
            return None;
        }
        if charge.value() <= 0.0 || efficiency.value() <= 0.0 {
            return None;
        }
        Some(deficit.value() / (efficiency.value() * charge.value()))
    }

    /// Builds the schedule realizing `allocation` for `apps` under
    /// `p_cap`, optionally using an ESD.
    ///
    /// `apps` must be in the same order as the allocation was computed,
    /// and `families[i]` must be the knob family (grid indices) the
    /// policy actuates for app `i` — RAPL-style baselines only touch the
    /// frequency ladder, the full schemes the whole grid.
    pub fn schedule(
        &self,
        apps: &[(&str, &AppMeasurement)],
        families: &[Vec<usize>],
        allocation: &Allocation,
        p_cap: Watts,
        esd: Option<EsdParams>,
    ) -> Schedule {
        assert_eq!(apps.len(), allocation.budgets.len(), "allocation mismatch");
        assert_eq!(apps.len(), families.len(), "family list mismatch");

        // R3a: everyone fits — coordinate in space.
        if allocation.all_feasible() && !apps.is_empty() {
            let settings = apps
                .iter()
                .zip(&allocation.settings)
                .map(|((name, _), s)| (name.to_string(), s.expect("all feasible")))
                .collect();
            return Schedule::Space { settings };
        }

        // R4: consolidated cycling when storage is available.
        if let Some(params) = esd {
            if let Some(schedule) = self.esd_cycle(apps, families, p_cap, params) {
                return schedule;
            }
        }

        // R3b: alternate duty-cycling. Each app gets the whole dynamic
        // budget during its slot; slots are fair (equal length). When an
        // app's floor slightly exceeds the solo budget the hardware
        // bottoms out at its cheapest setting (best-effort RAPL, up to
        // 15% over), rather than never scheduling the app.
        let solo_budget = p_cap - self.p_idle - self.p_cm;
        let runnable: Vec<(String, usize)> = apps
            .iter()
            .zip(families)
            .filter_map(|((name, m), family)| {
                let (idx, _) = m.best_effort_within(solo_budget, family)?;
                Some((name.to_string(), idx))
            })
            .collect();
        if runnable.is_empty() {
            return Schedule::Infeasible;
        }
        Schedule::Alternate {
            slots: TimeSlot::fair(self.cycle, runnable),
        }
    }

    /// Constructs the R4 consolidated cycle, or `None` when the ESD
    /// cannot make all apps runnable together. The apps run at once, so
    /// their settings share the platform's cores.
    fn esd_cycle(
        &self,
        apps: &[(&str, &AppMeasurement)],
        families: &[Vec<usize>],
        p_cap: Watts,
        params: EsdParams,
    ) -> Option<Schedule> {
        if apps.is_empty() || params.max_discharge.value() <= 0.0 {
            return None;
        }
        // Charging needs headroom below the cap.
        let headroom = (p_cap - self.p_idle).min(params.max_charge);
        if headroom.value() <= 0.0 {
            return None;
        }
        // During ON the battery supplements the cap: the dynamic budget
        // grows by the usable discharge power.
        let on_budget = p_cap - self.p_idle - self.p_cm + params.max_discharge;
        if on_budget.value() <= 0.0 {
            return None;
        }
        let measurements: Vec<(&AppMeasurement, Option<&[usize]>)> = apps
            .iter()
            .zip(families)
            .map(|((_, m), f)| (*m, Some(f.as_slice())))
            .collect();
        let allocation =
            PowerAllocator::default().apportion_with_cores(&measurements, on_budget, self.cores);
        if !allocation.all_feasible() {
            return None;
        }
        let sum_px: Watts = allocation
            .settings
            .iter()
            .zip(apps)
            .map(|(s, (_, m))| m.power(s.expect("all feasible")))
            .sum();
        let discharge = (self.p_idle + self.p_cm + sum_px - p_cap).max_zero();
        if discharge > params.max_discharge + Watts::new(1e-9) {
            return None;
        }
        let ratio = self
            .duty_cycle_ratio(sum_px, p_cap, headroom, params.efficiency)
            .unwrap_or(0.0);
        let on = self.cycle / (1.0 + ratio);
        let off = self.cycle - on;
        let settings = apps
            .iter()
            .zip(&allocation.settings)
            .map(|((name, _), s)| (name.to_string(), s.expect("all feasible")))
            .collect();
        Some(Schedule::EsdCycle {
            off,
            on,
            settings,
            charge: headroom,
            discharge,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::catalog;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn coordinator() -> Coordinator {
        Coordinator::new(&spec(), Seconds::new(10.0))
    }

    fn lead_acid_params() -> EsdParams {
        EsdParams {
            efficiency: Ratio::new(0.75),
            max_discharge: Watts::new(100.0),
            max_charge: Watts::new(50.0),
        }
    }

    fn measure(p: powermed_workloads::AppProfile) -> AppMeasurement {
        AppMeasurement::exhaustive(&spec(), &p)
    }

    fn fams(apps: &[(&str, &AppMeasurement)]) -> Vec<Vec<usize>> {
        apps.iter().map(|(_, m)| m.feasible_indices()).collect()
    }

    fn allocate(apps: &[(&str, &AppMeasurement)], budget: Watts) -> Allocation {
        let ms: Vec<(&AppMeasurement, Option<&[usize]>)> =
            apps.iter().map(|(_, m)| (*m, None)).collect();
        PowerAllocator::default().apportion(&ms, budget)
    }

    #[test]
    fn eq5_matches_paper_sixty_forty() {
        // Paper: at P_cap = 80 W with Lead-Acid (η = 0.75) the cycle is
        // roughly 60-40 OFF-ON. With ΣP_X ≈ 40 W:
        // deficit = 50+20+40-80 = 30; charge = headroom = 30;
        // ratio = 30/(0.75·30) = 1.333 → OFF fraction = 4/7 ≈ 0.57.
        let c = coordinator();
        let ratio = c
            .duty_cycle_ratio(
                Watts::new(40.0),
                Watts::new(80.0),
                Watts::new(30.0),
                Ratio::new(0.75),
            )
            .unwrap();
        assert!((ratio - 4.0 / 3.0).abs() < 1e-9);
        let off_frac = ratio / (1.0 + ratio);
        assert!((off_frac - 0.571).abs() < 0.01, "off fraction {off_frac}");
    }

    #[test]
    fn eq5_uses_clamped_charge_power() {
        // A device that charges at only 10 W (below the 30 W cap
        // headroom) banks 10·0.75 = 7.5 W-equivalent per OFF second, so
        // covering the 30 W ON deficit needs ratio 30/7.5 = 4 — three
        // times the unclamped value. The old code divided by the full
        // headroom and drained the battery every cycle.
        let c = coordinator();
        let ratio = c
            .duty_cycle_ratio(
                Watts::new(40.0),
                Watts::new(80.0),
                Watts::new(10.0),
                Ratio::new(0.75),
            )
            .unwrap();
        assert!((ratio - 4.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn esd_cycle_banks_at_least_what_it_spends() {
        // Energy balance per cycle for the schedule the coordinator
        // actually emits with a rate-limited device: η·charge·off must
        // cover discharge·on.
        let a = measure(catalog::pagerank());
        let b = measure(catalog::kmeans());
        let apps = [("pagerank", &a), ("kmeans", &b)];
        let families: Vec<Vec<usize>> = apps.iter().map(|(_, m)| m.feasible_indices()).collect();
        let allocation = allocate(&apps, Watts::new(10.0));
        let params = EsdParams {
            efficiency: Ratio::new(0.75),
            max_discharge: Watts::new(100.0),
            max_charge: Watts::new(10.0), // below the 30 W headroom
        };
        let schedule = coordinator().schedule(
            &apps,
            &families,
            &allocation,
            Watts::new(80.0),
            Some(params),
        );
        if let Schedule::EsdCycle {
            off,
            on,
            charge,
            discharge,
            ..
        } = schedule
        {
            assert!(
                charge.value() <= params.max_charge.value() + 1e-9,
                "charge {charge:?} exceeds device limit"
            );
            let banked = params.efficiency.value() * charge.value() * off.value();
            let spent = discharge.value() * on.value();
            assert!(
                banked + 1e-6 >= spent,
                "cycle drains the battery: banked {banked:.3} J < spent {spent:.3} J"
            );
        } else {
            panic!("expected an ESD cycle, got {schedule:?}");
        }
    }

    #[test]
    fn eq5_none_when_no_deficit() {
        let c = coordinator();
        assert_eq!(
            c.duty_cycle_ratio(
                Watts::new(20.0),
                Watts::new(100.0),
                Watts::new(50.0),
                Ratio::new(0.75)
            ),
            None
        );
        // And when charging is impossible (cap at/below idle leaves no
        // charge power).
        assert_eq!(
            c.duty_cycle_ratio(
                Watts::new(20.0),
                Watts::new(50.0),
                Watts::new(0.0),
                Ratio::new(0.75)
            ),
            None
        );
    }

    #[test]
    fn loose_cap_yields_space_schedule() {
        let a = measure(catalog::pagerank());
        let b = measure(catalog::kmeans());
        let apps = [("pagerank", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::new(30.0));
        let s = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(100.0), None);
        assert_eq!(s.cycle_length(), Seconds::ZERO, "space mode has no cycle");
        match s {
            Schedule::Space { settings } => assert_eq!(settings.len(), 2),
            other => panic!("expected Space, got {other:?}"),
        }
    }

    #[test]
    fn stringent_cap_without_esd_alternates() {
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::new(10.0));
        let s = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(80.0), None);
        match &s {
            Schedule::Alternate { slots } => {
                assert_eq!(slots.len(), 2, "both apps can run alone at 10 W");
                assert_eq!(slots[0].duration, Seconds::new(5.0), "fair slots");
                assert_eq!(s.cycle_length(), Seconds::new(10.0));
            }
            other => panic!("expected Alternate, got {other:?}"),
        }
    }

    #[test]
    fn stringent_cap_with_esd_consolidates() {
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::new(10.0));
        let s = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(80.0),
            Some(lead_acid_params()),
        );
        match &s {
            Schedule::EsdCycle {
                off,
                on,
                settings,
                charge,
                discharge,
            } => {
                assert_eq!(settings.len(), 2, "both apps run together");
                assert!(off.value() > on.value(), "OFF-heavy cycle (paper: 60-40)");
                assert_eq!(*charge, Watts::new(30.0), "cap minus idle");
                assert!(discharge.value() > 0.0);
                assert!((s.cycle_length() - Seconds::new(10.0)).abs() < Seconds::new(1e-9));
            }
            other => panic!("expected EsdCycle, got {other:?}"),
        }
    }

    #[test]
    fn seventy_watt_cap_needs_esd() {
        // At 70 W the solo dynamic budget is zero: nothing can alternate.
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::ZERO);
        let without = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(70.0), None);
        assert_eq!(without, Schedule::Infeasible);
        let with = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(70.0),
            Some(lead_acid_params()),
        );
        assert!(matches!(with, Schedule::EsdCycle { .. }));
    }

    #[test]
    fn esd_cycle_respects_the_core_capacity() {
        // Three six-core apps could claim 18 of the Xeon's 12 cores, and
        // the consolidated cycle runs them all at once.
        let a = measure(catalog::kmeans());
        let b = measure(catalog::stream());
        let c = measure(catalog::x264());
        let apps = [("kmeans", &a), ("stream", &b), ("x264", &c)];
        let alloc = allocate(&apps, Watts::new(10.0));
        let s = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(80.0),
            Some(lead_acid_params()),
        );
        let Schedule::EsdCycle { settings, .. } = &s else {
            panic!("expected EsdCycle, got {s:?}");
        };
        assert_eq!(settings.len(), 3, "all three run together");
        let cores = |m: &AppMeasurement, idx: usize| m.grid().get(idx).expect("grid index").cores();
        let used: usize = apps.iter().map(|(name, m)| cores(m, settings[*name])).sum();
        assert!(used <= 12, "the cycle claims {used} cores");
        // The core-blind DP at the same 110 W ON budget overcommits.
        let blind = allocate(&apps, Watts::new(110.0));
        let blind_used: usize = apps
            .iter()
            .zip(&blind.settings)
            .filter_map(|((_, m), s)| s.map(|idx| cores(m, idx)))
            .sum();
        assert!(blind_used > 12, "the blind DP claims {blind_used} cores");
    }

    #[test]
    fn cap_below_idle_is_infeasible_even_with_esd() {
        let a = measure(catalog::kmeans());
        let apps = [("kmeans", &a)];
        let alloc = allocate(&apps, Watts::ZERO);
        let s = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(45.0),
            Some(lead_acid_params()),
        );
        assert_eq!(s, Schedule::Infeasible);
    }

    #[test]
    fn discharge_respects_device_limit() {
        // A feeble ESD (5 W discharge) cannot cover the ON deficit.
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::ZERO);
        let feeble = EsdParams {
            efficiency: Ratio::new(0.9),
            max_discharge: Watts::new(5.0),
            max_charge: Watts::new(50.0),
        };
        let s = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(70.0), Some(feeble));
        // Falls back: at 70 W nothing can alternate either.
        assert_eq!(s, Schedule::Infeasible);
    }

    #[test]
    fn single_app_space_when_it_fits() {
        let a = measure(catalog::kmeans());
        let apps = [("kmeans", &a)];
        let alloc = allocate(&apps, Watts::new(30.0));
        let s = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(100.0), None);
        assert!(matches!(s, Schedule::Space { .. }));
    }

    #[test]
    fn expected_value_matches_mode_semantics() {
        let a = measure(catalog::pagerank());
        let b = measure(catalog::kmeans());
        let apps = [("pagerank", &a), ("kmeans", &b)];
        // Space at a generous budget: close to uncapped.
        let alloc = allocate(&apps, Watts::new(45.0));
        let space = coordinator().schedule(&apps, &fams(&apps), &alloc, Watts::new(120.0), None);
        let v = space.expected_mean_normalized(&apps);
        assert!(v > 0.9, "space value {v}");
        // Alternate at 80 W: apps run half the time each, so the value
        // sits well below the space value.
        let starved = allocate(&apps, Watts::new(10.0));
        let alt = coordinator().schedule(&apps, &fams(&apps), &starved, Watts::new(80.0), None);
        let va = alt.expected_mean_normalized(&apps);
        assert!(va > 0.1 && va < 0.6, "alternate value {va}");
        assert!(va < v);
        // Infeasible is worthless.
        assert_eq!(Schedule::Infeasible.expected_mean_normalized(&apps), 0.0);
        // Empty app set is worthless.
        assert_eq!(space.expected_mean_normalized(&[]), 0.0);
    }

    #[test]
    fn expected_value_of_esd_cycle_scales_with_on_fraction() {
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let alloc = allocate(&apps, Watts::ZERO);
        let harsh = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(70.0),
            Some(lead_acid_params()),
        );
        let loose = coordinator().schedule(
            &apps,
            &fams(&apps),
            &alloc,
            Watts::new(80.0),
            Some(lead_acid_params()),
        );
        let vh = harsh.expected_mean_normalized(&apps);
        let vl = loose.expected_mean_normalized(&apps);
        assert!(vh > 0.0);
        assert!(vl > vh, "more headroom, more ON time: {vl} vs {vh}");
    }

    #[test]
    #[should_panic(expected = "cycle period must be positive")]
    fn zero_cycle_rejected() {
        let _ = Coordinator::new(&spec(), Seconds::ZERO);
    }
}
