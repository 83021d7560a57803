//! SLO-aware planning for latency-critical co-locations.
//!
//! The paper's footnote 1 notes that all four requirements extend to
//! latency-critical applications. This module makes that concrete: an
//! application marked with an SLO (a minimum normalized throughput,
//! standing in for a latency objective) is guaranteed its SLO budget
//! *first*, and is never duty-cycled; batch applications receive the
//! surplus and absorb all temporal coordination.
//!
//! Planning is lexicographic: maximize the number of satisfied SLOs,
//! then the paper's Eq. 1 batch objective — implemented by adding a
//! large constant bonus to allocations that meet an SLO, which the same
//! exact dynamic program then optimizes.

use std::collections::BTreeMap;

use powermed_server::ServerSpec;
use powermed_units::{Seconds, Watts};

use crate::coordinator::{Schedule, TimeSlot};
use crate::knapsack::Knapsack;
use crate::measurement::AppMeasurement;
use crate::policy::same_spec;
use crate::utility::UtilityCurve;

/// Bonus added per satisfied SLO (performance terms lie in `[0, 1]`, so
/// any value above the number of co-located apps makes SLO satisfaction
/// lexicographically dominant).
const SLO_BONUS: f64 = 100.0;

/// An SLO-aware planner for one server.
#[derive(Debug, Clone)]
pub struct SloPlanner {
    spec: ServerSpec,
    cycle: Seconds,
    step: Watts,
}

impl SloPlanner {
    /// Creates a planner for `spec` with a 10 s nominal batch duty
    /// cycle.
    pub fn new(spec: ServerSpec) -> Self {
        Self {
            spec,
            cycle: Seconds::new(10.0),
            step: Watts::new(1.0),
        }
    }

    /// Plans a schedule for `apps` under `p_cap`, honouring each
    /// measurement's SLO (see [`AppMeasurement::slo`]).
    ///
    /// Latency-critical apps appear pinned in the resulting schedule;
    /// batch apps run spatially when the surplus allows, otherwise they
    /// alternate in [`Schedule::Hybrid`] slots.
    pub fn plan(&self, apps: &[(&str, &AppMeasurement)], p_cap: Watts) -> Schedule {
        let budget =
            (p_cap - self.spec.idle_power() - self.spec.chip_maintenance_power()).max_zero();
        let levels = (budget.value() / self.step.value()).floor() as usize;

        // Per-app curves, one point per budget level `0..=levels`, and
        // the exact knapsack over their bonus-augmented values.
        let (curves, groups): (Vec<UtilityCurve>, Vec<_>) = apps
            .iter()
            .map(|(_, m)| {
                let curve = UtilityCurve::build(m, &m.feasible_indices(), budget, self.step);
                let nocap = m.nocap_perf().max(1e-12);
                let group = curve.knapsack_group(|p| match m.slo() {
                    Some(target) if p.perf / nocap + 1e-9 >= target => p.perf / nocap + SLO_BONUS,
                    _ => p.perf / nocap,
                });
                (curve, group)
            })
            .unzip();
        let allocations = Knapsack::build(&groups, levels)
            .split(levels)
            .unwrap_or_else(|| vec![0; apps.len()]);

        // Partition the outcome: pinned latency-critical apps, spatial
        // batch apps, and starved batch apps that must rotate.
        let mut pinned = BTreeMap::new();
        let mut spatial = BTreeMap::new();
        let mut starved = false;
        for (((name, m), curve), give) in apps.iter().zip(&curves).zip(allocations) {
            let Some(idx) = curve.at_level(give).best_index else {
                starved = true;
                continue;
            };
            let side = if m.slo().is_some() {
                &mut pinned
            } else {
                &mut spatial
            };
            side.insert(name.to_string(), idx);
        }

        // Every app (including LC apps whose SLO could not be met but
        // that still got a feasible budget) runs spatially when nothing
        // starved.
        if !starved {
            let mut settings = pinned;
            settings.append(&mut spatial);
            return Schedule::Space { settings };
        }

        // Some batch app starved: all batch apps rotate fairly through
        // the budget left after the pinned latency-critical apps (the
        // paper's alternate duty-cycling, with LC apps exempted). LC
        // apps are never placed in slots.
        let pinned_used: Watts = pinned
            .iter()
            .filter_map(|(name, idx)| {
                apps.iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, m)| m.power(*idx))
            })
            .sum();
        let leftover = (budget - pinned_used).max_zero();
        // Batch apps rotate; so does a latency-critical app whose budget
        // could not be met at all — running it degraded in the rotation
        // beats parking it forever.
        let rotating: Vec<(String, usize)> = apps
            .iter()
            .filter(|(name, _)| !pinned.contains_key(*name))
            .filter_map(|(name, m)| {
                let (idx, _) = m.best_within(leftover, &m.feasible_indices())?;
                Some((name.to_string(), idx))
            })
            .collect();
        if rotating.is_empty() && pinned.is_empty() {
            return Schedule::Infeasible;
        }
        Schedule::Hybrid {
            pinned,
            slots: TimeSlot::fair(self.cycle, rotating),
        }
    }

    /// Whether `other` plans exactly as this planner does: the same spec
    /// (see [`crate::policy::same_spec`]), cycle and budget step.
    pub(crate) fn plans_like(&self, other: &Self) -> bool {
        same_spec(&self.spec, &other.spec)
            && self.cycle.value().to_bits() == other.cycle.value().to_bits()
            && self.step.value().to_bits() == other.step.value().to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::catalog;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn measure(p: powermed_workloads::AppProfile) -> AppMeasurement {
        AppMeasurement::exhaustive(&spec(), &p)
    }

    #[test]
    fn slo_app_gets_its_floor_first() {
        let planner = SloPlanner::new(spec());
        let lc = measure(catalog::x264().with_slo(0.85));
        let batch = measure(catalog::bfs());
        let apps = [("x264", &lc), ("bfs", &batch)];
        // 95 W: budget 25 W. x264 needs its SLO budget before bfs eats in.
        let schedule = planner.plan(&apps, Watts::new(95.0));
        match &schedule {
            Schedule::Space { settings } => {
                let idx = settings["x264"];
                let norm = lc.perf(idx) / lc.nocap_perf();
                assert!(norm >= 0.85, "x264 SLO not met: {norm:.3}");
            }
            other => panic!("expected Space at 95 W, got {other:?}"),
        }
    }

    #[test]
    fn stringent_cap_pins_lc_and_rotates_batch() {
        let planner = SloPlanner::new(spec());
        let lc = measure(catalog::x264().with_slo(0.5));
        let b1 = measure(catalog::bfs());
        let b2 = measure(catalog::kmeans());
        let apps = [("x264", &lc), ("bfs", &b1), ("kmeans", &b2)];
        // 92 W: budget 22 W. LC floor ~9 W leaves ~13 W: not enough for
        // both batch apps simultaneously.
        let schedule = planner.plan(&apps, Watts::new(92.0));
        match &schedule {
            Schedule::Hybrid { pinned, slots } => {
                assert!(pinned.contains_key("x264"), "LC app pinned");
                let idx = pinned["x264"];
                assert!(lc.perf(idx) / lc.nocap_perf() >= 0.5);
                assert!(!slots.is_empty(), "batch apps rotate");
                for slot in slots {
                    assert_ne!(slot.app, "x264", "LC app never in a slot");
                }
            }
            other => panic!("expected Hybrid, got {other:?}"),
        }
    }

    #[test]
    fn impossible_slo_degrades_gracefully() {
        let planner = SloPlanner::new(spec());
        // Two apps each demanding 95% of uncapped under a budget that
        // cannot host both: one SLO is satisfied, everyone still runs or
        // rotates.
        let a = measure(catalog::x264().with_slo(0.95));
        let b = measure(catalog::kmeans().with_slo(0.95));
        let apps = [("x264", &a), ("kmeans", &b)];
        let schedule = planner.plan(&apps, Watts::new(95.0));
        let met = match &schedule {
            Schedule::Space { settings } => settings
                .iter()
                .filter(|(n, idx)| {
                    let m = if *n == "x264" { &a } else { &b };
                    m.perf(**idx) / m.nocap_perf() >= 0.95
                })
                .count(),
            Schedule::Hybrid { pinned, .. } => pinned
                .iter()
                .filter(|(n, idx)| {
                    let m = if *n == "x264" { &a } else { &b };
                    m.perf(**idx) / m.nocap_perf() >= 0.95
                })
                .count(),
            other => panic!("unexpected schedule {other:?}"),
        };
        assert_eq!(met, 1, "exactly one of the two SLOs is satisfiable");
    }

    #[test]
    fn wide_budgets_match_the_reference_dp() {
        // A 400 W cap on mix 14 leaves 330 one-watt levels, more than a
        // `u8` knapsack cell can index.
        let planner = SloPlanner::new(spec());
        let mix = powermed_workloads::mixes::mix(14).expect("mix 14");
        let lc = measure(mix.app1.clone().with_slo(0.8));
        let batch = measure(mix.app2.clone());
        let apps = [(mix.app1.name(), &lc), (mix.app2.name(), &batch)];
        let schedule = planner.plan(&apps, Watts::new(400.0));
        let budget = Watts::new(330.0);
        let curves: Vec<UtilityCurve> = apps
            .iter()
            .map(|(_, m)| UtilityCurve::build(m, &m.feasible_indices(), budget, Watts::new(1.0)))
            .collect();
        let reference: Vec<(Vec<f64>, f64, Option<f64>)> = apps
            .iter()
            .zip(&curves)
            .map(|((_, m), curve)| {
                let perf = curve.points().iter().map(|p| p.perf).collect();
                (perf, m.nocap_perf().max(1e-12), m.slo())
            })
            .collect();
        let gives = crate::knapsack::tests::slo_reference(&reference, 330);
        let settings = apps
            .iter()
            .zip(&curves)
            .zip(gives)
            .map(|(((name, _), curve), g)| {
                let idx = curve.at_level(g).best_index.expect("330 W hosts both");
                (name.to_string(), idx)
            })
            .collect();
        assert_eq!(schedule, Schedule::Space { settings });
    }

    #[test]
    fn pure_batch_group_behaves_like_plain_planning() {
        let planner = SloPlanner::new(spec());
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let schedule = planner.plan(&apps, Watts::new(100.0));
        assert!(matches!(schedule, Schedule::Space { .. }));
        assert!(
            planner.plan(&[], Watts::new(100.0))
                == Schedule::Space {
                    settings: BTreeMap::new()
                }
        );
    }
}
