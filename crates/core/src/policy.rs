//! The five evaluated power-management schemes (Sec. IV).
//!
//! | Scheme | App-level utilities | Resource-level utilities | ESD |
//! |---|---|---|---|
//! | `UtilUnaware` (baseline 1) | no — equal split | no — package-RAPL frequency throttling | no |
//! | `ServerResAware` (baseline 2) | no — equal split | server-averaged only | no |
//! | `AppAware` | yes — DP apportionment | no — frequency throttling within the share | no |
//! | `AppResAware` | yes | yes — full `(f, n, m)` grid per app | no |
//! | `AppResEsdAware` | yes | yes | yes — Eq. 5 consolidated cycling |

use powermed_server::ServerSpec;
use powermed_units::{Seconds, Watts};

use crate::allocator::{Allocation, PowerAllocator};
use crate::coordinator::{Coordinator, EsdParams, Schedule};
use crate::measurement::AppMeasurement;
use crate::utility::UtilityCurve;
use powermed_workloads::catalog;

/// Which of the five evaluated schemes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Fair power split, RAPL-style frequency enforcement (baseline 1).
    UtilUnaware,
    /// Fair split, knobs picked by server-averaged resource utilities
    /// (baseline 2).
    ServerResAware,
    /// Utility-aware apportionment across apps, frequency-only knobs.
    AppAware,
    /// Apportionment across apps *and* across each app's resources.
    AppResAware,
    /// `AppResAware` plus ESD-backed temporal coordination.
    AppResEsdAware,
}

impl PolicyKind {
    /// All five schemes in the paper's presentation order.
    pub fn all() -> [PolicyKind; 5] {
        [
            Self::UtilUnaware,
            Self::ServerResAware,
            Self::AppAware,
            Self::AppResAware,
            Self::AppResEsdAware,
        ]
    }

    /// The scheme's display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Self::UtilUnaware => "Util-Unaware",
            Self::ServerResAware => "Server+Res-Aware",
            Self::AppAware => "App-Aware",
            Self::AppResAware => "App+Res-Aware",
            Self::AppResEsdAware => "App+Res+ESD-Aware",
        }
    }

    /// Whether the scheme exploits energy storage.
    pub fn uses_esd(self) -> bool {
        matches!(self, Self::AppResEsdAware)
    }
}

impl core::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A configured power policy: apportions the budget and produces a
/// [`Schedule`] for the coordinator's modes.
#[derive(Debug, Clone)]
pub struct PowerPolicy {
    kind: PolicyKind,
    spec: ServerSpec,
    coordinator: Coordinator,
    /// The catalog-averaged utility surface `ServerResAware` picks its
    /// one setting from (kept only for that scheme).
    server_average: Option<AppMeasurement>,
    /// The chain of settings the catalog-averaged surface prefers at
    /// each integer-watt budget: the knob family of `ServerResAware`
    /// and `AppAware` (empty for the other schemes).
    average_family: Vec<usize>,
}

impl PowerPolicy {
    /// Creates a policy of `kind` for the platform `spec`, with a 10 s
    /// nominal duty cycle.
    pub fn new(kind: PolicyKind, spec: ServerSpec) -> Self {
        let coordinator = Coordinator::new(&spec, Seconds::new(10.0));
        let server_average = matches!(kind, PolicyKind::ServerResAware | PolicyKind::AppAware)
            .then(|| {
                let all: Vec<AppMeasurement> = catalog::all()
                    .iter()
                    .map(|p| AppMeasurement::exhaustive(&spec, p))
                    .collect();
                AppMeasurement::server_average(&all)
            });
        let average_family = server_average
            .as_ref()
            .map_or_else(Vec::new, |avg| average_family(avg, &spec));
        let server_average = server_average.filter(|_| kind == PolicyKind::ServerResAware);
        Self {
            kind,
            spec,
            coordinator,
            server_average,
            average_family,
        }
    }

    /// Overrides the nominal duty-cycle period used by temporal
    /// schedules (default 10 s).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn with_cycle_period(mut self, period: Seconds) -> Self {
        self.coordinator = Coordinator::new(&self.spec, period);
        self
    }

    /// Whether `other` plans exactly as this policy does: the same
    /// scheme, spec (see [`same_spec`]) and cycle period, which the rest
    /// of a policy derives from.
    pub(crate) fn plans_like(&self, other: &Self) -> bool {
        self.kind == other.kind
            && self.coordinator.cycle().value().to_bits()
                == other.coordinator.cycle().value().to_bits()
            && same_spec(&self.spec, &other.spec)
    }

    /// The scheme this policy implements.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The knob family this scheme actuates for `app`.
    ///
    /// * `UtilUnaware` enforces budgets through RAPL's balanced
    ///   reduction of the frequency and DRAM domains with all cores
    ///   online — no utility knowledge at all.
    /// * `ServerResAware` and `AppAware` pick knobs from the
    ///   catalog-averaged utility surface: resource utilities are known
    ///   only *on average*, not per application (App-Aware adds
    ///   app-level budget apportionment on top).
    /// * The resource-aware schemes search the whole feasible
    ///   `(f, n, m)` grid per application.
    pub fn family(&self, app: &AppMeasurement) -> Vec<usize> {
        match self.kind {
            PolicyKind::UtilUnaware => app.balanced_family(&self.spec),
            PolicyKind::ServerResAware | PolicyKind::AppAware => self.average_family.clone(),
            PolicyKind::AppResAware | PolicyKind::AppResEsdAware => app.feasible_indices(),
        }
    }

    /// Apportions the dynamic budget across `apps` the way this scheme
    /// would.
    pub fn apportion(&self, apps: &[(&str, &AppMeasurement)], budget: Watts) -> Allocation {
        let families: Vec<Vec<usize>> = apps.iter().map(|(_, m)| self.family(m)).collect();
        self.apportion_within(apps, &families, budget)
    }

    /// [`PowerPolicy::apportion`], with `families[i]` the knob family
    /// of app `i`.
    fn apportion_within(
        &self,
        apps: &[(&str, &AppMeasurement)],
        families: &[Vec<usize>],
        budget: Watts,
    ) -> Allocation {
        let ms: Vec<(&AppMeasurement, Option<&[usize]>)> = apps
            .iter()
            .zip(families)
            .map(|((_, m), f)| (*m, Some(f.as_slice())))
            .collect();
        match self.kind {
            PolicyKind::UtilUnaware => PowerAllocator::default().equal_split(&ms, budget),
            PolicyKind::ServerResAware => self.server_res_aware(apps, budget),
            PolicyKind::AppAware | PolicyKind::AppResAware | PolicyKind::AppResEsdAware => {
                let total_cores = self.spec.topology().total_cores();
                if apps.len() * self.spec.max_app_cores() > total_cores {
                    // Three or more apps can overcommit the cores: run
                    // the joint (watts, cores) program.
                    PowerAllocator::default().apportion_with_cores(&ms, budget, total_cores)
                } else {
                    PowerAllocator::default().apportion(&ms, budget)
                }
            }
        }
    }

    /// Baseline 2: equal budgets; one knob setting chosen from the
    /// server-level utility surface — resource utilities *averaged
    /// across all applications* the server has seen (the catalog), with
    /// no knowledge of the co-located apps' individual preferences — and
    /// applied to every app.
    fn server_res_aware(&self, apps: &[(&str, &AppMeasurement)], budget: Watts) -> Allocation {
        let avg = self
            .server_average
            .as_ref()
            .expect("ServerResAware policy carries the catalog average");
        let share = budget / apps.len() as f64;
        let setting = avg
            .best_within(share, &avg.feasible_indices())
            .map(|(i, _)| i);
        apps.iter()
            .map(|(_, m)| {
                let p = setting.map_or(0.0, |i| m.perf(i)) / m.nocap_perf().max(1e-12);
                (share, setting, p)
            })
            .collect()
    }

    /// Plans the full schedule for `apps` under `p_cap`.
    ///
    /// `esd` is only consulted by ESD-aware schemes.
    pub fn plan(
        &self,
        apps: &[(&str, &AppMeasurement)],
        p_cap: Watts,
        esd: Option<EsdParams>,
    ) -> Schedule {
        if apps.is_empty() {
            return Schedule::Space {
                settings: Default::default(),
            };
        }
        let budget =
            (p_cap - self.spec.idle_power() - self.spec.chip_maintenance_power()).max_zero();
        let families: Vec<Vec<usize>> = apps.iter().map(|(_, m)| self.family(m)).collect();
        let allocation = self.apportion_within(apps, &families, budget);
        let esd = if self.kind.uses_esd() { esd } else { None };
        self.coordinator
            .schedule(apps, &families, &allocation, p_cap, esd)
    }
}

/// The chain of settings `avg` prefers at each integer-watt budget up
/// to `spec`'s rated power: the distinct settings of its utility curve.
fn average_family(avg: &AppMeasurement, spec: &ServerSpec) -> Vec<usize> {
    let max_budget = spec.rated_power().value().ceil() as usize;
    let curve = UtilityCurve::build(
        avg,
        &avg.feasible_indices(),
        Watts::new(max_budget as f64),
        Watts::new(1.0),
    );
    let mut chain: Vec<usize> = curve.points().iter().filter_map(|p| p.best_index).collect();
    chain.sort_unstable();
    chain.dedup();
    chain
}

/// Whether two specs plan alike: equal by `==`, and the watts a spec
/// builder can override equal by their bits as well, so a signed zero
/// cannot pass for its opposite.
pub(crate) fn same_spec(a: &ServerSpec, b: &ServerSpec) -> bool {
    let bits = |spec: &ServerSpec| {
        [
            spec.idle_power(),
            spec.chip_maintenance_power(),
            spec.dram_limit_min(),
            spec.dram_limit_max(),
        ]
        .map(|w| w.value().to_bits())
    };
    a == b && bits(a) == bits(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::tests::{allocation_bits, apportion_with_cores_reference};
    use crate::knapsack::Knapsack;
    use crate::measurement::tests::{balanced_family_reference, random_measurement};
    use crate::utility::tests::build_reference;
    use powermed_units::rng::SplitMix;
    use powermed_units::Ratio;
    use powermed_workloads::{catalog, mixes};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The parent's knob family: the balanced chain scanned per budget,
    /// the average chain from one `best_within` per integer-watt budget.
    fn family_reference(policy: &PowerPolicy, app: &AppMeasurement) -> Vec<usize> {
        match policy.kind {
            PolicyKind::UtilUnaware => balanced_family_reference(app, &policy.spec),
            PolicyKind::ServerResAware | PolicyKind::AppAware => {
                let all: Vec<AppMeasurement> = catalog::all()
                    .iter()
                    .map(|p| AppMeasurement::exhaustive(&policy.spec, p))
                    .collect();
                let avg = &AppMeasurement::server_average(&all);
                let feasible = avg.feasible_indices();
                let max_budget = policy.spec.rated_power().value().ceil() as usize;
                let mut chain: Vec<usize> = (0..=max_budget)
                    .filter_map(|b| avg.best_within(Watts::new(b as f64), &feasible))
                    .map(|(i, _)| i)
                    .collect();
                chain.sort_unstable();
                chain.dedup();
                chain
            }
            PolicyKind::AppResAware | PolicyKind::AppResEsdAware => app.feasible_indices(),
        }
    }

    /// The parent's `PowerAllocator::apportion`, on reference curves.
    fn apportion_reference(
        apps: &[(&AppMeasurement, Option<&[usize]>)],
        budget: Watts,
    ) -> Allocation {
        let step = Watts::new(1.0);
        let levels = (budget.value() / step.value()).floor().max(0.0) as usize;
        let (curves, groups): (Vec<_>, Vec<_>) = apps
            .iter()
            .map(|(m, family)| {
                let fam = family.map_or_else(|| m.feasible_indices(), <[usize]>::to_vec);
                let curve = build_reference(m, &fam, budget, step);
                let nocap = m.nocap_perf().max(1e-12);
                let group = curve.knapsack_group(|p| p.perf / nocap);
                ((curve, nocap), group)
            })
            .unzip();
        let gives = Knapsack::build(&groups, levels)
            .split(levels)
            .unwrap_or_else(|| vec![0; apps.len()]);
        curves
            .iter()
            .zip(gives)
            .map(|((curve, nocap), give)| {
                let point = curve.at_level(give);
                (step * give as f64, point.best_index, point.perf / nocap)
            })
            .collect()
    }

    /// The parent's `plan`: every family built once for the
    /// apportionment and again for the coordinator, on the reference
    /// family, curve and core-aware builds.
    fn plan_reference(
        policy: &PowerPolicy,
        apps: &[(&str, &AppMeasurement)],
        p_cap: Watts,
        esd: Option<EsdParams>,
    ) -> Schedule {
        if apps.is_empty() {
            return Schedule::Space {
                settings: Default::default(),
            };
        }
        let spec = &policy.spec;
        let budget = (p_cap - spec.idle_power() - spec.chip_maintenance_power()).max_zero();
        let families: Vec<Vec<usize>> = apps
            .iter()
            .map(|(_, m)| family_reference(policy, m))
            .collect();
        let ms: Vec<(&AppMeasurement, Option<&[usize]>)> = apps
            .iter()
            .zip(&families)
            .map(|((_, m), f)| (*m, Some(f.as_slice())))
            .collect();
        let allocation = match policy.kind {
            PolicyKind::UtilUnaware => PowerAllocator::default().equal_split(&ms, budget),
            PolicyKind::ServerResAware => policy.server_res_aware(apps, budget),
            PolicyKind::AppAware | PolicyKind::AppResAware | PolicyKind::AppResEsdAware => {
                let total_cores = spec.topology().total_cores();
                if apps.len() * spec.max_app_cores() > total_cores {
                    apportion_with_cores_reference(&ms, budget, total_cores)
                } else {
                    apportion_reference(&ms, budget)
                }
            }
        };
        let families: Vec<Vec<usize>> = apps
            .iter()
            .map(|(_, m)| family_reference(policy, m))
            .collect();
        let esd = if policy.kind.uses_esd() { esd } else { None };
        policy
            .coordinator
            .schedule(apps, &families, &allocation, p_cap, esd)
    }

    /// Checks `plan` against [`plan_reference`] and, where the ESD pass
    /// runs, the core-aware program at its ON budget against the
    /// full-table reference (the coordinator calls it on its own
    /// families).
    fn assert_plan_matches(
        policy: &PowerPolicy,
        apps: &[(&str, &AppMeasurement)],
        p_cap: Watts,
        esd: Option<EsdParams>,
    ) {
        let label = || format!("{} at {p_cap} with {esd:?}", policy.kind);
        assert_eq!(
            policy.plan(apps, p_cap, esd),
            plan_reference(policy, apps, p_cap, esd),
            "{}",
            label()
        );
        if let (true, Some(params)) = (policy.kind.uses_esd(), esd) {
            let spec = &policy.spec;
            let on_budget =
                p_cap - spec.idle_power() - spec.chip_maintenance_power() + params.max_discharge;
            let families: Vec<Vec<usize>> = apps.iter().map(|(_, m)| policy.family(m)).collect();
            let ms: Vec<(&AppMeasurement, Option<&[usize]>)> = apps
                .iter()
                .zip(&families)
                .map(|((_, m), f)| (*m, Some(f.as_slice())))
                .collect();
            let cores = spec.topology().total_cores();
            assert_eq!(
                allocation_bits(
                    &PowerAllocator::default().apportion_with_cores(&ms, on_budget, cores)
                ),
                allocation_bits(&apportion_with_cores_reference(&ms, on_budget, cores)),
                "ESD pass, {}",
                label()
            );
        }
    }

    /// Every scheme on every Table II mix, caps of 50–115 W in 5 W
    /// steps, with and without a Lead-Acid device, plans what the
    /// reference plans.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
    fn plans_match_the_reference_on_every_mix_and_cap() {
        let spec = spec();
        let policies: Vec<PowerPolicy> = PolicyKind::all()
            .into_iter()
            .map(|kind| PowerPolicy::new(kind, spec.clone()))
            .collect();
        for mix in mixes::table2() {
            let a = measure(mix.app1.clone());
            let b = measure(mix.app2.clone());
            let apps = [(mix.app1.name(), &a), (mix.app2.name(), &b)];
            for policy in &policies {
                for cap in (50..=115).step_by(5) {
                    for esd in [None, Some(lead_acid())] {
                        assert_plan_matches(policy, &apps, Watts::new(cap as f64), esd);
                    }
                }
            }
        }
    }

    /// Every scheme on three-app mixes, which overcommit the twelve
    /// cores and so plan through the core-aware program: `server_composed`'s
    /// kmeans + pagerank + stream and every run of three consecutive
    /// catalog apps, caps of 50–115 W in 5 W steps, with and without a
    /// Lead-Acid device, plan what the reference plans.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
    fn three_app_plans_match_the_reference_at_every_cap() {
        let spec = spec();
        let policies: Vec<PowerPolicy> = PolicyKind::all()
            .into_iter()
            .map(|kind| PowerPolicy::new(kind, spec.clone()))
            .collect();
        let catalog = catalog::all();
        let composed = vec![catalog::kmeans(), catalog::pagerank(), catalog::stream()];
        let runs = (0..catalog.len()).map(|i| {
            (0..3)
                .map(|j| catalog[(i + j) % catalog.len()].clone())
                .collect()
        });
        for profiles in std::iter::once(composed).chain(runs) {
            let ms: Vec<AppMeasurement> = profiles.iter().map(|p| measure(p.clone())).collect();
            let apps: Vec<(&str, &AppMeasurement)> =
                profiles.iter().map(|p| p.name()).zip(&ms).collect();
            assert!(apps.len() * spec.max_app_cores() > spec.topology().total_cores());
            for policy in &policies {
                for cap in (50..=115).step_by(5) {
                    for esd in [None, Some(lead_acid())] {
                        assert_plan_matches(policy, &apps, Watts::new(cap as f64), esd);
                    }
                }
            }
        }
    }

    mod matches_reference {
        use super::*;

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// Every scheme plans what the reference plans, or both panic,
            /// for one to four random surfaces (tied, off-grid, signed-zero
            /// and NaN powers, NaN perfs) under caps from below idle to past
            /// saturation, with and without a device.
            #[test]
            fn prop_plan_matches_the_reference_plan(seed in 0u64..u64::MAX) {
                let mut rng = SplitMix::new(seed);
                let kind = PolicyKind::all()[rng.below(5) as usize];
                let policy = PowerPolicy::new(kind, spec());
                let ms: Vec<AppMeasurement> =
                    (0..1 + rng.below(4)).map(|_| random_measurement(&mut rng)).collect();
                let names = ["a0", "a1", "a2", "a3"];
                let apps: Vec<(&str, &AppMeasurement)> = names.iter().copied().zip(&ms).collect();
                let p_cap = Watts::new(match rng.below(4) {
                    0 => 40.0 + rng.below(30) as f64,
                    1 => 150.0 + rng.below(60) as f64,
                    _ => 70.0 + rng.below(60) as f64 + [0.0, 0.5][rng.below(2) as usize],
                });
                let esd = (rng.below(2) == 0).then(lead_acid);
                let fast = catch_unwind(AssertUnwindSafe(|| format!("{:?}", policy.plan(&apps, p_cap, esd))));
                let slow = catch_unwind(AssertUnwindSafe(|| {
                    format!("{:?}", plan_reference(&policy, &apps, p_cap, esd))
                }));
                match (fast, slow) {
                    (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
                    (Err(_), Err(_)) => {}
                    (fast, slow) => prop_assert!(
                        false,
                        "one side panicked: plan ok {}, reference ok {}",
                        fast.is_ok(),
                        slow.is_ok()
                    ),
                }
            }
        }
    }

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn measure(p: powermed_workloads::AppProfile) -> AppMeasurement {
        AppMeasurement::exhaustive(&spec(), &p)
    }

    fn lead_acid() -> EsdParams {
        EsdParams {
            efficiency: Ratio::new(0.75),
            max_discharge: Watts::new(100.0),
            max_charge: Watts::new(50.0),
        }
    }

    #[test]
    fn names_and_esd_flags() {
        assert_eq!(PolicyKind::all().len(), 5);
        assert_eq!(PolicyKind::UtilUnaware.to_string(), "Util-Unaware");
        assert_eq!(PolicyKind::AppResEsdAware.name(), "App+Res+ESD-Aware");
        assert!(PolicyKind::AppResEsdAware.uses_esd());
        assert!(!PolicyKind::AppResAware.uses_esd());
    }

    #[test]
    fn families_match_scheme_capability() {
        let m = measure(catalog::stream());
        let spec = spec();
        let rapl = PowerPolicy::new(PolicyKind::UtilUnaware, spec.clone());
        let chain = rapl.family(&m);
        // The balanced RAPL chain is a small 1-D path through the
        // (f, m) plane with all cores online.
        assert!(
            chain.len() >= 5 && chain.len() <= 72,
            "chain {}",
            chain.len()
        );
        for idx in &chain {
            assert_eq!(m.grid().get(*idx).unwrap().cores(), 6);
        }
        let full = PowerPolicy::new(PolicyKind::AppResAware, spec);
        assert_eq!(full.family(&m).len(), 216);
    }

    #[test]
    fn policy_hierarchy_at_loose_cap() {
        // Fig. 8a's ordering: each added awareness level helps, averaged
        // across the Table II mixes at P_cap = 100 W.
        let spec = spec();
        let budget = Watts::new(30.0);
        let mut objs = std::collections::BTreeMap::new();
        for kind in [
            PolicyKind::UtilUnaware,
            PolicyKind::ServerResAware,
            PolicyKind::AppAware,
            PolicyKind::AppResAware,
        ] {
            let policy = PowerPolicy::new(kind, spec.clone());
            let mut total = 0.0;
            for mix in mixes::table2() {
                let a = measure(mix.app1.clone());
                let b = measure(mix.app2.clone());
                let apps = [(mix.app1.name(), &a), (mix.app2.name(), &b)];
                total += policy.apportion(&apps, budget).objective;
            }
            objs.insert(kind.name(), total / 15.0);
        }
        let uu = objs["Util-Unaware"];
        let aa = objs["App-Aware"];
        let ar = objs["App+Res-Aware"];
        assert!(aa >= uu - 1e-9, "App-Aware {aa} vs Util-Unaware {uu}");
        assert!(ar >= aa - 1e-9, "App+Res {ar} vs App-Aware {aa}");
        assert!(
            ar > uu * 1.05,
            "resource+app awareness should clearly beat the baseline: {ar} vs {uu}"
        );
    }

    #[test]
    fn app_res_beats_app_aware_on_memory_mixes() {
        // Mix-1 (STREAM + kmeans): the paper highlights that resource
        // awareness is what helps here, not app-level splitting.
        let spec = spec();
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let budget = Watts::new(30.0);
        let app_aware = PowerPolicy::new(PolicyKind::AppAware, spec.clone())
            .apportion(&apps, budget)
            .objective;
        let app_res = PowerPolicy::new(PolicyKind::AppResAware, spec)
            .apportion(&apps, budget)
            .objective;
        assert!(
            app_res > app_aware * 1.015,
            "App+Res {app_res} should beat App-Aware {app_aware} on mix-1"
        );
    }

    #[test]
    fn plan_modes_follow_cap() {
        let spec = spec();
        let a = measure(catalog::pagerank());
        let b = measure(catalog::kmeans());
        let apps = [("pagerank", &a), ("kmeans", &b)];
        let policy = PowerPolicy::new(PolicyKind::AppResAware, spec.clone());
        assert!(matches!(
            policy.plan(&apps, Watts::new(100.0), None),
            Schedule::Space { .. }
        ));
        assert!(matches!(
            policy.plan(&apps, Watts::new(80.0), None),
            Schedule::Alternate { .. }
        ));
        let esd_policy = PowerPolicy::new(PolicyKind::AppResEsdAware, spec);
        assert!(matches!(
            esd_policy.plan(&apps, Watts::new(80.0), Some(lead_acid())),
            Schedule::EsdCycle { .. }
        ));
        // Non-ESD schemes ignore the device even if present.
        let no_esd = PowerPolicy::new(PolicyKind::AppResAware, ServerSpec::xeon_e5_2620());
        assert!(matches!(
            no_esd.plan(&apps, Watts::new(80.0), Some(lead_acid())),
            Schedule::Alternate { .. }
        ));
    }

    #[test]
    fn empty_plan_is_trivial_space() {
        let policy = PowerPolicy::new(PolicyKind::AppResAware, spec());
        match policy.plan(&[], Watts::new(100.0), None) {
            Schedule::Space { settings } => assert!(settings.is_empty()),
            other => panic!("expected empty Space, got {other:?}"),
        }
    }

    #[test]
    fn server_res_aware_applies_one_setting_to_all() {
        let a = measure(catalog::stream());
        let b = measure(catalog::kmeans());
        let apps = [("stream", &a), ("kmeans", &b)];
        let policy = PowerPolicy::new(PolicyKind::ServerResAware, spec());
        let alloc = policy.apportion(&apps, Watts::new(30.0));
        assert_eq!(alloc.settings[0], alloc.settings[1]);
        assert_eq!(alloc.budgets[0], alloc.budgets[1]);
    }
}
