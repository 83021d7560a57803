//! Power utility curves and resource-level marginal utilities.
//!
//! A utility curve answers: *given `b` watts of dynamic power budget,
//! what is the best performance this application can reach, and with
//! which knob setting?* Its slope is the paper's "utility per watt"
//! (Fig. 2); the per-knob decomposition of that slope is the
//! resource-level utility of Fig. 3/9d.

use std::cmp::Ordering;

use powermed_server::ServerSpec;
use powermed_units::Watts;

use crate::measurement::AppMeasurement;

/// One point of a utility curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The dynamic power budget.
    pub budget: Watts,
    /// Best achievable performance within the budget (0 when the budget
    /// is below the app's floor).
    pub perf: f64,
    /// Grid index of the setting achieving it (`None` below the floor).
    pub best_index: Option<usize>,
}

/// A per-application utility curve on an integer-watt budget grid.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilityCurve {
    step: Watts,
    points: Vec<CurvePoint>,
}

impl UtilityCurve {
    /// Builds the curve for `app` over budgets `0, step, 2·step, …,
    /// max_budget`, restricted to the knob `family` (grid indices).
    ///
    /// Each point is [`AppMeasurement::best_within`] at its budget,
    /// found in one sweep: the family's settings enter in power order
    /// as the budget (plus 1e-9 W) reaches them, and the best so far is
    /// the highest perf, the later family position on ties (a repeated
    /// index counts at its last position). As in `best_within`, two
    /// settings with a NaN perf among them cannot be compared and panic.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive, `family` is empty or holds an
    /// index off the grid, or a NaN perf meets another setting within
    /// `max_budget`.
    pub fn build(app: &AppMeasurement, family: &[usize], max_budget: Watts, step: Watts) -> Self {
        assert!(step.value() > 0.0, "budget step must be positive");
        assert!(!family.is_empty(), "knob family must be non-empty");
        let n = (max_budget.value() / step.value()).floor() as usize + 1;
        // Each family member's last position (`usize::MAX` off the
        // family).
        let mut position = vec![usize::MAX; app.grid().len()];
        for (p, &i) in family.iter().enumerate() {
            position[i] = p;
        }
        let runs = |i: usize| {
            app.grid()
                .get(i)
                .is_some_and(|k| k.cores() >= app.min_cores())
        };
        let mut entering = app
            .power_order()
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| position[i] != usize::MAX && runs(i))
            .peekable();
        let mut best: Option<(usize, f64)> = None;
        let mut points = Vec::with_capacity(n);
        for level in 0..n {
            let budget = step * level as f64;
            let limit = budget + Watts::new(1e-9);
            while let Some(i) = entering.next_if(|&i| app.power(i) <= limit) {
                let perf = app.perf(i);
                best = Some(match best {
                    None => {
                        // A lone setting is compared only with its own
                        // repeats.
                        if perf.is_nan() && family.iter().filter(|&&j| j == i).nth(1).is_some() {
                            panic!("finite perf");
                        }
                        (i, perf)
                    }
                    Some((b, best_perf)) => {
                        match perf.partial_cmp(&best_perf).expect("finite perf") {
                            Ordering::Greater => (i, perf),
                            Ordering::Equal if position[i] > position[b] => (i, perf),
                            _ => (b, best_perf),
                        }
                    }
                });
            }
            points.push(CurvePoint {
                budget,
                perf: best.map_or(0.0, |(_, p)| p),
                best_index: best.map(|(i, _)| i),
            });
        }
        Self { step, points }
    }

    /// The budget grid step.
    pub fn step(&self) -> Watts {
        self.step
    }

    /// The curve point at budget level `level` (budget = `level · step`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is out of range.
    pub fn at_level(&self, level: usize) -> CurvePoint {
        self.points[level]
    }

    /// The best performance within `budget` (interpolating down to the
    /// nearest grid level).
    #[cfg(test)]
    pub fn perf_at(&self, budget: Watts) -> f64 {
        let level = ((budget.value() / self.step.value()).floor() as usize)
            .min(self.points.len().saturating_sub(1));
        self.points[level].perf
    }

    /// The first budget level with non-zero performance, if any — the
    /// app's power floor on this knob family.
    #[cfg(test)]
    pub fn floor_level(&self) -> Option<usize> {
        self.points.iter().position(|p| p.perf > 0.0)
    }

    /// All points of the curve.
    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    /// The curve as one [`crate::knapsack::Knapsack`] group: level `g`
    /// needs `g` levels and is worth `value` of the point there.
    pub(crate) fn knapsack_group(&self, value: impl Fn(&CurvePoint) -> f64) -> Vec<(usize, f64)> {
        self.points.iter().map(value).enumerate().collect()
    }
}

/// Resource-level marginal utilities at a budget: how much performance
/// one extra watt buys when spent on each individual knob, starting from
/// the app's best setting within `budget` (the decomposition behind
/// Fig. 3 and Fig. 9d).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceMarginals {
    /// Perf gain per watt from raising the DVFS state.
    pub frequency: f64,
    /// Perf gain per watt from un-gating one more core.
    pub cores: f64,
    /// Perf gain per watt from raising the DRAM RAPL limit.
    pub memory: f64,
}

/// Computes [`ResourceMarginals`] for `app` at `budget` on `spec`.
///
/// Starting from the best feasible setting within `budget`, the marginal
/// utility of a resource is the best *performance-per-watt chord slope*
/// reachable by raising that knob alone (other knobs held fixed).
/// Steps cheaper than 0.25 W are skipped — a knob whose upper range is
/// effectively free carries no meaningful power utility to plot. Zero
/// when the knob is already maxed or buys nothing.
pub fn resource_marginals(
    spec: &ServerSpec,
    app: &AppMeasurement,
    budget: Watts,
) -> Option<ResourceMarginals> {
    let family: Vec<usize> = app.feasible_indices();
    let (base_idx, base_perf) = app.best_within(budget, &family)?;
    let base_knob = app.grid().get(base_idx)?;
    let base_power = app.power(base_idx);
    const MIN_STEP: f64 = 0.25;

    // Best perf-per-watt chord along one knob axis.
    let slope = |candidates: Vec<Option<usize>>| -> f64 {
        candidates
            .into_iter()
            .flatten()
            .filter_map(|i| {
                let dp = (app.power(i) - base_power).value();
                if dp < MIN_STEP {
                    return None;
                }
                Some(((app.perf(i) - base_perf) / dp).max(0.0))
            })
            .fold(0.0f64, f64::max)
    };

    let freq_candidates: Vec<Option<usize>> = spec
        .ladder()
        .states()
        .filter(|f| *f > base_knob.dvfs())
        .map(|f| app.grid().index_of(base_knob.with_dvfs(f)))
        .collect();
    let core_candidates: Vec<Option<usize>> = ((base_knob.cores() + 1)..=spec.max_app_cores())
        .map(|n| app.grid().index_of(base_knob.with_cores(n)))
        .collect();
    let mut mem_candidates = Vec::new();
    let mut m = base_knob.dram_limit() + Watts::new(1.0);
    while m <= spec.dram_limit_max() + Watts::new(1e-9) {
        mem_candidates.push(app.grid().index_of(base_knob.with_dram_limit(m)));
        m += Watts::new(1.0);
    }

    Some(ResourceMarginals {
        frequency: slope(freq_candidates),
        cores: slope(core_candidates),
        memory: slope(mem_candidates),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::measurement::tests::{random_family, random_measurement};
    use powermed_units::rng::SplitMix;
    use powermed_workloads::catalog;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// The parent's curve build: one [`AppMeasurement::best_within`]
    /// scan of the whole family per budget level.
    pub(crate) fn build_reference(
        app: &AppMeasurement,
        family: &[usize],
        max_budget: Watts,
        step: Watts,
    ) -> UtilityCurve {
        assert!(step.value() > 0.0, "budget step must be positive");
        assert!(!family.is_empty(), "knob family must be non-empty");
        let n = (max_budget.value() / step.value()).floor() as usize + 1;
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let budget = step * i as f64;
            let best = app.best_within(budget, family);
            points.push(CurvePoint {
                budget,
                perf: best.map_or(0.0, |(_, p)| p),
                best_index: best.map(|(i, _)| i),
            });
        }
        UtilityCurve { step, points }
    }

    /// A curve's step and points, floats as bits.
    pub(crate) fn curve_bits(curve: &UtilityCurve) -> (u64, Vec<(u64, u64, Option<usize>)>) {
        let points = curve
            .points()
            .iter()
            .map(|p| (p.budget.value().to_bits(), p.perf.to_bits(), p.best_index))
            .collect();
        (curve.step().value().to_bits(), points)
    }

    mod matches_reference {
        use super::*;

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// The curve build agrees with one `best_within` per level, bit
            /// for bit, or both panic: random surfaces with tied, off-grid,
            /// signed-zero and NaN powers and NaN perfs; random families
            /// with repeats and settings below the minimum core count;
            /// budgets of 0, fractional, negative, below the floor and past
            /// saturation, on several steps.
            #[test]
            fn prop_curve_matches_best_within_per_level(seed in 0u64..u64::MAX) {
                let mut rng = SplitMix::new(seed);
                let m = random_measurement(&mut rng);
                let family = random_family(&mut rng, &m);
                let step = Watts::new([1.0, 1.0, 0.5, 2.0, 0.3][rng.below(5) as usize]);
                let max_budget = Watts::new(match rng.below(6) {
                    0 => 0.0,
                    1 => [0.4, 0.999, 1.5][rng.below(3) as usize],
                    2 => -3.0,
                    3 => 75.0 + rng.below(40) as f64,
                    _ => rng.below(60) as f64 + [0.0, 0.3, 0.75][rng.below(3) as usize],
                });
                let fast = catch_unwind(AssertUnwindSafe(|| {
                    curve_bits(&UtilityCurve::build(&m, &family, max_budget, step))
                }));
                let slow = catch_unwind(AssertUnwindSafe(|| {
                    curve_bits(&build_reference(&m, &family, max_budget, step))
                }));
                match (fast, slow) {
                    (Ok(fast), Ok(slow)) => prop_assert_eq!(fast, slow),
                    (Err(_), Err(_)) => {}
                    (fast, slow) => prop_assert!(
                        false,
                        "one side panicked: sweep ok {}, reference ok {}",
                        fast.is_ok(),
                        slow.is_ok()
                    ),
                }
            }
        }
    }

    /// One runnable setting with a NaN perf, alone within the budget: a
    /// family that lists it once gives a NaN curve, one that repeats it
    /// compares it with itself and panics, on both sides.
    #[test]
    fn a_lone_nan_perf_panics_only_when_repeated() {
        let grid = spec().knob_grid();
        let n = grid.len();
        let lone = n - 1;
        let mut power = vec![Watts::new(100.0); n];
        power[lone] = Watts::new(1.0);
        let mut perf = vec![1.0; n];
        perf[lone] = f64::NAN;
        let m = AppMeasurement::from_vectors("nan", grid, power, perf, 1);
        let (max, step) = (Watts::new(5.0), Watts::new(1.0));
        let once = UtilityCurve::build(&m, &[lone], max, step);
        assert_eq!(
            curve_bits(&once),
            curve_bits(&build_reference(&m, &[lone], max, step))
        );
        assert!(once.at_level(1).perf.is_nan());
        for build in [UtilityCurve::build, build_reference] {
            let twice = catch_unwind(AssertUnwindSafe(|| build(&m, &[lone, 0, lone], max, step)));
            assert!(twice.is_err(), "a repeated NaN perf is compared");
        }
    }

    #[test]
    fn curves_match_best_within_per_level_on_the_catalog() {
        for profile in catalog::all() {
            let m = measurement(profile);
            let spec = spec();
            for family in [m.feasible_indices(), m.frequency_family(&spec)] {
                let max = Watts::new(145.0);
                let step = Watts::new(1.0);
                assert_eq!(
                    curve_bits(&UtilityCurve::build(&m, &family, max, step)),
                    curve_bits(&build_reference(&m, &family, max, step)),
                    "{}",
                    m.name()
                );
            }
        }
    }

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn measurement(p: powermed_workloads::AppProfile) -> AppMeasurement {
        AppMeasurement::exhaustive(&spec(), &p)
    }

    #[test]
    fn curve_is_monotone_in_budget() {
        let m = measurement(catalog::bfs());
        let family = m.feasible_indices();
        let curve = UtilityCurve::build(&m, &family, Watts::new(30.0), Watts::new(1.0));
        let mut prev = -1.0;
        for p in curve.points() {
            assert!(p.perf >= prev, "utility must not fall with budget");
            prev = p.perf;
        }
    }

    #[test]
    fn floor_matches_min_feasible_power() {
        let m = measurement(catalog::kmeans());
        let family = m.feasible_indices();
        let curve = UtilityCurve::build(&m, &family, Watts::new(30.0), Watts::new(1.0));
        let floor_level = curve.floor_level().unwrap();
        let floor = m.min_feasible_power().unwrap().value();
        assert_eq!(floor_level, floor.ceil() as usize);
        assert_eq!(curve.at_level(floor_level - 1).perf, 0.0);
        assert!(curve.at_level(floor_level).perf > 0.0);
    }

    #[test]
    fn perf_at_interpolates_down() {
        let m = measurement(catalog::x264());
        let family = m.feasible_indices();
        let curve = UtilityCurve::build(&m, &family, Watts::new(30.0), Watts::new(1.0));
        assert_eq!(curve.perf_at(Watts::new(12.7)), curve.at_level(12).perf);
        // Beyond the top level clamps.
        assert_eq!(curve.perf_at(Watts::new(500.0)), curve.at_level(30).perf);
        assert_eq!(curve.points().len(), 31);
        assert_eq!(curve.step(), Watts::new(1.0));
    }

    #[test]
    fn curves_differ_across_apps_as_in_fig2() {
        // The premise of R1: at the same budget, different apps lose
        // different amounts of performance.
        let a = measurement(catalog::stream());
        let b = measurement(catalog::kmeans());
        let ca = UtilityCurve::build(&a, &a.feasible_indices(), Watts::new(25.0), Watts::new(1.0));
        let cb = UtilityCurve::build(&b, &b.feasible_indices(), Watts::new(25.0), Watts::new(1.0));
        let na = a.nocap_perf();
        let nb = b.nocap_perf();
        let ra = ca.perf_at(Watts::new(12.0)) / na;
        let rb = cb.perf_at(Watts::new(12.0)) / nb;
        assert!(
            (ra - rb).abs() > 0.05,
            "normalized perf at 12 W: stream {ra:.3} vs kmeans {rb:.3}"
        );
    }

    #[test]
    fn stream_memory_marginal_dominates_as_in_fig3() {
        let spec = spec();
        let m = measurement(catalog::stream());
        let mg = resource_marginals(&spec, &m, Watts::new(8.0)).unwrap();
        assert!(
            mg.memory > mg.frequency && mg.memory > mg.cores,
            "stream at 8 W: {mg:?}"
        );
    }

    #[test]
    fn kmeans_compute_marginal_dominates() {
        let spec = spec();
        let m = measurement(catalog::kmeans());
        let mg = resource_marginals(&spec, &m, Watts::new(10.0)).unwrap();
        assert!(
            mg.frequency > mg.memory || mg.cores > mg.memory,
            "kmeans at 10 W: {mg:?}"
        );
    }

    #[test]
    fn marginals_none_below_floor() {
        let spec = spec();
        let m = measurement(catalog::kmeans());
        assert!(resource_marginals(&spec, &m, Watts::new(1.0)).is_none());
    }

    #[test]
    fn marginals_zero_at_max_knob() {
        let spec = spec();
        let m = measurement(catalog::kmeans());
        // A huge budget lands on the max setting: no knob can step up.
        let mg = resource_marginals(&spec, &m, Watts::new(100.0)).unwrap();
        assert_eq!(mg.frequency, 0.0);
        assert_eq!(mg.cores, 0.0);
        assert_eq!(mg.memory, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_family_rejected() {
        let m = measurement(catalog::kmeans());
        let _ = UtilityCurve::build(&m, &[], Watts::new(10.0), Watts::new(1.0));
    }
}
