//! Power utility curves and resource-level marginal utilities.
//!
//! A utility curve answers: *given `b` watts of dynamic power budget,
//! what is the best performance this application can reach, and with
//! which knob setting?* Its slope is the paper's "utility per watt"
//! (Fig. 2); the per-knob decomposition of that slope is the
//! resource-level utility of Fig. 3/9d.

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
    /// # Panics
    ///
    /// Panics if `step` is not positive or `family` is empty.
    pub fn build(app: &AppMeasurement, family: &[usize], max_budget: Watts, step: Watts) -> Self {
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
    pub fn perf_at(&self, budget: Watts) -> f64 {
        let level = ((budget.value() / self.step.value()).floor() as usize)
            .min(self.points.len().saturating_sub(1));
        self.points[level].perf
    }

    /// The first budget level with non-zero performance, if any — the
    /// app's power floor on this knob family.
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
mod tests {
    use super::*;
    use powermed_workloads::catalog;

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
