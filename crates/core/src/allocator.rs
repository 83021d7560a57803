//! The `PowerAllocator`: apportioning the dynamic power budget across
//! applications (Requirement R1) and down to their direct resources (R2).
//!
//! The objective is the paper's Eq. 1: maximize the sum over co-located
//! applications of performance normalized to uncapped execution. Utility
//! curves are non-convex (the chip-maintenance and floor effects), so a
//! greedy marginal-utility allocator can be arbitrarily wrong; instead we
//! run an exact dynamic program on an integer-watt budget grid. Each
//! app's utility curve is one sweep of its settings in power order, and
//! the knapsack over the curves costs apps × levels² steps. The joint
//! `(watts, cores)` program for three or more apps adds candidates² for
//! the last middle app and levels × cores × candidates for each earlier
//! one. On a 2-core VM a two-app plan for the paper's platform takes
//! 1–15 µs, and a three-app App+Res-Aware plan about 14–20 µs
//! (DESIGN.md §10, "Plan cost").

use std::borrow::Cow;

use powermed_units::Watts;

use crate::knapsack::Knapsack;
use crate::measurement::AppMeasurement;
use crate::utility::UtilityCurve;

/// The outcome of one apportionment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Allocation {
    /// Per-app power budgets, in the order the apps were given.
    pub budgets: Vec<Watts>,
    /// Per-app chosen grid index (the R2 resource split), `None` when
    /// the app's budget is below its floor (it must be time-multiplexed).
    pub settings: Vec<Option<usize>>,
    /// Per-app normalized performance achieved at the chosen setting.
    pub normalized_perf: Vec<f64>,
    /// The objective value (sum of normalized performances).
    pub objective: f64,
}

impl Allocation {
    /// Whether every application received a feasible (non-zero-perf)
    /// budget — i.e. space coordination suffices (R3a).
    pub fn all_feasible(&self) -> bool {
        self.settings.iter().all(Option::is_some)
    }
}

/// Collects one `(budget, setting, normalized perf)` per app, in app
/// order; the objective sums the normalized performances in that order.
impl FromIterator<(Watts, Option<usize>, f64)> for Allocation {
    fn from_iter<I: IntoIterator<Item = (Watts, Option<usize>, f64)>>(apps: I) -> Self {
        let mut out = Self::default();
        for (budget, setting, perf) in apps {
            out.budgets.push(budget);
            out.settings.push(setting);
            out.normalized_perf.push(perf);
            out.objective += perf;
        }
        out
    }
}

/// Exact DP apportionment of a dynamic power budget across applications.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerAllocator {
    step: Watts,
}

impl PowerAllocator {
    /// Creates an allocator with the given budget granularity (the paper
    /// allocates in 1 W units).
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive.
    pub fn new(step: Watts) -> Self {
        assert!(step.value() > 0.0, "allocation step must be positive");
        Self { step }
    }

    /// Apportions `budget` across `apps`, maximizing Eq. 1.
    ///
    /// Each app comes with an optional knob family restriction (grid
    /// indices); `None` means its full feasible grid. Returns budgets,
    /// per-app knob choices and the objective.
    ///
    /// Apps whose floor exceeds their achievable share end up with a
    /// zero budget and no setting — the coordinator then moves them to
    /// temporal multiplexing.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or `budget` spans 65,534 steps or more
    /// (see [`Knapsack::build`]).
    pub fn apportion(
        &self,
        apps: &[(&AppMeasurement, Option<&[usize]>)],
        budget: Watts,
    ) -> Allocation {
        assert!(!apps.is_empty(), "cannot apportion to zero apps");
        let levels = (budget.value() / self.step.value()).floor().max(0.0) as usize;

        // Utility curves per app, one point per budget level
        // `0..=levels`, and one knapsack group per app: `g` levels are
        // worth the curve's normalized performance at level `g`. Finite
        // curves reach every level; should one not, every app gets
        // nothing.
        let (curves, groups): (Vec<(UtilityCurve, f64)>, Vec<_>) = apps
            .iter()
            .map(|(m, family)| {
                let fam = family_or_feasible(m, *family);
                let curve = UtilityCurve::build(m, &fam, budget, self.step);
                let nocap = m.nocap_perf().max(1e-12);
                let group = curve.knapsack_group(|p| p.perf / nocap);
                ((curve, nocap), group)
            })
            .unzip();
        let gives = Knapsack::build(&groups, levels)
            .split(levels)
            .unwrap_or_else(|| vec![0; apps.len()]);

        // Resolve budgets, settings and per-app normalized perf.
        curves
            .iter()
            .zip(gives)
            .map(|((curve, nocap), give)| {
                let point = curve.at_level(give);
                (
                    self.step * give as f64,
                    point.best_index,
                    point.perf / nocap,
                )
            })
            .collect()
    }

    /// Equal (fair) apportionment: `budget / apps` each, with each app's
    /// best setting within its share — the Util-Unaware baseline's split.
    ///
    /// Models RAPL's best-effort enforcement: when even the family's
    /// cheapest setting exceeds the share, the hardware bottoms out at
    /// `f_min` rather than halting the app — the setting is used anyway
    /// as long as the overshoot stays within 15% of the share (beyond
    /// that, the operator must duty-cycle, so the app gets no setting).
    pub fn equal_split(
        &self,
        apps: &[(&AppMeasurement, Option<&[usize]>)],
        budget: Watts,
    ) -> Allocation {
        assert!(!apps.is_empty(), "cannot apportion to zero apps");
        let share = budget / apps.len() as f64;
        apps.iter()
            .map(|(m, family)| {
                let best = m.best_effort_within(share, &family_or_feasible(m, *family));
                let p = best.map_or(0.0, |(_, p)| p) / m.nocap_perf().max(1e-12);
                (share, best.map(|(i, _)| i), p)
            })
            .collect()
    }
}

/// Marks an empty candidate cell, and a cell whose app is suspended.
const NONE: usize = usize::MAX;

impl PowerAllocator {
    /// Apportions `budget` across `apps` while also respecting a joint
    /// **core capacity**: the chosen settings' core counts must sum to
    /// at most `total_cores`.
    ///
    /// The paper evaluates two-application mixes, where each app's
    /// six-core maximum fits the twelve-core server by construction and
    /// the plain [`PowerAllocator::apportion`] suffices. With three or
    /// more co-located applications the core budget becomes a real
    /// joint constraint, so this variant runs the dynamic program over
    /// `(watts, cores)` states, enumerating each app's feasible settings
    /// directly.
    ///
    /// Each app's candidates are its best setting per `(watt level,
    /// cores)` cell. Layer `i` holds, per cell `(b, c)`, the best
    /// objective of apps `0..=i` within `b` levels and `c` cores; a
    /// candidate must beat suspending the app strictly, and the first
    /// in `(level, cores)` order wins ties. Only what the backtrack
    /// reads is computed:
    ///
    /// * layer 0 extends an all-zero table, so each cell is the best
    ///   candidate within its levels and cores — a 2-D prefix maximum,
    ///   `O(levels × cores)`;
    /// * the last layer is read at the root cell `(levels,
    ///   total_cores)` only, `O(candidates)`;
    /// * so the last middle layer (three or more apps) is read only at
    ///   the root cell and one cell per last-app candidate, `(levels −
    ///   l, total_cores − cores)`, and fills just those,
    ///   `O(candidates²)`;
    /// * earlier middle layers (four or more apps) take every cell,
    ///   `O(levels × cores × candidates)` each.
    ///
    /// Two apps therefore cost `O(levels × cores + candidates)`, and
    /// three `O(levels × cores + candidates²)`.
    pub fn apportion_with_cores(
        &self,
        apps: &[(&AppMeasurement, Option<&[usize]>)],
        budget: Watts,
        total_cores: usize,
    ) -> Allocation {
        assert!(!apps.is_empty(), "cannot apportion to zero apps");
        assert!(total_cores >= 1, "need at least one core");
        let levels = (budget.value() / self.step.value()).floor().max(0.0) as usize;
        let width = total_cores + 1;
        let grids: Vec<Vec<(f64, usize)>> = apps
            .iter()
            .map(|(m, family)| self.candidate_grid(m, *family, levels, total_cores))
            .collect();

        // Layer 0, then the middle layers. A choice is the cell `k` of
        // the app's candidate grid: `k / width` levels and `k % width`
        // cores, so it reads the previous layer `k` cells back.
        let last = apps.len() - 1;
        let last_cand = candidates(&grids[last], width);
        let mut layers = vec![Layer::prefix(&grids[0], width)];
        for (i, grid) in grids.iter().enumerate().take(last).skip(1) {
            let table = layers.last().expect("layer 0").values(levels, width);
            let cand = candidates(grid, width);
            let mut next = vec![f64::NEG_INFINITY; table.len()];
            let mut choice = vec![NONE; table.len()];
            let mut fill = |b: usize, c: usize| {
                let here = b * width + c;
                // Option: suspend this app.
                let mut v = table[here];
                for &(l, cores, k) in &cand {
                    if l <= b && cores <= c {
                        let cv = table[here - k] + grid[k].0;
                        if cv > v {
                            v = cv;
                            choice[here] = k;
                        }
                    }
                }
                next[here] = v;
            };
            if i + 1 < last {
                for b in 0..=levels {
                    for c in 0..=total_cores {
                        fill(b, c);
                    }
                }
            } else {
                // The last middle layer: only the cells the root scan
                // and the backtrack read.
                fill(levels, total_cores);
                for &(l, cores, _) in &last_cand {
                    fill(levels - l, total_cores - cores);
                }
            }
            layers.push(Layer {
                value: next,
                choice,
                rows: levels + 1,
                cols: width,
            });
        }
        // The last layer at the root cell, which every candidate fits.
        let mut root_choice = NONE;
        if last > 0 {
            let prev = layers.last().expect("layer 0");
            let mut v = prev.value_at(levels, total_cores);
            for &(l, cores, k) in &last_cand {
                let cv = prev.value_at(levels - l, total_cores - cores) + grids[last][k].0;
                if cv > v {
                    v = cv;
                    root_choice = k;
                }
            }
        }

        // Backtrack.
        let mut budgets = vec![Watts::ZERO; apps.len()];
        let mut settings = vec![None; apps.len()];
        let mut normalized = vec![0.0; apps.len()];
        let (mut b, mut c) = (levels, total_cores);
        let mut objective = 0.0;
        for i in (0..apps.len()).rev() {
            let k = layers
                .get(i)
                .map_or(root_choice, |layer| layer.choice_at(b, c));
            if k != NONE {
                let (l, cores, idx) = (k / width, k % width, grids[i][k].1);
                budgets[i] = self.step * l as f64;
                settings[i] = Some(idx);
                let perf = apps[i].0.perf(idx) / apps[i].0.nocap_perf().max(1e-12);
                normalized[i] = perf;
                objective += perf;
                b -= l;
                c -= cores;
            }
        }

        Allocation {
            budgets,
            settings,
            normalized_perf: normalized,
            objective,
        }
    }

    /// `m`'s candidates on a flat `(watt level, cores)` grid of
    /// `total_cores + 1` cells a level, up to the highest level any
    /// candidate takes (at least one level): the normalized perf and
    /// grid index of the best setting per cell, the first in family
    /// order on ties (a NaN perf, once in, keeps its cell); `(NaN,
    /// NONE)` where no setting falls. Settings past `levels`, above
    /// `total_cores` or without positive perf are left out.
    fn candidate_grid(
        &self,
        m: &AppMeasurement,
        family: Option<&[usize]>,
        levels: usize,
        total_cores: usize,
    ) -> Vec<(f64, usize)> {
        let nocap = m.nocap_perf().max(1e-12);
        let width = total_cores + 1;
        let settings: Vec<(usize, f64, usize)> = family_or_feasible(m, family)
            .iter()
            .filter_map(|&idx| {
                let level = (m.power(idx).value() / self.step.value()).ceil() as usize;
                if level > levels || m.perf(idx) <= 0.0 {
                    return None;
                }
                let cores = m.grid().get(idx).map(|k| k.cores()).unwrap_or(usize::MAX);
                let cell = (cores <= total_cores).then(|| level * width + cores)?;
                Some((cell, m.perf(idx) / nocap, idx))
            })
            .collect();
        let rows = settings.iter().map(|&(cell, _, _)| cell / width + 1).max();
        let mut grid = vec![(f64::NAN, NONE); rows.unwrap_or(1) * width];
        for (cell, perf, idx) in settings {
            let entry = &mut grid[cell];
            if entry.1 == NONE || perf > entry.0 {
                *entry = (perf, idx);
            }
        }
        grid
    }
}

/// A candidate grid's occupied cells in `(level, cores)` order, as
/// `(level, cores, cell)`.
fn candidates(grid: &[(f64, usize)], width: usize) -> Vec<(usize, usize, usize)> {
    (0..grid.len())
        .filter(|&k| grid[k].1 != NONE)
        .map(|k| (k / width, k % width, k))
        .collect()
}

/// One layer of the core-aware program: per cell `(b, c)`, the best
/// objective and the choice there, stored for `rows × cols` cells. A
/// read past the last row or column reads the last one.
struct Layer {
    value: Vec<f64>,
    choice: Vec<usize>,
    rows: usize,
    cols: usize,
}

impl Layer {
    fn cell(&self, b: usize, c: usize) -> usize {
        b.min(self.rows - 1) * self.cols + c.min(self.cols - 1)
    }

    fn value_at(&self, b: usize, c: usize) -> f64 {
        self.value[self.cell(b, c)]
    }

    fn choice_at(&self, b: usize, c: usize) -> usize {
        self.choice[self.cell(b, c)]
    }

    /// Every value up to `levels` rows of `width` cells, row-major.
    fn values(&self, levels: usize, width: usize) -> Vec<f64> {
        (0..=levels)
            .flat_map(|b| (0..width).map(move |c| (b, c)))
            .map(|(b, c)| self.value_at(b, c))
            .collect()
    }

    /// Layer 0: over an all-zero table, cell `(b, c)` takes the
    /// candidate of highest perf within `b` levels and `c` cores, the
    /// earliest in `(level, cores)` order on ties, if its perf is above
    /// zero (a NaN never is).
    ///
    /// Past the highest level and the most cores of any candidate above
    /// zero no cell gains a candidate, so the layer stops there.
    fn prefix(grid: &[(f64, usize)], width: usize) -> Self {
        let (rows, cols) = grid
            .chunks(width)
            .enumerate()
            .fold((1, 1), |(rows, cols), (b, row)| {
                match row.iter().rposition(|&(perf, _)| perf > 0.0) {
                    Some(c) => (b + 1, cols.max(c + 1)),
                    None => (rows, cols),
                }
            });
        let mut value = vec![0.0; rows * cols];
        let mut choice = vec![NONE; rows * cols];
        for b in 0..rows {
            for c in 0..cols {
                let here = b * cols + c;
                let k = b * width + c;
                // Zero plus a positive perf is that perf, bit for bit.
                let (mut v, mut w) = match grid[k] {
                    (perf, _) if perf > 0.0 => (perf, k),
                    _ => (0.0, NONE),
                };
                // The winners one level and one core down cover every
                // other candidate within this cell. A cell without one
                // holds zero and `NONE`, so it never wins.
                for (o, inside) in [
                    (here.wrapping_sub(cols), b > 0),
                    (here.wrapping_sub(1), c > 0),
                ] {
                    if inside && (value[o] > v || (value[o] == v && choice[o] < w)) {
                        (v, w) = (value[o], choice[o]);
                    }
                }
                value[here] = v;
                choice[here] = w;
            }
        }
        Self {
            value,
            choice,
            rows,
            cols,
        }
    }
}

impl Default for PowerAllocator {
    fn default() -> Self {
        Self::new(Watts::new(1.0))
    }
}

/// `family`, or the app's whole feasible grid when it has none.
fn family_or_feasible<'a>(m: &AppMeasurement, family: Option<&'a [usize]>) -> Cow<'a, [usize]> {
    family.map_or_else(|| Cow::Owned(m.feasible_indices()), Cow::Borrowed)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::measurement::tests::{random_family, random_measurement};
    use powermed_server::ServerSpec;
    use powermed_units::rng::SplitMix;
    use powermed_workloads::catalog;
    use proptest::prelude::*;

    /// The parent's `apportion_with_cores`: per-app candidates deduped
    /// through a `BTreeMap`, then every cell of every app's
    /// `(watts, cores)` layer.
    pub(crate) fn apportion_with_cores_reference(
        apps: &[(&AppMeasurement, Option<&[usize]>)],
        budget: Watts,
        total_cores: usize,
    ) -> Allocation {
        let step = Watts::new(1.0);
        assert!(!apps.is_empty(), "cannot apportion to zero apps");
        assert!(total_cores >= 1, "need at least one core");
        let levels = (budget.value() / step.value()).floor().max(0.0) as usize;

        let mut candidates: Vec<Vec<(usize, usize, f64, usize)>> = Vec::with_capacity(apps.len());
        for (m, family) in apps {
            let nocap = m.nocap_perf().max(1e-12);
            let mut best: std::collections::BTreeMap<(usize, usize), (f64, usize)> =
                std::collections::BTreeMap::new();
            for &idx in family_or_feasible(m, *family).iter() {
                let level = (m.power(idx).value() / step.value()).ceil() as usize;
                if level > levels || m.perf(idx) <= 0.0 {
                    continue;
                }
                let cores = m.grid().get(idx).map(|k| k.cores()).unwrap_or(usize::MAX);
                if cores > total_cores {
                    continue;
                }
                let perf = m.perf(idx) / nocap;
                let entry = best.entry((level, cores)).or_insert((perf, idx));
                if perf > entry.0 {
                    *entry = (perf, idx);
                }
            }
            candidates.push(
                best.into_iter()
                    .map(|((l, c), (p, i))| (l, c, p, i))
                    .collect(),
            );
        }

        let width = total_cores + 1;
        let mut table = vec![0.0f64; (levels + 1) * width];
        let mut choices: Vec<Vec<Option<(usize, usize, usize)>>> = Vec::with_capacity(apps.len());
        for cand in &candidates {
            let mut next = vec![f64::NEG_INFINITY; (levels + 1) * width];
            let mut choice = vec![None; (levels + 1) * width];
            for b in 0..=levels {
                for c in 0..=total_cores {
                    let mut v = table[b * width + c];
                    let mut ch = None;
                    for &(l, cores, perf, idx) in cand {
                        if l <= b && cores <= c {
                            let cv = table[(b - l) * width + (c - cores)] + perf;
                            if cv > v {
                                v = cv;
                                ch = Some((l, cores, idx));
                            }
                        }
                    }
                    next[b * width + c] = v;
                    choice[b * width + c] = ch;
                }
            }
            table = next;
            choices.push(choice);
        }

        let mut budgets = vec![Watts::ZERO; apps.len()];
        let mut settings = vec![None; apps.len()];
        let mut normalized = vec![0.0; apps.len()];
        let mut b = levels;
        let mut c = total_cores;
        let mut objective = 0.0;
        for i in (0..apps.len()).rev() {
            if let Some((l, cores, idx)) = choices[i][b * width + c] {
                budgets[i] = step * l as f64;
                settings[i] = Some(idx);
                let perf = apps[i].0.perf(idx) / apps[i].0.nocap_perf().max(1e-12);
                normalized[i] = perf;
                objective += perf;
                b -= l;
                c -= cores;
            }
        }

        Allocation {
            budgets,
            settings,
            normalized_perf: normalized,
            objective,
        }
    }

    /// An allocation with its floats as bits.
    pub(crate) fn allocation_bits(a: &Allocation) -> (Vec<u64>, Vec<Option<usize>>, Vec<u64>, u64) {
        (
            a.budgets.iter().map(|b| b.value().to_bits()).collect(),
            a.settings.clone(),
            a.normalized_perf.iter().map(|p| p.to_bits()).collect(),
            a.objective.to_bits(),
        )
    }

    mod matches_reference {
        use super::*;

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// The joint `(watts, cores)` program picks what the full-table
            /// reference picks, bit for bit: one to four random surfaces
            /// (tied, off-grid, signed-zero and NaN powers, NaN perfs) with
            /// random families (repeats, settings below the minimum core
            /// count) or none, budgets of 0, fractional, negative, below the
            /// floor and past saturation, and core capacities above and
            /// below the apps' summed core counts.
            #[test]
            fn prop_core_aware_dp_matches_the_full_table(seed in 0u64..u64::MAX) {
                let mut rng = SplitMix::new(seed);
                let ms: Vec<AppMeasurement> =
                    (0..1 + rng.below(4)).map(|_| random_measurement(&mut rng)).collect();
                let families: Vec<Option<Vec<usize>>> = ms
                    .iter()
                    .map(|m| (rng.below(3) > 0).then(|| random_family(&mut rng, m)))
                    .collect();
                let apps: Vec<(&AppMeasurement, Option<&[usize]>)> =
                    ms.iter().zip(&families).map(|(m, f)| (m, f.as_deref())).collect();
                let budget = Watts::new(match rng.below(6) {
                    0 => 0.0,
                    1 => [0.4, 0.999, 1.5][rng.below(3) as usize],
                    2 => -3.0,
                    3 => 62.0 + rng.below(30) as f64,
                    _ => rng.below(60) as f64 + [0.0, 0.3, 0.75][rng.below(3) as usize],
                });
                let total_cores = [1, 3, 4, 6, 8, 12, 13, 25][rng.below(8) as usize];
                let fast = PowerAllocator::default().apportion_with_cores(&apps, budget, total_cores);
                let slow = apportion_with_cores_reference(&apps, budget, total_cores);
                prop_assert_eq!(allocation_bits(&fast), allocation_bits(&slow));
            }
        }
    }

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn m(p: powermed_workloads::AppProfile) -> AppMeasurement {
        AppMeasurement::exhaustive(&spec(), &p)
    }

    #[test]
    fn sub_step_budget_degrades_gracefully() {
        // 0.5 W is below the 1 W step: every app ends up below its
        // floor. The DP must report infeasibility, not panic on an
        // empty or single-point curve.
        let a = m(catalog::pagerank());
        let b = m(catalog::kmeans());
        let apps = [(&a, None), (&b, None)];
        let out = PowerAllocator::default().apportion(&apps, Watts::new(0.5));
        assert!(!out.all_feasible(), "{out:?}");
        assert!(out.objective.abs() < 1e-9, "{out:?}");
        for budget in &out.budgets {
            assert!(budget.value() <= 0.5 + 1e-9);
        }
    }

    #[test]
    fn sub_step_budget_with_cores_degrades_gracefully() {
        let a = m(catalog::pagerank());
        let b = m(catalog::kmeans());
        let apps = [(&a, None), (&b, None)];
        let out = PowerAllocator::default().apportion_with_cores(&apps, Watts::new(0.5), 12);
        assert!(!out.all_feasible(), "{out:?}");
        assert!(out.objective.abs() < 1e-9, "{out:?}");
    }

    #[test]
    fn dp_dominates_equal_split_on_every_mix() {
        let alloc = PowerAllocator::default();
        for mix in powermed_workloads::mixes::table2() {
            let a = m(mix.app1.clone());
            let b = m(mix.app2.clone());
            let apps = [(&a, None), (&b, None)];
            let dp = alloc.apportion(&apps, Watts::new(30.0));
            let eq = alloc.equal_split(&apps, Watts::new(30.0));
            assert!(
                dp.objective >= eq.objective - 1e-9,
                "{}: DP {} < equal {}",
                mix.label(),
                dp.objective,
                eq.objective
            );
        }
    }

    #[test]
    fn budgets_never_exceed_total() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::stream());
        let b = m(catalog::kmeans());
        let out = alloc.apportion(&[(&a, None), (&b, None)], Watts::new(30.0));
        let total: Watts = out.budgets.iter().copied().sum();
        assert!(total <= Watts::new(30.0) + Watts::new(1e-9));
    }

    #[test]
    fn chosen_settings_respect_budgets() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::bfs());
        let b = m(catalog::x264());
        let out = alloc.apportion(&[(&a, None), (&b, None)], Watts::new(30.0));
        for (i, app) in [&a, &b].iter().enumerate() {
            if let Some(idx) = out.settings[i] {
                assert!(app.power(idx) <= out.budgets[i] + Watts::new(1e-9));
            }
        }
        assert!(out.all_feasible());
    }

    #[test]
    fn unequal_split_for_differing_utilities() {
        // Mix-10 (pagerank + kmeans): the paper reports a ~55/45 split.
        let alloc = PowerAllocator::default();
        let a = m(catalog::pagerank());
        let b = m(catalog::kmeans());
        let out = alloc.apportion(&[(&a, None), (&b, None)], Watts::new(30.0));
        let split = out.budgets[0] / (out.budgets[0] + out.budgets[1]);
        assert!(
            (split - 0.5).abs() > 0.015,
            "expected an unequal split, got {split:.3}"
        );
    }

    #[test]
    fn stringent_budget_starves_someone() {
        // 10 W cannot host two apps with ~6 W floors: the allocator
        // gives one of them everything.
        let alloc = PowerAllocator::default();
        let a = m(catalog::stream());
        let b = m(catalog::kmeans());
        let out = alloc.apportion(&[(&a, None), (&b, None)], Watts::new(10.0));
        assert!(!out.all_feasible(), "10 W cannot run both: {out:?}");
        assert!(
            out.settings.iter().filter(|s| s.is_some()).count() <= 1,
            "at most one app runs"
        );
    }

    #[test]
    fn single_app_gets_everything_useful() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::kmeans());
        let out = alloc.apportion(&[(&a, None)], Watts::new(50.0));
        assert!(out.normalized_perf[0] > 0.99, "{out:?}");
    }

    #[test]
    fn restricted_family_is_respected() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::stream());
        let fam = a.frequency_family(&spec());
        let out = alloc.apportion(&[(&a, Some(fam.as_slice()))], Watts::new(30.0));
        if let Some(idx) = out.settings[0] {
            assert!(fam.contains(&idx));
        }
    }

    #[test]
    fn wide_budgets_match_the_reference_dp() {
        // A 400 W cap on mix 14 leaves 330 one-watt levels, more than a
        // `u8` knapsack cell can index.
        let mix = powermed_workloads::mixes::mix(14).expect("mix 14");
        let a = m(mix.app1.clone());
        let b = m(mix.app2.clone());
        let budget = Watts::new(400.0) - spec().idle_power() - spec().chip_maintenance_power();
        let out = PowerAllocator::default().apportion(&[(&a, None), (&b, None)], budget);
        let curves: Vec<(Vec<f64>, f64)> = [&a, &b]
            .iter()
            .map(|m| {
                let curve = UtilityCurve::build(m, &m.feasible_indices(), budget, Watts::new(1.0));
                let perf = curve.points().iter().map(|p| p.perf).collect();
                (perf, m.nocap_perf().max(1e-12))
            })
            .collect();
        let gives = crate::knapsack::tests::apportion_reference(&curves, 330);
        let budgets: Vec<Watts> = gives.iter().map(|&g| Watts::new(g as f64)).collect();
        assert_eq!(out.budgets, budgets);
        assert!(out.all_feasible(), "{out:?}");
    }

    #[test]
    #[should_panic(expected = "zero apps")]
    fn empty_apps_rejected() {
        let _ = PowerAllocator::default().apportion(&[], Watts::new(10.0));
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_rejected() {
        let _ = PowerAllocator::new(Watts::ZERO);
    }

    #[test]
    fn core_capacity_binds_with_three_apps() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::kmeans());
        let b = m(catalog::stream());
        let c = m(catalog::x264());
        let apps = [(&a, None), (&b, None), (&c, None)];
        let out = alloc.apportion_with_cores(&apps, Watts::new(40.0), 12);
        // All three run, and the chosen settings respect the joint
        // core budget.
        let total_cores: usize = out
            .settings
            .iter()
            .zip([&a, &b, &c])
            .filter_map(|(s, m)| s.map(|i| m.grid().get(i).unwrap().cores()))
            .sum();
        assert!(total_cores <= 12, "core budget violated: {total_cores}");
        assert!(out.all_feasible(), "{out:?}");
        // The plain core-blind DP would hand out 6+ cores to multiple
        // apps (its per-app optima), overcommitting the server.
        let blind = alloc.apportion(&apps, Watts::new(40.0));
        let blind_cores: usize = blind
            .settings
            .iter()
            .zip([&a, &b, &c])
            .filter_map(|(s, m)| s.map(|i| m.grid().get(i).unwrap().cores()))
            .sum();
        assert!(blind_cores > 12, "expected the blind DP to overcommit");
    }

    #[test]
    fn core_aware_matches_plain_dp_for_two_apps() {
        // With two apps the core constraint never binds (6 + 6 = 12),
        // so both formulations reach the same objective.
        let alloc = PowerAllocator::default();
        let a = m(catalog::pagerank());
        let b = m(catalog::kmeans());
        let apps = [(&a, None), (&b, None)];
        let plain = alloc.apportion(&apps, Watts::new(30.0));
        let aware = alloc.apportion_with_cores(&apps, Watts::new(30.0), 12);
        assert!((plain.objective - aware.objective).abs() < 1e-9);
    }

    #[test]
    fn tight_core_budget_forces_consolidation() {
        let alloc = PowerAllocator::default();
        let a = m(catalog::kmeans());
        let b = m(catalog::pagerank());
        let apps = [(&a, None), (&b, None)];
        // Only 8 cores for two 4-core-minimum apps: both must run at 4.
        let out = alloc.apportion_with_cores(&apps, Watts::new(40.0), 8);
        for (s, m) in out.settings.iter().zip([&a, &b]) {
            let cores = s.map(|i| m.grid().get(i).unwrap().cores()).unwrap();
            assert_eq!(cores, 4);
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let a = m(catalog::kmeans());
        let _ = PowerAllocator::default().apportion_with_cores(&[(&a, None)], Watts::new(10.0), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The DP is optimal for two apps: no integer split beats it.
        #[test]
        fn prop_dp_beats_all_two_way_splits(budget in 8u32..40, pair in 0usize..15) {
            let mix = &powermed_workloads::mixes::table2()[pair];
            let a = m(mix.app1.clone());
            let b = m(mix.app2.clone());
            let alloc = PowerAllocator::default();
            let apps = [(&a, None), (&b, None)];
            let budget = Watts::new(budget as f64);
            let dp = alloc.apportion(&apps, budget);
            let fam_a = a.feasible_indices();
            let fam_b = b.feasible_indices();
            let na = a.nocap_perf();
            let nb = b.nocap_perf();
            let mut best = 0.0f64;
            for give in 0..=(budget.value() as usize) {
                let pa = a.best_within(Watts::new(give as f64), &fam_a).map_or(0.0, |(_, p)| p) / na;
                let pb = b.best_within(budget - Watts::new(give as f64), &fam_b).map_or(0.0, |(_, p)| p) / nb;
                best = best.max(pa + pb);
            }
            prop_assert!(dp.objective >= best - 1e-9, "DP {} < brute force {}", dp.objective, best);
        }

        /// R1 safety on arbitrary workloads: budgets are never
        /// negative, never sum above the given budget, and each chosen
        /// setting's power fits inside its app's own budget — for both
        /// the watts-only and the joint `(watts, cores)` programs.
        #[test]
        fn prop_budgets_stay_within_cap_and_nonnegative(
            budget in 5u32..60,
            seed in 0u64..8,
            napps in 2usize..5,
        ) {
            use powermed_workloads::generator::WorkloadGenerator;
            let profiles = WorkloadGenerator::new(seed).variant_corpus(napps, 0.3);
            let ms: Vec<AppMeasurement> = profiles
                .iter()
                .map(|p| AppMeasurement::exhaustive(&spec(), p))
                .collect();
            let apps: Vec<(&AppMeasurement, Option<&[usize]>)> =
                ms.iter().map(|m| (m, None)).collect();
            let budget = Watts::new(budget as f64);
            for alloc in [
                PowerAllocator::default().apportion(&apps, budget),
                PowerAllocator::default().apportion_with_cores(&apps, budget, 12),
            ] {
                prop_assert_eq!(alloc.budgets.len(), ms.len());
                let mut total = 0.0f64;
                for (i, b) in alloc.budgets.iter().enumerate() {
                    prop_assert!(b.value() >= 0.0, "app {} got negative budget {}", i, b);
                    total += b.value();
                    if let Some(idx) = alloc.settings[i] {
                        prop_assert!(
                            ms[i].power(idx).value() <= b.value() + 1e-9,
                            "app {} setting draws {} over its {} budget",
                            i, ms[i].power(idx), b
                        );
                    }
                }
                prop_assert!(
                    total <= budget.value() + 1e-9,
                    "budgets sum to {} over the {} cap", total, budget
                );
            }
        }
    }
}
