//! Per-application `(power, performance)` surfaces over the knob grid.
//!
//! Everything the runtime knows about an application is one of these
//! surfaces — either measured exhaustively (ground truth, used by the
//! figure harness and as the "optimal strategy" reference in Fig. 7) or
//! estimated online from a sparse sample via collaborative filtering
//! ([`crate::calibration`]).

use std::cmp::Ordering::{Greater, Less};
use std::fmt;
use std::sync::OnceLock;

use powermed_server::knobs::{KnobGrid, KnobSetting};
use powermed_server::ServerSpec;
use powermed_units::hash::Fnv1a;
use powermed_units::Watts;
use powermed_workloads::profile::AppProfile;

/// An application's power and performance at every knob-grid setting.
///
/// `Debug` and `PartialEq` cover the surface only: the cached power
/// order and content fingerprint are derived from it and never show.
#[derive(Clone)]
pub struct AppMeasurement {
    name: String,
    grid: KnobGrid,
    power: Vec<Watts>,
    perf: Vec<f64>,
    min_cores: usize,
    slo: Option<f64>,
    /// [`AppMeasurement::power_order`], built on first use: most
    /// surfaces (one per calibration) are never planned with.
    power_order: OnceLock<Vec<u16>>,
    /// [`AppMeasurement::fingerprint`], taken on first use: only a
    /// fleet's plan book keys surfaces by content.
    fingerprint: OnceLock<u64>,
}

impl fmt::Debug for AppMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppMeasurement")
            .field("name", &self.name)
            .field("grid", &self.grid)
            .field("power", &self.power)
            .field("perf", &self.perf)
            .field("min_cores", &self.min_cores)
            .field("slo", &self.slo)
            .finish()
    }
}

impl PartialEq for AppMeasurement {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.grid == other.grid
            && self.power == other.power
            && self.perf == other.perf
            && self.min_cores == other.min_cores
            && self.slo == other.slo
    }
}

impl AppMeasurement {
    /// Builds the ground-truth surface by evaluating `profile` at every
    /// grid setting (the simulation analogue of exhaustive offline
    /// profiling).
    pub fn exhaustive(spec: &ServerSpec, profile: &AppProfile) -> Self {
        let grid = spec.knob_grid();
        let mut power = Vec::with_capacity(grid.len());
        let mut perf = Vec::with_capacity(grid.len());
        for knob in grid.iter() {
            let op = profile.evaluate(spec, knob);
            power.push(op.dynamic_power);
            perf.push(op.throughput);
        }
        Self {
            name: profile.name().to_string(),
            grid,
            power,
            perf,
            min_cores: profile.min_cores(),
            slo: profile.slo(),
            power_order: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Builds a surface from externally produced vectors (e.g. the
    /// collaborative-filtering estimates).
    ///
    /// # Panics
    ///
    /// Panics if vector lengths do not match the grid.
    pub fn from_vectors(
        name: impl Into<String>,
        grid: KnobGrid,
        power: Vec<Watts>,
        perf: Vec<f64>,
        min_cores: usize,
    ) -> Self {
        assert_eq!(power.len(), grid.len(), "power vector length");
        assert_eq!(perf.len(), grid.len(), "perf vector length");
        assert!(min_cores >= 1);
        Self {
            name: name.into(),
            grid,
            power,
            perf,
            min_cores,
            slo: None,
            power_order: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Marks the measured application latency-critical with `slo` as its
    /// minimum normalized-throughput objective.
    ///
    /// # Panics
    ///
    /// Panics if `slo` is outside `(0, 1]`.
    pub fn with_slo(mut self, slo: f64) -> Self {
        assert!(slo > 0.0 && slo <= 1.0, "slo must lie in (0, 1]");
        self.slo = Some(slo);
        self.fingerprint = OnceLock::new();
        self
    }

    /// The latency-critical SLO, if any.
    pub fn slo(&self) -> Option<f64> {
        self.slo
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The knob grid the surface is indexed by.
    pub fn grid(&self) -> &KnobGrid {
        &self.grid
    }

    /// The app's minimum feasible core count.
    pub fn min_cores(&self) -> usize {
        self.min_cores
    }

    /// Power at grid index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn power(&self, idx: usize) -> Watts {
        self.power[idx]
    }

    /// Performance at grid index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn perf(&self, idx: usize) -> f64 {
        self.perf[idx]
    }

    /// Grid indices the app can actually run at (core count at or above
    /// its minimum).
    pub fn feasible_indices(&self) -> Vec<usize> {
        self.feasible().collect()
    }

    /// [`AppMeasurement::feasible_indices`], in order, uncollected.
    fn feasible(&self) -> impl Iterator<Item = usize> + '_ {
        self.grid
            .iter()
            .enumerate()
            .filter(|(_, k)| k.cores() >= self.min_cores)
            .map(|(i, _)| i)
    }

    /// Grid indices of the frequency-only knob family: all cores, max
    /// DRAM limit, every DVFS state. This is the restricted family that
    /// RAPL-style policies (Util-Unaware, App-Aware) actuate.
    #[cfg(test)]
    pub fn frequency_family(&self, spec: &ServerSpec) -> Vec<usize> {
        spec.ladder()
            .states()
            .filter_map(|f| {
                self.grid.index_of(KnobSetting::new(
                    f,
                    spec.max_app_cores(),
                    spec.dram_limit_max(),
                ))
            })
            .collect()
    }

    /// The settings a utility-*unaware* RAPL enforcement path actuates.
    ///
    /// Package RAPL cannot gate cores, so all cores stay online; to meet
    /// a total budget the hardware/OS reduce the frequency and DRAM
    /// domains *in balance* (fair reduction across domains — no
    /// knowledge of which domain this app values). For each integer-watt
    /// budget the most-balanced feasible `(f, m)` pair is chosen; the
    /// de-duplicated chain of those choices is returned as a knob family
    /// usable by the allocator.
    ///
    /// One sweep finds every budget's choice: the pairs enter in power
    /// order as the budget (plus 1e-9 W) reaches them, and the best so
    /// far is the most balanced, the first in `(f, m)` scan order on
    /// ties. A pair with a NaN power is never over a budget, so it is
    /// in from budget 0.
    pub fn balanced_family(&self, spec: &ServerSpec) -> Vec<usize> {
        let n = spec.max_app_cores();
        let steps = spec.ladder().steps();
        let m_levels = spec.dram_levels();
        let max_budget = spec.rated_power().value().ceil() as usize;
        // Every runnable all-cores pair and its balance key, in scan
        // order (frequency-major).
        let mut pairs: Vec<(usize, (f64, f64))> = Vec::new();
        for f in spec.ladder().states() {
            for level in 0..m_levels {
                let m = spec.dram_limit_min() + Watts::new(level as f64);
                let Some(idx) = self.grid.index_of(KnobSetting::new(f, n, m)) else {
                    continue;
                };
                if self.perf[idx] <= 0.0 {
                    continue;
                }
                let f_norm = f.index() as f64 / (steps - 1) as f64;
                let m_norm = level as f64 / (m_levels - 1) as f64;
                pairs.push((idx, (f_norm.min(m_norm), f_norm + m_norm)));
            }
        }
        let entry_power = |p: usize| {
            let power = self.power[pairs[p].0].value();
            if power.is_nan() {
                f64::NEG_INFINITY
            } else {
                power
            }
        };
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| entry_power(a).total_cmp(&entry_power(b)));
        let mut order = order.into_iter().peekable();
        let mut best: Option<usize> = None;
        let mut chain = Vec::new();
        for b in 0..=max_budget {
            let budget = Watts::new(b as f64) + Watts::new(1e-9);
            let fits = |&p: &usize| self.power[pairs[p].0].partial_cmp(&budget) != Some(Greater);
            while let Some(p) = order.next_if(fits) {
                // `key > k` wins; neither beating the other, the earlier
                // pair does.
                let wins = |q: usize| match pairs[p].1.partial_cmp(&pairs[q].1) {
                    Some(Greater) => true,
                    Some(Less) => false,
                    _ => p < q,
                };
                if best.is_none_or(wins) {
                    best = Some(p);
                }
            }
            if let Some(p) = best {
                chain.push(pairs[p].0);
            }
        }
        chain.sort_unstable();
        chain.dedup();
        chain
    }

    /// The uncapped performance (`Perf_nocap`): perf at the maximal knob,
    /// which by grid construction is the last setting (top frequency,
    /// all cores, highest DRAM limit).
    pub fn nocap_perf(&self) -> f64 {
        *self.perf.last().expect("grid is non-empty")
    }

    /// Every grid index with a non-NaN power, in ascending power (equal
    /// powers in index order): the order in which a growing budget
    /// admits settings. NaN powers are left out, since they fit no
    /// budget. Built on first use, then carried by clones.
    ///
    /// # Panics
    ///
    /// Panics if the grid has more than `u16::MAX` settings.
    pub(crate) fn power_order(&self) -> &[u16] {
        self.power_order.get_or_init(|| {
            let len = u16::try_from(self.power.len()).expect("grid indices fit in u16");
            let mut order: Vec<u16> = (0..len)
                .filter(|&i| !self.power[i as usize].value().is_nan())
                .collect();
            order.sort_by(|&a, &b| {
                self.power[a as usize]
                    .partial_cmp(&self.power[b as usize])
                    .expect("NaN powers are left out")
            });
            order
        })
    }

    /// A content fingerprint of everything `PartialEq` compares — the
    /// name, the grid, the power and performance vectors, the minimum
    /// cores and the SLO — with every float folded by its bits, so
    /// `-0.0` and `0.0` differ and a NaN matches its own bits. Taken on
    /// first use, then carried by clones. The grid is folded setting by
    /// setting: [`KnobGrid::new`] lays out the full product of its
    /// three dimensions, so the settings determine them.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write_word(self.name.len() as u64);
            h.write(self.name.as_bytes());
            h.write_word(self.grid.len() as u64);
            for knob in self.grid.iter() {
                h.write_word(knob.dvfs().index() as u64);
                h.write_word(knob.cores() as u64);
                h.write_word(knob.dram_limit().value().to_bits());
            }
            for power in &self.power {
                h.write_word(power.value().to_bits());
            }
            for perf in &self.perf {
                h.write_word(perf.to_bits());
            }
            h.write_word(self.min_cores as u64);
            match self.slo {
                Some(slo) => {
                    h.write_word(1);
                    h.write_word(slo.to_bits());
                }
                None => h.write_word(0),
            }
            h.finish()
        })
    }

    /// The feasible setting that draws the least power (the first such
    /// index on ties), or `None` when no setting is feasible.
    pub(crate) fn cheapest_feasible(&self) -> Option<usize> {
        self.feasible().min_by(|&a, &b| {
            self.power[a]
                .partial_cmp(&self.power[b])
                .expect("finite powers")
        })
    }

    /// The least power at which the app can run at all (cheapest
    /// feasible setting with non-zero performance).
    #[cfg(test)]
    pub fn min_feasible_power(&self) -> Option<Watts> {
        self.feasible_indices()
            .into_iter()
            .filter(|&i| self.perf[i] > 0.0)
            .map(|i| self.power[i])
            .min_by(|a, b| a.partial_cmp(b).expect("finite powers"))
    }

    /// The best feasible setting with power within `budget`:
    /// `(grid index, perf)` — or `None` when the budget is below the
    /// app's floor.
    pub fn best_within(&self, budget: Watts, family: &[usize]) -> Option<(usize, f64)> {
        self.best_of(budget, family.iter().copied())
    }

    /// [`AppMeasurement::best_within`] over the feasible indices, without
    /// collecting them.
    pub(crate) fn best_feasible_within(&self, budget: Watts) -> Option<(usize, f64)> {
        self.best_of(budget, self.feasible())
    }

    /// [`AppMeasurement::best_within`] over the indices `family` yields.
    fn best_of(&self, budget: Watts, family: impl Iterator<Item = usize>) -> Option<(usize, f64)> {
        family
            .filter(|&i| {
                self.power[i] <= budget + Watts::new(1e-9)
                    && self.grid.get(i).map(|k| k.cores() >= self.min_cores) == Some(true)
            })
            .map(|i| (i, self.perf[i]))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite perf"))
    }

    /// [`AppMeasurement::best_within`], or else RAPL's best effort: the
    /// cheapest runnable setting in `family`, tolerated up to 15% over
    /// `budget` (the hardware bottoms out at `f_min` rather than halting
    /// the app).
    pub(crate) fn best_effort_within(
        &self,
        budget: Watts,
        family: &[usize],
    ) -> Option<(usize, f64)> {
        self.best_within(budget, family).or_else(|| {
            family
                .iter()
                .copied()
                .filter(|&i| self.perf[i] > 0.0)
                .min_by(|&a, &b| {
                    self.power[a]
                        .partial_cmp(&self.power[b])
                        .expect("finite powers")
                })
                .filter(|&i| self.power[i] <= budget * 1.15)
                .map(|i| (i, self.perf[i]))
        })
    }

    /// Averages several apps' surfaces into a synthetic "server-average"
    /// surface (the Server+Res-Aware baseline's view of the world). Perf
    /// values are normalized per-app before averaging so fast apps do
    /// not dominate.
    ///
    /// # Panics
    ///
    /// Panics if `apps` is empty or grids differ in size.
    pub fn server_average(apps: &[AppMeasurement]) -> AppMeasurement {
        assert!(!apps.is_empty(), "need at least one app to average");
        let n = apps[0].grid.len();
        for a in apps {
            assert_eq!(a.grid.len(), n, "grids must match");
        }
        let mut power = vec![Watts::ZERO; n];
        let mut perf = vec![0.0; n];
        for a in apps {
            let nocap = a.nocap_perf().max(1e-12);
            for i in 0..n {
                power[i] += a.power[i] / apps.len() as f64;
                perf[i] += a.perf[i] / nocap / apps.len() as f64;
            }
        }
        let min_cores = apps.iter().map(|a| a.min_cores).max().expect("non-empty");
        AppMeasurement {
            name: "server-average".to_string(),
            grid: apps[0].grid.clone(),
            power,
            perf,
            min_cores,
            slo: None,
            power_order: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use powermed_units::rng::SplitMix;
    use powermed_workloads::catalog;
    use proptest::prelude::*;

    /// Powers that tie, sit off the one-watt grid (just above, just
    /// below), are signed zeros or NaN.
    const POWERS: [f64; 12] = [
        0.0,
        -0.0,
        1.0,
        4.0,
        4.0,
        4.000_000_000_5,
        6.999_999_999_5,
        7.3,
        12.0,
        f64::NAN,
        30.5,
        58.0,
    ];

    /// Performances that tie, are signed zeros or NaN.
    const PERFS: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 1.0, 2.0, 3.5, f64::NAN];

    /// A surface on the real grid: most powers drawn from `0..60` W with
    /// an off-grid fraction, the rest (and every perf) from the pools
    /// above. One surface in four carries no NaN at all; the others may
    /// carry NaN powers and, one in eight, NaN perfs.
    pub(crate) fn random_measurement(rng: &mut SplitMix) -> AppMeasurement {
        let grid = spec().knob_grid();
        let nan_free = rng.below(4) == 0;
        let nan_perfs = !nan_free && rng.below(8) == 0;
        let pick = |rng: &mut SplitMix, pool: &[f64], nan_ok: bool| loop {
            let v = pool[rng.below(pool.len() as u64) as usize];
            if nan_ok || !v.is_nan() {
                return v;
            }
        };
        let power = (0..grid.len())
            .map(|_| {
                Watts::new(match rng.below(3) {
                    0 => pick(rng, &POWERS, !nan_free),
                    _ => rng.below(60) as f64 + [0.0, 0.25, 0.5, 0.999][rng.below(4) as usize],
                })
            })
            .collect();
        let perf = (0..grid.len())
            .map(|_| match rng.below(3) {
                0 => pick(rng, &PERFS, nan_perfs),
                _ => rng.below(40) as f64 / 8.0,
            })
            .collect();
        let min_cores = 1 + rng.below(6) as usize;
        AppMeasurement::from_vectors("random", grid, power, perf, min_cores)
    }

    /// A non-empty family of grid indices in random order: repeats, and
    /// settings below the app's minimum core count.
    pub(crate) fn random_family(rng: &mut SplitMix, m: &AppMeasurement) -> Vec<usize> {
        let len = m.grid().len() as u64;
        match rng.below(4) {
            0 => m.feasible_indices(),
            1 => (0..len as usize).collect(),
            _ => (0..1 + rng.below(40))
                .map(|_| rng.below(len) as usize)
                .collect(),
        }
    }

    /// The parent's `balanced_family`: the most balanced `(f, m)` pair at
    /// every integer-watt budget, found by scanning every pair.
    pub(crate) fn balanced_family_reference(m: &AppMeasurement, spec: &ServerSpec) -> Vec<usize> {
        let n = spec.max_app_cores();
        let steps = spec.ladder().steps();
        let m_levels = spec.dram_levels();
        let max_budget = spec.rated_power().value().ceil() as usize;
        let mut chain = Vec::new();
        for b in 0..=max_budget {
            let budget = Watts::new(b as f64);
            let mut best: Option<((f64, f64), usize)> = None;
            for f in spec.ladder().states() {
                for level in 0..m_levels {
                    let dram = spec.dram_limit_min() + Watts::new(level as f64);
                    let Some(idx) = m.grid.index_of(KnobSetting::new(f, n, dram)) else {
                        continue;
                    };
                    if m.power[idx] > budget + Watts::new(1e-9) || m.perf[idx] <= 0.0 {
                        continue;
                    }
                    let f_norm = f.index() as f64 / (steps - 1) as f64;
                    let m_norm = level as f64 / (m_levels - 1) as f64;
                    let key = (f_norm.min(m_norm), f_norm + m_norm);
                    if best.is_none_or(|(k, _)| key > k) {
                        best = Some((key, idx));
                    }
                }
            }
            if let Some((_, idx)) = best {
                chain.push(idx);
            }
        }
        chain.sort_unstable();
        chain.dedup();
        chain
    }

    mod matches_reference {
        use super::*;

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// The balanced RAPL chain equals the per-budget scan over
            /// random surfaces with tied, off-grid, signed-zero and NaN
            /// powers and NaN perfs.
            #[test]
            fn prop_balanced_family_matches_the_per_budget_scan(seed in 0u64..u64::MAX) {
                let spec = spec();
                let m = random_measurement(&mut SplitMix::new(seed));
                prop_assert_eq!(m.balanced_family(&spec), balanced_family_reference(&m, &spec));
            }
        }
    }

    #[test]
    fn balanced_family_matches_the_per_budget_scan_on_the_catalog() {
        let spec = spec();
        for profile in catalog::all() {
            let m = AppMeasurement::exhaustive(&spec, &profile);
            assert_eq!(
                m.balanced_family(&spec),
                balanced_family_reference(&m, &spec),
                "{}",
                profile.name()
            );
        }
    }

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    #[test]
    fn exhaustive_covers_grid() {
        let spec = spec();
        let m = AppMeasurement::exhaustive(&spec, &catalog::kmeans());
        assert_eq!(m.grid().len(), 432);
        assert_eq!(m.name(), "kmeans");
        assert!(m.nocap_perf() > 0.0);
    }

    #[test]
    fn feasible_indices_respect_min_cores() {
        let spec = spec();
        let m = AppMeasurement::exhaustive(&spec, &catalog::kmeans());
        let feasible = m.feasible_indices();
        assert!(feasible.len() < 432, "some settings excluded");
        for i in &feasible {
            assert!(m.grid().get(*i).unwrap().cores() >= 4);
        }
        // 3 of 6 core counts remain: 9 freq * 3 cores * 8 dram = 216.
        assert_eq!(feasible.len(), 9 * 3 * 8);
    }

    #[test]
    fn min_feasible_power_in_paper_regime() {
        let spec = spec();
        for p in catalog::all() {
            let m = AppMeasurement::exhaustive(&spec, &p);
            let floor = m.min_feasible_power().unwrap().value();
            assert!(
                (4.5..=12.0).contains(&floor),
                "{}: floor {floor} W",
                p.name()
            );
        }
    }

    #[test]
    fn best_within_grows_with_budget() {
        let spec = spec();
        let m = AppMeasurement::exhaustive(&spec, &catalog::bfs());
        let family = m.feasible_indices();
        let lo = m.best_within(Watts::new(8.0), &family);
        let hi = m.best_within(Watts::new(25.0), &family);
        let (_, perf_lo) = lo.unwrap();
        let (_, perf_hi) = hi.unwrap();
        assert!(perf_hi > perf_lo);
        assert!(m.best_within(Watts::new(1.0), &family).is_none());
    }

    #[test]
    fn frequency_family_is_the_dvfs_ladder() {
        let spec = spec();
        let m = AppMeasurement::exhaustive(&spec, &catalog::x264());
        let fam = m.frequency_family(&spec);
        assert_eq!(fam.len(), 9);
        for i in &fam {
            let k = m.grid().get(*i).unwrap();
            assert_eq!(k.cores(), 6);
            assert_eq!(k.dram_limit(), spec.dram_limit_max());
        }
    }

    #[test]
    fn server_average_normalizes_perf() {
        let spec = spec();
        let apps: Vec<AppMeasurement> = [catalog::stream(), catalog::kmeans()]
            .iter()
            .map(|p| AppMeasurement::exhaustive(&spec, p))
            .collect();
        let avg = AppMeasurement::server_average(&apps);
        // Normalized perf at the max knob is exactly 1.0 for every app,
        // so the average is 1.0 too.
        assert!((avg.nocap_perf() - 1.0).abs() < 1e-9);
        assert_eq!(avg.grid().len(), 432);
    }

    #[test]
    fn from_vectors_validates_lengths() {
        let spec = spec();
        let grid = spec.knob_grid();
        let n = grid.len();
        let m = AppMeasurement::from_vectors(
            "est",
            grid.clone(),
            vec![Watts::new(5.0); n],
            vec![1.0; n],
            4,
        );
        assert_eq!(m.power(0), Watts::new(5.0));
        assert_eq!(m.perf(n - 1), 1.0);
    }

    #[test]
    fn balanced_family_is_a_monotone_all_cores_chain() {
        let spec = spec();
        for profile in [catalog::stream(), catalog::kmeans(), catalog::bfs()] {
            let m = AppMeasurement::exhaustive(&spec, &profile);
            let chain = m.balanced_family(&spec);
            assert!(!chain.is_empty(), "{}", profile.name());
            for idx in &chain {
                let knob = m.grid().get(*idx).unwrap();
                assert_eq!(knob.cores(), 6, "RAPL cannot gate cores");
                assert!(m.power(*idx).value() > 0.0);
            }
            // The chain tops out at the maximal setting.
            let top = chain.last().unwrap();
            let knob = m.grid().get(*top).unwrap();
            assert_eq!(knob.dvfs(), spec.ladder().top_state());
            assert_eq!(knob.dram_limit(), spec.dram_limit_max());
        }
    }

    #[test]
    fn the_power_order_cache_is_invisible() {
        let spec = spec();
        let built = AppMeasurement::exhaustive(&spec, &catalog::pagerank());
        let order = built.power_order().to_vec();
        let fresh = AppMeasurement::exhaustive(&spec, &catalog::pagerank());
        assert!(fresh.power_order.get().is_none());
        assert_eq!(format!("{built:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{built:#?}"), format!("{fresh:#?}"));
        assert_eq!(built, fresh);
        assert_eq!(fresh, built);

        assert_eq!(order.len(), built.grid().len());
        assert!(order
            .windows(2)
            .all(|w| built.power(w[0] as usize) <= built.power(w[1] as usize)));
        let clone = built.clone();
        assert_eq!(
            clone.power_order.get(),
            Some(&order),
            "a clone carries the order"
        );

        // Eight readers racing to build the order see the same one.
        let orders: Vec<Vec<u16>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| fresh.power_order().to_vec()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(
            orders.iter().all(|o| *o == order),
            "readers saw different orders"
        );
        assert_eq!(format!("{built:?}"), format!("{fresh:?}"));
    }

    /// The fingerprint follows content by bits, never shows, and is
    /// carried by clones; re-tagging an SLO takes a new one.
    #[test]
    fn the_fingerprint_is_content_by_bits_and_invisible() {
        let spec = spec();
        let built = AppMeasurement::exhaustive(&spec, &catalog::pagerank());
        let fresh = AppMeasurement::exhaustive(&spec, &catalog::pagerank());
        let fingerprint = built.fingerprint();
        assert!(fresh.fingerprint.get().is_none());
        assert_eq!(format!("{built:#?}"), format!("{fresh:#?}"));
        assert_eq!(built, fresh);
        assert_eq!(fresh.fingerprint(), fingerprint, "equal content");
        assert_eq!(built.clone().fingerprint.get(), Some(&fingerprint));

        let vectors = |perf0: f64| {
            let grid = spec.knob_grid();
            let mut perf = vec![1.0; grid.len()];
            perf[0] = perf0;
            let power = vec![Watts::new(5.0); grid.len()];
            AppMeasurement::from_vectors("app", grid, power, perf, 1)
        };
        let (zero, negative_zero) = (vectors(0.0), vectors(-0.0));
        assert_eq!(zero, negative_zero, "== cannot tell them apart");
        assert_ne!(zero.fingerprint(), negative_zero.fingerprint());
        assert_eq!(
            vectors(f64::NAN).fingerprint(),
            vectors(f64::NAN).fingerprint()
        );
        assert_ne!(zero.fingerprint(), vectors(f64::from_bits(1)).fingerprint());
        let renamed = AppMeasurement::from_vectors(
            "app2",
            zero.grid().clone(),
            zero.power.clone(),
            zero.perf.clone(),
            1,
        );
        assert_ne!(zero.fingerprint(), renamed.fingerprint());
        let tagged = zero.clone().with_slo(0.5);
        assert_ne!(tagged.fingerprint(), zero.fingerprint(), "a new SLO");
        assert_eq!(
            tagged.fingerprint(),
            vectors(0.0).with_slo(0.5).fingerprint()
        );
    }

    #[test]
    fn slo_carried_from_profile() {
        let spec = spec();
        let m = AppMeasurement::exhaustive(&spec, &catalog::x264().with_slo(0.9));
        assert_eq!(m.slo(), Some(0.9));
        let m = AppMeasurement::exhaustive(&spec, &catalog::x264());
        assert_eq!(m.slo(), None);
        assert_eq!(m.with_slo(0.5).slo(), Some(0.5));
    }

    #[test]
    #[should_panic(expected = "power vector length")]
    fn mismatched_vectors_panic() {
        let spec = spec();
        let grid = spec.knob_grid();
        let _ = AppMeasurement::from_vectors("bad", grid, vec![], vec![], 4);
    }
}
