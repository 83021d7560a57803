//! Seeded random workload generation.
//!
//! The paper picks its 15 mixes "randomly" from the benchmark pool and
//! drives dynamic arrival/departure experiments. This module provides the
//! deterministic random machinery: perturbed profile variants (to
//! populate the collaborative-filtering training corpus with more than 12
//! distinct apps) and Poisson-ish arrival scripts.

use powermed_units::rng::SplitMix;
use powermed_units::Seconds;

use crate::catalog;
use crate::profile::AppProfile;

/// Deterministic workload generator.
#[derive(Debug)]
pub struct WorkloadGenerator {
    rng: SplitMix,
}

/// One scripted arrival: an application and when it shows up.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// The arriving application.
    pub profile: AppProfile,
    /// Simulation time of arrival.
    pub at: Seconds,
}

impl WorkloadGenerator {
    /// Creates a generator with a fixed seed (same seed, same workloads).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix::new(seed),
        }
    }

    /// A profile variant: the named catalog profile with its compute and
    /// memory intensity independently perturbed by up to `spread`
    /// (multiplicatively, e.g. `0.3` → ×[0.7, 1.3]).
    ///
    /// Variants stand in for "previously seen applications" when
    /// populating the collaborative-filtering corpus.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not a catalog profile name or `spread` is not
    /// in `[0, 1)`.
    pub fn profile_variant(&mut self, base: &str, spread: f64) -> AppProfile {
        assert!((0.0..1.0).contains(&spread), "spread in [0,1)");
        let p = catalog::by_name(base).unwrap_or_else(|| panic!("unknown profile {base:?}"));
        let cf = 1.0 + self.rng.uniform(-spread, spread);
        let mf = 1.0 + self.rng.uniform(-spread, spread);
        // Re-author the profile with scaled intensities via the public
        // constructor (names are suffixed to keep corpus keys unique).
        let name = format!("{}~v{}", p.name(), self.rng.below(u64::from(u32::MAX)));
        scale_profile(&p, &name, cf, mf)
    }

    /// A corpus of `count` perturbed variants across the whole catalog,
    /// for CF training.
    pub fn variant_corpus(&mut self, count: usize, spread: f64) -> Vec<AppProfile> {
        let names: Vec<String> = catalog::all()
            .iter()
            .map(|p| p.name().to_string())
            .collect();
        (0..count)
            .map(|i| {
                let base = &names[i % names.len()];
                self.profile_variant(base, spread)
            })
            .collect()
    }

    /// Scripts `count` arrivals uniformly at random within
    /// `[0, horizon)`, drawing apps from the catalog.
    ///
    /// # Panics
    ///
    /// Panics if `count` is nonzero and `horizon` is not positive.
    pub fn arrival_script(&mut self, count: usize, horizon: Seconds) -> Vec<Arrival> {
        assert!(count == 0 || horizon.value() > 0.0, "empty arrival horizon");
        let pool = catalog::all();
        let mut arrivals: Vec<Arrival> = (0..count)
            .map(|_| {
                let profile = self.rng.choose(&pool).expect("catalog non-empty").clone();
                let at = Seconds::new(self.rng.uniform(0.0, horizon.value()));
                Arrival { profile, at }
            })
            .collect();
        arrivals.sort_by(|a, b| a.at.partial_cmp(&b.at).expect("finite times"));
        arrivals
    }
}

/// Re-authors `p` under `name` with compute and memory intensity scaled
/// by `cf` and `mf`.
fn scale_profile(p: &AppProfile, name: &str, cf: f64, mf: f64) -> AppProfile {
    // AppProfile's fields are private by design; rebuild through the
    // constructor using the evaluate-visible parameters. We recover the
    // originals from a reference spec evaluation at two operating points.
    // Simpler and robust: catalog profiles are authored here, so keep a
    // parallel parameter table.
    let (cpi, bytes, par, ov) = reference_params(p.name());
    AppProfile::new(name, p.category(), 1e6 * cf, cpi, bytes * mf, par, ov)
}

/// Authored parameters for each catalog profile (kept in sync with
/// `catalog.rs` by the `variants_track_catalog` test).
fn reference_params(name: &str) -> (f64, f64, f64, f64) {
    match name {
        "kmeans" => (0.55, 3e4, 0.97, 0.9),
        "apr" => (0.80, 3e5, 0.85, 0.7),
        "bfs" => (0.80, 2.2e6, 0.78, 0.4),
        "sssp" => (0.85, 1.6e6, 0.7, 0.4),
        "betweenness" => (0.75, 1.2e6, 0.82, 0.45),
        "connected" => (0.78, 1.9e6, 0.75, 0.4),
        "triangle" => (0.70, 8e5, 0.88, 0.55),
        "pagerank" => (0.90, 4e5, 0.88, 0.7),
        "stream" => (1.00, 4.0e6, 0.99, 0.85),
        "x264" => (0.62, 1.2e5, 0.9, 0.85),
        "facesim" => (0.85, 7e5, 0.84, 0.55),
        "ferret" => (0.72, 1.8e5, 0.93, 0.85),
        other => panic!("unknown catalog profile {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_server::{KnobSetting, ServerSpec};

    #[test]
    fn same_seed_same_workloads() {
        let mut a = WorkloadGenerator::new(42);
        let mut b = WorkloadGenerator::new(42);
        for _ in 0..3 {
            assert_eq!(
                a.profile_variant("stream", 0.3),
                b.profile_variant("stream", 0.3)
            );
        }
    }

    #[test]
    fn different_seeds_differ_eventually() {
        let mut a = WorkloadGenerator::new(1);
        let mut b = WorkloadGenerator::new(2);
        let differs =
            (0..10).any(|_| a.profile_variant("x264", 0.3) != b.profile_variant("x264", 0.3));
        assert!(differs);
    }

    #[test]
    fn variants_track_catalog() {
        // Every catalog profile must have an entry in reference_params
        // that reproduces identical evaluation results.
        let spec = ServerSpec::xeon_e5_2620();
        let knob = KnobSetting::max_for(&spec);
        for p in catalog::all() {
            let rebuilt = scale_profile(&p, p.name(), 1.0, 1.0);
            let a = p.evaluate(&spec, knob);
            let b = rebuilt.evaluate(&spec, knob);
            assert!(
                (a.throughput - b.throughput).abs() < 1e-9,
                "{} drifted from reference_params",
                p.name()
            );
        }
    }

    #[test]
    fn variants_differ_from_base() {
        let spec = ServerSpec::xeon_e5_2620();
        let knob = KnobSetting::max_for(&spec);
        let mut g = WorkloadGenerator::new(3);
        let v = g.profile_variant("stream", 0.3);
        let base = catalog::stream();
        let tv = v.evaluate(&spec, knob).throughput;
        let tb = base.evaluate(&spec, knob).throughput;
        assert!(v.name().starts_with("stream~v"));
        assert!((tv - tb).abs() / tb > 1e-3, "variant should perturb perf");
    }

    #[test]
    fn corpus_covers_catalog() {
        let mut g = WorkloadGenerator::new(9);
        let corpus = g.variant_corpus(24, 0.2);
        assert_eq!(corpus.len(), 24);
        // Two passes over the 12-profile catalog.
        assert!(corpus.iter().any(|p| p.name().starts_with("kmeans")));
        assert!(corpus.iter().any(|p| p.name().starts_with("ferret")));
    }

    #[test]
    fn arrival_script_sorted_within_horizon() {
        let mut g = WorkloadGenerator::new(11);
        let script = g.arrival_script(20, Seconds::new(100.0));
        assert_eq!(script.len(), 20);
        for w in script.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(script
            .iter()
            .all(|a| a.at >= Seconds::ZERO && a.at < Seconds::new(100.0)));
    }
}
