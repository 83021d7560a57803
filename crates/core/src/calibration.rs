//! Online calibration of application utility surfaces.
//!
//! When an application arrives (event E2) the runtime must learn its
//! `(power, perf)` surface. Exhaustive measurement (432 settings) is the
//! ground-truth path; the production path samples a fraction of the
//! settings (10% after Fig. 7's calibration) and completes the rest by
//! collaborative filtering against the corpus of previously-seen
//! applications.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

use powermed_cf::als::{Completion, FitConfig, FoldedRow};
use powermed_cf::matrix::UtilityMatrix;
use powermed_cf::sampler::SparseSampler;
use powermed_profiles::{AppFingerprint, ProbeSample, StoredProfile};
use powermed_server::knobs::KnobSetting;
use powermed_server::ServerSpec;
use powermed_units::hash::Fnv1a;
use powermed_units::Watts;
use powermed_workloads::profile::AppProfile;

use crate::measurement::AppMeasurement;

/// The seed of the sparse sampler that picks which settings to probe.
const SAMPLING_SEED: u64 = 17;

#[cfg(test)]
thread_local! {
    /// Online completions (fold-ins) computed on this thread.
    pub(crate) static COMPLETIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The inputs an online completion read, kept beside the surface it
/// produced: the corpus model key, `min_cores`, and the power and perf
/// observation vectors in their order. Equal inputs complete the same
/// surface, so a calibration that reads them again hands back the held
/// one. Observations compare by [`f64::to_bits`]: `==` would equate
/// `0.0` and `-0.0`, and an observation is written into the surface as
/// is. The folded rows ride along for the store republish.
#[derive(Debug)]
pub struct CompletionRecord {
    model_key: u64,
    min_cores: usize,
    power_obs: Vec<(usize, f64)>,
    perf_obs: Vec<(usize, f64)>,
    power_row: FoldedRow,
    perf_row: FoldedRow,
}

impl CompletionRecord {
    /// Whether a completion of these inputs repeats this record's.
    fn repeats(
        &self,
        model_key: u64,
        min_cores: usize,
        power_obs: &[(usize, f64)],
        perf_obs: &[(usize, f64)],
    ) -> bool {
        fn same(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        }
        self.model_key == model_key
            && self.min_cores == min_cores
            && same(&self.power_obs, power_obs)
            && same(&self.perf_obs, perf_obs)
    }
}

/// A surface, with the record of the online completion that produced
/// it. The record is valid only beside this exact surface: a surface
/// written any other way carries none.
#[derive(Debug, Clone)]
pub struct Calibrated {
    /// The utility surface.
    pub surface: Arc<AppMeasurement>,
    /// The completion that produced `surface`, if one did.
    pub record: Option<Arc<CompletionRecord>>,
}

impl Calibrated {
    /// A surface no completion record vouches for.
    pub fn unrecorded(surface: Arc<AppMeasurement>) -> Self {
        Self {
            surface,
            record: None,
        }
    }
}

/// The result of one online calibration, rich enough to republish to
/// the profile knowledge plane: the surface, the probe accounting, and
/// the observations + folded rows that produced it.
#[derive(Debug, Clone)]
pub struct OnlineCalibration {
    /// The completed surface and its completion record (none on the
    /// exhaustive fallback). When the completion inputs repeat those of
    /// the held surface's record, these are the held `Arc`s.
    pub calibrated: Calibrated,
    /// Settings actually probed on the server.
    pub probed: usize,
    /// Scheduled settings satisfied from the prior instead of probed.
    pub skipped: usize,
    /// Every observation backing the surface (fresh probes plus prior
    /// samples), sorted by column — the payload a store republication
    /// carries.
    pub samples: Vec<ProbeSample>,
    /// Folded-in row for the power channel (zeroed on the exhaustive
    /// fallback, where no CF model exists).
    pub power_row: FoldedRow,
    /// Folded-in row for the performance channel.
    pub perf_row: FoldedRow,
}

/// Builds [`AppMeasurement`]s, either exhaustively or by sparse sampling
/// plus collaborative filtering.
///
/// `Debug` covers the configuration and the corpus only: the probe
/// schedule derived from the configuration, and the corpus key derived
/// from the corpus, never show.
#[derive(Clone)]
pub struct Calibrator {
    spec: ServerSpec,
    /// Fraction of the knob grid measured online.
    sampling_fraction: f64,
    fit: FitConfig,
    corpus: UtilityMatrix,
    /// Fingerprints of profiles already folded into the corpus, so the
    /// same workload is never double-weighted however it arrives
    /// (catalog seeding, store-derived sparse rows, repeat seeding).
    seeded: BTreeSet<u64>,
    /// The grid columns an online calibration probes, ascending, each
    /// with its setting: the sparse sampler's schedule for
    /// `sampling_fraction`, built on first online use (a mediator that
    /// calibrates exhaustively never samples).
    schedule: OnceLock<Vec<(usize, KnobSetting)>>,
    /// [`Self::corpus_model_key`] of the current corpus, computed on
    /// first use and cleared by every corpus mutation.
    model_key: OnceLock<u64>,
}

impl fmt::Debug for Calibrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Calibrator")
            .field("spec", &self.spec)
            .field("sampling_fraction", &self.sampling_fraction)
            .field("fit", &self.fit)
            .field("corpus", &self.corpus)
            .field("seeded", &self.seeded)
            .finish()
    }
}

impl Calibrator {
    /// Creates a calibrator measuring `sampling_fraction` of the grid
    /// online (the paper fixes 10%).
    ///
    /// # Panics
    ///
    /// Panics if `sampling_fraction` is not within `(0, 1]`.
    pub fn new(spec: ServerSpec, sampling_fraction: f64) -> Self {
        assert!(
            sampling_fraction > 0.0 && sampling_fraction <= 1.0,
            "sampling fraction in (0, 1]"
        );
        let columns = spec.knob_grid().len();
        Self {
            spec,
            sampling_fraction,
            fit: FitConfig::default(),
            corpus: UtilityMatrix::new(columns),
            seeded: BTreeSet::new(),
            schedule: OnceLock::new(),
            model_key: OnceLock::new(),
        }
    }

    /// The configured sampling fraction.
    pub fn sampling_fraction(&self) -> f64 {
        self.sampling_fraction
    }

    /// Number of previously-seen applications in the corpus.
    #[cfg(test)]
    pub fn corpus_size(&self) -> usize {
        self.corpus.app_count()
    }

    /// The probe schedule, built on first use.
    fn schedule(&self) -> &[(usize, KnobSetting)] {
        self.schedule.get_or_init(|| {
            let grid = self.spec.knob_grid();
            SparseSampler::new(grid.len(), SAMPLING_SEED)
                .columns_for(self.sampling_fraction)
                .into_iter()
                .map(|c| (c, grid.get(c).expect("sampled column on grid")))
                .collect()
        })
    }

    /// Memoization key for the corpus completion models: the exact
    /// corpus content plus every [`FitConfig`] field. Two calibrators
    /// with equal keys would fit bit-identical `(power, perf)` model
    /// pairs, so the pair can be shared through the measurement cache.
    /// The key moves only when the corpus does, so it is fingerprinted
    /// once per corpus state, not once per calibration.
    fn corpus_model_key(&self) -> u64 {
        *self
            .model_key
            .get_or_init(|| self.fingerprint_corpus_model())
    }

    /// [`Self::corpus_model_key`] fingerprinted afresh from the corpus.
    fn fingerprint_corpus_model(&self) -> u64 {
        #[cfg(test)]
        tests::FINGERPRINTS.with(|n| n.set(n.get() + 1));
        let mut h = Fnv1a::resume(self.corpus.content_fingerprint());
        for v in [
            self.fit.factors as u64,
            self.fit.lambda.to_bits(),
            self.fit.sweeps as u64,
            self.fit.seed,
        ] {
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }

    /// Adds a fully measured application to the corpus (dense row).
    pub fn add_to_corpus(&mut self, m: &AppMeasurement) {
        self.model_key = OnceLock::new();
        for (i, _) in m.grid().iter().enumerate() {
            self.corpus.insert(m.name(), i, m.power(i), m.perf(i));
        }
    }

    /// Seeds the corpus by exhaustively profiling `profiles` (the
    /// "previously seen applications" the paper's matrix starts with).
    /// Profiles whose fingerprint is already in the corpus — under any
    /// name, through any seeding path — are skipped, so repeat seeding
    /// never double-weights a workload's row in the completion model.
    pub fn seed_corpus(&mut self, profiles: &[AppProfile]) {
        // The cached surface is exactly `AppMeasurement::exhaustive`
        // for any profile (nominal intensity, phases ignored), so the
        // corpus can always share it.
        for p in profiles {
            if !self.seeded.insert(AppFingerprint::of(p).value()) {
                continue;
            }
            let m = crate::cache::MeasurementCache::global().measure(&self.spec, p);
            self.add_to_corpus(&m);
        }
    }

    /// Seeds the corpus with a *sparse* row from the profile knowledge
    /// plane: measured `(column, power, perf)` samples for a workload
    /// identified only by fingerprint. Returns `false` (and does
    /// nothing) when that fingerprint is already represented, so a
    /// store-derived row and a catalog row for the same workload
    /// collapse to one.
    pub fn seed_sparse_row(
        &mut self,
        fingerprint: AppFingerprint,
        samples: &[ProbeSample],
    ) -> bool {
        if samples.is_empty() || !self.seeded.insert(fingerprint.value()) {
            return false;
        }
        self.model_key = OnceLock::new();
        let name = format!("store:{fingerprint}");
        for s in samples {
            self.corpus
                .insert(&name, s.col, Watts::new(s.power_w), s.perf);
        }
        true
    }

    /// Ground-truth calibration: probe every grid setting.
    #[cfg(test)]
    pub fn calibrate_exhaustive(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> (Watts, f64),
    ) -> AppMeasurement {
        self.try_calibrate_exhaustive(name, min_cores, |knob| Some(probe(knob)))
            .expect("infallible probe")
    }

    /// Fallible ground-truth calibration: probe every grid setting, or
    /// return `None` as soon as one probe fails (the application
    /// departed mid-calibration). No partial surface is produced.
    pub fn try_calibrate_exhaustive(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<AppMeasurement> {
        let grid = self.spec.knob_grid();
        let mut power = Vec::with_capacity(grid.len());
        let mut perf = Vec::with_capacity(grid.len());
        for knob in grid.iter() {
            let (p, q) = probe(knob)?;
            power.push(p);
            perf.push(q);
        }
        Some(AppMeasurement::from_vectors(
            name, grid, power, perf, min_cores,
        ))
    }

    /// Online calibration: probe `sampling_fraction` of the grid and
    /// estimate the rest by collaborative filtering against the corpus.
    ///
    /// Falls back to exhaustive calibration when the corpus has fewer
    /// than two applications (nothing to collaborate with).
    ///
    /// Returns the surface plus the number of settings actually probed.
    #[cfg(test)]
    pub fn calibrate_online(
        &self,
        name: &str,
        min_cores: usize,
        mut probe: impl FnMut(KnobSetting) -> (Watts, f64),
    ) -> (AppMeasurement, usize) {
        self.try_calibrate_online(name, min_cores, |knob| Some(probe(knob)))
            .expect("infallible probe")
    }

    /// Fallible online calibration: like [`Self::calibrate_online`] but
    /// returns `None` as soon as one probe fails (the application
    /// departed mid-calibration). No partial surface is produced.
    #[cfg(test)]
    pub fn try_calibrate_online(
        &self,
        name: &str,
        min_cores: usize,
        probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<(AppMeasurement, usize)> {
        self.try_calibrate_online_seeded(name, min_cores, None, None, probe)
            .map(|oc| (Arc::unwrap_or_clone(oc.calibrated.surface), oc.probed))
    }

    /// Online calibration with an optional warm-start prior from the
    /// profile knowledge plane. Probe points the prior already covers
    /// are satisfied from its samples instead of being run, so a warm
    /// admission executes a strict subset of the cold probe schedule
    /// (possibly the empty subset); every prior sample also feeds the
    /// fold-in, tightening the completion beyond what the sparse
    /// schedule alone would see. With `prior = None` it probes the whole
    /// sparse schedule, the cold online calibration. It returns `None`
    /// as soon as one probe fails (the application departed
    /// mid-calibration); no partial surface is produced.
    ///
    /// `held` is the surface on record for `name`. When the completion
    /// would read exactly the inputs of its record, the held surface and
    /// record are handed back instead of being computed again; the
    /// probes and the completion-model lookup still run.
    pub fn try_calibrate_online_seeded(
        &self,
        name: &str,
        min_cores: usize,
        prior: Option<&StoredProfile>,
        held: Option<&Calibrated>,
        mut probe: impl FnMut(KnobSetting) -> Option<(Watts, f64)>,
    ) -> Option<OnlineCalibration> {
        let columns = self.corpus.columns();
        let covered: std::collections::BTreeMap<usize, (f64, f64)> = prior
            .map(|p| {
                p.samples
                    .iter()
                    .filter(|s| s.col < columns)
                    .map(|s| (s.col, (s.power_w, s.perf)))
                    .collect()
            })
            .unwrap_or_default();
        if self.corpus.app_count() < 2 {
            // Nothing to collaborate with: exhaustive ground truth, with
            // prior-covered settings taken on faith instead of probed.
            let grid = self.spec.knob_grid();
            let mut power = Vec::with_capacity(grid.len());
            let mut perf = Vec::with_capacity(grid.len());
            let mut probed = 0usize;
            for (c, knob) in grid.iter().enumerate() {
                let (p, q) = match covered.get(&c) {
                    Some(&(p, q)) => (Watts::new(p), q),
                    None => {
                        probed += 1;
                        probe(knob)?
                    }
                };
                power.push(p);
                perf.push(q);
            }
            let samples = power
                .iter()
                .zip(&perf)
                .enumerate()
                .map(|(c, (p, q))| ProbeSample {
                    col: c,
                    power_w: p.value(),
                    perf: *q,
                })
                .collect();
            let k = self.fit.factors;
            let skipped = grid.len() - probed;
            let m = AppMeasurement::from_vectors(name, grid, power, perf, min_cores);
            return Some(OnlineCalibration {
                calibrated: Calibrated::unrecorded(Arc::new(m)),
                probed,
                skipped,
                samples,
                power_row: FoldedRow::new(0.0, vec![0.0; k]),
                perf_row: FoldedRow::new(0.0, vec![0.0; k]),
            });
        }
        let schedule = self.schedule();

        let mut power_obs = Vec::with_capacity(schedule.len());
        let mut perf_obs = Vec::with_capacity(schedule.len());
        let mut probed = 0usize;
        let mut skipped = 0usize;
        for &(c, knob) in schedule {
            let (p, q) = match covered.get(&c) {
                Some(&(p, q)) => {
                    skipped += 1;
                    (Watts::new(p), q)
                }
                None => {
                    probed += 1;
                    probe(knob)?
                }
            };
            power_obs.push((c, p.value()));
            perf_obs.push((c, q));
        }
        // Prior samples outside the schedule are extra observations for
        // free; appended after the scheduled columns so the prior-free
        // path sums in exactly the historical order.
        for (&c, &(p, q)) in &covered {
            if schedule.binary_search_by_key(&c, |&(col, _)| col).is_err() {
                power_obs.push((c, p));
                perf_obs.push((c, q));
            }
        }
        let mut samples: Vec<ProbeSample> = power_obs
            .iter()
            .zip(&perf_obs)
            .map(|(&(c, p), &(_, q))| ProbeSample {
                col: c,
                power_w: p,
                perf: q,
            })
            .collect();
        samples.sort_by_key(|s| s.col);

        // The fits depend only on corpus content + fit config, both of
        // which the key fingerprints exactly, so every admission against
        // an unchanged corpus (every warm re-admission, every server in
        // a sweep sharing a catalog) reuses one bit-identical pair.
        let model_key = self.corpus_model_key();
        let models = crate::cache::MeasurementCache::global().completion_pair(model_key, || {
            let (_, power_entries) = self.corpus.power_channel();
            let (_, perf_entries) = self.corpus.perf_channel();
            let rows = self.corpus.app_count();
            (
                Completion::fit(rows, columns, &power_entries, self.fit),
                Completion::fit(rows, columns, &perf_entries, self.fit),
            )
        });
        let repeated = held.and_then(|h| {
            let record = h.record.as_ref()?;
            (h.surface.name() == name
                && record.repeats(model_key, min_cores, &power_obs, &perf_obs))
            .then_some((h, record))
        });
        if let Some((h, record)) = repeated {
            if cfg!(debug_assertions) {
                let (fresh, power_row, perf_row) =
                    self.complete(name, min_cores, &models, &power_obs, &perf_obs);
                assert!(
                    same_surface(&fresh, &h.surface)
                        && same_row(&power_row, &record.power_row)
                        && same_row(&perf_row, &record.perf_row),
                    "the reused completion of {name} differs from a fresh one"
                );
            }
            return Some(OnlineCalibration {
                calibrated: h.clone(),
                probed,
                skipped,
                samples,
                power_row: record.power_row.clone(),
                perf_row: record.perf_row.clone(),
            });
        }
        #[cfg(test)]
        COMPLETIONS.with(|n| n.set(n.get() + 1));
        let (m, power_row, perf_row) =
            self.complete(name, min_cores, &models, &power_obs, &perf_obs);
        let record = CompletionRecord {
            model_key,
            min_cores,
            power_obs,
            perf_obs,
            power_row: power_row.clone(),
            perf_row: perf_row.clone(),
        };
        Some(OnlineCalibration {
            calibrated: Calibrated {
                surface: Arc::new(m),
                record: Some(Arc::new(record)),
            },
            probed,
            skipped,
            samples,
            power_row,
            perf_row,
        })
    }

    /// Completes a surface from the observations: folds them into the
    /// models, predicts every column, writes the observations over their
    /// predictions and clamps what is not a finite non-negative value to
    /// zero.
    fn complete(
        &self,
        name: &str,
        min_cores: usize,
        models: &(Completion, Completion),
        power_obs: &[(usize, f64)],
        perf_obs: &[(usize, f64)],
    ) -> (AppMeasurement, FoldedRow, FoldedRow) {
        let (power_model, perf_model) = models;
        let power_row = power_model.fold_in(power_obs);
        let perf_row = perf_model.fold_in(perf_obs);
        let mut power_pred = power_model.predict_row(&power_row);
        let mut perf_pred = perf_model.predict_row(&perf_row);
        for (c, v) in power_obs {
            power_pred[*c] = *v;
        }
        for (c, v) in perf_obs {
            perf_pred[*c] = *v;
        }
        for v in power_pred.iter_mut().chain(perf_pred.iter_mut()) {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        }
        let m = AppMeasurement::from_vectors(
            name,
            self.spec.knob_grid(),
            power_pred.into_iter().map(Watts::new).collect(),
            perf_pred,
            min_cores,
        );
        (m, power_row, perf_row)
    }
}

/// Whether two surfaces have the same name, `min_cores` and power and
/// perf bits at every setting (the SLO tag aside).
fn same_surface(a: &AppMeasurement, b: &AppMeasurement) -> bool {
    let n = a.grid().len();
    a.name() == b.name()
        && a.min_cores() == b.min_cores()
        && n == b.grid().len()
        && (0..n).all(|i| {
            a.power(i).value().to_bits() == b.power(i).value().to_bits()
                && a.perf(i).to_bits() == b.perf(i).to_bits()
        })
}

/// Whether two folded rows agree bit for bit.
fn same_row(a: &FoldedRow, b: &FoldedRow) -> bool {
    a.bias().to_bits() == b.bias().to_bits()
        && a.factors().len() == b.factors().len()
        && a.factors()
            .iter()
            .zip(b.factors())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use powermed_units::rng::SplitMix;
    use powermed_workloads::catalog;
    use powermed_workloads::generator::WorkloadGenerator;
    use proptest::prelude::*;

    thread_local! {
        /// Corpus fingerprints taken on this thread.
        pub(super) static FINGERPRINTS: Cell<u64> = const { Cell::new(0) };
    }

    fn fingerprints() -> u64 {
        FINGERPRINTS.with(Cell::get)
    }

    fn completions() -> u64 {
        COMPLETIONS.with(Cell::get)
    }

    /// `(power, perf)` of `profile` at every grid column, editable so a
    /// test can change one probe result.
    fn probe_table(profile: &AppProfile) -> Vec<(f64, f64)> {
        let spec = spec();
        spec.knob_grid()
            .iter()
            .map(|knob| {
                let op = profile.evaluate(&spec, knob);
                (op.dynamic_power.value(), op.throughput)
            })
            .collect()
    }

    /// One online calibration probing `table`, against `held`.
    fn calibrate_from(
        cal: &Calibrator,
        min_cores: usize,
        prior: Option<&StoredProfile>,
        held: Option<&Calibrated>,
        table: &[(f64, f64)],
    ) -> OnlineCalibration {
        let grid = spec().knob_grid();
        cal.try_calibrate_online_seeded("app", min_cores, prior, held, |knob| {
            let (p, q) = table[grid.index_of(knob).expect("on grid")];
            Some((Watts::new(p), q))
        })
        .unwrap()
    }

    /// Whether two calibrations agree bit for bit: surface, rows,
    /// samples and probe accounting.
    fn same_calibration(a: &OnlineCalibration, b: &OnlineCalibration) -> bool {
        let same_samples = a.samples.len() == b.samples.len()
            && a.samples.iter().zip(&b.samples).all(|(x, y)| {
                x.col == y.col
                    && x.power_w.to_bits() == y.power_w.to_bits()
                    && x.perf.to_bits() == y.perf.to_bits()
            });
        same_surface(&a.calibrated.surface, &b.calibrated.surface)
            && a.calibrated.surface.slo() == b.calibrated.surface.slo()
            && same_row(&a.power_row, &b.power_row)
            && same_row(&a.perf_row, &b.perf_row)
            && same_samples
            && (a.probed, a.skipped) == (b.probed, b.skipped)
    }

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn probe_for(profile: AppProfile) -> impl FnMut(KnobSetting) -> (Watts, f64) {
        let spec = spec();
        move |knob| {
            let op = profile.evaluate(&spec, knob);
            (op.dynamic_power, op.throughput)
        }
    }

    #[test]
    fn exhaustive_matches_direct_measurement() {
        let cal = Calibrator::new(spec(), 0.1);
        let m = cal.calibrate_exhaustive("kmeans", 4, probe_for(catalog::kmeans()));
        let direct = AppMeasurement::exhaustive(&spec(), &catalog::kmeans());
        for i in 0..m.grid().len() {
            assert_eq!(m.power(i), direct.power(i));
            assert_eq!(m.perf(i), direct.perf(i));
        }
    }

    #[test]
    fn empty_corpus_falls_back_to_exhaustive() {
        let cal = Calibrator::new(spec(), 0.1);
        let (m, probed) = cal.calibrate_online("stream", 4, probe_for(catalog::stream()));
        assert_eq!(probed, 432, "no corpus: every setting measured");
        assert_eq!(m.name(), "stream");
    }

    #[test]
    fn online_probes_only_the_sampled_fraction() {
        let grid = spec().knob_grid();
        for fraction in [0.05, 0.1, 0.5, 1.0] {
            let mut cal = Calibrator::new(spec(), fraction);
            cal.seed_corpus(&catalog::all());
            assert_eq!(cal.corpus_size(), 12);
            let mut columns = Vec::new();
            let mut probe = probe_for(catalog::stream());
            let (_, probed) = cal.calibrate_online("stream2", 4, |k| {
                columns.push(grid.iter().position(|g| g == k).unwrap());
                probe(k)
            });
            assert_eq!(probed, columns.len());
            let sampled = SparseSampler::new(grid.len(), SAMPLING_SEED).columns_for(fraction);
            assert_eq!(columns, sampled, "the sampler's schedule at {fraction}");
            if fraction == 0.1 {
                assert!((40..=48).contains(&probed), "≈10% of 432, got {probed}");
            }
        }
    }

    #[test]
    fn online_estimate_close_to_truth_at_ten_percent() {
        // Corpus: catalog variants (the new app itself is NOT in it).
        let mut cal = Calibrator::new(spec(), 0.1);
        let mut gen = WorkloadGenerator::new(5);
        let corpus_profiles: Vec<AppProfile> = gen.variant_corpus(24, 0.25);
        cal.seed_corpus(&corpus_profiles);

        let target = catalog::bfs();
        let truth = AppMeasurement::exhaustive(&spec(), &target);
        let (est, _) = cal.calibrate_online("bfs-new", 4, probe_for(target));

        // Relative power error averaged over the grid should be small
        // (Fig. 7: at 10% sampling the system stays within its cap).
        let mut rel_err = 0.0;
        for i in 0..truth.grid().len() {
            let t = truth.power(i).value();
            rel_err += (est.power(i).value() - t).abs() / t;
        }
        rel_err /= truth.grid().len() as f64;
        assert!(rel_err < 0.15, "mean relative power error {rel_err:.3}");
    }

    #[test]
    fn estimates_are_physical() {
        let mut cal = Calibrator::new(spec(), 0.05);
        cal.seed_corpus(&catalog::all());
        let (est, _) = cal.calibrate_online("x264-new", 4, probe_for(catalog::x264()));
        for i in 0..est.grid().len() {
            assert!(est.power(i).value() >= 0.0);
            assert!(est.perf(i) >= 0.0);
            assert!(est.power(i).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "sampling fraction")]
    fn bad_fraction_rejected() {
        let _ = Calibrator::new(spec(), 0.0);
    }

    #[test]
    fn try_exhaustive_aborts_cleanly_when_a_probe_fails() {
        let cal = Calibrator::new(spec(), 0.1);
        let mut probe = probe_for(catalog::kmeans());
        let mut calls = 0usize;
        // The app "departs" after 10 probes: no panic, no partial
        // surface — just None.
        let result = cal.try_calibrate_exhaustive("kmeans", 4, |k| {
            calls += 1;
            (calls <= 10).then(|| probe(k))
        });
        assert!(result.is_none());
        assert_eq!(calls, 11, "stops at the first failed probe");
    }

    #[test]
    fn try_online_aborts_cleanly_when_a_probe_fails() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let result = cal.try_calibrate_online("gone", 4, |_| None);
        assert!(result.is_none());
    }

    #[test]
    fn seeding_the_same_profiles_twice_does_not_duplicate_rows() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12);
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12, "repeat seeding must be a no-op");
    }

    #[test]
    fn sparse_row_and_catalog_row_for_one_workload_collapse() {
        let mut cal = Calibrator::new(spec(), 0.1);
        let fp = AppFingerprint::of(&catalog::stream());
        let samples = [ProbeSample {
            col: 0,
            power_w: 10.0,
            perf: 100.0,
        }];
        assert!(cal.seed_sparse_row(fp, &samples));
        assert_eq!(cal.corpus_size(), 1);
        // The catalog row for the same workload is skipped...
        cal.seed_corpus(&catalog::all());
        assert_eq!(cal.corpus_size(), 12, "stream arrived via the store");
        // ...and so is a second copy of the sparse row.
        assert!(!cal.seed_sparse_row(fp, &samples));
    }

    #[test]
    fn empty_sparse_row_is_rejected_without_claiming_the_fingerprint() {
        let mut cal = Calibrator::new(spec(), 0.1);
        let fp = AppFingerprint::of(&catalog::bfs());
        assert!(!cal.seed_sparse_row(fp, &[]));
        assert!(cal.seed_sparse_row(
            fp,
            &[ProbeSample {
                col: 1,
                power_w: 9.0,
                perf: 50.0,
            }]
        ));
    }

    #[test]
    fn seeded_with_no_prior_matches_the_plain_online_path() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let mut probe_a = probe_for(catalog::stream());
        let (plain, probed_plain) = cal
            .try_calibrate_online("s", 4, |k| Some(probe_a(k)))
            .unwrap();
        let mut probe_b = probe_for(catalog::stream());
        let seeded = cal
            .try_calibrate_online_seeded("s", 4, None, None, |k| Some(probe_b(k)))
            .unwrap();
        assert_eq!(seeded.probed, probed_plain);
        assert_eq!(seeded.skipped, 0);
        for i in 0..plain.grid().len() {
            assert_eq!(plain.power(i), seeded.calibrated.surface.power(i));
            assert_eq!(plain.perf(i), seeded.calibrated.surface.perf(i));
        }
    }

    #[test]
    fn full_prior_makes_a_warm_admission_probe_nothing() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        // Cold pass: measure and keep the observations as the prior.
        let mut probe = probe_for(catalog::bfs());
        let cold = cal
            .try_calibrate_online_seeded("b", 4, None, None, |k| Some(probe(k)))
            .unwrap();
        assert!(cold.probed > 0);
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.clone();
        // Warm pass: every scheduled column is covered, so zero probes
        // run and the surface comes out bit-identical (the sampler is
        // deterministic, so cold and warm share one schedule).
        let warm = cal
            .try_calibrate_online_seeded("b", 4, Some(&prior), None, |_| {
                panic!("a fully covered admission must not probe")
            })
            .unwrap();
        assert_eq!(warm.probed, 0);
        assert_eq!(warm.skipped, cold.probed);
        for i in 0..warm.calibrated.surface.grid().len() {
            assert_eq!(
                warm.calibrated.surface.power(i),
                cold.calibrated.surface.power(i)
            );
            assert_eq!(
                warm.calibrated.surface.perf(i),
                cold.calibrated.surface.perf(i)
            );
        }
    }

    #[test]
    fn partial_prior_probes_only_the_uncovered_schedule() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let mut probe = probe_for(catalog::x264());
        let cold = cal
            .try_calibrate_online_seeded("x", 4, None, None, |k| Some(probe(k)))
            .unwrap();
        // Prior covering half the cold observations.
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.iter().step_by(2).copied().collect();
        let half = prior.samples.len();
        let mut probe2 = probe_for(catalog::x264());
        let warm = cal
            .try_calibrate_online_seeded("x", 4, Some(&prior), None, |k| Some(probe2(k)))
            .unwrap();
        assert_eq!(warm.skipped, half);
        assert_eq!(warm.probed, cold.probed - half);
        assert_eq!(
            warm.samples.len(),
            cold.samples.len(),
            "union of fresh + prior covers the same columns"
        );
    }

    #[test]
    fn exhaustive_fallback_honours_the_prior() {
        let cal = Calibrator::new(spec(), 0.1); // empty corpus
        let mut probe = probe_for(catalog::kmeans());
        let cold = cal
            .try_calibrate_online_seeded("k", 4, None, None, |k| Some(probe(k)))
            .unwrap();
        assert_eq!(cold.probed, 432);
        let mut prior = StoredProfile::tombstone(1, 0);
        prior.confidence = 1.0;
        prior.samples = cold.samples.clone();
        let warm = cal
            .try_calibrate_online_seeded("k", 4, Some(&prior), None, |_| {
                panic!("fully covered exhaustive fallback must not probe")
            })
            .unwrap();
        assert_eq!(warm.probed, 0);
        assert_eq!(warm.skipped, 432);
        for i in 0..warm.calibrated.surface.grid().len() {
            assert_eq!(
                warm.calibrated.surface.power(i),
                cold.calibrated.surface.power(i)
            );
        }
    }

    #[test]
    fn repeated_admissions_share_one_model_fit() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let cache = crate::cache::MeasurementCache::global();
        let misses_before = cache.model_misses();
        let mut probe = probe_for(catalog::stream());
        let first = cal
            .try_calibrate_online_seeded("s1", 4, None, None, |k| Some(probe(k)))
            .unwrap();
        // Other tests share the global cache, so counter checks are
        // lower bounds rather than exact deltas.
        let fits_run = cache.model_misses() - misses_before;
        assert!(
            fits_run <= 1,
            "one pair fit per corpus state, got {fits_run}"
        );
        // Same corpus, different app: the pair must come from the cache
        // and the result must match the first admission bit for bit.
        let hits_before = cache.model_hits();
        let mut probe2 = probe_for(catalog::stream());
        let second = cal
            .try_calibrate_online_seeded("s2", 4, None, None, |k| Some(probe2(k)))
            .unwrap();
        assert!(cache.model_hits() > hits_before);
        for i in 0..first.calibrated.surface.grid().len() {
            assert_eq!(
                first.calibrated.surface.power(i),
                second.calibrated.surface.power(i)
            );
            assert_eq!(
                first.calibrated.surface.perf(i),
                second.calibrated.surface.perf(i)
            );
        }
        // Growing the corpus moves the key: the stale pair is not reused.
        let mut gen = WorkloadGenerator::new(3);
        cal.seed_corpus(&gen.variant_corpus(2, 0.25));
        let misses_mid = cache.model_misses();
        let mut probe3 = probe_for(catalog::stream());
        cal.try_calibrate_online_seeded("s3", 4, None, None, |k| Some(probe3(k)))
            .unwrap();
        assert!(cache.model_misses() > misses_mid);
    }

    /// Online calibrations against an unchanged corpus fingerprint it
    /// once; each corpus mutation costs one more fingerprint, a sparse
    /// row that inserts nothing none, and a clone carries the key.
    #[test]
    fn calibrations_fingerprint_each_corpus_state_once() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let calibrate = |cal: &Calibrator, times: usize| -> u64 {
            let before = fingerprints();
            for _ in 0..times {
                let mut probe = probe_for(catalog::stream());
                cal.try_calibrate_online("s", 4, |k| Some(probe(k)))
                    .unwrap();
            }
            fingerprints() - before
        };
        assert_eq!(calibrate(&cal, 5), 1, "catalog corpus");
        assert_eq!(calibrate(&cal, 3), 0, "the key is kept");

        let samples = [ProbeSample {
            col: 3,
            power_w: 2.0,
            perf: 1.0,
        }];
        assert!(cal.seed_sparse_row(AppFingerprint::from_raw(7), &samples));
        assert_eq!(calibrate(&cal, 3), 1, "a sparse row that inserts");
        assert!(!cal.seed_sparse_row(AppFingerprint::from_raw(7), &samples));
        assert_eq!(calibrate(&cal, 3), 0, "a sparse row already held");

        let dense = AppMeasurement::exhaustive(&spec(), &catalog::bfs());
        cal.add_to_corpus(&dense);
        assert_eq!(calibrate(&cal, 3), 1, "a dense row");

        cal.seed_corpus(&WorkloadGenerator::new(3).variant_corpus(2, 0.25));
        assert_eq!(calibrate(&cal, 3), 1, "catalog seeding");
        cal.seed_corpus(&catalog::all());
        assert_eq!(calibrate(&cal, 3), 0, "seeding only profiles already held");

        assert_eq!(calibrate(&cal.clone(), 3), 0, "a clone carries the key");
    }

    /// Recalibrations whose completion inputs repeat fold in once and
    /// hand back the held `Arc`s; a change to any input folds in again:
    /// one bit of one probe (`0.0` to `-0.0` too), the corpus through
    /// either mutator, or `min_cores`.
    #[test]
    fn reused_completions_fold_in_once_per_input_state() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let mut table = probe_table(&catalog::stream());
        let mut held = calibrate_from(&cal, 4, None, None, &table).calibrated;
        let mut recalibrate = |cal: &Calibrator, min_cores, table: &[(f64, f64)], times| {
            let mut folds = 0;
            for _ in 0..times {
                let before = completions();
                let oc = calibrate_from(cal, min_cores, None, Some(&held), table);
                let folded = completions() - before;
                assert_eq!(
                    folded == 0,
                    Arc::ptr_eq(&oc.calibrated.surface, &held.surface)
                );
                assert!(same_calibration(
                    &oc,
                    &calibrate_from(cal, min_cores, None, None, table)
                ));
                folds += folded;
                held = oc.calibrated;
            }
            folds
        };
        assert_eq!(recalibrate(&cal, 4, &table, 5), 0, "unchanged");

        let col = cal.schedule()[3].0;
        table[col].0 = f64::from_bits(table[col].0.to_bits() ^ 1);
        assert_eq!(recalibrate(&cal, 4, &table, 3), 1, "one power bit");
        table[col].1 = 0.0;
        assert_eq!(recalibrate(&cal, 4, &table, 3), 1, "a zero perf");
        table[col].1 = -0.0;
        assert_eq!(recalibrate(&cal, 4, &table, 3), 1, "0.0 to -0.0");
        assert_eq!(recalibrate(&cal, 2, &table, 3), 1, "a new min_cores");

        let variant = WorkloadGenerator::new(3).variant_corpus(1, 0.25);
        cal.add_to_corpus(&AppMeasurement::exhaustive(&spec(), &variant[0]));
        assert_eq!(recalibrate(&cal, 2, &table, 3), 1, "add_to_corpus");
        let samples = [ProbeSample {
            col: 5,
            power_w: 3.0,
            perf: 2.0,
        }];
        assert!(cal.seed_sparse_row(AppFingerprint::from_raw(9), &samples));
        assert_eq!(recalibrate(&cal, 2, &table, 3), 1, "seed_sparse_row");
    }

    /// Debug builds recompute every reused surface and compare it bit
    /// for bit: a record beside a surface it did not produce is caught.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "the reused completion of app differs from a fresh one")]
    fn a_record_beside_the_wrong_surface_is_caught() {
        let mut cal = Calibrator::new(spec(), 0.1);
        cal.seed_corpus(&catalog::all());
        let table = probe_table(&catalog::stream());
        let mut held = calibrate_from(&cal, 4, None, None, &table).calibrated;
        let other = calibrate_from(&cal, 4, None, None, &probe_table(&catalog::kmeans()));
        held.surface = other.calibrated.surface;
        calibrate_from(&cal, 4, None, Some(&held), &table);
    }

    /// `Debug` shows the same fields whether or not the corpus key has
    /// been computed, and none of the derived state.
    #[test]
    fn the_derived_state_is_invisible() {
        let mut read = Calibrator::new(spec(), 0.1);
        read.seed_corpus(&catalog::all());
        let fresh = read.clone();
        read.corpus_model_key();
        assert!(read.model_key.get().is_some());
        assert!(fresh.model_key.get().is_none());
        assert_eq!(format!("{read:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{read:#?}"), format!("{fresh:#?}"));
        let shown = format!("{read:?}");
        assert!(shown.starts_with("Calibrator { spec: "), "{shown}");
        for hidden in ["schedule:", "model_key:"] {
            assert!(!shown.contains(hidden), "{hidden} shows");
        }
    }

    mod matches_reference {
        use super::*;

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// The cached model key equals the key fingerprinted afresh
            /// from the corpus after random sequences of the corpus
            /// mutators (dense rows, sparse rows, catalog seeding, each
            /// possibly repeating content already held) and clones,
            /// whether or not the key was read in between.
            #[test]
            fn prop_cached_model_key_tracks_the_corpus(seed in 0u64..u64::MAX) {
                let mut rng = SplitMix::new(seed);
                let catalog = catalog::all();
                let grid = spec().knob_grid();
                let mut cal = Calibrator::new(spec(), 0.1);
                for _ in 0..10 {
                    match rng.below(5) {
                        0 => {
                            let name = ["a", "b", "c"][rng.below(3) as usize];
                            let level = rng.below(3) as f64;
                            let power = (0..grid.len()).map(|i| Watts::new(level + i as f64)).collect();
                            let perf = (0..grid.len()).map(|i| level * i as f64).collect();
                            cal.add_to_corpus(&AppMeasurement::from_vectors(name, grid.clone(), power, perf, 1));
                        }
                        1 => {
                            let samples: Vec<ProbeSample> = (0..rng.below(3))
                                .map(|i| ProbeSample {
                                    col: (i + rng.below(4)) as usize,
                                    power_w: rng.below(3) as f64,
                                    perf: rng.below(3) as f64,
                                })
                                .collect();
                            cal.seed_sparse_row(AppFingerprint::from_raw(rng.below(4)), &samples);
                        }
                        2 => {
                            let from = rng.below(catalog.len() as u64) as usize;
                            let until = from + rng.below(3) as usize;
                            cal.seed_corpus(&catalog[from..until.min(catalog.len())]);
                        }
                        3 => cal = cal.clone(),
                        _ => {
                            cal.corpus_model_key();
                        }
                    }
                    if rng.below(2) == 0 {
                        prop_assert_eq!(cal.corpus_model_key(), cal.fingerprint_corpus_model());
                    }
                }
                prop_assert_eq!(cal.corpus_model_key(), cal.fingerprint_corpus_model());
            }

            /// A calibration handed the surface and record it holds
            /// equals one made without a record, bit for bit (surface,
            /// rows, samples, probe accounting), over random sequences of
            /// repeated and changed probe values (`±0.0`, NaN, one flipped
            /// bit, a new value), priors, corpus mutations, `min_cores`
            /// changes and the exhaustive fallback of a thin corpus. The
            /// corpus takes one of a few dozen states, so the shared
            /// cache fits each once however many cases run.
            #[test]
            fn prop_reused_completion_matches_a_fresh_one(seed in 0u64..u64::MAX) {
                let mut rng = SplitMix::new(seed);
                let catalog = catalog::all();
                let mut cal = Calibrator::new(spec(), 0.1);
                // A thin corpus exercises the exhaustive fallback first.
                let seeded = rng.below(4) as usize;
                cal.seed_corpus(&catalog[..seeded]);
                let mut table = probe_table(&catalog[rng.below(catalog.len() as u64) as usize]);
                let schedule: Vec<usize> = cal.schedule().iter().map(|&(c, _)| c).collect();
                let mut min_cores = 1 + rng.below(4) as usize;
                let mut prior: Option<StoredProfile> = None;
                let mut held: Option<Calibrated> = None;
                let mut mutated = false;
                for _ in 0..8 {
                    match rng.below(8) {
                        0 | 1 => {}
                        2 => {
                            // Few columns, so one is often changed twice:
                            // a zero becomes the other zero.
                            let col = schedule[rng.below(3) as usize];
                            let (p, q) = &mut table[col];
                            let v = if rng.below(2) == 0 { p } else { q };
                            *v = match rng.below(4) {
                                0 if *v == 0.0 => -*v,
                                0 => 0.0,
                                1 => f64::NAN,
                                2 => f64::from_bits(v.to_bits() ^ 1),
                                _ => rng.below(40) as f64,
                            };
                        }
                        3 => {
                            prior = match prior {
                                Some(_) => None,
                                None => {
                                    let mut p = StoredProfile::tombstone(1, 0);
                                    p.confidence = 1.0;
                                    p.samples = (0..rng.below(6))
                                        .map(|_| {
                                            let col = rng.below(table.len() as u64) as usize;
                                            ProbeSample { col, power_w: table[col].0, perf: table[col].1 }
                                        })
                                        .collect();
                                    p.samples.sort_by_key(|s| s.col);
                                    p.samples.dedup_by_key(|s| s.col);
                                    Some(p)
                                }
                            };
                        }
                        4 => min_cores = 1 + rng.below(4) as usize,
                        _ if mutated => {}
                        5 => {
                            mutated = true;
                            cal.seed_corpus(&catalog[3..5]);
                        }
                        6 => {
                            mutated = true;
                            let k = rng.below(2);
                            let samples = [ProbeSample { col: 7 + k as usize, power_w: 4.0, perf: 2.0 }];
                            cal.seed_sparse_row(AppFingerprint::from_raw(k), &samples);
                        }
                        _ => {
                            mutated = true;
                            let profile = &catalog[5 + rng.below(2) as usize];
                            cal.add_to_corpus(&crate::cache::MeasurementCache::global().measure(&spec(), profile));
                        }
                    }
                    let with = calibrate_from(&cal, min_cores, prior.as_ref(), held.as_ref(), &table);
                    let without = calibrate_from(&cal, min_cores, prior.as_ref(), None, &table);
                    prop_assert!(same_calibration(&with, &without));
                    held = Some(with.calibrated);
                }
            }
        }
    }

    #[test]
    fn try_variants_match_the_infallible_paths() {
        let cal = Calibrator::new(spec(), 0.1);
        let m = cal.calibrate_exhaustive("bfs", 4, probe_for(catalog::bfs()));
        let mut probe = probe_for(catalog::bfs());
        let t = cal
            .try_calibrate_exhaustive("bfs", 4, |k| Some(probe(k)))
            .unwrap();
        for i in 0..m.grid().len() {
            assert_eq!(m.power(i), t.power(i));
            assert_eq!(m.perf(i), t.perf(i));
        }
    }
}
