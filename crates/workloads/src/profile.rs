//! The roofline application model.

use std::cell::Cell;

use powermed_server::server::AppDemand;
use powermed_server::{KnobSetting, ServerSpec};
use powermed_units::{BytesPerSec, Ratio, Seconds, Watts};

use crate::phases::PhaseTrack;

thread_local! {
    /// This thread's count of [`AppProfile::evaluate`] calls.
    /// Performance surfaces are expensive to build (hundreds of
    /// evaluations per app), so callers that memoize them can use this
    /// counter to verify a cache hit skipped the work entirely.
    static EVALUATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Number of [`AppProfile::evaluate`] calls this thread has made.
pub fn evaluation_count() -> u64 {
    EVALUATIONS.with(Cell::get)
}

/// Broad workload class, as in the paper's Sec. IV application list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Data analytics (MineBench: kmeans, APR).
    DataAnalytics,
    /// Graph analytics (GAP: BFS, SSSP, betweenness, CC, triangles).
    GraphAnalytics,
    /// Search indexing (PageRank).
    SearchIndexing,
    /// Memory streaming (STREAM).
    MemoryStreaming,
    /// Media processing (PARSEC: X264, facesim, ferret).
    MediaProcessing,
}

impl core::fmt::Display for Category {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Self::DataAnalytics => "analytics",
            Self::GraphAnalytics => "graph",
            Self::SearchIndexing => "search",
            Self::MemoryStreaming => "memory",
            Self::MediaProcessing => "media",
        };
        write!(f, "{s}")
    }
}

/// Performance and hardware demand of one application at one knob
/// setting — everything the runtime can observe about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Work units completed per second (the heartbeat rate).
    pub throughput: f64,
    /// What the app asks of the hardware at this point.
    pub demand: AppDemand,
    /// Dynamic power the app draws at this point (cores + DRAM traffic)
    /// on the given platform.
    pub dynamic_power: Watts,
}

/// An analytic application profile: the roofline parameters from which
/// performance and power at any `(f, n, m)` follow.
///
/// One "op" is an arbitrary unit of application progress (an iteration,
/// a frame, a query); heartbeats count ops.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    name: String,
    category: Category,
    /// Instructions per op.
    instr_per_op: f64,
    /// Average cycles per instruction at full memory bandwidth (compute
    /// quality of the code: low CPI = cache-friendly, high = irregular).
    cpi: f64,
    /// Bytes of DRAM traffic per op.
    bytes_per_op: f64,
    /// Amdahl parallel fraction in `[0, 1]`.
    parallel_fraction: Ratio,
    /// Fraction of compute/memory time that overlaps (1 = perfect
    /// overlap/roofline-min, 0 = fully serialized).
    overlap: Ratio,
    /// Total ops to completion (for departure dynamics); `None` =
    /// long-running service.
    total_ops: Option<f64>,
    /// Optional phase behaviour (event E4 dynamics).
    phases: Option<PhaseTrack>,
    /// Fewest cores the app can be consolidated onto (thread pinning /
    /// working-set constraints). Below this the app cannot run at all,
    /// which is what gives every app the ~10 W minimum dynamic power the
    /// paper observes (Sec. IV-B).
    min_cores: usize,
    /// Service-level objective for latency-critical applications: the
    /// minimum acceptable throughput as a fraction of uncapped
    /// performance (a throughput proxy for a latency SLO — the paper's
    /// footnote 1 notes all requirements extend to latency-critical
    /// co-locations). `None` marks a batch application.
    slo: Option<f64>,
}

impl AppProfile {
    /// Creates a profile.
    ///
    /// # Panics
    ///
    /// Panics if any rate parameter is non-positive or a fraction is
    /// outside `[0, 1]` — profiles are authored constants, so a bad one
    /// is a programming error.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        category: Category,
        instr_per_op: f64,
        cpi: f64,
        bytes_per_op: f64,
        parallel_fraction: f64,
        overlap: f64,
    ) -> Self {
        assert!(instr_per_op > 0.0 && cpi > 0.0 && bytes_per_op >= 0.0);
        let parallel_fraction =
            Ratio::fraction(parallel_fraction).expect("parallel_fraction in [0,1]");
        let overlap = Ratio::fraction(overlap).expect("overlap in [0,1]");
        Self {
            name: name.into(),
            category,
            instr_per_op,
            cpi,
            bytes_per_op,
            parallel_fraction,
            overlap,
            total_ops: None,
            phases: None,
            min_cores: 4,
            slo: None,
        }
    }

    /// Renames the profile — used to run several instances of the same
    /// benchmark side by side (application names must be unique on a
    /// server).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Marks the application latency-critical with the given minimum
    /// normalized-throughput objective.
    ///
    /// # Panics
    ///
    /// Panics if `slo` is outside `(0, 1]`.
    pub fn with_slo(mut self, slo: f64) -> Self {
        assert!(slo > 0.0 && slo <= 1.0, "slo must lie in (0, 1]");
        self.slo = Some(slo);
        self
    }

    /// The latency-critical SLO, if any.
    pub fn slo(&self) -> Option<f64> {
        self.slo
    }

    /// The fewest cores this app can be consolidated onto.
    pub fn min_cores(&self) -> usize {
        self.min_cores
    }

    /// Sets a finite job length in ops (enables departure events).
    pub fn with_total_ops(mut self, ops: f64) -> Self {
        assert!(ops > 0.0);
        self.total_ops = Some(ops);
        self
    }

    /// Attaches phase behaviour.
    pub fn with_phases(mut self, phases: PhaseTrack) -> Self {
        self.phases = Some(phases);
        self
    }

    /// The benchmark's name (e.g. `"stream"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload class.
    pub fn category(&self) -> Category {
        self.category
    }

    /// Total ops to completion, if the job is finite.
    pub fn total_ops(&self) -> Option<f64> {
        self.total_ops
    }

    /// The phase track, if any.
    pub fn phases(&self) -> Option<&PhaseTrack> {
        self.phases.as_ref()
    }

    /// Amdahl speedup at `n` cores.
    pub fn speedup(&self, n: usize) -> f64 {
        let p = self.parallel_fraction.value();
        1.0 / ((1.0 - p) + p / n.max(1) as f64)
    }

    /// Evaluates performance, demand and dynamic power at `knob` on
    /// `spec`, at the profile's nominal (phase-free) intensity.
    pub fn evaluate(&self, spec: &ServerSpec, knob: KnobSetting) -> OperatingPoint {
        EVALUATIONS.with(|n| n.set(n.get() + 1));
        self.evaluate_with_intensity(spec, knob, 1.0, 1.0)
    }

    /// Evaluates at `knob` with the given multipliers on compute and
    /// memory intensity (used by the phase machinery; both must be
    /// positive).
    pub fn evaluate_with_intensity(
        &self,
        spec: &ServerSpec,
        knob: KnobSetting,
        compute_scale: f64,
        memory_scale: f64,
    ) -> OperatingPoint {
        assert!(compute_scale > 0.0 && memory_scale >= 0.0);
        let freq_hz = knob.frequency(spec).to_hertz().value();
        let n = knob.cores();

        // Compute-side time per op.
        let instr = self.instr_per_op * compute_scale;
        let ct = instr * self.cpi / (freq_hz * self.speedup(n));

        // Memory-side time per op under the DRAM RAPL limit.
        let bytes = self.bytes_per_op * memory_scale;
        let bw = spec.dram_power().bandwidth_at_limit(knob.dram_limit());
        let mt = if bytes == 0.0 {
            0.0
        } else if bw.value() <= 0.0 {
            f64::INFINITY
        } else {
            bytes / bw.value()
        };

        // Partial overlap between compute and memory.
        let w = self.overlap.value();
        let time_per_op = w * ct.max(mt) + (1.0 - w) * (ct + mt);
        let throughput = if time_per_op.is_finite() && time_per_op > 0.0 {
            1.0 / time_per_op
        } else {
            0.0
        };

        let core_busy = if time_per_op > 0.0 && time_per_op.is_finite() {
            Ratio::new((ct / time_per_op).min(1.0))
        } else {
            Ratio::ZERO
        };
        let mem_bandwidth = BytesPerSec::new(bytes * throughput);
        let demand = AppDemand {
            core_busy,
            mem_bandwidth,
        };

        let freq = knob.frequency(spec);
        let core_power = spec.core_power().power_at_utilization(freq, core_busy) * n as f64;
        let dram_power = spec.dram_power().power_at_bandwidth(mem_bandwidth);
        OperatingPoint {
            throughput,
            demand,
            dynamic_power: core_power + dram_power,
        }
    }

    /// Evaluates at `knob` with intensities taken from the phase active
    /// at `elapsed` (falls back to nominal when no phases are attached).
    pub fn evaluate_at(
        &self,
        spec: &ServerSpec,
        knob: KnobSetting,
        elapsed: Seconds,
    ) -> OperatingPoint {
        match &self.phases {
            Some(track) => {
                let phase = track.phase_at(elapsed);
                self.evaluate_with_intensity(spec, knob, phase.compute_scale, phase.memory_scale)
            }
            None => self.evaluate(spec, knob),
        }
    }

    /// The uncapped operating point: maximal knob on `spec`
    /// (`Perf_X_nocap` in the paper's Eq. 1).
    pub fn uncapped(&self, spec: &ServerSpec) -> OperatingPoint {
        self.evaluate(spec, KnobSetting::max_for(spec))
    }

    /// Whether this app is memory-bound at the uncapped point (memory
    /// time exceeds compute time).
    #[cfg(test)]
    pub fn is_memory_bound(&self, spec: &ServerSpec) -> bool {
        let op = self.uncapped(spec);
        op.demand.core_busy.value() < 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_server::dvfs::DvfsState;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    fn compute_bound() -> AppProfile {
        AppProfile::new("cb", Category::DataAnalytics, 1e6, 0.6, 5e4, 0.95, 0.7)
    }

    fn memory_bound() -> AppProfile {
        AppProfile::new("mb", Category::MemoryStreaming, 1e6, 1.0, 4e6, 0.9, 0.7)
    }

    #[test]
    fn speedup_is_amdahl() {
        let p = compute_bound();
        assert!((p.speedup(1) - 1.0).abs() < 1e-12);
        let s6 = p.speedup(6);
        assert!(s6 > 4.0 && s6 < 6.0);
        // Diminishing returns.
        assert!(p.speedup(6) - p.speedup(5) < p.speedup(2) - p.speedup(1));
    }

    #[test]
    fn compute_bound_app_gains_from_frequency() {
        let spec = spec();
        let app = compute_bound();
        let base = KnobSetting::max_for(&spec);
        let slow = app.evaluate(&spec, base.with_dvfs(DvfsState::new(0)));
        let fast = app.evaluate(&spec, base);
        assert!(fast.throughput > slow.throughput * 1.4);
    }

    #[test]
    fn memory_bound_app_gains_from_dram_watts() {
        let spec = spec();
        let app = memory_bound();
        let base = KnobSetting::max_for(&spec);
        let starved = app.evaluate(&spec, base.with_dram_limit(Watts::new(3.0)));
        let fed = app.evaluate(&spec, base);
        assert!(fed.throughput > starved.throughput * 2.0);
        // ...but barely from frequency.
        let slow = app.evaluate(&spec, base.with_dvfs(DvfsState::new(0)));
        assert!(fed.throughput < slow.throughput * 1.3);
    }

    #[test]
    fn busy_fraction_reflects_boundedness() {
        let spec = spec();
        let knob = KnobSetting::max_for(&spec);
        assert!(compute_bound().evaluate(&spec, knob).demand.core_busy > Ratio::new(0.5));
        assert!(memory_bound().evaluate(&spec, knob).demand.core_busy < Ratio::new(0.5));
        assert!(memory_bound().is_memory_bound(&spec));
        assert!(!compute_bound().is_memory_bound(&spec));
    }

    #[test]
    fn dynamic_power_rises_with_knobs() {
        let spec = spec();
        let app = compute_bound();
        let lo = app.evaluate(&spec, KnobSetting::min_for(&spec));
        let hi = app.evaluate(&spec, KnobSetting::max_for(&spec));
        assert!(hi.dynamic_power > lo.dynamic_power);
        assert!(hi.throughput > lo.throughput);
    }

    #[test]
    fn zero_bandwidth_limit_starves_memory_app() {
        // A spec whose min limit equals background power gives 0 B/s.
        let spec = spec();
        let app = memory_bound();
        let knob = KnobSetting::max_for(&spec).with_dram_limit(Watts::new(2.0));
        // set_limit clamps at DRAM model background (2 W) => zero bandwidth.
        let op = app.evaluate(&spec, knob);
        assert_eq!(op.throughput, 0.0);
        assert_eq!(op.demand.core_busy, Ratio::ZERO);
    }

    #[test]
    fn uncapped_is_best_over_grid() {
        let spec = spec();
        let app = compute_bound();
        let best = app.uncapped(&spec).throughput;
        for knob in spec.knob_grid().iter() {
            assert!(app.evaluate(&spec, knob).throughput <= best + 1e-9);
        }
    }

    #[test]
    #[should_panic]
    fn invalid_profile_panics() {
        let _ = AppProfile::new("bad", Category::DataAnalytics, 0.0, 1.0, 1.0, 0.5, 0.5);
    }

    #[test]
    fn finite_jobs_report_total_ops() {
        let app = compute_bound().with_total_ops(1000.0);
        assert_eq!(app.total_ops(), Some(1000.0));
        assert_eq!(compute_bound().total_ops(), None);
    }

    #[test]
    fn with_name_rebadges_without_behaviour_change() {
        let spec = spec();
        let a = compute_bound();
        let b = compute_bound().with_name("clone-7");
        assert_eq!(b.name(), "clone-7");
        let knob = KnobSetting::max_for(&spec);
        assert_eq!(
            a.evaluate(&spec, knob).throughput,
            b.evaluate(&spec, knob).throughput
        );
    }

    #[test]
    fn slo_marks_latency_critical() {
        assert_eq!(compute_bound().slo(), None);
        assert_eq!(compute_bound().with_slo(0.8).slo(), Some(0.8));
    }

    #[test]
    #[should_panic(expected = "slo must lie in (0, 1]")]
    fn invalid_slo_rejected() {
        let _ = compute_bound().with_slo(1.5);
    }

    #[test]
    fn min_feasible_power_near_paper_regime() {
        // At (f_min, min_cores, m_min) an app draws several watts —
        // enough that two apps cannot share a 10 W dynamic budget
        // (the paper's 80 W-cap regime, Sec. IV-B).
        let spec = spec();
        for app in [compute_bound(), memory_bound()] {
            let knob = KnobSetting::min_for(&spec).with_cores(app.min_cores());
            let p = app.evaluate(&spec, knob).dynamic_power.value();
            assert!(p > 4.5, "{} min power {p} W", app.name());
        }
    }

    #[test]
    fn category_display() {
        assert_eq!(Category::MemoryStreaming.to_string(), "memory");
        assert_eq!(Category::GraphAnalytics.to_string(), "graph");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::catalog;
    use powermed_server::dvfs::DvfsState;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Throughput is monotone in every knob for every catalog app:
        /// more frequency, more cores or more DRAM watts never slow an
        /// application down.
        #[test]
        fn prop_throughput_monotone_in_knobs(
            app in 0usize..12,
            f in 0usize..8,
            n in 1usize..6,
            m in 3u32..10,
        ) {
            let spec = ServerSpec::xeon_e5_2620();
            let profile = &catalog::all()[app];
            let base = KnobSetting::new(DvfsState::new(f), n, Watts::new(m as f64));
            let t0 = profile.evaluate(&spec, base).throughput;
            let up_f = base.with_dvfs(DvfsState::new(f + 1));
            prop_assert!(profile.evaluate(&spec, up_f).throughput >= t0 - 1e-9);
            let up_n = base.with_cores(n + 1);
            prop_assert!(profile.evaluate(&spec, up_n).throughput >= t0 - 1e-9);
            let up_m = base.with_dram_limit(Watts::new((m + 1) as f64));
            prop_assert!(profile.evaluate(&spec, up_m).throughput >= t0 - 1e-9);
        }

        /// Dynamic power stays within physical bounds at every setting.
        #[test]
        fn prop_power_within_bounds(app in 0usize..12, idx in 0usize..432) {
            let spec = ServerSpec::xeon_e5_2620();
            let profile = &catalog::all()[app];
            let knob = spec.knob_grid().get(idx).unwrap();
            let op = profile.evaluate(&spec, knob);
            prop_assert!(op.dynamic_power >= Watts::ZERO);
            prop_assert!(
                op.dynamic_power <= spec.max_app_dynamic_power() + Watts::new(1e-6),
                "{} at {knob}: {:?}",
                profile.name(),
                op.dynamic_power
            );
            prop_assert!(op.throughput.is_finite() && op.throughput >= 0.0);
            prop_assert!((0.0..=1.0).contains(&op.demand.core_busy.value()));
        }

        /// Heavier intensity never increases throughput at a fixed knob.
        #[test]
        fn prop_intensity_slows_apps_down(
            app in 0usize..12,
            scale in 1.0f64..5.0,
        ) {
            let spec = ServerSpec::xeon_e5_2620();
            let profile = &catalog::all()[app];
            let knob = KnobSetting::max_for(&spec);
            let base = profile.evaluate_with_intensity(&spec, knob, 1.0, 1.0);
            let heavier = profile.evaluate_with_intensity(&spec, knob, scale, scale);
            prop_assert!(heavier.throughput <= base.throughput + 1e-9);
        }
    }
}
