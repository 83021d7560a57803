//! Seeded, deterministic adversarial-application behaviour.
//!
//! The fault injector in [`crate::faults`] models a substrate that
//! *breaks*; this module models applications that *lie*. Every signal
//! the mediator's estimation layer leans on since the disaggregation
//! work — heartbeats, calibration probes, knob compliance — is
//! ultimately produced by the application itself, so a strategic app
//! can misreport its way into a bigger slice of the shared budget at
//! honest apps' expense. Four channels cover the attack surface:
//!
//! * **Heartbeat misreporting** — the reported heartbeat rate is a
//!   constant multiple of the truth (inflation claims starvation to
//!   attract watts; deflation hides consumption), optionally with
//!   seeded multiplicative jitter so the lie is not a clean constant;
//! * **Calibration sandbagging** — during probes the app runs
//!   deliberately inefficiently at every sub-maximal knob, steepening
//!   the learned utility curve so the allocator believes only a
//!   near-maximal allocation yields useful throughput;
//! * **Knob non-compliance** — the app acks every knob write but keeps
//!   running its cores at top frequency and an uncapped DRAM limit.
//!   Core gating is enforced by the hypervisor and cannot be escaped,
//!   which is why only the `f` and `m` knobs are defied;
//! * **Phase spoofing** — the reported heartbeat is modulated by a
//!   square wave, claiming phase swings the power draw never shows.
//!
//! The channels perturb only what the *runtime is told*: ground truth
//! (true power, true progress, the meter) is computed exactly as
//! before, so experiments can score the attacker's real gain.
//!
//! # Determinism contract
//!
//! Same contract as [`crate::faults`]: the one randomized channel
//! (heartbeat jitter) draws from its own [`SplitMix`] stream, the
//! scenario seed XOR the channel's tag, draws happen only for adversarial apps at
//! points fixed by the single-threaded simulation order, and inert
//! channels consume no randomness. A [`ServerSim`] built without an
//! adversary never consults this module at all, so the layer is
//! zero-cost — and bit-identical — when off.
//!
//! [`ServerSim`]: crate::engine::ServerSim

use std::cell::Cell;

use powermed_server::{KnobSetting, ServerSpec};
use powermed_telemetry::faults::AdversaryStats;
use powermed_units::rng::SplitMix;
use powermed_units::Seconds;

/// Scenario description: which applications misbehave and how.
///
/// The default configuration misbehaves on no channel; constructors
/// for each single-channel attack keep experiment grids terse.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryConfig {
    /// Seed for the jitter stream.
    pub seed: u64,
    /// Names of the adversarial applications (honest apps are never
    /// touched).
    pub apps: Vec<String>,
    /// Multiplier applied to every reported heartbeat rate (1.0 = the
    /// channel is off; > 1 inflates, < 1 deflates).
    pub heartbeat_factor: f64,
    /// Multiplicative Gaussian jitter sigma on misreported heartbeats
    /// (0 = deterministic lie). Only drawn when the misreport channel
    /// is active, so enabling jitter never perturbs other channels.
    pub heartbeat_jitter: f64,
    /// Multiplier on probe-time throughput at sub-maximal knobs
    /// (1.0 = the channel is off; < 1 sandbags the learned curve).
    pub sandbag_factor: f64,
    /// When set, acked knob writes are silently overridden at step
    /// time with top frequency and an uncapped DRAM limit.
    pub knob_defiance: bool,
    /// Half-period of the phase-spoofing square wave (0 = off).
    pub spoof_period: Seconds,
    /// Depth of the spoof modulation: reported rates swing between
    /// `(1 - depth)` and `(1 + depth)` times the truth (0 = off).
    pub spoof_depth: f64,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        Self {
            seed: 0xAD5E,
            apps: Vec::new(),
            heartbeat_factor: 1.0,
            heartbeat_jitter: 0.0,
            sandbag_factor: 1.0,
            knob_defiance: false,
            spoof_period: Seconds::ZERO,
            spoof_depth: 0.0,
        }
    }
}

impl AdversaryConfig {
    /// A scenario with every channel off (the all-honest baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    fn targeting(seed: u64, apps: &[&str]) -> Self {
        Self {
            seed,
            apps: apps.iter().map(|a| (*a).to_string()).collect(),
            ..Self::default()
        }
    }

    /// Heartbeat misreporting: reported rates are `factor` times the
    /// truth (with a little seeded jitter so the lie is not constant).
    pub fn heartbeat_misreport(seed: u64, apps: &[&str], factor: f64) -> Self {
        Self {
            heartbeat_factor: factor,
            heartbeat_jitter: 0.02,
            ..Self::targeting(seed, apps)
        }
    }

    /// Calibration sandbagging: probes at sub-maximal knobs report
    /// `factor` times the true throughput.
    pub fn sandbagging(seed: u64, apps: &[&str], factor: f64) -> Self {
        Self {
            sandbag_factor: factor,
            ..Self::targeting(seed, apps)
        }
    }

    /// Knob non-compliance: every acked setting runs hot.
    pub fn noncompliance(seed: u64, apps: &[&str]) -> Self {
        Self {
            knob_defiance: true,
            ..Self::targeting(seed, apps)
        }
    }

    /// Phase spoofing: reported rates swing `±depth` with half-period
    /// `period` while the true draw stays put.
    pub fn phase_spoofing(seed: u64, apps: &[&str], period: Seconds, depth: f64) -> Self {
        Self {
            spoof_period: period,
            spoof_depth: depth,
            ..Self::targeting(seed, apps)
        }
    }

    /// Whether `app` is one of the configured adversaries.
    pub fn is_adversary(&self, app: &str) -> bool {
        self.apps.iter().any(|a| a == app)
    }

    /// Whether the heartbeat-misreport channel is active.
    fn misreport_active(&self) -> bool {
        self.heartbeat_factor != 1.0 || self.heartbeat_jitter > 0.0
    }

    /// Whether the phase-spoofing channel is active.
    fn spoof_active(&self) -> bool {
        self.spoof_period > Seconds::ZERO && self.spoof_depth != 0.0
    }
}

/// The deterministic adversary source wired into
/// [`crate::engine::ServerSim`], mirroring [`crate::faults::FaultInjector`].
#[derive(Debug)]
pub struct AdversaryInjector {
    config: AdversaryConfig,
    hb_rng: SplitMix,
    now: Seconds,
    /// Counters live in a `Cell` because the sandbag hook sits on the
    /// engine's `&self` probe path.
    stats: Cell<AdversaryStats>,
}

impl AdversaryInjector {
    /// Creates an injector for `config`. The jitter stream gets its
    /// own channel tag so it never collides with the fault channels
    /// (0xA001/0xB002/0xC003) even under a shared scenario seed.
    pub fn new(config: AdversaryConfig) -> Self {
        Self {
            hb_rng: SplitMix::new(config.seed ^ 0xD004),
            config,
            now: Seconds::ZERO,
            stats: Cell::new(AdversaryStats::default()),
        }
    }

    /// The scenario being injected.
    pub fn config(&self) -> &AdversaryConfig {
        &self.config
    }

    /// Misbehaviour counters so far.
    pub fn stats(&self) -> AdversaryStats {
        self.stats.get()
    }

    fn bump(&self, f: impl FnOnce(&mut AdversaryStats)) {
        let mut s = self.stats.get();
        f(&mut s);
        self.stats.set(s);
    }

    /// Synchronizes with the engine clock; called once at the top of
    /// every [`crate::engine::ServerSim::step`].
    pub(crate) fn begin_step(&mut self, now: Seconds) {
        self.now = now;
    }

    /// Filters a true heartbeat rate into what `app` reports. Honest
    /// apps (and `None` windows) pass through untouched.
    pub(crate) fn report_heartbeat(&mut self, app: &str, truth: Option<f64>) -> Option<f64> {
        let rate = truth?;
        if !self.config.is_adversary(app) {
            return Some(rate);
        }
        let mut factor = 1.0;
        if self.config.misreport_active() {
            factor *= self.config.heartbeat_factor;
            if self.config.heartbeat_jitter > 0.0 {
                let g = self.hb_rng.normal();
                factor *= (1.0 + self.config.heartbeat_jitter * g).max(0.0);
            }
            self.bump(|s| s.heartbeats_misreported += 1);
        }
        if self.config.spoof_active() {
            let phase = (self.now.value() / self.config.spoof_period.value()).floor() as i64;
            factor *= if phase % 2 == 0 {
                1.0 + self.config.spoof_depth
            } else {
                (1.0 - self.config.spoof_depth).max(0.0)
            };
            self.bump(|s| s.phases_spoofed += 1);
        }
        if factor == 1.0 {
            return Some(rate);
        }
        Some((rate * factor).max(0.0))
    }

    /// Filters a probe's true throughput into what `app` demonstrates
    /// during calibration. Sandbagging spares the maximal knob so the
    /// learned curve stays anchored at the truthful top — that is what
    /// makes the lie profitable rather than merely self-throttling.
    pub(crate) fn probe_throughput(&self, app: &str, at_max: bool, truth: f64) -> f64 {
        if self.config.sandbag_factor == 1.0 || at_max || !self.config.is_adversary(app) {
            return truth;
        }
        self.bump(|s| s.probes_sandbagged += 1);
        (truth * self.config.sandbag_factor).max(0.0)
    }

    /// The knob `app` actually runs at when `commanded` was acked.
    /// Defiant apps keep the commanded core count (gating is enforced
    /// below them) but run top frequency and an uncapped DRAM limit.
    pub(crate) fn effective_knob(
        &self,
        app: &str,
        spec: &ServerSpec,
        commanded: KnobSetting,
    ) -> KnobSetting {
        if !self.config.knob_defiance || !self.config.is_adversary(app) {
            return commanded;
        }
        let defied = commanded
            .with_dvfs(spec.ladder().top_state())
            .with_dram_limit(spec.dram_limit_max());
        if defied != commanded {
            self.bump(|s| s.knobs_defied += 1);
        }
        defied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    #[test]
    fn inert_config_passes_everything_through() {
        let spec = spec();
        let mut inj = AdversaryInjector::new(AdversaryConfig::none(1));
        inj.begin_step(Seconds::new(1.0));
        assert_eq!(inj.report_heartbeat("kmeans", Some(12.5)), Some(12.5));
        assert_eq!(inj.report_heartbeat("kmeans", None), None);
        assert_eq!(inj.probe_throughput("kmeans", false, 9.0), 9.0);
        let knob = KnobSetting::min_for(&spec);
        assert_eq!(inj.effective_knob("kmeans", &spec, knob), knob);
        assert_eq!(inj.stats().total_events(), 0);
    }

    #[test]
    fn honest_apps_are_untouched_by_an_active_adversary() {
        let spec = spec();
        let cfg = AdversaryConfig {
            knob_defiance: true,
            sandbag_factor: 0.4,
            heartbeat_factor: 2.0,
            ..AdversaryConfig::targeting(7, &["stream"])
        };
        let mut inj = AdversaryInjector::new(cfg);
        inj.begin_step(Seconds::new(1.0));
        assert_eq!(inj.report_heartbeat("kmeans", Some(3.0)), Some(3.0));
        assert_eq!(inj.probe_throughput("kmeans", false, 5.0), 5.0);
        let knob = KnobSetting::min_for(&spec);
        assert_eq!(inj.effective_knob("kmeans", &spec, knob), knob);
        assert_eq!(inj.stats().total_events(), 0);
    }

    #[test]
    fn misreport_scales_the_claim_and_jitter_is_seeded() {
        let drive = |seed: u64| -> Vec<Option<f64>> {
            let mut inj =
                AdversaryInjector::new(AdversaryConfig::heartbeat_misreport(seed, &["s"], 2.0));
            (0..50)
                .map(|i| {
                    inj.begin_step(Seconds::new(i as f64 * 0.1));
                    inj.report_heartbeat("s", Some(10.0))
                })
                .collect()
        };
        let a = drive(7);
        assert_eq!(a, drive(7), "same seed: bit-identical claims");
        assert_ne!(a, drive(8), "different seed: diverging jitter");
        let mean = a.iter().map(|v| v.unwrap()).sum::<f64>() / a.len() as f64;
        assert!((mean - 20.0).abs() < 1.0, "claims center on 2x: {mean}");
    }

    #[test]
    fn deflation_without_jitter_is_exact_and_draws_no_rng() {
        let cfg = AdversaryConfig {
            heartbeat_factor: 0.5,
            heartbeat_jitter: 0.0,
            ..AdversaryConfig::targeting(3, &["s"])
        };
        let mut inj = AdversaryInjector::new(cfg);
        inj.begin_step(Seconds::ZERO);
        assert_eq!(inj.report_heartbeat("s", Some(8.0)), Some(4.0));
        assert_eq!(inj.stats().heartbeats_misreported, 1);
    }

    #[test]
    fn sandbagging_spares_the_maximal_knob() {
        let inj = AdversaryInjector::new(AdversaryConfig::sandbagging(5, &["s"], 0.25));
        assert_eq!(inj.probe_throughput("s", false, 8.0), 2.0);
        assert_eq!(inj.probe_throughput("s", true, 8.0), 8.0, "top is truthful");
        assert_eq!(inj.stats().probes_sandbagged, 1);
    }

    #[test]
    fn defiance_keeps_cores_but_runs_hot() {
        let spec = spec();
        let inj = AdversaryInjector::new(AdversaryConfig::noncompliance(5, &["s"]));
        let commanded = KnobSetting::min_for(&spec).with_cores(3);
        let effective = inj.effective_knob("s", &spec, commanded);
        assert_eq!(effective.cores(), 3, "core gating cannot be escaped");
        assert_eq!(effective.dvfs(), spec.ladder().top_state());
        assert_eq!(effective.dram_limit(), spec.dram_limit_max());
        assert_eq!(inj.stats().knobs_defied, 1);
        // A commanded top setting is already "defied": no event.
        let top = KnobSetting::max_for(&spec);
        assert_eq!(inj.effective_knob("s", &spec, top), top);
        assert_eq!(inj.stats().knobs_defied, 1);
    }

    #[test]
    fn spoof_square_wave_is_time_deterministic() {
        let cfg = AdversaryConfig::phase_spoofing(9, &["s"], Seconds::new(1.0), 0.4);
        let mut inj = AdversaryInjector::new(cfg);
        inj.begin_step(Seconds::new(0.5));
        assert_eq!(inj.report_heartbeat("s", Some(10.0)), Some(14.0));
        inj.begin_step(Seconds::new(1.5));
        assert_eq!(inj.report_heartbeat("s", Some(10.0)), Some(6.0));
        inj.begin_step(Seconds::new(2.5));
        assert_eq!(inj.report_heartbeat("s", Some(10.0)), Some(14.0));
        assert_eq!(inj.stats().phases_spoofed, 3);
        assert_eq!(inj.stats().heartbeats_misreported, 0);
    }

    #[test]
    fn channels_compose_multiplicatively() {
        let cfg = AdversaryConfig {
            heartbeat_factor: 2.0,
            heartbeat_jitter: 0.0,
            spoof_period: Seconds::new(1.0),
            spoof_depth: 0.5,
            ..AdversaryConfig::targeting(1, &["s"])
        };
        let mut inj = AdversaryInjector::new(cfg);
        inj.begin_step(Seconds::new(0.1));
        assert_eq!(inj.report_heartbeat("s", Some(10.0)), Some(30.0));
    }
}
