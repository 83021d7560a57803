//! Seeded, deterministic fault injection for the simulated substrate.
//!
//! The paper's runtime assumes every DVFS/RAPL knob write lands, every
//! power sample is clean and the ESD behaves exactly as modelled. This
//! module breaks those assumptions on purpose, so the mediator can be
//! tested against a misbehaving substrate:
//!
//! * **Actuation faults** — a knob write is rejected outright, silently
//!   leaves the stale setting in force (and latches stale for a number
//!   of steps, modelling a wedged MSR/sysfs interface), or applies only
//!   partially (DVFS lands, the core re-allocation does not);
//! * **Meter faults** — multiplicative Gaussian noise, stuck/stale
//!   readings held for several steps, and sample dropouts, all applied
//!   to the value the *runtime observes*. The true net power is metered
//!   untouched for ground-truth scoring;
//! * **ESD degradation** — capacity fade and efficiency derating (via
//!   [`powermed_esd::DegradedEsd`], wired by the engine) plus a
//!   stuck-at-idle mode in which the device silently ignores every
//!   [`crate::engine::EsdCommand`];
//! * **Application crashes** — a running application crashes, stays down
//!   for a configurable number of steps, then restarts.
//!
//! # Determinism contract
//!
//! Each fault channel draws from its own [`SplitMix`] stream, the
//! scenario seed XOR the channel's tag, and every draw happens at a point fixed by
//! the simulation's own (single-threaded, fixed-timestep) execution
//! order. Two runs with the same seed and the same driver therefore
//! produce bit-identical fault traces, observations and results; runs
//! with different seeds diverge. The full event log is kept in a
//! [`FaultRecord`] trace so CI can assert the contract cheaply.

use std::collections::BTreeMap;

use powermed_telemetry::faults::FaultStats;
use powermed_units::rng::SplitMix;
use powermed_units::{Seconds, Watts};

/// Scenario description: which faults to inject and how hard.
///
/// The default configuration injects nothing; a [`ServerSim`] built
/// without faults never consults this module at all, so the layer is
/// zero-cost when off.
///
/// [`ServerSim`]: crate::engine::ServerSim
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-channel fault streams.
    pub seed: u64,
    /// Probability that a knob write fails (per write attempt).
    pub knob_failure_prob: f64,
    /// Steps a stale-mode failure keeps the knob interface wedged
    /// (subsequent writes to the same app silently no-op until expiry).
    pub knob_stale_steps: u64,
    /// Multiplicative Gaussian noise sigma on observed power (0 = off).
    pub meter_noise_sigma: f64,
    /// Constant multiplicative bias on every observed sample
    /// (`observed = net × (1 + bias)`; 0 = off). A *correlated* error
    /// mode: unlike the zero-mean noise channel it skews every reading
    /// the same way, so any per-app quantity derived from the meter
    /// inherits the same systematic error. Draws no randomness, so
    /// enabling it never perturbs the other channels' streams.
    pub meter_bias_frac: f64,
    /// Probability (per step) that the meter sticks at its current
    /// reading.
    pub meter_stuck_prob: f64,
    /// Steps a stuck reading is held.
    pub meter_stuck_steps: u64,
    /// Probability (per step) that a sample is dropped entirely.
    pub meter_dropout_prob: f64,
    /// Fraction of ESD capacity lost to ageing, in `[0, 1)`.
    pub esd_capacity_fade: f64,
    /// Per-direction ESD conversion-efficiency multiplier in `(0, 1]`
    /// (1.0 = nominal).
    pub esd_efficiency_derate: f64,
    /// When set, the ESD silently ignores every non-idle command.
    pub esd_stuck_at_idle: bool,
    /// Probability (per running app, per step) of a transient crash.
    pub app_crash_prob: f64,
    /// Steps a crashed application stays down before restarting.
    pub app_restart_steps: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            knob_failure_prob: 0.0,
            knob_stale_steps: 10,
            meter_noise_sigma: 0.0,
            meter_bias_frac: 0.0,
            meter_stuck_prob: 0.0,
            meter_stuck_steps: 5,
            meter_dropout_prob: 0.0,
            esd_capacity_fade: 0.0,
            esd_efficiency_derate: 1.0,
            esd_stuck_at_idle: false,
            app_crash_prob: 0.0,
            app_restart_steps: 20,
        }
    }
}

impl FaultConfig {
    /// A scenario with every channel off (useful as a sweep baseline).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The PR's reference fault scenario: 1% actuation failures, 2%
    /// multiplicative meter noise, and a faded, derated ESD.
    pub fn default_scenario(seed: u64) -> Self {
        Self {
            seed,
            knob_failure_prob: 0.01,
            meter_noise_sigma: 0.02,
            esd_capacity_fade: 0.30,
            esd_efficiency_derate: 0.90,
            ..Self::default()
        }
    }

    /// Whether the ESD needs to be wrapped in a degradation model.
    pub fn esd_degradation_active(&self) -> bool {
        self.esd_capacity_fade > 0.0 || self.esd_efficiency_derate < 1.0
    }

    /// Whether any meter channel is active.
    fn meter_active(&self) -> bool {
        self.meter_noise_sigma > 0.0
            || self.meter_bias_frac != 0.0
            || self.meter_stuck_prob > 0.0
            || self.meter_dropout_prob > 0.0
    }
}

/// One injected fault, for the deterministic trace.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A knob write returned an error.
    KnobRejected {
        /// Targeted application.
        app: String,
    },
    /// A knob write silently left the old setting in force.
    KnobStale {
        /// Targeted application.
        app: String,
    },
    /// A knob write applied DVFS but not the core re-allocation.
    KnobPartial {
        /// Targeted application.
        app: String,
    },
    /// The meter latched onto its current reading.
    MeterStuck {
        /// Steps the reading will be held.
        steps: u64,
    },
    /// A power sample was dropped.
    MeterDropout,
    /// A non-idle ESD command was silently ignored.
    EsdCommandIgnored,
    /// An application crashed.
    AppCrash {
        /// The crashed application.
        app: String,
    },
    /// A crashed application restarted.
    AppRestart {
        /// The restarted application.
        app: String,
    },
}

/// A fault event stamped with the simulation step and time it occurred.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// Simulation step index at injection.
    pub step: u64,
    /// Simulation time at injection.
    pub at: Seconds,
    /// What happened.
    pub kind: FaultKind,
}

/// Outcome of a fault-checked knob write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobWriteOutcome {
    /// The write goes through normally.
    Apply,
    /// The write fails loudly (the caller sees an error).
    Reject,
    /// The write silently leaves the stale setting in force.
    Stale,
    /// Only the DVFS component lands; cores stay as they were.
    Partial,
}

/// The deterministic fault source wired into
/// [`crate::engine::ServerSim`].
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    knob_rng: SplitMix,
    meter_rng: SplitMix,
    app_rng: SplitMix,
    step: u64,
    now: Seconds,
    stats: FaultStats,
    trace: Vec<FaultRecord>,
    /// Apps whose knob interface is stale-latched, with the step the
    /// latch expires.
    stale_until: BTreeMap<String, u64>,
    /// A held (stuck) meter reading and the steps it remains held.
    held_reading: Option<(Watts, u64)>,
    /// Crashed apps and the step they restart.
    crashed: BTreeMap<String, u64>,
}

impl FaultInjector {
    /// Creates an injector for `config`, deriving one independent
    /// stream per fault channel so enabling one channel never perturbs
    /// another's sequence.
    pub fn new(config: FaultConfig) -> Self {
        Self {
            knob_rng: SplitMix::new(config.seed ^ 0xA001),
            meter_rng: SplitMix::new(config.seed ^ 0xB002),
            app_rng: SplitMix::new(config.seed ^ 0xC003),
            config,
            step: 0,
            now: Seconds::ZERO,
            stats: FaultStats::default(),
            trace: Vec::new(),
            stale_until: BTreeMap::new(),
            held_reading: None,
            crashed: BTreeMap::new(),
        }
    }

    /// The scenario being injected.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// The full deterministic fault trace.
    pub fn trace(&self) -> &[FaultRecord] {
        &self.trace
    }

    /// Synchronizes the injector with the engine clock; called once at
    /// the top of every [`crate::engine::ServerSim::step`].
    pub(crate) fn begin_step(&mut self, step: u64, now: Seconds) {
        self.step = step;
        self.now = now;
    }

    fn record(&mut self, kind: FaultKind) {
        self.trace.push(FaultRecord {
            step: self.step,
            at: self.now,
            kind,
        });
    }

    /// Decides the fate of a knob write targeting `app`.
    pub(crate) fn knob_write(&mut self, app: &str) -> KnobWriteOutcome {
        if let Some(&until) = self.stale_until.get(app) {
            if self.step < until {
                self.stats.knob_stale += 1;
                self.record(FaultKind::KnobStale {
                    app: app.to_string(),
                });
                return KnobWriteOutcome::Stale;
            }
            self.stale_until.remove(app);
        }
        if self.config.knob_failure_prob <= 0.0 {
            return KnobWriteOutcome::Apply;
        }
        if self.knob_rng.next_f64() >= self.config.knob_failure_prob {
            return KnobWriteOutcome::Apply;
        }
        match self.knob_rng.below(3) {
            0 => {
                self.stats.knob_rejections += 1;
                self.record(FaultKind::KnobRejected {
                    app: app.to_string(),
                });
                KnobWriteOutcome::Reject
            }
            1 => {
                self.stats.knob_stale += 1;
                self.stale_until
                    .insert(app.to_string(), self.step + self.config.knob_stale_steps);
                self.record(FaultKind::KnobStale {
                    app: app.to_string(),
                });
                KnobWriteOutcome::Stale
            }
            _ => {
                self.stats.knob_partial += 1;
                self.record(FaultKind::KnobPartial {
                    app: app.to_string(),
                });
                KnobWriteOutcome::Partial
            }
        }
    }

    /// Filters the true net draw into what the runtime observes this
    /// step: `None` on a dropout, a held value while stuck, otherwise
    /// the (possibly noise-perturbed) reading.
    pub(crate) fn observe_net(&mut self, net: Watts) -> Option<Watts> {
        if !self.config.meter_active() {
            return Some(net);
        }
        if let Some((held, remaining)) = self.held_reading {
            if remaining > 0 {
                self.held_reading = Some((held, remaining - 1));
                self.stats.meter_stuck += 1;
                return Some(held);
            }
            self.held_reading = None;
        }
        if self.config.meter_dropout_prob > 0.0
            && self.meter_rng.next_f64() < self.config.meter_dropout_prob
        {
            self.stats.meter_dropouts += 1;
            self.record(FaultKind::MeterDropout);
            return None;
        }
        let mut observed = net;
        if self.config.meter_bias_frac != 0.0 {
            observed = (observed * (1.0 + self.config.meter_bias_frac)).max_zero();
            self.stats.meter_biased += 1;
        }
        if self.config.meter_noise_sigma > 0.0 {
            let g = self.meter_rng.normal();
            observed = (observed * (1.0 + self.config.meter_noise_sigma * g)).max_zero();
            self.stats.meter_noisy += 1;
        }
        if self.config.meter_stuck_prob > 0.0
            && self.meter_rng.next_f64() < self.config.meter_stuck_prob
        {
            let steps = self.config.meter_stuck_steps;
            self.held_reading = Some((observed, steps));
            self.stats.meter_stuck += 1;
            self.record(FaultKind::MeterStuck { steps });
        }
        Some(observed)
    }

    /// Whether the ESD silently ignores non-idle commands.
    pub(crate) fn esd_stuck(&self) -> bool {
        self.config.esd_stuck_at_idle
    }

    /// Accounts one ignored non-idle ESD command.
    pub(crate) fn note_esd_ignored(&mut self) {
        self.stats.esd_commands_ignored += 1;
        self.record(FaultKind::EsdCommandIgnored);
    }

    /// Returns apps whose restart timer expired this step, clearing
    /// their crash state and recording the restarts.
    pub(crate) fn restarts_due(&mut self) -> Vec<String> {
        let due: Vec<String> = self
            .crashed
            .iter()
            .filter(|(_, &at)| self.step >= at)
            .map(|(n, _)| n.clone())
            .collect();
        for name in &due {
            self.crashed.remove(name);
            self.stats.app_restarts += 1;
            self.record(FaultKind::AppRestart { app: name.clone() });
        }
        due
    }

    /// Rolls a crash for a currently-running `app`; returns `true` when
    /// it crashes this step.
    pub(crate) fn crash_roll(&mut self, app: &str) -> bool {
        if self.config.app_crash_prob <= 0.0 || self.crashed.contains_key(app) {
            return false;
        }
        if self.app_rng.next_f64() >= self.config.app_crash_prob {
            return false;
        }
        self.crashed
            .insert(app.to_string(), self.step + self.config.app_restart_steps);
        self.stats.app_crashes += 1;
        self.record(FaultKind::AppCrash {
            app: app.to_string(),
        });
        true
    }

    /// Whether `app` is currently down from a crash.
    pub(crate) fn is_crashed(&self, app: &str) -> bool {
        self.crashed.contains_key(app)
    }

    /// Forgets any crash state for a removed app.
    pub(crate) fn forget_app(&mut self, app: &str) {
        self.crashed.remove(app);
        self.stale_until.remove(app);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_config(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            knob_failure_prob: 0.5,
            meter_noise_sigma: 0.1,
            meter_stuck_prob: 0.1,
            meter_dropout_prob: 0.1,
            app_crash_prob: 0.2,
            app_restart_steps: 3,
            ..FaultConfig::default()
        }
    }

    fn drive(seed: u64) -> (Vec<FaultRecord>, Vec<Option<Watts>>) {
        let mut inj = FaultInjector::new(noisy_config(seed));
        let mut observed = Vec::new();
        for step in 0..200u64 {
            inj.begin_step(step, Seconds::new(step as f64 * 0.1));
            let _ = inj.restarts_due();
            let _ = inj.crash_roll("kmeans");
            let _ = inj.knob_write("kmeans");
            observed.push(inj.observe_net(Watts::new(90.0)));
        }
        (inj.trace().to_vec(), observed)
    }

    #[test]
    fn same_seed_same_trace() {
        let (t1, o1) = drive(7);
        let (t2, o2) = drive(7);
        assert_eq!(t1, t2, "same seed must give a bit-identical trace");
        assert_eq!(o1, o2, "same seed must give bit-identical observations");
        assert!(!t1.is_empty(), "the noisy scenario injects something");
    }

    #[test]
    fn different_seed_different_trace() {
        let (t1, _) = drive(7);
        let (t2, _) = drive(8);
        assert_ne!(t1, t2, "different seeds must diverge");
    }

    #[test]
    fn inert_config_observes_truth_and_records_nothing() {
        let mut inj = FaultInjector::new(FaultConfig::none(1));
        inj.begin_step(0, Seconds::ZERO);
        assert_eq!(inj.knob_write("a"), KnobWriteOutcome::Apply);
        assert_eq!(inj.observe_net(Watts::new(77.0)), Some(Watts::new(77.0)));
        assert!(!inj.crash_roll("a"));
        assert!(inj.trace().is_empty());
        assert_eq!(inj.stats().total_events(), 0);
    }

    #[test]
    fn stale_latch_wedges_subsequent_writes() {
        let mut inj = FaultInjector::new(FaultConfig {
            knob_failure_prob: 1.0,
            knob_stale_steps: 5,
            ..FaultConfig::default()
        });
        // Force a stale outcome by rolling until one latches.
        let mut latched_at = None;
        for step in 0..100u64 {
            inj.begin_step(step, Seconds::new(step as f64));
            if inj.knob_write("x") == KnobWriteOutcome::Stale && !inj.stale_until.is_empty() {
                latched_at = Some(step);
                break;
            }
        }
        let at = latched_at.expect("p=1 produces a stale latch quickly");
        // While latched every write is stale without consuming RNG.
        inj.begin_step(at + 1, Seconds::new(at as f64 + 1.0));
        assert_eq!(inj.knob_write("x"), KnobWriteOutcome::Stale);
        // Other apps are unaffected by x's latch (they roll their own).
        assert!(inj.stale_until.contains_key("x"));
        // After expiry the latch clears.
        inj.begin_step(at + 6, Seconds::new(at as f64 + 6.0));
        let outcome = inj.knob_write("x");
        assert!(!matches!(outcome, KnobWriteOutcome::Apply) || inj.stale_until.is_empty());
    }

    #[test]
    fn stuck_meter_holds_the_reading() {
        let mut inj = FaultInjector::new(FaultConfig {
            meter_stuck_prob: 1.0,
            meter_stuck_steps: 3,
            ..FaultConfig::default()
        });
        inj.begin_step(0, Seconds::ZERO);
        let first = inj.observe_net(Watts::new(50.0)).unwrap();
        assert_eq!(first, Watts::new(50.0), "no noise configured");
        // The next three observations return the held value even though
        // the true power moved.
        for step in 1..=3u64 {
            inj.begin_step(step, Seconds::new(step as f64));
            assert_eq!(inj.observe_net(Watts::new(90.0)), Some(first));
        }
    }

    #[test]
    fn shared_bias_skews_every_sample_without_consuming_rng() {
        let mut inj = FaultInjector::new(FaultConfig {
            meter_bias_frac: 0.05,
            ..FaultConfig::default()
        });
        inj.begin_step(0, Seconds::ZERO);
        assert_eq!(inj.observe_net(Watts::new(100.0)), Some(Watts::new(105.0)));
        inj.begin_step(1, Seconds::new(0.1));
        assert_eq!(inj.observe_net(Watts::new(80.0)), Some(Watts::new(84.0)));
        // Bias is continuous: counted, but no discrete trace events and
        // no RNG draws that would perturb the other channels.
        assert!(inj.trace().is_empty());
        assert_eq!(inj.stats().meter_biased, 2);
        assert_eq!(inj.stats().total_events(), 0);
    }

    #[test]
    fn bias_composes_under_noise_draws_identically_to_unbiased() {
        // Common random numbers: the bias channel must not consume from
        // the meter stream, so the noise multipliers line up between a
        // biased and an unbiased run with the same seed.
        let run = |bias: f64| -> Vec<Option<Watts>> {
            let mut inj = FaultInjector::new(FaultConfig {
                meter_noise_sigma: 0.02,
                meter_bias_frac: bias,
                ..FaultConfig::default()
            });
            (0..50u64)
                .map(|s| {
                    inj.begin_step(s, Seconds::new(s as f64 * 0.1));
                    inj.observe_net(Watts::new(100.0))
                })
                .collect()
        };
        let plain = run(0.0);
        let biased = run(0.06);
        for (p, b) in plain.iter().zip(&biased) {
            let (p, b) = (p.expect("no dropouts"), b.expect("no dropouts"));
            assert!(
                (b.value() - p.value() * 1.06).abs() < 1e-9,
                "bias must scale the identical noisy sample: {p:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn crash_and_restart_cycle() {
        let mut inj = FaultInjector::new(FaultConfig {
            app_crash_prob: 1.0,
            app_restart_steps: 2,
            ..FaultConfig::default()
        });
        inj.begin_step(0, Seconds::ZERO);
        assert!(inj.crash_roll("bfs"));
        assert!(inj.is_crashed("bfs"));
        assert!(!inj.crash_roll("bfs"), "already down");
        inj.begin_step(1, Seconds::new(0.1));
        assert!(inj.restarts_due().is_empty());
        inj.begin_step(2, Seconds::new(0.2));
        assert_eq!(inj.restarts_due(), vec!["bfs".to_string()]);
        assert!(!inj.is_crashed("bfs"));
        let s = inj.stats();
        assert_eq!(s.app_crashes, 1);
        assert_eq!(s.app_restarts, 1);
    }

    #[test]
    fn fault_channels_are_deterministic_and_independent_per_tag() {
        let mut a = SplitMix::new(9 ^ 0xA001);
        let mut a_again = SplitMix::new(9 ^ 0xA001);
        let mut b = SplitMix::new(9 ^ 0xB002);
        let first = a.next_f64();
        assert_eq!(first, a_again.next_f64(), "same (seed, tag)");
        assert_ne!(first, b.next_f64(), "different tag diverges");
    }
}
