//! Extension beyond the paper: the mediator on a faulty substrate.
//!
//! The paper's evaluation assumes an obedient server: every knob write
//! lands, every power sample is clean, and the ESD behaves exactly as
//! modelled. This experiment breaks those assumptions with the seeded
//! fault-injection layer (`powermed_sim::faults`) and measures how much
//! the graceful-degradation hardening of the [`PowerMediator`] buys
//! back: each fault scenario runs twice, once with the trusting runtime
//! and once hardened (bounded actuation retries, safe-mode watchdog,
//! E5/E6 replan events), and the table reports throughput, cap
//! violations, injected fault counts and the mitigation counters.
//!
//! A second sweep scans the knob-actuation failure rate from 0 to 10%
//! to show where retries stop being free.
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses one short
//! reference run into a single hash so CI can assert bit-identical
//! fault traces cheaply (`ext_faults --smoke`). [`run_one`] is the one
//! simulation loop the fault, flight-recorder and doctor paths share.

use std::fmt::Write as _;

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_core::watchdog::HardeningConfig;
use powermed_server::ServerSpec;
use powermed_sim::faults::{FaultConfig, FaultRecord};
use powermed_telemetry::faults::{FaultStats, HardeningStats};
use powermed_telemetry::journal::Obs;
use powermed_units::hash::Fnv1a;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};

use crate::support::{heading, make_sim, par_map, pct, DT};

/// Seed shared by the scenario grid (the sweep offsets it per point).
pub const SEED: u64 = 0xFA_07;

/// One cell of the fault grid: a scenario run under one runtime flavor.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOutcome {
    /// Mean normalized throughput across the mix.
    pub mean_normalized: f64,
    /// Fraction of time the *true* net draw exceeded the cap.
    pub violation_fraction: f64,
    /// Discrete fault events injected (noise perturbations excluded).
    pub fault_stats: FaultStats,
    /// The mediator's mitigation counters (all zero when unhardened).
    pub hardening: HardeningStats,
    /// Whether the run ended inside safe mode.
    pub safe_mode: bool,
    /// FNV-1a digest of the full fault trace (determinism witness).
    pub trace_digest: u64,
}

/// A named fault scenario: injection config plus the operating point.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Table label.
    pub label: &'static str,
    /// What to inject.
    pub config: FaultConfig,
    /// The power cap.
    pub cap: Watts,
    /// Whether the server has the Lead-Acid ESD attached.
    pub with_battery: bool,
    /// The policy under test.
    pub kind: PolicyKind,
}

/// The scenario grid: one row per failure mode, plus the reference
/// scenario combining them.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let esd_point = (Watts::new(80.0), true, PolicyKind::AppResEsdAware);
    let cpu_point = (Watts::new(100.0), false, PolicyKind::AppResAware);
    let mk = |label, config, (cap, with_battery, kind): (Watts, bool, PolicyKind)| Scenario {
        label,
        config,
        cap,
        with_battery,
        kind,
    };
    vec![
        mk("no faults", FaultConfig::none(seed), cpu_point),
        mk(
            "reference (1% knob, 2% noise, faded ESD)",
            FaultConfig::default_scenario(seed),
            esd_point,
        ),
        mk(
            "flaky knobs (5% write failures)",
            FaultConfig {
                seed,
                knob_failure_prob: 0.05,
                ..FaultConfig::default()
            },
            cpu_point,
        ),
        mk(
            "meter stress (5% stuck + 5% dropout + 5% noise)",
            FaultConfig {
                seed,
                meter_noise_sigma: 0.05,
                meter_stuck_prob: 0.05,
                meter_dropout_prob: 0.05,
                ..FaultConfig::default()
            },
            cpu_point,
        ),
        mk(
            "ESD stuck at idle",
            FaultConfig {
                seed,
                esd_stuck_at_idle: true,
                ..FaultConfig::default()
            },
            esd_point,
        ),
        mk(
            "crashy apps (1%/step, 2 s restart)",
            FaultConfig {
                seed,
                app_crash_prob: 0.01,
                ..FaultConfig::default()
            },
            cpu_point,
        ),
    ]
}

/// The mix every scenario runs (stream + kmeans, the runtime tests'
/// reference pair).
pub fn reference_mix() -> Mix {
    mixes::table2()
        .into_iter()
        .find(|m| {
            let [a, b] = m.apps();
            a.name() == "stream" && b.name() == "kmeans"
                || a.name() == "kmeans" && b.name() == "stream"
        })
        .unwrap_or_else(|| mixes::mix(1).expect("mix 1 exists"))
}

/// A cap that alternates between the scenario's cap and `lo` every
/// `period`, modelling datacenter-level cap adjustments (event E1).
/// Every change re-installs the schedule and re-actuates every knob, so
/// knob writes — the surface actuation faults attack — keep happening
/// throughout the run instead of only at admission time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wobble {
    /// The low cap phase.
    pub lo: Watts,
    /// How long each phase lasts.
    pub period: Seconds,
}

/// Runs one scenario under one runtime flavor for `duration`, with the
/// cap wobbling when `wobble` is set and the flight recorder attached to
/// the simulator and the mediator when `obs` is set. The recorder is
/// bookkeeping only: the outcome is bit-identical with and without it.
pub fn run_one(
    scenario: &Scenario,
    mix: &Mix,
    hardened: bool,
    duration: Seconds,
    wobble: Option<Wobble>,
    obs: Option<&Obs>,
) -> FaultOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim =
        make_sim(&spec, scenario.with_battery).with_fault_injection(scenario.config.clone());
    let mut med = PowerMediator::new(scenario.kind, spec.clone(), scenario.cap);
    if hardened {
        med = med.with_hardening(HardeningConfig::default());
    }
    if let Some(obs) = obs {
        sim.set_observability(obs.clone());
        med = med.with_observability(obs.clone());
    }
    for app in mix.apps() {
        med.admit(&mut sim, app.clone()).expect("mix fits");
    }
    let steps = (duration.value() / DT.value()).round() as u64;
    for step in 0..steps {
        if let Some(Wobble { lo, period }) = wobble {
            let period_steps = ((period.value() / DT.value()).round() as u64).max(1);
            if step > 0 && step % period_steps == 0 {
                let low_phase = (step / period_steps) % 2 == 1;
                med.set_cap(&mut sim, if low_phase { lo } else { scenario.cap });
            }
        }
        med.step(&mut sim, DT);
    }
    let simulated = DT.value() * steps as f64;
    let mean = mix
        .apps()
        .iter()
        .map(|a| sim.ops_done(a.name()) / (a.uncapped(&spec).throughput * simulated))
        .sum::<f64>()
        / mix.apps().len() as f64;
    FaultOutcome {
        mean_normalized: mean,
        violation_fraction: sim.meter().compliance().violation_fraction(),
        fault_stats: sim.fault_stats(),
        hardening: med.hardening_stats(),
        safe_mode: med.safe_mode(),
        trace_digest: trace_digest(sim.fault_trace()),
    }
}

/// FNV-1a over the debug rendering of the fault trace. Cheap, stable,
/// and sensitive to every field of every record.
pub fn trace_digest(trace: &[FaultRecord]) -> u64 {
    let mut hash = Fnv1a::new();
    for record in trace {
        write!(hash, "{record:?}").expect("debug formatting failed");
    }
    hash.finish()
}

/// Duration of the full scenario runs (matches the runtime's stuck-ESD
/// hardening test: long enough for safe mode to engage and release).
pub const SCENARIO_DURATION: Seconds = Seconds::new(30.0);

/// Runs the whole grid, `(scenario, unhardened, hardened)` per row.
pub fn run_grid() -> Vec<(Scenario, FaultOutcome, FaultOutcome)> {
    let mix = reference_mix();
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for hardened in [false, true] {
            cells.push((s.clone(), hardened));
        }
    }
    let outs = par_map(cells, |(s, hardened)| {
        run_one(&s, &mix, hardened, SCENARIO_DURATION, None, None)
    });
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Knob-failure rates scanned by the actuation sweep.
pub const SWEEP_RATES: [f64; 5] = [0.0, 0.01, 0.02, 0.05, 0.10];

/// Runs the actuation-failure sweep, hardened and unhardened per rate.
/// The cap wobbles between 100 W and 90 W every second so each point
/// performs dozens of knob writes for the failure rate to bite on.
pub fn run_sweep() -> Vec<(f64, FaultOutcome, FaultOutcome)> {
    let mix = reference_mix();
    let mut cells = Vec::new();
    for rate in SWEEP_RATES {
        // Common random numbers: one seed across rates aligns the
        // Bernoulli draws, so a write that fails at 1% also fails at
        // every higher rate and the dose-response is monotone.
        let config = FaultConfig {
            seed: SEED + 2,
            knob_failure_prob: rate,
            ..FaultConfig::default()
        };
        let scenario = Scenario {
            label: "sweep",
            config,
            cap: Watts::new(100.0),
            with_battery: false,
            kind: PolicyKind::AppResAware,
        };
        for hardened in [false, true] {
            cells.push((scenario.clone(), hardened));
        }
    }
    let wobble = Wobble {
        lo: Watts::new(90.0),
        period: Seconds::new(1.0),
    };
    let outs = par_map(cells, |(s, hardened)| {
        run_one(&s, &mix, hardened, Seconds::new(20.0), Some(wobble), None)
    });
    outs.chunks_exact(2)
        .zip(SWEEP_RATES)
        .map(|(pair, rate)| (rate, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// One short reference run condensed to a single determinism witness:
/// the fault-trace digest folded with the outcome's bit patterns. Two
/// calls with the same seed must agree bit-for-bit; different seeds
/// must not.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = Scenario {
        label: "smoke",
        config: FaultConfig::default_scenario(seed),
        cap: Watts::new(80.0),
        with_battery: true,
        kind: PolicyKind::AppResEsdAware,
    };
    let out = run_one(
        &scenario,
        &reference_mix(),
        true,
        Seconds::new(5.0),
        None,
        None,
    );
    let mut digest = Fnv1a::resume(out.trace_digest);
    for bits in [
        out.mean_normalized.to_bits(),
        out.violation_fraction.to_bits(),
        out.fault_stats.total_events(),
        out.hardening.retries,
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

fn print_pair(label: &str, plain: &FaultOutcome, hard: &FaultOutcome) {
    println!(
        "{:<46} {:>8} {:>9.2}% {:>7} {:>6} | {:>8} {:>9.2}% {:>5} {:>4} {:>4}",
        label,
        pct(plain.mean_normalized),
        plain.violation_fraction * 100.0,
        plain.fault_stats.total_events(),
        if plain.safe_mode { "safe" } else { "-" },
        pct(hard.mean_normalized),
        hard.violation_fraction * 100.0,
        hard.hardening.retries,
        hard.hardening.safe_mode_entries,
        hard.hardening.sensor_faults,
    );
}

/// Prints the extension experiment.
pub fn print() {
    heading("Extension: fault injection — trusting vs hardened mediator");
    println!(
        "{:<46} {:>8} {:>10} {:>7} {:>6} | {:>8} {:>10} {:>5} {:>4} {:>4}",
        "scenario (unhardened | hardened)",
        "mean",
        "viol",
        "faults",
        "mode",
        "mean",
        "viol",
        "retry",
        "safe",
        "e6"
    );
    for (s, plain, hard) in run_grid() {
        print_pair(s.label, &plain, &hard);
    }

    heading("Extension: knob-actuation failure-rate sweep (100 W, no ESD)");
    println!(
        "{:<46} {:>8} {:>10} {:>7} {:>6} | {:>8} {:>10} {:>5} {:>4} {:>4}",
        "knob failure rate",
        "mean",
        "viol",
        "faults",
        "mode",
        "mean",
        "viol",
        "retry",
        "safe",
        "e6"
    );
    for (rate, plain, hard) in run_sweep() {
        print_pair(&format!("{:.0}%", rate * 100.0), &plain, &hard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_scenario_injects_nothing() {
        let s = &scenarios(SEED)[0];
        assert_eq!(s.label, "no faults");
        let out = run_one(s, &reference_mix(), false, Seconds::new(5.0), None, None);
        assert_eq!(out.fault_stats.total_events(), 0);
        assert_eq!(out.trace_digest, trace_digest(&[]), "empty trace");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn hardening_strictly_reduces_violations_on_the_degraded_esd_rows() {
        for (s, plain, hard) in run_grid() {
            if !s.with_battery {
                continue;
            }
            assert!(
                hard.violation_fraction < plain.violation_fraction,
                "{}: hardened {} must beat unhardened {}",
                s.label,
                hard.violation_fraction,
                plain.violation_fraction
            );
            assert!(hard.hardening.safe_mode_entries >= 1, "{}", s.label);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn retries_keep_flaky_knob_throughput_close_to_clean() {
        let rows = run_sweep();
        let (_, clean, _) = &rows[0];
        let mut last_faults = 0;
        for (rate, plain, hard) in &rows[1..] {
            assert!(hard.hardening.retries > 0, "rate {rate}: retries fired");
            assert!(
                plain.fault_stats.total_events() >= last_faults,
                "rate {rate}: common random numbers make injection monotone"
            );
            last_faults = plain.fault_stats.total_events();
            assert!(
                hard.mean_normalized > 0.7 * clean.mean_normalized,
                "rate {rate}: hardened throughput collapsed ({} vs clean {})",
                hard.mean_normalized,
                clean.mean_normalized
            );
        }
    }
}
