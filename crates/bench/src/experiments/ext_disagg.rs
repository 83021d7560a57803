//! Extension beyond the paper: the full policy stack on *estimated*
//! per-app power.
//!
//! Every prior experiment hands the mediator the simulator's oracle
//! [`PowerBreakdown`](powermed_server::server::PowerBreakdown) — per-app power
//! meters that real shared servers do not have. This experiment removes
//! the oracle: the mediator runs with `with_estimation`, reconstructing
//! per-app shares from only the aggregate net meter, the current knob
//! settings, heartbeats, and the calibrated profiles (a constrained
//! least-squares disaggregation with per-app confidence intervals, see
//! `powermed_disagg`). Every scenario runs twice under common random
//! numbers — once on the oracle, once on estimates — and the table
//! scores the gap: throughput, cap-violation seconds, mean absolute
//! per-app attribution error, and the estimation degradation ladder's
//! counters (residual spikes, confidence-fallback engagements,
//! escalations, E6 sensor faults).
//!
//! Beyond the PR 2 fault grid, three rows inject *correlated* error —
//! the regime where disaggregation is genuinely hard because the
//! per-app priors all go wrong together:
//!
//! * **shared meter bias**: the one meter every share is carved from
//!   reads 10% high. No independent cross-check exists on a real
//!   server; the estimated-sum-vs-meter residual is the only tell, and
//!   the expected response is the full ladder — spikes, the
//!   confidence fallback (planning cap shaved by the band, surfaced as
//!   an E6), and eventually a forced safe-mode escalation, because a
//!   meter that disagrees with every model *should* end in
//!   conservative throttling.
//! * **simultaneous phase shift**: both apps share one phase track and
//!   double their memory traffic at the same instant, so the admission
//!   profiles go stale *together* and the residual cannot be pinned on
//!   either app alone.
//! * **profile poisoning (stale tombstone)**: the knowledge-plane
//!   store holds a high-confidence poisoned profile (power at 60% of
//!   truth) that outranked its own invalidation tombstone; warm-start
//!   admission takes it on faith and probes nothing. The healing path
//!   is the point: the estimated shares keep the Accountant's E4 drift
//!   check alive, which tombstones and re-probes the poisoned entry —
//!   with no oracle in the loop.
//!
//! [`gate`] encodes the release bound (`ext_disagg --gate`): on the
//! PR 2 reference scenario the estimated stack must land within a
//! fixed margin of the oracle and never escalate to forced safe mode
//! (the single-server analogue of a breaker trip), and the clean row
//! must show zero false-positive engagements or E6s.
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses a short
//! estimated reference run into one hash so CI can diff two
//! invocations (`ext_disagg --smoke`). [`doctor_scenario`] is the
//! replay behind `doctor --explain sensor-fault`.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_core::watchdog::HardeningConfig;
use powermed_core::MeasurementCache;
use powermed_disagg::EstimatorConfig;
use powermed_profiles::{AppFingerprint, ProbeSample, ProfileStore, Provenance, StoredProfile};
use powermed_server::ServerSpec;
use powermed_sim::faults::FaultConfig;
use powermed_telemetry::faults::{EstimationStats, FaultStats, HardeningStats};
use powermed_telemetry::journal::Obs;
use powermed_units::hash::Fnv1a;
use powermed_units::{Seconds, Watts};
use powermed_workloads::catalog;
use powermed_workloads::mixes::Mix;
use powermed_workloads::phases::{Phase, PhaseTrack};
use powermed_workloads::AppProfile;

use powermed_cf::FoldedRow;

use crate::experiments::ext_faults::{self, trace_digest, SCENARIO_DURATION};
use crate::harness::GateCheck;
use crate::support::{heading, make_sim, par_map, pct, DT};

/// Seed shared by the scenario grid.
pub const SEED: u64 = 0xD15A;

/// Sparse-sampling fraction of the poisoned-store row's online
/// calibration (matches the warm-start experiments' operating point).
pub const SAMPLING_FRACTION: f64 = 0.10;

/// Power scale of the poisoned store entry: the profile claims the
/// apps draw 60% of their true power, at 0.95 confidence.
pub const POISON_POWER_SCALE: f64 = 0.6;

/// Correlated error mode layered on top of the injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correlated {
    /// Nothing beyond the scenario's `FaultConfig`.
    None,
    /// Both apps share one phase track: their memory traffic jumps at
    /// the same instant, so every prior goes stale simultaneously.
    PhaseShift,
    /// Warm-start admission rides a high-confidence poisoned store
    /// entry that outranked its own invalidation tombstone.
    PoisonedStore,
}

/// A named disaggregation scenario: the PR 2 fault surface plus the
/// correlated error mode.
#[derive(Debug, Clone)]
pub struct DisaggScenario {
    /// Table label.
    pub label: &'static str,
    /// What the substrate injects.
    pub config: FaultConfig,
    /// The power cap.
    pub cap: Watts,
    /// Whether the server has the Lead-Acid ESD attached.
    pub with_battery: bool,
    /// The policy under test.
    pub kind: PolicyKind,
    /// Correlated error layered on top.
    pub correlated: Correlated,
}

/// One cell of the grid: a scenario run under one power source.
#[derive(Debug, Clone, PartialEq)]
pub struct DisaggOutcome {
    /// Mean normalized throughput across the mix.
    pub mean_normalized: f64,
    /// Seconds the *true* net draw exceeded the cap.
    pub violation_seconds: f64,
    /// Mean absolute per-app attribution error in watts (0 on the
    /// oracle flavor — there is nothing estimated to be wrong).
    pub mean_abs_err_w: f64,
    /// Discrete fault events injected (noise/bias perturbations excluded).
    pub fault_stats: FaultStats,
    /// The mediator's mitigation counters.
    pub hardening: HardeningStats,
    /// The estimation degradation ladder's counters (all zero on the
    /// oracle flavor).
    pub estimation: EstimationStats,
    /// Fleet-store invalidations (the poisoned row's healing signal;
    /// zero when no store is attached).
    pub store_invalidations: u64,
    /// Whether the run ended inside safe mode.
    pub safe_mode: bool,
    /// FNV-1a digest of the full fault trace (determinism witness).
    pub trace_digest: u64,
}

/// The scenario grid: every PR 2 fault row re-run under estimation,
/// plus the three correlated error rows.
pub fn scenarios(seed: u64) -> Vec<DisaggScenario> {
    let mut rows: Vec<DisaggScenario> = ext_faults::scenarios(seed)
        .into_iter()
        .map(|s| DisaggScenario {
            label: s.label,
            config: s.config,
            cap: s.cap,
            with_battery: s.with_battery,
            kind: s.kind,
            correlated: Correlated::None,
        })
        .collect();
    rows.push(DisaggScenario {
        label: "shared meter bias (+10%)",
        config: FaultConfig {
            seed,
            meter_bias_frac: 0.10,
            ..FaultConfig::default()
        },
        cap: Watts::new(100.0),
        with_battery: false,
        kind: PolicyKind::AppResAware,
        correlated: Correlated::None,
    });
    rows.push(DisaggScenario {
        label: "simultaneous phase shift (memory x2.5)",
        config: FaultConfig::none(seed),
        cap: Watts::new(100.0),
        with_battery: false,
        kind: PolicyKind::AppResAware,
        correlated: Correlated::PhaseShift,
    });
    rows.push(DisaggScenario {
        label: "profile poisoning (stale tombstone)",
        config: FaultConfig::none(seed),
        cap: Watts::new(100.0),
        with_battery: false,
        kind: PolicyKind::AppResAware,
        correlated: Correlated::PoisonedStore,
    });
    rows
}

/// The grid row the `doctor` binary's `--explain sensor-fault` replays:
/// the shared-meter-bias scenario, where the residual cross-check is
/// the only evidence and the full ladder fires.
pub fn doctor_scenario(seed: u64) -> DisaggScenario {
    let s = scenarios(seed)
        .into_iter()
        .nth(6)
        .expect("the grid's seventh row is the shared-bias scenario");
    assert!(s.label.starts_with("shared meter bias"), "grid reordered");
    s
}

/// The phase track both apps share in the phase-shift row: nominal for
/// 10 s, then memory traffic jumps 2.5x for 10 s, cyclically. Compute
/// per op is unchanged, so heartbeats barely move while power does —
/// the heartbeat-scaled priors cannot absorb the shift.
pub fn shared_phase_track() -> PhaseTrack {
    PhaseTrack::new(vec![
        Phase {
            compute_scale: 1.0,
            memory_scale: 1.0,
            duration: Seconds::new(10.0),
        },
        Phase {
            compute_scale: 1.0,
            memory_scale: 2.5,
            duration: Seconds::new(10.0),
        },
    ])
}

/// The mix's apps with the scenario's correlated mode applied.
fn scenario_apps(scenario: &DisaggScenario, mix: &Mix) -> Vec<AppProfile> {
    mix.apps()
        .iter()
        .map(|a| {
            let app = (*a).clone();
            match scenario.correlated {
                Correlated::PhaseShift => app.with_phases(shared_phase_track()),
                _ => app,
            }
        })
        .collect()
}

/// A knowledge-plane store poisoned for every app in `apps`: version 1
/// is the invalidation tombstone that *should* have retired the entry,
/// version 2 is a stale replica claiming [`POISON_POWER_SCALE`] of the
/// true power at 0.95 confidence with full grid coverage — it outranks
/// the tombstone, so a warm-start admission takes the whole surface on
/// faith and probes nothing.
pub fn poisoned_store(spec: &ServerSpec, apps: &[AppProfile]) -> ProfileStore {
    let mut store = ProfileStore::default();
    for app in apps {
        let fp = AppFingerprint::of(app);
        let truth = MeasurementCache::global().measure(spec, app);
        let samples: Vec<ProbeSample> = (0..truth.grid().len())
            .map(|col| ProbeSample {
                col,
                power_w: truth.power(col).value() * POISON_POWER_SCALE,
                perf: truth.perf(col),
            })
            .collect();
        store.publish(fp, StoredProfile::tombstone(1, 0));
        store.publish(
            fp,
            StoredProfile {
                version: 2,
                confidence: 0.95,
                samples,
                power_row: FoldedRow::new(0.0, Vec::new()),
                perf_row: FoldedRow::new(0.0, Vec::new()),
                provenance: Provenance {
                    server: 9,
                    epoch: 0,
                    probes: 0,
                },
            },
        );
    }
    store
}

/// Builds the mediator for one scenario flavor (`estimated` = the
/// disaggregation layer replaces the oracle breakdown).
fn build_mediator(
    scenario: &DisaggScenario,
    spec: &ServerSpec,
    apps: &[AppProfile],
    estimated: bool,
) -> PowerMediator {
    let mut med = PowerMediator::new(scenario.kind, spec.clone(), scenario.cap)
        .with_hardening(HardeningConfig::default());
    if estimated {
        med = med.with_estimation(EstimatorConfig::default());
    }
    if scenario.correlated == Correlated::PoisonedStore {
        let corpus = catalog::all();
        med = med
            .with_online_calibration(&corpus, SAMPLING_FRACTION)
            .with_profile_store(poisoned_store(spec, apps), 1);
    }
    med
}

/// Runs one scenario under one power source for `duration`, with the
/// flight recorder attached when `obs` is set. The loop is
/// [`ext_faults::run_one`]'s plus the per-step attribution-error
/// accumulation against the simulator's ground-truth breakdown (the
/// oracle is consulted only for *scoring*, never by the mediator).
pub fn run_one(
    scenario: &DisaggScenario,
    mix: &Mix,
    estimated: bool,
    duration: Seconds,
    obs: Option<&Obs>,
) -> DisaggOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim =
        make_sim(&spec, scenario.with_battery).with_fault_injection(scenario.config.clone());
    let apps = scenario_apps(scenario, mix);
    let mut med = build_mediator(scenario, &spec, &apps, estimated);
    if let Some(obs) = obs {
        sim.set_observability(obs.clone());
        med = med.with_observability(obs.clone());
    }
    for app in &apps {
        med.admit(&mut sim, app.clone()).expect("mix fits");
    }
    let steps = (duration.value() / DT.value()).round() as u64;
    let mut err_sum = 0.0;
    let mut err_n = 0u64;
    for _ in 0..steps {
        med.step(&mut sim, DT);
        if let Some(estimate) = med.last_estimate() {
            for name in sim.app_names() {
                let true_w = sim.app_power(name).expect("hosted");
                let est = estimate.apps.get(name).map(|s| s.watts).unwrap_or(0.0);
                err_sum += (est - true_w.value()).abs();
                err_n += 1;
            }
        }
    }
    let simulated = DT.value() * steps as f64;
    let mean = mix
        .apps()
        .iter()
        .map(|a| sim.ops_done(a.name()) / (a.uncapped(&spec).throughput * simulated))
        .sum::<f64>()
        / mix.apps().len() as f64;
    DisaggOutcome {
        mean_normalized: mean,
        violation_seconds: sim.meter().compliance().violation_fraction() * simulated,
        mean_abs_err_w: err_sum / err_n.max(1) as f64,
        fault_stats: sim.fault_stats(),
        hardening: med.hardening_stats(),
        estimation: med.estimation_stats(),
        store_invalidations: med.store_stats().invalidations,
        safe_mode: med.safe_mode(),
        trace_digest: trace_digest(sim.fault_trace()),
    }
}

/// Runs the whole grid, `(scenario, oracle, estimated)` per row. Both
/// flavors share each scenario's seed (common random numbers), so they
/// face the same fault draws wherever both consume them.
pub fn run_grid() -> Vec<(DisaggScenario, DisaggOutcome, DisaggOutcome)> {
    let mix = ext_faults::reference_mix();
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for estimated in [false, true] {
            cells.push((s.clone(), estimated));
        }
    }
    let outs = par_map(cells, |(s, estimated)| {
        run_one(&s, &mix, estimated, SCENARIO_DURATION, None)
    });
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Margin on the reference row's mean normalized throughput gap
/// (estimated vs oracle, absolute).
pub const GATE_MEAN_MARGIN: f64 = 0.10;

/// Margin on the reference row's extra cap-violation seconds
/// (estimated minus oracle).
pub const GATE_VIOLATION_MARGIN_S: f64 = 2.0;

/// Evaluates the release bounds over grid `rows`:
///
/// * reference scenario: estimated throughput within
///   [`GATE_MEAN_MARGIN`] of the oracle, at most
///   [`GATE_VIOLATION_MARGIN_S`] extra violation seconds, and zero
///   forced safe-mode escalations (the single-server analogue of a
///   breaker trip — the estimator must degrade by shaving, not by
///   tripping, on the faults hardening already handles);
/// * clean scenario: zero confidence-fallback engagements and zero E6
///   sensor faults (bounded false-positive rate: on a healthy
///   substrate the ladder must stay silent).
pub fn gate(rows: &[(DisaggScenario, DisaggOutcome, DisaggOutcome)]) -> Vec<GateCheck> {
    let (ref_s, ref_oracle, ref_est) = &rows[1];
    assert!(ref_s.label.starts_with("reference"), "grid reordered");
    let (clean_s, _, clean_est) = &rows[0];
    assert_eq!(clean_s.label, "no faults", "grid reordered");
    let mean_gap = (ref_est.mean_normalized - ref_oracle.mean_normalized).abs();
    let viol_gap = ref_est.violation_seconds - ref_oracle.violation_seconds;
    vec![
        GateCheck {
            name: "reference throughput gap".to_string(),
            ok: mean_gap <= GATE_MEAN_MARGIN,
            detail: format!(
                "|{:.4} - {:.4}| = {:.4} (margin {GATE_MEAN_MARGIN})",
                ref_est.mean_normalized, ref_oracle.mean_normalized, mean_gap
            ),
        },
        GateCheck {
            name: "reference violation seconds gap".to_string(),
            ok: viol_gap <= GATE_VIOLATION_MARGIN_S,
            detail: format!(
                "{:.2}s - {:.2}s = {:+.2}s (margin {GATE_VIOLATION_MARGIN_S}s)",
                ref_est.violation_seconds, ref_oracle.violation_seconds, viol_gap
            ),
        },
        GateCheck {
            name: "reference escalations (breaker-trip analogue)".to_string(),
            ok: ref_est.estimation.escalations == 0,
            detail: format!("{} escalations", ref_est.estimation.escalations),
        },
        GateCheck {
            name: "clean-run false positives".to_string(),
            ok: clean_est.estimation.fallback_engagements == 0
                && clean_est.hardening.sensor_faults == 0,
            detail: format!(
                "{} engagements, {} E6",
                clean_est.estimation.fallback_engagements, clean_est.hardening.sensor_faults
            ),
        },
    ]
}

/// One short estimated reference run condensed to a determinism
/// witness: the fault-trace digest folded with the outcome's bit
/// patterns and the ladder counters. Two calls with the same seed must
/// agree bit-for-bit; different seeds must not.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = scenarios(seed)
        .into_iter()
        .nth(1)
        .expect("reference row exists");
    let out = run_one(
        &scenario,
        &ext_faults::reference_mix(),
        true,
        Seconds::new(5.0),
        None,
    );
    let mut digest = Fnv1a::resume(out.trace_digest);
    for bits in [
        out.mean_normalized.to_bits(),
        out.violation_seconds.to_bits(),
        out.mean_abs_err_w.to_bits(),
        out.estimation.estimates,
        out.estimation.residual_spikes,
        out.estimation.fallback_engagements,
        out.estimation.escalations,
        out.hardening.sensor_faults,
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

fn print_pair(label: &str, oracle: &DisaggOutcome, est: &DisaggOutcome) {
    println!(
        "{:<42} {:>8} {:>7.2} {:>5} | {:>8} {:>7.2} {:>7.2} {:>5} {:>4} {:>4} {:>4} {:>6}",
        label,
        pct(oracle.mean_normalized),
        oracle.violation_seconds,
        if oracle.safe_mode { "safe" } else { "-" },
        pct(est.mean_normalized),
        est.violation_seconds,
        est.mean_abs_err_w,
        est.estimation.residual_spikes,
        est.estimation.fallback_engagements,
        est.estimation.escalations,
        est.hardening.sensor_faults,
        if est.safe_mode { "safe" } else { "-" },
    );
}

/// Prints the extension experiment and returns its release checks.
pub fn report() -> Vec<GateCheck> {
    heading("Extension: estimated per-app power — oracle vs disaggregated stack");
    println!(
        "{:<42} {:>8} {:>7} {:>5} | {:>8} {:>7} {:>7} {:>5} {:>4} {:>4} {:>4} {:>6}",
        "scenario (oracle | estimated)",
        "mean",
        "viol s",
        "mode",
        "mean",
        "viol s",
        "err W",
        "spike",
        "fall",
        "esc",
        "e6",
        "mode"
    );
    let rows = run_grid();
    for (s, oracle, est) in &rows {
        print_pair(s.label, oracle, est);
    }
    println!(
        "\n(err W = mean absolute per-app attribution error vs the simulator's\nground truth, consulted only for scoring; spike/fall/esc = the estimation\ndegradation ladder's counters; both flavors share each scenario's fault\nseed — common random numbers)"
    );
    let checks = gate(&rows);
    println!("\nrelease gates:");
    for check in &checks {
        println!("  {}", check.line(44));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{find, journal_timeline, walk, Chain};
    use powermed_telemetry::journal::{EventJournal, EventRecord, ObsConfig, ObsEvent};

    fn sensor_fault_chain(journal: &[EventRecord]) -> Option<Chain> {
        walk(
            find("sensor-fault").unwrap(),
            &journal_timeline(journal),
            None,
        )
    }

    #[test]
    fn clean_run_estimates_every_poll_without_false_positives() {
        let s = &scenarios(SEED)[0];
        assert_eq!(s.label, "no faults");
        let out = run_one(
            s,
            &ext_faults::reference_mix(),
            true,
            Seconds::new(5.0),
            None,
        );
        assert_eq!(out.estimation.estimates, 50, "one estimate per poll");
        assert_eq!(out.estimation.fallback_engagements, 0);
        assert_eq!(out.hardening.sensor_faults, 0);
        assert!(
            out.mean_abs_err_w < 5.0,
            "attribution error {} W too large on a clean run",
            out.mean_abs_err_w
        );
    }

    #[test]
    fn oracle_flavor_attributes_nothing_and_runs_no_ladder() {
        let s = &scenarios(SEED)[0];
        let out = run_one(
            s,
            &ext_faults::reference_mix(),
            false,
            Seconds::new(5.0),
            None,
        );
        assert_eq!(out.estimation.estimates, 0);
        assert_eq!(out.mean_abs_err_w, 0.0);
    }

    #[test]
    fn shared_bias_walks_the_full_ladder() {
        let s = doctor_scenario(SEED);
        let out = run_one(
            &s,
            &ext_faults::reference_mix(),
            true,
            Seconds::new(5.0),
            None,
        );
        assert!(
            out.estimation.residual_spikes > 0,
            "a 10% shared bias must spike the residual"
        );
        assert_eq!(
            out.estimation.fallback_engagements, 1,
            "sustained bias engages the confidence fallback once"
        );
        assert_eq!(
            out.hardening.sensor_faults, 1,
            "the engagement latches exactly one E6"
        );
        // The oracle flavor sees nothing: bias only skews the observed
        // channel, and the oracle stack never consults it for shares.
        let oracle = run_one(
            &s,
            &ext_faults::reference_mix(),
            false,
            Seconds::new(5.0),
            None,
        );
        assert_eq!(oracle.estimation.fallback_engagements, 0);
    }

    #[test]
    fn poisoned_store_is_detected_and_tombstoned_without_the_oracle() {
        let s = scenarios(SEED)
            .into_iter()
            .nth(8)
            .expect("poisoning row exists");
        assert!(s.label.starts_with("profile poisoning"));
        let est = run_one(
            &s,
            &ext_faults::reference_mix(),
            true,
            Seconds::new(5.0),
            None,
        );
        assert!(
            est.estimation.residual_spikes > 0,
            "poisoned priors must disagree with the meter"
        );
        assert!(
            est.store_invalidations >= 1,
            "estimated shares must keep E4 alive: the poisoned entry is tombstoned"
        );
        let oracle = run_one(
            &s,
            &ext_faults::reference_mix(),
            false,
            Seconds::new(5.0),
            None,
        );
        assert!(
            oracle.store_invalidations >= 1,
            "the oracle stack heals the same way (the comparison is fair)"
        );
    }

    #[test]
    fn explain_sensor_fault_reconstructs_the_chain() {
        // Hand-built journal: spikes arm the ladder, the fallback
        // engages, the E6 latches; a later clean release bounds the
        // window of a second engagement.
        let at = Seconds::new;
        let mut j = EventJournal::new(64);
        let spike = |streak| ObsEvent::ResidualSpike {
            residual_w: 12.0,
            band_w: 3.0,
            streak,
        };
        j.record(at(0.1), 1, 0, spike(1));
        j.record(at(0.2), 2, 0, spike(2));
        j.record(
            at(0.3),
            3,
            0,
            ObsEvent::FallbackCap {
                shave_w: 3.0,
                engaged: true,
            },
        );
        j.record(
            at(0.3),
            3,
            0,
            ObsEvent::SensorFault {
                what: "estimated-vs-meter residual".into(),
            },
        );
        j.record(
            at(1.0),
            10,
            0,
            ObsEvent::FallbackCap {
                shave_w: 0.0,
                engaged: false,
            },
        );
        j.record(at(2.0), 20, 0, spike(1));
        j.record(
            at(2.1),
            21,
            0,
            ObsEvent::FallbackCap {
                shave_w: 4.0,
                engaged: true,
            },
        );
        j.record(
            at(2.1),
            21,
            0,
            ObsEvent::SensorFault {
                what: "estimated-vs-meter residual".into(),
            },
        );
        let journal: Vec<EventRecord> = j.iter().cloned().collect();

        let ex = sensor_fault_chain(&journal).expect("chain exists");
        // The walk explains the LAST engagement; its window starts
        // after the release, so only the second round's spike counts.
        // (The journal assigns sequence numbers itself: records 0..8.)
        let (causes, fallback) = (ex.records("causes"), &ex.anchor.record);
        assert_eq!(causes.len(), 1);
        assert_eq!(causes[0].record.seq, 5);
        assert_eq!(fallback.seq, 6);
        assert!(matches!(
            ex.records("fault")[0].record.event,
            ObsEvent::SensorFault { .. }
        ));
        assert!(causes.iter().all(|c| c.record.seq < fallback.seq));

        // No engagement, no chain.
        assert!(sensor_fault_chain(&journal[..2]).is_none());
    }

    #[test]
    fn bias_run_yields_an_explainable_sensor_fault() {
        // The acceptance contract behind `doctor --explain
        // sensor-fault`: the doctor scenario's observed run must
        // contain a reconstructable chain.
        let obs = Obs::new(ObsConfig::default());
        let out = run_one(
            &doctor_scenario(SEED),
            &ext_faults::reference_mix(),
            true,
            Seconds::new(5.0),
            Some(&obs),
        );
        let ex = sensor_fault_chain(&obs.journal_snapshot()).expect("chain exists");
        let causes = ex.records("causes");
        assert!(!causes.is_empty());
        assert!(causes
            .iter()
            .any(|c| matches!(c.record.event, ObsEvent::ResidualSpike { .. })));
        // Physics must match the unobserved estimated run bit-for-bit.
        let plain = run_one(
            &doctor_scenario(SEED),
            &ext_faults::reference_mix(),
            true,
            Seconds::new(5.0),
            None,
        );
        assert_eq!(plain, out);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn release_gates_hold_on_the_full_grid() {
        let rows = run_grid();
        for check in gate(&rows) {
            assert!(check.ok, "{}: {}", check.name, check.detail);
        }
        // The bias row must end defensively: a meter no model agrees
        // with is exactly when forced throttling is correct.
        let (s, _, est) = &rows[6];
        assert!(s.label.starts_with("shared meter bias"));
        assert!(est.estimation.fallback_engagements >= 1);
    }
}
