//! Extension beyond the paper: gaming-resistant mediation under
//! adversarial applications.
//!
//! Every channel the estimated-power stack trusts is a channel an
//! application can lie on. This experiment seeds the four attacks the
//! threat model names — heartbeat misreporting, calibration
//! sandbagging, knob non-compliance, phase spoofing — plus a colluding
//! pair, and scores the mediator's integrity defense (per-app trust
//! scores from physics plausibility cross-checks, an E7 quarantine
//! ladder with fair-share clamping, and a watt-debt ledger that claws
//! back overdrawn watts).
//!
//! The mix is deliberately power-constrained: three applications
//! (stream, kmeans, pagerank) share a 100 W cap, so the planner hands
//! out sub-maximal knobs and a defector has real watts to steal. The
//! attacker is **kmeans** — compute-bound, so running a hotter DVFS
//! point than commanded genuinely buys it throughput (a memory-bound
//! defector would gain almost nothing and the rows would show a
//! toothless threat).
//!
//! Every attack row runs twice under common random numbers — once
//! **undefended** (estimation only: the PR 7 stack, which believes
//! every self-report) and once **defended** (estimation + the
//! integrity defense) — and both are compared against the all-honest
//! baseline of the same flavor. The table scores the attacker's *net
//! gain* (normalized throughput above what honest behavior earns),
//! the honest apps' loss, and the defense's counters.
//!
//! [`gate`] encodes the release bounds (`ext_adversary --gate`): the
//! defended attacker's net gain must not exceed [`GATE_GAIN_MARGIN`]
//! on any row, honest apps must keep their baseline throughput within
//! [`GATE_HONEST_LOSS_MARGIN`], the all-honest defended row must show
//! **zero** quarantines (no false positives), and the knob-defiance
//! row must actually quarantine the defector (detection end-to-end).
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses a short
//! defended defiance run into one hash for `ext_adversary --smoke`.
//! [`doctor_scenario`] is the replay behind `doctor --explain
//! quarantine`.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_core::TrustConfig;
use powermed_disagg::EstimatorConfig;
use powermed_server::ServerSpec;
use powermed_sim::AdversaryConfig;
use powermed_telemetry::faults::{AdversaryStats, EstimationStats, TrustStats};
use powermed_telemetry::journal::Obs;
use powermed_units::hash::Fnv1a;
use powermed_units::{Seconds, Watts};
use powermed_workloads::{catalog, AppProfile};

use crate::harness::GateCheck;
use crate::support::{heading, make_sim, par_map, pct, DT};

/// Seed shared by the scenario grid.
pub const SEED: u64 = 0xBADD;

/// The shared power cap of every row, in watts. Three apps under
/// 100 W is the constrained regime where defection pays.
pub const CAP_W: f64 = 100.0;

/// How long each grid row runs.
pub const SCENARIO_DURATION: Seconds = Seconds::new(30.0);

/// The defector's heartbeat-deflation factor (reports 30% of its true
/// rate: "I am starved, leave my budget alone").
pub const DEFLATION_FACTOR: f64 = 0.3;

/// The sandbagging factor: probes at sub-maximal knobs report 60% of
/// the truth, steepening the learned utility curve.
pub const SANDBAG_FACTOR: f64 = 0.6;

/// Phase-spoof modulation depth: reported rates swing ±60% around the
/// truth, so both half-periods land outside the plausibility clamp.
pub const SPOOF_DEPTH: f64 = 0.6;

/// Phase-spoof half-period.
pub const SPOOF_PERIOD: Seconds = Seconds::new(4.0);

/// One adversarial scenario of the grid.
#[derive(Debug, Clone)]
pub struct AdversaryScenario {
    /// Table label.
    pub label: &'static str,
    /// The seeded injector configuration (all channels off for the
    /// all-honest baseline row).
    pub config: AdversaryConfig,
    /// Names of the misbehaving apps (empty on the baseline row).
    pub attackers: Vec<&'static str>,
}

/// One cell of the grid: a scenario run under one defense flavor.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryOutcome {
    /// `(app, normalized throughput)` per admitted app, in admission
    /// order.
    pub per_app: Vec<(String, f64)>,
    /// Mean normalized throughput of the attacker set (0 when the row
    /// has no attackers).
    pub attacker_perf: f64,
    /// Mean normalized throughput of the honest set.
    pub honest_perf: f64,
    /// Seconds the true net draw exceeded the cap.
    pub violation_seconds: f64,
    /// The injector's channel counters (what the adversary actually did).
    pub adversary: AdversaryStats,
    /// The defense's counters (all zero undefended).
    pub trust: TrustStats,
    /// The estimation layer's counters.
    pub estimation: EstimationStats,
    /// Watts charged to the debt ledger over the run.
    pub debt_charged_w: f64,
    /// Watts clawed back from quarantine clamps over the run.
    pub debt_repaid_w: f64,
    /// Apps still distrusted (suspect, quarantined, or on probation)
    /// at run end.
    pub distrusted: Vec<String>,
}

/// The apps of every row, admission order. The attacker is kmeans.
pub fn grid_apps() -> Vec<AppProfile> {
    vec![catalog::stream(), catalog::kmeans(), catalog::pagerank()]
}

/// The scenario grid: the all-honest baseline, each single-channel
/// attack on kmeans, and a colluding pair (kmeans and stream defy
/// their knobs *and* inflate their heartbeats to mask the residual).
pub fn scenarios(seed: u64) -> Vec<AdversaryScenario> {
    vec![
        AdversaryScenario {
            label: "all honest",
            config: AdversaryConfig::none(seed),
            attackers: Vec::new(),
        },
        AdversaryScenario {
            label: "heartbeat deflation (x0.3)",
            config: AdversaryConfig::heartbeat_misreport(seed, &["kmeans"], DEFLATION_FACTOR),
            attackers: vec!["kmeans"],
        },
        AdversaryScenario {
            label: "calibration sandbagging (x0.6)",
            config: AdversaryConfig::sandbagging(seed, &["kmeans"], SANDBAG_FACTOR),
            attackers: vec!["kmeans"],
        },
        AdversaryScenario {
            label: "knob non-compliance",
            config: AdversaryConfig::noncompliance(seed, &["kmeans"]),
            attackers: vec!["kmeans"],
        },
        AdversaryScenario {
            label: "phase spoofing (4s, +/-60%)",
            config: AdversaryConfig::phase_spoofing(seed, &["kmeans"], SPOOF_PERIOD, SPOOF_DEPTH),
            attackers: vec!["kmeans"],
        },
        AdversaryScenario {
            label: "colluding pair (defy + inflate)",
            config: AdversaryConfig {
                knob_defiance: true,
                heartbeat_factor: 1.4,
                heartbeat_jitter: 0.02,
                ..AdversaryConfig::heartbeat_misreport(seed, &["kmeans", "stream"], 1.4)
            },
            attackers: vec!["kmeans", "stream"],
        },
    ]
}

/// The grid row the `doctor` binary's `--explain quarantine` replays:
/// knob non-compliance, where the full evidence chain (clamp-bound
/// claims → trust descent → E7 quarantine → clawback) fires.
pub fn doctor_scenario(seed: u64) -> AdversaryScenario {
    let s = scenarios(seed)
        .into_iter()
        .nth(3)
        .expect("the grid's fourth row is knob non-compliance");
    assert_eq!(s.label, "knob non-compliance", "grid reordered");
    s
}

fn build_mediator(spec: &ServerSpec, defended: bool) -> PowerMediator {
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), Watts::new(CAP_W))
        .with_estimation(EstimatorConfig::default());
    if defended {
        med = med.with_integrity_defense(TrustConfig::default());
    }
    med
}

fn score(
    sim: &powermed_sim::engine::ServerSim,
    med: &PowerMediator,
    scenario: &AdversaryScenario,
    spec: &ServerSpec,
    simulated: f64,
) -> AdversaryOutcome {
    let per_app: Vec<(String, f64)> = grid_apps()
        .iter()
        .map(|a| {
            let norm = sim.ops_done(a.name()) / (a.uncapped(spec).throughput * simulated);
            (a.name().to_string(), norm)
        })
        .collect();
    let split = |attacker: bool| {
        let set: Vec<f64> = per_app
            .iter()
            .filter(|(name, _)| scenario.attackers.contains(&name.as_str()) == attacker)
            .map(|(_, p)| *p)
            .collect();
        if set.is_empty() {
            0.0
        } else {
            set.iter().sum::<f64>() / set.len() as f64
        }
    };
    let debts = med.watt_debts();
    let distrusted = grid_apps()
        .iter()
        .filter_map(|a| {
            med.trust_score(a.name())
                .filter(|t| t.distrusted())
                .map(|_| a.name().to_string())
        })
        .collect();
    AdversaryOutcome {
        attacker_perf: split(true),
        honest_perf: split(false),
        violation_seconds: sim.meter().compliance().violation_fraction() * simulated,
        adversary: sim.adversary_stats(),
        trust: med.trust_stats(),
        estimation: med.estimation_stats(),
        debt_charged_w: debts.total_charged(),
        debt_repaid_w: debts.total_repaid(),
        distrusted,
        per_app,
    }
}

/// Runs one scenario under one defense flavor for `duration`, with the
/// flight recorder attached when `obs` is set.
pub fn run_one(
    scenario: &AdversaryScenario,
    defended: bool,
    duration: Seconds,
    obs: Option<&Obs>,
) -> AdversaryOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, false).with_adversary(scenario.config.clone());
    let mut med = build_mediator(&spec, defended);
    if let Some(obs) = obs {
        sim.set_observability(obs.clone());
        med = med.with_observability(obs.clone());
    }
    for app in grid_apps() {
        med.admit(&mut sim, app).expect("three apps fit");
    }
    med.run_for(&mut sim, duration, DT);
    let simulated = (duration.value() / DT.value()).round() * DT.value();
    score(&sim, &med, scenario, &spec, simulated)
}

/// Runs the whole grid, `(scenario, undefended, defended)` per row.
/// Both flavors share each scenario's seed (common random numbers),
/// so the injector rolls the same lies against both stacks.
pub fn run_grid() -> Vec<(AdversaryScenario, AdversaryOutcome, AdversaryOutcome)> {
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for defended in [false, true] {
            cells.push((s.clone(), defended));
        }
    }
    let outs = par_map(cells, |(s, defended)| {
        run_one(&s, defended, SCENARIO_DURATION, None)
    });
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Margin on the defended attacker's net gain over honest behavior.
pub const GATE_GAIN_MARGIN: f64 = 0.02;

/// Margin on the honest apps' mean throughput loss in defended attack
/// rows, relative to the defended all-honest baseline.
pub const GATE_HONEST_LOSS_MARGIN: f64 = 0.10;

/// Evaluates the release bounds over grid `rows`:
///
/// * all-honest defended row: zero quarantines and zero apps ending
///   distrusted (bounded false-positive rate);
/// * every defended attack row: the attacker's net gain over the
///   defended all-honest baseline stays within [`GATE_GAIN_MARGIN`];
/// * every defended attack row: the honest apps keep the defended
///   baseline's mean throughput within [`GATE_HONEST_LOSS_MARGIN`];
/// * the knob-defiance row: the defense quarantines the defector
///   (detection must work end-to-end, not just do no harm).
pub fn gate(rows: &[(AdversaryScenario, AdversaryOutcome, AdversaryOutcome)]) -> Vec<GateCheck> {
    let (base_s, _, base_def) = &rows[0];
    assert_eq!(base_s.label, "all honest", "grid reordered");
    let mut checks = vec![GateCheck {
        name: "all-honest false quarantines".to_string(),
        ok: base_def.trust.quarantines == 0 && base_def.distrusted.is_empty(),
        detail: format!(
            "{} quarantines, distrusted: {:?}",
            base_def.trust.quarantines, base_def.distrusted
        ),
    }];
    // The attacker's honest-behavior reference: what kmeans (resp. the
    // colluding pair) earns in the defended all-honest baseline.
    let honest_ref = |attackers: &[&str]| {
        let set: Vec<f64> = base_def
            .per_app
            .iter()
            .filter(|(name, _)| attackers.contains(&name.as_str()))
            .map(|(_, p)| *p)
            .collect();
        set.iter().sum::<f64>() / set.len().max(1) as f64
    };
    for (s, _, def) in rows.iter().skip(1) {
        let reference = honest_ref(&s.attackers);
        let gain = def.attacker_perf - reference;
        checks.push(GateCheck {
            name: format!("attacker net gain: {}", s.label),
            ok: gain <= GATE_GAIN_MARGIN,
            detail: format!(
                "{:.4} - {:.4} = {:+.4} (margin {GATE_GAIN_MARGIN})",
                def.attacker_perf, reference, gain
            ),
        });
        let loss = base_def.honest_perf - def.honest_perf;
        checks.push(GateCheck {
            name: format!("honest-app loss: {}", s.label),
            ok: loss <= GATE_HONEST_LOSS_MARGIN,
            detail: format!(
                "{:.4} - {:.4} = {:+.4} (margin {GATE_HONEST_LOSS_MARGIN})",
                base_def.honest_perf, def.honest_perf, loss
            ),
        });
    }
    let (defi_s, _, defi_def) = &rows[3];
    assert_eq!(defi_s.label, "knob non-compliance", "grid reordered");
    checks.push(GateCheck {
        name: "defiance is quarantined".to_string(),
        ok: defi_def.trust.quarantines >= 1 && defi_def.distrusted.iter().any(|a| a == "kmeans"),
        detail: format!(
            "{} quarantines, distrusted: {:?}",
            defi_def.trust.quarantines, defi_def.distrusted
        ),
    });
    checks
}

/// One short defended heartbeat-misreport run condensed to a
/// determinism witness: every poll's estimated per-app shares and
/// residual folded with the injector's and defense's counters. Two
/// calls with the same seed must agree bit-for-bit; different seeds
/// must not. The misreport factor (1.2) sits strictly inside the
/// plausibility clamp band, so the seeded jitter stream survives into
/// the priors — a clamped (or jitter-free) channel would erase the
/// seed from every decision-level aggregate and the digests would
/// collide.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = AdversaryScenario {
        label: "smoke: heartbeat inflation (x1.2)",
        config: AdversaryConfig::heartbeat_misreport(seed, &["kmeans"], 1.2),
        attackers: vec!["kmeans"],
    };
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, false).with_adversary(scenario.config.clone());
    let mut med = build_mediator(&spec, true);
    for app in grid_apps() {
        med.admit(&mut sim, app).expect("three apps fit");
    }
    let mut digest = Fnv1a::new();
    let steps = (8.0 / DT.value()).round() as u64;
    for _ in 0..steps {
        med.step(&mut sim, DT);
        if let Some(eb) = med.last_estimate() {
            for share in eb.apps.values() {
                digest.write_word(share.watts.to_bits());
            }
            digest.write_word(eb.residual_w.to_bits());
        }
    }
    let simulated = steps as f64 * DT.value();
    let out = score(&sim, &med, &scenario, &spec, simulated);
    for (_, perf) in &out.per_app {
        digest.write_word(perf.to_bits());
    }
    for bits in [
        out.violation_seconds.to_bits(),
        out.adversary.heartbeats_misreported,
        out.adversary.probes_sandbagged,
        out.adversary.knobs_defied,
        out.adversary.phases_spoofed,
        out.trust.implausible_polls,
        out.trust.downgrades,
        out.trust.quarantines,
        out.trust.clawback_polls,
        out.estimation.clamp_bound_polls,
        out.debt_charged_w.to_bits(),
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

fn print_row(label: &str, undef: &AdversaryOutcome, def: &AdversaryOutcome) {
    println!(
        "{:<34} {:>8} {:>8} | {:>8} {:>8} {:>5} {:>5} {:>5} {:>7.1} {:>9}",
        label,
        pct(undef.attacker_perf),
        pct(undef.honest_perf),
        pct(def.attacker_perf),
        pct(def.honest_perf),
        def.trust.downgrades,
        def.trust.quarantines,
        def.trust.readmissions,
        def.debt_repaid_w,
        if def.distrusted.is_empty() {
            "-".to_string()
        } else {
            def.distrusted.join(",")
        },
    );
}

/// Prints the extension experiment and returns its release checks.
pub fn report() -> Vec<GateCheck> {
    heading("Extension: adversarial apps — undefended vs integrity defense");
    println!(
        "{:<34} {:>8} {:>8} | {:>8} {:>8} {:>5} {:>5} {:>5} {:>7} {:>9}",
        "scenario (undef | defended)",
        "attck",
        "honest",
        "attck",
        "honest",
        "down",
        "quar",
        "readm",
        "claw W",
        "locked"
    );
    let rows = run_grid();
    for (s, undef, def) in &rows {
        print_row(s.label, undef, def);
    }
    println!(
        "\n(attck/honest = mean normalized throughput of the attacker resp. honest\nset; down/quar/readm = trust downgrades, quarantines, re-admissions;\nclaw W = watts clawed back from quarantine clamps; both flavors share\neach scenario's seed — common random numbers)"
    );
    let checks = gate(&rows);
    println!("\nrelease gates:");
    for check in &checks {
        println!("  {}", check.line(48));
    }
    checks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{find, journal_timeline, walk, Chain};
    use powermed_telemetry::journal::{EventJournal, EventRecord, ObsConfig, ObsEvent};

    fn quarantine_chain(journal: &[EventRecord]) -> Option<Chain> {
        walk(
            find("quarantine").unwrap(),
            &journal_timeline(journal),
            None,
        )
    }

    #[test]
    fn honest_baseline_stays_fully_trusted() {
        let s = &scenarios(SEED)[0];
        let out = run_one(s, true, Seconds::new(8.0), None);
        assert_eq!(
            out.adversary.total_events(),
            0,
            "the injector stayed silent"
        );
        assert_eq!(out.trust.quarantines, 0);
        assert!(out.distrusted.is_empty(), "no false positives");
    }

    #[test]
    fn undefended_flavor_runs_no_defense() {
        let s = doctor_scenario(SEED);
        let out = run_one(&s, false, Seconds::new(8.0), None);
        assert!(out.adversary.knobs_defied > 0, "the attack was live");
        assert_eq!(out.trust.quarantines, 0);
        assert_eq!(out.trust.downgrades, 0);
        assert_eq!(out.debt_charged_w, 0.0);
    }

    #[test]
    fn defended_defiance_reaches_quarantine_and_claws_back() {
        let s = doctor_scenario(SEED);
        let out = run_one(&s, true, Seconds::new(15.0), None);
        assert!(out.adversary.knobs_defied > 0);
        assert!(out.trust.quarantines >= 1, "defiance quarantined: {out:?}");
        assert!(
            out.distrusted.iter().any(|a| a == "kmeans"),
            "the defector is the one locked up: {:?}",
            out.distrusted
        );
        assert!(
            out.trust.clawback_polls > 0 && out.debt_repaid_w > 0.0,
            "overdrawn watts are clawed back: {out:?}"
        );
    }

    #[test]
    fn explain_quarantine_reconstructs_the_chain() {
        let at = Seconds::new;
        let mut j = EventJournal::new(64);
        j.record(
            at(0.5),
            5,
            0,
            ObsEvent::HeartbeatClampBound {
                app: "kmeans".into(),
                ratio: 1.9,
            },
        );
        j.record(
            at(0.5),
            5,
            0,
            ObsEvent::TrustDowngrade {
                app: "kmeans".into(),
                score: 0.65,
            },
        );
        // Another app's descent must not pollute the chain.
        j.record(
            at(0.6),
            6,
            0,
            ObsEvent::TrustDowngrade {
                app: "stream".into(),
                score: 0.9,
            },
        );
        j.record(
            at(1.0),
            10,
            0,
            ObsEvent::TrustDowngrade {
                app: "kmeans".into(),
                score: 0.25,
            },
        );
        j.record(
            at(1.0),
            10,
            0,
            ObsEvent::Quarantine {
                app: "kmeans".into(),
                cause: "sustained overdraw".into(),
            },
        );
        j.record(
            at(1.0),
            10,
            0,
            ObsEvent::IntegrityFault {
                app: "kmeans".into(),
            },
        );
        let journal: Vec<EventRecord> = j.iter().cloned().collect();
        let ex = quarantine_chain(&journal).expect("chain exists");
        let downgrades = ex.records("downgrades");
        assert_eq!(downgrades.len(), 2, "only kmeans' descent counts");
        assert_eq!(ex.records("evidence").len(), 1);
        assert!(
            !ex.records("fault").is_empty(),
            "the E7 is part of the chain"
        );
        assert!(downgrades
            .iter()
            .all(|d| d.record.seq < ex.anchor.record.seq));

        // No quarantine, no chain.
        assert!(quarantine_chain(&journal[..2]).is_none());
    }

    #[test]
    fn explain_quarantine_anchors_on_the_episode_that_fired_the_e7() {
        // Two episodes: the first quarantine fires the E7; the relapse
        // after probation is the same episode to the accountant, so it
        // fires none. The chain is the first episode's, with only its own
        // descent and evidence.
        let at = Seconds::new;
        let app = || "kmeans".to_string();
        let mut j = EventJournal::new(64);
        let claim = |ratio| ObsEvent::HeartbeatClampBound { app: app(), ratio };
        let downgrade = |score| ObsEvent::TrustDowngrade { app: app(), score };
        let quarantine = || ObsEvent::Quarantine {
            app: app(),
            cause: "implausible heartbeat".into(),
        };
        j.record(at(0.5), 5, 0, claim(1.9));
        j.record(at(0.5), 5, 0, downgrade(0.65));
        j.record(at(1.0), 10, 0, downgrade(0.25));
        j.record(at(1.0), 10, 0, quarantine());
        j.record(at(1.0), 10, 0, ObsEvent::IntegrityFault { app: app() });
        j.record(at(5.0), 50, 0, claim(1.8));
        j.record(at(5.0), 50, 0, downgrade(0.25));
        j.record(at(5.0), 50, 0, quarantine());
        let journal: Vec<EventRecord> = j.iter().cloned().collect();

        let ex = quarantine_chain(&journal).expect("the first episode chains");
        assert_eq!(ex.anchor.record.seq, 3, "the quarantine that fired the E7");
        assert_eq!(ex.records("fault").len(), 1);
        assert_eq!(ex.records("fault")[0].record.seq, 4);
        assert_eq!(ex.records("downgrades").len(), 2, "the first descent only");
        assert_eq!(ex.records("evidence").len(), 1);
        // Without the E7 there is no chain to claim it.
        assert!(quarantine_chain(&journal[..4]).is_none());
    }

    #[test]
    fn defiance_run_yields_an_explainable_quarantine() {
        // The acceptance contract behind `doctor --explain quarantine`.
        let obs = Obs::new(ObsConfig::default());
        let out = run_one(&doctor_scenario(SEED), true, Seconds::new(15.0), Some(&obs));
        let ex = quarantine_chain(&obs.journal_snapshot()).expect("chain exists");
        assert!(!ex.records("downgrades").is_empty());
        // Physics must match the unobserved defended run bit-for-bit.
        let plain = run_one(&doctor_scenario(SEED), true, Seconds::new(15.0), None);
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
        // The undefended defiance row must show a real threat: the
        // attacker nets more than honest behavior earns it.
        let (_, base_undef, _) = &rows[0];
        let kmeans_honest = base_undef
            .per_app
            .iter()
            .find(|(n, _)| n == "kmeans")
            .map(|(_, p)| *p)
            .expect("kmeans admitted");
        let (_, defi_undef, _) = &rows[3];
        assert!(
            defi_undef.attacker_perf > kmeans_honest,
            "undefended defiance must pay: {:.4} vs honest {kmeans_honest:.4}",
            defi_undef.attacker_perf
        );
    }
}
