//! Decision-audit doctor: replays a reference fault scenario with the
//! flight recorder attached and explains a mediator decision from the
//! journal.
//!
//! ```text
//! doctor --explain throttle [--app <name-or-1-based-index>] [--seed N]
//! doctor --explain sensor-fault [--seed N]
//! doctor --explain quarantine [--seed N]
//! doctor --explain slo-miss [--seed N]
//! ```
//!
//! `--explain throttle` walks the journal backward from the last
//! safe-mode force-throttle of the chosen app to the safe-mode
//! engagement that issued it and the over-cap polls and sensor verdicts
//! that armed the watchdog, then prints the whole chain chronologically
//! (sequence number, poll, sim time, epoch, event). Exits nonzero when
//! the chain cannot be reconstructed.
//!
//! `--explain sensor-fault` replays the shared-meter-bias scenario on
//! the *estimated* power stack and walks the journal backward from the
//! last confidence-fallback engagement to the E6 it latched and the
//! residual spikes that armed the degradation ladder.
//!
//! `--explain quarantine` replays the knob-non-compliance adversary
//! scenario with the integrity defense on and walks the journal
//! backward from the last E7 quarantine to the trust downgrades that
//! descended there and the clamp-bound heartbeat claims that armed
//! them.
//!
//! `--explain slo-miss` replays the tight heterogeneous traffic cell
//! with the flight recorder on the starved throughput box and walks
//! the journal backward from the last failed SLO window to the cap
//! change and plan in force when it failed and the demand spikes that
//! landed inside the window.
//!
//! Two targets are **cross-server**: they replay a whole fleet with
//! every server shipping its journal over the control plane, and walk
//! the manager's *merged* timeline instead of a single journal.
//! `--explain breaker-trip` runs the naive fleet on the churn+lossy
//! reference and chains per-server overdraws → uplinked telemetry →
//! breaker arm → fleet clamp; `--explain fallback-cap` runs the
//! resilient fleet with server 2 partitioned and chains missed
//! downlinks → fallback engage → decay steps → rejoin release.
use powermed_bench::experiments::{
    ext_adversary, ext_cluster_faults, ext_disagg, ext_faults, ext_obs, ext_traffic,
};
use powermed_bench::harness::{usage_exit, Args};
use powermed_cluster::control::FleetObsOptions;
use powermed_telemetry::journal::{EventRecord, Obs, ObsConfig, ObsEvent};

const TARGETS: &str = "throttle, sensor-fault, quarantine, slo-miss, breaker-trip, fallback-cap";
const USAGE: &str =
    "usage: doctor [--explain <target>] [--app <name or 1-based index>] [--seed <N>]";

fn print_record(prefix: &str, r: &EventRecord) {
    println!(
        "{prefix}seq {:>5}  poll {:>4}  t {:>6.1}s  epoch {:>2}  {:?}",
        r.seq,
        r.poll,
        r.at.value(),
        r.epoch,
        r.event
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&args, &[], &["--explain", "--app", "--seed"])
        .unwrap_or_else(|e| usage_exit(&e, USAGE));
    let seed = args
        .parsed::<u64>("--seed")
        .unwrap_or_else(|e| usage_exit(&e, USAGE));
    match args.value("--explain").unwrap_or("throttle") {
        "throttle" => explain_throttle(args.value("--app"), seed.unwrap_or(ext_faults::SEED)),
        "sensor-fault" => explain_sensor_fault(seed.unwrap_or(ext_disagg::SEED)),
        "quarantine" => explain_quarantine(seed.unwrap_or(ext_adversary::SEED)),
        "slo-miss" => explain_slo_miss(seed.unwrap_or(ext_traffic::SEED)),
        "breaker-trip" => explain_breaker_trip(seed.unwrap_or(ext_cluster_faults::SEED)),
        "fallback-cap" => explain_fallback_cap(seed.unwrap_or(ext_cluster_faults::SEED)),
        other => {
            eprintln!("doctor: unknown --explain target {other:?} (supported: {TARGETS})");
            std::process::exit(2);
        }
    }
}

fn print_fleet_record(prefix: &str, r: &powermed_telemetry::journal::FleetRecord) {
    println!("{prefix}{}", ext_obs::fmt_fleet_record(r));
}

fn explain_throttle(app: Option<&str>, seed: u64) {
    let mix = ext_faults::reference_mix();
    // `--app` takes an app name or a 1-based index into the mix.
    let app: Option<String> = app.map(|v| match v.parse::<usize>() {
        Ok(i) if i >= 1 && i <= mix.apps().len() => mix.apps()[i - 1].name().to_string(),
        _ => v.to_string(),
    });

    let scenario = ext_obs::reference_scenario(seed);
    println!(
        "doctor: replaying {:?} for {} s (seed {seed:#x}, hardened, flight recorder on)",
        scenario.label,
        ext_faults::SCENARIO_DURATION.value()
    );
    let obs = Obs::new(ObsConfig::default());
    let run = ext_faults::run_one(
        &scenario,
        &mix,
        true,
        ext_faults::SCENARIO_DURATION,
        None,
        Some(&obs),
    );
    let journal = obs.journal_snapshot();
    let (retained, evicted, total) = obs.journal_counts();
    println!(
        "journal: {retained} records retained ({evicted} evicted of {total}); \
         run ended {} safe mode\n",
        if run.safe_mode { "inside" } else { "outside" }
    );

    match ext_obs::explain_throttle(&journal, app.as_deref()) {
        Some(ex) => {
            println!(
                "why was {} force-throttled? ({} evidence records)",
                match &ex.throttle.event {
                    ObsEvent::ForceThrottle { app } => app.as_str(),
                    _ => "?",
                },
                ex.causes.len()
            );
            for r in &ex.causes {
                print_record("  cause   ", r);
            }
            print_record("  decide  ", &ex.engage);
            print_record("  effect  ", &ex.throttle);
            println!(
                "\nverdict: {} over-cap poll(s) and {} sensor verdict(s) armed the \
                 watchdog; safe mode engaged at poll {} and force-throttled the app.",
                ex.causes
                    .iter()
                    .filter(|c| matches!(c.event, ObsEvent::Poll { over_cap: true, .. }))
                    .count(),
                ex.causes
                    .iter()
                    .filter(|c| matches!(
                        c.event,
                        ObsEvent::SensorSuspect { .. } | ObsEvent::SensorFault { .. }
                    ))
                    .count(),
                ex.engage.poll
            );
        }
        None => {
            eprintln!(
                "doctor: no force-throttle for {} found in the journal",
                app.as_deref().unwrap_or("any app")
            );
            std::process::exit(1);
        }
    }
}

fn explain_sensor_fault(seed: u64) {
    let scenario = ext_disagg::doctor_scenario(seed);
    println!(
        "doctor: replaying {:?} for {} s (seed {seed:#x}, estimated power, flight recorder on)",
        scenario.label,
        ext_faults::SCENARIO_DURATION.value()
    );
    let obs = Obs::new(ObsConfig::default());
    let run = ext_disagg::run_one(
        &scenario,
        &ext_faults::reference_mix(),
        true,
        ext_faults::SCENARIO_DURATION,
        Some(&obs),
    );
    let journal = obs.journal_snapshot();
    let (retained, evicted, total) = obs.journal_counts();
    println!(
        "journal: {retained} records retained ({evicted} evicted of {total}); \
         {} residual spike(s), {} fallback engagement(s), {} escalation(s)\n",
        run.estimation.residual_spikes,
        run.estimation.fallback_engagements,
        run.estimation.escalations,
    );

    match ext_disagg::explain_sensor_fault(&journal) {
        Some(ex) => {
            println!(
                "why did the estimation ladder latch an E6? ({} evidence records)",
                ex.causes.len()
            );
            for r in &ex.causes {
                print_record("  cause   ", r);
            }
            print_record("  decide  ", &ex.fallback);
            print_record("  effect  ", &ex.fault);
            println!(
                "\nverdict: {} residual spike(s) exceeded the confidence band; the \
                 conservative fallback engaged at poll {} (planning cap shaved) and \
                 latched the E6 sensor fault.",
                ex.causes
                    .iter()
                    .filter(|c| matches!(c.event, ObsEvent::ResidualSpike { .. }))
                    .count(),
                ex.fallback.poll
            );
        }
        None => {
            eprintln!("doctor: no residual-spike -> fallback -> E6 chain found in the journal");
            std::process::exit(1);
        }
    }
}

fn explain_slo_miss(seed: u64) {
    let scenario = ext_traffic::doctor_scenario(seed);
    println!(
        "doctor: replaying {:?} for {} s (seed {seed:#x}, mediated fleet, flight recorder on)",
        scenario.label,
        ext_traffic::DAY.value()
    );
    let obs = Obs::new(ObsConfig::default());
    let run = ext_traffic::run_one(&scenario, true, ext_traffic::DAY, Some(&obs));
    let journal = obs.journal_snapshot();
    let (retained, evicted, total) = obs.journal_counts();
    println!(
        "journal: {retained} records retained ({evicted} evicted of {total}); \
         observed server {} of {}: fleet attainment {:.1}%, {} window(s) missed\n",
        ext_traffic::observed_server(&scenario) + 1,
        ext_traffic::sku_mixes()[scenario.sku].specs.len(),
        run.attainment * 100.0,
        run.windows_missed,
    );

    match ext_traffic::explain_slo_miss(&journal) {
        Some(ex) => {
            println!(
                "why did {} miss its SLO window? ({} spike(s), {} decision record(s))",
                ex.verdict.event.app().unwrap_or("?"),
                ex.spikes.len(),
                ex.decisions.len()
            );
            for r in &ex.spikes {
                print_record("  cause   ", r);
            }
            for r in &ex.decisions {
                print_record("  decide  ", r);
            }
            print_record("  effect  ", &ex.verdict);
            println!(
                "\nverdict: the plan in force allotted the app {} W under a {} W cap; \
                 {} demand spike(s) landed inside the window, and the window closed \
                 below target at poll {}.",
                ex.decisions
                    .iter()
                    .find_map(|r| match &r.event {
                        ObsEvent::Allocation { watts, .. } => Some(format!("{watts:.1}")),
                        _ => None,
                    })
                    .unwrap_or_else(|| "?".to_string()),
                ex.decisions
                    .iter()
                    .find_map(|r| match &r.event {
                        ObsEvent::CapChanged { cap_w } => Some(format!("{cap_w:.0}")),
                        _ => None,
                    })
                    .unwrap_or_else(|| "?".to_string()),
                ex.spikes.len(),
                ex.verdict.poll
            );
        }
        None => {
            eprintln!("doctor: no spike -> plan -> missed-window chain found in the journal");
            std::process::exit(1);
        }
    }
}

fn explain_quarantine(seed: u64) {
    let scenario = ext_adversary::doctor_scenario(seed);
    println!(
        "doctor: replaying {:?} for {} s (seed {seed:#x}, integrity defense on, flight recorder on)",
        scenario.label,
        ext_adversary::SCENARIO_DURATION.value()
    );
    let obs = Obs::new(ObsConfig::default());
    let run = ext_adversary::run_one(
        &scenario,
        true,
        ext_adversary::SCENARIO_DURATION,
        Some(&obs),
    );
    let journal = obs.journal_snapshot();
    let (retained, evicted, total) = obs.journal_counts();
    println!(
        "journal: {retained} records retained ({evicted} evicted of {total}); \
         {} knob(s) defied, {} implausible poll(s), {} downgrade(s), {} quarantine(s), \
         {:.1} W clawed back\n",
        run.adversary.knobs_defied,
        run.trust.implausible_polls,
        run.trust.downgrades,
        run.trust.quarantines,
        run.debt_repaid_w,
    );

    match ext_adversary::explain_quarantine(&journal) {
        Some(ex) => {
            println!(
                "why was {} quarantined? ({} evidence records, {} downgrades)",
                ex.quarantine.event.app().unwrap_or("?"),
                ex.evidence.len(),
                ex.downgrades.len()
            );
            for r in &ex.evidence {
                print_record("  cause   ", r);
            }
            for r in &ex.downgrades {
                print_record("  decide  ", r);
            }
            print_record("  effect  ", &ex.quarantine);
            if let Some(fault) = &ex.fault {
                print_record("  effect  ", fault);
            }
            println!(
                "\nverdict: {} physically implausible heartbeat claim(s) drove the trust \
                 score down through {} downgrade(s); the quarantine at poll {} fired the E7 \
                 integrity fault and clamped the app to its fair share.",
                ex.evidence.len(),
                ex.downgrades.len(),
                ex.quarantine.poll
            );
        }
        None => {
            eprintln!(
                "doctor: no clamp-bound -> downgrade -> quarantine chain found in the journal"
            );
            std::process::exit(1);
        }
    }
}

fn explain_breaker_trip(seed: u64) {
    println!(
        "doctor: replaying the naive fleet on \"reference: churn + lossy\" for {} s \
         (seed {seed:#x}, {} servers, journals shipped over the control plane)",
        ext_cluster_faults::DURATION.value(),
        ext_cluster_faults::SERVERS
    );
    let report = ext_obs::run_fleet_observed(
        &ext_obs::fleet_scenario(seed),
        false,
        ext_cluster_faults::SERVERS,
        ext_cluster_faults::DURATION,
        &FleetObsOptions::default(),
    );
    let fleet = report.fleet.as_ref().expect("fleet recording enabled");
    println!(
        "fleet timeline: {} records merged from {} journals ({} digest bytes shipped, \
         {} dedup, {} gaps); {} breaker trip(s)\n",
        fleet.timeline.len(),
        1 + fleet.server_obs.len(),
        fleet.digest_bytes_total,
        fleet.timeline.dedup_total(),
        fleet.digest_gaps,
        report.stats.breaker_trips,
    );

    match ext_obs::explain_breaker_trip(&fleet.timeline) {
        Some(ex) => {
            println!(
                "why did the facility breaker trip? (servers {:?} overdrew their intended \
                 shares; {} arming steps, {} overdraw attributions, {} uplinks, {} shipped \
                 polls)",
                ex.servers,
                ex.armed.len(),
                ex.overdraws.len(),
                ex.uplinks.len(),
                ex.polls.len()
            );
            for r in ex.polls.iter().take(4) {
                print_fleet_record("  cause   ", r);
            }
            if ex.polls.len() > 4 {
                println!("  …       {} more shipped poll(s)", ex.polls.len() - 4);
            }
            for r in ex.uplinks.iter().take(2) {
                print_fleet_record("  cause   ", r);
            }
            for r in &ex.overdraws {
                print_fleet_record("  cause   ", r);
            }
            for r in &ex.armed {
                print_fleet_record("  decide  ", r);
            }
            print_fleet_record("  effect  ", &ex.trip);
            for r in ex.clamps.iter().take(3) {
                print_fleet_record("  effect  ", r);
            }
            if ex.clamps.len() > 3 {
                println!("  …       {} more clamp(s)", ex.clamps.len() - 3);
            }
            if let Some(r) = &ex.release {
                print_fleet_record("  release ", r);
            }
            println!(
                "\nverdict: server(s) {:?} reported draws above the shares the manager \
                 intended (stale caps on a lossy plane); their uplinked telemetry armed \
                 the breaker over {} consecutive over-budget step(s), and the trip \
                 clamped {} server(s) to the floor.",
                ex.servers,
                ex.armed.len(),
                ex.clamps.len()
            );
        }
        None => {
            eprintln!(
                "doctor: no overdraw -> uplink -> breaker-arm -> clamp chain found in \
                 the fleet timeline"
            );
            std::process::exit(1);
        }
    }
}

fn explain_fallback_cap(seed: u64) {
    println!(
        "doctor: replaying the resilient fleet on the lossy plane with server 2 \
         partitioned 60-180 s, for {} s (seed {seed:#x}, {} servers, journals shipped \
         over the control plane)",
        ext_cluster_faults::DURATION.value(),
        ext_cluster_faults::SERVERS
    );
    let report = ext_obs::run_fleet_observed(
        &ext_obs::fleet_doctor_scenario(seed),
        true,
        ext_cluster_faults::SERVERS,
        ext_cluster_faults::DURATION,
        &FleetObsOptions::default(),
    );
    let fleet = report.fleet.as_ref().expect("fleet recording enabled");
    println!(
        "fleet timeline: {} records merged from {} journals ({} digest bytes shipped, \
         {} dedup, {} gaps); {} fallback engagement(s), {} rejoin(s)\n",
        fleet.timeline.len(),
        1 + fleet.server_obs.len(),
        fleet.digest_bytes_total,
        fleet.timeline.dedup_total(),
        fleet.digest_gaps,
        report.stats.fallback_engagements,
        report.stats.rejoins,
    );

    match ext_obs::explain_fallback_cap(&fleet.timeline) {
        Some(ex) => {
            println!(
                "why did server {} cap itself? ({} missed heartbeats, {} manager-side \
                 endpoint losses, {} decay steps)",
                ex.server,
                ex.missed.len(),
                ex.losses.len(),
                ex.decays.len()
            );
            for r in ex.losses.iter().take(3) {
                print_fleet_record("  cause   ", r);
            }
            if ex.losses.len() > 3 {
                println!("  …       {} more endpoint loss(es)", ex.losses.len() - 3);
            }
            for r in ex.missed.iter().take(4) {
                print_fleet_record("  cause   ", r);
            }
            if ex.missed.len() > 4 {
                println!("  …       {} more missed heartbeat(s)", ex.missed.len() - 4);
            }
            print_fleet_record("  decide  ", &ex.engage);
            for r in ex.decays.iter().take(4) {
                print_fleet_record("  effect  ", r);
            }
            if ex.decays.len() > 4 {
                println!("  …       {} more decay step(s)", ex.decays.len() - 4);
            }
            print_fleet_record("  release ", &ex.release);
            println!(
                "\nverdict: {} consecutive downlink silences engaged server {}'s \
                 conservative local fallback; it decayed its cap {} step(s) toward the \
                 idle floor until a fresh downlink released it on rejoin — the \
                 partitioned node throttled itself rather than free-run on a stale cap.",
                ex.missed.len(),
                ex.server,
                ex.decays.len()
            );
        }
        None => {
            eprintln!(
                "doctor: no missed-downlink -> fallback-engage -> decay -> release chain \
                 found in the fleet timeline"
            );
            std::process::exit(1);
        }
    }
}
