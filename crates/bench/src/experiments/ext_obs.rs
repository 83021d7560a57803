//! Extension beyond the paper: the flight-recorder observability plane.
//!
//! PR 2's fault experiments answer *what* the hardened mediator did
//! (counters: retries, safe-mode entries, E5/E6 events). This
//! experiment answers *why*: it replays the PR 2 reference fault
//! scenario with an [`Obs`] handle attached to the mediator and the
//! simulator, so every decision lands in the journal with its causal
//! ids, then audits the run three ways:
//!
//! 1. **Bit-identical off**: the observed run must report exactly the
//!    same physics as the unobserved one — observability is bookkeeping,
//!    never behavior.
//! 2. **Causal chains**: the `throttle` explain of [`explain`] walks the
//!    journal backward from a safe-mode force-throttle to the over-cap
//!    polls and sensor verdicts that armed the watchdog — the chain
//!    `doctor --explain throttle` prints.
//! 3. **Overhead**: [`measure_overhead`] interleaves off/on repeats of
//!    the full scenario; `all --gate` divides the recorder's extra
//!    wall clock by its own and enforces [`OVERHEAD_GATE`]
//!    ([`overhead_check`]).
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses a short
//! observed run (journal + counters, wall-clock spans excluded) into a
//! single hash so CI can diff two invocations (`ext_obs --smoke`).
//!
//! **Fleet mode** extends the same contract to the cluster tier: every
//! server agent ships its journal as bounded digests riding the
//! existing telemetry uplinks, the manager folds them (plus its own
//! journal and the control plane's mirrored fault events) into one
//! merged [`FleetTimeline`], and the `breaker-trip` and `fallback-cap`
//! explains walk that timeline *across servers* — from a facility
//! breaker trip back to the per-server overdraws that armed it, and
//! from a partitioned node's fallback cap back to the missed downlinks
//! that engaged it. [`fleet_smoke_digest`] is the CI
//! double-run witness that the merged timeline is byte-identical
//! across same-seed processes.

use std::time::Instant;

use powermed_cluster::control::{
    BreakerConfig, ClusterFaultConfig, ControlOptions, FleetObsOptions, ManagedPolicy,
    PartitionWindow, ResilienceReport,
};
use powermed_cluster::manager::ClusterManager;
use powermed_telemetry::journal::{FleetTimeline, Obs, ObsConfig};
use powermed_units::hash::Fnv1a;
use powermed_units::{Seconds, Watts};

use crate::experiments::ext_cluster_faults;
use crate::experiments::ext_faults::{self, Scenario, Wobble, SCENARIO_DURATION, SEED};
use crate::explain;
use crate::harness::GateCheck;
use crate::support::heading;

/// The PR 2 reference fault scenario (1% knob failures, 2% meter noise,
/// faded ESD) at the 80 W ESD-aware operating point — the scenario the
/// `doctor` binary replays.
pub fn reference_scenario(seed: u64) -> Scenario {
    ext_faults::scenarios(seed)
        .into_iter()
        .nth(1)
        .expect("the grid's second row is the reference scenario")
}

/// One short observed reference run condensed to a determinism witness:
/// the recorder digest (journal + counters, spans excluded) folded with
/// the fault-trace digest and the outcome's bit patterns.
pub fn smoke_digest(seed: u64) -> u64 {
    let obs = Obs::new(ObsConfig::default());
    let out = ext_faults::run_one(
        &reference_scenario(seed),
        &ext_faults::reference_mix(),
        true,
        Seconds::new(5.0),
        None,
        Some(&obs),
    );
    let mut digest = Fnv1a::resume(obs.digest());
    for bits in [
        out.trace_digest,
        out.mean_normalized.to_bits(),
        out.violation_fraction.to_bits(),
        obs.journal_counts().2,
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

/// Inner iterations per timed sample in [`measure_overhead`]. With the
/// profile cache warm a single 30 s run completes in well under a
/// millisecond of wall-clock, where timer granularity and first-touch
/// allocation dominate; batching the scenario stretches each timed
/// region into the tens of milliseconds so the ratio measures
/// steady-state per-poll cost, not fixed setup.
pub const OVERHEAD_BATCH: usize = 40;

/// The overhead workload's cap wobble: down to 70 W from the reference
/// scenario's 80 W and back, a replan every second.
const WOBBLE: Wobble = Wobble {
    lo: Watts::new(70.0),
    period: Seconds::new(1.0),
};

/// The overhead gate: the recorder's marginal wall-clock across the
/// measurement batch may cost at most this fraction of the `all`
/// harness's wall-clock (the < 5% target).
pub const OVERHEAD_GATE: f64 = 0.05;

/// Wall-clock cost of the flight recorder: `repeats` interleaved off/on
/// samples, each a batch of [`OVERHEAD_BATCH`] full reference-scenario
/// wobble runs; returns the best (lowest) per-batch wall-clock per
/// flavor, `(off_seconds, on_seconds)`.
///
/// The workload wobbles the cap every second ([`ext_faults::run_one`]
/// with a 70 W / 80 W wobble on the reference scenario) so the planner and knob
/// actuation — the mediator's real per-decision work — run throughout,
/// the way they do on a production server reacting to datacenter cap
/// adjustments. A
/// bare steady-state run would put a ~60 ns/step all-arithmetic loop in
/// the denominator, and a ratio against *that* measures lock latency,
/// not the recorder's cost relative to mediation. Best-of filters
/// scheduler noise. Both flavors time the same function, and physics
/// equality is asserted once per repeat, so they provably time the same
/// work.
pub fn measure_overhead(repeats: usize) -> (f64, f64) {
    let scenario = reference_scenario(SEED);
    let mix = ext_faults::reference_mix();
    let run = |obs: Option<&Obs>| {
        ext_faults::run_one(&scenario, &mix, true, SCENARIO_DURATION, Some(WOBBLE), obs)
    };
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        let mut off_last = None;
        for _ in 0..OVERHEAD_BATCH {
            off_last = Some(run(None));
        }
        best_off = best_off.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let mut on_last = None;
        for _ in 0..OVERHEAD_BATCH {
            on_last = Some(run(Some(&Obs::new(ObsConfig::default()))));
        }
        best_on = best_on.min(t.elapsed().as_secs_f64());
        let (off, on) = (off_last.expect("batch ran"), on_last.expect("batch ran"));
        assert_eq!(
            (off.violation_fraction, off.trace_digest),
            (on.violation_fraction, on.trace_digest),
            "observed physics must match unobserved physics bit-for-bit"
        );
    }
    (best_off, best_on)
}

/// The overhead gate as a release check: the recorder's extra wall
/// clock per batch (`on - off`, from [`measure_overhead`]) over
/// `all_seconds`, the `all` harness's wall clock, at most
/// [`OVERHEAD_GATE`].
pub fn overhead_check(off: f64, on: f64, all_seconds: f64) -> GateCheck {
    let ratio = (on - off).max(0.0) / all_seconds;
    let per_run_ratio = if off > 0.0 { on / off } else { 1.0 };
    GateCheck {
        name: "enabled-mode overhead".to_string(),
        ok: ratio <= OVERHEAD_GATE,
        detail: format!(
            "{:.4}% of `all`'s {all_seconds:.3} s (gate {:.1}%); per {OVERHEAD_BATCH}-run \
             batch off {off:.4} s, on {on:.4} s (ratio {per_run_ratio:.4})",
            ratio * 100.0,
            OVERHEAD_GATE * 100.0
        ),
    }
}

/// Prints the extension experiment and returns its release check.
///
/// The single-server part prints the event census, headline metrics and
/// one reconstructed causal chain. The fleet part flight-records both
/// doctor references over the control plane. The release check bounds
/// every uplink wave by `servers * max_digest_bytes`.
pub fn report() -> Vec<GateCheck> {
    heading("Extension: flight-recorder observability plane (reference fault scenario)");
    let obs = Obs::new(ObsConfig::default());
    let out = ext_faults::run_one(
        &reference_scenario(SEED),
        &ext_faults::reference_mix(),
        true,
        SCENARIO_DURATION,
        None,
        Some(&obs),
    );
    let metrics = obs.metrics();
    let (retained, evicted, total) = obs.journal_counts();
    println!(
        "mean normalized {:.3}, violation fraction {:.4}, safe mode at end: {}",
        out.mean_normalized, out.violation_fraction, out.safe_mode
    );
    println!("journal: {retained} retained, {evicted} evicted, {total} total");
    println!("\nevents by kind:");
    for (key, v) in metrics.counters() {
        if let Some(kind) = key.strip_prefix("events_by_kind_total{kind=\"") {
            println!("  {:<24} {v:>6}", kind.trim_end_matches("\"}"));
        }
    }
    for name in ["cap_violation_w", "actuation_retry_latency_seconds"] {
        if let Some(h) = metrics.histogram(name) {
            println!(
                "{name}: count {}, mean {:.4}",
                h.count(),
                h.mean().unwrap_or(0.0)
            );
        }
    }

    print_chain(
        "throttle",
        &explain::journal_timeline(&obs.journal_snapshot()),
    );

    let fleet_opts = FleetObsOptions::default();
    let run_fleet = |faults, resilient| {
        run_fleet_observed(
            &faults,
            resilient,
            ext_cluster_faults::SERVERS,
            ext_cluster_faults::DURATION,
            &fleet_opts,
        )
    };
    let naive = run_fleet(fleet_scenario(ext_cluster_faults::SEED), false);
    let resilient = run_fleet(fleet_doctor_scenario(ext_cluster_faults::SEED), true);
    print_fleet(&naive, &resilient);
    let nf = naive.fleet.as_ref().expect("fleet recording enabled");
    let rf = resilient.fleet.as_ref().expect("fleet recording enabled");
    let wave_bound = (ext_cluster_faults::SERVERS * fleet_opts.max_digest_bytes) as u64;
    let worst_wave = nf.max_wave_bytes.max(rf.max_wave_bytes);
    println!(
        "\nfleet shipping bound: worst wave {worst_wave} B of {wave_bound} B allowed \
         ({} servers x {} B digest cap)",
        ext_cluster_faults::SERVERS,
        fleet_opts.max_digest_bytes
    );

    vec![GateCheck {
        name: "fleet wave within the shipping bound".to_string(),
        ok: worst_wave <= wave_bound,
        detail: format!("worst wave {worst_wave} B of {wave_bound} B"),
    }]
}

// ---------------------------------------------------------------------------
// Fleet mode: journals shipped over the control plane, merged timeline,
// cross-server causal chains.
// ---------------------------------------------------------------------------

/// The fleet reference fault scenario: PR 3's "reference: churn +
/// lossy" row (10% drop both directions, ≤1 s delay, 0.1%/step node
/// crashes with 20 s outages). The breaker-trip doctor chain runs the
/// *naive* flavor on this scenario — staleness against the moving
/// budget is what trips the facility breaker.
pub fn fleet_scenario(seed: u64) -> ClusterFaultConfig {
    ClusterFaultConfig::default_scenario(seed)
}

/// The fallback-cap doctor scenario: PR 3's partition + lossy grid row
/// (server 2 cut from the manager 60–180 s, 10% drop and ≤1 s delay
/// both directions). The *resilient* flavor on this scenario engages
/// the partitioned node's local fallback cap, decays it toward the
/// idle floor, and releases it on rejoin — the chain
/// `doctor --explain fallback-cap` reconstructs. Churn is off here on
/// purpose: a crash landing mid-partition splits the outage into two
/// half-episodes (the first loses its release to the reboot, the
/// second engages already at the floor with nothing left to decay),
/// and the doctor's reference chain should show every phase.
pub fn fleet_doctor_scenario(seed: u64) -> ClusterFaultConfig {
    ClusterFaultConfig {
        downlink_drop_prob: 0.10,
        downlink_delay_max_steps: 2,
        uplink_drop_prob: 0.10,
        uplink_delay_max_steps: 2,
        partitions: vec![PartitionWindow {
            server: 2,
            from_step: 120,
            until_step: 360,
        }],
        ..ClusterFaultConfig::none(seed)
    }
}

/// Runs one flight-recorded cluster scenario: [`ext_cluster_faults`]'s
/// cap schedule and breaker, with per-server journals shipping digests
/// on every uplink and the manager folding them into a fleet timeline.
/// The returned report's `fleet` section is always populated.
pub fn run_fleet_observed(
    faults: &ClusterFaultConfig,
    resilient: bool,
    servers: usize,
    duration: Seconds,
    fleet: &FleetObsOptions,
) -> ResilienceReport {
    let caps = ext_cluster_faults::cap_schedule(servers, duration);
    let options = ControlOptions {
        resilient,
        faults: faults.clone(),
        breaker: BreakerConfig::default(),
        ..ControlOptions::perfect(faults.seed)
    };
    ClusterManager::new(servers, 7).run_flight_recorded(
        ManagedPolicy::equal_ours(),
        &caps,
        ext_cluster_faults::DT,
        &options,
        fleet,
    )
}

/// One short flight-recorded reference run condensed to a determinism
/// witness: the merged timeline's byte-identity digest folded with the
/// fault-trace digest, the shipping counters, and the outcome bits.
/// Two same-seed calls must agree bit-for-bit (the CI double-run
/// compares stdout across processes); different seeds must not.
pub fn fleet_smoke_digest(seed: u64) -> u64 {
    let report = run_fleet_observed(
        &fleet_scenario(seed),
        true,
        4,
        Seconds::new(60.0),
        &FleetObsOptions::default(),
    );
    let fleet = report.fleet.as_ref().expect("fleet recording enabled");
    let mut digest = Fnv1a::resume(fleet.timeline.digest());
    for bits in [
        report.trace_digest,
        report.violation_seconds.to_bits(),
        fleet.digest_bytes_total,
        fleet.max_wave_bytes,
        fleet.timeline.len() as u64,
        fleet.timeline.dedup_total(),
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

/// Prints the fleet flight-recorder experiment: merged-timeline and
/// shipping census for both reference flavors, plus one cross-server
/// chain of each kind.
pub fn print_fleet(naive: &ResilienceReport, resilient: &ResilienceReport) {
    heading("Extension: fleet flight recorder (journals shipped over the control plane)");
    for (label, report) in [
        ("naive, churn+lossy", naive),
        ("resilient, partition+lossy", resilient),
    ] {
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        let sources = 1 + fleet.server_obs.len();
        println!(
            "{label}: timeline {} records from {} journals; shipped {} digest bytes \
             (max wave {} B), dedup {}, gaps {}",
            fleet.timeline.len(),
            sources,
            fleet.digest_bytes_total,
            fleet.max_wave_bytes,
            fleet.timeline.dedup_total(),
            fleet.digest_gaps,
        );
    }

    for (name, report) in [("breaker-trip", naive), ("fallback-cap", resilient)] {
        let fleet = report.fleet.as_ref().expect("fleet recording enabled");
        print_chain(name, &fleet.timeline);
    }
}

/// Walks and prints the chain of explain `name`, or says there is none.
fn print_chain(name: &str, timeline: &FleetTimeline) {
    let explain = explain::find(name).expect("a registered explain");
    match explain::walk(explain, timeline, None) {
        Some(chain) => print!("\n{}", explain::render(&chain)),
        None => println!("\nno {name} chain in this run"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{find, journal_timeline, walk, Chain};
    use powermed_telemetry::journal::{
        EventRecord, ObsEvent, SafeModeTransition, MANAGER_SERVER_ID,
    };

    fn throttle_chain(journal: &[EventRecord], app: Option<&str>) -> Option<Chain> {
        walk(find("throttle").unwrap(), &journal_timeline(journal), app)
    }

    #[test]
    fn observed_run_matches_unobserved_physics() {
        let scenario = reference_scenario(SEED);
        let mix = ext_faults::reference_mix();
        let duration = Seconds::new(5.0);
        let obs = Obs::new(ObsConfig::default());
        let off = ext_faults::run_one(&scenario, &mix, true, duration, None, None);
        let on = ext_faults::run_one(&scenario, &mix, true, duration, None, Some(&obs));
        assert_eq!(off, on);
        assert!(obs.journal_counts().2 > 0, "the recorder saw the run");
    }

    #[test]
    fn explain_throttle_reconstructs_the_chain() {
        // Hand-built journal: over-cap polls and a sensor verdict arm
        // the watchdog, safe mode engages, both apps are throttled.
        let at = Seconds::new;
        let mut j = powermed_telemetry::journal::EventJournal::new(64);
        let poll = |over| ObsEvent::Poll {
            alloc_w: 80.0,
            net_w: 90.0,
            observed_w: Some(90.0),
            cap_w: 80.0,
            over_cap: over,
        };
        j.record(at(0.0), 1, 0, poll(false));
        j.record(at(0.1), 2, 0, poll(true));
        j.record(
            at(0.1),
            2,
            0,
            ObsEvent::SensorSuspect {
                dropouts: 1,
                stuck: 0,
            },
        );
        j.record(at(0.2), 3, 0, poll(true));
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::SafeMode {
                transition: SafeModeTransition::Engaged,
            },
        );
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::ForceThrottle {
                app: "stream".into(),
            },
        );
        j.record(
            at(0.2),
            3,
            0,
            ObsEvent::ForceThrottle {
                app: "kmeans".into(),
            },
        );
        let journal: Vec<EventRecord> = j.iter().cloned().collect();

        let ex = throttle_chain(&journal, Some("stream")).expect("chain exists");
        let (throttle, engage) = (&ex.anchor.record, &ex.records("engage")[0].record);
        assert!(matches!(
            throttle.event,
            ObsEvent::ForceThrottle { ref app } if app == "stream"
        ));
        let causes = ex.records("causes");
        assert_eq!(causes.len(), 3, "two over-cap polls + one verdict");
        assert!(causes.windows(2).all(|w| w[0].record.seq < w[1].record.seq));
        assert!(causes.iter().all(|c| c.record.seq < engage.seq));
        assert!(engage.seq < throttle.seq);
        // The clean poll before the breach is not evidence.
        assert!(causes.iter().all(|c| c.record.seq != 0));

        assert!(
            throttle_chain(&journal, Some("absent")).is_none(),
            "unknown app has no chain"
        );
        let any = throttle_chain(&journal, None).expect("any-app chain");
        assert!(matches!(
            any.anchor.record.event,
            ObsEvent::ForceThrottle { ref app } if app == "kmeans"
        ));
    }

    #[test]
    fn reference_run_yields_an_explainable_throttle() {
        // The acceptance contract behind `doctor --explain throttle`:
        // the reference scenario's full observed run must contain a
        // reconstructable chain for every app in the mix.
        let obs = Obs::new(ObsConfig::default());
        let mix = ext_faults::reference_mix();
        let scenario = reference_scenario(SEED);
        ext_faults::run_one(&scenario, &mix, true, SCENARIO_DURATION, None, Some(&obs));
        let journal = obs.journal_snapshot();
        for app in mix.apps() {
            let ex = throttle_chain(&journal, Some(app.name()))
                .unwrap_or_else(|| panic!("no chain for {}", app.name()));
            let causes = ex.records("causes");
            assert!(
                !causes.is_empty(),
                "{}: engagement must have evidence",
                app.name()
            );
            assert!(causes
                .iter()
                .any(|c| matches!(c.record.event, ObsEvent::Poll { over_cap: true, .. })));
        }
    }

    #[test]
    fn fleet_recording_leaves_cluster_physics_bit_identical() {
        // Zero-cost-on for the physics: the flight-recorded run and the
        // plain PR 3 run must agree bit-for-bit on everything measured.
        let scenario = ext_cluster_faults::Scenario {
            label: "fleet off",
            faults: fleet_scenario(11),
        };
        let off = ext_cluster_faults::run_one(&scenario, true, 4, Seconds::new(60.0));
        let on = run_fleet_observed(
            &fleet_scenario(11),
            true,
            4,
            Seconds::new(60.0),
            &FleetObsOptions::default(),
        );
        assert_eq!(off.trace_digest, on.trace_digest);
        assert_eq!(off.violation_seconds, on.violation_seconds);
        assert_eq!(
            off.aggregate_normalized_perf,
            on.report.aggregate_normalized_perf
        );
        assert_eq!(off.stats, on.stats);
    }

    fn mgr_breaker_journal() -> Vec<EventRecord> {
        let at = Seconds::new;
        let mut j = powermed_telemetry::journal::EventJournal::new(64);
        // An older, reset streak that must NOT join the chain.
        j.record(
            at(1.0),
            2,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 910.0,
                budget_w: 900.0,
                streak: 1,
            },
        );
        // The arming streak, interleaved with attribution + uplinks.
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::UplinkSent {
                server: 3,
                step: 10,
            },
        );
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 930.0,
                budget_w: 900.0,
                streak: 1,
            },
        );
        j.record(
            at(5.0),
            10,
            1,
            ObsEvent::ServerOverdraw {
                server: 3,
                net_w: 95.0,
                share_w: 80.0,
            },
        );
        j.record(
            at(5.5),
            11,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 935.0,
                budget_w: 900.0,
                streak: 2,
            },
        );
        j.record(
            at(5.5),
            11,
            1,
            ObsEvent::ServerOverdraw {
                server: 3,
                net_w: 96.0,
                share_w: 80.0,
            },
        );
        j.record(
            at(6.0),
            12,
            1,
            ObsEvent::FleetOverBudget {
                net_w: 940.0,
                budget_w: 900.0,
                streak: 3,
            },
        );
        j.record(
            at(6.0),
            12,
            1,
            ObsEvent::BreakerTrip {
                hold_steps: 20,
                floor_w: 60.0,
            },
        );
        j.record(at(6.0), 12, 1, ObsEvent::EmergencyClamp { server: 0 });
        j.record(at(6.0), 12, 1, ObsEvent::EmergencyClamp { server: 3 });
        j.record(at(16.0), 32, 1, ObsEvent::BreakerRelease);
        j.iter().cloned().collect()
    }

    #[test]
    fn explain_breaker_trip_reconstructs_the_cross_server_chain() {
        let at = Seconds::new;
        let poll = |over| ObsEvent::Poll {
            alloc_w: 80.0,
            net_w: 95.0,
            observed_w: Some(95.0),
            cap_w: 95.0,
            over_cap: over,
        };
        let mut timeline = FleetTimeline::new();
        timeline.merge_records(MANAGER_SERVER_ID, &mgr_breaker_journal());
        // Server 3's shipped journal: one poll before the window, two
        // inside it (the stale-cap server believes it is under cap).
        let mut s3 = powermed_telemetry::journal::EventJournal::new(64);
        s3.record(at(1.0), 2, 1, poll(false));
        s3.record(at(5.0), 10, 1, poll(false));
        s3.record(at(5.5), 11, 1, poll(false));
        let s3_records: Vec<EventRecord> = s3.iter().cloned().collect();
        timeline.merge_records(3, &s3_records);

        let breaker = find("breaker-trip").unwrap();
        let ex = walk(breaker, &timeline, None).expect("chain exists");
        assert!(matches!(
            ex.anchor.record.event,
            ObsEvent::BreakerTrip { .. }
        ));
        assert_eq!(ex.servers("overdraws"), vec![3]);
        // The streak is the three counting steps — the reset streak at
        // t=1.0 s is excluded.
        let armed = ex.records("armed");
        assert_eq!(armed.len(), 3);
        assert!(armed.windows(2).all(|w| w[0].record.seq < w[1].record.seq));
        assert_eq!(ex.records("overdraws").len(), 2);
        assert_eq!(ex.records("uplinks").len(), 1);
        assert_eq!(ex.records("clamps").len(), 2);
        assert_eq!(ex.records("release").len(), 1);
        // Only the in-window polls are evidence.
        let polls = ex.records("polls");
        assert_eq!(polls.len(), 2);
        assert!(polls.iter().all(|p| p.record.at.value() >= 5.0));

        // No overdraw attribution -> no chain.
        let mut bare = FleetTimeline::new();
        let keep: Vec<EventRecord> = mgr_breaker_journal()
            .into_iter()
            .filter(|r| !matches!(r.event, ObsEvent::ServerOverdraw { .. }))
            .collect();
        bare.merge_records(MANAGER_SERVER_ID, &keep);
        assert!(walk(breaker, &bare, None).is_none());
        // Empty timeline -> no chain.
        assert!(walk(breaker, &FleetTimeline::new(), None).is_none());
    }

    #[test]
    fn explain_fallback_cap_reconstructs_the_cross_server_chain() {
        let at = Seconds::new;
        let mut s2 = powermed_telemetry::journal::EventJournal::new(64);
        s2.record(at(60.0), 120, 2, ObsEvent::HeartbeatMissed { misses: 1 });
        s2.record(at(62.0), 124, 2, ObsEvent::HeartbeatMissed { misses: 2 });
        s2.record(at(64.0), 128, 2, ObsEvent::HeartbeatMissed { misses: 3 });
        s2.record(at(64.0), 128, 2, ObsEvent::FallbackEngage { cap_w: 90.0 });
        s2.record(at(66.0), 132, 2, ObsEvent::FallbackDecay { cap_w: 85.0 });
        s2.record(at(68.0), 136, 2, ObsEvent::FallbackDecay { cap_w: 80.0 });
        s2.record(at(180.5), 361, 3, ObsEvent::FallbackRelease { cap_w: 95.0 });
        let s2_records: Vec<EventRecord> = s2.iter().cloned().collect();

        let mut mgr = powermed_telemetry::journal::EventJournal::new(64);
        mgr.record(at(61.0), 122, 2, ObsEvent::EndpointLoss { server: 2 });
        mgr.record(at(61.0), 122, 2, ObsEvent::EndpointLoss { server: 0 });
        let mgr_records: Vec<EventRecord> = mgr.iter().cloned().collect();

        let mut timeline = FleetTimeline::new();
        timeline.merge_records(2, &s2_records);
        timeline.merge_records(MANAGER_SERVER_ID, &mgr_records);

        let fallback = find("fallback-cap").unwrap();
        let ex = walk(fallback, &timeline, None).expect("chain exists");
        assert_eq!(ex.anchor.server_id, 2);
        let missed = ex.records("missed");
        assert_eq!(missed.len(), 3);
        assert!(missed.windows(2).all(|w| w[0].record.seq < w[1].record.seq));
        assert_eq!(ex.records("decays").len(), 2);
        assert!(matches!(
            ex.records("release")[0].record.event,
            ObsEvent::FallbackRelease { cap_w } if cap_w == 95.0
        ));
        // Only server 2's endpoint loss is evidence.
        assert_eq!(ex.records("losses").len(), 1);

        // A newer decay-free episode (engaged already at the floor)
        // loses to the richer one with decay steps…
        let mut floor = powermed_telemetry::journal::EventJournal::new(64);
        floor.record(at(200.0), 400, 3, ObsEvent::HeartbeatMissed { misses: 1 });
        floor.record(at(202.0), 404, 3, ObsEvent::HeartbeatMissed { misses: 2 });
        floor.record(at(202.0), 404, 3, ObsEvent::FallbackEngage { cap_w: 50.0 });
        floor.record(at(210.0), 420, 4, ObsEvent::FallbackRelease { cap_w: 95.0 });
        let floor_records: Vec<EventRecord> = floor.iter().cloned().collect();
        timeline.merge_records(4, &floor_records);
        let ex = walk(fallback, &timeline, None).expect("chain exists");
        assert_eq!(ex.anchor.server_id, 2, "decay-rich episode preferred");

        // …but still chains when it is the only complete episode.
        let mut t2 = FleetTimeline::new();
        t2.merge_records(4, &floor_records);
        let ex2 = walk(fallback, &t2, None).expect("floor episode chains");
        assert_eq!(ex2.anchor.server_id, 4);
        assert!(ex2.records("decays").is_empty());

        // A still-partitioned run (no release retained) has no chain.
        let mut open = FleetTimeline::new();
        open.merge_records(2, &s2_records[..s2_records.len() - 1]);
        assert!(walk(fallback, &open, None).is_none());
    }

    #[test]
    fn fleet_metrics_count_the_shipped_digests() {
        let report = run_fleet_observed(
            &fleet_scenario(5),
            true,
            2,
            Seconds::new(20.0),
            &FleetObsOptions::default(),
        );
        let metrics = &report
            .fleet
            .as_ref()
            .expect("fleet recording enabled")
            .metrics;
        assert!(metrics.counter("digest_bytes_total") > 0);
        assert!(metrics.gauge("timeline_len").is_some());
        assert!(metrics.gauge("last_acked_seq{server=\"0\"}").is_some());
    }

    #[test]
    fn the_overhead_gate_admits_five_percent_of_all_and_no_more() {
        // 0.5 s extra per batch over a 10 s `all`: exactly the gate.
        let at_gate = overhead_check(1.0, 1.5, 10.0);
        assert!(at_gate.ok, "{}", at_gate.detail);
        let above = overhead_check(1.0, 1.5 + 1e-9, 10.0);
        assert!(!above.ok, "{}", above.detail);
        assert!(
            at_gate.detail.contains("of `all`'s 10.000 s"),
            "{}",
            at_gate.detail
        );
        let other = overhead_check(1.0, 1.01, 0.25);
        assert!(
            other.detail.contains("of `all`'s 0.250 s"),
            "{}",
            other.detail
        );
        assert!(other.detail.starts_with("4.0000%"), "{}", other.detail);
        // A recorder that runs faster than the unobserved batch costs 0.
        assert!(overhead_check(1.0, 0.5, 0.25).ok);
    }
}
