//! Extension beyond the paper: the cluster tier on a faulty control
//! plane.
//!
//! The Sec. IV-D cluster evaluation assumes every cap assignment lands
//! instantly on every server and no node ever fails. This experiment
//! breaks those assumptions with the seeded cluster control plane
//! (`powermed_cluster::control`): cap downlinks drop, delay, and
//! reorder; telemetry goes stale; whole nodes crash and restart; a
//! server can be partitioned away from the manager; the manager itself
//! can crash and fail over. Each scenario runs twice under common
//! random numbers — once with the **resilient** manager (heartbeats,
//! checkpoints, dead-node reapportionment, partition-safe fallback
//! caps) and once with the **naive** fire-and-forget manager (the old
//! monolithic loop made honest about the network) — and the table
//! reports aggregate normalized performance, budget violation-seconds,
//! and the fault/response counters.
//!
//! Both flavors face the same facility protection: sustained budget
//! overdraw trips the upstream breaker, slamming the fleet to the floor
//! cap for a cooldown. That is what makes staleness expensive in the
//! aggregate — a naive fleet that keeps drawing on a stale high cap
//! does not pocket free throughput, it gets cut off upstream, while the
//! resilient manager's repairs keep it under budget and trip-free.
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses one
//! short reference run into a single hash so CI can assert bit-identical
//! fault traces cheaply (`ext_cluster_faults --smoke`).

use powermed_cluster::control::{
    BreakerConfig, ClusterFaultConfig, ControlOptions, ManagedPolicy, PartitionWindow,
};
use powermed_cluster::manager::ClusterManager;
use powermed_cluster::trace::ClusterPowerTrace;
use powermed_telemetry::faults::ClusterControlStats;
use powermed_units::hash::Fnv1a;
use powermed_units::{Ratio, Seconds, Watts};

use crate::support::{heading, par_map, pct};

/// Seed shared by the scenario grid.
pub const SEED: u64 = 0xC1_05;

/// Fleet size (matches fig12 / ext_cluster).
pub const SERVERS: usize = 10;
/// Trace duration of the full scenario runs.
pub const DURATION: Seconds = Seconds::new(480.0);
/// Cluster control step.
pub const DT: Seconds = Seconds::new(0.5);
/// Shave level the scenarios run at. The mild fig12 stringency is the
/// interesting one here: at 15% the ceiling clips only the mid-day
/// peak, so the budget actually *moves* through the day and a dropped
/// cap assignment leaves a server stale against a changed budget. (At
/// 30%+ the ceiling falls below the diurnal trough and the whole
/// schedule flattens into one constant — no budget changes, nothing to
/// be stale against.) The fleet saturates its budget almost exactly, so
/// staleness converts to violation-seconds nearly one-for-one.
pub const SHAVE: f64 = 0.15;
const WORKABLE_FLOOR_PER_SERVER: f64 = 78.0;

/// One cell of the grid: a scenario run under one manager flavor.
#[derive(Debug, Clone)]
pub struct ClusterFaultOutcome {
    /// Mean normalized throughput across all applications.
    pub aggregate_normalized_perf: f64,
    /// Seconds the fleet's aggregate net draw exceeded the budget.
    pub violation_seconds: f64,
    /// Integral of the excess above budget (watt-seconds).
    pub excess_watt_seconds: f64,
    /// Control-plane fault and response counters.
    pub stats: ClusterControlStats,
    /// FNV-1a digest of the fault history (determinism witness).
    pub trace_digest: u64,
}

/// A named cluster fault scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Table label.
    pub label: &'static str,
    /// What the control plane injects.
    pub faults: ClusterFaultConfig,
}

/// The scenario grid: one row per failure mode, plus the reference
/// scenario combining node churn with message loss.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    let lossy = |seed| ClusterFaultConfig {
        downlink_drop_prob: 0.10,
        downlink_delay_max_steps: 2,
        uplink_drop_prob: 0.10,
        uplink_delay_max_steps: 2,
        ..ClusterFaultConfig::none(seed)
    };
    vec![
        Scenario {
            label: "no faults",
            faults: ClusterFaultConfig::none(seed),
        },
        Scenario {
            label: "lossy control plane (10% drop, <=1 s delay)",
            faults: lossy(seed),
        },
        Scenario {
            label: "node churn (0.1%/step crash, 20 s down)",
            faults: ClusterFaultConfig {
                node_crash_prob: 0.001,
                node_down_steps: 40,
                ..ClusterFaultConfig::none(seed)
            },
        },
        Scenario {
            label: "partition (server 2 cut 60-180 s) + lossy",
            faults: ClusterFaultConfig {
                partitions: vec![PartitionWindow {
                    server: 2,
                    from_step: 120,
                    until_step: 360,
                }],
                ..lossy(seed)
            },
        },
        Scenario {
            label: "manager failover at 120 s (15 s out) + lossy",
            faults: ClusterFaultConfig {
                manager_crash_step: Some(240),
                manager_takeover_steps: 30,
                ..lossy(seed)
            },
        },
        Scenario {
            label: "reference: churn + lossy",
            faults: ClusterFaultConfig::default_scenario(seed),
        },
    ]
}

/// Depth of the mid-run demand-response event (fraction of budget cut).
pub const DR_CUT: f64 = 0.12;
/// The demand-response window, in seconds of the run.
pub const DR_WINDOW: (f64, f64) = (240.0, 360.0);

/// The cap schedule all scenarios replay: the fig12 synthetic diurnal
/// demand, peak-shaved, clamped to the workable floor, resampled to a
/// one-minute re-apportionment cadence, with a utility demand-response
/// event — a 12% cut for two minutes — in the middle of the run.
///
/// The coarse cadence matters: budget changes become few and large (the
/// diurnal swing, not per-sample noise), so a dropped assignment leaves
/// a server a whole segment stale — the failure mode a fire-and-forget
/// manager actually has in production, and one worth paying a re-plan
/// to repair. The DR event matters for the same reason the paper cares
/// about peak shaving at all: the cut lands deep in the binding range,
/// where the fleet saturates its budget almost exactly, so a server
/// still running its pre-cut cap converts staleness into budget
/// overdraw nearly one-for-one.
pub fn cap_schedule(servers: usize, duration: Seconds) -> ClusterPowerTrace {
    let fine = ClusterPowerTrace::synthetic_diurnal(servers, duration, 42)
        .peak_shaved(Ratio::new(SHAVE))
        .clamped_below(Watts::new(WORKABLE_FLOOR_PER_SERVER * servers as f64));
    ClusterPowerTrace::from_samples(
        fine.samples()
            .iter()
            .step_by(12)
            .map(|(t, w)| {
                if (DR_WINDOW.0..DR_WINDOW.1).contains(&t.value()) {
                    (*t, *w * (1.0 - DR_CUT))
                } else {
                    (*t, *w)
                }
            })
            .collect(),
    )
}

/// Runs one scenario under one manager flavor.
pub fn run_one(
    scenario: &Scenario,
    resilient: bool,
    servers: usize,
    duration: Seconds,
) -> ClusterFaultOutcome {
    let caps = cap_schedule(servers, duration);
    let options = ControlOptions {
        resilient,
        faults: scenario.faults.clone(),
        // Unlike the fig-12 replication paths, this experiment runs
        // behind a live facility breaker: sustained overdraw gets the
        // fleet clamped upstream, for either flavor.
        breaker: BreakerConfig::default(),
        ..ControlOptions::perfect(scenario.faults.seed)
    };
    let report = ClusterManager::new(servers, 7).run_with_control(
        ManagedPolicy::equal_ours(),
        &caps,
        DT,
        &options,
    );
    ClusterFaultOutcome {
        aggregate_normalized_perf: report.report.aggregate_normalized_perf,
        violation_seconds: report.violation_seconds,
        excess_watt_seconds: report.excess_watt_seconds,
        stats: report.stats,
        trace_digest: report.trace_digest,
    }
}

/// Runs the whole grid, `(scenario, naive, resilient)` per row. Both
/// flavors share the scenario's seed (common random numbers), so they
/// face the same drop/delay/churn draws wherever both consume them.
pub fn run_grid() -> Vec<(Scenario, ClusterFaultOutcome, ClusterFaultOutcome)> {
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for resilient in [false, true] {
            cells.push((s.clone(), resilient));
        }
    }
    let outs = par_map(cells, |(s, resilient)| {
        run_one(&s, resilient, SERVERS, DURATION)
    });
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// One short reference run condensed to a single determinism witness:
/// the fault-trace digest folded with the outcome's bit patterns. Two
/// calls with the same seed must agree bit-for-bit; different seeds
/// must not.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = Scenario {
        label: "smoke",
        faults: ClusterFaultConfig::default_scenario(seed),
    };
    let out = run_one(&scenario, true, 4, Seconds::new(60.0));
    let mut digest = Fnv1a::resume(out.trace_digest);
    for bits in [
        out.aggregate_normalized_perf.to_bits(),
        out.violation_seconds.to_bits(),
        out.stats.injected_events(),
        out.stats.response_events(),
        out.stats.breaker_trips,
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

fn print_pair(label: &str, naive: &ClusterFaultOutcome, resilient: &ClusterFaultOutcome) {
    println!(
        "{:<46} {:>8} {:>8.1} {:>5} | {:>8} {:>8.1} {:>5} {:>7} {:>5} {:>5} {:>5}",
        label,
        pct(naive.aggregate_normalized_perf),
        naive.violation_seconds,
        naive.stats.breaker_trips,
        pct(resilient.aggregate_normalized_perf),
        resilient.violation_seconds,
        resilient.stats.breaker_trips,
        resilient.stats.injected_events(),
        resilient.stats.heartbeat_misses,
        resilient.stats.reapportionments,
        resilient.stats.manager_failovers,
    );
}

/// Prints the extension experiment.
pub fn print() {
    heading("Extension: cluster control-plane faults — naive vs resilient manager");
    println!(
        "{:<46} {:>8} {:>8} {:>5} | {:>8} {:>8} {:>5} {:>7} {:>5} {:>5} {:>5}",
        "scenario (naive | resilient)",
        "mean",
        "viol s",
        "trips",
        "mean",
        "viol s",
        "trips",
        "faults",
        "miss",
        "reapp",
        "fail"
    );
    for (s, naive, resilient) in run_grid() {
        print_pair(s.label, &naive, &resilient);
    }
    println!(
        "\n(Equal(Ours) at {:.0}% shave — a moving diurnal budget; viol s = seconds\nthe fleet's true net draw exceeded the cluster budget; trips = times\nsustained overdraw tripped the facility breaker's emergency clamp;\nboth flavors share each scenario's fault seed — common random numbers)",
        SHAVE * 100.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fault_scenario_injects_nothing_and_flavors_agree() {
        let s = &scenarios(SEED)[0];
        assert_eq!(s.label, "no faults");
        let naive = run_one(s, false, 2, Seconds::new(30.0));
        let resilient = run_one(s, true, 2, Seconds::new(30.0));
        assert_eq!(naive.stats.injected_events(), 0);
        assert_eq!(resilient.stats.injected_events(), 0);
        assert_eq!(
            naive.aggregate_normalized_perf, resilient.aggregate_normalized_perf,
            "zero-cost-off: flavors are bit-identical without faults"
        );
        assert_eq!(naive.trace_digest, resilient.trace_digest);
        assert_eq!(resilient.violation_seconds, naive.violation_seconds);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn resilient_beats_naive_in_the_reference_scenario() {
        let rows = run_grid();
        let (s, naive, resilient) = rows.last().expect("reference row");
        assert_eq!(s.label, "reference: churn + lossy");
        assert!(
            naive.violation_seconds > 5.0,
            "naive must measurably violate ({} s)",
            naive.violation_seconds
        );
        assert!(
            resilient.violation_seconds < 0.2 * naive.violation_seconds,
            "resilient {} s vs naive {} s",
            resilient.violation_seconds,
            naive.violation_seconds
        );
        assert!(
            resilient.aggregate_normalized_perf > naive.aggregate_normalized_perf,
            "resilient {} vs naive {}",
            resilient.aggregate_normalized_perf,
            naive.aggregate_normalized_perf
        );
        assert!(
            naive.stats.breaker_trips > 0,
            "naive staleness must trip the facility breaker"
        );
        assert_eq!(
            resilient.stats.breaker_trips, 0,
            "the resilient fleet stays under budget and never trips"
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn resilient_never_loses_on_violations_across_the_grid() {
        for (s, naive, resilient) in run_grid() {
            assert!(
                resilient.violation_seconds <= naive.violation_seconds + 1e-9,
                "{}: resilient {} s vs naive {} s",
                s.label,
                resilient.violation_seconds,
                naive.violation_seconds
            );
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn partition_scenario_engages_fallback_and_failover_scenario_fails_over() {
        let rows = run_grid();
        let partition = &rows[3];
        assert!(partition.0.label.starts_with("partition"));
        assert!(partition.2.stats.fallback_engagements >= 1);
        assert!(partition.2.stats.dead_declarations >= 1);
        assert!(partition.2.stats.rejoins >= 1);
        let failover = &rows[4];
        assert!(failover.0.label.starts_with("manager failover"));
        assert_eq!(failover.2.stats.manager_failovers, 1);
        assert!(failover.2.stats.checkpoints > 0);
        // The naive standby also takes over, but cold.
        assert_eq!(failover.1.stats.manager_failovers, 1);
        assert_eq!(failover.1.stats.checkpoints, 0);
    }
}
