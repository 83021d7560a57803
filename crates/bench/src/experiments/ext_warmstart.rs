//! Extension beyond the paper: warm-start admission over the fleet
//! profile knowledge plane.
//!
//! The paper calibrates every application exhaustively on every server,
//! every time it is admitted — and the PR 3 fault experiments showed
//! node churn forcing that cost again on every restart. This experiment
//! attaches the versioned profile store (`powermed_profiles`) to the
//! cluster control plane and measures what the knowledge plane buys:
//! each scenario runs twice under common random numbers — once **cold**
//! (online sparse calibration, no store) and once **warm** (the same
//! calibration consulting and feeding the fleet store, with digests
//! riding the uplink/downlink messages) — and the table reports the
//! fleet-wide probe split (cold / warm / skipped), the implied
//! calibration dwell saved, perf-vs-optimal for both flavors, and the
//! end-of-run store divergence between the manager and the agents
//! (0 = the knowledge plane converged).
//!
//! Both flavors run *online sparse calibration*, so the comparison
//! isolates the store itself: identical probe schedules, identical
//! fault draws, identical cap schedule — the only difference is whether
//! a restarted or repeated admission may satisfy its probe points from
//! the store instead of re-running them.
//!
//! Every run is seed-deterministic; [`smoke_digest`] condenses one
//! short cold + warm reference pair into a single hash so CI can assert
//! bit-identical warm-start traces cheaply (`ext_warmstart --smoke`).

use powermed_cluster::control::{
    BreakerConfig, ClusterFaultConfig, ControlOptions, ManagedPolicy, PartitionWindow,
    WarmStartOptions,
};
use powermed_cluster::manager::ClusterManager;
use powermed_profiles::ProbeSplit;
use powermed_telemetry::ProfileStoreStats;
use powermed_units::hash::Fnv1a;
use powermed_units::Seconds;

use crate::experiments::ext_cluster_faults::cap_schedule;
use crate::harness::{field, Outcome};
use crate::support::{heading, par_map, pct, HarnessDoc};

/// Seed shared by the scenario grid.
pub const SEED: u64 = 0x0003_A804;

/// Fleet size (matches fig12 / ext_cluster / ext_cluster_faults).
pub const SERVERS: usize = 10;
/// Trace duration of the full scenario runs.
pub const DURATION: Seconds = Seconds::new(480.0);
/// Cluster control step.
pub const DT: Seconds = Seconds::new(0.5);

/// Modeled measurement dwell per probe point, in seconds. The paper's
/// calibration holds each knob setting long enough for a stable power
/// reading; the simulator runs probes instantaneously, so the table
/// converts probe counts into the wall-clock calibration stall they
/// would cost a real fleet (time-to-good-allocation).
pub const PROBE_SECONDS: f64 = 0.5;

/// One cell of the grid: a scenario run under one boot flavor.
#[derive(Debug, Clone)]
pub struct WarmStartOutcome {
    /// Mean normalized throughput across all applications.
    pub aggregate_normalized_perf: f64,
    /// Seconds the fleet's aggregate net draw exceeded the budget.
    pub violation_seconds: f64,
    /// Fleet-wide probe accounting across every server incarnation.
    pub probes: ProbeSplit,
    /// Fleet-wide profile-store event counters (zero when cold).
    pub store: ProfileStoreStats,
    /// Store entries on which manager and agents still disagree at run
    /// end (`None` when cold — there is no store to diverge).
    pub store_divergence: Option<usize>,
    /// Whole-node crash/restart cycles the scenario injected.
    pub node_crashes: u64,
    /// FNV-1a digest of the fault history (determinism witness).
    pub trace_digest: u64,
}

impl WarmStartOutcome {
    /// Implied fleet-wide calibration dwell: probes actually executed
    /// times the per-probe measurement window.
    pub fn calibration_seconds(&self) -> f64 {
        self.probes.measured() as f64 * PROBE_SECONDS
    }

    /// Fraction of the cold baseline's executed probes this run
    /// avoided (the headline "probes saved" number).
    pub fn probes_saved_vs(&self, cold: &Self) -> f64 {
        if cold.probes.measured() == 0 {
            return 0.0;
        }
        1.0 - self.probes.measured() as f64 / cold.probes.measured() as f64
    }
}

/// A named warm-start scenario: the control-plane faults plus any
/// forced E4 drift injections (step, server).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Table label.
    pub label: &'static str,
    /// What the control plane injects.
    pub faults: ClusterFaultConfig,
    /// Forced drift: at step `.0`, server `.1` re-calibrates its first
    /// app, tombstoning that profile fleet-wide.
    pub drift_at: Vec<(u64, usize)>,
}

/// The scenario grid: a fault-free sanity row (the store must be free
/// when nothing restarts), the PR 3 reference churn scenario (where
/// restarts make re-calibration expensive), a heavier churn row, and a
/// partition + forced-drift row exercising tombstone convergence.
pub fn scenarios(seed: u64) -> Vec<Scenario> {
    vec![
        Scenario {
            label: "no faults (admissions only)",
            faults: ClusterFaultConfig::none(seed),
            drift_at: Vec::new(),
        },
        Scenario {
            label: "reference: churn + lossy (PR 3 scenario)",
            faults: ClusterFaultConfig::default_scenario(seed),
            drift_at: Vec::new(),
        },
        Scenario {
            label: "heavy churn (0.4%/step crash, 10 s down)",
            faults: ClusterFaultConfig {
                node_crash_prob: 0.004,
                node_down_steps: 20,
                ..ClusterFaultConfig::default_scenario(seed)
            },
            drift_at: Vec::new(),
        },
        // The convergence row runs without message loss or churn: the
        // question is whether a *healed partition* catches up on a
        // fleet-wide tombstone, and with a lossy plane the final digest
        // wave itself can be dropped, leaving benign end-of-run skew
        // that says nothing about partition recovery.
        Scenario {
            label: "partition (server 2 cut 60-180 s) + drift at 120 s",
            faults: ClusterFaultConfig {
                partitions: vec![PartitionWindow {
                    server: 2,
                    from_step: 120,
                    until_step: 360,
                }],
                ..ClusterFaultConfig::none(seed)
            },
            drift_at: vec![(240, 0)],
        },
    ]
}

/// Runs one scenario under one boot flavor (`warm` = knowledge plane
/// on; both flavors run online sparse calibration).
pub fn run_one(
    scenario: &Scenario,
    warm: bool,
    servers: usize,
    duration: Seconds,
) -> WarmStartOutcome {
    let caps = cap_schedule(servers, duration);
    let base = if warm {
        WarmStartOptions::warm()
    } else {
        WarmStartOptions::cold()
    };
    let options = ControlOptions {
        resilient: true,
        faults: scenario.faults.clone(),
        breaker: BreakerConfig::default(),
        warm_start: Some(WarmStartOptions {
            drift_at: scenario.drift_at.clone(),
            ..base
        }),
        ..ControlOptions::perfect(scenario.faults.seed)
    };
    let report = ClusterManager::new(servers, 7).run_with_control(
        ManagedPolicy::equal_ours(),
        &caps,
        DT,
        &options,
    );
    WarmStartOutcome {
        aggregate_normalized_perf: report.report.aggregate_normalized_perf,
        violation_seconds: report.violation_seconds,
        probes: report.probe_split,
        store: report.store_stats,
        store_divergence: report.store_divergence,
        node_crashes: report.stats.node_crashes,
        trace_digest: report.trace_digest,
    }
}

/// Runs the whole grid, `(scenario, cold, warm)` per row. Both flavors
/// share the scenario's seed (common random numbers), so they face the
/// same drop/delay/churn draws wherever both consume them.
pub fn run_grid() -> Vec<(Scenario, WarmStartOutcome, WarmStartOutcome)> {
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for warm in [false, true] {
            cells.push((s.clone(), warm));
        }
    }
    let outs = par_map(cells, |(s, warm)| run_one(&s, warm, SERVERS, DURATION));
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// One short cold + warm reference pair condensed to a single
/// determinism witness: both trace digests folded with the probe split
/// and store counters. Two calls with the same seed must agree
/// bit-for-bit; different seeds must not.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = Scenario {
        label: "smoke",
        faults: ClusterFaultConfig {
            node_crash_prob: 0.02,
            node_down_steps: 10,
            ..ClusterFaultConfig::default_scenario(seed)
        },
        drift_at: vec![(40, 1)],
    };
    let cold = run_one(&scenario, false, 3, Seconds::new(60.0));
    let warm = run_one(&scenario, true, 3, Seconds::new(60.0));
    let mut digest = Fnv1a::resume(cold.trace_digest);
    for bits in [
        warm.trace_digest,
        cold.aggregate_normalized_perf.to_bits(),
        warm.aggregate_normalized_perf.to_bits(),
        cold.probes.measured(),
        warm.probes.cold,
        warm.probes.warm,
        warm.probes.skipped,
        warm.store.hits,
        warm.store.misses,
        warm.store.invalidations,
        warm.store.evictions,
        warm.store_divergence.map(|d| d as u64 + 1).unwrap_or(0),
    ] {
        digest.write_word(bits);
    }
    digest.finish()
}

fn print_pair(label: &str, cold: &WarmStartOutcome, warm: &WarmStartOutcome) {
    println!(
        "{:<46} {:>6} {:>6} {:>7} {:>6} {:>5} | {:>8} {:>8} | {:>7.1} {:>7.1} {:>4} {:>4}",
        label,
        cold.probes.measured(),
        warm.probes.measured(),
        pct(warm.probes_saved_vs(cold)),
        warm.probes.skipped,
        warm.store.hits,
        pct(cold.aggregate_normalized_perf),
        pct(warm.aggregate_normalized_perf),
        cold.calibration_seconds(),
        warm.calibration_seconds(),
        warm.node_crashes,
        warm.store_divergence
            .map(|d| d.to_string())
            .unwrap_or_else(|| "-".to_string()),
    );
}

/// Wall-clock budget of `ext_warmstart --gate` (release build, CI
/// runner).
pub const BUDGET_S: f64 = 10.0;

/// Prints the extension experiment and returns what it records: the
/// reference churn row's probe counters, its headline numbers.
pub fn report(_: &HarnessDoc) -> Outcome {
    heading("Extension: warm-start admission — cold vs fleet knowledge plane");
    println!(
        "{:<46} {:>6} {:>6} {:>7} {:>6} {:>5} | {:>8} {:>8} | {:>7} {:>7} {:>4} {:>4}",
        "scenario (cold | warm)",
        "cprobe",
        "wprobe",
        "saved",
        "skip",
        "hits",
        "c perf",
        "w perf",
        "c cal s",
        "w cal s",
        "down",
        "div"
    );
    let rows = run_grid();
    for (s, cold, warm) in &rows {
        print_pair(s.label, cold, warm);
    }
    println!(
        "\n(Equal(Ours), online sparse calibration in both flavors; cprobe/wprobe =\nprobe points actually measured fleet-wide; skip = points satisfied from\nthe store; cal s = implied calibration dwell at {PROBE_SECONDS} s/probe;\ndiv = store entries on which manager and agents still disagree at run\nend; both flavors share each scenario's fault seed — common random numbers)"
    );
    let (_, cold, warm) = &rows[1];
    Outcome {
        fields: vec![
            field("scenarios", rows.len()),
            field("servers", SERVERS),
            field("reference_cold_probes", cold.probes.measured()),
            field("reference_warm_probes", warm.probes.measured()),
            field("reference_warm_skipped", warm.probes.skipped),
            field("reference_store_hits", warm.store.hits),
            field(
                "reference_probes_saved",
                format!("{:.6}", warm.probes_saved_vs(cold)),
            ),
        ],
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_store_is_free_when_nothing_restarts() {
        let s = &scenarios(SEED)[0];
        assert_eq!(s.label, "no faults (admissions only)");
        let cold = run_one(s, false, 2, Seconds::new(30.0));
        let warm = run_one(s, true, 2, Seconds::new(30.0));
        // Boot admissions start from an empty store: every probe still
        // runs, nothing is skipped, and the fleet behaves bit-for-bit
        // like the storeless baseline.
        assert_eq!(warm.probes.measured(), cold.probes.measured());
        assert_eq!(warm.probes.skipped, 0);
        assert_eq!(cold.probes.warm, 0);
        assert_eq!(cold.probes.skipped, 0);
        assert_eq!(
            warm.aggregate_normalized_perf, cold.aggregate_normalized_perf,
            "zero-cost-on: an empty store must not change the plan"
        );
        assert_eq!(warm.trace_digest, cold.trace_digest);
        assert_eq!(cold.store_divergence, None);
        assert_eq!(warm.store_divergence, Some(0), "boot digests converge");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn reference_churn_meets_the_probe_reduction_target() {
        let rows = run_grid();
        let (s, cold, warm) = &rows[1];
        assert_eq!(s.label, "reference: churn + lossy (PR 3 scenario)");
        assert_eq!(
            warm.trace_digest, cold.trace_digest,
            "common random numbers: both flavors face the same faults"
        );
        assert!(
            warm.node_crashes > 0,
            "the reference scenario must actually churn"
        );
        assert!(
            warm.probes.measured() as f64 <= 0.6 * cold.probes.measured() as f64,
            "acceptance: >= 40% fewer fleet-wide probes (warm {} vs cold {})",
            warm.probes.measured(),
            cold.probes.measured()
        );
        assert!(warm.probes.skipped > 0);
        assert!(warm.store.hits > 0);
        assert!(
            warm.aggregate_normalized_perf >= cold.aggregate_normalized_perf - 0.01,
            "equal-or-better perf-vs-optimal (warm {} vs cold {})",
            warm.aggregate_normalized_perf,
            cold.aggregate_normalized_perf
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn heavy_churn_saves_even_more() {
        let rows = run_grid();
        let (s, cold, warm) = &rows[2];
        assert!(s.label.starts_with("heavy churn"));
        assert!(
            warm.probes_saved_vs(cold) >= rows[1].2.probes_saved_vs(&rows[1].1),
            "more restarts, more warm admissions: {} vs {}",
            warm.probes_saved_vs(cold),
            rows[1].2.probes_saved_vs(&rows[1].1)
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn partition_drift_scenario_converges_with_no_stale_profile() {
        let rows = run_grid();
        let (s, _, warm) = &rows[3];
        assert!(s.label.starts_with("partition"));
        assert!(
            warm.store.invalidations >= 1,
            "the forced drift must tombstone fleet-wide"
        );
        assert_eq!(
            warm.store_divergence,
            Some(0),
            "after the partition heals, no replica may hold a stale profile"
        );
    }
}
