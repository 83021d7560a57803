//! Fig. 12: cluster-level peak shaving.
//!
//! Ten servers replay a diurnal demand trace with 15/30/45% of the peak
//! shaved (12a); aggregate application performance is compared across
//! Equal(RAPL), Equal(Ours) and Consolidation+Migration (12b). The
//! paper's observations: RAPL retains 47–89% of uncapped performance,
//! ours 63–99%, matching or beating consolidation by a few percent, with
//! better overall power efficiency.

use powermed_cluster::manager::{ClusterManager, ClusterPolicy, ClusterReport};
use powermed_cluster::trace::ClusterPowerTrace;
use powermed_units::{Ratio, Seconds, Watts};

use crate::support::{heading, par_map, pct};

/// The shave levels of Fig. 12a.
pub const SHAVES: [f64; 3] = [0.15, 0.30, 0.45];

/// Number of servers in the prototype cluster.
pub const SERVERS: usize = 10;

/// Compressed-day trace duration and control step.
const DURATION: Seconds = Seconds::new(480.0);
const DT: Seconds = Seconds::new(0.5);

/// Workable per-server cap floor: `P_idle + P_cm` plus the smallest
/// useful dynamic allowance. Shaved caps are clamped here — a cap below
/// the fleet's floor cannot be enforced by power management at all.
const WORKABLE_FLOOR_PER_SERVER: f64 = 78.0;

/// One shave level's results across the three policies.
#[derive(Debug, Clone)]
pub struct ShaveRow {
    /// Fraction of peak shaved.
    pub shave: f64,
    /// Reports for `[EqualRapl, EqualOurs, ConsolidationMigration]`.
    pub reports: Vec<ClusterReport>,
}

/// Runs the full Fig. 12 sweep, one shave level per worker-pool task
/// (the trace and manager are deterministic, so the fan-out is
/// result-identical to a serial sweep).
pub fn run() -> Vec<ShaveRow> {
    let demand = ClusterPowerTrace::synthetic_diurnal(SERVERS, DURATION, 42);
    let manager = ClusterManager::new(SERVERS, 7);
    par_map(SHAVES.to_vec(), |shave| {
        let caps = demand
            .peak_shaved(Ratio::new(shave))
            .clamped_below(Watts::new(WORKABLE_FLOOR_PER_SERVER * SERVERS as f64));
        let reports = [
            ClusterPolicy::EqualRapl,
            ClusterPolicy::EqualOurs,
            ClusterPolicy::ConsolidationMigration,
        ]
        .into_iter()
        .map(|p| manager.run(p, &caps, DT))
        .collect();
        ShaveRow { shave, reports }
    })
}

/// Prints Figs. 12a (cap schedule summary) and 12b (aggregate perf).
pub fn print() {
    let demand = ClusterPowerTrace::synthetic_diurnal(SERVERS, DURATION, 42);
    heading("Fig. 12a: dynamic cluster power caps (peak shaving)");
    println!("demand peak: {:.0}", demand.peak());
    for shave in SHAVES {
        let caps = demand
            .peak_shaved(Ratio::new(shave))
            .clamped_below(Watts::new(WORKABLE_FLOOR_PER_SERVER * SERVERS as f64));
        let mean: f64 = caps.samples().iter().map(|(_, w)| w.value()).sum::<f64>()
            / caps.samples().len() as f64;
        println!(
            "shave {:>3.0}%: ceiling {:>7.0} W, mean cap {mean:>7.0} W",
            shave * 100.0,
            demand.peak().value() * (1.0 - shave),
        );
    }

    heading("Fig. 12b: aggregate cluster performance");
    let rows = run();
    println!(
        "{:>7} {:>14} {:>14} {:>30}",
        "shave", "Equal(RAPL)", "Equal(Ours)", "Consolidation+Migration"
    );
    for row in &rows {
        println!(
            "{:>6.0}% {:>14} {:>14} {:>30}",
            row.shave * 100.0,
            pct(row.reports[0].aggregate_normalized_perf),
            pct(row.reports[1].aggregate_normalized_perf),
            pct(row.reports[2].aggregate_normalized_perf),
        );
    }
    println!("\npower efficiency (normalized perf per MJ):");
    for row in &rows {
        println!(
            "shave {:>3.0}%: RAPL {:.3}, Ours {:.3}, Consolidation {:.3}",
            row.shave * 100.0,
            row.reports[0].perf_per_kilojoule * 1000.0,
            row.reports[1].perf_per_kilojoule * 1000.0,
            row.reports[2].perf_per_kilojoule * 1000.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn ours_beats_rapl_at_every_shave_level() {
        let rows = run();
        for row in &rows {
            let rapl = row.reports[0].aggregate_normalized_perf;
            let ours = row.reports[1].aggregate_normalized_perf;
            assert!(
                ours > rapl,
                "shave {:.0}%: ours {ours:.3} vs rapl {rapl:.3}",
                row.shave * 100.0
            );
        }
        // Gains grow with stringency.
        let gain_15 = rows[0].reports[1].aggregate_normalized_perf
            / rows[0].reports[0].aggregate_normalized_perf;
        let gain_45 = rows[2].reports[1].aggregate_normalized_perf
            / rows[2].reports[0].aggregate_normalized_perf;
        assert!(
            gain_45 > gain_15,
            "gain 45% {gain_45:.3} vs 15% {gain_15:.3}"
        );
    }
}
