//! Extension beyond the paper: utility-aware *cluster* apportionment
//! (the paper's future work (i)).
//!
//! `Equal(Ours)` splits the cluster cap evenly; `Unequal(Ours)` applies
//! the paper's own marginal-utility reasoning one level up the power
//! hierarchy: each server's value curve (expected Eq. 1 objective as a
//! function of its cap, ESD included) feeds an exact DP that splits the
//! cluster cap in 5 W increments.

use powermed_cluster::manager::{ClusterManager, ClusterPolicy, ClusterReport};
use powermed_cluster::trace::ClusterPowerTrace;
use powermed_units::{Ratio, Seconds, Watts};

use crate::support::{heading, pct};

/// Shave levels evaluated.
pub const SHAVES: [f64; 3] = [0.15, 0.30, 0.45];

const SERVERS: usize = 10;
const DURATION: Seconds = Seconds::new(480.0);
const DT: Seconds = Seconds::new(0.5);
const WORKABLE_FLOOR_PER_SERVER: f64 = 78.0;

/// One shave level's `[Equal(Ours), Unequal(Ours)]` reports.
#[derive(Debug, Clone)]
pub struct ShaveRow {
    /// Fraction of peak shaved.
    pub shave: f64,
    /// Reports for the two strategies.
    pub reports: Vec<ClusterReport>,
}

/// Runs the comparison.
pub fn run() -> Vec<ShaveRow> {
    let demand = ClusterPowerTrace::synthetic_diurnal(SERVERS, DURATION, 42);
    let manager = ClusterManager::new(SERVERS, 7);
    SHAVES
        .iter()
        .map(|&shave| {
            let caps = demand
                .peak_shaved(Ratio::new(shave))
                .clamped_below(Watts::new(WORKABLE_FLOOR_PER_SERVER * SERVERS as f64));
            let reports = [ClusterPolicy::EqualOurs, ClusterPolicy::UnequalOurs]
                .into_iter()
                .map(|p| manager.run(p, &caps, DT))
                .collect();
            ShaveRow { shave, reports }
        })
        .collect()
}

/// Prints the comparison.
pub fn print() {
    heading("Extension: utility-aware cluster apportionment");
    let rows = run();
    println!(
        "{:>7} {:>14} {:>14}",
        "shave", "Equal(Ours)", "Unequal(Ours)"
    );
    for row in &rows {
        println!(
            "{:>6.0}% {:>14} {:>14}",
            row.shave * 100.0,
            pct(row.reports[0].aggregate_normalized_perf),
            pct(row.reports[1].aggregate_normalized_perf),
        );
    }
    println!(
        "\n(the unequal split gives heterogeneous servers unequal caps, the\nsame R1 reasoning the paper applies across applications)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn unequal_never_loses_to_equal() {
        for row in run() {
            let equal = row.reports[0].aggregate_normalized_perf;
            let unequal = row.reports[1].aggregate_normalized_perf;
            assert!(
                unequal >= equal - 0.02,
                "shave {:.0}%: unequal {unequal:.3} vs equal {equal:.3}",
                row.shave * 100.0
            );
        }
    }
}
