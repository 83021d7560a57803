//! Fig. 10: power management at `P_cap` = 80 W.
//!
//! The stringent cap leaves only 10 W of dynamic budget — not enough to
//! run both applications at once, so all schemes must coordinate in
//! time. The observations to reproduce: consolidation-aware strategies
//! win; the relative gains are *larger* than at 100 W; and the
//! ESD-backed scheme (simultaneous OFF, simultaneous ON above the cap)
//! delivers a further substantial boost (~2x over the baseline).

use powermed_core::policy::PolicyKind;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};

use crate::support::{heading, par_map, pct, simulate_mix, MixOutcome};

/// The four policies of Fig. 10, in presentation order.
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::UtilUnaware,
    PolicyKind::ServerResAware,
    PolicyKind::AppResAware,
    PolicyKind::AppResEsdAware,
];

/// The cap for this experiment.
pub const CAP: Watts = Watts::new(80.0);

/// Simulated duration per mix and policy (long enough for several duty
/// cycles).
const DURATION: Seconds = Seconds::new(60.0);

/// Results for one mix under every policy.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// The mix evaluated.
    pub mix: Mix,
    /// One outcome per policy (ESD policy runs with the Lead-Acid UPS).
    pub outcomes: Vec<MixOutcome>,
}

/// Runs all 15 mixes × 4 policies at the 80 W cap, one mix per
/// worker-pool task (each cell is an independent simulation, so the
/// parallel fan-out is result-identical to a serial sweep).
pub fn run() -> Vec<MixRow> {
    par_map(mixes::table2(), |mix| {
        let outcomes = POLICIES
            .iter()
            .map(|&kind| simulate_mix(kind, &mix, CAP, kind.uses_esd(), DURATION))
            .collect();
        MixRow { mix, outcomes }
    })
}

/// Mean normalized throughput per policy.
pub fn policy_means(rows: &[MixRow]) -> Vec<(PolicyKind, f64)> {
    POLICIES
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let mean = rows
                .iter()
                .map(|r| r.outcomes[i].mean_normalized)
                .sum::<f64>()
                / rows.len() as f64;
            (kind, mean)
        })
        .collect()
}

/// Prints Fig. 10.
pub fn print() {
    let rows = run();
    heading("Fig. 10: normalized server throughput at P_cap = 80 W");
    print!("{:<28}", "mix");
    for p in POLICIES {
        print!("{:>19}", p.name());
    }
    println!();
    for r in &rows {
        print!("{:<28}", r.mix.label());
        for o in &r.outcomes {
            print!("{:>19}", pct(o.mean_normalized));
        }
        println!();
    }
    print!("{:<28}", "average");
    for (_, mean) in policy_means(&rows) {
        print!("{:>19}", pct(mean));
    }
    println!();
    let means = policy_means(&rows);
    println!(
        "App+Res vs Util-Unaware: {:.0}% gain (paper: ~70% under stringent caps)",
        (means[2].1 / means[0].1 - 1.0) * 100.0
    );
    println!(
        "ESD-aware vs Util-Unaware: {:.2}x (paper: ~2x)",
        means[3].1 / means[0].1
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
    fn stringent_cap_amplifies_gains_and_esd_dominates() {
        let rows = run();
        let means = policy_means(&rows);
        let uu = means[0].1;
        let ar = means[2].1;
        let esd = means[3].1;
        assert!(ar > uu, "App+Res {ar:.3} vs Util-Unaware {uu:.3}");
        assert!(
            esd > ar * 1.2,
            "ESD scheme should clearly beat App+Res: {esd:.3} vs {ar:.3}"
        );
        assert!(esd > uu * 1.5, "ESD vs baseline: {esd:.3} vs {uu:.3}");
    }
}
