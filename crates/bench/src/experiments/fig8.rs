//! Fig. 8: power management at `P_cap` = 100 W.
//!
//! All 15 Table II mixes under the four spatial policies. The paper's
//! observations to reproduce: App-Aware gains ~10% over both
//! utility-unaware baselines, App+Res-Aware another ~10%; the average
//! App+Res split is ~46–54 rather than 50–50.

use powermed_core::policy::PolicyKind;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};

use crate::support::{heading, par_map, pct, simulate_mix, MixOutcome};

/// The four policies of Fig. 8a, in presentation order.
pub const POLICIES: [PolicyKind; 4] = [
    PolicyKind::UtilUnaware,
    PolicyKind::ServerResAware,
    PolicyKind::AppAware,
    PolicyKind::AppResAware,
];

/// The cap for this experiment.
pub const CAP: Watts = Watts::new(100.0);

/// Simulated duration per mix and policy.
const DURATION: Seconds = Seconds::new(20.0);

/// Results for one mix: outcomes per policy, in [`POLICIES`] order.
#[derive(Debug, Clone)]
pub struct MixRow {
    /// The mix evaluated.
    pub mix: Mix,
    /// One outcome per policy.
    pub outcomes: Vec<MixOutcome>,
}

/// Runs all 15 mixes × 4 policies, fanning the mixes across the
/// worker pool. Each cell is an independent simulation, so the result
/// is identical to [`run_serial`] — `par_map` keeps input order and
/// the per-cell computation is deterministic.
pub fn run() -> Vec<MixRow> {
    par_map(mixes::table2(), |mix| {
        let outcomes = POLICIES
            .iter()
            .map(|&kind| simulate_mix(kind, &mix, CAP, false, DURATION))
            .collect();
        MixRow { mix, outcomes }
    })
}

/// Serial reference implementation of [`run`], kept for equivalence
/// testing and for profiling single-threaded cost.
pub fn run_serial() -> Vec<MixRow> {
    mixes::table2()
        .into_iter()
        .map(|mix| {
            let outcomes = POLICIES
                .iter()
                .map(|&kind| simulate_mix(kind, &mix, CAP, false, DURATION))
                .collect();
            MixRow { mix, outcomes }
        })
        .collect()
}

/// Mean normalized throughput per policy across the rows.
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

/// Mean App+Res-Aware power split across mixes, as (low, high) shares.
pub fn mean_split(rows: &[MixRow]) -> (f64, f64) {
    let mut lows = Vec::new();
    for r in rows {
        if let Some((a, b)) = r.outcomes[3].power_split {
            lows.push(a.min(b));
        }
    }
    let low = lows.iter().sum::<f64>() / lows.len().max(1) as f64;
    (low, 1.0 - low)
}

/// Prints Figs. 8a–8c.
pub fn print() {
    let rows = run();

    heading("Fig. 8a: normalized server throughput at P_cap = 100 W");
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

    heading("Fig. 8b: App+Res-Aware power split across applications");
    for r in &rows {
        if let Some((a, b)) = r.outcomes[3].power_split {
            println!(
                "{:<28} {}:{}  =  {:.0}%-{:.0}%",
                r.mix.label(),
                r.mix.app1.name(),
                r.mix.app2.name(),
                a * 100.0,
                b * 100.0
            );
        }
    }
    let (lo, hi) = mean_split(&rows);
    println!(
        "average split {:.0}%-{:.0}% (paper: 46%-54%)",
        lo * 100.0,
        hi * 100.0
    );

    heading("Fig. 8c: App+Res-Aware per-application speedup over Util-Unaware");
    for r in &rows {
        for (i, (name, ours)) in r.outcomes[3].per_app.iter().enumerate() {
            let baseline = r.outcomes[0].per_app[i].1.max(1e-9);
            println!(
                "{:<28} {:<12} {:>7.2}x",
                r.mix.label(),
                name,
                ours / baseline
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_on_subset() {
        // Two mixes at a short horizon keep this fast enough to run
        // unignored; the full-grid check is the ignored test below.
        let subset: Vec<Mix> = mixes::table2().into_iter().take(2).collect();
        let dur = Seconds::new(2.0);
        let serial: Vec<MixOutcome> = subset
            .iter()
            .map(|m| simulate_mix(PolicyKind::AppResAware, m, CAP, false, dur))
            .collect();
        let parallel = par_map(subset, |m| {
            simulate_mix(PolicyKind::AppResAware, &m, CAP, false, dur)
        });
        assert_eq!(serial, parallel);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn parallel_run_matches_serial_run() {
        let parallel = run();
        let serial = run_serial();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.mix.label(), s.mix.label());
            assert_eq!(p.outcomes, s.outcomes);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn hierarchy_matches_paper() {
        let rows = run();
        let means = policy_means(&rows);
        let get = |k: PolicyKind| means.iter().find(|(p, _)| *p == k).unwrap().1;
        let uu = get(PolicyKind::UtilUnaware);
        let aa = get(PolicyKind::AppAware);
        let ar = get(PolicyKind::AppResAware);
        assert!(
            aa > uu,
            "App-Aware {aa:.3} should beat Util-Unaware {uu:.3}"
        );
        assert!(ar > aa, "App+Res {ar:.3} should beat App-Aware {aa:.3}");
        assert!(
            ar > uu * 1.08,
            "full awareness should be clearly ahead: {ar:.3} vs {uu:.3}"
        );
        let (lo, _) = mean_split(&rows);
        assert!(lo < 0.5, "splits should be unequal on average: {lo:.3}");
    }
}
