//! Extension beyond the paper: deeper consolidation (3+ applications).
//!
//! The paper evaluates two-application mixes, where the twelve-core
//! server can always give both applications their six-core maximum. With
//! three applications the *direct* core budget becomes a joint
//! constraint alongside the indirect power budget, and the allocator
//! runs its `(watts, cores)` dynamic program
//! ([`powermed_core::allocator::PowerAllocator::apportion_with_cores`]).
//!
//! The experiment: three-application groups under the 100 W and 120 W
//! caps, policy comparison, plus the per-app core assignment the joint
//! program chose.

use powermed_core::coordinator::Schedule;
use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_esd::NoEsd;
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::{Seconds, Watts};
use powermed_workloads::catalog;
use powermed_workloads::profile::AppProfile;

use crate::support::{heading, par_map, pct, DT};

/// The three-application groups evaluated.
pub fn groups() -> Vec<(&'static str, Vec<AppProfile>)> {
    vec![
        (
            "trio-1 (stream + kmeans + x264)",
            vec![catalog::stream(), catalog::kmeans(), catalog::x264()],
        ),
        (
            "trio-2 (bfs + pagerank + ferret)",
            vec![catalog::bfs(), catalog::pagerank(), catalog::ferret()],
        ),
        (
            "trio-3 (sssp + apr + facesim)",
            vec![catalog::sssp(), catalog::apr(), catalog::facesim()],
        ),
    ]
}

/// Outcome of one trio run.
#[derive(Debug, Clone)]
pub struct TrioOutcome {
    /// Group label.
    pub label: &'static str,
    /// The cap.
    pub cap: Watts,
    /// The policy.
    pub kind: PolicyKind,
    /// Per-app normalized throughput.
    pub per_app: Vec<(String, f64)>,
    /// Mean normalized throughput.
    pub mean: f64,
    /// Per-app core counts under the final schedule (spatial modes).
    pub cores: Vec<(String, usize)>,
    /// Cap-violation fraction.
    pub violations: f64,
}

/// Runs one trio under one policy at one cap.
pub fn run_trio(
    label: &'static str,
    apps: &[AppProfile],
    kind: PolicyKind,
    cap: Watts,
) -> TrioOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let duration = Seconds::new(20.0);
    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
    let mut med = PowerMediator::new(kind, spec.clone(), cap);
    for app in apps {
        med.admit(&mut sim, app.clone()).expect("trio fits");
    }
    med.run_for(&mut sim, duration, DT);
    let per_app: Vec<(String, f64)> = apps
        .iter()
        .map(|a| {
            let norm = sim.ops_done(a.name()) / (a.uncapped(&spec).throughput * duration.value());
            (a.name().to_string(), norm)
        })
        .collect();
    let mean = per_app.iter().map(|(_, v)| v).sum::<f64>() / per_app.len() as f64;
    let cores = match med.schedule() {
        Schedule::Space { settings } | Schedule::EsdCycle { settings, .. } => settings
            .iter()
            .filter_map(|(n, idx)| Some((n.clone(), spec.knob_grid().get(*idx)?.cores())))
            .collect(),
        _ => Vec::new(),
    };
    TrioOutcome {
        label,
        cap,
        kind,
        per_app,
        mean,
        cores,
        violations: sim.meter().compliance().violation_fraction(),
    }
}

/// Runs the full extension sweep, one `(group, cap, policy)` cell per
/// worker-pool task, in the same order as the serial nesting.
pub fn run() -> Vec<TrioOutcome> {
    let mut cells = Vec::new();
    for (label, apps) in groups() {
        for cap in [100.0, 120.0] {
            for kind in [PolicyKind::UtilUnaware, PolicyKind::AppResAware] {
                cells.push((label, apps.clone(), kind, cap));
            }
        }
    }
    par_map(cells, |(label, apps, kind, cap)| {
        run_trio(label, &apps, kind, Watts::new(cap))
    })
}

/// Prints the extension experiment.
pub fn print() {
    heading("Extension: three-application consolidation (joint watts x cores DP)");
    let rows = run();
    println!(
        "{:<34} {:>6} {:<18} {:>10} {:>11}  cores",
        "group", "cap", "policy", "mean", "violations"
    );
    for r in &rows {
        let cores = r
            .cores
            .iter()
            .map(|(n, c)| format!("{n}:{c}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<34} {:>5.0}W {:<18} {:>10} {:>10.2}%  {}",
            r.label,
            r.cap.value(),
            r.kind.name(),
            pct(r.mean),
            r.violations * 100.0,
            cores
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
    fn three_apps_fit_cores_and_cap() {
        for (label, apps) in groups() {
            let out = run_trio(label, &apps, PolicyKind::AppResAware, Watts::new(120.0));
            // Joint core budget respected when spatial.
            let total: usize = out.cores.iter().map(|(_, c)| c).sum();
            assert!(total <= 12, "{label}: {total} cores");
            // Everyone runs.
            for (name, norm) in &out.per_app {
                assert!(*norm > 0.1, "{label}: {name} starved ({norm})");
            }
            assert!(out.violations < 0.02, "{label}: {}", out.violations);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn utility_awareness_helps_trios_too() {
        let (label, apps) = &groups()[0];
        let baseline = run_trio(label, apps, PolicyKind::UtilUnaware, Watts::new(100.0));
        let ours = run_trio(label, apps, PolicyKind::AppResAware, Watts::new(100.0));
        assert!(
            ours.mean > baseline.mean,
            "{label}: ours {:.3} vs baseline {:.3}",
            ours.mean,
            baseline.mean
        );
    }
}
