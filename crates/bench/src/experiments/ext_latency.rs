//! Extension beyond the paper: latency-critical co-location.
//!
//! The paper's footnote 1 says all four requirements extend to
//! latency-critical applications; this experiment demonstrates it. An
//! X264 streaming encoder with a throughput SLO (a latency proxy —
//! dropping below the target rate means missed frame deadlines) shares
//! the server with a batch graph job across a cap sweep:
//!
//! * **SLO-aware** — the mediator guarantees X264 its SLO budget first
//!   and never duty-cycles it; BFS absorbs the whole shortfall;
//! * **SLO-blind** — the plain `App+Res-Aware` policy maximizes the sum
//!   and happily trades X264's rate away.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_esd::NoEsd;
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::{Seconds, Watts};
use powermed_workloads::catalog;

use crate::support::{heading, pct, DT};

/// The latency-critical app's SLO (fraction of uncapped throughput).
pub const SLO: f64 = 0.80;

/// Caps swept.
pub const CAPS: [f64; 4] = [110.0, 100.0, 95.0, 90.0];

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SloPoint {
    /// The server cap.
    pub cap: Watts,
    /// Whether the SLO-aware planner was used.
    pub slo_aware: bool,
    /// X264's achieved normalized throughput.
    pub lc_normalized: f64,
    /// BFS's achieved normalized throughput.
    pub batch_normalized: f64,
    /// Whether the SLO held over the whole run.
    pub slo_met: bool,
}

fn run_point(cap: Watts, slo_aware: bool) -> SloPoint {
    let spec = ServerSpec::xeon_e5_2620();
    let duration = Seconds::new(20.0);
    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), cap);
    if slo_aware {
        med = med.with_slo_awareness();
    }
    let lc = catalog::x264().with_slo(SLO);
    let batch = catalog::bfs();
    med.admit(&mut sim, lc.clone()).expect("x264 fits");
    med.admit(&mut sim, batch.clone()).expect("bfs fits");
    med.run_for(&mut sim, duration, DT);
    let norm = |p: &powermed_workloads::AppProfile| {
        sim.ops_done(p.name()) / (p.uncapped(&spec).throughput * duration.value())
    };
    let lc_normalized = norm(&lc);
    SloPoint {
        cap,
        slo_aware,
        lc_normalized,
        batch_normalized: norm(&batch),
        slo_met: lc_normalized + 1e-3 >= SLO,
    }
}

/// Runs the sweep for both planners.
pub fn run() -> Vec<SloPoint> {
    let mut out = Vec::new();
    for cap in CAPS {
        for slo_aware in [false, true] {
            out.push(run_point(Watts::new(cap), slo_aware));
        }
    }
    out
}

/// Prints the comparison.
pub fn print() {
    heading(&format!(
        "Extension: latency-critical co-location (x264 SLO = {}, bfs batch)",
        pct(SLO)
    ));
    println!(
        "{:>7} {:<11} {:>10} {:>10} {:>8}",
        "cap", "planner", "x264", "bfs", "SLO"
    );
    for p in run() {
        println!(
            "{:>6.0}W {:<11} {:>10} {:>10} {:>8}",
            p.cap.value(),
            if p.slo_aware {
                "slo-aware"
            } else {
                "slo-blind"
            },
            pct(p.lc_normalized),
            pct(p.batch_normalized),
            if p.slo_met { "met" } else { "MISSED" }
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
    fn slo_aware_holds_the_line_where_blind_does_not() {
        let points = run();
        // The SLO-aware planner meets the SLO at every cap in the sweep.
        for p in points.iter().filter(|p| p.slo_aware) {
            assert!(
                p.slo_met,
                "slo-aware missed at {:.0}: x264 {:.3}",
                p.cap.value(),
                p.lc_normalized
            );
        }
        // The blind planner gives x264 less than the aware one at the
        // tightest cap (it trades the SLO for batch throughput).
        let tight_blind = points
            .iter()
            .find(|p| !p.slo_aware && p.cap.value() == 90.0)
            .unwrap();
        let tight_aware = points
            .iter()
            .find(|p| p.slo_aware && p.cap.value() == 90.0)
            .unwrap();
        assert!(
            tight_aware.lc_normalized > tight_blind.lc_normalized + 0.02,
            "aware {:.3} vs blind {:.3}",
            tight_aware.lc_normalized,
            tight_blind.lc_normalized
        );
        // And the batch app pays for it.
        assert!(tight_aware.batch_normalized < tight_blind.batch_normalized);
    }
}
