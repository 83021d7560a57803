//! Fig. 5: addressing the non-convexity of `P_cm` with energy storage.
//!
//! At a 70 W cap the dynamic budget is negative — nothing can run without
//! storage. With an ESD the server banks `P_cap − P_idle` while idle and
//! spends it to run above the cap. Two ways to spend it:
//!
//! * **(a) alternate duty cycling** — one application at a time, each at
//!   full tilt, paying `P_cm` for the entire ON time;
//! * **(b) consolidated duty cycling** — both applications together,
//!   paying `P_cm` once and amortizing it.
//!
//! Consolidation sustains ~30% more per-application execution inside the
//! same wall-clock window, exactly the paper's argument.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_esd::IdealEsd;
use powermed_server::{KnobSetting, ServerSpec};
use powermed_sim::engine::{EsdCommand, ServerSim};
use powermed_units::{Joules, Seconds, Watts};
use powermed_workloads::mixes;

use crate::support::{heading, DT};

/// Result of one duty-cycling strategy over the measurement window.
#[derive(Debug, Clone)]
pub struct CyclingOutcome {
    /// Strategy label.
    pub label: &'static str,
    /// Per-application useful execution time within the window.
    pub exec_seconds: Vec<(String, f64)>,
    /// Per-application work completed (ops).
    pub ops: Vec<(String, f64)>,
}

const CAP: Watts = Watts::new(70.0);
const WINDOW: Seconds = Seconds::new(120.0);

fn fresh_sim(spec: &ServerSpec) -> ServerSim {
    // An ideal ESD isolates the consolidation effect from battery
    // chemistry (the paper's Fig. 5 walkthrough is also loss-free).
    ServerSim::new(
        spec.clone(),
        Box::new(IdealEsd::new(Joules::new(2000.0), Watts::new(100.0))),
    )
}

/// Runs the alternate strategy by hand: charge until a bank threshold,
/// then run one app at a time (supplemented from the ESD), switching
/// apps every discharge phase.
fn run_alternate(spec: &ServerSpec) -> CyclingOutcome {
    let mix = mixes::mix(1).expect("mix 1");
    let mut sim = fresh_sim(spec);
    let knob = KnobSetting::max_for(spec);
    for app in mix.apps() {
        sim.host(app.clone(), knob).expect("hosts");
        sim.suspend_app(app.name()).expect("suspend");
    }
    sim.set_cap(Some(CAP));

    let names: Vec<String> = mix.apps().iter().map(|a| a.name().to_string()).collect();
    let bank_target = Joules::new(400.0);
    let mut exec = vec![0.0f64; 2];
    let mut turn = 0usize;
    let mut charging = true;
    sim.set_esd_command(EsdCommand::Charge(Watts::new(100.0)));

    let steps = (WINDOW.value() / DT.value()).round() as u64;
    for _ in 0..steps {
        if charging && sim.esd().stored() >= bank_target {
            charging = false;
            let _ = sim.resume_app(&names[turn]);
            sim.set_esd_command(EsdCommand::DischargeToCap);
        } else if !charging && sim.esd().stored().value() <= 10.0 {
            charging = true;
            let _ = sim.suspend_app(&names[turn]);
            turn = (turn + 1) % 2;
            sim.set_esd_command(EsdCommand::Charge(Watts::new(100.0)));
        }
        let report = sim.step(DT);
        if !charging && report.esd_discharge.value() > 0.0 {
            exec[turn] += DT.value();
        }
    }

    CyclingOutcome {
        label: "(a) alternate duty cycling",
        exec_seconds: names.iter().cloned().zip(exec).collect(),
        ops: names.iter().map(|n| (n.clone(), sim.ops_done(n))).collect(),
    }
}

/// Runs the consolidated strategy through the mediator's Eq. 5 cycle.
fn run_consolidated(spec: &ServerSpec) -> CyclingOutcome {
    let mix = mixes::mix(1).expect("mix 1");
    let mut sim = fresh_sim(spec);
    let mut med = PowerMediator::new(PolicyKind::AppResEsdAware, spec.clone(), CAP);
    for app in mix.apps() {
        med.admit(&mut sim, app.clone()).expect("mix fits");
    }
    let names: Vec<String> = mix.apps().iter().map(|a| a.name().to_string()).collect();
    let mut exec = vec![0.0f64; 2];
    let steps = (WINDOW.value() / DT.value()).round() as u64;
    for _ in 0..steps {
        med.step(&mut sim, DT);
        for (i, n) in names.iter().enumerate() {
            if sim.app_power(n).is_some_and(|p| p.value() > 0.1) {
                exec[i] += DT.value();
            }
        }
    }
    CyclingOutcome {
        label: "(b) consolidated duty cycling",
        exec_seconds: names.iter().cloned().zip(exec).collect(),
        ops: names.iter().map(|n| (n.clone(), sim.ops_done(n))).collect(),
    }
}

/// Runs both strategies over the same window.
pub fn run() -> (CyclingOutcome, CyclingOutcome) {
    let spec = ServerSpec::xeon_e5_2620();
    (run_alternate(&spec), run_consolidated(&spec))
}

/// Total work across both apps for an outcome.
pub fn total_ops(outcome: &CyclingOutcome) -> f64 {
    outcome.ops.iter().map(|(_, o)| o).sum()
}

/// Prints the comparison.
pub fn print() {
    heading("Fig. 5: ESD duty cycling at P_cap = 70 W over a 120 s window");
    let (alt, cons) = run();
    for outcome in [&alt, &cons] {
        println!("{}:", outcome.label);
        for ((name, secs), (_, ops)) in outcome.exec_seconds.iter().zip(&outcome.ops) {
            println!("  {name:<10} exec {secs:>6.1} s   work {ops:>10.0} ops");
        }
    }
    let gain = total_ops(&cons) / total_ops(&alt).max(1e-9);
    println!("consolidated/alternate total work: {gain:.2}x (paper: ~1.3x from P_cm amortization)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consolidation_amortizes_p_cm() {
        let (alt, cons) = run();
        let gain = total_ops(&cons) / total_ops(&alt);
        assert!(
            gain > 1.1,
            "consolidated should beat alternate by >10%, got {gain:.3}"
        );
        // Both apps actually executed under both strategies.
        for outcome in [&alt, &cons] {
            for (name, secs) in &outcome.exec_seconds {
                assert!(*secs > 5.0, "{}: {name} ran {secs}s", outcome.label);
            }
        }
    }
}
