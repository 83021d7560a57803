//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **ESD device** — how much of the R4 benefit survives Lead-Acid
//!   chemistry (η = 0.75, rate limits) versus an ideal lossless store,
//!   versus no storage at all;
//! * **Allocation granularity** — the DP's integer-watt step against
//!   coarser 2 W and 5 W grids (planning quality vs work);
//! * **Duty-cycle period** — the coordinator's nominal cycle length
//!   under temporal schedules.

use powermed_core::allocator::PowerAllocator;
use powermed_core::coordinator::{EsdParams, Schedule};
use powermed_core::measurement::AppMeasurement;
use powermed_core::policy::{PolicyKind, PowerPolicy};
use powermed_core::runtime::PowerMediator;
use powermed_esd::{EnergyStorage, IdealEsd, LeadAcidBattery, NoEsd};
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::{Joules, Ratio, Seconds, Watts};
use powermed_workloads::mixes;

use crate::support::{heading, measure, par_map, pct, DT};

/// One ESD-ablation data point.
#[derive(Debug, Clone)]
pub struct EsdPoint {
    /// Device label.
    pub device: &'static str,
    /// Server cap.
    pub cap: Watts,
    /// Mean normalized throughput over the run.
    pub mean_normalized: f64,
}

/// The storage devices of the sweep, in presentation order. Device
/// construction happens inside each worker task (a boxed factory
/// closure would not be `Sync`), keyed by this label.
const DEVICES: [&str; 3] = ["none", "lead-acid", "ideal"];

fn build_device(label: &str) -> Box<dyn EnergyStorage> {
    match label {
        "none" => Box::new(NoEsd),
        "lead-acid" => Box::new(LeadAcidBattery::server_ups().with_soc(0.3)),
        "ideal" => {
            Box::new(IdealEsd::new(Joules::new(50.0 * 3600.0), Watts::new(100.0)).with_soc(0.3))
        }
        other => unreachable!("unknown device label {other}"),
    }
}

/// Sweeps the storage device at the paper's two stringent caps, one
/// `(cap, device)` cell per worker-pool task.
pub fn esd_device_sweep() -> Vec<EsdPoint> {
    let spec = ServerSpec::xeon_e5_2620();
    let mix = mixes::mix(1).expect("mix 1");
    let duration = Seconds::new(60.0);
    let cells: Vec<(f64, &'static str)> = [80.0, 70.0]
        .into_iter()
        .flat_map(|cap_w| DEVICES.iter().map(move |&d| (cap_w, d)))
        .collect();
    par_map(cells, |(cap_w, device)| {
        let mut sim = ServerSim::new(spec.clone(), build_device(device));
        let mut med =
            PowerMediator::new(PolicyKind::AppResEsdAware, spec.clone(), Watts::new(cap_w));
        for app in mix.apps() {
            med.admit(&mut sim, app.clone()).expect("mix fits");
        }
        med.run_for(&mut sim, duration, DT);
        let mean = mix
            .apps()
            .iter()
            .map(|a| sim.ops_done(a.name()) / (a.uncapped(&spec).throughput * duration.value()))
            .sum::<f64>()
            / 2.0;
        EsdPoint {
            device,
            cap: Watts::new(cap_w),
            mean_normalized: mean,
        }
    })
}

/// One allocation-granularity data point.
#[derive(Debug, Clone)]
pub struct StepPoint {
    /// DP budget step in watts.
    pub step: f64,
    /// Mean objective over the 15 mixes at a 30 W budget.
    pub mean_objective: f64,
}

/// Sweeps the DP budget granularity.
pub fn dp_step_sweep() -> Vec<StepPoint> {
    let spec = ServerSpec::xeon_e5_2620();
    let measurements: Vec<(AppMeasurement, AppMeasurement)> = mixes::table2()
        .into_iter()
        .map(|mix| (measure(&spec, &mix.app1), measure(&spec, &mix.app2)))
        .collect();
    [1.0, 2.0, 5.0]
        .into_iter()
        .map(|step| {
            let alloc = PowerAllocator::new(Watts::new(step));
            let total: f64 = measurements
                .iter()
                .map(|(a, b)| {
                    alloc
                        .apportion(&[(a, None), (b, None)], Watts::new(30.0))
                        .objective
                })
                .sum();
            StepPoint {
                step,
                mean_objective: total / measurements.len() as f64,
            }
        })
        .collect()
}

/// One duty-cycle-period data point.
#[derive(Debug, Clone)]
pub struct CyclePoint {
    /// Nominal cycle period.
    pub cycle: Seconds,
    /// Eq. 5 OFF fraction at the 80 W cap (period-independent).
    pub off_fraction: f64,
    /// Mean normalized throughput of mix-1 at 80 W with the Lead-Acid
    /// UPS over 120 s.
    pub mean_normalized: f64,
}

/// Sweeps the coordinator's nominal cycle period.
///
/// The Eq. 5 OFF:ON *ratio* is period-independent; what the period
/// changes is how much battery capacity and rate headroom one cycle
/// needs, and how often application caches are flushed.
pub fn cycle_period_sweep() -> Vec<CyclePoint> {
    let spec = ServerSpec::xeon_e5_2620();
    let mix = mixes::mix(1).expect("mix 1");
    let duration = Seconds::new(120.0);
    par_map(vec![2.0, 10.0, 30.0], |period| {
        // The OFF fraction comes from the mediator's own policy at the
        // custom period; the throughput from a mediator running it.
        let a = measure(&spec, &mix.app1);
        let b = measure(&spec, &mix.app2);
        let apps = [(mix.app1.name(), &a), (mix.app2.name(), &b)];
        let esd = EsdParams {
            efficiency: Ratio::new(0.75),
            max_discharge: Watts::new(100.0),
            max_charge: Watts::new(50.0),
        };
        let schedule = PowerPolicy::new(PolicyKind::AppResEsdAware, spec.clone())
            .with_cycle_period(Seconds::new(period))
            .plan(&apps, Watts::new(80.0), Some(esd));
        let off_fraction = match &schedule {
            Schedule::EsdCycle { off, on, .. } => *off / (*off + *on),
            _ => 0.0,
        };

        // Drive the schedule directly against a simulator.
        let mut sim = ServerSim::new(
            spec.clone(),
            Box::new(LeadAcidBattery::server_ups().with_soc(0.3)),
        );
        let mut med =
            PowerMediator::new(PolicyKind::AppResEsdAware, spec.clone(), Watts::new(80.0))
                .with_cycle_period(Seconds::new(period));
        for app in mix.apps() {
            med.admit(&mut sim, app.clone()).expect("mix fits");
        }
        med.run_for(&mut sim, duration, DT);
        let mean = mix
            .apps()
            .iter()
            .map(|ap| sim.ops_done(ap.name()) / (ap.uncapped(&spec).throughput * duration.value()))
            .sum::<f64>()
            / 2.0;
        CyclePoint {
            cycle: Seconds::new(period),
            off_fraction,
            mean_normalized: mean,
        }
    })
}

/// Prints all ablations.
pub fn print() {
    heading("Ablation: storage device (mix-1, App+Res+ESD-Aware)");
    println!("{:<12} {:>7} {:>12}", "device", "cap", "throughput");
    for p in esd_device_sweep() {
        println!(
            "{:<12} {:>6.0}W {:>12}",
            p.device,
            p.cap.value(),
            pct(p.mean_normalized)
        );
    }

    heading("Ablation: DP allocation granularity (15 mixes, 30 W budget)");
    println!("{:<8} {:>15}", "step", "mean objective");
    for p in dp_step_sweep() {
        println!("{:>5.0} W {:>15.4}", p.step, p.mean_objective);
    }

    heading("Ablation: duty-cycle period (mix-1 at 80 W, Lead-Acid)");
    println!(
        "{:<8} {:>13} {:>12}",
        "period", "off fraction", "throughput"
    );
    for p in cycle_period_sweep() {
        println!(
            "{:>6.0}s {:>13} {:>12}",
            p.cycle.value(),
            pct(p.off_fraction),
            pct(p.mean_normalized)
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
    fn storage_hierarchy_none_lead_ideal() {
        let points = esd_device_sweep();
        for cap in [80.0, 70.0] {
            let get = |d: &str| {
                points
                    .iter()
                    .find(|p| p.device == d && p.cap.value() == cap)
                    .unwrap()
                    .mean_normalized
            };
            assert!(
                get("lead-acid") > get("none"),
                "cap {cap}: battery must beat no storage"
            );
            assert!(
                get("ideal") >= get("lead-acid") - 0.02,
                "cap {cap}: ideal store at least matches lead-acid"
            );
        }
    }

    #[test]
    fn finer_dp_steps_never_hurt() {
        let points = dp_step_sweep();
        assert!(points[0].mean_objective >= points[1].mean_objective - 1e-9);
        assert!(points[1].mean_objective >= points[2].mean_objective - 1e-9);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn off_fraction_is_period_independent() {
        let points = cycle_period_sweep();
        let f0 = points[0].off_fraction;
        for p in &points {
            assert!((p.off_fraction - f0).abs() < 1e-9, "{points:?}");
            assert!(p.mean_normalized > 0.1);
        }
    }
}
