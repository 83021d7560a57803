//! Shared helpers for the experiment harness.

use powermed_core::cache::MeasurementCache;
use powermed_core::measurement::AppMeasurement;
use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_esd::{EnergyStorage, LeadAcidBattery, NoEsd};
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::Mix;
use powermed_workloads::profile::AppProfile;

/// Simulation step used by every experiment (the paper's runtime operates
/// at sub-second granularity).
pub const DT: Seconds = Seconds::new(0.1);

/// Outcome of simulating one mix under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// `(app name, throughput normalized to uncapped solo-rate)` pairs.
    pub per_app: Vec<(String, f64)>,
    /// Mean of the per-app normalized throughputs (the figure bars).
    pub mean_normalized: f64,
    /// Fraction of time the net draw exceeded the cap.
    pub violation_fraction: f64,
    /// Fraction of each app's power budget under the final allocation
    /// (Fig. 8b), when the schedule assigns simultaneous settings.
    pub power_split: Option<(f64, f64)>,
}

/// Builds the `NoEsd` or charged-Lead-Acid simulator for an experiment.
pub fn make_sim(spec: &ServerSpec, with_battery: bool) -> ServerSim {
    let esd: Box<dyn EnergyStorage> = if with_battery {
        Box::new(LeadAcidBattery::server_ups().with_soc(0.3))
    } else {
        Box::new(NoEsd)
    };
    ServerSim::new(spec.clone(), esd)
}

/// Simulates `mix` under `kind` at `cap` for `duration`, returning the
/// normalized-throughput outcome.
pub fn simulate_mix(
    kind: PolicyKind,
    mix: &Mix,
    cap: Watts,
    with_battery: bool,
    duration: Seconds,
) -> MixOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, with_battery);
    let mut mediator = PowerMediator::new(kind, spec.clone(), cap);
    for app in mix.apps() {
        mediator
            .admit(&mut sim, app.clone())
            .expect("mix fits on the server");
    }
    let steps = (duration.value() / DT.value()).round() as u64;
    for _ in 0..steps {
        mediator.step(&mut sim, DT);
    }
    let simulated = DT.value() * steps as f64;

    let mut per_app = Vec::new();
    for app in mix.apps() {
        let rate = app.uncapped(&spec).throughput;
        let done = sim.ops_done(app.name());
        per_app.push((app.name().to_string(), done / (rate * simulated)));
    }
    let mean = per_app.iter().map(|(_, v)| v).sum::<f64>() / per_app.len() as f64;

    // Extract the power split from the final schedule, when spatial.
    let power_split = match mediator.schedule() {
        powermed_core::coordinator::Schedule::Space { settings }
        | powermed_core::coordinator::Schedule::EsdCycle { settings, .. } => {
            let powers: Vec<f64> = mix
                .apps()
                .iter()
                .filter_map(|a| {
                    let idx = settings.get(a.name())?;
                    let m = mediator.measurement(a.name())?;
                    Some(m.power(*idx).value())
                })
                .collect();
            if powers.len() == 2 && powers[0] + powers[1] > 0.0 {
                let total = powers[0] + powers[1];
                Some((powers[0] / total, powers[1] / total))
            } else {
                None
            }
        }
        _ => None,
    };

    MixOutcome {
        per_app,
        mean_normalized: mean,
        violation_fraction: sim.meter().compliance().violation_fraction(),
        power_split,
    }
}

/// Ground-truth utility surface for `profile` on the reference platform.
///
/// Served from the process-wide [`MeasurementCache`], so repeated
/// requests for the same `(spec, profile)` pair across experiments
/// share one exhaustive evaluation pass.
pub fn measure(spec: &ServerSpec, profile: &AppProfile) -> AppMeasurement {
    (*MeasurementCache::global().measure(spec, profile)).clone()
}

/// Formats a normalized value as a percent string (`0.873` → `"87.3%"`).
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Prints a horizontal rule with a title.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Maps `f` over `items` on a small scoped worker pool, returning the
/// results in input order.
///
/// Each worker claims the next unstarted item through an atomic cursor
/// and writes the result into that item's slot, so the output order is
/// deterministic regardless of scheduling. Falls back to a plain serial
/// map for zero or one items or when only one hardware thread is
/// available. Panics in `f` propagate (the scope joins all workers
/// first).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
        .min(8);
    if n <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = tasks[i]
                    .lock()
                    .expect("task slot lock")
                    .take()
                    .expect("each task is claimed exactly once");
                let out = f(item);
                *results[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::mixes;

    #[test]
    fn simulate_mix_smoke() {
        let mix = mixes::mix(10).unwrap();
        let out = simulate_mix(
            PolicyKind::AppResAware,
            &mix,
            Watts::new(100.0),
            false,
            Seconds::new(5.0),
        );
        assert_eq!(out.per_app.len(), 2);
        assert!(out.mean_normalized > 0.3, "{out:?}");
        assert!(out.mean_normalized <= 1.05);
        assert!(out.violation_fraction < 0.05);
        assert!(out.power_split.is_some());
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.873), "87.3%");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let expected: Vec<i64> = (0..100).map(|i| i * i).collect();
        let got = par_map((0..100).collect(), |i: i64| i * i);
        assert_eq!(got, expected);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(par_map(vec![7], |i| i + 1), vec![8]);
    }
}
