//! Fig. 4: coordinating power use between applications in space vs time.
//!
//! At a 90 W cap two co-located applications can both run if they scale
//! down *simultaneously* (coordination in space, Fig. 4a). At 80 W the
//! dynamic budget cannot host both at once, so they alternate
//! (coordination in time, Fig. 4b) — each coming on while the other is
//! off, with the server staying at the cap throughout.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_server::server::AppRunState;
use powermed_server::ServerSpec;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes;

use crate::support::{heading, make_sim, DT};

/// One sampled instant of the coordination timeline.
#[derive(Debug, Clone)]
pub struct TimelinePoint {
    /// Simulation time.
    pub at: Seconds,
    /// Server gross power.
    pub power: Watts,
    /// Which applications were running (by name).
    pub running: Vec<String>,
}

/// A coordination timeline at one cap.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// The cap in force.
    pub cap: Watts,
    /// One point per second.
    pub points: Vec<TimelinePoint>,
}

/// Runs the space (90 W) and time (80 W) coordination scenarios on
/// mix-1 (STREAM + kmeans) and returns both timelines.
pub fn run() -> (Timeline, Timeline) {
    (timeline(Watts::new(90.0)), timeline(Watts::new(80.0)))
}

fn timeline(cap: Watts) -> Timeline {
    let spec = ServerSpec::xeon_e5_2620();
    let mix = mixes::mix(1).expect("mix 1 exists");
    let mut sim = make_sim(&spec, false);
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), cap);
    for app in mix.apps() {
        med.admit(&mut sim, app.clone()).expect("mix fits");
    }
    let mut points = Vec::new();
    let steps_per_sample = (1.0 / DT.value()).round() as usize;
    for i in 0..20 {
        let mut last_power = Watts::ZERO;
        for _ in 0..steps_per_sample {
            last_power = med.step(&mut sim, DT).gross_power;
        }
        let running = sim
            .app_names()
            .iter()
            .filter(|n| {
                sim.server()
                    .assignment(n)
                    .map(|a| a.run_state() == AppRunState::Running)
                    .unwrap_or(false)
            })
            .cloned()
            .collect();
        points.push(TimelinePoint {
            at: Seconds::new((i + 1) as f64),
            power: last_power,
            running,
        });
    }
    Timeline { cap, points }
}

/// Prints both timelines.
pub fn print() {
    let (space, time) = run();
    for (label, tl) in [("(a) space", &space), ("(b) time", &time)] {
        heading(&format!(
            "Fig. 4{label} coordination at P_cap = {:.0}",
            tl.cap
        ));
        println!("{:>6} {:>10} running", "t", "power");
        for p in &tl.points {
            println!(
                "{:>5.0}s {:>9.1}W {}",
                p.at.value(),
                p.power.value(),
                p.running.join("+")
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_runs_both_time_alternates() {
        let (space, time) = run();
        // 90 W: both run simultaneously at every sample.
        assert!(space.points.iter().all(|p| p.running.len() == 2));
        // 80 W: never both at once, but each app gets turns.
        assert!(time.points.iter().all(|p| p.running.len() <= 1));
        let stream_ran = time
            .points
            .iter()
            .any(|p| p.running.contains(&"stream".to_string()));
        let kmeans_ran = time
            .points
            .iter()
            .any(|p| p.running.contains(&"kmeans".to_string()));
        assert!(stream_ran && kmeans_ran, "both apps take turns");
    }

    #[test]
    fn power_stays_near_cap() {
        let (space, time) = run();
        for p in &space.points {
            assert!(p.power.value() <= 90.0 + 1.0, "space: {p:?}");
        }
        for p in &time.points {
            assert!(p.power.value() <= 80.0 + 1.0, "time: {p:?}");
        }
    }
}
