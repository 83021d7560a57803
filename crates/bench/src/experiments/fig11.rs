//! Fig. 11: adapting to dynamic application arrivals and departures.
//!
//! * **Arrival (11a, mix-14)**: SSSP runs alone until X264 arrives at
//!   t = 20 s; the Accountant triggers reallocation, SSSP's power drops
//!   and consolidates onto fewer cores, X264 enters at a lower frequency.
//! * **Departure (11b, mix-10)**: PageRank finishes and departs; the
//!   PowerAllocator removes kmeans' cap, letting it re-activate cores
//!   and scale frequencies up.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_server::ServerSpec;
use powermed_units::{Seconds, Watts};
use powermed_workloads::catalog;

use crate::support::{heading, make_sim, DT};

/// One sampled point of the reallocation timeline.
#[derive(Debug, Clone)]
pub struct PowerPoint {
    /// Simulation time.
    pub at: Seconds,
    /// Per-app `(name, dynamic power, cores, GHz)` snapshots.
    pub apps: Vec<(String, Watts, usize, f64)>,
}

/// A full arrival or departure timeline.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Scenario label.
    pub label: &'static str,
    /// One point per second.
    pub points: Vec<PowerPoint>,
}

const CAP: Watts = Watts::new(100.0);
/// The departure scenario runs at a slightly tighter cap so that the
/// surviving application is visibly capped before the departure (on our
/// calibrated model a 100 W cap already lets kmeans run uncapped).
const DEPARTURE_CAP: Watts = Watts::new(90.0);

/// Runs the arrival scenario (mix-14: SSSP then X264 at t = 20 s).
pub fn run_arrival() -> Timeline {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, false);
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), CAP)
        .with_actuation_latency(Seconds::from_millis(800.0));
    med.admit(&mut sim, catalog::sssp()).expect("sssp fits");
    let mut points = Vec::new();
    sample_loop(&mut sim, &mut med, 0.0, 20.0, &mut points);
    med.admit(&mut sim, catalog::x264()).expect("x264 fits");
    sample_loop(&mut sim, &mut med, 20.0, 40.0, &mut points);
    Timeline {
        label: "Fig. 11a: arrival (mix-14, X264 arrives at t=20 s)",
        points,
    }
}

/// Runs the departure scenario (mix-10: PageRank finishes around
/// t = 20 s).
pub fn run_departure() -> Timeline {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, false);
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), DEPARTURE_CAP);
    // PageRank sized to finish ~20 s into the capped run.
    let finite_pr = catalog::finite(catalog::pagerank(), &spec, Seconds::new(12.0));
    med.admit(&mut sim, finite_pr).expect("pagerank fits");
    med.admit(&mut sim, catalog::kmeans()).expect("kmeans fits");
    let mut points = Vec::new();
    sample_loop(&mut sim, &mut med, 0.0, 40.0, &mut points);
    Timeline {
        label: "Fig. 11b: departure (mix-10, PageRank finishes)",
        points,
    }
}

fn sample_loop(
    sim: &mut powermed_sim::engine::ServerSim,
    med: &mut PowerMediator,
    from: f64,
    to: f64,
    points: &mut Vec<PowerPoint>,
) {
    let spec = sim.server().spec().clone();
    let steps_per_sample = (1.0 / DT.value()).round() as usize;
    let mut t = from;
    while t < to - 1e-9 {
        let mut last_apps = Vec::new();
        for _ in 0..steps_per_sample {
            med.step(sim, DT);
            last_apps = sim
                .app_names()
                .iter()
                .zip(sim.server().assignments())
                .map(|(name, a)| {
                    let power = sim.app_power(name).expect("hosted");
                    let (cores, ghz) = (a.cores().len(), a.knob().frequency(&spec).value());
                    (name.clone(), power, cores, ghz)
                })
                .collect();
        }
        t += 1.0;
        points.push(PowerPoint {
            at: Seconds::new(t),
            apps: last_apps,
        });
    }
}

/// Prints both timelines.
pub fn print() {
    for tl in [run_arrival(), run_departure()] {
        heading(tl.label);
        for p in &tl.points {
            print!("{:>5.0}s", p.at.value());
            for (name, power, cores, ghz) in &p.apps {
                print!("   {name}: {:>5.1} W {cores}c @{ghz:.1}GHz", power.value());
            }
            println!();
        }
    }
}

/// Power of `app` at the timeline point nearest `t`.
#[cfg(test)]
pub fn power_at(tl: &Timeline, app: &str, t: f64) -> Option<f64> {
    tl.points
        .iter()
        .min_by(|a, b| {
            (a.at.value() - t)
                .abs()
                .partial_cmp(&(b.at.value() - t).abs())
                .expect("finite")
        })?
        .apps
        .iter()
        .find(|(n, ..)| n == app)
        .map(|(_, p, ..)| p.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_reallocates_power_away_from_sssp() {
        let tl = run_arrival();
        let before = power_at(&tl, "sssp", 15.0).unwrap();
        let after = power_at(&tl, "sssp", 30.0).unwrap();
        assert!(
            after < before * 0.85,
            "sssp should shed power on arrival: {before:.1} -> {after:.1}"
        );
        assert!(power_at(&tl, "x264", 15.0).is_none());
        assert!(power_at(&tl, "x264", 30.0).unwrap() > 3.0);
    }

    #[test]
    fn departure_releases_power_to_kmeans() {
        let tl = run_departure();
        let during = power_at(&tl, "kmeans", 5.0).unwrap();
        let after = power_at(&tl, "kmeans", 35.0).unwrap();
        assert!(
            after > during * 1.1,
            "kmeans should gain power after departure: {during:.1} -> {after:.1}"
        );
        // PageRank is gone by the end.
        let last = tl.points.last().unwrap();
        assert!(last.apps.iter().all(|(n, ..)| n != "pagerank"));
    }
}
