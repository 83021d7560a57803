//! Shared fleet construction for the cluster tier.
//!
//! Every cluster server is the same per-server stack: a [`ServerSim`]
//! (with or without the Lead-Acid UPS), a [`PowerMediator`] running the
//! policy under test, the Table II mix admitted, and the uncapped solo
//! rates every normalized-throughput report divides by. This module is
//! the single construction path, so node restarts (which rebuild one
//! server from scratch: apps restart, ESD state resets) reuse the exact
//! admission sequence the initial boot used.

use powermed_core::policy::PolicyKind;
use powermed_core::runtime::{PlanBook, PowerMediator};
use powermed_esd::{EnergyStorage, LeadAcidBattery, NoEsd};
use powermed_profiles::ProfileStore;
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::Watts;
use powermed_workloads::{catalog, mixes::Mix};

/// State of charge every cluster server's ESD boots (and reboots) with.
pub const INITIAL_SOC: f64 = 0.5;

/// One server's simulation + mediation stack with its mix admitted.
///
/// # Panics
///
/// Panics if the mix does not fit on the server (the Table II mixes
/// always do).
pub fn build_server(
    spec: &ServerSpec,
    mix: &Mix,
    kind: PolicyKind,
    with_battery: bool,
    cap: Watts,
) -> (ServerSim, PowerMediator) {
    build_server_with(spec, mix, kind, with_battery, cap, None)
}

/// How a warm-start server boots: the knowledge-plane store it consults
/// (possibly restored from a crash-durable snapshot), its fleet-wide
/// server id for digest provenance, and the online sparse-sampling
/// fraction.
#[derive(Debug)]
pub struct WarmBoot {
    /// The store the mediator consults and publishes to; `None` runs
    /// online calibration cold (the baseline the experiment compares).
    pub store: Option<ProfileStore>,
    /// Provenance id stamped on profiles this server measures.
    pub server_id: u64,
    /// Fraction of the knob grid the online calibrator probes.
    pub sampling_fraction: f64,
}

/// [`build_server`], optionally with online calibration and the profile
/// knowledge plane attached. `warm: None` is byte-for-byte the classic
/// exhaustive-calibration boot.
pub fn build_server_with(
    spec: &ServerSpec,
    mix: &Mix,
    kind: PolicyKind,
    with_battery: bool,
    cap: Watts,
    warm: Option<WarmBoot>,
) -> (ServerSim, PowerMediator) {
    build_booked(spec, mix, kind, with_battery, cap, warm, None)
}

/// [`build_server_with`], with the mediator planning through a fleet's
/// shared plan `book` from its admission on; with `None`, through a book
/// of its own.
pub(crate) fn build_booked(
    spec: &ServerSpec,
    mix: &Mix,
    kind: PolicyKind,
    with_battery: bool,
    cap: Watts,
    warm: Option<WarmBoot>,
    book: Option<&PlanBook>,
) -> (ServerSim, PowerMediator) {
    let esd: Box<dyn EnergyStorage> = if with_battery {
        Box::new(LeadAcidBattery::server_ups().with_soc(INITIAL_SOC))
    } else {
        Box::new(NoEsd)
    };
    let mut sim = ServerSim::new(spec.clone(), esd);
    let mut mediator = PowerMediator::new(kind, spec.clone(), cap);
    if let Some(book) = book {
        mediator = mediator.with_plan_book(book.clone());
    }
    if let Some(warm) = warm {
        mediator = mediator.with_online_calibration(&catalog::all(), warm.sampling_fraction);
        if let Some(store) = warm.store {
            mediator = mediator.with_profile_store(store, warm.server_id);
        }
    }
    for app in mix.apps() {
        mediator
            .admit(&mut sim, app.clone())
            .expect("two apps fit on a server");
    }
    (sim, mediator)
}

/// Uncapped solo throughput per app of `mix`, in mix order — the
/// denominators of every normalized-performance report.
pub fn nocap_rates(spec: &ServerSpec, mix: &Mix) -> Vec<(String, f64)> {
    mix.apps()
        .iter()
        .map(|p| (p.name().to_string(), p.uncapped(spec).throughput))
        .collect()
}

/// A built fleet: one sim + mediator per server, plus the per-server
/// uncapped rates.
#[derive(Debug)]
pub struct Fleet {
    /// One simulated server per mix.
    pub sims: Vec<ServerSim>,
    /// The matching mediators (same indexing).
    pub mediators: Vec<PowerMediator>,
    /// `(app name, uncapped solo rate)` pairs per server.
    pub nocap_rates: Vec<Vec<(String, f64)>>,
}

/// SKU-aware fleet construction: server `i` is a `specs[i]` hosting
/// `mixes[i]`. Uncapped solo rates are per-SKU — the same app has a
/// different roofline on an edge box than on a throughput box, and
/// every normalized report divides by the rate of the server actually
/// hosting it.
///
/// # Panics
///
/// Panics unless `specs` and `mixes` have equal length.
pub fn build_fleet_skus(
    specs: &[ServerSpec],
    mixes: &[Mix],
    kind: PolicyKind,
    with_battery: bool,
    initial_cap: Watts,
) -> Fleet {
    assert_eq!(
        specs.len(),
        mixes.len(),
        "one spec per server, one mix per server"
    );
    let mut sims = Vec::with_capacity(mixes.len());
    let mut mediators = Vec::with_capacity(mixes.len());
    let mut rates = Vec::with_capacity(mixes.len());
    for (spec, mix) in specs.iter().zip(mixes) {
        let (sim, mediator) = build_server(spec, mix, kind, with_battery, initial_cap);
        sims.push(sim);
        mediators.push(mediator);
        rates.push(nocap_rates(spec, mix));
    }
    Fleet {
        sims,
        mediators,
        nocap_rates: rates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::mixes;

    #[test]
    fn build_server_admits_both_apps() {
        let spec = ServerSpec::xeon_e5_2620();
        let mix = mixes::mix(1).unwrap();
        let (sim, med) = build_server(
            &spec,
            &mix,
            PolicyKind::AppResAware,
            false,
            Watts::new(100.0),
        );
        assert_eq!(sim.app_names().len(), 2);
        assert_eq!(med.accountant().cap(), Watts::new(100.0));
    }

    #[test]
    fn fleet_indexes_line_up() {
        let spec = ServerSpec::xeon_e5_2620();
        let mixes: Vec<Mix> = (1..=3).map(|i| mixes::mix(i).unwrap()).collect();
        let fleet = build_fleet_skus(
            &[spec.clone(), spec.clone(), spec],
            &mixes,
            PolicyKind::AppResEsdAware,
            true,
            Watts::new(90.0),
        );
        assert_eq!(fleet.sims.len(), 3);
        assert_eq!(fleet.mediators.len(), 3);
        assert_eq!(fleet.nocap_rates.len(), 3);
        for (i, mix) in mixes.iter().enumerate() {
            let names: Vec<&str> = fleet.nocap_rates[i]
                .iter()
                .map(|(n, _)| n.as_str())
                .collect();
            assert_eq!(names, vec![mix.app1.name(), mix.app2.name()]);
            assert!(fleet.nocap_rates[i].iter().all(|(_, r)| *r > 0.0));
            // The battery boots at the shared initial SoC.
            assert!(fleet.sims[i].esd().capacity().value() > 0.0);
        }
    }

    #[test]
    fn rebuild_is_bit_identical_to_first_boot() {
        // A node restart rebuilds one server through the same path the
        // initial boot used; the stacks must match exactly.
        let spec = ServerSpec::xeon_e5_2620();
        let mix = mixes::mix(4).unwrap();
        let (mut sim_a, mut med_a) = build_server(
            &spec,
            &mix,
            PolicyKind::AppResAware,
            false,
            Watts::new(95.0),
        );
        let (mut sim_b, mut med_b) = build_server(
            &spec,
            &mix,
            PolicyKind::AppResAware,
            false,
            Watts::new(95.0),
        );
        for _ in 0..20 {
            let ra = med_a.step(&mut sim_a, powermed_units::Seconds::new(0.5));
            let rb = med_b.step(&mut sim_b, powermed_units::Seconds::new(0.5));
            assert_eq!(ra, rb);
        }
    }
}
