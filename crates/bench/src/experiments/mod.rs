//! One module per table and figure of the paper's evaluation, one per
//! extension experiment, and the registry listing each of them once.

pub mod ablations;
pub mod ext_adversary;
pub mod ext_cluster;
pub mod ext_cluster_faults;
pub mod ext_disagg;
pub mod ext_faults;
pub mod ext_latency;
pub mod ext_napp;
pub mod ext_obs;
pub mod ext_traffic;
pub mod ext_warmstart;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;
pub mod table2;

use powermed_units::hash::Fnv1a;

use crate::harness::{plain, Experiment, Gate, GateCheck};

/// A paper table or figure that only prints.
const fn paper(name: &'static str, run: fn() -> Vec<GateCheck>) -> Experiment {
    Experiment {
        name,
        paper: true,
        run,
        smoke: &[],
        gate: Gate::None,
        digest: None,
    }
}

/// An extension experiment with neither smoke digests nor a gate.
const fn extension(name: &'static str, run: fn() -> Vec<GateCheck>) -> Experiment {
    Experiment {
        paper: false,
        ..paper(name, run)
    }
}

impl Experiment {
    /// This entry with `digest` as its `--digest` mode.
    const fn pinned(self, digest: fn() -> u64) -> Self {
        Self {
            digest: Some(digest),
            ..self
        }
    }
}

/// Every experiment, once: the paper's tables and figures in `all`'s
/// order, then the extensions, whose smoke digests come in the order of
/// `crates/bench/golden/smoke_digests.txt`.
pub static EXPERIMENTS: &[Experiment] = &[
    paper("table1", || plain(table1::print)).pinned(|| Fnv1a::of_debug(&table1::rows())),
    paper("table2", || plain(table2::print)).pinned(|| Fnv1a::of_debug(&table2::rows())),
    paper("fig2", || plain(fig2::print)).pinned(|| Fnv1a::of_debug(&fig2::run())),
    paper("fig3", || plain(fig3::print)).pinned(|| Fnv1a::of_debug(&fig3::run())),
    paper("fig4", || plain(fig4::print)).pinned(|| Fnv1a::of_debug(&fig4::run())),
    paper("fig5", || plain(fig5::print)).pinned(|| Fnv1a::of_debug(&fig5::run())),
    paper("fig7", || plain(fig7::print)).pinned(|| fig7::digest(&fig7::run())),
    paper("fig8", || plain(fig8::print)).pinned(|| Fnv1a::of_debug(&fig8::run())),
    paper("fig9", || plain(fig9::print)).pinned(|| Fnv1a::of_debug(&fig9::run())),
    paper("fig10", || plain(fig10::print)).pinned(|| Fnv1a::of_debug(&fig10::run())),
    paper("fig11", || plain(fig11::print))
        .pinned(|| Fnv1a::of_debug(&(fig11::run_arrival(), fig11::run_departure()))),
    paper("fig12", || plain(fig12::print)).pinned(|| Fnv1a::of_debug(&fig12::run())),
    extension("ablations", || plain(ablations::print)).pinned(|| {
        Fnv1a::of_debug(&(
            ablations::esd_device_sweep(),
            ablations::dp_step_sweep(),
            ablations::cycle_period_sweep(),
        ))
    }),
    extension("ext_napp", || plain(ext_napp::print)).pinned(|| Fnv1a::of_debug(&ext_napp::run())),
    extension("ext_latency", || plain(ext_latency::print))
        .pinned(|| Fnv1a::of_debug(&ext_latency::run())),
    extension("ext_cluster", || plain(ext_cluster::print))
        .pinned(|| Fnv1a::of_debug(&ext_cluster::run())),
    Experiment {
        smoke: &[("ext_faults", ext_faults::smoke_digest, ext_faults::SEED)],
        ..extension("ext_faults", || plain(ext_faults::print))
    }
    .pinned(|| Fnv1a::of_debug(&(ext_faults::run_grid(), ext_faults::run_sweep()))),
    Experiment {
        smoke: &[(
            "ext_cluster_faults",
            ext_cluster_faults::smoke_digest,
            ext_cluster_faults::SEED,
        )],
        ..extension("ext_cluster_faults", || plain(ext_cluster_faults::print))
    }
    .pinned(|| Fnv1a::of_debug(&ext_cluster_faults::run_grid())),
    Experiment {
        smoke: &[(
            "ext_warmstart",
            ext_warmstart::smoke_digest,
            ext_warmstart::SEED,
        )],
        gate: Gate::Budget(ext_warmstart::BUDGET_S),
        ..extension("ext_warmstart", || plain(ext_warmstart::print))
    }
    .pinned(|| Fnv1a::of_debug(&ext_warmstart::run_grid())),
    Experiment {
        // The cast fixes the element type of a two-entry array, whose
        // second fn item would not coerce to the first one's type.
        smoke: &[
            (
                "ext_obs",
                ext_obs::smoke_digest as fn(u64) -> u64,
                ext_faults::SEED,
            ),
            (
                "ext_obs fleet",
                ext_obs::fleet_smoke_digest,
                ext_cluster_faults::SEED,
            ),
        ],
        gate: Gate::Checks,
        ..extension("ext_obs", ext_obs::report)
    },
    Experiment {
        smoke: &[("ext_disagg", ext_disagg::smoke_digest, ext_disagg::SEED)],
        gate: Gate::Checks,
        ..extension("ext_disagg", ext_disagg::report)
    }
    .pinned(|| Fnv1a::of_debug(&ext_disagg::run_grid())),
    Experiment {
        smoke: &[(
            "ext_adversary",
            ext_adversary::smoke_digest,
            ext_adversary::SEED,
        )],
        gate: Gate::Checks,
        ..extension("ext_adversary", ext_adversary::report)
    }
    .pinned(|| Fnv1a::of_debug(&ext_adversary::run_grid())),
    Experiment {
        smoke: &[("ext_traffic", ext_traffic::smoke_digest, ext_traffic::SEED)],
        gate: Gate::Checks,
        ..extension("ext_traffic", ext_traffic::report)
    }
    .pinned(|| Fnv1a::of_debug(&ext_traffic::run_grid())),
];
