//! # powermed — mediating power struggles on a shared server
//!
//! A full reproduction, as a Rust library, of *"Mediating Power Struggles
//! on a Shared Server"* (Narayanan & Sivasubramaniam, ISPASS 2020): a
//! runtime that treats a server's power budget as an **indirectly shared
//! resource**, explicitly apportioning it across co-located applications,
//! across each application's direct resources (frequency, cores, DRAM
//! power), across time (duty cycling), and through a server-local
//! battery (Eq. 5 consolidated cycling).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`units`] | `powermed-units` | typed watts/joules/hertz/seconds |
//! | [`server`] | `powermed-server` | the simulated Xeon platform: DVFS, RAPL, PC6, power model |
//! | [`workloads`] | `powermed-workloads` | the benchmark catalog and Table II mixes |
//! | [`esd`] | `powermed-esd` | Lead-Acid / ideal energy storage models |
//! | [`telemetry`] | `powermed-telemetry` | heartbeats, power meters, flight-recorder journal + metrics |
//! | [`cf`] | `powermed-cf` | collaborative filtering for online calibration |
//! | [`sim`] | `powermed-sim` | the discrete-time simulation engine |
//! | [`mediator`] | `powermed-core` | allocator, coordinator, accountant, the five policies |
//! | [`cluster`] | `powermed-cluster` | cluster-scale peak shaving |
//!
//! # Quickstart
//!
//! ```
//! use powermed::mediator::policy::PolicyKind;
//! use powermed::mediator::runtime::PowerMediator;
//! use powermed::esd::NoEsd;
//! use powermed::server::ServerSpec;
//! use powermed::sim::engine::ServerSim;
//! use powermed::units::{Seconds, Watts};
//! use powermed::workloads::mixes;
//!
//! let spec = ServerSpec::xeon_e5_2620();
//! let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
//! let mut mediator = PowerMediator::new(PolicyKind::AppResAware, spec, Watts::new(100.0));
//!
//! let mix = mixes::mix(10).expect("Table II mix");
//! for app in mix.apps() {
//!     mediator.admit(&mut sim, app.clone())?;
//! }
//! mediator.run_for(&mut sim, Seconds::new(5.0), Seconds::from_millis(100.0));
//! assert!(sim.ops_done("pagerank") > 0.0);
//! assert!(sim.meter().compliance().violation_fraction() < 0.01);
//! # Ok::<(), powermed::mediator::CoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use powermed_cf as cf;
pub use powermed_cluster as cluster;
pub use powermed_core as mediator;
pub use powermed_esd as esd;
pub use powermed_server as server;
pub use powermed_sim as sim;
pub use powermed_telemetry as telemetry;
pub use powermed_units as units;
pub use powermed_workloads as workloads;
