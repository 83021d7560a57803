//! Discrete-time simulation engine binding the server substrate,
//! application models, energy storage and telemetry.
//!
//! [`engine::ServerSim`] advances a fixed-timestep loop (default 100 ms):
//! each step it evaluates every running application's operating point at
//! its current knob setting, converts the demands into a server
//! [`powermed_server::server::PowerBreakdown`], applies the active ESD
//! command (charge from headroom / discharge to supplement), meters the
//! net draw against the cap, and credits application progress through
//! heartbeats.
//!
//! The policies in `powermed-core` drive the engine from outside: they
//! read telemetry between steps, actuate knobs, suspend and resume
//! through [`engine::ServerSim::set_knobs`],
//! [`engine::ServerSim::suspend_app`] and
//! [`engine::ServerSim::resume_app`], and set the ESD command. The engine
//! itself is policy-free, so baselines and the paper's schemes run on the
//! byte-identical mechanics.
//!
//! # Example
//!
//! ```
//! use powermed_esd::NoEsd;
//! use powermed_server::{KnobSetting, ServerSpec};
//! use powermed_sim::engine::ServerSim;
//! use powermed_units::Seconds;
//! use powermed_workloads::catalog;
//!
//! let mut sim = ServerSim::new(ServerSpec::xeon_e5_2620(), Box::new(NoEsd));
//! let knob = KnobSetting::max_for(sim.server().spec());
//! sim.host(catalog::kmeans(), knob)?;
//! let report = sim.step(Seconds::from_millis(100.0));
//! assert!(report.gross_power.value() > 70.0);
//! # Ok::<(), powermed_server::ServerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod app;
pub mod clock;
pub mod engine;
pub mod faults;

pub use adversary::{AdversaryConfig, AdversaryInjector};
pub use app::RunningApp;
pub use clock::SimClock;
pub use engine::{EsdCommand, ServerSim, StepReport};
pub use faults::{FaultConfig, FaultInjector, FaultKind, FaultRecord, KnobWriteOutcome};
