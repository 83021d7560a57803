//! Simulated shared-server substrate for `powermed`.
//!
//! The paper evaluates on a dual-socket Intel Xeon E5-2620 with per-core
//! DVFS, socket-level PC6 deep sleep, Intel RAPL package/DRAM power
//! domains, and a Lead-Acid UPS. This crate reproduces that platform as an
//! analytic model so the power-management policies in `powermed-core` can
//! exercise exactly the same knobs the paper uses:
//!
//! * **`f`** — per-core frequency scaling over a 9-step 1.2–2.0 GHz ladder
//!   ([`dvfs::FrequencyLadder`]);
//! * **`n`** — core consolidation: power-gating a subset of an
//!   application's cores ([`topology`]);
//! * **`m`** — DRAM RAPL power limits per DIMM in 1 W steps over 3–10 W
//!   ([`rapl::DramDomain`]);
//! * socket deep sleep (PC6): while no running application owns a core,
//!   the sockets sleep and the server pays no chip-maintenance power
//!   ([`server::Server::any_socket_active`]), with a realistic wake-up
//!   latency ([`sleep::SleepLatency`]).
//!
//! The model's constants default to the paper's Table I
//! (`P_idle` = 50 W, `P_cm` = 20 W, `P_dynamic` ≤ 60 W, 12 cores, 2 NUMA
//! nodes) via [`spec::ServerSpec::xeon_e5_2620`].
//!
//! # Example
//!
//! ```
//! use powermed_server::spec::ServerSpec;
//!
//! let spec = ServerSpec::xeon_e5_2620();
//! let grid = spec.knob_grid();
//! // The paper's knob space: 9 DVFS steps x 6 cores x 8 DRAM watt levels.
//! assert_eq!(grid.len(), 9 * 6 * 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dvfs;
pub mod error;
pub mod knobs;
pub mod power;
pub mod rapl;
pub mod server;
pub mod sleep;
pub mod spec;
pub mod topology;

pub use error::ServerError;
pub use knobs::{KnobGrid, KnobSetting};
pub use server::Server;
pub use spec::ServerSpec;
