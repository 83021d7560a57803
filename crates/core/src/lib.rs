//! `powermed-core` — mediating power struggles on a shared server.
//!
//! This crate is the paper's contribution: a runtime that treats power as
//! an *indirectly shared resource* and explicitly apportions a server's
//! power cap across co-located applications (Requirement R1), across each
//! application's direct resources (R2), across time (R3), and through a
//! server-local energy storage device (R4).
//!
//! Architecture (the paper's Fig. 6):
//!
//! * [`measurement`] — per-app `(power, perf)` surfaces over the
//!   `(f, n, m)` knob grid, measured exhaustively or estimated online by
//!   sparse sampling + collaborative filtering ([`calibration`]);
//! * [`utility`] — utility curves `perf*(budget)` with the argmax knob
//!   per budget, plus resource-level marginal utilities (Figs. 2, 3, 9);
//! * [`allocator`] — the `PowerAllocator`: exact dynamic-programming
//!   apportionment of the dynamic power budget maximizing Eq. 1;
//! * [`knapsack`] — the one exact 1-D apportionment DP, shared by the
//!   allocator, the SLO planner and the cluster's server split;
//! * [`coordinator`] — the `Coordinator`: space coordination, alternate
//!   duty-cycling, and the Eq. 5 ESD-backed consolidated duty cycle;
//! * [`accountant`] — the `Accountant`: events E1–E4 (cap change,
//!   arrival, departure, drift) and when to re-allocate/re-calibrate;
//! * [`policy`] — the five evaluated schemes, from the RAPL-like
//!   `UtilUnaware` baseline to `AppResEsdAware`;
//! * [`runtime`] — the `PowerMediator` loop binding all of the above to
//!   a [`powermed_sim::ServerSim`].
//!
//! # Example
//!
//! ```
//! use powermed_core::measurement::AppMeasurement;
//! use powermed_core::allocator::PowerAllocator;
//! use powermed_server::ServerSpec;
//! use powermed_units::Watts;
//! use powermed_workloads::catalog;
//!
//! let spec = ServerSpec::xeon_e5_2620();
//! let a = AppMeasurement::exhaustive(&spec, &catalog::pagerank());
//! let b = AppMeasurement::exhaustive(&spec, &catalog::kmeans());
//! // Apportion a 30 W dynamic budget (the 100 W cap minus idle+uncore).
//! let alloc = PowerAllocator::new(Watts::new(1.0))
//!     .apportion(&[(&a, None), (&b, None)], Watts::new(30.0));
//! assert_eq!(alloc.budgets.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accountant;
pub mod allocator;
pub mod cache;
pub mod calibration;
pub mod coordinator;
pub mod error;
pub mod knapsack;
pub mod measurement;
pub mod policy;
pub mod runtime;
pub mod slo;
pub mod trust;
pub mod utility;
pub mod watchdog;

pub use accountant::{Accountant, Event};
pub use allocator::PowerAllocator;
pub use cache::MeasurementCache;
pub use coordinator::{Coordinator, Schedule};
pub use error::CoreError;
pub use measurement::AppMeasurement;
pub use policy::{PolicyKind, PowerPolicy};
pub use runtime::PowerMediator;
pub use slo::SloPlanner;
pub use trust::{TrustConfig, TrustScore, TrustTier, WattDebtLedger};
pub use utility::UtilityCurve;
pub use watchdog::{HardeningConfig, SafeModeWatchdog, WatchdogTransition};
