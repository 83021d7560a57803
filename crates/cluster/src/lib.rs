//! Cluster-scale power management (the paper's Sec. IV-D).
//!
//! A cluster of shared servers performs **peak shaving**: the cluster's
//! power cap follows a demand trace with 15/30/45% of the peak shaved
//! off (Fig. 12a), and the cluster manager must keep aggregate
//! application performance high within it (Fig. 12b). Three strategies
//! are compared:
//!
//! * **Equal(RAPL)** — the cap is split evenly across servers; each
//!   server enforces its share with RAPL-style utility-unaware capping
//!   (today's state of the art, e.g. Facebook's Dynamo);
//! * **Equal(Ours)** — the same even split, but each server mediates its
//!   power struggle with the `App+Res+ESD-Aware` policy, engaging its
//!   battery only under very stringent caps;
//! * **Consolidation+Migration(no cap)** — power only as many servers as
//!   the budget allows, migrate applications onto them, and cap nothing.
//!
//! The capping strategies run on an explicit **control plane**
//! ([`control`]): the manager sends cap-assignment downlinks to one
//! agent per server ([`agent`]), agents report telemetry uplinks back,
//! and the message layer in between can inject deterministic, seeded
//! faults — drops, delays, node churn, partitions, manager failover —
//! to measure how gracefully the cluster tier degrades. With faults
//! disabled the control plane consumes no randomness at all.
//!
//! # Example
//!
//! ```no_run
//! use powermed_cluster::trace::ClusterPowerTrace;
//! use powermed_cluster::manager::{ClusterManager, ClusterPolicy};
//! use powermed_units::{Ratio, Seconds};
//!
//! let trace = ClusterPowerTrace::synthetic_diurnal(10, Seconds::new(240.0), 42)
//!     .peak_shaved(Ratio::new(0.30));
//! let report = ClusterManager::new(10, 7)
//!     .run(ClusterPolicy::EqualOurs, &trace, Seconds::new(0.5));
//! assert!(report.aggregate_normalized_perf > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod control;
pub mod fleet;
pub mod manager;
pub mod trace;

pub use agent::ServerAgent;
pub use control::{
    ClusterFaultConfig, ControlOptions, ControlPlane, FleetObsOptions, FleetObsReport,
    ManagedPolicy, PartitionWindow, ResilienceReport,
};
pub use manager::{ClusterManager, ClusterPolicy, ClusterReport};
pub use trace::ClusterPowerTrace;
