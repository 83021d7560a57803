//! Fleet-wide profile knowledge plane.
//!
//! The paper's calibration (Sec. III-A) treats every admission as a cold
//! start: sparse-sample the knob grid, complete by collaborative
//! filtering, forget everything when the app departs. On a fleet, the
//! same application arrives on many servers and re-arrives after every
//! crash, so most of those probes re-measure what some other server (or
//! the same server, minutes ago) already knows. This crate is the
//! remembering half: a content-addressed, versioned store of measured
//! profiles that servers consult *before* probing, so a warm admission
//! runs only the probe points its prior does not cover.
//!
//! The pieces:
//!
//! * [`fingerprint::AppFingerprint`] — content address for a workload
//!   (FNV-1a over its observable signature), so identical apps share one
//!   entry fleet-wide regardless of per-server naming;
//! * [`store::StoredProfile`] — a versioned profile: the sparse samples
//!   that were actually measured, the folded-in CF rows, a confidence
//!   score, and provenance;
//! * [`store::ProfileStore`] — bounded, mergeable store with confidence
//!   decay, E4 tombstone invalidation, LRU eviction that spares the
//!   highest-confidence entry, and a by-value restart copy
//!   ([`store::ProfileStore::rebooted`]) that the manager checkpoint and
//!   the crash-surviving agent state hold;
//! * [`store::ProfileDigest`] — the store entry as it rides the cluster
//!   control plane's epoch-stamped messages;
//! * [`store::ProbeSplit`] — cold / warm / skipped probe accounting.
//!
//! # Example
//!
//! ```
//! use powermed_profiles::{AppFingerprint, ProfileStore, StoredProfile};
//!
//! let mut store = ProfileStore::default();
//! let fp = AppFingerprint::of(&"stream-like workload signature");
//! let mut profile = StoredProfile::tombstone(0, 0);
//! profile.confidence = 0.9;
//! profile.samples.push(powermed_profiles::ProbeSample {
//!     col: 7,
//!     power_w: 18.0,
//!     perf: 300.0,
//! });
//! store.publish(fp, profile);
//! assert!(store.confident(fp).is_some());
//! let restarted = store.rebooted();
//! assert_eq!(restarted.digests(), store.digests());
//! assert_eq!(restarted.stats().hits, 0, "counters restart");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fingerprint;
pub mod store;

pub use fingerprint::AppFingerprint;
pub use store::{
    ProbeSample, ProbeSplit, ProfileDigest, ProfileStore, Provenance, StoreConfig, StoredProfile,
};
