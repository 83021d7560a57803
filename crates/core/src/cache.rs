//! Shared memoization of exhaustive measurement surfaces.
//!
//! Building an [`AppMeasurement`] exhaustively evaluates the profile at
//! every knob setting on the grid — 432 evaluations on the default
//! Xeon E5-2620 spec. The benchmark harness repeats this work tens of
//! times per experiment (every mix × policy cell re-admits the same
//! catalog apps on the same server spec), so a process-wide
//! [`MeasurementCache`] keyed by `(server spec, profile)` identity
//! collapses the repeats to one evaluation pass per distinct pair.
//!
//! The stored surface is exactly [`AppMeasurement::exhaustive`] — the
//! profile's *nominal* (phase-free) surface. Substituting it for
//! probe-based calibration is only valid for profiles without a phase
//! track: a phased profile is time-dependent and the mediator must keep
//! probing the simulator for it (`PowerMediator::admit` gates on
//! [`AppProfile::phases`] being `None`). Callers that want the nominal
//! surface itself (corpus seeding, the benchmark harness) can use the
//! cache for any profile.
//!
//! Identity is a fingerprint of the `Debug` rendering of the spec and
//! profile, which covers every field of both (they are plain data
//! types). Hashing streams through the formatter, so no intermediate
//! `String` is allocated.

use std::collections::HashMap;
use std::fmt::{self, Debug};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use powermed_cf::als::Completion;
use powermed_server::ServerSpec;
use powermed_units::hash::Fnv1a;
use powermed_workloads::AppProfile;

use crate::measurement::AppMeasurement;

#[derive(Default)]
struct Inner {
    surfaces: RwLock<HashMap<(u64, u64), Arc<AppMeasurement>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Fitted `(power, perf)` completion-model pairs keyed by the
    /// caller's content fingerprint (corpus + fit config). Online
    /// calibration refits the same corpus on every admission otherwise.
    models: RwLock<HashMap<u64, Arc<(Completion, Completion)>>>,
    model_hits: AtomicU64,
    model_misses: AtomicU64,
}

/// A thread-safe, cheaply clonable cache of exhaustive measurement
/// surfaces, keyed by `(server spec, profile)` fingerprints.
///
/// Clones share the same underlying storage. Use
/// [`MeasurementCache::global`] for the process-wide instance shared by
/// the mediator, the calibrator and the benchmark harness, or
/// [`MeasurementCache::new`] for an isolated one (tests).
#[derive(Clone, Default)]
pub struct MeasurementCache {
    inner: Arc<Inner>,
}

impl MeasurementCache {
    /// Creates an empty cache with its own private storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache instance.
    pub fn global() -> &'static MeasurementCache {
        static GLOBAL: OnceLock<MeasurementCache> = OnceLock::new();
        GLOBAL.get_or_init(MeasurementCache::new)
    }

    /// Returns the exhaustive surface for `profile` on `spec`, building
    /// and storing it on first use.
    ///
    /// The surface is evaluated outside any lock, so concurrent misses
    /// on the same key may race to build it; the first insert wins and
    /// every caller receives the same stored `Arc`. The result is the
    /// profile's nominal surface — see the module docs for when it may
    /// stand in for probe-based calibration.
    pub fn measure(&self, spec: &ServerSpec, profile: &AppProfile) -> Arc<AppMeasurement> {
        let key = (Fnv1a::of_debug(spec), Fnv1a::of_debug(profile));
        if let Some(found) = read(&self.inner.surfaces).get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(AppMeasurement::exhaustive(spec, profile));
        let mut surfaces = write(&self.inner.surfaces);
        Arc::clone(surfaces.entry(key).or_insert(fresh))
    }

    /// Returns the `(power, perf)` completion-model pair for `key`,
    /// fitting and storing it on first use.
    ///
    /// `key` must fingerprint everything the fit depends on — the full
    /// corpus content *and* the fit configuration (see
    /// `Calibrator::corpus_model_key`) — so equal keys imply
    /// bit-identical fits and sharing is exact, not approximate. Like
    /// [`Self::measure`], concurrent misses may race to build; the
    /// first insert wins.
    pub fn completion_pair(
        &self,
        key: u64,
        build: impl FnOnce() -> (Completion, Completion),
    ) -> Arc<(Completion, Completion)> {
        if let Some(found) = read(&self.inner.models).get(&key) {
            self.inner.model_hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(found);
        }
        self.inner.model_misses.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(build());
        let mut models = write(&self.inner.models);
        Arc::clone(models.entry(key).or_insert(fresh))
    }

    /// Completion-model lookups served from the cache.
    pub fn model_hits(&self) -> u64 {
        self.inner.model_hits.load(Ordering::Relaxed)
    }

    /// Completion-model lookups that had to run an ALS fit.
    pub fn model_misses(&self) -> u64 {
        self.inner.model_misses.load(Ordering::Relaxed)
    }

    /// Number of distinct completion-model pairs stored.
    #[cfg(test)]
    pub fn model_count(&self) -> usize {
        read(&self.inner.models).len()
    }

    /// Number of distinct `(spec, profile)` surfaces stored.
    pub fn len(&self) -> usize {
        read(&self.inner.surfaces).len()
    }

    /// Whether the cache holds no surfaces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to build a fresh surface.
    pub fn misses(&self) -> u64 {
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Drops every stored surface and model pair and resets the
    /// hit/miss counters.
    pub fn clear(&self) {
        write(&self.inner.surfaces).clear();
        self.inner.hits.store(0, Ordering::Relaxed);
        self.inner.misses.store(0, Ordering::Relaxed);
        write(&self.inner.models).clear();
        self.inner.model_hits.store(0, Ordering::Relaxed);
        self.inner.model_misses.store(0, Ordering::Relaxed);
    }
}

/// Shared access to one of the cache's maps. A poisoned lock is
/// recovered: each write is one map operation, so a panic under the
/// lock cannot leave a map half-updated.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to one of the cache's maps.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl Debug for MeasurementCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MeasurementCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::catalog;

    #[test]
    fn a_panic_under_the_lock_does_not_poison_later_callers() {
        let cache = MeasurementCache::new();
        let spec = ServerSpec::xeon_e5_2620();
        cache.measure(&spec, &catalog::pagerank());
        let holder = cache.clone();
        std::thread::spawn(move || {
            let _surfaces = write(&holder.inner.surfaces);
            let _models = write(&holder.inner.models);
            panic!("a build panics while it holds both maps");
        })
        .join()
        .expect_err("the build panicked");
        cache.measure(&spec, &catalog::pagerank());
        cache.measure(&spec, &catalog::kmeans());
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 1, 2));
        assert_eq!(cache.model_count(), 0);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn distinct_specs_get_distinct_entries() {
        let cache = MeasurementCache::new();
        let a = ServerSpec::xeon_e5_2620();
        let b = ServerSpec::xeon_e5_2620().with_idle_power(powermed_units::Watts::new(60.0));
        let p = catalog::pagerank();
        cache.measure(&a, &p);
        cache.measure(&b, &p);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn repeat_lookup_returns_same_surface() {
        let cache = MeasurementCache::new();
        let spec = ServerSpec::xeon_e5_2620();
        let p = catalog::kmeans();
        let first = cache.measure(&spec, &p);
        let second = cache.measure(&spec, &p);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn clear_resets_storage_and_counters() {
        let cache = MeasurementCache::new();
        let spec = ServerSpec::xeon_e5_2620();
        cache.measure(&spec, &catalog::pagerank());
        cache.completion_pair(1, tiny_pair);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        assert_eq!(cache.model_count(), 0);
        assert_eq!(cache.model_hits(), 0);
        assert_eq!(cache.model_misses(), 0);
    }

    fn tiny_pair() -> (Completion, Completion) {
        let entries = [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0), (1, 1, 4.0)];
        let cfg = powermed_cf::als::FitConfig::default();
        (
            Completion::fit(2, 2, &entries, cfg),
            Completion::fit(2, 2, &entries, cfg),
        )
    }

    #[test]
    fn completion_pair_shares_one_fit_per_key() {
        let cache = MeasurementCache::new();
        let first = cache.completion_pair(42, tiny_pair);
        let second = cache.completion_pair(42, || panic!("must be served from the cache"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.model_hits(), 1);
        assert_eq!(cache.model_misses(), 1);
        assert_eq!(cache.model_count(), 1);
        // A different key builds fresh.
        let third = cache.completion_pair(43, tiny_pair);
        assert!(!Arc::ptr_eq(&first, &third));
        assert_eq!(cache.model_misses(), 2);
        assert_eq!(cache.model_count(), 2);
    }
}
