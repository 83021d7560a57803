//! Integration tests for the shared [`MeasurementCache`].
//!
//! The [`evaluation_count`] counter counts the calling thread's
//! evaluations, so the counting test sees only its own; the cache is
//! process-wide, and a serializing mutex keeps the tests that share it
//! from interleaving.

use std::sync::{Arc, Mutex};

use powermed_core::cache::MeasurementCache;
use powermed_core::measurement::AppMeasurement;
use powermed_server::ServerSpec;
use powermed_workloads::catalog;
use powermed_workloads::profile::evaluation_count;

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn cache_hit_skips_re_evaluation() {
    let _guard = SERIAL.lock().unwrap();
    let cache = MeasurementCache::new();
    let spec = ServerSpec::xeon_e5_2620();
    let profile = catalog::x264();

    let before = evaluation_count();
    let first = cache.measure(&spec, &profile);
    let after_build = evaluation_count();
    assert!(
        after_build - before >= first.grid().len() as u64,
        "building the surface must evaluate the whole grid ({} settings), saw {}",
        first.grid().len(),
        after_build - before
    );

    let second = cache.measure(&spec, &profile);
    assert_eq!(
        evaluation_count(),
        after_build,
        "a cache hit must not re-evaluate the profile"
    );
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(cache.hits(), 1);
    assert_eq!(cache.misses(), 1);
}

#[test]
fn concurrent_readers_share_one_surface() {
    let _guard = SERIAL.lock().unwrap();
    let cache = MeasurementCache::new();
    let spec = ServerSpec::xeon_e5_2620();
    let profile = catalog::pagerank();

    let surfaces: Vec<Arc<AppMeasurement>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(|| cache.measure(&spec, &profile)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Racing misses may each build a surface, but the first insert wins
    // and everyone must receive that stored Arc.
    for s in &surfaces {
        assert!(
            Arc::ptr_eq(s, &surfaces[0]),
            "readers saw different surfaces"
        );
    }
    assert_eq!(cache.len(), 1);
    assert_eq!(
        cache.hits() + cache.misses(),
        surfaces.len() as u64,
        "every lookup is either a hit or a miss"
    );
}

#[test]
fn cached_surface_matches_direct_exhaustive() {
    let _guard = SERIAL.lock().unwrap();
    let cache = MeasurementCache::new();
    let spec = ServerSpec::xeon_e5_2620();
    let profile = catalog::kmeans();

    let cached = cache.measure(&spec, &profile);
    let direct = AppMeasurement::exhaustive(&spec, &profile);
    assert_eq!(cached.grid().len(), direct.grid().len());
    for idx in 0..direct.grid().len() {
        assert_eq!(cached.power(idx).value(), direct.power(idx).value());
        assert_eq!(cached.perf(idx), direct.perf(idx));
    }
}
