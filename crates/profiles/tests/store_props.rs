//! Property tests for the profile store's distributed-systems contract:
//! merge is a semilattice join (commutative, associative, idempotent),
//! eviction never drops the best knowledge in the store, and a restarted
//! store keeps every entry. These are the properties that make replica
//! convergence over a lossy, reordering control plane a theorem rather
//! than a hope.

use proptest::prelude::*;

use powermed_cf::FoldedRow;
use powermed_profiles::{
    AppFingerprint, ProbeSample, ProfileStore, Provenance, StoreConfig, StoredProfile,
};

/// Deterministically expands a drawn tuple into a full profile. The
/// sample/factor payloads are derived from the scalars so that distinct
/// draws exercise distinct serializations without needing nested
/// collection strategies.
fn profile_from(
    version: u64,
    confidence: f64,
    n_samples: usize,
    server: u64,
    epoch: u64,
) -> StoredProfile {
    let samples = (0..n_samples)
        .map(|i| ProbeSample {
            col: i * 7 + server as usize,
            power_w: 5.0 + confidence * (i as f64 + 1.0),
            perf: 100.0 * (i as f64 + 1.0) + version as f64,
        })
        .collect();
    let factors: Vec<f64> = (0..4).map(|i| confidence * (i as f64 - 1.5)).collect();
    StoredProfile {
        version,
        confidence,
        samples,
        power_row: FoldedRow::new(confidence - 0.5, factors.clone()),
        perf_row: FoldedRow::new(0.5 - confidence, factors),
        provenance: Provenance {
            server,
            epoch,
            probes: n_samples as u64,
        },
    }
}

/// One profile draw, nested in pairs because the shim's tuple
/// strategies stop at arity 4: `((version, confidence), (samples,
/// server, epoch))`.
type Draw = ((u64, f64), (usize, u64, u64));

fn drawn(d: Draw) -> StoredProfile {
    profile_from(d.0 .0, d.0 .1, d.1 .0, d.1 .1, d.1 .2)
}

#[allow(clippy::type_complexity)]
const DRAW: (
    (std::ops::Range<u64>, std::ops::RangeInclusive<f64>),
    (
        std::ops::Range<usize>,
        std::ops::Range<u64>,
        std::ops::Range<u64>,
    ),
) = ((0u64..4, 0.0f64..=1.0), (0usize..5, 0u64..6, 0u64..3));

proptest! {
    #[test]
    fn merge_is_commutative(a in DRAW, b in DRAW) {
        let pa = drawn(a);
        let pb = drawn(b);
        prop_assert_eq!(pa.clone().merge(pb.clone()), pb.merge(pa));
    }

    #[test]
    fn merge_is_idempotent(a in DRAW) {
        let pa = drawn(a);
        prop_assert_eq!(pa.clone().merge(pa.clone()), pa);
    }

    #[test]
    fn merge_is_associative(a in DRAW, b in DRAW, c in DRAW) {
        let pa = drawn(a);
        let pb = drawn(b);
        let pc = drawn(c);
        prop_assert_eq!(
            pa.clone().merge(pb.clone()).merge(pc.clone()),
            pa.merge(pb.merge(pc))
        );
    }

    #[test]
    fn eviction_never_drops_the_highest_confidence(
        capacity in 1usize..5,
        pubs in collection::vec((0u64..12, 0.0f64..=1.0, 1usize..4), 1usize..24),
    ) {
        // Fixed version and epoch: merge then keeps the higher-confidence
        // replica per fingerprint and no decay skews effective values, so
        // "highest confidence ever published" is well-defined.
        let mut store = ProfileStore::new(StoreConfig {
            capacity,
            ..StoreConfig::default()
        });
        for &(fp, confidence, n) in &pubs {
            store.publish(
                AppFingerprint::from_raw(fp),
                profile_from(1, confidence, n, fp, 0),
            );
        }
        let best = pubs
            .iter()
            .map(|&(_, c, _)| c)
            .fold(f64::NEG_INFINITY, f64::max);
        let best_in_store = store
            .digests()
            .iter()
            .map(|d| d.profile.confidence)
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(best_in_store, best);
    }

    #[test]
    fn snapshot_restore_is_bit_identical(
        epoch in 0u64..5,
        pubs in collection::vec((0u64..10, 0.0f64..=1.0, 0usize..4, 0u64..3), 0usize..12),
        invalidate in collection::vec(0u64..10, 0usize..4),
    ) {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 6,
            ..StoreConfig::default()
        });
        store.set_epoch(epoch);
        for &(fp, confidence, n, v) in &pubs {
            store.publish(
                AppFingerprint::from_raw(fp),
                profile_from(v, confidence, n, fp, epoch.min(v)),
            );
        }
        for &fp in &invalidate {
            let _ = store.invalidate(AppFingerprint::from_raw(fp));
        }
        let restored = store.rebooted();
        prop_assert_eq!(restored.digests(), store.digests());
        prop_assert_eq!(restored.epoch(), store.epoch());
        prop_assert_eq!(restored.config(), store.config());
        prop_assert_eq!(restored.stats().bytes, store.stats().bytes);
        prop_assert_eq!(restored.stats().total_events(), 0);
    }
}
