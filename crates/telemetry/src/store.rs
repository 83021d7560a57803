//! Knowledge-plane store accounting.
//!
//! The fleet-wide profile store (see `powermed-profiles`) counts every
//! lookup, invalidation and eviction it performs in a
//! [`ProfileStoreStats`]. Like the fault counters in [`crate::faults`],
//! it is a plain counter struct so experiments can diff it across runs.

/// Counters for a profile knowledge-plane store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileStoreStats {
    /// Confident lookups: an admission found a usable stored profile.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, decayed below the
    /// confidence threshold, or invalidated).
    pub misses: u64,
    /// Fleet-wide invalidations (E4 drift downgraded a fingerprint).
    pub invalidations: u64,
    /// Entries evicted to stay within the store's capacity bound.
    pub evictions: u64,
    /// Fresh entries inserted (first sighting of a fingerprint).
    pub inserts: u64,
    /// Version merges applied to an already-present fingerprint.
    pub merges: u64,
    /// Approximate resident size of the stored entries, in bytes.
    pub bytes: u64,
}

impl ProfileStoreStats {
    /// Total discrete store events (resident bytes are a gauge, not an
    /// event, and excluded).
    pub fn total_events(&self) -> u64 {
        self.hits + self.misses + self.invalidations + self.evictions + self.inserts + self.merges
    }

    /// Component-wise sum — used to aggregate per-server stores into a
    /// fleet total.
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            invalidations: self.invalidations + other.invalidations,
            evictions: self.evictions + other.evictions,
            inserts: self.inserts + other.inserts,
            merges: self.merges + other.merges,
            bytes: self.bytes + other.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = ProfileStoreStats::default();
        assert_eq!(s.total_events(), 0);
        assert_eq!(s.bytes, 0);
    }

    #[test]
    fn totals_exclude_the_bytes_gauge() {
        let s = ProfileStoreStats {
            hits: 1,
            misses: 2,
            invalidations: 3,
            evictions: 4,
            inserts: 5,
            merges: 6,
            bytes: 1000,
        };
        assert_eq!(s.total_events(), 21, "bytes are a gauge");
    }

    #[test]
    fn merged_sums_component_wise() {
        let a = ProfileStoreStats {
            hits: 1,
            misses: 2,
            invalidations: 0,
            evictions: 1,
            inserts: 3,
            merges: 4,
            bytes: 100,
        };
        let b = ProfileStoreStats {
            hits: 10,
            misses: 20,
            invalidations: 1,
            evictions: 0,
            inserts: 30,
            merges: 40,
            bytes: 900,
        };
        let m = a.merged(&b);
        assert_eq!(m.hits, 11);
        assert_eq!(m.misses, 22);
        assert_eq!(m.invalidations, 1);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.inserts, 33);
        assert_eq!(m.merges, 44);
        assert_eq!(m.bytes, 1000);
    }
}
