//! The versioned profile store and its merge / decay / eviction
//! semantics.
//!
//! Every server runs one [`ProfileStore`]; the cluster manager runs
//! another. Entries are keyed by [`AppFingerprint`] and exchanged as
//! [`ProfileDigest`]s over the control plane, so the store must merge
//! deterministically no matter the order, duplication, or delay the
//! (faulty) network imposes. Merge is therefore the max of a *total*
//! order over profiles — version first, then confidence, then richness,
//! then provenance, with a canonical-serialization tie-break — which
//! makes it commutative, associative and idempotent: every replica that
//! has seen the same set of digests holds the same entries, bit for bit.
//!
//! Staleness is handled two ways. Gradually, an entry's *effective*
//! confidence decays geometrically with the number of epochs since it
//! was measured, so an old profile eventually stops clearing the
//! admission threshold on its own. Abruptly, an E4 drift event
//! tombstones the entry ([`ProfileStore::invalidate`]): the version is
//! bumped past every circulating copy with the payload cleared, so the
//! tombstone wins merges fleet-wide and no replica can serve the stale
//! profile again until a fresh recalibration publishes a higher version.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

use powermed_cf::FoldedRow;
use powermed_telemetry::ProfileStoreStats;

use crate::fingerprint::AppFingerprint;

/// One measured probe: the grid column that was actually run and the
/// `(power, performance)` pair it produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Knob-grid column index.
    pub col: usize,
    /// Measured power draw in watts.
    pub power_w: f64,
    /// Measured performance (heartbeats/s).
    pub perf: f64,
}

/// Where a profile came from: which server measured it, in which
/// control-plane epoch, and how many probes it spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Provenance {
    /// Index of the measuring server.
    pub server: u64,
    /// Control-plane epoch at measurement time (drives confidence decay).
    pub epoch: u64,
    /// Probes the measuring server spent building this profile.
    pub probes: u64,
}

/// A versioned, mergeable profile for one fingerprinted workload.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredProfile {
    /// Monotonic version; bumped on invalidation and republication.
    pub version: u64,
    /// Base confidence in `[0, 1]` assigned by the publisher.
    pub confidence: f64,
    /// The sparse probe measurements backing the profile.
    pub samples: Vec<ProbeSample>,
    /// Folded-in CF row for the power channel.
    pub power_row: FoldedRow,
    /// Folded-in CF row for the performance channel.
    pub perf_row: FoldedRow,
    /// Measurement provenance.
    pub provenance: Provenance,
}

impl StoredProfile {
    /// A tombstone at `version`: no payload, zero confidence. Loses
    /// every `confident` lookup but wins merges against anything below
    /// `version`.
    pub fn tombstone(version: u64, epoch: u64) -> Self {
        Self {
            version,
            confidence: 0.0,
            samples: Vec::new(),
            power_row: FoldedRow::new(0.0, Vec::new()),
            perf_row: FoldedRow::new(0.0, Vec::new()),
            provenance: Provenance {
                server: 0,
                epoch,
                probes: 0,
            },
        }
    }

    /// True if this is an invalidation tombstone rather than usable data.
    pub fn is_tombstone(&self) -> bool {
        self.samples.is_empty()
    }

    /// The canonical serialization: the final merge tie-break.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        write_profile(&mut out, self);
        out
    }

    /// The total order behind merge: later version, then higher
    /// confidence, then more samples, then later/bigger provenance, with
    /// the canonical serialization breaking any remaining tie so merge
    /// is deterministic even between structurally different profiles
    /// that agree on everything else.
    ///
    /// Bit-identical replicas (the common case: every re-delivered
    /// digest) serialize identically, so they rank `Equal` without
    /// rendering either one. The check compares floats by their bits,
    /// so `0.0` against `-0.0` still reaches the serialization.
    ///
    /// Replicas that differ only in a NaN's sign or payload serialize
    /// alike (`NaN`); their float bits break that last tie, and never
    /// decide between NaN-free replicas (`Display` is unique per bits).
    fn rank(&self, other: &Self) -> std::cmp::Ordering {
        self.version
            .cmp(&other.version)
            .then(self.confidence.total_cmp(&other.confidence))
            .then(self.samples.len().cmp(&other.samples.len()))
            .then(self.provenance.epoch.cmp(&other.provenance.epoch))
            .then(self.provenance.server.cmp(&other.provenance.server))
            .then_with(|| {
                if self.bit_identical(other) {
                    std::cmp::Ordering::Equal
                } else {
                    self.canonical()
                        .cmp(&other.canonical())
                        .then_with(|| self.float_bits().cmp(other.float_bits()))
                }
            })
    }

    /// True when every field matches bit for bit (floats by `to_bits`).
    fn bit_identical(&self, other: &Self) -> bool {
        let same_row = |a: &FoldedRow, b: &FoldedRow| {
            a.bias().to_bits() == b.bias().to_bits()
                && a.factors().len() == b.factors().len()
                && a.factors()
                    .iter()
                    .zip(b.factors())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.version == other.version
            && self.confidence.to_bits() == other.confidence.to_bits()
            && self.provenance == other.provenance
            && self.samples.len() == other.samples.len()
            && self.samples.iter().zip(&other.samples).all(|(a, b)| {
                a.col == b.col
                    && a.power_w.to_bits() == b.power_w.to_bits()
                    && a.perf.to_bits() == b.perf.to_bits()
            })
            && same_row(&self.power_row, &other.power_row)
            && same_row(&self.perf_row, &other.perf_row)
    }

    /// Every float field's bits, in serialization order.
    fn float_bits(&self) -> impl Iterator<Item = u64> + '_ {
        let (power, perf) = (&self.power_row, &self.perf_row);
        std::iter::once(self.confidence)
            .chain(self.samples.iter().flat_map(|s| [s.power_w, s.perf]))
            .chain(std::iter::once(power.bias()).chain(power.factors().iter().copied()))
            .chain(std::iter::once(perf.bias()).chain(perf.factors().iter().copied()))
            .map(f64::to_bits)
    }

    /// True when `other` beats `self` in the merge order.
    fn loses_to(&self, other: &Self) -> bool {
        other.rank(self) == std::cmp::Ordering::Greater
    }

    /// Merges two replicas of the same fingerprint: the max of the total
    /// order. Commutative, associative, idempotent.
    pub fn merge(self, other: Self) -> Self {
        if self.loses_to(&other) {
            other
        } else {
            self
        }
    }

    /// True when a float field is NaN, which makes the profile unequal
    /// to itself under `PartialEq`.
    fn has_nan(&self) -> bool {
        let row_nan = |r: &FoldedRow| r.bias().is_nan() || r.factors().iter().any(|f| f.is_nan());
        self.confidence.is_nan()
            || self
                .samples
                .iter()
                .any(|s| s.power_w.is_nan() || s.perf.is_nan())
            || row_nan(&self.power_row)
            || row_nan(&self.perf_row)
    }

    /// Approximate in-memory footprint, for the `bytes` gauge.
    fn approx_bytes(&self) -> u64 {
        let fixed = 7 * 8; // version, confidence, provenance, two biases
        let samples = self.samples.len() * 24;
        let rows = (self.power_row.factors().len() + self.perf_row.factors().len()) * 8;
        (fixed + samples + rows) as u64
    }
}

/// A store entry in transit: the fingerprint plus the full profile.
/// These ride the cluster control plane's epoch-stamped messages.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDigest {
    /// Content address of the workload.
    pub fingerprint: AppFingerprint,
    /// The profile replica being propagated.
    pub profile: StoredProfile,
}

/// Tuning for a [`ProfileStore`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Maximum number of entries before LRU eviction kicks in.
    pub capacity: usize,
    /// Minimum *effective* confidence for a lookup to hit.
    pub confidence_threshold: f64,
    /// Geometric decay of confidence per epoch of age.
    pub decay_per_epoch: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            confidence_threshold: 0.5,
            decay_per_epoch: 0.95,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    profile: StoredProfile,
    touch: u64,
}

/// Probe accounting split by how the probe points were satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeSplit {
    /// Probes run with no usable prior (cold admission).
    pub cold: u64,
    /// Probes run during a warm admission (prior existed but did not
    /// cover these points).
    pub warm: u64,
    /// Probe points satisfied from the store without running anything.
    pub skipped: u64,
}

impl ProbeSplit {
    /// Probes actually executed (cold + warm).
    pub fn measured(&self) -> u64 {
        self.cold + self.warm
    }

    /// All probe points the schedules called for, run or not.
    pub fn scheduled(&self) -> u64 {
        self.cold + self.warm + self.skipped
    }

    /// Component-wise sum, for fleet-wide aggregation.
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            cold: self.cold + other.cold,
            warm: self.warm + other.warm,
            skipped: self.skipped + other.skipped,
        }
    }
}

/// The versioned, bounded, mergeable profile store.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileStore {
    config: StoreConfig,
    epoch: u64,
    clock: u64,
    entries: BTreeMap<AppFingerprint, Entry>,
    stats: ProfileStoreStats,
}

impl Default for ProfileStore {
    fn default() -> Self {
        Self::new(StoreConfig::default())
    }
}

impl ProfileStore {
    /// An empty store with the given tuning.
    pub fn new(config: StoreConfig) -> Self {
        Self {
            config,
            epoch: 0,
            clock: 0,
            entries: BTreeMap::new(),
            stats: ProfileStoreStats::default(),
        }
    }

    /// The store's tuning.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// Number of entries currently held (tombstones included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no entries at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Advances the store's epoch (monotonic; older values are ignored).
    /// Confidence decay is measured against this.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// The store's current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Event counters plus the byte gauge.
    pub fn stats(&self) -> ProfileStoreStats {
        self.stats
    }

    /// Confidence after age decay:
    /// `confidence × decay^(store_epoch − measured_epoch)`.
    pub fn effective_confidence(&self, profile: &StoredProfile) -> f64 {
        let age = self.epoch.saturating_sub(profile.provenance.epoch);
        profile.confidence
            * self
                .config
                .decay_per_epoch
                .powi(age.min(i32::MAX as u64) as i32)
    }

    /// Inserts or merges a profile. Returns `true` if the stored entry
    /// changed (new entry, or the incoming replica won the merge).
    pub fn publish(&mut self, fingerprint: AppFingerprint, profile: StoredProfile) -> bool {
        self.publish_cow(fingerprint, Cow::Owned(profile))
    }

    /// [`ProfileStore::publish`] for a borrowed replica: it is cloned
    /// only when it is stored. Every call counts a merge (or insert),
    /// advances the clock and refreshes recency, won or lost.
    fn publish_cow(
        &mut self,
        fingerprint: AppFingerprint,
        profile: Cow<'_, StoredProfile>,
    ) -> bool {
        self.clock += 1;
        let touch = self.clock;
        let changed = match self.entries.get_mut(&fingerprint) {
            Some(entry) => {
                self.stats.merges += 1;
                entry.touch = touch;
                if entry.profile.loses_to(&profile) {
                    let changed = entry.profile != *profile;
                    self.stats.bytes -= entry.profile.approx_bytes();
                    self.stats.bytes += profile.approx_bytes();
                    entry.profile = profile.into_owned();
                    changed
                } else {
                    // The stored replica stays. "Changed" means the
                    // merge result differs from the stored replica under
                    // `==`, which here holds only when a NaN field makes
                    // the replica unequal to itself.
                    entry.profile.has_nan()
                }
            }
            None => {
                self.stats.inserts += 1;
                let profile = profile.into_owned();
                self.stats.bytes += entry_bytes(&profile);
                self.entries.insert(fingerprint, Entry { profile, touch });
                true
            }
        };
        self.evict_to_capacity();
        changed
    }

    /// Merges a batch of digests (e.g. one control-plane message's
    /// payload). Returns how many entries changed. A replica that loses
    /// its merge is never copied.
    pub fn merge_digests(&mut self, digests: &[ProfileDigest]) -> usize {
        digests
            .iter()
            .filter(|d| self.publish_cow(d.fingerprint, Cow::Borrowed(&d.profile)))
            .count()
    }

    /// Looks up a profile usable for warm-start admission: present, not
    /// a tombstone, and effective confidence at or above the threshold.
    /// Counts a hit or miss and refreshes recency on hit.
    pub fn confident(&mut self, fingerprint: AppFingerprint) -> Option<StoredProfile> {
        let hit = self.entries.get(&fingerprint).and_then(|entry| {
            let usable = !entry.profile.is_tombstone()
                && self.effective_confidence(&entry.profile) >= self.config.confidence_threshold;
            usable.then(|| entry.profile.clone())
        });
        match hit {
            Some(profile) => {
                self.clock += 1;
                let clock = self.clock;
                if let Some(entry) = self.entries.get_mut(&fingerprint) {
                    entry.touch = clock;
                }
                self.stats.hits += 1;
                Some(profile)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Peeks at the stored replica without stats or recency effects.
    pub fn peek(&self, fingerprint: AppFingerprint) -> Option<&StoredProfile> {
        self.entries.get(&fingerprint).map(|e| &e.profile)
    }

    /// Tombstones an entry after an E4 drift event. The tombstone's
    /// version is one past the stored replica's, so it wins merges
    /// against every copy of the stale profile still circulating; a
    /// subsequent recalibration publishes at version+2 and wins back.
    /// Returns the tombstone digest to propagate, or `None` if the
    /// fingerprint is unknown here.
    pub fn invalidate(&mut self, fingerprint: AppFingerprint) -> Option<ProfileDigest> {
        let entry = self.entries.get_mut(&fingerprint)?;
        if !entry.profile.is_tombstone() {
            self.stats.invalidations += 1;
        }
        let tomb = StoredProfile::tombstone(entry.profile.version + 1, self.epoch);
        if entry.profile.loses_to(&tomb) {
            self.stats.bytes -= entry.profile.approx_bytes();
            self.stats.bytes += tomb.approx_bytes();
            entry.profile = tomb;
        }
        self.clock += 1;
        entry.touch = self.clock;
        Some(ProfileDigest {
            fingerprint,
            profile: entry.profile.clone(),
        })
    }

    /// Every entry as a digest, in fingerprint order.
    pub fn digests(&self) -> Vec<ProfileDigest> {
        self.entries
            .iter()
            .map(|(fp, e)| ProfileDigest {
                fingerprint: *fp,
                profile: e.profile.clone(),
            })
            .collect()
    }

    /// Evicts least-recently-used entries down to capacity, never
    /// evicting the entry with the highest effective confidence (ties
    /// broken toward the smaller fingerprint).
    fn evict_to_capacity(&mut self) {
        while self.entries.len() > self.config.capacity {
            let protected = self
                .entries
                .iter()
                .max_by(|(fa, a), (fb, b)| {
                    self.effective_confidence(&a.profile)
                        .total_cmp(&self.effective_confidence(&b.profile))
                        .then(fb.cmp(fa)) // prefer the smaller fingerprint
                })
                .map(|(fp, _)| *fp);
            let victim = self
                .entries
                .iter()
                .filter(|(fp, _)| Some(**fp) != protected)
                .min_by(|(fa, a), (fb, b)| a.touch.cmp(&b.touch).then(fa.cmp(fb)))
                .map(|(fp, _)| *fp);
            match victim.and_then(|fp| self.entries.remove(&fp)) {
                Some(evicted) => {
                    self.stats.bytes -= entry_bytes(&evicted.profile);
                    self.stats.evictions += 1;
                }
                None => break, // capacity 0 with one protected entry
            }
        }
    }

    /// The store a restarted node or a standby manager boots from: the
    /// same tuning, epoch, clock, entries (with their recency) and byte
    /// gauge, with the event counters back at zero (they describe a
    /// process, not the data).
    pub fn rebooted(&self) -> Self {
        Self {
            stats: ProfileStoreStats {
                bytes: self.stats.bytes,
                ..ProfileStoreStats::default()
            },
            ..self.clone()
        }
    }
}

/// One entry's share of the `bytes` gauge: the profile plus the key
/// and recency stamp.
fn entry_bytes(profile: &StoredProfile) -> u64 {
    profile.approx_bytes() + 16
}

/// Appends the canonical serialization of `p` to `out`. Floats use
/// `Display`: the shortest decimal that reads back to the same bits,
/// with `NaN`, `inf` and `-inf` for the non-finite values.
fn write_profile(out: &mut String, p: &StoredProfile) {
    let _ = write!(
        out,
        "{{\"version\":{},\"confidence\":{},\"samples\":[",
        p.version, p.confidence
    );
    for (i, s) in p.samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{},{}]", s.col, s.power_w, s.perf);
    }
    out.push_str("],\"power_row\":");
    write_row(out, &p.power_row);
    out.push_str(",\"perf_row\":");
    write_row(out, &p.perf_row);
    let _ = write!(
        out,
        ",\"provenance\":{{\"server\":{},\"epoch\":{},\"probes\":{}}}}}",
        p.provenance.server, p.provenance.epoch, p.provenance.probes
    );
}

fn write_row(out: &mut String, row: &FoldedRow) {
    let _ = write!(out, "{{\"bias\":{},\"factors\":[", row.bias());
    for (i, f) in row.factors().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{f}");
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(version: u64, confidence: f64, epoch: u64) -> StoredProfile {
        StoredProfile {
            version,
            confidence,
            samples: vec![
                ProbeSample {
                    col: 3,
                    power_w: 11.5,
                    perf: 420.0,
                },
                ProbeSample {
                    col: 17,
                    power_w: 19.25,
                    perf: 610.0,
                },
            ],
            power_row: FoldedRow::new(0.125, vec![0.5, -1.5, 2.0]),
            perf_row: FoldedRow::new(-0.25, vec![1.0, 0.0, -0.75]),
            provenance: Provenance {
                server: 2,
                epoch,
                probes: 2,
            },
        }
    }

    fn fp(n: u64) -> AppFingerprint {
        AppFingerprint::from_raw(n)
    }

    #[test]
    fn publish_then_confident_hits() {
        let mut store = ProfileStore::default();
        assert!(store.publish(fp(1), profile(1, 0.9, 0)));
        assert_eq!(store.confident(fp(1)), Some(profile(1, 0.9, 0)));
        assert_eq!(store.confident(fp(2)), None);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert!(stats.bytes > 0);
    }

    #[test]
    fn low_confidence_misses() {
        let mut store = ProfileStore::default();
        store.publish(fp(1), profile(1, 0.3, 0));
        assert_eq!(store.confident(fp(1)), None);
        assert_eq!(store.stats().misses, 1);
    }

    #[test]
    fn confidence_decays_with_epoch_age() {
        let mut store = ProfileStore::new(StoreConfig {
            decay_per_epoch: 0.5,
            confidence_threshold: 0.5,
            ..StoreConfig::default()
        });
        store.publish(fp(1), profile(1, 0.9, 0));
        assert!(store.confident(fp(1)).is_some());
        // After one epoch: 0.9 × 0.5 = 0.45 < 0.5.
        store.set_epoch(1);
        assert!(store.confident(fp(1)).is_none());
    }

    #[test]
    fn set_epoch_is_monotonic() {
        let mut store = ProfileStore::default();
        store.set_epoch(5);
        store.set_epoch(2);
        assert_eq!(store.epoch(), 5);
    }

    #[test]
    fn merge_prefers_higher_version_regardless_of_order() {
        let old = profile(1, 0.99, 0);
        let new = profile(2, 0.6, 1);
        assert_eq!(old.clone().merge(new.clone()), new);
        assert_eq!(new.clone().merge(old), new);
    }

    #[test]
    fn merge_same_version_prefers_higher_confidence() {
        let weak = profile(1, 0.6, 0);
        let strong = profile(1, 0.9, 0);
        assert_eq!(weak.clone().merge(strong.clone()), strong);
        assert_eq!(strong.clone().merge(weak), strong);
    }

    #[test]
    fn merge_commutes_for_replicas_differing_in_a_nan_sign() {
        // Both replicas serialize the bias as `NaN`; merge must still
        // pick the same one whichever side it starts from.
        let with_bias = |bias: f64| {
            let mut p = profile(1, 0.9, 0);
            p.power_row = FoldedRow::new(bias, p.power_row.factors().to_vec());
            p
        };
        let (a, b) = (with_bias(f64::NAN), with_bias(-f64::NAN));
        assert_eq!(a.canonical(), b.canonical());
        let ab = a.clone().merge(b.clone()).power_row.bias().to_bits();
        let ba = b.merge(a).power_row.bias().to_bits();
        assert_eq!(ab, ba, "{ab:#x} vs {ba:#x}");
    }

    #[test]
    fn rows_splitting_the_same_floats_differently_are_not_replicas() {
        // The float fields read 0.5, 1.0, 1.0 in both, split between the
        // rows at different places.
        let mut a = profile(1, 0.9, 0);
        a.power_row = FoldedRow::new(0.5, vec![1.0]);
        a.perf_row = FoldedRow::new(1.0, Vec::new());
        let mut b = a.clone();
        b.power_row = FoldedRow::new(0.5, Vec::new());
        b.perf_row = FoldedRow::new(1.0, vec![1.0]);
        assert_ne!(a.rank(&b), std::cmp::Ordering::Equal);
        assert_eq!(a.rank(&b), b.rank(&a).reverse());
    }

    #[test]
    fn invalidate_tombstones_and_tombstone_wins_merges() {
        let mut store = ProfileStore::default();
        store.publish(fp(1), profile(3, 0.9, 0));
        let tomb = store.invalidate(fp(1)).unwrap();
        assert!(tomb.profile.is_tombstone());
        assert_eq!(tomb.profile.version, 4);
        assert_eq!(store.confident(fp(1)), None);
        // A delayed copy of the stale profile cannot resurrect it...
        store.publish(fp(1), profile(3, 0.9, 0));
        assert_eq!(store.confident(fp(1)), None);
        // ...but a fresh recalibration at version+2 wins back.
        store.publish(fp(1), profile(5, 0.8, 1));
        store.set_epoch(1);
        assert!(store.confident(fp(1)).is_some());
        assert_eq!(store.stats().invalidations, 1);
    }

    #[test]
    fn invalidating_unknown_fingerprint_is_a_noop() {
        let mut store = ProfileStore::default();
        assert!(store.invalidate(fp(99)).is_none());
        assert_eq!(store.stats().invalidations, 0);
    }

    #[test]
    fn lru_eviction_spares_the_highest_confidence_entry() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 2,
            ..StoreConfig::default()
        });
        // Oldest entry has the highest confidence: LRU alone would evict
        // it, but the confidence guard must protect it.
        store.publish(fp(1), profile(1, 0.99, 0));
        store.publish(fp(2), profile(1, 0.4, 0));
        store.publish(fp(3), profile(1, 0.5, 0));
        assert_eq!(store.len(), 2);
        assert!(store.peek(fp(1)).is_some(), "highest confidence evicted");
        assert!(store.peek(fp(2)).is_none(), "LRU entry survived");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut store = ProfileStore::new(StoreConfig {
            capacity: 3,
            confidence_threshold: 0.0,
            ..StoreConfig::default()
        });
        store.publish(fp(1), profile(1, 0.6, 0));
        store.publish(fp(2), profile(1, 0.9, 0)); // protected (highest confidence)
        store.publish(fp(3), profile(1, 0.5, 0));
        // Without this hit, fp(1) would be the LRU victim below.
        let _ = store.confident(fp(1));
        store.publish(fp(4), profile(1, 0.5, 0));
        assert!(store.peek(fp(1)).is_some(), "recently-hit entry evicted");
        assert!(store.peek(fp(2)).is_some(), "protected entry evicted");
        assert!(store.peek(fp(3)).is_none(), "LRU entry survived");
        assert!(store.peek(fp(4)).is_some());
    }

    #[test]
    fn merge_digests_counts_changes() {
        let mut a = ProfileStore::default();
        let mut b = ProfileStore::default();
        a.publish(fp(1), profile(2, 0.9, 0));
        b.publish(fp(1), profile(1, 0.9, 0));
        b.publish(fp(2), profile(1, 0.7, 0));
        let changed = a.merge_digests(&b.digests());
        assert_eq!(changed, 1, "only fp(2) should change a");
        assert_eq!(a.peek(fp(1)).unwrap().version, 2);
        // Converged: replaying either side's digests changes nothing.
        assert_eq!(a.merge_digests(&b.digests()), 0);
        assert_eq!(b.merge_digests(&a.digests()), 1, "fp(1) catches up to v2");
        assert_eq!(b.merge_digests(&a.digests()), 0);
        assert_eq!(a.digests(), b.digests());
    }

    #[test]
    fn rebooted_store_keeps_entries_recency_epoch_and_bytes() {
        let config = StoreConfig {
            capacity: 8,
            confidence_threshold: 0.45,
            decay_per_epoch: 0.875,
        };
        let mut store = ProfileStore::new(config);
        store.set_epoch(3);
        store.publish(fp(0xdead_beef_dead_beef), profile(2, 0.9, 1));
        store.publish(fp(7), profile(1, 0.3, 3));
        store.invalidate(fp(7));
        assert!(store.confident(fp(0xdead_beef_dead_beef)).is_some());
        let rebooted = store.rebooted();
        assert_eq!(rebooted.config(), config);
        assert_eq!(rebooted.epoch(), 3);
        assert_eq!((rebooted.clock, store.clock), (4, 4));
        assert_eq!(rebooted.entries, store.entries, "entries and recency");
        assert_eq!(store.stats().total_events(), 4);
        assert_eq!(
            rebooted.stats(),
            ProfileStoreStats {
                bytes: store.stats().bytes,
                ..ProfileStoreStats::default()
            },
            "every counter restarts at zero"
        );
    }

    #[test]
    fn probe_split_arithmetic() {
        let a = ProbeSplit {
            cold: 10,
            warm: 3,
            skipped: 7,
        };
        let b = ProbeSplit {
            cold: 1,
            warm: 2,
            skipped: 3,
        };
        assert_eq!(a.measured(), 13);
        assert_eq!(a.scheduled(), 20);
        let m = a.merged(&b);
        assert_eq!((m.cold, m.warm, m.skipped), (11, 5, 10));
    }

    /// The clone-merge-recount code paths the store's shortcuts
    /// replaced, kept as references: each property checks a shortcut
    /// against the code it stands in for.
    mod matches_reference {
        use super::*;
        use powermed_units::rng::SplitMix;
        use std::cmp::Ordering;

        /// The merge order with the canonical serialization, then every
        /// field's bits, as the tie-breaks.
        fn rank_reference(a: &StoredProfile, b: &StoredProfile) -> Ordering {
            a.version
                .cmp(&b.version)
                .then(a.confidence.total_cmp(&b.confidence))
                .then(a.samples.len().cmp(&b.samples.len()))
                .then(a.provenance.epoch.cmp(&b.provenance.epoch))
                .then(a.provenance.server.cmp(&b.provenance.server))
                .then_with(|| a.canonical().cmp(&b.canonical()))
                .then_with(|| bits(a).cmp(&bits(b)))
        }

        fn merge_reference(a: StoredProfile, b: StoredProfile) -> StoredProfile {
            if rank_reference(&b, &a) == Ordering::Greater {
                b
            } else {
                a
            }
        }

        /// The byte gauge summed over every entry.
        fn recount_bytes(store: &ProfileStore) -> u64 {
            store
                .entries
                .values()
                .map(|e| e.profile.approx_bytes() + 16)
                .sum()
        }

        /// LRU eviction without byte accounting (the reference recounts).
        fn evict_reference(store: &mut ProfileStore) {
            while store.entries.len() > store.config.capacity {
                let protected = store
                    .entries
                    .iter()
                    .max_by(|(fa, a), (fb, b)| {
                        store
                            .effective_confidence(&a.profile)
                            .total_cmp(&store.effective_confidence(&b.profile))
                            .then(fb.cmp(fa))
                    })
                    .map(|(fp, _)| *fp);
                let victim = store
                    .entries
                    .iter()
                    .filter(|(fp, _)| Some(**fp) != protected)
                    .min_by(|(fa, a), (fb, b)| a.touch.cmp(&b.touch).then(fa.cmp(fb)))
                    .map(|(fp, _)| *fp);
                match victim {
                    Some(fp) => {
                        store.entries.remove(&fp);
                        store.stats.evictions += 1;
                    }
                    None => break,
                }
            }
        }

        /// `publish` as it cloned the stored replica, merged the copy,
        /// compared the result and recounted the byte gauge.
        fn publish_reference(
            store: &mut ProfileStore,
            fingerprint: AppFingerprint,
            profile: StoredProfile,
        ) -> bool {
            store.clock += 1;
            let touch = store.clock;
            let changed = match store.entries.get_mut(&fingerprint) {
                Some(entry) => {
                    store.stats.merges += 1;
                    entry.touch = touch;
                    let before = entry.profile.clone();
                    let merged = merge_reference(before.clone(), profile);
                    let changed = merged != before;
                    entry.profile = merged;
                    changed
                }
                None => {
                    store.stats.inserts += 1;
                    store.entries.insert(fingerprint, Entry { profile, touch });
                    true
                }
            };
            evict_reference(store);
            store.stats.bytes = recount_bytes(store);
            changed
        }

        fn invalidate_reference(
            store: &mut ProfileStore,
            fingerprint: AppFingerprint,
        ) -> Option<ProfileDigest> {
            let epoch = store.epoch;
            let entry = store.entries.get_mut(&fingerprint)?;
            if !entry.profile.is_tombstone() {
                store.stats.invalidations += 1;
            }
            let tomb = StoredProfile::tombstone(entry.profile.version + 1, epoch);
            entry.profile = merge_reference(entry.profile.clone(), tomb);
            store.clock += 1;
            entry.touch = store.clock;
            let digest = ProfileDigest {
                fingerprint,
                profile: entry.profile.clone(),
            };
            store.stats.bytes = recount_bytes(store);
            Some(digest)
        }

        /// Every float as its bits, so NaN payloads and signed zeros
        /// count.
        fn bits(p: &StoredProfile) -> Vec<u64> {
            let mut out = vec![p.version, p.confidence.to_bits()];
            for s in &p.samples {
                out.extend([s.col as u64, s.power_w.to_bits(), s.perf.to_bits()]);
            }
            for row in [&p.power_row, &p.perf_row] {
                out.push(row.bias().to_bits());
                out.extend(row.factors().iter().map(|f| f.to_bits()));
                out.push(u64::MAX); // row separator
            }
            let prov = p.provenance;
            out.extend([prov.server, prov.epoch, prov.probes]);
            out
        }

        /// Float values that stress the tie-break: signed zeros, two
        /// NaN payloads, an infinity and a few ordinary values.
        const POOL: [f64; 7] = [0.0, -0.0, f64::NAN, 0.5, 0.9, f64::INFINITY, 1.0];

        struct Draws(SplitMix);

        impl Draws {
            fn below(&mut self, n: u64) -> u64 {
                self.0.below(n)
            }

            fn float(&mut self) -> f64 {
                match self.below(POOL.len() as u64 + 1) as usize {
                    // A NaN with a payload other than `f64::NAN`'s.
                    i if i == POOL.len() => f64::from_bits(f64::NAN.to_bits() | 1),
                    i => POOL[i],
                }
            }

            fn profile(&mut self) -> StoredProfile {
                let samples = (0..self.below(3))
                    .map(|i| ProbeSample {
                        col: (i + self.below(2)) as usize,
                        power_w: self.float(),
                        perf: self.float(),
                    })
                    .collect();
                let mut row = || {
                    let factors = (0..self.below(3)).map(|_| self.float()).collect();
                    FoldedRow::new(self.float(), factors)
                };
                let (power_row, perf_row) = (row(), row());
                StoredProfile {
                    version: self.below(3),
                    confidence: self.float(),
                    samples,
                    power_row,
                    perf_row,
                    provenance: Provenance {
                        server: self.below(2),
                        epoch: self.below(2),
                        probes: self.below(2),
                    },
                }
            }

            /// A value that ties with `x` in every comparison but the
            /// serialization or the bits: the other signed zero, the
            /// other NaN payload, or (half the time) a fresh draw.
            fn twin(&mut self, x: f64) -> f64 {
                if self.below(2) == 0 {
                    return self.float();
                }
                match x {
                    _ if x.is_nan() => f64::from_bits(x.to_bits() ^ 1),
                    0.0 => -x,
                    _ => x,
                }
            }

            /// A replica of `p` with at most one field redrawn: ties
            /// that only the last field (or nothing) breaks.
            fn near(&mut self, p: &StoredProfile) -> StoredProfile {
                let mut q = p.clone();
                match self.below(8) {
                    0 => q.confidence = self.twin(p.confidence),
                    1 => {
                        if let Some(s) = q.samples.first_mut() {
                            s.power_w = self.twin(s.power_w);
                        }
                    }
                    2 => {
                        let bias = self.twin(p.power_row.bias());
                        q.power_row = FoldedRow::new(bias, p.power_row.factors().to_vec());
                    }
                    3 => {
                        let mut factors = p.perf_row.factors().to_vec();
                        match factors.last_mut() {
                            Some(f) => *f = self.twin(*f),
                            None => factors.push(self.float()),
                        }
                        q.perf_row = FoldedRow::new(p.perf_row.bias(), factors);
                    }
                    4 => q.provenance.probes = self.below(3),
                    _ => {} // bit-identical
                }
                q
            }

            fn pair(&mut self) -> (StoredProfile, StoredProfile) {
                let a = self.profile();
                let b = if self.below(4) == 0 {
                    self.profile()
                } else {
                    self.near(&a)
                };
                (a, b)
            }
        }

        /// Both stores hold the same tuning, epoch, clock, entries,
        /// recency, counters and bits.
        fn same_store(a: &ProfileStore, b: &ProfileStore) -> Result<(), TestCaseError> {
            prop_assert_eq!(a.stats(), b.stats());
            let state = |s: &ProfileStore| {
                let c = s.config;
                let entries: Vec<(AppFingerprint, u64, Vec<u64>)> = s
                    .entries
                    .iter()
                    .map(|(fp, e)| (*fp, e.touch, bits(&e.profile)))
                    .collect();
                let tuning = (
                    c.capacity,
                    c.confidence_threshold.to_bits(),
                    c.decay_per_epoch.to_bits(),
                );
                (tuning, s.epoch, s.clock, entries)
            };
            prop_assert_eq!(state(a), state(b));
            Ok(())
        }

        use proptest::prelude::*;

        proptest! {
            // Release builds (CI's "Test (release)" step) run 1024
            // cases; debug builds keep the shim's default 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// (a) The bit-identity shortcut ranks and merges every pair
            /// exactly as the canonical-only tie-break does.
            #[test]
            fn prop_rank_and_merge_match_the_canonical_tie_break(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));
                for _ in 0..16 {
                    let (a, b) = draws.pair();
                    prop_assert_eq!(a.rank(&b), rank_reference(&a, &b));
                    prop_assert_eq!(b.rank(&a), rank_reference(&b, &a));
                    prop_assert_eq!(a.rank(&a), Ordering::Equal);
                    let merged = a.clone().merge(b.clone());
                    let reference = merge_reference(a.clone(), b.clone());
                    prop_assert_eq!(bits(&merged), bits(&reference));
                }
            }

            /// (b) Publishing by reference with an incrementally kept
            /// byte gauge matches the clone-merge-recount store after
            /// random publish, batch, invalidate, lookup, eviction and
            /// restore sequences: the same return values, entries,
            /// recency, counters and bytes.
            #[test]
            fn prop_store_matches_the_recounting_reference(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));
                let config = StoreConfig {
                    capacity: 1 + draws.below(4) as usize,
                    confidence_threshold: 0.4,
                    decay_per_epoch: 0.9,
                };
                let mut store = ProfileStore::new(config);
                let mut reference = ProfileStore::new(config);
                for _ in 0..40 {
                    let fp = fp(draws.below(5));
                    match draws.below(7) {
                        0 | 1 => {
                            let p = draws.profile();
                            let changed = store.publish(fp, p.clone());
                            prop_assert_eq!(changed, publish_reference(&mut reference, fp, p));
                        }
                        2 => {
                            // A wave of replicas, some copies of what is
                            // stored (the redelivery case).
                            let batch: Vec<ProfileDigest> = (0..draws.below(4))
                                .map(|_| {
                                    let fingerprint = AppFingerprint::from_raw(draws.below(5));
                                    let profile = match store.peek(fingerprint) {
                                        Some(held) if draws.below(2) == 0 => draws.near(held),
                                        _ => draws.profile(),
                                    };
                                    ProfileDigest { fingerprint, profile }
                                })
                                .collect();
                            let changed = batch
                                .iter()
                                .filter(|d| publish_reference(&mut reference, d.fingerprint, d.profile.clone()))
                                .count();
                            prop_assert_eq!(store.merge_digests(&batch), changed);
                        }
                        3 => {
                            let digest = store.invalidate(fp);
                            let expected = invalidate_reference(&mut reference, fp);
                            prop_assert_eq!(digest.map(|d| bits(&d.profile)), expected.map(|d| bits(&d.profile)));
                        }
                        4 => {
                            let hit = store.confident(fp).map(|p| bits(&p));
                            prop_assert_eq!(hit, reference.confident(fp).map(|p| bits(&p)));
                        }
                        5 => {
                            let epoch = draws.below(3);
                            store.set_epoch(epoch);
                            reference.set_epoch(epoch);
                        }
                        _ => {
                            // Restart both from a by-value snapshot:
                            // the counters restart, the gauge carries
                            // over.
                            let restored = store.rebooted();
                            prop_assert_eq!(restored.stats().bytes, recount_bytes(&restored));
                            prop_assert_eq!(restored.stats().bytes, store.stats().bytes);
                            store = restored;
                            reference = reference.rebooted();
                            reference.stats.bytes = recount_bytes(&reference);
                        }
                    }
                    prop_assert_eq!(store.stats().bytes, recount_bytes(&store));
                    same_store(&store, &reference)?;
                }
            }
        }
    }
}
