//! Content-addressed workload identity.
//!
//! The knowledge plane keys stored profiles by *what the workload is*,
//! not what a server happened to name it: an [`AppFingerprint`] is an
//! FNV-1a hash of the workload's observable signature (its `Debug`
//! rendering, which covers every field of the plain-data profile type —
//! the same idiom the measurement cache in `powermed-core` uses for its
//! `(spec, profile)` keys). Two servers admitting byte-identical
//! profiles compute the same fingerprint and therefore share one store
//! entry, while any change to the profile's shape lands elsewhere.

use std::fmt::{self, Debug};

use powermed_units::hash::Fnv1a;

/// A content-addressed workload identity: FNV-1a over the workload's
/// observable signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppFingerprint(u64);

impl AppFingerprint {
    /// Fingerprints `value` by hashing its `Debug` rendering.
    pub fn of<T: Debug>(value: &T) -> Self {
        Self(Fnv1a::of_debug(value))
    }

    /// Rebuilds a fingerprint from its raw hash.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw 64-bit hash.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for AppFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_share_a_fingerprint() {
        let a = AppFingerprint::of(&("stream", 4, 1.5f64));
        let b = AppFingerprint::of(&("stream", 4, 1.5f64));
        assert_eq!(a, b);
    }

    #[test]
    fn different_values_differ() {
        let a = AppFingerprint::of(&("stream", 4));
        let b = AppFingerprint::of(&("stream", 5));
        assert_ne!(a, b);
    }

    #[test]
    fn raw_round_trips() {
        let a = AppFingerprint::of(&"kmeans");
        assert_eq!(AppFingerprint::from_raw(a.value()), a);
    }

    #[test]
    fn displays_as_fixed_width_hex() {
        let s = AppFingerprint::from_raw(0xab).to_string();
        assert_eq!(s, "00000000000000ab");
    }
}
