//! Deterministic hashing shared by the workspace.
//!
//! Digests, content fingerprints and determinism witnesses all use
//! 64-bit FNV-1a, defined here once so every crate folds
//! bit-identically. The splitmix64 step behind [`crate::rng::SplitMix`]
//! lives here too.

use std::fmt::{self, Debug, Write};

/// The FNV-1a 64-bit offset basis (the empty input's hash).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The splitmix64 increment (the golden-ratio gamma), also used to
/// spread channel tags and seeds before they are combined.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// A running 64-bit FNV-1a hash.
///
/// [`Fnv1a::write`] folds bytes one at a time (standard FNV-1a);
/// [`Fnv1a::write_word`] folds a whole 64-bit word in one step, the
/// cheaper variant the determinism witnesses use for counters and
/// `f64` bit patterns. It also implements [`fmt::Write`], so `write!`
/// hashes formatter output directly with no intermediate `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hash at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Continues folding from an existing hash value.
    pub fn resume(state: u64) -> Self {
        Self(state)
    }

    /// Folds `bytes`, one byte per step.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a whole 64-bit word in one step.
    pub fn write_word(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// FNV-1a of `value`'s `Debug` rendering, streamed through the
    /// formatter.
    pub fn of_debug<T: Debug + ?Sized>(value: &T) -> u64 {
        let mut h = Self::new();
        // Formatting into a hash never fails; a `Debug` impl that
        // reports an error is a bug in that impl.
        write!(h, "{value:?}").expect("debug formatting failed");
        h.finish()
    }
}

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Advances a splitmix64 `state` and returns its next output.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(Fnv1a::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn debug_rendering_hashes_like_its_bytes() {
        let mut h = Fnv1a::new();
        h.write(b"(1, \"x\")");
        assert_eq!(Fnv1a::of_debug(&(1, "x")), h.finish());
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation seeded with 0.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(&mut s), 0x6e78_9e6a_a1b9_65f4);
    }
}
