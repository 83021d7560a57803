//! The paper's Table II: fifteen two-application co-location mixes.

use crate::catalog;
use crate::profile::AppProfile;

/// Identifier of a Table II mix (1-based, as in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixId(pub usize);

impl core::fmt::Display for MixId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "mix-{}", self.0)
    }
}

/// A two-application co-location from Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// The mix number (1–15).
    pub id: MixId,
    /// First co-located application.
    pub app1: AppProfile,
    /// Second co-located application.
    pub app2: AppProfile,
}

impl Mix {
    /// Both applications as a slice-friendly pair.
    pub fn apps(&self) -> [&AppProfile; 2] {
        [&self.app1, &self.app2]
    }

    /// A human-readable label like `"mix-1 (stream + kmeans)"`.
    pub fn label(&self) -> String {
        format!("{} ({} + {})", self.id, self.app1.name(), self.app2.name())
    }
}

/// A pair of catalog constructors forming one Table II row.
type MixPair = (fn() -> AppProfile, fn() -> AppProfile);

/// Table II verbatim: the 15 non-latency-critical co-locations.
pub fn table2() -> Vec<Mix> {
    let pairs: [MixPair; 15] = [
        (catalog::stream, catalog::kmeans),       // 1
        (catalog::connected, catalog::kmeans),    // 2
        (catalog::stream, catalog::bfs),          // 3
        (catalog::facesim, catalog::bfs),         // 4
        (catalog::ferret, catalog::betweenness),  // 5
        (catalog::ferret, catalog::pagerank),     // 6
        (catalog::facesim, catalog::betweenness), // 7
        (catalog::x264, catalog::triangle),       // 8
        (catalog::apr, catalog::connected),       // 9
        (catalog::pagerank, catalog::kmeans),     // 10
        (catalog::ferret, catalog::sssp),         // 11
        (catalog::facesim, catalog::x264),        // 12
        (catalog::apr, catalog::kmeans),          // 13
        (catalog::x264, catalog::sssp),           // 14
        (catalog::apr, catalog::x264),            // 15
    ];
    pairs
        .iter()
        .enumerate()
        .map(|(i, (a, b))| Mix {
            id: MixId(i + 1),
            app1: a(),
            app2: b(),
        })
        .collect()
}

/// Looks up one Table II mix by its 1-based id.
pub fn mix(id: usize) -> Option<Mix> {
    table2().into_iter().find(|m| m.id == MixId(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_mixes() {
        assert_eq!(table2().len(), 15);
    }

    #[test]
    fn ids_are_one_based_and_sequential() {
        for (i, m) in table2().iter().enumerate() {
            assert_eq!(m.id, MixId(i + 1));
        }
    }

    #[test]
    fn spot_check_against_table_two() {
        let m1 = mix(1).unwrap();
        assert_eq!(m1.app1.name(), "stream");
        assert_eq!(m1.app2.name(), "kmeans");
        let m10 = mix(10).unwrap();
        assert_eq!(m10.app1.name(), "pagerank");
        assert_eq!(m10.app2.name(), "kmeans");
        let m14 = mix(14).unwrap();
        assert_eq!(m14.app1.name(), "x264");
        assert_eq!(m14.app2.name(), "sssp");
        assert!(mix(0).is_none());
        assert!(mix(16).is_none());
    }

    #[test]
    fn labels_and_apps() {
        let m = mix(1).unwrap();
        assert_eq!(m.label(), "mix-1 (stream + kmeans)");
        assert_eq!(m.apps()[0].name(), "stream");
        assert_eq!(m.apps()[1].name(), "kmeans");
    }

    #[test]
    fn every_mix_pairs_distinct_apps() {
        for m in table2() {
            assert_ne!(m.app1.name(), m.app2.name(), "{}", m.label());
        }
    }
}
