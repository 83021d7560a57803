//! Choosing which knob settings to measure online.
//!
//! When a new application arrives (event E2), the Accountant measures it
//! at a small fraction of the 432 settings and estimates the rest. Which
//! settings to measure matters: clustering samples in one grid corner
//! starves the model of signal. The sampler spreads a deterministic
//! backbone across the grid (always including the min and max settings,
//! which anchor the power scale) and fills the remainder with seeded
//! random picks.

use powermed_units::rng::SplitMix;

/// Picks grid columns to measure for a given sampling fraction.
#[derive(Debug, Clone)]
pub struct SparseSampler {
    columns: usize,
    seed: u64,
}

impl SparseSampler {
    /// Creates a sampler over a grid of `columns` settings.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is zero.
    pub fn new(columns: usize, seed: u64) -> Self {
        assert!(columns > 0, "grid must be non-empty");
        Self { columns, seed }
    }

    /// Number of samples for `fraction` of the grid (at least 2, at most
    /// all columns).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn sample_count(&self, fraction: f64) -> usize {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "sampling fraction in (0, 1]"
        );
        ((self.columns as f64 * fraction).round() as usize).clamp(2.min(self.columns), self.columns)
    }

    /// The columns to measure for `fraction` of the grid: an evenly
    /// spaced backbone (including both ends) plus seeded random fill,
    /// sorted ascending with no duplicates.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0, 1]`.
    pub fn columns_for(&self, fraction: f64) -> Vec<usize> {
        let n = self.sample_count(fraction);
        let mut picked = vec![false; self.columns];
        // Backbone: half the budget spread evenly, ends included. The
        // integer division can map two backbone slots onto one column at
        // small grids; deduping to the next free column keeps the
        // backbone at exactly `backbone` distinct anchors instead of
        // silently handing slots to the random fill.
        let backbone = (n / 2).max(2.min(n));
        for i in 0..backbone {
            let mut col = if backbone == 1 {
                0
            } else {
                (i * (self.columns - 1)) / (backbone - 1)
            };
            while picked[col] {
                col = (col + 1) % self.columns;
            }
            picked[col] = true;
        }
        // Random fill for the rest.
        let mut rng = SplitMix::new(self.seed);
        let mut remaining: Vec<usize> = (0..self.columns).filter(|c| !picked[*c]).collect();
        rng.shuffle(&mut remaining);
        let mut count = picked.iter().filter(|p| **p).count();
        #[allow(clippy::explicit_counter_loop)]
        for col in remaining {
            if count >= n {
                break;
            }
            picked[col] = true;
            count += 1;
        }
        picked
            .iter()
            .enumerate()
            .filter(|(_, p)| **p)
            .map(|(c, _)| c)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counts_scale_with_fraction() {
        let s = SparseSampler::new(432, 1);
        assert_eq!(s.sample_count(0.1), 43);
        assert_eq!(s.sample_count(1.0), 432);
        assert_eq!(s.sample_count(0.001), 2, "floor of two samples");
    }

    #[test]
    fn columns_include_grid_ends() {
        let s = SparseSampler::new(432, 1);
        let cols = s.columns_for(0.1);
        assert!(cols.contains(&0), "min setting anchors the scale");
        assert!(cols.contains(&431), "max setting anchors the scale");
    }

    #[test]
    fn columns_sorted_unique_and_right_sized() {
        let s = SparseSampler::new(100, 5);
        for frac in [0.05, 0.1, 0.25, 0.5, 1.0] {
            let cols = s.columns_for(frac);
            assert_eq!(cols.len(), s.sample_count(frac));
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "sorted, no duplicates");
            }
            assert!(cols.iter().all(|c| *c < 100));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = SparseSampler::new(50, 9).columns_for(0.2);
        let b = SparseSampler::new(50, 9).columns_for(0.2);
        assert_eq!(a, b);
        let c = SparseSampler::new(50, 10).columns_for(0.2);
        assert!(a != c || a.len() <= 4, "different seeds usually differ");
    }

    #[test]
    fn full_fraction_is_every_column() {
        let s = SparseSampler::new(12, 0);
        assert_eq!(s.columns_for(1.0), (0..12).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "sampling fraction")]
    fn zero_fraction_rejected() {
        let _ = SparseSampler::new(10, 0).sample_count(0.0);
    }

    #[test]
    fn tiny_grids_still_fill_the_whole_budget() {
        // Exhaustive over the small grids where backbone collisions are
        // conceivable: the returned set must always have exactly
        // sample_count(fraction) distinct columns.
        for cols in 1..=12usize {
            for seed in 0..8u64 {
                let s = SparseSampler::new(cols, seed);
                for pct in 1..=100u32 {
                    let frac = f64::from(pct) / 100.0;
                    let picked = s.columns_for(frac);
                    assert_eq!(
                        picked.len(),
                        s.sample_count(frac),
                        "cols={cols} seed={seed} frac={frac}"
                    );
                    assert!(picked.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_exact_budget_for_any_grid(cols in 2usize..500, frac in 0.01f64..1.0, seed in 0u64..100) {
            let s = SparseSampler::new(cols, seed);
            let picked = s.columns_for(frac);
            // Exactly the budget: duplicates anywhere in the selection
            // would shrink the effective sample below sample_count.
            prop_assert_eq!(picked.len(), s.sample_count(frac));
            prop_assert!(picked.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(picked.iter().all(|c| *c < cols));
        }
    }
}
