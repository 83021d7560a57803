//! The one exact apportionment DP: a multiple-choice knapsack over
//! budget levels, shared by the server's allocator and SLO planner (one
//! group per app, one choice per level) and the cluster's server split
//! (one group per server, one choice per cap).

/// A `keep` cell no choice combination reaches (its value is -inf).
const NO_CHOICE: u16 = u16::MAX;

/// The knapsack over fixed groups of `(need, value)` choices, built once
/// and split at any budget level: each group takes exactly one choice,
/// maximizing the summed value of choices whose needs fit the budget.
///
/// Layer `i` holds, for every budget level `b`, the best total value of
/// groups `0..=i` within `b` levels, and the choice group `i` takes
/// there. Choices are scanned in order and the first one to reach a
/// maximum wins ties. A choice is skipped where it needs more than `b`
/// levels or where `b − need` is not finite in the previous layer; a
/// cell with no usable choice is unreachable (`-inf`).
///
/// **Why one table serves every budget exactly.** Cell `b` of layer `i`
/// reads only cells `≤ b` of layer `i − 1`, so a table built to a larger
/// level holds bit-identical values, choices and tie-breaks at every
/// smaller level. Past the *saturation level* `S = Σ_i max_need_i`
/// nothing changes either: by induction, every cell `b ≥ S_i =
/// Σ_{j≤i} max_need_j` of layer `i` is the same, because each choice of
/// group `i` fits and each cell it reads, `b − need ≥ S_{i−1}`, is one
/// of the equal cells of layer `i − 1`. The backtrack from any `b ≥ S`
/// therefore takes the same choices as from `S`, so [`Self::build`]
/// stops at `S` and [`Self::split`] clamps larger levels to it.
///
/// **Why each layer stores only its band.** The same induction bounds
/// every layer from both sides. Below `L_i = Σ_{j≤i} min_need_j` every
/// cell of layer `i` is unreachable: each choice reads a cell below
/// `L_{i−1}`, unreachable in turn (a group without choices makes every
/// later cell unreachable). At or above `S_i` every cell equals the one
/// at `S_i`. So layer `i` stores only the cells `L_i..=min(S_i,
/// levels)`, a read of layer `i − 1` above its band is clamped to the
/// band's top, and [`Self::split`] clamps the same way as it backtracks.
/// The cluster's 100-server table, whose layer `i` spans the levels
/// `10·(i+1)..=23·(i+1)`, holds 66k cells instead of 230k.
#[derive(Debug, Clone)]
pub struct Knapsack {
    /// Each group's choice needs, for the backtrack.
    needs: Vec<Vec<usize>>,
    /// The highest budget level the table holds.
    levels: usize,
    /// Whether `levels` is the saturation level (see above).
    saturated: bool,
    /// Each layer's stored cells, in group order.
    bands: Vec<Band>,
    /// The last layer's best values over its band.
    best: Vec<f64>,
    /// Each layer's choices over its band, layer after layer
    /// ([`NO_CHOICE`] where the cell is unreachable).
    keep: Vec<u16>,
}

/// The band before the first group: the empty choice set is worth 0 at
/// every level.
const EMPTY_SET: Band = Band {
    lo: 0,
    top: 0,
    start: 0,
};

/// The levels one layer stores, `lo..=top`, and where they sit in
/// [`Knapsack::keep`].
#[derive(Debug, Clone, Copy)]
struct Band {
    /// `L_i`: every cell below it is unreachable. `usize::MAX` once a
    /// group without choices has made every cell unreachable.
    lo: usize,
    /// `min(S_i, levels)`: every cell above it equals the cell here.
    top: usize,
    /// Index of the cell at `lo` in `keep`.
    start: usize,
}

impl Band {
    /// The stored cell that level `b` reads, or `None` below the band
    /// (and everywhere when the band is empty).
    fn cell(self, b: usize) -> Option<usize> {
        (self.lo <= self.top && b >= self.lo).then(|| b.min(self.top) - self.lo)
    }

    /// How many cells the band stores.
    fn width(self) -> usize {
        if self.lo <= self.top {
            self.top - self.lo + 1
        } else {
            0
        }
    }
}

impl Knapsack {
    /// Runs the DP over `groups` up to budget level `levels`, or up to
    /// the saturation level if that is lower.
    ///
    /// # Panics
    ///
    /// Panics if a group has more than `u16::MAX − 1` choices.
    pub fn build(groups: &[impl AsRef<[(usize, f64)]>], levels: usize) -> Self {
        let needs: Vec<Vec<usize>> = groups
            .iter()
            .map(|group| {
                let n = group.as_ref().len();
                assert!(
                    n < usize::from(NO_CHOICE),
                    "a knapsack group holds at most 65534 choices, got {n}"
                );
                group.as_ref().iter().map(|&(need, _)| need).collect()
            })
            .collect();
        let saturation = needs
            .iter()
            .map(|n| n.iter().copied().max().unwrap_or(0))
            .fold(0usize, usize::saturating_add);
        let saturated = levels >= saturation;
        let levels = levels.min(saturation);
        let mut bands = Vec::with_capacity(groups.len());
        let mut keep = Vec::new();
        // Before the first group, every level holds the empty choice
        // set's value 0: one cell at level 0, clamped above.
        let mut prev_band = EMPTY_SET;
        let mut best = vec![0.0f64];
        let mut reach = 0usize;
        for (group, need) in groups.iter().zip(&needs) {
            reach = reach.saturating_add(need.iter().copied().max().unwrap_or(0));
            let min_need = need.iter().copied().min().unwrap_or(usize::MAX);
            let band = Band {
                lo: prev_band.lo.saturating_add(min_need),
                top: reach.min(levels),
                start: keep.len(),
            };
            let width = band.width();
            keep.resize(band.start + width, NO_CHOICE);
            let choice = &mut keep[band.start..];
            let mut next = vec![f64::NEG_INFINITY; width];
            if width > 0 {
                // The previous layer's value at and above its top.
                let ceiling = best[prev_band.top - prev_band.lo];
                // Choice-major order still visits each cell's choices in
                // order, so the first one to reach a maximum keeps the
                // cell.
                for (ci, &(need, value)) in group.as_ref().iter().enumerate() {
                    // The choice reaches the cells from `first`: those up
                    // to `direct` read the previous band cell by cell
                    // (from its bottom), the ones above read its top.
                    let first = need.saturating_add(prev_band.lo);
                    if first > band.top {
                        continue;
                    }
                    let direct = band.top.min(need.saturating_add(prev_band.top));
                    let from = first - band.lo;
                    let (cells, above) = next[from..].split_at_mut(direct - first + 1);
                    let (kept, kept_above) = choice[from..].split_at_mut(direct - first + 1);
                    let ci = ci as u16;
                    let relax = |cell: &mut f64, kept: &mut u16, read: f64| {
                        if read.is_finite() {
                            let v = read + value;
                            if v > *cell {
                                *cell = v;
                                *kept = ci;
                            }
                        }
                    };
                    for ((cell, kept), &read) in cells.iter_mut().zip(kept).zip(&best) {
                        relax(cell, kept, read);
                    }
                    for (cell, kept) in above.iter_mut().zip(kept_above) {
                        relax(cell, kept, ceiling);
                    }
                }
            }
            bands.push(band);
            best = next;
            prev_band = band;
        }
        Self {
            needs,
            levels,
            saturated,
            bands,
            best,
            keep,
        }
    }

    /// One choice index per group, maximizing the summed value within
    /// budget level `level`: the backtrack through the table there.
    /// `None` when no combination of choices fits.
    ///
    /// # Panics
    ///
    /// Panics if `level` lies past a table built short of saturation.
    pub fn split(&self, level: usize) -> Option<Vec<usize>> {
        assert!(
            level <= self.levels || self.saturated,
            "budget level {level} past a table built to {}",
            self.levels
        );
        if !self.value(level).is_finite() {
            return None;
        }
        let mut b = level.min(self.levels);
        let mut choices = vec![0; self.needs.len()];
        for (i, band) in self.bands.iter().enumerate().rev() {
            let ci = band
                .cell(b)
                .map_or(NO_CHOICE, |c| self.keep[band.start + c]);
            // A finite root guarantees a recorded choice at every cell
            // backtracked; guard anyway (NaN values break that).
            if ci == NO_CHOICE {
                return None;
            }
            choices[i] = usize::from(ci);
            b = b.checked_sub(self.needs[i][choices[i]])?;
        }
        Some(choices)
    }

    /// The best total value within budget level `level` (`-inf` when no
    /// combination of choices fits).
    fn value(&self, level: usize) -> f64 {
        let b = level.min(self.levels);
        self.root()
            .cell(b)
            .map_or(f64::NEG_INFINITY, |c| self.best[c])
    }

    /// The last layer's band, or the empty choice set's one cell when
    /// there are no groups.
    fn root(&self) -> Band {
        self.bands.last().copied().unwrap_or(EMPTY_SET)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// `PowerAllocator::apportion`'s DP before the shared table, over
    /// raw performance curves and their uncapped performance: the levels
    /// given to each app.
    pub(crate) fn apportion_reference(curves: &[(Vec<f64>, f64)], levels: usize) -> Vec<usize> {
        let mut best = vec![0.0f64; levels + 1];
        let mut keep: Vec<Vec<usize>> = Vec::with_capacity(curves.len());
        for (curve, nocap) in curves {
            let mut next = vec![f64::NEG_INFINITY; levels + 1];
            let mut choice = vec![0usize; levels + 1];
            for b in 0..=levels {
                for give in 0..=b {
                    let perf = if curve.is_empty() {
                        0.0
                    } else if give < curve.len() {
                        curve[give] / nocap
                    } else {
                        curve[curve.len() - 1] / nocap
                    };
                    let value = best[b - give] + perf;
                    if value > next[b] {
                        next[b] = value;
                        choice[b] = give;
                    }
                }
            }
            best = next;
            keep.push(choice);
        }
        let mut gives = vec![0; curves.len()];
        let mut remaining = levels;
        for i in (0..curves.len()).rev() {
            gives[i] = keep[i][remaining];
            remaining -= gives[i];
        }
        gives
    }

    /// `SloPlanner::plan`'s DP before the shared table, over raw
    /// performance curves, their uncapped performance and SLO targets.
    pub(crate) fn slo_reference(
        curves: &[(Vec<f64>, f64, Option<f64>)],
        levels: usize,
    ) -> Vec<usize> {
        let value = |ci: usize, level: usize| -> f64 {
            let (curve, nocap, slo) = &curves[ci];
            let norm = curve[level.min(curve.len() - 1)] / nocap;
            match slo {
                Some(target) if norm + 1e-9 >= *target => norm + 100.0,
                _ => norm,
            }
        };
        let mut best = vec![0.0f64; levels + 1];
        let mut keep: Vec<Vec<usize>> = Vec::with_capacity(curves.len());
        for ci in 0..curves.len() {
            let mut next = vec![f64::NEG_INFINITY; levels + 1];
            let mut choice = vec![0usize; levels + 1];
            for b in 0..=levels {
                for give in 0..=b {
                    let v = best[b - give] + value(ci, give);
                    if v > next[b] {
                        next[b] = v;
                        choice[b] = give;
                    }
                }
            }
            best = next;
            keep.push(choice);
        }
        let mut allocations = vec![0usize; curves.len()];
        let mut b = levels;
        for i in (0..curves.len()).rev() {
            allocations[i] = keep[i][b];
            b -= allocations[i];
        }
        allocations
    }

    /// The cluster's per-call DP before the shared table, over
    /// `(need, value)` groups: `None` where the cluster falls back to
    /// every server's floor.
    fn cluster_reference(groups: &[Vec<(usize, f64)>], levels: usize) -> Option<Vec<usize>> {
        let mut best = vec![0.0f64; levels + 1];
        let mut keep: Vec<Vec<Option<usize>>> = Vec::with_capacity(groups.len());
        for group in groups {
            let mut next = vec![f64::NEG_INFINITY; levels + 1];
            let mut choice: Vec<Option<usize>> = vec![None; levels + 1];
            for b in 0..=levels {
                for (ci, &(need, value)) in group.iter().enumerate() {
                    if need <= b && best[b - need].is_finite() {
                        let v = best[b - need] + value;
                        if v > next[b] {
                            next[b] = v;
                            choice[b] = Some(ci);
                        }
                    }
                }
            }
            best = next;
            keep.push(choice);
        }
        if !best[levels].is_finite() {
            return None;
        }
        let mut choices = vec![0; groups.len()];
        let mut b = levels;
        for i in (0..groups.len()).rev() {
            choices[i] = keep[i][b]?;
            b = b.checked_sub(groups[i][choices[i]].0)?;
        }
        Some(choices)
    }

    /// [`Knapsack`] before the band: every layer stores every level
    /// `0..=levels`.
    struct FullTable {
        needs: Vec<Vec<usize>>,
        levels: usize,
        saturated: bool,
        best: Vec<f64>,
        keep: Vec<u16>,
    }

    impl FullTable {
        fn build(groups: &[Vec<(usize, f64)>], levels: usize) -> Self {
            let needs: Vec<Vec<usize>> = groups
                .iter()
                .map(|group| group.iter().map(|&(need, _)| need).collect())
                .collect();
            let saturation = needs
                .iter()
                .map(|n| n.iter().copied().max().unwrap_or(0))
                .fold(0usize, usize::saturating_add);
            let saturated = levels >= saturation;
            let levels = levels.min(saturation);
            let mut best = vec![0.0f64; levels + 1];
            let mut keep = vec![NO_CHOICE; groups.len() * (levels + 1)];
            for (group, choice) in groups.iter().zip(keep.chunks_mut(levels + 1)) {
                let mut next = vec![f64::NEG_INFINITY; levels + 1];
                for (ci, &(need, value)) in group.iter().enumerate() {
                    for b in need..=levels {
                        if best[b - need].is_finite() {
                            let v = best[b - need] + value;
                            if v > next[b] {
                                next[b] = v;
                                choice[b] = ci as u16;
                            }
                        }
                    }
                }
                best = next;
            }
            Self {
                needs,
                levels,
                saturated,
                best,
                keep,
            }
        }

        fn value(&self, level: usize) -> f64 {
            self.best[level.min(self.levels)]
        }

        fn split(&self, level: usize) -> Option<Vec<usize>> {
            assert!(level <= self.levels || self.saturated);
            let mut b = level.min(self.levels);
            if !self.best[b].is_finite() {
                return None;
            }
            let mut choices = vec![0; self.needs.len()];
            for i in (0..self.needs.len()).rev() {
                let ci = self.keep[i * (self.levels + 1) + b];
                if ci == NO_CHOICE {
                    return None;
                }
                choices[i] = usize::from(ci);
                b = b.checked_sub(self.needs[i][choices[i]])?;
            }
            Some(choices)
        }
    }

    #[test]
    fn empty_and_unreachable_tables() {
        let none: [Vec<(usize, f64)>; 0] = [];
        assert_eq!(Knapsack::build(&none, 7).split(7), Some(vec![]));
        // A group without choices, or one whose every choice needs more
        // than the budget, leaves the root unreachable.
        assert_eq!(Knapsack::build(&[vec![]], 3).split(3), None);
        assert_eq!(Knapsack::build(&[vec![(4, 1.0)]], 3).split(3), None);
        assert_eq!(
            Knapsack::build(&[vec![(4, 1.0)]], 4).split(4),
            Some(vec![0])
        );
    }

    #[test]
    fn first_choice_to_reach_a_maximum_wins() {
        let groups = [vec![(0, 0.0), (1, 1.0), (2, 1.0)], vec![(0, 0.0), (1, 1.0)]];
        let table = Knapsack::build(&groups, 4);
        assert_eq!(table.split(2), Some(vec![1, 1]));
        assert_eq!(table.split(3), Some(vec![1, 1]), "the tie keeps need 1");
    }

    #[test]
    fn wide_groups_fit_the_cells() {
        let group: Vec<(usize, f64)> = (0..=400).map(|g| (g, g as f64)).collect();
        let table = Knapsack::build(&[group.clone(), group], 400);
        let split = table.split(330).expect("reachable");
        assert_eq!(split.iter().sum::<usize>(), 330);
    }

    #[test]
    #[should_panic(expected = "at most 65534 choices")]
    fn oversized_group_rejected() {
        let group = vec![(0usize, 0.0f64); usize::from(u16::MAX)];
        let _ = Knapsack::build(&[group], 0);
    }

    #[test]
    #[should_panic(expected = "past a table built to 2")]
    fn split_past_a_short_table_rejected() {
        let _ = Knapsack::build(&[vec![(0, 0.0), (5, 1.0)]], 2).split(3);
    }

    mod matches_reference {
        use super::*;
        use powermed_units::rng::SplitMix;
        use proptest::prelude::*;

        /// Cluster values that tie, poison (NaN) or leave the finite
        /// range.
        const VALUES: [f64; 9] = [
            0.0,
            1.0,
            1.0,
            2.0,
            0.5,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];

        struct Draws(SplitMix);

        impl Draws {
            fn below(&mut self, n: u64) -> u64 {
                self.0.below(n)
            }

            /// A utility curve with one point per level `0..=levels`:
            /// zero below a floor, then steps from a small pool (so
            /// values tie and stretches stay flat) up to a saturation
            /// level, flat past it; one curve in eight dips instead.
            fn curve(&mut self, levels: usize) -> (Vec<f64>, f64) {
                let span = levels as u64 + 3;
                let floor = self.below(span) as usize;
                let saturation = floor + self.below(span) as usize;
                let dips = self.below(8) == 0;
                let mut perf = 0.0f64;
                let curve = (0..=levels)
                    .map(|level| {
                        if level >= floor && level <= saturation {
                            let step = [0.0, 0.0, 0.25, 1.0, 0.1][self.below(5) as usize];
                            perf = if dips && self.below(3) == 0 {
                                (perf - step).max(0.0)
                            } else {
                                perf + step
                            };
                        }
                        perf
                    })
                    .collect();
                let nocap = [1.0, 3.0, 0.7, 1e-12][self.below(4) as usize];
                (curve, nocap)
            }

            /// Budget levels from a fractional watt budget and step:
            /// zero, small, past every curve's saturation and, one time
            /// in four, wider than a `u8` cell can index.
            fn levels(&mut self) -> usize {
                let step = [1.0, 2.0, 5.0, 0.5][self.below(4) as usize];
                let watts = match self.below(8) {
                    0 => 0.0,
                    1 => -3.0,
                    2 | 3 => 256.0 * step + self.below(150) as f64 * step + 0.5,
                    _ => self.below(40) as f64 + [0.0, 0.3, 0.99][self.below(3) as usize],
                };
                (watts / step).floor().max(0.0) as usize
            }

            /// A server-like group: up to five caps above a floor that
            /// may sit off the grid, unsorted and possibly repeated.
            fn group(&mut self) -> Vec<(usize, f64)> {
                let floor = 1 + self.below(12) as usize;
                (0..self.below(6))
                    .map(|_| {
                        let need = floor + self.below(6) as usize;
                        (need, VALUES[self.below(VALUES.len() as u64) as usize])
                    })
                    .collect()
            }
        }

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// The shared table picks what each of the three DPs it
            /// replaced picks: the allocator's and the SLO planner's
            /// over random curves (ties, flat stretches, dips, SLO-bonus
            /// steps) at budgets of 0, fractional, past saturation and
            /// over 255 levels; the cluster's over random groups whose
            /// floors may not fit, both one-shot and from one table
            /// built to saturation.
            #[test]
            fn prop_table_matches_the_three_dps(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));

                let levels = draws.levels();
                let curves: Vec<(Vec<f64>, f64)> =
                    (0..1 + draws.below(3)).map(|_| draws.curve(levels)).collect();
                let groups: Vec<Vec<(usize, f64)>> = curves
                    .iter()
                    .map(|(curve, nocap)| curve.iter().map(|p| p / nocap).enumerate().collect())
                    .collect();
                let gives = Knapsack::build(&groups, levels).split(levels);
                prop_assert_eq!(gives, Some(apportion_reference(&curves, levels)));

                let slo_curves: Vec<(Vec<f64>, f64, Option<f64>)> = curves
                    .iter()
                    .map(|(curve, nocap)| {
                        let slo = [None, Some(0.5), Some(1.0), Some(1e9)][draws.below(4) as usize];
                        (curve.clone(), *nocap, slo)
                    })
                    .collect();
                let groups: Vec<Vec<(usize, f64)>> = slo_curves
                    .iter()
                    .map(|(curve, nocap, slo)| {
                        curve
                            .iter()
                            .map(|p| {
                                let norm = p / nocap;
                                match slo {
                                    Some(target) if norm + 1e-9 >= *target => norm + 100.0,
                                    _ => norm,
                                }
                            })
                            .enumerate()
                            .collect()
                    })
                    .collect();
                let gives = Knapsack::build(&groups, levels).split(levels);
                prop_assert_eq!(gives, Some(slo_reference(&slo_curves, levels)));

                let groups: Vec<Vec<(usize, f64)>> =
                    (0..draws.below(6)).map(|_| draws.group()).collect();
                // Five groups need at most 85 levels, so 100 is past
                // saturation.
                let saturated = Knapsack::build(&groups, usize::MAX);
                for _ in 0..8 {
                    let level = match draws.below(4) {
                        0 => usize::MAX,
                        _ => draws.below(110) as usize,
                    };
                    let reference = cluster_reference(&groups, level.min(100));
                    prop_assert_eq!(saturated.split(level), reference.clone());
                    prop_assert_eq!(Knapsack::build(&groups, level).split(level), reference);
                }
            }

            /// The banded table answers as the full table does: the root
            /// value's bits and the split at every level up to past
            /// saturation, for tables built below, at and above the
            /// saturation level, over groups that may be empty, need
            /// zero levels, or hold NaN, ±0.0 and -inf values.
            #[test]
            fn prop_banded_table_matches_the_full_table(seed in 0u64..u64::MAX) {
                const EDGE_VALUES: [f64; 8] =
                    [0.0, -0.0, 1.0, 0.5, -1.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY];
                let mut draws = Draws(SplitMix::new(seed));
                let groups: Vec<Vec<(usize, f64)>> = (0..draws.below(7))
                    .map(|_| {
                        if draws.below(10) == 0 {
                            return Vec::new();
                        }
                        let floor = draws.below(5) as usize;
                        (0..1 + draws.below(6))
                            .map(|_| {
                                let need = if draws.below(6) == 0 {
                                    0
                                } else {
                                    floor + draws.below(8) as usize
                                };
                                let value = match draws.below(3) {
                                    0 => EDGE_VALUES[draws.below(8) as usize],
                                    _ => draws.below(5) as f64 * 0.25,
                                };
                                (need, value)
                            })
                            .collect()
                    })
                    .collect();
                let saturation: usize = groups
                    .iter()
                    .map(|g| g.iter().map(|&(need, _)| need).max().unwrap_or(0))
                    .sum();
                let levels = match draws.below(4) {
                    0 => draws.below(saturation as u64 + 1) as usize,
                    1 => saturation,
                    2 => saturation + 1 + draws.below(5) as usize,
                    _ => usize::MAX,
                };
                let banded = Knapsack::build(&groups, levels);
                let full = FullTable::build(&groups, levels.min(saturation + 8));
                let reach = if levels >= saturation { saturation + 8 } else { levels };
                for level in 0..=reach {
                    prop_assert_eq!(banded.value(level).to_bits(), full.value(level).to_bits());
                    prop_assert_eq!(banded.split(level), full.split(level));
                }
            }
        }
    }
}
