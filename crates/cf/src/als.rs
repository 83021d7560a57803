//! Latent-factor matrix completion by alternating least squares (ALS).
//!
//! The model is the classic biased factorization
//! `r̂(u, i) = μ + b_u + b_i + p_u · q_i`, fitted to the observed entries
//! of a sparse matrix by alternately solving regularized least squares
//! for user factors and item factors. A *fold-in* step estimates factors
//! for a brand-new row (an arriving application) from a handful of
//! sampled entries without refitting the corpus — which is what makes the
//! paper's online calibration cheap.

use powermed_units::rng::SplitMix;

use crate::linalg::{dot, solve_into};

/// Configuration for [`Completion::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitConfig {
    /// Latent dimension.
    pub factors: usize,
    /// L2 regularization strength.
    pub lambda: f64,
    /// Number of ALS sweeps.
    pub sweeps: usize,
    /// RNG seed for factor initialization.
    pub seed: u64,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            factors: 6,
            lambda: 0.02,
            sweeps: 40,
            seed: 7,
        }
    }
}

/// A fitted matrix-completion model.
///
/// Factor matrices are stored as flat buffers with each entity's `k`
/// latent factors contiguous (`user_f[r*k..(r+1)*k]` is row `r`), so the
/// ALS inner loops and the predict paths read straight slices instead of
/// chasing one heap allocation per row.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    factors: usize,
    lambda: f64,
    mean: f64,
    user_bias: Vec<f64>,
    item_bias: Vec<f64>,
    user_f: Vec<f64>,
    item_f: Vec<f64>,
}

/// Scratch buffers for the augmented `(k+1) × (k+1)` normal equations,
/// reused across every row/column solve of a fit (and across sweeps) so
/// the inner loop is allocation-free.
struct SolveWorkspace {
    ata: Vec<f64>,
    atb: Vec<f64>,
    sol: Vec<f64>,
}

impl SolveWorkspace {
    fn new(k: usize) -> Self {
        let n = k + 1;
        Self {
            ata: vec![0.0; n * n],
            atb: vec![0.0; n],
            sol: vec![0.0; n],
        }
    }
}

/// Solves the regularized least squares for one row (or column) —
/// unknown bias + factor vector against the fixed other side — writing
/// the factors into `factors_out` and returning the bias.
///
/// The augmented design is `x = [1, q_j]`, so the first solved
/// coefficient is the bias. The normal equations accumulate directly
/// from the flat `other_f` slices (no per-observation design vector),
/// in the same term order as the historical allocating path, so
/// results are bit-identical.
#[allow(clippy::too_many_arguments)]
fn solve_side(
    observed: &[(usize, f64)],
    other_bias: &[f64],
    other_f: &[f64],
    mean: f64,
    k: usize,
    lambda: f64,
    ws: &mut SolveWorkspace,
    factors_out: &mut [f64],
) -> f64 {
    let n = k + 1;
    ws.ata.fill(0.0);
    ws.atb.fill(0.0);
    for &(j, v) in observed {
        let target = v - mean - other_bias[j];
        let f = &other_f[j * k..j * k + k];
        for a in 0..n {
            let xa = if a == 0 { 1.0 } else { f[a - 1] };
            ws.atb[a] += xa * target;
            for b in 0..n {
                let xb = if b == 0 { 1.0 } else { f[b - 1] };
                ws.ata[a * n + b] += xa * xb;
            }
        }
    }
    let reg = lambda * observed.len().max(1) as f64;
    for a in 0..n {
        ws.ata[a * n + a] += reg;
    }
    if solve_into(&mut ws.ata, &mut ws.atb, &mut ws.sol, n) {
        factors_out.copy_from_slice(&ws.sol[1..]);
        ws.sol[0]
    } else {
        factors_out.fill(0.0);
        0.0
    }
}

/// Factors for a new row obtained by [`Completion::fold_in`].
#[derive(Debug, Clone, PartialEq)]
pub struct FoldedRow {
    bias: f64,
    factors: Vec<f64>,
}

impl FoldedRow {
    /// Builds a row from stored components (e.g. a profile-store
    /// tombstone's empty rows). The inverse of [`FoldedRow::bias`] +
    /// [`FoldedRow::factors`].
    pub fn new(bias: f64, factors: Vec<f64>) -> Self {
        Self { bias, factors }
    }

    /// The row's bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The row's latent factors.
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

impl Completion {
    /// Fits the model to sparse observations `(row, col, value)` on an
    /// `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows`/`cols` is zero, `entries` is empty, or an entry
    /// indexes out of range.
    pub fn fit(rows: usize, cols: usize, entries: &[(usize, usize, f64)], cfg: FitConfig) -> Self {
        assert!(rows > 0 && cols > 0, "matrix must be non-empty");
        assert!(!entries.is_empty(), "need at least one observation");
        for &(r, c, _) in entries {
            assert!(r < rows && c < cols, "entry ({r},{c}) out of range");
        }
        let k = cfg.factors;
        let mut rng = SplitMix::new(cfg.seed);
        let scale = 0.1;
        // Flat init draws the same RNG sequence as the historical
        // row-of-Vecs layout (row by row, k values each), so fits stay
        // bit-identical across the storage change.
        let mut init =
            |n: usize| -> Vec<f64> { (0..n * k).map(|_| rng.uniform(-scale, scale)).collect() };
        let mut model = Self {
            factors: k,
            lambda: cfg.lambda,
            mean: entries.iter().map(|e| e.2).sum::<f64>() / entries.len() as f64,
            user_bias: vec![0.0; rows],
            item_bias: vec![0.0; cols],
            user_f: init(rows),
            item_f: init(cols),
        };

        // Index observations by row and by column.
        let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols];
        for &(r, c, v) in entries {
            by_row[r].push((c, v));
            by_col[c].push((r, v));
        }

        let mut ws = SolveWorkspace::new(k);
        for _ in 0..cfg.sweeps {
            // Solve users given items.
            for (r, row) in by_row.iter().enumerate() {
                if row.is_empty() {
                    continue;
                }
                let bias = solve_side(
                    row,
                    &model.item_bias,
                    &model.item_f,
                    model.mean,
                    k,
                    cfg.lambda,
                    &mut ws,
                    &mut model.user_f[r * k..(r + 1) * k],
                );
                model.user_bias[r] = bias;
            }
            // Solve items given users.
            for (c, col) in by_col.iter().enumerate() {
                if col.is_empty() {
                    continue;
                }
                let bias = solve_side(
                    col,
                    &model.user_bias,
                    &model.user_f,
                    model.mean,
                    k,
                    cfg.lambda,
                    &mut ws,
                    &mut model.item_f[c * k..(c + 1) * k],
                );
                model.item_bias[c] = bias;
            }
        }
        model
    }

    /// The global mean of the training observations.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Predicts the value at `(row, col)` for a training row.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        let k = self.factors;
        self.mean
            + self.user_bias[row]
            + self.item_bias[col]
            + dot(
                &self.user_f[row * k..(row + 1) * k],
                &self.item_f[col * k..(col + 1) * k],
            )
    }

    /// Estimates factors for a **new** row from sparse observations
    /// `(col, value)`, without refitting the corpus.
    ///
    /// With no observations there is nothing to regress against, so the
    /// row degenerates to zero bias and zero factors — predictions then
    /// reduce to `μ + b_i`, the model's column means — rather than
    /// panicking (a warm-started admission may legitimately have every
    /// sampled column already covered by a prior).
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range.
    pub fn fold_in(&self, observed: &[(usize, f64)]) -> FoldedRow {
        if observed.is_empty() {
            return FoldedRow {
                bias: 0.0,
                factors: vec![0.0; self.factors],
            };
        }
        for &(c, _) in observed {
            assert!(c < self.item_bias.len(), "column {c} out of range");
        }
        let mut ws = SolveWorkspace::new(self.factors);
        let mut factors = vec![0.0; self.factors];
        let bias = solve_side(
            observed,
            &self.item_bias,
            &self.item_f,
            self.mean,
            self.factors,
            self.lambda,
            &mut ws,
            &mut factors,
        );
        FoldedRow { bias, factors }
    }

    /// Predicts column `col` for a folded-in row.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn predict_folded(&self, row: &FoldedRow, col: usize) -> f64 {
        let k = self.factors;
        self.mean
            + row.bias
            + self.item_bias[col]
            + dot(&row.factors, &self.item_f[col * k..(col + 1) * k])
    }

    /// Predicts every column for a folded-in row: a fused sweep over the
    /// flat item buffers, equivalent to calling [`Self::predict_folded`]
    /// per column but without the per-column dispatch.
    pub fn predict_row(&self, row: &FoldedRow) -> Vec<f64> {
        let k = self.factors;
        self.item_bias
            .iter()
            .enumerate()
            .map(|(c, &ib)| {
                self.mean + row.bias + ib + dot(&row.factors, &self.item_f[c * k..(c + 1) * k])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::rmse;

    /// A rank-2 synthetic matrix: value(r, c) = a_r * x_c + b_r * y_c.
    fn synthetic(rows: usize, cols: usize) -> Vec<Vec<f64>> {
        (0..rows)
            .map(|r| {
                let a = 1.0 + r as f64 * 0.3;
                let b = 0.5 + (r % 3) as f64;
                (0..cols)
                    .map(|c| {
                        let x = (c as f64 * 0.7).sin() + 1.5;
                        let y = (c as f64 * 0.3).cos() + 1.2;
                        a * x + b * y
                    })
                    .collect()
            })
            .collect()
    }

    fn entries_from(
        dense: &[Vec<f64>],
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::new();
        for (r, row) in dense.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if keep(r, c) {
                    out.push((r, c, *v));
                }
            }
        }
        out
    }

    #[test]
    fn reconstructs_low_rank_matrix_from_partial_entries() {
        let dense = synthetic(10, 30);
        // Train on ~2/3 of entries.
        let train = entries_from(&dense, |r, c| (r + 2 * c) % 3 != 0);
        let model = Completion::fit(10, 30, &train, FitConfig::default());
        let mut preds = Vec::new();
        let mut truths = Vec::new();
        for (r, row) in dense.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                if (r + 2 * c) % 3 == 0 {
                    preds.push(model.predict(r, c));
                    truths.push(*v);
                }
            }
        }
        let err = rmse(&preds, &truths);
        let spread = truths.iter().cloned().fold(f64::MIN, f64::max)
            - truths.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            err < 0.08 * spread,
            "held-out RMSE {err} too large vs spread {spread}"
        );
    }

    #[test]
    fn fold_in_estimates_unseen_row() {
        let dense = synthetic(11, 30);
        // Train on the first 10 rows fully; row 10 is the "new app".
        let train: Vec<(usize, usize, f64)> = entries_from(&dense[..10], |_, _| true);
        let model = Completion::fit(10, 30, &train, FitConfig::default());
        // Sample 20% of the new row's columns.
        let observed: Vec<(usize, f64)> = (0..30)
            .filter(|c| c % 5 == 0)
            .map(|c| (c, dense[10][c]))
            .collect();
        let folded = model.fold_in(&observed);
        let preds = model.predict_row(&folded);
        let truths = &dense[10];
        let err = rmse(&preds, truths);
        let mean = truths.iter().sum::<f64>() / truths.len() as f64;
        assert!(err / mean < 0.08, "fold-in relative RMSE {}", err / mean);
    }

    #[test]
    fn fold_in_quality_is_bounded_at_any_sampling_level() {
        // Model mismatch means more samples do not *strictly* dominate,
        // but every sampling level should land within a few percent of
        // the row's mean value.
        let dense = synthetic(11, 40);
        let train: Vec<(usize, usize, f64)> = entries_from(&dense[..10], |_, _| true);
        let model = Completion::fit(10, 40, &train, FitConfig::default());
        let mean = dense[10].iter().sum::<f64>() / 40.0;
        for n in [4usize, 10, 20, 40] {
            let observed: Vec<(usize, f64)> = (0..40)
                .step_by(40 / n)
                .take(n)
                .map(|c| (c, dense[10][c]))
                .collect();
            let folded = model.fold_in(&observed);
            let err = rmse(&model.predict_row(&folded), &dense[10]);
            assert!(
                err / mean < 0.06,
                "fold-in with {n} samples: relative RMSE {}",
                err / mean
            );
        }
    }

    /// The historical ALS implementation: `Vec<Vec<f64>>` factor rows,
    /// a fresh design vector per observation, and an allocating solve.
    /// Kept verbatim as the bit-compatibility oracle for the flat-buffer
    /// kernels: every prediction must match to the last bit.
    mod reference {
        use crate::linalg::solve;
        use powermed_units::rng::SplitMix;

        pub struct Model {
            pub mean: f64,
            pub user_bias: Vec<f64>,
            pub item_bias: Vec<f64>,
            pub user_f: Vec<Vec<f64>>,
            pub item_f: Vec<Vec<f64>>,
        }

        fn solve_side(
            observed: &[(usize, f64)],
            other_bias: &[f64],
            other_f: &[Vec<f64>],
            mean: f64,
            k: usize,
            lambda: f64,
        ) -> (f64, Vec<f64>) {
            let n = k + 1;
            let mut ata = vec![0.0; n * n];
            let mut atb = vec![0.0; n];
            for &(j, v) in observed {
                let target = v - mean - other_bias[j];
                let mut x = Vec::with_capacity(n);
                x.push(1.0);
                x.extend_from_slice(&other_f[j]);
                for a in 0..n {
                    atb[a] += x[a] * target;
                    for b in 0..n {
                        ata[a * n + b] += x[a] * x[b];
                    }
                }
            }
            let reg = lambda * observed.len().max(1) as f64;
            for a in 0..n {
                ata[a * n + a] += reg;
            }
            match solve(&ata, &atb, n) {
                Some(sol) => (sol[0], sol[1..].to_vec()),
                None => (0.0, vec![0.0; k]),
            }
        }

        pub fn fit(
            rows: usize,
            cols: usize,
            entries: &[(usize, usize, f64)],
            cfg: super::FitConfig,
        ) -> Model {
            let k = cfg.factors;
            let mut rng = SplitMix::new(cfg.seed);
            let scale = 0.1;
            let mut init = |n: usize| -> Vec<Vec<f64>> {
                (0..n)
                    .map(|_| (0..k).map(|_| rng.uniform(-scale, scale)).collect())
                    .collect()
            };
            let mut m = Model {
                mean: entries.iter().map(|e| e.2).sum::<f64>() / entries.len() as f64,
                user_bias: vec![0.0; rows],
                item_bias: vec![0.0; cols],
                user_f: init(rows),
                item_f: init(cols),
            };
            let mut by_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
            let mut by_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); cols];
            for &(r, c, v) in entries {
                by_row[r].push((c, v));
                by_col[c].push((r, v));
            }
            for _ in 0..cfg.sweeps {
                for (r, row) in by_row.iter().enumerate() {
                    if row.is_empty() {
                        continue;
                    }
                    let (bias, f) = solve_side(row, &m.item_bias, &m.item_f, m.mean, k, cfg.lambda);
                    m.user_bias[r] = bias;
                    m.user_f[r] = f;
                }
                for (c, col) in by_col.iter().enumerate() {
                    if col.is_empty() {
                        continue;
                    }
                    let (bias, f) = solve_side(col, &m.user_bias, &m.user_f, m.mean, k, cfg.lambda);
                    m.item_bias[c] = bias;
                    m.item_f[c] = f;
                }
            }
            m
        }

        pub fn fold_in(
            m: &Model,
            k: usize,
            lambda: f64,
            observed: &[(usize, f64)],
        ) -> (f64, Vec<f64>) {
            solve_side(observed, &m.item_bias, &m.item_f, m.mean, k, lambda)
        }
    }

    #[test]
    fn flat_kernels_are_bit_identical_to_the_reference_implementation() {
        // Seeded sparse fixture (~70% fill) over a rank-2 surface.
        let dense = synthetic(9, 25);
        let train = entries_from(&dense, |r, c| (r + 3 * c) % 10 != 0);
        let cfg = FitConfig::default();
        let model = Completion::fit(9, 25, &train, cfg);
        let oracle = reference::fit(9, 25, &train, cfg);

        for r in 0..9 {
            for c in 0..25 {
                let want = oracle.mean
                    + oracle.user_bias[r]
                    + oracle.item_bias[c]
                    + dot(&oracle.user_f[r], &oracle.item_f[c]);
                assert_eq!(
                    model.predict(r, c).to_bits(),
                    want.to_bits(),
                    "predict({r},{c}) drifted from the reference"
                );
            }
        }

        // Fold-in and the fused predict_row must match as exactly.
        let observed: Vec<(usize, f64)> = (0..25).step_by(4).map(|c| (c, dense[3][c])).collect();
        let folded = model.fold_in(&observed);
        let (ref_bias, ref_factors) =
            reference::fold_in(&oracle, cfg.factors, cfg.lambda, &observed);
        assert_eq!(folded.bias().to_bits(), ref_bias.to_bits());
        for (a, b) in folded.factors().iter().zip(&ref_factors) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (c, pred) in model.predict_row(&folded).into_iter().enumerate() {
            let want =
                oracle.mean + ref_bias + oracle.item_bias[c] + dot(&ref_factors, &oracle.item_f[c]);
            assert_eq!(pred.to_bits(), want.to_bits(), "predict_row[{c}]");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dense = synthetic(6, 12);
        let train = entries_from(&dense, |_, _| true);
        let a = Completion::fit(6, 12, &train, FitConfig::default());
        let b = Completion::fit(6, 12, &train, FitConfig::default());
        assert_eq!(a.predict(3, 7), b.predict(3, 7));
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn empty_training_panics() {
        let _ = Completion::fit(2, 2, &[], FitConfig::default());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_entry_panics() {
        let _ = Completion::fit(2, 2, &[(0, 5, 1.0)], FitConfig::default());
    }

    #[test]
    fn empty_fold_in_predicts_column_means() {
        let dense = synthetic(4, 8);
        let train = entries_from(&dense, |_, _| true);
        let model = Completion::fit(4, 8, &train, FitConfig::default());
        let folded = model.fold_in(&[]);
        assert_eq!(folded.bias(), 0.0);
        assert!(folded.factors().iter().all(|&f| f == 0.0));
        // Predictions collapse to μ + b_i: the model's column means.
        for (c, pred) in model.predict_row(&folded).into_iter().enumerate() {
            assert!(pred.is_finite());
            assert_eq!(pred, model.mean() + model.item_bias[c]);
        }
    }

    #[test]
    fn folded_row_accessors_round_trip() {
        let row = FoldedRow::new(0.25, vec![1.0, -2.0]);
        assert_eq!(FoldedRow::new(row.bias(), row.factors().to_vec()), row);
    }
}
