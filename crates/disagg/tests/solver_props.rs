//! Property tests for the disaggregation solve: the contract the
//! mediator relies on when it swaps oracle per-app power for estimates.
//!
//! * every share is non-negative and finite, whatever the priors;
//! * shares sum to the (clamped) meter-implied budget within float
//!   tolerance;
//! * the solve is invariant under reordering of the applications — an
//!   app's share depends on its own prior and order-independent sums,
//!   never on its position in the list.

use proptest::prelude::*;

use powermed_disagg::solver::SolvedShare;
use powermed_disagg::{solve_shares, AppPrior};
use powermed_units::hash::SPLITMIX_GAMMA;

/// Expands drawn scalars into a prior list. Names are derived from the
/// index so a permutation carries its apps' identities along.
fn priors_from(draws: &[(f64, f64)]) -> Vec<AppPrior> {
    draws
        .iter()
        .enumerate()
        .map(|(i, &(predicted, sigma))| AppPrior {
            name: format!("app{i}"),
            predicted_w: predicted,
            sigma_w: sigma,
        })
        .collect()
}

/// The solve into fresh buffers.
fn solve(total_dynamic_w: f64, priors: &[AppPrior]) -> Vec<SolvedShare> {
    let mut shares = Vec::new();
    solve_shares(total_dynamic_w, priors, &mut shares, &mut Vec::new());
    shares
}

/// Deterministic in-place permutation driven by a drawn seed
/// (Fisher–Yates over a splitmix64-style mix), so reorder invariance is
/// exercised across many permutations without a shuffle strategy.
fn permuted<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out: Vec<T> = items.to_vec();
    let mut state = seed.wrapping_mul(SPLITMIX_GAMMA) | 1;
    for i in (1..out.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        out.swap(i, j);
    }
    out
}

const SUM_TOL: f64 = 1e-6;

proptest! {
    #[test]
    fn shares_are_nonnegative_and_finite(
        total in -50.0f64..400.0,
        draws in collection::vec((0.0f64..120.0, 0.0f64..30.0), 0usize..12),
    ) {
        let shares = solve(total, &priors_from(&draws));
        for s in &shares {
            prop_assert!(s.watts.is_finite());
            prop_assert!(s.watts >= 0.0, "share {} is negative", s.watts);
            prop_assert!(s.sigma_w > 0.0, "sigma must stay positive");
        }
    }

    #[test]
    fn shares_sum_to_the_observed_budget(
        total in 0.0f64..400.0,
        draws in collection::vec((0.0f64..120.0, 0.0f64..30.0), 1usize..12),
    ) {
        let shares = solve(total, &priors_from(&draws));
        let sum: f64 = shares.iter().map(|s| s.watts).sum();
        prop_assert!(
            (sum - total).abs() <= SUM_TOL * total.max(1.0),
            "shares sum {sum} != budget {total}"
        );
    }

    #[test]
    fn negative_budget_clamps_to_zero_total(
        total in -400.0f64..0.0,
        draws in collection::vec((0.0f64..120.0, 0.0f64..30.0), 1usize..12),
    ) {
        let shares = solve(total, &priors_from(&draws));
        let sum: f64 = shares.iter().map(|s| s.watts).sum();
        prop_assert!(sum.abs() <= SUM_TOL, "negative budget must zero out, got {sum}");
    }

    #[test]
    fn solve_is_invariant_under_app_reordering(
        total in 0.0f64..400.0,
        draws in collection::vec((0.0f64..120.0, 0.0f64..30.0), 1usize..12),
        seed in 0u64..1_000_000,
    ) {
        let priors = priors_from(&draws);
        let shuffled = permuted(&priors, seed);
        let direct = solve(total, &priors);
        let reordered = solve(total, &shuffled);
        // Match shares back up by app name.
        for (p, s) in priors.iter().zip(&direct) {
            let (q_idx, _) = shuffled
                .iter()
                .enumerate()
                .find(|(_, q)| q.name == p.name)
                .expect("permutation preserves names");
            let r = &reordered[q_idx];
            prop_assert!(
                (s.watts - r.watts).abs() <= SUM_TOL * (1.0 + s.watts.abs()),
                "{}: {} (direct) vs {} (reordered)", p.name, s.watts, r.watts
            );
        }
    }
}
