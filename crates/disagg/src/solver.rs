//! The constrained weighted least-squares disaggregation solve.
//!
//! Given the dynamic-power budget `D` the meter implies (aggregate
//! reading minus the known idle/uncore floor and ESD flows) and one
//! prior `(pᵢ, σᵢ)` per application, find shares `sᵢ` minimizing
//!
//! ```text
//!   Σᵢ (sᵢ − pᵢ)² / σᵢ²     s.t.   Σᵢ sᵢ = D,   sᵢ ≥ 0.
//! ```
//!
//! Without the non-negativity constraint the Lagrangian has the closed
//! form `sᵢ = pᵢ + σᵢ²/(Σⱼσⱼ²) · (D − Σⱼpⱼ)`: the meter/prior mismatch
//! is distributed in proportion to each prior's *variance*, so the
//! least-trusted profiles absorb the residual and a high-confidence
//! profile barely moves. Negative shares are handled by an active-set
//! loop: clamp them to zero, drop them from the free set, re-solve over
//! the remainder. Each pass permanently clamps at least one app, so the
//! loop runs at most `n` times and the whole solve is `O(n²)` worst
//! case — in practice one or two passes.

/// One application's prior for the solve.
#[derive(Debug, Clone, PartialEq)]
pub struct AppPrior {
    /// Application name (keys the returned share map).
    pub name: String,
    /// Predicted dynamic draw at the currently actuated knob, in watts.
    pub predicted_w: f64,
    /// Prior standard deviation in watts (> 0; the caller widens this
    /// under stale knob acks, held samples and low-confidence priors).
    pub sigma_w: f64,
}

/// One solved share: the point estimate plus its confidence band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolvedShare {
    /// Estimated dynamic draw, in watts (non-negative).
    pub watts: f64,
    /// One-sigma confidence band carried through from the prior, in
    /// watts.
    pub sigma_w: f64,
}

/// Solves the constrained disaggregation for `total_dynamic_w` over
/// `priors`, writing one [`SolvedShare`] per prior into `shares`, in
/// input order. `free` is the active set's workspace; on return it holds
/// the apps the solve left unclamped. Both buffers are cleared first and
/// keep their capacity, so a caller that reuses them solves without
/// allocating.
///
/// Guarantees (the proptest contract):
/// * every share is non-negative and finite;
/// * shares sum to `max(total_dynamic_w, 0)` exactly up to float
///   round-off whenever any prior is positive-sigma (always true —
///   sigmas are floored);
/// * the result is invariant under reordering of the priors (up to
///   round-off), because each share depends only on its own prior and
///   order-independent sums.
pub fn solve_shares(
    total_dynamic_w: f64,
    priors: &[AppPrior],
    shares: &mut Vec<SolvedShare>,
    free: &mut Vec<usize>,
) {
    let budget = total_dynamic_w.max(0.0);
    shares.clear();
    shares.extend(priors.iter().map(|p| SolvedShare {
        watts: 0.0,
        sigma_w: p.sigma_w.max(SIGMA_FLOOR_W),
    }));
    // Active-set loop over the free (unclamped) applications.
    free.clear();
    free.extend(0..priors.len());
    while !free.is_empty() {
        let prior_sum: f64 = free.iter().map(|&i| priors[i].predicted_w).sum();
        let var_sum: f64 = free.iter().map(|&i| shares[i].sigma_w.powi(2)).sum();
        let mismatch = budget - prior_sum;
        let mut clamped_any = false;
        for &i in free.iter() {
            let w = priors[i].predicted_w + shares[i].sigma_w.powi(2) / var_sum * mismatch;
            shares[i].watts = w;
        }
        // Clamp every negative share this pass (not just the most
        // negative one): order-independent, and still terminates in at
        // most n passes.
        free.retain(|&i| {
            if shares[i].watts < 0.0 {
                shares[i].watts = 0.0;
                clamped_any = true;
                false
            } else {
                true
            }
        });
        if !clamped_any {
            break;
        }
    }
}

/// Hard floor on a prior sigma so the weight `1/σ²` stays finite; the
/// estimator applies its own (configurable) floor before calling in.
pub const SIGMA_FLOOR_W: f64 = 1e-6;

#[cfg(test)]
mod tests {
    use super::*;

    fn prior(name: &str, p: f64, s: f64) -> AppPrior {
        AppPrior {
            name: name.to_string(),
            predicted_w: p,
            sigma_w: s,
        }
    }

    /// The solve into fresh buffers.
    fn solve(total_dynamic_w: f64, priors: &[AppPrior]) -> Vec<SolvedShare> {
        let mut shares = Vec::new();
        solve_shares(total_dynamic_w, priors, &mut shares, &mut Vec::new());
        shares
    }

    fn total(shares: &[SolvedShare]) -> f64 {
        shares.iter().map(|s| s.watts).sum()
    }

    #[test]
    fn exact_priors_pass_through() {
        let priors = vec![prior("a", 10.0, 1.0), prior("b", 20.0, 1.0)];
        let shares = solve(30.0, &priors);
        assert!((shares[0].watts - 10.0).abs() < 1e-9);
        assert!((shares[1].watts - 20.0).abs() < 1e-9);
    }

    #[test]
    fn mismatch_lands_on_the_least_trusted_prior() {
        // b's sigma is 3× a's, so b absorbs 9/10 of the 10 W surplus.
        let priors = vec![prior("a", 10.0, 1.0), prior("b", 20.0, 3.0)];
        let shares = solve(40.0, &priors);
        assert!((shares[0].watts - 11.0).abs() < 1e-9, "{:?}", shares);
        assert!((shares[1].watts - 29.0).abs() < 1e-9, "{:?}", shares);
    }

    #[test]
    fn deficit_clamps_to_zero_and_redistributes() {
        // The meter says 5 W total; the small app goes negative in the
        // unconstrained solve and must clamp to zero, with the rest on
        // the big one.
        let priors = vec![prior("small", 2.0, 5.0), prior("big", 30.0, 5.0)];
        let shares = solve(5.0, &priors);
        assert_eq!(shares[0].watts, 0.0);
        assert!((shares[1].watts - 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_zeroes_everything() {
        let priors = vec![prior("a", 10.0, 1.0), prior("b", 0.0, 1.0)];
        let shares = solve(0.0, &priors);
        assert!(shares.iter().all(|s| s.watts == 0.0));
    }

    #[test]
    fn negative_budget_is_clamped_to_zero() {
        let priors = vec![prior("a", 10.0, 1.0)];
        let shares = solve(-5.0, &priors);
        assert_eq!(total(&shares), 0.0);
    }

    #[test]
    fn empty_priors_return_empty() {
        assert!(solve(50.0, &[]).is_empty());
    }

    #[test]
    fn zero_sigma_priors_are_floored_not_divided_by_zero() {
        let priors = vec![prior("a", 10.0, 0.0), prior("b", 10.0, 0.0)];
        let shares = solve(30.0, &priors);
        assert!((total(&shares) - 30.0).abs() < 1e-6);
        assert!(shares.iter().all(|s| s.watts.is_finite()));
    }

    #[test]
    fn suspended_apps_with_zero_prior_and_tight_sigma_stay_near_zero() {
        let priors = vec![
            prior("running", 40.0, 4.0),
            prior("suspended", 0.0, SIGMA_FLOOR_W),
        ];
        let shares = solve(50.0, &priors);
        assert!(shares[1].watts < 1e-6, "{:?}", shares);
        assert!((shares[0].watts - 50.0).abs() < 1e-3);
    }
}
