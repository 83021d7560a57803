//! The stateful estimation layer: sample holding, confidence
//! propagation, the residual cross-check and the degradation ladder.
//!
//! Per poll the mediator hands the estimator the (possibly missing)
//! aggregate meter sample, the known static floor (idle + uncore), the
//! BMS-reported ESD flows, and one prior per application. The estimator
//! then:
//!
//! 1. **Holds through dropouts** — a missing sample re-uses the last
//!    good reading for a bounded number of polls, widening every band
//!    geometrically per held poll; past the window it falls back to the
//!    prior-sum itself (with a maximally wide band), so the solve never
//!    ingests a phantom zero.
//! 2. **Solves** — [`crate::solver::solve_shares`] reconciles the
//!    priors with the implied dynamic budget.
//! 3. **Cross-checks** — the pre-solve residual `|meter − prediction|`
//!    is compared against the confidence band; a sustained excess means
//!    the *model* (not one app) is wrong — a biased meter, a fleet-wide
//!    phase shift, a poisoned profile — exactly the correlated errors a
//!    per-channel cross-check cannot see.
//! 4. **Degrades** — the ladder returns a [`DegradeAction`]: engage a
//!    conservative fallback (plan against the cap *minus the band*),
//!    and escalate to safe mode when shaving did not stop the spikes.
//!
//! The ladder is a pure state machine over one bool per poll (the same
//! discipline as the safe-mode watchdog), so every transition is
//! directly unit-testable without a simulator.

use std::collections::BTreeMap;

use crate::solver::{solve_shares, AppPrior, SolvedShare};

/// Floor on any per-app prior sigma, in watts.
pub const SIGMA_FLOOR_W: f64 = 0.5;
/// Base relative sigma on a full-confidence prior (fraction of the
/// predicted draw).
pub const PRIOR_REL_SIGMA: f64 = 0.05;
/// Sigma multiplier for an app whose last knob write has not
/// verified (the actuated setting may not be the planned one).
pub const STALE_KNOB_INFLATION: f64 = 3.0;
/// Relative sigma attributed to the meter itself (fraction of the
/// observed reading); folds into the residual band so calibrated
/// meter noise does not read as model error.
pub const METER_REL_SIGMA: f64 = 0.02;
/// Polls a missing sample is served from the last good reading
/// before the estimator falls back to the prior-sum pseudo-meter.
pub const HOLD_MAX_POLLS: u32 = 3;
/// Per-held-poll multiplicative band growth (≥ 1).
pub const STALE_SIGMA_GROWTH: f64 = 1.5;
/// A residual counts as a spike above `RESIDUAL_BAND_K × band`
/// (and above [`RESIDUAL_FLOOR_W`], so a near-idle server with a
/// tiny band is not hair-triggered).
pub const RESIDUAL_BAND_K: f64 = 3.0;
/// Absolute spike floor, in watts.
pub const RESIDUAL_FLOOR_W: f64 = 3.0;
/// Consecutive spike polls before the fallback cap engages.
pub const RESIDUAL_PATIENCE: u32 = 8;
/// Consecutive spike polls *while the fallback is engaged* before
/// the ladder escalates to safe mode.
pub const ESCALATE_PATIENCE: u32 = 100;
/// Consecutive clean polls before an engaged fallback releases.
pub const RELEASE_PATIENCE: u32 = 20;
/// Lower bound on the claimed-over-expected heartbeat ratio an
/// app's self-report may scale its prior by. Claims below this are
/// clamped (and counted — the integrity layer reads clamp-bound
/// polls as evidence).
pub const HB_RATIO_MIN: f64 = 0.5;
/// Upper bound on the claimed-over-expected heartbeat ratio.
pub const HB_RATIO_MAX: f64 = 1.5;

const _: () = assert!(HB_RATIO_MIN < 1.0 && 1.0 < HB_RATIO_MAX);
const _: () = assert!(STALE_SIGMA_GROWTH >= 1.0);

/// Enables the estimation layer. It carries no settings: the layer's
/// tunables are the constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EstimatorConfig {}

/// One app's estimated share with its confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareEstimate {
    /// Estimated dynamic draw, in watts.
    pub watts: f64,
    /// One-sigma confidence band, in watts (widened under dropouts,
    /// stale knob acks and low-confidence priors).
    pub sigma_w: f64,
}

/// The reconstructed per-app breakdown for one poll. The default is the
/// breakdown of no apps and no sample, for
/// [`PowerEstimator::estimate`] to fill in.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EstimatedBreakdown {
    /// Per-app share estimates (suspended apps appear with 0 W).
    pub apps: BTreeMap<String, ShareEstimate>,
    /// The aggregate net sample the solve used, in watts (the held
    /// last-good value during a dropout window, the prior-sum
    /// pseudo-meter past it).
    pub observed_net_w: f64,
    /// The dynamic budget that was disaggregated, in watts.
    pub dynamic_total_w: f64,
    /// Pre-solve residual: meter-implied dynamic total minus the
    /// prior-sum prediction, in watts. The model cross-check signal.
    pub residual_w: f64,
    /// One-sigma band on the total (priors + meter), in watts. The
    /// conservative fallback shaves the planning cap by this much.
    pub band_w: f64,
    /// Where the aggregate sample came from.
    pub sample: SampleSource,
}

/// Where the aggregate sample behind an [`EstimatedBreakdown`] came
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleSource {
    /// The meter reported this poll.
    Fresh,
    /// A dropout inside the hold window: the last good reading stood in.
    Held,
    /// No usable reading — the dropout outlasted [`HOLD_MAX_POLLS`], or
    /// the meter never reported at all: the prior-sum pseudo-meter
    /// stood in.
    #[default]
    Blind,
}

/// What the degradation ladder wants the runtime to do this poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Estimates look consistent; no change.
    None,
    /// Sustained residual: engage the conservative fallback (shave the
    /// planning cap by the confidence band).
    EngageFallback,
    /// The fallback did not stop the spikes: escalate to safe mode.
    Escalate,
    /// The residual stayed clean long enough: release the fallback.
    ReleaseFallback,
}

/// One poll's verdict from [`PowerEstimator::note_residual`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidualVerdict {
    /// `Some(streak)` when the residual spiked: the consecutive spike
    /// polls so far, this one included.
    pub spike: Option<u32>,
    /// What the runtime must do.
    pub action: DegradeAction,
}

/// Stateful per-server power estimator.
#[derive(Debug, Clone, Default)]
pub struct PowerEstimator {
    last_good_w: Option<f64>,
    held_polls: u32,
    spike_polls: u32,
    clean_polls: u32,
    fallback_engaged: bool,
    escalated: bool,
    /// This poll's priors with their bands widened for staleness, by
    /// prior position. They carry no names: the solve reads none.
    widened: Vec<AppPrior>,
    /// The solve's shares and its active set.
    shares: Vec<SolvedShare>,
    free: Vec<usize>,
}

impl PowerEstimator {
    /// Whether the conservative fallback cap is currently engaged.
    pub fn fallback_engaged(&self) -> bool {
        self.fallback_engaged
    }

    /// Reconstructs the per-app breakdown for one poll into `out`.
    ///
    /// `observed_net_w` is the aggregate meter sample (`None` on a
    /// dropout); `static_floor_w` is the known idle + uncore draw;
    /// `esd_charge_w`/`esd_discharge_w` are the BMS-reported flows
    /// (separately metered on a real server); `priors` carries one
    /// entry per hosted app, already sigma-widened by the caller for
    /// stale knob acks and low-confidence profiles.
    ///
    /// Every field of `out` is overwritten. Its per-app entries are
    /// updated in place when `out` already holds exactly the priors'
    /// names in the priors' order (strictly ascending, as a server's
    /// apps are), so a steady poll over the same apps allocates nothing;
    /// otherwise they are rebuilt.
    pub fn estimate(
        &mut self,
        observed_net_w: Option<f64>,
        static_floor_w: f64,
        esd_charge_w: f64,
        esd_discharge_w: f64,
        priors: &[AppPrior],
        out: &mut EstimatedBreakdown,
    ) {
        let prior_sum: f64 = priors.iter().map(|p| p.predicted_w).sum();
        let predicted_net = static_floor_w + prior_sum + esd_charge_w - esd_discharge_w;
        let (sample_w, source) = match observed_net_w {
            Some(v) => {
                self.last_good_w = Some(v);
                self.held_polls = 0;
                (v, SampleSource::Fresh)
            }
            None => {
                self.held_polls += 1;
                match self.last_good_w {
                    // Hold the last good reading through a bounded
                    // window…
                    Some(v) if self.held_polls <= HOLD_MAX_POLLS => (v, SampleSource::Held),
                    // …then stop pretending the meter exists: serve the
                    // model's own prediction with a maximally wide band
                    // (the residual is zero by construction, so a blind
                    // estimator never drives the ladder).
                    _ => (predicted_net, SampleSource::Blind),
                }
            }
        };
        // Staleness widens every band geometrically per held poll.
        let growth = STALE_SIGMA_GROWTH.powi(self.held_polls.min(16) as i32);
        self.widened.clear();
        self.widened.extend(priors.iter().map(|p| AppPrior {
            name: String::new(),
            predicted_w: p.predicted_w,
            sigma_w: (p.sigma_w * growth).max(SIGMA_FLOOR_W),
        }));
        let dynamic_total = sample_w - static_floor_w - esd_charge_w + esd_discharge_w;
        solve_shares(
            dynamic_total,
            &self.widened,
            &mut self.shares,
            &mut self.free,
        );
        let prior_var: f64 = self.widened.iter().map(|p| p.sigma_w.powi(2)).sum();
        let meter_sigma = METER_REL_SIGMA * sample_w.abs() * growth;
        let band = (prior_var + meter_sigma.powi(2)).sqrt();
        let estimates = self.shares.iter().map(|s| ShareEstimate {
            watts: s.watts,
            sigma_w: s.sigma_w,
        });
        let same_apps = out.apps.len() == priors.len()
            && out.apps.keys().zip(priors).all(|(name, p)| *name == p.name);
        if same_apps {
            for (share, estimate) in out.apps.values_mut().zip(estimates) {
                *share = estimate;
            }
        } else {
            out.apps.clear();
            out.apps
                .extend(priors.iter().map(|p| p.name.clone()).zip(estimates));
        }
        out.observed_net_w = sample_w;
        out.dynamic_total_w = dynamic_total.max(0.0);
        out.residual_w = sample_w - predicted_net;
        out.band_w = band;
        out.sample = source;
    }

    /// Feeds one poll's residual into the degradation ladder and
    /// returns the spike verdict and the action the runtime must take.
    ///
    /// Only a fresh sample is evidence: held and blind polls neither
    /// advance the spike counter nor reset it.
    pub fn note_residual(&mut self, estimate: &EstimatedBreakdown) -> ResidualVerdict {
        if estimate.sample != SampleSource::Fresh {
            return ResidualVerdict {
                spike: None,
                action: DegradeAction::None,
            };
        }
        let threshold = (RESIDUAL_BAND_K * estimate.band_w).max(RESIDUAL_FLOOR_W);
        let spike = estimate.residual_w.abs() > threshold;
        if spike {
            self.spike_polls += 1;
            self.clean_polls = 0;
        } else {
            self.clean_polls += 1;
            self.spike_polls = 0;
        }
        let streak = spike.then_some(self.spike_polls);
        let action = if !self.fallback_engaged {
            if self.spike_polls >= RESIDUAL_PATIENCE {
                self.fallback_engaged = true;
                self.escalated = false;
                self.spike_polls = 0;
                DegradeAction::EngageFallback
            } else {
                DegradeAction::None
            }
        } else if spike && !self.escalated && self.spike_polls >= ESCALATE_PATIENCE {
            self.escalated = true;
            self.spike_polls = 0;
            DegradeAction::Escalate
        } else if !spike && self.clean_polls >= RELEASE_PATIENCE {
            self.fallback_engaged = false;
            self.escalated = false;
            self.clean_polls = 0;
            DegradeAction::ReleaseFallback
        } else {
            DegradeAction::None
        };
        ResidualVerdict {
            spike: streak,
            action,
        }
    }
}

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

    /// One poll's breakdown, into a fresh one.
    fn estimate(
        e: &mut PowerEstimator,
        observed_net_w: Option<f64>,
        static_floor_w: f64,
        esd_charge_w: f64,
        esd_discharge_w: f64,
        priors: &[AppPrior],
    ) -> EstimatedBreakdown {
        let mut out = EstimatedBreakdown::default();
        e.estimate(
            observed_net_w,
            static_floor_w,
            esd_charge_w,
            esd_discharge_w,
            priors,
            &mut out,
        );
        out
    }

    fn reference_priors() -> Vec<AppPrior> {
        vec![prior("stream", 20.0, 1.0), prior("kmeans", 15.0, 1.0)]
    }

    #[test]
    fn fresh_sample_disaggregates_to_the_meter() {
        let mut e = PowerEstimator::default();
        // floor 70, priors 35 ⇒ predicted net 105; meter says 107.
        let eb = estimate(&mut e, Some(107.0), 70.0, 0.0, 0.0, &reference_priors());
        assert_eq!(eb.sample, SampleSource::Fresh);
        assert!((eb.dynamic_total_w - 37.0).abs() < 1e-9);
        let total: f64 = eb.apps.values().map(|s| s.watts).sum();
        assert!((total - 37.0).abs() < 1e-6, "shares sum to the meter");
        assert!((eb.residual_w - 2.0).abs() < 1e-9);
    }

    #[test]
    fn esd_flows_are_netted_out() {
        let mut e = PowerEstimator::default();
        // net = gross + charge − discharge; discharge of 10 W hides
        // 10 W of dynamic draw from the net meter.
        let eb = estimate(&mut e, Some(95.0), 70.0, 0.0, 10.0, &reference_priors());
        assert!((eb.dynamic_total_w - 35.0).abs() < 1e-9);
    }

    #[test]
    fn dropouts_hold_the_last_good_sample_with_widening_bands() {
        let mut e = PowerEstimator::default();
        let fresh = estimate(&mut e, Some(105.0), 70.0, 0.0, 0.0, &reference_priors());
        let held1 = estimate(&mut e, None, 70.0, 0.0, 0.0, &reference_priors());
        assert_eq!(held1.sample, SampleSource::Held);
        assert_eq!(held1.observed_net_w, 105.0, "last good value held");
        assert!(held1.band_w > fresh.band_w, "staleness widens the band");
        let held2 = estimate(&mut e, None, 70.0, 0.0, 0.0, &reference_priors());
        assert!(held2.band_w > held1.band_w);
    }

    #[test]
    fn past_the_hold_window_the_prior_sum_takes_over() {
        let mut e = PowerEstimator::default();
        estimate(&mut e, Some(200.0), 70.0, 0.0, 0.0, &reference_priors());
        for _ in 0..HOLD_MAX_POLLS {
            let held = estimate(&mut e, None, 70.0, 0.0, 0.0, &reference_priors());
            assert_eq!(held.sample, SampleSource::Held);
        }
        let blind = estimate(&mut e, None, 70.0, 0.0, 0.0, &reference_priors());
        assert_eq!(blind.sample, SampleSource::Blind);
        assert!(
            (blind.observed_net_w - 105.0).abs() < 1e-9,
            "prior-sum pseudo-meter, not the stale 200 W"
        );
        assert!(blind.residual_w.abs() < 1e-9, "blind residual is zero");
    }

    #[test]
    fn no_sample_ever_means_prior_sum_from_the_start() {
        let mut e = PowerEstimator::default();
        let eb = estimate(&mut e, None, 70.0, 0.0, 0.0, &reference_priors());
        assert_eq!(eb.sample, SampleSource::Blind, "nothing to hold yet");
        assert!((eb.dynamic_total_w - 35.0).abs() < 1e-9);
    }

    fn spike(sample: SampleSource) -> EstimatedBreakdown {
        EstimatedBreakdown {
            apps: BTreeMap::new(),
            observed_net_w: 120.0,
            dynamic_total_w: 50.0,
            residual_w: 50.0,
            band_w: 1.0,
            sample,
        }
    }

    #[test]
    fn ladder_engages_escalates_and_releases() {
        let mut e = PowerEstimator::default();
        let spike = spike(SampleSource::Fresh);
        let clean = EstimatedBreakdown {
            residual_w: 0.0,
            ..spike.clone()
        };
        let none = |streak| ResidualVerdict {
            spike: Some(streak),
            action: DegradeAction::None,
        };
        for streak in 1..RESIDUAL_PATIENCE {
            assert_eq!(e.note_residual(&spike), none(streak));
        }
        assert_eq!(
            e.note_residual(&spike).action,
            DegradeAction::EngageFallback
        );
        assert!(e.fallback_engaged());
        for streak in 1..ESCALATE_PATIENCE {
            assert_eq!(e.note_residual(&spike), none(streak));
        }
        assert_eq!(
            e.note_residual(&spike),
            ResidualVerdict {
                spike: Some(ESCALATE_PATIENCE),
                action: DegradeAction::Escalate,
            }
        );
        // Clean polls release the fallback.
        let quiet = ResidualVerdict {
            spike: None,
            action: DegradeAction::None,
        };
        for _ in 1..RELEASE_PATIENCE {
            assert_eq!(e.note_residual(&clean), quiet);
        }
        assert_eq!(
            e.note_residual(&clean).action,
            DegradeAction::ReleaseFallback
        );
        assert!(!e.fallback_engaged());
    }

    #[test]
    fn held_polls_do_not_advance_the_ladder() {
        let mut e = PowerEstimator::default();
        for sample in [SampleSource::Held, SampleSource::Blind] {
            for _ in 0..2 * RESIDUAL_PATIENCE {
                let verdict = e.note_residual(&spike(sample));
                assert_eq!(verdict.spike, None, "stale evidence is no spike");
                assert_eq!(verdict.action, DegradeAction::None);
            }
        }
        assert!(!e.fallback_engaged(), "stale evidence never engages");
    }

    #[test]
    fn calibrated_noise_stays_under_the_band() {
        // 2% meter noise at ~105 W is ~2 W one-sigma; the default band
        // (k=3 over priors + meter term) must not read it as a spike.
        let mut e = PowerEstimator::default();
        let eb = estimate(&mut e, Some(109.0), 70.0, 0.0, 0.0, &reference_priors());
        assert_eq!(
            e.note_residual(&eb).spike,
            None,
            "4 W off at a ~5 W threshold"
        );
    }

    mod matches_reference {
        use super::*;
        use proptest::prelude::*;

        /// The solve the buffered [`solve_shares`] replaced: it collects
        /// a new share vector and a new active set on every call.
        fn solve_shares_reference(total_dynamic_w: f64, priors: &[AppPrior]) -> Vec<SolvedShare> {
            let budget = total_dynamic_w.max(0.0);
            let n = priors.len();
            let mut shares: Vec<SolvedShare> = priors
                .iter()
                .map(|p| SolvedShare {
                    watts: 0.0,
                    sigma_w: p.sigma_w.max(crate::solver::SIGMA_FLOOR_W),
                })
                .collect();
            if n == 0 {
                return shares;
            }
            let mut free: Vec<usize> = (0..n).collect();
            loop {
                if free.is_empty() {
                    break;
                }
                let prior_sum: f64 = free.iter().map(|&i| priors[i].predicted_w).sum();
                let var_sum: f64 = free.iter().map(|&i| shares[i].sigma_w.powi(2)).sum();
                let mismatch = budget - prior_sum;
                let mut clamped_any = false;
                for &i in &free {
                    let w = priors[i].predicted_w + shares[i].sigma_w.powi(2) / var_sum * mismatch;
                    shares[i].watts = w;
                }
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
            shares
        }

        /// The [`PowerEstimator::estimate`] the in-place one replaced: it
        /// collects the widened priors, the shares and a new breakdown,
        /// names cloned, on every poll.
        fn estimate_reference(
            e: &mut PowerEstimator,
            observed_net_w: Option<f64>,
            static_floor_w: f64,
            esd_charge_w: f64,
            esd_discharge_w: f64,
            priors: &[AppPrior],
        ) -> EstimatedBreakdown {
            let prior_sum: f64 = priors.iter().map(|p| p.predicted_w).sum();
            let predicted_net = static_floor_w + prior_sum + esd_charge_w - esd_discharge_w;
            let (sample_w, source) = match observed_net_w {
                Some(v) => {
                    e.last_good_w = Some(v);
                    e.held_polls = 0;
                    (v, SampleSource::Fresh)
                }
                None => {
                    e.held_polls += 1;
                    match e.last_good_w {
                        Some(v) if e.held_polls <= HOLD_MAX_POLLS => (v, SampleSource::Held),
                        _ => (predicted_net, SampleSource::Blind),
                    }
                }
            };
            let growth = STALE_SIGMA_GROWTH.powi(e.held_polls.min(16) as i32);
            let widened: Vec<AppPrior> = priors
                .iter()
                .map(|p| AppPrior {
                    name: p.name.clone(),
                    predicted_w: p.predicted_w,
                    sigma_w: (p.sigma_w * growth).max(SIGMA_FLOOR_W),
                })
                .collect();
            let dynamic_total = sample_w - static_floor_w - esd_charge_w + esd_discharge_w;
            let shares = solve_shares_reference(dynamic_total, &widened);
            let prior_var: f64 = widened.iter().map(|p| p.sigma_w.powi(2)).sum();
            let meter_sigma = METER_REL_SIGMA * sample_w.abs() * growth;
            let band = (prior_var + meter_sigma.powi(2)).sqrt();
            let apps: BTreeMap<String, ShareEstimate> = widened
                .iter()
                .zip(&shares)
                .map(|(p, s)| {
                    (
                        p.name.clone(),
                        ShareEstimate {
                            watts: s.watts,
                            sigma_w: s.sigma_w,
                        },
                    )
                })
                .collect();
            EstimatedBreakdown {
                apps,
                observed_net_w: sample_w,
                dynamic_total_w: dynamic_total.max(0.0),
                residual_w: sample_w - predicted_net,
                band_w: band,
                sample: source,
            }
        }

        const POOL: [&str; 5] = ["bfs", "kmeans", "pagerank", "stream", "x264"];

        /// One poll's priors: the pool apps in `members` (a bit set),
        /// in name order rotated left by `rotate`, each with its drawn
        /// prior.
        fn priors(members: u8, rotate: usize, draws: &[(f64, f64)]) -> Vec<AppPrior> {
            let mut priors: Vec<AppPrior> = POOL
                .iter()
                .enumerate()
                .filter(|(i, _)| members & (1 << i) != 0)
                .map(|(i, name)| AppPrior {
                    name: name.to_string(),
                    predicted_w: draws[i].0,
                    sigma_w: draws[i].1,
                })
                .collect();
            let len = priors.len().max(1);
            priors.rotate_left(rotate % len);
            priors
        }

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// Over random priors (zero, -0.0 and zero-sigma ones among
            /// them), fresh, held and blind samples, ESD flows and app
            /// sets, the in-place estimate into one held breakdown agrees
            /// bit for bit with the reference's fresh one each poll, and
            /// leaves the same hold state. Most polls keep the member set
            /// in name order; some rotate it, and some swap one member
            /// for a non-member, so the app count stays and the names
            /// change.
            #[test]
            fn prop_estimate_matches_the_reference(
                polls in proptest::collection::vec(
                    (
                        (0u8..32, 0usize..16, (0u8..4, 0usize..5, 0usize..5)),
                        proptest::collection::vec((-5.0f64..60.0, 0.0f64..10.0, 0u8..10), 5),
                        (40.0f64..200.0, 0u8..4, 50.0f64..90.0),
                        (0.0f64..20.0, 0.0f64..20.0, 0u8..4),
                    ),
                    1..40,
                ),
            ) {
                let mut e = PowerEstimator::default();
                let mut reference = PowerEstimator::default();
                let mut held = EstimatedBreakdown::default();
                let mut set = 0u8;
                for ((drawn, rotate, (swap, out, into)), draws, (meter, dropout, floor), (charge, discharge, esd)) in polls {
                    let (out, into) = (1u8 << out, 1u8 << into);
                    if swap == 0 && set & out != 0 && set & into == 0 {
                        set = (set & !out) | into;
                    } else if swap != 1 {
                        set = drawn;
                    }
                    let draws: Vec<(f64, f64)> = draws
                        .into_iter()
                        .map(|(p, s, k)| match k {
                            0 => (0.0, s),
                            1 => (-0.0, s),
                            2 => (p, 0.0),
                            _ => (p, s),
                        })
                        .collect();
                    let priors = priors(set, rotate.saturating_sub(12), &draws);
                    let observed = (dropout > 0).then_some(meter);
                    let (charge, discharge) = match esd {
                        0 => (charge, discharge),
                        1 => (charge, 0.0),
                        _ => (0.0, 0.0),
                    };
                    e.estimate(observed, floor, charge, discharge, &priors, &mut held);
                    let want =
                        estimate_reference(&mut reference, observed, floor, charge, discharge, &priors);
                    prop_assert_eq!(format!("{held:?}"), format!("{want:?}"));
                    prop_assert_eq!(e.last_good_w.map(f64::to_bits), reference.last_good_w.map(f64::to_bits));
                    prop_assert_eq!(e.held_polls, reference.held_polls);
                }
            }
        }

        /// The in-place path runs: polls over the same apps reuse the
        /// held breakdown's entries, and a same-size swap of one app
        /// for another rebuilds them.
        #[test]
        fn same_apps_update_in_place_and_a_swap_rebuilds() {
            let mut e = PowerEstimator::default();
            let mut held = EstimatedBreakdown::default();
            let draws = [(10.0, 1.0); 5];
            let first = priors(0b00011, 0, &draws);
            e.estimate(Some(100.0), 70.0, 0.0, 0.0, &first, &mut held);
            let at = |eb: &EstimatedBreakdown| eb.apps.keys().next().map(|k| k.as_ptr());
            let key = at(&held);
            e.estimate(Some(101.0), 70.0, 0.0, 0.0, &first, &mut held);
            assert_eq!(at(&held), key, "the same apps keep their entries");
            let swapped = priors(0b00101, 0, &draws);
            e.estimate(Some(101.0), 70.0, 0.0, 0.0, &swapped, &mut held);
            let names: Vec<&str> = held.apps.keys().map(String::as_str).collect();
            assert_eq!(names, ["bfs", "pagerank"]);
        }
    }
}
