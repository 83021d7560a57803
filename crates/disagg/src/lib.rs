//! Non-intrusive per-app power disaggregation.
//!
//! Every real server exposes *one* aggregate power meter, yet the
//! paper's mediator accounts, plans and watchdogs per application. This
//! crate reconstructs the per-app breakdown the runtime never gets to
//! measure, WattScope-style: the learned utility profiles predict what
//! each application *should* draw at its currently actuated knob, and a
//! constrained weighted least-squares solve reconciles those priors
//! with the meter reading, attributing the mismatch to the applications
//! whose priors are least trusted.
//!
//! The pieces:
//!
//! * [`solver`] — the pure solve: given a dynamic-power budget and one
//!   prior (mean, sigma) per application, return non-negative shares
//!   that sum to the budget, minimizing the confidence-weighted squared
//!   deviation from the priors ([`solver::solve_shares`]);
//! * [`estimator`] — the stateful runtime layer: assembles priors into
//!   an [`estimator::EstimatedBreakdown`] with per-app confidence
//!   intervals that widen under sensor dropout (held samples), stale
//!   knob acks and low-confidence priors, cross-checks the prior-sum
//!   residual against the meter, and drives the degradation ladder
//!   (residual spike → conservative fallback cap → safe-mode
//!   escalation) so a wrong model degrades the runtime conservatively
//!   instead of feeding it garbage shares.
//!
//! The crate is deliberately free of simulator and runtime types — it
//! speaks `f64` watts and app names only — so the solver is directly
//! unit- and property-testable and the mediator integration stays a
//! thin adapter.

pub mod estimator;
pub mod solver;

pub use estimator::{
    DegradeAction, EstimatedBreakdown, EstimatorConfig, PowerEstimator, ResidualVerdict,
    SampleSource, ShareEstimate,
};
pub use solver::{solve_shares, AppPrior};
