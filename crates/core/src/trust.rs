//! Trust-weighted integrity defense: per-app trust scores, the
//! quarantine ladder, and the watt-debt ledger.
//!
//! The mediator's estimation layer (PR 7) takes application
//! self-reports — heartbeats, knob acks, calibration probes — at face
//! value. An adversarial application can exploit every one of those
//! channels (see `powermed_sim::adversary`). This module holds the
//! pure state machines the [`crate::runtime::PowerMediator`] uses to
//! defend itself:
//!
//! * [`TrustScore`] — one per app, a score in `[0, 1]` driven by
//!   physics plausibility cross-checks. Evidence *against* an app
//!   (claims clamped at the estimator bound, claims pointing the wrong
//!   way across a residual spike, sustained overdraw, drift churn)
//!   multiplies the score down; clean polls credit it back linearly.
//!   The score is monotone in the evidence: clean polls never lower
//!   it, implausible polls never raise it (proptest-enforced).
//! * The **quarantine ladder** — score tiers with escalating
//!   consequences: `Trusted` (full-confidence priors), `Suspect`
//!   (σ inflated, the app's claimed heartbeat ignored), `Quarantined`
//!   (E7 [`crate::accountant::Event::IntegrityFault`], clamp to fair
//!   share, profile-only estimation), `Probation` (fresh probes, still
//!   σ-inflated, one strike re-quarantines).
//! * [`WattDebtLedger`] — overdrawn watts charged per app and clawed
//!   back from subsequent allocations so honest apps are made whole.
//!   Conservation (repaid ≤ charged, outstanding = charged − repaid)
//!   is proptest-enforced.
//!
//! Everything here is simulator-free and deterministic, so the ladder
//! transitions are directly unit-testable — the same discipline as the
//! safe-mode watchdog and the estimation degradation ladder.

use std::collections::BTreeMap;

/// Scores below this make an app `Suspect` (σ inflation, claimed
/// heartbeat ignored).
pub const SUSPECT_THRESHOLD: f64 = 0.7;
/// Scores below this quarantine the app (E7, fair-share clamp).
pub const QUARANTINE_THRESHOLD: f64 = 0.3;
/// Multiplier applied by mild evidence (a clamp-bound claim).
pub const MILD_FACTOR: f64 = 0.9;
/// Multiplier applied by strong evidence (residual attribution,
/// sustained overdraw, drift churn).
pub const STRONG_FACTOR: f64 = 0.6;
/// Linear credit per clean poll, capped at a score of 1.
pub const CLEAN_CREDIT: f64 = 0.005;
/// Clean polls a quarantined app must string together before
/// probation (and again before re-admission).
pub const PROBATION_CLEAN_POLLS: u32 = 40;
/// Fraction of an app's outstanding watt debt clawed back per
/// plan (bounded so the clamp never goes below the grid floor).
pub const CLAWBACK_RATE: f64 = 0.25;
/// Watts of headroom above the allocation before a poll counts as
/// overdraw.
pub const OVERDRAW_MARGIN_W: f64 = 2.0;
/// Consecutive overdraw polls before the evidence registers (and
/// the debt is charged).
pub const OVERDRAW_PATIENCE: u32 = 5;
/// E4 drift events on one app before further drifts count as
/// strong evidence (profile churn is how a sandbagger looks from
/// the outside).
pub const DRIFT_CHURN_THRESHOLD: u32 = 3;
/// How long an integrity audit holds the server in a pinned
/// minimum-power Space schedule, in seconds. The audit fires when the
/// estimation fallback engages while every app is still trusted —
/// the meter disagrees with the model but nothing is implicated,
/// which is what a colluding pair hiding inside a duty-cycled
/// schedule looks like. Pinning everyone low and steady lets
/// heartbeat claims mature so the plausibility cross-checks can
/// assign blame; the audit ends at the first quarantine or at this
/// deadline, whichever comes first.
pub const AUDIT_SECS: f64 = 8.0;

const _: () = assert!(0.0 < QUARANTINE_THRESHOLD && QUARANTINE_THRESHOLD < SUSPECT_THRESHOLD);
const _: () = assert!(SUSPECT_THRESHOLD < 1.0);

/// Enables the integrity defense. It carries no settings: the layer's
/// tunables are the constants of this module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrustConfig {}

/// Where an app currently sits on the quarantine ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustTier {
    /// Full-confidence priors, claims honored.
    Trusted,
    /// σ inflated by the score, claimed heartbeat ignored.
    Suspect,
    /// E7 fired: clamped to fair share, profile-only estimation.
    Quarantined,
    /// Fresh probes granted; one strong strike re-quarantines.
    Probation,
}

/// A ladder transition the runtime must act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrustTransition {
    /// Crossed the suspect threshold downward.
    Downgraded,
    /// Crossed the quarantine threshold: fire E7, clamp to fair share.
    Quarantined,
    /// Clean window served in quarantine: re-probe and watch.
    Probation,
    /// Clean window served on probation: restore full trust.
    Readmitted,
}

/// How damning one poll's evidence is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// The claim disagreed with physics mildly (clamp-bound ratio).
    Mild,
    /// The claim pointed the wrong way across a residual spike,
    /// sustained overdraw, or drift churn.
    Strong,
}

/// One app's trust score and ladder position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrustScore {
    score: f64,
    tier: TrustTier,
    clean_polls: u32,
    drift_events: u32,
    overdraw_polls: u32,
}

impl Default for TrustScore {
    fn default() -> Self {
        Self::new()
    }
}

impl TrustScore {
    /// A fresh app starts fully trusted.
    pub fn new() -> Self {
        Self {
            score: 1.0,
            tier: TrustTier::Trusted,
            clean_polls: 0,
            drift_events: 0,
            overdraw_polls: 0,
        }
    }

    /// The score in `[0, 1]`.
    pub fn score(&self) -> f64 {
        self.score
    }

    /// The current ladder tier.
    pub fn tier(&self) -> TrustTier {
        self.tier
    }

    /// Whether the app's self-reports should be ignored (profile-only
    /// estimation): any tier below `Trusted`.
    pub fn distrusted(&self) -> bool {
        self.tier != TrustTier::Trusted
    }

    /// Whether the app is currently clamped to its fair share.
    pub fn quarantined(&self) -> bool {
        self.tier == TrustTier::Quarantined
    }

    /// E4 drift events recorded against this app.
    pub fn drift_events(&self) -> u32 {
        self.drift_events
    }

    /// Records one E4 drift; returns `true` once churn crosses the
    /// threshold (the caller then feeds [`Evidence::Strong`]).
    pub fn note_drift(&mut self) -> bool {
        self.drift_events = self.drift_events.saturating_add(1);
        self.drift_events > DRIFT_CHURN_THRESHOLD
    }

    /// Records one poll of overdraw (attributed draw above allocation
    /// plus margin); returns `true` when patience is exhausted — the
    /// caller charges the debt and feeds [`Evidence::Strong`]. A
    /// non-overdrawn poll resets the streak via [`Self::note_clean`].
    pub fn note_overdraw(&mut self) -> bool {
        self.overdraw_polls = self.overdraw_polls.saturating_add(1);
        if self.overdraw_polls >= OVERDRAW_PATIENCE {
            self.overdraw_polls = 0;
            return true;
        }
        false
    }

    /// Applies one poll of evidence against the app. Never raises the
    /// score. Returns the ladder transition, if any.
    pub fn note_evidence(&mut self, evidence: Evidence) -> Option<TrustTransition> {
        let factor = match evidence {
            Evidence::Mild => MILD_FACTOR,
            Evidence::Strong => STRONG_FACTOR,
        };
        self.score = (self.score * factor).clamp(0.0, 1.0);
        self.clean_polls = 0;
        match self.tier {
            TrustTier::Trusted if self.score < SUSPECT_THRESHOLD => {
                self.tier = TrustTier::Suspect;
                if self.score < QUARANTINE_THRESHOLD {
                    self.tier = TrustTier::Quarantined;
                    return Some(TrustTransition::Quarantined);
                }
                Some(TrustTransition::Downgraded)
            }
            TrustTier::Suspect if self.score < QUARANTINE_THRESHOLD => {
                self.tier = TrustTier::Quarantined;
                Some(TrustTransition::Quarantined)
            }
            // One strong strike on probation re-quarantines outright;
            // a mild one only costs score (and the clean streak).
            TrustTier::Probation if evidence == Evidence::Strong => {
                self.score = self.score.min(QUARANTINE_THRESHOLD * 0.9);
                self.tier = TrustTier::Quarantined;
                Some(TrustTransition::Quarantined)
            }
            TrustTier::Probation if self.score < QUARANTINE_THRESHOLD => {
                self.tier = TrustTier::Quarantined;
                Some(TrustTransition::Quarantined)
            }
            _ => None,
        }
    }

    /// Credits one clean poll. Never lowers the score. Returns the
    /// ladder transition, if any (quarantine → probation → trusted).
    pub fn note_clean(&mut self) -> Option<TrustTransition> {
        self.overdraw_polls = 0;
        self.score = (self.score + CLEAN_CREDIT).clamp(0.0, 1.0);
        match self.tier {
            TrustTier::Quarantined => {
                self.clean_polls += 1;
                if self.clean_polls >= PROBATION_CLEAN_POLLS {
                    self.clean_polls = 0;
                    self.tier = TrustTier::Probation;
                    // Probation starts at the quarantine boundary so a
                    // single mild slip does not instantly re-latch.
                    self.score = self.score.max(QUARANTINE_THRESHOLD);
                    return Some(TrustTransition::Probation);
                }
                None
            }
            TrustTier::Probation => {
                self.clean_polls += 1;
                if self.clean_polls >= PROBATION_CLEAN_POLLS {
                    self.clean_polls = 0;
                    self.tier = TrustTier::Trusted;
                    self.score = self.score.max(SUSPECT_THRESHOLD);
                    self.drift_events = 0;
                    return Some(TrustTransition::Readmitted);
                }
                None
            }
            TrustTier::Suspect => {
                if self.score >= SUSPECT_THRESHOLD {
                    self.tier = TrustTier::Trusted;
                }
                None
            }
            TrustTier::Trusted => None,
        }
    }
}

/// Per-app record of overdrawn watts and their repayment.
///
/// Units are watt-polls: one watt of overdraw observed for one poll
/// charges one entry; the clawback withholds watts from subsequent
/// plans until the debt retires. Conservation invariants (enforced by
/// proptest): `repaid ≤ charged`, `outstanding = charged − repaid`,
/// nothing ever goes negative.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WattDebtLedger {
    charged: BTreeMap<String, f64>,
    repaid: BTreeMap<String, f64>,
}

impl WattDebtLedger {
    /// An empty ledger.
    pub const fn new() -> Self {
        Self {
            charged: BTreeMap::new(),
            repaid: BTreeMap::new(),
        }
    }

    /// Charges `w` watt-polls of overdraw against `app`. Negative
    /// charges are ignored.
    pub fn charge(&mut self, app: &str, w: f64) {
        if w > 0.0 {
            *self.charged.entry(app.to_string()).or_insert(0.0) += w;
        }
    }

    /// Repays up to `w` of `app`'s outstanding debt; returns the watts
    /// actually repaid (never more than outstanding, never negative).
    pub fn repay(&mut self, app: &str, w: f64) -> f64 {
        let paid = w.max(0.0).min(self.outstanding(app));
        if paid > 0.0 {
            *self.repaid.entry(app.to_string()).or_insert(0.0) += paid;
        }
        paid
    }

    /// `app`'s unpaid balance.
    pub fn outstanding(&self, app: &str) -> f64 {
        let c = self.charged.get(app).copied().unwrap_or(0.0);
        let r = self.repaid.get(app).copied().unwrap_or(0.0);
        (c - r).max(0.0)
    }

    /// Total watt-polls ever charged, across all apps.
    pub fn total_charged(&self) -> f64 {
        self.charged.values().sum()
    }

    /// Total watt-polls ever repaid, across all apps.
    pub fn total_repaid(&self) -> f64 {
        self.repaid.values().sum()
    }

    /// Drops `app`'s balances (departure).
    pub fn remove(&mut self, app: &str) {
        self.charged.remove(app);
        self.repaid.remove(app);
    }
}

/// The planning budget for a quarantined app's clamp: its fair share
/// of the dynamic budget minus this plan's clawback. Returns
/// `(budget_w, clawback_w)`.
///
/// The clawback is bounded at half the fair share, so the docked app
/// always keeps a floor of `fair / 2` — a large debt is repaid over
/// more plans instead of starving the app outright, and an honest
/// app's share is never the source of the repayment (proptest-enforced
/// alongside the ledger invariants).
pub fn clamp_budget(fair_w: f64, outstanding_w: f64) -> (f64, f64) {
    let clawback = (outstanding_w * CLAWBACK_RATE).min(fair_w * 0.5).max(0.0);
    ((fair_w - clawback).max(0.0), clawback)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_score_is_fully_trusted() {
        let t = TrustScore::new();
        assert_eq!(t.score(), 1.0);
        assert_eq!(t.tier(), TrustTier::Trusted);
        assert!(!t.distrusted());
    }

    #[test]
    fn mild_evidence_walks_down_to_suspect_then_quarantine() {
        let mut t = TrustScore::new();
        let mut saw_downgrade = false;
        let mut saw_quarantine = false;
        for _ in 0..32 {
            match t.note_evidence(Evidence::Mild) {
                Some(TrustTransition::Downgraded) => saw_downgrade = true,
                Some(TrustTransition::Quarantined) => {
                    saw_quarantine = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(saw_downgrade, "crossed the suspect threshold first");
        assert!(saw_quarantine, "then the quarantine threshold");
        assert!(t.quarantined());
    }

    #[test]
    fn strong_evidence_quarantines_faster_than_mild() {
        let mut mild = TrustScore::new();
        let mut strong = TrustScore::new();
        let count = |t: &mut TrustScore, e: Evidence| {
            let mut polls = 0;
            while !t.quarantined() {
                t.note_evidence(e);
                polls += 1;
            }
            polls
        };
        assert!(count(&mut strong, Evidence::Strong) < count(&mut mild, Evidence::Mild));
    }

    #[test]
    fn clean_window_earns_probation_then_readmission() {
        let mut t = TrustScore::new();
        while !t.quarantined() {
            t.note_evidence(Evidence::Strong);
        }
        let mut transitions = Vec::new();
        for _ in 0..(2 * PROBATION_CLEAN_POLLS) {
            if let Some(tr) = t.note_clean() {
                transitions.push(tr);
            }
        }
        assert_eq!(
            transitions,
            vec![TrustTransition::Probation, TrustTransition::Readmitted]
        );
        assert_eq!(t.tier(), TrustTier::Trusted);
        assert!(t.score() >= SUSPECT_THRESHOLD);
    }

    #[test]
    fn strong_strike_on_probation_requarantines() {
        let mut t = TrustScore::new();
        while !t.quarantined() {
            t.note_evidence(Evidence::Strong);
        }
        for _ in 0..PROBATION_CLEAN_POLLS {
            t.note_clean();
        }
        assert_eq!(t.tier(), TrustTier::Probation);
        assert_eq!(
            t.note_evidence(Evidence::Strong),
            Some(TrustTransition::Quarantined)
        );
        assert!(t.quarantined());
    }

    #[test]
    fn drift_churn_counts_only_past_the_threshold() {
        let mut t = TrustScore::new();
        for _ in 0..DRIFT_CHURN_THRESHOLD {
            assert!(!t.note_drift(), "early drifts are legitimate E4s");
        }
        assert!(t.note_drift(), "churn past the threshold is evidence");
    }

    #[test]
    fn overdraw_needs_patience_and_clean_polls_reset_it() {
        let mut t = TrustScore::new();
        for _ in 0..(OVERDRAW_PATIENCE - 1) {
            assert!(!t.note_overdraw());
        }
        t.note_clean();
        for _ in 0..(OVERDRAW_PATIENCE - 1) {
            assert!(!t.note_overdraw(), "streak was reset by the clean poll");
        }
        assert!(t.note_overdraw());
    }

    #[test]
    fn ledger_conserves_watts() {
        let mut l = WattDebtLedger::new();
        l.charge("stream", 10.0);
        l.charge("stream", 5.0);
        assert_eq!(l.outstanding("stream"), 15.0);
        assert_eq!(l.repay("stream", 6.0), 6.0);
        assert_eq!(l.outstanding("stream"), 9.0);
        assert_eq!(l.repay("stream", 100.0), 9.0, "never repays past the debt");
        assert_eq!(l.outstanding("stream"), 0.0);
        assert_eq!(l.total_charged(), 15.0);
        assert_eq!(l.total_repaid(), 15.0);
    }

    #[test]
    fn ledger_ignores_negative_flows_and_unknown_apps() {
        let mut l = WattDebtLedger::new();
        l.charge("stream", -3.0);
        assert_eq!(l.outstanding("stream"), 0.0);
        assert_eq!(l.repay("kmeans", 5.0), 0.0);
        assert_eq!(l.total_charged(), 0.0);
        assert_eq!(l.total_repaid(), 0.0);
    }

    use proptest::prelude::*;

    /// Replays an arbitrary evidence history onto a fresh score.
    /// 0 = clean, 1 = mild, 2 = strong.
    fn replay(codes: &[u8]) -> TrustScore {
        let mut t = TrustScore::new();
        for &code in codes {
            match code {
                0 => {
                    t.note_clean();
                }
                1 => {
                    t.note_evidence(Evidence::Mild);
                }
                _ => {
                    t.note_evidence(Evidence::Strong);
                }
            }
        }
        t
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Monotonicity, upward half: from any prior history, a clean
        /// poll never lowers the score. An honest app can only climb.
        #[test]
        fn prop_clean_polls_never_lower_trust(
            history in proptest::collection::vec(0u8..3, 0..60),
            cleans in 1usize..80,
        ) {
            let mut t = replay(&history);
            let mut score = t.score();
            for _ in 0..cleans {
                t.note_clean();
                prop_assert!(
                    t.score() >= score,
                    "a clean poll lowered the score: {score} -> {}",
                    t.score()
                );
                score = t.score();
            }
        }

        /// Monotonicity, downward half: from any prior history, an
        /// implausible poll never raises the score. Misbehaving is
        /// never how an app climbs back.
        #[test]
        fn prop_implausible_polls_never_raise_trust(
            history in proptest::collection::vec(0u8..3, 0..60),
            strikes in proptest::collection::vec(1u8..3, 1..80),
        ) {
            let mut t = replay(&history);
            let mut score = t.score();
            for code in strikes {
                let evidence = if code == 1 { Evidence::Mild } else { Evidence::Strong };
                t.note_evidence(evidence);
                prop_assert!(
                    t.score() <= score,
                    "implausible evidence raised the score: {score} -> {}",
                    t.score()
                );
                score = t.score();
            }
        }

        /// Conservation: across any interleaving of charges and
        /// repayments on any mix of apps, repaid ≤ charged (globally
        /// and per app), balances never go negative, and the books
        /// reconcile: Σ outstanding = charged − repaid.
        #[test]
        fn prop_ledger_conserves_watts(
            ops in proptest::collection::vec((0u8..2, 0usize..3, 0.0f64..50.0), 1..100),
        ) {
            let apps = ["stream", "kmeans", "pagerank"];
            let mut l = WattDebtLedger::new();
            for (kind, who, w) in ops {
                let app = apps[who];
                if kind == 0 {
                    l.charge(app, w);
                } else {
                    let before = l.outstanding(app);
                    let paid = l.repay(app, w);
                    prop_assert!(paid >= 0.0);
                    prop_assert!(paid <= before + 1e-9, "repaid past the debt");
                }
            }
            let mut outstanding_sum = 0.0;
            for app in apps {
                prop_assert!(l.outstanding(app) >= 0.0);
                outstanding_sum += l.outstanding(app);
            }
            prop_assert!(l.total_repaid() <= l.total_charged() + 1e-9);
            let books = l.total_charged() - l.total_repaid();
            prop_assert!(
                (outstanding_sum - books).abs() < 1e-6,
                "ledger does not reconcile: outstanding {outstanding_sum} vs books {books}"
            );
        }

        /// The fair floor: whatever the debt, the clawback never docks
        /// a clamped app below half its fair share, never exceeds what
        /// the budget gives up, and never invents watts.
        #[test]
        fn prop_clamp_budget_keeps_the_fair_floor(
            fair in 0.0f64..60.0,
            outstanding in 0.0f64..500.0,
        ) {
            let (budget, clawback) = clamp_budget(fair, outstanding);
            prop_assert!(budget >= fair * 0.5 - 1e-9, "docked below the fair floor");
            prop_assert!(budget <= fair + 1e-9, "the clamp never grants extra watts");
            prop_assert!(clawback >= 0.0);
            prop_assert!((fair - budget - clawback).abs() < 1e-9, "watts leaked");
            prop_assert!(clawback <= outstanding * CLAWBACK_RATE + 1e-9, "clawed back more than due");
        }
    }
}
