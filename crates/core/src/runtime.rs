//! The `PowerMediator`: the paper's full runtime (Fig. 6) driving a
//! simulated server.
//!
//! Each control step ([`PowerMediator::step`]) is one pass through a
//! fixed pipeline of stages:
//!
//! 1. **actuate** — enter the current phase of the [`Schedule`] (knobs,
//!    suspend/resume, ESD command) and retry knob writes that did not
//!    land; both are held while safe mode is engaged;
//! 2. **step** — advance the simulation;
//! 3. **sense** — read each application's run state and claimed
//!    heartbeat rate;
//! 4. **estimate** — per-app power: the simulator's breakdown, or a
//!    disaggregation of the aggregate meter when estimation is on;
//! 5. **account** — the [`Accountant`] turns the poll into events
//!    E1–E7, which re-plan (and re-calibrate, for E4), and the
//!    estimator's residual ladder may engage its fallback;
//! 6. **trust** — the integrity defense cross-checks claims against
//!    physics and walks the quarantine ladder;
//! 7. **harden** — sensor health and the safe-mode watchdog.
//!
//! Each optional layer (hardening, estimation, defense, profile store,
//! flight recorder) keeps its state in one struct held in one `Option`
//! field; an absent layer skips its stages, so the runtime without it is
//! bit-identical to one that never had it.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

use powermed_disagg::estimator::{
    HB_RATIO_MAX, HB_RATIO_MIN, PRIOR_REL_SIGMA, RESIDUAL_FLOOR_W, SIGMA_FLOOR_W,
    STALE_KNOB_INFLATION,
};
use powermed_disagg::{
    AppPrior, DegradeAction, EstimatedBreakdown, EstimatorConfig, PowerEstimator, ResidualVerdict,
    SampleSource,
};
use powermed_profiles::{
    AppFingerprint, ProbeSplit, ProfileDigest, ProfileStore, Provenance, StoredProfile,
};
use powermed_server::knobs::{KnobGrid, KnobSetting};
use powermed_server::server::AppRunState;
use powermed_server::ServerSpec;
use powermed_sim::engine::{EsdCommand, ServerSim, StepReport};
use powermed_telemetry::faults::{EstimationStats, HardeningStats, TrustStats};
use powermed_telemetry::journal::{KnobWriteVerdict, Obs, ObsEvent, SafeModeTransition};
use powermed_telemetry::ProfileStoreStats;
use powermed_units::{Ratio, Seconds, Watts};
use powermed_workloads::profile::AppProfile;

use crate::accountant::{Accountant, Event, Observation};
use crate::cache::MeasurementCache;
use crate::calibration::{Calibrated, Calibrator};
use crate::coordinator::{EsdParams, Schedule, TimeSlot};
use crate::error::CoreError;
use crate::measurement::AppMeasurement;
use crate::policy::{PolicyKind, PowerPolicy};
use crate::slo::SloPlanner;
use crate::trust::{
    clamp_budget, Evidence, TrustConfig, TrustScore, TrustTransition, WattDebtLedger, AUDIT_SECS,
    CLAWBACK_RATE, OVERDRAW_MARGIN_W,
};
use crate::watchdog::{
    HardeningConfig, SafeModeWatchdog, WatchdogTransition, DROPOUT_HOLD_POLLS, DROPOUT_PATIENCE,
    MAX_RETRIES, RETRY_BACKOFF, STUCK_PATIENCE, WATCHDOG_PATIENCE, WATCHDOG_RELEASE,
};

/// Which phase of a schedule is currently actuated.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Actuation {
    None,
    Space,
    /// The active duty-cycle slot (Alternate, or Hybrid with slots).
    Slot(usize),
    /// Hybrid with no batch slots: pinned apps only.
    HybridPinned,
    EsdOff,
    EsdOn,
    Parked,
}

/// The schedule in force and how far its execution has got.
#[derive(Debug)]
struct Actuator {
    schedule: Arc<Schedule>,
    /// When `schedule` was installed; cycle positions count from here.
    anchor: Seconds,
    /// A freshly planned schedule that has not taken effect yet (the
    /// paper observes ~800 ms between a triggering event and the new
    /// allocation being in force; the latency is configurable and
    /// defaults to zero).
    pending: Option<(Arc<Schedule>, Seconds)>,
    latency: Seconds,
    actuation: Actuation,
    /// When the actuation last changed (heartbeat windows spanning a
    /// knob change are not clean drift evidence).
    actuated_at: Seconds,
}

/// The plans a mediator has made, keyed by everything a plan reads: the
/// planners' configuration (the policy's scheme, spec and cycle period,
/// and the SLO planner's when it made the plan), each planned app's name
/// and surface in order, and the bits of the target and the ESD
/// parameters. A replan whose inputs repeat a booked plan's takes that
/// schedule; the quarantine clamps, the audit and the actuation around
/// the plan still run. Surfaces are keyed by their content fingerprint,
/// so the book holds no surface alive, and a surface recalibrated into a
/// new `Arc` with equal content still finds its plan.
///
/// Every mediator starts with a book of its own.
/// [`PowerMediator::with_plan_book`] replaces it with one shared across a
/// fleet run, so a server whose mix and cap repeat another's takes that
/// plan instead of computing it again; the shared book dies with the run.
/// Clones share one book.
///
/// The book keeps every plan until it holds two per handle sharing it:
/// a fleet whose servers share mixes and caps plans each distinct input
/// once. Past that size, before each growth of its table, it drops the
/// plans no mediator holds any more, so a book whose inputs keep changing
/// (online recalibration, ever-new caps) stays bounded. Each mediator
/// holds the last plan it used, so that plan stays booked even while a
/// quarantine clamp installs a merged copy of it.
#[derive(Debug, Clone, Default)]
pub struct PlanBook(Arc<Mutex<Vec<Shelf>>>);

/// One planner configuration's plans: the policy's, with the SLO
/// planner's beside it when that planner made them.
#[derive(Debug)]
struct Shelf {
    policy: PowerPolicy,
    slo: Option<SloPlanner>,
    plans: Vec<(PlanKey, Arc<Schedule>)>,
}

impl Shelf {
    /// Whether `policy` and `slo` plan exactly as this shelf's planners
    /// did (see [`PowerPolicy::plans_like`] and
    /// [`SloPlanner::plans_like`]).
    fn holds(&self, policy: &PowerPolicy, slo: Option<&SloPlanner>) -> bool {
        self.policy.plans_like(policy)
            && match (&self.slo, slo) {
                (Some(a), Some(b)) => a.plans_like(b),
                (a, b) => a.is_none() && b.is_none(),
            }
    }
}

/// How many plans a [`PlanBook`] keeps per handle sharing it before it
/// starts to drop the plans no mediator holds.
const PLANS_PER_SHARER: usize = 2;

/// A booked plan's inputs beside its planners: each planned app's name
/// and [`AppMeasurement::fingerprint`] in order, the target's bits and
/// [`esd_bits`]. Built only when a plan is booked.
#[derive(Debug)]
struct PlanKey {
    apps: Vec<(String, u64)>,
    target: u64,
    esd: Option<[u64; 3]>,
}

/// A replan's inputs as it streams them: a [`PlanKey`] with the apps
/// borrowed, so a lookup allocates nothing.
struct PlanInputs<I> {
    apps: I,
    target: u64,
    esd: Option<[u64; 3]>,
}

impl<'a, I: Iterator<Item = (&'a str, u64)> + Clone> PlanInputs<I> {
    /// Whether `key` holds exactly these inputs.
    fn matches(&self, key: &PlanKey) -> bool {
        let mut held = key.apps.iter().map(|(n, f)| (n.as_str(), *f));
        key.target == self.target
            && key.esd == self.esd
            && self.apps.clone().all(|app| held.next() == Some(app))
            && held.next().is_none()
    }

    fn key(&self) -> PlanKey {
        PlanKey {
            apps: (self.apps.clone())
                .map(|(name, fingerprint)| (name.to_string(), fingerprint))
                .collect(),
            target: self.target,
            esd: self.esd,
        }
    }
}

impl PlanBook {
    /// How many distinct plan inputs the book holds a schedule for.
    pub fn plans(&self) -> usize {
        self.shelves().iter().map(|s| s.plans.len()).sum()
    }

    fn shelves(&self) -> MutexGuard<'_, Vec<Shelf>> {
        self.0
            .lock()
            .expect("nothing panics while holding a plan book's lock")
    }

    /// The schedule `policy`, or `slo` beside it, planned for `inputs`,
    /// if any mediator has.
    fn get<'a, I>(
        &self,
        policy: &PowerPolicy,
        slo: Option<&SloPlanner>,
        inputs: &PlanInputs<I>,
    ) -> Option<Arc<Schedule>>
    where
        I: Iterator<Item = (&'a str, u64)> + Clone,
    {
        let shelves = self.shelves();
        let shelf = shelves.iter().find(|s| s.holds(policy, slo))?;
        let mut plans = shelf.plans.iter().rev();
        let (_, schedule) = plans.find(|(key, _)| inputs.matches(key))?;
        Some(Arc::clone(schedule))
    }

    /// Records that `policy`, or `slo` beside it, planned `schedule` for
    /// `inputs`.
    fn insert<'a, I>(
        &self,
        policy: &PowerPolicy,
        slo: Option<&SloPlanner>,
        inputs: &PlanInputs<I>,
        schedule: Arc<Schedule>,
    ) where
        I: Iterator<Item = (&'a str, u64)> + Clone,
    {
        // In a fleet, each agent holds a handle and so does its mediator.
        let sharers = Arc::strong_count(&self.0);
        let mut shelves = self.shelves();
        let at = match shelves.iter().position(|s| s.holds(policy, slo)) {
            Some(at) => at,
            None => {
                shelves.push(Shelf {
                    policy: policy.clone(),
                    slo: slo.cloned(),
                    plans: Vec::new(),
                });
                shelves.len() - 1
            }
        };
        let plans = &mut shelves[at].plans;
        if plans.len() == plans.capacity() && plans.len() >= PLANS_PER_SHARER * sharers {
            plans.retain(|(_, s)| Arc::strong_count(s) > 1);
        }
        plans.push((inputs.key(), schedule));
    }
}

/// One poll's recorded self-report, held for the integrity layer's
/// plausibility cross-checks (defense mode only).
#[derive(Debug, Clone, Copy, PartialEq)]
struct ClaimRecord {
    /// Raw claimed-over-expected heartbeat ratio (pre-clamp).
    ratio: f64,
    /// The profile's unscaled prediction at the actuated knob, in
    /// watts — what the claim moved the prior away from.
    unscaled_w: f64,
    /// Whether the ratio hit the estimator's clamp bound.
    clamped: bool,
}

/// A pending hardened knob retry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RetryState {
    /// Grid index being retried.
    idx: usize,
    /// Retry attempts already made.
    attempts: u32,
    /// Sim time before which the next attempt must not run (backoff).
    next_at: Seconds,
    /// Sim time of the original write that failed to land (the
    /// actuation-retry-latency metric measures from here).
    since: Seconds,
}

/// Hardening layer: verified knob writes with bounded retries, sensor
/// health checks, and the safe-mode escalation counters.
#[derive(Debug, Default)]
struct Hardening {
    /// Knob writes that did not land, keyed by app, awaiting retry.
    /// The estimate stage reads it: a pending retry widens that app's
    /// prior.
    retries: BTreeMap<String, RetryState>,
    /// Consecutive polls with no power sample at all.
    dropouts: u32,
    /// Consecutive polls where the external meter repeated itself while
    /// the internal (RAPL-side) reading moved.
    stuck: u32,
    last_observed: Option<Watts>,
    last_true_net: Option<Watts>,
    /// E6 fires once per bad-sensor episode.
    sensor_latched: bool,
    /// Over-cap polls seen while already in safe mode (escalation).
    breach_polls: u32,
    escalated: bool,
}

impl Hardening {
    fn forget(&mut self, name: &str) {
        self.retries.remove(name);
    }
}

/// Estimation layer: per-app power reconstructed from the aggregate
/// meter instead of read from the simulator's oracle breakdown.
#[derive(Debug, Default)]
struct Estimation {
    estimator: PowerEstimator,
    stats: EstimationStats,
    /// Conservative headroom shaved off the planning cap while the
    /// fallback is engaged (zero otherwise). The enforced cap handed to
    /// the simulator never changes — only how aggressively the planner
    /// fills it.
    fallback_shave: Watts,
    /// The most recent reconstructed breakdown, updated in place each
    /// poll.
    last: Option<EstimatedBreakdown>,
    /// Each hosted app's prior this poll, by server position; reused
    /// from poll to poll.
    priors: Vec<AppPrior>,
    /// Confidence of the profile each app's prior rides on (1.0 for a
    /// freshly measured surface; the store's confidence for a
    /// warm-started one).
    prior_confidence: BTreeMap<String, f64>,
}

impl Estimation {
    fn forget(&mut self, name: &str) {
        self.prior_confidence.remove(name);
    }
}

/// Integrity defense layer: trust scores, the quarantine ladder and the
/// watt-debt clawback.
#[derive(Debug, Default)]
struct Defense {
    /// Each app's defense state, one row per app: the stages that read
    /// it look an app up once.
    apps: BTreeMap<String, DefenseRow>,
    /// Overdrawn watts awaiting clawback.
    debts: WattDebtLedger,
    /// Deadline of the running integrity audit, if one is active: the
    /// planner pins a minimum-power Space schedule until then so
    /// heartbeat claims can mature and assign blame for an unexplained
    /// residual.
    audit_until: Option<Seconds>,
    stats: TrustStats,
    /// Apps whose E4 churn crossed the threshold since the last
    /// integrity pass (strong evidence queued to avoid re-entrant
    /// event handling).
    drift_strikes: Vec<String>,
    /// The last replan's quarantine clamps, by server position: the
    /// clamped app, its setting and that setting's power. Reused from
    /// replan to replan.
    clamps: Vec<(usize, usize, Watts)>,
    /// The last clamped schedule installed, and what it was merged
    /// from.
    merged: Option<MergedPlan>,
}

/// One app's defense state. A default row is the same as no row.
#[derive(Debug, Default)]
struct DefenseRow {
    /// The app's trust score, from its first trust pass or E4 on.
    trust: Option<TrustScore>,
    /// The self-report the latest estimate pass recorded, if any.
    claim: Option<ClaimRecord>,
    /// When the app's knob last actually changed, stamped by
    /// `apply_setting`. Replans that re-install the same setting do
    /// not reset an app's heartbeat window — under an E4 storm the
    /// global actuation clock never settles, and the defense still
    /// needs clean claims from the apps whose settings are stable.
    knob_stable_since: Option<Seconds>,
    /// A quarantined app that kept overdrawing with the clamp in force
    /// — the signature of knob non-compliance, which no commanded
    /// setting can curb. A contained app is planned with *no* setting
    /// (the actuator suspends it) until its watt debt is repaid in
    /// idle time; run-state is the one lever a defiant app cannot
    /// fake.
    contained: bool,
}

/// A clamped schedule and its inputs: the booked honest plan and the
/// clamps (app, setting) grafted onto it. A replan whose booked plan and
/// clamps repeat installs the held schedule again.
#[derive(Debug)]
struct MergedPlan {
    honest: Arc<Schedule>,
    clamps: Vec<(String, usize)>,
    schedule: Arc<Schedule>,
}

impl Defense {
    fn forget(&mut self, name: &str) {
        self.apps.remove(name);
        self.debts.remove(name);
        self.drift_strikes.retain(|n| n != name);
    }

    /// `honest` with this replan's clamps grafted on: the held merge
    /// when the plan and the clamps repeat, a new one otherwise.
    fn graft(&mut self, names: &[String], honest: Arc<Schedule>) -> Arc<Schedule> {
        if self.clamps.is_empty() {
            self.merged = None;
            return honest;
        }
        let clamps = self.clamps.iter().map(|&(pos, idx, _)| (&names[pos], idx));
        let held = self.merged.as_ref().filter(|m| {
            Arc::ptr_eq(&m.honest, &honest)
                && m.clamps.iter().map(|(n, i)| (n, *i)).eq(clamps.clone())
        });
        if let Some(m) = held {
            return Arc::clone(&m.schedule);
        }
        let clamps: Vec<(String, usize)> = clamps.map(|(n, i)| (n.clone(), i)).collect();
        let schedule = Arc::new(PowerMediator::merge_quarantined(
            Schedule::clone(&honest),
            &clamps,
        ));
        self.merged = Some(MergedPlan {
            honest,
            clamps,
            schedule: Arc::clone(&schedule),
        });
        schedule
    }

    /// Opens an integrity audit unless one is running or some app is
    /// already distrusted: trouble with nobody implicated is what
    /// undetected collusion, or a watchdog-blinded defector, looks like.
    fn audit_if_unexplained(&mut self, now: Seconds) {
        let distrusted = |row: &DefenseRow| row.trust.as_ref().is_some_and(TrustScore::distrusted);
        if self.audit_until.is_none() && !self.apps.values().any(distrusted) {
            self.audit_until = Some(now + Seconds::new(AUDIT_SECS));
        }
    }
}

/// Repays up to `w` of `app`'s watt debt from `debts`, counting any
/// repayment in `stats` and journalling it.
fn claw_back(
    debts: &mut WattDebtLedger,
    stats: &mut TrustStats,
    obs: &ObsHandle,
    at: Seconds,
    app: &str,
    w: f64,
) {
    let repaid = debts.repay(app, w);
    if repaid > 0.0 {
        stats.clawback_polls += 1;
        obs.emit(at, || ObsEvent::Clawback {
            app: app.to_string(),
            w: repaid,
        });
    }
}

/// `map[name]`, inserted as the default value the first time `name` is
/// seen; a name already there is not cloned.
fn first_sight<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Profile knowledge-plane layer (effective only with online
/// calibration).
#[derive(Debug, Default)]
struct StoreLayer {
    store: ProfileStore,
    /// Digests published or tombstoned since the last drain, awaiting
    /// propagation over whatever plane the driver runs.
    outbox: Vec<ProfileDigest>,
    /// This server's identity in store provenance.
    server_id: u64,
    /// Content fingerprints of admitted applications.
    fingerprints: BTreeMap<String, AppFingerprint>,
}

impl StoreLayer {
    fn forget(&mut self, name: &str) {
        self.fingerprints.remove(name);
    }
}

/// The optional flight-recorder handle. Emission sites pass a closure,
/// so an event is only built when a recorder is attached.
#[derive(Debug, Default)]
struct ObsHandle(Option<Obs>);

impl ObsHandle {
    fn with(&self, f: impl FnOnce(&Obs)) {
        if let Some(obs) = &self.0 {
            f(obs);
        }
    }

    fn emit(&self, at: Seconds, event: impl FnOnce() -> ObsEvent) {
        self.with(|obs| obs.emit(at, event()));
    }
}

/// The empty ledger reported when the defense is off.
static NO_DEBTS: WattDebtLedger = WattDebtLedger::new();

/// The mediation runtime: one policy, one server, one cap.
#[derive(Debug)]
pub struct PowerMediator {
    policy: PowerPolicy,
    spec: ServerSpec,
    grid: KnobGrid,
    calibrator: Calibrator,
    online_calibration: bool,
    /// Probe accounting split cold / warm / skipped.
    probe_split: ProbeSplit,
    accountant: Accountant,
    /// Each app's surface, with the record of the online completion
    /// that produced it. One taken from the [`MeasurementCache`] at
    /// admission is the cache's own `Arc`, so every mediator hosting
    /// the profile reads one surface and one power order; one whose
    /// recalibration repeats its completion inputs keeps its `Arc`.
    measurements: BTreeMap<String, Calibrated>,
    act: Actuator,
    /// When set, planning honours per-application SLOs through the
    /// [`SloPlanner`] instead of the plain policy (latency-critical
    /// extension; ESD coordination is not combined with SLO pinning).
    slo_planner: Option<SloPlanner>,
    /// Count of re-planning events handled.
    replans: usize,
    /// Count of plans computed (see [`Self::plans`]).
    plans: usize,
    /// The plans this mediator, or its fleet, has made.
    plan_book: PlanBook,
    /// The last plan the book answered or took, held so that the book
    /// keeps it (see [`PlanBook`]).
    last_plan: Option<Arc<Schedule>>,
    // Safe mode and fault bookkeeping are shared across layers: the
    // hardening watchdog drives them, and so do estimation (Escalate
    // forces safe mode; the fallback raises E6) and calibration (an app
    // that departs mid-probe is a skipped calibration).
    watchdog: SafeModeWatchdog,
    hardening_stats: HardeningStats,
    last_fault_error: Option<CoreError>,
    /// Once the ESD is implicated in a breach it is planned around.
    esd_quarantined: bool,
    hardening: Option<Hardening>,
    estimation: Option<Estimation>,
    /// Requires `estimation`: the defense works on its view of power.
    defense: Option<Defense>,
    store: Option<StoreLayer>,
    obs: ObsHandle,
    /// Each hosted app's observation this poll, by server position;
    /// reused from poll to poll.
    sensed: Vec<Observation>,
}

impl PowerMediator {
    /// Creates a mediator running `kind` under the initial `cap`, using
    /// exhaustive (ground-truth) calibration.
    pub fn new(kind: PolicyKind, spec: ServerSpec, cap: Watts) -> Self {
        Self {
            policy: PowerPolicy::new(kind, spec.clone()),
            calibrator: Calibrator::new(spec.clone(), 0.10),
            grid: spec.knob_grid(),
            spec,
            online_calibration: false,
            probe_split: ProbeSplit::default(),
            accountant: Accountant::new(cap, Ratio::new(0.10), 3),
            measurements: BTreeMap::new(),
            act: Actuator {
                schedule: Arc::new(Schedule::Space {
                    settings: BTreeMap::new(),
                }),
                anchor: Seconds::ZERO,
                pending: None,
                latency: Seconds::ZERO,
                actuation: Actuation::None,
                actuated_at: Seconds::ZERO,
            },
            slo_planner: None,
            replans: 0,
            plans: 0,
            plan_book: PlanBook::default(),
            last_plan: None,
            watchdog: SafeModeWatchdog::new(WATCHDOG_PATIENCE, WATCHDOG_RELEASE),
            hardening_stats: HardeningStats::default(),
            last_fault_error: None,
            esd_quarantined: false,
            hardening: None,
            estimation: None,
            defense: None,
            store: None,
            obs: ObsHandle::default(),
            sensed: Vec::new(),
        }
    }

    /// Enables graceful degradation: bounded retries with backoff for
    /// knob writes that fail or do not land, a safe-mode watchdog that
    /// force-throttles when the *observed* net draw stays over the cap,
    /// and sensor-fault detection (E6) over the observed power channel.
    /// The tunables are the constants of [`crate::watchdog`].
    pub fn with_hardening(mut self, _: HardeningConfig) -> Self {
        self.hardening = Some(Hardening::default());
        self
    }

    /// Runs the full policy stack on *estimated* per-app power: the
    /// oracle breakdown is replaced by a constrained least-squares
    /// disaggregation of the aggregate net meter, seeded by the
    /// calibrated profiles (and their knowledge-plane confidence).
    /// A sustained residual between the meter and the model engages a
    /// confidence-aware fallback — the planner targets the cap minus
    /// the band — and escalates to safe mode if shaving does not stop
    /// the spikes. The tunables are the constants of
    /// [`powermed_disagg::estimator`].
    pub fn with_estimation(mut self, config: EstimatorConfig) -> Self {
        self.set_estimation(config);
        self
    }

    /// In-place form of [`Self::with_estimation`], for call sites that
    /// attach estimation to an already-built (and already-admitted)
    /// mediator — e.g. a cluster agent re-attaching it after a node
    /// restart rebuilt the stack.
    pub fn set_estimation(&mut self, _: EstimatorConfig) {
        self.estimation = Some(Estimation::default());
    }

    /// Enables the integrity defense: per-app trust scores driven by
    /// physics plausibility cross-checks, a quarantine ladder (suspect
    /// → E7 + fair-share clamp → probation → re-admission), and a
    /// watt-debt ledger that claws back overdrawn watts so honest apps
    /// are made whole. Rides on the estimation layer's view of the
    /// world, so it requires [`Self::with_estimation`] first. The
    /// tunables are the constants of [`crate::trust`].
    ///
    /// # Panics
    ///
    /// Panics if estimation is not enabled.
    pub fn with_integrity_defense(mut self, _: TrustConfig) -> Self {
        assert!(
            self.estimation.is_some(),
            "integrity defense requires with_estimation"
        );
        self.defense = Some(Defense::default());
        self
    }

    /// Sets the delay between a re-planning event and the new schedule
    /// taking effect (the paper reports ~800 ms on its platform for
    /// calibration + actuation; default zero).
    ///
    /// # Panics
    ///
    /// Panics if `latency` is negative.
    pub fn with_actuation_latency(mut self, latency: Seconds) -> Self {
        assert!(latency.value() >= 0.0, "latency must be non-negative");
        self.act.latency = latency;
        self
    }

    /// Enables SLO-aware planning: applications admitted with an SLO
    /// (see `AppProfile::with_slo`) are guaranteed their SLO budget and
    /// never duty-cycled; batch applications absorb the shortfall.
    pub fn with_slo_awareness(mut self) -> Self {
        self.slo_planner = Some(SloPlanner::new(self.spec.clone()));
        self
    }

    /// Overrides the nominal duty-cycle period for temporal schedules
    /// (default 10 s).
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn with_cycle_period(mut self, period: Seconds) -> Self {
        self.policy = self.policy.with_cycle_period(period);
        self
    }

    /// Shares `book` with the other mediators of a fleet, in place of the
    /// mediator's own: a plan whose inputs another mediator has planned
    /// takes that schedule (see [`PlanBook`]).
    pub fn with_plan_book(mut self, book: PlanBook) -> Self {
        self.plan_book = book;
        self
    }

    /// Switches to online calibration (sparse sampling + collaborative
    /// filtering) seeded with a corpus of previously-seen applications.
    pub fn with_online_calibration(mut self, corpus: &[AppProfile], fraction: f64) -> Self {
        self.calibrator = Calibrator::new(self.spec.clone(), fraction);
        self.calibrator.seed_corpus(corpus);
        self.online_calibration = true;
        self
    }

    /// Attaches a profile knowledge-plane store (effective only with
    /// online calibration — the exhaustive paths are ground truth and
    /// stay cold). Admissions then consult the store first: a confident
    /// prior satisfies already-covered probe points without running
    /// them, fresh measurements are republished as versioned digests
    /// (drain with [`Self::take_store_outbox`]), and E4 drift
    /// tombstones the entry fleet-wide.
    pub fn with_profile_store(mut self, store: ProfileStore, server_id: u64) -> Self {
        self.store = Some(StoreLayer {
            store,
            server_id,
            ..StoreLayer::default()
        });
        self
    }

    /// Attaches a flight-recorder observability plane: every mediator
    /// decision (polls, E1–E6, safe-mode transitions, probe choices,
    /// knob-write verdicts) is journalled and counted through `obs`.
    /// Share the same handle with the simulator (via
    /// [`ServerSim::set_observability`]) so both sides write one
    /// interleaved journal.
    pub fn with_observability(mut self, obs: Obs) -> Self {
        self.set_observability(obs);
        self
    }

    /// Attaches (or replaces) the observability plane after
    /// construction — the non-consuming form of
    /// [`Self::with_observability`], for drivers that build mediators
    /// through shared helpers.
    pub fn set_observability(&mut self, obs: Obs) {
        self.obs = ObsHandle(Some(obs));
    }

    /// The attached observability handle, if any.
    pub fn observability(&self) -> Option<&Obs> {
        self.obs.0.as_ref()
    }

    /// The policy being run.
    pub fn kind(&self) -> PolicyKind {
        self.policy.kind()
    }

    /// The active schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.act.schedule
    }

    /// The accountant (cap, allocations on record).
    pub fn accountant(&self) -> &Accountant {
        &self.accountant
    }

    /// Number of online calibration probes performed so far.
    pub fn probes(&self) -> usize {
        self.probe_split.measured() as usize
    }

    /// Probe accounting split by how each point was satisfied.
    pub fn probe_split(&self) -> ProbeSplit {
        self.probe_split
    }

    /// The attached profile store, if any.
    pub fn profile_store(&self) -> Option<&ProfileStore> {
        self.store.as_ref().map(|s| &s.store)
    }

    /// Store event counters (all zero when no store is attached).
    pub fn store_stats(&self) -> ProfileStoreStats {
        self.store
            .as_ref()
            .map(|s| s.store.stats())
            .unwrap_or_default()
    }

    /// Drains the digests published or tombstoned since the last drain.
    pub fn take_store_outbox(&mut self) -> Vec<ProfileDigest> {
        self.store
            .as_mut()
            .map(|s| std::mem::take(&mut s.outbox))
            .unwrap_or_default()
    }

    /// Merges digests received from the fleet into the local store and
    /// seeds the completion corpus with their sparse rows. Returns how
    /// many store entries changed (0 when no store is attached).
    ///
    /// Every delivered digest is still merged and counted, duplicates
    /// included: each one advances the store's clock, refreshes its
    /// entry's recency and bumps `merges`, which the fleet's store
    /// stats and LRU eviction read. What a redelivered replica skips is
    /// the copying and serializing (see `ProfileStore::merge_digests`).
    pub fn absorb_digests(&mut self, digests: &[ProfileDigest]) -> usize {
        let Some(s) = self.store.as_mut() else {
            return 0;
        };
        let changed = s.store.merge_digests(digests);
        for d in digests.iter().filter(|d| !d.profile.is_tombstone()) {
            let _ = self
                .calibrator
                .seed_sparse_row(d.fingerprint, &d.profile.samples);
        }
        changed
    }

    /// Advances the store's epoch (for confidence decay); a no-op
    /// without a store.
    pub fn set_store_epoch(&mut self, epoch: u64) {
        if let Some(s) = self.store.as_mut() {
            s.store.set_epoch(epoch);
        }
    }

    /// Number of re-planning events handled so far.
    pub fn replans(&self) -> usize {
        self.replans
    }

    /// Number of plans computed so far: the replans that the plan book
    /// did not answer.
    pub fn plans(&self) -> usize {
        self.plans
    }

    /// Whether the safe-mode watchdog is currently engaged.
    pub fn safe_mode(&self) -> bool {
        self.watchdog.engaged()
    }

    /// Hardening counters (all zero when hardening is off).
    pub fn hardening_stats(&self) -> HardeningStats {
        self.hardening_stats
    }

    /// The most recent fault the hardened runtime acted on, if any.
    pub fn last_fault_error(&self) -> Option<&CoreError> {
        self.last_fault_error.as_ref()
    }

    /// Estimation counters (all zero when estimation is off).
    pub fn estimation_stats(&self) -> EstimationStats {
        self.estimation
            .as_ref()
            .map(|e| e.stats)
            .unwrap_or_default()
    }

    /// The most recent reconstructed per-app breakdown, if estimation
    /// is on and at least one step has run.
    pub fn last_estimate(&self) -> Option<&EstimatedBreakdown> {
        self.estimation.as_ref()?.last.as_ref()
    }

    /// Whether the estimation fallback cap is currently engaged (the
    /// planner is targeting the cap minus the confidence band).
    #[cfg(test)]
    pub fn estimation_fallback_engaged(&self) -> bool {
        self.estimation
            .as_ref()
            .is_some_and(|e| e.estimator.fallback_engaged())
    }

    /// Integrity-defense counters (all zero when defense is off).
    pub fn trust_stats(&self) -> TrustStats {
        self.defense.as_ref().map(|d| d.stats).unwrap_or_default()
    }

    /// `name`'s trust state, if the defense has seen it.
    pub fn trust_score(&self, name: &str) -> Option<&TrustScore> {
        self.defense.as_ref()?.apps.get(name)?.trust.as_ref()
    }

    /// The watt-debt ledger (empty when defense is off).
    pub fn watt_debts(&self) -> &WattDebtLedger {
        self.defense.as_ref().map_or(&NO_DEBTS, |d| &d.debts)
    }

    /// Whether `name` is currently contained (suspended until its watt
    /// debt is repaid — the escalation for overdraw under clamp).
    #[cfg(test)]
    pub fn is_contained(&self, name: &str) -> bool {
        self.defense
            .as_ref()
            .and_then(|d| d.apps.get(name))
            .is_some_and(|row| row.contained)
    }

    /// The utility surface on record for `name`.
    pub fn measurement(&self, name: &str) -> Option<&AppMeasurement> {
        self.measurements.get(name).map(|c| &*c.surface)
    }

    /// E2: admits `profile` onto the server, calibrates it, and
    /// re-plans.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Server`] when placement fails (duplicate
    /// name or insufficient cores for the app's minimum).
    pub fn admit(&mut self, sim: &mut ServerSim, profile: AppProfile) -> Result<(), CoreError> {
        let name = profile.name().to_string();
        let min_cores = profile.min_cores();
        let initial = KnobSetting::min_for(&self.spec).with_cores(min_cores);
        if let Err(first_try) = sim.host(profile.clone(), initial) {
            // The incumbents may be holding every core; shrink each to
            // its floor (the arrival reallocation will regrow whoever
            // deserves it) and retry once.
            if !matches!(
                first_try,
                powermed_server::ServerError::InsufficientCores { .. }
            ) {
                return Err(first_try.into());
            }
            for existing in sim.app_names().to_vec() {
                let Some(knob) = sim.server().assignment(&existing).map(|a| a.knob()) else {
                    continue;
                };
                let floor = self
                    .measurements
                    .get(&existing)
                    .map_or(1, |c| c.surface.min_cores());
                if knob.cores() > floor {
                    let _ = sim.set_knobs(&existing, knob.with_cores(floor));
                }
            }
            sim.host(profile.clone(), initial)?;
        }
        self.accountant.arrival(&name);
        self.obs
            .emit(sim.now(), || ObsEvent::Arrival { app: name.clone() });
        if let (Some(s), true) = (self.store.as_mut(), self.online_calibration) {
            s.fingerprints
                .insert(name.clone(), AppFingerprint::of(&profile));
        }
        if !self.online_calibration && profile.phases().is_none() {
            // Phase-free surfaces are time-invariant, so probing the
            // simulator at every grid setting reproduces the shared
            // cache's exhaustive surface bit for bit; skip the probe
            // loop and reuse the cached one. The full grid still counts
            // as probed so reported totals match the uncached runtime.
            let m = MeasurementCache::global().measure(&self.spec, &profile);
            self.note_probes(sim.now(), &name, m.grid().len(), 0, 0);
            self.measurements
                .insert(name.clone(), Calibrated::unrecorded(m));
        } else {
            self.calibrate(sim, &name, min_cores);
        }
        if let Some(target) = profile.slo() {
            // The tagged surface is not the one the completion record
            // describes, so the record goes with the untagged one.
            if let Some(c) = self.measurements.remove(&name) {
                let tagged = Arc::unwrap_or_clone(c.surface).with_slo(target);
                self.measurements
                    .insert(name.clone(), Calibrated::unrecorded(Arc::new(tagged)));
            }
        }
        self.replan(sim);
        Ok(())
    }

    /// E1: the server's cap changed.
    pub fn set_cap(&mut self, sim: &mut ServerSim, cap: Watts) {
        self.accountant.cap_changed(cap);
        self.obs
            .emit(sim.now(), || ObsEvent::CapChanged { cap_w: cap.value() });
        self.replan(sim);
    }

    /// Runs one control step of `dt`: one pass through the pipeline
    /// described in the module docs.
    pub fn step(&mut self, sim: &mut ServerSim, dt: Seconds) -> StepReport {
        self.obs.with(|obs| {
            obs.begin_poll();
        });
        let cap = self.accountant.cap();
        if sim.cap() != Some(cap) {
            sim.set_cap(Some(cap));
        }
        // Safe mode: the forced floor stays in place; the schedule
        // machinery and retries are held until the breach clears.
        if !self.watchdog.engaged() {
            self.actuate(sim);
            self.process_retries(sim);
        }
        let report = sim.step(dt);
        let now = sim.now();
        let mut observations = std::mem::take(&mut self.sensed);
        self.sense(sim, &mut observations);
        let estimated = self.estimate_breakdown(sim, &report, &mut observations);
        if !estimated {
            for (o, power) in observations.iter_mut().zip(&sim.breakdown().apps) {
                o.power = *power;
            }
        }
        self.obs.emit(now, || {
            let observed = report.observed_net_power;
            ObsEvent::Poll {
                alloc_w: self.accountant.total_allocation().value(),
                net_w: report.net_power.value(),
                observed_w: observed.map(Watts::value),
                cap_w: cap.value(),
                over_cap: observed.is_some_and(|o| o.violates_cap(cap)),
            }
        });
        let events = self
            .accountant
            .poll(sim.app_names().iter().zip(&observations));
        self.sensed = observations;
        if !events.is_empty() {
            self.handle_events(sim, events);
        }
        if estimated {
            self.observe_estimated(sim);
        }
        self.observe_integrity(sim);
        if let Some(d) = self.defense.as_mut() {
            if d.audit_until.is_some_and(|t| now >= t) {
                // The audit expired without implicating anyone; return
                // to policy planning.
                d.audit_until = None;
                self.replan(sim);
            }
        }
        if self.hardening.is_some() {
            self.observe_hardened(sim, &report);
        }
        report
    }

    /// Runs for `duration` in control steps of `dt`.
    pub fn run_for(&mut self, sim: &mut ServerSim, duration: Seconds, dt: Seconds) {
        let steps = (duration.value() / dt.value()).round().max(1.0) as u64;
        for _ in 0..steps {
            self.step(sim, dt);
        }
    }

    /// Sense stage: refills `sensed` with each app's run state and
    /// claimed heartbeat, by server position, with power left for the
    /// estimate stage to fill in. Heartbeat windows drain on read, so
    /// this runs once per poll. Heartbeat evidence is only clean in
    /// steady spatial operation: duty-cycled windows and windows
    /// spanning a knob change mix rates from different settings.
    fn sense(&self, sim: &mut ServerSim, sensed: &mut Vec<Observation>) {
        let now = sim.now();
        let settled = |since: Seconds| (now - since) > Seconds::new(2.5);
        let heartbeat_clean =
            self.act.actuation == Actuation::Space && settled(self.act.actuated_at);
        sensed.clear();
        for pos in 0..sim.app_names().len() {
            let name = sim.app_names()[pos].as_str();
            let completed = sim.apps()[pos].completed();
            let suspended = sim.server().assignments()[pos].run_state() == AppRunState::Suspended;
            // Defense mode refines the cleanliness gate per app: a knob
            // that has not actually changed keeps its window even when
            // churn elsewhere resets the global actuation clock. The
            // gate is deliberately per-app and schedule-shape-blind —
            // `apply_setting` stamps every real disturbance (knob
            // change or resume-from-suspend), so a pinned app in a
            // Hybrid schedule, or the active slot of an Alternate one,
            // still files claims. Gating on the global Space shape
            // would blind the defense exactly when attackers force the
            // planner into duty-cycling.
            let stamp = self
                .defense
                .as_ref()
                .and_then(|d| d.apps.get(name)?.knob_stable_since);
            let clean = stamp.map_or(heartbeat_clean, settled);
            // Read through the adversary layer: what the app *claims*,
            // which is the truth unless an injector is misreporting.
            let heartbeat = if clean && !suspended && !completed {
                sim.reported_heartbeat(pos, now)
            } else {
                None
            };
            if let Some(rate) = heartbeat {
                self.obs
                    .with(|obs| obs.note_heartbeat(&sim.app_names()[pos], rate));
            }
            sensed.push(Observation {
                power: Watts::ZERO,
                heartbeat,
                completed,
                suspended,
            });
        }
    }

    /// Handles accountant events: journals them, applies each, and
    /// re-plans. Every event kind needs a fresh plan — E1/E2/E3 change
    /// the budget or the tenants, E4 re-measures, E5/E6 mean the
    /// substrate is not doing (or not showing) what the plan assumes
    /// and re-installing the schedule re-actuates every knob, and E7's
    /// quarantine clamp only takes effect through a plan.
    fn handle_events(&mut self, sim: &mut ServerSim, events: Vec<Event>) {
        let now = sim.now();
        for event in &events {
            self.obs.emit(now, || match event {
                Event::CapChanged(cap) => ObsEvent::CapChanged { cap_w: cap.value() },
                Event::Arrival(name) => ObsEvent::Arrival { app: name.clone() },
                Event::Departure(name) => ObsEvent::Departure { app: name.clone() },
                Event::Drift(name) => ObsEvent::Drift { app: name.clone() },
                Event::ActuationFault(name) => ObsEvent::ActuationFault { app: name.clone() },
                Event::SensorFault(what) => ObsEvent::SensorFault { what: what.clone() },
                Event::IntegrityFault(name) => ObsEvent::IntegrityFault { app: name.clone() },
            });
        }
        for event in events {
            match event {
                Event::Departure(name) => self.forget(sim, &name),
                Event::Drift(name) => {
                    // Repeated E4s on one app are how a sandbagged
                    // calibration looks from the outside: the strike is
                    // queued (not applied inline) so evidence handling
                    // never re-enters the event loop. Like overdraw,
                    // churn only counts against an app the primary
                    // detectors already distrust — a noisy neighbour
                    // can force legitimate E4s onto an honest victim.
                    if let Some(d) = self.defense.as_mut() {
                        let row = first_sight(&mut d.apps, &name);
                        let trust = row.trust.get_or_insert_with(TrustScore::default);
                        if trust.note_drift() && trust.distrusted() {
                            d.drift_strikes.push(name.clone());
                        }
                    }
                    self.remeasure(sim, &name);
                }
                _ => {}
            }
        }
        self.replan(sim);
    }

    /// Drops `name` from the server, the books and every layer: the one
    /// departure path, for E3 and for an app that vanished
    /// mid-calibration.
    fn forget(&mut self, sim: &mut ServerSim, name: &str) {
        let _ = sim.remove(name);
        self.accountant.remove(name);
        self.measurements.remove(name);
        if let Some(h) = self.hardening.as_mut() {
            h.forget(name);
        }
        if let Some(e) = self.estimation.as_mut() {
            e.forget(name);
        }
        if let Some(d) = self.defense.as_mut() {
            d.forget(name);
        }
        if let Some(s) = self.store.as_mut() {
            s.forget(name);
        }
    }

    /// Re-runs calibration for `name` (the E4 path, exposed so drivers
    /// can force a re-measurement). Returns `false` when the
    /// application vanished mid-calibration — the probe degrades to a
    /// skipped calibration and the departure is handled instead.
    pub fn recalibrate(&mut self, sim: &mut ServerSim, name: &str) -> bool {
        let ok = self.remeasure(sim, name);
        if ok {
            self.replan(sim);
        }
        ok
    }

    /// E4: the stored profile is now wrong everywhere, not just here —
    /// tombstone it (queueing the tombstone for propagation), then
    /// measure the app afresh.
    fn remeasure(&mut self, sim: &mut ServerSim, name: &str) -> bool {
        if let Some(s) = self.store.as_mut() {
            let fingerprint = s.fingerprints.get(name);
            if let Some(tombstone) = fingerprint.and_then(|fp| s.store.invalidate(*fp)) {
                self.obs.emit(sim.now(), || ObsEvent::StoreTombstone {
                    app: name.to_string(),
                    version: tombstone.profile.version,
                });
                s.outbox.push(tombstone);
            }
        }
        let min_cores = self
            .measurements
            .get(name)
            .map_or(1, |c| c.surface.min_cores());
        self.calibrate(sim, name, min_cores)
    }

    /// Books one calibration's probes and journals the split.
    fn note_probes(&mut self, at: Seconds, app: &str, cold: usize, warm: usize, skipped: usize) {
        self.probe_split.cold += cold as u64;
        self.probe_split.warm += warm as u64;
        self.probe_split.skipped += skipped as u64;
        self.obs.emit(at, || ObsEvent::Probe {
            app: app.to_string(),
            cold,
            warm,
            skipped,
        });
    }

    fn calibrate(&mut self, sim: &mut ServerSim, name: &str, min_cores: usize) -> bool {
        let _span = self.obs.0.as_ref().map(|o| o.span("calibration"));
        if self.online_calibration {
            return self.calibrate_online(sim, name, min_cores);
        }
        let sim_ref: &ServerSim = sim;
        let result = self
            .calibrator
            .try_calibrate_exhaustive(name, min_cores, |knob| sim_ref.probe(name, knob));
        let Some(m) = result else {
            return self.calibration_departed(sim, name);
        };
        self.note_probes(sim.now(), name, m.grid().len(), 0, 0);
        let surface = self.carry_slo(name, Arc::new(m));
        self.measurements
            .insert(name.to_string(), Calibrated::unrecorded(surface));
        true
    }

    /// `surface`, tagged with the SLO of the surface held for `name`: a
    /// recalibration re-measures an application, it does not change
    /// what the application needs.
    fn carry_slo(&self, name: &str, surface: Arc<AppMeasurement>) -> Arc<AppMeasurement> {
        let held = self.measurements.get(name).and_then(|c| c.surface.slo());
        match held {
            Some(target) if surface.slo() != Some(target) => {
                Arc::new(Arc::unwrap_or_clone(surface).with_slo(target))
            }
            _ => surface,
        }
    }

    /// Online calibration with the knowledge plane in the loop: consult
    /// the store for a confident prior, probe only what it does not
    /// cover, and republish whatever fresh measurement came out.
    fn calibrate_online(&mut self, sim: &mut ServerSim, name: &str, min_cores: usize) -> bool {
        let fingerprint = self
            .store
            .as_ref()
            .and_then(|s| s.fingerprints.get(name).copied());
        let prior = match (fingerprint, self.store.as_mut()) {
            (Some(fp), Some(s)) => s.store.confident(fp),
            _ => None,
        };
        let sim_ref: &ServerSim = sim;
        let result = self.calibrator.try_calibrate_online_seeded(
            name,
            min_cores,
            prior.as_ref(),
            self.measurements.get(name),
            |knob| sim_ref.probe(name, knob),
        );
        let Some(oc) = result else {
            return self.calibration_departed(sim, name);
        };
        let now = sim.now();
        if let Some(e) = self.estimation.as_mut() {
            // Estimation priors inherit the trust of what seeded this
            // surface: a warm start is only as good as the store entry
            // it rode on; a freshly probed surface is fully trusted.
            let confidence = prior.as_ref().map_or(1.0, |p| p.confidence);
            e.prior_confidence.insert(name.to_string(), confidence);
        }
        if prior.is_some() {
            self.note_probes(now, name, 0, oc.probed, oc.skipped);
        } else {
            self.note_probes(now, name, oc.probed, 0, 0);
        }
        if let (Some(fp), Some(s), true) = (fingerprint, self.store.as_mut(), oc.probed > 0) {
            // Fresh data: republish one version past whatever the store
            // holds (so a post-tombstone recalibration wins back). A
            // fully warm admission learned nothing new and republishes
            // nothing.
            let version = s.store.peek(fp).map_or(1, |p| p.version + 1);
            let coverage = oc.samples.len() as f64 / self.grid.len().max(1) as f64;
            let published = StoredProfile {
                version,
                confidence: 0.6 + 0.4 * coverage,
                samples: oc.samples,
                power_row: oc.power_row,
                perf_row: oc.perf_row,
                provenance: Provenance {
                    server: s.server_id,
                    epoch: s.store.epoch(),
                    probes: oc.probed as u64,
                },
            };
            s.store.publish(fp, published.clone());
            self.obs.emit(now, || ObsEvent::StorePublish {
                app: name.to_string(),
                version,
            });
            s.outbox.push(ProfileDigest {
                fingerprint: fp,
                profile: published,
            });
        }
        let Calibrated { surface, record } = oc.calibrated;
        let surface = self.carry_slo(name, surface);
        self.measurements
            .insert(name.to_string(), Calibrated { surface, record });
        true
    }

    /// The application departed mid-calibration. Degrade to a skipped
    /// probe: fire (or finish) its E3 instead of panicking on a
    /// half-measured surface.
    fn calibration_departed(&mut self, sim: &mut ServerSim, name: &str) -> bool {
        self.hardening_stats.skipped_calibrations += 1;
        match self.accountant.force_departure(name) {
            Some(event) => self.handle_events(sim, vec![event]),
            None => self.forget(sim, name),
        }
        false
    }

    /// Plan stage: quarantine clamps, then the audit schedule or the
    /// policy's plan for everyone else, handed to the actuator. A plan
    /// whose inputs the book holds takes the booked schedule (see
    /// [`PlanBook`]).
    fn replan(&mut self, sim: &ServerSim) {
        // Wall-clock span around the planning pass (the DP allocator is
        // the paper's dominant decision cost).
        let _span = self.obs.0.as_ref().map(|o| o.span("plan"));
        self.replans += 1;
        let now = sim.now();
        let names = sim.app_names();
        // Quarantined apps are planned by fiat, not by the policy:
        // clamped to their fair share of the dynamic budget minus
        // whatever the watt-debt ledger claws back this plan.
        if let Some(d) = self.defense.as_mut() {
            d.clamps.clear();
            let static_floor = self.spec.idle_power() + self.spec.chip_maintenance_power();
            let dynamic = (self.accountant.cap() - static_floor).max_zero();
            let fair = dynamic.value() / names.len().max(1) as f64;
            for (pos, name) in names.iter().enumerate() {
                // A contained app gets no setting at all: the actuator
                // suspends it, and its fair share flows back to the
                // honest apps.
                let quarantined = d.apps.get(name).is_some_and(|row| {
                    row.trust.as_ref().is_some_and(TrustScore::quarantined) && !row.contained
                });
                if !quarantined {
                    continue;
                }
                let Some(m) = self.measurements.get(name).map(|c| &c.surface) else {
                    continue;
                };
                let (budget, clawback) = clamp_budget(fair, d.debts.outstanding(name));
                // Clamp to the best setting under the docked budget;
                // below the app's floor, park it at the cheapest
                // feasible setting (the clamp never evicts).
                let idx = match m.best_feasible_within(Watts::new(budget)) {
                    Some((i, _)) => i,
                    None => m.cheapest_feasible().unwrap_or(0),
                };
                claw_back(&mut d.debts, &mut d.stats, &self.obs, now, name, clawback);
                d.clamps.push((pos, idx, m.power(idx)));
            }
            // An active integrity audit overrides the policy wholesale:
            // every (non-contained) app is pinned at its minimum-power
            // feasible setting. Low and steady serves two purposes —
            // the summed floors always fit the cap, and pinned knobs
            // let heartbeat claims mature so the cross-checks can assign
            // the unexplained residual to whoever is lying. Ends at the
            // first quarantine or the deadline.
            if d.audit_until.is_some_and(|t| now < t) {
                let settings = names
                    .iter()
                    .filter(|n| !d.apps.get(*n).is_some_and(|row| row.contained))
                    .filter_map(|n| {
                        let m = &self.measurements.get(n)?.surface;
                        Some((n.clone(), m.cheapest_feasible()?))
                    })
                    .collect();
                self.submit(Arc::new(Schedule::Space { settings }), now);
                return;
            }
        }
        let defense = self.defense.as_ref();
        let clamped: &[(usize, usize, Watts)] = defense.map_or(&[], |d| &d.clamps);
        let measurements = &self.measurements;
        let planned_apps = || {
            names
                .iter()
                .enumerate()
                .filter(|(pos, _)| !clamped.iter().any(|(c, _, _)| c == pos))
                .filter(|(_, n)| {
                    !defense
                        .and_then(|d| d.apps.get(*n))
                        .is_some_and(|row| row.contained)
                })
                .filter_map(|(_, n)| measurements.get(n).map(|c| (n, &c.surface)))
        };
        let esd = self.esd_params(sim);
        // The estimation fallback shaves headroom off the *planning*
        // target only; the enforced cap (accountant, simulator, E6
        // thresholds) is untouched.
        let cap = self.accountant.cap();
        let mut target = match self.estimation.as_ref().map(|e| e.fallback_shave) {
            Some(shave) if shave.value() > 0.0 => (cap - shave).max_zero(),
            _ => cap,
        };
        // Honest apps are planned in the budget left after the
        // quarantine clamps — the watts docked from offenders flow
        // back to them.
        if !clamped.is_empty() {
            let clamped_sum: f64 = clamped.iter().map(|(_, _, w)| w.value()).sum();
            target = (target - Watts::new(clamped_sum)).max_zero();
        }
        let slo = self
            .slo_planner
            .as_ref()
            .filter(|_| planned_apps().any(|(_, m)| m.slo().is_some()));
        let inputs = PlanInputs {
            apps: planned_apps().map(|(n, m)| (n.as_str(), m.fingerprint())),
            target: target.value().to_bits(),
            esd: esd_bits(esd),
        };
        let plan = || {
            let apps: Vec<_> = planned_apps().map(|(n, m)| (n.as_str(), &**m)).collect();
            match slo {
                Some(slo) => slo.plan(&apps, target),
                None => self.policy.plan(&apps, target, esd),
            }
        };
        let schedule = match self.plan_book.get(&self.policy, slo, &inputs) {
            Some(schedule) => {
                if cfg!(debug_assertions) {
                    assert_eq!(
                        plan(),
                        *schedule,
                        "a booked schedule differs from a fresh plan"
                    );
                }
                schedule
            }
            None => {
                self.plans += 1;
                let schedule = Arc::new(plan());
                self.plan_book
                    .insert(&self.policy, slo, &inputs, Arc::clone(&schedule));
                schedule
            }
        };
        self.last_plan = Some(Arc::clone(&schedule));
        let planned = match self.defense.as_mut() {
            Some(d) => d.graft(names, schedule),
            None => schedule,
        };
        self.submit(planned, now);
    }

    /// Installs `planned` now, or — once a schedule is in force and an
    /// actuation latency is set — keeps executing the old schedule until
    /// the latency elapses (the paper's ~800 ms window).
    fn submit(&mut self, planned: Arc<Schedule>, now: Seconds) {
        if self.act.latency.value() > 0.0 && self.act.actuation != Actuation::None {
            self.act.pending = Some((planned, now + self.act.latency));
        } else {
            self.install_schedule(planned, now);
        }
    }

    /// Grafts the quarantine clamps onto a freshly planned schedule:
    /// clamped apps run always-on at their docked setting regardless of
    /// what shape the policy chose for the honest ones.
    fn merge_quarantined(mut planned: Schedule, clamped: &[(String, usize)]) -> Schedule {
        let clamps = clamped.iter().cloned();
        match &mut planned {
            Schedule::Space { settings }
            | Schedule::EsdCycle { settings, .. }
            | Schedule::Hybrid {
                pinned: settings, ..
            } => settings.extend(clamps),
            // A quarantined app never rides the duty cycle (its claimed
            // rates cannot be trusted to meter a slot): pin it, let the
            // honest apps keep alternating.
            Schedule::Alternate { slots } => {
                let slots = std::mem::take(slots);
                planned = Schedule::Hybrid {
                    pinned: clamps.collect(),
                    slots,
                };
            }
            // The honest remainder could not be hosted, but the clamped
            // settings themselves are known-feasible floors.
            Schedule::Infeasible => {
                planned = Schedule::Space {
                    settings: clamps.collect(),
                }
            }
        }
        planned
    }

    /// Trust stage (defense mode only): cross-check every app's
    /// self-reports against physics, update trust scores, and act on
    /// ladder transitions — E7 + fair-share clamp on quarantine, fresh
    /// probes on probation, full restoration on re-admission.
    fn observe_integrity(&mut self, sim: &mut ServerSim) {
        let Some(d) = self.defense.as_mut() else {
            return;
        };
        let Some(eb) = self.estimation.as_ref().and_then(|e| e.last.as_ref()) else {
            return;
        };
        let fresh = eb.sample == SampleSource::Fresh;
        let (residual, band) = (eb.residual_w, eb.band_w);
        let now = sim.now();
        let drift_strikes = std::mem::take(&mut d.drift_strikes);
        let names = sim.app_names();
        let mut quarantines: Vec<String> = Vec::new();
        let mut probations: Vec<String> = Vec::new();
        let mut containments: Vec<String> = Vec::new();
        let mut readmitted = false;
        let mut charged = false;
        for name in names {
            let row = first_sight(&mut d.apps, name);
            // Evidence for this poll, strongest stream wins.
            let claim = row.claim;
            let mut mild = claim.is_some_and(|c| c.clamped);
            let mut strong: Option<&'static str> = None;
            if let Some(c) = claim.filter(|c| c.clamped && fresh && residual.abs() > band) {
                // The meter disagrees with the model; an app whose
                // *implausible* claim moved the model away from the
                // meter is charged. Claiming quiet across a positive
                // residual (hidden draw) or hot across a negative one
                // (sandbagged surface) is the signature. Plausible
                // (unclamped) claims are never charged here: an honest
                // app slowed by a noisy neighbour truthfully reports a
                // sub-unity ratio while the neighbour's hidden draw
                // inflates the residual.
                let claimed_delta = (c.ratio - 1.0) * c.unscaled_w;
                if (residual > 0.0 && claimed_delta < -0.25 * residual)
                    || (residual < 0.0 && claimed_delta > 0.25 * residual.abs())
                {
                    strong = Some("claim against meter residual");
                }
            }
            if drift_strikes.contains(name) {
                strong = Some("profile churn");
            }
            if row.contained {
                // Containment repays watt debt in idle time: the app is
                // suspended (drawing nothing), so each poll returns a
                // slice of its outstanding overdraw to the honest pool.
                // The floor keeps the geometric decay from stalling.
                // Containment holds through the quarantine tier — a
                // suspended app cannot re-offend, so its clean streak
                // below is what earns probation (and with it fresh
                // probes, a resume, and the clamp).
                let due = (d.debts.outstanding(name) * CLAWBACK_RATE)
                    .max(OVERDRAW_MARGIN_W * CLAWBACK_RATE);
                claw_back(&mut d.debts, &mut d.stats, &self.obs, now, name, due);
            }
            let contained = row.contained;
            let trust = row.trust.get_or_insert_with(TrustScore::default);
            // Persistent overdraw: the estimated share stays above the
            // allocation. Only charged against apps already below the
            // trusted tier — their σ is inflated, so the solver routes
            // unexplained watts to them *because* the primary detectors
            // already flagged them; for a trusted app the same excess
            // attribution is just residual spread and must not
            // self-fulfil.
            let overdraw = eb
                .apps
                .get(name)
                .zip(self.accountant.allocation(name))
                .map(|(share, alloc)| share.watts - alloc.value())
                .filter(|w| *w > OVERDRAW_MARGIN_W);
            if let (true, Some(overdraw)) = (trust.distrusted(), overdraw) {
                // An overdrawing poll is not a clean poll even when no
                // other stream fires — note_clean would reset the
                // patience streak and the app could overdraw forever in
                // 1-poll bursts.
                mild = true;
                if trust.note_overdraw() {
                    // The strike charges the ledger even when a stronger
                    // stream already fired this poll: the watts were
                    // overdrawn either way, and the clawback must
                    // account for them.
                    d.debts.charge(name, overdraw);
                    charged = true;
                    strong = strong.or(Some("sustained overdraw"));
                    // Overdraw *with the clamp already in force* is knob
                    // non-compliance: no commanded setting can curb it,
                    // so the ladder escalates to containment —
                    // suspension until the debt is idle-time repaid.
                    if trust.quarantined() && !contained {
                        containments.push(name.clone());
                    }
                }
            }
            let evidence = match strong {
                Some(cause) => Some((Evidence::Strong, cause)),
                None => mild.then_some((Evidence::Mild, "implausible heartbeat")),
            };
            let transition = match evidence {
                Some((evidence, cause)) => {
                    d.stats.implausible_polls += 1;
                    trust.note_evidence(evidence).map(|t| (t, cause))
                }
                None => trust.note_clean().map(|t| (t, "")),
            };
            if let Some((TrustTransition::Downgraded | TrustTransition::Quarantined, _)) =
                transition
            {
                let score = trust.score();
                d.stats.downgrades += 1;
                self.obs.emit(now, || ObsEvent::TrustDowngrade {
                    app: name.clone(),
                    score,
                });
            }
            match transition {
                Some((TrustTransition::Quarantined, cause)) => {
                    d.stats.quarantines += 1;
                    self.obs.emit(now, || ObsEvent::Quarantine {
                        app: name.clone(),
                        cause: cause.to_string(),
                    });
                    quarantines.push(name.clone());
                }
                Some((TrustTransition::Probation, _)) => {
                    d.stats.probations += 1;
                    probations.push(name.clone());
                }
                Some((TrustTransition::Readmitted, _)) => {
                    d.stats.readmissions += 1;
                    self.accountant.clear_integrity(name);
                    readmitted = true;
                }
                Some((TrustTransition::Downgraded, _)) | None => {}
            }
        }
        if !quarantines.is_empty() {
            // The audit did its job: blame is assigned, the clamp plan
            // takes over.
            d.audit_until = None;
        }
        for name in quarantines {
            // E7 fires once per episode; a probation relapse is the
            // same episode, so only the clamp (via replan) returns.
            match self.accountant.integrity_fault(&name) {
                Some(event) => self.handle_events(sim, vec![event]),
                None => self.replan(sim),
            }
        }
        let d = self.defense.as_mut().expect("checked above");
        for name in containments {
            let row = first_sight(&mut d.apps, &name);
            if !row.contained {
                row.contained = true;
                d.stats.containments += 1;
                self.obs.emit(now, || ObsEvent::Quarantine {
                    app: name,
                    cause: "containment: overdraw under clamp".to_string(),
                });
            }
        }
        for name in probations {
            // Probation grants fresh probes: the old surface is the one
            // the offender poisoned (or drifted off); re-measure before
            // trusting anything again. `recalibrate` replans, lifting
            // the fair-share clamp. A contained app is released first —
            // probes need it running.
            if let Some(row) = self.defense.as_mut().and_then(|d| d.apps.get_mut(&name)) {
                row.contained = false;
            }
            let _ = sim.resume_app(&name);
            self.recalibrate(sim, &name);
        }
        // Re-admission restores the app's full plan; fresh debt tightens
        // the quarantine clamp (and newly contained apps drop out of the
        // schedule, which is what suspends them). Settling at this
        // cadence keeps the clawback repaying instead of accruing
        // forever between (rare) accountant events.
        if readmitted || charged {
            self.replan(sim);
        }
    }

    /// Installs a schedule as the one in force and records the expected
    /// draws/rates so E4 drift is measured against the operating points
    /// actually actuated.
    fn install_schedule(&mut self, schedule: Arc<Schedule>, now: Seconds) {
        self.act.schedule = schedule;
        self.act.anchor = now;
        self.act.actuation = Actuation::None;
        self.act.pending = None;
        // Pending retries target the old schedule's settings.
        if let Some(h) = self.hardening.as_mut() {
            h.retries.clear();
        }
        for (app, idx, always_on) in self.act.schedule.entries() {
            if let Some(m) = self.measurements.get(app).map(|c| &c.surface) {
                self.accountant.note_allocation(app, m.power(idx));
                if always_on {
                    self.accountant.note_expected_perf(app, m.perf(idx));
                }
            }
        }
        // One Planned record precedes its per-app Allocation records.
        self.obs.with(|obs| {
            let granted: Vec<(&str, Watts)> = self
                .act
                .schedule
                .entries()
                .filter_map(|(app, idx, _)| {
                    Some((app, self.measurements.get(app)?.surface.power(idx)))
                })
                .collect();
            let mode = match &*self.act.schedule {
                Schedule::Space { .. } => "space",
                Schedule::Alternate { .. } => "alternate",
                Schedule::Hybrid { .. } => "hybrid",
                Schedule::EsdCycle { .. } => "esd_cycle",
                Schedule::Infeasible => "infeasible",
            };
            let apps = granted.len();
            obs.emit(now, ObsEvent::Planned { apps, mode });
            for (app, watts) in granted {
                let (app, watts) = (app.to_string(), watts.value());
                obs.emit(now, ObsEvent::Allocation { app, watts });
            }
        });
    }

    fn esd_params(&self, sim: &ServerSim) -> Option<EsdParams> {
        if self.esd_quarantined {
            // The device was implicated in a sustained breach: plan as
            // if no ESD were fitted.
            return None;
        }
        let esd = sim.esd();
        if esd.capacity().value() <= 0.0 {
            return None;
        }
        Some(EsdParams {
            efficiency: esd.round_trip_efficiency(),
            max_discharge: esd.max_discharge_power(),
            max_charge: esd.max_charge_power(),
        })
    }

    /// Actuate stage: installs a pending schedule whose latency has
    /// elapsed, then enters the schedule's current phase if it changed
    /// since the last poll.
    fn actuate(&mut self, sim: &mut ServerSim) {
        let now = sim.now();
        if self.act.pending.as_ref().is_some_and(|(_, at)| now >= *at) {
            let (schedule, _) = self.act.pending.take().expect("checked above");
            self.install_schedule(schedule, now);
        }
        let since = now - self.act.anchor;
        let phase = match &*self.act.schedule {
            Schedule::Space { .. } => Actuation::Space,
            Schedule::Hybrid { slots, .. } if slots.is_empty() => Actuation::HybridPinned,
            Schedule::Alternate { slots } | Schedule::Hybrid { slots, .. } => {
                match active_slot(slots, since) {
                    Some(i) => Actuation::Slot(i),
                    None => return,
                }
            }
            Schedule::EsdCycle { off, on, .. } => {
                let cycle = *off + *on;
                if cycle.value() <= 0.0 {
                    return;
                }
                let pos = since.value().rem_euclid(cycle.value());
                if pos < off.value() && off.value() > 0.0 {
                    Actuation::EsdOff
                } else {
                    Actuation::EsdOn
                }
            }
            Schedule::Infeasible => Actuation::Parked,
        };
        if phase != self.act.actuation {
            let schedule = Arc::clone(&self.act.schedule);
            self.enter_phase(sim, &schedule, phase);
        }
    }

    /// Enters `phase` of `schedule`: suspends every app the phase does
    /// not run, applies the phase's settings shrinks-first and then its
    /// slot's, resuming each, and sets the ESD command.
    fn enter_phase(&mut self, sim: &mut ServerSim, schedule: &Schedule, phase: Actuation) {
        let none = BTreeMap::new();
        let (settings, slot, esd) = match (schedule, phase) {
            (Schedule::Space { settings }, _) => (settings, None, EsdCommand::Idle),
            (Schedule::Alternate { slots }, Actuation::Slot(i)) => {
                (&none, Some(&slots[i]), EsdCommand::Idle)
            }
            (Schedule::Hybrid { pinned, slots }, Actuation::Slot(i)) => {
                (pinned, Some(&slots[i]), EsdCommand::Idle)
            }
            (Schedule::Hybrid { pinned, .. }, _) => (pinned, None, EsdCommand::Idle),
            (Schedule::EsdCycle { charge, .. }, Actuation::EsdOff) => {
                (&none, None, EsdCommand::Charge(*charge))
            }
            (Schedule::EsdCycle { settings, .. }, _) => {
                (settings, None, EsdCommand::DischargeToCap)
            }
            _ => (&none, None, EsdCommand::Idle),
        };
        // Suspending an already suspended app changes nothing, so only
        // the apps that still run are named (and their names cloned).
        let suspend_rest = |sim: &mut ServerSim| {
            for pos in 0..sim.app_names().len() {
                let name = &sim.app_names()[pos];
                let running = sim
                    .server()
                    .assignment(name)
                    .is_some_and(|a| a.run_state() != AppRunState::Suspended);
                if running && !settings.contains_key(name) && slot.is_none_or(|s| s.app != *name) {
                    let name = name.clone();
                    let _ = sim.suspend_app(&name);
                }
            }
        };
        // A slot change suspends the outgoing app before the incoming
        // one claims its cores; other phases apply their settings
        // first. The ON half of an ESD cycle leaves everything else as
        // the OFF half parked it.
        let slotted = matches!(phase, Actuation::Slot(_));
        if slotted {
            suspend_rest(sim);
        }
        for (name, idx) in Self::shrinks_first(sim, settings) {
            self.apply_setting(sim, &name, idx);
            let _ = sim.resume_app(&name);
        }
        if let Some(slot) = slot {
            self.apply_setting(sim, &slot.app, slot.setting);
            let _ = sim.resume_app(&slot.app);
        }
        if !slotted && phase != Actuation::EsdOn {
            suspend_rest(sim);
        }
        sim.set_esd_command(esd);
        self.act.actuation = phase;
        self.act.actuated_at = sim.now();
    }

    /// Orders simultaneous knob applications so core releases happen
    /// before core grabs: growing one app before its neighbour shrinks
    /// would fail on a fully-committed server and silently leave a stale
    /// knob in force.
    fn shrinks_first(sim: &ServerSim, settings: &BTreeMap<String, usize>) -> Vec<(String, usize)> {
        let mut ordered: Vec<(String, usize)> =
            settings.iter().map(|(n, i)| (n.clone(), *i)).collect();
        if ordered.len() < 2 {
            // Nothing to order (a duty-cycle slot change has no settings).
            return ordered;
        }
        let grid = sim.server().spec().knob_grid();
        ordered.sort_by_key(|(name, idx)| {
            let current = sim
                .server()
                .assignment(name)
                .map(|a| a.cores().len())
                .unwrap_or(0);
            let target = grid.get(*idx).map(|k| k.cores()).unwrap_or(current);
            // Negative growth (shrinks) sort first.
            target as isize - current as isize
        });
        ordered
    }

    /// Applies grid setting `idx` to `name`. Suspended applications do
    /// not need their cores (their processes are stopped), so when the
    /// target setting cannot fit, suspended apps are parked on a single
    /// core each — the `taskset` reshuffle of Sec. III-B — and the
    /// setting is retried.
    fn apply_setting(&mut self, sim: &mut ServerSim, name: &str, idx: usize) {
        let Some(knob) = self.grid.get(idx) else {
            return;
        };
        let now = sim.now();
        if let Some(d) = self.defense.as_mut() {
            // Stamp only real changes: a replan that re-installs the
            // same setting (or resumes an already-running app) leaves
            // the app's heartbeat window intact.
            let unchanged = sim
                .server()
                .assignment(name)
                .is_some_and(|a| a.knob() == knob && a.run_state() == AppRunState::Running);
            if !unchanged {
                first_sight(&mut d.apps, name).knob_stable_since = Some(now);
            }
        }
        let mut ok = sim.set_knobs(name, knob).is_ok();
        if !ok {
            for pos in 0..sim.app_names().len() {
                let other = &sim.app_names()[pos];
                let Some(a) = sim.server().assignment(other) else {
                    continue;
                };
                if other != name && a.run_state() == AppRunState::Suspended && a.knob().cores() > 1
                {
                    let parked = a.knob().with_cores(1);
                    let other = other.clone();
                    let _ = sim.set_knobs(&other, parked);
                }
            }
            ok = sim.set_knobs(name, knob).is_ok();
        }
        // Hardened verification: a write can return Ok yet leave the old
        // setting in force (stale/partial actuation). Compare what the
        // server reports against what was commanded; schedule a bounded
        // backoff retry when they disagree.
        let Some(h) = self.hardening.as_mut() else {
            return;
        };
        let landed = ok && sim.server().assignment(name).map(|a| a.knob()) == Some(knob);
        let verdict = if landed {
            h.retries.remove(name);
            KnobWriteVerdict::Landed
        } else {
            let retry = RetryState {
                idx,
                attempts: 0,
                next_at: now + RETRY_BACKOFF,
                since: now,
            };
            h.retries.insert(name.to_string(), retry);
            KnobWriteVerdict::Deferred
        };
        self.obs.emit(now, || ObsEvent::KnobWrite {
            app: name.to_string(),
            verdict,
            attempts: 1,
        });
    }

    /// Re-attempts knob writes that did not land, with linear backoff.
    /// A write that exhausts its retry budget raises E5 and re-plans.
    fn process_retries(&mut self, sim: &mut ServerSim) {
        let Some(h) = self.hardening.as_mut().filter(|h| !h.retries.is_empty()) else {
            return;
        };
        let now = sim.now();
        let due: Vec<(String, RetryState)> = h
            .retries
            .iter()
            .filter(|(_, st)| now >= st.next_at)
            .map(|(n, st)| (n.clone(), *st))
            .collect();
        let mut events = Vec::new();
        for (name, st) in due {
            let hosted = sim.server().assignment(&name).is_some();
            let Some(knob) = self.grid.get(st.idx).filter(|_| hosted) else {
                h.retries.remove(&name);
                continue;
            };
            self.hardening_stats.retries += 1;
            let landed = sim.set_knobs(&name, knob).is_ok()
                && sim.server().assignment(&name).map(|a| a.knob()) == Some(knob);
            let verdict = if landed {
                KnobWriteVerdict::RetryLanded
            } else if st.attempts + 1 >= MAX_RETRIES {
                KnobWriteVerdict::RetryExhausted
            } else {
                let attempts = st.attempts + 1;
                let next_at = now + RETRY_BACKOFF * f64::from(attempts + 1);
                let retry = RetryState {
                    attempts,
                    next_at,
                    ..st
                };
                h.retries.insert(name, retry);
                continue;
            };
            self.obs.emit(now, || ObsEvent::KnobWrite {
                app: name.clone(),
                verdict,
                attempts: st.attempts + 2,
            });
            h.retries.remove(&name);
            if landed {
                // Sim-time latency from the original failed write to the
                // retry that finally stuck.
                self.obs.with(|obs| {
                    obs.observe("actuation_retry_latency_seconds", (now - st.since).value());
                });
            } else {
                self.hardening_stats.actuation_faults += 1;
                events.push(self.accountant.actuation_fault(&name));
                self.last_fault_error = Some(CoreError::ActuationFailed {
                    app: name,
                    attempts: MAX_RETRIES,
                });
            }
        }
        if !events.is_empty() {
            self.handle_events(sim, events);
        }
    }

    /// Estimate stage (estimation mode only): reconstruct the per-app
    /// breakdown from the aggregate meter sample, the knob settings on
    /// record, the heartbeats just sensed, and the calibrated profiles,
    /// into the held breakdown, and give each observation its app's
    /// estimated power. Returns `false` when estimation is off.
    fn estimate_breakdown(
        &mut self,
        sim: &ServerSim,
        report: &StepReport,
        sensed: &mut [Observation],
    ) -> bool {
        let Some(est) = self.estimation.as_mut() else {
            return false;
        };
        let mut defense = self.defense.as_mut();
        if let Some(d) = defense.as_deref_mut() {
            for row in d.apps.values_mut() {
                row.claim = None;
            }
        }
        let names = sim.app_names();
        est.priors.resize_with(names.len(), || AppPrior {
            name: String::new(),
            predicted_w: 0.0,
            sigma_w: 0.0,
        });
        for (pos, (name, o)) in names.iter().zip(sensed.iter()).enumerate() {
            let idx = self.grid.index_of(sim.server().assignments()[pos].knob());
            let surface = self.measurements.get(name).map(|c| &c.surface);
            let (predicted_w, sigma_w) = match (surface, idx) {
                // A suspended or finished app draws no dynamic power,
                // and the runtime knows it (the suspension was its own
                // command): a tight prior at zero.
                _ if o.completed || o.suspended => (0.0, SIGMA_FLOOR_W),
                (Some(m), Some(idx)) => {
                    let mut row = defense
                        .as_deref_mut()
                        .map(|d| first_sight(&mut d.apps, name));
                    let trust = row.as_ref().and_then(|r| r.trust.as_ref());
                    let distrusted = trust.is_some_and(TrustScore::distrusted);
                    let trust_weight = trust.map_or(1.0, TrustScore::score);
                    let unscaled_w = m.power(idx).value();
                    let mut predicted = unscaled_w;
                    let expected = m.perf(idx);
                    if let Some(hb) = o.heartbeat.filter(|_| expected > 0.0) {
                        // A heartbeat off the calibrated rate means the
                        // app is not where the surface says it is (a
                        // phase); scale the prior with it, bounded so
                        // one noisy window cannot swing the model.
                        let ratio = hb / expected;
                        let bounded = ratio.clamp(HB_RATIO_MIN, HB_RATIO_MAX);
                        let clamped = bounded != ratio;
                        if clamped {
                            // A claim pinned at the bound is a claim
                            // physics would not honor — the integrity
                            // layer seeds its trust scores from these.
                            est.stats.clamp_bound_polls += 1;
                            self.obs.emit(sim.now(), || ObsEvent::HeartbeatClampBound {
                                app: name.clone(),
                                ratio,
                            });
                        }
                        // A distrusted app's self-report is ignored
                        // outright: the prior rides on the profile
                        // alone.
                        if !distrusted {
                            predicted *= bounded;
                        }
                        if let Some(row) = row.as_mut() {
                            row.claim = Some(ClaimRecord {
                                ratio,
                                unscaled_w,
                                clamped,
                            });
                        }
                    }
                    let confidence = (est.prior_confidence.get(name).copied().unwrap_or(1.0)
                        * trust_weight)
                        .clamp(0.05, 1.0);
                    let mut sigma = predicted.abs() * PRIOR_REL_SIGMA / confidence;
                    if self
                        .hardening
                        .as_ref()
                        .is_some_and(|h| h.retries.contains_key(name))
                    {
                        // The planned knob write has not verified: the
                        // app may still run at the stale setting.
                        sigma *= STALE_KNOB_INFLATION;
                    }
                    (predicted, sigma.max(SIGMA_FLOOR_W))
                }
                // No calibrated surface yet (mid-admission churn): a
                // wide prior lets the meter place it.
                _ => (0.0, 20.0 * SIGMA_FLOOR_W),
            };
            let prior = &mut est.priors[pos];
            prior.name.clone_from(name);
            prior.predicted_w = predicted_w;
            prior.sigma_w = sigma_w;
        }
        // Idle + chip-maintenance power is deterministic in the knob
        // assignments (spec constants per awake socket), not sensed per
        // app, so subtracting it does not consult the oracle. ESD flows
        // are separately metered by the BMS on a real server.
        let static_floor = (sim.breakdown().idle + sim.breakdown().uncore).value();
        let eb = est.last.get_or_insert_with(EstimatedBreakdown::default);
        est.estimator.estimate(
            report.observed_net_power.map(Watts::value),
            static_floor,
            report.esd_charge.value(),
            report.esd_discharge.value(),
            &est.priors,
            eb,
        );
        est.stats.estimates += 1;
        match eb.sample {
            SampleSource::Fresh => {}
            SampleSource::Held => est.stats.held_samples += 1,
            SampleSource::Blind => est.stats.blind_samples += 1,
        }
        // The breakdown holds exactly this poll's apps, in name order,
        // which is position order.
        for (o, share) in sensed.iter_mut().zip(eb.apps.values()) {
            o.power = Watts::new(share.watts);
        }
        true
    }

    /// Post-poll estimation bookkeeping: journal this poll's residual
    /// verdict, advance the degradation ladder, and act on whatever it
    /// returns (engage / escalate / release).
    fn observe_estimated(&mut self, sim: &mut ServerSim) {
        let now = sim.now();
        let est = self
            .estimation
            .as_mut()
            .expect("only called in estimation mode");
        let eb = est.last.as_ref().expect("estimated this poll");
        let (residual_w, band_w) = (eb.residual_w, eb.band_w);
        let ResidualVerdict { spike, action } = est.estimator.note_residual(eb);
        if let Some(streak) = spike {
            est.stats.residual_spikes += 1;
            self.obs.emit(now, || ObsEvent::ResidualSpike {
                residual_w,
                band_w,
                streak,
            });
        }
        match action {
            DegradeAction::None => {}
            DegradeAction::EngageFallback => {
                // Sustained model-vs-meter disagreement is a sensor
                // fault the per-channel checks cannot see (a biased
                // meter, a fleet-wide phase shift, a poisoned profile):
                // fire E6 and plan against the cap minus the band.
                est.stats.fallback_engagements += 1;
                est.fallback_shave = Watts::new(band_w.max(RESIDUAL_FLOOR_W));
                let shave_w = est.fallback_shave.value();
                // An unexplained residual with every app still trusted
                // is also what undetected collusion looks like: open an
                // integrity audit so the plausibility cross-checks get
                // claims to work with before the shave duty-cycles the
                // schedule and silences them.
                if let Some(d) = self.defense.as_mut() {
                    d.audit_if_unexplained(now);
                }
                self.obs.emit(now, || ObsEvent::FallbackCap {
                    shave_w,
                    engaged: true,
                });
                let what = format!(
                    "estimated-vs-meter residual {:.1} W exceeded the {:.1} W confidence band",
                    residual_w.abs(),
                    band_w,
                );
                self.sensor_fault(sim, what);
            }
            DegradeAction::Escalate => {
                est.stats.escalations += 1;
                if self.watchdog.force_engage() == Some(WatchdogTransition::Engaged) {
                    self.enter_safe_mode(sim);
                }
            }
            DegradeAction::ReleaseFallback => {
                est.stats.fallback_releases += 1;
                est.fallback_shave = Watts::ZERO;
                self.obs.emit(now, || ObsEvent::FallbackCap {
                    shave_w: 0.0,
                    engaged: false,
                });
                self.replan(sim);
            }
        }
    }

    /// E6 from any sensor check: books it as the latest fault and
    /// handles the event.
    fn sensor_fault(&mut self, sim: &mut ServerSim, what: String) {
        self.hardening_stats.sensor_faults += 1;
        let event = self.accountant.sensor_fault(&what);
        self.last_fault_error = Some(CoreError::TelemetryLoss { what });
        self.handle_events(sim, vec![event]);
    }

    /// Harden stage: sensor health, the safe-mode watchdog over the
    /// observed net draw, and the hardened gauges.
    fn observe_hardened(&mut self, sim: &mut ServerSim, report: &StepReport) {
        let now = sim.now();
        let h = self.hardening.as_mut().expect("only called when hardened");

        // Sensor health. The external (PDU-side) observed channel is
        // cross-checked against the internal RAPL-side reading: a meter
        // that repeats itself bit-for-bit while the internal reading
        // moves is stuck, and missing samples are dropouts.
        match report.observed_net_power {
            None => {
                h.dropouts += 1;
                h.stuck = 0;
            }
            Some(observed) => {
                h.dropouts = 0;
                let truth_moved = h
                    .last_true_net
                    .is_some_and(|t| (report.net_power - t).abs() > Watts::new(1e-6));
                if h.last_observed == Some(observed) && truth_moved {
                    h.stuck += 1;
                } else {
                    h.stuck = 0;
                }
                h.last_observed = Some(observed);
            }
        }
        h.last_true_net = Some(report.net_power);
        let (dropouts, stuck) = (h.dropouts, h.stuck);
        if dropouts > 0 || stuck > 0 {
            self.obs
                .emit(now, || ObsEvent::SensorSuspect { dropouts, stuck });
        }
        // Watchdog input: fresh samples feed it directly, and a brief
        // dropout is bridged with the last good reading for a bounded
        // window — a breach in progress keeps arming the watchdog
        // through a flaky meter. Past the window the channel is treated
        // as absent (stale evidence is neither over- nor under-cap) and
        // the E6 dropout deadline takes over.
        let watchdog_sample = match report.observed_net_power {
            Some(o) => Some(o),
            None if dropouts <= DROPOUT_HOLD_POLLS => h.last_observed,
            None => None,
        };
        let dropped_out = dropouts >= DROPOUT_PATIENCE;
        if (dropped_out || stuck >= STUCK_PATIENCE) && !h.sensor_latched {
            h.sensor_latched = true;
            let what = if dropped_out {
                format!("{dropouts} consecutive dropouts")
            } else {
                format!("meter stuck for {stuck} polls")
            };
            self.sensor_fault(sim, what);
        } else if dropouts == 0 && stuck == 0 {
            h.sensor_latched = false;
        }

        if let Some(observed) = watchdog_sample {
            let over = observed.violates_cap(self.accountant.cap());
            match self.watchdog.observe(over) {
                Some(WatchdogTransition::Engaged) => self.enter_safe_mode(sim),
                Some(WatchdogTransition::Released) => self.exit_safe_mode(sim),
                None => {}
            }
            let h = self.hardening.as_mut().expect("only called when hardened");
            if !self.watchdog.engaged() {
                h.breach_polls = 0;
            } else if over {
                h.breach_polls += 1;
                if !h.escalated && h.breach_polls >= WATCHDOG_PATIENCE {
                    h.escalated = true;
                    self.escalate(sim);
                }
            }
        }

        let engaged = if self.watchdog.engaged() { 1.0 } else { 0.0 };
        let retries = self.hardening_stats.retries as f64;
        self.obs.with(|obs| {
            obs.set_gauge("safe_mode_engaged", engaged);
            obs.set_gauge("retries_total", retries);
        });
    }

    /// The observed net draw stayed over the cap past the watchdog's
    /// patience: stop trusting the plan. Every hosted application is
    /// forced to the minimum frequency/DRAM limit at its current core
    /// count, the ESD is idled, and — if an ESD-assisted co-run was in
    /// force — the device is quarantined out of future plans.
    fn enter_safe_mode(&mut self, sim: &mut ServerSim) {
        let now = sim.now();
        self.hardening_stats.safe_mode_entries += 1;
        if let Some(h) = self.hardening.as_mut() {
            h.breach_polls = 0;
            h.escalated = false;
            h.retries.clear();
        }
        self.obs.emit(now, || ObsEvent::SafeMode {
            transition: SafeModeTransition::Engaged,
        });
        if matches!(*self.act.schedule, Schedule::EsdCycle { .. }) {
            self.esd_quarantined = true;
        }
        for name in sim.app_names().to_vec() {
            let Some(a) = sim.server().assignment(&name) else {
                continue;
            };
            let floor = KnobSetting::min_for(&self.spec).with_cores(a.knob().cores());
            let _ = sim.set_knobs(&name, floor);
            self.obs
                .emit(now, || ObsEvent::ForceThrottle { app: name.clone() });
        }
        sim.set_esd_command(EsdCommand::Idle);
        self.act.actuation = Actuation::None;
        self.act.actuated_at = now;
    }

    /// Safe mode alone did not clear the breach (e.g. the floor still
    /// sits above a very low cap): park every application. Progress
    /// stops, but the feed goes back under its provisioned limit.
    fn escalate(&mut self, sim: &mut ServerSim) {
        self.hardening_stats.safe_mode_escalations += 1;
        self.obs.emit(sim.now(), || ObsEvent::SafeMode {
            transition: SafeModeTransition::Escalated,
        });
        for name in sim.app_names().to_vec() {
            let _ = sim.suspend_app(&name);
        }
        sim.set_esd_command(EsdCommand::Idle);
    }

    /// The breach cleared for the configured release window: resume
    /// normal operation by re-planning (with any ESD quarantine still
    /// in force) and letting the next actuation pass re-assert knobs.
    fn exit_safe_mode(&mut self, sim: &mut ServerSim) {
        self.hardening_stats.safe_mode_exits += 1;
        if let Some(h) = self.hardening.as_mut() {
            h.breach_polls = 0;
            h.escalated = false;
        }
        self.obs.emit(sim.now(), || ObsEvent::SafeMode {
            transition: SafeModeTransition::Released,
        });
        // A breach that keeps coming back through replans with nobody
        // implicated is the watchdog-blinded defector signature: each
        // engage/release cycle changes every knob, so no claim window
        // ever matures and the claim-based detectors see nothing. Pin
        // the audit schedule on release — a stable floor fits the cap
        // (safe mode just proved it), lets claims mature, and makes the
        // one app running hot at a floor setting stand out.
        if let (Some(d), true) = (
            self.defense.as_mut(),
            self.hardening_stats.safe_mode_entries >= 2,
        ) {
            d.audit_if_unexplained(sim.now());
        }
        self.replan(sim);
    }
}

/// The bits of each ESD parameter: a plan key equal to another only when
/// every parameter is the same value, sign of zero included.
fn esd_bits(esd: Option<EsdParams>) -> Option<[u64; 3]> {
    esd.map(|e| {
        [
            e.efficiency.value().to_bits(),
            e.max_discharge.value().to_bits(),
            e.max_charge.value().to_bits(),
        ]
    })
}

/// The slot active `since` into a cyclic run of `slots`, or `None` when
/// the cycle has no length.
fn active_slot(slots: &[TimeSlot], since: Seconds) -> Option<usize> {
    let cycle: Seconds = slots.iter().map(|s| s.duration).sum();
    if cycle.value() <= 0.0 {
        return None;
    }
    let mut pos = Seconds::new(since.value().rem_euclid(cycle.value()));
    for (i, slot) in slots.iter().enumerate() {
        if pos < slot.duration {
            return Some(i);
        }
        pos -= slot.duration;
    }
    Some(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use powermed_esd::{LeadAcidBattery, NoEsd};
    use powermed_workloads::catalog;

    const DT: Seconds = Seconds::new(0.1);

    fn sim_no_esd() -> ServerSim {
        ServerSim::new(ServerSpec::xeon_e5_2620(), Box::new(NoEsd))
    }

    fn sim_with_battery() -> ServerSim {
        ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(LeadAcidBattery::server_ups().with_soc(0.2)),
        )
    }

    fn mediator(kind: PolicyKind, cap: f64) -> PowerMediator {
        PowerMediator::new(kind, ServerSpec::xeon_e5_2620(), Watts::new(cap))
    }

    #[test]
    fn space_mode_respects_cap_at_100w() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Space { .. }));
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
        assert!(sim.ops_done("pagerank") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn alternate_mode_at_80w_runs_one_at_a_time() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 80.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Alternate { .. }));
        med.run_for(&mut sim, Seconds::new(12.0), DT);
        // Both made progress (they alternate across the 10 s cycle).
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
    }

    #[test]
    fn esd_mode_at_80w_consolidates_and_uses_battery() {
        let mut sim = sim_with_battery();
        let mut med = mediator(PolicyKind::AppResEsdAware, 80.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::EsdCycle { .. }));
        med.run_for(&mut sim, Seconds::new(20.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
        // Battery cycled.
        assert!(sim.esd().stats().charged.value() > 0.0);
        assert!(sim.esd().stats().discharged.value() > 0.0);
        // The ESD keeps net draw at or below the cap.
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.05, "violation fraction {violations}");
    }

    #[test]
    fn departure_triggers_reallocation() {
        let mut sim = sim_no_esd();
        let spec = sim.server().spec().clone();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        // kmeans finishes after ~2 s of uncapped-rate work.
        let short = catalog::finite(catalog::kmeans(), &spec, Seconds::new(2.0));
        med.admit(&mut sim, short).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        let replans_before = med.replans();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        assert_eq!(sim.app_names(), vec!["pagerank".to_string()]);
        assert!(med.replans() > replans_before, "departure replanned");
        // The survivor now holds (close to) the whole budget.
        match med.schedule() {
            Schedule::Space { settings } => {
                let idx = settings["pagerank"];
                let m = med.measurement("pagerank").unwrap();
                assert!(
                    m.perf(idx) / m.nocap_perf() > 0.95,
                    "survivor should run nearly uncapped"
                );
            }
            other => panic!("expected Space after departure, got {other:?}"),
        }
    }

    #[test]
    fn cap_drop_switches_modes() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert!(matches!(med.schedule(), Schedule::Space { .. }));
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        med.set_cap(&mut sim, Watts::new(80.0));
        assert!(matches!(med.schedule(), Schedule::Alternate { .. }));
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert_eq!(sim.cap(), Some(Watts::new(80.0)));
    }

    #[test]
    fn online_calibration_probes_fraction_of_grid() {
        let mut sim = sim_no_esd();
        let corpus = catalog::all();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
        med.admit(&mut sim, catalog::stream()).unwrap();
        assert!(
            med.probes() < 60,
            "10% sampling should probe ~43 settings, got {}",
            med.probes()
        );
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
    }

    #[test]
    fn util_unaware_never_gates_cores() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::UtilUnaware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(1.0), DT);
        for name in ["stream", "kmeans"] {
            let knob = sim.server().assignment(name).unwrap().knob();
            assert_eq!(knob.cores(), 6, "{name}: RAPL baseline keeps all cores");
        }
    }

    #[test]
    fn actuation_latency_defers_the_new_schedule() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_actuation_latency(Seconds::new(0.8));
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        let before = sim.server().assignment("kmeans").unwrap().knob();

        // E1 fires; the old knobs must stay in force for ~0.8 s.
        med.set_cap(&mut sim, Watts::new(85.0));
        med.run_for(&mut sim, Seconds::new(0.5), DT);
        assert_eq!(
            sim.server().assignment("kmeans").unwrap().knob(),
            before,
            "old allocation still in force during the actuation window"
        );
        med.run_for(&mut sim, Seconds::new(0.5), DT);
        assert_ne!(
            sim.server().assignment("kmeans").unwrap().knob(),
            before,
            "new allocation applied after the window"
        );
    }

    #[test]
    fn hardened_retries_ride_through_flaky_knob_writes() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 42,
            knob_failure_prob: 0.5,
            knob_stale_steps: 5,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        let stats = med.hardening_stats();
        assert!(stats.retries > 0, "half the writes fail: retries fired");
        assert!(sim.ops_done("pagerank") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn watchdog_throttles_a_stuck_esd_corun_and_quarantines_the_device() {
        use powermed_sim::faults::FaultConfig;
        let scenario = FaultConfig {
            seed: 7,
            esd_stuck_at_idle: true,
            ..FaultConfig::default()
        };
        let run = |hardened: bool| {
            let mut sim = sim_with_battery().with_fault_injection(scenario.clone());
            let mut med = mediator(PolicyKind::AppResEsdAware, 80.0);
            if hardened {
                med = med.with_hardening(HardeningConfig::default());
            }
            med.admit(&mut sim, catalog::stream()).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            assert!(matches!(med.schedule(), Schedule::EsdCycle { .. }));
            med.run_for(&mut sim, Seconds::new(30.0), DT);
            (sim.meter().compliance().violation_fraction(), med)
        };
        let (unhardened_violations, unhardened_med) = run(false);
        let (hardened_violations, hardened_med) = run(true);
        assert_eq!(unhardened_med.hardening_stats().safe_mode_entries, 0);
        assert!(
            unhardened_violations > 0.05,
            "the stuck ESD must hurt the trusting runtime, got {unhardened_violations}"
        );
        let stats = hardened_med.hardening_stats();
        assert!(stats.safe_mode_entries >= 1, "watchdog engaged");
        assert!(stats.safe_mode_exits >= 1, "and released once throttled");
        assert!(
            !matches!(hardened_med.schedule(), Schedule::EsdCycle { .. }),
            "the quarantined device is planned around"
        );
        assert!(
            hardened_violations < unhardened_violations,
            "hardened {hardened_violations} must beat unhardened {unhardened_violations}"
        );
    }

    #[test]
    fn sensor_dropouts_raise_e6_once_per_episode() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 1,
            meter_dropout_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(3.0), DT);
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "E6 latches per episode; an all-dropout run fires exactly once"
        );
        assert!(matches!(
            med.last_fault_error(),
            Some(CoreError::TelemetryLoss { .. })
        ));
        // A blind watchdog must not engage on missing samples.
        assert!(!med.safe_mode());
    }

    #[test]
    fn departed_app_degrades_to_a_skipped_calibration() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        // kmeans vanishes behind the mediator's back (crash between the
        // E4 trigger and the probe loop).
        sim.remove("kmeans").unwrap();
        let ok = med.recalibrate(&mut sim, "kmeans");
        assert!(!ok, "no surface was produced");
        assert_eq!(med.hardening_stats().skipped_calibrations, 1);
        assert!(
            !med.accountant().tracked().contains(&"kmeans"),
            "the departure was booked instead"
        );
        assert!(med.measurement("kmeans").is_none());
        // The survivor keeps running.
        med.run_for(&mut sim, Seconds::new(1.0), DT);
        assert!(sim.ops_done("stream") > 0.0);
    }

    #[test]
    fn hardening_off_keeps_the_trusting_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert!(!med.safe_mode());
        assert_eq!(med.hardening_stats().retries, 0);
        assert!(med.last_fault_error().is_none());
    }

    #[test]
    fn observability_journals_the_safe_mode_decision_chain() {
        use powermed_sim::faults::FaultConfig;
        use powermed_telemetry::journal::ObsConfig;
        let scenario = FaultConfig {
            seed: 7,
            esd_stuck_at_idle: true,
            ..FaultConfig::default()
        };
        let run = |observed: bool| {
            let mut sim = sim_with_battery().with_fault_injection(scenario.clone());
            let mut med = mediator(PolicyKind::AppResEsdAware, 80.0)
                .with_hardening(HardeningConfig::default());
            let obs = Obs::new(ObsConfig::default());
            if observed {
                med.set_observability(obs.clone());
                sim.set_observability(obs.clone());
            }
            med.admit(&mut sim, catalog::stream()).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            med.run_for(&mut sim, Seconds::new(30.0), DT);
            let ops = sim.ops_done("stream") + sim.ops_done("kmeans");
            (sim.meter().compliance().violation_fraction(), ops, obs)
        };
        let (base_viol, base_ops, _) = run(false);
        let (viol, ops, obs) = run(true);
        assert_eq!(
            (base_viol, base_ops),
            (viol, ops),
            "attaching the flight recorder must not change the physics"
        );

        let journal = obs.journal_snapshot();
        let engaged_at = journal
            .iter()
            .position(|r| {
                r.event
                    == ObsEvent::SafeMode {
                        transition: SafeModeTransition::Engaged,
                    }
            })
            .expect("the stuck ESD forces a safe-mode entry");
        let over_cap_before = journal[..engaged_at]
            .iter()
            .filter(|r| matches!(r.event, ObsEvent::Poll { over_cap: true, .. }))
            .count();
        assert!(
            over_cap_before >= 1,
            "the engage record is preceded by the over-cap polls that caused it"
        );
        assert!(
            journal[engaged_at..]
                .iter()
                .any(|r| matches!(r.event, ObsEvent::ForceThrottle { .. })),
            "the engage record is followed by per-app force-throttles"
        );
        let engage = &journal[engaged_at];
        assert!(engage.poll > 0, "events carry their poll id");
        let m = obs.metrics();
        assert!(m.counter("events_by_kind_total{kind=\"poll\"}") > 0);
        assert!(m.counter("events_by_kind_total{kind=\"allocation\"}") > 0);
        assert_eq!(m.counter("polls_total"), 300);

        // Same seed, same config: the deterministic digest matches.
        let (_, _, twin) = run(true);
        assert_eq!(obs.digest(), twin.digest());
    }

    #[test]
    fn warm_admission_from_a_restored_store_probes_nothing() {
        let corpus = catalog::all();
        // Cold server: measures, publishes to its store.
        let mut sim_a = sim_no_esd();
        let mut med_a = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 1);
        med_a.admit(&mut sim_a, catalog::stream()).unwrap();
        let cold = med_a.probe_split();
        assert!(cold.cold > 0);
        assert_eq!(cold.warm + cold.skipped, 0);
        assert_eq!(med_a.take_store_outbox().len(), 1, "publication queued");
        assert_eq!(med_a.store_stats().misses, 1, "cold lookup missed");

        // Warm server: restarts from the store's by-value snapshot (the
        // crash-durable path) and admits the same workload without a
        // single probe.
        let restored = med_a.profile_store().unwrap().rebooted();
        let mut sim_b = sim_no_esd();
        let mut med_b = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(restored, 2);
        med_b.admit(&mut sim_b, catalog::stream()).unwrap();
        assert_eq!(med_b.probes(), 0, "fully covered prior: no probes");
        let warm = med_b.probe_split();
        assert_eq!(warm.cold + warm.warm, 0);
        assert_eq!(warm.skipped as usize, cold.cold as usize);
        assert_eq!(med_b.store_stats().hits, 1);
        assert!(
            med_b.take_store_outbox().is_empty(),
            "nothing new learned, nothing republished"
        );
        // Both servers computed the same surface from the same samples.
        let ma = med_a.measurement("stream").unwrap();
        let mb = med_b.measurement("stream").unwrap();
        for i in 0..ma.grid().len() {
            assert_eq!(ma.power(i), mb.power(i));
            assert_eq!(ma.perf(i), mb.perf(i));
        }
    }

    #[test]
    fn empty_store_matches_the_storeless_online_path() {
        let corpus = catalog::all();
        let run = |with_store: bool| {
            let mut sim = sim_no_esd();
            let mut med =
                mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
            if with_store {
                med = med.with_profile_store(ProfileStore::default(), 0);
            }
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            med.run_for(&mut sim, Seconds::new(2.0), DT);
            (med.probes(), sim.ops_done("kmeans"))
        };
        let (probes_plain, ops_plain) = run(false);
        let (probes_store, ops_store) = run(true);
        assert_eq!(probes_plain, probes_store);
        assert_eq!(ops_plain, ops_store, "store must not perturb the run");
    }

    #[test]
    fn drift_recalibration_tombstones_then_republishes() {
        let corpus = catalog::all();
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 3);
        med.admit(&mut sim, catalog::bfs()).unwrap();
        let first = med.take_store_outbox();
        assert_eq!(first.len(), 1);
        let v1 = first[0].profile.version;

        // Forced E4: the entry is tombstoned (v+1), then the fresh
        // recalibration republishes over it (v+2).
        assert!(med.recalibrate(&mut sim, "bfs"));
        let after = med.take_store_outbox();
        assert_eq!(after.len(), 2, "tombstone then republication");
        assert!(after[0].profile.is_tombstone());
        assert_eq!(after[0].profile.version, v1 + 1);
        assert!(!after[1].profile.is_tombstone());
        assert_eq!(after[1].profile.version, v1 + 2);
        assert_eq!(med.store_stats().invalidations, 1);
        // The stale profile was not served to the recalibration.
        let split = med.probe_split();
        assert_eq!(split.warm, 0, "post-tombstone lookup must miss");
        assert_eq!(split.skipped, 0);
    }

    #[test]
    fn absorbed_fleet_digests_warm_up_local_admissions() {
        let corpus = catalog::all();
        // Server 1 measures x264 cold and broadcasts.
        let mut sim_a = sim_no_esd();
        let mut med_a = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 1);
        med_a.admit(&mut sim_a, catalog::x264()).unwrap();
        let digests = med_a.take_store_outbox();

        // Server 2 absorbs the broadcast, then admits the same app warm.
        let mut sim_b = sim_no_esd();
        let mut med_b = mediator(PolicyKind::AppResAware, 100.0)
            .with_online_calibration(&corpus, 0.10)
            .with_profile_store(ProfileStore::default(), 2);
        assert_eq!(med_b.absorb_digests(&digests), 1);
        med_b.admit(&mut sim_b, catalog::x264()).unwrap();
        assert_eq!(med_b.probes(), 0, "fleet knowledge made this warm");
        assert_eq!(med_b.store_stats().hits, 1);
    }

    fn over_cap_report(observed: Option<f64>) -> StepReport {
        StepReport {
            now: Seconds::ZERO,
            gross_power: Watts::new(90.0),
            net_power: Watts::new(90.0),
            esd_charge: Watts::ZERO,
            esd_discharge: Watts::ZERO,
            cap_violated: true,
            observed_net_power: observed.map(Watts::new),
            completed: Vec::new(),
        }
    }

    #[test]
    fn held_samples_bridge_dropouts_then_go_stale_then_e6() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 80.0).with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        // Two fresh over-cap samples start arming the watchdog…
        med.observe_hardened(&mut sim, &over_cap_report(Some(90.0)));
        med.observe_hardened(&mut sim, &over_cap_report(Some(90.0)));
        assert!(!med.safe_mode());
        // …then the meter goes dark. The held last-good reading keeps
        // arming it through the bounded window: patience 5 is reached
        // on the third held poll.
        med.observe_hardened(&mut sim, &over_cap_report(None));
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert!(!med.safe_mode());
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert!(
            med.safe_mode(),
            "held samples bridge the dropout: a breach in progress still engages"
        );
        assert_eq!(med.hardening_stats().sensor_faults, 0, "not yet stale");
        // Past the hold window the channel counts as absent, and the
        // E6 dropout deadline fires at DROPOUT_PATIENCE (5).
        med.observe_hardened(&mut sim, &over_cap_report(None));
        med.observe_hardened(&mut sim, &over_cap_report(None));
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "sustained outage still raises E6 on schedule"
        );
    }

    #[test]
    fn estimation_reconstructs_shares_that_sum_to_the_meter() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        let stats = med.estimation_stats();
        assert_eq!(stats.estimates, 50, "one estimate per poll");
        assert_eq!(
            stats.fallback_engagements, 0,
            "a clean meter must not trip the fallback"
        );
        let eb = med.last_estimate().expect("estimation ran");
        let sum: f64 = eb.apps.values().map(|s| s.watts).sum();
        assert!(
            (sum - eb.dynamic_total_w).abs() < 1e-6,
            "shares sum to the meter-implied dynamic budget"
        );
        assert!(
            eb.residual_w.abs() < 5.0,
            "the model tracks a clean meter, residual {}",
            eb.residual_w
        );
        let violations = sim.meter().compliance().violation_fraction();
        assert!(violations < 0.01, "violation fraction {violations}");
        assert!(sim.ops_done("stream") > 0.0);
        assert!(sim.ops_done("kmeans") > 0.0);
    }

    #[test]
    fn estimation_off_keeps_the_oracle_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(2.0), DT);
        assert_eq!(med.estimation_stats(), EstimationStats::default());
        assert!(med.last_estimate().is_none());
        assert!(!med.estimation_fallback_engaged());
    }

    #[test]
    fn a_meter_dark_from_the_first_poll_is_blind_not_held() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 3,
            meter_dropout_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.run_for(&mut sim, Seconds::new(1.0), DT);
        let stats = med.estimation_stats();
        assert_eq!(stats.estimates, 10);
        assert_eq!(
            (stats.held_samples, stats.blind_samples),
            (0, 10),
            "with no good sample to hold, every poll runs on the prior sum"
        );
    }

    #[test]
    fn shared_meter_bias_engages_the_confidence_fallback() {
        use powermed_sim::faults::FaultConfig;
        let mut sim = sim_no_esd().with_fault_injection(FaultConfig {
            seed: 11,
            meter_bias_frac: 0.12,
            ..FaultConfig::default()
        });
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(10.0), DT);
        let stats = med.estimation_stats();
        assert!(stats.residual_spikes > 0, "the bias shows up as residual");
        assert_eq!(
            stats.fallback_engagements, 1,
            "sustained correlated error engages the fallback once"
        );
        assert!(med.estimation_fallback_engaged(), "bias never clears");
        assert_eq!(
            med.hardening_stats().sensor_faults,
            1,
            "each engagement fires one E6"
        );
        assert_eq!(
            sim.cap(),
            Some(Watts::new(100.0)),
            "the enforced cap is untouched; only the planning target shrinks"
        );
    }

    #[test]
    fn infeasible_cap_parks_everything() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 45.0);
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        assert_eq!(*med.schedule(), Schedule::Infeasible);
        let r = med.step(&mut sim, DT);
        assert_eq!(r.gross_power, Watts::new(50.0), "server idles");
        assert_eq!(sim.ops_done("kmeans"), 0.0);
    }

    #[test]
    fn defense_off_keeps_the_estimating_loop_untouched() {
        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_estimation(EstimatorConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(5.0), DT);
        assert_eq!(med.trust_stats(), TrustStats::default());
        assert!(med.trust_score("stream").is_none());
        assert_eq!(med.watt_debts().total_charged(), 0.0);
    }

    #[test]
    fn honest_apps_stay_trusted_under_the_defense() {
        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        let stats = med.trust_stats();
        assert_eq!(stats.quarantines, 0, "no false quarantines: {stats:?}");
        for name in ["stream", "kmeans"] {
            let t = med.trust_score(name).expect("scored every poll");
            assert!(!t.distrusted(), "{name} must stay trusted: {t:?}");
        }
    }

    #[test]
    fn knob_defiance_is_quarantined_with_e7() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        assert!(
            sim.adversary_stats().knobs_defied > 0,
            "the injector was live"
        );
        let stats = med.trust_stats();
        assert!(
            stats.quarantines >= 1,
            "defiance must reach quarantine: {stats:?}"
        );
        let t = med.trust_score("kmeans").expect("scored");
        assert!(t.quarantined(), "the unrepentant defector stays locked up");
        for honest in ["stream", "pagerank"] {
            assert!(
                med.trust_score(honest).is_none_or(|t| !t.distrusted()),
                "the honest app {honest} is untouched"
            );
        }
    }

    #[test]
    fn heartbeat_deflation_loses_trust() {
        use powermed_sim::AdversaryConfig;
        let mut sim =
            sim_no_esd().with_adversary(AdversaryConfig::heartbeat_misreport(7, &["stream"], 0.3));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.run_for(&mut sim, Seconds::new(20.0), DT);
        assert!(
            med.estimation_stats().clamp_bound_polls > 0,
            "a 0.3× claim pins the ratio clamp"
        );
        let stats = med.trust_stats();
        assert!(stats.implausible_polls > 0, "evidence accrued: {stats:?}");
        let t = med.trust_score("stream").expect("scored");
        assert!(t.score() < 1.0, "trust fell: {t:?}");
    }

    #[test]
    fn a_departed_app_leaves_no_trace_and_its_name_readmits_trusted() {
        use powermed_sim::AdversaryConfig;
        let spec = ServerSpec::xeon_e5_2620();
        let mut sim =
            sim_no_esd().with_adversary(AdversaryConfig::heartbeat_misreport(7, &["stream"], 0.3));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        med.admit(
            &mut sim,
            catalog::finite(catalog::stream(), &spec, Seconds::new(8.0)),
        )
        .unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        let mut lowest = 1.0f64;
        for _ in 0..1200 {
            med.step(&mut sim, DT);
            match med.trust_score("stream") {
                Some(t) => lowest = lowest.min(t.score()),
                None => break,
            }
        }
        assert!(
            sim.app("stream").is_none(),
            "the finite app ran to completion and departed"
        );
        assert!(lowest < 0.7, "precondition: it lost trust first ({lowest})");
        assert!(med.trust_score("stream").is_none());
        assert!(!med.is_contained("stream"));
        assert_eq!(med.watt_debts().outstanding("stream"), 0.0);
        assert!(med.measurement("stream").is_none());

        // The name is free again, and a newcomer under it starts trusted.
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.step(&mut sim, DT);
        let t = med.trust_score("stream").expect("scored on its first poll");
        assert_eq!(t.score(), 1.0, "no inherited distrust: {t:?}");
    }

    /// Steps `polls` polls and asserts, on every one, that `app` only
    /// leaves quarantine or containment through the integrity ladder's
    /// own clean-window transition (a probation) — never through a
    /// safe-mode engagement, escalation or release — and is never
    /// re-admitted to full trust.
    fn step_holding_the_ladder(
        med: &mut PowerMediator,
        sim: &mut ServerSim,
        polls: usize,
        app: &str,
    ) {
        for _ in 0..polls {
            let quarantined = med.trust_score(app).expect("scored").quarantined();
            let contained = med.is_contained(app);
            let probations = med.trust_stats().probations;
            med.step(sim, DT);
            let t = med.trust_score(app).expect("scored");
            let probation = med.trust_stats().probations > probations;
            assert!(t.distrusted(), "safe mode does not launder trust: {t:?}");
            assert!(
                !quarantined || t.quarantined() || probation,
                "only a served clean window lifts the quarantine"
            );
            assert!(
                !contained || med.is_contained(app) || probation,
                "only a served clean window ends containment"
            );
        }
    }

    #[test]
    fn safe_mode_engages_over_a_quarantine_and_neither_launders_the_other() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default())
            .with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        // The defiant app breaches the cap, so the watchdog engages
        // before any claim window can mature — engage/release churn
        // would blind the claim-based detectors forever. The release
        // path notices the recurring breach and pins the audit
        // schedule, which is where blame finally lands.
        assert!(
            med.hardening_stats().safe_mode_entries >= 2,
            "precondition: the breach kept coming back through replans"
        );
        assert!(
            med.trust_score("kmeans").expect("scored").quarantined(),
            "the post-release audit implicated the defector"
        );
        let entries_before = med.hardening_stats().safe_mode_entries;
        let exits_before = med.hardening_stats().safe_mode_exits;
        let before = med.trust_stats();

        // An external cap cut no plan can satisfy: the watchdog must
        // still engage even though the integrity ladder already holds
        // an app — the two mechanisms protect different invariants.
        // The defector keeps cycling through its own ladder (a served
        // clean window earns probation, renewed defiance relapses it)
        // while safe mode comes and goes around it.
        med.set_cap(&mut sim, Watts::new(20.0));
        step_holding_the_ladder(&mut med, &mut sim, 50, "kmeans");
        assert!(
            med.hardening_stats().safe_mode_entries > entries_before,
            "the watchdog engaged over the standing quarantine"
        );

        // Restore the cap: the breach clears, safe mode releases, and
        // the release replan re-asserts the integrity clamp.
        med.set_cap(&mut sim, Watts::new(100.0));
        step_holding_the_ladder(&mut med, &mut sim, 80, "kmeans");
        let stats = med.hardening_stats();
        assert!(
            stats.safe_mode_exits > exits_before,
            "released once the cap came back"
        );
        assert!(
            stats.safe_mode_entries >= stats.safe_mode_exits,
            "release ordering: every exit pairs with an earlier entry"
        );
        let after = med.trust_stats();
        let on_probation =
            med.trust_score("kmeans").expect("scored").tier() == crate::trust::TrustTier::Probation;
        assert_eq!(
            after.quarantines - before.quarantines + u64::from(on_probation),
            after.probations - before.probations,
            "every E7 in the round trip is a probation relapse, none a safe-mode artefact"
        );
        for honest in ["stream", "pagerank"] {
            assert!(
                med.trust_score(honest).is_none_or(|t| !t.distrusted()),
                "the honest app {honest} is untouched by the churn"
            );
        }
    }

    #[test]
    fn release_resumes_honest_apps_but_a_contained_app_stays_parked() {
        use powermed_sim::AdversaryConfig;
        let mut sim = sim_no_esd().with_adversary(AdversaryConfig::noncompliance(7, &["kmeans"]));
        let mut med = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default())
            .with_hardening(HardeningConfig::default());
        med.admit(&mut sim, catalog::stream()).unwrap();
        med.admit(&mut sim, catalog::kmeans()).unwrap();
        med.admit(&mut sim, catalog::pagerank()).unwrap();
        med.run_for(&mut sim, Seconds::new(30.0), DT);
        assert!(
            med.is_contained("kmeans"),
            "precondition: post-clamp overdraw escalated to containment: {:?}",
            med.trust_stats()
        );
        let run_state =
            |sim: &ServerSim, app: &str| sim.server().assignment(app).expect("hosted").run_state();
        assert_eq!(
            run_state(&sim, "kmeans"),
            AppRunState::Suspended,
            "containment means suspension, the one lever defiance cannot fake"
        );

        let entries_before = med.hardening_stats().safe_mode_entries;
        let exits_before = med.hardening_stats().safe_mode_exits;

        // A cap below even the idle floor forces escalation: everyone
        // is parked, honest and contained alike. Escalation does not
        // clear containment; only the ladder's clean window does.
        med.set_cap(&mut sim, Watts::new(5.0));
        step_holding_the_ladder(&mut med, &mut sim, 40, "kmeans");
        assert!(
            med.hardening_stats().safe_mode_entries > entries_before,
            "the watchdog engaged on the impossible cap"
        );

        // Release ordering: the exit replan hands settings back to the
        // honest apps (the actuator resumes them) while a contained
        // defector is planned *without* a setting and stays parked.
        med.set_cap(&mut sim, Watts::new(100.0));
        step_holding_the_ladder(&mut med, &mut sim, 60, "kmeans");
        assert!(
            med.hardening_stats().safe_mode_exits > exits_before,
            "released once the cap came back"
        );
        for honest in ["stream", "pagerank"] {
            assert_eq!(
                run_state(&sim, honest),
                AppRunState::Running,
                "the honest app {honest} is resumed on release"
            );
        }
        assert!(
            med.is_contained("kmeans"),
            "defiance that outlives the round trip is contained again"
        );
        assert_eq!(
            run_state(&sim, "kmeans"),
            AppRunState::Suspended,
            "the contained app does not ride the release back in"
        );
        let debts = med.watt_debts();
        assert!(
            debts.total_repaid() <= debts.total_charged() + 1e-9,
            "clawback never repays more than was overdrawn"
        );
    }

    fn completions() -> u64 {
        crate::calibration::COMPLETIONS.with(Cell::get)
    }

    /// The address of the surface held for `name`.
    fn surface_at(med: &PowerMediator, name: &str) -> *const AppMeasurement {
        med.measurement(name).expect("held")
    }

    /// An E4 re-measures an app; it does not change what the app needs.
    /// Both calibration paths keep the SLO it was admitted with.
    #[test]
    fn a_recalibration_keeps_the_slo() {
        let corpus = catalog::all();
        for online in [false, true] {
            let mut sim = sim_no_esd();
            let mut med = mediator(PolicyKind::AppResAware, 100.0).with_slo_awareness();
            if online {
                med = med.with_online_calibration(&corpus, 0.10);
            }
            med.admit(&mut sim, catalog::x264().with_slo(0.8)).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            for _ in 0..3 {
                assert!(med.recalibrate(&mut sim, "x264"));
                assert!(med.recalibrate(&mut sim, "kmeans"));
                assert_eq!(
                    med.measurement("x264").unwrap().slo(),
                    Some(0.8),
                    "online {online}"
                );
                assert_eq!(
                    med.measurement("kmeans").unwrap().slo(),
                    None,
                    "online {online}"
                );
            }
        }
    }

    /// Recalibrations whose probes repeat fold in once and keep the
    /// surface's `Arc`; a surface no completion produced (a tagged or a
    /// cache-sourced one) carries no record, so the next recalibration
    /// folds in again.
    #[test]
    fn recalibrations_fold_in_once_per_completion_input() {
        let corpus = catalog::all();
        let recalibrate = |med: &mut PowerMediator, sim: &mut ServerSim, name: &str, times| {
            let before = completions();
            for _ in 0..times {
                assert!(med.recalibrate(sim, name));
            }
            completions() - before
        };

        let mut sim = sim_no_esd();
        let mut med =
            mediator(PolicyKind::AppResAware, 100.0).with_online_calibration(&corpus, 0.10);
        let before = completions();
        med.admit(&mut sim, catalog::stream()).unwrap();
        assert_eq!(completions() - before, 1, "the admission folds in");
        let held = surface_at(&med, "stream");
        assert_eq!(recalibrate(&mut med, &mut sim, "stream", 5), 0, "unchanged");
        assert_eq!(surface_at(&med, "stream"), held, "the same Arc");

        med.admit(&mut sim, catalog::x264().with_slo(0.8)).unwrap();
        assert_eq!(recalibrate(&mut med, &mut sim, "x264", 1), 1, "tagged");
        assert_eq!(recalibrate(&mut med, &mut sim, "x264", 4), 0, "then kept");
        assert_eq!(med.measurement("x264").unwrap().slo(), Some(0.8));

        let mut sim = sim_no_esd();
        let mut med = mediator(PolicyKind::AppResAware, 100.0);
        med.admit(&mut sim, catalog::stream()).unwrap();
        let mut med = med.with_online_calibration(&corpus, 0.10);
        assert_eq!(
            recalibrate(&mut med, &mut sim, "stream", 1),
            1,
            "cache-sourced"
        );
        assert_eq!(recalibrate(&mut med, &mut sim, "stream", 4), 0, "then kept");
    }

    /// `med` with two apps admitted: its book holds the plan every
    /// check below starts from.
    fn planned(mut med: PowerMediator, sim: &mut ServerSim) -> PowerMediator {
        med.admit(sim, catalog::stream()).unwrap();
        med.admit(sim, catalog::kmeans()).unwrap();
        med
    }

    /// Plans computed over `times` replans at the mediator's cap.
    fn replan_at_cap(med: &mut PowerMediator, sim: &mut ServerSim, times: usize) -> usize {
        let (before, replans) = (med.plans(), med.replans());
        let cap = med.accountant().cap();
        for _ in 0..times {
            med.set_cap(sim, cap);
        }
        assert_eq!(med.replans() - replans, times, "every replan is counted");
        med.plans() - before
    }

    /// Replans with unchanged inputs plan once; a change to any input
    /// (the target, the ESD, a surface's content, the set of planned
    /// apps, the policy's configuration) plans again, unless the book
    /// already holds a plan for the new inputs.
    #[test]
    fn replans_plan_once_per_plan_input() {
        let mut sim = sim_no_esd();
        let mut med = planned(mediator(PolicyKind::AppResAware, 100.0), &mut sim);
        assert_eq!(replan_at_cap(&mut med, &mut sim, 5), 0, "unchanged");

        let before = med.plans();
        med.set_cap(&mut sim, Watts::new(95.0));
        assert_eq!(med.plans() - before, 1, "a cap change");
        assert_eq!(replan_at_cap(&mut med, &mut sim, 3), 0, "then kept");

        let c = med.measurements.get_mut("kmeans").unwrap();
        *c = Calibrated::unrecorded(Arc::new(c.surface.as_ref().clone()));
        assert_eq!(
            replan_at_cap(&mut med, &mut sim, 3),
            0,
            "a new Arc, equal content"
        );
        let mut med = med.with_cycle_period(Seconds::new(5.0));
        assert_eq!(
            replan_at_cap(&mut med, &mut sim, 3),
            1,
            "a new cycle period"
        );
        let mut med = med.with_slo_awareness();
        assert_eq!(
            replan_at_cap(&mut med, &mut sim, 3),
            0,
            "an SLO planner, but no SLO to plan"
        );

        let mut sim = sim_with_battery();
        let mut med = planned(mediator(PolicyKind::AppResEsdAware, 80.0), &mut sim);
        assert_eq!(replan_at_cap(&mut med, &mut sim, 3), 0, "unchanged");
        med.esd_quarantined = true;
        assert_eq!(
            replan_at_cap(&mut med, &mut sim, 3),
            1,
            "the ESD quarantined"
        );

        let mut sim = sim_no_esd();
        let defended = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        let mut med = planned(defended, &mut sim);
        assert_eq!(replan_at_cap(&mut med, &mut sim, 3), 0, "unchanged");
        quarantine(&mut med, "kmeans");
        assert_eq!(replan_at_cap(&mut med, &mut sim, 3), 1, "a clamped app");
        first_sight(&mut med.defense.as_mut().unwrap().apps, "kmeans").contained = true;
        assert_eq!(
            replan_at_cap(&mut med, &mut sim, 3),
            0,
            "a contained app: stream alone at the cap, booked at its admission"
        );
    }

    /// Walks `name` down the trust ladder until it is quarantined.
    fn quarantine(med: &mut PowerMediator, name: &str) {
        let d = med.defense.as_mut().unwrap();
        let trust = first_sight(&mut d.apps, name)
            .trust
            .get_or_insert_with(TrustScore::default);
        while !trust.quarantined() {
            trust.note_evidence(Evidence::Strong);
        }
    }

    /// `m` with its first performance value mapped through `bend`.
    fn bent(m: &AppMeasurement, bend: impl Fn(f64) -> f64) -> Arc<AppMeasurement> {
        let len = m.grid().len();
        let perf = (0..len)
            .map(|i| if i == 0 { bend(m.perf(i)) } else { m.perf(i) })
            .collect();
        let power = (0..len).map(|i| m.power(i)).collect();
        Arc::new(AppMeasurement::from_vectors(
            m.name(),
            m.grid().clone(),
            power,
            perf,
            m.min_cores(),
        ))
    }

    /// Mediators sharing a book plan each input once: the second
    /// mediator on the same mix and cap plans nothing and installs the
    /// first one's schedule. A different cycle period or policy kind,
    /// one target bit, a quarantined ESD or a surface one bit apart plans
    /// again. SLO plans are booked on a shelf of their own. (A mediator
    /// plans its apps in name order; the order is keyed all the same,
    /// see below.)
    #[test]
    fn mediators_sharing_a_book_plan_each_input_once() {
        let book = PlanBook::default();
        let booked = |med: PowerMediator| med.with_plan_book(book.clone());
        let schedule = |med: &PowerMediator| Arc::clone(med.last_plan.as_ref().unwrap());
        let mut sim = sim_no_esd();
        let first = planned(booked(mediator(PolicyKind::AppResAware, 100.0)), &mut sim);
        assert_eq!(first.plans(), 2, "stream alone, then with kmeans");
        assert_eq!(book.plans(), 2);
        let mut sim = sim_no_esd();
        let mut second = planned(booked(mediator(PolicyKind::AppResAware, 100.0)), &mut sim);
        assert_eq!(second.plans(), 0, "every input is booked");
        assert!(Arc::ptr_eq(&schedule(&first), &schedule(&second)));

        // The book keys a surface by its content, not its `Arc`.
        let kmeans = Arc::clone(&second.measurements["kmeans"].surface);
        let mut install = |med: &mut PowerMediator, surface: Arc<AppMeasurement>| {
            med.measurements
                .insert("kmeans".to_string(), Calibrated::unrecorded(surface));
            replan_at_cap(med, &mut sim, 3)
        };
        let copy = Arc::new(kmeans.as_ref().clone());
        assert_eq!(install(&mut second, copy), 0, "a new Arc, equal content");
        let flipped = bent(&kmeans, |p| f64::from_bits(p.to_bits() ^ 1));
        assert_eq!(install(&mut second, flipped), 1, "one perf bit");
        let zero = bent(&kmeans, |_| 0.0);
        let negative_zero = bent(&kmeans, |_| -0.0);
        assert_eq!(*zero, *negative_zero, "== cannot tell them apart");
        assert_eq!(install(&mut second, zero), 1, "a zero perf");
        assert_eq!(install(&mut second, negative_zero), 1, "its sign flipped");
        assert_eq!(install(&mut second, bent(&kmeans, |_| 0.0)), 0, "booked");
        assert_eq!(install(&mut second, kmeans), 0, "booked");

        let target = Watts::new(f64::from_bits(100f64.to_bits() + 1));
        let before = second.plans();
        second.set_cap(&mut sim, target);
        assert_eq!(second.plans() - before, 1, "one target bit");

        let plans = |med: PowerMediator| {
            let mut sim = sim_no_esd();
            planned(booked(med), &mut sim).plans()
        };
        let period = mediator(PolicyKind::AppResAware, 100.0).with_cycle_period(Seconds::new(5.0));
        assert_eq!(plans(period), 2, "a new cycle period");
        assert_eq!(
            plans(mediator(PolicyKind::AppAware, 100.0)),
            2,
            "a new kind"
        );

        let mut sim = sim_with_battery();
        let esd = planned(booked(mediator(PolicyKind::AppResEsdAware, 80.0)), &mut sim);
        assert_eq!(esd.plans(), 2);
        let mut sim = sim_with_battery();
        let mut esd = planned(booked(mediator(PolicyKind::AppResEsdAware, 80.0)), &mut sim);
        assert_eq!(esd.plans(), 0, "booked");
        esd.esd_quarantined = true;
        assert_eq!(
            replan_at_cap(&mut esd, &mut sim, 3),
            1,
            "the ESD quarantined"
        );

        let booked_before = book.plans();
        let slo_plans = |med: PowerMediator| {
            let mut sim = sim_no_esd();
            let mut med = booked(med);
            med.admit(&mut sim, catalog::x264().with_slo(0.8)).unwrap();
            med.admit(&mut sim, catalog::kmeans()).unwrap();
            med.plans()
        };
        let slo_aware = || mediator(PolicyKind::AppResAware, 100.0).with_slo_awareness();
        assert_eq!(slo_plans(slo_aware()), 2);
        assert_eq!(slo_plans(slo_aware()), 0, "SLO plans are booked");
        assert_eq!(book.plans(), booked_before + 2);
        assert_eq!(
            slo_plans(mediator(PolicyKind::AppResAware, 100.0)),
            2,
            "the policy's plans of the same inputs are shelved apart"
        );
    }

    /// `apps` (name and surface, in order) at `target` watts beside
    /// `esd`, as a replan streams them.
    fn inputs<'a>(
        apps: &[(&'a str, &Arc<AppMeasurement>)],
        target: f64,
        esd: Option<EsdParams>,
    ) -> PlanInputs<std::vec::IntoIter<(&'a str, u64)>> {
        PlanInputs {
            apps: (apps.iter())
                .map(|&(n, m)| (n, m.fingerprint()))
                .collect::<Vec<_>>()
                .into_iter(),
            target: target.to_bits(),
            esd: esd_bits(esd),
        }
    }

    /// The book matches the planned apps in order, by name and
    /// fingerprint, the target and ESD parameters by their bits, and
    /// the policy, or the SLO planner beside it, by its configuration.
    #[test]
    fn the_plan_book_keys_order_fingerprints_bits_and_policy() {
        let spec = ServerSpec::xeon_e5_2620();
        let a = MeasurementCache::global().measure(&spec, &catalog::stream());
        let b = MeasurementCache::global().measure(&spec, &catalog::kmeans());
        let esd = EsdParams {
            efficiency: Ratio::new(0.8),
            max_discharge: Watts::new(30.0),
            max_charge: Watts::new(0.0),
        };
        let policy = PowerPolicy::new(PolicyKind::AppResAware, spec.clone());
        let book = PlanBook::default();
        let ab = [("stream", &a), ("kmeans", &b)];
        let schedule = || Arc::new(Schedule::Infeasible);
        book.insert(&policy, None, &inputs(&ab, 100.0, Some(esd)), schedule());
        let found_with = |policy: &PowerPolicy, slo: Option<&SloPlanner>, inputs| {
            book.get(policy, slo, &inputs).is_some()
        };
        let found = |inputs| found_with(&policy, None, inputs);
        assert!(found(inputs(&ab, 100.0, Some(esd))));
        let copy = Arc::new(b.as_ref().clone());
        let with_copy = [("stream", &a), ("kmeans", &copy)];
        assert!(found(inputs(&with_copy, 100.0, Some(esd))));
        let swapped = [("kmeans", &b), ("stream", &a)];
        assert!(!found(inputs(&swapped, 100.0, Some(esd))));
        assert!(!found(inputs(&ab[..1], 100.0, Some(esd))));
        let renamed = [("stream", &a), ("kmeans2", &b)];
        assert!(!found(inputs(&renamed, 100.0, Some(esd))));
        let other_surface = [("stream", &a), ("kmeans", &a)];
        assert!(!found(inputs(&other_surface, 100.0, Some(esd))));
        let longer = [("stream", &a), ("kmeans", &b), ("kmeans", &b)];
        assert!(!found(inputs(&longer, 100.0, Some(esd))));
        assert!(!found(inputs(&ab, 99.0, Some(esd))));
        assert!(!found(inputs(&ab, 100.0, None)));
        let negative_zero = EsdParams {
            max_charge: Watts::new(-0.0),
            ..esd
        };
        assert_eq!(negative_zero, esd, "== cannot tell them apart");
        assert!(!found(inputs(&ab, 100.0, Some(negative_zero))));

        let hit = || inputs(&ab, 100.0, Some(esd));
        let same = PowerPolicy::new(PolicyKind::AppResAware, spec.clone());
        assert!(found_with(&same, None, hit()));
        let other_spec = spec.clone().with_idle_power(Watts::new(49.0));
        for other in [
            PowerPolicy::new(PolicyKind::AppResEsdAware, spec.clone()),
            policy.clone().with_cycle_period(Seconds::new(10.5)),
            PowerPolicy::new(PolicyKind::AppResAware, other_spec.clone()),
        ] {
            assert!(!found_with(&other, None, hit()), "{other:?}");
        }

        // The SLO planner's plans sit on shelves of their own.
        let slo = SloPlanner::new(spec.clone());
        assert!(!found_with(&policy, Some(&slo), hit()));
        book.insert(&policy, Some(&slo), &hit(), schedule());
        let fresh = SloPlanner::new(spec);
        assert!(found_with(&policy, Some(&fresh), hit()));
        let other_slo = SloPlanner::new(other_spec);
        assert!(!found_with(&policy, Some(&other_slo), hit()));
        assert_eq!(book.plans(), 2);
    }

    /// Past its size floor, the book drops the plans no mediator holds
    /// before it grows, and keeps the held ones.
    #[test]
    fn a_full_plan_book_drops_the_plans_no_mediator_holds() {
        let spec = ServerSpec::xeon_e5_2620();
        let policy = PowerPolicy::new(PolicyKind::AppResAware, spec.clone());
        let stream = MeasurementCache::global().measure(&spec, &catalog::stream());
        let book = PlanBook::default();
        let key = |target: u64| inputs(&[("stream", &stream)], f64::from_bits(target), None);
        let insert = |target, schedule| book.insert(&policy, None, &key(target), schedule);
        let held = Arc::new(Schedule::Infeasible);
        insert(0, Arc::clone(&held));
        // One handle: the floor is two plans, so the table drops the
        // unheld plans at its first growth.
        for target in 1..100 {
            insert(target, Arc::new(Schedule::Infeasible));
        }
        let found = |target| book.get(&policy, None, &key(target)).is_some();
        assert!(found(0), "a held plan stays");
        assert!(!found(1), "an unheld one goes");
        assert!(book.plans() < 99);

        // A hundred handles keep all of their first 200 plans.
        let handles: Vec<PlanBook> = (0..99).map(|_| book.clone()).collect();
        let before = book.plans();
        for target in 100..200 {
            insert(target, Arc::new(Schedule::Infeasible));
        }
        assert_eq!(book.plans(), before + 100);
        drop(handles);
    }

    /// A quarantine clamp installs a merged copy of the honest plan, so
    /// only the mediator's hold on its last plan keeps that plan booked:
    /// however many plans other mediators book meanwhile, a clamped
    /// mediator re-planning at the cap in force plans once.
    #[test]
    fn a_clamped_mediator_keeps_its_booked_plan() {
        let book = PlanBook::default();
        let mut sim = sim_no_esd();
        let defended = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default())
            .with_plan_book(book.clone());
        let mut clamped = planned(defended, &mut sim);
        quarantine(&mut clamped, "kmeans");
        assert_eq!(replan_at_cap(&mut clamped, &mut sim, 1), 1, "the clamp");
        assert!(!Arc::ptr_eq(
            &clamped.act.schedule,
            clamped.last_plan.as_ref().unwrap()
        ));

        let mut other_sim = sim_no_esd();
        let mut other = planned(
            mediator(PolicyKind::AppResAware, 100.0).with_plan_book(book.clone()),
            &mut other_sim,
        );
        for step in 0..200 {
            other.set_cap(&mut other_sim, Watts::new(60.0 + 0.25 * f64::from(step)));
        }
        assert!(book.plans() < 200, "the book dropped unheld plans");
        assert_eq!(replan_at_cap(&mut clamped, &mut sim, 5), 0, "still booked");
    }

    /// A clamped replan reinstalls the merged schedule it holds only
    /// while the booked plan and the clamps repeat: every installed
    /// schedule is the merge of the last plan and the last clamps.
    #[test]
    fn a_held_merged_schedule_follows_its_plan_and_clamps() {
        let mut sim = sim_no_esd();
        let defended = mediator(PolicyKind::AppResAware, 100.0)
            .with_estimation(EstimatorConfig::default())
            .with_integrity_defense(TrustConfig::default());
        let mut med = planned(defended, &mut sim);
        quarantine(&mut med, "kmeans");
        let fresh_merge = |med: &PowerMediator, sim: &ServerSim| {
            let d = med.defense.as_ref().unwrap();
            let clamps: Vec<(String, usize)> = d
                .clamps
                .iter()
                .map(|&(pos, idx, _)| (sim.app_names()[pos].clone(), idx))
                .collect();
            let honest = Schedule::clone(med.last_plan.as_ref().unwrap());
            PowerMediator::merge_quarantined(honest, &clamps)
        };
        replan_at_cap(&mut med, &mut sim, 1);
        assert_eq!(*med.act.schedule, fresh_merge(&med, &sim));
        let merged = Arc::clone(&med.act.schedule);
        replan_at_cap(&mut med, &mut sim, 3);
        assert!(
            Arc::ptr_eq(&med.act.schedule, &merged),
            "held and reinstalled"
        );

        // A held merge of other clamps onto the same plan is not reused.
        let held = med.defense.as_mut().unwrap().merged.as_mut().unwrap();
        held.clamps[0].1 += 1;
        held.schedule = Arc::new(Schedule::Infeasible);
        replan_at_cap(&mut med, &mut sim, 1);
        assert_eq!(*med.act.schedule, *merged);
        let merged = Arc::clone(&med.act.schedule);

        // A debt docks the clamp's budget: the clamp changes, the plan
        // does not, and the merge is made again.
        let before = med.defense.as_ref().unwrap().clamps.clone();
        let d = med.defense.as_mut().unwrap();
        d.debts.charge("kmeans", 1_000.0);
        replan_at_cap(&mut med, &mut sim, 1);
        assert_ne!(
            med.defense.as_ref().unwrap().clamps,
            before,
            "the clamp moved"
        );
        assert!(!Arc::ptr_eq(&med.act.schedule, &merged));
        assert_eq!(*med.act.schedule, fresh_merge(&med, &sim));
        assert_ne!(*med.act.schedule, *merged);
    }

    /// Debug builds re-plan every booked schedule and compare.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a booked schedule differs from a fresh plan")]
    fn a_stale_booked_plan_is_caught() {
        let book = PlanBook::default();
        let mut sim = sim_no_esd();
        planned(
            mediator(PolicyKind::AppResAware, 100.0).with_plan_book(book.clone()),
            &mut sim,
        );
        for shelf in book.shelves().iter_mut() {
            for (_, schedule) in shelf.plans.iter_mut() {
                *schedule = Arc::new(Schedule::Infeasible);
            }
        }
        let mut sim = sim_no_esd();
        planned(
            mediator(PolicyKind::AppResAware, 100.0).with_plan_book(book),
            &mut sim,
        );
    }
}
