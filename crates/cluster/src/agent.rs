//! The per-server agent of the cluster control plane.
//!
//! Each server runs one [`ServerAgent`]: the server simulation plus its
//! [`PowerMediator`], driven by cap-assignment downlinks from the
//! cluster manager. The agent is the *enforcement* end of the control
//! plane, so it is also where partition safety lives: a resilient agent
//! that stops hearing from the manager falls back to a conservative
//! local cap — the last acknowledged share, decaying toward the idle
//! floor — so the cluster stays under budget even when the agent is cut
//! off. A naive agent simply applies whatever arrives, in arrival
//! order, and keeps its stale cap forever when partitioned.
//!
//! Node churn is modelled by [`ServerAgent::crash`] /
//! [`ServerAgent::restart`]: a restart rebuilds the whole per-server
//! stack through the same boot path the first incarnation took
//! (applications restart from scratch, the ESD resets to its boot state
//! of charge), while completed work survives in an accumulator so
//! normalized-throughput scoring spans incarnations.

use std::collections::BTreeMap;

use powermed_core::runtime::{PlanBook, PowerMediator};
use powermed_disagg::EstimatorConfig;
use powermed_profiles::{ProbeSplit, ProfileDigest, ProfileStore};
use powermed_server::ServerSpec;
use powermed_sim::engine::{ServerSim, StepReport};
use powermed_telemetry::journal::{JournalDigest, Obs, ObsEvent};
use powermed_telemetry::ProfileStoreStats;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::Mix;

use crate::control::{
    ControlOptions, Downlink, ManagedPolicy, WarmStartOptions, HEARTBEAT_INTERVAL_STEPS,
};
use crate::fleet::{self, WarmBoot};
use crate::manager::ClusterManager;

/// Missed heartbeats before a resilient agent engages its fallback cap.
/// This waits out a manager failover (crash detection plus standby
/// takeover spans ~10-15 s), so a brief control-plane outage does not
/// decay the whole fleet to the floor, while a genuinely partitioned
/// node still decays to the floor well before the manager redistributes
/// its share at [`crate::control::REAPPORTION_AFTER_STEPS`].
pub const FALLBACK_AFTER_MISSES: u64 = 6;

/// Watts removed from the fallback cap per elapsed heartbeat interval
/// while the silence lasts.
pub const FALLBACK_DECAY: Watts = Watts::new(10.0);

/// What every incarnation of one server is built from: the node's
/// identity and the optional layers its mediator carries.
#[derive(Debug)]
struct Boot {
    spec: ServerSpec,
    mix: Mix,
    /// Per-server mediation policy and battery.
    policy: ManagedPolicy,
    /// Fleet-wide provenance id stamped on profiles this server measures.
    server_id: u64,
    /// Online calibration + knowledge-plane configuration, if enabled.
    warm: Option<WarmStartOptions>,
    /// Non-intrusive estimation configuration (`None`: the oracle fleet).
    estimation: Option<EstimatorConfig>,
    /// The journal every incarnation records into (`None`: zero-cost).
    obs: Option<Obs>,
    /// The fleet's shared plans, which every incarnation plans through.
    book: PlanBook,
}

impl Boot {
    /// Builds one incarnation capped at `cap`: the server stack with the
    /// mix admitted, a warm-start store copied from `snapshot` (fresh
    /// without one), then the journal and estimation wired onto it.
    fn incarnate(&self, cap: Watts, snapshot: Option<&ProfileStore>) -> (ServerSim, PowerMediator) {
        let warm = self.warm.as_ref().map(|w| WarmBoot {
            store: w.store.map(|config| match snapshot {
                Some(store) => store.clone(),
                None => ProfileStore::new(config),
            }),
            server_id: self.server_id,
            sampling_fraction: w.sampling_fraction,
        });
        let p = self.policy;
        let (mut sim, mut mediator) = fleet::build_booked(
            &self.spec,
            &self.mix,
            p.kind,
            p.with_battery,
            cap,
            warm,
            Some(&self.book),
        );
        if let Some(obs) = &self.obs {
            mediator.set_observability(obs.clone());
            sim.set_observability(obs.clone());
        }
        if let Some(config) = self.estimation {
            mediator.set_estimation(config);
        }
        (sim, mediator)
    }
}

/// One server's agent: simulation, mediator, and fallback state.
#[derive(Debug)]
pub struct ServerAgent {
    boot: Boot,
    resilient: bool,
    sim: ServerSim,
    mediator: PowerMediator,
    /// The cap currently in force on this server.
    current_cap: Watts,
    /// Highest assignment epoch applied (resilient agents discard
    /// reordered stale assignments below it).
    last_epoch: u64,
    /// Control steps since any downlink arrived.
    steps_since_downlink: u64,
    /// Set while the agent runs on a self-chosen cap (fallback, or a
    /// fresh restart booted at the floor): the next downlink is applied
    /// even if its epoch is not newer.
    needs_cap: bool,
    fallback_engaged: bool,
    /// While the facility breaker's emergency clamp is in force, the cap
    /// to restore on release. Downlinks received during the hold update
    /// the restore target instead of the mediator.
    clamped: Option<Watts>,
    /// Operations completed by previous incarnations, per app.
    ops_before: BTreeMap<String, f64>,
    heartbeat_misses: u64,
    fallback_engagements: u64,
    /// Crash-durable store image ([`ProfileStore::rebooted`]): taken on
    /// [`ServerAgent::crash`], copied by [`ServerAgent::restart`] (local
    /// disk survives a reboot even though the applications and ESD
    /// state do not).
    store_snapshot: Option<ProfileStore>,
    /// Probe accounting banked from previous incarnations.
    probes_before: ProbeSplit,
    /// Store counters banked from previous incarnations.
    store_stats_before: ProfileStoreStats,
    /// Fleet flight recorder: first journal seq the manager has *not*
    /// acked yet — where the next shipped digest starts. Persisted
    /// across crash/restart like the ring itself (local disk).
    journal_acked: u64,
    /// Epoch of the downlink the ack watermark was adopted from. After
    /// a manager failover a fresh-epoch downlink may legitimately carry
    /// a *lower* watermark (the standby lost unacked merges); adopting
    /// it re-ships records the idempotent fleet merge dedups, while a
    /// stale reordered downlink at an old epoch cannot regress the ack.
    ack_epoch: u64,
    /// Local journal clock: advances with every step, resynced to fleet
    /// time when the node restarts.
    now: Seconds,
}

impl ServerAgent {
    /// Boots server `server_id` hosting `mix` under `policy`'s mediation
    /// at `initial_cap`. `options` picks the flavor and the warm-start
    /// and estimation layers; `obs` is the journal every incarnation
    /// records into, and `book` the plans it shares with the rest of
    /// the fleet.
    #[allow(clippy::too_many_arguments)]
    pub fn new_with(
        spec: &ServerSpec,
        mix: &Mix,
        policy: ManagedPolicy,
        options: &ControlOptions,
        initial_cap: Watts,
        server_id: u64,
        obs: Option<Obs>,
        book: &PlanBook,
    ) -> Self {
        let boot = Boot {
            spec: spec.clone(),
            mix: mix.clone(),
            policy,
            server_id,
            warm: options.warm_start.clone(),
            estimation: options.estimation,
            obs,
            book: book.clone(),
        };
        let (sim, mediator) = boot.incarnate(initial_cap, None);
        Self {
            boot,
            resilient: options.resilient,
            sim,
            mediator,
            current_cap: initial_cap,
            last_epoch: 0,
            steps_since_downlink: 0,
            needs_cap: false,
            fallback_engaged: false,
            clamped: None,
            ops_before: BTreeMap::new(),
            heartbeat_misses: 0,
            fallback_engagements: 0,
            store_snapshot: None,
            probes_before: ProbeSplit::default(),
            store_stats_before: ProfileStoreStats::default(),
            journal_acked: 0,
            ack_epoch: 0,
            now: Seconds::ZERO,
        }
    }

    /// The parked floor this server boots at and falls back toward.
    fn floor(&self) -> Watts {
        ClusterManager::cap_floor_for(&self.boot.spec)
    }

    /// Estimated per-app dynamic shares from the latest poll, in watts
    /// (empty until the first estimate, or when estimation is off) —
    /// the uplink payload a real deployment can report without per-app
    /// power meters.
    pub fn estimated_shares(&self) -> Vec<(String, f64)> {
        self.mediator
            .last_estimate()
            .map(|eb| {
                eb.apps
                    .iter()
                    .map(|(name, share)| (name.clone(), share.watts))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The cap currently enforced on this server.
    pub fn current_cap(&self) -> Watts {
        self.current_cap
    }

    /// Whether the conservative local fallback cap is in force.
    pub fn fallback_engaged(&self) -> bool {
        self.fallback_engaged
    }

    /// Heartbeat intervals that elapsed with no downlink at all.
    pub fn heartbeat_misses(&self) -> u64 {
        self.heartbeat_misses
    }

    /// Times the fallback cap engaged.
    pub fn fallback_engagements(&self) -> u64 {
        self.fallback_engagements
    }

    /// Plans computed by this incarnation's mediator (re-planning on
    /// every duplicate downlink is the naive agent's hidden cost).
    pub fn replans(&self) -> usize {
        self.mediator.replans()
    }

    /// Handles the downlinks delivered this step.
    ///
    /// Resilient: any delivery resets the silence counter; the
    /// highest-epoch message is applied when its epoch is newer than the
    /// last applied one (or not older, while the agent runs on a
    /// self-chosen fallback/boot cap), so dropped assignments are
    /// repaired by the next heartbeat and reordered stale assignments
    /// are discarded. A repair downlink whose cap the agent already
    /// enforces is acknowledged without touching the mediator: re-sent
    /// state carries nothing to fix, and a re-plan is not free. Naive:
    /// every message is applied in arrival order — reordering regresses
    /// the cap, duplicates re-actuate, and nothing repairs a drop.
    pub fn receive(&mut self, msgs: &[Downlink]) {
        if msgs.is_empty() {
            return;
        }
        // Knowledge-plane payloads merge unconditionally — digests form
        // a semilattice, so even a stale or reordered downlink can only
        // add knowledge, never regress it.
        for m in msgs {
            if !m.profiles.is_empty() {
                self.mediator.absorb_digests(&m.profiles);
            }
        }
        if let Some(freshest) = msgs.iter().map(|m| m.epoch).max() {
            self.mediator.set_store_epoch(freshest);
            // Journal records from here on carry the adopted epoch, so
            // `doctor` can correlate decisions with assignment waves.
            if let Some(obs) = self.boot.obs.as_ref() {
                obs.set_epoch(freshest);
            }
        }
        // Adopt the freshest ack watermark (lexicographic on
        // (epoch, ack)): a newer epoch always wins even with a lower
        // watermark — that is a failed-over manager asking for a
        // harmless re-ship — while within an epoch the watermark only
        // advances.
        if let Some(ack) = msgs.iter().map(|m| (m.epoch, m.journal_acked)).max() {
            if ack > (self.ack_epoch, self.journal_acked) {
                (self.ack_epoch, self.journal_acked) = ack;
            }
        }
        if !self.resilient {
            for m in msgs {
                self.assign(m.cap);
            }
            return;
        }
        self.steps_since_downlink = 0;
        let best = msgs.iter().max_by_key(|m| m.epoch).expect("non-empty");
        let fresh =
            best.epoch > self.last_epoch || (self.needs_cap && best.epoch >= self.last_epoch);
        if fresh {
            if self.fallback_engaged {
                // The chain-closing record for `doctor --explain
                // fallback-cap`: the manager is heard again and hands
                // the assigned share back.
                let cap_w = best.cap.value();
                self.emit(ObsEvent::FallbackRelease { cap_w });
            }
            self.last_epoch = best.epoch;
            self.needs_cap = false;
            self.fallback_engaged = false;
            let same = (best.cap - self.current_cap).abs() <= Watts::new(1e-6);
            if self.clamped.is_none() && best.repair && same {
                // An equal-value repair has nothing to fix even when the
                // agent flagged itself: an engaged-but-undecayed fallback
                // or a boot share that matches the floor left the
                // mediator exactly where the assignment puts it.
                self.current_cap = best.cap;
            } else {
                self.assign(best.cap);
            }
        }
    }

    /// The facility breaker tripped: slam this server to `floor` until
    /// [`ServerAgent::emergency_release`], remembering the current cap
    /// as the restore target. Idempotent while the clamp is in force.
    pub fn emergency_clamp(&mut self, floor: Watts) {
        if self.clamped.is_none() {
            let restore = self.current_cap;
            self.apply(floor);
            self.clamped = Some(restore);
        }
    }

    /// The breaker's cooldown expired: restore the pre-trip cap (or the
    /// latest assignment that arrived during the hold). A resilient
    /// agent also flags itself so the next heartbeat corrects any
    /// staleness the hold concealed.
    pub fn emergency_release(&mut self) {
        if let Some(restore) = self.clamped.take() {
            if (restore - self.current_cap).abs() > Watts::new(1e-6) {
                self.apply(restore);
            } else {
                self.current_cap = restore;
            }
            self.needs_cap |= self.resilient;
        }
    }

    /// Takes on an assigned `cap`. The breaker outranks the manager for
    /// the duration of a hold: the assignment becomes the restore target
    /// and the clamp stays enforced.
    fn assign(&mut self, cap: Watts) {
        match &mut self.clamped {
            Some(target) => *target = cap,
            None => self.apply(cap),
        }
    }

    fn apply(&mut self, cap: Watts) {
        self.current_cap = cap;
        self.mediator.set_cap(&mut self.sim, cap);
    }

    /// Runs one control step, first advancing the fallback bookkeeping
    /// (resilient only). Returns the simulation step report; the caller
    /// accounts energy from its `net_power`.
    pub fn step(&mut self, dt: Seconds) -> StepReport {
        if self.resilient {
            self.watch_heartbeats();
        }
        let report = self.mediator.step(&mut self.sim, dt);
        self.now += dt;
        report
    }

    /// One step of downlink silence. A heartbeat is overdue once a full
    /// interval elapsed beyond the expected delivery step (the first
    /// interval is grace: in-flight delays are not misses). At
    /// [`FALLBACK_AFTER_MISSES`] misses the fallback engages on the last
    /// acked share; each later miss decays it toward the floor.
    fn watch_heartbeats(&mut self) {
        self.steps_since_downlink += 1;
        let silence = self.steps_since_downlink;
        if !silence.is_multiple_of(HEARTBEAT_INTERVAL_STEPS)
            || silence < 2 * HEARTBEAT_INTERVAL_STEPS
        {
            return;
        }
        self.heartbeat_misses += 1;
        let misses = silence / HEARTBEAT_INTERVAL_STEPS - 1;
        self.emit(ObsEvent::HeartbeatMissed { misses });
        if misses < FALLBACK_AFTER_MISSES {
            return;
        }
        if !self.fallback_engaged {
            self.fallback_engaged = true;
            self.needs_cap = true;
            self.fallback_engagements += 1;
            let cap_w = self.current_cap.value();
            self.emit(ObsEvent::FallbackEngage { cap_w });
            return;
        }
        let next = Watts::new(
            (self.current_cap - FALLBACK_DECAY)
                .value()
                .max(self.floor().value()),
        );
        if (self.current_cap - next).abs() > Watts::new(1e-6) {
            self.apply(next);
            self.emit(ObsEvent::FallbackDecay {
                cap_w: next.value(),
            });
        }
    }

    /// Journals `event` at the local clock (nothing without a journal).
    fn emit(&self, event: ObsEvent) {
        if let Some(obs) = &self.boot.obs {
            obs.emit(self.now, event);
        }
    }

    /// The node crashed: bank the work and probe accounting completed so
    /// far and keep the knowledge-plane store as the next incarnation
    /// boots it, with its counters banked and zeroed (local disk
    /// survives a reboot). The stale simulation stays in place until
    /// [`ServerAgent::restart`] rebuilds it; the run loop must not step
    /// a crashed agent.
    pub fn crash(&mut self) {
        for app in self.boot.mix.apps() {
            *self.ops_before.entry(app.name().to_string()).or_default() +=
                self.sim.ops_done(app.name());
        }
        self.probes_before = self.probes_before.merged(&self.mediator.probe_split());
        self.store_stats_before = self.store_stats_before.merged(&self.mediator.store_stats());
        if let Some(store) = self.mediator.profile_store() {
            self.store_snapshot = Some(store.rebooted());
        }
    }

    /// The node restarts at fleet time `now`: applications restart from
    /// scratch and the ESD resets to its boot state of charge. A resilient
    /// node boots at the conservative idle floor and waits for the next
    /// heartbeat to learn its share; a naive node re-applies its stale
    /// persisted cap. A warm-start node restores its store snapshot, so
    /// the re-admission consults everything the previous incarnation
    /// knew. The journal clock resumes at `now` (the ring survived on
    /// local disk; the downtime is simply a gap in its records).
    pub fn restart(&mut self, now: Seconds) {
        let boot_cap = if self.resilient {
            self.floor()
        } else {
            self.current_cap
        };
        (self.sim, self.mediator) = self.boot.incarnate(boot_cap, self.store_snapshot.as_ref());
        self.now = now;
        self.current_cap = boot_cap;
        self.steps_since_downlink = 0;
        self.needs_cap = self.resilient;
        self.fallback_engaged = false;
        self.clamped = None;
    }

    /// The mediator of the current incarnation.
    #[cfg(test)]
    pub(crate) fn mediator(&self) -> &PowerMediator {
        &self.mediator
    }

    /// The plans this server shares with the rest of its fleet.
    #[cfg(test)]
    pub(crate) fn plan_book(&self) -> &PlanBook {
        &self.boot.book
    }

    /// Each app's throughput over `seconds` of run time normalized to
    /// its uncapped solo rate, in mix order, across all incarnations.
    pub(crate) fn normalized_perf(&self, seconds: f64) -> Vec<f64> {
        let rates = fleet::nocap_rates(&self.boot.spec, &self.boot.mix);
        rates
            .iter()
            .map(|(name, rate)| {
                let denom = rate * seconds;
                if denom > 0.0 {
                    self.total_ops(name) / denom
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Operations completed by `app` across all incarnations.
    pub fn total_ops(&self, app: &str) -> f64 {
        self.ops_before.get(app).copied().unwrap_or(0.0) + self.sim.ops_done(app)
    }

    /// Drains the profile digests published since the last drain (the
    /// uplink's knowledge-plane payload).
    pub fn take_profile_digests(&mut self) -> Vec<ProfileDigest> {
        self.mediator.take_store_outbox()
    }

    /// Probe accounting across all incarnations.
    pub fn probe_split(&self) -> ProbeSplit {
        self.probes_before.merged(&self.mediator.probe_split())
    }

    /// Store event counters across all incarnations.
    pub fn store_stats(&self) -> ProfileStoreStats {
        self.store_stats_before.merged(&self.mediator.store_stats())
    }

    /// The current incarnation's store contents (empty without a store).
    pub fn store_digests(&self) -> Vec<ProfileDigest> {
        self.mediator
            .profile_store()
            .map(ProfileStore::digests)
            .unwrap_or_default()
    }

    /// The journal delta since the manager's last ack, size-capped to
    /// `max_bytes` — the uplink's flight-recorder payload. `None`
    /// without a journal. Non-draining: the watermark only advances
    /// when an ack rides back on a downlink, so unacked records are
    /// re-shipped every wave (the fleet merge dedups them).
    pub fn ship_journal(&self, max_bytes: usize) -> Option<JournalDigest> {
        self.boot
            .obs
            .as_ref()
            .map(|obs| obs.digest_since(self.boot.server_id, self.journal_acked, max_bytes))
            .filter(|d| !d.is_empty())
    }

    /// First journal seq the manager has not acked yet.
    pub fn journal_acked(&self) -> u64 {
        self.journal_acked
    }

    /// Forces E4 drift on the server's first app: its profile is
    /// tombstoned fleet-wide and re-measured. Returns `false` when the
    /// app is not resident (e.g. the node is mid-outage).
    pub fn force_drift(&mut self) -> bool {
        let name = self.boot.mix.app1.name().to_string();
        self.mediator.recalibrate(&mut self.sim, &name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_core::policy::PolicyKind;
    use powermed_workloads::mixes;

    const DT: Seconds = Seconds::new(0.5);

    /// Server 0 hosting mix 1 under battery-less `App+Res-Aware`
    /// mediation at 100 W, with the given layers.
    fn boot(resilient: bool, estimation: Option<EstimatorConfig>, obs: Option<Obs>) -> ServerAgent {
        let policy = ManagedPolicy {
            kind: PolicyKind::AppResAware,
            with_battery: false,
            ..ManagedPolicy::equal_ours()
        };
        let options = ControlOptions {
            resilient,
            estimation,
            ..ControlOptions::perfect(0)
        };
        ServerAgent::new_with(
            &ServerSpec::xeon_e5_2620(),
            &mixes::mix(1).unwrap(),
            policy,
            &options,
            Watts::new(100.0),
            0,
            obs,
            &PlanBook::default(),
        )
    }

    fn agent(resilient: bool) -> ServerAgent {
        boot(resilient, None, None)
    }

    #[test]
    fn resilient_discards_reordered_stale_assignments() {
        let mut a = agent(true);
        a.receive(&[Downlink::assignment(5, Watts::new(90.0), false)]);
        assert_eq!(a.current_cap(), Watts::new(90.0));
        // A delayed epoch-3 assignment arrives later: discarded.
        a.receive(&[Downlink::assignment(3, Watts::new(110.0), false)]);
        assert_eq!(a.current_cap(), Watts::new(90.0));
        // The naive agent applies it and regresses.
        let mut n = agent(false);
        n.receive(&[Downlink::assignment(5, Watts::new(90.0), false)]);
        n.receive(&[Downlink::assignment(3, Watts::new(110.0), false)]);
        assert_eq!(n.current_cap(), Watts::new(110.0));
    }

    #[test]
    fn silence_engages_fallback_and_decays_to_the_floor() {
        let mut a = agent(true);
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        // Total silence: the fallback engages after the configured
        // misses, then decays 10 W per interval down to the 50 W floor.
        for _ in 0..60 {
            a.step(DT);
        }
        assert!(a.fallback_engaged());
        assert_eq!(a.fallback_engagements(), 1);
        assert!(a.heartbeat_misses() >= 3);
        assert_eq!(a.current_cap(), Watts::new(50.0));
        // The next heartbeat (same epoch — nothing was reapportioned)
        // restores the manager's cap because the agent flagged itself.
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        assert!(!a.fallback_engaged());
        assert_eq!(a.current_cap(), Watts::new(100.0));
    }

    #[test]
    fn on_time_heartbeats_never_count_misses() {
        let mut a = agent(true);
        for step in 0..40u64 {
            if step % 4 == 0 {
                a.receive(&[Downlink::assignment(0, Watts::new(100.0), false)]);
            }
            a.step(DT);
        }
        assert_eq!(a.heartbeat_misses(), 0);
        assert!(!a.fallback_engaged());
    }

    #[test]
    fn restart_banks_ops_and_boots_conservatively() {
        let mut a = agent(true);
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..20 {
            a.step(DT);
        }
        let mix = mixes::mix(1).unwrap();
        let done_before: f64 = mix.apps().iter().map(|p| a.total_ops(p.name())).sum();
        assert!(done_before > 0.0);
        a.crash();
        a.restart(Seconds::ZERO);
        assert_eq!(
            a.current_cap(),
            Watts::new(50.0),
            "resilient reboot starts at the floor"
        );
        let banked: f64 = mix.apps().iter().map(|p| a.total_ops(p.name())).sum();
        assert!((banked - done_before).abs() < 1e-9, "work survives");
        // The next heartbeat hands the share back even at an old epoch.
        a.receive(&[Downlink::assignment(1, Watts::new(95.0), false)]);
        assert_eq!(a.current_cap(), Watts::new(95.0));
        // A naive reboot re-applies the stale persisted cap instead.
        let mut n = agent(false);
        n.receive(&[Downlink::assignment(1, Watts::new(110.0), false)]);
        n.crash();
        n.restart(Seconds::ZERO);
        assert_eq!(n.current_cap(), Watts::new(110.0));
    }
    #[test]
    fn settled_agent_acknowledges_same_value_repairs_without_replanning() {
        let mut a = agent(true);
        a.receive(&[Downlink::assignment(1, Watts::new(90.0), false)]);
        let planned = a.replans();
        // A failover or membership re-broadcast re-sends the same cap at
        // a fresh epoch: the epoch advances but the mediator is left
        // alone.
        a.receive(&[Downlink::assignment(2, Watts::new(90.0), true)]);
        assert_eq!(a.replans(), planned, "no re-plan for re-sent state");
        assert_eq!(a.current_cap(), Watts::new(90.0));
        // A repair carrying a *different* value is a real correction.
        a.receive(&[Downlink::assignment(3, Watts::new(80.0), true)]);
        assert!(a.replans() > planned);
        assert_eq!(a.current_cap(), Watts::new(80.0));
        // A stale-epoch repair is discarded like any stale downlink.
        a.receive(&[Downlink::assignment(2, Watts::new(120.0), true)]);
        assert_eq!(a.current_cap(), Watts::new(80.0));
        // The naive agent re-plans on every duplicate it receives.
        let mut n = agent(false);
        n.receive(&[Downlink::assignment(1, Watts::new(90.0), false)]);
        let planned = n.replans();
        n.receive(&[Downlink::assignment(1, Watts::new(90.0), false)]);
        assert!(n.replans() > planned);
    }

    #[test]
    fn estimation_survives_restart_and_reports_shares() {
        let mut a = boot(true, Some(EstimatorConfig::default()), None);
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..10 {
            a.step(DT);
        }
        let shares = a.estimated_shares();
        assert_eq!(shares.len(), 2, "one share per admitted app");
        assert!(shares.iter().all(|(_, w)| *w >= 0.0));
        a.crash();
        a.restart(Seconds::ZERO);
        assert!(
            a.estimated_shares().is_empty(),
            "a fresh incarnation has not estimated yet"
        );
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..10 {
            a.step(DT);
        }
        assert_eq!(
            a.estimated_shares().len(),
            2,
            "estimation re-attaches across a node restart"
        );
    }

    #[test]
    fn oracle_agent_reports_no_shares() {
        let mut a = agent(true);
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..5 {
            a.step(DT);
        }
        assert!(a.estimated_shares().is_empty());
    }

    #[test]
    fn fallback_lifecycle_is_journalled() {
        use powermed_telemetry::journal::ObsConfig;
        let obs = Obs::new(ObsConfig::default());
        let mut a = boot(true, None, Some(obs.clone()));
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..60 {
            a.step(DT);
        }
        assert!(a.fallback_engaged());
        let kinds: Vec<&str> = obs
            .journal_snapshot()
            .iter()
            .map(|r| r.event.kind())
            .collect();
        assert!(kinds.contains(&"heartbeat_missed"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"fallback_engage"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"fallback_decay"), "kinds: {kinds:?}");
        // The silence chain closes when the manager is heard again.
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        let release = obs
            .journal_snapshot()
            .into_iter()
            .find(|r| r.event.kind() == "fallback_release")
            .expect("release journalled");
        assert!(
            matches!(release.event, ObsEvent::FallbackRelease { cap_w } if cap_w == 100.0),
            "release restores the assigned share: {:?}",
            release.event
        );
        // Decay steps are timestamped with the agent's local clock.
        assert!(release.at > Seconds::ZERO);
    }

    #[test]
    fn ack_watermark_adopts_newer_epochs_even_when_they_rewind() {
        let mut a = agent(true);
        let down = |epoch: u64, acked: u64| Downlink {
            journal_acked: acked,
            ..Downlink::assignment(epoch, Watts::new(100.0), false)
        };
        a.receive(&[down(1, 7)]);
        assert_eq!(a.journal_acked(), 7);
        // Within an epoch the watermark only advances.
        a.receive(&[down(1, 3)]);
        assert_eq!(a.journal_acked(), 7);
        // A failed-over manager at a fresh epoch may ack lower — adopt
        // it (the re-ship repopulates its restored timeline).
        a.receive(&[down(2, 2)]);
        assert_eq!(a.journal_acked(), 2);
        // A stale reordered downlink cannot regress the ack.
        a.receive(&[down(1, 9)]);
        assert_eq!(a.journal_acked(), 2);
    }

    #[test]
    fn ship_journal_is_a_non_draining_since_ack_delta() {
        use powermed_telemetry::journal::ObsConfig;
        assert!(
            agent(true).ship_journal(8192).is_none(),
            "no journal, nothing to ship"
        );
        let mut a = boot(true, None, Some(Obs::new(ObsConfig::default())));
        a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
        for _ in 0..4 {
            a.step(DT);
        }
        let first = a.ship_journal(1 << 20).expect("records to ship");
        assert!(!first.entries.is_empty());
        assert_eq!(first.since, 0);
        // Unacked: the next wave re-ships the identical digest.
        assert_eq!(a.ship_journal(1 << 20), Some(first.clone()));
        // Acked: the next digest is a delta past the watermark.
        let acked = first.ack_to();
        a.receive(&[Downlink {
            journal_acked: acked,
            ..Downlink::assignment(2, Watts::new(100.0), false)
        }]);
        let next = a.ship_journal(1 << 20);
        assert!(next
            .iter()
            .all(|d| d.since == acked && d.entries.iter().all(|(_, r)| r.seq >= acked)));
    }

    #[test]
    fn emergency_clamp_outranks_downlinks_until_release() {
        for resilient in [true, false] {
            let mut a = agent(resilient);
            a.receive(&[Downlink::assignment(1, Watts::new(100.0), false)]);
            a.emergency_clamp(Watts::new(50.0));
            assert_eq!(a.current_cap(), Watts::new(50.0));
            // A fresh assignment during the hold must not lift the
            // clamp, but becomes the restore target.
            a.receive(&[Downlink::assignment(2, Watts::new(90.0), false)]);
            assert_eq!(a.current_cap(), Watts::new(50.0));
            // Clamping is idempotent while the hold lasts.
            a.emergency_clamp(Watts::new(50.0));
            a.emergency_release();
            assert_eq!(a.current_cap(), Watts::new(90.0));
            // A release with no clamp in force is a no-op.
            a.emergency_release();
            assert_eq!(a.current_cap(), Watts::new(90.0));
        }
    }
}
