//! The cluster control plane: a deterministic, seeded message layer
//! between the cluster manager and its per-server agents, with
//! injectable faults and a resilient manager that degrades gracefully.
//!
//! The manager sends [`Downlink`] cap assignments and heartbeats; every
//! agent sends an [`Uplink`] telemetry report each control step. The
//! [`ControlPlane`] in between can drop, delay (and thereby reorder)
//! either direction, crash whole nodes, partition a server away from the
//! manager, and kill the manager itself for a takeover window — all
//! driven by per-channel [`SplitMix`] streams (the seed XOR the
//! channel's tag, as the server-level fault injector derives its own) so
//! the same seed replays the same fault history bit-for-bit and flavors
//! can be compared under common random numbers.
//!
//! Resilience is a flavor switch, not a different topology. The
//! **resilient** manager heartbeats current assignments (repairing
//! drops), checkpoints its apportionment state, restores it on failover,
//! declares nodes dead on missed telemetry and reapportions their share
//! across survivors (returning it on rejoin); resilient agents gate
//! assignments by epoch and fall back to a conservative decaying local
//! cap when partitioned (see [`crate::agent`]). The **naive** manager is
//! fire-and-forget: assignments sent once, no heartbeats, no liveness
//! tracking, a cold-restart standby. With faults disabled both flavors
//! produce the same report bit-for-bit — the zero-cost-off contract.
//!
//! One control step is a fixed pipeline of phases over the fleet
//! ([`run_cluster`] lists them). The tuning of both flavors and of the
//! facility breaker is a set of module constants
//! ([`HEARTBEAT_INTERVAL_STEPS`] and its neighbours); the parked floor
//! every tier falls back to is the SKU's
//! [`ClusterManager::cap_floor_for`].

use std::sync::Arc;

use powermed_core::cache::MeasurementCache;
use powermed_core::coordinator::EsdParams;
use powermed_core::knapsack::Knapsack;
use powermed_core::policy::{PolicyKind, PowerPolicy};
use powermed_core::runtime::PlanBook;
use powermed_disagg::EstimatorConfig;
use powermed_profiles::{ProbeSplit, ProfileDigest, ProfileStore, StoreConfig};
use powermed_server::ServerSpec;
use powermed_telemetry::faults::ClusterControlStats;
use powermed_telemetry::journal::{
    FleetTimeline, JournalDigest, Obs, ObsEvent, TimelineMark, MANAGER_SERVER_ID,
};
use powermed_telemetry::metrics::{prom_label, MetricsRegistry};
use powermed_telemetry::ProfileStoreStats;
use powermed_units::hash::FNV_OFFSET;
use powermed_units::rng::SplitMix;
use powermed_units::{Joules, Ratio, Seconds, Watts};
use powermed_workloads::mixes::Mix;

use crate::agent::ServerAgent;
use crate::manager::{self, ClusterManager, ClusterPolicy, ClusterReport};
use crate::trace::ClusterPowerTrace;

/// A cap assignment (or heartbeat) from the manager to one server.
#[derive(Debug, Clone, PartialEq)]
pub struct Downlink {
    /// Assignment epoch: strictly increasing across reapportionments,
    /// derived from the control step so it survives manager failover.
    pub epoch: u64,
    /// The per-server cap assigned at that epoch.
    pub cap: Watts,
    /// Re-send of already-assigned state (heartbeat, failover or
    /// membership re-broadcast) rather than a fresh budget-change
    /// assignment. A settled resilient agent acknowledges a repair whose
    /// cap it already enforces without re-actuating — re-planning is not
    /// free, and a repair carrying the value in force has nothing to fix.
    pub repair: bool,
    /// Knowledge-plane payload: the manager's profile digests, merged
    /// into the agent's store on receipt (empty when warm start is off).
    /// Digests are a semilattice, so stale or reordered deliveries are
    /// harmless — merge is commutative and idempotent. One wave's
    /// downlinks share a single payload.
    pub profiles: Arc<[ProfileDigest]>,
    /// Flight-recorder ack watermark: the manager has merged this
    /// server's journal records below this sequence number into the
    /// fleet timeline, so the agent's next digest starts here. Always 0
    /// when fleet recording is off, keeping the classic control plane
    /// bit-identical.
    pub journal_acked: u64,
}

impl Downlink {
    /// A bare assignment with no knowledge-plane payload.
    pub fn assignment(epoch: u64, cap: Watts, repair: bool) -> Self {
        Self {
            epoch,
            cap,
            repair,
            profiles: Arc::default(),
            journal_acked: 0,
        }
    }
}

/// A telemetry report from one server to the manager.
#[derive(Debug, Clone, PartialEq)]
pub struct Uplink {
    /// Reporting server index.
    pub server: usize,
    /// Control step the report was sent (stale reports carry old steps).
    pub sent_step: u64,
    /// Net (post-ESD) power the server drew that step.
    pub net_power: Watts,
    /// Knowledge-plane payload: profile digests this server published
    /// since its last report (empty when warm start is off).
    pub profiles: Vec<ProfileDigest>,
    /// Estimated per-app dynamic shares in watts, from the server's
    /// non-intrusive disaggregation layer — what a real deployment can
    /// actually report upstream, since no per-app power meter exists.
    /// Empty when estimation is off ([`ControlOptions::estimation`] is
    /// `None`), keeping the classic control plane bit-identical.
    pub app_shares: Vec<(String, f64)>,
    /// Flight-recorder payload: the server's journal delta since the
    /// last acked sequence number, size-capped so it survives lossy
    /// links. Re-shipped every wave until acked — the fleet merge is
    /// idempotent, so duplication under retry is harmless, though each
    /// copy still costs its wire bytes and a key lookup per record.
    /// `None` when fleet recording is off.
    pub journal: Option<JournalDigest>,
}

impl Uplink {
    /// A bare telemetry report with no knowledge-plane payload.
    pub fn report(server: usize, sent_step: u64, net_power: Watts) -> Self {
        Self {
            server,
            sent_step,
            net_power,
            profiles: Vec::new(),
            app_shares: Vec::new(),
            journal: None,
        }
    }
}

/// One server's scheduled partition from the manager: both directions of
/// its channel are cut for `from_step <= step < until_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// The partitioned server.
    pub server: usize,
    /// First step of the partition (inclusive).
    pub from_step: u64,
    /// End of the partition (exclusive).
    pub until_step: u64,
}

impl PartitionWindow {
    fn covers(&self, server: usize, step: u64) -> bool {
        self.server == server && (self.from_step..self.until_step).contains(&step)
    }
}

/// Fault injection configuration for the cluster control plane.
///
/// All probabilities are per message (drops) or per node per step
/// (crashes). Channels only consume random numbers for faults whose
/// knob is non-zero, so flavors compared under the same seed see the
/// same fault history (common random numbers) and a fully zeroed config
/// consumes no randomness at all.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterFaultConfig {
    /// Seed for every per-channel splitmix64 stream.
    pub seed: u64,
    /// Probability a manager → server message is dropped in flight.
    pub downlink_drop_prob: f64,
    /// Maximum delivery delay of a downlink, in control steps (uniform
    /// over `0..=max`; a positive draw reorders against later sends).
    pub downlink_delay_max_steps: u64,
    /// Probability a server → manager report is dropped in flight.
    pub uplink_drop_prob: f64,
    /// Maximum delivery delay of an uplink, in control steps.
    pub uplink_delay_max_steps: u64,
    /// Per-node per-step probability of a whole-node crash.
    pub node_crash_prob: f64,
    /// Steps a crashed node stays down before it restarts.
    pub node_down_steps: u64,
    /// Scheduled network partitions (node up, channel cut).
    pub partitions: Vec<PartitionWindow>,
    /// Step at which the manager crashes, if any.
    pub manager_crash_step: Option<u64>,
    /// Steps until the standby manager takes over after the crash.
    pub manager_takeover_steps: u64,
}

impl ClusterFaultConfig {
    /// A fault-free control plane (the zero-cost-off configuration).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            downlink_drop_prob: 0.0,
            downlink_delay_max_steps: 0,
            uplink_drop_prob: 0.0,
            uplink_delay_max_steps: 0,
            node_crash_prob: 0.0,
            node_down_steps: 0,
            partitions: Vec::new(),
            manager_crash_step: None,
            manager_takeover_steps: 0,
        }
    }

    /// The reference node-churn + message-loss scenario: 10% loss and up
    /// to 2 steps of delay on both directions, plus Poisson-like node
    /// crashes (0.1% per node-step) with 20-step outages.
    pub fn default_scenario(seed: u64) -> Self {
        Self {
            downlink_drop_prob: 0.10,
            downlink_delay_max_steps: 2,
            uplink_drop_prob: 0.10,
            uplink_delay_max_steps: 2,
            node_crash_prob: 0.001,
            node_down_steps: 40,
            ..Self::none(seed)
        }
    }
}

/// One event in the deterministic fault/response history of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFaultEvent {
    /// A downlink to `server` was dropped.
    DownlinkDropped {
        /// Destination server.
        server: usize,
    },
    /// A downlink to `server` was delayed by `steps`.
    DownlinkDelayed {
        /// Destination server.
        server: usize,
        /// Delivery delay in control steps.
        steps: u64,
    },
    /// An uplink from `server` was dropped.
    UplinkDropped {
        /// Source server.
        server: usize,
    },
    /// An uplink from `server` was delayed by `steps`.
    UplinkDelayed {
        /// Source server.
        server: usize,
        /// Delivery delay in control steps.
        steps: u64,
    },
    /// A message died because its endpoint (node or manager) was down or
    /// the channel was partitioned.
    EndpointLoss {
        /// The server side of the lost message.
        server: usize,
    },
    /// Node `server` crashed (apps restart, ESD state resets).
    NodeCrash {
        /// The crashed server.
        server: usize,
    },
    /// Node `server` restarted and rejoined the fleet.
    NodeRestart {
        /// The restarted server.
        server: usize,
    },
    /// The manager crashed; the control plane is headless until takeover.
    ManagerCrash,
    /// The standby manager took over.
    ManagerTakeover,
}

/// A timestamped [`ClusterFaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFaultRecord {
    /// Control step the event occurred at.
    pub step: u64,
    /// The event.
    pub event: ClusterFaultEvent,
}

/// FNV-1a digest of a fault history — the determinism fingerprint used
/// by the `ext_cluster_faults --smoke` CI check.
///
/// The multiplier is `0x1000_0000_01b3`, not the FNV prime
/// (`0x100_0000_01b3`): the committed smoke digests were produced with
/// it, so it stays.
pub fn fault_trace_digest(records: &[ClusterFaultRecord]) -> u64 {
    let mut hash = FNV_OFFSET;
    for record in records {
        for byte in format!("{record:?}").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
    }
    hash
}

/// An in-flight message and the step it becomes deliverable.
#[derive(Debug, Clone)]
struct InFlight<T> {
    deliver_at: u64,
    msg: T,
}

/// Takes the messages due at `step` out of `queue`, oldest delivery
/// first and in send order within a delivery step (delays reorder
/// against later sends); the rest stay in flight.
fn drain_due<T>(queue: &mut Vec<InFlight<T>>, step: u64) -> Vec<T> {
    let (mut due, pending): (Vec<_>, Vec<_>) = std::mem::take(queue)
        .into_iter()
        .partition(|m| m.deliver_at <= step);
    *queue = pending;
    due.sort_by_key(|m| m.deliver_at);
    due.into_iter().map(|m| m.msg).collect()
}

/// The seeded, fault-injectable message layer between manager and agents.
#[derive(Debug)]
pub struct ControlPlane {
    config: ClusterFaultConfig,
    step: u64,
    down_rngs: Vec<SplitMix>,
    up_rngs: Vec<SplitMix>,
    churn_rngs: Vec<SplitMix>,
    downlinks: Vec<Vec<InFlight<Downlink>>>,
    uplinks: Vec<InFlight<Uplink>>,
    /// `Some(step)` while a node is down: it restarts at that step.
    down_until: Vec<Option<u64>>,
    stats: ClusterControlStats,
    records: Vec<ClusterFaultRecord>,
    /// Flight-recorder handle; every fault record and message send is
    /// mirrored into its journal. `None` (the default) is zero-cost.
    obs: Option<Obs>,
    /// Wall-clock length of one control step, for journal timestamps.
    obs_dt: Seconds,
}

impl ControlPlane {
    /// A control plane over `servers` channels under `config`.
    pub fn new(config: ClusterFaultConfig, servers: usize) -> Self {
        let stream = |tag: u64, i: usize| SplitMix::new(config.seed ^ tag ^ ((i as u64) << 8));
        Self {
            down_rngs: (0..servers).map(|i| stream(0xD0_01, i)).collect(),
            up_rngs: (0..servers).map(|i| stream(0x0D_02, i)).collect(),
            churn_rngs: (0..servers).map(|i| stream(0xC4_03, i)).collect(),
            downlinks: vec![Vec::new(); servers],
            uplinks: Vec::new(),
            down_until: vec![None; servers],
            stats: ClusterControlStats::default(),
            records: Vec::new(),
            obs: None,
            obs_dt: Seconds::new(1.0),
            config,
            step: 0,
        }
    }

    /// Attaches a flight-recorder handle. Fault records and message
    /// sends are journalled from then on, timestamped `step * dt`.
    pub fn set_observability(&mut self, obs: Obs, dt: Seconds) {
        self.obs = Some(obs);
        self.obs_dt = dt;
    }

    /// The attached flight-recorder handle, if any.
    pub fn observability(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Journals `event` at the current control step (nothing without a
    /// journal).
    fn emit(&self, event: ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.emit(Seconds::new(self.step as f64 * self.obs_dt.value()), event);
        }
    }

    /// Advances the plane to `step` and records scheduled manager events.
    pub fn begin_step(&mut self, step: u64) {
        self.step = step;
        if let Some(crash) = self.config.manager_crash_step {
            if step == crash {
                self.record(ClusterFaultEvent::ManagerCrash);
            }
            if step == crash + self.config.manager_takeover_steps {
                self.record(ClusterFaultEvent::ManagerTakeover);
            }
        }
    }

    fn record(&mut self, event: ClusterFaultEvent) {
        if self.obs.is_some() {
            self.emit(match event {
                ClusterFaultEvent::DownlinkDropped { server } => ObsEvent::LinkDropped {
                    server,
                    uplink: false,
                },
                ClusterFaultEvent::DownlinkDelayed { server, steps } => ObsEvent::LinkDelayed {
                    server,
                    uplink: false,
                    steps,
                },
                ClusterFaultEvent::UplinkDropped { server } => ObsEvent::LinkDropped {
                    server,
                    uplink: true,
                },
                ClusterFaultEvent::UplinkDelayed { server, steps } => ObsEvent::LinkDelayed {
                    server,
                    uplink: true,
                    steps,
                },
                ClusterFaultEvent::EndpointLoss { server } => ObsEvent::EndpointLoss { server },
                ClusterFaultEvent::NodeCrash { server } => ObsEvent::NodeCrash { server },
                ClusterFaultEvent::NodeRestart { server } => ObsEvent::NodeRestart { server },
                ClusterFaultEvent::ManagerCrash => ObsEvent::ManagerCrash,
                ClusterFaultEvent::ManagerTakeover => ObsEvent::ManagerTakeover,
            });
        }
        self.records.push(ClusterFaultRecord {
            step: self.step,
            event,
        });
    }

    /// Whether node `i` is currently up.
    pub fn node_up(&self, i: usize) -> bool {
        self.down_until[i].is_none()
    }

    /// Whether the channel to node `i` is partitioned this step.
    pub fn partitioned(&self, i: usize) -> bool {
        self.config
            .partitions
            .iter()
            .any(|w| w.covers(i, self.step))
    }

    /// Whether the (primary or standby) manager is running this step.
    pub fn manager_up(&self) -> bool {
        match self.config.manager_crash_step {
            Some(crash) => {
                self.step < crash || self.step >= crash + self.config.manager_takeover_steps
            }
            None => true,
        }
    }

    /// Whether the standby takes over exactly this step (restore point).
    pub fn manager_takeover_now(&self) -> bool {
        self.config
            .manager_crash_step
            .is_some_and(|crash| self.step == crash + self.config.manager_takeover_steps)
    }

    /// Rolls node churn for node `i` (call once per step for an up
    /// node). On a crash the node goes down for the configured outage
    /// and everything queued toward it dies with it.
    pub fn roll_crash(&mut self, i: usize) -> bool {
        if self.config.node_crash_prob <= 0.0 {
            return false;
        }
        if self.churn_rngs[i].next_f64() >= self.config.node_crash_prob {
            return false;
        }
        self.down_until[i] = Some(self.step + self.config.node_down_steps.max(1));
        self.stats.node_crashes += 1;
        self.record(ClusterFaultEvent::NodeCrash { server: i });
        let lost = self.downlinks[i].len() as u64;
        if lost > 0 {
            self.stats.messages_lost_endpoint_down += lost;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            self.downlinks[i].clear();
        }
        true
    }

    /// Whether node `i`'s outage ends this step (call once per step for
    /// a down node; clears the outage and records the restart).
    pub fn restart_due(&mut self, i: usize) -> bool {
        match self.down_until[i] {
            Some(until) if self.step >= until => {
                self.down_until[i] = None;
                self.stats.node_restarts += 1;
                self.record(ClusterFaultEvent::NodeRestart { server: i });
                true
            }
            _ => false,
        }
    }

    /// Rolls the drop and delay faults of one message on channel `i`
    /// (`uplink` picks the direction, each with its own stream and
    /// knobs): `None` when it is dropped, else its delay in steps. A
    /// knob at zero draws nothing.
    fn roll_link(&mut self, i: usize, uplink: bool) -> Option<u64> {
        let c = &self.config;
        let (drop_prob, delay_max, rng) = if uplink {
            let (p, d) = (c.uplink_drop_prob, c.uplink_delay_max_steps);
            (p, d, &mut self.up_rngs[i])
        } else {
            let (p, d) = (c.downlink_drop_prob, c.downlink_delay_max_steps);
            (p, d, &mut self.down_rngs[i])
        };
        if drop_prob > 0.0 && rng.next_f64() < drop_prob {
            if uplink {
                self.stats.uplinks_dropped += 1;
                self.record(ClusterFaultEvent::UplinkDropped { server: i });
            } else {
                self.stats.downlinks_dropped += 1;
                self.record(ClusterFaultEvent::DownlinkDropped { server: i });
            }
            return None;
        }
        let steps = match delay_max {
            0 => 0,
            u64::MAX => rng.next_u64(),
            _ => rng.below(delay_max + 1),
        };
        if steps > 0 && uplink {
            self.stats.uplinks_delayed += 1;
            self.record(ClusterFaultEvent::UplinkDelayed { server: i, steps });
        } else if steps > 0 {
            self.stats.downlinks_delayed += 1;
            self.record(ClusterFaultEvent::DownlinkDelayed { server: i, steps });
        }
        Some(steps)
    }

    /// Sends a downlink to node `i`, subject to partition, drop, and
    /// delay faults. Messages to a down node die at the sender.
    pub fn send_down(&mut self, i: usize, msg: Downlink) {
        if !self.node_up(i) || self.partitioned(i) {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            return;
        }
        let Some(delay) = self.roll_link(i, false) else {
            return;
        };
        self.emit(ObsEvent::DownlinkSent {
            server: i,
            epoch: msg.epoch,
            cap_w: msg.cap.value(),
            repair: msg.repair,
        });
        self.downlinks[i].push(InFlight {
            deliver_at: self.step + delay,
            msg,
        });
    }

    /// Sends node `i`'s telemetry report toward the manager, subject to
    /// partition, drop, and delay faults.
    pub fn send_up(&mut self, i: usize, msg: Uplink) {
        if self.partitioned(i) {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
            return;
        }
        let Some(delay) = self.roll_link(i, true) else {
            return;
        };
        self.emit(ObsEvent::UplinkSent {
            server: i,
            step: msg.sent_step,
        });
        // Uplinks become deliverable the step after they were sent (the
        // manager runs before the servers within a step), plus any delay.
        self.uplinks.push(InFlight {
            deliver_at: self.step + 1 + delay,
            msg,
        });
    }

    /// Delivers the downlinks due at node `i`, oldest delivery first
    /// (delays reorder against later sends).
    pub fn poll_down(&mut self, i: usize) -> Vec<Downlink> {
        drain_due(&mut self.downlinks[i], self.step)
    }

    /// Delivers the uplinks due at the manager, oldest delivery first,
    /// then by server index within a step.
    pub fn poll_up(&mut self) -> Vec<Uplink> {
        drain_due(&mut self.uplinks, self.step)
    }

    /// Discards everything due this step because its receiving endpoint
    /// is dead (a down node's downlinks, a headless manager's uplinks).
    pub fn discard_due_downlinks(&mut self, i: usize) {
        let lost = self.poll_down(i).len() as u64;
        if lost > 0 {
            self.stats.messages_lost_endpoint_down += lost;
            self.record(ClusterFaultEvent::EndpointLoss { server: i });
        }
    }

    /// Discards the uplinks due at a dead manager.
    pub fn discard_due_uplinks(&mut self) {
        for up in self.poll_up() {
            self.stats.messages_lost_endpoint_down += 1;
            self.record(ClusterFaultEvent::EndpointLoss { server: up.server });
        }
    }

    /// Message-layer fault counters accumulated so far.
    pub fn stats(&self) -> ClusterControlStats {
        self.stats
    }

    /// The deterministic fault history.
    pub fn records(&self) -> &[ClusterFaultRecord] {
        self.records.as_slice()
    }
}

/// How the manager splits the cluster budget across servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Apportionment {
    /// Even split across alive servers.
    Equal,
    /// Utility-curve DP split ([`ClusterManager::apportion_cluster`]).
    UtilityDp,
}

/// A cluster policy expressed for the managed control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManagedPolicy {
    /// Report label.
    pub label: ClusterPolicy,
    /// Per-server mediation policy.
    pub kind: PolicyKind,
    /// Whether servers carry the Lead-Acid UPS.
    pub with_battery: bool,
    /// Budget apportionment strategy.
    pub apportionment: Apportionment,
}

impl ManagedPolicy {
    /// Equal split enforced by utility-unaware RAPL capping.
    pub fn equal_rapl() -> Self {
        Self {
            label: ClusterPolicy::EqualRapl,
            kind: PolicyKind::UtilUnaware,
            with_battery: false,
            apportionment: Apportionment::Equal,
        }
    }

    /// Equal split with `App+Res+ESD-Aware` mediation per server.
    pub fn equal_ours() -> Self {
        Self {
            label: ClusterPolicy::EqualOurs,
            kind: PolicyKind::AppResEsdAware,
            with_battery: true,
            apportionment: Apportionment::Equal,
        }
    }

    /// Utility-curve apportionment with `App+Res+ESD-Aware` mediation.
    pub fn unequal_ours() -> Self {
        Self {
            label: ClusterPolicy::UnequalOurs,
            kind: PolicyKind::AppResEsdAware,
            with_battery: true,
            apportionment: Apportionment::UtilityDp,
        }
    }
}

/// Steps between resilient heartbeats. Each re-sends the current
/// assignment, so a dropped assignment is repaired within one interval,
/// and agents count downlink silence in missed heartbeats of this
/// length.
pub const HEARTBEAT_INTERVAL_STEPS: u64 = 4;

/// Steps of telemetry silence before the resilient manager declares a
/// node dead.
pub const DEAD_AFTER_STEPS: u64 = 30;

/// Steps between checkpoints of the resilient manager.
pub const CHECKPOINT_INTERVAL_STEPS: u64 = 20;

/// Steps a node must stay dead before its share is redistributed to the
/// survivors. Redistribution re-plans every survivor, which costs real
/// throughput, so short churn outages are ridden out by banking the dead
/// node's headroom (strictly under budget) and only a sustained loss — a
/// partition, a long outage — is worth re-cutting the pie for.
pub const REAPPORTION_AFTER_STEPS: u64 = 60;

/// Consecutive violating steps before an armed breaker trips.
pub const BREAKER_TRIP_AFTER_STEPS: u64 = 10;

/// Steps the breaker's floor clamp stays in force once tripped.
pub const BREAKER_HOLD_STEPS: u64 = 20;

/// The manager's replicated apportionment state.
#[derive(Debug, Clone)]
struct ManagerState {
    epoch: u64,
    caps: Vec<Watts>,
    /// Change detector: Equal stores the last per-server share,
    /// UtilityDp the last total budget.
    last_key: Watts,
    /// Step at which each currently-dead node was declared dead (`None`
    /// while the node is alive).
    dead_since: Vec<Option<u64>>,
    /// Nodes whose share has been redistributed to the survivors (dead
    /// past [`REAPPORTION_AFTER_STEPS`]). Freshly-dead nodes keep their
    /// assigned share — they draw nothing while down, so the fleet
    /// simply runs under budget until they return or the redistribution
    /// threshold passes.
    excluded: Vec<bool>,
    last_uplink_step: Vec<u64>,
}

impl ManagerState {
    fn initial(servers: usize, initial_share: Watts, apportionment: Apportionment) -> Self {
        Self {
            epoch: 0,
            caps: vec![initial_share; servers],
            last_key: match apportionment {
                // Every agent boots on the equal share, so the equal
                // split has nothing to send at step 0; the DP always
                // apportions at step 0.
                Apportionment::Equal => initial_share,
                Apportionment::UtilityDp => Watts::ZERO,
            },
            dead_since: vec![None; servers],
            excluded: vec![false; servers],
            last_uplink_step: vec![0; servers],
        }
    }
}

/// The merged fleet timeline and how far it reaches: per-server ack
/// watermarks and the manager's own fold position. A checkpoint keeps
/// a [`FleetMark`], and a resilient standby rewinds the timeline to it
/// on takeover.
#[derive(Default)]
struct FleetLog {
    timeline: FleetTimeline,
    /// Per-server ack watermark: first journal seq not yet merged.
    /// Ridden back to each agent on every downlink wave.
    acked: Vec<u64>,
    /// First of the manager's own journal records not yet folded.
    own_shipped: u64,
}

impl FleetLog {
    fn new(servers: usize) -> Self {
        let acked = vec![0; servers];
        Self {
            acked,
            ..Self::default()
        }
    }

    /// Marks the current position for a checkpoint.
    fn mark(&mut self) -> FleetMark {
        FleetMark {
            timeline: self.timeline.mark(),
            acked: self.acked.clone(),
            own_shipped: self.own_shipped,
        }
    }

    /// Returns to `mark`: the same records, counters and watermarks a
    /// copy taken at the mark would hold.
    fn rewind(&mut self, mark: &FleetMark) {
        self.timeline.rewind(mark.timeline);
        self.acked.clone_from(&mark.acked);
        self.own_shipped = mark.own_shipped;
    }
}

/// Where a [`FleetLog`] stood at a checkpoint. Between checkpoints the
/// timeline only grows, so the position is enough to restore it.
#[derive(Clone)]
struct FleetMark {
    timeline: TimelineMark,
    acked: Vec<u64>,
    own_shipped: u64,
}

/// The manager-side half of the fleet flight recorder.
struct ManagerFleet {
    /// The manager's own flight recorder: mirrored control-plane fault
    /// events plus fleet-level decisions (breaker arm/trip/clamp) land
    /// here, then fold into the timeline under [`MANAGER_SERVER_ID`].
    obs: Obs,
    log: FleetLog,
    /// Digests whose ring wrapped past unshipped records (each carries
    /// a `DigestGap` marker in the timeline).
    digest_gaps: u64,
}

impl ManagerFleet {
    /// Folds the manager's own journal delta into the timeline under
    /// [`MANAGER_SERVER_ID`]. Goes through the same digest path as the
    /// uplinked deltas so a wrapped manager ring leaves a `DigestGap`
    /// instead of a silent hole (no byte cap: the fold is local).
    fn fold_own_journal(&mut self) {
        let digest = self
            .obs
            .digest_since(MANAGER_SERVER_ID, self.log.own_shipped, usize::MAX);
        if !digest.is_empty() {
            self.merge(&digest);
            self.log.own_shipped = digest.ack_to();
        }
    }

    /// Merges `digest` into the timeline, counting a wrapped ring.
    fn merge(&mut self, digest: &JournalDigest) {
        if digest.wrapped {
            self.digest_gaps += 1;
        }
        self.log.timeline.merge_digest(digest);
    }

    /// Merges one uplinked digest, advances the sender's ack watermark,
    /// and bumps the fleet-level metrics.
    fn fold_uplink(&mut self, server: usize, digest: &JournalDigest) {
        if digest.wrapped {
            self.obs.inc("digest_gaps_total");
        }
        let before = self.log.timeline.dedup_total();
        self.merge(digest);
        let acked = &mut self.log.acked[server];
        *acked = (*acked).max(digest.ack_to());
        let timeline = &self.log.timeline;
        self.obs.inc_by("digest_bytes_total", digest.bytes);
        self.obs
            .inc_by("merge_dedup_total", timeline.dedup_total() - before);
        self.obs.set_gauge("timeline_len", timeline.len() as f64);
    }

    /// Run end: folds the manager's last records (the breaker decides
    /// after its step) and every server record still in flight, so the
    /// returned timeline is complete — in a live deployment those would
    /// simply ship on the next wave. A local drain, not a wire ship, so
    /// `digest_bytes_total` keeps counting uplink bytes only.
    fn drain(&mut self, servers: &[Obs]) {
        self.fold_own_journal();
        for (i, o) in servers.iter().enumerate() {
            let digest = o.digest_since(i as u64, self.log.acked[i], usize::MAX);
            self.merge(&digest);
            let acked = &mut self.log.acked[i];
            *acked = (*acked).max(digest.ack_to());
        }
        self.obs
            .set_gauge("timeline_len", self.log.timeline.len() as f64);
        for (i, acked) in self.log.acked.iter().enumerate() {
            let server = i.to_string();
            let name = prom_label("last_acked_seq", &[("server", server.as_str())]);
            self.obs.set_gauge(&name, *acked as f64);
        }
    }
}

/// Everything a resilient checkpoint carries across manager failover.
struct Checkpoint {
    state: ManagerState,
    /// The profile store as a standby boots it
    /// ([`ProfileStore::rebooted`]; `None` without a store).
    store: Option<ProfileStore>,
    /// The fleet timeline position (`None` when fleet recording is off).
    fleet: Option<FleetMark>,
}

/// The cluster manager as a control-plane node.
struct Manager {
    resilient: bool,
    apportionment: Apportionment,
    curves: Option<Vec<Vec<(Watts, f64)>>>,
    /// The DP table over the included servers' curves, with the
    /// `excluded` mask it was built for (UtilityDp only). Derived from
    /// `curves` and the membership, so no checkpoint carries it: it is
    /// rebuilt whenever the mask differs, after a failover too.
    table: Option<(Vec<bool>, Knapsack)>,
    servers: usize,
    initial_share: Watts,
    /// The share reserved for an excluded node: the parked floor it
    /// decays toward.
    floor: Watts,
    state: ManagerState,
    /// Fleet knowledge plane: the manager's replica of every published
    /// profile, rebroadcast to the agents with each downlink wave.
    store: Option<ProfileStore>,
    /// Fleet flight recorder (`None` when fleet recording is off).
    fleet: Option<ManagerFleet>,
    /// The latest checkpoint (resilient only).
    checkpoint: Option<Checkpoint>,
    membership_dirty: bool,
    /// The response counters the manager keeps: failovers, checkpoints,
    /// dead declarations, rejoins and reapportionments.
    stats: ClusterControlStats,
}

impl Manager {
    /// Standby takeover: the resilient standby restores the latest
    /// checkpoint and forces a fresh-epoch reapportionment; the naive
    /// standby cold-restarts from the boot state.
    fn failover(&mut self, step: u64) {
        self.stats.manager_failovers += 1;
        let checkpoint = self.checkpoint.as_ref().filter(|_| self.resilient);
        self.state = match checkpoint {
            Some(c) => c.state.clone(),
            None => ManagerState::initial(self.servers, self.initial_share, self.apportionment),
        };
        if let Some(live) = self.store.as_mut() {
            // The standby's knowledge plane: the resilient flavor
            // restores the checkpointed store (and re-learns anything
            // newer from subsequent uplinks); the naive flavor boots an
            // empty store and must recollect the whole fleet's profiles.
            *live = match checkpoint.and_then(|c| c.store.as_ref()) {
                Some(store) => store.clone(),
                None => ProfileStore::new(live.config()),
            };
        }
        // The fleet timeline lives (or dies) with the apportionment
        // state: the resilient standby rewinds to the checkpointed
        // timeline and ack watermarks — rewound acks just trigger
        // harmless re-ships that the idempotent merge dedups — while
        // the naive standby starts empty with zeroed watermarks, so
        // every agent re-ships its whole retained ring. Either way the
        // manager's own fold position rewinds with the timeline, and
        // the idempotent re-fold repopulates whatever survived.
        if let Some(fleet) = self.fleet.as_mut() {
            match checkpoint.and_then(|c| c.fleet.as_ref()) {
                Some(mark) => fleet.log.rewind(mark),
                None => fleet.log = FleetLog::new(self.servers),
            }
            fleet.obs.inc("timeline_failovers_total");
        }
        // Telemetry gathered before the crash is gone either way; grant
        // a fresh grace period so takeover does not mass-declare death.
        self.state.last_uplink_step.fill(step);
        // Cold-restarted naive managers re-send by resetting the change
        // detector; the resilient one reapportions at a fresh epoch.
        if self.resilient {
            self.membership_dirty = true;
        } else {
            self.state.last_key = Watts::ZERO;
        }
    }

    /// The manager phase: a due standby takeover, then drain telemetry,
    /// track liveness, reapportion on budget or membership change,
    /// heartbeat, checkpoint. While headless, the uplinks due at the
    /// dead manager are lost.
    fn step(&mut self, step: u64, total: Watts, plane: &mut ControlPlane) {
        if plane.manager_takeover_now() {
            self.failover(step);
        }
        if !plane.manager_up() {
            plane.discard_due_uplinks();
            return;
        }
        if let Some(store) = self.store.as_mut() {
            store.set_epoch(step);
        }
        if let Some(fleet) = self.fleet.as_ref() {
            fleet.obs.set_epoch(self.state.epoch);
        }
        for up in plane.poll_up() {
            if let (Some(store), false) = (self.store.as_mut(), up.profiles.is_empty()) {
                store.merge_digests(&up.profiles);
            }
            if let (Some(fleet), Some(digest)) = (self.fleet.as_mut(), up.journal.as_ref()) {
                fleet.fold_uplink(up.server, digest);
            }
            if self.resilient && self.state.dead_since[up.server].is_some() {
                self.state.dead_since[up.server] = None;
                self.stats.rejoins += 1;
                if self.state.excluded[up.server] {
                    // Its share was redistributed; hand it back.
                    self.state.excluded[up.server] = false;
                    self.membership_dirty = true;
                }
            }
            let seen = &mut self.state.last_uplink_step[up.server];
            *seen = (*seen).max(up.sent_step);
        }
        if self.resilient {
            for i in 0..self.servers {
                if self.state.dead_since[i].is_none()
                    && step.saturating_sub(self.state.last_uplink_step[i]) > DEAD_AFTER_STEPS
                {
                    self.state.dead_since[i] = Some(step);
                    self.stats.dead_declarations += 1;
                }
                if !self.state.excluded[i] {
                    if let Some(since) = self.state.dead_since[i] {
                        if step.saturating_sub(since) >= REAPPORTION_AFTER_STEPS {
                            self.state.excluded[i] = true;
                            self.membership_dirty = true;
                        }
                    }
                }
            }
        }

        let n_excluded = self.state.excluded.iter().filter(|e| **e).count();
        let n_included = self.servers - n_excluded;
        if n_included > 0 {
            let key = match self.apportionment {
                Apportionment::Equal => {
                    (total - self.floor * n_excluded as f64) / n_included as f64
                }
                Apportionment::UtilityDp => total,
            };
            let changed = (key - self.state.last_key).abs() > Watts::new(1e-6);
            if changed || self.membership_dirty {
                let repair = !changed;
                if self.membership_dirty {
                    self.stats.reapportionments += 1;
                    self.membership_dirty = false;
                }
                self.state.last_key = key;
                self.state.epoch = step + 1;
                if let Some(fleet) = self.fleet.as_ref() {
                    // Fresh-epoch records (the broadcast wave below)
                    // carry the new epoch in the timeline key.
                    fleet.obs.set_epoch(self.state.epoch);
                }
                self.state.caps = {
                    let _span = plane.observability().map(|o| o.span("coordination"));
                    self.apportion(total)
                };
                self.broadcast(plane, repair);
            } else if self.resilient && step.is_multiple_of(HEARTBEAT_INTERVAL_STEPS) {
                self.broadcast(plane, true);
            }
        }

        // Fold the manager's own journal (plane fault mirrors, breaker
        // decisions) into the timeline every step, so the checkpoint
        // below always carries a fold position consistent with the
        // timeline it snapshots.
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.fold_own_journal();
        }

        if self.resilient && step.is_multiple_of(CHECKPOINT_INTERVAL_STEPS) {
            self.checkpoint = Some(Checkpoint {
                state: self.state.clone(),
                store: self.store.as_ref().map(ProfileStore::rebooted),
                fleet: self.fleet.as_mut().map(|f| f.log.mark()),
            });
            if let Some(fleet) = self.fleet.as_ref() {
                fleet.obs.inc("timeline_checkpoints_total");
            }
            self.stats.checkpoints += 1;
        }
    }

    /// Splits `total` over the non-excluded set, reserving the floor per
    /// excluded (long-dead) node — which keeps the assigned sum within
    /// budget even while a merely-partitioned "dead" node still draws
    /// its decayed fallback floor. Freshly-dead nodes are apportioned
    /// normally: they draw nothing while down, and keeping their share
    /// on the books means a quick rejoin needs no redistribution at all.
    fn apportion(&mut self, total: Watts) -> Vec<Watts> {
        let excluded = &self.state.excluded;
        let n_excluded = excluded.iter().filter(|e| **e).count();
        let n_included = self.servers - n_excluded;
        let budget = total - self.floor * n_excluded as f64;
        let mut split = match self.apportionment {
            Apportionment::Equal => vec![budget / n_included as f64; n_included],
            Apportionment::UtilityDp => {
                let curves = self.curves.as_ref().expect("UtilityDp carries curves");
                let included: Vec<&[(Watts, f64)]> = curves
                    .iter()
                    .zip(excluded)
                    .filter(|(_, out)| !**out)
                    .map(|(c, _)| c.as_slice())
                    .collect();
                // The curves never change within a run, so the table
                // only goes stale when the membership does. Built to
                // the saturation level, it splits any budget exactly.
                if self.table.as_ref().is_none_or(|(mask, _)| mask != excluded) {
                    let table = manager::cap_table(&included, usize::MAX);
                    self.table = Some((excluded.clone(), table));
                }
                let (_, table) = self.table.as_ref().expect("table just built");
                manager::split_caps(table, &included, &vec![self.floor; n_included], budget)
            }
        }
        .into_iter();
        excluded
            .iter()
            .map(|out| {
                if *out {
                    self.floor
                } else {
                    split.next().expect("one cap per included server")
                }
            })
            .collect()
    }

    fn broadcast(&self, plane: &mut ControlPlane, repair: bool) {
        // Every downlink wave carries the manager's full digest set,
        // which is what lets a healed partition catch up within one
        // heartbeat. Merge idempotence makes the redundancy harmless to
        // correctness, not free: every agent still merges every digest
        // it receives. The wave builds the set once and shares it.
        let profiles: Arc<[ProfileDigest]> = self
            .store
            .as_ref()
            .map(|store| store.digests().into())
            .unwrap_or_default();
        for i in 0..self.servers {
            plane.send_down(
                i,
                Downlink {
                    epoch: self.state.epoch,
                    cap: self.state.caps[i],
                    repair,
                    profiles: Arc::clone(&profiles),
                    // Ack watermarks ride the existing waves: a dropped
                    // downlink just means the agent re-ships a digest
                    // the idempotent fleet merge dedups.
                    journal_acked: self.fleet.as_ref().map_or(0, |f| f.log.acked[i]),
                },
            );
        }
    }
}

/// Whether the facility's upstream protection circuit is armed.
///
/// The cluster budget is a hard utility contract, not advice: a fleet
/// that keeps drawing above it gets cut off upstream. When the
/// aggregate net draw stays over budget for [`BREAKER_TRIP_AFTER_STEPS`]
/// consecutive steps an armed breaker trips — every up server is
/// slammed to the parked floor for [`BREAKER_HOLD_STEPS`] steps, then
/// restored to its pre-trip cap (a resilient agent additionally flags
/// itself so the next heartbeat corrects any staleness the hold
/// concealed). Both control-plane flavors face the same breaker — it is
/// physics, not policy — and a run that never violates never trips.
///
/// The breaker is opt-in: [`ControlOptions::perfect`] disarms it so the
/// fault-free fig-12 paths never trip it (utility-unaware RAPL capping
/// overshoots transiently while it actuates a budget drop, which a live
/// breaker would punish). The fault experiments arm it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Whether sustained overdraw trips the breaker. Disarmed, the
    /// violations are still scored and journalled, never punished.
    pub armed: bool,
}

impl BreakerConfig {
    /// No facility protection: violations are recorded but never
    /// punished.
    pub fn disabled() -> Self {
        Self { armed: false }
    }
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self { armed: true }
    }
}

/// The breaker's live state: the violation streak that arms it, the
/// step its clamp releases, and the trips so far.
#[derive(Default)]
struct Breaker {
    armed: bool,
    /// The clamp cap: the parked floor.
    floor: Watts,
    streak: u64,
    hold_until: Option<u64>,
    trips: u64,
    /// Where trips and their arming evidence are journalled.
    obs: Option<Obs>,
}

impl Breaker {
    /// Journals `event` at `now` (nothing without a journal).
    fn emit(&self, now: Seconds, event: ObsEvent) {
        if let Some(obs) = &self.obs {
            obs.emit(now, event);
        }
    }

    /// The hold expires at `step`: every up node gets its pre-trip cap
    /// back (a node that crashed during the hold cleared its clamp when
    /// it rebooted).
    fn release(&mut self, step: u64, now: Seconds, fleet: &mut [ServerAgent], up: &ControlPlane) {
        if self.hold_until == Some(step) {
            self.hold_until = None;
            self.emit(now, ObsEvent::BreakerRelease);
            for (_, agent) in fleet.iter_mut().enumerate().filter(|(i, _)| up.node_up(*i)) {
                agent.emergency_release();
            }
        }
    }

    /// The fleet drew `net` over `budget`: extends the streak and
    /// journals the arming evidence — the fleet-level violation, then
    /// each up server (`nets`) drawing above its *intended* share.
    /// Comparing against the manager's `shares` (not the cap the server
    /// currently obeys) attributes overdraw to a server running on a
    /// stale assignment — exactly the naive-flavor failure a merged
    /// timeline must surface.
    fn arm(
        &mut self,
        now: Seconds,
        net: Watts,
        budget: Watts,
        nets: &[(usize, Watts)],
        shares: &[Watts],
    ) {
        self.streak += 1;
        if self.obs.is_none() {
            return;
        }
        self.emit(
            now,
            ObsEvent::FleetOverBudget {
                net_w: net.value(),
                budget_w: budget.value(),
                streak: self.streak,
            },
        );
        for &(server, net) in nets.iter().filter(|(i, net)| net.violates_cap(shares[*i])) {
            self.emit(
                now,
                ObsEvent::ServerOverdraw {
                    server,
                    net_w: net.value(),
                    share_w: shares[server].value(),
                },
            );
        }
    }

    /// Trips an armed breaker whose streak is long enough: every up
    /// server is clamped to the floor until `step + BREAKER_HOLD_STEPS`.
    fn trip(&mut self, step: u64, now: Seconds, fleet: &mut [ServerAgent], up: &ControlPlane) {
        if !self.armed || self.hold_until.is_some() || self.streak < BREAKER_TRIP_AFTER_STEPS {
            return;
        }
        self.trips += 1;
        self.streak = 0;
        self.hold_until = Some(step + BREAKER_HOLD_STEPS);
        self.emit(
            now,
            ObsEvent::BreakerTrip {
                hold_steps: BREAKER_HOLD_STEPS,
                floor_w: self.floor.value(),
            },
        );
        for (server, agent) in fleet.iter_mut().enumerate().filter(|(i, _)| up.node_up(*i)) {
            agent.emergency_clamp(self.floor);
            self.emit(now, ObsEvent::EmergencyClamp { server });
        }
    }
}

/// Tuning of the fleet flight recorder
/// ([`run_cluster_flight_recorded`]): every agent gets its own journal,
/// ships size-capped deltas on its uplinks, and the manager folds them
/// (plus its own journal) into a merged [`FleetTimeline`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetObsOptions {
    /// Byte budget for one uplinked digest. A digest always carries at
    /// least one record so a backlog drains even under a tiny budget;
    /// the cap bounds bytes-on-the-wire per wave at
    /// `servers * max_digest_bytes`.
    pub max_digest_bytes: usize,
}

impl Default for FleetObsOptions {
    fn default() -> Self {
        Self {
            // Steady-state deltas are a handful of records (~120 bytes
            // each); 8 KiB lets a healed partition catch up within a
            // few waves without flooding the link.
            max_digest_bytes: 8192,
        }
    }
}

/// What a flight-recorded run hands back on top of the resilience
/// metrics: the merged timeline, the fleet-level metrics registry, and
/// the raw journal handles for per-server drill-down.
#[derive(Debug, Clone)]
pub struct FleetObsReport {
    /// The merged fleet timeline, keyed `(epoch, poll, server, seq)`.
    pub timeline: FleetTimeline,
    /// Manager-side fleet metrics (digest_bytes_total,
    /// merge_dedup_total, timeline_len, per-server last_acked_seq).
    pub metrics: MetricsRegistry,
    /// Digest bytes shipped on uplinks over the whole run.
    pub digest_bytes_total: u64,
    /// Largest single-step digest payload across all servers — bounded
    /// by `servers * max_digest_bytes` by construction.
    pub max_wave_bytes: u64,
    /// Digests that carried a `DigestGap` (ring wrapped past unshipped
    /// records).
    pub digest_gaps: u64,
    /// Final per-server ack watermarks.
    pub last_acked: Vec<u64>,
    /// The manager's own journal handle.
    pub manager_obs: Obs,
    /// Each server's journal handle, by server index.
    pub server_obs: Vec<Obs>,
}

/// Online-calibration and knowledge-plane configuration for a managed
/// cluster run.
///
/// `None` in [`ControlOptions::warm_start`] keeps the classic
/// exhaustive-calibration fleet, bit-identical to the pre-knowledge-plane
/// control plane. `Some` switches every server to sparse online
/// calibration; the store itself is a second opt-in so the experiment
/// can compare cold online calibration (probe on every admission)
/// against the warm fleet (consult the store first) under identical
/// probe schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStartOptions {
    /// Store tuning, or `None` for the cold-start baseline (online
    /// calibration without the knowledge plane).
    pub store: Option<StoreConfig>,
    /// Sparse-sampling fraction of the knob grid per admission.
    pub sampling_fraction: f64,
    /// Forced E4 drift injections: at step `.0`, server `.1`
    /// re-calibrates its first app, tombstoning the profile fleet-wide.
    pub drift_at: Vec<(u64, usize)>,
}

impl WarmStartOptions {
    /// Store decay tuned to control-plane epochs: assignment epochs are
    /// derived from control steps (~2 per second), so the per-epoch
    /// decay must be gentle for a profile to stay confident across a
    /// multi-minute run while still aging out abandoned entries.
    pub const CLUSTER_DECAY: f64 = 0.9999;

    /// The warm fleet: online calibration plus the knowledge plane.
    pub fn warm() -> Self {
        Self {
            store: Some(StoreConfig {
                decay_per_epoch: Self::CLUSTER_DECAY,
                ..StoreConfig::default()
            }),
            sampling_fraction: 0.10,
            drift_at: Vec::new(),
        }
    }

    /// The cold baseline: identical probe schedules, no store.
    pub fn cold() -> Self {
        Self {
            store: None,
            ..Self::warm()
        }
    }
}

/// Options for a managed cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlOptions {
    /// Resilient (heartbeats, checkpoints, liveness, fallback caps) or
    /// naive (fire-and-forget) flavor.
    pub resilient: bool,
    /// Fault injection configuration.
    pub faults: ClusterFaultConfig,
    /// Facility protection (shared by both flavors).
    pub breaker: BreakerConfig,
    /// Online calibration + profile knowledge plane (`None` keeps the
    /// exhaustive-calibration fleet bit-identical to before).
    pub warm_start: Option<WarmStartOptions>,
    /// Non-intrusive per-app power estimation on every server: each
    /// mediator plans on disaggregated shares instead of the oracle
    /// breakdown, and uplinks carry the estimated shares. `None` (the
    /// default, and what [`ControlOptions::perfect`] uses) keeps the
    /// oracle fleet bit-identical to before.
    pub estimation: Option<EstimatorConfig>,
}

impl ControlOptions {
    /// The fault-free resilient configuration [`ClusterManager::run`]
    /// uses.
    pub fn perfect(seed: u64) -> Self {
        Self {
            resilient: true,
            faults: ClusterFaultConfig::none(seed),
            breaker: BreakerConfig::disabled(),
            warm_start: None,
            estimation: None,
        }
    }
}

/// Outcome of one managed cluster run: the policy report plus the
/// resilience metrics layered on top.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// The Fig. 12b-style policy report.
    pub report: ClusterReport,
    /// Seconds the fleet's aggregate net draw exceeded the budget.
    pub violation_seconds: f64,
    /// Integral of the excess above budget (watt-seconds).
    pub excess_watt_seconds: f64,
    /// Control-plane fault and response counters.
    pub stats: ClusterControlStats,
    /// FNV-1a digest of the deterministic fault history.
    pub trace_digest: u64,
    /// Fleet-wide probe accounting across every server incarnation
    /// (all-cold when warm start is off).
    pub probe_split: ProbeSplit,
    /// Fleet-wide profile-store event counters (all zero when warm
    /// start is off).
    pub store_stats: ProfileStoreStats,
    /// Entries on which the manager's store and any agent's store still
    /// disagree at run end (0 = the knowledge plane converged). `None`
    /// when the knowledge plane is off.
    pub store_divergence: Option<usize>,
    /// Fleet flight-recorder outcome (`None` unless the run came
    /// through [`run_cluster_flight_recorded`]).
    pub fleet: Option<FleetObsReport>,
}

/// Fingerprints whose profiles differ between two digest sets (an entry
/// present on only one side counts as differing).
fn digest_divergence(a: &[ProfileDigest], b: &[ProfileDigest]) -> usize {
    let index = |side: &[ProfileDigest]| -> std::collections::BTreeMap<_, _> {
        side.iter()
            .map(|d| (d.fingerprint, d.profile.clone()))
            .collect()
    };
    let ma = index(a);
    let mb = index(b);
    ma.keys()
        .chain(mb.keys())
        .filter(|fp| ma.get(*fp) != mb.get(*fp))
        .collect::<std::collections::BTreeSet<_>>()
        .len()
}

/// Per-server value curves over the candidate caps, through the shared
/// [`MeasurementCache`] so repeated cluster experiments stop
/// re-measuring identical mixes. A curve depends only on its mix, so a
/// server whose mix equals an earlier server's (by content, not just
/// [`Mix::id`]) gets a copy of that curve instead of a re-plan.
pub fn value_curves(spec: &ServerSpec, mixes: &[Mix]) -> Vec<Vec<(Watts, f64)>> {
    let esd = EsdParams {
        efficiency: Ratio::new(0.75),
        max_discharge: Watts::new(100.0),
        max_charge: Watts::new(50.0),
    };
    let policy = PowerPolicy::new(PolicyKind::AppResEsdAware, spec.clone());
    let cache = MeasurementCache::global();
    let mut curves: Vec<Vec<(Watts, f64)>> = Vec::with_capacity(mixes.len());
    for (i, mix) in mixes.iter().enumerate() {
        let curve = match mixes[..i].iter().position(|earlier| earlier == mix) {
            Some(j) => curves[j].clone(),
            None => {
                let a = cache.measure(spec, &mix.app1);
                let b = cache.measure(spec, &mix.app2);
                let apps = [(mix.app1.name(), &*a), (mix.app2.name(), &*b)];
                ClusterManager::candidate_caps()
                    .map(|cap| {
                        let schedule = policy.plan(&apps, cap, Some(esd));
                        (cap, schedule.expected_mean_normalized(&apps))
                    })
                    .collect()
            }
        };
        curves.push(curve);
    }
    curves
}

/// Where a run's journal records go.
enum Recording {
    /// No flight recorder (zero-cost).
    Off,
    /// One shared journal for the plane's fault mirrors, the breaker's
    /// decisions and every agent's records.
    Shared(Obs),
    /// The fleet flight recorder: one journal per server, shipped
    /// upstream as digests, plus the manager's own, which the plane
    /// mirrors its faults into and the breaker journals to.
    Fleet {
        /// Byte budget of one uplinked digest
        /// ([`FleetObsOptions::max_digest_bytes`]).
        digest_cap: usize,
        manager: Obs,
        servers: Vec<Obs>,
    },
}

impl Recording {
    /// The journal of the plane and the breaker.
    fn control(&self) -> Option<&Obs> {
        match self {
            Self::Off => None,
            Self::Shared(obs) => Some(obs),
            Self::Fleet { manager, .. } => Some(manager),
        }
    }

    /// Server `i`'s journal.
    fn server(&self, i: usize) -> Option<&Obs> {
        match self {
            Self::Fleet { servers, .. } => Some(&servers[i]),
            _ => self.control(),
        }
    }
}

/// One managed cluster run: the fleet, its control plane, and the
/// per-step pipeline that drives them. Each phase is one method, called
/// once per control step in a fixed order (see [`run_cluster`]).
struct FleetRun<'a> {
    label: ClusterPolicy,
    trace: &'a ClusterPowerTrace,
    dt: Seconds,
    options: &'a ControlOptions,
    recording: Recording,
    plane: ControlPlane,
    manager: Manager,
    agents: Vec<ServerAgent>,
    breaker: Breaker,
    /// This step's net draw of every up server, in server order.
    nets: Vec<(usize, Watts)>,
    energy: Joules,
    violation_seconds: f64,
    excess_watt_seconds: f64,
    digest_bytes_total: u64,
    max_wave_bytes: u64,
    now: Seconds,
}

impl<'a> FleetRun<'a> {
    /// Boots the fleet on the equal share of the trace's first budget
    /// and hands the plane, the breaker and each agent their journal.
    fn new(
        mixes: &'a [Mix],
        policy: ManagedPolicy,
        trace: &'a ClusterPowerTrace,
        dt: Seconds,
        options: &'a ControlOptions,
        recording: Recording,
    ) -> Self {
        let spec = ServerSpec::xeon_e5_2620();
        let servers = mixes.len();
        assert!(servers > 0, "cluster needs at least one server");
        let initial_share = trace.at(Seconds::ZERO) / servers as f64;
        let floor = ClusterManager::cap_floor_for(&spec);
        let book = PlanBook::default();
        let agents = mixes
            .iter()
            .enumerate()
            .map(|(i, mix)| {
                let obs = recording.server(i).cloned();
                let id = i as u64;
                ServerAgent::new_with(&spec, mix, policy, options, initial_share, id, obs, &book)
            })
            .collect();
        let curves = match policy.apportionment {
            Apportionment::Equal => None,
            Apportionment::UtilityDp => Some(value_curves(&spec, mixes)),
        };
        let mut plane = ControlPlane::new(options.faults.clone(), servers);
        if let Some(obs) = recording.control() {
            plane.set_observability(obs.clone(), dt);
        }
        let fleet = match &recording {
            Recording::Fleet { manager, .. } => Some(ManagerFleet {
                obs: manager.clone(),
                log: FleetLog::new(servers),
                digest_gaps: 0,
            }),
            _ => None,
        };
        let store = options.warm_start.as_ref().and_then(|w| w.store);
        let manager = Manager {
            resilient: options.resilient,
            apportionment: policy.apportionment,
            curves,
            table: None,
            servers,
            initial_share,
            floor,
            state: ManagerState::initial(servers, initial_share, policy.apportionment),
            store: store.map(ProfileStore::new),
            fleet,
            checkpoint: None,
            membership_dirty: false,
            stats: ClusterControlStats::default(),
        };
        let breaker = Breaker {
            armed: options.breaker.armed,
            floor,
            obs: recording.control().cloned(),
            ..Breaker::default()
        };
        Self {
            label: policy.label,
            trace,
            dt,
            options,
            recording,
            plane,
            manager,
            agents,
            breaker,
            nets: Vec::with_capacity(servers),
            energy: Joules::ZERO,
            violation_seconds: 0.0,
            excess_watt_seconds: 0.0,
            digest_bytes_total: 0,
            max_wave_bytes: 0,
            now: Seconds::ZERO,
        }
    }

    /// Runs every control step of the trace and reports.
    fn run(mut self) -> ResilienceReport {
        let steps = self.advance();
        self.finish(steps)
    }

    /// Runs every control step of the trace, returning how many.
    fn advance(&mut self) -> u64 {
        let steps = (self.trace.duration().value() / self.dt.value()).ceil() as u64;
        for step in 0..steps {
            let budget = self.trace.at(self.now);
            self.churn(step);
            self.breaker
                .release(step, self.now, &mut self.agents, &self.plane);
            self.manager.step(step, budget, &mut self.plane);
            self.deliver_downlinks();
            self.inject_drift(step);
            self.simulate_and_uplink(step);
            self.score(step, budget);
            self.now += self.dt;
        }
        steps
    }

    /// Advances the plane to `step` (recording a scheduled manager crash
    /// or takeover), then node churn: restarts first (a node that
    /// crashed `node_down_steps` ago rejoins), then fresh crash rolls.
    fn churn(&mut self, step: u64) {
        self.plane.begin_step(step);
        if let Some(fleet) = &self.manager.fleet {
            // Manager-side records get a poll counter aligned with the
            // control step, comparable to the per-server mediator polls.
            fleet.obs.begin_poll();
        }
        for (i, agent) in self.agents.iter_mut().enumerate() {
            if !self.plane.node_up(i) {
                if self.plane.restart_due(i) {
                    agent.restart(self.now);
                }
            } else if self.plane.roll_crash(i) {
                agent.crash();
            }
        }
    }

    /// Delivers the downlinks due at every up node; those due at a down
    /// node are lost.
    fn deliver_downlinks(&mut self) {
        for (i, agent) in self.agents.iter_mut().enumerate() {
            if self.plane.node_up(i) {
                agent.receive(&self.plane.poll_down(i));
            } else {
                self.plane.discard_due_downlinks(i);
            }
        }
    }

    /// Scheduled E4 drift injections: the server's first app stops
    /// matching its profile and must re-calibrate, tombstoning the
    /// fleet-wide store entry on the way.
    fn inject_drift(&mut self, step: u64) {
        for &(at, server) in self.options.warm_start.iter().flat_map(|w| &w.drift_at) {
            if at == step && server < self.agents.len() && self.plane.node_up(server) {
                self.agents[server].force_drift();
            }
        }
    }

    /// Steps the simulation of every up node and sends its telemetry
    /// uplink, with the since-last-ack journal delta in fleet mode.
    fn simulate_and_uplink(&mut self, step: u64) {
        let digest_cap = match &self.recording {
            Recording::Fleet { digest_cap, .. } => Some(*digest_cap),
            _ => None,
        };
        let mut wave_bytes = 0u64;
        self.nets.clear();
        for (i, agent) in self.agents.iter_mut().enumerate() {
            if !self.plane.node_up(i) {
                continue;
            }
            let net = agent.step(self.dt).net_power;
            self.nets.push((i, net));
            // Shipped on *every* wave until acked — a dropped uplink or
            // a dead manager just means the next wave re-ships a digest
            // the idempotent fleet merge dedups.
            let journal = digest_cap.and_then(|max| agent.ship_journal(max));
            wave_bytes += journal.as_ref().map_or(0, |d| d.bytes);
            let uplink = Uplink {
                server: i,
                sent_step: step,
                net_power: net,
                profiles: agent.take_profile_digests(),
                app_shares: agent.estimated_shares(),
                journal,
            };
            self.plane.send_up(i, uplink);
        }
        self.digest_bytes_total += wave_bytes;
        self.max_wave_bytes = self.max_wave_bytes.max(wave_bytes);
    }

    /// Accounts the step's energy, scores the fleet's net draw against
    /// `budget`, and lets the breaker arm or trip.
    fn score(&mut self, step: u64, budget: Watts) {
        let mut net = Watts::ZERO;
        for &(_, server_net) in &self.nets {
            self.energy += server_net * self.dt;
            net += server_net;
        }
        if net.violates_cap(budget) {
            self.violation_seconds += self.dt.value();
            self.excess_watt_seconds += (net - budget).value() * self.dt.value();
            let shares = &self.manager.state.caps;
            self.breaker.arm(self.now, net, budget, &self.nets, shares);
        } else {
            self.breaker.streak = 0;
        }
        self.breaker
            .trip(step, self.now, &mut self.agents, &self.plane);
    }

    /// A per-agent counter summed over the fleet.
    fn total(&self, count: fn(&ServerAgent) -> u64) -> u64 {
        self.agents.iter().map(count).sum()
    }

    /// Fleet-wide profile-store counters across every incarnation.
    fn store_stats(&self) -> ProfileStoreStats {
        self.agents
            .iter()
            .fold(ProfileStoreStats::default(), |acc, a| {
                acc.merged(&a.store_stats())
            })
    }

    /// Scores `steps` steps of work and assembles the report.
    fn finish(mut self, steps: u64) -> ResilienceReport {
        let simulated = steps as f64 * self.dt.value();
        let per_app_perf = (self.agents.iter())
            .flat_map(|a| a.normalized_perf(simulated))
            .collect();
        let m = self.manager.stats;
        let stats = ClusterControlStats {
            heartbeat_misses: self.total(ServerAgent::heartbeat_misses),
            fallback_engagements: self.total(ServerAgent::fallback_engagements),
            manager_failovers: m.manager_failovers,
            checkpoints: m.checkpoints,
            dead_declarations: m.dead_declarations,
            rejoins: m.rejoins,
            reapportionments: m.reapportionments,
            breaker_trips: self.breaker.trips,
            ..self.plane.stats()
        };
        let probe_split = self
            .agents
            .iter()
            .fold(ProbeSplit::default(), |acc, a| acc.merged(&a.probe_split()));
        let store_stats = self.store_stats();
        let store_divergence = self.manager.store.as_ref().map(|store| {
            let reference = store.digests();
            self.agents
                .iter()
                .map(|a| digest_divergence(&reference, &a.store_digests()))
                .sum()
        });
        let fleet = if let Recording::Fleet {
            manager, servers, ..
        } = self.recording
        {
            let mut mf = self.manager.fleet.take().expect("fleet recording is on");
            mf.drain(&servers);
            Some(FleetObsReport {
                timeline: mf.log.timeline,
                metrics: manager.metrics(),
                digest_bytes_total: self.digest_bytes_total,
                max_wave_bytes: self.max_wave_bytes,
                digest_gaps: mf.digest_gaps,
                last_acked: mf.log.acked,
                manager_obs: manager,
                server_obs: servers,
            })
        } else {
            None
        };
        ResilienceReport {
            report: ClusterReport::from_parts(self.label, per_app_perf, self.energy),
            violation_seconds: self.violation_seconds,
            excess_watt_seconds: self.excess_watt_seconds,
            stats,
            trace_digest: fault_trace_digest(self.plane.records()),
            probe_split,
            store_stats,
            store_divergence,
            fleet,
        }
    }
}

/// Runs `policy` over `trace` through the manager ↔ agent control plane.
///
/// Each control step is a fixed pipeline of phases, all deterministic:
/// churn (scheduled manager events, node restarts, then crash rolls),
/// breaker release, the manager (takeover, telemetry drain,
/// apportionment, heartbeats, checkpoint), downlink delivery, scheduled
/// drift, the simulation step and telemetry uplink of every up node,
/// and budget scoring with the breaker's arm and trip.
pub fn run_cluster(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
) -> ResilienceReport {
    FleetRun::new(mixes, policy, trace, dt, options, Recording::Off).run()
}

/// [`run_cluster`] with an optional flight-recorder handle attached to
/// the control plane and every agent's mediator and simulation. Passing
/// `None` is exactly [`run_cluster`]; the handle changes bookkeeping
/// only, never physics or policy.
pub fn run_cluster_observed(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
    obs: Option<&Obs>,
) -> ResilienceReport {
    let recording = obs.map_or(Recording::Off, |o| Recording::Shared(o.clone()));
    FleetRun::new(mixes, policy, trace, dt, options, recording).run()
}

/// [`run_cluster`] with the *fleet* flight recorder on: every server
/// journals locally and ships size-capped deltas on its uplinks, the
/// manager journals its own decisions (and the control plane's mirrored
/// fault events) and folds everything into a merged [`FleetTimeline`]
/// returned in [`ResilienceReport::fleet`]. Like the single-journal
/// mode, recording changes bookkeeping only — the physics, policy and
/// fault history stay bit-identical to [`run_cluster`].
pub fn run_cluster_flight_recorded(
    mixes: &[Mix],
    policy: ManagedPolicy,
    trace: &ClusterPowerTrace,
    dt: Seconds,
    options: &ControlOptions,
    fleet: &FleetObsOptions,
) -> ResilienceReport {
    let recording = Recording::Fleet {
        digest_cap: fleet.max_digest_bytes,
        manager: Obs::default(),
        servers: (0..mixes.len()).map(|_| Obs::default()).collect(),
    };
    FleetRun::new(mixes, policy, trace, dt, options, recording).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_telemetry::metrics::prom_label;
    use powermed_workloads::mixes;

    const DT: Seconds = Seconds::new(0.5);

    fn mixes_for(n: usize) -> Vec<Mix> {
        (0..n).map(|i| mixes::mix((i % 15) + 1).unwrap()).collect()
    }

    fn short_trace(servers: usize) -> ClusterPowerTrace {
        ClusterPowerTrace::synthetic_diurnal(servers, Seconds::new(60.0), 3)
            .peak_shaved(Ratio::new(0.30))
            .clamped_below(Watts::new(78.0 * servers as f64))
    }

    #[test]
    fn estimating_fleet_completes_under_the_same_fault_history() {
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let oracle = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(3),
        );
        let estimating = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                estimation: Some(EstimatorConfig::default()),
                ..ControlOptions::perfect(3)
            },
        );
        // Estimation changes what the mediators plan on, never the
        // control plane's fault stream (CRN holds across the flavors).
        assert_eq!(oracle.trace_digest, estimating.trace_digest);
        for perf in &estimating.report.per_app_perf {
            assert!(
                (0.05..=1.1).contains(perf),
                "estimating fleet keeps apps running: {perf}"
            );
        }
    }

    #[test]
    fn fault_free_plane_consumes_no_randomness_and_delivers_everything() {
        let mut plane = ControlPlane::new(ClusterFaultConfig::none(1), 2);
        plane.begin_step(0);
        plane.send_down(0, Downlink::assignment(1, Watts::new(90.0), false));
        plane.send_up(1, Uplink::report(1, 0, Watts::new(80.0)));
        assert_eq!(plane.poll_down(0).len(), 1);
        assert!(plane.poll_up().is_empty(), "uplinks land next step");
        plane.begin_step(1);
        assert_eq!(plane.poll_up().len(), 1);
        assert_eq!(plane.stats().injected_events(), 0);
        assert!(plane.records().is_empty());
    }

    #[test]
    fn lossy_plane_is_deterministic_per_seed() {
        let config = ClusterFaultConfig {
            downlink_drop_prob: 0.3,
            downlink_delay_max_steps: 2,
            uplink_drop_prob: 0.3,
            uplink_delay_max_steps: 2,
            ..ClusterFaultConfig::none(9)
        };
        let run = |config: &ClusterFaultConfig| {
            let mut plane = ControlPlane::new(config.clone(), 3);
            for step in 0..50 {
                plane.begin_step(step);
                for i in 0..3 {
                    plane.send_down(i, Downlink::assignment(step, Watts::new(90.0), false));
                    plane.send_up(i, Uplink::report(i, step, Watts::new(80.0)));
                    plane.poll_down(i);
                }
                plane.poll_up();
            }
            (fault_trace_digest(plane.records()), plane.stats())
        };
        let (d1, s1) = run(&config);
        let (d2, s2) = run(&config);
        assert_eq!(d1, d2, "same seed, same fault history");
        assert_eq!(s1, s2);
        assert!(s1.downlinks_dropped > 0);
        assert!(s1.uplinks_delayed > 0);
        let reseeded = ClusterFaultConfig { seed: 10, ..config };
        let (d3, _) = run(&reseeded);
        assert_ne!(d1, d3, "different seed, different fault history");
    }

    #[test]
    fn partition_cuts_both_directions_for_the_window() {
        let config = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 0,
                from_step: 5,
                until_step: 10,
            }],
            ..ClusterFaultConfig::none(4)
        };
        let mut plane = ControlPlane::new(config, 2);
        plane.begin_step(5);
        assert!(plane.partitioned(0));
        assert!(!plane.partitioned(1));
        plane.send_down(0, Downlink::assignment(1, Watts::new(90.0), false));
        plane.send_up(0, Uplink::report(0, 5, Watts::new(80.0)));
        assert_eq!(plane.stats().messages_lost_endpoint_down, 2);
        plane.begin_step(10);
        assert!(!plane.partitioned(0), "window end is exclusive");
    }

    #[test]
    fn naive_and_resilient_agree_when_faults_are_off() {
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let resilient = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(11),
        );
        let naive = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                resilient: false,
                ..ControlOptions::perfect(11)
            },
        );
        assert_eq!(resilient.report, naive.report);
        assert_eq!(resilient.trace_digest, naive.trace_digest);
        // A fault-free plane injects nothing and never misses a beat.
        for run in [&resilient, &naive] {
            assert_eq!(run.stats.injected_events(), 0);
            assert_eq!(run.stats.heartbeat_misses, 0);
            assert_eq!(run.stats.fallback_engagements, 0);
        }
    }

    #[test]
    fn node_crash_restarts_and_rejoins() {
        let config = ClusterFaultConfig {
            node_crash_prob: 0.02,
            node_down_steps: 10,
            ..ClusterFaultConfig::none(21)
        };
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &short_trace(2),
            DT,
            &ControlOptions {
                faults: config,
                ..ControlOptions::perfect(21)
            },
        );
        assert!(report.stats.node_crashes > 0, "{:?}", report.stats);
        assert!(report.stats.node_restarts > 0);
        assert!(report.report.aggregate_normalized_perf > 0.0);
    }

    #[test]
    fn manager_failover_restores_from_checkpoint() {
        let config = ClusterFaultConfig {
            manager_crash_step: Some(40),
            manager_takeover_steps: 20,
            ..ClusterFaultConfig::none(31)
        };
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &short_trace(2),
            DT,
            &ControlOptions {
                faults: config,
                ..ControlOptions::perfect(31)
            },
        );
        assert_eq!(report.stats.manager_failovers, 1);
        assert!(report.stats.checkpoints > 0);
        // The takeover reapportions at a fresh epoch.
        assert!(report.stats.reapportionments >= 1);
        assert!(report.report.aggregate_normalized_perf > 0.0);
    }

    #[test]
    fn partitioned_agent_falls_back_and_stays_near_budget() {
        // Server 0 is cut off for 40 s; the resilient flavor decays it
        // to the floor while the naive one keeps the stale cap.
        let trace = short_trace(2);
        let config = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 0,
                from_step: 20,
                until_step: 100,
            }],
            ..ClusterFaultConfig::none(41)
        };
        let resilient = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                faults: config.clone(),
                ..ControlOptions::perfect(41)
            },
        );
        assert!(resilient.stats.heartbeat_misses > 0);
        assert!(resilient.stats.fallback_engagements >= 1);
        // The manager eventually declares the silent node dead and
        // reapportions, then takes it back on rejoin.
        assert!(resilient.stats.dead_declarations >= 1);
        assert!(resilient.stats.rejoins >= 1);
    }

    #[test]
    fn warm_fleet_reprobes_less_than_cold_under_churn() {
        // Same seed, same crash history: the cold fleet re-measures its
        // full sparse schedule after every reboot, the warm fleet
        // restores its store snapshot and re-admits without probing.
        let trace = short_trace(2);
        let mixes = mixes_for(2);
        let faults = ClusterFaultConfig {
            node_crash_prob: 0.02,
            node_down_steps: 10,
            ..ClusterFaultConfig::none(21)
        };
        let run = |warm: WarmStartOptions| {
            run_cluster(
                &mixes,
                ManagedPolicy::equal_ours(),
                &trace,
                DT,
                &ControlOptions {
                    faults: faults.clone(),
                    warm_start: Some(warm),
                    ..ControlOptions::perfect(21)
                },
            )
        };
        let cold = run(WarmStartOptions::cold());
        let warm = run(WarmStartOptions::warm());
        assert_eq!(
            cold.trace_digest, warm.trace_digest,
            "common random numbers: identical fault history"
        );
        assert!(cold.stats.node_crashes > 0, "{:?}", cold.stats);
        assert_eq!(cold.probe_split.skipped, 0);
        assert_eq!(cold.store_divergence, None);
        assert!(
            warm.probe_split.measured() < cold.probe_split.measured(),
            "warm {:?} vs cold {:?}",
            warm.probe_split,
            cold.probe_split
        );
        assert!(warm.probe_split.skipped > 0);
        assert!(warm.store_stats.hits > 0);
    }

    #[test]
    fn partition_heal_converges_the_stores_after_drift() {
        // Both servers host the same mix (same fingerprints). Server 1
        // is partitioned while server 0 suffers E4 drift: its profile is
        // tombstoned and republished at a higher version. After the
        // partition heals, heartbeats must bring server 1's store to the
        // fresh version — no stale profile left anywhere.
        let trace = short_trace(2);
        let mixes = vec![mixes::mix(1).unwrap(), mixes::mix(1).unwrap()];
        let faults = ClusterFaultConfig {
            partitions: vec![PartitionWindow {
                server: 1,
                from_step: 10,
                until_step: 60,
            }],
            ..ClusterFaultConfig::none(5)
        };
        let warm = WarmStartOptions {
            drift_at: vec![(30, 0)],
            ..WarmStartOptions::warm()
        };
        let report = run_cluster(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                faults,
                warm_start: Some(warm),
                ..ControlOptions::perfect(5)
            },
        );
        assert!(
            report.store_stats.invalidations >= 1,
            "{:?}",
            report.store_stats
        );
        assert_eq!(
            report.store_divergence,
            Some(0),
            "stores must converge after the heal: {:?}",
            report.store_stats
        );
        // The drift re-measurement ran fresh probes even though the
        // first admission had already covered the schedule.
        assert!(report.probe_split.measured() > 0);
    }

    #[test]
    fn observed_run_is_bit_identical_and_journals_the_control_plane() {
        use powermed_telemetry::journal::ObsConfig;
        // A budget step mid-run forces a real reapportionment, so the
        // journal sees fresh-epoch assignment waves, not just heartbeats.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(160.0)),
            (Seconds::new(30.0), Watts::new(130.0)),
            (Seconds::new(60.0), Watts::new(160.0)),
        ]);
        let mixes = mixes_for(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig::default_scenario(13),
            ..ControlOptions::perfect(13)
        };
        let base = run_cluster(&mixes, ManagedPolicy::equal_ours(), &trace, DT, &options);
        let obs = Obs::new(ObsConfig::default());
        let observed = run_cluster_observed(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            Some(&obs),
        );
        // The flight recorder is bookkeeping only: physics, policy, and
        // the fault history are untouched by attaching it.
        assert_eq!(base.report, observed.report);
        assert_eq!(base.trace_digest, observed.trace_digest);
        assert_eq!(base.violation_seconds, observed.violation_seconds);
        assert_eq!(base.stats, observed.stats);
        assert_eq!(base.excess_watt_seconds, observed.excess_watt_seconds);
        // Message lifecycle and mirrored fault records hit the journal.
        let journal = obs.journal_snapshot();
        let kinds: std::collections::BTreeSet<&str> =
            journal.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains("downlink_sent"), "kinds: {kinds:?}");
        assert!(kinds.contains("uplink_sent"), "kinds: {kinds:?}");
        assert!(
            kinds.contains("link_dropped") || kinds.contains("link_delayed"),
            "the reference scenario injects link faults: {kinds:?}"
        );
        assert!(kinds.contains("poll"), "mediator polls are journalled");
        let metrics = obs.metrics();
        assert!(
            metrics.counter(&prom_label(
                "events_by_kind_total",
                &[("kind", "uplink_sent")]
            )) > 0
        );
        // Adopted assignment epochs are stamped onto later records.
        assert!(
            journal.iter().any(|r| r.epoch > 0),
            "downlink adoption sets the journal epoch"
        );
    }

    #[test]
    fn zero_duration_trace_yields_empty_run() {
        let trace = ClusterPowerTrace::from_samples(vec![(Seconds::ZERO, Watts::new(200.0))]);
        let report = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions::perfect(1),
        );
        assert_eq!(report.report.per_app_perf, vec![0.0; 4]);
        assert_eq!(report.violation_seconds, 0.0);
        assert_eq!(report.report.energy, Joules::ZERO);
    }

    #[test]
    fn sustained_overdraw_trips_the_breaker_and_bounds_violations() {
        // Budget steps down at t=30 s but every downlink is lost, so the
        // naive fleet keeps drawing at its boot caps. The facility
        // breaker must trip repeatedly — clamping the fleet to the floor
        // for each cooldown — so total violation time stays well below
        // the unprotected run's.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(200.0)),
            (Seconds::new(30.0), Watts::new(120.0)),
            (Seconds::new(60.0), Watts::new(120.0)),
        ]);
        let faults = ClusterFaultConfig {
            downlink_drop_prob: 1.0,
            ..ClusterFaultConfig::none(9)
        };
        let opts = ControlOptions {
            resilient: false,
            faults,
            breaker: BreakerConfig::default(),
            ..ControlOptions::perfect(9)
        };
        let protected = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &opts,
        );
        let unprotected = run_cluster(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &ControlOptions {
                breaker: BreakerConfig::disabled(),
                ..opts.clone()
            },
        );
        assert_eq!(unprotected.stats.breaker_trips, 0);
        assert!(
            unprotected.violation_seconds >= 25.0,
            "unprotected naive fleet stays in violation: {:.1} s",
            unprotected.violation_seconds
        );
        assert!(
            protected.stats.breaker_trips >= 2,
            "breaker re-trips while the stale cap keeps coming back: {}",
            protected.stats.breaker_trips
        );
        assert!(
            protected.violation_seconds < 0.5 * unprotected.violation_seconds,
            "clamp holds bound the violation time: {:.1} vs {:.1} s",
            protected.violation_seconds,
            unprotected.violation_seconds
        );
    }

    #[test]
    fn flight_recorded_run_is_bit_identical_and_merges_every_journal() {
        // Same shape as the single-journal bit-identity test, but with
        // the fleet recorder: per-server journals ship digests over the
        // lossy reference plane and the manager merges them.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(160.0)),
            (Seconds::new(30.0), Watts::new(130.0)),
            (Seconds::new(60.0), Watts::new(160.0)),
        ]);
        let mixes = mixes_for(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig::default_scenario(13),
            ..ControlOptions::perfect(13)
        };
        let base = run_cluster(&mixes, ManagedPolicy::equal_ours(), &trace, DT, &options);
        let fo = FleetObsOptions::default();
        let recorded = run_cluster_flight_recorded(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &fo,
        );
        // Zero-cost-off, fleet flavor: recording changes bookkeeping
        // only — physics, policy and the fault history are untouched.
        assert_eq!(base.report, recorded.report);
        assert_eq!(base.trace_digest, recorded.trace_digest);
        assert_eq!(base.violation_seconds, recorded.violation_seconds);
        assert_eq!(base.stats, recorded.stats);
        assert_eq!(base.excess_watt_seconds, recorded.excess_watt_seconds);
        assert!(base.fleet.is_none(), "plain runs carry no fleet report");

        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        // Every journal reached the timeline: both servers and the
        // manager's own (which holds the plane's mirrored fault events).
        let sources: std::collections::BTreeSet<u64> =
            fleet.timeline.iter().map(|e| e.server_id).collect();
        assert!(sources.contains(&0), "sources: {sources:?}");
        assert!(sources.contains(&1), "sources: {sources:?}");
        assert!(sources.contains(&MANAGER_SERVER_ID), "sources: {sources:?}");
        // Acks rode the downlink waves and advanced the watermarks.
        assert!(
            fleet.last_acked.iter().all(|a| *a > 0),
            "acks advanced: {:?}",
            fleet.last_acked
        );
        // Bytes-on-the-wire are bounded per wave by construction.
        assert!(fleet.digest_bytes_total > 0);
        assert!(
            fleet.max_wave_bytes <= (mixes.len() * fo.max_digest_bytes) as u64,
            "wave bound: {} <= {}",
            fleet.max_wave_bytes,
            mixes.len() * fo.max_digest_bytes
        );
        // The manager-side registry exposes the satellite metrics.
        assert!(fleet.metrics.counter("digest_bytes_total") > 0);
        assert_eq!(
            fleet.metrics.gauge("timeline_len"),
            Some(fleet.timeline.len() as f64)
        );
        assert!(fleet
            .metrics
            .gauge(&prom_label("last_acked_seq", &[("server", "0")]))
            .is_some());

        // Same seed, same merged timeline — byte-identical.
        let again = run_cluster_flight_recorded(
            &mixes,
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &fo,
        );
        let fleet_again = again.fleet.as_ref().expect("fleet report attached");
        assert_eq!(fleet.timeline.digest(), fleet_again.timeline.digest());
        assert_eq!(fleet.timeline, fleet_again.timeline);
    }

    #[test]
    fn fleet_timeline_survives_manager_failover() {
        // Kill the resilient manager mid-run: the standby restores the
        // checkpointed timeline and the agents re-ship whatever the
        // crash lost, so records from before the kill are still present
        // at run end.
        let trace = short_trace(2);
        let options = ControlOptions {
            faults: ClusterFaultConfig {
                manager_crash_step: Some(60),
                manager_takeover_steps: 10,
                ..ClusterFaultConfig::default_scenario(21)
            },
            ..ControlOptions::perfect(21)
        };
        let recorded = run_cluster_flight_recorded(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &options,
            &FleetObsOptions::default(),
        );
        assert!(recorded.stats.manager_failovers >= 1);
        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        // Pre-kill records (t < 30 s) from both servers survived the
        // takeover, through the checkpoint or an idempotent re-ship.
        for server in [0u64, 1u64] {
            assert!(
                fleet
                    .timeline
                    .iter()
                    .any(|e| e.server_id == server && e.record.at < Seconds::new(30.0)),
                "server {server} pre-kill records survive the failover"
            );
        }
        // The failover is itself on the record — both as mirrored fault
        // events in the manager's journal and as a metrics counter.
        assert!(fleet
            .manager_obs
            .journal_snapshot()
            .iter()
            .any(|r| matches!(r.event, ObsEvent::ManagerCrash | ObsEvent::ManagerTakeover)));
        assert!(fleet.metrics.counter("timeline_failovers_total") > 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
    fn warm_flight_recorded_failover_is_pinned() {
        // The failover test's fleet with warm start on: the resilient
        // standby restores a checkpoint into a flight-recorded,
        // warm-started fleet, which no committed golden exercises.
        let options = ControlOptions {
            faults: ClusterFaultConfig {
                manager_crash_step: Some(60),
                manager_takeover_steps: 10,
                ..ClusterFaultConfig::default_scenario(21)
            },
            warm_start: Some(WarmStartOptions::warm()),
            ..ControlOptions::perfect(21)
        };
        let run = |max_digest_bytes| {
            run_cluster_flight_recorded(
                &mixes_for(2),
                ManagedPolicy::equal_ours(),
                &short_trace(2),
                DT,
                &options,
                &FleetObsOptions { max_digest_bytes },
            )
        };
        // Constants taken before the recorder and the store learned to
        // skip redundant work, and before the journal kept each
        // record's wire cost; any drift means a cut was not exact.
        // A 256-byte budget holds one or two records, so most waves
        // truncate and re-ship their tail: the byte accounting of every
        // re-shipped record shows in the totals below.
        let starved = run(256);
        let fleet = starved.fleet.as_ref().expect("fleet report");
        assert_eq!(fleet.timeline.digest(), 0x4aa7_f345_beef_932b);
        assert_eq!(fleet.timeline.merged_total(), 737);
        assert_eq!(fleet.timeline.dedup_total(), 111);
        assert_eq!(fleet.digest_bytes_total, 58_085);
        assert_eq!(fleet.max_wave_bytes, 493);
        assert_eq!(fleet.digest_gaps, 0);
        assert_eq!(fleet.last_acked, [121, 122]);
        let recorded = run(FleetObsOptions::default().max_digest_bytes);
        let fleet = recorded.fleet.as_ref().expect("fleet report");
        let timeline = &fleet.timeline;
        assert_eq!(timeline.digest(), 0x4619_9524_c4ce_16bc);
        assert_eq!(timeline.merged_total(), 713);
        assert_eq!(timeline.dedup_total(), 550);
        assert_eq!(fleet.digest_bytes_total, 279_789);
        assert_eq!(fleet.max_wave_bytes, 7945);
        assert_eq!(fleet.digest_gaps, 0);
        assert_eq!(fleet.last_acked, [121, 122]);
        assert_eq!(
            recorded.store_stats,
            ProfileStoreStats {
                hits: 0,
                misses: 4,
                invalidations: 0,
                evictions: 0,
                inserts: 6,
                merges: 157,
                bytes: 7200,
            }
        );
        assert_eq!(
            recorded.probe_split,
            ProbeSplit {
                cold: 172,
                warm: 0,
                skipped: 0,
            }
        );
        assert_eq!(recorded.store_divergence, Some(0));
        assert_eq!(
            recorded.stats,
            ClusterControlStats {
                downlinks_dropped: 1,
                downlinks_delayed: 37,
                uplinks_dropped: 28,
                uplinks_delayed: 147,
                messages_lost_endpoint_down: 20,
                heartbeat_misses: 5,
                manager_failovers: 1,
                checkpoints: 5,
                reapportionments: 1,
                ..ClusterControlStats::default()
            }
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, ignore = "slow in debug builds; run with --release")]
    fn utility_dp_exclusions_are_pinned() {
        // The resilient utility-curve fleet under churn, message loss,
        // two long partitions and a manager failover: nodes are excluded
        // past `REAPPORTION_AFTER_STEPS`, rejoin, and the standby
        // restores a checkpointed membership, so the DP splits over
        // several different included sets. No committed golden runs
        // `Unequal(Ours)` with faults.
        let trace = ClusterPowerTrace::synthetic_diurnal(4, Seconds::new(120.0), 5)
            .peak_shaved(Ratio::new(0.30))
            .clamped_below(Watts::new(78.0 * 4.0));
        let partition = |server, from_step, until_step| PartitionWindow {
            server,
            from_step,
            until_step,
        };
        let options = ControlOptions {
            faults: ClusterFaultConfig {
                partitions: vec![partition(1, 10, 170), partition(2, 40, 230)],
                manager_crash_step: Some(115),
                manager_takeover_steps: 10,
                ..ClusterFaultConfig::default_scenario(13)
            },
            ..ControlOptions::perfect(13)
        };
        let report = run_cluster(
            &mixes_for(4),
            ManagedPolicy::unequal_ours(),
            &trace,
            DT,
            &options,
        );
        // Constants taken before the DP kept one table per membership;
        // any drift means the table split is not exact.
        assert!(report.stats.reapportionments > 0);
        assert_eq!(report.trace_digest, 0x7699_2f82_dd34_3ef9);
        assert_eq!(
            report.stats,
            ClusterControlStats {
                downlinks_dropped: 16,
                downlinks_delayed: 81,
                uplinks_dropped: 51,
                uplinks_delayed: 339,
                messages_lost_endpoint_down: 429,
                node_crashes: 2,
                node_restarts: 2,
                heartbeat_misses: 93,
                fallback_engagements: 3,
                manager_failovers: 1,
                checkpoints: 11,
                dead_declarations: 3,
                rejoins: 3,
                reapportionments: 5,
                breaker_trips: 0,
            }
        );
        assert_eq!(
            report.report.energy.value().to_bits(),
            0x40e0_dca6_47d5_6022
        );
        let per_app_bits: Vec<u64> = (report.report.per_app_perf.iter())
            .map(|p| p.to_bits())
            .collect();
        assert_eq!(
            per_app_bits,
            [
                0x3fef_8440_b1cf_46bf,
                0x3fef_e402_2506_93c8,
                0x3fb0_226b_9022_6b90,
                0x3fb0_226b_9022_6b91,
                0x3fd3_c5e9_f32c_0402,
                0x3fd2_dc2a_cc23_c096,
                0x3fdc_8113_5c81_1365,
                0x3fda_e2e1_5c72_16dd,
            ]
        );
        assert_eq!(report.violation_seconds.to_bits(), 1.0f64.to_bits());
    }

    /// A 30-server utility-curve fleet on the 15 mixes plans each
    /// distinct plan input once across all of its mediators: every plan
    /// computed lands in the fleet's book, and none twice.
    #[test]
    fn a_fleet_plans_each_distinct_input_once() {
        let mixes = mixes_for(30);
        let trace = short_trace(30);
        let options = ControlOptions::perfect(0);
        let policy = ManagedPolicy::unequal_ours();
        let mut run = FleetRun::new(&mixes, policy, &trace, DT, &options, Recording::Off);
        run.advance();
        let plans: usize = run.agents.iter().map(|a| a.mediator().plans()).sum();
        let replans: usize = run.agents.iter().map(ServerAgent::replans).sum();
        let book = run.agents[0].plan_book();
        assert_eq!(plans, book.plans(), "each distinct input planned once");
        assert_eq!((plans, replans), (37, 90), "pinned");
    }

    #[test]
    fn value_curves_are_shared_by_mix_content() {
        let spec = ServerSpec::xeon_e5_2620();
        let [a, b, c] = [1, 2, 3].map(|id| mixes::mix(id).unwrap());
        let bits = |curves: &[Vec<(Watts, f64)>]| -> Vec<Vec<(u64, u64)>> {
            (curves.iter())
                .map(|curve| {
                    (curve.iter())
                        .map(|(cap, v)| (cap.value().to_bits(), v.to_bits()))
                        .collect()
                })
                .collect()
        };
        // Repeated mixes get the curves each server would get alone.
        let fleet = [a.clone(), b.clone(), a.clone(), c, b.clone(), a.clone()];
        let alone: Vec<Vec<(Watts, f64)>> = (fleet.iter())
            .flat_map(|mix| value_curves(&spec, std::slice::from_ref(mix)))
            .collect();
        assert_eq!(bits(&value_curves(&spec, &fleet)), bits(&alone));
        // A mix that shares an id but not its apps is planned apart.
        let impostor = Mix {
            app1: b.app2.clone(),
            app2: b.app1.clone(),
            ..a.clone()
        };
        let curves = value_curves(&spec, &[a.clone(), impostor.clone()]);
        assert_eq!(
            bits(&curves[1..]),
            bits(&value_curves(&spec, std::slice::from_ref(&impostor)))
        );
        assert_ne!(bits(&curves[..1]), bits(&curves[1..]));
    }

    #[test]
    fn manager_table_follows_the_membership() {
        // Random membership changes, repeats included: each split must
        // equal the one-shot DP over the included servers' curves, with
        // the floor reserved for every excluded one.
        let servers = 6;
        let spec = ServerSpec::xeon_e5_2620();
        let floor = ClusterManager::cap_floor_for(&spec);
        let curves: Vec<Vec<(Watts, f64)>> = (0..servers)
            .map(|i| {
                ClusterManager::candidate_caps()
                    .map(|cap| (cap, ((cap - floor).value() * (1 + i % 3) as f64).sqrt()))
                    .collect()
            })
            .collect();
        let mut manager = Manager {
            resilient: true,
            apportionment: Apportionment::UtilityDp,
            curves: Some(curves.clone()),
            table: None,
            servers,
            initial_share: Watts::new(80.0),
            floor,
            state: ManagerState::initial(servers, Watts::new(80.0), Apportionment::UtilityDp),
            store: None,
            fleet: None,
            checkpoint: None,
            membership_dirty: false,
            stats: ClusterControlStats::default(),
        };
        let mut rng = SplitMix::new(7);
        for _ in 0..48 {
            let mut draw = |n: u64| rng.below(n);
            let excluded: Vec<bool> = (0..servers).map(|_| draw(4) == 0).collect();
            let total = Watts::new(draw(800) as f64 + [0.0, 2.5][draw(2) as usize]);
            if excluded.iter().all(|out| *out) {
                continue;
            }
            let included: Vec<Vec<(Watts, f64)>> = (curves.iter().zip(&excluded))
                .filter(|(_, out)| !**out)
                .map(|(curve, _)| curve.clone())
                .collect();
            let n_excluded = servers - included.len();
            let mut split =
                ClusterManager::apportion_cluster(&included, total - floor * n_excluded as f64)
                    .into_iter();
            let expected: Vec<Watts> = (excluded.iter())
                .map(|out| if *out { floor } else { split.next().unwrap() })
                .collect();
            manager.state.excluded = excluded;
            assert_eq!(manager.apportion(total), expected, "budget {total:?}");
        }
    }

    #[test]
    fn breaker_trip_is_journalled_with_its_arming_evidence() {
        // The sustained-overdraw scenario, flight-recorded: the naive
        // fleet keeps drawing over a stepped-down budget, and the
        // manager's journal must carry the whole causal chain — the
        // over-budget streak, the per-server overdraw attribution, the
        // trip, the clamps, and the eventual release.
        let trace = ClusterPowerTrace::from_samples(vec![
            (Seconds::ZERO, Watts::new(200.0)),
            (Seconds::new(30.0), Watts::new(120.0)),
            (Seconds::new(60.0), Watts::new(120.0)),
        ]);
        let opts = ControlOptions {
            resilient: false,
            faults: ClusterFaultConfig {
                downlink_drop_prob: 1.0,
                ..ClusterFaultConfig::none(9)
            },
            breaker: BreakerConfig::default(),
            ..ControlOptions::perfect(9)
        };
        let recorded = run_cluster_flight_recorded(
            &mixes_for(2),
            ManagedPolicy::equal_ours(),
            &trace,
            DT,
            &opts,
            &FleetObsOptions::default(),
        );
        assert!(recorded.stats.breaker_trips >= 1);
        let fleet = recorded.fleet.as_ref().expect("fleet report attached");
        let kinds: std::collections::BTreeSet<&str> = fleet
            .timeline
            .iter()
            .filter(|e| e.server_id == MANAGER_SERVER_ID)
            .map(|e| e.record.event.kind())
            .collect();
        for kind in [
            "fleet_over_budget",
            "server_overdraw",
            "breaker_trip",
            "emergency_clamp",
            "breaker_release",
        ] {
            assert!(kinds.contains(kind), "missing {kind}: {kinds:?}");
        }
        // Overdraw attribution names the stale-capped servers against
        // the manager's *intended* share, not the cap they obey.
        assert!(fleet.timeline.iter().any(|e| matches!(
            e.record.event,
            ObsEvent::ServerOverdraw { net_w, share_w, .. } if net_w > share_w
        )));
    }
}
