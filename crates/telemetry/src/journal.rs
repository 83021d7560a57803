//! Flight-recorder event journal with causal ids.
//!
//! Run reports and counter structs say *what* happened; this module
//! stores *decisions*. Every consequential step
//! the mediator, simulator or cluster control plane takes — an
//! allocation installed, an E1–E6 event handled, a safe-mode
//! escalation, a probe skipped, a knob write retried, an uplink
//! dropped — is appended to a bounded ring buffer as a structured
//! [`ObsEvent`] stamped with simulation time and three causal ids:
//! the poll sequence number, the app name (when one is involved) and
//! the control-plane epoch. A post-mortem tool (`doctor`) can then walk
//! the journal backward from an effect (a force-throttle) to its causes
//! (the over-cap polls and sensor verdicts that armed the watchdog).
//!
//! The whole plane hangs off an `Option<`[`Obs`]`>` in each producer:
//! when the option is `None` (the default everywhere) no journal, no
//! registry and no lock exist and every emission site is a skipped
//! `if let` — the zero-cost-off property the bit-identical figure
//! checks in CI enforce.

use crate::metrics::{prom_label, Histogram, MetricsRegistry};
use powermed_units::hash::Fnv1a;
use powermed_units::Seconds;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What a knob write attempt came to, as seen by the hardened mediator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KnobWriteVerdict {
    /// The write landed and read-back verified it on the first try.
    Landed,
    /// The write did not verify; a retry was scheduled.
    Deferred,
    /// A scheduled retry landed and verified.
    RetryLanded,
    /// The retry budget ran out; the fault was escalated as E5.
    RetryExhausted,
}

/// A safe-mode state change in the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeModeTransition {
    /// The watchdog engaged: all apps forced to their floor knobs.
    Engaged,
    /// Observed power stayed under the cap long enough to release.
    Released,
    /// Still over cap after the patience budget: apps suspended.
    Escalated,
}

/// One structured decision record.
///
/// Variants mirror the runtime's decision points one-to-one; the
/// [`ObsEvent::kind`] string doubles as the per-kind counter label in
/// the metrics registry.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsEvent {
    /// One accounting poll: allocation out, net power in, the observed
    /// channel's reading, the active cap, and whether the observed
    /// reading violated the cap (the signal the watchdog feeds on).
    Poll {
        /// Total power currently allocated to apps, in watts.
        alloc_w: f64,
        /// True net draw this poll, in watts.
        net_w: f64,
        /// What the (possibly faulty) sensor channel reported.
        observed_w: Option<f64>,
        /// The active power cap, in watts.
        cap_w: f64,
        /// Whether the *observed* reading exceeded the cap.
        over_cap: bool,
    },
    /// A plan was computed and a schedule installed.
    Planned {
        /// Number of apps covered by the new schedule.
        apps: usize,
        /// Schedule shape (`"space"`, `"alternate"`, `"hybrid"`, …).
        mode: &'static str,
    },
    /// One app's power share under the freshly installed schedule.
    Allocation {
        /// The app receiving the share.
        app: String,
        /// Allocated watts.
        watts: f64,
    },
    /// E1: the cap changed.
    CapChanged {
        /// The new cap, in watts.
        cap_w: f64,
    },
    /// E2: an app arrived.
    Arrival {
        /// The arriving app.
        app: String,
    },
    /// E3: an app departed.
    Departure {
        /// The departing app.
        app: String,
    },
    /// E4: an app's performance drifted off its profile.
    Drift {
        /// The drifting app.
        app: String,
    },
    /// E5: a knob write was lost (actuation fault).
    ActuationFault {
        /// The app whose knob write failed.
        app: String,
    },
    /// E6: the power sensor was declared untrustworthy.
    SensorFault {
        /// The latched diagnosis (e.g. `"3 consecutive dropouts"`).
        what: String,
    },
    /// Sensor health counters crossed zero but have not latched yet.
    SensorSuspect {
        /// Consecutive dropout count so far.
        dropouts: u32,
        /// Consecutive stuck-reading count so far.
        stuck: u32,
    },
    /// The estimated-power residual (meter vs model prediction) spiked
    /// past the confidence band — one poll of evidence toward the
    /// estimation degradation ladder.
    ResidualSpike {
        /// Meter minus model-predicted net, in watts.
        residual_w: f64,
        /// One-sigma confidence band on the total at that poll.
        band_w: f64,
        /// Consecutive spike polls so far (including this one).
        streak: u32,
    },
    /// The estimation layer's conservative fallback cap changed state:
    /// engaged (planning cap shaved by the confidence band) or
    /// released (residual stayed clean long enough).
    FallbackCap {
        /// Watts shaved off the planning cap (0 on release).
        shave_w: f64,
        /// `true` on engage, `false` on release.
        engaged: bool,
    },
    /// A calibration decision for one admission.
    Probe {
        /// The app being calibrated.
        app: String,
        /// Grid points probed cold (measured on the platform).
        cold: usize,
        /// Grid points warm-started from a stored profile.
        warm: usize,
        /// Grid points skipped entirely thanks to prior knowledge.
        skipped: usize,
    },
    /// A verified knob write (or its failure).
    KnobWrite {
        /// The app whose knob was written.
        app: String,
        /// How the write fared.
        verdict: KnobWriteVerdict,
        /// Attempts consumed so far, including the original write.
        attempts: u32,
    },
    /// The safe-mode watchdog changed state.
    SafeMode {
        /// The transition taken.
        transition: SafeModeTransition,
    },
    /// Safe mode forced one app to its floor setting.
    ForceThrottle {
        /// The throttled app.
        app: String,
    },
    /// A profile version was published to the knowledge plane.
    StorePublish {
        /// The profiled app.
        app: String,
        /// Version number published.
        version: u64,
    },
    /// A profile was invalidated (tombstoned) fleet-wide.
    StoreTombstone {
        /// The invalidated app.
        app: String,
        /// Version number of the tombstone.
        version: u64,
    },
    /// The manager broadcast a downlink to one server.
    DownlinkSent {
        /// Destination server index.
        server: usize,
        /// Control-plane epoch carried by the frame.
        epoch: u64,
        /// Cap assignment carried by the frame, in watts.
        cap_w: f64,
        /// Whether this was a repair (re-send after suspected loss).
        repair: bool,
    },
    /// A server sent its periodic uplink report.
    UplinkSent {
        /// Source server index.
        server: usize,
        /// Control-plane step the report was sent at.
        step: u64,
    },
    /// A control-plane frame was dropped by the lossy network.
    LinkDropped {
        /// The server whose link dropped the frame.
        server: usize,
        /// `true` for uplink (server→manager), `false` for downlink.
        uplink: bool,
    },
    /// A control-plane frame was delayed in flight.
    LinkDelayed {
        /// The server whose link delayed the frame.
        server: usize,
        /// `true` for uplink (server→manager), `false` for downlink.
        uplink: bool,
        /// Delay, in control-plane steps.
        steps: u64,
    },
    /// A server lost both link directions (endpoint outage).
    EndpointLoss {
        /// The partitioned server.
        server: usize,
    },
    /// A server crashed.
    NodeCrash {
        /// The crashed server.
        server: usize,
    },
    /// A crashed server restarted.
    NodeRestart {
        /// The restarted server.
        server: usize,
    },
    /// The manager crashed.
    ManagerCrash,
    /// A standby manager took over from a checkpoint.
    ManagerTakeover,
    /// An app's claimed heartbeat ratio hit the estimator's clamp
    /// bound — mild evidence its self-reports disagree with physics.
    HeartbeatClampBound {
        /// The app whose claim was clamped.
        app: String,
        /// The raw (pre-clamp) claimed-over-expected heartbeat ratio.
        ratio: f64,
    },
    /// The integrity layer lowered an app's trust score.
    TrustDowngrade {
        /// The downgraded app.
        app: String,
        /// The trust score after the downgrade, in `[0, 1]`.
        score: f64,
    },
    /// E7: an app crossed the quarantine threshold and was clamped to
    /// its fair share with profile-only estimation.
    Quarantine {
        /// The quarantined app.
        app: String,
        /// The dominant evidence stream (e.g. `"implausible heartbeat"`).
        cause: String,
    },
    /// The watt-debt ledger clawed back overdrawn watts from an app's
    /// allocation so honest apps are made whole.
    Clawback {
        /// The app repaying its debt.
        app: String,
        /// Watts withheld from the allocation this plan.
        w: f64,
    },
    /// E7 surfaced through the accountant (one per quarantine episode).
    IntegrityFault {
        /// The offending app.
        app: String,
    },
    /// The traffic source's offered load jumped to a multiple of its
    /// diurnal baseline (a flash crowd; edge-triggered per burst).
    DemandSpike {
        /// The app whose offered load spiked.
        app: String,
        /// Offered-over-baseline rate multiplier at burst onset.
        ratio: f64,
    },
    /// An SLO accounting window closed with this verdict.
    SloWindow {
        /// The app the window scored.
        app: String,
        /// Fraction of the window's completed requests that met the
        /// latency budget.
        attainment: f64,
        /// Whether attainment met the configured target.
        ok: bool,
    },
    /// The bounded journal ring overwrote records that were never
    /// shipped in a digest: the fleet timeline has a hole of `dropped`
    /// events starting at this record's own `seq`. Synthesized at
    /// digest-extraction time (never stored in the ring, which would
    /// recurse at capacity 1) and regenerated identically on every
    /// re-ship, so the idempotent fleet merge dedups it.
    DigestGap {
        /// Unshipped records lost to the wraparound.
        dropped: u64,
    },
    /// Manager-side: one control step of aggregate net draw over the
    /// cluster budget while the facility breaker arms.
    FleetOverBudget {
        /// Aggregate net draw that step, in watts.
        net_w: f64,
        /// The cluster budget in force, in watts.
        budget_w: f64,
        /// Consecutive violating steps so far (including this one).
        streak: u64,
    },
    /// Manager-side: during an over-budget step, one server's reported
    /// draw exceeded the share the manager intended for it — the
    /// per-server attribution of a breaker arm (a naive server obeying a
    /// stale cap is over the manager's *intended* share, not its own).
    ServerOverdraw {
        /// The overdrawing server.
        server: usize,
        /// Its reported net draw, in watts.
        net_w: f64,
        /// The share the manager intended for it, in watts.
        share_w: f64,
    },
    /// The facility breaker tripped: every up server is clamped to the
    /// floor for the hold window.
    BreakerTrip {
        /// Steps the emergency clamp stays in force.
        hold_steps: u64,
        /// The clamp floor, in watts.
        floor_w: f64,
    },
    /// The breaker's hold expired and pre-trip caps were restored.
    BreakerRelease,
    /// The fleet clamp landed on one server (breaker floor applied).
    EmergencyClamp {
        /// The clamped server.
        server: usize,
    },
    /// Agent-side: one heartbeat interval elapsed with no downlink.
    HeartbeatMissed {
        /// Consecutive missed intervals so far (including this one).
        misses: u64,
    },
    /// Agent-side: downlink silence engaged the conservative local
    /// fallback cap (see [`crate::journal::ObsEvent::FallbackCap`] for
    /// the unrelated estimation-ladder cap shave).
    FallbackEngage {
        /// The cap the fallback engaged on (the last acked share), in
        /// watts.
        cap_w: f64,
    },
    /// Agent-side: the engaged fallback decayed the local cap one step
    /// toward the idle floor.
    FallbackDecay {
        /// The cap after the decay step, in watts.
        cap_w: f64,
    },
    /// Agent-side: a fresh downlink released the fallback cap (the
    /// partitioned node rejoined).
    FallbackRelease {
        /// The manager's cap that replaced the fallback, in watts.
        cap_w: f64,
    },
}

impl ObsEvent {
    /// Stable snake_case tag for this event, used as the `kind` label
    /// on the per-kind event counter and in `doctor` output.
    pub fn kind(&self) -> &'static str {
        match self {
            ObsEvent::Poll { .. } => "poll",
            ObsEvent::Planned { .. } => "planned",
            ObsEvent::Allocation { .. } => "allocation",
            ObsEvent::CapChanged { .. } => "cap_changed",
            ObsEvent::Arrival { .. } => "arrival",
            ObsEvent::Departure { .. } => "departure",
            ObsEvent::Drift { .. } => "drift",
            ObsEvent::ActuationFault { .. } => "actuation_fault",
            ObsEvent::SensorFault { .. } => "sensor_fault",
            ObsEvent::SensorSuspect { .. } => "sensor_suspect",
            ObsEvent::ResidualSpike { .. } => "residual_spike",
            ObsEvent::FallbackCap { .. } => "fallback_cap",
            ObsEvent::Probe { .. } => "probe",
            ObsEvent::KnobWrite { .. } => "knob_write",
            ObsEvent::SafeMode { .. } => "safe_mode",
            ObsEvent::ForceThrottle { .. } => "force_throttle",
            ObsEvent::StorePublish { .. } => "store_publish",
            ObsEvent::StoreTombstone { .. } => "store_tombstone",
            ObsEvent::DownlinkSent { .. } => "downlink_sent",
            ObsEvent::UplinkSent { .. } => "uplink_sent",
            ObsEvent::LinkDropped { .. } => "link_dropped",
            ObsEvent::LinkDelayed { .. } => "link_delayed",
            ObsEvent::EndpointLoss { .. } => "endpoint_loss",
            ObsEvent::NodeCrash { .. } => "node_crash",
            ObsEvent::NodeRestart { .. } => "node_restart",
            ObsEvent::ManagerCrash => "manager_crash",
            ObsEvent::ManagerTakeover => "manager_takeover",
            ObsEvent::HeartbeatClampBound { .. } => "heartbeat_clamp_bound",
            ObsEvent::TrustDowngrade { .. } => "trust_downgrade",
            ObsEvent::Quarantine { .. } => "quarantine",
            ObsEvent::Clawback { .. } => "clawback",
            ObsEvent::IntegrityFault { .. } => "integrity_fault",
            ObsEvent::DemandSpike { .. } => "demand_spike",
            ObsEvent::SloWindow { .. } => "slo_window",
            ObsEvent::DigestGap { .. } => "digest_gap",
            ObsEvent::FleetOverBudget { .. } => "fleet_over_budget",
            ObsEvent::ServerOverdraw { .. } => "server_overdraw",
            ObsEvent::BreakerTrip { .. } => "breaker_trip",
            ObsEvent::BreakerRelease => "breaker_release",
            ObsEvent::EmergencyClamp { .. } => "emergency_clamp",
            ObsEvent::HeartbeatMissed { .. } => "heartbeat_missed",
            ObsEvent::FallbackEngage { .. } => "fallback_engage",
            ObsEvent::FallbackDecay { .. } => "fallback_decay",
            ObsEvent::FallbackRelease { .. } => "fallback_release",
        }
    }

    /// The app this event concerns, when it concerns exactly one.
    pub fn app(&self) -> Option<&str> {
        match self {
            ObsEvent::Allocation { app, .. }
            | ObsEvent::Arrival { app }
            | ObsEvent::Departure { app }
            | ObsEvent::Drift { app }
            | ObsEvent::ActuationFault { app }
            | ObsEvent::Probe { app, .. }
            | ObsEvent::KnobWrite { app, .. }
            | ObsEvent::ForceThrottle { app }
            | ObsEvent::StorePublish { app, .. }
            | ObsEvent::StoreTombstone { app, .. }
            | ObsEvent::HeartbeatClampBound { app, .. }
            | ObsEvent::TrustDowngrade { app, .. }
            | ObsEvent::Quarantine { app, .. }
            | ObsEvent::Clawback { app, .. }
            | ObsEvent::IntegrityFault { app }
            | ObsEvent::DemandSpike { app, .. }
            | ObsEvent::SloWindow { app, .. } => Some(app),
            _ => None,
        }
    }
}

/// A journal entry: an [`ObsEvent`] plus its causal coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Monotone sequence number, never reused even across eviction.
    pub seq: u64,
    /// Simulation time the event was emitted at.
    pub at: Seconds,
    /// Poll sequence number active when the event fired (0 before the
    /// first poll).
    pub poll: u64,
    /// Control-plane epoch active when the event fired (0 for a
    /// standalone server).
    pub epoch: u64,
    /// The decision itself.
    pub event: ObsEvent,
}

/// A bounded ring buffer of [`EventRecord`]s.
///
/// When full, the oldest record is evicted to admit the newest — the
/// flight-recorder discipline: recent history is always present,
/// ancient history is summarized by the metrics registry's counters. A
/// capacity of zero stores nothing (every record counts as evicted),
/// which keeps an attached-but-journalless configuration legal.
///
/// Records are immutable once written, so the ring, every
/// [`JournalDigest`] that ships a record and every [`FleetTimeline`]
/// that merges it share one copy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventJournal {
    capacity: usize,
    ring: std::collections::VecDeque<Slot>,
    next_seq: u64,
    evicted: u64,
}

/// One ring slot: a record and its wire cost, evicted together.
#[derive(Clone)]
struct Slot {
    record: Arc<EventRecord>,
    /// [`encoded_cost`] of `record`, measured the first time a digest
    /// reaches it; 0 until then (no record encodes to nothing). A
    /// journal that never ships never formats a record.
    cost: u32,
}

impl Slot {
    /// The record's wire cost, measured once.
    fn cost(&mut self) -> usize {
        if self.cost == 0 {
            self.cost =
                u32::try_from(encoded_cost(&self.record)).expect("a record encodes to under 4 GiB");
        }
        self.cost as usize
    }
}

// The cost is a cache of the record: a slot prints and compares as its
// record alone, so a journal that has shipped is indistinguishable from
// one that has not.
impl std::fmt::Debug for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.record.fmt(f)
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.record == other.record
    }
}

impl EventJournal {
    /// Creates an empty journal holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            // Reserve lazily for large capacities: a journal attached to
            // a short smoke run should not pre-commit 64 Ki slots.
            ring: std::collections::VecDeque::new(),
            next_seq: 0,
            evicted: 0,
        }
    }

    /// Appends an event, assigning the next sequence number. Returns
    /// the sequence number assigned.
    pub fn record(&mut self, at: Seconds, poll: u64, epoch: u64, event: ObsEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.capacity == 0 {
            self.evicted += 1;
            return seq;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(Slot {
            record: Arc::new(EventRecord {
                seq,
                at,
                poll,
                epoch,
                event,
            }),
            cost: 0,
        });
        seq
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of records evicted (or dropped, at capacity zero) so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Total records ever appended (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Iterates the retained records oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &EventRecord> {
        self.ring.iter().map(|slot| &*slot.record)
    }

    /// The most recent record, if any.
    pub fn latest(&self) -> Option<&EventRecord> {
        self.ring.back().map(|slot| &*slot.record)
    }

    /// Extracts a bounded delta digest of everything recorded since the
    /// receiver's watermark `since` (the first unacknowledged sequence
    /// number).
    ///
    /// Entries are contiguous and oldest-first, so acknowledging
    /// [`JournalDigest::ack_to`] never skips an unshipped record. The
    /// digest is size-capped at roughly `max_bytes` of deterministic
    /// encoding — a digest must survive a lossy link as one frame — with
    /// two carve-outs: the first record always ships even when it alone
    /// exceeds the budget (progress beats the cap), and everything past
    /// the budget is counted in [`JournalDigest::truncated`] and left
    /// for the next wave. When the ring wrapped past unshipped records,
    /// the digest leads with a synthesized [`ObsEvent::DigestGap`]
    /// carrying the dropped count, stamped with the oldest survivor's
    /// coordinates so every re-ship regenerates the identical gap record
    /// and the idempotent fleet merge dedups it.
    ///
    /// Shipped entries share the ring's records and carry their merge
    /// keys. Each record's encoding cost is measured the first time a
    /// digest reaches it and kept in its slot, so re-shipping an
    /// unacknowledged tail formats nothing.
    pub fn digest_since(&mut self, server_id: u64, since: u64, max_bytes: usize) -> JournalDigest {
        let oldest_retained = self.iter().next().map_or(self.next_seq, |r| r.seq);
        let resume_at = oldest_retained.max(since);
        let dropped = resume_at - since;
        let wrapped = dropped > 0;
        let mut entries = Vec::new();
        let mut bytes = DIGEST_HEADER_BYTES;
        let mut truncated = 0;
        if wrapped {
            let (at, poll, epoch) = self
                .iter()
                .next()
                .map_or((Seconds::ZERO, 0, 0), |r| (r.at, r.poll, r.epoch));
            let gap = EventRecord {
                seq: since,
                at,
                poll,
                epoch,
                event: ObsEvent::DigestGap { dropped },
            };
            bytes += encoded_cost(&gap);
            entries.push((FleetTimeline::key(server_id, &gap), Arc::new(gap)));
        }
        // Sequence numbers rise along the ring, so the resume point is
        // a binary search away.
        let start = self.ring.partition_point(|s| s.record.seq < resume_at);
        let retained = self.ring.len();
        for (shipped, slot) in self.ring.range_mut(start..).enumerate() {
            let cost = slot.cost();
            if bytes + cost <= max_bytes || entries.is_empty() {
                bytes += cost;
                let key = FleetTimeline::key(server_id, &slot.record);
                entries.push((key, Arc::clone(&slot.record)));
            } else {
                // The delta must stay contiguous: once one record is
                // over budget, everything after it waits too. Those
                // records are only counted, never measured.
                truncated = (retained - start - shipped) as u64;
                break;
            }
        }
        JournalDigest {
            server_id,
            since,
            entries,
            wrapped,
            dropped,
            truncated,
            bytes: bytes as u64,
        }
    }
}

/// Fixed per-digest overhead charged by [`JournalDigest::bytes`]
/// (server id, watermark, flags) on top of the per-record encoding cost.
const DIGEST_HEADER_BYTES: usize = 32;

/// Deterministic wire-size estimate of one record: the length of its
/// `Debug` encoding, which is also what [`Obs::digest`] folds — so the
/// byte cap and the determinism fingerprint agree on what a record is.
/// The bytes are counted as the formatter produces them; no string is
/// built.
fn encoded_cost(rec: &EventRecord) -> usize {
    /// A `fmt::Write` sink that keeps only the byte count.
    struct ByteCount(usize);
    impl std::fmt::Write for ByteCount {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut count = ByteCount(0);
    write!(count, "{rec:?}").expect("debug formatting failed");
    count.0
}

/// Reserved `server_id` under which a manager merges its own journal
/// (including the control plane's mirrored fault events) into a
/// [`FleetTimeline`].
pub const MANAGER_SERVER_ID: u64 = u64::MAX;

/// A bounded delta of one server's journal, shipped over the control
/// plane (see [`EventJournal::digest_since`]).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalDigest {
    /// The shipping server's fleet-wide id.
    pub server_id: u64,
    /// The watermark this digest is a delta against: the first sequence
    /// number the receiver had not acknowledged.
    pub since: u64,
    /// Records with `seq >= since`, contiguous and oldest-first. When
    /// the ring wrapped past unshipped records the first entry is a
    /// synthesized [`ObsEvent::DigestGap`]. Each entry is the record's
    /// [`FleetTimeline::key`] beside the record, which it shares with the
    /// shipping journal, so a merge finds the key without reading the
    /// record.
    pub entries: Vec<(FleetKey, Arc<EventRecord>)>,
    /// True when the ring overwrote records in `since..` before they
    /// could ship — the blind spot the gap entry marks.
    pub wrapped: bool,
    /// Unshipped records lost to the wraparound.
    pub dropped: u64,
    /// Records past the byte budget, left for the next wave.
    pub truncated: u64,
    /// Deterministic wire-size estimate of this digest.
    pub bytes: u64,
}

impl JournalDigest {
    /// The watermark the receiver should advance to after merging: one
    /// past the newest record shipped, or past the wraparound hole when
    /// nothing beyond it fit. Acknowledging this is safe because entries
    /// are contiguous — nothing below it remains unshipped.
    pub fn ack_to(&self) -> u64 {
        let past_hole = if self.wrapped {
            self.since + self.dropped
        } else {
            self.since
        };
        self.entries
            .iter()
            .map(|&((_, _, _, seq), _)| seq + 1)
            .fold(past_hole, u64::max)
    }

    /// True when the digest carries nothing (no new records, no gap).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// One entry in a merged fleet timeline: a journal record plus the
/// server it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRecord {
    /// The originating server ([`MANAGER_SERVER_ID`] for the manager's
    /// own journal).
    pub server_id: u64,
    /// The journal record, shared with the journal and digest that
    /// shipped it.
    pub record: Arc<EventRecord>,
}

/// The total order a [`FleetTimeline`] merges under:
/// `(epoch, poll_seq, server_id, seq)`.
pub type FleetKey = (u64, u64, u64, u64);

/// The manager's merged, queryable view of every journal in the fleet.
///
/// Records land keyed by `(epoch, poll_seq, server_id, seq)`, so the
/// merge is insert-if-absent over a total order: commutative and
/// idempotent by construction. That is what makes the shipping protocol
/// trivially robust — agents re-ship their entire unacknowledged
/// backlog every wave, and a duplicate from retry, reorder, or delayed
/// delivery costs a key lookup and a dedup counter bump (it is never
/// copied), besides the wire bytes that carried it. A new record from a
/// digest is stored as the digest's shared copy, not a clone. Same-seed
/// runs produce byte-identical timelines (the `ext_obs` fleet smoke
/// enforces it).
///
/// A [`FleetTimeline::mark`] remembers the timeline's position, and
/// [`FleetTimeline::rewind`] returns to it by dropping what was
/// inserted since, so a checkpoint need not copy the records.
#[derive(Clone, Default)]
pub struct FleetTimeline {
    entries: BTreeMap<FleetKey, FleetRecord>,
    merged: u64,
    deduped: u64,
    /// Keys inserted since the latest mark, oldest first; `None` until
    /// the first mark, so an unmarked timeline keeps no log.
    since_mark: Option<Vec<FleetKey>>,
}

/// A position in a [`FleetTimeline`]: its counters when
/// [`FleetTimeline::mark`] was taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineMark {
    merged: u64,
    deduped: u64,
}

// Equality and `Debug` cover the records and the merge counters, not
// the insertion log: two timelines holding the same records compare
// equal however they were marked.
impl PartialEq for FleetTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.merged == other.merged
            && self.deduped == other.deduped
    }
}

impl std::fmt::Debug for FleetTimeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTimeline")
            .field("entries", &self.entries)
            .field("merged", &self.merged)
            .field("deduped", &self.deduped)
            .finish()
    }
}

impl FleetTimeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The merge key of `record` as shipped by `server_id`.
    pub fn key(server_id: u64, record: &EventRecord) -> FleetKey {
        (record.epoch, record.poll, server_id, record.seq)
    }

    /// Inserts one record if its key is absent. Returns whether it was
    /// added (false = dedup).
    pub fn insert(&mut self, server_id: u64, record: EventRecord) -> bool {
        let record = Arc::new(record);
        self.insert_with(Self::key(server_id, &record), || Arc::clone(&record))
    }

    /// Inserts the record under `key` if the key is absent, storing what
    /// `share` returns for it — called only when the key is new.
    fn insert_with(&mut self, key: FleetKey, share: impl FnOnce() -> Arc<EventRecord>) -> bool {
        match self.entries.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                let (_, _, server_id, _) = key;
                let record = share();
                slot.insert(FleetRecord { server_id, record });
                self.merged += 1;
                if let Some(log) = self.since_mark.as_mut() {
                    log.push(key);
                }
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => {
                self.deduped += 1;
                false
            }
        }
    }

    /// Merges one shipped digest; returns how many records were new.
    /// A new record is stored as the digest's shared copy; a duplicate
    /// is told by its shipped key alone.
    pub fn merge_digest(&mut self, digest: &JournalDigest) -> u64 {
        digest
            .entries
            .iter()
            .filter(|(key, r)| self.insert_with(*key, || Arc::clone(r)))
            .count() as u64
    }

    /// Merges a batch of records from one server; returns how many were
    /// new. A record is copied only when its key is new.
    pub fn merge_records(&mut self, server_id: u64, records: &[EventRecord]) -> u64 {
        records
            .iter()
            .filter(|r| self.insert_with(Self::key(server_id, r), || Arc::new((*r).clone())))
            .count() as u64
    }

    /// Merges another timeline in (union of entries).
    pub fn merge(&mut self, other: &FleetTimeline) {
        for (&key, entry) in &other.entries {
            self.insert_with(key, || Arc::clone(&entry.record));
        }
    }

    /// Marks the current position for a later
    /// [`FleetTimeline::rewind`]. From here on the timeline logs the
    /// key of each new record; taking a mark forgets the log of the
    /// previous one, so only the latest mark can be rewound to.
    pub fn mark(&mut self) -> TimelineMark {
        self.since_mark = Some(Vec::new());
        TimelineMark {
            merged: self.merged,
            deduped: self.deduped,
        }
    }

    /// Returns to `mark`: drops every record inserted since and restores
    /// the merge counters, leaving the timeline equal to a clone taken
    /// at the mark. Between the two the timeline only grows, so the
    /// logged keys are exactly what to drop.
    ///
    /// # Panics
    ///
    /// When `mark` is not the latest mark of this timeline.
    pub fn rewind(&mut self, mark: TimelineMark) {
        let log = self.since_mark.as_mut().expect("rewind needs a mark");
        assert_eq!(
            self.merged.checked_sub(mark.merged),
            Some(log.len() as u64),
            "rewind only to the latest mark"
        );
        for key in log.drain(..) {
            self.entries.remove(&key);
        }
        self.merged = mark.merged;
        self.deduped = mark.deduped;
    }

    /// Number of merged records.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has merged yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records accepted as new across all merges.
    pub fn merged_total(&self) -> u64 {
        self.merged
    }

    /// Records rejected as duplicates across all merges — the price of
    /// re-ship-everything. The idempotent merge makes duplicates
    /// harmless to correctness, but each one still costs a key lookup
    /// plus the wire bytes that carried it.
    pub fn dedup_total(&self) -> u64 {
        self.deduped
    }

    /// Iterates the merged records in `(epoch, poll, server, seq)`
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = &FleetRecord> {
        self.entries.values()
    }

    /// FNV-1a digest over the merged records in key order — the
    /// byte-identity fingerprint the fleet `ext_obs --smoke` double-run
    /// compares across processes.
    pub fn digest(&self) -> u64 {
        let mut hash = Fnv1a::new();
        for entry in self.entries.values() {
            hash.write(&entry.server_id.to_le_bytes());
            write!(hash, "{:?}", entry.record).expect("debug formatting failed");
        }
        hash.finish()
    }
}

/// Ring-buffer bound for each [`Obs`] plane's event journal.
pub const JOURNAL_CAPACITY: usize = 65_536;

/// Creates an observability plane ([`Obs::new`]). It carries no
/// settings: the journal holds [`JOURNAL_CAPACITY`] records and
/// wall-clock spans are always recorded. Spans are excluded from
/// [`Obs::digest`] (wall time is not deterministic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ObsConfig {}

/// Interior state behind the [`Obs`] handle.
#[derive(Debug)]
struct ObsCore {
    journal: EventJournal,
    metrics: MetricsRegistry,
    /// Per-kind event tallies, kept on `&'static str` keys so the emit
    /// hot path never allocates; rendered into the registry's
    /// `events_total` / `events_by_kind_total{kind="…"}` counters only
    /// when a snapshot is taken.
    by_kind: BTreeMap<&'static str, u64>,
    poll: u64,
    epoch: u64,
    last_rate: BTreeMap<String, f64>,
}

impl ObsCore {
    /// The registry with the deferred per-kind event tallies folded in —
    /// what [`Obs::metrics`] and [`Obs::digest`] observe.
    fn merged_metrics(&self) -> MetricsRegistry {
        let mut merged = self.metrics.clone();
        let mut total = 0;
        for (&kind, &n) in &self.by_kind {
            merged.inc_by(&prom_label("events_by_kind_total", &[("kind", kind)]), n);
            total += n;
        }
        if total > 0 {
            merged.inc_by("events_total", total);
        }
        merged
    }
}

/// A cloneable handle on one observability plane.
///
/// Producers (`PowerMediator`, `ServerSim`, `ControlPlane`, agents)
/// each hold an `Option<Obs>`; cloning the handle shares the same
/// journal and registry, so a server's simulator and mediator write
/// interleaved records into one flight recorder. A panic under the
/// lock does not poison the plane for later callers.
#[derive(Debug, Clone)]
pub struct Obs {
    inner: Arc<Mutex<ObsCore>>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new(ObsConfig::default())
    }
}

impl Obs {
    /// Creates a fresh plane.
    pub fn new(_: ObsConfig) -> Self {
        Self {
            inner: Arc::new(Mutex::new(ObsCore {
                journal: EventJournal::new(JOURNAL_CAPACITY),
                metrics: MetricsRegistry::new(),
                by_kind: BTreeMap::new(),
                poll: 0,
                epoch: 0,
                last_rate: BTreeMap::new(),
            })),
        }
    }

    /// The plane's state. A poisoned lock is recovered: the plane is
    /// bookkeeping, and a producer's panic must not take it down with
    /// every later caller.
    fn core(&self) -> MutexGuard<'_, ObsCore> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts a new accounting poll and returns its sequence number
    /// (1-based; 0 means "before the first poll").
    pub fn begin_poll(&self) -> u64 {
        let mut core = self.core();
        core.poll += 1;
        core.metrics.inc("polls_total");
        core.poll
    }

    /// The current poll sequence number.
    pub fn poll(&self) -> u64 {
        self.core().poll
    }

    /// Sets the control-plane epoch stamped on subsequent records.
    pub fn set_epoch(&self, epoch: u64) {
        self.core().epoch = epoch;
    }

    /// Appends `event` to the journal at simulation time `at`, stamped
    /// with the current poll and epoch, and bumps the total and
    /// per-kind event counters.
    ///
    /// The per-kind tally is kept on `&'static str` keys here and only
    /// rendered into Prometheus-labeled counter names at snapshot time
    /// ([`Obs::metrics`] / [`Obs::digest`]), so this hot path does one
    /// lock, one map bump and one ring push — no string formatting.
    pub fn emit(&self, at: Seconds, event: ObsEvent) {
        let mut core = self.core();
        *core.by_kind.entry(event.kind()).or_insert(0) += 1;
        let (poll, epoch) = (core.poll, core.epoch);
        core.journal.record(at, poll, epoch, event);
    }

    /// Increments the counter `name`.
    pub fn inc(&self, name: &str) {
        self.core().metrics.inc(name);
    }

    /// Increments the counter `name` by `by`.
    pub fn inc_by(&self, name: &str, by: u64) {
        self.core().metrics.inc_by(name, by);
    }

    /// Sets the gauge `name` to `v`.
    pub fn set_gauge(&self, name: &str, v: f64) {
        self.core().metrics.set_gauge(name, v);
    }

    /// Records `v` into the histogram `name` (default log layout).
    pub fn observe(&self, name: &str, v: f64) {
        self.core().metrics.observe(name, v);
    }

    /// Feeds one heartbeat-rate reading for `app`; the absolute change
    /// versus the previous reading lands in the `heartbeat_jitter_hz`
    /// histogram. Rates are simulation-derived, so this stays
    /// deterministic and digest-safe.
    pub fn note_heartbeat(&self, app: &str, rate: f64) {
        let mut guard = self.core();
        let core = &mut *guard;
        if let Some(prev) = core.last_rate.get_mut(app) {
            let jitter = (rate - *prev).abs();
            *prev = rate;
            core.metrics.observe("heartbeat_jitter_hz", jitter);
        } else {
            // First reading for this app: the only allocating path.
            core.last_rate.insert(app.to_string(), rate);
        }
    }

    /// Opens a wall-clock self-profiling span; the elapsed seconds land
    /// in `span_seconds{name="…"}` when the guard drops. Span
    /// histograms never enter [`Obs::digest`].
    pub fn span(&self, name: &'static str) -> ObsSpan {
        ObsSpan {
            obs: self.clone(),
            name,
            started: std::time::Instant::now(),
        }
    }

    /// A copy of the retained journal records, oldest-first.
    pub fn journal_snapshot(&self) -> Vec<EventRecord> {
        self.core().journal.iter().cloned().collect()
    }

    /// Extracts a bounded shipping digest of the journal since the
    /// receiver's watermark (see [`EventJournal::digest_since`]).
    pub fn digest_since(&self, server_id: u64, since: u64, max_bytes: usize) -> JournalDigest {
        self.core()
            .journal
            .digest_since(server_id, since, max_bytes)
    }

    /// `(retained, evicted, total)` journal record counts.
    pub fn journal_counts(&self) -> (usize, u64, u64) {
        let core = self.core();
        (
            core.journal.len(),
            core.journal.evicted(),
            core.journal.total_recorded(),
        )
    }

    /// A copy of the metrics registry, with the deferred per-kind event
    /// tallies folded into `events_total` and
    /// `events_by_kind_total{kind="…"}`.
    pub fn metrics(&self) -> MetricsRegistry {
        self.core().merged_metrics()
    }

    /// Registers a custom histogram layout under `name`.
    pub fn register_histogram(&self, name: &str, histogram: Histogram) {
        self.core().metrics.register_histogram(name, histogram);
    }

    /// FNV-1a digest over the journal and the deterministic part of the
    /// registry. Instruments whose family starts with `span_` carry
    /// wall-clock samples and are excluded, so the digest is stable
    /// across machines and runs — the property the `ext_obs --smoke`
    /// double-run check in CI asserts.
    pub fn digest(&self) -> u64 {
        let core = self.core();
        let merged = core.merged_metrics();
        let mut hash = Fnv1a::new();
        for rec in core.journal.iter() {
            write!(hash, "{rec:?}").expect("debug formatting failed");
        }
        for (name, value) in merged.counters() {
            if name.starts_with("span_") {
                continue;
            }
            hash.write(name.as_bytes());
            hash.write(&value.to_le_bytes());
        }
        for (name, value) in merged.gauges() {
            if name.starts_with("span_") {
                continue;
            }
            hash.write(name.as_bytes());
            hash.write(&value.to_bits().to_le_bytes());
        }
        for (name, hist) in merged.histograms() {
            if name.starts_with("span_") {
                continue;
            }
            hash.write(name.as_bytes());
            for &b in hist.buckets() {
                hash.write(&b.to_le_bytes());
            }
            hash.write(&hist.count().to_le_bytes());
            hash.write(&hist.sum().to_bits().to_le_bytes());
        }
        hash.finish()
    }
}

/// RAII guard for a wall-clock span opened by [`Obs::span`].
#[derive(Debug)]
pub struct ObsSpan {
    obs: Obs,
    name: &'static str,
    started: std::time::Instant,
}

impl Drop for ObsSpan {
    fn drop(&mut self) {
        let elapsed = self.started.elapsed().as_secs_f64();
        self.obs
            .observe(&prom_label("span_seconds", &[("name", self.name)]), elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_units::rng::SplitMix;

    fn at(t: f64) -> Seconds {
        Seconds::new(t)
    }

    #[test]
    fn a_panic_under_the_lock_does_not_poison_later_callers() {
        let obs = Obs::default();
        obs.inc("before");
        let holder = obs.clone();
        std::thread::spawn(move || {
            let _core = holder.core();
            panic!("a producer panics while it holds the plane");
        })
        .join()
        .expect_err("the producer panicked");
        obs.inc("after");
        assert_eq!(obs.begin_poll(), 1);
        let metrics = obs.metrics();
        assert_eq!(
            (metrics.counter("before"), metrics.counter("after")),
            (1, 1)
        );
    }

    #[test]
    fn journal_retains_in_order_and_assigns_sequence_numbers() {
        let mut j = EventJournal::new(8);
        for i in 0..3 {
            let seq = j.record(at(i as f64), i, 0, ObsEvent::CapChanged { cap_w: 80.0 });
            assert_eq!(seq, i);
        }
        let seqs: Vec<u64> = j.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(j.evicted(), 0);
        assert_eq!(j.latest().unwrap().poll, 2);
    }

    #[test]
    fn journal_wraparound_evicts_oldest_first() {
        let mut j = EventJournal::new(3);
        for i in 0..7u64 {
            j.record(
                at(i as f64),
                i,
                0,
                ObsEvent::UplinkSent { server: 0, step: i },
            );
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.evicted(), 4);
        assert_eq!(j.total_recorded(), 7);
        let seqs: Vec<u64> = j.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6], "oldest evicted, order preserved");
    }

    #[test]
    fn journal_capacity_one_keeps_only_the_latest() {
        let mut j = EventJournal::new(1);
        j.record(at(0.0), 1, 0, ObsEvent::ManagerCrash);
        j.record(at(1.0), 2, 0, ObsEvent::ManagerTakeover);
        assert_eq!(j.len(), 1);
        assert_eq!(j.latest().unwrap().event, ObsEvent::ManagerTakeover);
        assert_eq!(j.evicted(), 1);
    }

    #[test]
    fn journal_capacity_zero_counts_but_stores_nothing() {
        let mut j = EventJournal::new(0);
        let seq0 = j.record(at(0.0), 0, 0, ObsEvent::ManagerCrash);
        let seq1 = j.record(at(1.0), 0, 0, ObsEvent::ManagerTakeover);
        assert_eq!((seq0, seq1), (0, 1), "sequence numbers still advance");
        assert!(j.is_empty());
        assert_eq!(j.evicted(), 2);
        assert_eq!(j.total_recorded(), 2);
    }

    #[test]
    fn obs_emit_stamps_poll_epoch_and_counts_by_kind() {
        let obs = Obs::new(ObsConfig::default());
        obs.set_epoch(7);
        let poll = obs.begin_poll();
        assert_eq!(poll, 1);
        obs.emit(
            at(0.5),
            ObsEvent::Arrival {
                app: "stream".into(),
            },
        );
        obs.emit(
            at(0.5),
            ObsEvent::SafeMode {
                transition: SafeModeTransition::Engaged,
            },
        );
        let records = obs.journal_snapshot();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.poll == 1 && r.epoch == 7));
        let m = obs.metrics();
        assert_eq!(m.counter("events_total"), 2);
        assert_eq!(m.counter("events_by_kind_total{kind=\"arrival\"}"), 1);
        assert_eq!(m.counter("events_by_kind_total{kind=\"safe_mode\"}"), 1);
        assert_eq!(m.counter("polls_total"), 1);
    }

    #[test]
    fn heartbeat_jitter_measures_rate_deltas() {
        let obs = Obs::new(ObsConfig::default());
        obs.note_heartbeat("stream", 100.0);
        obs.note_heartbeat("stream", 103.0);
        obs.note_heartbeat("stream", 101.0);
        obs.note_heartbeat("kmeans", 50.0); // first reading: no jitter yet
        let m = obs.metrics();
        let h = m.histogram("heartbeat_jitter_hz").expect("recorded");
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn spans_record_but_never_enter_the_digest() {
        let on = Obs::new(ObsConfig::default());
        {
            let _guard = on.span("plan");
        }
        assert_eq!(
            on.metrics()
                .histogram("span_seconds{name=\"plan\"}")
                .map(Histogram::count),
            Some(1)
        );

        // Same deterministic content, differing span samples → same digest.
        let twin = Obs::new(ObsConfig::default());
        {
            let _guard = twin.span("plan");
        }
        {
            let _guard = twin.span("plan");
        }
        on.emit(at(1.0), ObsEvent::ManagerCrash);
        twin.emit(at(1.0), ObsEvent::ManagerCrash);
        assert_eq!(on.digest(), twin.digest());
    }

    #[test]
    fn digest_is_sensitive_to_journal_content() {
        let a = Obs::new(ObsConfig::default());
        let b = Obs::new(ObsConfig::default());
        a.emit(at(0.0), ObsEvent::NodeCrash { server: 1 });
        b.emit(at(0.0), ObsEvent::NodeCrash { server: 2 });
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn event_kind_and_app_accessors() {
        let e = ObsEvent::KnobWrite {
            app: "stream".into(),
            verdict: KnobWriteVerdict::Deferred,
            attempts: 1,
        };
        assert_eq!(e.kind(), "knob_write");
        assert_eq!(e.app(), Some("stream"));
        assert_eq!(ObsEvent::ManagerCrash.app(), None);
    }

    #[test]
    fn cloned_handles_share_one_plane() {
        let obs = Obs::new(ObsConfig::default());
        let twin = obs.clone();
        twin.inc("knob_writes_total");
        obs.emit(at(0.0), ObsEvent::EndpointLoss { server: 3 });
        assert_eq!(obs.metrics().counter("knob_writes_total"), 1);
        assert_eq!(twin.journal_snapshot().len(), 1);
    }

    fn filled(capacity: usize, events: u64) -> EventJournal {
        let mut j = EventJournal::new(capacity);
        for i in 0..events {
            j.record(
                at(i as f64),
                i + 1,
                0,
                ObsEvent::UplinkSent { server: 0, step: i },
            );
        }
        j
    }

    #[test]
    fn digest_is_a_contiguous_delta_since_the_watermark() {
        let mut j = filled(64, 10);
        let d = j.digest_since(3, 4, 1 << 16);
        assert!(!d.wrapped);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.truncated, 0);
        let seqs: Vec<u64> = d.entries.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7, 8, 9]);
        assert_eq!(d.ack_to(), 10);
        assert_eq!(d.server_id, 3);
        // Fully acked: the next digest is empty and holds the watermark.
        let empty = j.digest_since(3, d.ack_to(), 1 << 16);
        assert!(empty.is_empty());
        assert_eq!(empty.ack_to(), 10);
    }

    #[test]
    fn digest_byte_cap_truncates_but_the_watermark_still_advances() {
        let mut j = filled(64, 12);
        let mut since = 0u64;
        let mut waves = 0;
        // A budget this small admits one record per wave (the first
        // record always ships): repeated extraction walks the whole
        // journal without skipping or repeating a record.
        let mut shipped = Vec::new();
        while since < j.total_recorded() {
            let d = j.digest_since(0, since, 1);
            assert_eq!(d.entries.len(), 1, "one record per starved wave");
            assert!(d.truncated > 0 || d.ack_to() == j.total_recorded());
            shipped.extend(d.entries.iter().map(|(_, r)| r.seq));
            assert!(d.ack_to() > since, "progress under any budget");
            since = d.ack_to();
            waves += 1;
        }
        assert_eq!(waves, 12);
        assert_eq!(shipped, (0..12).collect::<Vec<u64>>());
        // A roomy budget ships everything in one wave, within bound.
        let d = j.digest_since(0, 0, 1 << 16);
        assert_eq!(d.entries.len(), 12);
        assert!(d.bytes <= 1 << 16);
    }

    #[test]
    fn wraparound_marks_a_digest_gap_at_cap_one() {
        // Capacity 1: three events recorded, only seq 2 survives. The
        // digest must lead with a DigestGap for the two lost records —
        // synthesized, not stored, so the ring itself never recursed.
        let mut j = filled(1, 3);
        let d = j.digest_since(0, 0, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 2);
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.entries[0].1.seq, 0, "gap sits at the first lost seq");
        assert_eq!(d.entries[0].1.event, ObsEvent::DigestGap { dropped: 2 });
        assert_eq!(d.entries[1].1.seq, 2);
        assert_eq!(d.ack_to(), 3);
        // Re-shipping regenerates the identical gap record.
        assert_eq!(j.digest_since(0, 0, 1 << 16), d);
    }

    #[test]
    fn wraparound_marks_a_digest_gap_at_cap_two() {
        let mut j = filled(2, 5);
        let d = j.digest_since(0, 1, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 2, "seqs 1 and 2 were overwritten unshipped");
        assert_eq!(d.entries[0].1.event, ObsEvent::DigestGap { dropped: 2 });
        assert_eq!(d.entries[0].1.seq, 1);
        let seqs: Vec<u64> = d.entries.iter().skip(1).map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, vec![3, 4]);
        assert_eq!(d.ack_to(), 5);
        // Already-acked evictions are not a gap.
        let clean = j.digest_since(0, 3, 1 << 16);
        assert!(!clean.wrapped);
        assert_eq!(clean.dropped, 0);
    }

    #[test]
    fn empty_ring_past_the_watermark_is_all_gap() {
        let mut j = filled(0, 4);
        let d = j.digest_since(0, 0, 1 << 16);
        assert!(d.wrapped);
        assert_eq!(d.dropped, 4);
        assert_eq!(d.entries.len(), 1, "only the gap marker ships");
        assert_eq!(d.ack_to(), 4, "the hole itself is acknowledged");
    }

    #[test]
    fn the_cost_cache_is_invisible() {
        // Capacity 8 of 12 records: the shipped journal has measured
        // records it then evicted, and truncated waves left some
        // records measured but unshipped.
        let mut shipped = filled(8, 12);
        for (since, max_bytes) in [(0, 1 << 16), (5, 300), (9, 1)] {
            shipped.digest_since(0, since, max_bytes);
        }
        let fresh = filled(8, 12);
        assert_eq!(format!("{shipped:?}"), format!("{fresh:?}"));
        assert_eq!(format!("{shipped:#?}"), format!("{fresh:#?}"));
        assert_eq!(shipped, fresh);
        for (since, max_bytes) in [(0, 1 << 16), (0, 300), (5, 300), (9, 1), (12, 0)] {
            assert_eq!(
                shipped.digest_since(2, since, max_bytes),
                filled(8, 12).digest_since(2, since, max_bytes),
                "since {since}, max_bytes {max_bytes}"
            );
        }
    }

    #[test]
    fn fleet_merge_is_idempotent_and_counts_dedup() {
        let mut j = filled(64, 6);
        let d = j.digest_since(7, 0, 1 << 16);
        let mut t = FleetTimeline::new();
        assert_eq!(t.merge_digest(&d), 6);
        assert_eq!(t.merge_digest(&d), 0, "re-ship merges nothing new");
        assert_eq!(t.len(), 6);
        assert_eq!(t.merged_total(), 6);
        assert_eq!(t.dedup_total(), 6);
        assert!(t.iter().all(|e| e.server_id == 7));
    }

    #[test]
    fn fleet_timeline_orders_by_epoch_poll_server_seq() {
        let rec = |seq, poll, epoch| EventRecord {
            seq,
            at: at(0.0),
            poll,
            epoch,
            event: ObsEvent::ManagerCrash,
        };
        let mut t = FleetTimeline::new();
        t.insert(1, rec(5, 2, 1));
        t.insert(0, rec(9, 2, 1));
        t.insert(2, rec(0, 1, 2));
        t.insert(0, rec(3, 9, 0));
        let keys: Vec<FleetKey> = t
            .iter()
            .map(|e| FleetTimeline::key(e.server_id, &e.record))
            .collect();
        assert_eq!(
            keys,
            vec![(0, 9, 0, 3), (1, 2, 0, 9), (1, 2, 1, 5), (2, 1, 2, 0)]
        );
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "iteration follows the merge key order");
    }

    #[test]
    fn fleet_digest_is_sensitive_to_content_and_provenance() {
        let mut j = filled(64, 3);
        let mut a = FleetTimeline::new();
        let mut b = FleetTimeline::new();
        a.merge_digest(&j.digest_since(0, 0, 1 << 16));
        b.merge_digest(&j.digest_since(1, 0, 1 << 16));
        assert_ne!(a.digest(), b.digest(), "same records, different server");
        let mut twin = FleetTimeline::new();
        twin.merge_digest(&j.digest_since(0, 0, 1 << 16));
        assert_eq!(a.digest(), twin.digest());
    }

    /// A generated fleet: per-server record streams with varied epochs
    /// and polls, derived entirely from `seed`.
    fn generated_fleet(seed: u64) -> Vec<(u64, Vec<EventRecord>)> {
        let mut s = SplitMix::new(seed);
        let servers = 1 + s.below(4) as usize;
        (0..servers as u64)
            .map(|sid| {
                let n = s.below(24);
                let mut epoch = 0u64;
                let mut poll = 0u64;
                let records = (0..n)
                    .map(|seq| {
                        epoch += s.below(2);
                        poll += s.below(3);
                        EventRecord {
                            seq,
                            at: at(seq as f64),
                            poll,
                            epoch,
                            event: ObsEvent::UplinkSent {
                                server: sid as usize,
                                step: s.below(100),
                            },
                        }
                    })
                    .collect();
                (sid, records)
            })
            .collect()
    }

    proptest::proptest! {
        /// Merging the same digest set in any delivery order — with
        /// duplication, reordering, and delayed (split) delivery — lands
        /// on the same timeline: the merge is commutative and idempotent.
        #[test]
        fn prop_merge_commutes_under_duplication_reorder_and_delay(
            seed in 0u64..u64::MAX,
            split in 1usize..8,
        ) {
            let fleet = generated_fleet(seed);
            // In-order, whole-stream delivery.
            let mut reference = FleetTimeline::new();
            for (sid, records) in &fleet {
                reference.merge_records(*sid, records);
            }
            // Adversarial delivery: streams split into waves, waves
            // delivered server-interleaved in reverse, every wave
            // delivered twice (retry duplication).
            let mut waves: Vec<(u64, &[EventRecord])> = Vec::new();
            for (sid, records) in &fleet {
                for chunk in records.chunks(split) {
                    waves.push((*sid, chunk));
                }
            }
            waves.reverse();
            let mut adversarial = FleetTimeline::new();
            for (sid, chunk) in &waves {
                adversarial.merge_records(*sid, chunk);
                adversarial.merge_records(*sid, chunk);
            }
            proptest::prop_assert_eq!(reference.len(), adversarial.len());
            proptest::prop_assert_eq!(reference.digest(), adversarial.digest());
            // Every record was delivered exactly twice.
            proptest::prop_assert_eq!(adversarial.dedup_total(), adversarial.merged_total());
            // Idempotence at the timeline level too.
            let before = adversarial.digest();
            let twin = adversarial.clone();
            adversarial.merge(&twin);
            proptest::prop_assert_eq!(adversarial.digest(), before);
        }

        /// The `(epoch, poll, server, seq)` key is a total order on any
        /// generated digest set: all keys are distinct (seq is unique
        /// per server) and iteration is strictly increasing.
        #[test]
        fn prop_merge_key_orders_generated_digest_sets_totally(
            seed in 0u64..u64::MAX,
        ) {
            let fleet = generated_fleet(seed);
            let mut t = FleetTimeline::new();
            let mut pushed = 0u64;
            for (sid, records) in &fleet {
                pushed += records.len() as u64;
                t.merge_records(*sid, records);
            }
            // seq is unique per server, so there are no key collisions.
            proptest::prop_assert_eq!(t.len() as u64, pushed);
            let keys: Vec<FleetKey> = t
                .iter()
                .map(|e| FleetTimeline::key(e.server_id, &e.record))
                .collect();
            for w in keys.windows(2) {
                proptest::prop_assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
            }
        }
    }

    /// The scanning, formatting and copying code paths the recorder's
    /// shortcuts replaced, kept as references: each property checks a
    /// shortcut against the code it stands in for.
    mod matches_reference {
        use super::*;
        use proptest::prelude::*;

        /// The record's length, measured by formatting it.
        fn encoded_cost_reference(rec: &EventRecord) -> usize {
            format!("{rec:?}").len()
        }

        /// `digest_since` as it scanned the whole ring and formatted
        /// every record past the resume point, shipped or not.
        fn digest_since_reference(
            j: &EventJournal,
            server_id: u64,
            since: u64,
            max_bytes: usize,
        ) -> JournalDigest {
            let oldest_retained = j.iter().next().map_or(j.total_recorded(), |r| r.seq);
            let resume_at = oldest_retained.max(since);
            let dropped = resume_at - since;
            let wrapped = dropped > 0;
            let mut entries = Vec::new();
            let mut bytes = DIGEST_HEADER_BYTES;
            let mut truncated = 0u64;
            if wrapped {
                let (at, poll, epoch) = j
                    .iter()
                    .next()
                    .map_or((Seconds::ZERO, 0, 0), |r| (r.at, r.poll, r.epoch));
                let gap = EventRecord {
                    seq: since,
                    at,
                    poll,
                    epoch,
                    event: ObsEvent::DigestGap { dropped },
                };
                bytes += encoded_cost_reference(&gap);
                entries.push((FleetTimeline::key(server_id, &gap), Arc::new(gap)));
            }
            let mut shipping = true;
            for rec in j.iter() {
                if rec.seq < resume_at {
                    continue;
                }
                let cost = encoded_cost_reference(rec);
                if shipping && (bytes + cost <= max_bytes || entries.is_empty()) {
                    bytes += cost;
                    entries.push((FleetTimeline::key(server_id, rec), Arc::new(rec.clone())));
                } else {
                    shipping = false;
                    truncated += 1;
                }
            }
            JournalDigest {
                server_id,
                since,
                entries,
                wrapped,
                dropped,
                truncated,
                bytes: bytes as u64,
            }
        }

        struct Draws(SplitMix);

        impl Draws {
            fn below(&mut self, n: u64) -> u64 {
                self.0.below(n)
            }

            fn float(&mut self) -> f64 {
                const POOL: [f64; 6] = [0.0, -0.0, f64::NAN, f64::NEG_INFINITY, 1e-7, 123.25];
                match self.below(POOL.len() as u64 + 1) as usize {
                    i if i == POOL.len() => (self.below(1 << 20) as f64) / 7.0,
                    i => POOL[i],
                }
            }

            fn text(&mut self) -> String {
                let len = self.below(12) as usize;
                (0..len)
                    .map(|_| ['a', 'Z', '"', '\\', '\n', 'é', '∑', ' '][self.below(8) as usize])
                    .collect()
            }

            fn flag(&mut self) -> bool {
                self.below(2) == 1
            }

            fn count(&mut self) -> u64 {
                match self.below(3) {
                    0 => self.below(10),
                    1 => u64::MAX - self.below(3),
                    _ => self.0.next_u64(),
                }
            }

            /// Variant `i` of [`ObsEvent`] with drawn fields.
            fn event(&mut self, i: usize) -> ObsEvent {
                let verdicts = [
                    KnobWriteVerdict::Landed,
                    KnobWriteVerdict::Deferred,
                    KnobWriteVerdict::RetryLanded,
                    KnobWriteVerdict::RetryExhausted,
                ];
                let transitions = [
                    SafeModeTransition::Engaged,
                    SafeModeTransition::Released,
                    SafeModeTransition::Escalated,
                ];
                match i {
                    0 => ObsEvent::Poll {
                        alloc_w: self.float(),
                        net_w: self.float(),
                        observed_w: self.flag().then(|| self.float()),
                        cap_w: self.float(),
                        over_cap: self.flag(),
                    },
                    1 => ObsEvent::Planned {
                        apps: self.count() as usize,
                        mode: ["", "esd", "rapl"][self.below(3) as usize],
                    },
                    2 => ObsEvent::Allocation {
                        app: self.text(),
                        watts: self.float(),
                    },
                    3 => ObsEvent::CapChanged {
                        cap_w: self.float(),
                    },
                    4 => ObsEvent::Arrival { app: self.text() },
                    5 => ObsEvent::Departure { app: self.text() },
                    6 => ObsEvent::Drift { app: self.text() },
                    7 => ObsEvent::ActuationFault { app: self.text() },
                    8 => ObsEvent::SensorFault { what: self.text() },
                    9 => ObsEvent::SensorSuspect {
                        dropouts: self.count() as u32,
                        stuck: self.count() as u32,
                    },
                    10 => ObsEvent::ResidualSpike {
                        residual_w: self.float(),
                        band_w: self.float(),
                        streak: self.count() as u32,
                    },
                    11 => ObsEvent::FallbackCap {
                        shave_w: self.float(),
                        engaged: self.flag(),
                    },
                    12 => ObsEvent::Probe {
                        app: self.text(),
                        cold: self.count() as usize,
                        warm: self.count() as usize,
                        skipped: self.count() as usize,
                    },
                    13 => ObsEvent::KnobWrite {
                        app: self.text(),
                        verdict: verdicts[self.below(4) as usize],
                        attempts: self.count() as u32,
                    },
                    14 => ObsEvent::SafeMode {
                        transition: transitions[self.below(3) as usize],
                    },
                    15 => ObsEvent::ForceThrottle { app: self.text() },
                    16 => ObsEvent::StorePublish {
                        app: self.text(),
                        version: self.count(),
                    },
                    17 => ObsEvent::StoreTombstone {
                        app: self.text(),
                        version: self.count(),
                    },
                    18 => ObsEvent::DownlinkSent {
                        server: self.count() as usize,
                        epoch: self.count(),
                        cap_w: self.float(),
                        repair: self.flag(),
                    },
                    19 => ObsEvent::UplinkSent {
                        server: self.count() as usize,
                        step: self.count(),
                    },
                    20 => ObsEvent::LinkDropped {
                        server: self.count() as usize,
                        uplink: self.flag(),
                    },
                    21 => ObsEvent::LinkDelayed {
                        server: self.count() as usize,
                        uplink: self.flag(),
                        steps: self.count(),
                    },
                    22 => ObsEvent::EndpointLoss {
                        server: self.count() as usize,
                    },
                    23 => ObsEvent::NodeCrash {
                        server: self.count() as usize,
                    },
                    24 => ObsEvent::NodeRestart {
                        server: self.count() as usize,
                    },
                    25 => ObsEvent::ManagerCrash,
                    26 => ObsEvent::ManagerTakeover,
                    27 => ObsEvent::HeartbeatClampBound {
                        app: self.text(),
                        ratio: self.float(),
                    },
                    28 => ObsEvent::TrustDowngrade {
                        app: self.text(),
                        score: self.float(),
                    },
                    29 => ObsEvent::Quarantine {
                        app: self.text(),
                        cause: self.text(),
                    },
                    30 => ObsEvent::Clawback {
                        app: self.text(),
                        w: self.float(),
                    },
                    31 => ObsEvent::IntegrityFault { app: self.text() },
                    32 => ObsEvent::DemandSpike {
                        app: self.text(),
                        ratio: self.float(),
                    },
                    33 => ObsEvent::SloWindow {
                        app: self.text(),
                        attainment: self.float(),
                        ok: self.flag(),
                    },
                    34 => ObsEvent::DigestGap {
                        dropped: self.count(),
                    },
                    35 => ObsEvent::FleetOverBudget {
                        net_w: self.float(),
                        budget_w: self.float(),
                        streak: self.count(),
                    },
                    36 => ObsEvent::ServerOverdraw {
                        server: self.count() as usize,
                        net_w: self.float(),
                        share_w: self.float(),
                    },
                    37 => ObsEvent::BreakerTrip {
                        hold_steps: self.count(),
                        floor_w: self.float(),
                    },
                    38 => ObsEvent::BreakerRelease,
                    39 => ObsEvent::EmergencyClamp {
                        server: self.count() as usize,
                    },
                    40 => ObsEvent::HeartbeatMissed {
                        misses: self.count(),
                    },
                    41 => ObsEvent::FallbackEngage {
                        cap_w: self.float(),
                    },
                    42 => ObsEvent::FallbackDecay {
                        cap_w: self.float(),
                    },
                    _ => ObsEvent::FallbackRelease {
                        cap_w: self.float(),
                    },
                }
            }

            fn any_event(&mut self) -> ObsEvent {
                let i = self.below(VARIANTS as u64) as usize;
                self.event(i)
            }
        }

        /// Number of [`ObsEvent`] variants.
        const VARIANTS: usize = 44;

        /// The position of `event`'s variant in [`Draws::event`]. The
        /// match has no catch-all, so a new variant fails to compile
        /// here until it is drawn too.
        fn variant(event: &ObsEvent) -> usize {
            match event {
                ObsEvent::Poll { .. } => 0,
                ObsEvent::Planned { .. } => 1,
                ObsEvent::Allocation { .. } => 2,
                ObsEvent::CapChanged { .. } => 3,
                ObsEvent::Arrival { .. } => 4,
                ObsEvent::Departure { .. } => 5,
                ObsEvent::Drift { .. } => 6,
                ObsEvent::ActuationFault { .. } => 7,
                ObsEvent::SensorFault { .. } => 8,
                ObsEvent::SensorSuspect { .. } => 9,
                ObsEvent::ResidualSpike { .. } => 10,
                ObsEvent::FallbackCap { .. } => 11,
                ObsEvent::Probe { .. } => 12,
                ObsEvent::KnobWrite { .. } => 13,
                ObsEvent::SafeMode { .. } => 14,
                ObsEvent::ForceThrottle { .. } => 15,
                ObsEvent::StorePublish { .. } => 16,
                ObsEvent::StoreTombstone { .. } => 17,
                ObsEvent::DownlinkSent { .. } => 18,
                ObsEvent::UplinkSent { .. } => 19,
                ObsEvent::LinkDropped { .. } => 20,
                ObsEvent::LinkDelayed { .. } => 21,
                ObsEvent::EndpointLoss { .. } => 22,
                ObsEvent::NodeCrash { .. } => 23,
                ObsEvent::NodeRestart { .. } => 24,
                ObsEvent::ManagerCrash => 25,
                ObsEvent::ManagerTakeover => 26,
                ObsEvent::HeartbeatClampBound { .. } => 27,
                ObsEvent::TrustDowngrade { .. } => 28,
                ObsEvent::Quarantine { .. } => 29,
                ObsEvent::Clawback { .. } => 30,
                ObsEvent::IntegrityFault { .. } => 31,
                ObsEvent::DemandSpike { .. } => 32,
                ObsEvent::SloWindow { .. } => 33,
                ObsEvent::DigestGap { .. } => 34,
                ObsEvent::FleetOverBudget { .. } => 35,
                ObsEvent::ServerOverdraw { .. } => 36,
                ObsEvent::BreakerTrip { .. } => 37,
                ObsEvent::BreakerRelease => 38,
                ObsEvent::EmergencyClamp { .. } => 39,
                ObsEvent::HeartbeatMissed { .. } => 40,
                ObsEvent::FallbackEngage { .. } => 41,
                ObsEvent::FallbackDecay { .. } => 42,
                ObsEvent::FallbackRelease { .. } => 43,
            }
        }

        /// Appends `events` drawn records to `j` (the ring evicts once
        /// full), polls and epochs rising from its latest record.
        fn record_drawn(draws: &mut Draws, j: &mut EventJournal, events: u64) {
            let (mut poll, mut epoch) = j.latest().map_or((0, 0), |r| (r.poll, r.epoch));
            for _ in 0..events {
                poll += draws.below(3);
                epoch += draws.below(2);
                let event = draws.any_event();
                let i = j.total_recorded();
                j.record(at(i as f64 * draws.float()), poll, epoch, event);
            }
        }

        /// Records as server `0..servers` might ship them, with repeats.
        fn shipments(draws: &mut Draws, servers: u64, n: u64) -> Vec<(u64, Vec<EventRecord>)> {
            (0..n)
                .map(|_| {
                    let server = draws.below(servers);
                    let records = (0..draws.below(6))
                        .map(|_| EventRecord {
                            seq: draws.below(12),
                            at: at(draws.below(100) as f64),
                            poll: draws.below(4),
                            epoch: draws.below(3),
                            event: draws.any_event(),
                        })
                        .collect();
                    (server, records)
                })
                .collect()
        }

        fn merge_all(t: &mut FleetTimeline, shipped: &[(u64, Vec<EventRecord>)]) {
            for (server, records) in shipped {
                t.merge_records(*server, records);
            }
        }

        #[test]
        fn every_variant_is_drawn() {
            let mut draws = Draws(SplitMix::new(7));
            for i in 0..VARIANTS {
                assert_eq!(variant(&draws.event(i)), i);
            }
        }

        #[test]
        #[should_panic(expected = "latest mark")]
        fn rewinding_to_a_superseded_mark_panics() {
            let record = filled(1, 1).latest().cloned().expect("one record");
            let mut t = FleetTimeline::new();
            let first = t.mark();
            t.insert(0, record.clone());
            t.mark();
            t.insert(1, record);
            t.rewind(first);
        }

        proptest! {
            // Release builds (CI's "Test (release)" step) run 1024
            // cases; debug builds keep the shim's default 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// (d) The counted cost is the formatted length, for every
            /// variant and awkward field values.
            #[test]
            fn prop_encoded_cost_counts_the_debug_bytes(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));
                for i in 0..VARIANTS {
                    let rec = EventRecord {
                        seq: draws.count(),
                        at: at(draws.float()),
                        poll: draws.count(),
                        epoch: draws.count(),
                        event: draws.event(i),
                    };
                    prop_assert_eq!(encoded_cost(&rec), encoded_cost_reference(&rec));
                }
            }

            /// (c) The binary-searched, count-only-past-the-cap digest
            /// with cached costs equals the scanning, formatting one on
            /// wrapped and unwrapped rings, under tight, loose and
            /// absent byte caps, with the watermark behind, inside and
            /// ahead of the ring. Records land between digests, so a
            /// digest reads costs an earlier one cached after the ring
            /// has evicted some of their records. Merging the digests by
            /// their shipped keys builds the timeline that merging their
            /// records does.
            #[test]
            fn prop_digest_since_matches_the_scanning_reference(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));
                let capacity = draws.below(9) as usize;
                let mut j = EventJournal::new(capacity);
                let mut by_key = FleetTimeline::new();
                let mut by_record = FleetTimeline::new();
                for _ in 0..8 {
                    let events = draws.below(8);
                    record_drawn(&mut draws, &mut j, events);
                    let since = draws.below(j.total_recorded() + 4);
                    let max_bytes = match draws.below(4) {
                        0 => usize::MAX,
                        1 => 0,
                        _ => draws.below(1200) as usize,
                    };
                    let server = draws.count();
                    let digest = j.digest_since(server, since, max_bytes);
                    // Compared as `Debug`: NaN fields defeat `==`.
                    prop_assert_eq!(
                        format!("{digest:?}"),
                        format!("{:?}", digest_since_reference(&j, server, since, max_bytes))
                    );
                    let records: Vec<EventRecord> =
                        digest.entries.iter().map(|(_, r)| (**r).clone()).collect();
                    prop_assert_eq!(
                        by_key.merge_digest(&digest),
                        by_record.merge_records(server, &records)
                    );
                    prop_assert_eq!(format!("{by_key:?}"), format!("{by_record:?}"));
                }
            }

            /// (e) After random merges, rewinding to the latest mark
            /// leaves the timeline equal to a clone taken at the mark,
            /// and the two evolve identically afterwards.
            #[test]
            fn prop_rewind_equals_a_clone_taken_at_the_mark(seed in 0u64..u64::MAX) {
                let mut draws = Draws(SplitMix::new(seed));
                let mut t = FleetTimeline::new();
                let (before, after, later) = {
                    let n = |d: &mut Draws| d.below(6);
                    let (a, b, c) = (n(&mut draws), n(&mut draws), n(&mut draws));
                    (
                        shipments(&mut draws, 3, a),
                        shipments(&mut draws, 3, b),
                        shipments(&mut draws, 3, c),
                    )
                };
                merge_all(&mut t, &before);
                if draws.below(2) == 0 {
                    // An earlier mark, superseded below.
                    t.mark();
                    merge_all(&mut t, &before[..before.len() / 2]);
                }
                let mark = t.mark();
                let copy = t.clone();
                // Re-shipments of what is held, and new records.
                merge_all(&mut t, &after);
                merge_all(&mut t, &before);
                // Compared as `Debug` (records and both counters) and by
                // digest: NaN fields defeat `==`.
                for _ in 0..=draws.below(2) {
                    t.rewind(mark);
                    prop_assert_eq!(format!("{t:?}"), format!("{copy:?}"));
                    prop_assert_eq!(t.digest(), copy.digest());
                }
                let mut copy = copy;
                merge_all(&mut t, &later);
                merge_all(&mut copy, &later);
                prop_assert_eq!(format!("{t:?}"), format!("{copy:?}"));
                prop_assert_eq!(t.digest(), copy.digest());
            }
        }
    }
}
