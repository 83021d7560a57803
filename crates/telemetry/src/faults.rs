//! Fault accounting: counters for injected substrate faults and for the
//! runtime's degradation responses.
//!
//! The simulated substrate (see `powermed-sim`'s fault injector) counts
//! every fault it injects in a [`FaultStats`]; the hardened mediator
//! counts every mitigation it performs in a [`HardeningStats`]. Both are
//! plain counter structs so experiments can diff them across runs.

/// Counters for faults injected into the simulated substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Knob writes rejected outright (the actuation returned an error).
    pub knob_rejections: u64,
    /// Knob writes that silently left the stale setting in force.
    pub knob_stale: u64,
    /// Knob writes that applied only partially (DVFS landed, core
    /// allocation did not).
    pub knob_partial: u64,
    /// Meter samples replaced by a held (stuck) reading.
    pub meter_stuck: u64,
    /// Meter samples dropped entirely (the runtime observed nothing).
    pub meter_dropouts: u64,
    /// Meter samples perturbed by multiplicative noise.
    pub meter_noisy: u64,
    /// Meter samples skewed by the shared (whole-meter) bias — the
    /// correlated error mode every per-app share inherits at once.
    pub meter_biased: u64,
    /// Non-idle ESD commands silently ignored by a stuck device.
    pub esd_commands_ignored: u64,
    /// Application crash events.
    pub app_crashes: u64,
    /// Application restart events (a crashed app resumed).
    pub app_restarts: u64,
}

impl FaultStats {
    /// Total number of discrete fault events (noise perturbations and
    /// the continuous shared bias are excluded;
    /// stuck/dropout/rejection/crash count).
    pub fn total_events(&self) -> u64 {
        self.knob_rejections
            + self.knob_stale
            + self.knob_partial
            + self.meter_stuck
            + self.meter_dropouts
            + self.esd_commands_ignored
            + self.app_crashes
            + self.app_restarts
    }
}

/// Counters for the hardened mediator's degradation responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardeningStats {
    /// Actuation retries attempted (each backoff-scheduled reattempt).
    pub retries: u64,
    /// Actuations abandoned after the retry budget was exhausted
    /// (each fires an E5 `ActuationFault`).
    pub actuation_faults: u64,
    /// Sensor-fault episodes detected (each fires an E6 `SensorFault`).
    pub sensor_faults: u64,
    /// Safe-mode engagements (forced throttle to minimum knobs).
    pub safe_mode_entries: u64,
    /// Safe-mode releases (breach cleared, normal planning resumed).
    pub safe_mode_exits: u64,
    /// Safe-mode escalations (breach persisted at minimum knobs, all
    /// applications parked).
    pub safe_mode_escalations: u64,
    /// Calibrations skipped because the application departed mid-probe.
    pub skipped_calibrations: u64,
}

/// Counters for the non-intrusive power-estimation layer (all zero
/// when the mediator runs on oracle per-app power).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EstimationStats {
    /// Breakdowns estimated (one per poll while estimation is on).
    pub estimates: u64,
    /// Estimates served from a held (dropout-bridged) meter sample.
    pub held_samples: u64,
    /// Estimates served blind (dropout outlasted the hold window; the
    /// prior-sum pseudo-meter took over).
    pub blind_samples: u64,
    /// Polls whose meter-vs-model residual exceeded the confidence
    /// band (evidence toward the degradation ladder).
    pub residual_spikes: u64,
    /// Conservative fallback-cap engagements (planning cap shaved by
    /// the confidence band; each fires an E6 `SensorFault`).
    pub fallback_engagements: u64,
    /// Fallback releases (residual stayed clean long enough).
    pub fallback_releases: u64,
    /// Ladder escalations to safe mode (shaving did not stop the
    /// spikes).
    pub escalations: u64,
    /// Per-app polls whose claimed heartbeat ratio hit the estimator's
    /// clamp bound. A truthful app sits well inside the band, so every
    /// bound hit is a sample the estimator could not take at face
    /// value — the integrity layer seeds its trust scores from these.
    pub clamp_bound_polls: u64,
}

/// Counters for injected adversarial-application behaviour (the
/// strategic misreporting channels in `powermed-sim`'s adversary
/// module). All zero when no adversary is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdversaryStats {
    /// Heartbeat reports scaled away from the true rate (inflation or
    /// deflation, including jittered reports).
    pub heartbeats_misreported: u64,
    /// Calibration probes answered with sandbagged (deliberately
    /// pessimistic) throughput.
    pub probes_sandbagged: u64,
    /// Steps on which an acked knob setting was silently overridden
    /// with a hotter operating point.
    pub knobs_defied: u64,
    /// Heartbeat reports modulated by the phase-spoofing square wave.
    pub phases_spoofed: u64,
}

impl AdversaryStats {
    /// Total number of misbehaviour events across every channel.
    pub fn total_events(&self) -> u64 {
        self.heartbeats_misreported
            + self.probes_sandbagged
            + self.knobs_defied
            + self.phases_spoofed
    }
}

/// Counters for the mediator's integrity defense (trust scoring,
/// quarantine ladder and watt-debt clawback). All zero when the
/// defense is off or every app behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrustStats {
    /// Polls on which some app's claim failed a physics-plausibility
    /// cross-check (claimed rate vs. the calibrated surface, residual
    /// sign attribution, or a clamp-bound heartbeat).
    pub implausible_polls: u64,
    /// Trust-score downgrades (each journals a `TrustDowngrade`).
    pub downgrades: u64,
    /// Quarantine entries (each fires an E7 `IntegrityFault` and
    /// clamps the app to its fair share).
    pub quarantines: u64,
    /// Probationary re-admissions (clean window elapsed, fresh probes
    /// scheduled).
    pub probations: u64,
    /// Full re-admissions (probation completed cleanly).
    pub readmissions: u64,
    /// Polls on which watt debt was clawed back from a quarantined
    /// app's clamp.
    pub clawback_polls: u64,
    /// Containment entries: a quarantined app kept overdrawing with
    /// the clamp in force (knob non-compliance confirmed), so it was
    /// suspended until its watt debt was repaid in idle time.
    pub containments: u64,
}

impl TrustStats {
    /// Total defense responses (downgrades and ladder transitions;
    /// plausibility flags are evidence, not responses).
    pub fn response_events(&self) -> u64 {
        self.downgrades + self.quarantines + self.probations + self.readmissions
    }
}

/// Counters for the cluster control plane: faults injected into the
/// manager ↔ agent message layer plus the resilient tier's responses.
///
/// The injected half is filled by the control plane's fault source; the
/// response half by the resilient manager (failovers, dead declarations,
/// reapportionments, checkpoints) and the per-server agents (heartbeat
/// misses, fallback engagements). A naive manager leaves the response
/// half at zero, and a fault-free run leaves the injected half at zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterControlStats {
    /// Cap-assignment / heartbeat downlinks dropped in flight.
    pub downlinks_dropped: u64,
    /// Downlinks delivered late (delayed by at least one step).
    pub downlinks_delayed: u64,
    /// Telemetry uplinks dropped in flight.
    pub uplinks_dropped: u64,
    /// Telemetry uplinks delivered stale (delayed by at least one step).
    pub uplinks_delayed: u64,
    /// Messages lost because the destination node was down or the
    /// manager was dead when they would have been handled.
    pub messages_lost_endpoint_down: u64,
    /// Whole-node crash events (apps restart, ESD state resets).
    pub node_crashes: u64,
    /// Node restart events (a crashed node rejoined the fleet).
    pub node_restarts: u64,
    /// Manager heartbeat intervals that elapsed with no downlink at all
    /// (counted by the agents).
    pub heartbeat_misses: u64,
    /// Agents that engaged the conservative local fallback cap.
    pub fallback_engagements: u64,
    /// Manager failovers (standby took over from the checkpoint).
    pub manager_failovers: u64,
    /// Checkpoints of the manager's apportionment state.
    pub checkpoints: u64,
    /// Nodes the manager declared dead on missed telemetry.
    pub dead_declarations: u64,
    /// Dead-declared nodes that rejoined (their share is returned).
    pub rejoins: u64,
    /// Cluster cap reapportionments (trace changes excluded: only the
    /// membership- or failover-driven recomputations count here).
    pub reapportionments: u64,
    /// Facility-protection trips: sustained budget overdraw slammed the
    /// fleet to the floor cap for a cooldown. A *consequence* of
    /// violations rather than an injected fault or a control-plane
    /// response, so excluded from both event sums.
    pub breaker_trips: u64,
}

impl ClusterControlStats {
    /// Total control-plane fault events injected (drops, delays, node
    /// churn, endpoint losses — the environment, not the responses).
    pub fn injected_events(&self) -> u64 {
        self.downlinks_dropped
            + self.downlinks_delayed
            + self.uplinks_dropped
            + self.uplinks_delayed
            + self.messages_lost_endpoint_down
            + self.node_crashes
            + self.node_restarts
    }

    /// Total resilient-tier responses (zero for a naive manager).
    pub fn response_events(&self) -> u64 {
        self.heartbeat_misses
            + self.fallback_engagements
            + self.manager_failovers
            + self.dead_declarations
            + self.rejoins
            + self.reapportionments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_discrete_events() {
        let s = FaultStats {
            knob_rejections: 1,
            knob_stale: 2,
            knob_partial: 3,
            meter_stuck: 4,
            meter_dropouts: 5,
            meter_noisy: 100,
            meter_biased: 200,
            esd_commands_ignored: 6,
            app_crashes: 7,
            app_restarts: 8,
        };
        assert_eq!(
            s.total_events(),
            36,
            "noise and shared bias are not discrete events"
        );
    }

    #[test]
    fn defaults_are_zero() {
        assert_eq!(FaultStats::default().total_events(), 0);
        let h = HardeningStats::default();
        assert_eq!(h.retries, 0);
        assert_eq!(h.safe_mode_entries, 0);
        let e = EstimationStats::default();
        assert_eq!(e.estimates, 0);
        assert_eq!(e.fallback_engagements, 0);
        assert_eq!(e.clamp_bound_polls, 0);
        assert_eq!(AdversaryStats::default().total_events(), 0);
        assert_eq!(TrustStats::default().response_events(), 0);
        let c = ClusterControlStats::default();
        assert_eq!(c.injected_events(), 0);
        assert_eq!(c.response_events(), 0);
    }

    #[test]
    fn cluster_totals_split_injection_from_response() {
        let c = ClusterControlStats {
            downlinks_dropped: 1,
            downlinks_delayed: 2,
            uplinks_dropped: 3,
            uplinks_delayed: 4,
            messages_lost_endpoint_down: 5,
            node_crashes: 6,
            node_restarts: 7,
            heartbeat_misses: 10,
            fallback_engagements: 20,
            manager_failovers: 30,
            checkpoints: 1000,
            dead_declarations: 40,
            rejoins: 50,
            reapportionments: 60,
            breaker_trips: 9,
        };
        assert_eq!(c.injected_events(), 28);
        assert_eq!(
            c.response_events(),
            210,
            "checkpoints are routine and breaker trips are consequences, not responses"
        );
    }
}
