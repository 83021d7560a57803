//! The `Accountant`: tracking the cap, the hosted applications, and when
//! to re-allocate or re-calibrate (Sec. III-C).
//!
//! Re-planning triggers:
//!
//! * **E1** — the server's power cap changed (explicit message);
//! * **E2** — a new application arrived (explicit message);
//! * **E3** — an application finished and departed (detected by polling
//!   application status);
//! * **E4** — an application's power draw drifted significantly from its
//!   allocated budget (detected by polling power draw), which triggers
//!   re-calibration as well as re-allocation.
//!
//! The hardened runtime adds two substrate-health triggers:
//!
//! * **E5** — a knob actuation failed and exhausted its retries (the
//!   plan on record is no longer what is actuated);
//! * **E6** — the observed power telemetry went bad (dropouts or a
//!   stuck meter), so drift evidence is unreliable.
//!
//! The integrity layer adds a trust trigger:
//!
//! * **E7** — an application's self-reported signals failed the
//!   physics-plausibility cross-checks repeatedly: its telemetry is
//!   adversarial (or pathologically broken) rather than merely
//!   drifting, and the app is quarantined to its fair share. E7 fires
//!   once per quarantine episode (cleared when the app is re-admitted
//!   after probation, so a relapse fires a fresh E7).

use std::collections::BTreeMap;

use powermed_units::{Ratio, Watts};

/// A re-planning trigger.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// E1: the server cap changed to the given value.
    CapChanged(Watts),
    /// E2: the named application arrived.
    Arrival(String),
    /// E3: the named application finished execution.
    Departure(String),
    /// E4: the named application's power drifted from its allocation
    /// (re-calibrate its utility curves).
    Drift(String),
    /// E5: actuation for the named application failed past its retry
    /// budget (the substrate is not running the plan on record).
    ActuationFault(String),
    /// E6: the power telemetry channel degraded (description of what
    /// was seen — dropouts or a stuck reading).
    SensorFault(String),
    /// E7: the named application's self-reported telemetry failed the
    /// integrity layer's plausibility checks past its tolerance — the
    /// app is quarantined to its fair share.
    IntegrityFault(String),
}

/// One application's observed state at a poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Measured dynamic power draw.
    pub power: Watts,
    /// Measured heartbeat rate (ops/s), when a clean window is
    /// available (e.g. not fresh off a knob change or suspension).
    pub heartbeat: Option<f64>,
    /// Whether the application has finished execution.
    pub completed: bool,
    /// Whether the application is currently suspended (drift detection
    /// is meaningless while OFF).
    pub suspended: bool,
}

/// Tracks allocations and emits events E1–E4.
#[derive(Debug, Clone, PartialEq)]
pub struct Accountant {
    cap: Watts,
    /// Per-app allocated budgets.
    allocations: BTreeMap<String, Watts>,
    /// Per-app expected performance at the actuated setting.
    expected_perf: BTreeMap<String, f64>,
    /// Relative drift beyond which E4 fires.
    drift_threshold: Ratio,
    /// Consecutive drifting polls required before E4 fires (debounce).
    drift_patience: u32,
    drift_counts: BTreeMap<String, u32>,
    /// Apps already reported as departed (E3 fires once).
    departed: BTreeMap<String, bool>,
    /// Apps inside a quarantine episode (E7 fires once per episode;
    /// [`Accountant::clear_integrity`] re-arms it on re-admission).
    integrity_latched: BTreeMap<String, bool>,
}

impl Accountant {
    /// Creates an accountant with the given initial cap. E4 fires after
    /// `drift_patience` consecutive polls at least `drift_threshold`
    /// away (relatively) from the allocation.
    pub fn new(cap: Watts, drift_threshold: Ratio, drift_patience: u32) -> Self {
        assert!(drift_threshold.value() > 0.0, "threshold must be positive");
        assert!(drift_patience >= 1, "patience must be at least one poll");
        Self {
            cap,
            allocations: BTreeMap::new(),
            expected_perf: BTreeMap::new(),
            drift_threshold,
            drift_patience,
            drift_counts: BTreeMap::new(),
            departed: BTreeMap::new(),
            integrity_latched: BTreeMap::new(),
        }
    }

    /// The current cap.
    pub fn cap(&self) -> Watts {
        self.cap
    }

    /// E1: the datacenter changed this server's cap.
    pub fn cap_changed(&mut self, cap: Watts) -> Event {
        self.cap = cap;
        Event::CapChanged(cap)
    }

    /// E2: a new application was scheduled onto the server.
    pub fn arrival(&mut self, name: &str) -> Event {
        self.allocations.insert(name.to_string(), Watts::ZERO);
        self.drift_counts.insert(name.to_string(), 0);
        self.departed.insert(name.to_string(), false);
        Event::Arrival(name.to_string())
    }

    /// Records the budget the allocator granted to `name` (drift is
    /// measured against this).
    pub fn note_allocation(&mut self, name: &str, budget: Watts) {
        self.allocations.insert(name.to_string(), budget);
        self.drift_counts.insert(name.to_string(), 0);
    }

    /// Records the performance expected of `name` at its actuated
    /// setting (heartbeat drift is measured against this — the second
    /// telemetry channel of Fig. 6).
    pub fn note_expected_perf(&mut self, name: &str, perf: f64) {
        self.expected_perf.insert(name.to_string(), perf);
        self.drift_counts.insert(name.to_string(), 0);
    }

    /// The budget currently on record for `name`.
    pub fn allocation(&self, name: &str) -> Option<Watts> {
        self.allocations.get(name).copied()
    }

    /// Sum of every budget currently on record — the "allocation out"
    /// half of a poll's ledger, as journalled by the flight recorder.
    pub fn total_allocation(&self) -> Watts {
        self.allocations
            .values()
            .fold(Watts::ZERO, |acc, w| acc + *w)
    }

    /// E5: a knob write for `name` failed and exhausted its retries.
    /// Clears the allocation on record (the substrate is not running it)
    /// so stale drift evidence cannot accumulate against it.
    pub fn actuation_fault(&mut self, name: &str) -> Event {
        self.drift_counts.insert(name.to_string(), 0);
        Event::ActuationFault(name.to_string())
    }

    /// E6: the observed power telemetry degraded. All drift counters are
    /// reset — polls taken through a bad meter are not drift evidence.
    pub fn sensor_fault(&mut self, what: &str) -> Event {
        for count in self.drift_counts.values_mut() {
            *count = 0;
        }
        Event::SensorFault(what.to_string())
    }

    /// E7: `name` entered quarantine. Fires once per episode — `None`
    /// while already latched. The app's drift count is reset: polls of
    /// distrusted telemetry are not drift evidence (mirroring how E5
    /// and E6 discard their channels).
    pub fn integrity_fault(&mut self, name: &str) -> Option<Event> {
        let fired = self
            .integrity_latched
            .entry(name.to_string())
            .or_insert(false);
        if *fired {
            return None;
        }
        *fired = true;
        self.drift_counts.insert(name.to_string(), 0);
        Some(Event::IntegrityFault(name.to_string()))
    }

    /// Whether `name` is inside an E7 quarantine episode.
    pub fn integrity_latched(&self, name: &str) -> bool {
        self.integrity_latched.get(name).copied().unwrap_or(false)
    }

    /// Re-arms E7 for `name` (quarantine ended; a relapse is a new
    /// episode and must fire a fresh event).
    pub fn clear_integrity(&mut self, name: &str) {
        self.integrity_latched.insert(name.to_string(), false);
    }

    /// Marks `name` as departed out-of-band (e.g. it vanished while the
    /// runtime was mid-calibration), returning the E3 event if it had
    /// not already fired.
    pub fn force_departure(&mut self, name: &str) -> Option<Event> {
        let fired = self.departed.get_mut(name)?;
        if *fired {
            return None;
        }
        *fired = true;
        Some(Event::Departure(name.to_string()))
    }

    /// Forgets a departed application.
    pub fn remove(&mut self, name: &str) {
        self.allocations.remove(name);
        self.expected_perf.remove(name);
        self.drift_counts.remove(name);
        self.departed.remove(name);
        self.integrity_latched.remove(name);
    }

    /// Applications currently on the books.
    #[cfg(test)]
    pub fn tracked(&self) -> Vec<&str> {
        self.allocations.keys().map(String::as_str).collect()
    }

    /// Polls application status and power draw, emitting E3/E4 events.
    /// (The paper's accountant polls at microsecond granularity; the
    /// simulation polls once per step.)
    pub fn poll(&mut self, observations: &BTreeMap<String, Observation>) -> Vec<Event> {
        let mut events = Vec::new();
        for (name, obs) in observations {
            if !self.allocations.contains_key(name) {
                continue;
            }
            if obs.completed {
                let fired = self.departed.entry(name.clone()).or_insert(false);
                if !*fired {
                    *fired = true;
                    events.push(Event::Departure(name.clone()));
                }
                continue;
            }
            if obs.suspended {
                // OFF periods draw no power by design, not by drift.
                self.drift_counts.insert(name.clone(), 0);
                continue;
            }
            let allocated = self.allocations[name];
            if allocated.value() <= 0.0 {
                continue;
            }
            let power_rel = (obs.power - allocated).abs() / allocated;
            // Heartbeat channel: relative deviation of the measured
            // rate from the model's expectation at the setting.
            let perf_rel = match (obs.heartbeat, self.expected_perf.get(name)) {
                (Some(rate), Some(expected)) if *expected > 0.0 => {
                    (rate - expected).abs() / expected
                }
                _ => 0.0,
            };
            let rel = power_rel.max(perf_rel);
            let count = self.drift_counts.entry(name.clone()).or_insert(0);
            if rel > self.drift_threshold.value() {
                *count += 1;
                if *count >= self.drift_patience {
                    *count = 0;
                    events.push(Event::Drift(name.clone()));
                }
            } else {
                *count = 0;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accountant() -> Accountant {
        Accountant::new(Watts::new(100.0), Ratio::new(0.25), 3)
    }

    fn obs(power: f64, completed: bool, suspended: bool) -> Observation {
        Observation {
            power: Watts::new(power),
            heartbeat: None,
            completed,
            suspended,
        }
    }

    fn obs_hb(power: f64, heartbeat: f64) -> Observation {
        Observation {
            power: Watts::new(power),
            heartbeat: Some(heartbeat),
            completed: false,
            suspended: false,
        }
    }

    #[test]
    fn cap_change_emits_e1() {
        let mut a = accountant();
        assert_eq!(a.cap(), Watts::new(100.0));
        let e = a.cap_changed(Watts::new(80.0));
        assert_eq!(e, Event::CapChanged(Watts::new(80.0)));
        assert_eq!(a.cap(), Watts::new(80.0));
    }

    #[test]
    fn arrival_registers_and_emits_e2() {
        let mut a = accountant();
        let e = a.arrival("x264");
        assert_eq!(e, Event::Arrival("x264".into()));
        assert_eq!(a.tracked(), vec!["x264"]);
        a.note_allocation("x264", Watts::new(15.0));
        assert_eq!(a.allocation("x264"), Some(Watts::new(15.0)));
    }

    #[test]
    fn departure_fires_once() {
        let mut a = accountant();
        a.arrival("kmeans");
        a.note_allocation("kmeans", Watts::new(10.0));
        let mut observations = BTreeMap::new();
        observations.insert("kmeans".to_string(), obs(0.0, true, false));
        let first = a.poll(&observations);
        assert_eq!(first, vec![Event::Departure("kmeans".into())]);
        let second = a.poll(&observations);
        assert!(second.is_empty(), "E3 must not repeat");
        a.remove("kmeans");
        assert!(a.tracked().is_empty());
    }

    #[test]
    fn drift_fires_after_patience() {
        let mut a = accountant();
        a.arrival("stream");
        a.note_allocation("stream", Watts::new(10.0));
        let mut observations = BTreeMap::new();
        // 60% above allocation: drifting.
        observations.insert("stream".to_string(), obs(16.0, false, false));
        assert!(a.poll(&observations).is_empty());
        assert!(a.poll(&observations).is_empty());
        let third = a.poll(&observations);
        assert_eq!(third, vec![Event::Drift("stream".into())]);
        // Counter reset after firing.
        assert!(a.poll(&observations).is_empty());
    }

    #[test]
    fn small_deviation_does_not_drift() {
        let mut a = accountant();
        a.arrival("bfs");
        a.note_allocation("bfs", Watts::new(10.0));
        let mut observations = BTreeMap::new();
        observations.insert("bfs".to_string(), obs(11.0, false, false));
        for _ in 0..10 {
            assert!(a.poll(&observations).is_empty());
        }
    }

    #[test]
    fn drift_counter_resets_on_good_poll() {
        let mut a = accountant();
        a.arrival("apr");
        a.note_allocation("apr", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("apr".to_string(), obs(20.0, false, false));
        let mut ok = BTreeMap::new();
        ok.insert("apr".to_string(), obs(10.0, false, false));
        a.poll(&high);
        a.poll(&high);
        a.poll(&ok); // resets
        a.poll(&high);
        a.poll(&high);
        assert!(a.poll(&ok).is_empty());
    }

    #[test]
    fn suspended_apps_do_not_drift() {
        let mut a = accountant();
        a.arrival("ferret");
        a.note_allocation("ferret", Watts::new(10.0));
        let mut observations = BTreeMap::new();
        observations.insert("ferret".to_string(), obs(0.0, false, true));
        for _ in 0..10 {
            assert!(a.poll(&observations).is_empty());
        }
    }

    #[test]
    fn heartbeat_drift_fires_even_when_power_is_steady() {
        let mut a = accountant();
        a.arrival("kmeans");
        a.note_allocation("kmeans", Watts::new(18.0));
        a.note_expected_perf("kmeans", 1000.0);
        // Power on target, but throughput collapsed (phase change).
        let mut observations = BTreeMap::new();
        observations.insert("kmeans".to_string(), obs_hb(18.0, 100.0));
        assert!(a.poll(&observations).is_empty());
        assert!(a.poll(&observations).is_empty());
        assert_eq!(a.poll(&observations), vec![Event::Drift("kmeans".into())]);
    }

    #[test]
    fn heartbeat_on_target_does_not_drift() {
        let mut a = accountant();
        a.arrival("x264");
        a.note_allocation("x264", Watts::new(15.0));
        a.note_expected_perf("x264", 500.0);
        let mut observations = BTreeMap::new();
        observations.insert("x264".to_string(), obs_hb(15.0, 495.0));
        for _ in 0..10 {
            assert!(a.poll(&observations).is_empty());
        }
    }

    #[test]
    fn unknown_apps_ignored() {
        let mut a = accountant();
        let mut observations = BTreeMap::new();
        observations.insert("ghost".to_string(), obs(50.0, true, false));
        assert!(a.poll(&observations).is_empty());
    }

    #[test]
    #[should_panic(expected = "patience")]
    fn zero_patience_rejected() {
        let _ = Accountant::new(Watts::new(100.0), Ratio::new(0.2), 0);
    }

    #[test]
    fn one_poll_emits_departure_and_drift_in_name_order() {
        // Two apps go bad in the same poll: "alpha" departs, "zeta"
        // drifts past patience. Both events fire in one poll() call, in
        // BTreeMap name order.
        let mut a = Accountant::new(Watts::new(100.0), Ratio::new(0.25), 2);
        a.arrival("alpha");
        a.note_allocation("alpha", Watts::new(10.0));
        a.arrival("zeta");
        a.note_allocation("zeta", Watts::new(10.0));
        let mut warmup = BTreeMap::new();
        warmup.insert("alpha".to_string(), obs(10.0, false, false));
        warmup.insert("zeta".to_string(), obs(20.0, false, false));
        assert!(a.poll(&warmup).is_empty(), "zeta at 1/2 patience");
        let mut observations = BTreeMap::new();
        observations.insert("alpha".to_string(), obs(0.0, true, false));
        observations.insert("zeta".to_string(), obs(20.0, false, false));
        let events = a.poll(&observations);
        assert_eq!(
            events,
            vec![
                Event::Departure("alpha".into()),
                Event::Drift("zeta".into())
            ]
        );
    }

    #[test]
    fn note_allocation_resets_drift_patience() {
        // Two bad polls, then a replan re-records the allocation: the
        // debounce restarts, so two more bad polls are not enough.
        let mut a = accountant(); // patience 3
        a.arrival("stream");
        a.note_allocation("stream", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("stream".to_string(), obs(20.0, false, false));
        assert!(a.poll(&high).is_empty());
        assert!(a.poll(&high).is_empty());
        a.note_allocation("stream", Watts::new(10.0)); // replan
        assert!(a.poll(&high).is_empty());
        assert!(a.poll(&high).is_empty());
        assert_eq!(a.poll(&high), vec![Event::Drift("stream".into())]);
    }

    #[test]
    fn removal_mid_drift_cancels_the_event() {
        let mut a = accountant(); // patience 3
        a.arrival("bfs");
        a.note_allocation("bfs", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("bfs".to_string(), obs(25.0, false, false));
        assert!(a.poll(&high).is_empty());
        assert!(a.poll(&high).is_empty());
        // Departs before the third drifting poll; the stale observation
        // for the removed app must not fire anything.
        a.remove("bfs");
        assert!(a.poll(&high).is_empty());
        assert!(a.tracked().is_empty());
    }

    #[test]
    fn actuation_fault_resets_the_apps_drift_count() {
        let mut a = accountant(); // patience 3
        a.arrival("x264");
        a.note_allocation("x264", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("x264".to_string(), obs(20.0, false, false));
        a.poll(&high);
        a.poll(&high);
        let e = a.actuation_fault("x264");
        assert_eq!(e, Event::ActuationFault("x264".into()));
        // The failed actuation invalidated the drift evidence.
        assert!(a.poll(&high).is_empty());
        assert!(a.poll(&high).is_empty());
        assert_eq!(a.poll(&high), vec![Event::Drift("x264".into())]);
    }

    #[test]
    fn sensor_fault_resets_every_drift_count() {
        let mut a = accountant(); // patience 3
        a.arrival("p1");
        a.note_allocation("p1", Watts::new(10.0));
        a.arrival("p2");
        a.note_allocation("p2", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("p1".to_string(), obs(20.0, false, false));
        high.insert("p2".to_string(), obs(20.0, false, false));
        a.poll(&high);
        a.poll(&high);
        let e = a.sensor_fault("5 consecutive dropouts");
        assert_eq!(e, Event::SensorFault("5 consecutive dropouts".into()));
        assert!(a.poll(&high).is_empty(), "counts restarted for all apps");
    }

    #[test]
    fn integrity_fault_fires_e7_once_per_episode() {
        let mut a = accountant();
        a.arrival("stream");
        assert_eq!(
            a.integrity_fault("stream"),
            Some(Event::IntegrityFault("stream".into()))
        );
        assert!(a.integrity_latched("stream"));
        assert_eq!(a.integrity_fault("stream"), None, "latched");
        // Re-admission re-arms the latch: a relapse is a new episode.
        a.clear_integrity("stream");
        assert!(!a.integrity_latched("stream"));
        assert_eq!(
            a.integrity_fault("stream"),
            Some(Event::IntegrityFault("stream".into()))
        );
    }

    #[test]
    fn integrity_fault_resets_the_apps_drift_count() {
        let mut a = accountant(); // patience 3
        a.arrival("stream");
        a.note_allocation("stream", Watts::new(10.0));
        let mut high = BTreeMap::new();
        high.insert("stream".to_string(), obs(20.0, false, false));
        a.poll(&high);
        a.poll(&high);
        let _ = a.integrity_fault("stream");
        // Distrusted polls are not drift evidence; debounce restarts.
        assert!(a.poll(&high).is_empty());
        assert!(a.poll(&high).is_empty());
        assert_eq!(a.poll(&high), vec![Event::Drift("stream".into())]);
    }

    #[test]
    fn removal_clears_the_integrity_latch() {
        let mut a = accountant();
        a.arrival("bfs");
        let _ = a.integrity_fault("bfs");
        a.remove("bfs");
        assert!(!a.integrity_latched("bfs"));
    }

    #[test]
    fn force_departure_fires_e3_exactly_once() {
        let mut a = accountant();
        a.arrival("kmeans");
        assert_eq!(
            a.force_departure("kmeans"),
            Some(Event::Departure("kmeans".into()))
        );
        assert_eq!(a.force_departure("kmeans"), None, "already fired");
        assert_eq!(a.force_departure("ghost"), None, "never tracked");
        // The regular completed-poll path must not re-fire either.
        let mut observations = BTreeMap::new();
        observations.insert("kmeans".to_string(), obs(0.0, true, false));
        assert!(a.poll(&observations).is_empty());
    }
}
