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

/// Tracks allocations and emits events E1–E7.
///
/// Each application's books are one row, found by one binary search of
/// a name-sorted vector: a poll makes one lookup per app, and an app's
/// name is stored once.
#[derive(Debug, Clone, PartialEq)]
pub struct Accountant {
    cap: Watts,
    /// Each application's books, sorted by name.
    books: Vec<(String, Book)>,
    /// Relative drift beyond which E4 fires.
    drift_threshold: Ratio,
    /// Consecutive drifting polls required before E4 fires (debounce).
    drift_patience: u32,
}

/// One application's books. A default row is the same as no row.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Book {
    /// The allocated budget; an app without one is not tracked.
    allocation: Option<Watts>,
    /// Expected performance at the actuated setting.
    expected_perf: Option<f64>,
    /// Consecutive drifting polls.
    drift_count: u32,
    /// Whether E3 fired; `None` until the app arrives or completes
    /// ([`Accountant::force_departure`] ignores an app without one).
    departed: Option<bool>,
    /// Inside a quarantine episode (E7 fires once per episode;
    /// [`Accountant::clear_integrity`] re-arms it on re-admission).
    integrity_latched: bool,
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
            books: Vec::new(),
            drift_threshold,
            drift_patience,
        }
    }

    /// Where `name`'s row is, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.books.binary_search_by(|(n, _)| n.as_str().cmp(name))
    }

    /// `name`'s books, if it has a row.
    fn book(&self, name: &str) -> Option<&Book> {
        self.find(name).ok().map(|i| &self.books[i].1)
    }

    /// `name`'s books, with an empty row inserted the first time `name`
    /// is seen; a name already there is not cloned.
    fn book_mut(&mut self, name: &str) -> &mut Book {
        let i = self.find(name).unwrap_or_else(|i| {
            self.books.insert(i, (name.to_string(), Book::default()));
            i
        });
        &mut self.books[i].1
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
        let book = self.book_mut(name);
        book.allocation = Some(Watts::ZERO);
        book.drift_count = 0;
        book.departed = Some(false);
        Event::Arrival(name.to_string())
    }

    /// Records the budget the allocator granted to `name` (drift is
    /// measured against this).
    pub fn note_allocation(&mut self, name: &str, budget: Watts) {
        let book = self.book_mut(name);
        book.allocation = Some(budget);
        book.drift_count = 0;
    }

    /// Records the performance expected of `name` at its actuated
    /// setting (heartbeat drift is measured against this — the second
    /// telemetry channel of Fig. 6).
    pub fn note_expected_perf(&mut self, name: &str, perf: f64) {
        let book = self.book_mut(name);
        book.expected_perf = Some(perf);
        book.drift_count = 0;
    }

    /// The budget currently on record for `name`.
    pub fn allocation(&self, name: &str) -> Option<Watts> {
        self.book(name)?.allocation
    }

    /// Sum of every budget currently on record — the "allocation out"
    /// half of a poll's ledger, as journalled by the flight recorder.
    pub fn total_allocation(&self) -> Watts {
        self.books
            .iter()
            .filter_map(|(_, book)| book.allocation)
            .fold(Watts::ZERO, |acc, w| acc + w)
    }

    /// E5: a knob write for `name` failed and exhausted its retries.
    /// Resets the app's drift count (the substrate is not running the
    /// allocation on record), so stale drift evidence cannot accumulate
    /// against it.
    pub fn actuation_fault(&mut self, name: &str) -> Event {
        self.book_mut(name).drift_count = 0;
        Event::ActuationFault(name.to_string())
    }

    /// E6: the observed power telemetry degraded. All drift counters are
    /// reset — polls taken through a bad meter are not drift evidence.
    pub fn sensor_fault(&mut self, what: &str) -> Event {
        for (_, book) in &mut self.books {
            book.drift_count = 0;
        }
        Event::SensorFault(what.to_string())
    }

    /// E7: `name` entered quarantine. Fires once per episode — `None`
    /// while already latched. The app's drift count is reset: polls of
    /// distrusted telemetry are not drift evidence (mirroring how E5
    /// and E6 discard their channels).
    pub fn integrity_fault(&mut self, name: &str) -> Option<Event> {
        let book = self.book_mut(name);
        if book.integrity_latched {
            return None;
        }
        book.integrity_latched = true;
        book.drift_count = 0;
        Some(Event::IntegrityFault(name.to_string()))
    }

    /// Whether `name` is inside an E7 quarantine episode.
    pub fn integrity_latched(&self, name: &str) -> bool {
        self.book(name).is_some_and(|book| book.integrity_latched)
    }

    /// Re-arms E7 for `name` (quarantine ended; a relapse is a new
    /// episode and must fire a fresh event).
    pub fn clear_integrity(&mut self, name: &str) {
        self.book_mut(name).integrity_latched = false;
    }

    /// Marks `name` as departed out-of-band (e.g. it vanished while the
    /// runtime was mid-calibration), returning the E3 event if it had
    /// not already fired.
    pub fn force_departure(&mut self, name: &str) -> Option<Event> {
        let i = self.find(name).ok()?;
        let fired = self.books[i].1.departed.as_mut()?;
        if *fired {
            return None;
        }
        *fired = true;
        Some(Event::Departure(name.to_string()))
    }

    /// Forgets a departed application.
    pub fn remove(&mut self, name: &str) {
        if let Ok(i) = self.find(name) {
            self.books.remove(i);
        }
    }

    /// Applications currently on the books.
    #[cfg(test)]
    pub fn tracked(&self) -> Vec<&str> {
        self.books
            .iter()
            .filter(|(_, book)| book.allocation.is_some())
            .map(|(name, _)| name.as_str())
            .collect()
    }

    /// Polls application status and power draw, emitting E3/E4 events,
    /// from each application's name and observation (the mediator
    /// passes them in name order). Names are borrowed: a poll looks each
    /// app's row up once and clones a name only for an event it emits.
    /// (The paper's accountant polls at microsecond granularity; the
    /// simulation polls once per step.)
    pub fn poll<'a, N: AsRef<str>>(
        &mut self,
        observations: impl IntoIterator<Item = (N, &'a Observation)>,
    ) -> Vec<Event> {
        let mut events = Vec::new();
        for (name, obs) in observations {
            let name = name.as_ref();
            let Ok(i) = self.find(name) else {
                continue;
            };
            let book = &mut self.books[i].1;
            let Some(allocated) = book.allocation else {
                continue;
            };
            if obs.completed {
                if book.departed != Some(true) {
                    book.departed = Some(true);
                    events.push(Event::Departure(name.to_string()));
                }
                continue;
            }
            if obs.suspended {
                // OFF periods draw no power by design, not by drift.
                book.drift_count = 0;
                continue;
            }
            if allocated.value() <= 0.0 {
                continue;
            }
            let power_rel = (obs.power - allocated).abs() / allocated;
            // Heartbeat channel: relative deviation of the measured
            // rate from the model's expectation at the setting.
            let perf_rel = match (obs.heartbeat, book.expected_perf) {
                (Some(rate), Some(expected)) if expected > 0.0 => {
                    (rate - expected).abs() / expected
                }
                _ => 0.0,
            };
            let rel = power_rel.max(perf_rel);
            if rel > self.drift_threshold.value() {
                book.drift_count += 1;
                if book.drift_count >= self.drift_patience {
                    book.drift_count = 0;
                    events.push(Event::Drift(name.to_string()));
                }
            } else {
                book.drift_count = 0;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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

    mod matches_reference {
        use super::*;
        use powermed_esd::LeadAcidBattery;
        use powermed_server::server::AppRunState;
        use powermed_server::ServerSpec;
        use powermed_sim::adversary::AdversaryConfig;
        use powermed_sim::engine::{EsdCommand, ServerSim};
        use powermed_sim::faults::FaultConfig;
        use powermed_traffic::source::TrafficConfig;
        use powermed_units::Seconds;
        use powermed_workloads::catalog;
        use powermed_workloads::profile::AppProfile;
        use proptest::prelude::*;

        /// `map[name]`, inserted as the default value the first time
        /// `name` is seen.
        fn first_sight<'m, V: Default>(map: &'m mut BTreeMap<String, V>, name: &str) -> &'m mut V {
            if !map.contains_key(name) {
                map.insert(name.to_string(), V::default());
            }
            map.get_mut(name).expect("inserted above")
        }

        /// The accountant the row-keyed one replaced: five maps keyed by
        /// owned names, each method the body it had.
        #[derive(Debug, Clone)]
        struct FiveMaps {
            cap: Watts,
            allocations: BTreeMap<String, Watts>,
            expected_perf: BTreeMap<String, f64>,
            drift_threshold: Ratio,
            drift_patience: u32,
            drift_counts: BTreeMap<String, u32>,
            departed: BTreeMap<String, bool>,
            integrity_latched: BTreeMap<String, bool>,
        }

        impl FiveMaps {
            fn new(cap: Watts, drift_threshold: Ratio, drift_patience: u32) -> Self {
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

            fn cap_changed(&mut self, cap: Watts) -> Event {
                self.cap = cap;
                Event::CapChanged(cap)
            }

            fn arrival(&mut self, name: &str) -> Event {
                self.allocations.insert(name.to_string(), Watts::ZERO);
                self.drift_counts.insert(name.to_string(), 0);
                self.departed.insert(name.to_string(), false);
                Event::Arrival(name.to_string())
            }

            fn note_allocation(&mut self, name: &str, budget: Watts) {
                *first_sight(&mut self.allocations, name) = budget;
                *first_sight(&mut self.drift_counts, name) = 0;
            }

            fn note_expected_perf(&mut self, name: &str, perf: f64) {
                *first_sight(&mut self.expected_perf, name) = perf;
                *first_sight(&mut self.drift_counts, name) = 0;
            }

            fn allocation(&self, name: &str) -> Option<Watts> {
                self.allocations.get(name).copied()
            }

            fn total_allocation(&self) -> Watts {
                self.allocations
                    .values()
                    .fold(Watts::ZERO, |acc, w| acc + *w)
            }

            fn actuation_fault(&mut self, name: &str) -> Event {
                self.drift_counts.insert(name.to_string(), 0);
                Event::ActuationFault(name.to_string())
            }

            fn sensor_fault(&mut self, what: &str) -> Event {
                for count in self.drift_counts.values_mut() {
                    *count = 0;
                }
                Event::SensorFault(what.to_string())
            }

            fn integrity_fault(&mut self, name: &str) -> Option<Event> {
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

            fn integrity_latched(&self, name: &str) -> bool {
                self.integrity_latched.get(name).copied().unwrap_or(false)
            }

            fn clear_integrity(&mut self, name: &str) {
                self.integrity_latched.insert(name.to_string(), false);
            }

            fn force_departure(&mut self, name: &str) -> Option<Event> {
                let fired = self.departed.get_mut(name)?;
                if *fired {
                    return None;
                }
                *fired = true;
                Some(Event::Departure(name.to_string()))
            }

            fn remove(&mut self, name: &str) {
                self.allocations.remove(name);
                self.expected_perf.remove(name);
                self.drift_counts.remove(name);
                self.departed.remove(name);
                self.integrity_latched.remove(name);
            }

            fn tracked(&self) -> Vec<&str> {
                self.allocations.keys().map(String::as_str).collect()
            }

            fn poll<'a, N: AsRef<str>>(
                &mut self,
                observations: impl IntoIterator<Item = (N, &'a Observation)>,
            ) -> Vec<Event> {
                let mut events = Vec::new();
                for (name, obs) in observations {
                    let name = name.as_ref();
                    if !self.allocations.contains_key(name) {
                        continue;
                    }
                    if obs.completed {
                        let fired = first_sight(&mut self.departed, name);
                        if !*fired {
                            *fired = true;
                            events.push(Event::Departure(name.to_string()));
                        }
                        continue;
                    }
                    if obs.suspended {
                        *first_sight(&mut self.drift_counts, name) = 0;
                        continue;
                    }
                    let allocated = self.allocations[name];
                    if allocated.value() <= 0.0 {
                        continue;
                    }
                    let power_rel = (obs.power - allocated).abs() / allocated;
                    let perf_rel = match (obs.heartbeat, self.expected_perf.get(name)) {
                        (Some(rate), Some(expected)) if *expected > 0.0 => {
                            (rate - expected).abs() / expected
                        }
                        _ => 0.0,
                    };
                    let rel = power_rel.max(perf_rel);
                    let patience = self.drift_patience;
                    let drifting = rel > self.drift_threshold.value();
                    let count = first_sight(&mut self.drift_counts, name);
                    if drifting {
                        *count += 1;
                        if *count >= patience {
                            *count = 0;
                            events.push(Event::Drift(name.to_string()));
                        }
                    } else {
                        *count = 0;
                    }
                }
                events
            }

            /// Everything kept on `name`, a missing drift count read as
            /// zero (the first poll that needs one inserts a zero).
            fn state(&self, name: &str) -> (Option<Watts>, Option<f64>, u32, Option<bool>, bool) {
                (
                    self.allocation(name),
                    self.expected_perf.get(name).copied(),
                    self.drift_counts.get(name).copied().unwrap_or(0),
                    self.departed.get(name).copied(),
                    self.integrity_latched(name),
                )
            }
        }

        impl Accountant {
            /// Everything kept on `name`, as [`FiveMaps::state`] reads it.
            fn state(&self, name: &str) -> (Option<Watts>, Option<f64>, u32, Option<bool>, bool) {
                let book = self.book(name).copied().unwrap_or_default();
                (
                    book.allocation,
                    book.expected_perf,
                    book.drift_count,
                    book.departed,
                    book.integrity_latched,
                )
            }
        }

        /// Every accessor, and everything either keeps on each of
        /// `names`, agree.
        fn agree(
            a: &Accountant,
            reference: &FiveMaps,
            names: &[&str],
        ) -> Result<(), TestCaseError> {
            prop_assert_eq!(a.cap(), reference.cap);
            prop_assert_eq!(a.tracked(), reference.tracked());
            prop_assert_eq!(
                a.total_allocation().value().to_bits(),
                reference.total_allocation().value().to_bits()
            );
            for name in names {
                prop_assert_eq!(
                    format!("{:?}", a.state(name)),
                    format!("{:?}", reference.state(name))
                );
                prop_assert_eq!(a.allocation(name), reference.allocation(name));
                prop_assert_eq!(a.integrity_latched(name), reference.integrity_latched(name));
            }
            Ok(())
        }

        #[test]
        fn a_missing_drift_count_is_inserted_on_first_sight() {
            // Every app `arrival` or `note_allocation` tracks gets a drift
            // count, so through the public API a poll always finds one;
            // clearing the reference's map reaches its first-sight path,
            // which must read as the row's zero count.
            let mut a = accountant();
            let mut reference = FiveMaps::new(Watts::new(100.0), Ratio::new(0.25), 3);
            for name in ["kmeans", "stream"] {
                a.arrival(name);
                a.note_allocation(name, Watts::new(10.0));
                reference.arrival(name);
                reference.note_allocation(name, Watts::new(10.0));
            }
            reference.drift_counts.clear();
            let sensed = [obs(16.0, false, false), obs(0.0, false, true)];
            let names = ["kmeans", "stream"];
            for _ in 0..4 {
                let got = a.poll(names.iter().zip(&sensed));
                assert_eq!(got, reference.poll(names.iter().zip(&sensed)));
                agree(&a, &reference, &names).expect("the books agree");
            }
            assert_eq!(reference.drift_counts.len(), 2);
        }

        const POOL_NAMES: [&str; 4] = ["x264", "kmeans", "stream", "bfs"];

        /// The apps the operations host; two of them finish, so E3 fires.
        fn pool(spec: &ServerSpec) -> [AppProfile; 4] {
            [
                catalog::finite(catalog::x264(), spec, Seconds::new(1.5)),
                catalog::kmeans(),
                catalog::stream(),
                catalog::finite(catalog::bfs(), spec, Seconds::new(0.8)),
            ]
        }

        /// A server with a battery and the optional layers bit 0
        /// (faults), bit 1 (a defiant adversary) and bit 2 (traffic).
        fn build(layers: u8, spec: &ServerSpec) -> ServerSim {
            let esd = Box::new(LeadAcidBattery::server_ups().with_soc(0.5));
            let mut sim = ServerSim::new(spec.clone(), esd);
            if layers & 1 != 0 {
                sim = sim.with_fault_injection(FaultConfig {
                    meter_dropout_prob: 0.05,
                    app_crash_prob: 0.02,
                    app_restart_steps: 4,
                    ..FaultConfig::default_scenario(5)
                });
            }
            if layers & 2 != 0 {
                sim = sim.with_adversary(AdversaryConfig::noncompliance(2, &["kmeans", "bfs"]));
            }
            sim
        }

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// Over random host, depart, suspend, resume, knob, cap and
            /// ESD operations on a simulated server (with and without
            /// faults, a defiant adversary and traffic), interleaved with
            /// the accountant's own arrival, allocation, expected-perf,
            /// E1 and E5-E7, clear, force-departure and remove
            /// bookkeeping, the row-keyed accountant returns what the
            /// five-map one returns, every poll emits its events, and
            /// every accessor and every app's state agree.
            #[test]
            fn prop_poll_matches_the_reference(
                layers in 0u8..8,
                patience in 1u32..4,
                ops in proptest::collection::vec((0u8..15, 0usize..4, 0usize..432), 1..60),
            ) {
                let spec = ServerSpec::xeon_e5_2620();
                let grid = spec.knob_grid();
                let mut sim = build(layers, &spec);
                let mut a = Accountant::new(Watts::new(100.0), Ratio::new(0.2), patience);
                let mut reference = FiveMaps::new(Watts::new(100.0), Ratio::new(0.2), patience);
                let dt = Seconds::new(0.1);
                let profiles = pool(&spec);
                for (kind, which, idx) in ops {
                    let name = POOL_NAMES[which];
                    let knob = grid.get(idx).expect("on the grid");
                    let watts = Watts::new((idx % 40) as f64 * 0.5);
                    let (got, want) = match kind {
                        0 => {
                            let profile = profiles[which].clone();
                            let hosted = sim.host(profile, knob.with_cores(1 + idx % 3)).is_ok();
                            if hosted {
                                (Some(a.arrival(name)), Some(reference.arrival(name)))
                            } else {
                                (None, None)
                            }
                        }
                        1 => {
                            // Mostly the accountant forgets it too; a
                            // departure it never hears of keeps the books.
                            let departed = sim.remove(name).is_ok();
                            if departed && idx % 4 > 0 {
                                a.remove(name);
                                reference.remove(name);
                            }
                            (None, None)
                        }
                        2 => { let _ = sim.suspend_app(name); (None, None) }
                        3 => { let _ = sim.resume_app(name); (None, None) }
                        4 => { let _ = sim.set_knobs(name, knob); (None, None) }
                        5 => {
                            let cap = Watts::new(60.0 + (idx % 70) as f64);
                            sim.set_cap(Some(cap));
                            (Some(a.cap_changed(cap)), Some(reference.cap_changed(cap)))
                        }
                        6 => {
                            sim.set_esd_command(match idx % 4 {
                                0 => EsdCommand::Idle,
                                1 => EsdCommand::Charge(watts),
                                2 => EsdCommand::Discharge(watts),
                                _ => EsdCommand::DischargeToCap,
                            });
                            (None, None)
                        }
                        7 | 8 => {
                            a.note_allocation(name, watts);
                            reference.note_allocation(name, watts);
                            (None, None)
                        }
                        9 => {
                            a.note_expected_perf(name, (idx * 3) as f64);
                            reference.note_expected_perf(name, (idx * 3) as f64);
                            (None, None)
                        }
                        10 => (Some(a.sensor_fault("meter")), Some(reference.sensor_fault("meter"))),
                        11 => (Some(a.actuation_fault(name)), Some(reference.actuation_fault(name))),
                        12 => match idx % 3 {
                            0 => (a.integrity_fault(name), reference.integrity_fault(name)),
                            1 => {
                                a.clear_integrity(name);
                                reference.clear_integrity(name);
                                (None, None)
                            }
                            _ => (a.force_departure(name), reference.force_departure(name)),
                        },
                        // Forgotten while still hosted: a later
                        // allocation tracks it again without an arrival.
                        13 => {
                            a.remove(name);
                            reference.remove(name);
                            (None, None)
                        }
                        _ => (None, None),
                    };
                    prop_assert_eq!(got, want);
                    if layers & 4 != 0 && sim.traffic().is_none() && !sim.app_names().is_empty() {
                        sim.attach_traffic(TrafficConfig::default());
                    }
                    sim.step(dt);
                    let now = sim.now();
                    let names: Vec<String> = sim.app_names().to_vec();
                    let sensed: Vec<Observation> = names
                        .iter()
                        .map(|name| Observation {
                            power: sim.app_power(name).unwrap_or(Watts::ZERO),
                            heartbeat: sim
                                .server()
                                .position(name)
                                .and_then(|pos| sim.reported_heartbeat(pos, now)),
                            completed: sim.app(name).is_some_and(|app| app.completed()),
                            suspended: sim
                                .server()
                                .assignment(name)
                                .is_none_or(|x| x.run_state() == AppRunState::Suspended),
                        })
                        .collect();
                    let got = a.poll(names.iter().zip(&sensed));
                    let want = reference.poll(names.iter().zip(&sensed));
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    agree(&a, &reference, &POOL_NAMES)?;
                }
            }
        }
    }
}
