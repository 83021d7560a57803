//! The fixed-timestep server simulation.

use powermed_esd::{DegradedEsd, EnergyStorage};
use powermed_server::server::{AppDemand, AppRunState, PowerBreakdown};
use powermed_server::{KnobSetting, Server, ServerError, ServerSpec};
use powermed_telemetry::faults::{AdversaryStats, FaultStats};
use powermed_telemetry::journal::{Obs, ObsEvent};
use powermed_telemetry::meter::PowerMeter;
use powermed_telemetry::metrics::prom_label;
use powermed_traffic::source::{TrafficConfig, TrafficEvent, TrafficSource};
use powermed_units::{Seconds, Watts};
use powermed_workloads::profile::AppProfile;

use crate::adversary::{AdversaryConfig, AdversaryInjector};
use crate::app::RunningApp;
use crate::clock::SimClock;
use crate::faults::{FaultConfig, FaultInjector, FaultRecord, KnobWriteOutcome};

/// What the policy asked the ESD to do until further notice.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EsdCommand {
    /// Neither charge nor discharge.
    #[default]
    Idle,
    /// Charge at up to the given bus power (clamped by headroom under
    /// the cap and by the device).
    Charge(Watts),
    /// Discharge at up to the given bus power (clamped by the device).
    Discharge(Watts),
    /// Discharge exactly as much as needed to bring net draw down to the
    /// cap (no-op when already under the cap or no cap is set).
    DischargeToCap,
}

/// What happened during one simulation step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Simulation time at the *end* of the step.
    pub now: Seconds,
    /// Power drawn by the server itself (idle + uncore + apps).
    pub gross_power: Watts,
    /// Net draw seen by the provisioned feed: gross + ESD charge − ESD
    /// discharge. This is what the cap constrains (Eq. 2).
    pub net_power: Watts,
    /// Power the ESD absorbed this step.
    pub esd_charge: Watts,
    /// Power the ESD delivered this step.
    pub esd_discharge: Watts,
    /// Whether net power exceeded the cap this step.
    pub cap_violated: bool,
    /// The net draw as the *runtime* observes it: identical to
    /// [`StepReport::net_power`] without fault injection, possibly
    /// noisy/stuck under meter faults, and `None` on a sample dropout.
    /// Ground-truth scoring (the meter, `cap_violated`) always uses the
    /// true net power.
    pub observed_net_power: Option<Watts>,
    /// Applications that reached completion during this step (E3
    /// triggers for the Accountant).
    pub completed: Vec<String>,
}

/// The simulated server, its hosted applications, its energy storage and
/// its meters, advanced by a fixed-timestep loop.
///
/// Per-app state is kept at each app's server position (see
/// [`Server::position`]): `apps`, the step's demand and override
/// buffers and the last breakdown all line up with
/// [`Server::app_names`]. The buffers are reused from step to step, so
/// a step allocates nothing once they have held every hosted app.
#[derive(Debug)]
pub struct ServerSim {
    server: Server,
    /// Each hosted app's runtime state, at its position.
    apps: Vec<RunningApp>,
    /// This step's demand of each app, by position.
    demands: Vec<AppDemand>,
    /// This step's effective-knob override of each app, by position
    /// (`None` unless a defiant adversary runs it off its knob).
    overrides: Vec<Option<KnobSetting>>,
    /// The last step's power breakdown, by position.
    breakdown: PowerBreakdown,
    esd: Box<dyn EnergyStorage>,
    esd_command: EsdCommand,
    cap: Option<Watts>,
    clock: SimClock,
    meter: PowerMeter,
    faults: Option<FaultInjector>,
    /// Adversarial-application behaviour; `None` (the default) keeps
    /// every hook a skipped branch, exactly like `faults`.
    adversary: Option<AdversaryInjector>,
    /// Flight-recorder handle; `None` (the default) keeps every
    /// emission site a skipped branch.
    obs: Option<Obs>,
    /// Request-driven offered load; `None` (the default) keeps apps on
    /// the scripted always-saturated path, byte-identical to before the
    /// subsystem existed.
    traffic: Option<TrafficSource>,
}

impl ServerSim {
    /// Creates a simulation of a server with the given storage device
    /// (use [`powermed_esd::NoEsd`] for none).
    pub fn new(spec: ServerSpec, esd: Box<dyn EnergyStorage>) -> Self {
        Self {
            server: Server::new(spec),
            apps: Vec::new(),
            demands: Vec::new(),
            overrides: Vec::new(),
            breakdown: PowerBreakdown::default(),
            esd,
            esd_command: EsdCommand::Idle,
            cap: None,
            clock: SimClock::new(),
            meter: PowerMeter::new(),
            faults: None,
            adversary: None,
            obs: None,
            traffic: None,
        }
    }

    /// Attaches an open-loop request source driving the hosted apps.
    ///
    /// Apps are registered in name order (the popularity ranking: first
    /// name = Zipf rank 1) with their phase-0 uncapped throughput as
    /// service capacity. From the next step on, each running app serves
    /// its request queue at its operating point's roofline rate instead
    /// of executing unconditionally; utilization, power demand and
    /// heartbeats all track *served* work.
    ///
    /// # Panics
    ///
    /// Panics if no apps are hosted yet (the source needs the app list
    /// to place popularity and calibrate request cost).
    pub fn attach_traffic(&mut self, config: TrafficConfig) {
        let spec = self.server.spec();
        let apps: Vec<(String, f64)> = self
            .server
            .app_names()
            .iter()
            .zip(&self.apps)
            .map(|(name, app)| (name.clone(), app.profile().uncapped(spec).throughput))
            .collect();
        self.traffic = Some(TrafficSource::new(config, &apps));
    }

    /// The attached traffic source, if any.
    pub fn traffic(&self) -> Option<&TrafficSource> {
        self.traffic.as_ref()
    }

    /// Attaches a flight-recorder observability handle. The handle is
    /// usually a clone of the mediator's, so the simulator's metrics
    /// and the mediator's journal land in one plane.
    pub fn set_observability(&mut self, obs: Obs) {
        self.obs = Some(obs);
    }

    /// The attached observability handle, if any.
    pub fn observability(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// Enables deterministic fault injection for this simulation.
    ///
    /// When the scenario configures ESD degradation, the storage device
    /// is wrapped in a [`DegradedEsd`] — the policy keeps planning
    /// against the nominal parameters while the substrate delivers the
    /// degraded behaviour.
    pub fn with_fault_injection(mut self, config: FaultConfig) -> Self {
        if config.esd_degradation_active() {
            let nominal = std::mem::replace(&mut self.esd, Box::new(powermed_esd::NoEsd));
            self.esd = Box::new(DegradedEsd::new(
                nominal,
                config.esd_capacity_fade,
                config.esd_efficiency_derate,
            ));
        }
        self.faults = Some(FaultInjector::new(config));
        self
    }

    /// Enables deterministic adversarial-application behaviour for
    /// this simulation. An inert configuration (no channels active)
    /// leaves every output bit-identical to an un-adversarial run.
    pub fn with_adversary(mut self, config: AdversaryConfig) -> Self {
        self.adversary = Some(AdversaryInjector::new(config));
        self
    }

    /// The active adversary injector, if any.
    pub fn adversary(&self) -> Option<&AdversaryInjector> {
        self.adversary.as_ref()
    }

    /// Misbehaviour counters (zeroed default when no adversary).
    pub fn adversary_stats(&self) -> AdversaryStats {
        self.adversary
            .as_ref()
            .map(AdversaryInjector::stats)
            .unwrap_or_default()
    }

    /// The active fault injector, if any.
    #[cfg(test)]
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Fault counters (zeroed default when injection is off).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    /// The deterministic fault trace (empty when injection is off).
    pub fn fault_trace(&self) -> &[FaultRecord] {
        self.faults.as_ref().map_or(&[], FaultInjector::trace)
    }

    /// The server being simulated.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Suspends `name` (temporal coordination OFF period): it draws no
    /// dynamic power and makes no progress until resumed.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn suspend_app(&mut self, name: &str) -> Result<(), ServerError> {
        self.server.suspend_app(name)
    }

    /// Resumes a suspended `name` (ON period).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn resume_app(&mut self, name: &str) -> Result<(), ServerError> {
        self.server.resume_app(name)
    }

    /// The energy storage device.
    pub fn esd(&self) -> &dyn EnergyStorage {
        self.esd.as_ref()
    }

    /// Current simulation time.
    pub fn now(&self) -> Seconds {
        self.clock.now()
    }

    /// The active power cap, if any.
    pub fn cap(&self) -> Option<Watts> {
        self.cap
    }

    /// Sets or clears the server power cap (event E1).
    pub fn set_cap(&mut self, cap: Option<Watts>) {
        self.cap = cap;
    }

    /// Sets the standing ESD command (applied every step until changed).
    pub fn set_esd_command(&mut self, command: EsdCommand) {
        self.esd_command = command;
    }

    /// The standing ESD command.
    pub fn esd_command(&self) -> EsdCommand {
        self.esd_command
    }

    /// Hosts an application (event E2), placing it on the server with
    /// the given initial knob setting.
    ///
    /// # Errors
    ///
    /// Propagates [`ServerError`] from placement (duplicate name,
    /// invalid knob, insufficient cores).
    pub fn host(&mut self, profile: AppProfile, knob: KnobSetting) -> Result<(), ServerError> {
        let pos = self.server.host_app(profile.name(), knob)?;
        self.apps
            .insert(pos, RunningApp::new(profile, self.clock.now()));
        // Not hosted during the last step: it drew nothing then.
        self.breakdown.apps.insert(pos, Watts::ZERO);
        Ok(())
    }

    /// Removes an application (event E3 handling), releasing its cores.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn remove(&mut self, name: &str) -> Result<(), ServerError> {
        let pos = self.server.remove_app(name)?;
        self.apps.remove(pos);
        self.breakdown.apps.remove(pos);
        if let Some(f) = self.faults.as_mut() {
            f.forget_app(name);
        }
        Ok(())
    }

    /// Writes `knob` for `name` through the (possibly faulty) actuation
    /// path. Without fault injection this is exactly
    /// [`Server::set_knobs`]; with it, the write may be rejected
    /// ([`ServerError::ActuationRejected`]), silently leave the stale
    /// setting in force, or land only partially (DVFS applied, core
    /// re-allocation not).
    ///
    /// # Errors
    ///
    /// Propagates [`ServerError`] from the server (unknown app, invalid
    /// knob) plus injected [`ServerError::ActuationRejected`] failures.
    pub fn set_knobs(&mut self, name: &str, knob: KnobSetting) -> Result<(), ServerError> {
        let outcome = self
            .faults
            .as_mut()
            .map_or(KnobWriteOutcome::Apply, |f| f.knob_write(name));
        if let Some(obs) = self.obs.as_ref() {
            let label = match outcome {
                KnobWriteOutcome::Apply => "apply",
                KnobWriteOutcome::Reject => "reject",
                KnobWriteOutcome::Stale => "stale",
                KnobWriteOutcome::Partial => "partial",
            };
            obs.inc(&prom_label("knob_writes_total", &[("outcome", label)]));
        }
        match outcome {
            KnobWriteOutcome::Apply => self.server.set_knobs(name, knob),
            KnobWriteOutcome::Reject => Err(ServerError::ActuationRejected(name.to_string())),
            // The interface accepted the write but the setting never
            // landed — from the caller's side this looks like success.
            KnobWriteOutcome::Stale => {
                self.server
                    .assignment(name)
                    .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?;
                Ok(())
            }
            KnobWriteOutcome::Partial => {
                let current = self
                    .server
                    .assignment(name)
                    .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?
                    .knob()
                    .cores();
                self.server.set_knobs(name, knob.with_cores(current))
            }
        }
    }

    /// Names of hosted applications, in name order: the name at index
    /// `i` is the app at position `i`.
    pub fn app_names(&self) -> &[String] {
        self.server.app_names()
    }

    /// Each hosted app's runtime state, by position.
    pub fn apps(&self) -> &[RunningApp] {
        &self.apps
    }

    /// The runtime state of `name`.
    pub fn app(&self, name: &str) -> Option<&RunningApp> {
        self.server.position(name).map(|pos| &self.apps[pos])
    }

    /// Mutable runtime state of `name` (heartbeat reads need `&mut`).
    pub fn app_mut(&mut self, name: &str) -> Option<&mut RunningApp> {
        self.server.position(name).map(|pos| &mut self.apps[pos])
    }

    /// The dynamic power `name` drew in the last step: zero if it was
    /// suspended then or hosted since, `None` if it is not hosted.
    pub fn app_power(&self, name: &str) -> Option<Watts> {
        self.server
            .position(name)
            .map(|pos| self.breakdown.apps[pos])
    }

    /// The last step's power breakdown, by position.
    pub fn breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// The heartbeat rate the app at position `pos` *reports* for the
    /// trailing window ending at `now` — the truth from
    /// [`RunningApp::heartbeat_rate`], unless the app is a configured
    /// adversary, in which case the claim is inflated, deflated,
    /// jittered or phase-spoofed per the adversary channels. This is
    /// the only heartbeat the mediator gets to see; ground truth stays
    /// available through [`ServerSim::app_mut`] for scoring. `None`
    /// past the last position.
    pub fn reported_heartbeat(&mut self, pos: usize, now: Seconds) -> Option<f64> {
        let truth = self.apps.get_mut(pos)?.heartbeat_rate(now);
        match self.adversary.as_mut() {
            Some(a) => a.report_heartbeat(&self.server.app_names()[pos], truth),
            None => truth,
        }
    }

    /// Instantaneously measures `(dynamic power, throughput)` of `name`
    /// at `knob` — the simulation analogue of the paper's short online
    /// calibration run at one sample setting. The app is not disturbed.
    ///
    /// Returns `None` for unknown apps.
    pub fn probe(&self, name: &str, knob: KnobSetting) -> Option<(Watts, f64)> {
        let app = self.app(name)?;
        let spec = self.server.spec();
        let op = app.operating_point(spec, knob);
        let throughput = match self.adversary.as_ref() {
            // A sandbagging app demonstrates deliberately poor
            // throughput at sub-maximal probe settings.
            Some(a) => a.probe_throughput(name, knob == KnobSetting::max_for(spec), op.throughput),
            None => op.throughput,
        };
        Some((op.dynamic_power, throughput))
    }

    /// The cumulative power meter.
    pub fn meter(&self) -> &PowerMeter {
        &self.meter
    }

    /// Advances the simulation by `dt`.
    pub fn step(&mut self, dt: Seconds) -> StepReport {
        self.clock.advance(dt);
        let now = self.clock.now();

        // 0. Fault bookkeeping: restart apps whose crash timer expired,
        //    roll new crashes for running apps (in position order, so
        //    the draw sequence is deterministic), and keep crashed apps
        //    down even if the policy tried to resume them.
        if let Some(a) = self.adversary.as_mut() {
            a.begin_step(now);
        }
        if let Some(f) = self.faults.as_mut() {
            f.begin_step(self.clock.steps(), now);
            for name in f.restarts_due() {
                // A crashed app that departed since has nothing to resume.
                let _ = self.server.resume_app(&name);
            }
            for app in &self.apps {
                let name = app.profile().name();
                let running = self
                    .server
                    .assignment(name)
                    .is_some_and(|a| a.run_state() == AppRunState::Running);
                if (running && !app.completed() && f.crash_roll(name)) || f.is_crashed(name) {
                    let _ = self.server.suspend_app(name);
                }
            }
        }

        // Draw this step's request arrivals (and close any SLO windows
        // that ended) before apps get to serve them.
        if let Some(t) = self.traffic.as_mut() {
            t.begin_step(now, dt);
        }

        // 1. Applications run (or idle) at their assigned knobs, filling
        //    this step's demand and override of each position. The spec
        //    is borrowed, not cloned: `apps`, the buffers and `server`
        //    are disjoint fields, and the borrow ends before the
        //    suspend_app calls below.
        debug_assert_eq!(
            self.server.app_count(),
            self.apps.len(),
            "apps are hosted and removed through ServerSim"
        );
        self.demands.clear();
        self.overrides.clear();
        let mut completed = Vec::new();
        let spec = self.server.spec();
        for ((name, app), assignment) in self
            .server
            .app_names()
            .iter()
            .zip(&mut self.apps)
            .zip(self.server.assignments())
        {
            // A defiant app runs at a hotter operating point than the
            // acked assignment (the readback still shows the
            // commanded knob — from the mediator's side the write
            // landed).
            let commanded = assignment.knob();
            let knob = match self.adversary.as_ref() {
                Some(a) => a.effective_knob(name, spec, commanded),
                None => commanded,
            };
            self.overrides.push((knob != commanded).then_some(knob));
            let demand = match assignment.run_state() {
                AppRunState::Running => {
                    let was_done = app.completed();
                    let demand = match self.traffic.as_mut() {
                        // Request-driven: the app serves its queue at
                        // the operating point's roofline rate;
                        // utilization (and therefore power demand and
                        // heartbeats) tracks served work.
                        Some(traffic) => {
                            let op = app.operating_point(spec, knob);
                            let capacity_ops = op.throughput * dt.value();
                            let served = traffic.serve(name, capacity_ops, now);
                            let utilization = if capacity_ops > 0.0 {
                                served / capacity_ops
                            } else {
                                0.0
                            };
                            app.step_served(&op, utilization, now, dt)
                        }
                        // Scripted: the app executes unconditionally.
                        None => app.step(spec, knob, now, dt),
                    };
                    if !was_done && app.completed() {
                        completed.push(name.clone());
                    }
                    demand
                }
                AppRunState::Suspended => {
                    app.step_suspended(now);
                    // Unread: a suspended app draws nothing.
                    AppDemand::default()
                }
            };
            self.demands.push(demand);
        }
        // An application that just completed has exited its process: its
        // cores idle and its socket may deep-sleep. Model that by
        // suspending it on the server (the Accountant's E3 will remove
        // it properly).
        for name in &completed {
            let _ = self.server.suspend_app(name);
        }

        // 2. Server power accounting (at the knobs the apps *actually*
        //    ran, which for defiant apps is hotter than the acked
        //    assignment).
        self.server
            .power_draw_with(&self.demands, &self.overrides, dt, &mut self.breakdown);
        let gross = self.breakdown.total();

        // 3. ESD command execution. Charging is clamped to headroom under
        //    the cap (charging must never itself violate Eq. 3). A
        //    stuck-at-idle device silently drops non-idle commands.
        let mut command = self.esd_command;
        if let Some(f) = self.faults.as_mut() {
            if f.esd_stuck() && command != EsdCommand::Idle {
                f.note_esd_ignored();
                command = EsdCommand::Idle;
            }
        }
        let (esd_charge, esd_discharge) = match command {
            EsdCommand::Idle => (Watts::ZERO, Watts::ZERO),
            EsdCommand::Charge(p) => {
                let headroom = match self.cap {
                    Some(cap) => (cap - gross).max_zero(),
                    None => p,
                };
                (self.esd.charge(p.min(headroom), dt), Watts::ZERO)
            }
            EsdCommand::Discharge(p) => (Watts::ZERO, self.esd.discharge(p, dt)),
            EsdCommand::DischargeToCap => {
                let deficit = match self.cap {
                    Some(cap) => (gross - cap).max_zero(),
                    None => Watts::ZERO,
                };
                if deficit.is_zero() {
                    (Watts::ZERO, Watts::ZERO)
                } else {
                    (Watts::ZERO, self.esd.discharge(deficit, dt))
                }
            }
        };
        self.esd.tick(dt);

        let net = gross + esd_charge - esd_discharge;
        self.meter.sample(net, self.cap, dt);
        let cap_violated = match self.cap {
            Some(cap) => net.violates_cap(cap),
            None => false,
        };
        // What the runtime gets to see. Ground truth (meter, violation
        // flag above) is untouched by meter faults.
        let observed_net_power = match self.faults.as_mut() {
            Some(f) => f.observe_net(net),
            None => Some(net),
        };

        // 4. Surface traffic events to the flight recorder. Nothing is
        // emitted when no source is attached.
        if let Some(t) = self.traffic.as_mut() {
            let events = t.take_events();
            if let Some(obs) = self.obs.as_ref() {
                for event in events {
                    obs.emit(
                        now,
                        match event {
                            TrafficEvent::DemandSpike { app, ratio } => {
                                ObsEvent::DemandSpike { app, ratio }
                            }
                            TrafficEvent::SloWindow {
                                app,
                                attainment,
                                ok,
                            } => ObsEvent::SloWindow {
                                app,
                                attainment,
                                ok,
                            },
                        },
                    );
                }
            }
        }
        if let Some(obs) = self.obs.as_ref() {
            obs.inc("sim_steps_total");
            if let Some(cap) = self.cap {
                if cap_violated {
                    obs.observe("cap_violation_w", (net - cap).value());
                }
            }
            if observed_net_power.is_none() {
                obs.inc("sensor_dropouts_total");
            }
        }

        StepReport {
            now,
            gross_power: gross,
            net_power: net,
            esd_charge,
            esd_discharge,
            cap_violated,
            observed_net_power,
            completed,
        }
    }

    /// Runs for `duration` in steps of `dt`, returning the last report.
    ///
    /// The step count is `duration / dt` rounded, with a floor of one:
    /// at least one step always executes, even when `duration < dt`.
    pub fn run_for(&mut self, duration: Seconds, dt: Seconds) -> StepReport {
        let steps = (duration.value() / dt.value()).round().max(1.0) as u64;
        let mut last = None;
        for _ in 0..steps {
            last = Some(self.step(dt));
        }
        last.expect("at least one step")
    }

    /// Total work completed by `name` so far (0 for unknown apps).
    pub fn ops_done(&self, name: &str) -> f64 {
        self.app(name).map_or(0.0, RunningApp::ops_done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_esd::{IdealEsd, LeadAcidBattery, NoEsd};
    use powermed_units::Joules;
    use powermed_workloads::catalog;

    fn sim() -> ServerSim {
        ServerSim::new(ServerSpec::xeon_e5_2620(), Box::new(NoEsd))
    }

    const DT: Seconds = Seconds::new(0.1);

    #[test]
    fn empty_server_idles_at_p_idle() {
        let mut s = sim();
        let r = s.step(DT);
        assert_eq!(r.gross_power, Watts::new(50.0));
        assert_eq!(r.net_power, r.gross_power);
        assert!(!r.cap_violated);
    }

    #[test]
    fn hosted_app_progresses_and_draws_power() {
        let mut s = sim();
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        let r = s.run_for(Seconds::new(1.0), DT);
        assert!(r.gross_power.value() > 80.0, "gross {:?}", r.gross_power);
        assert!(s.ops_done("kmeans") > 0.0);
        assert_eq!(s.app_names(), vec!["kmeans".to_string()]);
    }

    #[test]
    fn suspended_app_stops_drawing() {
        let mut s = sim();
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.suspend_app("kmeans").unwrap();
        let r = s.step(DT);
        assert_eq!(r.gross_power, Watts::new(50.0), "socket deep sleeps");
        assert_eq!(s.ops_done("kmeans"), 0.0);
    }

    #[test]
    fn cap_violation_flagged() {
        let mut s = sim();
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.set_cap(Some(Watts::new(60.0)));
        let r = s.step(DT);
        assert!(r.cap_violated);
        assert!(s.meter().compliance().violation_fraction() > 0.99);
    }

    #[test]
    fn completion_reported_once() {
        let mut s = sim();
        let spec = s.server().spec().clone();
        let knob = KnobSetting::max_for(&spec);
        let short = catalog::finite(catalog::kmeans(), &spec, Seconds::new(0.5));
        s.host(short, knob).unwrap();
        let mut completions = 0;
        for _ in 0..20 {
            completions += s.step(DT).completed.len();
        }
        assert_eq!(completions, 1);
        assert!(s.app("kmeans").unwrap().completed());
        // Completed-but-not-removed app draws only background.
        s.step(DT);
        let app_power = s.app_power("kmeans").expect("hosted");
        assert!(app_power.value() < 5.0, "exited app draws {app_power:?}");
    }

    #[test]
    fn esd_charge_respects_cap_headroom() {
        let mut s = ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(IdealEsd::new(Joules::new(1000.0), Watts::new(100.0))),
        );
        s.set_cap(Some(Watts::new(70.0)));
        s.set_esd_command(EsdCommand::Charge(Watts::new(100.0)));
        let r = s.step(DT);
        // Idle 50 W, cap 70 W: only 20 W of charge headroom.
        assert!((r.esd_charge - Watts::new(20.0)).abs() < Watts::new(1e-9));
        assert!((r.net_power - Watts::new(70.0)).abs() < Watts::new(1e-9));
        assert!(!r.cap_violated);
    }

    #[test]
    fn esd_discharge_lowers_net_power() {
        let mut s = ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(IdealEsd::new(Joules::new(1000.0), Watts::new(100.0)).with_soc(1.0)),
        );
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.set_esd_command(EsdCommand::Discharge(Watts::new(20.0)));
        let r = s.step(DT);
        assert_eq!(r.esd_discharge, Watts::new(20.0));
        assert!((r.net_power - (r.gross_power - Watts::new(20.0))).abs() < Watts::new(1e-9));
    }

    #[test]
    fn lead_acid_bank_and_spend_cycle() {
        let mut s = ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(LeadAcidBattery::server_ups()),
        );
        s.set_cap(Some(Watts::new(70.0)));
        s.set_esd_command(EsdCommand::Charge(Watts::new(50.0)));
        s.run_for(Seconds::new(10.0), DT);
        let banked = s.esd().stored();
        assert!(banked.value() > 150.0, "banked {banked:?}");
        s.set_esd_command(EsdCommand::Discharge(Watts::new(40.0)));
        let r = s.step(DT);
        assert!(r.esd_discharge.value() > 0.0);
        assert!(s.esd().stored() < banked);
    }

    #[test]
    fn probe_matches_model() {
        let mut s = sim();
        let spec = s.server().spec().clone();
        let knob = KnobSetting::max_for(&spec);
        s.host(catalog::stream(), knob).unwrap();
        let (p, t) = s.probe("stream", knob).unwrap();
        let op = catalog::stream().evaluate(&spec, knob);
        assert_eq!(p, op.dynamic_power);
        assert_eq!(t, op.throughput);
        assert!(s.probe("ghost", knob).is_none());
    }

    #[test]
    fn no_injection_reports_true_power_as_observed() {
        let mut s = sim();
        let r = s.step(DT);
        assert_eq!(r.observed_net_power, Some(r.net_power));
        assert!(s.fault_injector().is_none());
        assert_eq!(s.fault_stats().total_events(), 0);
        assert!(s.fault_trace().is_empty());
    }

    #[test]
    fn divergence_series_is_always_recorded() {
        // Without injection the observed channel is the truth on every
        // step.
        let mut s = sim();
        for _ in 0..5 {
            let r = s.step(DT);
            assert_eq!(r.observed_net_power, Some(r.net_power));
        }

        // With meter noise the observed draw deviates somewhere.
        let cfg = crate::faults::FaultConfig {
            seed: 11,
            meter_noise_sigma: 0.1,
            ..crate::faults::FaultConfig::default()
        };
        let mut noisy = sim().with_fault_injection(cfg);
        let knob = KnobSetting::max_for(noisy.server().spec());
        noisy.host(catalog::kmeans(), knob).unwrap();
        let diverged = (0..20).any(|_| {
            let r = noisy.step(DT);
            r.observed_net_power
                .is_some_and(|seen| (seen - r.net_power).value().abs() > 1e-6)
        });
        assert!(diverged, "noise never showed");
    }

    #[test]
    fn observability_counts_steps_violations_and_knob_outcomes() {
        use powermed_telemetry::journal::{Obs, ObsConfig};
        let mut s = sim();
        let obs = Obs::new(ObsConfig::default());
        s.set_observability(obs.clone());
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.set_cap(Some(Watts::new(60.0)));
        s.set_knobs("kmeans", knob).unwrap();
        s.run_for(Seconds::new(0.5), DT);
        let m = obs.metrics();
        assert_eq!(m.counter("sim_steps_total"), 5);
        assert_eq!(m.counter("knob_writes_total{outcome=\"apply\"}"), 1);
        let h = m.histogram("cap_violation_w").expect("over-cap steps seen");
        assert_eq!(h.count(), 5, "every step violated the 60 W cap");
    }

    #[test]
    fn fault_free_config_changes_nothing_but_bookkeeping() {
        let run = |faulted: bool| {
            let mut s = sim();
            if faulted {
                s = s.with_fault_injection(crate::faults::FaultConfig::none(3));
            }
            let knob = KnobSetting::max_for(s.server().spec());
            s.host(catalog::kmeans(), knob).unwrap();
            s.set_cap(Some(Watts::new(100.0)));
            let mut nets = Vec::new();
            for _ in 0..50 {
                nets.push(s.step(DT).net_power);
            }
            (nets, s.ops_done("kmeans"))
        };
        assert_eq!(run(false), run(true), "inert injection is bit-identical");
    }

    #[test]
    fn fault_traces_are_seed_deterministic() {
        let run = |seed: u64| {
            let cfg = crate::faults::FaultConfig {
                seed,
                knob_failure_prob: 0.3,
                meter_noise_sigma: 0.05,
                meter_dropout_prob: 0.05,
                app_crash_prob: 0.02,
                app_restart_steps: 5,
                ..crate::faults::FaultConfig::default()
            };
            let mut s = sim().with_fault_injection(cfg);
            let spec = s.server().spec().clone();
            let knob = KnobSetting::max_for(&spec);
            s.host(catalog::kmeans(), knob).unwrap();
            s.host(catalog::stream(), KnobSetting::min_for(&spec))
                .unwrap();
            let mut observed = Vec::new();
            for i in 0..100 {
                if i % 10 == 0 {
                    let _ = s.set_knobs("kmeans", knob);
                }
                observed.push(s.step(DT).observed_net_power);
            }
            (s.fault_trace().to_vec(), observed)
        };
        assert_eq!(run(11), run(11), "same seed: bit-identical trace");
        assert_ne!(run(11).0, run(12).0, "different seed: diverging trace");
    }

    #[test]
    fn crashed_app_stays_down_until_restart() {
        let cfg = crate::faults::FaultConfig {
            app_crash_prob: 1.0,
            app_restart_steps: 3,
            ..crate::faults::FaultConfig::default()
        };
        let mut s = sim().with_fault_injection(cfg);
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        // First step crashes the app (p = 1).
        s.step(DT);
        assert_eq!(s.fault_stats().app_crashes, 1);
        assert_eq!(s.ops_done("kmeans"), 0.0);
        // The policy tries to resume it; the crash dominates.
        s.resume_app("kmeans").unwrap();
        s.step(DT);
        assert_eq!(s.ops_done("kmeans"), 0.0, "still down");
        // After the restart timer it runs again (and immediately
        // re-crashes with p = 1, but the restart was recorded).
        for _ in 0..4 {
            s.step(DT);
        }
        assert!(s.fault_stats().app_restarts >= 1);
    }

    #[test]
    fn stuck_at_idle_esd_ignores_commands() {
        let cfg = crate::faults::FaultConfig {
            esd_stuck_at_idle: true,
            ..crate::faults::FaultConfig::default()
        };
        let mut s = ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(IdealEsd::new(Joules::new(1000.0), Watts::new(100.0)).with_soc(1.0)),
        )
        .with_fault_injection(cfg);
        s.set_esd_command(EsdCommand::Discharge(Watts::new(20.0)));
        let r = s.step(DT);
        assert_eq!(r.esd_discharge, Watts::ZERO, "command silently dropped");
        assert_eq!(r.net_power, r.gross_power);
        assert_eq!(s.fault_stats().esd_commands_ignored, 1);
    }

    #[test]
    fn esd_degradation_wraps_the_device() {
        let cfg = crate::faults::FaultConfig {
            esd_capacity_fade: 0.5,
            ..crate::faults::FaultConfig::default()
        };
        let s = ServerSim::new(
            ServerSpec::xeon_e5_2620(),
            Box::new(IdealEsd::new(Joules::new(1000.0), Watts::new(100.0))),
        )
        .with_fault_injection(cfg);
        assert_eq!(s.esd().capacity(), Joules::new(500.0));
    }

    #[test]
    fn rejected_knob_write_surfaces_an_error() {
        let cfg = crate::faults::FaultConfig {
            knob_failure_prob: 1.0,
            ..crate::faults::FaultConfig::default()
        };
        let mut s = sim().with_fault_injection(cfg);
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        let target = KnobSetting::min_for(s.server().spec());
        // With p = 1 every write faults; over a few attempts we must see
        // at least one of each mode and never a clean apply.
        let mut saw_error = false;
        for _ in 0..30 {
            s.step(DT);
            if s.set_knobs("kmeans", target).is_err() {
                saw_error = true;
            }
        }
        assert!(saw_error, "a rejection must surface as Err");
        let stats = s.fault_stats();
        assert!(stats.knob_rejections > 0);
        assert!(stats.knob_stale + stats.knob_partial > 0);
    }

    #[test]
    fn adversary_free_config_changes_nothing_but_bookkeeping() {
        let run = |adversarial: bool| {
            let mut s = sim();
            if adversarial {
                s = s.with_adversary(crate::adversary::AdversaryConfig::none(3));
            }
            let knob = KnobSetting::max_for(s.server().spec());
            s.host(catalog::kmeans(), knob).unwrap();
            s.set_cap(Some(Watts::new(100.0)));
            let mut nets = Vec::new();
            let mut claims = Vec::new();
            for i in 0..50 {
                nets.push(s.step(DT).net_power);
                claims.push(s.reported_heartbeat(0, Seconds::new((i + 1) as f64 * 0.1)));
            }
            (nets, claims, s.ops_done("kmeans"))
        };
        assert_eq!(run(false), run(true), "inert adversary is bit-identical");
    }

    #[test]
    fn defiant_app_draws_more_than_its_acked_knob() {
        let run = |defiant: bool| {
            let mut s = sim();
            if defiant {
                s = s.with_adversary(crate::adversary::AdversaryConfig::noncompliance(
                    1,
                    &["kmeans"],
                ));
            }
            let low = KnobSetting::min_for(s.server().spec()).with_cores(4);
            s.host(catalog::kmeans(), low).unwrap();
            let r = s.run_for(Seconds::new(1.0), DT);
            (r.gross_power, s.ops_done("kmeans"))
        };
        let (honest_p, honest_ops) = run(false);
        let (defiant_p, defiant_ops) = run(true);
        assert!(
            defiant_p > honest_p + Watts::new(1.0),
            "running hot must show in true power: {honest_p:?} vs {defiant_p:?}"
        );
        assert!(defiant_ops > honest_ops, "and in true progress");
    }

    #[test]
    fn misreported_heartbeat_diverges_from_ground_truth() {
        let mut s = sim().with_adversary(crate::adversary::AdversaryConfig {
            heartbeat_factor: 2.0,
            heartbeat_jitter: 0.0,
            apps: vec!["kmeans".to_string()],
            ..crate::adversary::AdversaryConfig::default()
        });
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.run_for(Seconds::new(2.0), DT);
        let now = s.now();
        let claimed = s.reported_heartbeat(0, now).unwrap();
        let truth = s.app_mut("kmeans").unwrap().heartbeat_rate(now).unwrap();
        assert!(
            (claimed - 2.0 * truth).abs() < 1e-9,
            "claim {claimed} must be twice the truth {truth}"
        );
        assert!(s.adversary_stats().heartbeats_misreported > 0);
    }

    #[test]
    fn remove_frees_cores() {
        let mut s = sim();
        let knob = KnobSetting::max_for(s.server().spec());
        s.host(catalog::kmeans(), knob).unwrap();
        s.host(catalog::stream(), knob).unwrap();
        s.remove("kmeans").unwrap();
        assert_eq!(s.app_names(), vec!["stream".to_string()]);
        assert!(s.remove("kmeans").is_err());
        // A third app can now fit.
        s.host(catalog::bfs(), knob).unwrap();
    }

    #[test]
    fn traffic_driven_apps_track_served_load() {
        let knob = KnobSetting::max_for(&ServerSpec::xeon_e5_2620());
        // Scripted twin: always saturated.
        let mut scripted = sim();
        scripted.host(catalog::kmeans(), knob).unwrap();
        scripted.host(catalog::stream(), knob).unwrap();
        // Request-driven twin at modest offered load, no bursts.
        let mut driven = sim();
        driven.host(catalog::kmeans(), knob).unwrap();
        driven.host(catalog::stream(), knob).unwrap();
        driven.attach_traffic(TrafficConfig {
            target_utilization: 0.4,
            flash_crowds: 0,
            ..TrafficConfig::default()
        });

        let mut scripted_gross = 0.0;
        let mut driven_gross = 0.0;
        for _ in 0..100 {
            scripted_gross += scripted.step(DT).gross_power.value();
            driven_gross += driven.step(DT).gross_power.value();
        }
        // Partially utilized apps make less progress and draw less
        // power than saturated ones.
        assert!(driven.ops_done("kmeans") > 0.0);
        assert!(driven.ops_done("kmeans") < scripted.ops_done("kmeans"));
        assert!(
            driven_gross < scripted_gross,
            "{driven_gross} vs {scripted_gross}"
        );
        let stats = driven.traffic().unwrap().stats();
        assert!(stats.completions > 0, "no requests completed");
    }

    #[test]
    fn traffic_events_reach_the_journal() {
        let knob = KnobSetting::max_for(&ServerSpec::xeon_e5_2620());
        let mut s = sim();
        let obs = Obs::new(powermed_telemetry::journal::ObsConfig::default());
        s.set_observability(obs.clone());
        s.host(catalog::kmeans(), knob).unwrap();
        s.attach_traffic(TrafficConfig {
            flash_magnitude: 8.0,
            flash_crowds: 3,
            ..TrafficConfig::default()
        });
        for _ in 0..864 {
            s.step(DT);
        }
        let journal = obs.journal_snapshot();
        assert!(
            journal
                .iter()
                .any(|r| matches!(r.event, ObsEvent::SloWindow { .. })),
            "no SLO window verdicts in the journal"
        );
        assert!(
            journal
                .iter()
                .any(|r| matches!(r.event, ObsEvent::DemandSpike { .. })),
            "no demand spikes in the journal"
        );
    }
}

#[cfg(test)]
mod matches_reference {
    use super::*;
    use powermed_esd::LeadAcidBattery;
    use powermed_workloads::catalog;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The name-keyed breakdown the step used to carry.
    struct ReferenceBreakdown {
        idle: Watts,
        uncore: Watts,
        apps: BTreeMap<String, Watts>,
    }

    /// What the name-keyed step reported: its [`StepReport`] fields, with
    /// the breakdown's dynamic power keyed by application name.
    #[derive(Debug)]
    // The fields are read through `Debug`: reports compare as printed,
    // which tells every bit of an `f64` apart, `-0.0` and NaN included.
    #[allow(dead_code)]
    pub(crate) struct ReferenceReport {
        now: Seconds,
        gross_power: Watts,
        net_power: Watts,
        esd_charge: Watts,
        esd_discharge: Watts,
        cap_violated: bool,
        observed_net_power: Option<Watts>,
        completed: Vec<String>,
        idle: Watts,
        uncore: Watts,
        apps: BTreeMap<String, Watts>,
    }

    /// The name-keyed [`ServerSim::step`] the positional one replaced:
    /// it rebuilds `demands` and `overrides` as maps keyed by cloned
    /// names on every step.
    pub(crate) fn step_reference(sim: &mut ServerSim, dt: Seconds) -> ReferenceReport {
        sim.clock.advance(dt);
        let now = sim.clock.now();

        // 0. Fault bookkeeping: restart apps whose crash timer expired,
        //    roll new crashes for running apps (BTreeMap name order, so
        //    the draw sequence is deterministic), and keep crashed apps
        //    down even if the policy tried to resume them.
        if let Some(a) = sim.adversary.as_mut() {
            a.begin_step(now);
        }
        if let Some(f) = sim.faults.as_mut() {
            f.begin_step(sim.clock.steps(), now);
            for name in f.restarts_due() {
                if sim.server.position(&name).is_some() {
                    let _ = sim.server.resume_app(&name);
                }
            }
            let names = sim.server.app_names().to_vec();
            for (name, app) in names.iter().zip(&sim.apps) {
                let running = sim
                    .server
                    .assignment(name)
                    .is_some_and(|a| a.run_state() == AppRunState::Running);
                let completed = app.completed();
                if (running && !completed && f.crash_roll(name)) || f.is_crashed(name) {
                    let _ = sim.server.suspend_app(name);
                }
            }
        }

        // Draw this step's request arrivals (and close any SLO windows
        // that ended) before apps get to serve them.
        if let Some(t) = sim.traffic.as_mut() {
            t.begin_step(now, dt);
        }

        // 1. Applications run (or idle) at their assigned knobs. The
        //    spec is borrowed, not cloned: `apps` and `server` are
        //    disjoint fields, and the borrow ends before the
        //    suspend_app calls below.
        let mut demands: BTreeMap<String, AppDemand> = BTreeMap::new();
        let mut completed = Vec::new();
        // Effective-knob overrides for defiant apps (empty — and
        // allocation-free — without an adversary).
        let mut overrides: BTreeMap<String, KnobSetting> = BTreeMap::new();
        let spec = sim.server.spec();
        let names = sim.server.app_names().to_vec();
        for (name, app) in names.iter().zip(&mut sim.apps) {
            let Some(assignment) = sim.server.assignment(name) else {
                continue;
            };
            // A defiant app runs at a hotter operating point than the
            // acked assignment (the readback still shows the
            // commanded knob — from the mediator's side the write
            // landed).
            let commanded = assignment.knob();
            let knob = match sim.adversary.as_ref() {
                Some(a) => a.effective_knob(name, spec, commanded),
                None => commanded,
            };
            if knob != commanded {
                overrides.insert(name.clone(), knob);
            }
            match assignment.run_state() {
                AppRunState::Running => {
                    let was_done = app.completed();
                    let demand = match sim.traffic.as_mut() {
                        // Request-driven: the app serves its queue at
                        // the operating point's roofline rate;
                        // utilization (and therefore power demand and
                        // heartbeats) tracks served work.
                        Some(traffic) => {
                            let op = app.operating_point(spec, knob);
                            let capacity_ops = op.throughput * dt.value();
                            let served = traffic.serve(name, capacity_ops, now);
                            let utilization = if capacity_ops > 0.0 {
                                served / capacity_ops
                            } else {
                                0.0
                            };
                            app.step_served(&op, utilization, now, dt)
                        }
                        // Scripted: the app executes unconditionally.
                        None => app.step(spec, knob, now, dt),
                    };
                    demands.insert(name.clone(), demand);
                    if !was_done && app.completed() {
                        completed.push(name.clone());
                    }
                }
                AppRunState::Suspended => {
                    app.step_suspended(now);
                }
            }
        }
        // An application that just completed has exited its process: its
        // cores idle and its socket may deep-sleep. Model that by
        // suspending it on the server (the Accountant's E3 will remove
        // it properly).
        for name in &completed {
            let _ = sim.server.suspend_app(name);
        }

        // 2. Server power accounting (at the knobs the apps *actually*
        //    ran, which for defiant apps is hotter than the acked
        //    assignment).
        //    The server draws by position; the maps are keyed by name.
        let by_position: Vec<AppDemand> = names
            .iter()
            .map(|n| demands.get(n).copied().unwrap_or_default())
            .collect();
        let overridden: Vec<Option<KnobSetting>> =
            names.iter().map(|n| overrides.get(n).copied()).collect();
        sim.server
            .power_draw_with(&by_position, &overridden, dt, &mut sim.breakdown);
        let breakdown = ReferenceBreakdown {
            idle: sim.breakdown.idle,
            uncore: sim.breakdown.uncore,
            apps: names
                .iter()
                .cloned()
                .zip(sim.breakdown.apps.iter().copied())
                .collect(),
        };
        let gross =
            breakdown.idle + breakdown.uncore + breakdown.apps.values().copied().sum::<Watts>();

        // 3. ESD command execution. Charging is clamped to headroom under
        //    the cap (charging must never itself violate Eq. 3). A
        //    stuck-at-idle device silently drops non-idle commands.
        let mut command = sim.esd_command;
        if let Some(f) = sim.faults.as_mut() {
            if f.esd_stuck() && command != EsdCommand::Idle {
                f.note_esd_ignored();
                command = EsdCommand::Idle;
            }
        }
        let (esd_charge, esd_discharge) = match command {
            EsdCommand::Idle => (Watts::ZERO, Watts::ZERO),
            EsdCommand::Charge(p) => {
                let headroom = match sim.cap {
                    Some(cap) => (cap - gross).max_zero(),
                    None => p,
                };
                (sim.esd.charge(p.min(headroom), dt), Watts::ZERO)
            }
            EsdCommand::Discharge(p) => (Watts::ZERO, sim.esd.discharge(p, dt)),
            EsdCommand::DischargeToCap => {
                let deficit = match sim.cap {
                    Some(cap) => (gross - cap).max_zero(),
                    None => Watts::ZERO,
                };
                if deficit.is_zero() {
                    (Watts::ZERO, Watts::ZERO)
                } else {
                    (Watts::ZERO, sim.esd.discharge(deficit, dt))
                }
            }
        };
        sim.esd.tick(dt);

        let net = gross + esd_charge - esd_discharge;
        sim.meter.sample(net, sim.cap, dt);
        let cap_violated = match sim.cap {
            Some(cap) => net.violates_cap(cap),
            None => false,
        };
        // What the runtime gets to see. Ground truth (meter, violation
        // flag above) is untouched by meter faults.
        let observed_net_power = match sim.faults.as_mut() {
            Some(f) => f.observe_net(net),
            None => Some(net),
        };

        // 4. Surface traffic events to the flight recorder. Nothing is
        // emitted when no source is attached.
        if let Some(t) = sim.traffic.as_mut() {
            let events = t.take_events();
            if let Some(obs) = sim.obs.as_ref() {
                for event in events {
                    obs.emit(
                        now,
                        match event {
                            TrafficEvent::DemandSpike { app, ratio } => {
                                ObsEvent::DemandSpike { app, ratio }
                            }
                            TrafficEvent::SloWindow {
                                app,
                                attainment,
                                ok,
                            } => ObsEvent::SloWindow {
                                app,
                                attainment,
                                ok,
                            },
                        },
                    );
                }
            }
        }
        if let Some(obs) = sim.obs.as_ref() {
            obs.inc("sim_steps_total");
            if let Some(cap) = sim.cap {
                if cap_violated {
                    obs.observe("cap_violation_w", (net - cap).value());
                }
            }
            if observed_net_power.is_none() {
                obs.inc("sensor_dropouts_total");
            }
        }

        ReferenceReport {
            now,
            gross_power: gross,
            net_power: net,
            esd_charge,
            esd_discharge,
            cap_violated,
            observed_net_power,
            completed,
            idle: breakdown.idle,
            uncore: breakdown.uncore,
            apps: breakdown.apps,
        }
    }

    /// `report` and the per-app power it was stepped to, in the shape
    /// of a [`ReferenceReport`].
    fn reported(sim: &ServerSim, report: StepReport) -> ReferenceReport {
        ReferenceReport {
            now: report.now,
            gross_power: report.gross_power,
            net_power: report.net_power,
            esd_charge: report.esd_charge,
            esd_discharge: report.esd_discharge,
            cap_violated: report.cap_violated,
            observed_net_power: report.observed_net_power,
            completed: report.completed,
            idle: sim.breakdown().idle,
            uncore: sim.breakdown().uncore,
            apps: sim
                .app_names()
                .iter()
                .map(|name| (name.clone(), sim.app_power(name).expect("hosted")))
                .collect(),
        }
    }

    /// Everything a step leaves behind that a caller can read: the
    /// hosted names, each pool app's progress and state, the meter, and
    /// the fault, adversary and traffic bookkeeping.
    fn state(sim: &mut ServerSim) -> String {
        let now = sim.now();
        let apps: Vec<_> = POOL_NAMES
            .iter()
            .map(|name| {
                let assignment = sim.server().assignment(name).cloned();
                let completed = sim.app(name).map(RunningApp::completed);
                let heartbeat = sim
                    .server()
                    .position(name)
                    .and_then(|pos| sim.reported_heartbeat(pos, now));
                (sim.ops_done(name), assignment, completed, heartbeat)
            })
            .collect();
        format!(
            "{:?} {apps:?} {:?} {:?} {:?} {:?} {:?} {:?} {:?}",
            sim.app_names(),
            sim.meter().energy(),
            sim.meter().compliance(),
            sim.esd().stored(),
            sim.fault_stats(),
            sim.fault_trace(),
            sim.adversary_stats(),
            sim.traffic().map(TrafficSource::stats),
        )
    }

    const POOL_NAMES: [&str; 5] = ["x264", "kmeans", "stream", "bfs", "sssp"];

    /// The apps the operations host: hosting order differs from name
    /// order, and two of them finish so completions and departures
    /// happen.
    fn pool(spec: &ServerSpec) -> [AppProfile; 5] {
        [
            catalog::finite(catalog::x264(), spec, Seconds::new(1.5)),
            catalog::kmeans(),
            catalog::stream(),
            catalog::finite(catalog::bfs(), spec, Seconds::new(0.8)),
            catalog::sssp(),
        ]
    }

    /// A server with a battery, two apps hosted and the optional layers
    /// bit 0 (faults), bit 1 (a defiant, knob-overriding adversary) and
    /// bit 2 (request traffic) attached.
    fn build(layers: u8) -> ServerSim {
        let spec = ServerSpec::xeon_e5_2620();
        let esd = Box::new(LeadAcidBattery::server_ups().with_soc(0.5));
        let mut sim = ServerSim::new(spec.clone(), esd);
        if layers & 1 != 0 {
            sim = sim.with_fault_injection(FaultConfig {
                knob_failure_prob: 0.1,
                meter_dropout_prob: 0.05,
                app_crash_prob: 0.02,
                app_restart_steps: 4,
                ..FaultConfig::default_scenario(7)
            });
        }
        if layers & 2 != 0 {
            sim = sim.with_adversary(AdversaryConfig::noncompliance(
                3,
                &["kmeans", "sssp", "bfs"],
            ));
        }
        let [x264, kmeans, ..] = pool(&spec);
        let knob = KnobSetting::min_for(&spec).with_cores(2);
        sim.host(kmeans, knob).expect("fits");
        sim.host(x264, knob).expect("fits");
        if layers & 4 != 0 {
            sim.attach_traffic(TrafficConfig {
                flash_crowds: 1,
                ..TrafficConfig::default()
            });
        }
        sim
    }

    /// Applies one generated operation to `sim`.
    fn apply(sim: &mut ServerSim, (kind, which, idx): (u8, usize, usize)) {
        let spec = sim.server().spec().clone();
        let name = POOL_NAMES[which];
        let knob = spec.knob_grid().get(idx).expect("on the grid");
        let watts = Watts::new((idx % 60) as f64);
        let _ = match kind {
            0 => {
                let profile = pool(&spec)[which].clone();
                sim.host(profile, knob.with_cores(1 + idx % 3))
            }
            1 => sim.remove(name),
            2 => sim.suspend_app(name),
            3 => sim.resume_app(name),
            4 => sim.set_knobs(name, knob),
            5 => {
                sim.set_cap((idx % 5 > 0).then(|| Watts::new(60.0 + (idx % 70) as f64)));
                Ok(())
            }
            6 => {
                sim.set_esd_command(match idx % 4 {
                    0 => EsdCommand::Idle,
                    1 => EsdCommand::Charge(watts),
                    2 => EsdCommand::Discharge(watts),
                    _ => EsdCommand::DischargeToCap,
                });
                Ok(())
            }
            _ => Ok(()),
        };
    }

    proptest! {
        // Release builds run 1024 cases; debug builds 64.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
        /// Over random host, depart, suspend, resume, knob, cap and ESD
        /// operations, with and without faults, a defiant adversary and
        /// traffic, every step reports what the name-keyed step reports,
        /// bit for bit, and leaves the same state behind.
        #[test]
        fn prop_step_matches_the_reference(
            layers in 0u8..8,
            ops in proptest::collection::vec((0u8..9, 0usize..5, 0usize..432), 1..60),
        ) {
            let mut sim = build(layers);
            let mut reference = build(layers);
            let dt = Seconds::new(0.1);
            for op in ops {
                apply(&mut sim, op);
                apply(&mut reference, op);
                let report = sim.step(dt);
                let got = reported(&sim, report);
                let want = step_reference(&mut reference, dt);
                prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                prop_assert_eq!(state(&mut sim), state(&mut reference));
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use powermed_esd::NoEsd;
    use powermed_units::Ratio;
    use powermed_workloads::catalog;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For any sequence of suspend/resume/knob actuations, gross
        /// power stays within the physical envelope
        /// `[P_idle, rated power]` and energy accounting is monotone.
        #[test]
        fn prop_gross_power_within_envelope(
            ops in proptest::collection::vec((0u8..4, 0usize..2, 0usize..432), 1..40),
        ) {
            let spec = ServerSpec::xeon_e5_2620();
            let grid = spec.knob_grid();
            let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
            let start = KnobSetting::min_for(&spec).with_cores(4);
            sim.host(catalog::kmeans(), start).unwrap();
            sim.host(catalog::stream(), start).unwrap();
            let names = ["kmeans", "stream"];
            let mut prev_energy = sim.meter().energy();
            for (kind, which, idx) in ops {
                let name = names[which];
                match kind {
                    0 => { let _ = sim.suspend_app(name); }
                    1 => { let _ = sim.resume_app(name); }
                    2 => {
                        let knob = grid.get(idx).unwrap();
                        let cores_ok = knob.cores() <= 4
                            || sim.server().assignment(name).is_some();
                        if cores_ok {
                            let _ = sim.set_knobs(name, knob);
                        }
                    }
                    _ => {}
                }
                let report = sim.step(Seconds::new(0.1));
                prop_assert!(report.gross_power >= spec.idle_power() - Watts::new(1e-9));
                prop_assert!(report.gross_power <= spec.rated_power() + Watts::new(1e-6));
                prop_assert!(sim.meter().energy() >= prev_energy);
                prev_energy = sim.meter().energy();
            }
        }

        /// Progress is conserved: total ops equal the integral of the
        /// per-step throughput, and never decrease.
        #[test]
        fn prop_ops_monotone(steps in 1usize..60, busy in 0.0f64..1.0) {
            let spec = ServerSpec::xeon_e5_2620();
            let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
            let knob = KnobSetting::max_for(&spec);
            sim.host(catalog::bfs(), knob).unwrap();
            let _ = Ratio::new(busy);
            let mut prev = 0.0;
            for _ in 0..steps {
                sim.step(Seconds::new(0.1));
                let done = sim.ops_done("bfs");
                prop_assert!(done >= prev);
                prev = done;
            }
            prop_assert!(prev > 0.0);
        }
    }
}
