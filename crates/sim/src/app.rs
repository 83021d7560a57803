//! A hosted application's runtime state: progress, heartbeats, phase
//! clock and completion.

use powermed_server::server::AppDemand;
use powermed_server::{KnobSetting, ServerSpec};
use powermed_telemetry::heartbeat::HeartbeatMonitor;
use powermed_units::Seconds;
use powermed_workloads::profile::{AppProfile, OperatingPoint};

/// Default heartbeat aggregation window.
const HEARTBEAT_WINDOW: Seconds = Seconds::new(2.0);

/// Runtime state of one application hosted on the simulated server.
#[derive(Debug, Clone)]
pub struct RunningApp {
    profile: AppProfile,
    arrived_at: Seconds,
    /// Wall-clock the app has actually been *running* (phase clock).
    active_time: Seconds,
    ops_done: f64,
    heartbeats: HeartbeatMonitor,
    completed: bool,
}

impl RunningApp {
    /// Wraps a profile arriving at `arrived_at`.
    pub fn new(profile: AppProfile, arrived_at: Seconds) -> Self {
        Self {
            profile,
            arrived_at,
            active_time: Seconds::ZERO,
            ops_done: 0.0,
            heartbeats: HeartbeatMonitor::new(HEARTBEAT_WINDOW),
            completed: false,
        }
    }

    /// The application's profile.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// When the application arrived on the server.
    pub fn arrived_at(&self) -> Seconds {
        self.arrived_at
    }

    /// Total work completed so far.
    pub fn ops_done(&self) -> f64 {
        self.ops_done
    }

    /// Whether the application has finished its total work.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Time the application has spent actually running (excludes
    /// suspension), which drives its phase behaviour.
    pub fn active_time(&self) -> Seconds {
        self.active_time
    }

    /// The heartbeat rate over the trailing window ending at `now`, ops
    /// per second.
    pub fn heartbeat_rate(&mut self, now: Seconds) -> Option<f64> {
        self.heartbeats.rate(now)
    }

    /// The operating point the app would run at for `knob` right now
    /// (respecting the current phase), without advancing it.
    pub fn operating_point(&self, spec: &ServerSpec, knob: KnobSetting) -> OperatingPoint {
        self.profile.evaluate_at(spec, knob, self.active_time)
    }

    /// Advances the app by `dt` of *running* time at `knob`, crediting
    /// progress and heartbeats. Returns the demand it placed on the
    /// hardware during the step.
    ///
    /// A completed app contributes nothing (its process has exited; only
    /// the Accountant's E3 handling removes it from the server).
    pub fn step(
        &mut self,
        spec: &ServerSpec,
        knob: KnobSetting,
        now: Seconds,
        dt: Seconds,
    ) -> AppDemand {
        if self.completed {
            return AppDemand {
                core_busy: powermed_units::Ratio::ZERO,
                mem_bandwidth: powermed_units::BytesPerSec::ZERO,
            };
        }
        let op = self.operating_point(spec, knob);
        let mut ops = op.throughput * dt.value();
        if let Some(total) = self.profile.total_ops() {
            let remaining = (total - self.ops_done).max(0.0);
            if ops >= remaining {
                ops = remaining;
                self.completed = true;
            }
        }
        self.ops_done += ops;
        self.active_time += dt;
        self.heartbeats.record(now, ops);
        op.demand
    }

    /// Advances the app by `dt` of running time at an already-evaluated
    /// operating point, crediting only `utilization` of its full-rate
    /// output — the request-driven path, where the traffic source
    /// decides how much of the roofline capacity was actually consumed.
    /// Heartbeats track *served* throughput and the hardware demand
    /// scales the same way: an app waiting for requests stalls its
    /// cores and leaves its DIMM idle.
    pub fn step_served(
        &mut self,
        op: &OperatingPoint,
        utilization: f64,
        now: Seconds,
        dt: Seconds,
    ) -> AppDemand {
        if self.completed {
            return AppDemand {
                core_busy: powermed_units::Ratio::ZERO,
                mem_bandwidth: powermed_units::BytesPerSec::ZERO,
            };
        }
        let utilization = utilization.clamp(0.0, 1.0);
        let mut ops = op.throughput * dt.value() * utilization;
        if let Some(total) = self.profile.total_ops() {
            let remaining = (total - self.ops_done).max(0.0);
            if ops >= remaining {
                ops = remaining;
                self.completed = true;
            }
        }
        self.ops_done += ops;
        self.active_time += dt;
        self.heartbeats.record(now, ops);
        AppDemand {
            core_busy: op.demand.core_busy * utilization,
            mem_bandwidth: op.demand.mem_bandwidth * utilization,
        }
    }

    /// Registers a suspended step: time passes, no progress, no demand.
    pub fn step_suspended(&mut self, now: Seconds) {
        // Record an explicit zero-beat so rate windows decay naturally.
        self.heartbeats.record(now, 0.0);
    }

    /// Fraction of total work completed, or `None` for endless services.
    #[cfg(test)]
    pub fn progress_fraction(&self) -> Option<f64> {
        self.profile
            .total_ops()
            .map(|t| (self.ops_done / t).min(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_server::ServerSpec;
    use powermed_workloads::catalog;

    fn spec() -> ServerSpec {
        ServerSpec::xeon_e5_2620()
    }

    #[test]
    fn progress_accumulates_at_throughput() {
        let spec = spec();
        let mut app = RunningApp::new(catalog::kmeans(), Seconds::ZERO);
        let knob = KnobSetting::max_for(&spec);
        let rate = app.operating_point(&spec, knob).throughput;
        for i in 0..10 {
            app.step(&spec, knob, Seconds::new(i as f64 * 0.1), Seconds::new(0.1));
        }
        assert!((app.ops_done() - rate).abs() < 1e-6, "1 s of work at rate");
        assert!((app.active_time() - Seconds::new(1.0)).abs() < Seconds::new(1e-9));
    }

    #[test]
    fn heartbeats_report_running_rate() {
        let spec = spec();
        let mut app = RunningApp::new(catalog::pagerank(), Seconds::ZERO);
        let knob = KnobSetting::max_for(&spec);
        let expect = app.operating_point(&spec, knob).throughput;
        for i in 1..=20 {
            app.step(&spec, knob, Seconds::new(i as f64 * 0.1), Seconds::new(0.1));
        }
        let rate = app.heartbeat_rate(Seconds::new(2.0)).unwrap();
        assert!(
            (rate - expect).abs() / expect < 0.1,
            "measured {rate} vs model {expect}"
        );
    }

    #[test]
    fn finite_jobs_complete_exactly() {
        let spec = spec();
        let profile = catalog::kmeans().with_total_ops(100.0);
        let mut app = RunningApp::new(profile, Seconds::ZERO);
        let knob = KnobSetting::max_for(&spec);
        let mut now = Seconds::ZERO;
        while !app.completed() {
            now += Seconds::new(0.1);
            app.step(&spec, knob, now, Seconds::new(0.1));
            assert!(app.ops_done() <= 100.0 + 1e-9);
        }
        assert_eq!(app.ops_done(), 100.0);
        assert_eq!(app.progress_fraction(), Some(1.0));
        // Further steps contribute nothing.
        let demand = app.step(&spec, knob, now + Seconds::new(0.1), Seconds::new(0.1));
        assert_eq!(demand.mem_bandwidth.value(), 0.0);
        assert_eq!(app.ops_done(), 100.0);
    }

    #[test]
    fn suspension_freezes_progress_and_phase_clock() {
        let spec = spec();
        let mut app = RunningApp::new(catalog::bfs(), Seconds::ZERO);
        let knob = KnobSetting::max_for(&spec);
        app.step(&spec, knob, Seconds::new(0.1), Seconds::new(0.1));
        let ops = app.ops_done();
        app.step_suspended(Seconds::new(0.2));
        app.step_suspended(Seconds::new(0.3));
        assert_eq!(app.ops_done(), ops);
        assert_eq!(app.active_time(), Seconds::new(0.1));
    }

    #[test]
    fn endless_services_have_no_progress_fraction() {
        let app = RunningApp::new(catalog::stream(), Seconds::ZERO);
        assert_eq!(app.progress_fraction(), None);
        assert!(!app.completed());
    }
}
