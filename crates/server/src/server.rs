//! The assembled server: topology + knobs + power domains + sleep states.
//!
//! [`Server`] is the actuation surface the policies drive. It plays the
//! role of the Linux enforcement layer of the paper (Sec. III-B):
//! `taskset` for core consolidation, `cpupower` for frequency, DRAM RAPL
//! for memory power, and task suspend/continue for temporal coordination —
//! plus the hardware's own package sleep behaviour.

use std::collections::BTreeMap;

use powermed_units::{BytesPerSec, Ratio, Seconds, Watts};

use crate::error::ServerError;
use crate::knobs::KnobSetting;
use crate::rapl::DramDomain;
use crate::sleep::{SleepLatency, SocketPowerState};
use crate::spec::ServerSpec;
use crate::topology::{CoreAllocator, CoreId, DimmId, SocketId};

/// Run state of a hosted application (the suspend/continue knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AppRunState {
    /// Scheduled and executing on its cores.
    #[default]
    Running,
    /// Suspended (SIGSTOP analogue): cores halted, state retained in
    /// private caches unless the socket subsequently deep-sleeps.
    Suspended,
}

/// What an application demands of the hardware this instant, produced by
/// the workload model: how busy its cores are and how much memory
/// bandwidth it wants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppDemand {
    /// Fraction of time the app's cores retire work (vs stall).
    pub core_busy: Ratio,
    /// Requested memory bandwidth on the app's local DIMM.
    pub mem_bandwidth: BytesPerSec,
}

impl Default for AppDemand {
    fn default() -> Self {
        Self {
            core_busy: Ratio::ONE,
            mem_bandwidth: BytesPerSec::ZERO,
        }
    }
}

/// An application's placement and knob state on the server.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Application slot index (used by the core allocator).
    slot: usize,
    /// The cores currently owned (length = knob's `n`).
    cores: Vec<CoreId>,
    /// The `(f, n, m)` knob setting in force.
    knob: KnobSetting,
    /// Running or suspended.
    run_state: AppRunState,
}

impl Assignment {
    /// The cores owned by this application.
    pub fn cores(&self) -> &[CoreId] {
        &self.cores
    }

    /// The knob setting in force.
    pub fn knob(&self) -> KnobSetting {
        self.knob
    }

    /// Whether the app is running or suspended.
    pub fn run_state(&self) -> AppRunState {
        self.run_state
    }

    /// The socket hosting this application (its first core's socket).
    pub fn socket(&self, spec: &ServerSpec) -> Option<SocketId> {
        self.cores.first().map(|c| spec.topology().socket_of(*c))
    }
}

/// Per-component decomposition of one instant of server power draw,
/// mirroring the paper's Fig. 1 accounting
/// (`P_idle + P_cm + Σ P_X [+ ESD]`).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Always-on floor: fans, disks, LLC leakage, DRAM self-refresh.
    pub idle: Watts,
    /// Chip-maintenance power of awake sockets.
    pub uncore: Watts,
    /// Dynamic power attributed to each application (cores + DRAM
    /// traffic), keyed by application name.
    pub apps: BTreeMap<String, Watts>,
    /// Bandwidth granted to each application after DRAM RAPL clamping.
    pub granted_bandwidth: BTreeMap<String, BytesPerSec>,
}

impl PowerBreakdown {
    /// Total server draw (before any ESD contribution).
    pub fn total(&self) -> Watts {
        self.idle + self.uncore + self.apps.values().copied().sum::<Watts>()
    }

    /// Total dynamic power across applications.
    pub fn dynamic(&self) -> Watts {
        self.apps.values().copied().sum()
    }
}

/// A simulated shared server hosting several applications with disjoint
/// core sets, per-app `(f, n, m)` knobs, DRAM RAPL domains and socket
/// deep-sleep.
///
/// # Examples
///
/// ```
/// use powermed_server::{Server, ServerSpec, KnobSetting};
///
/// let mut server = Server::new(ServerSpec::xeon_e5_2620());
/// let knob = KnobSetting::max_for(server.spec());
/// server.host_app("stream", knob)?;
/// assert_eq!(server.assignment("stream").unwrap().cores().len(), 6);
/// # Ok::<(), powermed_server::ServerError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    spec: ServerSpec,
    allocator: CoreAllocator,
    apps: BTreeMap<String, Assignment>,
    dram: Vec<DramDomain>,
    sleep_latency: SleepLatency,
    next_slot: usize,
}

impl Server {
    /// Creates an empty server from a platform spec.
    pub fn new(spec: ServerSpec) -> Self {
        let allocator = CoreAllocator::new(spec.topology().clone());
        let dram = (0..spec.topology().total_dimms())
            .map(|_| DramDomain::new(spec.dram_power().clone()))
            .collect();
        Self {
            spec,
            allocator,
            apps: BTreeMap::new(),
            dram,
            sleep_latency: SleepLatency::xeon_pc6(),
            next_slot: 0,
        }
    }

    /// The platform spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Names of currently hosted applications, in name order.
    pub fn app_names(&self) -> Vec<String> {
        self.apps.keys().cloned().collect()
    }

    /// Number of hosted applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The placement/knob state of `name`.
    pub fn assignment(&self, name: &str) -> Option<&Assignment> {
        self.apps.get(name)
    }

    /// The sleep-transition latency model.
    pub fn sleep_latency(&self) -> &SleepLatency {
        &self.sleep_latency
    }

    /// Hosts a new application with the given initial knob setting.
    ///
    /// # Errors
    ///
    /// * [`ServerError::DuplicateApp`] if `name` is already hosted;
    /// * [`ServerError::CoreCountOutOfRange`] /
    ///   [`ServerError::DramPowerOutOfRange`] if the knob is invalid;
    /// * [`ServerError::InsufficientCores`] if the free cores cannot
    ///   satisfy the knob's `n`.
    pub fn host_app(&mut self, name: &str, knob: KnobSetting) -> Result<(), ServerError> {
        if self.apps.contains_key(name) {
            return Err(ServerError::DuplicateApp(name.to_string()));
        }
        let knob =
            KnobSetting::validated(&self.spec, knob.dvfs(), knob.cores(), knob.dram_limit())?;
        let slot = self.next_slot;
        let cores = self.allocator.allocate(slot, knob.cores())?;
        self.next_slot += 1;
        self.apply_dram_limit(&cores, knob.dram_limit());
        self.apps.insert(
            name.to_string(),
            Assignment {
                slot,
                cores,
                knob,
                run_state: AppRunState::Running,
            },
        );
        Ok(())
    }

    /// Removes an application, releasing its cores.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn remove_app(&mut self, name: &str) -> Result<(), ServerError> {
        let assignment = self
            .apps
            .remove(name)
            .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?;
        self.allocator.release(assignment.slot);
        Ok(())
    }

    /// Applies a new `(f, n, m)` knob setting to `name`, growing or
    /// shrinking its core set as needed (the `taskset` + `cpupower` +
    /// DRAM-RAPL actuation of Sec. III-B).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] for unknown apps, knob
    /// validation errors, or [`ServerError::InsufficientCores`] when
    /// growing `n` beyond the free cores.
    pub fn set_knobs(&mut self, name: &str, knob: KnobSetting) -> Result<(), ServerError> {
        let knob =
            KnobSetting::validated(&self.spec, knob.dvfs(), knob.cores(), knob.dram_limit())?;
        let slot = {
            let assignment = self
                .apps
                .get(name)
                .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?;
            assignment.slot
        };
        let current = self.allocator.cores_of_app(slot).len();
        let new_cores = match knob.cores().cmp(&current) {
            core::cmp::Ordering::Less => {
                self.allocator.shrink_to(slot, knob.cores());
                self.allocator.cores_of_app(slot)
            }
            core::cmp::Ordering::Greater => {
                self.allocator.allocate(slot, knob.cores() - current)?;
                self.allocator.cores_of_app(slot)
            }
            core::cmp::Ordering::Equal => self.allocator.cores_of_app(slot),
        };
        self.apply_dram_limit(&new_cores, knob.dram_limit());
        let assignment = self.apps.get_mut(name).expect("checked above");
        assignment.cores = new_cores;
        assignment.knob = knob;
        Ok(())
    }

    /// Suspends an application (temporal coordination OFF period).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn suspend_app(&mut self, name: &str) -> Result<(), ServerError> {
        self.set_run_state(name, AppRunState::Suspended)
    }

    /// Resumes a suspended application (ON period).
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn resume_app(&mut self, name: &str) -> Result<(), ServerError> {
        self.set_run_state(name, AppRunState::Running)
    }

    fn set_run_state(&mut self, name: &str, state: AppRunState) -> Result<(), ServerError> {
        let assignment = self
            .apps
            .get_mut(name)
            .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?;
        assignment.run_state = state;
        Ok(())
    }

    /// The power state each socket would be in right now: a socket deep
    /// sleeps (PC6) when it hosts no *running* application cores.
    pub fn socket_states(&self) -> Vec<(SocketId, SocketPowerState)> {
        self.spec
            .topology()
            .all_sockets()
            .map(|s| {
                let busy = self.apps.values().any(|a| {
                    a.run_state == AppRunState::Running
                        && a.cores
                            .iter()
                            .any(|c| self.spec.topology().socket_of(*c) == s)
                });
                let state = if busy {
                    SocketPowerState::Active
                } else {
                    SocketPowerState::DeepSleep
                };
                (s, state)
            })
            .collect()
    }

    /// Whether any socket is awake (and thus `P_cm` is being paid).
    pub fn any_socket_active(&self) -> bool {
        self.socket_states()
            .iter()
            .any(|(_, st)| st.draws_uncore_power())
    }

    /// Computes one instant of power draw given each running app's
    /// demand, clamping memory traffic through the DRAM RAPL domains.
    ///
    /// Suspended apps draw nothing; a fully idle server draws `P_idle`.
    /// `dt` feeds the domain energy meters.
    ///
    /// Unknown names in `demands` are ignored (the app may have departed
    /// between sampling and accounting, event E3).
    pub fn power_draw(
        &mut self,
        demands: &BTreeMap<String, AppDemand>,
        dt: Seconds,
    ) -> PowerBreakdown {
        self.power_draw_with(demands, &BTreeMap::new(), dt)
    }

    /// [`Server::power_draw`] with per-app *effective-knob* overrides:
    /// an overridden app's core power is computed at the override's
    /// frequency and its memory traffic is served against the
    /// override's DRAM limit instead of the programmed one. This is
    /// the physics of knob non-compliance — the assignment (what a
    /// readback shows) stays untouched; only the drawn power moves.
    pub fn power_draw_with(
        &mut self,
        demands: &BTreeMap<String, AppDemand>,
        overrides: &BTreeMap<String, KnobSetting>,
        dt: Seconds,
    ) -> PowerBreakdown {
        let uncore = if self.any_socket_active() {
            self.spec.chip_maintenance_power()
        } else {
            Watts::ZERO
        };
        let mut apps = BTreeMap::new();
        let mut granted_bandwidth = BTreeMap::new();
        let names: Vec<String> = self.apps.keys().cloned().collect();
        for name in names {
            let (cores, knob, running, dimm) = {
                let a = &self.apps[&name];
                let dimm = a
                    .socket(&self.spec)
                    .map(|s| self.spec.topology().local_dimm(s));
                (
                    a.cores.len(),
                    a.knob,
                    a.run_state == AppRunState::Running,
                    dimm,
                )
            };
            if !running {
                apps.insert(name.clone(), Watts::ZERO);
                granted_bandwidth.insert(name, BytesPerSec::ZERO);
                continue;
            }
            let demand = demands.get(&name).copied().unwrap_or_default();
            let effective = overrides.get(&name).copied();
            let knob = effective.unwrap_or(knob);
            let freq = self.spec.ladder().frequency(knob.dvfs());
            let core_power = self
                .spec
                .core_power()
                .power_at_utilization(freq, demand.core_busy)
                * cores as f64;
            let (granted, dram_power) = match dimm {
                Some(DimmId(d)) => match effective {
                    Some(k) => {
                        self.dram[d].serve_at_limit(demand.mem_bandwidth, k.dram_limit(), dt)
                    }
                    None => self.dram[d].serve(demand.mem_bandwidth, dt),
                },
                None => (BytesPerSec::ZERO, Watts::ZERO),
            };
            apps.insert(name.clone(), core_power + dram_power);
            granted_bandwidth.insert(name, granted);
        }
        PowerBreakdown {
            idle: self.spec.idle_power(),
            uncore,
            apps,
            granted_bandwidth,
        }
    }

    fn apply_dram_limit(&mut self, cores: &[CoreId], limit: Watts) {
        if let Some(first) = cores.first() {
            let socket = self.spec.topology().socket_of(*first);
            let dimm = self.spec.topology().local_dimm(socket);
            self.dram[dimm.0].set_limit(limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dvfs::DvfsState;

    fn server() -> Server {
        Server::new(ServerSpec::xeon_e5_2620())
    }

    fn max_knob(s: &Server) -> KnobSetting {
        KnobSetting::max_for(s.spec())
    }

    #[test]
    fn hosting_and_removal() {
        let mut s = server();
        let knob = max_knob(&s);
        s.host_app("a", knob).unwrap();
        s.host_app("b", knob).unwrap();
        assert_eq!(s.app_count(), 2);
        assert_eq!(
            s.host_app("a", knob),
            Err(ServerError::DuplicateApp("a".into()))
        );
        s.remove_app("a").unwrap();
        assert_eq!(s.remove_app("a"), Err(ServerError::UnknownApp("a".into())));
        assert_eq!(s.app_names(), vec!["b".to_string()]);
    }

    #[test]
    fn apps_get_disjoint_socket_local_cores() {
        let mut s = server();
        let knob = max_knob(&s);
        s.host_app("a", knob).unwrap();
        s.host_app("b", knob).unwrap();
        let a = s.assignment("a").unwrap();
        let b = s.assignment("b").unwrap();
        assert_eq!(a.cores().len(), 6);
        assert_eq!(b.cores().len(), 6);
        assert_ne!(a.socket(s.spec()), b.socket(s.spec()));
        let mut all: Vec<CoreId> = a.cores().iter().chain(b.cores()).copied().collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 12, "core sets are disjoint");
    }

    #[test]
    fn set_knobs_grows_and_shrinks_cores() {
        let mut s = server();
        let knob = max_knob(&s);
        s.host_app("a", knob).unwrap();
        s.set_knobs("a", knob.with_cores(3)).unwrap();
        assert_eq!(s.assignment("a").unwrap().cores().len(), 3);
        s.set_knobs("a", knob.with_cores(5)).unwrap();
        assert_eq!(s.assignment("a").unwrap().cores().len(), 5);
        // Frequency change leaves cores in place.
        s.set_knobs("a", knob.with_cores(5).with_dvfs(DvfsState::new(0)))
            .unwrap();
        assert_eq!(s.assignment("a").unwrap().knob().dvfs(), DvfsState::new(0));
    }

    #[test]
    fn idle_server_draws_only_p_idle() {
        let mut s = server();
        let bd = s.power_draw(&BTreeMap::new(), Seconds::new(0.1));
        assert_eq!(bd.total(), Watts::new(50.0));
        assert_eq!(bd.uncore, Watts::ZERO);
    }

    #[test]
    fn one_running_app_pays_uncore_once() {
        let mut s = server();
        s.host_app("a", max_knob(&s)).unwrap();
        let mut demands = BTreeMap::new();
        demands.insert("a".to_string(), AppDemand::default());
        let bd = s.power_draw(&demands, Seconds::new(0.1));
        assert_eq!(bd.uncore, Watts::new(20.0));
        // 50 idle + 20 cm + ~20 dynamic ≈ 90 W (Sec. II-A).
        let total = bd.total().value();
        assert!((total - 90.0).abs() < 5.0, "total was {total}");
    }

    #[test]
    fn two_apps_amortize_uncore() {
        let mut s = server();
        s.host_app("a", max_knob(&s)).unwrap();
        s.host_app("b", max_knob(&s)).unwrap();
        let mut demands = BTreeMap::new();
        demands.insert("a".to_string(), AppDemand::default());
        demands.insert("b".to_string(), AppDemand::default());
        let bd = s.power_draw(&demands, Seconds::new(0.1));
        assert_eq!(bd.uncore, Watts::new(20.0), "P_cm paid once, not twice");
        let total = bd.total().value();
        // 50 + 20 + 20 + 20 ≈ 110 W (Sec. II-A).
        assert!((total - 110.0).abs() < 6.0, "total was {total}");
    }

    #[test]
    fn suspended_app_draws_nothing_and_sleeps_socket() {
        let mut s = server();
        s.host_app("a", max_knob(&s)).unwrap();
        s.suspend_app("a").unwrap();
        assert!(!s.any_socket_active());
        let mut demands = BTreeMap::new();
        demands.insert("a".to_string(), AppDemand::default());
        let bd = s.power_draw(&demands, Seconds::new(0.1));
        assert_eq!(bd.total(), Watts::new(50.0));
        s.resume_app("a").unwrap();
        assert!(s.any_socket_active());
    }

    #[test]
    fn dram_limit_clamps_granted_bandwidth() {
        let mut s = server();
        let knob = max_knob(&s).with_dram_limit(Watts::new(3.0));
        s.host_app("a", knob).unwrap();
        let mut demands = BTreeMap::new();
        demands.insert(
            "a".to_string(),
            AppDemand {
                core_busy: Ratio::new(0.5),
                mem_bandwidth: BytesPerSec::from_gib_per_sec(12.8),
            },
        );
        let bd = s.power_draw(&demands, Seconds::new(0.1));
        let granted = bd.granted_bandwidth["a"];
        assert!(granted < BytesPerSec::from_gib_per_sec(2.0));
    }

    #[test]
    fn unknown_demand_names_ignored() {
        let mut s = server();
        let mut demands = BTreeMap::new();
        demands.insert("ghost".to_string(), AppDemand::default());
        let bd = s.power_draw(&demands, Seconds::new(0.1));
        assert!(bd.apps.is_empty());
    }

    #[test]
    fn knob_validation_enforced_on_host() {
        let mut s = server();
        let bad = KnobSetting::new(DvfsState::new(0), 9, Watts::new(3.0));
        assert!(matches!(
            s.host_app("a", bad),
            Err(ServerError::CoreCountOutOfRange { .. })
        ));
    }
}
