//! The assembled server: topology + knobs + power domains + sleep states.
//!
//! [`Server`] is the actuation surface the policies drive. It plays the
//! role of the Linux enforcement layer of the paper (Sec. III-B):
//! `taskset` for core consolidation, `cpupower` for frequency, DRAM RAPL
//! for memory power, and task suspend/continue for temporal coordination —
//! plus the hardware's own package sleep behaviour.

use powermed_units::{BytesPerSec, Ratio, Seconds, Watts};

use crate::error::ServerError;
use crate::knobs::KnobSetting;
use crate::rapl::DramDomain;
use crate::sleep::SleepLatency;
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
    /// The core allocator's owner id, fixed at hosting and never reused
    /// (core placement depends on it). Unlike the app's position, it
    /// does not change when other apps come or go.
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
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PowerBreakdown {
    /// Always-on floor: fans, disks, LLC leakage, DRAM self-refresh.
    pub idle: Watts,
    /// Chip-maintenance power of awake sockets.
    pub uncore: Watts,
    /// Dynamic power attributed to each application (cores + DRAM
    /// traffic), by position (see [`Server::position`]).
    pub apps: Vec<Watts>,
}

impl PowerBreakdown {
    /// Total server draw (before any ESD contribution). The dynamic
    /// terms are summed in position order, which is name order.
    pub fn total(&self) -> Watts {
        self.idle + self.uncore + self.dynamic()
    }

    /// Total dynamic power across applications, summed in position
    /// order.
    pub fn dynamic(&self) -> Watts {
        self.apps.iter().copied().sum()
    }
}

/// A simulated shared server hosting several applications with disjoint
/// core sets, per-app `(f, n, m)` knobs, DRAM RAPL domains and socket
/// deep-sleep.
///
/// Each hosted application has a dense *position*: its index in name
/// order. Hosting or removing an app re-indexes the apps after it.
/// Per-app data on the step path ([`Server::power_draw_with`]'s demands,
/// overrides and breakdown) is carried in vectors indexed by position,
/// so iterating them visits apps in name order and every sum over apps
/// adds its terms in that order.
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
    /// Hosted application names, sorted; an app's index is its position.
    names: Vec<String>,
    /// Each hosted application's placement, at its position.
    apps: Vec<Assignment>,
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
            names: Vec::new(),
            apps: Vec::new(),
            dram,
            sleep_latency: SleepLatency::xeon_pc6(),
            next_slot: 0,
        }
    }

    /// The platform spec.
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// Names of currently hosted applications, in name order: the name
    /// at index `i` is the app at position `i`.
    pub fn app_names(&self) -> &[String] {
        &self.names
    }

    /// Number of hosted applications.
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The position of `name`: its index in name order among the hosted
    /// applications.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// Each hosted application's placement/knob state, by position.
    pub fn assignments(&self) -> &[Assignment] {
        &self.apps
    }

    /// The placement/knob state of `name`.
    pub fn assignment(&self, name: &str) -> Option<&Assignment> {
        self.position(name).map(|pos| &self.apps[pos])
    }

    /// The placement/knob state of `name`, or [`ServerError::UnknownApp`].
    fn assignment_mut(&mut self, name: &str) -> Result<&mut Assignment, ServerError> {
        match self.position(name) {
            Some(pos) => Ok(&mut self.apps[pos]),
            None => Err(ServerError::UnknownApp(name.to_string())),
        }
    }

    /// The sleep-transition latency model.
    pub fn sleep_latency(&self) -> &SleepLatency {
        &self.sleep_latency
    }

    /// Hosts a new application with the given initial knob setting and
    /// returns its position. Apps whose names sort after it move one
    /// position up.
    ///
    /// # Errors
    ///
    /// * [`ServerError::DuplicateApp`] if `name` is already hosted;
    /// * [`ServerError::CoreCountOutOfRange`] /
    ///   [`ServerError::DramPowerOutOfRange`] if the knob is invalid;
    /// * [`ServerError::InsufficientCores`] if the free cores cannot
    ///   satisfy the knob's `n`.
    pub fn host_app(&mut self, name: &str, knob: KnobSetting) -> Result<usize, ServerError> {
        let Err(pos) = self.names.binary_search_by(|n| n.as_str().cmp(name)) else {
            return Err(ServerError::DuplicateApp(name.to_string()));
        };
        let knob =
            KnobSetting::validated(&self.spec, knob.dvfs(), knob.cores(), knob.dram_limit())?;
        let slot = self.next_slot;
        let cores = self.allocator.allocate(slot, knob.cores())?;
        self.next_slot += 1;
        self.apply_dram_limit(&cores, knob.dram_limit());
        self.names.insert(pos, name.to_string());
        self.apps.insert(
            pos,
            Assignment {
                slot,
                cores,
                knob,
                run_state: AppRunState::Running,
            },
        );
        Ok(pos)
    }

    /// Removes an application, releasing its cores, and returns the
    /// position it held. Apps whose names sort after it move one
    /// position down.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::UnknownApp`] when `name` is not hosted.
    pub fn remove_app(&mut self, name: &str) -> Result<usize, ServerError> {
        let pos = self
            .position(name)
            .ok_or_else(|| ServerError::UnknownApp(name.to_string()))?;
        self.names.remove(pos);
        let assignment = self.apps.remove(pos);
        self.allocator.release(assignment.slot);
        Ok(pos)
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
        let slot = self.assignment_mut(name)?.slot;
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
        let assignment = self.assignment_mut(name).expect("checked above");
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
        self.assignment_mut(name)?.run_state = state;
        Ok(())
    }

    /// Whether any socket is awake (and thus `P_cm` is being paid). A
    /// socket deep-sleeps (PC6) when it hosts no *running* application
    /// cores, so some socket is awake exactly when a running app owns a
    /// core.
    pub fn any_socket_active(&self) -> bool {
        self.apps
            .iter()
            .any(|a| a.run_state == AppRunState::Running && !a.cores.is_empty())
    }

    /// Computes one instant of power draw into `out`, given each running
    /// app's demand, clamping memory traffic through the DRAM RAPL
    /// domains. `out.apps` is refilled by position and keeps its
    /// capacity, so a caller that reuses `out` allocates nothing once it
    /// has held every hosted app.
    ///
    /// `demands` and `overrides` are indexed by position. An app past the
    /// end of `demands` runs at [`AppDemand::default`]; one past the end
    /// of `overrides` (an empty slice overrides nothing), or with `None`
    /// there, runs at its programmed knob. `Some(knob)` is an
    /// *effective-knob* override: the app's core power is computed at
    /// the override's frequency and its memory traffic is served against
    /// the override's DRAM limit instead of the programmed one. This is
    /// the physics of knob non-compliance — the assignment (what a
    /// readback shows) stays untouched; only the drawn power moves.
    ///
    /// Suspended apps draw nothing; a fully idle server draws `P_idle`.
    /// `dt` feeds the domain energy meters.
    pub fn power_draw_with(
        &mut self,
        demands: &[AppDemand],
        overrides: &[Option<KnobSetting>],
        dt: Seconds,
        out: &mut PowerBreakdown,
    ) {
        out.idle = self.spec.idle_power();
        out.uncore = if self.any_socket_active() {
            self.spec.chip_maintenance_power()
        } else {
            Watts::ZERO
        };
        out.apps.clear();
        for (pos, a) in self.apps.iter().enumerate() {
            if a.run_state != AppRunState::Running {
                out.apps.push(Watts::ZERO);
                continue;
            }
            let demand = demands.get(pos).copied().unwrap_or_default();
            let effective = overrides.get(pos).copied().flatten();
            let knob = effective.unwrap_or(a.knob);
            let freq = self.spec.ladder().frequency(knob.dvfs());
            let core_power = self
                .spec
                .core_power()
                .power_at_utilization(freq, demand.core_busy)
                * a.cores.len() as f64;
            let dimm = a
                .socket(&self.spec)
                .map(|s| self.spec.topology().local_dimm(s));
            let dram_power = match dimm {
                Some(DimmId(d)) => match effective {
                    Some(k) => {
                        self.dram[d]
                            .serve_at_limit(demand.mem_bandwidth, k.dram_limit(), dt)
                            .1
                    }
                    None => self.dram[d].serve(demand.mem_bandwidth, dt).1,
                },
                None => Watts::ZERO,
            };
            out.apps.push(core_power + dram_power);
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
    use std::collections::BTreeMap;

    fn server() -> Server {
        Server::new(ServerSpec::xeon_e5_2620())
    }

    fn max_knob(s: &Server) -> KnobSetting {
        KnobSetting::max_for(s.spec())
    }

    /// One 0.1 s draw at per-position `demands`, without overrides.
    fn draw_at(s: &mut Server, demands: &[AppDemand]) -> PowerBreakdown {
        let mut bd = PowerBreakdown::default();
        s.power_draw_with(demands, &[], Seconds::new(0.1), &mut bd);
        bd
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
    fn hosting_a_name_that_sorts_first_reindexes_positions() {
        let mut s = server();
        let knob = max_knob(&s).with_cores(2);
        assert_eq!(s.host_app("m", knob), Ok(0));
        assert_eq!(s.host_app("x", knob), Ok(1));
        assert_eq!(s.host_app("c", knob.with_cores(3)), Ok(0), "sorts first");
        assert_eq!(s.app_names(), ["c", "m", "x"]);
        assert_eq!(
            ["c", "m", "x"].map(|n| s.position(n)),
            [Some(0), Some(1), Some(2)]
        );
        // Positions index the breakdown: "c" draws at position 0 with its
        // own three cores.
        let busy = |b: f64| AppDemand {
            core_busy: Ratio::new(b),
            mem_bandwidth: BytesPerSec::from_gib_per_sec(1.0),
        };
        // Busy fractions whose three powers add up differently in
        // another order, so the sum order shows in the bits.
        let demands = [busy(0.01), busy(0.5), busy(0.55)];
        let mut reference = s.clone();
        let bd = draw_at(&mut s, &demands);
        let by_name: BTreeMap<String, AppDemand> = ["c", "m", "x"]
            .iter()
            .map(|n| n.to_string())
            .zip(demands)
            .collect();
        let want = power_draw_with_reference(
            &mut reference,
            &by_name,
            &BTreeMap::new(),
            Seconds::new(0.1),
        );
        assert_eq!(bd.apps, want.apps.values().copied().collect::<Vec<_>>());
        // The sum runs in name order: ((c + m) + x), not in hosting order.
        let [c, m, x] = [bd.apps[0], bd.apps[1], bd.apps[2]];
        let in_name_order = (Watts::ZERO + c + m + x).value().to_bits();
        assert_ne!(in_name_order, (Watts::ZERO + x + m + c).value().to_bits());
        assert_eq!(bd.dynamic().value().to_bits(), in_name_order);
        assert_eq!(bd.total().value().to_bits(), want.total().value().to_bits());
        // Removing the first app moves the others down.
        assert_eq!(s.remove_app("c"), Ok(0));
        assert_eq!([s.position("m"), s.position("x")], [Some(0), Some(1)]);
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
        let bd = draw_at(&mut s, &[]);
        assert_eq!(bd.total(), Watts::new(50.0));
        assert_eq!(bd.uncore, Watts::ZERO);
    }

    #[test]
    fn one_running_app_pays_uncore_once() {
        let mut s = server();
        s.host_app("a", max_knob(&s)).unwrap();
        let bd = draw_at(&mut s, &[AppDemand::default()]);
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
        let bd = draw_at(&mut s, &[AppDemand::default(); 2]);
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
        let bd = draw_at(&mut s, &[AppDemand::default()]);
        assert_eq!(bd.total(), Watts::new(50.0));
        s.resume_app("a").unwrap();
        assert!(s.any_socket_active());
    }

    #[test]
    fn dram_limit_clamps_granted_bandwidth() {
        let spec = ServerSpec::xeon_e5_2620();
        let knob = KnobSetting::max_for(&spec);
        let demand = AppDemand {
            core_busy: Ratio::new(0.5),
            mem_bandwidth: BytesPerSec::from_gib_per_sec(12.8),
        };
        let app_power = |limit: Watts| {
            let mut s = server();
            s.host_app("a", knob.with_dram_limit(limit)).unwrap();
            draw_at(&mut s, &[demand]).apps[0]
        };
        let core = spec
            .core_power()
            .power_at_utilization(knob.frequency(&spec), demand.core_busy)
            * knob.cores() as f64;
        // Under a 3 W limit the DIMM grants less than 2 GiB/s of the
        // 12.8 asked for, and the app draws its cores plus exactly what
        // the granted bandwidth costs.
        let dram = spec.dram_power();
        let granted = dram.bandwidth_at_limit(Watts::new(3.0));
        assert!(granted < BytesPerSec::from_gib_per_sec(2.0));
        let clamped = app_power(Watts::new(3.0));
        assert_eq!(clamped, core + dram.power_at_bandwidth(granted));
        assert!(clamped <= core + Watts::new(3.0) + Watts::new(1e-9));
        // Unclamped, the same demand costs the DIMM far more.
        assert!(app_power(dram.peak_power()) > clamped + Watts::new(1.0));
    }

    #[test]
    fn unknown_demand_names_ignored() {
        // Demands past the hosted apps' positions are ignored.
        let mut s = server();
        let bd = draw_at(&mut s, &[AppDemand::default()]);
        assert!(bd.apps.is_empty());
    }

    /// The name-keyed draw the per-app step used to return: dynamic
    /// power keyed by application name.
    #[derive(Debug)]
    pub(crate) struct ReferenceBreakdown {
        pub(crate) idle: Watts,
        pub(crate) uncore: Watts,
        pub(crate) apps: BTreeMap<String, Watts>,
    }

    impl ReferenceBreakdown {
        /// `P_idle + P_cm + Σ P_X`, summed in name order.
        pub(crate) fn total(&self) -> Watts {
            self.idle + self.uncore + self.apps.values().copied().sum::<Watts>()
        }
    }

    /// The name-keyed [`Server::power_draw_with`] the positional one
    /// replaced: it clones every name, re-derives each socket's state
    /// per call, and keys demands and overrides by name.
    pub(crate) fn power_draw_with_reference(
        s: &mut Server,
        demands: &BTreeMap<String, AppDemand>,
        overrides: &BTreeMap<String, KnobSetting>,
        dt: Seconds,
    ) -> ReferenceBreakdown {
        let names: Vec<String> = s.app_names().to_vec();
        let any_socket_active = s.spec.topology().all_sockets().any(|socket| {
            names.iter().any(|name| {
                let a = s.assignment(name).expect("hosted");
                a.run_state() == AppRunState::Running
                    && a.cores()
                        .iter()
                        .any(|c| s.spec.topology().socket_of(*c) == socket)
            })
        });
        let uncore = if any_socket_active {
            s.spec.chip_maintenance_power()
        } else {
            Watts::ZERO
        };
        let mut apps = BTreeMap::new();
        for name in names {
            let (cores, knob, running, dimm) = {
                let a = s.assignment(&name).expect("hosted");
                let dimm = a.socket(&s.spec).map(|x| s.spec.topology().local_dimm(x));
                (
                    a.cores().len(),
                    a.knob(),
                    a.run_state() == AppRunState::Running,
                    dimm,
                )
            };
            if !running {
                apps.insert(name, Watts::ZERO);
                continue;
            }
            let demand = demands.get(&name).copied().unwrap_or_default();
            let effective = overrides.get(&name).copied();
            let knob = effective.unwrap_or(knob);
            let freq = s.spec.ladder().frequency(knob.dvfs());
            let core_power = s
                .spec
                .core_power()
                .power_at_utilization(freq, demand.core_busy)
                * cores as f64;
            let (_, dram_power) = match dimm {
                Some(DimmId(d)) => match effective {
                    Some(k) => s.dram[d].serve_at_limit(demand.mem_bandwidth, k.dram_limit(), dt),
                    None => s.dram[d].serve(demand.mem_bandwidth, dt),
                },
                None => (BytesPerSec::ZERO, Watts::ZERO),
            };
            apps.insert(name, core_power + dram_power);
        }
        ReferenceBreakdown {
            idle: s.spec.idle_power(),
            uncore,
            apps,
        }
    }

    /// The server's draw under name-keyed demands and overrides, as a
    /// [`ReferenceBreakdown`], with its total.
    fn draw(
        s: &mut Server,
        demands: &BTreeMap<String, AppDemand>,
        overrides: &BTreeMap<String, KnobSetting>,
        dt: Seconds,
    ) -> (ReferenceBreakdown, Watts) {
        let names = s.app_names().to_vec();
        let by_position: Vec<AppDemand> = names
            .iter()
            .map(|n| demands.get(n).copied().unwrap_or_default())
            .collect();
        let overridden: Vec<Option<KnobSetting>> =
            names.iter().map(|n| overrides.get(n).copied()).collect();
        let mut bd = PowerBreakdown::default();
        s.power_draw_with(&by_position, &overridden, dt, &mut bd);
        let breakdown = ReferenceBreakdown {
            idle: bd.idle,
            uncore: bd.uncore,
            apps: names.into_iter().zip(bd.apps.iter().copied()).collect(),
        };
        (breakdown, bd.total())
    }

    mod matches_reference {
        use super::*;
        use powermed_units::rng::SplitMix;
        use proptest::prelude::*;

        /// Names chosen so that hosting order and name order differ.
        const POOL: [&str; 5] = ["mcf", "bwaves", "xz", "lbm", "gcc"];

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// Over random host, remove, suspend, resume and knob
            /// sequences, with random demands and effective-knob
            /// overrides, the draw equals the name-keyed reference bit
            /// for bit: every app's power, the idle and uncore terms, the
            /// total, and every DRAM domain's meter afterwards.
            #[test]
            fn prop_power_draw_matches_the_reference(
                ops in proptest::collection::vec((0u8..6, 0usize..5, 0usize..432, 0u64..u64::MAX), 1..48),
            ) {
                let mut s = server();
                let grid = s.spec().knob_grid();
                let dt = Seconds::new(0.1);
                for (kind, which, idx, seed) in ops {
                    let name = POOL[which];
                    let knob = grid.get(idx).expect("on the grid");
                    let _ = match kind {
                        0 => s.host_app(name, knob.with_cores(1 + idx % 3)).map(drop),
                        1 => s.remove_app(name).map(drop),
                        2 => s.suspend_app(name),
                        3 => s.resume_app(name),
                        4 => s.set_knobs(name, knob),
                        _ => Ok(()),
                    };
                    let mut rng = SplitMix::new(seed);
                    let mut demands = BTreeMap::new();
                    let mut overrides = BTreeMap::new();
                    for name in POOL {
                        // Some apps get no demand (the default), some a
                        // demand though not hosted.
                        if rng.below(4) > 0 {
                            demands.insert(name.to_string(), AppDemand {
                                core_busy: Ratio::new(rng.next_f64()),
                                mem_bandwidth: BytesPerSec::from_gib_per_sec(rng.uniform(0.0, 14.0)),
                            });
                        }
                        if rng.below(3) == 0 {
                            let k = grid.get(rng.below(grid.len() as u64) as usize).expect("on the grid");
                            overrides.insert(name.to_string(), k);
                        }
                    }
                    let mut reference = s.clone();
                    let (got, total) = draw(&mut s, &demands, &overrides, dt);
                    let want = power_draw_with_reference(&mut reference, &demands, &overrides, dt);
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    prop_assert_eq!(total.value().to_bits(), want.total().value().to_bits());
                    prop_assert_eq!(&s, &reference);
                }
            }
        }
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
