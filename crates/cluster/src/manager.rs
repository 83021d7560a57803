//! The cluster manager and the three evaluated cluster policies.

use powermed_server::{KnobSetting, ServerSpec};
use powermed_units::{Joules, Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};
use powermed_workloads::profile::AppProfile;
use serde::{Deserialize, Serialize};

use crate::control::{self, ControlOptions, ManagedPolicy};
use crate::trace::ClusterPowerTrace;

/// Granularity of every per-server cap ladder and of the cluster DP.
const CAP_STEP: f64 = 5.0;

/// The caps from `floor` through `ceiling` in [`CAP_STEP`] steps.
fn ladder(floor: Watts, ceiling: Watts) -> impl Iterator<Item = Watts> {
    let levels = ((ceiling - floor).value() / CAP_STEP).max(0.0) as usize;
    (0..=levels).map(move |i| Watts::new(floor.value() + CAP_STEP * i as f64))
}

/// Nominal draw of one fully loaded server, used by the consolidation
/// baseline to decide how many servers the budget powers.
const SERVER_LOADED_W: f64 = 105.0;

/// Cluster-level power management strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ClusterPolicy {
    /// Even split; servers enforce with utility-unaware RAPL capping.
    EqualRapl,
    /// Even split; servers run `App+Res+ESD-Aware` mediation.
    EqualOurs,
    /// Power only as many servers as the budget allows, migrate
    /// applications to them, cap nothing.
    ConsolidationMigration,
    /// Extension beyond the paper (its future work (i)): the cluster
    /// manager apportions the cluster cap *unevenly* across servers by
    /// each server's own utility curve — the same marginal-utility
    /// reasoning the paper applies within a server, lifted one level up
    /// the power hierarchy. Servers still run `App+Res+ESD-Aware`.
    UnequalOurs,
}

impl ClusterPolicy {
    /// Display name as used in Fig. 12b.
    pub fn name(self) -> &'static str {
        match self {
            Self::EqualRapl => "Equal(RAPL)",
            Self::EqualOurs => "Equal(Ours)",
            Self::ConsolidationMigration => "Consolidation+Migration(no cap)",
            Self::UnequalOurs => "Unequal(Ours)",
        }
    }
}

impl core::fmt::Display for ClusterPolicy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// The strategy evaluated.
    pub policy: ClusterPolicy,
    /// Mean over all applications of throughput normalized to uncapped
    /// execution (the Fig. 12b y-axis).
    pub aggregate_normalized_perf: f64,
    /// Total cluster energy drawn over the run.
    pub energy: Joules,
    /// Performance per kilojoule (the power-efficiency metric behind
    /// the paper's 4%/12% efficiency claims).
    pub perf_per_kilojoule: f64,
    /// Per-application normalized performance.
    pub per_app_perf: Vec<f64>,
}

impl ClusterReport {
    /// Builds a report from per-application normalized throughputs and
    /// the total energy drawn.
    pub fn from_parts(policy: ClusterPolicy, per_app_perf: Vec<f64>, energy: Joules) -> Self {
        let aggregate = if per_app_perf.is_empty() {
            0.0
        } else {
            per_app_perf.iter().sum::<f64>() / per_app_perf.len() as f64
        };
        let kj = (energy.value() / 1000.0).max(1e-9);
        ClusterReport {
            policy,
            aggregate_normalized_perf: aggregate,
            energy,
            perf_per_kilojoule: aggregate / kj,
            per_app_perf,
        }
    }
}

/// Drives a fixed fleet of shared servers through a cap schedule.
#[derive(Debug, Clone)]
pub struct ClusterManager {
    servers: usize,
    seed: u64,
}

impl ClusterManager {
    /// A cluster of `servers` servers (the paper uses 10); `seed` keeps
    /// any tie-breaking deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `servers` is zero.
    pub fn new(servers: usize, seed: u64) -> Self {
        assert!(servers > 0, "cluster needs at least one server");
        Self { servers, seed }
    }

    /// The workload: server `i` hosts Table II mix `(i mod 15) + 1`.
    pub fn workload(&self) -> Vec<Mix> {
        (0..self.servers)
            .map(|i| mixes::mix((i % 15) + 1).expect("mix exists"))
            .collect()
    }

    /// Runs `policy` over the cap schedule `trace` with control step
    /// `dt`, returning the aggregate report. The capping policies run
    /// through the manager ↔ agent control plane with every fault
    /// channel off; `Unequal(Ours)` splits the cluster cap by an exact
    /// DP over per-server value curves whenever the trace changes.
    pub fn run(
        &self,
        policy: ClusterPolicy,
        trace: &ClusterPowerTrace,
        dt: Seconds,
    ) -> ClusterReport {
        let managed = match policy {
            ClusterPolicy::EqualRapl => ManagedPolicy::equal_rapl(),
            ClusterPolicy::EqualOurs => ManagedPolicy::equal_ours(),
            ClusterPolicy::UnequalOurs => ManagedPolicy::unequal_ours(),
            ClusterPolicy::ConsolidationMigration => return self.run_consolidation(trace, dt),
        };
        let options = ControlOptions::perfect(self.seed);
        self.run_with_control(managed, trace, dt, &options).report
    }

    /// Runs `policy` through the control plane under an explicit fault
    /// and resilience configuration, returning the full resilience
    /// report (violation-seconds, fault counters, telemetry series).
    pub fn run_with_control(
        &self,
        policy: ManagedPolicy,
        trace: &ClusterPowerTrace,
        dt: Seconds,
        options: &ControlOptions,
    ) -> crate::control::ResilienceReport {
        control::run_cluster(&self.workload(), policy, trace, dt, options)
    }

    /// [`ClusterManager::run_with_control`] with the fleet flight
    /// recorder on: every server journals locally and ships digests
    /// upstream, and the returned report carries the manager's merged
    /// [`powermed_telemetry::FleetTimeline`] in
    /// [`crate::control::ResilienceReport::fleet`].
    pub fn run_flight_recorded(
        &self,
        policy: ManagedPolicy,
        trace: &ClusterPowerTrace,
        dt: Seconds,
        options: &ControlOptions,
        fleet: &control::FleetObsOptions,
    ) -> crate::control::ResilienceReport {
        control::run_cluster_flight_recorded(&self.workload(), policy, trace, dt, options, fleet)
    }

    /// Candidate per-server caps: the Xeon's parked floor (50 W) through
    /// 115 W in 5 W steps — the ladder for the paper's homogeneous fleet,
    /// one rung short of the Xeon's [`Self::candidate_caps_for`].
    pub fn candidate_caps() -> impl Iterator<Item = Watts> {
        ladder(
            Self::cap_floor_for(&ServerSpec::xeon_e5_2620()),
            Watts::new(115.0),
        )
    }

    /// Candidate caps for an arbitrary SKU: from its parked floor
    /// ([`Self::cap_floor_for`]) through its rated power (rounded down
    /// to the 5 W grid) in 5 W steps. An edge SKU gets a short cheap
    /// ladder, a throughput SKU a long expensive one.
    pub fn candidate_caps_for(spec: &ServerSpec) -> Vec<Watts> {
        let ceiling = (spec.rated_power().value() / CAP_STEP).floor() * CAP_STEP;
        ladder(Self::cap_floor_for(spec), Watts::new(ceiling)).collect()
    }

    /// The parked floor of a SKU: its idle power rounded up to the 5 W
    /// grid (50 W for the Xeon).
    pub fn cap_floor_for(spec: &ServerSpec) -> Watts {
        Watts::new((spec.idle_power().value() / CAP_STEP).ceil() * CAP_STEP)
    }

    /// Exact DP split of `total` across servers, maximizing the sum of
    /// per-server values on 5 W granularity. Every server receives at
    /// least the Xeon's parked floor — when `total` cannot even cover
    /// the fleet's aggregate idle power, the returned floors
    /// intentionally sum above `total` (such a cap is physically
    /// unenforceable by power management, mirroring the per-server floor
    /// semantics).
    pub fn apportion_cluster(curves: &[Vec<(Watts, f64)>], total: Watts) -> Vec<Watts> {
        let floors = vec![Self::cap_floor_for(&ServerSpec::xeon_e5_2620()); curves.len()];
        Self::apportion_cluster_with_floors(curves, total, &floors)
    }

    /// SKU-aware apportionment: like [`Self::apportion_cluster`], but
    /// server `i` falls back to its own `floors[i]` (its parked idle
    /// power) instead of the Xeon's when the budget cannot
    /// cover the fleet. Pair it with per-SKU value curves from
    /// [`Self::candidate_caps_for`].
    ///
    /// A one-shot `ApportionTable`: built up to `total`'s level (or
    /// the saturation level, if lower), then split once.
    ///
    /// # Panics
    ///
    /// Panics unless `floors` and `curves` have equal length, or if a
    /// curve has 255 or more caps.
    pub fn apportion_cluster_with_floors(
        curves: &[Vec<(Watts, f64)>],
        total: Watts,
        floors: &[Watts],
    ) -> Vec<Watts> {
        ApportionTable::build(curves, floors, budget_level(total)).split(curves, total)
    }

    /// The consolidation baseline, evaluated analytically: at each trace
    /// sample the budget powers `k = ⌊cap / 105 W⌋` servers (the rest are
    /// switched off entirely); applications migrate to the powered
    /// servers — two per server at full resources (the interference-aware
    /// placement the paper describes: the mixes are two-app
    /// co-locations), with an occasional third at reduced core count
    /// when substantial budget is left over; migration itself is assumed
    /// free (the paper notes this may not be feasible with large state).
    fn run_consolidation(&self, trace: &ClusterPowerTrace, dt: Seconds) -> ClusterReport {
        let spec = ServerSpec::xeon_e5_2620();
        let duration = trace.duration();
        let mixes = self.workload();
        let apps: Vec<AppProfile> = mixes
            .iter()
            .flat_map(|m| [m.app1.clone(), m.app2.clone()])
            .collect();
        let _ = self.seed; // placement is deterministic: apps in order
        let nocap: Vec<f64> = apps.iter().map(|p| p.uncapped(&spec).throughput).collect();
        // Normalized rate of an app demoted to 4 cores (third app on a
        // powered server).
        let reduced: Vec<f64> = apps
            .iter()
            .map(|p| {
                let knob = KnobSetting::max_for(&spec).with_cores(4.min(spec.max_app_cores()));
                p.evaluate(&spec, knob).throughput
            })
            .collect();

        let steps = (duration.value() / dt.value()).ceil() as u64;
        let simulated = Seconds::new(steps as f64 * dt.value());
        let mut ops = vec![0.0f64; apps.len()];
        let mut energy = Joules::ZERO;
        let mut now = Seconds::ZERO;
        for _ in 0..steps {
            let cap = trace.at(now);
            let k = ((cap.value() / SERVER_LOADED_W).floor() as usize).min(self.servers);
            // Interference-aware placement: two full-resource apps per
            // powered server (packing a third would contend for cores
            // and the local DIMM). A third app at reduced cores is only
            // admitted when the budget covers a further half server.
            let full_slots = 2 * k;
            let leftover = (cap.value() - k as f64 * SERVER_LOADED_W).max(0.0);
            let reduced_slots = ((leftover / 52.0).floor() as usize).min(k);
            for (i, _) in apps.iter().enumerate() {
                if i < full_slots {
                    ops[i] += nocap[i] * dt.value();
                } else if i < full_slots + reduced_slots {
                    ops[i] += reduced[i] * dt.value();
                }
            }
            let loaded = ((apps.len().min(full_slots + reduced_slots)) as f64 / 3.0).ceil();
            energy += Watts::new(SERVER_LOADED_W) * Seconds::new(dt.value()) * loaded.min(k as f64);
            now += dt;
        }

        let per_app_perf: Vec<f64> = ops
            .iter()
            .zip(&nocap)
            .map(|(o, r)| o / (r * simulated.value()))
            .collect();
        ClusterReport::from_parts(ClusterPolicy::ConsolidationMigration, per_app_perf, energy)
    }
}

/// The budget level of `total`: whole [`CAP_STEP`]s, clamped at zero.
fn budget_level(total: Watts) -> usize {
    (total.value() / CAP_STEP).floor().max(0.0) as usize
}

/// How many [`CAP_STEP`]s a cap consumes in the cluster DP.
fn cap_need(cap: Watts) -> usize {
    (cap.value() / CAP_STEP).ceil() as usize
}

/// A `keep` cell no cap combination reaches (its value is -inf).
const NO_CHOICE: u8 = u8::MAX;

/// The cluster DP over fixed value curves, built once and split at any
/// budget.
///
/// Layer `i` holds, for every budget level `b` (in [`CAP_STEP`]s), the
/// best total value of servers `0..=i` whose caps need at most `b`
/// levels, and the ladder index server `i` takes there (the first index
/// to reach the maximum wins ties).
///
/// **Why one table serves every budget exactly.** Cell `b` of layer `i`
/// reads only cells `≤ b` of layer `i − 1`, so a table built to a larger
/// level holds bit-identical values, choices and tie-breaks at every
/// smaller level, and so the same floor fallback. Past the *saturation
/// level* `S = Σ_i max_need_i` nothing changes either: by induction,
/// every cell `b ≥ S_i = Σ_{j≤i} max_need_j` of layer `i` is the same,
/// because each cap of server `i` fits and each cell it reads,
/// `b − need ≥ S_{i−1}`, is one of the equal cells of layer `i − 1`.
/// The backtrack from any `b ≥ S` therefore takes the same caps as from
/// `S`, and [`Self::split`] clamps larger budgets to `S` without knowing
/// which budgets will come.
#[derive(Debug)]
pub(crate) struct ApportionTable {
    /// Per-server fallback caps when the budget cannot cover the fleet.
    floors: Vec<Watts>,
    /// The highest budget level the table holds.
    levels: usize,
    /// Whether `levels` is the saturation level, past which every
    /// budget splits as it does there.
    saturated: bool,
    /// The last layer's best values, one per level `0..=levels`.
    best: Vec<f64>,
    /// Server `i`'s ladder index at level `b`, at `i * (levels + 1) + b`
    /// ([`NO_CHOICE`] where the cell is unreachable).
    keep: Vec<u8>,
}

impl ApportionTable {
    /// Runs the DP over `curves` up to budget level `levels`, or up to
    /// the saturation level if that is lower. `floors` are the caps
    /// [`Self::split`] falls back to.
    ///
    /// # Panics
    ///
    /// Panics unless `floors` and `curves` have equal length, or if a
    /// curve has 255 or more caps.
    pub(crate) fn build(
        curves: &[impl AsRef<[(Watts, f64)]>],
        floors: &[Watts],
        levels: usize,
    ) -> Self {
        assert_eq!(curves.len(), floors.len(), "one floor per server");
        let needs: Vec<Vec<usize>> = curves
            .iter()
            .map(|curve| {
                let curve = curve.as_ref();
                assert!(curve.len() < usize::from(NO_CHOICE), "cap ladder fits a u8");
                curve.iter().map(|(cap, _)| cap_need(*cap)).collect()
            })
            .collect();
        let saturation = needs
            .iter()
            .map(|n| n.iter().copied().max().unwrap_or(0))
            .fold(0usize, usize::saturating_add);
        let saturated = levels >= saturation;
        let levels = levels.min(saturation);
        let mut best = vec![0.0f64; levels + 1];
        let mut keep = vec![NO_CHOICE; curves.len() * (levels + 1)];
        for ((curve, needs), choice) in curves.iter().zip(&needs).zip(keep.chunks_mut(levels + 1)) {
            let mut next = vec![f64::NEG_INFINITY; levels + 1];
            for b in 0..=levels {
                for (ci, ((_, value), &need)) in curve.as_ref().iter().zip(needs).enumerate() {
                    if need <= b && best[b - need].is_finite() {
                        let v = best[b - need] + value;
                        if v > next[b] {
                            next[b] = v;
                            choice[b] = ci as u8;
                        }
                    }
                }
            }
            best = next;
        }
        Self {
            floors: floors.to_vec(),
            levels,
            saturated,
            best,
            keep,
        }
    }

    /// The caps that maximize the summed value within `total`: the
    /// backtrack through the table at `total`'s level. Every server gets
    /// its floor when even the floors do not fit. `curves` must be the
    /// curves the table was built from.
    ///
    /// # Panics
    ///
    /// Panics if `curves` has a different length from the table, or if
    /// `total` lies past a table that was built short of saturation.
    pub(crate) fn split(&self, curves: &[impl AsRef<[(Watts, f64)]>], total: Watts) -> Vec<Watts> {
        assert_eq!(curves.len(), self.floors.len(), "the table's curves");
        let wanted = budget_level(total);
        assert!(
            wanted <= self.levels || self.saturated,
            "budget level {wanted} past a table built to {}",
            self.levels
        );
        let levels = wanted.min(self.levels);
        // When even the per-server floors cannot fit (best is -inf at
        // the root), fall back to the floor for everyone.
        if !self.best[levels].is_finite() {
            return self.floors.clone();
        }
        let mut caps = self.floors.clone();
        let mut b = levels;
        for i in (0..curves.len()).rev() {
            let ci = self.keep[i * (self.levels + 1) + b];
            if ci == NO_CHOICE {
                // A finite root guarantees a recorded choice at every
                // backtrack cell; guard anyway (NaN curve values can
                // break the invariant) and keep the floor fallback.
                return self.floors.clone();
            }
            caps[i] = curves[i].as_ref()[usize::from(ci)].0;
            let Some(rest) = b.checked_sub(cap_need(caps[i])) else {
                return self.floors.clone();
            };
            b = rest;
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_units::Ratio;

    fn short_trace(servers: usize, shave: f64) -> ClusterPowerTrace {
        ClusterPowerTrace::synthetic_diurnal(servers, Seconds::new(60.0), 3)
            .peak_shaved(Ratio::new(shave))
            .clamped_below(Watts::new(78.0 * servers as f64))
    }

    #[test]
    fn workload_assignment_cycles_table2() {
        let mgr = ClusterManager::new(17, 0);
        let w = mgr.workload();
        assert_eq!(w.len(), 17);
        assert_eq!(w[0].id.0, 1);
        assert_eq!(w[15].id.0, 1, "wraps after 15 mixes");
    }

    #[test]
    fn consolidation_perf_scales_with_cap() {
        let mgr = ClusterManager::new(4, 0);
        let mild = mgr.run(
            ClusterPolicy::ConsolidationMigration,
            &short_trace(4, 0.15),
            Seconds::new(0.5),
        );
        let harsh = mgr.run(
            ClusterPolicy::ConsolidationMigration,
            &short_trace(4, 0.45),
            Seconds::new(0.5),
        );
        assert!(mild.aggregate_normalized_perf > harsh.aggregate_normalized_perf);
        assert!(mild.aggregate_normalized_perf <= 1.0 + 1e-9);
        assert!(harsh.aggregate_normalized_perf > 0.2);
    }

    #[test]
    fn equal_rapl_runs_and_reports() {
        let mgr = ClusterManager::new(2, 0);
        let r = mgr.run(
            ClusterPolicy::EqualRapl,
            &short_trace(2, 0.15),
            Seconds::new(0.5),
        );
        assert!(r.aggregate_normalized_perf > 0.2, "{r:?}");
        assert!(r.energy.value() > 0.0);
        assert_eq!(r.per_app_perf.len(), 4);
    }

    #[test]
    fn ours_beats_rapl_under_stringent_shaving() {
        let mgr = ClusterManager::new(2, 0);
        let trace = short_trace(2, 0.45);
        let rapl = mgr.run(ClusterPolicy::EqualRapl, &trace, Seconds::new(0.5));
        let ours = mgr.run(ClusterPolicy::EqualOurs, &trace, Seconds::new(0.5));
        assert!(
            ours.aggregate_normalized_perf > rapl.aggregate_normalized_perf,
            "ours {} vs rapl {}",
            ours.aggregate_normalized_perf,
            rapl.aggregate_normalized_perf
        );
    }

    #[test]
    fn unequal_apportionment_beats_equal_under_stringency() {
        let mgr = ClusterManager::new(2, 0);
        let trace = short_trace(2, 0.45);
        let equal = mgr.run(ClusterPolicy::EqualOurs, &trace, Seconds::new(0.5));
        let unequal = mgr.run(ClusterPolicy::UnequalOurs, &trace, Seconds::new(0.5));
        assert!(
            unequal.aggregate_normalized_perf >= equal.aggregate_normalized_perf - 0.02,
            "unequal {:.3} vs equal {:.3}",
            unequal.aggregate_normalized_perf,
            equal.aggregate_normalized_perf
        );
    }

    #[test]
    fn cluster_dp_respects_the_total() {
        // Synthetic curves: server 0 is twice as valuable per watt.
        let curve = |scale: f64| -> Vec<(Watts, f64)> {
            ClusterManager::candidate_caps()
                .map(|c| (c, scale * (c.value() - 50.0)))
                .collect()
        };
        let curves = vec![curve(2.0), curve(1.0)];
        let caps = ClusterManager::apportion_cluster(&curves, Watts::new(170.0));
        let total: f64 = caps.iter().map(|c| c.value()).sum();
        assert!(total <= 170.0 + 1e-9);
        // The more valuable server gets the larger share.
        assert!(caps[0] >= caps[1], "{caps:?}");
        assert_eq!(caps[0], Watts::new(115.0));
    }

    #[test]
    fn cluster_dp_minimal_budget_backtracks_without_underflow() {
        // Near-floor budgets: intermediate DP cells are unreachable
        // (-inf) and the backtrack used to read a bogus choice index 0
        // there, underflowing `b`. Two servers need 100 W of floors.
        let curve: Vec<(Watts, f64)> = ClusterManager::candidate_caps()
            .map(|c| (c, c.value() - 50.0))
            .collect();
        let curves = vec![curve.clone(), curve.clone()];
        for total in [100.0, 100.1, 104.9, 105.0, 109.9] {
            let caps = ClusterManager::apportion_cluster(&curves, Watts::new(total));
            let sum: f64 = caps.iter().map(|c| c.value()).sum();
            assert!(sum <= total + 1e-9, "total {total}: {caps:?}");
            assert!(
                caps.iter().all(|c| *c >= Watts::new(50.0)),
                "total {total}: {caps:?}"
            );
        }
        // Exactly one 5 W increment above the floors: someone gets 55 W.
        let caps = ClusterManager::apportion_cluster(&curves, Watts::new(105.0));
        let sum: f64 = caps.iter().map(|c| c.value()).sum();
        assert_eq!(sum, 105.0, "{caps:?}");
    }

    #[test]
    fn cluster_dp_below_aggregate_floor_falls_back_to_floors() {
        let curve: Vec<(Watts, f64)> = ClusterManager::candidate_caps()
            .map(|c| (c, c.value()))
            .collect();
        let curves = vec![curve.clone(), curve.clone()];
        for total in [0.0, 49.0, 99.9] {
            let caps = ClusterManager::apportion_cluster(&curves, Watts::new(total));
            assert_eq!(caps, vec![Watts::new(50.0); 2], "total {total}");
        }
        // Degenerate inputs: no servers at all.
        assert!(ClusterManager::apportion_cluster(&[], Watts::new(500.0)).is_empty());
    }

    #[test]
    fn cluster_dp_nan_curve_values_fall_back_to_floors() {
        // NaN values poison the DP comparisons; the guard must fall back
        // to floors instead of panicking or underflowing.
        let bad: Vec<(Watts, f64)> = ClusterManager::candidate_caps()
            .map(|c| (c, f64::NAN))
            .collect();
        let curves = vec![bad.clone(), bad];
        let caps = ClusterManager::apportion_cluster(&curves, Watts::new(200.0));
        assert_eq!(caps, vec![Watts::new(50.0); 2]);
    }

    #[test]
    fn candidate_caps_for_matches_the_xeon_ladder() {
        let xeon: Vec<Watts> = ClusterManager::candidate_caps().collect();
        let derived = ClusterManager::candidate_caps_for(&ServerSpec::xeon_e5_2620());
        assert_eq!(derived.first(), xeon.first());
        // The derived ladder extends to rated power (120 W for the
        // Xeon); the classic ladder stops at 115 W within it.
        assert!(derived.len() >= xeon.len());
        assert!(xeon.iter().all(|c| derived.contains(c)));

        let edge = ClusterManager::candidate_caps_for(&ServerSpec::edge_low_idle());
        let big = ClusterManager::candidate_caps_for(&ServerSpec::throughput_highdyn());
        assert_eq!(edge.first(), Some(&Watts::new(25.0)));
        assert_eq!(big.first(), Some(&Watts::new(55.0)));
        assert!(edge.last().unwrap() < big.last().unwrap());
        assert!(edge.len() < big.len(), "edge ladder should be shorter");
    }

    #[test]
    fn heterogeneous_floors_back_the_dp_fallback() {
        let specs = [
            ServerSpec::edge_low_idle(),
            ServerSpec::throughput_highdyn(),
        ];
        let floors: Vec<Watts> = specs.iter().map(ClusterManager::cap_floor_for).collect();
        let curves: Vec<Vec<(Watts, f64)>> = specs
            .iter()
            .map(|s| {
                ClusterManager::candidate_caps_for(s)
                    .into_iter()
                    .map(|c| (c, c.value()))
                    .collect()
            })
            .collect();
        // Budget below the aggregate floor (25 + 55): per-SKU floors
        // come back, not the homogeneous 50 W.
        let caps =
            ClusterManager::apportion_cluster_with_floors(&curves, Watts::new(70.0), &floors);
        assert_eq!(caps, floors);
        // A workable budget splits on the 5 W grid, respects the total,
        // and gives the throughput SKU (better value at equal watts
        // here, and a taller ladder) at least its floor.
        let caps =
            ClusterManager::apportion_cluster_with_floors(&curves, Watts::new(180.0), &floors);
        let total: f64 = caps.iter().map(|c| c.value()).sum();
        assert!(total <= 180.0 + 1e-9, "{caps:?}");
        assert!(caps[0] >= floors[0] && caps[1] >= floors[1], "{caps:?}");
    }

    mod matches_reference {
        use super::*;
        use powermed_units::hash::splitmix64;
        use proptest::prelude::*;

        /// The per-call DP [`ApportionTable`] replaced: a fresh
        /// `servers × levels × ladder` table for every budget.
        fn apportion_reference(
            curves: &[Vec<(Watts, f64)>],
            total: Watts,
            floors: &[Watts],
        ) -> Vec<Watts> {
            assert_eq!(curves.len(), floors.len(), "one floor per server");
            let levels = (total.value() / CAP_STEP).floor().max(0.0) as usize;
            let mut best = vec![0.0f64; levels + 1];
            let mut keep: Vec<Vec<Option<usize>>> = Vec::with_capacity(curves.len());
            for curve in curves {
                let mut next = vec![f64::NEG_INFINITY; levels + 1];
                let mut choice: Vec<Option<usize>> = vec![None; levels + 1];
                for b in 0..=levels {
                    for (ci, (cap, value)) in curve.iter().enumerate() {
                        let need = (cap.value() / CAP_STEP).ceil() as usize;
                        if need <= b && best[b - need].is_finite() {
                            let v = best[b - need] + value;
                            if v > next[b] {
                                next[b] = v;
                                choice[b] = Some(ci);
                            }
                        }
                    }
                }
                best = next;
                keep.push(choice);
            }
            if !best[levels].is_finite() {
                return floors.to_vec();
            }
            let mut caps = floors.to_vec();
            let mut b = levels;
            for i in (0..curves.len()).rev() {
                let Some(ci) = keep[i][b] else {
                    return floors.to_vec();
                };
                caps[i] = curves[i][ci].0;
                let need = (caps[i].value() / CAP_STEP).ceil() as usize;
                let Some(rest) = b.checked_sub(need) else {
                    return floors.to_vec();
                };
                b = rest;
            }
            caps
        }

        fn bits(caps: &[Watts]) -> Vec<u64> {
            caps.iter().map(|c| c.value().to_bits()).collect()
        }

        /// Values that tie, poison (NaN) or leave the finite range.
        const VALUES: [f64; 9] = [
            0.0,
            1.0,
            1.0,
            2.0,
            0.5,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];

        struct Draws(u64);

        impl Draws {
            fn below(&mut self, n: u64) -> u64 {
                splitmix64(&mut self.0) % n
            }

            /// A SKU-like server: its floor (on or off the 5 W grid) and
            /// a ladder of up to five caps at or above it, unsorted and
            /// possibly repeated, with values from [`VALUES`] (none when
            /// the ladder is empty).
            fn server(&mut self) -> (Watts, Vec<(Watts, f64)>) {
                let floor = 5.0 * (1 + self.below(12)) as f64 + [0.0, 2.5][self.below(2) as usize];
                let curve = (0..self.below(6))
                    .map(|_| {
                        let cap = floor + 5.0 * self.below(6) as f64;
                        (
                            Watts::new(cap),
                            VALUES[self.below(VALUES.len() as u64) as usize],
                        )
                    })
                    .collect();
                (Watts::new(floor), curve)
            }

            /// Budgets below the aggregate floor, on and off the grid,
            /// at and far past saturation, negative and NaN.
            fn budget(&mut self, floor_sum: f64, saturation: f64) -> Watts {
                let w = match self.below(8) {
                    0 => floor_sum - 5.0 * self.below(3) as f64 - 0.1,
                    1 => saturation,
                    2 => saturation + 5.0 * self.below(1000) as f64,
                    3 => -7.5,
                    4 => f64::NAN,
                    _ => {
                        let b = self.below(saturation as u64 + 40) as f64;
                        b + [0.0, 0.5, 2.5, 4.9][self.below(4) as usize]
                    }
                };
                Watts::new(w)
            }
        }

        proptest! {
            // Release builds run 1024 cases; debug builds 64.
            #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 1024 }))]
            /// One table built to saturation splits every budget, and
            /// the one-shot apportionment every budget, bit for bit as
            /// the per-call DP does, over random fleets (empty ones
            /// too) and every membership a random mask leaves.
            #[test]
            fn prop_table_split_matches_the_per_call_dp(seed in 0u64..u64::MAX) {
                let mut draws = Draws(seed);
                let fleet: Vec<(Watts, Vec<(Watts, f64)>)> =
                    (0..draws.below(6)).map(|_| draws.server()).collect();
                for _ in 0..3 {
                    let (floors, curves): (Vec<Watts>, Vec<Vec<(Watts, f64)>>) = fleet
                        .iter()
                        .filter(|_| draws.below(4) != 0)
                        .cloned()
                        .unzip();
                    let floor_sum: f64 = floors.iter().map(|f| f.value()).sum();
                    let saturation: f64 = curves
                        .iter()
                        .map(|c| c.iter().map(|(cap, _)| cap_need(*cap)).max().unwrap_or(0) as f64)
                        .sum::<f64>()
                        * CAP_STEP;
                    let table = ApportionTable::build(&curves, &floors, usize::MAX);
                    for _ in 0..8 {
                        let total = draws.budget(floor_sum, saturation);
                        let reference = bits(&apportion_reference(&curves, total, &floors));
                        prop_assert_eq!(bits(&table.split(&curves, total)), reference.clone());
                        let one_shot =
                            ClusterManager::apportion_cluster_with_floors(&curves, total, &floors);
                        prop_assert_eq!(bits(&one_shot), reference);
                    }
                }
            }
        }
    }

    #[test]
    fn policy_names() {
        assert_eq!(ClusterPolicy::EqualRapl.name(), "Equal(RAPL)");
        assert_eq!(ClusterPolicy::EqualOurs.to_string(), "Equal(Ours)");
        assert_eq!(ClusterPolicy::UnequalOurs.name(), "Unequal(Ours)");
    }
}
