//! Extension beyond the paper: request-driven traffic against the
//! SLO-vs-cap mediation stack on a heterogeneous fleet.
//!
//! Every prior experiment drives apps open-throttle: an app always has
//! work, so "performance under a cap" is the whole story. Real shared
//! servers face *offered load* — an open-loop request stream with a
//! diurnal rhythm, Zipf-skewed app popularity, heavy-tailed per-request
//! cost, and flash crowds — and the question the operator actually
//! asks is *SLO attainment*: what fraction of requests completed within
//! the latency budget, as the cap tightens.
//!
//! This experiment replays one seeded compressed day of traffic
//! (`powermed_traffic`, attached via [`ServerSim::attach_traffic`])
//! over a three-server fleet and sweeps two axes:
//!
//! * **cap tightness** — the fleet budget as a fraction of aggregate
//!   rated power ([`TIGHTNESS`]);
//! * **fleet SKU mix** — the paper's homogeneous Xeon fleet next to a
//!   heterogeneous one mixing a low-idle edge box, the Xeon, and a
//!   dynamic-heavy throughput box ([`sku_mixes`]).
//!
//! Each cell runs two flavors under common random numbers (the traffic
//! seed depends only on the server index, so both flavors and every
//! tightness level face the byte-identical request stream):
//!
//! * **static**: the budget split equally across servers, each running
//!   the paper's utilization-unaware policy — the "rated-power
//!   provisioning" strawman of §I;
//! * **mediated**: per-server caps from the SKU-aware knapsack DP
//!   ([`ClusterManager::apportion_cluster_with_floors`]) over
//!   demand-aware value curves ([`server_value_curve`]), each server
//!   running the App+Res-Aware policy.
//!
//! [`gate`] encodes the release bound (`ext_traffic --gate`): on the
//! tightest heterogeneous cell the mediated fleet must beat the static
//! split on attainment at equal energy, and mediation must never lose
//! attainment anywhere on the grid. [`smoke_digest`] condenses a short
//! cell into one hash for the CI determinism diff (`ext_traffic
//! --smoke`), and [`doctor_scenario`] is the replay behind `doctor
//! --explain slo-miss`.

use powermed_cluster::fleet::{build_fleet_skus, Fleet};
use powermed_cluster::manager::ClusterManager;
use powermed_core::policy::PolicyKind;
use powermed_core::MeasurementCache;
use powermed_server::ServerSpec;
use powermed_telemetry::journal::Obs;
use powermed_traffic::samplers::zipf_weights;
use powermed_traffic::source::TrafficConfig;
use powermed_units::hash::{Fnv1a, SPLITMIX_GAMMA};
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::{self, Mix};

use crate::harness::{field, GateCheck, Outcome};
use crate::support::{heading, par_map, pct, HarnessDoc, DT};

/// Seed shared by the scenario grid.
pub const SEED: u64 = 0x70AF_F1C5;

/// One compressed traffic day (matches `TrafficConfig::default().day`).
pub const DAY: Seconds = Seconds::new(86.4);

/// Cap tightness sweep: fleet budget as a fraction of aggregate rated
/// power, loosest first.
pub const TIGHTNESS: [f64; 3] = [0.9, 0.75, 0.6];

/// Generous admission cap every server boots with; the scenario's
/// tightness is applied via `set_cap` after the mix is admitted, the
/// way a real fleet tightens budgets on running machines.
pub const ADMISSION_CAP: Watts = Watts::new(120.0);

/// Mean offered load as a fraction of uncapped capacity. At 0.55 the
/// popular app runs near ρ = 0.72 off-peak (Zipf weight 0.65 of the
/// two-app total) and briefly oversubscribes under the 1.65x diurnal
/// crest — so a well-capped fleet mostly meets the SLO and a starved
/// one visibly does not.
pub const TARGET_UTILIZATION: f64 = 0.55;

/// A named fleet composition: one [`ServerSpec`] per server.
#[derive(Debug, Clone)]
pub struct SkuMix {
    /// Table label.
    pub label: &'static str,
    /// The per-server SKUs (server `i` hosts Table II mix `i + 1`).
    pub specs: Vec<ServerSpec>,
}

/// The two fleet compositions the sweep compares: the paper's
/// homogeneous Xeon fleet and a heterogeneous edge/Xeon/throughput mix
/// whose idle floors and dynamic ranges differ enough that an equal
/// split is visibly wrong.
pub fn sku_mixes() -> Vec<SkuMix> {
    vec![
        SkuMix {
            label: "uniform-xeon",
            specs: vec![
                ServerSpec::xeon_e5_2620(),
                ServerSpec::xeon_e5_2620(),
                ServerSpec::xeon_e5_2620(),
            ],
        },
        SkuMix {
            label: "edge+xeon+big",
            specs: vec![
                ServerSpec::edge_low_idle(),
                ServerSpec::xeon_e5_2620(),
                ServerSpec::throughput_highdyn(),
            ],
        },
    ]
}

/// One cell of the sweep: a fleet composition at a cap tightness.
#[derive(Debug, Clone)]
pub struct TrafficScenario {
    /// Table label (`<sku mix> @ <tightness>`).
    pub label: String,
    /// Index into [`sku_mixes`].
    pub sku: usize,
    /// Fleet budget as a fraction of aggregate rated power.
    pub tightness: f64,
    /// Traffic seed (shared across flavors and tightness: CRN).
    pub seed: u64,
}

/// One flavor's scored day: fleet-wide SLO attainment and the energy
/// actually drawn.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficOutcome {
    /// Fleet fraction of *offered* requests served inside the latency
    /// budget — requests still queued (or shed by a parked server) at
    /// day end count as misses.
    pub attainment: f64,
    /// Requests offered across the fleet.
    pub requests: u64,
    /// Requests completed across the fleet.
    pub completions: u64,
    /// SLO accounting windows closed.
    pub windows: u64,
    /// Windows whose attainment missed the target.
    pub windows_missed: u64,
    /// Fleet energy over the day, in kilojoules.
    pub energy_kj: f64,
    /// Ops offered but never served (end-of-day queue residue).
    pub backlog_ops: f64,
    /// Per-server caps the flavor ran under, in watts.
    pub caps_w: Vec<f64>,
    /// FNV-1a digest of the scored counters (determinism witness).
    pub digest: u64,
}

/// The scenario grid: every fleet composition at every tightness.
pub fn scenarios(seed: u64) -> Vec<TrafficScenario> {
    let mut rows = Vec::new();
    for (sku, mix) in sku_mixes().iter().enumerate() {
        for &tightness in &TIGHTNESS {
            rows.push(TrafficScenario {
                label: format!("{} @ {:.0}% rated", mix.label, tightness * 100.0),
                sku,
                tightness,
                seed,
            });
        }
    }
    rows
}

/// The grid cell the `doctor` binary's `--explain slo-miss` replays:
/// the tightest heterogeneous cell, where the throughput box is
/// starved and flash crowds push windows over the edge.
pub fn doctor_scenario(seed: u64) -> TrafficScenario {
    let s = scenarios(seed)
        .into_iter()
        .nth(5)
        .expect("the grid's sixth row is the tight heterogeneous cell");
    assert!(s.label.starts_with("edge+xeon+big @ 60"), "grid reordered");
    s
}

/// The traffic a server receives: the shared defaults at the
/// experiment's operating point, seeded per server index only — so the
/// same server sees the byte-identical request stream under every
/// flavor and tightness (common random numbers).
pub fn traffic_config(seed: u64, server: usize) -> TrafficConfig {
    TrafficConfig {
        seed: seed ^ (server as u64 + 1).wrapping_mul(SPLITMIX_GAMMA),
        target_utilization: TARGET_UTILIZATION,
        ..TrafficConfig::default()
    }
}

/// The demand-aware value curve the cluster DP maximizes over: for
/// each candidate cap of this SKU, the expected fraction of *peak*
/// offered demand the hosted mix can serve. The dynamic budget is the
/// cap net of idle and chip-maintenance power, split evenly between
/// the two apps; each app's attainable rate is its best calibrated
/// throughput within the share, and demand is the traffic model's peak
/// offered rate (Zipf popularity x diurnal crest). Watts beyond what
/// demand needs add no value, which is exactly why the DP strips the
/// edge box's headroom and feeds the starving throughput box.
pub fn server_value_curve(
    spec: &ServerSpec,
    mix: &Mix,
    config: &TrafficConfig,
) -> Vec<(Watts, f64)> {
    // Registration order = popularity rank: `attach_traffic` ranks apps
    // by name, so the curve must hand the Zipf weights out the same way.
    let mut apps = mix.apps().to_vec();
    apps.sort_by_key(|a| a.name().to_string());
    let weights = zipf_weights(apps.len(), config.zipf_s);
    let peak_envelope = 1.0 + config.diurnal_a1.abs() + config.diurnal_a2.abs();
    let overhead = spec.idle_power() + spec.chip_maintenance_power();
    let measurements: Vec<_> = apps
        .iter()
        .map(|&a| MeasurementCache::global().measure(spec, a))
        .collect();
    let families: Vec<Vec<usize>> = measurements
        .iter()
        .map(|m| (0..m.grid().len()).collect())
        .collect();
    ClusterManager::candidate_caps_for(spec)
        .into_iter()
        .map(|cap| {
            let dynamic = (cap - overhead).max_zero();
            let share = dynamic * (1.0 / apps.len() as f64);
            let value = apps
                .iter()
                .enumerate()
                .map(|(rank, app)| {
                    let demand = config.target_utilization
                        * apps.len() as f64
                        * weights[rank]
                        * app.uncapped(spec).throughput
                        * peak_envelope;
                    let attainable = measurements[rank]
                        .best_within(share, &families[rank])
                        .map_or(0.0, |(_, perf)| perf);
                    if demand > 0.0 {
                        (attainable / demand).min(1.0)
                    } else {
                        1.0
                    }
                })
                .sum();
            (cap, value)
        })
        .collect()
}

/// Per-server caps for one flavor of a scenario: an equal split of the
/// budget for the static baseline, the SKU-aware DP for the mediated
/// stack.
pub fn flavor_caps(sku: &SkuMix, host_mixes: &[Mix], total: Watts, mediated: bool) -> Vec<Watts> {
    if !mediated {
        return vec![total * (1.0 / sku.specs.len() as f64); sku.specs.len()];
    }
    let curves: Vec<Vec<(Watts, f64)>> = sku
        .specs
        .iter()
        .zip(host_mixes)
        .map(|(spec, mix)| server_value_curve(spec, mix, &traffic_config(0, 0)))
        .collect();
    let floors: Vec<Watts> = sku
        .specs
        .iter()
        .map(ClusterManager::cap_floor_for)
        .collect();
    ClusterManager::apportion_cluster_with_floors(&curves, total, &floors)
}

/// Scores a finished fleet: pooled attainment, energy, residue, and
/// the FNV fold of every counter.
fn score(fleet: &Fleet, caps: &[Watts]) -> TrafficOutcome {
    let mut requests = 0u64;
    let mut completions = 0u64;
    let mut within = 0u64;
    let mut windows = 0u64;
    let mut windows_missed = 0u64;
    let mut backlog = 0.0f64;
    let mut energy_j = 0.0f64;
    let mut digest = Fnv1a::new();
    for sim in &fleet.sims {
        let stats = sim
            .traffic()
            .expect("every ext_traffic server has traffic attached")
            .stats();
        requests += stats.requests;
        completions += stats.completions;
        within += stats.within_slo;
        windows += stats.windows;
        windows_missed += stats.windows_missed;
        backlog += stats.offered_ops - stats.served_ops;
        energy_j += sim.meter().energy().value();
        digest.write_word(stats.requests);
        digest.write_word(stats.completions);
        digest.write_word(stats.within_slo);
        digest.write_word(stats.windows_missed);
        digest.write_word(stats.offered_ops.to_bits());
        digest.write_word(stats.served_ops.to_bits());
        digest.write_word(sim.meter().energy().value().to_bits());
    }
    for cap in caps {
        digest.write_word(cap.value().to_bits());
    }
    TrafficOutcome {
        attainment: if requests > 0 {
            within as f64 / requests as f64
        } else {
            1.0
        },
        requests,
        completions,
        windows,
        windows_missed,
        energy_kj: energy_j / 1e3,
        backlog_ops: backlog,
        caps_w: caps.iter().map(|c| c.value()).collect(),
        digest: digest.finish(),
    }
}

/// The server the flight recorder watches in an observed run: the
/// fleet's middle one. On the heterogeneous doctor cell that is the
/// Xeon, which is actively mediated (the parked throughput box logs only
/// an infeasible plan), so its journal carries the full spike -> plan ->
/// verdict chain.
pub fn observed_server(scenario: &TrafficScenario) -> usize {
    sku_mixes()[scenario.sku].specs.len() / 2
}

/// Runs one scenario under one flavor for `duration`: boot the fleet
/// at the admission cap, tighten to the flavor's split, attach the
/// day's traffic, and step every mediator in lockstep. When `obs` is
/// set, the flight recorder watches [`observed_server`].
pub fn run_one(
    scenario: &TrafficScenario,
    mediated: bool,
    duration: Seconds,
    obs: Option<&Obs>,
) -> TrafficOutcome {
    let sku = &sku_mixes()[scenario.sku];
    let host_mixes: Vec<Mix> = (1..=sku.specs.len())
        .map(|i| mixes::mix(i).expect("Table II mix"))
        .collect();
    let kind = if mediated {
        PolicyKind::AppResAware
    } else {
        PolicyKind::UtilUnaware
    };
    let rated: f64 = sku.specs.iter().map(|s| s.rated_power().value()).sum();
    let total = Watts::new(rated * scenario.tightness);
    let caps = flavor_caps(sku, &host_mixes, total, mediated);
    let mut fleet = build_fleet_skus(&sku.specs, &host_mixes, kind, false, ADMISSION_CAP);
    if let Some(obs) = obs {
        let watched = observed_server(scenario);
        fleet.sims[watched].set_observability(obs.clone());
        fleet.mediators[watched].set_observability(obs.clone());
    }
    for (i, cap) in caps.iter().enumerate() {
        fleet.mediators[i].set_cap(&mut fleet.sims[i], *cap);
        fleet.sims[i].attach_traffic(traffic_config(scenario.seed, i));
    }
    let steps = (duration.value() / DT.value()).round() as u64;
    for _ in 0..steps {
        for (sim, med) in fleet.sims.iter_mut().zip(fleet.mediators.iter_mut()) {
            med.step(sim, DT);
        }
    }
    score(&fleet, &caps)
}

/// Runs the whole grid, `(scenario, static, mediated)` per row. Both
/// flavors share each server's traffic seed (common random numbers),
/// so attainment gaps are policy, not luck.
pub fn run_grid() -> Vec<(TrafficScenario, TrafficOutcome, TrafficOutcome)> {
    let mut cells = Vec::new();
    for s in scenarios(SEED) {
        for mediated in [false, true] {
            cells.push((s.clone(), mediated));
        }
    }
    let outs = par_map(cells, |(s, mediated)| run_one(&s, mediated, DAY, None));
    outs.chunks_exact(2)
        .zip(scenarios(SEED))
        .map(|(pair, s)| (s, pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Attainment the mediated flavor must add over the static split on
/// the tight heterogeneous cell.
pub const GATE_ATTAINMENT_MARGIN: f64 = 0.05;

/// Attainment the mediated flavor may lose on any cell (noise floor).
pub const GATE_REGRESSION_MARGIN: f64 = 0.02;

/// Slack on the fleet energy bound (meter quantization over the day).
pub const GATE_ENERGY_MARGIN: f64 = 0.01;

/// Evaluates the release bounds on a finished grid.
pub fn gate(rows: &[(TrafficScenario, TrafficOutcome, TrafficOutcome)]) -> Vec<GateCheck> {
    let mut checks = Vec::new();
    let (ref_s, ref_static, ref_med) = rows
        .iter()
        .find(|(s, _, _)| s.label.starts_with("edge+xeon+big @ 60"))
        .expect("the tight heterogeneous cell is on the grid");
    checks.push(GateCheck {
        name: format!("mediation wins on `{}`", ref_s.label),
        ok: ref_med.attainment >= ref_static.attainment + GATE_ATTAINMENT_MARGIN,
        detail: format!(
            "attainment {} mediated vs {} static (need +{})",
            pct(ref_med.attainment),
            pct(ref_static.attainment),
            pct(GATE_ATTAINMENT_MARGIN),
        ),
    });
    // "Equal energy" means an equal watt budget honestly enforced:
    // both flavors split the same fleet budget, and neither may draw
    // more energy than that budget sustained over the day. (Mediation
    // wins by *using* the budget the static split strands on the
    // wrong SKUs, so its absolute draw is legitimately higher.)
    let ref_rated: f64 = sku_mixes()[ref_s.sku]
        .specs
        .iter()
        .map(|sp| sp.rated_power().value())
        .sum();
    let budget_kj = ref_rated * ref_s.tightness * DAY.value() / 1e3;
    let worst_draw = ref_med.energy_kj.max(ref_static.energy_kj);
    checks.push(GateCheck {
        name: "equal budget, energy within it".to_string(),
        ok: ref_med.caps_w.iter().sum::<f64>() <= ref_static.caps_w.iter().sum::<f64>() + 1e-9
            && worst_draw <= budget_kj * (1.0 + GATE_ENERGY_MARGIN),
        detail: format!(
            "{:.2} kJ mediated, {:.2} kJ static, budget {:.2} kJ",
            ref_med.energy_kj, ref_static.energy_kj, budget_kj,
        ),
    });
    let worst = rows
        .iter()
        .map(|(s, st, md)| (s, st.attainment - md.attainment))
        .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite attainment"))
        .expect("non-empty grid");
    checks.push(GateCheck {
        name: "mediation never loses attainment".to_string(),
        ok: worst.1 <= GATE_REGRESSION_MARGIN,
        detail: format!(
            "worst regression {} on `{}` (allowed {})",
            pct(worst.1.max(0.0)),
            worst.0.label,
            pct(GATE_REGRESSION_MARGIN),
        ),
    });
    let over_budget = rows.iter().find(|(s, _, md)| {
        let rated: f64 = sku_mixes()[s.sku]
            .specs
            .iter()
            .map(|sp| sp.rated_power().value())
            .sum();
        md.caps_w.iter().sum::<f64>() > rated * s.tightness + 1e-9
    });
    checks.push(GateCheck {
        name: "mediated caps respect the fleet budget".to_string(),
        ok: over_budget.is_none(),
        detail: over_budget.map_or_else(
            || "every DP split sums within its budget".to_string(),
            |(s, _, md)| {
                format!(
                    "`{}` split {:.0} W over budget {:.0} W",
                    s.label,
                    md.caps_w.iter().sum::<f64>(),
                    {
                        let rated: f64 = sku_mixes()[s.sku]
                            .specs
                            .iter()
                            .map(|sp| sp.rated_power().value())
                            .sum();
                        rated * s.tightness
                    }
                )
            },
        ),
    });
    checks
}

/// A deciday of the doctor cell under both flavors, folded into one
/// hash: the CI smoke diff (`ext_traffic --smoke`) re-runs it and
/// demands bit equality.
pub fn smoke_digest(seed: u64) -> u64 {
    let scenario = doctor_scenario(seed);
    let smoke_day = Seconds::new(DAY.value() / 10.0);
    let mut digest = Fnv1a::new();
    for mediated in [false, true] {
        let out = run_one(&scenario, mediated, smoke_day, None);
        digest.write_word(out.digest);
    }
    digest.finish()
}

/// Prints the attainment-vs-tightness table and returns what it
/// records: one attainment and one energy curve per fleet composition
/// and flavor (tightness loosest-first, matching [`TIGHTNESS`]), and the
/// release checks.
pub fn report(_: &HarnessDoc) -> Outcome {
    heading("ext_traffic: SLO attainment vs cap tightness (request-driven fleet)");
    let rows = run_grid();
    println!(
        "{:<26} {:>10} {:>10} {:>11} {:>11} {:>8} {:>8}",
        "cell", "att static", "att medtd", "kJ static", "kJ medtd", "miss st", "miss md"
    );
    for (s, st, md) in &rows {
        println!(
            "{:<26} {:>10} {:>10} {:>11.2} {:>11.2} {:>8} {:>8}",
            s.label,
            pct(st.attainment),
            pct(md.attainment),
            st.energy_kj,
            md.energy_kj,
            st.windows_missed,
            md.windows_missed,
        );
    }
    println!("\nrelease gates:");
    let checks = gate(&rows);
    for check in &checks {
        println!("{}", check.line(44));
    }
    let series = |points: Vec<String>| format!("[{}]", points.join(","));
    let mut fields = vec![
        field("scenarios", rows.len()),
        field(
            "tightness",
            series(TIGHTNESS.iter().map(|t| format!("{t:.2}")).collect()),
        ),
    ];
    for (sku, mix) in sku_mixes().iter().enumerate() {
        let cells: Vec<_> = rows.iter().filter(|(s, _, _)| s.sku == sku).collect();
        let curve = |value: fn(&TrafficOutcome) -> String, mediated: bool| {
            series(
                cells
                    .iter()
                    .map(|(_, st, md)| value(if mediated { md } else { st }))
                    .collect(),
            )
        };
        let tag = mix.label.replace(['+', '-'], "_");
        type Column = fn(&TrafficOutcome) -> String;
        let values: [(&str, Column); 2] = [
            ("attainment", |o| format!("{:.6}", o.attainment)),
            ("energy_kj", |o| format!("{:.3}", o.energy_kj)),
        ];
        for (name, value) in values {
            for (flavor, mediated) in [("static", false), ("mediated", true)] {
                fields.push(field(
                    &format!("{name}_{flavor}_{tag}"),
                    curve(value, mediated),
                ));
            }
        }
    }
    fields.push(field("gate_passed", checks.iter().all(|c| c.ok)));
    Outcome {
        fields,
        sections: Vec::new(),
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{find, journal_timeline, walk, Chain, Role};
    use powermed_telemetry::journal::{EventRecord, ObsConfig, ObsEvent};

    fn slo_miss_chain(journal: &[EventRecord]) -> Option<Chain> {
        walk(find("slo-miss").unwrap(), &journal_timeline(journal), None)
    }

    #[test]
    fn grid_covers_both_fleets_at_every_tightness() {
        let rows = scenarios(SEED);
        assert_eq!(rows.len(), sku_mixes().len() * TIGHTNESS.len());
        let labels: std::collections::BTreeSet<&str> =
            rows.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels.len(), rows.len(), "labels are unique");
        let d = doctor_scenario(SEED);
        assert_eq!(d.sku, 1);
        assert_eq!(d.tightness, 0.6);
    }

    #[test]
    fn value_curves_rise_with_cap_and_saturate() {
        let config = traffic_config(SEED, 0);
        for sku in sku_mixes() {
            let mix = mixes::mix(1).unwrap();
            for spec in &sku.specs {
                let curve = server_value_curve(spec, &mix, &config);
                assert!(!curve.is_empty());
                for pair in curve.windows(2) {
                    assert!(
                        pair[1].1 >= pair[0].1 - 1e-12,
                        "value is monotone in the cap"
                    );
                }
                assert!(curve.last().unwrap().1 <= 2.0 + 1e-12, "value is bounded");
            }
        }
    }

    #[test]
    fn traffic_seeds_are_crn_across_flavors_and_tightness() {
        let rows = scenarios(SEED);
        // Every cell hands server 0 the same stream: common random
        // numbers across both compared flavors and the whole sweep.
        let seeds: std::collections::BTreeSet<u64> = rows
            .iter()
            .map(|s| traffic_config(s.seed, 0).seed)
            .collect();
        assert_eq!(seeds.len(), 1);
        // Distinct servers draw distinct streams.
        assert_ne!(traffic_config(SEED, 0).seed, traffic_config(SEED, 1).seed);
    }

    #[test]
    fn mediation_beats_the_static_split_on_the_tight_hetero_cell() {
        let scenario = doctor_scenario(SEED);
        let st = run_one(&scenario, false, DAY, None);
        let md = run_one(&scenario, true, DAY, None);
        assert!(
            md.attainment >= st.attainment + GATE_ATTAINMENT_MARGIN,
            "mediated {} vs static {}",
            md.attainment,
            st.attainment
        );
        let rated: f64 = sku_mixes()[scenario.sku]
            .specs
            .iter()
            .map(|sp| sp.rated_power().value())
            .sum();
        let budget_kj = rated * scenario.tightness * DAY.value() / 1e3;
        assert!(md.energy_kj <= budget_kj * (1.0 + GATE_ENERGY_MARGIN));
        assert!(md.completions > 0 && st.completions > 0);
    }

    #[test]
    fn slo_miss_walker_finds_the_causal_chain() {
        let obs = Obs::new(ObsConfig::default());
        run_one(&doctor_scenario(SEED), true, DAY, Some(&obs));
        let journal = obs.journal_snapshot();
        assert!(
            journal
                .iter()
                .any(|r| matches!(r.event, ObsEvent::SloWindow { ok: false, .. })),
            "the tightly capped Xeon misses windows"
        );
        let ex = slo_miss_chain(&journal).expect("a miss with a plan on record");
        let verdict = &ex.anchor.record;
        assert!(matches!(
            verdict.event,
            ObsEvent::SloWindow { ok: false, .. }
        ));
        let app = verdict.event.app().unwrap();
        assert!(
            ex.role(Role::Decide)
                .any(|r| matches!(r.record.event, ObsEvent::Planned { .. })),
            "a plan was in force"
        );
        for r in ex.role(Role::Decide) {
            if let ObsEvent::Allocation { app: a, .. } = &r.record.event {
                assert_eq!(a, app, "only the missed app's share is cited");
            }
            assert!(r.record.at <= verdict.at);
        }
        for s in ex.records("spikes") {
            assert!(matches!(s.record.event, ObsEvent::DemandSpike { .. }));
            assert!(s.record.at <= verdict.at);
        }
    }

    #[test]
    fn walker_returns_none_on_an_empty_or_missless_journal() {
        assert!(slo_miss_chain(&[]).is_none());
    }
}
