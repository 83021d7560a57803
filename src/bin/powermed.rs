//! `powermed` — command-line front end for the power-struggle mediator.
//!
//! ```text
//! powermed simulate --mix 14 --cap 80 --policy app-res-esd --battery
//! powermed cluster --servers 10 --shave 30 --policy equal-ours
//! powermed export --dir out
//! powermed list
//! ```

use std::collections::BTreeMap;

use powermed::cluster::manager::{ClusterManager, ClusterPolicy};
use powermed::cluster::trace::ClusterPowerTrace;
use powermed::esd::{LeadAcidBattery, NoEsd};
use powermed::mediator::policy::PolicyKind;
use powermed::mediator::runtime::PowerMediator;
use powermed::server::ServerSpec;
use powermed::sim::engine::ServerSim;
use powermed::units::{Ratio, Seconds, Watts};
use powermed::workloads::{catalog, mixes};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = parse(&args);
    let result = match command.as_deref() {
        Some("simulate") => simulate(&flags),
        Some("cluster") => cluster(&flags),
        Some("export") => export(&flags),
        Some("list") => {
            list();
            Ok(())
        }
        _ => {
            usage();
            Ok(())
        }
    };
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn usage() {
    println!(
        "powermed — mediating power struggles on a shared server\n\n\
         USAGE:\n  powermed <command> [--flag value]...\n\n\
         COMMANDS:\n\
         \x20 simulate   run one mix under one policy\n\
         \x20            --mix 1..15 (default 1)   --cap watts (default 100)\n\
         \x20            --policy util-unaware|server-res|app|app-res|app-res-esd (default app-res)\n\
         \x20            --duration seconds (default 30)   --battery   --slo 0.8 (on app1)\n\
         \x20 cluster    peak-shave a fleet\n\
         \x20            --servers n (default 10)   --shave percent (default 30)\n\
         \x20            --policy equal-rapl|equal-ours|unequal-ours|consolidation (default equal-ours)\n\
         \x20 export     write key figure data as CSV\n\
         \x20            --dir path (default out)\n\
         \x20 list       print the application catalog and Table II mixes"
    );
}

fn parse(args: &[String]) -> (Option<String>, BTreeMap<String, String>) {
    let mut flags = BTreeMap::new();
    let command = args.first().cloned();
    let mut i = 1;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = args.get(i + 1).cloned().unwrap_or_default();
            let consumes = !value.starts_with("--") && !value.is_empty();
            flags.insert(
                name.to_string(),
                if consumes { value } else { "true".into() },
            );
            i += if consumes { 2 } else { 1 };
        } else {
            i += 1;
        }
    }
    (command, flags)
}

fn flag_f64(flags: &BTreeMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} expects a number, got {v:?}")),
    }
}

fn policy_kind(name: &str) -> Result<PolicyKind, String> {
    Ok(match name {
        "util-unaware" => PolicyKind::UtilUnaware,
        "server-res" => PolicyKind::ServerResAware,
        "app" => PolicyKind::AppAware,
        "app-res" => PolicyKind::AppResAware,
        "app-res-esd" => PolicyKind::AppResEsdAware,
        other => return Err(format!("unknown policy {other:?}")),
    })
}

fn simulate(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let mix_id = flag_f64(flags, "mix", 1.0)? as usize;
    let cap_w = flag_f64(flags, "cap", 100.0)?;
    // The allocator's knapsack spans at most 65,533 one-watt levels.
    if cap_w.is_nan() || cap_w > 10_000.0 {
        return Err(format!("--cap expects at most 10000 W, got {cap_w}"));
    }
    let cap = Watts::new(cap_w);
    let duration = Seconds::new(flag_f64(flags, "duration", 30.0)?);
    let kind = policy_kind(flags.get("policy").map(String::as_str).unwrap_or("app-res"))?;
    let battery = flags.contains_key("battery") || kind.uses_esd();
    let slo = flags
        .get("slo")
        .map(|v| v.parse::<f64>())
        .transpose()
        .map_err(|_| "--slo expects a fraction".to_string())?;
    if let Some(target) = slo {
        if !(0.0..=1.0).contains(&target) || target == 0.0 {
            return Err(format!("--slo expects a fraction in (0, 1], got {target}"));
        }
    }

    let mix = mixes::mix(mix_id).ok_or_else(|| format!("mix {mix_id} not in 1..=15"))?;
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = if battery {
        ServerSim::new(
            spec.clone(),
            Box::new(LeadAcidBattery::server_ups().with_soc(0.3)),
        )
    } else {
        ServerSim::new(spec.clone(), Box::new(NoEsd))
    };
    let mut med = PowerMediator::new(kind, spec.clone(), cap);
    if slo.is_some() {
        med = med.with_slo_awareness();
    }
    println!(
        "simulating {} at {cap:.0} under {} for {duration:.0}{}",
        mix.label(),
        kind.name(),
        if battery { " (with Lead-Acid UPS)" } else { "" }
    );
    let mut apps = vec![mix.app1.clone(), mix.app2.clone()];
    if let Some(target) = slo {
        apps[0] = apps[0].clone().with_slo(target);
        println!(
            "  {} is latency-critical (SLO {:.0}%)",
            apps[0].name(),
            target * 100.0
        );
    }
    for app in &apps {
        med.admit(&mut sim, app.clone())
            .map_err(|e| e.to_string())?;
    }
    med.run_for(&mut sim, duration, Seconds::from_millis(100.0));

    for app in &apps {
        let norm = sim.ops_done(app.name()) / (app.uncapped(&spec).throughput * duration.value());
        println!(
            "  {:<12} {:>10.0} ops  ({:>5.1}% of uncapped)",
            app.name(),
            sim.ops_done(app.name()),
            norm * 100.0
        );
    }
    let meter = sim.meter();
    println!(
        "server: avg {:.1}, peak {:.1}, violations {:.2}% of time",
        meter.average().unwrap_or(Watts::ZERO),
        meter.peak(),
        meter.compliance().violation_fraction() * 100.0
    );
    Ok(())
}

fn cluster(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let servers = flag_f64(flags, "servers", 10.0)? as usize;
    let shave = flag_f64(flags, "shave", 30.0)? / 100.0;
    let policy = match flags
        .get("policy")
        .map(String::as_str)
        .unwrap_or("equal-ours")
    {
        "equal-rapl" => ClusterPolicy::EqualRapl,
        "equal-ours" => ClusterPolicy::EqualOurs,
        "unequal-ours" => ClusterPolicy::UnequalOurs,
        "consolidation" => ClusterPolicy::ConsolidationMigration,
        other => return Err(format!("unknown cluster policy {other:?}")),
    };
    if !(0.0..1.0).contains(&shave) {
        return Err("--shave expects a percent in [0, 100)".into());
    }
    let trace = ClusterPowerTrace::synthetic_diurnal(servers, Seconds::new(480.0), 42)
        .peak_shaved(Ratio::new(shave))
        .clamped_below(Watts::new(78.0 * servers as f64));
    println!(
        "cluster of {servers} servers, shaving {:.0}% of peak, policy {policy}",
        shave * 100.0
    );
    let report = ClusterManager::new(servers, 7).run(policy, &trace, Seconds::new(0.5));
    println!(
        "aggregate normalized performance: {:.1}%",
        report.aggregate_normalized_perf * 100.0
    );
    println!(
        "energy {:.0} kJ, efficiency {:.3} perf/MJ",
        report.energy.value() / 1000.0,
        report.perf_per_kilojoule * 1000.0
    );
    Ok(())
}

fn export(flags: &BTreeMap<String, String>) -> Result<(), String> {
    let dir = flags.get("dir").cloned().unwrap_or_else(|| "out".into());
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spec = ServerSpec::xeon_e5_2620();

    // Utility curves for every catalog application (Fig. 2 data).
    let mut csv = String::from("app,budget_w,normalized_perf\n");
    for profile in catalog::all() {
        let m = powermed::mediator::measurement::AppMeasurement::exhaustive(&spec, &profile);
        let family = m.feasible_indices();
        let curve = powermed::mediator::utility::UtilityCurve::build(
            &m,
            &family,
            Watts::new(30.0),
            Watts::new(1.0),
        );
        let nocap = m.nocap_perf();
        for p in curve.points() {
            csv.push_str(&format!(
                "{},{},{:.6}\n",
                profile.name(),
                p.budget.value(),
                p.perf / nocap
            ));
        }
    }
    write(&dir, "utility_curves.csv", &csv)?;

    // Cluster cap schedules (Fig. 12a data).
    let demand = ClusterPowerTrace::synthetic_diurnal(10, Seconds::new(480.0), 42);
    let mut csv = String::from("shave,time_s,cap_w\n");
    for shave in [0.15, 0.30, 0.45] {
        let caps = demand
            .peak_shaved(Ratio::new(shave))
            .clamped_below(Watts::new(780.0));
        for (t, w) in caps.samples() {
            csv.push_str(&format!(
                "{:.0},{},{:.1}\n",
                shave * 100.0,
                t.value(),
                w.value()
            ));
        }
    }
    write(&dir, "cluster_caps.csv", &csv)?;

    // Table II.
    let mut csv = String::from("mix,app1,app2\n");
    for m in mixes::table2() {
        csv.push_str(&format!("{},{},{}\n", m.id.0, m.app1.name(), m.app2.name()));
    }
    write(&dir, "mixes.csv", &csv)?;

    println!("wrote utility_curves.csv, cluster_caps.csv, mixes.csv to {dir}/");
    println!("(per-figure series are printed by `cargo run -p powermed-bench --bin <figN>`)");
    Ok(())
}

fn write(dir: &str, file: &str, contents: &str) -> Result<(), String> {
    std::fs::write(format!("{dir}/{file}"), contents).map_err(|e| e.to_string())
}

fn list() {
    println!("application catalog:");
    let spec = ServerSpec::xeon_e5_2620();
    for p in catalog::all() {
        let op = p.uncapped(&spec);
        println!(
            "  {:<12} {:<10} uncapped {:>8.0} ops/s at {:>5.1} W dynamic",
            p.name(),
            format!("({})", p.category()),
            op.throughput,
            op.dynamic_power.value()
        );
    }
    println!("\nTable II mixes:");
    for m in mixes::table2() {
        println!("  {}", m.label());
    }
}
