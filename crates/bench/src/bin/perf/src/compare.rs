//! `perf compare PARENT.jsonl CHANGE.jsonl`: one row per workload ×
//! metric with each side's median and quartiles, the change's win
//! fraction over paired runs, and a verdict by the rule in
//! [`crate::stats::compare`] with the bounds in `BENCHMARK.json`.
//!
//! Both files are `--record` ledgers: one JSON object per line with
//! `workload` and `metrics`. Runs pair up by their order within each
//! workload, so record both sides with the same seed sequence.
//! Simulated quantities compare exactly. Exits nonzero when any row is
//! worse.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::stats::{self, Better, Verdict};

/// A declared metric: `(name, unit, better, bound)`.
type Declared = (String, String, Better, Option<f64>);

/// The metrics `BENCHMARK.json` declares, end-to-end first.
fn declared() -> Result<Vec<Declared>, String> {
    let doc = json::parse(crate::BENCHMARK_JSON).ok_or("BENCHMARK.json does not parse")?;
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc
            .get(section)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {section}"))?
        {
            let text = |k: &str| m.get(k).and_then(Value::as_str).map(String::from);
            let (Some(name), Some(unit), Some(better)) =
                (text("name"), text("unit"), text("better"))
            else {
                return Err(format!("malformed {section} entry"));
            };
            let better = Better::parse(&better).ok_or(format!("{name}: bad better"))?;
            out.push((name, unit, better, m.get("bound").and_then(Value::as_f64)));
        }
    }
    Ok(out)
}

/// Per workload, in first-seen order: each metric's values in run order.
type Ledger = Vec<(String, BTreeMap<String, Vec<f64>>)>;

fn load(path: &str) -> Result<Ledger, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut ledger: Ledger = Vec::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).ok_or(format!("{path}:{}: not JSON", n + 1))?;
        let (Some(workload), Some(metrics)) = (
            v.get("workload").and_then(Value::as_str),
            v.get("metrics").and_then(Value::as_object),
        ) else {
            return Err(format!("{path}:{}: no workload or metrics", n + 1));
        };
        let idx = match ledger.iter().position(|(w, _)| w == workload) {
            Some(i) => i,
            None => {
                ledger.push((workload.to_string(), BTreeMap::new()));
                ledger.len() - 1
            }
        };
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(Value::as_f64) {
                ledger[idx].1.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(ledger)
}

/// Entry point of the `compare` subcommand.
pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: perf compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let metrics = declared()?;
    let parent = load(parent)?;
    let change = load(change)?;
    println!(
        "{:<16} {:<28} {:>34} {:>34} {:>5}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut any_worse = false;
    let mut rows = 0;
    for (workload, p_metrics) in &parent {
        let Some((_, c_metrics)) = change.iter().find(|(w, _)| w == workload) else {
            println!("{workload:<16} (absent from the change ledger)");
            continue;
        };
        for (name, unit, better, bound) in &metrics {
            let (Some(pv), Some(cv)) = (p_metrics.get(name), c_metrics.get(name)) else {
                continue;
            };
            let exact = crate::EXACT_UNITS.contains(&unit.as_str());
            let row = stats::compare(pv, cv, *better, *bound, exact);
            any_worse |= row.verdict == Verdict::Worse;
            rows += 1;
            let side = |s: stats::Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<16} {:<28} {:>34} {:>34} {:>5.2}  {}{}",
                format!("{name} ({unit})"),
                side(row.parent),
                side(row.change),
                row.win_fraction,
                row.verdict.label(),
                if exact { " (exact)" } else { "" }
            );
        }
    }
    if rows == 0 {
        return Err("no workload × metric appears in both ledgers".into());
    }
    Ok(if any_worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
