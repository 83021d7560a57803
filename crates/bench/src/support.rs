//! Shared helpers for the experiment harness.

use powermed_core::cache::MeasurementCache;
use powermed_core::measurement::AppMeasurement;
use powermed_core::policy::PolicyKind;
use powermed_core::runtime::PowerMediator;
use powermed_esd::{EnergyStorage, LeadAcidBattery, NoEsd};
use powermed_server::ServerSpec;
use powermed_sim::engine::ServerSim;
use powermed_units::{Seconds, Watts};
use powermed_workloads::mixes::Mix;
use powermed_workloads::profile::AppProfile;

/// Simulation step used by every experiment (the paper's runtime operates
/// at sub-second granularity).
pub const DT: Seconds = Seconds::new(0.1);

/// Outcome of simulating one mix under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MixOutcome {
    /// `(app name, throughput normalized to uncapped solo-rate)` pairs.
    pub per_app: Vec<(String, f64)>,
    /// Mean of the per-app normalized throughputs (the figure bars).
    pub mean_normalized: f64,
    /// Fraction of time the net draw exceeded the cap.
    pub violation_fraction: f64,
    /// Fraction of each app's power budget under the final allocation
    /// (Fig. 8b), when the schedule assigns simultaneous settings.
    pub power_split: Option<(f64, f64)>,
}

/// Builds the `NoEsd` or charged-Lead-Acid simulator for an experiment.
pub fn make_sim(spec: &ServerSpec, with_battery: bool) -> ServerSim {
    let esd: Box<dyn EnergyStorage> = if with_battery {
        Box::new(LeadAcidBattery::server_ups().with_soc(0.3))
    } else {
        Box::new(NoEsd)
    };
    ServerSim::new(spec.clone(), esd)
}

/// Simulates `mix` under `kind` at `cap` for `duration`, returning the
/// normalized-throughput outcome.
pub fn simulate_mix(
    kind: PolicyKind,
    mix: &Mix,
    cap: Watts,
    with_battery: bool,
    duration: Seconds,
) -> MixOutcome {
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = make_sim(&spec, with_battery);
    let mut mediator = PowerMediator::new(kind, spec.clone(), cap);
    for app in mix.apps() {
        mediator
            .admit(&mut sim, app.clone())
            .expect("mix fits on the server");
    }
    let steps = (duration.value() / DT.value()).round() as u64;
    for _ in 0..steps {
        mediator.step(&mut sim, DT);
    }
    let simulated = DT.value() * steps as f64;

    let mut per_app = Vec::new();
    for app in mix.apps() {
        let rate = app.uncapped(&spec).throughput;
        let done = sim.ops_done(app.name());
        per_app.push((app.name().to_string(), done / (rate * simulated)));
    }
    let mean = per_app.iter().map(|(_, v)| v).sum::<f64>() / per_app.len() as f64;

    // Extract the power split from the final schedule, when spatial.
    let power_split = match mediator.schedule() {
        powermed_core::coordinator::Schedule::Space { settings }
        | powermed_core::coordinator::Schedule::EsdCycle { settings, .. } => {
            let powers: Vec<f64> = mix
                .apps()
                .iter()
                .filter_map(|a| {
                    let idx = settings.get(a.name())?;
                    let m = mediator.measurement(a.name())?;
                    Some(m.power(*idx).value())
                })
                .collect();
            if powers.len() == 2 && powers[0] + powers[1] > 0.0 {
                let total = powers[0] + powers[1];
                Some((powers[0] / total, powers[1] / total))
            } else {
                None
            }
        }
        _ => None,
    };

    MixOutcome {
        per_app,
        mean_normalized: mean,
        violation_fraction: sim.meter().compliance().violation_fraction(),
        power_split,
    }
}

/// Ground-truth utility surface for `profile` on the reference platform.
///
/// Served from the process-wide [`MeasurementCache`], so repeated
/// requests for the same `(spec, profile)` pair across experiments
/// share one exhaustive evaluation pass.
pub fn measure(spec: &ServerSpec, profile: &AppProfile) -> AppMeasurement {
    (*MeasurementCache::global().measure(spec, profile)).clone()
}

/// `BENCH_harness.json` as a set of top-level sections, so multiple
/// harness binaries (`all`, `ext_faults`, …) can each update their own
/// section without clobbering the others'.
///
/// The build is offline (no serialization crate), so this is a minimal
/// top-level splitter: it separates `"key": value` pairs at brace depth
/// zero and keeps each value as the raw pre-rendered JSON text. That is
/// enough because every writer goes through this type, and values are
/// rendered once and carried verbatim thereafter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessDoc {
    sections: Vec<(String, String)>,
}

impl HarnessDoc {
    /// Reads `path`, parsing the existing sections. A missing or
    /// malformed file yields an empty document (the section about to be
    /// written survives; unknown hand-edits do not).
    pub fn load(path: &str) -> Self {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|text| Self::parse(&text))
            .unwrap_or_default()
    }

    /// Parses a JSON object's top-level `"key": value` pairs. Returns
    /// `None` when `json` is not a braced object with balanced nesting.
    pub fn parse(json: &str) -> Option<Self> {
        let body = json.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut items: Vec<String> = Vec::new();
        let mut item = String::new();
        let (mut depth, mut in_str, mut escape) = (0usize, false, false);
        for ch in body.chars() {
            if in_str {
                item.push(ch);
                if escape {
                    escape = false;
                } else if ch == '\\' {
                    escape = true;
                } else if ch == '"' {
                    in_str = false;
                }
                continue;
            }
            match ch {
                '"' => {
                    in_str = true;
                    item.push(ch);
                }
                '{' | '[' => {
                    depth += 1;
                    item.push(ch);
                }
                '}' | ']' => {
                    depth = depth.checked_sub(1)?;
                    item.push(ch);
                }
                ',' if depth == 0 => items.push(std::mem::take(&mut item)),
                _ => item.push(ch),
            }
        }
        if in_str || depth != 0 {
            return None;
        }
        if !item.trim().is_empty() {
            items.push(item);
        }
        let mut sections = Vec::new();
        for it in &items {
            let rest = it.trim().strip_prefix('"')?;
            let mut key = String::new();
            let mut close = None;
            let mut esc = false;
            for (i, c) in rest.char_indices() {
                if esc {
                    esc = false;
                    key.push(c);
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    close = Some(i);
                    break;
                } else {
                    key.push(c);
                }
            }
            let value = rest[close? + 1..].trim_start().strip_prefix(':')?.trim();
            sections.push((key, value.to_string()));
        }
        Some(Self { sections })
    }

    /// Inserts or replaces the section `key` with the pre-rendered JSON
    /// `value` (e.g. `"3.14"`, `"\"seconds\""`, or a [`json_object`]).
    pub fn set(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.sections.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value,
            None => self.sections.push((key.to_string(), value)),
        }
    }

    /// The raw pre-rendered JSON value of section `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.sections
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the document back to JSON text.
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.sections.iter().enumerate() {
            let sep = if i + 1 < self.sections.len() { "," } else { "" };
            out.push_str(&format!("  \"{k}\": {v}{sep}\n"));
        }
        out.push_str("}\n");
        out
    }

    /// Writes the rendered document to `path`.
    pub fn save(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }
}

/// Renders `pairs` as a JSON object literal indented for use as a
/// top-level [`HarnessDoc`] section value. Values are raw JSON text.
pub fn json_object(pairs: &[(String, String)]) -> String {
    if pairs.is_empty() {
        return "{}".to_string();
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in pairs.iter().enumerate() {
        let sep = if i + 1 < pairs.len() { "," } else { "" };
        out.push_str(&format!("    \"{k}\": {v}{sep}\n"));
    }
    out.push_str("  }");
    out
}

/// Formats a normalized value as a percent string (`0.873` → `"87.3%"`).
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Prints a horizontal rule with a title.
pub fn heading(title: &str) {
    println!("\n=== {title} ===");
}

/// Maps `f` over `items` on a small scoped worker pool, returning the
/// results in input order.
///
/// Each worker claims the next unstarted item through an atomic cursor
/// and writes the result into that item's slot, so the output order is
/// deterministic regardless of scheduling. Falls back to a plain serial
/// map for zero or one items or when only one hardware thread is
/// available. Panics in `f` propagate (the scope joins all workers
/// first).
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n)
        .min(8);
    if n <= 1 || workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let tasks: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = tasks[i]
                    .lock()
                    .expect("task slot lock")
                    .take()
                    .expect("each task is claimed exactly once");
                let out = f(item);
                *results[i].lock().expect("result slot lock") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every slot is filled before the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_workloads::mixes;

    #[test]
    fn simulate_mix_smoke() {
        let mix = mixes::mix(10).unwrap();
        let out = simulate_mix(
            PolicyKind::AppResAware,
            &mix,
            Watts::new(100.0),
            false,
            Seconds::new(5.0),
        );
        assert_eq!(out.per_app.len(), 2);
        assert!(out.mean_normalized > 0.3, "{out:?}");
        assert!(out.mean_normalized <= 1.05);
        assert!(out.violation_fraction < 0.05);
        assert!(out.power_split.is_some());
    }

    #[test]
    fn pct_format() {
        assert_eq!(pct(0.873), "87.3%");
    }

    #[test]
    fn par_map_preserves_input_order() {
        let expected: Vec<i64> = (0..100).map(|i| i * i).collect();
        let got = par_map((0..100).collect(), |i: i64| i * i);
        assert_eq!(got, expected);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<i32>::new(), |i| i), Vec::<i32>::new());
        assert_eq!(par_map(vec![7], |i| i + 1), vec![8]);
    }

    #[test]
    fn harness_doc_round_trips() {
        let mut doc = HarnessDoc::default();
        doc.set(
            "experiments",
            json_object(&[
                ("table1".to_string(), "1.250000".to_string()),
                ("fig2".to_string(), "0.300000".to_string()),
            ]),
        );
        doc.set("total_seconds", "1.550000");
        doc.set("unit", "\"seconds\"");
        let text = doc.render();
        let back = HarnessDoc::parse(&text).expect("own output parses");
        assert_eq!(back, doc);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn harness_doc_merges_without_clobbering_other_sections() {
        let mut all = HarnessDoc::default();
        all.set("experiments", json_object(&[("fig2".into(), "0.5".into())]));
        all.set("unit", "\"seconds\"");
        // A second binary loads the same text and adds its own section.
        let mut ext = HarnessDoc::parse(&all.render()).unwrap();
        ext.set(
            "ext_faults",
            json_object(&[("seconds".into(), "2.0".into())]),
        );
        let merged = ext.render();
        assert!(merged.contains("\"fig2\": 0.5"), "{merged}");
        assert!(merged.contains("\"ext_faults\""), "{merged}");
        // And the first binary re-running replaces only its section.
        let mut again = HarnessDoc::parse(&merged).unwrap();
        again.set("experiments", json_object(&[("fig2".into(), "0.7".into())]));
        let text = again.render();
        assert!(text.contains("\"fig2\": 0.7"), "{text}");
        assert!(!text.contains("\"fig2\": 0.5"), "{text}");
        assert!(text.contains("\"ext_faults\""), "{text}");
    }

    #[test]
    fn metrics_section_round_trips_through_the_harness_doc() {
        use powermed_telemetry::metrics::{prom_label, Histogram, MetricsRegistry};
        // A registry exactly as `ext_obs` writes it: counters (labeled
        // and bare), a gauge, and a log-bucketed histogram with samples.
        let mut metrics = MetricsRegistry::new();
        metrics.inc_by("events_total", 42);
        metrics.inc(&prom_label("events_by_kind_total", &[("kind", "poll")]));
        metrics.set_gauge("safe_mode_engaged", 1.0);
        metrics.register_histogram("cap_violation_w", Histogram::log_bucketed(1e-3, 2.0, 12));
        metrics.observe("cap_violation_w", 0.25);
        metrics.observe("cap_violation_w", 3.5);

        let mut doc = HarnessDoc::default();
        doc.set("experiments", json_object(&[("fig2".into(), "0.5".into())]));
        doc.set("ext_obs_metrics", metrics.to_json());
        let text = doc.render();

        // Other sections survive, and the metrics section reads back
        // as the exposition, byte for byte.
        let back = HarnessDoc::parse(&text).expect("own output parses");
        assert_eq!(back.get("experiments"), doc.get("experiments"));
        let section = back.get("ext_obs_metrics").expect("section present");
        assert_eq!(section, metrics.to_json(), "lossless round trip");
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn harness_doc_rejects_malformed_text() {
        assert!(HarnessDoc::parse("not json").is_none());
        assert!(HarnessDoc::parse("{\"a\": {unbalanced}").is_none());
        assert_eq!(
            HarnessDoc::parse("{}").unwrap(),
            HarnessDoc::default(),
            "an empty object is an empty document"
        );
    }
}
