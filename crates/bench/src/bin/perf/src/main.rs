//! `perf`: a repeatable end-to-end and per-layer benchmark of the
//! simulator, the mediator and the fleet.
//!
//! ```text
//! perf [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--record FILE]
//! perf compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! Each workload runs as a sequence of episodes, each in a fresh
//! single-threaded child process, one child at a time, until `--seconds`
//! have passed. The parent reports, across episodes, the best value of
//! each host-time metric and the median of set-up time and memory. Without
//! `--trace` it prints the end-to-end metrics; with it, the per-layer
//! metrics of traced episodes interleaved with untraced ones. The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is nonzero when any
//! output is wrong: a digest that differs between episodes, between
//! traced and untraced runs, or from the committed golden value.
//! See README.md beside this file.

mod compare;
mod json;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use stats::{median, Better};
use workloads::{Mode, Workload};

/// The repository's benchmark definition: metric names, units, bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// Committed digests: `workload seed length digest`, one per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// Default seed; `1337` is held out for confirming later claims.
const DEFAULT_SEED: u64 = 42;
/// Every run first checks a `--quick` episode at this seed against its
/// golden digest, so a change to the simulated physics is caught
/// whatever seed the measured episodes use.
const CANARY_SEED: u64 = 42;
/// Measuring time per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 5.0;
/// Untraced episodes an end-to-end run needs at least, so that two
/// processes' digests can be compared.
const MIN_EPISODES: usize = 2;
/// Upper bound on episodes, however short they are.
const MAX_EPISODES: usize = 40;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, `<crate>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [Metric; 6] = [
    metric("sim_rate", "sim_s/s", Higher),
    metric("setup_s", "s", Lower),
    metric("poll_p50_us", "us", Lower),
    metric("poll_p99_us", "us", Lower),
    metric("peak_rss_mb", "MB", Lower),
    metric("perf_norm", "fraction", Higher),
];

/// Per-layer metrics, reported by `--trace` (zero where a workload does
/// not exercise the layer).
pub const PER_LAYER: [Metric; 52] = [
    metric("sim.step_ns", "ns", Lower),
    metric("sim.steps", "count", Lower),
    metric("core.poll_self_ns", "ns", Lower),
    metric("core.set_cap_s", "s", Lower),
    metric("core.set_caps", "count", Lower),
    metric("core.calibration_s", "s", Lower),
    metric("core.calibrations", "count", Lower),
    metric("core.probes_cold", "count", Lower),
    metric("core.probes_warm", "count", Lower),
    metric("core.probes_skipped", "count", Higher),
    metric("core.cache_hits", "count", Higher),
    metric("core.cache_misses", "count", Lower),
    metric("core.plan_s", "s", Lower),
    metric("core.plans", "count", Lower),
    metric("core.policy_plan_us", "us", Lower),
    metric("core.trust_quarantines", "count", Lower),
    metric("core.trust_readmissions", "count", Lower),
    metric("core.trust_containments", "count", Lower),
    metric("core.hardening_retries", "count", Lower),
    metric("core.safe_mode_entries", "count", Lower),
    metric("core.cap_violation_s", "sim_s", Lower),
    metric("cf.fits", "count", Lower),
    metric("cf.fit_hits", "count", Higher),
    metric("disagg.estimates", "count", Lower),
    metric("disagg.residual_spikes", "count", Lower),
    metric("disagg.fallback_engagements", "count", Lower),
    metric("traffic.requests", "count", Higher),
    metric("traffic.completions", "count", Higher),
    metric("traffic.slo_attainment", "fraction", Higher),
    metric("cluster.coordination_s", "s", Lower),
    metric("cluster.coordinations", "count", Lower),
    metric("cluster.apportion_ms", "ms", Lower),
    metric("cluster.value_curves_s", "s", Lower),
    metric("cluster.injected_events", "count", Lower),
    metric("cluster.response_events", "count", Lower),
    metric("cluster.heartbeat_misses", "count", Lower),
    metric("cluster.reapportionments", "count", Lower),
    metric("cluster.breaker_trips", "count", Lower),
    metric("profiles.store_hits", "count", Higher),
    metric("profiles.store_misses", "count", Lower),
    metric("profiles.divergence", "count", Lower),
    metric("profiles.warm_start_s", "s", Lower),
    metric("telemetry.recorder_s", "s", Lower),
    metric("telemetry.journal_events", "count", Lower),
    metric("telemetry.digest_bytes", "bytes", Lower),
    metric("telemetry.timeline_len", "count", Lower),
    metric("telemetry.max_wave_bytes", "bytes", Lower),
    metric("telemetry.dedup_ratio", "fraction", Lower),
    metric("telemetry.digest_since_us", "us", Lower),
    metric("telemetry.merge_us", "us", Lower),
    metric("telemetry.obs_overhead", "ratio", Lower),
    metric("bench.timed_s", "s", Lower),
];

/// Units of simulated quantities: they repeat exactly for a seed, so
/// `perf compare` compares them bit for bit.
pub const EXACT_UNITS: [&str; 4] = ["count", "bytes", "fraction", "sim_s"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("--child") => child_main(&args[1..]),
        _ => parse_options(&args).and_then(parent_main),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}

/// What the parent was asked to run.
#[derive(Debug, Clone, PartialEq)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    record: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        record: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value")).cloned();
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                opts.workloads
                    .push(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 3600.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => opts.quick = true,
            "--record" => opts.record = Some(value("--record")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }
    Ok(opts)
}

/// `--child W SEED MODE QUICK`: runs one episode and prints it as
/// `key value` lines for the parent.
fn child_main(args: &[String]) -> Result<ExitCode, String> {
    let [workload, seed, mode, quick] = args else {
        return Err("usage: --child WORKLOAD SEED MODE QUICK".into());
    };
    let workload = Workload::parse(workload).ok_or("unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "bad seed")?;
    let mode = Mode::parse(mode).ok_or("unknown mode")?;
    let ep = workloads::run(workload, seed, quick == "1", mode);
    let (peak_rss_mb, threads) = proc_status();
    let mut out = String::new();
    for (key, v) in [
        ("setup_s", ep.setup_s),
        ("timed_s", ep.timed_s),
        ("sim_seconds", ep.sim_seconds),
        ("poll_p50_us", ep.latency.p50_us),
        ("poll_p99_us", ep.latency.p99_us),
        ("poll_p999_us", ep.latency.p999_us),
        ("perf_norm", ep.perf_norm),
        ("cap_violation_s", ep.cap_violation_s),
        ("peak_rss_mb", peak_rss_mb),
    ] {
        out.push_str(&format!("{key} {v}\n"));
    }
    for (key, v) in [
        ("ops", ep.ops),
        ("failed", ep.failed),
        ("latency_samples", ep.latency.samples),
        ("threads", threads),
    ] {
        out.push_str(&format!("{key} {v}\n"));
    }
    out.push_str(&format!("digest {:#018x}\n", ep.digest));
    out.push_str(&format!("physics_digest {:#018x}\n", ep.physics_digest));
    for text in &ep.invariant_failures {
        out.push_str(&format!("invariant {text}\n"));
    }
    for (name, v) in &ep.layers {
        out.push_str(&format!("layer {name} {v}\n"));
    }
    for s in &ep.spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "span {} {parent} {} {}\n",
            s.name, s.start_ns, s.dur_ns
        ));
    }
    std::io::stdout()
        .write_all(out.as_bytes())
        .map_err(|e| format!("writing episode: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// `(VmHWM in MB, thread count)` of this process.
fn proc_status() -> (f64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| -> Option<u64> {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    };
    let hwm_kb = field("VmHWM:").unwrap_or(0);
    (hwm_kb as f64 / 1024.0, field("Threads:").unwrap_or(0))
}

/// One episode as the parent received it.
#[derive(Debug, Clone, Default)]
struct Received {
    values: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    invariants: Vec<String>,
    layers: BTreeMap<String, f64>,
    spans: Vec<(String, String, u64, u64)>,
}

impl Received {
    fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(f64::NAN)
    }

    fn count(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn sim_rate(&self) -> f64 {
        self.value("sim_seconds") / self.value("timed_s")
    }

    fn parse(text: &str) -> Option<Self> {
        let mut r = Self::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ')?;
            match key {
                "invariant" => r.invariants.push(rest.to_string()),
                "layer" => {
                    let (name, v) = rest.split_once(' ')?;
                    r.layers.insert(name.to_string(), v.parse().ok()?);
                }
                "span" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [name, parent, start, dur] = f[..] else {
                        return None;
                    };
                    r.spans.push((
                        name.into(),
                        parent.into(),
                        start.parse().ok()?,
                        dur.parse().ok()?,
                    ));
                }
                "ops" | "failed" | "latency_samples" | "threads" => {
                    r.counts.insert(key.to_string(), rest.parse().ok()?);
                }
                "digest" | "physics_digest" => {
                    let hex = rest.strip_prefix("0x")?;
                    r.counts
                        .insert(key.to_string(), u64::from_str_radix(hex, 16).ok()?);
                }
                _ => {
                    r.values.insert(key.to_string(), rest.parse().ok()?);
                }
            }
        }
        r.counts.contains_key("digest").then_some(r)
    }
}

/// Runs one episode in a fresh child process and waits for it.
fn spawn(workload: Workload, seed: u64, mode: Mode, quick: bool) -> Result<Received, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perf: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--child",
            workload.name(),
            &seed.to_string(),
            mode.name(),
            if quick { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} episode: {e}", workload.name()))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} episode exited with {}",
            workload.name(),
            mode.name(),
            out.status
        ));
    }
    Received::parse(&String::from_utf8_lossy(&out.stdout)).ok_or_else(|| {
        format!(
            "{} {} episode printed no result",
            workload.name(),
            mode.name()
        )
    })
}

/// The committed digest of `(workload, seed, quick)`, if there is one.
fn golden(workload: Workload, seed: u64, quick: bool) -> Option<u64> {
    let length = if quick { "quick" } else { "full" };
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f[..] {
                [w, s, l, d] if w == workload.name() && s == seed.to_string() && l == length => {
                    u64::from_str_radix(d.trim_start_matches("0x"), 16).ok()
                }
                _ => None,
            }
        })
}

/// The result of measuring one workload.
#[derive(Debug, Default)]
struct Outcome {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(Metric, f64)>,
    diagnostics: Vec<String>,
}

/// Episodes of one measuring run, by mode.
#[derive(Debug, Default)]
struct Runs {
    untraced: Vec<Received>,
    traced: Vec<Received>,
    recorder_off: Vec<Received>,
    warm_off: Vec<Received>,
}

fn med_of(runs: &[Received], f: impl Fn(&Received) -> f64) -> f64 {
    let v: Vec<f64> = runs.iter().map(f).collect();
    if v.is_empty() {
        f64::NAN
    } else {
        median(&v)
    }
}

/// Runs one episode, folding its operation counts and any broken
/// condition (extra threads, failed invariants, a crash) into `out`.
fn episode(w: Workload, mode: Mode, seed: u64, quick: bool, out: &mut Outcome) -> Option<Received> {
    match spawn(w, seed, mode, quick) {
        Ok(r) => {
            out.attempted += r.count("ops");
            out.failed += r.count("failed");
            if r.count("threads") != 1 {
                out.problems.push(format!(
                    "{} episode ran {} threads",
                    mode.name(),
                    r.count("threads")
                ));
            }
            for text in &r.invariants {
                out.problems
                    .push(format!("{} episode: {text}", mode.name()));
            }
            Some(r)
        }
        Err(e) => {
            out.problems.push(e);
            None
        }
    }
}

/// Measures one workload for `seconds`.
fn measure(w: Workload, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    if let Some(canary) = episode(w, Mode::Untraced, CANARY_SEED, true, &mut out) {
        check_golden(w, CANARY_SEED, true, &canary, &mut out);
    }
    let mut runs = Runs::default();
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let min = if opts.trace { 1 } else { MIN_EPISODES };
    while runs.untraced.len() < MAX_EPISODES
        && (runs.untraced.len() < min || Instant::now() < deadline)
    {
        let before = out.problems.len();
        runs.untraced
            .extend(episode(w, Mode::Untraced, opts.seed, opts.quick, &mut out));
        if opts.trace {
            runs.traced
                .extend(episode(w, Mode::Traced, opts.seed, opts.quick, &mut out));
            if w == Workload::FleetFaulty {
                runs.recorder_off.extend(episode(
                    w,
                    Mode::RecorderOff,
                    opts.seed,
                    opts.quick,
                    &mut out,
                ));
                runs.warm_off
                    .extend(episode(w, Mode::WarmOff, opts.seed, opts.quick, &mut out));
            }
        }
        if out.problems.len() > before && runs.untraced.is_empty() {
            break;
        }
    }
    check_episodes(w, opts, &runs, &mut out);
    if runs.untraced.is_empty() || (opts.trace && runs.traced.is_empty()) {
        out.problems.push("no episode completed".into());
        return out;
    }
    if opts.trace {
        layer_metrics(w, &runs, &mut out);
        let note = write_trace_file(w, opts, &runs, &out.metrics);
        out.diagnostics.push(note);
    } else {
        end_to_end_metrics(&runs, &mut out);
    }
    out
}

fn check_golden(w: Workload, seed: u64, quick: bool, r: &Received, out: &mut Outcome) {
    if let Some(want) = golden(w, seed, quick) {
        let got = r.count("digest");
        if got != want {
            let length = if quick { "quick" } else { "full" };
            out.problems.push(format!(
                "{} seed {seed} {length} digest {got:#018x}, golden {want:#018x}",
                w.name()
            ));
        }
    }
}

/// Every cross-episode equality the outputs must satisfy.
fn check_episodes(w: Workload, opts: &Options, runs: &Runs, out: &mut Outcome) {
    let Some(first) = runs.untraced.first() else {
        return;
    };
    check_golden(w, opts.seed, opts.quick, first, out);
    let digest = first.count("digest");
    let mut expect = |what: &str, rs: &[Received], key: &str, want: u64| {
        for r in rs {
            if r.count(key) != want {
                out.problems.push(format!(
                    "{what} {key} {:#018x} differs from the untraced {want:#018x}",
                    r.count(key)
                ));
            }
        }
    };
    expect("untraced episode", &runs.untraced, "digest", digest);
    expect("traced episode", &runs.traced, "digest", digest);
    expect(
        "recorder-off episode",
        &runs.recorder_off,
        "physics_digest",
        first.count("physics_digest"),
    );
    if let Some(w0) = runs.warm_off.first() {
        expect(
            "warm-start-off episode",
            &runs.warm_off,
            "digest",
            w0.count("digest"),
        );
    }
}

/// The best episode's value of a host-time metric. On a shared host,
/// interference only ever slows an episode down, and it comes in bursts
/// that span whole episodes; the fastest episode of a run is the
/// steadiest estimate of the program's own cost (README.md has the
/// measurements behind this choice).
fn best_of(runs: &[Received], better: Better, f: impl Fn(&Received) -> f64) -> f64 {
    let values = runs.iter().map(f);
    match better {
        Higher => values.fold(f64::NEG_INFINITY, f64::max),
        Lower => values.fold(f64::INFINITY, f64::min),
    }
}

fn end_to_end_metrics(runs: &Runs, out: &mut Outcome) {
    let u = &runs.untraced;
    let values = [
        best_of(u, Higher, Received::sim_rate),
        med_of(u, |r| r.value("setup_s")),
        best_of(u, Lower, |r| r.value("poll_p50_us")),
        best_of(u, Lower, |r| r.value("poll_p99_us")),
        med_of(u, |r| r.value("peak_rss_mb")),
        u[0].value("perf_norm"),
    ];
    out.metrics = END_TO_END.into_iter().zip(values).collect();
    let samples = u[0].count("latency_samples");
    out.diagnostics.push(format!("episodes {}", u.len()));
    out.diagnostics.push(if samples > 0 {
        format!(
            "poll samples {samples} per episode, p99.9 {:.3} us",
            med_of(u, |r| r.value("poll_p999_us"))
        )
    } else {
        "poll latency is the mean per fleet control step (one timed call per episode)".into()
    });
    out.diagnostics.push(format!(
        "cap_violation_s {} (simulated)",
        u[0].value("cap_violation_s")
    ));
}

fn layer_metrics(w: Workload, runs: &Runs, out: &mut Outcome) {
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    for m in PER_LAYER {
        let v = med_of(&runs.traced, |r| {
            r.layers.get(m.name).copied().unwrap_or(0.0)
        });
        layers.insert(m.name, v);
    }
    let untraced_timed = med_of(&runs.untraced, |r| r.value("timed_s"));
    if layers["sim.step_ns"] > 0.0 {
        let p50_ns = med_of(&runs.untraced, |r| r.value("poll_p50_us")) * 1e3;
        layers.insert("core.poll_self_ns", p50_ns - layers["sim.step_ns"]);
    }
    layers.insert(
        "telemetry.obs_overhead",
        med_of(&runs.untraced, Received::sim_rate) / med_of(&runs.traced, Received::sim_rate) - 1.0,
    );
    if w == Workload::FleetFaulty {
        let off = |rs: &[Received]| untraced_timed - med_of(rs, |r| r.value("timed_s"));
        layers.insert("telemetry.recorder_s", off(&runs.recorder_off));
        layers.insert("profiles.warm_start_s", off(&runs.warm_off));
    }
    let timed = layers["bench.timed_s"];
    for (label, share) in [
        (
            "coordination share of the traced run",
            layers["cluster.coordination_s"] / timed,
        ),
        (
            "calibration share of the traced run",
            layers["core.calibration_s"] / timed,
        ),
        (
            "plan share of the traced run",
            layers["core.plan_s"] / timed,
        ),
        (
            "recorder + warm-start share of the untraced run",
            (layers["telemetry.recorder_s"] + layers["profiles.warm_start_s"]) / untraced_timed,
        ),
    ] {
        if share != 0.0 {
            out.diagnostics
                .push(format!("{label}: {:.1}%", share * 100.0));
        }
    }
    out.diagnostics.push(format!(
        "rounds {} (untraced + traced{})",
        runs.traced.len(),
        if w == Workload::FleetFaulty {
            " + recorder-off + warm-start-off"
        } else {
            ""
        }
    ));
    out.metrics = PER_LAYER.into_iter().map(|m| (m, layers[m.name])).collect();
}

/// Writes the traced run's layers, per-episode summaries and the first
/// traced episode's spans to `target/perf/trace-<workload>-<seed>.json`.
fn write_trace_file(w: Workload, opts: &Options, runs: &Runs, metrics: &[(Metric, f64)]) -> String {
    let episodes = |rs: &[Received]| -> String {
        let rows: Vec<String> = rs
            .iter()
            .map(|r| {
                let fields: Vec<String> = [
                    "setup_s",
                    "timed_s",
                    "sim_seconds",
                    "poll_p50_us",
                    "poll_p99_us",
                    "peak_rss_mb",
                ]
                .iter()
                .map(|k| format!("{}: {}", json::quote(k), json::num(r.value(k))))
                .collect();
                format!("{{{}}}", fields.join(", "))
            })
            .collect();
        format!("[{}]", rows.join(", "))
    };
    let layers: Vec<String> = metrics
        .iter()
        .map(|(m, v)| format!("    {}: {}", json::quote(m.name), json::num(*v)))
        .collect();
    let spans: Vec<String> = runs.traced.first().map_or(Vec::new(), |r| {
        r.spans
            .iter()
            .map(|(name, parent, start, dur)| {
                let parent = if parent == "-" { "null" } else { parent };
                format!(
                    "    {{\"name\": {}, \"parent\": {parent}, \"start_ns\": {start}, \"dur_ns\": {dur}}}",
                    json::quote(name)
                )
            })
            .collect()
    });
    let doc = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"quick\": {},\n  \"layers\": {{\n{}\n  }},\n  \"episodes\": {{\"untraced\": {}, \"traced\": {}, \"recorder_off\": {}, \"warm_off\": {}}},\n  \"spans\": [\n{}\n  ]\n}}\n",
        json::quote(w.name()),
        opts.seed,
        opts.quick,
        layers.join(",\n"),
        episodes(&runs.untraced),
        episodes(&runs.traced),
        episodes(&runs.recorder_off),
        episodes(&runs.warm_off),
        spans.join(",\n")
    );
    let dir = std::path::Path::new("target").join("perf");
    let path = dir.join(format!("trace-{}-{}.json", w.name(), opts.seed));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => format!("trace written to {}", path.display()),
        Err(e) => format!("trace not written to {}: {e}", path.display()),
    }
}

fn parent_main(opts: Options) -> Result<ExitCode, String> {
    let mut correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics: Vec<(String, &str, f64)> = Vec::new();
    let prefix = opts.workloads.len() > 1;
    for &w in &opts.workloads {
        let outcome = measure(w, &opts);
        print_outcome(w, &opts, &outcome);
        correct &= outcome.problems.is_empty();
        attempted += outcome.attempted;
        failed += outcome.failed;
        let named: Vec<(String, &str, f64)> = outcome
            .metrics
            .iter()
            .map(|(m, v)| {
                let name = if prefix {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.to_string()
                };
                (name, m.unit, *v)
            })
            .collect();
        if let Some(path) = &opts.record {
            let line = result_line(
                outcome.problems.is_empty(),
                outcome.attempted,
                outcome.failed,
                outcome.metrics.iter().map(|(m, v)| (m.name, m.unit, *v)),
                Some((w, &opts)),
            );
            append_line(path, &line)?;
        }
        metrics.extend(named);
    }
    let line = result_line(
        correct,
        attempted.max(1),
        failed,
        metrics.iter().map(|(n, u, v)| (n.as_str(), *u, *v)),
        None,
    );
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn print_outcome(w: Workload, opts: &Options, outcome: &Outcome) {
    let kind = if opts.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    println!(
        "== {} seed {}{} ({kind})",
        w.name(),
        opts.seed,
        if opts.quick { " quick" } else { "" }
    );
    for (m, v) in &outcome.metrics {
        println!("  {:<28} {:>16} {}", m.name, format!("{v:.6}"), m.unit);
    }
    for d in &outcome.diagnostics {
        println!("  # {d}");
    }
    println!(
        "  # attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
    for p in &outcome.problems {
        println!("  ! {p}");
    }
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`, plus
/// the workload, seed and pass when written to a `--record` ledger.
fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a str, &'a str, f64)>,
    record: Option<(Workload, &Options)>,
) -> String {
    let fields: Vec<String> = metrics
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::num(v),
                json::quote(unit)
            )
        })
        .collect();
    let head = record.map_or(String::new(), |(w, o)| {
        format!(
            "\"workload\": {}, \"seed\": {}, \"trace\": {}, \"quick\": {}, ",
            json::quote(w.name()),
            o.seed,
            o.trace,
            o.quick
        )
    });
    format!(
        "{{{head}\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn append_line(path: &str, line: &str) -> Result<(), String> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("opening {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("writing {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(json::Value::as_array)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn listed(metrics: &[Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| {
                let better = match m.better {
                    Lower => "lower",
                    Higher => "higher",
                };
                (m.name.into(), m.unit.into(), better.into())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        assert_eq!(declared("end_to_end"), listed(&END_TO_END));
        assert_eq!(declared("per_layer"), listed(&PER_LAYER));
        let doc = json::parse(BENCHMARK_JSON).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Value::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn golden_digests_cover_both_seeds_of_every_workload() {
        for w in Workload::ALL {
            for (seed, quick) in [(42, true), (42, false), (1337, false)] {
                assert!(golden(w, seed, quick).is_some(), "{} {seed}", w.name());
            }
        }
    }

    #[test]
    fn options_parse_the_long_and_the_short_forms() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let o = parse_options(&args(
            "--workload fleet_scale --seed 7 --seconds 10 --trace 0",
        ))
        .unwrap();
        assert_eq!(o.workloads, vec![Workload::FleetScale]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, false));
        let o = parse_options(&args("--trace --quick")).unwrap();
        assert!(o.trace && o.quick);
        assert_eq!(o.workloads.len(), 4);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert!(parse_options(&args("--trace 1 --seed x")).is_err());
        assert!(parse_options(&args("--workload nope")).is_err());
        assert!(parse_options(&args("--seconds -1")).is_err());
    }

    #[test]
    fn received_episodes_round_trip() {
        let text = "setup_s 0.5\ntimed_s 2\nsim_seconds 100\nops 7\nthreads 1\ndigest 0x0000000000000063\nphysics_digest 0x62\ninvariant a b c\nlayer core.plans 3\nspan timed - 10 20\n";
        let r = Received::parse(text).expect("parses");
        assert_eq!(r.sim_rate(), 50.0);
        assert_eq!(r.count("digest"), 99);
        assert_eq!(r.invariants, vec!["a b c".to_string()]);
        assert_eq!(r.layers["core.plans"], 3.0);
        assert_eq!(r.spans[0], ("timed".into(), "-".into(), 10, 20));
        assert!(Received::parse("setup_s 1\n").is_none());
    }
}
