//! The four benchmark workloads, one episode each.
//!
//! An episode runs in a fresh single-threaded process: set-up (server or
//! fleet build, `MeasurementCache` warm-up, catalog corpus), then one
//! timed run, then — in traced mode only — the per-layer replays. Every
//! timing is taken here, around calls into the crates' public
//! functions; nothing inside the program is instrumented beyond the
//! `Obs` registry it already has.
//!
//! All four workloads are closed loops stepped in simulated time, so no
//! generator can fall behind. The seed drives the cap schedule and every
//! fault, adversary, traffic and fleet-trace seed; the program receives
//! only what the seed generates.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::time::Instant;

use powermed_cluster::control::{
    self, BreakerConfig, ClusterFaultConfig, ControlOptions, FleetObsOptions, ManagedPolicy,
    ResilienceReport, WarmStartOptions,
};
use powermed_cluster::fleet::{self, WarmBoot};
use powermed_cluster::{ClusterManager, ClusterPowerTrace};
use powermed_core::coordinator::EsdParams;
use powermed_core::{
    AppMeasurement, HardeningConfig, MeasurementCache, PolicyKind, PowerMediator, PowerPolicy,
    TrustConfig,
};
use powermed_disagg::EstimatorConfig;
use powermed_esd::NoEsd;
use powermed_server::ServerSpec;
use powermed_sim::{AdversaryConfig, FaultConfig, ServerSim};
use powermed_telemetry::journal::{FleetTimeline, Obs, ObsConfig};
use powermed_telemetry::prom_label;
use powermed_traffic::TrafficConfig;
use powermed_units::{Ratio, Seconds, Watts};
use powermed_workloads::{catalog, mixes, AppProfile, Mix};

/// Control period of the single-server workloads (the paper's poll).
pub const SERVER_DT: Seconds = Seconds::new(0.1);
/// Control step of the fleet workloads.
pub const FLEET_DT: Seconds = Seconds::new(0.5);
/// Simulated seconds per `server_sweep` cell.
pub const SWEEP_CELL_SECONDS: f64 = 1080.0;
/// Independently seeded servers in `server_composed`.
pub const COMPOSED_SERVERS: usize = 32;
/// Simulated seconds per `server_composed` server.
pub const COMPOSED_SECONDS: f64 = 150.0;
/// Servers in `fleet_scale`.
pub const SCALE_SERVERS: usize = 100;
/// Length of the compressed `fleet_scale` day, in simulated seconds.
pub const SCALE_SECONDS: f64 = 240.0;
/// Servers in `fleet_faulty`.
pub const FAULTY_SERVERS: usize = 10;
/// Length of the `fleet_faulty` trace, in simulated seconds.
pub const FAULTY_SECONDS: f64 = 720.0;
/// Simulated seconds between two cap changes on the server workloads.
pub const CAP_PERIOD_SECONDS: f64 = 60.0;
/// The seeded cap schedule draws from `CAP_LO_W..=CAP_HI_W` in 0.5 W
/// steps.
pub const CAP_LO_W: f64 = 80.0;
/// Upper end of the cap range.
pub const CAP_HI_W: f64 = 110.0;
/// Peak share shaved off both fleet traces.
pub const FLEET_SHAVE: f64 = 0.15;
/// Online-calibration sampling fraction of `server_composed`.
pub const SAMPLING_FRACTION: f64 = 0.10;
/// Divisor applied to every simulated length by `--quick`.
pub const QUICK_DIVISOR: f64 = 100.0;
/// Cold set-ups per episode; the episode reports their median.
pub const SETUP_REPEATS: usize = 3;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's server setting: every Table II mix under every policy.
    ServerSweep,
    /// One server with every optional layer composed.
    ServerComposed,
    /// A 100-server fleet under utility-curve apportionment.
    FleetScale,
    /// A 10-server fleet with control-plane faults, warm start and the
    /// flight recorder.
    FleetFaulty,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Self::ServerSweep,
        Self::ServerComposed,
        Self::FleetScale,
        Self::FleetFaulty,
    ];

    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::ServerSweep => "server_sweep",
            Self::ServerComposed => "server_composed",
            Self::FleetScale => "fleet_scale",
            Self::FleetFaulty => "fleet_faulty",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What an episode runs besides the workload itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The workload alone: end-to-end metrics.
    Untraced,
    /// The workload with `Obs` attached and the benchmark's spans on,
    /// followed by the per-layer replays.
    Traced,
    /// `fleet_faulty` without the flight recorder (`run_cluster`): the
    /// recorder's cost is the difference, and its physics must match.
    RecorderOff,
    /// `fleet_faulty` with `warm_start: None`: the warm-start cost is
    /// the difference. The physics differ by design.
    WarmOff,
}

impl Mode {
    /// The name used on the child command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::Untraced => "untraced",
            Self::Traced => "traced",
            Self::RecorderOff => "recorder_off",
            Self::WarmOff => "warm_off",
        }
    }

    /// Looks a mode up by name.
    pub fn parse(name: &str) -> Option<Self> {
        [
            Self::Untraced,
            Self::Traced,
            Self::RecorderOff,
            Self::WarmOff,
        ]
        .into_iter()
        .find(|m| m.name() == name)
    }
}

/// One span the benchmark recorded around its own calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the episode began.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// In-memory span recorder; inert unless the episode is traced.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder measuring from `origin`, recording only when `on`.
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.origin.elapsed().as_nanos() as u64,
            dur_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if let Some(idx) = self.open.pop() {
            let end = self.origin.elapsed().as_nanos() as u64;
            self.spans[idx].dur_ns = end - self.spans[idx].start_ns;
        }
    }
}

/// Host latency of one operation: server polls, or fleet control steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Latency {
    /// How many operations were timed one by one (0 for fleets, where
    /// the timed run is one call and only the mean per step is known).
    pub samples: u64,
    /// Median, µs.
    pub p50_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// 99.9th percentile, µs (diagnostic only).
    pub p999_us: f64,
}

/// Everything one episode reports.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Host seconds from process start to the first timed call.
    pub setup_s: f64,
    /// Host seconds of the timed run.
    pub timed_s: f64,
    /// Simulated server-seconds covered by the timed run.
    pub sim_seconds: f64,
    /// Operations attempted: polls (plus admissions) on servers, control
    /// steps on fleets.
    pub ops: u64,
    /// Operations the program could not complete (admissions refused).
    pub failed: u64,
    /// Per-operation host latency.
    pub latency: Latency,
    /// Mean normalized application throughput (simulated).
    pub perf_norm: f64,
    /// Simulated seconds over the cap (servers) or the budget (fleets).
    pub cap_violation_s: f64,
    /// FNV digest of every deterministic output.
    pub digest: u64,
    /// The digest restricted to simulated physics (equal with and
    /// without the flight recorder).
    pub physics_digest: u64,
    /// Broken internal conditions (empty when the run is sound).
    pub invariant_failures: Vec<String>,
    /// Per-layer metrics (traced episodes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The benchmark's own spans (traced episodes only).
    pub spans: Vec<Span>,
}

/// FNV-1a over the deterministic outputs of a run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds the `Debug` rendering, which covers every field of the
    /// plain-data stats structs (floats render shortest-round-trip).
    fn debug(&mut self, v: &impl Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for one named stream of randomness, derived from the
/// workload seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut state = seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

/// Streams of randomness each workload derives from its seed.
mod stream {
    pub const FAULTS: u64 = 1;
    pub const ADVERSARY: u64 = 2;
    pub const TRAFFIC: u64 = 3;
    pub const FLEET_TRACE: u64 = 4;
    pub const CLUSTER_FAULTS: u64 = 5;
    /// Per-server seeds of `server_composed` use `CELLS + server index`.
    pub const CELLS: u64 = 1 << 16;
    /// Cap schedules use `CAPS + cell index`.
    pub const CAPS: u64 = 1 << 32;
}

/// `len` caps for one server on the 0.5 W grid over
/// `CAP_LO_W..=CAP_HI_W`, by stratified sampling: the range is cut into
/// `len` equal strata, one cap is drawn in each, and the draws are
/// shuffled. The seed decides the order and the point within each
/// stratum but not the spread of levels, so throughput does not swing
/// with how many low caps one seed happens to draw. Same `(seed, cell,
/// len)` gives the same schedule.
pub fn cap_schedule(seed: u64, cell: u64, len: usize) -> Vec<Watts> {
    let mut state = derive(seed, stream::CAPS + cell);
    let steps = ((CAP_HI_W - CAP_LO_W) / 0.5) as u64 + 1;
    let mut caps: Vec<Watts> = (0..len as u64)
        .map(|i| {
            let lo = i * steps / len as u64;
            let hi = ((i + 1) * steps / len as u64).max(lo + 1);
            let step = lo + splitmix64(&mut state) % (hi - lo);
            Watts::new(CAP_LO_W + 0.5 * step.min(steps - 1) as f64)
        })
        .collect();
    for i in (1..caps.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        caps.swap(i, j);
    }
    caps
}

/// Runs one episode of `workload`.
pub fn run(workload: Workload, seed: u64, quick: bool, mode: Mode) -> Episode {
    let divisor = if quick { QUICK_DIVISOR } else { 1.0 };
    let mut tracer = Tracer::new(mode == Mode::Traced, Instant::now());
    let mut ep = match workload {
        Workload::ServerSweep => server_sweep(seed, divisor, mode, &mut tracer),
        Workload::ServerComposed => server_composed(seed, divisor, mode, &mut tracer),
        Workload::FleetScale => fleet_scale(seed, divisor, mode, &mut tracer),
        Workload::FleetFaulty => fleet_faulty(seed, divisor, mode, &mut tracer),
    };
    if !(ep.perf_norm.is_finite() && ep.perf_norm > 0.0 && ep.perf_norm <= 1.5) {
        ep.invariant_failures
            .push(format!("perf_norm {} outside (0, 1.5]", ep.perf_norm));
    }
    if !(ep.cap_violation_s.is_finite() && ep.cap_violation_s >= 0.0) {
        ep.invariant_failures
            .push(format!("cap_violation_s {} negative", ep.cap_violation_s));
    }
    if mode == Mode::Traced {
        ep.layers.insert("bench.timed_s", ep.timed_s);
    }
    ep.spans = tracer.spans;
    ep
}

/// Runs `build` [`SETUP_REPEATS`] times, each from a cold
/// `MeasurementCache`, and returns the last state with the median host
/// seconds of one set-up. A single set-up is a few milliseconds, too
/// short to report from one sample.
fn set_up<T>(tracer: &mut Tracer, mut build: impl FnMut() -> T) -> (T, f64) {
    tracer.enter("setup");
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        MeasurementCache::global().clear();
        let t = Instant::now();
        state = Some(build());
        seconds.push(t.elapsed().as_secs_f64());
    }
    tracer.exit();
    let state = state.expect("SETUP_REPEATS is positive");
    (state, crate::stats::median(&seconds))
}

fn steps_for(seconds: f64, divisor: f64, dt: Seconds) -> u64 {
    ((seconds / divisor / dt.value()).round() as u64).max(1)
}

/// Per-poll samples in ns, summarized into the reported percentiles.
fn latency_of(mut samples: Vec<u32>) -> Latency {
    if samples.is_empty() {
        return Latency::default();
    }
    let us = |v: u32| f64::from(v) / 1e3;
    Latency {
        samples: samples.len() as u64,
        p50_us: us(crate::stats::percentile(&mut samples, 50.0)),
        p99_us: us(crate::stats::percentile(&mut samples, 99.0)),
        p999_us: us(crate::stats::percentile(&mut samples, 99.9)),
    }
}

/// `MeasurementCache` counters, for deltas across the timed run.
#[derive(Debug, Clone, Copy)]
struct CacheCounters {
    hits: u64,
    misses: u64,
    fit_hits: u64,
    fits: u64,
}

impl CacheCounters {
    fn now() -> Self {
        let c = MeasurementCache::global();
        Self {
            hits: c.hits(),
            misses: c.misses(),
            fit_hits: c.model_hits(),
            fits: c.model_misses(),
        }
    }

    fn record_since(self, layers: &mut BTreeMap<&'static str, f64>) {
        let now = Self::now();
        layers.insert("core.cache_hits", (now.hits - self.hits) as f64);
        layers.insert("core.cache_misses", (now.misses - self.misses) as f64);
        layers.insert("cf.fit_hits", (now.fit_hits - self.fit_hits) as f64);
        layers.insert("cf.fits", (now.fits - self.fits) as f64);
    }
}

/// Sum and count of the `Obs` span histogram `name`.
fn span_totals(obs: &Obs, name: &str) -> (f64, f64) {
    obs.metrics()
        .histogram(&prom_label("span_seconds", &[("name", name)]))
        .map_or((0.0, 0.0), |h| (h.sum(), h.count() as f64))
}

fn add(layers: &mut BTreeMap<&'static str, f64>, name: &'static str, v: f64) {
    *layers.entry(name).or_insert(0.0) += v;
}

/// Times `PowerPolicy::plan` for `apps` at each cap, appending host µs
/// per call to `out`.
fn plan_replay(
    policy: &PowerPolicy,
    apps: &[(&str, &AppMeasurement)],
    caps: &[Watts],
    esd: Option<EsdParams>,
    out: &mut Vec<f64>,
) {
    for &cap in caps {
        let t = Instant::now();
        let schedule = policy.plan(apps, cap, esd);
        out.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(schedule);
    }
}

/// The ESD parameters the cluster tier plans with.
fn cluster_esd() -> EsdParams {
    EsdParams {
        efficiency: Ratio::new(0.75),
        max_discharge: Watts::new(100.0),
        max_charge: Watts::new(50.0),
    }
}

/// Distinct caps of a schedule, in first-seen order, at most `limit`.
fn distinct(caps: &[Watts], limit: usize) -> Vec<Watts> {
    let mut out: Vec<Watts> = Vec::new();
    for &c in caps {
        if out.len() < limit && !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// Folds one finished server into the digest and returns
/// `(normalized throughput per app, violation seconds)`.
fn score_server(
    fnv: &mut Fnv,
    sim: &ServerSim,
    med: &PowerMediator,
    apps: &[&AppProfile],
    simulated: f64,
) -> (Vec<f64>, f64) {
    let spec = sim.server().spec();
    let mut perf = Vec::with_capacity(apps.len());
    for app in apps {
        let ops = sim.ops_done(app.name());
        fnv.f64(ops);
        perf.push(ops / (app.uncapped(spec).throughput * simulated));
    }
    let compliance = sim.meter().compliance();
    fnv.f64(sim.meter().energy().value());
    fnv.f64(compliance.violation_time.value());
    fnv.debug(&sim.fault_stats());
    fnv.debug(&sim.fault_trace());
    fnv.debug(&sim.adversary_stats());
    fnv.debug(&sim.traffic().map(|t| t.stats()));
    fnv.debug(&med.probe_split());
    fnv.debug(&med.hardening_stats());
    fnv.debug(&med.estimation_stats());
    fnv.debug(&med.trust_stats());
    fnv.u64(med.replans() as u64);
    (perf, compliance.violation_time.value())
}

/// Times `steps` raw simulator steps on a finished server (the mediator
/// is not involved), returning ns per step.
fn sim_replay(sim: &mut ServerSim, steps: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..steps {
        std::hint::black_box(sim.step(SERVER_DT));
    }
    t.elapsed().as_nanos() as f64 / steps as f64
}

/// One server of a server workload, built in set-up.
struct Cell {
    sim: ServerSim,
    med: PowerMediator,
    apps: Vec<AppProfile>,
    caps: Vec<Watts>,
}

/// Everything a server workload's timed loop accumulates.
#[derive(Default)]
struct ServerRun {
    fnv: Fnv,
    samples: Vec<u32>,
    perf: Vec<f64>,
    violation_s: f64,
    polls: u64,
    set_cap_s: f64,
    set_caps: u64,
    sim_step_ns: Vec<f64>,
    /// Traffic completions within the latency budget, pooled over cells.
    within_slo: u64,
    layers: BTreeMap<&'static str, f64>,
    invariant_failures: Vec<String>,
}

impl ServerRun {
    /// Steps one cell through its cap schedule, timing every poll, and
    /// scores it. Traced, it also reads the layer counters and replays
    /// `replay` raw simulator steps (which advance the scored server).
    fn run_cell(&mut self, cell: &mut Cell, steps: u64, period: u64, replay: Option<u64>) {
        let obs = replay.map(|_| {
            let obs = Obs::new(ObsConfig::default());
            cell.sim.set_observability(obs.clone());
            cell.med.set_observability(obs.clone());
            obs
        });
        let probes_before = cell.med.probe_split();
        let replans_before = cell.med.replans();
        for step in 0..steps {
            if step > 0 && step % period == 0 {
                let cap = cell.caps[(step / period) as usize];
                let t = Instant::now();
                cell.med.set_cap(&mut cell.sim, cap);
                self.set_cap_s += t.elapsed().as_secs_f64();
                self.set_caps += 1;
            }
            let t = Instant::now();
            let report = cell.med.step(&mut cell.sim, SERVER_DT);
            self.samples
                .push(u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX));
            std::hint::black_box(report);
        }
        self.polls += steps;
        let simulated = steps as f64 * SERVER_DT.value();
        let apps: Vec<&AppProfile> = cell.apps.iter().collect();
        let (perf, violation) = score_server(&mut self.fnv, &cell.sim, &cell.med, &apps, simulated);
        self.perf.extend(perf);
        self.violation_s += violation;
        let (Some(obs), Some(replay)) = (obs, replay) else {
            return;
        };
        let med = &cell.med;
        let probes = med.probe_split();
        let (cal_s, cals) = span_totals(&obs, "calibration");
        let (plan_s, plans) = span_totals(&obs, "plan");
        let replans = (med.replans() - replans_before) as f64;
        if replans != plans {
            self.invariant_failures
                .push(format!("{plans} plan spans but {replans} replans"));
        }
        let trust = med.trust_stats();
        let hardening = med.hardening_stats();
        let estimation = med.estimation_stats();
        let traffic = cell.sim.traffic().map(|t| t.stats()).unwrap_or_default();
        for (name, v) in [
            (
                "core.probes_cold",
                (probes.cold - probes_before.cold) as f64,
            ),
            (
                "core.probes_warm",
                (probes.warm - probes_before.warm) as f64,
            ),
            (
                "core.probes_skipped",
                (probes.skipped - probes_before.skipped) as f64,
            ),
            ("core.calibration_s", cal_s),
            ("core.calibrations", cals),
            ("core.plan_s", plan_s),
            ("core.plans", plans),
            ("telemetry.journal_events", obs.journal_counts().2 as f64),
            ("core.trust_quarantines", trust.quarantines as f64),
            ("core.trust_readmissions", trust.readmissions as f64),
            ("core.trust_containments", trust.containments as f64),
            ("core.hardening_retries", hardening.retries as f64),
            ("core.safe_mode_entries", hardening.safe_mode_entries as f64),
            ("disagg.estimates", estimation.estimates as f64),
            ("disagg.residual_spikes", estimation.residual_spikes as f64),
            (
                "disagg.fallback_engagements",
                estimation.fallback_engagements as f64,
            ),
            ("traffic.requests", traffic.requests as f64),
            ("traffic.completions", traffic.completions as f64),
        ] {
            add(&mut self.layers, name, v);
        }
        self.within_slo += traffic.within_slo;
        self.sim_step_ns.push(sim_replay(&mut cell.sim, replay));
    }

    fn finish(mut self, setup_s: f64, timed_s: f64, admissions: u64, refused: u64) -> Episode {
        if !self.sim_step_ns.is_empty() {
            self.layers
                .insert("sim.step_ns", crate::stats::median(&self.sim_step_ns));
            self.layers.insert("sim.steps", self.polls as f64);
            self.layers.insert("core.set_cap_s", self.set_cap_s);
            self.layers.insert("core.set_caps", self.set_caps as f64);
            self.layers.insert("core.cap_violation_s", self.violation_s);
            let completions = self.layers.get("traffic.completions").copied();
            if let Some(done) = completions.filter(|c| *c > 0.0) {
                self.layers
                    .insert("traffic.slo_attainment", self.within_slo as f64 / done);
            }
        }
        let digest = self.fnv.finish();
        Episode {
            setup_s,
            timed_s,
            sim_seconds: self.polls as f64 * SERVER_DT.value(),
            ops: self.polls + admissions,
            failed: refused,
            latency: latency_of(self.samples),
            perf_norm: self.perf.iter().sum::<f64>() / self.perf.len().max(1) as f64,
            cap_violation_s: self.violation_s,
            digest,
            physics_digest: digest,
            invariant_failures: self.invariant_failures,
            layers: self.layers,
            spans: Vec::new(),
        }
    }
}

/// Every Table II mix under every policy: fresh `fleet::build_server`
/// cells, each stepped through its own seeded cap schedule with the
/// oracle breakdown and exhaustive cached calibration.
fn server_sweep(seed: u64, divisor: f64, mode: Mode, tracer: &mut Tracer) -> Episode {
    let traced = mode == Mode::Traced;
    let steps = steps_for(SWEEP_CELL_SECONDS, divisor, SERVER_DT);
    let period = steps_for(CAP_PERIOD_SECONDS, divisor, SERVER_DT);
    let spec = ServerSpec::xeon_e5_2620();
    let (cells, setup_s) = set_up(tracer, || {
        let mut cells = Vec::new();
        for mix in mixes::table2() {
            for kind in PolicyKind::all() {
                let caps = cap_schedule(seed, cells.len() as u64, (steps / period) as usize + 1);
                let battery = kind == PolicyKind::AppResEsdAware;
                let (sim, med) = fleet::build_server(&spec, &mix, kind, battery, caps[0]);
                let apps = mix.apps().into_iter().cloned().collect();
                cells.push(Cell {
                    sim,
                    med,
                    apps,
                    caps,
                });
            }
        }
        cells
    });
    let plan_caps: Vec<Vec<Watts>> = cells.iter().map(|c| distinct(&c.caps, 4)).collect();
    let cache = CacheCounters::now();
    let mut run = ServerRun::default();
    tracer.enter("timed");
    let t = Instant::now();
    for mut cell in cells {
        tracer.enter("timed.cell");
        run.run_cell(&mut cell, steps, period, traced.then_some(300));
        tracer.exit();
    }
    let timed_s = t.elapsed().as_secs_f64();
    tracer.exit();
    if traced {
        cache.record_since(&mut run.layers);
        tracer.enter("replay.policy_plan");
        let policies: Vec<PowerPolicy> = PolicyKind::all()
            .into_iter()
            .map(|kind| PowerPolicy::new(kind, spec.clone()))
            .collect();
        let mut plan_us = Vec::new();
        for (m, mix) in mixes::table2().iter().enumerate() {
            let a = MeasurementCache::global().measure(&spec, &mix.app1);
            let b = MeasurementCache::global().measure(&spec, &mix.app2);
            let apps = [(mix.app1.name(), &*a), (mix.app2.name(), &*b)];
            for (k, policy) in policies.iter().enumerate() {
                let esd = (policy.kind() == PolicyKind::AppResEsdAware).then(cluster_esd);
                plan_replay(policy, &apps, &plan_caps[m * 5 + k], esd, &mut plan_us);
            }
        }
        run.layers
            .insert("core.policy_plan_us", crate::stats::median(&plan_us));
        tracer.exit();
    }
    run.finish(setup_s, timed_s, 0, 0)
}

/// The apps `server_composed` admits; kmeans is the adversary.
fn composed_apps() -> Vec<AppProfile> {
    vec![catalog::stream(), catalog::kmeans(), catalog::pagerank()]
}

/// One server with every optional layer: injected faults, a
/// knob-defying kmeans, open-loop traffic, and a mediator with
/// hardening, estimation, the integrity defense and online calibration.
/// Returns the cell and how many admissions were refused.
fn composed_cell(spec: &ServerSpec, seed: u64, caps: Vec<Watts>) -> (Cell, u64) {
    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd))
        .with_fault_injection(FaultConfig::default_scenario(derive(seed, stream::FAULTS)))
        .with_adversary(AdversaryConfig::noncompliance(
            derive(seed, stream::ADVERSARY),
            &["kmeans"],
        ));
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec.clone(), caps[0])
        .with_hardening(HardeningConfig::default())
        .with_estimation(EstimatorConfig::default())
        .with_integrity_defense(TrustConfig::default())
        .with_online_calibration(&catalog::all(), SAMPLING_FRACTION);
    let mut apps = Vec::new();
    let mut refused = 0;
    for app in composed_apps() {
        match med.admit(&mut sim, app.clone()) {
            Ok(()) => apps.push(app),
            Err(_) => refused += 1,
        }
    }
    sim.attach_traffic(TrafficConfig {
        seed: derive(seed, stream::TRAFFIC),
        ..TrafficConfig::default()
    });
    let cell = Cell {
        sim,
        med,
        apps,
        caps,
    };
    (cell, refused)
}

/// [`COMPOSED_SERVERS`] independently seeded composed servers, stepped
/// one after another. Quarantine and readmission churn, which drives
/// the calibration cost, varies from seed to seed; several servers per
/// run average it out.
fn server_composed(seed: u64, divisor: f64, mode: Mode, tracer: &mut Tracer) -> Episode {
    let traced = mode == Mode::Traced;
    let steps = steps_for(COMPOSED_SECONDS, divisor, SERVER_DT);
    let period = steps_for(CAP_PERIOD_SECONDS, divisor, SERVER_DT);
    let spec = ServerSpec::xeon_e5_2620();
    let (cells, setup_s) = set_up(tracer, || {
        (0..COMPOSED_SERVERS as u64)
            .map(|k| {
                let caps = cap_schedule(seed, k, (steps / period) as usize + 1);
                composed_cell(&spec, derive(seed, stream::CELLS + k), caps)
            })
            .collect::<Vec<_>>()
    });
    let refused = cells.iter().map(|(_, r)| r).sum();
    let cache = CacheCounters::now();
    let mut run = ServerRun::default();
    tracer.enter("timed");
    let t = Instant::now();
    let mut cells: Vec<Cell> = cells.into_iter().map(|(cell, _)| cell).collect();
    for cell in &mut cells {
        tracer.enter("timed.cell");
        run.run_cell(cell, steps, period, traced.then_some(500));
        tracer.exit();
    }
    let timed_s = t.elapsed().as_secs_f64();
    tracer.exit();
    if traced {
        cache.record_since(&mut run.layers);
        tracer.enter("replay.policy_plan");
        let policy = PowerPolicy::new(PolicyKind::AppResAware, spec);
        let mut plan_us = Vec::new();
        for cell in &cells {
            let measured: Vec<(&str, &AppMeasurement)> = cell
                .apps
                .iter()
                .filter_map(|a| cell.med.measurement(a.name()).map(|m| (a.name(), m)))
                .collect();
            plan_replay(
                &policy,
                &measured,
                &distinct(&cell.caps, 4),
                None,
                &mut plan_us,
            );
        }
        run.layers
            .insert("core.policy_plan_us", crate::stats::median(&plan_us));
        tracer.exit();
    }
    let admissions = (COMPOSED_SERVERS * composed_apps().len()) as u64;
    run.finish(setup_s, timed_s, admissions, refused)
}

/// The seeded compressed-day cap trace of a fleet, peak-shaved.
fn fleet_trace(servers: usize, seconds: f64, seed: u64) -> ClusterPowerTrace {
    ClusterPowerTrace::synthetic_diurnal(
        servers,
        Seconds::new(seconds),
        derive(seed, stream::FLEET_TRACE),
    )
    .peak_shaved(Ratio::new(FLEET_SHAVE))
}

/// Fills the `MeasurementCache` with every catalog surface, which is
/// what agents read when they admit their mixes.
fn warm_cache(spec: &ServerSpec) {
    for profile in catalog::all() {
        MeasurementCache::global().measure(spec, &profile);
    }
}

/// Control steps `run_cluster` takes over `trace`.
fn fleet_steps(trace: &ClusterPowerTrace) -> u64 {
    (trace.duration().value() / FLEET_DT.value()).ceil() as u64
}

/// `(physics digest, full digest)` of a fleet run. The full digest adds
/// the flight recorder's outputs.
fn fleet_digests(report: &ResilienceReport) -> (u64, u64) {
    let mut fnv = Fnv::default();
    fnv.f64(report.report.aggregate_normalized_perf);
    for p in &report.report.per_app_perf {
        fnv.f64(*p);
    }
    fnv.f64(report.report.energy.value());
    fnv.f64(report.violation_seconds);
    fnv.f64(report.excess_watt_seconds);
    fnv.debug(&report.stats);
    fnv.u64(report.trace_digest);
    fnv.debug(&report.probe_split);
    fnv.debug(&report.store_stats);
    fnv.debug(&report.store_divergence);
    let physics = fnv.finish();
    if let Some(fleet) = &report.fleet {
        fnv.u64(fleet.timeline.digest());
        fnv.u64(fleet.digest_bytes_total);
        fnv.u64(fleet.max_wave_bytes);
        fnv.u64(fleet.digest_gaps);
        fnv.debug(&fleet.last_acked);
    }
    (physics, fnv.finish())
}

/// The episode of a fleet run. The timed run is one call, so only the
/// mean host time per control step is known; it stands for both
/// latency percentiles.
fn fleet_episode(
    report: &ResilienceReport,
    servers: usize,
    steps: u64,
    setup_s: f64,
    timed_s: f64,
) -> Episode {
    let (physics_digest, digest) = fleet_digests(report);
    let step_us = timed_s * 1e6 / steps as f64;
    Episode {
        setup_s,
        timed_s,
        sim_seconds: servers as f64 * steps as f64 * FLEET_DT.value(),
        ops: steps,
        latency: Latency {
            samples: 0,
            p50_us: step_us,
            p99_us: step_us,
            p999_us: step_us,
        },
        perf_norm: report.report.aggregate_normalized_perf,
        cap_violation_s: report.violation_seconds,
        digest,
        physics_digest,
        ..Episode::default()
    }
}

/// Layer counters a fleet report carries.
fn fleet_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    report: &ResilienceReport,
    servers: usize,
    steps: u64,
) {
    let stats = report.stats;
    for (name, v) in [
        ("sim.steps", (servers as u64 * steps) as f64),
        ("core.cap_violation_s", report.violation_seconds),
        ("core.probes_cold", report.probe_split.cold as f64),
        ("core.probes_warm", report.probe_split.warm as f64),
        ("core.probes_skipped", report.probe_split.skipped as f64),
        ("cluster.injected_events", stats.injected_events() as f64),
        ("cluster.response_events", stats.response_events() as f64),
        ("cluster.heartbeat_misses", stats.heartbeat_misses as f64),
        ("cluster.reapportionments", stats.reapportionments as f64),
        ("cluster.breaker_trips", stats.breaker_trips as f64),
        ("profiles.store_hits", report.store_stats.hits as f64),
        ("profiles.store_misses", report.store_stats.misses as f64),
        (
            "profiles.divergence",
            report.store_divergence.unwrap_or(0) as f64,
        ),
    ] {
        layers.insert(name, v);
    }
}

/// 100 servers over one compressed diurnal day under utility-curve
/// apportionment: the cluster DP runs on every budget change.
fn fleet_scale(seed: u64, divisor: f64, mode: Mode, tracer: &mut Tracer) -> Episode {
    let traced = mode == Mode::Traced;
    let spec = ServerSpec::xeon_e5_2620();
    let ((mixes, trace), setup_s) = set_up(tracer, || {
        warm_cache(&spec);
        let mixes = ClusterManager::new(SCALE_SERVERS, seed).workload();
        (
            mixes,
            fleet_trace(SCALE_SERVERS, SCALE_SECONDS / divisor, seed),
        )
    });
    let steps = fleet_steps(&trace);
    let obs = traced.then(|| Obs::new(ObsConfig::default()));
    let cache = CacheCounters::now();
    tracer.enter("timed");
    let t = Instant::now();
    let report = control::run_cluster_observed(
        &mixes,
        ManagedPolicy::unequal_ours(),
        &trace,
        FLEET_DT,
        &ControlOptions::perfect(seed),
        obs.as_ref(),
    );
    let timed_s = t.elapsed().as_secs_f64();
    tracer.exit();
    let mut ep = fleet_episode(&report, SCALE_SERVERS, steps, setup_s, timed_s);
    let Some(obs) = obs else {
        return ep;
    };
    cache.record_since(&mut ep.layers);
    fleet_layers(&mut ep.layers, &report, SCALE_SERVERS, steps);
    obs_layers(&mut ep.layers, std::slice::from_ref(&obs), &obs);
    tracer.enter("replay.value_curves");
    let t = Instant::now();
    let curves = control::value_curves(&spec, &mixes);
    ep.layers
        .insert("cluster.value_curves_s", t.elapsed().as_secs_f64());
    tracer.exit();
    tracer.enter("replay.apportion");
    let budgets: Vec<Watts> = trace.samples().iter().map(|(_, w)| *w).collect();
    let mut apportion_ms = Vec::new();
    for budget in distinct(&budgets, budgets.len()).into_iter().step_by(8) {
        let t = Instant::now();
        std::hint::black_box(ClusterManager::apportion_cluster(&curves, budget));
        apportion_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    ep.layers
        .insert("cluster.apportion_ms", crate::stats::median(&apportion_ms));
    tracer.exit();
    tracer.enter("replay.policy_plan");
    ep.layers
        .insert("core.policy_plan_us", fleet_plan_us(&spec, &mixes));
    tracer.exit();
    ep
}

/// Span totals of a fleet run: calibration and plan spans from the
/// `servers`' registries, the coordination span from the `manager`'s.
fn obs_layers(layers: &mut BTreeMap<&'static str, f64>, servers: &[Obs], manager: &Obs) {
    for obs in servers {
        let (cal_s, cals) = span_totals(obs, "calibration");
        let (plan_s, plans) = span_totals(obs, "plan");
        add(layers, "core.calibration_s", cal_s);
        add(layers, "core.calibrations", cals);
        add(layers, "core.plan_s", plan_s);
        add(layers, "core.plans", plans);
    }
    let (coord_s, coords) = span_totals(manager, "coordination");
    layers.insert("cluster.coordination_s", coord_s);
    layers.insert("cluster.coordinations", coords);
}

/// Median µs of `PowerPolicy::plan` over the fleet's distinct mixes at
/// every candidate cap, as the cluster tier plans them.
fn fleet_plan_us(spec: &ServerSpec, mixes: &[Mix]) -> f64 {
    let policy = PowerPolicy::new(PolicyKind::AppResEsdAware, spec.clone());
    let caps: Vec<Watts> = ClusterManager::candidate_caps().collect();
    let mut seen = Vec::new();
    let mut plan_us = Vec::new();
    for mix in mixes {
        if seen.contains(&mix.id) {
            continue;
        }
        seen.push(mix.id);
        let a = MeasurementCache::global().measure(spec, &mix.app1);
        let b = MeasurementCache::global().measure(spec, &mix.app2);
        let apps = [(mix.app1.name(), &*a), (mix.app2.name(), &*b)];
        plan_replay(&policy, &apps, &caps, Some(cluster_esd()), &mut plan_us);
    }
    crate::stats::median(&plan_us)
}

/// The resilient fleet under the reference churn + message-loss
/// scenario with the breaker armed, warm start on (unless ablated),
/// and the flight recorder shipping journals (unless switched off).
fn fleet_faulty(seed: u64, divisor: f64, mode: Mode, tracer: &mut Tracer) -> Episode {
    let traced = mode == Mode::Traced;
    let spec = ServerSpec::xeon_e5_2620();
    let options = ControlOptions {
        resilient: true,
        faults: ClusterFaultConfig::default_scenario(derive(seed, stream::CLUSTER_FAULTS)),
        breaker: BreakerConfig::default(),
        warm_start: (mode != Mode::WarmOff).then(WarmStartOptions::warm),
        ..ControlOptions::perfect(seed)
    };
    let recorder = FleetObsOptions::default();
    let ((mixes, trace), setup_s) = set_up(tracer, || {
        warm_cache(&spec);
        let mixes = ClusterManager::new(FAULTY_SERVERS, seed).workload();
        // One online admission fits the catalog corpus's completion
        // models into the shared cache, as the fleet's first boot would.
        let warm_boot = WarmBoot {
            store: None,
            server_id: 0,
            sampling_fraction: WarmStartOptions::warm().sampling_fraction,
        };
        std::hint::black_box(fleet::build_server_with(
            &spec,
            &mixes[0],
            ManagedPolicy::equal_ours().kind,
            true,
            Watts::new(CAP_HI_W),
            Some(warm_boot),
        ));
        (
            mixes,
            fleet_trace(FAULTY_SERVERS, FAULTY_SECONDS / divisor, seed),
        )
    });
    let steps = fleet_steps(&trace);
    let cache = CacheCounters::now();
    tracer.enter("timed");
    let t = Instant::now();
    let policy = ManagedPolicy::equal_ours();
    let report = if mode == Mode::RecorderOff {
        control::run_cluster(&mixes, policy, &trace, FLEET_DT, &options)
    } else {
        control::run_cluster_flight_recorded(&mixes, policy, &trace, FLEET_DT, &options, &recorder)
    };
    let timed_s = t.elapsed().as_secs_f64();
    tracer.exit();
    let mut ep = fleet_episode(&report, FAULTY_SERVERS, steps, setup_s, timed_s);
    if !traced {
        return ep;
    }
    let Some(fleet) = report.fleet.as_ref() else {
        ep.invariant_failures
            .push("flight-recorded run returned no fleet report".into());
        return ep;
    };
    cache.record_since(&mut ep.layers);
    fleet_layers(&mut ep.layers, &report, FAULTY_SERVERS, steps);
    obs_layers(&mut ep.layers, &fleet.server_obs, &fleet.manager_obs);
    let journal_events: u64 = fleet
        .server_obs
        .iter()
        .chain(std::iter::once(&fleet.manager_obs))
        .map(|o| o.journal_counts().2)
        .sum();
    let timeline = &fleet.timeline;
    let offered = timeline.merged_total() + timeline.dedup_total();
    for (name, v) in [
        ("telemetry.journal_events", journal_events as f64),
        ("telemetry.digest_bytes", fleet.digest_bytes_total as f64),
        ("telemetry.timeline_len", timeline.len() as f64),
        ("telemetry.max_wave_bytes", fleet.max_wave_bytes as f64),
        (
            "telemetry.dedup_ratio",
            timeline.dedup_total() as f64 / offered.max(1) as f64,
        ),
    ] {
        ep.layers.insert(name, v);
    }
    tracer.enter("replay.journal");
    let mut digest_us = Vec::new();
    let mut merge_us = Vec::new();
    let mut replayed = FleetTimeline::new();
    for (i, server) in fleet.server_obs.iter().enumerate() {
        let t = Instant::now();
        let digest = server.digest_since(i as u64, 0, recorder.max_digest_bytes);
        digest_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        replayed.merge_digest(&digest);
        merge_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    ep.layers.insert(
        "telemetry.digest_since_us",
        crate::stats::median(&digest_us),
    );
    ep.layers
        .insert("telemetry.merge_us", crate::stats::median(&merge_us));
    tracer.exit();
    tracer.enter("replay.policy_plan");
    ep.layers
        .insert("core.policy_plan_us", fleet_plan_us(&spec, &mixes));
    tracer.exit();
    ep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cap_schedule_is_a_function_of_the_seed() {
        let a = cap_schedule(42, 7, 41);
        assert_eq!(a, cap_schedule(42, 7, 41));
        assert_ne!(a, cap_schedule(1337, 7, 41));
        assert_ne!(a, cap_schedule(42, 8, 41));
        for cap in &a {
            let w = cap.value();
            assert!((CAP_LO_W..=CAP_HI_W).contains(&w), "{w}");
            assert_eq!((w * 2.0).fract(), 0.0, "{w} off the 0.5 W grid");
        }
        // Stratified: one cap per 0.75 W stratum, so every seed covers
        // the range evenly and the mean barely moves.
        let mut sorted: Vec<f64> = a.iter().map(|c| c.value()).collect();
        sorted.sort_by(f64::total_cmp);
        for (i, w) in sorted.iter().enumerate() {
            let lo = CAP_LO_W + (CAP_HI_W + 0.5 - CAP_LO_W) * i as f64 / 41.0;
            assert!(*w >= lo - 0.5 && *w <= lo + 1.25, "stratum {i}: {w}");
        }
        let mean = |caps: &[Watts]| caps.iter().map(|c| c.value()).sum::<f64>() / caps.len() as f64;
        for seed in [1, 2, 3, 1337] {
            assert!((mean(&cap_schedule(seed, 0, 41)) - 95.0).abs() < 0.5);
        }
        // Shuffled: not in ascending order.
        assert_ne!(sorted, a.iter().map(|c| c.value()).collect::<Vec<_>>());
        // A one-cap schedule is still on the grid and in range.
        let one = cap_schedule(9, 0, 1)[0].value();
        assert!((CAP_LO_W..=CAP_HI_W).contains(&one));
    }

    #[test]
    fn derived_streams_are_distinct() {
        let seeds: Vec<u64> = (1..=5).map(|s| derive(42, s)).collect();
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(derive(42, 1), derive(43, 1));
    }

    #[test]
    fn workload_and_mode_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in [
            Mode::Untraced,
            Mode::Traced,
            Mode::RecorderOff,
            Mode::WarmOff,
        ] {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
