//! One causal-chain walker: the decision audits behind `doctor
//! --explain` and the `ext_obs` report.
//!
//! An explain is data. One [`Explain`] entry in [`EXPLAINS`] lists the
//! stages of a causal chain; [`walk`] reconstructs the chain from a
//! merged [`FleetTimeline`], and [`render`] prints it: a question, one
//! line per record tagged with its stage's [`Role`] (cause, decide,
//! effect, release), and a verdict. A single server's journal is walked
//! as a one-source timeline ([`journal_timeline`]).
//!
//! The *anchor* is the decision being explained. Every [`Stage`] gives
//! an event predicate, a [`Pick`] that selects records relative to the
//! anchor, a [`Need`], and a display limit. The picks are:
//!
//! * [`Pick::Anchor`]: the anchor itself;
//! * [`Pick::Before`] / [`Pick::After`]: the nearest match before / after
//!   the anchor in its own journal;
//! * [`Pick::Since`]: every match since the last reset event before it;
//! * [`Pick::Streak`]: the countdown `k, k-1, …, 1` (`streak` / `misses`)
//!   that ends before it;
//! * [`Pick::Until`]: every match after it until a stop event;
//! * [`Pick::Window`]: matches from every source inside the time span
//!   from one stage's first record to another's last.
//!
//! The first five walk the anchor's own journal in sequence order and
//! join on the anchor's app: when the anchor names an app, records (reset
//! and stop events included) that name another app are left out. Windows
//! are picked last, since they span the other stages, and join on the
//! chain's servers: a record that concerns a server must concern one the
//! anchor or an own-journal cause concerns.
//!
//! One search rule: anchors are tried newest first, and the first whose
//! [`Need::Required`] stages all have records wins. A first pass also
//! requires the [`Need::Preferred`] stages; a second pass treats them as
//! optional.

use powermed_cluster::control::{ClusterFaultConfig, FleetObsOptions};
use powermed_telemetry::faults::ClusterControlStats;
use powermed_telemetry::journal::{
    EventRecord, FleetRecord, FleetTimeline, Obs, ObsConfig, ObsEvent, SafeModeTransition,
    MANAGER_SERVER_ID,
};
use powermed_units::Seconds;

use crate::experiments::{
    ext_adversary, ext_cluster_faults, ext_disagg, ext_faults, ext_obs, ext_traffic,
};
use crate::harness::Args;
use Need::{Preferred, Required};
use Pick::{After, Anchor, Before, Since, Streak, Until, Window};
use Role::{Cause, Decide, Effect, Release};
use SafeModeTransition::{Engaged, Escalated, Released};

/// What a stage's records are to the decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Evidence that led to it.
    Cause,
    /// The decision, or the decisions in force.
    Decide,
    /// What it did.
    Effect,
    /// What ended it.
    Release,
}

/// How a stage selects records, relative to the anchor.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// The anchor itself; the stage's predicate picks the anchors.
    Anchor,
    /// The nearest match before the anchor.
    Before,
    /// The nearest match after the anchor.
    After,
    /// Every match after the last reset event before the anchor (or
    /// from the journal's start), up to the anchor.
    Since(fn(&ObsEvent) -> bool),
    /// The countdown streak `k, k-1, …, 1` read backward from the
    /// anchor; a break in the count ends it.
    Streak,
    /// Every match after the anchor, up to the first stop event.
    Until(fn(&ObsEvent) -> bool),
    /// Every match, from any source, timed from stage `from`'s first
    /// record to stage `to`'s last, inclusive.
    Window {
        /// The stage whose first record opens the window.
        from: &'static str,
        /// The stage whose last record closes it.
        to: &'static str,
    },
}

/// Whether a chain needs a stage to have records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// The chain stands without it.
    Optional,
    /// The first search pass requires it, the second does not.
    Preferred,
    /// No chain without it.
    Required,
}

/// One stage of a causal chain.
#[derive(Debug, Clone, Copy)]
pub struct Stage {
    /// The stage's name, for verdicts and tests.
    pub name: &'static str,
    /// What its records are to the decision.
    pub role: Role,
    /// How it selects records.
    pub pick: Pick,
    /// The events it selects.
    pub event: fn(&ObsEvent) -> bool,
    /// Whether the chain needs it.
    pub need: Need,
    /// How many records [`render`] prints.
    pub show: usize,
    /// What the records past `show` are called in the `… N more` line;
    /// `None` drops them silently.
    pub more: Option<&'static str>,
}

/// An optional stage that prints every record.
const fn stage(name: &'static str, role: Role, pick: Pick, event: fn(&ObsEvent) -> bool) -> Stage {
    Stage {
        name,
        role,
        pick,
        event,
        need: Need::Optional,
        show: usize::MAX,
        more: None,
    }
}

impl Stage {
    const fn need(self, need: Need) -> Self {
        Stage { need, ..self }
    }

    const fn show(self, show: usize, more: Option<&'static str>) -> Self {
        Stage { show, more, ..self }
    }
}

/// What a replay leaves for `doctor`.
#[derive(Debug)]
pub struct Replay {
    /// What was replayed and what the recorder kept, printed before the
    /// chain.
    pub header: String,
    /// The recorded timeline.
    pub timeline: FleetTimeline,
}

/// One explain: a reference replay and the chain to walk in it.
#[derive(Debug)]
pub struct Explain {
    /// The `--explain` target.
    pub name: &'static str,
    /// The replay's default seed.
    pub seed: u64,
    /// Replays the reference scenario at a seed, flight recorder on.
    pub replay: fn(u64) -> Replay,
    /// The app names a 1-based `--app` index resolves against; `None`
    /// when the target takes no `--app`.
    pub apps: Option<fn() -> Vec<String>>,
    /// The stages, in print order; exactly one is the anchor.
    pub stages: &'static [Stage],
    /// The line above the records.
    pub question: fn(&Chain) -> String,
    /// The line below them.
    pub verdict: fn(&Chain) -> String,
}

/// A walked chain: every stage of its explain with the records it
/// picked, in print order.
#[derive(Debug)]
pub struct Chain {
    /// The explain walked.
    pub explain: &'static Explain,
    /// Whether the timeline merged many journals (records then print
    /// their source).
    pub fleet: bool,
    /// The decision explained.
    pub anchor: FleetRecord,
    /// Each stage and its records, chronological within the stage.
    pub stages: Vec<(&'static Stage, Vec<FleetRecord>)>,
}

impl Chain {
    /// The records of the stage called `name`.
    ///
    /// # Panics
    ///
    /// When the explain has no such stage.
    pub fn records(&self, name: &str) -> &[FleetRecord] {
        self.stages
            .iter()
            .find(|(s, _)| s.name == name)
            .map(|(_, records)| records.as_slice())
            .unwrap_or_else(|| panic!("{} has no stage {name:?}", self.explain.name))
    }

    /// The records of every stage with `role`, in print order.
    pub fn role(&self, role: Role) -> impl Iterator<Item = &FleetRecord> {
        self.stages
            .iter()
            .filter(move |(s, _)| s.role == role)
            .flat_map(|(_, records)| records)
    }

    /// The servers the records of stage `name` concern, ascending.
    pub fn servers(&self, name: &str) -> Vec<u64> {
        let mut servers: Vec<u64> = self.records(name).iter().filter_map(server_of).collect();
        servers.sort_unstable();
        servers.dedup();
        servers
    }
}

/// The server a record concerns: the one its event names, else its
/// source (none for the manager's own events).
fn server_of(r: &FleetRecord) -> Option<u64> {
    match r.record.event {
        ObsEvent::DownlinkSent { server, .. }
        | ObsEvent::UplinkSent { server, .. }
        | ObsEvent::LinkDropped { server, .. }
        | ObsEvent::LinkDelayed { server, .. }
        | ObsEvent::EndpointLoss { server }
        | ObsEvent::NodeCrash { server }
        | ObsEvent::NodeRestart { server }
        | ObsEvent::ServerOverdraw { server, .. }
        | ObsEvent::EmergencyClamp { server } => Some(server as u64),
        _ => (r.server_id != MANAGER_SERVER_ID).then_some(r.server_id),
    }
}

/// A single server's journal as a one-source timeline.
pub fn journal_timeline(journal: &[EventRecord]) -> FleetTimeline {
    let mut timeline = FleetTimeline::new();
    timeline.merge_records(0, journal);
    timeline
}

/// Walks `timeline` for `explain`'s chain, anchored on a record about
/// `app` when one is given. `None` when no anchor has every required
/// stage.
pub fn walk(
    explain: &'static Explain,
    timeline: &FleetTimeline,
    app: Option<&str>,
) -> Option<Chain> {
    // Each source's journal in sequence order, which is chronological.
    let mut records: Vec<&FleetRecord> = timeline.iter().collect();
    records.sort_by_key(|r| (r.server_id, r.record.seq));
    let journals: Vec<&[&FleetRecord]> = records
        .chunk_by(|a, b| a.server_id == b.server_id)
        .collect();
    let anchor = explain
        .stages
        .iter()
        .find(|s| matches!(s.pick, Anchor))
        .expect("every explain has an anchor stage");
    let mut anchors = Vec::new();
    for journal in &journals {
        for (at, r) in journal.iter().enumerate() {
            let event = &r.record.event;
            if (anchor.event)(event) && app.is_none_or(|a| event.app() == Some(a)) {
                anchors.push((*journal, at));
            }
        }
    }
    // Newest first by time, ties broken by source then sequence.
    anchors.sort_by(|&(a, i), &(b, k)| {
        let (a, b) = (&a[i], &b[k]);
        (b.record.at.value())
            .total_cmp(&a.record.at.value())
            .then((b.server_id, b.record.seq).cmp(&(a.server_id, a.record.seq)))
    });
    let (anchor, stages) = [true, false].into_iter().find_map(|strict| {
        anchors.iter().find_map(|&(journal, at)| {
            let stages = chain_at(explain, timeline, journal, at, strict)?;
            Some((journal[at].clone(), stages))
        })
    })?;
    Some(Chain {
        explain,
        fleet: journals.len() > 1,
        anchor,
        stages,
    })
}

/// The stages of the chain anchored at `own[at]`, or `None` when a
/// required stage (or, when `strict`, a preferred one) has no records.
fn chain_at(
    explain: &'static Explain,
    timeline: &FleetTimeline,
    own: &[&FleetRecord],
    at: usize,
    strict: bool,
) -> Option<Vec<(&'static Stage, Vec<FleetRecord>)>> {
    let anchor = own[at];
    let app = anchor.record.event.app();
    let (before, after) = (&own[..at], &own[at + 1..]);
    let mut picked: Vec<Vec<FleetRecord>> = vec![Vec::new(); explain.stages.len()];
    // The servers windows join on: the anchor's and its causes'.
    let mut servers: Vec<u64> = server_of(anchor).into_iter().collect();
    let joins =
        |r: &FleetRecord| app.is_none_or(|want| r.record.event.app().is_none_or(|a| a == want));
    for (i, s) in explain.stages.iter().enumerate() {
        let hits = |r: &&&FleetRecord| (s.event)(&r.record.event) && joins(r);
        let records: Vec<&FleetRecord> = match s.pick {
            Pick::Anchor => vec![anchor],
            Pick::Before => before.iter().rfind(hits).into_iter().copied().collect(),
            Pick::After => after.iter().find(hits).into_iter().copied().collect(),
            Pick::Since(reset) => {
                let start = before
                    .iter()
                    .rposition(|r| reset(&r.record.event) && joins(r))
                    .map_or(0, |k| k + 1);
                before[start..].iter().filter(hits).copied().collect()
            }
            Pick::Streak => countdown(before.iter().rev().filter(hits).copied()),
            Pick::Until(stop) => after
                .iter()
                .take_while(|r| !(stop(&r.record.event) && joins(r)))
                .filter(hits)
                .copied()
                .collect(),
            Pick::Window { .. } => continue,
        };
        if s.role == Cause {
            servers.extend(records.iter().filter_map(|r| server_of(r)));
        }
        picked[i] = records.into_iter().cloned().collect();
    }

    for (i, s) in explain.stages.iter().enumerate() {
        let Pick::Window { from, to } = s.pick else {
            continue;
        };
        let times = |name: &str| {
            let k = explain.stages.iter().position(|s| s.name == name);
            picked[k.expect("a window spans named stages")]
                .iter()
                .map(|r| r.record.at.value())
        };
        let (Some(lo), Some(hi)) = (times(from).reduce(f64::min), times(to).reduce(f64::max))
        else {
            continue;
        };
        let mut records: Vec<FleetRecord> = timeline
            .iter()
            .filter(|r| (lo..=hi).contains(&r.record.at.value()) && (s.event)(&r.record.event))
            .filter(|r| server_of(r).is_none_or(|x| servers.contains(&x)))
            .cloned()
            .collect();
        // Every journal stamps the shared control-plane poll counter.
        records.sort_by_key(|r| (r.record.poll, r.server_id, r.record.seq));
        picked[i] = records;
    }

    let complete = explain.stages.iter().zip(&picked).all(|(s, records)| {
        !records.is_empty() || s.need == Need::Optional || (s.need == Need::Preferred && !strict)
    });
    complete.then(|| explain.stages.iter().zip(picked).collect())
}

/// The countdown `k, k-1, …, 1` read from `newest_first`, returned
/// chronologically: it ends at 1 or where the count breaks (an older
/// streak that reset).
fn countdown<'a>(newest_first: impl Iterator<Item = &'a FleetRecord>) -> Vec<&'a FleetRecord> {
    let mut streak = Vec::new();
    let mut expect = None;
    for r in newest_first {
        let k = match r.record.event {
            ObsEvent::FleetOverBudget { streak, .. } => streak,
            ObsEvent::HeartbeatMissed { misses } => misses,
            _ => continue,
        };
        if expect.is_some_and(|want| k != want || want == 0) {
            break;
        }
        streak.push(r);
        expect = Some(k.saturating_sub(1));
    }
    streak.reverse();
    streak
}

/// The one printer: the question, one line per shown record tagged with
/// its stage's role (and, in a fleet, its source: `mgr` or `s<i>`), a
/// `… N more` line per truncated stage, and the verdict.
pub fn render(chain: &Chain) -> String {
    let mut lines = vec![(chain.explain.question)(chain)];
    for (stage, records) in &chain.stages {
        let tag = format!("{:?}", stage.role).to_lowercase();
        for r in records.iter().take(stage.show) {
            let source = match r.server_id {
                _ if !chain.fleet => String::new(),
                MANAGER_SERVER_ID => format!("{:>4}  ", "mgr"),
                id => format!("{:>4}  ", format!("s{id}")),
            };
            let e = &r.record;
            lines.push(format!(
                "  {tag:<8}{source}seq {:>5}  poll {:>4}  t {:>6.1}s  epoch {:>2}  {:?}",
                e.seq,
                e.poll,
                e.at.value(),
                e.epoch,
                e.event
            ));
        }
        if let Some(more) = stage.more.filter(|_| records.len() > stage.show) {
            lines.push(format!(
                "  {:<8}{} more {more}",
                "…",
                records.len() - stage.show
            ));
        }
    }
    lines.push(format!("\nverdict: {}\n", (chain.explain.verdict)(chain)));
    lines.join("\n")
}

/// `doctor`'s usage line.
pub const USAGE: &str =
    "usage: doctor [--explain <target>] [--app <name or 1-based index>] [--seed <N>]";

/// Parses `doctor`'s command line (program name excluded) into the
/// explain asked for (`throttle` by default), the app its anchor must
/// concern, and the replay seed. An unknown target, an `--app` for a
/// target that takes none, and an unparsable value are errors.
pub fn parse(args: &[String]) -> Result<(&'static Explain, Option<String>, u64), String> {
    let args = Args::parse(args, &[], &["--explain", "--app", "--seed"])?;
    let target = args.value("--explain").unwrap_or("throttle");
    let explain = find(target).ok_or_else(|| {
        let names: Vec<&str> = EXPLAINS.iter().map(|e| e.name).collect();
        format!(
            "unknown --explain target {target:?} (supported: {})",
            names.join(", ")
        )
    })?;
    let app = match (args.value("--app"), explain.apps) {
        (None, _) => None,
        (Some(_), None) => return Err(format!("--explain {target} takes no --app")),
        (Some(app), Some(apps)) => Some(match app.parse::<usize>() {
            Ok(i) if i >= 1 => apps().get(i - 1).cloned().unwrap_or_else(|| app.into()),
            _ => app.into(),
        }),
    };
    let seed = args.parsed("--seed")?.unwrap_or(explain.seed);
    Ok((explain, app, seed))
}

/// The explain called `name`.
pub fn find(name: &str) -> Option<&'static Explain> {
    EXPLAINS.iter().find(|e| e.name == name)
}

/// A single-server replay of `label` for `duration` at `seed` on the
/// `flavor` stack: `run` replays it with the flight recorder attached
/// and returns its stats, which head the journal.
fn journal_replay(
    (label, duration, seed): (&str, Seconds, u64),
    flavor: &str,
    run: impl FnOnce(&Obs) -> String,
) -> Replay {
    let obs = Obs::new(ObsConfig::default());
    let stats = run(&obs);
    let (retained, evicted, total) = obs.journal_counts();
    Replay {
        header: format!(
            "doctor: replaying {label:?} for {} s (seed {seed:#x}, {flavor}, flight recorder \
             on)\njournal: {retained} records retained ({evicted} evicted of {total}); {stats}",
            duration.value()
        ),
        timeline: journal_timeline(&obs.journal_snapshot()),
    }
}

/// A fleet replay of [`ext_cluster_faults`]'s reference run with every
/// journal shipped over the control plane.
fn fleet_replay(
    what: &str,
    seed: u64,
    faults: ClusterFaultConfig,
    resilient: bool,
    stats: fn(&ClusterControlStats) -> String,
) -> Replay {
    let (servers, duration) = (ext_cluster_faults::SERVERS, ext_cluster_faults::DURATION);
    let options = FleetObsOptions::default();
    let report = ext_obs::run_fleet_observed(&faults, resilient, servers, duration, &options);
    let fleet = report.fleet.expect("fleet recording enabled");
    Replay {
        header: format!(
            "doctor: replaying {what} for {} s (seed {seed:#x}, {servers} servers, journals \
             shipped over the control plane)\nfleet timeline: {} records merged from {} \
             journals ({} digest bytes shipped, {} dedup, {} gaps); {}",
            duration.value(),
            fleet.timeline.len(),
            1 + fleet.server_obs.len(),
            fleet.digest_bytes_total,
            fleet.timeline.dedup_total(),
            fleet.digest_gaps,
            stats(&report.stats),
        ),
        timeline: fleet.timeline,
    }
}

/// An event predicate: `on!(pattern)` matches an [`ObsEvent`] against
/// `pattern`, with the event variants in scope.
macro_rules! on {
    ($($pattern:tt)+) => {
        |e: &ObsEvent| {
            use ObsEvent::*;
            matches!(e, $($pattern)+)
        }
    };
}

/// An E7 quarantine, or a containment under the clamp.
const QUARANTINE: fn(&ObsEvent) -> bool = on!(Quarantine { .. });

/// Every explain `doctor` knows, in `--explain` listing order. Laid out
/// by hand as a table, one stage a line.
#[rustfmt::skip]
pub static EXPLAINS: &[Explain] = &[
    Explain {
        name: "throttle",
        seed: ext_faults::SEED,
        replay: |seed| {
            let scenario = ext_obs::reference_scenario(seed);
            let duration = ext_faults::SCENARIO_DURATION;
            journal_replay((scenario.label, duration, seed), "hardened", |obs| {
                let mix = ext_faults::reference_mix();
                let run = ext_faults::run_one(&scenario, &mix, true, duration, None, Some(obs));
                format!("run ended {} safe mode", if run.safe_mode { "inside" } else { "outside" })
            })
        },
        apps: Some(|| ext_faults::reference_mix().apps().iter().map(|a| a.name().into()).collect()),
        stages: &[
            // Evidence since the watchdog's breach counters last reset.
            stage("causes", Cause, Since(on!(SafeMode { transition: Released })),
                on!(Poll { over_cap: true, .. } | SensorSuspect { .. } | SensorFault { .. })),
            stage("engage", Decide, Before, on!(SafeMode { transition: Engaged | Escalated }))
                .need(Required),
            stage("throttle", Effect, Anchor, on!(ForceThrottle { .. })),
        ],
        question: |c| format!(
            "why was {} force-throttled? ({} evidence records)",
            c.anchor.record.event.app().unwrap_or("?"), c.records("causes").len()
        ),
        verdict: |c| {
            let causes = c.records("causes");
            let polls = causes.iter().filter(|r| on!(Poll { .. })(&r.record.event)).count();
            format!(
                "{polls} over-cap poll(s) and {} sensor verdict(s) armed the watchdog; safe \
                 mode engaged at poll {} and force-throttled the app.",
                causes.len() - polls, c.records("engage")[0].record.poll
            )
        },
    },
    Explain {
        name: "sensor-fault",
        seed: ext_disagg::SEED,
        replay: |seed| {
            let scenario = ext_disagg::doctor_scenario(seed);
            let duration = ext_faults::SCENARIO_DURATION;
            journal_replay((scenario.label, duration, seed), "estimated power", |obs| {
                let mix = ext_faults::reference_mix();
                let run = ext_disagg::run_one(&scenario, &mix, true, duration, Some(obs));
                let e = run.estimation;
                format!(
                    "{} residual spike(s), {} fallback engagement(s), {} escalation(s)",
                    e.residual_spikes, e.fallback_engagements, e.escalations
                )
            })
        },
        apps: None,
        stages: &[
            // Evidence since the ladder's spike streak last reset.
            stage("causes", Cause, Since(on!(FallbackCap { engaged: false, .. })),
                on!(ResidualSpike { .. } | SensorSuspect { .. })).need(Required),
            stage("fallback", Decide, Anchor, on!(FallbackCap { engaged: true, .. })),
            stage("fault", Effect, After, on!(SensorFault { .. })).need(Required),
        ],
        question: |c| format!(
            "why did the estimation ladder latch an E6? ({} evidence records)",
            c.records("causes").len()
        ),
        verdict: |c| format!(
            "{} residual spike(s) exceeded the confidence band; the conservative fallback \
             engaged at poll {} (planning cap shaved) and latched the E6 sensor fault.",
            c.role(Cause).filter(|r| on!(ResidualSpike { .. })(&r.record.event)).count(),
            c.anchor.record.poll
        ),
    },
    Explain {
        name: "quarantine",
        seed: ext_adversary::SEED,
        replay: |seed| {
            let scenario = ext_adversary::doctor_scenario(seed);
            let duration = ext_adversary::SCENARIO_DURATION;
            journal_replay((scenario.label, duration, seed), "integrity defense on", |obs| {
                let run = ext_adversary::run_one(&scenario, true, duration, Some(obs));
                format!(
                    "{} knob(s) defied, {} implausible poll(s), {} downgrade(s), {} quarantine(s), \
                     {:.1} W clawed back",
                    run.adversary.knobs_defied, run.trust.implausible_polls, run.trust.downgrades,
                    run.trust.quarantines, run.debt_repaid_w
                )
            })
        },
        apps: None,
        stages: &[
            // The episode's evidence and descent, since the app's previous
            // quarantine; the E7 fires once per episode, so a probation
            // relapse has none and the walk moves on to an older anchor.
            stage("evidence", Cause, Since(QUARANTINE), on!(HeartbeatClampBound { .. })),
            stage("downgrades", Decide, Since(QUARANTINE), on!(TrustDowngrade { .. }))
                .need(Required),
            stage("quarantine", Effect, Anchor, QUARANTINE),
            stage("fault", Effect, Until(QUARANTINE), on!(IntegrityFault { .. })).need(Required),
        ],
        question: |c| format!(
            "why was {} quarantined? ({} evidence records, {} downgrades)",
            c.anchor.record.event.app().unwrap_or("?"),
            c.records("evidence").len(), c.records("downgrades").len()
        ),
        verdict: |c| format!(
            "{} physically implausible heartbeat claim(s) drove the trust score down through {} \
             downgrade(s); the quarantine at poll {} fired the E7 integrity fault and clamped \
             the app to its fair share.",
            c.records("evidence").len(), c.records("downgrades").len(), c.anchor.record.poll
        ),
    },
    Explain {
        name: "slo-miss",
        seed: ext_traffic::SEED,
        replay: |seed| {
            let scenario = ext_traffic::doctor_scenario(seed);
            journal_replay((&scenario.label, ext_traffic::DAY, seed), "mediated fleet", |obs| {
                let run = ext_traffic::run_one(&scenario, true, ext_traffic::DAY, Some(obs));
                format!(
                    "observed server {} of {}: fleet attainment {:.1}%, {} window(s) missed",
                    ext_traffic::observed_server(&scenario) + 1,
                    ext_traffic::sku_mixes()[scenario.sku].specs.len(),
                    run.attainment * 100.0, run.windows_missed
                )
            })
        },
        apps: None,
        stages: &[
            // The failed window opened at the app's previous verdict.
            stage("spikes", Cause, Since(on!(SloWindow { .. })), on!(DemandSpike { .. }))
                .need(Preferred),
            stage("cap", Decide, Before, on!(CapChanged { .. })),
            stage("plan", Decide, Before, on!(Planned { .. })).need(Required),
            // The app's share under that plan, and any forced throttle.
            stage("shares", Decide, Since(on!(Planned { .. })),
                on!(Allocation { .. } | ForceThrottle { .. })),
            stage("verdict", Effect, Anchor, on!(SloWindow { ok: false, .. })),
        ],
        question: |c| format!(
            "why did {} miss its SLO window? ({} spike(s), {} decision record(s))",
            c.anchor.record.event.app().unwrap_or("?"),
            c.records("spikes").len(), c.role(Decide).count()
        ),
        verdict: |c| {
            let first = |value: fn(&ObsEvent) -> Option<String>| {
                c.role(Decide).find_map(|r| value(&r.record.event)).unwrap_or("?".into())
            };
            format!(
                "the plan in force allotted the app {} W under a {} W cap; {} demand spike(s) \
                 landed inside the window, and the window closed below target at poll {}.",
                first(|e| match e {
                    ObsEvent::Allocation { watts, .. } => Some(format!("{watts:.1}")),
                    _ => None,
                }),
                first(|e| match e {
                    ObsEvent::CapChanged { cap_w } => Some(format!("{cap_w:.0}")),
                    _ => None,
                }),
                c.records("spikes").len(), c.anchor.record.poll
            )
        },
    },
    Explain {
        name: "breaker-trip",
        seed: ext_cluster_faults::SEED,
        replay: |seed| fleet_replay(
            "the naive fleet on \"reference: churn + lossy\"",
            seed, ext_obs::fleet_scenario(seed), false,
            |s| format!("{} breaker trip(s)", s.breaker_trips),
        ),
        apps: None,
        stages: &[
            // What the implicated servers believed their cap and draw were,
            // and the telemetry that carried their draw upstream.
            stage("polls", Cause, Window { from: "armed", to: "trip" }, on!(Poll { .. }))
                .show(4, Some("shipped poll(s)")),
            stage("uplinks", Cause, Window { from: "armed", to: "trip" }, on!(UplinkSent { .. }))
                .need(Required).show(2, None),
            // Servers over the share the manager intended, since the arming
            // streak began.
            stage("overdraws", Cause, Since(on!(FleetOverBudget { streak: 1, .. })),
                on!(ServerOverdraw { .. })).need(Required),
            stage("armed", Decide, Streak, on!(FleetOverBudget { .. })).need(Required),
            stage("trip", Effect, Anchor, on!(BreakerTrip { .. })),
            stage("clamps", Effect, Until(on!(BreakerRelease)), on!(EmergencyClamp { .. }))
                .need(Required).show(3, Some("clamp(s)")),
            stage("release", Release, After, on!(BreakerRelease)),
        ],
        question: |c| format!(
            "why did the facility breaker trip? (servers {:?} overdrew their intended shares; \
             {} arming steps, {} overdraw attributions, {} uplinks, {} shipped polls)",
            c.servers("overdraws"), c.records("armed").len(), c.records("overdraws").len(),
            c.records("uplinks").len(), c.records("polls").len()
        ),
        verdict: |c| format!(
            "server(s) {:?} reported draws above the shares the manager intended (stale caps on \
             a lossy plane); their uplinked telemetry armed the breaker over {} consecutive \
             over-budget step(s), and the trip clamped {} server(s) to the floor.",
            c.servers("overdraws"), c.records("armed").len(), c.records("clamps").len()
        ),
    },
    Explain {
        name: "fallback-cap",
        seed: ext_cluster_faults::SEED,
        replay: |seed| fleet_replay(
            "the resilient fleet on the lossy plane with server 2 partitioned 60-180 s,",
            seed, ext_obs::fleet_doctor_scenario(seed), true,
            |s| format!("{} fallback engagement(s), {} rejoin(s)", s.fallback_engagements,
                s.rejoins),
        ),
        apps: None,
        stages: &[
            // The manager's side of the silence: the network, not the node.
            stage("losses", Cause, Window { from: "missed", to: "release" },
                on!(EndpointLoss { .. })).show(3, Some("endpoint loss(es)")),
            stage("missed", Cause, Streak, on!(HeartbeatMissed { .. }))
                .need(Required).show(4, Some("missed heartbeat(s)")),
            stage("engage", Decide, Anchor, on!(FallbackEngage { .. })),
            // An episode that engaged already at the floor has nothing to
            // decay; one that decayed is the richer story.
            stage("decays", Effect, Until(on!(FallbackEngage { .. })), on!(FallbackDecay { .. }))
                .need(Preferred).show(4, Some("decay step(s)")),
            // A node that crashed mid-fallback journals no release.
            stage("release", Release, Until(on!(FallbackEngage { .. })),
                on!(FallbackRelease { .. })).need(Required),
        ],
        question: |c| format!(
            "why did server {} cap itself? ({} missed heartbeats, {} manager-side endpoint \
             losses, {} decay steps)",
            c.anchor.server_id, c.records("missed").len(), c.records("losses").len(),
            c.records("decays").len()
        ),
        verdict: |c| format!(
            "{} consecutive downlink silences engaged server {}'s conservative local fallback; \
             it decayed its cap {} step(s) toward the idle floor until a fresh downlink \
             released it on rejoin — the partitioned node throttled itself rather than \
             free-run on a stale cap.",
            c.records("missed").len(), c.anchor.server_id, c.records("decays").len()
        ),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use powermed_cluster::control::ResilienceReport;

    /// How many of `records` `pred` holds for.
    fn tally<'a>(
        records: impl IntoIterator<Item = &'a EventRecord>,
        pred: impl Fn(&ObsEvent) -> bool,
    ) -> u64 {
        records.into_iter().filter(|r| pred(&r.event)).count() as u64
    }

    fn is_containment(e: &ObsEvent) -> bool {
        matches!(e, ObsEvent::Quarantine { cause, .. } if cause.starts_with("containment"))
    }

    #[test]
    fn journal_tallies_match_the_stats_on_the_single_server_replays() {
        // The quarantine and sensor-fault reference replays: every
        // counter the journal can recount, recounted, on a journal that
        // lost nothing. Left out: safe-mode escalations and actuation
        // faults (neither replay fires one) and retries (a retry that
        // is rescheduled again is not journaled).
        let obs = Obs::new(ObsConfig::default());
        let run = ext_adversary::run_one(
            &ext_adversary::doctor_scenario(ext_adversary::SEED),
            true,
            ext_adversary::SCENARIO_DURATION,
            Some(&obs),
        );
        assert_eq!(obs.journal_counts().1, 0, "the journal evicted nothing");
        let journal = obs.journal_snapshot();
        let pairs = [
            (
                "downgrades",
                run.trust.downgrades,
                tally(&journal, |e| matches!(e, ObsEvent::TrustDowngrade { .. })),
            ),
            (
                "quarantines",
                run.trust.quarantines,
                tally(&journal, |e| {
                    on!(Quarantine { .. })(e) && !is_containment(e)
                }),
            ),
            (
                "containments",
                run.trust.containments,
                tally(&journal, is_containment),
            ),
        ];

        let obs = Obs::new(ObsConfig::default());
        let run = ext_disagg::run_one(
            &ext_disagg::doctor_scenario(ext_disagg::SEED),
            &ext_faults::reference_mix(),
            true,
            ext_faults::SCENARIO_DURATION,
            Some(&obs),
        );
        assert_eq!(obs.journal_counts().1, 0, "the journal evicted nothing");
        let journal = obs.journal_snapshot();
        let (hardening, estimation) = (run.hardening, run.estimation);
        let faults = [
            (
                "fallback engagements",
                estimation.fallback_engagements,
                tally(&journal, on!(FallbackCap { engaged: true, .. })),
            ),
            (
                "residual spikes",
                estimation.residual_spikes,
                tally(&journal, on!(ResidualSpike { .. })),
            ),
            (
                "safe-mode entries",
                hardening.safe_mode_entries,
                tally(
                    &journal,
                    on!(SafeMode {
                        transition: Engaged
                    }),
                ),
            ),
            (
                "safe-mode exits",
                hardening.safe_mode_exits,
                tally(
                    &journal,
                    on!(SafeMode {
                        transition: Released
                    }),
                ),
            ),
            (
                "sensor faults",
                hardening.sensor_faults,
                tally(&journal, on!(SensorFault { .. })),
            ),
        ];
        for (counter, stats, journal) in pairs.into_iter().chain(faults) {
            assert_eq!(stats, journal, "{counter}: stats vs journal");
            assert!(stats > 0, "{counter}: the replay exercises the counter");
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn timeline_tallies_match_the_stats_on_the_fleet_replays() {
        let fleet_run = |faults: &ClusterFaultConfig, resilient| {
            ext_obs::run_fleet_observed(
                faults,
                resilient,
                ext_cluster_faults::SERVERS,
                ext_cluster_faults::DURATION,
                &FleetObsOptions::default(),
            )
        };
        let seed = ext_cluster_faults::SEED;
        let naive = fleet_run(&ext_obs::fleet_scenario(seed), false);
        let resilient = fleet_run(&ext_obs::fleet_doctor_scenario(seed), true);
        let count = |report: &ResilienceReport, pred: fn(&ObsEvent) -> bool| {
            let fleet = report.fleet.as_ref().expect("fleet recording enabled");
            assert_eq!(fleet.digest_gaps, 0, "the timeline has no gaps");
            tally(fleet.timeline.iter().map(|r| &r.record), pred)
        };
        // Left out: endpoint losses (one record can cover several lost
        // messages), the manager counters that have no event, and
        // failovers (neither replay crashes the manager).
        let mut pairs = vec![
            (
                "breaker trips",
                naive.stats.breaker_trips,
                count(&naive, |e| matches!(e, ObsEvent::BreakerTrip { .. })),
            ),
            (
                "fallback engagements",
                resilient.stats.fallback_engagements,
                count(&resilient, on!(FallbackEngage { .. })),
            ),
            (
                "node crashes",
                naive.stats.node_crashes,
                count(&naive, on!(NodeCrash { .. })),
            ),
            (
                "node restarts",
                naive.stats.node_restarts,
                count(&naive, on!(NodeRestart { .. })),
            ),
            (
                "heartbeat misses",
                resilient.stats.heartbeat_misses,
                count(&resilient, on!(HeartbeatMissed { .. })),
            ),
        ];
        for run in [&naive, &resilient] {
            let stats = run.stats;
            pairs.extend([
                (
                    "downlinks dropped",
                    stats.downlinks_dropped,
                    count(run, on!(LinkDropped { uplink: false, .. })),
                ),
                (
                    "downlinks delayed",
                    stats.downlinks_delayed,
                    count(run, on!(LinkDelayed { uplink: false, .. })),
                ),
                (
                    "uplinks dropped",
                    stats.uplinks_dropped,
                    count(run, on!(LinkDropped { uplink: true, .. })),
                ),
                (
                    "uplinks delayed",
                    stats.uplinks_delayed,
                    count(run, on!(LinkDelayed { uplink: true, .. })),
                ),
            ]);
        }
        for (counter, stats, timeline) in pairs {
            assert_eq!(stats, timeline, "{counter}: stats vs timeline");
            assert!(stats > 0, "{counter}: the replay exercises the counter");
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn every_explain_reproduces_its_golden_chain() {
        // What CI's decision audits compare: each target's reference
        // replay, walked and printed, byte for byte. Every stage of every
        // reference chain has records.
        for explain in EXPLAINS {
            let mut args = vec!["--explain", explain.name];
            if explain.apps.is_some() {
                args.extend(["--app", "1"]);
            }
            let args: Vec<String> = args.into_iter().map(String::from).collect();
            let (_, app, seed) = parse(&args).expect("the CI command line parses");
            let replay = (explain.replay)(seed);
            let chain = walk(explain, &replay.timeline, app.as_deref())
                .unwrap_or_else(|| panic!("{}: no chain", explain.name));
            for (stage, records) in &chain.stages {
                assert!(
                    !records.is_empty(),
                    "{}: {} is empty",
                    explain.name,
                    stage.name
                );
            }
            let golden = format!(
                "{}/golden/doctor/{}.txt",
                env!("CARGO_MANIFEST_DIR"),
                explain.name
            );
            assert_eq!(
                format!("{}\n\n{}", replay.header, render(&chain)),
                std::fs::read_to_string(golden).expect("every explain has a golden"),
                "{}",
                explain.name
            );
        }
    }
}
