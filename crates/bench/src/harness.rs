//! The experiment contract and its one driver.
//!
//! Every paper table, figure and extension experiment is one
//! [`Experiment`] entry in [`EXPERIMENTS`].
//! Every harness binary is a one-line call to [`main`] with its own
//! name, and the driver does the shared work:
//!
//! * a plain run prints the experiment, times it, and merges what it
//!   records into `BENCH_harness.json` (one load and one save per run);
//! * `--smoke` runs each smoke digest twice at its seed and once
//!   reseeded, printing one golden line per digest
//!   (`crates/bench/golden/smoke_digests.txt`);
//! * `--gate` runs the experiment, records it, prints every release
//!   check, and exits 1 if any failed;
//! * `--digest` prints the experiment's bit-identity digest, a hash of
//!   everything its run returns, pinned by
//!   `crates/bench/golden/<name>_digest.txt`. Every entry has one but
//!   `ext_obs`: its smoke digests pin its observed runs, and its report
//!   is a wall-clock overhead measurement.
//!
//! `all` runs every paper entry and `extensions` every other entry;
//! `all --smoke` checks every smoke digest in the registry. A flag the
//! binary does not support prints a usage line and exits 2.

use std::str::FromStr;
use std::time::Instant;

use crate::experiments::EXPERIMENTS;
use crate::support::{json_object, HarnessDoc};

/// The harness document every run merges its sections into.
const HARNESS_JSON: &str = "BENCH_harness.json";

/// Wall-clock budget of `all --gate` (release build, CI runner).
const ALL_BUDGET_S: f64 = 1.5;

/// One release check: what is bounded, whether it held, and the
/// measured values behind the verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// What is being bounded.
    pub name: String,
    /// Whether the bound held.
    pub ok: bool,
    /// The measured values, human-readable.
    pub detail: String,
}

impl GateCheck {
    /// `[pass] <name> <detail>`, with the name padded to `width`.
    pub fn line(&self, width: usize) -> String {
        let verdict = if self.ok { "pass" } else { "FAIL" };
        format!("[{verdict}] {:<width$} {}", self.name, self.detail)
    }
}

/// What one experiment run leaves for the driver.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Fields of the experiment's own `BENCH_harness.json` section, after
    /// the `seconds` field the driver measures. Empty when the
    /// experiment records nothing.
    pub fields: Vec<(String, String)>,
    /// Further top-level sections, `(key, pre-rendered JSON)`.
    pub sections: Vec<(String, String)>,
    /// The release checks `--gate` evaluates.
    pub checks: Vec<GateCheck>,
}

/// One `(key, value)` section field, the value rendered with `to_string`.
pub fn field(key: &str, value: impl ToString) -> (String, String) {
    (key.to_string(), value.to_string())
}

/// What `--gate` checks for one experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// The experiment has no `--gate` mode.
    None,
    /// The release checks `run` returns.
    Checks,
    /// The run must finish within this many wall-clock seconds.
    Budget(f64),
}

/// A smoke digest: its golden-line label, the digest of one short run
/// at a seed, and the seed.
pub type Smoke = (&'static str, fn(u64) -> u64, u64);

/// One registry entry: an experiment and the modes it supports.
pub struct Experiment {
    /// Binary and section name (`fig7`, `ext_obs`, …).
    pub name: &'static str,
    /// A paper table or figure (run by `all`), not an extension (run by
    /// `extensions`).
    pub paper: bool,
    /// Prints the experiment and returns what it records. Reads the
    /// loaded harness document (`ext_obs` divides by `all`'s total).
    pub run: fn(&HarnessDoc) -> Outcome,
    /// The smoke digests `--smoke` checks, in golden-file order.
    pub smoke: &'static [Smoke],
    /// What `--gate` checks.
    pub gate: Gate,
    /// The bit-identity digest `--digest` prints.
    pub digest: Option<fn() -> u64>,
}

/// A registry `run` for an experiment that only prints.
pub fn plain(print: fn()) -> Outcome {
    print();
    Outcome::default()
}

/// A harness binary's command line: at most one mode switch, plus
/// `--flag value` pairs.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The mode switch given, if any.
    pub mode: Option<String>,
    /// The valued flags given, in order.
    pub values: Vec<(String, String)>,
}

impl Args {
    /// Parses `args` (program name excluded): `modes` are the accepted
    /// switches, `valued` the flags that take one value. Anything else,
    /// a second mode, or a valued flag without its value is an error.
    pub fn parse(args: &[String], modes: &[&str], valued: &[&str]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if modes.contains(&arg.as_str()) {
                if let Some(mode) = &out.mode {
                    return Err(format!("{mode} and {arg} cannot be combined"));
                }
                out.mode = Some(arg.clone());
            } else if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.values.push((arg.clone(), value.clone()));
            } else {
                return Err(format!("unexpected argument {arg:?}"));
            }
        }
        Ok(out)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The last value given for `flag`, parsed; an error when it does
    /// not parse.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("{flag} {v:?} does not parse"))
            })
            .transpose()
    }
}

/// Prints `error` and `usage` to stderr and exits with code 2.
pub fn usage_exit(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

/// How one binary invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Print and record.
    Run,
    /// Check the smoke digests.
    Smoke,
    /// Print, record, and enforce the release checks.
    Gate,
    /// Print the bit-identity digest.
    Digest,
}

/// The registry entry called `name`.
///
/// # Panics
///
/// When no entry has that name (a binary without an entry).
fn find(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment named {name:?} in the registry"))
}

/// The mode switches binary `name` supports.
fn modes(name: &str) -> Vec<&'static str> {
    match name {
        "all" => vec!["--smoke", "--gate"],
        "extensions" => Vec::new(),
        _ => {
            let e = find(name);
            let mut modes = Vec::new();
            if !e.smoke.is_empty() {
                modes.push("--smoke");
            }
            if e.gate != Gate::None {
                modes.push("--gate");
            }
            if e.digest.is_some() {
                modes.push("--digest");
            }
            modes
        }
    }
}

/// Binary `name`'s usage line.
fn usage(name: &str) -> String {
    let modes = modes(name);
    if modes.is_empty() {
        format!("usage: {name}")
    } else {
        format!("usage: {name} [{}]", modes.join(" | "))
    }
}

/// Parses binary `name`'s command line into its mode; an error for an
/// unknown flag or a mode the binary does not support.
fn parse_mode(name: &str, args: &[String]) -> Result<Mode, String> {
    let args = Args::parse(args, &["--smoke", "--gate", "--digest"], &[])?;
    let Some(flag) = args.mode else {
        return Ok(Mode::Run);
    };
    if !modes(name).contains(&flag.as_str()) {
        return Err(format!("{name} has no {flag} mode"));
    }
    Ok(match flag.as_str() {
        "--smoke" => Mode::Smoke,
        "--gate" => Mode::Gate,
        _ => Mode::Digest,
    })
}

/// Runs one smoke digest twice at its seed and once reseeded. Returns
/// the golden line when the same-seed runs agree and the reseeded run
/// diverges, and the failure otherwise.
fn smoke_line(&(label, digest, seed): &Smoke) -> Result<String, String> {
    let (first, second, reseeded) = (digest(seed), digest(seed), digest(seed + 1));
    if first != second {
        return Err(format!(
            "{label} smoke FAILED: same-seed runs diverged ({first:#018x} vs {second:#018x})"
        ));
    }
    if first == reseeded {
        return Err(format!(
            "{label} smoke FAILED: reseeded run did not diverge ({first:#018x})"
        ));
    }
    Ok(format!(
        "{label} smoke: deterministic ({first:#018x}), reseeded diverges ({reseeded:#018x})"
    ))
}

/// Every smoke digest in the registry, in golden-file order.
fn smokes() -> impl Iterator<Item = &'static Smoke> {
    EXPERIMENTS.iter().flat_map(|e| e.smoke.iter())
}

/// The wall-clock budget as a release check.
fn budget_check(budget_s: f64, secs: f64) -> GateCheck {
    GateCheck {
        name: "wall-clock budget".to_string(),
        ok: secs <= budget_s,
        detail: format!("{secs:.3} s of {budget_s} s"),
    }
}

/// Prints every check and the verdict for `name`; true when all held.
fn report_gate(name: &str, checks: &[GateCheck]) -> bool {
    for check in checks {
        println!("{}", check.line(48));
    }
    let passed = checks.iter().all(|c| c.ok);
    if passed {
        println!("{name} gate: all bounds hold");
    } else {
        eprintln!("{name} gate FAILED");
    }
    passed
}

/// Runs the experiments of binary `name` and records them. Returns the
/// release checks they produced.
fn run_and_record(name: &str) -> Vec<GateCheck> {
    let selected: Vec<&Experiment> = match name {
        "all" => EXPERIMENTS.iter().filter(|e| e.paper).collect(),
        "extensions" => EXPERIMENTS.iter().filter(|e| !e.paper).collect(),
        _ => vec![find(name)],
    };
    let mut doc = HarnessDoc::load(HARNESS_JSON);
    let mut checks = Vec::new();
    let mut recorded = Vec::new();
    let mut timings = Vec::new();
    let total_start = Instant::now();
    for e in selected {
        let start = Instant::now();
        let out = (e.run)(&doc);
        let secs = start.elapsed().as_secs_f64();
        timings.push((e.name, secs));
        if !out.fields.is_empty() {
            println!("\n{} wall-clock: {secs:.3} s", e.name);
            let mut fields = vec![field("seconds", format!("{secs:.6}"))];
            fields.extend(out.fields);
            doc.set(e.name, json_object(&fields));
            recorded.push(e.name);
        }
        for (key, value) in out.sections {
            doc.set(&key, value);
        }
        checks.extend(out.checks);
        if let Gate::Budget(budget_s) = e.gate {
            checks.push(budget_check(budget_s, secs));
        }
    }
    let total = total_start.elapsed().as_secs_f64();

    if name == "all" {
        println!("\n=== harness wall-clock ===");
        for (name, secs) in &timings {
            println!("{name:<8} {secs:>8.3} s");
        }
        println!("{:<8} {total:>8.3} s", "total");
        let experiments: Vec<_> = timings
            .iter()
            .map(|(name, secs)| field(name, format!("{secs:.6}")))
            .collect();
        doc.set("experiments", json_object(&experiments));
        doc.set("total_seconds", format!("{total:.6}"));
        doc.set("unit", "\"seconds\"");
        checks.push(budget_check(ALL_BUDGET_S, total));
    } else if recorded.is_empty() {
        return checks;
    }
    match doc.save(HARNESS_JSON) {
        Ok(()) if name == "all" => println!("wrote {HARNESS_JSON}"),
        Ok(()) => {
            for name in recorded {
                println!("merged {name} into {HARNESS_JSON}");
            }
        }
        Err(e) => eprintln!("could not write {HARNESS_JSON}: {e}"),
    }
    checks
}

/// The driver every harness binary calls with its own name.
pub fn main(name: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_mode(name, &args).unwrap_or_else(|e| usage_exit(&e, &usage(name)));
    let ok = match mode {
        Mode::Run => {
            run_and_record(name);
            true
        }
        Mode::Gate => report_gate(name, &run_and_record(name)),
        Mode::Smoke => {
            let selected: Vec<&Smoke> = if name == "all" {
                smokes().collect()
            } else {
                find(name).smoke.iter().collect()
            };
            let mut ok = true;
            for smoke in selected {
                match smoke_line(smoke) {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
            ok
        }
        Mode::Digest => {
            let digest = find(name).digest.expect("--digest is a supported mode");
            println!("{:#018x}", digest());
            true
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::{self, EXPLAINS};
    use crate::support::par_map;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn registry_names_are_unique_and_cover_every_driver_bin() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
        let bins = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
            .expect("the bin directory exists");
        for entry in bins {
            let path = entry.expect("readable entry").path();
            let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("");
            if path.extension().is_some_and(|x| x == "rs")
                && !["all", "extensions", "doctor", "microbench"].contains(&stem)
            {
                assert!(names.contains(&stem), "bin {stem} has no registry entry");
            }
        }
        assert_eq!(EXPERIMENTS.iter().filter(|e| e.paper).count(), 12);
        assert_eq!(EXPERIMENTS.iter().filter(|e| !e.paper).count(), 11);
        assert_eq!(smokes().count(), 8, "one smoke digest per golden line");
    }

    #[test]
    fn an_unknown_flag_is_rejected() {
        let err = parse_mode("fig2", &args(&["--bogus"])).unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
        assert!(parse_mode("all", &args(&["--fast"])).is_err());
    }

    #[test]
    fn an_unsupported_mode_is_rejected() {
        assert_eq!(
            parse_mode("fig2", &args(&["--smoke"])).unwrap_err(),
            "fig2 has no --smoke mode"
        );
        assert!(parse_mode("ext_faults", &args(&["--gate"])).is_err());
        assert!(parse_mode("ext_obs", &args(&["--digest"])).is_err());
        assert!(parse_mode("extensions", &args(&["--smoke"])).is_err());
        assert!(parse_mode("all", &args(&["--smoke", "--gate"])).is_err());
    }

    #[test]
    fn supported_modes_parse() {
        assert_eq!(parse_mode("fig2", &[]), Ok(Mode::Run));
        assert_eq!(parse_mode("fig7", &args(&["--digest"])), Ok(Mode::Digest));
        assert_eq!(
            parse_mode("ext_faults", &args(&["--smoke"])),
            Ok(Mode::Smoke)
        );
        assert_eq!(parse_mode("ext_obs", &args(&["--gate"])), Ok(Mode::Gate));
        assert_eq!(parse_mode("all", &args(&["--gate"])), Ok(Mode::Gate));
        assert_eq!(
            usage("ext_disagg"),
            "usage: ext_disagg [--smoke | --gate | --digest]"
        );
        assert_eq!(usage("ext_obs"), "usage: ext_obs [--smoke | --gate]");
    }

    #[test]
    fn a_value_that_does_not_parse_is_rejected() {
        // `ext_obs --gate <fraction>` is gone: the fraction is a constant.
        assert!(parse_mode("ext_obs", &args(&["--gate", "abc"])).is_err());
        assert!(parse_mode("ext_obs", &args(&["--gate", "0.05"])).is_err());
        let doctor = &["--explain", "--app", "--seed"];
        let parsed = Args::parse(&args(&["--seed", "abc"]), &[], doctor).unwrap();
        assert!(parsed.parsed::<u64>("--seed").is_err());
        let parsed = Args::parse(&args(&["--seed", "7"]), &[], doctor).unwrap();
        assert_eq!(parsed.parsed::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(parsed.parsed::<u64>("--app"), Ok(None));
        assert!(Args::parse(&args(&["--seed"]), &[], doctor).is_err());
    }

    #[test]
    fn doctor_rejects_app_for_targets_that_ignore_it() {
        for explain in EXPLAINS.iter().filter(|e| e.name != "throttle") {
            let err = explain::parse(&args(&["--explain", explain.name, "--app", "nothing"]))
                .expect_err("only throttle takes --app");
            assert_eq!(err, format!("--explain {} takes no --app", explain.name));
        }
        let (explain, app, seed) = explain::parse(&args(&["--app", "1", "--seed", "7"])).unwrap();
        assert_eq!(
            (explain.name, app.as_deref(), seed),
            ("throttle", Some("stream"), 7)
        );
        let (_, app, _) = explain::parse(&args(&["--explain", "throttle", "--app", "9"])).unwrap();
        assert_eq!(app.as_deref(), Some("9"), "an index past the mix is a name");
    }

    #[test]
    fn doctor_rejects_an_unknown_target() {
        let err = explain::parse(&args(&["--explain", "bogus"])).expect_err("no such target");
        assert!(
            err.starts_with("unknown --explain target \"bogus\""),
            "{err}"
        );
        assert!(EXPLAINS.iter().all(|e| err.contains(e.name)), "{err}");
    }

    #[test]
    fn one_failing_check_fails_the_gate() {
        let check = |ok| GateCheck {
            name: "bound".to_string(),
            ok,
            detail: String::new(),
        };
        assert!(report_gate("test", &[check(true), check(true)]));
        assert!(!report_gate(
            "test",
            &[check(true), check(false), check(true)]
        ));
        assert!(!report_gate("test", &[budget_check(1.0, 1.5)]));
        assert!(report_gate("test", &[budget_check(1.0, 0.5)]));
    }

    #[test]
    fn every_smoke_digest_is_deterministic_and_seed_sensitive() {
        let smokes: Vec<&Smoke> = smokes().collect();
        for line in par_map(smokes, smoke_line) {
            line.unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug builds; run with --release or --ignored"
    )]
    fn smoke_lines_and_the_digests_match_the_goldens() {
        let lines: Vec<String> = smokes()
            .map(|s| smoke_line(s).unwrap_or_else(|e| panic!("{e}")) + "\n")
            .collect();
        assert_eq!(lines.concat(), include_str!("../golden/smoke_digests.txt"));
        macro_rules! goldens {
            ($($name:literal),* $(,)?) => {
                [$(($name, include_str!(concat!("../golden/", $name, "_digest.txt")))),*]
            };
        }
        let goldens = goldens![
            "table1",
            "table2",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "ablations",
            "ext_napp",
            "ext_latency",
            "ext_cluster",
            "ext_faults",
            "ext_cluster_faults",
            "ext_warmstart",
            "ext_disagg",
            "ext_adversary",
            "ext_traffic",
        ];
        assert_eq!(
            EXPERIMENTS.iter().filter(|e| e.digest.is_some()).count(),
            goldens.len(),
            "one golden per --digest entry"
        );
        for (name, golden) in goldens {
            let digest = find(name).digest.expect("a --digest entry");
            assert_eq!(format!("{:#018x}\n", digest()), golden, "{name}");
        }
    }
}
