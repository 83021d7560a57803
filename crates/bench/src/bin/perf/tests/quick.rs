//! Drives the built `perf` binary: every workload at 1/100 length, and
//! `perf compare` on hand-written ledgers.
//!
//! The parent process marks a run incorrect (and exits nonzero) when a
//! digest differs between episodes, between traced and untraced
//! episodes, or from the committed golden value, and when any child ran
//! more than one thread — so a passing `--quick` run asserts all of
//! those. Run with `--release`; the debug build is much slower.

use std::path::{Path, PathBuf};
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs `perf` in `dir`; returns `(success, stdout)`.
fn perf(dir: &Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("perf runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn quick(workload: &str) {
    let dir = scratch(workload);
    for trace in ["0", "1"] {
        let (ok, out) = perf(
            &dir,
            &[
                "--workload",
                workload,
                "--quick",
                "--seconds",
                "0",
                "--trace",
                trace,
            ],
        );
        assert!(ok, "{workload} --trace {trace} failed:\n{out}");
        let last = out.lines().last().expect("a result line");
        assert!(last.starts_with("{\"correct\": true"), "{last}");
        assert!(last.contains("\"failed\": 0,"), "{last}");
        let expected: &[&str] = if trace == "0" {
            &["sim_rate", "setup_s", "poll_p50_us", "perf_norm"]
        } else {
            &["core.plans", "telemetry.obs_overhead", "bench.timed_s"]
        };
        for name in expected {
            assert!(
                last.contains(&format!("\"{name}\"")),
                "{name} missing: {last}"
            );
        }
    }
    let trace = dir
        .join("target")
        .join("perf")
        .join(format!("trace-{workload}-42.json"));
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.contains("\"spans\""), "{text}");
}

#[test]
fn server_sweep_quick() {
    quick("server_sweep");
}

#[test]
fn server_composed_quick() {
    quick("server_composed");
}

#[test]
fn fleet_scale_quick() {
    quick("fleet_scale");
}

#[test]
fn fleet_faulty_quick() {
    quick("fleet_faulty");
}

fn ledger(dir: &Path, name: &str, sim_rates: &[f64], perf_norm: f64) -> String {
    let lines: Vec<String> = sim_rates
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"server_sweep\", \"seed\": 42, \"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {{\"sim_rate\": {{\"value\": {r}, \"unit\": \"sim_s/s\"}}, \"perf_norm\": {{\"value\": {perf_norm}, \"unit\": \"fraction\"}}}}}}"
            )
        })
        .collect();
    let path = dir.join(name);
    std::fs::write(&path, lines.join("\n") + "\n").expect("ledger written");
    path.to_string_lossy().into_owned()
}

#[test]
fn compare_marks_rows_by_the_rule() {
    let dir = scratch("compare");
    let parent: Vec<f64> = (0..10).map(|i| 1000.0 + i as f64).collect();
    let same = ledger(&dir, "parent.jsonl", &parent, 0.5);
    let (ok, out) = perf(&dir, &["compare", &same, &same]);
    assert!(ok, "{out}");
    assert_eq!(out.matches("unchanged").count(), 2, "{out}");
    assert!(out.contains("(exact)"), "{out}");

    let slower: Vec<f64> = parent.iter().map(|r| r * 0.7).collect();
    let worse = ledger(&dir, "worse.jsonl", &slower, 0.5);
    let (ok, out) = perf(&dir, &["compare", &same, &worse]);
    assert!(!ok, "a worse row must fail:\n{out}");
    assert!(out.contains("worse"), "{out}");

    let faster: Vec<f64> = parent.iter().map(|r| r * 1.2).collect();
    let moved = ledger(&dir, "moved.jsonl", &faster, 0.49);
    let (ok, out) = perf(&dir, &["compare", &same, &moved]);
    assert!(
        !ok,
        "a changed exact metric that got worse must fail:\n{out}"
    );
    assert!(out.contains("improved"), "{out}");

    let (ok, _) = perf(&dir, &["compare", &same]);
    assert!(!ok, "compare needs two ledgers");
}
