//! Decision-audit doctor: replays a reference scenario with the flight
//! recorder attached and explains one mediator decision from the
//! journal, or from the fleet's merged timeline.
//!
//! ```text
//! doctor --explain throttle [--app <name-or-1-based-index>] [--seed N]
//! doctor --explain sensor-fault [--seed N]
//! doctor --explain quarantine [--seed N]
//! doctor --explain slo-miss [--seed N]
//! doctor --explain breaker-trip [--seed N]
//! doctor --explain fallback-cap [--seed N]
//! ```
//!
//! * `throttle`: the last safe-mode force-throttle of the chosen app
//!   (any app by default), back to the safe-mode engagement that issued
//!   it and the over-cap polls and sensor verdicts that armed the
//!   watchdog.
//! * `sensor-fault`: on the estimated power stack under a shared meter
//!   bias, the last confidence-fallback engagement, the residual spikes
//!   that armed the degradation ladder, and the E6 it latched.
//! * `quarantine`: in the knob-non-compliance adversary scenario, the
//!   last quarantine that fired an E7, the trust downgrades that
//!   descended there and the clamp-bound heartbeat claims that armed
//!   them, both since the app's previous quarantine.
//! * `slo-miss`: on the tight heterogeneous traffic cell, the last
//!   failed SLO window (preferring one with a demand spike inside it),
//!   the cap and plan in force, and the app's share under that plan.
//!
//! Two targets are **cross-server**: they replay a whole fleet with
//! every server shipping its journal over the control plane, and walk
//! the manager's merged timeline.
//!
//! * `breaker-trip`: the naive fleet on the churn+lossy reference, from
//!   per-server overdraws and uplinked telemetry to the breaker's arming
//!   streak, the trip, the fleet clamps and the release.
//! * `fallback-cap`: the resilient fleet with server 2 partitioned, from
//!   missed downlinks to the fallback engaging, its decay steps and the
//!   rejoin release.
//!
//! Every chain is one entry of
//! [`EXPLAINS`](powermed_bench::explain::EXPLAINS), walked and printed
//! by the one walker and printer of [`powermed_bench::explain`]. Exits 1
//! when the chain cannot be reconstructed and 2 on a usage error.
use powermed_bench::explain::{self, USAGE};
use powermed_bench::harness::usage_exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (explain, app, seed) = explain::parse(&args).unwrap_or_else(|e| usage_exit(&e, USAGE));
    let replay = (explain.replay)(seed);
    println!("{}\n", replay.header);
    let Some(chain) = explain::walk(explain, &replay.timeline, app.as_deref()) else {
        let about = app.map(|app| format!(" for {app}")).unwrap_or_default();
        eprintln!("doctor: no {} chain found{about}", explain.name);
        std::process::exit(1);
    };
    print!("{}", explain::render(&chain));
}
