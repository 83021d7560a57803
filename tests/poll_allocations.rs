//! Heap allocations on the mediator's steady poll path, on a replan at
//! an unchanged cap, and while a fleet boots.
//!
//! Builds every `server_sweep` cell (each Table II mix under each
//! policy, as `fleet::build_server` boots them), warms it for
//! [`WARM_POLLS`] polls and counts the allocations its thread makes
//! over the next [`POLLS`]. A steady poll at 95 W or 110 W must not
//! allocate: per-app state on the step and poll path lives in buffers
//! indexed by position that are sized at admission. At 80 W phase
//! changes duty-cycle, which may allocate, but at most
//! [`MAX_PER_POLL_AT_80_W`] times per poll. A `set_cap` at the cap in
//! force reuses its plan and allocates nothing, and booting
//! `fleet_scale`'s 100-server fleet stays within
//! [`MAX_FLEET_BOOT_ALLOCATIONS`]. The composed poll (`server_composed`'s
//! server, with each optional layer alone and all seven together) stays
//! within [`COMPOSED_BOUNDS`]; with estimation and the defense on it
//! allocates nothing at 100 W. A replan under a quarantine clamp at the
//! cap in force plans nothing and allocates nothing.
//!
//! The counting allocator counts per thread, and each test counts only
//! on its own thread, so the tests may run side by side.
//!
//! ```text
//! cargo test -q --test poll_allocations
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use powermed::cluster::control::{self, ControlOptions, ManagedPolicy};
use powermed::cluster::fleet;
use powermed::cluster::manager::ClusterManager;
use powermed::cluster::trace::ClusterPowerTrace;
use powermed::esd::NoEsd;
use powermed::mediator::policy::PolicyKind;
use powermed::mediator::runtime::{PlanBook, PowerMediator};
use powermed::mediator::{HardeningConfig, Schedule, TrustConfig};
use powermed::server::ServerSpec;
use powermed::sim::{AdversaryConfig, FaultConfig, ServerSim};
use powermed::units::{Ratio, Seconds, Watts};
use powermed::workloads::{catalog, mixes};
use powermed_disagg::EstimatorConfig;
use powermed_traffic::TrafficConfig;

const DT: Seconds = Seconds::new(0.1);
const WARM_POLLS: usize = 50;
const POLLS: u64 = 600;
/// Allocations per poll any cell may make at 80 W. The name-keyed step
/// and poll path made 15.5 to 16.2 there (and 17 in every cell at 95 W
/// and 110 W). Keyed by position, it made 0.18 to 0.23, and 0.06 to
/// 0.15 once a phase change stopped cloning the schedule, the roster
/// and the knob grid.
const MAX_PER_POLL_AT_80_W: f64 = 0.2;

/// The system allocator, counting every allocation made while the
/// calling thread has counting switched on.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the flag is gone and nothing is being counted.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the arguments it was
// given, so `System` upholds the `GlobalAlloc` contract; the counter and
// the flag are const-initialized thread-locals without a destructor, so
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract for `alloc` is passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed on
        // unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` was allocated by this allocator, which is `System`,
        // with `layout`; the caller's contract is passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator, which is `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread makes while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get) - before
}

/// Allocations over [`POLLS`] steady polls of every sweep cell at `cap`,
/// one entry per cell, labelled by mix and policy.
fn steady_poll_allocations(cap: Watts) -> Vec<(String, u64)> {
    let spec = ServerSpec::xeon_e5_2620();
    let mut cells = Vec::new();
    for mix in mixes::table2() {
        for kind in PolicyKind::all() {
            let battery = kind == PolicyKind::AppResEsdAware;
            let (mut sim, mut med) = fleet::build_server(&spec, &mix, kind, battery, cap);
            for _ in 0..WARM_POLLS {
                med.step(&mut sim, DT);
            }
            let count = allocations_during(|| {
                for _ in 0..POLLS {
                    std::hint::black_box(med.step(&mut sim, DT));
                }
            });
            cells.push((format!("{} / {}", mix.label(), kind.name()), count));
        }
    }
    cells
}

#[test]
fn steady_server_sweep_polls_do_not_allocate() {
    for cap in [95.0, 110.0] {
        let cells = steady_poll_allocations(Watts::new(cap));
        assert_eq!(cells.len(), 75);
        let allocating: Vec<_> = cells.iter().filter(|(_, n)| *n > 0).collect();
        assert!(
            allocating.is_empty(),
            "{} of 75 cells allocate over {POLLS} steady polls at {cap} W: {allocating:?}",
            allocating.len()
        );
    }
    // At 80 W phase changes duty-cycle, which still allocates, but
    // every cell must stay below the bound.
    let cells = steady_poll_allocations(Watts::new(80.0));
    let over: Vec<_> = cells
        .iter()
        .filter(|(_, n)| *n as f64 / POLLS as f64 >= MAX_PER_POLL_AT_80_W)
        .collect();
    assert!(
        over.is_empty(),
        "{} of 75 cells allocate {MAX_PER_POLL_AT_80_W} or more times per poll at 80 W: {over:?}",
        over.len()
    );
}

/// A replan at the cap in force (mix 1, App+Res-Aware, 100 W) reuses the
/// plan and installs it without allocating (the accountant once made 8
/// allocations per `set_cap` there, re-keying its maps). Debug builds re-plan every
/// reused schedule to check it, which allocates.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-plan every reuse")]
fn set_cap_at_the_cap_in_force_does_not_allocate() {
    let spec = ServerSpec::xeon_e5_2620();
    let mix = mixes::mix(1).expect("Table II mix 1");
    let cap = Watts::new(100.0);
    let (mut sim, mut med) = fleet::build_server(&spec, &mix, PolicyKind::AppResAware, false, cap);
    for _ in 0..WARM_POLLS {
        med.step(&mut sim, DT);
    }
    med.set_cap(&mut sim, cap);
    let count = allocations_during(|| {
        for _ in 0..100 {
            med.set_cap(&mut sim, cap);
        }
    });
    assert_eq!(count, 0, "100 set_caps at the cap in force allocated");
}

/// Allocations `fleet_scale`'s fleet (100 servers, `Unequal(Ours)`,
/// perfect control, seed 42, a warm measurement cache) may make to boot
/// and run two control steps. Each mediator planning alone made 35,014;
/// one plan per distinct input across the fleet makes 23,525.
const MAX_FLEET_BOOT_ALLOCATIONS: u64 = 23_525;

/// Booting the 100-server fleet and running two steps stays within
/// [`MAX_FLEET_BOOT_ALLOCATIONS`]. Debug builds re-plan every booked
/// schedule to check it, which allocates.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-plan every reuse")]
fn a_fleet_boots_within_its_allocation_bound() {
    let mixes = ClusterManager::new(100, 42).workload();
    let trace = ClusterPowerTrace::synthetic_diurnal(100, Seconds::new(1.0), 42)
        .peak_shaved(Ratio::new(0.15));
    let boot = || {
        let report = control::run_cluster(
            &mixes,
            ManagedPolicy::unequal_ours(),
            &trace,
            Seconds::new(0.5),
            &ControlOptions::perfect(42),
        );
        std::hint::black_box(report);
    };
    // The first run fills the shared measurement cache.
    boot();
    let count = allocations_during(boot);
    assert!(
        count <= MAX_FLEET_BOOT_ALLOCATIONS,
        "the fleet's boot and two steps made {count} allocations"
    );
}

/// The optional layers of `server_composed`'s server. The defense rides
/// on estimation, so "defense" switches both on.
const LAYERS: [&str; 7] = [
    "faults",
    "hardening",
    "calibration",
    "estimation",
    "defense",
    "traffic",
    "defiance",
];

/// Seeds of the composed cells; each seeds every layer's stream.
const COMPOSED_SEEDS: [u64; 4] = [1, 2, 3, 4];
const COMPOSED_WARM_POLLS: usize = 100;
const COMPOSED_POLLS: usize = 1_500;

/// Allocations a composed cell may make over [`COMPOSED_POLLS`] polls,
/// summed over [`COMPOSED_SEEDS`], at 80 W and at 100 W: one row per
/// layer alone, one with none and one with all seven. A change may
/// lower a bound, never raise it. Per-mediator plan memos made 170,000
/// and 204,000 with the defiant kmeans alone, 126,368 with traffic
/// alone at 100 W and 155,303 and 168,590 with all seven: a surface
/// re-measured into a new `Arc` with equal content missed the memo,
/// and finds its plan in the content-keyed book. Estimation made 92,408
/// and 90,000, estimation with the defense 95,700 and 114,000, and all
/// seven 155,230 and 167,660, while the estimator collected its priors,
/// shares and breakdown anew each poll, the defense its claims, and the
/// accountant kept five name-keyed maps; with those updated in place,
/// what is left is the 80 W duty cycle and the replans.
const COMPOSED_BOUNDS: &[(&str, u64, u64)] = &[
    ("none", 2_408, 0),
    ("faults", 2_377, 0),
    ("hardening", 2_408, 0),
    ("calibration", 2_588, 2_880),
    ("estimation", 2_408, 0),
    ("defense", 2_408, 0),
    ("traffic", 3_190, 24_195),
    ("defiance", 24_000, 38_000),
    ("all", 38_846, 43_773),
];

/// `server_composed`'s server (stream, kmeans and pagerank under
/// App+Res-Aware, kmeans the defiant app) at `cap` with the `on` layers,
/// every layer's stream seeded from `seed`.
fn composed_server(on: &[&str], seed: u64, cap: Watts) -> (ServerSim, PowerMediator) {
    let has = |layer: &str| on.contains(&layer);
    let spec = ServerSpec::xeon_e5_2620();
    let mut sim = ServerSim::new(spec.clone(), Box::new(NoEsd));
    if has("faults") {
        sim = sim.with_fault_injection(FaultConfig::default_scenario(seed));
    }
    if has("defiance") {
        sim = sim.with_adversary(AdversaryConfig::noncompliance(seed + 1, &["kmeans"]));
    }
    let mut med = PowerMediator::new(PolicyKind::AppResAware, spec, cap);
    if has("hardening") {
        med = med.with_hardening(HardeningConfig::default());
    }
    if has("estimation") || has("defense") {
        med = med.with_estimation(EstimatorConfig::default());
    }
    if has("defense") {
        med = med.with_integrity_defense(TrustConfig::default());
    }
    if has("calibration") {
        med = med.with_online_calibration(&catalog::all(), 0.10);
    }
    for app in [catalog::stream(), catalog::kmeans(), catalog::pagerank()] {
        med.admit(&mut sim, app).expect("the three apps fit");
    }
    if has("traffic") {
        sim.attach_traffic(TrafficConfig {
            seed: seed + 2,
            ..TrafficConfig::default()
        });
    }
    (sim, med)
}

/// Allocations over [`COMPOSED_POLLS`] polls of the composed cell with
/// the `on` layers at `cap`, summed over [`COMPOSED_SEEDS`].
fn composed_allocations(on: &[&str], cap: Watts) -> u64 {
    COMPOSED_SEEDS
        .iter()
        .map(|&seed| {
            let (mut sim, mut med) = composed_server(on, seed, cap);
            for _ in 0..COMPOSED_WARM_POLLS {
                med.step(&mut sim, DT);
            }
            allocations_during(|| {
                for _ in 0..COMPOSED_POLLS {
                    std::hint::black_box(med.step(&mut sim, DT));
                }
            })
        })
        .sum()
}

/// The composed poll, one layer at a time and all seven together, stays
/// within [`COMPOSED_BOUNDS`] at 80 W and 100 W. Debug builds re-plan
/// every reused schedule and re-complete every reused calibration to
/// check them, which allocates.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-plan every reuse")]
fn composed_polls_stay_within_their_allocation_bounds() {
    let mut over = Vec::new();
    let mut counted = Vec::new();
    for &(row, at_80, at_100) in COMPOSED_BOUNDS {
        let on: Vec<&str> = match row {
            "none" => Vec::new(),
            "all" => LAYERS.to_vec(),
            layer => vec![layer],
        };
        for (cap, bound) in [(80.0, at_80), (100.0, at_100)] {
            let count = composed_allocations(&on, Watts::new(cap));
            counted.push((row, cap, count));
            if count > bound {
                over.push((row, cap, count, bound));
            }
        }
    }
    assert_eq!(counted.len(), 2 * (LAYERS.len() + 2));
    assert!(
        over.is_empty(),
        "composed cells over their bound (layers, cap, count, bound): {over:?}; \
         every count: {counted:?}"
    );
}

/// Allocations of a replan that grafts a quarantine clamp onto a booked
/// plan when the plan and the clamps repeat: the mediator installs the
/// merged schedule it holds. Copying the plan, merging the clamp into
/// it, its `Arc` and a clamp list of cloned names made 14.
const CLAMPED_REPLAN_ALLOCATIONS: u64 = 0;

/// The defiant kmeans under the defense is quarantined and clamped, so
/// a replan merges its clamp into a copy of the booked honest plan, and
/// the mediator installs the copy. A replan at the cap in force still
/// finds the honest plan, however many plans another mediator of its
/// fleet books meanwhile, because the mediator holds its last plan: it
/// computes one plan, merges once, and then reinstalls the merged
/// schedule it holds.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-plan every reuse")]
fn a_clamped_replan_at_the_cap_in_force_plans_once() {
    let cap = Watts::new(100.0);
    let (mut sim, mut med) = composed_server(&["defense", "defiance"], 1, cap);
    let mut polls = 0;
    while !med.trust_score("kmeans").is_some_and(|t| t.quarantined()) {
        med.step(&mut sim, DT);
        polls += 1;
        assert!(polls < 10_000, "kmeans is never quarantined");
    }
    let book = PlanBook::default();
    let mut med = med.with_plan_book(book.clone());
    let plans = med.plans();
    med.set_cap(&mut sim, cap);
    assert_eq!(med.plans() - plans, 1, "the honest plan, booked");
    let clamped = match med.schedule() {
        Schedule::Space { settings }
        | Schedule::EsdCycle { settings, .. }
        | Schedule::Hybrid {
            pinned: settings, ..
        } => settings.contains_key("kmeans"),
        _ => false,
    };
    assert!(clamped, "kmeans runs clamped: {:?}", med.schedule());

    let (mut other_sim, other) = composed_server(&[], 1, cap);
    let mut other = other.with_plan_book(book.clone());
    for step in 0..200 {
        other.set_cap(&mut other_sim, Watts::new(60.0 + 0.25 * f64::from(step)));
    }
    assert!(
        book.plans() < 200,
        "the book dropped the plans nobody holds"
    );

    let plans = med.plans();
    let count = allocations_during(|| {
        for _ in 0..100 {
            med.set_cap(&mut sim, cap);
        }
    });
    assert_eq!(med.plans(), plans, "the honest plan stayed booked");
    assert_eq!(
        count,
        100 * CLAMPED_REPLAN_ALLOCATIONS,
        "100 clamped replans at the cap in force allocated"
    );
}

/// With estimation and the defense on, a steady poll at 100 W makes no
/// allocation: the estimator solves into buffers it keeps and updates
/// the held breakdown in place, the priors and the defense's claims are
/// rewritten in place, and the accountant looks each app's row up once.
/// The estimator alone made 15 allocations per poll there, and 19 with
/// the defense.
#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-plan every reuse")]
fn steady_estimated_and_defended_polls_do_not_allocate() {
    let count = composed_allocations(&["estimation", "defense"], Watts::new(100.0));
    assert_eq!(
        count,
        0,
        "estimation and defense at 100 W allocated over {COMPOSED_POLLS} polls x {} seeds",
        COMPOSED_SEEDS.len()
    );
}
