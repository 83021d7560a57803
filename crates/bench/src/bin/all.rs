//! Regenerates every table and figure of the paper in order, timing each
//! and printing the wall-clock breakdown. `--gate` also enforces the
//! 1.5 s budget and then the flight recorder's overhead bound, 5% of
//! that wall clock; `--smoke` checks every smoke digest in the registry
//! (the lines of `crates/bench/golden/smoke_digests.txt`).
fn main() {
    powermed_bench::harness::main("all");
}
