//! Regenerates every table and figure of the paper in order, timing each
//! and writing the wall-clock breakdown to `BENCH_harness.json`.
//! `--gate` also enforces the 1.5 s budget; `--smoke` checks every
//! smoke digest in the registry (the lines of
//! `crates/bench/golden/smoke_digests.txt`).
fn main() {
    powermed_bench::harness::main("all");
}
