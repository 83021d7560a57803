//! Runs the fault-injection extension; `--smoke` checks its determinism
//! digest.
fn main() {
    powermed_bench::harness::main("ext_faults");
}
