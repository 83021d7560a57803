//! Runs the warm-start knowledge-plane extension; `--smoke` checks its
//! determinism digest and `--gate` its 10 s wall-clock budget.
fn main() {
    powermed_bench::harness::main("ext_warmstart");
}
