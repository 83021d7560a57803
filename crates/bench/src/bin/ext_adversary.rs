//! Runs the adversarial-mediation extension; `--smoke` checks its
//! determinism digest and `--gate` its release bounds.
fn main() {
    powermed_bench::harness::main("ext_adversary");
}
