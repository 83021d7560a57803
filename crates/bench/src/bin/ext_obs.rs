//! Runs the flight-recorder extension; `--smoke` checks its two
//! determinism digests and `--gate` bounds the enabled-mode overhead and
//! the fleet's per-wave shipping bytes.
fn main() {
    powermed_bench::harness::main("ext_obs");
}
