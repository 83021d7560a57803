//! Runs the ablations experiments. Run with `--release` for speed.
fn main() {
    powermed_bench::harness::main("ablations");
}
