//! Regenerates fig12 of the paper. Run with `--release` for speed.
fn main() {
    powermed_bench::harness::main("fig12");
}
