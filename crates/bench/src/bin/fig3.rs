//! Regenerates fig3 of the paper. Run with `--release` for speed.
fn main() {
    powermed_bench::harness::main("fig3");
}
