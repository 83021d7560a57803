//! Regenerates fig9 of the paper. Run with `--release` for speed.
fn main() {
    powermed_bench::harness::main("fig9");
}
