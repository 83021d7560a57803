//! Regenerates fig7 of the paper. Run with `--release` for speed.
//! `--digest` prints the bit-identity digest CI compares against
//! `crates/bench/golden/fig7_digest.txt`.
fn main() {
    powermed_bench::harness::main("fig7");
}
