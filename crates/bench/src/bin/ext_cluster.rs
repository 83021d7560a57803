//! Runs the utility-aware cluster apportionment extension.
fn main() {
    powermed_bench::harness::main("ext_cluster");
}
