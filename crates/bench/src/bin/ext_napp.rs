//! Runs the three-application consolidation extension.
fn main() {
    powermed_bench::harness::main("ext_napp");
}
