//! Runs the latency-critical co-location extension.
fn main() {
    powermed_bench::harness::main("ext_latency");
}
