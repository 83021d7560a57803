//! Runs every ablation and extension experiment in the registry (beyond
//! the paper's own tables and figures).
fn main() {
    powermed_bench::harness::main("extensions");
}
