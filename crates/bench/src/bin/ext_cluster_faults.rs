//! Runs the cluster control-plane fault extension; `--smoke` checks its
//! determinism digest.
fn main() {
    powermed_bench::harness::main("ext_cluster_faults");
}
