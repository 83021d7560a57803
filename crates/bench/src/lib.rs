//! Experiment harness for `powermed`: one module per table and figure of
//! the paper, each able to regenerate the corresponding rows/series.
//!
//! Run everything with `cargo run --release -p powermed-bench --bin all`,
//! or individual experiments with `--bin fig8`, `--bin table1`, etc.
//! The harness prints the same quantities the paper reports (normalized
//! throughput per mix and policy, power splits, duty cycles, cluster
//! aggregates), so the shape of every claim can be checked directly
//! against the text; `EXPERIMENTS.md` records a paper-vs-measured
//! comparison for each. Every binary goes through [`harness::main`],
//! which runs the entries of [`experiments::EXPERIMENTS`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod explain;
pub mod harness;
pub mod support;
