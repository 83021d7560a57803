//! `powermed-traffic`: a seeded, deterministic open-loop request
//! generator for the mediation testbed.
//!
//! The paper evaluates mediation against fixed roofline profiles with
//! scripted arrivals; this crate supplies the missing demand side — a
//! user population issuing Poisson requests shaped by a diurnal curve
//! and flash-crowd bursts, split across apps by Zipf popularity, with
//! bounded-Pareto per-request cost. The simulation consumes it as a
//! time-varying offered-load signal: app utilization and heartbeats
//! track served throughput, queues absorb what a capped server cannot
//! serve, and per-request latency against an SLO budget yields the
//! attainment metric the `ext_traffic` experiment sweeps against cap
//! tightness.
//!
//! Everything is seeded and deterministic
//! ([`powermed_units::rng::SplitMix`] channels, fixed draw order), so the harness's CRN and smoke-digest contracts extend
//! to traffic unchanged. The crate is pure demand-side modeling: it
//! depends only on `powermed-units` and is entirely optional to the
//! simulation (zero-cost when no source is attached).

pub mod diurnal;
pub mod samplers;
pub mod source;

pub use diurnal::{DiurnalCurve, FlashCrowds};
pub use samplers::{zipf_weights, BoundedPareto, ZipfRanks};
pub use source::{TrafficConfig, TrafficEvent, TrafficSource, TrafficStats};
