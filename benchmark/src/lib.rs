//! # match-perf — the MATCH-RS performance benchmark
//!
//! One harness, six workloads, end-to-end metrics measured with tracing off and a
//! per-layer traced run. MATCH-RS is a deterministic simulator: **host time is the
//! cost, virtual time is the output**, so every number says which of the two it is,
//! and every workload also emits a `sim_digest` so that a later speed-up can be shown
//! to leave every simulated statistic identical. See `README.md` for the metric and
//! workload definitions and [`spec`] for the tables everything is written against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cli;
pub mod host;
pub mod json;
pub mod probes;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod worker;
pub mod workloads;
