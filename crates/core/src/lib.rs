//! # match_core — the MATCH benchmark suite
//!
//! This crate ties the substrates together into the benchmark suite the MATCH paper
//! describes: six proxy applications ([`match_proxies`](proxies)) instrumented with
//! FTI checkpointing ([`fti`]) and driven under the MPI fault-tolerance designs
//! ([`recovery`]) on a simulated cluster ([`mpisim`]) — the paper's three plus the
//! beyond-the-paper shrinking `SHRINK-FTI` (see [`designs`] for the registry every
//! figure enumerates) — plus the experiment matrix, figure generators and findings
//! extraction of the paper's evaluation (Section V).
//!
//! The main entry points are:
//!
//! * [`engine::SuiteEngine`] — the execution engine: runs experiments in parallel
//!   (bounded by the `MATCH_JOBS` environment variable), caches every result by
//!   content ([`cache::ExperimentId`]) both in memory and — across processes — in
//!   the persistent [`persist::DiskCache`], and reports failures as
//!   [`engine::SuiteError`] values instead of panicking;
//! * [`Experiment`] / [`SuiteEngine::run`] — run one workload under one design
//!   at one scale, with or without an injected process failure, averaged over
//!   repetitions, and get back a [`recovery::RunReport`] time breakdown;
//! * [`matrix`] — the paper's run matrices: the scaling sweep (Figs. 5–7) and the
//!   input-size sweep (Figs. 8–10);
//! * [`Figure`] — regenerate each figure's data as printable tables, on the engine
//!   the caller passes in;
//! * [`table1`] — reproduce Table I (the experimentation configuration);
//! * [`findings`] — the headline comparisons of Section V-C (Reinit vs. ULFM vs.
//!   Restart recovery ratios, checkpoint-time fraction).
//!
//! ```
//! use match_core::{Experiment, SuiteEngine, SuiteOptions};
//! use proxies::{InputSize, ProxyKind};
//! use recovery::RecoveryStrategy;
//!
//! let options = SuiteOptions::smoke();
//! let experiment = Experiment::new(ProxyKind::Hpccg, InputSize::Small, 8, RecoveryStrategy::Reinit)
//!     .with_failure(true)
//!     .with_options(&options);
//! let engine = SuiteEngine::new();
//! let report = engine.run(&experiment).expect("experiment must recover");
//! assert!(report.recovery_time().as_secs() > 0.0);
//! // Asking again is answered from the engine's result cache.
//! assert_eq!(engine.run(&experiment).unwrap(), report);
//! assert_eq!(engine.cache_stats().hits, 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod designs;
pub mod engine;
pub mod experiment;
pub mod figures;
pub mod findings;
pub mod knobs;
pub mod matrix;
pub mod mtbf;
pub mod persist;
pub mod runner;
pub mod table;
pub mod table1;

pub use cache::{CacheStats, ExperimentId};
pub use designs::{enabled_design_names, enabled_designs};
pub use engine::{core_budget, SuiteEngine, SuiteError};
pub use experiment::{Experiment, FailureScenario, SuiteOptions};
pub use figures::{Figure, FigureData, FigureRow};
pub use findings::Findings;
pub use mtbf::{MtbfSweep, MtbfSweepOptions};
pub use persist::DiskCache;
pub use runner::{run_trace, TraceRunOutcome, TraceRunSpec};

// Re-export the building blocks so downstream users (examples, benches) need only one
// dependency.
pub use fti;
pub use mpisim;
pub use proxies;
pub use recovery;
