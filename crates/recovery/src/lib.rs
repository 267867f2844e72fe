//! # recovery — MPI fault-tolerance designs: Restart, ULFM and Reinit, combined with FTI
//!
//! This crate implements the three fault-tolerance *designs* that MATCH compares:
//!
//! * **RESTART-FTI** — on a failure the whole job is torn down, re-queued and
//!   relaunched; the application then restores the latest FTI checkpoint. The baseline.
//! * **ULFM-FTI** — the application installs an error handler; on a failure it revokes
//!   the world communicator, shrinks it to the survivors, spawns replacement processes,
//!   merges them back and agrees on the repaired world (Fig. 3 of the paper), then
//!   rolls everyone back to the last checkpoint. ULFM additionally runs a background
//!   heartbeat failure detector whose overhead is charged against application
//!   execution.
//! * **REINIT-FTI** — the MPI runtime itself rolls every process back to the
//!   registered resilient-main entry point, with a repair cost that is essentially
//!   independent of the number of processes.
//!
//! All three designs perform *global, backward, non-shrinking* recovery, matching the
//! paper's focus. The central type is [`FtDriver`]: it wraps an application main loop
//! (written against `mpisim::RankCtx` and `fti::Fti`), injects the configured process
//! failure, detects it, runs the strategy-specific recovery protocol and re-enters the
//! application until it completes. The time breakdown (application / checkpoint write /
//! checkpoint read / recovery) that the MATCH figures report is collected on the rank
//! context.
//!
//! ```
//! use fti::store::CheckpointStore;
//! use fti::{FtiConfig, Protectable};
//! use mpisim::{Cluster, ClusterConfig};
//! use recovery::{FaultPlan, FtConfig, FtDriver, RecoveryStrategy};
//!
//! let config = FtConfig::new(RecoveryStrategy::Reinit, FtiConfig::default().interval(5))
//!     .with_fault(FaultPlan::kill_rank_at(2, 7));
//! let store = CheckpointStore::shared();
//! let cluster = Cluster::new(ClusterConfig::with_ranks(8));
//! let outcome = cluster.run(move |ctx| {
//!     let driver = FtDriver::new(config.clone(), store.clone());
//!     driver.execute(ctx, |ctx, fti, injector| {
//!         let world = ctx.world();
//!         let mut sum = 0.0f64;
//!         let mut start = 1u64;
//!         fti.protect(0, "sum", &sum);
//!         if let Some(iteration) = fti.status().restart_iteration() {
//!             fti.recover_object(ctx, 0, &mut sum)?;
//!             start = iteration + 1;
//!         }
//!         for iteration in start..=20 {
//!             injector.maybe_fail(ctx, iteration)?;
//!             sum += ctx.allreduce_sum_f64(&world, 1.0)?;
//!             if fti.should_checkpoint(iteration) {
//!                 fti.checkpoint(ctx, iteration, &[(0, &sum as &dyn Protectable)])?;
//!             }
//!         }
//!         Ok(sum)
//!     })
//! });
//! assert!(outcome.all_ok());
//! // Every rank computed the same, failure-free answer: 20 iterations x 8 ranks.
//! for rank in outcome.ranks() {
//!     assert_eq!(rank.result.as_ref().unwrap().value, Some(160.0));
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod driver;
pub mod inject;
pub mod path;
pub mod report;
pub mod strategy;

pub use driver::{AttemptRecord, DriverOutcome, FtConfig, FtDriver};
pub use inject::{ArrivalModel, FailureTrace, FaultInjector, FaultPlan};
pub use path::{AttemptEntry, CoveragePath, Restore};
pub use report::{AttemptSummary, RunReport};
pub use strategy::{HealthyRuntime, RecoveryStrategy};
