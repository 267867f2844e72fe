//! # fti — a multi-level application checkpointing library
//!
//! This crate is the MATCH-RS stand-in for the Fault Tolerance Interface (FTI) used by
//! the MATCH paper for data recovery. It provides the same programming model:
//!
//! 1. the application *protects* its critical data objects,
//! 2. periodically writes *checkpoints* of the protected objects, and
//! 3. after a restart asks FTI whether a checkpoint exists ([`Fti::status`]) and, if so,
//!    *recovers* the protected objects from it.
//!
//! Like the original library it offers four checkpoint levels of increasing resilience
//! and cost (see [`CheckpointLevel`]):
//!
//! * **L1** — node-local RAM-disk checkpoints (the level used throughout the paper's
//!   evaluation, stored in `/dev/shm`),
//! * **L2** — L1 plus a copy on a partner node,
//! * **L3** — Reed–Solomon erasure-coded checkpoints across a group of ranks
//!   (a real GF(2⁸) codec, see [`rs_code`]),
//! * **L4** — checkpoints flushed to the parallel file system, with optional
//!   differential writes of the changed blocks only (see [`diff`]).
//!
//! Checkpoint bytes are really stored (in the in-memory [`store::CheckpointStore`] that
//! models the cluster's storage media) and really restored into the application's
//! buffers, so recovered runs must reproduce the failure-free answer — several
//! integration tests rely on exactly that property. Time is charged to the virtual
//! clock of the calling rank through the machine model of `mpisim`.
//!
//! ## Example
//!
//! ```
//! use fti::{CheckpointLevel, Fti, FtiConfig, Protectable, store::CheckpointStore};
//! use mpisim::{Cluster, ClusterConfig};
//!
//! let store = CheckpointStore::shared();
//! let cluster = Cluster::new(ClusterConfig::with_ranks(4));
//! let store2 = store.clone();
//! let outcome = cluster.run(move |ctx| {
//!     let mut fti = Fti::init(FtiConfig::level(CheckpointLevel::L1), store2.clone(), ctx)?;
//!     let mut field = vec![ctx.rank() as f64; 1024];
//!     fti.protect(0, "field", &field);
//!     if fti.status().is_restart() {
//!         fti.recover_object(ctx, 0, &mut field)?;
//!     }
//!     for iteration in 1..=20u64 {
//!         // ... compute on `field` ...
//!         if fti.should_checkpoint(iteration) {
//!             fti.checkpoint(ctx, iteration, &[(0, &field as &dyn Protectable)])?;
//!         }
//!     }
//!     fti.finalize(ctx)?;
//!     Ok(())
//! });
//! assert!(outcome.all_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod api;
pub mod config;
pub mod diff;
pub mod level;
pub mod meta;
pub mod placement;
pub mod protect;
pub mod rs_code;
pub mod shrink;
pub mod store;

pub use api::{Fti, FtiStatus, RestoreObservation};
pub use config::{CheckpointLevel, FtiConfig};
pub use level::RestoreSource;
pub use protect::{block_range, ObjectLayout, Protectable};
pub use shrink::{redistribute_after_shrink, ShrinkOutcome};
