//! # mpisim — a simulated MPI cluster runtime with virtual time
//!
//! `mpisim` is the substrate on which the MATCH-RS benchmark suite runs. It plays the
//! role that a real cluster plus an MPI runtime (Open MPI with the ULFM and Reinit
//! fault-tolerance extensions) plays in the original MATCH paper.
//!
//! The central idea is **virtual time, real data**: every MPI rank runs as a fiber
//! (or, on the reference backend, an operating system thread — see [`sched`])
//! executing the *real* distributed algorithm on real buffers, but the
//! time reported for an experiment is not wall-clock time. Instead each rank carries a
//! virtual clock ([`SimTime`]) that is advanced by an explicit, calibrated machine model
//! ([`MachineModel`]): point-to-point messages pay an α–β (latency + bytes/bandwidth)
//! cost, collectives pay a logarithmic tree cost, computation pays a per-FLOP cost, and
//! checkpoint I/O pays a per-byte cost of the selected storage tier. This makes every
//! experiment deterministic and independent of the host machine while preserving the
//! *shape* of the results the paper reports.
//!
//! ## Features
//!
//! * Point-to-point messaging with tags and `ANY_SOURCE`/`ANY_TAG` matching
//!   ([`RankCtx::send_bytes`], [`RankCtx::recv_bytes`]).
//! * The collective operations used by the MATCH proxy applications: barrier,
//!   broadcast, reduce, allreduce, gather, allgather, scatter and scan.
//! * Communicator management: world, `dup`, `split`, and the ULFM `shrink`.
//! * Fail-stop process failures, a failure-notification model with ULFM semantics
//!   (operations touching a failed process or a revoked communicator return
//!   [`MpiError::ProcFailed`] / [`MpiError::Revoked`]), and runtime repair primitives
//!   used to implement global-restart recovery.
//! * ULFM extensions ([`ulfm`]): revoke, shrink, agreement, failure acknowledgement and
//!   a modelled spawn/merge that rebuilds a non-shrunk world.
//! * Reinit extension ([`reinit`]): a runtime-level global-restart primitive with a
//!   process-count-independent cost, mirroring the Reinit design.
//! * Per-rank statistics and a per-rank time breakdown (application, checkpoint write,
//!   checkpoint read, recovery) used by the MATCH figures.
//!
//! ## Quick example
//!
//! ```
//! use mpisim::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::with_ranks(8));
//! let outcome = cluster.run(|ctx| {
//!     // Every rank contributes its rank id; the sum must be 0+1+..+7.
//!     let world = ctx.world();
//!     let sum = ctx.allreduce_sum_f64(&world, ctx.rank() as f64)?;
//!     assert_eq!(sum, 28.0);
//!     Ok(sum)
//! });
//! assert!(outcome.all_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod collective;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod error;
pub mod failure;
pub mod machine;
pub mod mailbox;
pub mod msg;
pub mod reinit;
pub mod runtime;
pub mod sched;
pub mod state;
pub mod stats;
pub mod time;
pub mod topology;
pub mod ulfm;

pub use comm::Comm;
pub use ctx::{RankCtx, TimeCategory};
pub use error::MpiError;
pub use failure::{FailureKind, FailureSpec};
pub use machine::{LinkDomain, MachineModel};
pub use msg::Payload;
pub use runtime::{Cluster, ClusterConfig, RankOutcome, RunOutcome};
pub use sched::{
    set_default_par_workers, RankScheduler, SchedBackend, SchedStats, BACKEND_ENV_VAR,
    COOP_SUPPORTED, WORKERS_ENV_VAR,
};
pub use stats::{RankStats, TimeBreakdown};
pub use time::SimTime;
pub use topology::Topology;

/// Tag value that matches any tag in a receive operation.
pub const ANY_TAG: i32 = -1;
/// Source value that matches any source rank in a receive operation.
pub const ANY_SOURCE: i32 = -1;
