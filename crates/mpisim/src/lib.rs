//! # mpisim — a simulated MPI cluster runtime with virtual time
//!
//! `mpisim` is the substrate on which the MATCH-RS benchmark suite runs. It plays the
//! role that a real cluster plus an MPI runtime (Open MPI with the ULFM and Reinit
//! fault-tolerance extensions) plays in the original MATCH paper.
//!
//! The central idea is **virtual time, real data**: every MPI rank runs as a fiber
//! (see [`sched`]) executing the *real* distributed algorithm on real buffers, but the
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
//!   ([`RankCtx::send_payload`], [`RankCtx::recv_payload`], and their `f64` forms
//!   [`RankCtx::send_f64`], [`RankCtx::recv_f64`], [`RankCtx::sendrecv_f64`]).
//! * The collective operations the MATCH proxy applications, FTI and the recovery
//!   driver use: barrier, broadcast ([`RankCtx::bcast_payload`]), allreduce and
//!   allgather ([`RankCtx::allgather_u64`]).
//! * Communicators: the world and the ULFM `shrink`.
//! * Fail-stop process failures, a failure-notification model with ULFM semantics
//!   (operations touching a failed process or a revoked communicator return
//!   [`MpiError::ProcFailed`] / [`MpiError::Revoked`]), and runtime repair primitives
//!   used to implement global-restart recovery.
//! * ULFM extensions ([`ulfm`]): revoke, shrink, agreement, failure acknowledgement and
//!   the shrinking-recovery rendezvous.
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

// Ranks run as fibers, whose context switch is assembly written for these targets.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
compile_error!(
    "mpisim requires Linux on x86-64 or AArch64: rank fibers switch context in assembly"
);

pub mod collective;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod error;
pub mod failure;
pub mod knob;
pub mod machine;
pub mod mailbox;
pub mod msg;
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
    set_default_par_workers, SchedBackend, SchedStats, BACKEND_ENV_VAR, WORKERS_ENV_VAR,
};
pub use stats::{RankStats, TimeBreakdown};
pub use time::SimTime;
pub use topology::Topology;

/// Tag value that matches any tag in a receive operation.
pub const ANY_TAG: i32 = -1;
/// Source value that matches any source rank in a receive operation.
pub const ANY_SOURCE: i32 = -1;
