//! # deptrace — data-dependency analysis for checkpoint-object selection
//!
//! MATCH contributes a practical analysis tool that tells programmers *which data
//! objects must be checkpointed* for an application to be resumable. The tool consumes
//! a dynamic execution trace (the paper uses LLVM-Tracer) and applies three principles
//! (Algorithm 1 of the paper):
//!
//! 1. a checkpointed object must be **defined before** the main computation loop
//!    (objects local to a loop iteration are excluded),
//! 2. it must be **used (read or written) across iterations** of the main loop, and
//! 3. its **value must vary** across iterations (constants need not be saved).
//!
//! This crate provides:
//!
//! * the trace representation ([`record`], [`trace`]) — dynamic operation records with
//!   a location (register or memory address), the observed value, and the source line,
//!   equivalent to the information LLVM-Tracer emits;
//! * a runtime [`tracer::Tracer`] a program (or test harness) drives explicitly to
//!   record such a trace, standing in for the LLVM instrumentation pass — the
//!   simulated proxy applications are not instrumented with it;
//! * the analysis itself ([`analysis`]): a faithful implementation of Algorithm 1 that
//!   returns the set of locations to checkpoint;
//! * a human-readable report ([`report`]) mapping the selected locations back to the
//!   named data objects the application registered.
//!
//! ```
//! use deptrace::tracer::Tracer;
//! use deptrace::analysis::find_checkpoint_objects;
//!
//! let mut tracer = Tracer::new();
//! // Before the main loop: two arrays and a scalar are allocated.
//! tracer.record_definition("solution", 0x1000, 10);
//! tracer.record_definition("matrix", 0x2000, 11);
//! tracer.record_definition("tolerance", 0x3000, 12);
//!
//! tracer.begin_main_loop();
//! for iteration in 0..5u64 {
//!     tracer.begin_iteration(iteration);
//!     // The solution changes every iteration; the matrix is read but never changes;
//!     // the tolerance is a constant read.
//!     tracer.record_write("solution", 0x1000, 100 + iteration, 20);
//!     tracer.record_read("matrix", 0x2000, 7, 21);
//!     tracer.record_read("tolerance", 0x3000, 42, 22);
//!     // A loop-local temporary changes every iteration but is defined inside.
//!     tracer.record_write("temp", 0x9000, iteration, 23);
//! }
//!
//! let result = find_checkpoint_objects(&tracer.into_trace());
//! let names: Vec<&str> = result.objects.iter().map(|o| o.name.as_str()).collect();
//! assert_eq!(names, vec!["solution"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analysis;
pub mod record;
pub mod report;
pub mod trace;
pub mod tracer;

pub use analysis::{find_checkpoint_objects, AnalysisResult};
pub use record::{Location, OpKind, TraceRecord};
pub use report::CheckpointObject;
pub use trace::Trace;
pub use tracer::Tracer;
