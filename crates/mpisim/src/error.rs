//! Error types returned by simulated MPI operations.

use std::error::Error;
use std::fmt;

/// Errors returned by simulated MPI operations.
///
/// The failure-related variants mirror the error classes ULFM adds to MPI
/// (`MPIX_ERR_PROC_FAILED`, `MPIX_ERR_REVOKED`): an operation that involves a failed
/// process reports [`MpiError::ProcFailed`], and an operation on a revoked communicator
/// reports [`MpiError::Revoked`]. The MATCH recovery drivers treat both as the trigger
/// for global-restart recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpiError {
    /// A process involved in the operation has failed (fail-stop).
    ///
    /// Carries the global rank of a failed process known to the reporting rank.
    ProcFailed {
        /// Global rank of the failed process that triggered the error.
        rank: usize,
    },
    /// The communicator has been revoked (ULFM `MPIX_Comm_revoke`). All pending and
    /// future operations on it fail until it is repaired or replaced.
    Revoked,
    /// The calling process itself has been killed by fault injection. The caller must
    /// unwind to its recovery driver.
    SelfFailed,
    /// The whole job has been aborted (`MPI_Abort` semantics).
    Aborted {
        /// Error code supplied to the abort call.
        code: i32,
    },
    /// A peer rank or communicator member index was out of range.
    InvalidRank {
        /// The offending rank value.
        rank: i32,
        /// Size of the communicator in which it was used.
        comm_size: usize,
    },
    /// An argument was invalid (mismatched buffer lengths, empty membership, ...).
    InvalidArgument(String),
    /// The operation was attempted after the runtime was finalized for this rank.
    Finalized,
    /// Internal runtime error; indicates a bug in the simulator rather than in the
    /// application.
    Internal(String),
}

impl MpiError {
    /// Returns true if this error indicates a process failure or a revoked
    /// communicator, i.e. the conditions a fault-tolerance layer is expected to handle
    /// by running recovery.
    ///
    /// ```
    /// use mpisim::MpiError;
    /// assert!(MpiError::ProcFailed { rank: 3 }.is_process_failure());
    /// assert!(MpiError::Revoked.is_process_failure());
    /// assert!(MpiError::SelfFailed.is_process_failure());
    /// assert!(!MpiError::Finalized.is_process_failure());
    /// ```
    pub fn is_process_failure(&self) -> bool {
        matches!(
            self,
            MpiError::ProcFailed { .. } | MpiError::Revoked | MpiError::SelfFailed
        )
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::ProcFailed { rank } => write!(f, "process failure detected (rank {rank})"),
            MpiError::Revoked => write!(f, "communicator has been revoked"),
            MpiError::SelfFailed => write!(f, "calling process was killed by fault injection"),
            MpiError::Aborted { code } => write!(f, "job aborted with code {code}"),
            MpiError::InvalidRank { rank, comm_size } => {
                write!(
                    f,
                    "invalid rank {rank} for communicator of size {comm_size}"
                )
            }
            MpiError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            MpiError::Finalized => write!(f, "operation attempted after finalize"),
            MpiError::Internal(msg) => write!(f, "internal simulator error: {msg}"),
        }
    }
}

impl Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_classification() {
        assert!(MpiError::ProcFailed { rank: 0 }.is_process_failure());
        assert!(MpiError::Revoked.is_process_failure());
        assert!(MpiError::SelfFailed.is_process_failure());
        assert!(!MpiError::Aborted { code: 1 }.is_process_failure());
        assert!(!MpiError::InvalidArgument("x".into()).is_process_failure());
        assert!(!MpiError::Internal("x".into()).is_process_failure());
    }

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = vec![
            MpiError::ProcFailed { rank: 1 },
            MpiError::Revoked,
            MpiError::SelfFailed,
            MpiError::Aborted { code: 2 },
            MpiError::InvalidRank {
                rank: 9,
                comm_size: 4,
            },
            MpiError::InvalidArgument("bad".into()),
            MpiError::Finalized,
            MpiError::Internal("oops".into()),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("job"));
        }
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_e: E) {}
        takes_err(MpiError::Revoked);
    }
}
