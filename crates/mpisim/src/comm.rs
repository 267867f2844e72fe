//! Communicators.
//!
//! A [`Comm`] is a rank-local handle onto a shared communicator object
//! ([`CommShared`]): an ordered group of global ranks plus the rendezvous slot used for
//! collective operations and the ULFM "revoked" flag. New communicators are created
//! collectively through [`crate::RankCtx::comm_dup`], [`crate::RankCtx::comm_split`] and
//! [`crate::ulfm::comm_shrink`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::collective::CollSlot;
use crate::time::SimTime;

/// Shared state of a communicator, owned jointly by all of its members.
pub struct CommShared {
    /// Unique communicator identifier (used for message matching).
    pub id: u64,
    /// The group: global ranks ordered by communicator rank.
    pub members: Vec<usize>,
    /// Global rank → communicator rank, for groups that are not the identity mapping
    /// (`members[i] == i`, the world communicator): `(global, index)` pairs sorted by
    /// global rank. Keeps [`CommShared::rank_of`] — called once per received message —
    /// from scanning the membership.
    index_of: Option<Vec<(usize, usize)>>,
    /// Rendezvous slot for collective operations over the full membership.
    pub slot: CollSlot,
    /// ULFM revocation flag: once set, all operations on this communicator fail with
    /// [`crate::MpiError::Revoked`] until the communicator is repaired.
    revoked: AtomicBool,
    /// Scratch rendezvous used by ULFM operations that only synchronize the *surviving*
    /// members (shrink, agree). Keyed by an operation sequence number.
    pub(crate) survivor_rounds: Mutex<SurvivorRounds>,
}

/// Book-keeping for survivor-only rendezvous rounds (ULFM shrink/agree).
#[derive(Debug, Default)]
pub(crate) struct SurvivorRounds {
    /// Sequence number of the current round.
    pub seq: u64,
    /// (global rank, entry time, contribution) of members that have arrived.
    pub arrivals: Vec<(usize, SimTime, u64)>,
    /// Result of the finished round: completion time, combined value and (for shrink)
    /// the newly created communicator.
    pub finished: Option<SurvivorResult>,
    /// Number of members that have picked up the finished result.
    pub collected: usize,
}

/// Result of a finished survivor-only rendezvous round.
#[derive(Debug, Clone)]
pub(crate) struct SurvivorResult {
    /// Sequence number of the round this result belongs to.
    pub seq: u64,
    /// Common completion time.
    pub finish_time: SimTime,
    /// Combined scalar value (meaning depends on the operation, e.g. the agreed flag).
    pub value: u64,
    /// Number of members that participated in (and must drain) this round.
    pub participants: usize,
    /// New communicator created by a shrink operation, if any.
    pub new_comm: Option<Arc<CommShared>>,
}

impl std::fmt::Debug for CommShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommShared")
            .field("id", &self.id)
            .field("size", &self.members.len())
            .field("revoked", &self.is_revoked())
            .finish()
    }
}

impl CommShared {
    /// Creates the shared state for a communicator over `members`.
    pub fn new(id: u64, members: Vec<usize>) -> Arc<Self> {
        assert!(
            !members.is_empty(),
            "a communicator needs at least one member"
        );
        let n = members.len();
        let identity = members.iter().enumerate().all(|(i, &m)| i == m);
        let index_of = (!identity).then(|| {
            let mut pairs: Vec<(usize, usize)> =
                members.iter().enumerate().map(|(i, &m)| (m, i)).collect();
            pairs.sort_unstable();
            pairs
        });
        Arc::new(CommShared {
            id,
            members,
            index_of,
            slot: CollSlot::new(n),
            revoked: AtomicBool::new(false),
            survivor_rounds: Mutex::new(SurvivorRounds::default()),
        })
    }

    /// Whether the communicator has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.revoked.load(Ordering::SeqCst)
    }

    /// Marks the communicator revoked (ULFM `MPIX_Comm_revoke`).
    pub fn revoke(&self) {
        self.revoked.store(true, Ordering::SeqCst);
    }

    /// Clears the revoked flag and resets the collective slot. Called by the runtime
    /// repair step of global-restart recovery.
    pub fn repair(&self) {
        self.revoked.store(false, Ordering::SeqCst);
        self.slot.reset();
        *self.survivor_rounds.lock() = SurvivorRounds::default();
    }

    /// The communicator-local rank of `global_rank`, if it is a member.
    pub fn rank_of(&self, global_rank: usize) -> Option<usize> {
        match &self.index_of {
            None => (global_rank < self.members.len()).then_some(global_rank),
            Some(pairs) => pairs
                .binary_search_by_key(&global_rank, |&(global, _)| global)
                .ok()
                .map(|at| pairs[at].1),
        }
    }
}

/// A rank-local handle to a communicator.
#[derive(Debug, Clone)]
pub struct Comm {
    pub(crate) shared: Arc<CommShared>,
    pub(crate) my_index: usize,
}

impl Comm {
    /// Creates a handle for the member at `my_index` of `shared`.
    ///
    /// # Panics
    ///
    /// Panics if `my_index` is out of range.
    pub(crate) fn new(shared: Arc<CommShared>, my_index: usize) -> Self {
        assert!(my_index < shared.members.len(), "member index out of range");
        Comm { shared, my_index }
    }

    /// Unique identifier of the communicator.
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.shared.members.len()
    }

    /// This rank's position within the communicator (its "MPI rank" in this
    /// communicator).
    pub fn rank(&self) -> usize {
        self.my_index
    }

    /// Translates a communicator rank to a global rank.
    ///
    /// # Panics
    ///
    /// Panics if `comm_rank` is out of range.
    pub fn global_rank_of(&self, comm_rank: usize) -> usize {
        self.shared.members[comm_rank]
    }

    /// The global ranks of all members, ordered by communicator rank.
    pub fn members(&self) -> &[usize] {
        &self.shared.members
    }

    /// Whether `global_rank` is a member of this communicator.
    pub fn contains(&self, global_rank: usize) -> bool {
        self.shared.rank_of(global_rank).is_some()
    }

    /// Whether the communicator has been revoked.
    pub fn is_revoked(&self) -> bool {
        self.shared.is_revoked()
    }

    /// Access to the shared state (crate-internal).
    pub(crate) fn shared(&self) -> &Arc<CommShared> {
        &self.shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_and_translation() {
        let shared = CommShared::new(7, vec![4, 2, 9]);
        let c = Comm::new(Arc::clone(&shared), 1);
        assert_eq!(c.id(), 7);
        assert_eq!(c.size(), 3);
        assert_eq!(c.rank(), 1);
        assert_eq!(c.global_rank_of(0), 4);
        assert_eq!(c.global_rank_of(2), 9);
        assert!(c.contains(2));
        assert!(!c.contains(3));
        assert_eq!(shared.rank_of(9), Some(2));
        assert_eq!(shared.rank_of(1), None);
    }

    #[test]
    fn revoke_and_repair() {
        let shared = CommShared::new(1, vec![0, 1]);
        assert!(!shared.is_revoked());
        shared.revoke();
        assert!(shared.is_revoked());
        shared.repair();
        assert!(!shared.is_revoked());
    }

    #[test]
    #[should_panic]
    fn empty_membership_panics() {
        let _ = CommShared::new(1, vec![]);
    }

    #[test]
    #[should_panic]
    fn bad_member_index_panics() {
        let shared = CommShared::new(1, vec![0, 1]);
        let _ = Comm::new(shared, 5);
    }
}
