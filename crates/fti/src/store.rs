//! The simulated checkpoint store.
//!
//! The store models the cluster's storage media: each rank's checkpoints live on the
//! node that hosts the rank (L1/L2/L3) or on the shared parallel file system (L4). The
//! store is shared by every rank of a job **and across global restarts of the
//! application code** — which is exactly why checkpointing works: the `FtDriver`
//! re-enters the application closure after a failure, and the fresh FTI instance finds
//! this rank's checkpoints still present.
//!
//! The store retains the **latest checkpoint set per level** for every rank, matching
//! FTI's multi-level retention: when accumulated erasures destroy the newest (cheap)
//! set, recovery falls back down the hierarchy to an older, more resilient one
//! (L1 → L2 → L4) instead of failing the run — at the price of more lost work.
//!
//! Node failures can be simulated with [`CheckpointStore::erase_node`], which destroys
//! the node-local copies but not partner copies, erasure-coded group shards held by
//! other nodes, or parallel-file-system checkpoints — allowing the resilience
//! differences between the four FTI levels to be exercised in tests.

use std::cmp::Reverse;
use std::sync::Arc;

use mpisim::Payload;
use parking_lot::Mutex;

use crate::config::L3_DATA_SHARDS;
use crate::meta::CheckpointMeta;

/// Where a stored blob physically lives, which decides what destroys it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// On a compute node's local storage (RAM disk / SSD).
    Node(usize),
    /// On a compute node's local storage as part of an L3 encoding group: the blob
    /// carries its full failure-domain coordinates (node, the node's rack, and the
    /// encoding group it belongs to), so tests and recovery accounting can reason
    /// about which domain loss erased which shards.
    GroupShard {
        /// The node holding the shard (what a node crash erases).
        node: usize,
        /// The rack containing that node (what a rack crash erases).
        rack: usize,
        /// The L3 encoding group the shard belongs to.
        group: usize,
    },
    /// On the shared parallel file system.
    ParallelFs,
}

impl Placement {
    /// The compute node this blob lives on (`None` for the parallel file system).
    pub fn node(&self) -> Option<usize> {
        match self {
            Placement::Node(node) | Placement::GroupShard { node, .. } => Some(*node),
            Placement::ParallelFs => None,
        }
    }
}

/// One stored blob: a rank's serialized checkpoint payload or a derived artefact
/// (partner copy, parity shard, differential base).
#[derive(Debug, Clone)]
pub struct StoredBlob {
    /// Physical placement.
    pub placement: Placement,
    /// The bytes, as a shared-buffer view: blobs derived from the same checkpoint
    /// payload (primary copy, partner copy, differential base) alias one allocation,
    /// and cloning a blob — or a whole [`CheckpointSet`] — copies nothing.
    pub data: Payload,
}

/// A complete checkpoint set of one rank: metadata plus its blobs. A blob a node
/// crash destroyed is `None`.
///
/// The logical payload (the concatenation of the protected objects) is not stored
/// separately: it lives in the primary blob (and is reconstructable from the partner
/// copy, surviving Reed–Solomon shards, or the parallel-file-system copy, depending on
/// the level), so that simulated node failures really destroy data and the
/// level-specific recovery paths are exercised for real.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    /// Metadata for the set.
    pub meta: CheckpointMeta,
    /// The rank's own serialized payload, on its node (every level).
    pub primary: Option<StoredBlob>,
    /// The copy on the partner node (L2).
    pub partner: Option<StoredBlob>,
    /// The Reed–Solomon shards scattered over the encoding group, in shard order
    /// (L3; empty at the other levels).
    pub shards: Vec<Option<StoredBlob>>,
    /// The parallel-file-system copy, the base of the next differential write (L4).
    pub diff_base: Option<StoredBlob>,
}

impl CheckpointSet {
    /// Whether the set can still be reconstructed from its surviving blobs: the
    /// primary copy, the partner copy, the parallel-file-system copy, or at least
    /// `k` Reed–Solomon shards.
    fn is_recoverable(&self) -> bool {
        self.primary.is_some()
            || self.partner.is_some()
            || self.diff_base.is_some()
            || self.shards.iter().flatten().count() >= L3_DATA_SHARDS
    }

    /// Destroys every blob placed on `node`.
    fn erase_node(&mut self, node: usize) {
        let blobs = [&mut self.primary, &mut self.partner, &mut self.diff_base];
        for blob in blobs.into_iter().chain(&mut self.shards) {
            if blob
                .as_ref()
                .is_some_and(|b| b.placement.node() == Some(node))
            {
                *blob = None;
            }
        }
    }
}

/// A rank's retained sets, one slot per level (indexed by `CheckpointLevel as usize`).
type LevelSlots = [Option<Arc<CheckpointSet>>; 4];

/// A shared, thread-safe checkpoint store for one simulated job.
///
/// Sets are held behind `Arc`: a reader takes handles under the lock and decodes,
/// charges and splits outside it, and a node crash copies a set on write only if a
/// reader still holds it.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// Per rank (by index), the latest set of each level (FTI's multi-level retention).
    ranks: Mutex<Vec<LevelSlots>>,
}

impl CheckpointStore {
    /// Creates an empty store behind an `Arc`, ready to be shared by a job's ranks and
    /// across application restarts.
    pub fn shared() -> Arc<Self> {
        Arc::new(CheckpointStore::default())
    }

    /// Stores `set` as the latest checkpoint of `rank` at the set's level, replacing
    /// the previous set of that level (older sets at *other* levels are retained for
    /// hierarchical fallback).
    ///
    /// Returns the set this one superseded — the previous set of `rank` at the same
    /// level, if any — the way a map's `insert` returns the value it replaced. The
    /// caller drops it outside the store lock, or reuses its buffer for the next
    /// checkpoint once no other view of it is alive.
    pub fn put(&self, rank: usize, set: CheckpointSet) -> Option<Arc<CheckpointSet>> {
        let mut ranks = self.ranks.lock();
        if ranks.len() <= rank {
            ranks.resize_with(rank + 1, LevelSlots::default);
        }
        ranks[rank][set.meta.level as usize].replace(Arc::new(set))
    }

    /// The retained sets of `rank`, newest first (by checkpoint id); with an
    /// `iteration`, only the newest set taken at exactly that iteration.
    pub fn sets(&self, rank: usize, iteration: Option<u64>) -> Vec<Arc<CheckpointSet>> {
        let ranks = self.ranks.lock();
        let mut sets: Vec<Arc<CheckpointSet>> = ranks
            .get(rank)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|s| iteration.is_none_or(|it| s.meta.iteration == it))
            .cloned()
            .collect();
        drop(ranks);
        sets.sort_by_key(|s| Reverse(s.meta.ckpt_id));
        if iteration.is_some() {
            sets.truncate(1);
        }
        sets
    }

    /// The newest iteration of `rank` whose set is still reconstructible from
    /// surviving blobs, at or below `at_most`. Returns 0 when nothing is recoverable
    /// — the restart agreement treats 0 as "start from scratch".
    pub fn best_recoverable_iteration(&self, rank: usize, at_most: u64) -> u64 {
        // Metadata-only scan under the lock: the restart agreement calls this once
        // per convergence round per rank.
        let ranks = self.ranks.lock();
        ranks
            .get(rank)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|s| s.meta.iteration <= at_most && s.is_recoverable())
            .map(|s| s.meta.iteration)
            .max()
            .unwrap_or(0)
    }

    /// Removes every checkpoint (used between experiment repetitions).
    pub fn clear(&self) {
        self.ranks.lock().clear();
    }

    /// Simulates the loss of a compute node: every blob placed on `node` is destroyed.
    /// Checkpoint sets whose primary payload lived on that node lose it (and can only
    /// be recovered through partner copies, surviving RS shards, or the parallel file
    /// system, depending on the level they were written at).
    pub fn erase_node(&self, node: usize) {
        let mut ranks = self.ranks.lock();
        for set in ranks.iter_mut().flatten().flatten() {
            Arc::make_mut(set).erase_node(node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointLevel;

    fn blob(placement: Placement, bytes: usize) -> Option<StoredBlob> {
        Some(StoredBlob {
            placement,
            data: vec![1; bytes].into(),
        })
    }

    fn set(node: usize, bytes: usize) -> CheckpointSet {
        CheckpointSet {
            meta: CheckpointMeta {
                ckpt_id: 1,
                iteration: 10,
                level: CheckpointLevel::L1,
                bytes,
                object_ids: vec![0],
                object_lens: vec![bytes],
                object_layouts: vec![crate::protect::ObjectLayout::Replicated],
            },
            primary: blob(Placement::Node(node), bytes),
            partner: None,
            shards: Vec::new(),
            diff_base: None,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let store = CheckpointStore::shared();
        assert!(store.sets(3, None).is_empty());
        store.put(3, set(1, 64));
        let sets = store.sets(3, None);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].meta.iteration, 10);
        assert_eq!(sets[0].primary.as_ref().unwrap().data.len(), 64);
        assert_eq!(store.sets(3, Some(10)).len(), 1);
        assert!(store.sets(3, Some(9)).is_empty());
        assert!(store.sets(2, None).is_empty());
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let store = CheckpointStore::shared();
        assert!(store.put(0, set(0, 16)).is_none(), "nothing to supersede");
        let mut newer = set(0, 32);
        newer.meta.ckpt_id = 2;
        let superseded = store
            .put(0, newer)
            .expect("the same level's set is replaced");
        assert_eq!(superseded.meta.ckpt_id, 1);
        assert_eq!(superseded.primary.as_ref().unwrap().data.len(), 16);
        let mut other_level = set(0, 8);
        other_level.meta.ckpt_id = 3;
        other_level.meta.iteration = 20;
        other_level.meta.level = CheckpointLevel::L2;
        assert!(
            store.put(0, other_level).is_none(),
            "a set of another level is retained, not superseded"
        );
        let ids =
            |sets: Vec<Arc<CheckpointSet>>| sets.iter().map(|s| s.meta.ckpt_id).collect::<Vec<_>>();
        assert_eq!(ids(store.sets(0, None)), vec![3, 2], "newest first");
        assert_eq!(ids(store.sets(0, Some(10))), vec![2]);
    }

    #[test]
    fn erase_node_destroys_local_blobs_only() {
        let store = CheckpointStore::shared();
        let mut l4 = set(0, 8);
        l4.partner = blob(Placement::Node(1), 8);
        l4.diff_base = blob(Placement::ParallelFs, 8);
        store.put(0, l4);
        let held = store.sets(0, None).remove(0);
        store.erase_node(0);
        let got = &store.sets(0, None)[0];
        assert!(got.primary.is_none());
        assert!(got.partner.is_some() && got.diff_base.is_some());
        assert!(
            held.primary.is_some(),
            "a reader's handle is copied on write, not erased"
        );
    }

    #[test]
    fn erase_node_destroys_group_shards_on_that_node() {
        let store = CheckpointStore::shared();
        let mut l3 = set(0, 8);
        l3.shards = [1usize, 2]
            .map(|node| {
                blob(
                    Placement::GroupShard {
                        node,
                        rack: node / 2,
                        group: 0,
                    },
                    8,
                )
            })
            .into();
        store.put(0, l3);
        assert_eq!(
            Placement::GroupShard {
                node: 2,
                rack: 1,
                group: 0
            }
            .node(),
            Some(2)
        );
        assert_eq!(Placement::ParallelFs.node(), None);
        store.erase_node(2);
        let got = &store.sets(0, None)[0];
        assert!(got.shards[0].is_some());
        assert!(
            got.shards[1].is_none(),
            "the shard on the crashed node must be gone"
        );
    }

    #[test]
    fn clear_empties_store() {
        let store = CheckpointStore::shared();
        store.put(0, set(0, 8));
        store.clear();
        assert!(store.sets(0, None).is_empty());
    }
}
