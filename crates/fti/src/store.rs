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

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use mpisim::Payload;
use parking_lot::Mutex;

use crate::config::CheckpointLevel;
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
    /// The rank whose data this blob belongs to.
    pub owner_rank: usize,
    /// Physical placement.
    pub placement: Placement,
    /// The bytes, as a shared-buffer view: blobs derived from the same checkpoint
    /// payload (primary copy, partner copy, differential base) alias one allocation,
    /// and cloning a blob — or a whole [`CheckpointSet`] — copies nothing.
    pub data: Payload,
}

/// Key identifying a blob within a checkpoint set.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlobKind {
    /// The rank's own serialized checkpoint payload.
    Primary,
    /// A copy of the payload held on the partner node (L2).
    PartnerCopy,
    /// A Reed–Solomon shard (L3); the index is the shard number within the group.
    RsShard(usize),
    /// The full reference payload used as the base of differential checkpoints (L4).
    DiffBase,
}

/// A complete checkpoint set of one rank: metadata plus its blobs.
///
/// The logical payload (the concatenation of the protected objects) is not stored
/// separately: it lives in the [`BlobKind::Primary`] blob (and is reconstructable from
/// partner copies, surviving Reed–Solomon shards, or the parallel-file-system copy,
/// depending on the level), so that simulated node failures really destroy data and the
/// level-specific recovery paths are exercised for real.
#[derive(Debug, Clone)]
pub struct CheckpointSet {
    /// Metadata for the set.
    pub meta: CheckpointMeta,
    /// Blobs by kind.
    pub blobs: HashMap<BlobKind, StoredBlob>,
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Latest checkpoint set per rank *per level* (FTI's multi-level retention).
    latest: HashMap<usize, BTreeMap<CheckpointLevel, CheckpointSet>>,
    /// Total bytes ever written, for reporting.
    bytes_written: u64,
}

impl StoreInner {
    /// The newest retained set of `rank` (highest checkpoint id across levels).
    fn newest(&self, rank: usize) -> Option<&CheckpointSet> {
        self.latest
            .get(&rank)?
            .values()
            .max_by_key(|s| s.meta.ckpt_id)
    }

    fn newest_mut(&mut self, rank: usize) -> Option<&mut CheckpointSet> {
        self.latest
            .get_mut(&rank)?
            .values_mut()
            .max_by_key(|s| s.meta.ckpt_id)
    }
}

/// Whether `set` can still be reconstructed from its surviving blobs: the primary
/// copy, a partner copy, at least `min_shards` Reed–Solomon shards, or the parallel
/// file-system copy.
pub fn set_is_recoverable(set: &CheckpointSet, min_shards: usize) -> bool {
    if set.blobs.contains_key(&BlobKind::Primary)
        || set.blobs.contains_key(&BlobKind::PartnerCopy)
        || set.blobs.contains_key(&BlobKind::DiffBase)
    {
        return true;
    }
    let shards = set
        .blobs
        .keys()
        .filter(|k| matches!(k, BlobKind::RsShard(_)))
        .count();
    shards >= min_shards.max(1)
}

/// A shared, thread-safe checkpoint store for one simulated job.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<StoreInner>,
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
    /// level, if any — the way `HashMap::insert` returns the value it replaced. The
    /// caller drops it outside the store lock, or reuses its buffer for the next
    /// checkpoint once no other view of it is alive.
    pub fn put(&self, rank: usize, set: CheckpointSet) -> Option<CheckpointSet> {
        let mut inner = self.inner.lock();
        inner.bytes_written += set.meta.bytes as u64;
        inner
            .latest
            .entry(rank)
            .or_default()
            .insert(set.meta.level, set)
    }

    /// Returns a clone of the newest checkpoint set of `rank` (across levels), if any.
    pub fn get(&self, rank: usize) -> Option<CheckpointSet> {
        self.inner.lock().newest(rank).cloned()
    }

    /// Every retained set of `rank`, newest first (by checkpoint id).
    pub fn sets_newest_first(&self, rank: usize) -> Vec<CheckpointSet> {
        let inner = self.inner.lock();
        let mut sets: Vec<CheckpointSet> = inner
            .latest
            .get(&rank)
            .map(|m| m.values().cloned().collect())
            .unwrap_or_default();
        sets.sort_by_key(|s| std::cmp::Reverse(s.meta.ckpt_id));
        sets
    }

    /// The newest retained set of `rank` taken at exactly `iteration`, if any.
    pub fn set_at(&self, rank: usize, iteration: u64) -> Option<CheckpointSet> {
        let inner = self.inner.lock();
        inner
            .latest
            .get(&rank)?
            .values()
            .filter(|s| s.meta.iteration == iteration)
            .max_by_key(|s| s.meta.ckpt_id)
            .cloned()
    }

    /// Whether `rank` has a stored checkpoint.
    pub fn has_checkpoint(&self, rank: usize) -> bool {
        self.inner
            .lock()
            .latest
            .get(&rank)
            .is_some_and(|m| !m.is_empty())
    }

    /// The newest checkpoint metadata of `rank`, if any.
    pub fn meta(&self, rank: usize) -> Option<CheckpointMeta> {
        self.inner.lock().newest(rank).map(|s| s.meta.clone())
    }

    /// The newest iteration of `rank` whose set is still reconstructible from
    /// surviving blobs (`min_shards` is the Reed–Solomon data-shard count), at or
    /// below `at_most`. Returns 0 when nothing is recoverable — the restart agreement
    /// treats 0 as "start from scratch".
    pub fn best_recoverable_iteration(&self, rank: usize, at_most: u64, min_shards: usize) -> u64 {
        // Metadata-only scan under the lock: the restart agreement calls this once
        // per convergence round per rank, so it must not clone the retained sets.
        let inner = self.inner.lock();
        inner
            .latest
            .get(&rank)
            .into_iter()
            .flat_map(|m| m.values())
            .filter(|s| s.meta.iteration <= at_most)
            .filter(|s| set_is_recoverable(s, min_shards))
            .map(|s| s.meta.iteration)
            .max()
            .unwrap_or(0)
    }

    /// Adds (or replaces) a blob inside `rank`'s newest checkpoint set. Used for
    /// partner copies and parity shards that other ranks contribute.
    pub fn attach_blob(&self, rank: usize, kind: BlobKind, blob: StoredBlob) {
        let mut inner = self.inner.lock();
        if let Some(set) = inner.newest_mut(rank) {
            set.blobs.insert(kind, blob);
        }
    }

    /// Total payload bytes written into the store so far.
    pub fn bytes_written(&self) -> u64 {
        self.inner.lock().bytes_written
    }

    /// Removes every checkpoint (used between experiment repetitions).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.latest.clear();
        inner.bytes_written = 0;
    }

    /// Simulates the loss of a compute node: every blob placed on `node` is destroyed.
    /// Checkpoint sets whose primary payload lived on that node lose it (and can only
    /// be recovered through partner copies, surviving RS shards, or the parallel file
    /// system, depending on the level they were written at).
    pub fn erase_node(&self, node: usize) {
        let mut inner = self.inner.lock();
        for sets in inner.latest.values_mut() {
            for set in sets.values_mut() {
                set.blobs
                    .retain(|_, blob| blob.placement.node() != Some(node));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointLevel;

    fn set(rank: usize, node: usize, bytes: usize) -> CheckpointSet {
        let mut blobs = HashMap::new();
        blobs.insert(
            BlobKind::Primary,
            StoredBlob {
                owner_rank: rank,
                placement: Placement::Node(node),
                data: vec![1; bytes].into(),
            },
        );
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
            blobs,
        }
    }

    #[test]
    fn put_get_round_trip() {
        let store = CheckpointStore::shared();
        assert!(!store.has_checkpoint(3));
        store.put(3, set(3, 1, 64));
        assert!(store.has_checkpoint(3));
        let got = store.get(3).unwrap();
        assert_eq!(got.meta.iteration, 10);
        assert_eq!(got.blobs[&BlobKind::Primary].data.len(), 64);
        assert_eq!(store.meta(3).unwrap().bytes, 64);
        assert_eq!(store.bytes_written(), 64);
        assert!(!store.has_checkpoint(2));
    }

    #[test]
    fn newer_checkpoint_replaces_older() {
        let store = CheckpointStore::shared();
        assert!(
            store.put(0, set(0, 0, 16)).is_none(),
            "nothing to supersede"
        );
        let mut newer = set(0, 0, 32);
        newer.meta.ckpt_id = 2;
        let superseded = store
            .put(0, newer)
            .expect("the same level's set is replaced");
        assert_eq!(superseded.meta.ckpt_id, 1);
        assert_eq!(superseded.blobs[&BlobKind::Primary].data.len(), 16);
        let mut other_level = set(0, 0, 8);
        other_level.meta.ckpt_id = 3;
        other_level.meta.level = CheckpointLevel::L2;
        assert!(
            store.put(0, other_level).is_none(),
            "a set of another level is retained, not superseded"
        );
        assert_eq!(store.get(0).unwrap().meta.ckpt_id, 3);
        assert_eq!(store.sets_newest_first(0).len(), 2);
        assert_eq!(store.bytes_written(), 56, "write accounting is cumulative");
    }

    #[test]
    fn attach_blob_adds_partner_copy() {
        let store = CheckpointStore::shared();
        store.put(1, set(1, 0, 8));
        store.attach_blob(
            1,
            BlobKind::PartnerCopy,
            StoredBlob {
                owner_rank: 1,
                placement: Placement::Node(5),
                data: vec![9; 8].into(),
            },
        );
        let got = store.get(1).unwrap();
        assert!(got.blobs.contains_key(&BlobKind::PartnerCopy));
        // Attaching to a rank without a checkpoint is a no-op.
        store.attach_blob(
            7,
            BlobKind::PartnerCopy,
            StoredBlob {
                owner_rank: 7,
                placement: Placement::Node(5),
                data: vec![].into(),
            },
        );
        assert!(!store.has_checkpoint(7));
    }

    #[test]
    fn erase_node_destroys_local_blobs_only() {
        let store = CheckpointStore::shared();
        store.put(0, set(0, 0, 8));
        store.attach_blob(
            0,
            BlobKind::PartnerCopy,
            StoredBlob {
                owner_rank: 0,
                placement: Placement::Node(1),
                data: vec![2; 8].into(),
            },
        );
        store.attach_blob(
            0,
            BlobKind::DiffBase,
            StoredBlob {
                owner_rank: 0,
                placement: Placement::ParallelFs,
                data: vec![3; 8].into(),
            },
        );
        let has_primary = || store.get(0).unwrap().blobs.contains_key(&BlobKind::Primary);
        assert!(has_primary());
        store.erase_node(0);
        assert!(!has_primary());
        let got = store.get(0).unwrap();
        assert!(got.blobs.contains_key(&BlobKind::PartnerCopy));
        assert!(got.blobs.contains_key(&BlobKind::DiffBase));
    }

    #[test]
    fn erase_node_destroys_group_shards_on_that_node() {
        let store = CheckpointStore::shared();
        store.put(0, set(0, 0, 8));
        for (i, node) in [(0usize, 1usize), (1, 2)] {
            store.attach_blob(
                0,
                BlobKind::RsShard(i),
                StoredBlob {
                    owner_rank: 0,
                    placement: Placement::GroupShard {
                        node,
                        rack: node / 2,
                        group: 0,
                    },
                    data: vec![4; 8].into(),
                },
            );
        }
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
        let got = store.get(0).unwrap();
        assert!(got.blobs.contains_key(&BlobKind::RsShard(0)));
        assert!(
            !got.blobs.contains_key(&BlobKind::RsShard(1)),
            "the shard on the crashed node must be gone"
        );
    }

    #[test]
    fn clear_empties_store() {
        let store = CheckpointStore::shared();
        store.put(0, set(0, 0, 8));
        store.clear();
        assert!(!store.has_checkpoint(0));
        assert_eq!(store.bytes_written(), 0);
    }
}
