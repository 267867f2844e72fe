//! Level-specific checkpoint write and read paths.
//!
//! Each of the four FTI levels stores the same logical payload (the concatenation of
//! the protected objects) but with different redundancy and on different media:
//!
//! | Level | Primary copy | Redundancy | Survives |
//! |-------|--------------|------------|----------|
//! | L1    | node RAM disk | none | process failure |
//! | L2    | node RAM disk | copy on partner node | one node failure |
//! | L3    | node RAM disk | Reed–Solomon shards across the group | loss of up to `m` group nodes |
//! | L4    | parallel FS   | (differential) full copy on the PFS | anything the PFS survives |
//!
//! Writes charge the virtual clock of the calling rank through the machine model; the
//! metadata agreement that FTI performs at every checkpoint is modelled as a small
//! all-reduce on the FTI communicator, which is what makes checkpoint time grow
//! modestly with the number of processes in Fig. 5 of the paper.

use std::collections::HashMap;

use mpisim::machine::StorageTier;
use mpisim::{Comm, MpiError, Payload, RankCtx, Topology};

use crate::config::{CheckpointLevel, FtiConfig};
use crate::meta::CheckpointMeta;
use crate::rs_code;
use crate::store::{BlobKind, CheckpointSet, CheckpointStore, Placement, StoredBlob};

/// Outcome of a checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Payload bytes (sum of the protected objects).
    pub payload_bytes: usize,
    /// Bytes physically written, including replication/encoding overheads and
    /// differential savings.
    pub stored_bytes: usize,
}

/// Which redundancy mechanism actually served a checkpoint read.
///
/// Together with [`ReadOutcome::level`] this names the recovery path an attempt took
/// (the coverage signal the fault-space explorer steers by): an L2 restore served by
/// `Partner` is a different path from an L2 restore whose primary copy survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RestoreSource {
    /// The primary (node-local) copy was intact.
    Primary,
    /// The primary was lost; the partner node's copy served the read (L2).
    Partner,
    /// The primary was lost; the payload was Reed–Solomon decoded from the group's
    /// surviving shards (L3). `shards` is how many shards survived the erasures.
    Decode {
        /// Surviving shard count at decode time (`>= k` by construction).
        shards: usize,
    },
    /// Everything node-local was lost; the parallel-file-system base copy served the
    /// read (L4).
    Pfs,
}

/// Outcome of a checkpoint read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// The recovered per-object payloads, in checkpoint order: views of the blob the
    /// read was served from (or of the decoded buffer), not copies.
    pub objects: Vec<Payload>,
    /// The iteration the checkpoint was taken at.
    pub iteration: u64,
    /// Bytes read from storage.
    pub read_bytes: usize,
    /// Whether the primary copy was lost and recovery had to fall back to partner
    /// copies, erasure decoding or the parallel file system.
    pub degraded: bool,
    /// The level of the checkpoint set the data was recovered from (with hierarchical
    /// fallback this may be an older, more resilient set than the configured level).
    pub level: CheckpointLevel,
    /// The redundancy mechanism that served the read.
    pub source: RestoreSource,
}

/// Writes one checkpoint at the configured level.
///
/// `objects` are the serialized protected objects in registration order; `meta` must
/// list matching `object_ids`/`object_lens`.
///
/// # Errors
///
/// Propagates communication errors from the metadata agreement (e.g. a process failure
/// detected during the checkpoint) and reports [`MpiError::InvalidArgument`] for
/// mismatched metadata.
pub fn write_checkpoint(
    ctx: &mut RankCtx,
    comm: &Comm,
    cfg: &FtiConfig,
    store: &CheckpointStore,
    meta: CheckpointMeta,
    objects: &[Vec<u8>],
) -> Result<WriteOutcome, MpiError> {
    if meta.object_lens.len() != objects.len() {
        return Err(MpiError::InvalidArgument(format!(
            "checkpoint metadata lists {} objects but {} were provided",
            meta.object_lens.len(),
            objects.len()
        )));
    }
    write_checkpoint_payload(ctx, comm, cfg, store, meta, Payload::concat(objects))
        .map(|(outcome, _)| outcome)
}

/// Writes one checkpoint whose flat payload has already been assembled into a shared
/// buffer. This is the zero-copy core of [`write_checkpoint`]: every blob derived from
/// the payload (primary copy, partner copy, differential base) is a reference-counted
/// view of `payload`, never an owned copy.
///
/// Also hands back the payload buffer of the set this write superseded (the previous
/// set of the same level) when its primary copy was the only view left of that buffer,
/// so the caller can serialise its next checkpoint into it instead of allocating. A
/// buffer that any live view — a read's objects, a clone of the set — still aliases is
/// never handed back.
///
/// # Errors
///
/// Same error conditions as [`write_checkpoint`].
pub fn write_checkpoint_payload(
    ctx: &mut RankCtx,
    comm: &Comm,
    cfg: &FtiConfig,
    store: &CheckpointStore,
    meta: CheckpointMeta,
    payload: Payload,
) -> Result<(WriteOutcome, Option<Vec<u8>>), MpiError> {
    let payload_bytes = payload.len();
    let rank = ctx.rank();
    let node = ctx.topology().node_of(rank);

    // FTI metadata agreement: every member confirms it reached this checkpoint id.
    let _ = ctx.allreduce_sum_u64(comm, meta.ckpt_id)?;

    let mut blobs: HashMap<BlobKind, StoredBlob> = HashMap::new();
    let mut stored_bytes = 0usize;

    // The level comes from the metadata, not the configuration: the multi-level
    // schedule promotes individual checkpoints to higher levels.
    match meta.level {
        CheckpointLevel::L1 => {
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            // The primary blob used to be an owned `payload.clone()` — a full copy
            // whose source was dropped right after (the payload has no further use at
            // L1). It is now a view of the shared buffer; see the
            // `l1_l2_blobs_share_the_payload_buffer` test.
            blobs.insert(
                BlobKind::Primary,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::Node(node),
                    data: payload,
                },
            );
            stored_bytes += payload_bytes;
        }
        CheckpointLevel::L2 => {
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            // Partner selection is communicator-aware: on the full world it is the
            // historical topology mapping (bit-identical placement); on a shrunk
            // survivor communicator the partner is picked among the survivors.
            let partner = crate::placement::partner_rank_in(ctx.topology(), comm, rank);
            let partner_node = ctx.topology().node_of(partner);
            // The partner copy is charged by the failure domain it actually crosses:
            // the rack-local fabric, or the rack uplinks when the partner mapping
            // leaves the rack. On a degenerate 1-node topology the "partner" IS this
            // node (see `Topology::partner_rank`): the copy never leaves the RAM
            // disk, and — loudly documented — a node crash erases both copies, so L2
            // does NOT survive node loss there.
            let partner_tier =
                storage_tier_for(ctx.topology(), node, Placement::Node(partner_node));
            ctx.charge_storage_write(partner_tier, payload_bytes);
            blobs.insert(
                BlobKind::Primary,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::Node(node),
                    data: payload.clone(),
                },
            );
            blobs.insert(
                BlobKind::PartnerCopy,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::Node(partner_node),
                    data: payload,
                },
            );
            stored_bytes += 2 * payload_bytes;
        }
        CheckpointLevel::L3 => {
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            // Encode and scatter the shards across the encoding group.
            let k = cfg.rs_data_shards();
            let m = cfg.rs_parity_shards();
            let encoded = rs_code::encode_payload(&payload, k, m).map_err(|e| {
                MpiError::InvalidArgument(format!("reed-solomon encoding failed: {e}"))
            })?;
            ctx.elapse(
                ctx.machine()
                    .compute_cost(rs_code::encode_work(payload_bytes, k, m)),
            );
            // Group-aware placement: the encoding group is a disjoint block of
            // `group_size` nodes (see `crate::placement`), and the k+m shards are
            // scattered round-robin over the block — one shard per node when the
            // block is full-width, so the group survives the loss of any `m` nodes.
            let group = crate::placement::l3_group_in(ctx.topology(), comm, rank, cfg.group_size);
            blobs.insert(
                BlobKind::Primary,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::Node(node),
                    data: payload,
                },
            );
            stored_bytes += payload_bytes;
            for (i, shard) in encoded.shards.iter().enumerate() {
                let holder_node = group.shard_node(i);
                let holder_rack = ctx.topology().rack_of_node(holder_node);
                // Shards are charged by the domain they cross: node-local RAM disk,
                // the rack-local fabric, or the rack uplinks.
                let tier = storage_tier_for(ctx.topology(), node, Placement::Node(holder_node));
                ctx.charge_storage_write(tier, shard.len());
                blobs.insert(
                    BlobKind::RsShard(i),
                    StoredBlob {
                        owner_rank: rank,
                        placement: Placement::GroupShard {
                            node: holder_node,
                            rack: holder_rack,
                            group: group.group,
                        },
                        data: shard.clone(),
                    },
                );
                stored_bytes += shard.len();
            }
        }
        CheckpointLevel::L4 => {
            let written = if cfg.differential {
                // Diff against the newest set's parallel-file-system base (none when
                // the newest set is of another level: everything is written).
                let base = store
                    .get(rank)
                    .and_then(|s| s.blobs.get(&BlobKind::DiffBase).map(|b| b.data.clone()))
                    .unwrap_or_default();
                crate::diff::compute_delta(&base, &payload, cfg.diff_block_size).bytes_to_write()
            } else {
                payload_bytes
            };
            ctx.charge_storage_write(StorageTier::ParallelFs, written);
            blobs.insert(
                BlobKind::Primary,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::Node(node),
                    data: payload.clone(),
                },
            );
            blobs.insert(
                BlobKind::DiffBase,
                StoredBlob {
                    owner_rank: rank,
                    placement: Placement::ParallelFs,
                    data: payload,
                },
            );
            // L4 also keeps the fast node-local copy for cheap restarts.
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            stored_bytes += payload_bytes + written;
        }
    }

    // The superseded set is dropped here, outside the store lock; its primary buffer
    // comes back only if dropping the set's other blobs left it unshared.
    let reclaimed = store
        .put(rank, CheckpointSet { meta, blobs })
        .and_then(|mut old| {
            let primary = old.blobs.remove(&BlobKind::Primary)?;
            drop(old);
            primary.data.try_into_vec().ok()
        });
    let outcome = WriteOutcome {
        payload_bytes,
        stored_bytes,
    };
    Ok((outcome, reclaimed))
}

/// Reads the latest checkpoint of the calling rank back from the store, reconstructing
/// it from redundancy if the primary (node-local) copy has been lost.
///
/// Returns `Ok(None)` if the rank has no stored checkpoint — or, with
/// [`FtiConfig::level_fallback`] enabled, when no retained set can be reconstructed
/// anymore (the rank then restarts from scratch instead of failing the run).
///
/// # Errors
///
/// With `level_fallback` disabled, returns [`MpiError::InvalidArgument`] if the newest
/// checkpoint exists but cannot be reconstructed from the surviving blobs (e.g. an L1
/// checkpoint after its node was erased, or an L3 checkpoint that lost more shards
/// than the code can tolerate).
pub fn read_checkpoint(
    ctx: &mut RankCtx,
    cfg: &FtiConfig,
    store: &CheckpointStore,
) -> Result<Option<ReadOutcome>, MpiError> {
    read_checkpoint_at(ctx, cfg, store, None)
}

/// Like [`read_checkpoint`], but restricted to the set taken at `iteration` when one
/// is given (used after the cluster-wide restart agreement, so every rank resumes
/// from the same consistent iteration).
///
/// # Errors
///
/// Same error conditions as [`read_checkpoint`].
pub fn read_checkpoint_at(
    ctx: &mut RankCtx,
    cfg: &FtiConfig,
    store: &CheckpointStore,
    iteration: Option<u64>,
) -> Result<Option<ReadOutcome>, MpiError> {
    let rank = ctx.rank();
    read_checkpoint_of(ctx, cfg, store, rank, iteration)
}

/// Like [`read_checkpoint_at`], but reads the checkpoint set of an arbitrary
/// `owner` rank instead of the caller's own. Used by shrinking recovery, where a
/// survivor adopts the checkpoint of a retired rank and re-partitions its data: the
/// read charges the caller's clock by the failure domain each blob actually crosses
/// (a dead rank's surviving blobs live on *other* nodes, so adoption reads are
/// remote by construction).
///
/// # Errors
///
/// Same error conditions as [`read_checkpoint`].
pub fn read_checkpoint_of(
    ctx: &mut RankCtx,
    cfg: &FtiConfig,
    store: &CheckpointStore,
    owner: usize,
    iteration: Option<u64>,
) -> Result<Option<ReadOutcome>, MpiError> {
    let sets = match iteration {
        Some(it) => store.set_at(owner, it).into_iter().collect::<Vec<_>>(),
        None => store.sets_newest_first(owner),
    };
    if sets.is_empty() {
        return Ok(None);
    }
    // Fall back down the retained hierarchy (newest set first): the newest set is
    // usually the cheap L1 one; when accumulated erasures have destroyed it, an older
    // L2/L4 set — more redundancy, more lost work — takes over.
    for set in &sets {
        if let Some(outcome) = try_reconstruct(ctx, cfg, set) {
            return Ok(Some(outcome));
        }
        if !cfg.level_fallback {
            return Err(unrecoverable_error(set.meta.level));
        }
    }
    if cfg.level_fallback {
        Ok(None)
    } else {
        Err(unrecoverable_error(sets[0].meta.level))
    }
}

fn unrecoverable_error(level: CheckpointLevel) -> MpiError {
    MpiError::InvalidArgument(
        match level {
            CheckpointLevel::L1 => "L1 checkpoint lost with its node and cannot be reconstructed",
            CheckpointLevel::L2 => "L2 checkpoint lost both its copies",
            CheckpointLevel::L3 => "L3 checkpoint lost more shards than the code tolerates",
            CheckpointLevel::L4 => "L4 checkpoint missing from the parallel file system",
        }
        .into(),
    )
}

/// The storage tier a transfer between a rank on `local_node` and a blob placed at
/// `placement` goes through — node-local RAM disk, the rack-local fabric, the rack
/// uplinks, or the parallel file system. The single tier-selection rule for both
/// writes (partner copies, shard scatters) and reconstruct reads, so the two sides
/// of the cost accounting can never drift apart.
fn storage_tier_for(topology: &Topology, local_node: usize, placement: Placement) -> StorageTier {
    match placement.node() {
        Some(n) if n == local_node => StorageTier::RamDisk,
        Some(n) if topology.nodes_share_rack(local_node, n) => StorageTier::PartnerNode,
        Some(_) => StorageTier::RemoteRack,
        None => StorageTier::ParallelFs,
    }
}

/// Attempts to reconstruct one checkpoint set from its surviving blobs, charging the
/// read costs of the path that succeeds — by the failure domain each blob is actually
/// fetched across: primary copy, partner copy, Reed–Solomon decode of the group's
/// surviving shards, then the parallel-file-system base. Returns `None` when the set
/// has lost too much (for L3: fewer than `k` of the group's shards survive).
fn try_reconstruct(ctx: &mut RankCtx, cfg: &FtiConfig, set: &CheckpointSet) -> Option<ReadOutcome> {
    let meta = &set.meta;
    let reader_node = ctx.topology().node_of(ctx.rank());

    // Fast path: the primary copy is still there. For the owner's own reads the
    // primary is node-local (RAM disk, as always); an adoption read of a dead rank's
    // set fetches the primary across the domain separating the reader from it.
    if let Some(primary) = set.blobs.get(&BlobKind::Primary) {
        let tier = storage_tier_for(ctx.topology(), reader_node, primary.placement);
        ctx.charge_storage_read(tier, primary.data.len());
        return Some(ReadOutcome {
            objects: meta.split_payload(&primary.data),
            iteration: meta.iteration,
            read_bytes: primary.data.len(),
            degraded: false,
            level: meta.level,
            source: RestoreSource::Primary,
        });
    }
    // Partner copy (L2) — on a rack-local or off-rack node depending on the mapping.
    if let Some(partner) = set.blobs.get(&BlobKind::PartnerCopy) {
        let tier = storage_tier_for(ctx.topology(), reader_node, partner.placement);
        ctx.charge_storage_read(tier, partner.data.len());
        return Some(ReadOutcome {
            objects: meta.split_payload(&partner.data),
            iteration: meta.iteration,
            read_bytes: partner.data.len(),
            degraded: true,
            level: meta.level,
            source: RestoreSource::Partner,
        });
    }
    // Reed–Solomon decode (L3): count the group's *surviving* shards after storage
    // erasure; decode when at least `k` remain, otherwise fall through to L4.
    let k = cfg.rs_data_shards();
    let m = cfg.rs_parity_shards();
    let mut shards: Vec<Option<Payload>> = vec![None; k + m];
    let mut shard_bytes = 0usize;
    let mut available = 0usize;
    let mut shard_reads: Vec<(usize, StorageTier, usize)> = Vec::new();
    for (kind, blob) in &set.blobs {
        if let BlobKind::RsShard(i) = kind {
            if *i < shards.len() {
                shards[*i] = Some(blob.data.clone());
                shard_bytes += blob.data.len();
                available += 1;
                shard_reads.push((
                    *i,
                    storage_tier_for(ctx.topology(), reader_node, blob.placement),
                    blob.data.len(),
                ));
            }
        }
    }
    if available >= k {
        if let Ok(payload) = rs_code::decode(&shards, k, m, meta.bytes) {
            // Charge in shard order: `set.blobs` is a HashMap whose iteration order
            // is not stable, and virtual-time charges must accumulate in a fixed
            // order to stay bit-deterministic.
            shard_reads.sort_unstable_by_key(|&(i, _, _)| i);
            for (_, tier, bytes) in shard_reads {
                ctx.charge_storage_read(tier, bytes);
            }
            ctx.elapse(
                ctx.machine()
                    .compute_cost(rs_code::encode_work(meta.bytes, k, m)),
            );
            return Some(ReadOutcome {
                objects: meta.split_payload(&Payload::from(payload)),
                iteration: meta.iteration,
                read_bytes: shard_bytes,
                degraded: true,
                level: meta.level,
                source: RestoreSource::Decode { shards: available },
            });
        }
    }
    // The parallel-file-system base copy (L4).
    if let Some(base) = set.blobs.get(&BlobKind::DiffBase) {
        ctx.charge_storage_read(StorageTier::ParallelFs, base.data.len());
        return Some(ReadOutcome {
            objects: meta.split_payload(&base.data),
            iteration: meta.iteration,
            read_bytes: base.data.len(),
            degraded: true,
            level: meta.level,
            source: RestoreSource::Pfs,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Cluster, ClusterConfig};
    use std::sync::Arc;

    fn meta_for(objects: &[Vec<u8>], level: CheckpointLevel, iteration: u64) -> CheckpointMeta {
        CheckpointMeta {
            ckpt_id: 1,
            iteration,
            level,
            bytes: objects.iter().map(Vec::len).sum(),
            object_ids: (0..objects.len() as u32).collect(),
            object_lens: objects.iter().map(Vec::len).collect(),
            object_layouts: vec![crate::protect::ObjectLayout::Replicated; objects.len()],
        }
    }

    fn run_level(
        level: CheckpointLevel,
        erase_home_node: bool,
        fallback: bool,
    ) -> Vec<Result<Option<Vec<Payload>>, MpiError>> {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(level).fallback(fallback);
        let cluster = Cluster::new(ClusterConfig::with_ranks(8).nodes(4));
        let store2 = Arc::clone(&store);
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![
                vec![ctx.rank() as u8; 100],
                (0..50u8)
                    .map(|i| i.wrapping_mul(ctx.rank() as u8 + 1))
                    .collect::<Vec<u8>>(),
            ];
            let meta = meta_for(&objects, level, 10);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if erase_home_node && ctx.rank() == 0 {
                // Destroy node 0 (ranks 0 and 1) after everyone has written.
                store2.erase_node(0);
            }
            ctx.barrier(&world)?;
            match read_checkpoint(ctx, &cfg, &store2)? {
                Some(read) => {
                    assert_eq!(read.iteration, 10);
                    Ok(Some(read.objects))
                }
                None => Ok(None),
            }
        });
        outcome.ranks().iter().map(|r| r.result.clone()).collect()
    }

    #[test]
    fn every_level_round_trips_without_failures() {
        for level in CheckpointLevel::ALL {
            let results = run_level(level, false, true);
            for (rank, res) in results.iter().enumerate() {
                let objects = res
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{level}: rank {rank}: {e}"))
                    .as_ref()
                    .unwrap_or_else(|| panic!("{level}: rank {rank}: no checkpoint"));
                assert_eq!(
                    objects[0],
                    vec![rank as u8; 100],
                    "{level} payload mismatch"
                );
                assert_eq!(objects[1].len(), 50);
            }
        }
    }

    #[test]
    fn l1_does_not_survive_node_loss_but_l2_l3_l4_do() {
        // Ranks 0 and 1 live on node 0, which is erased. With fallback enabled their
        // L1 data is simply gone (a fresh start, not a failed run); with the strict
        // semantics the loss is a hard error. Higher levels reconstruct.
        let l1 = run_level(CheckpointLevel::L1, true, true);
        assert_eq!(l1[0], Ok(None), "L1 must not survive node loss");
        assert_eq!(l1[1], Ok(None));
        assert!(
            l1[2].as_ref().unwrap().is_some(),
            "ranks on surviving nodes are unaffected"
        );
        let strict = run_level(CheckpointLevel::L1, true, false);
        assert!(
            strict[0].is_err() && strict[1].is_err(),
            "strict mode reports unreconstructible checkpoints loudly"
        );

        for level in [
            CheckpointLevel::L2,
            CheckpointLevel::L3,
            CheckpointLevel::L4,
        ] {
            let results = run_level(level, true, true);
            for (rank, res) in results.iter().enumerate() {
                let objects = res
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{level}: rank {rank}: {e}"))
                    .as_ref()
                    .unwrap_or_else(|| panic!("{level}: rank {rank}: lost"));
                assert_eq!(
                    objects[0],
                    vec![rank as u8; 100],
                    "{level} degraded recovery"
                );
            }
        }
    }

    #[test]
    fn multilevel_retention_falls_back_to_an_older_stronger_set() {
        // An L4 checkpoint at iteration 10, then a newer L1 checkpoint at iteration
        // 20. Erasing the node destroys the L1 set (and the L4 set's local copies),
        // but the parallel file system still holds iteration 10: the read falls back
        // down the hierarchy to it instead of failing.
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L1);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let old = vec![vec![7u8; 64]];
            let mut meta = meta_for(&old, CheckpointLevel::L4, 10);
            meta.ckpt_id = 1;
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &old)?;
            let new = vec![vec![9u8; 64]];
            let mut meta = meta_for(&new, CheckpointLevel::L1, 20);
            meta.ckpt_id = 2;
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &new)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                store2.erase_node(0);
                store2.erase_node(1);
            }
            ctx.barrier(&world)?;
            let read = read_checkpoint(ctx, &cfg, &store2)?.expect("L4 set must survive");
            assert_eq!(read.iteration, 10, "fallback resumes from the older set");
            assert_eq!(read.level, CheckpointLevel::L4);
            assert!(read.degraded);
            assert_eq!(read.objects[0], vec![7u8; 64]);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn read_objects_are_views_of_the_blob_that_served_the_read() {
        // Restoring must not copy the payload twice: the per-object payloads of a read
        // alias the stored blob — the primary, and once its node is gone the partner
        // copy — and an object restored from them is unchanged.
        use crate::protect::Protectable;
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let field: Vec<f64> = (0..40).map(|i| (i * (ctx.rank() + 1)) as f64).collect();
            let step = 7u64;
            let objects = vec![field.to_bytes(), step.to_bytes()];
            let meta = meta_for(&objects, CheckpointLevel::L2, 6);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            for crashed in [false, true] {
                if crashed {
                    // Node 0 holds rank 0's primary: its next read is served by the
                    // partner copy on another node.
                    ctx.barrier(&world)?;
                    if ctx.rank() == 0 {
                        store2.erase_node(0);
                    }
                    ctx.barrier(&world)?;
                }
                let read = read_checkpoint(ctx, &cfg, &store2)?.expect("L2 set must survive");
                let served_by = if crashed && ctx.rank() == 0 {
                    assert_eq!(read.source, RestoreSource::Partner);
                    BlobKind::PartnerCopy
                } else {
                    assert_eq!(read.source, RestoreSource::Primary);
                    BlobKind::Primary
                };
                let blob = store2.get(ctx.rank()).unwrap().blobs[&served_by]
                    .data
                    .clone();
                assert_eq!(read.objects.len(), 2);
                for object in &read.objects {
                    assert!(object.same_buffer(&blob), "{served_by:?}: copied");
                }
                let (mut restored_field, mut restored_step) = (vec![0.0f64; 1], 0u64);
                restored_field.restore_from(&read.objects[0]);
                restored_step.restore_from(&read.objects[1]);
                assert_eq!((restored_field, restored_step), (field.clone(), step));
            }
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn l2_on_a_single_node_topology_does_not_survive_a_node_crash() {
        // Satellite bugfix: on a 1-node topology `partner_rank` returns the rank
        // itself, so the L2 "partner" copy shares the primary's node. The degrade is
        // documented and deliberate — and a node crash must erase BOTH copies, so L2
        // must NOT claim node-failure survival here.
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(2).nodes(1));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![vec![3u8; 64]];
            let meta = meta_for(&objects, CheckpointLevel::L2, 4);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                // Both blobs sit on node 0: the partner placement never left it.
                let set = store2.get(0).unwrap();
                assert_eq!(set.blobs[&BlobKind::Primary].placement, Placement::Node(0));
                assert_eq!(
                    set.blobs[&BlobKind::PartnerCopy].placement,
                    Placement::Node(0),
                    "1-node L2 degrades to a same-node partner copy"
                );
                store2.erase_node(0);
            }
            ctx.barrier(&world)?;
            Ok(read_checkpoint(ctx, &cfg, &store2)?.is_none())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..2 {
            assert!(
                *outcome.value_of(rank),
                "rank {rank}: L2 must NOT survive a node crash on a 1-node topology"
            );
        }
    }

    #[test]
    fn l2_partner_copy_leaves_the_rack_when_racks_exist() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4).racks(2));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![vec![ctx.rank() as u8; 32]];
            let meta = meta_for(&objects, CheckpointLevel::L2, 4);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..4 {
            let set = store.get(rank).unwrap();
            let Placement::Node(partner_node) = set.blobs[&BlobKind::PartnerCopy].placement else {
                panic!("partner copy must live on a node");
            };
            // Racks of two nodes: the partner sits in the *other* rack.
            assert_ne!(
                partner_node / 2,
                rank / 2,
                "rank {rank}: partner shares the rack"
            );
        }
    }

    #[test]
    fn l3_groups_survive_m_node_losses_then_cascade() {
        // 4 ranks on 4 nodes in 2 racks, group (4, 2): each rank's four shards land
        // on four distinct nodes. Losing one whole rack (= 2 nodes = m shards) still
        // RS-decodes; losing a third node leaves 1 < k shards and the set is dead.
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L3)
            .group_size(4)
            .parity_shards(2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4).racks(2));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![(0..200u8)
                .map(|i| i ^ ctx.rank() as u8)
                .collect::<Vec<u8>>()];
            let meta = meta_for(&objects, CheckpointLevel::L3, 8);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                // Every shard carries its group/rack coordinates.
                let set = store2.get(2).unwrap();
                for i in 0..4 {
                    let Placement::GroupShard { node, rack, .. } =
                        set.blobs[&BlobKind::RsShard(i)].placement
                    else {
                        panic!("shard {i} must be group-placed");
                    };
                    assert_eq!(rack, node / 2);
                }
                // Rack 1 (nodes 2 and 3) dies: exactly m = 2 shards per group gone.
                store2.erase_node(2);
                store2.erase_node(3);
            }
            ctx.barrier(&world)?;
            let first = read_checkpoint(ctx, &cfg, &store2)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                store2.erase_node(1); // third node: > m erasures for ranks 2 and 3
            }
            ctx.barrier(&world)?;
            let second = read_checkpoint(ctx, &cfg, &store2)?;
            Ok((
                first.map(|r| (r.objects, r.degraded)),
                second.map(|r| r.degraded),
            ))
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..4 {
            let (first, second) = outcome.value_of(rank);
            let (objects, degraded) = first.as_ref().expect("m erasures must RS-decode");
            let expected: Vec<u8> = (0..200u8).map(|i| i ^ rank as u8).collect();
            assert_eq!(objects[0], expected, "rank {rank} decode mismatch");
            // Ranks on the dead rack lost their primary and had to decode.
            assert_eq!(*degraded, rank >= 2, "rank {rank} degraded flag");
            if rank >= 2 {
                assert_eq!(
                    *second, None,
                    "rank {rank}: > m erasures must cascade past L3"
                );
            }
        }
    }

    #[test]
    fn higher_levels_cost_more_to_write() {
        let times: Vec<f64> = CheckpointLevel::ALL
            .iter()
            .map(|&level| {
                let store = CheckpointStore::shared();
                let cfg = FtiConfig::level(level);
                let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(2));
                let outcome = cluster.run(move |ctx| {
                    let world = ctx.world();
                    ctx.set_category(mpisim::TimeCategory::CheckpointWrite);
                    let objects = vec![vec![7u8; 1 << 20]];
                    let meta = meta_for(&objects, level, 1);
                    write_checkpoint(ctx, &world, &cfg, &store, meta, &objects)?;
                    Ok(ctx.breakdown().checkpoint_write.as_secs())
                });
                outcome.ranks()[0].result.clone().unwrap()
            })
            .collect();
        // L1 is the cheapest; L4 (parallel file system) is the most expensive; L2 and
        // L3 sit in between.
        assert!(times[0] < times[1], "L1 {} !< L2 {}", times[0], times[1]);
        assert!(times[0] < times[2], "L1 {} !< L3 {}", times[0], times[2]);
        assert!(times[1] < times[3], "L2 {} !< L4 {}", times[1], times[3]);
    }

    #[test]
    fn differential_l4_writes_less_on_small_changes() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L4);
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let mut data = vec![0u8; 1 << 20];
            let meta = meta_for(&[data.clone()], CheckpointLevel::L4, 1);
            let first = write_checkpoint(ctx, &world, &cfg, &store, meta, &[data.clone()])?;
            // Change one byte and checkpoint again: the delta write must be far smaller.
            data[123] = 1;
            let mut meta2 = meta_for(&[data.clone()], CheckpointLevel::L4, 2);
            meta2.ckpt_id = 2;
            let second = write_checkpoint(ctx, &world, &cfg, &store, meta2, &[data.clone()])?;
            Ok((first.stored_bytes, second.stored_bytes))
        });
        let (first, second) = outcome.ranks()[0].result.clone().unwrap();
        // The first checkpoint stores the local copy plus the full PFS payload; the
        // second stores the local copy plus a single changed block, so it must be close
        // to half of the first (payload-only) rather than equal to it.
        assert!(
            second < (first as f64 * 0.6) as usize,
            "differential write {second} should be much smaller than {first}"
        );
    }

    #[test]
    fn l1_l2_blobs_share_the_payload_buffer() {
        // The primary (and partner) blobs must be views of one shared payload buffer,
        // not owned copies — this is the explicit fix for the old `payload.clone()`
        // into `BlobKind::Primary`.
        for level in [
            CheckpointLevel::L1,
            CheckpointLevel::L2,
            CheckpointLevel::L4,
        ] {
            let store = CheckpointStore::shared();
            let cfg = FtiConfig::level(level);
            let store2 = Arc::clone(&store);
            let cluster = Cluster::new(ClusterConfig::with_ranks(2));
            let outcome = cluster.run(move |ctx| {
                let world = ctx.world();
                let objects = vec![vec![5u8; 1000]];
                let meta = meta_for(&objects, level, 1);
                write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
                Ok(())
            });
            assert!(outcome.all_ok());
            let set = store.get(0).unwrap();
            let primary = &set.blobs[&BlobKind::Primary];
            let partner_kind = match level {
                CheckpointLevel::L2 => Some(BlobKind::PartnerCopy),
                CheckpointLevel::L4 => Some(BlobKind::DiffBase),
                _ => None,
            };
            if let Some(kind) = partner_kind {
                let other = &set.blobs[&kind];
                assert!(
                    primary.data.same_buffer(&other.data),
                    "{level}: redundant blob must alias the primary payload buffer"
                );
            }
            assert_eq!(primary.data, vec![5u8; 1000]);
        }
    }

    #[test]
    fn mutating_source_objects_does_not_corrupt_the_stored_checkpoint() {
        // Payload conversion snapshots the bytes: once a checkpoint is written, the
        // application may reuse (and overwrite) its buffers freely.
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let mut objects = vec![vec![1u8; 500]];
            let meta = meta_for(&objects, CheckpointLevel::L2, 1);
            write_checkpoint(ctx, &world, &cfg, &store2, meta, &objects)?;
            // Clobber the application buffer after the write.
            objects[0].iter_mut().for_each(|b| *b = 0xFF);
            ctx.barrier(&world)?;
            let read = read_checkpoint(ctx, &cfg, &store2)?.expect("checkpoint exists");
            assert_eq!(read.objects[0], vec![1u8; 500]);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn differential_l4_writes_the_local_copy_plus_the_changed_blocks() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L4);
        let block = cfg.diff_block_size;
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let mut data = vec![0u8; 1 << 18];
            let mut stored = Vec::new();
            for (ckpt_id, flip) in [(1, None), (2, Some(777)), (3, Some((1 << 18) - 1))] {
                if let Some(at) = flip {
                    data[at] ^= 9;
                }
                let mut meta = meta_for(&[data.clone()], CheckpointLevel::L4, ckpt_id);
                meta.ckpt_id = ckpt_id;
                let out = write_checkpoint(ctx, &world, &cfg, &store, meta, &[data.clone()])?;
                stored.push(out.stored_bytes);
            }
            Ok(stored)
        });
        let len = 1usize << 18;
        // The first write has no base: the local copy plus the whole payload. Each
        // later one changed a single byte: the local copy plus exactly that block.
        assert_eq!(
            outcome.value_of(0),
            &vec![2 * len, len + block.min(len), len + block.min(len)]
        );
    }

    #[test]
    fn mismatched_metadata_is_rejected() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::default();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![vec![1u8; 10]];
            let mut meta = meta_for(&objects, CheckpointLevel::L1, 1);
            meta.object_lens.push(99); // now inconsistent
            match write_checkpoint(ctx, &world, &cfg, &store, meta, &objects) {
                Err(MpiError::InvalidArgument(_)) => Ok(()),
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn read_without_checkpoint_returns_none() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::default();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| Ok(read_checkpoint(ctx, &cfg, &store)?.is_none()));
        assert!(*outcome.value_of(0));
    }
}
