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

use std::sync::Arc;

use mpisim::machine::StorageTier;
use mpisim::{Comm, MpiError, Payload, RankCtx, Topology};

use crate::config::{
    CheckpointLevel, FtiConfig, DIFF_BLOCK_BYTES, L3_DATA_SHARDS, L3_PARITY_SHARDS,
};
use crate::meta::CheckpointMeta;
use crate::rs_code;
use crate::store::{CheckpointSet, CheckpointStore, Placement, StoredBlob};

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
/// Together with the served set's level this names the recovery path an attempt took
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
    /// The metadata of the set the data was recovered from (with hierarchical
    /// fallback this may be an older, more resilient set than the newest one).
    pub meta: CheckpointMeta,
    /// The redundancy mechanism that served the read.
    pub source: RestoreSource,
}

/// Writes one checkpoint, whose flat payload (the concatenated protected objects) has
/// already been assembled into a shared buffer, at the level `meta` names. Every blob
/// derived from the payload (primary copy, partner copy, differential base) is a
/// reference-counted view of `payload`, never an owned copy.
///
/// Also hands back the payload buffer of the set this write superseded (the previous
/// set of the same level) when its primary copy was the only view left of that buffer,
/// so the caller can serialise its next checkpoint into it instead of allocating. A
/// buffer that any live view — a read's objects, a handle on the set — still aliases is
/// never handed back.
///
/// # Errors
///
/// Propagates communication errors from the metadata agreement (e.g. a process failure
/// detected during the checkpoint) and reports [`MpiError::InvalidArgument`] when the
/// object lengths of `meta` do not add up to the payload.
pub fn write_checkpoint(
    ctx: &mut RankCtx,
    comm: &Comm,
    cfg: &FtiConfig,
    store: &CheckpointStore,
    meta: CheckpointMeta,
    payload: Payload,
) -> Result<(WriteOutcome, Option<Vec<u8>>), MpiError> {
    let payload_bytes = payload.len();
    let listed: usize = meta.object_lens.iter().sum();
    if listed != payload_bytes {
        return Err(MpiError::InvalidArgument(format!(
            "checkpoint metadata lists {listed} object bytes but the payload holds {payload_bytes}"
        )));
    }
    let rank = ctx.rank();
    let node = ctx.topology().node_of(rank);

    // FTI metadata agreement: every member confirms it reached this checkpoint id.
    let _ = ctx.allreduce_sum_u64(comm, meta.ckpt_id)?;

    // The level comes from the metadata, not the configuration: the multi-level
    // schedule promotes individual checkpoints to higher levels.
    let level = meta.level;
    let mut set = CheckpointSet {
        meta,
        primary: Some(StoredBlob {
            placement: Placement::Node(node),
            data: payload.clone(),
        }),
        partner: None,
        shards: Vec::new(),
        diff_base: None,
    };
    let mut stored_bytes = payload_bytes;
    match level {
        CheckpointLevel::L1 => {
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
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
            let placement = Placement::Node(partner_node);
            ctx.charge_storage_write(
                storage_tier_for(ctx.topology(), node, placement),
                payload_bytes,
            );
            set.partner = Some(StoredBlob {
                placement,
                data: payload,
            });
            stored_bytes += payload_bytes;
        }
        CheckpointLevel::L3 => {
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            // Encode and scatter the shards across the encoding group.
            let (k, m) = (L3_DATA_SHARDS, L3_PARITY_SHARDS);
            let encoded = rs_code::encode_payload(&payload, k, m).map_err(|e| {
                MpiError::InvalidArgument(format!("reed-solomon encoding failed: {e}"))
            })?;
            ctx.elapse(
                ctx.machine()
                    .compute_cost(rs_code::encode_work(payload_bytes, k, m)),
            );
            // Group-aware placement: the encoding group is a disjoint block of
            // `L3_GROUP_NODES` = k + m nodes (see `crate::placement`), and the k + m
            // shards are scattered round-robin over the block — one shard per node
            // when the block is full-width, so the group survives the loss of any `m`
            // nodes.
            let group = crate::placement::l3_group(ctx.topology(), comm.members(), rank);
            set.shards = encoded
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    let holder_node = group.shard_node(i);
                    // Shards are charged by the domain they cross: node-local RAM
                    // disk, the rack-local fabric, or the rack uplinks.
                    let tier = storage_tier_for(ctx.topology(), node, Placement::Node(holder_node));
                    ctx.charge_storage_write(tier, shard.len());
                    stored_bytes += shard.len();
                    Some(StoredBlob {
                        placement: Placement::GroupShard {
                            node: holder_node,
                            rack: ctx.topology().rack_of_node(holder_node),
                            group: group.group,
                        },
                        data: shard.clone(),
                    })
                })
                .collect();
        }
        CheckpointLevel::L4 => {
            let written = if cfg.differential {
                // Diff against the newest set's parallel-file-system base (none when
                // the newest set is of another level: everything is written).
                let newest = store.sets(rank, None).into_iter().next();
                let base = newest
                    .and_then(|s| s.diff_base.as_ref().map(|b| b.data.clone()))
                    .unwrap_or_default();
                crate::diff::compute_delta(&base, &payload, DIFF_BLOCK_BYTES).bytes_to_write()
            } else {
                payload_bytes
            };
            ctx.charge_storage_write(StorageTier::ParallelFs, written);
            set.diff_base = Some(StoredBlob {
                placement: Placement::ParallelFs,
                data: payload,
            });
            // L4 also keeps the fast node-local copy for cheap restarts.
            ctx.charge_storage_write(StorageTier::RamDisk, payload_bytes);
            stored_bytes += written;
        }
    }

    // The superseded set is dropped here, outside the store lock; its primary buffer
    // comes back only if no reader holds the set and dropping its other blobs left
    // the buffer unshared.
    let reclaimed = store.put(rank, set).and_then(|old| {
        let mut old = Arc::try_unwrap(old).ok()?;
        let primary = old.primary.take()?;
        drop(old);
        primary.data.try_into_vec().ok()
    });
    let outcome = WriteOutcome {
        payload_bytes,
        stored_bytes,
    };
    Ok((outcome, reclaimed))
}

/// Reads `owner`'s checkpoint back from the store, reconstructing it from redundancy
/// when the primary (node-local) copy has been lost. Recovery reads the caller's own
/// checkpoint; a shrinking recovery also reads the checkpoints of the retired ranks a
/// survivor adopts. The read charges the caller's clock by the failure domain each
/// blob actually crosses (a dead rank's surviving blobs live on *other* nodes, so
/// adoption reads are remote by construction).
///
/// With an `iteration`, only the set taken at that iteration is read (after the
/// cluster-wide restart agreement, so every rank resumes from the same consistent
/// iteration). Without one, the retained sets are tried newest first: the newest set
/// is usually the cheap L1 one, and when accumulated erasures have destroyed it an
/// older L2/L3/L4 set — more redundancy, more lost work — takes over.
///
/// Returns `None` when `owner` has no stored checkpoint or none that can still be
/// reconstructed: the rank then restarts from scratch instead of failing the run.
pub fn read_checkpoint(
    ctx: &mut RankCtx,
    store: &CheckpointStore,
    owner: usize,
    iteration: Option<u64>,
) -> Option<ReadOutcome> {
    store
        .sets(owner, iteration)
        .iter()
        .find_map(|set| try_reconstruct(ctx, set))
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
fn try_reconstruct(ctx: &mut RankCtx, set: &CheckpointSet) -> Option<ReadOutcome> {
    // For the owner's own reads the primary is node-local (RAM disk, as always); an
    // adoption read of a dead rank's set fetches it across the domain separating the
    // reader from it.
    let (source, data) = if let Some(primary) = &set.primary {
        (RestoreSource::Primary, read_blob(ctx, primary))
    } else if let Some(partner) = &set.partner {
        (RestoreSource::Partner, read_blob(ctx, partner))
    } else if let Some((shards, data)) = decode_shards(ctx, set) {
        (RestoreSource::Decode { shards }, data)
    } else {
        (RestoreSource::Pfs, read_blob(ctx, set.diff_base.as_ref()?))
    };
    Some(ReadOutcome {
        objects: set.meta.split_payload(&data),
        meta: set.meta.clone(),
        source,
    })
}

/// Fetches one whole copy of the payload, charged by the domain it crosses.
fn read_blob(ctx: &mut RankCtx, blob: &StoredBlob) -> Payload {
    let reader_node = ctx.topology().node_of(ctx.rank());
    let tier = storage_tier_for(ctx.topology(), reader_node, blob.placement);
    ctx.charge_storage_read(tier, blob.data.len());
    blob.data.clone()
}

/// Reed–Solomon decodes the payload from the shards of `set` that survived storage
/// erasure, when at least `k` did; returns the surviving shard count and the payload.
/// Only a successful decode charges: each surviving shard's read, in shard order, then
/// the decode's compute.
fn decode_shards(ctx: &mut RankCtx, set: &CheckpointSet) -> Option<(usize, Payload)> {
    let (k, m) = (L3_DATA_SHARDS, L3_PARITY_SHARDS);
    let mut shards: Vec<Option<&Payload>> = vec![None; k + m];
    for (slot, blob) in shards.iter_mut().zip(&set.shards) {
        *slot = blob.as_ref().map(|b| &b.data);
    }
    let available = shards.iter().flatten().count();
    if available < k {
        return None;
    }
    let payload = rs_code::decode(&shards, k, m, set.meta.bytes).ok()?;
    for blob in set.shards.iter().take(k + m).flatten() {
        read_blob(ctx, blob);
    }
    ctx.elapse(
        ctx.machine()
            .compute_cost(rs_code::encode_work(set.meta.bytes, k, m)),
    );
    Some((available, Payload::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{Cluster, ClusterConfig};

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

    /// Writes `objects` as one checkpoint of the calling rank.
    fn write(
        ctx: &mut RankCtx,
        comm: &Comm,
        cfg: &FtiConfig,
        store: &CheckpointStore,
        meta: CheckpointMeta,
        objects: &[Vec<u8>],
    ) -> Result<WriteOutcome, MpiError> {
        write_checkpoint(ctx, comm, cfg, store, meta, Payload::concat(objects)).map(|(out, _)| out)
    }

    /// Reads the calling rank's newest reconstructible checkpoint.
    fn read(ctx: &mut RankCtx, store: &CheckpointStore) -> Option<ReadOutcome> {
        let rank = ctx.rank();
        read_checkpoint(ctx, store, rank, None)
    }

    fn run_level(level: CheckpointLevel, erase_home_node: bool) -> Vec<Option<Vec<Payload>>> {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(level);
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
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if erase_home_node && ctx.rank() == 0 {
                // Destroy node 0 (ranks 0 and 1) after everyone has written.
                store2.erase_node(0);
            }
            ctx.barrier(&world)?;
            Ok(read(ctx, &store2).map(|read| {
                assert_eq!(read.meta.iteration, 10);
                read.objects
            }))
        });
        assert!(outcome.all_ok(), "{level}: {:?}", outcome.errors());
        (0..8).map(|rank| outcome.value_of(rank).clone()).collect()
    }

    #[test]
    fn every_level_round_trips_without_failures() {
        for level in CheckpointLevel::ALL {
            let results = run_level(level, false);
            for (rank, res) in results.iter().enumerate() {
                let objects = res
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
        // Ranks 0 and 1 live on node 0, which is erased. Their L1 data is simply gone
        // (a fresh start, not a failed run). Higher levels reconstruct.
        let l1 = run_level(CheckpointLevel::L1, true);
        assert_eq!(l1[0], None, "L1 must not survive node loss");
        assert_eq!(l1[1], None);
        assert!(l1[2].is_some(), "ranks on surviving nodes are unaffected");

        for level in [
            CheckpointLevel::L2,
            CheckpointLevel::L3,
            CheckpointLevel::L4,
        ] {
            let results = run_level(level, true);
            for (rank, res) in results.iter().enumerate() {
                let objects = res
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
            write(ctx, &world, &cfg, &store2, meta, &old)?;
            let new = vec![vec![9u8; 64]];
            let mut meta = meta_for(&new, CheckpointLevel::L1, 20);
            meta.ckpt_id = 2;
            write(ctx, &world, &cfg, &store2, meta, &new)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                store2.erase_node(0);
                store2.erase_node(1);
            }
            ctx.barrier(&world)?;
            let read = read(ctx, &store2).expect("L4 set must survive");
            assert_eq!(
                read.meta.iteration, 10,
                "fallback resumes from the older set"
            );
            assert_eq!(read.meta.level, CheckpointLevel::L4);
            assert_eq!(read.source, RestoreSource::Pfs);
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
        use crate::protect::{bytes_of, Protectable};
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L2);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let field: Vec<f64> = (0..40).map(|i| (i * (ctx.rank() + 1)) as f64).collect();
            let step = 7u64;
            let objects = vec![bytes_of(&field), bytes_of(&step)];
            let meta = meta_for(&objects, CheckpointLevel::L2, 6);
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
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
                let read = read(ctx, &store2).expect("L2 set must survive");
                let set = store2.sets(ctx.rank(), None).remove(0);
                let served_by = if crashed && ctx.rank() == 0 {
                    assert_eq!(read.source, RestoreSource::Partner);
                    &set.partner
                } else {
                    assert_eq!(read.source, RestoreSource::Primary);
                    &set.primary
                };
                let blob = &served_by.as_ref().unwrap().data;
                assert_eq!(read.objects.len(), 2);
                for object in &read.objects {
                    assert!(object.same_buffer(blob), "{:?}: copied", read.source);
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
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                // Both blobs sit on node 0: the partner placement never left it.
                let set = store2.sets(0, None).remove(0);
                assert_eq!(set.primary.as_ref().unwrap().placement, Placement::Node(0));
                assert_eq!(
                    set.partner.as_ref().unwrap().placement,
                    Placement::Node(0),
                    "1-node L2 degrades to a same-node partner copy"
                );
                store2.erase_node(0);
            }
            ctx.barrier(&world)?;
            Ok(read(ctx, &store2).is_none())
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
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..4 {
            let set = store.sets(rank, None).remove(0);
            let Placement::Node(partner_node) = set.partner.as_ref().unwrap().placement else {
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
        // 4 ranks on 4 nodes in 2 racks, k = m = 2: each rank's four shards land
        // on four distinct nodes. Losing one whole rack (= 2 nodes = m shards) still
        // RS-decodes; losing a third node leaves 1 < k shards and the set is dead.
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L3);
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4).racks(2));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let objects = vec![(0..200u8)
                .map(|i| i ^ ctx.rank() as u8)
                .collect::<Vec<u8>>()];
            let meta = meta_for(&objects, CheckpointLevel::L3, 8);
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                // Every shard carries its group/rack coordinates.
                let set = store2.sets(2, None).remove(0);
                assert_eq!(set.shards.len(), 4);
                for (i, shard) in set.shards.iter().enumerate() {
                    let Placement::GroupShard { node, rack, .. } =
                        shard.as_ref().unwrap().placement
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
            let first = read(ctx, &store2);
            ctx.barrier(&world)?;
            if ctx.rank() == 0 {
                store2.erase_node(1); // third node: > m erasures for ranks 2 and 3
            }
            ctx.barrier(&world)?;
            let second = read(ctx, &store2);
            let degraded = |r: &ReadOutcome| r.source != RestoreSource::Primary;
            Ok((
                first.map(|r| (degraded(&r), r.objects)),
                second.map(|r| degraded(&r)),
            ))
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..4 {
            let (first, second) = outcome.value_of(rank);
            let (degraded, objects) = first.as_ref().expect("m erasures must RS-decode");
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
    fn l3_decode_over_a_non_prefix_of_shards_charges_them_in_index_order() {
        // k = 2, m = 2 on four nodes in two racks. Rank 0 loses its primary and shards
        // 0 and 2, so the decode reads shards 1 (other rack) and 3 (its own node): a
        // surviving set that is not a prefix, whose two reads cost different amounts.
        let cfg = FtiConfig::level(CheckpointLevel::L3);
        let cluster = || Cluster::new(ClusterConfig::with_ranks(4).nodes(4).racks(2));
        let objects = vec![(0..3000u32).map(|i| (i % 251) as u8).collect::<Vec<u8>>()];
        let store = CheckpointStore::shared();
        let (s, c, o) = (Arc::clone(&store), cfg.clone(), objects.clone());
        let written = cluster().run(move |ctx| {
            let world = ctx.world();
            let meta = meta_for(&o, CheckpointLevel::L3, 5);
            write(ctx, &world, &c, &s, meta, &o).map(|_| ())
        });
        assert!(written.all_ok(), "{:?}", written.errors());
        let mut set = CheckpointSet::clone(&store.sets(0, None)[0]);
        set.primary = None;
        set.shards[0] = None;
        set.shards[2] = None;
        store.put(0, set);
        let run = || {
            let (store, objects) = (Arc::clone(&store), objects.clone());
            let outcome = cluster().run(move |ctx| {
                if ctx.rank() != 0 {
                    return Ok(0);
                }
                // A clock of the reads' magnitude, so the order they are added in shows
                // in the bits of the sum.
                ctx.elapse(mpisim::SimTime::from_secs(2e-6));
                let set = store.sets(0, None).remove(0);
                let reader_node = ctx.topology().node_of(0);
                let reads: Vec<_> = set
                    .shards
                    .iter()
                    .flatten()
                    .map(|shard| {
                        let tier = storage_tier_for(ctx.topology(), reader_node, shard.placement);
                        ctx.machine().storage_read_cost(tier, shard.data.len())
                    })
                    .collect();
                let decode = rs_code::encode_work(set.meta.bytes, 2, 2);
                let decode = ctx.machine().compute_cost(decode);
                let clock_after = |order: [usize; 2]| {
                    (order.iter().fold(ctx.now(), |t, &i| t + reads[i]) + decode)
                        .as_secs()
                        .to_bits()
                };
                let expected = clock_after([0, 1]);
                assert_ne!(expected, clock_after([1, 0]), "the order must show");
                let read = read(ctx, &store).expect("k shards survive");
                assert_eq!(read.source, RestoreSource::Decode { shards: 2 });
                assert_eq!(read.objects[0], objects[0]);
                assert_eq!(ctx.now().as_secs().to_bits(), expected);
                Ok(expected)
            });
            assert!(outcome.all_ok(), "{:?}", outcome.errors());
            *outcome.value_of(0)
        };
        assert_eq!(run(), run(), "identical runs must give identical clocks");
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
                    write(ctx, &world, &cfg, &store, meta, &objects)?;
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
            let first = write(ctx, &world, &cfg, &store, meta, &[data.clone()])?;
            // Change one byte and checkpoint again: the delta write must be far smaller.
            data[123] = 1;
            let mut meta2 = meta_for(&[data.clone()], CheckpointLevel::L4, 2);
            meta2.ckpt_id = 2;
            let second = write(ctx, &world, &cfg, &store, meta2, &[data.clone()])?;
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
        // The primary and its redundant copy must be views of one shared payload
        // buffer, not owned copies.
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
                write(ctx, &world, &cfg, &store2, meta, &objects)?;
                Ok(())
            });
            assert!(outcome.all_ok());
            let set = store.sets(0, None).remove(0);
            let primary = set.primary.as_ref().unwrap();
            let copy = match level {
                CheckpointLevel::L2 => &set.partner,
                CheckpointLevel::L4 => &set.diff_base,
                _ => &None,
            };
            if let Some(other) = copy {
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
            write(ctx, &world, &cfg, &store2, meta, &objects)?;
            // Clobber the application buffer after the write.
            objects[0].iter_mut().for_each(|b| *b = 0xFF);
            ctx.barrier(&world)?;
            let read = read(ctx, &store2).expect("checkpoint exists");
            assert_eq!(read.objects[0], vec![1u8; 500]);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn differential_l4_writes_the_local_copy_plus_the_changed_blocks() {
        let store = CheckpointStore::shared();
        let cfg = FtiConfig::level(CheckpointLevel::L4);
        let block = DIFF_BLOCK_BYTES;
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
                let out = write(ctx, &world, &cfg, &store, meta, &[data.clone()])?;
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
            match write(ctx, &world, &cfg, &store, meta, &objects) {
                Err(MpiError::InvalidArgument(_)) => Ok(()),
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn read_without_checkpoint_returns_none() {
        let store = CheckpointStore::shared();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| Ok(read(ctx, &store).is_none()));
        assert!(*outcome.value_of(0));
    }
}
