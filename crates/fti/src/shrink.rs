//! Checkpoint redistribution after a shrinking (ULFM `MPI_Comm_shrink`) recovery.
//!
//! A shrinking recovery does not replace dead ranks: the survivors continue on a
//! smaller communicator and must first take over the dead ranks' share of the
//! problem. This module implements that hand-over at the checkpoint level:
//!
//! 1. every retired rank's checkpoint is **adopted** by a deterministic survivor;
//! 2. the survivors run the same iterated all-reduce-minimum restart agreement FTI
//!    uses at init, but each survivor also speaks for its adopted ranks — the agreed
//!    iteration is one *every* old rank's set can still be reconstructed at;
//! 3. each [`ObjectLayout::Block`] object is re-partitioned from the old world's
//!    block distribution to the survivors' — the overlapping fragments travel as
//!    **real simulated messages**, so a survivor set that straddles racks pays the
//!    rack-uplink latency and bandwidth for every fragment that crosses them;
//! 4. the old checkpoints are dropped and every survivor writes a fresh checkpoint
//!    of its new block at the agreed iteration, on the survivor communicator (with
//!    survivor-aware L2/L3 placement, see [`crate::placement`]).
//!
//! When the next `Fti::init` runs on the survivor communicator, its restart
//! agreement finds exactly these redistributed sets and the application resumes at
//! the agreed iteration with the shrunken world owning the whole problem.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use mpisim::{Comm, MpiError, Payload, RankCtx};

use crate::config::FtiConfig;
use crate::level::{read_checkpoint_of, write_checkpoint_payload};
use crate::meta::CheckpointMeta;
use crate::protect::{block_range, part_of_unit, ObjectLayout};
use crate::store::CheckpointStore;

/// Message tag used by redistribution fragments.
const REDISTRIBUTE_TAG: i32 = 0x5151;

/// What a shrinking redistribution did, identical on every survivor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShrinkOutcome {
    /// The iteration every survivor's fresh checkpoint was written at (0 means no
    /// old rank had a recoverable set: the job starts from scratch).
    pub agreed_iteration: u64,
    /// Total bytes moved between survivors across the whole communicator.
    pub bytes_moved: u64,
    /// Total number of point-to-point fragments sent across the whole communicator.
    pub messages: u64,
}

/// The survivor (new-communicator index) that adopts the checkpoint of the old
/// member at old index `old_idx`: round-robin over the survivors, so adoption load
/// spreads evenly and every rank computes the same assignment.
fn adopter_of(old_idx: usize, new_size: usize) -> usize {
    old_idx % new_size
}

/// Redistributes the protected dataset over the survivors of a shrink.
///
/// `old_world` lists the global ranks of the pre-shrink communicator in old rank
/// order; `comm` is the survivor communicator produced by the shrink (its members
/// are a subset of `old_world`). This is a collective over `comm`; it must be called
/// by every survivor, with identical arguments, in the same recovery epoch. All
/// ranks are assumed to protect the same object ids with the same layouts (the SPMD
/// convention every proxy application follows).
///
/// # Errors
///
/// Propagates communication errors and reports [`MpiError::InvalidArgument`] if a
/// checkpoint the agreement promised turns out unreadable (a store inconsistency).
pub fn redistribute_after_shrink(
    ctx: &mut RankCtx,
    comm: &Comm,
    cfg: &FtiConfig,
    store: &Arc<CheckpointStore>,
    old_world: &[usize],
) -> Result<ShrinkOutcome, MpiError> {
    let me = ctx.rank();
    let me_idx = comm.rank();
    let old_n = old_world.len();
    let new_n = comm.size();

    // Old indices this survivor speaks for: its own, plus every dead rank it adopts.
    let holders = holders_of(old_world, comm.members());
    let my_old_idx = old_world
        .iter()
        .position(|&r| r == me)
        .expect("caller must be a member of the old world");
    let mut my_owners: Vec<usize> = vec![my_old_idx];
    my_owners.extend((0..old_n).filter(|&oi| oi != my_old_idx && holders[oi] == me_idx));

    // Restart agreement over the survivors, each also answering for its adopted
    // ranks: converge on the newest iteration EVERY old rank can reconstruct.
    let min_shards = cfg.rs_data_shards();
    let my_best = |store: &CheckpointStore, cap: u64| -> u64 {
        my_owners
            .iter()
            .map(|&oi| store.best_recoverable_iteration(old_world[oi], cap, min_shards))
            .min()
            .unwrap_or(0)
    };
    let allreduce_min = |ctx: &mut RankCtx, v: u64| -> Result<u64, MpiError> {
        Ok(ctx.allreduce_min_f64(comm, v as f64)? as u64)
    };
    let mut agreed = allreduce_min(ctx, my_best(store, u64::MAX))?;
    while agreed > 0 {
        let next = allreduce_min(ctx, my_best(store, agreed))?;
        if next == agreed {
            break;
        }
        agreed = next;
    }

    if agreed == 0 {
        // Nothing recoverable anywhere: drop whatever partial sets remain and start
        // the survivor world from scratch.
        ctx.barrier(comm)?;
        if me_idx == 0 {
            store.clear();
        }
        ctx.barrier(comm)?;
        return Ok(ShrinkOutcome {
            agreed_iteration: 0,
            bytes_moved: 0,
            messages: 0,
        });
    }

    // Read the agreed set of every owner this survivor speaks for. Adoption reads
    // fetch a dead rank's surviving blobs across the failure domain separating the
    // reader from them (the dead rank's own node is gone by construction).
    let mut held: HashMap<usize, (CheckpointMeta, Vec<Payload>)> = HashMap::new();
    for &oi in &my_owners {
        let owner = old_world[oi];
        let read = read_checkpoint_of(ctx, cfg, store, owner, Some(agreed))?.ok_or_else(|| {
            MpiError::InvalidArgument(format!(
                "rank {owner}'s agreed checkpoint (iteration {agreed}) is unreadable"
            ))
        })?;
        let meta = store
            .set_at(owner, agreed)
            .map(|s| s.meta)
            .ok_or_else(|| MpiError::InvalidArgument("agreed checkpoint set vanished".into()))?;
        held.insert(oi, (meta, read.objects));
    }

    // The object template: every rank protects the same ids/layouts, so this rank's
    // own meta describes the global object list.
    let template = held[&my_old_idx].0.clone();
    let next_ckpt_id = store.meta(me).map(|m| m.ckpt_id + 1).unwrap_or(1);

    let mut my_bytes_sent = 0u64;
    let mut my_messages = 0u64;
    let mut new_objects: Vec<Payload> = Vec::with_capacity(template.object_ids.len());

    for (obj_pos, (&obj_id, &layout)) in template
        .object_ids
        .iter()
        .zip(&template.object_layouts)
        .enumerate()
    {
        match layout {
            ObjectLayout::Replicated => {
                // Survivors keep their own copy; adopted replicated state is dropped.
                new_objects.push(held[&my_old_idx].1[obj_pos].clone());
            }
            ObjectLayout::Block { total_units, .. } => {
                // Unit size must be globally agreed even if some block is empty.
                let my_unit = match held[&my_old_idx].0.object_layouts[obj_pos] {
                    ObjectLayout::Block { unit_bytes, .. } => unit_bytes,
                    ObjectLayout::Replicated => 0,
                };
                let unit_bytes = ctx.allreduce_max_f64(comm, my_unit as f64)? as usize;
                let (my_new_start, my_new_count) = block_range(total_units, new_n, me_idx);
                let mut assembled = vec![0u8; my_new_count as usize * unit_bytes];

                // Every rank acts on its (old owner, new owner) overlap pairs in the
                // same global order; sends are eager, so the matching blocking
                // receives drain them deterministically. This rank holds the old
                // block, owns the new one, or both (a local copy).
                for (old_idx, new_idx) in
                    my_overlap_pairs(total_units, old_n, new_n, me_idx, &my_owners)
                {
                    let (old_start, old_count) = block_range(total_units, old_n, old_idx);
                    let (new_start, new_count) = block_range(total_units, new_n, new_idx);
                    let lo = old_start.max(new_start);
                    let hi = (old_start + old_count).min(new_start + new_count);
                    let frag_bytes = (hi - lo) as usize * unit_bytes;
                    let holder_idx = holders[old_idx];
                    if holder_idx == new_idx {
                        let src = slice_of(&held[&old_idx], obj_id, old_start, lo, hi, unit_bytes);
                        let off = (lo - my_new_start) as usize * unit_bytes;
                        assembled[off..off + frag_bytes].copy_from_slice(&src);
                    } else if me_idx == holder_idx {
                        let src = slice_of(&held[&old_idx], obj_id, old_start, lo, hi, unit_bytes);
                        ctx.send_payload(comm, new_idx, REDISTRIBUTE_TAG, src)?;
                        my_bytes_sent += frag_bytes as u64;
                        my_messages += 1;
                    } else {
                        let (_, _, payload) =
                            ctx.recv_payload(comm, holder_idx as i32, REDISTRIBUTE_TAG)?;
                        let off = (lo - my_new_start) as usize * unit_bytes;
                        assembled[off..off + frag_bytes].copy_from_slice(&payload);
                    }
                }
                new_objects.push(Payload::from(assembled));
            }
        }
    }

    // Everyone holds its re-partitioned data in memory: drop the old world's
    // checkpoints and write the survivor world's fresh wave at the agreed iteration.
    ctx.barrier(comm)?;
    if me_idx == 0 {
        store.clear();
    }
    ctx.barrier(comm)?;

    let object_lens: Vec<usize> = new_objects.iter().map(Payload::len).collect();
    let object_layouts: Vec<ObjectLayout> = template
        .object_layouts
        .iter()
        .zip(&object_lens)
        .map(|(&l, &len)| match l {
            ObjectLayout::Replicated => ObjectLayout::Replicated,
            ObjectLayout::Block { total_units, .. } => {
                let (_, count) = block_range(total_units, new_n, me_idx);
                ObjectLayout::Block {
                    total_units,
                    unit_bytes: if count > 0 { len / count as usize } else { 0 },
                }
            }
        })
        .collect();
    let payload = Payload::concat(&new_objects);
    let meta = CheckpointMeta {
        ckpt_id: next_ckpt_id,
        iteration: agreed,
        level: cfg.level_for_iteration(agreed),
        bytes: payload.len(),
        object_ids: template.object_ids.clone(),
        object_lens,
        object_layouts,
    };
    write_checkpoint_payload(ctx, comm, cfg, store, meta, payload)?;

    // Report cluster-wide totals identically on every survivor.
    let bytes_moved = ctx.allreduce_sum_u64(comm, my_bytes_sent)?;
    let messages = ctx.allreduce_sum_u64(comm, my_messages)?;
    Ok(ShrinkOutcome {
        agreed_iteration: agreed,
        bytes_moved,
        messages,
    })
}

/// For every old member, in old rank order, the survivor (new-communicator index)
/// holding its checkpoint after the shrink: the member itself when it survived,
/// otherwise its adopter. `members` lists the survivor communicator's global ranks.
fn holders_of(old_world: &[usize], members: &[usize]) -> Vec<usize> {
    let new_idx_of: HashMap<usize, usize> = members
        .iter()
        .enumerate()
        .map(|(i, &rank)| (rank, i))
        .collect();
    old_world
        .iter()
        .enumerate()
        .map(|(old_idx, rank)| {
            new_idx_of
                .get(rank)
                .copied()
                .unwrap_or_else(|| adopter_of(old_idx, members.len()))
        })
        .collect()
}

/// The parts of a `parts`-way [`block_range`] distribution of `total_units` whose
/// blocks overlap the `count` units starting at `start` (none when `count` is 0).
fn parts_overlapping(total_units: u64, parts: usize, start: u64, count: u64) -> Range<usize> {
    if count == 0 {
        return 0..0;
    }
    part_of_unit(total_units, parts, start)..part_of_unit(total_units, parts, start + count - 1) + 1
}

/// The (old index, new index) pairs of overlapping old and new blocks that survivor
/// `me_idx` takes part in, in ascending (old, new) order — the order every survivor
/// walks the global pair list in. `held` lists the old indices whose checkpoints this
/// survivor holds (its own and its adopted ones): it sends or copies the fragments of
/// those, and receives or copies every fragment of its own new block.
fn my_overlap_pairs(
    total_units: u64,
    old_n: usize,
    new_n: usize,
    me_idx: usize,
    held: &[usize],
) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for &old_idx in held {
        let (start, count) = block_range(total_units, old_n, old_idx);
        pairs.extend(parts_overlapping(total_units, new_n, start, count).map(|n| (old_idx, n)));
    }
    let (start, count) = block_range(total_units, new_n, me_idx);
    pairs.extend(parts_overlapping(total_units, old_n, start, count).map(|o| (o, me_idx)));
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The bytes of units `[lo, hi)` inside the held checkpoint of one old owner, whose
/// object `obj_id` starts at global unit `old_start`: a view of the held payload.
fn slice_of(
    held: &(CheckpointMeta, Vec<Payload>),
    obj_id: u32,
    old_start: u64,
    lo: u64,
    hi: u64,
    unit_bytes: usize,
) -> Payload {
    let (meta, objects) = held;
    let pos = meta
        .object_ids
        .iter()
        .position(|&id| id == obj_id)
        .expect("owner's checkpoint must hold the same objects");
    let a = (lo - old_start) as usize * unit_bytes;
    let b = (hi - old_start) as usize * unit_bytes;
    objects[pos].slice(a..b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Fti;
    use crate::protect::Protectable;
    use mpisim::ulfm::{shrink_recovery, shrinking_recovery_cost};
    use mpisim::{Cluster, ClusterConfig, SimTime};

    const TOTAL_UNITS: u64 = 32;

    /// The full old × new walk the redistribution did before it enumerated only its
    /// own pairs: every (old, new) pair of overlapping non-empty blocks, in (old, new)
    /// order, kept where survivor `me_idx` is the holder or the new owner.
    fn overlap_pairs_oracle(
        total_units: u64,
        old_n: usize,
        new_n: usize,
        me_idx: usize,
        holders: &[usize],
    ) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (old_idx, &holder_idx) in holders.iter().enumerate() {
            let (old_start, old_count) = block_range(total_units, old_n, old_idx);
            if old_count == 0 {
                continue;
            }
            for new_idx in 0..new_n {
                let (new_start, new_count) = block_range(total_units, new_n, new_idx);
                let lo = old_start.max(new_start);
                let hi = (old_start + old_count).min(new_start + new_count);
                if lo < hi && (holder_idx == me_idx || new_idx == me_idx) {
                    pairs.push((old_idx, new_idx));
                }
            }
        }
        pairs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every survivor acts on exactly the pairs the full walk gives it, in the
        /// same order, for any problem size (fewer units than ranks included), world
        /// size and set of casualties.
        #[test]
        fn each_survivor_acts_on_the_oracles_pairs_in_order(
            total_units in 0u64..200,
            old_n in 2usize..40,
            victim_bits in proptest::prelude::any::<u64>(),
        ) {
            let old_world: Vec<usize> = (0..old_n).map(|i| 3 * i + 1).collect();
            // At least one casualty and at least one survivor.
            let dead = |i: usize| i == 0 || (i + 1 < old_n && victim_bits >> (i % 64) & 1 == 1);
            let members: Vec<usize> = old_world
                .iter()
                .enumerate()
                .filter(|&(i, _)| !dead(i))
                .map(|(_, &r)| r)
                .collect();
            let new_n = members.len();
            let holders = holders_of(&old_world, &members);
            let searched: Vec<usize> = (0..old_n)
                .map(|oi| {
                    members
                        .iter()
                        .position(|&m| m == old_world[oi])
                        .unwrap_or_else(|| adopter_of(oi, new_n))
                })
                .collect();
            proptest::prop_assert_eq!(&holders, &searched);
            for me_idx in 0..new_n {
                let held: Vec<usize> = (0..old_n).filter(|&oi| holders[oi] == me_idx).collect();
                proptest::prop_assert_eq!(
                    my_overlap_pairs(total_units, old_n, new_n, me_idx, &held),
                    overlap_pairs_oracle(total_units, old_n, new_n, me_idx, &holders),
                    "survivor {} of {} (old world {})", me_idx, new_n, old_n
                );
            }
        }
    }

    /// Per-survivor result of [`shrink_and_redistribute`]: the new block start, the
    /// recovered block, the shrink outcome and the redistribution's elapsed time
    /// (`None` for the casualty).
    type SurvivorView = Option<(u64, Vec<f64>, ShrinkOutcome, SimTime)>;

    /// Checkpoint a block-partitioned global array on the full world, kill one rank,
    /// shrink, redistribute, and return what each survivor recovers on the shrunken
    /// world: `(new_start, recovered_block, outcome)`.
    fn shrink_and_redistribute(
        config: ClusterConfig,
        nprocs: usize,
        victim: usize,
    ) -> Vec<SurvivorView> {
        let store = CheckpointStore::shared();
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(config);
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            let cfg = FtiConfig::default().interval(10);
            let mut fti = Fti::init(cfg.clone(), Arc::clone(&store2), ctx)?;
            let (start, count) = block_range(TOTAL_UNITS, world.size(), world.rank());
            let x: Vec<f64> = (start..start + count).map(|g| g as f64).collect();
            fti.protect_partitioned(0, "x", &x, TOTAL_UNITS);
            fti.checkpoint(ctx, 10, &[(0, &x as &dyn Protectable)])?;
            ctx.barrier(&world)?;
            if ctx.rank() == victim {
                return Err(ctx.kill_self());
            }
            ctx.wait_for_failure_events(1);
            let cost = shrinking_recovery_cost(ctx, world.size());
            let shrunk = shrink_recovery(ctx, &world, cost, |_crashed| {})?;
            assert_eq!(shrunk.size(), nprocs - 1);
            let before = ctx.now();
            let out = redistribute_after_shrink(ctx, &shrunk, &cfg, &store2, world.members())?;
            let elapsed = ctx.now().saturating_sub(before);
            // The next FTI generation on the survivor communicator finds the
            // redistributed wave through its ordinary restart agreement.
            let mut fti2 = Fti::init_with_comm(cfg, Arc::clone(&store2), ctx, shrunk.clone())?;
            assert_eq!(fti2.status().restart_iteration(), Some(10));
            let (new_start, new_count) = block_range(TOTAL_UNITS, shrunk.size(), shrunk.rank());
            let mut y = vec![0.0f64; new_count as usize];
            fti2.protect_partitioned(0, "x", &y, TOTAL_UNITS);
            fti2.recover_object(ctx, 0, &mut y)?;
            Ok((new_start, y, out, elapsed))
        });
        outcome
            .ranks()
            .iter()
            .map(|r| match &r.result {
                Ok(v) => Some(v.clone()),
                Err(MpiError::SelfFailed) => None,
                Err(e) => panic!("unexpected error: {e}"),
            })
            .collect()
    }

    #[test]
    fn survivor_blocks_tile_the_global_array_exactly() {
        let results = shrink_and_redistribute(ClusterConfig::with_ranks(8).nodes(4), 8, 3);
        assert!(results[3].is_none(), "the victim recovers nothing");
        let mut covered: Vec<Option<f64>> = vec![None; TOTAL_UNITS as usize];
        let mut agreed = None;
        for (rank, res) in results.iter().enumerate() {
            let Some((start, block, out, _)) = res else {
                continue;
            };
            assert!(out.bytes_moved > 0, "a shrink must move data");
            assert!(out.messages > 0);
            match agreed {
                None => agreed = Some(*out),
                Some(prev) => assert_eq!(prev, *out, "outcome must be identical everywhere"),
            }
            for (i, v) in block.iter().enumerate() {
                let g = *start as usize + i;
                assert!(
                    covered[g].is_none(),
                    "unit {g} owned twice (second owner rank {rank})"
                );
                covered[g] = Some(*v);
            }
        }
        for (g, v) in covered.iter().enumerate() {
            assert_eq!(
                *v,
                Some(g as f64),
                "unit {g} must be owned exactly once with its original value"
            );
        }
    }

    #[test]
    fn cross_rack_redistribution_costs_more_than_same_rack() {
        // Identical job, identical victim, identical fragment pattern — only the
        // rack layout differs. With four racks some redistribution fragments cross
        // rack uplinks, whose LinkDomain charges are strictly higher than the
        // rack-local fabric, so the redistribution phase must take visibly longer.
        let same_rack =
            shrink_and_redistribute(ClusterConfig::with_ranks(8).nodes(8).racks(1), 8, 3);
        let cross_rack =
            shrink_and_redistribute(ClusterConfig::with_ranks(8).nodes(8).racks(4), 8, 3);
        let max_elapsed = |rs: &[SurvivorView]| {
            rs.iter()
                .flatten()
                .map(|(_, _, _, e)| *e)
                .max_by(|a, b| a.partial_cmp(b).expect("simulated times are finite"))
                .expect("survivors exist")
        };
        let same = max_elapsed(&same_rack);
        let cross = max_elapsed(&cross_rack);
        assert!(
            cross > same,
            "cross-rack redistribution ({:?}) must cost more than same-rack ({:?})",
            cross,
            same
        );
        // Same fragments either way: the price difference is purely the domain.
        let moved =
            |rs: &[SurvivorView]| rs.iter().flatten().map(|(_, _, o, _)| *o).next().unwrap();
        assert_eq!(
            moved(&same_rack).bytes_moved,
            moved(&cross_rack).bytes_moved
        );
    }

    #[test]
    fn nothing_recoverable_means_a_clean_fresh_start() {
        let store = CheckpointStore::shared();
        let store2 = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4));
        let outcome = cluster.run(move |ctx| {
            let world = ctx.world();
            if ctx.rank() == 1 {
                return Err(ctx.kill_self());
            }
            ctx.wait_for_failure_events(1);
            let cost = shrinking_recovery_cost(ctx, world.size());
            let shrunk = shrink_recovery(ctx, &world, cost, |_crashed| {})?;
            // No checkpoint was ever written: the agreement lands on 0.
            let cfg = FtiConfig::default();
            let out = redistribute_after_shrink(ctx, &shrunk, &cfg, &store2, world.members())?;
            assert_eq!(out.agreed_iteration, 0);
            assert_eq!(out.bytes_moved, 0);
            let fti = Fti::init_with_comm(cfg, Arc::clone(&store2), ctx, shrunk)?;
            assert!(!fti.status().is_restart());
            Ok(())
        });
        let casualties = outcome
            .results()
            .iter()
            .filter(|r| matches!(r, Err(MpiError::SelfFailed)))
            .count();
        assert_eq!(casualties, 1);
        assert_eq!(outcome.results().iter().filter(|r| r.is_ok()).count(), 3);
    }
}
