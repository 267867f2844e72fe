//! The FTI-style public API: init / protect / checkpoint / status / recover / finalize.

use std::sync::Arc;

use mpisim::{Comm, MpiError, Payload, RankCtx, TimeCategory};

use crate::config::{CheckpointLevel, FtiConfig};
use crate::level::{
    read_checkpoint_at, write_checkpoint_payload, ReadOutcome, RestoreSource, WriteOutcome,
};
use crate::meta::{CheckpointMeta, FtiStats};
use crate::protect::{block_range, ObjectLayout, Protectable, ProtectedObject};
use crate::store::CheckpointStore;

/// Whether the application is starting fresh or restarting from a checkpoint
/// (the return value of `FTI_Status` in the original library).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtiStatus {
    /// No checkpoint exists for this rank: a fresh start.
    Fresh,
    /// A checkpoint exists; the application should call [`Fti::recover`] and resume
    /// from the stored iteration.
    Restart {
        /// Iteration at which the available checkpoint was taken.
        iteration: u64,
    },
}

/// A record of the last checkpoint read this instance served — the observable half of
/// the recovery-path coverage signal: which level's set the data came from, which
/// redundancy mechanism actually produced it, and the iteration it resumed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreObservation {
    /// Level of the checkpoint set the data was recovered from.
    pub level: CheckpointLevel,
    /// The redundancy mechanism that served the read.
    pub source: RestoreSource,
    /// The iteration the restored checkpoint was taken at.
    pub iteration: u64,
}

impl FtiStatus {
    /// Whether this is a restart.
    pub fn is_restart(&self) -> bool {
        matches!(self, FtiStatus::Restart { .. })
    }

    /// The checkpointed iteration, if restarting.
    pub fn restart_iteration(&self) -> Option<u64> {
        match self {
            FtiStatus::Restart { iteration } => Some(*iteration),
            FtiStatus::Fresh => None,
        }
    }
}

/// A per-rank FTI instance.
///
/// The instance is created inside the (resilient) application main with [`Fti::init`],
/// mirrors the original library's call sequence, and is dropped / re-created when the
/// application is globally restarted; the actual checkpoint data lives in the shared
/// [`CheckpointStore`], which survives restarts.
#[derive(Debug)]
pub struct Fti {
    config: FtiConfig,
    store: Arc<CheckpointStore>,
    comm: Comm,
    registry: Vec<ProtectedObject>,
    next_ckpt_id: u64,
    status: FtiStatus,
    /// The cluster-agreed restart iteration (see [`Fti::init_with_comm`]); recovery
    /// reads the set taken at exactly this iteration so every rank resumes from one
    /// consistent checkpoint wave.
    restart_iteration: Option<u64>,
    /// The last restore this instance served, if any (see [`Fti::last_restore`]).
    last_restore: Option<RestoreObservation>,
    /// The buffer of the checkpoint set the last write superseded, once nothing else
    /// viewed it: the next checkpoint serialises into it instead of allocating.
    spare: SpareBuffer,
    stats: FtiStats,
    finalized: bool,
}

/// An owned serialisation buffer kept between checkpoints, whose `Debug` form is its
/// capacity rather than megabytes of bytes.
#[derive(Default)]
struct SpareBuffer(Vec<u8>);

impl std::fmt::Debug for SpareBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpareBuffer({} bytes)", self.0.capacity())
    }
}

impl Fti {
    /// Initializes FTI on the world communicator (the analogue of
    /// `FTI_Init(config, MPI_COMM_WORLD)`).
    ///
    /// # Errors
    ///
    /// Propagates communication errors from the initialization barrier.
    pub fn init(
        config: FtiConfig,
        store: Arc<CheckpointStore>,
        ctx: &mut RankCtx,
    ) -> Result<Self, MpiError> {
        let world = ctx.world();
        Self::init_with_comm(config, store, ctx, world)
    }

    /// Initializes FTI on an explicit communicator. When combined with ULFM recovery
    /// the repaired world communicator must be used, which is why the paper stresses
    /// that the world communicator handle has to be refreshed after recovery.
    ///
    /// Initialization runs the **restart agreement**: every member contributes the
    /// newest iteration it can still reconstruct a checkpoint for, and the members
    /// iterate an all-reduce *minimum* until they converge on an iteration every rank
    /// holds (0 = nobody can restart: a fresh start). This is what keeps a job
    /// consistent when accumulated erasures — node crashes destroying L1 sets — leave
    /// different ranks with different surviving checkpoint generations: all ranks
    /// fall back together to the newest wave everyone still has, or to scratch.
    ///
    /// # Errors
    ///
    /// Propagates communication errors from the initialization collectives.
    pub fn init_with_comm(
        config: FtiConfig,
        store: Arc<CheckpointStore>,
        ctx: &mut RankCtx,
        comm: Comm,
    ) -> Result<Self, MpiError> {
        ctx.barrier(&comm)?;
        let min_shards = config.rs_data_shards();
        let mine = store.best_recoverable_iteration(ctx.rank(), u64::MAX, min_shards);
        let mut agreed = Self::allreduce_min_iteration(ctx, &comm, mine)?;
        while agreed > 0 {
            let candidate = store.best_recoverable_iteration(ctx.rank(), agreed, min_shards);
            let next = Self::allreduce_min_iteration(ctx, &comm, candidate)?;
            if next == agreed {
                break;
            }
            agreed = next;
        }
        let status = if agreed > 0 {
            FtiStatus::Restart { iteration: agreed }
        } else {
            FtiStatus::Fresh
        };
        let next_ckpt_id = store.meta(ctx.rank()).map(|m| m.ckpt_id + 1).unwrap_or(1);
        Ok(Fti {
            config,
            store,
            comm,
            registry: Vec::new(),
            next_ckpt_id,
            status,
            restart_iteration: (agreed > 0).then_some(agreed),
            last_restore: None,
            spare: SpareBuffer::default(),
            stats: FtiStats::default(),
            finalized: false,
        })
    }

    /// All-reduce minimum over checkpoint iterations (exact: iteration counts are far
    /// below 2^53, so the f64 reduction is lossless).
    fn allreduce_min_iteration(
        ctx: &mut RankCtx,
        comm: &Comm,
        value: u64,
    ) -> Result<u64, MpiError> {
        Ok(ctx.allreduce_min_f64(comm, value as f64)? as u64)
    }

    /// The configuration this instance was created with.
    pub fn config(&self) -> &FtiConfig {
        &self.config
    }

    /// Registers a data object for checkpointing (the analogue of `FTI_Protect`).
    /// Registration records the object's identifier, name and current size; the data
    /// itself is passed to [`Fti::checkpoint`] and [`Fti::recover`].
    pub fn protect<T: Protectable + ?Sized>(&mut self, id: u32, name: &str, object: &T) {
        self.register(id, name, object.byte_len(), ObjectLayout::Replicated);
    }

    /// Registers one rank-local block of a globally partitioned array for
    /// checkpointing. The job holds `total_units` indivisible units across the FTI
    /// communicator, block-distributed with the canonical [`block_range`] formula;
    /// this rank's registered object must hold exactly its block. The layout is
    /// recorded in every checkpoint's metadata, which is what lets a shrinking
    /// recovery re-partition the data over the survivors.
    ///
    /// # Panics
    ///
    /// Panics if the object's serialized size is not an integral number of units for
    /// this rank's block.
    pub fn protect_partitioned<T: Protectable + ?Sized>(
        &mut self,
        id: u32,
        name: &str,
        object: &T,
        total_units: u64,
    ) {
        let bytes = object.byte_len();
        let (_, count) = block_range(total_units, self.comm.size(), self.comm.rank());
        let unit_bytes = if count > 0 {
            assert!(
                (bytes as u64).is_multiple_of(count),
                "object {id} ({name}): {bytes} bytes is not a whole number of units \
                 for a block of {count} of {total_units} units"
            );
            (bytes as u64 / count) as usize
        } else {
            assert_eq!(
                bytes, 0,
                "a rank with no units must register an empty block"
            );
            0
        };
        self.register(
            id,
            name,
            bytes,
            ObjectLayout::Block {
                total_units,
                unit_bytes,
            },
        );
    }

    fn register(&mut self, id: u32, name: &str, bytes: usize, layout: ObjectLayout) {
        if let Some(existing) = self.registry.iter_mut().find(|o| o.id == id) {
            existing.name = name.to_string();
            existing.bytes = bytes;
            existing.layout = layout;
        } else {
            self.registry.push(ProtectedObject {
                id,
                name: name.to_string(),
                bytes,
                layout,
            });
        }
    }

    /// The registered protected objects, in registration order.
    pub fn protected_objects(&self) -> &[ProtectedObject] {
        &self.registry
    }

    /// Total registered payload size in bytes.
    pub fn protected_bytes(&self) -> usize {
        self.registry.iter().map(|o| o.bytes).sum()
    }

    /// Whether a checkpoint exists for this rank (the analogue of `FTI_Status`).
    pub fn status(&self) -> FtiStatus {
        self.status
    }

    /// Whether iteration `iteration` should take a checkpoint under the configured
    /// interval.
    pub fn should_checkpoint(&self, iteration: u64) -> bool {
        self.config.is_checkpoint_iteration(iteration)
    }

    /// Writes a checkpoint of the given objects (the analogue of `FTI_Checkpoint`).
    ///
    /// `objects` pairs each registered identifier with the object's current value; the
    /// time spent (including FTI's internal metadata agreement) is charged to
    /// [`TimeCategory::CheckpointWrite`].
    ///
    /// # Errors
    ///
    /// Propagates communication failures (e.g. a process failure detected during the
    /// metadata agreement) and invalid-argument errors for unregistered objects.
    pub fn checkpoint(
        &mut self,
        ctx: &mut RankCtx,
        iteration: u64,
        objects: &[(u32, &dyn Protectable)],
    ) -> Result<WriteOutcome, MpiError> {
        if self.finalized {
            return Err(MpiError::Finalized);
        }
        for (id, _) in objects {
            if !self.registry.iter().any(|o| o.id == *id) {
                return Err(MpiError::InvalidArgument(format!(
                    "object {id} was not registered with protect()"
                )));
            }
        }
        // Serialize every object directly into one flat buffer — the superseded set's,
        // when the last write handed it back: the shared payload is built with a
        // single copy, and in steady state without allocating.
        let mut object_lens = Vec::with_capacity(objects.len());
        let mut flat = std::mem::take(&mut self.spare.0);
        flat.clear();
        flat.reserve_exact(objects.iter().map(|(_, o)| o.byte_len()).sum());
        for (_, o) in objects {
            let start = flat.len();
            o.append_bytes(&mut flat);
            object_lens.push(flat.len() - start);
        }
        let payload = Payload::from(flat);
        let layout_of = |id: u32| {
            self.registry
                .iter()
                .find(|o| o.id == id)
                .map(|o| o.layout)
                .unwrap_or(ObjectLayout::Replicated)
        };
        let meta = CheckpointMeta {
            ckpt_id: self.next_ckpt_id,
            iteration,
            level: self.config.level_for_iteration(iteration),
            bytes: payload.len(),
            object_ids: objects.iter().map(|(id, _)| *id).collect(),
            object_lens,
            object_layouts: objects.iter().map(|(id, _)| layout_of(*id)).collect(),
        };

        let prev = ctx.set_category(TimeCategory::CheckpointWrite);
        let result =
            write_checkpoint_payload(ctx, &self.comm, &self.config, &self.store, meta, payload);
        ctx.set_category(prev);

        let (outcome, reclaimed) = result?;
        if let Some(buf) = reclaimed {
            self.spare.0 = buf;
        }
        self.next_ckpt_id += 1;
        self.stats.checkpoints_written += 1;
        self.stats.bytes_written += outcome.payload_bytes as u64;
        ctx.stats_mut().checkpoints_written += 1;
        Ok(outcome)
    }

    /// Restores every object from the latest checkpoint (the analogue of
    /// `FTI_Recover`). `objects` pairs each identifier with the mutable object to
    /// restore into; identifiers must match the ones used when the checkpoint was
    /// written. Returns the iteration the checkpoint was taken at.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::InvalidArgument`] if no checkpoint exists, if the identifier
    /// sets differ, or if the checkpoint cannot be reconstructed from surviving
    /// redundancy.
    pub fn recover(
        &mut self,
        ctx: &mut RankCtx,
        objects: &mut [(u32, &mut dyn Protectable)],
    ) -> Result<u64, MpiError> {
        let read = self.read(ctx)?;
        let meta = self
            .restart_meta(ctx.rank())
            .ok_or_else(|| MpiError::InvalidArgument("no checkpoint to recover from".into()))?;
        if meta.object_ids.len() != objects.len() {
            return Err(MpiError::InvalidArgument(format!(
                "checkpoint holds {} objects but {} were passed to recover",
                meta.object_ids.len(),
                objects.len()
            )));
        }
        for ((id, object), (stored_id, bytes)) in objects
            .iter_mut()
            .zip(meta.object_ids.iter().zip(&read.objects))
        {
            if id != stored_id {
                return Err(MpiError::InvalidArgument(format!(
                    "object id mismatch during recover: expected {stored_id}, got {id}"
                )));
            }
            object.restore_from(bytes);
        }
        self.stats.recoveries += 1;
        self.stats.bytes_read += read.read_bytes as u64;
        Ok(read.iteration)
    }

    /// Restores a single protected object by identifier.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`Fti::recover`].
    pub fn recover_object<T: Protectable + ?Sized>(
        &mut self,
        ctx: &mut RankCtx,
        id: u32,
        object: &mut T,
    ) -> Result<u64, MpiError> {
        let read = self.read(ctx)?;
        let meta = self
            .restart_meta(ctx.rank())
            .ok_or_else(|| MpiError::InvalidArgument("no checkpoint to recover from".into()))?;
        let idx = meta
            .object_ids
            .iter()
            .position(|&oid| oid == id)
            .ok_or_else(|| {
                MpiError::InvalidArgument(format!("object {id} not present in checkpoint"))
            })?;
        object.restore_from(&read.objects[idx]);
        self.stats.recoveries += 1;
        self.stats.bytes_read += read.objects[idx].len() as u64;
        Ok(read.iteration)
    }

    fn read(&mut self, ctx: &mut RankCtx) -> Result<ReadOutcome, MpiError> {
        let prev = ctx.set_category(TimeCategory::CheckpointRead);
        let result = read_checkpoint_at(ctx, &self.config, &self.store, self.restart_iteration);
        ctx.set_category(prev);
        let read = result?
            .ok_or_else(|| MpiError::InvalidArgument("no checkpoint to recover from".into()))?;
        self.last_restore = Some(RestoreObservation {
            level: read.level,
            source: read.source,
            iteration: read.iteration,
        });
        Ok(read)
    }

    /// The last restore this instance served through [`Fti::recover`] or
    /// [`Fti::recover_object`], if any. A fresh start (no checkpoint read) reports
    /// `None`. The recovery driver samples this after every attempt to derive the
    /// attempt's recovery-path coverage signal.
    pub fn last_restore(&self) -> Option<RestoreObservation> {
        self.last_restore
    }

    /// The metadata of the checkpoint set recovery reads from: the cluster-agreed
    /// restart iteration's set when one was agreed, otherwise the newest set.
    fn restart_meta(&self, rank: usize) -> Option<CheckpointMeta> {
        match self.restart_iteration {
            Some(it) => self.store.set_at(rank, it).map(|s| s.meta),
            None => self.store.meta(rank),
        }
    }

    /// Finalizes FTI (the analogue of `FTI_Finalize`): a final synchronization on the
    /// FTI communicator. Further checkpoints are rejected.
    ///
    /// # Errors
    ///
    /// Propagates communication errors from the finalization barrier.
    pub fn finalize(&mut self, ctx: &mut RankCtx) -> Result<(), MpiError> {
        if self.finalized {
            return Ok(());
        }
        ctx.barrier(&self.comm)?;
        self.finalized = true;
        Ok(())
    }

    /// Cumulative statistics of this instance.
    pub fn stats(&self) -> &FtiStats {
        &self.stats
    }

    /// The shared checkpoint store backing this instance.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointLevel;
    use crate::store::BlobKind;
    use mpisim::{Cluster, ClusterConfig};

    fn store() -> Arc<CheckpointStore> {
        CheckpointStore::shared()
    }

    #[test]
    fn checkpoint_payload_is_the_concatenated_to_bytes_of_its_objects() {
        let store = store();
        let s = Arc::clone(&store);
        let outcome = Cluster::new(ClusterConfig::with_ranks(2)).run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&s), ctx)?;
            let field = vec![ctx.rank() as f64 + 0.5; 37];
            let index = vec![u64::MAX, 3, ctx.rank() as u64];
            let step = 9u64;
            fti.protect(0, "field", &field);
            fti.protect(1, "index", &index);
            fti.protect(2, "step", &step);
            let objects: [(u32, &dyn Protectable); 3] = [(0, &field), (1, &index), (2, &step)];
            fti.checkpoint(ctx, 10, &objects)?;
            fti.finalize(ctx)?;
            let parts: Vec<Vec<u8>> = objects.iter().map(|(_, o)| o.to_bytes()).collect();
            Ok(parts)
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
        for rank in 0..2 {
            let parts = outcome.value_of(rank);
            let set = store.get(rank).expect("checkpoint set");
            assert_eq!(set.blobs[&BlobKind::Primary].data, parts.concat());
            let lens: Vec<usize> = parts.iter().map(Vec::len).collect();
            assert_eq!(set.meta.object_lens, lens);
        }
    }

    /// Writes three same-level checkpoints of a changing field, optionally holding a
    /// view of checkpoint 1's primary blob across the other two, and checks that the
    /// held view still reads checkpoint 1's bytes. Returns, per rank, whether the
    /// spare after checkpoint 2 is checkpoint 1's allocation and whether checkpoint 3's
    /// primary was serialised into it.
    fn first_buffer_reuse(level: CheckpointLevel, hold: bool) -> Vec<(bool, bool)> {
        let store = store();
        let s = Arc::clone(&store);
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(4));
        let outcome = cluster.run(move |ctx| {
            let cfg = FtiConfig::level(level).group_size(4).parity_shards(2);
            let mut fti = Fti::init(cfg, Arc::clone(&s), ctx)?;
            let mut field = vec![0.0f64; 512];
            fti.protect(0, "field", &field);
            let mut primaries = Vec::new();
            let mut spares = Vec::new();
            let mut held = None;
            for iteration in 1..=3u64 {
                field.iter_mut().for_each(|x| *x = (iteration * 10) as f64);
                fti.checkpoint(ctx, iteration, &[(0, &field as &dyn Protectable)])?;
                let primary = s.get(ctx.rank()).unwrap().blobs[&BlobKind::Primary]
                    .data
                    .clone();
                assert_eq!(primary, field.to_bytes(), "iteration {iteration}");
                primaries.push(primary.as_ptr());
                spares.push((fti.spare.0.capacity() > 0).then_some(fti.spare.0.as_ptr()));
                if hold && iteration == 1 {
                    held = Some(primary);
                }
            }
            if let Some(view) = held {
                assert_eq!(view, vec![10.0f64; 512].to_bytes(), "the held view changed");
            }
            Ok((
                spares[1] == Some(primaries[0]),
                primaries[2] == primaries[0],
            ))
        });
        assert!(outcome.all_ok(), "{level}: {:?}", outcome.errors());
        (0..4).map(|rank| *outcome.value_of(rank)).collect()
    }

    #[test]
    fn checkpoints_serialise_into_the_superseded_sets_buffer() {
        for level in CheckpointLevel::ALL {
            assert_eq!(
                first_buffer_reuse(level, false),
                vec![(true, true); 4],
                "{level}: with no view alive checkpoint 1's buffer is kept and reused"
            );
        }
    }

    #[test]
    fn a_buffer_that_a_live_view_aliases_is_never_reused() {
        for level in CheckpointLevel::ALL {
            assert_eq!(
                first_buffer_reuse(level, true),
                vec![(false, false); 4],
                "{level}: checkpoint 1's buffer is still viewed"
            );
        }
    }

    #[test]
    fn fresh_start_then_restart_status() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        // First run: write a checkpoint.
        let s = Arc::clone(&store);
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&s), ctx)?;
            assert!(!fti.status().is_restart());
            let field = vec![ctx.rank() as f64; 128];
            fti.protect(0, "field", &field);
            assert_eq!(fti.protected_bytes(), 1024);
            fti.checkpoint(ctx, 10, &[(0, &field as &dyn Protectable)])?;
            fti.finalize(ctx)?;
            Ok(fti.stats().checkpoints_written)
        });
        assert!(outcome.all_ok());
        // Second run over the same store: FTI reports a restart and recovers the data.
        let s = Arc::clone(&store);
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&s), ctx)?;
            assert_eq!(fti.status(), FtiStatus::Restart { iteration: 10 });
            let mut field = vec![0.0f64; 1];
            fti.protect(0, "field", &field);
            let iter = fti.recover_object(ctx, 0, &mut field)?;
            assert_eq!(iter, 10);
            assert_eq!(field, vec![ctx.rank() as f64; 128]);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn recover_restores_multiple_objects_in_order() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let s = Arc::clone(&store);
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&s), ctx)?;
            let a = vec![1.0f64, 2.0];
            let b = vec![7u64, 8, 9];
            let mut iter_count = 42u64;
            fti.protect(0, "a", &a);
            fti.protect(1, "b", &b);
            fti.protect(2, "iter", &iter_count);
            fti.checkpoint(
                ctx,
                20,
                &[
                    (0, &a as &dyn Protectable),
                    (1, &b as &dyn Protectable),
                    (2, &iter_count as &dyn Protectable),
                ],
            )?;

            // Clobber everything, then recover.
            let mut a2 = vec![0.0f64];
            let mut b2 = vec![0u64];
            iter_count = 0;
            let mut fti2 = Fti::init(FtiConfig::default(), Arc::clone(&s), ctx)?;
            fti2.protect(0, "a", &a2);
            fti2.protect(1, "b", &b2);
            fti2.protect(2, "iter", &iter_count);
            let iteration = fti2.recover(
                ctx,
                &mut [
                    (0, &mut a2 as &mut dyn Protectable),
                    (1, &mut b2 as &mut dyn Protectable),
                    (2, &mut iter_count as &mut dyn Protectable),
                ],
            )?;
            assert_eq!(iteration, 20);
            assert_eq!(a2, vec![1.0, 2.0]);
            assert_eq!(b2, vec![7, 8, 9]);
            assert_eq!(iter_count, 42);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }

    #[test]
    fn checkpoint_time_is_attributed_to_checkpoint_write() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(2));
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&store), ctx)?;
            let field = vec![1.0f64; 1 << 16];
            fti.protect(0, "field", &field);
            fti.checkpoint(ctx, 10, &[(0, &field as &dyn Protectable)])?;
            let b = ctx.breakdown();
            assert!(b.checkpoint_write.as_secs() > 0.0);
            assert_eq!(b.checkpoint_read.as_secs(), 0.0);
            Ok(())
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn unregistered_object_is_rejected() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&store), ctx)?;
            let field = vec![1.0f64; 4];
            match fti.checkpoint(ctx, 10, &[(3, &field as &dyn Protectable)]) {
                Err(MpiError::InvalidArgument(_)) => Ok(()),
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn checkpoint_after_finalize_is_rejected() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&store), ctx)?;
            let field = vec![1.0f64; 4];
            fti.protect(0, "field", &field);
            fti.finalize(ctx)?;
            fti.finalize(ctx)?; // idempotent
            match fti.checkpoint(ctx, 10, &[(0, &field as &dyn Protectable)]) {
                Err(MpiError::Finalized) => Ok(()),
                other => panic!("expected Finalized, got {other:?}"),
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn recover_without_checkpoint_fails() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&store), ctx)?;
            let mut field = vec![0.0f64];
            fti.protect(0, "field", &field);
            match fti.recover_object(ctx, 0, &mut field) {
                Err(MpiError::InvalidArgument(_)) => Ok(()),
                other => panic!("expected InvalidArgument, got {other:?}"),
            }
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn should_checkpoint_follows_interval() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let fti = Fti::init(FtiConfig::default().interval(5), Arc::clone(&store), ctx)?;
            assert!(fti.should_checkpoint(5));
            assert!(fti.should_checkpoint(10));
            assert!(!fti.should_checkpoint(0));
            assert!(!fti.should_checkpoint(7));
            Ok(())
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn reprotecting_same_id_updates_registration() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(1));
        let outcome = cluster.run(move |ctx| {
            let mut fti = Fti::init(FtiConfig::default(), Arc::clone(&store), ctx)?;
            let small = vec![0.0f64; 2];
            let large = vec![0.0f64; 100];
            fti.protect(0, "field", &small);
            fti.protect(0, "field", &large);
            assert_eq!(fti.protected_objects().len(), 1);
            assert_eq!(fti.protected_bytes(), 800);
            Ok(())
        });
        assert!(outcome.all_ok());
    }

    #[test]
    fn status_helpers() {
        assert!(FtiStatus::Restart { iteration: 5 }.is_restart());
        assert_eq!(
            FtiStatus::Restart { iteration: 5 }.restart_iteration(),
            Some(5)
        );
        assert!(!FtiStatus::Fresh.is_restart());
        assert_eq!(FtiStatus::Fresh.restart_iteration(), None);
    }

    #[test]
    fn level3_checkpoints_work_through_the_api() {
        let store = store();
        let cluster = Cluster::new(ClusterConfig::with_ranks(4).nodes(2));
        let outcome = cluster.run(move |ctx| {
            let cfg = FtiConfig::level(CheckpointLevel::L3)
                .group_size(4)
                .parity_shards(2);
            let mut fti = Fti::init(cfg, Arc::clone(&store), ctx)?;
            let field: Vec<f64> = (0..500).map(|i| (i + ctx.rank()) as f64).collect();
            fti.protect(0, "field", &field);
            fti.checkpoint(ctx, 10, &[(0, &field as &dyn Protectable)])?;
            let mut restored = vec![0.0f64];
            fti.recover_object(ctx, 0, &mut restored)?;
            assert_eq!(restored, field);
            Ok(())
        });
        assert!(outcome.all_ok(), "{:?}", outcome.errors());
    }
}
