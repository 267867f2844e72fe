//! Checkpoint metadata.

use mpisim::Payload;

use crate::config::CheckpointLevel;
use crate::protect::ObjectLayout;

/// Metadata describing one stored checkpoint set of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Monotonically increasing checkpoint identifier (per rank).
    pub ckpt_id: u64,
    /// Application iteration at which the checkpoint was taken.
    pub iteration: u64,
    /// The level the checkpoint was written at.
    pub level: CheckpointLevel,
    /// Total payload bytes across all protected objects.
    pub bytes: usize,
    /// Identifiers of the protected objects contained in the checkpoint, in write
    /// order.
    pub object_ids: Vec<u32>,
    /// Serialized length of each protected object, in the same order as
    /// [`CheckpointMeta::object_ids`]. Used to slice the flat payload back into
    /// objects during recovery.
    pub object_lens: Vec<usize>,
    /// Global layout of each protected object, in the same order as
    /// [`CheckpointMeta::object_ids`]. Stored in the checkpoint itself so a shrinking
    /// recovery can re-partition the data without the (dead) owner's registry.
    pub object_layouts: Vec<ObjectLayout>,
}

impl CheckpointMeta {
    /// Splits a flat payload into per-object views according to
    /// [`CheckpointMeta::object_lens`]: sub-slices of `payload`'s own buffer, no bytes
    /// are copied.
    ///
    /// # Panics
    ///
    /// Panics if the payload is shorter than the sum of the object lengths (which
    /// would indicate a corrupted checkpoint).
    pub fn split_payload(&self, payload: &Payload) -> Vec<Payload> {
        let mut offset = 0;
        self.object_lens
            .iter()
            .map(|&len| {
                let object = payload.slice(offset..offset + len);
                offset += len;
                object
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_count_and_split() {
        let m = CheckpointMeta {
            ckpt_id: 1,
            iteration: 10,
            level: CheckpointLevel::L1,
            bytes: 6,
            object_ids: vec![0, 1, 7],
            object_lens: vec![1, 2, 3],
            object_layouts: vec![ObjectLayout::Replicated; 3],
        };
        assert_eq!(m.object_ids.len(), 3);
        let payload = Payload::from(vec![1, 2, 3, 4, 5, 6]);
        let parts = m.split_payload(&payload);
        assert_eq!(parts, vec![vec![1], vec![2, 3], vec![4, 5, 6]]);
        assert!(parts.iter().all(|part| part.same_buffer(&payload)));
    }
}
