//! Differential checkpointing (FTI L4).
//!
//! L4 flushes checkpoints to the parallel file system — the slowest tier — so FTI
//! supports *differential* checkpointing there: the payload is split into fixed-size
//! blocks, each block is hashed, and only the blocks whose hash changed since the
//! previous L4 checkpoint are written. This module implements the block hashing, the
//! delta computation and the reconstruction of a full payload from a base plus a delta.
//!
//! ## The fast data path
//!
//! Three things keep the delta computation off the profile:
//!
//! * blocks are hashed *word-at-a-time* — eight bytes per FNV-style mixing step
//!   instead of one (see `block_hash`);
//! * [`compute_delta_cached`] accepts the base's block hashes (which the
//!   [`crate::store::CheckpointStore`] caches alongside the differential base) and
//!   returns the new payload's hashes for the next round, so each checkpoint hashes
//!   only the *new* payload instead of re-hashing the base every time;
//! * the delta stores `(block index, byte range)` views into one shared
//!   [`Payload`] instead of an owned `Vec<u8>` per changed block — building a delta
//!   copies nothing.
//!
//! The previous owned-block representation lives on in the unit tests as the reference
//! oracle the property tests compare the range-based path against.

use std::ops::Range;

use mpisim::Payload;

/// A change set: which blocks of the payload changed, as views into a shared payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffDelta {
    /// Block size used to compute the delta.
    pub block_size: usize,
    /// Length of the full payload this delta describes.
    pub new_len: usize,
    /// The full new payload the ranges below point into (a cheap shared-buffer view).
    pub payload: Payload,
    /// `(block index, byte range into [`DiffDelta::payload`])` for every changed
    /// block, in ascending block order.
    pub changed: Vec<(usize, Range<usize>)>,
}

impl DiffDelta {
    /// Total number of bytes that must actually be written for this delta.
    pub fn bytes_to_write(&self) -> usize {
        self.changed.iter().map(|(_, r)| r.len()).sum()
    }

    /// Number of changed blocks.
    pub fn changed_blocks(&self) -> usize {
        self.changed.len()
    }

    /// The bytes of the `i`-th changed block (zero-copy view into the shared payload).
    pub fn changed_block(&self, i: usize) -> &[u8] {
        let (_, range) = &self.changed[i];
        &self.payload[range.clone()]
    }
}

/// FNV-1a-style block hash, processing eight-byte words per mixing step (with the
/// original byte-at-a-time step for the ragged tail). Cheap, deterministic, and only
/// ever trusted together with a byte comparison, so collision quality is a performance
/// concern rather than a correctness one.
fn block_hash(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte word"));
        h = h.wrapping_mul(PRIME);
        h ^= h >> 29; // extra diffusion: whole words enter at once
    }
    for &b in words.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Hashes every block of `data`.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn block_hashes(data: &[u8], block_size: usize) -> Vec<u64> {
    assert!(block_size > 0, "block size must be positive");
    data.chunks(block_size).map(block_hash).collect()
}

/// Computes the delta that transforms `base` into `new`.
///
/// Blocks are compared by hash; a block is also considered changed when it lies beyond
/// the end of the base (growth) and blocks past the end of `new` are dropped
/// implicitly through [`DiffDelta::new_len`]. Hashes the base in place — when the
/// base's hashes are already known, use [`compute_delta_cached`].
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn compute_delta(base: &[u8], new: &Payload, block_size: usize) -> DiffDelta {
    let base_hashes = block_hashes(base, block_size);
    compute_delta_cached(base, &base_hashes, new, block_size).0
}

/// Computes the delta that transforms `base` into `new`, given the base's block hashes
/// (`base_hashes[i]` must be the hash of `base`'s `i`-th block at this `block_size`).
/// Returns the delta together with the *new* payload's block hashes, which the caller
/// caches as the base hashes of the next delta — so steady-state differential
/// checkpointing hashes every payload exactly once.
///
/// # Panics
///
/// Panics if `block_size` is zero.
pub fn compute_delta_cached(
    base: &[u8],
    base_hashes: &[u64],
    new: &Payload,
    block_size: usize,
) -> (DiffDelta, Vec<u64>) {
    assert!(block_size > 0, "block size must be positive");
    let mut changed = Vec::new();
    let mut new_hashes = Vec::with_capacity(new.len().div_ceil(block_size));
    for (idx, block) in new.chunks(block_size).enumerate() {
        let h = block_hash(block);
        new_hashes.push(h);
        let unchanged = base_hashes.get(idx).is_some_and(|&bh| {
            bh == h && {
                // Guard against hash collisions by comparing the bytes when the hash
                // matches; the cost is negligible because matching blocks are the
                // common case only when they really are equal.
                let start = idx * block_size;
                let end = (start + block.len()).min(base.len());
                &base[start..end] == block
            }
        });
        if !unchanged {
            let start = idx * block_size;
            changed.push((idx, start..start + block.len()));
        }
    }
    (
        DiffDelta {
            block_size,
            new_len: new.len(),
            payload: new.clone(),
            changed,
        },
        new_hashes,
    )
}

/// Applies `delta` to `base`, producing the new payload.
pub fn apply_delta(base: &[u8], delta: &DiffDelta) -> Vec<u8> {
    let mut out = base.to_vec();
    out.resize(delta.new_len, 0);
    for (_, range) in &delta.changed {
        out[range.clone()].copy_from_slice(&delta.payload[range.clone()]);
    }
    out.truncate(delta.new_len);
    out
}

/// The legacy change-set representation: an owned copy of every changed block, the
/// reference oracle the property tests hold [`DiffDelta`] to.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
struct OwnedDiffDelta {
    block_size: usize,
    new_len: usize,
    /// `(block index, new block contents)` for every changed block.
    changed: Vec<(usize, Vec<u8>)>,
}

#[cfg(test)]
impl OwnedDiffDelta {
    fn bytes_to_write(&self) -> usize {
        self.changed.iter().map(|(_, b)| b.len()).sum()
    }

    fn changed_blocks(&self) -> usize {
        self.changed.len()
    }
}

/// Computes the delta in the legacy owned-block representation: re-hashes the base and
/// copies every changed block, as the data plane did before deltas became views.
#[cfg(test)]
fn compute_delta_owned(base: &[u8], new: &[u8], block_size: usize) -> OwnedDiffDelta {
    assert!(block_size > 0, "block size must be positive");
    let base_hashes: Vec<u64> = base.chunks(block_size).map(block_hash).collect();
    let mut changed = Vec::new();
    for (idx, block) in new.chunks(block_size).enumerate() {
        let unchanged = base_hashes.get(idx).is_some_and(|&h| {
            h == block_hash(block) && {
                let start = idx * block_size;
                let end = (start + block.len()).min(base.len());
                &base[start..end] == block
            }
        });
        if !unchanged {
            changed.push((idx, block.to_vec()));
        }
    }
    OwnedDiffDelta {
        block_size,
        new_len: new.len(),
        changed,
    }
}

/// Applies a legacy owned-block delta to `base`.
#[cfg(test)]
fn apply_delta_owned(base: &[u8], delta: &OwnedDiffDelta) -> Vec<u8> {
    let mut out = base.to_vec();
    out.resize(delta.new_len, 0);
    for (idx, block) in &delta.changed {
        let start = idx * delta.block_size;
        let end = (start + block.len()).min(delta.new_len);
        out[start..end].copy_from_slice(&block[..end - start]);
    }
    out.truncate(delta.new_len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_payloads_produce_empty_delta() {
        let data = vec![7u8; 10_000];
        let payload: Payload = data.clone().into();
        let d = compute_delta(&data, &payload, 512);
        assert_eq!(d.changed_blocks(), 0);
        assert_eq!(d.bytes_to_write(), 0);
        assert_eq!(apply_delta(&data, &d), data);
    }

    #[test]
    fn single_byte_change_touches_one_block() {
        let base = vec![0u8; 4096];
        let mut new = base.clone();
        new[1000] = 42;
        let new: Payload = new.into();
        let d = compute_delta(&base, &new, 256);
        assert_eq!(d.changed_blocks(), 1);
        assert_eq!(d.changed[0].0, 1000 / 256);
        assert_eq!(d.changed_block(0), &new[768..1024]);
        assert_eq!(apply_delta(&base, &d), new.to_vec());
    }

    #[test]
    fn delta_blocks_are_views_not_copies() {
        let base = vec![0u8; 4096];
        let mut new = base.clone();
        new[0] = 1;
        new[4095] = 2;
        let new: Payload = new.into();
        let d = compute_delta(&base, &new, 1024);
        assert_eq!(d.changed_blocks(), 2);
        assert!(d.payload.same_buffer(&new), "delta must share the payload");
        assert_eq!(d.bytes_to_write(), 2048);
    }

    #[test]
    fn growth_and_shrink_are_handled() {
        let base = vec![1u8; 1000];
        let grown: Payload = vec![2u8; 1500].into();
        let d = compute_delta(&base, &grown, 256);
        assert_eq!(apply_delta(&base, &d), grown.to_vec());

        let shrunk: Payload = vec![1u8; 600].into();
        let d = compute_delta(&base, &shrunk, 256);
        assert_eq!(apply_delta(&base, &d), shrunk.to_vec());
    }

    #[test]
    fn empty_base_writes_everything() {
        let new: Payload = vec![9u8; 777].into();
        let d = compute_delta(&[], &new, 128);
        assert_eq!(d.bytes_to_write(), 777);
        assert_eq!(apply_delta(&[], &d), new.to_vec());
    }

    #[test]
    fn cached_hashes_give_the_same_delta() {
        let base: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
        let mut new = base.clone();
        new[100] ^= 0xFF;
        new[40_000] ^= 0xFF;
        let new: Payload = new.into();
        let uncached = compute_delta(&base, &new, 1024);
        let base_hashes = block_hashes(&base, 1024);
        let (cached, new_hashes) = compute_delta_cached(&base, &base_hashes, &new, 1024);
        assert_eq!(uncached, cached);
        // The returned hashes are exactly the new payload's block hashes, ready to be
        // the base hashes of the next round.
        assert_eq!(new_hashes, block_hashes(&new, 1024));
        // Chaining: a third payload diffed against `new` via the cache must agree with
        // the uncached computation.
        let mut third = new.to_vec();
        third[999] ^= 1;
        let third: Payload = third.into();
        let (chained, _) = compute_delta_cached(&new, &new_hashes, &third, 1024);
        assert_eq!(chained, compute_delta(&new, &third, 1024));
    }

    #[test]
    fn delta_write_volume_is_much_smaller_for_sparse_updates() {
        let base: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let mut new = base.clone();
        for i in (0..new.len()).step_by(20_000) {
            new[i] ^= 0xFF;
        }
        let new: Payload = new.into();
        let d = compute_delta(&base, &new, 4096);
        assert!(d.bytes_to_write() < base.len() / 2);
        assert_eq!(apply_delta(&base, &d), new.to_vec());
    }

    #[test]
    fn block_hashes_length() {
        assert_eq!(block_hashes(&[0; 10], 4).len(), 3);
        assert_eq!(block_hashes(&[], 4).len(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_block_size_panics() {
        let _ = compute_delta(&[1], &vec![2u8].into(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Applying the delta computed between any two payloads always reproduces the
        /// new payload, for any block size.
        #[test]
        fn delta_round_trips(
            base in proptest::collection::vec(any::<u8>(), 0..4000),
            new in proptest::collection::vec(any::<u8>(), 0..4000),
            block_size in 1usize..512,
        ) {
            let payload: Payload = new.clone().into();
            let delta = compute_delta(&base, &payload, block_size);
            prop_assert_eq!(apply_delta(&base, &delta), new.clone());
            // The delta never writes more than the (block-aligned) size of the new payload.
            prop_assert!(delta.bytes_to_write() <= new.len().div_ceil(block_size.max(1)) * block_size);
        }

        /// The range-based delta is equivalent to the legacy owned-block oracle: same
        /// changed blocks, same bytes, same write volume, same applied result — and the
        /// cached-hash path agrees with both.
        #[test]
        fn range_delta_matches_owned_oracle(
            base in proptest::collection::vec(any::<u8>(), 0..4000),
            new in proptest::collection::vec(any::<u8>(), 0..4000),
            block_size in 1usize..512,
        ) {
            let payload: Payload = new.clone().into();
            let ranged = compute_delta(&base, &payload, block_size);
            let owned = compute_delta_owned(&base, &new, block_size);

            prop_assert_eq!(ranged.changed_blocks(), owned.changed_blocks());
            prop_assert_eq!(ranged.bytes_to_write(), owned.bytes_to_write());
            for (i, (idx, block)) in owned.changed.iter().enumerate() {
                prop_assert_eq!(ranged.changed[i].0, *idx);
                prop_assert_eq!(ranged.changed_block(i), &block[..]);
            }
            prop_assert_eq!(apply_delta(&base, &ranged), apply_delta_owned(&base, &owned));

            let base_hashes = block_hashes(&base, block_size);
            let (cached, _) = compute_delta_cached(&base, &base_hashes, &payload, block_size);
            prop_assert_eq!(cached, ranged);
        }
    }
}
