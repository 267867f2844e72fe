//! Protected data objects.
//!
//! FTI asks the application to tell it which data objects must be saved for the
//! execution to be resumable — in C by passing a pointer and a size to `FTI_Protect`.
//! The Rust equivalent is the [`Protectable`] trait: a protected object appends its
//! bytes to the checkpoint buffer and restores itself from bytes. Implementations are
//! provided for the buffer types the MATCH proxy applications use (`Vec<f64>`,
//! `Vec<u64>`, `Vec<i64>`, and scalar `f64`/`u64`).

use mpisim::datatype::{self, Word};

/// A data object that can be checkpointed and restored.
pub trait Protectable {
    /// Size of the serialized representation in bytes.
    fn byte_len(&self) -> usize;
    /// Appends the serialized representation — [`Protectable::byte_len`] bytes — to
    /// `out`.
    fn append_bytes(&self, out: &mut Vec<u8>);
    /// Restores the object from bytes previously appended by
    /// [`Protectable::append_bytes`].
    fn restore_from(&mut self, bytes: &[u8]);
}

impl<T: Word> Protectable for Vec<T> {
    fn byte_len(&self) -> usize {
        self.len() * 8
    }
    fn append_bytes(&self, out: &mut Vec<u8>) {
        datatype::pack_into(self, out);
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        datatype::unpack_into(bytes, self);
    }
}

/// Scalars are checkpointed as their 8 little-endian bytes, written straight into the
/// buffer.
macro_rules! scalar_protectable {
    ($($t:ty),*) => {$(
        impl Protectable for $t {
            fn byte_len(&self) -> usize {
                8
            }
            fn append_bytes(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&Word::to_le(*self));
            }
            fn restore_from(&mut self, bytes: &[u8]) {
                let bytes = bytes.try_into().expect("scalar payload must be 8 bytes");
                *self = <$t as Word>::from_le(bytes);
            }
        }
    )*};
}

scalar_protectable!(f64, u64);

/// The bytes `object` appends to an empty buffer.
#[cfg(test)]
pub(crate) fn bytes_of(object: &dyn Protectable) -> Vec<u8> {
    let mut out = Vec::new();
    object.append_bytes(&mut out);
    out
}

/// How a protected object's bytes relate to the global problem, which decides what
/// happens to them when a shrinking recovery removes ranks from the world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectLayout {
    /// Per-rank state with no global decomposition (scalars, counters, whole-array
    /// copies). On a world shrink every survivor keeps its own copy and the dead
    /// ranks' copies are dropped.
    Replicated,
    /// One contiguous block of a globally partitioned array: the job holds
    /// `total_units` indivisible units of `unit_bytes` bytes each, block-distributed
    /// over the communicator (see [`block_range`]). On a world shrink the survivors
    /// re-partition the units and redistribute the bytes as real messages.
    Block {
        /// Global number of units across the whole communicator.
        total_units: u64,
        /// Serialized size of one unit in bytes.
        unit_bytes: usize,
    },
}

/// The `[start, start + count)` unit range owned by `part` of `parts` under the
/// canonical block distribution: every part holds `total / parts` units and the first
/// `total % parts` parts hold one extra. This is the same formula the proxy
/// applications use for their domain decompositions, so a redistributed checkpoint
/// slice lands exactly where the restarted application expects it.
pub fn block_range(total_units: u64, parts: usize, part: usize) -> (u64, u64) {
    assert!(
        part < parts,
        "partition index {part} out of range ({parts})"
    );
    let parts = parts as u64;
    let part = part as u64;
    let base = total_units / parts;
    let extra = total_units % parts;
    let start = part * base + part.min(extra);
    let count = base + u64::from(part < extra);
    (start, count)
}

/// The part whose [`block_range`] block holds unit `unit` (which must be below
/// `total_units`): the inverse of [`block_range`].
pub(crate) fn part_of_unit(total_units: u64, parts: usize, unit: u64) -> usize {
    let parts = parts as u64;
    let (base, extra) = (total_units / parts, total_units % parts);
    // The first `extra` parts hold `base + 1` units each.
    let long_units = extra * (base + 1);
    let part = if unit < long_units {
        unit / (base + 1)
    } else {
        // Past the long parts `base` is positive, since `unit < total_units`.
        extra + (unit - long_units) / base
    };
    part as usize
}

/// Metadata describing a protected object, registered through `Fti::protect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectedObject {
    /// Application-chosen identifier (the `id` argument of `FTI_Protect`).
    pub id: u32,
    /// Human-readable name, used by reports and the dependency-analysis tooling.
    pub name: String,
    /// Size of the object's serialized representation at registration time, in bytes.
    pub bytes: usize,
    /// The object's global layout (replicated per-rank state, or a block of a
    /// partitioned array that can be redistributed after a shrink).
    pub layout: ObjectLayout,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_f64_round_trip() {
        let original = vec![1.5, -2.25, 1e300];
        let mut restored = vec![0.0; 1];
        restored.restore_from(&bytes_of(&original));
        assert_eq!(restored, original);
        assert_eq!(original.byte_len(), 24);
    }

    #[test]
    fn vec_u64_and_i64_round_trip() {
        let u = vec![1u64, u64::MAX];
        let mut u2: Vec<u64> = vec![];
        u2.restore_from(&bytes_of(&u));
        assert_eq!(u2, u);

        let i = vec![-5i64, i64::MAX];
        let mut i2: Vec<i64> = vec![];
        i2.restore_from(&bytes_of(&i));
        assert_eq!(i2, i);
    }

    #[test]
    fn append_bytes_appends_exactly_byte_len_little_endian_bytes() {
        let objects: [(&dyn Protectable, Vec<u8>); 5] = [
            (
                &vec![1.5f64, -0.0],
                [1.5f64.to_le_bytes(), (-0.0f64).to_le_bytes()].concat(),
            ),
            (
                &vec![7u64, u64::MAX],
                [7u64.to_le_bytes(), [0xFF; 8]].concat(),
            ),
            (&vec![-9i64], (-9i64).to_le_bytes().to_vec()),
            (&2.5f64, 2.5f64.to_le_bytes().to_vec()),
            (&11u64, 11u64.to_le_bytes().to_vec()),
        ];
        for (o, want) in objects {
            let mut out = vec![0xAA];
            o.append_bytes(&mut out);
            assert_eq!(out[0], 0xAA, "append must not touch what is already there");
            assert_eq!(out[1..], want);
            assert_eq!(out.len() - 1, o.byte_len());
        }
    }

    #[test]
    fn scalars_round_trip() {
        let x = 3.75f64;
        let mut y = 0.0f64;
        y.restore_from(&bytes_of(&x));
        assert_eq!(y, x);

        let a = 42u64;
        let mut b = 0u64;
        b.restore_from(&bytes_of(&a));
        assert_eq!(b, a);
        assert_eq!(a.byte_len(), 8);
    }

    #[test]
    fn restore_resizes_target() {
        let original = vec![1.0, 2.0, 3.0, 4.0];
        let mut target = vec![9.0; 100];
        target.restore_from(&bytes_of(&original));
        assert_eq!(target.len(), 4);
    }

    #[test]
    fn block_range_tiles_the_domain_for_any_part_count() {
        for total in [0u64, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 7, 8, 13] {
                let mut next = 0u64;
                for part in 0..parts {
                    let (start, count) = block_range(total, parts, part);
                    assert_eq!(start, next, "parts must tile contiguously");
                    next = start + count;
                }
                assert_eq!(next, total, "parts must cover exactly the domain");
                for part in 0..parts {
                    let (start, count) = block_range(total, parts, part);
                    for unit in start..start + count {
                        assert_eq!(part_of_unit(total, parts, unit), part, "unit {unit}");
                    }
                }
                // Balanced: counts differ by at most one unit.
                let counts: Vec<u64> = (0..parts).map(|p| block_range(total, parts, p).1).collect();
                let min = counts.iter().min().unwrap();
                let max = counts.iter().max().unwrap();
                assert!(max - min <= 1);
            }
        }
    }
}
