//! Protected data objects.
//!
//! FTI asks the application to tell it which data objects must be saved for the
//! execution to be resumable — in C by passing a pointer and a size to `FTI_Protect`.
//! The Rust equivalent is the [`Protectable`] trait: a protected object can serialize
//! itself to bytes and restore itself from bytes. Implementations are provided for the
//! buffer types the MATCH proxy applications use (`Vec<f64>`, `Vec<u64>`, `Vec<i64>`,
//! `Vec<u8>`, and scalar `f64`/`u64`).

use mpisim::datatype;

/// A data object that can be checkpointed and restored.
pub trait Protectable {
    /// Serializes the object to bytes.
    fn to_bytes(&self) -> Vec<u8>;
    /// Restores the object from bytes previously produced by [`Protectable::to_bytes`].
    fn restore_from(&mut self, bytes: &[u8]);
    /// Size of the serialized representation in bytes.
    fn byte_len(&self) -> usize {
        self.to_bytes().len()
    }
    /// Appends the serialized representation — exactly the bytes of
    /// [`Protectable::to_bytes`] — to `out`. The buffer types override it to write
    /// straight into `out`, without the intermediate vector.
    fn append_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }
}

impl Protectable for Vec<f64> {
    fn to_bytes(&self) -> Vec<u8> {
        datatype::pack_f64(self)
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        datatype::unpack_into(bytes, self);
    }
    fn byte_len(&self) -> usize {
        self.len() * 8
    }
    fn append_bytes(&self, out: &mut Vec<u8>) {
        datatype::pack_into(self, out);
    }
}

impl Protectable for Vec<u64> {
    fn to_bytes(&self) -> Vec<u8> {
        datatype::pack_u64(self)
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        datatype::unpack_into(bytes, self);
    }
    fn byte_len(&self) -> usize {
        self.len() * 8
    }
    fn append_bytes(&self, out: &mut Vec<u8>) {
        datatype::pack_into(self, out);
    }
}

impl Protectable for Vec<i64> {
    fn to_bytes(&self) -> Vec<u8> {
        datatype::pack_i64(self)
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        datatype::unpack_into(bytes, self);
    }
    fn byte_len(&self) -> usize {
        self.len() * 8
    }
    fn append_bytes(&self, out: &mut Vec<u8>) {
        datatype::pack_into(self, out);
    }
}

impl Protectable for Vec<u8> {
    fn to_bytes(&self) -> Vec<u8> {
        self.clone()
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        *self = bytes.to_vec();
    }
    fn byte_len(&self) -> usize {
        self.len()
    }
    fn append_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl Protectable for f64 {
    fn to_bytes(&self) -> Vec<u8> {
        datatype::pack_f64_scalar(*self)
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        *self = datatype::unpack_f64_scalar(bytes);
    }
    fn byte_len(&self) -> usize {
        8
    }
}

impl Protectable for u64 {
    fn to_bytes(&self) -> Vec<u8> {
        datatype::pack_u64_scalar(*self)
    }
    fn restore_from(&mut self, bytes: &[u8]) {
        *self = datatype::unpack_u64_scalar(bytes);
    }
    fn byte_len(&self) -> usize {
        8
    }
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
        restored.restore_from(&original.to_bytes());
        assert_eq!(restored, original);
        assert_eq!(original.byte_len(), 24);
    }

    #[test]
    fn vec_u64_and_i64_round_trip() {
        let u = vec![1u64, u64::MAX];
        let mut u2: Vec<u64> = vec![];
        u2.restore_from(&u.to_bytes());
        assert_eq!(u2, u);

        let i = vec![-5i64, i64::MAX];
        let mut i2: Vec<i64> = vec![];
        i2.restore_from(&i.to_bytes());
        assert_eq!(i2, i);
    }

    #[test]
    fn raw_bytes_round_trip() {
        let b = vec![0u8, 255, 7];
        let mut b2: Vec<u8> = vec![];
        b2.restore_from(&b.to_bytes());
        assert_eq!(b2, b);
        assert_eq!(b.byte_len(), 3);
    }

    #[test]
    fn append_bytes_writes_exactly_the_bytes_of_to_bytes() {
        let objects: [&dyn Protectable; 6] = [
            &vec![1.5f64, -0.0, f64::NAN],
            &vec![7u64, u64::MAX],
            &vec![-9i64, i64::MIN],
            &vec![1u8, 2, 3],
            &2.5f64,
            &11u64,
        ];
        for o in objects {
            let mut out = vec![0xAA];
            o.append_bytes(&mut out);
            assert_eq!(out[0], 0xAA, "append must not touch what is already there");
            assert_eq!(out[1..], o.to_bytes());
            assert_eq!(out.len() - 1, o.byte_len());
        }
    }

    #[test]
    fn scalars_round_trip() {
        let x = 3.75f64;
        let mut y = 0.0f64;
        y.restore_from(&x.to_bytes());
        assert_eq!(y, x);

        let a = 42u64;
        let mut b = 0u64;
        b.restore_from(&a.to_bytes());
        assert_eq!(b, a);
        assert_eq!(a.byte_len(), 8);
    }

    #[test]
    fn restore_resizes_target() {
        let original = vec![1.0, 2.0, 3.0, 4.0];
        let mut target = vec![9.0; 100];
        target.restore_from(&original.to_bytes());
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
