//! Conversions between typed slices and the raw byte payloads carried by messages.
//!
//! Simulated messages carry `Vec<u8>` payloads. Applications almost always want to
//! exchange `f64`, `u64` or `i64` data; these helpers perform the (little-endian)
//! packing and unpacking, and are also used by the checkpoint library to serialize
//! protected buffers.

/// An element type of the slice helpers: `f64`, `u64` or `i64`, each carried as its
/// 8 little-endian bytes.
pub trait Word: Copy {
    /// The value's little-endian bytes.
    fn to_le(self) -> [u8; 8];
    /// The value whose little-endian bytes are `bytes`.
    fn from_le(bytes: [u8; 8]) -> Self;
}

impl Word for f64 {
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 8]) -> Self {
        f64::from_le_bytes(bytes)
    }
}

impl Word for u64 {
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 8]) -> Self {
        u64::from_le_bytes(bytes)
    }
}

impl Word for i64 {
    fn to_le(self) -> [u8; 8] {
        self.to_le_bytes()
    }
    fn from_le(bytes: [u8; 8]) -> Self {
        i64::from_le_bytes(bytes)
    }
}

/// Appends the little-endian bytes of `values` to `out`: the one packing routine
/// behind every typed message and every serialised checkpoint buffer.
///
/// ```
/// use mpisim::datatype::{pack_into, unpack_into};
/// let xs = [1.0, -2.5, 3.75];
/// let mut bytes = Vec::new();
/// pack_into(&xs, &mut bytes);
/// let mut out: Vec<f64> = Vec::new();
/// unpack_into(&bytes, &mut out);
/// assert_eq!(out, xs);
/// ```
pub fn pack_into<T: Word>(values: &[T], out: &mut Vec<u8>) {
    // One reservation, then one `extend` over the bytes: faster than an
    // `extend_from_slice` per element, and no slower for checkpoint-sized buffers.
    out.reserve(values.len() * 8);
    out.extend(values.iter().flat_map(|v| v.to_le()));
}

/// Replaces the contents of `out` with the values `bytes` encodes, keeping the
/// allocation of `out`.
///
/// # Panics
///
/// Panics if the byte length is not a multiple of 8.
pub fn unpack_into<T: Word>(bytes: &[u8], out: &mut Vec<T>) {
    assert!(
        bytes.len().is_multiple_of(8),
        "payload length {} is not a multiple of 8",
        bytes.len()
    );
    out.clear();
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| T::from_le(c.try_into().expect("chunk of 8"))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn pack<T: Word>(values: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        pack_into(values, &mut out);
        out
    }

    pub(super) fn unpack<T: Word>(bytes: &[u8]) -> Vec<T> {
        let mut out = Vec::new();
        unpack_into(bytes, &mut out);
        out
    }

    #[test]
    fn f64_round_trip() {
        let xs = vec![0.0, 1.5, -2.25, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(unpack::<f64>(&pack(&xs)), xs);
    }

    #[test]
    fn u64_round_trip() {
        let xs = vec![0, 1, u64::MAX, 42];
        assert_eq!(unpack::<u64>(&pack(&xs)), xs);
    }

    #[test]
    fn i64_round_trip() {
        let xs = vec![0, -1, i64::MIN, i64::MAX];
        assert_eq!(unpack::<i64>(&pack(&xs)), xs);
    }

    #[test]
    fn scalar_round_trip() {
        // A one-element slice is exactly the value's 8 little-endian bytes.
        assert_eq!(pack(&[3.25f64]), 3.25f64.to_le_bytes());
        assert_eq!(unpack::<f64>(&pack(&[3.25f64])), [3.25]);
        assert_eq!(unpack::<u64>(&pack(&[99u64])), [99]);
    }

    #[test]
    fn empty_slices() {
        assert!(pack::<f64>(&[]).is_empty());
        assert!(unpack::<f64>(&[]).is_empty());
        assert!(unpack::<u64>(&[]).is_empty());
    }

    #[test]
    #[should_panic]
    fn misaligned_payload_panics() {
        let _ = unpack::<f64>(&[1, 2, 3]);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{pack, unpack};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Packing and unpacking is lossless for every supported element type.
        #[test]
        fn pack_unpack_round_trips(
            floats in proptest::collection::vec(any::<f64>().prop_filter("no NaN", |x| !x.is_nan()), 0..100),
            unsigned in proptest::collection::vec(any::<u64>(), 0..100),
            signed in proptest::collection::vec(any::<i64>(), 0..100),
        ) {
            let wire: Vec<u8> = floats.iter().flat_map(|v| v.to_le_bytes()).collect();
            prop_assert_eq!(pack(&floats), wire);
            prop_assert_eq!(unpack::<f64>(&pack(&floats)), floats.clone());
            prop_assert_eq!(unpack::<u64>(&pack(&unsigned)), unsigned.clone());
            prop_assert_eq!(unpack::<i64>(&pack(&signed)), signed.clone());
        }
    }
}
