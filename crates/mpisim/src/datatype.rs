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

fn pack<T: Word>(values: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    pack_into(values, &mut out);
    out
}

/// Packs a slice of `f64` values into little-endian bytes.
///
/// ```
/// use mpisim::datatype::{pack_f64, unpack_into};
/// let xs = [1.0, -2.5, 3.75];
/// let mut out: Vec<f64> = Vec::new();
/// unpack_into(&pack_f64(&xs), &mut out);
/// assert_eq!(out, xs);
/// ```
pub fn pack_f64(values: &[f64]) -> Vec<u8> {
    pack(values)
}

/// Packs a slice of `u64` values into little-endian bytes.
pub fn pack_u64(values: &[u64]) -> Vec<u8> {
    pack(values)
}

/// Packs a slice of `i64` values into little-endian bytes.
pub fn pack_i64(values: &[i64]) -> Vec<u8> {
    pack(values)
}

/// Packs a single `f64` value.
pub fn pack_f64_scalar(value: f64) -> Vec<u8> {
    value.to_le_bytes().to_vec()
}

/// Unpacks a single `f64` value.
///
/// # Panics
///
/// Panics if the byte length is not exactly 8.
pub fn unpack_f64_scalar(bytes: &[u8]) -> f64 {
    assert_eq!(bytes.len(), 8, "scalar payload must be 8 bytes");
    f64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

/// Packs a single `u64` value.
pub fn pack_u64_scalar(value: u64) -> Vec<u8> {
    value.to_le_bytes().to_vec()
}

/// Unpacks a single `u64` value.
///
/// # Panics
///
/// Panics if the byte length is not exactly 8.
pub fn unpack_u64_scalar(bytes: &[u8]) -> u64 {
    assert_eq!(bytes.len(), 8, "scalar payload must be 8 bytes");
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn unpack<T: Word>(bytes: &[u8]) -> Vec<T> {
        let mut out = Vec::new();
        unpack_into(bytes, &mut out);
        out
    }

    #[test]
    fn f64_round_trip() {
        let xs = vec![0.0, 1.5, -2.25, f64::MAX, f64::MIN_POSITIVE];
        assert_eq!(unpack::<f64>(&pack_f64(&xs)), xs);
    }

    #[test]
    fn u64_round_trip() {
        let xs = vec![0, 1, u64::MAX, 42];
        assert_eq!(unpack::<u64>(&pack_u64(&xs)), xs);
    }

    #[test]
    fn i64_round_trip() {
        let xs = vec![0, -1, i64::MIN, i64::MAX];
        assert_eq!(unpack::<i64>(&pack_i64(&xs)), xs);
    }

    #[test]
    fn scalar_round_trip() {
        assert_eq!(unpack_f64_scalar(&pack_f64_scalar(3.25)), 3.25);
        assert_eq!(unpack_u64_scalar(&pack_u64_scalar(99)), 99);
    }

    #[test]
    fn empty_slices() {
        assert!(pack_f64(&[]).is_empty());
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
    use super::tests::unpack;
    use super::*;
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
            prop_assert_eq!(pack_f64(&floats), wire);
            prop_assert_eq!(unpack::<f64>(&pack_f64(&floats)), floats.clone());
            prop_assert_eq!(unpack::<u64>(&pack_u64(&unsigned)), unsigned.clone());
            prop_assert_eq!(unpack::<i64>(&pack_i64(&signed)), signed.clone());
        }
    }
}
