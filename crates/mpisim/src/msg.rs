//! Message representation for simulated point-to-point communication, and the
//! shared-buffer [`Payload`] type used across the simulated I/O stack.

use std::ops::{Deref, Range};
use std::sync::Arc;

use crate::time::SimTime;

/// An immutable, cheaply cloneable byte buffer backed by a reference-counted shared
/// allocation.
///
/// `Payload` is the zero-copy currency of the simulator's data plane: messages,
/// checkpoint blobs, Reed–Solomon shards and differential-checkpoint views all hold
/// `Payload`s. Cloning a `Payload` bumps a reference count; [`Payload::slice`] produces
/// a view into the same allocation without copying; converting an owned `Vec<u8>` into
/// a `Payload` *moves* the vector behind the `Arc` without copying its bytes. Only
/// conversion from a borrowed `&[u8]` copies — which also guarantees that later
/// mutation of a borrowed source buffer can never alias stored data.
///
/// ```
/// use mpisim::Payload;
///
/// // An owned vector moves behind the shared allocation without copying.
/// let payload: Payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8].into();
///
/// // Clones and sub-slices are views of the same buffer, not copies.
/// let clone = payload.clone();
/// let half = payload.slice(4..8);
/// assert!(clone.same_buffer(&payload));
/// assert!(half.same_buffer(&payload));
/// assert_eq!(half.as_slice(), &[5, 6, 7, 8]);
///
/// // Payloads compare by content, wherever their views start.
/// assert_eq!(payload.slice(0..2), Payload::from(&[1u8, 2][..]));
/// ```
#[derive(Clone)]
pub struct Payload {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// An empty payload.
    pub fn empty() -> Self {
        Payload {
            buf: Arc::new(Vec::new()),
            start: 0,
            end: 0,
        }
    }

    /// Builds a payload by concatenating `parts` into one shared buffer (a single
    /// allocation and one copy of the bytes, regardless of how often the result or its
    /// sub-slices are subsequently cloned).
    pub fn concat<S: AsRef<[u8]>>(parts: &[S]) -> Self {
        let total: usize = parts.iter().map(|p| p.as_ref().len()).sum();
        let mut flat = Vec::with_capacity(total);
        for p in parts {
            flat.extend_from_slice(p.as_ref());
        }
        Payload::from(flat)
    }

    /// The bytes of this payload.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A cheap sub-slice view into the same shared buffer (no bytes are copied).
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds or decreasing.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "payload slice {range:?} out of bounds (len {})",
            self.len()
        );
        Payload {
            buf: Arc::clone(&self.buf),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies the payload's bytes into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether `self` and `other` are views into the same shared allocation (used by
    /// tests to prove that the data plane did not copy).
    pub fn same_buffer(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Takes back the owned buffer, without copying, when this payload is the only
    /// view of the whole of it; otherwise returns the payload intact. A sub-slice, or
    /// a payload whose buffer a clone or another slice still shares, is `Err`: a buffer
    /// is handed out for reuse only when nobody can observe it any more.
    ///
    /// ```
    /// use mpisim::Payload;
    ///
    /// let payload = Payload::from(vec![1u8, 2, 3]);
    /// let view = payload.slice(0..2);
    /// let payload = payload.try_into_vec().expect_err("a view is still alive");
    /// drop(view);
    /// assert_eq!(payload.try_into_vec(), Ok(vec![1, 2, 3]));
    /// ```
    pub fn try_into_vec(self) -> Result<Vec<u8>, Payload> {
        self.into_unique_buffer()
            .map(|buf| Arc::into_inner(buf).expect("a unique buffer has one owner"))
    }

    /// The shared buffer itself when this payload is its only view and spans all of
    /// it — the ownership test behind [`Payload::try_into_vec`] and
    /// [`SpareBuffers::recycle`].
    fn into_unique_buffer(self) -> Result<Arc<Vec<u8>>, Payload> {
        let Payload {
            mut buf,
            start,
            end,
        } = self;
        if start == 0 && end == buf.len() && Arc::get_mut(&mut buf).is_some() {
            Ok(buf)
        } else {
            Err(Payload { buf, start, end })
        }
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Payload {
            buf: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::from(v.to_vec())
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Payload")
            .field("len", &self.len())
            .field("shared", &(Arc::strong_count(&self.buf) > 1))
            .finish()
    }
}

/// A rank's spare message buffers: typed sends pack into them, and typed receives
/// return the buffers of the payloads they decoded, so that a steady exchange of
/// typed messages allocates nothing.
///
/// Only a payload that is the sole view of its whole buffer is taken back; a shared
/// one — a collective's output, a checkpoint blob, a payload its sender still holds —
/// is never unique, and nobody can observe a buffer that is.
#[derive(Debug, Default)]
pub(crate) struct SpareBuffers {
    bufs: Vec<Arc<Vec<u8>>>,
}

impl SpareBuffers {
    /// At most this many buffers are kept ...
    const MAX_BUFFERS: usize = 2;
    /// ... of at most this capacity each.
    const MAX_BYTES: usize = 64 << 10;

    /// A payload of the bytes `fill` appends to an empty spare buffer, or to a fresh
    /// one when none is spare.
    pub(crate) fn payload(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> Payload {
        let mut buf = self.bufs.pop().unwrap_or_default();
        let bytes = Arc::get_mut(&mut buf).expect("a spare buffer has no other owner");
        bytes.clear();
        fill(bytes);
        let end = bytes.len();
        Payload { buf, start: 0, end }
    }

    /// Keeps `payload`'s buffer for a later [`SpareBuffers::payload`] if it is the only
    /// view of the whole buffer and there is room for it; drops it otherwise.
    pub(crate) fn recycle(&mut self, payload: Payload) {
        if self.bufs.len() < Self::MAX_BUFFERS && payload.buf.capacity() <= Self::MAX_BYTES {
            if let Ok(buf) = payload.into_unique_buffer() {
                self.bufs.push(buf);
            }
        }
    }
}

/// A point-to-point message in flight between two ranks.
#[derive(Debug, Clone)]
pub struct Message {
    /// Global rank of the sender.
    pub src: usize,
    /// Application tag.
    pub tag: i32,
    /// Identifier of the communicator the message was sent on.
    pub comm_id: u64,
    /// Shared payload bytes (see [`crate::datatype`] for typed packing helpers).
    pub payload: Payload,
    /// Virtual time at which the sender posted the message.
    pub sent_at: SimTime,
}

impl Message {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Returns true if this message matches the given receive selector.
    ///
    /// `src` and `tag` of `None` act as `MPI_ANY_SOURCE` / `MPI_ANY_TAG`.
    pub fn matches(&self, comm_id: u64, src: Option<usize>, tag: Option<i32>) -> bool {
        self.comm_id == comm_id
            && src.is_none_or(|s| s == self.src)
            && tag.is_none_or(|t| t == self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message {
            src: 3,
            tag: 7,
            comm_id: 1,
            payload: vec![1, 2, 3].into(),
            sent_at: SimTime::from_secs(1.0),
        }
    }

    #[test]
    fn matching_rules() {
        let m = msg();
        assert!(m.matches(1, Some(3), Some(7)));
        assert!(m.matches(1, None, Some(7)));
        assert!(m.matches(1, Some(3), None));
        assert!(m.matches(1, None, None));
        assert!(!m.matches(2, None, None));
        assert!(!m.matches(1, Some(4), None));
        assert!(!m.matches(1, None, Some(8)));
    }

    #[test]
    fn length() {
        let m = msg();
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn payload_clone_shares_the_buffer() {
        let p: Payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8].into();
        let q = p.clone();
        assert!(p.same_buffer(&q));
        assert_eq!(p, q);
    }

    #[test]
    fn payload_slice_is_a_view() {
        let p: Payload = (0u8..100).collect::<Vec<u8>>().into();
        let s = p.slice(10..20);
        assert!(s.same_buffer(&p));
        assert_eq!(s.as_slice(), &(10u8..20).collect::<Vec<u8>>()[..]);
        assert_eq!(s.len(), 10);
        // Sub-slicing a sub-slice composes offsets.
        let s2 = s.slice(5..10);
        assert!(s2.same_buffer(&p));
        assert_eq!(s2.as_slice(), &(15u8..20).collect::<Vec<u8>>()[..]);
        // Empty slices are fine.
        assert!(p.slice(0..0).is_empty());
    }

    #[test]
    #[should_panic]
    fn payload_slice_out_of_bounds_panics() {
        let p: Payload = vec![1u8, 2, 3].into();
        let _ = p.slice(2..4);
    }

    #[test]
    fn payload_concat_single_buffer() {
        let parts: Vec<Vec<u8>> = vec![vec![1, 2], vec![], vec![3, 4, 5]];
        let p = Payload::concat(&parts);
        assert_eq!(p, vec![1, 2, 3, 4, 5]);
        // Views of the concatenation share its buffer.
        assert!(p.slice(0..2).same_buffer(&p));
    }

    #[test]
    fn payload_is_isolated_from_its_source() {
        // Mutating the source buffer after conversion must not affect the payload.
        let mut src = [9u8; 16];
        let p = Payload::from(&src[..]);
        src.fill(0);
        assert_eq!(src[0], 0);
        assert_eq!(p, vec![9u8; 16]);
    }

    #[test]
    fn spare_buffers_take_back_only_unshared_whole_small_buffers() {
        let mut spares = SpareBuffers::default();
        let sent = spares.payload(|out| out.extend_from_slice(&[1, 2, 3]));
        assert_eq!(sent, vec![1, 2, 3]);
        let held = sent.clone();
        spares.recycle(sent); // another view is alive
        spares.recycle(Payload::from(vec![0u8; 8]).slice(0..4)); // part of a buffer
        spares.recycle(Payload::from(vec![0u8; SpareBuffers::MAX_BYTES + 1]));
        assert!(spares.bufs.is_empty());

        let address = held.as_ptr();
        spares.recycle(held);
        let reused = spares.payload(|out| out.push(9));
        assert_eq!(reused, vec![9]);
        assert_eq!(reused.as_ptr(), address, "the spare buffer is reused");

        for _ in 0..=SpareBuffers::MAX_BUFFERS {
            spares.recycle(Payload::from(vec![0u8; 8]));
        }
        assert_eq!(spares.bufs.len(), SpareBuffers::MAX_BUFFERS);
    }

    #[test]
    fn try_into_vec_takes_back_only_the_sole_view_of_a_whole_buffer() {
        // The only view of its buffer, but not all of it.
        let slice = Payload::from(vec![1u8, 2, 3, 4]).slice(1..3);
        let slice = slice
            .try_into_vec()
            .expect_err("a slice is not the whole buffer");
        assert_eq!(slice, vec![2u8, 3], "the refused view is returned intact");

        let payload = Payload::from(vec![4u8, 5, 6, 7]);
        let address = payload.as_ptr();
        let view = payload.slice(0..2);
        let payload = payload
            .try_into_vec()
            .expect_err("a slice still shares the buffer");
        drop(view);
        let clone = payload.clone();
        let clone = clone.try_into_vec().expect_err("the original is alive");
        assert_eq!(clone, vec![4u8, 5, 6, 7]);
        assert!(clone.same_buffer(&payload));
        drop(clone);

        let owned = payload.try_into_vec().expect("the sole whole view");
        assert_eq!(owned, vec![4, 5, 6, 7]);
        assert_eq!(
            owned.as_ptr(),
            address,
            "the buffer is handed back, not copied"
        );
        assert_eq!(Payload::empty().try_into_vec(), Ok(Vec::new()));
    }

    #[test]
    fn payload_equality_ignores_offsets() {
        let a: Payload = vec![5u8, 6, 7].into();
        let b: Payload = vec![0u8, 5, 6, 7, 0].into();
        assert_eq!(a, b.slice(1..4));
        assert!(!a.same_buffer(&b));
    }
}
