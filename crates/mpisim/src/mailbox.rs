//! Per-rank mailboxes holding in-flight point-to-point messages.
//!
//! Each rank owns one [`Mailbox`]. Senders push messages into the destination rank's
//! mailbox; the receiver scans its mailbox for the first message matching the
//! `(communicator, source, tag)` selector. Blocking receives are implemented by the
//! caller as a loop around [`Mailbox::match_or_wait`] (thread backend) or
//! [`Mailbox::try_match`] plus a fiber park, so that failure conditions can be
//! checked between attempts — this is how the simulator delivers ULFM-style failure
//! notifications to ranks blocked in communication.
//!
//! Matching from the middle of the queue used to shift every later message down
//! (`VecDeque::remove` is O(n)); the queue now uses *tombstones* instead: a matched
//! message is taken out of its slot in place, leading empty slots are popped eagerly,
//! and the queue is compacted only when more than half of it is tombstones. This keeps
//! removal O(1) amortized while preserving the relative order of the remaining
//! messages — MPI's non-overtaking rule for a given `(source, tag, communicator)`
//! triple.

use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::msg::Message;

/// Compact only queues at least this long (short queues shift cheaply anyway).
const COMPACT_MIN_LEN: usize = 32;

#[derive(Debug, Default)]
struct Slots {
    /// Message slots in arrival order; `None` marks a tombstone of a matched message.
    queue: VecDeque<Option<Message>>,
    /// Number of live (non-tombstone) messages.
    live: usize,
    /// Threads asleep in [`Mailbox::match_or_wait`] (thread backend only). The
    /// condition variable is notified only while this is nonzero, so on the fiber
    /// backends — whose receivers park on wait channels instead — a push costs no
    /// wake-up system call.
    sleepers: usize,
}

/// A thread-safe queue of messages addressed to one rank.
#[derive(Debug, Default)]
pub struct Mailbox {
    slots: Mutex<Slots>,
    cv: Condvar,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Delivers a message into the mailbox and wakes any waiting receiver.
    pub fn push(&self, msg: Message) {
        let mut s = self.slots.lock();
        s.queue.push_back(Some(msg));
        s.live += 1;
        self.notify(&s);
    }

    fn notify(&self, s: &Slots) {
        if s.sleepers > 0 {
            self.cv.notify_all();
        }
    }

    /// Removes and returns the first message matching the selector, preserving the
    /// order of the remaining messages (MPI's non-overtaking rule for a given
    /// `(source, tag, communicator)` triple).
    pub fn try_match(&self, comm_id: u64, src: Option<usize>, tag: Option<i32>) -> Option<Message> {
        Self::take_match(&mut self.slots.lock(), comm_id, src, tag)
    }

    /// Like [`Mailbox::try_match`], but when no queued message matches, atomically
    /// blocks (for at most `timeout`) until a new message is pushed or the mailbox is
    /// woken, then scans once more. The search and the wait happen under one lock, so
    /// a message pushed between them can never be missed — and, unlike a naive
    /// "wait while empty", a receiver is *not* woken over and over by queued messages
    /// that do not match its selector (that busy-spin used to dominate the host CPU
    /// whenever ranks held out-of-selector traffic, e.g. in halo exchanges).
    pub fn match_or_wait(
        &self,
        comm_id: u64,
        src: Option<usize>,
        tag: Option<i32>,
        timeout: Duration,
    ) -> Option<Message> {
        let mut s = self.slots.lock();
        if let Some(msg) = Self::take_match(&mut s, comm_id, src, tag) {
            return Some(msg);
        }
        s.sleepers += 1;
        self.cv.wait_for(&mut s, timeout);
        s.sleepers -= 1;
        Self::take_match(&mut s, comm_id, src, tag)
    }

    fn take_match(
        s: &mut parking_lot::MutexGuard<'_, Slots>,
        comm_id: u64,
        src: Option<usize>,
        tag: Option<i32>,
    ) -> Option<Message> {
        let pos = s
            .queue
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|m| m.matches(comm_id, src, tag)))?;
        let msg = s.queue[pos].take();
        s.live -= 1;
        // Drain leading tombstones so the common FIFO case never accumulates slots.
        while matches!(s.queue.front(), Some(None)) {
            s.queue.pop_front();
        }
        // Compact when tombstones dominate; `retain` keeps the relative order.
        if s.queue.len() >= COMPACT_MIN_LEN && s.live * 2 < s.queue.len() {
            s.queue.retain(Option::is_some);
        }
        msg
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.slots.lock().live
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wakes the thread blocked in [`Mailbox::match_or_wait`], if any, without
    /// delivering anything. Called when a condition its receive's abort predicate
    /// reads (a failure, the parking of its source, a revoke, an abort) changes, so it
    /// re-checks its health promptly instead of on its next poll timeout.
    pub fn wake_all(&self) {
        self.notify(&self.slots.lock());
    }

    /// Discards every queued message (used when a communicator is repaired after a
    /// failure: pending communication is dropped, matching ULFM revoke semantics).
    pub fn clear(&self) {
        let mut s = self.slots.lock();
        s.queue.clear();
        s.live = 0;
        self.notify(&s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn msg(src: usize, tag: i32, comm: u64) -> Message {
        Message {
            src,
            tag,
            comm_id: comm,
            payload: vec![0; 4].into(),
            sent_at: SimTime::ZERO,
        }
    }

    #[test]
    fn push_and_match() {
        let mb = Mailbox::new();
        assert!(mb.is_empty());
        mb.push(msg(1, 10, 0));
        mb.push(msg(2, 20, 0));
        assert_eq!(mb.len(), 2);
        let m = mb.try_match(0, Some(2), None).unwrap();
        assert_eq!(m.src, 2);
        assert_eq!(mb.len(), 1);
        assert!(mb.try_match(0, Some(2), None).is_none());
    }

    #[test]
    fn matching_respects_comm_and_tag() {
        let mb = Mailbox::new();
        mb.push(msg(1, 10, 0));
        assert!(mb.try_match(1, None, None).is_none());
        assert!(mb.try_match(0, None, Some(11)).is_none());
        assert!(mb.try_match(0, None, Some(10)).is_some());
    }

    #[test]
    fn fifo_order_for_same_selector() {
        let mb = Mailbox::new();
        let mut first = msg(1, 10, 0);
        first.payload = vec![1].into();
        let mut second = msg(1, 10, 0);
        second.payload = vec![2].into();
        mb.push(first);
        mb.push(second);
        assert_eq!(
            mb.try_match(0, Some(1), Some(10)).unwrap().payload,
            vec![1u8]
        );
        assert_eq!(
            mb.try_match(0, Some(1), Some(10)).unwrap().payload,
            vec![2u8]
        );
    }

    #[test]
    fn removal_from_the_middle_preserves_order() {
        // Interleave two selector streams, drain one from the middle, and check that
        // the other still comes out in arrival order (non-overtaking).
        let mb = Mailbox::new();
        for i in 0..4u8 {
            let mut a = msg(1, 10, 0);
            a.payload = vec![i].into();
            mb.push(a);
            let mut b = msg(2, 20, 0);
            b.payload = vec![100 + i].into();
            mb.push(b);
        }
        // Take one tag-20 message out of the middle: creates an interior tombstone.
        assert_eq!(mb.try_match(0, None, Some(20)).unwrap().payload, vec![100]);
        // ANY matches must still deliver the tag-10 stream in order.
        for i in 0..4u8 {
            assert_eq!(
                mb.try_match(0, Some(1), None).unwrap().payload,
                vec![i],
                "tag-10 stream reordered"
            );
        }
        // The remaining tag-20 messages are also still in order.
        for i in 1..4u8 {
            assert_eq!(
                mb.try_match(0, None, Some(20)).unwrap().payload,
                vec![100 + i]
            );
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn heavy_interior_churn_compacts_and_keeps_order() {
        let mb = Mailbox::new();
        // 128 alternating messages; drain all of tag 2 (interior removals), forcing
        // the tombstone compaction path, then verify tag 1 is intact and ordered.
        for i in 0..64u32 {
            let mut a = msg(1, 1, 0);
            a.payload = i.to_le_bytes().to_vec().into();
            mb.push(a);
            let mut b = msg(2, 2, 0);
            b.payload = i.to_le_bytes().to_vec().into();
            mb.push(b);
        }
        for _ in 0..64 {
            assert_eq!(mb.try_match(0, None, Some(2)).unwrap().src, 2);
        }
        assert_eq!(mb.len(), 64);
        for i in 0..64u32 {
            let m = mb.try_match(0, None, None).unwrap();
            assert_eq!(m.tag, 1);
            assert_eq!(m.payload, i.to_le_bytes().to_vec());
        }
        assert!(mb.is_empty());
    }

    #[test]
    fn clear_discards_everything() {
        let mb = Mailbox::new();
        mb.push(msg(1, 1, 0));
        mb.push(msg(2, 2, 0));
        mb.clear();
        assert!(mb.is_empty());
    }

    #[test]
    fn cross_thread_delivery() {
        use std::sync::Arc;
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let handle = std::thread::spawn(move || {
            mb2.push(msg(5, 1, 0));
        });
        handle.join().unwrap();
        assert_eq!(mb.try_match(0, Some(5), Some(1)).unwrap().src, 5);
    }
}
