//! Per-rank mailboxes holding in-flight point-to-point messages.
//!
//! Each rank owns one [`Mailbox`]. Senders push messages into the destination rank's
//! mailbox; the receiver scans its mailbox for the first message matching the
//! `(communicator, source, tag)` selector. The mailbox itself never blocks: a blocking
//! receive is the caller's loop around [`Mailbox::try_match`] plus a park on the
//! rank's mailbox wait channel, which every push to the rank wakes, so that failure
//! conditions can be checked between attempts — this is how the simulator delivers
//! ULFM-style failure notifications to ranks blocked in communication.
//!
//! Matching from the middle of the queue used to shift every later message down
//! (`VecDeque::remove` is O(n)); the queue now uses *tombstones* instead: a matched
//! message is taken out of its slot in place, leading empty slots are popped eagerly,
//! and the queue is compacted only when more than half of it is tombstones. This keeps
//! removal O(1) amortized while preserving the relative order of the remaining
//! messages — MPI's non-overtaking rule for a given `(source, tag, communicator)`
//! triple.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::msg::Message;

/// Compact only queues at least this long (short queues shift cheaply anyway).
const COMPACT_MIN_LEN: usize = 32;

#[derive(Debug, Default)]
struct Slots {
    /// Message slots in arrival order; `None` marks a tombstone of a matched message.
    queue: VecDeque<Option<Message>>,
    /// Number of live (non-tombstone) messages.
    live: usize,
}

/// A thread-safe queue of messages addressed to one rank.
#[derive(Debug, Default)]
pub struct Mailbox {
    slots: Mutex<Slots>,
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox::default()
    }

    /// Delivers a message into the mailbox (the sender then wakes the receiver's
    /// wait channel).
    pub fn push(&self, msg: Message) {
        let mut s = self.slots.lock();
        s.queue.push_back(Some(msg));
        s.live += 1;
    }

    /// Removes and returns the first message matching the selector, preserving the
    /// order of the remaining messages (MPI's non-overtaking rule for a given
    /// `(source, tag, communicator)` triple).
    pub fn try_match(&self, comm_id: u64, src: Option<usize>, tag: Option<i32>) -> Option<Message> {
        let mut s = self.slots.lock();
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

    /// Discards every queued message (used when a communicator is repaired after a
    /// failure: pending communication is dropped, matching ULFM revoke semantics).
    pub fn clear(&self) {
        let mut s = self.slots.lock();
        s.queue.clear();
        s.live = 0;
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
