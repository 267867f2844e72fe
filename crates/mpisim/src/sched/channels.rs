//! Where wait channels live: the one addressing scheme both fiber backends park and
//! wake through.
//!
//! A [`WaitKey`] is either a rank's mailbox or an object's address. Mailbox keys index
//! a per-rank array — no hash, no collision, and only the mailbox's owner ever parks
//! there. Object keys (collective slots, the survivor rendezvous, the failure-event
//! channel) are hashed into a fixed table of [`OBJECT_BUCKETS`] buckets; a bucket is
//! shared by every key that hashes to it, so each [`Waiter`] carries its key and a
//! wake filters by it. A job therefore never creates, looks up or forgets a channel:
//! an object dropped and another allocated at its address simply keep using the
//! bucket the address hashes to.
//!
//! Every bucket holds one channel per **lane**. `coop` has one lane; `par` has one per
//! worker and parks a rank on its owner's lane, on cache lines no other worker's parks
//! write. What a channel *is* — a plain waiter list, or an eventcount — is the
//! backend's business (the type parameter).

use super::WaitKey;

/// Number of hashed buckets object keys are spread over (a power of two).
pub(crate) const OBJECT_BUCKETS: usize = 64;

/// One parked rank: what it waits on, and the virtual clock bits that order it in its
/// run queue once woken.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Waiter {
    pub(crate) key: WaitKey,
    pub(crate) rank: usize,
    pub(crate) clock: u64,
}

impl Waiter {
    /// "rank r on key" for each of `stuck`, by rank: the body of a deadlock diagnosis.
    pub(crate) fn listing(mut stuck: Vec<Waiter>) -> String {
        stuck.sort_by_key(|w| w.rank);
        let lines: Vec<String> = stuck
            .iter()
            .map(|w| format!("rank {} on {:?}", w.rank, w.key))
            .collect();
        lines.join(", ")
    }
}

/// Keeps neighbouring lanes of a bucket off each other's cache lines (128 bytes: the
/// adjacent-line prefetcher pairs 64-byte lines).
#[repr(align(128))]
struct Padded<C>(C);

/// The channels of one job (see the module docs).
pub(crate) struct ChannelTable<C> {
    /// Per-rank mailbox channels, unpadded: only the owner parks there.
    mailboxes: Vec<C>,
    /// `OBJECT_BUCKETS * lanes` object channels, bucket-major.
    objects: Vec<Padded<C>>,
    lanes: usize,
}

impl WaitKey {
    /// The bucket an object key hashes to. The splitmix64 finalizer spreads
    /// address-derived keys (8-aligned, shared high bits) uniformly.
    pub(crate) fn bucket(self) -> usize {
        let mut h = self.0 as u64;
        h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        (h as usize) & (OBJECT_BUCKETS - 1)
    }
}

impl<C: Default> ChannelTable<C> {
    pub(crate) fn new(nprocs: usize, lanes: usize) -> Self {
        ChannelTable {
            mailboxes: (0..nprocs).map(|_| C::default()).collect(),
            objects: (0..OBJECT_BUCKETS * lanes)
                .map(|_| Padded(C::default()))
                .collect(),
            lanes,
        }
    }
}

impl<C> ChannelTable<C> {
    /// The channel a rank of `lane` parks on for `key` (a mailbox has one channel,
    /// whatever the lane).
    pub(crate) fn channel(&self, key: WaitKey, lane: usize) -> &C {
        match key.mailbox_rank() {
            Some(rank) => &self.mailboxes[rank],
            None => &self.objects[key.bucket() * self.lanes + lane].0,
        }
    }

    /// [`ChannelTable::channel`], exclusively.
    pub(crate) fn channel_mut(&mut self, key: WaitKey, lane: usize) -> &mut C {
        match key.mailbox_rank() {
            Some(rank) => &mut self.mailboxes[rank],
            None => &mut self.objects[key.bucket() * self.lanes + lane].0,
        }
    }

    /// The mailbox channels, indexed by rank.
    pub(crate) fn mailboxes(&self) -> &[C] {
        &self.mailboxes
    }

    /// Every object channel with its lane.
    pub(crate) fn objects(&self) -> impl Iterator<Item = (usize, &C)> {
        let lanes = self.lanes;
        self.objects
            .iter()
            .enumerate()
            .map(move |(i, c)| (i % lanes, &c.0))
    }

    /// Every channel.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &C> {
        self.mailboxes
            .iter()
            .chain(self.objects.iter().map(|c| &c.0))
    }

    /// Every channel, exclusively.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut C> {
        let objects = self.objects.iter_mut().map(|c| &mut c.0);
        self.mailboxes.iter_mut().chain(objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_keys_index_by_rank_and_object_keys_by_bucket_and_lane() {
        let mut table: ChannelTable<Vec<usize>> = ChannelTable::new(5, 3);
        assert_eq!(table.mailboxes().len(), 5);
        assert_eq!(table.objects().count(), OBJECT_BUCKETS * 3);
        for rank in 0..5 {
            // One mailbox channel per rank, whatever lane asks.
            table.channel_mut(WaitKey::mailbox(rank), 0).push(rank);
            assert_eq!(*table.channel(WaitKey::mailbox(rank), 2), vec![rank]);
        }
        let slot = 0u64;
        let key = WaitKey::object(&slot);
        table.channel_mut(key, 1).push(77);
        assert!(table.channel(key, 0).is_empty() && table.channel(key, 2).is_empty());
        let hits: Vec<usize> = table
            .objects()
            .filter(|(_, c)| !c.is_empty())
            .map(|(lane, _)| lane)
            .collect();
        assert_eq!(
            hits,
            vec![1],
            "an object channel reports the lane it serves"
        );
        assert_eq!(table.iter_mut().filter(|c| !c.is_empty()).count(), 6);
        assert!(WaitKey::FAILURE_EVENTS.bucket() < OBJECT_BUCKETS);
    }
}
