//! Where wait channels live, and how ranks on several worker threads wait on them.
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
//! Every bucket holds one channel per **lane**. `coop` has one lane; `par` has one
//! per worker and parks a rank on its owner's lane, on cache lines no other worker's
//! parks write. What a channel *is* — a plain waiter list, or an eventcount — is the
//! backend's business (the type parameter).
//!
//! # The eventcount: waiting across worker threads
//!
//! On one thread, `coop`'s check-then-park is atomic by construction, and its channels
//! are plain `Vec<Waiter>` lists. Across threads it is not: between a rank observing
//! "message not there yet" and parking, another thread can deposit the message and
//! issue the wakeup — which would find nobody parked and be lost. [`Eventcount`] is
//! what `par` parks on, one lane per worker; a wake hands the waiters it takes off a
//! channel to `ParShared::deliver`, which pushes them onto their owner's run queue.
//!
//! **Where `seq` lives.** Each [`Channel`] holds `seq` (bumped by every wake),
//! `parked` (waiters listed or about to be) and the waiter list behind a mutex. A
//! [`WaitToken`] is two atomic loads — the cluster-wide wake epoch and the channel's
//! `seq` — taken *before* the rank checks its wait condition. Channels live as long as
//! the job and `seq` only ever grows; there is nothing to create, look up or forget.
//!
//! **The pairing.** All four accesses are `SeqCst`, so they have one total order:
//!
//! ```text
//! park:  parked += 1     then   validate seq == token.seq  (and epoch == token.epoch)
//! wake:  seq    += 1     then   read parked                (epoch += 1 for wake-all)
//! ```
//!
//! Either the park's increment precedes the wake's read — the wake sees `parked > 0`,
//! takes the list lock and drains — or it follows it, and then the wake's bump
//! precedes the park's validation, which fails: the park returns without suspending
//! and the rank re-checks its condition (which the waker changed *before* bumping).
//! The validation and the push happen under the list lock, so a wake that does take
//! the lock either finds the waiter listed or runs before the validation and
//! invalidates it. A wake of a channel nobody is parked on is one `fetch_add` and one
//! load; no lock, no hash.
//!
//! **Collisions and address reuse are harmless.** Two keys in one bucket share `seq`:
//! a wake of one can at worst refuse a park on the other (which re-checks and parks
//! again), and it drains only waiters carrying its own key. An object freed and
//! another allocated at its address continue one channel: a token taken for the old
//! object still validates only if no wake came in between, in which case nothing was
//! there to lose.
//!
//! **Which channels are padded.** Object channels are per lane and cache-line
//! aligned: the 512 parks a `par` worker issues in one collective round of a 1024-rank
//! job write `parked` and the list of its own lane only, and a wake hands a lane's
//! whole batch to its drain at once. Mailbox channels need neither lanes nor padding —
//! only the mailbox's owner ever parks there, so a channel's lines move between cores
//! exactly when a message edge does.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;

use crate::time::SimTime;

use super::par::ParShared;
use super::{WaitKey, WaitToken};

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

/// One wait channel shared by worker threads: an eventcount (see the module docs for the
/// pairing argument).
#[derive(Default)]
pub(crate) struct Channel {
    /// Bumped by every wake of the channel, before the wake reads `parked`.
    seq: AtomicU64,
    /// Waiters on the list plus ranks between announcing and validating their park.
    parked: AtomicUsize,
    waiters: Mutex<Vec<Waiter>>,
}

/// The wait channels of one job whose ranks park from several worker threads, plus the
/// cluster-wide wake epoch (see the module docs).
pub(crate) struct Eventcount {
    channels: ChannelTable<Channel>,
    /// Bumped by [`Eventcount::wake_all`] *before* it reads any channel's `parked`, so
    /// a token issued before the bump can never park after it.
    epoch: AtomicU64,
}

impl Eventcount {
    pub(crate) fn new(nprocs: usize, lanes: usize) -> Eventcount {
        Eventcount {
            channels: ChannelTable::new(nprocs, lanes),
            epoch: AtomicU64::new(0),
        }
    }

    /// Snapshots the eventcount of the channel a rank of `lane` would park on for
    /// `key`; must precede the caller's condition check.
    pub(crate) fn wait_token(&self, key: WaitKey, lane: usize) -> WaitToken {
        let epoch = self.epoch.load(Ordering::SeqCst);
        let seq = self.channels.channel(key, lane).seq.load(Ordering::SeqCst);
        WaitToken { key, epoch, seq }
    }

    /// Lists `rank` (of `lane`) as a waiter of the token's channel — unless the token
    /// no longer validates: a wake raced the caller's condition check, and this returns
    /// `false`. Count first, validate second: the order the wake's "bump, then read
    /// `parked`" pairs with.
    pub(crate) fn enlist(&self, rank: usize, lane: usize, token: WaitToken, now: SimTime) -> bool {
        let chan = self.channels.channel(token.key, lane);
        chan.parked.fetch_add(1, Ordering::SeqCst);
        let mut waiters = chan.waiters.lock();
        if chan.seq.load(Ordering::SeqCst) != token.seq
            || self.epoch.load(Ordering::SeqCst) != token.epoch
        {
            chan.parked.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        waiters.push(Waiter {
            key: token.key,
            rank,
            clock: now.as_secs().to_bits(),
        });
        true
    }

    /// Wakes every rank parked on `key`, invalidating in-flight tokens first: on the
    /// lane of the mailbox's owner, or on every lane of an object key.
    pub(crate) fn wake(&self, key: WaitKey, to: &ParShared) {
        let lanes = match key.mailbox_rank().map(|rank| to.owner(rank)) {
            Some(owner) => owner..owner + 1,
            None => 0..self.channels.lanes,
        };
        for lane in lanes {
            let chan = self.channels.channel(key, lane);
            chan.seq.fetch_add(1, Ordering::SeqCst);
            self.drain(chan, lane, |waiter| waiter == key, to);
        }
    }

    /// Wakes every parked rank but those parked on `spared`, after invalidating every
    /// in-flight token at once.
    pub(crate) fn wake_all(&self, spared: Option<WaitKey>, to: &ParShared) {
        // Epoch first: it is the `seq` bump of every channel at once. A token read
        // before this line can no longer park after it, closing the race with ranks
        // mid-way between condition check and park. That also turns away a rank about
        // to park on the spared key, which merely re-checks its condition.
        self.epoch.fetch_add(1, Ordering::SeqCst);
        for (rank, chan) in self.channels.mailboxes().iter().enumerate() {
            self.drain(chan, to.owner(rank), |_| true, to);
        }
        for (lane, chan) in self.channels.objects() {
            self.drain(chan, lane, |waiter| Some(waiter) != spared, to);
        }
    }

    /// Every listed waiter: what a deadlock diagnosis reports.
    pub(crate) fn listed(&self) -> Vec<Waiter> {
        (self.channels.iter())
            .flat_map(|chan| chan.waiters.lock().clone())
            .collect()
    }

    /// Hands the waiters of `chan` that `select` picks to `to`, under the list lock.
    fn drain(&self, chan: &Channel, lane: usize, select: impl Fn(WaitKey) -> bool, to: &ParShared) {
        if chan.parked.load(Ordering::SeqCst) == 0 {
            return;
        }
        let mut waiters = chan.waiters.lock();
        if waiters.is_empty() {
            // Only ranks still validating: they will see what the caller bumped.
            return;
        }
        let listed = waiters.len();
        to.deliver(lane, |wake| {
            waiters.retain(|&waiter| {
                let woken = select(waiter.key);
                if woken {
                    wake(waiter);
                }
                !woken
            });
        });
        chan.parked
            .fetch_sub(listed - waiters.len(), Ordering::SeqCst);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::time::Duration;

    use crate::sched::par::tests::{assert_delivered, park_until_woken, running_job};
    use crate::sched::JobWaker;

    /// Two object keys that share a bucket.
    pub(crate) fn colliding_keys() -> (WaitKey, WaitKey) {
        let a = WaitKey(8 << 10);
        let b = (1..)
            .map(|i| WaitKey((8 << 10) + 8 * i))
            .find(|k| k.bucket() == a.bucket())
            .expect("64 buckets");
        (a, b)
    }

    /// Nothing listed and nothing about to be, on any channel of `events`.
    pub(crate) fn assert_settled(events: &Eventcount) {
        for chan in events.channels.iter() {
            assert_eq!(chan.parked.load(Ordering::SeqCst), 0);
            assert!(chan.waiters.lock().is_empty());
        }
    }

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

    // ----- eventcount stress: real threads, no fibers --------------------------------

    const ROUNDS: u64 = 100_000;

    /// A waker that serves every round alone.
    const EVERY: (u64, u64) = (0, 1);

    /// Spins until `cond` holds. A lost wake is a hang; the deadline turns it into a
    /// failure that names what was being waited for.
    #[allow(clippy::disallowed_types, reason = "host deadline of a stress test")]
    pub(crate) fn spin_until(what: impl Fn() -> String, cond: impl Fn() -> bool) {
        let now = std::time::Instant::now;
        let deadline = now() + Duration::from_secs(30);
        for spins in 0u64.. {
            if cond() {
                return;
            }
            // Busy first — the two sides must meet within nanoseconds for the race to
            // be a race — then polite: there are more threads than cores.
            if spins % 256 == 255 {
                assert!(now() < deadline, "gave up waiting for {}", what());
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
    }

    /// One waiter/waker pair's shared condition: the round the waker has announced and
    /// the round the waiter has seen.
    #[derive(Default)]
    struct Rounds {
        announced: AtomicU64,
        seen: AtomicU64,
    }

    /// The blocking side of every operation: token, check, park — for [`ROUNDS`]
    /// rounds. Returns how many parks validated; each must be delivered exactly once.
    fn wait_rounds(job: &ParShared, rank: usize, key: WaitKey, rounds: &Rounds) -> u64 {
        let mut parks = 0;
        for round in 1..=ROUNDS {
            loop {
                let token = job.wait_token(rank, key);
                if rounds.announced.load(Ordering::SeqCst) >= round {
                    break;
                }
                parks += u64::from(park_until_woken(job, rank, token));
            }
            rounds.seen.store(round, Ordering::SeqCst);
        }
        parks
    }

    /// The publishing side: change the condition, then wake — in every round, or in
    /// every `of`-th when `of` wakers take turns.
    fn wake_rounds(rounds: &Rounds, (turn, of): (u64, u64), wake: impl Fn()) {
        for round in (1..=ROUNDS).filter(|round| round % of == turn) {
            spin_until(
                || format!("the waiter to see round {}", round - 1),
                || rounds.seen.load(Ordering::SeqCst) >= round - 1,
            );
            // Sweep the publication across the waiter's token-check-park sequence.
            for step in 0..round % 256 {
                std::hint::black_box(step);
            }
            rounds.announced.fetch_max(round, Ordering::SeqCst);
            wake();
        }
    }

    #[test]
    fn a_mailbox_channel_loses_no_wake_to_three_wakers_taking_turns() {
        let job = running_job(4, 2);
        let key = WaitKey::mailbox(2);
        let rounds = Rounds::default();
        let parks = std::thread::scope(|scope| {
            for turn in 0..3 {
                let (job, rounds) = (&job, &rounds);
                scope.spawn(move || wake_rounds(rounds, (turn, 3), || job.wake(key)));
            }
            wait_rounds(&job, 2, key, &rounds)
        });
        assert_delivered(&job, parks);
    }

    #[test]
    fn two_keys_in_one_bucket_lose_no_wake_and_take_none_of_each_others() {
        let queues = running_job(4, 2);
        let (a, b) = colliding_keys();
        let (rounds_a, rounds_b) = (Rounds::default(), Rounds::default());
        // Ranks 0 and 1 share worker 0, so both waiters park on one lane's channel.
        let parks = std::thread::scope(|scope| {
            scope.spawn(|| wake_rounds(&rounds_a, EVERY, || queues.wake(a)));
            scope.spawn(|| wake_rounds(&rounds_b, EVERY, || queues.wake(b)));
            let on_b = scope.spawn(|| wait_rounds(&queues, 1, b, &rounds_b));
            wait_rounds(&queues, 0, a, &rounds_a) + on_b.join().expect("waiter on b")
        });
        assert_delivered(&queues, parks);
    }

    #[test]
    fn wake_all_except_races_parks_on_the_spared_and_on_other_keys() {
        let queues = running_job(4, 2);
        let (spared, other) = colliding_keys();
        let mailbox = WaitKey::mailbox(3);
        // One broadcaster serves the mailbox and the object waiter; the spared key
        // needs a waker of its own, because no broadcast ever wakes it.
        let (bcast_mailbox, bcast_other, on_spared) =
            (Rounds::default(), Rounds::default(), Rounds::default());
        let wake_all = || queues.wake_all_except(spared);
        let parks = std::thread::scope(|scope| {
            let queues = &queues;
            scope.spawn(|| wake_rounds(&bcast_mailbox, EVERY, wake_all));
            scope.spawn(|| wake_rounds(&bcast_other, EVERY, wake_all));
            scope.spawn(|| wake_rounds(&on_spared, EVERY, || queues.wake(spared)));
            let a = scope.spawn(|| wait_rounds(queues, 3, mailbox, &bcast_mailbox));
            let b = scope.spawn(|| wait_rounds(queues, 1, other, &bcast_other));
            wait_rounds(queues, 0, spared, &on_spared)
                + a.join().expect("mailbox waiter")
                + b.join().expect("object waiter")
        });
        assert_delivered(&queues, parks);
    }
}
