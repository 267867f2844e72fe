//! The rendezvous engine behind collective operations.
//!
//! Every communicator owns a [`CollSlot`]. A collective operation is executed as a
//! *rendezvous round*: each member deposits its contribution (an arbitrary `Send`
//! value) together with its current virtual time; the last member to arrive — the
//! *finisher* — runs a *finish* closure that combines all contributions into **one
//! shared output** and computes the common completion time (`max` of the entry times
//! plus the modelled collective cost). The output is produced once, whatever the
//! group size: a member that needs only its own part of it (a scatter chunk, a prefix
//! sum) projects it out after the round, outside the slot lock.
//!
//! **The finisher delivers.** Under the slot lock it already holds, the finisher puts
//! `(completion time, output)` into a per-member delivery cell for every other
//! member, opens the next round at once and wakes the waiters — one wake per round. A
//! woken member takes its own cell without touching the slot lock again, so a member
//! locks the slot once per round. Rounds do not drain: a fast member may deposit into
//! round *n+1* while a slow one has not yet taken its round-*n* cell, and that is
//! safe because round *n+1* cannot complete — and overwrite the cell — before the
//! slow member has deposited into it, which it does only after taking the cell.
//!
//! A waiting member polls a caller-supplied `abort_check`, so members blocked in a
//! collective whose peers have failed observe the failure (ULFM semantics) instead of
//! hanging. **The cell comes first:** a round whose members all deposited always
//! completes, so a member that finds its cell filled returns the round's result even
//! if a failure transition woke it; only a member whose cell is still empty under the
//! slot lock withdraws its contribution and reports the abort.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::MpiError;
use crate::sched::WaitToken;
use crate::time::SimTime;

/// Type-erased contribution values deposited into a rendezvous.
pub type AnyBox = Box<dyn Any + Send>;

/// The type-erased output of a rendezvous round, shared by all its members.
pub type AnyArc = Arc<dyn Any + Send + Sync>;

/// How a member blocked inside [`CollSlot::run_with_wait`] waits for its round to
/// complete — the point where the scheduler backend plugs into the rendezvous engine.
#[derive(Clone, Copy)]
pub enum SlotWait<'a> {
    /// Thread backend: block on the slot's internal condition variable, with a long
    /// timeout as a pure fallback (failure transitions wake waiters explicitly).
    Condvar,
    /// Fiber backends (`coop`/`par`): `prepare` snapshots the slot's wait channel
    /// *before* the member checks its delivery cell, `park` suspends the calling task
    /// until woken (or returns immediately if a wake invalidated the token), and
    /// `wake` is invoked by the finisher once every cell is filled. No timeouts exist
    /// on this path: the finisher's wake follows the cells it announces, and
    /// cluster-wide transitions invalidate prepared tokens, so no wakeup can be lost.
    Park {
        /// Snapshots the slot's wait channel (before the checks the park guards).
        prepare: &'a dyn Fn() -> WaitToken,
        /// Suspends the calling task (called with the slot lock released). The flag
        /// says whether this wait already suspended before — a wake that did not end
        /// it — and the result whether the task was actually suspended.
        park: &'a dyn Fn(WaitToken, bool) -> bool,
        /// Wakes every task parked on this slot.
        wake: &'a dyn Fn(),
    },
}

/// What a completed round hands each member: the common completion time and the
/// round's one output.
type Delivery = (SimTime, AnyArc);

/// The round members are currently depositing into.
struct RoundState {
    deposited: usize,
    /// Per-member (entry time, declared cost, contribution).
    contributions: Vec<Option<(SimTime, SimTime, AnyBox)>>,
}

/// A reusable rendezvous slot for a fixed group of members.
pub struct CollSlot {
    state: Mutex<RoundState>,
    /// Per-member delivery cells (see the module docs): filled by the finisher under
    /// the state lock, emptied by the member alone.
    cells: Vec<Mutex<Option<Delivery>>>,
    cv: Condvar,
    /// Threads blocked on `cv` (thread backend only). Counted under the state lock,
    /// and a finisher reads it after filling the cells under that lock, so the
    /// notification is skipped exactly when nobody sleeps: on the fiber backends the
    /// condition variable is never touched.
    cv_waiters: AtomicUsize,
}

impl std::fmt::Debug for CollSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let undelivered = self.cells.iter().filter(|c| c.lock().is_some()).count();
        f.debug_struct("CollSlot")
            .field("nmembers", &self.nmembers())
            .field("deposited", &self.state.lock().deposited)
            .field("undelivered", &undelivered)
            .finish()
    }
}

/// Fallback timeout between abort-condition re-checks while waiting. Failure, revoke
/// and abort transitions wake waiters explicitly (see [`CollSlot::wake_all`]), so this
/// only bounds the delay of a lost race between checking and sleeping; it is long
/// enough that idle members no longer burn the host CPU with wake-ups.
const POLL_INTERVAL: Duration = Duration::from_millis(5);

impl CollSlot {
    /// Creates a slot for a group of `nmembers` members.
    ///
    /// # Panics
    ///
    /// Panics if `nmembers` is zero.
    pub fn new(nmembers: usize) -> Self {
        assert!(nmembers > 0, "a collective needs at least one member");
        CollSlot {
            state: Mutex::new(RoundState {
                deposited: 0,
                contributions: (0..nmembers).map(|_| None).collect(),
            }),
            cells: (0..nmembers).map(|_| Mutex::new(None)).collect(),
            cv: Condvar::new(),
            cv_waiters: AtomicUsize::new(0),
        }
    }

    /// Number of members expected in every round.
    pub fn nmembers(&self) -> usize {
        self.cells.len()
    }

    /// Executes one rendezvous round for member `member`.
    ///
    /// * `now` — the member's virtual time on entry.
    /// * `cost` — the modelled cost of the collective as seen by this member; the
    ///   completion time is `max(entry times) + max(declared costs)`, which keeps the
    ///   result deterministic even when members declare different payload sizes (e.g. a
    ///   broadcast root versus its receivers).
    /// * `contribution` — this member's type-erased input.
    /// * `finish` — run exactly once per round, by the last member to deposit; receives
    ///   all contributions ordered by member index and returns the round's one output.
    /// * `abort_check` — polled while waiting; returning `Some(err)` makes this member
    ///   abandon the round with `Err(err)` (used for failure notification).
    ///
    /// Returns the common completion time and the round's shared output.
    ///
    /// # Errors
    ///
    /// Returns whatever error `abort_check` produced, or [`MpiError::Internal`] if a
    /// member index was out of range or used twice in one round.
    pub fn run(
        &self,
        member: usize,
        now: SimTime,
        cost: SimTime,
        contribution: AnyBox,
        finish: impl FnOnce(Vec<(SimTime, AnyBox)>) -> AnyArc,
        abort_check: impl FnMut() -> Option<MpiError>,
    ) -> Result<(SimTime, AnyArc), MpiError> {
        self.run_with_wait(
            member,
            now,
            cost,
            contribution,
            finish,
            abort_check,
            SlotWait::Condvar,
        )
    }

    /// Like [`CollSlot::run`], but with an explicit waiting strategy — the scheduler
    /// backends differ only in how a member blocks (condvar versus cooperative park),
    /// never in the rendezvous logic itself.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`CollSlot::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_with_wait(
        &self,
        member: usize,
        now: SimTime,
        cost: SimTime,
        contribution: AnyBox,
        finish: impl FnOnce(Vec<(SimTime, AnyBox)>) -> AnyArc,
        mut abort_check: impl FnMut() -> Option<MpiError>,
        wait: SlotWait<'_>,
    ) -> Result<(SimTime, AnyArc), MpiError> {
        let nmembers = self.nmembers();
        if member >= nmembers {
            return Err(MpiError::Internal(format!(
                "collective member index {member} out of range ({nmembers})"
            )));
        }
        let mut st = self.state.lock();
        if st.contributions[member].is_some() {
            return Err(MpiError::Internal(format!(
                "member {member} deposited twice in the same collective round"
            )));
        }
        st.contributions[member] = Some((now, cost, contribution));
        st.deposited += 1;

        if st.deposited == nmembers {
            // Last to arrive: combine, deliver, open the next round, wake.
            let mut max_entry = SimTime::ZERO;
            let mut max_cost = SimTime::ZERO;
            let contribs: Vec<(SimTime, AnyBox)> = st
                .contributions
                .iter_mut()
                .map(|c| {
                    let (entry, cost, value) = c.take().expect("all contributions present");
                    max_entry = max_entry.max(entry);
                    max_cost = max_cost.max(cost);
                    (entry, value)
                })
                .collect();
            let delivery = (max_entry + max_cost, finish(contribs));
            for (_, cell) in (self.cells.iter().enumerate()).filter(|&(m, _)| m != member) {
                *cell.lock() = Some(delivery.clone());
            }
            st.deposited = 0;
            drop(st);
            // After the unlock, so woken members find the slot free for the next
            // round. Nothing is lost by that: a waiter checks its cell after preparing
            // its token (fibers) or under the state lock it sleeps on (threads), and
            // every cell was filled before this line.
            match wait {
                SlotWait::Condvar => self.wake_all(),
                SlotWait::Park { wake, .. } => wake(),
            }
            return Ok(delivery);
        }

        // Wait for the finisher. A condvar waiter keeps the state lock between its
        // checks and its sleep; a fiber gives it up for good and is covered by the
        // token it prepares before each pass instead.
        let mut st = match wait {
            SlotWait::Condvar => Some(st),
            SlotWait::Park { .. } => {
                drop(st);
                None
            }
        };
        let mut suspended_before = false;
        loop {
            let token = match wait {
                SlotWait::Park { prepare, .. } => Some(prepare()),
                SlotWait::Condvar => None,
            };
            if let Some(delivery) = self.cells[member].lock().take() {
                return Ok(delivery);
            }
            if let Some(err) = abort_check() {
                let mut st = st.unwrap_or_else(|| self.state.lock());
                // The round may have completed since the check above: under the lock
                // the cell is final, and a completed round is never reported aborted.
                if let Some(delivery) = self.cells[member].lock().take() {
                    return Ok(delivery);
                }
                // Withdraw our contribution so a later repair/reset starts clean.
                if st.contributions[member].take().is_some() {
                    st.deposited -= 1;
                }
                return Err(err);
            }
            match (wait, &mut st) {
                (SlotWait::Park { park, .. }, _) => {
                    let token = token.expect("fiber waits prepare a token");
                    suspended_before |= park(token, suspended_before);
                }
                (SlotWait::Condvar, Some(st)) => {
                    self.cv_waiters.fetch_add(1, Ordering::SeqCst);
                    self.cv.wait_for(st, POLL_INTERVAL);
                    self.cv_waiters.fetch_sub(1, Ordering::SeqCst);
                }
                (SlotWait::Condvar, None) => unreachable!("condvar waiters keep the lock"),
            }
        }
    }

    /// Wakes every thread blocked inside [`CollSlot::run`] without changing any
    /// state. Called when a cluster-wide condition (failure, revoke, abort) changes,
    /// so waiting members run their `abort_check` promptly instead of discovering the
    /// condition on their next poll timeout.
    pub fn wake_all(&self) {
        if self.cv_waiters.load(Ordering::SeqCst) > 0 {
            self.cv.notify_all();
        }
    }

    /// Forcibly resets the slot to an empty collecting state.
    ///
    /// Used when a communicator is repaired after a failure: contributions from the
    /// aborted round are discarded. Must only be called when no member is blocked
    /// inside [`CollSlot::run`] (the recovery protocol guarantees this by first driving
    /// every rank out of its pending operations).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.deposited = 0;
        st.contributions.fill_with(|| None);
        for cell in &self.cells {
            *cell.lock() = None;
        }
        self.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f(member)` on `n` threads and returns their results.
    fn run_members<R: Send + 'static>(
        n: usize,
        f: impl Fn(usize) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let f = Arc::new(f);
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f(i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// A finish closure summing `u64` contributions into the round's shared output.
    fn sum_u64(contribs: Vec<(SimTime, AnyBox)>) -> AnyArc {
        let total: u64 = contribs
            .iter()
            .map(|(_, v)| *v.downcast_ref::<u64>().unwrap())
            .sum();
        Arc::new(total)
    }

    #[test]
    fn single_member_round_completes_immediately() {
        let slot = CollSlot::new(1);
        let (t, out) = slot
            .run(
                0,
                SimTime::from_secs(1.0),
                SimTime::from_secs(0.5),
                Box::new(41u64),
                |mut contribs| {
                    let (_, v) = contribs.pop().unwrap();
                    Arc::new(*v.downcast::<u64>().unwrap() + 1)
                },
                || None,
            )
            .unwrap();
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(*out.downcast::<u64>().unwrap(), 42);
        // The lone member is every round's finisher: the next round is open at once.
        let (_, out) = slot
            .run(0, t, SimTime::ZERO, Box::new(7u64), sum_u64, || None)
            .unwrap();
        assert_eq!(*out.downcast::<u64>().unwrap(), 7);
        assert!(format!("{slot:?}").contains("deposited: 0, undelivered: 0"));
    }

    #[test]
    fn sum_across_threads_is_produced_once_and_shared() {
        let slot = Arc::new(CollSlot::new(4));
        let results = run_members(4, move |i| {
            let slot = Arc::clone(&slot);
            let (t, out) = slot
                .run(
                    i,
                    SimTime::from_secs(i as f64),
                    SimTime::from_secs(1.0),
                    Box::new(i as u64),
                    sum_u64,
                    || None,
                )
                .unwrap();
            (t.as_secs(), out.downcast::<u64>().unwrap())
        });
        for (t, sum) in &results {
            // max entry time is 3.0, cost 1.0.
            assert_eq!(*t, 4.0);
            assert_eq!(**sum, 6);
            assert!(
                Arc::ptr_eq(sum, &results[0].1),
                "every member must hold the one output the finisher produced"
            );
        }
    }

    #[test]
    fn consecutive_rounds_do_not_mix() {
        let slot = Arc::new(CollSlot::new(3));
        let results = run_members(3, move |i| {
            let slot = Arc::clone(&slot);
            let mut sums = Vec::new();
            for round in 0..5u64 {
                let (_, out) = slot
                    .run(
                        i,
                        SimTime::from_secs(round as f64),
                        SimTime::ZERO,
                        Box::new(round * 10 + i as u64),
                        sum_u64,
                        || None,
                    )
                    .unwrap();
                sums.push(*out.downcast::<u64>().unwrap());
            }
            sums
        });
        for sums in results {
            assert_eq!(sums, vec![3, 33, 63, 93, 123]);
        }
    }

    #[test]
    fn abort_check_unblocks_waiting_member() {
        let slot = Arc::new(CollSlot::new(2));
        let slot2 = Arc::clone(&slot);
        // Member 0 enters alone and aborts after a few polls; member 1 never arrives.
        let handle = std::thread::spawn(move || {
            let mut polls = 0;
            slot2.run(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(()),
                |_| Arc::new(()),
                move || {
                    polls += 1;
                    if polls > 3 {
                        Some(MpiError::ProcFailed { rank: 1 })
                    } else {
                        None
                    }
                },
            )
        });
        let res = handle.join().unwrap();
        assert_eq!(res.unwrap_err(), MpiError::ProcFailed { rank: 1 });
        // The aborting member withdrew its contribution, leaving a clean slot.
        assert!(format!("{slot:?}").contains("deposited: 0"));
        // After a reset the slot is reusable.
        slot.reset();
        assert!(format!("{slot:?}").contains("undelivered: 0"));
    }

    #[test]
    fn out_of_range_member_is_rejected() {
        let slot = CollSlot::new(2);
        let err = slot
            .run(
                5,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(()),
                |_| Arc::new(()),
                || None,
            )
            .unwrap_err();
        assert!(matches!(err, MpiError::Internal(_)));
    }

    #[test]
    fn reset_clears_partial_round() {
        let slot = Arc::new(CollSlot::new(2));
        let slot2 = Arc::clone(&slot);
        let t = std::thread::spawn(move || {
            let mut polls = 0;
            let _ = slot2.run(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(1u8),
                |_| Arc::new(0u8),
                move || {
                    polls += 1;
                    (polls > 2).then_some(MpiError::Revoked)
                },
            );
        });
        t.join().unwrap();
        slot.reset();
        assert!(format!("{slot:?}").contains("deposited: 0"));
    }

    // ----- the fiber protocol, interleaved by hand ------------------------------------

    use crate::sched::WaitKey;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// What a scripted member tells the test.
    #[derive(Debug, PartialEq)]
    enum Event {
        Parked(usize),
        Woke,
    }

    /// One member's side of a scripted fiber backend: `park` reports to the test and
    /// blocks until the test resumes the member, `wake` only reports — so the test,
    /// not the host scheduler, decides who runs when.
    struct Member<'a> {
        slot: &'a CollSlot,
        index: usize,
        events: Sender<Event>,
        resume: Receiver<()>,
        abort: &'a AtomicBool,
    }

    impl Member<'_> {
        fn round(&self, value: u64) -> Result<u64, MpiError> {
            let key = WaitKey::object(self.slot);
            let round = self.slot.run_with_wait(
                self.index,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(value),
                sum_u64,
                || {
                    self.abort
                        .load(Ordering::SeqCst)
                        .then_some(MpiError::Revoked)
                },
                SlotWait::Park {
                    prepare: &|| WaitToken::immediate(key),
                    park: &|_, _| {
                        self.events.send(Event::Parked(self.index)).unwrap();
                        self.resume
                            .recv()
                            .expect("the test resumes every parked member");
                        true
                    },
                    wake: &|| self.events.send(Event::Woke).unwrap(),
                },
            );
            round.map(|(_, out)| *out.downcast::<u64>().unwrap())
        }
    }

    /// A two-member slot with both members scripted; returns the members, the test's
    /// ends of their resume channels and the event stream.
    fn scripted<'a>(
        slot: &'a CollSlot,
        abort: &'a AtomicBool,
    ) -> ([Member<'a>; 2], [Sender<()>; 2], Receiver<Event>) {
        let (events, stream) = channel();
        let (resume_a, a) = channel();
        let (resume_b, b) = channel();
        let member = |index, resume| Member {
            slot,
            index,
            events: events.clone(),
            resume,
            abort,
        };
        ([member(0, a), member(1, b)], [resume_a, resume_b], stream)
    }

    #[test]
    fn a_fast_member_deposits_into_the_next_round_before_a_slow_one_took_its_cell() {
        let (slot, abort) = (CollSlot::new(2), AtomicBool::new(false));
        let ([a, b], [resume_a, resume_b], events) = scripted(&slot, &abort);
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || [a.round(1), a.round(2)]);
            assert_eq!(events.recv(), Ok(Event::Parked(0)));
            // The fast member finishes round 1 and is back, depositing into round 2,
            // while the slow member's round-1 cell is still full.
            let fast = scope.spawn(move || [b.round(10), b.round(20)]);
            assert_eq!(events.recv(), Ok(Event::Woke));
            assert_eq!(events.recv(), Ok(Event::Parked(1)));
            assert!(format!("{slot:?}").contains("deposited: 1, undelivered: 1"));
            // The slow member takes round 1's output, not a mix, and finishes round 2.
            resume_a.send(()).unwrap();
            assert_eq!(events.recv(), Ok(Event::Woke));
            assert_eq!(slow.join().unwrap(), [Ok(11), Ok(22)]);
            resume_b.send(()).unwrap();
            assert_eq!(fast.join().unwrap(), [Ok(11), Ok(22)]);
        });
        assert!(format!("{slot:?}").contains("deposited: 0, undelivered: 0"));
    }

    #[test]
    fn a_member_woken_by_a_transition_as_its_round_completes_gets_the_result() {
        let (slot, abort) = (CollSlot::new(2), AtomicBool::new(false));
        let ([a, b], [resume_a, _resume_b], events) = scripted(&slot, &abort);
        std::thread::scope(|scope| {
            let parked = scope.spawn(move || a.round(1));
            assert_eq!(events.recv(), Ok(Event::Parked(0)));
            // The round completes and the abort condition turns true before the
            // parked member runs again: the cell comes first.
            assert_eq!(b.round(10), Ok(11));
            abort.store(true, Ordering::SeqCst);
            resume_a.send(()).unwrap();
            assert_eq!(parked.join().unwrap(), Ok(11));
        });
        // The same instant, one step later: the member has already seen its cell
        // empty and the abort condition true when the finisher delivers. Under the
        // slot lock the cell is final, and it wins again.
        let key = WaitKey::object(&slot);
        let late_finisher = || {
            let delivered = slot.run(
                1,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(20u64),
                sum_u64,
                || None,
            );
            assert!(delivered.is_ok());
            Some(MpiError::Revoked)
        };
        let (_, out) = slot
            .run_with_wait(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(2u64),
                sum_u64,
                late_finisher,
                SlotWait::Park {
                    prepare: &|| WaitToken::immediate(key),
                    park: &|_, _| unreachable!("the first pass decides"),
                    wake: &|| (),
                },
            )
            .expect("a completed round is never reported aborted");
        assert_eq!(*out.downcast::<u64>().unwrap(), 22);
    }

    #[test]
    fn an_abort_while_parked_withdraws_and_a_reset_clears_undelivered_cells() {
        let (slot, abort) = (CollSlot::new(2), AtomicBool::new(false));
        let ([a, b], [resume_a, _resume_b], events) = scripted(&slot, &abort);
        let a = std::thread::scope(|scope| {
            let parked = scope.spawn(move || (a.round(1), a));
            assert_eq!(events.recv(), Ok(Event::Parked(0)));
            abort.store(true, Ordering::SeqCst);
            resume_a.send(()).unwrap();
            let (aborted, a) = parked.join().unwrap();
            assert_eq!(aborted, Err(MpiError::Revoked));
            a
        });
        assert!(format!("{slot:?}").contains("deposited: 0, undelivered: 0"));
        abort.store(false, Ordering::SeqCst);
        // A member that deposits and never runs again (its job died) leaves its cell
        // full once the round completes...
        drop(resume_a);
        let abandoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.round(1)));
        assert!(abandoned.is_err());
        assert_eq!(b.round(10), Ok(11));
        assert!(format!("{slot:?}").contains("deposited: 0, undelivered: 1"));
        // ...and the repair's reset empties it: the next round starts clean instead of
        // handing member 0 the dead round's output.
        slot.reset();
        assert!(format!("{slot:?}").contains("deposited: 0, undelivered: 0"));
        let slot = &slot;
        let sums: Vec<u64> = std::thread::scope(|scope| {
            let members: Vec<_> = (0..2)
                .map(|i| {
                    let sum = move || {
                        slot.run(
                            i,
                            SimTime::ZERO,
                            SimTime::ZERO,
                            Box::new(100u64),
                            sum_u64,
                            || None,
                        )
                    };
                    scope.spawn(sum)
                })
                .collect();
            let sum = |m: std::thread::ScopedJoinHandle<'_, Result<_, _>>| {
                let (_, out): (SimTime, AnyArc) = m.join().unwrap().unwrap();
                *out.downcast::<u64>().unwrap()
            };
            members.into_iter().map(sum).collect()
        });
        assert_eq!(sums, vec![200, 200]);
    }
}
