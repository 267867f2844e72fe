//! The rendezvous engine behind collective operations.
//!
//! Every communicator owns a [`CollSlot`]. A collective operation is executed as a
//! *rendezvous round*: each member deposits its contribution together with its current
//! virtual time; the last member to arrive — the *finisher* — folds all contributions,
//! in member order, into **one shared result** and computes the common completion time
//! (`max` of the entry times plus the modelled collective cost). The result is produced
//! once, whatever the group size, and every member receives a clone of it (a scalar, or
//! a shared reference to the broadcast root's payload, the reduced vector, the gathered
//! slices).
//!
//! **Typed cells.** For every contribution type its rounds use, a slot keeps one cell per
//! member, created the first time the type is seen. A member deposits by writing its
//! cell in place — a vector contribution is copied into the cell's retained buffer — so
//! a barrier or scalar round allocates nothing once the slot knows its type.
//!
//! **One result per round.** Rounds are numbered, and round *n*'s result goes into the
//! buffer of parity *n* % 2, with the count of members yet to collect it. The finisher
//! fills the buffer under the slot lock it already holds, opens the next round at once
//! and wakes the waiters — one wake per round. A woken member takes the slot lock a
//! second time to collect, so a member locks the slot once to deposit and once to
//! collect. Rounds do not drain: a fast member may deposit into round *n+1* while a
//! slow one has not yet collected round *n*, and that is safe because round *n+1*
//! cannot complete — and round *n+2* overwrite the buffer of *n*'s parity — before the
//! slow member has deposited into it, which it does only after collecting. The buffer
//! keeps its result after the last collection; the finisher of the next round of that
//! type and parity hands it to the fold, which refills it in place when no member
//! holds it anymore (so a vector round need not allocate either).
//!
//! A waiting member parks through a caller-supplied [`SlotWait`] — the point where the
//! scheduler backend plugs in — and re-checks the round number and a caller-supplied
//! `abort_check` each time it is woken, so members blocked in a collective whose peers
//! have failed observe the failure (ULFM semantics) instead of hanging: the failure
//! transition wakes them. **Completion comes first:** a round whose members all
//! deposited always completes, so a member that finds its round complete returns the
//! round's result even if a failure transition woke it; only a member whose round is
//! still open under the slot lock withdraws its contribution and reports the abort.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::error::MpiError;
use crate::sched::WaitToken;
use crate::time::SimTime;

/// How a member blocked inside [`CollSlot::round`] waits for its round to complete —
/// the point where the scheduler backend plugs into the rendezvous engine.
///
/// `prepare` snapshots the slot's wait channel *before* the member checks whether its
/// round completed, `park` suspends the calling rank until woken (or returns
/// immediately if a wake invalidated the token), and `wake` is invoked by the finisher
/// once the round's result is published. No timeouts exist: the finisher's wake
/// follows the result it announces, and cluster-wide transitions invalidate prepared
/// tokens, so no wakeup can be lost.
#[derive(Clone, Copy)]
pub struct SlotWait<'a> {
    /// Snapshots the slot's wait channel (before the checks the park guards).
    pub prepare: &'a dyn Fn() -> WaitToken,
    /// Suspends the calling rank (called with the slot lock released). The flag says
    /// whether this wait already suspended before — a wake that did not end it — and
    /// the result whether the rank was actually suspended.
    pub park: &'a dyn Fn(WaitToken, bool) -> bool,
    /// Wakes every rank parked on this slot.
    pub wake: &'a dyn Fn(),
}

/// The cells and results of one contribution type `C` (folded into an `O`) of a slot.
struct Store<C, O> {
    /// Per-member contribution cells, written in place by the depositing member.
    cells: Vec<C>,
    /// Per parity: this type's most recent round's completion time and result.
    results: [Option<(SimTime, O)>; 2],
}

/// Everything behind the slot lock.
struct RoundState {
    deposited: usize,
    /// Per member: (entry time, declared cost) once it deposited into the open round.
    entries: Vec<Option<(SimTime, SimTime)>>,
    /// Index into `stores` of the open round's type (meaningful while `deposited > 0`):
    /// later depositors of the round use it without a lookup.
    round_store: usize,
    /// Per parity: how many members of the last completed round have yet to collect
    /// its result.
    pending: [usize; 2],
    /// One `Store<C, O>` per contribution type the slot has seen.
    stores: Vec<Box<dyn Any + Send>>,
}

impl RoundState {
    /// The index of the store of contribution type `C` folded into `O`, created with
    /// `nmembers` default cells the first time the type is seen.
    fn store_index<C, O>(&mut self, nmembers: usize) -> usize
    where
        C: Default + Send + 'static,
        O: Send + 'static,
    {
        if let Some(index) = self.stores.iter().position(|s| s.is::<Store<C, O>>()) {
            return index;
        }
        self.stores.push(Box::new(Store::<C, O> {
            cells: (0..nmembers).map(|_| C::default()).collect(),
            results: [None, None],
        }));
        self.stores.len() - 1
    }

    /// The store at `index`, of contribution type `C` folded into `O`.
    ///
    /// # Panics
    ///
    /// Panics if the store is of another type: the members of one round disagree on
    /// the collective they run, a bug of the rank program.
    fn store<C: 'static, O: 'static>(&mut self, index: usize) -> &mut Store<C, O> {
        self.stores[index]
            .downcast_mut()
            .expect("a round's members share its contribution type")
    }

    /// Hands a member its copy of round `round`'s result, kept in store `store`.
    fn collect<C: 'static, O: Clone + 'static>(
        &mut self,
        round: u64,
        store: usize,
    ) -> (SimTime, O) {
        let parity = (round & 1) as usize;
        self.pending[parity] -= 1;
        let result = self.store::<C, O>(store).results[parity].clone();
        result.expect("a completed round has a result")
    }
}

/// A reusable rendezvous slot for a fixed group of members.
pub struct CollSlot {
    nmembers: usize,
    state: Mutex<RoundState>,
    /// The number of the open round: every round below it has completed. Written under
    /// the state lock; waiting members read it without.
    round: AtomicU64,
}

impl std::fmt::Debug for CollSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("CollSlot")
            .field("nmembers", &self.nmembers)
            .field("deposited", &st.deposited)
            .field("undelivered", &(st.pending[0] + st.pending[1]))
            .finish()
    }
}

impl CollSlot {
    /// Creates a slot for a group of `nmembers` members.
    ///
    /// # Panics
    ///
    /// Panics if `nmembers` is zero.
    pub fn new(nmembers: usize) -> Self {
        assert!(nmembers > 0, "a collective needs at least one member");
        CollSlot {
            nmembers,
            state: Mutex::new(RoundState {
                deposited: 0,
                entries: vec![None; nmembers],
                round_store: 0,
                pending: [0; 2],
                stores: Vec::new(),
            }),
            round: AtomicU64::new(0),
        }
    }

    /// Executes one rendezvous round for member `member`.
    ///
    /// * `now` — the member's virtual time on entry.
    /// * `cost` — the modelled cost of the collective as seen by this member; the
    ///   completion time is `max(entry times) + max(declared costs)`, which keeps the
    ///   result deterministic even when members declare different payload sizes (e.g. a
    ///   broadcast root versus its receivers).
    /// * `deposit` — writes this member's contribution into its cell (which holds
    ///   whatever the member's last round of this type left there).
    /// * `fold` — run exactly once per round, by the last member to deposit; receives
    ///   all cells in member order and this type's result of two rounds back (to reuse
    ///   if nobody holds it anymore), and returns the round's one result.
    /// * `abort_check` — re-checked each time the member is woken while waiting;
    ///   returning `Some(err)` makes this member abandon the round with `Err(err)`
    ///   (used for failure notification).
    /// * `wait` — how the member parks while it waits, and how the finisher wakes it.
    ///
    /// Returns the common completion time and the round's result.
    ///
    /// # Errors
    ///
    /// Returns whatever error `abort_check` produced, or [`MpiError::Internal`] if a
    /// member index was out of range or used twice in one round.
    ///
    /// # Panics
    ///
    /// Panics if the members of one round disagree on its contribution type.
    #[allow(clippy::too_many_arguments)]
    pub fn round<C, O>(
        &self,
        member: usize,
        now: SimTime,
        cost: SimTime,
        deposit: impl FnOnce(&mut C),
        fold: impl FnOnce(&mut [C], Option<O>) -> O,
        mut abort_check: impl FnMut() -> Option<MpiError>,
        wait: SlotWait<'_>,
    ) -> Result<(SimTime, O), MpiError>
    where
        C: Default + Send + 'static,
        O: Clone + Send + 'static,
    {
        let nmembers = self.nmembers;
        if member >= nmembers {
            return Err(MpiError::Internal(format!(
                "collective member index {member} out of range ({nmembers})"
            )));
        }
        let mut st = self.state.lock();
        if st.entries[member].is_some() {
            return Err(MpiError::Internal(format!(
                "member {member} deposited twice in the same collective round"
            )));
        }
        let store = match st.deposited {
            0 => st.store_index::<C, O>(nmembers),
            _ => st.round_store,
        };
        st.round_store = store;
        deposit(&mut st.store::<C, O>(store).cells[member]);
        st.entries[member] = Some((now, cost));
        st.deposited += 1;
        let round = self.round.load(Ordering::Relaxed);

        if st.deposited == nmembers {
            // Last to arrive: fold, publish, open the next round, wake.
            let (mut max_entry, mut max_cost) = (SimTime::ZERO, SimTime::ZERO);
            for entry in &mut st.entries {
                let (entry, cost) = entry.take().expect("every member deposited");
                max_entry = max_entry.max(entry);
                max_cost = max_cost.max(cost);
            }
            let parity = (round & 1) as usize;
            debug_assert_eq!(st.pending[parity], 0, "round n - 2 is still uncollected");
            st.pending[parity] = nmembers - 1;
            st.deposited = 0;
            let Store { cells, results } = st.store::<C, O>(store);
            let spare = results[parity].take().map(|(_, spare)| spare);
            let result = fold(&mut cells[..], spare);
            results[parity] = Some((max_entry + max_cost, result.clone()));
            self.round.store(round + 1, Ordering::Release);
            drop(st);
            // After the unlock, so woken members find the slot free for collecting and
            // the next round. Nothing is lost by that: a waiter checks the round number
            // after preparing its token, and the round was published before this line.
            (wait.wake)();
            return Ok((max_entry + max_cost, result));
        }

        // Wait for the finisher, without the state lock: the token prepared before
        // each pass covers the checks instead.
        drop(st);
        let mut suspended_before = false;
        loop {
            let token = (wait.prepare)();
            if self.round.load(Ordering::Acquire) > round {
                return Ok(self.state.lock().collect::<C, O>(round, store));
            }
            if let Some(err) = abort_check() {
                let mut st = self.state.lock();
                // The round may have completed since the check above: under the lock
                // the round number is final, and a completed round is never reported
                // aborted.
                if self.round.load(Ordering::Relaxed) > round {
                    return Ok(st.collect::<C, O>(round, store));
                }
                // Withdraw our contribution so a later repair/reset starts clean.
                if st.entries[member].take().is_some() {
                    st.deposited -= 1;
                }
                return Err(err);
            }
            suspended_before |= (wait.park)(token, suspended_before);
        }
    }

    /// Forcibly resets the slot to an empty collecting state.
    ///
    /// Used when a communicator is repaired after a failure: contributions from the
    /// aborted round and results nobody collected are discarded. Must only be called
    /// when no member is blocked inside [`CollSlot::round`] (the recovery protocol
    /// guarantees this by first driving every rank out of its pending operations).
    pub fn reset(&self) {
        let mut st = self.state.lock();
        st.deposited = 0;
        st.entries.fill(None);
        st.pending = [0; 2];
        st.stores.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::WaitKey;
    use std::sync::Arc;

    /// A type-erased contribution.
    type AnyBox = Box<dyn Any + Send>;

    /// A type-erased round result.
    type AnyArc = Arc<dyn Any + Send + Sync>;

    impl CollSlot {
        /// One round with a boxed contribution and a boxed result, the form the tests
        /// below drive the rendezvous in: `finish` receives every member's (entry time,
        /// contribution) in member order.
        #[allow(clippy::too_many_arguments)]
        fn run(
            &self,
            member: usize,
            now: SimTime,
            cost: SimTime,
            contribution: AnyBox,
            finish: impl FnOnce(Vec<(SimTime, AnyBox)>) -> AnyArc,
            abort_check: impl FnMut() -> Option<MpiError>,
            wait: SlotWait<'_>,
        ) -> Result<(SimTime, AnyArc), MpiError> {
            self.round(
                member,
                now,
                cost,
                |cell: &mut Option<(SimTime, AnyBox)>| *cell = Some((now, contribution)),
                |cells, _| finish(cells.iter_mut().map(|c| c.take().unwrap()).collect()),
                abort_check,
                wait,
            )
        }
    }

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

    /// A wait that never suspends: every park is refused, so a waiting member
    /// re-checks its cell and its abort condition in a loop — the rendezvous logic
    /// with no scheduler behind it.
    const SPIN: SlotWait<'static> = SlotWait {
        prepare: &|| WaitToken::immediate(WaitKey::FAILURE_EVENTS),
        park: &|_, _| {
            std::thread::yield_now();
            false
        },
        wake: &|| (),
    };

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
                SPIN,
            )
            .unwrap();
        assert_eq!(t.as_secs(), 1.5);
        assert_eq!(*out.downcast::<u64>().unwrap(), 42);
        // The lone member is every round's finisher: the next round is open at once.
        let (_, out) = slot
            .run(0, t, SimTime::ZERO, Box::new(7u64), sum_u64, || None, SPIN)
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
                    SPIN,
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
                        SPIN,
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
                SPIN,
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
                SPIN,
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
                SPIN,
            );
        });
        t.join().unwrap();
        slot.reset();
        assert!(format!("{slot:?}").contains("deposited: 0"));
    }

    // ----- the park protocol, interleaved by hand -------------------------------------

    use std::sync::atomic::{AtomicBool, Ordering};
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
            let round = self.slot.run(
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
                SlotWait {
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
                SPIN,
            );
            assert!(delivered.is_ok());
            Some(MpiError::Revoked)
        };
        let (_, out) = slot
            .run(
                0,
                SimTime::ZERO,
                SimTime::ZERO,
                Box::new(2u64),
                sum_u64,
                late_finisher,
                SlotWait {
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
                            SPIN,
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
