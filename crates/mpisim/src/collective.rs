//! The rendezvous engine behind collective operations.
//!
//! Every communicator owns a [`CollSlot`]. A collective operation is executed as a
//! *rendezvous round*: each member deposits its contribution (an arbitrary `Send`
//! value) together with its current virtual time; the last member to arrive runs a
//! *finish* closure that combines all contributions into **one shared output** and
//! computes the common completion time (`max` of the entry times plus the modelled
//! collective cost); every member then picks up a reference to that output and
//! advances its clock to the completion time. The output is produced once, whatever
//! the group size: a member that needs only its own part of it (a scatter chunk, a
//! prefix sum) projects it out after the round, outside the slot lock.
//!
//! Rounds are strictly ordered: a member cannot deposit into round *n+1* until every
//! member has collected its output from round *n*. Waiting is implemented as a polling
//! loop with a caller-supplied `abort_check`, so members blocked in a collective whose
//! peers have failed observe the failure (ULFM semantics) instead of hanging.

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

/// How a member blocked inside [`CollSlot::run_with_wait`] waits for round progress —
/// the point where the scheduler backend plugs into the rendezvous engine.
#[derive(Clone, Copy)]
pub enum SlotWait<'a> {
    /// Thread backend: block on the slot's internal condition variable, with a long
    /// timeout as a pure fallback (failure transitions wake waiters explicitly).
    Condvar,
    /// Fiber backends (`coop`/`par`): `prepare` snapshots the slot's wait channel
    /// *before* the wait condition is re-checked, `park` releases the slot lock and
    /// suspends the calling task until woken (or returns immediately if a wake
    /// invalidated the token), and `wake` is invoked by whichever member publishes
    /// progress (outputs ready, round drained) so parked members resume. No timeouts
    /// exist on this path: slot-progress wakes are issued under the slot lock, and
    /// cluster-wide transitions invalidate prepared tokens, so no wakeup can be lost.
    Park {
        /// Snapshots the slot's wait channel (called with the slot lock held, before
        /// the condition check the park guards).
        prepare: &'a dyn Fn() -> WaitToken,
        /// Suspends the calling task (called with the slot lock released). The flag
        /// says whether this wait already suspended before — a wake that did not end
        /// it — and the result whether the task was actually suspended.
        park: &'a dyn Fn(WaitToken, bool) -> bool,
        /// Wakes every task parked on this slot.
        wake: &'a dyn Fn(),
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Members are depositing contributions for the current round.
    Collecting,
    /// The output is ready; members are picking it up.
    Delivering,
}

struct RoundState {
    phase: Phase,
    round: u64,
    deposited: usize,
    collected: usize,
    /// Per-member (entry time, declared cost, contribution).
    contributions: Vec<Option<(SimTime, SimTime, AnyBox)>>,
    /// The delivering round's output.
    output: Option<AnyArc>,
    /// Members that have not yet picked up the delivering round's output.
    owed: Vec<bool>,
    finish_time: SimTime,
}

impl RoundState {
    fn fresh(nmembers: usize) -> Self {
        RoundState {
            phase: Phase::Collecting,
            round: 0,
            deposited: 0,
            collected: 0,
            contributions: (0..nmembers).map(|_| None).collect(),
            output: None,
            owed: vec![false; nmembers],
            finish_time: SimTime::ZERO,
        }
    }

    /// Opens the next round. The finisher took every contribution and every member
    /// collected, so the per-member vectors are already clear.
    fn reset_for_next_round(&mut self) {
        self.phase = Phase::Collecting;
        self.round += 1;
        self.deposited = 0;
        self.collected = 0;
        self.output = None;
        self.finish_time = SimTime::ZERO;
    }
}

/// A reusable rendezvous slot for a fixed group of members.
pub struct CollSlot {
    nmembers: usize,
    state: Mutex<RoundState>,
    cv: Condvar,
    /// Threads blocked on `cv` (thread backend only). Counted under the state lock, so
    /// progress notifications — issued under that lock — are skipped exactly when
    /// nobody sleeps: on the fiber backends the condition variable is never touched.
    cv_waiters: AtomicUsize,
}

impl std::fmt::Debug for CollSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("CollSlot")
            .field("nmembers", &self.nmembers)
            .field("round", &s.round)
            .field("deposited", &s.deposited)
            .field("collected", &s.collected)
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
            nmembers,
            state: Mutex::new(RoundState::fresh(nmembers)),
            cv: Condvar::new(),
            cv_waiters: AtomicUsize::new(0),
        }
    }

    /// Number of members expected in every round.
    pub fn nmembers(&self) -> usize {
        self.nmembers
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

    /// Blocks the calling member until the slot may have progressed (or, on the thread
    /// backend, the fallback timeout elapsed) and returns the re-acquired state lock.
    fn wait_for_progress<'a>(
        &'a self,
        mut st: parking_lot::MutexGuard<'a, RoundState>,
        wait: SlotWait<'_>,
        token: Option<WaitToken>,
        suspended_before: &mut bool,
    ) -> parking_lot::MutexGuard<'a, RoundState> {
        match wait {
            SlotWait::Condvar => {
                self.cv_waiters.fetch_add(1, Ordering::SeqCst);
                self.cv.wait_for(&mut st, POLL_INTERVAL);
                self.cv_waiters.fetch_sub(1, Ordering::SeqCst);
                st
            }
            SlotWait::Park { park, .. } => {
                drop(st);
                *suspended_before |= park(
                    token.expect("fiber waits prepare a token"),
                    *suspended_before,
                );
                self.state.lock()
            }
        }
    }

    /// Announces slot progress to blocked members (called with the state lock held).
    fn notify_progress(&self, wait: SlotWait<'_>) {
        match wait {
            SlotWait::Condvar => self.wake_all(),
            SlotWait::Park { wake, .. } => wake(),
        }
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
        if member >= self.nmembers {
            return Err(MpiError::Internal(format!(
                "collective member index {member} out of range ({})",
                self.nmembers
            )));
        }
        let prepare = || match wait {
            SlotWait::Park { prepare, .. } => Some(prepare()),
            SlotWait::Condvar => None,
        };

        let mut st = self.state.lock();

        // Wait for the previous round to fully drain before joining a new one. The
        // token is prepared before the condition and abort checks: slot-progress
        // wakes happen under the slot lock we hold, and the transition wakes that
        // change what `abort_check` returns signal the slot's channel or invalidate
        // every token, so the park below can never sleep through either.
        let mut suspended_before = false;
        loop {
            let token = prepare();
            // Still delivering a round this member has already collected from?
            if st.phase != Phase::Delivering || st.owed[member] {
                break;
            }
            if let Some(err) = abort_check() {
                return Err(err);
            }
            st = self.wait_for_progress(st, wait, token, &mut suspended_before);
        }

        if st.contributions[member].is_some() {
            return Err(MpiError::Internal(format!(
                "member {member} deposited twice in the same collective round"
            )));
        }

        // Deposit.
        st.contributions[member] = Some((now, cost, contribution));
        st.deposited += 1;
        let my_round = st.round;

        if st.deposited == self.nmembers {
            // Last to arrive: combine and publish.
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
            st.output = Some(finish(contribs));
            st.owed.fill(true);
            st.finish_time = max_entry + max_cost;
            st.phase = Phase::Delivering;
            self.notify_progress(wait);
        } else {
            // Wait for the round to complete (token-before-check, as above).
            let mut suspended_before = false;
            loop {
                let token = prepare();
                if st.phase == Phase::Delivering && st.round == my_round {
                    break;
                }
                if let Some(err) = abort_check() {
                    // Withdraw our contribution so a later repair/reset starts clean.
                    if st.round == my_round && st.contributions[member].is_some() {
                        st.contributions[member] = None;
                        st.deposited -= 1;
                    }
                    return Err(err);
                }
                st = self.wait_for_progress(st, wait, token, &mut suspended_before);
            }
        }

        // Collect the output.
        let out = match &st.output {
            Some(out) if st.owed[member] => Arc::clone(out),
            _ => return Err(MpiError::Internal("collective output missing".into())),
        };
        st.owed[member] = false;
        let finish_time = st.finish_time;
        st.collected += 1;
        if st.collected == self.nmembers {
            st.reset_for_next_round();
            self.notify_progress(wait);
        }
        Ok((finish_time, out))
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
        *st = RoundState::fresh(self.nmembers);
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
        assert!(format!("{slot:?}").contains("round: 0"));
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
}
