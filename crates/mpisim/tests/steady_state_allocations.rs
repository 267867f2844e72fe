//! Steady state allocates nothing: on a `coop` job, once the first rounds have sized
//! every buffer, further barriers, scalar all-reduces and halo exchanges make no heap
//! allocation at all.
//!
//! Each case runs the same job twice — a warm-up only, then the warm-up plus
//! [`STEADY`] more rounds — and counts the allocations each run makes on the calling
//! thread, which on `coop` is the thread every rank runs on. The two counts must be
//! equal. The file holds one test so that no other job shares the process-wide fiber
//! stack pool while a count is taken.

#![allow(unsafe_code, reason = "audited boundary: a counting GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpisim::{Cluster, ClusterConfig, Comm, MpiError, RankCtx, SchedBackend};

thread_local! {
    /// Allocations made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct CountingAllocator;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments to the system allocator unchanged;
// counting only bumps a constant-initialised thread-local `Cell`, which allocates
// nothing and has no destructor.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: forwards to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: forwards to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by this allocator (that is, by `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (that is, by `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const NPROCS: usize = 8;
/// Rounds that may allocate: every buffer, cell and queue reaches its size here.
const WARM_UP: usize = 8;
/// Rounds that must not allocate.
const STEADY: usize = 64;

/// One round of the operation under test, on `world`; `buf` lives across rounds.
type Round = fn(&mut RankCtx, &Comm, &mut Vec<f64>) -> Result<(), MpiError>;

/// The allocations one `coop` job of [`NPROCS`] ranks makes while each rank runs
/// `rounds` rounds.
fn allocations(rounds: usize, round: Round) -> u64 {
    let cluster = Cluster::new(ClusterConfig::with_ranks(NPROCS).backend(SchedBackend::Coop));
    let before = ALLOCATIONS.with(Cell::get);
    let outcome = cluster.run(move |ctx| {
        let world = ctx.world();
        let mut buf = Vec::new();
        for _ in 0..rounds {
            round(ctx, &world, &mut buf)?;
        }
        Ok(())
    });
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert!(outcome.all_ok());
    made
}

/// Sends this rank's halo to both ring neighbours and receives theirs.
fn halo_exchange(ctx: &mut RankCtx, world: &Comm, buf: &mut Vec<f64>) -> Result<(), MpiError> {
    let (rank, n) = (ctx.rank(), ctx.nprocs());
    let (left, right) = ((rank + n - 1) % n, (rank + 1) % n);
    let halo = [rank as f64; 32];
    ctx.send_f64(world, right, 0, &halo)?;
    ctx.send_f64(world, left, 1, &halo)?;
    ctx.recv_f64_into(world, left as i32, 0, buf)?;
    ctx.recv_f64_into(world, right as i32, 1, buf)?;
    Ok(())
}

#[test]
fn steady_state_rounds_and_halo_exchanges_allocate_nothing_on_coop() {
    let cases: [(&str, Round); 5] = [
        ("barrier", |ctx, world, _| ctx.barrier(world)),
        ("allreduce_sum_f64", |ctx, world, _| {
            ctx.allreduce_sum_f64(world, ctx.rank() as f64).map(drop)
        }),
        ("allreduce_min_f64", |ctx, world, _| {
            ctx.allreduce_min_f64(world, ctx.rank() as f64).map(drop)
        }),
        ("allreduce_sum_u64", |ctx, world, _| {
            ctx.allreduce_sum_u64(world, ctx.rank() as u64).map(drop)
        }),
        ("halo exchange", halo_exchange),
    ];
    // Fill the fiber stack pool first, so that no count includes its growth.
    allocations(WARM_UP, cases[0].1);
    for (name, round) in cases {
        let warm_up = allocations(WARM_UP, round);
        assert_eq!(
            allocations(WARM_UP + STEADY, round),
            warm_up,
            "{STEADY} steady-state rounds of {name} allocated"
        );
    }
}
