//! Checkpointing a scalar allocates nothing: `append_bytes` of an `f64` or `u64` into
//! a buffer that already has the capacity writes the 8 bytes in place.
//!
//! Allocations are counted per thread by a counting global allocator, so the test
//! harness's other threads cannot disturb the count.

#![allow(unsafe_code, reason = "audited boundary: a counting GlobalAlloc")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fti::Protectable;

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

#[test]
fn scalar_append_bytes_into_a_sized_buffer_allocates_nothing() {
    let (x, n) = (2.5f64, 42u64);
    let objects: [&dyn Protectable; 2] = [&x, &n];
    let mut out = Vec::with_capacity(64 * 8);
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..32 {
        for object in objects {
            object.append_bytes(&mut out);
        }
    }
    let made = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(out.len(), 64 * 8);
    assert_eq!(
        made, 0,
        "appending 64 scalars into a sized buffer allocated"
    );
}
