//! Minimal stackful fibers: the execution primitive of the cooperative backend.
//!
//! A [`Fiber`] is a suspended computation with its own call stack. Switching between
//! fibers is a plain userspace context switch — save the callee-saved registers and the
//! stack pointer, restore another fiber's — which costs tens of nanoseconds and never
//! enters the kernel. This is what lets the [`coop`](super::coop) backend multiplex
//! thousands of simulated ranks over **one** OS thread: a rank blocked in a simulated
//! receive or collective is just a saved stack pointer until the scheduler resumes it.
//!
//! The implementation is deliberately small:
//!
//! * the context switch (`match_rs_fiber_switch`) is ~20 instructions of `global_asm!`
//!   per architecture (x86-64 SysV and AArch64 AAPCS64), saving exactly the registers
//!   the respective C ABI declares callee-saved (plus `mxcsr`/x87 control words on
//!   x86-64, mirroring what Boost.Context does);
//! * stacks are `mmap`ed with a leading [`GUARD_SIZE`] `PROT_NONE` guard region, so
//!   a fiber overflowing its stack faults instead of silently corrupting a
//!   neighbouring allocation;
//! * dropped stacks are returned to a process-wide free list (capped at
//!   [`stack::POOL_MAX_STACKS`]) keyed by mapping size, so back-to-back jobs — and the
//!   [`par`](super::par) backend's worker threads in particular — reuse warm mappings
//!   instead of serializing on `mmap`/`munmap` in the kernel;
//! * there is no scheduler in here — just "create with an entry function" and "switch"
//!   — policy lives in the [`coop`](super::coop) and [`par`](super::par) modules.
//!
//! # Safety model
//!
//! All fibers of one job run on one OS thread, are created before the job starts and
//! are only unmapped after they have finished (or after the whole job is abandoned on a
//! panic). The raw context-switch function is `unsafe`: callers must guarantee that the
//! `resume` context is a valid suspended context produced by this module and that the
//! `save` slot stays alive until the suspended execution is resumed.

#![allow(unsafe_code, reason = "audited boundary: fiber switches and stacks")]

use std::ffi::c_void;

/// Size of the `PROT_NONE` guard region placed below each fiber stack. Generously
/// sized (64 KiB) so the region still spans at least one page on large-page kernels.
pub const GUARD_SIZE: usize = 64 * 1024;

/// Smallest stack the allocator will hand out; fibers run real application code plus
/// the panic machinery, which needs more than a trivial trampoline would.
pub const MIN_STACK_SIZE: usize = 64 * 1024;

// ---------------------------------------------------------------------------------
// Context switch (architecture specific)
// ---------------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    // fn match_rs_fiber_switch(save: *mut usize /* rdi */, resume: usize /* rsi */)
    //
    // Saves the current execution as a context frame on the current stack, stores the
    // resulting stack pointer to `*save`, then installs `resume` as the stack pointer
    // and unwinds its frame. System V x86-64: rbx, rbp, r12-r15 are callee-saved; all
    // xmm registers are caller-saved, but mxcsr and the x87 control word are preserved
    // across calls, so they travel with the frame too.
    ".text",
    ".balign 16",
    ".globl match_rs_fiber_switch",
    ".hidden match_rs_fiber_switch",
    "match_rs_fiber_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "sub rsp, 8",
    "stmxcsr [rsp]",
    "fnstcw [rsp + 4]",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "ldmxcsr [rsp]",
    "fldcw [rsp + 4]",
    "add rsp, 8",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    // First activation of a fresh fiber: `ret` above lands here with r12 = entry
    // argument and r13 = entry function (planted by `Fiber::new`). The stack pointer
    // is 16-byte aligned at this point, which is exactly what the ABI requires at a
    // `call` site.
    ".balign 16",
    ".globl match_rs_fiber_tramp",
    ".hidden match_rs_fiber_tramp",
    "match_rs_fiber_tramp:",
    "mov rdi, r12",
    "call r13",
    "ud2",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    // fn match_rs_fiber_switch(save: *mut usize /* x0 */, resume: usize /* x1 */)
    //
    // AAPCS64: x19-x28, fp (x29), lr (x30) and d8-d15 are callee-saved.
    ".text",
    ".balign 16",
    ".globl match_rs_fiber_switch",
    ".hidden match_rs_fiber_switch",
    "match_rs_fiber_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x2, sp",
    "str x2, [x0]",
    "mov sp, x1",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    // First activation: `ret` jumps through the planted x30 with x19 = entry argument
    // and x20 = entry function.
    ".balign 16",
    ".globl match_rs_fiber_tramp",
    ".hidden match_rs_fiber_tramp",
    "match_rs_fiber_tramp:",
    "mov x0, x19",
    "blr x20",
    "brk #0",
);

extern "C" {
    fn match_rs_fiber_switch(save: *mut usize, resume: usize);
    fn match_rs_fiber_tramp();
}

/// Suspends the current execution into `*save` and resumes the context `resume`.
///
/// # Safety
///
/// `resume` must be a context produced by [`Fiber::new`] or a previous switch, whose
/// stack is still mapped and not currently executing; `save` must point to writable
/// memory that outlives the suspension. Both executions must run on the same OS thread.
pub unsafe fn switch_context(save: *mut usize, resume: usize) {
    match_rs_fiber_switch(save, resume);
}

/// The entry signature of a fiber: receives the opaque argument given to
/// [`Fiber::new`] and must never return (it must switch away forever once done —
/// returning would fall off the trampoline into an undefined-instruction trap).
pub type FiberEntry = extern "C" fn(*mut ()) -> !;

// ---------------------------------------------------------------------------------
// Stack allocation
// ---------------------------------------------------------------------------------

mod stack {
    use super::{c_void, GUARD_SIZE};

    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    }

    /// Number of retired stacks the process keeps mapped for reuse: enough for a
    /// 4k-rank job's stacks to be reused wholesale by the next job in a sweep. A
    /// default stack is 1 MiB plus the 64 KiB guard, so a full pool reserves
    /// ~4.3 GiB of address space; only the pages a rank once touched are resident.
    pub const POOL_MAX_STACKS: usize = 4096;

    /// Free list of retired stacks, grouped by mapping length. Bases are stored as
    /// `usize` (the mappings are not referenced by anyone while pooled, so there is
    /// no aliasing to express — and `usize` keeps the state `Send`).
    struct PoolState {
        /// `(mapping_len, bases)` per size class. Jobs use one or two distinct stack
        /// sizes, so a linear scan over classes is cheaper than a map.
        classes: Vec<(usize, Vec<usize>)>,
        stacks: usize,
    }

    static POOL: std::sync::Mutex<PoolState> = std::sync::Mutex::new(PoolState {
        classes: Vec::new(),
        stacks: 0,
    });

    fn lock_pool() -> std::sync::MutexGuard<'static, PoolState> {
        // A panic while holding the pool lock cannot leave the free list in an
        // inconsistent state (push/pop are atomic w.r.t. the list), so poisoning
        // is safe to ignore.
        POOL.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// An anonymous mapping with a `PROT_NONE` guard region at its low end. The usable
    /// stack grows down from `base + len` towards the guard.
    pub struct Stack {
        base: *mut u8,
        len: usize,
    }

    // SAFETY: a Stack is a plain owned mapping with no thread affinity; the par
    // backend moves stacks (inside Fibers) between the spawning thread and workers.
    unsafe impl Send for Stack {}

    impl Stack {
        pub fn new(usable: usize) -> Stack {
            let len = usable + GUARD_SIZE;
            if let Some(base) = pool_take(len) {
                // Pooled mappings keep their guard protection; the old stack
                // contents are garbage, which is exactly what a fresh mapping's
                // zeroes are to the fiber trampoline — `Fiber::new` plants the
                // initial frame either way.
                return Stack { base, len };
            }
            // SAFETY: plain anonymous private mapping; checked for MAP_FAILED below.
            let base = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            assert!(
                base != usize::MAX as *mut c_void && !base.is_null(),
                "fiber stack mmap of {len} bytes failed"
            );
            // SAFETY: `base` is a page-aligned mapping of at least GUARD_SIZE bytes.
            let rc = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
            assert_eq!(rc, 0, "fiber stack guard mprotect failed");
            Stack {
                base: base.cast(),
                len,
            }
        }

        /// One-past-the-end of the usable region (the initial top of stack).
        pub fn top(&self) -> *mut u8 {
            // SAFETY: in-bounds arithmetic on the mapping.
            unsafe { self.base.add(self.len) }
        }
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            if pool_put(self.base, self.len) {
                return;
            }
            // SAFETY: unmaps exactly the region mapped in `new`.
            unsafe {
                munmap(self.base.cast(), self.len);
            }
        }
    }

    /// Pops a pooled mapping of exactly `len` bytes, if one is available.
    fn pool_take(len: usize) -> Option<*mut u8> {
        let mut pool = lock_pool();
        let class = pool.classes.iter_mut().find(|(l, _)| *l == len)?;
        let base = class.1.pop()?;
        pool.stacks -= 1;
        Some(base as *mut u8)
    }

    /// Returns a mapping to the pool; `false` means the cap is hit and the caller
    /// must unmap it instead.
    fn pool_put(base: *mut u8, len: usize) -> bool {
        let mut pool = lock_pool();
        if pool.stacks == POOL_MAX_STACKS {
            return false;
        }
        pool.stacks += 1;
        match pool.classes.iter_mut().find(|(l, _)| *l == len) {
            Some(class) => class.1.push(base as usize),
            None => pool.classes.push((len, vec![base as usize])),
        }
        true
    }

    #[cfg(test)]
    pub fn pooled_count(len: usize) -> usize {
        let pool = lock_pool();
        pool.classes
            .iter()
            .find(|(l, _)| *l == len)
            .map_or(0, |(_, bases)| bases.len())
    }
}

// ---------------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------------

/// A suspended computation with its own stack (see the module docs).
pub struct Fiber {
    // Kept alive for the lifetime of the fiber; the saved context points into it.
    _stack: stack::Stack,
    /// The saved stack pointer of the suspended execution. Meaningless while the fiber
    /// is running (the running execution owns the live value).
    context: usize,
}

impl std::fmt::Debug for Fiber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fiber").finish_non_exhaustive()
    }
}

/// Number of `usize` slots of the initial context frame (control words + callee-saved
/// registers + the trampoline return address; see the `global_asm!` blocks).
#[cfg(target_arch = "x86_64")]
const INIT_FRAME_WORDS: usize = 8;
#[cfg(target_arch = "aarch64")]
const INIT_FRAME_WORDS: usize = 20;

impl Fiber {
    /// Creates a fiber with `stack_size` bytes of usable stack that will run
    /// `entry(arg)` when first resumed. The entry function must never return.
    pub fn new(stack_size: usize, entry: FiberEntry, arg: *mut ()) -> Fiber {
        let stack = stack::Stack::new(stack_size.max(MIN_STACK_SIZE));
        // Keep the initial stack pointer 16-byte aligned (both ABIs require it).
        let top = (stack.top() as usize) & !15usize;
        let sp = top - INIT_FRAME_WORDS * std::mem::size_of::<usize>();
        let frame = sp as *mut usize;
        // SAFETY: `frame..top` lies within the freshly mapped stack; the layout below
        // mirrors exactly what `match_rs_fiber_switch` restores.
        unsafe {
            std::ptr::write_bytes(frame, 0, INIT_FRAME_WORDS);
            #[cfg(target_arch = "x86_64")]
            {
                // Slot 0 holds mxcsr (low u32) and the x87 control word (next u32):
                // the architectural defaults (all exceptions masked, round-to-nearest,
                // 64-bit x87 precision) — the state every Rust thread starts with.
                frame.write(0x1F80_usize | (0x037F_usize << 32));
                frame.add(3).write(entry as usize); // r13
                frame.add(4).write(arg as usize); // r12
                frame
                    .add(7)
                    .write(match_rs_fiber_tramp as *const () as usize); // return address
            }
            #[cfg(target_arch = "aarch64")]
            {
                frame.write(arg as usize); // x19
                frame.add(1).write(entry as usize); // x20
                frame.add(11).write(match_rs_fiber_tramp as usize); // x30 (lr)
            }
        }
        Fiber {
            _stack: stack,
            context: sp,
        }
    }

    /// The fiber's saved context slot: reads give the suspended context to resume
    /// (meaningful right after creation and after every suspension saved into it).
    pub fn context_slot(&mut self) -> *mut usize {
        &mut self.context
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A two-way channel of raw contexts for ping-pong tests: the fiber suspends into
    /// `fiber_ctx` and resumes `main_ctx`, and vice versa.
    struct PingPong {
        main_ctx: usize,
        fiber_ctx: usize,
        counter: Cell<u64>,
    }

    extern "C" fn pingpong_entry(arg: *mut ()) -> ! {
        // SAFETY: the test keeps the PingPong alive across all switches.
        let pp = unsafe { &mut *(arg as *mut PingPong) };
        for _ in 0..3 {
            pp.counter.set(pp.counter.get() + 1);
            let main = pp.main_ctx;
            // SAFETY: `main` was saved by the test thread's last switch into this
            // fiber; the save slot lives in the PingPong, which outlives the fiber.
            unsafe { switch_context(&mut pp.fiber_ctx, main) };
        }
        pp.counter.set(pp.counter.get() + 1000);
        loop {
            let main = pp.main_ctx;
            // SAFETY: as above — the test thread is suspended in `main` whenever
            // this fiber runs, and both executions share one OS thread.
            unsafe { switch_context(&mut pp.fiber_ctx, main) };
        }
    }

    #[test]
    fn fiber_ping_pong_counts() {
        let mut pp = PingPong {
            main_ctx: 0,
            fiber_ctx: 0,
            counter: Cell::new(0),
        };
        let mut fiber = Fiber::new(MIN_STACK_SIZE, pingpong_entry, &mut pp as *mut _ as *mut ());
        // SAFETY: the fiber was just created and has never run: its slot holds the
        // initial context planted by `Fiber::new`.
        pp.fiber_ctx = unsafe { *fiber.context_slot() };
        for expect in 1..=3u64 {
            // SAFETY: `fiber_ctx` is the fiber's latest suspension (initial, then
            // re-saved by each of its switches back); `fiber` stays alive throughout.
            unsafe { switch_context(&mut pp.main_ctx, pp.fiber_ctx) };
            assert_eq!(pp.counter.get(), expect);
        }
        // SAFETY: as in the loop above — one more resume of the same live fiber.
        unsafe { switch_context(&mut pp.main_ctx, pp.fiber_ctx) };
        assert_eq!(pp.counter.get(), 1003);
    }

    extern "C" fn deep_frames_entry(arg: *mut ()) -> ! {
        fn recurse(depth: usize, acc: u64) -> u64 {
            // Enough locals to touch the stack meaningfully without nearing the guard.
            let locals = [acc; 16];
            if depth == 0 {
                locals.iter().sum()
            } else {
                recurse(depth - 1, acc + 1) + locals[0]
            }
        }
        // SAFETY: `arg` is the address of the test's PingPong, alive for the whole
        // test and only accessed by one execution at a time (single OS thread).
        let pp = unsafe { &mut *(arg as *mut PingPong) };
        pp.counter.set(recurse(64, 1));
        loop {
            let main = pp.main_ctx;
            // SAFETY: the test thread is suspended in `main`; its save slot outlives
            // the fiber.
            unsafe { switch_context(&mut pp.fiber_ctx, main) };
        }
    }

    #[test]
    fn fiber_runs_real_frames_on_its_own_stack() {
        let mut pp = PingPong {
            main_ctx: 0,
            fiber_ctx: 0,
            counter: Cell::new(0),
        };
        let mut fiber = Fiber::new(256 * 1024, deep_frames_entry, &mut pp as *mut _ as *mut ());
        // SAFETY: freshly created fiber — the slot holds its initial context.
        pp.fiber_ctx = unsafe { *fiber.context_slot() };
        // SAFETY: resuming that initial context on the same thread; `fiber` (and its
        // stack) outlive the switch.
        unsafe { switch_context(&mut pp.main_ctx, pp.fiber_ctx) };
        assert!(pp.counter.get() > 0);
    }

    #[test]
    fn dropped_stacks_are_pooled_and_reused() {
        // A size class no other test uses, so concurrent tests cannot race on it.
        const USABLE: usize = MIN_STACK_SIZE + 13 * 4096;
        const MAPPED: usize = USABLE + GUARD_SIZE;
        assert_eq!(stack::pooled_count(MAPPED), 0);
        {
            let fibers: Vec<Fiber> = (0..4)
                .map(|_| Fiber::new(USABLE, pingpong_entry, std::ptr::null_mut()))
                .collect();
            drop(fibers);
        }
        assert_eq!(stack::pooled_count(MAPPED), 4);
        // Reuse drains the pool instead of mapping fresh stacks...
        let reused = Fiber::new(USABLE, pingpong_entry, std::ptr::null_mut());
        assert_eq!(stack::pooled_count(MAPPED), 3);
        // ...and a reused stack still runs code (ping-pong over a recycled mapping).
        let mut pp = PingPong {
            main_ctx: 0,
            fiber_ctx: 0,
            counter: Cell::new(0),
        };
        drop(reused);
        let mut fiber = Fiber::new(USABLE, pingpong_entry, &mut pp as *mut _ as *mut ());
        // SAFETY: freshly created fiber (on a recycled mapping) — the slot holds the
        // initial context planted by `Fiber::new`.
        pp.fiber_ctx = unsafe { *fiber.context_slot() };
        // SAFETY: resuming that initial context on the same thread; `fiber` stays
        // alive across the switch.
        unsafe { switch_context(&mut pp.main_ctx, pp.fiber_ctx) };
        assert_eq!(pp.counter.get(), 1);
    }

    #[test]
    fn a_second_512_rank_job_maps_no_new_stack() {
        // A stack size no other test uses, so concurrent tests cannot race on its
        // size class. 512 such stacks map ~560 MiB: the pool must cap the number
        // of stacks, not their bytes, for the second job to reuse all of them.
        const USABLE: usize = (1 << 20) + 17 * 4096;
        const MAPPED: usize = USABLE + GUARD_SIZE;
        let job = || {
            let config = crate::ClusterConfig::with_ranks(512)
                .backend(crate::SchedBackend::Coop)
                .stack_size(USABLE);
            let outcome = crate::Cluster::new(config).run(|ctx| {
                let world = ctx.world();
                ctx.barrier(&world)
            });
            assert!(outcome.all_ok());
        };
        job();
        assert_eq!(stack::pooled_count(MAPPED), 512, "the first job's stacks");
        job();
        // The second job drew all 512 stacks from the pool; a fresh mapping would
        // have come back to the pool on top of them.
        assert_eq!(stack::pooled_count(MAPPED), 512, "the second job's stacks");
    }

    #[test]
    fn many_small_fibers_allocate_and_release() {
        // Exercises the stack allocator: 256 fibers created and dropped untouched
        // (a fiber that was never resumed holds no live frames).
        let fibers: Vec<Fiber> = (0..256)
            .map(|_| Fiber::new(MIN_STACK_SIZE, pingpong_entry, std::ptr::null_mut()))
            .collect();
        assert_eq!(fibers.len(), 256);
    }
}
