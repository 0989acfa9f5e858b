//! M:N scheduler: rank bodies as stackful coroutines on a fixed worker
//! pool.
//!
//! Thread-per-rank tops out well below full-machine scale: the kernel
//! caps task counts (`pid_max` is 32768 here) long before the paper's
//! full-TSUBAME2 job (≈22k ranks, stretch 100k) fits, and even at the
//! paper's 1088 ranks every halo message pays a futex park + wake round
//! trip. This module multiplexes rank bodies onto a fixed worker pool
//! instead: each rank becomes a resumable task with its own stack, and a
//! blocking receive *switches* to the next runnable rank (~tens of ns)
//! rather than parking an OS thread.
//!
//! Every rank runs on its *home* worker, `rank / chunk`: placement is
//! static, so which worker runs a rank never depends on timing.
//!
//! Design invariants, in order of importance:
//!
//! * **Home-thread tasks.** Only a task's home worker thread runs it,
//!   saves its context, resumes it or expires its deadline, so the saved
//!   stack pointer and the task-private cells never cross threads. Each
//!   worker's run queue is a plain `VecDeque` in its thread-local
//!   `WorkerCtl`, pushed and popped on that thread only, FIFO: a woken
//!   task goes behind its siblings, and the ranks sharing a worker run
//!   round-robin in wake order. Another thread's wake reaches the worker
//!   through its injector mutex.
//! * **Two-phase block.** A task cannot be woken between "announced it
//!   will block" and "finished saving its context": `prepare_block`
//!   stores `BLOCKING` under the lock its waker reads it under (a
//!   mailbox's, or the collective meetings table's), and only
//!   after the switch back does the worker CAS `BLOCKING → BLOCKED`,
//!   publishing the saved context. A sender that races in between CASes
//!   `BLOCKING → WOKEN` instead; the switching worker sees its CAS fail
//!   and finishes the wake itself, *after* the save. With static
//!   placement the home worker both saves and resumes, so a remote wake
//!   cannot be acted on before the save completes and the protocol is
//!   stricter than this scheduler needs. It stays because it costs one
//!   CAS per block and keeps the block correct whoever resumes the
//!   task; a simpler protocol should wait for an exhaustive-interleaving
//!   model test of this one to check it against.
//! * **Wake ownership by CAS.** A blocked task is woken by exactly one
//!   party: a sender that finds the task's id registered on the message
//!   channel, the member that completes a collective the task is parked
//!   on (which wakes every other member in one `wake_all` batch), or the
//!   deadline watchdog. All wakers race through one `compare_exchange`
//!   on the state word; the loser does nothing.
//! * **Quiescence-gated watchdog.** The receive-deadline watchdog may
//!   declare timeouts only when the global runnable count is zero. Every
//!   sender is itself a running task, so `runnable == 0` means no message
//!   can be in flight — true deadlock. A legitimately long-computing rank
//!   keeps `runnable > 0` and can never trip a false positive, no matter
//!   how many receive deadlines lapse meanwhile.
//!
//! Scheduling is cooperative: a rank cedes its worker only when it
//! blocks or returns. Per-channel FIFO is a property of the mailbox
//! fabric and collective combining orders are fixed by the algorithms,
//! so traces are byte-identical at any worker count and on either engine
//! (pinned by `tests/scheduler_determinism.rs`).
//!
//! The context switch is ~20 instructions of inline assembly (x86_64
//! SysV: save/restore the six callee-saved GPRs plus `rsp`; the FP/SSE
//! control words are never modified by generated code, and no xmm
//! register is callee-saved).
//!
//! Stacks are carved out of 256 MiB slabs — one allocation per 512
//! stacks at the default 512 KiB — so 100k ranks do not exhaust
//! `vm.max_map_count`. There are no guard pages; a canary word at the
//! stack base turns silent overflow into a loud panic at the next
//! switch. Two things keep a world's stacks cheap:
//!
//! * **Pooled slabs.** Slabs are a process-wide resource: a dropped
//!   scheduler hands its slabs back to a bounded free list
//!   (`POOLED_SLABS`) in the order it used them, and the next world of
//!   the same stack size takes them from the front, so it runs on the
//!   pages the last one already faulted in. Every slab holds the full
//!   count of stacks for its size, whatever the world that allocated it
//!   needed. A world rewrites every canary and replants every initial
//!   frame it uses, reused slabs included, and slabs go back only when
//!   the scheduler drops, after every worker has exited and only if
//!   every task is `DONE` (nothing can still be suspended on them).
//! * **Shared canary pages.** A slab's first stack starts 64 B before
//!   the end of its first page and each next one `stack_size` above it,
//!   so stack i's canary lies on the page that holds the top frame of
//!   stack i−1. A rank whose body stays under ≈ 4 KiB of stack touches
//!   one page, not two.
//!
//! A detected overflow *poisons* the scheduler: every worker leaves its
//! loop, `run` joins them all and then re-raises the overflow panic, so
//! a clobbered canary on any worker ends the world instead of leaving
//! the others waiting for a task that will never finish.

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use imp::*;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use stub::*;

/// Whether the task engine exists on this target. Off-target builds fall
/// back to thread-per-rank (see `WorldConfig::resolve`).
pub(crate) const SUPPORTED: bool = cfg!(all(target_arch = "x86_64", target_os = "linux"));

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod imp {
    use std::cell::{Cell, RefCell, UnsafeCell};
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use hcft_telemetry::{Counter, Registry};
    use parking_lot::{Condvar, Mutex};

    use crate::tally::{self, Count};

    // ----- context switch ------------------------------------------------

    core::arch::global_asm!(
        ".text",
        ".balign 16",
        ".globl hcft_simmpi_ctx_switch",
        ".hidden hcft_simmpi_ctx_switch",
        ".type hcft_simmpi_ctx_switch, @function",
        // fn(save: *mut *mut u8 /* rdi */, load: *mut u8 /* rsi */)
        //
        // Saves the SysV callee-saved GPRs on the current stack, parks the
        // resulting rsp in *save, adopts `load` as the new rsp and pops the
        // same frame back off it. Returning then "returns" on the target
        // context — either into the trampoline (first run) or back into a
        // previous hcft_simmpi_ctx_switch call site.
        "hcft_simmpi_ctx_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size hcft_simmpi_ctx_switch, . - hcft_simmpi_ctx_switch",
        ".balign 16",
        ".globl hcft_simmpi_task_tramp",
        ".hidden hcft_simmpi_task_tramp",
        ".type hcft_simmpi_task_tramp, @function",
        // First-run entry: a fresh task frame "returns" here with the task
        // pointer preloaded in (callee-saved) r12. rsp is 16-aligned at
        // this point, so the call below leaves the ABI-mandated rsp%16==8
        // at the entry of hcft_simmpi_task_entry.
        "hcft_simmpi_task_tramp:",
        "mov rdi, r12",
        "call hcft_simmpi_task_entry",
        "ud2",
        ".size hcft_simmpi_task_tramp, . - hcft_simmpi_task_tramp",
    );

    extern "C" {
        fn hcft_simmpi_ctx_switch(save: *mut *mut u8, load: *mut u8);
        fn hcft_simmpi_task_tramp();
    }

    // ----- task state ----------------------------------------------------

    /// Runnable: queued (run queue or injector) or currently executing.
    const READY: u8 = 0;
    /// Parked on a message channel; saved context is published.
    const BLOCKED: u8 = 1;
    /// Body returned; never resumed again.
    const DONE: u8 = 2;
    /// Mid-switch: the task announced it will block but its context save
    /// may not be complete. Wakers must not queue it yet.
    const BLOCKING: u8 = 3;
    /// A waker caught the task at `BLOCKING`: the wake is owed, and the
    /// worker completing the switch pays it (requeues the task).
    const WOKEN: u8 = 4;

    /// Written at the lowest address of every stack; clobbered means the
    /// task overflowed (there are no guard pages).
    const STACK_CANARY: u64 = 0x5AFE_57AC_CA4A_B1E5;

    /// Why a task switched back to its worker.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub(crate) enum Reason {
        Blocked,
        Done,
    }

    /// One rank task. The non-atomic fields are only touched by its home
    /// worker thread (see module docs: home-thread tasks); `state` and
    /// `deadline_ns` carry the cross-thread handshakes.
    struct Task {
        state: AtomicU8,
        /// Saved stack pointer while suspended. Written and read by the
        /// home worker, in the context switch.
        sp: Cell<*mut u8>,
        /// Lowest address of this task's stack (canary location).
        stack_lo: *mut u8,
        /// Receive deadline while blocked, as nanoseconds relative to the
        /// scheduler epoch; 0 = none. Only the home worker touches it
        /// (the task in `block`, the watchdog in `expire_deadlines`); it
        /// stays atomic until a model test of the block protocol can
        /// check a plain cell against it.
        deadline_ns: AtomicU64,
        /// Set by the watchdog before a timeout wake.
        timed_out: Cell<bool>,
        /// The rank body; taken on first entry.
        body: UnsafeCell<Option<Box<dyn FnOnce() + Send>>>,
    }

    // SAFETY: `sp`/`timed_out`/`body` are only accessed by the task's
    // home worker thread, or before the workers spawn and after they are
    // joined. `state` and `deadline_ns` are atomic; `stack_lo` is
    // immutable.
    unsafe impl Send for Task {}
    unsafe impl Sync for Task {}

    // ----- stack slabs ---------------------------------------------------

    /// Address space per slab: big enough that 100k ranks need a few
    /// hundred mappings, small enough to not trip overcommit heuristics
    /// on modest machines.
    const SLAB_BYTES: usize = 256 << 20;
    /// Idle slabs kept for the next world: 1 GiB of address space, and
    /// room for the 3 slabs of a paper-size world at the default stack.
    const POOLED_SLABS: usize = 4;
    /// Initial frame planted at each stack top (see `TaskSched::new`).
    const FRAME_BYTES: usize = 56;
    /// Offset of stack 0 in its slab: 64 B before the end of the first
    /// page, so that every stack's canary shares a page with the top
    /// frame of the stack below it (see module docs).
    const FIRST_STACK: usize = 4096 - 64;
    // Slab bases and stack sizes are page multiples, so every stack top
    // is FIRST_STACK modulo a page: 16-aligned, as the trampoline needs.
    const _: () = assert!(FIRST_STACK.is_multiple_of(16));

    /// Stacks in one slab of `stack_size`-byte stacks.
    fn stacks_per_slab(stack_size: usize) -> usize {
        (SLAB_BYTES / stack_size).max(1)
    }

    /// Bytes of one slab of `stack_size`-byte stacks: every stack plus
    /// the first page that holds stack 0's canary.
    fn slab_bytes(stack_size: usize) -> usize {
        stacks_per_slab(stack_size) * stack_size + 4096
    }

    /// Offset of stack `i`'s lowest byte (its canary) from the slab base;
    /// its top is `stack_size` above, where stack `i + 1`'s canary lies.
    fn stack_offset(i: usize, stack_size: usize) -> usize {
        FIRST_STACK + i * stack_size
    }

    /// A slab holding many task stacks — one allocation per 512 stacks
    /// at the default stack size, so six-figure rank counts stay far
    /// under `vm.max_map_count`.
    struct StackSlab {
        base: *mut u8,
        stack_size: usize,
    }

    // SAFETY: the slab is raw memory; all aliasing is managed by the
    // scheduler (each stack range is used by exactly one task) and the
    // pool (a slab is owned by one scheduler or by the pool, never both).
    unsafe impl Send for StackSlab {}
    unsafe impl Sync for StackSlab {}

    /// Idle slabs, most recently returned world first. See module docs.
    static POOL: Mutex<Vec<StackSlab>> = Mutex::new(Vec::new());

    impl StackSlab {
        fn layout(stack_size: usize) -> std::alloc::Layout {
            std::alloc::Layout::from_size_align(slab_bytes(stack_size), 4096)
                .expect("stack slab layout")
        }

        /// `count` slabs of `stack_size`-byte stacks: pooled ones first,
        /// taken from the front in the order the last world used them,
        /// then fresh allocations.
        fn take(stack_size: usize, count: usize, allocated: &Counter) -> Vec<StackSlab> {
            let mut slabs = Vec::with_capacity(count);
            {
                let mut pool = POOL.lock();
                let mut i = 0;
                while i < pool.len() && slabs.len() < count {
                    if pool[i].stack_size == stack_size {
                        slabs.push(pool.remove(i));
                    } else {
                        i += 1;
                    }
                }
            }
            while slabs.len() < count {
                // SAFETY: the layout is non-zero; allocation checked below.
                let base = unsafe { std::alloc::alloc(Self::layout(stack_size)) };
                assert!(!base.is_null(), "stack slab allocation failed");
                allocated.inc();
                slabs.push(StackSlab { base, stack_size });
            }
            slabs
        }

        /// Hand a dropped world's slabs to the pool, in the order it used
        /// them, ahead of older ones; whatever passes `POOLED_SLABS` is
        /// freed (outside the lock).
        fn give_back(slabs: Vec<StackSlab>) {
            let evicted = {
                let mut pool = POOL.lock();
                pool.splice(0..0, slabs);
                let keep = pool.len().min(POOLED_SLABS);
                pool.split_off(keep)
            };
            drop(evicted);
        }

        /// Lowest byte (the canary) of stack `i`.
        fn stack_lo(&self, i: usize) -> *mut u8 {
            debug_assert!(i < stacks_per_slab(self.stack_size));
            // SAFETY: i < stacks_per_slab, so the stack and its top lie
            // inside the slab (`slab_bytes`).
            unsafe { self.base.add(stack_offset(i, self.stack_size)) }
        }
    }

    impl Drop for StackSlab {
        fn drop(&mut self) {
            // SAFETY: allocated with this layout in `StackSlab::take`.
            unsafe { std::alloc::dealloc(self.base, Self::layout(self.stack_size)) };
        }
    }

    // ----- wake injectors ------------------------------------------------

    /// Cross-thread face of one worker: the wake injector.
    struct WorkerShared {
        injector: Mutex<Injector>,
        cv: Condvar,
    }

    /// What other threads hand a worker, under its injector lock.
    #[derive(Default)]
    struct Injector {
        /// Tasks woken by other threads, in wake order.
        woken: Vec<u32>,
        /// True while the worker is (about to be) parked in `cv`, so a
        /// waker holding the lock can skip the futex syscall when the
        /// worker is busy.
        sleeping: bool,
    }

    /// Scheduler telemetry, resolved once per world: the counters a
    /// worker adds to once per world (busy and idle time) or only on the
    /// deadlock path. Resumes, wakes and run-queue depths are counted
    /// per thread (`crate::tally`).
    struct SchedMetrics {
        timeouts: Arc<Counter>,
        busy_nanos: Arc<Counter>,
        idle_nanos: Arc<Counter>,
    }

    /// The per-world scheduler: tasks, workers, stacks.
    pub(crate) struct TaskSched {
        /// Distinguishes schedulers when worlds nest (TLS sanity checks).
        id: u64,
        /// Reference point for `Task::deadline_ns`.
        epoch: Instant,
        tasks: Vec<Task>,
        workers: Vec<WorkerShared>,
        /// Ranks per worker: rank r's *home* worker, where it always
        /// runs, is r / chunk.
        chunk: usize,
        /// How often an *idle* worker rescans its blocked tasks for
        /// expired receive deadlines.
        watchdog_period: Duration,
        /// Tasks not yet `DONE`; workers exit when this hits zero.
        live: AtomicUsize,
        /// Tasks that are `READY` (queued or executing) or mid-switch.
        /// The watchdog may declare timeouts only at zero — see module
        /// docs (quiescence-gated watchdog).
        runnable: AtomicUsize,
        /// Set when a worker panics (a clobbered canary): every worker
        /// leaves its loop and `run` re-raises the panic. Publishes no
        /// other data; `release_workers` after the store is what makes
        /// parked workers see it.
        poisoned: AtomicBool,
        metrics: SchedMetrics,
        /// The stacks, in rank order; returned to the pool on drop.
        slabs: Vec<StackSlab>,
    }

    impl Drop for TaskSched {
        fn drop(&mut self) {
            // SAFETY (of reusing the stacks): the scheduler drops after
            // `run` joined every worker, and a `DONE` task never runs
            // again; its stack holds only the dead frame of its final
            // switch. A task that is not `DONE` may be suspended with
            // live values on its stack, so its world's slabs are freed
            // instead of reused. The next world rewrites every canary and
            // initial frame it uses.
            if self.tasks.iter_mut().all(|t| *t.state.get_mut() == DONE) {
                StackSlab::give_back(std::mem::take(&mut self.slabs));
            }
        }
    }

    // ----- worker-thread TLS ---------------------------------------------

    /// Worker-private state, reachable from task context via TLS so a
    /// task blocking itself (or waking a sibling on the same worker)
    /// touches no locks.
    struct WorkerCtl {
        sched_id: u64,
        index: usize,
        /// The ranks this worker runs: its home range.
        home: std::ops::Range<usize>,
        /// Copy of the scheduler epoch (deadline encoding).
        epoch: Instant,
        /// The worker loop's saved context while a task runs.
        sched_sp: Cell<*mut u8>,
        /// Why the last task switch returned to the worker.
        reason: Cell<Reason>,
        /// This worker's runnable home tasks, FIFO. A task is queued at
        /// most once, so the capacity of the home range is never
        /// exceeded.
        runq: RefCell<VecDeque<u32>>,
    }

    thread_local! {
        static WORKER: Cell<*const WorkerCtl> = const { Cell::new(std::ptr::null()) };
        static CURRENT: Cell<*const Task> = const { Cell::new(std::ptr::null()) };
    }

    /// Handle to the task currently executing on this thread, if any.
    /// `None` on rank threads of the thread engine (and off-worker code).
    pub(crate) struct CurrentTask {
        task: *const Task,
    }

    pub(crate) fn current() -> Option<CurrentTask> {
        let t = CURRENT.with(|c| c.get());
        if t.is_null() {
            None
        } else {
            Some(CurrentTask { task: t })
        }
    }

    impl CurrentTask {
        fn task(&self) -> &Task {
            // SAFETY: the pointer came from CURRENT, which the worker
            // sets for exactly the duration of this task's execution, and
            // `CurrentTask` is neither Send nor returned across switches.
            unsafe { &*self.task }
        }

        /// Announce that the task is about to block (phase one of the
        /// two-phase block). Must be called while holding the lock under
        /// which its waker will find it — the mailbox on which the
        /// wake-hint was registered, or the meetings table of the
        /// collective it waits for: the lock orders this store against the
        /// waker's read, so a waker always finds `BLOCKING` or `BLOCKED`.
        pub(crate) fn prepare_block(&self) {
            self.task().state.store(BLOCKING, Ordering::Release);
        }

        /// Switch to the scheduler until woken (phase two). Call after
        /// [`CurrentTask::prepare_block`], with no locks held.
        pub(crate) fn block(&self, deadline: Instant) {
            let t = self.task();
            let ctl = WORKER.with(|w| w.get());
            debug_assert!(!ctl.is_null());
            // SAFETY: installed by this thread's worker loop; outlives
            // every task switch on this thread.
            let epoch = unsafe { (*ctl).epoch };
            let rel = deadline.saturating_duration_since(epoch).as_nanos() as u64;
            t.deadline_ns.store(rel.max(1), Ordering::Release);
            switch_to_worker(Reason::Blocked);
            t.deadline_ns.store(0, Ordering::Release);
        }

        /// Whether the last wake came from the deadline watchdog rather
        /// than a sender (reading clears the flag).
        pub(crate) fn take_timed_out(&self) -> bool {
            self.task().timed_out.replace(false)
        }
    }

    /// Suspend the running task and resume its worker loop.
    fn switch_to_worker(reason: Reason) {
        let ctl = WORKER.with(|w| w.get());
        let task = CURRENT.with(|c| c.get());
        debug_assert!(!ctl.is_null() && !task.is_null());
        // SAFETY: both pointers are installed by this thread's worker
        // loop and outlive the task; the switch returns here only when
        // the task's worker resumes this exact saved context.
        unsafe {
            (*ctl).reason.set(reason);
            hcft_simmpi_ctx_switch((*task).sp.as_ptr(), (*ctl).sched_sp.get());
        }
    }

    /// First-run entry for every task, reached from the trampoline with
    /// the ABI in a normal post-`call` state.
    #[no_mangle]
    extern "C" fn hcft_simmpi_task_entry(task: *const Task) -> ! {
        {
            // SAFETY: the trampoline passes the pointer the scheduler
            // planted in the initial frame; the task outlives its run.
            let t = unsafe { &*task };
            let body = unsafe { (*t.body.get()).take() }.expect("task body runs exactly once");
            // Rank panics are caught (and recorded) inside the body by the
            // runtime; this catch is the backstop that keeps any stray
            // unwind from reaching the trampoline frame, which has no
            // unwind tables.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
        }
        loop {
            switch_to_worker(Reason::Done);
        }
    }

    // ----- scheduler -----------------------------------------------------

    impl TaskSched {
        /// Build a scheduler running `bodies` (one per rank, rank order)
        /// on `workers` OS threads with `stack_size`-byte task stacks.
        pub(crate) fn new(
            workers: usize,
            stack_size: usize,
            watchdog_period: Duration,
            bodies: Vec<Box<dyn FnOnce() + Send>>,
        ) -> Arc<Self> {
            static NEXT_ID: AtomicU64 = AtomicU64::new(1);
            let n = bodies.len();
            assert!(n > 0 && workers > 0);
            let workers = workers.min(n);
            // The runtime has range-checked the size (64 KiB to 1 GiB);
            // the floor is what keeps the initial frame and the panic
            // machinery inside each stack. Page-align the stack span so
            // every stack top is 16-aligned.
            assert!(stack_size >= 64 * 1024, "task stack below 64 KiB");
            let stack_size = stack_size & !4095;
            let reg = Registry::global();
            let per_slab = stacks_per_slab(stack_size);
            let slabs = StackSlab::take(
                stack_size,
                n.div_ceil(per_slab),
                &reg.counter("simmpi.sched.stack_slabs_allocated"),
            );
            let tasks: Vec<Task> = (0..n)
                .map(|i| {
                    let lo = slabs[i / per_slab].stack_lo(i % per_slab);
                    // SAFETY: lo is the bottom of a stack no task uses:
                    // fresh, or pooled after its last world's scheduler
                    // dropped with every task DONE. Written on every
                    // world, so a reused slab never keeps an old canary.
                    unsafe { (lo as *mut u64).write(STACK_CANARY) };
                    Task {
                        state: AtomicU8::new(READY),
                        sp: Cell::new(std::ptr::null_mut()),
                        stack_lo: lo,
                        deadline_ns: AtomicU64::new(0),
                        timed_out: Cell::new(false),
                        body: UnsafeCell::new(None),
                    }
                })
                .collect();
            // The task vector is complete: pointers into it are stable, so
            // the initial frames can be planted now.
            for (task, body) in tasks.iter().zip(bodies) {
                // SAFETY: single-threaded setup, before any worker runs.
                unsafe { *task.body.get() = Some(body) };
                // Initial frame, popped by the first context switch into
                // the task (descending from the 16-aligned stack top,
                // which is the next stack's canary address):
                //   [top-8]  return address -> trampoline
                //   [top-16] rbp  [top-24] rbx  [top-32] r12 = task ptr
                //   [top-40] r13  [top-48] r14  [top-56] r15  <- saved rsp
                // SAFETY: the frame lies entirely within this task's
                // stack, strictly below the next stack's canary. It is
                // replanted on every world, reused slabs included.
                unsafe {
                    let sp = task.stack_lo.add(stack_size - FRAME_BYTES);
                    (sp as *mut usize).write_bytes(0, 6);
                    (sp.add(24) as *mut usize).write(task as *const Task as usize);
                    (sp.add(48) as *mut usize).write(hcft_simmpi_task_tramp as *const () as usize);
                    task.sp.set(sp);
                }
            }
            let chunk = n.div_ceil(workers);
            Arc::new(TaskSched {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                tasks,
                workers: (0..workers)
                    .map(|_| WorkerShared {
                        injector: Mutex::new(Injector::default()),
                        cv: Condvar::new(),
                    })
                    .collect(),
                chunk,
                watchdog_period,
                live: AtomicUsize::new(n),
                runnable: AtomicUsize::new(n),
                poisoned: AtomicBool::new(false),
                metrics: SchedMetrics {
                    timeouts: reg.counter("simmpi.sched.timeouts"),
                    busy_nanos: reg.counter("simmpi.sched.busy_nanos"),
                    idle_nanos: reg.counter("simmpi.sched.idle_nanos"),
                },
                slabs,
            })
        }

        /// Make a blocked task runnable: [`TaskSched::wake_all`] of one.
        pub(crate) fn wake(&self, tid: u32) {
            self.wake_all(&mut [tid]);
        }

        /// Make every blocked task in `tids` runnable. Callable from any
        /// thread; per task, the CAS guarantees exactly one waker wins
        /// even when a sender or a completing collective member races the
        /// deadline watchdog. Waking a task that is not blocked (a stale
        /// channel hint, or a member re-checking its meeting after a
        /// spurious resume) is a harmless no-op.
        ///
        /// The tasks this call owns are counted into `runnable` with one
        /// add and then queued in one batch per home worker: pushed
        /// straight onto the caller's own run queue when the caller is
        /// that worker, else through one injector lock and at most one
        /// notify per remote worker. `tids` is reordered and overwritten.
        pub(crate) fn wake_all(&self, tids: &mut [u32]) {
            let mut owned = 0;
            for i in 0..tids.len() {
                if self.claim_wake(tids[i]) {
                    tids[owned] = tids[i];
                    owned += 1;
                }
            }
            if owned == 0 {
                return;
            }
            let owned = &mut tids[..owned];
            self.runnable.fetch_add(owned.len(), Ordering::AcqRel);
            // Homes are `tid / chunk`, so tid order groups the batch by
            // worker.
            owned.sort_unstable();
            // SAFETY: a non-null pointer was installed by this thread's
            // worker loop, which outlives every task it runs.
            let here = WORKER
                .with(|w| unsafe { w.get().as_ref() })
                .filter(|ctl| ctl.sched_id == self.id);
            for batch in owned.chunk_by(|&a, &b| a as usize / self.chunk == b as usize / self.chunk)
            {
                let home = batch[0] as usize / self.chunk;
                if let Some(ctl) = here.filter(|ctl| ctl.index == home) {
                    // Same-worker fast path: no lock, no condvar.
                    ctl.runq.borrow_mut().extend(batch);
                    tally::add(Count::WakesLocal, batch.len() as u64);
                    continue;
                }
                tally::add(Count::WakesRemote, batch.len() as u64);
                let ws = &self.workers[home];
                let mut inj = ws.injector.lock();
                inj.woken.extend_from_slice(batch);
                let sleeping = inj.sleeping;
                drop(inj);
                if sleeping {
                    ws.cv.notify_one();
                }
            }
        }

        /// The wake CAS of one task: true when the caller now owns its
        /// enqueue (it was `BLOCKED`). A task caught at `BLOCKING` is
        /// marked `WOKEN`, and the worker completing its switch queues
        /// it; `READY` or `WOKEN` means another party owns the wake, and
        /// `DONE` has nothing to wake.
        fn claim_wake(&self, tid: u32) -> bool {
            let t = &self.tasks[tid as usize];
            let mut state = t.state.load(Ordering::Relaxed);
            loop {
                let (from, to) = match state {
                    BLOCKED => (BLOCKED, READY),
                    // Mid-switch: the context save may be incomplete.
                    // Hand the wake debt to the switching worker.
                    BLOCKING => (BLOCKING, WOKEN),
                    _ => return false,
                };
                match t
                    .state
                    .compare_exchange_weak(from, to, Ordering::AcqRel, Ordering::Relaxed)
                {
                    Ok(_) => return from == BLOCKED,
                    Err(s) => state = s,
                }
            }
        }

        /// Spawn the worker pool, run every task to completion, join.
        /// `on_worker_exit` runs once per worker thread after its last
        /// task finishes: the hook that flushes its buffer magazine and
        /// publishes its tallies.
        ///
        /// A worker that panics (a clobbered canary) poisons the world:
        /// the others leave their loops, every worker is joined, the
        /// bodies of tasks that never started are dropped, and only then
        /// is the first worker panic re-raised.
        pub(crate) fn run(self: &Arc<Self>, on_worker_exit: impl Fn() + Send + Sync + 'static) {
            let on_exit = Arc::new(on_worker_exit);
            let handles: Vec<_> = (0..self.workers.len())
                .map(|w| {
                    let sched = Arc::clone(self);
                    let on_exit = Arc::clone(&on_exit);
                    std::thread::Builder::new()
                        .name(format!("simmpi-worker-{w}"))
                        .spawn(move || {
                            let main = std::panic::AssertUnwindSafe(|| sched.worker_main(w));
                            if let Err(e) = std::panic::catch_unwind(main) {
                                sched.poisoned.store(true, Ordering::Release);
                                sched.release_workers();
                                std::panic::resume_unwind(e);
                            }
                            on_exit();
                        })
                        .expect("spawn simmpi worker")
                })
                .collect();
            let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
            if self.poisoned.load(Ordering::Acquire) {
                for t in &self.tasks {
                    // SAFETY: every worker has been joined, so this thread
                    // is the only one left touching any task.
                    if unsafe { (*t.body.get()).take() }.is_some() {
                        // Never started: nothing lives on its stack. The
                        // body holds the world's shared state, which holds
                        // this scheduler, so dropping it lets both go.
                        t.state.store(DONE, Ordering::Release);
                    }
                }
            }
            for r in joined {
                if let Err(e) = r {
                    let msg = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    panic!("simmpi worker panicked: {msg}");
                }
            }
        }

        /// One worker: run tasks until the whole world is done.
        fn worker_main(&self, index: usize) {
            let lo = (index * self.chunk).min(self.tasks.len());
            let hi = (lo + self.chunk).min(self.tasks.len());
            let ctl = WorkerCtl {
                sched_id: self.id,
                index,
                home: lo..hi,
                epoch: self.epoch,
                sched_sp: Cell::new(std::ptr::null_mut()),
                reason: Cell::new(Reason::Blocked),
                runq: RefCell::new((lo as u32..hi as u32).collect()),
            };
            WORKER.with(|w| w.set(&ctl as *const WorkerCtl));
            let started = Instant::now();
            let mut idle = Duration::ZERO;
            while self.live.load(Ordering::Acquire) > 0 && !self.poisoned.load(Ordering::Acquire) {
                let next = ctl.runq.borrow_mut().pop_front();
                match next.or_else(|| self.drain_injector(&ctl)) {
                    Some(tid) => self.run_one(&ctl, tid),
                    None => idle += self.idle_wait(&ctl),
                }
            }
            WORKER.with(|w| w.set(std::ptr::null()));
            let total = started.elapsed();
            let busy = total.saturating_sub(idle);
            self.metrics.busy_nanos.add(busy.as_nanos() as u64);
            self.metrics.idle_nanos.add(idle.as_nanos() as u64);
            let reg = Registry::global();
            reg.gauge(&format!("simmpi.sched.worker.{index}.busy_nanos"))
                .set(busy.as_nanos() as f64);
            reg.gauge(&format!("simmpi.sched.worker.{index}.idle_nanos"))
                .set(idle.as_nanos() as f64);
        }

        /// Resume one task and settle its post-switch state.
        fn run_one(&self, ctl: &WorkerCtl, tid: u32) {
            let t = &self.tasks[tid as usize];
            tally::add(Count::Resumes, 1);
            CURRENT.with(|c| c.set(t as *const Task));
            // SAFETY: t.sp holds a context previously saved on (or
            // planted in) this task's stack, by this thread: only the
            // home worker runs a task, and a queued task is not running.
            unsafe { hcft_simmpi_ctx_switch(ctl.sched_sp.as_ptr(), t.sp.get()) };
            CURRENT.with(|c| c.set(std::ptr::null()));
            let reason = ctl.reason.get();
            if reason == Reason::Done {
                // Before the canary check, so that a task that returned
                // and overflowed still counts as finished when its
                // poisoned world drops (see `Drop for TaskSched`).
                t.state.store(DONE, Ordering::Release);
            }
            // SAFETY: stack_lo points at this task's canary.
            let canary = unsafe { (t.stack_lo as *const u64).read() };
            assert!(
                canary == STACK_CANARY,
                "simmpi task stack overflow (rank {tid}): raise WorldConfig.stack_size \
                 or HCFT_SIMMPI_STACK_KB"
            );
            match reason {
                Reason::Done => {
                    self.runnable.fetch_sub(1, Ordering::AcqRel);
                    if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        // Last task in the world: let the pool exit.
                        self.release_workers();
                    }
                }
                Reason::Blocked => {
                    // Phase two of the block: publish the saved context.
                    if t.state
                        .compare_exchange(BLOCKING, BLOCKED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.runnable.fetch_sub(1, Ordering::AcqRel);
                    } else {
                        // A waker caught the task at BLOCKING (now WOKEN).
                        // The save is complete, so pay the wake debt here:
                        // the task never counted out of `runnable`.
                        t.state.store(READY, Ordering::Release);
                        ctl.runq.borrow_mut().push_back(tid);
                    }
                }
            }
        }

        /// Wake every parked worker so it re-reads `live` and `poisoned`.
        /// Taking each injector lock orders the wake after the worker's
        /// re-check in `idle_wait`, so no worker sleeps through it.
        fn release_workers(&self) {
            for ws in &self.workers {
                let _inj = ws.injector.lock();
                ws.cv.notify_all();
            }
        }

        /// Move injected wakes onto this worker's (empty) run queue;
        /// returns the first, if any.
        fn drain_injector(&self, ctl: &WorkerCtl) -> Option<u32> {
            let mut inj = self.workers[ctl.index].injector.lock();
            if inj.woken.is_empty() {
                return None;
            }
            let mut runq = ctl.runq.borrow_mut();
            runq.extend(inj.woken.drain(..));
            drop(inj);
            let first = runq.pop_front();
            tally::observe_runq_depth(runq.len() as u64);
            first
        }

        /// Nothing runnable here: scan for expired deadlines, then park
        /// on the injector condvar for up to one watchdog period. Returns
        /// the time spent (idle-nanos accounting).
        fn idle_wait(&self, ctl: &WorkerCtl) -> Duration {
            let start = Instant::now();
            tally::observe_runq_depth(0);
            let ws = &self.workers[ctl.index];
            if self.expire_deadlines(ctl, Instant::now()) > 0 {
                return start.elapsed();
            }
            let mut inj = ws.injector.lock();
            // Re-check liveness under the lock: the finishing (or
            // poisoning) worker updates `live` (or `poisoned`) *before*
            // taking this lock to notify, so a read here that still says
            // "run on" guarantees its notify is still to come.
            if inj.woken.is_empty()
                && self.live.load(Ordering::Acquire) > 0
                && !self.poisoned.load(Ordering::Acquire)
            {
                inj.sleeping = true;
                let _ = ws
                    .cv
                    .wait_until(&mut inj, Instant::now() + self.watchdog_period);
                inj.sleeping = false;
            }
            start.elapsed()
        }

        /// Wake owned tasks whose receive deadline has passed, marking
        /// them timed out so they resume on the deadlock path.
        ///
        /// Gated on global quiescence: with any task `READY` somewhere, a
        /// message that satisfies a lapsed deadline may still be coming
        /// (every sender is itself a running task), so firing would be a
        /// false positive — the long-computing-rank bug this gate fixes.
        /// Conversely `runnable == 0` with an expired deadline is a true
        /// deadlock. Each worker scans only its home range; in a
        /// quiescent world every worker is idle, so all ranges get
        /// scanned.
        fn expire_deadlines(&self, ctl: &WorkerCtl, now: Instant) -> usize {
            if self.runnable.load(Ordering::Acquire) > 0 {
                return 0;
            }
            let now_ns = now.saturating_duration_since(self.epoch).as_nanos() as u64;
            let mut woken = 0;
            for tid in ctl.home.clone() {
                let t = &self.tasks[tid];
                if t.state.load(Ordering::Acquire) != BLOCKED {
                    continue;
                }
                // One read suffices: only the task writes its deadline,
                // and it runs on this thread, so the deadline cannot
                // change before the CAS. A failed CAS means a sender's
                // wake got there first.
                let d = t.deadline_ns.load(Ordering::Acquire);
                if d == 0 || now_ns < d {
                    continue;
                }
                if t.state
                    .compare_exchange(BLOCKED, READY, Ordering::AcqRel, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                self.runnable.fetch_add(1, Ordering::AcqRel);
                t.timed_out.set(true);
                self.metrics.timeouts.inc();
                ctl.runq.borrow_mut().push_back(tid as u32);
                woken += 1;
            }
            woken
        }
    }

    /// Overwrite the running task's canary, as an overflow would.
    #[cfg(test)]
    pub(crate) fn clobber_current_canary() {
        let t = CURRENT.with(|c| c.get());
        assert!(!t.is_null(), "not running on a task");
        // SAFETY: the canary is the lowest word of the running task's own
        // stack, far below its stack pointer.
        unsafe { ((*t).stack_lo as *mut u64).write(!STACK_CANARY) };
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{Engine, World, WorldConfig};

        /// Every stack of a slab, at the smallest, default, a large and
        /// the largest stack size: canary and top inside the allocation,
        /// the planted frame strictly below the next stack's canary and on
        /// that canary's page, every top 16-aligned.
        #[test]
        fn each_canary_shares_a_page_with_the_top_frame_below_it() {
            for stack_size in [64 << 10, 512 << 10, 64 << 20, 1 << 30] {
                let per_slab = stacks_per_slab(stack_size);
                let bytes = slab_bytes(stack_size);
                assert!(per_slab >= 1 && per_slab * stack_size <= SLAB_BYTES.max(stack_size));
                for i in 0..per_slab {
                    let lo = stack_offset(i, stack_size);
                    let top = lo + stack_size;
                    assert!(lo + 8 <= bytes && top <= bytes, "stack {i} leaves the slab");
                    assert_eq!(top % 16, 0, "stack {i} top misaligned");
                    let frame = top - FRAME_BYTES;
                    assert!(frame >= lo + 8, "stack {i}: frame reaches its canary");
                    if i + 1 < per_slab {
                        let next_canary = stack_offset(i + 1, stack_size);
                        assert!(top - 1 < next_canary, "stack {i}: frame overlaps");
                        assert_eq!(frame / 4096, next_canary / 4096, "stack {i}: frame page");
                        assert_eq!((top - 1) / 4096, next_canary / 4096, "stack {i}: top page");
                    }
                }
            }
        }

        /// On one worker, tasks woken in a known order resume in that
        /// order: a woken task goes behind the ones woken before it.
        #[test]
        fn woken_tasks_resume_in_wake_order() {
            // Ranks 0..4 start in rank order and block on a receive from
            // rank 4, which then wakes them in this order and returns.
            const WAKE_ORDER: [usize; 4] = [2, 0, 3, 1];
            let resumed = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&resumed);
            let cfg = WorldConfig {
                workers: 1,
                engine: Engine::Tasks,
                ..WorldConfig::default()
            };
            World::run_with(5, cfg, move |c| {
                if c.rank() == 4 {
                    for dst in WAKE_ORDER {
                        c.send_bytes(dst, 0, &[1]);
                    }
                } else {
                    c.recv_bytes(4, 0);
                    log.lock().push(c.rank());
                }
            });
            assert_eq!(*resumed.lock(), WAKE_ORDER);
        }

        /// Run a 4-rank world whose rank `victim` (if any) clobbers its own
        /// canary and returns, on a helper thread so that a hang fails the
        /// test instead of stalling it. Returns the outputs or the panic.
        fn four_ranks(workers: usize, victim: Option<usize>) -> Result<Vec<usize>, String> {
            let cfg = WorldConfig {
                workers,
                engine: Engine::Tasks,
                // A size no other test uses, so that the next world here
                // takes the slab this one returns.
                stack_size: 200 << 10,
                ..WorldConfig::default()
            };
            let (tx, rx) = std::sync::mpsc::channel();
            let helper = std::thread::spawn(move || {
                let run = std::panic::catch_unwind(|| {
                    World::run_with(4, cfg, move |c| {
                        if Some(c.rank()) == victim {
                            clobber_current_canary();
                        }
                        c.rank()
                    })
                    .outputs
                });
                let _ = tx
                    .send(run.map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_default()));
            });
            let result = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("world hung: workers {workers}, victim {victim:?}"));
            helper.join().expect("helper thread");
            result
        }

        /// An overflow on rank 0, mid-slab or on worker 1 ends the world
        /// with the overflow panic, and the next world, on the slab that
        /// world handed back, runs clean.
        #[test]
        fn overflow_on_any_worker_ends_the_world_and_its_slab_is_reused() {
            for workers in [1, 2] {
                for victim in 0..4 {
                    let err = four_ranks(workers, Some(victim))
                        .expect_err("a clobbered canary must panic");
                    assert!(
                        err.contains(&format!("stack overflow (rank {victim})")),
                        "workers {workers}, victim {victim}: {err}"
                    );
                    assert_eq!(four_ranks(workers, None), Ok(vec![0, 1, 2, 3]));
                }
            }
        }
    }
}

/// Stub for targets without the task engine: `current()` is always
/// `None` and the scheduler type is never instantiated (the runtime
/// resolves the engine to thread-per-rank when `SUPPORTED` is false).
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod stub {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    pub(crate) struct TaskSched;

    pub(crate) struct CurrentTask;

    pub(crate) fn current() -> Option<CurrentTask> {
        None
    }

    impl CurrentTask {
        pub(crate) fn prepare_block(&self) {}
        pub(crate) fn block(&self, _deadline: Instant) {}
        pub(crate) fn take_timed_out(&self) -> bool {
            false
        }
    }

    impl TaskSched {
        pub(crate) fn new(
            _workers: usize,
            _stack_size: usize,
            _watchdog_period: Duration,
            _bodies: Vec<Box<dyn FnOnce() + Send>>,
        ) -> Arc<Self> {
            unreachable!("task engine unsupported on this target")
        }

        pub(crate) fn wake(&self, _tid: u32) {}

        pub(crate) fn wake_all(&self, _tids: &mut [u32]) {}

        pub(crate) fn run(self: &Arc<Self>, _on_worker_exit: impl Fn() + Send + Sync + 'static) {}
    }
}
