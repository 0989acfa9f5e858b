//! World construction: simulated ranks over shared mailboxes.
//!
//! Two execution engines share one mailbox fabric:
//!
//! * **Tasks** (the default; x86_64 Linux only): rank bodies run as
//!   stackful coroutines multiplexed M:N onto a fixed worker pool
//!   (`WorldConfig::workers`, default = cores) by the `sched` module. A
//!   blocking receive context-switches to the next runnable rank in tens
//!   of nanoseconds, so six-figure rank counts fit on one box — far past
//!   the kernel's thread limits — and a sender wakes its receiver by
//!   queueing a task id, not a futex syscall.
//! * **Threads**: one OS thread per rank, receivers parked on their
//!   mailbox's condvar after a yield-spin budget. 1088 ranks (the
//!   paper's largest job) is comfortably within this engine; it is the
//!   only engine on other targets, and x86_64 tests reach it through
//!   [`WorldConfig::engine`].
//!
//! Each rank's mailbox is one lock over its channel queues plus one
//! condvar. A message's channel (ctx, src, tag) lives under that one
//! lock, so FIFO per channel holds by construction. On the task engine
//! a mailbox never has more concurrent senders than there are workers,
//! so one lock is all it needs.
//!
//! The per-operation counters (mailbox traffic, scheduler resumes and
//! wakes, pool checkouts, collective calls) are counted by the thread
//! doing the work and published to the global registry when that thread
//! retires from its world: a worker in the scheduler's exit hook, a rank
//! thread at its exit (`crate::tally`). Every total is exact once
//! `World::run*` returns.
//!
//! Runtime settings come from one place: [`WorldConfig::resolve`] takes
//! an explicit field first, then (for the stack size) the process-wide
//! snapshot of `HCFT_SIMMPI_STACK_KB`, then the built-in default.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use hcft_telemetry::{Counter, HcftError, Registry};
use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::rendezvous::Meetings;
use crate::replay::{ReplayPlan, ReplayState, ReplayWorldResult};
use crate::sched::{self, TaskSched};
use crate::tally::{self, Count};
use crate::trace::TraceRecorder;

/// Message-queue key: (communicator context, sender comm-rank, tag).
pub(crate) type MsgKey = (u64, u32, u32);

/// Per-rank stack size when neither `WorldConfig` nor
/// `HCFT_SIMMPI_STACK_KB` says otherwise.
const DEFAULT_STACK_SIZE: usize = 512 * 1024;
/// Accepted per-rank stack sizes in bytes, explicit or from the
/// environment. The floor keeps headroom for the panic machinery the
/// deadlock watchdog relies on; the ceiling (1 GiB) catches byte-vs-KiB
/// confusion before the slab allocator tries to honour it times the rank
/// count.
const STACK_SIZES: RangeInclusive<usize> = 64 * 1024..=1 << 30;

/// Yield slices a thread-engine receiver burns before parking on its
/// mailbox's condvar.
const YIELD_SPINS: u32 = 4;

/// Parse `HCFT_SIMMPI_STACK_KB` (`None` = unset) into bytes. A set but
/// malformed value — not an integer, or outside 64 KiB..=1 GiB — is an
/// error naming the variable.
fn parse_stack_kb(raw: Option<&str>) -> Result<Option<usize>, String> {
    let kb = STACK_SIZES.start() / 1024..=STACK_SIZES.end() / 1024;
    raw.map(|raw| {
        raw.trim()
            .parse::<usize>()
            .ok()
            .filter(|v| kb.contains(v))
            .map(|v| v * 1024)
            .ok_or_else(|| {
                format!(
                    "HCFT_SIMMPI_STACK_KB must be an integer in {}..={}, got {raw:?}",
                    kb.start(),
                    kb.end()
                )
            })
    })
    .transpose()
}

/// The process-wide `HCFT_SIMMPI_STACK_KB` snapshot, taken at the first
/// world (or [`WorldConfig::resolve`]) and never re-read: a long-running
/// service sees one environment for its whole lifetime.
fn env_stack_size() -> Result<Option<usize>, HcftError> {
    static ENV: OnceLock<Result<Option<usize>, String>> = OnceLock::new();
    ENV.get_or_init(|| {
        let raw = std::env::var_os("HCFT_SIMMPI_STACK_KB");
        parse_stack_kb(raw.map(|v| v.to_string_lossy().into_owned()).as_deref())
    })
    .clone()
    .map_err(HcftError::Config)
}

/// FNV-1a over the key words. The default SipHash hasher is a measurable
/// cost on the per-message path (the queue map is looked up twice per
/// message), and mailbox keys are process-internal — no DoS surface.
#[derive(Default)]
pub(crate) struct FnvHasher(u64);

impl FnvHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let h = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        self.0 = (h ^ word).wrapping_mul(0x100_0000_01b3);
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(b as u64);
        }
    }

    // The key tuple hashes as three fixed-width writes; folding each as
    // one word instead of byte-at-a-time cuts the dependent-multiply
    // chain from 16 to 3 on the per-message map lookups.
    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.mix(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.mix(x);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// Sentinel for [`Channel::waiter`]: no task is parked on the channel.
const NO_WAITER: u32 = u32::MAX;

/// One message channel: its FIFO plus the wake hint for the task engine.
/// Keeping the hint inside the map value means deliver and receive each
/// do a single map lookup for both the payload and the handshake.
struct Channel {
    q: VecDeque<Bytes>,
    /// World rank of the task blocked on this channel (task engine), or
    /// [`NO_WAITER`]. Written under the mailbox lock; a sender that takes
    /// it owns the wake.
    waiter: u32,
}

impl Default for Channel {
    fn default() -> Self {
        Channel {
            q: VecDeque::new(),
            waiter: NO_WAITER,
        }
    }
}

/// One rank's mailbox: FIFO queues per (ctx, src, tag) under one lock,
/// plus the condvar a thread-engine receiver parks on. Queues stay
/// resident once created — a drained channel keeps its (empty)
/// `VecDeque`, so steady-state traffic never reallocates queue storage
/// or rehashes the map.
pub(crate) struct Mailbox {
    queues: Mutex<FnvMap<MsgKey, Channel>>,
    cv: Condvar,
    /// Receivers currently parked (or about to park) on `cv`. Senders
    /// skip the condvar entirely when this is zero — on Linux a notify
    /// with no waiters is still a futex syscall, and at paper scale the
    /// common case is that the receiver has not posted yet. Mutated only
    /// under `queues`, so a sender holding the lock sees an exact count.
    waiters: AtomicU32,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            queues: Mutex::new(FnvMap::default()),
            cv: Condvar::new(),
            waiters: AtomicU32::new(0),
        }
    }
}

/// An exclusively-held pool buffer being filled by a sender. Freezing it
/// turns it into a refcounted [`Bytes`] that travels the mailbox path
/// without further copies; the receiver recycles the same allocation
/// (vector *and* `Arc` control block) back into the pool.
pub(crate) struct PooledBuf {
    arc: Arc<Vec<u8>>,
}

impl PooledBuf {
    /// Mutable access to the buffer. Pool invariant: checked-out buffers
    /// are uniquely held.
    #[inline]
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.arc).expect("checked-out pool buffer is uniquely held")
    }

    /// Seal the buffer into an immutable shared payload.
    #[inline]
    pub(crate) fn freeze(self) -> Bytes {
        Bytes::from_shared(self.arc)
    }
}

thread_local! {
    /// Per-thread buffer magazine: rank threads live for the whole world,
    /// and in steady state each rank re-checks-out exactly the buffers
    /// its own receives recycled — no lock, no sharing, LIFO for cache
    /// warmth. Overflow and cross-thread imbalance fall back to the
    /// world-shared slots below.
    static MAGAZINE: RefCell<Vec<Arc<Vec<u8>>>> = const { RefCell::new(Vec::new()) };
}

/// Recycled payload buffers backing the zero-copy message path. `send_*`
/// checks out a buffer, fills it, freezes it into [`Bytes`]; the final
/// consumer (typed receive, collective, sender-log eviction) recycles it.
/// Two tiers: a lock-free thread-local magazine, then a shared mutex
/// vector.
///
/// Checkout outcomes (`runtime.pool.{hits,misses}`) are tallied by the
/// checking-out thread and published when it retires (`crate::tally`).
/// Allocations are the pool's slow path and are counted at once:
/// `runtime.alloc.msg_buffers` counts *actual* allocator hits — fresh
/// buffers and capacity growth of reused ones — across every world of
/// the process, and `allocated` counts this pool's alone. The
/// steady-state zero-allocation tests read them mid-world, between
/// barriers, where a count published only at exit would read zero.
pub(crate) struct BufferPool {
    slots: Mutex<Vec<Arc<Vec<u8>>>>,
    allocs: Arc<Counter>,
    allocated: AtomicU64,
}

impl BufferPool {
    /// Buffers retained in the shared tier; beyond this, returns go to
    /// the allocator.
    const MAX_POOLED: usize = 256;
    /// Buffers retained per thread-local magazine.
    const MAGAZINE_CAP: usize = 16;
    /// Largest capacity worth retaining — one halo column is a few KiB,
    /// one checkpoint push ≤ 1 MiB; bigger buffers are one-offs.
    const MAX_POOLED_CAPACITY: usize = 1 << 20;

    fn new(reg: &Registry) -> Self {
        BufferPool {
            slots: Mutex::new(Vec::new()),
            allocs: reg.counter("runtime.alloc.msg_buffers"),
            allocated: AtomicU64::new(0),
        }
    }

    /// Allocator hits of this pool (one world's) so far.
    #[cfg(test)]
    fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    fn count_alloc(&self) {
        self.allocs.inc();
        self.allocated.fetch_add(1, Ordering::Relaxed);
    }

    /// An empty buffer with at least `capacity` reserved.
    pub(crate) fn checkout(&self, capacity: usize) -> PooledBuf {
        let reused = MAGAZINE
            .with(|m| m.borrow_mut().pop())
            .or_else(|| self.slots.lock().pop());
        match reused {
            Some(mut arc) => {
                tally::add(Count::PoolHits, 1);
                let v = Arc::get_mut(&mut arc).expect("pooled buffer is uniquely held");
                v.clear();
                if v.capacity() < capacity {
                    // Growing a pooled buffer is a real allocation; once
                    // capacities converge this branch goes quiet.
                    self.count_alloc();
                    v.reserve(capacity);
                }
                PooledBuf { arc }
            }
            None => {
                tally::add(Count::PoolMisses, 1);
                self.count_alloc();
                PooledBuf {
                    arc: Arc::new(Vec::with_capacity(capacity)),
                }
            }
        }
    }

    /// Return a spent payload for reuse. Payloads still referenced
    /// elsewhere (sender logs, in-flight clones), narrowed views, and
    /// oversized buffers are simply dropped.
    pub(crate) fn recycle(&self, payload: Bytes) {
        let Ok(arc) = payload.into_shared() else {
            return;
        };
        self.recycle_arc(arc);
    }

    fn recycle_arc(&self, mut arc: Arc<Vec<u8>>) {
        if Arc::get_mut(&mut arc).is_none() {
            return; // still shared; the last holder will drop it
        }
        if arc.capacity() == 0 || arc.capacity() > Self::MAX_POOLED_CAPACITY {
            return;
        }
        let overflow = MAGAZINE.with(move |m| {
            let mut m = m.borrow_mut();
            if m.len() < Self::MAGAZINE_CAP {
                m.push(arc);
                None
            } else {
                Some(arc)
            }
        });
        if let Some(arc) = overflow {
            let mut slots = self.slots.lock();
            if slots.len() < Self::MAX_POOLED {
                slots.push(arc);
            }
        }
    }

    /// Drain the calling thread's magazine into the shared tier. Called
    /// when a rank thread or scheduler worker retires: its magazine is
    /// about to die with the thread, and without this the buffers would
    /// strand (be freed) while the rest of the world still wants them.
    pub(crate) fn flush_magazine(&self) {
        MAGAZINE.with(|m| {
            let mut m = m.borrow_mut();
            if m.is_empty() {
                return;
            }
            let mut slots = self.slots.lock();
            while slots.len() < Self::MAX_POOLED {
                let Some(arc) = m.pop() else {
                    return;
                };
                slots.push(arc);
            }
            m.clear();
        });
    }
}

/// State shared by all ranks of a world.
pub(crate) struct Shared {
    pub(crate) n: usize,
    pub(crate) mailboxes: Vec<Mailbox>,
    pub(crate) trace: Arc<TraceRecorder>,
    pub(crate) phases: Vec<AtomicU64>,
    pub(crate) recv_timeout: Duration,
    pub(crate) pool: BufferPool,
    /// The task scheduler, when this world runs on the task engine. Set
    /// before any rank body starts.
    pub(crate) sched: OnceLock<Arc<TaskSched>>,
    /// Replay-mode state ([`crate::World::run_replay`]): live-rank mask
    /// plus the logged-message feed standing in for dead senders. `None`
    /// for normal worlds — one branch on the message path.
    pub(crate) replay: Option<Arc<ReplayState>>,
    /// Open collective rendezvous (`barrier`, `allgather`, `split`).
    pub(crate) meetings: Meetings,
}

impl Shared {
    /// Block until a message matching `key` arrives in `rank`'s mailbox.
    /// Panics with a diagnostic if `recv_timeout` elapses — a deadlocked
    /// SPMD program is a bug we want loudly, not a hung test suite.
    pub(crate) fn blocking_recv(&self, rank: usize, key: MsgKey) -> Bytes {
        self.recv_within_timeout(rank, key).unwrap_or_else(|| {
            panic!(
                "simmpi deadlock: rank {rank} waited {:?} for (ctx={}, src={}, tag={:#x})",
                self.recv_timeout, key.0, key.1, key.2
            )
        })
    }

    /// The wait behind [`Shared::blocking_recv`]: `None` when
    /// `recv_timeout` elapses first.
    fn recv_within_timeout(&self, rank: usize, key: MsgKey) -> Option<Bytes> {
        // Task engine: the caller is a coroutine, so "blocking" means
        // registering a wake hint and switching to the next runnable
        // rank — no spinning, no condvar.
        if let Some(cur) = sched::current() {
            return self.task_recv(rank, key, cur);
        }
        // Thread engine. With far more rank threads than cores the
        // expected producer of a missing message is merely *behind us in
        // the run queue*, not blocked: yielding the time slice a few
        // times lets it run and deliver, avoiding a futex park + wake
        // round trip per halo message. Only after the yield budget is
        // spent do we register as a waiter and park on the condvar.
        let mailbox = &self.mailboxes[rank];
        let deadline = Instant::now() + self.recv_timeout;
        let mut yields = 0u32;
        let mut queues = mailbox.queues.lock();
        loop {
            // Drained queues are intentionally left in the map: removing
            // them frees the VecDeque, so every steady-state message on
            // the channel would pay a fresh queue allocation plus a map
            // insert/remove cycle.
            if let Some(msg) = queues.get_mut(&key).and_then(|c| c.q.pop_front()) {
                return Some(msg);
            }
            if yields < YIELD_SPINS {
                yields += 1;
                tally::add(Count::Yields, 1);
                drop(queues);
                std::thread::yield_now();
                queues = mailbox.queues.lock();
                continue;
            }
            tally::add(Count::Waits, 1);
            mailbox.waiters.fetch_add(1, Ordering::Relaxed);
            let timed_out = mailbox.cv.wait_until(&mut queues, deadline).timed_out();
            mailbox.waiters.fetch_sub(1, Ordering::Relaxed);
            if timed_out {
                return None;
            }
        }
    }

    /// Task-engine receive: register this task as the channel's waiter
    /// (under the mailbox lock, so a sender that sees the hint is ordered
    /// after our blocked-state store) and switch away. The home worker's
    /// watchdog resumes us with the timeout flag if the deadline passes;
    /// one final queue check closes the race where the message and the
    /// timeout arrive together.
    fn task_recv(&self, rank: usize, key: MsgKey, cur: sched::CurrentTask) -> Option<Bytes> {
        let mailbox = &self.mailboxes[rank];
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            let mut queues = mailbox.queues.lock();
            let ch = queues.entry(key).or_default();
            if let Some(msg) = ch.q.pop_front() {
                return Some(msg);
            }
            ch.waiter = rank as u32;
            cur.prepare_block();
            drop(queues);
            tally::add(Count::Waits, 1);
            cur.block(deadline);
            if cur.take_timed_out() {
                let mut queues = mailbox.queues.lock();
                let ch = queues.entry(key).or_default();
                // Clear the stale hint so a later sender on this channel
                // does not try to wake us while we block elsewhere.
                if ch.waiter == rank as u32 {
                    ch.waiter = NO_WAITER;
                }
                return ch.q.pop_front();
            }
        }
    }

    /// Deposit a message into `dst`'s mailbox. The payload is refcounted,
    /// so this moves a pointer, not the bytes.
    pub(crate) fn deliver(&self, dst: usize, key: MsgKey, payload: Bytes) {
        tally::add(Count::Messages, 1);
        tally::add(Count::Bytes, payload.len() as u64);
        let mailbox = &self.mailboxes[dst];
        let mut queues = match mailbox.queues.try_lock() {
            Some(guard) => guard,
            None => {
                tally::add(Count::Contended, 1);
                mailbox.queues.lock()
            }
        };
        let ch = queues.entry(key).or_default();
        ch.q.push_back(payload);
        // Taking the hint under the lock makes this sender the wake
        // owner; the CAS inside `wake` settles any race with the
        // deadline watchdog.
        let task_waiter = std::mem::replace(&mut ch.waiter, NO_WAITER);
        // Read the thread-waiter count before releasing the lock: a
        // receiver either registered itself under this lock (count
        // visible here) or will acquire it after us and see the message
        // in the queue.
        let has_thread_waiter = mailbox.waiters.load(Ordering::Relaxed) > 0;
        drop(queues);
        if task_waiter != NO_WAITER {
            if let Some(sched) = self.sched.get() {
                sched.wake(task_waiter);
            }
        }
        if has_thread_waiter {
            mailbox.cv.notify_all();
        }
    }
}

/// Which execution engine carries the rank bodies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per rank (portable baseline).
    Threads,
    /// M:N stackful coroutines on a fixed worker pool: the default. It
    /// runs as [`Engine::Threads`] on targets other than x86_64 Linux.
    Tasks,
}

/// Tunables for a world run.
#[derive(Clone, Debug)]
pub struct WorldConfig {
    /// Per-rank stack size in bytes (thread stack or coroutine stack),
    /// 64 KiB to 1 GiB; 0 = auto (`HCFT_SIMMPI_STACK_KB` env override,
    /// else 512 KiB).
    pub stack_size: usize,
    /// How long a blocking receive may wait before declaring deadlock.
    pub recv_timeout: Duration,
    /// Also keep the ordered per-sender event log (needed by the
    /// message-logging analyses; costs memory per message).
    pub trace_events: bool,
    /// Worker threads for the task engine; 0 = the core count. Always
    /// capped at the rank count.
    pub workers: usize,
    /// Execution engine selection.
    pub engine: Engine,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            stack_size: 0,
            recv_timeout: Duration::from_secs(60),
            trace_events: false,
            workers: 0,
            engine: Engine::Tasks,
        }
    }
}

/// The concrete runtime settings a world of `n` ranks will run with.
/// Every setting follows one precedence:
///
/// 1. an explicit [`WorldConfig`] value always wins;
/// 2. otherwise, for the stack size, `HCFT_SIMMPI_STACK_KB` applies —
///    **snapshotted once per process** at first use, so a long-running
///    service sees one consistent environment for its whole lifetime
///    rather than whatever the variable mutates to later;
/// 3. otherwise the built-in default (for workers, the core count).
///
/// Long-running processes that need per-request settings must therefore
/// pass them explicitly (as [`WorldConfig`] / `TracedJobConfig` fields)
/// instead of mutating the environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedWorldConfig {
    /// Per-rank stack size in bytes.
    pub stack_size: usize,
    /// Task-engine worker-pool size (capped at the rank count).
    pub workers: usize,
    /// The engine that will actually carry the rank bodies (a task
    /// request on an unsupported target resolves to threads).
    pub engine: Engine,
}

impl WorldConfig {
    /// Resolve every setting to the concrete value a world of `n` ranks
    /// would run with. This is the single precedence point the runtime
    /// itself uses (see [`ResolvedWorldConfig`] for the rules), exposed
    /// so callers — and the env-precedence regression tests — can
    /// observe the outcome without running a world.
    pub fn resolve(&self, n: usize) -> Result<ResolvedWorldConfig, HcftError> {
        let env_stack_size = env_stack_size()?;
        let explicit = |v: usize| (v > 0).then_some(v);
        let stack_size = match explicit(self.stack_size) {
            Some(bytes) if !STACK_SIZES.contains(&bytes) => {
                return Err(HcftError::Config(format!(
                    "WorldConfig::stack_size must be in {}..={} bytes, got {bytes}",
                    STACK_SIZES.start(),
                    STACK_SIZES.end()
                )))
            }
            bytes => bytes.or(env_stack_size).unwrap_or(DEFAULT_STACK_SIZE),
        };
        let workers = explicit(self.workers)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(1)
            })
            .clamp(1, n.max(1));
        // A task request on an unsupported target degrades to threads
        // (same semantics, just slower at scale) rather than failing.
        let engine = match self.engine {
            Engine::Tasks if sched::SUPPORTED => Engine::Tasks,
            _ => Engine::Threads,
        };
        Ok(ResolvedWorldConfig {
            stack_size,
            workers,
            engine,
        })
    }
}

/// A finished world run: per-rank outputs (rank-ordered) plus the trace.
pub struct WorldResult<T> {
    /// The value returned by each rank's closure, indexed by world rank.
    pub outputs: Vec<T>,
    /// The recorded communication trace.
    pub trace: Arc<TraceRecorder>,
}

/// Entry point: spawn `n` ranks and run `f` on each.
pub struct World;

impl World {
    /// Run `f(comm)` on `n` ranks with default configuration.
    pub fn run<T, F>(n: usize, f: F) -> WorldResult<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        Self::run_with(n, WorldConfig::default(), f)
    }

    /// Run `f(comm)` on `n` ranks with explicit configuration.
    ///
    /// # Panics
    /// Re-raises the first rank panic (annotated with the rank) and panics
    /// on deadlock via the receive watchdog.
    pub fn run_with<T, F>(n: usize, cfg: WorldConfig, f: F) -> WorldResult<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        let (outputs, trace) = Self::run_inner(n, cfg, None, f);
        WorldResult { outputs, trace }
    }

    /// Run a *replay world*: only ranks with `plan.live[r]` execute `f`;
    /// receives from dead ranks are served from `plan.feed`, sends to
    /// dead ranks are suppressed as duplicates. See [`crate::replay`].
    ///
    /// Dead ranks produce `None` in the outputs; the result also reports
    /// the fed/suppressed/leftover message counts for the recovery
    /// engine's bookkeeping.
    pub fn run_replay<T, F>(
        n: usize,
        cfg: WorldConfig,
        plan: ReplayPlan,
        f: F,
    ) -> ReplayWorldResult<T>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        assert_eq!(
            plan.live.len(),
            n,
            "replay plan live mask must cover all {n} ranks"
        );
        let state = Arc::new(ReplayState::new(plan));
        let live = state.live.clone();
        let (outputs, trace) = Self::run_inner(n, cfg, Some(Arc::clone(&state)), move |c| {
            if live[c.rank()] {
                Some(f(c))
            } else {
                None
            }
        });
        let reg = Registry::global();
        let fed = state.fed_messages.load(Ordering::Relaxed);
        let fed_bytes = state.fed_bytes.load(Ordering::Relaxed);
        let suppressed = state.suppressed_sends.load(Ordering::Relaxed);
        reg.counter("simmpi.replay.fed_messages").add(fed);
        reg.counter("simmpi.replay.fed_bytes").add(fed_bytes);
        reg.counter("simmpi.replay.suppressed_sends")
            .add(suppressed);
        ReplayWorldResult {
            outputs,
            trace,
            fed_messages: fed,
            fed_bytes,
            suppressed_sends: suppressed,
            leftover_messages: state.leftover(),
        }
    }

    fn run_inner<T, F>(
        n: usize,
        cfg: WorldConfig,
        replay: Option<Arc<ReplayState>>,
        f: F,
    ) -> (Vec<T>, Arc<TraceRecorder>)
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        assert!(n > 0, "world needs at least one rank");
        let resolved = match cfg.resolve(n) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        };
        let reg = Registry::global();
        reg.counter("simmpi.worlds").inc();
        let trace = Arc::new(TraceRecorder::new(n, cfg.trace_events));
        let shared = Arc::new(Shared {
            n,
            mailboxes: (0..n).map(|_| Mailbox::new()).collect(),
            trace: Arc::clone(&trace),
            phases: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recv_timeout: cfg.recv_timeout,
            pool: BufferPool::new(reg),
            sched: OnceLock::new(),
            replay,
            meetings: Meetings::default(),
        });
        let f = Arc::new(f);
        let outputs = match resolved.engine {
            Engine::Tasks => Self::run_tasks(n, &cfg, &resolved, &shared, f),
            _ => Self::run_threads(n, resolved.stack_size, &shared, f),
        };
        let mut outs = Vec::with_capacity(n);
        let mut panicked: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (rank, r) in outputs.into_iter().enumerate() {
            match r {
                Ok(v) => outs.push(v),
                Err(e) => {
                    if panicked.is_none() {
                        panicked = Some((rank, e));
                    }
                }
            }
        }
        if let Some((rank, e)) = panicked {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".to_string());
            panic!("rank {rank} panicked: {msg}");
        }
        (outs, trace)
    }

    /// Thread engine: one named OS thread per rank.
    fn run_threads<T, F>(
        n: usize,
        stack_size: usize,
        shared: &Arc<Shared>,
        f: Arc<F>,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        let mut handles = Vec::with_capacity(n);
        for rank in 0..n {
            let shared = Arc::clone(shared);
            let f = Arc::clone(&f);
            let handle = std::thread::Builder::new()
                .name(format!("rank-{rank}"))
                .stack_size(stack_size)
                .spawn(move || {
                    let mut comm = Comm::world(Arc::clone(&shared), rank);
                    let out = f(&mut comm);
                    drop(comm);
                    // Ranks that finish early (the paper's encoder ranks
                    // return before the app ranks) hand their magazine
                    // back so the still-running ranks keep hitting the
                    // pool instead of the allocator.
                    shared.pool.flush_magazine();
                    tally::publish();
                    out
                })
                .expect("spawn rank thread");
            handles.push(handle);
        }
        handles.into_iter().map(|h| h.join()).collect()
    }

    /// Task engine: rank bodies as coroutines on a worker pool.
    fn run_tasks<T, F>(
        n: usize,
        cfg: &WorldConfig,
        resolved: &ResolvedWorldConfig,
        shared: &Arc<Shared>,
        f: Arc<F>,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send + 'static,
        F: Fn(&mut Comm) -> T + Send + Sync + 'static,
    {
        let workers = resolved.workers;
        Registry::global()
            .gauge("simmpi.sched.workers")
            .set(workers as f64);
        // Idle workers double as the deadline watchdog for their own
        // blocked tasks; scanning at a fraction of the receive timeout
        // keeps detection latency proportional to the configured limit.
        let watchdog =
            (cfg.recv_timeout / 4).clamp(Duration::from_millis(2), Duration::from_millis(100));
        let slots: Arc<Vec<Mutex<Option<std::thread::Result<T>>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let bodies: Vec<Box<dyn FnOnce() + Send>> = (0..n)
            .map(|rank| {
                let shared = Arc::clone(shared);
                let f = Arc::clone(&f);
                let slots = Arc::clone(&slots);
                Box::new(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut comm = Comm::world(shared, rank);
                        f(&mut comm)
                    }));
                    *slots[rank].lock() = Some(result);
                }) as Box<dyn FnOnce() + Send>
            })
            .collect();
        let sched = TaskSched::new(workers, resolved.stack_size, watchdog, bodies);
        // Senders need the scheduler to wake receivers; install it before
        // the first task can possibly run.
        if shared.sched.set(Arc::clone(&sched)).is_err() {
            unreachable!("scheduler installed twice");
        }
        let flush = {
            let shared = Arc::clone(shared);
            move || {
                shared.pool.flush_magazine();
                tally::publish();
            }
        };
        sched.run(flush);
        slots
            .iter()
            .enumerate()
            .map(|(rank, slot)| {
                slot.lock()
                    .take()
                    .unwrap_or_else(|| panic!("rank {rank} produced no output"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world_runs() {
        let r = World::run(1, |c| c.rank() * 10 + c.size());
        assert_eq!(r.outputs, vec![1]);
    }

    #[test]
    fn stack_kb_parse_rule() {
        assert_eq!(parse_stack_kb(None), Ok(None));
        for bad in ["", "abc", "0", "-2", "12.5"] {
            let err = parse_stack_kb(Some(bad)).expect_err(bad);
            assert!(err.contains("HCFT_SIMMPI_STACK_KB"), "{err}");
        }
        assert_eq!(parse_stack_kb(Some(" 256 ")), Ok(Some(256 * 1024)));
        // Stack bounds: 64 KiB and 1 GiB inclusive, returned in bytes.
        for (kb, ok) in [
            ("63", false),
            ("64", true),
            ("1048576", true),
            ("1048577", false),
        ] {
            let bytes = parse_stack_kb(Some(kb));
            assert_eq!(bytes.is_ok(), ok, "STACK_KB={kb}");
            if let Ok(bytes) = bytes {
                assert_eq!(bytes, Some(kb.parse::<usize>().unwrap() * 1024));
            }
        }
    }

    #[test]
    fn explicit_stack_size_is_range_checked() {
        for (bytes, ok) in [
            (4096usize, false),
            (64 * 1024, true),
            (1 << 30, true),
            (2 << 30, false),
        ] {
            let cfg = WorldConfig {
                stack_size: bytes,
                ..WorldConfig::default()
            };
            match cfg.resolve(1) {
                Ok(_) => assert!(ok, "{bytes} B accepted"),
                Err(HcftError::Config(msg)) => {
                    assert!(!ok, "{bytes} B rejected: {msg}");
                    assert!(msg.contains("stack_size"), "{msg}");
                }
                Err(e) => panic!("{bytes} B: not a config error: {e}"),
            }
        }
        assert!(WorldConfig::default().resolve(1).is_ok());
    }

    #[test]
    fn outputs_are_rank_ordered() {
        let r = World::run(8, |c| c.rank());
        assert_eq!(r.outputs, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_traced() {
        let r = World::run(2, |c| {
            if c.rank() == 0 {
                c.send_bytes(1, 7, &[1, 2, 3]);
                c.recv_bytes(1, 8)
            } else {
                let m = c.recv_bytes(0, 7);
                c.send_bytes(0, 8, &[9; 5]);
                m
            }
        });
        assert_eq!(r.outputs[0], vec![9; 5]);
        assert_eq!(r.outputs[1], vec![1, 2, 3]);
        let m = r.trace.byte_matrix();
        assert_eq!(m.get(0, 1), 3);
        assert_eq!(m.get(1, 0), 5);
    }

    #[test]
    fn fifo_order_per_sender_tag() {
        let r = World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10u8 {
                    c.send_bytes(1, 3, &[i]);
                }
                vec![]
            } else {
                (0..10).map(|_| c.recv_bytes(0, 3)[0]).collect::<Vec<u8>>()
            }
        });
        assert_eq!(r.outputs[1], (0..10).collect::<Vec<u8>>());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn recv_without_send_deadlocks_loudly() {
        let cfg = WorldConfig {
            recv_timeout: Duration::from_millis(50),
            ..WorldConfig::default()
        };
        World::run_with(2, cfg, |c| {
            if c.rank() == 1 {
                c.recv_bytes(0, 1);
            }
        });
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn rank_panic_is_annotated() {
        World::run(3, |c| {
            if c.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn many_ranks_all_to_one() {
        let r = World::run(64, |c| {
            if c.rank() == 0 {
                let mut sum = 0u64;
                for src in 1..c.size() {
                    sum += c.recv_vec::<u64>(src, 1)[0];
                }
                sum
            } else {
                c.send_slice(0, 1, &[c.rank() as u64]);
                0
            }
        });
        assert_eq!(r.outputs[0], (1..64).sum::<u64>());
    }

    #[test]
    fn replay_world_serves_dead_sender_from_feed() {
        use crate::replay::{ReplayFeed, ReplayPlan};
        // 3 ranks; rank 1 is dead. Rank 0 expects one message from dead
        // rank 1 (fed), one from live rank 2 (real); rank 2 also sends a
        // message *to* dead rank 1 (suppressed).
        let mut feed = ReplayFeed::new(3);
        feed.push(1, 0, 7, Bytes::from(vec![42u8, 43]));
        let plan = ReplayPlan {
            live: vec![true, false, true],
            feed,
        };
        let r = World::run_replay(3, WorldConfig::default(), plan, |c| match c.rank() {
            0 => {
                let from_dead = c.recv_bytes(1, 7);
                let from_live = c.recv_bytes(2, 8);
                (from_dead, from_live)
            }
            2 => {
                c.send_bytes(0, 8, &[9]);
                c.send_bytes(1, 9, &[1, 2, 3]); // dead dst: suppressed
                (Bytes::new(), Bytes::new())
            }
            _ => unreachable!("dead rank body must not run"),
        });
        let (from_dead, from_live) = r.outputs[0].clone().expect("rank 0 ran");
        assert_eq!(from_dead, vec![42u8, 43]);
        assert_eq!(from_live, vec![9u8]);
        assert!(r.outputs[1].is_none(), "dead rank must produce no output");
        assert_eq!(r.fed_messages, 1);
        assert_eq!(r.fed_bytes, 2);
        assert_eq!(r.suppressed_sends, 1);
        assert_eq!(r.leftover_messages, 0);
    }

    #[test]
    #[should_panic(expected = "replay feed exhausted")]
    fn replay_feed_underrun_panics_loudly() {
        use crate::replay::{ReplayFeed, ReplayPlan};
        let plan = ReplayPlan {
            live: vec![true, false],
            feed: ReplayFeed::new(2),
        };
        World::run_replay(2, WorldConfig::default(), plan, |c| {
            if c.rank() == 0 {
                c.recv_bytes(1, 5);
            }
        });
    }

    #[test]
    fn mailbox_metrics_count_traffic() {
        let reg = Registry::global();
        let msgs_before = reg.counter("simmpi.mailbox.messages").get();
        let bytes_before = reg.counter("simmpi.mailbox.bytes").get();
        World::run(2, |c| {
            if c.rank() == 0 {
                c.send_bytes(1, 1, &[0u8; 100]);
            } else {
                c.recv_bytes(0, 1);
            }
        });
        assert!(reg.counter("simmpi.mailbox.messages").get() > msgs_before);
        assert!(reg.counter("simmpi.mailbox.bytes").get() >= bytes_before + 100);
    }

    #[test]
    fn buffer_pool_reuses_payloads() {
        let reg = Registry::global();
        let hits_before = reg.counter("runtime.pool.hits").get();
        // A long ping-pong of typed messages: after warm-up every send
        // can check out the buffer the previous receive recycled.
        World::run(2, |c| {
            let other = 1 - c.rank();
            for i in 0..200u64 {
                if c.rank() == 0 {
                    c.send_slice(other, 1, &[i]);
                    c.recv_vec::<u64>(other, 2);
                } else {
                    c.recv_vec::<u64>(other, 1);
                    c.send_slice(other, 2, &[i]);
                }
            }
        });
        assert!(
            reg.counter("runtime.pool.hits").get() > hits_before,
            "pool should serve repeat sends from recycled buffers"
        );
    }

    #[test]
    fn steady_ping_pong_stops_allocating() {
        // Each world's pool counts its own allocator hits, so worlds that
        // other tests in this binary run concurrently cannot move the
        // count this test reads.
        World::run(2, |c| {
            let other = 1 - c.rank();
            let payload = [c.rank() as u64; 37];
            // Warm-up: fills the magazines and sizes every buffer.
            for _ in 0..20 {
                if c.rank() == 0 {
                    c.send_slice(other, 1, &payload);
                    c.recv_vec::<u64>(other, 2);
                } else {
                    c.recv_vec::<u64>(other, 1);
                    c.send_slice(other, 2, &payload);
                }
            }
            c.barrier();
            let allocs = c.shared.pool.allocated();
            for _ in 0..50 {
                if c.rank() == 0 {
                    c.send_slice(other, 1, &payload);
                    c.recv_vec::<u64>(other, 2);
                } else {
                    c.recv_vec::<u64>(other, 1);
                    c.send_slice(other, 2, &payload);
                }
            }
            c.barrier();
            // A per-message allocation would add >= 100 to the count.
            let grew = c.shared.pool.allocated() - allocs;
            assert!(
                grew < 100,
                "steady-state ping-pong allocated {grew} buffers in 100 messages"
            );
        });
    }
}
