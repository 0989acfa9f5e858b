//! Collective rendezvous: one meeting per `barrier`, `allgather` or
//! `split` call.
//!
//! A meeting is keyed by (communicator context, collective sequence
//! number). Every member deposits its contribution under one table lock;
//! the member that completes the meeting takes it out of the table,
//! assembles the result once and publishes it under that lock again.
//! The other members wait on the meeting itself, not on a message: on
//! the task engine a member announces its block under the table lock
//! and the completer wakes them all in one `TaskSched::wake_all` batch;
//! on the thread engine they wait on the table's one condvar. No
//! collective sends a mailbox message.
//!
//! Publishing under the table lock is what makes re-parking safe: a
//! member resumed before the outcome exists (a spurious wake) re-checks
//! the slot and re-announces its block under the same lock, so it either
//! sees the outcome or is parked before the completer's wake.
//!
//! Misuse is caught here rather than deep inside a message schedule: a
//! member that calls a different collective, or contributes a block of a
//! different length, poisons the meeting, and every member panics with
//! the same message once the last one arrives.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

use crate::runtime::FnvMap;
use crate::sched::CurrentTask;

/// One member's contribution.
pub(crate) enum Deposit<'a> {
    Barrier,
    /// An encoded block of `bytes.len() / width` elements.
    Allgather {
        bytes: &'a [u8],
        width: usize,
    },
    Split {
        color: Option<u32>,
        key: i64,
    },
}

impl Deposit<'_> {
    /// The collective this deposit belongs to.
    pub(crate) fn name(&self) -> &'static str {
        self.shape().called
    }

    fn shape(&self) -> Shape {
        match *self {
            Deposit::Barrier => Shape {
                called: "barrier",
                gave: None,
            },
            Deposit::Allgather { bytes, width } => Shape {
                called: "allgather",
                gave: Some((bytes.len() / width, width)),
            },
            Deposit::Split { .. } => Shape {
                called: "split",
                gave: None,
            },
        }
    }
}

/// What a member called and, for an allgather, gave as `(elements,
/// element width)`: the members of a sound meeting agree on it.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Shape {
    called: &'static str,
    gave: Option<(usize, usize)>,
}

/// A completed meeting's result, read by every member.
pub(crate) enum Outcome {
    Barrier,
    /// Every member's block, in communicator-rank order.
    Allgather(Vec<u8>),
    /// Per communicator rank: its colour group (world ranks, ordered by
    /// `(key, old rank)`) and its rank within that group; `None` for a
    /// rank that passed no colour. Members of one colour share one group.
    Split(Vec<Option<(Arc<Vec<u32>>, u32)>>),
}

/// Where the completing member publishes the outcome, or the reason the
/// meeting failed.
pub(crate) type Slot = OnceLock<Result<Outcome, String>>;

/// What the members of one meeting have deposited so far.
enum Gathered {
    Barrier,
    /// Block `r` at `r * blk` of `flat`; `blk` is set by the first
    /// member.
    Allgather {
        blk: usize,
        flat: Vec<u8>,
    },
    /// `(colour, key)` per communicator rank.
    Split(Vec<(Option<u32>, i64)>),
}

/// The deposits of one collective call, until its last member arrives.
pub(crate) struct Meeting {
    gathered: Gathered,
    /// The first member's shape, which `gathered` is laid out for.
    shape: Shape,
    arrived: usize,
    /// Members whose deposit has another shape than the first member's,
    /// with theirs; any poisons the meeting.
    odd: Vec<(usize, Shape)>,
    slot: Arc<Slot>,
}

impl Meeting {
    fn open(size: usize, deposit: &Deposit) -> Self {
        let gathered = match *deposit {
            Deposit::Barrier => Gathered::Barrier,
            Deposit::Allgather { bytes, .. } => Gathered::Allgather {
                blk: bytes.len(),
                flat: vec![0; size * bytes.len()],
            },
            Deposit::Split { .. } => Gathered::Split(vec![(None, 0); size]),
        };
        Meeting {
            gathered,
            shape: deposit.shape(),
            arrived: 0,
            odd: Vec::new(),
            slot: Arc::new(OnceLock::new()),
        }
    }

    fn deposit(&mut self, rank: usize, deposit: Deposit) {
        self.arrived += 1;
        let shape = deposit.shape();
        if shape != self.shape {
            self.odd.push((rank, shape));
            return;
        }
        match (&mut self.gathered, deposit) {
            (Gathered::Allgather { blk, flat }, Deposit::Allgather { bytes, .. }) => {
                flat[rank * *blk..(rank + 1) * *blk].copy_from_slice(bytes);
            }
            (Gathered::Split(splits), Deposit::Split { color, key }) => splits[rank] = (color, key),
            _ => {}
        }
    }

    /// Why a poisoned meeting failed: rank 0's shape against that of the
    /// lowest rank that differs from it, so every arrival order names the
    /// same pair.
    fn conflict(&self) -> String {
        let shape_of = |r: usize| {
            self.odd
                .iter()
                .find(|&&(o, _)| o == r)
                .map_or(self.shape, |&(_, s)| s)
        };
        let mine = shape_of(0);
        let (r, theirs) = (1..self.arrived)
            .map(|r| (r, shape_of(r)))
            .find(|&(_, s)| s != mine)
            .expect("a poisoned meeting holds two shapes");
        if mine.called != theirs.called {
            let (a, b) = (mine.called, theirs.called);
            return format!("mismatched collectives: rank 0 called {a}, rank {r} called {b}");
        }
        let gave = |s: Shape| {
            let (elems, width) = s.gave.expect("allgather shapes carry a size");
            format!("gave {elems} × {width} B")
        };
        format!(
            "allgather contributions differ: rank 0 {}, rank {r} {}",
            gave(mine),
            gave(theirs)
        )
    }

    /// Build the outcome once. `world_of` maps a communicator rank to its
    /// world rank.
    pub(crate) fn assemble(self, world_of: impl Fn(usize) -> u32) -> Result<Outcome, String> {
        if !self.odd.is_empty() {
            return Err(self.conflict());
        }
        Ok(match self.gathered {
            Gathered::Barrier => Outcome::Barrier,
            Gathered::Allgather { flat, .. } => Outcome::Allgather(flat),
            Gathered::Split(splits) => {
                let mut order: Vec<usize> = (0..splits.len())
                    .filter(|&r| splits[r].0.is_some())
                    .collect();
                order.sort_unstable_by_key(|&r| (splits[r], r));
                let mut out = vec![None; splits.len()];
                for run in order.chunk_by(|&a, &b| splits[a].0 == splits[b].0) {
                    let group = Arc::new(run.iter().map(|&r| world_of(r)).collect::<Vec<u32>>());
                    for (pos, &r) in run.iter().enumerate() {
                        out[r] = Some((Arc::clone(&group), pos as u32));
                    }
                }
                Outcome::Split(out)
            }
        })
    }
}

/// A world's open meetings, and where their members wait.
#[derive(Default)]
pub(crate) struct Meetings {
    open: Mutex<Table>,
    /// Thread-engine members wait here for any meeting's outcome, so a
    /// waiter re-checks its own slot after every wake.
    cv: Condvar,
}

#[derive(Default)]
struct Table {
    meetings: FnvMap<(u64, u64), Meeting>,
    /// Thread-engine members waiting on `cv`. The completer skips the
    /// notify — a futex syscall even with no waiter — at zero, which is
    /// always the case on the task engine.
    waiters: usize,
}

/// What a member's deposit left it to do.
pub(crate) enum Arrival {
    /// It completed the meeting, now out of the table: assemble it and
    /// [`Meetings::publish`] the outcome into the slot.
    Last(Meeting, Arc<Slot>),
    /// Another member will complete it: [`Meetings::wait`] on the slot.
    /// A task has already announced its block.
    Wait(Arc<Slot>),
}

impl Meetings {
    /// Deposit communicator rank `rank`'s contribution to the meeting
    /// `(ctx, seq)` of a communicator of `size` ranks. A member that is
    /// not last and runs as `task` announces its block here, under the
    /// table lock, so the completer's wake cannot miss it.
    pub(crate) fn arrive(
        &self,
        key: (u64, u64),
        size: usize,
        rank: usize,
        deposit: Deposit,
        task: Option<&CurrentTask>,
    ) -> Arrival {
        let mut open = self.open.lock();
        let meeting = open
            .meetings
            .entry(key)
            .or_insert_with(|| Meeting::open(size, &deposit));
        meeting.deposit(rank, deposit);
        let slot = Arc::clone(&meeting.slot);
        if meeting.arrived < size {
            if let Some(task) = task {
                task.prepare_block();
            }
            return Arrival::Wait(slot);
        }
        let meeting = open.meetings.remove(&key).expect("the meeting is open");
        Arrival::Last(meeting, slot)
    }

    /// Publish a completed meeting's outcome and wake the thread-engine
    /// waiters; the caller wakes parked tasks after this returns.
    pub(crate) fn publish(&self, slot: &Slot, outcome: Result<Outcome, String>) {
        let notify = {
            let open = self.open.lock();
            if slot.set(outcome).is_err() {
                unreachable!("a meeting completes once");
            }
            open.waiters > 0
        };
        if notify {
            self.cv.notify_all();
        }
    }

    /// Wait until `slot` holds its outcome; false if `deadline` passed
    /// first. A `task` must have announced its block in
    /// [`Meetings::arrive`]; it switches away, and re-parks under the
    /// table lock after any resume that finds no outcome yet.
    pub(crate) fn wait(&self, slot: &Slot, task: Option<&CurrentTask>, deadline: Instant) -> bool {
        let Some(task) = task else {
            let mut open = self.open.lock();
            while slot.get().is_none() {
                open.waiters += 1;
                let timed_out = self.cv.wait_until(&mut open, deadline).timed_out();
                open.waiters -= 1;
                if timed_out {
                    return slot.get().is_some();
                }
            }
            return true;
        };
        loop {
            task.block(deadline);
            let timed_out = task.take_timed_out();
            // The outcome is set once and never cleared, so finding it
            // needs no lock; only re-parking does.
            if slot.get().is_some() {
                return true;
            }
            let _open = self.open.lock();
            if slot.get().is_some() {
                return true;
            }
            if timed_out {
                return false;
            }
            task.prepare_block();
        }
    }

    /// Members that have arrived at an open meeting (0 if none is open).
    pub(crate) fn arrived(&self, key: (u64, u64)) -> usize {
        self.open.lock().meetings.get(&key).map_or(0, |m| m.arrived)
    }
}
