//! Collective rendezvous: one meeting per `barrier`, `allgather` or
//! `split` call.
//!
//! A meeting is keyed by (communicator context, collective sequence
//! number). Every member deposits its contribution under one table lock;
//! the member that completes the meeting takes it out of the table,
//! assembles the result once and publishes it. The caller then releases
//! the other members through the mailbox (see `collectives.rs`), so a
//! waiting member is an ordinary blocked receiver.
//!
//! Misuse is caught here rather than deep inside a message schedule: a
//! member that calls a different collective, or contributes a block of a
//! different length, poisons the meeting, and every member panics with
//! the same message once the last one arrives.

use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::runtime::FnvMap;

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
        match self {
            Deposit::Barrier => "barrier",
            Deposit::Allgather { .. } => "allgather",
            Deposit::Split { .. } => "split",
        }
    }
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
    /// Block `r` at `r * blk` of `flat`; `blk` and `width` are set by the
    /// first member.
    Allgather {
        blk: usize,
        width: usize,
        flat: Vec<u8>,
    },
    /// `(colour, key)` per communicator rank.
    Split(Vec<(Option<u32>, i64)>),
}

impl Gathered {
    fn name(&self) -> &'static str {
        match self {
            Gathered::Barrier => "barrier",
            Gathered::Allgather { .. } => "allgather",
            Gathered::Split(_) => "split",
        }
    }
}

/// The deposits of one collective call, until its last member arrives.
pub(crate) struct Meeting {
    gathered: Gathered,
    /// Communicator rank of the first member to arrive.
    first: usize,
    arrived: usize,
    /// The first misuse seen; poisons the meeting.
    conflict: Option<String>,
    slot: Arc<Slot>,
}

impl Meeting {
    fn open(size: usize, rank: usize, deposit: &Deposit) -> Self {
        let gathered = match *deposit {
            Deposit::Barrier => Gathered::Barrier,
            Deposit::Allgather { bytes, width } => Gathered::Allgather {
                blk: bytes.len(),
                width,
                flat: vec![0; size * bytes.len()],
            },
            Deposit::Split { .. } => Gathered::Split(vec![(None, 0); size]),
        };
        Meeting {
            gathered,
            first: rank,
            arrived: 0,
            conflict: None,
            slot: Arc::new(OnceLock::new()),
        }
    }

    fn deposit(&mut self, rank: usize, deposit: Deposit) {
        self.arrived += 1;
        if self.conflict.is_some() {
            return;
        }
        // Name the two ranks in rank order, whichever arrived first.
        let first = self.first;
        let pair = |mine: String, theirs: String| {
            let (a, b) = ((first, mine), (rank, theirs));
            let ((r0, s0), (r1, s1)) = if a.0 < b.0 { (a, b) } else { (b, a) };
            format!("rank {r0} {s0}, rank {r1} {s1}")
        };
        let called = self.gathered.name();
        match (&mut self.gathered, deposit) {
            (Gathered::Barrier, Deposit::Barrier) => {}
            (Gathered::Allgather { blk, width, flat }, Deposit::Allgather { bytes, width: w }) => {
                if bytes.len() == *blk && w == *width {
                    flat[rank * *blk..(rank + 1) * *blk].copy_from_slice(bytes);
                } else {
                    let gave =
                        |len: usize, width: usize| format!("gave {} × {width} B", len / width);
                    self.conflict = Some(format!(
                        "allgather contributions differ: {}",
                        pair(gave(*blk, *width), gave(bytes.len(), w))
                    ));
                }
            }
            (Gathered::Split(splits), Deposit::Split { color, key }) => splits[rank] = (color, key),
            (_, deposit) => {
                self.conflict = Some(format!(
                    "mismatched collectives: {}",
                    pair(
                        format!("called {called}"),
                        format!("called {}", deposit.name())
                    )
                ));
            }
        }
    }

    /// Build the outcome once. `world_of` maps a communicator rank to its
    /// world rank.
    pub(crate) fn assemble(self, world_of: impl Fn(usize) -> u32) -> Result<Outcome, String> {
        if let Some(conflict) = self.conflict {
            return Err(conflict);
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

/// A world's open meetings.
#[derive(Default)]
pub(crate) struct Meetings {
    open: Mutex<FnvMap<(u64, u64), Meeting>>,
}

impl Meetings {
    /// Deposit communicator rank `rank`'s contribution to the meeting
    /// `(ctx, seq)` of a communicator of `size` ranks. Returns the
    /// outcome slot, plus — to the member that completes the meeting —
    /// the meeting itself, now out of the table, to assemble.
    pub(crate) fn arrive(
        &self,
        key: (u64, u64),
        size: usize,
        rank: usize,
        deposit: Deposit,
    ) -> (Arc<Slot>, Option<Meeting>) {
        let mut open = self.open.lock();
        let meeting = open
            .entry(key)
            .or_insert_with(|| Meeting::open(size, rank, &deposit));
        meeting.deposit(rank, deposit);
        let slot = Arc::clone(&meeting.slot);
        if meeting.arrived < size {
            return (slot, None);
        }
        (slot, open.remove(&key))
    }

    /// Members that have arrived at an open meeting (0 if none is open).
    pub(crate) fn arrived(&self, key: (u64, u64)) -> usize {
        self.open.lock().get(&key).map_or(0, |m| m.arrived)
    }
}
