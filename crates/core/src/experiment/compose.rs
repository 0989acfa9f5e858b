//! Periodic trace composition: the byte matrix of a long traced job from
//! a two-step, two-round prefix.
//!
//! The §V job sends the same messages every solver step and every
//! checkpoint round: one halo message per stencil neighbour, sized by
//! the decomposition alone, and per round a 16-byte note from every
//! application rank to its node's encoder plus the encoders' parity
//! ring, whose block size follows `state_len`. A job of `iters` steps
//! checkpointing every `ck` therefore traces, per (src, dst) cell,
//! exactly `init + iters·step + ⌊iters/ck⌋·round`. [`compose`] splits a
//! prefix's event streams into those three parts, checks that the
//! prefix's two steps and two rounds are the same ordered (dst, bytes)
//! sequence per sender, and scales. Whatever it cannot account for is
//! [`NotPeriodic`], and the caller traces the whole job instead.

use hcft_graph::CommMatrix;
use hcft_simmpi::comm::MAX_USER_TAG;
use hcft_simmpi::MessageEvent;
use hcft_tsunami::solver::is_halo_tag;

use super::{TAG_CKPT_PUSH, TAG_PARITY};

/// Why a prefix does not compose into the full job.
#[derive(Debug, PartialEq, Eq)]
pub(super) enum NotPeriodic {
    /// A message that is neither init, step nor round traffic.
    UnknownTag(u32),
    /// A sender's two steps differ (or a halo fell outside them).
    StepsDiffer,
    /// A sender's two rounds differ.
    RoundsDiffer,
    /// A composed cell does not fit in a `u64`.
    Overflow,
}

/// Which part of the traced job a message belongs to.
enum Part {
    /// Collective-internal traffic: the FTI allgather and the split.
    Init,
    /// A halo message of one solver step.
    Step,
    /// A checkpoint note or a parity-ring step of one round.
    Round,
}

/// Classify a tag; `ring_steps` bounds the parity tags
/// `TAG_PARITY + k` (a ring of `g` encoders takes `g − 1` steps).
fn part(tag: u32, ring_steps: usize) -> Option<Part> {
    if tag > MAX_USER_TAG {
        Some(Part::Init)
    } else if is_halo_tag(tag) {
        Some(Part::Step)
    } else if tag == TAG_CKPT_PUSH || (TAG_PARITY..TAG_PARITY + ring_steps as u32).contains(&tag) {
        Some(Part::Round)
    } else {
        None
    }
}

/// Compose the byte matrix of a job of `iterations` steps and `rounds`
/// checkpoint rounds from the per-sender event streams of its prefix:
/// two steps, stamped phases 0 and 1, and either two rounds or none.
/// Steps are told apart by phase, rounds by order (the first half of a
/// sender's round messages is round 1).
pub(super) fn compose(
    events: &[Vec<MessageEvent>],
    iterations: u64,
    rounds: u64,
    ring_steps: usize,
) -> Result<CommMatrix, NotPeriodic> {
    let mut full = CommMatrix::new(events.len());
    let mut steps: [Vec<(u32, u64)>; 2] = Default::default();
    let mut round = Vec::new();
    // One sender's scaled cells, summed per destination once its stream
    // is read and installed as its row, allocated at its final length.
    let mut cells: Vec<(u32, u64)> = Vec::new();
    for (src, stream) in events.iter().enumerate() {
        steps.iter_mut().for_each(Vec::clear);
        round.clear();
        cells.clear();
        for e in stream {
            match part(e.tag, ring_steps).ok_or(NotPeriodic::UnknownTag(e.tag))? {
                Part::Init => cells.push((e.dst, e.bytes)),
                Part::Step => usize::try_from(e.phase)
                    .ok()
                    .and_then(|p| steps.get_mut(p))
                    .ok_or(NotPeriodic::StepsDiffer)?
                    .push((e.dst, e.bytes)),
                Part::Round => round.push((e.dst, e.bytes)),
            }
        }
        if steps[0] != steps[1] {
            return Err(NotPeriodic::StepsDiffer);
        }
        let (first, second) = round.split_at(round.len() / 2);
        if first != second {
            return Err(NotPeriodic::RoundsDiffer);
        }
        let scaled = |&(dst, bytes): &(u32, u64), times: u64| {
            let bytes = bytes.checked_mul(times).ok_or(NotPeriodic::Overflow)?;
            Ok((dst, bytes))
        };
        for cell in &steps[0] {
            cells.push(scaled(cell, iterations)?);
        }
        for cell in first {
            cells.push(scaled(cell, rounds)?);
        }
        cells.sort_unstable_by_key(|&(dst, _)| dst);
        let runs = || cells.chunk_by(|a, b| a.0 == b.0);
        let mut row = Vec::with_capacity(runs().filter(|run| run.iter().any(|c| c.1 > 0)).count());
        for run in runs() {
            let bytes = run
                .iter()
                .try_fold(0u64, |sum, &(_, b)| sum.checked_add(b))
                .ok_or(NotPeriodic::Overflow)?;
            if bytes > 0 {
                row.push((run[0].0, bytes));
            }
        }
        full.set_row(src, row);
    }
    Ok(full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_tsunami::solver::halo_tag;
    use hcft_tsunami::Dir;

    const COLLECTIVE: u32 = MAX_USER_TAG + 1;

    fn ev(src: u32, dst: u32, bytes: u64, tag: u32, phase: u64) -> MessageEvent {
        MessageEvent {
            src,
            dst,
            bytes,
            tag,
            phase,
        }
    }

    /// Rank 0 is an encoder, ranks 1 and 2 its node's application
    /// ranks; rank 3 is a second encoder in the same ring.
    fn prefix() -> Vec<Vec<MessageEvent>> {
        let east = halo_tag(Dir::East);
        let west = halo_tag(Dir::West);
        vec![
            vec![
                ev(0, 1, 8, COLLECTIVE, 0),
                ev(0, 3, 1024, TAG_PARITY, 0),
                ev(0, 3, 1024, TAG_PARITY, 0),
            ],
            vec![
                ev(1, 0, 8, COLLECTIVE, 0),
                ev(1, 2, 64, east, 0),
                ev(1, 0, 16, TAG_CKPT_PUSH, 0),
                ev(1, 2, 64, east, 1),
                ev(1, 0, 16, TAG_CKPT_PUSH, 1),
            ],
            vec![
                ev(2, 1, 64, west, 0),
                ev(2, 1, 64, west, 1),
                ev(2, 0, 16, TAG_CKPT_PUSH, 0),
                ev(2, 0, 16, TAG_CKPT_PUSH, 1),
            ],
            vec![ev(3, 0, 1024, TAG_PARITY, 0), ev(3, 0, 1024, TAG_PARITY, 0)],
        ]
    }

    #[test]
    fn init_once_steps_by_iterations_rounds_by_rounds() {
        let m = compose(&prefix(), 100, 4, 1).unwrap();
        assert_eq!(m.get(0, 1), 8);
        assert_eq!(m.get(1, 0), 8 + 4 * 16);
        assert_eq!(m.get(1, 2), 100 * 64);
        assert_eq!(m.get(2, 1), 100 * 64);
        assert_eq!(m.get(2, 0), 4 * 16);
        assert_eq!(m.get(0, 3), 4 * 1024);
        assert_eq!(m.get(3, 0), 4 * 1024);
        assert_eq!(m.total_bytes(), 16 + 2 * 6400 + 2 * 64 + 2 * 4096);
    }

    #[test]
    fn a_second_step_with_different_bytes_is_not_periodic() {
        let mut events = prefix();
        events[1][3].bytes = 72;
        assert_eq!(compose(&events, 100, 4, 1), Err(NotPeriodic::StepsDiffer));
    }

    #[test]
    fn a_halo_past_the_second_step_is_not_periodic() {
        let mut events = prefix();
        events[2].push(ev(2, 1, 64, halo_tag(Dir::West), 2));
        assert_eq!(compose(&events, 100, 4, 1), Err(NotPeriodic::StepsDiffer));
    }

    #[test]
    fn rounds_that_differ_or_do_not_pair_up_are_not_periodic() {
        let mut events = prefix();
        events[3][1].dst = 1;
        assert_eq!(compose(&events, 100, 4, 1), Err(NotPeriodic::RoundsDiffer));
        let mut events = prefix();
        events[3].pop();
        assert_eq!(compose(&events, 100, 4, 1), Err(NotPeriodic::RoundsDiffer));
    }

    #[test]
    fn an_unknown_tag_is_not_periodic() {
        let mut events = prefix();
        events[1].push(ev(1, 2, 8, 29, 1));
        assert_eq!(
            compose(&events, 100, 4, 1),
            Err(NotPeriodic::UnknownTag(29))
        );
        // A parity step the ring cannot take is unknown too.
        let mut events = prefix();
        events[0][1].tag = TAG_PARITY + 1;
        assert_eq!(
            compose(&events, 100, 4, 1),
            Err(NotPeriodic::UnknownTag(TAG_PARITY + 1))
        );
    }

    #[test]
    fn u64_overflow_is_refused() {
        assert_eq!(
            compose(&prefix(), u64::MAX / 64 + 1, 4, 1),
            Err(NotPeriodic::Overflow)
        );
        // Each product fits; their sum with the init bytes does not.
        let mut events = prefix();
        events[1][0].bytes = u64::MAX - 63;
        assert_eq!(compose(&events, 100, 4, 1), Err(NotPeriodic::Overflow));
    }
}
