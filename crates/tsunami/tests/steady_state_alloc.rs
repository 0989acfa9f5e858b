//! The zero-copy contract, enforced: once pools are warm, both stencils'
//! shared steps perform **zero** heap allocations on the message path.
//!
//! This is the regression test behind `runtime.alloc.msg_buffers` — the
//! counter only moves when a message buffer comes from the real
//! allocator instead of the buffer pool. The test lives alone in this
//! file, and runs the two stencils one after the other inside a single
//! `#[test]`, because the counter is process-global: a concurrently
//! running sibling would add its own warm-up allocations to the window.

use hcft_simmpi::{Comm, World};
use hcft_tsunami::{Heat3dParams, Heat3dState, RankState, TsunamiParams};

/// Per rank, the message-buffer allocations of 50 steps taken after 20
/// warm-up steps have converged pool capacities and mailbox storage.
fn steady_state_allocs<S: 'static>(
    nprocs: usize,
    init: impl Fn(&Comm) -> S + Send + Sync + 'static,
    step: impl Fn(&mut S, &Comm) + Send + Sync + 'static,
) -> Vec<u64> {
    World::run(nprocs, move |c| {
        let allocs = hcft_telemetry::Registry::global().counter("runtime.alloc.msg_buffers");
        let mut st = init(c);
        for _ in 0..20 {
            step(&mut st, c);
        }
        c.barrier();
        let before = allocs.get();
        // Second barrier so no rank starts the measured window until
        // every rank has taken its snapshot.
        c.barrier();
        for _ in 0..50 {
            step(&mut st, c);
        }
        // All measured steps (on every rank) complete before any rank
        // reads the post-window counter.
        c.barrier();
        allocs.get() - before
    })
    .outputs
}

#[test]
fn shared_steps_allocate_no_message_buffers() {
    let allocs = hcft_telemetry::Registry::global().counter("runtime.alloc.msg_buffers");

    let p = TsunamiParams::stable(48, 48);
    let q = p.clone();
    let tsunami = steady_state_allocs(
        4,
        move |c| RankState::new(&p, c.size(), c.rank()),
        move |st, c| st.step(&q, c),
    );
    // 8×4×4-cell blocks: x planes of 16 cells, y planes of 32, so the
    // pool serves buffers of two sizes.
    let p = Heat3dParams::stable((16, 8, 4), (2, 2, 1));
    let heat3d = steady_state_allocs(
        4,
        move |c| Heat3dState::new(&p, c.size(), c.rank()),
        |st, c| st.step(c),
    );

    for (stencil, per_rank) in [("tsunami", tsunami), ("heat3d", heat3d)] {
        for (rank, grew) in per_rank.into_iter().enumerate() {
            assert_eq!(
                grew, 0,
                "{stencil} rank {rank} observed {grew} message-buffer allocations \
                 during 50 steady-state steps (expected 0)"
            );
        }
    }
    // Sanity: the runs did exercise the allocator during warm-up, so a
    // silently dead counter cannot fake a pass.
    assert!(allocs.get() > 0, "warm-up should hit the allocator");
}
