//! The communication seam of a stencil step.
//!
//! [`CartDecomp::exchange`](crate::CartDecomp::exchange) and
//! [`Heat3dState::step`](crate::Heat3dState::step) each hold their
//! stencil's one halo-exchange loop; a [`HaloLink`] is all that loop
//! sees of the transport. A plain [`Comm`] is one. The replay engine in
//! `hcft-core` supplies the other, which also keeps sender logs of
//! cross-cluster halos, so every caller runs the same exchange.
//!
//! Payloads travel in wire form (little-endian `f64`): a send serialises
//! an edge straight into a pooled message buffer and a receive installs
//! the halo straight from the delivered one, so each edge is copied
//! exactly once on each side. An exchange that only needs the traffic
//! sends [`HaloLink::send_zeros`] instead, which a [`Comm`] serves as a
//! view of one shared zero block: no byte is written and no buffer is
//! pooled.

use hcft_simmpi::Comm;

/// What a stencil step needs from its transport.
pub trait HaloLink {
    /// Stamp `phase` (the step's iteration) on this rank's next sends.
    fn set_phase(&self, phase: u64);

    /// Send `len` wire bytes to `dst` on `tag` (buffered, never blocks);
    /// `fill` writes them into the empty message buffer.
    fn send_with(&self, dst: usize, tag: u32, len: usize, fill: &mut dyn FnMut(&mut Vec<u8>));

    /// Send `len` zero bytes to `dst` on `tag`: the traffic of an edge no
    /// receiver reads. The default fills a message buffer through
    /// [`HaloLink::send_with`]; a [`Comm`] sends a shared zero view.
    fn send_zeros(&self, dst: usize, tag: u32, len: usize) {
        self.send_with(dst, tag, len, &mut |buf| buf.resize(len, 0));
    }

    /// Block for the message from `src` on `tag`, hand its bytes to
    /// `install`, then return the buffer to the pool.
    fn recv_with(&self, src: usize, tag: u32, install: &mut dyn FnMut(&[u8]));
}

impl HaloLink for Comm {
    fn set_phase(&self, phase: u64) {
        Comm::set_phase(self, phase);
    }

    fn send_with(&self, dst: usize, tag: u32, len: usize, fill: &mut dyn FnMut(&mut Vec<u8>)) {
        Comm::send_with(self, dst, tag, len, fill);
    }

    fn send_zeros(&self, dst: usize, tag: u32, len: usize) {
        Comm::send_zeros(self, dst, tag, len);
    }

    fn recv_with(&self, src: usize, tag: u32, install: &mut dyn FnMut(&[u8])) {
        let raw = self.recv_bytes(src, tag);
        install(&raw);
        self.recycle(raw);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::halo_tag;
    use crate::{Dir, TsunamiParams};
    use std::cell::RefCell;

    /// A link that is not a [`Comm`]: it keeps what it is asked to send
    /// and delivers nothing.
    #[derive(Default)]
    struct Recording {
        sent: RefCell<Vec<(usize, u32, Vec<u8>)>>,
    }

    impl HaloLink for Recording {
        fn set_phase(&self, _: u64) {}

        fn send_with(&self, dst: usize, tag: u32, len: usize, fill: &mut dyn FnMut(&mut Vec<u8>)) {
            let mut buf = Vec::with_capacity(len);
            fill(&mut buf);
            self.sent.borrow_mut().push((dst, tag, buf));
        }

        fn recv_with(&self, _: usize, _: u32, _: &mut dyn FnMut(&[u8])) {}
    }

    #[test]
    fn default_send_zeros_sends_a_zero_filled_edge() {
        // The centre rank of a 3 × 3 grid over an uneven field.
        let d = TsunamiParams::stable(25, 19).decomp(9, 4);
        let link = Recording::default();
        d.exchange_shape(0, &link);
        let want: Vec<_> = Dir::ALL
            .into_iter()
            .filter_map(|dir| {
                let len = 8 * d.edge_cells(dir);
                d.neighbor(dir).map(|n| (n, halo_tag(dir), vec![0; len]))
            })
            .collect();
        assert_eq!(want.len(), 4, "an interior rank");
        assert_eq!(*link.sent.borrow(), want);
    }
}
