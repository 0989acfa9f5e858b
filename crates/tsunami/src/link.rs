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
//! exactly once on each side.

use hcft_simmpi::Comm;

/// What a stencil step needs from its transport.
pub trait HaloLink {
    /// Stamp `phase` (the step's iteration) on this rank's next sends.
    fn set_phase(&self, phase: u64);

    /// Send `len` wire bytes to `dst` on `tag` (buffered, never blocks);
    /// `fill` writes them into the empty message buffer.
    fn send_with(&self, dst: usize, tag: u32, len: usize, fill: &mut dyn FnMut(&mut Vec<u8>));

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

    fn recv_with(&self, src: usize, tag: u32, install: &mut dyn FnMut(&[u8])) {
        let raw = self.recv_bytes(src, tag);
        install(&raw);
        self.recycle(raw);
    }
}
