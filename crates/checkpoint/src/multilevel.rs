//! The multi-level checkpointer: local write, group encode, recovery.
//!
//! Encoding follows FTI's layout: within an encoding cluster of `s`
//! members, the `s` local checkpoints are the data shards of an RS(s, s)
//! code; member `i`'s node stores data shard `i` (its own checkpoint) and
//! parity shard `i`. Any `s` of the `2s` shards reconstruct everything,
//! so the group survives the loss of up to `⌊s/2⌋` of its *nodes* when
//! fully distributed — and survives nothing if all members share one node
//! (the paper's size-guided pathology).

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hcft_graph::Clustering;
use hcft_telemetry::{HcftError, Registry};
use hcft_topology::Placement;
use rayon::prelude::*;

use hcft_erasure::rs::DecodeCacheStats;
use hcft_erasure::{ReedSolomon, XorCode};

use crate::store::CheckpointStore;
use crate::Level;

/// Frame a checkpoint payload for shard storage: `[len u64 LE][data]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frame_into(payload, &mut out);
    out
}

/// Frame into caller-owned scratch (cleared first) — the allocation-free
/// checkpoint path.
fn frame_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Strip the frame, tolerating zero padding after the payload.
fn unframe(shard: &[u8]) -> io::Result<Vec<u8>> {
    if shard.len() < 8 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "short shard"));
    }
    let len = u64::from_le_bytes(shard[..8].try_into().expect("8 bytes")) as usize;
    if shard.len() < 8 + len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "truncated shard",
        ));
    }
    Ok(shard[8..8 + len].to_vec())
}

/// A rebuilt `(rank, payload)` pair produced by a recovery stage.
type RebuiltPayload = (usize, Vec<u8>);

/// FTI-style multi-level checkpointer over an encoding clustering.
pub struct MultilevelCheckpointer {
    store: CheckpointStore,
    groups: Arc<Clustering>,
    placement: Placement,
    /// RS codes by group size. Reusing a code across epochs keeps its
    /// decode-matrix cache warm, so repeated recoveries of the same
    /// failure pattern skip the matrix inversion.
    codes: Mutex<HashMap<usize, ReedSolomon>>,
    /// Pool of parity buffer sets handed to [`ReedSolomon::encode_into`],
    /// so steady-state checkpoint rounds stop allocating parity.
    parity_scratch: Mutex<Vec<Vec<Vec<u8>>>>,
    /// Pool of frame buffers for local-shard writes, so steady-state
    /// checkpoint rounds stop allocating the `[len][data]` frame too.
    frame_scratch: Mutex<Vec<Vec<u8>>>,
    /// Metrics sink: bytes written per level, scratch-pool hit rate,
    /// per-group encode/verify wall time, rebuilt payload bytes.
    telemetry: Arc<Registry>,
}

impl MultilevelCheckpointer {
    /// Build over `store`, with `groups` as the encoding (L2) clustering
    /// of ranks and `placement` mapping ranks to nodes. Reports metrics
    /// to [`Registry::global`]; see [`MultilevelCheckpointer::with_telemetry`].
    ///
    /// # Panics
    /// Panics if the clustering and placement disagree on the rank count.
    pub fn new(
        store: CheckpointStore,
        groups: impl Into<Arc<Clustering>>,
        placement: Placement,
    ) -> Self {
        Self::with_telemetry(store, groups, placement, Registry::global().clone())
    }

    /// Like [`MultilevelCheckpointer::new`], reporting to a dedicated
    /// registry (scoped measurements: one replay engine, one test).
    ///
    /// # Panics
    /// Panics if the clustering and placement disagree on the rank count.
    pub fn with_telemetry(
        store: CheckpointStore,
        groups: impl Into<Arc<Clustering>>,
        placement: Placement,
        telemetry: Arc<Registry>,
    ) -> Self {
        let groups = groups.into();
        assert_eq!(
            groups.nprocs(),
            placement.nprocs(),
            "clustering/placement rank count"
        );
        MultilevelCheckpointer {
            store,
            groups,
            placement,
            codes: Mutex::new(HashMap::new()),
            parity_scratch: Mutex::new(Vec::new()),
            frame_scratch: Mutex::new(Vec::new()),
            telemetry,
        }
    }

    /// The registry this checkpointer reports to.
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// Aggregate decode-matrix cache counters across every RS code this
    /// checkpointer has instantiated (one per distinct group size).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        let codes = self.codes.lock().expect("codes lock");
        let (mut hits, mut misses) = (0, 0);
        for rs in codes.values() {
            let s = rs.decode_cache_stats();
            hits += s.hits;
            misses += s.misses;
        }
        DecodeCacheStats { hits, misses }
    }

    /// The (shared, cached) RS code for encoding clusters of `s` members.
    fn code_for(&self, s: usize) -> ReedSolomon {
        self.codes
            .lock()
            .expect("codes lock")
            .entry(s)
            .or_insert_with(|| ReedSolomon::new(s, s))
            .clone()
    }

    /// Borrow a set of `count` parity buffers of `len` bytes from the
    /// pool (allocating only on first use or growth).
    fn take_scratch(&self, count: usize, len: usize) -> Vec<Vec<u8>> {
        let pooled = self.parity_scratch.lock().expect("scratch lock").pop();
        if pooled.is_some() {
            self.telemetry.counter("checkpoint.scratch_pool.hits").inc();
        } else {
            self.telemetry
                .counter("checkpoint.scratch_pool.misses")
                .inc();
        }
        let mut set = pooled.unwrap_or_default();
        set.resize_with(count, Vec::new);
        for buf in &mut set {
            buf.resize(len, 0);
        }
        set
    }

    /// Return a buffer set to the pool.
    fn return_scratch(&self, set: Vec<Vec<u8>>) {
        self.parity_scratch.lock().expect("scratch lock").push(set);
    }

    /// Borrow a frame buffer from the pool (allocating only on first use
    /// or payload growth).
    fn take_frame(&self) -> Vec<u8> {
        match self.frame_scratch.lock().expect("frame lock").pop() {
            Some(buf) => {
                self.telemetry.counter("checkpoint.frame_pool.hits").inc();
                buf
            }
            None => {
                self.telemetry.counter("checkpoint.frame_pool.misses").inc();
                Vec::new()
            }
        }
    }

    /// Return a frame buffer to the pool.
    fn return_frame(&self, buf: Vec<u8>) {
        self.frame_scratch.lock().expect("frame lock").push(buf);
    }

    /// The encoding clustering.
    pub fn groups(&self) -> &Clustering {
        &self.groups
    }

    /// The backing store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Take a checkpoint of all ranks' payloads at `epoch` and protect it
    /// at the requested level. As in FTI, a checkpoint is taken *at* one
    /// level: the local copy is always written, plus that level's
    /// protection artefacts (partner copies, XOR parity, Reed–Solomon
    /// parity, or PFS copies).
    pub fn checkpoint(
        &self,
        epoch: u64,
        level: Level,
        payloads: &[Vec<u8>],
    ) -> Result<(), HcftError> {
        assert_eq!(payloads.len(), self.groups.nprocs(), "one payload per rank");
        let mut local_bytes = 0u64;
        let mut framed = self.take_frame();
        for (rank, payload) in payloads.iter().enumerate() {
            let node = self.placement.node_of(rank.into());
            frame_into(payload, &mut framed);
            local_bytes += framed.len() as u64;
            if let Err(e) = self.store.write_local(node, rank, epoch, &framed) {
                self.return_frame(framed);
                return Err(e.into());
            }
        }
        self.return_frame(framed);
        self.telemetry
            .counter("checkpoint.bytes_written.local")
            .add(local_bytes);
        match level {
            Level::Local => {}
            Level::Partner => {
                let mut partner_bytes = 0u64;
                for (_, members) in self.groups.iter() {
                    for (i, &r) in members.iter().enumerate() {
                        let partner = self.partner_node(members, i);
                        partner_bytes += payloads[r.idx()].len() as u64;
                        self.store
                            .write_partner(partner, r.idx(), epoch, &payloads[r.idx()])?;
                    }
                }
                self.telemetry
                    .counter("checkpoint.bytes_written.partner")
                    .add(partner_bytes);
            }
            Level::Xor => {
                for (g, members) in self.groups.iter() {
                    self.xor_encode_group(g, members, epoch)?;
                }
            }
            Level::Encoded => self.encode_epoch(epoch)?,
            Level::Pfs => {
                let mut pfs_bytes = 0u64;
                for (rank, payload) in payloads.iter().enumerate() {
                    pfs_bytes += payload.len() as u64;
                    self.store.write_pfs(rank, epoch, payload)?;
                }
                self.telemetry
                    .counter("checkpoint.bytes_written.pfs")
                    .add(pfs_bytes);
            }
        }
        Ok(())
    }

    /// The node holding member `i`'s partner copy: the next member's node
    /// (ring order within the encoding cluster).
    fn partner_node(&self, members: &[hcft_topology::Rank], i: usize) -> hcft_topology::NodeId {
        let partner = members[(i + 1) % members.len()];
        self.placement.node_of(partner)
    }

    /// Compute one XOR parity over the group's (framed, padded) local
    /// checkpoints and replicate it on two member nodes.
    fn xor_encode_group(
        &self,
        group: usize,
        members: &[hcft_topology::Rank],
        epoch: u64,
    ) -> io::Result<()> {
        if members.len() < 2 {
            return Ok(());
        }
        let started = Instant::now();
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(members.len());
        for &r in members {
            let node = self.placement.node_of(r);
            shards.push(self.store.read_local(node, r.idx(), epoch)?);
        }
        let padded = shards.iter().map(Vec::len).max().expect("non-empty");
        for s in &mut shards {
            s.resize(padded, 0);
        }
        let refs: Vec<&[u8]> = shards.iter().map(|s| &s[..]).collect();
        let parity = XorCode::new(members.len()).encode(&refs);
        // Two replicas on distinct member nodes (when the cluster spans
        // distinct nodes): losing either replica leaves the other.
        let holders = [0, members.len() / 2];
        for &h in &holders {
            let node = self.placement.node_of(members[h]);
            self.store.write_xor(node, group, epoch, &parity)?;
            self.store.write_meta(node, group, epoch, padded as u64)?;
        }
        self.telemetry
            .counter("checkpoint.bytes_written.xor")
            .add(holders.len() as u64 * parity.len() as u64);
        self.telemetry
            .histogram("checkpoint.xor_encode_group_ns")
            .observe_duration(started.elapsed());
        Ok(())
    }

    /// Compute and store parity for every encoding group at `epoch`.
    /// Groups encode independently — in parallel, like FTI's per-node
    /// encoder processes.
    pub fn encode_epoch(&self, epoch: u64) -> Result<(), HcftError> {
        let results: Vec<io::Result<()>> = self
            .groups
            .iter()
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&(g, members)| self.encode_group(g, members, epoch))
            .collect();
        for r in results {
            r?;
        }
        Ok(())
    }

    /// Check that every group's stored parity is consistent with its
    /// stored data shards at `epoch`. Groups verify in parallel; per-group
    /// wall time lands in the `checkpoint.verify_group_ns` histogram.
    /// Returns the ids of groups that fail verification (missing
    /// artefacts count as failing).
    pub fn verify_epoch(&self, epoch: u64) -> Result<Vec<usize>, HcftError> {
        let bad: Vec<Option<usize>> = self
            .groups
            .iter()
            .collect::<Vec<_>>()
            .par_iter()
            .map(|&(g, members)| (!self.verify_group(g, members, epoch)).then_some(g))
            .collect();
        Ok(bad.into_iter().flatten().collect())
    }

    fn verify_group(&self, group: usize, members: &[hcft_topology::Rank], epoch: u64) -> bool {
        if members.len() < 2 {
            return true;
        }
        let started = Instant::now();
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(2 * members.len());
        for &r in members {
            let node = self.placement.node_of(r);
            match self.store.read_local(node, r.idx(), epoch) {
                Ok(d) => shards.push(d),
                Err(_) => return false,
            }
        }
        let padded = shards.iter().map(Vec::len).max().expect("non-empty");
        for s in &mut shards {
            s.resize(padded, 0);
        }
        for &r in members {
            let node = self.placement.node_of(r);
            match self.store.read_parity(node, r.idx(), group, epoch) {
                Ok(p) => shards.push(p),
                Err(_) => return false,
            }
        }
        let rs = self.code_for(members.len());
        let refs: Vec<&[u8]> = shards.iter().map(|s| &s[..]).collect();
        let ok = rs.verify(&refs);
        self.telemetry
            .histogram("checkpoint.verify_group_ns")
            .observe_duration(started.elapsed());
        ok
    }

    fn encode_group(
        &self,
        group: usize,
        members: &[hcft_topology::Rank],
        epoch: u64,
    ) -> io::Result<()> {
        if members.len() < 2 {
            return Ok(()); // nothing to protect a singleton against
        }
        let started = Instant::now();
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(members.len());
        for &r in members {
            let node = self.placement.node_of(r);
            shards.push(self.store.read_local(node, r.idx(), epoch)?);
        }
        let padded = shards.iter().map(Vec::len).max().expect("non-empty");
        for s in &mut shards {
            s.resize(padded, 0);
        }
        let rs = self.code_for(members.len());
        let mut parity = self.take_scratch(members.len(), padded);
        {
            let refs: Vec<&[u8]> = shards.iter().map(|s| &s[..]).collect();
            let outs: Vec<&mut [u8]> = parity.iter_mut().map(|p| &mut p[..]).collect();
            rs.encode_into(&refs, outs);
        }
        let mut result = Ok(());
        let mut parity_bytes = 0u64;
        for (i, &r) in members.iter().enumerate() {
            let node = self.placement.node_of(r);
            parity_bytes += parity[i].len() as u64;
            result = result
                .and_then(|()| {
                    self.store
                        .write_parity(node, r.idx(), group, epoch, &parity[i])
                })
                .and_then(|()| self.store.write_meta(node, group, epoch, padded as u64));
        }
        self.return_scratch(parity);
        self.telemetry
            .counter("checkpoint.bytes_written.parity")
            .add(parity_bytes);
        self.telemetry
            .histogram("checkpoint.encode_group_ns")
            .observe_duration(started.elapsed());
        result
    }

    /// Recover every rank's payload at `epoch`, rebuilding lost local
    /// checkpoints from parity where needed, falling back to the PFS
    /// copy, and reporting a catastrophic failure
    /// ([`HcftError::Erasure`]) otherwise.
    pub fn recover(&self, epoch: u64) -> Result<Vec<Vec<u8>>, HcftError> {
        let n = self.groups.nprocs();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; n];
        // Fast path: intact local checkpoints.
        for (rank, slot) in out.iter_mut().enumerate() {
            let node = self.placement.node_of(rank.into());
            if let Ok(bytes) = self.store.read_local(node, rank, epoch) {
                *slot = Some(unframe(&bytes)?);
            }
        }
        // Ranks that missed the fast path: whatever comes back for them
        // was *rebuilt* (partner / parity / PFS), which the registry
        // reports as `checkpoint.rebuilt_payload_bytes`.
        let lost: Vec<usize> = (0..n).filter(|&r| out[r].is_none()).collect();
        // Cascade per group: partner copies → XOR parity → Reed–Solomon
        // → PFS. Each stage only runs for ranks still missing.
        for (g, members) in self.groups.iter() {
            // Stage 1: partner copies (stored on the next member's node).
            for (i, &r) in members.iter().enumerate() {
                if out[r.idx()].is_none() {
                    let partner = self.partner_node(members, i);
                    if let Ok(bytes) = self.store.read_partner(partner, r.idx(), epoch) {
                        out[r.idx()] = Some(bytes);
                    }
                }
            }
            if members.iter().all(|&r| out[r.idx()].is_some()) {
                continue;
            }
            // Stage 2: XOR parity (rebuilds exactly one missing member).
            if let Some(rebuilt) = self.xor_rebuild_group(g, members, epoch, &out)? {
                for (r, payload) in rebuilt {
                    out[r] = Some(payload);
                }
            }
            if members.iter().all(|&r| out[r.idx()].is_some()) {
                continue;
            }
            // Stage 3: Reed–Solomon.
            match self.rebuild_group(g, members, epoch)? {
                Some(rebuilt) => {
                    for (i, &r) in members.iter().enumerate() {
                        if out[r.idx()].is_none() {
                            out[r.idx()] = Some(unframe(&rebuilt[i])?);
                        }
                    }
                }
                None => {
                    // Erasure level beaten — try the PFS copies.
                    for &r in members {
                        if out[r.idx()].is_none() {
                            match self.store.read_pfs(r.idx(), epoch) {
                                Ok(bytes) => out[r.idx()] = Some(bytes),
                                Err(_) => {
                                    // A group of s members is an RS(s, s)
                                    // code: any s of its 2s shards decode.
                                    // Members still missing here lost both
                                    // their data and parity shard.
                                    let missing =
                                        members.iter().filter(|&&m| out[m.idx()].is_none()).count();
                                    return Err(HcftError::Erasure {
                                        needed: members.len(),
                                        available: 2 * (members.len() - missing),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        self.telemetry
            .counter("checkpoint.rebuilt_payload_bytes")
            .add(
                lost.iter()
                    .map(|&r| out[r].as_ref().expect("recovered").len() as u64)
                    .sum(),
            );
        // Absolute per-store decode-cache totals (the `erasure.*` mirror
        // is process-global; this one follows the scoped registry).
        let cache = self.decode_cache_stats();
        self.telemetry
            .counter("checkpoint.decode_cache.hits")
            .store(cache.hits);
        self.telemetry
            .counter("checkpoint.decode_cache.misses")
            .store(cache.misses);
        Ok(out
            .into_iter()
            .map(|p| p.expect("all ranks recovered"))
            .collect())
    }

    /// Attempt an XOR rebuild: succeeds when exactly one member is
    /// missing, some replica of the group parity survives, and every
    /// other member's local checkpoint is readable. Returns the rebuilt
    /// `(rank, payload)` pairs (at most one).
    fn xor_rebuild_group(
        &self,
        group: usize,
        members: &[hcft_topology::Rank],
        epoch: u64,
        out: &[Option<Vec<u8>>],
    ) -> Result<Option<Vec<RebuiltPayload>>, HcftError> {
        if members.len() < 2 {
            return Ok(None);
        }
        let missing: Vec<usize> = members
            .iter()
            .enumerate()
            .filter(|(_, r)| out[r.idx()].is_none())
            .map(|(i, _)| i)
            .collect();
        if missing.len() != 1 {
            return Ok(None);
        }
        let lost = missing[0];
        // Any surviving parity replica + its padded length.
        let holders = [0, members.len() / 2];
        let Some((parity, padded)) = holders.iter().find_map(|&h| {
            let node = self.placement.node_of(members[h]);
            let parity = self.store.read_xor(node, group, epoch).ok()?;
            let padded = self.store.read_meta(node, group, epoch).ok()? as usize;
            Some((parity, padded))
        }) else {
            return Ok(None);
        };
        // XOR the parity with every surviving (framed, padded) shard.
        let mut acc = parity;
        if acc.len() != padded {
            return Ok(None); // inconsistent artefacts: defer to RS/PFS
        }
        for (i, &r) in members.iter().enumerate() {
            if i == lost {
                continue;
            }
            let node = self.placement.node_of(r);
            let Ok(mut shard) = self.store.read_local(node, r.idx(), epoch) else {
                return Ok(None);
            };
            shard.resize(padded, 0);
            hcft_erasure::kernel::xor_acc(&mut acc, &shard);
        }
        let payload = unframe(&acc)?;
        // Re-protect the rebuilt local copy.
        let node = self.placement.node_of(members[lost]);
        self.store
            .write_local(node, members[lost].idx(), epoch, &frame(&payload))?;
        Ok(Some(vec![(members[lost].idx(), payload)]))
    }

    /// Attempt RS reconstruction of a group's framed data shards.
    /// `Ok(None)` means the group is beyond its erasure tolerance.
    fn rebuild_group(
        &self,
        group: usize,
        members: &[hcft_topology::Rank],
        epoch: u64,
    ) -> Result<Option<Vec<Vec<u8>>>, HcftError> {
        if members.len() < 2 {
            return Ok(None);
        }
        let s = members.len();
        // Padded length from any surviving member's meta.
        let padded = members
            .iter()
            .find_map(|&r| {
                self.store
                    .read_meta(self.placement.node_of(r), group, epoch)
                    .ok()
            })
            .map(|l| l as usize);
        let Some(padded) = padded else {
            return Ok(None); // no meta anywhere: encoding never happened
        };
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; 2 * s];
        for (i, &r) in members.iter().enumerate() {
            let node = self.placement.node_of(r);
            if let Ok(mut d) = self.store.read_local(node, r.idx(), epoch) {
                d.resize(padded, 0);
                shards[i] = Some(d);
            }
            if let Ok(p) = self.store.read_parity(node, r.idx(), group, epoch) {
                shards[s + i] = Some(p);
            }
        }
        let missing = shards.iter().filter(|x| x.is_none()).count();
        if missing > s {
            return Ok(None);
        }
        let rs = self.code_for(s);
        if rs.reconstruct(&mut shards).is_err() {
            return Ok(None);
        }
        // Re-protect: write the rebuilt shards back to their nodes.
        for (i, &r) in members.iter().enumerate() {
            let node = self.placement.node_of(r);
            if !self.store.has_local(node, r.idx(), epoch) {
                self.store.write_local(
                    node,
                    r.idx(),
                    epoch,
                    shards[i].as_ref().expect("rebuilt"),
                )?;
                self.store.write_parity(
                    node,
                    r.idx(),
                    group,
                    epoch,
                    shards[s + i].as_ref().expect("rebuilt"),
                )?;
                self.store.write_meta(node, group, epoch, padded as u64)?;
            }
        }
        Ok(Some(
            shards[..s]
                .iter()
                .map(|x| x.clone().expect("rebuilt"))
                .collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcft_topology::{NodeId, Rank};

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "hcft-ml-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&p).expect("temp dir");
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|r| {
                (0..(50 + r * 13))
                    .map(|b| ((r * 7 + b) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    /// Distributed groups: 4 nodes × 2 ranks, groups of 4 = one rank per
    /// node per slot.
    fn distributed_setup(dir: &TempDir) -> (MultilevelCheckpointer, Vec<Vec<u8>>) {
        let placement = Placement::block(4, 2);
        let assignment: Vec<usize> = (0..8).map(|r| r % 2).collect();
        let groups = Clustering::from_assignment(&assignment);
        let store = CheckpointStore::create(&dir.0, 4).expect("store");
        let ml = MultilevelCheckpointer::new(store, groups, placement);
        let data = payloads(8);
        (ml, data)
    }

    #[test]
    fn local_checkpoint_recovers_without_failures() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(1, Level::Local, &data).expect("ckpt");
        assert_eq!(ml.recover(1).expect("recover"), data);
    }

    #[test]
    fn encoded_checkpoint_survives_one_node_loss() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(2, Level::Encoded, &data).expect("ckpt");
        ml.store().fail_node(NodeId(1)).expect("kill node");
        let recovered = ml.recover(2).expect("rebuild from parity");
        assert_eq!(recovered, data);
    }

    #[test]
    fn encoded_checkpoint_survives_two_node_losses() {
        // Groups of 4 over 4 nodes tolerate ⌊4/2⌋ = 2 node losses.
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(3, Level::Encoded, &data).expect("ckpt");
        ml.store().fail_node(NodeId(0)).expect("kill");
        ml.store().fail_node(NodeId(3)).expect("kill");
        assert_eq!(ml.recover(3).expect("rebuild"), data);
    }

    #[test]
    fn three_node_losses_are_catastrophic_without_pfs() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(4, Level::Encoded, &data).expect("ckpt");
        for n in [0u32, 1, 2] {
            ml.store().fail_node(NodeId(n)).expect("kill");
        }
        match ml.recover(4) {
            Err(HcftError::Erasure { .. }) => {}
            other => panic!("expected catastrophic, got {other:?}"),
        }
    }

    #[test]
    fn pfs_level_survives_everything() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(5, Level::Pfs, &data).expect("ckpt");
        for n in 0..4u32 {
            ml.store().fail_node(NodeId(n)).expect("kill");
        }
        assert_eq!(ml.recover(5).expect("PFS fallback"), data);
    }

    #[test]
    fn same_node_group_dies_with_its_node() {
        // Anti-pattern: both group members on one node (the paper's
        // size-guided clustering) — parity lives with the data.
        let dir = TempDir::new();
        let placement = Placement::block(2, 2);
        let groups = Clustering::consecutive(4, 2); // {0,1} on node 0, {2,3} on node 1
        let store = CheckpointStore::create(&dir.0, 2).expect("store");
        let ml = MultilevelCheckpointer::new(store, groups, placement);
        let data = payloads(4);
        ml.checkpoint(1, Level::Encoded, &data).expect("ckpt");
        ml.store().fail_node(NodeId(0)).expect("kill");
        assert!(matches!(ml.recover(1), Err(HcftError::Erasure { .. })));
    }

    #[test]
    fn rebuilt_shards_are_rewritten_for_reprotection() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(6, Level::Encoded, &data).expect("ckpt");
        ml.store().fail_node(NodeId(2)).expect("kill");
        ml.recover(6).expect("rebuild");
        // The failed node's artefacts exist again: recovery re-protected.
        let node2_ranks: Vec<Rank> = vec![Rank(4), Rank(5)];
        for r in node2_ranks {
            assert!(ml.store().has_local(NodeId(2), r.idx(), 6));
        }
        // And a second loss of a *different* node is still recoverable.
        ml.store().fail_node(NodeId(0)).expect("kill");
        assert_eq!(ml.recover(6).expect("second rebuild"), data);
    }

    #[test]
    fn unequal_payload_sizes_are_padded_transparently() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir); // payloads have varied sizes already
        assert!(
            data.iter()
                .map(Vec::len)
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1
        );
        ml.checkpoint(7, Level::Encoded, &data).expect("ckpt");
        ml.store().fail_node(NodeId(3)).expect("kill");
        assert_eq!(ml.recover(7).expect("rebuild"), data);
    }
}

#[cfg(test)]
mod partner_xor_level_tests {
    use super::*;
    use hcft_topology::NodeId;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new() -> Self {
            use std::sync::atomic::{AtomicU64, Ordering};
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let p = std::env::temp_dir().join(format!(
                "hcft-mlpx-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&p).expect("temp dir");
            TempDir(p)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|r| {
                (0..(40 + r * 11))
                    .map(|b| ((r * 7 + b) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    /// 4 nodes × 2 ranks, distributed groups of 4 (one rank per node).
    fn setup(dir: &TempDir) -> (MultilevelCheckpointer, Vec<Vec<u8>>) {
        let placement = Placement::block(4, 2);
        let groups = Clustering::from_assignment(&(0..8).map(|r| r % 2).collect::<Vec<_>>());
        let store = CheckpointStore::create(&dir.0, 4).expect("store");
        (
            MultilevelCheckpointer::new(store, groups, placement),
            payloads(8),
        )
    }

    #[test]
    fn partner_level_survives_one_node_loss() {
        let dir = TempDir::new();
        let (ml, data) = setup(&dir);
        ml.checkpoint(1, Level::Partner, &data).expect("ckpt");
        ml.store().fail_node(NodeId(2)).expect("kill");
        assert_eq!(ml.recover(1).expect("partner copies"), data);
    }

    #[test]
    fn partner_level_dies_on_adjacent_pair_loss() {
        // Losing a node AND its partner kills both copies of the first
        // node's ranks; with no parity, that is catastrophic.
        let dir = TempDir::new();
        let (ml, data) = setup(&dir);
        ml.checkpoint(1, Level::Partner, &data).expect("ckpt");
        ml.store().fail_node(NodeId(1)).expect("kill");
        ml.store().fail_node(NodeId(2)).expect("kill");
        assert!(matches!(ml.recover(1), Err(HcftError::Erasure { .. })));
    }

    #[test]
    fn xor_level_survives_one_node_loss() {
        let dir = TempDir::new();
        let (ml, data) = setup(&dir);
        ml.checkpoint(2, Level::Xor, &data).expect("ckpt");
        // Node 0 holds one parity replica — kill it to force use of the
        // second replica on node 2.
        ml.store().fail_node(NodeId(0)).expect("kill");
        assert_eq!(ml.recover(2).expect("xor rebuild"), data);
    }

    #[test]
    fn xor_level_dies_on_two_node_losses() {
        let dir = TempDir::new();
        let (ml, data) = setup(&dir);
        ml.checkpoint(3, Level::Xor, &data).expect("ckpt");
        ml.store().fail_node(NodeId(1)).expect("kill");
        ml.store().fail_node(NodeId(3)).expect("kill");
        assert!(matches!(ml.recover(3), Err(HcftError::Erasure { .. })));
    }

    #[test]
    fn xor_rebuild_reprotects_the_local_copy() {
        let dir = TempDir::new();
        let (ml, data) = setup(&dir);
        ml.checkpoint(4, Level::Xor, &data).expect("ckpt");
        ml.store().fail_node(NodeId(3)).expect("kill");
        ml.recover(4).expect("rebuild");
        // Node 3's ranks (6, 7) have local copies again.
        assert!(ml.store().has_local(NodeId(3), 6, 4));
        assert!(ml.store().has_local(NodeId(3), 7, 4));
    }

    #[test]
    fn same_node_group_partner_copy_is_useless() {
        // The size-guided pathology also defeats partner copies: the
        // "partner" is the same node.
        let dir = TempDir::new();
        let placement = Placement::block(2, 2);
        let groups = Clustering::consecutive(4, 2); // each group = one node
        let store = CheckpointStore::create(&dir.0, 2).expect("store");
        let ml = MultilevelCheckpointer::new(store, groups, placement);
        let data = payloads(4);
        ml.checkpoint(1, Level::Partner, &data).expect("ckpt");
        ml.store().fail_node(NodeId(0)).expect("kill");
        assert!(matches!(ml.recover(1), Err(HcftError::Erasure { .. })));
    }
}
