//! The multi-level checkpointer: per-node bundle writes, group encode,
//! recovery.
//!
//! Encoding follows FTI's layout: within an encoding cluster of `s`
//! members, the `s` local checkpoints are the data shards of an RS(s, s)
//! code; member `i`'s node stores data shard `i` (its own checkpoint) and
//! parity shard `i`. Any `s` of the `2s` shards reconstruct everything,
//! so the group survives the loss of up to `⌊s/2⌋` of its *nodes* when
//! fully distributed — and survives nothing if all members share one node
//! (the paper's size-guided pathology).
//!
//! A checkpoint builds each node's bundles once, in parallel over nodes
//! (the layout is in [`crate::store`]): its `.local` bundle and, at the
//! `Encoded` level, its `.parity` bundle. Data shard `i` is
//! member `i`'s payload framed as `[len u64 LE][payload]` and
//! zero-padded to the group's longest frame. Parity rows are computed
//! straight from the caller's payloads, one hosted member at a time, so
//! an epoch is never read back and no second copy of the payloads is
//! held.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hcft_graph::Clustering;
use hcft_telemetry::{HcftError, Registry};
use hcft_topology::{NodeId, Placement, Rank};
use rayon::prelude::*;

use hcft_erasure::rs::DecodeCacheStats;
use hcft_erasure::ReedSolomon;

use crate::store::{Artefact, Bundle, BundleWriter, CheckpointStore};
use crate::Level;

/// Length of the `[len u64 LE]` header that frames a local payload.
const HEADER: usize = 8;

/// The frame header of `payload`.
fn header(payload: &[u8]) -> [u8; HEADER] {
    (payload.len() as u64).to_le_bytes()
}

/// Strip the frame, tolerating zero padding after the payload. `None`
/// when the declared length does not fit the shard: that shard is lost,
/// and recovery rebuilds it like a quarantined one.
fn unframe(shard: &[u8]) -> Option<&[u8]> {
    let head: [u8; HEADER] = shard.get(..HEADER)?.try_into().ok()?;
    let len = usize::try_from(u64::from_le_bytes(head)).ok()?;
    shard[HEADER..].get(..len)
}

/// A payload's frame as a data shard of `padded` bytes, or `None` when
/// the frame does not fit.
fn data_shard(payload: &[u8], padded: usize) -> Option<Vec<u8>> {
    (HEADER + payload.len() <= padded).then(|| {
        let mut shard = Vec::with_capacity(padded);
        shard.extend_from_slice(&header(payload));
        shard.extend_from_slice(payload);
        shard.resize(padded, 0);
        shard
    })
}

/// Parity row `p` of the group `members` into `row`, straight from the
/// payloads: data shard `j` is member `j`'s frame, zero-padded to
/// `row.len()`.
fn parity_row(rs: &ReedSolomon, p: usize, members: &[Rank], payloads: &[Vec<u8>], row: &mut [u8]) {
    let headers: Vec<[u8; HEADER]> = members.iter().map(|r| header(&payloads[r.idx()])).collect();
    let shards: Vec<[&[u8]; 2]> = members
        .iter()
        .zip(&headers)
        .map(|(r, head)| [&head[..], &payloads[r.idx()][..]])
        .collect();
    let data: Vec<&[&[u8]]> = shards.iter().map(|s| &s[..]).collect();
    rs.encode_row_into(p, &data, row);
}

/// The bundles one recovery has read, each read at most once (a failed
/// read is remembered as `None`).
struct Bundles<'s> {
    store: &'s CheckpointStore,
    epoch: u64,
    read: HashMap<Artefact, Option<Bundle>>,
}

impl Bundles<'_> {
    /// Entry `id` of the bundle at `at`, copied out.
    fn entry(&mut self, at: Artefact, id: usize) -> Option<Vec<u8>> {
        let (store, epoch) = (self.store, self.epoch);
        self.read
            .entry(at)
            .or_insert_with(|| store.read_bundle(at, epoch).ok())
            .as_ref()?
            .get(id as u64)
            .map(<[u8]>::to_vec)
    }
}

/// FTI-style multi-level checkpointer over an encoding clustering.
pub struct MultilevelCheckpointer {
    store: CheckpointStore,
    groups: Arc<Clustering>,
    placement: Placement,
    /// RS codes by group size. Reusing a code across epochs keeps its
    /// decode-matrix cache warm, so repeated recoveries of the same
    /// failure pattern skip the matrix inversion.
    codes: Mutex<HashMap<usize, ReedSolomon>>,
    /// Pool of bundle buffers, so steady-state checkpoint rounds stop
    /// allocating.
    scratch: Mutex<Vec<Vec<u8>>>,
    /// Metrics sink: bytes and files written per kind, scratch-pool hit
    /// rate, per-node write time, rebuilt payload bytes.
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
    /// registry (scoped measurements: one replay engine, one test) — the
    /// store's `checkpoint.files.*` counters included.
    ///
    /// # Panics
    /// Panics if the clustering and placement disagree on the rank count.
    pub fn with_telemetry(
        mut store: CheckpointStore,
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
        store.telemetry = Arc::clone(&telemetry);
        MultilevelCheckpointer {
            store,
            groups,
            placement,
            codes: Mutex::new(HashMap::new()),
            scratch: Mutex::new(Vec::new()),
            telemetry,
        }
    }

    /// Aggregate decode-matrix cache counters across every RS code this
    /// checkpointer has instantiated (one per distinct group size).
    pub(crate) fn decode_cache_stats(&self) -> DecodeCacheStats {
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

    /// Borrow a bundle buffer from the pool (allocating only on first
    /// use or growth).
    fn take_scratch(&self) -> Vec<u8> {
        let pooled = self.scratch.lock().expect("scratch lock").pop();
        if pooled.is_some() {
            self.telemetry.counter("checkpoint.scratch_pool.hits").inc();
        } else {
            self.telemetry
                .counter("checkpoint.scratch_pool.misses")
                .inc();
        }
        pooled.unwrap_or_default()
    }

    /// Return a buffer to the pool.
    fn return_scratch(&self, buf: Vec<u8>) {
        self.scratch.lock().expect("scratch lock").push(buf);
    }

    /// The backing store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Take a checkpoint of all ranks' payloads at `epoch` and protect it
    /// at the requested level. As in FTI, a checkpoint is taken *at* one
    /// level: the local copy is always written, plus that level's
    /// protection artefacts (Reed–Solomon parity or PFS copies).
    pub fn checkpoint(
        &self,
        epoch: u64,
        level: Level,
        payloads: &[Vec<u8>],
    ) -> Result<(), HcftError> {
        assert_eq!(payloads.len(), self.groups.nprocs(), "one payload per rank");
        self.write_nodes(epoch, payloads, true, level == Level::Encoded, &[])?;
        if level == Level::Pfs {
            // A buffer of its own: every payload, too large to pool.
            self.write_bundle(Artefact::Pfs, epoch, payloads, &[], &[], &mut Vec::new())?;
        }
        Ok(())
    }

    /// Compute and store Reed–Solomon parity for every encoding group at
    /// `epoch`, whose locals were written from `payloads`: the
    /// [`Level::Encoded`] path of [`MultilevelCheckpointer::checkpoint`]
    /// without the locals. A group with a member whose node has lost its
    /// `.local` bundle since (a failure during encoding) gets no parity
    /// and fails the call — encoding from the in-memory payloads would
    /// otherwise hide the loss.
    pub fn encode_epoch(&self, epoch: u64, payloads: &[Vec<u8>]) -> Result<(), HcftError> {
        assert_eq!(payloads.len(), self.groups.nprocs(), "one payload per rank");
        let lost: Vec<bool> = (0..self.placement.nodes())
            .map(|n| {
                !self
                    .store
                    .has_bundle(Artefact::Local(NodeId::from(n)), epoch)
            })
            .collect();
        let broken: Vec<bool> = self
            .groups
            .iter()
            .map(|(_, members)| {
                members.len() >= 2
                    && members
                        .iter()
                        .any(|&r| lost[self.placement.node_of(r).idx()])
            })
            .collect();
        self.write_nodes(epoch, payloads, false, true, &broken)?;
        match broken.iter().position(|&b| b) {
            None => Ok(()),
            Some(g) => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "encoding group {g} lost a member's local checkpoint of epoch {epoch} \
                     before its parity was written"
                ),
            )
            .into()),
        }
    }

    /// Write every node's share of `epoch`, in parallel over nodes: its
    /// `.local` bundle when `local`, then its `.parity` bundle when
    /// `parity`. Groups flagged in `broken` get no parity.
    fn write_nodes(
        &self,
        epoch: u64,
        payloads: &[Vec<u8>],
        local: bool,
        parity: bool,
        broken: &[bool],
    ) -> Result<(), HcftError> {
        let padded = self.padded_lens(payloads);
        let results: Vec<io::Result<()>> = (0..self.placement.nodes())
            .into_par_iter()
            .map(|n| {
                let started = Instant::now();
                let node = NodeId::from(n);
                let mut buf = self.take_scratch();
                let result = [
                    (local, Artefact::Local(node)),
                    (parity, Artefact::Parity(node)),
                ]
                .into_iter()
                .filter(|&(on, _)| on)
                .try_for_each(|(_, at)| {
                    self.write_bundle(at, epoch, payloads, &padded, broken, &mut buf)
                });
                self.return_scratch(buf);
                self.telemetry
                    .histogram("checkpoint.write_node_ns")
                    .observe_duration(started.elapsed());
                result
            })
            .collect();
        for result in results {
            result?;
        }
        Ok(())
    }

    /// Serialise the bundle at `at` from the payloads into `buf` and
    /// write it for `epoch`; an empty bundle is not written. `padded`
    /// holds each group's padded shard length, and groups flagged in
    /// `broken` get no parity row.
    fn write_bundle(
        &self,
        at: Artefact,
        epoch: u64,
        payloads: &[Vec<u8>],
        padded: &[usize],
        broken: &[bool],
        buf: &mut Vec<u8>,
    ) -> io::Result<()> {
        let mut bundle = BundleWriter::new(buf);
        match at {
            Artefact::Local(node) => {
                for r in self.placement.ranks_on(node) {
                    let payload = &payloads[r.idx()][..];
                    bundle.push(r.idx() as u64, &[&header(payload)[..], payload]);
                }
            }
            Artefact::Parity(node) => {
                for &r in self.placement.ranks_on(node) {
                    let g = self.groups.cluster_of(r);
                    let members = self.groups.members(g);
                    // Nothing to protect a singleton against.
                    if members.len() < 2 || broken.get(g) == Some(&true) {
                        continue;
                    }
                    let p = members
                        .iter()
                        .position(|&m| m == r)
                        .expect("a rank is a member of its own group");
                    let rs = self.code_for(members.len());
                    bundle.push_with(r.idx() as u64, padded[g], |row| {
                        parity_row(&rs, p, members, payloads, row)
                    });
                }
            }
            Artefact::Pfs => {
                for (r, payload) in payloads.iter().enumerate() {
                    bundle.push(r as u64, &[&payload[..]]);
                }
            }
        }
        if bundle.is_empty() {
            return Ok(());
        }
        self.store.write_bundle(at, epoch, buf)?;
        self.telemetry
            .counter(&format!("checkpoint.bytes_written.{}", at.extension()))
            .add(buf.len() as u64);
        Ok(())
    }

    /// Each group's padded shard length: its longest member's frame.
    fn padded_lens(&self, payloads: &[Vec<u8>]) -> Vec<usize> {
        self.groups
            .iter()
            .map(|(_, members)| {
                HEADER
                    + members
                        .iter()
                        .map(|r| payloads[r.idx()].len())
                        .max()
                        .unwrap_or(0)
            })
            .collect()
    }

    /// Recover every rank's payload at `epoch`: from the local
    /// checkpoints, then by Reed–Solomon rebuild of what they lost, then
    /// from the PFS copy, reporting a catastrophic failure
    /// ([`HcftError::Erasure`]) otherwise. What Reed–Solomon rebuilt is
    /// written back to the nodes that lost it.
    pub fn recover(&self, epoch: u64) -> Result<Vec<Vec<u8>>, HcftError> {
        let n = self.groups.nprocs();
        let nodes = self.placement.nodes();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; n];
        // Fast path: one `.local` bundle per node. A missing or
        // unparsable bundle loses the node's shards, a frame that does
        // not fit its shard loses that one.
        for node in (0..nodes).map(NodeId::from) {
            if let Ok(bundle) = self.store.read_bundle(Artefact::Local(node), epoch) {
                for r in self.placement.ranks_on(node) {
                    out[r.idx()] = bundle
                        .get(r.idx() as u64)
                        .and_then(unframe)
                        .map(<[u8]>::to_vec);
                }
            }
        }
        // Ranks that missed the fast path: whatever comes back for them
        // was *rebuilt* (parity / PFS), which the registry reports as
        // `checkpoint.rebuilt_payload_bytes`.
        let lost: Vec<usize> = (0..n).filter(|&r| out[r].is_none()).collect();
        let mut bundles = Bundles {
            store: &self.store,
            epoch,
            read: HashMap::new(),
        };
        // Nodes a Reed–Solomon rebuild restored, whose bundles recovery
        // writes back.
        let mut rebuilt_nodes = vec![false; nodes];
        let missing = |members: &[Rank], out: &[Option<Vec<u8>>]| {
            members.iter().filter(|r| out[r.idx()].is_none()).count()
        };
        // Cascade per group: Reed–Solomon, then the PFS for ranks still
        // missing.
        for (_, members) in self.groups.iter() {
            if missing(members, &out) == 0 {
                continue;
            }
            if let Some(rebuilt) = self.rs_rebuild(members, &mut out, &mut bundles) {
                for r in rebuilt {
                    rebuilt_nodes[self.placement.node_of(r).idx()] = true;
                }
                continue;
            }
            // Erasure level beaten — try the PFS copies.
            for r in members {
                if out[r.idx()].is_none() {
                    out[r.idx()] = bundles.entry(Artefact::Pfs, r.idx());
                }
            }
            let still = missing(members, &out);
            if still > 0 {
                // A group of s members is an RS(s, s) code: any s of its
                // 2s shards decode. Members still missing here lost both
                // their data and parity shard.
                return Err(HcftError::Erasure {
                    needed: members.len(),
                    available: 2 * (members.len() - still),
                });
            }
        }
        let payloads: Vec<Vec<u8>> = out
            .into_iter()
            .map(|p| p.expect("all ranks recovered"))
            .collect();
        self.reprotect(epoch, &payloads, &rebuilt_nodes)?;
        self.telemetry
            .counter("checkpoint.rebuilt_payload_bytes")
            .add(lost.iter().map(|&r| payloads[r].len() as u64).sum());
        // Absolute per-store decode-cache totals (the `erasure.*` mirror
        // is process-global; this one follows the scoped registry).
        let cache = self.decode_cache_stats();
        self.telemetry
            .counter("checkpoint.decode_cache.hits")
            .store(cache.hits);
        self.telemetry
            .counter("checkpoint.decode_cache.misses")
            .store(cache.misses);
        Ok(payloads)
    }

    /// Write what recovery rebuilt back to the nodes that lost it: every
    /// node flagged in `rebuilt` gets its `.local` bundle, and its
    /// `.parity` bundle if it has none.
    fn reprotect(&self, epoch: u64, payloads: &[Vec<u8>], rebuilt: &[bool]) -> io::Result<()> {
        let padded = self.padded_lens(payloads);
        let mut buf = self.take_scratch();
        let result = (0..rebuilt.len())
            .filter(|&n| rebuilt[n])
            .map(NodeId::from)
            .try_for_each(|node| -> io::Result<()> {
                self.write_bundle(
                    Artefact::Local(node),
                    epoch,
                    payloads,
                    &padded,
                    &[],
                    &mut buf,
                )?;
                let at = Artefact::Parity(node);
                if !self.store.has_bundle(at, epoch) {
                    self.write_bundle(at, epoch, payloads, &padded, &[], &mut buf)?;
                }
                Ok(())
            });
        self.return_scratch(buf);
        result
    }

    /// Reed–Solomon rebuild of a group's missing payloads, in place. The
    /// data shards are the frames of the payloads already recovered; the
    /// parity shards read are those of the lowest-indexed surviving
    /// members, only as many as payloads are missing — the rows a full
    /// reconstruct would pick, so one erasure pattern still builds one
    /// decode matrix. Returns the rebuilt ranks, or `None` when the group
    /// is beyond its tolerance or was never encoded.
    fn rs_rebuild(
        &self,
        members: &[Rank],
        out: &mut [Option<Vec<u8>>],
        bundles: &mut Bundles,
    ) -> Option<Vec<Rank>> {
        let s = members.len();
        if s < 2 {
            return None;
        }
        let mut parity = members.iter().enumerate().filter_map(|(i, &r)| {
            let node = self.placement.node_of(r);
            Some((i, bundles.entry(Artefact::Parity(node), r.idx())?))
        });
        // The first surviving parity shard is as long as the group's
        // padded shard; there is none if the group was never encoded.
        let (first, first_shard) = parity.next()?;
        let padded = first_shard.len();
        let mut shards: Vec<Option<Vec<u8>>> = members
            .iter()
            .map(|r| out[r.idx()].as_deref().and_then(|p| data_shard(p, padded)))
            .collect();
        let lost: Vec<usize> = (0..s).filter(|&i| shards[i].is_none()).collect();
        shards.resize(2 * s, None);
        shards[s + first] = Some(first_shard);
        for (i, shard) in parity
            .filter(|(_, shard)| shard.len() == padded)
            .take(lost.len().saturating_sub(1))
        {
            shards[s + i] = Some(shard);
        }
        self.code_for(s).reconstruct_data(&mut shards).ok()?;
        let rebuilt: Vec<Vec<u8>> = lost
            .iter()
            .map(|&i| unframe(shards[i].as_deref()?).map(<[u8]>::to_vec))
            .collect::<Option<_>>()?;
        for (&i, payload) in lost.iter().zip(rebuilt) {
            out[members[i].idx()] = Some(payload);
        }
        Some(lost.iter().map(|&i| members[i]).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let ml = MultilevelCheckpointer::with_telemetry(store, groups, placement, Registry::new());
        let data = payloads(8);
        (ml, data)
    }

    /// Does `rank`'s local shard exist on `node` at `epoch`?
    fn has_shard(ml: &MultilevelCheckpointer, node: u32, rank: u64, epoch: u64) -> bool {
        ml.store()
            .read_bundle(Artefact::Local(NodeId(node)), epoch)
            .is_ok_and(|b| b.get(rank).is_some())
    }

    /// Overwrite the frame header of `rank`'s local shard on `node`.
    fn set_frame_len(ml: &MultilevelCheckpointer, node: u32, rank: u64, epoch: u64, len: u64) {
        let at = Artefact::Local(NodeId(node));
        let mut bundle = ml.store().read_bundle(at, epoch).expect("local bundle");
        bundle.get_mut(rank).expect("shard")[..HEADER].copy_from_slice(&len.to_le_bytes());
        ml.store()
            .write_bundle(at, epoch, bundle.as_bytes())
            .expect("rewrite");
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
        for r in [4, 5] {
            assert!(has_shard(&ml, 2, r, 6));
        }
        assert!(ml.store().has_bundle(Artefact::Parity(NodeId(2)), 6));
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

    #[test]
    fn parity_rows_equal_the_assembled_encode() {
        // The per-member rows written from the payloads are exactly the
        // parity a full encode of the framed, padded shards produces.
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(1, Level::Encoded, &data).expect("ckpt");
        for (_, members) in ml.groups.iter() {
            let padded = HEADER + members.iter().map(|r| data[r.idx()].len()).max().unwrap();
            let shards: Vec<Vec<u8>> = members
                .iter()
                .map(|r| data_shard(&data[r.idx()], padded).expect("fits"))
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| &s[..]).collect();
            let parity = ReedSolomon::new(members.len(), members.len()).encode(&refs);
            for (i, r) in members.iter().enumerate() {
                let node = ml.placement.node_of(*r);
                let bundle = ml
                    .store()
                    .read_bundle(Artefact::Parity(node), 1)
                    .expect("parity bundle");
                assert_eq!(bundle.get(r.idx() as u64), Some(&parity[i][..]));
            }
        }
    }

    #[test]
    fn a_frame_that_does_not_fit_is_rebuilt_from_parity() {
        // A declared length of 2^64 - 4 must neither overflow `8 + len`
        // nor slice past the shard: the shard is lost, and parity
        // rebuilds it when the group can...
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(1, Level::Encoded, &data).expect("ckpt");
        set_frame_len(&ml, 1, 2, 1, u64::MAX - 3);
        assert_eq!(ml.recover(1).expect("rebuilt from parity"), data);
        assert_eq!(
            ml.telemetry
                .counter("checkpoint.rebuilt_payload_bytes")
                .get(),
            data[2].len() as u64
        );
        // ...and the re-protected shard reads cleanly.
        assert_eq!(ml.recover(1).expect("clean"), data);
        // Without parity it is a typed erasure error, not a panic.
        ml.checkpoint(2, Level::Local, &data).expect("ckpt");
        set_frame_len(&ml, 1, 2, 2, u64::MAX - 3);
        assert!(matches!(ml.recover(2), Err(HcftError::Erasure { .. })));
    }

    #[test]
    fn an_unparsable_local_bundle_loses_its_node_only() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        ml.checkpoint(1, Level::Encoded, &data).expect("ckpt");
        let at = Artefact::Local(NodeId(3));
        let bytes = ml.store().read_bundle(at, 1).expect("bundle");
        let truncated = &bytes.as_bytes()[..bytes.as_bytes().len() - 1];
        ml.store().write_bundle(at, 1, truncated).expect("truncate");
        assert_eq!(ml.recover(1).expect("rebuilt from parity"), data);
    }

    #[test]
    fn an_encoded_epoch_is_two_files_per_node() {
        let dir = TempDir::new();
        let (ml, data) = distributed_setup(&dir);
        let count = |op: &str| {
            ml.telemetry
                .counter(&format!("checkpoint.files.{op}"))
                .get()
        };
        for epoch in 1..=4 {
            ml.checkpoint(epoch, Level::Encoded, &data).expect("ckpt");
            assert_eq!(count("written"), 2 * 4 * epoch, "epoch {epoch}");
            // Keep two epochs, as the replay engine does.
            ml.store()
                .prune_before(epoch.saturating_sub(1))
                .expect("prune");
            let files: usize = (0..4)
                .map(|n| {
                    std::fs::read_dir(dir.0.join(format!("nodes/node_{n}")))
                        .expect("node dir")
                        .count()
                })
                .sum();
            assert!(files <= 2 * 4 * 2, "{files} files after epoch {epoch}");
            assert_eq!(files as u64, count("written") - count("removed"));
        }
        ml.store().fail_node(NodeId(1)).expect("kill");
        assert_eq!(ml.recover(4).expect("rebuild"), data);
        // One `.local` per surviving node and one `.parity` per lost
        // member's group (both groups draw on node 0's bundle).
        assert_eq!(count("read"), 3 + 1);
        assert_eq!(count("written"), 2 * 4 * 4 + 2, "the lost node rewritten");
    }

    #[test]
    fn encode_epoch_fails_the_groups_that_lost_a_member() {
        // Groups {0..3} on nodes 0–1 and {4..7} on nodes 2–3: losing
        // node 0 between the locals and the parity breaks group 0 only.
        let dir = TempDir::new();
        let placement = Placement::block(4, 2);
        let store = CheckpointStore::create(&dir.0, 4).expect("store");
        let ml = MultilevelCheckpointer::new(store, Clustering::consecutive(8, 4), placement);
        let data = payloads(8);
        ml.checkpoint(1, Level::Local, &data).expect("locals");
        ml.store().fail_node(NodeId(0)).expect("kill");
        assert!(matches!(ml.encode_epoch(1, &data), Err(HcftError::Io(_))));
        for n in [0, 1] {
            assert!(!ml.store().has_bundle(Artefact::Parity(NodeId(n)), 1));
        }
        for n in [2, 3] {
            assert!(ml.store().has_bundle(Artefact::Parity(NodeId(n)), 1));
        }
        // With every local in place the same call encodes every group.
        ml.checkpoint(2, Level::Local, &data).expect("locals");
        ml.encode_epoch(2, &data).expect("encode");
        ml.store().fail_node(NodeId(3)).expect("kill");
        assert_eq!(ml.recover(2).expect("rebuild"), data);
    }
}
