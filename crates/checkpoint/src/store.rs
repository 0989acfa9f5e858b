//! On-disk checkpoint store: one file per node, epoch and artefact kind.
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   nodes/node_<n>/epoch_<e>.local    framed payload of every rank node n hosts
//!   nodes/node_<n>/epoch_<e>.parity   RS parity shard of every group member it hosts
//!   pfs/epoch_<e>.pfs                 every rank's level-3 copy
//! ```
//!
//! Each file is a [`Bundle`]: the magic `HCFTBDL1`, an entry count, then
//! per entry `[id u64][len u64][len bytes]`, little-endian. The id is a
//! rank. A parity shard is exactly as long as its group's padded data
//! shard, so a `.parity` bundle also carries the group geometry
//! recovery needs. An `Encoded` epoch is two files per
//! node, and a store that keeps `k` epochs holds at most `2 · nodes · k`
//! files besides its directories. Every file operation is counted:
//! `checkpoint.files.written`, `.read` and `.removed` (a pruned or
//! emptied bundle, or one a failed node took with it).
//!
//! Failure model: "killing" a node deletes its directory — every bundle
//! it held, for every epoch, and nothing else: the exact failure the
//! erasure level must survive. The PFS directory survives any node.
//! Quarantining a rank rewrites its node's `.local` bundle without that
//! rank's shard, so its siblings stay readable. A bundle that does not
//! parse reads as an [`io::ErrorKind::InvalidData`] error, which recovery
//! treats like a lost one.

use std::collections::{BTreeMap, HashSet};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use hcft_telemetry::Registry;
use hcft_topology::NodeId;

/// First bytes of every bundle.
const MAGIC: &[u8; 8] = b"HCFTBDL1";

/// One bundle's place: what it holds and, on node-local storage, where.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Artefact {
    /// The framed payload of every rank the node hosts.
    Local(NodeId),
    /// The Reed–Solomon parity shard of every group member the node
    /// hosts.
    Parity(NodeId),
    /// Every rank's level-3 copy, on the parallel file system.
    Pfs,
}

impl Artefact {
    /// The file extension, which also names the kind in telemetry.
    pub(crate) fn extension(self) -> &'static str {
        match self {
            Artefact::Local(_) => "local",
            Artefact::Parity(_) => "parity",
            Artefact::Pfs => "pfs",
        }
    }

    /// The node holding the bundle; `None` for the PFS.
    fn node(self) -> Option<NodeId> {
        match self {
            Artefact::Local(n) | Artefact::Parity(n) => Some(n),
            Artefact::Pfs => None,
        }
    }
}

/// A parsed bundle: its bytes and where each entry lies in them.
///
/// Parsing is total: any byte string yields the entries or an
/// [`io::ErrorKind::InvalidData`] error — never a panic, and never an
/// allocation sized by a count or length the bytes merely claim.
#[derive(Clone, Debug)]
pub struct Bundle {
    bytes: Vec<u8>,
    entries: Vec<(u64, Range<usize>)>,
}

impl Bundle {
    /// Parse a bundle file's bytes.
    pub(crate) fn parse(bytes: Vec<u8>) -> io::Result<Bundle> {
        let invalid =
            |what: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bundle: {what}"));
        if bytes.get(..MAGIC.len()) != Some(&MAGIC[..]) {
            return Err(invalid("bad magic"));
        }
        let mut at = MAGIC.len();
        let count = take_u64(&bytes, &mut at).ok_or_else(|| invalid("truncated count"))?;
        let mut entries = Vec::new();
        // Every entry consumes at least its 16 header bytes, so a huge
        // declared count runs out of bytes long before it is reached.
        for _ in 0..count {
            let (Some(id), Some(len)) = (take_u64(&bytes, &mut at), take_u64(&bytes, &mut at))
            else {
                return Err(invalid("truncated entry header"));
            };
            let end = usize::try_from(len)
                .ok()
                .and_then(|len| at.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .ok_or_else(|| invalid("entry overruns the file"))?;
            entries.push((id, at..end));
            at = end;
        }
        if at != bytes.len() {
            return Err(invalid("trailing bytes"));
        }
        Ok(Bundle { bytes, entries })
    }

    /// The entry stored under `id` (the first, should a writer have
    /// repeated it).
    pub(crate) fn get(&self, id: u64) -> Option<&[u8]> {
        let range = self.range(id)?;
        Some(&self.bytes[range])
    }

    /// Mutable access to an entry's bytes (their length is fixed).
    pub fn get_mut(&mut self, id: u64) -> Option<&mut [u8]> {
        let range = self.range(id)?;
        Some(&mut self.bytes[range])
    }

    fn range(&self, id: u64) -> Option<Range<usize>> {
        self.entries
            .iter()
            .find(|(e, _)| *e == id)
            .map(|(_, r)| r.clone())
    }

    /// The entries in file order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.entries
            .iter()
            .map(|(id, r)| (*id, &self.bytes[r.clone()]))
    }

    /// The serialised form, as read from the file (with any
    /// [`Bundle::get_mut`] edits).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Read the little-endian `u64` at `*at` and step past it.
fn take_u64(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let word: [u8; 8] = bytes.get(*at..*at + 8)?.try_into().ok()?;
    *at += 8;
    Some(u64::from_le_bytes(word))
}

/// Builds a bundle in a caller-owned buffer, so one pooled buffer serves
/// round after round.
pub(crate) struct BundleWriter<'a> {
    out: &'a mut Vec<u8>,
    count: u64,
}

impl<'a> BundleWriter<'a> {
    /// Start an empty bundle in `out` (cleared first).
    pub(crate) fn new(out: &'a mut Vec<u8>) -> Self {
        out.clear();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&0u64.to_le_bytes());
        BundleWriter { out, count: 0 }
    }

    /// Append an entry whose bytes are `parts` laid end to end.
    pub(crate) fn push(&mut self, id: u64, parts: &[&[u8]]) {
        self.entry_header(id, parts.iter().map(|p| p.len()).sum());
        for part in parts {
            self.out.extend_from_slice(part);
        }
    }

    /// Append an entry of `len` bytes, handed zeroed to `fill`.
    pub(crate) fn push_with(&mut self, id: u64, len: usize, fill: impl FnOnce(&mut [u8])) {
        self.entry_header(id, len);
        let start = self.out.len();
        self.out.resize(start + len, 0);
        fill(&mut self.out[start..]);
    }

    /// Has no entry been pushed?
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn entry_header(&mut self, id: u64, len: usize) {
        self.count += 1;
        let count = MAGIC.len()..MAGIC.len() + 8;
        self.out[count].copy_from_slice(&self.count.to_le_bytes());
        self.out.extend_from_slice(&id.to_le_bytes());
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
    }
}

/// Every bundle a store holds, by epoch.
type Index = BTreeMap<u64, HashSet<Artefact>>;

/// Directory-backed checkpoint store.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    root: PathBuf,
    nodes: usize,
    /// Every bundle written (or found at creation), so pruning removes
    /// them by name instead of listing directories.
    index: Arc<Mutex<Index>>,
    /// Sink of the `checkpoint.files.*` counters; a checkpointer that
    /// adopts the store points it at its own registry.
    pub(crate) telemetry: Arc<Registry>,
}

impl CheckpointStore {
    /// Create (or reuse) a store rooted at `root` for `nodes` nodes.
    /// Bundles already there are indexed, so pruning covers them too.
    /// File operations count into [`Registry::global`] until a
    /// [`MultilevelCheckpointer`](crate::MultilevelCheckpointer) adopts
    /// the store.
    pub fn create(root: impl Into<PathBuf>, nodes: usize) -> io::Result<Self> {
        let root = root.into();
        let mut index = Index::new();
        for n in 0..nodes {
            let dir = root.join(format!("nodes/node_{n}"));
            fs::create_dir_all(&dir)?;
            index_dir(&dir, NodeId::from(n), &mut index)?;
        }
        let pfs = root.join("pfs");
        fs::create_dir_all(&pfs)?;
        index_dir(&pfs, NodeId(0), &mut index)?;
        Ok(CheckpointStore {
            root,
            nodes,
            index: Arc::new(Mutex::new(index)),
            telemetry: Registry::global().clone(),
        })
    }

    fn node_dir(&self, node: NodeId) -> PathBuf {
        self.root.join(format!("nodes/node_{node}"))
    }

    fn path(&self, at: Artefact, epoch: u64) -> PathBuf {
        let name = format!("epoch_{epoch}.{}", at.extension());
        match at.node() {
            Some(node) => self.node_dir(node).join(name),
            None => self.root.join("pfs").join(name),
        }
    }

    /// Write the bundle at `at` for `epoch`, replacing any earlier one.
    pub fn write_bundle(&self, at: Artefact, epoch: u64, bundle: &[u8]) -> io::Result<()> {
        fs::write(self.path(at, epoch), bundle)?;
        self.index
            .lock()
            .expect("store index")
            .entry(epoch)
            .or_default()
            .insert(at);
        self.telemetry.counter("checkpoint.files.written").inc();
        Ok(())
    }

    /// Read and parse the bundle at `at` for `epoch`: `NotFound` when it
    /// was never written or its node failed, `InvalidData` when it does
    /// not parse.
    pub fn read_bundle(&self, at: Artefact, epoch: u64) -> io::Result<Bundle> {
        let bytes = fs::read(self.path(at, epoch))?;
        self.telemetry.counter("checkpoint.files.read").inc();
        Bundle::parse(bytes)
    }

    /// Does the bundle at `at` exist for `epoch`?
    pub(crate) fn has_bundle(&self, at: Artefact, epoch: u64) -> bool {
        self.path(at, epoch).exists()
    }

    /// Remove one bundle; `Ok(false)` when it was not there.
    fn remove(&self, at: Artefact, epoch: u64) -> io::Result<bool> {
        match fs::remove_file(self.path(at, epoch)) {
            Ok(()) => {
                self.telemetry.counter("checkpoint.files.removed").inc();
                Ok(true)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Simulate the hard failure of a node: every bundle it held, for
    /// every epoch, vanishes. The directory is recreated empty (the
    /// replacement node). A node outside the store is `InvalidInput`.
    pub fn fail_node(&self, node: NodeId) -> io::Result<()> {
        if node.idx() >= self.nodes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node {node} is outside this {}-node store", self.nodes),
            ));
        }
        let dir = self.node_dir(node);
        let lost = fs::read_dir(&dir).map_or(0, |entries| entries.count() as u64);
        match fs::remove_dir_all(&dir) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        self.telemetry.counter("checkpoint.files.removed").add(lost);
        fs::create_dir_all(&dir)
    }

    /// Remove a single rank's shard from its node's `.local` bundle —
    /// the recovery engine quarantines a shard this way after
    /// `restore_state` rejects its payload
    /// ([`hcft_telemetry::HcftError::Recovery`]): with the
    /// silently-corrupt copy gone, the next [`recover`] pass treats the
    /// rank as lost and rebuilds the true bytes from group redundancy.
    /// The node's other shards stay readable; `NotFound` when the rank
    /// has no shard there.
    ///
    /// [`recover`]: crate::multilevel::MultilevelCheckpointer::recover
    pub fn quarantine_local(&self, node: NodeId, rank: usize, epoch: u64) -> io::Result<()> {
        let at = Artefact::Local(node);
        let bundle = self.read_bundle(at, epoch)?;
        if bundle.get(rank as u64).is_none() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("rank {rank} has no shard on node {node} at epoch {epoch}"),
            ));
        }
        let mut buf = Vec::new();
        let mut rest = BundleWriter::new(&mut buf);
        for (id, bytes) in bundle.iter().filter(|&(id, _)| id != rank as u64) {
            rest.push(id, &[bytes]);
        }
        if rest.is_empty() {
            self.remove(at, epoch).map(drop)
        } else {
            self.write_bundle(at, epoch, &buf)
        }
    }

    /// Delete every bundle of the epochs older than `epoch` (garbage
    /// collection after a successful newer checkpoint), by name.
    pub fn prune_before(&self, epoch: u64) -> io::Result<()> {
        let old = {
            let mut index = self.index.lock().expect("store index");
            let keep = index.split_off(&epoch);
            std::mem::replace(&mut *index, keep)
        };
        for (e, places) in old {
            for at in places {
                self.remove(at, e)?;
            }
        }
        Ok(())
    }
}

/// Index the bundles found in `dir`, the directory of `node` (any node
/// for the PFS directory).
fn index_dir(dir: &Path, node: NodeId, index: &mut Index) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some((epoch, ext)) = name
            .to_str()
            .and_then(|n| n.strip_prefix("epoch_")?.split_once('.'))
        else {
            continue;
        };
        let at = match ext {
            "local" => Artefact::Local(node),
            "parity" => Artefact::Parity(node),
            "pfs" => Artefact::Pfs,
            _ => continue,
        };
        if let Ok(epoch) = epoch.parse() {
            index.entry(epoch).or_default().insert(at);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(nodes: usize) -> (tempdir::TempDir, CheckpointStore) {
        let dir = tempdir::TempDir::new();
        let store = CheckpointStore::create(dir.path(), nodes).expect("create store");
        (dir, store)
    }

    /// Minimal self-cleaning temp dir (std-only).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub(crate) struct TempDir(PathBuf);

        impl TempDir {
            #[allow(clippy::new_without_default)]
            pub(crate) fn new() -> Self {
                static SEQ: AtomicU64 = AtomicU64::new(0);
                let path = std::env::temp_dir().join(format!(
                    "hcft-store-test-{}-{}",
                    std::process::id(),
                    SEQ.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&path).expect("mk temp dir");
                TempDir(path)
            }

            pub(crate) fn path(&self) -> &Path {
                &self.0
            }
        }

        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    /// Serialise `(id, bytes)` entries.
    fn bundle(entries: &[(u64, &[u8])]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = BundleWriter::new(&mut buf);
        for &(id, bytes) in entries {
            w.push(id, &[bytes]);
        }
        buf
    }

    /// Entry `id` of the bundle at `at`, if both exist.
    fn entry(s: &CheckpointStore, at: Artefact, epoch: u64, id: u64) -> Option<Vec<u8>> {
        s.read_bundle(at, epoch).ok()?.get(id).map(<[u8]>::to_vec)
    }

    #[test]
    fn local_bundle_roundtrip() {
        let (_d, s) = temp_store(2);
        let n1 = NodeId(1);
        s.write_bundle(Artefact::Local(n1), 3, &bundle(&[(5, b"hello"), (6, b"")]))
            .expect("write");
        let b = s.read_bundle(Artefact::Local(n1), 3).expect("read");
        assert_eq!(b.get(5), Some(&b"hello"[..]));
        assert_eq!(b.get(6), Some(&b""[..]), "an empty entry is still there");
        assert_eq!(b.get(7), None);
        assert_eq!(b.entries.len(), 2);
        assert!(s.has_bundle(Artefact::Local(n1), 3));
        assert!(!s.has_bundle(Artefact::Local(NodeId(0)), 3));
        assert!(
            !s.has_bundle(Artefact::Parity(n1), 3),
            "kinds are separate files"
        );
    }

    #[test]
    fn fail_node_destroys_its_data_only() {
        let (_d, s) = temp_store(2);
        let (n0, n1) = (NodeId(0), NodeId(1));
        s.write_bundle(Artefact::Local(n0), 1, &bundle(&[(0, b"a")]))
            .expect("write");
        s.write_bundle(Artefact::Parity(n0), 1, &bundle(&[(0, b"p")]))
            .expect("write");
        s.write_bundle(Artefact::Local(n1), 1, &bundle(&[(1, b"b")]))
            .expect("write");
        s.fail_node(n0).expect("fail");
        assert!(s.read_bundle(Artefact::Local(n0), 1).is_err());
        assert!(s.read_bundle(Artefact::Parity(n0), 1).is_err());
        assert_eq!(
            entry(&s, Artefact::Local(n1), 1, 1).expect("survives"),
            b"b"
        );
    }

    #[test]
    fn fail_node_outside_the_store_is_invalid_input() {
        let (d, s) = temp_store(2);
        let err = s.fail_node(NodeId(2)).expect_err("node 2 of 2");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            !d.path().join("nodes/node_2").exists(),
            "no phantom node directory"
        );
    }

    #[test]
    fn parity_bundle_keeps_one_shard_per_member() {
        // Parity shards are keyed per member: two members of one group on
        // one node each keep their own, and a shard's length is the
        // group's padded length.
        let (_d, s) = temp_store(1);
        let at = Artefact::Parity(NodeId(0));
        s.write_bundle(at, 2, &bundle(&[(4, &[1, 2, 3]), (5, &[9, 9, 9])]))
            .expect("parity");
        assert_eq!(entry(&s, at, 2, 4).expect("read"), vec![1, 2, 3]);
        assert_eq!(entry(&s, at, 2, 5).expect("read"), vec![9, 9, 9]);
    }

    #[test]
    fn pfs_survives_node_failure() {
        let (_d, s) = temp_store(1);
        s.write_bundle(Artefact::Pfs, 9, &bundle(&[(3, b"deep")]))
            .expect("pfs");
        s.fail_node(NodeId(0)).expect("fail");
        assert_eq!(entry(&s, Artefact::Pfs, 9, 3).expect("read"), b"deep");
    }

    #[test]
    fn prune_removes_only_old_epochs() {
        let (_d, s) = temp_store(1);
        let local = Artefact::Local(NodeId(0));
        s.write_bundle(local, 1, &bundle(&[(0, b"old")]))
            .expect("write");
        s.write_bundle(local, 5, &bundle(&[(0, b"new")]))
            .expect("write");
        s.write_bundle(Artefact::Pfs, 1, &bundle(&[(0, b"old")]))
            .expect("pfs");
        s.prune_before(5).expect("prune");
        assert!(s.read_bundle(local, 1).is_err());
        assert!(s.read_bundle(Artefact::Pfs, 1).is_err());
        assert_eq!(entry(&s, local, 5, 0).expect("kept"), b"new");
    }

    #[test]
    fn prune_covers_bundles_of_an_earlier_store() {
        // Reopening a store indexes what is already there.
        let (d, s) = temp_store(2);
        s.write_bundle(Artefact::Parity(NodeId(1)), 1, &bundle(&[(0, b"old")]))
            .expect("write");
        let reopened = CheckpointStore::create(d.path(), 2).expect("reopen");
        reopened.prune_before(2).expect("prune");
        assert!(!s.has_bundle(Artefact::Parity(NodeId(1)), 1));
    }

    #[test]
    fn quarantine_leaves_the_node_siblings_readable() {
        let (_d, s) = temp_store(1);
        let local = Artefact::Local(NodeId(0));
        s.write_bundle(local, 1, &bundle(&[(0, b"a"), (1, b"b")]))
            .expect("write");
        s.quarantine_local(NodeId(0), 0, 1).expect("quarantine");
        assert_eq!(entry(&s, local, 1, 0), None);
        assert_eq!(entry(&s, local, 1, 1).expect("sibling"), b"b");
        assert_eq!(
            s.quarantine_local(NodeId(0), 0, 1)
                .expect_err("already gone")
                .kind(),
            io::ErrorKind::NotFound
        );
        s.quarantine_local(NodeId(0), 1, 1).expect("last shard");
        assert!(!s.has_bundle(local, 1), "an emptied bundle is removed");
    }

    #[test]
    fn file_operations_are_counted() {
        let (_d, mut s) = temp_store(2);
        let registry = Registry::new();
        s.telemetry = Arc::clone(&registry);
        let count = |op: &str| registry.counter(&format!("checkpoint.files.{op}")).get();
        for n in 0..2 {
            let at = Artefact::Local(NodeId(n));
            s.write_bundle(at, 1, &bundle(&[(0, b"x")])).expect("write");
            s.write_bundle(at, 2, &bundle(&[(0, b"y")])).expect("write");
        }
        s.read_bundle(Artefact::Local(NodeId(0)), 2).expect("read");
        assert!(s.read_bundle(Artefact::Local(NodeId(0)), 7).is_err());
        s.prune_before(2).expect("prune");
        s.fail_node(NodeId(1)).expect("fail");
        assert_eq!(
            (count("written"), count("read"), count("removed")),
            (4, 1, 3)
        );
    }

    #[test]
    fn parse_rejects_what_the_writer_never_produces() {
        let good = bundle(&[(1, b"abc"), (2, b"de")]);
        for bad in [
            Vec::new(),
            b"HCFTBDL0".to_vec(),
            [&good[..], &[0]].concat(),
            good[..good.len() - 1].to_vec(),
        ] {
            let err = Bundle::parse(bad).expect_err("invalid");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever is written reads back; every strict prefix of it, and
        /// any declared count or length it cannot back, is `InvalidData`.
        #[test]
        fn bundle_parsing_is_total(
            lens in prop::collection::vec(0usize..40, 0..6),
            seed: u64,
            huge: u64,
            junk in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let payloads: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|b| (seed as usize + i * 31 + b) as u8).collect())
                .collect();
            let entries: Vec<(u64, &[u8])> = payloads
                .iter()
                .enumerate()
                .map(|(i, p)| (seed.wrapping_add(i as u64), &p[..]))
                .collect();
            let good = bundle(&entries);
            let parsed = Bundle::parse(good.clone()).expect("written bytes parse");
            prop_assert_eq!(parsed.entries.len(), entries.len());
            for (&(id, bytes), (got_id, got)) in entries.iter().zip(parsed.iter()) {
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got, bytes);
            }
            for cut in 0..good.len() {
                prop_assert!(Bundle::parse(good[..cut].to_vec()).is_err(), "prefix {}", cut);
            }
            // A count the bytes cannot back.
            let mut counted = good.clone();
            let claimed = huge.max(entries.len() as u64 + 1);
            counted[8..16].copy_from_slice(&claimed.to_le_bytes());
            prop_assert!(Bundle::parse(counted).is_err());
            // A first entry longer than the file.
            if !entries.is_empty() {
                let mut long = good.clone();
                let claimed = huge.max(good.len() as u64);
                long[24..32].copy_from_slice(&claimed.to_le_bytes());
                prop_assert!(Bundle::parse(long).is_err());
            }
            // Random bytes, bare or behind the magic: a result, not a panic.
            let _ = Bundle::parse(junk.clone());
            let _ = Bundle::parse([&MAGIC[..], &junk].concat());
        }
    }
}
