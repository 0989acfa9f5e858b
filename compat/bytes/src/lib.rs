//! A cheaply clonable immutable byte buffer — offline stand-in for the
//! `bytes` crate. [`Bytes::clone`] is a reference-count bump; the
//! backing allocation is shared. Unlike the first offline version (which
//! stored `Arc<[u8]>` and therefore copied on every `From<Vec<u8>>`),
//! this one keeps the original `Vec<u8>` alive behind the `Arc` plus a
//! view range, so:
//!
//! * `Bytes::from(vec)` is **zero-copy** (the vector is moved, not
//!   copied),
//! * [`Bytes::slice`] is **zero-copy** (a narrowed view of the same
//!   backing buffer),
//! * the backing vector can be **recovered for reuse** once the view is
//!   whole-buffer and uniquely held ([`Bytes::into_shared`]) — which is
//!   what lets the simmpi runtime recycle spent message payloads,
//!   including the `Arc` control block, instead of re-allocating per
//!   message,
//! * every empty buffer shares **one** backing allocation, so
//!   [`Bytes::new`] allocates nothing (as upstream's does) and a pool
//!   never mistakes an empty payload for a recyclable one: the shared
//!   vector is never uniquely held.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Reference-counted immutable bytes: a `[start, end)` view of a shared
/// backing vector.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Bytes {
    /// An empty buffer: a view of the process-wide empty vector, so no
    /// allocation happens.
    pub fn new() -> Self {
        static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
        Bytes::from_shared(Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))))
    }

    /// Wrap a static byte slice (copied once; upstream borrows, but the
    /// distinction is unobservable through this API).
    pub fn from_static(b: &'static [u8]) -> Self {
        Bytes::copy_from_slice(b)
    }

    /// Copy from a slice.
    pub fn copy_from_slice(b: &[u8]) -> Self {
        Bytes::from(b.to_vec())
    }

    /// Wrap an already-shared backing vector without copying. The view
    /// covers the whole vector.
    pub fn from_shared(data: Arc<Vec<u8>>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    /// Recover the shared backing vector, provided this view covers the
    /// whole of it (the common case for message payloads). Returns the
    /// view unchanged otherwise. The caller decides what uniqueness
    /// means: a buffer pool checks `Arc::get_mut` before mutating.
    pub fn into_shared(self) -> Result<Arc<Vec<u8>>, Bytes> {
        if self.start == 0 && self.end == self.data.len() {
            Ok(self.data)
        } else {
            Err(self)
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A new `Bytes` viewing `self[range]` — zero-copy: the backing
    /// allocation is shared, only the view narrows.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end, "slice range inverted");
        assert!(range.end <= self.len(), "slice range out of bounds");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl From<Vec<u8>> for Bytes {
    /// Zero-copy: the vector becomes the backing buffer. A vector that
    /// owns no allocation becomes [`Bytes::new`].
    fn from(v: Vec<u8>) -> Self {
        if v.capacity() == 0 {
            return Bytes::new();
        }
        Bytes::from_shared(Arc::new(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(b: &[u8]) -> Self {
        Bytes::copy_from_slice(b)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice().iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "…")?;
        }
        write!(f, "\"")
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_backing_buffer() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn from_vec_is_zero_copy() {
        let v = vec![7u8; 64];
        let p = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ptr(), p, "From<Vec<u8>> must not copy");
    }

    #[test]
    fn deref_gives_slice_ops() {
        let a = Bytes::from(vec![9u8; 16]);
        assert_eq!(a.len(), 16);
        assert_eq!(a[4], 9);
        assert!(!a.is_empty());
    }

    #[test]
    fn slice_is_a_zero_copy_view() {
        let a = Bytes::from(vec![0u8, 1, 2, 3, 4]);
        let s = a.slice(1..4);
        assert_eq!(&s[..], &[1, 2, 3]);
        assert_eq!(s.as_ptr(), unsafe { a.as_ptr().add(1) });
        // Slicing a slice composes.
        let ss = s.slice(1..2);
        assert_eq!(&ss[..], &[2]);
    }

    #[test]
    fn into_shared_recovers_whole_views_only() {
        let b = Bytes::from(vec![5u8; 8]);
        let narrowed = b.slice(2..6);
        let narrowed = narrowed.into_shared().unwrap_err();
        assert_eq!(narrowed.len(), 4);
        let arc = b.into_shared().expect("whole view");
        // `narrowed` still holds a reference.
        assert_eq!(Arc::strong_count(&arc), 2);
        drop(narrowed);
        assert_eq!(Arc::strong_count(&arc), 1);
    }

    #[test]
    fn every_empty_buffer_shares_one_allocation() {
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::from(Vec::new()),
            Bytes::copy_from_slice(&[]),
        ];
        let mut shared: Vec<Arc<Vec<u8>>> = empties
            .into_iter()
            .map(|b| b.into_shared().expect("an empty view is whole"))
            .collect();
        assert!(shared.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        // A pool recycles only uniquely held buffers, so handing an empty
        // payload back is a no-op: the process keeps its own reference.
        let mut last = shared.pop().unwrap();
        drop(shared);
        assert!(Arc::get_mut(&mut last).is_none());
        // An empty vector with capacity is a real buffer and stays one.
        let spare = Bytes::from(Vec::with_capacity(8)).into_shared().unwrap();
        assert!(!Arc::ptr_eq(&spare, &last));
    }

    #[test]
    fn equality_and_hash_follow_contents() {
        use std::collections::HashSet;
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        let c = Bytes::from(vec![0u8, 1, 2, 3, 9]).slice(1..4);
        assert_eq!(a, c, "views compare by content");
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&c));
    }
}
