//! Shared, immutable payload bytes that carry their own digests.
//!
//! [`Bytes`] is the zero-copy payload container behind the encode-once
//! broadcast plane: a display command's pixel payload is produced once
//! and then shared by reference across every client session that views
//! the same screen region at the same scale. Cloning is an `Arc`
//! reference-count bump, never a byte copy, so fanning a command out
//! to a thousand clients costs the same as fanning it to one.
//!
//! The container is an immutable byte vector behind an `Arc`, with
//! slice semantics. Equality compares *contents* (so protocol
//! round-trip tests keep working after decode produces a fresh
//! allocation), with a pointer-identity fast path.
//!
//! Because the bytes can never change — there is no `get_mut` or
//! `make_mut`, and there must never be — every pure function of them
//! is a property of the *allocation*, not of whoever holds a clone.
//! The allocation memoises the two byte-linear digests the delivery
//! path needs, each computed by the first holder that asks and read
//! by every other holder for free:
//!
//! - [`Bytes::content_id`], the 64-bit identity the session's form
//!   store (`thinc_core::plane`) keys equivalence classes by. 256
//!   viewers of one tile hash it once; where the per-client queues clip or merge a payload into a fresh
//!   allocation with identical bytes, that allocation is hashed once
//!   too, by [`crate::hash::content_id`], and lands on the same id.
//! - the CRC-32 register of the contents from a zero register, which
//!   the frame encoder folds into each viewer's frame checksum with
//!   [`crate::crc::crc32_shift`] instead of re-reading the payload
//!   (`crate::wire::encode_message_seq_into`).
//!
//! **Views.** [`Bytes::slice`] cuts a payload without copying it: the
//! view is a small node of its own that holds the root allocation and
//! a range of it — a slice of a view is a view of the *root*, never of
//! the view, so chains do not grow. A view reads, compares, hashes and
//! prints exactly like an owned buffer with the same bytes, and
//! memoises its own CRC register (a wire value, so computed over
//! exactly the view's bytes). Its `content_id` is the one thing that
//! differs: it is derived from the root's id and the range, so cutting
//! a photograph into seven pieces reads the photograph once, not the
//! shrinking remainder seven times. It is still a pure function of
//! contents — equal roots cut at equal offsets agree, wherever they
//! live — but a view and an owned buffer with the same bytes do *not*
//! share an id, which costs a form-store hit and never a byte: the
//! store only skips work, and verifies bytes on a key match within a
//! round.
//! So a view is for a cut whose root is what recurs — the pieces of a
//! RAW split at flush — and not for one whose hidden part is what
//! varies: a clipped tile stays a copy, keyed by the bytes it shows.
//! A view keeps its whole root alive. Where a view and a copy *must*
//! meet — the rev-3 cache, whose client decodes owned bytes — the
//! identity is taken from the bytes, never from this id
//! ([`crate::cache::cache_id`]).
//!
//! A node is a `Vec` or a root-and-range (32 bytes either way) plus
//! 24 bytes of memo, and costs nothing per clone.

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

/// Where a node's bytes live.
enum Data {
    /// In the node itself: a root allocation.
    Owned(Vec<u8>),
    /// In `range` of `root`, which is always [`Data::Owned`].
    View { root: Bytes, range: Range<usize> },
}

impl Default for Data {
    fn default() -> Self {
        Data::Owned(Vec::new())
    }
}

/// One payload node: the bytes, and the digests of them that have
/// been asked for so far.
#[derive(Default)]
struct Shared {
    data: Data,
    content_id: OnceLock<u64>,
    crc_from_zero: OnceLock<u32>,
}

/// Immutable, cheaply clonable byte buffer (`Arc`-shared).
#[derive(Clone, Default)]
pub struct Bytes(Arc<Shared>);

impl Bytes {
    fn node(data: Data) -> Self {
        Bytes(Arc::new(Shared { data, ..Shared::default() }))
    }

    /// Wraps a byte vector without copying it.
    pub fn new(data: Vec<u8>) -> Self {
        Self::node(Data::Owned(data))
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.0.data {
            Data::Owned(data) => data,
            Data::View { root, range } => &root.as_slice()[range.clone()],
        }
    }

    /// A view of `range` of these bytes that shares the allocation:
    /// nothing is copied, and the result behaves as an owned buffer
    /// holding `self[range]` would, but for its
    /// [`content_id`](Self::content_id). Slicing a view gives a view of
    /// the root; slicing everything gives a clone.
    ///
    /// # Panics
    /// When `range` is decreasing or reaches past the end, as slice
    /// indexing does.
    pub fn slice(&self, range: Range<usize>) -> Self {
        let len = self.len();
        assert!(range.start <= range.end && range.end <= len, "slice {range:?} of {len} bytes");
        if range.len() == len {
            return self.clone();
        }
        let (root, base) = match &self.0.data {
            Data::Owned(_) => (self, 0),
            Data::View { root, range } => (root, range.start),
        };
        Self::node(Data::View { root: root.clone(), range: base + range.start..base + range.end })
    }

    /// Whether `self` and `other` are the same bytes in memory — clones
    /// of one node, or views of the same range of one root — not
    /// merely equal.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.as_slice(), other.as_slice())
    }

    /// The in-process identity of the contents, computed at most once
    /// per node and O(1) for every clone after the first call. For an
    /// owned buffer it is [`crate::hash::content_id`] of the bytes,
    /// equal for equal contents wherever they live. For a view it is
    /// derived from the root's id and the range without reading the
    /// bytes: equal for equal roots cut at equal offsets, and unrelated
    /// to the id of an owned buffer holding the same bytes. Never a
    /// wire or checkpoint value.
    pub fn content_id(&self) -> u64 {
        *self.0.content_id.get_or_init(|| match &self.0.data {
            Data::Owned(data) => crate::hash::content_id(data),
            Data::View { root, range } => {
                let cut = [root.content_id(), range.start as u64, range.end as u64];
                crate::hash::content_id(cut.map(u64::to_le_bytes).as_flattened())
            }
        })
    }

    /// [`crate::hash::content_id`] of the bytes, wherever they live: an
    /// owned buffer's memoised [`content_id`](Self::content_id), which
    /// is that value, or a fresh read of a view's bytes. A view and a
    /// byte-equal copy agree on it.
    pub(crate) fn bytes_id(&self) -> u64 {
        match &self.0.data {
            Data::Owned(_) => self.content_id(),
            Data::View { .. } => crate::hash::content_id(self.as_slice()),
        }
    }

    /// `crc32_update(0, contents)`, computed at most once per node —
    /// the term an encoder XORs into a shifted register to cover the
    /// payload without reading it.
    pub(crate) fn crc_from_zero(&self) -> u32 {
        *self
            .0
            .crc_from_zero
            .get_or_init(|| crate::crc::crc32_update(0, self.as_slice()))
    }

    /// Extracts the bytes, copying unless this is the only handle on
    /// an owned buffer.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.0) {
            Ok(Shared { data: Data::Owned(data), .. }) => data,
            Ok(Shared { data: Data::View { root, range }, .. }) => root[range].to_vec(),
            Err(shared) => Bytes(shared).to_vec(),
        }
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

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::new(data)
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::new(data.to_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::new(iter.into_iter().collect())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let data = self.as_slice();
        write!(f, "Bytes({} B", data.len())?;
        if !data.is_empty() {
            let head = &data[..data.len().min(8)];
            write!(f, ", {head:02x?}")?;
            if data.len() > 8 {
                write!(f, "…")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_the_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert!(a.ptr_eq(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_by_content_across_allocations() {
        let a = Bytes::from(vec![9u8; 64]);
        let b = Bytes::from(vec![9u8; 64]);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, b);
        assert_ne!(a, Bytes::from(vec![8u8; 64]));
    }

    #[test]
    fn slice_semantics() {
        let a = Bytes::from(vec![5u8, 6, 7]);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert_eq!(&a[1..], &[6, 7]);
        assert_eq!(a.as_slice(), &[5, 6, 7]);
        assert!(Bytes::default().is_empty());
    }

    #[test]
    fn into_vec_moves_when_unique_and_copies_when_shared() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let at = a.as_ptr();
        let v = a.into_vec();
        assert_eq!(v.as_ptr(), at, "sole owner: the vector itself comes back");
        let b = Bytes::from(v);
        let keep = b.clone();
        let copied = b.into_vec();
        assert_eq!(copied, vec![1, 2, 3]);
        assert_ne!(copied.as_ptr(), keep.as_ptr());
    }

    #[test]
    fn digests_are_computed_once_per_allocation_and_seen_by_every_clone() {
        let a = Bytes::from((0..4096u32).map(|i| (i * 7) as u8).collect::<Vec<u8>>());
        let b = a.clone();
        assert!(b.0.content_id.get().is_none() && b.0.crc_from_zero.get().is_none());
        let id = a.content_id();
        let crc = a.crc_from_zero();
        // `OnceLock` runs its initialiser at most once; the clone finds
        // both cells already filled, so its calls read, not hash.
        assert_eq!(b.0.content_id.get(), Some(&id));
        assert_eq!(b.0.crc_from_zero.get(), Some(&crc));
        assert_eq!((b.content_id(), b.crc_from_zero()), (id, crc));
        assert_eq!(id, crate::hash::content_id(&a));
        assert_eq!(crc, crate::reference::crc32_update(0, &a));
        // A distinct allocation with equal bytes starts cold and lands
        // on the same values.
        let c = Bytes::from(a.to_vec());
        assert!(c.0.content_id.get().is_none());
        assert_eq!((c.content_id(), c.crc_from_zero()), (id, crc));
    }

    #[test]
    fn the_memo_is_three_words() {
        // 56 bytes a node: the `Vec` or the root-and-range view link
        // (32 with the tag, against 24 for the bare `Vec` before
        // views), and three words of memo.
        assert_eq!(std::mem::size_of::<Data>(), 32);
        assert_eq!(std::mem::size_of::<Shared>(), std::mem::size_of::<Data>() + 24);
        assert_eq!(std::mem::size_of::<Bytes>(), std::mem::size_of::<usize>());
    }

    fn ramp(n: usize) -> Bytes {
        (0..n).map(|i| (i * 31 + i / 7) as u8).collect()
    }

    #[test]
    fn a_slice_shares_the_allocation_and_reads_like_an_owned_buffer() {
        let root = ramp(4096);
        let view = root.slice(100..1124);
        let owned = Bytes::from(root[100..1124].to_vec());
        assert_eq!(view.as_ptr(), root[100..].as_ptr(), "no copy");
        assert_eq!((view.len(), view.is_empty()), (1024, false));
        assert_eq!(view, owned);
        assert_eq!(format!("{view:?}"), format!("{owned:?}"));
        let hash = |b: &Bytes| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            b.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&view), hash(&owned));
        assert_eq!(view.crc_from_zero(), crate::reference::crc32_update(0, &owned));
        // Shared or not, a view's bytes come back as a copy of the range.
        assert_eq!(view.clone().into_vec(), owned.to_vec());
        assert_eq!(view.into_vec(), owned.to_vec());
        assert!(root.slice(7..7).is_empty());
    }

    #[test]
    fn bytes_id_is_the_id_of_the_bytes_and_reads_an_owned_buffer_once() {
        let root = ramp(4096);
        let copy = Bytes::from(root[100..1124].to_vec());
        let view = root.slice(100..1124);
        let want = crate::hash::content_id(&root[100..1124]);
        assert_eq!((view.bytes_id(), copy.bytes_id()), (want, want));
        // An owned buffer lends its memo; a view leaves its own cold.
        assert_eq!(copy.0.content_id.get(), Some(&want));
        assert!(view.0.content_id.get().is_none());
        assert_eq!(root.bytes_id(), root.content_id());
    }

    #[test]
    fn nested_slices_normalise_to_the_root() {
        let root = ramp(1000);
        let inner = root.slice(100..900).slice(50..650).slice(0..500);
        let direct = root.slice(150..650);
        assert!(inner.ptr_eq(&direct), "same root, same range");
        assert_eq!(inner.content_id(), direct.content_id());
        assert!(matches!(&inner.0.data, Data::View { root: r, .. } if r.ptr_eq(&root)));
        // Slicing everything is a clone, memo and all.
        assert!(root.slice(0..1000).ptr_eq(&root));
        assert!(Arc::ptr_eq(&direct.slice(0..500).0, &direct.0));
        assert!(!direct.ptr_eq(&root.slice(150..651)));
        assert!(!direct.ptr_eq(&root));
    }

    #[test]
    fn a_view_takes_its_id_from_root_and_range_not_from_its_bytes() {
        let (a, b) = (ramp(2048), Bytes::from(ramp(2048).to_vec()));
        assert!(!a.ptr_eq(&b));
        let (va, vb) = (a.slice(512..1536), b.slice(512..1536));
        assert!(!va.ptr_eq(&vb));
        assert_eq!(va.content_id(), vb.content_id(), "equal roots, equal cut");
        // The root was read (once); the views' own bytes never were.
        assert!(a.0.content_id.get().is_some() && va.0.crc_from_zero.get().is_none());
        assert_ne!(va.content_id(), a.slice(512..1537).content_id());
        assert_ne!(va.content_id(), a.slice(511..1535).content_id());
        assert_ne!(va.content_id(), a.content_id());
        // Zeros cut at different rows hold equal bytes under distinct ids.
        let zeros = Bytes::from(vec![0u8; 256]);
        assert_eq!(zeros.slice(0..64), zeros.slice(64..128));
        assert_ne!(zeros.slice(0..64).content_id(), zeros.slice(64..128).content_id());
    }

    #[test]
    #[should_panic(expected = "slice 4..9 of 8 bytes")]
    fn a_slice_past_the_end_panics() {
        ramp(8).slice(4..9);
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", Bytes::from(vec![0xABu8; 20]));
        assert!(s.contains("20 B"));
        assert!(s.contains('…'));
    }
}
