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
//! - [`Bytes::content_id`], the 64-bit identity the payload plane and
//!   the encode memo (`thinc_core::plane`, `thinc_core::memo`) key
//!   equivalence classes by. 256 viewers of one tile hash it once;
//!   where the per-client queues clip or merge a payload into a fresh
//!   allocation with identical bytes, that allocation is hashed once
//!   too, by [`crate::hash::content_id`], and lands on the same id.
//! - the CRC-32 register of the contents from a zero register, which
//!   the frame encoder folds into each viewer's frame checksum with
//!   [`crate::crc::crc32_shift`] instead of re-reading the payload
//!   (`crate::wire::encode_message_seq_into`).
//!
//! The memo costs 24 bytes per allocation and nothing per clone.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// One payload allocation: the bytes, and the digests of them that
/// have been asked for so far.
#[derive(Default)]
struct Shared {
    data: Vec<u8>,
    content_id: OnceLock<u64>,
    crc_from_zero: OnceLock<u32>,
}

/// Immutable, cheaply clonable byte buffer (`Arc`-shared).
#[derive(Clone, Default)]
pub struct Bytes(Arc<Shared>);

impl Bytes {
    /// Wraps a byte vector without copying it.
    pub fn new(data: Vec<u8>) -> Self {
        Bytes(Arc::new(Shared {
            data,
            ..Shared::default()
        }))
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0.data
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.data.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.data.is_empty()
    }

    /// Whether `self` and `other` are clones of one allocation (so
    /// share its bytes and its digest memos), not merely equal.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// [`crate::hash::content_id`] of the contents, computed at most
    /// once per allocation: equal for equal contents wherever they
    /// live, O(1) for every clone after the first call. In-process
    /// only — never a wire or checkpoint value.
    pub fn content_id(&self) -> u64 {
        *self
            .0
            .content_id
            .get_or_init(|| crate::hash::content_id(&self.0.data))
    }

    /// `crc32_update(0, contents)`, computed at most once per
    /// allocation — the term an encoder XORs into a shifted register
    /// to cover the payload without reading it.
    pub(crate) fn crc_from_zero(&self) -> u32 {
        *self
            .0
            .crc_from_zero
            .get_or_init(|| crate::crc::crc32_update(0, &self.0.data))
    }

    /// Extracts the bytes, copying only when other clones exist.
    pub fn into_vec(self) -> Vec<u8> {
        match Arc::try_unwrap(self.0) {
            Ok(shared) => shared.data,
            Err(arc) => arc.data.clone(),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0.data
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0.data
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
        self.ptr_eq(other) || self.0.data == other.0.data
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.data.hash(state);
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
        let bare = std::mem::size_of::<Vec<u8>>();
        assert!(std::mem::size_of::<Shared>() <= bare + 24);
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", Bytes::from(vec![0xABu8; 20]));
        assert!(s.contains("20 B"));
        assert!(s.contains('…'));
    }
}
