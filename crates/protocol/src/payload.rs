//! Shared, immutable payload bytes.
//!
//! [`Bytes`] is the zero-copy payload container behind the encode-once
//! broadcast plane: a display command's pixel payload is produced once
//! and then shared by reference across every client session that views
//! the same screen region at the same scale. Cloning is an `Arc`
//! reference-count bump, never a byte copy, so fanning a command out
//! to a thousand clients costs the same as fanning it to one.
//!
//! The container is deliberately minimal — an immutable `Arc<Vec<u8>>`
//! with slice semantics. Equality compares *contents* (so protocol
//! round-trip tests keep working after decode produces a fresh
//! allocation), with a pointer-identity fast path. [`Bytes::ptr_id`]
//! exposes the allocation identity itself, but nothing keys on it: the
//! payload plane (`thinc_core::plane`) keys equivalence classes by
//! *content* — FNV-1a 64 over the whole payload on every lookup, plus
//! length, rect and encoding — because the per-client queues clip and
//! merge payloads into fresh allocations with identical bytes. That
//! hash is linear in the payload and paid once per viewer per command.

use std::ops::Deref;
use std::sync::Arc;

/// Immutable, cheaply clonable byte buffer (`Arc`-shared).
#[derive(Clone, Default)]
pub struct Bytes(Arc<Vec<u8>>);

impl Bytes {
    /// Wraps a byte vector without copying it.
    pub fn new(data: Vec<u8>) -> Self {
        Bytes(Arc::new(data))
    }

    /// The payload as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Stable identity of the underlying allocation.
    ///
    /// Two `Bytes` with the same `ptr_id` are clones of one buffer and
    /// therefore bitwise-identical; the converse does not hold. Valid
    /// only while at least one clone is alive (a freed allocation's
    /// address may be reused). Currently without a caller: the payload
    /// plane keys by content hash, not by allocation.
    pub fn ptr_id(&self) -> usize {
        Arc::as_ptr(&self.0) as *const u8 as usize
    }

    /// Extracts the bytes, copying only when other clones exist.
    pub fn into_vec(self) -> Vec<u8> {
        Arc::try_unwrap(self.0).unwrap_or_else(|arc| (*arc).clone())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
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
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} B", self.0.len())?;
        if !self.0.is_empty() {
            let head = &self.0[..self.0.len().min(8)];
            write!(f, ", {head:02x?}")?;
            if self.0.len() > 8 {
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
        assert_eq!(a.ptr_id(), b.ptr_id());
        assert_eq!(a, b);
    }

    #[test]
    fn equality_is_by_content_across_allocations() {
        let a = Bytes::from(vec![9u8; 64]);
        let b = Bytes::from(vec![9u8; 64]);
        assert_ne!(a.ptr_id(), b.ptr_id());
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
    fn into_vec_avoids_copy_when_unique() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let before = a.ptr_id();
        let v = a.into_vec();
        assert_eq!(v, vec![1, 2, 3]);
        // A clone forces a copy instead of a move.
        let b = Bytes::from(v);
        let _keep = b.clone();
        let copied = b.into_vec();
        assert_eq!(copied, vec![1, 2, 3]);
        let _ = before;
    }

    #[test]
    fn debug_is_compact() {
        let s = format!("{:?}", Bytes::from(vec![0xABu8; 20]));
        assert!(s.contains("20 B"));
        assert!(s.contains('…'));
    }
}
