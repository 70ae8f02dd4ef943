//! The flush-time encode memo: what compressing a RAW payload taught
//! this client's buffer, kept so the same content need not be
//! compressed again to reach the same decision.
//!
//! The rev-3 ledger keys the *final* encoding, so without a memo a
//! cache hit is only discovered after paying the codec for bytes that
//! are then replaced by a 13-byte reference, and a payload too big for
//! the socket buffer is only discovered to be so after compressing all
//! of it. The memo maps a payload's *content identity* — the
//! [`PlaneKey`] the encode-once plane already computes — to what the
//! last encode found out:
//!
//! - **encoded**: the cache identity and frame size of the final wire
//!   form. Useful only while the ledger still holds that entry (the entry
//!   "lives and dies" with its ledger entry: every lookup re-validates
//!   against the ledger, dead entries are swept when the table fills).
//! - **exceeds**: a size the compressed stream is known to be longer
//!   than, learnt from a bounded encode that gave up.
//!
//! **The memo may only skip work, never change a byte.** Both facts
//! are pure functions of the content, and the flush path uses them
//! only to reach, without the codec, the decision the codec would have
//! led it to. Emptying the memo at any point leaves the flush output
//! unchanged, which is why nothing ever needs to invalidate it
//! (`reset_cache`, eviction, restore) and why it is not checkpointed.
//! The identity is a 64-bit content hash (`Bytes::content_id`, which
//! the payload's allocation memoises) plus length and geometry, not a
//! byte comparison; the collision stance is the ledger's own
//! (`docs/CACHE.md` §3).

use std::collections::HashMap;

use crate::plane::PlaneKey;

/// Final forms remembered at most. One is learnt per RAW ≥ 1 KB that
/// reaches the wire; when the table fills, entries whose ledger entry
/// is gone are swept, and if none were, the table starts over.
const MAX_ENCODED: usize = 1024;

/// Give-ups remembered at most; the table starts over when it fills.
/// Sized for a browsing session's worth of photographs (each leaves a
/// few entries: the image, and each remainder after a split).
const MAX_EXCEEDS: usize = 1024;

/// Per-buffer memo of encode outcomes, keyed by content identity.
/// Empty tables hold no allocation.
#[derive(Debug, Default)]
pub(crate) struct EncodeMemo {
    encoded: HashMap<PlaneKey, (u64, u64)>,
    exceeds: HashMap<PlaneKey, u64>,
}

impl EncodeMemo {
    /// The `(cache identity, frame size)` of the final wire form last
    /// produced for this content. The caller must check the ledger
    /// still holds the entry before acting on it.
    pub(crate) fn encoded(&self, ident: &PlaneKey) -> Option<(u64, u64)> {
        self.encoded.get(ident).copied()
    }

    /// The largest size this content's compressed stream is known to
    /// exceed (0 when nothing is known).
    pub(crate) fn exceeds(&self, ident: &PlaneKey) -> u64 {
        self.exceeds.get(ident).copied().unwrap_or(0)
    }

    /// Remembers the final wire form of `ident`. `live` says whether
    /// the ledger holds an entry, for the sweep when the table is full.
    pub(crate) fn learn_encoded(
        &mut self,
        ident: PlaneKey,
        cache_id: u64,
        wire_size: u64,
        live: impl Fn(u64) -> bool,
    ) {
        if self.encoded.len() >= MAX_ENCODED && !self.encoded.contains_key(&ident) {
            self.encoded.retain(|_, (id, _)| live(*id));
            if self.encoded.len() >= MAX_ENCODED {
                self.encoded.clear();
            }
        }
        self.encoded.insert(ident, (cache_id, wire_size));
    }

    /// Remembers that `ident`'s compressed stream is longer than
    /// `bytes`.
    pub(crate) fn learn_exceeds(&mut self, ident: PlaneKey, bytes: u64) {
        if self.exceeds.len() >= MAX_EXCEEDS && !self.exceeds.contains_key(&ident) {
            self.exceeds.clear();
        }
        let known = self.exceeds.entry(ident).or_insert(0);
        *known = (*known).max(bytes);
    }

    /// Forgets everything (tests do this at random points to show the
    /// flush output does not depend on the memo).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        self.encoded.clear();
        self.exceeds.clear();
    }

    /// Entries held, `(encoded, exceeds)`.
    #[cfg(test)]
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.encoded.len(), self.exceeds.len())
    }
}
