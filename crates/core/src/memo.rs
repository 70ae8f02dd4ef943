//! The flush-time encode memo: what compressing a RAW payload taught
//! this client's buffer, kept so the same content need not be
//! compressed again to reach the same decision or to ship the same
//! bytes.
//!
//! The rev-3 ledger keys the *final* encoding, so without a memo a
//! cache hit is only discovered after paying the codec for bytes that
//! are then replaced by a 13-byte reference, a payload too big for the
//! socket buffer is only discovered to be so after compressing all of
//! it, and content the ledger has evicted is compressed afresh each
//! time it comes back. The memo maps a payload's *content identity* —
//! the [`PlaneKey`] the encode-once plane already computes — to what
//! the last encode found out:
//!
//! - **encoded**: the final wire form. A compressed one is kept whole
//!   (its payload is one allocation the ledger entry shares while it
//!   lives, so keeping it costs a reference count until the ledger
//!   lets go): a repeat ships it without the codec, as a `CacheRef`
//!   while the ledger holds it and in full once it does not. An
//!   uncompressed form *is* the command, so only its cache identity
//!   and frame size are kept, for the reference — and that it ships
//!   uncompressed says its stream does not beat the payload. Entries
//!   are bounded by [`MAX_ENCODED`], the compressed forms' frame bytes
//!   by the ledger's own budget, least recently used out first; a
//!   buffer without a ledger learns none.
//! - **exceeds**: a size the compressed stream is known to be longer
//!   than, learnt from a bounded encode that gave up.
//!
//! **The memo may only skip work, never change a byte.** Both facts
//! are pure functions of the content — a bounded encode that succeeds
//! writes the same stream whatever its bound, and gives up exactly
//! where the stream passes it — and the flush path uses them only to
//! reach, without the codec, the form or the decision the codec would
//! have led it to. Emptying the memo at any point leaves the flush
//! output unchanged, which is why nothing ever needs to invalidate it
//! (`reset_cache`, eviction, restore) and why it is not checkpointed.
//! The identity is a 64-bit content hash (`Bytes::content_id`, which
//! the payload's allocation memoises) plus length and geometry, not a
//! byte comparison; the collision stance is the ledger's own
//! (`docs/CACHE.md` §3).

use std::collections::HashMap;

use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;

use crate::plane::{PlaneKey, WireForm};

/// Final forms remembered at most. One is learnt per RAW ≥ 1 KB that
/// reaches the wire through a ledger; past this, the least recently
/// used is forgotten.
const MAX_ENCODED: usize = 1024;

/// Give-ups remembered at most; the table starts over when it fills.
/// Sized for a browsing session's worth of photographs (each leaves a
/// few entries: the image, and each remainder after a split).
const MAX_EXCEEDS: usize = 1024;

/// What the memo knows of one content's final wire form.
#[derive(Debug)]
enum Final {
    /// The compressed form itself.
    Packed(WireForm),
    /// The form ships as the command is, because the compressed stream
    /// does not beat the payload: its cache identity and frame size.
    Plain { id: u64, size: u64 },
}

/// A remembered final form and when it was last of use.
#[derive(Debug)]
struct Known {
    form: Final,
    used: u64,
}

/// What the memo says a bounded encode of a content would do.
#[derive(Debug)]
pub(crate) enum Bounded<'a> {
    /// Write this form: its payload fits the bound.
    Form(&'a WireForm),
    /// Give up: the stream is known to pass the bound.
    GivesUp,
    /// Nothing known; the codec must say.
    Unknown,
}

/// Per-buffer memo of encode outcomes, keyed by content identity.
/// Empty tables hold no allocation.
#[derive(Debug, Default)]
pub(crate) struct EncodeMemo {
    encoded: HashMap<PlaneKey, Known>,
    /// Frame bytes of the compressed forms held.
    packed_bytes: u64,
    /// Use counter: orders `encoded` from least to most recently used.
    clock: u64,
    exceeds: HashMap<PlaneKey, u64>,
}

/// The compressed payload's length, when `msg` is a compressed RAW.
fn packed_len(msg: &Message) -> Option<u64> {
    match msg {
        Message::Display(DisplayCommand::Raw { encoding: RawEncoding::PngLike, data, .. }) => {
            Some(data.len() as u64)
        }
        _ => None,
    }
}

impl EncodeMemo {
    /// The entry for `ident`, marked as used.
    fn touch(&mut self, ident: &PlaneKey) -> Option<&Final> {
        let known = self.encoded.get_mut(ident)?;
        self.clock += 1;
        known.used = self.clock;
        Some(&known.form)
    }

    /// The `(cache identity, frame size)` of the final wire form last
    /// produced for this content. The caller must check the ledger
    /// still holds the entry before acting on it.
    pub(crate) fn encoded(&mut self, ident: &PlaneKey) -> Option<(u64, u64)> {
        match self.touch(ident)? {
            Final::Packed(form) => Some((form.id?, form.size)),
            Final::Plain { id, size } => Some((*id, *size)),
        }
    }

    /// What an encode of this content bounded by `cap` (at most the
    /// payload's length less one) would do: write the compressed form
    /// kept, if its payload fits, and give up if it does not, if the
    /// form ships uncompressed, or if the stream is known to pass
    /// `cap`.
    pub(crate) fn bounded(&mut self, ident: &PlaneKey, cap: u64) -> Bounded<'_> {
        let exceeds = self.exceeds.get(ident).copied().unwrap_or(0);
        match self.touch(ident) {
            Some(Final::Packed(form)) if packed_len(&form.msg).is_some_and(|len| len <= cap) => {
                Bounded::Form(form)
            }
            Some(_) => Bounded::GivesUp,
            None if exceeds >= cap => Bounded::GivesUp,
            None => Bounded::Unknown,
        }
    }

    /// Remembers `form`, the final wire form of `ident`, found under an
    /// encode bound of the payload's length less one. A compressed form
    /// is kept whole, cache identity or none, while the forms held stay
    /// within `budget` frame bytes (the ledger's; a form bigger than
    /// that is never a ledger entry, so it is not kept at all); an
    /// uncompressed one by its identity.
    pub(crate) fn learn_encoded(&mut self, ident: PlaneKey, form: &WireForm, budget: u64) {
        let (size, packed) = (form.size, packed_len(&form.msg).is_some());
        if packed && size > budget || self.touch(&ident).is_some() {
            // Too big to keep, or known already: the same content
            // makes the same form.
            return;
        }
        let known = match (packed, form.id) {
            (true, _) => Final::Packed(form.clone()),
            (false, Some(id)) => Final::Plain { id, size },
            // An uncompressed RAW of 1 KB or more always has an identity.
            (false, None) => return,
        };
        let new_bytes = if packed { size } else { 0 };
        loop {
            // Past the entry cap any entry goes, past the byte budget a
            // compressed one: least recently used first.
            let full = self.encoded.len() >= MAX_ENCODED;
            if !full && self.packed_bytes + new_bytes <= budget {
                break;
            }
            let victim = self
                .encoded
                .iter()
                .filter(|(_, known)| full || matches!(known.form, Final::Packed(_)))
                .min_by_key(|(_, known)| known.used)
                .map(|(ident, _)| *ident);
            let Some(victim) = victim else { break };
            self.forget(&victim);
        }
        self.clock += 1;
        self.packed_bytes += new_bytes;
        self.encoded.insert(ident, Known { form: known, used: self.clock });
    }

    /// Drops what is known of `ident`'s final form.
    fn forget(&mut self, ident: &PlaneKey) {
        if let Some(Known { form: Final::Packed(form), .. }) = self.encoded.remove(ident) {
            self.packed_bytes -= form.size;
        }
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
        self.packed_bytes = 0;
        self.exceeds.clear();
    }

    /// Entries held, `(encoded, exceeds)`.
    #[cfg(test)]
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.encoded.len(), self.exceeds.len())
    }

    /// `(compressed forms held, their frame bytes)`, recounted from
    /// the forms and checked against the running count.
    #[cfg(test)]
    pub(crate) fn packed_held(&self) -> (usize, u64) {
        let forms = self.encoded.values().filter_map(|known| match &known.form {
            Final::Packed(form) => Some(form.size),
            Final::Plain { .. } => None,
        });
        let held = forms.fold((0, 0), |(n, bytes), size| (n + 1, bytes + size));
        assert_eq!(held.1, self.packed_bytes, "the running count drifted");
        held
    }
}
