//! What one flush finds out that another may use: the session's form
//! store, and a round's flush plans.
//!
//! A shared session broadcasts the same translated commands to every
//! attached client, and what the codec finds out about one payload is a
//! fact about that content, not about any one viewer. Without sharing,
//! each client's flush re-compresses and re-encodes identical `RAW`
//! payloads — O(clients) encode work for one screen update, and again
//! for every return of the same content. The session collapses that to
//! one encode per content, at two grains.
//!
//! **The form store.** `FormStore`, one per session, is keyed by a
//! payload's content identity (`PlaneKey`: the payload's content id
//! and length, plus the geometry and encoding that feed the compression
//! decision) and holds, per content, three facts: the compressed wire
//! form; for a form that ships uncompressed, its cache identity and
//! frame size; and the largest encode bound its compressed stream is
//! known to pass. The first flush to reach a content produces its form,
//! and every other flush — another viewer's this round, anyone's in a
//! later one — takes it as a reference-count bump. Content keying
//! ([`Bytes::content_id`], plus length) survives the per-client command
//! queues: clipping and merging reallocate payloads per client, but on a
//! same-screen broadcast they reallocate them to identical bytes. The id
//! is a property of the payload *allocation*: viewers holding clones of
//! one buffer hash it once between them, and a viewer whose queue
//! re-allocated the payload pays one word-wide pass over its own copy.
//! The pieces of a RAW split at flush are views of the original, keyed
//! from the original's id and the range: class-mates that cut equal
//! payloads at equal rows still meet in one entry, and nobody reads the
//! piece to find that out.
//!
//! The store learns freely within a *round* (one
//! [`flush_all`](crate::session::SharedSession::flush_all), or one
//! [`flush_client`](crate::session::SharedSession::flush_client)), and
//! the round's end (`FormStore::end_round`) trims it, least recently used
//! first: compressed forms to the session's cache budget — a session
//! without one to [`DEFAULT_CACHE_BUDGET`], the budget a product session
//! gets — and entries to 1 024.
//!
//! **Collisions.** Within a round, an entry pins the payload [`Bytes`]
//! it was first looked up with, and a lookup whose bytes differ from the
//! pin takes the per-client path (the command encodes on its own, and
//! nothing is learnt from it). The pin goes when the round ends, so no
//! raw payload outlives its round; across rounds the store trusts the
//! identity alone, the stance the ledger takes (`docs/CACHE.md` §3).
//!
//! **The store may only skip work, never change a byte.** Every fact is
//! a pure function of the content — a bounded encode that succeeds
//! writes the same stream whatever its bound, and gives up exactly where
//! the stream passes it — and the flush path uses a fact only to reach,
//! without the codec, the form or the decision the codec would have led
//! it to. Emptying the store at any point leaves every stream
//! byte-identical, which is why nothing ever invalidates it (ledger
//! eviction, `reset_cache`, restore) and why it is not checkpointed.
//!
//! **Flush plans.** Viewers of one scale class that are keeping up
//! hold command buffers in the same state, and a flush from the same
//! state clips the same entries into the same parts and looks up the
//! same forms. The first viewer to flush from a given buffer state
//! (the *leader*: the lowest id, because plans are resolved serially
//! in id order, never by a race) records what it derived — per
//! delivered entry its clipped parts, per part the pipe-independent
//! wire form — as a `FlushPlan`, published here pinned on the exact
//! state it started from (`buffer::FlushState`). A viewer whose buffer is in
//! that state (a *follower*) runs the same flush loop over the plan's
//! parts and forms instead of deriving its own, and still asks its own
//! pipe and its own cache ledger about every part, so a follower that
//! turns out not to be in step after all — its pipe fills, its ledger
//! already holds a payload — leaves the plan at that part and carries
//! on alone. Whether a buffer is in a plan's state is decided by
//! **structural equality**, never by a hash: the fingerprint only
//! picks the bucket. A wrong match would paint one viewer's screen
//! with another's commands, and unlike a payload there is no cheaper
//! identity to pin — the state *is* the queue; equality is cheap where
//! it matters, because class-mates' payloads are clones of one
//! allocation and [`Bytes`] compares those by pointer. In-step-ness is
//! thus *observed* at every flush, not maintained: there is no class
//! queue, membership or rejoin logic to keep consistent.
//!
//! A round's plans (`WirePlane`) are made for one
//! [`flush_all`](crate::session::SharedSession::flush_all) call, which
//! is one fan-out epoch, and dropped with it.
//!
//! [`Bytes`]: thinc_protocol::Bytes
//! [`Bytes::content_id`]: thinc_protocol::Bytes::content_id

use std::cell::OnceCell;
use std::collections::HashMap;
use std::rc::Rc;

use thinc_net::time::SimTime;
use thinc_protocol::{Bytes, DisplayCommand, Message, DEFAULT_CACHE_BUDGET};
use thinc_raster::Rect;
pub use thinc_telemetry::PlaneCounters;

use crate::buffer::{ClientBuffer, FlushState};

/// Payloads below this size encode faster than a map lookup; they stay
/// on the per-client path.
pub const PLANE_MIN_PAYLOAD: usize = 64;

/// Entries the store keeps past a round at most; the least recently
/// used go first.
const MAX_KEPT: usize = 1024;

/// Identity of one content: the payload (hash + length), plus the
/// geometry and encoding that feed the compression decision. A buffer
/// computes it once per command, so the payload is hashed once however
/// often the store is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PlaneKey {
    /// The payload's in-process content id (never leaves the process,
    /// so it is not the wire's FNV-1a).
    content: u64,
    /// Payload length (cuts down same-hash accidents cheaply).
    len: usize,
    /// Destination rectangle (its width sets the compression stride).
    rect: (i32, i32, u32, u32),
    /// `RawEncoding` discriminant.
    encoding: u8,
}

pub(crate) fn plane_key(cmd: &DisplayCommand) -> Option<(PlaneKey, &Bytes)> {
    let DisplayCommand::Raw { rect, encoding, data } = cmd else {
        return None;
    };
    if data.len() < PLANE_MIN_PAYLOAD {
        return None;
    }
    Some((
        PlaneKey {
            content: data.content_id(),
            len: data.len(),
            rect: rect_key(rect),
            encoding: *encoding as u8,
        },
        data,
    ))
}

fn rect_key(r: &Rect) -> (i32, i32, u32, u32) {
    (r.x, r.y, r.w, r.h)
}

/// The final wire form of a command: the message that goes on the
/// wire, its encoded size, and its rev-3 cache identity (when
/// cacheable).
/// A pure function of the command, so whichever client computes it
/// first computes the same bytes every other client would have.
#[derive(Debug, Clone)]
pub struct WireForm {
    /// The emitted message (payload possibly compressed).
    pub msg: Message,
    /// Encoded frame size in bytes.
    pub size: u64,
    /// In-process cache identity of the frame
    /// ([`cache_id`](thinc_protocol::cache_id)), if cacheable: the
    /// ledger's key. The wire name is computed only for a reference.
    pub id: Option<u64>,
}

/// What the store knows of one content's final wire form.
#[derive(Debug)]
enum Final {
    /// The codec's stream, whole: it beat the payload. (Boxed: most
    /// entries hold no compressed form, and the box keeps each at 56
    /// bytes of facts rather than 104.)
    Packed(Box<WireForm>),
    /// The command as it is, by cache identity and frame size: the
    /// codec's stream does not beat the payload (`tried`), or no encode
    /// was owed (kept for the round only).
    AsIs { id: Option<u64>, size: u64, tried: bool },
}

/// What the store knows of one content.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    /// The payload this round's first lookup brought (`None` between
    /// rounds): a lookup with other bytes is a collision.
    pin: Option<Bytes>,
    /// The content's final wire form, if known.
    form: Option<Final>,
    /// Largest encode bound the content's compressed stream is known
    /// to pass (0 = nothing known).
    exceeds: u64,
    /// Use stamp: orders entries from least to most recently used.
    used: u64,
}

impl Facts {
    /// The content's final wire form, if known. `cmd` is the command
    /// looked up: a form that ships as it is *is* that command.
    pub(crate) fn form(&self, cmd: &DisplayCommand) -> Option<WireForm> {
        match self.form.as_ref()? {
            Final::Packed(form) => Some(WireForm::clone(form)),
            Final::AsIs { id, size, .. } => {
                Some(WireForm { msg: Message::Display(cmd.clone()), size: *size, id: *id })
            }
        }
    }

    /// The largest bound the compressed stream is known to pass.
    pub(crate) fn exceeds(&self) -> u64 {
        self.exceeds
    }

    /// Records that the compressed stream is longer than `bytes`.
    pub(crate) fn learn_exceeds(&mut self, bytes: u64) {
        self.exceeds = self.exceeds.max(bytes);
    }

    /// Records `form`, the content's final wire form; `tried`: an
    /// encode was owed, so the form is the codec's verdict.
    pub(crate) fn learn_form(&mut self, form: &WireForm, tried: bool) {
        let packed = matches!(
            form.msg,
            Message::Display(DisplayCommand::Raw { encoding: thinc_protocol::RawEncoding::PngLike, .. })
        );
        self.form = Some(if tried && packed {
            Final::Packed(Box::new(form.clone()))
        } else {
            Final::AsIs { id: form.id, size: form.size, tried }
        });
    }

    /// Frame bytes of the compressed form held.
    fn packed_bytes(&self) -> u64 {
        match &self.form {
            Some(Final::Packed(form)) => form.size,
            _ => 0,
        }
    }
}

/// The session's content-keyed store of what flushes found out (see
/// the module documentation). Empty, it holds no allocation.
#[derive(Debug, Default)]
pub(crate) struct FormStore {
    facts: HashMap<PlaneKey, Facts>,
    /// The entries pinned this round, with the frame bytes of the
    /// compressed form each held when first pinned.
    round: Vec<(PlaneKey, u64)>,
    /// Frame bytes of the compressed forms held, as of the round's
    /// start and after each round's end.
    packed: u64,
    /// Use counter: stamps [`Facts::used`].
    clock: u64,
}

impl FormStore {
    /// What the store knows of `key`, marked as used and pinned to
    /// `data` for the round; `None` when this round's pin is other
    /// bytes (a hash collision), and the command must take the
    /// per-client path to keep the bytes right.
    pub(crate) fn pinned(&mut self, key: PlaneKey, data: &Bytes) -> Option<&mut Facts> {
        self.clock += 1;
        let facts = self.facts.entry(key).or_default();
        match &facts.pin {
            Some(pin) if pin != data => return None,
            Some(_) => {}
            None => {
                facts.pin = Some(data.clone());
                self.round.push((key, facts.packed_bytes()));
            }
        }
        facts.used = self.clock;
        Some(facts)
    }

    /// Marks `key` as used, as a lookup would: a follower taking a
    /// planned form in place of the lookup.
    pub(crate) fn touch(&mut self, key: &PlaneKey) {
        if let Some(facts) = self.facts.get_mut(key) {
            self.clock += 1;
            facts.used = self.clock;
        }
    }

    /// Ends a round: drops every pin and every form that no encode was
    /// owed, then keeps, least recently used out first, compressed
    /// forms within `budget` frame bytes (one bigger than that is never
    /// a ledger entry, so it is not kept at all; no budget is
    /// [`DEFAULT_CACHE_BUDGET`]) and at most [`MAX_KEPT`] entries.
    /// Visits the round's entries, and all of them only to pick what
    /// goes.
    pub(crate) fn end_round(&mut self, budget: Option<u64>) {
        let budget = budget.unwrap_or(DEFAULT_CACHE_BUDGET);
        for (key, before) in self.round.drain(..) {
            let std::collections::hash_map::Entry::Occupied(mut entry) = self.facts.entry(key) else {
                continue;
            };
            let facts = entry.get_mut();
            facts.pin = None;
            let keep = match &facts.form {
                Some(Final::Packed(form)) => form.size <= budget,
                Some(Final::AsIs { tried, .. }) => *tried && budget > 0,
                None => false,
            };
            if !keep {
                facts.form = None;
            }
            self.packed = self.packed - before + facts.packed_bytes();
            if facts.form.is_none() && facts.exceeds == 0 {
                entry.remove();
            }
        }
        while self.facts.len() > MAX_KEPT || self.packed > budget {
            // Past the entry cap any entry goes, past the byte budget a
            // compressed form.
            let full = self.facts.len() > MAX_KEPT;
            let candidates = self.facts.iter().filter(|(_, facts)| full || facts.packed_bytes() > 0);
            let Some(key) = candidates.min_by_key(|(_, facts)| facts.used).map(|(key, _)| *key) else {
                break;
            };
            let facts = self.facts.get_mut(&key).expect("found above");
            self.packed -= facts.packed_bytes();
            if full || facts.exceeds == 0 {
                self.facts.remove(&key);
            } else {
                facts.form = None;
            }
        }
    }

    /// Forgets everything (tests do this at random points to show the
    /// flush output does not depend on the store).
    #[cfg(test)]
    pub(crate) fn clear(&mut self) {
        *self = Self { clock: self.clock, ..Self::default() };
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.facts.len()
    }

    /// `(compressed forms held, their frame bytes)`, recounted from the
    /// forms and checked against the running count.
    #[cfg(test)]
    pub(crate) fn packed_held(&self) -> (usize, u64) {
        let sizes = self.facts.values().map(Facts::packed_bytes).filter(|&size| size > 0);
        let held = sizes.fold((0, 0), |(n, bytes), size| (n + 1, bytes + size));
        if self.round.is_empty() {
            assert_eq!(held.1, self.packed, "the running count drifted");
        }
        held
    }
}

/// A wire form as a [`FlushPlan`] hands it from the leader to a
/// follower: the form, and what a viewer that found it in the store is
/// charged for it. Never the leader's finished wire message — its
/// ledger may have turned the form into a `CacheRef` that means nothing
/// to anyone else.
#[derive(Debug, Clone)]
pub(crate) struct PlannedForm {
    /// The full wire form.
    pub(crate) form: WireForm,
    /// Frame size charged to plane accounting at send time (the store
    /// stands behind the form).
    pub(crate) shared: Option<u64>,
    /// Identity and length of the payload the codec was owed: the
    /// entry taking the form ready-made marks as used, and the
    /// `codec_skipped_bytes` it is charged.
    pub(crate) owed: Option<(PlaneKey, u64)>,
}

impl PlannedForm {
    /// Whether every viewer in the same buffer state would have found
    /// this form the way this one did: with the store standing behind
    /// it, or no codec involved at all. (A compressible payload the
    /// store turned away — a hash collision — is encoded by each viewer
    /// against its own pipe, and charged as such.)
    pub(crate) fn shareable(&self) -> bool {
        self.shared.is_some() || self.owed.is_none()
    }
}

/// One exactly-clipped part of a delivered entry, as the leader drew
/// it, with the form it went out in — absent when the leader never
/// produced one a follower could take as it is: the store turned its
/// lookup away, or its pipe filled first.
#[derive(Debug)]
pub(crate) struct PlannedPart {
    pub(crate) cmd: DisplayCommand,
    pub(crate) form: Option<PlannedForm>,
}

/// What the leader's flush derived, per entry in delivery order.
#[derive(Debug, Default)]
pub(crate) struct FlushPlan {
    pub(crate) entries: Vec<Vec<PlannedPart>>,
}

/// One class's plan: the buffer state it applies to, and the plan once
/// the leader has flushed. A leader that panics mid-flush publishes
/// nothing, and its followers flush on their own.
#[derive(Debug)]
pub(crate) struct PlanSlot {
    state: FlushState,
    plan: OnceCell<FlushPlan>,
}

impl PlanSlot {
    /// The plan, if the leader has published it.
    pub(crate) fn plan(&self) -> Option<&FlushPlan> {
        self.plan.get()
    }

    /// Publishes the leader's plan.
    pub(crate) fn publish(&self, plan: FlushPlan) {
        // A slot has exactly one leader, so it is set at most once.
        let _ = self.plan.set(plan);
    }
}

/// A viewer's part in this round's plan for its buffer state.
#[derive(Debug)]
pub(crate) enum PlanRole {
    /// Flushing on its own, or nothing queued: nothing to share.
    Alone,
    /// First in this state: flush, recording the plan into the slot.
    Lead(Rc<PlanSlot>),
    /// In the state of a plan already claimed: flush by it.
    Follow(Rc<PlanSlot>),
}

/// One flush round's plans, by state fingerprint; structural equality
/// picks within a bucket. A round resolves each viewer's role just
/// before that viewer flushes, in id order: so the leader is the lowest
/// id, and it has flushed, publishing its plan, before any follower
/// reads it.
#[derive(Debug, Default)]
pub(crate) struct WirePlane {
    plans: HashMap<u64, Vec<Rc<PlanSlot>>>,
}

impl WirePlane {
    /// The role of a viewer about to flush `buffer` at `now`: follower
    /// of the plan claimed for exactly this state, or leader of a new
    /// one.
    pub(crate) fn resolve(&mut self, buffer: &ClientBuffer, now: SimTime) -> PlanRole {
        if buffer.is_empty() {
            return PlanRole::Alone;
        }
        let bucket = self.plans.entry(buffer.flush_fingerprint(now)).or_default();
        if let Some(slot) = bucket.iter().find(|slot| buffer.in_state(now, &slot.state)) {
            return PlanRole::Follow(Rc::clone(slot));
        }
        let slot = Rc::new(PlanSlot { state: buffer.flush_state(now), plan: OnceCell::new() });
        bucket.push(Rc::clone(&slot));
        PlanRole::Lead(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::{Bytes, RawEncoding};

    fn raw(data: &Bytes) -> DisplayCommand {
        DisplayCommand::Raw {
            rect: Rect::new(0, 0, 16, 16),
            encoding: RawEncoding::None,
            data: data.clone(),
        }
    }

    fn key(data: &Bytes) -> PlaneKey {
        plane_key(&raw(data)).expect("a keyed RAW").0
    }

    /// A compressed form of `bytes` frame bytes.
    fn packed(bytes: u64) -> WireForm {
        let data = Bytes::from(vec![0u8; 8]);
        let rect = Rect::new(0, 0, 16, 16);
        let cmd = DisplayCommand::Raw { rect, encoding: RawEncoding::PngLike, data };
        WireForm { msg: Message::Display(cmd), size: bytes, id: None }
    }

    #[test]
    fn equal_content_in_distinct_allocations_is_one_entry() {
        // The per-client queues reallocate payloads (clip, merge);
        // content keying must see through that.
        let (a, b) = (Bytes::from(vec![7u8; 768]), Bytes::from(vec![7u8; 768]));
        let mut store = FormStore::default();
        assert_eq!(key(&a), key(&b));
        store.pinned(key(&a), &a).unwrap().learn_exceeds(9);
        assert_eq!(store.pinned(key(&b), &b).unwrap().exceeds(), 9);
        assert_ne!(key(&a), key(&Bytes::from(vec![9u8; 768])));
    }

    #[test]
    fn small_and_non_raw_commands_have_no_identity() {
        let tiny = Bytes::from(vec![1u8; PLANE_MIN_PAYLOAD - 1]);
        assert!(plane_key(&raw(&tiny)).is_none());
        let copy = DisplayCommand::Copy { src_rect: Rect::new(0, 0, 4, 4), dst_x: 1, dst_y: 1 };
        assert!(plane_key(&copy).is_none());
    }

    #[test]
    fn within_a_round_other_bytes_under_a_pinned_identity_are_turned_away() {
        // Two payloads that collide in identity: the key is the first
        // one's, the bytes looked up with it the second's.
        let (a, b) = (Bytes::from(vec![7u8; 768]), Bytes::from(vec![9u8; 768]));
        let mut store = FormStore::default();
        store.pinned(key(&a), &a).unwrap().learn_form(&packed(40), true);
        assert!(store.pinned(key(&a), &b).is_none(), "a collision was served a form");
        assert!(store.pinned(key(&a), &a).is_some());
        // Across rounds the identity alone is trusted: whoever comes
        // first in the next round pins its own bytes.
        store.end_round(Some(1 << 20));
        assert!(store.pinned(key(&a), &b).is_some_and(|f| f.form(&raw(&b)).is_some()));
    }

    #[test]
    fn a_round_keeps_only_what_a_later_one_may_use() {
        let budget = 100;
        let data: Vec<Bytes> = (0..4u8).map(|i| Bytes::from(vec![i; 768])).collect();
        let mut store = FormStore::default();
        let learn = |store: &mut FormStore, i: usize, form: &WireForm, tried| {
            store.pinned(key(&data[i]), &data[i]).unwrap().learn_form(form, tried);
        };
        let as_is = WireForm { msg: Message::Display(raw(&data[0])), size: 790, id: Some(5) };
        learn(&mut store, 0, &as_is, false); // No encode owed: for the round.
        learn(&mut store, 1, &as_is, true); // Does not compress: kept, by identity.
        learn(&mut store, 2, &packed(60), true);
        learn(&mut store, 3, &packed(50), true); // Most recent: the budget keeps it.
        store.end_round(Some(budget));
        assert_eq!(store.len(), 2);
        assert_eq!(store.packed_held(), (1, 50));
        assert!(store.facts.values().all(|f| f.pin.is_none()), "a payload outlived its round");
        // No budget: the one a product session gets. Verdicts, forms
        // and give-up bounds outlive the round; a form bigger than the
        // budget does not.
        let mut store = FormStore::default();
        learn(&mut store, 1, &as_is, true);
        learn(&mut store, 2, &packed(60), true);
        learn(&mut store, 3, &packed(DEFAULT_CACHE_BUDGET + 1), true);
        store.pinned(key(&data[0]), &data[0]).unwrap().learn_exceeds(700);
        store.end_round(None);
        assert_eq!((store.len(), store.packed_held()), (3, (1, 60)));
    }

    #[test]
    fn past_the_entry_cap_the_least_recently_used_go() {
        let mut store = FormStore::default();
        let data: Vec<Bytes> =
            (0..MAX_KEPT + 8).map(|i| Bytes::from((i as u32).to_le_bytes().repeat(20))).collect();
        for bytes in &data {
            store.pinned(key(bytes), bytes).unwrap().learn_exceeds(1);
        }
        store.end_round(Some(1 << 20));
        assert_eq!(store.len(), MAX_KEPT);
        assert!(!store.facts.contains_key(&key(&data[7])) && store.facts.contains_key(&key(&data[8])));
    }
}
