//! The encode-once plane for broadcast fan-out: payload forms, and
//! whole flush plans.
//!
//! A shared session broadcasts the same translated commands to every
//! attached client. Without sharing, each client's flush re-compresses
//! and re-encodes identical `RAW` payloads — O(clients) encode work
//! for one screen update. The plane collapses that to O(equivalence
//! classes), at two grains.
//!
//! **Payload forms.** Commands with the same *payload content* at
//! the same destination and encoding share one compressed wire form,
//! produced once by whichever flush reaches it first and reused by
//! everyone else as an `Arc` bump. Content keying
//! ([`Bytes::content_id`], plus length) survives the per-client
//! command queues — clipping and merging reallocate payloads per
//! client, but on a same-screen broadcast they reallocate them to
//! identical bytes. The id is a property of the payload *allocation*:
//! viewers holding clones of one buffer hash it once between them, and
//! a viewer whose queue re-allocated the payload pays one word-wide
//! pass over its own copy. The pieces of a RAW split at flush are views
//! of the original, keyed from the original's id and the range:
//! class-mates that cut equal payloads at equal rows still meet in one
//! slot, and nobody reads the piece to find that out.
//!
//! Hash collisions cannot corrupt streams: each slot pins the payload
//! [`Bytes`] it was keyed on, and a lookup whose content does not
//! match the pinned payload byte-for-byte bypasses the plane (the
//! command encodes on the ordinary per-client path). Byte output is
//! therefore unaffected — the plane caches the *result* of the
//! per-client encode pipeline, which is a pure function of the
//! command — so streams stay bit-identical with and without it,
//! across any shard or worker count.
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
//! A plane — forms and plans — is scoped to one flush round (one
//! [`flush_all`] call or one sharded epoch) and dropped with it.
//!
//! [`Bytes`]: thinc_protocol::Bytes
//! [`flush_all`]: crate::session::SharedSession::flush_all

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use thinc_net::time::SimTime;
use thinc_protocol::{Bytes, DisplayCommand, Message};
use thinc_raster::Rect;
pub use thinc_telemetry::PlaneCounters;

use crate::buffer::{ClientBuffer, FlushState};

/// Payloads below this size encode faster than a map lookup under a
/// lock; they stay on the per-client path.
pub const PLANE_MIN_PAYLOAD: usize = 64;

/// Identity of one shared-encoding equivalence class: the payload
/// content (hash + length), plus the geometry and encoding that feed
/// the compression decision. A buffer computes it once per command and
/// keys both its plane lookup and its encode memo with it, so the
/// payload is hashed once however many tables are consulted.
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

/// One equivalence class slot: the wire form, produced at most once.
///
/// The slot pins the payload it was keyed on so later lookups can
/// verify content equality byte-for-byte — a hash collision is
/// detected, not silently served.
#[derive(Debug)]
pub struct PlaneSlot {
    form: OnceLock<WireForm>,
    pin: Bytes,
    /// Largest encode bound this payload's compressed stream is known
    /// to pass (0 = nothing known). A fact about the content, so it is
    /// shared like the form; a statistic-grade atomic because a stale
    /// read only costs the reader a bounded encode of its own.
    exceeds: AtomicU64,
}

impl PlaneSlot {
    fn pinned(pin: Bytes) -> Self {
        Self { form: OnceLock::new(), pin, exceeds: AtomicU64::new(0) }
    }

    /// The slot's wire form, running `init` exactly once across all
    /// clients (and threads) that reach this slot.
    pub fn form_or_init(&self, init: impl FnOnce() -> WireForm) -> &WireForm {
        self.form.get_or_init(init)
    }

    /// The wire form, if some client has produced it already.
    pub(crate) fn form(&self) -> Option<&WireForm> {
        self.form.get()
    }

    /// The largest bound the compressed payload is known to exceed.
    pub(crate) fn exceeds(&self) -> u64 {
        self.exceeds.load(Ordering::Relaxed)
    }

    /// Records that the compressed payload is longer than `bytes`.
    pub(crate) fn learn_exceeds(&self, bytes: u64) {
        self.exceeds.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// A wire form as a [`FlushPlan`] hands it from the leader to a
/// follower: the form, and what a viewer that found it in a
/// [`PlaneSlot`] is charged for it. Never the leader's finished wire
/// message — its ledger may have turned the form into a `CacheRef`
/// that means nothing to anyone else.
#[derive(Debug, Clone)]
pub(crate) struct PlannedForm {
    /// The full wire form.
    pub(crate) form: WireForm,
    /// Frame size charged to plane accounting at send time (a slot
    /// stands behind the form).
    pub(crate) shared: Option<u64>,
    /// Identity and length of the payload the codec was owed: what the
    /// viewer's encode memo learns the form under, and the
    /// `codec_skipped_bytes` taking the form ready-made is charged.
    pub(crate) owed: Option<(PlaneKey, u64)>,
}

/// One exactly-clipped part of a delivered entry, as the leader drew
/// it, with the form it went out in — absent when the leader never
/// produced one a follower could take as it is: it resolved the part
/// through its own memo and ledger, or its pipe filled first.
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
    plan: OnceLock<FlushPlan>,
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
    /// No plane, or nothing queued: nothing to share.
    Alone,
    /// First in this state: flush, recording the plan into the slot.
    Lead(Arc<PlanSlot>),
    /// In the state of a plan already claimed: flush by it.
    Follow(Arc<PlanSlot>),
}

/// The per-round shared-encoding table. Cheap to create; create one
/// per flush round and drop it with the round.
#[derive(Debug, Default)]
pub struct WirePlane {
    slots: Mutex<HashMap<PlaneKey, Arc<PlaneSlot>>>,
    /// Flush plans by state fingerprint; structural equality picks
    /// within a bucket.
    plans: Mutex<HashMap<u64, Vec<Arc<PlanSlot>>>>,
}

/// The plane's plan table, locked: a shard resolves all its viewers'
/// roles in one serial pass under one lock, not from inside each
/// viewer's flush. Serial, in id order, is what makes the leader the
/// lowest id instead of the winner of a race; one lock, because a
/// lock per viewer taken from the flushing workers cost the sizing
/// prototype 2.4–3.8 µs a viewer under two workers — more than a
/// follower's whole flush (warm, on one thread, it is ≈ 45 ns against
/// ≈ 27 batched).
pub(crate) struct Plans<'a>(MutexGuard<'a, HashMap<u64, Vec<Arc<PlanSlot>>>>);

impl Plans<'_> {
    /// The role of a viewer about to flush `buffer` at `now`: follower
    /// of the plan claimed for exactly this state, or leader of a new
    /// one.
    pub(crate) fn resolve(&mut self, buffer: &ClientBuffer, now: SimTime) -> PlanRole {
        if buffer.is_empty() {
            return PlanRole::Alone;
        }
        let bucket = self.0.entry(buffer.flush_fingerprint(now)).or_default();
        if let Some(slot) = bucket.iter().find(|slot| buffer.in_state(now, &slot.state)) {
            return PlanRole::Follow(Arc::clone(slot));
        }
        let slot = Arc::new(PlanSlot { state: buffer.flush_state(now), plan: OnceLock::new() });
        bucket.push(Arc::clone(&slot));
        PlanRole::Lead(slot)
    }
}

impl WirePlane {
    /// An empty plane for one flush round.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared slot for `cmd`, or `None` when the command is not
    /// shareable (not a `RAW`, payload too small to be worth the
    /// lock, or — vanishingly rarely — a hash collision with an
    /// existing class, which must take the per-client path to keep
    /// the bytes right).
    pub fn slot(&self, cmd: &DisplayCommand) -> Option<Arc<PlaneSlot>> {
        let (key, data) = plane_key(cmd)?;
        self.slot_keyed(key, data)
    }

    /// [`slot`](Self::slot) for a caller that already holds the
    /// command's key (`key` must be [`plane_key`] of the command
    /// carrying `data`).
    pub(crate) fn slot_keyed(&self, key: PlaneKey, data: &Bytes) -> Option<Arc<PlaneSlot>> {
        let mut slots = self.slots.lock().expect("plane lock poisoned");
        match slots.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = e.get();
                (slot.pin == *data).then(|| Arc::clone(slot))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                Some(Arc::clone(v.insert(Arc::new(PlaneSlot::pinned(data.clone())))))
            }
        }
    }

    /// Number of distinct equivalence classes seen this round.
    pub fn classes(&self) -> usize {
        self.slots.lock().expect("plane lock poisoned").len()
    }

    /// Locks the plan table for a run of [`Plans::resolve`] calls.
    pub(crate) fn plans(&self) -> Plans<'_> {
        Plans(self.plans.lock().expect("plan lock poisoned"))
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

    #[test]
    fn same_allocation_shares_a_slot() {
        let plane = WirePlane::new();
        let data = Bytes::from(vec![7u8; 768]);
        let a = plane.slot(&raw(&data)).unwrap();
        let b = plane.slot(&raw(&data)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(plane.classes(), 1);
    }

    #[test]
    fn equal_content_in_distinct_allocations_shares_a_slot() {
        // The per-client queues reallocate payloads (clip, merge);
        // content keying must see through that.
        let plane = WirePlane::new();
        let a = Bytes::from(vec![7u8; 768]);
        let b = Bytes::from(vec![7u8; 768]); // Equal content, new Arc.
        let sa = plane.slot(&raw(&a)).unwrap();
        let sb = plane.slot(&raw(&b)).unwrap();
        assert!(Arc::ptr_eq(&sa, &sb));
        assert_eq!(plane.classes(), 1);
    }

    #[test]
    fn distinct_content_gets_distinct_slots() {
        let plane = WirePlane::new();
        let a = Bytes::from(vec![7u8; 768]);
        let b = Bytes::from(vec![9u8; 768]);
        let sa = plane.slot(&raw(&a)).unwrap();
        let sb = plane.slot(&raw(&b)).unwrap();
        assert!(!Arc::ptr_eq(&sa, &sb));
        assert_eq!(plane.classes(), 2);
    }

    #[test]
    fn small_and_non_raw_commands_bypass_the_plane() {
        let plane = WirePlane::new();
        let tiny = Bytes::from(vec![1u8; PLANE_MIN_PAYLOAD - 1]);
        assert!(plane.slot(&raw(&tiny)).is_none());
        let copy = DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 4, 4),
            dst_x: 1,
            dst_y: 1,
        };
        assert!(plane.slot(&copy).is_none());
    }

    #[test]
    fn form_initializes_exactly_once() {
        let slot = PlaneSlot::pinned(Bytes::from(Vec::new()));
        let mut inits = 0;
        for _ in 0..3 {
            slot.form_or_init(|| {
                inits += 1;
                WireForm { msg: Message::CacheRef { hash: 9 }, size: 14, id: None }
            });
        }
        assert_eq!(inits, 1);
    }
}
