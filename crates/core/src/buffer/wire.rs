//! Wire preparation: what a buffered command looks like on the wire.
//!
//! At flush time a command becomes its full wire form — compressed
//! lazily, bounded by what can be of use ("fit first"), remembered by
//! content identity (`EncodeMemo`) and shared across clients through
//! a [`WirePlane`] — or, when the content-cache ledger says the client
//! already holds those exact bytes, a compact [`Message::CacheRef`].
//! Shipping a prepared message settles everything owed for it: trace,
//! delivery and plane accounting, the ledger.

use std::collections::VecDeque;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::cache::{cache_id, ContentStore};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_telemetry::ResilienceMetrics;

use super::ClientBuffer;
use crate::plane::{
    plane_key, PlaneCounters, PlaneKey, PlaneSlot, PlannedForm, WireForm, WirePlane,
};

/// Server-side per-client content-cache state (protocol revision 3).
///
/// The ledger holds every cacheable payload this buffer has actually
/// committed to the wire, under its frame identity, so a
/// [`Message::CacheRef`] is only ever emitted for content the client
/// was given, and a reported miss can be answered with the byte-exact
/// original. An entry is named — its wire hash computed — only when a
/// reference or an answer to a miss needs the name. See
/// `docs/CACHE.md` for the consistency model.
#[derive(Debug)]
pub(super) struct CacheEngine {
    pub(super) ledger: ContentStore,
    /// Byte-exact full payloads owed to reported misses, delivered
    /// ahead of the command queues at the next flush.
    pub(super) fallbacks: VecDeque<Message>,
    pub(super) hits: u64,
    pub(super) misses: u64,
    pub(super) bytes_saved: u64,
}

/// Ledger update owed once a flush-time message actually sends.
#[derive(Debug, Clone, Copy)]
enum CacheCommit {
    /// Not cacheable (or cache disabled): nothing owed.
    None,
    /// A reference was substituted: bump the entry, count the hit.
    Hit {
        /// Identity of the referenced entry.
        id: u64,
        /// Wire bytes the substitution saved.
        saved: u64,
    },
    /// A cacheable full payload went out: the client now holds it.
    Insert {
        /// Identity of the sent payload.
        id: u64,
    },
}

/// A command made ready for the wire at flush time.
#[derive(Debug)]
pub(super) struct Wire {
    /// What goes on the wire: the full form or its `CacheRef`.
    msg: Message,
    /// Encoded frame size of `msg`.
    pub(super) size: u64,
    /// Ledger update owed once `msg` is committed to the pipe.
    commit: CacheCommit,
    /// Frame size of the full form when a [`WirePlane`] slot stands
    /// behind it (plane accounting at send time).
    shared: Option<u64>,
}

/// What [`ClientBuffer::form_for`] found for a command.
#[derive(Debug)]
pub(super) enum Formed {
    /// The command's full wire form, for this viewer's ledger to
    /// [`settle`](ClientBuffer::settle) — and, being no viewer's in
    /// particular, for a flush plan to share.
    Form(PlannedForm),
    /// This viewer's finished message, reached without the form.
    Settled(Wire),
}

impl Formed {
    /// The form, when it is one every viewer in the same buffer state
    /// would have found the way this one did: with a plane slot
    /// standing behind it, or no codec involved at all. (A compressible
    /// payload the plane refused a slot — a hash collision — is encoded
    /// by each viewer against its own pipe, and charged as such.)
    pub(super) fn shareable(&self) -> Option<&PlannedForm> {
        match self {
            Formed::Form(f) if f.shared.is_some() || f.owed.is_none() => Some(f),
            _ => None,
        }
    }
}

/// The compress attempt owed to an uncompressed RAW at flush time.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// Content identity of the payload (memo and plane key).
    ident: PlaneKey,
    /// Bytes per pixel of the session format.
    bpp: usize,
    /// Payload length.
    len: u64,
    /// Longest compressed payload that is of any use: `len - 1` (any
    /// stream that beats the payload) unless the pipe tightens it.
    cap: u64,
}

/// Wire bytes of a RAW frame around its payload: message header, rect,
/// encoding tag, payload length.
pub(super) const RAW_FRAME_OVERHEAD: u64 = thinc_protocol::commands::COMMAND_HEADER_BYTES + 16 + 1 + 4;

/// RAW payloads below this are sent as they are: compressing them
/// saves less than it costs.
const COMPRESS_MIN_PAYLOAD: usize = 1024;

impl ClientBuffer {
    /// Enables the content-addressed cache ledger (protocol revision
    /// 3) with the given byte budget. Called by the owner once the
    /// handshake lands on a revision that speaks cache references; the
    /// budget must match the client store's for the eviction mirror to
    /// hold (see `docs/CACHE.md`).
    pub fn enable_cache(&mut self, budget: u64) {
        if self.cache.is_none() {
            self.cache = Some(CacheEngine {
                ledger: ContentStore::new(budget),
                fallbacks: VecDeque::new(),
                hits: 0,
                misses: 0,
                bytes_saved: 0,
            });
        }
    }

    /// Whether the cache ledger is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Answers a client-reported cache miss: queues the byte-exact
    /// original payload for delivery ahead of the command queues.
    /// Returns `false` when the ledger no longer holds the payload
    /// (both sides evicted it; a ref for it can no longer be emitted,
    /// but one may still be crossing the wire) — the owner escalates
    /// to a screen refresh so the client reconverges regardless.
    pub fn satisfy_cache_miss(&mut self, hash: u64) -> bool {
        let Some(cache) = self.cache.as_mut() else {
            return false;
        };
        cache.misses += 1;
        // LRU order is deliberately not touched here: the ledger must
        // mirror the client store, and the client only re-ranks the
        // entry when the fallback payload actually arrives — which is
        // when the flush path re-inserts it on this side too.
        let id = cache.ledger.find(hash);
        if let Some(msg) = id.and_then(|id| cache.ledger.lru().peek(id)).map(|held| &held.msg) {
            cache.fallbacks.push_back(msg.clone());
            true
        } else {
            false
        }
    }

    /// Every key the cache ledger currently holds, sorted ascending
    /// (empty when the cache is disabled). Lets a harness verify the
    /// ledger mirrors the client store entry-for-entry.
    pub fn cache_keys(&self) -> Vec<u64> {
        match &self.cache {
            Some(c) => c.ledger.keys(),
            None => Vec::new(),
        }
    }

    /// Miss fallbacks queued but not yet delivered.
    pub fn fallbacks_pending(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.fallbacks.len())
    }

    /// What this buffer contributes to its client's resilience
    /// accounting: the content cache's hits, misses, evictions and
    /// bytes saved, and the overflow evictions.
    pub fn resilience_counts(&self) -> ResilienceMetrics {
        let mut m = ResilienceMetrics {
            overflow_evictions: self.stats.overflow_evicted,
            ..ResilienceMetrics::default()
        };
        if let Some(c) = &self.cache {
            m.cache_hits = c.hits;
            m.cache_misses = c.misses;
            m.cache_evictions = c.ledger.lru().evictions();
            m.cache_bytes_saved = c.bytes_saved;
        }
        m
    }

    /// Makes a command ready for the wire at flush time: the full
    /// payload (with a ledger insert owed if cacheable) or, when the
    /// ledger says the client already holds these exact bytes, a
    /// compact [`Message::CacheRef`] substitute. RAW compression is
    /// applied lazily here ("commands are not broken up [or encoded] in
    /// advance ... to adapt to changing conditions").
    ///
    /// Returns `None` when no whole form of the command can ship into
    /// `writable` bytes of socket space — its compressed frame is known
    /// to be bigger, and bigger than anything the ledger holds, so it
    /// is not a cache hit either — and the caller must split it.
    ///
    /// Two halves, so that a flush plan can carry the first across
    /// viewers: [`form_for`](Self::form_for) finds the command's form,
    /// which no viewer's ledger has touched, and
    /// [`settle`](Self::settle) asks this viewer's ledger whether the
    /// form or a reference to it goes out.
    ///
    /// Pure lookup as far as delivery state goes — counters and LRU
    /// order move only in [`Self::cache_commit`] once the frame is
    /// actually committed to the pipe, so a blocked flush attempt has
    /// no side effects.
    pub(super) fn prepare_wire(
        &mut self,
        cmd: &DisplayCommand,
        writable: u64,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Option<Wire> {
        self.form_for(cmd, writable, plane, counters).map(|formed| self.settle(formed))
    }

    /// The full wire form of `cmd`, as far as `writable` bytes of pipe
    /// space make it worth producing (`None`: nothing whole can ship).
    ///
    /// **Fit first.** The only compressed form ever used is one shorter
    /// than the payload, and when the uncompressed frame does not fit
    /// the pipe, only one that does fit (or that the ledger could
    /// hold) — so the encode is bounded by those sizes and gives up
    /// the moment its stream passes them, instead of compressing the
    /// whole payload to learn a size it then discards. What a bounded
    /// encode finds out is remembered by content identity
    /// (`EncodeMemo`), so a repeat of the content — above all a
    /// cache hit — reaches the same decision without the codec, and
    /// without the form: that is the one case that comes back already
    /// [`Settled`](Formed::Settled). The decision itself is a pure
    /// function of command, pipe space and ledger: the memo and the
    /// plane only ever skip work, and a form that comes back at all is
    /// the same form whatever the pipe space was.
    pub(super) fn form_for(
        &mut self,
        cmd: &DisplayCommand,
        writable: u64,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Option<Formed> {
        #[cfg(test)]
        if self.reference_prepare {
            return Some(Formed::Settled(self.reference_prepare_wire(cmd.clone(), plane, counters)));
        }
        let ident = plane_key(cmd);
        let mut attempt = match (self.raw_compress_bpp, cmd, ident) {
            (
                Some(bpp),
                DisplayCommand::Raw { encoding: RawEncoding::None, data, .. },
                Some((ident, _)),
            ) if data.len() >= COMPRESS_MIN_PAYLOAD => {
                let len = data.len() as u64;
                Some(Attempt { ident, bpp, len, cap: len - 1 })
            }
            _ => None,
        };
        // A remembered final form the ledger still holds is a cache
        // hit found without producing the form.
        if let (Some(a), Some(cache)) = (&attempt, &self.cache) {
            if let Some((id, full_size)) = self.memo.encoded(&a.ident) {
                if cache.ledger.lru().contains(id) {
                    self.stats.codec_skipped_bytes += a.len;
                    let shared = plane.is_some().then_some(full_size);
                    return Some(Formed::Settled(self.cache_ref(id, full_size, shared)));
                }
            }
        }
        let slot = match (plane, ident) {
            (Some(plane), Some((key, data))) => plane.slot_keyed(key, data),
            _ => None,
        };
        let mut fresh = false;
        let form = match slot.as_deref().and_then(PlaneSlot::form) {
            Some(form) => {
                if let Some(a) = &attempt {
                    self.stats.codec_skipped_bytes += a.len;
                }
                form.clone()
            }
            None => {
                // When the uncompressed frame cannot ship, a compressed
                // one is of use only if it fits the pipe, or is no
                // bigger than something the ledger holds (it may be a
                // hit, which ships as a reference).
                let mut free = true;
                if let Some(a) = &mut attempt {
                    if cmd.wire_size() > writable {
                        let largest_held =
                            self.cache.as_ref().map_or(0, |c| c.ledger.lru().max_entry_bytes());
                        let reach =
                            writable.max(largest_held).saturating_sub(RAW_FRAME_OVERHEAD);
                        free = a.cap <= reach;
                        a.cap = a.cap.min(reach);
                    }
                }
                match slot.as_deref() {
                    // A bound that does not depend on this client's
                    // pipe always settles the form, as a pure function
                    // of the command: produce it inside the slot, so
                    // it is produced once however many clients race.
                    Some(slot) if free => slot
                        .form_or_init(|| {
                            fresh = true;
                            self.full_form(cmd, attempt, Some(slot))
                                .expect("a payload-beating bound always settles the form")
                        })
                        .clone(),
                    Some(slot) => {
                        let form = self.full_form(cmd, attempt, Some(slot))?;
                        slot.form_or_init(|| {
                            fresh = true;
                            form
                        })
                        .clone()
                    }
                    None => self.full_form(cmd, attempt, None)?,
                }
            }
        };
        if fresh {
            counters.encodes += 1;
            counters.encoded_bytes += form.size;
        }
        Some(Formed::Form(PlannedForm {
            shared: slot.is_some().then_some(form.size),
            owed: attempt.map(|a| (a.ident, a.len)),
            form,
        }))
    }

    /// Takes a form from the class's flush plan in place of
    /// [`form_for`](Self::form_for), charged what finding it in its
    /// plane slot would have been.
    pub(super) fn adopt(&mut self, planned: &PlannedForm) -> Formed {
        self.stats.codec_skipped_bytes += planned.owed.map_or(0, |(_, len)| len);
        Formed::Form(planned.clone())
    }

    /// This viewer's wire message for a form: the form itself, with a
    /// ledger insert owed when it is cacheable, or the reference to it
    /// when the ledger says the client holds it.
    pub(super) fn settle(&mut self, formed: Formed) -> Wire {
        let PlannedForm { form, shared, owed } = match formed {
            Formed::Form(planned) => planned,
            Formed::Settled(wire) => return wire,
        };
        let (Some(cache), Some(id)) = (&self.cache, form.id) else {
            return Wire { msg: form.msg, size: form.size, commit: CacheCommit::None, shared };
        };
        if let Some((ident, _)) = owed {
            let ledger = &cache.ledger;
            self.memo.learn_encoded(ident, id, form.size, |id| ledger.lru().contains(id));
        }
        if cache.ledger.lru().contains(id) {
            self.cache_ref(id, form.size, shared)
        } else {
            Wire { msg: form.msg, size: form.size, commit: CacheCommit::Insert { id }, shared }
        }
    }

    /// The `CacheRef` standing in for a full form of `full_size` wire
    /// bytes the client already holds as ledger entry `id` — the one
    /// moment the server needs the entry's name.
    fn cache_ref(&self, id: u64, full_size: u64, shared: Option<u64>) -> Wire {
        let ledger = &self.cache.as_ref().expect("a ref is only prepared with a ledger").ledger;
        let hash = ledger.name(id).expect("a ref is only prepared for a held entry");
        let msg = Message::CacheRef { hash };
        let size = msg.wire_size();
        Wire { msg, size, commit: CacheCommit::Hit { id, saved: full_size - size }, shared }
    }

    /// The full wire form of a command: emitted message, encoded frame
    /// size, cache identity. With no `attempt` the command ships as it is.
    /// With one, the payload is compressed within `attempt.cap` bytes:
    /// a stream that fits is the form; one that does not leaves the
    /// uncompressed command as the form when the cap was the
    /// payload-beating bound, and otherwise `None` (nothing whole can
    /// ship). A pure function of the command and the cap — scratch,
    /// memo and slot only provide storage and skip work — which is what
    /// lets a [`WirePlane`] share the result across clients.
    fn full_form(
        &mut self,
        cmd: &DisplayCommand,
        attempt: Option<Attempt>,
        slot: Option<&PlaneSlot>,
    ) -> Option<WireForm> {
        let mut msg = None;
        if let (Some(a), DisplayCommand::Raw { rect, data, .. }) = (attempt, cmd) {
            let known = self.memo.exceeds(&a.ident).max(slot.map_or(0, PlaneSlot::exceeds));
            if known >= a.cap {
                self.stats.codec_skipped_bytes += a.len;
            } else {
                let stride = rect.w as usize * a.bpp;
                let packed = thinc_compress::pnglike::compress_bounded(
                    data,
                    a.bpp,
                    stride,
                    a.cap as usize,
                    &mut self.scratch,
                )
                .map(|packed| thinc_protocol::Bytes::from(packed.to_vec()));
                self.stats.codec_input_bytes += self.scratch.consumed() as u64;
                match packed {
                    Some(data) => {
                        msg = Some(Message::Display(DisplayCommand::Raw {
                            rect: *rect,
                            encoding: RawEncoding::PngLike,
                            data,
                        }));
                    }
                    None => {
                        self.memo.learn_exceeds(a.ident, a.cap);
                        if let Some(slot) = slot {
                            slot.learn_exceeds(a.cap);
                        }
                    }
                }
            }
            if msg.is_none() && a.cap < a.len - 1 {
                return None;
            }
        }
        let msg = msg.unwrap_or_else(|| Message::Display(cmd.clone()));
        // Sized by arithmetic and identified where it lies; the wire
        // key's FNV waits until a reference needs the name.
        Some(WireForm { size: msg.wire_size(), id: cache_id(&msg), msg })
    }

    /// The retained compress-everything `prepare_wire`: every eligible
    /// RAW is compressed whole before anything is decided. Kept
    /// verbatim as the reference the fit-first path is tested against
    /// (same idiom as `thinc_raster::reference`).
    #[cfg(test)]
    fn reference_prepare_wire(
        &mut self,
        cmd: DisplayCommand,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Wire {
        let (full, full_size, id, shared) = match plane.and_then(|p| p.slot(&cmd)) {
            Some(slot) => {
                let mut fresh = false;
                let form = slot.form_or_init(|| {
                    fresh = true;
                    self.reference_compute_form(cmd)
                });
                let (msg, size, id) = (form.msg.clone(), form.size, form.id);
                if fresh {
                    counters.encodes += 1;
                    counters.encoded_bytes += size;
                }
                (msg, size, id, Some(size))
            }
            None => {
                let form = self.reference_compute_form(cmd);
                (form.msg, form.size, form.id, None)
            }
        };
        let (Some(cache), Some(id)) = (&self.cache, id) else {
            return Wire { msg: full, size: full_size, commit: CacheCommit::None, shared };
        };
        if cache.ledger.lru().contains(id) {
            self.cache_ref(id, full_size, shared)
        } else {
            Wire { msg: full, size: full_size, commit: CacheCommit::Insert { id }, shared }
        }
    }

    #[cfg(test)]
    fn reference_compute_form(&mut self, cmd: DisplayCommand) -> WireForm {
        let mut full = Message::Display(cmd);
        if let (Some(bpp), Message::Display(DisplayCommand::Raw { rect, encoding: RawEncoding::None, data })) =
            (self.raw_compress_bpp, &full)
        {
            if data.len() >= COMPRESS_MIN_PAYLOAD {
                let stride = rect.w as usize * bpp;
                let packed =
                    thinc_compress::pnglike::compress_with(data, bpp, stride, &mut self.scratch);
                if packed.len() < data.len() {
                    full = Message::Display(DisplayCommand::Raw {
                        rect: *rect,
                        encoding: RawEncoding::PngLike,
                        data: packed.to_vec().into(),
                    });
                }
            }
        }
        let size = thinc_protocol::wire::encode_message(&full).len() as u64;
        WireForm { id: cache_id(&full), msg: full, size }
    }

    /// Applies the ledger update owed for a message just sent: bump
    /// and count a reference hit, or register a full payload the
    /// client now holds. Insertion order here matches the client
    /// store's receive order, which is what keeps the two LRUs
    /// mirrored.
    fn cache_commit(&mut self, msg: &Message, size: u64, commit: CacheCommit) {
        let Some(cache) = self.cache.as_mut() else {
            return;
        };
        match commit {
            CacheCommit::None => {}
            CacheCommit::Hit { id, saved } => {
                cache.ledger.touch(id);
                cache.hits += 1;
                cache.bytes_saved += saved;
            }
            CacheCommit::Insert { id } => {
                cache.ledger.insert(id, size, msg.clone());
            }
        }
    }

    /// Commits a prepared message to the pipe and settles everything
    /// owed for it: trace, delivery and plane accounting, the ledger.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn ship(
        &mut self,
        wire: Wire,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        wait_us: u64,
        counters: &mut PlaneCounters,
        out: &mut Vec<(SimTime, Message)>,
    ) {
        let (_, arrival) = pipe.send(now, wire.size);
        trace.record(now, arrival, wire.size, Direction::Down, "update");
        self.stats.sent_messages += 1;
        self.stats.sent_bytes += wire.size;
        self.scheduler_metrics.record_flush_latency_us(wait_us);
        // `wire.size` is the message's encoded size: `record_message`
        // would encode it again to measure it — a copy of the payload
        // per viewer per message, most of what `ship` used to cost.
        debug_assert_eq!(wire.size, wire.msg.wire_size());
        self.protocol_metrics
            .record(thinc_protocol::telemetry::command_kind(&wire.msg), wire.size);
        if let Some(full) = wire.shared {
            counters.shared_sends += 1;
            counters.shared_bytes += full;
        }
        self.cache_commit(&wire.msg, wire.size, wire.commit);
        out.push((arrival, wire.msg));
    }

    /// Ships the miss fallbacks owed, ahead of the command queues: a
    /// client waiting on an unresolved reference is blocked on exactly
    /// these payloads. Returns `false` when the pipe filled up first.
    pub(super) fn ship_fallbacks(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        out: &mut Vec<(SimTime, Message)>,
    ) -> bool {
        while let Some(msg) = self.cache.as_ref().and_then(|c| c.fallbacks.front()) {
            let size = msg.wire_size();
            if pipe.would_block(now, size) {
                return false;
            }
            let msg = self
                .cache
                .as_mut()
                .and_then(|c| c.fallbacks.pop_front())
                .expect("fallback peeked above");
            let (_, arrival) = pipe.send(now, size);
            trace.record(now, arrival, size, Direction::Down, "cache");
            self.stats.sent_messages += 1;
            self.stats.sent_bytes += size;
            self.protocol_metrics.record(thinc_protocol::telemetry::command_kind(&msg), size);
            // Identified only once it ships: the id is a pass over the
            // payload.
            if let Some(id) = cache_id(&msg) {
                self.cache_commit(&msg, size, CacheCommit::Insert { id });
            }
            out.push((arrival, msg));
        }
        true
    }

    /// Drops the cache ledger's entries and any queued miss fallbacks
    /// (lifetime counters survive). Cold reconnect clears the client's
    /// store, so the mirrored-LRU invariant only holds if the ledger
    /// is cleared in the same breath.
    pub fn reset_cache(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.ledger.clear();
            cache.fallbacks.clear();
        }
    }
}
