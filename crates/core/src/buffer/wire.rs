//! Wire preparation: what a buffered command looks like on the wire.
//!
//! At flush time a command becomes its full wire form — compressed
//! lazily, bounded by what can be of use ("fit first"), and taken from
//! or taught to the session's content-keyed [`FormStore`], which every
//! viewer's flush shares — or, when this viewer's content-cache ledger
//! says the client already holds those exact bytes, a compact
//! [`Message::CacheRef`]. Shipping a prepared message settles
//! everything owed for it: trace, delivery and plane accounting, the
//! ledger.

use thinc_compress::pnglike::GaveUp;
use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::cache::{cache_id, ContentStore};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::RAW_FRAME_OVERHEAD;
use thinc_telemetry::ResilienceMetrics;

use super::ClientBuffer;
use crate::plane::{plane_key, Facts, FormStore, PlaneCounters, PlaneKey, PlannedForm, WireForm};

/// Server-side per-client content-cache state (protocol revision 3).
///
/// The ledger holds every cacheable payload this buffer has actually
/// committed to the wire, under its frame identity, so a
/// [`Message::CacheRef`] is only ever emitted for content the client
/// was given. An entry is named — its wire hash computed — only when a
/// reference or a reported miss needs the name. See `docs/CACHE.md`
/// for the consistency model.
#[derive(Debug)]
pub(super) struct CacheEngine {
    pub(super) ledger: ContentStore,
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
    /// Frame size of the full form when the form store stands behind
    /// it (plane accounting at send time).
    shared: Option<u64>,
}

/// The compress attempt owed to an uncompressed RAW at flush time.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    /// Content identity of the payload (the store's key).
    ident: PlaneKey,
    /// Bytes per pixel of the session format.
    bpp: usize,
    /// Payload length.
    len: u64,
    /// Longest compressed payload that is of any use: `len - 1` (any
    /// stream that beats the payload) unless the pipe tightens it.
    cap: u64,
}

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
                hits: 0,
                misses: 0,
                bytes_saved: 0,
            });
        }
    }

    /// Turns the ledger off (a peer that cannot resolve references
    /// announced itself); a later [`enable_cache`](Self::enable_cache)
    /// starts an empty one.
    pub(crate) fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// Whether the cache ledger is active.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Takes in a client-reported cache miss: the client does not hold
    /// the entry, so the ledger forgets it, and a repaint of unchanged
    /// pixels ships in full rather than as the same dangling reference.
    /// A name the ledger does not hold (both sides evicted it, or it
    /// never existed) is counted all the same.
    pub fn forget_missed(&mut self, hash: u64) {
        let Some(cache) = self.cache.as_mut() else { return };
        cache.misses += 1;
        if let Some(id) = cache.ledger.find(hash) {
            cache.ledger.forget(id);
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
    ///
    /// `cut_from` is as for [`form_for`](Self::form_for).
    pub(super) fn prepare_wire(
        &mut self,
        cmd: &DisplayCommand,
        writable: u64,
        store: &mut FormStore,
        counters: &mut PlaneCounters,
        cut_from: Option<GaveUp>,
    ) -> Option<Wire> {
        self.form_for(cmd, writable, store, counters, cut_from, &mut None)
            .map(|formed| self.settle(formed))
    }

    /// The full wire form of `cmd`, as far as `writable` bytes of pipe
    /// space make it worth producing (`None`: nothing whole can ship).
    ///
    /// **The store first.** A form the session's [`FormStore`] knows —
    /// produced this round by any viewer, or kept from an earlier one —
    /// is the form, and the codec is not asked. Whether it ships whole,
    /// as a reference or not at all is [`settle`](Self::settle)'s and
    /// the pipe's to say, exactly as for a form just encoded.
    ///
    /// **Fit first.** Otherwise the form is encoded. The only
    /// compressed form ever used is one shorter than the payload and,
    /// when the uncompressed frame does not fit the pipe, only one that
    /// does fit (or that the ledger could hold) — so the encode is
    /// bounded by those sizes and gives up the moment its stream passes
    /// them, instead of compressing the whole payload to learn a size
    /// it then discards. A give-up is learnt by the store, so a repeat
    /// under a bound no larger reaches the same decision without the
    /// codec; a form is learnt whole. The decision itself is a pure
    /// function of command, pipe space and ledger: the store only ever
    /// skips work, and a form that comes back at all is the same form
    /// whatever the pipe space was.
    ///
    /// **One parse per photo row.** A bounded encode of `cmd` that
    /// gives up leaves where it stopped in `gave_up`; when the flush
    /// then cuts a head from `cmd`, it hands that back as the head's
    /// `cut_from`, and a head it [covers](GaveUp::covers) is known to
    /// give up without the codec reading it again.
    pub(super) fn form_for(
        &mut self,
        cmd: &DisplayCommand,
        writable: u64,
        store: &mut FormStore,
        counters: &mut PlaneCounters,
        cut_from: Option<GaveUp>,
        gave_up: &mut Option<GaveUp>,
    ) -> Option<PlannedForm> {
        #[cfg(test)]
        if self.reference_prepare {
            return Some(self.reference_form(cmd.clone(), store));
        }
        let keyed = plane_key(cmd);
        let mut attempt = match (self.raw_compress_bpp, cmd, keyed) {
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
        // `None`: no identity, or a collision with this round's pin.
        let mut facts = keyed.and_then(|(key, data)| store.pinned(key, data));
        let shared = facts.is_some();
        let form = match facts.as_deref().and_then(|facts| facts.form(cmd)) {
            Some(form) => {
                if let Some(a) = &attempt {
                    self.stats.codec_skipped_bytes += a.len;
                }
                form
            }
            None => {
                // When the uncompressed frame cannot ship, a compressed
                // one is of use only if it fits the pipe, or is no
                // bigger than something the ledger holds (it may be a
                // hit, which ships as a reference).
                if let Some(a) = &mut attempt {
                    if cmd.wire_size() > writable {
                        let largest_held =
                            self.cache.as_ref().map_or(0, |c| c.ledger.lru().max_entry_bytes());
                        let reach =
                            writable.max(largest_held).saturating_sub(RAW_FRAME_OVERHEAD);
                        a.cap = a.cap.min(reach);
                    }
                }
                let form = self.full_form(cmd, attempt, facts.as_deref_mut(), cut_from, gave_up)?;
                if let Some(facts) = facts {
                    facts.learn_form(&form, attempt.is_some());
                    counters.encodes += 1;
                    counters.encoded_bytes += form.size;
                }
                form
            }
        };
        Some(PlannedForm {
            shared: shared.then_some(form.size),
            owed: attempt.map(|a| (a.ident, a.len)),
            form,
        })
    }

    /// Takes a form from the class's flush plan in place of
    /// [`form_for`](Self::form_for), charged and marked in the store as
    /// finding it there would have been.
    pub(super) fn adopt(&mut self, planned: &PlannedForm, store: &mut FormStore) -> PlannedForm {
        if let Some((ident, len)) = planned.owed {
            self.stats.codec_skipped_bytes += len;
            store.touch(&ident);
        }
        planned.clone()
    }

    /// This viewer's wire message for a form: the form itself, with a
    /// ledger insert owed when it is cacheable, or the reference to it
    /// when the ledger says the client holds it.
    pub(super) fn settle(&mut self, planned: PlannedForm) -> Wire {
        let PlannedForm { form, shared, .. } = planned;
        let (Some(cache), Some(id)) = (&self.cache, form.id) else {
            return Wire { msg: form.msg, size: form.size, commit: CacheCommit::None, shared };
        };
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
    /// `facts` and `cut_from` only provide storage and skip work —
    /// which is what lets the store share the result across clients
    /// and rounds. A give-up, found or known from `cut_from`, is learnt
    /// into `facts`.
    fn full_form(
        &mut self,
        cmd: &DisplayCommand,
        attempt: Option<Attempt>,
        facts: Option<&mut Facts>,
        cut_from: Option<GaveUp>,
        gave_up: &mut Option<GaveUp>,
    ) -> Option<WireForm> {
        let mut msg = None;
        if let (Some(a), DisplayCommand::Raw { rect, data, .. }) = (attempt, cmd) {
            let stride = rect.w as usize * a.bpp;
            let known = facts.as_deref().is_some_and(|facts| facts.exceeds() >= a.cap);
            if known || cut_from.is_some_and(|g| g.covers(data.len() / stride, a.cap as usize)) {
                self.stats.codec_skipped_bytes += a.len;
            } else {
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
                    None => *gave_up = self.scratch.gave_up(),
                }
            }
            if msg.is_none() {
                if let Some(facts) = facts {
                    facts.learn_exceeds(a.cap);
                }
                if a.cap < a.len - 1 {
                    return None;
                }
            }
        }
        let msg = msg.unwrap_or_else(|| Message::Display(cmd.clone()));
        // Sized by arithmetic and identified where it lies; the wire
        // key's FNV waits until a reference needs the name.
        Some(WireForm { size: msg.wire_size(), id: cache_id(&msg), msg })
    }

    /// The retained compress-everything form: every eligible RAW is
    /// compressed whole before anything is decided, and nothing is
    /// looked up. Kept verbatim as the reference the fit-first path is
    /// tested against (same idiom as `thinc_raster::reference`); the
    /// store is asked only whether it would stand behind the form.
    #[cfg(test)]
    fn reference_form(&mut self, cmd: DisplayCommand, store: &mut FormStore) -> PlannedForm {
        let shared = plane_key(&cmd).and_then(|(key, data)| store.pinned(key, data)).is_some();
        let form = self.reference_compute_form(cmd);
        PlannedForm { shared: shared.then_some(form.size), owed: None, form }
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

    /// Drops the cache ledger's entries (lifetime counters survive).
    /// Cold reconnect clears the client's store, so the mirrored-LRU
    /// invariant only holds if the ledger is cleared in the same
    /// breath.
    pub fn reset_cache(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.ledger.clear();
        }
    }
}
