//! The per-client command buffer with SRSF delivery (§5).
//!
//! The buffer combines the command-queue eviction/merge semantics of
//! §4 with the multi-queue scheduler of §5 and the non-blocking flush
//! pipeline: commands are committed to the (simulated) socket only as
//! buffer space allows, large `RAW` updates are split on demand, and
//! everything left over stays buffered — where later drawing may still
//! evict it ("the client buffer ensures that outdated commands are
//! automatically evicted").

use std::collections::VecDeque;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::{Direction, PacketTrace};
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_protocol::wire::encode_message_into;
use thinc_raster::Region;
pub use thinc_telemetry::BufferStats;
use thinc_telemetry::{ProtocolMetrics, ResilienceMetrics, SchedulerMetrics};

use crate::memo::EncodeMemo;
use crate::plane::{plane_key, PlaneCounters, PlaneKey, PlaneSlot, WireForm, WirePlane};
use crate::queue::{classify, clip_command, OverwriteClass};
use crate::scheduler::{creates_dependency, place, queue_index, QueueSlot, NUM_QUEUES};

/// Server-side per-client content-cache state (protocol revision 3).
///
/// The ledger maps content hash → full message for every cacheable
/// payload this buffer has actually committed to the wire, so a
/// [`Message::CacheRef`] is only ever emitted for content the client
/// was given, and a reported miss can be answered with the byte-exact
/// original. See `docs/CACHE.md` for the consistency model.
#[derive(Debug)]
struct CacheEngine {
    ledger: thinc_protocol::cache::CacheLru<Message>,
    /// Byte-exact full payloads owed to reported misses, delivered
    /// ahead of the command queues at the next flush.
    fallbacks: VecDeque<Message>,
    hits: u64,
    misses: u64,
    bytes_saved: u64,
}

/// Ledger update owed once a flush-time message actually sends.
#[derive(Debug, Clone, Copy)]
enum CacheCommit {
    /// Not cacheable (or cache disabled): nothing owed.
    None,
    /// A reference was substituted: bump the entry, count the hit.
    Hit {
        /// Content hash of the referenced entry.
        key: u64,
        /// Wire bytes the substitution saved.
        saved: u64,
    },
    /// A cacheable full payload went out: the client now holds it.
    Insert {
        /// Content hash of the sent payload.
        key: u64,
    },
}

/// A command made ready for the wire at flush time.
#[derive(Debug)]
struct Wire {
    /// What goes on the wire: the full form or its `CacheRef`.
    msg: Message,
    /// Encoded frame size of `msg`.
    size: u64,
    /// Ledger update owed once `msg` is committed to the pipe.
    commit: CacheCommit,
    /// Frame size of the full form when a [`WirePlane`] slot stands
    /// behind it (plane accounting at send time).
    shared: Option<u64>,
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
const RAW_FRAME_OVERHEAD: u64 = thinc_protocol::commands::COMMAND_HEADER_BYTES + 16 + 1 + 4;

/// RAW payloads below this are sent as they are: compressing them
/// saves less than it costs.
const COMPRESS_MIN_PAYLOAD: usize = 1024;

/// One command waiting in the buffer.
#[derive(Debug, Clone)]
struct Entry {
    seq: u64,
    cmd: DisplayCommand,
    class: OverwriteClass,
    visible: Region,
    slot: QueueSlot,
    /// Virtual time the original drawing entered the buffer (split
    /// remainders inherit it, so flush latency spans the whole wait).
    enqueued: SimTime,
}

/// How many leading rows of [`BufferStats`] the checkpoint record
/// carries (`pushed` … `overflow_evicted`); the codec-work rows after
/// them were never checkpointed.
const CHECKPOINTED_STATS: usize = 7;

/// The per-client buffer: eviction + SRSF scheduling + flush.
#[derive(Debug, Default)]
pub struct ClientBuffer {
    entries: Vec<Entry>,
    realtime: VecDeque<u64>,
    queues: [VecDeque<u64>; NUM_QUEUES],
    next_seq: u64,
    stats: BufferStats,
    /// Compress RAW payloads at emission when it helps (bpp of the
    /// session format; `None` disables compression).
    raw_compress_bpp: Option<usize>,
    /// Ablation switch: deliver strictly in arrival order instead of
    /// SRSF (trivially order-safe; used to measure what the
    /// multi-queue scheduler buys).
    fifo: bool,
    /// Virtual time of the latest `set_time` call; stamps entries for
    /// enqueue-to-wire latency.
    clock: SimTime,
    /// Scheduler telemetry: queue depths and flush latency.
    scheduler_metrics: SchedulerMetrics,
    /// Per-command wire accounting for the display path.
    protocol_metrics: ProtocolMetrics,
    /// Hard cap on buffered wire bytes (`None` = unbounded). Pushing
    /// past the cap evicts buffered commands, largest-queue first,
    /// recording their footprint as overflow debt.
    byte_bound: Option<u64>,
    /// Screen area owed a refresh because commands covering it were
    /// evicted for overflow. The owner (the server) converts this into
    /// fresh RAW updates from its authoritative screen.
    overflow_debt: Region,
    /// Degradation knob: divisor applied to the byte bound while the
    /// session is degraded (0 behaves as 1 — no tightening).
    degrade_bound_divisor: u64,
    /// Degradation knob: when set, overflow eviction prefers RAW
    /// victims over the compact SFILL/PFILL/COPY commands.
    degrade_raw_first: bool,
    /// Reusable compression buffers: flush-time RAW compression of
    /// one command after another reuses the filter intermediate and
    /// the output stream instead of reallocating per command.
    scratch: thinc_compress::Scratch,
    /// What earlier encodes found out, by content identity, so a
    /// repeat reaches the same decision without the codec. A pure
    /// cache like `scratch`: never consulted for *what* to send, not
    /// checkpointed, empty until a RAW is first compressed.
    memo: EncodeMemo,
    /// Test switch: prepare commands the retained compress-everything
    /// way, the reference the fit-first path must match byte for byte.
    #[cfg(test)]
    reference_prepare: bool,
    /// Reusable wire-encoding buffer: sizing and framing one message
    /// after another reuses this allocation instead of building a
    /// fresh `Vec` per message.
    encode_buf: Vec<u8>,
    /// Content-addressed cache ledger (`None` until the handshake
    /// negotiates protocol revision 3 and the owner enables it).
    cache: Option<CacheEngine>,
}

impl ClientBuffer {
    /// An empty buffer with RAW compression disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables PNG-like compression of RAW payloads at emission time
    /// (`bpp` = bytes per pixel of the session pixel format).
    pub fn with_raw_compression(mut self, bpp: usize) -> Self {
        self.raw_compress_bpp = Some(bpp);
        self
    }

    /// Replaces SRSF with strict arrival-order delivery (ablation).
    pub fn with_fifo_scheduling(mut self) -> Self {
        self.fifo = true;
        self
    }

    /// Caps buffered wire bytes at `bytes`. When a push would exceed
    /// the cap, buffered commands are evicted — largest size queue
    /// first, oldest within a queue — and their screen footprint
    /// accumulates as *overflow debt* for the owner to repay with a
    /// fresh-screen refresh ([`take_overflow_debt`]
    /// (Self::take_overflow_debt)). Memory stays bounded no matter how
    /// far the network falls behind; the screen degrades gracefully
    /// (a region refreshes late, with final content) instead of the
    /// session dying or the server bloating.
    pub fn with_byte_bound(mut self, bytes: u64) -> Self {
        self.byte_bound = Some(bytes);
        self
    }

    /// The configured byte cap, if any.
    pub fn byte_bound(&self) -> Option<u64> {
        self.byte_bound
    }

    /// Enables the content-addressed cache ledger (protocol revision
    /// 3) with the given byte budget. Called by the owner once the
    /// handshake lands on a revision that speaks cache references; the
    /// budget must match the client store's for the eviction mirror to
    /// hold (see `docs/CACHE.md`).
    pub fn enable_cache(&mut self, budget: u64) {
        if self.cache.is_none() {
            self.cache = Some(CacheEngine {
                ledger: thinc_protocol::cache::CacheLru::new(budget),
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
        if let Some(msg) = cache.ledger.peek(hash) {
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
            m.cache_evictions = c.ledger.evictions();
            m.cache_bytes_saved = c.bytes_saved;
        }
        m
    }

    /// The byte cap currently enforced: the configured bound divided
    /// by the degradation divisor (never below one wire message's
    /// practical floor of 1 byte).
    pub fn effective_byte_bound(&self) -> Option<u64> {
        self.byte_bound
            .map(|b| (b / self.degrade_bound_divisor.max(1)).max(1))
    }

    /// Applies (or releases) degradation pressure: `bound_divisor`
    /// tightens the byte bound, `raw_first` switches overflow
    /// eviction to prefer RAW victims. A tightened bound is enforced
    /// immediately — standing backlog over the new cap becomes
    /// refresh debt right away.
    pub fn set_degradation(&mut self, bound_divisor: u64, raw_first: bool) {
        self.degrade_bound_divisor = bound_divisor.max(1);
        self.degrade_raw_first = raw_first;
        self.enforce_byte_bound();
    }

    /// Takes the screen region owed a refresh by overflow evictions,
    /// leaving it empty. The owner converts it into RAW updates from
    /// the authoritative screen content.
    pub fn take_overflow_debt(&mut self) -> Region {
        std::mem::take(&mut self.overflow_debt)
    }

    /// Whether overflow evictions have left unpaid refresh debt.
    pub fn has_overflow_debt(&self) -> bool {
        !self.overflow_debt.is_empty()
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Advances the buffer's notion of virtual time. Commands pushed
    /// after this call are stamped with `now` for enqueue-to-wire
    /// latency accounting.
    pub fn set_time(&mut self, now: SimTime) {
        if now > self.clock {
            self.clock = now;
        }
    }

    /// Scheduler telemetry: per-band queue depths and flush latency.
    pub fn scheduler_metrics(&self) -> &SchedulerMetrics {
        &self.scheduler_metrics
    }

    /// Per-command wire accounting: display messages sent by this
    /// buffer, plus whatever its owner sent beside it
    /// ([`record_sent`](Self::record_sent)).
    pub fn protocol_metrics(&self) -> &ProtocolMetrics {
        &self.protocol_metrics
    }

    /// Accounts a message the owner put on the wire beside the display
    /// queues (audio, video, cursor, control), so one breakdown covers
    /// the whole stream.
    pub(crate) fn record_sent(&mut self, msg: &Message) {
        thinc_protocol::telemetry::record_message(&mut self.protocol_metrics, msg);
    }

    /// Number of commands waiting.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total buffered wire bytes (uncompressed estimate).
    pub fn pending_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.cmd.wire_size()).sum()
    }

    fn entry_pos(&self, seq: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.seq == seq)
    }

    /// Pushes a display command for delivery, then enforces the byte
    /// bound (if configured) by evicting overflow into refresh debt.
    pub fn push(&mut self, cmd: DisplayCommand, realtime: bool) {
        self.push_unbounded(cmd, realtime);
        self.enforce_byte_bound();
    }

    /// Pushes without bound enforcement. Used for refresh commands
    /// that *repay* overflow debt: evicting those for overflow again
    /// would loop; their total is bounded by one screenful anyway.
    pub(crate) fn push_unbounded(&mut self, cmd: DisplayCommand, realtime: bool) {
        self.stats.pushed += 1;
        let class = classify(&cmd);
        let dest = cmd.dest_rect();
        // Regions still *read* by queued COPY commands must not be
        // evicted or clipped out from under them: the copy needs its
        // source content delivered first (the overwriter is ordered
        // after the copy by the dependency rule below, so keeping the
        // full command is correct, merely unclipped).
        let mut protected = Region::new();
        for e in &self.entries {
            if let DisplayCommand::Copy { src_rect, .. } = &e.cmd {
                protected.union_rect(src_rect);
            }
        }
        // Eviction pass (opaque newcomers overwrite).
        if matches!(class, OverwriteClass::Complete | OverwriteClass::Partial) && !dest.is_empty()
        {
            let mut cover = Region::from_rect(dest);
            cover.subtract(&protected);
            let mut dead = Vec::new();
            for e in &mut self.entries {
                // Any exactly-clippable opaque command — partial by
                // class, or a solid fill — is clipped to its still-
                // visible remainder; everything else is only evicted
                // when fully covered (unclippable survivors are kept
                // ordered by the dependency rule below).
                let clippable = matches!(e.class, OverwriteClass::Partial)
                    || (e.class == OverwriteClass::Complete
                        && crate::queue::exactly_clippable(&e.cmd));
                if clippable {
                    e.visible.subtract(&cover);
                    if e.visible.is_empty() {
                        dead.push(e.seq);
                    }
                } else if cover.contains_rect(&e.cmd.dest_rect()) {
                    dead.push(e.seq);
                }
            }
            for seq in dead {
                self.remove_entry(seq);
                self.stats.evicted += 1;
            }
        }
        // Merge with the newest live entry when compatible and in the
        // same delivery class.
        if let Some(last) = self.entries.last_mut() {
            let same_rt = matches!(last.slot, QueueSlot::Realtime) == realtime;
            if same_rt {
                if let Some(merged) = crate::queue::merge_commands(&last.cmd, &cmd) {
                    self.stats.merged += 1;
                    let old_slot = last.slot;
                    last.cmd = merged;
                    last.visible = Region::from_rect(last.cmd.dest_rect());
                    last.class = classify(&last.cmd);
                    // Re-slot for the (larger) merged size.
                    let seq = last.seq;
                    let new_slot = match old_slot {
                        QueueSlot::Realtime => QueueSlot::Realtime,
                        QueueSlot::Normal(q) => {
                            QueueSlot::Normal(q.max(queue_index(last.cmd.wire_size())))
                        }
                    };
                    if new_slot != old_slot {
                        last.slot = new_slot;
                        self.requeue(seq, old_slot, new_slot);
                    }
                    return;
                }
            }
        }
        // Dependency placement. Overlap is computed over the
        // commands' dependency regions (destination, plus COPY's
        // source), so an overwriter of a copy's source is ordered
        // behind the copy, and a copy is ordered behind whatever drew
        // its source.
        let transparent = class == OverwriteClass::Transparent;
        let my_rects = crate::queue::dependency_rects(&cmd);
        // A dependency may itself sit in a later queue than its size
        // suggests (it was displaced by its own dependencies), so the
        // placement bound is the maximum dependency *slot*, which is
        // at least as late as the paper's largest-dependency rule.
        let mut max_dep_slot: Option<QueueSlot> = None;
        for e in &self.entries {
            let e_transparent = e.class == OverwriteClass::Transparent;
            let e_rects = crate::queue::dependency_rects(&e.cmd);
            // Two conditions force ordering:
            // 1. the paper's transparent rule, over dependency regions
            //    (destination plus COPY source);
            // 2. the earlier entry *still draws* pixels this command
            //    touches or reads — true for unclippable opaque
            //    commands and for partial commands whose footprint was
            //    kept alive by COPY-source protection. Fully clipped
            //    entries have disjoint output, so reordering is safe.
            let depends = my_rects.iter().any(|a| {
                e_rects
                    .iter()
                    .any(|b| creates_dependency(transparent, e_transparent, a, b))
                    || e.visible.intersects_rect(a)
            });
            if depends {
                max_dep_slot = Some(match (max_dep_slot, e.slot) {
                    (None, s) => s,
                    (Some(QueueSlot::Realtime), s) | (Some(s), QueueSlot::Realtime) => s,
                    (Some(QueueSlot::Normal(a)), QueueSlot::Normal(b)) => {
                        QueueSlot::Normal(a.max(b))
                    }
                });
            }
        }
        let slot = if self.fifo {
            // Single queue, strict arrival order.
            QueueSlot::Normal(NUM_QUEUES - 1)
        } else {
            place(cmd.wire_size(), realtime, max_dep_slot)
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push(Entry {
            seq,
            cmd,
            class,
            visible: Region::from_rect(dest),
            slot,
            enqueued: self.clock,
        });
        match slot {
            QueueSlot::Realtime => self.realtime.push_back(seq),
            QueueSlot::Normal(q) => self.queues[q].push_back(seq),
        }
        match slot {
            QueueSlot::Normal(q) => {
                self.scheduler_metrics
                    .sample_depth(q, self.queues[q].len(), self.realtime.len());
            }
            QueueSlot::Realtime => {
                self.scheduler_metrics
                    .sample_realtime_depth(self.realtime.len());
            }
        }
    }

    /// Drops every pending command, returning the union of their
    /// still-visible destination footprints — in the coordinate space
    /// the commands were pushed in. Used when the scale policy
    /// changes mid-flight: buffered commands target the outgoing
    /// space (and scaling may even have rewritten their overwrite
    /// class, e.g. an opaque BITMAP resampled into RAW), so flushing
    /// them under the new scale would paint the wrong regions. The
    /// caller converts the returned footprint into refresh debt.
    pub(crate) fn drop_pending_for_rescale(&mut self) -> Region {
        let mut footprint = Region::new();
        for e in &self.entries {
            footprint.union(&e.visible);
        }
        self.entries.clear();
        // Queue deques are cleaned lazily at pop time.
        //
        // Queued miss fallbacks are dropped too: they carry payloads
        // captured in the outgoing coordinate space, and unlike the
        // command queues they would otherwise survive the rescale and
        // ship wrong-space pixels after it. Dropping is safe on both
        // axes: the client never blocks on an unanswered miss (the
        // refresh owed by the rescale repaints the content), and the
        // ledger/store mirror is untouched because the ledger insert
        // for a fallback happens only when it is actually sent.
        if let Some(cache) = self.cache.as_mut() {
            cache.fallbacks.clear();
        }
        footprint
    }

    fn remove_entry(&mut self, seq: u64) {
        if let Some(pos) = self.entry_pos(seq) {
            self.entries.remove(pos);
        }
        // Queue deques are cleaned lazily at pop time.
    }

    /// Evicts buffered commands until pending bytes fit the bound,
    /// converting every evicted footprint into overflow debt.
    fn enforce_byte_bound(&mut self) {
        let Some(bound) = self.effective_byte_bound() else {
            return;
        };
        while self.pending_bytes() > bound {
            let Some(seq) = self.overflow_victim() else {
                break;
            };
            self.evict_for_overflow(seq);
        }
    }

    /// Picks the next overflow victim: the *oldest* buffered command
    /// (stale content is the least valuable — it has waited longest
    /// and is the most likely to be overdrawn again before delivery);
    /// realtime entries only when nothing else is left. Under
    /// raw-first degradation, oldest RAW first — RAW is the bulky
    /// fallback format, and evicting it preserves the compact
    /// SFILL/PFILL/COPY commands the degraded link can still afford.
    fn overflow_victim(&self) -> Option<u64> {
        if self.degrade_raw_first {
            if let Some(e) = self
                .entries
                .iter()
                .filter(|e| {
                    !matches!(e.slot, QueueSlot::Realtime)
                        && matches!(e.cmd, DisplayCommand::Raw { .. })
                })
                .min_by_key(|e| e.seq)
            {
                return Some(e.seq);
            }
        }
        self.entries
            .iter()
            .filter(|e| !matches!(e.slot, QueueSlot::Realtime))
            .min_by_key(|e| e.seq)
            .or_else(|| self.entries.iter().min_by_key(|e| e.seq))
            .map(|e| e.seq)
    }

    /// Removes `seq` for overflow, recording its footprint as refresh
    /// debt. Any queued COPY reading from the debt region can no
    /// longer trust its source pixels, so it cascades: the COPY is
    /// evicted too and its destination joins the debt (which the
    /// refresh repays with final content, restoring correctness).
    fn evict_for_overflow(&mut self, seq: u64) {
        let Some(pos) = self.entry_pos(seq) else { return };
        let mut debt = self.entries[pos].visible.clone();
        debt.union_rect(&self.entries[pos].cmd.dest_rect());
        self.entries.remove(pos);
        self.stats.overflow_evicted += 1;
        loop {
            let dependent = self.entries.iter().find_map(|e| match &e.cmd {
                DisplayCommand::Copy { src_rect, .. } if debt.intersects_rect(src_rect) => {
                    Some(e.seq)
                }
                _ => None,
            });
            let Some(dep) = dependent else { break };
            let p = self.entry_pos(dep).expect("entry just found");
            debt.union_rect(&self.entries[p].cmd.dest_rect());
            self.entries.remove(p);
            self.stats.overflow_evicted += 1;
        }
        self.overflow_debt.union(&debt);
    }

    fn requeue(&mut self, seq: u64, old: QueueSlot, new: QueueSlot) {
        let deque = match old {
            QueueSlot::Realtime => &mut self.realtime,
            QueueSlot::Normal(q) => &mut self.queues[q],
        };
        if let Some(pos) = deque.iter().position(|&s| s == seq) {
            deque.remove(pos);
        }
        match new {
            QueueSlot::Realtime => self.realtime.push_back(seq),
            QueueSlot::Normal(q) => self.queues[q].push_back(seq),
        }
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
    /// **Fit first.** The only compressed form ever used is one shorter
    /// than the payload, and when the uncompressed frame does not fit
    /// the pipe, only one that does fit (or that the ledger could
    /// hold) — so the encode is bounded by those sizes and gives up
    /// the moment its stream passes them, instead of compressing the
    /// whole payload to learn a size it then discards. What a bounded
    /// encode finds out is remembered by content identity
    /// ([`EncodeMemo`]), so a repeat of the content — above all a
    /// cache hit — reaches the same decision without the codec. The
    /// decision itself is a pure function of command, pipe space and
    /// ledger: the memo and the plane only ever skip work.
    ///
    /// Pure lookup as far as delivery state goes — counters and LRU
    /// order move only in [`Self::cache_commit`] once the frame is
    /// actually committed to the pipe, so a blocked flush attempt has
    /// no side effects.
    fn prepare_wire(
        &mut self,
        cmd: &DisplayCommand,
        writable: u64,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Option<Wire> {
        #[cfg(test)]
        if self.reference_prepare {
            return Some(self.reference_prepare_wire(cmd.clone(), plane, counters));
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
            if let Some((key, full_size)) = self.memo.encoded(&a.ident) {
                if cache.ledger.contains(key) {
                    self.stats.codec_skipped_bytes += a.len;
                    let shared = plane.is_some().then_some(full_size);
                    return Some(self.cache_ref(key, full_size, shared));
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
                            self.cache.as_ref().map_or(0, |c| c.ledger.max_entry_bytes());
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
        let shared = slot.is_some().then_some(form.size);
        let (Some(cache), Some(key)) = (&self.cache, form.key) else {
            return Some(Wire { msg: form.msg, size: form.size, commit: CacheCommit::None, shared });
        };
        if let Some(a) = &attempt {
            let ledger = &cache.ledger;
            self.memo.learn_encoded(a.ident, key, form.size, |k| ledger.contains(k));
        }
        if cache.ledger.contains(key) {
            Some(self.cache_ref(key, form.size, shared))
        } else {
            Some(Wire { msg: form.msg, size: form.size, commit: CacheCommit::Insert { key }, shared })
        }
    }

    /// The `CacheRef` standing in for a full form of `full_size` wire
    /// bytes the client already holds under `key`.
    fn cache_ref(&mut self, key: u64, full_size: u64, shared: Option<u64>) -> Wire {
        let msg = Message::CacheRef { hash: key };
        encode_message_into(&msg, &mut self.encode_buf);
        let size = self.encode_buf.len() as u64;
        Wire { msg, size, commit: CacheCommit::Hit { key, saved: full_size - size }, shared }
    }

    /// The full wire form of a command: emitted message, encoded frame
    /// size, cache key. With no `attempt` the command ships as it is.
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
        encode_message_into(&msg, &mut self.encode_buf);
        let size = self.encode_buf.len() as u64;
        let key = thinc_protocol::cache::cache_key(&msg, &self.encode_buf);
        Some(WireForm { msg, size, key })
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
        let (full, full_size, key, shared) = match plane.and_then(|p| p.slot(&cmd)) {
            Some(slot) => {
                let mut fresh = false;
                let form = slot.form_or_init(|| {
                    fresh = true;
                    self.reference_compute_form(cmd)
                });
                let (msg, size, key) = (form.msg.clone(), form.size, form.key);
                if fresh {
                    counters.encodes += 1;
                    counters.encoded_bytes += size;
                }
                (msg, size, key, Some(size))
            }
            None => {
                let form = self.reference_compute_form(cmd);
                (form.msg, form.size, form.key, None)
            }
        };
        let (Some(cache), Some(key)) = (&self.cache, key) else {
            return Wire { msg: full, size: full_size, commit: CacheCommit::None, shared };
        };
        if cache.ledger.contains(key) {
            self.cache_ref(key, full_size, shared)
        } else {
            Wire { msg: full, size: full_size, commit: CacheCommit::Insert { key }, shared }
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
        encode_message_into(&full, &mut self.encode_buf);
        let size = self.encode_buf.len() as u64;
        let key = thinc_protocol::cache::cache_key(&full, &self.encode_buf);
        WireForm { msg: full, size, key }
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
            CacheCommit::Hit { key, saved } => {
                cache.ledger.touch(key);
                cache.hits += 1;
                cache.bytes_saved += saved;
            }
            CacheCommit::Insert { key } => {
                cache.ledger.insert(key, size, msg.clone());
            }
        }
    }

    /// Commits a prepared message to the pipe and settles everything
    /// owed for it: trace, delivery and plane accounting, the ledger.
    #[allow(clippy::too_many_arguments)]
    fn ship(
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
        thinc_protocol::telemetry::record_message(&mut self.protocol_metrics, &wire.msg);
        if let Some(full) = wire.shared {
            counters.shared_sends += 1;
            counters.shared_bytes += full;
        }
        self.cache_commit(&wire.msg, wire.size, wire.commit);
        out.push((arrival, wire.msg));
    }

    /// Splits `cmd`'s visible output into exactly-clipped sub-commands
    /// (partial commands must not overlap later commands once the
    /// scheduler reorders; §5's correctness invariant).
    fn materialize(entry: &Entry) -> Vec<DisplayCommand> {
        let dest = entry.cmd.dest_rect();
        if entry.visible.contains_rect(&dest) {
            return vec![entry.cmd.clone()];
        }
        let mut out = Vec::new();
        for r in entry.visible.rects() {
            if let Some(c) = clip_command(&entry.cmd, r) {
                out.push(c);
            } else {
                // Not exactly clippable: fall back to the full command
                // (correct but larger; only unreachable kinds hit this).
                return vec![entry.cmd.clone()];
            }
        }
        out
    }

    /// Flushes as much as possible without blocking, in SRSF order:
    /// the real-time queue first, then size queues in increasing
    /// order. Returns `(arrival_time, message)` pairs for the client.
    ///
    /// Large uncompressed `RAW` commands are split to fill exactly the
    /// available socket space; the unsent remainder is reformatted and
    /// left at the head of its queue.
    pub fn flush(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
    ) -> Vec<(SimTime, Message)> {
        self.flush_shared(now, pipe, trace, None, &mut PlaneCounters::default())
    }

    /// [`flush`](Self::flush) against a shared encode-once
    /// [`WirePlane`]: eligible commands take their wire form from the
    /// plane (producing it if this client is first), and the plane
    /// traffic is accounted into `counters`. Output bytes are
    /// identical to the plain flush.
    pub fn flush_shared(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
    ) -> Vec<(SimTime, Message)> {
        let mut out = Vec::new();
        // Owed miss fallbacks ship before the command queues: a client
        // waiting on an unresolved reference is blocked on exactly
        // this payload.
        while let Some(msg) = self.cache.as_ref().and_then(|c| c.fallbacks.front()) {
            encode_message_into(msg, &mut self.encode_buf);
            let size = self.encode_buf.len() as u64;
            let key = thinc_protocol::cache::cache_key(msg, &self.encode_buf);
            if pipe.would_block(now, size) {
                return out;
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
            thinc_protocol::telemetry::record_message(&mut self.protocol_metrics, &msg);
            if let Some(key) = key {
                self.cache_commit(&msg, size, CacheCommit::Insert { key });
            }
            out.push((arrival, msg));
        }
        // Realtime queue, then normal queues in increasing order.
        for qi in 0..=NUM_QUEUES {
            loop {
                let deque = if qi == 0 {
                    &mut self.realtime
                } else {
                    &mut self.queues[qi - 1]
                };
                let Some(&seq) = deque.front() else { break };
                let Some(pos) = self.entries.iter().position(|e| e.seq == seq) else {
                    // Evicted earlier; drop the stale queue slot.
                    deque.pop_front();
                    continue;
                };
                let parts = Self::materialize(&self.entries[pos]);
                let enqueued = self.entries[pos].enqueued;
                let wait_us = now.0.saturating_sub(enqueued.0);
                let mut sent_all = true;
                let mut leftover: Vec<DisplayCommand> = Vec::new();
                for (i, part) in parts.iter().enumerate() {
                    let writable = pipe.writable_bytes(now);
                    let whole = self
                        .prepare_wire(part, writable, plane, counters)
                        .filter(|wire| wire.size <= writable);
                    if let Some(wire) = whole {
                        self.ship(wire, now, pipe, trace, wait_us, counters, &mut out);
                        continue;
                    }
                    // Nothing whole fits: try splitting an uncompressed
                    // RAW to fill the space there is.
                    sent_all = false;
                    if let Some((head, tail)) = split_raw(part, writable) {
                        let head = self
                            .prepare_wire(&head, writable, plane, counters)
                            .filter(|wire| wire.size <= writable);
                        if let Some(wire) = head {
                            self.stats.splits += 1;
                            self.ship(wire, now, pipe, trace, wait_us, counters, &mut out);
                            leftover.push(tail);
                            leftover.extend(parts[i + 1..].iter().cloned());
                            break;
                        }
                    }
                    leftover.extend(parts[i..].iter().cloned());
                    break;
                }
                // Remove the consumed entry and its queue slot.
                let slot = self.entries[pos].slot;
                self.entries.remove(pos);
                let deque = if qi == 0 {
                    &mut self.realtime
                } else {
                    &mut self.queues[qi - 1]
                };
                deque.pop_front();
                if !sent_all {
                    // Reinsert the remainder at the head of the same
                    // queue, preserving order, and stop flushing.
                    for cmd in leftover.into_iter().rev() {
                        let class = classify(&cmd);
                        let dest = cmd.dest_rect();
                        let seq = self.next_seq;
                        self.next_seq += 1;
                        self.entries.push(Entry {
                            seq,
                            cmd,
                            class,
                            visible: Region::from_rect(dest),
                            slot,
                            enqueued,
                        });
                        let deque = if qi == 0 {
                            &mut self.realtime
                        } else {
                            &mut self.queues[qi - 1]
                        };
                        deque.push_front(seq);
                    }
                    return out;
                }
            }
        }
        out
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

    /// Serializes the buffer's full delivery state into `w`.
    ///
    /// Entries are written with their *internal* state — exact clipped
    /// visible regions, scheduler slots, deque orders, sequence
    /// numbers — rather than being replayed through [`push`]
    /// (Self::push) at restore time. Replaying would re-run the
    /// merge/evict pass against an empty buffer and produce different
    /// entries (breaking byte-exact re-checkpointing), and an entry
    /// whose visibility was clipped by a later-flushed command would
    /// repaint stale pixels if restored unclipped.
    ///
    /// Deliberately not serialized (documented losses, identical on
    /// every re-checkpoint): scheduler/protocol telemetry and the
    /// ledger's lifetime eviction count restart at zero; the scratch
    /// compression buffers and the encode memo are pure caches.
    pub(crate) fn encode_checkpoint(&self, w: &mut crate::checkpoint::Writer) {
        w.u64(self.next_seq);
        w.u64(self.clock.0);
        for v in &self.stats.values()[..CHECKPOINTED_STATS] {
            w.u64(*v);
        }
        w.opt_u64(self.raw_compress_bpp.map(|b| b as u64));
        w.bool(self.fifo);
        w.opt_u64(self.byte_bound);
        w.u64(self.degrade_bound_divisor);
        w.bool(self.degrade_raw_first);
        w.region(&self.overflow_debt);
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            w.u64(e.seq);
            w.u8(match e.slot {
                QueueSlot::Realtime => 0xFF,
                QueueSlot::Normal(q) => q as u8,
            });
            w.u64(e.enqueued.0);
            w.region(&e.visible);
            w.bytes(&thinc_protocol::wire::encode_message(&Message::Display(
                e.cmd.clone(),
            )));
        }
        // Deque orders are serialized separately from the entries:
        // flush-split leftovers go to the *front* of their deque with
        // fresh sequence numbers, so deque order is not derivable from
        // entry order. Stale slots (evicted entries, cleaned lazily at
        // pop) are filtered out here so a restored buffer re-encodes
        // byte-identically.
        let live = |seq: &&u64| self.entries.iter().any(|e| e.seq == **seq);
        let rt: Vec<u64> = self.realtime.iter().filter(live).copied().collect();
        w.u32(rt.len() as u32);
        for seq in rt {
            w.u64(seq);
        }
        for q in &self.queues {
            let qs: Vec<u64> = q.iter().filter(live).copied().collect();
            w.u32(qs.len() as u32);
            for seq in qs {
                w.u64(seq);
            }
        }
        match &self.cache {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                w.u64(c.ledger.budget());
                w.u64(c.hits);
                w.u64(c.misses);
                w.u64(c.bytes_saved);
                w.u32(c.fallbacks.len() as u32);
                for msg in &c.fallbacks {
                    w.bytes(&thinc_protocol::wire::encode_message(msg));
                }
                // LRU order, least-recent first: replaying through
                // `insert` reconstructs the exact eviction order (the
                // held total fits the budget, so replay never evicts).
                let ledger: Vec<(u64, u64, Vec<u8>)> = c
                    .ledger
                    .iter_lru()
                    .map(|(k, size, v)| (k, size, thinc_protocol::wire::encode_message(v)))
                    .collect();
                w.u32(ledger.len() as u32);
                for (key, size, enc) in ledger {
                    w.u64(key);
                    w.u64(size);
                    w.bytes(&enc);
                }
            }
        }
    }

    /// Rebuilds a buffer from [`encode_checkpoint`]
    /// (Self::encode_checkpoint) output. Every length, tag, and
    /// message payload is validated — corrupt input yields a typed
    /// error, never a panic or an out-of-invariant buffer.
    pub(crate) fn decode_checkpoint(
        r: &mut crate::checkpoint::Reader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let mut buf = ClientBuffer::new();
        buf.next_seq = r.u64()?;
        buf.clock = SimTime(r.u64()?);
        let mut stats = [0; BufferStats::LEN];
        for v in &mut stats[..CHECKPOINTED_STATS] {
            *v = r.u64()?;
        }
        buf.stats = BufferStats::from_values(stats);
        buf.raw_compress_bpp = r.opt_u64()?.map(|b| b as usize);
        buf.fifo = r.bool()?;
        buf.byte_bound = r.opt_u64()?;
        buf.degrade_bound_divisor = r.u64()?;
        buf.degrade_raw_first = r.bool()?;
        buf.overflow_debt = r.region()?;
        let n_entries = r.u32()?;
        for _ in 0..n_entries {
            let seq = r.u64()?;
            let slot = match r.u8()? {
                0xFF => QueueSlot::Realtime,
                q if (q as usize) < NUM_QUEUES => QueueSlot::Normal(q as usize),
                _ => return Err(CheckpointError::Malformed("entry queue slot")),
            };
            let enqueued = SimTime(r.u64()?);
            let visible = r.region()?;
            let Message::Display(cmd) = decode_checkpoint_message(r.bytes()?)? else {
                return Err(CheckpointError::Malformed("entry is not a display command"));
            };
            buf.entries.push(Entry {
                seq,
                class: classify(&cmd),
                cmd,
                visible,
                slot,
                enqueued,
            });
        }
        let n_rt = r.u32()?;
        for _ in 0..n_rt {
            buf.realtime.push_back(r.u64()?);
        }
        for q in 0..NUM_QUEUES {
            let n = r.u32()?;
            for _ in 0..n {
                buf.queues[q].push_back(r.u64()?);
            }
        }
        match r.u8()? {
            0 => {}
            1 => {
                let budget = r.u64()?;
                let mut cache = CacheEngine {
                    ledger: thinc_protocol::cache::CacheLru::new(budget),
                    fallbacks: VecDeque::new(),
                    hits: r.u64()?,
                    misses: r.u64()?,
                    bytes_saved: r.u64()?,
                };
                let n_fallbacks = r.u32()?;
                for _ in 0..n_fallbacks {
                    cache.fallbacks.push_back(decode_checkpoint_message(r.bytes()?)?);
                }
                let n_ledger = r.u32()?;
                for _ in 0..n_ledger {
                    let key = r.u64()?;
                    let size = r.u64()?;
                    let msg = decode_checkpoint_message(r.bytes()?)?;
                    cache.ledger.insert(key, size, msg);
                }
                buf.cache = Some(cache);
            }
            _ => return Err(CheckpointError::Malformed("cache presence tag")),
        }
        Ok(buf)
    }
}

/// Decodes one revision-1-framed protocol message embedded in a
/// checkpoint, rejecting trailing garbage inside the length-prefixed
/// slot.
pub(crate) fn decode_checkpoint_message(
    data: &[u8],
) -> Result<Message, crate::checkpoint::CheckpointError> {
    match thinc_protocol::wire::decode_message(data) {
        Ok((msg, used)) if used == data.len() => Ok(msg),
        Ok(_) => Err(crate::checkpoint::CheckpointError::Malformed(
            "trailing bytes inside embedded message",
        )),
        Err(_) => Err(crate::checkpoint::CheckpointError::Malformed(
            "embedded message does not decode",
        )),
    }
}

/// Splits an uncompressed RAW command into a head that fits in
/// `budget` wire bytes and the remaining tail. Returns `None` when the
/// command is not a splittable RAW or not even one row fits.
fn split_raw(cmd: &DisplayCommand, budget: u64) -> Option<(DisplayCommand, DisplayCommand)> {
    let DisplayCommand::Raw {
        rect,
        encoding: RawEncoding::None,
        data,
    } = cmd
    else {
        return None;
    };
    if rect.h <= 1 || rect.area() == 0 || data.len() % rect.area() as usize != 0 {
        return None;
    }
    let bpp = data.len() / rect.area() as usize;
    let row_bytes = rect.w as u64 * bpp as u64;
    if budget <= RAW_FRAME_OVERHEAD + row_bytes {
        return None;
    }
    let rows = (((budget - RAW_FRAME_OVERHEAD) / row_bytes) as u32).min(rect.h - 1);
    if rows == 0 {
        return None;
    }
    let split_at = rows as usize * row_bytes as usize;
    let head = DisplayCommand::Raw {
        rect: thinc_raster::Rect::new(rect.x, rect.y, rect.w, rows),
        encoding: RawEncoding::None,
        data: data[..split_at].to_vec().into(),
    };
    let tail = DisplayCommand::Raw {
        rect: thinc_raster::Rect::new(rect.x, rect.y + rows as i32, rect.w, rect.h - rows),
        encoding: RawEncoding::None,
        data: data[split_at..].to_vec().into(),
    };
    Some((head, tail))
}

#[cfg(test)]
mod fit_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_net::tcp::TcpParams;
    use thinc_net::time::SimDuration;
    use thinc_protocol::wire::encode_message;
    use thinc_raster::{Color, Rect};

    fn pipe() -> TcpPipe {
        TcpPipe::new(TcpParams {
            bandwidth_bps: 100_000_000,
            rtt: SimDuration::from_micros(200),
            rwnd_bytes: 1024 * 1024,
            ..TcpParams::default()
        })
    }

    fn sfill(x: i32, y: i32, w: u32, h: u32, v: u8) -> DisplayCommand {
        DisplayCommand::Sfill {
            rect: Rect::new(x, y, w, h),
            color: Color::rgb(v, v, v),
        }
    }

    fn raw(x: i32, y: i32, w: u32, h: u32) -> DisplayCommand {
        DisplayCommand::Raw {
            rect: Rect::new(x, y, w, h),
            encoding: RawEncoding::None,
            data: vec![7; (w * h * 3) as usize].into(),
        }
    }

    fn drain_all(buf: &mut ClientBuffer) -> Vec<Message> {
        let mut pipe = pipe();
        let mut trace = PacketTrace::new();
        let mut msgs = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let batch = buf.flush(now, &mut pipe, &mut trace);
            for (_, m) in batch {
                msgs.push(m);
            }
            if buf.is_empty() {
                break;
            }
            now = pipe.tx_free_at();
        }
        assert!(buf.is_empty(), "buffer did not drain");
        msgs
    }

    #[test]
    fn small_before_large() {
        let mut buf = ClientBuffer::new();
        buf.push(raw(100, 0, 100, 100), false); // Large, q9-ish.
        buf.push(sfill(0, 0, 10, 10, 1), false); // Tiny, q0.
        let msgs = drain_all(&mut buf);
        assert!(matches!(
            &msgs[0],
            Message::Display(DisplayCommand::Sfill { .. })
        ));
    }

    #[test]
    fn realtime_preempts_everything() {
        let mut buf = ClientBuffer::new();
        buf.push(sfill(0, 0, 10, 10, 1), false);
        buf.push(raw(300, 300, 50, 50), true); // Realtime but larger.
        let msgs = drain_all(&mut buf);
        assert!(matches!(&msgs[0], Message::Display(DisplayCommand::Raw { .. })));
    }

    #[test]
    fn stale_commands_evicted_before_send() {
        let mut buf = ClientBuffer::new();
        buf.push(raw(0, 0, 50, 50), false);
        buf.push(sfill(0, 0, 50, 50, 1), false); // Fully covers the RAW.
        assert_eq!(buf.stats().evicted, 1);
        let msgs = drain_all(&mut buf);
        assert_eq!(msgs.len(), 1);
    }

    #[test]
    fn partial_overwrite_sends_clipped_remainder() {
        let mut buf = ClientBuffer::new();
        buf.push(raw(0, 0, 10, 10), false);
        buf.push(sfill(0, 5, 10, 5, 1), false); // Covers bottom half.
        let msgs = drain_all(&mut buf);
        // SFILL (small) first, then the RAW clipped to the top half.
        let raw_msgs: Vec<_> = msgs
            .iter()
            .filter_map(|m| match m {
                Message::Display(DisplayCommand::Raw { rect, .. }) => Some(*rect),
                _ => None,
            })
            .collect();
        assert_eq!(raw_msgs, vec![Rect::new(0, 0, 10, 5)]);
    }

    #[test]
    fn transparent_follows_dependency() {
        let mut buf = ClientBuffer::new();
        // Big RAW base, then a transparent bitmap over it.
        buf.push(raw(0, 0, 100, 100), false);
        buf.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(10, 10, 16, 8),
                bits: vec![0xFF; 16],
                fg: Color::BLACK,
                bg: None,
            },
            false,
        );
        // And an unrelated small fill that may jump the queue.
        buf.push(sfill(500, 500, 5, 5, 2), false);
        let msgs = drain_all(&mut buf);
        let idx_raw = msgs
            .iter()
            .position(|m| matches!(m, Message::Display(DisplayCommand::Raw { .. })))
            .unwrap();
        let idx_bm = msgs
            .iter()
            .position(|m| matches!(m, Message::Display(DisplayCommand::Bitmap { .. })))
            .unwrap();
        assert!(idx_raw < idx_bm, "bitmap must follow its base");
    }

    #[test]
    fn opaque_over_transparent_keeps_order() {
        let mut buf = ClientBuffer::new();
        // Transparent text placed behind a big dependency...
        buf.push(raw(0, 0, 100, 100), false);
        buf.push(
            DisplayCommand::Bitmap {
                rect: Rect::new(0, 0, 16, 8),
                bits: vec![0xFF; 16],
                fg: Color::BLACK,
                bg: None,
            },
            false,
        );
        // ...then a small opaque fill partially over the text (a full
        // cover would simply evict it): must not be reordered before.
        buf.push(sfill(8, 0, 16, 8, 9), false);
        let msgs = drain_all(&mut buf);
        let idx_bm = msgs
            .iter()
            .position(|m| matches!(m, Message::Display(DisplayCommand::Bitmap { .. })))
            .unwrap();
        let idx_fill = msgs
            .iter()
            .position(|m| {
                matches!(m, Message::Display(DisplayCommand::Sfill { rect, .. }) if rect.w == 16)
            })
            .unwrap();
        assert!(idx_bm < idx_fill);
    }

    #[test]
    fn nonblocking_flush_splits_large_raw() {
        // Tiny socket buffer forces splitting.
        let mut p = TcpPipe::new(TcpParams {
            bandwidth_bps: 1_000_000,
            rtt: SimDuration::from_millis(50),
            rwnd_bytes: 16 * 1024,
            sndbuf_bytes: 8 * 1024,
            ..TcpParams::default()
        });
        let mut trace = PacketTrace::new();
        let mut buf = ClientBuffer::new();
        buf.push(raw(0, 0, 200, 100), false); // 60 KB.
        let first = buf.flush(SimTime::ZERO, &mut p, &mut trace);
        assert!(!first.is_empty());
        assert!(!buf.is_empty(), "remainder must stay buffered");
        assert!(buf.stats().splits >= 1);
        // Drain over time.
        let mut now = p.tx_free_at();
        let mut rows = 0u32;
        for (_, m) in &first {
            if let Message::Display(DisplayCommand::Raw { rect, .. }) = m {
                rows += rect.h;
            }
        }
        for _ in 0..10_000 {
            if buf.is_empty() {
                break;
            }
            for (_, m) in buf.flush(now, &mut p, &mut trace) {
                if let Message::Display(DisplayCommand::Raw { rect, .. }) = m {
                    rows += rect.h;
                }
            }
            now = p.tx_free_at().max(now + SimDuration::from_millis(5));
        }
        assert!(buf.is_empty());
        assert_eq!(rows, 100, "all rows delivered exactly once");
    }

    #[test]
    fn eviction_works_after_partial_flush() {
        let mut p = TcpPipe::new(TcpParams {
            bandwidth_bps: 1_000_000,
            rtt: SimDuration::from_millis(50),
            sndbuf_bytes: 8 * 1024,
            ..TcpParams::default()
        });
        let mut trace = PacketTrace::new();
        let mut buf = ClientBuffer::new();
        buf.push(raw(0, 0, 200, 100), false);
        buf.flush(SimTime::ZERO, &mut p, &mut trace);
        assert!(!buf.is_empty());
        // New fill covers everything: the unsent tail is evicted.
        buf.push(sfill(0, 0, 200, 100, 1), false);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn raw_compression_shrinks_flat_payloads() {
        let mut buf = ClientBuffer::new().with_raw_compression(3);
        buf.push(raw(0, 0, 100, 100), false); // All-sevens payload.
        let mut p = pipe();
        let mut trace = PacketTrace::new();
        let msgs = buf.flush(SimTime::ZERO, &mut p, &mut trace);
        assert_eq!(msgs.len(), 1);
        match &msgs[0].1 {
            Message::Display(DisplayCommand::Raw { encoding, data, .. }) => {
                assert_eq!(*encoding, RawEncoding::PngLike);
                assert!(data.len() < 1000, "{} bytes", data.len());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merges_scanlines_in_buffer() {
        let mut buf = ClientBuffer::new();
        for y in 0..32 {
            buf.push(raw(0, y, 64, 1), false);
        }
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.stats().merged, 31);
    }

    #[test]
    fn pending_bytes_tracks_content() {
        let mut buf = ClientBuffer::new();
        assert_eq!(buf.pending_bytes(), 0);
        buf.push(sfill(0, 0, 10, 10, 1), false);
        assert!(buf.pending_bytes() > 0);
    }

    #[test]
    fn byte_bound_never_exceeded_and_debt_accumulates() {
        let bound = 50_000u64;
        let mut buf = ClientBuffer::new().with_byte_bound(bound);
        // Push far more than the bound in disjoint RAWs (no merging).
        for i in 0..20 {
            buf.push(raw(0, i * 110, 100, 100), false); // ~30 KB each.
            assert!(
                buf.pending_bytes() <= bound,
                "bound violated: {} > {bound}",
                buf.pending_bytes()
            );
        }
        assert!(buf.stats().overflow_evicted > 0);
        assert!(buf.has_overflow_debt());
        let debt = buf.take_overflow_debt();
        assert!(!debt.is_empty());
        assert!(!buf.has_overflow_debt(), "debt is taken once");
        // What survives still drains normally.
        drain_all(&mut buf);
    }

    #[test]
    fn overflow_eviction_cascades_to_dependent_copies() {
        let mut buf = ClientBuffer::new().with_byte_bound(40_000);
        // A big RAW draws the region a COPY will read.
        buf.push(raw(0, 0, 100, 100), false);
        buf.push(
            DisplayCommand::Copy {
                src_rect: Rect::new(0, 0, 50, 50),
                dst_x: 200,
                dst_y: 200,
                },
            false,
        );
        // Overflow forces the RAW out; the COPY reading it must go
        // too, and both footprints become debt.
        buf.push(raw(0, 200, 120, 100), false);
        assert!(buf.stats().overflow_evicted >= 2);
        let debt = buf.take_overflow_debt();
        assert!(debt.intersects_rect(&Rect::new(0, 0, 100, 100)));
        assert!(debt.intersects_rect(&Rect::new(200, 200, 50, 50)));
    }

    #[test]
    fn degradation_tightens_the_bound_immediately() {
        let bound = 100_000u64;
        let mut buf = ClientBuffer::new().with_byte_bound(bound);
        for i in 0..3 {
            buf.push(raw(0, i * 110, 100, 100), false); // ~30 KB each.
        }
        assert_eq!(buf.stats().overflow_evicted, 0);
        // Halving the bound makes the standing backlog overweight:
        // enforcement runs at once, not at the next push.
        buf.set_degradation(2, false);
        assert_eq!(buf.effective_byte_bound(), Some(bound / 2));
        assert!(buf.pending_bytes() <= bound / 2);
        assert!(buf.stats().overflow_evicted > 0);
        assert!(buf.has_overflow_debt());
        // Releasing the pressure restores the configured cap.
        buf.set_degradation(1, false);
        assert_eq!(buf.effective_byte_bound(), Some(bound));
    }

    #[test]
    fn raw_first_eviction_spares_compact_commands() {
        let mut buf = ClientBuffer::new().with_byte_bound(40_000);
        buf.set_degradation(1, true);
        // An old compact SFILL, then enough RAW to overflow. Under
        // raw-first the SFILL survives even though it is oldest.
        buf.push(sfill(0, 500, 10, 10, 3), false);
        for i in 0..3 {
            buf.push(raw(0, i * 110, 100, 100), false);
        }
        assert!(buf.stats().overflow_evicted > 0);
        let msgs = drain_all(&mut buf);
        assert!(
            msgs.iter().any(|m| matches!(
                m,
                Message::Display(DisplayCommand::Sfill { rect, .. }) if rect.y == 500
            )),
            "compact command should outlive raw-first eviction"
        );
    }

    #[test]
    fn unbounded_buffer_never_evicts_for_overflow() {
        let mut buf = ClientBuffer::new();
        for i in 0..20 {
            buf.push(raw(0, i * 110, 100, 100), false);
        }
        assert_eq!(buf.stats().overflow_evicted, 0);
        assert!(!buf.has_overflow_debt());
    }

    // ---- content-addressed cache (protocol revision 3) ----

    #[test]
    fn repeated_payload_substitutes_cache_reference() {
        let mut buf = ClientBuffer::new();
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        buf.push(raw(0, 0, 8, 8), false);
        let first = drain_all(&mut buf);
        assert!(
            matches!(&first[0], Message::Display(DisplayCommand::Raw { .. })),
            "first send carries the full payload"
        );
        let full_size = first[0].wire_size();
        // Same content again (scroll-back, window switch).
        buf.push(raw(0, 0, 8, 8), false);
        let second = drain_all(&mut buf);
        let Message::CacheRef { hash } = &second[0] else {
            panic!("repeat should substitute a reference, got {:?}", second[0]);
        };
        assert_eq!(Some(*hash), first[0].cache_key());
        let counts = buf.resilience_counts();
        assert_eq!(counts.cache_hits, 1);
        assert_eq!(counts.cache_misses, 0);
        assert_eq!(counts.cache_bytes_saved, full_size - second[0].wire_size());
    }

    #[test]
    fn cache_disabled_never_substitutes() {
        let mut buf = ClientBuffer::new();
        assert!(!buf.cache_enabled());
        buf.push(raw(0, 0, 8, 8), false);
        drain_all(&mut buf);
        buf.push(raw(0, 0, 8, 8), false);
        let msgs = drain_all(&mut buf);
        assert!(
            msgs.iter().all(|m| !matches!(m, Message::CacheRef { .. })),
            "rev-2 and rev-1 peers must never see cache messages"
        );
        assert_eq!(buf.resilience_counts(), ResilienceMetrics::default());
    }

    #[test]
    fn miss_fallback_resends_byte_exact_payload() {
        let mut buf = ClientBuffer::new();
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        buf.push(raw(0, 0, 8, 8), false);
        let first = drain_all(&mut buf);
        let hash = first[0].cache_key().unwrap();
        // The client reports it cannot resolve the hash (fresh store
        // after reconnect, say): the fallback is the byte-exact
        // original, delivered ahead of queued work.
        assert!(buf.satisfy_cache_miss(hash));
        buf.push(sfill(0, 0, 10, 10, 1), false);
        let msgs = drain_all(&mut buf);
        assert_eq!(
            encode_message(&msgs[0]),
            encode_message(&first[0]),
            "fallback must be byte-exact"
        );
        assert_eq!(buf.resilience_counts().cache_misses, 1);
        // A hash the ledger never held (or evicted) cannot be repaid
        // from cache; the caller escalates to a refresh.
        assert!(!buf.satisfy_cache_miss(0xDEAD_BEEF));
    }

    #[test]
    fn rescale_drops_queued_fallbacks_with_the_pending_commands() {
        // A miss fallback queued before a degradation rescale carries
        // pixels in the outgoing coordinate space. The rescale drop
        // must take the fallback with it (the owed refresh repaints
        // the content), and must do so without touching the ledger —
        // the mirror insert only ever happens at send time.
        let mut buf = ClientBuffer::new();
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        buf.push(raw(0, 0, 8, 8), false);
        let first = drain_all(&mut buf);
        let hash = first[0].cache_key().unwrap();
        let keys_before = buf.cache_keys();
        assert!(buf.satisfy_cache_miss(hash));
        assert_eq!(buf.fallbacks_pending(), 1);
        buf.push(sfill(0, 0, 10, 10, 1), false);
        let footprint = buf.drop_pending_for_rescale();
        assert!(!footprint.is_empty(), "pending commands become debt");
        assert_eq!(buf.fallbacks_pending(), 0, "stale-space fallback dropped");
        assert_eq!(buf.cache_keys(), keys_before, "ledger untouched");
        assert!(drain_all(&mut buf).is_empty());
    }

    #[test]
    fn eviction_never_leaves_dangling_reference() {
        // A budget that holds only a couple of tiles, cycled hard:
        // the server must never emit a ref the mirrored client store
        // cannot resolve.
        let budget = 900;
        let mut buf = ClientBuffer::new();
        buf.enable_cache(budget);
        let mut store: thinc_protocol::CacheLru<Message> = thinc_protocol::CacheLru::new(budget);
        let mut refs = 0u64;
        for round in 0..12u8 {
            // Three stable tiles (repeat every round → refs) plus one
            // unique tile per round (→ churn and LRU evictions).
            let mut round_cmds = Vec::new();
            for tile in 0..3u8 {
                round_cmds.push(DisplayCommand::Raw {
                    rect: Rect::new(i32::from(tile) * 8, 0, 8, 8),
                    encoding: RawEncoding::None,
                    data: vec![tile; 8 * 8 * 3].into(),
                });
            }
            round_cmds.push(DisplayCommand::Raw {
                rect: Rect::new(24, 0, 8, 8),
                encoding: RawEncoding::None,
                data: vec![100 + round; 8 * 8 * 3].into(),
            });
            for cmd in round_cmds {
                buf.push(cmd, false);
                for msg in drain_all(&mut buf) {
                    match msg {
                        Message::CacheRef { hash } => {
                            assert!(
                                store.get(hash).is_some(),
                                "dangling reference: client store cannot resolve {hash:#x}"
                            );
                            refs += 1;
                        }
                        m => {
                            if let Some(key) = m.cache_key() {
                                store.insert(key, m.wire_size(), m.clone());
                            }
                        }
                    }
                }
            }
        }
        assert!(buf.resilience_counts().cache_evictions > 0, "budget was meant to force evictions");
        assert!(refs > 0, "repeated rounds were meant to produce refs");
    }

    // ---- checkpoint / restore ----

    #[test]
    fn checkpoint_roundtrip_is_byte_exact_and_preserves_delivery() {
        // Build a buffer in a messy mid-flight state: cache ledger
        // populated, a miss fallback queued, a partially-flushed RAW
        // (split remainder re-queued at the deque front with a fresh
        // seq), clipped visibility, and standing overflow debt.
        let mut buf = ClientBuffer::new()
            .with_raw_compression(3)
            .with_byte_bound(200_000);
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        buf.set_time(SimTime(5_000));
        buf.push(raw(0, 0, 8, 8), false);
        let first = drain_all(&mut buf);
        let hash = first[0].cache_key().unwrap();
        assert!(buf.satisfy_cache_miss(hash));
        let mut p = TcpPipe::new(TcpParams {
            bandwidth_bps: 1_000_000,
            rtt: SimDuration::from_millis(50),
            sndbuf_bytes: 8 * 1024,
            ..TcpParams::default()
        });
        let mut trace = PacketTrace::new();
        // Incompressible payload, so the lazy PNG-like pass keeps the
        // full 60 KB and the tiny socket buffer forces a split.
        let mut x = 1u32;
        let noise: Vec<u8> = (0..200 * 100 * 3)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        buf.push(
            DisplayCommand::Raw {
                rect: Rect::new(0, 0, 200, 100),
                encoding: RawEncoding::None,
                data: noise.into(),
            },
            false,
        );
        buf.push(sfill(0, 50, 200, 10, 1), false); // Clips the RAW.
        buf.flush(SimTime(6_000), &mut p, &mut trace); // Partial: splits.
        assert!(!buf.is_empty(), "test wants a mid-flight remainder");
        buf.push(raw(0, 300, 120, 100), true);

        let mut w = crate::checkpoint::Writer::new();
        buf.encode_checkpoint(&mut w);
        let image = w.into_inner();
        let mut r = crate::checkpoint::Reader::new(&image);
        let mut restored = ClientBuffer::decode_checkpoint(&mut r).unwrap();
        assert!(r.exhausted(), "decoder must consume the whole image");

        // Byte-exact re-checkpoint (the failover-fidelity invariant).
        let mut w2 = crate::checkpoint::Writer::new();
        restored.encode_checkpoint(&mut w2);
        assert_eq!(image, w2.into_inner());

        // And the restored buffer delivers the same remaining stream.
        assert_eq!(restored.pending_bytes(), buf.pending_bytes());
        assert_eq!(restored.cache_keys(), buf.cache_keys());
        // Codec work is not part of the image: a restored buffer
        // starts that tally afresh.
        let resumable = BufferStats { codec_input_bytes: 0, codec_skipped_bytes: 0, ..buf.stats() };
        assert_eq!(restored.stats(), resumable);
        let live = drain_all(&mut buf);
        let resumed = drain_all(&mut restored);
        let enc = |msgs: &[Message]| -> Vec<Vec<u8>> {
            msgs.iter().map(encode_message).collect()
        };
        assert_eq!(enc(&live), enc(&resumed));
    }

    #[test]
    fn truncated_buffer_checkpoint_is_a_typed_error() {
        let mut buf = ClientBuffer::new();
        buf.enable_cache(1024);
        buf.push(raw(0, 0, 8, 8), false);
        let mut w = crate::checkpoint::Writer::new();
        buf.encode_checkpoint(&mut w);
        let image = w.into_inner();
        for cut in 0..image.len() {
            let mut r = crate::checkpoint::Reader::new(&image[..cut]);
            assert!(
                ClientBuffer::decode_checkpoint(&mut r).is_err() || !r.exhausted(),
                "truncation at {cut} must not decode cleanly"
            );
        }
    }
}
