//! The per-client command buffer with SRSF delivery (§5).
//!
//! The buffer *is* a §4 command queue ([`CommandQueue`]: eviction,
//! clipping, merging, COPY-source protection — written once, next
//! door) with what §5 adds on top, and nothing else lives here: the
//! multi-queue scheduler's slots and dependency placement, the byte
//! bound with its overflow debt, and the non-blocking flush — commands
//! are committed to the (simulated) socket only as buffer space
//! allows, large `RAW` updates are split on demand, and everything
//! left over stays queued, where later drawing may still evict it
//! ("the client buffer ensures that outdated commands are
//! automatically evicted"). What a command looks like on the wire is
//! `wire.rs`'s business; the checkpoint record is `checkpoint.rs`'s.

mod checkpoint;
mod wire;

use std::collections::VecDeque;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_raster::Region;
pub use thinc_telemetry::BufferStats;
use thinc_telemetry::{ProtocolMetrics, SchedulerMetrics};

pub(crate) use self::checkpoint::decode_checkpoint_message;
use self::wire::{CacheEngine, RAW_FRAME_OVERHEAD};
use crate::memo::EncodeMemo;
use crate::plane::{FlushPlan, PlanRole, PlaneCounters, PlannedPart, WirePlane};
use crate::queue::{classify, dependency_rects, CommandQueue, OverwriteClass, QueuedCommand};
use crate::scheduler::{creates_dependency, place, queue_index, QueueSlot, NUM_QUEUES};

/// What §5 hangs on each queued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Sched {
    /// Where the scheduler put the command.
    slot: QueueSlot,
    /// Virtual time the original drawing entered the buffer (split
    /// remainders inherit it, so flush latency spans the whole wait).
    enqueued: SimTime,
}

/// The latest slot among the queued commands `cmd` must be delivered
/// after. Overlap is computed over the commands' dependency regions
/// (destination, plus COPY's source), so an overwriter of a copy's
/// source is ordered behind the copy, and a copy behind whatever drew
/// its source. Two conditions force ordering:
///
/// 1. the paper's transparent rule, over dependency regions;
/// 2. the earlier entry *still draws* pixels this command touches or
///    reads — true for unclippable opaque commands and for commands
///    whose footprint was kept alive by COPY-source protection. Fully
///    clipped entries have disjoint output, so reordering is safe.
///
/// A dependency may itself sit in a later queue than its size suggests
/// (it was displaced by its own dependencies), so the bound is the
/// maximum dependency *slot*, which is at least as late as the paper's
/// largest-dependency rule.
fn max_dependency_slot(
    earlier: &[QueuedCommand<Sched>],
    cmd: &DisplayCommand,
) -> Option<QueueSlot> {
    let transparent = classify(cmd) == OverwriteClass::Transparent;
    let depends = |e: &&QueuedCommand<Sched>| {
        let e_transparent = e.class == OverwriteClass::Transparent;
        dependency_rects(cmd).any(|a| {
            dependency_rects(&e.cmd).any(|b| creates_dependency(transparent, e_transparent, &a, &b))
                || e.visible.intersects_rect(&a)
        })
    };
    earlier.iter().filter(depends).map(|e| e.tag.slot).max()
}

/// Everything a flush derives its parts and forms from: two buffers
/// equal in this — and flushed at the same `now` — clip the same
/// entries, in the same order, into the same parts with the same wire
/// forms. (Pipe, cache ledger and memo are not in it: they are what a
/// viewer following a class-mate's [`FlushPlan`] still consults for
/// itself.)
///
/// Sequence numbers are equal when they are equally far behind their
/// queue's `next_seq`. A flush only uses them to find an entry from
/// its slot's deque, which a common offset does not disturb — and a
/// viewer that once split a RAW its class-mates sent whole has used
/// up numbers they have not, for good: compared as they stand, it
/// would never be in step with them again.
#[derive(Debug)]
pub(crate) struct FlushState {
    now: SimTime,
    raw_compress_bpp: Option<usize>,
    next_seq: u64,
    entries: Vec<QueuedCommand<Sched>>,
    realtime: VecDeque<u64>,
    queues: [VecDeque<u64>; NUM_QUEUES],
}

/// The per-client buffer: eviction + SRSF scheduling + flush.
#[derive(Debug, Default)]
pub struct ClientBuffer {
    /// The §4 queue: entries, visible regions, eviction, merging.
    queue: CommandQueue<Sched>,
    /// Delivery order within each slot, by entry sequence number;
    /// evicted entries leave stale numbers behind, skipped at pop.
    realtime: VecDeque<u64>,
    queues: [VecDeque<u64>; NUM_QUEUES],
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
    /// Test switch: cut a RAW that does not fit the retained way, by
    /// copy, the reference the view split must match byte for byte.
    #[cfg(test)]
    reference_split: bool,
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
        self.queue.len()
    }

    /// Whether nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total buffered wire bytes (uncompressed estimate).
    pub fn pending_bytes(&self) -> u64 {
        self.queue.wire_size()
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
        let (fifo, clock) = (self.fifo, self.clock);
        let pushed = self.queue.push_with(
            cmd,
            // Merge only within one delivery class.
            |last| (last.slot == QueueSlot::Realtime) == realtime,
            |earlier, cmd| Sched {
                slot: if fifo {
                    // Single queue, strict arrival order.
                    QueueSlot::Normal(NUM_QUEUES - 1)
                } else {
                    place(cmd.wire_size(), realtime, max_dependency_slot(earlier, cmd))
                },
                enqueued: clock,
            },
        );
        self.stats.pushed += 1;
        self.stats.evicted += pushed.evicted;
        self.stats.merged += u64::from(pushed.merged);
        let newest = self.queue.newest_mut().expect("a push leaves its command queued");
        let slot = newest.tag.slot;
        if pushed.merged {
            // Re-slot for the (larger) merged size.
            if let QueueSlot::Normal(q) = slot {
                let grown = QueueSlot::Normal(q.max(queue_index(newest.cmd.wire_size())));
                if grown != slot {
                    newest.tag.slot = grown;
                    self.deque_mut(slot).retain(|&s| s != pushed.seq);
                    self.deque_mut(grown).push_back(pushed.seq);
                }
            }
            return;
        }
        self.deque_mut(slot).push_back(pushed.seq);
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

    /// The delivery-order deque of `slot`.
    fn deque_mut(&mut self, slot: QueueSlot) -> &mut VecDeque<u64> {
        match slot {
            QueueSlot::Realtime => &mut self.realtime,
            QueueSlot::Normal(q) => &mut self.queues[q],
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
        // Queue deques are cleaned lazily at pop time.
        for e in self.queue.drain() {
            footprint.union(&e.visible);
        }
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

    /// Evicts buffered commands until pending bytes fit the bound,
    /// converting every evicted footprint into overflow debt.
    fn enforce_byte_bound(&mut self) {
        let Some(bound) = self.effective_byte_bound() else {
            return;
        };
        while self.pending_bytes() > bound {
            let Some(pos) = self.overflow_victim() else {
                break;
            };
            self.evict_for_overflow(pos);
        }
    }

    /// Picks the next overflow victim (by queue position): the
    /// *oldest* buffered command (stale content is the least valuable
    /// — it has waited longest and is the most likely to be overdrawn
    /// again before delivery); realtime entries only when nothing else
    /// is left. Under raw-first degradation, oldest RAW first — RAW is
    /// the bulky fallback format, and evicting it preserves the
    /// compact SFILL/PFILL/COPY commands the degraded link can still
    /// afford.
    fn overflow_victim(&self) -> Option<usize> {
        // The queue is in arrival order: the first match is the oldest.
        let entries = self.queue.entries();
        let normal = |e: &QueuedCommand<Sched>| e.tag.slot != QueueSlot::Realtime;
        let raw = |e: &QueuedCommand<Sched>| matches!(e.cmd, DisplayCommand::Raw { .. });
        let oldest_raw = || entries.iter().position(|e| normal(e) && raw(e));
        (self.degrade_raw_first.then(oldest_raw).flatten())
            .or_else(|| entries.iter().position(normal))
            .or((!entries.is_empty()).then_some(0))
    }

    /// Removes the entry at `pos` for overflow, recording its
    /// footprint as refresh debt. Any queued COPY reading from the
    /// debt region can no longer trust its source pixels, so it
    /// cascades: the COPY is evicted too and its destination joins the
    /// debt (which the refresh repays with final content, restoring
    /// correctness).
    fn evict_for_overflow(&mut self, pos: usize) {
        let victim = self.queue.remove(pos);
        let mut debt = victim.visible;
        debt.union_rect(&victim.cmd.dest_rect());
        self.stats.overflow_evicted += 1;
        let reads_debt = |debt: &Region, e: &QueuedCommand<Sched>| {
            matches!(&e.cmd, DisplayCommand::Copy { src_rect, .. } if debt.intersects_rect(src_rect))
        };
        while let Some(p) = self.queue.entries().iter().position(|e| reads_debt(&debt, e)) {
            debt.union_rect(&self.queue.remove(p).cmd.dest_rect());
            self.stats.overflow_evicted += 1;
        }
        self.overflow_debt.union(&debt);
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
        self.flush_planned(now, pipe, trace, plane, counters, &PlanRole::Alone)
    }

    /// [`flush_shared`](Self::flush_shared) in the `role` the plane's
    /// plan table gave this buffer for its current state
    /// ([`Plans::resolve`](crate::plane::Plans::resolve), which must
    /// have seen the buffer as it is now, at this `now`): a leader
    /// records what it derives and publishes it, a follower flushes by
    /// the leader's plan. Output, statistics and what stays queued are
    /// those of the plain flush in every role.
    pub(crate) fn flush_planned(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
        role: &PlanRole,
    ) -> Vec<(SimTime, Message)> {
        let (follow, mut record) = match role {
            PlanRole::Alone => (None, None),
            PlanRole::Lead(_) => (None, Some(FlushPlan::default())),
            // A leader that panicked published nothing.
            PlanRole::Follow(slot) => (slot.plan(), None),
        };
        let out = self.flush_loop(now, pipe, trace, plane, counters, follow, record.as_mut());
        if let (PlanRole::Lead(slot), Some(plan)) = (role, record) {
            slot.publish(plan);
        }
        out
    }

    /// The flush loop — the only one: plain, leading and following
    /// flushes differ in where an entry's parts and a part's form come
    /// from, and in nothing after that.
    #[allow(clippy::too_many_arguments)]
    fn flush_loop(
        &mut self,
        now: SimTime,
        pipe: &mut TcpPipe,
        trace: &mut PacketTrace,
        plane: Option<&WirePlane>,
        counters: &mut PlaneCounters,
        follow: Option<&FlushPlan>,
        mut record: Option<&mut FlushPlan>,
    ) -> Vec<(SimTime, Message)> {
        let mut out = Vec::new();
        if !self.ship_fallbacks(now, pipe, trace, &mut out) {
            return out;
        }
        // Entries delivered so far: the next one's place in the plan.
        let mut delivered = 0;
        // Realtime queue, then normal queues in increasing order.
        let slots = std::iter::once(QueueSlot::Realtime).chain((0..NUM_QUEUES).map(QueueSlot::Normal));
        for slot in slots {
            while let Some(seq) = self.deque_mut(slot).pop_front() {
                // An evicted entry leaves its number behind: skip it.
                let Some(pos) = self.queue.position(seq) else { continue };
                let entry = self.queue.remove(pos);
                let wait_us = now.0.saturating_sub(entry.tag.enqueued.0);
                // The leader's parts where its plan reaches this entry
                // (it stops where the leader's pipe filled), this
                // buffer's own otherwise.
                let planned = follow.and_then(|plan| plan.entries.get(delivered));
                delivered += 1;
                let own = if planned.is_none() { entry.materialize() } else { Vec::new() };
                let count = planned.map_or(own.len(), Vec::len);
                let part = |i: usize| match planned {
                    Some(parts) => &parts[i].cmd,
                    None => &own[i],
                };
                // What a leader adds to its parts to make the plan.
                let mut forms = Vec::new();
                let mut leftover: Vec<DisplayCommand> = Vec::new();
                for i in 0..count {
                    // Always this viewer's own pipe, before every part.
                    let writable = pipe.writable_bytes(now);
                    let formed = match planned.and_then(|parts| parts[i].form.as_ref()) {
                        Some(form) => Some(self.adopt(form)),
                        None => self.form_for(part(i), writable, plane, counters),
                    };
                    if record.is_some() {
                        forms.push(formed.as_ref().and_then(|f| f.shareable().cloned()));
                    }
                    let whole =
                        formed.map(|formed| self.settle(formed)).filter(|wire| wire.size <= writable);
                    if let Some(wire) = whole {
                        self.ship(wire, now, pipe, trace, wait_us, counters, &mut out);
                        continue;
                    }
                    // Nothing whole fits: try splitting an uncompressed
                    // RAW to fill the space there is.
                    let cut = split_raw(part(i), writable);
                    #[cfg(test)]
                    let cut = if self.reference_split { split_by_copy(part(i), writable) } else { cut };
                    if let Some((head, tail)) = cut {
                        let head = self
                            .prepare_wire(&head, writable, plane, counters)
                            .filter(|wire| wire.size <= writable);
                        if let Some(wire) = head {
                            self.stats.splits += 1;
                            self.ship(wire, now, pipe, trace, wait_us, counters, &mut out);
                            leftover.push(tail);
                            leftover.extend((i + 1..count).map(|j| part(j).clone()));
                            break;
                        }
                    }
                    leftover.extend((i..count).map(|j| part(j).clone()));
                    break;
                }
                if let Some(plan) = record.as_deref_mut() {
                    // Parts the leader's pipe never let it reach have
                    // no form.
                    forms.resize_with(own.len(), || None);
                    let parts = own.into_iter().zip(forms).map(|(cmd, form)| PlannedPart { cmd, form });
                    plan.entries.push(parts.collect());
                }
                if !leftover.is_empty() {
                    // Requeue the remainder at the head of the same
                    // queue, preserving order, and stop flushing. It is
                    // what is left of an entry the overlap rule already
                    // clipped, so it bypasses the rule.
                    for cmd in leftover.into_iter().rev() {
                        let seq = self.queue.insert(cmd, entry.tag);
                        self.deque_mut(slot).push_front(seq);
                    }
                    return out;
                }
            }
        }
        out
    }

    /// A cheap digest of the state a flush at `now` starts from. Only
    /// picks the plan table's bucket; [`in_state`](Self::in_state)
    /// decides.
    pub(crate) fn flush_fingerprint(&self, now: SimTime) -> u64 {
        let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01B3);
        let (entries, next_seq) = (self.queue.entries(), self.queue.next_seq());
        let h = mix(mix(0xCBF2_9CE4_8422_2325, now.0), entries.len() as u64);
        entries.iter().fold(h, |h, e| mix(mix(h, next_seq - e.seq), e.cmd.wire_size()))
    }

    /// A copy of the state a flush at `now` starts from, for a plan to
    /// be pinned on (payloads are shared, not copied).
    pub(crate) fn flush_state(&self, now: SimTime) -> FlushState {
        FlushState {
            now,
            raw_compress_bpp: self.raw_compress_bpp,
            next_seq: self.queue.next_seq(),
            entries: self.queue.entries().to_vec(),
            realtime: self.realtime.clone(),
            queues: self.queues.clone(),
        }
    }

    /// Whether a flush of this buffer at `now` starts from exactly
    /// `state`.
    pub(crate) fn in_state(&self, now: SimTime, state: &FlushState) -> bool {
        let (mine, theirs) = (self.queue.next_seq(), state.next_seq);
        let same_seq = |a: u64, b: u64| mine.wrapping_sub(a) == theirs.wrapping_sub(b);
        // Lengths first, then element by element. Even with numbers
        // compared as they stand, the derived `==` on
        // `[VecDeque<u64>; NUM_QUEUES]` is the wrong tool: it measured
        // 2.2× this on an epoch's deques warm (≈ 75 ns against ≈ 33),
        // and ≈ 2 µs a call in the sizing prototype's cold caches —
        // as much as the whole of a follower's flush.
        let same_order = |a: &VecDeque<u64>, b: &VecDeque<u64>| {
            a.len() == b.len() && a.iter().zip(b).all(|(a, b)| same_seq(*a, *b))
        };
        let same_entry = |a: &QueuedCommand<Sched>, b: &QueuedCommand<Sched>| {
            same_seq(a.seq, b.seq)
                && a.tag == b.tag
                && a.class == b.class
                && a.visible == b.visible
                // Last: a pointer compare between class-mates, a byte
                // compare where their queues merged their own copies.
                && a.cmd == b.cmd
        };
        let entries = self.queue.entries();
        now == state.now
            && self.raw_compress_bpp == state.raw_compress_bpp
            && entries.len() == state.entries.len()
            && same_order(&self.realtime, &state.realtime)
            && self.queues.iter().zip(&state.queues).all(|(a, b)| same_order(a, b))
            && entries.iter().zip(&state.entries).all(|(a, b)| same_entry(a, b))
    }
}

/// Splits an uncompressed RAW command into a head that fits in
/// `budget` wire bytes and the remaining tail. Returns `None` when the
/// command is not a splittable RAW or not even one row fits.
///
/// Both halves are views of the command's payload
/// ([`Bytes::slice`](thinc_protocol::Bytes::slice)): a photograph that
/// leaves in seven pieces is cut seven times and copied never, and the
/// pieces take their identity from the photograph's.
fn split_raw(cmd: &DisplayCommand, budget: u64) -> Option<(DisplayCommand, DisplayCommand)> {
    let DisplayCommand::Raw { rect, encoding: RawEncoding::None, data } = cmd else {
        return None;
    };
    if rect.h <= 1 || rect.area() == 0 || data.len() % rect.area() as usize != 0 {
        return None;
    }
    let row_bytes = (data.len() / rect.h as usize) as u64;
    if row_bytes == 0 || budget <= RAW_FRAME_OVERHEAD + row_bytes {
        return None;
    }
    let rows = (((budget - RAW_FRAME_OVERHEAD) / row_bytes) as u32).min(rect.h - 1);
    let split_at = rows as usize * row_bytes as usize;
    let band = |y: i32, h: u32, data| DisplayCommand::Raw {
        rect: thinc_raster::Rect::new(rect.x, y, rect.w, h),
        encoding: RawEncoding::None,
        data,
    };
    Some((
        band(rect.y, rows, data.slice(0..split_at)),
        band(rect.y + rows as i32, rect.h - rows, data.slice(split_at..data.len())),
    ))
}

#[cfg(test)]
mod fit_tests;

#[cfg(test)]
mod plan_tests;

/// The retained split-by-copy: head and tail as fresh allocations, the
/// way `split_raw` cut before payloads had views. Kept verbatim as the
/// reference the view split is tested against (same idiom as
/// `reference_prepare_wire`).
#[cfg(test)]
fn split_by_copy(cmd: &DisplayCommand, budget: u64) -> Option<(DisplayCommand, DisplayCommand)> {
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
mod tests {
    use super::*;
    use thinc_net::tcp::TcpParams;
    use thinc_net::time::SimDuration;
    use thinc_protocol::wire::encode_message;
    use thinc_raster::{Color, Rect};
    use thinc_telemetry::ResilienceMetrics;

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

    /// Ships `msgs` to `client` revision-1 framed.
    fn deliver(client: &mut thinc_client::StreamClient, msgs: &[Message]) {
        for m in msgs {
            client.feed(&encode_message(m));
        }
    }

    fn tile_payload(seed: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect()
    }

    #[test]
    fn a_view_and_its_copy_are_one_entry() {
        // A split RAW leaves the server as views of the original; the
        // client decodes owned bytes. The ledger must take a byte-equal
        // owned payload for the entry a view put there — else the hit
        // ships in full and the two ends' entries stop lining up.
        let rect = Rect::new(0, 0, 16, 16);
        let root = thinc_protocol::Bytes::from(tile_payload(3, 2 * 16 * 16 * 3));
        let view = root.slice(16 * 16 * 3..root.len());
        let copy = thinc_protocol::Bytes::from(view.to_vec());
        assert_ne!(view.content_id(), copy.content_id(), "the trap: a view's id is derived");
        let mut buf = ClientBuffer::new();
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        let mut client = thinc_client::StreamClient::new(16, 16, thinc_raster::PixelFormat::Rgb888);
        buf.push(DisplayCommand::Raw { rect, encoding: RawEncoding::None, data: view }, false);
        let first = drain_all(&mut buf);
        deliver(&mut client, &first);
        buf.push(DisplayCommand::Raw { rect, encoding: RawEncoding::None, data: copy }, false);
        let second = drain_all(&mut buf);
        assert_eq!(second, [Message::CacheRef { hash: first[0].cache_key().unwrap() }]);
        deliver(&mut client, &second);
        assert_eq!(client.resilience_metrics().cache_hits(), 1);
        assert_eq!(buf.cache_keys(), client.cache_store().keys());
    }

    #[test]
    fn entries_are_named_only_for_references_and_never_twice() {
        let mut buf = ClientBuffer::new();
        buf.enable_cache(thinc_protocol::DEFAULT_CACHE_BUDGET);
        let mut client = thinc_client::StreamClient::new(64, 64, thinc_raster::PixelFormat::Rgb888);
        let tile = |i: u8| DisplayCommand::Raw {
            rect: Rect::new(i32::from(i % 8) * 8, 0, 8, 8),
            encoding: RawEncoding::None,
            data: tile_payload(i, 8 * 8 * 3).into(),
        };
        let names = |buf: &ClientBuffer, client: &thinc_client::StreamClient| {
            let ledger = buf.cache.as_ref().map_or(0, |c| c.ledger.names_computed());
            (ledger, client.cache_store().names_computed())
        };
        // Twelve distinct frames and nothing repeated: nobody names.
        for i in 0..12 {
            buf.push(tile(i), false);
            deliver(&mut client, &drain_all(&mut buf));
        }
        assert_eq!(client.cache_store().lru().len(), 12);
        assert_eq!(names(&buf, &client), (0, 0), "a stream with no refs names nothing");
        // Revisits: each referenced entry is named once at each end,
        // however often it is referenced.
        for _ in 0..3 {
            for i in [9, 4, 9] {
                buf.push(tile(i), false);
                let msgs = drain_all(&mut buf);
                assert!(matches!(msgs[..], [Message::CacheRef { .. }]));
                deliver(&mut client, &msgs);
            }
        }
        // The client names newest first up to the match: 11, 10, 9 for
        // the first reference, then 8 down to 4 for the second.
        assert_eq!(names(&buf, &client), (2, 8));
        // Cutting the key set names the rest, once.
        assert_eq!(buf.cache_keys(), client.cache_store().keys());
        assert_eq!(buf.cache_keys(), client.cache_store().keys());
        assert_eq!(names(&buf, &client), (12, 12), "no entry is named twice");
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

    #[test]
    fn what_cannot_be_cut_along_rows_is_not_split_either_way() {
        let cmd = |w, h, len: usize| DisplayCommand::Raw {
            rect: Rect::new(3, 4, w, h),
            encoding: RawEncoding::None,
            data: vec![9; len].into(),
        };
        // (By name: CI counts this file's `split_raw` call sites.)
        let by_view: fn(&DisplayCommand, u64) -> Option<(DisplayCommand, DisplayCommand)> = split_raw;
        // Ragged payloads, no width, no rows, one row, and a
        // well-formed one for contrast.
        let odd = [(8, 8, 191), (8, 8, 8 * 8 * 3 + 8), (0, 8, 24), (8, 0, 0), (8, 1, 24)];
        for budget in [0, RAW_FRAME_OVERHEAD, RAW_FRAME_OVERHEAD + 25, 1 << 20] {
            for (w, h, len) in odd {
                let cmd = cmd(w, h, len);
                assert!(by_view(&cmd, budget).is_none(), "{w}x{h}, {len} B into {budget}");
                assert!(split_by_copy(&cmd, budget).is_none());
            }
            // (Rows of no bytes: the retained reference divides by zero.)
            assert!(by_view(&cmd(8, 8, 0), budget).is_none());
            assert_eq!(by_view(&cmd(8, 8, 192), budget), split_by_copy(&cmd(8, 8, 192), budget));
        }
        assert!(by_view(&cmd(8, 8, 192), RAW_FRAME_OVERHEAD + 25).is_some());
    }

    use super::fit_tests::{payload, Rig};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Cutting a RAW into views of its payload against the retained
        /// `split_by_copy`: RAWs of any geometry, landing on one another so
        /// that what is cut has often been clipped first and what is left
        /// of a cut is cut again (a view of a view), into any pipe and
        /// ledger, the memo emptied at random points (views and copies of
        /// the same bytes go by different identities, and identity may
        /// only skip work). Same bytes out at the same times, same ledger,
        /// same statistics but the codec's, and the same commands left
        /// queued after every flush.
        #[test]
        fn split_by_view_is_split_by_copy(
            // (what, payload, geometry, wait): half pushes, a third
            // flushes, the rest forget.
            script in prop::collection::vec(
                (0u8..6, (0u8..3, 0u8..3), (0i32..2, 0i32..150, 0usize..3, 1u32..170), 0u64..30_000),
                4..32,
            ),
            sndbuf in 3_000u64..70_000,
            budget_pick in 0usize..4,
            with_plane in any::<bool>(),
        ) {
            let budget = [None, Some(6u64), Some(30), Some(4096)][budget_pick].map(|kb| kb * 1024);
            let mut by_copy = Rig::new(sndbuf, budget, false);
            by_copy.buf.reference_split = true;
            let mut by_view = Rig::new(sndbuf, budget, false);
            let mut forgetful = Rig::new(sndbuf, budget, false);
            let mut now = SimTime::ZERO;
            let drain = std::iter::repeat_n((3, (0, 0), (0, 0, 0, 0), 25_000), 600);
            for (what, (kind, seed), (col, y, w, h), after_us) in script.iter().copied().chain(drain) {
                match what {
                    0..=2 => {
                        for rig in [&mut by_copy, &mut by_view, &mut forgetful] {
                            rig.buf.push(payload(kind, seed, col * 64, y, [40, 64, 128][w], h), false);
                        }
                    }
                    3 | 4 => {
                        now += SimDuration::from_micros(after_us);
                        for rig in [&mut by_copy, &mut by_view, &mut forgetful] {
                            rig.flush(now, with_plane);
                        }
                        let queued = |rig: &Rig| {
                            let entries = rig.buf.queue.entries().iter();
                            entries.map(|e| (e.cmd.clone(), e.visible.clone(), e.tag)).collect::<Vec<_>>()
                        };
                        for rig in [&by_view, &forgetful] {
                            prop_assert_eq!(rig.observed(), by_copy.observed());
                            prop_assert_eq!(queued(rig), queued(&by_copy));
                        }
                    }
                    _ => forgetful.buf.memo.clear(),
                }
            }
            prop_assert!(by_copy.buf.is_empty(), "script did not drain");
            prop_assert_eq!(by_view.buf.stats().splits, by_copy.buf.stats().splits);
        }
    }
}
