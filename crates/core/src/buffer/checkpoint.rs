//! The buffer's checkpoint record.

use std::collections::VecDeque;

use thinc_net::time::SimTime;
use thinc_protocol::codec::{BufMut, Field};
use thinc_protocol::message::Message;
use thinc_protocol::{record, DecodeError};
use thinc_raster::Region;
use thinc_telemetry::BufferStats;

use super::wire::CacheEngine;
use super::{ClientBuffer, Sched};
use crate::checkpoint::{CheckpointError, Framed};
use crate::queue::{classify, CommandQueue, QueuedCommand};
use crate::scheduler::{QueueSlot, NUM_QUEUES};

/// How many leading rows of [`BufferStats`] the checkpoint record
/// carries (`pushed` … `overflow_evicted`); the codec-work rows after
/// them were never checkpointed.
const CHECKPOINTED_STATS: usize = 7;

record! {
    /// A buffer's full delivery state.
    ///
    /// Entries carry their *internal* state — exact clipped visible
    /// regions, scheduler slots, deque orders, sequence numbers —
    /// rather than being replayed through [`push`](ClientBuffer::push)
    /// at restore time. Replaying would re-run the merge/evict pass
    /// against an empty buffer and produce different entries (breaking
    /// byte-exact re-checkpointing), and an entry whose visibility was
    /// clipped by a later-flushed command would repaint stale pixels if
    /// restored unclipped.
    ///
    /// Deliberately not recorded (documented losses, identical on every
    /// re-checkpoint): scheduler/protocol telemetry and the ledger's
    /// lifetime eviction count restart at zero; the scratch compression
    /// buffers are a pure cache. (What encodes found out is the
    /// session's form store's, never a buffer's.)
    pub(crate) struct BufferRecord {
        next_seq: u64,
        clock: u64,
        stats: [u64; CHECKPOINTED_STATS],
        raw_compress_bpp: Option<u64>,
        fifo: bool,
        byte_bound: Option<u64>,
        degrade_bound_divisor: u64,
        degrade_raw_first: bool,
        overflow_debt: Region,
        entries: Vec<EntryRecord>,
        /// The real-time deque, then the normal ones, each in its
        /// order: flush-split leftovers go to the *front* of their deque
        /// with fresh sequence numbers, so deque order is not derivable
        /// from entry order.
        deques: [Vec<u64>; 1 + NUM_QUEUES],
        cache: Option<LedgerRecord>,
    }
}

record! {
    /// One queued command.
    pub(crate) struct EntryRecord {
        seq: u64,
        slot: QueueSlot,
        enqueued: u64,
        visible: Region,
        cmd: Framed,
    }
}

record! {
    /// The content-cache ledger, its entries in LRU order.
    pub(crate) struct LedgerRecord {
        budget: u64,
        hits: u64,
        misses: u64,
        bytes_saved: u64,
        entries: Vec<LedgerEntry>,
    }
}

record! {
    /// One ledger entry, by name.
    pub(crate) struct LedgerEntry {
        name: u64,
        size: u64,
        msg: Framed,
    }
}

/// A normal queue's index, or 0xFF for the real-time queue.
impl Field for QueueSlot {
    const MIN_LEN: u64 = 1;
    fn put(&self, out: &mut impl BufMut) {
        match self {
            QueueSlot::Realtime => 0xFF,
            QueueSlot::Normal(q) => *q as u8,
        }
        .put(out);
    }
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        match u8::get(buf)? {
            0xFF => Ok(QueueSlot::Realtime),
            q if (q as usize) < NUM_QUEUES => Ok(QueueSlot::Normal(q as usize)),
            _ => Err(DecodeError::Malformed("entry queue slot")),
        }
    }
}

impl ClientBuffer {
    /// The buffer's checkpoint record.
    pub(crate) fn record(&self) -> BufferRecord {
        // Stale slots (evicted entries, cleaned lazily at pop) are
        // left out, so a restored buffer re-records byte-identically.
        let live = |deque: &VecDeque<u64>| {
            deque.iter().filter(|seq| self.queue.position(**seq).is_some()).copied().collect()
        };
        let stats = self.stats.values();
        BufferRecord {
            next_seq: self.queue.next_seq(),
            clock: self.clock.0,
            stats: std::array::from_fn(|i| stats[i]),
            raw_compress_bpp: self.raw_compress_bpp.map(|b| b as u64),
            fifo: self.fifo,
            byte_bound: self.byte_bound,
            degrade_bound_divisor: self.degrade_bound_divisor,
            degrade_raw_first: self.degrade_raw_first,
            overflow_debt: self.overflow_debt.clone(),
            entries: self
                .queue
                .entries()
                .iter()
                .map(|e| EntryRecord {
                    seq: e.seq,
                    slot: e.tag.slot,
                    enqueued: e.tag.enqueued.0,
                    visible: e.visible.clone(),
                    cmd: Framed(Message::Display(e.cmd.clone())),
                })
                .collect(),
            deques: std::array::from_fn(|i| live(if i == 0 { &self.realtime } else { &self.queues[i - 1] })),
            // Cutting the checkpoint names every entry; replaying them
            // least recent first through `restore` rebuilds the exact
            // eviction order (the held total fits the budget, so replay
            // never evicts).
            cache: self.cache.as_ref().map(|c| LedgerRecord {
                budget: c.ledger.lru().budget(),
                hits: c.hits,
                misses: c.misses,
                bytes_saved: c.bytes_saved,
                entries: c
                    .ledger
                    .iter_lru()
                    .map(|(name, size, msg)| LedgerEntry { name, size, msg: Framed(msg.clone()) })
                    .collect(),
            }),
        }
    }

    /// Rebuilds a buffer from its [`record`](Self::record). An entry
    /// that is not a display command, or a ledger entry that is not
    /// cacheable, is a typed error, never an out-of-invariant buffer.
    pub(crate) fn from_record(rec: BufferRecord) -> Result<Self, CheckpointError> {
        let mut buf = ClientBuffer::new();
        buf.clock = SimTime(rec.clock);
        let mut stats = [0; BufferStats::LEN];
        stats[..CHECKPOINTED_STATS].copy_from_slice(&rec.stats);
        buf.stats = BufferStats::from_values(stats);
        buf.raw_compress_bpp = rec.raw_compress_bpp.map(|b| b as usize);
        buf.fifo = rec.fifo;
        buf.byte_bound = rec.byte_bound;
        buf.degrade_bound_divisor = rec.degrade_bound_divisor;
        buf.degrade_raw_first = rec.degrade_raw_first;
        buf.overflow_debt = rec.overflow_debt;
        let mut entries = Vec::with_capacity(rec.entries.len());
        for e in rec.entries {
            let Message::Display(cmd) = e.cmd.0 else {
                return Err(CheckpointError::Malformed("entry is not a display command"));
            };
            let tag = Sched { slot: e.slot, enqueued: SimTime(e.enqueued) };
            entries.push(QueuedCommand { seq: e.seq, class: classify(&cmd), cmd, visible: e.visible, tag });
        }
        buf.queue = CommandQueue::from_parts(entries, rec.next_seq);
        let [realtime, queues @ ..] = rec.deques;
        buf.realtime = realtime.into();
        buf.queues = queues.map(VecDeque::from);
        if let Some(ledger) = rec.cache {
            let mut cache = CacheEngine {
                ledger: thinc_protocol::cache::ContentStore::new(ledger.budget),
                hits: ledger.hits,
                misses: ledger.misses,
                bytes_saved: ledger.bytes_saved,
            };
            for e in ledger.entries {
                let not_cacheable = CheckpointError::Malformed("ledger entry is not cacheable");
                cache.ledger.restore(e.name, e.size, e.msg.0).ok_or(not_cacheable)?;
            }
            buf.cache = Some(cache);
        }
        Ok(buf)
    }
}
