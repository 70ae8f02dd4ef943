//! The buffer's checkpoint record (layout version 2).

use std::collections::VecDeque;

use thinc_net::time::SimTime;
use thinc_protocol::message::Message;
use thinc_telemetry::BufferStats;

use super::wire::CacheEngine;
use super::{ClientBuffer, Sched};
use crate::checkpoint::{CheckpointError, Reader, Writer};
use crate::queue::{classify, CommandQueue, QueuedCommand};
use crate::scheduler::{QueueSlot, NUM_QUEUES};

/// How many leading rows of [`BufferStats`] the checkpoint record
/// carries (`pushed` … `overflow_evicted`); the codec-work rows after
/// them were never checkpointed.
const CHECKPOINTED_STATS: usize = 7;

impl ClientBuffer {
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
    pub(crate) fn encode_checkpoint(&self, w: &mut Writer) {
        w.u64(self.queue.next_seq());
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
        w.u32(self.queue.len() as u32);
        for e in self.queue.entries() {
            w.u64(e.seq);
            w.u8(match e.tag.slot {
                QueueSlot::Realtime => 0xFF,
                QueueSlot::Normal(q) => q as u8,
            });
            w.u64(e.tag.enqueued.0);
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
        let live = |seq: &&u64| self.queue.position(**seq).is_some();
        for deque in std::iter::once(&self.realtime).chain(&self.queues) {
            let seqs: Vec<u64> = deque.iter().filter(live).copied().collect();
            w.u32(seqs.len() as u32);
            for seq in seqs {
                w.u64(seq);
            }
        }
        match &self.cache {
            None => w.u8(0),
            Some(c) => {
                w.u8(1);
                w.u64(c.ledger.lru().budget());
                w.u64(c.hits);
                w.u64(c.misses);
                w.u64(c.bytes_saved);
                w.u32(c.fallbacks.len() as u32);
                for msg in &c.fallbacks {
                    w.bytes(&thinc_protocol::wire::encode_message(msg));
                }
                // LRU order, least-recent first, by name: replaying
                // through `restore` reconstructs the exact eviction
                // order (the held total fits the budget, so replay
                // never evicts). Cutting the checkpoint names every
                // entry.
                w.u32(c.ledger.lru().len() as u32);
                for (name, size, msg) in c.ledger.iter_lru() {
                    w.u64(name);
                    w.u64(size);
                    w.bytes(&thinc_protocol::wire::encode_message(msg));
                }
            }
        }
    }

    /// Rebuilds a buffer from [`encode_checkpoint`]
    /// (Self::encode_checkpoint) output. Every length, tag, and
    /// message payload is validated — corrupt input yields a typed
    /// error, never a panic or an out-of-invariant buffer.
    pub(crate) fn decode_checkpoint(
        r: &mut Reader<'_>,
    ) -> Result<Self, CheckpointError> {
        let mut buf = ClientBuffer::new();
        let next_seq = r.u64()?;
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
        let mut entries = Vec::new();
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
            entries.push(QueuedCommand {
                seq,
                class: classify(&cmd),
                cmd,
                visible,
                tag: Sched { slot, enqueued },
            });
        }
        buf.queue = CommandQueue::from_parts(entries, next_seq);
        for deque in std::iter::once(&mut buf.realtime).chain(&mut buf.queues) {
            for _ in 0..r.u32()? {
                deque.push_back(r.u64()?);
            }
        }
        match r.u8()? {
            0 => {}
            1 => {
                let budget = r.u64()?;
                let mut cache = CacheEngine {
                    ledger: thinc_protocol::cache::ContentStore::new(budget),
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
                    let name = r.u64()?;
                    let size = r.u64()?;
                    let msg = decode_checkpoint_message(r.bytes()?)?;
                    let not_cacheable = CheckpointError::Malformed("ledger entry is not cacheable");
                    cache.ledger.restore(name, size, msg).ok_or(not_cacheable)?;
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
pub(crate) fn decode_checkpoint_message(data: &[u8]) -> Result<Message, CheckpointError> {
    match thinc_protocol::wire::decode_message(data) {
        Ok((msg, used)) if used == data.len() => Ok(msg),
        Ok(_) => Err(CheckpointError::Malformed("trailing bytes inside embedded message")),
        Err(_) => Err(CheckpointError::Malformed("embedded message does not decode")),
    }
}
