//! The content-addressed tile cache (protocol revision 3).
//!
//! Revision 3 lets the server replace a display payload the client
//! already holds with a 13-byte [`Message::CacheRef`] carrying the
//! payload's 64-bit content hash ([`crate::hash`]). Both ends keep a
//! byte-budgeted LRU over the same entries:
//!
//! - the **server ledger** holds the full message of every cacheable
//!   payload it has actually sent, so a ref is only ever emitted for
//!   content the client was given;
//! - the **client store** holds the full message of every cacheable
//!   payload it has received, so a ref resolves locally without
//!   touching the network.
//!
//! Because both sides insert the same entries, in the same order, with
//! the same sizes, under the same budget, the two LRUs evict in
//! lockstep. Divergence (loss, a fresh client against a warm ledger)
//! surfaces as a [`Message::CacheMiss`]: the server forgets the entry
//! the client does not hold and repaints its rect from the screen. The
//! consistency argument and its property tests live in
//! `docs/CACHE.md`.
//!
//! Both ends keep that LRU as a [`ContentStore`], which holds a frame
//! under its cheap in-process identity ([`cache_id`]) and computes the
//! wire hash — its *name* — only when a name has to leave the process.
//! Eviction depends only on the order and sizes of operations, never on
//! a key's value, so the lockstep does not care which key is used.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::commands::DisplayCommand;
use crate::message::Message;

/// Default cache byte budget used by both the server ledger and the
/// client store (4 MiB — a few screenfuls of compressed tiles).
///
/// The eviction mirror between ledger and store depends on both sides
/// using the *same* budget; deployments that change one side must
/// change the other, or pay for the divergence in miss round trips.
pub const DEFAULT_CACHE_BUDGET: u64 = 4 * 1024 * 1024;

/// Minimum encoded message size worth caching, in bytes.
///
/// A `CacheRef` costs 13 payload bytes on the wire; referencing
/// anything smaller than this floor would save little and churn the
/// LRU. Both sides apply the same floor via [`Message::cache_key`],
/// keeping their notion of "cacheable" identical.
pub const CACHE_MIN_PAYLOAD: usize = 64;

/// The display command of a cacheable message — the gate
/// [`Message::cache_key`] and [`cache_id`] share.
///
/// Only pixel-bearing display commands are cacheable — `RAW`, `PFILL`
/// and `BITMAP` — and only when the encoded message meets
/// [`CACHE_MIN_PAYLOAD`] (sized by arithmetic, not by encoding it).
/// `COPY` and `SFILL` are already near-minimal on the wire, and
/// non-display traffic (video, audio, control) has its own delivery
/// semantics.
pub(crate) fn cacheable(msg: &Message) -> Option<&DisplayCommand> {
    use DisplayCommand::{Bitmap, Pfill, Raw};
    let Message::Display(cmd @ (Raw { .. } | Pfill { .. } | Bitmap { .. })) = msg else {
        return None;
    };
    (msg.wire_size() >= CACHE_MIN_PAYLOAD as u64).then_some(cmd)
}

/// The in-process identity of a cacheable message, or `None` exactly
/// when [`Message::cache_key`] is `None`.
///
/// Two messages get the same identity exactly when their frames are
/// byte-equal (up to a 64-bit collision, the same stance as the name's),
/// wherever their payloads live — a view of a split RAW and an owned
/// copy of the same bytes are one entry. It reads the payload at
/// [`content_id`](crate::hash::content_id) speed instead of FNV's
/// serial chain, and it never leaves the process: the wire and the disk
/// only ever see the name, [`Message::cache_key`].
pub fn cache_id(msg: &Message) -> Option<u64> {
    cacheable(msg).map(crate::wire::display_frame_id)
}

/// FNV-1a digest over a sorted key set, used by the session-resume
/// handshake to prove ledger/store coherence.
///
/// The client computes this over its store's sorted keys and carries
/// it in `MSG_SESSION_RESUME`; the server computes the same digest
/// over the checkpointed ledger's sorted keys. A match means the
/// mirrored-LRU invariant survived the failover and cache refs can
/// keep flowing; a mismatch forces the cold-reconnect path, which
/// clears both sides. `keys` must already be sorted ascending (the
/// order [`CacheLru::keys`] returns).
pub fn store_digest(sorted_keys: &[u64]) -> u64 {
    let mut state = crate::hash::fnv64(&[]);
    for k in sorted_keys {
        state = crate::hash::fnv64_update(state, &k.to_le_bytes());
    }
    state
}

/// A byte-budgeted LRU keyed by 64-bit content hash.
///
/// Used as both the server-side per-client ledger and the client-side
/// store, parameterized by the value kept per entry. Eviction is
/// strictly deterministic — least-recently-used first, driven only by
/// the insert/touch sequence — which is what lets the two sides stay
/// mirrored without any coordination traffic.
#[derive(Debug, Clone, Default)]
pub struct CacheLru<V> {
    budget: u64,
    used: u64,
    /// Keys from least- (front) to most-recently-used (back).
    order: VecDeque<u64>,
    entries: HashMap<u64, (u64, V)>,
    evictions: u64,
}

impl<V> CacheLru<V> {
    /// An empty cache with the given byte budget.
    pub fn new(budget: u64) -> Self {
        Self {
            budget,
            used: 0,
            order: VecDeque::new(),
            entries: HashMap::new(),
            evictions: 0,
        }
    }

    /// The byte budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Bytes currently accounted to entries.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `key` is held (does not touch LRU order).
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Total entries evicted over the cache's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Size of the largest entry held (0 when empty): no message
    /// bigger than this can be a hit, whatever its key.
    pub fn max_entry_bytes(&self) -> u64 {
        self.entries.values().map(|(size, _)| *size).max().unwrap_or(0)
    }

    /// Looks up `key`, bumping it to most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        if self.entries.contains_key(&key) {
            self.bump(key);
        }
        self.entries.get(&key).map(|(_, v)| v)
    }

    /// Looks up `key` without touching LRU order.
    pub fn peek(&self, key: u64) -> Option<&V> {
        self.entries.get(&key).map(|(_, v)| v)
    }

    /// Bumps `key` to most-recently-used; returns whether it was held.
    pub fn touch(&mut self, key: u64) -> bool {
        if self.entries.contains_key(&key) {
            self.bump(key);
            true
        } else {
            false
        }
    }

    /// Drops `key` (not an eviction) and returns its value, if held.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (size, value) = self.entries.remove(&key)?;
        self.used -= size;
        self.order.retain(|&k| k != key);
        Some(value)
    }

    /// Inserts (or refreshes) `key` at `size` bytes, evicting
    /// least-recently-used entries as needed to stay within budget.
    /// Returns the number of entries evicted. An entry larger than the
    /// whole budget is not inserted at all (both sides apply the same
    /// rule, so neither ever expects the other to hold it).
    pub fn insert(&mut self, key: u64, size: u64, value: V) -> u64 {
        if size > self.budget {
            return 0;
        }
        self.remove(key);
        let mut evicted = 0;
        while self.used + size > self.budget {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some((victim_size, _)) = self.entries.remove(&victim) {
                self.used -= victim_size;
                self.evictions += 1;
                evicted += 1;
            }
        }
        self.used += size;
        self.order.push_back(key);
        self.entries.insert(key, (size, value));
        evicted
    }

    /// Every held key, sorted ascending (not LRU order). The stable
    /// ordering lets two mirrored caches — the server's per-client
    /// ledger and the client's store — be compared for coherence.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Every held entry from least- to most-recently-used, as
    /// `(key, size, value)`.
    ///
    /// This is the serialization order for checkpoints: replaying the
    /// iteration through [`insert`](Self::insert) reconstructs not
    /// just the key set but the exact eviction order, so a restored
    /// ledger keeps evicting in lockstep with the live client store.
    pub fn iter_lru(&self) -> impl DoubleEndedIterator<Item = (u64, u64, &V)> + '_ {
        self.order.iter().filter_map(move |&k| {
            self.entries.get(&k).map(|(size, v)| (k, *size, v))
        })
    }

    /// Drops every entry (budget and lifetime eviction count remain).
    pub fn clear(&mut self) {
        self.used = 0;
        self.order.clear();
        self.entries.clear();
    }

    fn bump(&mut self, key: u64) {
        self.order.retain(|&k| k != key);
        self.order.push_back(key);
    }
}

/// A frame held by a [`ContentStore`]: the message, and its name once
/// something has asked for it.
#[derive(Debug)]
pub struct Held {
    /// The held message.
    pub msg: Message,
    name: OnceLock<u64>,
}

/// The rev-3 content cache as either end keeps it — the server's
/// per-client ledger and the client's store — over one [`CacheLru`]
/// keyed by frame *identity* ([`cache_id`]).
///
/// An entry's *name*, the FNV-1a hash [`Message::cache_key`] that
/// `MSG_CACHE_REF`, `MSG_CACHE_MISS`, resume tokens and checkpoints
/// carry, is computed at most once per entry and only when it has to
/// leave the process: when a reference to the entry is prepared
/// ([`name`](Self::name)), when a name arriving from the wire is
/// resolved ([`find`](Self::find)), and when the key set or the LRU
/// order is read out ([`keys`](Self::keys), [`iter_lru`](Self::iter_lru)).
/// A stream that never references anything never pays for a name.
///
/// Every operation answers what a [`CacheLru<Message>`] keyed by name
/// would answer to the same operations (`lazy_store_is_the_eager_store`
/// holds it to one).
#[derive(Debug)]
pub struct ContentStore {
    lru: CacheLru<Held>,
    /// Name → identity for every entry [`find`](Self::find) has named
    /// or passed over, or [`restore`](Self::restore) brought a name
    /// for — evicted ones too, until the index is pruned.
    named: HashMap<u64, u64>,
    /// Names computed over the store's lifetime.
    names: AtomicU64,
}

impl ContentStore {
    /// An empty store with the given byte budget.
    pub fn new(budget: u64) -> Self {
        Self { lru: CacheLru::new(budget), named: HashMap::new(), names: AtomicU64::new(0) }
    }

    /// The LRU under the store, keyed by identity: what it holds, its
    /// budget, bytes and evictions.
    pub fn lru(&self) -> &CacheLru<Held> {
        &self.lru
    }

    /// Names computed over the store's lifetime: never more than the
    /// entries it was ever asked to name, and 0 for a stream nothing
    /// referred to.
    pub fn names_computed(&self) -> u64 {
        self.names.load(Ordering::Relaxed)
    }

    /// Bumps `id` to most-recently-used; returns whether it was held.
    pub fn touch(&mut self, id: u64) -> bool {
        self.lru.touch(id)
    }

    /// Inserts (or refreshes) `msg` under its identity `id`, which
    /// must be [`cache_id`] of it, at `size` bytes; returns the number
    /// of entries evicted. A refreshed entry keeps its name.
    pub fn insert(&mut self, id: u64, size: u64, msg: Message) -> u64 {
        let name = self.lru.peek(id).and_then(|h| h.name.get().copied());
        self.put(id, size, msg, name)
    }

    /// Drops the held frame `id` — the client reported it does not hold
    /// it — and returns it.
    pub fn forget(&mut self, id: u64) -> Option<Message> {
        self.lru.remove(id).map(|held| held.msg)
    }

    /// Inserts `msg` under the name it was recorded with (a checkpoint
    /// replay); `None` when `msg` is not cacheable.
    pub fn restore(&mut self, name: u64, size: u64, msg: Message) -> Option<u64> {
        let id = cache_id(&msg)?;
        self.named.insert(name, id);
        Some(self.put(id, size, msg, Some(name)))
    }

    fn put(&mut self, id: u64, size: u64, msg: Message, name: Option<u64>) -> u64 {
        // An evicted entry's name stays indexed — a name never stops
        // meaning its identity — until the index outgrows the store.
        if self.named.len() > 2 * self.lru.len() + 64 {
            let lru = &self.lru;
            self.named.retain(|_, id| lru.contains(*id));
        }
        let name = name.map_or_else(OnceLock::new, OnceLock::from);
        self.lru.insert(id, size, Held { msg, name })
    }

    /// The name of the held frame `id`, for a reference to it.
    pub fn name(&self, id: u64) -> Option<u64> {
        self.lru.peek(id).map(|held| Self::name_held(&self.names, held))
    }

    /// The identity of the held frame named `name`, if any. A name not
    /// yet seen is looked for by naming entries newest first until one
    /// matches — a reference is most likely to a recent frame — so an
    /// entry older than the match stays unnamed.
    pub fn find(&mut self, name: u64) -> Option<u64> {
        if let Some(&id) = self.named.get(&name).filter(|&&id| self.lru.contains(id)) {
            return Some(id);
        }
        for (id, _, held) in self.lru.iter_lru().rev() {
            let held_name = Self::name_held(&self.names, held);
            self.named.insert(held_name, id);
            if held_name == name {
                return Some(id);
            }
        }
        None
    }

    /// Resolves a reference: the identity and frame of the entry named
    /// `name`, bumped to most-recently-used. The client keys what it
    /// derives from a frame (its decoded pixels) by that identity,
    /// which changes whenever the bytes do.
    pub fn resolve(&mut self, name: u64) -> Option<(u64, &Message)> {
        let id = self.find(name)?;
        self.lru.get(id).map(|held| (id, &held.msg))
    }

    /// Every held name, sorted ascending — what `store_digest` and the
    /// ledger / store coherence checks compare.
    pub fn keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.iter_lru().map(|(name, _, _)| name).collect();
        keys.sort_unstable();
        keys
    }

    /// Every held frame from least- to most-recently-used, as
    /// `(name, size, message)`: the checkpoint order (see
    /// [`CacheLru::iter_lru`]).
    pub fn iter_lru(&self) -> impl Iterator<Item = (u64, u64, &Message)> + '_ {
        let name = |held| Self::name_held(&self.names, held);
        self.lru.iter_lru().map(move |(_, size, held)| (name(held), size, &held.msg))
    }

    /// Drops every entry (budget, eviction and naming counts remain).
    pub fn clear(&mut self) {
        self.lru.clear();
        self.named.clear();
    }

    /// The one place a held frame is named: its wire key, computed
    /// once.
    fn name_held(names: &AtomicU64, held: &Held) -> u64 {
        *held.name.get_or_init(|| {
            names.fetch_add(1, Ordering::Relaxed);
            held.msg.cache_key().expect("only cacheable frames are held")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::{DisplayCommand, RawEncoding};
    use thinc_raster::{Color, Rect};

    #[test]
    fn store_digest_is_order_and_content_sensitive() {
        assert_eq!(store_digest(&[]), store_digest(&[]));
        assert_eq!(store_digest(&[1, 2, 3]), store_digest(&[1, 2, 3]));
        assert_ne!(store_digest(&[1, 2, 3]), store_digest(&[1, 2, 4]));
        assert_ne!(store_digest(&[1, 2]), store_digest(&[1, 2, 3]));
    }

    #[test]
    fn insert_get_touch() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        assert_eq!(c.insert(1, 40, 10), 0);
        assert_eq!(c.insert(2, 40, 20), 0);
        assert_eq!(c.get(1), Some(&10));
        assert!(c.contains(2));
        assert_eq!(c.used_bytes(), 80);
        assert_eq!(c.len(), 2);
        assert_eq!(c.max_entry_bytes(), 40);
        assert_eq!(CacheLru::<u32>::new(100).max_entry_bytes(), 0);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 40, 10);
        c.insert(2, 40, 20);
        // Touch 1 so 2 becomes LRU.
        assert!(c.touch(1));
        assert_eq!(c.insert(3, 40, 30), 1);
        assert!(c.contains(1));
        assert!(!c.contains(2), "LRU entry evicted");
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_entry_never_inserted() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 40, 10);
        assert_eq!(c.insert(2, 101, 20), 0);
        assert!(!c.contains(2));
        assert!(c.contains(1), "oversized insert evicts nothing");
    }

    #[test]
    fn reinsert_updates_size_without_leak() {
        let mut c: CacheLru<u32> = CacheLru::new(100);
        c.insert(1, 60, 10);
        c.insert(1, 30, 11);
        assert_eq!(c.used_bytes(), 30);
        assert_eq!(c.get(1), Some(&11));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn mirrored_sequences_stay_mirrored() {
        // The consistency model in one test: identical insert/touch
        // sequences against identical budgets hold identical key sets.
        let ops: Vec<(u64, u64)> = (0..200).map(|i| (i % 37, 64 + (i % 7) * 32)).collect();
        let mut a: CacheLru<()> = CacheLru::new(2048);
        let mut b: CacheLru<()> = CacheLru::new(2048);
        for &(key, size) in &ops {
            a.insert(key, size, ());
            b.insert(key, size, ());
            assert_eq!(a.used_bytes(), b.used_bytes());
            assert_eq!(a.evictions(), b.evictions());
            for probe in 0..37 {
                assert_eq!(a.contains(probe), b.contains(probe));
            }
        }
    }

    #[test]
    fn iter_lru_replay_reconstructs_eviction_order() {
        let mut original: CacheLru<u32> = CacheLru::new(200);
        original.insert(1, 50, 10);
        original.insert(2, 50, 20);
        original.insert(3, 50, 30);
        original.touch(1); // LRU order is now 2, 3, 1.
        let mut replayed: CacheLru<u32> = CacheLru::new(original.budget());
        for (k, size, v) in original.iter_lru() {
            replayed.insert(k, size, *v);
        }
        assert_eq!(replayed.keys(), original.keys());
        assert_eq!(replayed.used_bytes(), original.used_bytes());
        // Same eviction order: one more insert evicts the same victim.
        original.insert(4, 120, 40);
        replayed.insert(4, 120, 40);
        assert_eq!(replayed.keys(), original.keys());
    }

    #[test]
    fn cache_key_selects_pixel_bearing_commands_over_the_floor() {
        let raw = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 8),
            encoding: RawEncoding::None,
            data: vec![7; 8 * 8 * 3].into(),
        });
        let enc = crate::wire::encode_message(&raw);
        assert_eq!(raw.cache_key(), Some(crate::hash::fnv64(&enc)), "the key is the frame's FNV");

        let tiny = Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 2, 2),
            encoding: RawEncoding::None,
            data: vec![7; 12].into(),
        });
        assert!(tiny.cache_key().is_none(), "below the size floor");

        let sfill = Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 1024, 768),
            color: Color::WHITE,
        });
        assert!(sfill.cache_key().is_none(), "SFILL is never cached");
        assert!(cache_id(&sfill).is_none() && cache_id(&tiny).is_none());
    }

    mod lazy_vs_eager {
        use super::*;
        use crate::commands::Tile;
        use crate::Bytes;
        use proptest::prelude::*;

        /// Frames whose bytes recur under different holders: views of
        /// one root beside owned copies of the same ranges (one frame
        /// each), the same bytes at another rect (another frame), one
        /// frame over any budget below 3 KB, and PFILL / BITMAP.
        fn pool() -> Vec<Message> {
            let root: Bytes = (0..3000u32).map(|i| (i * 37 + i / 11) as u8).collect();
            let raw = |x: i32, data: Bytes| {
                Message::Display(DisplayCommand::Raw {
                    rect: Rect::new(x, 0, 8, 8),
                    encoding: RawEncoding::None,
                    data,
                })
            };
            let bitmap = |bg| {
                Message::Display(DisplayCommand::Bitmap {
                    rect: Rect::new(0, 0, 64, 16),
                    bits: root[..128].to_vec(),
                    fg: Color::WHITE,
                    bg,
                })
            };
            vec![
                raw(0, root.slice(0..192)),
                raw(0, Bytes::from(root[0..192].to_vec())),
                raw(0, root.slice(192..576)),
                raw(8, Bytes::from(root[192..576].to_vec())),
                raw(16, root.slice(600..1800)),
                raw(0, root.clone()),
                Message::Display(DisplayCommand::Pfill {
                    rect: Rect::new(0, 0, 32, 32),
                    tile: Tile { width: 4, height: 4, pixels: root[..48].to_vec() },
                }),
                bitmap(Some(Color::rgb(1, 2, 3))),
                bitmap(None),
            ]
        }

        #[derive(Debug, Clone)]
        enum Op {
            /// A full frame is sent (ledger) / received (store).
            Insert(usize),
            /// The client resolves a reference to a frame.
            Ref(usize),
            /// The server substitutes a reference if it holds the frame.
            Hit(usize),
            /// The server forgets the entry a miss names (a pool
            /// frame's, or one it never held).
            Miss(Result<usize, u64>),
            /// A cold reconnect empties both ends.
            ColdReset,
            /// A warm redial presents the store digest.
            WarmRedial,
            /// The store is checkpointed and restored from the image.
            Restore,
        }

        fn op(n: usize) -> impl Strategy<Value = Op> {
            // Inserts are listed three times: the stream is mostly them.
            prop_oneof![
                (0..n).prop_map(Op::Insert),
                (0..n).prop_map(Op::Insert),
                (0..n).prop_map(Op::Insert),
                (0..n).prop_map(Op::Ref),
                (0..n).prop_map(Op::Hit),
                (0..n).prop_map(|i| Op::Miss(Ok(i))),
                any::<u64>().prop_map(|name| Op::Miss(Err(name))),
                Just(Op::ColdReset),
                Just(Op::WarmRedial),
                Just(Op::Restore),
            ]
        }

        /// The lazy store's LRU order by name, read without naming
        /// anything, so checking every step leaves laziness intact.
        fn lru_by_name(lazy: &ContentStore) -> Vec<(u64, u64)> {
            let name = |h: &Held| h.name.get().copied().or_else(|| h.msg.cache_key());
            lazy.lru.iter_lru().map(|(_, size, h)| (name(h).unwrap(), size)).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The identity-keyed, name-on-demand store answers every
            /// ledger and store operation — a forgotten miss included —
            /// as the name-keyed
            /// `CacheLru<Message>` it replaced does, and leaves the same
            /// keys, digest, LRU order, bytes and evictions behind.
            #[test]
            fn lazy_store_is_the_eager_store(
                budget in 600u64..4000,
                ops in prop::collection::vec(op(9), 1..80),
            ) {
                let pool = pool();
                let key = |i: usize| pool[i].cache_key().unwrap();
                let id = |i: usize| cache_id(&pool[i]).unwrap();
                let mut eager: CacheLru<Message> = CacheLru::new(budget);
                let mut lazy = ContentStore::new(budget);
                let mut entries = 0u64; // new entries; a refresh is not one
                for op in ops {
                    match op {
                        Op::Insert(i) => {
                            let size = pool[i].wire_size();
                            let refresh = lazy.lru().contains(id(i));
                            let e = eager.insert(key(i), size, pool[i].clone());
                            let l = lazy.insert(id(i), size, pool[i].clone());
                            prop_assert_eq!(e, l);
                            entries += u64::from(!refresh && lazy.lru().contains(id(i)));
                        }
                        Op::Ref(i) => {
                            let e = eager.get(key(i)).cloned();
                            let l = lazy.resolve(key(i)).map(|(l_id, msg)| (l_id, msg.clone()));
                            prop_assert_eq!(l, e.map(|msg| (id(i), msg)));
                        }
                        Op::Hit(i) => {
                            let e = eager.touch(key(i)).then(|| key(i));
                            let l = lazy.lru().contains(id(i)).then(|| lazy.name(id(i))).flatten();
                            lazy.touch(id(i));
                            prop_assert_eq!(l, e);
                        }
                        Op::Miss(which) => {
                            let name = which.map_or_else(|n| n, key);
                            let e = eager.remove(name);
                            let l = lazy.find(name).and_then(|id| lazy.forget(id));
                            prop_assert_eq!(l, e);
                        }
                        Op::ColdReset => {
                            eager.clear();
                            lazy.clear();
                        }
                        Op::WarmRedial => {
                            let digest = store_digest(&eager.keys());
                            prop_assert_eq!(store_digest(&lazy.keys()), digest);
                        }
                        Op::Restore => {
                            let mut e = CacheLru::new(budget);
                            for (k, size, msg) in eager.iter_lru() {
                                e.insert(k, size, msg.clone());
                            }
                            let mut l = ContentStore::new(budget);
                            for (name, size, msg) in lazy.iter_lru() {
                                prop_assert_eq!(l.restore(name, size, msg.clone()), Some(0));
                            }
                            (eager, lazy) = (e, l);
                        }
                    }
                    let lru = lru_by_name(&lazy);
                    let eager_lru: Vec<(u64, u64)> =
                        eager.iter_lru().map(|(k, s, _)| (k, s)).collect();
                    prop_assert_eq!(&lru, &eager_lru);
                    let mut keys: Vec<u64> = lru.iter().map(|&(k, _)| k).collect();
                    keys.sort_unstable();
                    prop_assert_eq!(&keys, &eager.keys());
                    prop_assert_eq!(store_digest(&keys), store_digest(&eager.keys()));
                    prop_assert_eq!(lazy.lru().used_bytes(), eager.used_bytes());
                    prop_assert_eq!(lazy.lru().evictions(), eager.evictions());
                    prop_assert_eq!(lazy.lru().len(), eager.len());
                    // A name in the index only ever means its own
                    // entry's identity.
                    for (&name, &id) in &lazy.named {
                        let held = lazy.lru.peek(id).and_then(|h| h.name.get().copied());
                        prop_assert!(held.is_none_or(|held| held == name));
                    }
                }
                prop_assert!(lazy.names_computed() <= entries, "an entry was named twice");
            }
        }

        #[test]
        fn the_name_index_is_pruned_to_the_store() {
            // Every entry is named as it is referenced, then evicted by
            // the next: the index keeps only a bounded tail of names.
            let mut store = ContentStore::new(256);
            for i in 0..1000u32 {
                let msg = Message::Display(DisplayCommand::Raw {
                    rect: Rect::new(0, 0, 8, 8),
                    encoding: RawEncoding::None,
                    data: i.to_le_bytes().repeat(48).into(),
                });
                let id = cache_id(&msg).unwrap();
                store.insert(id, msg.wire_size(), msg.clone());
                assert_eq!(store.find(msg.cache_key().unwrap()), Some(id));
            }
            assert_eq!(store.lru().len(), 1);
            assert!(store.named.len() <= 2 + 64 + 1, "{} names held", store.named.len());
            assert_eq!(store.names_computed(), 1000);
        }

        #[test]
        fn a_view_and_its_copy_name_and_identify_alike() {
            let pool = pool();
            let (view, copy) = (&pool[0], &pool[1]);
            let payload = |msg: &Message| match msg {
                Message::Display(DisplayCommand::Raw { data, .. }) => data.clone(),
                other => panic!("{other:?}"),
            };
            let (v, c) = (payload(view), payload(copy));
            assert_ne!(v.content_id(), c.content_id(), "a view's own id is derived from its root");
            assert_eq!(cache_id(view), cache_id(copy));
            assert_eq!(view.cache_key(), copy.cache_key());
            assert_ne!(cache_id(&pool[2]), cache_id(&pool[3]), "same bytes at another rect");
            let mut store = ContentStore::new(DEFAULT_CACHE_BUDGET);
            store.insert(cache_id(view).unwrap(), view.wire_size(), view.clone());
            let id = cache_id(view).unwrap();
            assert_eq!(store.resolve(copy.cache_key().unwrap()), Some((id, copy)));
        }
    }
}
