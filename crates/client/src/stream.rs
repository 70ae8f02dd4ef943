//! The client's wire-facing layer: byte stream in, display out.
//!
//! [`StreamClient`] couples a [`FrameReader`] to a [`ThincClient`]:
//! raw bytes from the connection are fed in, complete messages are
//! decoded and applied, and decode failures are survived — the
//! reader scans forward to the next plausible frame boundary and the
//! client flags that it wants a full refresh from the server (the
//! session's true state lives there, so recovery is always possible).
//! Every error, resync, and skipped byte is counted in the client's
//! resilience accounting.

use std::collections::VecDeque;

use thinc_net::time::{SimDuration, SimTime};
use thinc_protocol::cache::{cache_id, ContentStore};
use thinc_protocol::commands::DisplayCommand;
use thinc_protocol::message::Message;
use thinc_protocol::wire::{FrameReader, IntegrityCounters};
use thinc_raster::{PixelFormat, Rect, Region};

use crate::client::ThincClient;
use crate::hardware::HardwareCaps;
use crate::reconnect::ReconnectPolicy;

/// How long bytes may sit in the reader with zero decode progress
/// before the framing is declared wedged. A corrupted length field
/// can swallow a frame boundary without ever producing a decode
/// error or CRC failure — the reader just waits for a frame that
/// cannot complete, silently eating every later frame fed into it.
/// Any real frame crosses a sane link in well under this; kept below
/// typical liveness timeouts so the client recovers itself before
/// the server declares it dead.
const FRAME_STALL_TIMEOUT: SimDuration = SimDuration::from_millis(1_500);

/// A [`ThincClient`] fed directly from the wire, with decode-error
/// recovery.
pub struct StreamClient {
    client: ThincClient,
    reader: FrameReader,
    /// Set when damage forced the reader to skip bytes (or the link
    /// was re-established): the display may be stale and the server
    /// should resync us. Cleared only when opaque server updates have
    /// covered the whole viewport since the latch — an acknowledgement
    /// that a refresh was *requested* is not evidence it *arrived*.
    needs_refresh: bool,
    /// Viewport area repainted by opaque commands since the latch.
    refresh_cover: Region,
    /// Automatic refresh-request issuance, when installed.
    policy: Option<ReconnectPolicy>,
    /// Messages applied over the client's lifetime — progress marker
    /// for the policy's stalled-framing detection.
    applied_total: u64,
    /// `applied_total` when the policy last fired an attempt.
    applied_at_attempt: u64,
    /// When the current no-progress-with-pending-bytes episode began
    /// (`None` while the reader is empty or decoding normally).
    stall_since: Option<SimTime>,
    /// `applied_total` at the start of that episode.
    stall_applied_mark: u64,
    /// Reader integrity counters already folded into `resilience`
    /// (the reader keeps cumulative tallies; we move the deltas).
    integrity_base: IntegrityCounters,
    /// Content-addressed store (protocol revision 3): every cacheable
    /// full payload received is kept here so a later
    /// [`Message::CacheRef`] can be resolved locally. Mirrors the
    /// server's ledger (same budget, same sizes, same order), and
    /// deliberately survives [`reconnect`](Self::reconnect) so a
    /// resync can repay refresh debt out of the cache. Entries are
    /// held by identity and named only when a reference needs it.
    cache: ContentStore,
    /// Cache misses owed to the server (drained by
    /// [`take_cache_miss`](Self::take_cache_miss)).
    pending_cache_miss: VecDeque<Message>,
    /// A warm resume is in flight: a [`resume`](Self::resume) redial
    /// presented a token and the next server message decides the
    /// outcome (a fresh `ServerHello` means the token was rejected —
    /// cold restart; anything else confirms the warm path).
    resume_pending: bool,
    resilience: thinc_telemetry::ResilienceMetrics,
}

impl StreamClient {
    /// A stream client with the given display geometry.
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        Self::wrap(ThincClient::new(width, height, format))
    }

    /// A stream client with explicit hardware capabilities.
    pub fn with_hardware(width: u32, height: u32, format: PixelFormat, caps: HardwareCaps) -> Self {
        Self::wrap(ThincClient::with_hardware(width, height, format, caps))
    }

    /// Wraps an existing client.
    pub fn wrap(client: ThincClient) -> Self {
        Self {
            client,
            reader: FrameReader::new(),
            needs_refresh: false,
            refresh_cover: Region::new(),
            policy: None,
            applied_total: 0,
            applied_at_attempt: 0,
            stall_since: None,
            stall_applied_mark: 0,
            integrity_base: IntegrityCounters::default(),
            cache: ContentStore::new(thinc_protocol::DEFAULT_CACHE_BUDGET),
            pending_cache_miss: VecDeque::new(),
            resume_pending: false,
            resilience: thinc_telemetry::ResilienceMetrics::new(),
        }
    }

    /// Installs a [`ReconnectPolicy`]: while the display is stale,
    /// [`poll_reconnect`](Self::poll_reconnect) issues
    /// [`Message::RefreshRequest`]s on the policy's backoff schedule.
    pub fn with_reconnect_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The installed reconnect policy, if any.
    pub fn reconnect_policy(&self) -> Option<&ReconnectPolicy> {
        self.policy.as_ref()
    }

    /// Sets the content-addressed store's byte budget. The budget
    /// must match the server ledger's (the session's cache budget)
    /// for the eviction mirror to hold — call this before any traffic
    /// when the session runs a non-default budget. Replaces the store
    /// (which is empty before the first payload arrives anyway).
    pub fn with_cache_budget(mut self, budget: u64) -> Self {
        self.cache = ContentStore::new(budget);
        self
    }

    /// The content-addressed store: its `keys()` are what coherence
    /// checks compare against the server's ledger.
    pub fn cache_store(&self) -> &ContentStore {
        &self.cache
    }

    /// Feeds bytes from the connection and applies every complete
    /// message. Damage never panics or stalls: a decode error is
    /// counted, the reader scans to the next plausible frame start,
    /// and [`needs_refresh`](Self::needs_refresh) is raised so the
    /// caller can request a server resync. Returns the number of
    /// messages applied.
    pub fn feed(&mut self, bytes: &[u8]) -> usize {
        self.reader.feed(bytes);
        let mut applied = 0;
        loop {
            match self.reader.next_message() {
                Ok(Some(msg)) => {
                    // Negotiation: the server's hello fixes the wire
                    // revision for the rest of the stream. The reader
                    // never switches on its own — this is the one
                    // place the session layer decides.
                    if let Message::ServerHello { version, .. } = &msg {
                        self.reader
                            .set_revision((*version).min(thinc_protocol::PROTOCOL_VERSION));
                    }
                    if self.resume_pending {
                        // The first post-redial message settles the
                        // warm-resume handshake. A fresh `ServerHello`
                        // means the standby rejected the token (stale
                        // session, digest mismatch, corrupt
                        // checkpoint): cold restart — the server reset
                        // its ledger, so the mirrored store must go
                        // too, and the display is presumed stale until
                        // the full refresh covers it. Anything else is
                        // the delta stream of a confirmed warm resume.
                        self.resume_pending = false;
                        if matches!(msg, Message::ServerHello { .. }) {
                            self.cache.clear();
                            self.needs_refresh = true;
                            self.refresh_cover = Region::new();
                            self.resilience.record_cold_fallback();
                        } else {
                            self.resilience.record_resume();
                        }
                    }
                    if self.reader.take_seq_break() {
                        // Frames vanished between the previous message
                        // and this one: the framing recovered but the
                        // display is missing updates — escalate to a
                        // refresh, voiding any partial coverage.
                        self.resilience.record_resync_triggered();
                        self.needs_refresh = true;
                        self.refresh_cover = Region::new();
                    }
                    // Resolve cache references against the content
                    // store before the message reaches the display.
                    let (msg, from_cache) = match msg {
                        Message::CacheRef { hash } => {
                            let ref_size = Message::CacheRef { hash }.wire_size();
                            match self.cache.resolve(hash) {
                                Some(resolved) => {
                                    let resolved = resolved.clone();
                                    self.resilience.record_cache_hit(
                                        resolved.wire_size().saturating_sub(ref_size),
                                    );
                                    (resolved, true)
                                }
                                None => {
                                    // Not damage: the server answers
                                    // the miss with the full payload,
                                    // which repaints the same rect.
                                    self.resilience.record_cache_miss();
                                    self.pending_cache_miss
                                        .push_back(Message::CacheMiss { hash });
                                    continue;
                                }
                            }
                        }
                        other => (other, false),
                    };
                    let errors_before = self.client.stats().errors;
                    self.client.apply(&msg);
                    applied += 1;
                    self.applied_total += 1;
                    if self.needs_refresh && self.client.stats().errors == errors_before {
                        self.note_refresh_progress(&msg);
                    }
                    // Every cacheable full payload enters the store —
                    // the server's ledger marked it held the moment it
                    // was sent, so both sides must see the same insert
                    // sequence (even when the apply was rejected).
                    if !from_cache {
                        if let Some(id) = cache_id(&msg) {
                            let evicted = self.cache.insert(id, msg.wire_size(), msg);
                            self.resilience.record_cache_evictions(evicted);
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    self.resilience.record_decode_error();
                    let skipped = self.reader.resync();
                    self.resilience.record_stream_resync(skipped as u64);
                    // New damage invalidates any partial refresh.
                    self.needs_refresh = true;
                    self.refresh_cover = Region::new();
                }
            }
        }
        self.sync_integrity_counters();
        applied
    }

    /// Folds the reader's cumulative integrity tallies (CRC failures,
    /// sequence gaps, duplicates) into the resilience accounting as
    /// deltas since the last fold.
    fn sync_integrity_counters(&mut self) {
        let now = self.reader.integrity();
        let IntegrityCounters { crc_fail, seq_gap, seq_dup, gap_frames: _, frames_verified: _ } =
            now.since(&self.integrity_base);
        self.resilience.crc_failures += crc_fail;
        self.resilience.seq_gaps += seq_gap;
        self.resilience.seq_dups += seq_dup;
        self.integrity_base = now;
    }

    /// Replaces the frame reader with a fresh one at the *same* wire
    /// revision. A post-negotiation reader must never fall back to
    /// legacy framing: a legacy parser fed extended frames would read
    /// sequence/CRC bytes as payload length and could emit a wrong
    /// display command. Sequence tracking restarts (any next sequence
    /// number is accepted), matching the server-side encoder surviving
    /// or restarting across the same event. The undecoded bytes it
    /// drops are counted: frames in them were sent and never applied.
    fn reset_reader(&mut self) {
        self.sync_integrity_counters();
        self.resilience.record_reset_discard(self.reader.pending_bytes() as u64);
        self.reader = FrameReader::with_revision(self.reader.revision());
        self.integrity_base = IntegrityCounters::default();
        self.stall_since = None;
    }

    /// Credits an applied message against the pending refresh: opaque
    /// commands (RAW, SFILL, PFILL, opaque BITMAP) repaint their
    /// destination unconditionally, so once they have covered the
    /// whole viewport every stale pixel has been overwritten and the
    /// latch can clear. COPY and transparent BITMAP depend on the
    /// (possibly stale) local content, so they prove nothing.
    fn note_refresh_progress(&mut self, msg: &Message) {
        let rect = match msg {
            Message::Display(DisplayCommand::Raw { rect, .. })
            | Message::Display(DisplayCommand::Sfill { rect, .. })
            | Message::Display(DisplayCommand::Pfill { rect, .. })
            | Message::Display(DisplayCommand::Bitmap { rect, bg: Some(_), .. }) => *rect,
            _ => return,
        };
        self.refresh_cover.union_rect(&rect);
        let fb = self.client.framebuffer();
        let full = Rect::new(0, 0, fb.width(), fb.height());
        if self.refresh_cover.contains_rect(&full) {
            self.needs_refresh = false;
            self.refresh_cover = Region::new();
            if let Some(p) = self.policy.as_mut() {
                p.note_recovered();
            }
        }
    }

    /// Drives the installed [`ReconnectPolicy`]: while the display is
    /// stale and the backoff window has elapsed, returns the
    /// [`Message::RefreshRequest`] to send upstream. `None` when the
    /// display is current, no policy is installed, the policy is
    /// backing off, or its attempt budget is exhausted.
    pub fn poll_reconnect(&mut self, now: SimTime) -> Option<Message> {
        self.poll_stall_watchdog(now);
        if !self.needs_refresh {
            return None;
        }
        let attempt = self.policy.as_mut()?.poll(now)?;
        // Stalled framing: nothing decoded since the previous attempt
        // while bytes sit in the reader means a corrupted length
        // field swallowed a frame boundary — the stream will never
        // progress on its own (no decode *error* ever fires, the
        // reader just waits for a frame that cannot complete). A
        // retry therefore drops the wire state like a real redial
        // would, so the server's next resync lands on clean framing.
        if attempt > 1
            && self.applied_total == self.applied_at_attempt
            && self.reader.pending_bytes() > 0
        {
            self.reset_reader();
            self.resilience.record_reconnect();
        }
        self.applied_at_attempt = self.applied_total;
        Some(Message::RefreshRequest { attempt })
    }

    /// The framing-stall watchdog. A corrupted length field can
    /// swallow a frame boundary *without* tripping any error: the tag
    /// stays plausible, the declared length is sane-but-wrong, and
    /// the reader simply waits for a completion that never comes —
    /// silently absorbing every later frame into the phantom payload.
    /// No decode error fires, so `needs_refresh` never latches and
    /// the stalled-refresh recovery above is unreachable. This
    /// watchdog closes that gap: bytes pending with zero decode
    /// progress for [`FRAME_STALL_TIMEOUT`] means the framing is
    /// wedged, so the wire state is dropped like a real redial and a
    /// refresh is requested. A genuinely slow frame reset this way
    /// costs one redundant refresh; a wedged one costs the display.
    fn poll_stall_watchdog(&mut self, now: SimTime) {
        if self.reader.pending_bytes() == 0 {
            self.stall_since = None;
            return;
        }
        match self.stall_since {
            Some(since) if self.applied_total == self.stall_applied_mark => {
                if now.since(since) >= FRAME_STALL_TIMEOUT {
                    self.reset_reader();
                    self.resilience.record_reconnect();
                    self.needs_refresh = true;
                    self.refresh_cover = Region::new();
                    self.stall_since = None;
                }
            }
            // First pending byte seen, or frames decoded since the
            // mark (the framing is alive; the tail is just a partial
            // frame still streaming): restart the clock.
            _ => {
                self.stall_since = Some(now);
                self.stall_applied_mark = self.applied_total;
            }
        }
    }

    /// Whether damage has been skipped since the last check — the
    /// display may be stale and a server resync is in order.
    pub fn needs_refresh(&self) -> bool {
        self.needs_refresh
    }

    /// Consumes the refresh flag (for harnesses that drive the resync
    /// themselves instead of installing a [`ReconnectPolicy`]).
    pub fn take_needs_refresh(&mut self) -> bool {
        self.refresh_cover = Region::new();
        std::mem::take(&mut self.needs_refresh)
    }

    /// The resume token this client presents when redialing after a
    /// server crash (`MSG_SESSION_RESUME`, see `docs/PROTOCOL.md`):
    /// the session/client identity it was assigned, the last
    /// integrity-frame sequence number it actually received (so the
    /// standby's encoder can continue the stream without a break),
    /// and a digest over its content store's sorted key set (so the
    /// standby can prove the cache mirror is coherent before shipping
    /// deltas instead of a full refresh).
    pub fn resume_token(&self, session_id: u64, client_id: u32) -> Message {
        Message::SessionResume {
            session_id,
            client_id,
            last_seq: self.reader.last_seq().unwrap_or(0),
            store_digest: thinc_protocol::store_digest(&self.cache.keys()),
        }
    }

    /// Begins a warm resume against a restored standby server.
    /// Returns `true` when the warm path proceeds: the wire state is
    /// clean, the reader restarts (keeping the negotiated revision,
    /// accepting whatever sequence the standby adopts from the
    /// token), and the next server message settles the outcome — see
    /// [`feed`](Self::feed). Returns `false` when a half-received
    /// frame makes the local wire state unusable: it cannot be
    /// stitched onto the standby's stream, so the client falls back
    /// to a cold [`reconnect`](Self::reconnect) immediately (counted
    /// as a cold fallback) and the caller should skip the token.
    ///
    /// Either way this never panics and never leaves the client
    /// wedged: the worst case is a full-view refresh.
    pub fn resume(&mut self) -> bool {
        if self.reader.pending_bytes() > 0 {
            self.reconnect();
            self.resilience.record_cold_fallback();
            return false;
        }
        self.reset_reader();
        self.resume_pending = true;
        true
    }

    /// Whether a warm resume is still awaiting its first post-redial
    /// server message.
    pub fn resume_pending(&self) -> bool {
        self.resume_pending
    }

    /// Resets the wire state for a fresh connection (reconnect): the
    /// reader drops any half-received frame. The display keeps its
    /// content, but a fresh link is presumed stale — updates were
    /// lost while it was down — so `needs_refresh` latches until the
    /// server's resync has actually covered the viewport. (It used to
    /// be cleared here, which lost the pending-refresh state when a
    /// drop raced the resync.)
    pub fn reconnect(&mut self) {
        self.reset_reader();
        self.resume_pending = false;
        self.needs_refresh = true;
        self.refresh_cover = Region::new();
        self.resilience.record_reconnect();
    }

    /// The wire framing revision the reader currently expects
    /// ([`thinc_protocol::WIRE_REV_LEGACY`] until a `ServerHello`
    /// announcing protocol version ≥ 2 arrives).
    pub fn wire_revision(&self) -> u16 {
        self.reader.revision()
    }

    /// Any pong the client owes the server (echo of a liveness ping).
    pub fn take_pong(&mut self) -> Option<Message> {
        self.client.take_pong()
    }

    /// The next [`Message::CacheMiss`] owed to the server, if any. An
    /// unresolved cache reference queues one here; the caller forwards
    /// it upstream (like pongs) and the server answers with the full
    /// payload.
    pub fn take_cache_miss(&mut self) -> Option<Message> {
        self.pending_cache_miss.pop_front()
    }

    /// Everything this client owes the server at `now`, in sending
    /// order: the pong answering a liveness ping, cache misses, and —
    /// while the display is stale — the reconnect policy's refresh
    /// request. The caller forwards each message upstream.
    pub fn take_uplink(&mut self, now: SimTime) -> Vec<Message> {
        let mut out: Vec<Message> = self.take_pong().into_iter().collect();
        out.extend(self.pending_cache_miss.drain(..));
        out.extend(self.poll_reconnect(now));
        out
    }

    /// Opens a fresh connection to a (possibly restored) server and
    /// returns what to send on it, in order. The hello re-announces
    /// the viewport this client displays at the revision the session
    /// negotiated; after it comes the resume token when the local wire
    /// state allows a warm [`resume`](Self::resume), and otherwise a
    /// plain request for the full view.
    pub fn redial(&mut self, session_id: u64, client_id: u32) -> [Message; 2] {
        // The token is cut before `resume` restarts the reader, which
        // forgets the last sequence number it saw.
        let token = self.resume_token(session_id, client_id);
        if self.resume() {
            [self.hello(), token]
        } else {
            [self.hello(), Message::RefreshRequest { attempt: 0 }]
        }
    }

    /// Opens a fresh connection to the server that has been holding
    /// this client's state all along and returns what to send on it:
    /// the hello re-announcing the viewport this client displays, then
    /// a plain request for the full view. No token: frames lost with
    /// the old connection were already delivered in the server's
    /// eyes, so only a [`reconnect`](Self::reconnect) resync repairs
    /// them. The hello still matters — the holder may be a standby
    /// restored from an image that predates a resize.
    pub fn reopen(&mut self) -> [Message; 2] {
        self.reconnect();
        [self.hello(), Message::RefreshRequest { attempt: 0 }]
    }

    /// The hello every connection opens with: the revision the session
    /// negotiated and the viewport this client displays now.
    fn hello(&self) -> Message {
        let fb = self.client.framebuffer();
        Message::ClientHello {
            version: self.reader.revision(),
            viewport_width: fb.width(),
            viewport_height: fb.height(),
        }
    }

    /// Bytes buffered waiting for a complete frame.
    pub fn pending_bytes(&self) -> usize {
        self.reader.pending_bytes()
    }

    /// Client-side resilience accounting (decode errors, resyncs,
    /// skipped bytes, reconnects).
    pub fn resilience_metrics(&self) -> &thinc_telemetry::ResilienceMetrics {
        &self.resilience
    }

    /// The wrapped display client.
    pub fn client(&self) -> &ThincClient {
        &self.client
    }

    /// Mutable access to the wrapped client.
    pub fn client_mut(&mut self) -> &mut ThincClient {
        &mut self.client
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::commands::DisplayCommand;
    use thinc_protocol::wire::encode_message;
    use thinc_raster::{Color, Rect};

    fn fill(rect: Rect, color: Color) -> Vec<u8> {
        encode_message(&Message::Display(DisplayCommand::Sfill { rect, color }))
    }

    #[test]
    fn clean_stream_applies_messages() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let bytes = fill(Rect::new(0, 0, 32, 32), Color::rgb(9, 9, 9));
        // Fragmented arbitrarily.
        assert_eq!(c.feed(&bytes[..3]), 0);
        assert_eq!(c.feed(&bytes[3..]), 1);
        assert!(!c.needs_refresh());
        assert_eq!(
            c.client().framebuffer().get_pixel(5, 5),
            Some(Color::rgb(9, 9, 9))
        );
    }

    #[test]
    fn damage_is_skipped_counted_and_flags_refresh() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut stream = vec![0xEE, 0xFF, 0x13, 0x37]; // line noise
        stream.extend(fill(Rect::new(0, 0, 8, 8), Color::rgb(1, 2, 3)));
        let applied = c.feed(&stream);
        assert_eq!(applied, 1, "the message after the damage survives");
        assert!(c.needs_refresh());
        let m = c.resilience_metrics();
        assert!(m.decode_errors() >= 1);
        assert!(m.stream_resyncs() >= 1);
        assert!(m.skipped_bytes() >= 4);
        assert!(c.take_needs_refresh());
        assert!(!c.needs_refresh());
    }

    #[test]
    fn truncated_frame_waits_without_error() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let bytes = fill(Rect::new(0, 0, 8, 8), Color::rgb(4, 5, 6));
        c.feed(&bytes[..bytes.len() - 1]);
        assert_eq!(c.resilience_metrics().decode_errors(), 0);
        assert!(c.pending_bytes() > 0);
        assert_eq!(c.feed(&bytes[bytes.len() - 1..]), 1);
        assert_eq!(c.pending_bytes(), 0);
    }

    #[test]
    fn reconnect_clears_half_frames_and_counts() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let bytes = fill(Rect::new(0, 0, 8, 8), Color::rgb(7, 7, 7));
        c.feed(&bytes[..4]);
        assert!(c.pending_bytes() > 0);
        c.reconnect();
        assert_eq!(c.pending_bytes(), 0);
        assert_eq!(c.resilience_metrics().reconnects(), 1);
        // A fresh, whole message decodes normally afterwards.
        assert_eq!(c.feed(&bytes), 1);
    }

    #[test]
    fn reconnect_latches_refresh_until_the_viewport_is_covered() {
        // Regression: reconnect() used to clear needs_refresh
        // outright, so a request acknowledged but never answered left
        // the client permanently stale. The latch must survive until
        // opaque updates have actually covered the viewport.
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        c.reconnect();
        assert!(c.needs_refresh(), "a fresh link is presumed stale");
        // A partial repaint is not enough.
        c.feed(&fill(Rect::new(0, 0, 32, 16), Color::rgb(1, 1, 1)));
        assert!(c.needs_refresh());
        // Completing the coverage clears it.
        c.feed(&fill(Rect::new(0, 16, 32, 16), Color::rgb(2, 2, 2)));
        assert!(!c.needs_refresh());
    }

    #[test]
    fn drop_during_resync_keeps_the_latch() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        c.reconnect();
        // Half the refresh lands...
        c.feed(&fill(Rect::new(0, 0, 32, 16), Color::rgb(1, 1, 1)));
        // ...then the link corrupts again: the partial coverage is
        // void and the latch stays up.
        let mut stream = vec![0xEE, 0xFF, 0x13, 0x37];
        stream.extend(fill(Rect::new(0, 16, 32, 16), Color::rgb(2, 2, 2)));
        c.feed(&stream);
        assert!(c.needs_refresh(), "damage mid-resync must re-latch");
        // Only a complete post-damage repaint clears it.
        c.feed(&fill(Rect::new(0, 16, 32, 16), Color::rgb(2, 2, 2)));
        assert!(c.needs_refresh());
        c.feed(&fill(Rect::new(0, 0, 32, 16), Color::rgb(1, 1, 1)));
        assert!(!c.needs_refresh());
    }

    #[test]
    fn copy_does_not_count_as_refresh_coverage() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        c.reconnect();
        // A full-screen COPY only shuffles possibly-stale pixels.
        let copy = encode_message(&Message::Display(DisplayCommand::Copy {
            src_rect: Rect::new(0, 0, 32, 32),
            dst_x: 0,
            dst_y: 0,
        }));
        c.feed(&copy);
        assert!(c.needs_refresh());
        c.feed(&fill(Rect::new(0, 0, 32, 32), Color::rgb(3, 3, 3)));
        assert!(!c.needs_refresh());
    }

    #[test]
    fn policy_drives_refresh_requests_until_recovery() {
        use crate::reconnect::{ReconnectConfig, ReconnectPolicy};
        use thinc_net::time::SimTime;
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888)
            .with_reconnect_policy(ReconnectPolicy::new(ReconnectConfig::default()));
        let t0 = SimTime(1_000_000);
        // Current display: the policy stays quiet.
        assert_eq!(c.poll_reconnect(t0), None);
        c.reconnect();
        match c.poll_reconnect(t0) {
            Some(Message::RefreshRequest { attempt: 1 }) => {}
            other => panic!("{other:?}"),
        }
        // Backoff throttles an immediate retry.
        assert_eq!(c.poll_reconnect(t0), None);
        let at = c.reconnect_policy().unwrap().next_attempt_at().unwrap();
        match c.poll_reconnect(at) {
            Some(Message::RefreshRequest { attempt: 2 }) => {}
            other => panic!("{other:?}"),
        }
        // The refresh lands: latch clears and the backoff resets.
        c.feed(&fill(Rect::new(0, 0, 32, 32), Color::rgb(5, 5, 5)));
        assert!(!c.needs_refresh());
        assert_eq!(c.reconnect_policy().unwrap().attempts(), 0);
        assert_eq!(c.poll_reconnect(at), None);
    }

    #[test]
    fn server_hello_negotiates_integrity_framing() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY, WIRE_REV_LEGACY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        assert_eq!(c.wire_revision(), WIRE_REV_LEGACY);
        let mut enc = FrameEncoder::new();
        enc.negotiate(PROTOCOL_VERSION);
        let hello = Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        };
        assert_eq!(c.feed(&enc.encode(&hello)), 1);
        assert_eq!(c.wire_revision(), PROTOCOL_VERSION);
        assert!(c.wire_revision() >= WIRE_REV_INTEGRITY);
        // Post-negotiation traffic is sequence/CRC framed and decodes.
        let msg = Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 16, 16),
            color: Color::rgb(8, 8, 8),
        });
        assert_eq!(c.feed(&enc.encode(&msg)), 1);
        assert_eq!(
            c.client().framebuffer().get_pixel(3, 3),
            Some(Color::rgb(8, 8, 8))
        );
        assert!(!c.needs_refresh());
    }

    #[test]
    fn sequence_gap_escalates_to_refresh_request() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        let frame = |enc: &mut FrameEncoder, y: i32| {
            enc.encode(&Message::Display(DisplayCommand::Sfill {
                rect: Rect::new(0, y, 32, 8),
                color: Color::rgb(1, 1, 1),
            }))
        };
        let f0 = frame(&mut enc, 0);
        let lost = frame(&mut enc, 8); // encoded, never delivered
        let f2 = frame(&mut enc, 16);
        c.feed(&f0);
        assert!(!c.needs_refresh());
        drop(lost);
        c.feed(&f2);
        assert!(c.needs_refresh(), "a sequence gap means lost updates");
        let m = c.resilience_metrics();
        assert_eq!(m.seq_gaps(), 1);
        assert_eq!(m.resyncs_triggered(), 1);
        // A full opaque repaint recovers.
        c.feed(&enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(2, 2, 2),
        })));
        assert!(!c.needs_refresh());
    }

    #[test]
    fn duplicate_frames_are_absorbed_silently() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        let bytes = enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(6, 6, 6),
        }));
        assert_eq!(c.feed(&bytes), 1);
        assert_eq!(c.feed(&bytes), 0, "the duplicate applies nothing");
        assert_eq!(c.resilience_metrics().seq_dups(), 1);
        assert!(!c.needs_refresh(), "duplicates are not damage");
    }

    #[test]
    fn crc_damage_counts_and_latches_refresh() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        let mut bytes = enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(6, 6, 6),
        }));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert_eq!(c.feed(&bytes), 0, "a damaged frame never applies");
        assert!(c.needs_refresh());
        let m = c.resilience_metrics();
        assert!(m.crc_failures() >= 1);
        assert!(m.decode_errors() >= 1);
    }

    #[test]
    fn reader_reset_preserves_negotiated_revision() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        c.reconnect();
        assert_eq!(
            c.wire_revision(),
            PROTOCOL_VERSION,
            "a redial must not fall back to legacy framing"
        );
        assert!(c.wire_revision() >= WIRE_REV_INTEGRITY);
        // Post-reconnect integrity traffic still decodes (any sequence
        // number is accepted on the fresh stream).
        let bytes = enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(4, 4, 4),
        }));
        assert_eq!(c.feed(&bytes), 1);
        assert_eq!(c.resilience_metrics().seq_gaps(), 0);
    }

    #[test]
    fn reopen_announces_the_viewport_then_asks_for_the_view() {
        let mut c = StreamClient::new(32, 24, PixelFormat::Rgb888);
        let [hello, request] = c.reopen();
        assert_eq!(
            hello,
            Message::ClientHello {
                version: c.wire_revision(),
                viewport_width: 32,
                viewport_height: 24,
            }
        );
        assert_eq!(request, Message::RefreshRequest { attempt: 0 });
        assert!(c.needs_refresh(), "a reopened link is stale until covered");
        assert!(!c.resume_pending(), "no token, so nothing to settle");
    }

    fn cacheable_raw(fill: u8) -> Message {
        Message::Display(DisplayCommand::Raw {
            rect: Rect::new(0, 0, 8, 8),
            encoding: thinc_protocol::commands::RawEncoding::None,
            data: vec![fill; 8 * 8 * 3].into(),
        })
    }

    #[test]
    fn cache_reference_resolves_from_the_store() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let raw = cacheable_raw(7);
        let hash = raw.cache_key().expect("pixel payloads over the floor cache");
        assert_eq!(c.feed(&encode_message(&raw)), 1);
        assert_eq!(c.cache_store().lru().len(), 1);
        // Overwrite the area, then repaint it via reference alone.
        c.feed(&fill(Rect::new(0, 0, 32, 32), Color::rgb(0, 0, 0)));
        assert_eq!(c.feed(&encode_message(&Message::CacheRef { hash })), 1);
        assert_eq!(
            c.client().framebuffer().get_pixel(2, 2),
            Some(Color::rgb(7, 7, 7))
        );
        let m = c.resilience_metrics();
        assert_eq!(m.cache_hits(), 1);
        assert!(m.cache_bytes_saved() > 0);
        assert!(c.take_cache_miss().is_none());
    }

    #[test]
    fn unresolved_reference_queues_a_miss_without_damage() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        assert_eq!(c.feed(&encode_message(&Message::CacheRef { hash: 0xDEAD })), 0);
        assert!(!c.needs_refresh(), "a miss is self-healing, not damage");
        assert_eq!(c.resilience_metrics().cache_misses(), 1);
        match c.take_cache_miss() {
            Some(Message::CacheMiss { hash: 0xDEAD }) => {}
            other => panic!("{other:?}"),
        }
        assert!(c.take_cache_miss().is_none());
    }

    #[test]
    fn cache_survives_reconnect_and_repays_refresh_debt() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let raw = cacheable_raw(9);
        let hash = raw.cache_key().unwrap();
        c.feed(&encode_message(&raw));
        c.reconnect();
        assert_eq!(c.cache_store().lru().len(), 1, "the store persists across a redial");
        // The server's resync can repay refresh debt from the cache.
        assert_eq!(c.feed(&encode_message(&Message::CacheRef { hash })), 1);
        assert_eq!(c.resilience_metrics().cache_hits(), 1);
        assert_eq!(
            c.client().framebuffer().get_pixel(1, 1),
            Some(Color::rgb(9, 9, 9))
        );
    }

    #[test]
    fn corrupted_length_field_stall_is_broken_by_the_watchdog() {
        // The silent-stall case the chaos engine flushed out: a
        // corrupted length field inflates a frame's declared size
        // without tripping the tag or CRC checks, so the reader waits
        // forever and silently swallows every later frame. No decode
        // error fires, so only the stall watchdog can recover.
        use crate::reconnect::{ReconnectConfig, ReconnectPolicy};
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888)
            .with_reconnect_policy(ReconnectPolicy::new(ReconnectConfig::default()));
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        let mut wedge = enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 8, 8),
            color: Color::rgb(1, 2, 3),
        }));
        // Inflate the declared payload length: sane (under the frame
        // cap) but larger than what will ever arrive.
        let bogus = (wedge.len() as u32) + 500;
        wedge[1..5].copy_from_slice(&bogus.to_le_bytes());
        assert_eq!(c.feed(&wedge), 0);
        // Later frames are swallowed whole into the phantom payload:
        // no error, no staleness signal, bytes just accumulate.
        let lost = enc.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(9, 9, 9),
        }));
        assert_eq!(c.feed(&lost), 0);
        assert!(!c.needs_refresh(), "the stall itself raises no error");
        assert_eq!(c.resilience_metrics().decode_errors(), 0);
        assert!(c.pending_bytes() > 0);
        // The watchdog arms on first poll and fires once the timeout
        // elapses with no decode progress: wire state dropped, refresh
        // latched and requested.
        let t0 = SimTime(1_000_000);
        assert_eq!(c.poll_reconnect(t0), None);
        let fired = t0 + FRAME_STALL_TIMEOUT;
        match c.poll_reconnect(fired) {
            Some(Message::RefreshRequest { attempt: 1 }) => {}
            other => panic!("expected a refresh request, got {other:?}"),
        }
        assert_eq!(c.pending_bytes(), 0, "the wedged buffer is dropped");
        assert!(c.needs_refresh());
        // The server's resync lands on clean framing and recovers.
        assert_eq!(
            c.feed(&enc.encode(&Message::Display(DisplayCommand::Sfill {
                rect: Rect::new(0, 0, 32, 32),
                color: Color::rgb(7, 7, 7),
            }))),
            1
        );
        assert!(!c.needs_refresh());
        assert_eq!(
            c.client().framebuffer().get_pixel(31, 31),
            Some(Color::rgb(7, 7, 7))
        );
    }

    #[test]
    fn slow_but_live_framing_does_not_trip_the_watchdog() {
        use crate::reconnect::{ReconnectConfig, ReconnectPolicy};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888)
            .with_reconnect_policy(ReconnectPolicy::new(ReconnectConfig::default()));
        let bytes = fill(Rect::new(0, 0, 32, 32), Color::rgb(5, 5, 5));
        let mut t = SimTime(1_000_000);
        // A frame trickling in one byte per poll interval keeps making
        // visible progress only on completion — but each completed
        // message resets the stall clock, so steady (if slow) decode
        // cycles never trip the watchdog.
        for chunk in bytes.chunks(4) {
            c.feed(chunk);
            assert_eq!(c.poll_reconnect(t), None);
            t = t + SimDuration::from_millis(200);
        }
        assert!(!c.needs_refresh());
        assert_eq!(c.resilience_metrics().reconnects(), 0);
        assert_eq!(
            c.client().framebuffer().get_pixel(0, 0),
            Some(Color::rgb(5, 5, 5))
        );
    }

    #[test]
    fn resume_token_carries_seq_and_store_digest() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        c.feed(&enc.encode(&cacheable_raw(5)));
        match c.resume_token(0xFEED, 3) {
            Message::SessionResume {
                session_id: 0xFEED,
                client_id: 3,
                last_seq,
                store_digest,
            } => {
                // The hello travels legacy-framed (handshake frames
                // carry no sequence); the RAW is the first numbered
                // frame.
                assert_eq!(last_seq, 0);
                assert_eq!(
                    store_digest,
                    thinc_protocol::store_digest(&c.cache_store().keys())
                );
                assert_ne!(
                    store_digest,
                    thinc_protocol::store_digest(&[]),
                    "the store holds the cached payload"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn warm_resume_confirms_on_delta_traffic() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        c.feed(&enc.encode(&cacheable_raw(5)));
        let last = match c.resume_token(1, 0) {
            Message::SessionResume { last_seq, .. } => last_seq,
            other => panic!("{other:?}"),
        };
        // Server crashes; the client redials warm.
        assert!(c.resume());
        assert!(c.resume_pending());
        // The standby adopted the token's sequence and ships only the
        // delta — no hello, no refresh, no sequence break.
        let mut standby = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        standby.set_next_seq(last.wrapping_add(1));
        assert_eq!(
            c.feed(&standby.encode(&Message::Display(DisplayCommand::Sfill {
                rect: Rect::new(0, 0, 8, 8),
                color: Color::rgb(2, 2, 2),
            }))),
            1
        );
        assert!(!c.resume_pending());
        assert!(!c.needs_refresh(), "warm resume is not damage");
        assert_eq!(c.cache_store().lru().len(), 1, "the store survives a warm resume");
        let m = c.resilience_metrics();
        assert_eq!(m.resumes(), 1);
        assert_eq!(m.cold_fallbacks(), 0);
        assert_eq!(m.seq_gaps(), 0, "the sequence stream is unbroken");
    }

    #[test]
    fn rejected_resume_token_falls_back_cold() {
        use thinc_protocol::wire::FrameEncoder;
        use thinc_protocol::{PROTOCOL_VERSION, WIRE_REV_INTEGRITY};
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let mut enc = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&enc.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        c.feed(&enc.encode(&cacheable_raw(5)));
        assert!(c.resume());
        // The standby rejected the token (stale digest, unknown
        // session, corrupt checkpoint): it answers with a fresh
        // handshake instead of the delta stream.
        let mut standby = FrameEncoder::with_revision(WIRE_REV_INTEGRITY);
        c.feed(&standby.encode(&Message::ServerHello {
            version: PROTOCOL_VERSION,
            width: 32,
            height: 32,
            depth: 24,
        }));
        assert!(!c.resume_pending());
        assert!(c.needs_refresh(), "a cold restart presumes a stale display");
        assert_eq!(c.cache_store().lru().len(), 0, "the mirrored store is dropped");
        let m = c.resilience_metrics();
        assert_eq!(m.resumes(), 0);
        assert_eq!(m.cold_fallbacks(), 1);
        // The full refresh then recovers the display as usual.
        c.feed(&standby.encode(&Message::Display(DisplayCommand::Sfill {
            rect: Rect::new(0, 0, 32, 32),
            color: Color::rgb(4, 4, 4),
        })));
        assert!(!c.needs_refresh());
    }

    #[test]
    fn resume_with_half_frame_pending_goes_cold_immediately() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let bytes = fill(Rect::new(0, 0, 8, 8), Color::rgb(1, 1, 1));
        c.feed(&bytes[..4]);
        assert!(c.pending_bytes() > 0);
        // A half-received frame cannot be stitched onto the standby's
        // stream: the redial downgrades to a cold reconnect.
        assert!(!c.resume());
        assert!(!c.resume_pending());
        assert_eq!(c.pending_bytes(), 0);
        assert!(c.needs_refresh());
        let m = c.resilience_metrics();
        assert_eq!(m.cold_fallbacks(), 1);
        assert_eq!(m.reconnects(), 1);
    }

    #[test]
    fn ping_over_the_wire_yields_a_pong() {
        let mut c = StreamClient::new(32, 32, PixelFormat::Rgb888);
        let bytes = encode_message(&Message::Ping {
            seq: 3,
            timestamp_us: 99,
        });
        c.feed(&bytes);
        match c.take_pong() {
            Some(Message::Pong { seq: 3, timestamp_us: 99 }) => {}
            other => panic!("{other:?}"),
        }
        assert!(c.take_pong().is_none());
    }
}
