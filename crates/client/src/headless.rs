//! The instrumented headless client.
//!
//! "To measure THINC performance, we developed an instrumented
//! headless version of the THINC client that could process all
//! display and audio data but did not output the result to any
//! display or sound hardware" (§8.1). This client wraps the real one
//! (so all processing genuinely happens) and records the arrival
//! timeline the slow-motion measurements need: per-message arrival
//! times, bytes, and the time the last update of each phase finished
//! processing — which is how the paper accounts client processing
//! time on platforms it controls.

use thinc_net::time::SimTime;
use thinc_protocol::cache::{cache_id, ContentStore};
use thinc_protocol::message::Message;
use thinc_protocol::DEFAULT_CACHE_BUDGET;
use thinc_raster::PixelFormat;
use thinc_telemetry::Histogram;

use crate::client::{ClientStats, ThincClient};

/// One recorded arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalRecord {
    /// When the message arrived.
    pub at: SimTime,
    /// Encoded message size in bytes.
    pub bytes: u64,
    /// Whether this was audio/video (vs display) data.
    pub av: bool,
}

/// The headless instrumented client.
#[derive(Debug)]
pub struct HeadlessClient {
    inner: ThincClient,
    arrivals: Vec<ArrivalRecord>,
    frame_latency_us: Histogram,
    /// Virtual time the in-flight frame update was requested
    /// (set by [`Self::mark_frame_request`]); the next display
    /// arrival closes the latency sample.
    frame_requested: Option<SimTime>,
    /// Revision-3 content store, mirroring the server's per-client
    /// ledger: refs resolve here; the recorded arrival bytes stay the
    /// 13-byte ref — that *is* what crossed the wire.
    store: ContentStore,
    cache_hits: u64,
    cache_misses: u64,
}

impl HeadlessClient {
    /// Creates a headless client with the given viewport geometry.
    pub fn new(width: u32, height: u32, format: PixelFormat) -> Self {
        Self {
            inner: ThincClient::new(width, height, format),
            arrivals: Vec::new(),
            frame_latency_us: Histogram::latency_us(),
            frame_requested: None,
            store: ContentStore::new(DEFAULT_CACHE_BUDGET),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// The wrapped client (full processing still happens).
    pub fn client(&self) -> &ThincClient {
        &self.inner
    }

    /// Client execution statistics.
    pub fn stats(&self) -> ClientStats {
        self.inner.stats()
    }

    /// Request-to-screen latency of the marked frame updates (µs of
    /// virtual time).
    pub fn frame_latency_us(&self) -> &Histogram {
        &self.frame_latency_us
    }

    /// Marks the virtual time a frame update was requested (a click,
    /// a scroll). The next display message to arrive closes the
    /// request-to-screen latency sample.
    pub fn mark_frame_request(&mut self, at: SimTime) {
        self.frame_requested = Some(at);
    }

    /// Processes a message that arrived at `at`.
    pub fn receive(&mut self, at: SimTime, msg: &Message) {
        let bytes = msg.wire_size();
        let av = matches!(
            msg,
            Message::Audio { .. }
                | Message::VideoInit { .. }
                | Message::VideoData { .. }
                | Message::VideoMove { .. }
                | Message::VideoEnd { .. }
        );
        self.arrivals.push(ArrivalRecord { at, bytes, av });
        // Resolve a revision-3 cache reference against the store
        // before any processing; message-level delivery is lossless,
        // so the mirrored LRUs cannot dangle (an unresolved ref here
        // is a wiring bug, counted and skipped).
        let resolved;
        let (msg, from_cache) = match msg {
            Message::CacheRef { hash } => match self.store.resolve(*hash) {
                Some(m) => {
                    self.cache_hits += 1;
                    resolved = m.clone();
                    (&resolved, true)
                }
                None => {
                    self.cache_misses += 1;
                    return;
                }
            },
            other => (other, false),
        };
        if let (Some(t0), Message::Display(_)) = (self.frame_requested, msg) {
            self.frame_latency_us.record(at.0.saturating_sub(t0.0));
            self.frame_requested = None;
        }
        self.inner.apply(msg);
        // Mirror the server ledger: every cacheable full payload
        // received enters the store (resolved refs only re-ranked,
        // which `resolve` already did).
        if !from_cache {
            if let Some(id) = cache_id(msg) {
                self.store.insert(id, msg.wire_size(), msg.clone());
            }
        }
    }

    /// Refs resolved from the content store.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Refs that failed to resolve (always 0 over lossless delivery).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses
    }

    /// All recorded arrivals, in order.
    pub fn arrivals(&self) -> &[ArrivalRecord] {
        &self.arrivals
    }

    /// Arrival time of the last message at or after `since`.
    pub fn last_arrival_since(&self, since: SimTime) -> Option<SimTime> {
        self.arrivals
            .iter()
            .filter(|a| a.at >= since)
            .map(|a| a.at)
            .max()
    }

    /// Total bytes received.
    pub fn total_bytes(&self) -> u64 {
        self.arrivals.iter().map(|a| a.bytes).sum()
    }

    /// Total audio/video bytes received.
    pub fn av_bytes(&self) -> u64 {
        self.arrivals.iter().filter(|a| a.av).map(|a| a.bytes).sum()
    }

    /// Clears the arrival log (between benchmark phases).
    pub fn clear_arrivals(&mut self) {
        self.arrivals.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_protocol::commands::DisplayCommand;
    use thinc_raster::{Color, Rect};

    fn display(rect: Rect) -> Message {
        Message::Display(DisplayCommand::Sfill {
            rect,
            color: Color::WHITE,
        })
    }

    #[test]
    fn records_arrivals_and_processes() {
        let mut h = HeadlessClient::new(64, 64, PixelFormat::Rgb888);
        h.receive(SimTime(100), &display(Rect::new(0, 0, 8, 8)));
        h.receive(SimTime(200), &display(Rect::new(8, 8, 8, 8)));
        assert_eq!(h.arrivals().len(), 2);
        assert_eq!(h.stats().sfill, 2);
        assert_eq!(h.client().framebuffer().get_pixel(4, 4), Some(Color::WHITE));
        assert_eq!(h.last_arrival_since(SimTime(150)), Some(SimTime(200)));
        assert_eq!(h.last_arrival_since(SimTime(300)), None);
    }

    #[test]
    fn separates_av_bytes() {
        let mut h = HeadlessClient::new(64, 64, PixelFormat::Rgb888);
        h.receive(SimTime(1), &display(Rect::new(0, 0, 4, 4)));
        h.receive(
            SimTime(2),
            &Message::Audio {
                seq: 0,
                timestamp_us: 0,
                data: vec![0; 500].into(),
            },
        );
        assert!(h.av_bytes() >= 500);
        assert!(h.total_bytes() > h.av_bytes());
    }

    #[test]
    fn decodes_are_counted_once_and_frame_latency_sampled() {
        let mut h = HeadlessClient::new(64, 64, PixelFormat::Rgb888);
        h.mark_frame_request(SimTime(1_000));
        h.receive(SimTime(1_850), &display(Rect::new(0, 0, 4, 4)));
        h.receive(SimTime(1_900), &display(Rect::new(4, 4, 4, 4)));
        assert_eq!((h.stats().sfill, h.stats().messages), (2, 2));
        // One latency sample, closed by the first display arrival.
        assert_eq!(h.frame_latency_us().count(), 1);
        assert_eq!(h.frame_latency_us().max(), 850);
    }

    #[test]
    fn clear_resets_log_not_state() {
        let mut h = HeadlessClient::new(64, 64, PixelFormat::Rgb888);
        h.receive(SimTime(1), &display(Rect::new(0, 0, 4, 4)));
        h.clear_arrivals();
        assert!(h.arrivals().is_empty());
        assert_eq!(h.stats().sfill, 1); // Processing state persists.
    }
}
