//! The fan-out session manager: one [`SharedSession`] and its
//! viewers' links, flushed together once per epoch.
//!
//! The session holds every viewer's delivery pipeline; the manager
//! holds the other end of each connection, its `(pipe, trace)` link,
//! in client-id order beside the session's roster. A flush *epoch* is
//! the session's clock set to the epoch time and one
//! [`flush_all`](SharedSession::flush_all) over every link: one round
//! of the session's form store, every viewer's flush in client-id
//! order on the caller's thread, each resolving its plan as it starts.
//! Its output comes back in that order.
//!
//! The manager once partitioned its roster into hash-keyed shards,
//! flushed one after another on the caller's thread. No byte ever
//! depended on the shard count and the partition added no
//! parallelism, so it is gone (`docs/PERFORMANCE.md`, "One roster").

use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;

use crate::session::{AuthError, ClientId, Credentials, FlushOutput, SharedSession};

/// A [`SharedSession`] plus its clients' links. Drive drawing through
/// [`session_mut`](Self::session_mut) (the session implements
/// `VideoDriver`) and delivery through [`flush_epoch`](Self::flush_epoch).
///
/// The name, and the ignored second argument of [`new`](Self::new),
/// remain because the benchmark harness (`benchmark/src/fanout.rs`)
/// calls `new`, `attach`, `link_mut`, `session`, `session_mut` and
/// `flush_epoch` as they are.
#[derive(Debug)]
pub struct ShardedManager {
    session: SharedSession,
    /// Attached client ids, ascending (the session's roster once every
    /// link is registered).
    ids: Vec<ClientId>,
    /// `links[i]` is the `(pipe, trace)` pair of `ids[i]`.
    links: Vec<(TcpPipe, PacketTrace)>,
}

impl ShardedManager {
    /// Wraps `session`; the second argument is ignored. Clients already
    /// attached must have their links registered via
    /// [`adopt_link`](Self::adopt_link), in id order, before the next
    /// [`flush_epoch`](Self::flush_epoch) — attaching through
    /// [`attach`](Self::attach) is simpler.
    pub fn new(session: SharedSession, _shards: usize) -> Self {
        let ids = session.client_ids();
        Self { session, ids, links: Vec::new() }
    }

    /// The wrapped session, for reads.
    pub fn session(&self) -> &SharedSession {
        &self.session
    }

    /// The wrapped session, for drawing (`VideoDriver`), resyncs,
    /// cache-miss routing, and the rest of the per-client API.
    pub fn session_mut(&mut self) -> &mut SharedSession {
        &mut self.session
    }

    /// Attaches a client and registers its link.
    pub fn attach(
        &mut self,
        creds: &Credentials,
        viewport_w: u32,
        viewport_h: u32,
        link: (TcpPipe, PacketTrace),
    ) -> Result<ClientId, AuthError> {
        let id = self.session.attach(creds, viewport_w, viewport_h)?;
        // Ids only grow, so the newcomer goes last.
        self.ids.push(id);
        self.links.push(link);
        Ok(id)
    }

    /// Registers the link of an already-attached client (one whose
    /// attach predates this manager).
    ///
    /// # Panics
    ///
    /// Panics unless `id` is the lowest attached id still without a
    /// link: links are adopted in id order.
    pub fn adopt_link(&mut self, id: ClientId, link: (TcpPipe, PacketTrace)) {
        assert_eq!(
            self.ids.get(self.links.len()),
            Some(&id),
            "adopt_link: links are adopted in id order"
        );
        self.links.push(link);
    }

    /// Detaches a client and drops its link. Returns the link for
    /// callers that want to inspect the pipe post-mortem.
    pub fn detach(&mut self, id: ClientId) -> Option<(TcpPipe, PacketTrace)> {
        let pos = self.ids.binary_search(&id).ok()?;
        self.ids.remove(pos);
        let link = self.links.remove(pos);
        self.session.detach(id);
        Some(link)
    }

    /// Mutable access to one client's link (fault injection, drain
    /// checks).
    pub fn link_mut(&mut self, id: ClientId) -> Option<&mut (TcpPipe, PacketTrace)> {
        let pos = self.ids.binary_search(&id).ok()?;
        self.links.get_mut(pos)
    }

    /// Runs one flush epoch at `now`: the session's clock is set and
    /// every client flushes over its link in one
    /// [`flush_all`](SharedSession::flush_all) round. The per-client
    /// streams come back in ascending client-id order.
    pub fn flush_epoch(&mut self, now: SimTime) -> FlushOutput {
        self.session.set_time(now);
        self.session.flush_all(now, &mut self.links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thinc_net::tcp::TcpParams;
    use thinc_net::time::SimDuration;
    use thinc_raster::PixelFormat;

    fn link() -> (TcpPipe, PacketTrace) {
        (
            TcpPipe::new(TcpParams {
                bandwidth_bps: 10_000_000,
                rtt: SimDuration::from_millis(2),
                ..TcpParams::default()
            }),
            PacketTrace::new(),
        )
    }

    fn manager(clients: usize) -> ShardedManager {
        let mut session = SharedSession::new(64, 48, PixelFormat::Rgb888, "host");
        session.auth_mut().enable_sharing("pw");
        let mut m = ShardedManager::new(session, 1);
        m.attach(&Credentials::Owner { user: "host".into() }, 64, 48, link())
            .unwrap();
        for i in 1..clients {
            m.attach(
                &Credentials::Peer { user: format!("p{i}"), password: "pw".into() },
                64,
                48,
                link(),
            )
            .unwrap();
        }
        m
    }

    #[test]
    fn detach_removes_link_and_client() {
        let mut m = manager(8);
        let victim = m.session().client_ids()[3];
        assert!(m.detach(victim).is_some());
        assert!(m.link_mut(victim).is_none());
        assert_eq!(m.session().client_count(), 7);
        assert!(m.detach(victim).is_none());
    }

    #[test]
    fn epoch_merges_in_id_order() {
        let mut m = manager(9);
        let screen = thinc_raster::Framebuffer::new(64, 48, PixelFormat::Rgb888);
        m.session_mut().repay_refreshes(&screen);
        let out = m.flush_epoch(SimTime::ZERO);
        let ids: Vec<ClientId> = out.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, m.session().client_ids());
        assert!(out.iter().all(|(_, msgs)| !msgs.is_empty()));
    }

    #[test]
    fn plane_sharing_actually_amortizes_encodes() {
        // The perf claim itself: with identity viewports dominating,
        // distinct wire forms must be far fewer than plane-served sends.
        use thinc_display::driver::VideoDriver;
        use thinc_display::{drawable::DrawableStore, SCREEN};
        use thinc_raster::{Color, Rect};
        let mut m = manager(9);
        // Two of the nine watch at half size: a second scale class.
        for half in [2, 5] {
            let id = m.session().client_ids()[half];
            m.session_mut().resize_client(id, 32, 24);
        }
        let store = DrawableStore::new(64, 48, PixelFormat::Rgb888);
        let mut now = SimTime::ZERO;
        for round in 0..12u32 {
            let s = m.session_mut();
            // A RAW above the compression floor and the plane's
            // minimum payload, with a fill and a copy over it.
            let tile = crate::fixtures::noise(48 * 32 * 3, 3 + round);
            s.put_image(&store, SCREEN, Rect::new(round as i32 % 16, 8, 48, 32), &tile);
            s.solid_fill(&store, SCREEN, Rect::new(4, 4, 20, 12), Color::rgb(round as u8, 90, 30));
            s.copy_area(&store, SCREEN, SCREEN, Rect::new(0, 0, 24, 16), 30, 20);
            m.flush_epoch(now);
            now = SimTime(now.0 + 6_000);
        }
        for _ in 0..100 {
            if m.session().client_ids().iter().all(|&id| m.session().backlog(id) == 0) {
                break;
            }
            m.flush_epoch(now);
            now = SimTime(now.0 + 6_000);
        }
        let plane = m.session().fanout_counters();
        assert!(plane.shared_sends > 0, "the plane never engaged");
        assert!(
            plane.encodes * 2 < plane.shared_sends,
            "encodes={} not amortized over sends={}",
            plane.encodes,
            plane.shared_sends
        );
    }

    #[test]
    #[should_panic(expected = "adopted in id order")]
    fn an_out_of_order_adoption_is_refused() {
        // A link adopted out of order would be paired with another
        // viewer's id by the next flush.
        let screen = thinc_raster::Framebuffer::new(64, 48, PixelFormat::Rgb888);
        let restored = SharedSession::restore(&manager(3).session().checkpoint(&screen)).unwrap();
        let mut m = ShardedManager::new(restored, 1);
        let second = m.session().client_ids()[1];
        m.adopt_link(second, link());
    }
}
