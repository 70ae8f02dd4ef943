//! The sharded session manager: broadcast fan-out at 1k+ clients.
//!
//! A single [`SharedSession`] already fans per-client flush work over
//! a worker pool, but every caller drives one monolithic
//! [`flush_all`] over one flat link array. At fan-out scale the
//! manager partitions clients into deterministic *shards* — stable
//! FNV hash of the client id, so a client's shard never depends on
//! who else is attached — each owning its members' links. A flush
//! *epoch* runs every shard through the simulated-time reactor
//! ([`EventQueue`]): all shards are scheduled at the epoch time and
//! popped in deterministic order, each flushing its members against
//! one shared encode-once [`WirePlane`] so payload equivalence
//! classes amortize across shard boundaries.
//!
//! Output is merged in client-id order and every client flushes at
//! every epoch time, so the byte streams are bit-identical for every
//! shard count and every worker count — the property the
//! `shard_determinism` suite and the perfgate fan-out macro pin down.
//!
//! [`flush_all`]: SharedSession::flush_all
//! [`EventQueue`]: thinc_net::EventQueue

use std::time::Instant;

use thinc_net::tcp::TcpPipe;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_net::EventQueue;
use thinc_protocol::{fnv64, Message};
use thinc_telemetry::ShardMetrics;

use crate::plane::WirePlane;
use crate::session::{AuthError, ClientId, Credentials, SharedSession};

/// One shard: its member ids (ascending) and their links, in the
/// same order, plus the shard's telemetry.
#[derive(Debug)]
struct Shard {
    ids: Vec<ClientId>,
    links: Vec<(TcpPipe, PacketTrace)>,
    metrics: ShardMetrics,
}

impl Shard {
    fn new() -> Self {
        Self {
            ids: Vec::new(),
            links: Vec::new(),
            metrics: ShardMetrics::new(),
        }
    }
}

/// A [`SharedSession`] plus the shard partition of its clients and
/// their links. Drive drawing through [`session_mut`]
/// (Self::session_mut) (the session implements `VideoDriver`) and
/// delivery through [`flush_epoch`](Self::flush_epoch).
#[derive(Debug)]
pub struct ShardedManager {
    session: SharedSession,
    shards: Vec<Shard>,
    events: EventQueue<usize>,
}

impl ShardedManager {
    /// Wraps `session` with `shards` shard slots (clamped to ≥ 1).
    /// Clients already attached are partitioned by their stable
    /// hash, but their links must then be registered via
    /// [`adopt_link`](Self::adopt_link) in id order — attaching
    /// through [`attach`](Self::attach) is simpler.
    pub fn new(session: SharedSession, shards: usize) -> Self {
        let n = shards.max(1);
        let mut m = Self {
            session,
            shards: (0..n).map(|_| Shard::new()).collect(),
            events: EventQueue::new(),
        };
        for id in m.session.client_ids() {
            let s = m.shard_of(id);
            m.shards[s].ids.push(id);
        }
        m
    }

    /// Rebuilds a manager from a [`SharedSession::checkpoint`] image:
    /// the session is restored, then re-partitioned into `shards`
    /// slots. Redialing clients' fresh links must be registered via
    /// [`adopt_link`](Self::adopt_link) (in any order — the partition
    /// is a pure function of the ids) before the next flush epoch.
    pub fn restore(
        bytes: &[u8],
        shards: usize,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        Ok(Self::new(SharedSession::restore(bytes)?, shards))
    }

    /// The shard a client id maps to: a stable content hash of the
    /// id, independent of attach order and of every other client.
    pub fn shard_of(&self, id: ClientId) -> usize {
        (fnv64(&id.0.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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

    /// Attaches a client and registers its link with the owning
    /// shard.
    pub fn attach(
        &mut self,
        creds: &Credentials,
        viewport_w: u32,
        viewport_h: u32,
        link: (TcpPipe, PacketTrace),
    ) -> Result<ClientId, AuthError> {
        let id = self.session.attach(creds, viewport_w, viewport_h)?;
        let s = self.shard_of(id);
        let shard = &mut self.shards[s];
        let pos = shard.ids.partition_point(|x| *x < id);
        shard.ids.insert(pos, id);
        shard.links.insert(pos, link);
        shard.metrics.set_clients(shard.ids.len());
        Ok(id)
    }

    /// Registers the link of an already-attached client (one whose
    /// attach predates this manager). Ids must be adopted before the
    /// next [`flush_epoch`](Self::flush_epoch).
    pub fn adopt_link(&mut self, id: ClientId, link: (TcpPipe, PacketTrace)) {
        let s = self.shard_of(id);
        let shard = &mut self.shards[s];
        let pos = shard.ids.partition_point(|x| *x < id);
        assert!(
            shard.ids.get(pos) == Some(&id),
            "adopt_link: client not in shard partition"
        );
        shard.links.insert(pos, link);
        shard.metrics.set_clients(shard.ids.len());
    }

    /// Detaches a client and drops its link. Returns the link for
    /// callers that want to inspect the pipe post-mortem.
    pub fn detach(&mut self, id: ClientId) -> Option<(TcpPipe, PacketTrace)> {
        let s = self.shard_of(id);
        let shard = &mut self.shards[s];
        let pos = shard.ids.iter().position(|x| *x == id)?;
        shard.ids.remove(pos);
        let link = shard.links.remove(pos);
        shard.metrics.set_clients(shard.ids.len());
        self.session.detach(id);
        Some(link)
    }

    /// Mutable access to one client's link (fault injection, drain
    /// checks).
    pub fn link_mut(&mut self, id: ClientId) -> Option<&mut (TcpPipe, PacketTrace)> {
        let s = self.shard_of(id);
        let shard = &mut self.shards[s];
        let pos = shard.ids.iter().position(|x| *x == id)?;
        Some(&mut shard.links[pos])
    }

    /// One shard's telemetry.
    pub fn shard_metrics(&self, shard: usize) -> &ShardMetrics {
        &self.shards[shard].metrics
    }

    /// Runs one flush epoch at `now`: every shard is scheduled on the
    /// virtual-time reactor at the epoch time, popped in
    /// deterministic (insertion) order, and flushed against one
    /// shared encode-once plane. The per-client streams come back
    /// merged in ascending client-id order — the same order, and the
    /// same bytes, no matter how many shards or workers are in play.
    pub fn flush_epoch(
        &mut self,
        now: SimTime,
    ) -> Vec<(ClientId, Vec<(SimTime, Message)>)> {
        self.session.set_time(now);
        let plane = WirePlane::new();
        for s in 0..self.shards.len() {
            self.events.schedule(now, s);
        }
        let mut merged: Vec<(ClientId, Vec<(SimTime, Message)>)> = Vec::new();
        while self.events.peek_time().is_some_and(|t| t <= now) {
            let (_, s) = self.events.pop().expect("peeked above");
            let shard = &mut self.shards[s];
            if shard.ids.is_empty() {
                continue;
            }
            let wall = Instant::now();
            let (out, counters) =
                self.session
                    .flush_subset(now, &shard.ids, &mut shard.links, Some(&plane));
            shard
                .metrics
                .record_epoch(wall.elapsed().as_micros() as u64, &counters);
            merged.extend(out);
        }
        merged.sort_by_key(|(id, _)| *id);
        merged
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

    fn manager(clients: usize, shards: usize) -> ShardedManager {
        let mut session = SharedSession::new(64, 48, PixelFormat::Rgb888, "host");
        session.auth_mut().enable_sharing("pw");
        let mut m = ShardedManager::new(session, shards);
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
    fn partition_is_stable_and_total() {
        let m = manager(16, 4);
        let mut seen = Vec::new();
        for s in &m.shards {
            assert_eq!(s.ids.len(), s.links.len());
            for id in &s.ids {
                assert_eq!(m.shard_of(*id), m.shards.iter().position(|x| std::ptr::eq(x, s)).unwrap());
                seen.push(*id);
            }
        }
        seen.sort();
        assert_eq!(seen, m.session().client_ids());
    }

    #[test]
    fn detach_removes_link_and_client() {
        let mut m = manager(8, 3);
        let victim = m.session().client_ids()[3];
        assert!(m.detach(victim).is_some());
        assert!(m.link_mut(victim).is_none());
        assert_eq!(m.session().client_count(), 7);
        assert!(m.detach(victim).is_none());
    }

    #[test]
    fn epoch_merges_in_id_order() {
        let mut m = manager(9, 4);
        let screen = thinc_raster::Framebuffer::new(64, 48, PixelFormat::Rgb888);
        m.session_mut().repay_refreshes(&screen);
        let out = m.flush_epoch(SimTime::ZERO);
        let ids: Vec<ClientId> = out.iter().map(|(id, _)| *id).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids, m.session().client_ids());
        assert!(out.iter().all(|(_, msgs)| !msgs.is_empty()));
    }

    #[test]
    fn one_shard_emits_what_flush_all_emits() {
        // A single shard is the monolithic flush: the same viewers
        // (full-size and scaled) behind the same links, drawn the same
        // noise, emit the same per-client streams at every epoch
        // whether the epoch runs through the manager or straight
        // through `flush_all`. The link is narrower than a frame, so
        // epochs leave backlog behind and later ones continue it.
        use thinc_display::drawable::{DrawableStore, SCREEN};
        use thinc_display::driver::VideoDriver;
        use thinc_raster::Rect;

        let narrow = || {
            let params = TcpParams { sndbuf_bytes: 4 * 1024, ..TcpParams::default() };
            (TcpPipe::new(params), PacketTrace::new())
        };
        let build = || {
            let mut m = manager(1, 1);
            for (i, (vw, vh)) in [(64, 48), (32, 24), (64, 48), (37, 29)].into_iter().enumerate() {
                let creds = Credentials::Peer { user: format!("v{i}"), password: "pw".into() };
                m.attach(&creds, vw, vh, narrow()).unwrap();
            }
            m
        };
        let (mut sharded, mut flat) = (build(), build());
        let mut store = DrawableStore::new(64, 48, PixelFormat::Rgb888);
        let mut emitted = 0;
        for epoch in 0..12u64 {
            if epoch < 4 {
                let rect = Rect::new(4 * epoch as i32, 3 * epoch as i32, 40, 30);
                let data = crate::fixtures::noise(40 * 30 * 3, epoch as u32);
                store.screen_mut().put_raw(&rect, &data);
                sharded.session_mut().put_image(&store, SCREEN, rect, &data);
                flat.session_mut().put_image(&store, SCREEN, rect, &data);
            }
            let now = SimTime(epoch * 20_000);
            let a = sharded.flush_epoch(now);
            let b = flat.session.flush_all(now, &mut flat.shards[0].links);
            emitted += a.iter().map(|(_, msgs)| msgs.len()).sum::<usize>();
            assert_eq!(a, b, "epoch {epoch}");
        }
        assert!(emitted > 20, "the streams under comparison are not empty: {emitted}");
    }
}
