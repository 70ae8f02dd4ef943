//! Property tests of checkpoint decode hostility: any truncation or
//! single-bit flip of a valid checkpoint image yields a typed
//! [`CheckpointError`], never a panic and never a partially-restored
//! session — and after every rejected image the cold path (a fresh
//! session serving a full repaint) still works. The same contract the
//! wire codec proves in `crates/protocol/tests/property.rs`, applied
//! to the persistence layer.

use proptest::prelude::*;
use thinc_core::server::{ServerConfig, ThincServer};
use thinc_core::session::{Credentials, SharedSession};
use thinc_display::drawable::{DrawableStore, SCREEN};
use thinc_display::driver::VideoDriver;
use thinc_net::link::NetworkConfig;
use thinc_net::time::SimTime;
use thinc_net::trace::PacketTrace;
use thinc_raster::{Color, PixelFormat, Rect};

/// Builds a session with live mid-flight state — two clients, cached
/// tiles, undelivered backlog — whose checkpoint exercises every
/// section of the image format. `salt` perturbs the painted content
/// so different cases attack different byte patterns.
fn busy_session(salt: u64) -> (SharedSession, DrawableStore) {
    let mut s = SharedSession::new(64, 48, PixelFormat::Rgb888, "host")
        .with_buffer_bound(256 * 1024)
        .with_cache(64 * 1024)
        .with_liveness(thinc_core::LivenessConfig::default());
    s.auth_mut().enable_sharing("pw");
    s.attach(&Credentials::Owner { user: "host".into() }, 64, 48)
        .unwrap();
    s.attach(
        &Credentials::Peer {
            user: "guest".into(),
            password: "pw".into(),
        },
        32,
        24,
    )
    .unwrap();
    let mut store = DrawableStore::new(64, 48, PixelFormat::Rgb888);
    let c = Color::rgb(salt as u8, (salt >> 8) as u8, (salt >> 16) as u8);
    store.screen_mut().fill_rect(&Rect::new(0, 0, 64, 48), c);
    s.solid_fill(&store, SCREEN, Rect::new(0, 0, 64, 48), c);
    // Incompressible noise so the image carries real payload bytes.
    let mut x = salt | 1;
    let noise: Vec<u8> = (0..24 * 16 * 3)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as u8
        })
        .collect();
    store.screen_mut().put_raw(&Rect::new(4, 4, 24, 16), &noise);
    s.put_image(&store, SCREEN, Rect::new(4, 4, 24, 16), &noise);
    // One partial flush: ledgers populated, backlog left in flight.
    let mut links = vec![
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
        (NetworkConfig::lan_desktop().connect().down, PacketTrace::new()),
    ];
    let _ = s.flush_all(SimTime(10_000), &mut links);
    store.screen_mut().put_raw(&Rect::new(10, 20, 24, 16), &noise);
    s.put_image(&store, SCREEN, Rect::new(10, 20, 24, 16), &noise);
    (s, store)
}

/// The cold path a rejected image falls back to: a fresh session
/// attaches and serves. Asserted after every hostile decode so "typed
/// error" provably means "recoverable", not just "did not panic".
fn cold_start_works() {
    let mut cold = SharedSession::new(64, 48, PixelFormat::Rgb888, "host");
    cold.attach(&Credentials::Owner { user: "host".into() }, 64, 48)
        .expect("cold start attaches after a rejected checkpoint");
}

proptest! {
    /// Every truncation of a session image is a typed error.
    #[test]
    fn truncated_session_images_are_typed_errors(salt in any::<u64>(), cut_pick in any::<u32>()) {
        let (s, store) = busy_session(salt);
        let image = s.checkpoint(store.screen());
        let cut = (cut_pick as usize) % image.len();
        prop_assert!(SharedSession::restore(&image[..cut]).is_err());
        cold_start_works();
    }

    /// Every single-bit flip of a session image is a typed error: the
    /// header checks catch structural damage, the CRC32 catches all
    /// payload damage (CRC32 detects every single-bit error).
    #[test]
    fn bit_flipped_session_images_are_typed_errors(
        salt in any::<u64>(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let (s, store) = busy_session(salt);
        let mut image = s.checkpoint(store.screen());
        let idx = (pos as usize) % image.len();
        image[idx] ^= 1 << bit;
        prop_assert!(
            SharedSession::restore(&image).is_err(),
            "flip at byte {idx} bit {bit} was accepted"
        );
        cold_start_works();
    }

    /// Multi-bit vandalism (arbitrary flips, splices, random tails)
    /// never panics; if it is somehow accepted it must behave like a
    /// real session (re-checkpointing without panicking).
    #[test]
    fn vandalized_session_images_never_panic(
        salt in any::<u64>(),
        flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..64),
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let (s, store) = busy_session(salt);
        let mut image = s.checkpoint(store.screen());
        for (pos, bit) in &flips {
            let idx = (*pos as usize) % image.len();
            image[idx] ^= 1 << bit;
        }
        image.extend(tail);
        if let Ok(restored) = SharedSession::restore(&image) {
            let _ = restored.checkpoint(store.screen());
        }
        cold_start_works();
    }

    /// A well-sealed image whose roster is out of order is malformed:
    /// lookups binary-search the roster, so ids must strictly ascend
    /// and stay below the next id to hand out. The image is re-sealed
    /// after the edit, so only the roster check can reject it.
    #[test]
    fn unordered_rosters_are_malformed(
        salt in any::<u64>(),
        pick in 0usize..4,
        wild in any::<u32>(),
    ) {
        // A duplicate of the host's id, the true id, the first id not
        // yet handed out, anything.
        let guest_id = [0, 1, 2, wild][pick];
        let (s, store) = busy_session(salt);
        let image = s.checkpoint(store.screen());
        let mut payload = thinc_core::checkpoint::open(&image).unwrap().to_vec();
        // The guest's record opens with its id (1) and its name.
        let guest: Vec<u8> = [&1u32.to_le_bytes()[..], &5u32.to_le_bytes(), b"guest"].concat();
        let at = payload
            .windows(guest.len())
            .position(|w| w == guest)
            .expect("the guest's roster record");
        payload[at..at + 4].copy_from_slice(&guest_id.to_le_bytes());
        let edited = thinc_core::checkpoint::seal(payload);
        match SharedSession::restore(&edited) {
            // Only the id the session really handed out restores.
            Ok(_) => prop_assert_eq!(guest_id, 1),
            Err(e) => {
                prop_assert_ne!(guest_id, 1);
                prop_assert!(
                    matches!(e, thinc_core::checkpoint::CheckpointError::Malformed(_)),
                    "{:?}", e
                );
            }
        }
        cold_start_works();
    }

    /// Pure garbage is never a session.
    #[test]
    fn garbage_is_never_a_session(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        prop_assert!(SharedSession::restore(&bytes).is_err());
        cold_start_works();
    }

    /// The single-client server checkpoint holds the same contract:
    /// truncations and single-bit flips are typed errors, and the
    /// cold path (a fresh server) survives every rejection.
    #[test]
    fn hostile_server_images_are_typed_errors(
        cut_pick in any::<u32>(),
        pos in any::<u32>(),
        bit in 0u8..8,
    ) {
        let server = ThincServer::new(ServerConfig::default());
        let image = server.checkpoint();
        let cut = (cut_pick as usize) % image.len();
        prop_assert!(ThincServer::restore(&image[..cut]).is_err());
        let mut flipped = image.clone();
        let idx = (pos as usize) % flipped.len();
        flipped[idx] ^= 1 << bit;
        prop_assert!(ThincServer::restore(&flipped).is_err());
        let _ = ThincServer::new(ServerConfig::default());
    }
}
