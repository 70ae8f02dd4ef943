//! What sending a photograph through a socket buffer allocates.
//!
//! A RAW that does not fit the pipe is cut where the pipe fills and
//! the remainder stays queued (§5). Head and tail are views of the
//! payload (`Bytes::slice`), so draining a 1.7 MB image through the
//! product's 256 KB socket buffer in seven pieces must allocate next
//! to nothing; when each cut copied both halves it allocated about
//! five times the payload. The photograph is drawn on a session of one
//! and drained by its flushes, the path every viewer's bytes take.
//! This binary holds the one test, so the counting allocator sees no
//! other test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use thinc_core::server::VIEWER;
use thinc_core::{ServerConfig, SharedSession};
use thinc_display::drawable::{DrawableStore, SCREEN};
use thinc_display::driver::VideoDriver;
use thinc_net::tcp::{TcpParams, TcpPipe};
use thinc_net::time::{SimDuration, SimTime};
use thinc_net::trace::PacketTrace;
use thinc_protocol::commands::{DisplayCommand, RawEncoding};
use thinc_protocol::message::Message;
use thinc_raster::{Framebuffer, PixelFormat, Rect};

/// Bytes requested from the allocator so far (frees are not netted).
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System::realloc`'s own.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// LCG noise: the codec cannot shrink it, so it leaves uncompressed
/// and in as many pieces as the pipe makes of it.
fn photograph(w: u32, h: u32) -> Vec<u8> {
    let mut state = 0x9E37_79B9u32;
    (0..w * h * 3)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 24) as u8
        })
        .collect()
}

/// Draws `photo` across the session's screen (the translator copies
/// it into an allocation of its own) and flushes until it is gone,
/// into the benchmark's pipe: it never paces, and the product's
/// default 256 KB socket buffer is still there. Returns the bytes
/// allocated inside the flushes, the payload bytes shipped, and the
/// pieces they left in.
fn drain(session: &mut SharedSession, photo: &[u8]) -> (u64, u64, u32) {
    let (w, h) = (1600, 360);
    let mut screen = DrawableStore::new(w, h, PixelFormat::Rgb888);
    screen.screen_mut().put_raw(&Rect::new(0, 0, w, h), photo);
    session.put_image(&screen, SCREEN, Rect::new(0, 0, w, h), photo);
    let mut pipe = TcpPipe::new(TcpParams {
        bandwidth_bps: 100_000_000_000,
        rtt: SimDuration::from_micros(10),
        rwnd_bytes: 1 << 30,
        ..TcpParams::default()
    });
    let mut trace = PacketTrace::new();
    let (mut now, mut in_flush, mut shipped, mut pieces) = (SimTime::ZERO, 0, 0, 0);
    while session.backlog(VIEWER) > 0 {
        let before = ALLOCATED.load(Ordering::Relaxed);
        let sent = session.flush_client(VIEWER, now, &mut pipe, &mut trace);
        in_flush += ALLOCATED.load(Ordering::Relaxed) - before;
        for (_, msg) in &sent {
            let Message::Display(DisplayCommand::Raw { encoding: RawEncoding::None, data, .. }) = msg
            else {
                panic!("noise left as {msg:?}");
            };
            shipped += data.len() as u64;
            pieces += 1;
        }
        now += SimDuration::from_millis(1);
        trace.clear();
    }
    (in_flush, shipped, pieces)
}

#[test]
fn draining_a_photograph_through_the_socket_buffer_allocates_a_fraction_of_it() {
    let payload = 1600 * 360 * 3u64;
    let mut session = ServerConfig { width: 1600, height: 360, ..ServerConfig::default() }.session();
    // A revision-2 viewer: no ledger, which would turn the revisit into
    // references. The session's cache budget still keeps what its form
    // store learns.
    let hello = Message::ClientHello { version: 2, viewport_width: 1600, viewport_height: 360 };
    session.handle_message(VIEWER, &hello, &Framebuffer::new(1600, 360, PixelFormat::Rgb888));
    let codec = |s: &SharedSession| s.viewer(VIEWER).unwrap().buffer().stats().codec_input_bytes;
    // The first visit grows the codec's scratch buffers and teaches the
    // store that no piece of this image compresses. The pin is on the
    // second: the same bytes in a fresh allocation, whose pieces go by
    // the same identities (root content and range), so the codec — 48 KB
    // of match-finder tables an encode, two encodes a piece — is not
    // asked again and what is left is the cutting itself.
    drain(&mut session, &photograph(1600, 360));
    let fed = codec(&session);
    let (in_flush, shipped, pieces) = drain(&mut session, &photograph(1600, 360));
    assert_eq!(codec(&session), fed, "a piece of the revisit went by a new identity");
    assert_eq!(shipped, payload, "every byte left, once");
    assert!(pieces >= 7, "1.7 MB through 256 KB left in {pieces} pieces");
    assert!(
        in_flush * 10 < payload,
        "flush allocated {in_flush} bytes to ship a {payload}-byte payload ({:.2}x)",
        in_flush as f64 / payload as f64
    );
}
