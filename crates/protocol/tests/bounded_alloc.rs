//! What decoding a forged count allocates.
//!
//! A counted sequence (`Vec`, a byte payload, a string, a region) is a
//! `u32` count, then the elements. A count the bytes left cannot hold
//! is refused before any element is read or any storage reserved, so a
//! damaged checkpoint or frame cannot make the reader reserve gigabytes
//! on the strength of four bytes. This binary holds the one test, so
//! the counting allocator sees no other test's threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use thinc_protocol::codec::Field;
use thinc_protocol::Bytes;
use thinc_raster::{Rect, Region};

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

/// Decodes a `T` from `bytes` and returns whether it decoded and what
/// the decode allocated.
fn decode<T: Field>(bytes: &[u8]) -> (bool, u64) {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let decoded = T::get(&mut &bytes[..]).is_ok();
    (decoded, ALLOCATED.load(Ordering::Relaxed) - before)
}

/// A `u32` count, then `left` zero bytes.
fn counted(count: u32, left: usize) -> Vec<u8> {
    let mut bytes = count.to_le_bytes().to_vec();
    bytes.resize(4 + left, 0);
    bytes
}

#[test]
fn a_count_past_the_bytes_left_allocates_nothing() {
    // Counts from 2^32 − 1 down to one element more than the 64
    // bytes behind them hold (an element takes at least a byte, a
    // `Vec` at least its own count): a typed error, and not a byte
    // reserved.
    for count in [u32::MAX, 1 << 20, 65] {
        let bytes = counted(count, 64);
        let refused = [
            ("Vec<u8>", decode::<Vec<u8>>(&bytes)),
            ("Bytes", decode::<Bytes>(&bytes)),
            ("String", decode::<String>(&bytes)),
            ("Vec<Vec<u8>>", decode::<Vec<Vec<u8>>>(&bytes)),
        ];
        for (what, (decoded, allocated)) in refused {
            assert!(!decoded && allocated == 0, "{what} of {count}: decoded {decoded}, {allocated} B");
        }
    }
    // Fixed-size elements of eight or more bytes.
    for count in [u32::MAX, 1 << 20, 9] {
        let bytes = counted(count, 64);
        let refused = [
            ("Vec<u64>", decode::<Vec<u64>>(&bytes)),
            ("Vec<Rect>", decode::<Vec<Rect>>(&bytes)),
            ("Region", decode::<Region>(&bytes)),
        ];
        for (what, (decoded, allocated)) in refused {
            assert!(!decoded && allocated == 0, "{what} of {count}: decoded {decoded}, {allocated} B");
        }
    }
    // Nested: the outer count fits, the inner one does not. What is
    // reserved is bounded by the bytes there are, never by the count.
    let mut bytes = 2u32.to_le_bytes().to_vec();
    bytes.extend(counted(u32::MAX, 64));
    let (decoded, allocated) = decode::<Vec<Vec<u64>>>(&bytes);
    assert!(!decoded && allocated <= bytes.len() as u64 * 8, "nested: {allocated} B");
    // A count the bytes do hold decodes, reserving what it holds.
    let (decoded, allocated) = decode::<Vec<u8>>(&counted(64, 64));
    assert!(decoded && allocated <= 64, "64 bytes: {allocated} B");
}
