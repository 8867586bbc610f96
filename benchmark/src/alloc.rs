//! Counting `#[global_allocator]`: wraps [`System`] and, only while
//! switched on, counts allocations, allocated bytes and live bytes.
//!
//! Counting is on in the traced run and in the `resident_bytes` phase.
//! Everywhere else an allocation costs one relaxed load on top of `System`,
//! so the dispatcher and the pipeline worker do not bounce a counter line
//! between their cores inside a timed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

/// Counts one allocation of `size` bytes that replaces `freed` bytes.
#[inline]
fn count_alloc(size: usize, freed: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        LIVE_BYTES.fetch_add(size as i64 - freed as i64, Relaxed);
    }
}

/// The allocator installed by [`crate`] for every binary that links it.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are statistics and publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size(), 0);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size, layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// One reading of the counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Snapshot {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) while counting.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes allocated minus bytes freed while counting. Memory allocated
    /// before counting was switched on and freed after it shows as negative,
    /// so phases that read this free nothing older than themselves.
    pub live: i64,
}

impl Snapshot {
    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
            live: self.live - earlier.live,
        }
    }
}

/// Switches counting on or off for the whole process (all threads).
pub fn set_counting(on: bool) {
    ENABLED.store(on, Relaxed);
}

/// Reads the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: ALLOC_BYTES.load(Relaxed),
        live: LIVE_BYTES.load(Relaxed),
    }
}
