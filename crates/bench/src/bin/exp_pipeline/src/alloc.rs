//! A counting global allocator for the traced run.
//!
//! The product crates `forbid(unsafe_code)`; this package is outside
//! them, so the one `unsafe impl` lives here. Counting is gated by a
//! single relaxed flag that only `--trace 1` sets: the untraced run —
//! the one the end-to-end metrics come from — pays one relaxed load per
//! allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
// Signed: blocks allocated before counting was enabled may be freed
// after, taking the live figure below its starting point.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

/// The allocator installed by `main.rs`: `System` plus counters.
pub struct Counting;

fn grow(bytes: usize) {
    let bytes = bytes as i64;
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // A new peak is rare; the load keeps the common case to a read.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics (relaxed atomics that publish no other data) and never
// influence which pointer is returned or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grow(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (i.e. from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grow(new_size);
        }
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live
        // `System` block and `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off. The traced run counts on some iterations
/// only, so its timings come from iterations that paid nothing for
/// counting and its allocation figures from ones that did.
pub fn enable(on: bool) {
    ENABLED.store(on, Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Counters at one instant; subtract two to get a span's allocations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    count: u64,
    bytes: u64,
    live: i64,
    saved_peak: i64,
}

/// What happened between a [`mark`] and its [`since`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delta {
    /// Allocation calls (a `realloc` counts as one).
    pub count: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Highest live-byte figure reached, above the live bytes at the mark.
    pub peak: u64,
}

/// Starts an allocation window. Windows nest: the peak is restarted from
/// the current live figure and the enclosing window's peak is restored
/// (raised if this one went higher) by [`since`].
pub fn mark() -> Mark {
    let live = LIVE.load(Relaxed);
    Mark {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live,
        saved_peak: PEAK.swap(live, Relaxed),
    }
}

/// Ends the window opened by `m`.
pub fn since(m: Mark) -> Delta {
    let peak = PEAK.fetch_max(m.saved_peak, Relaxed);
    Delta {
        count: COUNT.load(Relaxed) - m.count,
        bytes: BYTES.load(Relaxed) - m.bytes,
        peak: (peak - m.live).max(0) as u64,
    }
}
