//! Peak-heap tracking (feature `heap-track`): a counting wrapper around
//! the system allocator.
//!
//! Install it in a binary with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: scnn_bench::heap::CountingAlloc = scnn_bench::heap::CountingAlloc;
//! ```
//!
//! then bracket a region with [`reset_peak`] / [`peak_bytes`] to get the
//! whole process's true high-water heap usage — kernels, scratch buffers,
//! everything, not just the activation table the providers account. The
//! `memory` bench uses it (when built with the feature) to sanity-check
//! that the plan-level numbers track reality.
//!
//! Behind a feature because a global atomic on every allocation costs a
//! few percent on allocation-heavy paths — timing benchmarks should not
//! pay it by default.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn add(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn sub(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Bytes currently allocated through the tracking allocator.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water heap bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The counting allocator; delegates every operation to [`System`].
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the atomics only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract, passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract, passed on unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            sub(layout.size());
            add(new_size);
        }
        p
    }
}
