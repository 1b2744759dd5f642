//! Per-thread scratch arenas for kernel workspace.
//!
//! The tiled convolution engine (and the `_into` GEMM variants backing the
//! materialized reference) need short-lived f32 buffers on whichever thread
//! — pool worker or submitter — happens to run a chunk. Allocating them
//! fresh per call is the single largest source of transient heap traffic
//! in a training step; this module replaces that with a thread-local arena
//! that is **reused across steps** and never handed across threads, so no
//! lock sits on the hot path.
//!
//! Loans are strictly bracketed ([`with_scratch`] takes and returns within
//! one call), which makes the global accounting exact: [`live_bytes`] is
//! the sum of currently outstanding loans across all threads, and
//! [`peak_bytes`] its high-water mark since the last [`reset_peak`] — the
//! measured counterpart of the per-layer workspace term the HMMS planner
//! carries in its static layout.
//!
//! Buffers are handed out **zeroed**. Re-zeroing a recycled buffer is a
//! plain memset (no page faults, unlike a fresh `vec![0.0; n]`), and it
//! lets every caller rely on additive-identity starts without tracking
//! which positions a previous loan wrote.
//!
//! The arena keeps at most [`MAX_CACHED`] buffers per thread and reuses by
//! best fit, growing the largest cached buffer when none is big enough —
//! so a thread converges on a few buffers of its peak working sizes
//! instead of one per distinct size ever requested.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cached buffers per thread; the smallest is dropped beyond this.
const MAX_CACHED: usize = 8;

/// Bytes currently on loan (all threads).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARENA: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// Bytes of scratch currently on loan across every thread.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of loaned scratch bytes since the last [`reset_peak`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the current live level.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn note_loan(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn take(elems: usize) -> Vec<f32> {
    let buf = ARENA.with(|a| {
        let mut bins = a.borrow_mut();
        // Best fit: the smallest cached buffer whose capacity suffices;
        // otherwise grow the largest one rather than keeping both.
        let mut best: Option<usize> = None;
        for (i, b) in bins.iter().enumerate() {
            if b.capacity() >= elems
                && best.is_none_or(|j| b.capacity() < bins[j].capacity())
            {
                best = Some(i);
            }
        }
        let pick = best.or_else(|| {
            (0..bins.len()).max_by_key(|&i| bins[i].capacity())
        });
        pick.map(|i| bins.swap_remove(i))
    });
    let buf = match buf {
        Some(mut b) => {
            b.clear();
            // Grow to what was asked, not `Vec`'s doubled capacity: a loan
            // is charged (and resident) at its buffer's capacity, and a
            // doubled buffer inflates every later small loan it serves.
            b.reserve_exact(elems);
            b.resize(elems, 0.0);
            b
        }
        None => vec![0.0f32; elems],
    };
    note_loan(buf.capacity() * 4);
    buf
}

fn put(buf: Vec<f32>) {
    LIVE.fetch_sub(buf.capacity() * 4, Ordering::Relaxed);
    ARENA.with(|a| {
        let mut bins = a.borrow_mut();
        bins.push(buf);
        if bins.len() > MAX_CACHED {
            let min = (0..bins.len())
                .min_by_key(|&i| bins[i].capacity())
                .expect("non-empty");
            bins.swap_remove(min);
        }
    });
}

/// Runs `f` with a zeroed scratch slice of `elems` floats from this
/// thread's arena; the buffer returns to the arena afterwards (also on
/// panic-free early return — panics simply leak the loan accounting, and
/// the test harness never reuses a panicked thread's numbers).
///
/// Loans nest freely on one thread; each nested call gets its own buffer.
pub fn with_scratch<R>(elems: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    let mut buf = take(elems);
    let r = f(&mut buf);
    put(buf);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_zeroed_and_reused() {
        let cap0 = with_scratch(100, |s| {
            assert_eq!(s.len(), 100);
            assert!(s.iter().all(|&v| v == 0.0));
            s[3] = 7.0;
            s.as_ptr() as usize
        });
        // Same thread, same size: the arena hands the same allocation back,
        // zeroed again.
        let cap1 = with_scratch(100, |s| {
            assert!(s.iter().all(|&v| v == 0.0));
            s.as_ptr() as usize
        });
        assert_eq!(cap0, cap1);
    }

    #[test]
    fn nested_loans_get_distinct_buffers() {
        with_scratch(64, |outer| {
            outer[0] = 1.0;
            with_scratch(64, |inner| {
                assert_eq!(inner[0], 0.0);
                inner[0] = 2.0;
            });
            assert_eq!(outer[0], 1.0);
        });
    }

    #[test]
    fn accounting_tracks_loans() {
        // Serial check on this thread only; other tests may run scratch
        // loans concurrently, so compare deltas, not absolutes.
        reset_peak();
        let before = live_bytes();
        with_scratch(1000, |_| {
            assert!(live_bytes() >= before + 4000);
        });
        assert!(peak_bytes() >= before + 4000);
    }

    #[test]
    fn growth_reuses_the_largest_buffer() {
        // A larger request after a smaller one must not leave the arena
        // holding both at peak-size each.
        with_scratch(10, |_| {});
        with_scratch(10_000, |_| {});
        with_scratch(10, |_| {});
        ARENA.with(|a| assert!(a.borrow().len() <= MAX_CACHED));
    }
}
