//! Serving observability: per-class latency histograms, a queue-depth
//! gauge, shed/completed/expired/abandoned counters, and why each batch
//! closed (full / window ran out / not holding) with the time batches
//! spent open.
//!
//! Everything is lock-free on the hot path — atomic counters and a
//! log₂-bucketed latency histogram — so a client thread shedding at
//! admission or the dispatcher completing a batch never serializes on a
//! metrics mutex. [`Metrics::snapshot`] reads a consistent-enough view
//! (each field individually atomic) for reporting; the `serving` bench
//! exports a snapshot into `BENCH_serving.json` and `scripts/verify.sh`
//! gates the overload story on it.
//!
//! Histogram quantiles are upper bounds of power-of-two buckets, so a
//! reported p99 is within 2× of the true value — good enough for the
//! server's own health view. The bench's *gated* p99 is computed from
//! exact client-side timestamps instead (`scnn_bench`'s `record_latency`),
//! so the verify pins never depend on bucket width.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::admission::SloClass;

const CLASSES: usize = SloClass::ALL.len();
const BUCKETS: usize = 64;

/// Log₂-bucketed latency histogram: bucket `i` counts durations with
/// `ilog2(ns) == i`, i.e. `ns ∈ [2^i, 2^(i+1))`.
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX).max(1);
        let idx = (63 - ns.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Nearest-rank quantile, reported as the matched bucket's upper
    /// bound (`2^(i+1) − 1` ns). `None` when nothing was recorded.
    fn quantile_ns(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        // Nearest-rank: the smallest bucket whose cumulative count
        // reaches ceil(q × total).
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i + 1 >= 64 { u64::MAX } else { (1 << (i + 1)) - 1 });
            }
        }
        unreachable!("rank <= total")
    }
}

/// Per-class counters of everything that can happen to a request.
#[derive(Default)]
struct ClassCounters {
    submitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
    expired: AtomicU64,
    abandoned: AtomicU64,
}

/// Why the dispatcher stopped coalescing a batch — the "batch closed" stage of
/// a request's lifecycle. Together with
/// [`MetricsSnapshot::window_wait_ns`] these say whether holding windows
/// paid on the traffic a server actually saw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BatchClose {
    /// The batch reached `max_batch`.
    Full = 0,
    /// The dispatcher was holding a window and it ran out (or the queue
    /// closed under it) before the batch filled.
    Window = 1,
    /// The dispatcher was not holding (its previous batch was a lone
    /// request): it took what was queued and closed without waiting.
    Idle = 2,
}

/// Shared, internally atomic serving metrics. One instance per
/// [`crate::Server`]; the queue, the admission path and the dispatcher
/// write to it concurrently.
pub struct Metrics {
    classes: [ClassCounters; CLASSES],
    latency: [Histogram; CLASSES],
    queue_depth: AtomicUsize,
    queue_depth_peak: AtomicUsize,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    /// Batches closed, indexed by [`BatchClose`] discriminant.
    closed: [AtomicU64; 3],
    window_wait_ns: AtomicU64,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            classes: std::array::from_fn(|_| ClassCounters::default()),
            latency: std::array::from_fn(|_| Histogram::new()),
            queue_depth: AtomicUsize::new(0),
            queue_depth_peak: AtomicUsize::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            closed: std::array::from_fn(|_| AtomicU64::new(0)),
            window_wait_ns: AtomicU64::new(0),
        }
    }

    pub(crate) fn submitted(&self, class: SloClass) {
        self.classes[class.index()]
            .submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn shed(&self, class: SloClass) {
        self.classes[class.index()].shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn expired(&self, class: SloClass) {
        self.classes[class.index()]
            .expired
            .fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn abandoned(&self, class: SloClass) {
        self.classes[class.index()]
            .abandoned
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One request finished; `latency` is submit → response, so it folds
    /// queue wait and engine time together — the number an SLO is about.
    pub(crate) fn completed(&self, class: SloClass, latency: Duration) {
        self.classes[class.index()]
            .completed
            .fetch_add(1, Ordering::Relaxed);
        self.latency[class.index()].record(latency);
    }

    /// One batch dispatched to the engine with `size` live requests.
    pub(crate) fn batch_ran(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
    }

    /// One batch stopped coalescing for reason `why`, `open` after the
    /// admission that opened it (counted before the abandoned/expired
    /// filter, so it also counts batches that end up empty).
    pub(crate) fn batch_closed(&self, why: BatchClose, open: Duration) {
        self.closed[why as usize].fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(open.as_nanos()).unwrap_or(u64::MAX);
        self.window_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Queue depth changed to `depth`; the peak is a running maximum.
    pub(crate) fn queue_depth_is(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter and quantile.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let classes = std::array::from_fn(|i| ClassSnapshot {
            submitted: self.classes[i].submitted.load(Ordering::Relaxed),
            shed: self.classes[i].shed.load(Ordering::Relaxed),
            completed: self.classes[i].completed.load(Ordering::Relaxed),
            expired: self.classes[i].expired.load(Ordering::Relaxed),
            abandoned: self.classes[i].abandoned.load(Ordering::Relaxed),
            p50_ns: self.latency[i].quantile_ns(0.50),
            p99_ns: self.latency[i].quantile_ns(0.99),
        });
        let closed = |why: BatchClose| self.closed[why as usize].load(Ordering::Relaxed);
        MetricsSnapshot {
            classes,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            closed_full: closed(BatchClose::Full),
            closed_window: closed(BatchClose::Window),
            closed_idle: closed(BatchClose::Idle),
            window_wait_ns: self.window_wait_ns.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of one class's counters and latency quantiles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// Requests offered to admission (accepted + shed).
    pub submitted: u64,
    /// Requests shed at admission because the queue was full.
    pub shed: u64,
    /// Requests that ran and got a response.
    pub completed: u64,
    /// Requests dropped at admission close past their class deadline.
    pub expired: u64,
    /// Requests whose client dropped the response handle before dispatch;
    /// skipped without running.
    pub abandoned: u64,
    /// Submit-to-response p50 (log-bucket upper bound, ≤ 2× true value);
    /// `None` until something completes.
    pub p50_ns: Option<u64>,
    /// Submit-to-response p99, same caveat.
    pub p99_ns: Option<u64>,
}

/// Point-in-time view of a server's [`Metrics`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-class counters, indexed by [`SloClass::index`].
    pub classes: [ClassSnapshot; CLASSES],
    /// Current queued (admitted, not yet dispatched) requests.
    pub queue_depth: usize,
    /// High-water mark of the queue depth — bounded by
    /// [`crate::ServerConfig::queue_capacity`] by construction.
    pub queue_depth_peak: usize,
    /// Batches dispatched to the engine.
    pub batches: u64,
    /// Requests carried by those batches (excludes abandoned/expired).
    pub batched_requests: u64,
    /// Batches closed because they reached `max_batch`.
    pub closed_full: u64,
    /// Batches closed by a held window running out (or the queue closing
    /// under it) before they filled.
    pub closed_window: u64,
    /// Batches closed without waiting: the dispatcher was not holding a
    /// window (its previous batch was a lone request), took what was queued, and
    /// ran.
    pub closed_idle: u64,
    /// Summed time batches spent open — from the admission that opened
    /// each to its close — in nanoseconds. Divided by the three counters'
    /// sum it is the mean wait the window policy added per batch.
    pub window_wait_ns: u64,
}

impl MetricsSnapshot {
    /// Counters for `class`.
    pub fn class(&self, class: SloClass) -> &ClassSnapshot {
        &self.classes[class.index()]
    }

    /// Shed count summed over classes.
    pub fn total_shed(&self) -> u64 {
        self.classes.iter().map(|c| c.shed).sum()
    }

    /// Completed count summed over classes.
    pub fn total_completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Abandoned count summed over classes.
    pub fn total_abandoned(&self) -> u64 {
        self.classes.iter().map(|c| c.abandoned).sum()
    }

    /// Expired count summed over classes.
    pub fn total_expired(&self) -> u64 {
        self.classes.iter().map(|c| c.expired).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bucket_upper_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.99), None);
        // 99 × ~1µs and 1 × ~1s: p50 lands in the µs bucket, p99 still
        // in the µs bucket (rank 99 of 100), p100 in the second bucket.
        for _ in 0..99 {
            h.record(Duration::from_nanos(1_500));
        }
        h.record(Duration::from_secs(1));
        let us_bound = (1u64 << 11) - 1; // 1500 ns → bucket 10 → bound 2^11−1
        assert_eq!(h.quantile_ns(0.50), Some(us_bound));
        assert_eq!(h.quantile_ns(0.99), Some(us_bound));
        assert!(h.quantile_ns(1.0).unwrap() > 1_000_000_000 / 2);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.submitted(SloClass::Interactive);
        m.submitted(SloClass::Interactive);
        m.shed(SloClass::Interactive);
        m.submitted(SloClass::Batch);
        m.completed(SloClass::Batch, Duration::from_micros(10));
        m.abandoned(SloClass::Batch);
        m.expired(SloClass::Interactive);
        m.queue_depth_is(3);
        m.queue_depth_is(1);
        m.batch_ran(2);
        m.batch_closed(BatchClose::Window, Duration::from_micros(3));
        m.batch_closed(BatchClose::Idle, Duration::from_micros(1));
        let s = m.snapshot();
        assert_eq!(s.class(SloClass::Interactive).submitted, 2);
        assert_eq!(s.total_shed(), 1);
        assert_eq!(s.total_completed(), 1);
        assert_eq!(s.total_abandoned(), 1);
        assert_eq!(s.total_expired(), 1);
        assert_eq!(s.queue_depth, 1);
        assert_eq!(s.queue_depth_peak, 3);
        assert_eq!((s.batches, s.batched_requests), (1, 2));
        assert_eq!((s.closed_full, s.closed_window, s.closed_idle), (0, 1, 1));
        assert_eq!(s.window_wait_ns, 4_000);
        assert!(s.class(SloClass::Batch).p99_ns.is_some());
        assert_eq!(s.class(SloClass::Interactive).p99_ns, None);
    }
}
