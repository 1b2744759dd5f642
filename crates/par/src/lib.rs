//! Deterministic, zero-dependency data parallelism for the workspace.
//!
//! A persistent pool of `std::thread` workers executes index-addressed task
//! ranges. The cardinal rule — enforced by construction, documented in
//! DESIGN.md §"Threading model" — is that **work decomposition is a function
//! of problem size only, never of thread count**. Callers split their
//! problem into `tasks` chunks (via [`grain`] or a fixed tile size), each
//! chunk writes a disjoint output region, and any floating-point reduction
//! inside a chunk runs in a fixed order. Threads only *claim* chunks; they
//! never reshape them. Consequently every kernel built on this crate is
//! bit-identical under any `SCNN_THREADS`, which is what keeps the PR 1
//! determinism regression tests (and the paper's split-vs-unsplit exactness
//! argument) valid on any host.
//!
//! Thread count resolution order:
//!
//! 1. a thread-local [`with_threads`] override (used by tests to sweep
//!    counts in-process),
//! 2. the `SCNN_THREADS` environment variable (read once; `1` forces the
//!    fully serial path, `0` or unset means auto),
//! 3. [`std::thread::available_parallelism`].
//!
//! Nested parallel regions run serially inline on the worker that entered
//! them, so kernels may call [`parallel_for`] freely even when the executor
//! already runs sibling split-patch branches on the pool.
//!
//! Workers **spin, then park**: after its last task a worker polls a
//! lock-free submission epoch for a short fixed budget before it blocks on
//! the pool condvar, and a submitter likewise polls for its last tasks
//! before it blocks on the job latch — so a string of sub-millisecond
//! regions (the waves of one forward pass) forks without a futex wake-up
//! per region, while an idle process stops using CPU one budget after its
//! last region. The protocol, who may poll and the budget's sizing are in
//! DESIGN.md §"Threading model"; none of it is configurable, and none of
//! it touches which chunks exist or who may claim them.

pub mod background;
pub mod scratch;

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Upper bound on chunk count produced by [`grain`]. Fixed (never derived
/// from the thread count) so decomposition is a pure function of size.
const MAX_CHUNKS: usize = 128;

/// Hard cap on pool size; `SCNN_THREADS` beyond this is clamped.
const MAX_THREADS: usize = 256;

/// How long an idle worker polls for the next region before it parks, and
/// how long a submitter polls for its last tasks before it blocks. Sized
/// from the `par_fork_join/*` micro-bench (DESIGN.md §9): long enough to
/// bridge the gaps between the waves of one forward pass, short enough
/// that an idle process stops burning CPU at once. A constant, not an
/// option: there is one right order of magnitude (a futex wake-up of a
/// halted vCPU) and nothing a caller knows that the pool does not.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

thread_local! {
    /// In-process thread-count override (for tests sweeping counts).
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set while executing pool tasks; makes nested regions run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// One submitted parallel region: `total` tasks claimed by atomic counter.
struct Job {
    /// Type-erased task body; valid for the lifetime of the submitting
    /// call, which blocks until `remaining` hits zero.
    task: TaskPtr,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Total number of tasks.
    total: usize,
    /// Tasks not yet finished executing.
    remaining: AtomicUsize,
    /// Set by the submitter once it gives up polling `remaining` and
    /// blocks on `done_cv`; the last finisher signals only if it is set.
    submitter_parked: AtomicBool,
    /// Completion latch the parked submitter waits on.
    done: Mutex<()>,
    done_cv: Condvar,
    /// First panic payload observed in a task, re-thrown by the submitter.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Raw pointer to the borrowed task closure. Safety: the submitting call
/// keeps the closure alive and blocks until every claimed task completes,
/// so workers never dereference a dangling pointer.
struct TaskPtr(*const (dyn Fn(usize) + Sync));
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

struct Pool {
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Parked workers wait here; signalled only when `sleepers > 0`.
    available: Condvar,
    /// Submission epoch: bumped after every push. Polling workers watch
    /// it without touching the queue lock.
    epoch: AtomicUsize,
    /// Workers parked on `available` (or committed to parking: the count
    /// is raised under the queue lock *before* the final queue check).
    sleepers: AtomicUsize,
    /// Workers spawned so far; grown under `spawn_lock`.
    spawned: AtomicUsize,
    spawn_lock: Mutex<()>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        epoch: AtomicUsize::new(0),
        sleepers: AtomicUsize::new(0),
        spawned: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

/// The machine's hardware parallelism (1 when unknown), read once.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Whether anyone may poll: only while the pool's workers plus one
/// submitter fit the hardware threads. An oversubscribed pool
/// (`with_threads(7)` on 2 CPUs) has more runnable threads than CPUs
/// whenever a region is in flight; a poller there only keeps a thread
/// that holds work off the CPU, so every worker parks at once and every
/// submitter blocks at once — on a single CPU, always.
fn polling_pays(p: &Pool) -> bool {
    p.spawned.load(Ordering::Relaxed) < hardware_threads()
}

/// `SCNN_THREADS`, read once per process; `0`, unset or unparsable means
/// "auto" (available parallelism).
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("SCNN_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(0) | Err(_) => hardware_threads(),
            Ok(n) => n,
        },
        Err(_) => hardware_threads(),
    })
}

/// The thread count parallel regions currently target: the
/// [`with_threads`] override if one is active, else `SCNN_THREADS`, else
/// the machine's available parallelism. Always ≥ 1. Note this never
/// affects *results*, only how many workers claim the fixed chunk set.
pub fn max_threads() -> usize {
    OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(env_threads)
        .clamp(1, MAX_THREADS)
}

/// Runs `f` with the thread count overridden to `n` on this thread (the
/// override applies to parallel regions entered from this thread only).
/// Used by property tests to verify bit-identity across counts without
/// respawning the process per `SCNN_THREADS` value.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Grows the pool to at least `target` workers. Workers are persistent —
/// they poll briefly, then park on the shared queue — and are never torn
/// down (the process exit reclaims them), so repeated parallel regions pay
/// no spawn cost.
fn ensure_workers(target: usize) {
    let p = pool();
    if p.spawned.load(Ordering::Acquire) >= target {
        return;
    }
    let _spawning = p.spawn_lock.lock().unwrap();
    for i in p.spawned.load(Ordering::Acquire)..target {
        std::thread::Builder::new()
            .name(format!("scnn-par-{i}"))
            .spawn(worker_main)
            .expect("spawning pool worker");
        p.spawned.store(i + 1, Ordering::Release);
    }
}

/// `(parked, spawned)` worker counts — a diagnostic for tests that prove
/// an idle pool burns no CPU: one [`SPIN_BUDGET`] after the last region
/// every spawned worker is parked.
#[doc(hidden)]
pub fn parked_workers() -> (usize, usize) {
    let p = pool();
    (
        p.sleepers.load(Ordering::SeqCst),
        p.spawned.load(Ordering::Acquire),
    )
}

/// The front job that still has unclaimed tasks, dropping fully-claimed
/// jobs on the way (their submitters already wait on the completion
/// latch).
fn front_job(q: &mut VecDeque<Arc<Job>>) -> Option<Arc<Job>> {
    while q
        .front()
        .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.total)
    {
        q.pop_front();
    }
    q.front().cloned()
}

/// Polls `ready` until it holds or [`SPIN_BUDGET`] runs out; returns
/// whether it held. The poll pauses and never yields: a `sched_yield`
/// every few microseconds was measured and costs `serve_closed_c1` 3–8 %
/// (DESIGN.md §9 has the numbers and the one host state it would help).
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if ready() {
            return true;
        }
        if start.elapsed() >= SPIN_BUDGET {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// Spin, then park (DESIGN.md §9). A worker that finds the queue empty
/// polls the submission epoch for one budget — a region submitted in that
/// time starts on this thread with no wake-up at all — and only then
/// parks. No submission can be missed: the epoch is read *before* the
/// queue check it guards, so a push that check did not see bumps the
/// epoch past `seen`; and the park path raises `sleepers` under the queue
/// lock before its own final check, so a push either precedes that check
/// (and is seen) or follows it and finds `sleepers > 0` (and signals).
fn worker_main() {
    IN_POOL.with(|f| f.set(true));
    let p = pool();
    loop {
        let seen = p.epoch.load(Ordering::SeqCst);
        let found = front_job(&mut p.queue.lock().unwrap());
        if let Some(job) = found {
            run_tasks(&job);
            continue;
        }
        let submitted = || p.epoch.load(Ordering::SeqCst) != seen;
        if !(polling_pays(p) && spin_until(submitted)) {
            run_tasks(&park(p));
        }
    }
}

/// Blocks on the pool condvar until a job with unclaimed tasks appears.
fn park(p: &Pool) -> Arc<Job> {
    let mut q = p.queue.lock().unwrap();
    p.sleepers.fetch_add(1, Ordering::SeqCst);
    loop {
        if let Some(job) = front_job(&mut q) {
            p.sleepers.fetch_sub(1, Ordering::SeqCst);
            return job;
        }
        q = p.available.wait(q).unwrap();
    }
}

/// Claims and executes tasks from `job` until none remain unclaimed.
fn run_tasks(job: &Job) {
    loop {
        let i = job.next.fetch_add(1, Ordering::Relaxed);
        if i >= job.total {
            return;
        }
        // SAFETY: see `TaskPtr` — the submitter keeps the closure alive
        // until `remaining` reaches zero, and this task still counts.
        let body = unsafe { &*job.task.0 };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
            let mut slot = job.panic.lock().unwrap();
            slot.get_or_insert(payload);
        }
        // SeqCst pairs with the submitter's `submitter_parked` store /
        // `remaining` load: of "last task done" and "submitter parked",
        // whichever happens second sees the first, so the submitter is
        // either signalled or never blocks.
        if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1
            && job.submitter_parked.load(Ordering::SeqCst)
        {
            let _latch = job.done.lock().unwrap();
            job.done_cv.notify_all();
        }
    }
}

/// Executes `body(0) … body(tasks-1)`, possibly concurrently. Blocks until
/// all tasks finish. Each task must write only state disjoint from every
/// other task's. The task *set* is fixed by the caller; the thread count
/// only changes who runs which task, so any per-task computation is
/// bit-identical at every `SCNN_THREADS`.
///
/// Runs serially inline when `tasks <= 1`, when the effective thread count
/// is 1, or when already inside a pool task (nested regions).
///
/// # Panics
///
/// Re-throws the first panic raised by any task, after all tasks finish.
pub fn parallel_for<F>(tasks: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if tasks == 0 {
        return;
    }
    let threads = max_threads();
    if tasks == 1 || threads <= 1 || IN_POOL.with(Cell::get) {
        for i in 0..tasks {
            body(i);
        }
        return;
    }
    ensure_workers(threads - 1);
    let erased: &(dyn Fn(usize) + Sync) = &body;
    // SAFETY: erases the borrow lifetime; this call keeps `body` alive
    // and blocks until every claimed task completes (see `TaskPtr`).
    let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(erased) };
    let task = TaskPtr(erased as *const _);
    let job = Arc::new(Job {
        task,
        next: AtomicUsize::new(0),
        total: tasks,
        remaining: AtomicUsize::new(tasks),
        submitter_parked: AtomicBool::new(false),
        done: Mutex::new(()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    let p = pool();
    p.queue.lock().unwrap().push_back(Arc::clone(&job));
    // Bump after the push (polling workers re-check the queue when it
    // moves), signal only if someone is parked: in the hot state — every
    // worker polling — a region costs no syscall.
    p.epoch.fetch_add(1, Ordering::SeqCst);
    if p.sleepers.load(Ordering::SeqCst) > 0 {
        p.available.notify_all();
    }
    // The submitting thread claims tasks too (inline-nested while it does).
    IN_POOL.with(|f| f.set(true));
    run_tasks(&job);
    IN_POOL.with(|f| f.set(false));
    // Tasks claimed by workers may still be running: poll for one budget
    // (they are usually microseconds from done), then block.
    let finished = || job.remaining.load(Ordering::SeqCst) == 0;
    if !(polling_pays(p) && spin_until(finished)) {
        job.submitter_parked.store(true, Ordering::SeqCst);
        let mut latch = job.done.lock().unwrap();
        while !finished() {
            latch = job.done_cv.wait(latch).unwrap();
        }
    }
    let payload = job.panic.lock().unwrap().take();
    if let Some(payload) = payload {
        resume_unwind(payload);
    }
}

/// Splits `data` into consecutive chunks of `chunk_len` (last one short)
/// and runs `body(chunk_index, chunk)` for each, possibly concurrently.
/// The chunk boundaries depend only on `data.len()` and `chunk_len`.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, body: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk_len = chunk_len.max(1);
    let len = data.len();
    let tasks = len.div_ceil(chunk_len);
    // Share the base pointer as an address so the closure stays `Sync`;
    // chunks are disjoint by construction.
    let base = data.as_mut_ptr() as usize;
    parallel_for(tasks, move |i| {
        let start = i * chunk_len;
        let end = (start + chunk_len).min(len);
        // SAFETY: `start..end` lies inside `data`, and chunks are disjoint.
        let chunk = unsafe {
            std::slice::from_raw_parts_mut((base as *mut T).add(start), end - start)
        };
        body(i, chunk);
    });
}

/// A deterministic chunk length for a problem of `len` units: at least
/// `min_grain` units per chunk, and never more than [`MAX_CHUNKS`] chunks
/// overall. Depends only on the arguments — never on the thread count —
/// so decompositions built with it are stable across `SCNN_THREADS`.
pub fn grain(len: usize, min_grain: usize) -> usize {
    len.div_ceil(MAX_CHUNKS).max(min_grain).max(1)
}

/// Shared mutable view over a slice for tasks writing statically disjoint
/// regions that are *not* consecutive chunks (e.g. column bands of a
/// row-major matrix). The caller promises disjointness; the type only
/// carries the pointer across the `Sync` closure boundary.
pub struct DisjointMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

unsafe impl<T: Send> Send for DisjointMut<'_, T> {}
unsafe impl<T: Send> Sync for DisjointMut<'_, T> {}

impl<'a, T> DisjointMut<'a, T> {
    /// Wraps a slice.
    pub fn new(data: &'a mut [T]) -> Self {
        DisjointMut {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable view of `start..end`.
    ///
    /// # Safety
    ///
    /// Ranges handed out to concurrently running tasks must not overlap.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range(&self, start: usize, end: usize) -> &mut [T] {
        assert!(start <= end && end <= self.len, "disjoint range out of bounds");
        std::slice::from_raw_parts_mut(self.ptr.add(start), end - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 1000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        with_threads(4, || {
            parallel_for(n, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_are_a_function_of_size_only() {
        // The same reduction, chunked identically, must agree bitwise at
        // every thread count — the crate's foundational property.
        let data: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let reduce = |threads: usize| {
            with_threads(threads, || {
                let g = grain(data.len(), 64);
                let mut partials = vec![0.0f32; data.len().div_ceil(g)];
                par_chunks_mut(&mut partials, 1, |ci, p| {
                    let s = ci * g;
                    let e = (s + g).min(data.len());
                    p[0] = data[s..e].iter().sum::<f32>();
                });
                // Fixed-order combine.
                partials.iter().sum::<f32>()
            })
        };
        let reference = reduce(1);
        for t in [2, 4, 7] {
            assert_eq!(reduce(t).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn par_chunks_mut_writes_disjoint_chunks() {
        // One-element chunks are the one-task-per-index map.
        for (threads, len) in [(4, 10), (7, 1)] {
            let mut data = vec![0usize; 103];
            with_threads(threads, || {
                par_chunks_mut(&mut data, len, |ci, chunk| {
                    for (off, v) in chunk.iter_mut().enumerate() {
                        *v = ci * len + off;
                    }
                });
            });
            assert_eq!(data, (0..103).collect::<Vec<_>>(), "{threads} threads, chunks of {len}");
        }
    }

    #[test]
    fn nested_regions_run_inline() {
        let total = AtomicUsize::new(0);
        with_threads(4, || {
            parallel_for(8, |_| {
                // Nested region: must not deadlock, must still cover all.
                parallel_for(16, |_| {
                    total.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 8 * 16);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                parallel_for(64, |i| {
                    if i == 13 {
                        panic!("boom at 13");
                    }
                });
            });
        });
        assert!(result.is_err());
    }

    #[test]
    fn serial_override_avoids_the_pool() {
        // threads == 1 runs on the calling thread (observable via IN_POOL
        // never being set for the bodies).
        let on_caller = AtomicUsize::new(0);
        with_threads(1, || {
            parallel_for(32, |_| {
                if !IN_POOL.with(Cell::get) {
                    on_caller.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(on_caller.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn grain_ignores_thread_count() {
        let g1 = with_threads(1, || grain(100_000, 16));
        let g7 = with_threads(7, || grain(100_000, 16));
        assert_eq!(g1, g7);
        assert!(grain(10, 16) == 16);
        assert!(grain(0, 1) == 1);
    }

    #[test]
    fn disjoint_mut_hands_out_ranges() {
        let mut v = vec![0u32; 20];
        let d = DisjointMut::new(&mut v);
        with_threads(4, || {
            parallel_for(4, |i| {
                let r = unsafe { d.range(i * 5, i * 5 + 5) };
                for x in r {
                    *x = i as u32;
                }
            });
        });
        assert_eq!(v[0], 0);
        assert_eq!(v[19], 3);
    }
}
