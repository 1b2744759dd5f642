//! Admission-control and failure-containment properties of the server,
//! pinned deterministically through stub [`BatchRunner`]s (no model in
//! the loop):
//!
//! - **Bounded shedding** — with the dispatcher wedged inside `run`, a
//!   burst of `capacity + k` submissions admits exactly `capacity` and
//!   sheds exactly `k` with [`ServeError::Overloaded`]; nothing blocks;
//! - **Abandoned work is skipped** — jobs whose client dropped the
//!   [`scnn_serve::ResponseHandle`] never reach the engine;
//! - **Deadline expiry** — a request queued past its class deadline is
//!   answered [`ServeError::DeadlineExceeded`] without running;
//! - **Panic containment** — an engine panic becomes
//!   [`ServeError::EngineDown`] values on every pending and subsequent
//!   request, and [`scnn_serve::Server::shutdown`] reports the failure as
//!   a value instead of re-throwing;
//! - **Budget cross-check** — `params + max_batch × pool` is validated
//!   against `budget_bytes` at startup, exactly at the boundary, and an
//!   over-budget `max_batch` is an error value;
//! - **A window is held only while windows pay** — a lone request on a
//!   fresh server never waits out its window; after a batch with company
//!   the next window is held, after a lone batch it is not; a burst that
//!   queued up behind a busy dispatcher rides in one batch in either
//!   state; `max_batch` and the interactive pull-forward still close a
//!   held window early.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use scnn_serve::{
    BatchPolicy, BatchRunner, ClassPolicy, ServeError, Server, ServerConfig, SloClass,
};
use scnn_tensor::Tensor;

/// A batch policy with a tight interactive window (fast batch close).
/// `None` means a deadline long enough that gate-wedged requests never
/// expire even on a fully loaded CI host — only the explicit-deadline
/// test exercises expiry.
fn policy_of(max_batch: usize, interactive_deadline: Option<Duration>) -> BatchPolicy {
    BatchPolicy {
        max_batch,
        interactive: ClassPolicy {
            window: Duration::from_millis(1),
            deadline: interactive_deadline.unwrap_or(Duration::from_secs(300)),
        },
        ..BatchPolicy::default()
    }
}

const SHAPE: [usize; 2] = [1, 4];

fn request(tag: f32) -> Tensor {
    Tensor::from_vec(vec![tag; 4], &SHAPE)
}

/// Reusable barrier: `run` parks on it until the test opens it.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }

    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    /// Closes the gate again (call only while no batch is in flight).
    fn arm(&self) {
        *self.open.lock().unwrap() = false;
    }
}

/// Echoes each request's payload back as its logits; optionally parks on
/// a gate first so tests can wedge the dispatcher deterministically.
struct StubRunner {
    gate: Option<Arc<Gate>>,
    entered: AtomicUsize,
    requests_run: AtomicUsize,
    /// Size of every batch `run` saw, in order.
    batch_sizes: Mutex<Vec<usize>>,
    planned: Option<(usize, usize)>,
}

impl StubRunner {
    fn new(gate: Option<Arc<Gate>>, planned: Option<(usize, usize)>) -> Self {
        StubRunner {
            gate,
            entered: AtomicUsize::new(0),
            requests_run: AtomicUsize::new(0),
            batch_sizes: Mutex::new(Vec::new()),
            planned,
        }
    }

    fn gated(gate: Arc<Gate>) -> Self {
        StubRunner::new(Some(gate), None)
    }

    fn with_layout(params: usize, pool: usize) -> Self {
        StubRunner::new(None, Some((params, pool)))
    }

    fn batch_sizes(&self) -> Vec<usize> {
        self.batch_sizes.lock().unwrap().clone()
    }

    /// Spins until `run` has been entered at least `n` times — the only
    /// way a test can know the dispatcher is wedged inside the gate.
    fn await_entered(&self, n: usize) {
        while self.entered.load(Ordering::SeqCst) < n {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl BatchRunner for StubRunner {
    fn request_shape(&self) -> Vec<usize> {
        SHAPE.to_vec()
    }

    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>> {
        self.batch_sizes.lock().unwrap().push(requests.len());
        self.entered.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = &self.gate {
            gate.wait();
        }
        self.requests_run.fetch_add(requests.len(), Ordering::SeqCst);
        requests.iter().map(|r| r.as_slice().to_vec()).collect()
    }

    fn planned_bytes(&self) -> Option<(usize, usize)> {
        self.planned
    }
}

/// Panics on every batch — the engine failure the PR 8 API turned into a
/// client-side panic cascade.
struct PanicRunner;

impl BatchRunner for PanicRunner {
    fn request_shape(&self) -> Vec<usize> {
        SHAPE.to_vec()
    }

    fn run(&self, _requests: &[Tensor]) -> Vec<Vec<f32>> {
        panic!("injected engine failure");
    }
}

/// A server over `runner` with `max_batch` and `capacity`,
/// tight interactive window so wedged-dispatcher tests drain fast.
fn server_over(
    runner: Arc<StubRunner>,
    max_batch: usize,
    capacity: usize,
) -> Server {
    Server::start_with_runner(
        runner,
        ServerConfig {
            queue_capacity: capacity,
            policy: policy_of(max_batch, None),
            ..ServerConfig::default()
        },
    )
    .expect("config is legal")
}

#[test]
fn burst_beyond_capacity_sheds_exactly_the_overflow() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let capacity = 8;
    let server = server_over(runner.clone(), 1, capacity);

    // Wedge the dispatcher: its first batch parks inside run(), leaving the
    // queue entirely to us.
    let plug = server.submit(request(0.0), SloClass::Interactive).expect("admitted");
    runner.await_entered(1);

    // 4× burst: the queue admits exactly `capacity`, sheds the rest —
    // and submit() returns immediately every time (shedding never blocks).
    let mut admitted = Vec::new();
    let mut shed = 0;
    for i in 0..4 * capacity {
        match server.submit(request(1.0 + i as f32), SloClass::Interactive) {
            Ok(handle) => admitted.push(handle),
            Err(ServeError::Overloaded) => shed += 1,
            Err(e) => panic!("unexpected admission verdict: {e}"),
        }
    }
    assert_eq!(admitted.len(), capacity);
    assert_eq!(shed, 3 * capacity);
    assert_eq!(server.queue_depth(), capacity);

    gate.release();
    assert_eq!(plug.recv().expect("plug ran"), vec![0.0; 4]);
    for handle in admitted {
        handle.recv().expect("admitted requests all complete");
    }
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!(m.total_shed(), 3 * capacity as u64);
    assert_eq!(m.total_completed(), 1 + capacity as u64);
    assert_eq!(m.class(SloClass::Interactive).submitted, 1 + 4 * capacity as u64);
    assert!(m.queue_depth_peak <= capacity, "bounded queue never overgrows");
}

#[test]
fn abandoned_requests_never_reach_the_engine() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let server = server_over(runner.clone(), 16, 16);

    let plug = server.submit(request(0.0), SloClass::Interactive).expect("admitted");
    runner.await_entered(1);

    // Three clients give up (drop their handles) while queued; one stays.
    for i in 0..3 {
        let handle = server
            .submit(request(10.0 + i as f32), SloClass::Interactive)
            .expect("admitted");
        drop(handle);
    }
    let kept = server.submit(request(7.0), SloClass::Interactive).expect("admitted");

    gate.release();
    assert_eq!(plug.recv().expect("plug ran"), vec![0.0; 4]);
    assert_eq!(kept.recv().expect("kept request ran"), vec![7.0; 4]);

    let m = server.shutdown().expect("the engine did not die");
    assert_eq!(m.total_abandoned(), 3);
    assert_eq!(m.total_completed(), 2);
    // The engine only ever saw the plug and the kept request.
    assert_eq!(runner.requests_run.load(Ordering::SeqCst), 2);
}

#[test]
fn queued_past_deadline_is_dropped_with_an_error_value() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let server = Server::start_with_runner(
        runner.clone(),
        ServerConfig {
            policy: policy_of(4, Some(Duration::from_millis(5))),
            ..ServerConfig::default()
        },
    )
    .expect("config is legal");

    // Batch-class plug (lax deadline) wedges the dispatcher…
    let plug = server.submit(request(0.0), SloClass::Batch).expect("admitted");
    runner.await_entered(1);
    // …while an interactive request ages past its 5 ms SLO in queue.
    let stale = server.submit(request(1.0), SloClass::Interactive).expect("admitted");
    std::thread::sleep(Duration::from_millis(20));
    gate.release();

    assert_eq!(plug.recv().expect("plug ran"), vec![0.0; 4]);
    assert_eq!(stale.recv(), Err(ServeError::DeadlineExceeded));
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!(m.class(SloClass::Interactive).expired, 1);
    assert_eq!(runner.requests_run.load(Ordering::SeqCst), 1, "expired work never ran");
}

#[test]
fn engine_panic_becomes_error_values_not_client_panics() {
    let server = Server::start_with_runner(
        Arc::new(PanicRunner),
        ServerConfig::default(),
    )
    .expect("config is legal");

    // The doomed request gets a verdict, not a poisoned-channel panic.
    let verdict = server.infer(request(1.0));
    assert_eq!(verdict, Err(ServeError::EngineDown));

    // Admission now refuses outright.
    match server.submit(request(2.0), SloClass::Interactive) {
        Err(ServeError::EngineDown) => {}
        Err(e) => panic!("expected EngineDown at admission, got {e:?}"),
        Ok(_) => panic!("expected EngineDown at admission, got an admitted handle"),
    }

    // shutdown() reports the contained panic as a value; the payload is
    // consumed, so dropping the server afterwards must not re-throw.
    assert_eq!(server.shutdown().err(), Some(ServeError::EngineDown));
}

/// The scenario above, 200 times: the failed flag must be up before the
/// doomed batch's client hears its verdict, or the follow-up `submit` is
/// admitted. When the batch's reply senders dropped while the dispatcher
/// unwound — before the flag went up — 11 of 13 runs of this test failed,
/// with 1 to 199 of their 200 scenarios admitting the follow-up.
#[test]
fn engine_panic_is_contained_before_any_client_hears_of_it() {
    let failures: Vec<String> = (0..200)
        .filter_map(|run| {
            let server = Server::start_with_runner(Arc::new(PanicRunner), ServerConfig::default())
                .expect("config is legal");
            let verdict = server.infer(request(1.0));
            let again = server.submit(request(2.0), SloClass::Interactive).err();
            let down = server.shutdown().err();
            let ok = verdict == Err(ServeError::EngineDown)
                && again == Some(ServeError::EngineDown)
                && down == Some(ServeError::EngineDown);
            (!ok).then(|| {
                format!("run {run}: infer {verdict:?}, submit {again:?}, shutdown {down:?}")
            })
        })
        .collect();
    assert!(
        failures.is_empty(),
        "{} of 200 runs failed, first: {}",
        failures.len(),
        failures[0]
    );
}

#[test]
fn over_budget_max_batch_is_rejected() {
    // params 100, pool 10 per slot: a 175-byte budget fits 7 slots, a
    // 105-byte budget not even one, and `params + 8 × pool` = 180 is the
    // exact boundary of `max_batch` 8 — one byte less fits 7.
    let start = |budget: usize| {
        Server::start_with_runner(
            Arc::new(StubRunner::with_layout(100, 10)),
            ServerConfig {
                policy: policy_of(8, None),
                budget_bytes: Some(budget),
                ..ServerConfig::default()
            },
        )
    };
    for (budget, fits) in [(175, 7), (105, 0), (179, 7)] {
        let err = start(budget).err().expect("an over-budget max_batch must not start");
        assert_eq!(err, ServeError::OverBudget { requested: 8, fits }, "{budget} B");
    }
    let server = start(180).expect("params + 8 × pool admits max_batch 8");
    assert_eq!(server.max_batch(), 8);
    server.shutdown().expect("the engine did not die");
}

#[test]
fn wrong_shape_is_rejected_before_admission() {
    let runner = Arc::new(StubRunner::with_layout(0, 0));
    let server = Server::start_with_runner(runner.clone(), ServerConfig::default())
        .expect("config is legal");
    let wrong = Tensor::from_vec(vec![1.0; 6], &[1, 6]);
    match server.submit(wrong, SloClass::Interactive) {
        Err(ServeError::BadRequest(m)) => assert!(m.contains("[1, 6]")),
        Err(e) => panic!("expected BadRequest, got {e:?}"),
        Ok(_) => panic!("expected BadRequest, got an admitted handle"),
    }
    // The reject happened before admission: nothing submitted, nothing run.
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!(m.class(SloClass::Interactive).submitted, 0);
    assert_eq!(runner.requests_run.load(Ordering::SeqCst), 0);
}

/// A server with `max_batch` 8, behind `runner`, with the given class
/// windows (deadlines far out).
fn windowed_server(runner: Arc<StubRunner>, interactive: Duration, batch: Duration) -> Server {
    let far = Duration::from_secs(300);
    Server::start_with_runner(
        runner,
        ServerConfig {
            policy: BatchPolicy {
                max_batch: 8,
                interactive: ClassPolicy { window: interactive, deadline: far },
                batch: ClassPolicy { window: batch, deadline: far },
            },
            ..ServerConfig::default()
        },
    )
    .expect("config is legal")
}

/// Leaves the dispatcher *holding*: wedges it on a plug, queues two
/// requests behind it, lets all three finish — the last batch the dispatcher
/// closed had company. Needs a fresh (not holding) dispatcher and an armed
/// gate; leaves the gate open.
fn make_holding(server: &Server, runner: &StubRunner, gate: &Gate) {
    let before = runner.entered.load(Ordering::SeqCst);
    let plug = server.submit(request(0.0), SloClass::Interactive).expect("admitted");
    runner.await_entered(before + 1);
    let pair: Vec<_> = (0..2)
        .map(|_| server.submit(request(0.5), SloClass::Interactive).expect("admitted"))
        .collect();
    gate.release();
    plug.recv().expect("plug ran");
    for handle in pair {
        handle.recv().expect("pair ran");
    }
    assert_eq!(runner.batch_sizes()[before..], [1, 2]);
}

#[test]
fn a_lone_request_on_a_fresh_server_does_not_wait_out_its_window() {
    let runner = Arc::new(StubRunner::new(None, None));
    let window = Duration::from_millis(500);
    let server = windowed_server(runner.clone(), window, window);
    let t = Instant::now();
    assert_eq!(server.infer(request(3.0)).expect("ran"), vec![3.0; 4]);
    assert!(
        t.elapsed() < Duration::from_millis(100),
        "a lone request waited {:?} under a {window:?} window",
        t.elapsed()
    );
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!((m.closed_idle, m.closed_window, m.closed_full), (1, 0, 0));
    assert!(m.window_wait_ns < 100_000_000);
}

#[test]
fn a_window_is_held_after_company_and_dropped_after_a_lone_batch() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let window = Duration::from_millis(200);
    let server = windowed_server(runner.clone(), window, window);
    make_holding(&server, &runner, &gate);

    // Holding: two submits 5 ms apart coalesce under the 200 ms window.
    let a = server.submit(request(1.0), SloClass::Interactive).expect("admitted");
    std::thread::sleep(Duration::from_millis(5));
    let b = server.submit(request(2.0), SloClass::Interactive).expect("admitted");
    assert_eq!(a.recv().expect("ran"), vec![1.0; 4]);
    assert_eq!(b.recv().expect("ran"), vec![2.0; 4]);
    assert_eq!(runner.batch_sizes(), [1, 2, 2]);

    // Still holding: a lone request pays one unpaid window…
    let t = Instant::now();
    server.infer(request(3.0)).expect("ran");
    assert!(t.elapsed() >= window, "the held window closed early");
    // …and after that lone batch the next ones pay none.
    for tag in [4.0, 5.0] {
        let t = Instant::now();
        server.infer(request(tag)).expect("ran");
        assert!(t.elapsed() < window / 2, "a window was held after a lone batch");
    }
    assert_eq!(runner.batch_sizes(), [1, 2, 2, 1, 1, 1]);
    let m = server.shutdown().expect("the engine did not die");
    // plug + drained pair + the last two; the coalesced pair + the unpaid one.
    assert_eq!((m.closed_idle, m.closed_window, m.closed_full), (4, 2, 0));
    assert!(m.window_wait_ns >= 2 * window.as_nanos() as u64);
}

#[test]
fn a_burst_queued_behind_a_busy_replica_is_one_batch_in_both_states() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let window = Duration::from_millis(100);
    let server = windowed_server(runner.clone(), window, window);
    let burst = |server: &Server| -> Vec<_> {
        (0..8)
            .map(|i| server.submit(request(i as f32), SloClass::Interactive).expect("admitted"))
            .collect()
    };

    // Not holding: the plug runs alone, the burst is drained whole.
    let plug = server.submit(request(0.0), SloClass::Interactive).expect("admitted");
    runner.await_entered(1);
    let queued = burst(&server);
    gate.release();
    plug.recv().expect("plug ran");
    for handle in queued {
        handle.recv().expect("burst ran");
    }
    assert_eq!(runner.batch_sizes(), [1, 8]);

    // Holding (the burst had company): two plugs coalesce under the held
    // window and wedge the dispatcher; the burst behind them closes on
    // max_batch.
    gate.arm();
    let plugs: Vec<_> = (0..2)
        .map(|_| server.submit(request(0.0), SloClass::Interactive).expect("admitted"))
        .collect();
    runner.await_entered(3);
    let queued = burst(&server);
    gate.release();
    for handle in plugs.into_iter().chain(queued) {
        handle.recv().expect("ran");
    }
    assert_eq!(runner.batch_sizes(), [1, 8, 2, 8]);
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!((m.closed_idle, m.closed_window, m.closed_full), (1, 1, 2));
}

#[test]
fn max_batch_and_the_interactive_pull_forward_still_close_a_held_window() {
    let gate = Arc::new(Gate::new());
    let runner = Arc::new(StubRunner::gated(gate.clone()));
    let (interactive, batch) = (Duration::from_millis(50), Duration::from_secs(30));
    let server = windowed_server(runner.clone(), interactive, batch);
    make_holding(&server, &runner, &gate);

    // A full batch does not wait for the 30 s batch-class window.
    let t = Instant::now();
    let full: Vec<_> = (0..8)
        .map(|i| server.submit(request(i as f32), SloClass::Batch).expect("admitted"))
        .collect();
    for handle in full {
        handle.recv().expect("ran");
    }
    // An interactive admission pulls a batch-class window forward to its own.
    let slow = server.submit(request(1.0), SloClass::Batch).expect("admitted");
    let fast = server.submit(request(2.0), SloClass::Interactive).expect("admitted");
    slow.recv().expect("ran");
    fast.recv().expect("ran");
    assert!(t.elapsed() < Duration::from_secs(10), "a 30 s window was waited out");
    assert_eq!(runner.batch_sizes(), [1, 2, 8, 2]);
    let m = server.shutdown().expect("the engine did not die");
    assert_eq!((m.closed_idle, m.closed_window, m.closed_full), (2, 1, 1));
}
