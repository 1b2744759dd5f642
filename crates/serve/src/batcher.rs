//! The server facade: bounded admission in front, one dispatch thread
//! behind, and a `Result`-based client API in between.
//!
//! Requests enter through [`Server::submit`] from any number of client
//! threads (in-process or via the [`crate::SocketServer`] front-end).
//! Admission is bounded and non-blocking: a full queue sheds with
//! [`ServeError::Overloaded`] instead of buffering without limit, and a
//! shape mismatch is rejected with [`ServeError::BadRequest`] before it
//! can panic the engine. The dispatcher coalesces admitted requests into
//! batches under the per-class window policy and runs them on the
//! engine; concurrency lives in the planned pool — planned footprint
//! `params + C × pool`, the paper's Fig. 10 model, cross-checked against
//! the memory budget at startup so a misconfigured `max_batch` can never
//! silently outgrow the plan.
//!
//! Every failure is a value: the PR 8 API `expect`ed the batcher thread
//! alive and panicked every client when it was not; now a dead engine
//! surfaces as [`ServeError::EngineDown`] on each pending request, the
//! server stops admitting, and the original panic payload re-throws when
//! the server is dropped (or is reported by [`Server::shutdown`]).

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use scnn_tensor::Tensor;

use crate::admission::{ServeError, ServerConfig, SloClass};
use crate::dispatch::{dispatch_loop, BatchRunner};
use crate::engine::{fit, Engine};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{AdmissionQueue, Job};

/// State shared between the admission path and the dispatch thread.
pub(crate) struct Shared {
    /// The bounded admission queue.
    pub queue: AdmissionQueue,
    /// Server-wide counters and histograms.
    pub metrics: Arc<Metrics>,
    /// Set when the dispatcher contained an engine panic; admission then
    /// returns [`ServeError::EngineDown`].
    failed: AtomicBool,
    /// First contained panic payload, re-thrown when the server drops.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Shared {
    /// Records a contained engine panic: keeps the first payload, flips
    /// the failed flag, and closes the queue (the caller drains it).
    pub fn fail(&self, payload: Box<dyn std::any::Any + Send>) {
        self.panic.lock().unwrap().get_or_insert(payload);
        self.failed.store(true, Ordering::SeqCst);
        self.queue.close();
    }
}

/// The response side of one submitted request.
///
/// Dropping the handle without reading it marks the request *abandoned*:
/// if it is still queued at its batch's admission close, the dispatcher
/// skips it (counted in [`MetricsSnapshot`]) instead of computing logits
/// for a channel nobody reads.
pub struct ResponseHandle {
    rx: Receiver<Result<Vec<f32>, ServeError>>,
    abandoned: Arc<AtomicBool>,
    received: bool,
}

impl ResponseHandle {
    /// Blocks for the response.
    ///
    /// # Errors
    ///
    /// Whatever the server decided about this request —
    /// [`ServeError::DeadlineExceeded`] if it expired in queue,
    /// [`ServeError::EngineDown`] if the engine running it died (also
    /// returned when the reply channel vanished without a verdict).
    pub fn recv(mut self) -> Result<Vec<f32>, ServeError> {
        self.received = true;
        match self.rx.recv() {
            Ok(verdict) => verdict,
            // The engine died between admission and reply; its panic is
            // stored on the server and re-throws at drop.
            Err(_) => Err(ServeError::EngineDown),
        }
    }
}

impl Drop for ResponseHandle {
    fn drop(&mut self) {
        if !self.received {
            self.abandoned.store(true, Ordering::Relaxed);
        }
    }
}

/// A running inference server (see module docs). Dropping it stops
/// admission, drains in-flight work, joins the dispatcher, and re-throws
/// the first contained engine panic, if any — use [`Server::shutdown`] to
/// receive that failure as a value instead.
pub struct Server {
    shared: Arc<Shared>,
    /// The dispatch thread; `None` once joined.
    dispatcher: Option<JoinHandle<()>>,
    request_shape: Vec<usize>,
    max_batch: usize,
}

impl Server {
    /// Starts the dispatch thread over `engine`.
    ///
    /// When [`ServerConfig::budget_bytes`] is set, the planned footprint
    /// `params + max_batch × pool` is cross-checked against it (the
    /// serving Fig. 10 bound, the formula behind
    /// [`Engine::max_concurrency`]); an over-budget
    /// `max_batch` is an error, never silently shrunk.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for structurally invalid configs,
    /// [`ServeError::OverBudget`] when the policy cannot fit the budget.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> Result<Server, ServeError> {
        Server::start_with_runner(engine, config)
    }

    /// [`Server::start`] generalized over the [`BatchRunner`] seam — for
    /// stub engines in tests (and any caller proxying batches elsewhere).
    /// The budget cross-check applies whenever the runner reports
    /// [`BatchRunner::planned_bytes`].
    ///
    /// # Errors
    ///
    /// As [`Server::start`].
    pub fn start_with_runner(
        runner: Arc<dyn BatchRunner>,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        config.validate()?;
        if let (Some(budget), Some((params, pool))) = (config.budget_bytes, runner.planned_bytes())
        {
            let fits = fit(budget, params, pool);
            if fits < config.policy.max_batch {
                return Err(ServeError::OverBudget { requested: config.policy.max_batch, fits });
            }
        }

        let metrics = Arc::new(Metrics::new());
        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(config.queue_capacity, metrics.clone()),
            metrics,
            failed: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        let request_shape = runner.request_shape();
        let dispatcher = {
            let shared = shared.clone();
            let (policy, threads) = (config.policy, config.worker_threads);
            std::thread::Builder::new()
                .name("scnn-serve".into())
                .spawn(move || dispatch_loop(&shared, &runner, &policy, threads))
                .expect("dispatch thread spawns")
        };
        Ok(Server {
            shared,
            dispatcher: Some(dispatcher),
            request_shape,
            max_batch: config.policy.max_batch,
        })
    }

    /// Enqueues one request and returns the handle its response arrives
    /// on. Never blocks and never panics: a full queue sheds, a wrong
    /// shape is rejected, a failed engine reports itself — all as values.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] on a shape mismatch,
    /// [`ServeError::Overloaded`] when the admission queue is full,
    /// [`ServeError::EngineDown`] after the engine died,
    /// [`ServeError::ShuttingDown`] once the server is dropping.
    pub fn submit(&self, input: Tensor, class: SloClass) -> Result<ResponseHandle, ServeError> {
        if self.shared.failed.load(Ordering::SeqCst) {
            return Err(ServeError::EngineDown);
        }
        if input.shape().dims() != self.request_shape {
            return Err(ServeError::BadRequest(format!(
                "request shape {:?} does not match engine input {:?}",
                input.shape().dims(),
                self.request_shape
            )));
        }
        self.shared.metrics.submitted(class);
        let (reply, rx) = channel();
        let abandoned = Arc::new(AtomicBool::new(false));
        let job = Job {
            input,
            class,
            submitted: Instant::now(),
            reply,
            abandoned: abandoned.clone(),
        };
        match self.shared.queue.offer(job) {
            Ok(()) => Ok(ResponseHandle {
                rx,
                abandoned,
                received: false,
            }),
            Err(e) => {
                if e == ServeError::Overloaded {
                    self.shared.metrics.shed(class);
                }
                Err(e)
            }
        }
    }

    /// Submits as [`SloClass::Interactive`] and blocks for the logits.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`] plus anything the dispatch decided
    /// ([`ServeError::DeadlineExceeded`], [`ServeError::EngineDown`]).
    pub fn infer(&self, input: Tensor) -> Result<Vec<f32>, ServeError> {
        self.infer_class(input, SloClass::Interactive)
    }

    /// Submits under an explicit class and blocks for the logits.
    ///
    /// # Errors
    ///
    /// As [`Server::infer`].
    pub fn infer_class(&self, input: Tensor, class: SloClass) -> Result<Vec<f32>, ServeError> {
        self.submit(input, class)?.recv()
    }

    /// Point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Current admission-queue depth (bounded by the configured
    /// capacity).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// Batch bound — the configured `max_batch`, which the budget
    /// cross-check at startup admitted.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Shape every request tensor must have (the engine's input shape).
    pub fn request_shape(&self) -> &[usize] {
        &self.request_shape
    }

    /// Stops admission and joins the dispatcher once it has drained
    /// every admitted request.
    fn stop(&mut self) {
        self.shared.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }

    /// Graceful shutdown: stops admission, lets the dispatcher drain every
    /// admitted request, joins it, and returns the final metrics.
    ///
    /// # Errors
    ///
    /// [`ServeError::EngineDown`] when the dispatcher contained an engine
    /// panic during the server's lifetime — returned as a value here
    /// (the payload is discarded), where a plain drop would re-throw it.
    pub fn shutdown(mut self) -> Result<MetricsSnapshot, ServeError> {
        self.stop();
        let failed = self.shared.failed.load(Ordering::SeqCst);
        // Taking the payload keeps Drop from re-throwing it.
        let _ = self.shared.panic.lock().unwrap().take();
        if failed {
            Err(ServeError::EngineDown)
        } else {
            Ok(self.shared.metrics.snapshot())
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        // A contained engine panic is the real failure; re-throw it here
        // so it cannot vanish (shutdown() reports it as a value instead).
        let payload = self.shared.panic.lock().unwrap().take();
        if let Some(payload) = payload {
            if !std::thread::panicking() {
                resume_unwind(payload);
            }
        }
    }
}
