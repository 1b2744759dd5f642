//! Dispatch: one thread pulling batches from the admission queue and
//! running them on the engine.
//!
//! The dispatcher is one thread running [`dispatch_loop`]: block for the
//! job that opens a batch, coalesce follow-ups, filter dead work at
//! admission close (abandoned clients, expired deadlines), run the
//! survivors through the engine, deliver.
//!
//! **A window is held only while windows pay.** The dispatcher keeps one
//! bit: did the last batch it closed have company (more than one job)?
//! While it did, a newly opened batch waits out the per-class window
//! ([`BatchPolicy`]: running minimum over its members, or `max_batch`)
//! for more of the same. While it did not, the batch closes at once —
//! everything already queued is still drained into it up to `max_batch`,
//! but the dispatcher never sleeps waiting for company that the traffic
//! it last saw did not send. A closed-loop client or sparse traffic
//! therefore pays at most one unpaid window; bursty traffic, whose every
//! batch has company, keeps the full window (and its tolerance of a
//! generator thread descheduled mid-burst). The bit depends only on
//! traffic the dispatcher observed, never on a configured value. Why not
//! simply "close when the queue is empty": DESIGN.md §15 records the
//! burst-split rates that design measured. One batch is live at a time,
//! so the planned footprint is `params + C × pool`
//! ([`scnn_hmms::StaticLayout::serving_device_bytes`]), the paper's
//! Fig. 10 model.
//!
//! A panic inside the engine is contained here: the dispatcher marks the
//! server failed, replies [`ServeError::EngineDown`] to the failed batch's
//! clients and to every parked one, and stores the payload for the server
//! to re-throw at drop — clients see an error value, never a poisoned
//! channel panic (the PR 8 API panicked in `submit`/`infer`; DESIGN.md
//! §15). The flag goes up first: a client that hears `EngineDown` and
//! submits again is refused at admission.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use scnn_tensor::Tensor;

use crate::admission::{BatchPolicy, ServeError};
use crate::batcher::Shared;
use crate::engine::Engine;
use crate::metrics::BatchClose;
use crate::queue::{Job, Pop};

/// The engine seam the dispatcher drives: anything that can turn a batch
/// of request tensors into one logits vector per request.
///
/// [`Engine`] is the production implementation. Tests substitute stub
/// runners (blocking gates, panic injectors, call counters) to pin the
/// dispatch behavior — shedding, abandonment, failure containment —
/// deterministically, without a model in the loop.
pub trait BatchRunner: Send + Sync + 'static {
    /// Shape every request tensor must have; [`crate::Server::submit`]
    /// rejects mismatches with [`ServeError::BadRequest`] before
    /// admission, so a malformed request can never panic the engine.
    fn request_shape(&self) -> Vec<usize>;

    /// Runs one batch; must return exactly one output per request, in
    /// order. A panic here is contained by the dispatch loop (see module
    /// docs).
    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>>;

    /// Planned `(param_bytes, pool_bytes_per_slot)` of this runner's
    /// memory layout, when it has one. `Some` enables the
    /// [`crate::ServerConfig::budget_bytes`] capacity cross-check at
    /// startup; the default `None` skips it.
    fn planned_bytes(&self) -> Option<(usize, usize)> {
        None
    }
}

impl BatchRunner for Engine {
    fn request_shape(&self) -> Vec<usize> {
        Engine::request_shape(self).to_vec()
    }

    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>> {
        self.run_batch(requests).0
    }

    fn planned_bytes(&self) -> Option<(usize, usize)> {
        let layout = &self.plan().layout;
        Some((layout.device_param_bytes, layout.device_general_bytes))
    }
}

/// Body of the dispatch thread (see module docs). Returns when the queue
/// closes (graceful) or after containing an engine panic (failure).
pub(crate) fn dispatch_loop(
    shared: &Arc<Shared>,
    runner: &Arc<dyn BatchRunner>,
    policy: &BatchPolicy,
    worker_threads: Option<usize>,
) {
    let body = || match worker_threads {
        Some(n) => scnn_par::with_threads(n, || drive(shared, runner.as_ref(), policy)),
        None => drive(shared, runner.as_ref(), policy),
    };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
        contain(shared, payload, Vec::new());
    }
}

/// Contains an engine failure: no new admissions, every client of the
/// doomed batch (`replies`) and every parked client gets an error value,
/// the payload re-throws at server drop. The failed flag goes up before
/// the first verdict is sent, so a client that reads
/// [`ServeError::EngineDown`] and submits again is refused at admission.
fn contain(
    shared: &Shared,
    payload: Box<dyn std::any::Any + Send>,
    replies: Vec<Sender<Result<Vec<f32>, ServeError>>>,
) {
    shared.fail(payload);
    let parked = shared.queue.drain().into_iter().map(|job| job.reply);
    for reply in replies.into_iter().chain(parked) {
        let _ = reply.send(Err(ServeError::EngineDown));
    }
}

fn drive(shared: &Shared, runner: &dyn BatchRunner, policy: &BatchPolicy) {
    // The one-bit predictor (module docs): did the last batch the
    // dispatcher closed have company? A window is held only while it did.
    let mut holding = false;
    loop {
        let first = match shared.queue.pop_blocking() {
            Pop::Job(job) => job,
            Pop::Closed => return,
            Pop::TimedOut => unreachable!("blocking pop never times out"),
        };
        // The first admission opens the batch. While holding, it closes
        // one class window later and every later admission can only pull
        // the close time *forward* (an interactive request joining a
        // batch-class window shortens it). While not holding, it closes
        // now: `pop_deadline` still hands over everything already queued
        // before it looks at the clock, so a burst that arrived while the
        // dispatcher was busy rides in one batch.
        let opened = Instant::now();
        let mut close_at = if holding {
            opened + policy.class(first.class).window
        } else {
            opened
        };
        let mut jobs: Vec<Job> = vec![*first];
        while jobs.len() < policy.max_batch {
            match shared.queue.pop_deadline(close_at) {
                Pop::Job(job) => {
                    close_at = close_at.min(Instant::now() + policy.class(job.class).window);
                    jobs.push(*job);
                }
                Pop::TimedOut | Pop::Closed => break,
            }
        }
        let close = if jobs.len() >= policy.max_batch {
            BatchClose::Full
        } else if holding {
            BatchClose::Window
        } else {
            BatchClose::Idle
        };
        shared.metrics.batch_closed(close, opened.elapsed());
        holding = jobs.len() > 1;

        // Admission close: drop work nobody is waiting for. Abandoned
        // jobs (client dropped its handle) are skipped silently; jobs
        // past their class deadline get an explicit error — both *before*
        // the engine burns a slot on them.
        let now = Instant::now();
        let mut batch: Vec<Job> = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.is_abandoned() {
                shared.metrics.abandoned(job.class);
            } else if now.duration_since(job.submitted) > policy.class(job.class).deadline {
                shared.metrics.expired(job.class);
                let _ = job.reply.send(Err(ServeError::DeadlineExceeded));
            } else {
                batch.push(job);
            }
        }
        if batch.is_empty() {
            continue;
        }

        let mut inputs: Vec<Tensor> = Vec::with_capacity(batch.len());
        let mut pending = Vec::with_capacity(batch.len());
        for job in batch {
            inputs.push(job.input);
            pending.push((job.class, job.submitted, job.reply));
        }
        // The batch's panic is caught here, not by `dispatch_loop`: unwinding
        // through this frame would drop the batch's reply senders before the
        // failed flag is up (see `contain`).
        let outputs = match catch_unwind(AssertUnwindSafe(|| runner.run(&inputs))) {
            Ok(outputs) => outputs,
            Err(payload) => {
                let replies = pending.into_iter().map(|(_, _, reply)| reply).collect();
                contain(shared, payload, replies);
                return;
            }
        };
        assert_eq!(
            outputs.len(),
            pending.len(),
            "runner must return one output per request"
        );
        shared.metrics.batch_ran(pending.len());
        for ((class, submitted, reply), out) in pending.into_iter().zip(outputs) {
            shared.metrics.completed(class, submitted.elapsed());
            let _ = reply.send(Ok(out));
        }
    }
}
