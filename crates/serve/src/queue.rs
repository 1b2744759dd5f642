//! The bounded admission queue between client threads and the dispatch
//! thread.
//!
//! One queue, many producers (in-process clients, socket connection
//! threads), one consumer (the dispatch thread). Admission is
//! **non-blocking**: [`AdmissionQueue::offer`] either enqueues or fails
//! with [`ServeError::Overloaded`] right away — backpressure is returned
//! to the caller, never absorbed as unbounded buffering. Consumers block:
//! [`AdmissionQueue::pop_blocking`] waits for the job that opens a batch,
//! [`AdmissionQueue::pop_deadline`] drains follow-ups until the batch's
//! close time. A queued job always wins over the clock — a close time
//! already in the past still hands over everything queued, one pop at a
//! time, and only then times out — which is how a dispatcher that holds no
//! window ([`crate::dispatch`]) collects a waiting burst without sleeping.
//!
//! Closing the queue ([`AdmissionQueue::close`]) stops admission but lets
//! consumers drain what was already accepted — a graceful shutdown
//! completes every admitted request. The failure path
//! ([`AdmissionQueue::drain`]) instead hands back the queued jobs so the
//! caller can reply [`ServeError::EngineDown`] to each.

use std::collections::VecDeque;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use scnn_tensor::Tensor;

use crate::admission::{ServeError, SloClass};
use crate::metrics::Metrics;

/// One admitted request, parked in the queue until the dispatcher takes
/// it.
pub(crate) struct Job {
    /// The request tensor (shape-checked at submission).
    pub input: Tensor,
    /// SLO class — decides this job's batch window and queue deadline.
    pub class: SloClass,
    /// When the client submitted; latency and deadline both measure from
    /// here.
    pub submitted: Instant,
    /// Where the response goes. Send failures are ignored — a vanished
    /// client just loses its response.
    pub reply: Sender<Result<Vec<f32>, ServeError>>,
    /// Set by [`crate::ResponseHandle`]'s drop: the client stopped
    /// waiting, so dispatch skips this job instead of computing logits
    /// for a dead channel.
    pub abandoned: Arc<AtomicBool>,
}

impl Job {
    /// Did the client abandon this request (drop its handle)?
    pub fn is_abandoned(&self) -> bool {
        self.abandoned.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Result of a consumer pop.
pub(crate) enum Pop {
    /// A job was dequeued.
    Job(Box<Job>),
    /// The deadline passed with the queue empty (only from
    /// [`AdmissionQueue::pop_deadline`]).
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

struct Inner {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// The bounded MPMC queue (see module docs).
pub(crate) struct AdmissionQueue {
    capacity: usize,
    inner: Mutex<Inner>,
    nonempty: Condvar,
    metrics: Arc<Metrics>,
}

impl AdmissionQueue {
    pub fn new(capacity: usize, metrics: Arc<Metrics>) -> Self {
        assert!(capacity > 0, "a queue admits at least one request");
        AdmissionQueue {
            capacity,
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            nonempty: Condvar::new(),
            metrics,
        }
    }

    /// Current number of queued jobs (a gauge; racy by nature).
    pub fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    /// Non-blocking admission.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity (the job
    /// is shed), [`ServeError::ShuttingDown`] when the queue is closed.
    pub fn offer(&self, job: Job) -> Result<(), ServeError> {
        let depth = {
            let mut inner = self.inner.lock().unwrap();
            if inner.closed {
                return Err(ServeError::ShuttingDown);
            }
            if inner.jobs.len() >= self.capacity {
                return Err(ServeError::Overloaded);
            }
            inner.jobs.push_back(job);
            inner.jobs.len()
        };
        self.metrics.queue_depth_is(depth);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks until a job arrives (opening a batch window) or the queue is
    /// closed *and* drained.
    pub fn pop_blocking(&self) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                let depth = inner.jobs.len();
                drop(inner);
                self.metrics.queue_depth_is(depth);
                return Pop::Job(Box::new(job));
            }
            if inner.closed {
                return Pop::Closed;
            }
            inner = self.nonempty.wait(inner).unwrap();
        }
    }

    /// Like [`AdmissionQueue::pop_blocking`] but gives up at `deadline`
    /// (the open batch's close time) once the queue is empty; never
    /// sleeps when `deadline` has already passed.
    pub fn pop_deadline(&self, deadline: Instant) -> Pop {
        let mut inner = self.inner.lock().unwrap();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                let depth = inner.jobs.len();
                drop(inner);
                self.metrics.queue_depth_is(depth);
                return Pop::Job(Box::new(job));
            }
            if inner.closed {
                return Pop::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::TimedOut;
            }
            let (guard, _timeout) = self.nonempty.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }

    /// Stops admission; already-queued jobs remain for consumers to
    /// drain. Wakes every blocked consumer.
    pub fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.nonempty.notify_all();
    }

    /// Closes the queue and takes every queued job — the failure path, so
    /// the caller can reply an error to each instead of leaving clients
    /// blocked on channels nobody will ever write.
    pub fn drain(&self) -> Vec<Job> {
        let jobs = {
            let mut inner = self.inner.lock().unwrap();
            inner.closed = true;
            inner.jobs.drain(..).collect()
        };
        self.metrics.queue_depth_is(0);
        self.nonempty.notify_all();
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn job(class: SloClass) -> (Job, std::sync::mpsc::Receiver<Result<Vec<f32>, ServeError>>) {
        let (reply, rx) = channel();
        (
            Job {
                input: Tensor::zeros(&[1]),
                class,
                submitted: Instant::now(),
                reply,
                abandoned: Arc::new(AtomicBool::new(false)),
            },
            rx,
        )
    }

    fn queue(capacity: usize) -> AdmissionQueue {
        AdmissionQueue::new(capacity, Arc::new(Metrics::new()))
    }

    #[test]
    fn offer_sheds_at_capacity_and_pop_frees_a_slot() {
        let q = queue(2);
        let (j1, _r1) = job(SloClass::Interactive);
        let (j2, _r2) = job(SloClass::Batch);
        let (j3, _r3) = job(SloClass::Interactive);
        q.offer(j1).unwrap();
        q.offer(j2).unwrap();
        assert_eq!(q.offer(j3).unwrap_err(), ServeError::Overloaded);
        assert_eq!(q.depth(), 2);
        let Pop::Job(first) = q.pop_blocking() else {
            panic!("queue holds a job")
        };
        assert_eq!(first.class, SloClass::Interactive);
        let (j4, _r4) = job(SloClass::Interactive);
        q.offer(j4).unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_deadline_times_out_on_an_empty_queue() {
        let q = queue(1);
        let t = Instant::now();
        assert!(matches!(
            q.pop_deadline(t + Duration::from_millis(5)),
            Pop::TimedOut
        ));
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn a_past_deadline_still_hands_over_what_is_queued() {
        let q = queue(2);
        let (j1, _r1) = job(SloClass::Interactive);
        q.offer(j1).unwrap();
        let past = Instant::now();
        assert!(matches!(q.pop_deadline(past), Pop::Job(_)));
        assert!(matches!(q.pop_deadline(past), Pop::TimedOut));
    }

    #[test]
    fn close_rejects_offers_but_drains_queued_jobs() {
        let q = queue(4);
        let (j1, _r1) = job(SloClass::Batch);
        q.offer(j1).unwrap();
        q.close();
        let (j2, _r2) = job(SloClass::Batch);
        assert_eq!(q.offer(j2).unwrap_err(), ServeError::ShuttingDown);
        assert!(matches!(q.pop_blocking(), Pop::Job(_)));
        assert!(matches!(q.pop_blocking(), Pop::Closed));
        assert!(matches!(
            q.pop_deadline(Instant::now() + Duration::from_millis(1)),
            Pop::Closed
        ));
    }

    #[test]
    fn drain_returns_everything_queued() {
        let q = queue(4);
        let (j1, _r1) = job(SloClass::Batch);
        let (j2, _r2) = job(SloClass::Interactive);
        q.offer(j1).unwrap();
        q.offer(j2).unwrap();
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(matches!(q.pop_blocking(), Pop::Closed));
    }
}
