//! Admission policy: SLO classes, per-class deadlines, batch-close
//! windows, and the server configuration that binds them to a bounded
//! queue and the dispatch thread.
//!
//! Every request carries an [`SloClass`]. The class decides two durations:
//!
//! - **window** — how long after this class's first admission a batch may
//!   keep coalescing *while the dispatcher holds windows at all*: it
//!   holds one only if the previous batch it closed had company, so a
//!   lone request on a quiet server never waits for nothing (see
//!   [`crate::dispatch`]). An `Interactive` request *shrinks* the open
//!   batch window when it joins one that only held `Batch`-class work, so
//!   a latency-sensitive request never waits out a throughput deadline. A
//!   class's window may not exceed its deadline
//!   ([`ServerConfig::validate`]): a held window would expire the very
//!   request that opened it.
//! - **deadline** — the SLO target measured from submission. A request
//!   still queued past its deadline is dead on arrival: the dispatcher drops
//!   it at admission close with [`ServeError::DeadlineExceeded`] instead
//!   of burning engine time on a response nobody is waiting for.
//!
//! Admission itself is *non-blocking and bounded*: when the queue holds
//! [`ServerConfig::queue_capacity`] jobs, [`crate::Server::submit`]
//! returns [`ServeError::Overloaded`] immediately — load is shed at the
//! door, never absorbed into an unbounded queue (the paper's capacity
//! argument, Fig. 10, bounds *planned* memory; an unbounded queue would
//! un-bound the unplanned kind).

use std::time::Duration;

/// Service-level class of one request; decides its batch-close window and
/// queue deadline (see [`ClassPolicy`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SloClass {
    /// Latency-sensitive: short batch window, tight deadline.
    Interactive,
    /// Throughput-oriented: longer window so batches fill, lax deadline.
    Batch,
}

impl SloClass {
    /// Both classes, in fixed index order (`Interactive` = 0, `Batch` = 1)
    /// — the order every per-class array in [`crate::MetricsSnapshot`]
    /// uses.
    pub const ALL: [SloClass; 2] = [SloClass::Interactive, SloClass::Batch];

    /// Stable index of this class into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            SloClass::Interactive => 0,
            SloClass::Batch => 1,
        }
    }

    /// Human-readable name (`"interactive"` / `"batch"`).
    pub fn name(self) -> &'static str {
        match self {
            SloClass::Interactive => "interactive",
            SloClass::Batch => "batch",
        }
    }
}

/// Per-class timing policy (see module docs for the two durations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassPolicy {
    /// Close the batch this long after this class's first admission
    /// (when the dispatcher is holding windows). Must not exceed `deadline`.
    pub window: Duration,
    /// SLO deadline measured from submission; expired-in-queue requests
    /// are dropped at admission close.
    pub deadline: Duration,
}

/// When the dispatcher closes the batch it is coalescing.
///
/// A batch closes when it reaches `max_batch` requests, or when the
/// earliest class window among its members expires — whichever comes
/// first. The window is a running minimum: admitting an `Interactive`
/// request into a `Batch`-class window pulls the close time forward. A
/// dispatcher whose previous batch was a lone request holds no window: it
/// drains what is queued (up to `max_batch`) and closes at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Close as soon as this many requests are admitted. Must not exceed
    /// the concurrency the planned memory budget allows —
    /// [`crate::Server::start`] cross-checks this against
    /// [`crate::Engine::max_concurrency`] when a budget is configured.
    pub max_batch: usize,
    /// Timing policy for [`SloClass::Interactive`] requests.
    pub interactive: ClassPolicy,
    /// Timing policy for [`SloClass::Batch`] requests.
    pub batch: ClassPolicy,
}

impl BatchPolicy {
    /// The timing policy governing `class`.
    pub fn class(&self, class: SloClass) -> &ClassPolicy {
        match class {
            SloClass::Interactive => &self.interactive,
            SloClass::Batch => &self.batch,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            interactive: ClassPolicy {
                window: Duration::from_millis(2),
                deadline: Duration::from_millis(500),
            },
            batch: ClassPolicy {
                window: Duration::from_millis(20),
                deadline: Duration::from_secs(5),
            },
        }
    }
}

/// Configuration for [`crate::Server::start`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bound on queued (admitted but not yet dispatched) requests; beyond
    /// it, [`crate::Server::submit`] sheds with [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Batch-close policy (size + per-class windows and deadlines).
    pub policy: BatchPolicy,
    /// Planned device byte budget. When `Some`, startup cross-checks that
    /// `params + max_batch × pool` fits
    /// ([`scnn_hmms::StaticLayout::serving_device_bytes`]) — the serving
    /// counterpart of the Fig. 10 capacity bound — and refuses to start
    /// with [`ServeError::OverBudget`] if it does not.
    pub budget_bytes: Option<usize>,
    /// Thread-count override applied inside the dispatch thread via
    /// [`scnn_par::with_threads`] — the overrides are thread-local, so
    /// tests sweeping `SCNN_THREADS` in-process must thread them through
    /// here. `None` inherits the process default.
    pub worker_threads: Option<usize>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 64,
            policy: BatchPolicy::default(),
            budget_bytes: None,
            worker_threads: None,
        }
    }
}

impl ServerConfig {
    /// Validates the shape-independent invariants: positive batch size
    /// and queue capacity, and no class whose window outlasts
    /// its deadline (a held window would then expire the request that
    /// opened it — `DeadlineExceeded` for a lone request on an idle
    /// server).
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] naming the violated field or class.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.policy.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        for class in SloClass::ALL {
            let ClassPolicy { window, deadline } = *self.policy.class(class);
            if window > deadline {
                return Err(ServeError::InvalidConfig(format!(
                    "{} window {window:?} exceeds its deadline {deadline:?}",
                    class.name()
                )));
            }
        }
        Ok(())
    }
}

/// Everything that can go wrong on the serving request path — returned as
/// a value so one engine failure never panics a client thread (the PR 8
/// `expect`-based API did; see DESIGN.md §15).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full; the request was shed at the
    /// door. Retry with backoff, or against another server.
    Overloaded,
    /// The request is malformed (wrong tensor shape, wrong payload size);
    /// the message says how.
    BadRequest(String),
    /// The request sat in the queue past its class deadline and was
    /// dropped at admission close without running.
    DeadlineExceeded,
    /// The engine (on the dispatch thread) panicked; this request cannot
    /// complete. The server stops admitting and surfaces the panic when
    /// it is dropped or shut down.
    EngineDown,
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// [`ServerConfig`] is structurally invalid (zero batch, zero queue,
    /// a class window longer than its deadline).
    InvalidConfig(String),
    /// `max_batch` plans more pool bytes than
    /// [`ServerConfig::budget_bytes`] allows: `requested` is the
    /// configured batch, `fits` the largest that would fit
    /// (0 when not even one does).
    OverBudget {
        /// Configured `max_batch`.
        requested: usize,
        /// Largest batch the budget admits.
        fits: usize,
    },
    /// The socket peer violated the frame protocol.
    Protocol(String),
    /// Socket I/O failed (message carries the `std::io::Error` text).
    Io(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full; request shed"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::DeadlineExceeded => {
                write!(f, "request expired in queue past its class deadline")
            }
            ServeError::EngineDown => write!(f, "engine died; request cannot complete"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::InvalidConfig(m) => write!(f, "invalid server config: {m}"),
            ServeError::OverBudget { requested, fits } => write!(
                f,
                "max_batch {requested} exceeds the planned memory budget (largest that fits: {fits})"
            ),
            ServeError::Protocol(m) => write!(f, "protocol violation: {m}"),
            ServeError::Io(m) => write!(f, "socket i/o failed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_stable() {
        assert_eq!(SloClass::Interactive.index(), 0);
        assert_eq!(SloClass::Batch.index(), 1);
        for (i, c) in SloClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn default_policy_orders_windows_and_deadlines() {
        let p = BatchPolicy::default();
        assert!(p.interactive.window < p.batch.window);
        assert!(p.interactive.deadline < p.batch.deadline);
        assert_eq!(p.class(SloClass::Interactive), &p.interactive);
        assert_eq!(p.class(SloClass::Batch), &p.batch);
    }

    #[test]
    fn a_window_longer_than_its_deadline_is_rejected_by_class_name() {
        let mut config = ServerConfig::default();
        config.policy.batch.window = config.policy.batch.deadline;
        assert!(config.validate().is_ok(), "window == deadline is legal");
        config.policy.batch.window += Duration::from_nanos(1);
        assert!(matches!(config.validate(), Err(ServeError::InvalidConfig(m)) if m.contains("batch")));
        let mut config = ServerConfig::default();
        config.policy.interactive.deadline = Duration::from_millis(1);
        assert!(matches!(config.validate(), Err(ServeError::InvalidConfig(m)) if m.contains("interactive")));
    }

    #[test]
    fn config_validation_names_the_zero_field() {
        assert!(ServerConfig::default().validate().is_ok());
        let zero_q = ServerConfig {
            queue_capacity: 0,
            ..ServerConfig::default()
        };
        assert!(matches!(zero_q.validate(), Err(ServeError::InvalidConfig(m)) if m.contains("queue_capacity")));
        let mut zero_b = ServerConfig::default();
        zero_b.policy.max_batch = 0;
        assert!(matches!(zero_b.validate(), Err(ServeError::InvalidConfig(m)) if m.contains("max_batch")));
    }
}
