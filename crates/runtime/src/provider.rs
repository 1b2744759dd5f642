//! The plan-executing buffer provider.
//!
//! [`PlanRuntime`] implements [`scnn_nn::BufferProvider`] and drives one
//! [`ExecPlan`] per pass — an HMMS plan over a full train-mode step
//! (forward + backward), or a forward-only inference plan
//! (`steps.len() == forward_len`) over an eval pass:
//!
//! - every node output is written into a fresh `Vec` (the default
//!   [`BufferProvider::output`] hook) and adopted as the kernel filled it —
//!   counted into the resident total and handed straight back;
//! - Alloc events need no action: the planner's addresses were checked
//!   for overlap when the plan was exported, and the buffer they stand
//!   for is the one the kernel just filled;
//! - Free events (and an eager in-place-aliasing pass) drop activation
//!   entries from the executor's `outputs` table the moment their planned
//!   lifetime ends, which returns the buffer to the allocator;
//! - OffloadStart writes the source buffer into the host tier (an unlinked
//!   file, [`HostArena`]) where it lies — one positioned write, no staging
//!   copy, so no buffer of the step is borrowed past the event and a Free
//!   or an eager alias drop may release it at once. PrefetchStart hands
//!   the read to a background transfer worker, which also makes the
//!   buffer it reads into. Each copy's outcome waits for the matching
//!   Sync event, which blocks exactly where the plan says the compute
//!   stream would. The worker and the tier exist only when the plan stages
//!   bytes off-device. A copy the file refuses travels to its Sync event
//!   as an [`io::Result`], and that event panics naming the TSO, the host
//!   slot and the [`io::ErrorKind`]: the provider hooks cannot return
//!   errors.
//!
//! # One order
//!
//! The plan is a serialized tape, and every pass runs it as written —
//! forward in ascending node id, backward in descending; a serving slot
//! runs the forward half alone. The runtime keeps a cursor over tape
//! positions and asserts each hook arrives at it, so a step's events
//! replay the moment its node lands: buffers die where the planner freed
//! them, an offload is issued while the next node computes, and the event
//! order the runtime replays is exactly the order `plan_layout` validated.
//! A caller that lands nodes out of order fails the assert instead of
//! replaying a plan that is no longer true of it.
//!
//! # Determinism
//!
//! The runtime moves and copies bits; it never computes. Adoption returns
//! the buffer the kernel filled, and offload/prefetch are bit-exact copies
//! synchronized by the plan's events. A step run under `PlanRuntime` is
//! therefore bit-identical to the `VecProvider` baseline at any
//! `SCNN_THREADS` — the integration tests assert this.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;

use scnn_graph::{Graph, Op};
use scnn_hmms::{
    export_plan, export_plan_with, ExecPlan, LayoutError, LayoutOptions, MemEvent, MemoryPlan,
    TsoAssignment,
};
use scnn_nn::{BufferProvider, Executor};
use scnn_par::background::Worker;
use scnn_tensor::Tensor;

use crate::host::HostArena;

/// What one step under the runtime cost, memory-wise. What the plan
/// reserved is not here: it is `plan().layout` (`device_general_bytes`,
/// `device_workspace_bytes`), fixed when the plan was made.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Peak of physically resident activation bytes (the `outputs` table),
    /// sampled at every lifetime hook — at most the plan's
    /// `device_general_bytes`.
    pub resident_peak_bytes: usize,
    /// Host tier capacity (bytes staged off-device by the plan).
    pub host_bytes: usize,
    /// Offload transfers issued.
    pub offloads: usize,
    /// Prefetch transfers issued.
    pub prefetches: usize,
    /// High-water mark of the per-thread kernel scratch arenas
    /// (`scnn_par::scratch`) over the step — the tiled convolution
    /// engine's pack panels and GEMM partials. Reset at `begin_step`, so
    /// it covers exactly one step.
    pub scratch_peak_bytes: usize,
}

/// Why a [`PlanRuntime`] could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// The memory plan failed first-fit layout replay.
    Layout(LayoutError),
    /// The plan was exported for a graph of a different length.
    GraphMismatch {
        /// Forward nodes the plan covers (`ExecPlan::forward_len`).
        plan_nodes: usize,
        /// Nodes in the graph it was paired with.
        graph_nodes: usize,
    },
    /// A training plan over a graph with a `recompute: true` batch norm:
    /// the plan frees that node's input after forward, but its backward
    /// regenerates `x̂` from that input. (Eval-only plans, and the
    /// unplanned providers, run such graphs unchanged.)
    RecomputeBn {
        /// The batch-norm node's id.
        node: usize,
        /// The batch-norm node's name.
        name: String,
    },
    /// The host tier's backing file could not be created, unlinked or
    /// sized in `dir`.
    HostTier {
        /// Where the file was to live (`std::env::temp_dir()`).
        dir: PathBuf,
        /// The plan's `host_pool_bytes`.
        bytes: usize,
        /// What the file system said.
        kind: io::ErrorKind,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Layout(e) => write!(f, "layout: {e}"),
            RuntimeError::GraphMismatch { plan_nodes, graph_nodes } => write!(
                f,
                "plan covers {plan_nodes} forward nodes, graph has {graph_nodes}"
            ),
            RuntimeError::RecomputeBn { node, name } => write!(
                f,
                "node {node} ({name}) is a recompute batch norm: a training plan frees \
                 the input its backward reads"
            ),
            RuntimeError::HostTier { dir, bytes, kind } => {
                write!(f, "host tier of {bytes} B in {}: {kind}", dir.display())
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<LayoutError> for RuntimeError {
    fn from(e: LayoutError) -> Self {
        RuntimeError::Layout(e)
    }
}

/// The immutable half of a [`PlanRuntime`]: the plan plus the graph facts
/// replay needs. Built once per graph and shared behind an `Arc`, so a
/// fresh runtime (one per serving slot per batch) costs a few small `Vec`s.
#[derive(Debug)]
pub struct PlanTables {
    plan: ExecPlan,
    /// Forward consumers per node (for the eager in-place-alias drop).
    consumers: Vec<Vec<usize>>,
    /// Activation TSO of each node's output.
    node_tso: Vec<usize>,
    /// Output shape per node (restores rebuild tensors without the graph).
    node_shape: Vec<Vec<usize>>,
}

impl PlanTables {
    /// Resolves `plan` against `graph`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::GraphMismatch`] when `plan` was exported for a graph
    /// of a different length; [`RuntimeError::RecomputeBn`] when `plan`
    /// trains (`steps.len() > forward_len`) a graph with a
    /// `recompute: true` batch norm.
    pub fn new(graph: &Graph, plan: ExecPlan) -> Result<Arc<Self>, RuntimeError> {
        if plan.forward_len != graph.len() {
            return Err(RuntimeError::GraphMismatch {
                plan_nodes: plan.forward_len,
                graph_nodes: graph.len(),
            });
        }
        let trains = plan.steps.len() > plan.forward_len;
        let recompute = |op: &Op| matches!(op, Op::BatchNorm { recompute: true, .. });
        if let Some(n) = graph.nodes().iter().find(|n| trains && recompute(&n.op)) {
            return Err(RuntimeError::RecomputeBn { node: n.id.0, name: n.name.clone() });
        }
        let consumers: Vec<Vec<usize>> = graph
            .consumers()
            .into_iter()
            .map(|c| c.into_iter().map(|id| id.0).collect())
            .collect();
        let mut node_tso = vec![usize::MAX; graph.len()];
        for (t, nodes) in plan.alias_nodes.iter().enumerate() {
            for &n in nodes {
                node_tso[n] = t;
            }
        }
        let node_shape: Vec<Vec<usize>> =
            graph.nodes().iter().map(|n| n.out_shape.clone()).collect();
        Ok(Arc::new(PlanTables { plan, consumers, node_tso, node_shape }))
    }

    /// The resolved plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }
}

/// A plan-driven [`BufferProvider`]. One instance serves one graph and one
/// plan, for any number of steps.
pub struct PlanRuntime {
    tables: Arc<PlanTables>,
    /// Host tier and transfer thread: present iff the plan stages bytes
    /// off-device (`host_pool_bytes > 0`; inference plans never do).
    transfer: Option<(Arc<HostArena>, Worker)>,

    // Per-step replay state.
    /// The tape position whose hooks come next.
    cursor: usize,
    /// Node whose output currently holds each TSO's bits (last completed
    /// alias — the value an offload must capture).
    content: Vec<Option<usize>>,
    pending_offload: HashMap<usize, Transfer<()>>,
    pending_prefetch: HashMap<usize, Transfer<Vec<f32>>>,
    /// Bytes in the `outputs` table right now: every entry enters through
    /// `adopt` or a prefetch restore and leaves through `release`.
    resident: usize,
    /// Accumulates over the step; complete once `end_step` ran.
    stats: StepStats,
}

impl PlanRuntime {
    /// Builds a runtime for `graph` executing `plan`.
    ///
    /// # Errors
    ///
    /// As [`PlanTables::new`] and [`PlanRuntime::from_tables`].
    pub fn new(graph: &Graph, plan: ExecPlan) -> Result<Self, RuntimeError> {
        PlanRuntime::from_tables(PlanTables::new(graph, plan)?)
    }

    /// A fresh runtime over already-resolved `tables`, with a host tier of
    /// its own when the plan stages bytes off-device.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::HostTier`] when that tier's file cannot be made.
    /// A plan with no `host_pool_bytes` (every inference plan) builds no
    /// tier and cannot fail.
    pub fn from_tables(tables: Arc<PlanTables>) -> Result<Self, RuntimeError> {
        let host_bytes = tables.plan.layout.host_pool_bytes;
        let transfer = if host_bytes > 0 {
            Some((
                Arc::new(HostArena::with_bytes(host_bytes)?),
                Worker::new("scnn-transfer"),
            ))
        } else {
            None
        };
        Ok(PlanRuntime {
            tables,
            transfer,
            cursor: 0,
            content: Vec::new(),
            pending_offload: HashMap::new(),
            pending_prefetch: HashMap::new(),
            resident: 0,
            stats: StepStats::default(),
        })
    }

    /// Convenience: export `plan` against `graph`/`tape`/`tso` and build
    /// the runtime in one go.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Layout`] when the plan fails layout replay, else as
    /// [`PlanTables::new`] and [`PlanRuntime::from_tables`].
    pub fn from_plan(
        graph: &Graph,
        tape: &scnn_graph::Tape,
        plan: &MemoryPlan,
        tso: &TsoAssignment,
    ) -> Result<Self, RuntimeError> {
        PlanRuntime::new(graph, export_plan(graph, tape, plan, tso)?)
    }

    /// Like [`PlanRuntime::from_plan`], with explicit [`LayoutOptions`] —
    /// the way to run on a workspace/offload-overlapped layout.
    ///
    /// # Errors
    ///
    /// As in [`PlanRuntime::from_plan`].
    pub fn from_plan_with(
        graph: &Graph,
        tape: &scnn_graph::Tape,
        plan: &MemoryPlan,
        tso: &TsoAssignment,
        opts: LayoutOptions,
    ) -> Result<Self, RuntimeError> {
        PlanRuntime::new(graph, export_plan_with(graph, tape, plan, tso, opts)?)
    }

    /// The resolved plan this runtime executes.
    pub fn plan(&self) -> &ExecPlan {
        &self.tables.plan
    }

    /// [`Executor::new`]: every plan runs on the one executor. It exists
    /// only for the repo benchmark's trainer (`benchmark/src/train.rs`),
    /// which calls it by this name.
    pub fn executor(&self) -> Executor {
        Executor::new()
    }

    /// Memory statistics of the last completed step.
    pub fn stats(&self) -> StepStats {
        self.stats
    }

    /// Bytes in the `outputs` table right now — what [`StepStats`]'
    /// `resident_peak_bytes` is the running maximum of.
    pub fn resident_bytes(&self) -> usize {
        self.resident
    }

    fn sample_resident(&mut self) {
        self.stats.resident_peak_bytes = self.stats.resident_peak_bytes.max(self.resident);
    }

    /// Drops node `node`'s output, if still resident.
    fn release(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        if let Some(t) = outputs[node].take() {
            self.resident -= t.len() * 4;
        }
    }

    /// Re-populates node `node`'s evicted output.
    fn restore(&mut self, node: usize, t: Tensor, outputs: &mut [Option<Tensor>]) {
        self.resident += t.len() * 4;
        let evicted = outputs[node].replace(t);
        assert!(evicted.is_none(), "node {node} restored while still resident");
    }

    /// Drops alias-predecessor outputs that are now dead: in-place ReLU's
    /// pre-activation (and flatten's source) the moment the aliasing node
    /// lands, provided backward never re-reads them and every forward
    /// consumer already ran (in tape order: has an id no later than
    /// `node`'s). This is the physical realization of the planner treating
    /// the pair as *one* TSO.
    fn eager_alias_drop(&mut self, tables: &PlanTables, node: usize, outputs: &mut [Option<Tensor>]) {
        let t = tables.node_tso[node];
        for &p in &tables.plan.alias_nodes[t] {
            if p != node
                && !tables.plan.restore_nodes[t].contains(&p)
                && tables.consumers[p].iter().all(|&c| c <= node)
            {
                self.release(p, outputs);
            }
        }
    }

    /// The host tier and its transfer worker.
    fn tier(&self) -> &(Arc<HostArena>, Worker) {
        self.transfer.as_ref().expect("offloading plans have a host tier")
    }

    /// Queues `copy` of the `len` bytes at host offset `off` on the
    /// transfer worker; its outcome waits for the matching Sync event.
    fn start_transfer<T: Send + 'static>(
        &self,
        off: usize,
        len: usize,
        copy: impl FnOnce(&HostArena) -> io::Result<T> + Send + 'static,
    ) -> Transfer<T> {
        let (arena, worker) = self.tier();
        let arena = arena.clone();
        let (tx, rx) = channel();
        worker.submit(move || {
            // The runtime holds the receiver for the whole step; a closed
            // channel means it was dropped mid-panic.
            let _ = tx.send(copy(&arena));
        });
        Transfer { off, len, rx }
    }

    /// Replays plan events, in order.
    fn replay(&mut self, tables: &PlanTables, events: &[MemEvent], outputs: &mut [Option<Tensor>]) {
        let plan = &tables.plan;
        for event in events {
            match *event {
                MemEvent::Alloc(_) => {}
                MemEvent::Free(t) => {
                    if plan.is_activation[t.0] {
                        for &nid in &plan.alias_nodes[t.0] {
                            self.release(nid, outputs);
                        }
                    }
                }
                MemEvent::OffloadStart { tso, .. } => {
                    // Written here, from the buffer where it lies: no
                    // staging copy, and nothing of the step's buffers is
                    // borrowed past this event — a Free or an eager alias
                    // drop may release the source at once. The outcome
                    // still waits for the plan's OffloadSync.
                    let src = self.content[tso.0].expect("offloaded TSO has computed content");
                    let data = outputs[src]
                        .as_ref()
                        .expect("offload source is resident")
                        .as_slice();
                    let (off, len) = (plan.host_offsets[&tso], data.len() * 4);
                    let stored = self.tier().0.store(off, data);
                    self.pending_offload.insert(tso.0, Transfer::done(off, len, stored));
                    self.stats.offloads += 1;
                }
                MemEvent::OffloadSync { tso } => {
                    self.pending_offload
                        .remove(&tso.0)
                        .expect("offload was started")
                        .wait("offload", tso.0);
                }
                MemEvent::PrefetchStart { tso, .. } => {
                    let reader = *plan.restore_nodes[tso.0]
                        .last()
                        .expect("prefetched TSO has a reader");
                    let elems: usize = tables.node_shape[reader].iter().product();
                    let (off, len) = (plan.host_offsets[&tso], elems * 4);
                    // The buffer is made on the worker, so its pages are
                    // first touched there and not on the compute thread.
                    let copy = self.start_transfer(off, len, move |arena| {
                        let mut buf = vec![0.0f32; elems];
                        arena.load(off, &mut buf).map(|()| buf)
                    });
                    self.pending_prefetch.insert(tso.0, copy);
                    self.stats.prefetches += 1;
                }
                MemEvent::PrefetchSync { tso } => {
                    let buf = self
                        .pending_prefetch
                        .remove(&tso.0)
                        .expect("prefetch was started")
                        .wait("prefetch", tso.0);
                    let (&last, rest) = plan.restore_nodes[tso.0]
                        .split_last()
                        .expect("prefetched TSO has a reader");
                    for &nid in rest {
                        // Aliased views (e.g. pre-flatten and flattened) share
                        // the same bits under different shapes.
                        self.restore(nid, Tensor::from_vec(buf.clone(), &tables.node_shape[nid]), outputs);
                    }
                    self.restore(last, Tensor::from_vec(buf, &tables.node_shape[last]), outputs);
                    self.content[tso.0] = Some(last);
                }
            }
        }
    }
}

/// One copy in flight on the transfer worker: the host slot it touches
/// and the channel its outcome arrives on.
struct Transfer<T> {
    off: usize,
    len: usize,
    rx: Receiver<io::Result<T>>,
}

impl<T> Transfer<T> {
    /// A copy that already ran, its outcome waiting for its Sync event
    /// like one in flight.
    fn done(off: usize, len: usize, outcome: io::Result<T>) -> Self {
        let (tx, rx) = channel();
        // The receiver is alive: it is in hand.
        let _ = tx.send(outcome);
        Transfer { off, len, rx }
    }

    /// Blocks until the copy is done — the plan's Sync event — and returns
    /// what it produced.
    ///
    /// # Panics
    ///
    /// When the host tier's I/O failed (or the worker died): mid-step
    /// there is no error path through the provider hooks, so the panic
    /// names the TSO, its slot and the [`io::ErrorKind`].
    fn wait(self, what: &str, tso: usize) -> T {
        let Transfer { off, len, rx } = self;
        rx.recv()
            .unwrap_or_else(|_| Err(io::Error::other("transfer worker died")))
            .unwrap_or_else(|e| {
                panic!(
                    "{what} of TSO {tso} ({len} B at host offset {off}) failed: {:?}",
                    e.kind()
                )
            })
    }
}

impl BufferProvider for PlanRuntime {
    fn begin_step(&mut self, n_nodes: usize) {
        let n_tso = self.tables.plan.sizes.len();
        assert_eq!(
            n_nodes, self.tables.plan.forward_len,
            "plan was exported for a different graph"
        );
        assert!(
            self.pending_offload.is_empty() && self.pending_prefetch.is_empty(),
            "previous step left transfers in flight"
        );
        self.cursor = 0;
        self.content = vec![None; n_tso];
        self.resident = 0;
        self.stats = StepStats {
            host_bytes: self.tables.plan.layout.host_pool_bytes,
            ..StepStats::default()
        };
        // Scope the kernel-scratch high-water mark to this step.
        scnn_par::scratch::reset_peak();
    }

    fn adopt(&mut self, _node: usize, out: Tensor) -> Tensor {
        self.resident += out.len() * 4;
        out
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let tables = self.tables.clone();
        assert_eq!(self.cursor, node, "forward visited out of tape order");
        self.content[tables.node_tso[node]] = Some(node);
        // Sample before dropping anything: the instant a node (or a whole
        // wave) has landed is the physical peak.
        self.sample_resident();
        self.eager_alias_drop(&tables, node, outputs);
        let step = &tables.plan.steps[node];
        self.replay(&tables, &step.before, outputs);
        self.replay(&tables, &step.after, outputs);
        self.cursor += 1;
    }

    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let tables = self.tables.clone();
        let pos = 2 * tables.plan.forward_len - 1 - node;
        assert_eq!(self.cursor, pos, "backward visited out of tape order");
        self.replay(&tables, &tables.plan.steps[pos].before, outputs);
        self.sample_resident();
    }

    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        let tables = self.tables.clone();
        let pos = 2 * tables.plan.forward_len - 1 - node;
        assert_eq!(self.cursor, pos, "backward visited out of tape order");
        self.replay(&tables, &tables.plan.steps[pos].after, outputs);
        self.cursor += 1;
        self.sample_resident();
    }

    fn end_step(&mut self, _outputs: &mut [Option<Tensor>]) {
        let plan = &self.tables.plan;
        assert_eq!(
            self.cursor,
            plan.steps.len(),
            "the pass must cover the whole plan: forward + backward for a \
             training plan, forward alone for an inference plan"
        );
        assert!(
            self.pending_offload.is_empty() && self.pending_prefetch.is_empty(),
            "plan left transfers unsynchronized"
        );
        self.stats.scratch_peak_bytes = scnn_par::scratch::peak_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "prefetch of TSO 3 (64 B at host offset 128) failed: StorageFull")]
    fn a_failed_copy_panics_at_its_sync_naming_tso_slot_and_kind() {
        let (tx, rx) = channel::<io::Result<Vec<f32>>>();
        tx.send(Err(io::ErrorKind::StorageFull.into()))
            .expect("receiver is live");
        Transfer {
            off: 128,
            len: 64,
            rx,
        }
        .wait("prefetch", 3);
    }

    #[test]
    #[should_panic(expected = "offload of TSO 1 (4 B at host offset 0) failed: Other")]
    fn a_dead_worker_panics_at_the_sync_too() {
        let (tx, rx) = channel::<io::Result<()>>();
        drop(tx);
        Transfer { off: 0, len: 4, rx }.wait("offload", 1);
    }
}
