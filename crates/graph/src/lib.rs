//! Computation-graph IR for the Split-CNN reproduction.
//!
//! The paper's §4 defines a *computation graph* `G = (N, E)` whose nodes are
//! mathematical operations and whose edges are producer–consumer data flows.
//! This crate is that IR: a directed acyclic graph of [`Op`] nodes with shape
//! inference, a serialized execution [`tape`](Tape) (topological
//! forward order plus the reversed backward order, §4.1 step 2), and the
//! per-op facts ([`OpDesc`]) every other layer of the system consumes:
//!
//! - `scnn-nn` executes the graph with real tensors (CPU training),
//! - `scnn-core` rewrites graphs into their Split-CNN form,
//! - `scnn-hmms` plans tensor-storage-object lifetimes over the tape,
//! - `scnn-gpusim` attaches an analytical cost model to each node.
//!
//! Graphs are built append-only: a node's inputs must already exist, so node
//! id order *is* a topological order and serialization is trivial.

mod graph;
mod micro;
mod op;
mod tape;

pub use graph::{Graph, Node, NodeId, ParamId, ParamKind, ParamSpec};
pub use micro::MicroBatchSchedule;
pub use op::{Alias, Op, OpDesc, PoolKind};
pub use tape::{Tape, TapeEntry, TapeStep};
