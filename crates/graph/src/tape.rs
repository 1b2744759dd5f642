//! Serialized execution tapes (§4.1, step 2).
//!
//! HMMS plans memory over a *serialized* computation: the forward operations
//! in topological order, followed by their backward counterparts in exactly
//! the reverse order. A [`Tape`] is that flat list; `scnn-hmms` walks it to
//! assign tensor-storage-object lifetimes and `scnn-gpusim` walks it to
//! simulate execution.

use crate::graph::{Graph, NodeId};

/// Whether a step executes a node's forward or backward computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TapeStep {
    /// Forward pass of the node.
    Forward,
    /// Backward (gradient) pass of the node.
    Backward,
}

/// One serialized operation instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TapeEntry {
    /// The graph node being executed.
    pub node: NodeId,
    /// Forward or backward.
    pub step: TapeStep,
}

/// The full serialized schedule: every forward op once, then every backward
/// op in reverse forward order.
///
/// Nodes whose backward is a no-op (graph inputs) still appear, so index
/// arithmetic stays uniform; planners skip them by checking the op kind.
///
/// # Example
///
/// ```
/// use scnn_graph::{Graph, Tape, TapeStep};
///
/// let mut g = Graph::new();
/// let x = g.input(&[1, 3, 8, 8]);
/// let r = g.relu(x, "r");
/// let tape = Tape::new(&g);
/// assert_eq!(tape.entries().len(), 4); // 2 forward + 2 backward
/// assert_eq!(tape.entries()[0].step, TapeStep::Forward);
/// assert_eq!(tape.entries()[3].node, x);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tape {
    entries: Vec<TapeEntry>,
    forward_len: usize,
}

impl Tape {
    /// Serializes a graph.
    pub fn new(graph: &Graph) -> Self {
        let n = graph.len();
        let mut entries = Vec::with_capacity(2 * n);
        for node in graph.nodes() {
            entries.push(TapeEntry {
                node: node.id,
                step: TapeStep::Forward,
            });
        }
        for node in graph.nodes().iter().rev() {
            entries.push(TapeEntry {
                node: node.id,
                step: TapeStep::Backward,
            });
        }
        Tape {
            entries,
            forward_len: n,
        }
    }

    /// All steps in execution order.
    pub fn entries(&self) -> &[TapeEntry] {
        &self.entries
    }

    /// Number of forward steps (the backward half has the same length).
    pub fn forward_len(&self) -> usize {
        self.forward_len
    }

    /// The forward half of the tape.
    pub fn forward(&self) -> &[TapeEntry] {
        &self.entries[..self.forward_len]
    }

    /// The backward half of the tape.
    pub fn backward(&self) -> &[TapeEntry] {
        &self.entries[self.forward_len..]
    }

    /// Position of a node's forward step in the tape.
    pub fn forward_pos(&self, node: NodeId) -> usize {
        node.0
    }

    /// Position of a node's backward step in the tape.
    pub fn backward_pos(&self, node: NodeId) -> usize {
        2 * self.forward_len - 1 - node.0
    }

    /// For every node, whether its output is read again in the backward
    /// pass — either because a consumer's backward needs its input, or the
    /// node's own backward needs its output. Such outputs are the paper's
    /// "generated data" (Figure 1): they survive from forward to backward
    /// and are offloading candidates.
    pub fn needed_in_backward(&self, graph: &Graph) -> Vec<bool> {
        let mut needed = vec![false; graph.len()];
        for node in graph.nodes() {
            let d = node.op.desc();
            if d.backward_reads_output {
                needed[node.id.0] = true;
            }
            if d.backward_reads_input {
                for &i in &node.inputs {
                    needed[i.0] = true;
                }
            }
        }
        needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_tensor::Padding2d;

    fn chain() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), false, "c");
        let r = g.relu(c, "r");
        let f = g.flatten(r, "f");
        let l = g.linear(f, 10, "fc");
        let loss = g.softmax_cross_entropy(l, "loss");
        (g, vec![x, c, r, f, l, loss])
    }

    #[test]
    fn tape_is_palindromic_in_nodes() {
        let (g, ids) = chain();
        let tape = Tape::new(&g);
        assert_eq!(tape.entries().len(), 2 * ids.len());
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(tape.entries()[i].node, *id);
            assert_eq!(tape.entries()[2 * ids.len() - 1 - i].node, *id);
        }
        assert!(tape.forward().iter().all(|e| e.step == TapeStep::Forward));
        assert!(tape.backward().iter().all(|e| e.step == TapeStep::Backward));
    }

    #[test]
    fn positions_are_consistent() {
        let (g, ids) = chain();
        let tape = Tape::new(&g);
        for id in ids {
            assert_eq!(tape.entries()[tape.forward_pos(id)].node, id);
            assert_eq!(tape.entries()[tape.backward_pos(id)].node, id);
            assert_eq!(tape.entries()[tape.backward_pos(id)].step, TapeStep::Backward);
        }
    }

    #[test]
    fn conv_input_needed_in_backward() {
        let (g, ids) = chain();
        let tape = Tape::new(&g);
        let needed = tape.needed_in_backward(&g);
        // Input image feeds a conv → needed. Conv output feeds ReLU whose
        // backward reads only its own output, so `backward_reads_output`
        // marks the relu node itself.
        assert!(needed[ids[0].0], "conv input (image) must be kept");
        assert!(needed[ids[2].0], "relu output must be kept");
        assert!(needed[ids[3].0], "linear input (flatten output) must be kept");
        assert!(!needed[ids[5].0], "loss output is never re-read");
    }
}
