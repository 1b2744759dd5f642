//! Tensor Storage Objects (§4's TSO) and their assignment.
//!
//! A TSO is a contiguous region of storage used by one or more tensors.
//! Separating tensors from storage enables the two §4.2 optimizations:
//!
//! 1. **In-place ReLU** — a ReLU whose input has no other consumer writes
//!    its output into the input's TSO (ReLU's backward only needs the
//!    output, never the input).
//! 2. **Summation error-storage sharing** — all inputs of a summation
//!    receive *identical* back-propagated error terms, so their error
//!    tensors share one TSO.

use scnn_graph::{Graph, NodeId, Op};

/// Identifies a tensor storage object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TsoId(pub usize);

/// What a TSO stores (diagnostic; the planner treats all TSOs uniformly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TsoRole {
    /// A forward activation (node output).
    Activation(NodeId),
    /// A back-propagated error tensor for a node's output.
    Error(NodeId),
    /// Auxiliary saved data (dropout mask, softmax probs, BN stats).
    Aux(NodeId),
    /// Transient convolution workspace.
    Workspace(NodeId),
}

/// Toggles for the §4.2 storage optimizations (disabled in the ablation
/// benches).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TsoOptions {
    /// Enable in-place ReLU.
    pub inplace_relu: bool,
    /// Enable summation error-storage sharing.
    pub share_sum_error: bool,
}

impl Default for TsoOptions {
    fn default() -> Self {
        TsoOptions {
            inplace_relu: true,
            share_sum_error: true,
        }
    }
}

/// The tensor→TSO mapping for one graph.
#[derive(Clone, Debug)]
pub struct TsoAssignment {
    sizes: Vec<usize>,
    roles: Vec<TsoRole>,
    /// Activation TSO per node.
    pub activation: Vec<TsoId>,
    /// Error TSO per node output (`None` for nodes whose output error is
    /// never materialized: inputs and the loss).
    pub error: Vec<Option<TsoId>>,
    /// Aux TSO per node, when the op saves auxiliary data.
    pub aux: Vec<Option<TsoId>>,
    /// Workspace TSO per node, when the profile reports workspace.
    pub workspace: Vec<Option<TsoId>>,
}

impl TsoAssignment {
    /// Assigns TSOs for `graph`. `workspace_bytes` comes from the profile
    /// (indexed by node id; zero means no workspace).
    ///
    /// # Panics
    ///
    /// Panics if `workspace_bytes` length mismatches the graph.
    pub fn new(graph: &Graph, workspace_bytes: &[usize], opts: TsoOptions) -> Self {
        assert_eq!(workspace_bytes.len(), graph.len(), "workspace length mismatch");
        let n = graph.len();
        let mut sizes = Vec::new();
        let mut roles = Vec::new();
        let mut fresh = |bytes: usize, role: TsoRole| -> TsoId {
            let id = TsoId(sizes.len());
            sizes.push(bytes);
            roles.push(role);
            id
        };

        let consumers = graph.consumers();

        // --- activations (forward order) --------------------------------
        let mut activation: Vec<TsoId> = Vec::with_capacity(n);
        for node in graph.nodes() {
            let tso = match node.storage_alias(&consumers, opts.inplace_relu) {
                Some(input) => activation[input.0],
                None => fresh(node.out_bytes(), TsoRole::Activation(node.id)),
            };
            activation.push(tso);
        }

        // --- error tensors (reverse order) -------------------------------
        let mut error: Vec<Option<TsoId>> = vec![None; n];
        for node in graph.nodes().iter().rev() {
            if matches!(node.op, Op::Input { .. } | Op::SoftmaxCrossEntropy) {
                continue;
            }
            if error[node.id.0].is_none() {
                error[node.id.0] = Some(fresh(node.out_bytes(), TsoRole::Error(node.id)));
            }
            // Summation error sharing: an input whose *only* consumer is
            // this Add receives exactly the Add's error value, so it can
            // alias. (With several consumers the error accumulates and
            // needs its own storage.)
            if let Op::Add = node.op {
                if opts.share_sum_error {
                    for &i in &node.inputs {
                        let producer = graph.node(i);
                        if consumers[i.0].len() == 1
                            && !matches!(producer.op, Op::Input { .. })
                            && error[i.0].is_none()
                        {
                            error[i.0] = error[node.id.0];
                        }
                    }
                }
            }
        }

        // --- aux + workspace ---------------------------------------------
        let mut aux = vec![None; n];
        let mut workspace = vec![None; n];
        for node in graph.nodes() {
            let d = node.op.desc();
            let ab = d.aux_bytes_per_elem * node.out_elems() + d.aux_bytes_fixed;
            if ab > 0 {
                aux[node.id.0] = Some(fresh(ab, TsoRole::Aux(node.id)));
            }
            if workspace_bytes[node.id.0] > 0 {
                workspace[node.id.0] = Some(fresh(
                    workspace_bytes[node.id.0],
                    TsoRole::Workspace(node.id),
                ));
            }
        }

        TsoAssignment {
            sizes,
            roles,
            activation,
            error,
            aux,
            workspace,
        }
    }

    /// Number of TSOs.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Returns `true` when no TSOs exist.
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of a TSO in bytes.
    pub fn size(&self, id: TsoId) -> usize {
        self.sizes[id.0]
    }

    /// Role of a TSO.
    pub fn role(&self, id: TsoId) -> TsoRole {
        self.roles[id.0]
    }

    /// Bytes a node's output "generates" in the Figure 1 sense: activation
    /// bytes that must survive to the backward pass, plus saved aux bytes.
    ///
    /// A TSO survives when *any* node aliasing it (e.g. the in-place ReLU
    /// written over a convolution's output) is needed in backward; its size
    /// is attributed once, to the last writer, so aliases are neither
    /// dropped nor double-counted.
    pub fn generated_bytes(&self, graph: &Graph, needed_in_backward: &[bool]) -> Vec<usize> {
        let mut tso_needed = vec![false; self.sizes.len()];
        let mut last_writer = vec![0usize; self.sizes.len()];
        for node in graph.nodes() {
            let tso = self.activation[node.id.0];
            if needed_in_backward[node.id.0] {
                tso_needed[tso.0] = true;
            }
            last_writer[tso.0] = node.id.0;
        }
        let mut out = vec![0usize; graph.len()];
        for (t, role) in self.roles.iter().enumerate() {
            if matches!(role, TsoRole::Activation(_)) && tso_needed[t] {
                out[last_writer[t]] += self.sizes[t];
            }
        }
        for node in graph.nodes() {
            if let Some(a) = self.aux[node.id.0] {
                out[node.id.0] += self.sizes[a.0];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_tensor::Padding2d;

    fn conv_relu_chain() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), false, "c");
        let r = g.relu(c, "r");
        let f = g.flatten(r, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    #[test]
    fn inplace_relu_aliases_sole_consumer() {
        let g = conv_relu_chain();
        let ws = vec![0; g.len()];
        let t = TsoAssignment::new(&g, &ws, TsoOptions::default());
        assert_eq!(t.activation[2], t.activation[1], "relu shares conv TSO");
        assert_eq!(t.activation[3], t.activation[2], "flatten aliases");
        let off = TsoAssignment::new(
            &g,
            &ws,
            TsoOptions {
                inplace_relu: false,
                share_sum_error: true,
            },
        );
        assert_ne!(off.activation[2], off.activation[1]);
    }

    #[test]
    fn inplace_relu_blocked_by_second_consumer() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4]);
        let c = g.conv2d(x, 2, 3, 1, Padding2d::symmetric(1), false, "c");
        let r = g.relu(c, "r");
        let s = g.add(&[c, r], "res"); // c consumed twice
        let f = g.flatten(s, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");
        let t = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        assert_ne!(t.activation[r.0], t.activation[c.0]);
    }

    #[test]
    fn summation_error_sharing() {
        let mut g = Graph::new();
        let x = g.input(&[1, 2, 4, 4]);
        let a = g.conv2d(x, 2, 3, 1, Padding2d::symmetric(1), false, "a");
        let b = g.conv2d(x, 2, 3, 1, Padding2d::symmetric(1), false, "b");
        let s = g.add(&[a, b], "sum");
        let f = g.flatten(s, "f");
        let l = g.linear(f, 2, "fc");
        g.softmax_cross_entropy(l, "loss");
        let t = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        assert_eq!(t.error[a.0], t.error[s.0]);
        assert_eq!(t.error[b.0], t.error[s.0]);

        let off = TsoAssignment::new(
            &g,
            &vec![0; g.len()],
            TsoOptions {
                inplace_relu: true,
                share_sum_error: false,
            },
        );
        assert_ne!(off.error[a.0], off.error[s.0]);
    }

    #[test]
    fn workspace_and_aux_tsos_created() {
        let mut g = Graph::new();
        let x = g.input(&[1, 3, 8, 8]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), false, "c");
        let d = g.dropout(c, 0.5, "d");
        let f = g.flatten(d, "f");
        let l = g.linear(f, 2, "fc");
        let loss = g.softmax_cross_entropy(l, "loss");
        let mut ws = vec![0; g.len()];
        ws[c.0] = 1024;
        let t = TsoAssignment::new(&g, &ws, TsoOptions::default());
        assert!(t.workspace[c.0].is_some());
        assert_eq!(t.size(t.workspace[c.0].unwrap()), 1024);
        assert!(t.aux[d.0].is_some(), "dropout mask aux");
        assert!(t.aux[loss.0].is_some(), "softmax probs aux");
        assert!(t.error[x.0].is_none(), "no error for graph input");
    }

    #[test]
    fn generated_bytes_counts_only_backward_survivors() {
        let g = conv_relu_chain();
        let tape = scnn_graph::Tape::new(&g);
        let needed = tape.needed_in_backward(&g);
        let t = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let gen = t.generated_bytes(&g, &needed);
        // Input image is needed by conv backward.
        assert!(gen[0] > 0);
        // Loss output is not.
        assert_eq!(gen[5], t.size(t.aux[5].unwrap()));
    }
}
