//! The graph container, builder methods and shape inference.

use std::fmt;

use scnn_tensor::{Conv2dGeometry, Padding2d};

use crate::op::{Alias, Op, PoolKind};

/// Identifies a node within one [`Graph`]. Ids are dense and, by
/// construction, topologically ordered (a node's inputs always have smaller
/// ids).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a trainable parameter. Parameters are shared freely between
/// nodes — the Split-CNN transform reuses one convolution's weights across
/// all of its patches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub usize);

/// What role a parameter plays; drives initialization in the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Convolution or linear weight, He-initialized.
    Weight,
    /// Additive bias, zero-initialized.
    Bias,
    /// BatchNorm scale, ones-initialized.
    Gamma,
    /// BatchNorm shift, zero-initialized.
    Beta,
}

/// Declares a trainable parameter's shape and role.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// The parameter's id (its index in [`Graph::params`]).
    pub id: ParamId,
    /// Tensor dimensions.
    pub dims: Vec<usize>,
    /// Role, for initialization.
    pub kind: ParamKind,
    /// Fan-in used by He initialization (meaningful for weights).
    pub fan_in: usize,
}

impl ParamSpec {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Always `false`; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One operation node.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// The node's id (its index in [`Graph::nodes`]).
    pub id: NodeId,
    /// The operation performed.
    pub op: Op,
    /// Producer nodes, in operand order.
    pub inputs: Vec<NodeId>,
    /// Inferred full output shape (NCHW for image ops).
    pub out_shape: Vec<usize>,
    /// Human-readable label, e.g. `"conv3_2/patch1"`.
    pub name: String,
    /// Sibling-branch tag: nodes sharing a `Some` value belong to the same
    /// independent branch (the split transform tags each patch chain with
    /// its patch index). Purely informational — the executor derives
    /// concurrency from topology — but lets tools and tests identify which
    /// nodes a given patch produced.
    pub group: Option<usize>,
}

impl Node {
    /// Output element count.
    pub fn out_elems(&self) -> usize {
        self.out_shape.iter().product()
    }

    /// Output bytes at 4 bytes per `f32` element.
    pub fn out_bytes(&self) -> usize {
        self.out_elems() * 4
    }

    /// The input whose storage this node's output shares instead of owning
    /// a buffer, if any — the op's [`Alias`] rule applied to this node, as
    /// the planner (`scnn_hmms::TsoAssignment`) sees it. `inplace` enables
    /// [`Alias::SoleConsumer`]; `consumers` is [`Graph::consumers`].
    pub fn storage_alias(&self, consumers: &[Vec<NodeId>], inplace: bool) -> Option<NodeId> {
        let input = *self.inputs.first()?;
        let shares = match self.op.desc().alias {
            Alias::Always => true,
            Alias::SoleConsumer => inplace && consumers[input.0].len() == 1,
            Alias::Never => false,
        };
        shares.then_some(input)
    }
}

/// A directed acyclic computation graph (§4's `G = (N, E)`), built
/// append-only so node order is a valid serialization.
///
/// # Example
///
/// ```
/// use scnn_graph::Graph;
/// use scnn_tensor::Padding2d;
///
/// let mut g = Graph::new();
/// let x = g.input(&[8, 3, 32, 32]);
/// let c = g.conv2d(x, 16, 3, 1, Padding2d::symmetric(1), true, "conv1");
/// let r = g.relu(c, "relu1");
/// let flat = g.flatten(r, "flat");
/// let _loss = g.softmax_cross_entropy(flat, "loss");
/// assert_eq!(g.node(c).out_shape, vec![8, 16, 32, 32]);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Graph {
    nodes: Vec<Node>,
    params: Vec<ParamSpec>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// All nodes in topological (= id) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All parameter specs.
    pub fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Looks up a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Looks up a parameter spec.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn param(&self, id: ParamId) -> &ParamSpec {
        &self.params[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Per node, whether its output depends on a parameter: only then does
    /// a gradient that reaches it flow anywhere. An input, and every slice
    /// or concat of inputs alone, carries none.
    pub fn depends_on_params(&self) -> Vec<bool> {
        let mut out = vec![false; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            out[i] = !node.op.params().is_empty() || node.inputs.iter().any(|p| out[p.0]);
        }
        out
    }

    /// Consumers of each node, indexed by node id.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                out[i.0].push(n.id);
            }
        }
        out
    }

    /// Total parameter element count (the `|G|` of §6.4's gradient size,
    /// in elements).
    pub fn param_elems(&self) -> usize {
        self.params.iter().map(ParamSpec::len).sum()
    }

    /// Declares a parameter and returns its id.
    pub fn add_param(&mut self, dims: &[usize], kind: ParamKind, fan_in: usize) -> ParamId {
        let id = ParamId(self.params.len());
        self.params.push(ParamSpec {
            id,
            dims: dims.to_vec(),
            kind,
            fan_in,
        });
        id
    }

    /// Appends a node, inferring its output shape.
    ///
    /// # Panics
    ///
    /// Panics if an input id is out of range (which would break the
    /// topological-order invariant) or shapes are inconsistent.
    pub fn add_node(&mut self, op: Op, inputs: &[NodeId], name: &str) -> NodeId {
        let id = NodeId(self.nodes.len());
        for i in inputs {
            assert!(i.0 < id.0, "node {name} references not-yet-added input {i:?}");
        }
        let in_shapes: Vec<&[usize]> = inputs
            .iter()
            .map(|i| self.nodes[i.0].out_shape.as_slice())
            .collect();
        let out_shape = infer_shape(&op, &in_shapes, name);
        self.nodes.push(Node {
            id,
            op,
            inputs: inputs.to_vec(),
            out_shape,
            name: name.to_string(),
            group: None,
        });
        id
    }

    /// Tags `id` as belonging to sibling branch `group` (see [`Node::group`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_group(&mut self, id: NodeId, group: usize) {
        self.nodes[id.0].group = Some(group);
    }

    // ---- convenience builders -------------------------------------------

    /// Adds a graph input of the given full shape.
    pub fn input(&mut self, shape: &[usize]) -> NodeId {
        self.add_node(
            Op::Input {
                shape: shape.to_vec(),
            },
            &[],
            "input",
        )
    }

    /// Adds a square convolution with fresh parameters. Split patches share
    /// one layer's weights by adding a copy of its op (with their own
    /// padding) through [`Graph::add_node`].
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        &mut self,
        x: NodeId,
        out_c: usize,
        k: usize,
        s: usize,
        pad: Padding2d,
        bias: bool,
        name: &str,
    ) -> NodeId {
        let in_c = self.nodes[x.0].out_shape[1];
        let weight = self.add_param(&[out_c, in_c, k, k], ParamKind::Weight, in_c * k * k);
        let bias = bias.then(|| self.add_param(&[out_c], ParamKind::Bias, 0));
        let op = Op::Conv2d {
            out_c,
            kh: k,
            kw: k,
            sh: s,
            sw: s,
            pad,
            weight,
            bias,
        };
        self.add_node(op, &[x], name)
    }

    /// Adds a square pooling layer.
    pub fn pool2d(
        &mut self,
        x: NodeId,
        kind: PoolKind,
        k: usize,
        s: usize,
        pad: Padding2d,
        name: &str,
    ) -> NodeId {
        self.add_node(
            Op::Pool2d {
                kind,
                kh: k,
                kw: k,
                sh: s,
                sw: s,
                pad,
            },
            &[x],
            name,
        )
    }

    /// Adds global average pooling.
    pub fn global_avg_pool(&mut self, x: NodeId, name: &str) -> NodeId {
        self.add_node(Op::GlobalAvgPool, &[x], name)
    }

    /// Adds a batch-norm layer with fresh γ/β parameters.
    pub fn batch_norm(&mut self, x: NodeId, recompute: bool, name: &str) -> NodeId {
        let c = self.nodes[x.0].out_shape[1];
        let gamma = self.add_param(&[c], ParamKind::Gamma, 0);
        let beta = self.add_param(&[c], ParamKind::Beta, 0);
        self.add_node(
            Op::BatchNorm {
                gamma,
                beta,
                recompute,
            },
            &[x],
            name,
        )
    }

    /// Adds a ReLU.
    pub fn relu(&mut self, x: NodeId, name: &str) -> NodeId {
        self.add_node(Op::Relu, &[x], name)
    }

    /// Adds dropout.
    pub fn dropout(&mut self, x: NodeId, p: f32, name: &str) -> NodeId {
        self.add_node(Op::Dropout { p }, &[x], name)
    }

    /// Adds a fully-connected layer with fresh parameters.
    pub fn linear(&mut self, x: NodeId, out: usize, name: &str) -> NodeId {
        let in_features: usize = self.nodes[x.0].out_shape[1..].iter().product();
        let weight = self.add_param(&[out, in_features], ParamKind::Weight, in_features);
        let bias = self.add_param(&[out], ParamKind::Bias, 0);
        self.add_node(Op::Linear { out, weight, bias }, &[x], name)
    }

    /// Adds an n-ary elementwise sum.
    pub fn add(&mut self, xs: &[NodeId], name: &str) -> NodeId {
        self.add_node(Op::Add, xs, name)
    }

    /// Adds a concatenation along `dim`.
    pub fn concat(&mut self, xs: &[NodeId], dim: usize, name: &str) -> NodeId {
        self.add_node(Op::Concat { dim }, xs, name)
    }

    /// Adds a slice of `[start, start+len)` along `dim`.
    pub fn slice(&mut self, x: NodeId, dim: usize, start: usize, len: usize, name: &str) -> NodeId {
        self.add_node(Op::Slice { dim, start, len }, &[x], name)
    }

    /// Adds a flatten.
    pub fn flatten(&mut self, x: NodeId, name: &str) -> NodeId {
        self.add_node(Op::Flatten, &[x], name)
    }

    /// Adds the fused softmax + cross-entropy loss.
    pub fn softmax_cross_entropy(&mut self, logits: NodeId, name: &str) -> NodeId {
        self.add_node(Op::SoftmaxCrossEntropy, &[logits], name)
    }

    /// Number of convolution nodes — the denominator of the paper's
    /// "splitting depth" percentage (§5.2).
    pub fn conv_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.op, Op::Conv2d { .. }))
            .count()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Graph with {} nodes, {} params", self.nodes.len(), self.params.len())?;
        for n in &self.nodes {
            writeln!(
                f,
                "  %{:<4} {:<10} {:?} <- {:?} ({})",
                n.id.0,
                n.op.desc().name,
                n.out_shape,
                n.inputs.iter().map(|i| i.0).collect::<Vec<_>>(),
                n.name
            )?;
        }
        Ok(())
    }
}

/// Infers a node's output shape from its op and input shapes.
///
/// # Panics
///
/// Panics on inconsistent inputs; the message names the offending node.
fn infer_shape(op: &Op, inputs: &[&[usize]], name: &str) -> Vec<usize> {
    let one = || {
        assert_eq!(inputs.len(), 1, "{name}: expected exactly one input");
        inputs[0]
    };
    match op {
        Op::Input { shape } => {
            assert!(inputs.is_empty(), "{name}: input node takes no inputs");
            shape.clone()
        }
        Op::Conv2d { kh, kw, sh, sw, pad, .. } | Op::Pool2d { kh, kw, sh, sw, pad, .. } => {
            let s = one();
            assert_eq!(s.len(), 4, "{name}: window op input must be NCHW, got {s:?}");
            // The kernels' own geometry: a window they would reject is
            // rejected here, when the graph is built.
            let (g, _) = Conv2dGeometry::cropped(s[1], s[2], s[3], *kh, *kw, *sh, *sw, *pad);
            let c = if let Op::Conv2d { out_c, .. } = op { *out_c } else { s[1] };
            vec![s[0], c, g.out_h(), g.out_w()]
        }
        Op::GlobalAvgPool => {
            let s = one();
            assert_eq!(s.len(), 4, "{name}: global pool input must be NCHW");
            vec![s[0], s[1], 1, 1]
        }
        Op::BatchNorm { .. } | Op::Relu | Op::Dropout { .. } => one().to_vec(),
        Op::Linear { out, .. } => {
            let s = one();
            vec![s[0], *out]
        }
        Op::Add => {
            assert!(inputs.len() >= 2, "{name}: add needs at least two inputs");
            for s in &inputs[1..] {
                assert_eq!(*s, inputs[0], "{name}: add input shape mismatch");
            }
            inputs[0].to_vec()
        }
        Op::Concat { dim } => {
            assert!(!inputs.is_empty(), "{name}: concat needs inputs");
            let mut out = inputs[0].to_vec();
            assert!(*dim < out.len(), "{name}: concat dim out of range");
            for s in &inputs[1..] {
                assert_eq!(s.len(), out.len(), "{name}: concat rank mismatch");
                for (d, (&a, &b)) in out.iter().zip(*s).enumerate() {
                    if d != *dim {
                        assert_eq!(a, b, "{name}: concat off-dim {d} mismatch");
                    }
                }
                out[*dim] += s[*dim];
            }
            out
        }
        Op::Slice { dim, start, len } => {
            let s = one();
            assert!(*dim < s.len(), "{name}: slice dim out of range");
            assert!(
                start + len <= s[*dim],
                "{name}: slice [{start},{}) exceeds extent {}",
                start + len,
                s[*dim]
            );
            let mut out = s.to_vec();
            out[*dim] = *len;
            out
        }
        Op::Flatten => {
            let s = one();
            vec![s[0], s[1..].iter().product()]
        }
        Op::SoftmaxCrossEntropy => {
            let s = one();
            assert_eq!(s.len(), 2, "{name}: loss input must be [n, classes]");
            vec![1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 8, 8]);
        (g, x)
    }

    #[test]
    fn conv_shape_inference() {
        let (mut g, x) = tiny();
        let c = g.conv2d(x, 16, 3, 1, Padding2d::symmetric(1), true, "c1");
        assert_eq!(g.node(c).out_shape, vec![2, 16, 8, 8]);
        let c2 = g.conv2d(c, 32, 3, 2, Padding2d::symmetric(1), false, "c2");
        assert_eq!(g.node(c2).out_shape, vec![2, 32, 4, 4]);
    }

    #[test]
    fn conv_asymmetric_negative_pad_shape() {
        let (mut g, x) = tiny();
        let c = g.conv2d(x, 4, 3, 1, Padding2d::new(1, -2, 0, 0), false, "c");
        // h: 8 + 1 - 2 = 7 padded, (7-3)/1+1 = 5.
        assert_eq!(g.node(c).out_shape, vec![2, 4, 5, 8 - 2]);
    }

    /// Height 2 cropped by 3 and padded by 2: the padded extent (1) fits a
    /// 1×1 window, but no input row is left for it to read — the kernels
    /// reject this window, so the graph does too.
    fn over_cropped() -> (Graph, NodeId, Padding2d) {
        let mut g = Graph::new();
        let x = g.input(&[1, 1, 2, 4]);
        (g, x, Padding2d::new(-3, 2, 0, 0))
    }

    #[test]
    #[should_panic(expected = "collapses height")]
    fn conv_rejects_a_crop_past_the_input() {
        let (mut g, x, pad) = over_cropped();
        g.conv2d(x, 2, 1, 1, pad, false, "c");
    }

    #[test]
    #[should_panic(expected = "collapses height")]
    fn pool_rejects_a_crop_past_the_input() {
        let (mut g, x, pad) = over_cropped();
        g.pool2d(x, PoolKind::Max, 1, 1, pad, "p");
    }

    #[test]
    fn pool_and_gap_shapes() {
        let (mut g, x) = tiny();
        let p = g.pool2d(x, PoolKind::Max, 2, 2, Padding2d::default(), "p");
        assert_eq!(g.node(p).out_shape, vec![2, 3, 4, 4]);
        let gp = g.global_avg_pool(p, "gap");
        assert_eq!(g.node(gp).out_shape, vec![2, 3, 1, 1]);
    }

    #[test]
    fn linear_flatten_loss_shapes() {
        let (mut g, x) = tiny();
        let f = g.flatten(x, "f");
        assert_eq!(g.node(f).out_shape, vec![2, 192]);
        let l = g.linear(f, 10, "fc");
        assert_eq!(g.node(l).out_shape, vec![2, 10]);
        assert_eq!(g.param(ParamId(0)).dims, vec![10, 192]);
        let loss = g.softmax_cross_entropy(l, "loss");
        assert_eq!(g.node(loss).out_shape, vec![1]);
    }

    #[test]
    fn concat_slice_roundtrip_shapes() {
        let (mut g, x) = tiny();
        let a = g.slice(x, 2, 0, 3, "a");
        let b = g.slice(x, 2, 3, 5, "b");
        let j = g.concat(&[a, b], 2, "j");
        assert_eq!(g.node(j).out_shape, g.node(x).out_shape);
    }

    #[test]
    fn consumers_tracks_fanout() {
        let (mut g, x) = tiny();
        let a = g.relu(x, "a");
        let b = g.relu(x, "b");
        let s = g.add(&[a, b], "s");
        let cons = g.consumers();
        assert_eq!(cons[x.0], vec![a, b]);
        assert_eq!(cons[a.0], vec![s]);
    }

    #[test]
    fn param_elems_counts_everything() {
        let (mut g, x) = tiny();
        g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), true, "c");
        // weight 4*3*3*3 = 108, bias 4.
        assert_eq!(g.param_elems(), 112);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn add_shape_mismatch_panics() {
        let (mut g, x) = tiny();
        let a = g.slice(x, 2, 0, 3, "a");
        g.add(&[x, a], "bad");
    }
}
