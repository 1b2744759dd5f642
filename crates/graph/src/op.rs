//! Operation kinds and their shape/backward metadata.

use scnn_tensor::Padding2d;

use crate::graph::ParamId;

/// Pooling flavor for [`Op::Pool2d`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Max pooling; the backward pass routes gradients through the argmax,
    /// so the executor keeps an index mask alive (modeled as aux bytes).
    Max,
    /// Average pooling; backward distributes gradients uniformly and needs
    /// no saved activations.
    Avg,
}

/// A node's mathematical operation.
///
/// Window-based operations (`Conv2d`, `Pool2d`) carry per-side
/// [`Padding2d`] because the Split-CNN transform (§3.1) assigns each patch
/// its own, generally asymmetric — and for out-of-interval split choices
/// negative — padding.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Graph input (e.g. an image mini-batch). `shape` is the full NCHW
    /// shape including the batch dimension.
    Input { shape: Vec<usize> },
    /// 2-D convolution with `k >= s` in each dimension (the paper's §3.1
    /// mandate; enforced by the split transform, not here, so unsplit graphs
    /// may still contain `k < s` convolutions).
    Conv2d {
        /// Output channels.
        out_c: usize,
        /// Kernel height/width.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Vertical stride.
        sh: usize,
        /// Horizontal stride.
        sw: usize,
        /// Per-side (possibly negative) padding.
        pad: Padding2d,
        /// Weight parameter `[out_c, in_c, kh, kw]`.
        weight: ParamId,
        /// Optional bias parameter `[out_c]`.
        bias: Option<ParamId>,
    },
    /// 2-D max/average pooling.
    Pool2d {
        /// Max or average.
        kind: PoolKind,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Vertical stride.
        sh: usize,
        /// Horizontal stride.
        sw: usize,
        /// Per-side (possibly negative) padding.
        pad: Padding2d,
    },
    /// Global average pooling over the whole spatial extent → `[n, c, 1, 1]`.
    GlobalAvgPool,
    /// Batch normalization over the channel dimension (training mode).
    BatchNorm {
        /// Scale parameter γ, `[c]`.
        gamma: ParamId,
        /// Shift parameter β, `[c]`.
        beta: ParamId,
        /// When `true`, models the memory-efficient in-place-ABN variant
        /// (\[6\] in the paper, §6.3): the normalized input is *recomputed*
        /// in the backward pass from the *output*, so this node's input
        /// does not count as generated data for offloading. The flag is
        /// simulated only — the planner and `scnn-gpusim` read it; the
        /// executor runs every BN alike (statistics kept, `x̂` regenerated
        /// from the input), so `scnn-runtime` refuses a training plan over
        /// a flagged BN, which would free the input backward reads.
        recompute: bool,
    },
    /// Rectified linear unit. Computable in place (§4.2 optimization 1).
    Relu,
    /// Dropout with keep mask saved for backward.
    Dropout {
        /// Probability of zeroing an activation.
        p: f32,
    },
    /// Fully-connected layer on a flattened input.
    Linear {
        /// Output features.
        out: usize,
        /// Weight parameter `[out, in]`.
        weight: ParamId,
        /// Bias parameter `[out]`.
        bias: ParamId,
    },
    /// N-ary elementwise summation (`y = Σ xᵢ`), e.g. residual joins. All
    /// back-propagated error terms are identical, so HMMS lets them share
    /// one TSO (§4.2 optimization 2).
    Add,
    /// Concatenation along `dim` — the join layer of a Split-CNN.
    Concat {
        /// Dimension to concatenate along (2 = height, 3 = width).
        dim: usize,
    },
    /// Extracts `[start, start+len)` along `dim` — produces one split patch.
    Slice {
        /// Dimension to slice along (2 = height, 3 = width).
        dim: usize,
        /// Starting element index (the paper's `I_i`).
        start: usize,
        /// Patch length (`I_{i+1} − I_i`).
        len: usize,
    },
    /// Collapses all non-batch dimensions.
    Flatten,
    /// Fused softmax + cross-entropy loss over class logits; labels are fed
    /// at execution time. Output is a scalar loss.
    SoftmaxCrossEntropy,
}

/// When a node's output shares its input's storage instead of owning a
/// buffer (§4.2 optimization 1); [`Node::storage_alias`](crate::Node::storage_alias)
/// applies it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alias {
    /// The output always owns a buffer.
    Never,
    /// A metadata-only reshape: the output is always its input's storage.
    Always,
    /// The op can run in place on its input's storage when in-place
    /// execution is enabled and it is the input's sole consumer (the
    /// reference counter of §4.2).
    SoleConsumer,
}

/// What the memory planner, the tape and the cost model know about an op
/// — the one place each fact is written ([`Op::desc`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpDesc {
    /// Short human-readable kind name (timelines, tables, debug output).
    pub name: &'static str,
    /// Whether backward re-reads the op's *input* activations. This is
    /// what makes an input "generated data" in the paper's Figure 1 sense:
    /// it must stay alive (or be offloaded) until the backward pass.
    pub backward_reads_input: bool,
    /// Whether backward re-reads the op's *output* activations.
    pub backward_reads_output: bool,
    /// Whether the output may share its input's storage.
    pub alias: Alias,
    /// Bytes kept for backward besides input/output activations (masks,
    /// saved statistics, softmax probabilities), per output element …
    pub aux_bytes_per_elem: usize,
    /// … and independent of the output size.
    pub aux_bytes_fixed: usize,
    /// Backward kernel time over forward kernel time; `0` for an op with
    /// no backward kernel.
    pub backward_factor: f64,
}

impl Op {
    /// The op's facts. The values are frozen: the HMMS plans the repo's
    /// byte pins hold are made from them, so changing one moves a pin.
    pub fn desc(&self) -> OpDesc {
        use Alias::{Always, Never, SoleConsumer};
        const F32: usize = 4;
        // Per-channel batch mean and inverse std, budgeted at 64 channels.
        const BN_STATS: usize = 2 * F32 * 64;
        let row = |name, reads_input, reads_output, alias, per_elem, fixed, factor| OpDesc {
            name,
            backward_reads_input: reads_input,
            backward_reads_output: reads_output,
            alias,
            aux_bytes_per_elem: per_elem,
            aux_bytes_fixed: fixed,
            backward_factor: factor,
        };
        match self {
            Op::Input { .. } => row("input", false, false, Never, 0, 0, 0.0),
            // dW = dY ⋆ X; backward runs two kernels, wgrad and dgrad.
            Op::Conv2d { .. } => row("conv2d", true, false, Never, 0, 0, 2.0),
            // cuDNN's max pooling backward reads both x and y; average
            // pooling spreads dy uniformly and reads neither.
            Op::Pool2d { kind: PoolKind::Max, .. } => {
                row("maxpool", true, true, Never, 0, 0, 1.2)
            }
            Op::Pool2d { kind: PoolKind::Avg, .. } => {
                row("avgpool", false, false, Never, 0, 0, 1.0)
            }
            Op::GlobalAvgPool => row("gavgpool", false, false, Never, 0, 0, 1.0),
            // Backward regenerates x̂ from the input and the saved
            // statistics; the recompute variant (in-place ABN) regenerates
            // it from the output instead, at extra cost.
            Op::BatchNorm { recompute: false, .. } => {
                row("batchnorm", true, false, Never, 0, BN_STATS, 1.25)
            }
            Op::BatchNorm { recompute: true, .. } => {
                row("batchnorm", false, true, Never, 0, BN_STATS, 1.6)
            }
            // Backward needs only the output's sign: computable in place.
            Op::Relu => row("relu", false, true, SoleConsumer, 0, 0, 1.0),
            // Keep mask, one byte per element (the executor stores an f32
            // scale; one byte suffices on a real device).
            Op::Dropout { .. } => row("dropout", false, false, Never, 1, 0, 1.0),
            // dW = dYᵀ·X.
            Op::Linear { .. } => row("linear", true, false, Never, 0, 0, 2.0),
            Op::Add => row("add", false, false, Never, 0, 0, 1.0),
            Op::Concat { .. } => row("concat", false, false, Never, 0, 0, 1.0),
            Op::Slice { .. } => row("slice", false, false, Never, 0, 0, 1.0),
            Op::Flatten => row("flatten", false, false, Always, 0, 0, 1.0),
            // Softmax probabilities for the whole logit matrix.
            Op::SoftmaxCrossEntropy => row("softmax_ce", false, false, Never, F32, 0, 0.5),
        }
    }

    /// Parameters this op reads (weights before biases).
    pub fn params(&self) -> Vec<ParamId> {
        match self {
            Op::Conv2d { weight, bias, .. } => {
                let mut v = vec![*weight];
                v.extend(bias.iter().copied());
                v
            }
            Op::BatchNorm { gamma, beta, .. } => vec![*gamma, *beta],
            Op::Linear { weight, bias, .. } => vec![*weight, *bias],
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_is_inplace_and_needs_output_only() {
        let d = Op::Relu.desc();
        assert_eq!(d.alias, Alias::SoleConsumer);
        assert!(!d.backward_reads_input);
        assert!(d.backward_reads_output);
    }

    #[test]
    fn recompute_bn_drops_input_requirement() {
        let bn = |recompute| Op::BatchNorm {
            gamma: ParamId(0),
            beta: ParamId(1),
            recompute,
        };
        assert!(bn(false).desc().backward_reads_input);
        assert!(!bn(true).desc().backward_reads_input);
    }

    #[test]
    fn maxpool_follows_cudnn_backward_convention() {
        let p = Op::Pool2d {
            kind: PoolKind::Max,
            kh: 2,
            kw: 2,
            sh: 2,
            sw: 2,
            pad: Padding2d::default(),
        };
        let d = p.desc();
        assert!(d.backward_reads_input && d.backward_reads_output);
        assert_eq!((d.aux_bytes_per_elem, d.aux_bytes_fixed), (0, 0));
        let a = Op::Pool2d {
            kind: PoolKind::Avg,
            kh: 2,
            kw: 2,
            sh: 2,
            sw: 2,
            pad: Padding2d::default(),
        };
        let d = a.desc();
        assert!(!d.backward_reads_input && !d.backward_reads_output);
    }
}
