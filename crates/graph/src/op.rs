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

impl Op {
    /// Short human-readable kind name (used in timelines and debug output).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Op::Input { .. } => "input",
            Op::Conv2d { .. } => "conv2d",
            Op::Pool2d { kind: PoolKind::Max, .. } => "maxpool",
            Op::Pool2d { kind: PoolKind::Avg, .. } => "avgpool",
            Op::GlobalAvgPool => "gavgpool",
            Op::BatchNorm { .. } => "batchnorm",
            Op::Relu => "relu",
            Op::Dropout { .. } => "dropout",
            Op::Linear { .. } => "linear",
            Op::Add => "add",
            Op::Concat { .. } => "concat",
            Op::Slice { .. } => "slice",
            Op::Flatten => "flatten",
            Op::SoftmaxCrossEntropy => "softmax_ce",
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

    /// Whether the backward pass of this op re-reads its *input*
    /// activations. This is what makes an input tensor "generated data" in
    /// the paper's Figure 1 sense: it must stay alive (or be offloaded)
    /// until the backward pass.
    pub fn backward_needs_input(&self) -> bool {
        match self {
            // dW = dY ⋆ X, so convolution always re-reads its input.
            Op::Conv2d { .. } => true,
            // cuDNN's pooling backward reads both x and y for max pooling;
            // average pooling distributes dy uniformly and needs neither.
            Op::Pool2d { kind: PoolKind::Max, .. } => true,
            Op::Pool2d { kind: PoolKind::Avg, .. } => false,
            Op::GlobalAvgPool => false,
            // BatchNorm's backward regenerates x̂ from its input and the
            // saved per-channel statistics; the recompute variant
            // regenerates it from the output instead (in-place ABN).
            Op::BatchNorm { recompute, .. } => !*recompute,
            // ReLU's backward only needs the output sign — this is exactly
            // why it is computable in place (§4.2).
            Op::Relu => false,
            Op::Dropout { .. } => false, // mask is aux
            Op::Linear { .. } => true,   // dW = dYᵀ·X
            Op::Add => false,
            Op::Concat { .. } => false,
            Op::Slice { .. } => false,
            Op::Flatten => false,
            Op::Input { .. } => false,
            Op::SoftmaxCrossEntropy => false, // probs are aux
        }
    }

    /// Whether the backward pass re-reads this op's *output* activations.
    pub fn backward_needs_output(&self) -> bool {
        matches!(
            self,
            Op::Relu
                | Op::BatchNorm { recompute: true, .. }
                | Op::Pool2d { kind: PoolKind::Max, .. }
        )
    }

    /// Extra bytes the forward pass must keep alive for backward besides
    /// input/output activations (masks, saved statistics, softmax probs),
    /// given the op's output element count.
    pub fn aux_saved_bytes(&self, out_elems: usize) -> usize {
        const F32: usize = 4;
        match self {
            // Keep mask, one byte per element (stored as f32 scale in the
            // executor but one byte suffices on a real device).
            Op::Dropout { .. } => out_elems,
            // Per-channel batch mean and inverse std. Negligible but real.
            Op::BatchNorm { .. } => 2 * F32 * 64,
            // Softmax probabilities for the whole logit matrix.
            Op::SoftmaxCrossEntropy => out_elems * F32,
            _ => 0,
        }
    }

    /// Whether the op can run in place on its input's storage when no other
    /// consumer references it (§4.2 optimization 1).
    pub fn is_inplace_capable(&self) -> bool {
        matches!(self, Op::Relu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_is_inplace_and_needs_output_only() {
        assert!(Op::Relu.is_inplace_capable());
        assert!(!Op::Relu.backward_needs_input());
        assert!(Op::Relu.backward_needs_output());
    }

    #[test]
    fn recompute_bn_drops_input_requirement() {
        let bn = |recompute| Op::BatchNorm {
            gamma: ParamId(0),
            beta: ParamId(1),
            recompute,
        };
        assert!(bn(false).backward_needs_input());
        assert!(!bn(true).backward_needs_input());
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
        assert!(p.backward_needs_input());
        assert!(p.backward_needs_output());
        assert_eq!(p.aux_saved_bytes(100), 0);
        let a = Op::Pool2d {
            kind: PoolKind::Avg,
            kh: 2,
            kw: 2,
            sh: 2,
            sw: 2,
            pad: Padding2d::default(),
        };
        assert!(!a.backward_needs_input());
        assert!(!a.backward_needs_output());
    }
}
