//! Structural model descriptions.
//!
//! A [`ModelDesc`] is the representation the Split-CNN transform rewrites:
//! an ordered list of [`Block`]s (plain layers or residual blocks) ending in
//! a classifier head. Both the plain lowering ([`crate::lower_unsplit`])
//! and the split lowering ([`crate::SplitPlan::lower`]) walk the same
//! description in the same order and therefore produce *identical
//! parameter tables* — the invariant that lets stochastic Split-CNN train
//! with a different graph every mini-batch while updating one weight set.

use scnn_graph::PoolKind;

use crate::scheme::Window1d;

/// One layer of a model description.
#[derive(Clone, Debug, PartialEq)]
pub enum LayerDesc {
    /// Square convolution.
    Conv {
        /// Output channels.
        out_c: usize,
        /// Kernel size.
        k: usize,
        /// Stride.
        s: usize,
        /// Symmetric padding.
        p: usize,
        /// Whether a bias parameter exists.
        bias: bool,
    },
    /// Square pooling.
    Pool {
        /// Max or average.
        kind: PoolKind,
        /// Kernel size.
        k: usize,
        /// Stride.
        s: usize,
        /// Symmetric padding.
        p: usize,
    },
    /// Batch normalization; `recompute` selects the memory-efficient
    /// in-place-ABN variant of §6.3.
    BatchNorm {
        /// Recompute normalized input in backward instead of saving it.
        recompute: bool,
    },
    /// ReLU activation.
    Relu,
    /// Dropout with the given drop probability.
    Dropout(f32),
    /// Global average pooling (ends the spatial part of the network).
    GlobalAvgPool,
    /// Flatten to `[n, features]`.
    Flatten,
    /// Fully-connected layer with the given output features.
    Linear(usize),
}

impl LayerDesc {
    /// Whether the layer preserves spatial structure and may live inside a
    /// split region.
    pub fn is_splittable(&self) -> bool {
        matches!(
            self,
            LayerDesc::Conv { .. }
                | LayerDesc::Pool { .. }
                | LayerDesc::BatchNorm { .. }
                | LayerDesc::Relu
                | LayerDesc::Dropout(_)
        )
    }

    /// The layer's 1-D window footprint, if it is window-based.
    pub fn window(&self) -> Option<Window1d> {
        match self {
            LayerDesc::Conv { k, s, p, .. } | LayerDesc::Pool { k, s, p, .. } => {
                Some(Window1d::symmetric(*k, *s, *p))
            }
            _ => None,
        }
    }
}

/// A block: either one plain layer or a residual block
/// (`y = relu?(main(x) + shortcut(x))`).
#[derive(Clone, Debug, PartialEq)]
pub enum Block {
    /// A single layer.
    Plain(LayerDesc),
    /// A residual block.
    Residual {
        /// The main path.
        main: Vec<LayerDesc>,
        /// The shortcut path; empty means identity.
        downsample: Vec<LayerDesc>,
        /// Apply ReLU after the addition (true for all ResNet blocks).
        post_relu: bool,
    },
}

impl Block {
    /// Number of convolution layers inside the block.
    pub fn conv_count(&self) -> usize {
        let count = |ls: &[LayerDesc]| ls.iter().filter(|l| matches!(l, LayerDesc::Conv { .. })).count();
        match self {
            Block::Plain(LayerDesc::Conv { .. }) => 1,
            Block::Plain(_) => 0,
            Block::Residual { main, downsample, .. } => count(main) + count(downsample),
        }
    }

    /// Whether every layer of the block may live inside a split region.
    pub fn is_splittable(&self) -> bool {
        match self {
            Block::Plain(l) => l.is_splittable(),
            Block::Residual { main, downsample, .. } => {
                main.iter().all(LayerDesc::is_splittable)
                    && downsample.iter().all(LayerDesc::is_splittable)
            }
        }
    }
}

/// A complete model: input shape, blocks, and class count. The lowering
/// appends the softmax cross-entropy loss automatically.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelDesc {
    /// Model name (for reports).
    pub name: String,
    /// Per-sample input shape `[channels, height, width]`.
    pub in_shape: [usize; 3],
    /// Number of classes.
    pub classes: usize,
    /// The network body and head.
    pub blocks: Vec<Block>,
}

impl ModelDesc {
    /// Total convolution count — the denominator of "splitting depth".
    pub fn conv_count(&self) -> usize {
        self.blocks.iter().map(Block::conv_count).sum()
    }

    /// Number of leading blocks eligible for splitting (all layers
    /// spatial-preserving).
    pub fn splittable_prefix(&self) -> usize {
        self.blocks
            .iter()
            .take_while(|b| b.is_splittable())
            .count()
    }

    /// Computes the shape trace (see [`ShapeTrace`]).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent residual branches or impossible geometry.
    pub fn shape_trace(&self) -> ShapeTrace {
        let mut layer_in = Vec::new();
        let mut layer_out = Vec::new();
        let mut block_out = Vec::new();
        let mut cur = (self.in_shape[0], self.in_shape[1], self.in_shape[2]);
        for block in &self.blocks {
            match block {
                Block::Plain(l) => {
                    layer_in.push(cur);
                    cur = layer_shape(l, cur);
                    layer_out.push(cur);
                }
                Block::Residual {
                    main, downsample, ..
                } => {
                    let entry = cur;
                    let mut m = entry;
                    for l in main {
                        layer_in.push(m);
                        m = layer_shape(l, m);
                        layer_out.push(m);
                    }
                    let mut d = entry;
                    for l in downsample {
                        layer_in.push(d);
                        d = layer_shape(l, d);
                        layer_out.push(d);
                    }
                    assert_eq!(
                        m, d,
                        "residual branches disagree in {}: {m:?} vs {d:?}",
                        self.name
                    );
                    cur = m;
                }
            }
            block_out.push(cur);
        }
        ShapeTrace {
            layer_in,
            layer_out,
            block_out,
        }
    }

    /// A small two-conv CNN used by tests, examples and doctests.
    pub fn tiny_cnn(classes: usize) -> ModelDesc {
        use Block::Plain;
        use LayerDesc::*;
        ModelDesc {
            name: "tiny-cnn".into(),
            in_shape: [3, 16, 16],
            classes,
            blocks: vec![
                Plain(Conv { out_c: 8, k: 3, s: 1, p: 1, bias: true }),
                Plain(Relu),
                Plain(Pool { kind: PoolKind::Max, k: 2, s: 2, p: 0 }),
                Plain(Conv { out_c: 16, k: 3, s: 1, p: 1, bias: true }),
                Plain(Relu),
                Plain(Pool { kind: PoolKind::Max, k: 2, s: 2, p: 0 }),
                Plain(Flatten),
                Plain(Linear(classes)),
            ],
        }
    }
}

/// Per-layer and per-block `(channels, height, width)` shapes, indexed by
/// the flat layer enumeration (block order; within a residual block, main
/// path first, then downsample).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShapeTrace {
    /// Input shape of each flat layer.
    pub layer_in: Vec<(usize, usize, usize)>,
    /// Output shape of each flat layer.
    pub layer_out: Vec<(usize, usize, usize)>,
    /// Output shape of each block.
    pub block_out: Vec<(usize, usize, usize)>,
}

fn layer_shape(l: &LayerDesc, (c, h, w): (usize, usize, usize)) -> (usize, usize, usize) {
    match l {
        LayerDesc::Conv { out_c, .. } => {
            let win = l.window().expect("conv has window");
            (*out_c, win.out_len(h), win.out_len(w))
        }
        LayerDesc::Pool { .. } => {
            let win = l.window().expect("pool has window");
            (c, win.out_len(h), win.out_len(w))
        }
        LayerDesc::BatchNorm { .. } | LayerDesc::Relu | LayerDesc::Dropout(_) => (c, h, w),
        LayerDesc::GlobalAvgPool => (c, 1, 1),
        LayerDesc::Flatten => (c * h * w, 1, 1),
        LayerDesc::Linear(out) => (*out, 1, 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_cnn_trace() {
        let d = ModelDesc::tiny_cnn(10);
        let t = d.shape_trace();
        assert_eq!(t.layer_in[0], (3, 16, 16));
        assert_eq!(t.layer_out[0], (8, 16, 16));
        // After second pool: 16 channels, 4x4.
        assert_eq!(t.block_out[5], (16, 4, 4));
        // Flatten then linear.
        assert_eq!(t.block_out[6], (256, 1, 1));
        assert_eq!(t.block_out[7], (10, 1, 1));
    }

    #[test]
    fn conv_count_and_prefix() {
        let d = ModelDesc::tiny_cnn(10);
        assert_eq!(d.conv_count(), 2);
        assert_eq!(d.splittable_prefix(), 6); // everything before Flatten
    }

    #[test]
    fn residual_block_counts_both_paths() {
        use LayerDesc::*;
        let b = Block::Residual {
            main: vec![
                Conv { out_c: 8, k: 3, s: 2, p: 1, bias: false },
                BatchNorm { recompute: false },
                Relu,
                Conv { out_c: 8, k: 3, s: 1, p: 1, bias: false },
                BatchNorm { recompute: false },
            ],
            downsample: vec![Conv { out_c: 8, k: 1, s: 2, p: 0, bias: false }],
            post_relu: true,
        };
        assert_eq!(b.conv_count(), 3);
        assert!(b.is_splittable());
    }

    #[test]
    fn residual_trace_checks_branch_agreement() {
        use LayerDesc::*;
        let d = ModelDesc {
            name: "res".into(),
            in_shape: [4, 8, 8],
            classes: 2,
            blocks: vec![
                Block::Residual {
                    main: vec![
                        Conv { out_c: 4, k: 3, s: 1, p: 1, bias: false },
                        Relu,
                        Conv { out_c: 4, k: 3, s: 1, p: 1, bias: false },
                    ],
                    downsample: vec![],
                    post_relu: true,
                },
                Block::Plain(GlobalAvgPool),
                Block::Plain(Flatten),
                Block::Plain(Linear(2)),
            ],
        };
        let t = d.shape_trace();
        assert_eq!(t.block_out[0], (4, 8, 8));
        assert_eq!(t.block_out[1], (4, 1, 1));
        assert_eq!(d.splittable_prefix(), 1);
    }
}
