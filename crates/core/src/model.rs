//! Structural model descriptions.
//!
//! A [`ModelDesc`] is the representation the Split-CNN transform rewrites:
//! an ordered list of [`Block`]s (plain layers or residual blocks) ending in
//! a classifier head. Both the plain lowering ([`crate::lower_unsplit`])
//! and the split lowering ([`crate::SplitPlan::lower`]) walk the same
//! description in the same order and therefore produce *identical
//! parameter tables* — the invariant that lets stochastic Split-CNN train
//! with a different graph every mini-batch while updating one weight set.
//! A description has no shape rule of its own: every extent, the split
//! planner's included, is read off the graph it lowers to.

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

#[cfg(test)]
mod tests {
    use super::*;

    /// The output shape of the lowered node named `name`.
    fn shape(g: &scnn_graph::Graph, name: &str) -> Vec<usize> {
        g.nodes()
            .iter()
            .find(|n| n.name == name)
            .expect(name)
            .out_shape
            .clone()
    }

    #[test]
    fn tiny_cnn_shapes() {
        let g = crate::lower_unsplit(&ModelDesc::tiny_cnn(10), 1);
        assert_eq!(shape(&g, "input"), [1, 3, 16, 16]);
        assert_eq!(shape(&g, "b0"), [1, 8, 16, 16]);
        // After second pool: 16 channels, 4x4.
        assert_eq!(shape(&g, "b5"), [1, 16, 4, 4]);
        // Flatten then linear.
        assert_eq!(shape(&g, "b6"), [1, 256]);
        assert_eq!(shape(&g, "b7"), [1, 10]);
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

    fn residual_desc(stride: usize) -> ModelDesc {
        use LayerDesc::*;
        ModelDesc {
            name: "res".into(),
            in_shape: [4, 8, 8],
            classes: 2,
            blocks: vec![
                Block::Residual {
                    main: vec![
                        Conv { out_c: 4, k: 3, s: stride, p: 1, bias: false },
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
        }
    }

    #[test]
    fn residual_lowering_checks_branch_agreement() {
        let d = residual_desc(1);
        let g = crate::lower_unsplit(&d, 1);
        assert_eq!(shape(&g, "b0prelu"), [1, 4, 8, 8]);
        assert_eq!(shape(&g, "b1"), [1, 4, 1, 1]);
        assert_eq!(d.splittable_prefix(), 1);
    }

    #[test]
    #[should_panic(expected = "add input shape mismatch")]
    fn residual_branches_that_disagree_do_not_lower() {
        // A stride-2 main path beside an identity shortcut.
        crate::lower_unsplit(&residual_desc(2), 1);
    }
}
