//! VGG-19 (configuration E of Simonyan & Zisserman).

use scnn_core::{Block, LayerDesc, ModelDesc};
use scnn_graph::PoolKind;

use crate::ModelOptions;

/// The conv sections of configuration E: channel count per conv, `0`
/// marking a max-pool.
const VGG19_CFG: &[usize] = &[
    64, 64, 0, 128, 128, 0, 256, 256, 256, 256, 0, 512, 512, 512, 512, 0, 512, 512, 512, 512, 0,
];

/// Builds VGG-19.
///
/// The ImageNet variant (input ≥ 64) uses the original 4096-wide two-layer
/// classifier with dropout; the CIFAR variant uses a single linear layer,
/// the common adaptation for 32×32 inputs.
pub fn vgg19(opts: &ModelOptions) -> ModelDesc {
    vgg19_impl(opts, false)
}

/// VGG-19 with batch normalization after every convolution (torchvision's
/// `vgg19_bn`). The width-scaled CPU proxies use this variant: the plain
/// network is notoriously unstable to train from scratch at small widths,
/// while the split structure and every window geometry are identical.
pub fn vgg19_bn(opts: &ModelOptions) -> ModelDesc {
    vgg19_impl(opts, true)
}

fn vgg19_impl(opts: &ModelOptions, batch_norm: bool) -> ModelDesc {
    use Block::Plain;
    use LayerDesc::*;

    let mut blocks = Vec::new();
    for &c in VGG19_CFG {
        if c == 0 {
            blocks.push(Plain(Pool {
                kind: PoolKind::Max,
                k: 2,
                s: 2,
                p: 0,
            }));
        } else {
            blocks.push(Plain(Conv {
                out_c: opts.ch(c),
                k: 3,
                s: 1,
                p: 1,
                bias: !batch_norm,
            }));
            if batch_norm {
                blocks.push(Plain(BatchNorm {
                    recompute: opts.bn_recompute,
                }));
            }
            blocks.push(Plain(Relu));
        }
    }

    blocks.push(Plain(Flatten));
    if opts.input_hw >= 64 {
        let hidden = opts.ch(4096);
        blocks.push(Plain(Dropout(0.5)));
        blocks.push(Plain(Linear(hidden)));
        blocks.push(Plain(Relu));
        blocks.push(Plain(Dropout(0.5)));
        blocks.push(Plain(Linear(hidden)));
        blocks.push(Plain(Relu));
        blocks.push(Plain(Linear(opts.classes)));
    } else {
        blocks.push(Plain(Linear(opts.classes)));
    }

    ModelDesc {
        name: format!("vgg19-{}px", opts.input_hw),
        in_shape: [3, opts.input_hw, opts.input_hw],
        classes: opts.classes,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_out;

    #[test]
    fn imagenet_trace_reaches_7x7() {
        let d = vgg19(&ModelOptions::imagenet());
        // Find the last pool output (the 512×7×7 feature map).
        // Before Flatten + classifier (8 blocks).
        let pre_flatten = &block_out(&d)[d.blocks.len() - 9];
        assert_eq!(pre_flatten, &[1, 512, 7, 7]);
    }

    #[test]
    fn cifar_trace_reaches_1x1() {
        let d = vgg19(&ModelOptions::cifar());
        let pre_flatten = &block_out(&d)[d.blocks.len() - 3];
        assert_eq!(pre_flatten, &[1, 512, 1, 1]);
    }

    #[test]
    fn sixteen_convs_five_pools() {
        let d = vgg19(&ModelOptions::cifar());
        assert_eq!(d.conv_count(), 16);
        let pools = d
            .blocks
            .iter()
            .filter(|b| matches!(b, Block::Plain(LayerDesc::Pool { .. })))
            .count();
        assert_eq!(pools, 5);
    }
}
