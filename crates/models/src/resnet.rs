//! ResNet-18 (basic blocks) and ResNet-50 (bottleneck blocks).

use scnn_core::{Block, LayerDesc, ModelDesc};
use scnn_graph::PoolKind;

use crate::ModelOptions;

fn conv(out_c: usize, k: usize, s: usize, p: usize) -> LayerDesc {
    LayerDesc::Conv {
        out_c,
        k,
        s,
        p,
        bias: false,
    }
}

fn bn(opts: &ModelOptions) -> LayerDesc {
    LayerDesc::BatchNorm {
        recompute: opts.bn_recompute,
    }
}

/// A basic residual block: 3×3 → 3×3, with a 1×1 downsample shortcut when
/// the stride or channel count changes.
fn basic_block(opts: &ModelOptions, in_c: usize, out_c: usize, stride: usize) -> Block {
    let main = vec![
        conv(out_c, 3, stride, 1),
        bn(opts),
        LayerDesc::Relu,
        conv(out_c, 3, 1, 1),
        bn(opts),
    ];
    let downsample = if stride != 1 || in_c != out_c {
        vec![conv(out_c, 1, stride, 0), bn(opts)]
    } else {
        Vec::new()
    };
    Block::Residual {
        main,
        downsample,
        post_relu: true,
    }
}

/// A bottleneck block: 1×1 reduce → 3×3 → 1×1 expand (4× width).
fn bottleneck_block(opts: &ModelOptions, in_c: usize, mid_c: usize, stride: usize) -> Block {
    let out_c = mid_c * 4;
    let main = vec![
        conv(mid_c, 1, 1, 0),
        bn(opts),
        LayerDesc::Relu,
        conv(mid_c, 3, stride, 1),
        bn(opts),
        LayerDesc::Relu,
        conv(out_c, 1, 1, 0),
        bn(opts),
    ];
    let downsample = if stride != 1 || in_c != out_c {
        vec![conv(out_c, 1, stride, 0), bn(opts)]
    } else {
        Vec::new()
    };
    Block::Residual {
        main,
        downsample,
        post_relu: true,
    }
}

fn stem(opts: &ModelOptions, width: usize, blocks: &mut Vec<Block>) {
    use Block::Plain;
    if opts.input_hw >= 64 {
        // ImageNet stem: 7×7 stride-2 conv + 3×3 stride-2 max-pool.
        blocks.push(Plain(conv(width, 7, 2, 3)));
        blocks.push(Plain(bn(opts)));
        blocks.push(Plain(LayerDesc::Relu));
        blocks.push(Plain(LayerDesc::Pool {
            kind: PoolKind::Max,
            k: 3,
            s: 2,
            p: 1,
        }));
    } else {
        // CIFAR stem: 3×3 stride-1 conv.
        blocks.push(Plain(conv(width, 3, 1, 1)));
        blocks.push(Plain(bn(opts)));
        blocks.push(Plain(LayerDesc::Relu));
    }
}

/// Builds ResNet-18: stages of [2, 2, 2, 2] basic blocks at widths
/// 64/128/256/512.
pub fn resnet18(opts: &ModelOptions) -> ModelDesc {
    use Block::Plain;
    let widths = [opts.ch(64), opts.ch(128), opts.ch(256), opts.ch(512)];
    let mut blocks = Vec::new();
    stem(opts, widths[0], &mut blocks);
    let mut in_c = widths[0];
    for (stage, &w) in widths.iter().enumerate() {
        for b in 0..2 {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            blocks.push(basic_block(opts, in_c, w, stride));
            in_c = w;
        }
    }
    blocks.push(Plain(LayerDesc::GlobalAvgPool));
    blocks.push(Plain(LayerDesc::Flatten));
    blocks.push(Plain(LayerDesc::Linear(opts.classes)));
    ModelDesc {
        name: format!("resnet18-{}px", opts.input_hw),
        in_shape: [3, opts.input_hw, opts.input_hw],
        classes: opts.classes,
        blocks,
    }
}

/// Builds ResNet-50: stages of [3, 4, 6, 3] bottleneck blocks at mid
/// widths 64/128/256/512 (output widths ×4).
pub fn resnet50(opts: &ModelOptions) -> ModelDesc {
    use Block::Plain;
    let mids = [opts.ch(64), opts.ch(128), opts.ch(256), opts.ch(512)];
    let counts = [3usize, 4, 6, 3];
    let mut blocks = Vec::new();
    stem(opts, opts.ch(64), &mut blocks);
    let mut in_c = opts.ch(64);
    for (stage, (&m, &n)) in mids.iter().zip(&counts).enumerate() {
        for b in 0..n {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            blocks.push(bottleneck_block(opts, in_c, m, stride));
            in_c = m * 4;
        }
    }
    blocks.push(Plain(LayerDesc::GlobalAvgPool));
    blocks.push(Plain(LayerDesc::Flatten));
    blocks.push(Plain(LayerDesc::Linear(opts.classes)));
    ModelDesc {
        name: format!("resnet50-{}px", opts.input_hw),
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
    fn resnet18_cifar_stage_shapes() {
        let out = block_out(&resnet18(&ModelOptions::cifar()));
        // Stem (3 blocks) + 2 blocks per stage; find end of each stage.
        assert_eq!(out[2], [1, 64, 32, 32]); // stem
        assert_eq!(out[4], [1, 64, 32, 32]); // stage 1
        assert_eq!(out[6], [1, 128, 16, 16]); // stage 2
        assert_eq!(out[8], [1, 256, 8, 8]); // stage 3
        assert_eq!(out[10], [1, 512, 4, 4]); // stage 4
    }

    #[test]
    fn resnet50_imagenet_final_features() {
        let d = resnet50(&ModelOptions::imagenet());
        let pre_gap = &block_out(&d)[d.blocks.len() - 4];
        assert_eq!(pre_gap, &[1, 2048, 7, 7]);
    }

    #[test]
    fn downsample_only_on_stage_transitions() {
        let d = resnet18(&ModelOptions::cifar());
        let downs = d
            .blocks
            .iter()
            .filter(|b| matches!(b, Block::Residual { downsample, .. } if !downsample.is_empty()))
            .count();
        assert_eq!(downs, 3);
    }

    #[test]
    fn imagenet_stem_downsamples_4x() {
        let out = block_out(&resnet18(&ModelOptions::imagenet()));
        assert_eq!(out[3], [1, 64, 56, 56]); // after stem pool
    }
}
