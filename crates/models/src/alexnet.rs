//! AlexNet (the torchvision single-tower variant).

use scnn_core::{Block, LayerDesc, ModelDesc};
use scnn_graph::PoolKind;

use crate::ModelOptions;

/// Builds AlexNet. Requires `input_hw ≥ 64` (the 11×11/stride-4 stem does
/// not fit smaller inputs).
///
/// # Panics
///
/// Panics if `opts.input_hw < 64`.
pub fn alexnet(opts: &ModelOptions) -> ModelDesc {
    use Block::Plain;
    use LayerDesc::*;
    assert!(
        opts.input_hw >= 64,
        "alexnet needs input >= 64px, got {}",
        opts.input_hw
    );

    let conv = |out_c: usize, k: usize, s: usize, p: usize| {
        Plain(Conv {
            out_c,
            k,
            s,
            p,
            bias: true,
        })
    };
    let pool = || {
        Plain(Pool {
            kind: PoolKind::Max,
            k: 3,
            s: 2,
            p: 0,
        })
    };

    let hidden = opts.ch(4096);
    let blocks = vec![
        conv(opts.ch(64), 11, 4, 2),
        Plain(Relu),
        pool(),
        conv(opts.ch(192), 5, 1, 2),
        Plain(Relu),
        pool(),
        conv(opts.ch(384), 3, 1, 1),
        Plain(Relu),
        conv(opts.ch(256), 3, 1, 1),
        Plain(Relu),
        conv(opts.ch(256), 3, 1, 1),
        Plain(Relu),
        pool(),
        Plain(Flatten),
        Plain(Dropout(0.5)),
        Plain(Linear(hidden)),
        Plain(Relu),
        Plain(Dropout(0.5)),
        Plain(Linear(hidden)),
        Plain(Relu),
        Plain(Linear(opts.classes)),
    ];

    ModelDesc {
        name: format!("alexnet-{}px", opts.input_hw),
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
    fn imagenet_feature_map_is_6x6() {
        let d = alexnet(&ModelOptions::imagenet());
        // Last pool output before the classifier (8 classifier blocks).
        let pre = &block_out(&d)[d.blocks.len() - 9];
        assert_eq!(pre, &[1, 256, 6, 6]);
    }

    #[test]
    fn five_convs() {
        assert_eq!(alexnet(&ModelOptions::imagenet()).conv_count(), 5);
    }

    #[test]
    #[should_panic(expected = "64px")]
    fn small_input_rejected() {
        alexnet(&ModelOptions::cifar());
    }
}
