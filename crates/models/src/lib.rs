//! Model zoo: the four architectures the paper evaluates (AlexNet, VGG-19,
//! ResNet-18, ResNet-50) as [`scnn_core::ModelDesc`]s.
//!
//! Each builder supports:
//!
//! - **dataset variants** — CIFAR (32×32 input, compact classifier) and
//!   ImageNet (224×224, the original classifier heads);
//! - **width scaling** — multiply every channel count by `width_scale`,
//!   used by the CPU-proxy training runs (the architecture topology and
//!   every split point are preserved, only capacity shrinks);
//! - **memory-efficient batch norm** — `bn_recompute` marks every BN with
//!   the in-place-ABN recompute flag \[6\], the trick §6.3 uses to raise
//!   ResNet-18's offload-able fraction from ≈55 % to ≈70 %.

mod alexnet;
mod resnet;
mod vgg;

pub use alexnet::alexnet;
pub use resnet::{resnet18, resnet50};
pub use vgg::{vgg19, vgg19_bn};

/// Configuration shared by all model builders.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModelOptions {
    /// Number of output classes.
    pub classes: usize,
    /// Channel-width multiplier (1.0 = the paper's architecture).
    pub width_scale: f64,
    /// Input resolution (square), e.g. 32 for CIFAR, 224 for ImageNet.
    pub input_hw: usize,
    /// Use the memory-efficient recompute variant for every batch norm.
    pub bn_recompute: bool,
}

impl ModelOptions {
    /// CIFAR-10 defaults: 10 classes, 32×32.
    pub fn cifar() -> Self {
        ModelOptions {
            classes: 10,
            width_scale: 1.0,
            input_hw: 32,
            bn_recompute: false,
        }
    }

    /// ImageNet defaults: 1000 classes, 224×224.
    pub fn imagenet() -> Self {
        ModelOptions {
            classes: 1000,
            width_scale: 1.0,
            input_hw: 224,
            bn_recompute: false,
        }
    }

    /// Returns a copy with the given width multiplier.
    pub fn with_width(mut self, scale: f64) -> Self {
        self.width_scale = scale;
        self
    }

    /// Returns a copy with the given input resolution.
    pub fn with_input(mut self, hw: usize) -> Self {
        self.input_hw = hw;
        self
    }

    /// Returns a copy with the given class count.
    pub fn with_classes(mut self, classes: usize) -> Self {
        self.classes = classes;
        self
    }

    /// Returns a copy using memory-efficient batch norm.
    pub fn with_bn_recompute(mut self) -> Self {
        self.bn_recompute = true;
        self
    }

    /// Scales a channel count, clamping to at least 4.
    pub(crate) fn ch(&self, c: usize) -> usize {
        ((c as f64 * self.width_scale).round() as usize).max(4)
    }
}

/// Each block's output shape in the batch-1 unsplit lowering of `desc`:
/// the node named after the block (`b{i}`, or `b{i}add` / `b{i}prelu` for
/// a residual block), last one wins.
#[cfg(test)]
fn block_out(desc: &scnn_core::ModelDesc) -> Vec<Vec<usize>> {
    let g = scnn_core::lower_unsplit(desc, 1);
    (0..desc.blocks.len())
        .map(|bi| {
            let names = [format!("b{bi}"), format!("b{bi}add"), format!("b{bi}prelu")];
            let node = g.nodes().iter().rev().find(|n| names.contains(&n.name));
            node.expect("every block lowers").out_shape.clone()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_core::{lower_unsplit, plan_split, SplitConfig};

    fn param_count(desc: &scnn_core::ModelDesc) -> usize {
        lower_unsplit(desc, 1).param_elems()
    }

    #[test]
    fn vgg19_imagenet_parameter_count() {
        // Reference: 143.67 M parameters.
        let n = param_count(&vgg19(&ModelOptions::imagenet()));
        assert!(
            (140_000_000..148_000_000).contains(&n),
            "vgg19 params {n}"
        );
    }

    #[test]
    fn resnet18_imagenet_parameter_count() {
        // Reference: 11.69 M.
        let n = param_count(&resnet18(&ModelOptions::imagenet()));
        assert!((11_000_000..12_500_000).contains(&n), "resnet18 params {n}");
    }

    #[test]
    fn resnet50_imagenet_parameter_count() {
        // Reference: 25.56 M.
        let n = param_count(&resnet50(&ModelOptions::imagenet()));
        assert!((24_500_000..27_000_000).contains(&n), "resnet50 params {n}");
    }

    #[test]
    fn alexnet_imagenet_parameter_count() {
        // Reference: 61.1 M.
        let n = param_count(&alexnet(&ModelOptions::imagenet()));
        assert!((58_000_000..64_000_000).contains(&n), "alexnet params {n}");
    }

    #[test]
    fn conv_counts_match_architectures() {
        assert_eq!(vgg19(&ModelOptions::cifar()).conv_count(), 16);
        assert_eq!(alexnet(&ModelOptions::imagenet()).conv_count(), 5);
        assert_eq!(resnet18(&ModelOptions::cifar()).conv_count(), 20); // 1 + 16 + 3 downsample
        assert_eq!(resnet50(&ModelOptions::imagenet()).conv_count(), 53); // 1 + 48 + 4 downsample
    }

    #[test]
    fn lowered_graphs_end_at_classes() {
        for (desc, classes) in [
            (vgg19(&ModelOptions::cifar()), 10),
            (resnet18(&ModelOptions::cifar()), 10),
            (resnet50(&ModelOptions::imagenet()), 1000),
            (alexnet(&ModelOptions::imagenet()), 1000),
        ] {
            let last = block_out(&desc).pop().unwrap();
            assert_eq!(last, [1, classes], "{}", desc.name);
        }
    }

    #[test]
    fn width_scaling_shrinks_parameters() {
        let full = param_count(&vgg19(&ModelOptions::cifar()));
        let quarter = param_count(&vgg19(&ModelOptions::cifar().with_width(0.25)));
        assert!(quarter < full / 8, "quarter width {quarter} vs full {full}");
    }

    #[test]
    fn paper_split_configs_plan_successfully() {
        // The Table 1 configurations.
        let cases: Vec<(scnn_core::ModelDesc, f64)> = vec![
            (alexnet(&ModelOptions::imagenet()), 0.60),
            (resnet50(&ModelOptions::imagenet()), 0.812),
            (vgg19(&ModelOptions::cifar()), 0.50),
            (resnet18(&ModelOptions::cifar()), 0.50),
        ];
        for (desc, depth) in cases {
            let plan = plan_split(&desc, &SplitConfig::new(depth, 2, 2))
                .unwrap_or_else(|e| panic!("{}: {e}", desc.name));
            assert!(
                (plan.actual_depth() - depth).abs() < 0.15,
                "{}: wanted {depth}, got {}",
                desc.name,
                plan.actual_depth()
            );
            // Lowering succeeds and shapes check out (lower panics if not).
            let g = plan.lower(&desc, 2);
            assert!(g.len() > desc.blocks.len());
        }
    }

    #[test]
    fn bn_recompute_flag_propagates() {
        let desc = resnet18(&ModelOptions::cifar().with_bn_recompute());
        let g = lower_unsplit(&desc, 1);
        let mut bn_nodes = 0;
        for n in g.nodes() {
            if let scnn_graph::Op::BatchNorm { recompute, .. } = n.op {
                assert!(recompute);
                bn_nodes += 1;
            }
        }
        assert!(bn_nodes > 10);
    }

    #[test]
    fn alexnet_works_at_reduced_resolution() {
        let desc = alexnet(&ModelOptions::imagenet().with_input(64).with_classes(100));
        assert_eq!(block_out(&desc).pop().unwrap(), [1, 100]);
    }
}
