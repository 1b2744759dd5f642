//! The split transform over every model builder: a split graph keeps the
//! unsplit graph's parameter table and pre-loss shape, and every window
//! layer of the split region is cut into patches whose outputs tile the
//! unsplit layer's output exactly.

use scnn_core::{
    lower_unsplit, plan_split, plan_split_stochastic, ModelDesc, PlanSplitError, SplitConfig,
    SplitPlan,
};
use scnn_graph::{Graph, Op};
use scnn_models::{alexnet, resnet18, resnet50, vgg19, vgg19_bn, ModelOptions};
use scnn_rng::SplitRng;

fn builders() -> Vec<ModelDesc> {
    let (cifar, imagenet) = (ModelOptions::cifar(), ModelOptions::imagenet());
    vec![
        alexnet(&imagenet),
        vgg19(&cifar),
        vgg19(&imagenet),
        vgg19_bn(&cifar),
        resnet18(&cifar),
        resnet18(&imagenet),
        resnet50(&cifar),
        resnet50(&imagenet),
    ]
}

/// The three properties, for one plan of `desc`.
fn check_plan(desc: &ModelDesc, plan: &SplitPlan, unsplit: &Graph, what: &str) {
    let split = plan.lower(desc, 1);
    assert_eq!(split.params(), unsplit.params(), "{what}: parameter table");
    assert_eq!(
        split.nodes()[split.len() - 2].out_shape,
        unsplit.nodes()[unsplit.len() - 2].out_shape,
        "{what}: pre-loss shape"
    );

    let mut split_convs = 0;
    for node in unsplit.nodes() {
        if !matches!(node.op, Op::Conv2d { .. } | Op::Pool2d { .. }) {
            continue;
        }
        // Patch (i, j) of this layer is named `<layer>/p<i>x<j>`.
        let patch = |i: usize, j: usize| {
            let name = format!("{}/p{i}x{j}", node.name);
            split
                .nodes()
                .iter()
                .find(|n| n.name == name)
                .map(|n| &n.out_shape)
        };
        if patch(0, 0).is_none() {
            continue; // past the join
        }
        split_convs += usize::from(matches!(node.op, Op::Conv2d { .. }));
        let (n_h, n_w) = (plan.n_h, plan.n_w);
        let shape = |i, j| {
            patch(i, j).unwrap_or_else(|| panic!("{what}: {} lacks patch {i}x{j}", node.name))
        };
        let want = &node.out_shape;
        for i in 0..n_h {
            for j in 0..n_w {
                let s = shape(i, j);
                assert_eq!(
                    s[..2],
                    want[..2],
                    "{what}: {} patch {i}x{j} batch/channels",
                    node.name
                );
                assert_eq!(
                    s[2],
                    shape(i, 0)[2],
                    "{what}: {} row {i} heights differ",
                    node.name
                );
                assert_eq!(
                    s[3],
                    shape(0, j)[3],
                    "{what}: {} column {j} widths differ",
                    node.name
                );
            }
        }
        let rows: usize = (0..n_h).map(|i| shape(i, 0)[2]).sum();
        let cols: usize = (0..n_w).map(|j| shape(0, j)[3]).sum();
        assert_eq!(
            (rows, cols),
            (want[2], want[3]),
            "{what}: {} patches do not tile",
            node.name
        );
    }
    assert_eq!(split_convs, plan.split_convs, "{what}: region convs");
}

#[test]
fn every_builder_splits_onto_the_unsplit_graph() {
    let mut rng = SplitRng::seed_from_u64(30);
    for desc in builders() {
        let unsplit = lower_unsplit(&desc, 1);
        let mut planned = 0;
        for depth in [0.25, 0.5, 1.0] {
            for (n_h, n_w) in [(2, 2), (2, 1)] {
                let cfg = SplitConfig::new(depth, n_h, n_w);
                let what = format!("{} depth {depth} grid {n_h}x{n_w}", desc.name);
                let plan = match plan_split(&desc, &cfg) {
                    Ok(plan) => plan,
                    // A join map smaller than the grid (VGG at full depth).
                    Err(PlanSplitError::TooManyPatches { .. }) => continue,
                    Err(e) => panic!("{what}: {e}"),
                };
                check_plan(&desc, &plan, &unsplit, &what);
                let plan = plan_split_stochastic(&desc, &cfg, 0.2, &mut rng)
                    .unwrap_or_else(|e| panic!("{what} stochastic: {e}"));
                check_plan(&desc, &plan, &unsplit, &format!("{what} stochastic"));
                planned += 1;
            }
        }
        assert!(
            planned >= 4,
            "{}: only {planned} of 6 configurations planned",
            desc.name
        );
    }
}

/// No gradient flows into a split ResNet's input: the image and every
/// slice of it depend on no parameter, so the executor computes no `dx`
/// for the convs that read them (and those slices are never scattered
/// back), while every conv, BN and linear output does carry one.
#[test]
fn split_resnet_input_and_its_slices_carry_no_gradient() {
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
    let split = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("resnet-18 splits");
    let g = split.lower(&desc, 2);
    let carries = g.depends_on_params();
    let mut stems = 0;
    for node in g.nodes() {
        match node.op {
            Op::Input { .. } | Op::Slice { .. } if node.inputs.iter().all(|i| !carries[i.0]) => {
                assert!(!carries[node.id.0], "{:?} carries a gradient", node.op);
            }
            Op::Conv2d { .. } | Op::BatchNorm { .. } | Op::Linear { .. } => {
                assert!(carries[node.id.0], "{:?} carries no gradient", node.op);
                stems += usize::from(matches!(node.op, Op::Conv2d { .. }) && !carries[node.inputs[0].0]);
            }
            _ => {}
        }
    }
    // One stem conv per patch of the 2 x 2 grid reads a slice of the image.
    assert_eq!(stems, 4, "convs over a gradient-free input");
}
