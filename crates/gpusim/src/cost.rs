//! Analytical per-op cost model (the simulator's stand-in for profiling).
//!
//! Each op's execution time follows a roofline: the maximum of its
//! compute time (`FLOPs / (peak · efficiency)`) and its memory time
//! (`bytes moved / effective bandwidth`), plus a kernel-launch overhead.
//! The launch overhead is what makes many small patch kernels slightly
//! slower than one large kernel — the source of Split-CNN's small
//! throughput cost in Figure 10.

use scnn_graph::{Graph, Node, Op};
use scnn_hmms::Profile;

use crate::device::DeviceSpec;

/// Tunable model constants. The defaults are calibrated so the Figure 1
/// analysis lands where the paper's profiling did: VGG-19 fully
/// offload-able, ResNet-18 ≈ 55 %.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// The device being modeled.
    pub device: DeviceSpec,
    /// Fraction of peak FLOP/s dense convolution achieves.
    pub conv_efficiency: f64,
    /// Fraction of peak FLOP/s the fully-connected GEMM achieves.
    pub gemm_efficiency: f64,
    /// Fraction of peak memory bandwidth elementwise kernels achieve.
    pub bandwidth_efficiency: f64,
    /// cuDNN workspace cap per convolution, bytes.
    pub workspace_cap: usize,
    /// Effective speedup of the Winograd algorithm on 3×3 stride-1
    /// convolutions (§2.2.1: cuDNN trades workspace for fewer
    /// multiplies). Defaults to [`MEASURED_WINOGRAD_SPEEDUP`].
    pub winograd_speedup: f64,
}

/// Frozen calibration of the *simulated P100's* cuDNN winograd speedup
/// over its direct convolution, taken at PR 9 from the in-tree
/// F(2×2, 3×3) path on the reference shape 8×16×32×32. The algebra
/// removes 2.25× of the multiplies, but the input/inverse transforms,
/// tile gather/scatter and the transform-domain reduction claw back a
/// third of that — so the cost model charges what a real implementation
/// achieves, not what the algebra promises. It is not a claim about
/// today's CPU kernels (whose direct path has since caught up, ratio
/// ≈ 1.0–1.2) and must not track them: the value feeds `profile_graph`,
/// hence the HMMS plan whose byte counts the repo benchmark pins exactly.
pub const MEASURED_WINOGRAD_SPEEDUP: f64 = 1.5;

impl CostModel {
    /// Default calibration for a device.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel {
            device,
            conv_efficiency: 0.75,
            gemm_efficiency: 0.35,
            bandwidth_efficiency: 0.80,
            workspace_cap: 256 << 20,
            winograd_speedup: MEASURED_WINOGRAD_SPEEDUP,
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::new(DeviceSpec::default())
    }
}

/// Forward FLOPs of a node (multiply-add counted as two operations).
pub fn node_flops(graph: &Graph, node: &Node) -> f64 {
    let out = node.out_elems() as f64;
    match &node.op {
        Op::Input { .. } => 0.0,
        Op::Conv2d { kh, kw, .. } => {
            let in_c = graph.node(node.inputs[0]).out_shape[1] as f64;
            2.0 * out * in_c * (*kh as f64) * (*kw as f64)
        }
        Op::Linear { out: o, .. } => {
            let n = node.out_shape[0] as f64;
            let in_f = graph.node(node.inputs[0]).out_shape[1] as f64;
            2.0 * n * in_f * (*o as f64)
        }
        Op::Pool2d { kh, kw, .. } => out * (*kh as f64) * (*kw as f64),
        Op::GlobalAvgPool => graph.node(node.inputs[0]).out_elems() as f64,
        Op::BatchNorm { .. } => 8.0 * out,
        Op::Relu => out,
        Op::Dropout { .. } => 2.0 * out,
        Op::Add => out * node.inputs.len() as f64,
        Op::Concat { .. } | Op::Slice { .. } | Op::Flatten => 0.0,
        Op::SoftmaxCrossEntropy => 5.0 * graph.node(node.inputs[0]).out_elems() as f64,
    }
}

/// Bytes a node's forward kernel moves (inputs + output + parameters).
pub fn node_bytes(graph: &Graph, node: &Node) -> f64 {
    if matches!(node.op, Op::Input { .. }) {
        return 0.0;
    }
    let inputs: usize = node
        .inputs
        .iter()
        .map(|&i| graph.node(i).out_bytes())
        .sum();
    let params: usize = node
        .op
        .params()
        .iter()
        .map(|&p| graph.param(p).len() * 4)
        .sum();
    (inputs + node.out_bytes() + params) as f64
}

/// cuDNN-style workspace: the implicit-GEMM patch matrix, capped.
fn workspace_bytes(graph: &Graph, node: &Node, cap: usize) -> usize {
    if let Op::Conv2d { kh, kw, .. } = &node.op {
        let in_c = graph.node(node.inputs[0]).out_shape[1];
        let spatial: usize = node.out_shape[2] * node.out_shape[3];
        let n = node.out_shape[0];
        let im2col = n * spatial * in_c * kh * kw * 4;
        im2col.min(cap)
    } else {
        0
    }
}

/// Synthesizes the per-op [`Profile`] HMMS consumes (§4.3's profiling
/// stage) from the cost model.
pub fn profile_graph(graph: &Graph, model: &CostModel) -> Profile {
    let d = &model.device;
    let mut fwd_time = Vec::with_capacity(graph.len());
    let mut bwd_time = Vec::with_capacity(graph.len());
    let mut ws = Vec::with_capacity(graph.len());
    for node in graph.nodes() {
        let flops = node_flops(graph, node);
        let bytes = node_bytes(graph, node);
        let eff = match node.op {
            Op::Conv2d { .. } => model.conv_efficiency,
            Op::Linear { .. } => model.gemm_efficiency,
            _ => 1.0,
        };
        let mut compute = flops / (d.peak_flops * eff);
        if let Op::Conv2d { kh: 3, kw: 3, sh: 1, sw: 1, .. } = node.op {
            compute /= model.winograd_speedup;
        }
        let memory = bytes / (d.mem_bandwidth * model.bandwidth_efficiency);
        let t = if matches!(node.op, Op::Input { .. }) {
            0.0
        } else {
            d.launch_overhead + compute.max(memory)
        };
        let bf = node.op.desc().backward_factor;
        let bt = if bf == 0.0 {
            0.0
        } else {
            // Backward convolutions/linears launch an extra kernel.
            let extra_launch = if bf >= 2.0 { d.launch_overhead } else { 0.0 };
            (t - d.launch_overhead).max(0.0) * bf + d.launch_overhead + extra_launch
        };
        fwd_time.push(t);
        bwd_time.push(bt);
        ws.push(workspace_bytes(graph, node, model.workspace_cap));
    }
    Profile {
        fwd_time,
        bwd_time,
        workspace_bytes: ws,
        link_bandwidth: d.link_bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_graph::PoolKind;
    use scnn_tensor::Padding2d;

    fn small_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[8, 3, 32, 32]);
        let c = g.conv2d(x, 16, 3, 1, Padding2d::symmetric(1), false, "c");
        let b = g.batch_norm(c, false, "bn");
        let r = g.relu(b, "r");
        let p = g.pool2d(r, PoolKind::Max, 2, 2, Padding2d::default(), "p");
        let f = g.flatten(p, "f");
        let l = g.linear(f, 10, "fc");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    #[test]
    fn conv_flops_formula() {
        let g = small_graph();
        let conv = &g.nodes()[1];
        // 2 * (8*16*32*32) * 3 * 3 * 3
        assert_eq!(node_flops(&g, conv), 2.0 * (8 * 16 * 32 * 32) as f64 * 27.0);
    }

    #[test]
    fn profile_has_positive_times_and_workspace() {
        let g = small_graph();
        let p = profile_graph(&g, &CostModel::default());
        p.validate(&g);
        assert_eq!(p.fwd_time[0], 0.0, "input costs nothing");
        for i in 1..g.len() {
            assert!(p.fwd_time[i] > 0.0, "node {i} has zero fwd time");
            assert!(p.bwd_time[i] > 0.0, "node {i} has zero bwd time");
        }
        assert!(p.workspace_bytes[1] > 0, "conv has workspace");
        assert_eq!(p.workspace_bytes[2], 0, "bn has no workspace");
    }

    #[test]
    fn conv_backward_costs_about_twice_forward() {
        let g = small_graph();
        let p = profile_graph(&g, &CostModel::default());
        let ratio = p.bwd_time[1] / p.fwd_time[1];
        assert!((1.8..=2.3).contains(&ratio), "conv bwd/fwd ratio {ratio}");
    }

    #[test]
    fn workspace_is_capped() {
        let mut g = Graph::new();
        let x = g.input(&[64, 3, 224, 224]);
        let c = g.conv2d(x, 64, 3, 1, Padding2d::symmetric(1), false, "c1");
        g.relu(c, "r");
        let model = CostModel::default();
        let p = profile_graph(&g, &model);
        assert_eq!(p.workspace_bytes[1], model.workspace_cap);
    }

    #[test]
    fn larger_batch_takes_longer() {
        // Large enough images that compute dominates launch overhead.
        let mk = |b: usize| {
            let mut g = Graph::new();
            let x = g.input(&[b, 3, 128, 128]);
            let c = g.conv2d(x, 16, 3, 1, Padding2d::symmetric(1), false, "c");
            g.relu(c, "r");
            g
        };
        let m = CostModel::default();
        let t8: f64 = profile_graph(&mk(8), &m).total_fwd();
        let t64: f64 = profile_graph(&mk(64), &m).total_fwd();
        assert!(t64 > 4.0 * t8, "batch scaling broken: {t8} vs {t64}");
    }
}
