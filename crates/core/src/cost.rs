//! Per-node convolution workspace, as the planner sees it.
//!
//! The tile-fused conv engine's scratch (`conv2d_workspace_bytes`) is a
//! first-class, measured term of the device high-water — μ-cuDNN-style
//! workspace-vs-capacity accounting. This module turns a lowered graph
//! into the per-node workspace vector the TSO assignment carries
//! ([`conv_engine_workspace`]). Liveness — which bytes are resident at
//! which tape position — is the HMMS planner's walk alone.

use scnn_graph::{Graph, Node, Op};
use scnn_tensor::{conv2d_workspace_bytes, Conv2dGeometry};

/// The cropped kernel geometry ([`Conv2dGeometry::cropped`], the one the
/// conv kernels run), batch, and output channels of a conv node — `None`
/// for every other op.
fn conv_node_geometry(graph: &Graph, node: &Node) -> Option<(Conv2dGeometry, usize, usize)> {
    let Op::Conv2d { out_c, kh, kw, sh, sw, pad, .. } = node.op else {
        return None;
    };
    let xs = &graph.node(node.inputs[0]).out_shape;
    let (g, _) = Conv2dGeometry::cropped(xs[1], xs[2], xs[3], kh, kw, sh, sw, pad);
    Some((g, xs[0], out_c))
}

/// Per-node planner workspace: every conv node carries the tiled engine's
/// actual scratch requirement ([`conv2d_workspace_bytes`]); every other
/// node keeps `fallback[i]` (a profiled estimate, or zero).
pub fn conv_engine_workspace(graph: &Graph, fallback: &[usize]) -> Vec<usize> {
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| match conv_node_geometry(graph, node) {
            Some((g, n, oc)) => conv2d_workspace_bytes(&g, n, oc),
            None => fallback.get(i).copied().unwrap_or(0),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelDesc;
    use crate::transform::{lower_unsplit, plan_split, SplitConfig};

    #[test]
    fn engine_workspace_covers_convs_and_keeps_fallback() {
        let desc = ModelDesc::tiny_cnn(10);
        let g = lower_unsplit(&desc, 2);
        let fallback: Vec<usize> = (0..g.len()).map(|i| i * 100).collect();
        let ws = conv_engine_workspace(&g, &fallback);
        let mut convs = 0;
        for node in g.nodes() {
            match conv_node_geometry(&g, node) {
                Some((geom, n, oc)) => {
                    assert_eq!(ws[node.id.0], conv2d_workspace_bytes(&geom, n, oc));
                    convs += 1;
                }
                None => assert_eq!(ws[node.id.0], fallback[node.id.0]),
            }
        }
        assert!(convs > 0);
    }

    #[test]
    fn engine_workspace_handles_negative_padding() {
        // A split plan's region convs carry negative paddings (footnote 1);
        // the workspace geometry must crop them, not panic. At batch 8 a
        // region conv's 8×8 patch spans two `KC` blocks: one partial.
        let desc = ModelDesc::tiny_cnn(10);
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("tiny cnn splits");
        let g = plan.lower(&desc, 8);
        let ws = conv_engine_workspace(&g, &[]);
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Op::Conv2d { .. }) && ws[n.id.0] > 0));
    }
}
