//! Per-node convolution workspace, as the planner sees it.
//!
//! The tile-fused conv engine's scratch (`conv2d_workspace_bytes`) is a
//! first-class, measured term of the device high-water — μ-cuDNN-style
//! workspace-vs-capacity accounting. This module turns a lowered graph
//! into the per-node workspace vector the TSO assignment carries
//! ([`conv_engine_workspace`]), says what that vector becomes under a
//! micro-batch schedule ([`conv_micro_workspace`]), and plans the schedule
//! that minimizes it ([`plan_micro_schedule`]). Liveness — which bytes are
//! resident at which tape position — is the HMMS planner's walk alone.

use scnn_graph::{Graph, MicroBatchSchedule, Node, Op};
use scnn_tensor::{conv2d_dw_single_block, conv2d_workspace_bytes, min_micro_batch, Conv2dGeometry};

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

/// The workspace one conv node needs when run in micro-batches of `u`
/// images: the tile engine's `dw` partials scale with `⌈u·oh·ow/KC⌉`
/// blocks. Single-block layers ([`conv2d_dw_single_block`] at the
/// *logical* batch `n`) fold their weight gradient straight into the
/// output with no partials at all, so their term is zero.
///
/// `KC` here is `scnn_tensor::REDUCTION_KC` — the same constant the
/// kernels, the micro-batch alignment rule and [`conv2d_workspace_bytes`]
/// all read (pinned by
/// `workspace_model_agrees_with_kernel_reduction_block` below).
fn conv_micro_batch_workspace(g: &Conv2dGeometry, n: usize, u: usize, oc: usize) -> usize {
    if conv2d_dw_single_block(g, n) {
        0
    } else {
        conv2d_workspace_bytes(g, u, oc)
    }
}

/// Per-node workspace under a micro-batch `schedule`: conv nodes carry the
/// cost of their scheduled micro-batch (unscheduled convs: full batch);
/// other nodes keep `fallback[i]`. An empty schedule is the full-batch
/// baseline the micro planner improves on.
pub fn conv_micro_workspace(
    graph: &Graph,
    fallback: &[usize],
    schedule: &MicroBatchSchedule,
) -> Vec<usize> {
    graph
        .nodes()
        .iter()
        .enumerate()
        .map(|(i, node)| match conv_node_geometry(graph, node) {
            Some((g, n, oc)) => {
                let u = schedule.get(node.id).map_or(n, |u| u.min(n));
                conv_micro_batch_workspace(&g, n, u, oc)
            }
            None => fallback.get(i).copied().unwrap_or(0),
        })
        .collect()
}

/// Plans the micro-batch schedule minimizing per-conv workspace — the
/// third planning axis.
///
/// Every conv node has two bit-identity-preserving candidates: the full
/// batch, or its smallest aligned micro-batch ([`min_micro_batch`]). A node
/// gets a schedule entry exactly when chunking strictly shrinks its
/// workspace; ties keep the full batch.
///
/// Per-node greedy is globally optimal here, not a heuristic: workspace
/// TSOs live only during their owning step, so every step's device
/// footprint — forward or backward, under any offload plan — is monotone
/// in each node's workspace independently. Minimizing per node therefore
/// minimizes every step simultaneously; there is no cross-node trade-off
/// for a search to exploit.
pub fn plan_micro_schedule(graph: &Graph) -> MicroBatchSchedule {
    let batch = graph
        .nodes()
        .iter()
        .find_map(|n| match &n.op {
            Op::Input { shape } => Some(shape[0]),
            _ => None,
        })
        .unwrap_or(1);
    let mut schedule = MicroBatchSchedule::new(batch);

    for node in graph.nodes() {
        let Some((g, n, oc)) = conv_node_geometry(graph, node) else {
            continue;
        };
        let u_min = min_micro_batch(&g, n);
        if conv_micro_batch_workspace(&g, n, u_min, oc) < conv_micro_batch_workspace(&g, n, n, oc) {
            schedule.insert(node.id, u_min);
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelDesc;
    use crate::transform::{lower_unsplit, plan_split, SplitConfig};
    use scnn_tensor::Padding2d;

    #[test]
    fn engine_workspace_covers_convs_and_keeps_fallback() {
        let desc = ModelDesc::tiny_cnn(10);
        let g = lower_unsplit(&desc, 2);
        let fallback: Vec<usize> = (0..g.len()).map(|i| i * 100).collect();
        let ws = conv_engine_workspace(&g, &fallback);
        let mut convs = 0;
        for node in g.nodes() {
            if matches!(node.op, Op::Conv2d { .. }) {
                assert!(ws[node.id.0] > 0, "conv {} has no workspace", node.id.0);
                convs += 1;
            } else {
                assert_eq!(ws[node.id.0], fallback[node.id.0]);
            }
        }
        assert!(convs > 0);
    }

    #[test]
    fn engine_workspace_handles_negative_padding() {
        // A split plan's region convs carry negative paddings (footnote 1);
        // the workspace geometry must crop them, not panic.
        let desc = ModelDesc::tiny_cnn(10);
        let plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("tiny cnn splits");
        let g = plan.lower(&desc, 2);
        let ws = conv_engine_workspace(&g, &[]);
        assert!(g
            .nodes()
            .iter()
            .any(|n| matches!(n.op, Op::Conv2d { .. }) && ws[n.id.0] > 0));
    }

    #[test]
    fn workspace_model_agrees_with_kernel_reduction_block() {
        // The planner's conv workspace term and the micro-batch alignment
        // rule must be keyed on the same reduction block the kernels
        // execute — the one `REDUCTION_KC` constant.
        let kc = scnn_tensor::REDUCTION_KC;
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
        let (n, oc) = (8, 32);
        // Workspace = ⌈n·oh·ow / kc⌉ partial blocks of [oc, plen] floats.
        let blocks = (n * g.patch_count()).div_ceil(kc);
        assert_eq!(
            conv2d_workspace_bytes(&g, n, oc),
            blocks * oc * g.patch_len() * 4
        );
        // Alignment legality is the same modulus: a u covering whole kc
        // blocks is legal, and min_micro_batch returns exactly the
        // smallest such u.
        let u_min = min_micro_batch(&g, n);
        assert!(scnn_tensor::micro_batch_aligned(&g, u_min, n));
        assert!((u_min * g.patch_count()).is_multiple_of(kc));
        // The micro-batch model shrinks workspace by the same block math.
        assert_eq!(
            conv_micro_batch_workspace(&g, n, u_min, oc),
            (u_min * g.patch_count()).div_ceil(kc) * oc * g.patch_len() * 4
        );
    }

    #[test]
    fn micro_schedule_entries_are_aligned_and_load_bearing() {
        let desc = ModelDesc::tiny_cnn(10);
        let batch = 8;
        let g = lower_unsplit(&desc, batch);
        let schedule = plan_micro_schedule(&g);
        assert_eq!(schedule.batch, batch);
        let empty = MicroBatchSchedule::new(batch);
        let base_ws = conv_micro_workspace(&g, &[], &empty);
        let micro_ws = conv_micro_workspace(&g, &[], &schedule);
        assert!(micro_ws.iter().zip(&base_ws).all(|(m, b)| m <= b), "a schedule never grows a node");
        assert!(!schedule.is_empty(), "schedule is vacuous on tiny_cnn");
        for (id, micro_batch) in schedule.iter() {
            // Every scheduled micro-batch preserves gradient bit-identity.
            let (geom, n, _) = conv_node_geometry(&g, g.node(id)).expect("conv node");
            assert!(
                scnn_tensor::micro_batch_aligned(&geom, micro_batch, n),
                "unaligned micro-batch {micro_batch} for node {id:?}"
            );
            // And is load-bearing: the greedy planner schedules a node only
            // when chunking strictly shrinks that node's own workspace
            // (ties keep full-batch execution unscheduled).
            assert!(
                micro_ws[id.0] < base_ws[id.0],
                "schedule entry for {id:?} is vacuous: ws {} vs default {}",
                micro_ws[id.0],
                base_ws[id.0]
            );
        }
    }
}
