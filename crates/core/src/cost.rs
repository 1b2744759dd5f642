//! Workspace-aware split selection (§4.1 step 1, extended).
//!
//! `plan_split` picks the split region from activation footprints alone,
//! but the tile-fused conv engine's scratch (`conv2d_workspace_bytes`) is a
//! first-class, measured term of the device high-water — μ-cuDNN-style
//! workspace-vs-capacity accounting. This module closes the loop: it
//! evaluates candidate `SplitConfig`s against a cost model of *live
//! activation bytes plus the executing node's workspace* and returns the
//! candidate minimizing the true planned peak.
//!
//! The cost walk covers the forward pass only and mirrors the HMMS TSO
//! aliasing rules (flatten is a reshape; a sole-consumer ReLU runs in
//! place), without modeling offload. It is a *ranking proxy* for the full
//! planner: cheap enough to run once per candidate, faithful enough that
//! the ordering matches the planner's `device_general_bytes` on the models
//! we reproduce. The full planner remains the source of truth for the
//! chosen plan's actual layout.

use scnn_graph::{Graph, MicroBatchSchedule, Node, Op};
use scnn_tensor::{
    conv2d_dw_single_block, conv2d_workspace_bytes, min_micro_batch, Conv2dGeometry, Padding2d,
};

use crate::model::ModelDesc;
use crate::transform::{lower_unsplit, plan_split, PlanSplitError, SplitConfig, SplitPlan};

/// The cropped kernel geometry, batch, and output channels of a conv node
/// — `None` for every other op. Negative padding crops the input before
/// the kernel runs, so the geometry carries the non-negative remainder,
/// exactly the split the conv kernels perform.
fn conv_node_geometry(graph: &Graph, node: &Node) -> Option<(Conv2dGeometry, usize, usize)> {
    let Op::Conv2d {
        out_c,
        kh,
        kw,
        sh,
        sw,
        pad,
        ..
    } = &node.op
    else {
        return None;
    };
    let xs = &graph.node(node.inputs[0]).out_shape;
    let h = (xs[2] as i64 + pad.h_begin.min(0) + pad.h_end.min(0)) as usize;
    let w = (xs[3] as i64 + pad.w_begin.min(0) + pad.w_end.min(0)) as usize;
    let pos = Padding2d::new(
        pad.h_begin.max(0),
        pad.h_end.max(0),
        pad.w_begin.max(0),
        pad.w_end.max(0),
    );
    let g = Conv2dGeometry::new(xs[1], h, w, *kh, *kw, *sh, *sw, pos);
    Some((g, xs[0], *out_c))
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

/// The cost model's verdict on one lowered graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SplitCost {
    /// Peak over forward steps of live activation bytes plus the executing
    /// node's workspace — the quantity split selection minimizes.
    pub peak_bytes: usize,
    /// The same walk with every workspace term zeroed: the activation
    /// footprint alone (what depth selection used to see).
    pub activation_bytes: usize,
    /// Largest single-node workspace term.
    pub max_workspace_bytes: usize,
}

/// Evaluates the forward liveness walk on `graph` with per-node workspace
/// `ws` (usually [`conv_engine_workspace`]'s output).
pub fn split_cost(graph: &Graph, ws: &[usize]) -> SplitCost {
    let nodes = graph.nodes();
    let consumers = graph.consumers();

    // Storage id per node under the runtime's aliasing rules.
    let mut storage = vec![0usize; nodes.len()];
    for node in nodes {
        storage[node.id.0] = node
            .storage_alias(&consumers, true)
            .map_or(node.id.0, |input| storage[input.0]);
    }

    // Remaining forward reads per storage; a storage is freed after its
    // last reader executes.
    let mut refs = vec![0usize; nodes.len()];
    for node in nodes {
        for &inp in &node.inputs {
            refs[storage[inp.0]] += 1;
        }
    }

    let mut live = 0usize;
    let mut allocated = vec![false; nodes.len()];
    let mut activation_peak = 0usize;
    let mut joint_peak = 0usize;
    let mut max_ws = 0usize;
    for node in nodes {
        let s = storage[node.id.0];
        if !allocated[s] {
            allocated[s] = true;
            live += nodes[s].out_bytes();
        }
        let w = ws.get(node.id.0).copied().unwrap_or(0);
        activation_peak = activation_peak.max(live);
        joint_peak = joint_peak.max(live + w);
        max_ws = max_ws.max(w);
        for &inp in &node.inputs {
            let si = storage[inp.0];
            refs[si] -= 1;
            if refs[si] == 0 {
                live -= nodes[si].out_bytes();
            }
        }
    }

    SplitCost {
        peak_bytes: joint_peak,
        activation_bytes: activation_peak,
        max_workspace_bytes: max_ws,
    }
}

/// A cost-selected split: the winning plan, the config that produced it,
/// its cost, and the unsplit cost it is measured against.
#[derive(Clone, Debug)]
pub struct AutoSplit {
    /// The winning plan, ready to lower.
    pub plan: SplitPlan,
    /// The candidate that produced it.
    pub config: SplitConfig,
    /// The winner's modeled cost at the evaluation batch size.
    pub cost: SplitCost,
    /// The unsplit model's cost at the same batch size, for reporting the
    /// modeled saving.
    pub unsplit_cost: SplitCost,
}

/// Plans the candidate in `candidates` whose lowered graph minimizes
/// [`SplitCost::peak_bytes`] at `batch` — activation bytes *plus* the conv
/// engine's real scratch, not activation footprint alone.
///
/// Candidates that fail to plan (e.g. [`PlanSplitError::TooManyPatches`]
/// at a small join extent) are skipped; ties keep the earliest candidate,
/// so selection is deterministic.
///
/// # Errors
///
/// The last planning error when *every* candidate fails, or
/// [`PlanSplitError::NothingToSplit`] on an empty candidate list.
pub fn plan_split_auto(
    desc: &ModelDesc,
    batch: usize,
    candidates: &[SplitConfig],
) -> Result<AutoSplit, PlanSplitError> {
    let unsplit = lower_unsplit(desc, batch);
    let unsplit_cost = split_cost(&unsplit, &conv_engine_workspace(&unsplit, &[]));

    let mut best: Option<AutoSplit> = None;
    let mut last_err = PlanSplitError::NothingToSplit;
    for cfg in candidates {
        let plan = match plan_split(desc, cfg) {
            Ok(p) => p,
            Err(e) => {
                last_err = e;
                continue;
            }
        };
        let graph = plan.lower(desc, batch);
        let cost = split_cost(&graph, &conv_engine_workspace(&graph, &[]));
        if best.as_ref().is_none_or(|b| cost.peak_bytes < b.cost.peak_bytes) {
            best = Some(AutoSplit {
                plan,
                config: *cfg,
                cost,
                unsplit_cost,
            });
        }
    }
    best.ok_or(last_err)
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

    fn candidates() -> Vec<SplitConfig> {
        vec![
            SplitConfig::new(0.25, 2, 2),
            SplitConfig::new(0.5, 2, 2),
            SplitConfig::new(0.5, 4, 4),
            SplitConfig::new(0.75, 2, 2),
        ]
    }

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
    fn cost_walk_respects_aliasing_and_workspace() {
        let desc = ModelDesc::tiny_cnn(10);
        let g = lower_unsplit(&desc, 2);
        let zero = split_cost(&g, &vec![0; g.len()]);
        let ws = conv_engine_workspace(&g, &[]);
        let full = split_cost(&g, &ws);
        assert_eq!(zero.peak_bytes, zero.activation_bytes);
        assert_eq!(zero.max_workspace_bytes, 0);
        assert_eq!(full.activation_bytes, zero.activation_bytes);
        assert!(full.peak_bytes >= full.activation_bytes);
        assert!(full.peak_bytes <= full.activation_bytes + full.max_workspace_bytes);
        // Sanity floor: peak at least the largest single activation.
        let biggest = g.nodes().iter().map(|n| n.out_bytes()).max().unwrap();
        assert!(full.peak_bytes >= biggest);
    }

    #[test]
    fn auto_selection_is_the_argmin_over_candidates() {
        let desc = ModelDesc::tiny_cnn(10);
        let batch = 4;
        let auto = plan_split_auto(&desc, batch, &candidates()).expect("some candidate plans");
        for cfg in candidates() {
            let Ok(plan) = plan_split(&desc, &cfg) else {
                continue;
            };
            let g = plan.lower(&desc, batch);
            let cost = split_cost(&g, &conv_engine_workspace(&g, &[]));
            assert!(
                auto.cost.peak_bytes <= cost.peak_bytes,
                "candidate {cfg:?} beats the selected {:?}",
                auto.config
            );
        }
        // Splitting must beat the unsplit cost model on this model, or the
        // selection would be pointless.
        assert!(auto.cost.peak_bytes < auto.unsplit_cost.peak_bytes);
    }

    #[test]
    fn auto_selection_skips_unplannable_candidates() {
        let desc = ModelDesc::tiny_cnn(10);
        // 1000×1000 patches cannot fit any join extent; the valid candidate
        // must still win.
        let cands = vec![SplitConfig::new(0.5, 1000, 1000), SplitConfig::new(0.5, 2, 2)];
        let auto = plan_split_auto(&desc, 2, &cands).expect("the valid candidate plans");
        assert_eq!(auto.config, SplitConfig::new(0.5, 2, 2));
        // All candidates failing reports the last error.
        let err = plan_split_auto(&desc, 2, &[SplitConfig::new(0.5, 1000, 1000)]).unwrap_err();
        assert!(matches!(err, PlanSplitError::TooManyPatches { .. }));
        let err = plan_split_auto(&desc, 2, &[]).unwrap_err();
        assert_eq!(err, PlanSplitError::NothingToSplit);
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
        let base = split_cost(&g, &base_ws);
        let micro = split_cost(&g, &micro_ws);
        assert!(micro.peak_bytes <= base.peak_bytes);
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
