//! Inference-only lowering: a forward-only memory plan and its export.
//!
//! Training plans cover the full serialized tape (forward + backward) and
//! keep every backward-needed activation alive — or offload it — until its
//! reverse-pass reader. A serving process never runs backward, so the
//! right plan is much smaller: one step per node, each activation TSO
//! allocated at its first writer and freed the moment its **last forward
//! reader** retires. No offload/prefetch events exist (nothing survives
//! past the step that consumes it), no error/aux TSOs are ever allocated
//! (dropout masks, softmax probs and BN saved stats exist only for
//! backward), and the parameter pool holds parameters alone — gradients
//! are never materialized.
//!
//! The resulting [`MemoryPlan`] replays through the same
//! [`plan_layout`] first-fit machinery as the training plans
//! (the layout pass is event-driven and never assumes a tape length), so
//! an inference [`ExecPlan`] carries real addresses a serving runtime can
//! assert against, exactly like `PlanRuntime` does for training.

use scnn_graph::Graph;

use crate::export::ExecPlan;
use crate::layout::{plan_layout, LayoutError};
use crate::plan::{MemEvent, MemoryPlan, StepPlan};
use crate::tso::{TsoAssignment, TsoId, TsoRole};

/// Builds the forward-only memory plan for `graph`: `graph.len()` steps,
/// pooled alloc/free only.
///
/// Liveness per activation TSO (in-place-ReLU and flatten aliases share
/// one): allocated in the `before` events of its first writer, freed in
/// the `after` events of the last node that reads *any* alias — the last
/// forward read. Workspace TSOs (when the assignment carries per-node
/// kernel scratch) bracket exactly their node's step. Error and aux TSOs
/// are never allocated.
pub fn plan_inference(graph: &Graph, tso: &TsoAssignment) -> MemoryPlan {
    let n = graph.len();
    let consumers = graph.consumers();
    let mut steps = vec![StepPlan::default(); n];

    // Per activation TSO: first writer and last forward read over all
    // aliases. A node with no consumers (the loss) is its own last read.
    let mut first_writer = vec![usize::MAX; tso.len()];
    let mut last_read = vec![0usize; tso.len()];
    for node in graph.nodes() {
        let t = tso.activation[node.id.0].0;
        first_writer[t] = first_writer[t].min(node.id.0);
        last_read[t] = last_read[t].max(node.id.0);
        for c in &consumers[node.id.0] {
            last_read[t] = last_read[t].max(c.0);
        }
    }
    for t in 0..tso.len() {
        if !matches!(tso.role(TsoId(t)), TsoRole::Activation(_)) {
            continue;
        }
        debug_assert!(first_writer[t] != usize::MAX, "activation TSO has a writer");
        steps[first_writer[t]].before.push(MemEvent::Alloc(TsoId(t)));
        steps[last_read[t]].after.push(MemEvent::Free(TsoId(t)));
    }

    // Kernel workspace lives exactly as long as its node's step.
    for node in graph.nodes() {
        if let Some(w) = tso.workspace[node.id.0] {
            steps[node.id.0].before.push(MemEvent::Alloc(w));
            steps[node.id.0].after.push(MemEvent::Free(w));
        }
    }

    MemoryPlan {
        strategy: "inference".into(),
        steps,
        offloaded: Vec::new(),
    }
}

/// Resolves the forward-only plan into an [`ExecPlan`].
///
/// The returned plan differs from a training export in three documented
/// ways: `steps.len() == forward_len` (forward-only — there is no
/// backward half for [`ExecPlan::node_at`] to mirror into), the host pool
/// and `restore_nodes` are empty (nothing offloads), and
/// `device_param_bytes` counts parameters once — inference never
/// materializes gradients. The layout is plain first-fit: with nothing
/// offloaded, no [`crate::LayoutOptions`] could place it otherwise.
///
/// # Errors
///
/// Returns a [`LayoutError`] when first-fit replay finds the plan illegal
/// — which would be a bug in [`plan_inference`], surfaced as a value.
pub fn export_inference_plan(
    graph: &Graph,
    tso: &TsoAssignment,
) -> Result<ExecPlan, LayoutError> {
    let plan = plan_inference(graph, tso);
    let mut layout = plan_layout(graph, &plan, tso)?;
    // plan_layout budgets params + grads; inference holds frozen params
    // only.
    layout.device_param_bytes = graph.param_elems() * 4;
    Ok(ExecPlan::with_tables(graph, tso, plan.strategy, plan.steps, graph.len(), layout))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::plan_no_offload;
    use crate::profile::Profile;
    use crate::tso::TsoOptions;
    use scnn_graph::Tape;
    use scnn_tensor::Padding2d;

    fn setup() -> (Graph, TsoAssignment) {
        let mut g = Graph::new();
        let mut x = g.input(&[2, 3, 16, 16]);
        for i in 0..3 {
            x = g.conv2d(x, 8, 3, 1, Padding2d::symmetric(1), false, &format!("c{i}"));
            x = g.relu(x, &format!("r{i}"));
        }
        let f = g.flatten(x, "f");
        let l = g.linear(f, 4, "fc");
        g.softmax_cross_entropy(l, "loss");
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        (g, tso)
    }

    #[test]
    fn inference_plan_is_forward_only_and_legal() {
        let (g, tso) = setup();
        let plan = plan_inference(&g, &tso);
        assert_eq!(plan.strategy, "inference");
        assert_eq!(plan.steps.len(), g.len());
        assert!(plan.offloaded.is_empty());
        // No offload/prefetch events at all.
        assert!(plan
            .events()
            .all(|(_, _, e)| matches!(e, MemEvent::Alloc(_) | MemEvent::Free(_))));
        // Legality: the layout replay must accept it.
        let exec = export_inference_plan(&g, &tso).expect("inference plan is legal");
        assert_eq!(exec.forward_len, g.len());
        assert_eq!(exec.steps.len(), g.len(), "forward-only step count");
        assert!(exec.layout.host_pool_bytes == 0);
        assert!(exec.restore_nodes.iter().all(Vec::is_empty));
    }

    #[test]
    fn every_input_is_live_when_its_reader_runs() {
        let (g, tso) = setup();
        let plan = plan_inference(&g, &tso);
        let mut live = vec![false; tso.len()];
        for (step, node) in g.nodes().iter().enumerate() {
            for e in &plan.steps[step].before {
                if let MemEvent::Alloc(t) = e {
                    live[t.0] = true;
                }
            }
            for inp in &node.inputs {
                assert!(
                    live[tso.activation[inp.0].0],
                    "node {step} reads a dead input"
                );
            }
            assert!(live[tso.activation[node.id.0].0], "output TSO not live");
            for e in &plan.steps[step].after {
                if let MemEvent::Free(t) = e {
                    live[t.0] = false;
                }
            }
        }
        assert!(live.iter().all(|l| !l), "plan leaks past the last step");
    }

    #[test]
    fn inference_pool_is_smaller_than_training_and_grad_free() {
        let (g, tso) = setup();
        let tape = Tape::new(&g);
        let profile = Profile::uniform(&g, 1e-3, 30e9);
        let train = plan_no_offload(&g, &tape, &tso, &profile);
        let train_layout = crate::layout::plan_layout(&g, &train, &tso).unwrap();
        let exec = export_inference_plan(&g, &tso).expect("inference plan is legal");
        assert!(
            exec.layout.device_general_bytes < train_layout.device_general_bytes,
            "last-forward-read liveness must beat keep-until-backward: {} vs {}",
            exec.layout.device_general_bytes,
            train_layout.device_general_bytes
        );
        assert_eq!(exec.layout.device_param_bytes, g.param_elems() * 4);
        assert_eq!(train_layout.device_param_bytes, 2 * g.param_elems() * 4);
    }

    #[test]
    fn serving_bytes_scale_linearly_in_concurrency() {
        let (g, tso) = setup();
        let exec = export_inference_plan(&g, &tso).expect("inference plan is legal");
        let layout = &exec.layout;
        let params = layout.device_param_bytes;
        let pool = layout.device_general_bytes;
        assert!(pool > 0);
        // Params are shared across slots; pools multiply out.
        assert_eq!(layout.serving_device_bytes(7), params + 7 * pool);
        assert_eq!(layout.serving_device_bytes(0), params);
    }

    #[test]
    fn aliases_share_one_allocation() {
        let (g, tso) = setup();
        let plan = plan_inference(&g, &tso);
        // conv (id 1) and its in-place relu (id 2) share one TSO: exactly
        // one Alloc and one Free for it across the whole plan.
        let t = tso.activation[1];
        assert_eq!(tso.activation[2], t);
        let allocs = plan
            .events()
            .filter(|(_, _, e)| matches!(e, MemEvent::Alloc(x) if *x == t))
            .count();
        let frees = plan
            .events()
            .filter(|(_, _, e)| matches!(e, MemEvent::Free(x) if *x == t))
            .count();
        assert_eq!((allocs, frees), (1, 1));
    }
}
