//! Plan export for the live runtime (`scnn-runtime`).
//!
//! `MemoryPlan` speaks the planner's language: events attached to serialized
//! tape positions, TSOs as opaque ids. A real executor needs the same
//! information keyed the way execution proceeds — per *node*, split into the
//! forward and backward halves — plus the things only the planner knows:
//! where each TSO instance lands in the device pool (`StaticLayout`), where
//! each offloaded TSO lives in the host arena, and which node outputs alias
//! each TSO (so the runtime's ref-counted handles can bind in-place-ReLU
//! and flatten aliases to one buffer, and restore exactly the entries the
//! backward pass will re-read).

use std::collections::HashMap;
use std::sync::Arc;

use scnn_graph::{Graph, MicroBatchSchedule, Tape};

use crate::layout::{plan_layout_with, LayoutError, LayoutOptions, StaticLayout};
use crate::plan::{MemoryPlan, StepPlan};
use crate::tso::{TsoAssignment, TsoId, TsoRole};

/// A fully resolved plan, ready to drive a training step: tape-ordered
/// events, first-fit addresses, host-arena offsets, and the TSO↔node-output
/// alias tables.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// Strategy name inherited from the source plan.
    pub strategy: String,
    /// Tape-ordered per-step events, verbatim from the source plan
    /// (length `2 × graph.len()`: forward steps then backward steps).
    pub steps: Vec<StepPlan>,
    /// Number of forward steps; step `i < forward_len` is node `i`'s
    /// forward, step `i >= forward_len` is node `2·forward_len − 1 − i`'s
    /// backward.
    pub forward_len: usize,
    /// First-fit placement of every TSO instance and the pool sizes.
    pub layout: StaticLayout,
    /// Byte offset of every offloaded TSO in the host arena (bump-placed:
    /// the host pool never frees within a step, its size is exactly the
    /// sum of offloaded sizes).
    pub host_offsets: HashMap<TsoId, usize>,
    /// Size in bytes per TSO (indexed by `TsoId.0`).
    pub sizes: Vec<usize>,
    /// For every TSO, the nodes whose outputs are bound to it, ascending —
    /// more than one when in-place ReLU or flatten aliasing applies.
    pub alias_nodes: Vec<Vec<usize>>,
    /// The subset of `alias_nodes` whose output the backward pass re-reads;
    /// exactly these entries must be restored when the TSO is prefetched.
    pub restore_nodes: Vec<Vec<usize>>,
    /// Whether the TSO stores a forward activation (the kind the runtime
    /// physically manages; error/aux/workspace TSOs are accounted only).
    pub is_activation: Vec<bool>,
    /// Per-conv micro-batch schedule the workspace accounting assumed, if
    /// the plan was made against micro-batched workspaces. The runtime
    /// hands this to the executor so execution matches the plan's model.
    pub micro: Option<Arc<MicroBatchSchedule>>,
}

impl ExecPlan {
    /// Attaches the micro-batch `schedule` whose workspaces this plan's
    /// TSO accounting assumed.
    #[must_use]
    pub fn with_micro_schedule(mut self, schedule: Arc<MicroBatchSchedule>) -> Self {
        self.micro = Some(schedule);
        self
    }

    /// A plan of `steps` over `graph` carrying the per-TSO tables every
    /// export builds — sizes, alias nodes, activation flags — with nothing
    /// offloaded and nothing to restore yet.
    pub(crate) fn with_tables(
        graph: &Graph,
        tso: &TsoAssignment,
        strategy: String,
        steps: Vec<StepPlan>,
        forward_len: usize,
        layout: StaticLayout,
    ) -> Self {
        let mut alias_nodes: Vec<Vec<usize>> = vec![Vec::new(); tso.len()];
        for node in graph.nodes() {
            alias_nodes[tso.activation[node.id.0].0].push(node.id.0);
        }
        ExecPlan {
            strategy,
            steps,
            forward_len,
            layout,
            host_offsets: HashMap::new(),
            sizes: (0..tso.len()).map(|i| tso.size(TsoId(i))).collect(),
            alias_nodes,
            restore_nodes: vec![Vec::new(); tso.len()],
            is_activation: (0..tso.len())
                .map(|i| matches!(tso.role(TsoId(i)), TsoRole::Activation(_)))
                .collect(),
            micro: None,
        }
    }

    /// Node id executing at tape position `pos`.
    pub fn node_at(&self, pos: usize) -> usize {
        if pos < self.forward_len {
            pos
        } else {
            2 * self.forward_len - 1 - pos
        }
    }
}

/// Resolves `plan` against `graph`/`tape`/`tso` into an [`ExecPlan`] with
/// default [`LayoutOptions`] (no workspace/offload overlap).
///
/// # Errors
///
/// See [`export_plan_with`].
pub fn export_plan(
    graph: &Graph,
    tape: &Tape,
    plan: &MemoryPlan,
    tso: &TsoAssignment,
) -> Result<ExecPlan, LayoutError> {
    export_plan_with(graph, tape, plan, tso, LayoutOptions::default())
}

/// Resolves `plan` against `graph`/`tape`/`tso` into an [`ExecPlan`].
///
/// # Errors
///
/// Returns a [`LayoutError`] when the plan's step count disagrees with the
/// tape or when first-fit replay finds the plan illegal (double alloc,
/// free of dead, unknown TSO, leak).
pub fn export_plan_with(
    graph: &Graph,
    tape: &Tape,
    plan: &MemoryPlan,
    tso: &TsoAssignment,
    opts: LayoutOptions,
) -> Result<ExecPlan, LayoutError> {
    let expected = tape.entries().len();
    if plan.steps.len() != expected {
        return Err(LayoutError::StepCountMismatch {
            found: plan.steps.len(),
            expected,
        });
    }
    let layout = plan_layout_with(graph, plan, tso, opts)?;
    let mut exec = ExecPlan::with_tables(
        graph,
        tso,
        plan.strategy.clone(),
        plan.steps.clone(),
        tape.forward_len(),
        layout,
    );

    let mut host_cursor = 0usize;
    for &t in &plan.offloaded {
        exec.host_offsets.insert(t, host_cursor);
        host_cursor += tso.size(t);
    }

    let needed = tape.needed_in_backward(graph);
    for node in graph.nodes() {
        if needed[node.id.0] {
            exec.restore_nodes[tso.activation[node.id.0].0].push(node.id.0);
        }
    }
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offload::{plan_hmms, plan_no_offload, PlannerOptions};
    use crate::profile::Profile;
    use crate::tso::TsoOptions;
    use scnn_tensor::Padding2d;

    fn setup() -> (Graph, Tape, TsoAssignment, Profile) {
        let mut g = Graph::new();
        let mut x = g.input(&[2, 3, 16, 16]);
        for i in 0..3 {
            x = g.conv2d(x, 8, 3, 1, Padding2d::symmetric(1), false, &format!("c{i}"));
            x = g.relu(x, &format!("r{i}"));
        }
        let f = g.flatten(x, "f");
        let l = g.linear(f, 4, "fc");
        g.softmax_cross_entropy(l, "loss");
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let profile = Profile::uniform(&g, 1e-3, 30e9);
        (g, tape, tso, profile)
    }

    #[test]
    fn export_resolves_addresses_and_host_offsets() {
        let (g, tape, tso, profile) = setup();
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        let exec = export_plan(&g, &tape, &plan, &tso).expect("plan exports");
        assert_eq!(exec.steps.len(), 2 * g.len());
        assert_eq!(exec.forward_len, g.len());
        // Host offsets tile the host pool exactly.
        let mut offs: Vec<(usize, usize)> = plan
            .offloaded
            .iter()
            .map(|t| (exec.host_offsets[t], tso.size(*t)))
            .collect();
        offs.sort_unstable();
        let mut cursor = 0;
        for (off, size) in offs {
            assert_eq!(off, cursor, "host offsets must be contiguous");
            cursor += size;
        }
        assert_eq!(cursor, exec.layout.host_pool_bytes);
    }

    #[test]
    fn alias_and_restore_tables_cover_inplace_relu() {
        let (g, tape, tso, profile) = setup();
        let plan = plan_no_offload(&g, &tape, &tso, &profile);
        let exec = export_plan(&g, &tape, &plan, &tso).expect("plan exports");
        // conv (id 1) and its in-place relu (id 2) share one activation
        // TSO; only the relu output survives into backward.
        let t = tso.activation[1].0;
        assert_eq!(tso.activation[2].0, t);
        assert!(exec.alias_nodes[t].contains(&1));
        assert!(exec.alias_nodes[t].contains(&2));
        assert!(!exec.restore_nodes[t].contains(&1), "pre-ReLU value is dead");
        assert!(exec.restore_nodes[t].contains(&2));
        // Every node appears in exactly one alias list.
        let total: usize = exec.alias_nodes.iter().map(Vec::len).sum();
        assert_eq!(total, g.len());
    }

    #[test]
    fn step_count_mismatch_is_reported() {
        let (g, tape, tso, profile) = setup();
        let mut plan = plan_no_offload(&g, &tape, &tso, &profile);
        plan.steps.pop();
        let err = export_plan(&g, &tape, &plan, &tso).unwrap_err();
        assert!(matches!(err, LayoutError::StepCountMismatch { .. }));
        assert!(err.to_string().contains("steps"));
    }

    #[test]
    fn node_position_round_trips() {
        let (g, tape, tso, profile) = setup();
        let plan = plan_no_offload(&g, &tape, &tso, &profile);
        let exec = export_plan(&g, &tape, &plan, &tso).expect("plan exports");
        for pos in 0..exec.steps.len() {
            let node = exec.node_at(pos);
            let expected = tape.entries()[pos].node.0;
            assert_eq!(node, expected);
        }
    }
}
