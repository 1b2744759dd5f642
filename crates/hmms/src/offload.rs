//! Offload/prefetch planning (§4.3, Algorithm 1) and the comparison
//! planners of §6.2.
//!
//! The planner tracks an *offload-capacity balance*: offloading a TSO costs
//! its size; every executed op earns `exec_time × NVLink bandwidth`. The
//! compute stream synchronizes with the memory streams (allowing the
//! offloaded device storage to be freed) only when the balance is
//! non-negative — by construction a point where no transfer is still
//! outstanding, so the synchronization is free. Prefetch planning is the
//! mirror image, walking the backward tape in reverse.
//!
//! One refinement over the paper's pseudo-code: the balance only
//! accumulates while transfers are outstanding. Banking idle time from
//! before any offload started would let the planner declare a transfer
//! complete the moment it begins, which contradicts the algorithm's own
//! invariant ("when such balance is positive, there will be no outstanding
//! memory transfer").

use scnn_graph::{Graph, Tape};

use crate::plan::{MemEvent, MemoryPlan, StepPlan};
use crate::profile::Profile;
use crate::tso::{TsoAssignment, TsoId};

/// Planner configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannerOptions {
    /// Cap on the fraction of generated (offload-able) bytes actually
    /// offloaded — §6.2 keeps this under the theoretical limit (1.0 for
    /// VGG-19, 0.4 for ResNet-50, 0.7 for memory-efficient ResNet-18).
    pub offload_cap: f64,
    /// Number of memory streams for round-robin transfer issue.
    pub mem_streams: usize,
}

impl Default for PlannerOptions {
    fn default() -> Self {
        PlannerOptions {
            offload_cap: 1.0,
            mem_streams: 2,
        }
    }
}

/// Lifetime summary of one TSO over the tape.
#[derive(Clone, Copy, Debug)]
struct Usage {
    first: usize,
    last: usize,
    last_fwd: usize,
    first_bwd: Option<usize>,
}

/// Computes per-TSO access positions. Workspace TSOs are excluded (they are
/// transient and handled per-step).
fn usages(graph: &Graph, tape: &Tape, tso: &TsoAssignment) -> Vec<Option<Usage>> {
    let t_len = tape.forward_len();
    let mut acc: Vec<Vec<usize>> = vec![Vec::new(); tso.len()];

    for node in graph.nodes() {
        let id = node.id.0;
        let d = node.op.desc();
        // Activation: written at the node's forward step.
        acc[tso.activation[id].0].push(tape.forward_pos(node.id));
        // Read by consumers' forward steps and, when their backward
        // re-reads inputs, their backward steps.
        for &inp in &node.inputs {
            acc[tso.activation[inp.0].0].push(tape.forward_pos(node.id));
            if d.backward_reads_input {
                acc[tso.activation[inp.0].0].push(tape.backward_pos(node.id));
            }
        }
        if d.backward_reads_output {
            acc[tso.activation[id].0].push(tape.backward_pos(node.id));
        }
        // Error tensors: written by consumers' backward, read by own
        // backward.
        if let Some(e) = tso.error[id] {
            acc[e.0].push(tape.backward_pos(node.id));
        }
        for &inp in &node.inputs {
            if let Some(e) = tso.error[inp.0] {
                acc[e.0].push(tape.backward_pos(node.id));
            }
        }
        // Aux: forward write, backward read.
        if let Some(a) = tso.aux[id] {
            acc[a.0].push(tape.forward_pos(node.id));
            acc[a.0].push(tape.backward_pos(node.id));
        }
    }

    acc.into_iter()
        .map(|mut v| {
            if v.is_empty() {
                return None;
            }
            v.sort_unstable();
            let first = v[0];
            let last = *v.last().expect("non-empty");
            let last_fwd = v.iter().rev().find(|&&p| p < t_len).copied().unwrap_or(first);
            let first_bwd = v.iter().find(|&&p| p >= t_len).copied();
            Some(Usage {
                first,
                last,
                last_fwd,
                first_bwd,
            })
        })
        .collect()
}

/// The maximum fraction of generated data that can be offloaded without
/// slowing compute: total forward transfer budget over total generated
/// bytes, clamped to 1. This reproduces the §6.2 derivation (≈1.0 for
/// VGG-19, ≈0.55 for ResNet-18, ≈0.4 for ResNet-50).
pub fn theoretical_offload_fraction(
    graph: &Graph,
    tape: &Tape,
    tso: &TsoAssignment,
    profile: &Profile,
) -> f64 {
    profile.validate(graph);
    let budget: f64 = profile.total_fwd() * profile.link_bandwidth;
    let generated: usize = candidate_tsos(graph, tape, tso)
        .iter()
        .map(|&(t, _)| tso.size(t))
        .sum();
    if generated == 0 {
        return 1.0;
    }
    (budget / generated as f64).min(1.0)
}

/// Offload-candidate TSOs: activations that survive into the backward pass,
/// paired with the forward step during which their transfer can run (their
/// last forward access). Sorted by that step.
///
/// A candidate must leave a non-empty prefetch window: the forward
/// instance is freed no earlier than `last_fwd` (its offload sync), the
/// prefetched instance must come strictly after that free and complete
/// strictly before `first_bwd`. That needs `first_bwd ≥ last_fwd + 2`;
/// tensors consumed by the very next tape step (e.g. the last node's
/// output when `first_bwd == t_len`) have nowhere to prefetch and stay
/// resident instead of receiving a zero-width transfer window.
fn candidate_tsos(graph: &Graph, tape: &Tape, tso: &TsoAssignment) -> Vec<(TsoId, usize)> {
    let us = usages(graph, tape, tso);
    let mut seen = vec![false; tso.len()];
    let mut out = Vec::new();
    for node in graph.nodes() {
        let t = tso.activation[node.id.0];
        if seen[t.0] {
            continue;
        }
        seen[t.0] = true;
        if let Some(u) = &us[t.0] {
            if let Some(first_bwd) = u.first_bwd {
                if first_bwd >= u.last_fwd + 2 {
                    out.push((t, u.last_fwd));
                }
            }
        }
    }
    out.sort_by_key(|&(_, step)| step);
    out
}

/// Baseline plan: nothing is offloaded; every TSO is resident from first to
/// last use.
pub fn plan_no_offload(
    graph: &Graph,
    tape: &Tape,
    tso: &TsoAssignment,
    profile: &Profile,
) -> MemoryPlan {
    build_plan(graph, tape, tso, profile, Strategy::None, PlannerOptions::default())
}

/// vDNN-style layer-wise plan \[32\]: each offloaded TSO transfers during
/// its consuming layer and the compute stream synchronizes immediately
/// after that layer; prefetches start one layer before use.
pub fn plan_vdnn(
    graph: &Graph,
    tape: &Tape,
    tso: &TsoAssignment,
    profile: &Profile,
    opts: PlannerOptions,
) -> MemoryPlan {
    build_plan(graph, tape, tso, profile, Strategy::Vdnn, opts)
}

/// HMMS plan (Algorithm 1 + reverse prefetch planning): synchronization
/// points chosen by the offload-capacity balance, spreading transfers
/// across as many layers as needed.
pub fn plan_hmms(
    graph: &Graph,
    tape: &Tape,
    tso: &TsoAssignment,
    profile: &Profile,
    opts: PlannerOptions,
) -> MemoryPlan {
    build_plan(graph, tape, tso, profile, Strategy::Hmms, opts)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Strategy {
    None,
    Vdnn,
    Hmms,
}

struct OffloadDecision {
    tso: TsoId,
    start_step: usize,
    sync_step: usize,
    prefetch_step: usize,
    first_bwd: usize,
    last: usize,
    stream: usize,
}

fn build_plan(
    graph: &Graph,
    tape: &Tape,
    tso: &TsoAssignment,
    profile: &Profile,
    strategy: Strategy,
    opts: PlannerOptions,
) -> MemoryPlan {
    profile.validate(graph);
    assert!(opts.mem_streams > 0, "need at least one memory stream");
    let t_len = tape.forward_len();
    let total = 2 * t_len;
    let us = usages(graph, tape, tso);
    let node_of = |pos: usize| tape.entries()[pos].node;
    let step_time = |pos: usize| {
        let n = node_of(pos).0;
        if pos < t_len {
            profile.fwd_time[n]
        } else {
            profile.bwd_time[n]
        }
    };

    // ---- offload decisions ----------------------------------------------
    let mut decisions: Vec<OffloadDecision> = Vec::new();
    if strategy != Strategy::None {
        let candidates = candidate_tsos(graph, tape, tso);
        let total_generated: usize = candidates.iter().map(|&(t, _)| tso.size(t)).sum();
        let budget = (opts.offload_cap * total_generated as f64) as usize;
        let mut used = 0usize;
        let mut chosen: Vec<(TsoId, usize)> = Vec::new();
        for &(t, step) in &candidates {
            if used + tso.size(t) <= budget {
                used += tso.size(t);
                chosen.push((t, step));
            }
        }

        match strategy {
            Strategy::Vdnn => {
                for (i, &(t, step)) in chosen.iter().enumerate() {
                    let u = us[t.0].expect("candidate has usage");
                    let first_bwd = u.first_bwd.expect("candidate has bwd use");
                    decisions.push(OffloadDecision {
                        tso: t,
                        start_step: step,
                        // Layer-wise: synchronize right after the consumer.
                        sync_step: step,
                        // Prefetch exactly one op ahead of use, clamped to
                        // the earliest *legal* position: the step after the
                        // forward instance's sync+free (the two instances
                        // of one TSO must never coexist). Candidates
                        // guarantee `first_bwd ≥ step + 2`, so the clamp
                        // always lands strictly before `first_bwd`.
                        prefetch_step: (first_bwd - 1).max(step + 1),
                        first_bwd,
                        last: u.last,
                        stream: i % opts.mem_streams,
                    });
                }
            }
            Strategy::Hmms => {
                // Algorithm 1 realized per TSO: the offload-capacity
                // balance ("compute time elapsed × bandwidth ≥ bytes in
                // flight") is evaluated against each tensor's own transfer
                // rather than for a whole batch at once. A batched
                // balance check admits a tensor whose backward deadline
                // *is* the release point, giving it a zero transfer
                // window; the per-tensor projection keeps the algorithm's
                // inputs (profiled times, link bandwidth) and its
                // guarantee (synchronize only once the transfer has had
                // enough compute time to hide behind).
                let bw = profile.link_bandwidth;

                // Prefix sums: time at which each tape step *ends*.
                let mut end_at = vec![0.0f64; total];
                let mut acc = 0.0;
                for (pos, e) in end_at.iter_mut().enumerate() {
                    acc += step_time(pos);
                    *e = acc;
                }
                let start_at = |pos: usize| end_at[pos] - step_time(pos);

                // Offloads: transfers issue when their op starts and queue
                // on the serialized device→host link; the sync lands at
                // the first op whose end time covers the projected
                // completion. The sync may slide past the forward tape —
                // but no further than `first_bwd − 2`: the prefetched
                // instance needs at least one full step strictly between
                // the sync's free and the backward consumer (a sync at
                // `first_bwd − 1` would leave only a zero-width transfer
                // window). A tensor whose transfer cannot finish by then
                // would be freed mid-flight (violating Algorithm 1's own
                // invariant), so it is *dropped* from the offload set and
                // stays resident instead. Dropped transfers do not occupy
                // the link.
                let mut sync_of = vec![None; tso.len()];
                let mut link_free = 0.0f64;
                let mut kept: Vec<(TsoId, usize)> = Vec::new();
                for &(t, step) in &chosen {
                    let u = us[t.0].expect("candidate has usage");
                    let first_bwd = u.first_bwd.expect("candidate has bwd use");
                    let s = start_at(step).max(link_free);
                    let done = s + tso.size(t) as f64 / bw;
                    let mut sync = step;
                    while sync + 2 < first_bwd && end_at[sync] < done {
                        sync += 1;
                    }
                    if end_at[sync] < done {
                        continue;
                    }
                    link_free = done;
                    sync_of[t.0] = Some(sync);
                    kept.push((t, step));
                }

                // Prefetches: walk deadlines from the latest backward in
                // reverse, packing each transfer as late as the shared
                // host→device link allows while still completing before
                // its first backward use. The packed position is floored
                // at the step after the TSO's own sync: the prefetched
                // instance may not coexist with the forward one.
                let mut prefetch_of = vec![None; tso.len()];
                let mut by_deadline: Vec<(TsoId, usize)> = kept
                    .iter()
                    .map(|&(t, _)| {
                        let u = us[t.0].expect("candidate has usage");
                        (t, u.first_bwd.expect("candidate has bwd use"))
                    })
                    .collect();
                by_deadline.sort_by_key(|&(_, u)| std::cmp::Reverse(u));
                let mut cap = f64::INFINITY;
                for &(t, u) in &by_deadline {
                    let end = start_at(u).min(cap);
                    let start_time = end - tso.size(t) as f64 / bw;
                    cap = start_time;
                    // Largest backward step starting no later than
                    // `start_time` (clamped to the earliest legal step).
                    let floor = t_len.max(sync_of[t.0].expect("kept has sync") + 1);
                    let mut pos = floor;
                    // `pos + 1 < u`, strictly: the prefetch must *start*
                    // before the consuming step, never on it.
                    while pos + 1 < u && start_at(pos + 1) <= start_time {
                        pos += 1;
                    }
                    prefetch_of[t.0] = Some(pos);
                }

                for (i, &(t, step)) in kept.iter().enumerate() {
                    let u = us[t.0].expect("candidate has usage");
                    let first_bwd = u.first_bwd.expect("candidate has bwd use");
                    decisions.push(OffloadDecision {
                        tso: t,
                        start_step: step,
                        sync_step: sync_of[t.0].expect("sync planned"),
                        prefetch_step: prefetch_of[t.0].expect("prefetch planned"),
                        first_bwd,
                        last: u.last,
                        stream: i % opts.mem_streams,
                    });
                }
            }
            Strategy::None => unreachable!(),
        }
    }

    // ---- event emission ---------------------------------------------------
    let mut steps: Vec<StepPlan> = (0..total).map(|_| StepPlan::default()).collect();
    let offloaded: Vec<TsoId> = {
        let mut v: Vec<TsoId> = decisions.iter().map(|d| d.tso).collect();
        v.sort();
        v
    };
    let is_offloaded = |t: TsoId| offloaded.binary_search(&t).is_ok();

    // Resident TSOs: alloc at first access, free after last.
    for (i, u) in us.iter().enumerate() {
        let Some(u) = u else { continue };
        let t = TsoId(i);
        if is_offloaded(t) {
            continue;
        }
        steps[u.first].before.push(MemEvent::Alloc(t));
        steps[u.last].after.push(MemEvent::Free(t));
    }

    // Offloaded TSOs: forward instance + prefetched backward instance.
    // Transfers on a shared link run in issue order, so emit offloads in
    // start order and prefetches earliest-deadline first within a step.
    for d in &decisions {
        let u = us[d.tso.0].expect("decision has usage");
        steps[u.first].before.push(MemEvent::Alloc(d.tso));
        steps[d.start_step].before.push(MemEvent::OffloadStart {
            tso: d.tso,
            stream: d.stream,
        });
        steps[d.sync_step].after.push(MemEvent::OffloadSync { tso: d.tso });
        steps[d.sync_step].after.push(MemEvent::Free(d.tso));
        steps[d.first_bwd].before.push(MemEvent::PrefetchSync { tso: d.tso });
        steps[d.last].after.push(MemEvent::Free(d.tso));
    }
    let mut prefetch_order: Vec<&OffloadDecision> = decisions.iter().collect();
    prefetch_order.sort_by_key(|d| (d.prefetch_step, d.first_bwd));
    for d in prefetch_order {
        steps[d.prefetch_step].before.push(MemEvent::Alloc(d.tso));
        steps[d.prefetch_step].before.push(MemEvent::PrefetchStart {
            tso: d.tso,
            stream: d.stream,
        });
    }

    // Within a step, allocations and transfer kick-offs must precede any
    // sync that waits on them (stable, so link issue order is preserved).
    for step in &mut steps {
        step.before.sort_by_key(|e| match e {
            MemEvent::Alloc(_) => 0,
            MemEvent::OffloadStart { .. } | MemEvent::PrefetchStart { .. } => 1,
            MemEvent::OffloadSync { .. } | MemEvent::PrefetchSync { .. } => 2,
            MemEvent::Free(_) => 3,
        });
    }

    // Workspace: transient around each conv step (forward and backward).
    for node in graph.nodes() {
        if let Some(w) = tso.workspace[node.id.0] {
            for pos in [tape.forward_pos(node.id), tape.backward_pos(node.id)] {
                steps[pos].before.push(MemEvent::Alloc(w));
                steps[pos].after.push(MemEvent::Free(w));
            }
        }
    }

    MemoryPlan {
        strategy: match strategy {
            Strategy::None => "baseline".into(),
            Strategy::Vdnn => "vdnn".into(),
            Strategy::Hmms => "hmms".into(),
        },
        steps,
        offloaded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tso::TsoOptions;
    use scnn_tensor::Padding2d;

    fn chain(n_convs: usize) -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(&[4, 3, 16, 16]);
        for i in 0..n_convs {
            x = g.conv2d(x, 8, 3, 1, Padding2d::symmetric(1), false, &format!("c{i}"));
            x = g.relu(x, &format!("r{i}"));
        }
        let f = g.flatten(x, "f");
        let l = g.linear(f, 4, "fc");
        g.softmax_cross_entropy(l, "loss");
        g
    }

    fn setup(n: usize) -> (Graph, Tape, TsoAssignment, Profile) {
        let g = chain(n);
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let profile = Profile::uniform(&g, 1e-3, 10e9); // 10 MB/ms budget
        (g, tape, tso, profile)
    }

    #[test]
    fn baseline_plan_never_offloads() {
        let (g, tape, tso, profile) = setup(3);
        let plan = plan_no_offload(&g, &tape, &tso, &profile);
        assert!(plan.offloaded.is_empty());
        assert_eq!(plan.steps.len(), 2 * g.len());
        // Every Alloc has a matching Free.
        let allocs = plan.events().filter(|(_, _, e)| matches!(e, MemEvent::Alloc(_))).count();
        let frees = plan.events().filter(|(_, _, e)| matches!(e, MemEvent::Free(_))).count();
        assert_eq!(allocs, frees);
    }

    #[test]
    fn hmms_offloads_backward_survivors() {
        let (g, tape, tso, profile) = setup(3);
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        assert!(!plan.offloaded.is_empty(), "nothing offloaded");
        // Offloaded TSOs are exactly the candidates under a 1.0 cap.
        let cands = candidate_tsos(&g, &tape, &tso);
        assert_eq!(plan.offloaded.len(), cands.len());
    }

    #[test]
    fn cap_limits_offloaded_bytes() {
        let (g, tape, tso, profile) = setup(4);
        let full = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        let half = plan_hmms(
            &g,
            &tape,
            &tso,
            &profile,
            PlannerOptions {
                offload_cap: 0.5,
                mem_streams: 2,
            },
        );
        let size = |t: TsoId| tso.size(t);
        assert!(half.offloaded_bytes(size) <= full.offloaded_bytes(size) / 2 + 1);
        assert!(half.offloaded_bytes(size) > 0);
    }

    /// Per-TSO `OffloadSync` positions of a plan.
    fn sync_map(plan: &MemoryPlan) -> std::collections::HashMap<TsoId, usize> {
        plan.events()
            .filter_map(|(i, _, e)| match e {
                MemEvent::OffloadSync { tso } => Some((*tso, i)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn hmms_defers_sync_beyond_vdnn() {
        // With a slow link, HMMS must push sync points later than the
        // layer-wise plan's immediate syncs. HMMS may also *drop* tensors
        // whose transfer cannot complete before their backward deadline,
        // so the comparison runs over the TSOs both plans offload.
        let g = chain(5);
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let profile = Profile::uniform(&g, 1e-4, 1e8); // slow link
        let v = plan_vdnn(&g, &tape, &tso, &profile, PlannerOptions::default());
        let h = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        let vs = sync_map(&v);
        let hs = sync_map(&h);
        assert!(!hs.is_empty(), "nothing survived the slow link");
        let mut v_sum = 0;
        let mut h_sum = 0;
        for (t, &hp) in &hs {
            let &vp = vs.get(t).expect("vdnn offloads every candidate");
            assert!(hp >= vp, "HMMS sync for {t:?} earlier than vDNN");
            v_sum += vp;
            h_sum += hp;
        }
        assert!(h_sum > v_sum, "HMMS syncs ({hs:?}) not later than vDNN ({vs:?})");
    }

    #[test]
    fn slow_link_sync_never_precedes_transfer_completion() {
        // Regression: the sync clamp used to stop at the last *forward*
        // step, so on a slow link the plan freed the device copy while the
        // modeled transfer was still in flight. Recompute the planner's
        // own projection (prefix sums + the serialized link, in issue
        // order) and check every sync covers its transfer.
        for bw in [1e7, 1e8, 1e9, 10e9] {
            let g = chain(5);
            let tape = Tape::new(&g);
            let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
            let profile = Profile::uniform(&g, 1e-4, bw);
            let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());

            let t_len = tape.forward_len();
            let step_time = |pos: usize| {
                let n = tape.entries()[pos].node.0;
                if pos < t_len { profile.fwd_time[n] } else { profile.bwd_time[n] }
            };
            let mut end_at = vec![0.0f64; 2 * t_len];
            let mut acc = 0.0;
            for (pos, e) in end_at.iter_mut().enumerate() {
                acc += step_time(pos);
                *e = acc;
            }
            let starts: Vec<(TsoId, usize)> = plan
                .events()
                .filter_map(|(i, _, e)| match e {
                    MemEvent::OffloadStart { tso, .. } => Some((*tso, i)),
                    _ => None,
                })
                .collect();
            let syncs = sync_map(&plan);
            let mut link_free = 0.0f64;
            for (t, step) in starts {
                let s = (end_at[step] - step_time(step)).max(link_free);
                let done = s + tso.size(t) as f64 / bw;
                link_free = done;
                let sync = syncs[&t];
                assert!(
                    end_at[sync] + 1e-12 >= done,
                    "bw {bw}: {t:?} freed at step {sync} (t={}) before transfer done (t={done})",
                    end_at[sync]
                );
            }
        }
    }

    #[test]
    fn unhideable_offloads_are_dropped_not_freed_early() {
        // At 1e8 B/s the chain's transfers cannot all complete before
        // their backward deadlines: the planner must keep some candidates
        // resident rather than free them mid-transfer — but not all.
        let g = chain(5);
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let candidates = candidate_tsos(&g, &tape, &tso).len();
        let profile = Profile::uniform(&g, 1e-4, 1e8);
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        assert!(
            plan.offloaded.len() < candidates,
            "slow link must drop unhideable offloads ({} of {candidates} kept)",
            plan.offloaded.len()
        );
        assert!(!plan.offloaded.is_empty(), "hideable offloads must survive");
        // Every survivor still has the full 2-instance lifecycle.
        for &t in &plan.offloaded {
            let count = |f: fn(&MemEvent) -> bool| {
                plan.events().filter(|(_, _, e)| e.tso() == t && f(e)).count()
            };
            assert_eq!(count(|e| matches!(e, MemEvent::Alloc(_))), 2);
            assert_eq!(count(|e| matches!(e, MemEvent::Free(_))), 2);
        }
    }

    #[test]
    fn vdnn_prefetch_lands_at_earliest_legal_step() {
        // Ordinary chain: every vDNN prefetch starts exactly one op ahead
        // of its first backward use, strictly before its sync.
        let (g, tape, tso, profile) = setup(3);
        let plan = plan_vdnn(&g, &tape, &tso, &profile, PlannerOptions::default());
        for &t in &plan.offloaded {
            let start = plan
                .events()
                .find_map(|(i, _, e)| {
                    matches!(e, MemEvent::PrefetchStart { tso, .. } if *tso == t).then_some(i)
                })
                .expect("offloaded TSO has a prefetch start");
            let sync = plan
                .events()
                .find_map(|(i, _, e)| {
                    matches!(e, MemEvent::PrefetchSync { tso } if *tso == t).then_some(i)
                })
                .expect("offloaded TSO has a prefetch sync");
            assert_eq!(start, sync - 1, "{t:?} prefetch not one op ahead");
        }
    }

    /// The pool-last graph used by the zero-width-window regressions: the
    /// last node re-reads its output in backward (a max pool with no
    /// classifier head), so its TSO has `first_bwd == t_len` and
    /// `last_fwd == t_len − 1` — a zero-width prefetch window by
    /// construction.
    fn pool_last_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(&[2, 3, 8, 8]);
        let c = g.conv2d(x, 4, 3, 1, Padding2d::symmetric(1), false, "c");
        let r = g.relu(c, "r");
        g.pool2d(r, scnn_graph::PoolKind::Max, 2, 2, Padding2d::default(), "p");
        g
    }

    #[test]
    fn zero_window_tso_stays_resident() {
        // Regression (supersedes the PR 5 pin): the planner used to emit
        // the pool TSO's prefetch *at* `first_bwd` — a zero-width transfer
        // window whose prefetch could never complete before its consumer.
        // Such tensors are no longer offload candidates: they stay
        // resident with the plain one-instance lifecycle, and the rest of
        // the plan still offloads normally.
        let g = pool_last_graph();
        let tape = Tape::new(&g);
        let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
        let profile = Profile::uniform(&g, 1e-3, 10e9);
        let pool_tso = tso.activation[g.len() - 1];
        for plan in [
            plan_vdnn(&g, &tape, &tso, &profile, PlannerOptions::default()),
            plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default()),
        ] {
            assert!(
                !plan.offloaded.contains(&pool_tso),
                "{}: zero-window TSO must stay resident",
                plan.strategy
            );
            assert!(
                !plan.offloaded.is_empty(),
                "{}: other tensors still offload",
                plan.strategy
            );
            let count = |f: fn(&MemEvent) -> bool| {
                plan.events()
                    .filter(|(_, _, e)| e.tso() == pool_tso && f(e))
                    .count()
            };
            assert_eq!(count(|e| matches!(e, MemEvent::Alloc(_))), 1);
            assert_eq!(count(|e| matches!(e, MemEvent::Free(_))), 1);
            assert_eq!(count(|e| matches!(e, MemEvent::PrefetchStart { .. })), 0);
            crate::layout::plan_layout(&g, &plan, &tso).expect("plan stays legal");
        }
    }

    #[test]
    fn prefetch_start_strictly_precedes_its_sync() {
        // Every planned prefetch must have a non-empty transfer window: a
        // `PrefetchStart` at the same step as (or after) its
        // `PrefetchSync` models a transfer completing in zero time. Fails
        // on the pre-fix planner, which pinned the pool-last graph's
        // prefetch to `first_bwd` itself and let the HMMS sync slide to
        // `first_bwd − 1`.
        for g in [pool_last_graph(), chain(3), chain(5)] {
            let tape = Tape::new(&g);
            let tso = TsoAssignment::new(&g, &vec![0; g.len()], TsoOptions::default());
            for bw in [1e8, 1e9, 10e9] {
                let profile = Profile::uniform(&g, 1e-3, bw);
                for plan in [
                    plan_vdnn(&g, &tape, &tso, &profile, PlannerOptions::default()),
                    plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default()),
                ] {
                    for &t in &plan.offloaded {
                        let find = |f: fn(&MemEvent, TsoId) -> bool| {
                            plan.events()
                                .find_map(|(i, _, e)| f(e, t).then_some(i))
                                .expect("offloaded TSO has full lifecycle")
                        };
                        let start = find(|e, t| {
                            matches!(e, MemEvent::PrefetchStart { tso, .. } if *tso == t)
                        });
                        let sync = find(
                            |e, t| matches!(e, MemEvent::PrefetchSync { tso } if *tso == t),
                        );
                        assert!(
                            start < sync,
                            "{} bw {bw}: {t:?} prefetch start {start} not strictly \
                             before sync {sync}",
                            plan.strategy
                        );
                        let off_sync = find(
                            |e, t| matches!(e, MemEvent::OffloadSync { tso } if *tso == t),
                        );
                        assert!(
                            off_sync < start,
                            "{} bw {bw}: {t:?} prefetch {start} overlaps forward \
                             instance freed at {off_sync}",
                            plan.strategy
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_planned_before_first_use() {
        let (g, tape, tso, profile) = setup(4);
        for plan in [
            plan_vdnn(&g, &tape, &tso, &profile, PlannerOptions::default()),
            plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default()),
        ] {
            let mut started = std::collections::HashSet::new();
            for (pos, _, e) in plan.events() {
                match e {
                    MemEvent::PrefetchStart { tso, .. } => {
                        started.insert((*tso, pos));
                    }
                    MemEvent::PrefetchSync { tso } => {
                        assert!(
                            started.iter().any(|&(t, p)| t == *tso && p <= pos),
                            "sync before start for {tso:?}"
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn theoretical_fraction_scales_with_bandwidth() {
        let (g, tape, tso, _) = setup(3);
        let slow = Profile::uniform(&g, 1e-3, 1e6);
        let fast = Profile::uniform(&g, 1e-3, 1e12);
        let fs = theoretical_offload_fraction(&g, &tape, &tso, &slow);
        let ff = theoretical_offload_fraction(&g, &tape, &tso, &fast);
        assert!(fs < ff);
        assert_eq!(ff, 1.0);
        assert!(fs < 0.1);
    }

    #[test]
    fn every_offload_has_sync_and_refetch_lifecycle() {
        let (g, tape, tso, profile) = setup(3);
        let plan = plan_hmms(&g, &tape, &tso, &profile, PlannerOptions::default());
        for &t in &plan.offloaded {
            let evs: Vec<&MemEvent> = plan
                .events()
                .filter(|(_, _, e)| e.tso() == t)
                .map(|(_, _, e)| e)
                .collect();
            let count = |f: fn(&MemEvent) -> bool| evs.iter().filter(|e| f(e)).count();
            assert_eq!(count(|e| matches!(e, MemEvent::Alloc(_))), 2, "{t:?}");
            assert_eq!(count(|e| matches!(e, MemEvent::Free(_))), 2, "{t:?}");
            assert_eq!(count(|e| matches!(e, MemEvent::OffloadStart { .. })), 1);
            assert_eq!(count(|e| matches!(e, MemEvent::OffloadSync { .. })), 1);
            assert_eq!(count(|e| matches!(e, MemEvent::PrefetchStart { .. })), 1);
            assert_eq!(count(|e| matches!(e, MemEvent::PrefetchSync { .. })), 1);
        }
    }
}
