//! Micro-batched execution properties (the planner's third axis):
//!
//! - **Bit identity** — training with per-conv micro-batch schedules
//!   (uniform u ∈ {1, 2, B} and the planner's own schedule) produces the
//!   same losses and the same parameter bits as full-batch execution, at
//!   any thread count;
//! - **Every entry chunks** — on the repo benchmark's graph the planner
//!   schedules exactly the convs whose workspace micro-batching shrinks;
//! - **An e2e epoch** — a split ResNet-18 epoch over a small dataset stays
//!   bit-identical under micro-batching, across `SCNN_THREADS` ∈ {1, 4};
//! - **Plan integration** — the schedule threaded through `ExecPlan` into
//!   `PlanRuntime` never plans a larger overlapped pool than the legacy
//!   full-batch model, and the runtime's executor honors it bit-exactly.

use std::sync::Arc;

use scnn_core::{
    conv_engine_workspace, conv_micro_workspace, plan_micro_schedule, plan_split, SplitConfig,
};
use scnn_graph::{Graph, MicroBatchSchedule, NodeId, Op, ParamId, Tape};
use scnn_hmms::{
    export_plan_with, plan_hmms, LayoutOptions, PlannerOptions, Profile, TsoAssignment, TsoOptions,
};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, Executor, Mode, ParamStore, Sgd, VecProvider};
use scnn_rng::SplitRng;
use scnn_runtime::PlanRuntime;
use scnn_tensor::{micro_batch_aligned, uniform, Conv2dGeometry, Padding2d, Tensor};

fn split_resnet_graph(width: f64, batch: usize) -> Graph {
    let desc = resnet18(&ModelOptions::cifar().with_width(width));
    plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet splits")
        .lower(&desc, batch)
}

fn batch_for(graph: &Graph, seed: u64) -> (Tensor, Vec<usize>) {
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let mut rng = SplitRng::seed_from_u64(seed);
    let images = uniform(&mut rng, &dims, -1.0, 1.0);
    let labels = (0..dims[0]).map(|i| (i * 3 + 1) % 10).collect();
    (images, labels)
}

/// The cropped conv geometry of `node` — mirrors the executor's view, for
/// checking a forced micro-batch is aligned before scheduling it.
fn conv_geometry(graph: &Graph, id: NodeId) -> Option<(Conv2dGeometry, usize)> {
    let node = graph.node(id);
    let Op::Conv2d {
        kh, kw, sh, sw, pad, ..
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
    Some((Conv2dGeometry::new(xs[1], h, w, *kh, *kw, *sh, *sw, pos), xs[0]))
}

/// A uniform schedule: every conv whose geometry admits micro-batch `u`
/// bit-exactly gets `u`; others stay full-batch.
fn uniform_schedule(graph: &Graph, u: usize) -> MicroBatchSchedule {
    let batch = graph.node(NodeId(0)).out_shape[0];
    let mut schedule = MicroBatchSchedule::new(batch);
    for node in graph.nodes() {
        let Some((g, n)) = conv_geometry(graph, node.id) else {
            continue;
        };
        if micro_batch_aligned(&g, u, n) {
            schedule.insert(node.id, u);
        }
    }
    schedule
}

/// `steps` SGD steps under `exec` at `threads`; returns losses and params.
fn train(
    graph: &Graph,
    exec: &Executor,
    provider: &mut dyn scnn_nn::BufferProvider,
    threads: usize,
    steps: usize,
) -> (Vec<f32>, ParamStore) {
    scnn_par::with_threads(threads, || {
        let mut params = ParamStore::init(graph, &mut SplitRng::seed_from_u64(7));
        let mut bn = BnState::new();
        let mut rng = SplitRng::seed_from_u64(13);
        let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut losses = Vec::new();
        for step in 0..steps {
            let (images, labels) = batch_for(graph, 100 + step as u64);
            losses.push(
                exec.run_with(
                    graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, provider,
                )
                .loss,
            );
            sgd.step(&mut params);
        }
        (losses, params)
    })
}

fn assert_params_equal(graph: &Graph, a: &ParamStore, b: &ParamStore, what: &str) {
    for i in 0..graph.params().len() {
        assert_eq!(
            a.value(ParamId(i)).as_slice(),
            b.value(ParamId(i)).as_slice(),
            "param {i} bits diverged: {what}"
        );
    }
}

#[test]
fn micro_batched_training_is_bit_identical_at_any_thread_count() {
    let graph = split_resnet_graph(0.125, 4);
    let exec_full = Executor::new();
    let (ref_losses, ref_params) = train(&graph, &exec_full, &mut VecProvider, 1, 2);

    // Uniform micro-batch sizes 1, 2 and B (B = the full batch run through
    // the chunk loop).
    for u in [1usize, 2, 4] {
        let schedule = uniform_schedule(&graph, u);
        assert!(
            !schedule.is_empty(),
            "no conv admits micro-batch {u} — vacuous case"
        );
        let exec = Executor::with_micro(Arc::new(schedule));
        for threads in [1usize, 4] {
            let (losses, params) = train(&graph, &exec, &mut VecProvider, threads, 2);
            assert_eq!(losses, ref_losses, "losses diverged: u={u} t={threads}");
            assert_params_equal(&graph, &ref_params, &params, &format!("u={u} t={threads}"));
        }
    }

    // The planner's own schedule.
    let schedule = plan_micro_schedule(&graph);
    assert!(!schedule.is_empty(), "planner schedule is vacuous");
    let exec = Executor::with_micro(Arc::new(schedule));
    for threads in [1usize, 4] {
        let (losses, params) = train(&graph, &exec, &mut VecProvider, threads, 2);
        assert_eq!(losses, ref_losses, "planner schedule diverged at {threads} threads");
        assert_params_equal(&graph, &ref_params, &params, "planner schedule");
    }
}

#[test]
fn every_planned_entry_chunks_on_the_benchmark_graph() {
    // ResNet-18 cifar width 0.5, batch 8, split (0.5, 2, 2) has 50 convs.
    // The five whose `dw` reduction is a single block (layer4 and its
    // shortcut) have no workspace to shrink; the other 45 chunk.
    let batch = 8;
    let schedule = plan_micro_schedule(&split_resnet_graph(0.5, batch));
    assert_eq!(schedule.batch, batch);
    assert_eq!(schedule.len(), 45);
    for (id, micro_batch) in schedule.iter() {
        assert!(micro_batch < batch, "entry for {id:?} runs the full batch");
    }
}

#[test]
fn split_resnet_epoch_stays_bit_identical_under_micro_batching() {
    // A small e2e epoch: 4 mini-batches of 4 images through a split
    // ResNet-18, full-batch vs the planner's micro schedule, at 1 and 4
    // threads — every loss and every trained parameter bit must agree.
    let graph = split_resnet_graph(0.125, 4);
    let (ref_losses, ref_params) = train(&graph, &Executor::new(), &mut VecProvider, 1, 4);
    let schedule = plan_micro_schedule(&graph);
    assert!(!schedule.is_empty(), "planner schedule is vacuous");
    let exec = Executor::with_micro(Arc::new(schedule));
    for threads in [1usize, 4] {
        let (losses, params) = train(&graph, &exec, &mut VecProvider, threads, 4);
        assert_eq!(losses, ref_losses, "epoch losses diverged at {threads} threads");
        assert_params_equal(&graph, &ref_params, &params, &format!("epoch t={threads}"));
    }
}

#[test]
fn plan_runtime_honors_the_micro_schedule_bit_exactly() {
    let graph = split_resnet_graph(0.25, 4);
    let tape = Tape::new(&graph);
    let fallback = vec![0; graph.len()];
    let profile = Profile {
        fwd_time: vec![1e-3; graph.len()],
        bwd_time: vec![2e-3; graph.len()],
        workspace_bytes: fallback.clone(),
        link_bandwidth: 30e9,
    };
    let overlap = LayoutOptions {
        overlap_workspace: true,
    };

    // Legacy full-batch model.
    let ws = conv_engine_workspace(&graph, &fallback);
    let tso = TsoAssignment::new(&graph, &ws, TsoOptions::default());
    let plan = plan_hmms(&graph, &tape, &tso, &profile, PlannerOptions::default());
    let legacy = export_plan_with(&graph, &tape, &plan, &tso, overlap)
        .expect("legacy plan exports")
        .layout
        .device_general_bytes;

    // Micro-batched model, schedule carried by the exported plan.
    let schedule = plan_micro_schedule(&graph);
    assert!(!schedule.is_empty(), "planner schedule is vacuous");
    let ws_micro = conv_micro_workspace(&graph, &fallback, &schedule);
    let tso_micro = TsoAssignment::new(&graph, &ws_micro, TsoOptions::default());
    let plan_micro = plan_hmms(&graph, &tape, &tso_micro, &profile, PlannerOptions::default());
    let exec_plan = export_plan_with(&graph, &tape, &plan_micro, &tso_micro, overlap)
        .expect("micro plan exports")
        .with_micro_schedule(Arc::new(schedule));
    let mut rt = PlanRuntime::new(&graph, exec_plan).expect("runtime builds");
    assert!(
        rt.plan().layout.device_general_bytes <= legacy,
        "micro plan grew the overlapped pool: {} vs {}",
        rt.plan().layout.device_general_bytes,
        legacy
    );

    // The runtime-built executor (which carries the schedule) trains
    // bit-identically to the full-batch Vec baseline.
    let (ref_losses, ref_params) = train(&graph, &Executor::new(), &mut VecProvider, 1, 2);
    let exec = rt.executor();
    let (losses, params) = train(&graph, &exec, &mut rt, 1, 2);
    assert_eq!(losses, ref_losses, "plan runtime losses diverged");
    assert_params_equal(&graph, &ref_params, &params, "plan runtime");
}
