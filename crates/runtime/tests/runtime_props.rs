//! End-to-end properties of the plan-executing runtime:
//!
//! - **Planned means physical, one way, on every plan** — what a step
//!   keeps resident never exceeds the pool its plan reserved, on a VGG
//!   tower and a split ResNet × zero / engine workspace × first-fit /
//!   packed layout × every strategy, the host tier and transfer counts are
//!   the plan's, and the strategies order the way their plans do: HMMS
//!   below no-offload below the Vec-per-node baseline;
//! - **Bit identity** — training under [`PlanRuntime`] produces the same
//!   losses and the same parameter bits as the Vec-per-node baseline, at
//!   any thread count, and still does when two runtimes over one
//!   [`PlanTables`] step interleaved (each has a host tier of its own);
//! - **Savings** — the plan-driven lifetimes keep fewer activation bytes
//!   resident than the baseline;
//! - **Offload from where it lies** — a plan whose Free drops an aliased
//!   TSO's buffers between its OffloadStart and its OffloadSync still
//!   trains to the baseline's bits: the offload borrows nothing past its
//!   start event;
//! - **Tape order** — a training step runs the order its plan was made
//!   for: `forward_complete` follows every `adopt`, in ascending node id,
//!   so each planned event replays at its own tape position and the first
//!   offload is in flight while later patches still compute;
//! - **Adoption is the identity, and one meter** — `adopt` returns the
//!   very buffer the kernel made, and `resident_bytes()` equals the bytes
//!   in the `outputs` table after every lifetime hook;
//! - **Failures are values** — a plan paired with the wrong graph, or a
//!   training plan over a `recompute: true` batch norm, is a
//!   `RuntimeError`, not a panic.

use scnn_core::{conv_engine_workspace, lower_unsplit, plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId, Op, ParamId, Tape};
use scnn_hmms::{
    plan_hmms, plan_layout, plan_layout_with, plan_no_offload, plan_vdnn, LayoutOptions,
    MemoryPlan, PlannerOptions, Profile, TsoAssignment, TsoOptions,
};
use scnn_models::{resnet18, vgg19, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore, Sgd, VecProvider};
use scnn_rng::SplitRng;
use scnn_runtime::{MeterProvider, PlanRuntime, PlanTables, RuntimeError};
use scnn_tensor::{uniform, Tensor};

fn vgg_graph(batch: usize) -> Graph {
    let desc = vgg19(&ModelOptions::cifar().with_width(0.125));
    lower_unsplit(&desc, batch)
}

fn split_resnet_graph(batch: usize) -> Graph {
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
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

fn plans(graph: &Graph) -> (Tape, TsoAssignment, Vec<MemoryPlan>) {
    let tape = Tape::new(graph);
    let tso = TsoAssignment::new(graph, &vec![0; graph.len()], TsoOptions::default());
    let profile = Profile::uniform(graph, 1e-3, 30e9);
    let plans = vec![
        plan_no_offload(graph, &tape, &tso, &profile),
        plan_vdnn(graph, &tape, &tso, &profile, PlannerOptions::default()),
        plan_hmms(graph, &tape, &tso, &profile, PlannerOptions::default()),
    ];
    (tape, tso, plans)
}

/// Like [`plans`], but with the tiled conv engine's real scratch sizes in
/// the TSO table — the workspace traffic the overlap pass packs into
/// offload windows.
fn plans_with_workspace(graph: &Graph) -> (Tape, TsoAssignment, Vec<MemoryPlan>) {
    let tape = Tape::new(graph);
    let ws = conv_engine_workspace(graph, &vec![0; graph.len()]);
    let tso = TsoAssignment::new(graph, &ws, TsoOptions::default());
    let profile = Profile {
        fwd_time: vec![1e-3; graph.len()],
        bwd_time: vec![2e-3; graph.len()],
        workspace_bytes: ws,
        link_bandwidth: 30e9,
    };
    let plans = vec![
        plan_no_offload(graph, &tape, &tso, &profile),
        plan_vdnn(graph, &tape, &tso, &profile, PlannerOptions::default()),
        plan_hmms(graph, &tape, &tso, &profile, PlannerOptions::default()),
    ];
    (tape, tso, plans)
}

/// One train step under the given runtime; returns the loss.
fn step_with(
    graph: &Graph,
    params: &mut ParamStore,
    bn: &mut BnState,
    rng: &mut SplitRng,
    images: &Tensor,
    labels: &[usize],
    provider: &mut dyn scnn_nn::BufferProvider,
) -> f32 {
    Executor::new()
        .run_with(graph, params, bn, images, labels, Mode::Train, rng, provider)
        .loss
}

#[test]
fn resident_stays_within_the_planned_pool_on_every_plan() {
    let models = [("vgg19 w0.125", vgg_graph(2)), ("split resnet18 w0.25", split_resnet_graph(2))];
    for (model, graph) in &models {
        let (images, labels) = batch_for(graph, 11);
        for (workspace, (tape, tso, plans)) in
            [("zero", plans(graph)), ("engine", plans_with_workspace(graph))]
        {
            for (layout, opts) in [("first-fit", LayoutOptions::default()), ("packed", OVERLAP)] {
                for plan in &plans {
                    let at = format!("{model}, {workspace} workspace, {layout}, {}", plan.strategy);
                    let mut rt = PlanRuntime::from_plan_with(graph, &tape, plan, &tso, opts)
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    fresh_step(graph, &images, &labels, &mut rt);
                    let (stats, planned) = (rt.stats(), &rt.plan().layout);
                    assert!(
                        stats.resident_peak_bytes <= planned.device_general_bytes,
                        "{at}: {} B resident in a planned pool of {} B",
                        stats.resident_peak_bytes,
                        planned.device_general_bytes
                    );
                    assert_eq!(stats.host_bytes, planned.host_pool_bytes, "{at}: host pool");
                    assert_eq!(stats.offloads, plan.offloaded.len(), "{at}: offloads");
                    assert_eq!(stats.prefetches, plan.offloaded.len(), "{at}: prefetches");
                }
            }
        }
    }
}

#[test]
fn workspace_overlap_strictly_shrinks_planned_pool() {
    // The PR's headline number: with real conv scratch in the TSO table,
    // packing workspace into offload windows strictly shrinks the planned
    // device pool on both reference models — and leaves plans with no
    // offloads untouched.
    for graph in [vgg_graph(2), split_resnet_graph(2)] {
        let (_tape, tso, plans) = plans_with_workspace(&graph);
        let overlap = LayoutOptions {
            overlap_workspace: true,
        };
        for plan in plans {
            let plain = plan_layout(&graph, &plan, &tso).expect("plan is legal");
            let packed =
                plan_layout_with(&graph, &plan, &tso, overlap).expect("plan is legal with overlap");
            if plan.offloaded.is_empty() {
                assert_eq!(packed.addresses, plain.addresses, "{}", plan.strategy);
                assert_eq!(packed.workspace_overlapped_bytes, 0);
            } else {
                assert!(
                    packed.device_general_bytes < plain.device_general_bytes,
                    "{}: overlap did not shrink the pool ({} vs {})",
                    plan.strategy,
                    packed.device_general_bytes,
                    plain.device_general_bytes
                );
                assert!(
                    packed.workspace_overlapped_bytes > 0,
                    "{}: no workspace shares an offload window",
                    plan.strategy
                );
            }
        }
    }
}

#[test]
fn training_is_bit_identical_to_vec_baseline_at_any_thread_count() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans(&graph);
    let hmms = plans.into_iter().last().expect("hmms plan");
    let (wtape, wtso, wplans) = plans_with_workspace(&graph);
    let whmms = wplans.into_iter().last().expect("hmms plan");
    let n_params = graph.params().len();

    // Providers: 0 = Vec-per-node reference, 1 = plan runtime on the plain
    // layout, 2 = plan runtime on the workspace-overlapped packed layout.
    // Reference: two SGD steps under the Vec provider, serial.
    let run = |provider_kind: u8, threads: usize| -> (Vec<f32>, ParamStore) {
        scnn_par::with_threads(threads, || {
            let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
            let mut bn = BnState::new();
            let mut rng = SplitRng::seed_from_u64(13);
            let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
            let mut vec_provider = VecProvider;
            let mut rt = PlanRuntime::from_plan(&graph, &tape, &hmms, &tso)
                .expect("plan is legal");
            let overlap = LayoutOptions {
                overlap_workspace: true,
            };
            let mut wrt = PlanRuntime::from_plan_with(&graph, &wtape, &whmms, &wtso, overlap)
                .expect("plan is legal with overlap");
            let mut losses = Vec::new();
            for step in 0..2 {
                let (images, labels) = batch_for(&graph, 100 + step);
                let provider: &mut dyn scnn_nn::BufferProvider = match provider_kind {
                    0 => &mut vec_provider,
                    1 => &mut rt,
                    _ => &mut wrt,
                };
                losses.push(step_with(
                    &graph, &mut params, &mut bn, &mut rng, &images, &labels, provider,
                ));
                sgd.step(&mut params);
            }
            (losses, params)
        })
    };

    let (ref_losses, ref_params) = run(0, 1);
    for kind in [1u8, 2] {
        for threads in [1, 4] {
            let (losses, params) = run(kind, threads);
            assert_eq!(
                losses, ref_losses,
                "losses diverged at {threads} threads (provider {kind})"
            );
            for i in 0..n_params {
                let a = ref_params.value(ParamId(i)).as_slice();
                let b = params.value(ParamId(i)).as_slice();
                assert_eq!(
                    a, b,
                    "param {i} bits diverged at {threads} threads (provider {kind})"
                );
            }
        }
    }
}

/// Forwards every hook to `runtime`; when node `at`'s forward completes —
/// after the plan has offloaded earlier activations and before backward
/// prefetches them — runs all of `nested` first.
struct Interleave<'a> {
    runtime: &'a mut PlanRuntime,
    at: usize,
    nested: &'a mut dyn FnMut(),
}

impl BufferProvider for Interleave<'_> {
    fn begin_step(&mut self, n_nodes: usize) {
        self.runtime.begin_step(n_nodes);
    }

    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        self.runtime.adopt(node, out)
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.forward_complete(node, outputs);
        if node == self.at {
            (self.nested)();
        }
    }

    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.before_backward(node, outputs);
    }

    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.after_backward(node, outputs);
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.runtime.end_step(outputs);
    }
}

/// Two HMMS runtimes over one shared [`PlanTables`], training different
/// parameters on different data: each of `a`'s steps runs a whole step of
/// `b` in the middle of its forward pass, between `a`'s offloads and its
/// prefetches, at the same host offsets. Both still train to the
/// Vec-per-node bits — no runtime reads another's host tier.
#[test]
fn two_runtimes_over_one_table_step_interleaved_to_vec_bits() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans(&graph);
    let hmms = plans.last().expect("hmms plan");
    let exec = scnn_hmms::export_plan(&graph, &tape, hmms, &tso).expect("plan exports");
    assert!(
        exec.layout.host_pool_bytes > 0,
        "the hmms plan stages bytes off-device"
    );
    let tables = PlanTables::new(&graph, exec).expect("plan resolves");
    let mut rt_a = PlanRuntime::from_tables(tables.clone()).expect("tier a builds");
    let mut rt_b = PlanRuntime::from_tables(tables).expect("tier b builds");

    struct Trainer {
        params: ParamStore,
        bn: BnState,
        rng: SplitRng,
        sgd: Sgd,
        data_seed: u64,
        losses: Vec<f32>,
    }
    let trainer = |seed: u64| {
        let params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(seed));
        let sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
        Trainer {
            params,
            bn: BnState::new(),
            rng: SplitRng::seed_from_u64(seed + 6),
            sgd,
            data_seed: 100 * seed,
            losses: Vec::new(),
        }
    };
    let step = |t: &mut Trainer, provider: &mut dyn BufferProvider| {
        let (images, labels) = batch_for(&graph, t.data_seed + t.losses.len() as u64);
        let loss = step_with(
            &graph,
            &mut t.params,
            &mut t.bn,
            &mut t.rng,
            &images,
            &labels,
            provider,
        );
        t.sgd.step(&mut t.params);
        t.losses.push(loss);
    };

    let (mut a, mut b) = (trainer(7), trainer(8));
    for _ in 0..2 {
        let mut nested = || step(&mut b, &mut rt_b);
        let mut outer = Interleave {
            runtime: &mut rt_a,
            at: graph.len() / 2,
            nested: &mut nested,
        };
        step(&mut a, &mut outer);
    }
    assert_eq!(b.losses.len(), 2, "b stepped inside each of a's steps");
    assert!(rt_a.stats().offloads > 0, "a's step offloaded");

    for (name, got, seed) in [("a", a, 7), ("b", b, 8)] {
        let mut want = trainer(seed);
        for _ in 0..2 {
            step(&mut want, &mut VecProvider);
        }
        assert_eq!(got.losses, want.losses, "runtime {name}: losses diverged");
        for i in 0..graph.params().len() {
            let (x, y) = (want.params.value(ParamId(i)), got.params.value(ParamId(i)));
            assert_eq!(
                x.as_slice(),
                y.as_slice(),
                "runtime {name}: param {i} bits diverged"
            );
        }
    }
}

/// A `recompute: true` BN tells the planner its input is dead after
/// forward, but the executor's BN backward regenerates `x̂` from that
/// input and keeps nothing else: every plan that trains such a graph is
/// refused, as a value naming the first flagged node. Off the plans the
/// flag changes nothing — the Vec-per-node path trains the flagged graph
/// to the unflagged graph's bits (and `serve_props` serves it to the
/// unflagged logits).
#[test]
fn bn_recompute_training_plan_is_refused_and_the_graph_trains_unflagged_bits() {
    let lower = |opts: ModelOptions| {
        let desc = resnet18(&opts.with_width(0.25));
        plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
            .expect("resnet splits")
            .lower(&desc, 2)
    };
    let graph = lower(ModelOptions::cifar().with_bn_recompute());
    let first = graph
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Op::BatchNorm { recompute: true, .. }))
        .expect("the flag reached the lowered graph");
    let (tape, tso, plans) = plans(&graph);
    for plan in &plans {
        let err = PlanRuntime::from_plan(&graph, &tape, plan, &tso)
            .err()
            .unwrap_or_else(|| panic!("{}: a training plan over a recompute BN built", plan.strategy));
        assert_eq!(err, RuntimeError::RecomputeBn { node: first.id.0, name: first.name.clone() });
    }

    let two_steps = |graph: &Graph| {
        let mut params = ParamStore::init(graph, &mut SplitRng::seed_from_u64(7));
        let mut bn = BnState::new();
        let mut rng = SplitRng::seed_from_u64(13);
        let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut losses = Vec::new();
        for step in 0..2 {
            let (images, labels) = batch_for(graph, 100 + step);
            losses.push(step_with(
                graph, &mut params, &mut bn, &mut rng, &images, &labels, &mut VecProvider,
            ));
            sgd.step(&mut params);
        }
        (losses, params)
    };
    let (flagged, unflagged) = (two_steps(&graph), two_steps(&lower(ModelOptions::cifar())));
    assert_eq!(flagged.0, unflagged.0, "losses diverged");
    for i in 0..graph.params().len() {
        let (a, b) = (unflagged.1.value(ParamId(i)), flagged.1.value(ParamId(i)));
        assert_eq!(a.as_slice(), b.as_slice(), "param {i} bits diverged");
    }
}

#[test]
fn plan_driven_lifetimes_beat_the_vec_baseline() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans(&graph);
    let hmms = plans.into_iter().last().expect("hmms plan");
    let (images, labels) = batch_for(&graph, 21);

    let mut meter = MeterProvider::new();
    let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    step_with(&graph, &mut params, &mut bn, &mut rng, &images, &labels, &mut meter);

    let mut rt = PlanRuntime::from_plan(&graph, &tape, &hmms, &tso).expect("plan is legal");
    let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    step_with(&graph, &mut params, &mut bn, &mut rng, &images, &labels, &mut rt);

    let stats = rt.stats();
    assert!(
        stats.resident_peak_bytes < meter.peak_bytes(),
        "runtime kept {} B resident but the baseline peaks at {} B",
        stats.resident_peak_bytes,
        meter.peak_bytes()
    );
    assert!(stats.offloads > 0, "hmms plan should offload on this model");
}

#[derive(Debug, PartialEq)]
enum Hook {
    Adopt(usize),
    Complete(usize),
}

/// Forwards every hook to the runtime, recording the forward ones and how
/// many offloads had been issued when each node's output was adopted.
/// Along the way it holds the runtime to two storage facts: `adopt` hands
/// back the buffer it was given, and after every lifetime hook
/// `resident_bytes()` is the byte total of the `outputs` table.
struct Recorder {
    runtime: PlanRuntime,
    forward: Vec<Hook>,
    offloads_at_adopt: Vec<usize>,
    meter_checks: usize,
}

impl Recorder {
    fn new(runtime: PlanRuntime) -> Self {
        Recorder {
            runtime,
            forward: Vec::new(),
            offloads_at_adopt: Vec::new(),
            meter_checks: 0,
        }
    }

    fn check_meter(&mut self, hook: &str, node: usize, outputs: &[Option<Tensor>]) {
        let table: usize = outputs.iter().flatten().map(|t| t.len() * 4).sum();
        assert_eq!(
            self.runtime.resident_bytes(),
            table,
            "resident_bytes() left the outputs table after {hook}({node})"
        );
        self.meter_checks += 1;
    }
}

impl BufferProvider for Recorder {
    fn begin_step(&mut self, n_nodes: usize) {
        self.runtime.begin_step(n_nodes);
    }

    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        self.forward.push(Hook::Adopt(node));
        self.offloads_at_adopt.push(self.runtime.stats().offloads);
        let (ptr, bits) = (out.as_slice().as_ptr(), out.clone());
        let adopted = self.runtime.adopt(node, out);
        assert_eq!(adopted.as_slice().as_ptr(), ptr, "adopt moved node {node}'s buffer");
        assert_eq!(adopted, bits, "adopt changed node {node}'s bits or shape");
        adopted
    }

    fn forward_complete(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.forward.push(Hook::Complete(node));
        self.runtime.forward_complete(node, outputs);
        self.check_meter("forward_complete", node, outputs);
    }

    fn before_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.before_backward(node, outputs);
        self.check_meter("before_backward", node, outputs);
    }

    fn after_backward(&mut self, node: usize, outputs: &mut [Option<Tensor>]) {
        self.runtime.after_backward(node, outputs);
        self.check_meter("after_backward", node, outputs);
    }

    fn end_step(&mut self, outputs: &mut [Option<Tensor>]) {
        self.runtime.end_step(outputs);
    }
}

/// One step from fresh, seeded training state.
fn fresh_step(graph: &Graph, images: &Tensor, labels: &[usize], provider: &mut dyn BufferProvider) {
    let mut params = ParamStore::init(graph, &mut SplitRng::seed_from_u64(7));
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    step_with(graph, &mut params, &mut bn, &mut rng, images, labels, provider);
}

const OVERLAP: LayoutOptions = LayoutOptions {
    overlap_workspace: true,
};

#[test]
fn forward_hooks_follow_the_tape_and_offloads_start_between_patches() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans_with_workspace(&graph);
    let hmms = plans.last().expect("hmms plan");
    let (images, labels) = batch_for(&graph, 21);
    let runtime = PlanRuntime::from_plan_with(&graph, &tape, hmms, &tso, OVERLAP)
        .expect("plan is legal with overlap");
    let mut rec = Recorder::new(runtime);
    fresh_step(&graph, &images, &labels, &mut rec);

    let tape_order = (0..graph.len()).flat_map(|id| [Hook::Adopt(id), Hook::Complete(id)]);
    assert_eq!(rec.forward.len(), 2 * graph.len(), "one adopt and one completion per node");
    for (i, (got, want)) in rec.forward.iter().zip(tape_order).enumerate() {
        assert_eq!(*got, want, "forward hook {i} left tape order");
    }

    let last_patch = graph.nodes().iter().filter_map(|n| n.group).max().expect("graph is split");
    let first_of_last = graph
        .nodes()
        .iter()
        .position(|n| n.group == Some(last_patch))
        .expect("the last patch has nodes");
    assert!(rec.runtime.stats().offloads > 0, "hmms offloads on this model");
    assert!(
        rec.offloads_at_adopt[first_of_last] > 0,
        "no offload was issued before the last patch (node {first_of_last}) started computing"
    );
}

#[test]
fn adopt_is_the_identity_and_resident_bytes_is_the_outputs_table() {
    // The checks live in `Recorder`'s hooks; this drives them over every
    // strategy (frees only, frees + offload/prefetch restores) and says
    // what they covered: conv and ReLU outputs alike, and every forward
    // and backward hook of the step.
    let graph = split_resnet_graph(2);
    let has = |want: fn(&Op) -> bool| graph.nodes().iter().any(|n| want(&n.op));
    assert!(has(|op| matches!(op, Op::Conv2d { .. })) && has(|op| matches!(op, Op::Relu)));
    let (tape, tso, plans) = plans_with_workspace(&graph);
    let (images, labels) = batch_for(&graph, 21);
    for plan in &plans {
        let runtime = PlanRuntime::from_plan_with(&graph, &tape, plan, &tso, OVERLAP)
            .expect("plan is legal with overlap");
        let mut rec = Recorder::new(runtime);
        fresh_step(&graph, &images, &labels, &mut rec);
        assert_eq!(rec.offloads_at_adopt.len(), graph.len(), "{}: one adopt per node", plan.strategy);
        assert_eq!(
            rec.meter_checks,
            3 * graph.len(),
            "{}: one forward and two backward hooks per node",
            plan.strategy
        );
        assert_eq!(rec.runtime.resident_bytes(), 0, "{}: the step ends empty", plan.strategy);
    }
}

#[test]
fn a_plan_for_another_graph_is_an_error_value() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans(&graph);
    let exec = scnn_hmms::export_plan(&graph, &tape, &plans[0], &tso).expect("plan exports");
    let mut longer = graph.clone();
    longer.relu(NodeId(graph.len() - 1), "extra");
    let err = PlanRuntime::new(&longer, exec).err().expect("a plan for a shorter graph must not resolve");
    assert_eq!(
        err,
        RuntimeError::GraphMismatch { plan_nodes: graph.len(), graph_nodes: graph.len() + 1 }
    );
}

#[test]
fn resident_peaks_order_like_the_plans() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans_with_workspace(&graph);
    let (images, labels) = batch_for(&graph, 21);
    let resident: Vec<usize> = plans
        .iter()
        .map(|plan| {
            let mut rt = PlanRuntime::from_plan_with(&graph, &tape, plan, &tso, OVERLAP)
                .expect("plan is legal with overlap");
            fresh_step(&graph, &images, &labels, &mut rt);
            rt.stats().resident_peak_bytes
        })
        .collect();

    let mut meter = MeterProvider::new();
    fresh_step(&graph, &images, &labels, &mut meter);
    // `plans_with_workspace` order: no_offload, vdnn, hmms.
    let (no_offload, hmms) = (resident[0], resident[2]);
    assert!(
        hmms < no_offload && no_offload < meter.peak_bytes(),
        "resident peaks out of order: hmms {hmms} B, no_offload {no_offload} B, Vec-per-node {} B",
        meter.peak_bytes()
    );
}

/// `plan` with one offloaded TSO's Free moved inside its offload window:
/// after the last forward read of its nodes, the TSO's events become
/// OffloadStart, Free, OffloadSync. The runtime then drops the buffers the
/// offload was written from while the plan still counts the transfer as
/// in flight. Returns the edited plan and the TSO.
fn free_inside_an_offload(
    graph: &Graph,
    plan: &scnn_hmms::ExecPlan,
) -> Option<(scnn_hmms::ExecPlan, usize)> {
    use scnn_hmms::{MemEvent, TsoId};
    let consumers = graph.consumers();
    let ours = |t: usize| {
        move |e: &MemEvent| match *e {
            MemEvent::OffloadStart { tso, .. } | MemEvent::OffloadSync { tso } => tso.0 == t,
            MemEvent::Free(tso) => tso.0 == t,
            _ => false,
        }
    };
    let events = || plan.steps.iter().flat_map(|s| s.before.iter().chain(&s.after));
    // An aliased TSO (a batch norm and the ReLU over it), so the drop
    // releases more than one node's buffer.
    let mut aliased = plan.alias_nodes.iter().enumerate().filter(|(_, nodes)| nodes.len() > 1);
    let (t, stream, last_read) = aliased.find_map(|(t, nodes)| {
        let stream = events().find_map(|e| match *e {
            MemEvent::OffloadStart { tso, stream } if tso.0 == t => Some(stream),
            _ => None,
        })?;
        let last_read = nodes.iter().flat_map(|&n| consumers[n].iter().map(|c| c.0)).max()?;
        (last_read < plan.forward_len).then_some((t, stream, last_read))
    })?;
    let mut edited = plan.clone();
    for s in &mut edited.steps {
        s.before.retain(|e| !ours(t)(e));
        s.after.retain(|e| !ours(t)(e));
    }
    let tso = TsoId(t);
    edited.steps[last_read].after.extend([
        MemEvent::OffloadStart { tso, stream },
        MemEvent::Free(tso),
        MemEvent::OffloadSync { tso },
    ]);
    Some((edited, t))
}

#[test]
fn a_buffer_freed_while_its_offload_is_pending_trains_to_vec_bits() {
    let graph = split_resnet_graph(2);
    let (tape, tso, plans) = plans(&graph);
    let hmms = plans.into_iter().last().expect("hmms plan");
    let plan = scnn_hmms::export_plan(&graph, &tape, &hmms, &tso).expect("plan is legal");
    let (plan, t) = free_inside_an_offload(&graph, &plan).expect("the HMMS plan offloads");
    let run = |runtime: bool| {
        let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
        let (mut bn, mut rng) = (BnState::new(), SplitRng::seed_from_u64(13));
        let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
        let mut rt = PlanRuntime::new(&graph, plan.clone()).expect("runtime builds");
        let mut losses = Vec::new();
        for step in 0..2 {
            let (images, labels) = batch_for(&graph, 200 + step);
            let provider: &mut dyn BufferProvider =
                if runtime { &mut rt } else { &mut VecProvider };
            let loss = step_with(&graph, &mut params, &mut bn, &mut rng, &images, &labels, provider);
            losses.push(loss);
            sgd.step(&mut params);
        }
        (losses, params)
    };
    let (want, want_params) = run(false);
    let (got, got_params) = run(true);
    assert_eq!(got, want, "losses diverged with TSO {t} freed inside its offload");
    for i in 0..graph.params().len() {
        let bits = |p: &ParamStore| -> Vec<u32> {
            p.value(ParamId(i)).as_slice().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&got_params), bits(&want_params), "param {i} bits diverged");
    }
}
