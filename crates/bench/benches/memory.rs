//! Peak activation memory of one real training step, per memory strategy,
//! on a split model — the live counterpart of the planning-time Figure 9
//! numbers. Results land in `BENCH_memory.json`; each record carries both
//! the step time and a `peak_bytes` annotation:
//!
//! - `train_step/vec_baseline` — the unmanaged Vec-per-node executor path,
//!   peak measured by [`MeterProvider`];
//! - `train_step/{baseline,vdnn,hmms}` — the same step under
//!   [`PlanRuntime`], peak = physically resident activation bytes under
//!   that plan's lifetimes (the step runs in tape order, so each strategy
//!   reads its own figure; the share of its planned pool is printed).
//!
//! The plan's own figures — device pool and its workspace share
//! (`layout.device_general_bytes` / `device_workspace_bytes`), host pool —
//! are printed alongside for context.
//! With `--features heap-track` the process-wide heap high-water is also
//! printed per strategy (the allocator counter includes params, grads and
//! kernel scratch, so it is strictly larger than the activation numbers),
//! and `heap_saved/hmms` records how far the HMMS step's high-water sits
//! below the Vec-per-node step's — the process-level reading of "planned
//! means physical", gated by `scripts/verify.sh` at no less than the smoke
//! plan's `host_pool_bytes`, since the host tier is a file off the heap.
//!
//! `minor_faults_per_step/*` (a count in `peak_bytes`) is how many pages a
//! steady-state step takes back from the kernel — the allocator trimming
//! and re-growing its heap between steps, which ROADMAP item 1's arena
//! exists to end. `vec_baseline` and `hmms` are recorded, not gated.
//! `vec_unsplit` is the repo benchmark's `train_plain` step (the unsplit
//! graph, one training state and one [`MeterProvider`] across steps, whose
//! forward writes into the buffers the last step wrote); `scripts/verify.sh`
//! holds it under a ceiling in the full run.

use std::sync::Arc;

use scnn_bench::{Args, BenchGroup};
use scnn_core::{
    conv_engine_workspace, conv_micro_workspace, lower_unsplit, plan_micro_schedule, plan_split,
    SplitConfig,
};
use scnn_graph::{Graph, NodeId, Tape};
use scnn_gpusim::{max_batch_size, profile_graph, CostModel};
use scnn_hmms::{
    export_plan_with, plan_hmms, plan_layout, plan_no_offload, plan_vdnn, LayoutOptions,
    MemoryPlan, PlannerOptions, TsoAssignment, TsoOptions,
};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore, Sgd};
use scnn_rng::SplitRng;
use scnn_runtime::{MeterProvider, PlanRuntime};
use scnn_tensor::uniform;

#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: scnn_bench::heap::CountingAlloc = scnn_bench::heap::CountingAlloc;

fn main() {
    let smoke = Args::parse(&["smoke", "bench"]).bool("smoke");
    let mut g = BenchGroup::new("memory");
    if smoke {
        g.sample_size(1);
        g.warmup(0);
    } else {
        g.sample_size(3);
        g.warmup(1);
    }

    let (width, batch) = if smoke { (0.125, 2) } else { (0.5, 8) };
    let desc = resnet18(&ModelOptions::cifar().with_width(width));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet splits")
        .lower(&desc, batch);

    let tape = Tape::new(&graph);
    let model = CostModel::default();
    let profile = profile_graph(&graph, &model);
    let ws = conv_engine_workspace(&graph, &profile.workspace_bytes);
    let tso = TsoAssignment::new(&graph, &ws, TsoOptions::default());
    let opts = PlannerOptions::default();
    let plans: Vec<MemoryPlan> = vec![
        plan_no_offload(&graph, &tape, &tso, &profile),
        plan_vdnn(&graph, &tape, &tso, &profile, opts),
        plan_hmms(&graph, &tape, &tso, &profile, opts),
    ];

    let dims = graph.node(NodeId(0)).out_shape.clone();
    let images = uniform(&mut SplitRng::seed_from_u64(11), &dims, -1.0, 1.0);
    let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % 10).collect();
    let exec = Executor::new();

    // One fresh training state per strategy: every measured step starts
    // from the same parameters, so times and peaks are comparable.
    let step = |provider: &mut dyn BufferProvider| {
        let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
        let mut bn = BnState::new();
        let mut rng = SplitRng::seed_from_u64(13);
        exec.run_with(
            &graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, provider,
        )
        .loss
    };

    #[cfg(feature = "heap-track")]
    scnn_bench::heap::reset_peak();
    let mut meter = MeterProvider::new();
    g.bench("train_step/vec_baseline", || step(&mut meter));
    g.set_peak_bytes(meter.peak_bytes());
    println!(
        "  vec_baseline: resident activation peak {} B{}",
        meter.peak_bytes(),
        heap_note()
    );
    #[cfg(feature = "heap-track")]
    let vec_heap_peak = scnn_bench::heap::peak_bytes();
    g.record_bytes("minor_faults_per_step/vec_baseline", steady_step_faults(smoke, &graph, &mut meter));
    // A live meter holds a step's activations; the plan records below
    // measure against a heap without them.
    drop(meter);

    let overlap = LayoutOptions {
        overlap_workspace: true,
    };
    for plan in &plans {
        // The measured step runs on the overlapped layout; the plain
        // layout is re-planned only to print the overlap saving.
        let plain = plan_layout(&graph, plan, &tso).expect("plan is legal");
        let mut rt = PlanRuntime::from_plan_with(&graph, &tape, plan, &tso, overlap)
            .expect("plan is legal with overlap");
        #[cfg(feature = "heap-track")]
        scnn_bench::heap::reset_peak();
        g.bench(&format!("train_step/{}", plan.strategy), || step(&mut rt));
        let stats = rt.stats();
        g.set_peak_bytes(stats.resident_peak_bytes);
        let layout = &rt.plan().layout;
        println!(
            "  {}: resident {} B = {:.2} × device pool {} B (plain {} B, workspace {} B planned, \
             {} B overlapped into offload windows), host pool {} B, \
             kernel scratch peak {} B, {} offloads / {} prefetches{}",
            plan.strategy,
            stats.resident_peak_bytes,
            resident_over_planned(&rt),
            layout.device_general_bytes,
            plain.device_general_bytes,
            layout.device_workspace_bytes,
            layout.workspace_overlapped_bytes,
            stats.host_bytes,
            stats.scratch_peak_bytes,
            stats.offloads,
            stats.prefetches,
            heap_note()
        );
        g.record_bytes(
            &format!("planned_device/{}", plan.strategy),
            layout.device_general_bytes,
        );
        #[cfg(feature = "heap-track")]
        if plan.strategy == "hmms" {
            g.record_bytes(
                "heap_saved/hmms",
                vec_heap_peak.saturating_sub(scnn_bench::heap::peak_bytes()),
            );
        }
        if plan.strategy == "hmms" {
            g.record_bytes("minor_faults_per_step/hmms", steady_step_faults(smoke, &graph, &mut rt));
        }
    }

    let plain = lower_unsplit(&desc, batch);
    let faults = steady_step_faults(smoke, &plain, &mut MeterProvider::new());
    g.record_bytes("minor_faults_per_step/vec_unsplit", faults);
    // Micro-batched HMMS: the planner's third axis. The schedule shrinks
    // per-conv workspace, the TSO assignment carries the shrunken sizes,
    // and the runtime's executor chunks exactly as
    // planned — the step's loss stays bit-identical to the full-batch runs.
    let schedule = plan_micro_schedule(&graph);
    println!(
        "  micro schedule: {} of {} convs micro-batched",
        schedule.len(),
        graph
            .nodes()
            .iter()
            .filter(|n| matches!(n.op, scnn_graph::Op::Conv2d { .. }))
            .count()
    );
    let ws_micro = conv_micro_workspace(&graph, &profile.workspace_bytes, &schedule);
    let tso_micro = TsoAssignment::new(&graph, &ws_micro, TsoOptions::default());
    let plan_micro = plan_hmms(&graph, &tape, &tso_micro, &profile, opts);
    let exec_plan = export_plan_with(&graph, &tape, &plan_micro, &tso_micro, overlap)
        .expect("micro plan is legal with overlap")
        .with_micro_schedule(Arc::new(schedule));
    let mut rt = scnn_runtime::PlanRuntime::new(&graph, exec_plan).expect("runtime builds");
    let exec_micro = rt.executor();
    let micro_step = |provider: &mut dyn BufferProvider| {
        let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
        let mut bn = BnState::new();
        let mut rng = SplitRng::seed_from_u64(13);
        exec_micro
            .run_with(
                &graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, provider,
            )
            .loss
    };
    #[cfg(feature = "heap-track")]
    scnn_bench::heap::reset_peak();
    g.bench("train_step/hmms_micro", || micro_step(&mut rt));
    let stats = rt.stats();
    g.set_peak_bytes(stats.resident_peak_bytes);
    println!(
        "  hmms_micro: resident {} B = {:.2} × device pool {} B, kernel scratch peak {} B{}",
        stats.resident_peak_bytes,
        resident_over_planned(&rt),
        rt.plan().layout.device_general_bytes,
        stats.scratch_peak_bytes,
        heap_note()
    );
    g.record_bytes(
        "planned_device/hmms_micro",
        rt.plan().layout.device_general_bytes,
    );

    // Figure-10 capacity search at a fixed device budget: how many logical
    // images fit, with and without the micro-batch axis. Micro-batching
    // caps the workspace growth with batch, so the same budget trains
    // strictly larger logical batches.
    // Budgets sit just under the legacy plan's batch-16 device total (the
    // parameter pool alone is ~22.4 MB at width 0.5), so the search has
    // room to separate: the micro-batched plan's flatter workspace growth
    // fits logical batch 16 where the full-batch plan already spills.
    let (cap, limit) = if smoke {
        (2_621_440, 32)
    } else {
        (27 << 20, 64)
    };
    let split_plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("resnet splits");
    let build_legacy = |b: usize| {
        let gb = split_plan.lower(&desc, b);
        let mut prof = profile_graph(&gb, &model);
        prof.workspace_bytes = conv_engine_workspace(&gb, &prof.workspace_bytes);
        (gb, prof)
    };
    let build_micro = |b: usize| {
        let gb = split_plan.lower(&desc, b);
        let mut prof = profile_graph(&gb, &model);
        let sched = plan_micro_schedule(&gb);
        prof.workspace_bytes = conv_micro_workspace(&gb, &prof.workspace_bytes, &sched);
        (gb, prof)
    };
    let hmms_plan =
        |g: &_, t: &_, s: &_, p: &_| plan_hmms(g, t, s, p, PlannerOptions::default());
    let legacy_cap = max_batch_size(cap, limit, build_legacy, hmms_plan)
        .expect("legal plans")
        .expect("fits at batch 1");
    let micro_cap = max_batch_size(cap, limit, build_micro, hmms_plan)
        .expect("legal plans")
        .expect("fits at batch 1");
    println!(
        "  capacity {} MiB: max logical batch {} full-batch, {} micro-batched",
        cap >> 20,
        legacy_cap.max_batch,
        micro_cap.max_batch
    );
    g.record_bytes("capacity/max_batch/legacy", legacy_cap.max_batch);
    g.record_bytes("capacity/max_batch/micro", micro_cap.max_batch);

    g.finish();
}

/// Minor page faults this process has taken: field 10 of
/// `/proc/self/stat`; 0 where `/proc` is absent.
fn minor_faults() -> usize {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Count fields from the end of the parenthesised command name
            // (field 2), which may itself hold spaces.
            let after_comm = stat.rsplit_once(')')?.1;
            after_comm.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Minor faults per steady-state SGD step of `graph` under `provider`: one
/// training state across steps, as the repo benchmark's training loop
/// keeps it, counted after two warm steps.
fn steady_step_faults(smoke: bool, graph: &Graph, provider: &mut dyn BufferProvider) -> usize {
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let images = uniform(&mut SplitRng::seed_from_u64(11), &dims, -1.0, 1.0);
    let labels: Vec<usize> = (0..dims[0]).map(|i| (i * 3 + 1) % 10).collect();
    let mut params = ParamStore::init(graph, &mut SplitRng::seed_from_u64(7));
    let mut sgd = Sgd::new(&params, 0.005, 0.9, 1e-4);
    let mut bn = BnState::new();
    let mut rng = SplitRng::seed_from_u64(13);
    let exec = Executor::new();
    let mut step = || {
        params.zero_grads();
        let loss = exec
            .run_with(graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, provider)
            .loss;
        sgd.step(&mut params);
        loss
    };
    for _ in 0..2 {
        std::hint::black_box(step());
    }
    let reps = if smoke { 1 } else { 3 };
    let before = minor_faults();
    for _ in 0..reps {
        std::hint::black_box(step());
    }
    (minor_faults() - before) / reps
}

/// How much of the pool its plan reserved the last step physically filled.
fn resident_over_planned(rt: &PlanRuntime) -> f64 {
    rt.stats().resident_peak_bytes as f64 / rt.plan().layout.device_general_bytes as f64
}

#[cfg(feature = "heap-track")]
fn heap_note() -> String {
    format!(" (process heap peak {} B)", scnn_bench::heap::peak_bytes())
}

#[cfg(not(feature = "heap-track"))]
fn heap_note() -> String {
    String::new()
}
