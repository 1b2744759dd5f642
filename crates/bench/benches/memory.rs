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
//! The steps are timed in turn, one sample of each per round, so
//! `scripts/verify.sh` can gate each as a ratio to the step it replaces.
//!
//! The plan's own figures — device pool and its workspace share
//! (`layout.device_general_bytes` / `device_workspace_bytes`), host pool —
//! are printed alongside for context, and `planned_device/*` records each
//! pool. `capacity/max_batch` is the Figure-10 search: the largest batch
//! whose HMMS plan fits a fixed device budget.
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

use scnn_bench::{Args, BenchGroup, Turn};
use scnn_core::{conv_engine_workspace, lower_unsplit, plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId, Tape};
use scnn_gpusim::{max_batch_size, profile_graph, CostModel};
use scnn_hmms::{
    plan_hmms, plan_layout, plan_no_offload, plan_vdnn, LayoutOptions, MemoryPlan,
    PlannerOptions, TsoAssignment, TsoOptions,
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
        g.sample_size(7);
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

    // Each strategy's peaks come from one untimed step of its own; the
    // timed steps are sampled in turn at the end.
    let mut peaks = Vec::new();
    #[cfg(feature = "heap-track")]
    scnn_bench::heap::reset_peak();
    let mut meter = MeterProvider::new();
    step(&mut meter);
    peaks.push(("train_step/vec_baseline".to_string(), meter.peak_bytes()));
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
    let mut runtimes = Vec::new();
    for plan in &plans {
        // The measured step runs on the overlapped layout; the plain
        // layout is re-planned only to print the overlap saving.
        let plain = plan_layout(&graph, plan, &tso).expect("plan is legal");
        let mut rt = PlanRuntime::from_plan_with(&graph, &tape, plan, &tso, overlap)
            .expect("plan is legal with overlap");
        #[cfg(feature = "heap-track")]
        scnn_bench::heap::reset_peak();
        step(&mut rt);
        let stats = rt.stats();
        peaks.push((format!("train_step/{}", plan.strategy), stats.resident_peak_bytes));
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
        runtimes.push((&plan.strategy, rt));
    }

    let plain = lower_unsplit(&desc, batch);
    let faults = steady_step_faults(smoke, &plain, &mut MeterProvider::new());
    g.record_bytes("minor_faults_per_step/vec_unsplit", faults);
    // Figure-10 capacity search at a fixed device budget: how many images
    // fit. The budget sits just above the batch-16 device total (the
    // parameter pool alone is ~22.4 MB at width 0.5), where the conv
    // workspace decides the answer: 13 while `dw` held every block's
    // partials, 18 with two (DESIGN.md §13).
    let (cap, limit) = if smoke {
        (2_621_440, 32)
    } else {
        (27 << 20, 64)
    };
    let split_plan = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("resnet splits");
    let build = |b: usize| {
        let gb = split_plan.lower(&desc, b);
        let mut prof = profile_graph(&gb, &model);
        prof.workspace_bytes = conv_engine_workspace(&gb, &prof.workspace_bytes);
        (gb, prof)
    };
    let hmms_plan =
        |g: &_, t: &_, s: &_, p: &_| plan_hmms(g, t, s, p, PlannerOptions::default());
    let capacity = max_batch_size(cap, limit, build, hmms_plan)
        .expect("legal plans")
        .expect("fits at batch 1");
    println!("  capacity {} MiB: max batch {}", cap >> 20, capacity.max_batch);
    g.record_bytes("capacity/max_batch", capacity.max_batch);

    // The steps, sampled in turn: verify.sh gates what a plan costs as a
    // ratio to the step it replaces (the runtime to the Vec path, offload
    // to no offload), each round's pair taken in one host state.
    let mut meter = MeterProvider::new();
    let mut turns = vec![Turn::new("train_step/vec_baseline", || step(&mut meter))];
    for (strategy, rt) in &mut runtimes {
        turns.push(Turn::new(format!("train_step/{strategy}"), || step(rt)));
    }
    g.bench_in_turn(turns);
    for (name, bytes) in peaks {
        g.set_peak_bytes(&name, bytes);
    }

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
