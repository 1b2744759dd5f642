//! Training under the plan-executing memory runtime: plan HMMS offloading
//! for a split ResNet-18, run real SGD steps with activations managed by
//! `scnn-runtime`, and show that the managed run is bit-identical to the
//! unmanaged baseline while keeping far fewer activation bytes resident.
//!
//! ```text
//! cargo run --release --example train_runtime
//! ```

use split_cnn::core::{plan_split, SplitConfig};
use split_cnn::graph::{NodeId, Tape};
use split_cnn::hmms::{plan_hmms, PlannerOptions, Profile, TsoAssignment, TsoOptions};
use split_cnn::models::{resnet18, ModelOptions};
use split_cnn::nn::{BnState, Executor, Mode, ParamStore, Sgd};
use split_cnn::runtime::{MeterProvider, PlanRuntime};
use split_cnn::tensor::uniform;
use scnn_rng::SplitRng;

fn main() {
    let batch = 4;
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
    let graph = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet splits")
        .lower(&desc, batch);
    println!("{}: {} nodes after split lowering", desc.name, graph.len());

    // Plan: TSO assignment → HMMS offload schedule → exported exec plan.
    let tape = Tape::new(&graph);
    let tso = TsoAssignment::new(&graph, &vec![0; graph.len()], TsoOptions::default());
    let profile = Profile::uniform(&graph, 1e-3, 30e9);
    let plan = plan_hmms(&graph, &tape, &tso, &profile, PlannerOptions::default());
    let mut rt = PlanRuntime::from_plan(&graph, &tape, &plan, &tso).expect("plan is legal");
    println!(
        "hmms plan: {} TSOs offloaded, device pool {} B, host pool {} B",
        plan.offloaded.len(),
        rt.plan().layout.device_general_bytes,
        rt.plan().layout.host_pool_bytes
    );

    // Two identical training runs: unmanaged Vec-per-node vs the runtime.
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let exec = Executor::new();
    let mut run = |managed: bool| -> (Vec<f32>, usize) {
        let mut params = ParamStore::init(&graph, &mut SplitRng::seed_from_u64(7));
        let mut bn = BnState::new();
        let mut rng = SplitRng::seed_from_u64(13);
        let mut sgd = Sgd::new(&params, 0.05, 0.9, 1e-4);
        // The meter is the unmanaged baseline: VecProvider semantics plus
        // a resident-bytes counter.
        let mut meter = MeterProvider::new();
        let mut losses = Vec::new();
        let mut peak = 0;
        for step in 0..3 {
            let images = uniform(&mut SplitRng::seed_from_u64(100 + step), &dims, -1.0, 1.0);
            let labels: Vec<usize> = (0..batch).map(|i| (i * 3 + 1) % 10).collect();
            let provider: &mut dyn split_cnn::nn::BufferProvider = if managed {
                &mut rt
            } else {
                &mut meter
            };
            let r = exec.run_with(
                &graph, &mut params, &mut bn, &images, &labels, Mode::Train, &mut rng, provider,
            );
            losses.push(r.loss);
            sgd.step(&mut params);
            peak = if managed {
                peak.max(rt.stats().resident_peak_bytes)
            } else {
                meter.peak_bytes()
            };
        }
        (losses, peak)
    };

    let (base_losses, base_peak) = run(false);
    let (rt_losses, rt_peak) = run(true);

    println!("\nstep  baseline-loss  runtime-loss");
    for (i, (a, b)) in base_losses.iter().zip(&rt_losses).enumerate() {
        println!("{i:>4}  {a:>13.6}  {b:>12.6}");
    }
    assert_eq!(base_losses, rt_losses, "runtime must be bit-identical");
    println!(
        "\nresident activation peak: {:.2} MB unmanaged -> {:.2} MB under the hmms plan \
         (its planned pool: {:.2} MB — the step runs the plan's tape in order)",
        base_peak as f64 / 1e6,
        rt_peak as f64 / 1e6,
        rt.plan().layout.device_general_bytes as f64 / 1e6
    );
    println!("losses bit-identical: yes");
}
