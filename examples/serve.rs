//! Serving a split ResNet-18 with `scnn-serve`: freeze a trained model
//! into an inference [`Engine`], stand up the dynamic batcher, and push
//! concurrent requests through it — showing the planned pool accounting
//! and that every response is bit-identical no matter which batch its
//! request rode in.
//!
//! ```text
//! cargo run --release --example serve
//! ```

use std::sync::Arc;
use std::time::Duration;

use scnn_rng::SplitRng;
use split_cnn::core::{plan_split, SplitConfig};
use split_cnn::graph::NodeId;
use split_cnn::models::{resnet18, ModelOptions};
use split_cnn::nn::{BnState, Executor, Mode, ParamStore};
use split_cnn::serve::{Engine, Server, ServerConfig, SloClass};
use split_cnn::tensor::uniform;

fn main() {
    // A split model at batch 1: serving admits requests one image at a
    // time; concurrency comes from slots, not from the batch dimension.
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
    let split = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("resnet splits");
    let graph = split.lower(&desc, 1);

    // "Train" briefly so the BN running statistics are populated, then
    // freeze everything into the engine. A real deployment would load a
    // checkpoint here instead.
    let mut rng = SplitRng::seed_from_u64(42);
    let mut params = ParamStore::init(&graph, &mut rng);
    let mut bn = BnState::new();
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let image = uniform(&mut rng, &dims, -1.0, 1.0);
    Executor::new().run(&graph, &mut params, &mut bn, &image, &[3], Mode::Train, &mut rng);

    let engine = Arc::new(
        Engine::new(split.lower(&desc, 1), Arc::new(params), Arc::new(bn))
            .expect("plan is legal"),
    );
    let layout = &engine.plan().layout;
    println!(
        "inference plan: params {} B (held once), activation pool {} B per request",
        layout.device_param_bytes, layout.device_general_bytes
    );

    // Fig. 10, serving edition: how many concurrent requests fit a budget?
    let budget = 16 << 20;
    let cap = engine.max_concurrency(budget, 4096).expect("budget fits one");
    println!(
        "capacity: {} concurrent requests fit {} MiB ({} B planned)",
        cap.max_concurrency,
        budget >> 20,
        cap.device_bytes
    );

    // One direct batch shows the pool accounting: the plan reserves
    // slots × device_general_bytes, checked once when the engine exported
    // it. Every request runs patch by patch in tape order whatever the
    // batch size, so a slot holds the same resident bytes alone as among
    // eight — fewer than the pool planned for it.
    let (solo, solo_stats) = engine.run_batch(std::slice::from_ref(&image));
    let batch: Vec<_> = (0..8).map(|_| image.clone()).collect();
    let (outs, stats) = engine.run_batch(&batch);
    println!(
        "batch of 8: planned pool {} B, resident peak {} B \
         ({} B per slot; a lone request holds {} B of its {} B pool)",
        stats.planned_pool_bytes,
        stats.resident_peak,
        stats.resident_peak / batch.len(),
        solo_stats.resident_peak,
        solo_stats.planned_pool_bytes
    );
    assert!(outs.iter().all(|o| o == &solo[0]), "concurrency changed bits");

    // The hardened server: one dispatch thread behind a bounded
    // admission queue, a per-class window/deadline policy, and the
    // planned footprint params + C × pool cross-checked against a
    // memory budget at startup — a misconfigured max_batch is an error
    // value here, not a silent overshoot at runtime.
    let mut config = ServerConfig {
        queue_capacity: 32,
        budget_bytes: Some(budget),
        ..ServerConfig::default()
    };
    config.policy.max_batch = 8;
    config.policy.interactive.window = Duration::from_millis(2);
    let server = Server::start(engine.clone(), config).expect("policy fits the budget");
    println!(
        "server: max_batch {} behind a {}-slot queue ({} B planned)",
        server.max_batch(),
        32,
        engine.device_bytes_at(server.max_batch()),
    );
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..12)
            .map(|i| {
                let server = &server;
                let image = image.clone();
                // Mix SLO classes: interactive requests shrink any batch
                // window they join; batch-class requests let batches fill.
                let class = if i % 3 == 0 { SloClass::Batch } else { SloClass::Interactive };
                s.spawn(move || server.infer_class(image, class))
            })
            .collect();
        for h in handles {
            let logits = h.join().expect("client").expect("admitted");
            assert_eq!(logits, solo[0], "batching changed bits");
        }
    });
    let top1 = solo[0]
        .iter()
        .enumerate()
        .fold((0, f32::MIN), |best, (i, &v)| if v > best.1 { (i, v) } else { best })
        .0;
    let metrics = server.shutdown().expect("the engine did not die");
    println!(
        "12 batched clients served; all responses bit-identical (top-1 class {top1})"
    );
    println!(
        "metrics: {} completed over {} batches, {} shed, interactive p99 ≤ {} ns",
        metrics.total_completed(),
        metrics.batches,
        metrics.total_shed(),
        metrics.class(SloClass::Interactive).p99_ns.unwrap_or(0)
    );
    // Why batches closed: the dispatcher holds a window only while its
    // previous batch had company, so the first arrivals close idle and
    // the rest of the concurrent clients coalesce under held windows.
    println!(
        "batch close: {} full, {} window, {} idle; batches spent {} µs open in total",
        metrics.closed_full,
        metrics.closed_window,
        metrics.closed_idle,
        metrics.window_wait_ns / 1_000
    );
}
