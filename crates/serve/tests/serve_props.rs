//! End-to-end properties of the serving runtime:
//!
//! - **Bit identity with training eval** — the engine's logits are
//!   bitwise equal to a `Mode::Eval` pass through the training executor,
//!   on split ResNet-18 and VGG-19, across `SCNN_THREADS` ∈ {1, 4} and
//!   `SCNN_SIMD` ∈ {scalar, auto};
//! - **Determinism across concurrency** — the same request bytes yield
//!   identical logits at concurrency 1 and 64, alone or mixed with other
//!   requests, and through the dynamic batcher; a graph whose batch norms
//!   carry the planner's `recompute` flag serves the unflagged logits;
//! - **Planned pool** — a batch plans `slots × device_general_bytes` and
//!   never holds more; every slot keeps the same bytes resident whatever
//!   the batch size — one order, a lone request's included;
//! - **Capacity search** — `max_concurrency` agrees with the linear
//!   footprint model and respects budget and limit.

use std::sync::Arc;
use std::time::Duration;

use scnn_core::{lower_unsplit, plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId, Op};
use scnn_models::{resnet18, vgg19, ModelOptions};
use scnn_nn::{BnState, BufferProvider, Executor, Mode, ParamStore};
use scnn_rng::SplitRng;
use scnn_serve::{BatchPolicy, ClassPolicy, Engine, Server, ServerConfig};

/// A batch policy with a tight interactive window, so batcher tests
/// close their windows quickly, and a deadline long enough that no
/// request expires even on a fully loaded CI host — these tests check
/// bit-identity, not SLO expiry (overload_props covers deadlines with
/// a deterministically wedged runner).
fn quick_policy(max_batch: usize) -> BatchPolicy {
    BatchPolicy {
        max_batch,
        interactive: ClassPolicy {
            window: Duration::from_millis(1),
            deadline: Duration::from_secs(300),
        },
        ..BatchPolicy::default()
    }
}
use scnn_tensor::{force_level, uniform, SimdLevel, Tensor};

fn vgg_graph() -> Graph {
    let desc = vgg19(&ModelOptions::cifar().with_width(0.125));
    lower_unsplit(&desc, 1)
}

fn split_resnet_graph() -> Graph {
    let desc = resnet18(&ModelOptions::cifar().with_width(0.25));
    plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet splits")
        .lower(&desc, 1)
}

fn request_for(graph: &Graph, seed: u64) -> Tensor {
    let dims = graph.node(NodeId(0)).out_shape.clone();
    uniform(&mut SplitRng::seed_from_u64(seed), &dims, -1.0, 1.0)
}

fn logits_node(graph: &Graph) -> usize {
    graph
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Op::SoftmaxCrossEntropy))
        .expect("graph has a loss node")
        .inputs[0]
        .0
}

/// Snapshots one node's freshly computed forward output — the reference
/// logits a `Mode::Eval` pass through the training executor produces.
struct CaptureLogits {
    node: usize,
    bits: Option<Vec<f32>>,
}

impl BufferProvider for CaptureLogits {
    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        if node == self.node {
            self.bits = Some(out.as_slice().to_vec());
        }
        out
    }
}

/// Trains one step (to populate BN running stats and de-trivialize
/// weights), captures the training executor's eval logits for `request`,
/// and builds the serving engine over the same frozen state.
fn reference_and_engine(make: fn() -> Graph, seed: u64) -> (Vec<f32>, Engine, Tensor) {
    let graph = make();
    let request = request_for(&graph, seed);
    let mut rng = SplitRng::seed_from_u64(seed + 1);
    let mut params = ParamStore::init(&graph, &mut rng);
    let mut bn = BnState::new();
    let exec = Executor::new();
    let labels = vec![3; request.dim(0)];
    exec.run(&graph, &mut params, &mut bn, &request, &labels, Mode::Train, &mut rng);

    let mut capture = CaptureLogits {
        node: logits_node(&graph),
        bits: None,
    };
    exec.run_with(
        &graph,
        &mut params,
        &mut bn,
        &request,
        &labels,
        Mode::Eval,
        &mut rng,
        &mut capture,
    );
    let reference = capture.bits.expect("eval pass computed the logits");
    let engine = Engine::new(make(), Arc::new(params), Arc::new(bn)).expect("plan is legal");
    (reference, engine, request)
}

#[test]
fn logits_bitwise_equal_training_eval_across_threads_and_simd() {
    for make in [split_resnet_graph as fn() -> Graph, vgg_graph] {
        let (reference, engine, request) = reference_and_engine(make, 7);
        let other = request_for(engine.graph(), 99);
        let (other_ref, _) = engine.run_batch(std::slice::from_ref(&other));
        for threads in [1usize, 4] {
            scnn_par::with_threads(threads, || {
                for level in [Some(SimdLevel::Scalar), None] {
                    force_level(level);
                    let (solo, _) = engine.run_batch(std::slice::from_ref(&request));
                    assert_eq!(solo[0], reference, "solo logits drifted");
                    // Mixed batch: slots compute from their own request
                    // only, in submission order.
                    let batch = [request.clone(), other.clone(), request.clone()];
                    let (mixed, _) = engine.run_batch(&batch);
                    assert_eq!(mixed[0], reference);
                    assert_eq!(mixed[1], other_ref[0]);
                    assert_eq!(mixed[2], reference);
                }
                force_level(None);
            });
        }
    }
}

/// `recompute: true` is a training-plan fact: an inference plan frees
/// nothing backward reads, so the engine builds over a flagged graph and
/// serves it to the unflagged graph's logits (only a training plan over
/// it is refused, in `scnn-runtime`).
#[test]
fn engine_serves_a_recompute_graph_to_the_unflagged_logits() {
    fn flagged_resnet_graph() -> Graph {
        let desc = resnet18(&ModelOptions::cifar().with_width(0.25).with_bn_recompute());
        plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
            .expect("resnet splits")
            .lower(&desc, 1)
    }
    let (reference, engine, request) = reference_and_engine(split_resnet_graph, 61);
    let (flagged_reference, flagged, _) = reference_and_engine(flagged_resnet_graph, 61);
    assert_eq!(flagged_reference, reference, "the flag moved the executor's bits");
    let request = std::slice::from_ref(&request);
    assert_eq!(engine.run_batch(request).0[0], reference);
    assert_eq!(flagged.run_batch(request).0[0], reference, "the flag moved the engine's bits");
}

#[test]
fn same_request_identical_at_concurrency_1_and_64() {
    let (_, engine, request) = reference_and_engine(vgg_graph, 21);
    let per_slot_pool = engine.plan().layout.device_general_bytes;
    let (solo, solo_stats) = engine.run_batch(std::slice::from_ref(&request));
    assert!(solo_stats.resident_peak <= per_slot_pool);

    let batch: Vec<Tensor> = (0..64).map(|_| request.clone()).collect();
    let (many, stats) = engine.run_batch(&batch);
    assert_eq!(many.len(), 64);
    for out in &many {
        assert_eq!(out, &solo[0], "concurrency changed the bits");
    }
    assert_eq!(stats.planned_pool_bytes, 64 * per_slot_pool);
    assert!(stats.resident_peak <= stats.planned_pool_bytes);
}

#[test]
fn batcher_delivers_bit_identical_responses() {
    let (_, engine, request) = reference_and_engine(vgg_graph, 33);
    let (solo, _) = engine.run_batch(std::slice::from_ref(&request));
    let server = Server::start(
        Arc::new(engine),
        ServerConfig {
            policy: quick_policy(4),
            ..ServerConfig::default()
        },
    )
    .expect("config is legal");
    // More clients than max_batch forces several batch windows; every
    // response must still match the solo run exactly.
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..9)
            .map(|_| {
                let server = &server;
                let request = request.clone();
                s.spawn(move || server.infer(request))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("client thread").expect("admitted"), solo[0]);
        }
    });
    let m = server.metrics();
    assert_eq!(m.total_completed(), 9);
    assert_eq!(m.total_shed(), 0, "closed-loop clients never overflow");
}

/// Neither the pool's width nor the batch size may perturb a single
/// bit: ten concurrent clients get the same logits at one worker thread
/// or four, in batches of up to 1, 3 or 8 — the serving extension of the
/// repo-wide determinism contract (DESIGN.md §15).
#[test]
fn logits_bitwise_identical_across_thread_counts_and_concurrency() {
    let (reference, engine, request) = reference_and_engine(vgg_graph, 44);
    let engine = Arc::new(engine);
    for threads in [1usize, 4] {
        for max_batch in [1usize, 3, 8] {
            let server = Server::start(
                engine.clone(),
                ServerConfig {
                    worker_threads: Some(threads),
                    policy: quick_policy(max_batch),
                    queue_capacity: 32,
                    ..ServerConfig::default()
                },
            )
            .expect("config is legal");
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..10)
                    .map(|_| {
                        let server = &server;
                        let request = request.clone();
                        s.spawn(move || server.infer(request))
                    })
                    .collect();
                for h in handles {
                    assert_eq!(
                        h.join().expect("client thread").expect("admitted"),
                        reference,
                        "threads={threads} max_batch={max_batch} changed bits"
                    );
                }
            });
            let m = server.shutdown().expect("the engine did not die");
            assert_eq!(m.total_completed(), 10);
        }
    }
}

#[test]
fn every_slot_holds_the_same_bytes_within_its_planned_pool() {
    let (reference, engine, request) = reference_and_engine(split_resnet_graph, 31);
    let per_slot_pool = engine.plan().layout.device_general_bytes;
    let per_slot_resident: Vec<usize> = [1usize, 2, 3, 7, 8, 9]
        .into_iter()
        .map(|slots| {
            let batch = vec![request.clone(); slots];
            let (logits, stats) = engine.run_batch(&batch);
            assert!(logits.iter().all(|l| *l == reference), "S={slots} changed the bits");
            assert_eq!(stats.planned_pool_bytes, slots * per_slot_pool);
            // Planned means physical: the plan's frees are true of the
            // pass, so what it keeps resident fits the pool it planned.
            assert!(
                stats.resident_peak <= stats.planned_pool_bytes,
                "S={slots}: {} B resident against {} B planned",
                stats.resident_peak,
                stats.planned_pool_bytes
            );
            assert_eq!(stats.resident_peak % slots, 0, "identical slots hold identical bytes");
            stats.resident_peak / slots
        })
        .collect();
    // What a server reports for a batch must not depend on how a burst
    // happened to split: one order, so one per-slot figure at every size.
    assert!(
        per_slot_resident.iter().all(|&r| r == per_slot_resident[0]),
        "every batch size runs its slots in the same tape order: {per_slot_resident:?}"
    );
}

#[test]
fn max_concurrency_matches_the_linear_footprint_model() {
    let (_, engine, _) = reference_and_engine(vgg_graph, 55);
    let params = engine.plan().layout.device_param_bytes;
    let pool = engine.plan().layout.device_general_bytes;
    assert!(pool > 0, "a real model has a nonzero activation pool");

    // Budget for exactly five and a half pools → five fit.
    let five = engine
        .max_concurrency(params + 5 * pool + pool / 2, 1024)
        .expect("five fit");
    assert_eq!(five.max_concurrency, 5);
    assert_eq!(five.device_bytes, params + 5 * pool);
    // The limit caps the search before the budget does.
    let capped = engine.max_concurrency(usize::MAX / 2, 16).expect("limit caps");
    assert_eq!(capped.max_concurrency, 16);
    // Even one request over budget → no capacity.
    assert!(engine.max_concurrency(params + pool - 1, 1024).is_none());
}

#[test]
fn inference_pool_beats_training_and_holds_params_once() {
    let graph = split_resnet_graph();
    let tape = scnn_graph::Tape::new(&graph);
    let tso = scnn_hmms::TsoAssignment::new(
        &graph,
        &vec![0; graph.len()],
        scnn_hmms::TsoOptions::default(),
    );
    let profile = scnn_hmms::Profile::uniform(&graph, 1e-3, 30e9);
    let train = scnn_hmms::plan_no_offload(&graph, &tape, &tso, &profile);
    let train_layout = scnn_hmms::plan_layout(&graph, &train, &tso).expect("train plan lays out");

    let mut rng = SplitRng::seed_from_u64(3);
    let params = ParamStore::init(&graph, &mut rng);
    let engine =
        Engine::new(split_resnet_graph(), Arc::new(params), Arc::new(BnState::new()))
            .expect("plan is legal");
    let layout = &engine.plan().layout;
    assert!(layout.device_general_bytes < train_layout.device_general_bytes);
    assert_eq!(layout.device_param_bytes * 2, train_layout.device_param_bytes);
    assert_eq!(layout.host_pool_bytes, 0, "inference never offloads");
}
