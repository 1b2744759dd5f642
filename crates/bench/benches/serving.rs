//! Serving-path benchmark: request latency, throughput, memory and
//! overload behavior of the `scnn-serve` runtime on a split ResNet-18.
//! Results land in `BENCH_serving.json`:
//!
//! - `serve_latency/c{N}` — per-request wall latency through the dynamic
//!   batcher with `N` closed-loop clients; `median_ns` is the p50 and
//!   `p99_ns` the tail the `--max-p99` gate pins;
//! - `serve_rps/c{N}` — requests per second over the same run (a count in
//!   the `peak_bytes` slot, like the capacity records);
//! - `serve_resident_peak/c{N}` — peak physically resident activation
//!   bytes of one direct `N`-slot batch (deterministic: sampled at wave
//!   barriers), pinned two-sided by verify; the planned pool it sits
//!   under, `N × device_general_bytes`, is printed beside it;
//! - `capacity/max_concurrency` — the Fig. 10-style search: the largest
//!   concurrency whose planned footprint fits a fixed device budget
//!   (`params + C × pool ≤ budget`);
//! - `overload/shed`, `overload/admitted_latency`,
//!   `overload/queue_depth_peak` — a burst of `8 × queue_capacity`
//!   simultaneous submissions against a bounded queue: how many were
//!   shed at the door (verify wants `> 0`), the exact client-side
//!   latency of every *admitted* request (p99 gated under the class
//!   deadline), and the queue-depth high-water (gated `≤ capacity`).
//!
//! Flags: `--smoke` (tiny model, few requests), `--concurrency 1,8,64`
//! (comma-separated levels), `--deadline-us 2000` (batch-close window).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use scnn_bench::{Args, BenchGroup};
use scnn_core::{plan_split, SplitConfig};
use scnn_graph::{Graph, NodeId};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::{BnState, Executor, Mode, ParamStore};
use scnn_rng::SplitRng;
use scnn_serve::{
    BatchPolicy, ClassPolicy, Engine, ServeError, Server, ServerConfig, SloClass,
};
use scnn_tensor::{uniform, Tensor};

fn request(graph: &Graph, seed: u64) -> Tensor {
    let dims = graph.node(NodeId(0)).out_shape.clone();
    uniform(&mut SplitRng::seed_from_u64(seed), &dims, -1.0, 1.0)
}

/// Closed-loop policy: `window` closes batches, deadlines far out of the
/// measurement's way (nothing should shed or expire in the latency runs).
fn closed_loop_policy(max_batch: usize, window: Duration) -> BatchPolicy {
    BatchPolicy {
        max_batch,
        interactive: ClassPolicy {
            window,
            deadline: Duration::from_secs(60),
        },
        ..BatchPolicy::default()
    }
}

fn main() {
    let args = Args::parse(&["smoke", "bench", "concurrency", "deadline-us"]);
    let smoke = args.bool("smoke");
    let levels = args.usize_list("concurrency", &[1, 8, 64]);
    let window = Duration::from_micros(args.u64("deadline-us", 2_000));
    let mut g = BenchGroup::new("serving");

    let (width, reqs_per_client) = if smoke { (0.125, 2) } else { (0.25, 8) };
    let desc = resnet18(&ModelOptions::cifar().with_width(width));
    let split = plan_split(&desc, &SplitConfig::new(0.5, 2, 2)).expect("resnet splits");
    let graph = split.lower(&desc, 1);

    // One training step populates the BN running statistics and
    // de-trivializes the weights; the engine then freezes both.
    let mut rng = SplitRng::seed_from_u64(17);
    let mut params = ParamStore::init(&graph, &mut rng);
    let mut bn = BnState::new();
    let seed_request = request(&graph, 1);
    Executor::new().run(
        &graph, &mut params, &mut bn, &seed_request, &[3], Mode::Train, &mut rng,
    );
    let engine = Arc::new(
        Engine::new(split.lower(&desc, 1), Arc::new(params), Arc::new(bn))
            .expect("plan is legal"),
    );
    // Warm the kernels and the workspace pool before anything is timed.
    engine.run_batch(std::slice::from_ref(&seed_request));

    for &c in &levels {
        assert!(c > 0, "--concurrency levels must be positive");
        // Memory accounting first: one direct batch at this concurrency.
        // The resident peak is shape-determined, so verify can pin it.
        let batch: Vec<Tensor> = (0..c).map(|i| request(engine.graph(), 200 + i as u64)).collect();
        let (_, stats) = engine.run_batch(&batch);
        g.record_bytes(&format!("serve_resident_peak/c{c}"), stats.resident_peak);
        println!(
            "  c={c}: resident peak {} B of {} B planned",
            stats.resident_peak, stats.planned_pool_bytes
        );

        // Latency and throughput through the dynamic batcher: `c`
        // closed-loop clients, each sending its requests back to back.
        // Capacity `c` means a client population of `c` can never shed.
        let server = Server::start(
            engine.clone(),
            ServerConfig {
                queue_capacity: c,
                policy: closed_loop_policy(c, window),
                ..ServerConfig::default()
            },
        )
        .expect("config is legal");
        let started = Instant::now();
        let latencies: Vec<u128> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..c)
                .map(|client| {
                    let server = &server;
                    let engine = engine.clone();
                    s.spawn(move || {
                        let mut mine = Vec::with_capacity(reqs_per_client);
                        for r in 0..reqs_per_client {
                            let req =
                                request(engine.graph(), (client * 1_000 + r) as u64);
                            let t = Instant::now();
                            let logits = server.infer(req).expect("closed loop never sheds");
                            assert!(!logits.is_empty(), "a response carries logits");
                            mine.push(t.elapsed().as_nanos());
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall = started.elapsed();
        let snapshot = server.shutdown().expect("the engine did not die");
        assert_eq!(snapshot.total_shed(), 0, "closed loop never overflows");
        let total = c * reqs_per_client;
        let rps = total as f64 / wall.as_secs_f64();
        g.record_latency(&format!("serve_latency/c{c}"), &latencies);
        g.record_bytes(&format!("serve_rps/c{c}"), rps as usize);
        println!("  c={c}: {total} requests in {wall:?} — {rps:.1} req/s");
    }

    // Overload: a burst of 8 × capacity simultaneous submissions against
    // a bounded queue and one dispatcher. Admission must shed the overflow
    // at the door (never block), and every admitted request must still
    // complete under the interactive deadline.
    // The 10 s interactive deadline is the SLO the verify gate pins the
    // admitted p99 under — generous against the ~0.1-1 s measured tails,
    // tight enough to catch a wedged batcher.
    let capacity = 8usize;
    let burst = 8 * capacity;
    let class_deadline = Duration::from_secs(10);
    let server = Arc::new(
        Server::start(
            engine.clone(),
            ServerConfig {
                queue_capacity: capacity,
                policy: BatchPolicy {
                    max_batch: capacity,
                    interactive: ClassPolicy {
                        window: Duration::from_millis(1),
                        deadline: class_deadline,
                    },
                    ..BatchPolicy::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("config is legal"),
    );
    let start = Arc::new(Barrier::new(burst));
    let shed = Arc::new(AtomicUsize::new(0));
    let admitted: Vec<u128> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                let server = server.clone();
                let start = start.clone();
                let shed = shed.clone();
                let engine = engine.clone();
                s.spawn(move || {
                    let req = request(engine.graph(), 9_000 + i as u64);
                    start.wait();
                    let t = Instant::now();
                    match server.infer(req) {
                        Ok(_) => Some(t.elapsed().as_nanos()),
                        Err(ServeError::Overloaded) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            None
                        }
                        Err(e) => panic!("burst saw an unexpected verdict: {e}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| h.join().expect("burst thread"))
            .collect()
    });
    let server = Arc::into_inner(server).expect("burst threads joined");
    let snapshot = server.shutdown().expect("the engine did not die");
    let shed = shed.load(Ordering::Relaxed);
    assert_eq!(snapshot.total_shed() as usize, shed);
    assert_eq!(admitted.len() + shed, burst);
    assert!(shed > 0, "an 8x burst against a bounded queue must shed");
    assert!(
        snapshot.queue_depth_peak <= capacity,
        "the queue is bounded by construction"
    );
    let _ = snapshot.class(SloClass::Interactive).p99_ns; // server-side view, not gated
    g.record_bytes("overload/shed", shed);
    g.record_bytes("overload/queue_depth_peak", snapshot.queue_depth_peak);
    g.record_latency("overload/admitted_latency", &admitted);
    println!(
        "  overload: burst {burst} vs capacity {capacity} — {} admitted, {shed} shed, depth peak {}",
        admitted.len(),
        snapshot.queue_depth_peak
    );

    // Capacity search at a fixed device budget — the serving counterpart
    // of the memory bench's Fig. 10 `max_batch_size` records.
    let budget = if smoke { 8 << 20 } else { 64 << 20 };
    let cap = engine
        .max_concurrency(budget, 4096)
        .expect("at least one request fits the budget");
    g.record_bytes("capacity/max_concurrency", cap.max_concurrency);
    println!(
        "  capacity {} MiB: max concurrency {} ({} B planned at that level)",
        budget >> 20,
        cap.max_concurrency,
        cap.device_bytes
    );

    g.finish();
}
