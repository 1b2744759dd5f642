//! The two serving workloads on a split ResNet-18 behind `scnn_serve::Server`:
//! one closed-loop client (`serve_closed_c1` — the batch-1 latency path) and
//! an open loop of 8-request bursts (`serve_open_burst8` — every burst
//! becomes one 8-slot interleaved batch).

use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scnn_rng::{Rng, SplitRng};
use split_cnn::graph::{Graph, NodeId, Op};
use split_cnn::nn::{BnState, BufferProvider, Executor, Mode, ParamStore};
use split_cnn::serve::{
    BatchRunner, BatchStats, Engine, MetricsSnapshot, ResponseHandle, ServeError, Server,
    ServerConfig, SloClass,
};
use split_cnn::tensor::{uniform, Tensor};

use crate::host;
use crate::spec::Values;
use crate::stats::{self, ms};
use crate::trace::{self, span};
use crate::train;
use crate::{OpSample, Outcome, RunWindow};

/// Today's (resident, planned) bytes at full size (ISSUE 13).
const TODAY_C1: (f64, f64) = (916_480.0, 87_040.0);
const TODAY_BURST8: (f64, f64) = (7_331_840.0, 696_320.0);

#[derive(Clone, Copy, Debug)]
pub struct ServeCfg {
    pub width: f64,
    /// Distinct request tensors, cycled (c1) or drawn by the seed (burst8).
    pub n_inputs: usize,
    /// Closed loop: requests sent.
    pub requests: usize,
    /// Open loop: bursts sent, `burst` requests each, one per `period`.
    pub bursts: usize,
    pub burst: usize,
    pub period: Duration,
    /// Open loop: unrecorded back-to-back bursts before the schedule starts.
    pub warm_bursts: usize,
}

impl ServeCfg {
    pub fn full(requests: usize, bursts: usize) -> Self {
        ServeCfg {
            width: 0.25,
            n_inputs: 32,
            requests,
            bursts,
            burst: 8,
            period: Duration::from_millis(100),
            warm_bursts: 50,
        }
    }

    pub fn smoke() -> Self {
        ServeCfg {
            width: 0.125,
            n_inputs: 8,
            requests: 60,
            bursts: 6,
            burst: 8,
            period: Duration::from_millis(25),
            warm_bursts: 2,
        }
    }
}

/// Latency limits for `ok_share`.
pub const LIMIT_C1_MS: f64 = 100.0;
pub const LIMIT_BURST8_MS: f64 = 250.0;

/// The engine behind the server, observed: a span per batch, and the byte
/// accounting `Server` does not pass on (`BatchStats`).
pub struct ObservedEngine {
    engine: Arc<Engine>,
    seen: Mutex<Seen>,
}

#[derive(Clone, Copy, Default)]
pub struct Seen {
    pub batches: u64,
    pub resident_peak: usize,
    pub planned_pool_bytes: usize,
}

impl ObservedEngine {
    pub fn seen(&self) -> Seen {
        *self.seen.lock().expect("no holder panics")
    }
}

impl BatchRunner for ObservedEngine {
    fn request_shape(&self) -> Vec<usize> {
        self.engine.request_shape().to_vec()
    }

    fn run(&self, requests: &[Tensor]) -> Vec<Vec<f32>> {
        let batch = self.seen().batches;
        trace::set_op(batch);
        let (out, stats): (_, BatchStats) =
            span("serve.engine.run_batch", || self.engine.run_batch(requests));
        let mut seen = self.seen.lock().expect("no holder panics");
        seen.batches += 1;
        seen.resident_peak = seen.resident_peak.max(stats.resident_peak);
        seen.planned_pool_bytes = seen.planned_pool_bytes.max(stats.planned_pool_bytes);
        out
    }

    fn planned_bytes(&self) -> Option<(usize, usize)> {
        BatchRunner::planned_bytes(self.engine.as_ref())
    }
}

/// Frozen model state plus the request tensors: everything a service
/// instance is built from, and what the reference logits are computed on.
pub struct Frozen {
    pub graph: Graph,
    pub params: Arc<ParamStore>,
    pub bn: Arc<BnState>,
    pub inputs: Vec<Tensor>,
}

/// model → split → lower (batch 1) → params → one training step (populates
/// the BN running statistics the engine freezes) → request tensors.
pub fn freeze(cfg: &ServeCfg, seed: u64) -> Frozen {
    let graph = train::lower(true, cfg.width, 1);
    let mut master = SplitRng::seed_from_u64(seed);
    let mut params = span("nn.params_init", || {
        ParamStore::init(&graph, &mut master.split())
    });
    let mut bn = BnState::new();
    let dims = graph.node(NodeId(0)).out_shape.clone();
    let inputs: Vec<Tensor> = span("data.inputs", || {
        let mut rng = master.split();
        (0..cfg.n_inputs)
            .map(|_| uniform(&mut rng, &dims, -1.0, 1.0))
            .collect()
    });
    span("nn.bn_warm_step", || {
        Executor::new().run(
            &graph,
            &mut params,
            &mut bn,
            &inputs[0],
            &[3],
            Mode::Train,
            &mut master.split(),
        )
    });
    Frozen {
        graph,
        params: Arc::new(params),
        bn: Arc::new(bn),
        inputs,
    }
}

pub struct Service {
    /// Shared so a `SocketServer` front-end can hold it too.
    pub server: Arc<Server>,
    pub observed: Arc<ObservedEngine>,
}

impl Service {
    /// engine (plans the inference pool) → server (`ServerConfig::default()`
    /// with the benchmark's thread count).
    pub fn start(frozen: &Frozen) -> Service {
        let engine = span("serve.engine_new", || {
            Engine::new(
                frozen.graph.clone(),
                frozen.params.clone(),
                frozen.bn.clone(),
            )
        })
        .expect("the inference plan is legal");
        let observed = Arc::new(ObservedEngine {
            engine: Arc::new(engine),
            seen: Mutex::new(Seen::default()),
        });
        let server = span("serve.server_start", || {
            Server::start_with_runner(
                observed.clone(),
                ServerConfig {
                    worker_threads: Some(host::worker_threads()),
                    ..ServerConfig::default()
                },
            )
        })
        .expect("the default config is legal");
        Service {
            server: Arc::new(server),
            observed,
        }
    }

    pub fn infer(&self, input: &Tensor, class: SloClass) -> Result<Vec<f32>, ServeError> {
        let handle = span("serve.submit", || self.server.submit(input.clone(), class))?;
        span("serve.recv", || handle.recv())
    }

    /// Shuts the server down once nothing else holds it: a socket
    /// front-end's connection threads let go when they see their client
    /// hang up, which is soon after the client is dropped but not at once.
    pub fn stop(self) -> MetricsSnapshot {
        let mut shared = self.server;
        let server = loop {
            match Arc::try_unwrap(shared) {
                Ok(server) => break server,
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        server.shutdown().expect("no replica died")
    }
}

/// Captures the logits node's output during an `Executor` eval pass.
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

/// What every response is compared with, bit for bit: the training
/// executor's `Mode::Eval` logits for each request tensor.
pub fn reference_logits(frozen: &Frozen) -> Vec<Vec<f32>> {
    let loss = frozen
        .graph
        .nodes()
        .iter()
        .find(|n| matches!(n.op, Op::SoftmaxCrossEntropy))
        .expect("the model ends in a loss node");
    let mut params = (*frozen.params).clone();
    let mut bn = (*frozen.bn).clone();
    let exec = Executor::new();
    let mut rng = SplitRng::seed_from_u64(0);
    frozen
        .inputs
        .iter()
        .map(|x| {
            let mut capture = CaptureLogits {
                node: loss.inputs[0].0,
                bits: None,
            };
            exec.run_with(
                &frozen.graph,
                &mut params,
                &mut bn,
                x,
                &[0],
                Mode::Eval,
                &mut rng,
                &mut capture,
            );
            capture.bits.expect("the eval pass computed the logits")
        })
        .collect()
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What became of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The reference logits, within the latency limit.
    OnTime,
    /// The reference logits, over the limit.
    Late,
    /// Shed at the door or expired in the queue: what the server is built
    /// to do when it cannot keep up — on this host, when the hypervisor
    /// stalls it for half a second. Not on time, but not a wrong output.
    Refused,
    /// Any other error, or logits that differ from the reference.
    Wrong,
}

impl Verdict {
    fn of(
        result: &Result<Vec<f32>, ServeError>,
        reference: &[f32],
        ms: f64,
        limit_ms: f64,
    ) -> Self {
        match result {
            Ok(logits) if !bits_equal(logits, reference) => Verdict::Wrong,
            Ok(_) if ms > limit_ms => Verdict::Late,
            Ok(_) => Verdict::OnTime,
            Err(ServeError::Overloaded | ServeError::DeadlineExceeded) => Verdict::Refused,
            Err(_) => Verdict::Wrong,
        }
    }
}

/// One finished request as the load generator saw it.
pub struct Done {
    /// Latency, when the response arrived, whether spans were recorded.
    pub op: OpSample,
    pub verdict: Verdict,
}

/// One closed-loop client: the next request goes out when the previous
/// response is in. `traced` records spans on every other request; without
/// it the recorder is left as the caller set it.
pub fn closed_loop(
    svc: &Service,
    frozen: &Frozen,
    reference: &[Vec<f32>],
    requests: usize,
    traced: bool,
    window: &RunWindow,
) -> Vec<Done> {
    let done = (0..requests)
        .take_while(|&i| window.has_time(i, requests))
        .map(|i| {
            let idx = i % frozen.inputs.len();
            let record = traced && i % 2 == 0;
            trace::set_op(i as u64 + 1);
            if traced {
                trace::set_enabled(record);
            }
            let t = Instant::now();
            let result = span("op.request", || {
                svc.infer(&frozen.inputs[idx], SloClass::Interactive)
            });
            let latency_ms = ms(t.elapsed());
            Done {
                op: OpSample {
                    ms: latency_ms,
                    end_s: window.elapsed_s(),
                    traced: record,
                },
                verdict: Verdict::of(&result, &reference[idx], latency_ms, LIMIT_C1_MS),
            }
        })
        .collect();
    if traced {
        trace::set_enabled(false);
    }
    done
}

struct Burst {
    due: Duration,
    class: SloClass,
    inputs: Vec<usize>,
}

/// The open-loop schedule, fixed up front by the seed: burst `k` is due at
/// `k × period`, even bursts `Interactive`, odd `Batch`; the seed picks
/// each request's tensor.
fn burst_schedule(cfg: &ServeCfg, seed: u64) -> Vec<Burst> {
    let mut rng = SplitRng::seed_from_u64(seed ^ 0x0b57);
    (0..cfg.bursts)
        .map(|k| Burst {
            due: cfg.period * k as u32,
            class: if k % 2 == 0 {
                SloClass::Interactive
            } else {
                SloClass::Batch
            },
            inputs: (0..cfg.burst)
                .map(|_| rng.gen_range(0..cfg.n_inputs))
                .collect(),
        })
        .collect()
}

/// Unrecorded back-to-back bursts before an open-loop run. On a virtualized
/// host a process that has been mostly idle finds its second vCPU slow to
/// wake, and an 8-slot batch whose waves are shorter than that wake-up runs
/// on one thread — 34 ms instead of 19 ms, for as long as the load stays
/// bursty (README, "Noise"). Which state a launch starts in depends on what
/// the host ran before it; a second of continuous load puts it in the busy
/// state every time, and the floor estimate reads that state.
pub fn warm_up(svc: &Service, frozen: &Frozen, cfg: &ServeCfg, seed: u64) {
    for burst in burst_schedule(cfg, seed)
        .iter()
        .cycle()
        .take(cfg.warm_bursts)
    {
        let handles: Vec<_> = burst
            .inputs
            .iter()
            .filter_map(|&idx| {
                svc.server
                    .submit(frozen.inputs[idx].clone(), burst.class)
                    .ok()
            })
            .collect();
        for handle in handles {
            let _ = handle.recv();
        }
    }
}

/// Open loop: a generator thread sends each burst at its due time whatever
/// the server is doing; a collector thread receives, so a slow batch never
/// delays the next send. Latency runs from the burst's *due* time. Returns
/// the finished requests and, per burst, how long after its due time the
/// generator started sending.
pub fn open_loop(
    svc: &Service,
    frozen: &Frozen,
    reference: &[Vec<f32>],
    cfg: &ServeCfg,
    seed: u64,
    traced: bool,
    window: &RunWindow,
) -> (Vec<Done>, Vec<f64>) {
    let schedule = burst_schedule(cfg, seed);
    type Sent = (usize, usize, Instant, Result<ResponseHandle, ServeError>);
    let (tx, rx) = channel::<Sent>();
    // Spans alternate in pairs of bursts so both SLO classes land on each side.
    let burst_traced = |k: usize| traced && (k / 2).is_multiple_of(2);
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let generator = s.spawn(|| {
            let tx = tx;
            let mut late = Vec::with_capacity(schedule.len());
            for (k, burst) in schedule.iter().enumerate() {
                let due = start + burst.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late.push(ms(Instant::now().saturating_duration_since(due)));
                trace::set_op(k as u64 + 1);
                trace::set_enabled(burst_traced(k));
                for &idx in &burst.inputs {
                    let sent = span("serve.submit", || {
                        svc.server.submit(frozen.inputs[idx].clone(), burst.class)
                    });
                    tx.send((k, idx, due, sent))
                        .expect("the collector outlives the generator");
                }
            }
            trace::set_enabled(false);
            late
        });
        let collector = s.spawn(|| {
            let mut done = Vec::new();
            for (k, idx, due, sent) in rx {
                trace::set_op(k as u64 + 1);
                let result = sent.and_then(|handle| span("serve.recv", || handle.recv()));
                let latency_ms = ms(Instant::now().saturating_duration_since(due));
                done.push(Done {
                    op: OpSample {
                        ms: latency_ms,
                        end_s: window.elapsed_s(),
                        traced: burst_traced(k),
                    },
                    verdict: Verdict::of(&result, &reference[idx], latency_ms, LIMIT_BURST8_MS),
                });
            }
            done
        });
        let gen_late_ms = generator.join().expect("generator thread");
        (collector.join().expect("collector thread"), gen_late_ms)
    })
}

/// The `serve.*` metrics a load run yields: client-side latency
/// percentiles and the server's own counters over the run.
pub fn load_metrics(
    values: &mut Values,
    done: &[Done],
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    gen_late_ms: &[f64],
) {
    let lat: Vec<f64> = done.iter().map(|d| d.op.ms).collect();
    let (tail_p, tail) = stats::tail_percentile(&lat);
    let p50 = stats::median(&lat);
    values.set("serve.latency_ms_p50", p50);
    values.set(
        "serve.latency_ms_p90",
        if lat.len() >= 100 {
            stats::percentile(&lat, 90.0)
        } else {
            p50
        },
    );
    values.set("serve.latency_ms_p99", tail);
    println!(
        "info   latency over {} requests: p50 {p50:.3} ms, highest percentile with 10 samples beyond it p{tail_p} = {tail:.3} ms (reported as serve.latency_ms_p99)",
        lat.len()
    );
    let batches = after.batches - before.batches;
    let batched = after.batched_requests - before.batched_requests;
    values.set("serve.batcher.batches", batches as f64);
    values.set(
        "serve.batcher.mean_batch",
        batched as f64 / batches.max(1) as f64,
    );
    values.set("serve.queue.depth_peak", after.queue_depth_peak as f64);
    values.set(
        "serve.shed",
        (after.total_shed() - before.total_shed()) as f64,
    );
    values.set(
        "serve.expired",
        (after.total_expired() - before.total_expired()) as f64,
    );
    values.set(
        "serve.abandoned",
        (after.total_abandoned() - before.total_abandoned()) as f64,
    );
    let late = if gen_late_ms.len() >= 100 {
        stats::percentile(gen_late_ms, 99.0)
    } else {
        gen_late_ms.iter().copied().fold(0.0, f64::max)
    };
    values.set("serve.gen_late_ms_p99", late);
}

/// Runs a serving workload: set-up (to the first response), the load,
/// checks, then the extra set-up repetitions.
pub fn run(
    open: bool,
    cfg: &ServeCfg,
    seed: u64,
    traced: bool,
    setup_reps: stats::SetupReps,
) -> Outcome {
    let mut values = Values::default();
    let setup_once = |traced: bool| {
        trace::set_enabled(traced);
        trace::set_op(0);
        let t = Instant::now();
        let (frozen, svc) = span("setup", || {
            let frozen = freeze(cfg, seed);
            let svc = Service::start(&frozen);
            let first = span("first_op", || loop {
                match svc.infer(&frozen.inputs[0], SloClass::Interactive) {
                    // A host stall can expire even a lone request in its queue.
                    Err(ServeError::DeadlineExceeded | ServeError::Overloaded) => continue,
                    other => break other,
                }
            });
            assert!(first.is_ok(), "the first request fails: {first:?}");
            (frozen, svc)
        });
        trace::set_enabled(false);
        (t.elapsed().as_secs_f64(), frozen, svc)
    };
    let (first_setup_s, frozen, svc) = setup_once(traced);
    let reference = reference_logits(&frozen);
    if open {
        warm_up(&svc, &frozen, cfg, seed);
    }

    let before = svc.server.metrics();
    let seen_before = svc.observed.seen();
    let window = RunWindow::open();
    let (done, gen_late_ms) = if open {
        open_loop(&svc, &frozen, &reference, cfg, seed, traced, &window)
    } else {
        let done = closed_loop(&svc, &frozen, &reference, cfg.requests, traced, &window);
        (done, Vec::new())
    };
    let ops: Vec<OpSample> = done.iter().map(|d| d.op).collect();
    window.close(&mut values, &ops, 1.0);
    let seen = svc.observed.seen();
    let after = svc.stop();

    // `failed` counts wrong outputs only. A right answer over the latency
    // limit and a request the server refused lower `ok_share` but are not
    // failed ops: on a shared host a stall now and then is the host's.
    let attempted = done.len();
    let count = |v: Verdict| done.iter().filter(|d| d.verdict == v).count();
    let (on_time, failed) = (count(Verdict::OnTime), count(Verdict::Wrong));
    println!(
        "info   requests sent {attempted}: {on_time} on time, {} right but over the {} ms limit, {} refused (shed or expired), {failed} wrong",
        count(Verdict::Late),
        if open { LIMIT_BURST8_MS } else { LIMIT_C1_MS },
        count(Verdict::Refused)
    );

    load_metrics(&mut values, &done, &before, &after, &gen_late_ms);
    // The workload is only what it claims to be if batches formed as
    // designed: one per request that ran in the closed loop; one per burst
    // in the open loop (2 % of bursts may split when the generator thread
    // is descheduled between two submits).
    let batches = seen.batches - seen_before.batches;
    let batching_ok = if open {
        batches as f64 <= (cfg.bursts as f64 * 1.02).ceil()
    } else {
        batches as usize == attempted - count(Verdict::Refused)
    };
    println!(
        "check  {} batches for {} {}: mean batch {:.3} — {}",
        batches,
        if open { cfg.bursts } else { attempted },
        if open { "bursts" } else { "requests" },
        values.get("serve.batcher.mean_batch").unwrap_or(f64::NAN),
        if batching_ok {
            "as designed"
        } else {
            "NOT AS DESIGNED"
        }
    );

    let resident = seen.resident_peak as f64;
    let planned = seen.planned_pool_bytes as f64;
    if cfg.width == 0.25 {
        let today = if open { TODAY_BURST8 } else { TODAY_C1 };
        crate::report_moved("resident_peak_bytes", resident, today.0);
        crate::report_moved("planned_pool_bytes", planned, today.1);
    }

    crate::measure_setup(&mut values, first_setup_s, setup_reps, || {
        let (s, _frozen, svc) = setup_once(false);
        svc.stop();
        s
    });

    values.set("resident_peak_bytes", resident);
    values.set("planned_pool_bytes", planned);
    values.set("ok_share", on_time as f64 / attempted as f64);

    Outcome {
        correct: failed == 0 && batching_ok,
        attempted,
        failed,
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_refusal_is_not_on_time_but_only_a_bad_answer_is_wrong() {
        let reference = [1.0f32, 2.0];
        let of = |r: Result<Vec<f32>, ServeError>, ms: f64| Verdict::of(&r, &reference, ms, 100.0);
        assert_eq!(of(Ok(vec![1.0, 2.0]), 5.0), Verdict::OnTime);
        assert_eq!(of(Ok(vec![1.0, 2.0]), 100.1), Verdict::Late);
        assert_eq!(of(Ok(vec![1.0, 2.5]), 5.0), Verdict::Wrong);
        assert_eq!(of(Ok(vec![1.0]), 5.0), Verdict::Wrong);
        assert_eq!(of(Err(ServeError::Overloaded), 1.0), Verdict::Refused);
        assert_eq!(
            of(Err(ServeError::DeadlineExceeded), 600.0),
            Verdict::Refused
        );
        assert_eq!(of(Err(ServeError::EngineDown), 1.0), Verdict::Wrong);
    }
}
