//! Per-layer probes: each crate's public functions, called and timed from
//! here, at the shapes the workloads use. Every timing is `fast()` over
//! individually timed calls; A/B pairs alternate call by call so both
//! sides see the same interference. The same suite runs after every
//! workload's traced pass, so the per-layer numbers of any two runs are
//! comparable whatever workload they were attached to.

use std::collections::HashMap;

use scnn_rng::SplitRng;
use split_cnn::core::plan_split;
use split_cnn::data::{SyntheticDataset, SyntheticSpec};
use split_cnn::gpusim::{node_flops, profile_graph, simulate, CostModel};
use split_cnn::graph::{Graph, Op, PoolKind, Tape};
use split_cnn::hmms::{
    export_inference_plan, export_plan_with, plan_hmms, plan_inference, plan_no_offload,
    PlannerOptions, TsoAssignment, TsoOptions,
};
use split_cnn::nn::kernels::{
    avg_pool_backward, avg_pool_forward, batch_norm_backward, batch_norm_inference,
    batch_norm_train, conv2d_backward_micro, conv2d_forward_micro, global_avg_pool_backward,
    global_avg_pool_forward, linear_backward, linear_forward, max_pool_backward, max_pool_forward,
    relu_backward, relu_forward, ConvAttrs, PoolAttrs,
};
use split_cnn::nn::Schedule;
use split_cnn::runtime::PlanRuntime;
use split_cnn::serve::{Engine, SloClass, SocketClient, SocketServer};
use split_cnn::tensor::{
    active_level, conv2d_dw_tiled, conv2d_dx_tiled, conv2d_fwd_tiled, conv2d_fwd_winograd, matmul,
    uniform, Conv2dGeometry, Padding2d, SimdLevel, Tensor,
};

use crate::serve::{self, ServeCfg, Service};
use crate::spec::Values;
use crate::stats::{fast, fast_ms, time_ms};
use crate::trace::span;
use crate::train::{self, Placement, TrainCfg, Trainer, OVERLAP};
use crate::RunWindow;

/// How many times each probe is called.
struct Calls {
    /// Cheap probes (planners, kernels on one shape, engine batches).
    light: usize,
    /// Whole training steps, three variants per round.
    step_rounds: usize,
    /// Full sweeps over a graph's kernels.
    kernel_sweeps: usize,
    /// Closed-loop requests through the server / the socket.
    requests: usize,
}

pub fn run(smoke: bool, seed: u64) -> Values {
    let (tcfg, scfg, calls) = if smoke {
        (
            TrainCfg::smoke(),
            ServeCfg::smoke(),
            Calls {
                light: 2,
                step_rounds: 2,
                kernel_sweeps: 1,
                requests: 20,
            },
        )
    } else {
        (
            TrainCfg::full(0),
            ServeCfg::full(0, 0),
            Calls {
                light: 15,
                step_rounds: 8,
                kernel_sweeps: 3,
                requests: 300,
            },
        )
    };
    let mut v = Values::default();
    span("probe.planning", || planning(&mut v, &tcfg, &scfg, &calls));
    let train_step_ms = span("probe.train_steps", || {
        train_steps(&mut v, &tcfg, seed, &calls)
    });
    let serve_kernel_ms = span("probe.kernels", || {
        kernels(&mut v, &tcfg, &scfg, seed, &calls, train_step_ms)
    });
    span("probe.tensor_par", || tensor_and_par(&mut v, smoke, &calls));
    span("probe.serve", || {
        serving(&mut v, &scfg, seed, &calls, serve_kernel_ms)
    });
    v
}

/// `models`, `core`, `graph`, `gpusim`, `hmms`, `runtime.build`, `data`,
/// `nn.schedule_*`: everything set-up pays for, one stage at a time.
fn planning(v: &mut Values, tcfg: &TrainCfg, scfg: &ServeCfg, calls: &Calls) {
    let n = calls.light;
    v.set(
        "models.build_ms",
        fast_ms(n, || train::model_desc(tcfg.width)),
    );
    let desc = train::model_desc(tcfg.width);
    v.set(
        "core.plan_split_ms",
        fast_ms(n, || plan_split(&desc, &train::split_config())),
    );
    let split = plan_split(&desc, &train::split_config()).expect("resnet-18 splits");
    v.set(
        "core.lower_ms",
        fast_ms(n, || split.lower(&desc, tcfg.batch)),
    );
    let graph = split.lower(&desc, tcfg.batch);
    v.set("core.graph_nodes", graph.len() as f64);

    v.set("graph.tape_build_ms", fast_ms(n, || Tape::new(&graph)));
    let tape = Tape::new(&graph);
    let model = CostModel::default();
    v.set(
        "gpusim.profile_graph_ms",
        fast_ms(n, || profile_graph(&graph, &model)),
    );
    let profile = profile_graph(&graph, &model);
    v.set(
        "hmms.tso_assign_ms",
        fast_ms(n, || train::assign_tsos(&graph, &profile)),
    );
    let tso = train::assign_tsos(&graph, &profile);
    let opts = PlannerOptions::default();
    v.set(
        "hmms.plan_hmms_ms",
        fast_ms(n, || plan_hmms(&graph, &tape, &tso, &profile, opts)),
    );
    let plan = plan_hmms(&graph, &tape, &tso, &profile, opts);
    v.set(
        "hmms.export_plan_ms",
        fast_ms(n, || export_plan_with(&graph, &tape, &plan, &tso, OVERLAP)),
    );
    let exec_plan =
        export_plan_with(&graph, &tape, &plan, &tso, OVERLAP).expect("the hmms plan is legal");
    v.set("hmms.offloaded_tsos", plan.offloaded.len() as f64);
    v.set(
        "hmms.host_pool_bytes",
        exec_plan.layout.host_pool_bytes as f64,
    );
    v.set(
        "hmms.workspace_overlapped_bytes",
        exec_plan.layout.workspace_overlapped_bytes as f64,
    );
    v.set(
        "hmms.device_general_bytes",
        exec_plan.layout.device_general_bytes as f64,
    );
    v.set(
        "runtime.build_ms",
        fast_ms(n, || PlanRuntime::new(&graph, exec_plan.clone())),
    );

    // The simulated P100 step (Fig. 9/11): no workload executes it, but the
    // planners' inputs and the paper's numbers come from it.
    v.set(
        "gpusim.simulate_ms",
        fast_ms(n, || simulate(&graph, &tape, &tso, &plan, &profile)),
    );
    let sim = simulate(&graph, &tape, &tso, &plan, &profile);
    let base = simulate(
        &graph,
        &tape,
        &tso,
        &plan_no_offload(&graph, &tape, &tso, &profile),
        &profile,
    );
    v.set("gpusim.sim_step_ms_hmms", sim.total_time * 1e3);
    v.set("gpusim.sim_stall_ms_hmms", sim.stall_time * 1e3);
    v.set("gpusim.sim_step_ms_no_offload", base.total_time * 1e3);

    v.set(
        "nn.schedule_build_ms",
        fast_ms(n, || Schedule::build(&graph)),
    );
    let schedule = Schedule::build(&graph);
    v.set("nn.schedule_waves", schedule.waves.len() as f64);
    v.set(
        "nn.schedule_max_wave_width",
        schedule.waves.iter().map(Vec::len).max().unwrap_or(0) as f64,
    );

    let dataset = SyntheticDataset::new(SyntheticSpec::cifar_like(1));
    let mut rng = SplitRng::seed_from_u64(1);
    v.set(
        "data.batch_gen_ms",
        fast_ms(n, || dataset.batches(1, tcfg.batch, &mut rng)),
    );

    // The forward-only plan the serving engine builds, on the serving graph.
    let sgraph = train::lower(true, scfg.width, 1);
    let stso = TsoAssignment::new(&sgraph, &vec![0; sgraph.len()], TsoOptions::default());
    v.set(
        "hmms.plan_inference_ms",
        fast_ms(n, || plan_inference(&sgraph, &stso)),
    );
    let infer = export_inference_plan(&sgraph, &stso).expect("the inference plan is legal");
    v.set(
        "hmms.infer_device_general_bytes",
        infer.layout.device_general_bytes as f64,
    );
}

/// Whole steps, three variants alternating round by round: the split graph
/// under `PlanRuntime`, the same graph Vec-per-node, the unsplit graph
/// Vec-per-node — plus an eval-mode forward on the split graph.
fn train_steps(v: &mut Values, cfg: &TrainCfg, seed: u64, calls: &Calls) -> f64 {
    let mut hmms = Trainer::build(true, Placement::Hmms, cfg, seed);
    let mut split = Trainer::build(true, Placement::Vec, cfg, seed);
    let mut plain = Trainer::build(false, Placement::Vec, cfg, seed);
    let (mut hmms_run, mut split_run, mut split_total, mut plain_total) =
        (vec![], vec![], vec![], vec![]);
    let (mut zero, mut sgd, mut eval) = (vec![], vec![], vec![]);
    // One unrecorded round first: buffer pools fill and lazy state settles.
    for round in 0..=calls.step_rounds {
        let (a, b, c) = (hmms.step(), split.step(), plain.step());
        let e = split.forward_eval_ms();
        if round == 0 {
            continue;
        }
        hmms_run.push(a.run_ms);
        split_run.push(b.run_ms);
        split_total.push(b.total_ms());
        plain_total.push(c.total_ms());
        eval.push(e);
        for s in [&a, &b, &c] {
            zero.push(s.zero_ms);
            sgd.push(s.sgd_ms);
        }
    }
    let train_step = fast(&split_run);
    v.set("nn.train_step_ms", train_step);
    v.set("nn.forward_eval_ms", fast(&eval));
    v.set("nn.backward_ms_derived", train_step - fast(&eval));
    v.set("nn.sgd_step_ms", fast(&sgd));
    v.set("nn.zero_grads_ms", fast(&zero));
    v.set(
        "nn.split_overhead_ratio",
        fast(&split_total) / fast(&plain_total),
    );
    v.set("runtime.step_overhead_ms", fast(&hmms_run) - train_step);

    let rt = hmms.runtime().expect("built under the runtime");
    let st = rt.stats();
    v.set("runtime.offloads_per_step", st.offloads as f64);
    v.set("runtime.prefetches_per_step", st.prefetches as f64);
    v.set("runtime.host_bytes", st.host_bytes as f64);
    v.set("runtime.scratch_peak_bytes", st.scratch_peak_bytes as f64);
    v.set(
        "runtime.resident_over_planned",
        st.resident_peak_bytes as f64 / rt.plan().layout.device_general_bytes as f64,
    );
    train_step
}

/// Per-kind kernel time of one pass over a graph.
#[derive(Default)]
struct KernelTimes {
    conv_fwd: f64,
    conv_bwd: f64,
    bn_fwd: f64,
    bn_bwd: f64,
    relu: f64,
    pool: f64,
    linear: f64,
    conv_flops: f64,
    /// Input + output + parameter bytes of every replayed kernel, computed
    /// from tensor sizes (not measured traffic).
    bytes_moved: f64,
}

impl KernelTimes {
    fn sum_ms(&self) -> f64 {
        self.conv_fwd
            + self.conv_bwd
            + self.bn_fwd
            + self.bn_bwd
            + self.relu
            + self.pool
            + self.linear
    }
}

/// Random tensors by shape, made once: kernel time does not depend on the
/// values, and a graph repeats few distinct shapes.
struct TensorBank {
    rng: SplitRng,
    by_shape: HashMap<Vec<usize>, Tensor>,
}

impl TensorBank {
    fn get(&mut self, dims: &[usize]) -> Tensor {
        let rng = &mut self.rng;
        self.by_shape
            .entry(dims.to_vec())
            .or_insert_with(|| uniform(rng, dims, -1.0, 1.0))
            .clone()
    }
}

/// Replays the public kernels behind every compute node of `graph` on that
/// node's own shapes — forward and backward when `train`, the eval forward
/// otherwise — and sums the fastest time of each node by op kind.
fn replay_kernels(graph: &Graph, train: bool, sweeps: usize, seed: u64) -> KernelTimes {
    let mut bank = TensorBank {
        rng: SplitRng::seed_from_u64(seed),
        by_shape: HashMap::new(),
    };
    let mut t = KernelTimes::default();
    let param_dims = |id| graph.param(id).dims.clone();
    let bytes = |dims: &[usize]| dims.iter().product::<usize>() as f64 * 4.0;
    for node in graph.nodes() {
        let Some(&input) = node.inputs.first() else {
            continue;
        };
        let in_dims = graph.node(input).out_shape.clone();
        match &node.op {
            Op::Conv2d {
                kh,
                kw,
                sh,
                sw,
                pad,
                weight,
                bias,
                ..
            } => {
                let attrs = ConvAttrs {
                    kh: *kh,
                    kw: *kw,
                    sh: *sh,
                    sw: *sw,
                    pad: *pad,
                };
                let (x, w) = (bank.get(&in_dims), bank.get(&param_dims(*weight)));
                let b = bias.map(|id| bank.get(&param_dims(id)));
                t.conv_fwd += fast_ms(sweeps, || {
                    conv2d_forward_micro(&x, &w, b.as_ref(), &attrs, None, 0)
                });
                if train {
                    let dy = bank.get(&node.out_shape);
                    t.conv_bwd += fast_ms(sweeps, || {
                        conv2d_backward_micro(&x, &w, b.is_some(), &dy, &attrs, None, 0)
                    });
                }
                t.conv_flops += node_flops(graph, node);
                t.bytes_moved += bytes(&param_dims(*weight));
            }
            Op::BatchNorm { gamma, beta, .. } => {
                let (x, g, b) = (
                    bank.get(&in_dims),
                    bank.get(&param_dims(*gamma)),
                    bank.get(&param_dims(*beta)),
                );
                if train {
                    t.bn_fwd += fast_ms(sweeps, || batch_norm_train(&x, &g, &b));
                    let (_, saved, _) = batch_norm_train(&x, &g, &b);
                    let dy = bank.get(&node.out_shape);
                    t.bn_bwd += fast_ms(sweeps, || batch_norm_backward(&dy, &g, &saved));
                } else {
                    let c = in_dims[1];
                    let (mean, var) = (vec![0.1; c], vec![0.9; c]);
                    t.bn_fwd += fast_ms(sweeps, || batch_norm_inference(&x, &g, &b, &mean, &var));
                }
            }
            Op::Relu => {
                let x = bank.get(&in_dims);
                t.relu += fast_ms(sweeps, || relu_forward(&x));
                if train {
                    let (y, dy) = (relu_forward(&x), bank.get(&node.out_shape));
                    t.relu += fast_ms(sweeps, || relu_backward(&y, &dy));
                }
            }
            Op::Pool2d {
                kind,
                kh,
                kw,
                sh,
                sw,
                pad,
            } => {
                let attrs = PoolAttrs {
                    kh: *kh,
                    kw: *kw,
                    sh: *sh,
                    sw: *sw,
                    pad: *pad,
                };
                let x = bank.get(&in_dims);
                let dy = bank.get(&node.out_shape);
                match kind {
                    PoolKind::Max => {
                        t.pool += fast_ms(sweeps, || max_pool_forward(&x, &attrs));
                        if train {
                            let (_, mask) = max_pool_forward(&x, &attrs);
                            t.pool += fast_ms(sweeps, || max_pool_backward(&x, &dy, &mask, &attrs));
                        }
                    }
                    PoolKind::Avg => {
                        t.pool += fast_ms(sweeps, || avg_pool_forward(&x, &attrs));
                        if train {
                            t.pool += fast_ms(sweeps, || avg_pool_backward(&in_dims, &dy, &attrs));
                        }
                    }
                }
            }
            Op::GlobalAvgPool => {
                let x = bank.get(&in_dims);
                t.pool += fast_ms(sweeps, || global_avg_pool_forward(&x));
                if train {
                    let dy = bank.get(&node.out_shape);
                    t.pool += fast_ms(sweeps, || global_avg_pool_backward(&in_dims, &dy));
                }
            }
            Op::Linear { weight, bias, .. } => {
                let (x, w, b) = (
                    bank.get(&in_dims),
                    bank.get(&param_dims(*weight)),
                    bank.get(&param_dims(*bias)),
                );
                t.linear += fast_ms(sweeps, || linear_forward(&x, &w, &b));
                if train {
                    let dy = bank.get(&node.out_shape);
                    t.linear += fast_ms(sweeps, || linear_backward(&x, &w, &dy));
                }
                t.bytes_moved += bytes(&param_dims(*weight));
            }
            _ => continue,
        }
        t.bytes_moved += bytes(&in_dims) + node.out_bytes() as f64;
    }
    t
}

/// `nn.kernels.*`: where a step's and a request's compute goes, by op
/// kind, and how much of the measured step those kernels explain. Returns
/// the serving kernels' sum.
fn kernels(
    v: &mut Values,
    tcfg: &TrainCfg,
    scfg: &ServeCfg,
    seed: u64,
    calls: &Calls,
    train_step_ms: f64,
) -> f64 {
    let tgraph = train::lower(true, tcfg.width, tcfg.batch);
    let t = replay_kernels(&tgraph, true, calls.kernel_sweeps, seed);
    v.set("nn.kernels.train.conv_fwd_ms", t.conv_fwd);
    v.set("nn.kernels.train.conv_bwd_ms", t.conv_bwd);
    v.set("nn.kernels.train.bn_fwd_ms", t.bn_fwd);
    v.set("nn.kernels.train.bn_bwd_ms", t.bn_bwd);
    v.set("nn.kernels.train.relu_ms", t.relu);
    v.set("nn.kernels.train.pool_ms", t.pool);
    v.set("nn.kernels.train.linear_ms", t.linear);
    v.set("nn.kernels.train.conv_flops", t.conv_flops);
    v.set("nn.kernels.train.coverage", t.sum_ms() / train_step_ms);

    let sgraph = train::lower(true, scfg.width, 1);
    let s = replay_kernels(&sgraph, false, calls.kernel_sweeps * 5, seed);
    v.set("nn.kernels.serve.conv_ms", s.conv_fwd);
    v.set("nn.kernels.serve.bn_ms", s.bn_fwd);
    v.set("nn.kernels.serve.relu_ms", s.relu);
    v.set("nn.kernels.serve.pool_ms", s.pool);
    v.set("nn.kernels.serve.linear_ms", s.linear);
    v.set("nn.kernels.serve.bytes_moved_computed", s.bytes_moved);
    // `serving` measures the batch this sum is a share of.
    s.sum_ms()
}

/// `tensor` on the kernels bench's reference shape (8×16×32×32 → 32
/// channels, 3×3), and the `par` pool's fork-join cost.
fn tensor_and_par(v: &mut Values, smoke: bool, calls: &Calls) {
    let (n, c, oc, hw, mm) = if smoke {
        (1, 2, 4, 8, 32)
    } else {
        (8, 16, 32, 32, 512)
    };
    let mut rng = SplitRng::seed_from_u64(1);
    let x = uniform(&mut rng, &[n, c, hw, hw], -1.0, 1.0);
    let w = uniform(&mut rng, &[oc, c, 3, 3], -0.5, 0.5);
    let dy = uniform(&mut rng, &[n, oc, hw, hw], -1.0, 1.0);
    let geo = Conv2dGeometry::new(c, hw, hw, 3, 3, 1, 1, Padding2d::symmetric(1));
    let mut out = vec![0.0f32; n * oc * hw * hw];
    let calls_n = calls.light + 5;
    v.set(
        "tensor.conv_fwd_ms",
        fast_ms(calls_n, || conv2d_fwd_tiled(&x, &w, None, &geo, &mut out)),
    );
    v.set(
        "tensor.conv_fwd_winograd_ms",
        fast_ms(calls_n, || {
            conv2d_fwd_winograd(&x, &w, None, &geo, &mut out)
        }),
    );
    let mut dw = vec![0.0f32; oc * c * 9];
    let mut dx = Tensor::zeros(&[n, c, hw, hw]);
    v.set(
        "tensor.conv_bwd_ms",
        fast_ms(calls_n, || {
            conv2d_dw_tiled(&x, &dy, &geo, &mut dw);
            conv2d_dx_tiled(&dy, &w, &geo, &mut dx, 0, 0);
        }),
    );
    let a = uniform(&mut rng, &[mm, mm], -1.0, 1.0);
    let b = uniform(&mut rng, &[mm, mm], -1.0, 1.0);
    v.set(
        "tensor.matmul_512_ms",
        fast_ms(calls.light, || matmul(&a, &b)),
    );
    v.set(
        "tensor.simd_avx2",
        f64::from(u8::from(active_level() == SimdLevel::Avx2)),
    );

    v.set("par.threads", split_cnn::par::max_threads() as f64);
    v.set(
        "par.fork_join_us",
        fast_ms(calls.light * 20, || {
            split_cnn::par::parallel_for(2, |i| {
                std::hint::black_box(i);
            })
        }) * 1e3,
    );
}

/// `serve`: the engine alone (1 and 8 slots, alternating), the server
/// around it, and the socket front-end around that.
fn serving(v: &mut Values, cfg: &ServeCfg, seed: u64, calls: &Calls, serve_kernel_ms: f64) {
    let frozen = serve::freeze(cfg, seed);
    let new_engine = || {
        Engine::new(
            frozen.graph.clone(),
            frozen.params.clone(),
            frozen.bn.clone(),
        )
    };
    v.set("serve.engine_new_ms", fast_ms(calls.light, new_engine));
    let engine = new_engine().expect("the inference plan is legal");

    let eight: Vec<Tensor> = frozen.inputs.iter().cycle().take(8).cloned().collect();
    let (mut c1, mut c8) = (vec![], vec![]);
    for _ in 0..calls.light * 2 {
        c1.push(time_ms(|| engine.run_batch(&eight[..1])).1);
        c8.push(time_ms(|| engine.run_batch(&eight)).1);
    }
    let (c1, c8) = (fast(&c1), fast(&c8));
    v.set("serve.run_batch_c1_ms", c1);
    v.set("serve.run_batch_c8_ms", c8);
    v.set("serve.interleave_speedup", 8.0 * c1 / c8);
    v.set("nn.kernels.serve.coverage", serve_kernel_ms / c1);

    // One closed-loop client through the server. On a training workload
    // this is also where the run's serve.* counters come from.
    let reference = serve::reference_logits(&frozen);
    let svc = Service::start(&frozen);
    let before = svc.server.metrics();
    let window = RunWindow::open();
    let done = serve::closed_loop(&svc, &frozen, &reference, calls.requests, false, &window);
    let after = svc.server.metrics();
    serve::load_metrics(v, &done, &before, &after, &[]);
    let lat: Vec<f64> = done.iter().map(|d| d.op.ms).collect();
    v.set("serve.server_overhead_c1_ms_derived", fast(&lat) - c1);

    v.set(
        "serve.socket_overhead_ms",
        socket_overhead(&svc, &frozen, calls.requests / 3).unwrap_or(0.0),
    );
    svc.stop();
}

/// `SocketClient::infer` over a Unix socket minus the in-process call,
/// alternating. `None` (reported as 0) where no socket can be bound.
fn socket_overhead(svc: &Service, frozen: &serve::Frozen, pairs: usize) -> Option<f64> {
    let path =
        std::path::Path::new(crate::OUT_DIR).join(format!("probe-{}.sock", std::process::id()));
    let bound = std::fs::create_dir_all(crate::OUT_DIR)
        .and_then(|()| SocketServer::bind_unix(svc.server.clone(), &path))
        .and_then(|front| SocketClient::connect_unix(&path).map(|client| (front, client)));
    let (front, mut client) = match bound {
        Ok(pair) => pair,
        Err(e) => {
            println!(
                "info   socket probe skipped: cannot bind {}: {e}",
                path.display()
            );
            return None;
        }
    };
    let (mut inproc, mut wire) = (vec![], vec![]);
    for i in 0..pairs {
        let x = &frozen.inputs[i % frozen.inputs.len()];
        inproc.push(time_ms(|| svc.infer(x, SloClass::Interactive)).1);
        wire.push(time_ms(|| client.infer(x.as_slice(), SloClass::Interactive)).1);
    }
    drop(client);
    drop(front);
    Some(fast(&wire) - fast(&inproc))
}
