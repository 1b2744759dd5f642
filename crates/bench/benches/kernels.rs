//! Micro-benchmarks for the CPU kernels that back the proxy training
//! runs, on the in-tree timing harness (`scnn_bench::harness`). Results
//! land in `BENCH_kernels.json` at the workspace root.
//!
//! `--smoke` shrinks every shape and takes a single sample with no warmup:
//! `scripts/verify.sh` uses it to prove each bench binary still runs and
//! emits parseable records without paying full measurement cost.
//!
//! Every timed record is sampled in turn with a reference region of the
//! same run — `fma_ref` for the compute-bound kernels, `copy_ref` for the
//! memory-bound ones — and `scripts/verify.sh` gates each as a ratio to
//! it, so a host that changes state mid-run moves numerator and
//! denominator alike.
//!
//! Bytes-only `conv2d_*_scratch_peak` records pin the tiled engine's
//! workspace footprint — the tiled path never materializes the full
//! `im2col`/`dcols` matrices; with `--features heap-track` the two
//! 8x16x32x32 conv records also carry the process heap high-water of one
//! call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use scnn_bench::fma::fma_chains;
use scnn_bench::{Args, BenchGroup, Turn};
use scnn_core::lower_unsplit;
use scnn_graph::ParamId;
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::kernels::{
    avg_pool_forward, batch_norm_backward, batch_norm_forward, conv2d_backward, conv2d_forward,
    linear_backward, linear_forward, max_pool_forward, relu_backward_inplace, relu_forward,
    relu_forward_into, ConvAttrs, PoolAttrs,
};
use scnn_nn::{ParamStore, Sgd};
use scnn_rng::SplitRng;
use scnn_tensor::{
    active_level, col2im, conv2d_dw_tiled, conv2d_fwd_winograd, force_level, im2col, matmul,
    supports, uniform, Conv2dGeometry, Padding2d, SimdLevel, Tensor,
};

#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: scnn_bench::heap::CountingAlloc = scnn_bench::heap::CountingAlloc;

/// Restarts the process-heap high-water (no-op without `heap-track`).
fn heap_reset() {
    #[cfg(feature = "heap-track")]
    scnn_bench::heap::reset_peak();
}

/// Annotates record `name` with the heap high-water since [`heap_reset`]
/// (no-op without `heap-track`).
fn heap_annotate(g: &mut BenchGroup, name: &str) {
    #[cfg(feature = "heap-track")]
    g.set_peak_bytes(name, scnn_bench::heap::peak_bytes());
    #[cfg(not(feature = "heap-track"))]
    let _ = (g, name);
}

fn main() {
    let smoke = Args::parse(&["smoke", "bench"]).bool("smoke");
    // Take the records in the warm host state (below).
    if !smoke {
        wake_host();
    }
    let mut rng = SplitRng::seed_from_u64(1);

    // Smoke mode: tiny shapes, one cold sample — just prove the paths run.
    let (n, c, oc, hw) = if smoke { (1, 2, 4, 8) } else { (8, 16, 32, 32) };
    let x = uniform(&mut rng, &[n, c, hw, hw], -1.0, 1.0);
    let w = uniform(&mut rng, &[oc, c, 3, 3], -0.5, 0.5);
    let attrs = ConvAttrs {
        kh: 3,
        kw: 3,
        sh: 1,
        sw: 1,
        pad: Padding2d::symmetric(1),
    };

    let mut g = BenchGroup::new("kernels");
    if smoke {
        g.sample_size(1);
        g.warmup(0);
    } else {
        g.sample_size(10);
    }

    let y = conv2d_forward(&x, &w, None, &attrs);
    let dy = Tensor::ones(y.shape().dims());
    let threads = scnn_par::max_threads();
    let auto = active_level();

    // The compute-bound records, sampled in turn with their reference,
    // `fma_ref`: the bare multiply-add loop (`scnn_bench::fma`), twelve
    // independent chains at a level's widest width, a fixed total of steps
    // cut into tasks the pool's threads claim as they do the kernels' ones
    // — so, like them, it takes half as long on two threads, and a thread
    // that loses its CPU slows both alike. verify.sh gates
    // each record as a ratio to the reference of the level it runs at:
    // `fma_ref` at the level auto dispatch picks, `fma_ref_<level>` for the
    // records forced to another one.
    let fma_ref = |level: SimdLevel| {
        // The scalar chains are a libm call a step where the build has no
        // FMA: a tenth of the steps takes about as long.
        let iters =
            if smoke { 1_000 } else { 800_000 } / if level == SimdLevel::Scalar { 10 } else { 1 };
        let tasks = REF_TASKS_PER_THREAD * threads;
        move || {
            scnn_par::parallel_for(tasks, |_| {
                black_box(fma_chains(level, iters / tasks));
            })
        }
    };
    let geo = Conv2dGeometry::new(c, hw, hw, 3, 3, 1, 1, Padding2d::symmetric(1));
    let mut wy = vec![0.0f32; n * oc * geo.patch_count()];
    let mut dw_out = vec![0.0f32; w.len()];

    // The shapes the repo benchmark's workloads actually execute
    // (ResNet-18 cifar width 0.5, batch 8, split (0.5, 2, 2) for training,
    // width 0.25, batch 1 for serving; see `results/conv_layers.txt`): the
    // 16×16 patch conv that is a third of the training step, layer4's 4×4
    // map, a 1×1 stride-2 shortcut, and forward only, the serving patch
    // conv and the serving graph's thinnest tile (one 16-position strip).
    let (wn, wc, whw) = if smoke { (1, 4, 4) } else { (8, 32, 16) };
    let (dc, dhw) = if smoke { (8, 2) } else { (256, 4) };
    let (sc, tc) = if smoke { (4, 8) } else { (16, 128) };
    let shapes: Vec<_> = [
        ("8x32x16x16", [wn, wc, whw, whw], wc, 3, 1, true),
        ("8x256x4x4", [wn, dc, dhw, dhw], dc, 3, 1, true),
        ("1x1s2_8x32x16x16", [wn, wc, whw, whw], 2 * wc, 1, 2, false),
        ("1x16x16x16", [1, sc, whw, whw], sc, 3, 1, false),
        ("1x128x4x4", [1, tc, dhw, dhw], tc, 3, 1, false),
    ]
    .into_iter()
    .map(|(name, xd, oc, k, stride, with_bwd)| {
        let wx = uniform(&mut rng, &xd, -1.0, 1.0);
        let ww = uniform(&mut rng, &[oc, xd[1], k, k], -0.5, 0.5);
        let a = ConvAttrs {
            kh: k,
            kw: k,
            sh: stride,
            sw: stride,
            pad: Padding2d::symmetric((k / 2) as i64),
        };
        let wdy = Tensor::ones(conv2d_forward(&wx, &ww, None, &a).shape().dims());
        (name, wx, ww, a, wdy, with_bwd)
    })
    .collect();

    // A classifier-head-sized linear layer: batch 128, 512 -> 256.
    let (lb, lin, lout) = if smoke { (4, 16, 8) } else { (128, 512, 256) };
    let lx = uniform(&mut rng, &[lb, lin], -1.0, 1.0);
    let lw = uniform(&mut rng, &[lout, lin], -0.5, 0.5);
    let lbias = uniform(&mut rng, &[lout], -0.1, 0.1);
    let ldy = uniform(&mut rng, &[lb, lout], -1.0, 1.0);
    let msz = if smoke { 16 } else { 256 };
    let a = uniform(&mut rng, &[msz, msz], -1.0, 1.0);
    let bm = uniform(&mut rng, &[msz, msz], -1.0, 1.0);
    // One cache-capacity-straddling square GEMM (512³ ≈ 268 MFLOP).
    let m2 = if smoke { 24 } else { 512 };
    let a2 = uniform(&mut rng, &[m2, m2], -1.0, 1.0);
    let b2 = uniform(&mut rng, &[m2, m2], -1.0, 1.0);

    let mut compute = vec![Turn::new("fma_ref", fma_ref(auto))];
    for level in [SimdLevel::Avx2, SimdLevel::Avx512, SimdLevel::Scalar] {
        if level != auto && supports(level) {
            compute.push(Turn::new(
                format!("fma_ref_{}", level.name()),
                fma_ref(level),
            ));
        }
    }
    compute.extend(level_twins("conv2d_fwd_8x16x32x32", || {
        conv2d_forward(&x, &w, None, &attrs)
    }));
    // The winograd F(2×2, 3×3) forward at the same shape. This path is
    // epsilon-tolerant, not bitwise (DESIGN.md §16) — a tripwire for the
    // transform path regressing, not a claim that it wins.
    compute.push(Turn::new("conv2d_fwd_8x16x32x32_winograd", || {
        conv2d_fwd_winograd(&x, &w, None, &geo, &mut wy);
        black_box(&mut wy);
    }));
    compute.push(Turn::new("conv2d_bwd_8x16x32x32", || {
        conv2d_backward(&x, &w, false, &dy, &attrs)
    }));
    // The backward's weight gradient alone: most of the backward, and
    // nearly all of it one kernel (`simd::gather_acc`).
    compute.push(Turn::new("conv2d_dw_8x16x32x32", || {
        conv2d_dw_tiled(&x, &dy, &geo, &mut dw_out);
        black_box(&mut dw_out);
    }));
    for (name, wx, ww, a, wdy, with_bwd) in &shapes {
        compute.push(Turn::new(format!("conv2d_fwd_{name}"), move || {
            conv2d_forward(wx, ww, None, a)
        }));
        if *with_bwd {
            compute.push(Turn::new(format!("conv2d_bwd_{name}"), move || {
                conv2d_backward(wx, ww, false, wdy, a)
            }));
        }
    }
    compute.push(Turn::new("linear_fwd_128x512x256", || {
        linear_forward(&lx, &lw, &lbias)
    }));
    compute.push(Turn::new("linear_bwd_128x512x256", || {
        linear_backward(&lx, &lw, &ldy)
    }));
    compute.push(Turn::new("matmul_256", || matmul(&a, &bm)));
    compute.extend(level_twins("matmul_512", || matmul(&a2, &b2)));

    // The portable bodies of the two twinned records (DESIGN.md §14), held
    // against the scalar `fma_ref`: a libm call per multiply-add, which the
    // portable body's `target_feature(enable = "fma")` copy never makes,
    // reads ~20× the fused step.
    compute.push(Turn::new(
        "conv2d_fwd_8x16x32x32_scalar",
        forced(SimdLevel::Scalar, || conv2d_forward(&x, &w, None, &attrs)),
    ));
    compute.push(Turn::new(
        "matmul_512_scalar",
        forced(SimdLevel::Scalar, || matmul(&a2, &b2)),
    ));
    g.bench_in_turn(compute);

    // The memory-bound records, sampled in turn with their reference,
    // `copy_ref`: a copy of one ReLU record's tensor (1 MiB) into a fresh
    // buffer, one chunk per thread — the way most of these kernels write
    // their outputs. (A copy into a buffer that exists tracks a competing
    // thread better, but its own fast and slow states spread the pooling
    // records' ratios past the bound rule.)
    let gamma = Tensor::ones(&[c]);
    let beta = Tensor::zeros(&[c]);
    let (_, saved) = batch_norm_forward(&x, &gamma, &beta, None);
    let bdy = uniform(&mut rng, &[n, c, hw, hw], -1.0, 1.0);
    let rx = uniform(&mut rng, &[n, 2 * c, hw, hw], -1.0, 1.0);
    let ry = relu_forward(&rx);
    let (mut rout, mut rdy) = (Tensor::zeros(rx.shape().dims()), Tensor::ones(rx.shape().dims()));
    let cols = im2col(&x, &geo);
    let pool = PoolAttrs {
        kh: 2,
        kw: 2,
        sh: 2,
        sw: 2,
        pad: Padding2d::default(),
    };
    // One optimizer step over every parameter of the workloads' model
    // (~2.8 M scalars), gradients present, momentum and weight decay on.
    let desc = resnet18(&ModelOptions::cifar().with_width(if smoke { 0.125 } else { 0.5 }));
    let graph = lower_unsplit(&desc, 1);
    let mut params = ParamStore::init(&graph, &mut rng);
    for id in 0..params.len() {
        let dims = params.value(ParamId(id)).shape().dims().to_vec();
        params.accumulate_grad(ParamId(id), &uniform(&mut rng, &dims, -0.1, 0.1));
    }
    let mut sgd = Sgd::new(&params, 0.005, 0.9, 1e-4);
    let chunk = rx.len().div_ceil(threads);
    g.bench_in_turn(vec![
        Turn::new("copy_ref", || {
            let (src, mut dst) = (rx.as_slice(), vec![0.0f32; rx.len()]);
            scnn_par::par_chunks_mut(&mut dst, chunk, |ci, d| {
                d.copy_from_slice(&src[ci * chunk..][..d.len()]);
            });
            dst
        }),
        Turn::new("sgd_step_resnet18_w05", || sgd.step(&mut params)),
        // The lowering stages of the conv above, measured on their own.
        Turn::new("im2col_8x16x32x32", || im2col(&x, &geo)),
        Turn::new("col2im_8x16x32x32", || col2im(&cols, n, &geo)),
        Turn::new("batchnorm_fwd", || {
            batch_norm_forward(&x, &gamma, &beta, None)
        }),
        Turn::new("batchnorm_bwd", || {
            batch_norm_backward(&bdy, &gamma, &saved)
        }),
        // ReLU over one 1 MB activation, into buffers that exist, as the
        // executor runs it: the records time the passes themselves. The
        // input's signs are random, so the backward mask is unpredictable:
        // verify.sh holds backward against forward at a bound a branch per
        // element cannot meet (it read ≈ 12×).
        Turn::new("relu_fwd_8x32x32x32", || relu_forward_into(&rx, &mut rout)),
        Turn::new("relu_bwd_8x32x32x32", || relu_backward_inplace(&ry, &mut rdy)),
        Turn::new("maxpool_fwd", || max_pool_forward(&x, &pool)),
        Turn::new("avgpool_fwd", || avg_pool_forward(&x, &pool)),
    ]);

    // Scratch-arena high-water of one warm fwd/bwd pass: the tiled
    // engine's whole transient footprint. For the 8x16x32x32 shape the
    // full im2col matrix alone would be 4.7 MB — the gate in verify.sh
    // pins that these stay far below that. With `heap-track`, the same
    // calls' process-heap high-water annotates the conv records.
    // Two threads, as on the host the pins were read on: each running
    // `dw` task holds a loan of its own.
    scnn_par::with_threads(2, || {
        scnn_par::scratch::reset_peak();
        heap_reset();
        black_box(conv2d_forward(&x, &w, None, &attrs));
        heap_annotate(&mut g, "conv2d_fwd_8x16x32x32");
        g.record_bytes("conv2d_fwd_scratch_peak", scnn_par::scratch::peak_bytes());
        scnn_par::scratch::reset_peak();
        heap_reset();
        black_box(conv2d_backward(&x, &w, false, &dy, &attrs));
        heap_annotate(&mut g, "conv2d_bwd_8x16x32x32");
        g.record_bytes("conv2d_bwd_scratch_peak", scnn_par::scratch::peak_bytes());
    });

    par_fork_join(&mut g, smoke);

    g.finish();
}

/// Tasks per thread of `fma_ref`: small enough that the threads balance
/// them as they balance a kernel's tasks.
const REF_TASKS_PER_THREAD: usize = 8;

/// `f` run at `level`, auto dispatch restored after each call.
fn forced<T>(level: SimdLevel, f: impl Fn() -> T) -> impl FnMut() -> T {
    move || {
        force_level(Some(level));
        let out = f();
        force_level(None);
        out
    }
}

/// `f` under auto dispatch as `name`, twinned with `{name}_{level}` forced
/// to the level auto resolves to: one code path, so verify.sh holds their
/// medians within 1.10× of each other both ways. Each other vector level
/// the host supports gets a forced record of its own first (`_avx2` on an
/// AVX-512 host). Under scalar auto dispatch there is no vector level to
/// twin.
fn level_twins<'a, T: 'a>(name: &str, f: impl Fn() -> T + Copy + 'a) -> Vec<Turn<'a>> {
    let auto = active_level();
    let mut turns: Vec<Turn<'a>> = [SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&level| level != auto && supports(level))
        .map(|level| Turn::new(format!("{name}_{}", level.name()), forced(level, f)))
        .collect();
    if auto != SimdLevel::Scalar {
        turns.push(Turn::new(
            format!("{name}_{}", auto.name()),
            forced(auto, f),
        ));
    }
    turns.push(Turn::new(name, f));
    turns
}

fn busy(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Half a second of two busy threads: on a virtualized host a second vCPU
/// that has been idle takes no part in sub-millisecond regions and the
/// process's threads share one vCPU (the "cold" state, DESIGN.md §9);
/// that much load reliably ends it.
fn wake_host() {
    let warm = Duration::from_millis(500);
    std::thread::scope(|s| {
        s.spawn(|| busy(warm));
        busy(warm);
    });
}

/// `par_fork_join/{gap1ms,hot,gap100us}`: wall time of one 4-task region
/// of 25 µs tasks on 2 threads (forced, so a 1-thread run still records a
/// fork) — after the submitter slept 1 ms (the gap between two requests),
/// back-to-back with that one, and after 100 µs of serial work on the
/// submitter (the gap between two waves of a forward pass). A perfect fork
/// reads 50 µs, no fork 100 µs: `par_fork_join/ideal` times 50 µs of work
/// on the submitter alone, which is what a perfect fork reads on any host.
/// One round times each once, in that order, so the four are sampled in
/// turn. These size the pool's spin budget (DESIGN.md §9);
/// `scripts/verify.sh` holds `gap100us` within a ratio to `ideal` that a
/// worker parked before the region starts cannot meet: on the 2-vCPU Xeon
/// the bound was read on, its wake-up costs 15–25 µs, a third of this
/// region, where it was a fifth of a region of 50 µs tasks and hid under a
/// 1.3 bound. [`wake_host`] comes first: a cold second vCPU reads no fork
/// for every region whatever the pool does.
fn par_fork_join(g: &mut BenchGroup, smoke: bool) {
    if !smoke {
        wake_host();
    }
    let task = Duration::from_micros(25);
    let regions = if smoke { 5 } else { 300 };
    let gaps = [
        ("par_fork_join/gap1ms", Duration::from_millis(1)),
        ("par_fork_join/hot", Duration::ZERO),
        ("par_fork_join/gap100us", Duration::from_micros(100)),
    ];
    let mut wall: [Vec<u128>; 4] = Default::default();
    scnn_par::with_threads(2, || {
        for _ in 0..regions {
            for ((_, gap), wall) in gaps.iter().zip(&mut wall) {
                if *gap >= Duration::from_millis(1) {
                    std::thread::sleep(*gap);
                } else {
                    busy(*gap);
                }
                let t = Instant::now();
                scnn_par::parallel_for(4, |_| busy(task));
                wall.push(t.elapsed().as_nanos());
            }
            let t = Instant::now();
            busy(2 * task);
            wall[3].push(t.elapsed().as_nanos());
        }
    });
    let names = gaps.map(|(name, _)| name).into_iter();
    g.record_latencies_in_turn(names.chain(["par_fork_join/ideal"]).zip(wall));
}
