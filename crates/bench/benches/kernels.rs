//! Micro-benchmarks for the CPU kernels that back the proxy training
//! runs, on the in-tree timing harness (`scnn_bench::harness`). Results
//! land in `BENCH_kernels.json` at the workspace root.
//!
//! `--smoke` shrinks every shape and takes a single sample with no warmup:
//! `scripts/verify.sh` uses it to prove each bench binary still runs and
//! emits parseable records without paying full measurement cost.
//!
//! With `--features heap-track` the conv records additionally carry the
//! process heap high-water across their timed region, and bytes-only
//! `conv2d_*_scratch_peak` records pin the tiled engine's workspace
//! footprint — together they prove the tiled path never materializes the
//! full `im2col`/`dcols` matrices (`scripts/verify.sh` gates both).

use std::hint::black_box;
use std::time::{Duration, Instant};

use scnn_bench::fma::fma_chains;
use scnn_bench::{Args, BenchGroup};
use scnn_core::lower_unsplit;
use scnn_graph::ParamId;
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::kernels::{
    avg_pool_forward, batch_norm_backward, batch_norm_forward, conv2d_backward, conv2d_forward,
    linear_backward, linear_forward, max_pool_forward, relu_backward, relu_forward, ConvAttrs,
    PoolAttrs,
};
use scnn_nn::{ParamStore, Sgd};
use scnn_rng::SplitRng;
use scnn_tensor::{
    active_level, col2im, conv2d_fwd_winograd, force_level, im2col, matmul, supports, uniform,
    Conv2dGeometry, Padding2d, SimdLevel, Tensor,
};

#[cfg(feature = "heap-track")]
#[global_allocator]
static ALLOC: scnn_bench::heap::CountingAlloc = scnn_bench::heap::CountingAlloc;

/// Restarts the process-heap high-water (no-op without `heap-track`).
fn heap_reset() {
    #[cfg(feature = "heap-track")]
    scnn_bench::heap::reset_peak();
}

/// Annotates the last record with the heap high-water since [`heap_reset`]
/// (no-op without `heap-track`).
fn heap_annotate(g: &mut BenchGroup) {
    #[cfg(feature = "heap-track")]
    g.set_peak_bytes(scnn_bench::heap::peak_bytes());
    #[cfg(not(feature = "heap-track"))]
    let _ = g;
}

fn main() {
    let smoke = Args::parse(&["smoke", "bench"]).bool("smoke");
    // The first record is the conv ratio gates' denominator: take it in
    // the same warm host state as the records after it.
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

    // Warm the pools once so the timed region measures the steady state
    // (arenas and the output pool hold their buffers between calls).
    let y = conv2d_forward(&x, &w, None, &attrs);
    let dy = Tensor::ones(y.shape().dims());

    // The bare multiply-add reference (`scnn_bench::fma`): twelve
    // independent chains at the active level's widest width, a fixed
    // total of steps cut into one task per thread, so it runs on as many
    // threads as the conv records below and, like them, takes half as long
    // on two. The direct and Winograd forwards are gated as ratios to it
    // in verify.sh: a host in a slow state slows the reference too, where
    // an absolute bound reads the state and a ratio to another kernel
    // reads that kernel.
    let threads = scnn_par::max_threads();
    let fma_iters = if smoke { 1_000 } else { 800_000 } / threads;
    g.bench("fma_ref", || {
        let level = active_level();
        scnn_par::parallel_for(threads, |_| {
            black_box(fma_chains(level, fma_iters));
        })
    });

    heap_reset();
    bench_with_level_twins(&mut g, "conv2d_fwd_8x16x32x32", || {
        conv2d_forward(&x, &w, None, &attrs)
    });
    heap_annotate(&mut g);

    // The winograd F(2×2, 3×3) forward at the same shape. This path is
    // epsilon-tolerant, not bitwise (DESIGN.md §16); verify.sh holds it
    // as a ratio to `fma_ref` — a tripwire for the transform path
    // regressing, not a claim that it wins.
    let geo = Conv2dGeometry::new(c, hw, hw, 3, 3, 1, 1, Padding2d::symmetric(1));
    let mut wy = vec![0.0f32; n * oc * geo.patch_count()];
    g.bench("conv2d_fwd_8x16x32x32_winograd", || {
        conv2d_fwd_winograd(&x, &w, None, &geo, &mut wy);
        black_box(&mut wy);
    });

    heap_reset();
    g.bench("conv2d_bwd_8x16x32x32", || {
        conv2d_backward(&x, &w, false, &dy, &attrs)
    });
    heap_annotate(&mut g);

    // Scratch-arena high-water of one warm fwd/bwd pass: the tiled
    // engine's whole transient footprint. For the 8x16x32x32 shape the
    // full im2col matrix alone would be 4.7 MB — the gate in verify.sh
    // pins that these stay far below that.
    scnn_par::scratch::reset_peak();
    black_box(conv2d_forward(&x, &w, None, &attrs));
    g.record_bytes("conv2d_fwd_scratch_peak", scnn_par::scratch::peak_bytes());
    scnn_par::scratch::reset_peak();
    black_box(conv2d_backward(&x, &w, false, &dy, &attrs));
    g.record_bytes("conv2d_bwd_scratch_peak", scnn_par::scratch::peak_bytes());

    // The shapes the repo benchmark's workloads actually execute
    // (ResNet-18 cifar width 0.5, batch 8, split (0.5, 2, 2) for training,
    // width 0.25, batch 1 for serving; see `results/conv_layers.txt`): the
    // 16×16 patch conv that is a third of the training step, layer4's 4×4
    // map, a 1×1 stride-2 shortcut, and forward only, the serving patch
    // conv and the serving graph's thinnest tile (one 16-position strip).
    let (wn, wc, whw) = if smoke { (1, 4, 4) } else { (8, 32, 16) };
    let (dc, dhw) = if smoke { (8, 2) } else { (256, 4) };
    let (sc, tc) = if smoke { (4, 8) } else { (16, 128) };
    for (name, xd, oc, k, stride, with_bwd) in [
        ("8x32x16x16", [wn, wc, whw, whw], wc, 3, 1, true),
        ("8x256x4x4", [wn, dc, dhw, dhw], dc, 3, 1, true),
        ("1x1s2_8x32x16x16", [wn, wc, whw, whw], 2 * wc, 1, 2, false),
        ("1x16x16x16", [1, sc, whw, whw], sc, 3, 1, false),
        ("1x128x4x4", [1, tc, dhw, dhw], tc, 3, 1, false),
    ] {
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
        g.bench(&format!("conv2d_fwd_{name}"), || conv2d_forward(&wx, &ww, None, &a));
        if with_bwd {
            g.bench(&format!("conv2d_bwd_{name}"), || {
                conv2d_backward(&wx, &ww, false, &wdy, &a)
            });
        }
    }

    // One optimizer step over every parameter of that model (~2.8 M
    // scalars), gradients present, momentum and weight decay on.
    let desc = resnet18(&ModelOptions::cifar().with_width(if smoke { 0.125 } else { 0.5 }));
    let graph = lower_unsplit(&desc, 1);
    let mut params = ParamStore::init(&graph, &mut rng);
    for id in 0..params.len() {
        let dims = params.value(ParamId(id)).shape().dims().to_vec();
        params.accumulate_grad(ParamId(id), &uniform(&mut rng, &dims, -0.1, 0.1));
    }
    let mut sgd = Sgd::new(&params, 0.005, 0.9, 1e-4);
    g.bench("sgd_step_resnet18_w05", || sgd.step(&mut params));

    // The lowering stages of the conv above, measured on their own.
    g.bench("im2col_8x16x32x32", || im2col(&x, &geo));
    let cols = im2col(&x, &geo);
    g.bench("col2im_8x16x32x32", || col2im(&cols, n, &geo));

    let gamma = Tensor::ones(&[c]);
    let beta = Tensor::zeros(&[c]);
    g.bench("batchnorm_fwd", || batch_norm_forward(&x, &gamma, &beta, None));
    let (_, saved) = batch_norm_forward(&x, &gamma, &beta, None);
    let bdy = uniform(&mut rng, &[n, c, hw, hw], -1.0, 1.0);
    g.bench("batchnorm_bwd", || batch_norm_backward(&bdy, &gamma, &saved));

    // ReLU over one 1 MB activation. The input's signs are random, so the
    // backward mask is unpredictable: verify.sh holds backward within 3×
    // of forward, which a branch per element cannot meet (it read ≈ 12×).
    let rx = uniform(&mut rng, &[n, 2 * c, hw, hw], -1.0, 1.0);
    g.bench("relu_fwd_8x32x32x32", || relu_forward(&rx));
    let (ry, rdy) = (relu_forward(&rx), Tensor::ones(rx.shape().dims()));
    g.bench("relu_bwd_8x32x32x32", || relu_backward(&ry, &rdy));

    let pool = PoolAttrs {
        kh: 2,
        kw: 2,
        sh: 2,
        sw: 2,
        pad: Padding2d::default(),
    };
    g.bench("maxpool_fwd", || max_pool_forward(&x, &pool));
    g.bench("avgpool_fwd", || avg_pool_forward(&x, &pool));

    // A classifier-head-sized linear layer: batch 128, 512 -> 256.
    let (lb, lin, lout) = if smoke { (4, 16, 8) } else { (128, 512, 256) };
    let lx = uniform(&mut rng, &[lb, lin], -1.0, 1.0);
    let lw = uniform(&mut rng, &[lout, lin], -0.5, 0.5);
    let lbias = uniform(&mut rng, &[lout], -0.1, 0.1);
    g.bench("linear_fwd_128x512x256", || linear_forward(&lx, &lw, &lbias));
    let ldy = uniform(&mut rng, &[lb, lout], -1.0, 1.0);
    g.bench("linear_bwd_128x512x256", || linear_backward(&lx, &lw, &ldy));

    let msz = if smoke { 16 } else { 256 };
    let a = uniform(&mut rng, &[msz, msz], -1.0, 1.0);
    let bm = uniform(&mut rng, &[msz, msz], -1.0, 1.0);
    g.bench("matmul_256", || matmul(&a, &bm));

    // One cache-capacity-straddling square GEMM (512³ ≈ 268 MFLOP).
    let m2 = if smoke { 24 } else { 512 };
    let a2 = uniform(&mut rng, &[m2, m2], -1.0, 1.0);
    let b2 = uniform(&mut rng, &[m2, m2], -1.0, 1.0);
    bench_with_level_twins(&mut g, "matmul_512", || matmul(&a2, &b2));

    // The portable bodies of the two twinned records (DESIGN.md §14), so
    // the scalar trajectory is tracked separately: verify.sh holds both
    // under ceilings a libm call per multiply-add cannot meet.
    force_level(Some(SimdLevel::Scalar));
    g.bench("conv2d_fwd_8x16x32x32_scalar", || conv2d_forward(&x, &w, None, &attrs));
    g.bench("matmul_512_scalar", || matmul(&a2, &b2));
    force_level(None);

    par_fork_join(&mut g, smoke);

    g.finish();
}

/// Benches `f` under auto dispatch as `name`, twinned with
/// `{name}_{level}` forced to the level auto resolves to: one code path,
/// so verify.sh holds their medians within 1.10× of each other both ways.
/// Their samples alternate: taken one record after the other, the two read
/// up to 2× apart whenever the host left its cold state (below) in
/// between. Each other vector level the host supports gets a forced record
/// of its own first (`_avx2` on an AVX-512 host), and the auto record comes
/// last, so a heap annotation lands on it. Under scalar auto dispatch
/// there is no vector level to twin. A baseline written on an AVX-512
/// host lists `_avx512` records a host without it does not write:
/// regenerate it there, or run verify.sh with SCNN_VERIFY_SKIP_BENCH=1.
fn bench_with_level_twins<T>(g: &mut BenchGroup, name: &str, f: impl Fn() -> T) {
    let auto = active_level();
    let forced = |level| {
        let f = &f;
        move || {
            force_level(Some(level));
            let out = f();
            force_level(None);
            out
        }
    };
    for level in [SimdLevel::Avx2, SimdLevel::Avx512] {
        if level != auto && supports(level) {
            g.bench(&format!("{name}_{}", level.name()), forced(level));
        }
    }
    if auto == SimdLevel::Scalar {
        g.bench(name, &f);
        return;
    }
    g.bench_twins(
        (&format!("{name}_{}", auto.name()), forced(auto)),
        (name, &f),
    );
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

/// `par_fork_join/{hot,gap100us,gap1ms}`: wall time of one 4-task region
/// of 50 µs tasks on 2 threads (forced, so the committed 1-thread
/// baselines still record a fork) — back-to-back, after 100 µs of serial
/// work on the submitter (the gap between two waves of a forward pass),
/// and after the submitter slept 1 ms (the gap between two requests). A
/// perfect fork reads 100 µs, no fork 200 µs. These size the pool's spin
/// budget (DESIGN.md §9); `scripts/verify.sh` holds `gap100us` under a
/// ceiling that a worker parking the instant a region ends cannot meet.
/// [`wake_host`] comes first: a cold second vCPU reads 200 µs for every
/// region whatever the pool does.
fn par_fork_join(g: &mut BenchGroup, smoke: bool) {
    if !smoke {
        wake_host();
    }
    let task = Duration::from_micros(50);
    let regions = if smoke { 5 } else { 300 };
    for (name, gap) in [
        ("hot", Duration::ZERO),
        ("gap100us", Duration::from_micros(100)),
        ("gap1ms", Duration::from_millis(1)),
    ] {
        let wall: Vec<u128> = scnn_par::with_threads(2, || {
            (0..regions)
                .map(|_| {
                    if gap >= Duration::from_millis(1) {
                        std::thread::sleep(gap);
                    } else {
                        busy(gap);
                    }
                    let t = Instant::now();
                    scnn_par::parallel_for(4, |_| busy(task));
                    t.elapsed().as_nanos()
                })
                .collect()
        });
        g.record_latency(&format!("par_fork_join/{name}"), &wall);
    }
}
