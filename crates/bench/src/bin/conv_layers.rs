//! Per-shape convolution profile of the two training graphs the repo
//! benchmark runs (`train_split_hmms`, `train_plain`): ResNet-18 cifar at
//! width 0.5, batch 8, split `(0.5, 2, 2)` and unsplit.
//!
//! For every distinct conv shape it prints how many nodes have it and the
//! floor time
//! (fastest of `--passes` × `--reps` individually timed calls) and GFLOP/s of
//! one forward and one backward call — the "layer profile says *where* it came from" half of the
//! ROADMAP's perf-claim rule. Backward is `dw` + `dx`, twice the forward
//! flops; the `dw` and `dx` columns are the floors of the tile engine's two
//! backward kernels called on their own (`conv2d_dw_tiled_acc_at`,
//! `conv2d_dx_tiled`), so a backward change shows which half it moved.
//!
//! The header also prints the host line every bench file starts with (CPU
//! model, SIMD level, `nproc`, and the bare multiply-add rate on one
//! thread at each level the host runs — the ceiling the GFLOP/s columns
//! are read against).
//!
//! ```text
//! cargo run --release -p scnn-bench --bin conv_layers [--passes 4] [--reps 15] [--width 0.5] [--batch 8]
//! ```

use std::collections::BTreeMap;
use std::time::Instant;

use scnn_bench::{host_line, Args};
use scnn_core::{lower_unsplit, plan_split, SplitConfig};
use scnn_gpusim::node_flops;
use scnn_graph::{Graph, Op};
use scnn_models::{resnet18, ModelOptions};
use scnn_nn::kernels::{conv2d_backward_micro, conv2d_forward_with, ConvAttrs};
use scnn_rng::SplitRng;
use scnn_tensor::{
    conv2d_dw_tiled_acc_at, conv2d_dx_tiled, uniform, Conv2dGeometry, Padding2d, Tensor,
};

/// What makes two conv nodes the same kernel call.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct ShapeKey {
    in_dims: Vec<usize>,
    oc: usize,
    k: (usize, usize),
    s: (usize, usize),
    pad: (i64, i64, i64, i64),
    bias: bool,
}

struct Row {
    count: usize,
    flops: f64,
    attrs: ConvAttrs,
}

fn min_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn conv_shapes(graph: &Graph) -> BTreeMap<ShapeKey, Row> {
    let mut shapes = BTreeMap::new();
    for node in graph.nodes() {
        let Op::Conv2d { kh, kw, sh, sw, pad, weight, bias, .. } = node.op else {
            continue;
        };
        let key = ShapeKey {
            in_dims: graph.node(node.inputs[0]).out_shape.clone(),
            oc: graph.param(weight).dims[0],
            k: (kh, kw),
            s: (sh, sw),
            pad: (pad.h_begin, pad.h_end, pad.w_begin, pad.w_end),
            bias: bias.is_some(),
        };
        let row = shapes.entry(key).or_insert(Row {
            count: 0,
            flops: node_flops(graph, node),
            attrs: ConvAttrs { kh, kw, sh, sw, pad },
        });
        row.count += 1;
    }
    shapes
}

/// One conv shape's operands and the floors read so far.
struct Probe {
    label: String,
    row: Row,
    x: Tensor,
    w: Tensor,
    b: Option<Tensor>,
    dy: Tensor,
    fwd_ms: f64,
    bwd_ms: f64,
    dw_ms: f64,
    dx_ms: f64,
}

fn probes(graph: &Graph) -> Vec<Probe> {
    let mut rng = SplitRng::seed_from_u64(1);
    conv_shapes(graph)
        .into_iter()
        .map(|(key, row)| {
            let a = row.attrs;
            let d = &key.in_dims;
            let x = uniform(&mut rng, d, -1.0, 1.0);
            let w = uniform(&mut rng, &[key.oc, d[1], a.kh, a.kw], -0.5, 0.5);
            let b = key.bias.then(|| uniform(&mut rng, &[key.oc], -0.5, 0.5));
            let y = conv2d_forward_with(&x, &w, b.as_ref(), &a, None);
            let dy = uniform(&mut rng, y.shape().dims(), -1.0, 1.0);
            let Padding2d { h_begin, h_end, w_begin, w_end } = a.pad;
            Probe {
                label: format!(
                    "{},{},{},{} -> {} {}x{}/{} [{h_begin},{h_end},{w_begin},{w_end}]",
                    d[0], d[1], d[2], d[3], key.oc, a.kh, a.kw, a.sh
                ),
                row,
                x,
                w,
                b,
                dy,
                fwd_ms: f64::INFINITY,
                bwd_ms: f64::INFINITY,
                dw_ms: f64::INFINITY,
                dx_ms: f64::INFINITY,
            }
        })
        .collect()
}

/// `passes` sweeps over all shapes, `reps` calls per shape and direction
/// in each; a shape's floor is its fastest call of any pass. Interleaving
/// the shapes keeps one slow stretch of the host (benchmark/README.md,
/// "Noise") from landing on a single row.
fn profile(name: &str, graph: &Graph, passes: usize, reps: usize) {
    let mut probes = probes(graph);
    for _ in 0..passes {
        for p in &mut probes {
            let a = p.row.attrs;
            p.fwd_ms = p.fwd_ms.min(min_ms(reps, || {
                std::hint::black_box(conv2d_forward_with(&p.x, &p.w, p.b.as_ref(), &a, None));
            }));
            p.bwd_ms = p.bwd_ms.min(min_ms(reps, || {
                std::hint::black_box(conv2d_backward_micro(
                    &p.x,
                    &p.w,
                    p.b.is_some(),
                    &p.dy,
                    &a,
                    None,
                    0,
                ));
            }));
            // The two kernels the backward runs, each on its own, on the
            // cropped window the conv lowers to.
            let (ic, h, w) = (p.x.dim(1), p.x.dim(2), p.x.dim(3));
            let (g, crop) = Conv2dGeometry::cropped(ic, h, w, a.kh, a.kw, a.sh, a.sw, a.pad);
            let (off_h, off_w) = ((-crop.h_begin) as usize, (-crop.w_begin) as usize);
            let mut dw = vec![0.0f32; p.w.len()];
            p.dw_ms = p.dw_ms.min(min_ms(reps, || {
                conv2d_dw_tiled_acc_at(&p.x, off_h, off_w, &p.dy, &g, 0, p.x.dim(0), &mut dw, true);
                std::hint::black_box(&mut dw);
            }));
            let mut dx = Tensor::zeros(p.x.shape().dims());
            p.dx_ms = p.dx_ms.min(min_ms(reps, || {
                conv2d_dx_tiled(&p.dy, &p.w, &g, &mut dx, off_h, off_w);
                std::hint::black_box(&mut dx);
            }));
        }
    }
    println!("\n## {name}");
    println!(
        "{:<34} {:>3} {:>8} {:>7} {:>8} {:>7} {:>8} {:>8} {:>9} {:>9}",
        "n,ic,h,w -> oc kxk/s pad",
        "x",
        "fwd ms",
        "GF/s",
        "bwd ms",
        "GF/s",
        "dw ms",
        "dx ms",
        "sum fwd",
        "sum bwd"
    );
    let (mut sum_fwd, mut sum_bwd, mut sum_flops) = (0.0, 0.0, 0.0);
    let (mut sum_dw, mut sum_dx) = (0.0, 0.0);
    for p in &probes {
        let (n, flops, fwd, bwd) = (p.row.count as f64, p.row.flops, p.fwd_ms, p.bwd_ms);
        println!(
            "{:<34} {:>3} {fwd:>8.3} {:>7.1} {bwd:>8.3} {:>7.1} {:>8.3} {:>8.3} {:>9.2} {:>9.2}",
            p.label,
            p.row.count,
            flops / fwd / 1e6,
            2.0 * flops / bwd / 1e6,
            p.dw_ms,
            p.dx_ms,
            n * fwd,
            n * bwd,
        );
        sum_fwd += n * fwd;
        sum_bwd += n * bwd;
        sum_dw += n * p.dw_ms;
        sum_dx += n * p.dx_ms;
        sum_flops += n * flops;
    }
    println!(
        "total: {:.3} GFLOP forward; forward {sum_fwd:.2} ms ({:.1} GFLOP/s), \
         backward {sum_bwd:.2} ms ({:.1} GFLOP/s) = dw {sum_dw:.2} + dx {sum_dx:.2} ms + the rest",
        sum_flops / 1e9,
        sum_flops / sum_fwd / 1e6,
        2.0 * sum_flops / sum_bwd / 1e6
    );
}

fn main() {
    let args = Args::parse(&["passes", "reps", "width", "batch"]);
    let passes = args.usize("passes", 4);
    let reps = args.usize("reps", 15);
    let width = args.f64("width", 0.5);
    let batch = args.usize("batch", 8);

    let desc = resnet18(&ModelOptions::cifar().with_width(width));
    let split = plan_split(&desc, &SplitConfig::new(0.5, 2, 2))
        .expect("resnet-18 splits at depth 0.5 on a 2x2 grid");
    println!(
        "# conv layer profile: ResNet-18 cifar width {width}, batch {batch}, {} threads, simd {}, floor of {passes}x{reps} calls",
        scnn_par::max_threads(),
        scnn_tensor::active_level().name()
    );
    println!("# {}", host_line());
    profile("split (0.5, 2, 2)", &split.lower(&desc, batch), passes, reps);
    profile("unsplit", &lower_unsplit(&desc, batch), passes, reps);
}
