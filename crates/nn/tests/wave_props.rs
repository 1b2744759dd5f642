//! Property tests over small random graphs that between them contain
//! every `Op` kind — including `Pool2d { kind: Avg }` and `Dropout`,
//! which no served zoo model lowers: the `S`-slot wave step
//! (`Executor::forward_wave` over the `Schedule`'s segments, every slot a
//! segment a wave) equals `S` independent `Executor` eval passes, bit for
//! bit; and the segments themselves are maximal chains of consecutive
//! node ids that tile the tape — running them in index order is the one
//! execution order there is. And a training step reads, in backward, only
//! the outputs the op table (`Op::desc`, through
//! `Tape::needed_in_backward`) says it reads.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scnn_graph::{Graph, NodeId, ParamId, PoolKind, Tape};
use scnn_nn::{
    BnState, BufferProvider, Deferred, Executor, ForwardCtx, Mode, ParamStore, Schedule, Slot,
    VecProvider,
};
use scnn_rng::prop::{check, Case};
use scnn_rng::{Rng, SplitRng};
use scnn_tensor::{uniform, Padding2d, Tensor};

/// Records the bits of every node output as it lands.
struct Capture(Vec<Vec<u32>>);

impl Capture {
    fn new(n_nodes: usize) -> Self {
        Capture(vec![Vec::new(); n_nodes])
    }
}

impl BufferProvider for Capture {
    fn adopt(&mut self, node: usize, out: Tensor) -> Tensor {
        self.0[node] = out.as_slice().iter().map(|v| v.to_bits()).collect();
        out
    }
}

/// A random chain of stages over a `[n, c, h, w]` input, closed by an
/// optional GAP, flatten, linear and the loss. Spatial stages keep `h`
/// and `w` even so the split stage can always halve the width.
fn random_graph(rng: &mut impl Rng) -> (Graph, Vec<usize>) {
    let mut g = Graph::new();
    let shape = [rng.gen_range(1..3usize), rng.gen_range(1..4usize), 8, 8];
    let mut x = g.input(&shape);
    let same = Padding2d::symmetric(1);
    let stages = rng.gen_range(2..6usize);
    for i in 0..stages {
        let c = g.node(x).out_shape[1];
        let w = g.node(x).out_shape[3];
        x = match rng.gen_range(0..8usize) {
            0 => {
                let y = g.conv2d(x, rng.gen_range(1..5usize), 3, 1, same, i % 2 == 0, "conv");
                let y = g.batch_norm(y, false, "bn");
                g.relu(y, "relu")
            }
            // Two sibling branches, built interleaved: chains whose node
            // ids are not consecutive.
            1 => {
                let a = g.slice(x, 3, 0, w / 2, "a");
                let b = g.slice(x, 3, w / 2, w - w / 2, "b");
                let ca = g.conv2d(a, 3, 3, 1, same, false, "ca");
                let cb = g.conv2d(b, 3, 3, 1, same, true, "cb");
                let rb = g.relu(cb, "rb");
                g.concat(&[ca, rb], 3, "join")
            }
            2 => {
                let y = g.conv2d(x, c, 3, 1, same, true, "res_conv");
                g.add(&[y, x], "res")
            }
            3 if w >= 4 => g.pool2d(x, PoolKind::Max, 2, 2, Padding2d::default(), "max"),
            4 if w >= 4 => g.pool2d(x, PoolKind::Avg, 2, 2, Padding2d::default(), "avg"),
            5 => g.dropout(x, 0.3, "drop"),
            // Four sibling branches of unequal length, each built whole:
            // multi-node segments side by side on one level.
            6 if w >= 4 => {
                let q = w / 4;
                let parts: Vec<NodeId> = (0..4)
                    .map(|p| {
                        let y = g.slice(x, 3, p * q, q, "quarter");
                        let y = g.conv2d(y, 2, 3, 1, same, p % 2 == 0, "cq");
                        if p < 2 {
                            g.relu(y, "rq")
                        } else {
                            y
                        }
                    })
                    .collect();
                g.concat(&parts, 3, "join4")
            }
            _ => g.relu(x, "relu"),
        };
    }
    if rng.gen_range(0..2usize) == 0 {
        x = g.global_avg_pool(x, "gap");
    }
    let f = g.flatten(x, "flat");
    let l = g.linear(f, 3, "fc");
    g.softmax_cross_entropy(l, "loss");
    let labels = (0..shape[0]).map(|_| rng.gen_range(0..3usize)).collect();
    (g, labels)
}

#[test]
fn wave_step_equals_independent_eval_passes() {
    let mut kinds_seen = BTreeSet::new();
    check("S-slot wave step == S eval passes", 40, |rng| {
        let (g, labels) = random_graph(rng);
        kinds_seen.extend(g.nodes().iter().map(|n| n.op.desc().name));
        let n = g.len();
        let dims = g.node(NodeId(0)).out_shape.clone();

        // Non-trivial frozen state: perturbed parameters (biases start at
        // zero) and BN statistics from one training pass.
        let mut params = ParamStore::init(&g, rng);
        params.update(|_, v, _| {
            let noise = uniform(rng, v.shape().dims(), -0.5, 0.5);
            v.add_assign(&noise);
        });
        let mut bn = BnState::new();
        let warm = uniform(rng, &dims, -1.0, 1.0);
        Executor::new().run(&g, &mut params, &mut bn, &warm, &labels, Mode::Train, rng);

        let inputs: Vec<Tensor> = (0..8).map(|_| uniform(rng, &dims, -1.0, 1.0)).collect();
        let exec = Executor::new();
        let schedule = Schedule::build(&g);
        for threads in [1usize, 4] {
            let failure = scnn_par::with_threads(threads, || {
                let reference: Vec<_> = inputs
                    .iter()
                    .map(|x| {
                        let mut capture = Capture::new(n);
                        let result = exec.run_with(
                            &g,
                            &mut params.clone(),
                            &mut bn.clone(),
                            x,
                            &labels,
                            Mode::Eval,
                            &mut SplitRng::seed_from_u64(0),
                            &mut capture,
                        );
                        (result, capture.0)
                    })
                    .collect();

                for s in [1usize, 3, 8] {
                    let ctx = ForwardCtx {
                        graph: &g,
                        params: &params,
                        bn: &bn,
                        mode: Mode::Eval,
                        labels: Some(&labels),
                    };
                    let mut slots: Vec<Slot<'_>> =
                        inputs[..s].iter().map(|x| Slot::new(x, n)).collect();
                    let mut captures: Vec<Capture> = (0..s).map(|_| Capture::new(n)).collect();
                    let mut results = Vec::new();
                    {
                        let mut hooks: Vec<&mut dyn BufferProvider> =
                            captures.iter_mut().map(|c| c as &mut dyn BufferProvider).collect();
                        for segment in &schedule.segments {
                            for d in exec.forward_wave(&ctx, segment.clone(), &mut slots, &mut hooks) {
                                match d {
                                    Deferred::Result(r) => results.push(r),
                                    other => return Some(format!("eval deferred {other:?}")),
                                }
                            }
                        }
                    }
                    for slot in 0..s {
                        let (want_result, want_bits) = &reference[slot];
                        if results.get(slot) != Some(want_result) {
                            return Some(format!("S={s} slot {slot}: loss result differs"));
                        }
                        if captures[slot].0 != *want_bits {
                            return Some(format!("S={s} slot {slot}: a node output differs"));
                        }
                    }
                }
                None
            });
            if let Some(msg) = failure {
                return Case::Fail(format!("threads={threads}: {msg}"));
            }
        }
        Case::Pass
    });

    // The generator is only a test of the merged arms if it reaches them.
    for kind in [
        "input", "conv2d", "maxpool", "avgpool", "gavgpool", "batchnorm", "relu", "dropout",
        "linear", "add", "concat", "slice", "flatten", "softmax_ce",
    ] {
        assert!(kinds_seen.contains(kind), "no generated graph contained a {kind} node");
    }
}

/// Drops, at the first `before_backward`, every node output
/// `Tape::needed_in_backward` marks unread — what a plan built from the op
/// table frees before backward.
struct DropUnread {
    needed: Vec<bool>,
    dropped: bool,
}

impl BufferProvider for DropUnread {
    fn before_backward(&mut self, _node: usize, outputs: &mut [Option<Tensor>]) {
        if !std::mem::replace(&mut self.dropped, true) {
            for (out, &needed) in outputs.iter_mut().zip(&self.needed) {
                if !needed {
                    *out = None;
                }
            }
        }
    }
}

#[test]
fn backward_reads_only_what_the_op_table_says() {
    let mut dropped = 0usize;
    check("train step without unread outputs == Vec-per-node step", 40, |rng| {
        let (g, labels) = random_graph(rng);
        let needed = Tape::new(&g).needed_in_backward(&g);
        dropped += needed.iter().filter(|&&n| !n).count();
        let params = ParamStore::init(&g, rng);
        let images = uniform(rng, &g.node(NodeId(0)).out_shape, -1.0, 1.0);
        let seed = rng.next_u64();
        // Loss and every parameter gradient, as bits.
        let step = |provider: &mut dyn BufferProvider| {
            let mut p = params.clone();
            let mut rng = SplitRng::seed_from_u64(seed);
            let r = Executor::new().run_with(
                &g, &mut p, &mut BnState::new(), &images, &labels, Mode::Train, &mut rng, provider,
            );
            let grads: Vec<Vec<u32>> = (0..g.params().len())
                .map(|i| p.grad(ParamId(i)).as_slice().iter().map(|v| v.to_bits()).collect())
                .collect();
            (r.loss.to_bits(), grads)
        };
        for threads in [1usize, 4] {
            let want = scnn_par::with_threads(threads, || step(&mut VecProvider));
            let got = catch_unwind(AssertUnwindSafe(|| {
                scnn_par::with_threads(threads, || {
                    step(&mut DropUnread { needed: needed.clone(), dropped: false })
                })
            }));
            match got {
                Err(_) => {
                    return Case::Fail(format!("threads={threads}: backward read a dropped output"))
                }
                Ok(got) if got != want => {
                    return Case::Fail(format!("threads={threads}: loss or a gradient differs"))
                }
                Ok(_) => {}
            }
        }
        Case::Pass
    });
    assert!(dropped > 0, "no generated graph had an output backward leaves unread");
}

#[test]
fn segments_are_maximal_chains_that_tile_the_tape() {
    let mut widths_seen = BTreeSet::new();
    let mut cut_chains = 0usize;
    check("segments: contiguous, ascending, every node once, maximal chains", 200, |rng| {
        let (g, _) = random_graph(rng);
        let schedule = Schedule::build(&g);
        widths_seen.insert(schedule.waves.iter().map(Vec::len).max().unwrap_or(0));
        let consumers = g.consumers();

        // Ranges that tile `0..n` in order: contiguous inside (by type),
        // ascending and gap-free across, so every node runs exactly once
        // and segment order is tape order.
        let mut next = 0;
        for (seg, nodes) in schedule.segments.iter().enumerate() {
            if nodes.start != next || nodes.is_empty() {
                return Case::Fail(format!("segment {seg} is {nodes:?}, the tape is at {next}"));
            }
            next = nodes.end;
        }
        if next != g.len() {
            return Case::Fail(format!("segments end at {next} of {} nodes", g.len()));
        }

        // A node continues its segment exactly when it is the sole
        // consumer of its sole input *and* that input is the previous id.
        for nodes in &schedule.segments {
            for id in nodes.clone() {
                let inputs = &g.node(NodeId(id)).inputs;
                let sole = inputs.len() == 1 && consumers[inputs[0].0].len() == 1;
                let chains = sole && inputs[0].0 + 1 == id;
                cut_chains += usize::from(sole && !chains);
                if chains != (id > nodes.start) {
                    return Case::Fail(format!("node {id} of {nodes:?}: chains = {chains}"));
                }
            }
        }
        Case::Pass
    });
    // The generator must reach both shapes: sibling segments on one level,
    // and chains that have to be cut because their ids are not consecutive.
    assert!(widths_seen.contains(&2) && widths_seen.contains(&4), "generated widths {widths_seen:?}");
    assert!(cut_chains > 0, "no generated graph had a non-contiguous chain");
}
