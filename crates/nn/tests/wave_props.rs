//! Property tests over small random graphs that between them contain
//! every `Op` kind — including `Pool2d { kind: Avg }` and `Dropout`,
//! which no served zoo model lowers: the `S`-slot wave step
//! (`Executor::forward_wave` over `Schedule::interleave(S)`) equals `S`
//! independent `Executor` eval passes, bit for bit; and the interleaved
//! schedule itself is complete and legal, the base waves for one slot and
//! one segment per slot per wave, in tape order, from two slots on.

use std::collections::BTreeSet;

use scnn_graph::{Graph, NodeId, PoolKind};
use scnn_nn::{
    BnState, BufferProvider, Deferred, Executor, ForwardCtx, Mode, ParamStore, Schedule, Slot,
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
            // Two sibling branches: a multi-unit wave per slot.
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
            // Four sibling branches of unequal length: waves wide enough
            // that `⌈W / S⌉` takes values between 1 and `W`.
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
        kinds_seen.extend(g.nodes().iter().map(|n| n.op.kind_name()));
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
                        schedule: Some(&schedule),
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
                        for units in &schedule.interleave(s).waves {
                            for d in exec.forward_wave(&ctx, units, &mut slots, &mut hooks) {
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

#[test]
fn interleave_is_complete_legal_and_in_tape_order_from_two_slots_on() {
    let mut widths_seen = BTreeSet::new();
    check("interleave(S): coverage, legality, one segment a slot for S ≥ 2", 200, |rng| {
        let (g, _) = random_graph(rng);
        let schedule = Schedule::build(&g);
        let w = schedule.waves.iter().map(Vec::len).max().unwrap_or(0);
        widths_seen.insert(w);
        let n_segs = schedule.segments.len();
        let mut seg_of = vec![0; g.len()];
        for (seg, nodes) in schedule.segments.iter().enumerate() {
            for &id in nodes {
                seg_of[id] = seg;
            }
        }

        for slots in [1usize, 2, 3, 8, 64] {
            // A lone slot keeps the base width, sibling slots replace it.
            let k = if slots == 1 { w } else { 1 };
            let merged = schedule.interleave(slots);
            // wave_of[slot][segment]
            let mut wave_of = vec![vec![usize::MAX; n_segs]; slots];
            for (l, wave) in merged.waves.iter().enumerate() {
                let mut per_slot = vec![0usize; slots];
                for &(slot, seg) in wave {
                    if wave_of[slot][seg] != usize::MAX {
                        return Case::Fail(format!("S={slots}: unit ({slot}, {seg}) twice"));
                    }
                    wave_of[slot][seg] = l;
                    per_slot[slot] += 1;
                }
                if let Some(&most) = per_slot.iter().max().filter(|&&m| m > k) {
                    return Case::Fail(format!("S={slots}: wave {l} runs {most} > k = {k} segments of one slot"));
                }
                // Segment-major: ascending segments, each a run of all slots.
                let expect: Vec<(usize, usize)> = wave
                    .iter()
                    .step_by(slots)
                    .flat_map(|&(_, seg)| (0..slots).map(move |slot| (slot, seg)))
                    .collect();
                if *wave != expect || !wave.windows(2).all(|p| p[0].1 <= p[1].1) {
                    return Case::Fail(format!("S={slots}: wave {l} is not segment-major: {wave:?}"));
                }
            }
            for (slot, wave_of) in wave_of.iter().enumerate() {
                if let Some(seg) = wave_of.iter().position(|&l| l == usize::MAX) {
                    return Case::Fail(format!("S={slots}: unit ({slot}, {seg}) never runs"));
                }
                for node in g.nodes() {
                    let seg = seg_of[node.id.0];
                    for inp in &node.inputs {
                        let from = seg_of[inp.0];
                        if from != seg && wave_of[from] >= wave_of[seg] {
                            return Case::Fail(format!(
                                "S={slots} slot {slot}: node {} reads node {} of a wave that is not earlier",
                                node.id.0, inp.0
                            ));
                        }
                    }
                }
            }

            let flat: Vec<Vec<usize>> = merged
                .waves
                .iter()
                .map(|wave| wave.iter().filter(|u| u.0 == 0).map(|u| u.1).collect())
                .collect();
            if slots == 1 && flat != schedule.waves {
                return Case::Fail(format!("S=1 is not the base schedule: {flat:?} vs {:?}", schedule.waves));
            }
            if k == 1 && flat != (0..n_segs).map(|seg| vec![seg]).collect::<Vec<_>>() {
                return Case::Fail(format!("S={slots}, k=1 leaves ascending segment order: {flat:?}"));
            }
        }
        Case::Pass
    });
    // One slot and many only differ on graphs with sibling branches.
    assert!(widths_seen.contains(&2) && widths_seen.contains(&4), "generated widths {widths_seen:?}");
}
