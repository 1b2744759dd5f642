//! The multi-layer Split-CNN transform (§3.2) and graph lowering.
//!
//! Splitting is planned *backwards* from the join point: the output split
//! scheme chosen at the join propagates through each layer of the region
//! via [`crate::input_starts`], collecting per-patch paddings on the way.
//! Inside residual blocks the [`SplitChoice::Aligned`] rule (`I = s·O`)
//! makes both branches demand the same scheme on the shared block input, so
//! patches flow through whole residual networks without communicating —
//! including stride-2 blocks, where the `k < s` downsample convolution
//! falls outside `[lb, ub]` and is realized with negative padding
//! (footnote 1) that abandons exactly the stride-gap elements.

use std::collections::HashMap;
use std::fmt;

use scnn_rng::Rng;
use scnn_graph::{Graph, NodeId, Op};
use scnn_tensor::Padding2d;

use crate::model::{Block, LayerDesc, ModelDesc};
use crate::scheme::{even_starts, input_starts, patch_paddings, SplitChoice};
use crate::stochastic::stochastic_starts;

/// Configuration of a split transform (§4.1 step 1): splitting depth `d`
/// as a fraction of convolution layers, and the patch grid `(h, w)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SplitConfig {
    /// Fraction of convolution layers to split, in `[0, 1]`.
    pub depth: f64,
    /// Number of patches along the height dimension.
    pub n_h: usize,
    /// Number of patches along the width dimension.
    pub n_w: usize,
    /// Boundary choice rule.
    pub choice: SplitChoice,
}

impl SplitConfig {
    /// Creates a config with the default [`SplitChoice::Aligned`] rule.
    pub fn new(depth: f64, n_h: usize, n_w: usize) -> Self {
        SplitConfig {
            depth,
            n_h,
            n_w,
            choice: SplitChoice::Aligned,
        }
    }
}

/// Why a split could not be planned.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanSplitError {
    /// Depth 0, a conv-free region, or a model with no splittable prefix.
    NothingToSplit,
    /// Depth above 1.0: more than every convolution. The region loop would
    /// silently clamp it, hiding a config typo (e.g. a percentage).
    DepthOutOfRange {
        /// The rejected depth.
        depth: f64,
    },
    /// The join-point feature map is smaller than the patch grid.
    TooManyPatches {
        /// Spatial extent at the join point.
        extent: usize,
        /// Requested patches along that dimension.
        patches: usize,
    },
    /// Parallel branches of a residual block demanded different input
    /// schemes (only possible with non-[`SplitChoice::Aligned`] choices).
    SchemeConflict {
        /// Index of the offending block.
        block: usize,
    },
}

impl fmt::Display for PlanSplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanSplitError::NothingToSplit => write!(f, "no layers eligible for splitting"),
            PlanSplitError::DepthOutOfRange { depth } => {
                write!(f, "splitting depth {depth} is outside (0, 1]")
            }
            PlanSplitError::TooManyPatches { extent, patches } => write!(
                f,
                "join-point extent {extent} cannot be split into {patches} patches"
            ),
            PlanSplitError::SchemeConflict { block } => {
                write!(f, "residual block {block} branches demand conflicting split schemes")
            }
        }
    }
}

impl std::error::Error for PlanSplitError {}

/// Per-dimension split plan: the scheme at the region input and per-patch
/// paddings for every window layer in the region (keyed by flat layer
/// index).
#[derive(Clone, Debug, PartialEq, Eq)]
struct DimPlan {
    input_starts: Vec<usize>,
    pads: HashMap<usize, Vec<(i64, i64)>>,
}

/// A fully planned split: which blocks are in the region, the patch grid,
/// and the per-layer paddings along each dimension. Produced by
/// [`plan_split`] / [`plan_split_stochastic`]; lowered to an executable
/// graph by [`SplitPlan::lower`].
#[derive(Clone, Debug, PartialEq)]
pub struct SplitPlan {
    /// Leading blocks included in the split region.
    pub region_blocks: usize,
    /// Patch rows.
    pub n_h: usize,
    /// Patch columns.
    pub n_w: usize,
    /// Convolutions inside the region.
    pub split_convs: usize,
    /// Total convolutions in the model.
    pub total_convs: usize,
    h: DimPlan,
    w: DimPlan,
}

impl SplitPlan {
    /// The realized splitting depth (`split convs / total convs`), which
    /// the paper reports as "approximately d%".
    pub fn actual_depth(&self) -> f64 {
        self.split_convs as f64 / self.total_convs.max(1) as f64
    }

    /// The split boundaries on the region input along `(height, width)`.
    pub fn input_schemes(&self) -> (&[usize], &[usize]) {
        (&self.h.input_starts, &self.w.input_starts)
    }

    /// Lowers the description into a Split-CNN graph for the given batch
    /// size. The parameter table is identical to
    /// [`lower_unsplit`]`(desc, batch)`'s.
    pub fn lower(&self, desc: &ModelDesc, batch: usize) -> Graph {
        lower_impl(desc, batch, Some(self)).g
    }
}

/// Lowers a description into a plain (unsplit) graph ending in a softmax
/// cross-entropy loss.
pub fn lower_unsplit(desc: &ModelDesc, batch: usize) -> Graph {
    lower_impl(desc, batch, None).g
}

/// Plans a deterministic split with evenly spaced boundaries at the join.
///
/// # Errors
///
/// See [`PlanSplitError`].
pub fn plan_split(desc: &ModelDesc, cfg: &SplitConfig) -> Result<SplitPlan, PlanSplitError> {
    plan_with_scheme(desc, cfg, |len, n, _| even_starts(len, n))
}

/// Plans a stochastic split (§3.3): output boundaries at the join are drawn
/// fresh from the wiggle-ω discrete-uniform distribution. Call once per
/// mini-batch.
///
/// # Errors
///
/// See [`PlanSplitError`].
pub fn plan_split_stochastic(
    desc: &ModelDesc,
    cfg: &SplitConfig,
    omega: f32,
    rng: &mut impl Rng,
) -> Result<SplitPlan, PlanSplitError> {
    let mut draws: Vec<Vec<usize>> = Vec::new();
    let plan = plan_with_scheme(desc, cfg, |len, n, which| {
        // Each dimension gets its own draw; `which` is 0 for H, 1 for W.
        while draws.len() <= which {
            draws.push(Vec::new());
        }
        draws[which] = stochastic_starts(len, n, omega, rng);
        draws[which].clone()
    })?;
    Ok(plan)
}

fn plan_with_scheme(
    desc: &ModelDesc,
    cfg: &SplitConfig,
    mut scheme: impl FnMut(usize, usize, usize) -> Vec<usize>,
) -> Result<SplitPlan, PlanSplitError> {
    let total_convs = desc.conv_count();
    if cfg.depth > 1.0 {
        return Err(PlanSplitError::DepthOutOfRange { depth: cfg.depth });
    }
    let target = (cfg.depth * total_convs as f64).round() as usize;
    if target == 0 || cfg.depth <= 0.0 {
        return Err(PlanSplitError::NothingToSplit);
    }
    let prefix = desc.splittable_prefix();
    if prefix == 0 {
        return Err(PlanSplitError::NothingToSplit);
    }

    // Take blocks until the conv target is met, then absorb trailing
    // non-conv splittable blocks (the pool/BN/ReLU that follow the last
    // split convolution) so the join lands at a natural boundary.
    let mut region_blocks = 0;
    let mut split_convs = 0;
    for (i, b) in desc.blocks.iter().take(prefix).enumerate() {
        let c = b.conv_count();
        if split_convs >= target && c > 0 {
            break;
        }
        split_convs += c;
        region_blocks = i + 1;
    }
    if split_convs == 0 {
        return Err(PlanSplitError::NothingToSplit);
    }

    // Every extent the plan reads is the unsplit graph's. Inside the
    // region only window layers change H and W, and a residual join's
    // branches agree, so the join point's extents are the region's last
    // flat layer's output extents.
    let unsplit = lower_impl(desc, 1, None);
    let last = unsplit.starts[region_blocks] - 1;
    let (jh, jw) = (unsplit.extents(last, 2).1, unsplit.extents(last, 3).1);
    if jh < cfg.n_h {
        return Err(PlanSplitError::TooManyPatches {
            extent: jh,
            patches: cfg.n_h,
        });
    }
    if jw < cfg.n_w {
        return Err(PlanSplitError::TooManyPatches {
            extent: jw,
            patches: cfg.n_w,
        });
    }

    let out_h = scheme(jh, cfg.n_h, 0);
    let out_w = scheme(jw, cfg.n_w, 1);
    let h = compute_dim_plan(desc, &unsplit, region_blocks, out_h, 2, cfg.choice)?;
    let w = compute_dim_plan(desc, &unsplit, region_blocks, out_w, 3, cfg.choice)?;

    Ok(SplitPlan {
        region_blocks,
        n_h: cfg.n_h,
        n_w: cfg.n_w,
        split_convs,
        total_convs,
        h,
        w,
    })
}

/// Walks the region backwards along `axis` (2 = H, 3 = W) of the unsplit
/// lowering: each window layer maps the scheme on its output to one on its
/// input and records its per-patch pads.
fn compute_dim_plan(
    desc: &ModelDesc,
    unsplit: &Lowering,
    region_blocks: usize,
    out_starts: Vec<usize>,
    axis: usize,
    choice: SplitChoice,
) -> Result<DimPlan, PlanSplitError> {
    let mut pads = HashMap::new();
    let mut back = |idx: usize, layer: &LayerDesc, cur: Vec<usize>| match layer.window() {
        Some(win) => {
            let (in_len, out_len) = unsplit.extents(idx, axis);
            let ins = input_starts(&win, &cur, in_len, choice);
            pads.insert(idx, patch_paddings(&win, &cur, out_len, &ins, in_len));
            ins
        }
        None => cur,
    };

    let mut cur = out_starts;
    for (bi, block) in desc.blocks[..region_blocks].iter().enumerate().rev() {
        let start = unsplit.starts[bi];
        match block {
            Block::Plain(l) => cur = back(start, l, cur),
            Block::Residual {
                main, downsample, ..
            } => {
                let mut cm = cur.clone();
                for (j, l) in main.iter().enumerate().rev() {
                    cm = back(start + j, l, cm);
                }
                let mut cd = cur;
                for (j, l) in downsample.iter().enumerate().rev() {
                    cd = back(start + main.len() + j, l, cd);
                }
                if cm != cd {
                    return Err(PlanSplitError::SchemeConflict { block: bi });
                }
                cur = cm;
            }
        }
    }
    Ok(DimPlan {
        input_starts: cur,
        pads,
    })
}

/// The one flat-layer enumeration planning and lowering share: block `b`'s
/// layers are `starts[b]..starts[b + 1]`, in block order and, within a
/// residual block, main path first, then downsample.
fn flat_layout(desc: &ModelDesc) -> Vec<usize> {
    let mut starts = vec![0];
    for b in &desc.blocks {
        let n = match b {
            Block::Plain(_) => 1,
            Block::Residual {
                main, downsample, ..
            } => main.len() + downsample.len(),
        };
        starts.push(starts[starts.len() - 1] + n);
    }
    starts
}

/// A graph lowered from a description. `first[i]` is the node flat layer
/// `i` (of [`flat_layout`]'s `starts`) was first lowered to. That lowering
/// goes through the `Graph` builder, which makes the layer's parameters;
/// every later patch of the layer adds a copy of the node's op with its
/// own padding.
struct Lowering {
    g: Graph,
    starts: Vec<usize>,
    first: Vec<Option<NodeId>>,
}

impl Lowering {
    fn new(desc: &ModelDesc) -> Self {
        let starts = flat_layout(desc);
        let first = vec![None; starts[desc.blocks.len()]];
        Lowering {
            g: Graph::new(),
            starts,
            first,
        }
    }

    /// Input and output extents along `axis` of flat layer `idx`'s first
    /// node.
    fn extents(&self, idx: usize, axis: usize) -> (usize, usize) {
        let node = self
            .g
            .node(self.first[idx].expect("every layer is lowered"));
        (
            self.g.node(node.inputs[0]).out_shape[axis],
            node.out_shape[axis],
        )
    }

    /// Lowers flat layer `idx` onto `x`; `pad` overrides a window layer's
    /// symmetric padding.
    fn layer(
        &mut self,
        x: NodeId,
        idx: usize,
        l: &LayerDesc,
        pad: Option<Padding2d>,
        name: &str,
    ) -> NodeId {
        let g = &mut self.g;
        if let Some(first) = self.first[idx] {
            let mut op = g.node(first).op.clone();
            if let Op::Conv2d { pad: p, .. } | Op::Pool2d { pad: p, .. } = &mut op {
                *p = pad.unwrap_or(*p);
            }
            return g.add_node(op, &[x], name);
        }
        let pad_or = |p: usize| pad.unwrap_or_else(|| Padding2d::symmetric(p as i64));
        let node = match *l {
            LayerDesc::Conv {
                out_c,
                k,
                s,
                p,
                bias,
            } => g.conv2d(x, out_c, k, s, pad_or(p), bias, name),
            LayerDesc::Pool { kind, k, s, p } => g.pool2d(x, kind, k, s, pad_or(p), name),
            LayerDesc::BatchNorm { recompute } => g.batch_norm(x, recompute, name),
            LayerDesc::Relu => g.relu(x, name),
            LayerDesc::Dropout(p) => g.dropout(x, p, name),
            LayerDesc::GlobalAvgPool => g.global_avg_pool(x, name),
            LayerDesc::Flatten => g.flatten(x, name),
            LayerDesc::Linear(out) => g.linear(x, out, name),
        };
        self.first[idx] = Some(node);
        node
    }

    /// Lowers block `bi` for one data stream; `pad_for` supplies per-layer
    /// padding overrides (None in the unsplit stream).
    fn block(
        &mut self,
        x: NodeId,
        bi: usize,
        block: &Block,
        pad_for: &dyn Fn(usize) -> Option<Padding2d>,
        tag: &str,
    ) -> NodeId {
        let start = self.starts[bi];
        match block {
            Block::Plain(l) => self.layer(x, start, l, pad_for(start), &format!("b{bi}{tag}")),
            Block::Residual {
                main,
                downsample,
                post_relu,
            } => {
                let mut m = x;
                for (j, l) in main.iter().enumerate() {
                    let idx = start + j;
                    m = self.layer(m, idx, l, pad_for(idx), &format!("b{bi}m{j}{tag}"));
                }
                let mut d = x;
                for (j, l) in downsample.iter().enumerate() {
                    let idx = start + main.len() + j;
                    d = self.layer(d, idx, l, pad_for(idx), &format!("b{bi}d{j}{tag}"));
                }
                let mut out = self.g.add(&[m, d], &format!("b{bi}add{tag}"));
                if *post_relu {
                    out = self.g.relu(out, &format!("b{bi}prelu{tag}"));
                }
                out
            }
        }
    }
}

fn lower_impl(desc: &ModelDesc, batch: usize, plan: Option<&SplitPlan>) -> Lowering {
    let mut lw = Lowering::new(desc);
    let [c, h, w] = desc.in_shape;
    let input = lw.g.input(&[batch, c, h, w]);

    let mut cur = input;
    let mut start_block = 0;

    if let Some(plan) = plan {
        let starts_h = &plan.h.input_starts;
        let starts_w = &plan.w.input_starts;
        let len_h = |i: usize| {
            (if i + 1 < starts_h.len() { starts_h[i + 1] } else { h }) - starts_h[i]
        };
        let len_w = |j: usize| {
            (if j + 1 < starts_w.len() { starts_w[j + 1] } else { w }) - starts_w[j]
        };

        let mut rows = Vec::with_capacity(plan.n_h);
        for pi in 0..plan.n_h {
            let mut row = Vec::with_capacity(plan.n_w);
            for pj in 0..plan.n_w {
                let tag = format!("/p{pi}x{pj}");
                let first_patch_node = lw.g.len();
                let sh =
                    lw.g.slice(input, 2, starts_h[pi], len_h(pi), &format!("sliceh{tag}"));
                let mut x =
                    lw.g.slice(sh, 3, starts_w[pj], len_w(pj), &format!("slicew{tag}"));
                for (bi, block) in desc.blocks[..plan.region_blocks].iter().enumerate() {
                    let pad_for = |idx: usize| -> Option<Padding2d> {
                        plan.h.pads.get(&idx).map(|hp| {
                            let wp = &plan.w.pads[&idx];
                            Padding2d::new(hp[pi].0, hp[pi].1, wp[pj].0, wp[pj].1)
                        })
                    };
                    x = lw.block(x, bi, block, &pad_for, &tag);
                }
                // Every node added for this patch forms one sibling branch;
                // tag the whole range so the parallel executor's wave
                // structure can be inspected patch-by-patch.
                for nid in first_patch_node..lw.g.len() {
                    lw.g.set_group(NodeId(nid), pi * plan.n_w + pj);
                }
                row.push(x);
            }
            let joined_row = if row.len() == 1 {
                row[0]
            } else {
                lw.g.concat(&row, 3, &format!("joinw/r{pi}"))
            };
            rows.push(joined_row);
        }
        cur = if rows.len() == 1 {
            rows[0]
        } else {
            lw.g.concat(&rows, 2, "joinh")
        };
        start_block = plan.region_blocks;
    }

    for (bi, block) in desc.blocks.iter().enumerate().skip(start_block) {
        cur = lw.block(cur, bi, block, &|_| None, "");
    }
    lw.g.softmax_cross_entropy(cur, "loss");
    lw
}

#[cfg(test)]
mod tests {
    use super::*;
    use scnn_rng::SplitRng;
    use scnn_graph::PoolKind;

    fn natural_desc() -> ModelDesc {
        // Every window op has k == s: splitting is exact (non-intrusive).
        use Block::Plain;
        use LayerDesc::*;
        ModelDesc {
            name: "natural".into(),
            in_shape: [3, 16, 16],
            classes: 4,
            blocks: vec![
                Plain(Conv { out_c: 6, k: 2, s: 2, p: 0, bias: true }),
                Plain(Relu),
                Plain(Pool { kind: PoolKind::Max, k: 2, s: 2, p: 0 }),
                Plain(Flatten),
                Plain(Linear(4)),
            ],
        }
    }

    fn resnetish_desc() -> ModelDesc {
        use LayerDesc::*;
        let conv = |out_c, k, s, p| Conv { out_c, k, s, p, bias: false };
        ModelDesc {
            name: "resnetish".into(),
            in_shape: [3, 16, 16],
            classes: 4,
            blocks: vec![
                Block::Plain(conv(8, 3, 1, 1)),
                Block::Plain(BatchNorm { recompute: false }),
                Block::Plain(Relu),
                Block::Residual {
                    main: vec![
                        conv(8, 3, 1, 1),
                        BatchNorm { recompute: false },
                        Relu,
                        conv(8, 3, 1, 1),
                        BatchNorm { recompute: false },
                    ],
                    downsample: vec![],
                    post_relu: true,
                },
                Block::Residual {
                    main: vec![
                        conv(16, 3, 2, 1),
                        BatchNorm { recompute: false },
                        Relu,
                        conv(16, 3, 1, 1),
                        BatchNorm { recompute: false },
                    ],
                    downsample: vec![conv(16, 1, 2, 0)],
                    post_relu: true,
                },
                Block::Plain(GlobalAvgPool),
                Block::Plain(Flatten),
                Block::Plain(Linear(4)),
            ],
        }
    }

    #[test]
    fn plan_selects_region_by_depth() {
        let d = ModelDesc::tiny_cnn(10);
        let p = plan_split(&d, &SplitConfig::new(0.5, 2, 2)).unwrap();
        // 1 of 2 convs split; region absorbs the following relu+pool.
        assert_eq!(p.split_convs, 1);
        assert_eq!(p.region_blocks, 3);
        assert!((p.actual_depth() - 0.5).abs() < 1e-9);
        let full = plan_split(&d, &SplitConfig::new(1.0, 2, 2)).unwrap();
        assert_eq!(full.split_convs, 2);
        assert_eq!(full.region_blocks, 6);
    }

    #[test]
    fn zero_depth_is_an_error() {
        let d = ModelDesc::tiny_cnn(10);
        assert_eq!(
            plan_split(&d, &SplitConfig::new(0.0, 2, 2)),
            Err(PlanSplitError::NothingToSplit)
        );
    }

    #[test]
    fn depth_above_one_is_an_error() {
        let d = ModelDesc::tiny_cnn(10);
        // A depth of 50 (a percentage typo) used to clamp silently to 1.0.
        let err = plan_split(&d, &SplitConfig::new(50.0, 2, 2)).unwrap_err();
        assert_eq!(err, PlanSplitError::DepthOutOfRange { depth: 50.0 });
        assert!(err.to_string().contains("outside (0, 1]"));
        // The boundary itself stays legal.
        assert!(plan_split(&d, &SplitConfig::new(1.0, 2, 2)).is_ok());
    }

    #[test]
    fn too_many_patches_detected() {
        let d = ModelDesc::tiny_cnn(10); // join at 4x4 with depth 1.0
        let err = plan_split(&d, &SplitConfig::new(1.0, 9, 2)).unwrap_err();
        assert!(matches!(err, PlanSplitError::TooManyPatches { extent: 4, patches: 9 }));
    }

    #[test]
    fn split_and_unsplit_share_param_table() {
        let d = resnetish_desc();
        let plain = lower_unsplit(&d, 2);
        for depth in [0.3, 0.6, 1.0] {
            let plan = plan_split(&d, &SplitConfig::new(depth, 2, 2)).unwrap();
            let split = plan.lower(&d, 2);
            assert_eq!(plain.params(), split.params(), "depth {depth}");
        }
    }

    #[test]
    fn split_graph_has_matching_shapes() {
        let d = resnetish_desc();
        let plan = plan_split(&d, &SplitConfig::new(1.0, 2, 2)).unwrap();
        let split = plan.lower(&d, 2);
        let plain = lower_unsplit(&d, 2);
        // Final pre-loss node shapes agree.
        let last_split = &split.nodes()[split.len() - 2];
        let last_plain = &plain.nodes()[plain.len() - 2];
        assert_eq!(last_split.out_shape, last_plain.out_shape);
    }

    #[test]
    fn resnet_stride2_block_splits_via_negative_padding() {
        let d = resnetish_desc();
        let plan = plan_split(&d, &SplitConfig::new(1.0, 2, 1)).unwrap();
        assert_eq!(plan.split_convs, 6);
        let g = plan.lower(&d, 1);
        // The downsample conv patches must carry a negative end padding
        // along H (the abandoned stride-gap row).
        let neg = g.nodes().iter().any(|n| {
            matches!(&n.op, scnn_graph::Op::Conv2d { kh: 1, pad, .. } if pad.h_end < 0)
        });
        assert!(neg, "expected a negative-padding 1x1 downsample patch");
    }

    #[test]
    fn stochastic_plans_vary_but_stay_lowerable() {
        let d = resnetish_desc();
        // Depth 0.3 joins at the 16-wide feature map, where the ω-window
        // is wide enough to actually vary (at 8-wide it collapses to a
        // single legal boundary, which is correct but untestable here).
        let cfg = SplitConfig::new(0.3, 2, 2);
        let mut rng = SplitRng::seed_from_u64(5);
        let plans: Vec<SplitPlan> = (0..10)
            .map(|_| plan_split_stochastic(&d, &cfg, 0.2, &mut rng).unwrap())
            .collect();
        assert!(
            plans.iter().any(|p| p.input_schemes() != plans[0].input_schemes()),
            "stochastic plans never varied"
        );
        for p in &plans {
            let g = p.lower(&d, 2);
            assert!(g.len() > 10);
        }
    }

    #[test]
    fn natural_split_plan_has_zero_pads() {
        let d = natural_desc();
        let plan = plan_split(&d, &SplitConfig::new(1.0, 2, 2)).unwrap();
        for pads in plan.h.pads.values() {
            assert!(pads.iter().all(|&p| p == (0, 0)), "{pads:?}");
        }
    }
}
