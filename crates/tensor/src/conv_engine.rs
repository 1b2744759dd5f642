//! Tile-fused implicit-GEMM convolution kernels (DESIGN.md §11).
//!
//! The materialized path lowers convolution to `im2col` + GEMM, which
//! allocates the full patch matrix `[n·oh·ow, ic·kh·kw]` on every call —
//! the largest transient buffer in a training step and invisible to the
//! HMMS planner. The kernels here never build that matrix: they pack one
//! small tile of patch rows at a time into a per-thread scratch panel
//! (`scnn_par::scratch`), run the same micro-kernels the GEMMs use
//! (`dot8` family forward, `gemm_acc` backward) against the weight matrix,
//! and write results straight to their destination.
//!
//! **Bit-identity with the materialized path is a hard invariant**, not an
//! approximation — it is what keeps seeded training goldens and the
//! split-vs-unsplit exactness argument valid regardless of which algorithm
//! the selector picks:
//!
//! - forward: every output element is `dot8(patch_row, weight_row) + bias`
//!   — elements are independent, and `dot8`'s reduction order depends only
//!   on the shared dimension, exactly as in [`matmul_a_bt`](crate::matmul_a_bt).
//! - `dw`: partial sums are blocked on the same `KC` boundaries as
//!   [`matmul_at_b`](crate::matmul_at_b), accumulate with `p` ascending
//!   inside each block (one `gemm_acc` per packed sub-tile, `dy` read in
//!   place), and fold in ascending block order.
//! - `dx`: each patch-row gradient reduces over output channels in
//!   ascending order exactly as [`matmul`](crate::matmul) does (one
//!   `gemm_acc` per tile of positions), then scatters in
//!   [`col2im_into`](crate::col2im_into)'s `(oy, ox, ky, kx)` order,
//!   parallel per batch image only (`oy` windows overlap inside an image).
//!
//! The weight tensor `[oc, ic, kh, kw]` is row-major contiguous, so its
//! natural layout *is* the `[oc, plen]` panel the micro-kernel wants —
//! "packing" the B side is the identity, which is why there is no weight
//! pack cache to invalidate on update.

use crate::im2col::Conv2dGeometry;
use crate::plan::{self, KernelPlan};
use crate::simd::{add_assign, dot8, dot8_x4, dot8_x8, gemm_acc};
use crate::Tensor;
use scnn_par::{scratch, DisjointMut};

/// Which convolution implementation to run. `Tiled` and `Materialized`
/// produce identical bits — the choice between them is purely a
/// locality/footprint trade. `Winograd` is the opt-in transform-domain
/// fast path: deterministic in itself (same bits at any thread count,
/// ISA, or kernel plan) but **outside the bit-identity contract** with
/// the direct pair — its reduction runs in the transform domain, so
/// results agree only within epsilon (DESIGN.md §16). The executing
/// kernels live in `scnn-nn`, but the enum is defined here so the planner
/// (`scnn-core`) can reason about per-algorithm workspace without a
/// dependency on the executor crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// Tile-fused implicit GEMM; no full patch-matrix allocation.
    Tiled,
    /// `im2col` + GEMM over workspace scratch (reference path).
    Materialized,
    /// Winograd F(2×2, 3×3) transform-domain convolution
    /// (`crate::winograd`); stride-1 3×3 kernels only, epsilon-equal to
    /// the direct algorithms, never chosen by [`default_conv_algo`].
    Winograd,
}

/// The geometry-based default algorithm choice (no override applied).
///
/// 1×1 kernels stay materialized: their `im2col` is a pure reshape, so the
/// GEMM already streams contiguously and tiling only adds pack traffic.
/// Tiny spatial outputs (fewer than 64 positions per image) also stay
/// materialized — per-tile dispatch would dominate the arithmetic.
pub fn default_conv_algo(g: &Conv2dGeometry) -> ConvAlgo {
    if (g.kh == 1 && g.kw == 1) || g.patch_count() < 64 {
        ConvAlgo::Materialized
    } else {
        ConvAlgo::Tiled
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Whether a conv layer's whole-batch weight-gradient reduction fits one
/// `KC`-row block (`n·oh·ow ≤ KC`, `KC` = [`KernelPlan::reduction_kc`]).
/// Such layers accumulate `dw` in a single sequential fold, so the kernels
/// continue it straight into the output with **no** partial-block scratch,
/// and any micro-batch boundary replays the fold bit-for-bit — the deep
/// small-map layers this describes are exactly the ones whose `oc·plen`
/// partial buffer would otherwise dominate planned workspace.
pub fn conv2d_dw_single_block(g: &Conv2dGeometry, n: usize) -> bool {
    n * g.patch_count() <= KernelPlan::reduction_kc()
}

/// Whether running a conv layer in micro-batches of `u` images (logical
/// batch `n`) preserves bit-identity with the full-batch kernels.
///
/// The weight-gradient reduction is blocked on `KC`-row boundaries of the
/// `n·oh·ow` patch-row dimension ([`conv2d_dw_tiled`],
/// [`matmul_at_b`](crate::matmul_at_b)). A micro-batch boundary that lands
/// inside a block would re-shape the fold tree, so `u` is legal exactly
/// when every `u`-image segment covers whole blocks (`u·oh·ow ≡ 0 mod
/// KC`) — or when there is only one segment (`u ≥ n`) — or when the whole
/// batch is one sequential fold ([`conv2d_dw_single_block`]), which any
/// boundary continues exactly.
pub fn micro_batch_aligned(g: &Conv2dGeometry, u: usize, n: usize) -> bool {
    u >= n
        || (u * g.patch_count()).is_multiple_of(KernelPlan::reduction_kc())
        || conv2d_dw_single_block(g, n)
}

/// The smallest bit-identity-preserving micro-batch size for a conv layer
/// at logical batch `n`: one image when the whole batch is a single
/// sequential fold ([`conv2d_dw_single_block`]), else `KC / gcd(oh·ow,
/// KC)` images (the shortest image run covering whole `KC` blocks), capped
/// at `n` when even that exceeds the batch — then the layer simply runs
/// un-chunked.
pub fn min_micro_batch(g: &Conv2dGeometry, n: usize) -> usize {
    if conv2d_dw_single_block(g, n) {
        return 1;
    }
    let kc = KernelPlan::reduction_kc();
    (kc / gcd(g.patch_count(), kc)).min(n.max(1))
}

/// Patch-row tile width under the plan's pack-panel budget, at least 1, at
/// most `cap`. The tile width only partitions independent output positions
/// (forward) or changes packing granularity (`dw`), never a fold order —
/// which is what makes `panel_bytes` a legal tuning knob.
fn tile_rows(panel_bytes: usize, plen: usize, cap: usize) -> usize {
    (panel_bytes / 4 / plen.max(1)).clamp(1, cap.max(1))
}

/// Minimum output-channel rows per parallel range of a single-block `dw`
/// fold (amortizes task-claim overhead; same role as the GEMMs' grain).
const MIN_ROWS: usize = 8;

/// Per-thread byte budget of the `dx` patch-gradient tile.
const DX_TILE_BYTES: usize = 64 * 1024;

/// Output positions per `dx` scratch tile: as many `plen`-float rows as
/// [`DX_TILE_BYTES`] holds — rounded down to whole 4-row register tiles
/// when at least one fits — at least 1, at most the image's `hw`. Tiles
/// only batch independent patch rows; the scatter stays in position order.
fn dx_tile_rows(plen: usize, hw: usize) -> usize {
    let t = DX_TILE_BYTES / 4 / plen.max(1);
    let t = if t >= 4 { t - t % 4 } else { t };
    t.clamp(1, hw.max(1))
}

/// Packs the `im2col` row of output position `(b, oy, ox)` into `row`
/// (`[plen]`), writing **every** element — out-of-bounds taps store an
/// explicit 0.0, so a reused panel needs no per-tile clear. Values and
/// column order are exactly those of [`im2col`](crate::im2col).
#[inline]
fn pack_patch(
    src: &[f32],
    g: &Conv2dGeometry,
    b: usize,
    oy: usize,
    ox: usize,
    row: &mut [f32],
) {
    let (h, w) = (g.in_h, g.in_w);
    let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
    let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
    // Interior positions (the vast majority under small padding) copy each
    // kernel row as one contiguous run instead of per-element index math.
    let x_full = ix0 >= 0 && ix0 + g.kw as i64 <= w as i64;
    let mut q = 0;
    for c in 0..g.in_c {
        let cbase = (b * g.in_c + c) * h * w;
        for ky in 0..g.kh {
            let iy = iy0 + ky as i64;
            if iy < 0 || iy >= h as i64 {
                row[q..q + g.kw].fill(0.0);
                q += g.kw;
                continue;
            }
            let rbase = cbase + iy as usize * w;
            if x_full {
                let s = rbase + ix0 as usize;
                row[q..q + g.kw].copy_from_slice(&src[s..s + g.kw]);
                q += g.kw;
                continue;
            }
            for kx in 0..g.kw {
                let ix = ix0 + kx as i64;
                row[q] = if ix < 0 || ix >= w as i64 {
                    0.0
                } else {
                    src[rbase + ix as usize]
                };
                q += 1;
            }
        }
    }
}

fn check_weight(w: &Tensor, g: &Conv2dGeometry) -> usize {
    assert_eq!(w.rank(), 4, "conv weight must be [oc, ic, kh, kw]");
    assert_eq!(
        (w.dim(1), w.dim(2), w.dim(3)),
        (g.in_c, g.kh, g.kw),
        "weight {} does not match geometry {g:?}",
        w.shape()
    );
    w.dim(0)
}

fn check_input(x: &Tensor, g: &Conv2dGeometry) -> usize {
    assert_eq!(x.rank(), 4, "conv input must be NCHW");
    assert_eq!(
        (x.dim(1), x.dim(2), x.dim(3)),
        (g.in_c, g.in_h, g.in_w),
        "input {} does not match geometry {g:?}",
        x.shape()
    );
    x.dim(0)
}

/// Tiled implicit-GEMM convolution forward.
///
/// `x: [n, ic, h, w]` (already cropped if the layer had negative padding;
/// `g.pad` holds the non-negative remainder), `w: [oc, ic, kh, kw]`,
/// optional `bias: [oc]`. Writes `[n, oc, oh, ow]` into `out`, overwriting
/// every element — `out`'s contents on entry do not matter.
///
/// Bit-identical to `im2col` + `matmul_a_bt` + bias for any thread count
/// and any tile width: each element is one independent `dot8` + one add.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn conv2d_fwd_tiled(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let kp = plan::conv_fwd_plan(g, x.dim(0), w.dim(0));
    conv2d_fwd_tiled_plan(&kp, x, w, bias, g, out);
}

/// Plan-parameterized core of [`conv2d_fwd_tiled`] — the tuner times
/// candidate pack-panel budgets through this entry without touching the
/// global registry. Any plan produces the same bits (see [`tile_rows`]).
pub(crate) fn conv2d_fwd_tiled_plan(
    kp: &KernelPlan,
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let n = check_input(x, g);
    let oc = check_weight(w, g);
    let plen = g.patch_len();
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(out.len(), n * oc * oh * ow, "conv2d_fwd_tiled out length");
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv bias length");
    }
    let src = x.as_slice();
    let wv = w.as_slice();
    let tile = tile_rows(kp.panel_bytes, plen, ow);
    let rows = n * oh;
    let rows_per_chunk = scnn_par::grain(rows, 2);
    let tasks = rows.div_ceil(rows_per_chunk.max(1)).max(1);
    let sink = DisjointMut::new(out);
    scnn_par::parallel_for(tasks, |t| {
        let r0 = t * rows_per_chunk;
        let r1 = ((t + 1) * rows_per_chunk).min(rows);
        scratch::with_scratch(tile * plen, |panel| {
            for r in r0..r1 {
                let (b, oy) = (r / oh, r % oh);
                for ox0 in (0..ow).step_by(tile) {
                    let tw = (ox0 + tile).min(ow) - ox0;
                    for ti in 0..tw {
                        pack_patch(src, g, b, oy, ox0 + ti, &mut panel[ti * plen..(ti + 1) * plen]);
                    }
                    // For channel c the tile's outputs are contiguous in
                    // ox; distinct (b, oy, c) rows never overlap, and the
                    // tasks partition (b, oy), so the ranges are disjoint.
                    let orow = |c: usize| {
                        let base = ((b * oc + c) * oh + oy) * ow + ox0;
                        unsafe { sink.range(base, base + tw) }
                    };
                    let mut c = 0;
                    while c + 8 <= oc {
                        let ws: [&[f32]; 8] = std::array::from_fn(|j| {
                            &wv[(c + j) * plen..(c + j + 1) * plen]
                        });
                        let adds: [f32; 8] = match bias {
                            Some(b) => std::array::from_fn(|j| b[c + j]),
                            None => [0.0; 8],
                        };
                        let os: [&mut [f32]; 8] = std::array::from_fn(|j| orow(c + j));
                        for ti in 0..tw {
                            let arow = &panel[ti * plen..(ti + 1) * plen];
                            let q = dot8_x8(arow, ws);
                            for j in 0..8 {
                                os[j][ti] = q[j] + adds[j];
                            }
                        }
                        c += 8;
                    }
                    while c + 4 <= oc {
                        let (w0, w1, w2, w3) = (
                            &wv[c * plen..(c + 1) * plen],
                            &wv[(c + 1) * plen..(c + 2) * plen],
                            &wv[(c + 2) * plen..(c + 3) * plen],
                            &wv[(c + 3) * plen..(c + 4) * plen],
                        );
                        let adds = match bias {
                            Some(b) => [b[c], b[c + 1], b[c + 2], b[c + 3]],
                            None => [0.0; 4],
                        };
                        let (o0, o1, o2, o3) = (orow(c), orow(c + 1), orow(c + 2), orow(c + 3));
                        for ti in 0..tw {
                            let arow = &panel[ti * plen..(ti + 1) * plen];
                            let q = dot8_x4(arow, w0, w1, w2, w3);
                            o0[ti] = q[0] + adds[0];
                            o1[ti] = q[1] + adds[1];
                            o2[ti] = q[2] + adds[2];
                            o3[ti] = q[3] + adds[3];
                        }
                        c += 4;
                    }
                    while c < oc {
                        let wrow = &wv[c * plen..(c + 1) * plen];
                        let add = bias.map_or(0.0, |b| b[c]);
                        let o = orow(c);
                        for ti in 0..tw {
                            o[ti] = dot8(&panel[ti * plen..(ti + 1) * plen], wrow) + add;
                        }
                        c += 1;
                    }
                }
            }
        });
    });
}

/// Tiled weight gradient: `dw = dyᵀ · cols` without materializing either
/// the transposed `dy` or the patch matrix.
///
/// Writes `[oc, plen]` into `dw`, overwriting every element. The shared
/// dimension `k = n·oh·ow` is split on the same `KC` boundaries as
/// [`matmul_at_b`](crate::matmul_at_b); each block packs sub-tiles of
/// patch rows into a per-thread panel, accumulates its partial with `p`
/// ascending (as the GEMM does), and the flat partial buffer folds in
/// ascending block order — bit-identical to the materialized pipeline at
/// every thread count.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn conv2d_dw_tiled(x: &Tensor, dy: &Tensor, g: &Conv2dGeometry, dw: &mut [f32]) {
    let n = check_input(x, g);
    conv2d_dw_tiled_acc(x, dy, g, 0, n, dw, true);
}

/// Batch-range, continued-accumulation form of [`conv2d_dw_tiled`]: folds
/// the weight-gradient contribution of images `b0 .. b0 + bn` into `dw`.
/// With `init` the range's first partial block *overwrites* `dw` (use on
/// the first segment); without it every block folds in, continuing the
/// reduction of earlier segments.
///
/// Chaining aligned segments (see [`micro_batch_aligned`]) over the whole
/// batch replays the full-batch call's block grid and fold order exactly —
/// this is how micro-batched training keeps `dw` bit-identical while
/// shrinking the partials scratch from `⌈n·oh·ow/KC⌉` to `⌈bn·oh·ow/KC⌉`
/// blocks per call.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry or the range exceeds the
/// batch.
pub fn conv2d_dw_tiled_acc(
    x: &Tensor,
    dy: &Tensor,
    g: &Conv2dGeometry,
    b0: usize,
    bn: usize,
    dw: &mut [f32],
    init: bool,
) {
    let kp = plan::conv_bwd_plan(g, x.dim(0), dy.dim(1));
    conv2d_dw_tiled_acc_plan(&kp, x, dy, g, b0, bn, dw, init);
}

/// Plan-parameterized core of [`conv2d_dw_tiled_acc`] — the tuner times
/// candidate pack sub-tile budgets through this entry without touching the
/// global registry. The plan only sizes the pack panels; the `KC` block
/// grid and fold order come from [`KernelPlan::reduction_kc`], so any plan
/// produces the same bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_dw_tiled_acc_plan(
    kp: &KernelPlan,
    x: &Tensor,
    dy: &Tensor,
    g: &Conv2dGeometry,
    b0: usize,
    bn: usize,
    dw: &mut [f32],
    init: bool,
) {
    let n = check_input(x, g);
    assert!(bn > 0 && b0 + bn <= n, "image range {b0}+{bn} exceeds batch {n}");
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(dy.rank(), 4, "conv dy must be NCHW");
    let oc = dy.dim(1);
    assert_eq!(
        (dy.dim(0), dy.dim(2), dy.dim(3)),
        (n, oh, ow),
        "dy {} does not match geometry {g:?}",
        dy.shape()
    );
    let plen = g.patch_len();
    assert_eq!(dw.len(), oc * plen, "conv2d_dw_tiled out length");
    let src = x.as_slice();
    let dyv = dy.as_slice();
    let hw = oh * ow;
    let base = b0 * hw;
    let k = bn * hw;
    let kc = KernelPlan::reduction_kc();
    let st = tile_rows(kp.panel_bytes, plen, kc);
    if conv2d_dw_single_block(g, n) {
        // The whole batch is one sequential fold: accumulate straight into
        // `dw` (zeroed on `init`), with no partial-block scratch. The add
        // sequence equals what the blocked path runs inside block 0, so
        // full-batch bits are unchanged — and any chunk boundary continues
        // the fold exactly, which is what unlocks micro-batching the deep
        // small-map layers whose `oc·plen` partials dominate workspace.
        // With no block axis to spread over threads, the fold runs over
        // size-derived ranges of (independent) output channels instead.
        if init {
            dw.fill(0.0);
        }
        let row_grain = scnn_par::grain(oc, MIN_ROWS);
        fold_patch_rows(src, dyv, g, oc, st, base, base + k, dw, row_grain);
        return;
    }
    let nblocks = k.div_ceil(kc).max(1);
    scratch::with_scratch(nblocks * oc * plen, |partials| {
        let slots = DisjointMut::new(partials);
        scnn_par::parallel_for(nblocks, |bi| {
            // Safety: partial slot `bi` is written only by task `bi`.
            let part = unsafe { slots.range(bi * oc * plen, (bi + 1) * oc * plen) };
            let p0 = base + bi * kc;
            let p1 = (p0 + kc).min(base + k);
            fold_patch_rows(src, dyv, g, oc, st, p0, p1, part, oc);
        });
        let start = if init {
            dw.copy_from_slice(&partials[..oc * plen]);
            1
        } else {
            0
        };
        for bi in start..nblocks {
            add_assign(dw, &partials[bi * oc * plen..(bi + 1) * oc * plen]);
        }
    });
}

/// Accumulates patch rows `[p0, p1)` of the weight-gradient reduction into
/// `acc` (`[oc·plen]`), packing `st`-row panels: the strictly `p`-ascending
/// add order shared by the blocked partials and the single-block direct
/// path — panel boundaries affect only packing, never the fold sequence.
///
/// Each packed panel is one rank-`st` update `acc += dyᵀ · panel`. `dy` is
/// read in place: inside one NCHW image, channel `r` at position `p` sits
/// at `r·hw + p`, which is [`gemm_acc`]'s `(a_rs, a_ps) = (hw, 1)`; a panel
/// spanning images splits into one call per image, which continues every
/// element's chain unchanged. Output channels are independent, so the
/// update runs over `row_grain`-channel ranges of `acc` — pass `oc` for a
/// single inline range when the caller already parallelises over blocks.
#[allow(clippy::too_many_arguments)]
fn fold_patch_rows(
    src: &[f32],
    dyv: &[f32],
    g: &Conv2dGeometry,
    oc: usize,
    st: usize,
    p0: usize,
    p1: usize,
    acc: &mut [f32],
    row_grain: usize,
) {
    let (oh, ow) = (g.out_h(), g.out_w());
    let hw = oh * ow;
    let plen = g.patch_len();
    scratch::with_scratch(st * plen, |colpanel| {
        for q0 in (p0..p1).step_by(st) {
            let q1 = (q0 + st).min(p1);
            for (t, p) in (q0..q1).enumerate() {
                let (b, rem) = (p / hw, p % hw);
                pack_patch(src, g, b, rem / ow, rem % ow, &mut colpanel[t * plen..(t + 1) * plen]);
            }
            let colpanel = &*colpanel;
            scnn_par::par_chunks_mut(acc, row_grain * plen, |ci, rows| {
                let c0 = ci * row_grain;
                let mut q = q0;
                while q < q1 {
                    let (b, rem) = (q / hw, q % hw);
                    let seg = (hw - rem).min(q1 - q);
                    gemm_acc(
                        rows.len() / plen,
                        plen,
                        seg,
                        &dyv[(b * oc + c0) * hw + rem..],
                        hw,
                        1,
                        &colpanel[(q - q0) * plen..],
                        plen,
                        rows,
                        plen,
                    );
                    q += seg;
                }
            });
        }
    });
}

/// Tiled input gradient: fuses `matmul(dy_mat, w2)` with the `col2im`
/// scatter so the `dcols` matrix never exists.
///
/// Accumulates into `dst: [n, ic, full_h, full_w]` (zeroed by the caller),
/// with the geometry's `in_h × in_w` window placed at `(off_h, off_w)` —
/// the crop-offset contract of [`col2im_into`](crate::col2im_into). For
/// each tile of output positions the patch-row gradients reduce over
/// output channels in ascending order (as [`matmul`](crate::matmul) does)
/// into a zeroed `[positions, plen]` scratch tile — one [`gemm_acc`] with
/// `dy` read in place, positions contiguous and channels `oh·ow` apart —
/// then the rows scatter in `(oy, ox, ky, kx)` order. Parallel over whole
/// batch images only, so every destination element sees its contributions
/// in the same order at every thread count.
///
/// # Panics
///
/// Panics if shapes disagree or the offset window hangs outside `dst`.
pub fn conv2d_dx_tiled(
    dy: &Tensor,
    w: &Tensor,
    g: &Conv2dGeometry,
    dst: &mut Tensor,
    off_h: usize,
    off_w: usize,
) {
    let oc = check_weight(w, g);
    let (oh, ow) = (g.out_h(), g.out_w());
    let n = dy.dim(0);
    assert_eq!(
        dy.shape().dims(),
        &[n, oc, oh, ow],
        "dy does not match geometry {g:?}"
    );
    assert_eq!(dst.rank(), 4, "dx destination must be NCHW");
    assert_eq!(
        (dst.dim(0), dst.dim(1)),
        (n, g.in_c),
        "dx destination batch/channel mismatch"
    );
    let (full_h, full_w) = (dst.dim(2), dst.dim(3));
    assert!(
        off_h + g.in_h <= full_h && off_w + g.in_w <= full_w,
        "dx window {}x{} at offset ({off_h}, {off_w}) exceeds {full_h}x{full_w}",
        g.in_h,
        g.in_w
    );
    let plen = g.patch_len();
    let (h, w_in) = (g.in_h, g.in_w);
    let dyv = dy.as_slice();
    let wv = w.as_slice();
    let plane = full_h * full_w;
    let hw = oh * ow;
    let tile = dx_tile_rows(plen, hw);
    scnn_par::par_chunks_mut(dst.as_mut_slice(), g.in_c * plane, |b, img| {
        scratch::with_scratch(tile * plen, |drows| {
            for t0 in (0..hw).step_by(tile) {
                let drows = &mut drows[..tile.min(hw - t0) * plen];
                drows.fill(0.0);
                gemm_acc(
                    drows.len() / plen,
                    plen,
                    oc,
                    &dyv[b * oc * hw + t0..],
                    1,
                    hw,
                    wv,
                    plen,
                    drows,
                    plen,
                );
                for (t, drow) in drows.chunks_exact(plen).enumerate() {
                    let (oy, ox) = ((t0 + t) / ow, (t0 + t) % ow);
                    let iy0 = oy as i64 * g.sh as i64 - g.pad.h_begin;
                    let ix0 = ox as i64 * g.sw as i64 - g.pad.w_begin;
                    // Interior positions add each kernel row as one
                    // contiguous run (same fast path as the pack).
                    let x_full = ix0 >= 0 && ix0 + g.kw as i64 <= w_in as i64;
                    for c in 0..g.in_c {
                        let cbase = c * plane;
                        for ky in 0..g.kh {
                            let iy = iy0 + ky as i64;
                            if iy < 0 || iy >= h as i64 {
                                continue;
                            }
                            let iy = iy as usize + off_h;
                            let q = (c * g.kh + ky) * g.kw;
                            if x_full {
                                let d0 = cbase + iy * full_w + (ix0 as usize + off_w);
                                // `kw` elements: too short a run to pay
                                // for a dispatched `add_assign`.
                                for (d, &v) in img[d0..d0 + g.kw].iter_mut().zip(&drow[q..q + g.kw]) {
                                    *d += v;
                                }
                                continue;
                            }
                            for kx in 0..g.kw {
                                let ix = ix0 + kx as i64;
                                if ix < 0 || ix >= w_in as i64 {
                                    continue;
                                }
                                img[cbase + iy * full_w + (ix as usize + off_w)] += drow[q + kx];
                            }
                        }
                    }
                }
            }
        });
    });
}

/// Planned workspace bytes for one tiled conv layer (forward + backward):
/// the thread-count-*independent* scratch footprint, i.e. the flat `dw`
/// partial buffer (`⌈n·oh·ow / KC⌉ · oc · plen` floats, `KC` =
/// [`KernelPlan::reduction_kc`] — the same accessor the kernels block on,
/// so the planner's model can never drift from the executed grid). A
/// tuned plan cannot change this number: plans carrying any other `kc`
/// are rejected at install. Per-thread pack panels (bounded by the plan's
/// `panel_bytes` each) and the `dx` gradient tile ([`DX_TILE_BYTES`] or
/// one patch row) scale with the host's thread count, so the planner
/// leaves them out of the per-layer term — this is the number `scnn-hmms`
/// carries per conv node in its layouts.
pub fn conv2d_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    let k = n * g.patch_count();
    k.div_ceil(KernelPlan::reduction_kc()).max(1) * oc * g.patch_len() * 4
}

/// Planned workspace bytes for one *materialized* conv layer at batch (or
/// micro-batch) `n`: the backward pass's scratch peak, where the `dy`
/// transpose (`n·oh·ow · oc`), the patch matrix (`n·oh·ow · plen`) and the
/// weight-gradient partials ([`conv2d_workspace_bytes`]) are live at once.
/// The forward peak (`cols` + the GEMM result) is strictly smaller. This
/// is the honest planning term for layers the selector keeps on the
/// `im2col` path — batch-proportional, which is exactly what the
/// micro-batch planning axis shrinks.
pub fn conv2d_materialized_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    let rows = n * g.patch_count();
    rows * (g.patch_len() + oc) * 4 + conv2d_workspace_bytes(g, n, oc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{im2col, matmul_a_bt, Padding2d};

    fn fill(dims: &[usize], seed: u32) -> Tensor {
        let len: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let data = (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    #[test]
    fn pack_patch_matches_im2col_rows() {
        let g = Conv2dGeometry::new(3, 5, 6, 3, 2, 2, 1, Padding2d::new(1, 0, 2, 1));
        let x = fill(&[2, 3, 5, 6], 9);
        let cols = im2col(&x, &g);
        let (oh, ow) = (g.out_h(), g.out_w());
        let plen = g.patch_len();
        let mut row = vec![9.9f32; plen]; // stale fill: pack must overwrite all
        for b in 0..2 {
            for oy in 0..oh {
                for ox in 0..ow {
                    pack_patch(x.as_slice(), &g, b, oy, ox, &mut row);
                    let p = (b * oh + oy) * ow + ox;
                    assert_eq!(
                        &cols.as_slice()[p * plen..(p + 1) * plen],
                        &row[..],
                        "patch ({b},{oy},{ox})"
                    );
                }
            }
        }
    }

    #[test]
    fn fwd_tiled_is_bitwise_equal_to_materialized_gemm() {
        // Non-divisible tile edges are exercised by tiny ow vs tile width;
        // the full cross-geometry sweep lives in scnn-nn's property tests.
        let g = Conv2dGeometry::new(2, 7, 9, 3, 3, 2, 1, Padding2d::new(1, 0, 0, 2));
        let x = fill(&[2, 2, 7, 9], 3);
        let w = fill(&[5, 2, 3, 3], 4);
        let bias = fill(&[5], 5);
        let (n, oc) = (2, 5);
        let (oh, ow) = (g.out_h(), g.out_w());

        let cols = im2col(&x, &g);
        let w2 = w.clone().reshape(&[oc, g.patch_len()]);
        let ymat = matmul_a_bt(&cols, &w2);

        let mut out = vec![7.7f32; n * oc * oh * ow];
        conv2d_fwd_tiled(&x, &w, Some(bias.as_slice()), &g, &mut out);
        for b in 0..n {
            for c in 0..oc {
                for p in 0..oh * ow {
                    let want = ymat.as_slice()[(b * oh * ow + p) * oc + c] + bias.as_slice()[c];
                    let got = out[(b * oc + c) * oh * ow + p];
                    assert_eq!(got.to_bits(), want.to_bits(), "at b={b} c={c} p={p}");
                }
            }
        }
    }

    #[test]
    fn workspace_bytes_counts_dw_partials() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
        // k = 8·32·32 = 8192 → 32 KC-blocks of [oc=32, plen=144] partials.
        assert_eq!(conv2d_workspace_bytes(&g, 8, 32), 32 * 32 * 144 * 4);
    }
}
