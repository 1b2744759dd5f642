//! Winograd F(2×2, 3×3) transform-domain convolution (DESIGN.md §16).
//!
//! For stride-1 3×3 kernels, each 2×2 output tile is computed from a 4×4
//! input window in the transform domain: `Y = Aᵀ [ (G g Gᵀ) ⊙ (Bᵀ d B) ] A`
//! — 16 multiplies per tile per (input-channel, output-channel) pair
//! instead of the direct path's 36, at the cost of the transforms. The
//! transform matrices are the standard F(2, 3) set:
//!
//! ```text
//! Bᵀ = [[1, 0, -1,  0],   G = [[ 1,   0,   0 ],   Aᵀ = [[1, 1,  1,  0],
//!       [0, 1,  1,  0],        [1/2, 1/2, 1/2],         [0, 1, -1, -1]]
//!       [0,-1,  1,  0],        [1/2,-1/2, 1/2],
//!       [0, 1,  0, -1]]        [ 0,   0,   1 ]]
//! ```
//!
//! The backward passes are the transposed transforms — the exact
//! gradients of the function this forward computes: `dM = A dY Aᵀ`, then
//! `dd = B (Σₖ Uₖ ⊙ dMₖ) Bᵀ` for the input gradient and
//! `dg = Gᵀ (Σ_tiles dM ⊙ V) G` for the weight gradient.
//!
//! **Tolerance contract.** This path is *outside* the bit-identity
//! contract the tiled/materialized pair upholds (DESIGN.md §11): the
//! reduction runs in the transform domain, so results agree with the
//! direct algorithms only within epsilon. It is however deterministic *in
//! itself* — every reduction order below is a pure function of the
//! geometry, independent of thread count and SIMD level — so a winograd
//! run reproduces its own bits exactly under either knob:
//!
//! - forward: each transform-domain point `M[i][k] = Σ_c U·V` reduces
//!   over input channels in ascending order with separate multiply and
//!   add ([`gemm_acc`]'s per-element chain); the tile-batch width only
//!   changes how many tiles share one staging pass, never any sum.
//! - `dx`: tiles scatter-add per image in ascending tile order (adjacent
//!   4×4 windows overlap by 2), parallel over whole images only; each
//!   transform-domain point reduces over output channels with [`dot8`].
//! - `dw`: per-image transform-domain partials accumulate per tile in
//!   ascending order (zero-skip on the `dy` factor, as the direct path's
//!   GEMM does) and fold in ascending image order before the single
//!   inverse transform.
//!
//! The forward stages tile batches through per-thread scratch
//! (`scnn_par::scratch`) sized by the tiled engine's pack-panel budget; the
//! transformed-weight buffer comes from the shared [`Workspace`] pool so
//! repeated calls (a training loop, a serving engine) do not re-allocate.

use crate::conv_engine::PACK_PANEL_BYTES;
use crate::im2col::Conv2dGeometry;
use crate::simd::{add_assign, axpy, dot8, dot8_x4, gemm_acc, vadd, vsub};
use crate::workspace::Workspace;
use crate::{BufferRecycler, Tensor};
use scnn_par::{scratch, DisjointMut};

/// Transform-domain points per tile (4×4).
const TP: usize = 16;

/// Whether this geometry has a Winograd F(2×2, 3×3) fast path: stride-1
/// 3×3 kernels only (any non-negative padding and output size — partial
/// edge tiles are clipped at write-out).
pub fn winograd_supported(g: &Conv2dGeometry) -> bool {
    g.kh == 3 && g.kw == 3 && g.sh == 1 && g.sw == 1
}

/// Peak extra workspace of the winograd path for `n` images at `oc` output
/// channels, in bytes — the planner-facing model mirrored by
/// `scnn_core::cost`, as `conv2d_workspace_bytes` is for the tiled engine.
///
/// The dominant term is the `dw` pass: one transform-domain partial
/// `[16, oc, ic]` per image plus the fold target — `(n + 1)·16·oc·ic`
/// floats. The forward/`dx` transformed-weight buffer (`16·oc·ic`) is
/// strictly smaller, so this one bound covers the whole step.
pub fn conv2d_winograd_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    (n + 1) * TP * oc * g.in_c * 4
}

/// 2-D weight transform `U = G g Gᵀ` of one 3×3 kernel slice, laid out
/// `[4·r + j]` with `r` the height-transform index and `j` the width one —
/// the index convention every stage of this module shares.
fn weight_tile(w9: &[f32]) -> [f32; TP] {
    // G along the height: each kernel column (kx fixed) expands 3 → 4.
    let mut a = [0.0f32; 12];
    for j in 0..3 {
        let (g0, g1, g2) = (w9[j], w9[3 + j], w9[6 + j]);
        a[j] = g0;
        a[3 + j] = 0.5 * (g0 + g1 + g2);
        a[6 + j] = 0.5 * (g0 - g1 + g2);
        a[9 + j] = g2;
    }
    // G again along the width: each row expands 3 → 4.
    let mut u = [0.0f32; TP];
    for r in 0..4 {
        let (g0, g1, g2) = (a[3 * r], a[3 * r + 1], a[3 * r + 2]);
        u[4 * r] = g0;
        u[4 * r + 1] = 0.5 * (g0 + g1 + g2);
        u[4 * r + 2] = 0.5 * (g0 - g1 + g2);
        u[4 * r + 3] = g2;
    }
    u
}

fn check_weight(w: &Tensor, g: &Conv2dGeometry) -> usize {
    assert!(
        winograd_supported(g),
        "winograd path requires a stride-1 3x3 kernel, got {g:?}"
    );
    assert_eq!(w.rank(), 4, "conv weight must be [oc, ic, kh, kw]");
    assert_eq!(
        (w.dim(1), w.dim(2), w.dim(3)),
        (g.in_c, 3, 3),
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

/// Tile-batch width of the forward staging: how many tiles share one
/// transform pass, sized from the per-thread [`PACK_PANEL_BYTES`] budget.
/// Bit-free — see the module docs.
fn tile_block(ic: usize, oc: usize, cap: usize) -> usize {
    // Staging floats per tile: d + e gather/transform planes (2·16), V
    // (16·ic), M (16·oc), and the 8 + 4 inverse planes.
    let per_tile = TP * (ic + oc + 2) + 12;
    (PACK_PANEL_BYTES / 4 / per_tile).clamp(1, cap.max(1))
}

/// Gathers the 4×4 input window of tile `(b, ty, tx)`, channel `c`, into
/// 16 planes of stride `tb` at position `t`, zero-filling where the
/// window hangs over the padded border — the same border convention as
/// the direct path's patch pack. With `tb = 1` this degenerates to one
/// dense 16-element tile (the per-tile backward paths use it that way).
#[allow(clippy::too_many_arguments)]
fn gather_tile(
    src: &[f32],
    g: &Conv2dGeometry,
    b: usize,
    c: usize,
    ty: usize,
    tx: usize,
    d: &mut [f32],
    tb: usize,
    t: usize,
) {
    let (h, w) = (g.in_h, g.in_w);
    let iy0 = 2 * ty as i64 - g.pad.h_begin;
    let ix0 = 2 * tx as i64 - g.pad.w_begin;
    let cbase = (b * g.in_c + c) * h * w;
    if iy0 >= 0 && iy0 + 4 <= h as i64 && ix0 >= 0 && ix0 + 4 <= w as i64 {
        let s = cbase + iy0 as usize * w + ix0 as usize;
        for r in 0..4 {
            let row = &src[s + r * w..s + r * w + 4];
            for (j, &x) in row.iter().enumerate() {
                d[(r * 4 + j) * tb + t] = x;
            }
        }
        return;
    }
    for r in 0..4 {
        let iy = iy0 + r as i64;
        for j in 0..4 {
            let ix = ix0 + j as i64;
            d[(r * 4 + j) * tb + t] = if iy < 0 || iy >= h as i64 || ix < 0 || ix >= w as i64 {
                0.0
            } else {
                src[cbase + iy as usize * w + ix as usize]
            };
        }
    }
}

/// Winograd F(2×2, 3×3) convolution forward.
///
/// Same signature and overwrite contract as
/// [`conv2d_fwd_tiled`](crate::conv2d_fwd_tiled); results agree with it
/// within epsilon, not bitwise (module docs).
///
/// # Panics
///
/// Panics if the geometry is not a stride-1 3×3 kernel or shapes disagree.
pub fn conv2d_fwd_winograd(
    x: &Tensor,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let n = check_input(x, g);
    let oc = check_weight(w, g);
    let ic = g.in_c;
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(out.len(), n * oc * oh * ow, "conv2d_fwd_winograd out length");
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv bias length");
    }
    let src = x.as_slice();
    let wv = w.as_slice();
    let (nth, ntw) = (oh.div_ceil(2), ow.div_ceil(2));
    let tiles = n * nth * ntw;

    let ws = Workspace::global();
    let mut u = ws.take(oc * TP * ic);
    // U laid out [oc][16][ic]: the per-(i, k) coefficient quads the
    // Hadamard reduction reads are contiguous in c, and the transform
    // writes one contiguous 16·ic chunk per output channel.
    scnn_par::par_chunks_mut(u.as_mut_slice(), TP * ic, |k, chunk| {
        for c in 0..ic {
            let u16 = weight_tile(&wv[(k * ic + c) * 9..(k * ic + c) * 9 + 9]);
            for (i, &uv) in u16.iter().enumerate() {
                chunk[i * ic + c] = uv;
            }
        }
    });
    let uv: &[f32] = &u;

    let tb = tile_block(ic, oc, tiles);
    let nblocks = tiles.div_ceil(tb);
    let sink = DisjointMut::new(out);
    scnn_par::parallel_for(nblocks, |blk| {
        let t0 = blk * tb;
        let t1 = (t0 + tb).min(tiles);
        let bt = t1 - t0;
        let (dn, vn, mn) = (TP * bt, TP * ic * bt, TP * oc * bt);
        scratch::with_scratch(2 * dn + vn + mn + 12 * bt, |s| {
            let (d, s) = s.split_at_mut(dn);
            let (e, s) = s.split_at_mut(dn);
            let (v, s) = s.split_at_mut(vn);
            let (m, s) = s.split_at_mut(mn);
            let (p, y) = s.split_at_mut(8 * bt);

            // Stage 1: input transform V = Bᵀ d B, one channel at a time.
            for c in 0..ic {
                for t in 0..bt {
                    let gt = t0 + t;
                    let (b, rem) = (gt / (nth * ntw), gt % (nth * ntw));
                    gather_tile(src, g, b, c, rem / ntw, rem % ntw, d, bt, t);
                }
                // Bᵀ along the height: e[r][j] from d[·][j].
                for j in 0..4 {
                    let dp = |r: usize| &d[(4 * r + j) * bt..(4 * r + j + 1) * bt];
                    let er = |r: usize| (4 * r + j) * bt..(4 * r + j + 1) * bt;
                    vsub(&mut e[er(0)], dp(0), dp(2));
                    vadd(&mut e[er(1)], dp(1), dp(2));
                    vsub(&mut e[er(2)], dp(2), dp(1));
                    vsub(&mut e[er(3)], dp(1), dp(3));
                }
                // B along the width into this channel's V planes.
                for r in 0..4 {
                    let ep = |j: usize| &e[(4 * r + j) * bt..(4 * r + j + 1) * bt];
                    let vr = |jt: usize| {
                        ((4 * r + jt) * ic + c) * bt..((4 * r + jt) * ic + c + 1) * bt
                    };
                    vsub(&mut v[vr(0)], ep(0), ep(2));
                    vadd(&mut v[vr(1)], ep(1), ep(2));
                    vsub(&mut v[vr(2)], ep(2), ep(1));
                    vsub(&mut v[vr(3)], ep(1), ep(3));
                }
            }

            // Stage 2: transform-domain channel reduction (`m` starts
            // zeroed — scratch loans are zeroed).
            reduce_channels(oc, ic, bt, uv, v, m);

            // Stage 3: inverse transform Y = Aᵀ M A and biased write-out,
            // clipping the 2×2 tile at the output's edge.
            for k in 0..oc {
                let bk = bias.map_or(0.0, |b| b[k]);
                let mp = |i: usize| &m[(i * oc + k) * bt..(i * oc + k + 1) * bt];
                // Aᵀ along the height: p[a][j].
                for j in 0..4 {
                    let tmp = &mut e[..bt];
                    vadd(tmp, mp(j), mp(4 + j));
                    vadd(&mut p[j * bt..(j + 1) * bt], &e[..bt], mp(8 + j));
                    let tmp = &mut e[..bt];
                    vsub(tmp, mp(4 + j), mp(8 + j));
                    vsub(&mut p[(4 + j) * bt..(5 + j) * bt], &e[..bt], mp(12 + j));
                }
                // A along the width: y[a][b].
                for a in 0..2 {
                    let pp = |j: usize| &p[(4 * a + j) * bt..(4 * a + j + 1) * bt];
                    let tmp = &mut e[..bt];
                    vadd(tmp, pp(0), pp(1));
                    vadd(&mut y[(2 * a) * bt..(2 * a + 1) * bt], &e[..bt], pp(2));
                    let tmp = &mut e[..bt];
                    vsub(tmp, pp(1), pp(2));
                    vsub(&mut y[(2 * a + 1) * bt..(2 * a + 2) * bt], &e[..bt], pp(3));
                }
                for t in 0..bt {
                    let gt = t0 + t;
                    let (b, rem) = (gt / (nth * ntw), gt % (nth * ntw));
                    let (ty, tx) = (rem / ntw, rem % ntw);
                    let (oy0, ox0) = (2 * ty, 2 * tx);
                    let cw = if ox0 + 1 < ow { 2 } else { 1 };
                    for a in 0..2 {
                        if oy0 + a >= oh {
                            break;
                        }
                        let base = ((b * oc + k) * oh + oy0 + a) * ow + ox0;
                        // Safety: each output element belongs to exactly
                        // one tile, tiles to exactly one block, and the
                        // (k, tile) loops of one block never repeat a
                        // position.
                        let orow = unsafe { sink.range(base, base + cw) };
                        orow[0] = y[(2 * a) * bt + t] + bk;
                        if cw == 2 {
                            orow[1] = y[(2 * a + 1) * bt + t] + bk;
                        }
                    }
                }
            }
        });
    });
    ws.recycle(u);
}

/// Forward stage 2: `M[i][k][t] += Σ_c U[k][i][c] · V[i][c][t]` over the
/// `bt` tiles of a block — one register-blocked [`gemm_acc`] per
/// transform-domain point `i`, reading `U`'s `[oc][16][ic]` layout in
/// place. Per element `c` ascends with separate multiply and add, i.e. the
/// chain of one [`axpy`] per channel (pinned bitwise by the unit test).
fn reduce_channels(oc: usize, ic: usize, bt: usize, u: &[f32], v: &[f32], m: &mut [f32]) {
    for i in 0..TP {
        let (a, b, c) = (&u[i * ic..], &v[i * ic * bt..], &mut m[i * oc * bt..]);
        gemm_acc(oc, bt, ic, a, TP * ic, 1, b, bt, c, bt);
    }
}

/// Transforms one 2×2 `dy` tile (clipped at the output edge) to the
/// transform domain, `dŶ = A dy Aᵀ`, writing the 16 points at stride
/// `stride`, offset `o` (the AoS `[i][k]` layout both backward passes
/// share).
#[allow(clippy::too_many_arguments)]
fn dy_tile(
    dyv: &[f32],
    plane_base: usize,
    oh: usize,
    ow: usize,
    ty: usize,
    tx: usize,
    out: &mut [f32],
    stride: usize,
    o: usize,
) {
    let q = |a: usize, b: usize| -> f32 {
        let (oy, ox) = (2 * ty + a, 2 * tx + b);
        if oy < oh && ox < ow {
            dyv[plane_base + oy * ow + ox]
        } else {
            0.0
        }
    };
    let (q00, q01, q10, q11) = (q(0, 0), q(0, 1), q(1, 0), q(1, 1));
    // A along the height (2 → 4 rows), then along the width per row.
    let rows = [
        [q00, q01],
        [q00 + q10, q01 + q11],
        [q00 - q10, q01 - q11],
        [-q10, -q11],
    ];
    for (r, &[y0, y1]) in rows.iter().enumerate() {
        out[(4 * r) * stride + o] = y0;
        out[(4 * r + 1) * stride + o] = y0 + y1;
        out[(4 * r + 2) * stride + o] = y0 - y1;
        out[(4 * r + 3) * stride + o] = -y1;
    }
}

/// Winograd input gradient: `dd = B (Σₖ Uₖ ⊙ (A dYₖ Aᵀ)) Bᵀ` per tile,
/// scatter-added in ascending tile order.
///
/// Same signature and accumulate contract as
/// [`conv2d_dx_tiled`](crate::conv2d_dx_tiled): adds into `dst: [n, ic,
/// full_h, full_w]` (zeroed by the caller) with the geometry's window
/// placed at `(off_h, off_w)`; parallel over whole batch images only.
///
/// # Panics
///
/// Panics if the geometry is not a stride-1 3×3 kernel, shapes disagree,
/// or the offset window hangs outside `dst`.
pub fn conv2d_dx_winograd(
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
    let ic = g.in_c;
    let (nth, ntw) = (oh.div_ceil(2), ow.div_ceil(2));
    let dyv = dy.as_slice();
    let wv = w.as_slice();

    let ws = Workspace::global();
    let mut ut = ws.take(TP * ic * oc);
    // Ut laid out [16][ic][oc]: per-(i, c) rows contiguous in k for the
    // output-channel dot.
    {
        let cols = DisjointMut::new(ut.as_mut_slice());
        scnn_par::parallel_for(ic, |c| {
            // Safety: channel c's 16 rows are written only by task c.
            let mut rows: [&mut [f32]; TP] = std::array::from_fn(|i| unsafe {
                cols.range((i * ic + c) * oc, (i * ic + c + 1) * oc)
            });
            for k in 0..oc {
                let u16 = weight_tile(&wv[(k * ic + c) * 9..(k * ic + c) * 9 + 9]);
                for (row, &uv) in rows.iter_mut().zip(u16.iter()) {
                    row[k] = uv;
                }
            }
        });
    }
    let utv: &[f32] = &ut;

    let plane = full_h * full_w;
    scnn_par::par_chunks_mut(dst.as_mut_slice(), ic * plane, |b, img| {
        scratch::with_scratch(TP * (oc + ic), |s| {
            let (dyh, dv) = s.split_at_mut(TP * oc);
            for ty in 0..nth {
                for tx in 0..ntw {
                    for k in 0..oc {
                        dy_tile(dyv, ((b * oc + k) * oh) * ow, oh, ow, ty, tx, dyh, oc, k);
                    }
                    // dV[i][c] = Σ_k Ut[i][c][k] · dŶ[i][k].
                    for i in 0..TP {
                        let arow = &dyh[i * oc..(i + 1) * oc];
                        let ur = |c: usize| &utv[(i * ic + c) * oc..(i * ic + c + 1) * oc];
                        let mut c = 0;
                        while c + 4 <= ic {
                            let qd = dot8_x4(arow, ur(c), ur(c + 1), ur(c + 2), ur(c + 3));
                            dv[i * ic + c..i * ic + c + 4].copy_from_slice(&qd);
                            c += 4;
                        }
                        while c < ic {
                            dv[i * ic + c] = dot8(arow, ur(c));
                            c += 1;
                        }
                    }
                    // dd = B dV Bᵀ, scatter-added with border clip.
                    let iy0 = 2 * ty as i64 - g.pad.h_begin;
                    let ix0 = 2 * tx as i64 - g.pad.w_begin;
                    for c in 0..ic {
                        let mut pm = [0.0f32; TP];
                        for j in 0..4 {
                            let (v0, v1, v2, v3) =
                                (dv[j * ic + c], dv[(4 + j) * ic + c], dv[(8 + j) * ic + c], dv[(12 + j) * ic + c]);
                            pm[j] = v0;
                            pm[4 + j] = v1 - v2 + v3;
                            pm[8 + j] = -v0 + v1 + v2;
                            pm[12 + j] = -v3;
                        }
                        let mut dd = [0.0f32; TP];
                        for r in 0..4 {
                            let (v0, v1, v2, v3) =
                                (pm[4 * r], pm[4 * r + 1], pm[4 * r + 2], pm[4 * r + 3]);
                            dd[4 * r] = v0;
                            dd[4 * r + 1] = v1 - v2 + v3;
                            dd[4 * r + 2] = -v0 + v1 + v2;
                            dd[4 * r + 3] = -v3;
                        }
                        for r in 0..4 {
                            let iy = iy0 + r as i64;
                            if iy < 0 || iy >= g.in_h as i64 {
                                continue;
                            }
                            let rbase = c * plane + (off_h + iy as usize) * full_w + off_w;
                            for j in 0..4 {
                                let ix = ix0 + j as i64;
                                if ix < 0 || ix >= g.in_w as i64 {
                                    continue;
                                }
                                img[rbase + ix as usize] += dd[4 * r + j];
                            }
                        }
                    }
                }
            }
        });
    });
    ws.recycle(ut);
}

/// Winograd weight gradient, batch-range continued-accumulation form
/// (the contract of [`conv2d_dw_tiled_acc`](crate::conv2d_dw_tiled_acc)):
/// folds the contribution of images `b0 .. b0 + bn` into `dw: [oc,
/// ic·3·3]`, overwriting on `init`.
///
/// Each image accumulates a transform-domain partial `dU[i][k][c] +=
/// dŶ[i][k]·V[i][c]` over its tiles in ascending order (images in
/// parallel — the partials are disjoint), the partials fold in ascending
/// image order, and one inverse transform `dg = Gᵀ dU G` produces the
/// spatial gradient. Unlike the direct path, chunk boundaries are *not*
/// bit-free here: the inverse transform is applied per call, so chaining
/// chunks equals the full-batch call only within epsilon — which is why
/// the planner offers winograd solely at full batch (no micro-batching).
///
/// # Panics
///
/// Panics if the geometry is not a stride-1 3×3 kernel, shapes disagree,
/// or the range exceeds the batch.
pub fn conv2d_dw_winograd_acc(
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
    assert!(
        winograd_supported(g),
        "winograd path requires a stride-1 3x3 kernel, got {g:?}"
    );
    let ic = g.in_c;
    let plen = ic * 9;
    assert_eq!(dw.len(), oc * plen, "conv2d_dw_winograd out length");
    let src = x.as_slice();
    let dyv = dy.as_slice();
    let (nth, ntw) = (oh.div_ceil(2), ow.div_ceil(2));
    let sz = TP * oc * ic;

    scratch::with_scratch(bn * sz, |partials| {
        // Per-image transform-domain partials (scratch loans are zeroed).
        scnn_par::par_chunks_mut(partials, sz, |bi, du| {
            let b = b0 + bi;
            scratch::with_scratch(TP * (ic + oc), |s| {
                let (v16c, dyh) = s.split_at_mut(TP * ic);
                for ty in 0..nth {
                    for tx in 0..ntw {
                        for c in 0..ic {
                            let mut d16 = [0.0f32; TP];
                            gather_tile(src, g, b, c, ty, tx, &mut d16, 1, 0);
                            let mut e16 = [0.0f32; TP];
                            for j in 0..4 {
                                let (x0, x1, x2, x3) =
                                    (d16[j], d16[4 + j], d16[8 + j], d16[12 + j]);
                                e16[j] = x0 - x2;
                                e16[4 + j] = x1 + x2;
                                e16[8 + j] = x2 - x1;
                                e16[12 + j] = x1 - x3;
                            }
                            for r in 0..4 {
                                let (x0, x1, x2, x3) =
                                    (e16[4 * r], e16[4 * r + 1], e16[4 * r + 2], e16[4 * r + 3]);
                                v16c[(4 * r) * ic + c] = x0 - x2;
                                v16c[(4 * r + 1) * ic + c] = x1 + x2;
                                v16c[(4 * r + 2) * ic + c] = x2 - x1;
                                v16c[(4 * r + 3) * ic + c] = x1 - x3;
                            }
                        }
                        for k in 0..oc {
                            dy_tile(dyv, ((b * oc + k) * oh) * ow, oh, ow, ty, tx, dyh, oc, k);
                        }
                        for i in 0..TP {
                            let vrow = &v16c[i * ic..(i + 1) * ic];
                            for k in 0..oc {
                                let a = dyh[i * oc + k];
                                if a == 0.0 {
                                    continue;
                                }
                                axpy(a, vrow, &mut du[(i * oc + k) * ic..(i * oc + k + 1) * ic]);
                            }
                        }
                    }
                }
            });
        });

        scratch::with_scratch(sz, |du| {
            for bi in 0..bn {
                add_assign(du, &partials[bi * sz..(bi + 1) * sz]);
            }
            // Inverse transform dg = Gᵀ dU G, parallel over output
            // channels (dw rows are disjoint).
            scnn_par::par_chunks_mut(dw, plen, |k, row| {
                for c in 0..ic {
                    let uu = |i: usize| du[(i * oc + k) * ic + c];
                    // Gᵀ along the height: 4 → 3 rows.
                    let mut a12 = [0.0f32; 12];
                    for j in 0..4 {
                        let (u0, u1, u2, u3) = (uu(j), uu(4 + j), uu(8 + j), uu(12 + j));
                        a12[j] = u0 + 0.5 * (u1 + u2);
                        a12[4 + j] = 0.5 * (u1 - u2);
                        a12[8 + j] = 0.5 * (u1 + u2) + u3;
                    }
                    // G along the width: 4 → 3 columns.
                    for r in 0..3 {
                        let (u0, u1, u2, u3) =
                            (a12[4 * r], a12[4 * r + 1], a12[4 * r + 2], a12[4 * r + 3]);
                        let o = c * 9 + r * 3;
                        let dg = [
                            u0 + 0.5 * (u1 + u2),
                            0.5 * (u1 - u2),
                            0.5 * (u1 + u2) + u3,
                        ];
                        if init {
                            row[o..o + 3].copy_from_slice(&dg);
                        } else {
                            row[o] += dg[0];
                            row[o + 1] += dg[1];
                            row[o + 2] += dg[2];
                        }
                    }
                }
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_engine::{conv2d_dw_tiled, conv2d_dx_tiled, conv2d_fwd_tiled};
    use crate::{force_level, Padding2d, SimdLevel};

    /// Small-integer tensor: every value in `{-3 … 3}`. All winograd
    /// intermediates are then quarter-integers well inside f32's exact
    /// range, and F(2×2, 3×3) is exact in exact arithmetic — so the
    /// transform path must agree with the direct path *bitwise* on this
    /// data, a far sharper oracle than an epsilon band.
    fn int_fill(dims: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 8) % 7) as f32 - 3.0
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    fn fill(dims: &[usize], seed: u32) -> Tensor {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        let n: usize = dims.iter().product();
        let data: Vec<f32> = (0..n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    fn cases() -> Vec<(usize, usize, usize, usize, usize, Padding2d)> {
        vec![
            // (n, ic, h, w, oc, pad): even maps, odd remainders in both
            // dims, asymmetric padding, windows hanging fully outside.
            (2, 3, 8, 8, 4, Padding2d::symmetric(1)),
            (1, 2, 7, 5, 3, Padding2d::symmetric(0)),
            (1, 1, 4, 4, 2, Padding2d::new(1, 0, 0, 1)),
            (2, 5, 6, 9, 2, Padding2d::symmetric(2)),
            (1, 4, 3, 3, 1, Padding2d::symmetric(1)),
        ]
    }

    #[test]
    fn forward_matches_direct_bitwise_on_integer_data() {
        for (n, ic, h, w, oc, pad) in cases() {
            let g = Conv2dGeometry::new(ic, h, w, 3, 3, 1, 1, pad);
            let x = int_fill(&[n, ic, h, w], 11);
            let wt = int_fill(&[oc, ic, 3, 3], 23);
            let bias = int_fill(&[oc], 5);
            let len = n * oc * g.patch_count();
            let (mut direct, mut wino) = (vec![0.0f32; len], vec![0.0f32; len]);
            conv2d_fwd_tiled(&x, &wt, Some(bias.as_slice()), &g, &mut direct);
            conv2d_fwd_winograd(&x, &wt, Some(bias.as_slice()), &g, &mut wino);
            assert_eq!(direct, wino, "fwd mismatch at {g:?}");
        }
    }

    #[test]
    fn backward_matches_direct_bitwise_on_integer_data() {
        for (n, ic, h, w, oc, pad) in cases() {
            let g = Conv2dGeometry::new(ic, h, w, 3, 3, 1, 1, pad);
            let x = int_fill(&[n, ic, h, w], 31);
            let wt = int_fill(&[oc, ic, 3, 3], 47);
            let dy = int_fill(&[n, oc, g.out_h(), g.out_w()], 59);

            let mut dx_direct = Tensor::zeros(&[n, ic, h, w]);
            let mut dx_wino = Tensor::zeros(&[n, ic, h, w]);
            conv2d_dx_tiled(&dy, &wt, &g, &mut dx_direct, 0, 0);
            conv2d_dx_winograd(&dy, &wt, &g, &mut dx_wino, 0, 0);
            assert_eq!(dx_direct.as_slice(), dx_wino.as_slice(), "dx mismatch at {g:?}");

            let mut dw_direct = vec![0.0f32; oc * g.patch_len()];
            let mut dw_wino = vec![0.0f32; oc * g.patch_len()];
            conv2d_dw_tiled(&x, &dy, &g, &mut dw_direct);
            conv2d_dw_winograd_acc(&x, &dy, &g, 0, n, &mut dw_wino, true);
            assert_eq!(dw_direct, dw_wino, "dw mismatch at {g:?}");
        }
    }

    #[test]
    fn dx_respects_crop_offset_window() {
        let g = Conv2dGeometry::new(2, 5, 6, 3, 3, 1, 1, Padding2d::symmetric(1));
        let wt = int_fill(&[3, 2, 3, 3], 7);
        let dy = int_fill(&[1, 3, g.out_h(), g.out_w()], 9);
        let mut direct = Tensor::zeros(&[1, 2, 5 + 2, 6 + 3]);
        let mut wino = Tensor::zeros(&[1, 2, 5 + 2, 6 + 3]);
        conv2d_dx_tiled(&dy, &wt, &g, &mut direct, 2, 1);
        conv2d_dx_winograd(&dy, &wt, &g, &mut wino, 2, 1);
        assert_eq!(direct.as_slice(), wino.as_slice());
    }

    #[test]
    fn dw_chunked_accumulation_matches_full_range_bitwise_on_integer_data() {
        // Chunk boundaries are epsilon-only in general, but on integer
        // data the transform arithmetic is exact, so chunked == full.
        let g = Conv2dGeometry::new(3, 6, 6, 3, 3, 1, 1, Padding2d::symmetric(1));
        let x = int_fill(&[4, 3, 6, 6], 3);
        let dy = int_fill(&[4, 2, 6, 6], 17);
        let mut full = vec![0.0f32; 2 * g.patch_len()];
        let mut chunked = vec![0.0f32; 2 * g.patch_len()];
        conv2d_dw_winograd_acc(&x, &dy, &g, 0, 4, &mut full, true);
        conv2d_dw_winograd_acc(&x, &dy, &g, 0, 1, &mut chunked, true);
        conv2d_dw_winograd_acc(&x, &dy, &g, 1, 3, &mut chunked, false);
        assert_eq!(full, chunked);
    }

    #[test]
    fn forward_bits_are_stable_across_threads_and_isa() {
        let g = Conv2dGeometry::new(5, 9, 11, 3, 3, 1, 1, Padding2d::symmetric(1));
        let x = fill(&[2, 5, 9, 11], 101);
        let wt = fill(&[6, 5, 3, 3], 103);
        let bias = fill(&[6], 105);
        let len = 2 * 6 * g.patch_count();
        let run = || {
            let mut out = vec![0.0f32; len];
            conv2d_fwd_winograd(&x, &wt, Some(bias.as_slice()), &g, &mut out);
            out
        };
        let baseline = run();
        for threads in [1, 3, 8] {
            let got = scnn_par::with_threads(threads, run);
            assert_eq!(baseline, got, "thread count {threads} changed bits");
        }
        force_level(Some(SimdLevel::Scalar));
        let scalar = run();
        force_level(None);
        assert_eq!(baseline, scalar, "scalar fallback changed bits");
    }

    #[test]
    fn channel_reduction_matches_sequential_axpys_bitwise() {
        // Pins stage 2's operand layout and per-element chain: one `axpy`
        // per channel, `c` ascending. Shapes cover every `oc mod 4` and
        // `bt mod 16`/`mod 8` class of `gemm_acc`'s register tiles (its
        // own oracle tests in `simd.rs` cover both ISAs).
        let shapes = [(1, 1, 1), (4, 4, 16), (5, 3, 9), (7, 9, 33), (6, 17, 24), (3, 2, 7)];
        for (oc, ic, bt) in shapes {
            let u = fill(&[oc * TP * ic], 31 + oc as u32);
            let v = fill(&[TP * ic * bt], 37 + bt as u32);
            let (u, v) = (u.as_slice(), v.as_slice());
            let mut want = vec![0.0f32; TP * oc * bt];
            for i in 0..TP {
                for k in 0..oc {
                    let mrow = &mut want[(i * oc + k) * bt..(i * oc + k + 1) * bt];
                    for c in 0..ic {
                        let vrow = &v[(i * ic + c) * bt..(i * ic + c + 1) * bt];
                        axpy(u[(k * TP + i) * ic + c], vrow, mrow);
                    }
                }
            }
            let mut got = vec![0.0f32; TP * oc * bt];
            reduce_channels(oc, ic, bt, u, v, &mut got);
            let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "oc={oc} ic={ic} bt={bt}");
        }
    }

    #[test]
    fn backward_bits_are_stable_across_threads() {
        let g = Conv2dGeometry::new(3, 7, 6, 3, 3, 1, 1, Padding2d::symmetric(1));
        let x = fill(&[3, 3, 7, 6], 201);
        let wt = fill(&[4, 3, 3, 3], 203);
        let dy = fill(&[3, 4, g.out_h(), g.out_w()], 205);
        let run = || {
            let mut dx = Tensor::zeros(&[3, 3, 7, 6]);
            conv2d_dx_winograd(&dy, &wt, &g, &mut dx, 0, 0);
            let mut dw = vec![0.0f32; 4 * g.patch_len()];
            conv2d_dw_winograd_acc(&x, &dy, &g, 0, 3, &mut dw, true);
            (dx.as_slice().to_vec(), dw)
        };
        let baseline = run();
        for threads in [1, 2, 8] {
            let got = scnn_par::with_threads(threads, run);
            assert_eq!(baseline, got, "thread count {threads} changed backward bits");
        }
    }

    #[test]
    fn supported_predicate_is_stride1_3x3_only() {
        let ok = Conv2dGeometry::new(1, 8, 8, 3, 3, 1, 1, Padding2d::symmetric(1));
        assert!(winograd_supported(&ok));
        let strided = Conv2dGeometry::new(1, 8, 8, 3, 3, 2, 2, Padding2d::symmetric(1));
        assert!(!winograd_supported(&strided));
        let one = Conv2dGeometry::new(1, 8, 8, 1, 1, 1, 1, Padding2d::symmetric(0));
        assert!(!winograd_supported(&one));
    }

    #[test]
    fn workspace_model_is_monotone_and_positive() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
        let w1 = conv2d_winograd_workspace_bytes(&g, 1, 32);
        let w8 = conv2d_winograd_workspace_bytes(&g, 8, 32);
        assert_eq!(w1, 2 * 16 * 32 * 16 * 4);
        assert!(w8 > w1);
    }
}
