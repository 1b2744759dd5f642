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
//! Forward only, and on the shelf: no conv node runs it (every node runs
//! the tile engine), but the repo benchmark probes it
//! (`tensor.conv_fwd_winograd_ms`), so it stays a standalone kernel held
//! by the `kernels` bench's ceiling and winograd:direct ratio gates.
//!
//! **Tolerance contract.** This kernel is *outside* the bit-identity
//! contract the tile engine upholds with `im2col` + GEMM (DESIGN.md §11):
//! the reduction runs in the transform domain, so results agree with
//! [`conv2d_fwd_tiled`](crate::conv2d_fwd_tiled) only within epsilon. It is
//! however deterministic *in itself*: each transform-domain point
//! `M[i][k] = Σ_c U·V` reduces over input channels in ascending order, one
//! fused multiply-add per channel ([`gemm_acc`]'s per-element chain), and the
//! tile-batch width only changes how many tiles share one staging pass,
//! never any sum — so a run reproduces its own bits exactly at any thread
//! count and SIMD level.
//!
//! Tile batches are staged through per-thread scratch
//! (`scnn_par::scratch`) sized by a per-thread panel budget
//! ([`PACK_PANEL_BYTES`]); the transformed-weight buffer is a `Vec`
//! allocated per call.

use crate::im2col::Conv2dGeometry;
use crate::simd::{gemm_acc, vadd, vsub};
use crate::Tensor;
use scnn_par::{scratch, DisjointMut};

/// Transform-domain points per tile (4×4).
const TP: usize = 16;

/// Per-thread byte budget of the forward's transform staging.
const PACK_PANEL_BYTES: usize = 256 * 1024;

/// Whether this geometry has a Winograd F(2×2, 3×3) fast path: stride-1
/// 3×3 kernels only (any non-negative padding and output size — partial
/// edge tiles are clipped at write-out).
pub fn winograd_supported(g: &Conv2dGeometry) -> bool {
    g.kh == 3 && g.kw == 3 && g.sh == 1 && g.sw == 1
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
/// the direct path's patch pack.
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

    let mut u = vec![0.0f32; oc * TP * ic];
    // U laid out [oc][16][ic]: the per-(i, k) coefficient quads the
    // Hadamard reduction reads are contiguous in c, and the transform
    // writes one contiguous 16·ic chunk per output channel.
    scnn_par::par_chunks_mut(&mut u, TP * ic, |k, chunk| {
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
                        // SAFETY: each output element belongs to exactly
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
}

/// Forward stage 2: `M[i][k][t] += Σ_c U[k][i][c] · V[i][c][t]` over the
/// `bt` tiles of a block — one register-blocked [`gemm_acc`] per
/// transform-domain point `i`, reading `U`'s `[oc][16][ic]` layout in
/// place. Per element `c` ascends with one fused multiply-add a step
/// (pinned bitwise by the unit test).
fn reduce_channels(oc: usize, ic: usize, bt: usize, u: &[f32], v: &[f32], m: &mut [f32]) {
    for i in 0..TP {
        let (a, b, c) = (&u[i * ic..], &v[i * ic * bt..], &mut m[i * oc * bt..]);
        gemm_acc(oc, bt, ic, a, TP * ic, 1, b, bt, c, bt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_engine::conv2d_fwd_tiled;
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
    fn channel_reduction_is_one_mul_add_per_channel_ascending() {
        // Pins stage 2's operand layout and per-element chain: one fused
        // multiply-add per channel, `c` ascending. Shapes cover every `oc mod 4` and
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
                        let a = u[(k * TP + i) * ic + c];
                        for (m, &x) in mrow.iter_mut().zip(vrow) {
                            *m = a.mul_add(x, *m);
                        }
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
    fn supported_predicate_is_stride1_3x3_only() {
        let ok = Conv2dGeometry::new(1, 8, 8, 3, 3, 1, 1, Padding2d::symmetric(1));
        assert!(winograd_supported(&ok));
        let strided = Conv2dGeometry::new(1, 8, 8, 3, 3, 2, 2, Padding2d::symmetric(1));
        assert!(!winograd_supported(&strided));
        let one = Conv2dGeometry::new(1, 8, 8, 1, 1, 1, 1, Padding2d::symmetric(0));
        assert!(!winograd_supported(&one));
    }
}
