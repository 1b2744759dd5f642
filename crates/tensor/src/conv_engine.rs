//! Tile-fused implicit-GEMM convolution kernels (DESIGN.md §11).
//!
//! The materialized path lowers convolution to `im2col` + GEMM, which
//! allocates the full patch matrix `[n·oh·ow, ic·kh·kw]` on every call —
//! the largest transient buffer in a training step and invisible to the
//! HMMS planner. The kernels here never build that matrix: they stage one
//! small tile at a time in per-thread scratch (`scnn_par::scratch`), run
//! the same micro-kernels the GEMMs use (`dot_panel` forward, `gemm_acc`
//! backward) against the weight matrix, and write results straight to
//! their destination. What moves the data, per direction:
//!
//! - forward and `dw` *strip-pack* patch rows ([`pack_strips`]): tiles run
//!   over the flattened `n·oh·ow` position index (a 4-wide map fills a
//!   panel as well as a 32-wide one), and for each run of positions inside
//!   one output row a `(c, ky)` pass copies the run's kernel rows with the
//!   kernel width a compile-time constant — no per-position `memcpy`, no
//!   per-tap bounds test away from the border.
//! - `dx` computes a tile's patch-row gradients *transposed*
//!   (`[plen, positions]`, the weight matrix as `gemm_acc`'s strided left
//!   operand, `dy` read in place as its rows), so the `col2im` scatter adds
//!   whole runs of positions with unit stride on both sides
//!   ([`scatter_strips`]).
//! - a layer with negative padding reads and writes its cropped window in
//!   place (`*_at` entry points, [`conv2d_dx_tiled`]'s offsets) instead of
//!   through a cropped copy.
//!
//! **Bit-identity with the materialized path is a hard invariant**, not an
//! approximation — it is what keeps seeded training goldens and the
//! split-vs-unsplit exactness argument valid, and what lets the tests
//! replay `im2col`/`col2im` as this engine's oracle:
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
//!   `gemm_acc` per tile of positions; transposing the tile swaps the
//!   factors of each product, not their order), then scatters in
//!   [`col2im_into`](crate::col2im_into)'s `(oy, ox, ky, kx)` order per
//!   destination element, parallel per batch image only (`oy` windows
//!   overlap inside an image).
//!
//! The weight tensor `[oc, ic, kh, kw]` is row-major contiguous, so its
//! natural layout *is* the `[oc, plen]` panel the micro-kernels want —
//! "packing" the B side is the identity, which is why there is no weight
//! pack cache to invalidate on update.

use crate::im2col::Conv2dGeometry;
use crate::linalg::REDUCTION_KC;
use crate::simd::{add_assign, dot_panel, gemm_acc, PANEL_ROWS};
use crate::Tensor;
use scnn_par::{scratch, DisjointMut};

/// What runs a convolution. Every conv node executes on the tile engine
/// of this module (the default); `Materialized` is the whole-batch
/// `im2col` + GEMM pipeline the engine is bit-identical to, which tests
/// pass explicitly to `scnn-nn`'s conv kernels to get the reference.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ConvAlgo {
    /// Tile-fused implicit GEMM; no full patch-matrix allocation.
    #[default]
    Tiled,
    /// `im2col` + GEMM over workspace scratch (the test reference).
    Materialized,
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Whether a conv layer's whole-batch weight-gradient reduction fits one
/// `KC`-row block (`n·oh·ow ≤ KC`, `KC` = [`REDUCTION_KC`]).
/// Such layers accumulate `dw` in a single sequential fold, so the kernels
/// continue it straight into the output with **no** partial-block scratch,
/// and any micro-batch boundary replays the fold bit-for-bit — the deep
/// small-map layers this describes are exactly the ones whose `oc·plen`
/// partial buffer would otherwise dominate planned workspace.
pub fn conv2d_dw_single_block(g: &Conv2dGeometry, n: usize) -> bool {
    n * g.patch_count() <= REDUCTION_KC
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
        || (u * g.patch_count()).is_multiple_of(REDUCTION_KC)
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
    (REDUCTION_KC / gcd(g.patch_count(), REDUCTION_KC)).min(n.max(1))
}

/// Per-thread byte budget of a pack panel: the tiled engine's patch-row
/// tile and `dw` pack sub-tile, and the Winograd path's transform staging.
pub(crate) const PACK_PANEL_BYTES: usize = 256 * 1024;

/// Patch-row tile width under [`PACK_PANEL_BYTES`], at least 1, at most
/// `cap`. The tile width only partitions independent output positions
/// (forward) or changes packing granularity (`dw`), never a fold order.
fn tile_rows(plen: usize, cap: usize) -> usize {
    (PACK_PANEL_BYTES / 4 / plen.max(1)).clamp(1, cap.max(1))
}

/// Minimum output-channel rows per parallel range of a single-block `dw`
/// fold (amortizes task-claim overhead; same role as the GEMMs' grain).
const MIN_ROWS: usize = 8;

/// Output positions per forward task: an eighth of the layer, but at
/// least one tile and at most four (subject to `scnn_par::grain`'s chunk
/// cap). A task takes one scratch loan (handed out zeroed) and reuses it
/// for each of its tiles, so four-tile tasks clear a quarter of what they
/// pack, while a small layer still splits into several tasks — never
/// fewer than two: a batch-1 4×4 map is 16 positions, under one tile, and
/// as a single task its weight matrix (590 KB at layer4 when serving)
/// streams through one core while the other idles.
fn fwd_task_positions(total: usize) -> usize {
    let chunk = scnn_par::grain(total, (total / 8).clamp(FWD_TILE_ROWS, 4 * FWD_TILE_ROWS));
    chunk.min(total.div_ceil(2)).max(1)
}

/// Most patch rows a forward tile packs: one [`dot_panel`] row group.
/// Larger tiles would only re-stream the weight matrix less often, and it
/// already streams once per 24 rows of arithmetic.
const FWD_TILE_ROWS: usize = PANEL_ROWS;

/// Per-thread byte budget of the `dx` patch-gradient tile: every column
/// of the tile is one pass of the weight matrix's reduction over output
/// channels, so a wider tile reads the weights fewer times per image.
const DX_TILE_BYTES: usize = 256 * 1024;

/// Columns a `dx` tile should reach before a map that fits it whole
/// shares it with the next images': a 4×4 map is sixteen positions, one
/// 16-lane register, and alone it would stream the whole weight matrix
/// (2.4 MB at 256 → 256 channels, width 0.5) per image.
const DX_MIN_COLS: usize = 64;

/// Output positions per `dx` scratch tile: as many `plen`-float columns as
/// [`DX_TILE_BYTES`] holds, in whole 16-column register strips of
/// [`gemm_acc`] and never fewer than one strip, at most the image's `hw`.
/// Tiles only batch independent patch rows; the scatter stays in position
/// order.
fn dx_tile_cols(plen: usize, hw: usize) -> usize {
    let t = DX_TILE_BYTES / 4 / plen.max(1);
    (t - t % 16).max(16).min(hw.max(1))
}

/// Images per `dx` task of a batch of `n`: one, unless a whole image fits
/// one tile (`tile == hw`) in fewer than [`DX_MIN_COLS`] columns — then as
/// many as reach it, but never so many that the batch makes fewer than
/// two tasks. Depends only on the shapes, never on the thread count.
fn dx_task_images(tile: usize, hw: usize, n: usize) -> usize {
    if tile < hw {
        return 1;
    }
    DX_MIN_COLS.div_ceil(hw.max(1)).min(n.div_ceil(2)).max(1)
}

/// Cuts flattened output positions `[q0, q1)` at batch-image boundaries:
/// `(image, first position inside it, first flattened position, length)`
/// per run. Inside one run a channel's positions are contiguous in NCHW.
fn image_runs(q0: usize, q1: usize, hw: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut q = q0;
    std::iter::from_fn(move || {
        (q < q1).then(|| {
            let (b, rem) = (q / hw, q % hw);
            let run = (b, rem, q, (hw - rem).min(q1 - q));
            q += run.3;
            run
        })
    })
}

/// Where a geometry's `in_h × in_w` input window sits in the planes of the
/// NCHW tensor that stores it: at `(off_h, off_w)` of every
/// `full_h × full_w` plane. A layer with negative padding reads (forward,
/// `dw`) or writes (`dx`) its cropped window in place through this, so
/// the crop never costs a copy.
#[derive(Clone, Copy)]
struct Placement {
    full_h: usize,
    full_w: usize,
    off_h: usize,
    off_w: usize,
}

impl Placement {
    /// Validates that `t: [n, ic, full_h, full_w]` holds `g`'s window at
    /// `(off_h, off_w)`; returns the placement and the batch size.
    fn of(t: &Tensor, g: &Conv2dGeometry, off_h: usize, off_w: usize, what: &str) -> (Self, usize) {
        assert_eq!(t.rank(), 4, "conv {what} must be NCHW");
        assert_eq!(t.dim(1), g.in_c, "conv {what} {} does not match geometry {g:?}", t.shape());
        let (full_h, full_w) = (t.dim(2), t.dim(3));
        assert!(
            off_h + g.in_h <= full_h && off_w + g.in_w <= full_w,
            "conv {what}: window {}x{} at offset ({off_h}, {off_w}) exceeds {full_h}x{full_w}",
            g.in_h,
            g.in_w
        );
        (Placement { full_h, full_w, off_h, off_w }, t.dim(0))
    }
}

/// A conv input as the pack reads it: the tensor's elements and where the
/// geometry's window sits in them.
#[derive(Clone, Copy)]
pub(crate) struct Window<'a> {
    data: &'a [f32],
    at: Placement,
    n: usize,
}

impl<'a> Window<'a> {
    /// `g`'s window at `(off_h, off_w)` of `x: [n, ic, full_h, full_w]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not NCHW with `g.in_c` channels or the window
    /// hangs outside its planes.
    pub(crate) fn new(x: &'a Tensor, g: &Conv2dGeometry, off_h: usize, off_w: usize) -> Self {
        let (at, n) = Placement::of(x, g, off_h, off_w, "input");
        Window { data: x.as_slice(), at, n }
    }
}

/// Packs the `im2col` rows of output positions `[t0, t1)` — a flattened
/// `(b, oy, ox)` index, so a tile may straddle output rows and batch
/// images — into `panel` (`[t1 - t0, plen]`), writing **every** element:
/// out-of-bounds taps store an explicit 0.0, so a reused panel needs no
/// per-tile clear. Values and column order are exactly those of
/// [`im2col`](crate::im2col).
///
/// The pack goes strip by strip: for each run of positions inside one
/// output row, one `(c, ky)` pass moves the whole run's kernel rows — the
/// interior positions (all `kw` taps in bounds) as fixed-width copies with
/// no per-tap test, the border ones tap by tap. The kernel width is a
/// const generic for the widths that matter (3 and 1; `KW = 0` reads it
/// from the geometry), so a copy is a compile-time three-float or
/// one-float move instead of a length-dispatched `memcpy`.
fn pack_strips(src: &Window, g: &Conv2dGeometry, t0: usize, t1: usize, panel: &mut [f32]) {
    assert_eq!(panel.len(), (t1 - t0) * g.patch_len(), "pack panel length");
    match g.kw {
        3 => pack_strips_kw::<3>(src, g, t0, t1, panel),
        1 => pack_strips_kw::<1>(src, g, t0, t1, panel),
        _ => pack_strips_kw::<0>(src, g, t0, t1, panel),
    }
}

fn pack_strips_kw<const KW: usize>(
    src: &Window,
    g: &Conv2dGeometry,
    t0: usize,
    t1: usize,
    panel: &mut [f32],
) {
    let kw = if KW == 0 { g.kw } else { KW };
    let (ow, hw, plen) = (g.out_w(), g.patch_count(), g.patch_len());
    let at = &src.at;
    let plane = at.full_h * at.full_w;
    let (pad_t, pad_l) = (g.pad.h_begin as usize, g.pad.w_begin as usize);
    // Output columns `[ox_lo, ox_hi)` see their whole kernel row inside
    // the input: `ox·sw - pad_l >= 0` and `ox·sw - pad_l + kw <= in_w`.
    let ox_lo = pad_l.div_ceil(g.sw).min(ow);
    let ox_hi = match (g.in_w + pad_l).checked_sub(kw) {
        Some(room) => (room / g.sw + 1).clamp(ox_lo, ow),
        None => ox_lo,
    };
    let mut t = t0;
    while t < t1 {
        let (b, rem) = (t / hw, t % hw);
        let (oy, ox_a) = (rem / ow, rem % ow);
        let ox_b = (ox_a + (t1 - t)).min(ow);
        // The segment's interior run; left and right of it is border.
        let in_a = ox_a.max(ox_lo).min(ox_b);
        let in_b = ox_b.min(ox_hi).max(in_a);
        let rows = &mut panel[(t - t0) * plen..(t - t0 + ox_b - ox_a) * plen];
        for c in 0..g.in_c {
            let cbase = (b * g.in_c + c) * plane + at.off_h * at.full_w + at.off_w;
            for ky in 0..g.kh {
                let q = (c * g.kh + ky) * kw;
                let row = (oy * g.sh + ky)
                    .checked_sub(pad_t)
                    .filter(|&iy| iy < g.in_h)
                    .map(|iy| &src.data[cbase + iy * at.full_w..][..g.in_w]);
                let border = |rows: &mut [f32], ox: usize| {
                    for kx in 0..kw {
                        let ix = (ox * g.sw + kx).checked_sub(pad_l).filter(|&ix| ix < g.in_w);
                        rows[(ox - ox_a) * plen + q + kx] = row.zip(ix).map_or(0.0, |(r, ix)| r[ix]);
                    }
                };
                let Some(srow) = row else {
                    (ox_a..ox_b).for_each(|ox| border(rows, ox));
                    continue;
                };
                (ox_a..in_a).for_each(|ox| border(rows, ox));
                if in_a < in_b {
                    let (d0, s0) = ((in_a - ox_a) * plen + q, in_a * g.sw - pad_l);
                    let last = in_b - 1 - in_a;
                    assert!(
                        d0 + last * plen + kw <= rows.len() && s0 + last * g.sw + kw <= srow.len(),
                        "strip outside its panel rows or input row"
                    );
                    for i in 0..=last {
                        // SAFETY: both offsets grow with `i <= last`, and
                        // the assert above bounds the `kw` elements at
                        // `last`. Unchecked because the two slice checks
                        // per three floats cost the 32→32 patch conv 12 %
                        // of its forward (60 vs 68 GFLOP/s).
                        unsafe {
                            std::ptr::copy_nonoverlapping(
                                srow.as_ptr().add(s0 + i * g.sw),
                                rows.as_mut_ptr().add(d0 + i * plen),
                                kw,
                            );
                        }
                    }
                }
                (in_b..ox_b).for_each(|ox| border(rows, ox));
            }
        }
        t += ox_b - ox_a;
    }
}

/// Adds the transposed patch-row gradients of input channels `chans` into
/// one image's planes `img`, each tap onto the input element it read:
/// `dcols_t` holds a row per `(c, ky, kx)` with `c` in `chans`, `ld` floats
/// apart, and the image's positions `t0 + j` at columns `col0 + j`.
///
/// Every destination element receives its contributions in
/// [`col2im_into`](crate::col2im_into)'s `(oy, ox, ky, kx)` order: output
/// rows ascend with the position index, and inside one output row an
/// element's contributions come from `ox` ascending — which is `kx`
/// *descending*, the order of the passes below. One pass adds a whole run
/// of positions for a fixed `(kx, c, ky)`: distinct destinations, so the
/// adds neither wait on each other nor test a bound.
#[allow(clippy::too_many_arguments)]
fn scatter_strips(
    dcols_t: &[f32],
    ld: usize,
    col0: usize,
    g: &Conv2dGeometry,
    at: &Placement,
    chans: std::ops::Range<usize>,
    t0: usize,
    t1: usize,
    img: &mut [f32],
) {
    let ow = g.out_w();
    debug_assert!(t1 <= g.patch_count() && col0 + (t1 - t0) <= ld && chans.end <= g.in_c);
    let plane = at.full_h * at.full_w;
    let (pad_t, pad_l) = (g.pad.h_begin as usize, g.pad.w_begin as usize);
    let mut t = t0;
    while t < t1 {
        let (oy, ox_a) = (t / ow, t % ow);
        let ox_b = (ox_a + (t1 - t)).min(ow);
        for kx in (0..g.kw).rev() {
            // Positions of the segment whose tap `kx` lands inside the
            // input: `0 <= ox·sw + kx - pad_l < in_w`.
            let lo = pad_l.saturating_sub(kx).div_ceil(g.sw).max(ox_a);
            let hi = match (g.in_w + pad_l).checked_sub(kx + 1) {
                Some(room) => (room / g.sw + 1).min(ox_b),
                None => 0,
            };
            if lo >= hi {
                continue;
            }
            let (ix, n) = (lo * g.sw + kx - pad_l, hi - lo);
            for c in chans.clone() {
                for ky in 0..g.kh {
                    let Some(iy) = (oy * g.sh + ky).checked_sub(pad_t).filter(|&iy| iy < g.in_h)
                    else {
                        continue;
                    };
                    let q = ((c - chans.start) * g.kh + ky) * g.kw + kx;
                    let src = &dcols_t[q * ld + col0 + (t - t0) + (lo - ox_a)..][..n];
                    let dst = &mut img[c * plane + (iy + at.off_h) * at.full_w + at.off_w + ix..];
                    if g.sw == 1 {
                        for (d, &v) in dst[..n].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        for (d, &v) in dst.iter_mut().step_by(g.sw).zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
        t += ox_b - ox_a;
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

/// The whole-plane entry points take an `x` that *is* the geometry's input;
/// only the `_at` forms may address a window inside larger planes.
fn check_exact_input(x: &Tensor, g: &Conv2dGeometry) {
    assert_eq!(x.rank(), 4, "conv input must be NCHW");
    assert_eq!(
        (x.dim(1), x.dim(2), x.dim(3)),
        (g.in_c, g.in_h, g.in_w),
        "input {} does not match geometry {g:?}",
        x.shape()
    );
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
    check_exact_input(x, g);
    conv2d_fwd_tiled_at(x, 0, 0, w, bias, g, out);
}

/// [`conv2d_fwd_tiled`] reading the geometry's `in_h × in_w` window in
/// place at `(off_h, off_w)` of `x: [n, ic, full_h, full_w]` — the
/// crop-offset contract of [`conv2d_dx_tiled`], so a layer with negative
/// padding never copies its cropped input.
///
/// Tasks and tiles run over the flattened `n·oh·ow` position index, so a
/// 4- or 8-wide output map fills a panel as well as a 32-wide one. Each
/// tile is strip-packed once ([`pack_strips`]), multiplied against the
/// whole weight matrix by one [`dot_panel`] into a channel-major
/// `[oc, tile]` staging block, and copied out as contiguous per-channel
/// runs of its NCHW rows.
///
/// # Panics
///
/// Panics if shapes disagree or the offset window hangs outside `x`.
pub fn conv2d_fwd_tiled_at(
    x: &Tensor,
    off_h: usize,
    off_w: usize,
    w: &Tensor,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let x = &Window::new(x, g, off_h, off_w);
    let n = x.n;
    let oc = check_weight(w, g);
    let plen = g.patch_len();
    let hw = g.patch_count();
    assert_eq!(out.len(), n * oc * hw, "conv2d_fwd_tiled out length");
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv bias length");
    }
    let wv = w.as_slice();
    let total = n * hw;
    let chunk = fwd_task_positions(total);
    let tile = tile_rows(plen, chunk.min(FWD_TILE_ROWS));
    let sink = DisjointMut::new(out);
    scnn_par::parallel_for(total.div_ceil(chunk), |task| {
        let p1 = ((task + 1) * chunk).min(total);
        scratch::with_scratch(tile * (plen + oc), |buf| {
            let (panel, ytile) = buf.split_at_mut(tile * plen);
            for t0 in (task * chunk..p1).step_by(tile) {
                let tw = tile.min(p1 - t0);
                let panel = &mut panel[..tw * plen];
                pack_strips(x, g, t0, t0 + tw, panel);
                dot_panel(tw, oc, plen, panel, plen, wv, plen, bias, &mut ytile[..oc * tw], 1, tw);
                // The tile's positions are contiguous inside each image's
                // channel rows; tasks partition the positions, so the
                // ranges handed out below never overlap.
                for (b, rem, q, seg) in image_runs(t0, t0 + tw, hw) {
                    for c in 0..oc {
                        let base = (b * oc + c) * hw + rem;
                        let row = unsafe { sink.range(base, base + seg) };
                        row.copy_from_slice(&ytile[c * tw + (q - t0)..][..seg]);
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
    conv2d_dw_tiled_acc(x, dy, g, 0, x.dim(0), dw, true);
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
    check_exact_input(x, g);
    conv2d_dw_tiled_acc_at(x, 0, 0, dy, g, b0, bn, dw, init);
}

/// [`conv2d_dw_tiled_acc`] reading the geometry's window in place at
/// `(off_h, off_w)` of `x: [n, ic, full_h, full_w]` (see
/// [`conv2d_fwd_tiled_at`]).
///
/// # Panics
///
/// Panics if shapes disagree, the range exceeds the batch, or the offset
/// window hangs outside `x`.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_dw_tiled_acc_at(
    x: &Tensor,
    off_h: usize,
    off_w: usize,
    dy: &Tensor,
    g: &Conv2dGeometry,
    b0: usize,
    bn: usize,
    dw: &mut [f32],
    init: bool,
) {
    let x = &Window::new(x, g, off_h, off_w);
    let n = x.n;
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
    let dyv = dy.as_slice();
    let hw = oh * ow;
    let base = b0 * hw;
    let k = bn * hw;
    let st = tile_rows(plen, REDUCTION_KC);
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
        fold_patch_rows(x, dyv, g, oc, st, base, base + k, dw, row_grain);
        return;
    }
    let nblocks = k.div_ceil(REDUCTION_KC).max(1);
    scratch::with_scratch(nblocks * oc * plen, |partials| {
        let slots = DisjointMut::new(partials);
        scnn_par::parallel_for(nblocks, |bi| {
            // Safety: partial slot `bi` is written only by task `bi`.
            let part = unsafe { slots.range(bi * oc * plen, (bi + 1) * oc * plen) };
            let p0 = base + bi * REDUCTION_KC;
            let p1 = (p0 + REDUCTION_KC).min(base + k);
            fold_patch_rows(x, dyv, g, oc, st, p0, p1, part, oc);
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
/// `acc` (`[oc·plen]`), strip-packing `st`-row panels ([`pack_strips`]): the
/// strictly `p`-ascending add order shared by the blocked partials and the
/// single-block direct path — panel boundaries affect only packing, never
/// the fold sequence.
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
    x: &Window,
    dyv: &[f32],
    g: &Conv2dGeometry,
    oc: usize,
    st: usize,
    p0: usize,
    p1: usize,
    acc: &mut [f32],
    row_grain: usize,
) {
    let hw = g.patch_count();
    let plen = g.patch_len();
    scratch::with_scratch(st * plen, |colpanel| {
        for q0 in (p0..p1).step_by(st) {
            let q1 = (q0 + st).min(p1);
            pack_strips(x, g, q0, q1, &mut colpanel[..(q1 - q0) * plen]);
            let colpanel = &*colpanel;
            scnn_par::par_chunks_mut(acc, row_grain * plen, |ci, rows| {
                let c0 = ci * row_grain;
                for (b, rem, q, seg) in image_runs(q0, q1, hw) {
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
/// into a zeroed, *transposed* `[rows, positions]` scratch tile — one
/// [`gemm_acc`] whose left operand is the weight matrix read down its
/// columns and whose rows are `dy`, one channel's run of positions each —
/// then [`scatter_strips`] adds the tile's rows onto the input planes in
/// `(oy, ox, ky, kx)` order per destination element.
///
/// A task is one batch image, or several when a whole image fits a tile
/// in fewer than [`DX_MIN_COLS`] positions ([`dx_task_images`]): their
/// `dy` runs are then packed side by side, so one reduction covers every
/// image of the task and the weight matrix streams once per task instead
/// of once per image. A tile wider than [`DX_TILE_BYTES`] holds is cut
/// into slices of whole input channels; a channel's taps are all in one
/// slice, so every destination element still sees its contributions in
/// the same order. Tasks write disjoint images, so that order holds at
/// every thread count.
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
    let (at, dst_n) = Placement::of(dst, g, off_h, off_w, "dx destination");
    assert_eq!(dst_n, n, "dx destination batch mismatch");
    let plen = g.patch_len();
    let dyv = dy.as_slice();
    let wv = w.as_slice();
    let img_len = g.in_c * at.full_h * at.full_w;
    let hw = oh * ow;
    let tile = dx_tile_cols(plen, hw);
    let imgs = dx_task_images(tile, hw, n);
    let taps = g.kh * g.kw;
    // Input channels per reduction: whole channels, as many as the tile
    // budget holds at the task's full column count.
    let slice = (DX_TILE_BYTES / 4 / (imgs * tile) / taps.max(1)).clamp(1, g.in_c.max(1));
    let packed = if imgs > 1 { oc * imgs * tile } else { 0 };
    scnn_par::par_chunks_mut(dst.as_mut_slice(), imgs * img_len, |task, group| {
        let (b0, gn) = (task * imgs, group.len() / img_len);
        scratch::with_scratch(slice * taps * gn * tile + packed, |buf| {
            let (dcols_t, dyg) = buf.split_at_mut(slice * taps * gn * tile);
            for t0 in (0..hw).step_by(tile) {
                let t1 = (t0 + tile).min(hw);
                let (tw, cols) = (t1 - t0, gn * (t1 - t0));
                // The tile's `dy` rows: read in place for one image (one
                // channel's positions are contiguous), packed image by
                // image for several.
                let (rhs, ldb) = if gn == 1 {
                    (&dyv[b0 * oc * hw + t0..], hw)
                } else {
                    for (p, row) in dyg[..oc * cols].chunks_exact_mut(cols).enumerate() {
                        for (bb, run) in row.chunks_exact_mut(tw).enumerate() {
                            run.copy_from_slice(&dyv[((b0 + bb) * oc + p) * hw + t0..][..tw]);
                        }
                    }
                    (&dyg[..oc * cols], cols)
                };
                for c0 in (0..g.in_c).step_by(slice) {
                    let c1 = (c0 + slice).min(g.in_c);
                    let rows = (c1 - c0) * taps;
                    let dcols_t = &mut dcols_t[..rows * cols];
                    dcols_t.fill(0.0);
                    gemm_acc(
                        rows,
                        cols,
                        oc,
                        &wv[c0 * taps..],
                        1,
                        plen,
                        rhs,
                        ldb,
                        dcols_t,
                        cols,
                    );
                    for (bb, img) in group.chunks_exact_mut(img_len).enumerate() {
                        scatter_strips(dcols_t, cols, bb * tw, g, &at, c0..c1, t0, t1, img);
                    }
                }
            }
        });
    });
}

/// Planned workspace bytes for one tiled conv layer (forward + backward):
/// the thread-count-*independent* scratch footprint, i.e. the flat `dw`
/// partial buffer (`⌈n·oh·ow / KC⌉ · oc · plen` floats, `KC` =
/// [`REDUCTION_KC`] — the same constant the kernels block on, so the
/// planner's model can never drift from the executed grid). Per-thread
/// pack panels (bounded by [`PACK_PANEL_BYTES`] each) and the `dx`
/// gradient tile ([`DX_TILE_BYTES`] or one channel's 16-position strip,
/// plus the packed `dy` of a several-image task) scale with the host's
/// thread count, so the planner
/// leaves them out of the per-layer term — this is the number `scnn-hmms`
/// carries per conv node in its layouts.
pub fn conv2d_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    let k = n * g.patch_count();
    k.div_ceil(REDUCTION_KC).max(1) * oc * g.patch_len() * 4
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

    /// Geometries for the strip tests: every kernel-width specialisation
    /// (1 and 3 const, 2/5/7 runtime), strides 1 and 2 (and a stride wider
    /// than the kernel), asymmetric padding, padding wider than the kernel
    /// (whole positions in the border), and a narrow map whose tiles span
    /// several output rows. `(ic, h, w, kh, kw, sh, sw, pad)`.
    #[allow(clippy::type_complexity)] // a literal table, not an API
    const STRIP_GEOMETRIES: &[(usize, usize, usize, usize, usize, usize, usize, (i64, i64, i64, i64))] = &[
        (3, 5, 6, 3, 2, 2, 1, (1, 0, 2, 1)),
        (2, 6, 7, 1, 1, 1, 1, (0, 0, 0, 0)),
        (2, 7, 6, 1, 1, 2, 2, (0, 1, 1, 0)),
        (2, 6, 8, 3, 3, 1, 1, (1, 1, 1, 1)),
        (2, 7, 9, 3, 3, 2, 2, (0, 1, 2, 0)),
        (1, 6, 9, 2, 5, 1, 2, (1, 0, 3, 2)),
        (1, 5, 8, 3, 7, 1, 1, (0, 2, 4, 5)),
        (2, 9, 3, 3, 3, 1, 1, (1, 1, 1, 1)),
        (1, 4, 9, 1, 2, 1, 3, (0, 0, 0, 1)),
    ];

    /// The geometry plus a stored input whose planes are larger than the
    /// window by `(off_h + 1, off_w + 2)` — the crop remainder of a
    /// negative padding — and the cropped copy the reference kernels take.
    fn placed(case: usize, n: usize, off_h: usize, off_w: usize) -> (Conv2dGeometry, Tensor, Tensor) {
        let (ic, h, w, kh, kw, sh, sw, (pt, pb, pl, pr)) = STRIP_GEOMETRIES[case];
        let g = Conv2dGeometry::new(ic, h, w, kh, kw, sh, sw, Padding2d::new(pt, pb, pl, pr));
        let full = fill(&[n, ic, h + off_h + 1, w + off_w + 2], 9 + case as u32);
        let crop = Padding2d::new(-(off_h as i64), -1, -(off_w as i64), -2);
        let cropped = full.pad2d(crop);
        (g, full, cropped)
    }

    #[test]
    fn pack_strips_matches_im2col_rows_for_every_tile_cut() {
        for case in 0..STRIP_GEOMETRIES.len() {
            for (off_h, off_w) in [(0, 0), (2, 1)] {
                let (g, full, cropped) = placed(case, 2, off_h, off_w);
                let cols = im2col(&cropped, &g);
                let total = 2 * g.patch_count();
                let plen = g.patch_len();
                let win = Window::new(&full, &g, off_h, off_w);
                // Every [t0, t1): tiles that start and end mid-row and
                // straddle the image boundary.
                for t0 in 0..total {
                    for t1 in t0 + 1..=total {
                        let mut panel = vec![9.9f32; (t1 - t0) * plen]; // stale: pack must overwrite all
                        pack_strips(&win, &g, t0, t1, &mut panel);
                        assert_eq!(
                            &cols.as_slice()[t0 * plen..t1 * plen],
                            &panel[..],
                            "case {case} offset ({off_h}, {off_w}) tile [{t0}, {t1})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_strips_matches_col2im_into_for_every_tile_width() {
        for case in 0..STRIP_GEOMETRIES.len() {
            for (off_h, off_w) in [(0, 0), (2, 1)] {
                let (g, full, _) = placed(case, 1, off_h, off_w);
                let (hw, plen) = (g.patch_count(), g.patch_len());
                let dcols = fill(&[hw, plen], 77 + case as u32);
                let mut want = Tensor::zeros(full.shape().dims());
                crate::col2im_into(&dcols, 1, &g, &mut want, off_h, off_w);
                let (at, _) = Placement::of(&full, &g, off_h, off_w, "test");
                // Every tile width: tile edges land mid-row, so an input
                // element collects its taps from two scatter calls.
                for tile in 1..=hw {
                    let mut got = Tensor::zeros(full.shape().dims());
                    for t0 in (0..hw).step_by(tile) {
                        let t1 = (t0 + tile).min(hw);
                        let tw = t1 - t0;
                        let mut dcols_t = vec![0.0f32; plen * tw];
                        for (j, row) in dcols.as_slice()[t0 * plen..t1 * plen].chunks(plen).enumerate() {
                            for (q, &v) in row.iter().enumerate() {
                                dcols_t[q * tw + j] = v;
                            }
                        }
                        scatter_strips(
                            &dcols_t,
                            tw,
                            0,
                            &g,
                            &at,
                            0..g.in_c,
                            t0,
                            t1,
                            got.as_mut_slice(),
                        );
                    }
                    let same = got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "case {case} offset ({off_h}, {off_w}) tile width {tile}");
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
    #[should_panic(expected = "does not match geometry")]
    fn whole_plane_entry_rejects_an_oversize_input() {
        // Only the `_at` forms may read a window out of larger planes.
        let g = Conv2dGeometry::new(2, 7, 9, 3, 3, 1, 1, Padding2d::symmetric(1));
        let x = fill(&[1, 2, 8, 9], 3);
        let w = fill(&[5, 2, 3, 3], 4);
        let mut out = vec![0.0f32; 5 * g.patch_count()];
        conv2d_fwd_tiled(&x, &w, None, &g, &mut out);
    }

    #[test]
    fn workspace_bytes_counts_dw_partials() {
        let g = Conv2dGeometry::new(16, 32, 32, 3, 3, 1, 1, Padding2d::symmetric(1));
        // k = 8·32·32 = 8192 → 32 KC-blocks of [oc=32, plen=144] partials.
        assert_eq!(conv2d_workspace_bytes(&g, 8, 32), 32 * 32 * 144 * 4);
    }
}
