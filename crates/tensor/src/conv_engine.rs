//! Tile-fused implicit-GEMM convolution kernels (DESIGN.md §11).
//!
//! The materialized path lowers convolution to `im2col` + GEMM, which
//! allocates the full patch matrix `[n·oh·ow, ic·kh·kw]` on every call —
//! the largest transient buffer in a training step and invisible to the
//! HMMS planner. The kernels here never build that matrix: they read
//! their operands where they lie, or stage one small tile at a time in
//! per-thread scratch (`scnn_par::scratch`), run the same micro-kernels
//! the GEMMs use (`dot_panel`, `gemm_acc` and its gathered form
//! `gather_acc`), and write results straight to their destination. What
//! moves the data, per direction:
//!
//! - forward and `dx` at the AVX-512 level, for a stride-1 conv whose
//!   output plane equals its input plane: nothing is packed
//!   ([`position`]). A register holds sixteen consecutive positions; with
//!   the planes equal, their operands for one shared-dimension element are
//!   sixteen consecutive input (forward) or `dy` (`dx`, the forward of the
//!   flipped kernel) elements, loaded in place under a mask that is the
//!   padding.
//! - every other forward *strip-packs* patch rows ([`pack_strips`]):
//!   tiles run over the flattened `n·oh·ow` position index (a 4-wide map
//!   fills a panel as well as a 32-wide one), and for each run of
//!   positions inside one output row a `(c, ky)` pass copies the run's
//!   kernel rows with the kernel width a compile-time constant — no
//!   per-position `memcpy`, no per-tap bounds test away from the border.
//! - every other `dx` computes a tile's patch-row gradients *transposed*
//!   (`[plen, positions]`, the weight matrix as `gemm_acc`'s strided left
//!   operand, `dy` read in place as its rows), so the `col2im` scatter adds
//!   whole runs of positions with unit stride on both sides
//!   ([`scatter_strips`]).
//! - `dw`, at every level, packs nothing ([`dw_blocks`]): output channels run
//!   across the lanes, a block's `dy` is turned to `[p, o]` once, and each
//!   patch element is one broadcast load from the input (or from a
//!   zero-bordered copy of the block's rows when the layer pads).
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
//!   The position path runs that order with positions, not `k`, across
//!   the register: each of an output's eight lanes is a register of its
//!   own, one residue class of `k` after the other.
//! - `dw`: partial sums are blocked on the same `KC` boundaries as
//!   [`matmul_at_b`](crate::matmul_at_b), accumulate with `p` ascending
//!   inside each block (one fused step per position, whichever output
//!   channels share a register), and fold in ascending block order.
//! - `dx`: each patch-row gradient reduces over output channels in
//!   ascending order exactly as [`matmul`](crate::matmul) does (one
//!   `gemm_acc` per tile of positions, or one register chain per tap on
//!   the position path; either swaps the factors of each product, not
//!   their order), then adds in [`col2im_into`](crate::col2im_into)'s
//!   `(oy, ox, ky, kx)` order per destination element — `ky` descending,
//!   then `kx` descending, for a stride-1 conv. The strip path is
//!   parallel per batch image only (`oy` windows overlap inside an
//!   image); the position path owns each destination strip in one task.
//!
//! The weight tensor `[oc, ic, kh, kw]` is row-major contiguous, so its
//! natural layout *is* the `[oc, plen]` panel the micro-kernels want —
//! "packing" the B side is the identity, which is why there is no weight
//! pack cache to invalidate on update.

use crate::im2col::Conv2dGeometry;
use crate::linalg::REDUCTION_KC;
use crate::simd::{add_assign, dot_panel, gather_acc, gemm_acc, transpose, PANEL_ROWS};
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

/// Per-thread byte budget of a pack panel: the strip-packed forward's
/// patch-row tile, and the Winograd path's transform staging.
pub(crate) const PACK_PANEL_BYTES: usize = 256 * 1024;

/// Patch-row tile width under [`PACK_PANEL_BYTES`], at least 1, at most
/// `cap`. The tile width only partitions independent output positions,
/// never a fold order.
fn tile_rows(plen: usize, cap: usize) -> usize {
    (PACK_PANEL_BYTES / 4 / plen.max(1)).clamp(1, cap.max(1))
}

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
/// At the AVX-512 level a stride-1 conv whose output plane equals its
/// input plane, read from planes that are its window, runs the
/// position-vectorized path ([`position`]), which packs nothing. Every
/// other call strip-packs: tasks and tiles run over the flattened `n·oh·ow`
/// position index, so a 4- or 8-wide output map fills a panel as well as
/// a 32-wide one. Each tile is strip-packed once ([`pack_strips`]),
/// multiplied against the whole weight matrix by one [`dot_panel`] into a
/// channel-major `[oc, tile]` staging block, and copied out as contiguous
/// per-channel runs of its NCHW rows. Both give the same bits.
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
    let oc = check_weight(w, g);
    assert_eq!(out.len(), x.n * oc * g.patch_count(), "conv2d_fwd_tiled out length");
    if let Some(b) = bias {
        assert_eq!(b.len(), oc, "conv bias length");
    }
    #[cfg(target_arch = "x86_64")]
    if position::applies(g, &x.at) {
        position::forward(x, w.as_slice(), oc, bias, g, out);
        return;
    }
    fwd_strips(x, w.as_slice(), oc, bias, g, out);
}

/// The strip-packed forward of [`conv2d_fwd_tiled_at`]: every level, every
/// geometry. `out` and `bias` are checked against `oc` by the caller.
fn fwd_strips(
    x: &Window,
    wv: &[f32],
    oc: usize,
    bias: Option<&[f32]>,
    g: &Conv2dGeometry,
    out: &mut [f32],
) {
    let (plen, hw) = (g.patch_len(), g.patch_count());
    let total = x.n * hw;
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
                        // SAFETY: see above.
                        let row = unsafe { sink.range(base, base + seg) };
                        row.copy_from_slice(&ytile[c * tw + (q - t0)..][..seg]);
                    }
                }
            }
        });
    });
}

/// The position-vectorized forward of [`conv2d_fwd_tiled_at`] (DESIGN.md
/// §11, §14): the AVX-512 level's path for a stride-1 conv whose output
/// plane equals its input plane, read from planes that are exactly the
/// window.
///
/// A register holds sixteen consecutive flattened output positions (a
/// *strip*) of one output channel. With the output plane equal to the
/// input plane, position `q` of an image reads its tap `(ky, kx)` of
/// channel `c` at input element `c·hw + q + (ky - pad_t)·w + (kx - pad_l)`
/// of the same image, so a strip's operand for one `k` is sixteen
/// consecutive input elements: one load straight from the input, with the
/// lanes whose tap falls in the padding — or wraps into the next row, or
/// lies past the batch — masked off and read as 0.0, the value the pack
/// would have stored. A strip that straddles two images loads each
/// image's lanes under its own mask. Nothing is packed.
///
/// Each output element keeps [`dot_panel`]'s chain exactly: lane `l` of
/// its eight accumulates `k ≡ l (mod 8)` by one `_mm512_fmadd_ps` per
/// element in ascending `k` (here each of those eight is a register of
/// sixteen positions, run one residue class after the other), then the
/// `k mod 8` tail folds sequentially from +0.0, then `simd::lane_sum`'s
/// tree pairs the eight, then the tail adds, then the bias. The shared
/// dimension is cut into `KB`-float blocks with the accumulators carried
/// between them, which changes no chain.
///
/// Tasks are (strip group × 16-channel group), a function of the shapes
/// only; the register tile is 4 channels × 4 strips, 8 × 2 or 16 × 1 by
/// the layer's strip count.
#[cfg(target_arch = "x86_64")]
mod position {
    use super::{Placement, Window};
    use crate::im2col::Conv2dGeometry;
    use crate::Padding2d;
    use crate::simd::{active_level, supports, SimdLevel, LANES};
    use core::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_fmadd_ps, _mm512_loadu_ps, _mm512_mask_add_ps,
        _mm512_mask_loadu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };
    use scnn_par::DisjointMut;
    use std::mem::MaybeUninit;

    /// Output positions per strip: the f32 lanes of one 512-bit register.
    const STRIP: usize = 16;

    /// Output channels per task.
    const CHANNELS: usize = 16;

    /// Most kernel taps (`kh·kw`) the path takes: a 7×7 kernel.
    const MAX_TAPS: usize = 49;

    /// Shared-dimension block, in floats of `k`: a tile's block of weight
    /// rows and the input rows it meets stay in L1 while the eight residue
    /// classes pass over them.
    const KB: usize = 256;

    /// The input gradient's block of output channels: their `dy` rows and
    /// weights stay in L1 while every tap's chains pass over them.
    const OB: usize = 32;

    /// Whether the position path runs this call: the AVX-512 level and a
    /// geometry it takes ([`takes`]).
    pub(super) fn applies(g: &Conv2dGeometry, at: &Placement) -> bool {
        active_level() == SimdLevel::Avx512 && takes(g, at)
    }

    /// Whether the geometry is one the position path computes: stride 1,
    /// output plane equal to the input plane (`pad_t + pad_b = kh - 1`, the
    /// same across), planes that are the window (no crop), at most
    /// [`MAX_TAPS`] taps.
    pub(super) fn takes(g: &Conv2dGeometry, at: &Placement) -> bool {
        g.sh == 1
            && g.sw == 1
            && (g.out_h(), g.out_w()) == (g.in_h, g.in_w)
            && (at.full_h, at.full_w) == (g.in_h, g.in_w)
            && g.kh * g.kw <= MAX_TAPS
    }

    /// What every tile of one call reads besides its strips and weights.
    struct Layer<'a> {
        x: &'a [f32],
        in_c: usize,
        oc: usize,
        hw: usize,
        total: usize,
        k: usize,
        taps: usize,
        /// Per tap `(ky, kx)`, `(ky - pad_t)·w + (kx - pad_l)`.
        tap_off: [isize; MAX_TAPS],
        /// Per tap `t` of element `p`, the tap of element `p + 8` and how
        /// far its operands lie from `p`'s: a residue-class chain walks
        /// the shared dimension by table, with no division.
        next: [usize; MAX_TAPS],
        step: [isize; MAX_TAPS],
    }

    impl<'a> Layer<'a> {
        /// `g`'s layer over `x: [n, g.in_c, h, w]` with `oc` output
        /// channels.
        fn new(x: &'a [f32], g: &Conv2dGeometry, n: usize, oc: usize) -> Self {
            let (hw, taps) = (g.patch_count(), g.kh * g.kw);
            let mut tap_off = [0isize; MAX_TAPS];
            for (t, off) in tap_off[..taps].iter_mut().enumerate() {
                let dy = (t / g.kw) as isize - g.pad.h_begin as isize;
                let dx = (t % g.kw) as isize - g.pad.w_begin as isize;
                *off = dy * g.in_w as isize + dx;
            }
            let (mut next, mut step) = ([0; MAX_TAPS], [0; MAX_TAPS]);
            for t in 0..taps {
                let q = t + LANES;
                next[t] = q % taps;
                step[t] = (q / taps * hw) as isize + tap_off[next[t]] - tap_off[t];
            }
            Layer {
                x,
                in_c: g.in_c,
                oc,
                hw,
                total: n * hw,
                k: g.patch_len(),
                taps,
                tap_off,
                next,
                step,
            }
        }

        /// Where shared-dimension element `p = (c, t)` reads relative to a
        /// lane's position, and its tap `t`.
        fn at(&self, p: usize) -> (isize, usize) {
            let t = p % self.taps;
            ((p / self.taps * self.hw) as isize + self.tap_off[t], t)
        }
    }

    /// Sixteen consecutive flattened output positions `q0 ..` and where
    /// their lanes read and write.
    struct Strip {
        /// Runs of lanes inside one batch image, at most one per lane.
        segs: usize,
        /// Per segment, its lanes.
        lanes: [u16; STRIP],
        /// Per segment, the input element its lane `i` reads at channel
        /// `c`, tap offset `d` is `in_at + c·hw + d + i`.
        in_at: [usize; STRIP],
        /// Per segment, the output element of its lane `i` at channel `c`
        /// is `out_at + c·hw + i`.
        out_at: [usize; STRIP],
        /// Per tap, the lanes (of any segment) whose tap lands inside the
        /// input.
        taps: [u16; MAX_TAPS],
    }

    impl Strip {
        fn new(l: &Layer, g: &Conv2dGeometry, q0: usize) -> Self {
            let mut st = Strip {
                segs: 0,
                lanes: [0; STRIP],
                in_at: [0; STRIP],
                out_at: [0; STRIP],
                taps: [0; MAX_TAPS],
            };
            let (pad_t, pad_l) = (g.pad.h_begin as usize, g.pad.w_begin as usize);
            // Lanes whose row (column) of tap `ky` (`kx`) is inside the
            // input; a tap's mask is the pair's intersection.
            let (mut rows, mut cols) = ([0u16; MAX_TAPS], [0u16; MAX_TAPS]);
            let (mut b, mut rem) = (q0 / l.hw, q0 % l.hw);
            let (mut oy, mut ox) = (rem / g.in_w, rem % g.in_w);
            for i in 0..STRIP.min(l.total.saturating_sub(q0)) {
                if i == 0 || rem == 0 {
                    // `q0 - b·hw` is this image's position of lane 0; the
                    // sum stays non-negative for every `b` a lane reaches.
                    st.in_at[st.segs] = b * (l.in_c - 1) * l.hw + q0;
                    st.out_at[st.segs] = b * (l.oc - 1) * l.hw + q0;
                    st.segs += 1;
                }
                st.lanes[st.segs - 1] |= 1 << i;
                for (ky, m) in rows[..g.kh].iter_mut().enumerate() {
                    if (oy + ky).checked_sub(pad_t).is_some_and(|iy| iy < g.in_h) {
                        *m |= 1 << i;
                    }
                }
                for (kx, m) in cols[..g.kw].iter_mut().enumerate() {
                    if (ox + kx).checked_sub(pad_l).is_some_and(|ix| ix < g.in_w) {
                        *m |= 1 << i;
                    }
                }
                (rem, ox) = (rem + 1, ox + 1);
                if ox == g.in_w {
                    (oy, ox) = (oy + 1, 0);
                }
                if rem == l.hw {
                    (b, rem, oy) = (b + 1, 0, 0);
                }
            }
            for (taps, &row) in st.taps.chunks_exact_mut(g.kw).zip(&rows[..g.kh]) {
                for (tap, &col) in taps.iter_mut().zip(&cols) {
                    *tap = row & col;
                }
            }
            st
        }

        /// The strip's lanes of output channel `c`, each segment from its
        /// own image; lanes past the batch read 0.0.
        ///
        /// # Safety
        ///
        /// AVX-512 F is enabled; no other task writes these positions of
        /// channel `c`.
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
        unsafe fn read(&self, l: &Layer, c: usize, sink: &DisjointMut<f32>) -> __m512 {
            let mut lanes = [0.0f32; STRIP];
            for (&m, &at) in self.lanes[..self.segs].iter().zip(&self.out_at) {
                let (lo, hi) = (m.trailing_zeros() as usize, STRIP - m.leading_zeros() as usize);
                let at = at + c * l.hw;
                // SAFETY: the caller's tasks touch disjoint elements (this
                // strip's positions of channel `c`).
                lanes[lo..hi].copy_from_slice(unsafe { sink.range(at + lo, at + hi) });
            }
            // SAFETY: `lanes` holds sixteen floats.
            unsafe { _mm512_loadu_ps(lanes.as_ptr()) }
        }

        /// Stores `v`'s lanes as the strip's positions of output channel
        /// `c`, each segment into its own image.
        ///
        /// # Safety
        ///
        /// As [`Strip::read`].
        #[inline]
        #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
        unsafe fn write(&self, l: &Layer, c: usize, v: __m512, sink: &DisjointMut<f32>) {
            let mut lanes = [0.0f32; STRIP];
            // SAFETY: `lanes` holds sixteen floats.
            unsafe { _mm512_storeu_ps(lanes.as_mut_ptr(), v) };
            for (&m, &at) in self.lanes[..self.segs].iter().zip(&self.out_at) {
                let (lo, hi) = (m.trailing_zeros() as usize, STRIP - m.leading_zeros() as usize);
                let at = at + c * l.hw;
                // SAFETY: as in `read`.
                let dst = unsafe { sink.range(at + lo, at + hi) };
                dst.copy_from_slice(&lanes[lo..hi]);
            }
        }
    }

    /// Position-vectorized forward; `out` and `bias` are checked against
    /// `oc` by the caller.
    ///
    /// # Panics
    ///
    /// Panics if the host lacks AVX-512 or the geometry is not one the path
    /// takes ([`takes`]).
    pub(super) fn forward(
        x: &Window,
        wv: &[f32],
        oc: usize,
        bias: Option<&[f32]>,
        g: &Conv2dGeometry,
        out: &mut [f32],
    ) {
        assert!(supports(SimdLevel::Avx512), "the position path needs AVX-512");
        assert!(takes(g, &x.at), "the position path does not take {g:?}");
        let l = Layer::new(x.data, g, x.n, oc);
        let sink = DisjointMut::new(out);
        let per_task = strips_per_task(&l);
        scnn_par::parallel_for(tasks(&l, per_task), |task| {
            let (sg, chans) = task_at(&l, task);
            // SAFETY: the host runs AVX-512 F+DQ and AVX2+FMA (asserted
            // above); a task writes only its strips' positions of its
            // channel group, which no other task writes.
            unsafe {
                match per_task {
                    1 => task_body::<16, 1>(&l, g, wv, bias, sg, chans, &sink),
                    2 => task_body::<8, 2>(&l, g, wv, bias, sg, chans, &sink),
                    _ => task_body::<4, 4>(&l, g, wv, bias, sg, chans, &sink),
                }
            }
        });
    }

    /// Strips per task: one for a one-strip layer, two for two or three,
    /// else four.
    fn strips_per_task(l: &Layer) -> usize {
        match l.total.div_ceil(STRIP) {
            1 => 1,
            2 | 3 => 2,
            _ => 4,
        }
    }

    /// Tasks of a call: (strip group × [`CHANNELS`]-channel group).
    fn tasks(l: &Layer, per_task: usize) -> usize {
        l.total.div_ceil(STRIP).div_ceil(per_task) * l.oc.div_ceil(CHANNELS)
    }

    /// Task `task`'s strip group and channels.
    fn task_at(l: &Layer, task: usize) -> (usize, std::ops::Range<usize>) {
        let cgroups = l.oc.div_ceil(CHANNELS);
        let cg = task % cgroups;
        (task / cgroups, cg * CHANNELS..((cg + 1) * CHANNELS).min(l.oc))
    }

    /// The input gradient of a conv the path takes ([`takes`]), added into
    /// `dx: [n, g.in_c, h, w]`: the forward of the flipped kernel over
    /// `dy`, with `col2im`'s order per destination element.
    ///
    /// A register holds sixteen consecutive flattened positions of one
    /// input channel `c` (a strip of `dx`). Destination `q` collects tap
    /// `(ky, kx)` from output position `q - (ky - pad_t)·w - (kx - pad_l)`
    /// of the same image — with the planes equal, sixteen consecutive `dy`
    /// elements, loaded in place under the forward's masks of the flipped
    /// geometry (kernel rotated, padding `(pad_b, pad_t, pad_r, pad_l)`).
    /// Taps go in [`col2im_into`](crate::col2im_into)'s order, `ky`
    /// descending then `kx` descending (the flipped taps ascending); for
    /// each, the register runs the patch-row gradient's chain — `o`
    /// ascending, one `_mm512_fmadd_ps` per output channel, from +0.0 — and
    /// then adds it into `dx` under the tap's mask. That is the strip path's
    /// `gemm_acc` chain and scatter add, element by element, with no
    /// scratch tile, no zero-fill and no scatter.
    ///
    /// # Panics
    ///
    /// Panics if the host lacks AVX-512 or the geometry is not one the path
    /// takes ([`takes`]).
    pub(super) fn backward_dx(
        dyv: &[f32],
        wv: &[f32],
        oc: usize,
        g: &Conv2dGeometry,
        n: usize,
        dx: &mut [f32],
    ) {
        assert!(supports(SimdLevel::Avx512), "the position path needs AVX-512");
        let at = Placement { full_h: g.in_h, full_w: g.in_w, off_h: 0, off_w: 0 };
        assert!(takes(g, &at), "the position path does not take {g:?}");
        let p = g.pad;
        let flipped = Conv2dGeometry::new(
            oc,
            g.in_h,
            g.in_w,
            g.kh,
            g.kw,
            1,
            1,
            Padding2d::new(p.h_end, p.h_begin, p.w_end, p.w_begin),
        );
        let l = Layer::new(dyv, &flipped, n, g.in_c);
        let sink = DisjointMut::new(dx);
        let per_task = strips_per_task(&l);
        scnn_par::parallel_for(tasks(&l, per_task), |task| {
            let (sg, chans) = task_at(&l, task);
            // SAFETY: as in `forward`: AVX-512 F+DQ and AVX2+FMA are
            // present, and a task adds only into its strips' positions of
            // its channel group.
            unsafe {
                match per_task {
                    1 => dx_task::<16, 1>(&l, &flipped, wv, sg, chans, &sink),
                    2 => dx_task::<8, 2>(&l, &flipped, wv, sg, chans, &sink),
                    _ => dx_task::<4, 4>(&l, &flipped, wv, sg, chans, &sink),
                }
            }
        });
    }

    /// One `dx` task: strip group `sg` (`S` strips) of input channels
    /// `chans`, `C` channels per register tile; `l` and `g` are the flipped
    /// layer over `dy`.
    ///
    /// # Safety
    ///
    /// The host runs AVX-512 F+DQ and AVX2+FMA, and no other task touches
    /// these strips' positions of `chans`.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    unsafe fn dx_task<const C: usize, const S: usize>(
        l: &Layer,
        g: &Conv2dGeometry,
        wv: &[f32],
        sg: usize,
        chans: std::ops::Range<usize>,
        sink: &DisjointMut<f32>,
    ) {
        let strips: [Strip; S] = std::array::from_fn(|s| Strip::new(l, g, (sg * S + s) * STRIP));
        let multi = strips.iter().any(|st| st.segs > 1);
        let plen = l.oc * l.taps;
        for c0 in chans.clone().step_by(C) {
            let live = C.min(chans.end - c0);
            // Row `i` of the tile is input channel `c0 + i` (a tile past
            // the group's last channel repeats it and drops the copies);
            // its weight for output channel `o`, tap `t` is at
            // `o·plen + c·taps + t`.
            let rows: [*const f32; C] =
                std::array::from_fn(|i| wv[(c0 + i.min(live - 1)) * l.taps..].as_ptr());
            // Every tap's chains, carried across `OB`-channel blocks of
            // `o` so that a block's `dy` rows and weights stay in L1 while
            // all the taps pass over them. The first block starts each
            // chain (only `taps` of the slots are ever written or read; at
            // most 49 × 16 registers, 49 KiB of stack).
            let mut sums = [const { MaybeUninit::<[[__m512; S]; C]>::uninit() }; MAX_TAPS];
            for o0 in (0..l.in_c).step_by(OB) {
                let os = o0..(o0 + OB).min(l.in_c);
                for (t, sum) in sums[..l.taps].iter_mut().enumerate() {
                    // SAFETY: AVX-512 F+DQ and AVX2+FMA are enabled here;
                    // the weight rows hold `oc` taps `plen` apart; a slot
                    // is read only after the first block wrote it.
                    unsafe {
                        if multi {
                            tap_chains::<C, S, true>(l, &rows, plen, &strips, t, os.clone(), sum)
                        } else {
                            tap_chains::<C, S, false>(l, &rows, plen, &strips, t, os.clone(), sum)
                        }
                    }
                }
            }
            let mut acc: [[__m512; S]; C] = std::array::from_fn(|i| {
                std::array::from_fn(|s| strips[s].read(l, c0 + i.min(live - 1), sink))
            });
            for (t, sum) in sums[..l.taps].iter().enumerate() {
                // SAFETY: the first block wrote every slot below `taps`
                // (`in_c ≥ 1`).
                let sum = unsafe { sum.assume_init_ref() };
                for (a, sum) in acc.iter_mut().zip(sum) {
                    for ((v, &x), st) in a.iter_mut().zip(sum).zip(&strips) {
                        *v = _mm512_mask_add_ps(*v, st.taps[t], *v, x);
                    }
                }
            }
            for (i, a) in acc[..live].iter().enumerate() {
                for (st, &v) in strips.iter().zip(a) {
                    st.write(l, c0 + i, v, sink);
                }
            }
        }
    }

    /// For flipped tap `t`, output channels `os` of each tile element's
    /// patch-row gradient: `o` ascending, `w[o, c, taps - 1 - t] · dy` by
    /// one fused step each, from +0.0 when `os` starts at 0 and from the
    /// chains in `acc` otherwise.
    ///
    /// # Safety
    ///
    /// AVX-512 F+DQ and AVX2+FMA are enabled; each row holds `l.in_c`
    /// weights `plen` apart at offset `l.taps - 1 - t`; `os` lies in
    /// `0..l.in_c`, and `acc` is initialized unless `os` starts at 0.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    unsafe fn tap_chains<const C: usize, const S: usize, const MULTI: bool>(
        l: &Layer,
        rows: &[*const f32; C],
        plen: usize,
        strips: &[Strip; S],
        t: usize,
        os: std::ops::Range<usize>,
        acc: &mut MaybeUninit<[[__m512; S]; C]>,
    ) {
        let mut a = if os.start == 0 {
            [[_mm512_setzero_ps(); S]; C]
        } else {
            // SAFETY: the caller's contract.
            unsafe { acc.assume_init() }
        };
        let tw = l.taps - 1 - t;
        let mut off = l.tap_off[t] + (os.start * l.hw) as isize;
        for o in os {
            // SAFETY: `off` is `l.at(o·taps + t)`'s offset, `o < in_c`.
            let xs = unsafe { operands::<S, MULTI>(l, strips, off, t) };
            for (ai, row) in a.iter_mut().zip(rows) {
                // SAFETY: `o < in_c`, and each row holds its channel's
                // weight for every output channel.
                let w = _mm512_set1_ps(unsafe { *row.add(o * plen + tw) });
                for (v, &x) in ai.iter_mut().zip(&xs) {
                    *v = _mm512_fmadd_ps(w, x, *v);
                }
            }
            off += l.hw as isize;
        }
        acc.write(a);
    }

    /// One task: strip group `sg` (`S` strips) against output channels
    /// `chans`, `C` channels per register tile.
    ///
    /// # Safety
    ///
    /// The host runs AVX-512 F+DQ and AVX2+FMA, and no other task writes
    /// these strips' positions of `chans`.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn task_body<const C: usize, const S: usize>(
        l: &Layer,
        g: &Conv2dGeometry,
        wv: &[f32],
        bias: Option<&[f32]>,
        sg: usize,
        chans: std::ops::Range<usize>,
        sink: &DisjointMut<f32>,
    ) {
        let strips: [Strip; S] = std::array::from_fn(|s| Strip::new(l, g, (sg * S + s) * STRIP));
        let multi = strips.iter().any(|st| st.segs > 1);
        for c0 in chans.clone().step_by(C) {
            // A tile past the group's last channel repeats it and drops
            // the copies.
            let live = C.min(chans.end - c0);
            let rows: [*const f32; C] =
                std::array::from_fn(|i| wv[(c0 + i.min(live - 1)) * l.k..][..l.k].as_ptr());
            // SAFETY: AVX-512 F+DQ and AVX2+FMA are enabled here.
            let sums = unsafe {
                if multi {
                    tile::<C, S, true>(l, &rows, &strips)
                } else {
                    tile::<C, S, false>(l, &rows, &strips)
                }
            };
            for (i, row) in sums[..live].iter().enumerate() {
                let c = c0 + i;
                for (st, &v) in strips.iter().zip(row) {
                    let v = bias.map_or(v, |b| _mm512_add_ps(v, _mm512_set1_ps(b[c])));
                    // SAFETY: the caller's tasks write disjoint elements
                    // (this strip's positions of channel `c`).
                    unsafe { st.write(l, c, v, sink) };
                }
            }
        }
    }

    /// The operands of shared-dimension element `p` for `S` strips, `(off,
    /// t) = l.at(p)`: each strip's sixteen input elements, masked lanes 0.0.
    ///
    /// # Safety
    ///
    /// AVX-512 F is enabled; `(off, t)` is `l.at(p)` of a `p < k`.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    unsafe fn operands<const S: usize, const MULTI: bool>(
        l: &Layer,
        strips: &[Strip; S],
        off: isize,
        t: usize,
    ) -> [__m512; S] {
        let base = l.x.as_ptr();
        std::array::from_fn(|s| {
            let st = &strips[s];
            // SAFETY: `t` is a remainder mod `taps` (`Layer::at`,
            // `Layer::next`), and `forward` checked `taps <= MAX_TAPS`
            // through `takes`.
            let m = unsafe { *st.taps.get_unchecked(t) };
            // SAFETY: only mask-on lanes are accessed (the masked load's
            // semantics: masked-off lanes are neither read nor faulted),
            // and a mask-on lane `i` of a segment is a position of that
            // segment's image whose tap lands inside the input, so its
            // address `in_at + off + i` (`off = c·hw + tap_off`) is that tap's element
            // of this image, inside `l.x`. The lane-0 address may lie
            // outside `l.x`, which is why it is formed with
            // `wrapping_offset`.
            unsafe {
                if !MULTI {
                    let at = base.wrapping_offset(st.in_at[0] as isize + off);
                    return _mm512_maskz_loadu_ps(m, at);
                }
                let mut v = _mm512_setzero_ps();
                for (&lanes, &at) in st.lanes[..st.segs].iter().zip(&st.in_at) {
                    v = _mm512_mask_loadu_ps(v, m & lanes, base.wrapping_offset(at as isize + off));
                }
                v
            }
        })
    }

    /// `C` channels × `S` strips of outputs, before the bias: the eight
    /// residue-class chains block by block, the sequential tail, then the
    /// `simd::lane_sum` tree and the tail add.
    ///
    /// # Safety
    ///
    /// AVX-512 F+DQ and AVX2+FMA are enabled; `rows` are `k` long.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    unsafe fn tile<const C: usize, const S: usize, const MULTI: bool>(
        l: &Layer,
        rows: &[*const f32; C],
        strips: &[Strip; S],
    ) -> [[__m512; S]; C] {
        let k = l.k;
        let k8 = k / LANES * LANES;
        let zero = [[_mm512_setzero_ps(); S]; C];
        let mut acc = [zero; LANES];
        for p0 in (0..k8).step_by(KB) {
            let p1 = (p0 + KB).min(k8);
            for (r, lane) in acc.iter_mut().enumerate() {
                let mut a = *lane;
                let mut p = p0 + r;
                let (mut off, mut t) = l.at(p);
                while p < p1 {
                    // SAFETY: `(off, t)` is `l.at(p)`, `p < k`.
                    let xs = unsafe { operands::<S, MULTI>(l, strips, off, t) };
                    for (ai, row) in a.iter_mut().zip(rows) {
                        // SAFETY: `p < k`, and each row holds `k` floats.
                        let w = _mm512_set1_ps(unsafe { *row.add(p) });
                        for (v, &x) in ai.iter_mut().zip(&xs) {
                            *v = _mm512_fmadd_ps(w, x, *v);
                        }
                    }
                    // SAFETY: as in `operands`, `t < taps <= MAX_TAPS`.
                    (p, off, t) = unsafe {
                        (p + LANES, off + l.step.get_unchecked(t), *l.next.get_unchecked(t))
                    };
                }
                *lane = a;
            }
        }
        let mut tail = zero;
        for p in k8..k {
            let (off, t) = l.at(p);
            // SAFETY: as above.
            let xs = unsafe { operands::<S, MULTI>(l, strips, off, t) };
            for (ti, row) in tail.iter_mut().zip(rows) {
                // SAFETY: as above.
                let w = _mm512_set1_ps(unsafe { *row.add(p) });
                for (v, &x) in ti.iter_mut().zip(&xs) {
                    *v = _mm512_fmadd_ps(w, x, *v);
                }
            }
        }
        std::array::from_fn(|i| {
            std::array::from_fn(|s| {
                let a = |r: usize| acc[r][i][s];
                let (s0, s1) = (_mm512_add_ps(a(0), a(4)), _mm512_add_ps(a(1), a(5)));
                let (s2, s3) = (_mm512_add_ps(a(2), a(6)), _mm512_add_ps(a(3), a(7)));
                let tree = _mm512_add_ps(_mm512_add_ps(s0, s2), _mm512_add_ps(s1, s3));
                _mm512_add_ps(tree, tail[i][s])
            })
        })
    }
}

/// Tiled weight gradient: `dw = dyᵀ · cols` without materializing either
/// the transposed `dy` or the patch matrix.
///
/// Writes `[oc, plen]` into `dw`, overwriting every element. The shared
/// dimension `k = n·oh·ow` is split on the same `KC` boundaries as
/// [`matmul_at_b`](crate::matmul_at_b); each block accumulates its partial
/// with `p` ascending (as the GEMM does) and the flat partial buffer folds
/// in ascending block order — bit-identical to the materialized pipeline
/// at every thread count. Nothing is packed ([`dw_blocks`]).
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
    let (base, k) = (b0 * hw, bn * hw);
    if conv2d_dw_single_block(g, n) {
        // The whole batch is one sequential fold: accumulate straight into
        // `dw` (from +0.0 on `init`), with no partial-block scratch. The
        // add sequence equals what the blocked path runs inside block 0, so
        // full-batch bits are unchanged — and any chunk boundary continues
        // the fold exactly, which is what unlocks micro-batching the deep
        // small-map layers whose `oc·plen` partials would otherwise
        // dominate workspace.
        dw_blocks(x, dyv, oc, g, base, k, k, dw, init);
        return;
    }
    let nblocks = k.div_ceil(REDUCTION_KC).max(1);
    scratch::with_scratch(nblocks * oc * plen, |partials| {
        dw_blocks(x, dyv, oc, g, base, k, REDUCTION_KC, partials, true);
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

/// `dw` tasks per call the grid aims for: the blocks, each cut into
/// output-channel tiles until there are this many.
const DW_TASKS: usize = 4;

/// Fewest output channels a `dw` tile is cut to: two 16-lane registers.
const DW_MIN_OC: usize = 32;

/// Output channels per `dw` task for `nblocks` blocks of a layer with `oc`
/// of them. Shapes only — and, since every element's chain lies inside
/// one task, no bit depends on it. The padded copies of the blocks' input
/// rows are cut the same way, by input-channel groups.
fn dw_tile(nblocks: usize, oc: usize) -> usize {
    let tiles = DW_TASKS.div_ceil(nblocks.max(1)).min(oc.div_ceil(DW_MIN_OC)).max(1);
    oc.div_ceil(tiles)
}

/// The weight-gradient reduction over flattened positions `base ..
/// base + k` in `kc`-position blocks: block `bi` accumulates the `[oc,
/// plen]` partial at `out[bi·oc·plen ..]`, from +0.0 when `fresh` and from
/// its contents otherwise, with output channels across the lanes and
/// nothing packed:
///
/// - each task turns its block's `dy` to `[p, o]` once, so one register
///   loads sixteen output channels' factors of one position;
/// - the patch operand is broadcast straight from `x` ([`gather_acc`]):
///   patch element `(p, (c, ky, kx))` is `src[at[p] + rows[(c, ky, kx)]]`,
///   where `src` is `x` itself for an unpadded layer and otherwise a
///   zero-bordered copy of each block's input rows (per channel, per image
///   run of the block, the rows its output rows read, padding included),
///   made once per call and shared by the block's tasks.
///
/// One task per (block, output-channel tile) ([`dw_tile`]), each over its
/// whole block and every patch column. Each element `(o, j)` is one
/// chain: `p` ascending over the block, one fused step per position,
/// padding taps included (a +0.0 operand).
#[allow(clippy::too_many_arguments)]
fn dw_blocks(
    x: &Window,
    dyv: &[f32],
    oc: usize,
    g: &Conv2dGeometry,
    base: usize,
    k: usize,
    kc: usize,
    out: &mut [f32],
    fresh: bool,
) {
    let (ow, hw, plen) = (g.out_w(), g.patch_count(), g.patch_len());
    let nblocks = k.div_ceil(kc).max(1);
    let block = |bi: usize| base + bi * kc..(base + (bi + 1) * kc).min(base + k);
    let xp = &x.at;
    let plane = xp.full_h * xp.full_w;
    let padded = g.pad.h_begin + g.pad.h_end + g.pad.w_begin + g.pad.w_end != 0;
    // A run of a block (one image's positions) reads the padded rows of
    // its output rows `oy0 ..= oy1`: `(oy1 - oy0)·sh + kh` of them, each
    // `pw` wide — every column some output column's kernel row reads,
    // `pad_l` zeros first.
    let pw = (ow - 1) * g.sw + g.kw;
    let run_rows = |rem: usize, seg: usize| ((rem + seg - 1) / ow - rem / ow) * g.sh + g.kh;
    // Every block's channel holds the same span, so one `rows` table
    // serves them all: the padded rows of the block's runs, or a plane.
    let (chan_len, pitch) = if padded {
        let rows = (0..nblocks)
            .map(|bi| {
                let runs = image_runs(block(bi).start, block(bi).end, hw);
                runs.map(|(_, rem, _, seg)| run_rows(rem, seg)).sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        (rows * pw, pw)
    } else {
        (plane, xp.full_w)
    };
    // Both tables walk their indices in order: no division per entry.
    let mut rows = Vec::with_capacity(plen);
    for c in 0..g.in_c {
        for ky in 0..g.kh {
            rows.extend((0..g.kw).map(|kx| c * chan_len + ky * pitch + kx));
        }
    }
    // Patch origin of every position of the call, block by block.
    let mut at = Vec::with_capacity(k);
    for bi in 0..nblocks {
        let mut run_at = bi * g.in_c * chan_len;
        for (b, rem, _, seg) in image_runs(block(bi).start, block(bi).end, hw) {
            let (oy0, origin) = if padded {
                (rem / ow, run_at)
            } else {
                (0, b * g.in_c * plane + xp.off_h * xp.full_w + xp.off_w)
            };
            let (mut oy, mut ox) = (rem / ow, rem % ow);
            for _ in 0..seg {
                at.push(origin + (oy - oy0) * g.sh * pitch + ox * g.sw);
                ox += 1;
                if ox == ow {
                    (oy, ox) = (oy + 1, 0);
                }
            }
            run_at += run_rows(rem, seg) * pw;
        }
    }
    let ot = dw_tile(nblocks, oc);
    let tiles = oc.div_ceil(ot);
    let out = DisjointMut::new(out);
    let tasks = |src: &[f32]| {
        scnn_par::parallel_for(nblocks * tiles, |task| {
            let (bi, o0) = (task / tiles, task % tiles * ot);
            let (ps, outs) = (block(bi), o0..(o0 + ot).min(oc));
            let at = &at[ps.start - base..ps.end - base];
            let first = (bi * oc + o0) * plen;
            // SAFETY: task (block, tile) owns its tile's rows of its
            // block's partial, which no other task touches.
            let dw = unsafe { out.range(first, first + outs.len() * plen) };
            let (kb, on) = (ps.len(), outs.len());
            scratch::with_scratch(kb * on, |dyt| {
                let mut p = 0;
                for (b, rem, _, seg) in image_runs(ps.start, ps.end, hw) {
                    let src = &dyv[(b * oc + outs.start) * hw + rem..];
                    transpose(on, seg, src, hw, &mut dyt[p * on..], on);
                    p += seg;
                }
                gather_acc(plen, on, kb, src, at, &rows, dyt, on, dw, plen, fresh);
            });
        });
    };
    if !padded {
        tasks(x.data);
        return;
    }
    let (pad_t, pad_l) = (g.pad.h_begin as usize, g.pad.w_begin as usize);
    // Input columns `ix` land at padded column `ix + pad_l`, as far as a
    // padded row reaches.
    let n = g.in_w.min(pw.saturating_sub(pad_l));
    let groups = DW_TASKS.div_ceil(nblocks).min(g.in_c);
    let per_group = g.in_c.div_ceil(groups);
    scratch::with_scratch(nblocks * g.in_c * chan_len, |xs| {
        let rows_of = DisjointMut::new(xs);
        scnn_par::parallel_for(nblocks * groups, |task| {
            let (bi, c0) = (task / groups, task % groups * per_group);
            for c in c0..(c0 + per_group).min(g.in_c) {
                let at = (bi * g.in_c + c) * chan_len;
                // SAFETY: task (block, channel group) fills its channels'
                // spans of its block, which no other task touches.
                let dst = unsafe { rows_of.range(at, at + chan_len) };
                let mut r0 = 0;
                for (b, rem, _, seg) in image_runs(block(bi).start, block(bi).end, hw) {
                    let src = &x.data[(b * g.in_c + c) * plane..][..plane];
                    for r in 0..run_rows(rem, seg) {
                        let iy = (rem / ow * g.sh + r).checked_sub(pad_t).filter(|&iy| iy < g.in_h);
                        if let Some(iy) = iy {
                            let row = &src[(iy + xp.off_h) * xp.full_w + xp.off_w..][..n];
                            dst[(r0 + r) * pw + pad_l..][..n].copy_from_slice(row);
                        }
                    }
                    r0 += run_rows(rem, seg);
                }
            }
        });
        tasks(xs);
    });
}

/// Tiled input gradient: fuses `matmul(dy_mat, w2)` with the `col2im`
/// scatter so the `dcols` matrix never exists.
///
/// Accumulates into `dst: [n, ic, full_h, full_w]` (zeroed by the caller),
/// with the geometry's `in_h × in_w` window placed at `(off_h, off_w)` —
/// the crop-offset contract of [`col2im_into`](crate::col2im_into).
///
/// At the AVX-512 level a conv the forward position path takes, into
/// planes that are its window, runs [`position`]'s `backward_dx`: the
/// forward of the flipped kernel over `dy` read in place, each
/// destination element's taps added in `col2im`'s order, with no scratch
/// tile and no scatter. Every other call strip-scatters: for each tile of
/// output positions the patch-row gradients reduce over
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
    #[cfg(target_arch = "x86_64")]
    if position::applies(g, &at) {
        position::backward_dx(dy.as_slice(), w.as_slice(), oc, g, n, dst.as_mut_slice());
        return;
    }
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
/// pack panels (bounded by [`PACK_PANEL_BYTES`] each), a `dw` task's
/// turned `dy` block and zero-bordered input rows, and the strip path's
/// `dx` gradient tile ([`DX_TILE_BYTES`] or one channel's 16-position
/// strip, plus the packed `dy` of a several-image task) scale with the
/// host's thread count, so the planner
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

    /// `len` values in `[-0.5, 0.5)` with about one in eight replaced by
    /// +0.0, -0.0 or a subnormal of either sign.
    fn awkward(rng: &mut scnn_rng::SplitRng, len: usize) -> Vec<f32> {
        use scnn_rng::Rng;
        (0..len)
            .map(|_| match rng.gen_range(0..32u32) {
                0 => 0.0,
                1 => -0.0,
                2 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                3 => -f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
                _ => rng.gen_range(-0.5f32..0.5),
            })
            .collect()
    }

    /// The position path is the strip path's chain per output element, so
    /// their outputs are bitwise equal on every geometry the path takes:
    /// every `k mod 8` (`in_c` 1–40), 1×1, 3×3 and 5×5 taps with any split
    /// of the padding, maps 1–33 wide so strips straddle rows and images,
    /// one to nine images, channel counts off every register tile, with and
    /// without bias, signed zeros and subnormals among the operands — at 1
    /// and 4 threads.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn position_path_is_bitwise_equal_to_the_strip_path() {
        use scnn_rng::prop::{check, Case};
        use scnn_rng::{prop_assert, Rng};
        if !crate::simd::supports(crate::SimdLevel::Avx512) {
            eprintln!("position path test skipped: the host has no AVX-512");
            return;
        }
        check("position path bits == strip path bits", 64, |rng| {
            let k = [1, 3, 5][rng.gen_range(0..3usize)];
            let (h, w) = (rng.gen_range(1..=12usize), rng.gen_range(1..=33usize));
            let (pt, pl) = (rng.gen_range(0..k), rng.gen_range(0..k));
            let (mut n, mut ic) = (rng.gen_range(1..=9usize), rng.gen_range(1..=40usize));
            let oc = rng.gen_range(1..=37usize);
            // Bounded work per case (the suite also runs unoptimized).
            while n * h * w * oc * ic * k * k > 1 << 21 {
                (n, ic) = if n > 1 { (n - 1, ic) } else { (n, ic.div_ceil(2)) };
            }
            let (pt, pl, pb, pr) = (pt as i64, pl as i64, (k - 1 - pt) as i64, (k - 1 - pl) as i64);
            let pad = Padding2d::new(pt, pb, pl, pr);
            let g = Conv2dGeometry::new(ic, h, w, k, k, 1, 1, pad);
            let x = Tensor::from_vec(awkward(rng, n * ic * h * w), &[n, ic, h, w]);
            let wt = awkward(rng, oc * g.patch_len());
            let bias = rng.gen::<bool>().then(|| awkward(rng, oc));
            let win = Window::new(&x, &g, 0, 0);
            prop_assert!(position::takes(&g, &win.at), "{g:?}");
            let len = n * oc * h * w;
            let mut want = vec![f32::NAN; len];
            scnn_par::with_threads(1, || fwd_strips(&win, &wt, oc, bias.as_deref(), &g, &mut want));
            for threads in [1, 4] {
                let mut got = vec![f32::NAN; len];
                scnn_par::with_threads(threads, || {
                    position::forward(&win, &wt, oc, bias.as_deref(), &g, &mut got)
                });
                let bad = got.iter().zip(&want).position(|(a, b)| a.to_bits() != b.to_bits());
                prop_assert!(
                    bad.is_none(),
                    "{g:?} n={n} oc={oc} bias={} threads={threads}: element {bad:?} {:?} vs {:?}",
                    bias.is_some(),
                    bad.map(|i| got[i]),
                    bad.map(|i| want[i])
                );
            }
            Case::Pass
        });
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
