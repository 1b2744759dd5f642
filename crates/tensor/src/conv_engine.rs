//! Tile-fused implicit-GEMM convolution kernels (DESIGN.md §11).
//!
//! The materialized path lowers convolution to `im2col` + GEMM, which
//! allocates the full patch matrix `[n·oh·ow, ic·kh·kw]` on every call —
//! the largest transient buffer in a training step and invisible to the
//! HMMS planner. The kernels here never build that matrix: they read
//! their operands where they lie and write results straight to their
//! destination, with the GEMMs' chains (`dot_panel`'s eight residue
//! classes, `gemm_acc`'s and its gathered form `gather_acc`'s fused
//! steps). What moves the data, per direction:
//!
//! - forward and `dx`, at every level, stride, crop and kernel size up to
//!   11×11: nothing is packed ([`position`]). A register holds `L::N`
//!   consecutive grid positions (a *strip*), and their operands for one
//!   shared-dimension element are consecutive source elements, loaded in
//!   place under a lane mask that is the padding. A strip is cut into
//!   segments — one per batch image, or one per grid row where the
//!   source's or destination's rows are not the grid's width (a crop, a
//!   plane of another width) — each loaded under its own mask. A strided
//!   forward first copies its window once into the `s × s` phase planes
//!   its taps read (the size of the input, in `scnn_par::scratch`); a
//!   strided `dx` runs one grid per phase of its destination.
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
//!   register chain per tap, which swaps the factors of each product, not
//!   their order), then adds in [`col2im_into`](crate::col2im_into)'s
//!   `(oy, ox, ky, kx)` order per destination element — `ky` descending,
//!   then `kx` descending, over the taps that reach it. Each destination
//!   strip is owned by one task.
//!
//! The weight tensor `[oc, ic, kh, kw]` is row-major contiguous, so its
//! natural layout *is* the `[oc, plen]` matrix the chains read — "packing"
//! the weights is the identity, which is why there is no weight pack
//! cache to invalidate on update.

use crate::im2col::Conv2dGeometry;
use crate::linalg::REDUCTION_KC;
use crate::simd::{add_assign, gather_acc, transpose};
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

/// A conv input as the kernels read it: the tensor's elements and where the
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
/// and at every SIMD level: each element is one independent `dot8` + one
/// add.
///
/// # Panics
///
/// Panics if shapes disagree with the geometry or the kernel is larger
/// than 11×11.
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
/// Runs the position-vectorized forward ([`position`]): a stride-1 conv
/// reads `x` in place; a strided one reads the phase planes of its window,
/// copied once per call.
///
/// # Panics
///
/// Panics if shapes disagree, the offset window hangs outside `x`, or the
/// kernel is larger than 11×11.
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
    position::forward(x, w.as_slice(), oc, bias, g, out);
}

/// The position-vectorized forward and input gradient (DESIGN.md §11,
/// §14), written once over `Lanes` and run at every level by `dispatch!`.
///
/// A register holds `L::N` consecutive flattened positions of a *grid* —
/// the output plane (forward) or the input window, or one phase of it
/// (`dx`) — of one channel: a *strip*. Grid position `(r, x)` reads tap
/// `t` of shared-dimension channel `c` at a fixed offset from its own
/// element of the source, so a strip's operand for one element is `L::N`
/// consecutive source elements: one masked load, with the lanes whose tap
/// falls in the padding (or past the batch) masked off and read as 0.0,
/// the value `im2col` would have stored. Where the source's rows are the
/// grid's width the lanes run on across rows and a strip is cut only at
/// image boundaries; otherwise it is cut into one segment per grid row.
/// Each segment loads under its own mask. The destination is cut the same
/// way by its own rows.
///
/// - **Forward.** A stride-1 conv reads its window in place. A stride-`s`
///   conv first copies its window into the phase planes its taps read —
///   plane `(py, px)` holds input rows `py, py + s, …` and columns `px,
///   px + s, …` — so tap `(ky, kx)` of output `(oy, ox)` is element
///   `(oy + dy, ox + dx)` of one plane, `ky - pad_t = dy·s + py`. Each
///   output keeps [`dot_panel`](crate::simd::dot_panel)'s chain: lane `l`
///   of its eight accumulates `k ≡ l (mod 8)` in ascending `k` (here each
///   of those eight is a register of positions, run one residue class
///   after the other), the `k mod 8` tail folds from +0.0, then
///   `lane_sum`'s tree, the tail, the bias.
/// - **Input gradient.** The grid is one phase `(qy, qx)` of the window at
///   a time (the whole window at stride 1): destination `(i, j)` is input
///   element `(i·s + qy, j·s + qx)`, and the taps that reach it are those
///   with `ky ≡ qy + pad_t (mod s)` (and the same across), each reading
///   `dy` at a fixed offset. Per tap, `ky` descending then `kx` descending
///   — `col2im`'s order for one destination — the register runs the
///   patch-row gradient's chain (`o` ascending, one fused step per output
///   channel, from +0.0) and adds it under the tap's mask. The strips are
///   written straight into their phase of the window, lanes `s` apart.
///
/// Tasks are (strip group × channel group), a function of the shapes and
/// the level only; the register tile is 4 channels × 4 strips, 8 × 2 or
/// 16 × 1 at sixteen lanes (16-channel groups), 6 × 2 or 8 × 1 at eight
/// (24-channel groups, whole tiles).
mod position {
    use super::{Placement, Window};
    use crate::im2col::Conv2dGeometry;
    use crate::simd::{active_level, dispatch, Lanes, SimdLevel, LANES};
    use scnn_par::{scratch, DisjointMut};
    use std::mem::MaybeUninit;
    use std::ops::Range;

    /// Tile channels per task at sixteen lanes and at eight: a whole
    /// number of register tiles (16, 8 or 4 channels; 8 or 6).
    const CHANNELS: [usize; 2] = [16, 24];

    /// Most rows or columns of taps: eleven (AlexNet's 11×11 stem).
    const MAX_SIDE: usize = 11;

    /// Most kernel taps (`kh·kw`).
    const MAX_TAPS: usize = MAX_SIDE * MAX_SIDE;

    /// Most lanes of a register: AVX-512's sixteen.
    const MAX_LANES: usize = 16;

    /// Shared-dimension block, in floats of `k`: a tile's block of weight
    /// rows and the source rows it meets stay in L1 while the eight
    /// residue classes pass over them.
    const KB: usize = 256;

    /// The input gradient's block of output channels: their `dy` rows and
    /// weights stay in L1 while every tap's chains pass over them.
    const OB: usize = 32;

    /// Taps whose input-gradient chains one pass over the output channels
    /// carries: at most 49 × 16 registers, 49 KiB of stack.
    const TB: usize = 49;

    /// Where a grid's lanes address a buffer: channel `c` of image `b` at
    /// grid position `(r, x)` is element `b·img + c·chan + at + r·pitch +
    /// x·step`. A source's `step` is 1; a strided `dx` writes its phase of
    /// the window `s` apart.
    #[derive(Clone, Copy)]
    struct Plane {
        img: usize,
        chan: usize,
        at: usize,
        pitch: usize,
        step: usize,
    }

    /// At most `N` items in place: a call's per-kernel tables, which
    /// [`check_kernel`] bounds, with no allocation and nothing written
    /// past the items.
    struct Few<T, const N: usize> {
        len: usize,
        items: [MaybeUninit<T>; N],
    }

    impl<T: Copy, const N: usize> FromIterator<T> for Few<T, N> {
        fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
            let mut few = Few { len: 0, items: [const { MaybeUninit::uninit() }; N] };
            for item in iter {
                few.items[few.len].write(item);
                few.len += 1;
            }
            few
        }
    }

    impl<T, const N: usize> std::ops::Deref for Few<T, N> {
        type Target = [T];
        fn deref(&self) -> &[T] {
            // SAFETY: `from_iter` wrote the first `len` items, and
            // `MaybeUninit<T>` has `T`'s layout.
            unsafe { &*(std::ptr::from_ref(&self.items[..self.len]) as *const [T]) }
        }
    }

    /// # Panics
    ///
    /// Panics if the kernel is larger than 11×11.
    fn check_kernel(g: &Conv2dGeometry) {
        assert!(g.kh <= MAX_SIDE && g.kw <= MAX_SIDE, "conv kernel {}x{} exceeds {MAX_SIDE}x{MAX_SIDE}", g.kh, g.kw);
    }

    /// One row (or column) of taps: a lane at grid row (column) `r` finds
    /// it in bounds iff `r + d` lies in `0..lim`.
    #[derive(Clone, Copy)]
    struct Span {
        d: isize,
        lim: usize,
    }

    /// A grid's taps, `rows × cols` of them row-major: tap `t = i·cols + j`
    /// is in bounds where row span `i` and column span `j` both are, reads
    /// the source `off[t]` from a lane's own element, and multiplies
    /// weight element `w[t]` of its `[kh, kw]` block.
    struct Taps {
        rows: Few<Span, MAX_SIDE>,
        cols: Few<Span, MAX_SIDE>,
        off: Few<isize, MAX_TAPS>,
        w: Few<usize, MAX_TAPS>,
    }

    /// One call's grid: what every task reads besides its strips.
    struct Layer<'a> {
        src: &'a [f32],
        from: Plane,
        to: Plane,
        /// Channels of the shared dimension: the input's (forward), `dy`'s
        /// (`dx`).
        chans: usize,
        /// Channels of a task's tile rows: the output's (forward), the
        /// input's (`dx`).
        outs: usize,
        /// The grid: images of `h × w` positions, `total` in all.
        h: usize,
        w: usize,
        total: usize,
        /// Whether a strip's lanes run on across grid rows in the source
        /// (its rows are the grid's width) and in the destination (its
        /// rows are the grid's width, in steps).
        wrap: (bool, bool),
        taps: &'a Taps,
        /// The forward's walk: per tap `t` of element `p`, how far the
        /// operands of elements `p + 8` and `p + 16` lie from `p`'s, and
        /// their taps, so a residue-class chain walks the shared dimension
        /// by table, two elements per (dependent) lookup.
        walk: Few<[(isize, usize); 2], MAX_TAPS>,
        /// The least and greatest offset of a tap's operand from a lane's
        /// own element, in one shared channel.
        reach: (isize, isize),
        /// Lanes per strip, strips per task, and tile channels per task
        /// ([`CHANNELS`]).
        lanes: usize,
        group: usize,
        per: usize,
    }

    impl<'a> Layer<'a> {
        fn new(
            src: &'a [f32],
            (from, to): (Plane, Plane),
            (chans, outs): (usize, usize),
            grid: (usize, usize, usize),
            taps: &'a Taps,
            lanes: usize,
        ) -> Self {
            let ((n, h, w), nt) = (grid, taps.off.len());
            // Element `p + d` lies `d / nt` channels and `d % nt` taps on,
            // one channel more where the taps wrap.
            let ahead = |d: usize| {
                let (c, dt) = (d / nt, d % nt);
                move |t: usize| {
                    let (c, next) = if t + dt < nt { (c, t + dt) } else { (c + 1, t + dt - nt) };
                    ((c * from.chan) as isize + taps.off[next] - taps.off[t], next)
                }
            };
            let (a8, a16) = (ahead(LANES), ahead(2 * LANES));
            let walk = (0..nt).map(|t| [a8(t), a16(t)]).collect();
            let total = n * h * w;
            let strips = total.div_ceil(lanes);
            let group = if strips == 1 { 1 } else if lanes < MAX_LANES || strips <= 3 { 2 } else { 4 };
            let per = CHANNELS[usize::from(lanes < MAX_LANES)];
            let reach = taps.off.iter().fold((isize::MAX, isize::MIN), |(lo, hi), &o| (lo.min(o), hi.max(o)));
            let wrap = (from.pitch == w, to.pitch == w * to.step);
            Layer { src, from, to, chans, outs, h, w, total, wrap, taps, walk, reach, lanes, group, per }
        }

        /// Where shared-dimension element `p = (c, t)` reads relative to a
        /// lane's own element, and its tap `t`.
        fn at(&self, p: usize) -> (isize, usize) {
            let t = p % self.taps.off.len();
            ((p / self.taps.off.len() * self.from.chan) as isize + self.taps.off[t], t)
        }

        /// [`Layer::at`] of element `p + 1` from that of `p`, with no
        /// division.
        fn after(&self, (off, t): (isize, usize)) -> (isize, usize) {
            let o = &self.taps.off;
            match o.get(t + 1) {
                Some(&next) => (off - o[t] + next, t + 1),
                None => (off - o[t] + self.from.chan as isize + o[0], 0),
            }
        }

        /// Tasks of the grid: (strip group × channel group).
        fn tasks(&self) -> usize {
            self.total.div_ceil(self.lanes).div_ceil(self.group) * self.outs.div_ceil(self.per)
        }

        /// Task `task`'s strip group and channels.
        fn task_at(&self, task: usize) -> (usize, Range<usize>) {
            let (per, cgroups) = (self.per, self.outs.div_ceil(self.per));
            (task / cgroups, task % cgroups * per..(task % cgroups * per + per).min(self.outs))
        }
    }

    /// A strip's segments in one buffer: runs of lanes whose elements lie
    /// a fixed step apart, at most one per lane. Lane `i` of segment `j`
    /// is element `at[j] + i·step` of the plane's channel.
    #[derive(Clone, Copy)]
    struct Segments {
        len: usize,
        /// Per segment, its lanes.
        lanes: [u32; MAX_LANES],
        at: [isize; MAX_LANES],
    }

    impl Segments {
        const NONE: Self = Segments { len: 0, lanes: [0; MAX_LANES], at: [0; MAX_LANES] };

        /// Adds `run`, lanes from `i` on at consecutive positions from
        /// `(b, r, x)` of `p`, starting a segment if `cut`.
        fn add(&mut self, p: &Plane, (b, r, x): (usize, usize, usize), (i, run): (usize, u32), cut: bool) {
            if cut {
                // The sums stay in range for every lane the segment holds.
                self.at[self.len] = (b * p.img + p.at + r * p.pitch + x * p.step) as isize - (i * p.step) as isize;
                self.len += 1;
            }
            self.lanes[self.len - 1] |= run;
        }
    }

    /// `L::N` consecutive grid positions from `q0` and where their lanes
    /// read and write: each lane reads `src.at + i + c·from.chan + off`
    /// for shared channel `c` and tap offset `off`, and writes tile
    /// channel `c` at `dst.at + i·to.step + c·to.chan`.
    struct Strip {
        /// The source's element `src.at[0]`, lane 0 of the first segment
        /// (which may lie outside the source: only masked lanes are read
        /// through it).
        first: *const f32,
        src: Segments,
        dst: Segments,
        /// Per tap, the lanes (of any segment) whose tap lands in bounds.
        taps: [u32; MAX_TAPS],
        /// The shared channels in which, the strip being one source
        /// segment, all `L::N` lanes' addresses lie in the source for
        /// every tap.
        inside: Range<usize>,
    }

    impl Strip {
        fn new(l: &Layer, q0: usize) -> Self {
            let mut st = Strip { first: std::ptr::null(), src: Segments::NONE, dst: Segments::NONE, taps: [0; MAX_TAPS], inside: 0..0 };
            let (tr, tc) = (&l.taps.rows[..], &l.taps.cols[..]);
            // Lanes whose tap row (column) is in bounds; a tap's mask is
            // the pair's intersection.
            let (mut rows, mut cols) = ([0u32; MAX_SIDE], [0u32; MAX_SIDE]);
            // Lanes `a..z`, and the part of the grid range `from..to` that
            // a span keeps in bounds.
            let lanes = |a: usize, z: usize| ((1u64 << z) - (1u64 << a)) as u32;
            let kept = |s: &Span, from: usize, to: usize| {
                let (lo, hi) = ((-s.d).max(0) as usize, (s.lim as isize - s.d).max(0) as usize);
                (lo.clamp(from, to), hi.clamp(from, to))
            };
            let hw = l.h * l.w;
            let (mut b, rem) = (q0 / hw, q0 % hw);
            let (mut r, mut x) = (rem / l.w, rem % l.w);
            let (mut i, n) = (0, l.lanes.min(l.total.saturating_sub(q0)));
            // One run of lanes per grid row the strip touches.
            while i < n {
                let j = i + (l.w - x).min(n - i);
                let (run, cut) = (lanes(i, j), |wrap: bool| i == 0 || x == 0 && (r == 0 || !wrap));
                st.src.add(&l.from, (b, r, x), (i, run), cut(l.wrap.0));
                st.dst.add(&l.to, (b, r, x), (i, run), cut(l.wrap.1));
                for (m, s) in rows.iter_mut().zip(tr) {
                    if kept(s, r, r + 1) == (r, r + 1) {
                        *m |= run;
                    }
                }
                for (m, s) in cols.iter_mut().zip(tc) {
                    let (a, z) = kept(s, x, x + j - i);
                    *m |= lanes(i + a - x, i + z - x);
                }
                (i, x) = (j, x + j - i);
                if x == l.w {
                    (r, x) = (r + 1, 0);
                    if r == l.h {
                        (b, r) = (b + 1, 0);
                    }
                }
            }
            for (row, taps) in rows.iter().zip(st.taps.chunks_exact_mut(tc.len())).take(tr.len()) {
                for (m, col) in taps.iter_mut().zip(cols) {
                    *m = row & col;
                }
            }
            st.first = l.src.as_ptr().wrapping_offset(st.src.at[0]);
            if st.src.len == 1 {
                // Channel `c` reads `at + c·chan + [lo, hi + N)`.
                let ((lo, hi), at, chan) = (l.reach, st.src.at[0], l.from.chan);
                let first = usize::try_from(-(at + lo)).map_or(0, |under| under.div_ceil(chan));
                let room = usize::try_from(l.src.len() as isize - (at + hi + l.lanes as isize));
                st.inside = first..room.map_or(0, |room| (room / chan + 1).min(l.chans));
            }
            st
        }

        /// Stores `v`'s lanes as the strip's positions of tile channel `c`,
        /// each segment's run in turn.
        ///
        /// # Safety
        ///
        /// No other task writes these positions of channel `c`.
        #[inline(always)]
        unsafe fn write<L: Lanes>(&self, l: &Layer, c: usize, v: L, sink: &DisjointMut<f32>) {
            let (step, mut lanes) = (l.to.step, [0.0f32; MAX_LANES]);
            if step > 1 {
                v.store(lanes.as_mut_ptr());
            }
            for (&m, &at) in self.dst.lanes[..self.dst.len].iter().zip(&self.dst.at) {
                let (lo, hi) = (m.trailing_zeros() as usize, 32 - m.leading_zeros() as usize);
                let first = (at + (lo * step + c * l.to.chan) as isize) as usize;
                // SAFETY: the caller's tasks write disjoint spans: this
                // strip's positions of channel `c`, `step` apart, and
                // between them only elements of other phases of the
                // window, whose grids run before or after this one's.
                let run = unsafe { sink.range(first, first + (hi - lo - 1) * step + 1) };
                if step > 1 {
                    // `run` holds `hi - lo` elements `step` apart.
                    for (i, &x) in lanes[lo..hi].iter().enumerate() {
                        *run.as_mut_ptr().add(i * step) = x;
                    }
                } else if hi - lo == L::N {
                    v.store(run.as_mut_ptr());
                } else {
                    // Lane `lo` is `run[0]`; lane 0's address may lie
                    // before the buffer, and only the mask's lanes are
                    // written.
                    v.store_masked(run.as_mut_ptr().wrapping_sub(lo), L::mask(m));
                }
            }
        }
    }

    /// How a strip group loads its operands in a block of shared channels:
    /// every strip one segment whose every lane's address lies in the
    /// source for every tap of those channels ([`INSIDE`]: a plain load,
    /// then the mask), one segment otherwise ([`EDGE`]: the same where an
    /// operand's lanes all lie in the source, else a masked load), or some
    /// strip of several segments ([`MULTI`]: a masked merge per segment).
    const INSIDE: u8 = 0;
    const EDGE: u8 = 1;
    const MULTI: u8 = 2;

    /// A strip group's load modes: [`MULTI`] throughout (`None`), or
    /// [`INSIDE`] in the shared channels `Some(inside)` and [`EDGE`]
    /// elsewhere.
    type Modes = Option<Range<usize>>;

    /// The mode of shared channels `first..=last`.
    fn mode(modes: &Modes, first: usize, last: usize) -> u8 {
        match modes {
            None => MULTI,
            Some(inside) if inside.start <= first && last < inside.end => INSIDE,
            Some(_) => EDGE,
        }
    }

    /// Per strip, its taps' masks in the level's form; only the layer's
    /// taps are written.
    type Masks<L, const S: usize> = [[MaybeUninit<<L as Lanes>::Mask>; MAX_TAPS]; S];

    /// What one task shares across its tiles: its `S` strips from strip
    /// `sg·S` and their load modes, with their masks written into `masks`
    /// (the caller's, so that they are not copied: at eight lanes a mask
    /// is a register, and the table is kilobytes). (Loops, not closures,
    /// wherever a level's intrinsic runs: a closure would lose the
    /// caller's `target_feature`s.)
    ///
    /// # Safety
    ///
    /// Runs inside a `dispatch!` entry of `L`'s ISA.
    #[inline(always)]
    unsafe fn strips<L: Lanes, const S: usize>(l: &Layer, sg: usize, masks: &mut Masks<L, S>) -> ([Strip; S], Modes) {
        let strips: [Strip; S] = std::array::from_fn(|s| Strip::new(l, (sg * S + s) * L::N));
        let inside = strips.iter().fold(0..l.chans, |a, st| a.start.max(st.inside.start)..a.end.min(st.inside.end));
        let modes = strips.iter().all(|st| st.src.len == 1).then_some(inside);
        for (m, st) in masks.iter_mut().zip(&strips) {
            for (m, &bits) in m.iter_mut().zip(&st.taps[..l.taps.off.len()]) {
                m.write(L::mask(bits));
            }
        }
        (strips, modes)
    }

    /// `$f::<L, C, S>(…)` in the level's register tile for the layer's
    /// strips per task: 16 × 1, 8 × 2 or 4 × 4 at sixteen lanes, 8 × 1 or
    /// 6 × 2 at eight.
    macro_rules! tiled {
        ($f:ident::<$l:ident>($layer:ident $(, $a:expr)*)) => {
            match ($l::N, $layer.group) {
                (16, 1) => $f::<$l, 16, 1>($layer $(, $a)*),
                (16, 2) => $f::<$l, 8, 2>($layer $(, $a)*),
                (16, _) => $f::<$l, 4, 4>($layer $(, $a)*),
                (_, 1) => $f::<$l, 8, 1>($layer $(, $a)*),
                _ => $f::<$l, 6, 2>($layer $(, $a)*),
            }
        };
    }

    /// `$f::<…, MODE>(…)` at load mode `$mode`.
    macro_rules! moded {
        ($mode:expr, $f:ident::<$($g:ident),*>($($a:expr),*)) => {
            match $mode {
                INSIDE => $f::<$($g),*, INSIDE>($($a),*),
                EDGE => $f::<$($g),*, EDGE>($($a),*),
                _ => $f::<$($g),*, MULTI>($($a),*),
            }
        };
    }

    /// The row and column phases some tap of the forward reads, ascending:
    /// `(ky - pad_t) mod sh` over `ky`, and across (`[0]` at stride 1).
    fn phases(g: &Conv2dGeometry) -> (Few<usize, MAX_SIDE>, Few<usize, MAX_SIDE>) {
        let of = |k: usize, pad: i64, s: usize| {
            (0..s).filter(|&p| (0..k).any(|k| (k as i64 - pad).rem_euclid(s as i64) as usize == p)).collect()
        };
        (of(g.kh, g.pad.h_begin, g.sh), of(g.kw, g.pad.w_begin, g.sw))
    }

    /// The forward's taps, im2col's `(ky, kx)` order: tap `(ky, kx)` of
    /// output `(oy, ox)` is element `(oy + dy, ox + dx)` of phase plane
    /// `(py, px)`, where `ky - pad_t = dy·sh + py` (and across), the planes
    /// `pitch` wide and `size` floats apart in the order of [`phases`] (at
    /// stride 1, the window itself). Tap `(ky, kx)` is weight element
    /// `ky·kw + kx`.
    fn fwd_taps(g: &Conv2dGeometry, pitch: usize, size: usize, (pys, pxs): &(Few<usize, MAX_SIDE>, Few<usize, MAX_SIDE>)) -> Taps {
        let split = |k: usize, pad: i64, s: usize, len: usize, ps: &[usize]| {
            let d = k as isize - pad as isize;
            let p = d.rem_euclid(s as isize) as usize;
            let lim = len.saturating_sub(p).div_ceil(s);
            (Span { d: d.div_euclid(s as isize), lim }, ps.iter().position(|&q| q == p).unwrap_or(0))
        };
        let rows: Few<_, MAX_SIDE> = (0..g.kh).map(|ky| split(ky, g.pad.h_begin, g.sh, g.in_h, pys)).collect();
        let cols: Few<_, MAX_SIDE> = (0..g.kw).map(|kx| split(kx, g.pad.w_begin, g.sw, g.in_w, pxs)).collect();
        let off = rows.iter().flat_map(|&(r, iy)| {
            cols.iter().map(move |&(c, ix)| ((iy * pxs.len() + ix) * size) as isize + r.d * pitch as isize + c.d)
        });
        Taps {
            off: off.collect(),
            w: (0..g.kh * g.kw).collect(),
            rows: rows.iter().map(|r| r.0).collect(),
            cols: cols.iter().map(|c| c.0).collect(),
        }
    }

    /// The forward over `x`'s window; `out` and `bias` are checked against
    /// `oc` by the caller. A stride-1 conv reads the window in place; a
    /// strided one first copies it into the phase planes its taps read, in
    /// `scnn_par::scratch`.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than 11×11.
    pub(super) fn forward(x: &Window, wv: &[f32], oc: usize, bias: Option<&[f32]>, g: &Conv2dGeometry, out: &mut [f32]) {
        check_kernel(g);
        let (level, (oh, ow), at) = (active_level(), (g.out_h(), g.out_w()), &x.at);
        let to = Plane { img: oc * oh * ow, chan: oh * ow, at: 0, pitch: ow, step: 1 };
        let sink = &DisjointMut::new(out);
        let run = |src: &[f32], from: Plane, taps: Taps| {
            let l = &Layer::new(src, (from, to), (g.in_c, oc), (x.n, oh, ow), &taps, level.lanes());
            scnn_par::parallel_for(l.tasks(), |task| {
                dispatch!(at level; fwd_task::<;;>(
                    l: &Layer,
                    wv: &[f32],
                    bias: Option<&[f32]>,
                    task: usize,
                    sink: &DisjointMut<f32>,
                ))
            });
        };
        let (phases, plane) = (phases(g), at.full_h * at.full_w);
        if g.sh == 1 && g.sw == 1 {
            let from = Plane { img: g.in_c * plane, chan: plane, at: at.off_h * at.full_w + at.off_w, pitch: at.full_w, step: 1 };
            return run(x.data, from, fwd_taps(g, at.full_w, 0, &phases));
        }
        let (pys, pxs) = &phases;
        let (pw, size) = (g.in_w.div_ceil(g.sw), g.in_h.div_ceil(g.sh) * g.in_w.div_ceil(g.sw));
        let chan = pys.len() * pxs.len() * size;
        scratch::with_scratch(x.n * g.in_c * chan, |planes| {
            scnn_par::par_chunks_mut(planes, g.in_c * chan, |b, img| {
                for (c, dst) in img.chunks_exact_mut(chan).enumerate() {
                    let src = &x.data[(b * g.in_c + c) * plane..];
                    // Window row `i·sh + py` is row `i` of the row phase's
                    // planes, one per column phase.
                    for (ip, &py) in pys.iter().enumerate() {
                        for i in 0..g.in_h.saturating_sub(py).div_ceil(g.sh) {
                            let row = &src[(at.off_h + i * g.sh + py) * at.full_w + at.off_w..][..g.in_w];
                            split_phases(row, g.sw, pxs, &mut dst[ip * pxs.len() * size + i * pw..], size);
                        }
                    }
                }
            });
            let from = Plane { img: g.in_c * chan, chan, at: 0, pitch: pw, step: 1 };
            run(planes, from, fwd_taps(g, pw, size, &phases));
        });
    }

    /// Splits `row` into its column phases `pxs` of stride `s`: element `j`
    /// of phase `pxs[i]` is `row[j·s + pxs[i]]`, stored at `dst[i·size +
    /// j]`. Both phases of stride 2 go in one pass, which vectorizes.
    fn split_phases(row: &[f32], s: usize, pxs: &[usize], dst: &mut [f32], size: usize) {
        if s == 2 && pxs.len() == 2 {
            let (d0, d1) = dst.split_at_mut(size);
            for ((a, b), pair) in d0.iter_mut().zip(d1.iter_mut()).zip(row.chunks_exact(2)) {
                (*a, *b) = (pair[0], pair[1]);
            }
            if row.len() % 2 == 1 {
                d0[row.len() / 2] = row[row.len() - 1];
            }
            return;
        }
        for (i, &px) in pxs.iter().enumerate() {
            for (d, &v) in dst[i * size..].iter_mut().zip(row.iter().skip(px).step_by(s)) {
                *d = v;
            }
        }
    }

    /// One forward task at `L`'s width: its strip group against its
    /// channels.
    ///
    /// # Safety
    ///
    /// Runs inside a `dispatch!` entry of `L`'s ISA at the level `l` was
    /// built for; no other task writes these strips' positions of these
    /// channels.
    #[inline(always)]
    unsafe fn fwd_task<L: Lanes>(l: &Layer, wv: &[f32], bias: Option<&[f32]>, task: usize, sink: &DisjointMut<f32>) {
        let (sg, chans) = l.task_at(task);
        tiled!(fwd_group::<L>(l, (wv, bias), sg, chans, sink))
    }

    /// Strip group `sg` (`S` strips) against output channels `chans`, `C`
    /// channels per register tile.
    ///
    /// # Safety
    ///
    /// As [`fwd_task`], with `S` the layer's strips per task.
    #[inline(always)]
    unsafe fn fwd_group<L: Lanes, const C: usize, const S: usize>(
        l: &Layer,
        (wv, bias): (&[f32], Option<&[f32]>),
        sg: usize,
        chans: Range<usize>,
        sink: &DisjointMut<f32>,
    ) {
        let k = l.chans * l.taps.off.len();
        let mut masks = [[MaybeUninit::uninit(); MAX_TAPS]; S];
        let (strips, modes) = strips::<L, S>(l, sg, &mut masks);
        for c0 in chans.clone().step_by(C) {
            // A tile past the group's last channel repeats it and drops
            // the copies.
            let live = C.min(chans.end - c0);
            let rows: [*const f32; C] = std::array::from_fn(|i| wv[(c0 + i.min(live - 1)) * k..][..k].as_ptr());
            let sums = fwd_tile::<L, C, S>(l, (k, &rows), (&strips, &masks, &modes));
            for (i, row) in sums[..live].iter().enumerate() {
                for (st, &v) in strips.iter().zip(row) {
                    let v = if let Some(b) = bias { L::add(v, L::splat(b[c0 + i])) } else { v };
                    st.write(l, c0 + i, v, sink);
                }
            }
        }
    }

    /// `C` channels × `S` strips of outputs, before the bias: the eight
    /// residue-class chains block by block, the sequential tail, then the
    /// `simd::lane_sum` tree and the tail add. Each block (and the tail)
    /// loads at the mode of the shared channels it spans.
    ///
    /// # Safety
    ///
    /// As [`fwd_task`]; `rows` are `k` long.
    #[inline(always)]
    unsafe fn fwd_tile<L: Lanes, const C: usize, const S: usize>(
        l: &Layer,
        (k, rows): (usize, &[*const f32; C]),
        (strips, masks, modes): (&[Strip; S], &Masks<L, S>, &Modes),
    ) -> [[L; S]; C] {
        let (k8, nt) = (k / LANES * LANES, l.taps.off.len());
        let (group, zero) = ((strips, masks), [[L::zero(); S]; C]);
        let mut acc = [zero; LANES];
        for p0 in (0..k8).step_by(KB) {
            let ps = p0..(p0 + KB).min(k8);
            moded!(mode(modes, ps.start / nt, (ps.end - 1) / nt), fwd_block::<L, C, S>(l, (rows, group), &mut acc, ps));
        }
        let (mut tail, mut at) = (zero, l.at(k8));
        for p in k8..k {
            moded!(mode(modes, p / nt, p / nt), fwd_step::<L, C, S>(l, (rows, group), &mut tail, p, at));
            at = l.after(at);
        }
        let mut sums = zero;
        for (i, row) in sums.iter_mut().enumerate() {
            for (s, v) in row.iter_mut().enumerate() {
                let (s0, s1) = (L::add(acc[0][i][s], acc[4][i][s]), L::add(acc[1][i][s], acc[5][i][s]));
                let (s2, s3) = (L::add(acc[2][i][s], acc[6][i][s]), L::add(acc[3][i][s], acc[7][i][s]));
                *v = L::add(L::add(L::add(s0, s2), L::add(s1, s3)), tail[i][s]);
            }
        }
        sums
    }

    /// Shared elements `ps` (a whole number of eights) of the eight
    /// residue-class chains in `acc`.
    ///
    /// # Safety
    ///
    /// As [`fwd_tile`], with `ps` inside `0..k` and its operands loadable
    /// at `MODE`.
    #[inline(always)]
    unsafe fn fwd_block<L: Lanes, const C: usize, const S: usize, const MODE: u8>(
        l: &Layer,
        (rows, group): (&[*const f32; C], Group<L, S>),
        acc: &mut [[[L; S]; C]; LANES],
        ps: Range<usize>,
    ) {
        let mut start = l.at(ps.start);
        for (r, lane) in acc.iter_mut().enumerate() {
            let mut a = *lane;
            let ((mut off, mut t), mut p) = (start, ps.start + r);
            start = l.after(start);
            while p + LANES < ps.end {
                let [(s8, t8), (s16, t16)] = *l.walk.get_unchecked(t);
                fwd_step::<L, C, S, MODE>(l, (rows, group), &mut a, p, (off, t));
                fwd_step::<L, C, S, MODE>(l, (rows, group), &mut a, p + LANES, (off + s8, t8));
                (p, off, t) = (p + 2 * LANES, off + s16, t16);
            }
            if p < ps.end {
                fwd_step::<L, C, S, MODE>(l, (rows, group), &mut a, p, (off, t));
            }
            *lane = a;
        }
    }

    /// A strip group's operands: its strips and their masks.
    type Group<'a, L, const S: usize> = (&'a [Strip; S], &'a Masks<L, S>);

    /// One fused step of `C × S` chains: the shared element whose operands
    /// lie at `(off, t)` ([`Layer::at`]) and whose weights are element `p`
    /// of `rows`.
    ///
    /// # Safety
    ///
    /// As [`fwd_tile`] or [`tap_chains`], with `p` inside each row.
    #[inline(always)]
    unsafe fn fwd_step<L: Lanes, const C: usize, const S: usize, const MODE: u8>(
        l: &Layer,
        (rows, group): (&[*const f32; C], Group<L, S>),
        acc: &mut [[L; S]; C],
        p: usize,
        (off, t): (isize, usize),
    ) {
        let xs = operands::<L, S, MODE>(l, group, (off, t));
        for (ai, row) in acc.iter_mut().zip(rows) {
            let w = L::splat(*row.add(p));
            for (v, &x) in ai.iter_mut().zip(&xs) {
                *v = L::fma(w, x, *v);
            }
        }
    }

    /// The operands of a shared-dimension element for `S` strips, `(off,
    /// t)` as [`Layer::at`] gives them: each strip's source elements,
    /// masked lanes 0.0.
    ///
    /// # Safety
    ///
    /// As [`fwd_task`]; `(off, t)` is `l.at(p)` of a `p` of the shared
    /// dimension.
    #[inline(always)]
    unsafe fn operands<L: Lanes, const S: usize, const MODE: u8>(
        l: &Layer,
        (strips, masks): Group<L, S>,
        (off, t): (isize, usize),
    ) -> [L; S] {
        let mut xs = [L::zero(); S];
        for ((v, st), masks) in xs.iter_mut().zip(strips).zip(masks) {
            // `t` is a remainder mod `taps <= MAX_TAPS` (`Layer::new`).
            let m = masks.get_unchecked(t).assume_init();
            // A masked load accesses only mask-on lanes, and a mask-on lane
            // `i` of a segment is a grid position whose tap lands in
            // bounds, so `src.at + i + off` is that tap's element of its
            // image, inside `l.src`; at [`INSIDE`] every lane is (the
            // element's channel lies in each strip's `Strip::inside`). The
            // lane-0 address may lie outside, which is why it is formed
            // with `wrapping_offset`.
            let (at, p) = (st.src.at[0] + off, st.first.wrapping_offset(off));
            *v = match MODE {
                INSIDE => L::load_and(p, m),
                // This operand's own `L::N` lanes may all lie inside.
                EDGE if at >= 0 && at + L::N as isize <= l.src.len() as isize => L::load_and(p, m),
                EDGE => L::load_masked(p, m),
                _ => {
                    let (bits, mut v) = (*st.taps.get_unchecked(t), L::zero());
                    for (&lanes, &at) in st.src.lanes[..st.src.len].iter().zip(&st.src.at) {
                        v = v.merge_masked(l.src.as_ptr().wrapping_offset(at + off), L::mask(bits & lanes));
                    }
                    v
                }
            };
        }
        xs
    }

    /// The input gradient, written into the window at `at`'s offset of
    /// `dx: [n, g.in_c, full_h, full_w]`, which is zero on entry: one grid
    /// over `dy` per phase of the window that some tap reaches (its taps
    /// only, `ky` then `kx` descending), each writing its phase of the
    /// window in place (the whole window at stride 1). The phases run one
    /// after another.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than 11×11.
    pub(super) fn backward_dx(
        (dyv, wv, oc): (&[f32], &[f32], usize),
        g: &Conv2dGeometry,
        at: &Placement,
        n: usize,
        dx: &mut [f32],
    ) {
        check_kernel(g);
        let (level, (oh, ow), plane) = (active_level(), (g.out_h(), g.out_w()), at.full_h * at.full_w);
        let from = Plane { img: oc * oh * ow, chan: oh * ow, at: 0, pitch: ow, step: 1 };
        // The taps of one axis reaching phase `q`, `k` descending: output
        // index `i + d` reads tap `k` of destination `i·s + q`.
        let spans = |q: usize, pad: i64, s: usize, k: usize, lim: usize| -> Few<(usize, Span), MAX_SIDE> {
            let d = |k: usize| q as isize + pad as isize - k as isize;
            let reach = (0..k).rev().filter(|&k| d(k).rem_euclid(s as isize) == 0);
            reach.map(|k| (k, Span { d: d(k) / s as isize, lim })).collect()
        };
        for (qy, qx) in (0..g.sh.min(g.in_h)).flat_map(|qy| (0..g.sw.min(g.in_w)).map(move |qx| (qy, qx))) {
            let (rows, cols) = (spans(qy, g.pad.h_begin, g.sh, g.kh, oh), spans(qx, g.pad.w_begin, g.sw, g.kw, ow));
            let taps = Taps {
                off: rows.iter().flat_map(|r| cols.iter().map(move |c| r.1.d * ow as isize + c.1.d)).collect(),
                w: rows.iter().flat_map(|r| cols.iter().map(move |c| r.0 * g.kw + c.0)).collect(),
                rows: rows.iter().map(|r| r.1).collect(),
                cols: cols.iter().map(|c| c.1).collect(),
            };
            if taps.off.is_empty() {
                continue;
            }
            // Destination `(i, j)` is window element `(i·sh + qy, j·sw + qx)`.
            let (h, w) = ((g.in_h - qy).div_ceil(g.sh), (g.in_w - qx).div_ceil(g.sw));
            let first = (at.off_h + qy) * at.full_w + at.off_w + qx;
            let to = Plane { img: g.in_c * plane, chan: plane, at: first, pitch: g.sh * at.full_w, step: g.sw };
            let l = Layer::new(dyv, (from, to), (oc, g.in_c), (n, h, w), &taps, level.lanes());
            run_dx(level, &l, wv, g.kh * g.kw, dx);
        }
    }

    /// Runs every task of grid `l`, writing `dst`.
    fn run_dx(level: SimdLevel, l: &Layer, wv: &[f32], kk: usize, dst: &mut [f32]) {
        let sink = &DisjointMut::new(dst);
        scnn_par::parallel_for(l.tasks(), |task| {
            dispatch!(at level; dx_task::<;;>(l: &Layer, wv: &[f32], kk: usize, task: usize, sink: &DisjointMut<f32>))
        });
    }

    /// One `dx` task at `L`'s width; `l` is a phase's grid over `dy`, its
    /// tile channels the input's, and `wv` holds `kk` taps per `(o, c)`.
    ///
    /// # Safety
    ///
    /// Runs inside a `dispatch!` entry of `L`'s ISA at the level `l` was
    /// built for; no other task touches these strips' positions of these
    /// channels.
    #[inline(always)]
    unsafe fn dx_task<L: Lanes>(l: &Layer, wv: &[f32], kk: usize, task: usize, sink: &DisjointMut<f32>) {
        let (sg, chans) = l.task_at(task);
        tiled!(dx_group::<L>(l, (wv, kk), sg, chans, sink))
    }

    /// Strip group `sg` (`S` strips) of input channels `chans`, `C`
    /// channels per register tile.
    ///
    /// # Safety
    ///
    /// As [`dx_task`], with `S` the layer's strips per task.
    #[inline(always)]
    unsafe fn dx_group<L: Lanes, const C: usize, const S: usize>(
        l: &Layer,
        (wv, kk): (&[f32], usize),
        sg: usize,
        chans: Range<usize>,
        sink: &DisjointMut<f32>,
    ) {
        let mut masks = [[MaybeUninit::uninit(); MAX_TAPS]; S];
        let (strips, modes) = strips::<L, S>(l, sg, &mut masks);
        let (plen, nt) = (l.outs * kk, l.taps.off.len());
        for c0 in chans.clone().step_by(C) {
            let live = C.min(chans.end - c0);
            // Row `i` of the tile is input channel `c0 + i` (a tile past
            // the group's last channel repeats it and drops the copies);
            // its weight for output channel `o`, tap `t` is at
            // `o·plen + w[t]`.
            let rows: [*const f32; C] = std::array::from_fn(|i| wv[(c0 + i.min(live - 1)) * kk..].as_ptr());
            let mut acc = [[L::zero(); S]; C];
            for t0 in (0..nt).step_by(TB) {
                let taps = t0..(t0 + TB).min(nt);
                // The taps' chains, carried across `OB`-channel blocks of
                // `o` so that a block's `dy` rows and weights stay in L1
                // while all the taps pass over them; the first block
                // starts each chain.
                let mut sums = [const { MaybeUninit::<[[L; S]; C]>::uninit() }; TB];
                for o0 in (0..l.chans).step_by(OB) {
                    let os = o0..(o0 + OB).min(l.chans);
                    let m = mode(&modes, os.start, os.end - 1);
                    for (t, sum) in taps.clone().zip(&mut sums) {
                        let group = (&strips, &masks);
                        moded!(m, tap_chains::<L, C, S>(l, (&rows, plen, group), (t, os.clone()), sum));
                    }
                }
                for (t, sum) in taps.zip(&sums) {
                    // The first block wrote every slot of the chunk
                    // (`chans >= 1`).
                    for (a, sum) in acc.iter_mut().zip(sum.assume_init_ref()) {
                        for ((v, &x), masks) in a.iter_mut().zip(sum).zip(&masks) {
                            *v = v.add_masked(masks[t].assume_init(), x);
                        }
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

    /// For tap `t`, output channels `os` of each tile element's patch-row
    /// gradient: `o` ascending, `w[o, c, w[t]] · dy` by one fused step
    /// each, from +0.0 when `os` starts at 0 and from the chains in `acc`
    /// otherwise.
    ///
    /// # Safety
    ///
    /// As [`dx_task`]; each row holds `l.chans` weights `plen` apart past
    /// `w[t]`, `os` lies in `0..l.chans`, and `acc` is initialized unless
    /// `os` starts at 0.
    #[inline(always)]
    unsafe fn tap_chains<L: Lanes, const C: usize, const S: usize, const MODE: u8>(
        l: &Layer,
        (rows, plen, group): (&[*const f32; C], usize, Group<L, S>),
        (t, os): (usize, Range<usize>),
        acc: &mut MaybeUninit<[[L; S]; C]>,
    ) {
        let mut a = if os.start == 0 { [[L::zero(); S]; C] } else { acc.assume_init() };
        let (tw, mut off) = (l.taps.w[t], l.taps.off[t] + (os.start * l.from.chan) as isize);
        for o in os {
            fwd_step::<L, C, S, MODE>(l, (rows, group), &mut a, o * plen + tw, (off, t));
            off += l.from.chan as isize;
        }
        acc.write(a);
    }
}

/// Tiled weight gradient: `dw = dyᵀ · cols` without materializing either
/// the transposed `dy` or the patch matrix.
///
/// Writes `[oc, plen]` into `dw`, overwriting every element. The shared
/// dimension `k = n·oh·ow` is split on the same `KC` boundaries as
/// [`matmul_at_b`](crate::matmul_at_b); each block accumulates its partial
/// with `p` ascending (as the GEMM does) and the partials fold into `dw`
/// in ascending block order — bit-identical to the materialized pipeline
/// at every thread count. Nothing is packed, and at most
/// [`DW_PARTIALS`] blocks of partials are held at once ([`dw_blocks`]).
///
/// # Panics
///
/// Panics if shapes disagree with the geometry.
pub fn conv2d_dw_tiled(x: &Tensor, dy: &Tensor, g: &Conv2dGeometry, dw: &mut [f32]) {
    check_exact_input(x, g);
    conv2d_dw_tiled_at(x, 0, 0, dy, g, dw);
}

/// [`conv2d_dw_tiled`] reading the geometry's window in place at
/// `(off_h, off_w)` of `x: [n, ic, full_h, full_w]` (see
/// [`conv2d_fwd_tiled_at`]).
///
/// # Panics
///
/// Panics if shapes disagree or the offset window hangs outside `x`.
pub fn conv2d_dw_tiled_at(
    x: &Tensor,
    off_h: usize,
    off_w: usize,
    dy: &Tensor,
    g: &Conv2dGeometry,
    dw: &mut [f32],
) {
    let x = &Window::new(x, g, off_h, off_w);
    let (oh, ow) = (g.out_h(), g.out_w());
    assert_eq!(dy.rank(), 4, "conv dy must be NCHW");
    let oc = dy.dim(1);
    assert_eq!(
        (dy.dim(0), dy.dim(2), dy.dim(3)),
        (x.n, oh, ow),
        "dy {} does not match geometry {g:?}",
        dy.shape()
    );
    assert_eq!(dw.len(), oc * g.patch_len(), "conv2d_dw_tiled out length");
    dw_blocks(x, dy.as_slice(), oc, g, dw);
}

/// Blocks of `dw` partials held at once. Block 0 accumulates in `dw`
/// itself; the blocks after it run this many at a time into one scratch
/// loan, and each group folds into `dw` before the next starts. Two is
/// the most that keeps the benchmark's split ResNet-18 at 18 images in
/// 27 MiB (DESIGN.md §13); no bit depends on it.
const DW_PARTIALS: usize = 2;

/// The `KC` blocks of a conv layer's weight-gradient reduction at batch
/// `n`, and how many of them its scratch loan holds
/// ([`DW_PARTIALS`] at most; none for a one-block layer).
fn dw_block_counts(g: &Conv2dGeometry, n: usize) -> (usize, usize) {
    let nblocks = (n * g.patch_count()).div_ceil(REDUCTION_KC).max(1);
    (nblocks, (nblocks - 1).min(DW_PARTIALS))
}

/// `dw` tasks per call the grid aims for: the blocks, each cut into
/// output-channel tiles until there are this many.
const DW_TASKS: usize = 4;

/// Fewest output channels a `dw` tile is cut to: two 16-lane registers.
const DW_MIN_OC: usize = 32;

/// Output channels per `dw` task for `nblocks` blocks of a layer with `oc`
/// of them. Shapes only — and, since every element's chain lies inside
/// one task, no bit depends on it.
fn dw_tile(nblocks: usize, oc: usize) -> usize {
    let tiles = DW_TASKS.div_ceil(nblocks.max(1)).min(oc.div_ceil(DW_MIN_OC)).max(1);
    oc.div_ceil(tiles)
}

/// The weight-gradient reduction in `KC`-position blocks: block 0
/// accumulates its `[oc, plen]` partial straight into `out`, every later
/// block into a slot of a [`DW_PARTIALS`]-block scratch loan, each from
/// +0.0, with output channels across the lanes and nothing packed:
///
/// - each task turns its block's `dy` to `[p, o]` once, so one register
///   loads sixteen output channels' factors of one position;
/// - the patch operand is broadcast straight from `x` ([`gather_acc`]):
///   patch element `(p, (c, ky, kx))` is `src[at[p] + rows[(c, ky, kx)]]`,
///   where `src` is `x` itself for an unpadded layer and otherwise a
///   zero-bordered copy of the block's input rows (per channel, per image
///   run of the block, the rows its output rows read, padding included),
///   live only while its block's tasks run — never the whole padded
///   input. A block that is one task copies its rows into that task's own
///   scratch loan; a block cut into several tiles (fewer blocks than
///   [`DW_TASKS`]) is copied once, by channel groups, and the blocks run
///   one after another.
///
/// The blocks run in groups: block 0 with the short group first, then
/// [`DW_PARTIALS`] at a time (so an even block count forks in pairs
/// throughout), and after each group its slots add into `out` in block
/// order. One task per (block, output-channel tile) ([`dw_tile`]), each
/// over its whole block and every patch column. Each element `(o, j)` is
/// one chain: `p` ascending over the block, one fused step per position,
/// padding taps included (a +0.0 operand); `out` is block 0's chain, then
/// `+ b1`, `+ b2`, … in block order, whatever the grouping.
fn dw_blocks(x: &Window, dyv: &[f32], oc: usize, g: &Conv2dGeometry, out: &mut [f32]) {
    let (ow, hw, plen) = (g.out_w(), g.patch_count(), g.patch_len());
    let k = x.n * hw;
    let (nblocks, slots) = dw_block_counts(g, x.n);
    let block = |bi: usize| bi * REDUCTION_KC..((bi + 1) * REDUCTION_KC).min(k);
    // Flattened positions `ps` cut at batch-image boundaries: `(image,
    // first position inside it, length)` per run, contiguous in NCHW.
    let runs = |ps: std::ops::Range<usize>| {
        (ps.start / hw..ps.end.div_ceil(hw)).map(move |b| {
            let (lo, hi) = (ps.start.max(b * hw), ps.end.min((b + 1) * hw));
            (b, lo - b * hw, hi - lo)
        })
    };
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
                runs(block(bi)).map(|(_, rem, seg)| run_rows(rem, seg)).sum::<usize>()
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
    // Patch origin of every position, block by block: in `x` for an
    // unpadded layer, in its block's padded copy otherwise.
    let mut at = Vec::with_capacity(k);
    for bi in 0..nblocks {
        let mut run_at = 0;
        for (b, rem, seg) in runs(block(bi)) {
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
    let (pad_t, pad_l) = (g.pad.h_begin as usize, g.pad.w_begin as usize);
    // Input columns `ix` land at padded column `ix + pad_l`, as far as a
    // padded row reaches.
    let cols = g.in_w.min(pw.saturating_sub(pad_l));
    // Writes channel `c` of block `bi`'s padded rows into zeroed `dst`.
    let fill = |bi: usize, c: usize, dst: &mut [f32]| {
        let mut r0 = 0;
        for (b, rem, seg) in runs(block(bi)) {
            let src = &x.data[(b * g.in_c + c) * plane..][..plane];
            for r in 0..run_rows(rem, seg) {
                let iy = (rem / ow * g.sh + r).checked_sub(pad_t).filter(|&iy| iy < g.in_h);
                if let Some(iy) = iy {
                    let row = &src[(iy + xp.off_h) * xp.full_w + xp.off_w..][..cols];
                    dst[(r0 + r) * pw + pad_l..][..cols].copy_from_slice(row);
                }
            }
            r0 += run_rows(rem, seg);
        }
    };
    let ot = dw_tile(nblocks, oc);
    let tiles = oc.div_ceil(ot);
    let copy_len = g.in_c * chan_len;
    let part = oc * plen;
    // Task (block `bi`, tile from `o0`) over its whole block into its
    // partial at `base` of `sink`, reading `src` — or, with `None`, `x`
    // where the layer is unpadded and otherwise a copy of its block's rows
    // made in its own loan.
    let task = |bi: usize, o0: usize, src: Option<&[f32]>, (sink, base): (&DisjointMut<f32>, usize)| {
        let (ps, outs) = (block(bi), o0..(o0 + ot).min(oc));
        let at = &at[ps.start..ps.end];
        let first = base + o0 * plen;
        // SAFETY: task (block, tile) owns its tile's rows of its block's
        // partial, which no other task touches.
        let dw = unsafe { sink.range(first, first + outs.len() * plen) };
        let (kb, on) = (ps.len(), outs.len());
        let own = if padded && src.is_none() { copy_len } else { 0 };
        scratch::with_scratch(kb * on + own, |buf| {
            let (dyt, xs) = buf.split_at_mut(kb * on);
            let mut p = 0;
            for (b, rem, seg) in runs(ps.clone()) {
                let src = &dyv[(b * oc + outs.start) * hw + rem..];
                transpose(on, seg, src, hw, &mut dyt[p * on..], on);
                p += seg;
            }
            let src = match src {
                Some(src) => src,
                None if padded => {
                    for (c, dst) in xs.chunks_exact_mut(chan_len).enumerate() {
                        fill(bi, c, dst);
                    }
                    xs
                }
                None => x.data,
            };
            gather_acc(plen, on, kb, src, at, &rows, dyt, on, dw, plen, true);
        });
    };
    // Fewer blocks than tasks and a padded layer: each block's copy is
    // made once, by channel groups, and read by the block's tiles while
    // they run.
    let shared = padded && tiles > 1;
    let groups = DW_TASKS.min(g.in_c);
    let per_group = g.in_c.div_ceil(groups);
    scratch::with_scratch(slots * part, |partials| {
        scratch::with_scratch(if shared { copy_len } else { 0 }, |xs| {
            let rest = nblocks - 1;
            let short = match rest % DW_PARTIALS {
                0 => rest.min(DW_PARTIALS),
                short => short,
            };
            let mut span = 0..1 + short;
            while span.start < nblocks {
                // The group's first block with a slot of its own.
                let first = span.start.max(1);
                {
                    let (sink, slot) = (DisjointMut::new(&mut *out), DisjointMut::new(&mut *partials));
                    let dst = |bi: usize| match bi {
                        0 => (&sink, 0),
                        _ => (&slot, (bi - first) * part),
                    };
                    if shared {
                        for bi in span.clone() {
                            let spans = DisjointMut::new(&mut *xs);
                            scnn_par::parallel_for(groups, |group| {
                                for c in group * per_group..((group + 1) * per_group).min(g.in_c) {
                                    // SAFETY: a channel group fills its
                                    // channels' spans, which no other group
                                    // touches.
                                    let dst = unsafe { spans.range(c * chan_len, (c + 1) * chan_len) };
                                    if bi > 0 {
                                        dst.fill(0.0);
                                    }
                                    fill(bi, c, dst);
                                }
                            });
                            scnn_par::parallel_for(tiles, |t| task(bi, t * ot, Some(&*xs), dst(bi)));
                        }
                    } else {
                        let blocks = span.start;
                        scnn_par::parallel_for(span.len() * tiles, |t| {
                            let bi = blocks + t / tiles;
                            task(bi, t % tiles * ot, None, dst(bi))
                        });
                    }
                }
                for slot in partials.chunks_exact(part).take(span.end - first) {
                    add_assign(out, slot);
                }
                span = span.end..(span.end + DW_PARTIALS).min(nblocks);
            }
        });
    });
}

/// Tiled input gradient: fuses `matmul(dy_mat, w2)` with the `col2im`
/// scatter so the `dcols` matrix never exists.
///
/// Writes the geometry's `in_h × in_w` window at `(off_h, off_w)` of a
/// `dst: [n, ic, full_h, full_w]` that the caller zeroed — the crop-offset
/// contract of [`col2im_into`](crate::col2im_into). At stride > 1 an
/// element of the window that no tap reaches keeps its zero.
///
/// Runs [`position`]'s `backward_dx`: per phase of the window (the whole
/// window at stride 1), the forward of the phase's flipped taps over `dy`
/// read in place, each destination element's taps added in `col2im`'s
/// order and written straight into its phase, with no scratch. Tasks own
/// disjoint destination strips, so that order holds at every thread count.
///
/// # Panics
///
/// Panics if shapes disagree, the offset window hangs outside `dst`, or
/// the kernel is larger than 11×11.
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
    position::backward_dx((dy.as_slice(), w.as_slice(), oc), g, &at, n, dst.as_mut_slice());
}

/// Planned workspace bytes for one tiled conv layer (forward + backward):
/// the thread-count-*independent* scratch footprint, i.e. `dw`'s loan of
/// partials — `min(nblocks − 1, DW_PARTIALS)` blocks of `oc · plen`
/// floats, `nblocks = ⌈n·oh·ow / KC⌉` (`KC` = [`REDUCTION_KC`], the
/// constant the kernels block on), so the planner's model is the loan
/// [`dw_blocks`] takes and a one-block layer plans none. The rest of the
/// engine's scratch stays out of the per-layer term, and this is the
/// number `scnn-hmms` carries per conv node in its layouts:
///
/// - a `dw` task's turned `dy` block and zero-bordered input rows, which
///   scale with the host's thread count;
/// - a strided forward's phase copy of its window, at most the input's
///   size (rounded up to whole phase rows), held only while the forward
///   runs — when the layer's input is resident anyway.
///
/// The forward keeps no other scratch, and `dx` none.
pub fn conv2d_workspace_bytes(g: &Conv2dGeometry, n: usize, oc: usize) -> usize {
    dw_block_counts(g, n).1 * oc * g.patch_len() * 4
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

    /// The position path against the materialized oracle — `im2col` +
    /// `matmul_a_bt` + bias forward, `matmul` + `col2im_into` input
    /// gradient — bit for bit, at every level the host runs and at 1 and 4
    /// threads: every `k mod 8` (`in_c` 1–40), kernels 1–7 wide at strides
    /// 1–3 with any padding (output planes equal to the input's or not),
    /// the window read at an offset of larger planes (a crop), maps up to
    /// 33 wide so strips straddle rows and images, one to nine images,
    /// channel counts off every register tile, with and without bias,
    /// signed zeros and subnormals among the operands.
    #[test]
    fn position_path_is_bitwise_equal_to_the_materialized_oracle() {
        use crate::simd::{force_level, supports, SimdLevel};
        use crate::{col2im_into, matmul};
        use scnn_rng::prop::{check, Case};
        use scnn_rng::{prop_assert, Rng};
        check("position path bits == materialized bits", 64, |rng| {
            let (kh, kw) = (rng.gen_range(1..=7usize), rng.gen_range(1..=7usize));
            let (sh, sw) = (rng.gen_range(1..=3usize), rng.gen_range(1..=3usize));
            let (h, w) = (rng.gen_range(1..=12usize), rng.gen_range(1..=33usize));
            let side = |rng: &mut scnn_rng::SplitRng, k: usize| rng.gen_range(0..k) as i64;
            let pad = Padding2d::new(side(rng, kh), side(rng, kh), side(rng, kw), side(rng, kw));
            if h as i64 + pad.h_begin + pad.h_end < kh as i64 || w as i64 + pad.w_begin + pad.w_end < kw as i64 {
                return Case::Discard;
            }
            let (mut n, mut ic) = (rng.gen_range(1..=9usize), rng.gen_range(1..=40usize));
            let oc = rng.gen_range(1..=37usize);
            // Bounded work per case (the suite also runs unoptimized).
            while n * h * w * oc * ic * kh * kw > 1 << 21 {
                (n, ic) = if n > 1 { (n - 1, ic) } else { (n, ic.div_ceil(2)) };
            }
            let g = Conv2dGeometry::new(ic, h, w, kh, kw, sh, sw, pad);
            let (hw, plen) = (g.patch_count(), g.patch_len());
            // The window at `(off_h, off_w)` of planes `(eh, ew)` larger.
            let (off_h, off_w) = (rng.gen_range(0..3usize), rng.gen_range(0..3usize));
            let (eh, ew) = (off_h + rng.gen_range(0..2usize), off_w + rng.gen_range(0..2usize));
            let full_dims = [n, ic, h + eh, w + ew];
            let full = Tensor::from_vec(awkward(rng, full_dims.iter().product()), &full_dims);
            let crop = Padding2d::new(-(off_h as i64), -((eh - off_h) as i64), -(off_w as i64), -((ew - off_w) as i64));
            let x = full.pad2d(crop);
            let wt = Tensor::from_vec(awkward(rng, oc * plen), &[oc, ic, kh, kw]);
            let bias = rng.gen::<bool>().then(|| awkward(rng, oc));
            let dy = Tensor::from_vec(awkward(rng, n * oc * hw), &[n, oc, g.out_h(), g.out_w()]);

            let w2 = wt.clone().reshape(&[oc, plen]);
            let ymat = matmul_a_bt(&im2col(&x, &g), &w2);
            let want_y: Vec<f32> = (0..n * oc * hw)
                .map(|i| {
                    let (b, c, p) = (i / (oc * hw), i / hw % oc, i % hw);
                    let v = ymat.as_slice()[(b * hw + p) * oc + c];
                    bias.as_ref().map_or(v, |bias| v + bias[c])
                })
                .collect();
            let dymat: Vec<f32> =
                (0..n * hw * oc).map(|i| dy.as_slice()[(i / (hw * oc) * oc + i % oc) * hw + i / oc % hw]).collect();
            let dcols = matmul(&Tensor::from_vec(dymat, &[n * hw, oc]), &w2);
            let mut want_dx = Tensor::zeros(&full_dims);
            col2im_into(&dcols, n, &g, &mut want_dx, off_h, off_w);

            let first_bad = |got: &[f32], want: &[f32]| got.iter().zip(want).position(|(a, b)| a.to_bits() != b.to_bits());
            for level in SimdLevel::ALL.into_iter().filter(|&l| supports(l)) {
                force_level(Some(level));
                for threads in [1, 4] {
                    let mut y = vec![f32::NAN; n * oc * hw];
                    let mut dx = Tensor::zeros(&full_dims);
                    scnn_par::with_threads(threads, || {
                        conv2d_fwd_tiled_at(&full, off_h, off_w, &wt, bias.as_deref(), &g, &mut y);
                        conv2d_dx_tiled(&dy, &wt, &g, &mut dx, off_h, off_w);
                    });
                    let (bad_y, bad_dx) = (first_bad(&y, &want_y), first_bad(dx.as_slice(), want_dx.as_slice()));
                    if bad_y.is_some() || bad_dx.is_some() {
                        force_level(None);
                    }
                    prop_assert!(
                        bad_y.is_none() && bad_dx.is_none(),
                        "{g:?} n={n} oc={oc} window at ({off_h}, {off_w}) bias={} {} threads={threads}: \
                         y element {bad_y:?}, dx element {bad_dx:?}",
                        bias.is_some(),
                        level.name()
                    );
                }
            }
            force_level(None);
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
        // k = 8·32·32 = 8192 → 32 KC-blocks, of which block 0 accumulates
        // in `dw` and two [oc=32, plen=144] partials are held at once.
        assert_eq!(conv2d_workspace_bytes(&g, 8, 32), 2 * 32 * 144 * 4);
        // One block (k = 1·16·16): `dw` is the whole reduction.
        let g = Conv2dGeometry::new(16, 16, 16, 3, 3, 1, 1, Padding2d::symmetric(1));
        assert_eq!(conv2d_workspace_bytes(&g, 1, 32), 0);
        // Two blocks: one partial.
        assert_eq!(conv2d_workspace_bytes(&g, 2, 32), 32 * 144 * 4);
    }
}
