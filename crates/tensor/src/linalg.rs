//! Small dense linear-algebra kernels (2-D matrix products).
//!
//! Convolution (via `im2col`) and fully-connected layers reduce to these
//! three product variants. Each is cache-blocked (MC row chunks × KC×NC
//! tiles) and parallelized over *size-derived* chunks via `scnn_par`, so
//! results are bit-identical at every `SCNN_THREADS`:
//!
//! - [`matmul`] accumulates along the shared dimension in strictly
//!   ascending order per output element — the same order the naive loop
//!   used, so its results did not change at all.
//! - [`matmul_at_b`] folds KC-sized shared-dimension blocks in block
//!   order; the block structure depends only on `k`.
//! - [`matmul_a_bt`] (the convolution-forward workhorse) replaces the
//!   scalar dot product — whose serial FP dependency chain defeats
//!   auto-vectorization, since f32 addition is not reassociable — with an
//!   8-lane accumulator reduced by a fixed pairwise tree. The summation
//!   order is a function of the shared dimension `k` only, which preserves
//!   the paper's split-vs-unsplit exactness argument (both graphs reduce
//!   identical `k = c·kh·kw` patch rows).
//!
//! The floating-point inner loops themselves (`dot_panel`, `gemm_acc`,
//! `add_assign`) live in [`crate::simd`] and dispatch at runtime between
//! scalar and AVX2 bodies with identical reduction order. Blocking is
//! fixed: the shared-dimension block [`REDUCTION_KC`] is bit-bearing (the
//! fold trees are keyed on it), while
//! the column tile [`MATMUL_NC`] only partitions independent outputs.

use crate::simd::{add_assign, dot_panel, gemm_acc};
use crate::Tensor;

/// The shared-dimension reduction block, in rows — the one bit-bearing
/// blocking constant. Everything keyed on `KC` reads it, so they cannot
/// drift apart: the [`matmul_at_b`] fold grid, the conv `dw` partials,
/// `conv2d_workspace_bytes` and the planner's cost model.
pub const REDUCTION_KC: usize = 256;

/// Output-column tile of the row-split GEMMs ([`gemm_acc_blocked`]). It
/// partitions independent output elements, so it cannot change a bit.
const MATMUL_NC: usize = 128;

/// Minimum rows per parallel chunk (amortizes task-claim overhead).
const MIN_ROWS: usize = 8;

/// Output rows per parallel chunk of the row-split GEMMs: a quarter of the
/// rows, at least [`MIN_ROWS`], at most 32 (subject to `scnn_par::grain`'s
/// chunk cap). Every chunk streams the whole `B` operand once, so a chunk
/// of 32 rows reads it a quarter as often as one of 8 — which is what
/// matters when `B` (a deep layer's 2.4 MB weight matrix) outgrows L2 —
/// while a short `m` still splits into several tasks.
fn rows_per_chunk(m: usize) -> usize {
    scnn_par::grain(m, (m / 4).clamp(MIN_ROWS, 32))
}

/// Rows of `B` per [`gemm_acc`] call of the row-split GEMMs
/// ([`gemm_acc_blocked`]). The micro-kernel walks a 16-column strip of `B`
/// row by row; with a wide `B` (a deep conv's `plen = 2304` columns, 9 KiB
/// apart) every row is another page, and 64 of them — unlike a whole
/// 256-row reduction block — stay inside the first-level TLB while the
/// chunk's row tiles revisit them.
const GEMM_KB: usize = 64;

/// `C = A · B` for `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use scnn_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
/// assert_eq!(matmul(&a, &i), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice core of [`matmul`]: accumulates `A·B` into `out`, which **must be
/// zero-filled on entry** (`[m*n]`, row-major). Lets callers land the
/// product in storage they own; values are bit-identical to
/// [`matmul`] for a zeroed target.
pub fn matmul_into(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(av.len(), m * k, "matmul_into lhs length");
    assert_eq!(bv.len(), k * n, "matmul_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_into out length");
    let row_grain = rows_per_chunk(m);
    // Skip column blocking when n barely exceeds the tile: a lone narrow
    // tail block re-streams the A rows for little locality benefit.
    let nc = if n <= MATMUL_NC + MATMUL_NC / 2 { n.max(1) } else { MATMUL_NC };
    scnn_par::par_chunks_mut(out, row_grain * n, |ci, ochunk| {
        let rows = ochunk.len() / n.max(1);
        gemm_acc_blocked(rows, n, k, &av[ci * row_grain * k..], bv, ochunk, nc);
    });
}

/// `c += a · b` for one chunk of `rows` output rows (`a: [rows, k]`,
/// `b: [k, n]` and `c: [rows, n]` row-major), as one [`gemm_acc`] call per
/// `nc` columns × [`GEMM_KB`] rows of `b`.
///
/// `p` ascends globally per output element (blocks in order, `p` in
/// order within each call), matching the naive ikj loop bit-for-bit;
/// column blocks partition independent elements. So both block sizes are
/// bit-free, and what they buy is locality: the chunk's `nc`-wide slice of
/// `c` stays in L1 across the whole reduction, and the slice of `b` a call
/// walks stays inside the first-level TLB.
fn gemm_acc_blocked(rows: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], nc: usize) {
    for j0 in (0..n).step_by(nc.max(1)) {
        let j1 = (j0 + nc).min(n);
        for p0 in (0..k).step_by(GEMM_KB) {
            let p1 = (p0 + GEMM_KB).min(k);
            gemm_acc(
                rows,
                j1 - j0,
                p1 - p0,
                &a[p0..],
                k,
                1,
                &b[p0 * n + j0..],
                n,
                &mut c[j0..],
                n,
            );
        }
    }
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]` — used by convolution weight
/// gradients without materializing a transpose.
///
/// The shared dimension is split into KC-sized blocks (a function of `k`
/// only); each block accumulates a partial `[m, n]` with `p` ascending,
/// and the partials are folded in block order. Both the block structure
/// and the fold order are size-derived, so the result is bit-identical at
/// every thread count — each block streams its slice of `A` and `B`
/// exactly once, like the naive single pass.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the shared dimension disagrees.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_at_b lhs");
    let (k2, n) = dims2(b, "matmul_at_b rhs");
    assert_eq!(k, k2, "matmul_at_b shared dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_at_b_into(a.as_slice(), b.as_slice(), k, m, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice core of [`matmul_at_b`]: writes `Aᵀ·B` into `out` (`[m*n]`, every
/// element overwritten — contents on entry do not matter). The per-block
/// partials live in this thread's scratch arena instead of one fresh `Vec`
/// per block; the fold copies block 0 and adds the rest in ascending block
/// order, which reproduces the original fold bit-for-bit.
pub fn matmul_at_b_into(av: &[f32], bv: &[f32], k: usize, m: usize, n: usize, out: &mut [f32]) {
    assert_eq!(av.len(), k * m, "matmul_at_b_into lhs length");
    assert_eq!(bv.len(), k * n, "matmul_at_b_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_at_b_into out length");
    let nblocks = k.div_ceil(REDUCTION_KC).max(1);
    scnn_par::scratch::with_scratch(nblocks * m * n, |partials| {
        let slots = scnn_par::DisjointMut::new(partials);
        scnn_par::parallel_for(nblocks, |bi| {
            // SAFETY: slot `bi` is written only by task `bi`.
            let part = unsafe { slots.range(bi * m * n, (bi + 1) * m * n) };
            let p0 = bi * REDUCTION_KC;
            let p1 = (p0 + REDUCTION_KC).min(k);
            gemm_acc(m, n, p1 - p0, &av[p0 * m..], 1, m, &bv[p0 * n..], n, part, n);
        });
        out.copy_from_slice(&partials[..m * n]);
        for bi in 1..nblocks {
            add_assign(out, &partials[bi * m * n..(bi + 1) * m * n]);
        }
    });
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]` — the `im2col`-GEMM used by
/// convolution and linear forward passes.
///
/// # Panics
///
/// Panics if either operand is not rank 2 or the shared dimension disagrees.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_a_bt lhs");
    let (n, k2) = dims2(b, "matmul_a_bt rhs");
    assert_eq!(k, k2, "matmul_a_bt shared dimension mismatch: {k} vs {k2}");
    let mut out = vec![0.0f32; m * n];
    matmul_a_bt_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Slice core of [`matmul_a_bt`]: writes `A·Bᵀ` into `out` (`[m*n]`, every
/// element overwritten — contents on entry do not matter). Each
/// size-derived chunk of `A` rows is one [`dot_panel`] call: eight `B`
/// rows at a time stay in cache while the chunk's `A` rows stream past
/// them, so `B` is read from memory once per chunk, not once per row.
pub fn matmul_a_bt_into(av: &[f32], bv: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(av.len(), m * k, "matmul_a_bt_into lhs length");
    assert_eq!(bv.len(), n * k, "matmul_a_bt_into rhs length");
    assert_eq!(out.len(), m * n, "matmul_a_bt_into out length");
    let row_grain = rows_per_chunk(m);
    scnn_par::par_chunks_mut(out, row_grain * n, |ci, ochunk| {
        let i0 = ci * row_grain;
        let rows = ochunk.len() / n.max(1);
        dot_panel(rows, n, k, &av[i0 * k..], k, bv, k, None, ochunk, n, 1);
    });
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(t.rank(), 2, "{what} must be rank 2, got {}", t.shape());
    (t.dim(0), t.dim(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: Vec<f32>, d: &[usize]) -> Tensor {
        Tensor::from_vec(v, d)
    }

    #[test]
    fn matmul_known_values() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = t(vec![1., 2., 3., 4.], &[2, 2]);
        let b = t(vec![5., 6., 7., 8.], &[2, 2]);
        assert_eq!(matmul(&a, &b).as_slice(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = t(vec![1., 0., 2., 0., 1., 3.], &[2, 3]);
        let b = t(vec![1., 2., 3., 4., 5., 6.], &[3, 2]);
        // row0 = [1*1+2*5, 1*2+2*6] = [11, 14]
        // row1 = [3+15, 4+18] = [18, 22]
        assert_eq!(matmul(&a, &b).as_slice(), &[11., 14., 18., 22.]);
    }

    #[test]
    fn at_b_matches_explicit_transpose() {
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[3, 2]); // k=3, m=2
        let b = t(vec![7., 8., 9., 10., 11., 12.], &[3, 2]); // k=3, n=2
        let at = t(vec![1., 3., 5., 2., 4., 6.], &[2, 3]);
        assert_eq!(matmul_at_b(&a, &b), matmul(&at, &b));
    }

    #[test]
    fn a_bt_matches_explicit_transpose() {
        let a = t(vec![1., 2., 3., 4.], &[2, 2]);
        let b = t(vec![5., 6., 7., 8.], &[2, 2]); // n=2, k=2
        let bt = t(vec![5., 7., 6., 8.], &[2, 2]);
        assert_eq!(matmul_a_bt(&a, &b), matmul(&a, &bt));
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn mismatched_inner_dims_panic() {
        matmul(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[2, 3]));
    }

    /// Deterministic pseudo-random fill (no RNG dependency in unit tests).
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

    /// Textbook triple loop, kept as the oracle for the blocked kernels.
    fn reference_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dim(0), a.dim(1));
        let n = b.dim(1);
        let mut out = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a.as_slice()[i * k + p] as f64 * b.as_slice()[p * n + j] as f64;
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out.into_iter().map(|v| v as f32).collect(), &[m, n])
    }

    #[test]
    fn blocked_kernels_match_reference_on_awkward_shapes() {
        // Sizes straddle the KC/NC/LANES boundaries (tails everywhere).
        for &(m, k, n) in &[(1, 1, 1), (3, 9, 5), (17, 300, 33), (40, 129, 130)] {
            let a = fill(&[m, k], (m * 1000 + k) as u32);
            let b = fill(&[k, n], (k * 1000 + n) as u32);
            let c = matmul(&a, &b);
            let r = reference_matmul(&a, &b);
            assert!(c.max_abs_diff(&r) < 1e-4 * k as f32, "matmul {m}x{k}x{n}");

            let at = fill(&[k, m], (m + n) as u32);
            let mut att = vec![0.0f32; m * k];
            for p in 0..k {
                for i in 0..m {
                    att[i * k + p] = at.as_slice()[p * m + i];
                }
            }
            let att = Tensor::from_vec(att, &[m, k]);
            let c2 = matmul_at_b(&at, &b);
            let r2 = reference_matmul(&att, &b);
            assert!(c2.max_abs_diff(&r2) < 1e-4 * k as f32, "at_b {m}x{k}x{n}");

            let bt = fill(&[n, k], (n * 7 + k) as u32);
            let mut btt = vec![0.0f32; k * n];
            for j in 0..n {
                for p in 0..k {
                    btt[p * n + j] = bt.as_slice()[j * k + p];
                }
            }
            let btt = Tensor::from_vec(btt, &[k, n]);
            let c3 = matmul_a_bt(&a, &bt);
            let r3 = reference_matmul(&a, &btt);
            assert!(c3.max_abs_diff(&r3) < 1e-4 * k as f32, "a_bt {m}x{k}x{n}");
        }
    }

    #[test]
    fn a_bt_octet_quad_and_remainder_columns_agree() {
        // n = 14 exercises the 8-wide octet path (j 0..8), the 4-wide quad
        // (j 8..12) and the single-dot remainder (j 12..14); all must use
        // the same dot8 reduction order, so column values must not depend
        // on which sweep width produced them.
        let a = fill(&[5, 37], 3);
        let b = fill(&[14, 37], 4);
        let full = matmul_a_bt(&a, &b);
        for j in 0..14 {
            let bj = Tensor::from_vec(b.as_slice()[j * 37..(j + 1) * 37].to_vec(), &[1, 37]);
            let col = matmul_a_bt(&a, &bj);
            for i in 0..5 {
                assert_eq!(
                    full.as_slice()[i * 14 + j].to_bits(),
                    col.as_slice()[i].to_bits(),
                    "column {j} differs between sweep widths"
                );
            }
        }
    }
}
