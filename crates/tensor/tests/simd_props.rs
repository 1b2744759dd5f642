//! SIMD dispatch property suite (DESIGN.md §14): the scalar, AVX2 and
//! AVX-512 micro-kernel bodies must produce **bitwise identical** results
//! for every GEMM variant and the tiled conv engine, across awkward
//! geometries and thread counts — the contract that makes the ISA choice
//! (and the `SCNN_SIMD` knob) a pure performance decision.
//!
//! Every level the host supports (`supports`) runs; on a host with no
//! vector level the comparisons degenerate to scalar vs scalar (still
//! exercising the dispatch plumbing), and each vector body is covered
//! wherever CI has its ISA.

use scnn_tensor::simd::{dot_panel, gemm_acc};
use scnn_tensor::{
    conv2d_dw_tiled, conv2d_dx_tiled, conv2d_fwd_tiled, force_level, matmul_a_bt_into,
    matmul_at_b_into, matmul_into, supports, Conv2dGeometry, Padding2d, SimdLevel, Tensor,
};

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

/// Runs `f` forced to every level the host supports, at `SCNN_THREADS`
/// 1, 2, 4 and 7, and asserts every result's bits agree
/// with the scalar single-thread reference. Restores auto dispatch afterwards.
fn assert_bit_identical_across_levels_and_threads(label: &str, f: impl Fn() -> Vec<f32>) {
    force_level(Some(SimdLevel::Scalar));
    let reference: Vec<u32> = scnn_par::with_threads(1, &f)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for level in SimdLevel::ALL.into_iter().filter(|&l| supports(l)) {
        force_level(Some(level));
        for threads in [1usize, 2, 4, 7] {
            let got: Vec<u32> = scnn_par::with_threads(threads, &f)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(
                got,
                reference,
                "{label}: {} @ {threads} threads differs from scalar @ 1 thread",
                level.name()
            );
        }
    }
    force_level(None);
}

#[test]
fn gemm_variants_are_bit_identical_across_isa_and_threads() {
    // Shapes straddle the KC/NC/lane boundaries: tails in every position,
    // the octet/quad/single sweeps, multi-KC-block reductions.
    for &(m, k, n) in &[(1, 1, 1), (3, 9, 5), (17, 300, 33), (40, 257, 130)] {
        let a = fill(&[m, k], (m * 1000 + k) as u32);
        let b = fill(&[k, n], (k * 1000 + n) as u32);
        let akm = fill(&[k, m], (m + n) as u32);
        let bnk = fill(&[n, k], (n * 7 + k) as u32);

        assert_bit_identical_across_levels_and_threads(&format!("matmul {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("at_b {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_into(akm.as_slice(), b.as_slice(), k, m, n, &mut out);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("a_bt {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_a_bt_into(a.as_slice(), bnk.as_slice(), m, k, n, &mut out);
            out
        });
    }
}

#[test]
fn gemm_acc_is_bit_identical_across_isa_for_both_lhs_layouts() {
    // The rank-k update behind every backward kernel, called directly:
    // register-tile edges in both dimensions (m mod 4, n mod 16 / mod 8),
    // a reduction longer than one KC block, `a` row-strided and
    // column-strided, and an output wider than the update (ldc > n) whose
    // padding must come back untouched. The naive chain — `p` ascending,
    // one fused multiply-add per step — is the reference.
    for &(m, n, k) in &[(1, 1, 1), (4, 16, 8), (7, 29, 40), (13, 43, 300), (9, 64, 257)] {
        for a_row_strided in [true, false] {
            let (a_rs, a_ps) = if a_row_strided { (k + 3, 1) } else { (1, m + 1) };
            let a = fill(&[m * a_rs + k * a_ps], (m * 100 + k) as u32);
            let (ldb, ldc) = (n + 2, n + 5);
            let b = fill(&[k * ldb], (k * 100 + n) as u32);
            let c0 = fill(&[m * ldc], (m + n + k) as u32);
            let (a, b) = (a.as_slice(), b.as_slice());
            let mut want = c0.as_slice().to_vec();
            for r in 0..m {
                for j in 0..n {
                    for p in 0..k {
                        want[r * ldc + j] = a[p * a_ps + r * a_rs].mul_add(b[p * ldb + j], want[r * ldc + j]);
                    }
                }
            }
            let label = format!("gemm_acc {m}x{n}x{k} a_row_strided={a_row_strided}");
            assert_bit_identical_across_levels_and_threads(&label, || {
                let mut c = c0.as_slice().to_vec();
                gemm_acc(m, n, k, a, a_rs, a_ps, b, ldb, &mut c, ldc);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&c), bits(&want), "{label} differs from the naive chain");
                c
            });
        }
    }
}

/// The blocked dot product written out in scalar Rust around one chain
/// step `step(x, y, acc)`: lane `l` accumulates `p ≡ l (mod 8)` with `p`
/// ascending, the lanes fold as `((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))`,
/// then the sequential tail.
fn dot8_with(a: &[f32], b: &[f32], step: impl Fn(f32, f32, f32) -> f32) -> f32 {
    let k8 = a.len() / 8 * 8;
    let mut lanes = [0.0f32; 8];
    for p in 0..k8 {
        lanes[p % 8] = step(a[p], b[p], lanes[p % 8]);
    }
    let mut tail = 0.0f32;
    for p in k8..a.len() {
        tail = step(a[p], b[p], tail);
    }
    let (s0, s1) = (lanes[0] + lanes[4], lanes[1] + lanes[5]);
    let (s2, s3) = (lanes[2] + lanes[6], lanes[3] + lanes[7]);
    ((s0 + s2) + (s1 + s3)) + tail
}

/// [`dot8_with`] the kernels' step: one fused multiply-add.
fn dot8_reference(a: &[f32], b: &[f32]) -> f32 {
    dot8_with(a, b, f32::mul_add)
}

#[test]
fn dot_panel_matches_per_element_dot8_on_every_remainder_class() {
    // The dot-form GEMM, called directly. `n` covers every residue of the
    // column groups (mod 8 for the scalar octets, mod 4 for the AVX2
    // quads); `m` every residue of the three-row register tile on both
    // sides of the 24-row group; `k` every lane-tail residue, the empty
    // reduction, and lengths that split into two and three shared-
    // dimension blocks (512 floats each at most). Operands are wider than
    // the product (`lda`, `ldb` > k) and the result lands row-major or
    // channel-major, with and without bias, inside a buffer whose other
    // elements must come back untouched.
    let ks: Vec<usize> = (0..=17).chain([255, 256, 257, 520, 1033]).collect();
    for &m in &[1usize, 2, 3, 4, 5, 23, 24, 25, 26, 50] {
        for n in (1..=17).chain([33]) {
            for &k in &ks {
                if m > 5 && n > 9 && k > 17 {
                    continue; // the long reductions on the small shapes only
                }
                let (lda, ldb) = (k + 3, k + 1);
                let a = fill(&[m * lda], (m * 31 + k) as u32);
                let b = fill(&[n * ldb], (n * 17 + k) as u32);
                let bias = fill(&[n], (m + n) as u32);
                let (a, b, bias) = (a.as_slice(), b.as_slice(), bias.as_slice());
                for (row_major, with_bias) in [(true, false), (false, true)] {
                    let (out_rs, out_cs) = if row_major { (n + 2, 1) } else { (1, m + 1) };
                    let len = (m - 1) * out_rs + (n - 1) * out_cs + 1;
                    let mut want = vec![7.5f32; len];
                    for r in 0..m {
                        for j in 0..n {
                            let dot = dot8_reference(&a[r * lda..r * lda + k], &b[j * ldb..j * ldb + k]);
                            want[r * out_rs + j * out_cs] = if with_bias { dot + bias[j] } else { dot };
                        }
                    }
                    let label = format!("dot_panel {m}x{n}x{k} row_major={row_major}");
                    assert_bit_identical_across_levels_and_threads(&label, || {
                        let mut out = vec![7.5f32; len];
                        dot_panel(m, n, k, a, lda, b, ldb, with_bias.then_some(bias), &mut out, out_rs, out_cs);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&out), bits(&want), "{label} differs from per-element dot8");
                        out
                    });
                }
            }
        }
    }
}

/// Runs `f` forced to every vector level this host supports, one thread,
/// and hands each result to `check` with the level's name.
fn for_each_vector_level<T>(f: impl Fn() -> T, check: impl Fn(&str, T)) {
    for level in SimdLevel::ALL
        .into_iter()
        .filter(|&l| l != SimdLevel::Scalar && supports(l))
    {
        force_level(Some(level));
        let got = scnn_par::with_threads(1, &f);
        force_level(None);
        check(level.name(), got);
    }
}

#[test]
fn wide_bodies_keep_every_chain_on_every_register_edge() {
    // The register mappings of the vector bodies, against chains written
    // out in scalar: `dot_panel`'s paired-lane layout (two outputs' eight
    // lanes per 512-bit register, a 256-bit broadcast of the `a` row, the
    // halves split back out for the lane tree) and `gemm_acc`'s masked
    // column remainders (eight lanes at AVX2, sixteen at AVX-512). `n`
    // covers every residue mod 16 before, between and after full 32- and
    // 16-column strips and every column-pair group; `m` sits on and off
    // the 4-, 8- and 24-row tiles; `k` below one lane step, on it, and
    // with every `k mod 8` tail. `dot_panel` writes row- and channel-major,
    // with and without bias; `gemm_acc` reads `a` as the conv `dw` passes
    // it (`(a_rs, a_ps) = (hw, 1)`, `hw > k`) and as the conv `dx` does
    // (`(1, plen)`, `plen > m`), into an output wider than the update.
    let ms = [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 13, 23, 24, 25, 31];
    let ks = [1usize, 2, 3, 5, 7, 8, 9, 12, 14, 16, 17, 22, 23, 41];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for n in 1..=50usize {
        for (mi, &m) in ms.iter().enumerate() {
            for &k in &ks {
                let seed = (n * 1000 + m * 50 + k) as u32;
                // dot_panel: a is [m, k] at lda = k + 2, b is [n, k] at
                // ldb = k + 1.
                let (lda, ldb) = (k + 2, k + 1);
                let (a, b, bias) = (
                    fill(&[m * lda], seed),
                    fill(&[n * ldb], seed + 1),
                    fill(&[n], seed + 2),
                );
                let (a, b, bias) = (a.as_slice(), b.as_slice(), bias.as_slice());
                let (row_major, with_bias) =
                    [(true, false), (false, true), (true, true), (false, false)][(n + mi) % 4];
                let (out_rs, out_cs) = if row_major { (n + 3, 1) } else { (1, m + 2) };
                let len = (m - 1) * out_rs + (n - 1) * out_cs + 1;
                let mut want = vec![-3.25f32; len];
                for r in 0..m {
                    for j in 0..n {
                        let dot =
                            dot8_reference(&a[r * lda..r * lda + k], &b[j * ldb..j * ldb + k]);
                        want[r * out_rs + j * out_cs] = if with_bias { dot + bias[j] } else { dot };
                    }
                }
                for_each_vector_level(
                    || {
                        let mut out = vec![-3.25f32; len];
                        dot_panel(
                            m,
                            n,
                            k,
                            a,
                            lda,
                            b,
                            ldb,
                            with_bias.then_some(bias),
                            &mut out,
                            out_rs,
                            out_cs,
                        );
                        out
                    },
                    |level, out| {
                        assert_eq!(
                            bits(&out),
                            bits(&want),
                            "dot_panel {level} m={m} n={n} k={k} row_major={row_major} bias={with_bias}"
                        )
                    },
                );

                // gemm_acc: the dw layout when `mi` is even, the dx one
                // when it is odd.
                let (a_rs, a_ps) = if mi % 2 == 0 { (k + 5, 1) } else { (1, m + 3) };
                let a = fill(&[(k - 1) * a_ps + (m - 1) * a_rs + 1], seed + 3);
                let (ldb, ldc) = (n + 1, n + 7);
                let b = fill(&[(k - 1) * ldb + n], seed + 4);
                let c0 = fill(&[(m - 1) * ldc + n], seed + 5);
                let (a, b) = (a.as_slice(), b.as_slice());
                let mut want = c0.as_slice().to_vec();
                for r in 0..m {
                    for j in 0..n {
                        for p in 0..k {
                            want[r * ldc + j] =
                                a[p * a_ps + r * a_rs].mul_add(b[p * ldb + j], want[r * ldc + j]);
                        }
                    }
                }
                for_each_vector_level(
                    || {
                        let mut c = c0.as_slice().to_vec();
                        gemm_acc(m, n, k, a, a_rs, a_ps, b, ldb, &mut c, ldc);
                        c
                    },
                    |level, c| {
                        assert_eq!(
                            bits(&c),
                            bits(&want),
                            "gemm_acc {level} m={m} n={n} k={k} a=({a_rs}, {a_ps})"
                        )
                    },
                );
            }
        }
    }
}

#[test]
fn blocked_a_bt_matches_per_element_dot8_off_the_row_grain() {
    // `matmul_a_bt_into` splits `m` into size-derived row chunks (8 to 32
    // rows), each one `dot_panel` call: `m` below, on and off the grain,
    // a last chunk shorter than the rest, at every thread count and ISA.
    for &(m, k, n) in &[(7, 40, 9), (8, 33, 4), (37, 300, 13), (65, 129, 6), (130, 1030, 5), (261, 20, 3)] {
        let a = fill(&[m, k], (m * 1000 + k) as u32);
        let b = fill(&[n, k], (n * 7 + k) as u32);
        let (a, b) = (a.as_slice(), b.as_slice());
        let want: Vec<u32> = (0..m * n)
            .map(|i| dot8_reference(&a[i / n * k..][..k], &b[i % n * k..][..k]).to_bits())
            .collect();
        let label = format!("a_bt {m}x{k}x{n}");
        assert_bit_identical_across_levels_and_threads(&label, || {
            let mut out = vec![0.0f32; m * n];
            matmul_a_bt_into(a, b, m, k, n, &mut out);
            let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{label} differs from per-element dot8");
            out
        });
    }
}

#[test]
fn fused_chains_are_no_less_accurate_than_mul_plus_add() {
    // One rounding per step instead of two: against an `f64` evaluation
    // of the same sums, the kernels' summed |error| must not exceed that
    // of the same chains written with a separate multiply and add — the
    // step they replaced. Summed over every element of every draw: one
    // element's roundings cancel by luck either way, and the margin is
    // the product's rounding only — 3–9 % of the summed error at the
    // short reductions drawn here (six seeds), 1 % at k = 512, where the
    // add's dominates.
    use scnn_rng::prop::{check, Case};
    use scnn_rng::Rng;
    let err = |got: &[f32], want: &[f64]| -> f64 { got.iter().zip(want).map(|(&g, w)| (f64::from(g) - w).abs()).sum() };
    // Summed |error| as [fused, mul + add], per kernel.
    let (mut dot, mut acc) = ([0.0f64; 2], [0.0f64; 2]);
    check("fused vs mul + add against f64", 12, |rng| {
        let (m, n, k) = (rng.gen_range(8..32usize), rng.gen_range(16..64usize), rng.gen_range(2..96usize));
        let seed = rng.gen_range(0..1_000_000usize) as u32;
        let (a, b, c0) = (fill(&[m * k], seed), fill(&[n * k], seed + 1), fill(&[m * n], seed + 2));
        let (a, b, c0) = (a.as_slice(), b.as_slice(), c0.as_slice());

        // dot_panel: a is [m, k], b is [n, k]; the mul + add twin keeps
        // dot8's lanes, tail and tree.
        let (mut fused, mut unfused, mut exact) = (vec![0.0f32; m * n], vec![0.0f32; m * n], vec![0.0f64; m * n]);
        dot_panel(m, n, k, a, k, b, k, None, &mut fused, n, 1);
        for i in 0..m * n {
            let (x, y) = (&a[i / n * k..][..k], &b[i % n * k..][..k]);
            unfused[i] = dot8_with(x, y, |x, y, acc| acc + x * y);
            exact[i] = x.iter().zip(y).map(|(&x, &y)| f64::from(x) * f64::from(y)).sum();
        }
        dot[0] += err(&fused, &exact);
        dot[1] += err(&unfused, &exact);

        // gemm_acc: a is [m, k] row-major, b's first k·n floats are
        // [k, n]; each element is one sequential chain from c0.
        let (mut fused, mut unfused) = (c0.to_vec(), c0.to_vec());
        let mut exact: Vec<f64> = c0.iter().map(|&v| f64::from(v)).collect();
        gemm_acc(m, n, k, a, k, 1, b, n, &mut fused, n);
        for (i, (u, e)) in unfused.iter_mut().zip(&mut exact).enumerate() {
            for p in 0..k {
                *u += a[i / n * k + p] * b[p * n + i % n];
                *e += f64::from(a[i / n * k + p]) * f64::from(b[p * n + i % n]);
            }
        }
        acc[0] += err(&fused, &exact);
        acc[1] += err(&unfused, &exact);
        Case::Pass
    });
    assert!(dot[0] <= dot[1], "dot_panel: fused {:e} > mul + add {:e}", dot[0], dot[1]);
    assert!(acc[0] <= acc[1], "gemm_acc: fused {:e} > mul + add {:e}", acc[0], acc[1]);
}

/// Stride / asymmetric padding / 1×1 / tile-edge geometries, with channel
/// counts exercising the octet, quad and single output-channel sweeps.
fn conv_geometries() -> Vec<(Conv2dGeometry, usize, usize)> {
    vec![
        // strided, asymmetric padding, 5 output channels (quad + single)
        (
            Conv2dGeometry::new(2, 7, 9, 3, 3, 2, 1, Padding2d::new(1, 0, 0, 2)),
            2,
            5,
        ),
        // 1x1 kernel (pure-reshape im2col), 9 channels (octet + single)
        (
            Conv2dGeometry::new(3, 6, 5, 1, 1, 1, 1, Padding2d::symmetric(0)),
            2,
            9,
        ),
        // wide row so the pack tile splits mid-row (tile-edge), 8 channels
        (
            Conv2dGeometry::new(4, 5, 33, 3, 2, 1, 2, Padding2d::new(0, 1, 1, 0)),
            3,
            8,
        ),
        // tall stride-3 with crop-shaped padding, 3 channels
        (
            Conv2dGeometry::new(2, 11, 4, 2, 2, 3, 1, Padding2d::new(0, 0, 1, 1)),
            2,
            3,
        ),
    ]
}

#[test]
fn tiled_conv_engine_is_bit_identical_across_isa_and_threads() {
    for (gi, (g, n, oc)) in conv_geometries().into_iter().enumerate() {
        let x = fill(&[n, g.in_c, g.in_h, g.in_w], 31 + gi as u32);
        let w = fill(&[oc, g.in_c, g.kh, g.kw], 47 + gi as u32);
        let bias = fill(&[oc], 53 + gi as u32);
        let (oh, ow) = (g.out_h(), g.out_w());
        let dy = fill(&[n, oc, oh, ow], 59 + gi as u32);

        assert_bit_identical_across_levels_and_threads(&format!("conv fwd g{gi}"), || {
            let mut out = vec![0.0f32; n * oc * oh * ow];
            conv2d_fwd_tiled(&x, &w, Some(bias.as_slice()), &g, &mut out);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("conv dw g{gi}"), || {
            let mut dw = vec![0.0f32; oc * g.patch_len()];
            conv2d_dw_tiled(&x, &dy, &g, &mut dw);
            dw
        });
        assert_bit_identical_across_levels_and_threads(&format!("conv dx g{gi}"), || {
            let mut dst = Tensor::zeros(&[n, g.in_c, g.in_h, g.in_w]);
            conv2d_dx_tiled(&dy, &w, &g, &mut dst, 0, 0);
            dst.as_slice().to_vec()
        });
    }
}
