//! SIMD dispatch property suite (DESIGN.md §14): the scalar and AVX2
//! micro-kernel bodies must produce **bitwise identical** results for
//! every GEMM variant and the tiled conv engine, across awkward
//! geometries and thread counts — the contract that makes the ISA choice
//! (and the `SCNN_SIMD` knob) a pure performance decision.
//!
//! On a host without AVX2+FMA the comparisons degenerate to scalar vs
//! scalar (still exercising the dispatch plumbing); the AVX2 bodies
//! themselves are covered wherever CI has the ISA. The suite also proves
//! that installed `KernelPlan`s — which may only vary bit-free blocking —
//! cannot change any output bit.

use scnn_tensor::simd::gemm_acc;
use scnn_tensor::{
    conv2d_dw_tiled, conv2d_dx_tiled, conv2d_fwd_tiled, detected_level, force_level, install_plan,
    matmul_a_bt_into, matmul_at_b_acc_into, matmul_at_b_seq_into, matmul_into, Conv2dGeometry,
    KernelPlan, Padding2d, PlanOp, PlanRecord, SimdLevel, Tensor,
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

/// Runs `f` under forced scalar and (when the host has it) forced AVX2,
/// at `SCNN_THREADS` 1, 2, 4 and 7, and asserts every result's bits agree
/// with the scalar single-thread reference. Restores auto dispatch afterwards.
fn assert_bit_identical_across_levels_and_threads(label: &str, f: impl Fn() -> Vec<f32>) {
    force_level(Some(SimdLevel::Scalar));
    let reference: Vec<u32> = scnn_par::with_threads(1, &f)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let mut levels = vec![SimdLevel::Scalar];
    if detected_level() == SimdLevel::Avx2 {
        levels.push(SimdLevel::Avx2);
    }
    for level in levels {
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
            matmul_at_b_acc_into(akm.as_slice(), b.as_slice(), k, m, n, &mut out, true);
            out
        });
        assert_bit_identical_across_levels_and_threads(&format!("at_b_seq {m}x{k}x{n}"), || {
            let mut out = vec![0.0f32; m * n];
            matmul_at_b_seq_into(akm.as_slice(), b.as_slice(), k, m, n, &mut out, true);
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
    // one mul and one add per step — is the reference.
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
                        want[r * ldc + j] += a[p * a_ps + r * a_rs] * b[p * ldb + j];
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

#[test]
fn installed_plans_change_no_bits() {
    // Tuned plans may only vary bit-free blocking, so running a shape
    // with an aggressive non-default plan installed must reproduce the
    // default-plan bits exactly. The shape is deliberately odd so no other
    // test's lookups collide with the installed keys.
    let (m, k, n) = (21, 310, 67);
    let a = fill(&[m, k], 71);
    let b = fill(&[k, n], 73);
    let run_matmul = || {
        let mut out = vec![0.0f32; m * n];
        matmul_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
        out
    };
    let g = Conv2dGeometry::new(3, 13, 21, 3, 3, 1, 1, Padding2d::symmetric(1));
    let (cn, oc) = (2, 6);
    let x = fill(&[cn, g.in_c, g.in_h, g.in_w], 79);
    let w = fill(&[oc, g.in_c, g.kh, g.kw], 83);
    let dy = fill(&[cn, oc, g.out_h(), g.out_w()], 89);
    let run_conv = || {
        let mut out = vec![0.0f32; cn * oc * g.patch_count()];
        conv2d_fwd_tiled(&x, &w, None, &g, &mut out);
        let mut dw = vec![0.0f32; oc * g.patch_len()];
        conv2d_dw_tiled(&x, &dy, &g, &mut dw);
        out.extend(dw);
        out
    };

    let before_matmul = run_matmul();
    let before_conv = run_conv();

    let plan = KernelPlan {
        kc: KernelPlan::reduction_kc(),
        nc: 48,
        panel_bytes: 16 * 1024,
    };
    let isa = scnn_tensor::active_level();
    let threads = scnn_par::max_threads();
    let conv_dims = vec![cn, g.in_c, g.out_h(), g.out_w(), oc, g.kh, g.kw, g.sh, g.sw];
    for (op, dims) in [
        (PlanOp::Matmul, vec![m, k, n]),
        (PlanOp::ConvFwd, conv_dims.clone()),
        (PlanOp::ConvBwd, conv_dims),
    ] {
        install_plan(&PlanRecord {
            op,
            dims,
            isa,
            threads,
            plan,
            median_ns: 1,
        })
        .unwrap();
    }

    let after_matmul = run_matmul();
    let after_conv = run_conv();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&before_matmul), bits(&after_matmul), "matmul");
    assert_eq!(bits(&before_conv), bits(&after_conv), "conv");
}
