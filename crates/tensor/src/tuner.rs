//! Offline kernel autotuner (DESIGN.md §14).
//!
//! For one concrete kernel shape, times a small grid of candidate
//! [`KernelPlan`]s — **bit-free parameters only**: the `matmul` column
//! tile `nc` and the conv engine's pack-panel budget; the reduction block
//! `kc` is pinned to [`KernelPlan::reduction_kc`] in every candidate —
//! and returns the winner as a [`PlanRecord`] ready to install or persist
//! ([`crate::plan`]). Because candidates differ only in bit-free knobs,
//! *any* candidate produces the same output bits, and the choice is a
//! pure wall-clock decision.
//!
//! Candidates run through the crate-internal `*_plan` kernel entries, so
//! tuning never touches the process-global plan registry: a tuner run
//! cannot perturb concurrently executing kernels, and its measurements
//! are taken with exactly the code path production lookups dispatch to.
//!
//! Methodology: per candidate one untimed warmup pass (faults in the
//! per-thread scratch arenas and the output buffer), then the median of
//! `samples` timed passes. The main thread's arena is additionally
//! pre-warmed ([`scnn_par::scratch::warm`]) to the largest candidate's
//! panel footprint so the first candidate measured is not biased by
//! one-time allocation cost. Inputs are filled by a deterministic LCG:
//! timings vary run to run, but the work measured never does.

use crate::im2col::Conv2dGeometry;
use crate::plan::{conv_plan_dims, KernelPlan, PlanOp, PlanRecord};
use crate::conv_engine::{self, Window};
use crate::{linalg, simd, Tensor};
use std::time::Instant;

/// One timed candidate.
#[derive(Clone, Copy, Debug)]
pub struct Trial {
    pub plan: KernelPlan,
    pub median_ns: u64,
}

/// Result of tuning one shape: the winning record (keyed by the active
/// ISA and thread count) plus every trial for reporting.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    pub record: PlanRecord,
    pub trials: Vec<Trial>,
}

/// Deterministic pseudo-random fill (same LCG the kernel tests use).
fn fill(len: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

/// One warmup pass, then the median of `samples` timed passes.
fn time_runs(samples: usize, mut run: impl FnMut()) -> u64 {
    run();
    let samples = samples.max(1);
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        run();
        times.push(t.elapsed().as_nanos() as u64);
    }
    times.sort_unstable();
    times[times.len() / 2]
}

/// Times every candidate and assembles the outcome. Ties break toward the
/// earliest candidate, so outcomes are deterministic given the timings.
fn run_trials(
    op: PlanOp,
    dims: Vec<usize>,
    candidates: Vec<KernelPlan>,
    samples: usize,
    mut run: impl FnMut(&KernelPlan),
) -> TuneOutcome {
    assert!(!candidates.is_empty(), "tuner needs at least one candidate");
    let mut trials = Vec::with_capacity(candidates.len());
    for plan in candidates {
        plan.validate().expect("tuner candidate must be valid");
        let median_ns = time_runs(samples, || run(&plan));
        trials.push(Trial { plan, median_ns });
    }
    let best = trials
        .iter()
        .enumerate()
        .min_by_key(|(i, t)| (t.median_ns, *i))
        .map(|(i, _)| i)
        .expect("non-empty trials");
    TuneOutcome {
        record: PlanRecord {
            op,
            dims,
            isa: simd::active_level(),
            threads: scnn_par::max_threads(),
            plan: trials[best].plan,
            median_ns: trials[best].median_ns,
        },
        trials,
    }
}

/// Column-tile candidates for [`tune_matmul`].
fn matmul_candidates() -> Vec<KernelPlan> {
    [64usize, 96, 128, 192, 256]
        .iter()
        .map(|&nc| KernelPlan {
            nc,
            ..KernelPlan::default()
        })
        .collect()
}

/// Pack-panel-budget candidates for the conv kernels.
fn panel_candidates() -> Vec<KernelPlan> {
    [64usize, 128, 256, 384, 512]
        .iter()
        .map(|&kib| KernelPlan {
            panel_bytes: kib * 1024,
            ..KernelPlan::default()
        })
        .collect()
}

/// [`panel_candidates`] widened downward with a {16, 32, 48} KiB slice.
///
/// The small budgets exercise the dw pack *sub-tile height*: below
/// ~128 KiB the per-block patch panel no longer covers a whole `KC` row
/// block, so the pack height `st = panel/(4·plen)` — the `k` of each
/// `gemm_acc` update — becomes the active blocking knob (at the
/// reference bench shape the full grid spans `st ∈ {28, 56, 85, 113,
/// 227, KC, KC, KC}`). The axis is
/// *grid-only*: candidates still differ in `panel_bytes` alone — no new
/// plan field, every candidate bit-identical. The winograd forward uses
/// the same grid to size its tile-batch staging, where small budgets map
/// to proportionally small tile blocks.
fn wide_panel_candidates() -> Vec<KernelPlan> {
    [16usize, 32, 48, 64, 128, 256, 384, 512]
        .iter()
        .map(|&kib| KernelPlan {
            panel_bytes: kib * 1024,
            ..KernelPlan::default()
        })
        .collect()
}

/// Tunes `matmul_into` at `[m, k] · [k, n]`.
pub fn tune_matmul(m: usize, k: usize, n: usize, samples: usize) -> TuneOutcome {
    let av = fill(m * k, 11);
    let bv = fill(k * n, 13);
    let mut out = vec![0.0f32; m * n];
    run_trials(
        PlanOp::Matmul,
        vec![m, k, n],
        matmul_candidates(),
        samples,
        |kp| {
            out.fill(0.0);
            linalg::matmul_into_plan(kp, &av, &bv, m, k, n, &mut out);
        },
    )
}

/// Tunes the tiled conv forward for geometry `g` at batch `n`, `oc`
/// output channels.
///
/// Vestigial since the forward tile is capped at one 24-row `dot_panel`
/// group (`conv_engine::FWD_TILE_ROWS`): every [`panel_candidates`] budget
/// yields that same tile for `plen ≤ 682` (the 256 KiB default up to
/// `plen` 2730), so this pass times identical configurations on all but
/// the deepest layers. It and the `ConvFwd` plan records are kept only
/// because the plan-cache format is frozen; ROADMAP schedules their
/// removal.
pub fn tune_conv_fwd(g: &Conv2dGeometry, n: usize, oc: usize, samples: usize) -> TuneOutcome {
    let x = Tensor::from_vec(fill(n * g.in_c * g.in_h * g.in_w, 17), &[n, g.in_c, g.in_h, g.in_w]);
    let w = Tensor::from_vec(fill(oc * g.patch_len(), 19), &[oc, g.in_c, g.kh, g.kw]);
    let mut out = vec![0.0f32; n * oc * g.patch_count()];
    let max_panel = panel_candidates()
        .iter()
        .map(|p| p.panel_bytes)
        .max()
        .unwrap_or_default();
    scnn_par::scratch::warm(max_panel / 4);
    run_trials(
        PlanOp::ConvFwd,
        conv_plan_dims(g, n, oc).to_vec(),
        panel_candidates(),
        samples,
        |kp| conv_engine::conv2d_fwd_tiled_plan(kp, &Window::new(&x, g, 0, 0), &w, None, g, &mut out),
    )
}

/// Tunes the tiled conv `dw` reduction for geometry `g` at batch `n`,
/// `oc` output channels.
pub fn tune_conv_bwd(g: &Conv2dGeometry, n: usize, oc: usize, samples: usize) -> TuneOutcome {
    let x = Tensor::from_vec(fill(n * g.in_c * g.in_h * g.in_w, 23), &[n, g.in_c, g.in_h, g.in_w]);
    let dy = Tensor::from_vec(
        fill(n * oc * g.patch_count(), 29),
        &[n, oc, g.out_h(), g.out_w()],
    );
    let mut dw = vec![0.0f32; oc * g.patch_len()];
    let nblocks = (n * g.patch_count()).div_ceil(KernelPlan::reduction_kc()).max(1);
    scnn_par::scratch::warm(nblocks * oc * g.patch_len());
    run_trials(
        PlanOp::ConvBwd,
        conv_plan_dims(g, n, oc).to_vec(),
        wide_panel_candidates(),
        samples,
        |kp| conv_engine::conv2d_dw_tiled_acc_plan(kp, &Window::new(&x, g, 0, 0), &dy, g, 0, n, &mut dw, true),
    )
}

/// Tunes the winograd F(2×2, 3×3) forward for geometry `g` at batch `n`,
/// `oc` output channels. The candidate axis is the per-thread transform
/// staging budget (`panel_bytes` → tile-batch size): bit-free within the
/// winograd path itself, whose output is epsilon-equal — not bit-equal —
/// to the direct engines (DESIGN.md §16).
///
/// # Panics
///
/// If `g` is not a stride-1 3×3 geometry
/// ([`crate::winograd_supported`]).
pub fn tune_conv_winograd(g: &Conv2dGeometry, n: usize, oc: usize, samples: usize) -> TuneOutcome {
    assert!(
        crate::winograd::winograd_supported(g),
        "winograd tuning requires a stride-1 3x3 geometry"
    );
    let x = Tensor::from_vec(fill(n * g.in_c * g.in_h * g.in_w, 31), &[n, g.in_c, g.in_h, g.in_w]);
    let w = Tensor::from_vec(fill(oc * g.patch_len(), 37), &[oc, g.in_c, g.kh, g.kw]);
    let mut out = vec![0.0f32; n * oc * g.patch_count()];
    let max_panel = wide_panel_candidates()
        .iter()
        .map(|p| p.panel_bytes)
        .max()
        .unwrap_or_default();
    scnn_par::scratch::warm(max_panel / 4);
    run_trials(
        PlanOp::ConvWinograd,
        conv_plan_dims(g, n, oc).to_vec(),
        wide_panel_candidates(),
        samples,
        |kp| crate::winograd::conv2d_fwd_winograd_plan(kp, &x, &w, None, g, &mut out),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Padding2d;

    #[test]
    fn tuned_records_carry_the_contract_kc_and_active_context() {
        let out = tune_matmul(16, 24, 20, 1);
        assert_eq!(out.record.op, PlanOp::Matmul);
        assert_eq!(out.record.dims, vec![16, 24, 20]);
        assert_eq!(out.record.plan.kc, KernelPlan::reduction_kc());
        assert_eq!(out.record.isa, simd::active_level());
        assert_eq!(out.record.threads, scnn_par::max_threads());
        assert_eq!(out.trials.len(), 5);
        let best = out.trials.iter().map(|t| t.median_ns).min().unwrap();
        assert_eq!(out.record.median_ns, best);
    }

    #[test]
    fn conv_tuning_smoke_produces_installable_records() {
        let g = Conv2dGeometry::new(3, 8, 8, 3, 3, 1, 1, Padding2d::symmetric(1));
        for out in [
            tune_conv_fwd(&g, 2, 4, 1),
            tune_conv_bwd(&g, 2, 4, 1),
            tune_conv_winograd(&g, 2, 4, 1),
        ] {
            out.record.plan.validate().unwrap();
            assert_eq!(out.record.dims.len(), 9);
            crate::plan::install_plan(&out.record).unwrap();
        }
    }

    #[test]
    fn bwd_grid_carries_the_sub_tile_height_slice() {
        // The widened grid must keep the legacy budgets and add the
        // low-budget slice that varies the dw pack sub-tile height.
        let kib: Vec<usize> = wide_panel_candidates()
            .iter()
            .map(|p| p.panel_bytes / 1024)
            .collect();
        assert_eq!(kib, vec![16, 32, 48, 64, 128, 256, 384, 512]);
        for p in wide_panel_candidates() {
            p.validate().unwrap();
            assert_eq!(p.kc, KernelPlan::reduction_kc());
        }
    }
}
