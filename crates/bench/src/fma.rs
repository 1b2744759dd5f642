//! The host's bare multiply-add rate: twelve independent fused
//! multiply-add chains at one vector width, no memory traffic. It is the
//! ceiling the conv GFLOP/s columns of `conv_layers` are read against, and
//! the kernels bench's reference region (`fma_ref`), which the conv
//! forward records are gated as ratios to: a host that runs slow runs both
//! slow.

use scnn_tensor::SimdLevel;

/// Independent chains per run: enough to cover the fused latency on both
/// ports of the hosts measured (4 cycles × 2 ports needs at least 8).
const CHAINS: usize = 12;

/// Flops of one [`fma_chains`] run at `level`: `12 × lanes × 2 × iters`.
pub fn fma_flops(level: SimdLevel, iters: usize) -> f64 {
    let lanes = match level {
        SimdLevel::Avx512 => 16,
        SimdLevel::Avx2 => 8,
        SimdLevel::Scalar => 1,
    };
    (CHAINS * lanes * 2 * iters) as f64
}

/// Runs twelve independent fused multiply-add chains of `iters` steps on
/// the calling thread, at the widest width `level` has: 512-bit registers
/// at AVX-512, 256-bit at AVX2, `f32::mul_add` at the scalar level. Returns
/// a value that depends on every chain.
///
/// # Panics
///
/// Panics if the host cannot execute `level`.
pub fn fma_chains(level: SimdLevel, iters: usize) -> f32 {
    assert!(
        scnn_tensor::supports(level),
        "the host cannot execute {} chains",
        level.name()
    );
    match level {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host runs AVX-512 F (asserted above).
        SimdLevel::Avx512 => unsafe { x86::chains512(iters) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the host runs AVX2+FMA (asserted above).
        SimdLevel::Avx2 => unsafe { x86::chains256(iters) },
        _ => {
            let mut acc = [0.0f32; CHAINS];
            for _ in 0..iters {
                for a in acc.iter_mut() {
                    *a = a.mul_add(0.999, 0.001);
                }
            }
            acc.iter().sum()
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CHAINS;
    use core::arch::x86_64::*;

    #[target_feature(enable = "avx2,fma")]
    pub(super) fn chains256(iters: usize) -> f32 {
        let (x, y) = (_mm256_set1_ps(0.999), _mm256_set1_ps(0.001));
        let mut acc = [_mm256_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        let mut out = [0.0f32; 8];
        // SAFETY: `out` holds eight floats.
        unsafe {
            _mm256_storeu_ps(
                out.as_mut_ptr(),
                acc.iter()
                    .fold(_mm256_setzero_ps(), |s, &a| _mm256_add_ps(s, a)),
            )
        };
        out[0]
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn chains512(iters: usize) -> f32 {
        let (x, y) = (_mm512_set1_ps(0.999), _mm512_set1_ps(0.001));
        let mut acc = [_mm512_setzero_ps(); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(*a, x, y);
            }
        }
        _mm512_reduce_add_ps(
            acc.iter()
                .fold(_mm512_setzero_ps(), |s, &a| _mm512_add_ps(s, a)),
        )
    }
}
