//! Runtime-dispatched SIMD micro-kernels (DESIGN.md §14).
//!
//! Every floating-point inner loop in this crate funnels through the
//! handful of primitives defined here: the dot-form GEMM [`dot_panel`]
//! behind `matmul_a_bt`, the register-blocked rank-k update
//! ([`gemm_acc`]) behind `matmul`, `matmul_at_b` and the Winograd
//! forward's transform-domain GEMMs, its gathered form ([`gather_acc`])
//! behind the conv `dw`, the 8 × 8-blocked [`transpose`], and the
//! elementwise passes ([`add_assign`] for block folds, [`vadd`]/[`vsub`]
//! for the Winograd transforms). The conv engine's position bodies (its
//! forward and `dx`) are written over the same `Lanes` and stamped by
//! the same `dispatch!`, with register tiles of their own.
//!
//! Each primitive is **one body**: an `#[inline(always)]` function generic
//! over `Lanes`, one vector register of f32 lanes. The `dispatch!` macro
//! instantiates it once per [`SimdLevel`]:
//!
//! - over `__m512` under `#[target_feature(enable = "avx512f,avx512dq,…")]`;
//! - over `__m256` under `#[target_feature(enable = "avx2,fma")]`; and
//! - over the portable `[f32; 8]` twice — under
//!   `#[target_feature(enable = "fma")]`, taken at the scalar level
//!   whenever the host executes FMA, and for the build's baseline, taken
//!   on a host without FMA and on every other architecture.
//!
//! The three `Lanes` impls and the `Eight` impls (the lane-sum tree of
//! one dot output's eight lanes) are the only code here that names a
//! `core::arch` intrinsic: the walks, the register tiles and their edges
//! are written once. The crate itself targets baseline x86-64.
//!
//! The implementation is picked **once per call site reached**, by
//! [`active_level`]: a relaxed atomic read resolving (in order) an
//! in-process [`force_level`] override, the `SCNN_SIMD` environment knob
//! (`scalar|avx2|avx512|auto`, read once), and `is_x86_feature_detected!`
//! (the highest level the host runs; [`supports`] says which it does).
//!
//! # The bit-identity contract
//!
//! Every instantiation of every body evaluates the **same IEEE-754
//! operations in the same order**, and the step of every accumulation
//! chain is one **fused multiply-add**: `acc = fma(a, b, acc)`, the exact
//! product plus the accumulator, rounded once.
//!
//! - A [`dot_panel`] output owns eight lane accumulators: lane `l`
//!   accumulates elements `p ≡ l (mod 8)`, the scalar tail folds
//!   sequentially, and the final reduction is the fixed [`lane_sum`] tree
//!   of plain adds. A register carries `N / 8` outputs' eight lanes side
//!   by side (one at 256 bits and in the portable array, two at 512,
//!   against the `a` row repeated in both halves), and hands each back
//!   out for the tree.
//! - [`add_assign`], [`vadd`] and [`vsub`] are elementwise: each output
//!   element is one add (or subtract) regardless of vector width.
//! - [`gemm_acc`] is elementwise *per output element* too: element
//!   `(r, j)` sees the chain `acc = fma(a[p, r], b[p, j], acc)` for `p`
//!   ascending, whatever tile — 8×32 or 4×16 registers, a row/column
//!   edge, a masked remainder register — happens to hold its accumulator.
//! - **Fused at every width.** `_mm512_fmadd_ps`, `_mm256_fmadd_ps` and
//!   `f32::mul_add` are the same correctly-rounded operation, so one
//!   rounding per step costs the contract nothing and halves the FP uops
//!   of a step. A separate multiply and add (two roundings) appears in no
//!   body.
//! - **Why the portable body is compiled twice.** Baseline x86-64 has no
//!   FMA instruction, so a baseline-compiled `mul_add` is a libm `fmaf`
//!   call per element (same bits; 3.2 ns against 0.16 ns a step in an
//!   8-lane dot on the development host). Under `fma` the same source
//!   vectorises at AVX width.
//!
//! Consequently `SCNN_SIMD=scalar`, `avx2` and `avx512` produce
//! bit-identical tensors at any `SCNN_THREADS` — a tested contract
//! (`simd_props`), which is what lets the ISA choice be a pure
//! performance decision.

use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Number of independent accumulator lanes of one dot output — exactly
/// the f32 width of one AVX2 register (half an AVX-512 one).
pub(crate) const LANES: usize = 8;


/// Which micro-kernel implementation set is executing. The levels are
/// ordered: a host that runs one runs every level below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// The portable `[f32; 8]` instantiations (compile anywhere;
    /// autovectorized at the build's baseline width, or at AVX width on an
    /// FMA host).
    Scalar,
    /// The 256-bit instantiations (x86-64 with AVX2+FMA only).
    Avx2,
    /// The 512-bit instantiations of every primitive, the elementwise
    /// passes included (x86-64 with AVX-512 F and DQ, plus AVX2+FMA).
    Avx512,
}

impl SimdLevel {
    /// Every level, lowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable lowercase name — the `SCNN_SIMD` value that forces the level
    /// and the suffix of per-ISA bench records.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// f32 lanes of the level's register: sixteen at AVX-512, else eight.
    pub(crate) fn lanes(self) -> usize {
        match self {
            SimdLevel::Avx512 => 2 * LANES,
            _ => LANES,
        }
    }
}

/// In-process override: 0 = none, else `1 +` the level's index in
/// [`SimdLevel::ALL`]. A process-global (not thread-local) because kernels
/// run on pool worker threads; flipping it mid-run is safe precisely
/// because every level is bit-identical.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The highest level this host can execute.
pub fn detected_level() -> SimdLevel {
    static DETECTED: OnceLock<SimdLevel> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx2") && host_has_fma() {
                if std::is_x86_feature_detected!("avx512f")
                    && std::is_x86_feature_detected!("avx512dq")
                {
                    return SimdLevel::Avx512;
                }
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// `true` when this host can execute `level` — the levels the identity
/// suites and the per-ISA benches iterate over.
pub fn supports(level: SimdLevel) -> bool {
    level <= detected_level()
}

/// `true` when this host executes FMA instructions — what every level's
/// chain step needs to be one instruction: the vector levels are gated on
/// it through [`detected_level`], and the scalar level picks its
/// `#[target_feature(enable = "fma")]` instantiation over the baseline one
/// with it (one cached load and one predictable branch per call, outside
/// the body's loops).
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn host_has_fma() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::is_x86_feature_detected!("fma"))
}

/// The `SCNN_SIMD` environment knob, read once: `Some(level)` for an
/// explicit `scalar`/`avx2`/`avx512`, `None` for `auto`/unset. An
/// unrecognized value warns once with the accepted values and degrades to
/// auto detection: a misspelled knob must not take the process down, but
/// it must not be silent either.
///
/// # Panics
///
/// Panics on a level the host cannot execute — a forced-but-impossible
/// knob must still fail loudly, not silently fall back and invalidate an
/// A/B measurement.
fn env_level() -> Option<SimdLevel> {
    static ENV: OnceLock<Option<SimdLevel>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let v = std::env::var("SCNN_SIMD").ok()?;
        if v.is_empty() || v.eq_ignore_ascii_case("auto") {
            return None;
        }
        let Some(level) = SimdLevel::ALL
            .into_iter()
            .find(|l| v.eq_ignore_ascii_case(l.name()))
        else {
            // The OnceLock evaluates this at most once per process, so the
            // warning cannot repeat per kernel call.
            eprintln!(
                "scnn-tensor: ignoring unrecognized SCNN_SIMD={v:?} \
                 (accepted: scalar|avx2|avx512|auto); using auto detection"
            );
            return None;
        };
        assert!(
            supports(level),
            "SCNN_SIMD={v} but this host cannot execute that level"
        );
        Some(level)
    })
}

/// Forces an implementation set process-wide (`None` restores the
/// `SCNN_SIMD`/detection default). For A/B benches and the `simd_props`
/// identity suite; results are unaffected by construction.
///
/// # Panics
///
/// Panics when forcing a level the host cannot execute ([`supports`]).
pub fn force_level(level: Option<SimdLevel>) {
    let code = match level {
        None => 0,
        Some(level) => {
            assert!(
                supports(level),
                "cannot force {} kernels: host does not support them",
                level.name()
            );
            1 + level as u8
        }
    };
    FORCED.store(code, Ordering::Relaxed);
}

/// The implementation set the next kernel call will run: the
/// [`force_level`] override if set, else `SCNN_SIMD`, else detection.
pub fn active_level() -> SimdLevel {
    match FORCED.load(Ordering::Relaxed) {
        0 => env_level().unwrap_or_else(detected_level),
        code => SimdLevel::ALL[usize::from(code - 1)],
    }
}

/// Reduces the 8 lanes with a fixed pairwise tree, then folds the scalar
/// tail. The evaluation order depends only on `k`, never on threads, on
/// the executing ISA, or on which register carried the lanes.
#[inline(always)]
fn lane_sum(acc: [f32; LANES], tail: f32) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    ((s0 + s2) + (s1 + s3)) + tail
}

/// One vector register of `N` f32 lanes — everything a kernel body knows
/// of the ISA. The lane-wise methods treat every lane alike, so no chain
/// can tell the width; the dot methods see the register as `COLS = N / 8`
/// groups of eight lanes, one [`dot_panel`] output's accumulators each.
///
/// # Safety
///
/// Every method is `unsafe` with one contract: it runs inside a
/// `dispatch!` entry whose `target_feature`s cover the impl's ISA, and
/// every pointer it is given addresses the floats it accesses — for a
/// masked method only the mask's lanes, which are all it touches. A masked
/// method's base pointer may itself lie outside the buffer (a lane-0
/// address formed with `wrapping_offset`), so no impl may offset it with
/// `add` or `offset`, which assume it lies inside.
pub(crate) trait Lanes: Copy {
    /// f32 lanes per register.
    const N: usize;
    /// Dot outputs per register.
    const COLS: usize = Self::N / LANES;
    /// One dot output's eight lanes.
    type Eight: Eight;
    /// A set of lanes, in the form the masked methods take it.
    type Mask: Copy;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// The lanes whose bits are set in `bits` (bit `i` is lane `i`, any
    /// pattern).
    unsafe fn mask(bits: u32) -> Self::Mask;
    /// [`Lanes::load`] of the mask's lanes; the others read 0.0 and their
    /// addresses are not touched.
    unsafe fn load_masked(p: *const f32, mask: Self::Mask) -> Self;
    /// [`Lanes::load_masked`] where all `N` addresses may be read: one
    /// plain load with the other lanes cleared, where the ISA has no
    /// masked load as cheap.
    unsafe fn load_and(p: *const f32, mask: Self::Mask) -> Self;
    /// `self` with the mask's lanes loaded from `p`, as
    /// [`Lanes::load_masked`].
    unsafe fn merge_masked(self, p: *const f32, mask: Self::Mask) -> Self;
    unsafe fn store_masked(self, p: *mut f32, mask: Self::Mask);
    /// The chain step: `a·b + c`, rounded once.
    unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    unsafe fn add(a: Self, b: Self) -> Self;
    /// `self + x` in the mask's lanes; the others keep `self`.
    unsafe fn add_masked(self, mask: Self::Mask, x: Self) -> Self;
    unsafe fn sub(a: Self, b: Self) -> Self;
    /// `p[..8]` in every group: one lane step of an `a` row, against
    /// every output the register carries.
    unsafe fn dup8(p: *const f32) -> Self;
    /// `rows[g][p..p + 8]` in group `g`: one lane step of `COLS` `b` rows.
    unsafe fn cols8(rows: &[*const f32], p: usize) -> Self;
    /// Group `g < COLS`.
    unsafe fn eight(self, g: usize) -> Self::Eight;
}

/// Eight f32 lanes: one [`dot_panel`] output's lane accumulators and the
/// [`lane_sum`] tree over them — the same operand pairs in the same order
/// at every width — and the 8 × 8 block the transposing moves use (which
/// move bits and compute nothing).
pub(crate) trait Eight: Copy {
    unsafe fn sum(self, tail: f32) -> f32;
    /// [`Eight::sum`] of four outputs at once.
    unsafe fn sum4(x: [Self; 4], tails: [f32; 4]) -> [f32; 4];
    unsafe fn load8(p: *const f32) -> Self;
    unsafe fn store8(self, p: *mut f32);
    /// Lane `j` of row `i` of the result is lane `i` of row `j` of `rows`.
    unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8];
}

/// The portable register: a plain array the `fma` instantiation
/// vectorises at AVX width.
impl Lanes for [f32; LANES] {
    const N: usize = LANES;
    type Eight = Self;
    /// All ones in a lane of the mask, zero elsewhere.
    type Mask = [u32; LANES];
    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; LANES]
    }
    #[inline(always)]
    unsafe fn splat(x: f32) -> Self {
        [x; LANES]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        p.cast::<Self>().read_unaligned()
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        p.cast::<Self>().write_unaligned(self)
    }
    #[inline(always)]
    unsafe fn mask(bits: u32) -> [u32; LANES] {
        std::array::from_fn(|l| 0u32.wrapping_sub(bits >> l & 1))
    }
    #[inline(always)]
    unsafe fn load_masked(p: *const f32, mask: [u32; LANES]) -> Self {
        Self::zero().merge_masked(p, mask)
    }
    #[inline(always)]
    unsafe fn load_and(p: *const f32, mask: [u32; LANES]) -> Self {
        let mut v = Self::load(p);
        for (v, m) in v.iter_mut().zip(mask) {
            *v = f32::from_bits(v.to_bits() & m);
        }
        v
    }
    #[inline(always)]
    unsafe fn merge_masked(mut self, p: *const f32, mask: [u32; LANES]) -> Self {
        for (l, v) in self.iter_mut().enumerate() {
            if mask[l] != 0 {
                *v = *p.wrapping_add(l);
            }
        }
        self
    }
    #[inline(always)]
    unsafe fn store_masked(self, p: *mut f32, mask: [u32; LANES]) {
        for (l, &v) in self.iter().enumerate() {
            if mask[l] != 0 {
                *p.wrapping_add(l) = v;
            }
        }
    }
    #[inline(always)]
    unsafe fn fma(a: Self, b: Self, mut c: Self) -> Self {
        for l in 0..LANES {
            c[l] = a[l].mul_add(b[l], c[l]);
        }
        c
    }
    #[inline(always)]
    unsafe fn add(mut a: Self, b: Self) -> Self {
        for l in 0..LANES {
            a[l] += b[l];
        }
        a
    }
    #[inline(always)]
    unsafe fn sub(mut a: Self, b: Self) -> Self {
        for l in 0..LANES {
            a[l] -= b[l];
        }
        a
    }
    #[inline(always)]
    unsafe fn add_masked(mut self, mask: [u32; LANES], x: Self) -> Self {
        for l in 0..LANES {
            let sum = self[l] + x[l];
            self[l] = if mask[l] != 0 { sum } else { self[l] };
        }
        self
    }
    #[inline(always)]
    unsafe fn dup8(p: *const f32) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn cols8(rows: &[*const f32], p: usize) -> Self {
        Self::load(rows[0].add(p))
    }
    #[inline(always)]
    unsafe fn eight(self, _: usize) -> Self {
        self
    }
}

impl Eight for [f32; LANES] {
    #[inline(always)]
    unsafe fn sum(self, tail: f32) -> f32 {
        lane_sum(self, tail)
    }
    #[inline(always)]
    unsafe fn sum4(x: [Self; 4], tails: [f32; 4]) -> [f32; 4] {
        std::array::from_fn(|i| lane_sum(x[i], tails[i]))
    }
    #[inline(always)]
    unsafe fn load8(p: *const f32) -> Self {
        Self::load(p)
    }
    #[inline(always)]
    unsafe fn store8(self, p: *mut f32) {
        self.store(p)
    }
    #[inline(always)]
    unsafe fn transpose8(rows: [Self; 8]) -> [Self; 8] {
        std::array::from_fn(|i| std::array::from_fn(|j| rows[j][i]))
    }
}

/// The x86-64 registers. Their methods carry no `target_feature` of their
/// own: they are `#[inline(always)]` into a body that is itself inlined
/// into a `dispatch!` entry of their ISA, where every intrinsic inlines.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Eight, Lanes, LANES};
    use core::arch::x86_64::*;

    /// Eight lanes: one dot output per register.
    impl Lanes for __m256 {
        const N: usize = LANES;
        type Eight = Self;
        /// All ones in a lane of the mask, zero elsewhere.
        type Mask = __m256i;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn mask(bits: u32) -> __m256i {
            let bit = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), bit), bit)
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, mask: __m256i) -> Self {
            _mm256_maskload_ps(p, mask)
        }
        #[inline(always)]
        unsafe fn load_and(p: *const f32, mask: __m256i) -> Self {
            _mm256_and_ps(_mm256_loadu_ps(p), _mm256_castsi256_ps(mask))
        }
        #[inline(always)]
        unsafe fn merge_masked(self, p: *const f32, mask: __m256i) -> Self {
            let m = _mm256_castsi256_ps(mask);
            _mm256_blendv_ps(self, _mm256_maskload_ps(p, mask), m)
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, mask: __m256i) {
            _mm256_maskstore_ps(p, mask, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm256_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm256_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn add_masked(self, mask: __m256i, x: Self) -> Self {
            _mm256_blendv_ps(self, _mm256_add_ps(self, x), _mm256_castsi256_ps(mask))
        }
        #[inline(always)]
        unsafe fn dup8(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn cols8(rows: &[*const f32], p: usize) -> Self {
            _mm256_loadu_ps(rows[0].add(p))
        }
        #[inline(always)]
        unsafe fn eight(self, _: usize) -> Self {
            self
        }
    }

    /// The tree in the vector unit: the 128-bit halves add to
    /// `[s0, s1, s2, s3]` (lane `l` plus lane `l + 4`), the upper pair
    /// folds onto the lower (`s0 + s2`, `s1 + s3`), those two add, then the
    /// tail.
    impl Eight for __m256 {
        #[inline(always)]
        unsafe fn sum(self, tail: f32) -> f32 {
            let s = _mm_add_ps(
                _mm256_castps256_ps128(self),
                _mm256_extractf128_ps::<1>(self),
            );
            let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
            let u = _mm_add_ss(t, _mm_shuffle_ps::<1>(t, t));
            _mm_cvtss_f32(u) + tail
        }
        /// The halves add as in [`Eight::sum`], a 4×4 transpose lines up
        /// element `i` of every sum in row `i`, and
        /// `(row0 + row2) + (row1 + row3)` then `+ tails` is the same tree
        /// on four dots per instruction.
        #[inline(always)]
        unsafe fn sum4(x: [Self; 4], tails: [f32; 4]) -> [f32; 4] {
            let half =
                |x: __m256| _mm_add_ps(_mm256_castps256_ps128(x), _mm256_extractf128_ps::<1>(x));
            let (s0, s1, s2, s3) = (half(x[0]), half(x[1]), half(x[2]), half(x[3]));
            let (t0, t1) = (_mm_unpacklo_ps(s0, s1), _mm_unpackhi_ps(s0, s1));
            let (t2, t3) = (_mm_unpacklo_ps(s2, s3), _mm_unpackhi_ps(s2, s3));
            let (r0, r1) = (_mm_movelh_ps(t0, t2), _mm_movehl_ps(t2, t0));
            let (r2, r3) = (_mm_movelh_ps(t1, t3), _mm_movehl_ps(t3, t1));
            let sum = _mm_add_ps(_mm_add_ps(r0, r2), _mm_add_ps(r1, r3));
            let mut out = [0.0f32; 4];
            _mm_storeu_ps(
                out.as_mut_ptr(),
                _mm_add_ps(sum, _mm_loadu_ps(tails.as_ptr())),
            );
            out
        }
        #[inline(always)]
        unsafe fn load8(p: *const f32) -> Self {
            _mm256_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store8(self, p: *mut f32) {
            _mm256_storeu_ps(p, self)
        }
        /// Pairs of rows interleave (`unpack`), quads combine (`shuffle`),
        /// and the 128-bit halves swap across (`permute2f128`).
        #[inline(always)]
        unsafe fn transpose8(r: [Self; 8]) -> [Self; 8] {
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ]
        }
    }

    /// Sixteen lanes: two dot outputs per register, the first in the low
    /// half and the second in the high half, against the `a` row
    /// broadcast to both.
    impl Lanes for __m512 {
        const N: usize = 2 * LANES;
        type Eight = __m256;
        type Mask = __mmask16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm512_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm512_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            _mm512_loadu_ps(p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm512_storeu_ps(p, self)
        }
        #[inline(always)]
        unsafe fn mask(bits: u32) -> __mmask16 {
            bits as __mmask16
        }
        #[inline(always)]
        unsafe fn load_masked(p: *const f32, mask: __mmask16) -> Self {
            _mm512_maskz_loadu_ps(mask, p)
        }
        #[inline(always)]
        unsafe fn load_and(p: *const f32, mask: __mmask16) -> Self {
            _mm512_maskz_loadu_ps(mask, p)
        }
        #[inline(always)]
        unsafe fn merge_masked(self, p: *const f32, mask: __mmask16) -> Self {
            _mm512_mask_loadu_ps(self, mask, p)
        }
        #[inline(always)]
        unsafe fn store_masked(self, p: *mut f32, mask: __mmask16) {
            _mm512_mask_storeu_ps(p, mask, self)
        }
        #[inline(always)]
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
            _mm512_fmadd_ps(a, b, c)
        }
        #[inline(always)]
        unsafe fn add(a: Self, b: Self) -> Self {
            _mm512_add_ps(a, b)
        }
        #[inline(always)]
        unsafe fn sub(a: Self, b: Self) -> Self {
            _mm512_sub_ps(a, b)
        }
        #[inline(always)]
        unsafe fn add_masked(self, mask: __mmask16, x: Self) -> Self {
            _mm512_mask_add_ps(self, mask, self, x)
        }
        #[inline(always)]
        unsafe fn dup8(p: *const f32) -> Self {
            _mm512_broadcast_f32x8(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn cols8(rows: &[*const f32], p: usize) -> Self {
            let lo = _mm512_castps256_ps512(_mm256_loadu_ps(rows[0].add(p)));
            _mm512_insertf32x8::<1>(lo, _mm256_loadu_ps(rows[1].add(p)))
        }
        #[inline(always)]
        unsafe fn eight(self, g: usize) -> __m256 {
            if g == 0 {
                _mm512_castps512_ps256(self)
            } else {
                _mm512_extractf32x8_ps::<1>(self)
            }
        }
    }
}

/// Runs the generic kernel body `$body` at the active level — or at the
/// level `at $level;` names, for a caller that reads it once and sizes
/// its work to the level's lanes — with the const parameters listed for
/// it per level (AVX-512; AVX2; portable): three `#[target_feature]`
/// entries — `__m512` under AVX-512, `__m256` under AVX2+FMA, `[f32; 8]`
/// under FMA — and a baseline `[f32; 8]` entry for a host without FMA and
/// for every other architecture. Each entry is a function of its own, so
/// the dispatcher stays a few instructions. The caller has checked every
/// extent the body addresses.
macro_rules! dispatch {
    ($body:ident::<$($z:literal),*; $($y:literal),*; $($p:literal),*>($($arg:ident: $ty:ty),* $(,)?)) => {
        $crate::simd::dispatch!(at $crate::simd::active_level(); $body::<$($z),*; $($y),*; $($p),*>($($arg: $ty),*))
    };
    (at $level:expr; $body:ident::<$($z:literal),*; $($y:literal),*; $($p:literal),*>($($arg:ident: $ty:ty),* $(,)?)) => {{
        #[cfg(target_arch = "x86_64")]
        {
            use core::arch::x86_64::{__m256, __m512};
            use $crate::simd::SimdLevel;
            #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx512($($arg: $ty),*) {
                $body::<__m512, $($z),*>($($arg),*)
            }
            #[target_feature(enable = "avx2,fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn avx2($($arg: $ty),*) {
                $body::<__m256, $($y),*>($($arg),*)
            }
            #[target_feature(enable = "fma")]
            #[allow(clippy::too_many_arguments)]
            unsafe fn fused($($arg: $ty),*) {
                $body::<[f32; $crate::simd::LANES], $($p),*>($($arg),*)
            }
            match $level {
                // SAFETY: the level is only active on a host with AVX-512
                // F+DQ and AVX2+FMA; the caller checked every extent.
                SimdLevel::Avx512 => return unsafe { avx512($($arg),*) },
                // SAFETY: AVX2+FMA presence established; the caller
                // checked every extent.
                SimdLevel::Avx2 => return unsafe { avx2($($arg),*) },
                // SAFETY: the host executes FMA; the caller checked every
                // extent.
                SimdLevel::Scalar if $crate::simd::host_has_fma() => return unsafe { fused($($arg),*) },
                SimdLevel::Scalar => {}
            }
        }
        #[inline(never)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn baseline($($arg: $ty),*) {
            $body::<[f32; $crate::simd::LANES], $($p),*>($($arg),*)
        }
        // SAFETY: the portable body needs no ISA; the caller checked every
        // extent.
        unsafe { baseline($($arg),*) }
    }};
}
pub(crate) use dispatch;

/// `(count - 1) · stride`, the offset of the last of `count ≥ 1` strided
/// items, or `None` where it overflows: the extent checks below form
/// every bound with checked arithmetic, so no operand can pass them by
/// wrapping.
fn last_at(count: usize, stride: usize) -> Option<usize> {
    (count - 1).checked_mul(stride)
}

/// `true` when `end` exists and is at most `len`.
fn within(end: Option<usize>, len: usize) -> bool {
    end.is_some_and(|end| end <= len)
}

/// Rows of `a` whose lane accumulators one group of [`dot_panel`]'s walk
/// carries between shared-dimension blocks (a multiple of every level's
/// row tile): 24 rows × four registers are at most 6 KiB of stack, and
/// every block of `b` loaded into L1 is used 24 times before the next one
/// replaces it.
const PANEL_ROWS: usize = 24;

/// Upper bound on [`dot_panel`]'s shared-dimension block, in floats: one
/// block of four `b` rows is 8 KiB and stays in L1 while the same block of
/// a row group's `a` rows (48 KiB) streams past it. Longer blocks measured
/// no faster; 256 was ~3 % slower on the conv forward (the lane
/// accumulators move through memory once per block).
const PANEL_KB: usize = 512;

/// Most registers in one [`dot_panel`] column group.
const GROUP_REGS: usize = 4;

/// Most columns in one [`dot_panel`] column group: four registers of two.
const GROUP_COLS: usize = 8;

/// The dot-form GEMM: `out[r·out_rs + j·out_cs] = dot8(a_r, b_j) (+ bias[j])`
/// for `r < m`, `j < n`, where `a_r = a[r·lda ..][..k]` and
/// `b_j = b[j·ldb ..][..k]` — `matmul_a_bt`, and the tiled conv forward
/// with `a` a packed patch panel and `b` the weight matrix.
///
/// `dot8` is the blocked dot product: every output element is exactly
/// [`lane_sum`] over its eight lanes — lane `l` accumulates `a_r[p]·b_j[p]`
/// for `p ≡ l (mod 8)`, `p` ascending, one fused step each — then the
/// sequential `k mod 8` tail, then one bias add. The
/// loop nest around that ([`dot_walk`]) only decides which operand is in
/// cache or in a register when; a lane's chain never sees it. The
/// `(out_rs, out_cs)` stride pair lets the result land row-major (`n`, 1)
/// or channel-major (1, rows), so neither caller transposes.
///
/// # Panics
///
/// Panics if `lda < k`, `ldb < k`, `bias` is not `n` long, or an operand
/// is too short for the addressed extent (checked once, up front).
#[allow(clippy::too_many_arguments)]
pub fn dot_panel(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    out_rs: usize,
    out_cs: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    assert!(lda >= k && ldb >= k, "dot_panel leading dimension below k");
    let rows_end = |count, ld| last_at(count, ld).and_then(|at: usize| at.checked_add(k));
    assert!(within(rows_end(m, lda), a.len()), "dot_panel lhs too short");
    assert!(within(rows_end(n, ldb), b.len()), "dot_panel rhs too short");
    let out_last = last_at(m, out_rs).zip(last_at(n, out_cs));
    assert!(
        out_last
            .and_then(|(r, c)| r.checked_add(c))
            .is_some_and(|last| last < out.len()),
        "dot_panel out too short"
    );
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "dot_panel bias length");
    }
    dispatch!(dot_walk::<4; 3; 3>(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        bias: Option<&[f32]>,
        out: &mut [f32],
        out_rs: usize,
        out_cs: usize,
    ))
}

/// The one body of [`dot_panel`]. Column groups of four registers, then
/// two, then one — `4 · COLS`, `2 · COLS` and `COLS` columns — each a
/// `b`-stationary pass of [`dot_group`]; a short last group repeats the
/// last column in its spare slots and drops their outputs. `ROWS` is the
/// level's register-tile height (at most 4).
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA, with arguments that
/// passed [`dot_panel`]'s checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn dot_walk<L: Lanes, const ROWS: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    out_rs: usize,
    out_cs: usize,
) {
    // One shared-dimension block of a column group's registers of `b`,
    // step by step, reused by every group and left uninitialised: with
    // `COLS > 1` a block's first tile writes every slot its other tiles
    // read; with one column per register nothing is packed (a register
    // is one load of one row already).
    let mut packed = MaybeUninit::<[L; GROUP_REGS * PANEL_KB / LANES]>::uninit();
    let packed = packed.as_mut_ptr().cast::<L>();
    let mut j = 0;
    while j < n {
        macro_rules! group {
            ($regs:expr) => {{
                dot_group::<L, ROWS, { $regs }>(
                    m, n, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j, packed,
                );
                $regs
            }};
        }
        let regs = match (n - j).div_ceil(L::COLS) {
            1 => group!(1),
            2 | 3 => group!(2),
            _ => group!(GROUP_REGS),
        };
        j += regs * L::COLS;
    }
}

/// Columns `j0 ..` of [`dot_panel`] in `G` registers, for every row of
/// `a`: the group's rows of `b` stay put while groups of [`PANEL_ROWS`]
/// `a` rows pass them one shared-dimension block at a time, `ROWS` rows
/// per register tile. A row's `G` registers rest in the group's array
/// between blocks and take each block's steps in registers, `p`
/// ascending per lane, so a block of `b` is read into L1 once per row
/// group, and a block of the group's `a` rows once per column group.
/// Slot `s` of the group holds column `min(j0 + s, n - 1)`; `packed` is
/// [`dot_walk`]'s pack block.
///
/// # Safety
///
/// As [`dot_walk`], with `j0 < n` and `packed` holding a pack block.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn dot_group<L: Lanes, const ROWS: usize, const G: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    out_rs: usize,
    out_cs: usize,
    j0: usize,
    packed: *mut L,
) {
    const { assert!(ROWS <= 4 && G <= GROUP_REGS && G * L::COLS <= GROUP_COLS) };
    let slots = G * L::COLS;
    let col = |s: usize| (j0 + s).min(n - 1);
    let k8 = k / LANES * LANES;
    let kb = panel_block(k8);
    let bp: [*const f32; GROUP_COLS] = std::array::from_fn(|s| b.as_ptr().add(col(s) * ldb));
    // The slots' lane tails, transposed: one vector of slots per tail
    // element, so a row's tails accumulate every slot per step.
    let mut btail = [[0.0f32; GROUP_COLS]; LANES - 1];
    for (i, ys) in btail[..k - k8].iter_mut().enumerate() {
        for (s, y) in ys[..slots].iter_mut().enumerate() {
            *y = b[col(s) * ldb + k8 + i];
        }
    }
    let mut acc = [[L::zero(); G]; PANEL_ROWS];
    for r0 in (0..m).step_by(PANEL_ROWS) {
        let rows = PANEL_ROWS.min(m - r0);
        acc[..rows].fill([L::zero(); G]);
        for p0 in (0..k8).step_by(kb) {
            let p1 = (p0 + kb).min(k8);
            let (mut r, mut ap) = (0, a.as_ptr().add(r0 * lda));
            while r < rows {
                let h = ROWS.min(rows - r);
                let acc = &mut acc[r..];
                macro_rules! tile {
                    ($rows:literal, $pack:literal) => {
                        dot_tile::<L, $rows, G, $pack>(acc, ap, lda, &bp, packed, p0, p1)
                    };
                }
                match (h, L::COLS > 1 && r == 0) {
                    (4, true) => tile!(4, true),
                    (4, false) => tile!(4, false),
                    (3, true) => tile!(3, true),
                    (3, false) => tile!(3, false),
                    (2, true) => tile!(2, true),
                    (2, false) => tile!(2, false),
                    (_, true) => tile!(1, true),
                    (_, false) => tile!(1, false),
                }
                (r, ap) = (r + h, ap.add(h * lda));
            }
        }
        for (r, regs) in acc[..rows].iter().enumerate() {
            let (row, at) = (r0 + r, (r0 + r) * lda);
            let mut tails = [0.0f32; GROUP_COLS];
            for (&x, ys) in a[at + k8..at + k].iter().zip(&btail) {
                for (tail, &y) in tails[..slots].iter_mut().zip(ys) {
                    *tail = x.mul_add(y, *tail);
                }
            }
            let eight = |s: usize| regs[s / L::COLS].eight(s % L::COLS);
            let mut sums = [0.0f32; GROUP_COLS];
            if slots.is_multiple_of(4) {
                for s in (0..slots).step_by(4) {
                    let four = L::Eight::sum4(
                        std::array::from_fn(|i| eight(s + i)),
                        std::array::from_fn(|i| tails[s + i]),
                    );
                    sums[s..s + 4].copy_from_slice(&four);
                }
            } else {
                for (s, sum) in sums[..slots].iter_mut().enumerate() {
                    *sum = eight(s).sum(tails[s]);
                }
            }
            for (s, &v) in sums[..slots.min(n - j0)].iter().enumerate() {
                let j = j0 + s;
                out[row * out_rs + j * out_cs] = bias.map_or(v, |bias| v + bias[j]);
            }
        }
    }
}

/// [`dot_panel`]'s shared-dimension block for `k8` lane-step floats:
/// equal blocks of whole lane steps, none above [`PANEL_KB`].
fn panel_block(k8: usize) -> usize {
    k8.div_ceil(k8.div_ceil(PANEL_KB).max(1))
        .next_multiple_of(LANES)
        .max(LANES)
}

/// One `R`-row × `G`-register tile of [`dot_group`]: lane steps `p0..p1`
/// of `R` consecutive `a` rows, each repeated across the register's
/// groups, against the column group's registers of `b`, continuing the
/// accumulators in `acc`. With one column per register a `b` register is
/// one load of its row. With more, a register gathers a row per group:
/// the block's first tile (`PACK`) gathers each and stores it into
/// `packed` as it is used, and the block's other tiles load it whole.
/// Packing inside the first tile lets the reads of `b`, often from
/// outside L2, overlap that tile's multiply-adds.
///
/// # Safety
///
/// As [`dot_walk`]; `a` addresses `R` rows `lda` apart and `bp` rows of
/// `b`, each holding at least `p1` floats, and `packed` holds
/// `(p1 - p0) / 8 · G` registers, which the block's `PACK` tile writes
/// before any other tile of the block reads them.
#[inline(always)]
unsafe fn dot_tile<L: Lanes, const R: usize, const G: usize, const PACK: bool>(
    acc: &mut [[L; G]],
    a: *const f32,
    lda: usize,
    bp: &[*const f32; GROUP_COLS],
    packed: *mut L,
    p0: usize,
    p1: usize,
) {
    let mut c: [[L; G]; R] = std::array::from_fn(|r| acc[r]);
    for (s, p) in (p0..p1).step_by(LANES).enumerate() {
        let va: [L; R] = std::array::from_fn(|r| L::dup8(a.add(r * lda + p)));
        for q in 0..G {
            let vb = if L::COLS > 1 && !PACK {
                packed.add(s * G + q).read()
            } else {
                let v = L::cols8(&bp[q * L::COLS..], p);
                if PACK {
                    packed.add(s * G + q).write(v);
                }
                v
            };
            for (row, &x) in c.iter_mut().zip(&va) {
                row[q] = L::fma(x, vb, row[q]);
            }
        }
    }
    acc[..R].copy_from_slice(&c);
}

/// `y[i] += x[i]` — the partial-block folds of `matmul_at_b` and the conv
/// `dw`. Elementwise, hence width-independent bits.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub(crate) fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(x.len(), y.len(), "add_assign operand length mismatch");
    let (n, dst, b) = (y.len(), y.as_mut_ptr(), x.as_ptr());
    let a = dst.cast_const();
    dispatch!(zip::<false; false; false>(dst: *mut f32, a: *const f32, b: *const f32, n: usize))
}

/// `dst[i] = a[i] + b[i]` — the Winograd transform combinator: the
/// F(2×2, 3×3) input/output transforms are pure ±1 linear combinations of
/// tile planes, evaluated as whole-row adds/subs over the tile-batch
/// dimension. Elementwise, hence width-independent bits.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub(crate) fn vadd(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), dst.len(), "vadd operand length mismatch");
    assert_eq!(b.len(), dst.len(), "vadd operand length mismatch");
    let (n, dst, a, b) = (dst.len(), dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    dispatch!(zip::<false; false; false>(dst: *mut f32, a: *const f32, b: *const f32, n: usize))
}

/// `dst[i] = a[i] - b[i]` — see [`vadd`].
///
/// # Panics
///
/// Panics if the slices' lengths differ.
#[inline]
pub(crate) fn vsub(dst: &mut [f32], a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), dst.len(), "vsub operand length mismatch");
    assert_eq!(b.len(), dst.len(), "vsub operand length mismatch");
    let (n, dst, a, b) = (dst.len(), dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    dispatch!(zip::<true; true; true>(dst: *mut f32, a: *const f32, b: *const f32, n: usize))
}

/// The one body of the elementwise passes: `dst[i] = a[i] ± b[i]` for
/// `i < n` (a difference with `SUB`), whole registers, then the last
/// `n mod N` elements as one masked register. `dst` may be `a`.
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA; `dst`, `a` and `b`
/// address `n` floats each.
#[inline(always)]
unsafe fn zip<L: Lanes, const SUB: bool>(dst: *mut f32, a: *const f32, b: *const f32, n: usize) {
    let op = |x, y| if SUB { L::sub(x, y) } else { L::add(x, y) };
    let mut i = 0;
    while i + L::N <= n {
        op(L::load(a.add(i)), L::load(b.add(i))).store(dst.add(i));
        i += L::N;
    }
    if i < n {
        let mask = L::mask((1 << (n - i)) - 1);
        let (x, y) = (
            L::load_masked(a.add(i), mask),
            L::load_masked(b.add(i), mask),
        );
        op(x, y).store_masked(dst.add(i), mask);
    }
}

/// `dst[j·ldd + i] = src[i·lds + j]` for `i < rows`, `j < cols`: the
/// conv `dw`'s `[o, p] → [p, o]` turn of a block's `dy`. Whole 8 × 8
/// blocks move through registers ([`Eight::transpose8`]), the edges
/// element by element; it moves bits and computes nothing.
///
/// # Panics
///
/// Panics if `lds < cols`, `ldd < rows`, or either slice is too short for
/// the addressed extent.
pub(crate) fn transpose(
    rows: usize,
    cols: usize,
    src: &[f32],
    lds: usize,
    dst: &mut [f32],
    ldd: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(lds >= cols && ldd >= rows, "transpose leading dimension too small");
    let end = |count, ld, len: usize| last_at(count, ld).and_then(|at: usize| at.checked_add(len));
    assert!(within(end(rows, lds, cols), src.len()), "transpose source too short");
    assert!(within(end(cols, ldd, rows), dst.len()), "transpose destination too short");
    let (src, dst) = (src.as_ptr(), dst.as_mut_ptr());
    dispatch!(turn::<;;>(
        rows: usize,
        cols: usize,
        src: *const f32,
        lds: usize,
        dst: *mut f32,
        ldd: usize,
    ))
}

/// The one body of [`transpose`].
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA, with arguments that
/// passed [`transpose`]'s checks.
#[inline(always)]
unsafe fn turn<L: Lanes>(
    rows: usize,
    cols: usize,
    src: *const f32,
    lds: usize,
    dst: *mut f32,
    ldd: usize,
) {
    for i0 in (0..rows).step_by(LANES) {
        for j0 in (0..cols).step_by(LANES) {
            if i0 + LANES <= rows && j0 + LANES <= cols {
                let block: [L::Eight; 8] =
                    std::array::from_fn(|i| L::Eight::load8(src.add((i0 + i) * lds + j0)));
                for (j, col) in L::Eight::transpose8(block).iter().enumerate() {
                    col.store8(dst.add((j0 + j) * ldd + i0));
                }
                continue;
            }
            for i in i0..(i0 + LANES).min(rows) {
                for j in j0..(j0 + LANES).min(cols) {
                    *dst.add(j * ldd + i) = *src.add(i * lds + j);
                }
            }
        }
    }
}

/// Register-blocked rank-`k` update, the one inner loop of the direct
/// backward kernels (`matmul`, `matmul_at_b`; the conv `dw` runs its walk
/// through [`gather_acc`]):
///
/// `c[r·ldc + j] += Σ_p a[p·a_ps + r·a_rs] · b[p·ldb + j]` for `r < m`,
/// `j < n`, `p < k`.
///
/// Each output element evaluates `acc = fma(a, b, acc)` with `p` strictly
/// ascending — one fused multiply-add, one rounding, per step — starting
/// from the value already in `c`: exactly the chain a `p`-outer sequence of
/// fused `c_row = a·b_row + c_row` updates produces, so splitting `k` across
/// consecutive calls, or `m`/`n` across callers, cannot change a bit. What
/// the blocking buys is that a tile of `c` (`ROWS` rows by two registers:
/// 8×32 at AVX-512, 4×16 at AVX2 and in the portable body) stays in
/// registers for all `k` steps instead of crossing L1 once per step. Edges
/// run narrower and shorter tiles and one masked remainder register; the
/// tile an element lands in never alters its chain.
///
/// The `(a_rs, a_ps)` stride pair addresses `a` as stored — row-major
/// (`k`, 1), transposed (1, `m`), or an NCHW gradient read in place
/// (`oh·ow`, 1) / (1, `oh·ow`) — so no caller packs the left operand.
///
/// There is **no zero-skip**: a `0.0` factor takes its fused step like
/// any other. For finite operands a loop that skipped them would compute
/// the same values (`±0.0 + x == x`), and the same bits but for the sign
/// of an exact zero: a fused step whose non-zero product underflows rounds
/// a `+0.0` accumulator to `-0.0` (a separate multiply could not — its
/// `-0.0` product adds to `+0.0`), and the next `0·b = +0.0` step makes it
/// `+0.0` again where a skipping loop leaves it. A `0·inf` term yields NaN
/// where a skipping loop ignored it (DESIGN.md §14).
///
/// # Panics
///
/// Panics if `ldb < n`, `ldc < n`, or an operand is too short for the
/// addressed extent (checked once, up front).
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ps: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(ldb >= n && ldc >= n, "gemm_acc leading dimension below n");
    let a_last = last_at(k, a_ps).zip(last_at(m, a_rs));
    assert!(
        a_last
            .and_then(|(p, r)| p.checked_add(r))
            .is_some_and(|last| last < a.len()),
        "gemm_acc lhs too short"
    );
    let rows_end = |count, ld| last_at(count, ld).and_then(|at: usize| at.checked_add(n));
    assert!(within(rows_end(k, ldb), b.len()), "gemm_acc rhs too short");
    assert!(within(rows_end(m, ldc), c.len()), "gemm_acc out too short");
    dispatch!(gemm_walk::<8; 4; 4>(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
    ))
}

/// The one body of [`gemm_acc`]: its walk over a strided left operand.
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA, with arguments that
/// passed [`gemm_acc`]'s checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_walk<L: Lanes, const ROWS: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ps: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let a = Strided {
        a: a.as_ptr(),
        rs: a_rs,
        ps: a_ps,
    };
    walk::<L, ROWS, false>(m, n, k, a, b.as_ptr(), ldb, c.as_mut_ptr(), ldc, false)
}

/// [`gemm_acc`] with a *gathered* left operand and a *transposed* result:
/// `a[p, r]` is `src[at[p] + rows[r]]`, and output element `(r, j)` lives
/// at `c[j·ldc + r]`, so
///
/// `c[j·ldc + r] += Σ_p src[at[p] + rows[r]] · b[p·ldb + j]` for `r < m`,
/// `j < n`, `p < k`,
///
/// with [`gemm_acc`]'s chain per output element (one fused step per `p`,
/// ascending, from the value in `c` — or from +0.0 with `fresh`, which
/// reads nothing of `c`) and its tiles; a tile reads its block of `c` once
/// and writes it once, transposing on the way (the write of a tile of
/// eight full rows as 8 × 8 blocks in registers). The
/// conv `dw` runs on it with output channels as `j`: `src` is a
/// zero-bordered copy of a block's input rows (or the input itself),
/// `at[p]` the patch origin of output position `p`, `rows[r]` the offset
/// of patch column `r` from it — one broadcast load per patch element, no
/// pack, no bounds test — and `c` the `[oc, plen]` gradient.
///
/// # Panics
///
/// Panics if `at` is shorter than `k`, `rows` than `m`, `ldb < n`,
/// `ldc < m`, an `at[p] + rows[r]` lies outside `src`, or `b` or `c` is too
/// short for the addressed extent (all checked up front).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gather_acc(
    m: usize,
    n: usize,
    k: usize,
    src: &[f32],
    at: &[usize],
    rows: &[usize],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    fresh: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(at.len() >= k && rows.len() >= m, "gather_acc index tables too short");
    assert!(ldb >= n, "gather_acc leading dimension below n");
    let (at, rows) = (&at[..k], &rows[..m]);
    let reach = at
        .iter()
        .max()
        .zip(rows.iter().max())
        .and_then(|(p, r)| p.checked_add(*r));
    assert!(reach.is_some_and(|last| last < src.len()), "gather_acc lhs too short");
    let rows_end = |count, ld| last_at(count, ld).and_then(|at: usize| at.checked_add(n));
    assert!(ldc >= m, "gather_acc out leading dimension below m");
    assert!(within(rows_end(k, ldb), b.len()), "gather_acc rhs too short");
    let out_end = last_at(n, ldc).and_then(|at: usize| at.checked_add(m));
    assert!(within(out_end, c.len()), "gather_acc out too short");
    dispatch!(gather_walk::<8; 4; 4>(
        m: usize,
        n: usize,
        k: usize,
        src: &[f32],
        at: &[usize],
        rows: &[usize],
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
        fresh: bool,
    ))
}

/// The one body of [`gather_acc`]: [`gemm_acc`]'s walk over a gathered
/// left operand.
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA, with arguments that
/// passed [`gather_acc`]'s checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn gather_walk<L: Lanes, const ROWS: usize>(
    m: usize,
    n: usize,
    k: usize,
    src: &[f32],
    at: &[usize],
    rows: &[usize],
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    fresh: bool,
) {
    let a = Gathered {
        src: src.as_ptr(),
        rows: rows.as_ptr(),
        at: at.as_ptr(),
    };
    walk::<L, ROWS, true>(m, n, k, a, b.as_ptr(), ldb, c.as_mut_ptr(), ldc, fresh)
}

/// Where a rank-`k` walk reads its left operand: element `(p, r)` is
/// `*row(r).add(at(p))`. A tile resolves its rows once and each step's
/// offset once, so the addressing costs the same whichever form it takes.
///
/// # Safety
///
/// Both methods are called only with `r < m` and `p < k` of a call whose
/// extents were checked.
trait Lhs: Copy {
    unsafe fn row(self, r: usize) -> *const f32;
    unsafe fn at(self, p: usize) -> usize;
}

/// `a[p·ps + r·rs]`: row-major, transposed, or an NCHW tensor in place.
#[derive(Clone, Copy)]
struct Strided {
    a: *const f32,
    rs: usize,
    ps: usize,
}

impl Lhs for Strided {
    #[inline(always)]
    unsafe fn row(self, r: usize) -> *const f32 {
        self.a.add(r * self.rs)
    }
    #[inline(always)]
    unsafe fn at(self, p: usize) -> usize {
        p * self.ps
    }
}

/// `src[at[p] + rows[r]]` ([`gather_acc`]).
#[derive(Clone, Copy)]
struct Gathered {
    src: *const f32,
    rows: *const usize,
    at: *const usize,
}

impl Lhs for Gathered {
    #[inline(always)]
    unsafe fn row(self, r: usize) -> *const f32 {
        self.src.add(*self.rows.add(r))
    }
    #[inline(always)]
    unsafe fn at(self, p: usize) -> usize {
        *self.at.add(p)
    }
}

/// The walk of [`gemm_acc`] and [`gather_acc`]: `ROWS`-row bands of `2N`-
/// and `N`-column tiles and one masked remainder register. The walk keeps
/// the larger operand's tile in cache while the smaller streams past it:
/// with `m > n` (the conv `dw`, many patch columns against a few output
/// channels) a band of `a` rows crosses every column before the next band
/// is read; otherwise (`matmul_at_b`'s blocks) a strip of `b` columns meets
/// every band. With `T` the result is transposed ([`gather_acc`]).
///
/// # Safety
///
/// Runs inside a `dispatch!` entry of `L`'s ISA, with arguments that
/// passed the entry point's checks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn walk<L: Lanes, const ROWS: usize, const T: bool>(
    m: usize,
    n: usize,
    k: usize,
    a: impl Lhs,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    fresh: bool,
) {
    let mut j = 0;
    while j < n {
        let w = if m > n {
            n
        } else if n - j >= 2 * L::N {
            2 * L::N
        } else {
            (n - j).min(L::N)
        };
        bands::<L, ROWS, T>(m, j, j + w, k, a, b, ldb, c, ldc, fresh);
        j += w;
    }
}

/// Rows `0..m` × columns `j0..j1` of [`walk`], row band outer: `ROWS`-row
/// bands, one 4-row band where `ROWS` is taller, then single rows.
///
/// # Safety
///
/// As [`walk`], with `j0 < j1 <= n` and `b` and `c` at the operands'
/// first elements.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn bands<L: Lanes, const ROWS: usize, const T: bool>(
    m: usize,
    j0: usize,
    j1: usize,
    k: usize,
    a: impl Lhs,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    fresh: bool,
) {
    macro_rules! band {
        ($rows:expr, $r:expr) => {
            band::<L, { $rows }, T>($r, j0, j1, k, a, b, ldb, c, ldc, fresh)
        };
    }
    let mut r = 0;
    while r + ROWS <= m {
        band!(ROWS, r);
        r += ROWS;
    }
    if ROWS > 4 && r + 4 <= m {
        band!(4, r);
        r += 4;
    }
    while r < m {
        band!(1, r);
        r += 1;
    }
}

/// Columns `j0..j1` of the `R`-row band at row `r0`: two-register tiles,
/// a one-register one, then the remainder as one masked register.
///
/// # Safety
///
/// As [`bands`], for the band's `R` rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn band<L: Lanes, const R: usize, const T: bool>(
    r0: usize,
    j0: usize,
    j1: usize,
    k: usize,
    a: impl Lhs,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    ldc: usize,
    fresh: bool,
) {
    macro_rules! tile {
        ($regs:literal, $masked:literal, $j:expr, $cols:expr) => {
            tile::<L, R, $regs, $masked, T>(k, a, r0, b.add($j), ldb, c, $j, ldc, $cols, fresh)
        };
    }
    let mut j = j0;
    while j + 2 * L::N <= j1 {
        tile!(2, false, j, 0);
        j += 2 * L::N;
    }
    if j + L::N <= j1 {
        tile!(1, false, j, 0);
        j += L::N;
    }
    if j < j1 {
        tile!(1, true, j, j1 - j);
    }
}

/// Most lanes one tile spans: two registers of sixteen.
const TILE_LANES: usize = 32;

/// One `R`-row × `V`-register tile at `b`'s first column, rows `r0 ..` of
/// `a` and columns `j0 ..` of the result: the accumulators load from `c`
/// once, take all `k` fused steps in registers, and store once. With
/// `MASKED` the last register loads and stores only its first `cols`
/// lanes; the others compute on zeros and are never written. With `T`
/// element `(r, j)` is `c[j·ldc + r]` and moves through a stack block of
/// the tile, column by column; else it is `c[r·ldc + j]`.
///
/// # Safety
///
/// As [`band`]: `R` rows of `a` and of the result, `k` rows of `b`, and
/// the tile's `V` registers of result columns (of the last only its first
/// `cols` lanes with `MASKED`), lie inside the checked extent.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn tile<L: Lanes, const R: usize, const V: usize, const MASKED: bool, const T: bool>(
    k: usize,
    a: impl Lhs,
    r0: usize,
    b: *const f32,
    ldb: usize,
    c: *mut f32,
    j0: usize,
    ldc: usize,
    cols: usize,
    fresh: bool,
) {
    const { assert!(V * L::N <= TILE_LANES) };
    let mask = L::mask((1 << cols) - 1);
    let masked = |v: usize| MASKED && v + 1 == V;
    let load = |p: *const f32, v: usize| {
        if masked(v) {
            L::load_masked(p, mask)
        } else {
            L::load(p)
        }
    };
    let width = if MASKED { (V - 1) * L::N + cols } else { V * L::N };
    let at = |r: usize, j: usize| {
        if T {
            c.add((j0 + j) * ldc + r0 + r)
        } else {
            c.add((r0 + r) * ldc + j0 + j)
        }
    };
    // A fresh tile starts from +0.0 without reading `c`; a transposed one
    // reads through `block`, element by element. A transposed tile of
    // eight full rows writes back as 8 × 8 blocks in registers, any other
    // one through `block`.
    let mut block = [[0.0f32; TILE_LANES]; R];
    let mut acc = [[L::zero(); V]; R];
    if !fresh {
        if T {
            for j in 0..width {
                for (r, row) in block.iter_mut().enumerate() {
                    row[j] = *at(r, j);
                }
            }
        }
        for (r, row) in acc.iter_mut().enumerate() {
            for (v, x) in row.iter_mut().enumerate() {
                let p = if T { block[r].as_ptr() } else { at(r, 0).cast_const() };
                *x = load(p.add(v * L::N), v);
            }
        }
    }
    let rows: [*const f32; R] = std::array::from_fn(|r| a.row(r0 + r));
    for p in 0..k {
        let brow = b.add(p * ldb);
        let vb: [L; V] = std::array::from_fn(|v| load(brow.add(v * L::N), v));
        let at = a.at(p);
        for (row, &ar) in acc.iter_mut().zip(&rows) {
            let va = L::splat(*ar.add(at));
            for (x, &bv) in row.iter_mut().zip(&vb) {
                *x = L::fma(va, bv, *x);
            }
        }
    }
    if T && R == 8 && !MASKED {
        let regs: [[L; R]; V] = std::array::from_fn(|v| std::array::from_fn(|r| acc[r][v]));
        for (v, reg) in regs.iter().enumerate() {
            for g in 0..L::COLS {
                let rows = L::Eight::transpose8(std::array::from_fn(|r| reg[r].eight(g)));
                for (i, col) in rows.iter().enumerate() {
                    col.store8(at(0, v * L::N + g * LANES + i));
                }
            }
        }
        return;
    }
    for (r, row) in acc.iter().enumerate() {
        for (v, &x) in row.iter().enumerate() {
            let p = if T { block[r].as_mut_ptr() } else { at(r, 0) };
            if masked(v) {
                x.store_masked(p.add(v * L::N), mask);
            } else {
                x.store(p.add(v * L::N));
            }
        }
    }
    if T {
        for j in 0..width {
            for (r, row) in block.iter().enumerate() {
                *at(r, j) = row[j];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    /// Runs `f` under each level this host supports and asserts the
    /// results' bits agree. Restores the default afterwards.
    fn assert_levels_agree<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
        force_level(Some(SimdLevel::Scalar));
        let scalar = f();
        for level in SimdLevel::ALL.into_iter().filter(|&l| supports(l)) {
            force_level(Some(level));
            assert_eq!(scalar, f(), "scalar vs {} mismatch", level.name());
        }
        force_level(None);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn baseline_sweeps_match_their_dispatched_instantiations() {
        // On an FMA host every dispatched call at the scalar level takes a
        // body's `target_feature(enable = "fma")` instantiation; this test
        // function is compiled for baseline, so the `inline(always)` bodies
        // called here land as the other one — `fmaf` through libm on
        // x86-64, the only one elsewhere — which is what a host without FMA
        // runs. Every level must give its bits.
        type Portable = [f32; LANES];
        // dot_panel: one-, two- and four-register column groups, with and
        // without a repeated last column at 512 bits; row tiles of 4, 3, 2
        // and 1 on both sides of the 24-row group; every `k mod 8` class
        // and a two-block reduction.
        for (m, n, k) in [
            (1, 1, 1),
            (2, 3, 7),
            (3, 5, 9),
            (4, 8, 16),
            (25, 7, 23),
            (26, 13, 520),
        ] {
            let (lda, ldb) = (k + 1, k + 2);
            let (a, b, bias) = (fill(m * lda, 31), fill(n * ldb, 32), fill(n, 33));
            let mut want = vec![0.5f32; m * n];
            // SAFETY: `a` holds `m` rows of `lda ≥ k`, `b` `n` rows of
            // `ldb ≥ k`, and `want` is `m × n` row-major.
            unsafe {
                dot_walk::<Portable, 3>(m, n, k, &a, lda, &b, ldb, Some(&bias), &mut want, n, 1)
            };
            let want = bits(&want);
            assert_levels_agree(|| {
                let mut out = vec![0.5f32; m * n];
                dot_panel(m, n, k, &a, lda, &b, ldb, Some(&bias), &mut out, n, 1);
                assert_eq!(bits(&out), want, "dot_panel m={m} n={n} k={k}");
                bits(&out)
            });
        }
        // gemm_acc: two- and one-register tiles, the masked remainder,
        // 4-row bands and single rows, band-outer (`m > n`) and
        // strip-outer, both `a` layouts.
        for (m, n, k) in [(1, 1, 1), (4, 16, 9), (5, 27, 33), (9, 43, 20), (13, 7, 5)] {
            for (a_rs, a_ps) in [(k, 1), (1, m)] {
                let a = fill(m * k, (m + n) as u32);
                let b = fill(k * n, (n + k) as u32);
                let c0 = fill(m * n, k as u32);
                let mut want = c0.clone();
                // SAFETY: `a` holds `m × k` floats at either stride pair,
                // `b` `k × n` and `want` `m × n`.
                unsafe { gemm_walk::<Portable, 4>(m, n, k, &a, a_rs, a_ps, &b, n, &mut want, n) };
                let want = bits(&want);
                assert_levels_agree(|| {
                    let mut c = c0.clone();
                    gemm_acc(m, n, k, &a, a_rs, a_ps, &b, n, &mut c, n);
                    assert_eq!(bits(&c), want, "gemm_acc m={m} n={n} k={k} a_rs={a_rs}");
                    bits(&c)
                });
            }
        }
        // The elementwise loop: whole registers at every width and a
        // masked remainder of every length.
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 33] {
            let (a, b) = (fill(n, 41), fill(n, 42));
            let (mut sum, mut diff) = (vec![0.0f32; n], vec![0.0f32; n]);
            // SAFETY: every slice holds `n` floats.
            unsafe {
                zip::<Portable, false>(sum.as_mut_ptr(), a.as_ptr(), b.as_ptr(), n);
                zip::<Portable, true>(diff.as_mut_ptr(), a.as_ptr(), b.as_ptr(), n);
            }
            let want = (bits(&sum), bits(&diff));
            assert_levels_agree(|| {
                let (mut s, mut d) = (vec![0.0f32; n], vec![0.0f32; n]);
                vadd(&mut s, &a, &b);
                vsub(&mut d, &a, &b);
                assert_eq!((bits(&s), bits(&d)), want, "vadd / vsub n={n}");
                want.clone()
            });
        }
    }

    #[test]
    fn add_assign_is_elementwise_identical() {
        for n in [0, 1, 5, 8, 13, 256] {
            let x = fill(n, 3);
            let y0 = fill(n, 4);
            assert_levels_agree(|| {
                let mut y = y0.clone();
                add_assign(&mut y, &x);
                y.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
        }
    }

    /// The loop [`gemm_acc`] replaced, kept as its oracle: `p`-outer row
    /// updates `c_row = a·b_row + c_row` (one fused multiply-add per
    /// element), with the zero-skip the backward kernels carried.
    #[allow(clippy::too_many_arguments)]
    fn gemm_acc_row_update_oracle(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize,
    ) {
        for p in 0..k {
            for r in 0..m {
                let aa = a[p * a_ps + r * a_rs];
                if aa == 0.0 {
                    continue;
                }
                for (o, &v) in c[r * ldc..r * ldc + n].iter_mut().zip(&b[p * ldb..p * ldb + n]) {
                    *o = aa.mul_add(v, *o);
                }
            }
        }
    }

    /// Runs [`gemm_acc`] under every level and the oracle once; all bits
    /// must agree. `a` is `[m, k]` laid out row-strided (`a_rs = k + 1`,
    /// `a_ps = 1`) or column-strided (`a_rs = 1`, `a_ps = m + 2`).
    fn assert_gemm_acc_matches_oracle(
        (m, n, k): (usize, usize, usize),
        row_major_a: bool,
        a_of: impl Fn(usize, usize) -> f32,
        c0: &[f32],
        ldc: usize,
    ) {
        let (a_rs, a_ps) = if row_major_a { (k + 1, 1) } else { (1, m + 2) };
        let mut a = vec![f32::NAN; m * a_rs + k * a_ps + 1];
        for r in 0..m {
            for p in 0..k {
                a[p * a_ps + r * a_rs] = a_of(r, p);
            }
        }
        let ldb = n + 5;
        let b = fill(k * ldb + n, (m * 31 + n * 7 + k) as u32);
        let mut want = c0.to_vec();
        gemm_acc_row_update_oracle(m, n, k, &a, a_rs, a_ps, &b, ldb, &mut want, ldc);
        let want: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_levels_agree(|| {
            let mut c = c0.to_vec();
            gemm_acc(m, n, k, &a, a_rs, a_ps, &b, ldb, &mut c, ldc);
            let got: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "m={m} n={n} k={k} row_major_a={row_major_a} ldc={ldc}");
            got
        });
    }

    #[test]
    fn gemm_acc_matches_row_update_oracle_on_every_tile_edge() {
        // Every m mod 4 and n mod 16 / mod 8 residue (with and without a
        // full tile before the edge), k around the KC block, both `a`
        // layouts, ldc == n and ldc > n. Elements of `c` between rows
        // (ldc > n) must come back untouched — the bit compare covers
        // them too.
        for m in 1..=8 {
            for n in 1..=33 {
                for k in [0usize, 1, 255, 256, 257] {
                    let ldc = if (m + n) % 3 == 0 { n } else { n + 3 };
                    let av = fill(m * k, (m + 10 * n) as u32);
                    let c0 = fill(m * ldc, (n + 100 * m) as u32);
                    for row_major_a in [true, false] {
                        assert_gemm_acc_matches_oracle((m, n, k), row_major_a, |r, p| av[r * k + p], &c0, ldc);
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_acc_dropping_the_zero_skip_is_bit_neutral_for_finite_factors() {
        // ReLU-style gradients: half the factors are zero (of either
        // sign), the rest mix subnormals with ordinary values. Every chain
        // here has taken an ordinary step before its first subnormal one,
        // so no accumulator is `-0.0` (next test), and adding the `±0.0`
        // products the oracle skips changes no bit.
        let sub = f32::from_bits(1); // smallest positive subnormal
        let special = [0.0f32, -0.0, sub, -sub, f32::MIN_POSITIVE / 2.0, 0.0, -0.0, 0.0];
        for (m, n, k) in [(4, 16, 64), (5, 27, 33), (9, 40, 130)] {
            let av = fill(m * k, 77);
            let a_of = |r: usize, p: usize| {
                let i = r * k + p;
                if i.is_multiple_of(2) {
                    special[(i / 2) % special.len()]
                } else {
                    av[i]
                }
            };
            let c0 = vec![0.0f32; m * n];
            for row_major_a in [true, false] {
                assert_gemm_acc_matches_oracle((m, n, k), row_major_a, a_of, &c0, n);
            }
        }
    }

    #[test]
    fn gemm_acc_fused_underflow_can_leave_a_negative_zero_the_next_zero_step_clears() {
        // The other observable change, and it is the fused step's: the
        // exact product `-2⁻¹⁴⁹·0.25` is not zero, so `fma` rounds
        // `+0.0 + it` to `-0.0`; the `0·1` step then gives `+0.0 + -0.0`,
        // while the skipping loop never takes it and keeps `-0.0`.
        let sub = f32::from_bits(1);
        assert_levels_agree(|| {
            let mut c = [0.0f32; 2];
            gemm_acc(1, 1, 1, &[-sub], 1, 1, &[0.25], 1, &mut c[..1], 1);
            gemm_acc(1, 1, 2, &[-sub, 0.0], 1, 1, &[0.25, 1.0], 1, &mut c[1..], 1);
            assert_eq!(c.map(f32::to_bits), [(-0.0f32).to_bits(), 0]);
            let mut skipped = [0.0f32; 1];
            gemm_acc_row_update_oracle(1, 1, 2, &[-sub, 0.0], 1, 1, &[0.25, 1.0], 1, &mut skipped, 1);
            assert_eq!(skipped[0].to_bits(), (-0.0f32).to_bits());
            c.map(f32::to_bits)
        });
    }

    #[test]
    fn gemm_acc_multiplies_zero_by_non_finite() {
        // The one observable change of dropping the skip: `0·inf` is NaN,
        // where the skipping loop never looked at the `inf`.
        assert_levels_agree(|| {
            let mut c = [0.0f32; 1];
            gemm_acc(1, 1, 1, &[0.0], 1, 1, &[f32::INFINITY], 1, &mut c, 1);
            assert!(c[0].is_nan());
            let mut skipped = [0.0f32; 1];
            gemm_acc_row_update_oracle(1, 1, 1, &[0.0], 1, 1, &[f32::INFINITY], 1, &mut skipped, 1);
            assert_eq!(skipped[0].to_bits(), 0);
            c[0].is_nan()
        });
    }

    #[test]
    #[should_panic(expected = "gemm_acc lhs too short")]
    fn gemm_acc_checks_the_strided_extent_up_front() {
        let mut c = [0.0f32; 8];
        // a needs (k-1)·a_ps + (m-1)·a_rs + 1 = 2·4 + 1·1 + 1 = 10 floats.
        gemm_acc(2, 4, 3, &[0.0; 9], 1, 4, &[0.0; 12], 4, &mut c, 4);
    }

    // Strides whose extents wrap: `2 · 2⁶³` is 0 in `usize`, so an
    // unchecked product would pass the check and the body would read
    // through a wrapped pointer.
    const WRAP: usize = 1 << 63;

    #[test]
    #[should_panic(expected = "gemm_acc lhs too short")]
    fn gemm_acc_rejects_a_row_stride_whose_extent_wraps() {
        gemm_acc(3, 1, 1, &[1.0], WRAP, 1, &[1.0], 1, &mut [0.0; 3], 1);
    }

    #[test]
    #[should_panic(expected = "gemm_acc lhs too short")]
    fn gemm_acc_rejects_a_step_stride_whose_extent_wraps() {
        gemm_acc(1, 1, 3, &[1.0], 1, WRAP, &[1.0; 3], 1, &mut [0.0], 1);
    }

    #[test]
    #[should_panic(expected = "gemm_acc rhs too short")]
    fn gemm_acc_rejects_an_ldb_whose_extent_wraps() {
        gemm_acc(1, 1, 3, &[1.0; 3], 1, 1, &[1.0], WRAP, &mut [0.0], 1);
    }

    #[test]
    #[should_panic(expected = "dot_panel lhs too short")]
    fn dot_panel_rejects_an_lda_whose_extent_wraps() {
        dot_panel(
            3,
            1,
            8,
            &[1.0; 8],
            WRAP,
            &[1.0; 8],
            8,
            None,
            &mut [0.0; 3],
            1,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "dot_panel rhs too short")]
    fn dot_panel_rejects_an_ldb_whose_extent_wraps() {
        dot_panel(
            1,
            3,
            8,
            &[1.0; 8],
            8,
            &[1.0; 8],
            WRAP,
            None,
            &mut [0.0; 3],
            1,
            1,
        );
    }

    #[test]
    #[should_panic(expected = "dot_panel out too short")]
    fn dot_panel_rejects_an_out_stride_whose_extent_wraps() {
        dot_panel(
            3,
            1,
            8,
            &[1.0; 24],
            8,
            &[1.0; 8],
            8,
            None,
            &mut [0.0; 1],
            WRAP,
            1,
        );
    }

    #[test]
    fn gather_acc_and_transpose_match_scalar_oracles_at_every_level() {
        // Every `m mod 8` row edge and `n mod 16` column edge around full
        // tiles, both starts (`fresh` and continuing), a gathered operand
        // with repeated and scattered offsets; the transpose on full 8 × 8
        // blocks and every edge.
        for (m, n, k) in [(1, 1, 1), (3, 7, 5), (8, 16, 9), (9, 33, 17), (16, 32, 40), (27, 20, 3)] {
            let src = fill(64 + 3 * k + 7 * m, (m * n) as u32);
            let at: Vec<usize> = (0..k).map(|p| (p * 37) % (3 * k + 1)).collect();
            let rows: Vec<usize> = (0..m).map(|r| 64 + (r * 5) % (7 * m)).collect();
            let b = fill(k * (n + 3), (n + k) as u32);
            let ldc = m + 2;
            let c0 = fill(n * ldc, (m + k) as u32);
            for fresh in [true, false] {
                let mut want = c0.clone();
                for j in 0..n {
                    for r in 0..m {
                        let mut acc = if fresh { 0.0 } else { c0[j * ldc + r] };
                        for p in 0..k {
                            acc = src[at[p] + rows[r]].mul_add(b[p * (n + 3) + j], acc);
                        }
                        want[j * ldc + r] = acc;
                    }
                }
                let want = bits(&want);
                assert_levels_agree(|| {
                    let mut c = c0.clone();
                    gather_acc(m, n, k, &src, &at, &rows, &b, n + 3, &mut c, ldc, fresh);
                    assert_eq!(bits(&c), want, "gather_acc m={m} n={n} k={k} fresh={fresh}");
                    bits(&c)
                });
            }
        }
        for (rows, cols) in [(1, 1), (8, 8), (9, 17), (16, 24), (5, 40)] {
            let src = fill(rows * (cols + 1), (rows + cols) as u32);
            let mut want = vec![0.5f32; cols * (rows + 2)];
            for i in 0..rows {
                for j in 0..cols {
                    want[j * (rows + 2) + i] = src[i * (cols + 1) + j];
                }
            }
            assert_levels_agree(|| {
                let mut dst = vec![0.5f32; cols * (rows + 2)];
                transpose(rows, cols, &src, cols + 1, &mut dst, rows + 2);
                assert_eq!(bits(&dst), bits(&want), "transpose {rows}x{cols}");
                bits(&dst)
            });
        }
    }

    #[test]
    fn vadd_vsub_are_elementwise_identical() {
        for n in [0, 1, 5, 8, 13, 256] {
            let a = fill(n, 21);
            let b = fill(n, 22);
            assert_levels_agree(|| {
                let mut s = vec![0.0f32; n];
                let mut d = vec![0.0f32; n];
                vadd(&mut s, &a, &b);
                vsub(&mut d, &a, &b);
                for i in 0..n {
                    assert_eq!(s[i].to_bits(), (a[i] + b[i]).to_bits());
                    assert_eq!(d[i].to_bits(), (a[i] - b[i]).to_bits());
                }
                (
                    s.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    d.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                )
            });
        }
    }
}
