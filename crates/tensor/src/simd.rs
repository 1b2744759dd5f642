//! Runtime-dispatched SIMD micro-kernels (DESIGN.md §14).
//!
//! Every floating-point inner loop in this crate funnels through the
//! handful of primitives defined here: the dot-form GEMM [`dot_panel`]
//! behind `matmul_a_bt` and the tiled conv engine's packed-panel sweep,
//! the register-blocked rank-k update ([`gemm_acc`]) behind `matmul`,
//! `matmul_at_b`, the conv `dw` fold, the `dx` channel reduction and the
//! Winograd forward's transform-domain GEMMs, and the elementwise passes
//! ([`add_assign`] for block folds, [`vadd`]/[`vsub`] for the Winograd
//! transforms). The implementation sets, one per [`SimdLevel`]:
//!
//! - a **portable scalar** body of every primitive in plain Rust — the
//!   reference semantics;
//! - an **AVX2+FMA** body of every primitive, written with
//!   `core::arch::x86_64` intrinsics and compiled with
//!   `#[target_feature(enable = "avx2,fma")]` so it emits 256-bit vector
//!   ops even though the crate itself targets baseline x86-64 (the old
//!   blanket `target-cpu=x86-64-v3` flag is gone); and
//! - **AVX-512** bodies of the two GEMM micro-kernels, [`dot_panel`] and
//!   [`gemm_acc`], under `#[target_feature(enable = "avx512f,avx512dq,…")]`;
//!   the elementwise passes keep their AVX2 bodies at that level.
//!
//! The implementation is picked **once per call site reached**, by
//! [`active_level`]: a relaxed atomic read resolving (in order) an
//! in-process [`force_level`] override, the `SCNN_SIMD` environment knob
//! (`scalar|avx2|avx512|auto`, read once), and `is_x86_feature_detected!`
//! (the highest level the host runs; [`supports`] says which it does).
//!
//! # The bit-identity contract
//!
//! Every body of every primitive evaluates the **same IEEE-754
//! operations in the same order**, and the step of every accumulation
//! chain is one **fused multiply-add**: `acc = fma(a, b, acc)`, the exact
//! product plus the accumulator, rounded once.
//!
//! - The 8 accumulator lanes of the dot kernels map one-to-one onto one
//!   `__m256`; lane `l` still accumulates elements `p ≡ l (mod 8)`, the
//!   scalar tail still folds sequentially, and the final reduction is the
//!   same fixed [`lane_sum`] tree of plain adds. The AVX-512 body carries
//!   two outputs' eight lanes in one `__m512` (columns `j` and `j + 1` in
//!   its low and high halves, against the `a` row broadcast to both) and
//!   splits the halves back out for that tree.
//! - [`add_assign`], [`vadd`] and [`vsub`] are elementwise: each output
//!   element is one add (or subtract) regardless of vector width.
//! - [`gemm_acc`] is elementwise *per output element* too: element
//!   `(r, j)` sees the chain `acc = fma(a[p, r], b[p, j], acc)` for `p`
//!   ascending, whatever tile — 4×16 or 8×32 registers, a row/column
//!   edge, a masked remainder register, a scalar array — happens to hold
//!   its accumulator.
//! - **Fused on every body.** The vector kernels issue `_mm512_fmadd_ps`
//!   / `_mm256_fmadd_ps` and the portable ones `f32::mul_add`: the same
//!   correctly-rounded operation at any width, so one rounding per step
//!   costs the contract nothing and halves the FP uops of a step. A
//!   separate multiply and add (two roundings) appears in no body.
//! - **The portable body is compiled twice.** Baseline x86-64 has no FMA
//!   instruction, so a baseline-compiled `mul_add` is a libm `fmaf` call
//!   per element (same bits; 3.2 ns against 0.16 ns a step in an 8-lane
//!   dot on the development host). Each portable sweep is therefore one
//!   `#[inline(always)]` source body with two standalone instantiations
//!   (`fused_or_baseline!`): under `#[target_feature(enable = "fma")]`,
//!   taken whenever the host executes FMA, and for the build's baseline,
//!   taken on an x86-64 host without FMA (where the vector levels do not
//!   exist either) and on every other architecture, where `mul_add` is
//!   native.
//!
//! Consequently `SCNN_SIMD=scalar`, `avx2` and `avx512` produce
//! bit-identical tensors at any `SCNN_THREADS` — a tested contract
//! (`simd_props`), which is what lets the ISA choice be a pure
//! performance decision.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Number of independent accumulator lanes in the blocked dot product —
/// exactly the f32 width of one AVX2 register (half an AVX-512 one),
/// which is why the scalar accumulator array maps onto a single `__m256`.
pub(crate) const LANES: usize = 8;

/// Which micro-kernel implementation set is executing. The levels are
/// ordered: a host that runs one runs every level below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SimdLevel {
    /// Portable scalar bodies (compile anywhere; autovectorized at the
    /// build's baseline width, or at the FMA host's where there is one).
    Scalar,
    /// Explicit AVX2 256-bit bodies (x86-64 with AVX2+FMA only).
    Avx2,
    /// 512-bit bodies of the two GEMM micro-kernels, [`dot_panel`] and
    /// [`gemm_acc`], over the AVX2 set (x86-64 with AVX-512 F and DQ, plus
    /// AVX2+FMA).
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

/// `true` when this host executes FMA instructions — what both levels'
/// chain step needs to be one instruction: the AVX2 bodies are gated on it
/// through [`detected_level`], and every portable sweep picks its
/// `#[target_feature(enable = "fma")]` instantiation over the baseline one
/// with it (one cached load and one predictable branch per sweep, outside
/// the sweep's loops).
#[cfg(target_arch = "x86_64")]
#[inline]
fn host_has_fma() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| std::is_x86_feature_detected!("fma"))
}

/// Body of a standalone portable sweep: runs the `#[inline(always)]`
/// source body `$sweep` in one of its two instantiations — a nested copy
/// compiled under `#[target_feature(enable = "fma")]` where the host
/// executes FMA, else the one inlined into the calling (baseline) function,
/// where `mul_add` is libm's `fmaf` on x86-64 and native elsewhere.
macro_rules! fused_or_baseline {
    ($sweep:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?) => {{
        #[cfg(target_arch = "x86_64")]
        if host_has_fma() {
            #[target_feature(enable = "fma")]
            #[allow(clippy::too_many_arguments)]
            fn fused($($arg: $ty),*) $(-> $ret)? {
                $sweep($($arg),*)
            }
            // SAFETY: the host executes FMA.
            return unsafe { fused($($arg),*) };
        }
        $sweep($($arg),*)
    }};
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

/// `true` when the AVX2 bodies of the elementwise passes should run — at
/// the AVX2 level and at AVX-512, which keeps them.
#[inline]
fn use_avx2() -> bool {
    // On non-x86 builds the AVX2 bodies do not exist; `active_level` can
    // only ever say Scalar there (detection returns Scalar and forcing
    // any other level panics), so this compiles to `false`.
    cfg!(target_arch = "x86_64") && active_level() >= SimdLevel::Avx2
}

/// Reduces the 8 lanes with a fixed pairwise tree, then folds the scalar
/// tail. The evaluation order depends only on `k`, never on threads, on
/// the executing ISA, or on which caller (octet, quad or single) produced
/// the lanes.
#[inline]
pub(crate) fn lane_sum(acc: [f32; LANES], tail: f32) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    ((s0 + s2) + (s1 + s3)) + tail
}

/// 8-lane blocked dot product, the reduction order of one [`dot_panel`]
/// output element: lane `l` accumulates elements `p ≡ l (mod 8)` — one
/// fused multiply-add per element, breaking the serial FP dependency
/// chain — the scalar tail folds sequentially, and [`lane_sum`] reduces
/// the lanes. The portable body runs it on column remainders; the
/// `as_chunks` split is infallible, so a malformed length cannot panic
/// inside the hot loop.
#[inline(never)]
fn dot8(a: &[f32], b: &[f32]) -> f32 {
    fused_or_baseline!(dot8_sweep(a: &[f32], b: &[f32]) -> f32)
}

/// Source body of [`dot8`], inlined into its two instantiations.
#[inline(always)]
fn dot8_sweep(a: &[f32], b: &[f32]) -> f32 {
    let (ab, at) = a.as_chunks::<LANES>();
    let (bb, bt) = b.as_chunks::<LANES>();
    let mut acc = [0.0f32; LANES];
    for (ka, kb) in ab.iter().zip(bb) {
        for l in 0..LANES {
            acc[l] = ka[l].mul_add(kb[l], acc[l]);
        }
    }
    let mut tail = 0.0f32;
    for (&x, &y) in at.iter().zip(bt) {
        tail = x.mul_add(y, tail);
    }
    lane_sum(acc, tail)
}

/// Four simultaneous [`dot8`]s sharing one pass over `a` (so the A-row is
/// loaded once per quad instead of once per dot). Bit-identical to four
/// independent `dot8` calls.
#[inline(never)]
fn dot8_x4_scalar(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    fused_or_baseline!(dot8_x4_sweep(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4])
}

/// Source body of [`dot8_x4_scalar`], inlined into its two instantiations.
#[inline(always)]
fn dot8_x4_sweep(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    let mut acc0 = [0.0f32; LANES];
    let mut acc1 = [0.0f32; LANES];
    let mut acc2 = [0.0f32; LANES];
    let mut acc3 = [0.0f32; LANES];
    let (ab, at) = a.as_chunks::<LANES>();
    let (b0b, b0t) = b0.as_chunks::<LANES>();
    let (b1b, b1t) = b1.as_chunks::<LANES>();
    let (b2b, b2t) = b2.as_chunks::<LANES>();
    let (b3b, b3t) = b3.as_chunks::<LANES>();
    for (ci, ka) in ab.iter().enumerate() {
        let (k0, k1, k2, k3) = (&b0b[ci], &b1b[ci], &b2b[ci], &b3b[ci]);
        for l in 0..LANES {
            acc0[l] = ka[l].mul_add(k0[l], acc0[l]);
            acc1[l] = ka[l].mul_add(k1[l], acc1[l]);
            acc2[l] = ka[l].mul_add(k2[l], acc2[l]);
            acc3[l] = ka[l].mul_add(k3[l], acc3[l]);
        }
    }
    let mut tails = [0.0f32; 4];
    for (p, &x) in at.iter().enumerate() {
        tails[0] = x.mul_add(b0t[p], tails[0]);
        tails[1] = x.mul_add(b1t[p], tails[1]);
        tails[2] = x.mul_add(b2t[p], tails[2]);
        tails[3] = x.mul_add(b3t[p], tails[3]);
    }
    [
        lane_sum(acc0, tails[0]),
        lane_sum(acc1, tails[1]),
        lane_sum(acc2, tails[2]),
        lane_sum(acc3, tails[3]),
    ]
}

/// Rows of `a` whose lane accumulators one group of [`dot_panel`]'s AVX2
/// body carries between shared-dimension blocks (a multiple of the
/// three-row register tile): 24 rows × 4 columns of 8-lane accumulators
/// are 3 KiB of stack, and every block of `b` loaded into L1 is used 24
/// times before the next one replaces it.
pub(crate) const PANEL_ROWS: usize = 24;

/// Upper bound on [`dot_panel`]'s shared-dimension block, in floats: one
/// block of four `b` rows is 8 KiB and stays in L1 while the same block of
/// a row group's `a` rows (48 KiB) streams past it. Longer blocks measured
/// no faster; 256 was ~3 % slower on the conv forward (the lane
/// accumulators move through memory once per block).
const PANEL_KB: usize = 512;

/// The dot-form GEMM: `out[r·out_rs + j·out_cs] = dot8(a_r, b_j) (+ bias[j])`
/// for `r < m`, `j < n`, where `a_r = a[r·lda ..][..k]` and
/// `b_j = b[j·ldb ..][..k]` — `matmul_a_bt`, and the tiled conv forward
/// with `a` a packed patch panel and `b` the weight matrix.
///
/// Every output element is exactly [`lane_sum`] over the eight [`dot8`]
/// lanes of its own row pair, then the sequential tail, then one bias add:
/// lane `l` accumulates `p ≡ l (mod 8)` with `p` ascending. The loop nest
/// around that — a few `b` rows stationary while the `a` rows stream past
/// them three to a register tile, the shared dimension cut into L1-sized
/// blocks with the lane accumulators carried from block to block — only
/// decides which operand is in cache or in a register when; a lane's
/// chain never sees it. The `(out_rs, out_cs)` stride pair lets the
/// result land row-major (`n`, 1) or channel-major (1, rows), so neither
/// caller transposes.
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
    assert!((m - 1) * lda + k <= a.len(), "dot_panel lhs too short");
    assert!((n - 1) * ldb + k <= b.len(), "dot_panel rhs too short");
    assert!(
        (m - 1) * out_rs + (n - 1) * out_cs < out.len(),
        "dot_panel out too short"
    );
    if let Some(bias) = bias {
        assert_eq!(bias.len(), n, "dot_panel bias length");
    }
    #[cfg(target_arch = "x86_64")]
    match active_level() {
        SimdLevel::Avx512 => {
            // SAFETY: the level is only active on a host with AVX-512 F+DQ
            // and AVX2+FMA; the asserts above bound every address the
            // kernel forms in `a` and `b`.
            unsafe { avx512::dot_panel(m, n, k, a, lda, b, ldb, bias, out, out_rs, out_cs) };
            return;
        }
        SimdLevel::Avx2 => {
            // SAFETY: AVX2+FMA presence established; the asserts above
            // bound every address the kernel forms in `a` and `b`.
            unsafe { avx2::dot_panel(m, n, k, a, lda, b, ldb, bias, out, out_rs, out_cs) };
            return;
        }
        SimdLevel::Scalar => {}
    }
    dot_panel_scalar(m, n, k, a, lda, b, ldb, bias, out, out_rs, out_cs);
}

/// Portable body of [`dot_panel`]: the same `b`-stationary walk over the
/// standalone multi-dot sweeps (no shared-dimension blocking — the sweeps
/// keep their accumulators in the autovectorized loop).
#[allow(clippy::too_many_arguments)]
fn dot_panel_scalar(
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
    let arow = |r: usize| &a[r * lda..r * lda + k];
    let brow = |j: usize| &b[j * ldb..j * ldb + k];
    let mut put = |r: usize, j: usize, v: f32| {
        out[r * out_rs + j * out_cs] = bias.map_or(v, |bias| v + bias[j]);
    };
    let mut j = 0;
    while j + 8 <= n {
        let bs: [&[f32]; 8] = std::array::from_fn(|jj| brow(j + jj));
        for r in 0..m {
            let q = dot8_x8_scalar(arow(r), bs);
            for (jj, &v) in q.iter().enumerate() {
                put(r, j + jj, v);
            }
        }
        j += 8;
    }
    while j + 4 <= n {
        for r in 0..m {
            let q = dot8_x4_scalar(arow(r), brow(j), brow(j + 1), brow(j + 2), brow(j + 3));
            for (jj, &v) in q.iter().enumerate() {
                put(r, j + jj, v);
            }
        }
        j += 4;
    }
    while j < n {
        for r in 0..m {
            put(r, j, dot8(arow(r), brow(j)));
        }
        j += 1;
    }
}

/// Eight simultaneous [`dot8`]s sharing one pass over `a`: each
/// accumulator set is private to its B row and reduces through the same
/// [`lane_sum`] tree, so the result is bit-identical to eight independent
/// `dot8` calls. Taking the rows as `[&[f32]; 8]` (rather than one
/// contiguous `8·k` slice) keeps the per-row block loads simple, and
/// `inline(never)` is load-bearing: inlined into a large caller the sweep
/// loses its autovectorization (measured ~2.5× slower); as a standalone
/// function it always compiles clean, and the call cost is noise next to
/// the `8·k` multiply-adds.
#[inline(never)]
fn dot8_x8_scalar(a: &[f32], bs: [&[f32]; 8]) -> [f32; 8] {
    fused_or_baseline!(dot8_x8_sweep(a: &[f32], bs: [&[f32]; 8]) -> [f32; 8])
}

/// Source body of [`dot8_x8_scalar`], inlined into its two instantiations.
#[inline(always)]
fn dot8_x8_sweep(a: &[f32], bs: [&[f32]; 8]) -> [f32; 8] {
    let mut acc = [[0.0f32; LANES]; 8];
    let (ab, at) = a.as_chunks::<LANES>();
    for (ci, ka) in ab.iter().enumerate() {
        for (j, b) in bs.iter().enumerate() {
            let kb = &b.as_chunks::<LANES>().0[ci];
            for l in 0..LANES {
                acc[j][l] = ka[l].mul_add(kb[l], acc[j][l]);
            }
        }
    }
    let rem = ab.len() * LANES;
    let mut tails = [0.0f32; 8];
    for (p, &x) in at.iter().enumerate() {
        for (j, b) in bs.iter().enumerate() {
            tails[j] = x.mul_add(b[rem + p], tails[j]);
        }
    }
    let mut out = [0.0f32; 8];
    for j in 0..8 {
        out[j] = lane_sum(acc[j], tails[j]);
    }
    out
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
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence established; equal lengths asserted.
        unsafe { avx2::add_assign(y, x) };
        return;
    }
    for (o, &v) in y.iter_mut().zip(x) {
        *o += v;
    }
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
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence established; equal lengths asserted.
        unsafe { avx2::vadd(dst, a, b) };
        return;
    }
    for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
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
    #[cfg(target_arch = "x86_64")]
    if use_avx2() {
        // SAFETY: AVX2+FMA presence established; equal lengths asserted.
        unsafe { avx2::vsub(dst, a, b) };
        return;
    }
    for ((o, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Register tile of [`gemm_acc`]: `MR` output rows by `NR` columns, `NR`
/// two AVX2 registers wide. 4×16 keeps eight accumulator registers live
/// across the whole `p` loop and leaves room for the two `b` vectors and
/// the `a` broadcast inside AVX2's sixteen.
const MR: usize = 4;
const NR: usize = 2 * LANES;

/// Register-blocked rank-`k` update, the one inner loop of every direct
/// backward kernel (`matmul`, `matmul_at_b`, the conv `dw` fold, the conv
/// `dx` channel reduction):
///
/// `c[r·ldc + j] += Σ_p a[p·a_ps + r·a_rs] · b[p·ldb + j]` for `r < m`,
/// `j < n`, `p < k`.
///
/// Each output element evaluates `acc = fma(a, b, acc)` with `p` strictly
/// ascending — one fused multiply-add, one rounding, per step — starting
/// from the value already in `c`: exactly the chain a `p`-outer sequence of
/// fused `c_row = a·b_row + c_row` updates produces, so splitting `k` across
/// consecutive calls, or `m`/`n` across callers, cannot change a bit. What the blocking buys is
/// that a tile of `c` (4×16 at AVX2, 8×32 at AVX-512) stays in registers
/// for all `k` steps instead of crossing L1 once per step. Edges run
/// narrower and shorter tiles and a masked (vector) or scalar-column
/// (portable) remainder; the tile an element lands in never alters its
/// chain.
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
    assert!(
        (k - 1) * a_ps + (m - 1) * a_rs < a.len(),
        "gemm_acc lhs too short"
    );
    assert!((k - 1) * ldb + n <= b.len(), "gemm_acc rhs too short");
    assert!((m - 1) * ldc + n <= c.len(), "gemm_acc out too short");
    #[cfg(target_arch = "x86_64")]
    match active_level() {
        SimdLevel::Avx512 => {
            // SAFETY: the level is only active on a host with AVX-512 F+DQ
            // and AVX2+FMA; the asserts above bound every address the
            // tiles form (masked lanes are never accessed).
            unsafe { avx512::gemm_acc(m, n, k, a, a_rs, a_ps, b, ldb, c, ldc) };
            return;
        }
        SimdLevel::Avx2 => {
            // SAFETY: AVX2+FMA presence established; the asserts above
            // bound every address the tiles form (masked lanes are never
            // accessed).
            unsafe { avx2::gemm_acc(m, n, k, a, a_rs, a_ps, b, ldb, c, ldc) };
            return;
        }
        SimdLevel::Scalar => {}
    }
    gemm_acc_scalar(m, n, k, a, a_rs, a_ps, b, ldb, c, ldc);
}

/// Portable body of [`gemm_acc`]: the same tile walk over arrays of
/// accumulators. Standalone (like [`dot8_x8_scalar`]) so the tiles keep
/// their autovectorization out of the large conv closures.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn gemm_acc_scalar(
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
    fused_or_baseline!(gemm_acc_sweep(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_rs: usize,
        a_ps: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        ldc: usize
    ))
}

/// Source body of [`gemm_acc_scalar`], inlined into its two instantiations.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_acc_sweep(
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
    let mut j = 0;
    while j + NR <= n {
        strip_scalar::<NR>(m, k, a, a_rs, a_ps, &b[j..], ldb, &mut c[j..], ldc);
        j += NR;
    }
    if j + LANES <= n {
        strip_scalar::<LANES>(m, k, a, a_rs, a_ps, &b[j..], ldb, &mut c[j..], ldc);
        j += LANES;
    }
    gemm_acc_cols(m, j, n, k, a, a_rs, a_ps, b, ldb, c, ldc);
}

/// One `W`-column strip of [`gemm_acc_sweep`] (`b` and `c` start at the
/// strip's first column): 4-row tiles, then single rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn strip_scalar<const W: usize>(
    m: usize,
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ps: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut r = 0;
    while r + MR <= m {
        tile_scalar::<MR, W>(k, &a[r * a_rs..], a_rs, a_ps, b, ldb, &mut c[r * ldc..], ldc);
        r += MR;
    }
    while r < m {
        tile_scalar::<1, W>(k, &a[r * a_rs..], a_rs, a_ps, b, ldb, &mut c[r * ldc..], ldc);
        r += 1;
    }
}

/// One `R`×`W` tile: the accumulators load from `c` once, take all `k`
/// fused steps in the array, and store once. `a`, `b` and `c` start at
/// the tile's first row / column / element.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn tile_scalar<const R: usize, const W: usize>(
    k: usize,
    a: &[f32],
    a_rs: usize,
    a_ps: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + W]);
    }
    for p in 0..k {
        let bp = &b[p * ldb..p * ldb + W];
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[p * a_ps + r * a_rs];
            for l in 0..W {
                row[l] = av.mul_add(bp[l], row[l]);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + W].copy_from_slice(row);
    }
}

/// Columns `j0..n` of [`gemm_acc`] one element at a time — the portable
/// body's `n mod 8` remainder (the vector bodies run it as one masked
/// strip). `inline(always)` is load-bearing: the `mul_add` must be
/// compiled inside its caller's `target_feature` instantiation, or it is
/// a libm call per step.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_acc_cols(
    m: usize,
    j0: usize,
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
    for r in 0..m {
        for j in j0..n {
            let mut acc = c[r * ldc + j];
            for p in 0..k {
                acc = a[p * a_ps + r * a_rs].mul_add(b[p * ldb + j], acc);
            }
            c[r * ldc + j] = acc;
        }
    }
}

/// The AVX2+FMA bodies. Every function here is `unsafe` with the same
/// contract: the caller has verified AVX2+FMA support and equal slice
/// lengths. A chain step is `_mm256_fmadd_ps` (`f32::mul_add` in the lane
/// tails) — the portable bodies' operation at eight lanes, see the module
/// docs; the lane reductions and elementwise passes are plain adds.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{LANES, MR, NR, PANEL_KB, PANEL_ROWS};
    use core::arch::x86_64::{
        __m256, __m256i, _mm256_add_ps, _mm256_castps256_ps128, _mm256_cmpgt_epi32,
        _mm256_extractf128_ps, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_maskload_ps,
        _mm256_maskstore_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_setr_epi32,
        _mm256_setzero_ps, _mm256_storeu_ps, _mm256_sub_ps, _mm_add_ps, _mm_add_ss, _mm_cvtss_f32,
        _mm_loadu_ps, _mm_movehl_ps, _mm_movelh_ps, _mm_shuffle_ps, _mm_storeu_ps, _mm_unpackhi_ps,
        _mm_unpacklo_ps,
    };

    /// [`lane_sum`] of one accumulator register, evaluated in the vector
    /// unit: the 128-bit halves add to `[s0, s1, s2, s3]` (lane `l` plus
    /// lane `l + 4`), the upper pair folds onto the lower
    /// (`s0 + s2`, `s1 + s3`), those two add, then the tail — the same
    /// operand pairs in the same order as the scalar tree.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_sum_reg(acc: __m256, tail: f32) -> f32 {
        let s = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps::<1>(acc));
        let t = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let u = _mm_add_ss(t, _mm_shuffle_ps::<1>(t, t));
        _mm_cvtss_f32(u) + tail
    }

    /// AVX2 body of [`super::dot_panel`]. The caller has bounds-checked
    /// every row of `a` and `b`; `out` is indexed checked.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dot_panel(
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
        let mut j = 0;
        // SAFETY: every column group lies inside `0..n`, the extent the
        // dispatcher checked.
        unsafe {
            while j + 4 <= n {
                panel_cols::<4>(m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j);
                j += 4;
            }
            while j < n {
                panel_cols::<1>(m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j);
                j += 1;
            }
        }
    }

    /// Columns `j0 .. j0 + W` of [`dot_panel`] for every row of `a`: the
    /// `W` rows of `b` stay put while groups of [`PANEL_ROWS`] `a` rows
    /// pass them one shared-dimension block at a time, three rows per
    /// register tile. A row's `W` lane accumulators rest in the group's
    /// array between blocks and take each block's steps in registers —
    /// `p` ascending per lane, as in [`super::dot8`] — so a block of `b` is read
    /// into L1 once per group, and a block of the group's `a` rows once
    /// per `W` columns.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn panel_cols<const W: usize>(
        m: usize,
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
    ) {
        let k8 = k / LANES * LANES;
        let kb = panel_block(k8);
        // SAFETY (here and below): the dispatcher checked that rows
        // `0..m` of `a` and `0..n` of `b` hold `k` elements each, and
        // `j0 + W <= n`, `r0 + rows <= m`, `p1 <= k`.
        let bp: [*const f32; W] = std::array::from_fn(|jj| unsafe { b.as_ptr().add((j0 + jj) * ldb) });
        let btail = tails_of::<W>(b, ldb, k, j0);
        let btail = &btail[..k - k8];
        let mut acc = [[_mm256_setzero_ps(); W]; PANEL_ROWS];
        for r0 in (0..m).step_by(PANEL_ROWS) {
            let rows = PANEL_ROWS.min(m - r0);
            acc[..rows].fill([_mm256_setzero_ps(); W]);
            for p0 in (0..k8).step_by(kb) {
                let p1 = (p0 + kb).min(k8);
                // SAFETY: see above.
                let (mut r, mut ap) = (0, unsafe { a.as_ptr().add(r0 * lda) });
                // SAFETY: see above.
                unsafe {
                    while r + 3 <= rows {
                        dot_tile::<3, W>(&mut acc[r..r + 3], ap, lda, bp, p0, p1);
                        (r, ap) = (r + 3, ap.add(3 * lda));
                    }
                    match rows - r {
                        2 => dot_tile::<2, W>(&mut acc[r..], ap, lda, bp, p0, p1),
                        1 => dot_tile::<1, W>(&mut acc[r..], ap, lda, bp, p0, p1),
                        _ => {}
                    }
                }
            }
            for (r, lanes) in acc[..rows].iter().enumerate() {
                let at = (r0 + r) * lda;
                // SAFETY: AVX2+FMA are enabled here.
                unsafe {
                    finish_row(
                        lanes,
                        &a[at + k8..at + k],
                        btail,
                        bias,
                        out,
                        (r0 + r) * out_rs,
                        out_cs,
                        j0,
                    )
                };
            }
        }
    }

    /// Writes one row's outputs at columns `j0 .. j0 + W` of a
    /// [`super::dot_panel`] body: the sequential tail of each of the `W`
    /// dots — one fused step per element of `a_tail`, `p` ascending,
    /// against `btail`'s transposed `b` tails — then [`lane_sums`] of the
    /// row's lane accumulators and the bias add.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn finish_row<const W: usize>(
        lanes: &[__m256; W],
        a_tail: &[f32],
        btail: &[[f32; W]],
        bias: Option<&[f32]>,
        out: &mut [f32],
        row_at: usize,
        out_cs: usize,
        j0: usize,
    ) {
        let mut tails = [0.0f32; W];
        for (&x, ys) in a_tail.iter().zip(btail) {
            for (tail, &y) in tails.iter_mut().zip(ys) {
                *tail = x.mul_add(y, *tail);
            }
        }
        // SAFETY: AVX2+FMA are enabled here.
        let sums = unsafe { lane_sums(lanes, tails) };
        for (jj, &v) in sums.iter().enumerate() {
            let j = j0 + jj;
            out[row_at + j * out_cs] = bias.map_or(v, |bias| v + bias[j]);
        }
    }

    /// The `W` rows' lane tails of a [`super::dot_panel`] column group
    /// starting at `b`'s row `j0`, transposed: one `W`-vector per tail
    /// element (`k mod 8` of them), so a row's tails accumulate `W` dots
    /// per step.
    pub(super) fn tails_of<const W: usize>(
        b: &[f32],
        ldb: usize,
        k: usize,
        j0: usize,
    ) -> [[f32; W]; LANES - 1] {
        let k8 = k / LANES * LANES;
        let mut btail = [[0.0f32; W]; LANES - 1];
        for (i, ys) in btail[..k - k8].iter_mut().enumerate() {
            *ys = std::array::from_fn(|jj| b[(j0 + jj) * ldb + k8 + i]);
        }
        btail
    }

    /// [`dot_panel`]'s shared-dimension block for `k8` lane-step floats:
    /// equal blocks of whole lane steps, none above [`PANEL_KB`].
    pub(super) fn panel_block(k8: usize) -> usize {
        k8.div_ceil(k8.div_ceil(PANEL_KB).max(1))
            .next_multiple_of(LANES)
            .max(LANES)
    }

    /// [`lane_sum_reg`] of `W` accumulator registers at once: four at a
    /// time ([`lane_sums4`]) when `W` is a multiple of four, one at a time
    /// otherwise.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn lane_sums<const W: usize>(acc: &[__m256; W], tails: [f32; W]) -> [f32; W] {
        let mut out = [0.0f32; W];
        if W.is_multiple_of(4) {
            for ((o, x), t) in out
                .chunks_exact_mut(4)
                .zip(acc.chunks_exact(4))
                .zip(tails.chunks_exact(4))
            {
                // SAFETY: AVX2+FMA are enabled here; the chunks are four long.
                o.copy_from_slice(&unsafe { lane_sums4(x, t) });
            }
        } else {
            for ((o, &x), &tail) in out.iter_mut().zip(acc).zip(&tails) {
                // SAFETY: AVX2+FMA are enabled here.
                *o = unsafe { lane_sum_reg(x, tail) };
            }
        }
        out
    }

    /// [`lane_sum_reg`] of four registers: the halves add as in the single
    /// form, a 4×4 transpose lines up element `i` of every sum in row `i`,
    /// and `(row0 + row2) + (row1 + row3)` then `+ tails` is the same tree
    /// on four dots per instruction. `acc` and `tails` are four long.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn lane_sums4(acc: &[__m256], tails: &[f32]) -> [f32; 4] {
        assert!(
            acc.len() == 4 && tails.len() == 4,
            "lane_sums4 takes four dots"
        );
        let mut out = [0.0f32; 4];
        let half = |x: __m256| _mm_add_ps(_mm256_castps256_ps128(x), _mm256_extractf128_ps::<1>(x));
        let (s0, s1, s2, s3) = (half(acc[0]), half(acc[1]), half(acc[2]), half(acc[3]));
        let (t0, t1) = (_mm_unpacklo_ps(s0, s1), _mm_unpackhi_ps(s0, s1));
        let (t2, t3) = (_mm_unpacklo_ps(s2, s3), _mm_unpackhi_ps(s2, s3));
        let (r0, r1) = (_mm_movelh_ps(t0, t2), _mm_movehl_ps(t2, t0));
        let (r2, r3) = (_mm_movelh_ps(t1, t3), _mm_movehl_ps(t3, t1));
        let sum = _mm_add_ps(_mm_add_ps(r0, r2), _mm_add_ps(r1, r3));
        // SAFETY: `out` and `tails` hold four floats each.
        unsafe {
            _mm_storeu_ps(
                out.as_mut_ptr(),
                _mm_add_ps(sum, _mm_loadu_ps(tails.as_ptr())),
            )
        };
        out
    }

    /// One `R`×`W` register tile of [`panel_cols`]: lane steps `p0..p1` of
    /// `R` consecutive `a` rows against the `W` rows of `b`, continuing
    /// the accumulators in `acc`. Three rows by four columns is twelve
    /// accumulators fed by seven loads a step; the one-row-by-eight tile
    /// this replaced needed nine loads for eight, and ran at the load
    /// ports' pace, not the multipliers'.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dot_tile<const R: usize, const W: usize>(
        acc: &mut [[__m256; W]],
        a: *const f32,
        lda: usize,
        b: [*const f32; W],
        p0: usize,
        p1: usize,
    ) {
        let mut c: [[__m256; W]; R] = std::array::from_fn(|r| acc[r]);
        // SAFETY: the caller passes `R` rows of `a` and `W` rows of `b`
        // that each hold at least `p1` elements.
        unsafe {
            for p in (p0..p1).step_by(LANES) {
                let va: [__m256; R] = std::array::from_fn(|r| _mm256_loadu_ps(a.add(r * lda + p)));
                for (jj, bj) in b.iter().enumerate() {
                    let vb = _mm256_loadu_ps(bj.add(p));
                    for r in 0..R {
                        c[r][jj] = _mm256_fmadd_ps(va[r], vb, c[r][jj]);
                    }
                }
            }
        }
        acc[..R].copy_from_slice(&c);
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_assign(y: &mut [f32], x: &[f32]) {
        let n = y.len();
        let blocks = n / LANES;
        // SAFETY: every block `base..base + 8` lies below `n`, and the
        // caller checked that the slices are `n` long.
        unsafe {
            for ci in 0..blocks {
                let base = ci * LANES;
                let vx = _mm256_loadu_ps(x.as_ptr().add(base));
                let vy = _mm256_loadu_ps(y.as_ptr().add(base));
                _mm256_storeu_ps(y.as_mut_ptr().add(base), _mm256_add_ps(vy, vx));
            }
        }
        for p in blocks * LANES..n {
            y[p] += x[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn vadd(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let blocks = n / LANES;
        // SAFETY: every block `base..base + 8` lies below `n`, and the
        // caller checked that the slices are `n` long.
        unsafe {
            for ci in 0..blocks {
                let base = ci * LANES;
                let va = _mm256_loadu_ps(a.as_ptr().add(base));
                let vb = _mm256_loadu_ps(b.as_ptr().add(base));
                _mm256_storeu_ps(dst.as_mut_ptr().add(base), _mm256_add_ps(va, vb));
            }
        }
        for p in blocks * LANES..n {
            dst[p] = a[p] + b[p];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn vsub(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let blocks = n / LANES;
        // SAFETY: every block `base..base + 8` lies below `n`, and the
        // caller checked that the slices are `n` long.
        unsafe {
            for ci in 0..blocks {
                let base = ci * LANES;
                let va = _mm256_loadu_ps(a.as_ptr().add(base));
                let vb = _mm256_loadu_ps(b.as_ptr().add(base));
                _mm256_storeu_ps(dst.as_mut_ptr().add(base), _mm256_sub_ps(va, vb));
            }
        }
        for p in blocks * LANES..n {
            dst[p] = a[p] - b[p];
        }
    }

    /// AVX2 body of [`super::gemm_acc`]. The caller has bounds-checked
    /// every `(r, p)` of `a`, `(p, j)` of `b` and `(r, j)` of `c`.
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_acc(
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
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        let mut j = 0;
        // Column strip outer, row tile inner: the strip's `k`×16 slice of
        // `b` stays in L1 while the rows of `a` stream past it. The last
        // `n mod 8` columns are one masked strip: their chains interleave
        // in a register like any other strip's, where one scalar chain per
        // element waits out the FMA latency at every step.
        // SAFETY: `j < n` at every strip, so each pointer stays inside its
        // operand; the strips' rows and columns are in the checked extent.
        unsafe {
            while j + NR <= n {
                strip::<2, false>(m, k, ap, a_rs, a_ps, bp.add(j), ldb, cp.add(j), ldc, 0);
                j += NR;
            }
            if j + LANES <= n {
                strip::<1, false>(m, k, ap, a_rs, a_ps, bp.add(j), ldb, cp.add(j), ldc, 0);
                j += LANES;
            }
            if j < n {
                strip::<1, true>(m, k, ap, a_rs, a_ps, bp.add(j), ldb, cp.add(j), ldc, n - j);
            }
        }
    }

    /// One `V`-register-wide column strip (`b` and `c` point at its first
    /// column): 4-row tiles, then single rows. With `MASKED` the strip's
    /// last register holds only its first `cols` columns.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn strip<const V: usize, const MASKED: bool>(
        m: usize,
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_ps: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        cols: usize,
    ) {
        // Lane `l` of the mask is set for `l < cols`.
        let mask = _mm256_cmpgt_epi32(
            _mm256_set1_epi32(cols as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let mut r = 0;
        // SAFETY: rows `r < m` of the strip are in the caller's extent.
        unsafe {
            while r + MR <= m {
                tile::<MR, V, MASKED>(
                    k,
                    a.add(r * a_rs),
                    a_rs,
                    a_ps,
                    b,
                    ldb,
                    c.add(r * ldc),
                    ldc,
                    mask,
                );
                r += MR;
            }
            while r < m {
                tile::<1, V, MASKED>(
                    k,
                    a.add(r * a_rs),
                    a_rs,
                    a_ps,
                    b,
                    ldb,
                    c.add(r * ldc),
                    ldc,
                    mask,
                );
                r += 1;
            }
        }
    }

    /// One `R`-row × `V`-register tile: the accumulators load from `c`
    /// once, take all `k` fused steps in registers, and store once. With
    /// `MASKED` the last register loads and stores only `mask`'s lanes;
    /// the others compute on zeros and are never written.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_ps: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        mask: __m256i,
    ) {
        let masked = |v: usize| MASKED && v + 1 == V;
        // SAFETY: the caller passes `R` rows of `c` and `k` rows of `b`
        // holding `V` registers of columns (the last one's masked lanes
        // excepted), and `a` holding rows `r < R` at steps `p < k`.
        unsafe {
            let load = |p: *const f32, v: usize| {
                if masked(v) {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                }
            };
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = load(c.add(r * ldc + v * LANES), v);
                }
            }
            for p in 0..k {
                let brow = b.add(p * ldb);
                let mut vb = [_mm256_setzero_ps(); V];
                for (v, x) in vb.iter_mut().enumerate() {
                    *x = load(brow.add(v * LANES), v);
                }
                let acol = a.add(p * a_ps);
                for (r, row) in acc.iter_mut().enumerate() {
                    let va = _mm256_set1_ps(*acol.add(r * a_rs));
                    for (x, &bv) in row.iter_mut().zip(&vb) {
                        *x = _mm256_fmadd_ps(va, bv, *x);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &x) in row.iter().enumerate() {
                    if masked(v) {
                        _mm256_maskstore_ps(c.add(r * ldc + v * LANES), mask, x);
                    } else {
                        _mm256_storeu_ps(c.add(r * ldc + v * LANES), x);
                    }
                }
            }
        }
    }
}

/// The AVX-512 bodies of the two GEMM micro-kernels. Every function here
/// is `unsafe` with the same contract as the AVX2 module's, on a host with
/// AVX-512 F and DQ besides AVX2+FMA. A chain step is `_mm512_fmadd_ps` —
/// the portable bodies' operation at sixteen lanes — and each output
/// element keeps the chain it has at the other levels:
///
/// - [`dot_panel`] carries two outputs' 8-lane accumulators in one
///   register, columns `j` and `j + 1` in its low and high halves, against
///   the `a` row broadcast to both: lane `l` of each half still
///   accumulates `p ≡ l (mod 8)`. The halves are split back out and reduce
///   through the AVX2 [`avx2::lane_sums`] tree after the same sequential
///   tails, and an odd last column runs the AVX2 single-column sweep.
/// - [`gemm_acc`] vectorises over columns only, sixteen per register; the
///   `n mod 16` remainder is one masked strip.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::avx2::{finish_row, panel_block, panel_cols, tails_of};
    use super::{LANES, PANEL_KB, PANEL_ROWS};
    use core::arch::x86_64::{
        __m256, __m512, __mmask16, _mm256_loadu_ps, _mm512_broadcast_f32x8, _mm512_castps256_ps512,
        _mm512_castps512_ps256, _mm512_extractf32x8_ps, _mm512_fmadd_ps, _mm512_insertf32x8,
        _mm512_loadu_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps,
        _mm512_setzero_ps, _mm512_storeu_ps,
    };

    /// f32 lanes of one 512-bit register.
    const ZLANES: usize = 16;

    /// Rows of [`dot_panel`]'s register tile.
    const DOT_ROWS: usize = 4;

    /// Column pairs of [`dot_panel`]'s register tile: four rows by four
    /// pairs (eight columns) is sixteen accumulators fed by four
    /// broadcasts and four pair loads a step. The `a` rows stream from L2
    /// once per column group, so the group must be this wide for the
    /// stream to keep up with 512-bit multiply-adds.
    const DOT_PAIRS: usize = 4;

    /// Rows of [`gemm_acc`]'s register tile: eight rows by two registers
    /// (32 columns) is sixteen accumulators; the `a` factors are broadcast
    /// straight from memory into the multiply-adds.
    const ACC_ROWS: usize = 8;

    /// AVX-512 body of [`super::dot_panel`]: column groups of four pairs,
    /// then two, then one, then an odd last column on the AVX2 sweep. The
    /// caller has bounds-checked every row of `a` and `b`; `out` is
    /// indexed checked.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn dot_panel(
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
        // One shared-dimension block of a column group's `b` rows, pair
        // by pair in lane-step order (16 KiB), reused by every group and
        // left uninitialised: a block's first tile writes every slot the
        // block's other tiles read.
        let mut packed = std::mem::MaybeUninit::<[__m512; DOT_PAIRS * PANEL_KB / LANES]>::uninit();
        let packed = packed.as_mut_ptr().cast::<__m512>();
        let mut j = 0;
        // SAFETY: every column group lies inside `0..n`, the extent the
        // dispatcher checked, and `packed` holds a block of the widest.
        unsafe {
            while j + 2 * DOT_PAIRS <= n {
                panel_pairs::<DOT_PAIRS, 8>(
                    m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j, packed,
                );
                j += 2 * DOT_PAIRS;
            }
            if j + 4 <= n {
                panel_pairs::<2, 4>(m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j, packed);
                j += 4;
            }
            if j + 2 <= n {
                panel_pairs::<1, 2>(m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j, packed);
                j += 2;
            }
            if j < n {
                panel_cols::<1>(m, k, a, lda, b, ldb, bias, out, out_rs, out_cs, j);
            }
        }
    }

    /// Columns `j0 .. j0 + W` of [`dot_panel`] as `P = W / 2` pair
    /// registers: the AVX2 `panel_cols` walk — `b` stationary, groups of
    /// [`PANEL_ROWS`] `a` rows streaming past one shared-dimension block at
    /// a time, accumulators resting in the group's array between blocks —
    /// with each register holding two columns' lanes. The first tile of
    /// each block interleaves the block's `W` `b` rows into `packed`, one
    /// register per pair and lane step, so the block's other tiles load a
    /// pair with one instruction.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn panel_pairs<const P: usize, const W: usize>(
        m: usize,
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
        packed: *mut __m512,
    ) {
        const { assert!(W == 2 * P && P <= DOT_PAIRS) };
        let k8 = k / LANES * LANES;
        let kb = panel_block(k8);
        let btail = tails_of::<W>(b, ldb, k, j0);
        let btail = &btail[..k - k8];
        let mut acc = [[_mm512_setzero_ps(); P]; PANEL_ROWS];
        for r0 in (0..m).step_by(PANEL_ROWS) {
            let rows = PANEL_ROWS.min(m - r0);
            acc[..rows].fill([_mm512_setzero_ps(); P]);
            for p0 in (0..k8).step_by(kb) {
                let p1 = (p0 + kb).min(k8);
                // SAFETY: the dispatcher checked that rows `0..m` of `a`
                // and `0..n` of `b` hold `k` elements, and `r0 + rows <= m`,
                // `j0 + W <= n`; `packed` holds the block's `(p1 - p0) / 8`
                // steps of `P` pairs, which the block's first tile writes
                // before any other tile reads them.
                unsafe {
                    let (mut r, mut ap, bj) =
                        (0, a.as_ptr().add(r0 * lda), b.as_ptr().add(j0 * ldb));
                    while r < rows {
                        let h = DOT_ROWS.min(rows - r);
                        let acc = &mut acc[r..];
                        macro_rules! tile {
                            ($rows:expr, $pack:expr) => {
                                dot_tile::<$rows, P, $pack>(acc, ap, lda, bj, ldb, packed, p0, p1)
                            };
                        }
                        match (h, r == 0) {
                            (DOT_ROWS, true) => tile!(DOT_ROWS, true),
                            (DOT_ROWS, false) => tile!(DOT_ROWS, false),
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
            }
            for (r, pairs) in acc[..rows].iter().enumerate() {
                // Column `j0 + 2q` is pair `q`'s low half, `j0 + 2q + 1`
                // its high half.
                let lanes: [__m256; W] = std::array::from_fn(|jj| {
                    let x = pairs[jj / 2];
                    if jj % 2 == 0 {
                        _mm512_castps512_ps256(x)
                    } else {
                        _mm512_extractf32x8_ps::<1>(x)
                    }
                });
                let at = (r0 + r) * lda;
                // SAFETY: AVX2+FMA are enabled here.
                unsafe {
                    finish_row(
                        &lanes,
                        &a[at + k8..at + k],
                        btail,
                        bias,
                        out,
                        (r0 + r) * out_rs,
                        out_cs,
                        j0,
                    )
                };
            }
        }
    }

    /// One `R`-row × `P`-pair register tile of [`panel_pairs`]: lane steps
    /// `p0..p1` of `R` consecutive `a` rows, each broadcast to both
    /// halves, against the block's pairs of `b` rows, continuing the
    /// accumulators in `acc`. With `PACK` — the block's first tile — the
    /// pairs are read from the `2P` rows of `b` (`ldb` apart) and stored
    /// into `packed` as they are used; otherwise they are read back from
    /// `packed`. Packing in the first tile lets the reads of `b`, often
    /// from outside L2, overlap that tile's multiply-adds.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn dot_tile<const R: usize, const P: usize, const PACK: bool>(
        acc: &mut [[__m512; P]],
        a: *const f32,
        lda: usize,
        b: *const f32,
        ldb: usize,
        packed: *mut __m512,
        p0: usize,
        p1: usize,
    ) {
        let mut c: [[__m512; P]; R] = std::array::from_fn(|r| acc[r]);
        // SAFETY: the caller passes `R` rows of `a` and, with `PACK`, `2P`
        // rows of `b` from `b`, each holding at least `p1` elements, and
        // room for `(p1 - p0) / 8 · P` packed pairs.
        unsafe {
            for (s, p) in (p0..p1).step_by(LANES).enumerate() {
                let va: [__m512; R] = std::array::from_fn(|r| {
                    _mm512_broadcast_f32x8(_mm256_loadu_ps(a.add(r * lda + p)))
                });
                for q in 0..P {
                    let slot = packed.add(s * P + q);
                    let vb = if PACK {
                        let lo = _mm512_castps256_ps512(_mm256_loadu_ps(b.add(2 * q * ldb + p)));
                        let pair = _mm512_insertf32x8::<1>(
                            lo,
                            _mm256_loadu_ps(b.add((2 * q + 1) * ldb + p)),
                        );
                        slot.write(pair);
                        pair
                    } else {
                        slot.read()
                    };
                    for (row, &x) in c.iter_mut().zip(&va) {
                        row[q] = _mm512_fmadd_ps(x, vb, row[q]);
                    }
                }
            }
        }
        acc[..R].copy_from_slice(&c);
    }

    /// AVX-512 body of [`super::gemm_acc`]: 32- and 16-column strips, the
    /// `n mod 16` remainder as one masked strip, and 8-row, 4-row and
    /// single-row bands. The walk keeps the larger operand's tile in cache
    /// while the smaller streams past it: with `m > n` (the conv `dx`, a
    /// tall weight matrix against a few positions) a band of `a` rows
    /// crosses every strip before the next band is read; otherwise (the
    /// conv `dw`, a few channels against a wide patch panel) a strip's
    /// slice of `b` meets every band. The caller has bounds-checked every
    /// `(r, p)` of `a`, `(p, j)` of `b` and `(r, j)` of `c`.
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn gemm_acc(
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
        let (ap, bp, cp) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        // SAFETY: every band and strip lies inside rows `0..m` and columns
        // `0..n`, the extent the dispatcher checked.
        unsafe {
            if m > n {
                bands(m, 0, n, k, ap, a_rs, a_ps, bp, ldb, cp, ldc);
                return;
            }
            let mut j = 0;
            while j < n {
                let w = if n - j >= 2 * ZLANES {
                    2 * ZLANES
                } else {
                    (n - j).min(ZLANES)
                };
                bands(m, j, j + w, k, ap, a_rs, a_ps, bp, ldb, cp, ldc);
                j += w;
            }
        }
    }

    /// Rows `0..m` × columns `j0..j1` of [`gemm_acc`], row band outer:
    /// 8-row bands, one 4-row band, then single rows.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn bands(
        m: usize,
        j0: usize,
        j1: usize,
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_ps: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut r = 0;
        // SAFETY: rows `r < m` and columns `j0..j1` are in the caller's
        // extent.
        unsafe {
            while r + ACC_ROWS <= m {
                band::<ACC_ROWS>(
                    j0,
                    j1,
                    k,
                    a.add(r * a_rs),
                    a_rs,
                    a_ps,
                    b,
                    ldb,
                    c.add(r * ldc),
                    ldc,
                );
                r += ACC_ROWS;
            }
            if r + 4 <= m {
                band::<4>(
                    j0,
                    j1,
                    k,
                    a.add(r * a_rs),
                    a_rs,
                    a_ps,
                    b,
                    ldb,
                    c.add(r * ldc),
                    ldc,
                );
                r += 4;
            }
            while r < m {
                band::<1>(
                    j0,
                    j1,
                    k,
                    a.add(r * a_rs),
                    a_rs,
                    a_ps,
                    b,
                    ldb,
                    c.add(r * ldc),
                    ldc,
                );
                r += 1;
            }
        }
    }

    /// Columns `j0..j1` of one `R`-row band (`a` and `c` point at its
    /// first row): 32-column tiles, a 16-column one, then the remainder
    /// as one masked tile.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn band<const R: usize>(
        j0: usize,
        j1: usize,
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_ps: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut j = j0;
        // SAFETY: columns `j..j1` are in the caller's extent; a masked
        // tile never accesses its lanes past `j1`.
        unsafe {
            while j + 2 * ZLANES <= j1 {
                tile::<R, 2, false>(k, a, a_rs, a_ps, b.add(j), ldb, c.add(j), ldc, 0);
                j += 2 * ZLANES;
            }
            if j + ZLANES <= j1 {
                tile::<R, 1, false>(k, a, a_rs, a_ps, b.add(j), ldb, c.add(j), ldc, 0);
                j += ZLANES;
            }
            if j < j1 {
                let mask = ((1u32 << (j1 - j)) - 1) as __mmask16;
                tile::<R, 1, true>(k, a, a_rs, a_ps, b.add(j), ldb, c.add(j), ldc, mask);
            }
        }
    }

    /// One `R`-row × `V`-register tile: the accumulators load from `c`
    /// once, take all `k` fused steps in registers, and store once. With
    /// `MASKED` the last register loads and stores only `mask`'s lanes;
    /// the others compute on zeros and are never written.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq,avx2,fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<const R: usize, const V: usize, const MASKED: bool>(
        k: usize,
        a: *const f32,
        a_rs: usize,
        a_ps: usize,
        b: *const f32,
        ldb: usize,
        c: *mut f32,
        ldc: usize,
        mask: __mmask16,
    ) {
        let masked = |v: usize| MASKED && v + 1 == V;
        // SAFETY: the caller passes `R` rows of `c` and `k` rows of `b`
        // holding `V` registers of columns (the last one's masked lanes
        // excepted, which a masked load or store never accesses), and `a`
        // holding rows `r < R` at steps `p < k`.
        unsafe {
            let load = |p: *const f32, v: usize| {
                if masked(v) {
                    _mm512_maskz_loadu_ps(mask, p)
                } else {
                    _mm512_loadu_ps(p)
                }
            };
            let mut acc = [[_mm512_setzero_ps(); V]; R];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    *x = load(c.add(r * ldc + v * ZLANES), v);
                }
            }
            for p in 0..k {
                let brow = b.add(p * ldb);
                let mut vb = [_mm512_setzero_ps(); V];
                for (v, x) in vb.iter_mut().enumerate() {
                    *x = load(brow.add(v * ZLANES), v);
                }
                let acol = a.add(p * a_ps);
                for (r, row) in acc.iter_mut().enumerate() {
                    let va = _mm512_set1_ps(*acol.add(r * a_rs));
                    for (x, &bv) in row.iter_mut().zip(&vb) {
                        *x = _mm512_fmadd_ps(va, bv, *x);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &x) in row.iter().enumerate() {
                    if masked(v) {
                        _mm512_mask_storeu_ps(c.add(r * ldc + v * ZLANES), mask, x);
                    } else {
                        _mm512_storeu_ps(c.add(r * ldc + v * ZLANES), x);
                    }
                }
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

    #[test]
    fn multi_dot_kernels_match_single_dot() {
        for k in [0, 1, 7, 8, 9, 40, 257] {
            let a = fill(k, 7);
            let bs: Vec<Vec<f32>> = (0..8).map(|j| fill(k, 100 + j)).collect();
            let refs: [&[f32]; 8] = std::array::from_fn(|j| bs[j].as_slice());
            let singles: Vec<u32> = bs.iter().map(|b| dot8(&a, b).to_bits()).collect();
            let quad = dot8_x4_scalar(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            let octet = dot8_x8_scalar(&a, refs);
            for j in 0..4 {
                assert_eq!(quad[j].to_bits(), singles[j], "quad lane {j} k={k}");
            }
            for j in 0..8 {
                assert_eq!(octet[j].to_bits(), singles[j], "octet lane {j} k={k}");
            }
        }
    }

    #[test]
    fn baseline_sweeps_match_their_dispatched_instantiations() {
        // On an FMA host every call above takes a sweep's
        // `target_feature(enable = "fma")` copy; this test function is
        // compiled for baseline, so the `inline(always)` sweeps land here
        // as the other instantiation — `fmaf` through libm on x86-64, the
        // only one elsewhere — which is what a host without FMA runs.
        for k in [0, 1, 7, 8, 9, 40, 257] {
            let a = fill(k, 11);
            let bs: Vec<Vec<f32>> = (0..8).map(|j| fill(k, 200 + j)).collect();
            let refs: [&[f32]; 8] = std::array::from_fn(|j| bs[j].as_slice());
            assert_eq!(dot8_sweep(&a, &bs[0]).to_bits(), dot8(&a, &bs[0]).to_bits(), "dot8 k={k}");
            assert_eq!(
                dot8_x4_sweep(&a, &bs[0], &bs[1], &bs[2], &bs[3]).map(f32::to_bits),
                dot8_x4_scalar(&a, &bs[0], &bs[1], &bs[2], &bs[3]).map(f32::to_bits),
                "dot8_x4 k={k}"
            );
            assert_eq!(
                dot8_x8_sweep(&a, refs).map(f32::to_bits),
                dot8_x8_scalar(&a, refs).map(f32::to_bits),
                "dot8_x8 k={k}"
            );
        }
        // 4×16, 4×8 and 1×W tiles plus the scalar-column remainder, both
        // `a` layouts.
        for (m, n, k) in [(1, 1, 1), (4, 16, 9), (5, 27, 33), (9, 43, 20)] {
            for (a_rs, a_ps) in [(k, 1), (1, m)] {
                let a = fill(m * k, (m + n) as u32);
                let b = fill(k * n, (n + k) as u32);
                let c0 = fill(m * n, k as u32);
                let mut baseline = c0.clone();
                gemm_acc_sweep(m, n, k, &a, a_rs, a_ps, &b, n, &mut baseline, n);
                let baseline: Vec<u32> = baseline.iter().map(|v| v.to_bits()).collect();
                assert_levels_agree(|| {
                    let mut c = c0.clone();
                    gemm_acc(m, n, k, &a, a_rs, a_ps, &b, n, &mut c, n);
                    let got: Vec<u32> = c.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, baseline, "gemm_acc m={m} n={n} k={k} a_rs={a_rs}");
                    got
                });
            }
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
