#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): hermetic build + full test
# suite, offline. The workspace has zero external dependencies, so
# --offline must succeed even against an empty cargo registry.
#
# After the tests, the benchmark harness itself is verified: every bench
# binary must run in `--smoke` mode and emit parseable JSON records, and
# a full `kernels` run is gated against the committed baseline.
#
#   SCNN_VERIFY_SKIP_BENCH=1 ./scripts/verify.sh
#       skips the full kernels run + regression gate and the repo
#       benchmark's own check (smoke runs and JSON validation still
#       happen) — for loaded or throttled hosts where wall-clock medians
#       are meaningless.
set -euo pipefail
cd "$(dirname "$0")/.."

# Wall time per stage: `stage NAME` closes the stage running since the
# last call, prints how long it took, and keeps the line for the summary
# at the end. It times; it gates nothing.
stage_times=()
stage_t0=$EPOCHREALTIME
stage() {
  local now=$EPOCHREALTIME
  local line
  line="$(awk -v a="$stage_t0" -v b="$now" -v n="$1" 'BEGIN { printf "%-28s %7.1f s", n, b - a }')"
  echo "verify: stage $line"
  stage_times+=("$line")
  stage_t0=$now
}

# Structural guard: serving has no kernel dispatch and no plan replay of
# its own — what a node computes is `scnn_nn::Executor::forward_wave`,
# where activations live is `scnn_runtime::PlanRuntime` (DESIGN.md §15).
# A file under crates/serve/src naming the kernels module or the
# plan-event types means a second copy is coming back.
if grep -rnE 'scnn_nn::kernels|MemEvent' crates/serve/src; then
  echo "verify: crates/serve/src must not dispatch kernels or replay plan events" >&2
  exit 1
fi

# Ledger guard: the plan counts, the runtime holds (DESIGN.md §10). A
# plan's legality is checked once, at export; the runtime reports one
# physical meter (`resident_peak_bytes`) and callers read the planned
# pool from `plan().layout`. A per-step replay of planned addresses, its
# copies of the layout's figures, or an `x̂` kept outside every plan
# (a BN's backward regenerates it from the input) is a second ledger
# coming back.
if grep -rnE 'PoolGauge|plan_device_peak_bytes|pool_high_water|BnXhat' crates/ src/ examples/ tests/; then
  echo "verify: a second ledger (replayed pool gauge or unplanned x̂) is back" >&2
  exit 1
fi

# The non-comment lines of the given Rust files, each file up to its
# first `#[cfg(test)]`: the library code the panic gate and the line
# count below read.
code_lines() {
  awk 'FNR == 1 { stop = 0 } /#\[cfg\(test\)\]/ { stop = 1 } stop || /^[[:space:]]*\/\// { next } { print }' "$@"
}

# Panic-site gate (ROADMAP item 11): failures on the serving and runtime
# library paths are values. Count `.unwrap(`, `.expect(`, `panic!`,
# `unreachable!` and `assert*!` in the code lines of
# crates/{serve,runtime}/src. The count may only go down: 46 before the
# replayed pool gauge and run_batch's per-slot assert went, 41 after, 39
# once the host tier became a file (its mutex's two `expect`s and one of
# the two tier lookups went; a serving slot building its runtime gained
# one).
panic_ceiling=39
panic_sites="$(code_lines crates/serve/src/*.rs crates/runtime/src/*.rs \
  | grep -oE '\.unwrap\(|\.expect\(|panic!|unreachable!|assert[a-z_]*!' | wc -l)"
if (( panic_sites > panic_ceiling )); then
  echo "verify: $panic_sites panic sites in crates/{serve,runtime}/src, ceiling $panic_ceiling" >&2
  exit 1
fi

# Knob guard: the library crates read two process-wide variables,
# SCNN_THREADS (crates/par) and SCNN_SIMD (crates/tensor) — both
# bit-neutral. Where to split and what to offload are the system's
# tunables, and they are arguments, not environment: a third read (an
# SCNN_PLAN_CACHE, an SCNN_CONV_ALGO) is a knob coming back.
# crates/bench is the measurement harness and keeps SCNN_BENCH_DIR.
if grep -rnE 'env::var(_os)?\("SCNN_' crates/*/src \
    | grep -vE '^crates/bench/|"SCNN_(THREADS|SIMD)"'; then
  echo "verify: a library crate reads an SCNN_* variable other than SCNN_THREADS/SCNN_SIMD" >&2
  exit 1
fi

# Conv-algorithm guard: every conv node runs the tile engine, and the one
# place that says so is the conv kernels (crates/nn/src/kernels/conv.rs),
# which take `Some(ConvAlgo::Materialized)` from tests that want the
# im2col reference. A `ConvAlgo::` in any other library file — a planner,
# a schedule, an executor — is a second place choosing algorithms; the
# retired planner latitude and selector must not come back under their
# old names either.
if grep -rn 'ConvAlgo::' crates/*/src \
    | grep -vE '^crates/(tensor/src/conv_engine|nn/src/kernels/conv)\.rs:'; then
  echo "verify: ConvAlgo:: outside crates/tensor/src/conv_engine.rs and crates/nn/src/kernels/conv.rs" >&2
  exit 1
fi
if grep -rnE 'allow_transform_algos|CostOptions|WINOGRAD_WS_ENVELOPE|default_conv_algo' crates/; then
  echo "verify: a retired conv-algorithm selector is back under crates/" >&2
  exit 1
fi

# Storage guard: a tensor is a `Vec<f32>` and a freed activation goes
# back to the allocator (DESIGN.md §10). There is no buffer pool beside
# the plan: a free list would hold resident what the plan just freed.
# (`TsoRole::Workspace` is the planner's word for kernel scratch TSOs.)
if grep -rnE 'Workspace::|PooledBuf|BufferRecycler|from_pooled|is_pooled' crates/ src/ examples/ tests/ \
    | grep -v 'TsoRole::Workspace'; then
  echo "verify: a pooled tensor representation or buffer free list is back" >&2
  exit 1
fi

# Order guard: there is one execution order — the tape's, at every batch
# size (DESIGN.md §15) — and one liveness walk, the planner's (§12). A
# schedule that interleaves levelled waves, or a forward-only cost proxy
# that ranks splits beside the planner, is a second one coming back.
if grep -rnE 'InterleavedSchedule|interleave\(|plan_split_auto|split_cost' crates/*/src; then
  echo "verify: a second execution order or a second liveness model is back under crates/*/src" >&2
  exit 1
fi

# Chain-step guard: the step of every GEMM accumulation chain is one
# fused multiply-add at every width of `scnn_tensor::simd` (DESIGN.md
# §14) — `Lanes::fma`, which is `_mm512_fmadd_ps` for `__m512`,
# `_mm256_fmadd_ps` for `__m256` and `f32::mul_add` for the portable
# `[f32; 8]` — and in the conv engine's position path. A vector multiply
# under crates/tensor/src is a two-rounding step (and a second FP uop per
# step) coming back.
if grep -rnE '_mm(256|512)_mul_ps' crates/tensor/src; then
  echo "verify: a vector multiply under crates/tensor/src — the chain step is a fused multiply-add" >&2
  exit 1
fi

# One-body guard (DESIGN.md §14): every kernel of `scnn_tensor::simd` is
# one body generic over `Lanes`, and the only code there that names a
# 256- or 512-bit intrinsic is the `impl Lanes for …` / `impl Eight for …`
# blocks. An intrinsic anywhere else in the file's library code, or a
# `fn` named after one of the per-level bodies the trait replaced (or
# their instantiation macro), is a second copy of a kernel coming back.
simd_rs=crates/tensor/src/simd.rs
simd_intrinsics="$(awk '
  /#\[cfg\(test\)\]/ { exit }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*impl (Lanes|Eight) for / {
    match($0, /^[[:space:]]*/); close_line = substr($0, 1, RLENGTH) "}"; inside = 1; next
  }
  inside && $0 == close_line { inside = 0; next }
  !inside && /_mm(256|512)_/ { print FILENAME ":" FNR ": " $0 }' "$simd_rs")"
if [[ -n "$simd_intrinsics" ]]; then
  echo "$simd_intrinsics" >&2
  echo "verify: a 256/512-bit intrinsic in $simd_rs outside the Lanes / Eight impls" >&2
  exit 1
fi
if grep -rnE 'fn (dot8_x[48][a-z_]*|dot_panel_scalar|gemm_acc_scalar|panel_cols|panel_pairs|strip_scalar|tile_scalar)\b|macro_rules! fused_or_baseline\b' crates/; then
  echo "verify: a per-level kernel body is back under crates/ (one body per kernel, generic over Lanes)" >&2
  exit 1
fi

# SAFETY guard: every `unsafe` block of the library code (crates/*/src,
# each file up to its first `#[cfg(test)]`) states why it is sound in a
# comment naming `SAFETY` directly above the line that opens it — in the
# run of comment lines immediately preceding it. `unsafe fn` and
# `unsafe impl` are not blocks: their contracts live in their docs.
# shellcheck disable=SC2046  # the file list is deliberately word-split
unsafe_bare="$(awk '
  FNR == 1 { stop = 0; has = 0 }
  /#\[cfg\(test\)\]/ { stop = 1 }
  stop { next }
  /^[[:space:]]*\/\// { if ($0 ~ /SAFETY/) has = 1; next }
  /unsafe[[:space:]]*\{/ && !has { print FILENAME ":" FNR ": " $0 }
  { has = 0 }' $(find crates/*/src -name '*.rs' | sort))"
if [[ -n "$unsafe_bare" ]]; then
  echo "$unsafe_bare" >&2
  echo "verify: an unsafe block under crates/*/src has no SAFETY comment directly above it" >&2
  exit 1
fi

# Op-table guard (DESIGN.md §18): what an op's backward reads, the aux
# bytes it keeps, its alias rule and its backward/forward time are one
# table, `Op::desc`; a window op's cropped geometry is one constructor,
# `Conv2dGeometry::cropped`. A function of the old names is a second
# copy of a fact coming back.
if grep -rnE 'fn (backward_needs_input|backward_needs_output|aux_saved_bytes|is_inplace_capable|backward_factor|split_padding|window_out)\b' crates/; then
  echo "verify: a per-op fact or window geometry outside Op::desc / Conv2dGeometry::cropped" >&2
  exit 1
fi
# The split transform keeps no model of the network of its own: it plans
# on the unsplit graph's shapes and makes each layer's parameters through
# the `Graph` builders. A shape trace or a parameter pre-pass is a second
# shape or parameter rule coming back.
if grep -rnE 'struct ShapeTrace\b|enum LayerParams\b|fn (shape_trace|layer_shape|conv2d_shared)\b' crates/; then
  echo "verify: a second shape or parameter rule beside the graph's is back under crates/" >&2
  exit 1
fi

# Capacity guard (DESIGN.md §15): a server is one dispatch thread over
# one engine, and its planned footprint is the paper's Fig. 10 model,
# `params + C × pool` — one formula, `StaticLayout::serving_device_bytes`,
# and its inverse. A replica count in the config or a replica-aware
# capacity function is a second deployment axis coming back.
if grep -rnE 'fn (max_concurrency_replicated|device_bytes_replicated|per_replica_fit)\b|pub replicas:' crates/; then
  echo "verify: a serving replica axis is back under crates/ (one dispatcher, params + C × pool)" >&2
  exit 1
fi

# The size of the library: non-blank code lines under crates/*/src (see
# code_lines). Printed for the record, not gated.
# shellcheck disable=SC2046  # the file list is deliberately word-split
src_lines="$(code_lines $(find crates/*/src -name '*.rs' | sort) | grep -c '[^[:space:]]')"
echo "verify: $src_lines non-comment non-blank non-test lines under crates/*/src"
stage guards

cargo build --workspace --release --offline
stage build
cargo test -q --workspace --offline
stage "workspace tests"
cargo clippy --workspace --all-targets --offline -- -D warnings
stage clippy

# The spin-then-park pool (DESIGN.md §9) under the three regimes its
# wake-up protocol has: no workers at all, a pool that fits this host's
# two CPUs (its worker polls), and an oversubscribed pool (nobody polls).
for threads in 1 2 7; do
  SCNN_THREADS="$threads" cargo test -q --release --offline -p scnn-par --test pool_props
done
stage "pool_props x3"

# Smoke every bench binary: tiny shapes, one cold sample — proves the
# full code path still runs and the emitted records parse. The serving
# smoke additionally pins its deterministic memory records: the resident
# peak is sampled at wave barriers and the capacities are a closed form
# over the plan, so both are exact on any host — pinned from both sides,
# they catch planner or engine drift even when the timing gates below are
# skipped. The resident peak is pinned at
# 1, 8 and 64 slots: every request runs patch by patch in tape order at
# every batch size (DESIGN.md §15), so the three pins are one per-slot
# figure × 1, 8 and 64, and a second order shows as a pin that is not.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
declare -A smoke_gates=(
  [serving]="--max-peak serve_resident_peak/c1:36864,serve_resident_peak/c8:294912,serve_resident_peak/c64:2359296,overload/queue_depth_peak:8 --min-peak serve_resident_peak/c1:36864,serve_resident_peak/c8:294912,serve_resident_peak/c64:2359296,capacity/max_concurrency:166,overload/shed:1 --max-p99 overload/admitted_latency:10000000000"
)
for bench in kernels planning ablation memory serving; do
  SCNN_BENCH_DIR="$tmp" cargo bench -q -p scnn-bench --bench "$bench" --offline -- --smoke
  # shellcheck disable=SC2086  # the gate spec is deliberately word-split
  cargo run -q --release -p scnn-bench --bin bench_check --offline -- \
    --file "$tmp/BENCH_$bench.json" ${smoke_gates[$bench]:-}
  stage "smoke $bench"
done

# The memory bench once more with the allocator byte counter compiled in,
# so the heap-track feature cannot rot — and the one process-level
# "planned means physical" gate: the HMMS step's heap high-water must sit
# below the Vec-per-node step's by at least the smoke plan's
# `host_pool_bytes` (1,229,312 B). The host tier is a file, not a heap
# allocation (DESIGN.md §10), so the saving is the plan-driven frees
# (≈ 0.79 MB) plus the whole host pool (2,017,898 B measured); a host tier
# back on the heap reads ≈ 0.79 MB and fails. The floor was 1 B while
# the tier was a `Vec`.
SCNN_BENCH_DIR="$tmp" cargo bench -q -p scnn-bench --bench memory \
  --features heap-track --offline -- --smoke
cargo run -q --release -p scnn-bench --bin bench_check --offline -- \
  --file "$tmp/BENCH_memory.json" --min-peak heap_saved/hmms:1229312
stage "heap-track smoke"

# Full runs, gated against the committed baselines (fastest fresh sample
# vs baseline median — see bench_check). The ms-scale kernels group gets
# the strict 25% bound; the µs-scale planning/ablation sims are far more
# exposed to scheduler noise on a shared single-core host, so they get a
# looser tripwire that still catches algorithmic regressions.
#
# Absolute bounds ride along where the full-size shapes run: the conv
# forward median must hold the tiled engine's headline (≤ 4.9 ms), the
# tiled scratch arenas must stay far below the 4.7 MB full-im2col
# footprint the engine exists to avoid. A training step runs its plan's
# tape in order (DESIGN.md §10), so what it keeps resident is as
# deterministic as the plan: the vdnn, hmms and micro-batched steps are
# pinned from both sides at their exact resident activation peaks, each
# below the planned pool pinned beside it — a step that falls out of
# tape order reads several times its pin. The planned device pool under
# the workspace/offload-overlapped layout is fully deterministic (no
# timing), so it is pinned to the exact byte count the interval packer
# produces (DESIGN.md §12), and the
# micro-batched plan (DESIGN.md §13) is pinned strictly below it —
# together with the capacity-search pair (micro-batched max logical
# batch must stay strictly above the full-batch one at the 27 MiB
# budget), these gates are the PR's headline claims.
#
# The kernel gates (DESIGN.md §14): every record a GEMM micro-kernel
# carries holds a ceiling at ~1.25× its 1-thread median, re-based when the
# chain step became one fused multiply-add (PR 24) on the median of eleven
# fresh runs (the committed file is the most typical one of the eleven,
# whole): the conv forward (2.20 ms; 2.43 committed before, 4.90 at PR 6),
# the conv backward (3.67; 4.22 before; now a ratio gate, below)
# and matmul_512 (4.45; 5.52 before).
# The twin gates: `conv2d_fwd_8x16x32x32` under auto dispatch and its
# twin forced to the level auto resolves to (`_avx512` on an AVX-512
# host, `_avx2` on an AVX2 one; picked below from the records the bench
# wrote) are one code path, their samples are taken alternately
# (benches/kernels.rs), and their medians must sit within 1.10× of each
# other both ways — a bench that cannot agree with itself cannot hold the
# other gates. On an AVX-512 host the `_avx2` records of it and of
# `matmul_512` are forced records of their own, held like every record by
# the committed baseline; the two `_avx512` twins hold ceilings at ~1.25×
# their 1-thread medians (2.42 / 2.80 ms: the committed `_avx2` medians
# times the AVX-512 / AVX2 ratio five alternating runs measured, 0.88 and
# 0.50, times 1.25 — those runs caught the host 1.5× slow).
# The portable-body gates: `_scalar` records hold ceilings (≤ 8.1 ms conv
# forward, ≤ 12 ms matmul_512; 3.28 / 5.82 over those runs) that the portable
# sweeps meet only as their `target_feature(enable = "fma")` copies: a
# libm call per multiply-add is 3.2 ns a step against 0.16.
# The winograd gate (DESIGN.md §16): what is left of Winograd is a
# forward-only kernel no conv node runs, kept because the repo benchmark
# probes it (`tensor.conv_fwd_winograd_ms`). It holds an absolute ceiling
# (≤ 4.5 ms) and a forward ratio gate (below) — a tripwire for the kernel
# regressing, not a claim that it wins.
# The forward ratio gates: `conv2d_fwd_8x16x32x32` and its Winograd twin
# are held as ratios to `fma_ref`, the bare multiply-add region of the
# same fresh run on the same threads (benches/kernels.rs), per level: at
# AVX-512 ≤ 1.00 and ≤ 1.55, at AVX2 ≤ 1.50 and ≤ 1.60. Six runs of this
# script's configuration on a 2-vCPU AVX-512 host read 0.69–0.86 and
# 1.00–1.33, six forced to AVX2 1.16–1.32 and 1.11–1.41 (the bounds are
# the highest reading plus ~15 %). They replace a gate holding Winograd
# within 1.10× of the direct forward, which measured the direct path
# instead: it read 0.93–1.08 with the forward forced to its strip-packed
# AVX2 body and 1.44–1.56 once the AVX-512 forward stopped packing.
# The backward ratio gates: `conv2d_bwd_8x16x32x32`, `conv2d_bwd_8x32x16x16`
# and `conv2d_bwd_8x256x4x4` are held the same way, to `fma_ref`, per level:
# at AVX-512 ≤ 2.10 / 0.85 / 3.00, at AVX2 ≤ 2.95 / 1.30 / 5.00. They
# replace absolute ceilings of 4.6 / 2.18 / 7.55 ms, which a host in its
# slow state failed on untouched code and a fast one passed at any speed.
# On a 2-vCPU Emerald Rapids host, runs of this script's configuration
# with nothing else running read 1.43–1.81 / 0.56–0.73 / 2.04–2.61 at
# AVX-512 (six runs) and 2.34–2.56 / 0.95–1.11 / 4.19–4.37 forced to AVX2
# (two runs; a third, whose `fma_ref` caught the host slow, read lower);
# the bounds are the highest reading plus ~15 %, and a backward twice as
# slow fails each of them.
# The workload-shape gates (DESIGN.md §14, results/conv_layers.txt): the
# conv shapes the repo benchmark's training step actually executes — the
# 32→32 16×16 patch conv, layer4's 256→256 4×4 map, a 1×1 stride-2
# shortcut — and one SGD step over the width-0.5 ResNet-18's parameters
# hold ceilings at ~1.25× their 1-thread medians, the two backward
# records excepted (ratio gates above) (the shortcut's and the
# SGD step's are the parent's: PR 24 did not move either record).
# The page-fault gate (DESIGN.md §10): a steady-state step of the repo
# benchmark's `train_plain` workload — the unsplit graph under one
# MeterProvider, whose forward writes into the buffers the last step
# wrote — takes at most 300 minor faults (0–11 measured; the fresh-buffer
# step it replaced re-faulted ≈ 3,600 pages a step here, the allocator
# trimming the activation table the step dropped).
# The fork-join gates (DESIGN.md §9): a 4-task region of 50 µs tasks on
# two threads reads 100 µs when it forks and 200 µs when it does not.
# After 100 µs of serial work on the submitter — the gap between two
# waves of a forward pass — the region must still fork: ≤ 130 µs, where
# a worker that parks the instant a region ends reads 145–190 µs and a
# 50 µs budget 123–127. The ratio to the back-to-back region rides along
# (≤ 1.5); measured, it is the ceiling that tells the pools apart — park
# at once slows both regions alike and reads 1.0–1.15.
# The ReLU gate: backward over a 1 MB activation with random signs must
# stay within 3× of forward on the same tensor (≈ 1.8 committed). A
# branch per element — the mask is a coin flip — reads ≈ 12–20×; slices
# zipped with no index compile to a compare and a blend.
# The serving gates (DESIGN.md §15): the full-size resident peaks are
# deterministic like the planned-device pins, so they are pinned exactly,
# two-sided; the capacity search (`params + C × pool`) at the 64 MiB
# budget must not shrink; and the p99 tail latencies get
# generous ceilings (~4-10× the measured values; c1's is 4× its
# committed p99) that catch a pathological serialization — a batcher
# that stops coalescing, a pool that stops sharing — without flaking on
# ordinary scheduler noise.
# The overload smoke rides in both gate sets: an 8× burst against the
# bounded queue must shed (shed ≥ 1), must never overflow the bound
# (queue_depth_peak ≤ capacity), and every admitted request must finish
# with its p99 under the 10 s interactive deadline the bench configures.
# The AVX-512 host's `_avx512` twins (see the twin gates above), at
# ~1.25× their 1-thread medians.
kernels_avx512_ceilings="conv2d_fwd_8x16x32x32_avx512:2420000,matmul_512_avx512:2800000"
# The forward ratio gates (see "The forward ratio gates" above), per level
# the host's forwards run at.
kernels_avx512_fma_ratios="conv2d_fwd_8x16x32x32:fma_ref:1.00,conv2d_fwd_8x16x32x32_winograd:fma_ref:1.55,conv2d_bwd_8x16x32x32:fma_ref:2.10,conv2d_bwd_8x32x16x16:fma_ref:0.85,conv2d_bwd_8x256x4x4:fma_ref:3.00"
kernels_avx2_fma_ratios="conv2d_fwd_8x16x32x32:fma_ref:1.50,conv2d_fwd_8x16x32x32_winograd:fma_ref:1.60,conv2d_bwd_8x16x32x32:fma_ref:2.95,conv2d_bwd_8x32x16x16:fma_ref:1.30,conv2d_bwd_8x256x4x4:fma_ref:5.00"
declare -A abs_gates=(
  [kernels]="--max-median conv2d_fwd_8x16x32x32:2750000,conv2d_fwd_8x16x32x32_winograd:4500000,matmul_512:5550000,conv2d_fwd_8x32x16x16:1135000,conv2d_fwd_8x256x4x4:3430000,conv2d_fwd_1x1s2_8x32x16x16:145000,sgd_step_resnet18_w05:1850000,conv2d_fwd_8x16x32x32_scalar:8100000,matmul_512_scalar:12000000,par_fork_join/gap100us:130000 --max-peak conv2d_fwd_scratch_peak:1048576,conv2d_bwd_scratch_peak:2097152 --max-ratio par_fork_join/gap100us:par_fork_join/hot:1.5,relu_bwd_8x32x32x32:relu_fwd_8x32x32x32:3.0"
  [memory]="--max-peak minor_faults_per_step/vec_unsplit:300,train_step/vdnn:1179648,train_step/hmms:1572864,train_step/hmms_micro:1572864,planned_device/vdnn:3300352,planned_device/hmms:3300352,planned_device/hmms_micro:2707968,capacity/max_batch/legacy:13 --min-peak train_step/vdnn:1179648,train_step/hmms:1572864,train_step/hmms_micro:1572864,capacity/max_batch/micro:18"
  [serving]="--max-peak serve_resident_peak/c1:61440,serve_resident_peak/c8:491520,serve_resident_peak/c64:3932160,overload/queue_depth_peak:8 --min-peak serve_resident_peak/c1:61440,serve_resident_peak/c8:491520,serve_resident_peak/c64:3932160,capacity/max_concurrency:738,overload/shed:1 --max-p99 serve_latency/c1:24000000,serve_latency/c8:250000000,serve_latency/c64:4000000000,overload/admitted_latency:10000000000"
)
if [[ "${SCNN_VERIFY_SKIP_BENCH:-0}" != 1 ]]; then
  for spec in kernels:0.25 planning:0.60 ablation:0.60 memory:0.60 serving:0.60; do
    bench="${spec%%:*}"
    tol="${spec##*:}"
    SCNN_BENCH_DIR="$tmp" cargo bench -q -p scnn-bench --bench "$bench" --offline
    gates="${abs_gates[$bench]:-}"
    if [[ "$bench" == kernels ]]; then
      # The kernels bench twins each auto record with the forced level
      # auto resolved to on this host: `_avx512` where it recorded one.
      twin=avx2
      fma_ratios="$kernels_avx2_fma_ratios"
      if grep -q '"name":"conv2d_fwd_8x16x32x32_avx512"' "$tmp/BENCH_kernels.json"; then
        twin=avx512
        fma_ratios="$kernels_avx512_fma_ratios"
        gates="${gates/--max-median /--max-median $kernels_avx512_ceilings,}"
      fi
      rec=conv2d_fwd_8x16x32x32
      gates="${gates/--max-ratio /--max-ratio $rec:${rec}_$twin:1.10,${rec}_$twin:$rec:1.10,$fma_ratios,}"
    fi
    # shellcheck disable=SC2086  # the gate spec is deliberately word-split
    cargo run -q --release -p scnn-bench --bin bench_check --offline -- \
      --file "$tmp/BENCH_$bench.json" --baseline "BENCH_$bench.json" --tolerance "$tol" \
      $gates
    stage "bench $bench"
  done
  # The repo benchmark (BENCHMARK.json): offline build, its unit tests
  # and one smoke run per workload, traced and untraced.
  benchmark/check.sh
  stage benchmark/check.sh
fi

echo "verify: OK"
echo "  ran: cargo test -q --workspace --offline (every crate's suites; includes tier-1,"
echo "       'cargo test -q', which alone runs only the umbrella crate's e2e tests)"
echo "  ran: cargo clippy --workspace --all-targets -- -D warnings"
if [[ "${SCNN_VERIFY_SKIP_BENCH:-0}" == 1 ]]; then
  echo "  ran: bench smokes + byte pins; skipped: full benches, benchmark/check.sh"
else
  echo "  ran: bench smokes + byte pins, full gated benches, benchmark/check.sh"
fi
echo "  code: $src_lines non-comment non-blank non-test lines under crates/*/src"
echo "  wall time per stage:"
printf '    %s\n' "${stage_times[@]}"
