#!/usr/bin/env bash
# Tier-1 verification gate (see ROADMAP.md): hermetic build + full test
# suite, offline. The workspace has zero external dependencies, so
# --offline must succeed even against an empty cargo registry.
#
# After the tests, the benchmark harness itself is verified: every bench
# binary must run in `--smoke` mode and emit parseable JSON records, and
# the full `kernels`, `memory` and `serving` runs are gated (below).
#
#   SCNN_VERIFY_SKIP_BENCH=1 ./scripts/verify.sh
#       skips the full bench runs and the repo benchmark's own check
#       (smoke runs, byte pins and JSON validation still happen).
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
# once the host tier became a file.
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
# `[f32; 8]`, the conv engine's position bodies included. A vector multiply
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
# The conv engine's position bodies are written over `Lanes` too and run
# at every level through `dispatch!`: no intrinsic and no `target_arch`
# gate in crates/tensor/src/conv_engine.rs.
conv_engine_rs=crates/tensor/src/conv_engine.rs
if code_lines "$conv_engine_rs" | grep -nE '_mm(256|512)_|target_arch'; then
  echo "verify: an intrinsic or a target_arch gate in $conv_engine_rs (its kernels are written over Lanes)" >&2
  exit 1
fi
# One conv path (DESIGN.md §11): the forward and dx read in place at every
# level, stride and crop. The strip pack, its scatter and the dx scratch
# tile are a second path coming back.
if grep -rnE 'fn (pack_strips|scatter_strips|fwd_strips|dx_tile_cols|dx_task_images)\b' crates/; then
  echo "verify: the strip path (pack, scatter, dx tile) is back under crates/" >&2
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

# Workspace guard (DESIGN.md §13): `dw` bounds its own partials — at most
# two `KC` blocks beside `dw` — so every conv runs one workspace path and
# the planner reads one number per conv, `conv2d_workspace_bytes`. A
# micro-batch schedule, its alignment rules or the single-block special
# case is the per-node chunking axis coming back.
if grep -rnE 'MicroBatchSchedule|micro_batch_aligned|min_micro_batch|with_micro|conv2d_dw_single_block' crates/*/src; then
  echo "verify: the micro-batch axis is back under crates/*/src (dw bounds its partials itself)" >&2
  exit 1
fi

# Retired-gate guard: a gate on time is a ratio of two records of one run,
# sampled in turn; no gate reads a committed median or an absolute time,
# and a committed BENCH_*.json is a result, not a gate input. The flags
# that did either, or a committed bench file handed to a gate, are the
# host-bound gates coming back.
if grep -rnE -- '--(baseline|tolerance|max-median)\b' scripts/ \
    || grep -nE '"(baseline|tolerance|max-median)"' crates/bench/src/bin/bench_check.rs \
    || grep -HnE '(^|[[:space:]="])(\./)?BENCH_[^[:space:]"]*\.json' scripts/*.sh | grep -vE '^[^:]+:[0-9]+:[[:space:]]*#'; then
  echo "verify: a retired time gate (committed median, tolerance, absolute ceiling) or a committed bench file in a gate is back" >&2
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

# Full runs. A time reads the host as much as the code (ROADMAP item 1),
# so every gate on time is a ratio of two records one call sampled in
# turn (`BenchGroup::bench_in_turn`; bench_check gates the median of the
# per-round quotients): a compute-bound kernel to `fma_ref` (the bare
# multiply-add loop) at the level it runs, a memory-bound one to `copy_ref`
# (1 MiB into a fresh buffer), a twin to its twin, a training step to the
# step it replaces. No gate reads a committed BENCH_*.json: they are results.
# The bound rule: each bound is at least 1.15 × the highest clean reading
# and below 2 × the lowest, so a 2× slowdown trips it wherever it has been
# read; most sit a fifth of the way from the first to the second. Readings
# (lo–hi beside each bound): a 2-vCPU Intel Xeon (family 6 model 143),
# kernels at one thread, 11 runs forced to AVX2 and 41 at AVX-512 (7 and
# 32 for a gate first read in them, 18 for the fork-join pair). `_avx2`
# records of an AVX-512 host are forced, against the AVX2 `fma_ref`; the
# twins hold each other at 1.25. Too wide against `fma_ref`, the 4×4
# backward (1.75–3.19) holds against the 32×32 one, and the serving shapes
# against the 8×16×32×32 forward; `matmul_256` and `maxpool_fwd` read wider
# than the rule and sit at 1.15 × highest. `par_fork_join/ideal` is 50 µs of
# work on the submitter, what a perfect fork of four 25 µs tasks on two
# threads reads on any host; 1.21 is the least the rule allows (a 50 µs
# spin budget reads 1.32, a worker that parks at once 1.52–1.57).
kernels_avx512=(
  conv2d_fwd_8x16x32x32_avx2:fma_ref_avx2:2.3                 # 1.24–1.95
  conv2d_fwd_8x16x32x32_avx512:fma_ref:1.41                   # 0.78–1.19
  conv2d_fwd_8x16x32x32:fma_ref:1.32                          # 0.74–1.14
  conv2d_fwd_8x16x32x32_winograd:fma_ref:2.09                 # 1.06–1.81
  conv2d_bwd_8x16x32x32:fma_ref:1.86                          # 1.07–1.55
  conv2d_dw_8x16x32x32:fma_ref:0.8                            # 0.406–0.689
  conv2d_fwd_8x32x16x16:fma_ref:0.45                          # 0.263–0.380
  conv2d_bwd_8x32x16x16:fma_ref:0.81                          # 0.438–0.688
  conv2d_fwd_8x256x4x4:fma_ref:1.5                            # 0.85–1.22
  conv2d_bwd_8x256x4x4:conv2d_bwd_8x16x32x32:2.7              # 1.50–2.27
  conv2d_fwd_1x1s2_8x32x16x16:conv2d_fwd_8x16x32x32:0.129     # 0.073–0.108
  conv2d_fwd_1x16x16x16:conv2d_fwd_8x16x32x32:0.022           # 0.012–0.018
  conv2d_fwd_1x128x4x4:conv2d_fwd_8x16x32x32:0.06             # 0.038–0.052
  linear_fwd_128x512x256:fma_ref:0.34                         # 0.182–0.289
  linear_bwd_128x512x256:fma_ref:0.63                         # 0.358–0.520
  matmul_256:fma_ref:0.31                                     # 0.150–0.263
  matmul_512_avx2:fma_ref_avx2:5.42                           # 3.41–4.59
  matmul_512_avx512:fma_ref:2.8                               # 1.48–2.38
  matmul_512:fma_ref:2.92                                     # 1.50–2.52
  conv2d_fwd_8x16x32x32_scalar:fma_ref_scalar:1.68            # 0.85–1.45
  matmul_512_scalar:fma_ref_scalar:3.7                        # 2.03–3.08
  conv2d_fwd_8x16x32x32:conv2d_fwd_8x16x32x32_avx512:1.25     # 0.960–1.086
  conv2d_fwd_8x16x32x32_avx512:conv2d_fwd_8x16x32x32:1.25     # 0.94–1.06
  conv2d_dw_8x16x32x32:conv2d_fwd_8x16x32x32:0.78             # 0.521–0.613
)
kernels_avx2=(
  conv2d_fwd_8x16x32x32_avx2:fma_ref:2.23                     # 1.22–1.77
  conv2d_fwd_8x16x32x32:fma_ref:2.32                          # 1.26–1.83
  conv2d_fwd_8x16x32x32_winograd:fma_ref:2.33                 # 1.18–2.01
  conv2d_bwd_8x16x32x32:fma_ref:3.27                          # 1.95–2.60
  conv2d_dw_8x16x32x32:fma_ref:1.24                           # 0.658–0.982
  conv2d_fwd_8x32x16x16:fma_ref:0.94                          # 0.515–0.741
  conv2d_bwd_8x32x16x16:fma_ref:1.42                          # 0.79–1.10
  conv2d_fwd_8x256x4x4:fma_ref:2.22                           # 1.34–1.84
  conv2d_bwd_8x256x4x4:fma_ref:5.09                           # 3.09–4.20
  conv2d_fwd_1x1s2_8x32x16x16:conv2d_fwd_8x16x32x32:0.09      # 0.056–0.067
  conv2d_fwd_1x16x16x16:conv2d_fwd_8x16x32x32:0.03            # 0.021–0.023
  conv2d_fwd_1x128x4x4:conv2d_fwd_8x16x32x32:0.06             # 0.041–0.044
  linear_fwd_128x512x256:fma_ref:0.44                         # 0.274–0.366
  linear_bwd_128x512x256:fma_ref:1.18                         # 0.741–0.998
  matmul_256:fma_ref:0.57                                     # 0.379–0.477
  matmul_512_avx2:fma_ref:5.29                                # 3.45–4.18
  matmul_512:fma_ref:5.35                                     # 3.50–4.28
  conv2d_fwd_8x16x32x32_scalar:fma_ref_scalar:1.55            # 0.81–1.25
  matmul_512_scalar:fma_ref_scalar:3.1                        # 2.07–2.47
  conv2d_fwd_8x16x32x32:conv2d_fwd_8x16x32x32_avx2:1.25       # 0.94–1.05
  conv2d_fwd_8x16x32x32_avx2:conv2d_fwd_8x16x32x32:1.25       # 0.97–1.08
  conv2d_dw_8x16x32x32:conv2d_fwd_8x16x32x32:0.74             # 0.503–0.578
)
# At every level. Pooling and lowering share speed states no reference
# does: they hold against `maxpool_fwd`.
kernels_any=(
  sgd_step_resnet18_w05:copy_ref:60.09                        # 31.61–47.92
  batchnorm_fwd:copy_ref:3.36                                 # 2.04–2.75
  batchnorm_bwd:copy_ref:2.64                                 # 1.44–2.24
  relu_fwd_8x32x32x32:copy_ref:1.5                            # 0.83–1.24
  relu_bwd_8x32x32x32:copy_ref:1.44                           # 0.86–1.24
  maxpool_fwd:copy_ref:11.4                                   # 4.96–9.87
  avgpool_fwd:maxpool_fwd:1.1                                 # 0.664–0.808
  im2col_8x16x32x32:maxpool_fwd:9.1                           # 6.08–7.46
  col2im_8x16x32x32:maxpool_fwd:9.2                           # 6.15–7.19
  relu_bwd_8x32x32x32:relu_fwd_8x32x32x32:1.47                # 0.82–1.20
  par_fork_join/gap100us:par_fork_join/hot:1.5                # 0.998–1.007
  par_fork_join/gap100us:par_fork_join/ideal:1.21             # 1.037–1.048
)
# The conv engine's scratch high-water, read at two threads: the backward's
# `dw` holds one block's padded copy per running task and two blocks of
# partials (653,056 B; 923,904 B while it held all 32 blocks' partials).
# A loan is charged at the capacity of the arena buffer that serves it,
# so the bound sits at 1.15 × the reading.
kernels_pins="--max-peak conv2d_fwd_scratch_peak:1048576,conv2d_bwd_scratch_peak:751104"
# What a plan costs, as a ratio to the step it replaces (runtime to Vec path,
# offload to none); 14 runs, one with every step doubled.
memory_ratios=(
  train_step/baseline:train_step/vec_baseline:1.49            # 1.04–1.18
  train_step/vdnn:train_step/baseline:1.3                     # 0.92–1.04
  train_step/hmms:train_step/baseline:1.64                    # 0.861–1.371
)
# A training step runs its plan's tape in order (DESIGN.md §10), so its
# resident peak is as exact as the plan: the vdnn and hmms steps are
# pinned from both sides, each below its planned pool; the planned pools
# are exact too, and the Fig. 10 capacity search at 27 MiB must fit 18
# images (13 while `dw` held every block's partials, DESIGN.md §13). A
# steady-state `train_plain` step takes at most 300 minor faults (0–11
# measured; ≈ 3,600 when each step's buffers were fresh).
memory_pins="--max-peak minor_faults_per_step/vec_unsplit:300,train_step/vdnn:1179648,train_step/hmms:1572864,planned_device/vdnn:2445824,planned_device/hmms:2707968 --min-peak train_step/vdnn:1179648,train_step/hmms:1572864,capacity/max_batch:18"
# Serving (DESIGN.md §15): the resident peaks are pinned exactly, the
# capacity search must not shrink, and the overload burst must shed,
# never overflow its queue, and finish every admitted request under the
# bench's own 10 s deadline. The p99 ceilings are tripwires ~10× the
# readings for a batcher that stops coalescing or a pool that stops
# sharing: a closed loop's tail has no reference region in its run.
serving_pins="--max-peak serve_resident_peak/c1:61440,serve_resident_peak/c8:491520,serve_resident_peak/c64:3932160,overload/queue_depth_peak:8 --min-peak serve_resident_peak/c1:61440,serve_resident_peak/c8:491520,serve_resident_peak/c64:3932160,capacity/max_concurrency:738,overload/shed:1 --max-p99 serve_latency/c1:24000000,serve_latency/c8:250000000,serve_latency/c64:4000000000,overload/admitted_latency:10000000000"
join() { local IFS=,; echo "$*"; }
if [[ "${SCNN_VERIFY_SKIP_BENCH:-0}" != 1 ]]; then
  for bench in kernels memory serving; do
    # The kernels run at one thread (the fork-join regions force two): a
    # second vCPU that comes and goes (DESIGN.md §9) speeds each kernel's
    # parallel part up by its own factor, which no reference shares.
    threads="$([[ "$bench" == kernels ]] && echo 1 || echo 0)"
    SCNN_THREADS="$threads" SCNN_BENCH_DIR="$tmp" cargo bench -q -p scnn-bench --bench "$bench" --offline
    case "$bench" in
      kernels)
        # The level auto dispatch ran at, from the file's host line.
        if grep -q '"simd":"avx512"' "$tmp/BENCH_kernels.json"; then
          level=("${kernels_avx512[@]}")
        else
          level=("${kernels_avx2[@]}")
        fi
        gates="--max-ratio $(join "${level[@]}" "${kernels_any[@]}") $kernels_pins"
        ;;
      memory) gates="--max-ratio $(join "${memory_ratios[@]}") $memory_pins" ;;
      serving) gates="$serving_pins" ;;
    esac
    # shellcheck disable=SC2086  # the gate spec is deliberately word-split
    cargo run -q --release -p scnn-bench --bin bench_check --offline -- \
      --file "$tmp/BENCH_$bench.json" $gates
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
  echo "  ran: bench smokes + byte pins; skipped: full bench runs, benchmark/check.sh"
else
  echo "  ran: bench smokes + byte pins, full kernels/memory/serving runs and their gates, benchmark/check.sh"
fi
echo "  code: $src_lines non-comment non-blank non-test lines under crates/*/src"
echo "  wall time per stage:"
printf '    %s\n' "${stage_times[@]}"
