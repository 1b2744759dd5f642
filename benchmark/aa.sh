#!/usr/bin/env bash
# A/A check of the benchmark itself: two interleaved sets (A, B) of RUNS runs
# of every workload on the current tree, every run with another seed, then
# `--compare` both ways round. Exits non-zero if any end-to-end set-median
# difference exceeds its bound or the single-run spread of a timing metric
# exceeds 10 % in either set.
#
#   benchmark/aa.sh [RUNS=5] [SECONDS=run_seconds of BENCHMARK.json]
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-5}
seconds=${2:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}
workloads=(train_split_hmms train_plain serve_closed_c1 serve_open_burst8)

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/scnn-benchmark
out=benchmark/out/aa
rm -rf "$out" && mkdir -p "$out"

a=() b=()
for i in $(seq 1 "$runs"); do
  for w in "${workloads[@]}"; do
    for set in A B; do
      seed=$((2 * i + $([ "$set" = A ] && echo 0 || echo 1)))
      f="$out/$w.$set.$i.json"
      echo "== run $i/$runs  set $set  $w  seed $seed"
      "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$f" | tail -n 1
      [ "$set" = A ] && a+=("$f") || b+=("$f")
    done
  done
done

join() { local IFS=,; echo "$*"; }
status=0
echo; echo "#### B against A"
"$bin" --compare "$(join "${a[@]}")" "$(join "${b[@]}")" --max-spread 0.10 || status=1
echo; echo "#### A against B"
"$bin" --compare "$(join "${b[@]}")" "$(join "${a[@]}")" --max-spread 0.10 || status=1
exit $status
